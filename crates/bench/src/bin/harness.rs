//! Regenerates every figure and table of the paper's reproduction: runs
//! experiments E1–E23 and prints the paper-style tables recorded in
//! `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p treequery-bench --release --bin harness           # all
//! cargo run -p treequery-bench --release --bin harness e07 e12  # a subset
//! cargo run -p treequery-bench --release --bin harness --report out.json
//! cargo run -p treequery-bench --release --bin harness --check-noop-overhead
//! cargo run -p treequery-bench --release --bin harness --serve-metrics 9184
//! cargo run -p treequery-bench --release --bin harness --trace out.json
//! cargo run -p treequery-bench --release --bin harness --check-trace out.json
//! cargo run -p treequery-bench --release --bin harness probe-endpoint 9184
//! cargo run -p treequery-bench --release --bin harness bench --baseline crates/bench/BENCH_seed.json
//! cargo run -p treequery-bench --release --bin harness fuzz --seconds 10 --seed 0xC0C4
//! ```
//!
//! `--report <file>` additionally runs each experiment inside an
//! observation capture and writes a machine-readable JSON report (wall
//! times, per-span latency percentiles, submitted engine counters).
//!
//! `--check-noop-overhead` measures the cost of a span outside any capture (with
//! and without a flight-recorder install/uninstall cycle) and the
//! disabled-path cost of the counting allocator; it fails (exit 1) if
//! the span cost regressed more than 5% past the recorded baseline in
//! `crates/bench/noop_baseline.json` or the allocator adds more than 10%
//! to a raw `System` alloc/free loop; `ci.sh` runs this gate.
//!
//! `bench` runs the pinned continuous-benchmark suite (one query per
//! strategy × document size × worker count) and writes
//! `BENCH_<git-sha>.json`; with `--baseline <file>` it exits 1 on >15%
//! wall or >5% allocated-byte regressions, or on any steady-state
//! kernel allocation in a set-at-a-time sweep case (hard zero cap).
//! `ci.sh` runs this gate against the committed
//! `crates/bench/BENCH_seed.json`.
//!
//! `--serve-metrics PORT` installs the flight recorder, runs a small demo
//! workload, and serves a persistent multi-request HTTP endpoint:
//! `/metrics` (Prometheus text), `/flight` (recent-query JSON), `/slow`
//! (slow-query JSON), and `/shutdown` (graceful stop). Unknown paths get
//! a 404 and malformed requests a 400 — connections are answered, never
//! dropped. The slow threshold follows `TREEQUERY_SLOW_MS`.
//!
//! `--trace FILE` runs the same demo workload under the flight recorder
//! and writes a Chrome trace-event JSON (`chrome://tracing`,
//! <https://ui.perfetto.dev>) with one complete span tree per query and
//! worker-attributed chunk events; `--check-trace FILE` parses a written
//! trace back and validates it (the `ci.sh` round-trip gate).
//!
//! `probe-endpoint PORT` is the client half of the `ci.sh` endpoint gate:
//! it scrapes `/metrics` twice over one server lifetime (validating the
//! exposition text), parses `/flight` and `/slow` JSON (expecting slow
//! records — run the server under `TREEQUERY_SLOW_MS=0`), checks the 404
//! and 400 paths, then asks the server to shut down.
//!
//! `fuzz` runs a seed-deterministic differential fuzzing campaign;
//! `fuzz --edits` restricts it to edit-script cases, cross-checking the
//! incrementally maintained document against a from-scratch rebuild
//! oracle after every edit
//! (`--seconds N --seed S [--rate R] [--corpus DIR]`); shrunk
//! reproducers are persisted to the corpus directory (default
//! `tests/corpus`) and the process exits 1 if any discrepancy was
//! found. `ci.sh` runs this gate too.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery_bench::experiments::{self, e18_observability};
use treequery_bench::report::ReportBuilder;
use treequery_bench::suite;
use treequery_core::obs::parse_json;
use treequery_core::tree::{xmark_document, XmarkConfig};
use treequery_core::Engine;

const ALL: &[(&str, fn())] = &[
    ("e01", experiments::e01_table1::run),
    ("e02", experiments::e02_xasr::run),
    ("e03", experiments::e03_minoux::run),
    ("e04", experiments::e04_decomposition::run),
    ("e05", experiments::e05_xproperty::run),
    ("e06", experiments::e06_enumeration::run),
    ("e07", experiments::e07_dichotomy::run),
    ("e08", experiments::e08_datalog::run),
    ("e09", experiments::e09_treewidth::run),
    ("e10", experiments::e10_xpath_cq::run),
    ("e11", experiments::e11_rewrite::run),
    ("e12", experiments::e12_structural::run),
    ("e13", experiments::e13_twig::run),
    ("e14", experiments::e14_streaming::run),
    ("e15", experiments::e15_hornsat::run),
    ("e16", experiments::e16_xpath_scaling::run),
    ("e17", experiments::e17_planner::run),
    ("e18", e18_observability::run),
    ("e19", experiments::e19_parallel::run),
    ("e21", experiments::e21_memory::run),
    ("e22", experiments::e22_postings::run),
    ("e23", experiments::e23_flight::run),
    ("e24", experiments::e24_incremental::run),
];

const USAGE: &str = "\
usage: harness [EXPERIMENT-IDS...] [--report FILE]
       harness --check-noop-overhead
       harness --serve-metrics PORT
       harness --trace FILE | --check-trace FILE
       harness probe-endpoint PORT
       harness probe-observatory PORT [--tenants A,B] [--trace ID]
       harness bench [--out FILE] [--baseline FILE] [--reps N] [--sizes SMALL,LARGE]
       harness fuzz [--seconds N] [--seed S] [--rate R] [--edits] [--corpus DIR | --no-corpus]
       harness serve PORT [--heavy-cap N] [--admit-timeout-ms N] [--drain-ms N]
                          [--flight] [--http PORT] [--slo CLASS=MS ...]
                          [--slo-target-ppm N]
       harness serve-client PORT TRANSCRIPT

With no arguments, runs all experiments (e1..e19, e21..e24) and prints
their tables. `--report` writes a machine-readable JSON report instead.
`--serve-metrics` serves a persistent endpoint (/metrics /flight /slow,
GET /shutdown stops it); `--trace` writes a Chrome trace-event JSON of
the demo workload; `probe-endpoint` is the CI client for the endpoint
gate. `bench` runs the pinned continuous-benchmark suite, writes
BENCH_<git-sha>.json, and (with --baseline) exits 1 on >15% wall /
>5% allocated-byte regressions or any steady-state sweep-kernel
allocation. `serve` runs the multi-tenant query service (line-JSON over
TCP on 127.0.0.1:PORT, verbs hello/load/query/edit/cancel/usage/slo/...);
`--flight` installs the flight recorder so replies join their span
records, `--http` adds the observatory listener (/metrics /tenants /slo
/flight /slow), `--drain-ms` bounds the graceful-shutdown drain, and
`--slo CLASS=MS` overrides a latency objective (linear,
output_sensitive, polynomial, exponential). `serve-client` replays a
transcript against it and exits 1 on any mismatch (the ci.sh serve
gate); `probe-observatory` is the CI client for the observatory gate.";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n\n{USAGE}");
    std::process::exit(2);
}

fn lookup(arg: &str) -> Option<(&'static str, fn())> {
    let digits = arg
        .trim_start_matches('e')
        .trim_start_matches('E')
        .trim_start_matches('0');
    ALL.iter()
        .find(|(id, _)| id.trim_start_matches('e').trim_start_matches('0') == digits)
        .copied()
}

/// The disabled-path cost of the counting allocator: a raw alloc/free
/// loop through the installed `#[global_allocator]` (accounting off)
/// versus the same loop straight against `System`. Interleaved reps,
/// min of each — the steady-state ratio.
fn counting_alloc_overhead() -> f64 {
    use std::alloc::{GlobalAlloc, Layout, System};
    use treequery_core::obs::alloc::CountingAlloc;
    let layout = Layout::from_size_align(256, 8).expect("static layout");
    const ITERS: usize = 200_000;
    fn timed(mut alloc_free: impl FnMut()) -> Duration {
        let started = Instant::now();
        for _ in 0..ITERS {
            alloc_free();
        }
        started.elapsed()
    }
    // Call the CountingAlloc instance's methods directly rather than
    // going through `std::alloc::alloc`: the latter adds the
    // `__rust_alloc` -> `__rg_alloc` trampoline that *any* registered
    // `#[global_allocator]` pays (even a pure forwarder), which would
    // drown the quantity under test — the marginal cost of the
    // disabled-path accounting check itself.
    let counting = CountingAlloc;
    // Ratio per *adjacent pair* of timed loops, min over reps: a machine
    // slowdown spanning one rep hits both loops of the pair and cancels
    // in the ratio, while a genuine check cost shows up in every pair.
    let mut best_ratio = f64::MAX;
    for _ in 0..15 {
        // black_box keeps LLVM from eliding the malloc/free pairs (it
        // happily deletes dead System allocations, leaving a 0ns
        // baseline and a nonsense ratio).
        let system = timed(|| unsafe {
            let p = std::hint::black_box(System.alloc(layout));
            assert!(!p.is_null());
            System.dealloc(p, layout);
        });
        let counting = timed(|| unsafe {
            let p = std::hint::black_box(counting.alloc(layout));
            assert!(!p.is_null());
            counting.dealloc(p, layout);
        });
        best_ratio = best_ratio.min(counting.as_secs_f64() / system.as_secs_f64());
    }
    best_ratio
}

/// Fails (exit 1) if the disabled-span overhead regressed more
/// than 5% past the recorded baseline ratio, or if the counting
/// allocator's disabled path adds more than 10% to a raw alloc/free
/// loop.
fn check_noop_overhead() {
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/noop_baseline.json");
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let baseline = parse_json(&text).expect("noop_baseline.json is valid JSON");
    let max_ratio = baseline
        .get("max_ratio")
        .and_then(|v| v.as_f64())
        .expect("baseline has a max_ratio field");
    let budget = max_ratio * 1.05;
    let measured = e18_observability::noop_overhead();
    println!(
        "disabled-span overhead: measured ratio {:.4} ({:.2}ns/span), \
         baseline {max_ratio:.2}, budget {budget:.4}",
        measured.ratio, measured.per_span_ns
    );
    let mut failed = false;
    if measured.ratio > budget {
        eprintln!(
            "FAIL: disabled-span overhead {:.4} exceeds budget {budget:.4} \
             (baseline {max_ratio:.2} + 5%)",
            measured.ratio
        );
        failed = true;
    }
    // An install/uninstall cycle of the flight recorder must leave no
    // residue behind: the disabled path keeps the same budget.
    {
        use treequery_core::obs::flight;
        flight::install(flight::FlightConfig::default());
        flight::uninstall();
        let cycled = e18_observability::noop_overhead();
        println!(
            "flight-disabled overhead (after install/uninstall cycle): \
             ratio {:.4} ({:.2}ns/span), budget {budget:.4}",
            cycled.ratio, cycled.per_span_ns
        );
        if cycled.ratio > budget {
            eprintln!(
                "FAIL: flight-recorder-disabled span overhead {:.4} exceeds \
                 budget {budget:.4}",
                cycled.ratio
            );
            failed = true;
        }
    }
    // After a full request-tracing round trip (install, a recorded
    // request with its context, a captured span and a response
    // annotation, uninstall) the disabled span path must still meet the
    // original budget: every capture it opened is closed again, so
    // tracing support cannot tax servers that never enable it.
    {
        use treequery_core::obs::flight;
        flight::install(flight::FlightConfig::default());
        let ctx = flight::RequestCtx {
            tenant: "overhead-probe".to_owned(),
            trace_id: "overhead-probe".to_owned(),
            admission_wait_ns: 0,
        };
        flight::record_request(|| {
            flight::with_request_ctx(ctx, || {
                let _span = treequery_core::obs::span("overhead.probe");
            });
            flight::annotate_response(1);
        });
        flight::uninstall();
        let traced = e18_observability::noop_overhead();
        println!(
            "tracing-disabled overhead (after a request-tracing round trip): \
             ratio {:.4} ({:.2}ns/span), budget {budget:.4}",
            traced.ratio, traced.per_span_ns
        );
        if traced.ratio > budget {
            eprintln!(
                "FAIL: tracing-disabled span overhead {:.4} exceeds budget \
                 {budget:.4}",
                traced.ratio
            );
            failed = true;
        }
    }
    const ALLOC_BUDGET: f64 = 1.10;
    let alloc_ratio = counting_alloc_overhead();
    println!(
        "counting-allocator disabled-path overhead: ratio {alloc_ratio:.4} \
         vs raw System, budget {ALLOC_BUDGET:.2}"
    );
    if alloc_ratio > ALLOC_BUDGET {
        eprintln!(
            "FAIL: counting allocator adds {:.1}% to raw allocation \
             (budget 10%)",
            (alloc_ratio - 1.0) * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "OK: disabled spans (before and after a flight-recorder cycle) \
         and the counting allocator are within budget"
    );
}

/// Parses a decimal or `0x`-prefixed hexadecimal integer.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The `bench` subcommand: runs the pinned suite, writes the trajectory
/// report, and optionally gates against a baseline. Exits 1 on
/// regression, 2 on bad arguments.
fn run_bench(args: &[String]) -> ! {
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut reps = 15usize;
    let mut sizes = (500usize, 5_000usize);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--out" => out = Some(take("--out")),
            "--baseline" => baseline = Some(take("--baseline")),
            "--reps" => {
                reps = parse_u64(&take("--reps"))
                    .unwrap_or_else(|| usage_error("--reps expects an integer"))
                    as usize
            }
            "--sizes" => {
                let v = take("--sizes");
                let parsed = v.split_once(',').and_then(|(s, l)| {
                    Some((parse_u64(s.trim())? as usize, parse_u64(l.trim())? as usize))
                });
                sizes =
                    parsed.unwrap_or_else(|| usage_error("--sizes expects SMALL,LARGE integers"));
            }
            other => usage_error(&format!("unknown bench option '{other}'")),
        }
    }
    let report = suite::run_suite_with(sizes.0, sizes.1, reps);
    if let Some(cases) = report.get("cases").and_then(|c| c.as_arr()) {
        println!(
            "{:<42} {:>12} {:>12} {:>12}",
            "case", "wall p50", "bytes", "peak live"
        );
        for c in cases {
            let u = |k: &str| c.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            println!(
                "{:<42} {:>12} {:>12} {:>12}",
                c.get("id").and_then(|v| v.as_str()).unwrap_or("?"),
                treequery_bench::util::fmt_dur(Duration::from_nanos(u("wall_p50_ns"))),
                u("bytes"),
                u("peak_live_bytes"),
            );
        }
    }
    let path = out.unwrap_or_else(|| format!("BENCH_{}.json", suite::git_sha()));
    let mut rendered = report.render();
    rendered.push('\n');
    if let Err(e) = std::fs::write(&path, rendered) {
        eprintln!("cannot write bench report to {path}: {e}");
        std::process::exit(1);
    }
    println!("bench report written to {path}");
    if let Some(baseline_path) = baseline {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read {baseline_path}: {e}")));
        let base =
            parse_json(&text).unwrap_or_else(|e| usage_error(&format!("{baseline_path}: {e:?}")));
        let mut failures = suite::compare_reports(&report, &base);
        // A genuine regression reproduces on every re-measurement; a
        // noisy-neighbor phase hits different cases each time. Keep only
        // failures that persist across up to two fresh suite runs.
        for attempt in 0..2 {
            if failures.is_empty() {
                break;
            }
            eprintln!(
                "{} possible regression(s); re-measuring (attempt {})",
                failures.len(),
                attempt + 2,
            );
            let retry = suite::run_suite_with(sizes.0, sizes.1, reps);
            let retry_failures = suite::compare_reports(&retry, &base);
            let case_of = |f: &str| f.split(": ").next().unwrap_or("").to_owned();
            let retry_cases: Vec<String> = retry_failures.iter().map(|f| case_of(f)).collect();
            failures.retain(|f| retry_cases.contains(&case_of(f)));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            eprintln!(
                "{} regression(s) against baseline {baseline_path}",
                failures.len()
            );
            std::process::exit(1);
        }
        println!("OK: within budgets of baseline {baseline_path}");
    }
    std::process::exit(0);
}

/// The demo queries `--serve-metrics` and `--trace` run: three XPath
/// sweeps over a seed-pinned XMark document.
const DEMO_QUERIES: &[&str] = &[
    "//person/name",
    "//open_auction//bidder",
    "/site/regions//item",
];

/// The seed-pinned XMark document the demo workload queries.
fn demo_tree() -> treequery_core::tree::Tree {
    let mut rng = StdRng::seed_from_u64(0xFEED);
    xmark_document(&mut rng, &XmarkConfig::scaled_to(2_000))
}

/// An engine over the demo tree with parallelism pinned (4 workers, a
/// threshold the demo tree clears) so traces carry worker-attributed
/// chunk events regardless of the machine or `TREEQUERY_WORKERS`.
fn demo_engine(tree: &treequery_core::tree::Tree) -> Engine<'_> {
    use treequery_core::{EngineConfig, PlannerConfig};
    Engine::with_config(
        tree,
        EngineConfig {
            planner: PlannerConfig {
                workers: Some(4),
                parallel_threshold: 512,
                ..PlannerConfig::default()
            },
            ..EngineConfig::default()
        },
    )
}

/// Runs the demo queries (recorded by the flight recorder when it is
/// installed) and publishes the engine counters to the global registry.
fn run_demo_workload(engine: &Engine<'_>) {
    use treequery_core::obs::metrics;
    let wall = metrics::global().histogram_family_or_existing(
        "treequery_demo_query_wall_ns",
        "Wall time of demo-workload queries.",
        "query",
    );
    for q in DEMO_QUERIES {
        let started = Instant::now();
        engine.xpath(q).expect("demo workload queries parse");
        wall.with_label(q)
            .observe(started.elapsed().as_nanos() as u64);
    }
    engine.metrics_quiesced().publish_to_registry();
}

/// One routed HTTP response: status, reason, content type, body, and
/// whether the server should stop after answering.
struct Routed {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    shutdown: bool,
}

/// Routes one HTTP request line. Pure — exercised directly by the router
/// unit tests. Malformed request lines get a 400 and unknown paths a 404
/// (never a dropped connection).
fn route_request(request_line: &str) -> Routed {
    use treequery_core::obs::{flight, metrics, prom};
    let plain = "text/plain; charset=utf-8";
    let bad = |body: &str| Routed {
        status: 400,
        reason: "Bad Request",
        content_type: plain,
        body: body.to_string(),
        shutdown: false,
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return bad("malformed request line\n");
    };
    if !version.starts_with("HTTP/") {
        return bad("malformed request line: expected an HTTP version\n");
    }
    if method != "GET" {
        return Routed {
            status: 405,
            reason: "Method Not Allowed",
            content_type: plain,
            body: format!("method {method} not allowed; this endpoint is GET-only\n"),
            shutdown: false,
        };
    }
    let ok = |content_type: &'static str, body: String, shutdown: bool| Routed {
        status: 200,
        reason: "OK",
        content_type,
        body,
        shutdown,
    };
    match path.split('?').next().unwrap_or(path) {
        "/metrics" => ok(
            prom::CONTENT_TYPE,
            prom::render_registry(metrics::global()),
            false,
        ),
        "/flight" => {
            let mut body = flight::recent_json().render();
            body.push('\n');
            ok("application/json", body, false)
        }
        "/slow" => {
            let mut body = flight::slow_json().render();
            body.push('\n');
            ok("application/json", body, false)
        }
        "/shutdown" => ok(plain, "shutting down\n".to_string(), true),
        "/" => ok(
            plain,
            "treequery observatory: /metrics /flight /slow /shutdown\n".to_string(),
            false,
        ),
        other => Routed {
            status: 404,
            reason: "Not Found",
            content_type: plain,
            body: format!("no such endpoint {other} (try /metrics, /flight, /slow)\n"),
            shutdown: false,
        },
    }
}

/// Answers one accepted connection; returns whether `/shutdown` was hit.
fn answer_connection(stream: &mut std::net::TcpStream) -> bool {
    use std::io::{BufRead, BufReader, Write};
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut request_line = String::new();
    // Only the request line matters for routing; remaining header bytes
    // die with the connection (Connection: close on every response).
    let _ = BufReader::new(&mut *stream).read_line(&mut request_line);
    let routed = route_request(request_line.trim_end());
    let response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{}",
        routed.status,
        routed.reason,
        routed.content_type,
        routed.body.len(),
        routed.body,
    );
    let _ = stream.write_all(response.as_bytes());
    routed.shutdown
}

/// `--serve-metrics PORT`: install the flight recorder, run the demo
/// workload, then serve `/metrics`, `/flight` and `/slow` over as many
/// sequential scrapes as clients ask for, until `GET /shutdown`.
fn serve_metrics(port: u16) -> ! {
    use treequery_core::obs::flight;

    flight::install(flight::FlightConfig::from_env());
    let tree = demo_tree();
    let engine = demo_engine(&tree);
    run_demo_workload(&engine);

    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| usage_error(&format!("cannot bind 127.0.0.1:{port}: {e}")));
    println!(
        "serving http://{0}/metrics (also /flight, /slow; GET /shutdown stops)",
        listener
            .local_addr()
            .expect("bound listener has an address")
    );
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        if answer_connection(&mut stream) {
            break;
        }
    }
    flight::uninstall();
    println!("shutdown requested; exiting");
    std::process::exit(0);
}

/// `--trace FILE`: run the demo workload under the flight recorder and
/// write the Chrome trace-event JSON of every recorded query.
fn write_trace(path: &str) -> ! {
    use treequery_core::obs::{flight, traceexport};

    flight::install(flight::FlightConfig::from_env());
    let tree = demo_tree();
    let engine = demo_engine(&tree);
    run_demo_workload(&engine);
    let records = flight::recent();
    let trace = traceexport::chrome_trace(&records);
    flight::uninstall();
    let stats = match traceexport::validate_chrome_trace(&trace) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("generated trace does not validate: {e}");
            std::process::exit(1);
        }
    };
    let mut rendered = trace.render();
    rendered.push('\n');
    if let Err(e) = std::fs::write(path, rendered) {
        eprintln!("cannot write trace to {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "trace written to {path}: {} events across {} queries \
         ({} worker chunk events on {} threads); load it in \
         chrome://tracing or https://ui.perfetto.dev",
        stats.events, stats.queries, stats.chunk_events, stats.threads
    );
    std::process::exit(0);
}

/// `--check-trace FILE`: parse a written trace back through the committed
/// JSON parser and validate its shape (the `ci.sh` round-trip gate).
fn check_trace(path: &str) -> ! {
    use treequery_core::obs::traceexport;

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read trace {path}: {e}");
        std::process::exit(1);
    });
    let trace = parse_json(&text).unwrap_or_else(|e| {
        eprintln!("trace {path} is not valid JSON: {e:?}");
        std::process::exit(1);
    });
    let stats = traceexport::validate_chrome_trace(&trace).unwrap_or_else(|e| {
        eprintln!("trace {path} failed validation: {e}");
        std::process::exit(1);
    });
    let mut failed = false;
    if stats.queries < DEMO_QUERIES.len() {
        eprintln!(
            "FAIL: trace holds {} complete query span trees, expected {}",
            stats.queries,
            DEMO_QUERIES.len()
        );
        failed = true;
    }
    if stats.chunk_events == 0 {
        eprintln!("FAIL: trace has no worker-attributed chunk events");
        failed = true;
    }
    // On a single-core box one worker can legitimately drain every chunk
    // before its siblings wake, so the multi-thread requirement only
    // applies where the machine can actually run workers concurrently.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 && stats.threads < 2 {
        eprintln!(
            "FAIL: trace attributes events to {} thread(s); parallel chunks \
             should involve at least 2 on a {cores}-core machine",
            stats.threads
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "OK: {path} round-trips ({} events, {} queries, {} chunk events, \
         {} threads)",
        stats.events, stats.queries, stats.chunk_events, stats.threads
    );
    std::process::exit(0);
}

/// Issues one HTTP request against the local endpoint and returns the
/// status code and body. Retries the connect briefly so the CI gate can
/// start the probe as soon as it forks the server.
fn probe_request(port: u16, raw_request: &[u8]) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let mut last_err = String::new();
    for _ in 0..50 {
        match std::net::TcpStream::connect(("127.0.0.1", port)) {
            Ok(mut stream) => {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                stream
                    .write_all(raw_request)
                    .map_err(|e| format!("write request: {e}"))?;
                let mut response = String::new();
                stream
                    .read_to_string(&mut response)
                    .map_err(|e| format!("read response: {e}"))?;
                let status = response
                    .strip_prefix("HTTP/1.1 ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|code| code.parse::<u16>().ok())
                    .ok_or_else(|| format!("unparseable status line in {response:?}"))?;
                let body = response
                    .split_once("\r\n\r\n")
                    .map(|(_, b)| b.to_string())
                    .unwrap_or_default();
                return Ok((status, body));
            }
            Err(e) => {
                last_err = e.to_string();
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    Err(format!("cannot connect to 127.0.0.1:{port}: {last_err}"))
}

fn probe_get(port: u16, path: &str) -> Result<(u16, String), String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
    probe_request(port, request.as_bytes())
}

/// `probe-endpoint PORT`: the client half of the `ci.sh` endpoint gate.
/// Exits 1 with a message on the first failed check.
fn probe_endpoint(port: u16) -> ! {
    use treequery_core::obs::prom;
    fn fail(msg: &str) -> ! {
        eprintln!("FAIL: {msg}");
        std::process::exit(1);
    }
    let expect = |what: &str, r: Result<(u16, String), String>| -> (u16, String) {
        r.unwrap_or_else(|e| fail(&format!("{what}: {e}")))
    };

    // Two sequential scrapes over one server lifetime: the endpoint must
    // survive its first response.
    for attempt in 1..=2 {
        let (status, body) = expect("/metrics", probe_get(port, "/metrics"));
        if status != 200 {
            fail(&format!("/metrics scrape {attempt} returned {status}"));
        }
        match prom::validate_exposition(&body) {
            Ok(samples) if samples > 0 => {
                println!("scrape {attempt}: {samples} samples, exposition validates")
            }
            Ok(_) => fail(&format!("/metrics scrape {attempt} exposed no samples")),
            Err(e) => fail(&format!("/metrics scrape {attempt} is malformed: {e}")),
        }
    }

    let (status, body) = expect("/flight", probe_get(port, "/flight"));
    if status != 200 {
        fail(&format!("/flight returned {status}"));
    }
    let flight = parse_json(&body)
        .unwrap_or_else(|e| fail(&format!("/flight body is not valid JSON: {e:?}")));
    let records = flight
        .get("records")
        .and_then(|r| r.as_arr())
        .unwrap_or_else(|| fail("/flight JSON has no records array"));
    if records.is_empty() {
        fail("/flight holds no records; the server's demo workload should have been recorded");
    }
    println!("/flight: {} recent query records", records.len());

    let (status, body) = expect("/slow", probe_get(port, "/slow"));
    if status != 200 {
        fail(&format!("/slow returned {status}"));
    }
    let slow =
        parse_json(&body).unwrap_or_else(|e| fail(&format!("/slow body is not valid JSON: {e:?}")));
    let slow_records = slow
        .get("records")
        .and_then(|r| r.as_arr())
        .unwrap_or_else(|| fail("/slow JSON has no records array"));
    if slow_records.is_empty() {
        fail(
            "/slow holds no records; run the server under TREEQUERY_SLOW_MS=0 \
             so the demo workload logs as slow",
        );
    }
    let has_explain = slow_records.iter().all(|r| {
        r.get("explain")
            .and_then(|e| e.as_str())
            .is_some_and(|e| !e.is_empty())
    });
    if !has_explain {
        fail("/slow records are missing their EXPLAIN ANALYZE text");
    }
    println!(
        "/slow: {} slow-query records with EXPLAIN ANALYZE",
        slow_records.len()
    );

    let (status, _) = expect("/nope", probe_get(port, "/nope"));
    if status != 404 {
        fail(&format!("unknown path should 404, got {status}"));
    }
    let (status, _) = expect("garbage request", probe_request(port, b"BLARG\r\n\r\n"));
    if status != 400 {
        fail(&format!("malformed request should 400, got {status}"));
    }
    println!("404 on unknown paths, 400 on malformed requests");

    let (status, _) = expect("/shutdown", probe_get(port, "/shutdown"));
    if status != 200 {
        fail(&format!("/shutdown returned {status}"));
    }
    println!("OK: endpoint survived 2 scrapes, served /flight and /slow, and shut down cleanly");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("serve-client") => run_serve_client(&args[1..]),
        Some("probe-endpoint") => {
            let port = args
                .get(1)
                .and_then(|p| p.parse::<u16>().ok())
                .unwrap_or_else(|| usage_error("probe-endpoint requires a port"));
            probe_endpoint(port);
        }
        Some("probe-observatory") => {
            let port = args
                .get(1)
                .and_then(|p| p.parse::<u16>().ok())
                .unwrap_or_else(|| usage_error("probe-observatory requires a port"));
            probe_observatory(port, &args[2..]);
        }
        _ => {}
    }
    let mut report_path: Option<String> = None;
    let mut selected: Vec<(&'static str, fn())> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--check-noop-overhead" => {
                check_noop_overhead();
                return;
            }
            "--serve-metrics" => {
                let port = iter
                    .next()
                    .and_then(|p| p.parse::<u16>().ok())
                    .unwrap_or_else(|| usage_error("--serve-metrics requires a port"));
                serve_metrics(port);
            }
            "--trace" => match iter.next() {
                Some(path) => write_trace(path),
                None => usage_error("--trace requires an output file path"),
            },
            "--check-trace" => match iter.next() {
                Some(path) => check_trace(path),
                None => usage_error("--check-trace requires a trace file path"),
            },
            "--report" => match iter.next() {
                Some(path) => report_path = Some(path.clone()),
                None => usage_error("--report requires an output file path"),
            },
            other if other.starts_with('-') => usage_error(&format!("unknown flag '{other}'")),
            other => match lookup(other) {
                Some(exp) => selected.push(exp),
                None => usage_error(&format!(
                    "unknown experiment '{other}' (expected e1..e19, e21..e24)"
                )),
            },
        }
    }
    if selected.is_empty() {
        selected = ALL.to_vec();
    }
    match report_path {
        Some(path) => {
            let mut builder = ReportBuilder::new();
            for (id, run) in selected {
                builder.run(id, run);
            }
            if let Err(e) = builder.write(&path) {
                eprintln!("cannot write report to {path}: {e}");
                std::process::exit(1);
            }
            println!("\nreport written to {path}");
        }
        None => {
            for (_, run) in selected {
                run();
            }
        }
    }
}

/// The `serve` subcommand: runs the multi-tenant query service in the
/// foreground until a client sends the `shutdown` verb.
fn run_serve(args: &[String]) -> ! {
    let port = args
        .first()
        .and_then(|p| p.parse::<u16>().ok())
        .unwrap_or_else(|| usage_error("serve requires a port"));
    let mut config = treequery_serve::ServerConfig::default();
    let mut flight_on = false;
    let mut http_port: Option<u16> = None;
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--heavy-cap" => {
                config.heavy_cap = take("--heavy-cap")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--heavy-cap expects an integer"))
            }
            "--admit-timeout-ms" => {
                let ms: u64 = take("--admit-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--admit-timeout-ms expects an integer"));
                config.admit_timeout = Duration::from_millis(ms);
            }
            "--drain-ms" => {
                let ms: u64 = take("--drain-ms")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--drain-ms expects an integer"));
                config.drain = Duration::from_millis(ms);
            }
            "--flight" => flight_on = true,
            "--http" => {
                http_port = Some(
                    take("--http")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--http expects a port")),
                )
            }
            "--slo" => {
                let spec = take("--slo");
                let (class, ms) = spec
                    .split_once('=')
                    .and_then(|(c, m)| Some((c.trim().to_owned(), m.trim().parse::<u64>().ok()?)))
                    .unwrap_or_else(|| usage_error("--slo expects CLASS=MS"));
                let threshold_ns = ms.saturating_mul(1_000_000);
                match config.slo.objectives.iter_mut().find(|o| o.class == class) {
                    Some(o) => o.threshold_ns = threshold_ns,
                    None => config
                        .slo
                        .objectives
                        .push(treequery_core::obs::slo::Objective {
                            class,
                            threshold_ns,
                        }),
                }
            }
            "--slo-target-ppm" => {
                config.slo.target_ppm = take("--slo-target-ppm")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--slo-target-ppm expects an integer"));
            }
            other => usage_error(&format!("unknown serve option '{other}'")),
        }
    }
    if flight_on {
        use treequery_core::obs::flight;
        flight::install(flight::FlightConfig::from_env());
    }
    let server = match treequery_serve::Server::bind(&format!("127.0.0.1:{port}"), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(http_port) = http_port {
        match treequery_serve::spawn_observatory(server.shared(), &format!("127.0.0.1:{http_port}"))
        {
            Ok(bound) => println!("observatory listening on 127.0.0.1:{bound}"),
            Err(e) => {
                eprintln!("cannot bind observatory 127.0.0.1:{http_port}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "treequery-serve listening on 127.0.0.1:{port} (protocol v{})",
        { treequery_serve::PROTOCOL_VERSION }
    );
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("server error: {e}");
            std::process::exit(1);
        }
    }
}

/// `probe-observatory PORT`: the client half of the `ci.sh` tenant
/// observatory gate. Checks `/tenants` and `/slo` serve valid scoped
/// expositions (naming each `--tenants` tenant), `/metrics` includes the
/// tenant families, and (with `--trace`) that the given trace id reached
/// a `/flight` record. Exits 1 on the first failed check.
fn probe_observatory(port: u16, args: &[String]) -> ! {
    use treequery_core::obs::prom;
    let mut tenants: Vec<String> = Vec::new();
    let mut trace: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--tenants" => {
                tenants = take("--tenants")
                    .split(',')
                    .map(|t| t.trim().to_owned())
                    .filter(|t| !t.is_empty())
                    .collect()
            }
            "--trace" => trace = Some(take("--trace")),
            other => usage_error(&format!("unknown probe-observatory option '{other}'")),
        }
    }
    fn fail(msg: &str) -> ! {
        eprintln!("FAIL: {msg}");
        std::process::exit(1);
    }
    let expect = |what: &str, r: Result<(u16, String), String>| -> (u16, String) {
        r.unwrap_or_else(|e| fail(&format!("{what}: {e}")))
    };

    let (status, body) = expect("/tenants", probe_get(port, "/tenants"));
    if status != 200 {
        fail(&format!("/tenants returned {status}"));
    }
    match prom::validate_exposition(&body) {
        Ok(samples) => println!("/tenants: {samples} samples, exposition validates"),
        Err(e) => fail(&format!("/tenants exposition is malformed: {e}")),
    }
    for tenant in &tenants {
        let needle = format!("treequery_tenant_queries{{tenant=\"{tenant}\"}}");
        if !body.contains(&needle) {
            fail(&format!("/tenants has no usage row for tenant {tenant:?}"));
        }
    }
    if !tenants.is_empty() {
        println!("/tenants: all of {tenants:?} accounted");
    }

    let (status, body) = expect("/slo", probe_get(port, "/slo"));
    if status != 200 {
        fail(&format!("/slo returned {status}"));
    }
    match prom::validate_exposition(&body) {
        Ok(samples) if samples > 0 => println!("/slo: {samples} samples, exposition validates"),
        Ok(_) => fail("/slo exposed no samples — no SLO classes configured?"),
        Err(e) => fail(&format!("/slo exposition is malformed: {e}")),
    }
    if !body.contains("treequery_slo_fast_burn_ppm") {
        fail("/slo is missing the fast-window burn-rate gauges");
    }

    let (status, body) = expect("/metrics", probe_get(port, "/metrics"));
    if status != 200 {
        fail(&format!("/metrics returned {status}"));
    }
    match prom::validate_exposition(&body) {
        Ok(_) => {}
        Err(e) => fail(&format!("/metrics exposition is malformed: {e}")),
    }
    if !body.contains("treequery_tenant_queries") || !body.contains("treequery_slo_") {
        fail("/metrics does not include the tenant and SLO families");
    }
    println!("/metrics: includes the tenant and SLO families");

    if let Some(trace_id) = trace {
        let (status, body) = expect("/flight", probe_get(port, "/flight"));
        if status != 200 {
            fail(&format!("/flight returned {status}"));
        }
        let flight = parse_json(&body)
            .unwrap_or_else(|e| fail(&format!("/flight body is not valid JSON: {e:?}")));
        let records = flight
            .get("records")
            .and_then(|r| r.as_arr())
            .unwrap_or_else(|| fail("/flight JSON has no records array"));
        let found = records.iter().any(|r| {
            r.get("trace_id")
                .and_then(|t| t.as_str())
                .is_some_and(|t| t == trace_id)
        });
        if !found {
            fail(&format!(
                "no /flight record carries trace_id {trace_id:?} ({} records)",
                records.len()
            ));
        }
        println!("/flight: trace id {trace_id:?} joined to a query record");
    }

    let (status, _) = expect("/nope", probe_get(port, "/nope"));
    if status != 404 {
        fail(&format!("unknown path should 404, got {status}"));
    }
    println!("OK: observatory serves scoped tenant and SLO expositions");
    std::process::exit(0);
}

/// The `serve-client` subcommand: replays a transcript against a running
/// server — the CI serve gate's client half. Exits 1 on any mismatch.
fn run_serve_client(args: &[String]) -> ! {
    let port = args
        .first()
        .and_then(|p| p.parse::<u16>().ok())
        .unwrap_or_else(|| usage_error("serve-client requires a port"));
    let path = args
        .get(1)
        .unwrap_or_else(|| usage_error("serve-client requires a transcript path"));
    match treequery_serve::replay(port, path) {
        Ok(report) => {
            println!(
                "transcript ok: {} requests sent, {} checks matched",
                report.requests, report.checks
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("transcript FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// The `fuzz` subcommand: a seed-deterministic differential campaign.
/// Exits 1 on any discrepancy, 2 on bad arguments.
fn run_fuzz(args: &[String]) -> ! {
    let mut cfg = treequery_fuzz::CampaignConfig {
        corpus_dir: Some(std::path::PathBuf::from("tests/corpus")),
        ..treequery_fuzz::CampaignConfig::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .cloned()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--seconds" => {
                cfg.seconds = parse_u64(&take("--seconds"))
                    .unwrap_or_else(|| usage_error("--seconds expects an integer"))
            }
            "--seed" => {
                cfg.seed = parse_u64(&take("--seed"))
                    .unwrap_or_else(|| usage_error("--seed expects an integer (decimal or 0x-hex)"))
            }
            "--rate" => {
                cfg.inputs_per_second = parse_u64(&take("--rate"))
                    .unwrap_or_else(|| usage_error("--rate expects an integer"))
            }
            "--corpus" => cfg.corpus_dir = Some(std::path::PathBuf::from(take("--corpus"))),
            "--no-corpus" => cfg.corpus_dir = None,
            "--edits" => cfg.edits_only = true,
            other => usage_error(&format!("unknown fuzz option '{other}'")),
        }
    }
    let report = treequery_fuzz::run_campaign(&cfg);
    print!("{}", report.render());
    println!("elapsed: {:.2}s", report.elapsed.as_secs_f64());
    for p in &report.saved {
        println!("saved reproducer: {}", p.display());
    }
    if report.total_discrepancies() > 0 {
        eprintln!("FAIL: {} discrepancies found", report.total_discrepancies());
        std::process::exit(1);
    }
    println!("OK: all executors agreed on every input");
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_answers_every_known_path() {
        for path in ["/metrics", "/flight", "/slow", "/"] {
            let routed = route_request(&format!("GET {path} HTTP/1.1"));
            assert_eq!(routed.status, 200, "{path}");
            assert!(!routed.shutdown, "{path} must not stop the server");
        }
        let routed = route_request("GET /shutdown HTTP/1.1");
        assert_eq!(routed.status, 200);
        assert!(routed.shutdown);
    }

    #[test]
    fn router_rejects_unknown_paths_with_404() {
        let routed = route_request("GET /nope HTTP/1.1");
        assert_eq!(routed.status, 404);
        assert!(routed.body.contains("/nope"));
        assert!(!routed.shutdown);
    }

    #[test]
    fn router_rejects_malformed_requests_with_400() {
        for line in ["", "BLARG", "GET /metrics", "GET /metrics FTP/1.0"] {
            let routed = route_request(line);
            assert_eq!(routed.status, 400, "{line:?}");
            assert!(!routed.shutdown);
        }
        assert_eq!(route_request("POST /metrics HTTP/1.1").status, 405);
    }

    #[test]
    fn router_ignores_query_strings_and_sets_prom_content_type() {
        assert_eq!(route_request("GET /flight?limit=5 HTTP/1.1").status, 200);
        let routed = route_request("GET /metrics HTTP/1.1");
        assert_eq!(routed.content_type, treequery_core::obs::prom::CONTENT_TYPE);
    }
}
