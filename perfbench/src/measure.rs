//! The untraced run: set-up, the measured window over the wire, and the
//! end-to-end metrics.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use treequery_core::obs::Json;
use treequery_core::tree::{to_term, Tree};

use crate::oracle::{self, Expected};
use crate::wire::{self, Conn, Server};
use crate::workload::{
    self, edit_line, query_line, EditPlan, QueryStream, Workload, DOC_NAME, EDIT_RATE,
};

/// Load before the window, so plan caches fill and the pool starts.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 9;
/// Sub-windows of a measured phase. Throughput, CPU per op and latency
/// percentiles are the median over them, so a burst of host contention
/// shorter than a sub-window moves the result by one sub-window at most.
pub const SUB_WINDOWS: usize = 8;
/// Length of the edit probe of the read-only workloads, as a share of
/// the window.
pub const PROBE_SHARE: f64 = 0.5;

/// One stretch of load: closed-loop readers, optionally beside the
/// open-loop writer.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub readers: usize,
    pub writer: bool,
    pub warmup: Duration,
    pub seconds: f64,
}

impl Phase {
    /// The measured window of a workload.
    pub fn window(w: Workload, seconds: f64) -> Phase {
        Phase {
            readers: w.readers(),
            writer: w == Workload::EditMix,
            warmup: WARMUP,
            seconds,
        }
    }

    /// The edit probe of a read-only workload: `edit-mix`'s reader and
    /// writer on two connections, so every workload reports the edit
    /// round trip under the same light read load. A reader keeps both
    /// cores busy; on an idle server the edit tail follows how fast idle
    /// cores wake up instead.
    pub fn probe(seconds: f64) -> Phase {
        Phase {
            readers: 1,
            writer: true,
            warmup: WARMUP,
            seconds: seconds * PROBE_SHARE,
        }
    }
}

/// A query pool as sent and as checked.
pub struct Pool {
    /// The workload whose pool and band these are.
    pub workload: Workload,
    /// Wire line per pool query.
    pub lines: Vec<String>,
    pub expected: Vec<Expected>,
}

impl Pool {
    fn new(tree: &Tree, workload: Workload) -> Result<Pool, String> {
        let pool = workload.pool();
        let expected = oracle::expectations(tree, pool)?;
        oracle::check_band(pool, &expected, workload.band())?;
        Ok(Pool {
            workload,
            lines: pool.iter().map(|&(l, t)| query_line(l, t)).collect(),
            expected,
        })
    }
}

/// Everything a run sends and checks, built from the seed before the
/// server starts.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub tree: Tree,
    pub load_line: String,
    pub pool: Pool,
    /// What a reader sends beside the writer: the `edit-mix` pool.
    pub beside_writer: Pool,
    /// The writer's scripts: `edit-mix`'s, or the edit probe's.
    pub edits: EditPlan,
    pub edit_lines: Vec<String>,
}

pub fn prepare(workload: Workload, seed: u64, seconds: u64) -> Result<Prepared, String> {
    let tree = workload::document();
    let writer_s = WARMUP.as_secs_f64()
        + match workload {
            Workload::EditMix => seconds as f64,
            _ => seconds as f64 * PROBE_SHARE,
        };
    let edit_count = (EDIT_RATE * writer_s).ceil() as usize + 1;
    let edits = workload::edit_plan(&tree, seed, edit_count);
    check_node_band(&edits)?;
    let mut load_line = Json::obj()
        .set("verb", "load")
        .set("name", DOC_NAME)
        .set("term", to_term(&tree))
        .render();
    load_line.push('\n');
    Ok(Prepared {
        workload,
        seed,
        load_line,
        pool: Pool::new(&tree, workload)?,
        beside_writer: Pool::new(&tree, Workload::EditMix)?,
        edit_lines: edits.texts.iter().map(|s| edit_line(s)).collect(),
        edits,
        tree,
    })
}

/// Rejects an edit plan whose document leaves `[N, N + K]`.
pub fn check_node_band(plan: &EditPlan) -> Result<(), String> {
    let (lo, hi) = (plan.base_nodes, plan.base_nodes + workload::LIVE_LEAVES);
    match plan.nodes.iter().position(|n| !(lo..=hi).contains(n)) {
        Some(i) => Err(format!(
            "edit script {i} leaves the node band [{lo}, {hi}]: {} nodes",
            plan.nodes[i]
        )),
        None => Ok(()),
    }
}

/// Timings of one set-up: spawn through the document loaded.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub spawn_s: f64,
    pub load_s: f64,
    pub total_s: f64,
}

/// Spawns a server and loads the document through `load` with `term`
/// text, the path client data takes.
pub fn set_up(harness: &Path, prep: &Prepared) -> Result<(Server, SetupTimes), String> {
    let t0 = Instant::now();
    let server = Server::spawn(harness).map_err(|e| format!("spawn {}: {e}", harness.display()))?;
    let spawned = Instant::now();
    let mut conn = server.connect().map_err(|e| format!("connect: {e}"))?;
    let load_started = Instant::now();
    let reply = conn
        .call(&prep.load_line)
        .map_err(|e| format!("load: {e}"))?;
    let done = Instant::now();
    let want = format!("\"nodes\":{}", prep.tree.len());
    if !reply.starts_with("{\"ok\":true") || !reply.contains(&want) {
        return Err(format!("load failed: {reply}"));
    }
    Ok((
        server,
        SetupTimes {
            spawn_s: (spawned - t0).as_secs_f64(),
            load_s: (done - load_started).as_secs_f64(),
            total_s: (done - t0).as_secs_f64(),
        },
    ))
}

/// Sets up [`SETUP_ROUNDS`] times, keeping the last server.
pub fn set_up_rounds(harness: &Path, prep: &Prepared) -> Result<(Server, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_ROUNDS);
    loop {
        let (server, t) = set_up(harness, prep)?;
        times.push(t);
        if times.len() == SETUP_ROUNDS {
            return Ok((server, times));
        }
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
}

/// What one request did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Index into the workload's pool.
    Query(usize),
    /// Index into the edit plan.
    Edit(usize),
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub conn: usize,
    pub op: Op,
    /// Round trip; for scheduled edits, from the scheduled send time.
    pub latency_ns: u64,
    /// How late a scheduled edit was sent.
    pub late_ns: u64,
    /// Completed inside the measured window.
    pub in_window: bool,
    /// Completion time, from the start of the warm-up.
    pub done_ns: u64,
    pub ok: bool,
}

/// Result of driving a workload over the wire.
pub struct WireRun {
    /// Every request, warm-up included, in send order per connection.
    pub samples: Vec<Sample>,
    pub window_s: f64,
    /// Sub-window boundaries: (time from the start of the warm-up in ns,
    /// server CPU seconds so far).
    pub ticks: Vec<(u64, f64)>,
    pub steal_share: f64,
    /// First few failed replies, for the log.
    pub failures: Vec<String>,
}

impl WireRun {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Latencies (ns) of OK requests of one kind completed in the window.
    pub fn latencies(&self, edits: bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.in_window && s.ok && matches!(s.op, Op::Edit(_)) == edits)
            .map(|s| s.latency_ns)
            .collect();
        v.sort_unstable();
        v
    }

    pub fn ok_in_window(&self) -> usize {
        self.samples.iter().filter(|s| s.in_window && s.ok).count()
    }

    /// What happened in each sub-window.
    pub fn sub_windows(&self) -> Vec<SubWindow> {
        self.ticks
            .windows(2)
            .map(|w| {
                let ((t0, c0), (t1, c1)) = (w[0], w[1]);
                let done: Vec<&Sample> = self
                    .samples
                    .iter()
                    .filter(|s| s.ok && s.done_ns >= t0 && s.done_ns < t1)
                    .collect();
                let lat = |edits: bool| {
                    let mut v: Vec<u64> = done
                        .iter()
                        .filter(|s| matches!(s.op, Op::Edit(_)) == edits)
                        .map(|s| s.latency_ns)
                        .collect();
                    v.sort_unstable();
                    v
                };
                SubWindow {
                    ops_per_s: done.len() as f64 / ((t1 - t0) as f64 / 1e9),
                    cpu_s_per_op: (c1 - c0) / done.len().max(1) as f64,
                    query_ns: lat(false),
                    edit_ns: lat(true),
                }
            })
            .collect()
    }
}

/// One sub-window of a phase.
pub struct SubWindow {
    /// OK replies per second.
    pub ops_per_s: f64,
    /// Server CPU seconds per OK reply.
    pub cpu_s_per_op: f64,
    /// Sorted latencies of the OK requests completed in it.
    pub query_ns: Vec<u64>,
    pub edit_ns: Vec<u64>,
}

/// Median over sub-windows of a per-sub-window figure; sub-windows
/// without samples (`NaN`) are left out.
pub fn median_over(subs: &[SubWindow], f: impl Fn(&SubWindow) -> f64) -> f64 {
    let v: Vec<f64> = subs.iter().map(f).filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// Linear-interpolated percentile of sorted values.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Edit-mix progress shared between the writer and the reader: scripts
/// sent and scripts answered. A reader's reply reflects some version in
/// `[done before send, sent after reply]`.
#[derive(Default)]
pub struct Versions {
    pub sent: AtomicUsize,
    pub done: AtomicUsize,
}

struct Window {
    t0: Instant,
    start: Instant,
    end: Instant,
}

/// Sends `pool` closed-loop until the window ends. Beside the writer
/// (`versions` given), each answer is checked against the document
/// versions it may have seen.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    conn: &mut Conn,
    conn_id: usize,
    prep: &Prepared,
    pool: &Pool,
    win: &Window,
    versions: Option<&Versions>,
    failures: &mut Vec<String>,
    out_of_band: &mut Vec<String>,
) -> Vec<Sample> {
    let band = pool.workload.band();
    let mut samples = Vec::new();
    for q in QueryStream::new(prep.seed, conn_id, pool.lines.len()) {
        if Instant::now() >= win.end {
            break;
        }
        let lo = versions.map(|v| v.done.load(Ordering::SeqCst));
        let sent = Instant::now();
        let reply = conn.call(&pool.lines[q]);
        let done = Instant::now();
        let exp = &pool.expected[q];
        let ok = match (&reply, versions, lo) {
            (Ok(r), Some(v), Some(lo)) => {
                let hi = v.sent.load(Ordering::SeqCst);
                oracle::check_query_versions(r, exp, &prep.edits.live_pres[lo..=hi])
            }
            (Ok(r), _, _) => oracle::check_query(r, exp),
            (Err(_), _, _) => false,
        };
        let in_band = reply
            .as_ref()
            .map(|r| (band.min_bytes..band.max_bytes).contains(&(r.len() + 1)))
            .unwrap_or(true);
        if !in_band {
            out_of_band.push(format!(
                "query {q}: {} reply bytes",
                reply.as_ref().map_or(0, |r| r.len() + 1)
            ));
        }
        if !ok {
            failures.push(format!(
                "query {q} on conn {conn_id}: {}",
                match &reply {
                    Ok(r) => r.chars().take(200).collect::<String>(),
                    Err(e) => e.to_string(),
                }
            ));
        }
        samples.push(Sample {
            conn: conn_id,
            op: Op::Query(q),
            latency_ns: (done - sent).as_nanos() as u64,
            late_ns: 0,
            in_window: done >= win.start && done <= win.end,
            done_ns: (done - win.t0).as_nanos() as u64,
            ok,
        });
        if reply.is_err() {
            break;
        }
    }
    samples
}

fn write_loop(
    conn: &mut Conn,
    conn_id: usize,
    prep: &Prepared,
    win: &Window,
    versions: &Versions,
    failures: &mut Vec<String>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for (i, line) in prep.edit_lines.iter().enumerate() {
        let due = win.t0 + Duration::from_secs_f64(i as f64 / EDIT_RATE);
        if due >= win.end {
            return samples;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let sent = Instant::now();
        versions.sent.store(i + 1, Ordering::SeqCst);
        let reply = conn.call(line);
        let done = Instant::now();
        let ok = match &reply {
            Ok(r) => oracle::check_edit(r, prep.edits.nodes[i], prep.edits.fingerprints[i]),
            Err(_) => false,
        };
        versions.done.store(i + 1, Ordering::SeqCst);
        if !ok {
            failures.push(format!("edit {i}: {reply:?}"));
        }
        samples.push(Sample {
            conn: conn_id,
            op: Op::Edit(i),
            latency_ns: (done - due).as_nanos() as u64,
            late_ns: (sent - due).as_nanos() as u64,
            in_window: done >= win.start && done <= win.end,
            done_ns: (done - win.t0).as_nanos() as u64,
            ok,
        });
        if reply.is_err() {
            return samples;
        }
    }
    failures.push("edit plan ran out before the window ended".to_owned());
    samples
}

/// Drives one phase of load: its warm-up, then `seconds` measured.
pub fn drive(prep: &Prepared, server: &Server, phase: Phase) -> Result<WireRun, String> {
    let w = prep.workload;
    let mut conns: Vec<Conn> = (0..phase.readers + usize::from(phase.writer))
        .map(|_| server.connect().map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    let versions = Versions::default();
    let t0 = Instant::now();
    let win = Window {
        t0,
        start: t0 + phase.warmup,
        end: t0 + phase.warmup + Duration::from_secs_f64(phase.seconds),
    };
    let pid = server.pid();
    let (per_conn, ticks, host) = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(id, conn)| {
                let (win, versions) = (&win, &versions);
                s.spawn(move || {
                    let (mut failures, mut out_of_band) = (Vec::new(), Vec::new());
                    let samples = if id < phase.readers {
                        let (pool, v) = match phase.writer {
                            true => (&prep.beside_writer, Some(versions)),
                            false => (&prep.pool, None),
                        };
                        read_loop(
                            conn,
                            id,
                            prep,
                            pool,
                            win,
                            v,
                            &mut failures,
                            &mut out_of_band,
                        )
                    } else {
                        write_loop(conn, id, prep, win, versions, &mut failures)
                    };
                    (samples, failures, out_of_band)
                })
            })
            .collect();
        // Sub-window boundaries: CPU at each, host steal at both ends.
        let len = win.end - win.start;
        let mut ticks = Vec::with_capacity(SUB_WINDOWS + 1);
        let mut host = Vec::with_capacity(2);
        for k in 0..=SUB_WINDOWS {
            let at = win.start + len * k as u32 / SUB_WINDOWS as u32;
            thread::sleep(at.saturating_duration_since(Instant::now()));
            let now = Instant::now();
            ticks.push(wire::process_cpu_s(pid).map(|c| ((now - t0).as_nanos() as u64, c)));
            if k == 0 || k == SUB_WINDOWS {
                host.push(wire::host_cpu());
            }
        }
        let per_conn: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (per_conn, ticks, host)
    });
    let ticks: Vec<(u64, f64)> = ticks
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let host: Vec<(u64, u64)> = host
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let steal_share = (host[1].0 - host[0].0) as f64 / ((host[1].1 - host[0].1) as f64).max(1.0);
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    let mut out_of_band = Vec::new();
    for (s, f, b) in per_conn {
        samples.extend(s);
        failures.extend(f);
        out_of_band.extend(b);
    }
    if let Some(first) = out_of_band.first() {
        return Err(format!(
            "{} replies left the {} byte band {:?}, first {first}",
            out_of_band.len(),
            w.name(),
            w.band()
        ));
    }
    failures.truncate(5);
    Ok(WireRun {
        samples,
        window_s: (win.end - win.start).as_secs_f64(),
        ticks,
        steal_share,
        failures,
    })
}

/// Runs the edit probe of a read-only workload on a freshly loaded
/// server of its own, so the figures do not depend on what the
/// workload's window left in the measured server.
pub fn probe_edits(harness: &Path, prep: &Prepared, seconds: f64) -> Result<WireRun, String> {
    let (server, _) = set_up(harness, prep)?;
    let probe = drive(prep, &server, Phase::probe(seconds))?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(probe)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line's fields.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(harness: &Path, prep: &Prepared, seconds: f64) -> Result<Outcome, String> {
    let (server, setups) = set_up_rounds(harness, prep)?;
    let run = drive(prep, &server, Phase::window(prep.workload, seconds))?;
    let peak_rss = wire::peak_rss_mib(server.pid()).map_err(|e| e.to_string())?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let probe = match prep.workload {
        Workload::EditMix => None,
        _ => Some(probe_edits(harness, prep, seconds)?),
    };
    let edit_run = probe.as_ref().unwrap_or(&run);
    let edit_lat = edit_run.latencies(true);
    let query_lat = run.latencies(false);
    let subs = run.sub_windows();
    let edit_subs = edit_run.sub_windows();

    let us = |ns: f64| ns / 1e3;
    let pooled = |v: &[u64]| {
        format!(
            "p50 {:.1} p90 {:.1} p99 {:.1} us over {} samples",
            us(percentile(v, 0.5)),
            us(percentile(v, 0.9)),
            us(percentile(v, 0.99)),
            v.len()
        )
    };
    println!(
        "workload {} seed {}: window {:.3} s, {} OK replies, host.steal_share {:.4}",
        prep.workload.name(),
        prep.seed,
        run.window_s,
        run.ok_in_window(),
        run.steal_share
    );
    println!("diag query latency pooled: {}", pooled(&query_lat));
    println!(
        "diag edit latency pooled{}: {}",
        if probe.is_some() {
            " (edit probe on a fresh server)"
        } else {
            ""
        },
        pooled(&edit_lat)
    );
    let mut late: Vec<u64> = edit_run
        .samples
        .iter()
        .filter(|s| matches!(s.op, Op::Edit(_)))
        .map(|s| s.late_ns)
        .collect();
    late.sort_unstable();
    println!(
        "diag writer lateness: p50 {:.1} us, p99 {:.1} us, max {:.1} us over {} scheduled edits",
        us(percentile(&late, 0.5)),
        us(percentile(&late, 0.99)),
        us(*late.last().unwrap_or(&0) as f64),
        late.len()
    );
    let show = |name: &str, subs: &[SubWindow], f: &dyn Fn(&SubWindow) -> f64| {
        let v: Vec<f64> = subs.iter().map(|s| (f(s) * 10.0).round() / 10.0).collect();
        println!("diag sub-window {name} {v:?}");
    };
    show("qps", &subs, &|s| s.ops_per_s);
    show("server_cpu_us_per_op", &subs, &|s| s.cpu_s_per_op * 1e6);
    show("query_p50_us", &subs, &|s| us(percentile(&s.query_ns, 0.5)));
    show("query_p90_us", &subs, &|s| us(percentile(&s.query_ns, 0.9)));
    show("query samples", &subs, &|s| s.query_ns.len() as f64);
    show("edit_p50_us", &edit_subs, &|s| {
        us(percentile(&s.edit_ns, 0.5))
    });
    show("edit_p90_us", &edit_subs, &|s| {
        us(percentile(&s.edit_ns, 0.9))
    });
    show("edit samples", &edit_subs, &|s| s.edit_ns.len() as f64);
    let setup_totals: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    println!("diag setup_s rounds {setup_totals:?}");
    for f in run
        .failures
        .iter()
        .chain(probe.iter().flat_map(|p| &p.failures))
    {
        println!("FAILED {f}");
    }
    let metrics = vec![
        Metric {
            name: "qps",
            value: median_over(&subs, |s| s.ops_per_s),
            unit: "req/s",
        },
        Metric {
            name: "query_p50_us",
            value: median_over(&subs, |s| us(percentile(&s.query_ns, 0.5))),
            unit: "us",
        },
        Metric {
            name: "query_p90_us",
            value: median_over(&subs, |s| us(percentile(&s.query_ns, 0.9))),
            unit: "us",
        },
        Metric {
            name: "edit_p50_us",
            value: median_over(&edit_subs, |s| us(percentile(&s.edit_ns, 0.5))),
            unit: "us",
        },
        Metric {
            name: "edit_p90_us",
            value: median_over(&edit_subs, |s| us(percentile(&s.edit_ns, 0.9))),
            unit: "us",
        },
        Metric {
            name: "server_cpu_us_per_op",
            value: median_over(&subs, |s| s.cpu_s_per_op * 1e6),
            unit: "us",
        },
        Metric {
            name: "setup_s",
            value: median(setup_totals),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
    ];
    let probe_samples = probe.as_ref().map_or(0, |p| p.samples.len() as u64);
    Ok(Outcome {
        attempted: run.samples.len() as u64 + probe_samples,
        failed: run.failed() + probe.as_ref().map_or(0, WireRun::failed),
        metrics,
    })
}
