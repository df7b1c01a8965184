//! The traced run. It drives the workload over the wire for half the
//! run, then replays each connection's exact request stream in process
//! through the public function of every layer, with a span around each
//! call. Per-layer metrics come from those spans and from engine
//! counters; end-to-end metrics are never taken from this run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::RwLock;
use std::thread;
use std::time::{Duration, Instant};

use treequery_core::obs::{parse_json, Json};
use treequery_core::tree::{parse_script, parse_term, to_term, CancelToken, EditOp};
use treequery_core::{Document, Engine, MetricsSnapshot, QueryOutput, Strategy};

use crate::measure::{self, Metric, Op, Outcome, Phase, Prepared, Sample, Versions};
use crate::oracle;
use crate::wire::Conn;
use crate::workload::{Lang, Workload, DOC_NAME, EDIT_RATE};

/// Replayed requests per reader connection, at most.
const REPLAY_OPS: usize = 1_000;
/// A reply counts as stalled when its round trip exceeds the in-process
/// time of its query by this much. The delayed-ACK timer behind the stall
/// is ≈40 ms from when the client got the body, which can be a little
/// less than 40 ms after the server measured its own time, so the cut
/// sits below it.
const STALL_NS: i64 = 30_000_000;

/// One timed call. `parent` indexes the same thread's span list.
#[derive(Debug)]
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-thread span recorder; when disabled, records nothing.
struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Opens a span; the next [`Tracer::end`] closes it.
    fn begin(&mut self, name: &'static str, req: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                req,
                parent: self.open.last().copied(),
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn end(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The per-strategy eval split: (strategy bucket, span name, metric).
const BUCKETS: [(&str, &str, &str); 4] = [
    (
        "xpath-set-at-a-time",
        "exec.eval.xpath-set-at-a-time",
        "exec.eval_us.xpath-set-at-a-time",
    ),
    (
        "cq-acyclic",
        "exec.eval.cq-acyclic",
        "exec.eval_us.cq-acyclic",
    ),
    (
        "cq-x-property",
        "exec.eval.cq-x-property",
        "exec.eval_us.cq-x-property",
    ),
    (
        "datalog-ground-minoux",
        "exec.eval.datalog-ground-minoux",
        "exec.eval_us.datalog-ground-minoux",
    ),
];

/// Index into [`BUCKETS`] of a strategy; `None` for strategies outside
/// the split (they still count towards `exec.eval_us`).
fn bucket(s: Strategy) -> Option<usize> {
    match s {
        Strategy::XPathSetAtATime => Some(0),
        Strategy::CqAcyclic => Some(1),
        Strategy::CqXProperty(_) => Some(2),
        Strategy::DatalogGround => Some(3),
        _ => None,
    }
}

fn eval_span_name(s: Strategy) -> &'static str {
    bucket(s).map_or("exec.eval.other", |b| BUCKETS[b].1)
}

/// What one replay thread did.
struct Replayed {
    spans: Vec<Span>,
    /// In-process time of each request, in stream order.
    request_ns: Vec<u64>,
    reply_bytes: u64,
    rows: u64,
    failed: u64,
    busy: Duration,
}

impl Replayed {
    fn with_capacity(requests: usize) -> Replayed {
        Replayed {
            spans: Vec::new(),
            request_ns: Vec::with_capacity(requests),
            reply_bytes: 0,
            rows: 0,
            failed: 0,
            busy: Duration::ZERO,
        }
    }
}

struct ReplayCtx<'a> {
    prep: &'a Prepared,
    doc: &'a RwLock<Document>,
    versions: &'a Versions,
    /// Scripts the writer had applied when the measured window began;
    /// readers replaying window requests start once the replay gets there.
    window_version: usize,
    epoch: Instant,
    traced: bool,
}

fn replay_queries(ctx: &ReplayCtx<'_>, conn: usize, ops: &[usize], edit_mix: bool) -> Replayed {
    let mut t = Tracer::new(ctx.traced, ctx.epoch);
    let mut out = Replayed::with_capacity(ops.len());
    while edit_mix && ctx.versions.done.load(Ordering::SeqCst) < ctx.window_version {
        thread::sleep(Duration::from_millis(1));
    }
    let started = Instant::now();
    for (seq, &q) in ops.iter().enumerate() {
        let req = ((conn as u64) << 32) | seq as u64;
        let lo = ctx.versions.done.load(Ordering::SeqCst);
        let t0 = Instant::now();
        t.begin("request", req);
        let (lang, text) = t.span("serve.frame_parse", req, || {
            let frame = parse_json(ctx.prep.pool.lines[q].trim_end()).expect("pool lines are JSON");
            let field = |k| frame.get(k).and_then(Json::as_str).unwrap_or("");
            let lang = Lang::parse(field("lang")).expect("pool lines name a language");
            (lang, field("text").to_owned())
        });
        let query = lang.query(&text);
        let doc = t.span("serve.lock", req, || {
            ctx.doc.read().expect("replay lock poisoned")
        });
        let engine = doc.engine();
        let ir = t.span("plan.lower", req, || engine.lower(&query));
        let plan = t.span("plan.explain", req, || engine.explain(&query));
        let (Ok(ir), Ok(plan)) = (ir, plan) else {
            t.end();
            out.failed += 1;
            out.request_ns.push(t0.elapsed().as_nanos() as u64);
            continue;
        };
        let eval_started = Instant::now();
        let result = t.span(eval_span_name(plan.strategy), req, || {
            engine.eval_ir_with_cancel(&ir, &CancelToken::new())
        });
        let wall_us = eval_started.elapsed().as_micros() as u64;
        let Ok(answer) = result else {
            t.end();
            out.failed += 1;
            out.request_ns.push(t0.elapsed().as_nanos() as u64);
            continue;
        };
        let reply = t.span("serve.reply_render", req, || {
            render_reply(&engine, &plan, &answer, seq as u64, wall_us)
        });
        drop(doc);
        t.end();
        out.request_ns.push(t0.elapsed().as_nanos() as u64);
        out.reply_bytes += reply.len() as u64 + 1;
        out.rows += match &answer {
            QueryOutput::Nodes(v) => v.len() as u64,
            QueryOutput::Answer(a) => a.tuples.len() as u64,
        };
        let exp = &ctx.prep.pool.expected[q];
        let ok = if edit_mix {
            let hi = ctx.versions.sent.load(Ordering::SeqCst);
            oracle::check_query_versions(&reply, exp, &ctx.prep.edits.live_pres[lo..=hi])
        } else {
            oracle::check_query(&reply, exp)
        };
        out.failed += u64::from(!ok);
    }
    out.busy = started.elapsed();
    out.spans = t.into_spans();
    out
}

/// The reply the server builds for a query answer.
fn render_reply(
    engine: &Engine<'_>,
    plan: &treequery_core::ExplainedPlan,
    answer: &QueryOutput,
    id: u64,
    wall_us: u64,
) -> String {
    let body = Json::obj()
        .set("ok", true)
        .set("id", id)
        .set("doc", DOC_NAME)
        .set("strategy", format!("{:?}", plan.strategy))
        .set("cost", plan.cost.to_string())
        .set("admission", "immediate")
        .set("wall_us", wall_us)
        .set("trace_id", format!("replay-{id:x}"));
    let rows = oracle::rows_json(engine.tree(), answer);
    match answer {
        QueryOutput::Nodes(_) => body.set("kind", "nodes").set("rows", rows),
        QueryOutput::Answer(a) => body
            .set("kind", "tuples")
            .set("rows", rows)
            .set("satisfiable", !a.tuples.is_empty()),
    }
    .render()
}

fn edit_span_name(op: &EditOp) -> &'static str {
    match op {
        EditOp::InsertLeaf { .. } => "edit.insert",
        EditOp::Relabel { .. } => "edit.relabel",
        EditOp::DeleteSubtree { .. } => "edit.delete",
    }
}

/// Replays edit scripts `0..count`, on the writer's schedule when
/// `scheduled`, back to back otherwise.
fn replay_edits(ctx: &ReplayCtx<'_>, conn: usize, count: usize, scheduled: bool) -> Replayed {
    let mut t = Tracer::new(ctx.traced, ctx.epoch);
    let mut out = Replayed::with_capacity(count);
    let plan = &ctx.prep.edits;
    let started = Instant::now();
    for i in 0..count {
        if scheduled {
            let due = started + Duration::from_secs_f64(i as f64 / EDIT_RATE);
            thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        let req = ((conn as u64) << 32) | i as u64;
        ctx.versions.sent.store(i + 1, Ordering::SeqCst);
        let t0 = Instant::now();
        t.begin("request", req);
        let ops = t.span("serve.frame_parse", req, || {
            let frame = parse_json(ctx.prep.edit_lines[i].trim_end()).expect("edit lines are JSON");
            parse_script(frame.get("script").and_then(Json::as_str).unwrap_or(""))
                .expect("edit scripts parse")
        });
        let mut doc = t.span("serve.lock_write", req, || {
            ctx.doc.write().expect("replay lock poisoned")
        });
        let mut applied = 0;
        for op in &ops {
            applied += usize::from(t.span(edit_span_name(op), req, || doc.edit(op)).is_some());
        }
        let (nodes, fp) = (doc.tree().len(), doc.fingerprint());
        let reply = t.span("serve.reply_render", req, || {
            Json::obj()
                .set("ok", true)
                .set("doc", DOC_NAME)
                .set("applied", applied)
                .set("skipped", ops.len() - applied)
                .set("nodes", nodes)
                .set("fingerprint", format!("{fp:016x}"))
                .set("edits", doc.edit_count())
                .render()
        });
        drop(doc);
        t.end();
        ctx.versions.done.store(i + 1, Ordering::SeqCst);
        out.request_ns.push(t0.elapsed().as_nanos() as u64);
        out.reply_bytes += reply.len() as u64 + 1;
        out.failed += u64::from(!oracle::check_edit(
            &reply,
            plan.nodes[i],
            plan.fingerprints[i],
        ));
    }
    out.busy = started.elapsed();
    out.spans = t.into_spans();
    out
}

/// One full in-process replay of the recorded streams.
struct Replay {
    threads: Vec<Replayed>,
    /// Wall time of the closed-loop readers.
    reader_wall: Duration,
    snapshot: MetricsSnapshot,
    refreezes: u64,
    nodes_final: usize,
    /// Reader thread count (the rest replay edits).
    readers: usize,
}

fn replay(
    prep: &Prepared,
    streams: &[Vec<usize>],
    edits: usize,
    window_version: usize,
    traced: bool,
) -> Replay {
    let doc = RwLock::new(Document::new(prep.tree.clone()));
    let versions = Versions::default();
    let ctx = ReplayCtx {
        prep,
        doc: &doc,
        versions: &versions,
        window_version,
        epoch: Instant::now(),
        traced,
    };
    let edit_mix = prep.workload == Workload::EditMix;
    let mut threads: Vec<Replayed> = thread::scope(|s| {
        let ctx = &ctx;
        let mut handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, ops)| s.spawn(move || replay_queries(ctx, c, ops, edit_mix)))
            .collect();
        if edit_mix {
            let c = streams.len();
            handles.push(s.spawn(move || replay_edits(ctx, c, edits, true)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let readers = streams.len();
    if !edit_mix {
        // The edit probe ran after the window; replay it after the queries.
        threads.push(replay_edits(&ctx, readers, edits, false));
    }
    let reader_wall = threads[..readers]
        .iter()
        .map(|r| r.busy)
        .max()
        .unwrap_or_default();
    let doc = doc.into_inner().expect("replay lock poisoned");
    Replay {
        threads,
        reader_wall,
        snapshot: doc.metrics().snapshot(),
        refreezes: doc.refreeze_count(),
        nodes_final: doc.tree().len(),
        readers,
    }
}

/// The server's `treequery_admission_queued` counter.
fn admission_queued(conn: &mut Conn) -> Result<u64, String> {
    let reply = conn
        .call("{\"verb\":\"metrics\"}\n")
        .map_err(|e| format!("metrics: {e}"))?;
    let v = parse_json(reply).map_err(|e| format!("metrics: {e}"))?;
    v.get("exposition")
        .and_then(Json::as_str)
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("treequery_admission_queued "))
        })
        .and_then(|n| n.trim().parse::<f64>().ok())
        .map(|n| n as u64)
        .ok_or_else(|| "metrics exposition lacks treequery_admission_queued".to_owned())
}

/// The server's plan-cache (hits, misses).
fn cache_counts(conn: &mut Conn) -> Result<(u64, u64), String> {
    let reply = conn
        .call("{\"verb\":\"stats\"}\n")
        .map_err(|e| format!("stats: {e}"))?;
    let v = parse_json(reply).map_err(|e| format!("stats: {e}"))?;
    let engine = v.get("engine").ok_or("stats reply lacks engine")?;
    let get = |k| {
        engine
            .get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("stats lacks {k}"))
    };
    Ok((get("plan_cache_hits")?, get("plan_cache_misses")?))
}

fn mean(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Where the span file goes: inside the build directory of the checkout.
fn span_path(prep: &Prepared) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("perfbench").join(format!(
        "spans-{}-{}.jsonl",
        prep.workload.name(),
        prep.seed
    ))
}

fn write_spans(path: &Path, threads: &[Replayed]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (tid, r) in threads.iter().enumerate() {
        for (i, s) in r.spans.iter().enumerate() {
            let line = Json::obj()
                .set("thread", tid)
                .set("id", i)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set("name", s.name)
                .set("request", s.req)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
                .render();
            writeln!(out, "{line}")?;
        }
    }
    out.flush()
}

/// Self time per layer: each span's duration minus what its children
/// cover, summed by layer.
fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *by_layer.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    by_layer
}

/// The traced run: every per-layer metric.
pub fn run(harness: &Path, prep: &Prepared, seconds: f64) -> Result<Outcome, String> {
    // Set-up, split into its parts.
    let (server, setups) = measure::set_up_rounds(harness, prep)?;
    let term = to_term(&prep.tree);
    let mut parse_s = Vec::new();
    let mut document_s = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let tree = parse_term(&term).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let doc = Document::new(tree);
        document_s.push(t1.elapsed().as_secs_f64());
        parse_s.push((t1 - t0).as_secs_f64());
        drop(doc);
    }

    // The wire phase.
    let mut ctl = server.connect().map_err(|e| format!("connect: {e}"))?;
    let queued0 = admission_queued(&mut ctl)?;
    let cache0 = cache_counts(&mut ctl)?;
    let wire = measure::drive(prep, &server, Phase::window(prep.workload, seconds / 2.0))?;
    let queued1 = admission_queued(&mut ctl)?;
    let cache1 = cache_counts(&mut ctl)?;
    drop(ctl);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let probe = match prep.workload {
        Workload::EditMix => None,
        _ => Some(measure::probe_edits(harness, prep, seconds / 2.0)?),
    };

    // Each reader's queries from the measured window, capped; the
    // writer's scripts are replayed from the first, since each edits the
    // document the next one sees.
    let readers = prep.workload.readers();
    let recorded: Vec<Vec<&Sample>> = (0..readers)
        .map(|c| {
            wire.samples
                .iter()
                .filter(|s| s.conn == c && s.in_window && matches!(s.op, Op::Query(_)))
                .take(REPLAY_OPS)
                .collect()
        })
        .collect();
    let streams: Vec<Vec<usize>> = recorded
        .iter()
        .map(|r| {
            r.iter()
                .filter_map(|s| match s.op {
                    Op::Query(q) => Some(q),
                    Op::Edit(_) => None,
                })
                .collect()
        })
        .collect();
    let edit_run = probe.as_ref().unwrap_or(&wire);
    let edits = edit_run
        .samples
        .iter()
        .filter(|s| matches!(s.op, Op::Edit(_)))
        .count();
    let wire_queries = wire
        .samples
        .iter()
        .filter(|s| matches!(s.op, Op::Query(_)))
        .count();

    let window_version = wire
        .samples
        .iter()
        .filter(|s| matches!(s.op, Op::Edit(_)) && !s.in_window)
        .count();
    let plain = replay(prep, &streams, edits, window_version, false);
    let traced = replay(prep, &streams, edits, window_version, true);
    let overhead = traced.reader_wall.as_secs_f64() / plain.reader_wall.as_secs_f64() - 1.0;

    // Wire time: round trip minus the in-process time of the same query
    // (its median over the replay, so one slow replayed request cannot
    // hide a stall).
    let mut local_ns: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (ops, r) in streams.iter().zip(&traced.threads) {
        for (&q, &ns) in ops.iter().zip(&r.request_ns) {
            local_ns.entry(q).or_default().push(ns as f64);
        }
    }
    let local_ns: BTreeMap<usize, f64> = local_ns
        .into_iter()
        .map(|(q, v)| (q, measure::median(v)))
        .collect();
    let wire_ns: Vec<i64> = recorded
        .iter()
        .flatten()
        .filter_map(|s| match s.op {
            Op::Query(q) => Some(s.latency_ns as i64 - local_ns[&q] as i64),
            Op::Edit(_) => None,
        })
        .collect();
    let stalled = wire_ns.iter().filter(|&&w| w >= STALL_NS).count();

    let all_spans: Vec<&Span> = traced.threads.iter().flat_map(|r| &r.spans).collect();
    let query_spans: Vec<&Span> = traced.threads[..traced.readers]
        .iter()
        .flat_map(|r| &r.spans)
        .collect();
    let query_ops: usize = streams.iter().map(Vec::len).sum();
    let sum_ns = |spans: &[&Span], name: &str| -> (f64, usize) {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur_ns() as f64, n + 1))
    };
    let us_per = |spans: &[&Span], name: &str| {
        let (t, n) = sum_ns(spans, name);
        mean(t / 1e3, n)
    };
    let total_ops = traced
        .threads
        .iter()
        .map(|r| r.request_ns.len())
        .sum::<usize>();
    let reply_bytes: u64 = traced.threads.iter().map(|r| r.reply_bytes).sum();
    let failed: u64 = plain
        .threads
        .iter()
        .chain(&traced.threads)
        .map(|r| r.failed)
        .sum::<u64>()
        + wire.failed()
        + probe.as_ref().map_or(0, measure::WireRun::failed);

    let mut metrics = vec![
        Metric {
            name: "serve.frame_parse_us",
            value: us_per(&all_spans, "serve.frame_parse"),
            unit: "us",
        },
        Metric {
            name: "serve.reply_render_us",
            value: us_per(&all_spans, "serve.reply_render"),
            unit: "us",
        },
        Metric {
            name: "serve.reply_bytes",
            value: mean(reply_bytes as f64, total_ops),
            unit: "B",
        },
        Metric {
            name: "serve.wire_us",
            value: measure::median(wire_ns.iter().map(|&w| w as f64 / 1e3).collect()),
            unit: "us",
        },
        Metric {
            name: "serve.stall_share",
            value: mean(stalled as f64, wire_ns.len()),
            unit: "share",
        },
        Metric {
            name: "serve.admission_queued_share",
            value: mean(queued1.saturating_sub(queued0) as f64, wire_queries),
            unit: "share",
        },
        Metric {
            name: "serve.lock_wait_us",
            value: us_per(&query_spans, "serve.lock"),
            unit: "us",
        },
        Metric {
            name: "plan.lower_us",
            value: us_per(&query_spans, "plan.lower"),
            unit: "us",
        },
        Metric {
            name: "plan.explain_us",
            value: us_per(&query_spans, "plan.explain"),
            unit: "us",
        },
        Metric {
            name: "plan.cache_hit_ratio",
            value: {
                let hits = cache1.0 - cache0.0;
                mean(hits as f64, (hits + cache1.1 - cache0.1) as usize)
            },
            unit: "ratio",
        },
    ];

    // Eval time, whole and split by strategy. A strategy the workload
    // never uses is timed on a reference query from the join pool.
    let eval_total: f64 = query_spans
        .iter()
        .filter(|s| s.name.starts_with("exec.eval."))
        .map(|s| s.dur_ns() as f64)
        .sum();
    metrics.push(Metric {
        name: "exec.eval_us",
        value: mean(eval_total / 1e3, query_ops),
        unit: "us",
    });
    for (b, (name, span_name, metric)) in BUCKETS.into_iter().enumerate() {
        let (t, n) = sum_ns(&query_spans, span_name);
        let value = if n > 0 {
            t / 1e3 / n as f64
        } else {
            let us = reference_eval_us(prep, b)?;
            println!(
                "diag {metric}: no {name} request in this workload; reference probe {us:.1} us"
            );
            us
        };
        metrics.push(Metric {
            name: metric,
            value,
            unit: "us",
        });
    }
    let snap = &traced.snapshot;
    let per_query = |v: u64| mean(v as f64, query_ops);
    let rows: u64 = traced.threads[..traced.readers]
        .iter()
        .map(|r| r.rows)
        .sum();
    metrics.extend([
        Metric {
            name: "exec.nodes_swept",
            value: per_query(snap.nodes_swept),
            unit: "count",
        },
        Metric {
            name: "exec.parallel_kernels",
            value: per_query(snap.parallel_kernels),
            unit: "count",
        },
        Metric {
            name: "exec.parallel_chunks",
            value: per_query(snap.parallel_chunks),
            unit: "count",
        },
        Metric {
            name: "exec.semijoin_passes",
            value: per_query(snap.semijoin_passes),
            unit: "count",
        },
        Metric {
            name: "exec.candidate_nodes",
            value: per_query(snap.candidate_nodes),
            unit: "count",
        },
        Metric {
            name: "exec.backtrack_assignments",
            value: per_query(snap.backtrack_assignments),
            unit: "count",
        },
        Metric {
            name: "exec.rows",
            value: per_query(rows),
            unit: "count",
        },
        Metric {
            name: "edit.insert_us",
            value: us_per(&all_spans, "edit.insert"),
            unit: "us",
        },
        Metric {
            name: "edit.relabel_us",
            value: us_per(&all_spans, "edit.relabel"),
            unit: "us",
        },
        Metric {
            name: "edit.delete_us",
            value: us_per(&all_spans, "edit.delete"),
            unit: "us",
        },
        Metric {
            name: "edit.refreezes",
            value: traced.refreezes as f64,
            unit: "count",
        },
        Metric {
            name: "edit.nodes_final",
            value: traced.nodes_final as f64,
            unit: "count",
        },
        Metric {
            name: "setup.spawn_s",
            value: measure::median(setups.iter().map(|t| t.spawn_s).collect()),
            unit: "s",
        },
        Metric {
            name: "setup.parse_term_s",
            value: measure::median(parse_s),
            unit: "s",
        },
        Metric {
            name: "setup.document_s",
            value: measure::median(document_s),
            unit: "s",
        },
        Metric {
            name: "setup.load_s",
            value: measure::median(setups.iter().map(|t| t.load_s).collect()),
            unit: "s",
        },
        Metric {
            name: "trace.overhead_share",
            value: overhead,
            unit: "share",
        },
    ]);

    let (lo, hi) = (
        prep.edits.base_nodes,
        prep.edits.base_nodes + crate::workload::LIVE_LEAVES,
    );
    if !(lo..=hi).contains(&traced.nodes_final) {
        return Err(format!(
            "replay left the node band [{lo}, {hi}]: {} nodes",
            traced.nodes_final
        ));
    }

    println!(
        "trace {} seed {}: replayed {} requests ({} spans); readers' wall traced {:.1} ms vs untraced {:.1} ms (overhead {:+.2}%)",
        prep.workload.name(),
        prep.seed,
        total_ops,
        all_spans.len(),
        traced.reader_wall.as_secs_f64() * 1e3,
        plain.reader_wall.as_secs_f64() * 1e3,
        overhead * 100.0
    );
    let (reader_threads, writer_threads) = traced.threads.split_at(traced.readers);
    for (who, threads) in [("readers", reader_threads), ("writer", writer_threads)] {
        let mut by_layer = BTreeMap::new();
        for r in threads {
            for (layer, ns) in self_time_by_layer(&r.spans) {
                *by_layer.entry(layer).or_insert(0u64) += ns;
            }
        }
        let total: u64 = by_layer.values().sum();
        for (layer, ns) in &by_layer {
            println!(
                "  {who:<7} self time {layer:<8} {:>10.2} ms  {:>5.1}%",
                *ns as f64 / 1e6,
                *ns as f64 * 100.0 / total.max(1) as f64
            );
        }
    }
    let path = span_path(prep);
    write_spans(&path, &traced.threads).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    Ok(Outcome {
        attempted: (wire.samples.len()
            + probe.as_ref().map_or(0, |p| p.samples.len())
            + 2 * total_ops) as u64,
        failed,
        metrics,
    })
}

/// Mean eval time of the first pool query (`navigate`, then `join`) in
/// strategy bucket `b`, over five runs on the unedited document.
fn reference_eval_us(prep: &Prepared, b: usize) -> Result<f64, String> {
    let engine = Engine::new(&prep.tree);
    let pools = Workload::Navigate
        .pool()
        .iter()
        .chain(Workload::Join.pool());
    for &(lang, text) in pools {
        let query = lang.query(text);
        let plan = engine.explain(&query).map_err(|e| e.to_string())?;
        if bucket(plan.strategy) != Some(b) {
            continue;
        }
        let ir = engine.lower(&query).map_err(|e| e.to_string())?;
        engine
            .eval_ir_with_cancel(&ir, &CancelToken::new())
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for _ in 0..5 {
            engine
                .eval_ir_with_cancel(&ir, &CancelToken::new())
                .map_err(|e| e.to_string())?;
        }
        return Ok(t0.elapsed().as_secs_f64() * 1e6 / 5.0);
    }
    Err(format!("no pool query in strategy bucket {}", BUCKETS[b].0))
}
