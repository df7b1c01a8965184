//! Chrome Trace Event export for flight-recorded queries.
//!
//! Converts [`QueryRecord`] span lists into the Trace Event JSON format
//! (the `{"traceEvents": [...]}` object form) loadable in Perfetto and
//! `chrome://tracing`: each span becomes a complete (`ph: "X"`) event
//! with microsecond `ts`/`dur`, `pid` 1, and the span's dense per-thread
//! id as `tid` — so cross-worker chunk spans (`exec.sweep.chunk`,
//! `exec.ground_chunk`, …) land on their worker's own track.
//!
//! Two modes:
//!
//! * [`chrome_trace`] — real timestamps (nanoseconds since the tracing
//!   epoch, as fractional microseconds). What `harness --trace` and
//!   `Engine::trace_last_query` emit.
//! * [`chrome_trace_canonical`] — deterministic: rebuilds each thread's
//!   span forest from close order and depths alone, then assigns
//!   synthetic integer microsecond intervals by DFS and renumbers
//!   threads densely. Byte-identical across runs for the same logical
//!   execution; this is what the golden test pins.
//!
//! [`validate_chrome_trace`] is the committed parser check the CI gate
//! round-trips `harness --trace` output through.

use crate::flight::QueryRecord;
use crate::json::Json;
use crate::span::{FieldValue, SpanRecord};
use std::sync::Arc;

fn fields_json(span: &SpanRecord) -> Json {
    let mut args = Json::obj();
    for f in &span.fields {
        args = match &f.value {
            FieldValue::U64(v) => args.set(f.key, *v),
            FieldValue::F64(v) => args.set(f.key, *v),
            FieldValue::Bool(v) => args.set(f.key, *v),
            FieldValue::Str(v) => args.set(f.key, v.as_str()),
        };
    }
    args
}

fn complete_event(span: &SpanRecord, query_id: u64, ts: Json, dur: Json, tid: u64) -> Json {
    Json::obj()
        .set("name", span.name)
        .set("cat", "treequery")
        .set("ph", "X")
        .set("ts", ts)
        .set("dur", dur)
        .set("pid", 1u64)
        .set("tid", tid)
        .set(
            "args",
            fields_json(span)
                .set("query_id", query_id)
                .set("depth", span.depth),
        )
}

/// Exports records with their real timings: `ts` is the span's start in
/// fractional microseconds since the process tracing epoch, `tid` the
/// dense id of the thread the span closed on.
pub fn chrome_trace(records: &[Arc<QueryRecord>]) -> Json {
    let mut events = Vec::new();
    for record in records {
        for span in &record.spans {
            events.push(complete_event(
                span,
                record.id,
                Json::F64(span.start_ns as f64 / 1000.0),
                Json::F64(span.duration_ns.max(1) as f64 / 1000.0),
                span.thread,
            ));
        }
    }
    Json::obj().set("traceEvents", Json::Arr(events))
}

/// A span subtree rebuilt from close order and depths.
struct Node<'a> {
    span: &'a SpanRecord,
    children: Vec<Node<'a>>,
}

/// Rebuilds one thread's span forest from its spans in close order.
/// Spans close children-first, so a span at depth `d` adopts the
/// trailing run of already-built subtrees whose roots are deeper than
/// `d`.
fn build_forest<'a>(spans: &[&'a SpanRecord]) -> Vec<Node<'a>> {
    let mut pending: Vec<Node<'_>> = Vec::new();
    for span in spans {
        let mut k = pending.len();
        while k > 0 && pending[k - 1].span.depth > span.depth {
            k -= 1;
        }
        let children = pending.split_off(k);
        pending.push(Node { span, children });
    }
    pending
}

/// Assigns synthetic nested intervals: entering a node ticks the clock,
/// leaving it ticks again, so every parent strictly contains its
/// children and siblings never overlap.
fn assign(node: &Node<'_>, clock: &mut u64, query_id: u64, tid: u64, events: &mut Vec<Json>) {
    let ts = *clock;
    *clock += 1;
    let mut children = Vec::new();
    for child in &node.children {
        assign(child, clock, query_id, tid, &mut children);
    }
    *clock += 1;
    events.push(complete_event(
        node.span,
        query_id,
        Json::U64(ts),
        Json::U64(*clock - ts),
        tid,
    ));
    events.append(&mut children);
}

/// Deterministic export: per-record, groups spans by thread (threads
/// renumbered densely in order of first appearance), rebuilds each
/// thread's forest from close order + depths, and assigns synthetic
/// integer-microsecond intervals by DFS. No wall-clock quantity survives
/// into the output, so the same logical execution renders byte-identical
/// across runs.
pub fn chrome_trace_canonical(records: &[Arc<QueryRecord>]) -> Json {
    let mut events = Vec::new();
    let mut clock = 0u64;
    for record in records {
        let mut threads: Vec<(u64, Vec<&SpanRecord>)> = Vec::new();
        for span in &record.spans {
            match threads.iter_mut().find(|(t, _)| *t == span.thread) {
                Some((_, spans)) => spans.push(span),
                None => threads.push((span.thread, vec![span])),
            }
        }
        for (tid, (_, spans)) in threads.iter().enumerate() {
            for root in build_forest(spans) {
                assign(&root, &mut clock, record.id, tid as u64, &mut events);
            }
        }
    }
    Json::obj().set("traceEvents", Json::Arr(events))
}

/// Aggregate facts [`validate_chrome_trace`] reports about a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total complete (`ph: "X"`) events.
    pub events: usize,
    /// Distinct `args.query_id` values.
    pub queries: usize,
    /// Events whose name marks parallel chunk work (`*.chunk`,
    /// `*.part`, `exec.ground_chunk`).
    pub chunk_events: usize,
    /// Distinct `tid` values.
    pub threads: usize,
}

fn is_chunk_span(name: &str) -> bool {
    name.ends_with(".chunk") || name.ends_with(".part") || name == "exec.ground_chunk"
}

/// Structural check for an exported trace: the top level must be an
/// object with a `traceEvents` array; every event must be a complete
/// event with `name`/`ph`/`ts`/`dur`/`pid`/`tid`/`args.query_id`; and
/// every query id present must contribute exactly one complete
/// `exec.run` span tree root. Returns aggregate [`TraceStats`].
pub fn validate_chrome_trace(trace: &Json) -> Result<TraceStats, String> {
    let events = trace
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut stats = TraceStats::default();
    let mut queries: Vec<(u64, usize)> = Vec::new(); // (query_id, exec.run count)
    let mut tids: Vec<u64> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph != "X" {
            return Err(format!("event {i}: unexpected phase {ph:?}"));
        }
        for key in ["ts", "dur"] {
            let v = event
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric {key}"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("event {i}: non-finite or negative {key}"));
            }
        }
        event
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let query_id = event
            .get("args")
            .and_then(|a| a.get("query_id"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing args.query_id"))?;
        stats.events += 1;
        if is_chunk_span(name) {
            stats.chunk_events += 1;
        }
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        match queries.iter_mut().find(|(q, _)| *q == query_id) {
            Some((_, runs)) => {
                if name == "exec.run" {
                    *runs += 1;
                }
            }
            None => queries.push((query_id, (name == "exec.run") as usize)),
        }
    }
    for (query_id, runs) in &queries {
        if *runs != 1 {
            return Err(format!(
                "query {query_id}: expected exactly one exec.run root, found {runs}"
            ));
        }
    }
    stats.queries = queries.len();
    stats.threads = tids.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Field;

    fn span(
        name: &'static str,
        start_ns: u64,
        duration_ns: u64,
        depth: u32,
        thread: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            duration_ns,
            depth,
            thread,
            fields: Vec::new(),
        }
    }

    fn record(spans: Vec<SpanRecord>) -> Arc<QueryRecord> {
        Arc::new(QueryRecord {
            id: 1,
            query: "//a".to_owned(),
            source: "xpath".to_owned(),
            query_fingerprint: 1,
            tree_fingerprint: 2,
            strategy: "xpath/set-at-a-time".to_owned(),
            rationale: String::new(),
            parallel_rationale: String::new(),
            workers: 1,
            cache_hit: false,
            wall_ns: 100,
            rows: 1,
            error: None,
            quiesce_retries: 0,
            torn: false,
            spans,
            dropped_spans: 0,
            tenant: String::new(),
            trace_id: String::new(),
            admission_wait_ns: 0,
            resp_bytes: 0,
        })
    }

    #[test]
    fn forest_reconstruction_nests_by_close_order_and_depth() {
        // Close order: inner (d2), inner (d2), mid (d1), root (d0),
        // then a second root (d0).
        let spans = [
            span("exec.sweep", 10, 5, 2, 0),
            span("exec.semijoin", 20, 5, 2, 0),
            span("exec.stage", 5, 30, 1, 0),
            span("exec.run", 0, 50, 0, 0),
            span("exec.run2", 60, 5, 0, 0),
        ];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        let forest = build_forest(&refs);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].span.name, "exec.run");
        assert_eq!(forest[0].children.len(), 1);
        assert_eq!(forest[0].children[0].span.name, "exec.stage");
        assert_eq!(forest[0].children[0].children.len(), 2);
        assert_eq!(forest[1].span.name, "exec.run2");
        assert!(forest[1].children.is_empty());
    }

    #[test]
    fn canonical_events_nest_and_never_overlap() {
        let rec = record(vec![
            span("exec.sweep", 10, 5, 1, 3),
            span("exec.run", 0, 50, 0, 3),
        ]);
        let trace = chrome_trace_canonical(&[rec]);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        // DFS emits the parent first; tid is densely renumbered to 0.
        let parent = &events[0];
        let child = &events[1];
        assert_eq!(parent.get("name").unwrap().as_str(), Some("exec.run"));
        assert_eq!(parent.get("tid").unwrap().as_u64(), Some(0));
        let pts = parent.get("ts").unwrap().as_u64().unwrap();
        let pdur = parent.get("dur").unwrap().as_u64().unwrap();
        let cts = child.get("ts").unwrap().as_u64().unwrap();
        let cdur = child.get("dur").unwrap().as_u64().unwrap();
        assert!(
            pts < cts && cts + cdur < pts + pdur,
            "child strictly inside parent"
        );
    }

    #[test]
    fn canonical_is_independent_of_timings_and_thread_ids() {
        let a = record(vec![
            span("exec.sweep", 17, 999, 1, 5),
            span("exec.run", 3, 12345, 0, 5),
        ]);
        let b = record(vec![
            span("exec.sweep", 400, 1, 1, 11),
            span("exec.run", 390, 20, 0, 11),
        ]);
        assert_eq!(
            chrome_trace_canonical(&[a]).render(),
            chrome_trace_canonical(&[b]).render()
        );
    }

    #[test]
    fn validate_accepts_real_export_and_counts_chunks() {
        let rec = record(vec![
            span("exec.sweep.chunk", 5, 3, 2, 1),
            span("exec.sweep.chunk", 5, 4, 2, 2),
            span("exec.sweep", 4, 10, 1, 0),
            span("exec.run", 0, 20, 0, 0),
        ]);
        let trace = chrome_trace(&[rec]);
        let parsed = crate::parse_json(&trace.render()).unwrap();
        let stats = validate_chrome_trace(&parsed).unwrap();
        assert_eq!(stats.events, 4);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.chunk_events, 2);
        assert_eq!(stats.threads, 3);
    }

    #[test]
    fn validate_rejects_structurally_broken_traces() {
        assert!(validate_chrome_trace(&Json::obj()).is_err());
        // A query with no exec.run root.
        let rec = record(vec![span("exec.sweep", 0, 1, 1, 0)]);
        assert!(validate_chrome_trace(&chrome_trace(&[rec])).is_err());
        // An event missing args.query_id.
        let bad = Json::obj().set(
            "traceEvents",
            Json::Arr(vec![Json::obj()
                .set("name", "exec.run")
                .set("ph", "X")
                .set("ts", 0u64)
                .set("dur", 1u64)
                .set("pid", 1u64)
                .set("tid", 0u64)
                .set("args", Json::obj())]),
        );
        assert!(validate_chrome_trace(&bad).is_err());
    }

    #[test]
    fn fields_ride_into_args() {
        let mut s = span("exec.run", 0, 10, 0, 0);
        s.fields.push(Field {
            key: "strategy",
            value: FieldValue::Str("xpath/set-at-a-time".to_owned()),
        });
        s.fields.push(Field {
            key: "rows",
            value: FieldValue::U64(7),
        });
        let trace = chrome_trace(&[record(vec![s])]);
        let ev = &trace.get("traceEvents").unwrap().as_arr().unwrap()[0];
        let args = ev.get("args").unwrap();
        assert_eq!(
            args.get("strategy").unwrap().as_str(),
            Some("xpath/set-at-a-time")
        );
        assert_eq!(args.get("rows").unwrap().as_u64(), Some(7));
        assert_eq!(args.get("query_id").unwrap().as_u64(), Some(1));
    }
}
