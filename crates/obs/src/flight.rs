//! The query flight recorder: a bounded, process-global ring of
//! per-query records, plus a slow-query log.
//!
//! Once [`install`]ed, every engine evaluation gets a monotonically
//! increasing query id and leaves behind a [`QueryRecord`]: the query
//! text and fingerprints, the chosen strategy with the planner's
//! rationale, wall time, result cardinality, cache hit/miss, the raw
//! span tree of the run, and a degraded-counters tag. The most recent
//! records are retained in a fixed-capacity ring ([`recent`]); records
//! whose wall time exceeded the slow threshold are additionally retained
//! in a separate ring with their full `EXPLAIN ANALYZE` text and a
//! re-runnable reproducer rendering ([`slow_recent`]).
//!
//! **Disabled path.** The flight recorder costs nothing when off: the
//! engine checks [`enabled`], one relaxed atomic load, before doing any
//! recording work (budgeted by `--check-noop-overhead`).
//!
//! **Ring semantics.** Each submission takes a ticket from an atomic
//! counter and writes slot `ticket % capacity`, overwriting only records
//! with *older* tickets. Concurrent out-of-order completions therefore
//! cannot resurrect an evicted record: once all in-flight submissions
//! settle, the ring holds exactly the newest `capacity` records (the
//! property the eviction proptest pins).
//!
//! **Spans.** The engine runs each recorded evaluation inside a
//! [`capture`](crate::capture()), which collects the evaluation's spans
//! on its own thread and on every pool worker acting for it, and
//! [`submit`]s the record with them. The query service wraps a whole
//! wire request in [`record_request`], so the record also carries the
//! service's own `serve.*` spans and the response size.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::metrics::{Counter, Gauge, HistogramFamily, MetricSnapshot, Registry};
use crate::span::SpanRecord;
use crate::summary::span_to_json;

/// Tunables for the flight recorder. [`FlightConfig::from_env`] resolves
/// the slow threshold from `TREEQUERY_SLOW_MS`.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightConfig {
    /// Recent-query ring capacity (records kept in [`recent`]).
    pub capacity: usize,
    /// Slow-query ring capacity (records kept in [`slow_recent`]).
    pub slow_capacity: usize,
    /// Wall-time threshold above which a query is logged as slow, in
    /// nanoseconds. `None` disables the slow log (a per-engine
    /// `PlannerConfig::slow_query_ms` can still opt in).
    pub slow_threshold_ns: Option<u64>,
    /// Per-record cap on retained spans; spans past it are counted in
    /// [`QueryRecord::dropped_spans`] instead of retained.
    pub max_spans_per_query: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 128,
            slow_capacity: 32,
            slow_threshold_ns: None,
            max_spans_per_query: 4096,
        }
    }
}

impl FlightConfig {
    /// The default configuration with the slow threshold taken from the
    /// `TREEQUERY_SLOW_MS` environment variable (milliseconds; `0` logs
    /// every query). An unparsable value falls back to the default and
    /// warns once on stderr (see [`crate::env`]).
    pub fn from_env() -> FlightConfig {
        match std::env::var("TREEQUERY_SLOW_MS") {
            Ok(raw) => FlightConfig::from_slow_ms(&raw),
            Err(_) => FlightConfig::default(),
        }
    }

    /// [`from_env`](FlightConfig::from_env) with the raw knob value
    /// passed in — the testable parse path.
    pub fn from_slow_ms(raw: &str) -> FlightConfig {
        FlightConfig {
            slow_threshold_ns: crate::env::u64_value("TREEQUERY_SLOW_MS", raw)
                .map(|ms| ms.saturating_mul(1_000_000)),
            ..FlightConfig::default()
        }
    }
}

/// One completed evaluation, as captured by the flight recorder.
#[derive(Clone, Debug, Default)]
pub struct QueryRecord {
    /// The monotonically increasing query id (1-based; unique per
    /// process for one installed recorder).
    pub id: u64,
    /// The query source text, as submitted (or the normalized rendering
    /// when the query was lowered from an already-parsed form).
    pub query: String,
    /// The originating front-end (`xpath`, `cq`, `datalog`).
    pub source: String,
    /// Fingerprint of the query's normalized form.
    pub query_fingerprint: u64,
    /// Fingerprint of the tree the query ran against.
    pub tree_fingerprint: u64,
    /// The strategy the planner chose (e.g. `xpath/set-at-a-time`).
    pub strategy: String,
    /// The planner's rationale for that choice.
    pub rationale: String,
    /// The parallelism decision's rationale.
    pub parallel_rationale: String,
    /// Worker threads the plan was allowed to use.
    pub workers: u64,
    /// Whether the plan came from the plan cache.
    pub cache_hit: bool,
    /// End-to-end wall time of the evaluation, in nanoseconds.
    pub wall_ns: u64,
    /// Result cardinality (nodes or tuples); 0 on error.
    pub rows: u64,
    /// The error message, when the evaluation failed.
    pub error: Option<String>,
    /// Retries the post-run counter read needed to quiesce (see
    /// `Metrics::snapshot_quiesced`); non-zero means the record was
    /// captured under concurrent load.
    pub quiesce_retries: u32,
    /// Whether the counter read never quiesced — the record's timing is
    /// exact but any attached counters are degraded.
    pub torn: bool,
    /// The spans the query's capture collected, in close order (the raw
    /// material for the Chrome trace export).
    pub spans: Vec<SpanRecord>,
    /// Spans dropped past [`FlightConfig::max_spans_per_query`].
    pub dropped_spans: u64,
    /// The tenant the serving layer attributed the query to (empty for
    /// direct engine use — the library has no tenants).
    pub tenant: String,
    /// The end-to-end trace id stamped on the wire request (empty for
    /// direct engine use).
    pub trace_id: String,
    /// Time the request waited in admission before evaluation, in
    /// nanoseconds (0 for direct engine use and fast-lane admissions
    /// that never waited).
    pub admission_wait_ns: u64,
    /// Serialized response size in bytes, set through
    /// [`annotate_response`] (always 0 for direct engine use).
    pub resp_bytes: u64,
}

impl QueryRecord {
    /// The record as a JSON object; `include_spans` controls whether the
    /// raw span list rides along (the `/flight` endpoint omits it).
    pub fn to_json(&self, include_spans: bool) -> Json {
        let mut obj = Json::obj()
            .set("id", self.id)
            .set("query", self.query.as_str())
            .set("source", self.source.as_str())
            .set("query_fingerprint", self.query_fingerprint)
            .set("tree_fingerprint", self.tree_fingerprint)
            .set("strategy", self.strategy.as_str())
            .set("rationale", self.rationale.as_str())
            .set("parallel", self.parallel_rationale.as_str())
            .set("workers", self.workers)
            .set("cache_hit", self.cache_hit)
            .set("wall_ns", self.wall_ns)
            .set("rows", self.rows)
            .set("quiesce_retries", self.quiesce_retries)
            .set("torn", self.torn)
            .set("span_count", self.spans.len() as u64)
            .set("dropped_spans", self.dropped_spans)
            .set("admission_wait_ns", self.admission_wait_ns)
            .set("resp_bytes", self.resp_bytes);
        if !self.tenant.is_empty() {
            obj = obj.set("tenant", self.tenant.as_str());
        }
        if !self.trace_id.is_empty() {
            obj = obj.set("trace_id", self.trace_id.as_str());
        }
        if let Some(e) = &self.error {
            obj = obj.set("error", e.as_str());
        }
        if include_spans {
            obj = obj.set(
                "spans",
                Json::Arr(self.spans.iter().map(span_to_json).collect()),
            );
        }
        obj
    }
}

/// Extra material retained for a slow query: the rendered
/// `EXPLAIN ANALYZE` text and a re-runnable reproducer.
#[derive(Clone, Debug)]
pub struct SlowDetail {
    /// The full `EXPLAIN ANALYZE` rendering of the captured run.
    pub explain: String,
    /// A reproducer rendering: tree fingerprint + query source, enough
    /// to re-run the query against a structurally identical tree.
    pub reproducer: String,
}

/// A slow-query log entry: the record plus its [`SlowDetail`].
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The captured record.
    pub record: Arc<QueryRecord>,
    /// `EXPLAIN ANALYZE` text and reproducer.
    pub detail: SlowDetail,
}

impl SlowQuery {
    /// The entry as a JSON object (the `/slow` endpoint row).
    pub fn to_json(&self) -> Json {
        self.record
            .to_json(false)
            .set("explain", self.detail.explain.as_str())
            .set("reproducer", self.detail.reproducer.as_str())
    }
}

/// One ring slot: the submission ticket paired with the stored value.
type Slot<T> = Mutex<Option<(u64, T)>>;

/// A ticket-guarded overwrite ring: slot `ticket % capacity` holds the
/// newest record assigned to it, so at quiescence the ring holds exactly
/// the newest `capacity` submissions regardless of completion order.
struct TicketRing<T> {
    ticket: AtomicU64,
    slots: Box<[Slot<T>]>,
}

impl<T: Clone> TicketRing<T> {
    fn new(capacity: usize) -> TicketRing<T> {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || Mutex::new(None));
        TicketRing {
            ticket: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    fn push(&self, value: T) {
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let mut guard = slot.lock().expect("flight ring slot poisoned");
        match &*guard {
            // A concurrent later submission already claimed the slot;
            // overwriting it would resurrect an evicted generation.
            Some((held, _)) if *held > ticket => {}
            _ => *guard = Some((ticket, value)),
        }
    }

    /// Total submissions so far.
    fn submitted(&self) -> u64 {
        self.ticket.load(Ordering::Relaxed)
    }

    /// Retained values, oldest first (by ticket).
    fn collect(&self) -> Vec<T> {
        let mut rows: Vec<(u64, T)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("flight ring slot poisoned").clone())
            .collect();
        rows.sort_by_key(|(t, _)| *t);
        rows.into_iter().map(|(_, v)| v).collect()
    }
}

struct FlightState {
    config: FlightConfig,
    next_id: AtomicU64,
    recent: TicketRing<Arc<QueryRecord>>,
    slow: TicketRing<SlowQuery>,
    metrics: FlightMetrics,
}

/// The recorder's instruments, registered once per install in their own
/// registry (exported by [`metrics`]).
struct FlightMetrics {
    registry: Registry,
    queries: Counter,
    slow: Counter,
    last_id: Gauge,
    wall: HistogramFamily,
    stages: HistogramFamily,
}

impl FlightMetrics {
    fn new() -> FlightMetrics {
        let registry = Registry::new();
        FlightMetrics {
            queries: registry.counter(
                "treequery_flight_queries_total",
                "Queries captured by the flight recorder.",
            ),
            slow: registry.counter(
                "treequery_flight_slow_total",
                "Queries that exceeded the slow-query threshold.",
            ),
            last_id: registry.gauge(
                "treequery_flight_last_query_id",
                "Most recently submitted flight-recorder query id.",
            ),
            wall: registry.histogram_family(
                "treequery_query_wall_ns",
                "End-to-end query wall time by front-end.",
                "source",
            ),
            stages: registry.histogram_family(
                "treequery_stage_latency_ns",
                "Per-stage span latency across flight-recorded queries.",
                "stage",
            ),
            registry,
        }
    }

    /// Records one submitted record: the flight counters and last-id
    /// gauge, its wall time by source, and every span's latency by stage.
    fn observe(&self, record: &QueryRecord, slow: bool) {
        self.queries.inc();
        if slow {
            self.slow.inc();
        }
        self.last_id
            .set(i64::try_from(record.id).unwrap_or(i64::MAX));
        self.wall.with_label(&record.source).observe(record.wall_ns);
        for span in &record.spans {
            self.stages.with_label(span.name).observe(span.duration_ns);
        }
    }
}

static STATE: Mutex<Option<Arc<FlightState>>> = Mutex::new(None);
/// Mirrors `STATE.is_some()` for the one-load [`enabled`] check.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// A wire request being recorded on this thread (see [`record_request`]).
#[derive(Default)]
struct OpenRequest {
    /// The record the evaluation submitted, held until the request ends.
    deferred: Option<(QueryRecord, Option<SlowDetail>)>,
    resp_bytes: u64,
}

thread_local! {
    /// The wire-request context the serving layer attached (None for
    /// direct engine use).
    static REQUEST_CTX: RefCell<Option<RequestCtx>> = const { RefCell::new(None) };
    static REQUEST: RefCell<Option<OpenRequest>> = const { RefCell::new(None) };
}

/// Wire-request context the serving layer attaches around an evaluation
/// so the engine-built [`QueryRecord`] carries tenant attribution, the
/// end-to-end trace id, and the admission wait. Scoped with
/// [`with_request_ctx`]; read by the engine via [`request_ctx`] when it
/// builds the record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestCtx {
    /// The session's tenant.
    pub tenant: String,
    /// The request's trace id (client-supplied or server-generated).
    pub trace_id: String,
    /// Nanoseconds the request waited in admission.
    pub admission_wait_ns: u64,
}

/// Runs `f` with `ctx` as this thread's request context, restoring the
/// previous context afterwards (also on panic).
pub fn with_request_ctx<T>(ctx: RequestCtx, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<RequestCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            REQUEST_CTX.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let previous = REQUEST_CTX.with(|c| c.borrow_mut().replace(ctx));
    let _restore = Restore(previous);
    f()
}

/// The request context attached to this thread, if any.
pub fn request_ctx() -> Option<RequestCtx> {
    REQUEST_CTX.with(|c| c.borrow().clone())
}

fn state() -> Option<Arc<FlightState>> {
    STATE.lock().expect("flight state poisoned").clone()
}

/// Installs the flight recorder process-wide (replacing any previous
/// one and discarding its retained records).
pub fn install(config: FlightConfig) {
    let state = Arc::new(FlightState {
        recent: TicketRing::new(config.capacity),
        slow: TicketRing::new(config.slow_capacity),
        next_id: AtomicU64::new(0),
        metrics: FlightMetrics::new(),
        config,
    });
    let mut slot = STATE.lock().expect("flight state poisoned");
    *slot = Some(state);
    ENABLED.store(true, Ordering::Release);
}

/// Uninstalls the flight recorder; evaluation goes back to the
/// one-relaxed-load disabled path and retained records are dropped.
pub fn uninstall() {
    let mut slot = STATE.lock().expect("flight state poisoned");
    ENABLED.store(false, Ordering::Release);
    *slot = None;
}

/// Whether the flight recorder is installed. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed slow threshold, if any (engine configuration may
/// override it per engine).
pub fn slow_threshold_ns() -> Option<u64> {
    state().and_then(|s| s.config.slow_threshold_ns)
}

/// Assigns the next query id (1-based). Returns 0 when the recorder is
/// not installed — 0 is never a valid query id.
pub fn begin_query() -> u64 {
    match state() {
        Some(s) => s.next_id.fetch_add(1, Ordering::Relaxed) + 1,
        None => 0,
    }
}

/// Submits a finished record into the recent ring (and, when
/// `slow_detail` is given, the slow ring), and counts the record in the
/// recorder's instruments (see [`metrics`]). Spans past
/// [`FlightConfig::max_spans_per_query`] are dropped and counted. Inside
/// [`record_request`] the record is held back until the request ends.
pub fn submit(record: QueryRecord, slow_detail: Option<SlowDetail>) {
    let Some(state) = state() else { return };
    let mut pending = Some((record, slow_detail));
    REQUEST.with(|r| {
        if let Some(open) = r.borrow_mut().as_mut() {
            open.deferred = pending.take();
        }
    });
    let Some((mut record, slow_detail)) = pending else {
        return;
    };
    let cap = state.config.max_spans_per_query;
    if record.spans.len() > cap {
        record.dropped_spans += (record.spans.len() - cap) as u64;
        record.spans.truncate(cap);
    }
    state.metrics.observe(&record, slow_detail.is_some());
    let record = Arc::new(record);
    state.recent.push(Arc::clone(&record));
    if let Some(detail) = slow_detail {
        state.slow.push(SlowQuery { record, detail });
    }
}

/// Records one wire request: runs `f` inside a
/// [`capture`](crate::capture()) and then submits the record the
/// evaluation inside `f` produced, carrying every span the request
/// closed — the service's own `serve.*` spans around the evaluation
/// included — and the size passed to [`annotate_response`]. A request
/// that never reached evaluation (a parse error, an admission
/// rejection) submits nothing. Requests do not nest. Without an
/// installed recorder this is just `f()`.
pub fn record_request<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    /// Ends the request on this thread also when `f` unwinds.
    struct Close;
    impl Drop for Close {
        fn drop(&mut self) {
            REQUEST.with(|r| r.borrow_mut().take());
        }
    }
    REQUEST.with(|r| *r.borrow_mut() = Some(OpenRequest::default()));
    let _close = Close;
    let (out, captured) = crate::capture(f);
    let open = REQUEST.with(|r| r.borrow_mut().take());
    if let Some(OpenRequest {
        deferred: Some((mut record, detail)),
        resp_bytes,
    }) = open
    {
        record.spans = captured.spans;
        record.resp_bytes = resp_bytes;
        submit(record, detail);
    }
    out
}

/// Sets the serialized response size of the request being recorded on
/// this thread (see [`record_request`]); a no-op elsewhere.
pub fn annotate_response(resp_bytes: u64) {
    REQUEST.with(|r| {
        if let Some(open) = r.borrow_mut().as_mut() {
            open.resp_bytes = resp_bytes;
        }
    });
}

/// The recorder's instruments, for the query service's `/metrics`: the
/// `treequery_flight_*` counters and last-id gauge, per-source wall-time
/// histograms and per-stage latency histograms. Empty when the recorder
/// is not installed.
pub fn metrics() -> Vec<MetricSnapshot> {
    state()
        .map(|s| s.metrics.registry.gather())
        .unwrap_or_default()
}

/// The retained recent records, oldest first. Empty when the recorder
/// is not installed.
pub fn recent() -> Vec<Arc<QueryRecord>> {
    state().map(|s| s.recent.collect()).unwrap_or_default()
}

/// The retained slow-query entries, oldest first.
pub fn slow_recent() -> Vec<SlowQuery> {
    state().map(|s| s.slow.collect()).unwrap_or_default()
}

/// The most recently submitted record, if any.
pub fn latest() -> Option<Arc<QueryRecord>> {
    recent().pop()
}

/// Total records submitted to the installed recorder.
pub fn submitted_total() -> u64 {
    state().map(|s| s.recent.submitted()).unwrap_or(0)
}

/// The `/flight` endpoint body: recent records (without raw spans) plus
/// ring accounting.
pub fn recent_json() -> Json {
    let records = recent();
    let submitted = submitted_total();
    Json::obj()
        .set("submitted", submitted)
        .set("retained", records.len() as u64)
        .set("evicted", submitted.saturating_sub(records.len() as u64))
        .set(
            "records",
            Json::Arr(records.iter().map(|r| r.to_json(false)).collect()),
        )
}

/// The `/slow` endpoint body: slow-query entries with their
/// `EXPLAIN ANALYZE` text and reproducers.
pub fn slow_json() -> Json {
    let rows = slow_recent();
    Json::obj().set("retained", rows.len() as u64).set(
        "records",
        Json::Arr(rows.iter().map(SlowQuery::to_json).collect()),
    )
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn record(id: u64) -> QueryRecord {
        QueryRecord {
            id,
            query: format!("//q{id}"),
            source: "xpath".to_owned(),
            query_fingerprint: id,
            tree_fingerprint: 7,
            strategy: "xpath/set-at-a-time".to_owned(),
            rationale: "test".to_owned(),
            parallel_rationale: "sequential".to_owned(),
            workers: 1,
            cache_hit: false,
            wall_ns: 1000 + id,
            rows: id,
            error: None,
            quiesce_retries: 0,
            torn: false,
            spans: Vec::new(),
            dropped_spans: 0,
            tenant: String::new(),
            trace_id: String::new(),
            admission_wait_ns: 0,
            resp_bytes: 0,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = test_lock();
        uninstall();
        assert!(!enabled());
        assert_eq!(begin_query(), 0);
        assert!(recent().is_empty());
        assert!(slow_recent().is_empty());
        submit(record(1), None); // dropped silently
        assert_eq!(submitted_total(), 0);
    }

    #[test]
    fn ring_keeps_exactly_the_newest_n() {
        let _g = test_lock();
        install(FlightConfig {
            capacity: 4,
            ..FlightConfig::default()
        });
        for i in 1..=10u64 {
            submit(record(i), None);
        }
        let ids: Vec<u64> = recent().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        assert_eq!(submitted_total(), 10);
        assert_eq!(latest().unwrap().id, 10);
        uninstall();
    }

    #[test]
    fn ticket_guard_never_resurrects_an_evicted_generation() {
        // Simulate out-of-order completion: ticket 0's write lands after
        // ticket 4 already claimed the same slot.
        let ring: TicketRing<u64> = TicketRing::new(4);
        let t0 = ring.ticket.fetch_add(1, Ordering::Relaxed); // ticket 0
        for v in [1u64, 2, 3, 4] {
            ring.push(v); // tickets 1..=4; ticket 4 → slot 0
        }
        // Now deliver ticket 0's value late, directly into slot 0.
        let slot = &ring.slots[(t0 % 4) as usize];
        {
            let mut guard = slot.lock().unwrap();
            if !matches!(&*guard, Some((held, _)) if *held > t0) {
                *guard = Some((t0, 99));
            }
        }
        assert_eq!(ring.collect(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn slow_ring_retains_detail() {
        let _g = test_lock();
        install(FlightConfig {
            capacity: 8,
            slow_capacity: 2,
            ..FlightConfig::default()
        });
        for i in 1..=3u64 {
            submit(
                record(i),
                Some(SlowDetail {
                    explain: format!("EXPLAIN ANALYZE #{i}"),
                    reproducer: format!("repro #{i}"),
                }),
            );
        }
        let slow = slow_recent();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].record.id, 2);
        assert_eq!(slow[1].record.id, 3);
        assert_eq!(slow[1].detail.explain, "EXPLAIN ANALYZE #3");
        let v = crate::parse_json(&slow_json().render()).unwrap();
        assert_eq!(v.get("retained").unwrap().as_u64(), Some(2));
        let rows = v.get("records").unwrap().as_arr().unwrap();
        assert_eq!(
            rows[1].get("reproducer").unwrap().as_str(),
            Some("repro #3")
        );
        uninstall();
    }

    #[test]
    fn metrics_count_submissions_until_uninstall() {
        let _g = test_lock();
        uninstall();
        assert!(metrics().is_empty());
        install(FlightConfig::default());
        let mut slow = record(2);
        slow.spans.push(span("exec.run"));
        submit(record(1), None);
        submit(
            slow,
            Some(SlowDetail {
                explain: String::new(),
                reproducer: String::new(),
            }),
        );
        let text = crate::prom::render_snapshots(&metrics());
        for line in [
            "# TYPE treequery_flight_queries_total counter\ntreequery_flight_queries_total 2\n",
            "treequery_flight_slow_total 1\n",
            "treequery_flight_last_query_id 2\n",
            "treequery_query_wall_ns_count{source=\"xpath\"} 2\n",
            "treequery_stage_latency_ns_count{stage=\"exec.run\"} 1\n",
        ] {
            assert!(text.contains(line), "{line:?} missing from:\n{text}");
        }
        crate::prom::validate_exposition(&text).expect("flight metrics validate");
        uninstall();
        assert!(metrics().is_empty());
    }

    fn span(name: &'static str) -> SpanRecord {
        SpanRecord {
            name,
            start_ns: 0,
            duration_ns: 1,
            depth: 0,
            thread: 0,
            fields: Vec::new(),
        }
    }

    #[test]
    fn submit_caps_spans_per_record() {
        let _g = test_lock();
        install(FlightConfig {
            max_spans_per_query: 2,
            ..FlightConfig::default()
        });
        let mut r = record(1);
        r.spans = vec![span("a"), span("b"), span("c")];
        submit(r, None);
        let kept = latest().unwrap();
        assert_eq!(
            kept.spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(kept.dropped_spans, 1);
        uninstall();
    }

    #[test]
    fn request_ctx_scopes_and_restores() {
        assert_eq!(request_ctx(), None);
        let ctx = RequestCtx {
            tenant: "alpha".into(),
            trace_id: "t-1".into(),
            admission_wait_ns: 5,
        };
        let inner = with_request_ctx(ctx.clone(), || {
            assert_eq!(request_ctx(), Some(ctx.clone()));
            with_request_ctx(RequestCtx::default(), request_ctx)
        });
        assert_eq!(inner, Some(RequestCtx::default()));
        assert_eq!(request_ctx(), None);
    }

    #[test]
    fn record_request_submits_with_request_spans_and_response_size() {
        let _g = test_lock();
        install(FlightConfig::default());
        let out = record_request(|| {
            drop(crate::span("serve.lock"));
            let mut evaluated = record(1);
            evaluated.tenant = "alpha".into();
            evaluated.trace_id = "trace-1".into();
            evaluated.spans = vec![span("exec.run")];
            submit(
                evaluated,
                Some(SlowDetail {
                    explain: "E".into(),
                    reproducer: "R".into(),
                }),
            );
            assert!(recent().is_empty(), "held until the request ends");
            drop(crate::span("serve.serialize"));
            annotate_response(512);
            7
        });
        assert_eq!(out, 7);
        // A request that never evaluated submits nothing.
        record_request(|| drop(crate::span("serve.lock")));
        annotate_response(9); // outside a request: no-op
        let recent = recent();
        assert_eq!(recent.len(), 1);
        let one = &recent[0];
        assert_eq!(one.resp_bytes, 512);
        assert_eq!(one.tenant, "alpha");
        assert_eq!(
            one.spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec!["serve.lock", "serve.serialize"],
            "the request's spans replace the evaluation's own copy"
        );
        let slow = slow_recent();
        assert_eq!(slow[0].record.resp_bytes, 512);
        assert_eq!(slow[0].detail.explain, "E");
        // The JSON carries the wire fields (and omits empty ones).
        let v = crate::parse_json(&one.to_json(false).render()).unwrap();
        assert_eq!(v.get("resp_bytes").unwrap().as_u64(), Some(512));
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("alpha"));
        assert_eq!(v.get("trace_id").unwrap().as_str(), Some("trace-1"));
        let v2 = crate::parse_json(&record(3).to_json(false).render()).unwrap();
        assert!(v2.get("tenant").is_none());
        assert!(v2.get("trace_id").is_none());
        assert_eq!(v2.get("admission_wait_ns").unwrap().as_u64(), Some(0));
        uninstall();
    }

    #[test]
    fn unparsable_slow_ms_falls_back_to_default() {
        assert_eq!(
            FlightConfig::from_slow_ms("250").slow_threshold_ns,
            Some(250_000_000)
        );
        assert_eq!(FlightConfig::from_slow_ms(" 0 ").slow_threshold_ns, Some(0));
        // The typo'd knob falls back (and warns once, in crate::env).
        assert_eq!(FlightConfig::from_slow_ms("25O").slow_threshold_ns, None);
        assert!(crate::env::has_warned("TREEQUERY_SLOW_MS"));
    }

    #[test]
    fn flight_json_round_trips() {
        let _g = test_lock();
        install(FlightConfig {
            capacity: 2,
            ..FlightConfig::default()
        });
        submit(record(1), None);
        submit(record(2), None);
        submit(record(3), None);
        let v = crate::parse_json(&recent_json().render()).unwrap();
        assert_eq!(v.get("submitted").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("retained").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("evicted").unwrap().as_u64(), Some(1));
        let rows = v.get("records").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("id").unwrap().as_u64(), Some(2));
        assert_eq!(
            rows[1].get("strategy").unwrap().as_str(),
            Some("xpath/set-at-a-time")
        );
        uninstall();
    }
}
