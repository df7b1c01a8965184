#![warn(missing_docs)]

//! `treequery-core`: the unified engine over all the techniques of Koch,
//! *Processing Queries on Tree-Structured Data Efficiently* (PODS 2006).
//!
//! The sibling crates implement the paper's five technique families; this
//! crate re-exports them and adds [`Engine`], which routes every query —
//! Core XPath, conjunctive queries, monadic datalog — through one
//! three-stage pipeline:
//!
//! 1. **IR** ([`plan::ir`]): the front-end text is parsed and lowered
//!    into a shared logical form with provenance, a structural feature
//!    summary, and a fingerprint of its *normalized* form;
//! 2. **planner** ([`plan::planner`]): cheap per-tree statistics
//!    ([`plan::TreeStats`]) plus the paper's classifiers (acyclicity,
//!    the Theorem 6.8 dichotomy, Theorem 5.1 rewritability) pick an
//!    execution strategy and explain the choice ([`plan::ExplainedPlan`]),
//!    behind a plan cache keyed by `(query fingerprint, tree fingerprint)`
//!    ([`Engine::plan`], surfaced by [`Engine::explain`]);
//! 3. **executor** ([`plan::exec`]): [`Engine::run`] — the one evaluation
//!    entry point — runs a plan with per-stage work counters
//!    ([`Engine::metrics`]), under the ambient cancel token, leaving a
//!    flight record when the recorder is on.
//!
//! [`Engine::eval`] is lower → plan → run. A caller that forces a strategy
//! hands [`Engine::run`] an [`ExplainedPlan::forced`] plan instead.
//! [`Engine::eval_batch`] evaluates many queries over the one tree on
//! scoped worker threads; the typed entry points ([`Engine::xpath`],
//! [`Engine::cq`], [`Engine::datalog`], [`Engine::stream_select`]) remain
//! as thin shims over the pipeline.

use std::collections::BTreeSet;
use std::sync::OnceLock;

pub mod document;
pub mod plan;

pub use document::{Document, WatchId};

pub use treequery_automata as automata;
pub use treequery_cq as cq;
pub use treequery_datalog as datalog;
pub use treequery_hornsat as hornsat;
pub use treequery_storage as storage;
pub use treequery_streaming as streaming;
pub use treequery_tree as tree;
pub use treequery_xpath as xpath;

pub use treequery_tree::{
    parse_term, parse_xml, to_xml, Axis, CancelReason, CancelToken, NodeId, NodeSet, Order, Tree,
    TreeBuilder,
};

pub use plan::{
    applicable_strategies, AnalyzedPlan, CostClass, ExplainedPlan, Metrics, MetricsSnapshot,
    PlannerConfig, Query, QueryIr, QueryOutput, SourceLang, StageStats, Strategy, TreeStats,
};

pub use treequery_obs as obs;

/// Errors surfaced by the [`Engine`].
#[derive(Debug)]
pub enum EngineError {
    /// The XPath expression did not parse.
    XPath(xpath::XPathParseError),
    /// The conjunctive query did not parse.
    Cq(cq::CqParseError),
    /// The datalog program did not parse.
    Datalog(datalog::ParseError),
    /// The datalog program has no query predicate.
    NoQueryPredicate,
    /// The query cannot be streamed, even after backward-axis elimination.
    NotStreamable(String),
    /// The query was cooperatively cancelled mid-execution: the ambient
    /// [`CancelToken`] tripped (explicit CANCEL or a passed deadline) and
    /// the kernels bailed at the next chunk boundary. Any partial result
    /// was discarded; shared state (plan cache, metrics, scratch pools)
    /// is untouched by the abort.
    Cancelled(CancelReason),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::XPath(e) => write!(f, "{e}"),
            EngineError::Cq(e) => write!(f, "{e}"),
            EngineError::Datalog(e) => write!(f, "{e}"),
            EngineError::NoQueryPredicate => f.write_str("datalog program has no query predicate"),
            EngineError::NotStreamable(m) => write!(f, "not streamable: {m}"),
            EngineError::Cancelled(reason) => write!(f, "query {reason}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The answer to a conjunctive query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CqAnswer {
    /// The result tuples (the empty tuple for satisfied Boolean queries).
    pub tuples: BTreeSet<Vec<NodeId>>,
}

impl CqAnswer {
    /// Boolean view: at least one tuple.
    pub fn is_satisfiable(&self) -> bool {
        !self.tuples.is_empty()
    }
}

/// Engine tunables. [`Default`] lets [`Engine::eval_batch`] size its
/// worker pool from the machine. Plans are always cached, keyed by
/// `(query fingerprint, tree fingerprint)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineConfig {
    /// Planner cost-model knobs.
    pub planner: PlannerConfig,
    /// Worker threads for [`Engine::eval_batch`]; `None` resolves to
    /// [`plan::default_workers`] (the `TREEQUERY_WORKERS` env knob, else
    /// the machine's available parallelism). The threads come from the
    /// process-wide [`plan::WorkerPool`], shared with the intra-query
    /// parallel kernels.
    pub batch_threads: Option<usize>,
}

/// A query engine bound to one (frozen) tree.
///
/// Statistics, the tree fingerprint, plan cache, and metrics are shared
/// state; all evaluation methods take `&self`, and the engine is `Sync`,
/// which is what lets [`Engine::eval_batch`] fan out over scoped threads.
///
/// The plan cache and metrics live behind `Arc`s so they can outlive any
/// one engine: [`Document`] hands the same cache/metrics to every
/// ephemeral engine it creates across edits, and independent engines over
/// different trees can pool one cache (entries are keyed by tree
/// fingerprint, so they never collide).
pub struct Engine<'t> {
    tree: &'t Tree,
    config: EngineConfig,
    stats: OnceLock<TreeStats>,
    tree_fp: OnceLock<u64>,
    cache: std::sync::Arc<plan::PlanCache>,
    metrics: std::sync::Arc<Metrics>,
}

impl<'t> Engine<'t> {
    /// Creates an engine over a tree with the default configuration.
    pub fn new(tree: &'t Tree) -> Self {
        Engine::with_config(tree, EngineConfig::default())
    }

    /// Creates an engine with explicit tunables.
    pub fn with_config(tree: &'t Tree, config: EngineConfig) -> Self {
        Engine::with_runtime(
            tree,
            config,
            std::sync::Arc::new(plan::PlanCache::default()),
            std::sync::Arc::new(Metrics::default()),
        )
    }

    /// Creates an engine sharing an existing plan cache and metrics
    /// registry. Cache entries are keyed by `(query fp, tree fp)`, so
    /// engines over different trees can share one cache without
    /// cross-talk; metrics aggregate across all sharers.
    pub fn with_runtime(
        tree: &'t Tree,
        config: EngineConfig,
        cache: std::sync::Arc<plan::PlanCache>,
        metrics: std::sync::Arc<Metrics>,
    ) -> Self {
        Engine {
            tree,
            config,
            stats: OnceLock::new(),
            tree_fp: OnceLock::new(),
            cache,
            metrics,
        }
    }

    /// Pre-seeds the lazily computed per-tree state ([`Engine::stats`],
    /// [`Engine::tree_fingerprint`]) with values the caller already
    /// maintains incrementally — how [`Document`] makes its ephemeral
    /// engines start warm instead of re-deriving `O(|D|)` state per
    /// query.
    pub(crate) fn seed_tree_state(&self, stats: TreeStats, tree_fp: u64) {
        let _ = self.stats.set(stats);
        let _ = self.tree_fp.set(tree_fp);
    }

    /// The underlying tree.
    pub fn tree(&self) -> &'t Tree {
        self.tree
    }

    /// The per-tree statistics the planner consults (computed lazily,
    /// once).
    pub fn stats(&self) -> &TreeStats {
        self.stats.get_or_init(|| TreeStats::compute(self.tree))
    }

    /// The tree fingerprint (half of the plan-cache key; computed lazily,
    /// once).
    pub fn tree_fingerprint(&self) -> u64 {
        *self
            .tree_fp
            .get_or_init(|| plan::tree_fingerprint(self.tree))
    }

    /// A snapshot of the pipeline's work counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// A quiesced snapshot of the work counters: re-read until stable, so
    /// numbers taken after all in-flight queries finished are never torn
    /// (see [`plan::exec::Metrics::snapshot_quiesced`]).
    pub fn metrics_quiesced(&self) -> MetricsSnapshot {
        self.metrics.snapshot_quiesced()
    }

    /// Zeroes the pipeline's work counters.
    pub fn reset_metrics(&self) {
        self.metrics.reset()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Parses and lowers a front-end query into the shared IR.
    pub fn lower(&self, query: &Query) -> Result<QueryIr, EngineError> {
        self.lower_counted(query, &self.metrics)
    }

    fn lower_counted(&self, query: &Query, metrics: &Metrics) -> Result<QueryIr, EngineError> {
        let _span = treequery_obs::span("pipeline.lower");
        let ir = plan::lower(query)?;
        plan::Metrics::add_lowered(metrics);
        Ok(ir)
    }

    /// The plan the engine would run for `query`, with its rationale —
    /// strategy, cost class, estimated work, and the statistics that
    /// decided it.
    pub fn explain(&self, query: &Query) -> Result<ExplainedPlan, EngineError> {
        let ir = self.lower(query)?;
        Ok((*self.plan(&ir)).clone())
    }

    /// The plan for an already-lowered query: looked up in the plan cache
    /// (keyed by `(query fingerprint, tree fingerprint)`) and planned on a
    /// miss. Each call is one lookup in the cache counters.
    pub fn plan(&self, ir: &QueryIr) -> std::sync::Arc<ExplainedPlan> {
        self.plan_counted(ir, &self.metrics)
    }

    /// [`plan`](Self::plan) counting into `metrics`. Whether the plan came
    /// from the cache is left in [`LAST_LOOKUP`] for the flight record of
    /// the run that follows.
    fn plan_counted(&self, ir: &QueryIr, metrics: &Metrics) -> std::sync::Arc<ExplainedPlan> {
        let planned = std::cell::Cell::new(false);
        let compute = || {
            let _span = treequery_obs::span("pipeline.plan");
            planned.set(true);
            plan::Metrics::add_planned(metrics);
            plan::plan_ir(ir, self.stats(), &self.config.planner)
        };
        let mut span = treequery_obs::span("pipeline.cache_lookup");
        let plan =
            self.cache
                .get_or_insert(ir.fingerprint, self.tree_fingerprint(), metrics, compute);
        let hit = !planned.get();
        span.record_bool("hit", hit);
        LAST_LOOKUP.with(|last| last.set(Some((ir.fingerprint, hit))));
        plan
    }

    /// `EXPLAIN ANALYZE`: evaluates `query` once inside a
    /// [`treequery_obs::capture`] with allocation accounting on, and
    /// returns the planner's [`ExplainedPlan`] rationale merged with the
    /// *measured* per-stage wall times, structured span fields, per-stage
    /// allocations, and the executor counters of this run.
    ///
    /// Everything in the report belongs to this run alone: the capture
    /// sees only this thread and the pool workers acting for it, and the
    /// counters accumulate in a query-local [`Metrics`] that is added to
    /// the engine's afterwards. Concurrent queries on this or any other
    /// engine do not leak in.
    pub fn explain_analyze(&self, query: &Query) -> Result<AnalyzedPlan, EngineError> {
        let local = Metrics::default();
        let _accounting = treequery_obs::alloc::AccountingGuard::begin();
        let (run, captured, total_ns) = captured_run(|| {
            let ir = self.lower_counted(query, &local)?;
            let chosen = self.plan_counted(&ir, &local);
            let output = self.execute(&ir, &chosen, &local)?;
            Ok(((*chosen).clone(), output))
        });
        let counters = local.snapshot();
        self.metrics.absorb(&counters);
        let (chosen, output) = run?;
        Ok(plan::analyze::assemble(
            query.text().to_owned(),
            chosen,
            total_ns,
            output,
            &captured.summary(),
            &captured.scopes,
            counters,
        ))
    }

    /// Evaluates one query: lower, [`plan`](Self::plan), [`run`](Self::run).
    pub fn eval(&self, query: &Query) -> Result<QueryOutput, EngineError> {
        let ir = self.lower(query)?;
        self.run(&ir, &self.plan(&ir))
    }

    /// Plans and runs an already-lowered query under a [`CancelToken`]:
    /// the token is installed as the thread's ambient token for the
    /// duration (see [`run`](Self::run)). Deadlines are tokens too:
    /// [`CancelToken::with_deadline`].
    pub fn eval_ir_with_cancel(
        &self,
        ir: &QueryIr,
        token: &CancelToken,
    ) -> Result<QueryOutput, EngineError> {
        tree::cancel::with_token(token, || self.run(ir, &self.plan(ir)))
    }

    /// Runs `plan` for an already-lowered query — every evaluation goes
    /// through here. The plan is usually [`plan`](Self::plan)'s; a caller
    /// may force one with [`ExplainedPlan::forced`] (how the differential
    /// fuzzer and the benchmark suite pin strategies and worker counts).
    ///
    /// The run honours the ambient [`tree::cancel`] token if the caller
    /// installed one ([`tree::cancel::with_token`]): every kernel
    /// checkpoint observes it, and a tripped token surfaces as
    /// [`EngineError::Cancelled`] within one chunk boundary — partial
    /// results are discarded, shared state (plan cache, scratch pools,
    /// metrics) stays consistent. With no token installed a checkpoint
    /// costs one thread-local read.
    ///
    /// While the [`treequery_obs::flight`] recorder is installed, the run
    /// is assigned a query id and leaves a per-query record (plan choice,
    /// timings, span tree, slow-query material) in the flight ring; the
    /// disabled path costs one relaxed atomic load.
    pub fn run(&self, ir: &QueryIr, plan: &ExplainedPlan) -> Result<QueryOutput, EngineError> {
        if treequery_obs::flight::enabled() {
            return self.run_recorded(ir, plan);
        }
        self.execute(ir, plan, &self.metrics)
    }

    /// The one call into the executor, counting into `metrics`.
    fn execute(
        &self,
        ir: &QueryIr,
        plan: &ExplainedPlan,
        metrics: &Metrics,
    ) -> Result<QueryOutput, EngineError> {
        plan::exec::execute(ir, plan, self.tree, metrics)
    }

    /// The flight-recorded run: execution happens inside a
    /// [`treequery_obs::capture`] (pool workers replay it, so cross-worker
    /// chunk spans land here too), then the record is submitted with the
    /// captured spans. Out of line — the common disabled path should pay
    /// only the `enabled()` load.
    ///
    /// Inside the query service's [`flight::record_request`] the record
    /// is held back and submitted with the whole request's spans, so the
    /// wire request and the evaluation are one record, not two.
    ///
    /// [`flight::record_request`]: treequery_obs::flight::record_request
    #[cold]
    fn run_recorded(
        &self,
        ir: &QueryIr,
        chosen: &ExplainedPlan,
    ) -> Result<QueryOutput, EngineError> {
        use treequery_obs::flight;
        let cache_hit = LAST_LOOKUP.with(|last| last.take()) == Some((ir.fingerprint, true));
        let before = self.metrics.snapshot();
        let (result, captured, wall_ns) = captured_run(|| self.execute(ir, chosen, &self.metrics));
        let id = flight::begin_query();
        if id == 0 {
            // The recorder was uninstalled during the run.
            return result;
        }
        // The quiesced re-read tags records captured under concurrent
        // load (satellite: surfaced retry count, not just `torn`).
        let counters = self.metrics.snapshot_quiesced().delta_since(&before);
        let rows = match &result {
            Ok(QueryOutput::Nodes(v)) => v.len() as u64,
            Ok(QueryOutput::Answer(a)) => a.tuples.len() as u64,
            Err(_) => 0,
        };
        let ctx = flight::request_ctx().unwrap_or_default();
        let record = flight::QueryRecord {
            id,
            query: ir.text.clone(),
            source: ir.source.to_string(),
            query_fingerprint: ir.fingerprint,
            tree_fingerprint: self.tree_fingerprint(),
            strategy: chosen.strategy.to_string(),
            rationale: chosen.rationale.clone(),
            parallel_rationale: chosen.parallel_rationale.clone(),
            workers: chosen.workers as u64,
            cache_hit,
            wall_ns,
            rows,
            error: result.as_ref().err().map(|e| e.to_string()),
            quiesce_retries: counters.quiesce_retries,
            torn: counters.torn,
            spans: captured.spans,
            dropped_spans: 0,
            tenant: ctx.tenant,
            trace_id: ctx.trace_id,
            admission_wait_ns: ctx.admission_wait_ns,
            resp_bytes: 0,
        };
        let threshold_ns = self
            .config
            .planner
            .slow_query_ms
            .map(|ms| ms.saturating_mul(1_000_000))
            .or_else(flight::slow_threshold_ns);
        let detail = match threshold_ns {
            Some(t) if wall_ns >= t => Some(self.slow_detail(&record, chosen, &result, counters)),
            _ => None,
        };
        flight::submit(record, detail);
        result
    }

    /// The slow-query log material for one captured record: a full
    /// `EXPLAIN ANALYZE` rendering rebuilt from the record's spans, and a
    /// re-runnable reproducer (tree fingerprint + query source).
    fn slow_detail(
        &self,
        record: &treequery_obs::flight::QueryRecord,
        chosen: &ExplainedPlan,
        result: &Result<QueryOutput, EngineError>,
        counters: MetricsSnapshot,
    ) -> treequery_obs::flight::SlowDetail {
        let explain = match result {
            Ok(output) => {
                let summaries = treequery_obs::summarize_spans(&record.spans);
                plan::analyze::assemble(
                    record.query.clone(),
                    chosen.clone(),
                    record.wall_ns,
                    output.clone(),
                    &summaries,
                    &[],
                    counters,
                )
                .render()
            }
            Err(e) => format!("query failed: {e}"),
        };
        let reproducer = format!(
            "-- treequery slow-query reproducer (query #{id})\n\
             -- tree_fingerprint: 0x{fp:016x} ({nodes} nodes)\n\
             -- source: {source}; rerun with a structurally identical tree:\n\
             --   Engine::new(&tree).eval(&Query::{ctor}({text:?}))\n\
             {text}\n",
            id = record.id,
            fp = record.tree_fingerprint,
            nodes = self.stats().nodes,
            source = record.source,
            ctor = match record.source.as_str() {
                "cq" => "cq",
                "datalog" => "datalog",
                _ => "xpath",
            },
            text = record.query,
        );
        treequery_obs::flight::SlowDetail {
            explain,
            reproducer,
        }
    }

    /// The Chrome Trace Event JSON of the most recently flight-recorded
    /// query (`{"traceEvents": [...]}`, loadable in Perfetto and
    /// `chrome://tracing`). `None` when the flight recorder is off or has
    /// recorded nothing yet. Note the flight ring is process-global: the
    /// latest record may come from another engine.
    pub fn trace_last_query(&self) -> Option<treequery_obs::Json> {
        let record = treequery_obs::flight::latest()?;
        Some(treequery_obs::traceexport::chrome_trace(&[record]))
    }

    /// Evaluates many queries over the one tree on the shared worker
    /// pool.
    ///
    /// Results come back in input order, each independently fallible. The
    /// parallelism is [`EngineConfig::batch_threads`] (default:
    /// [`plan::default_workers`], capped by the batch size); workers share
    /// the plan cache and metrics, and the threads themselves are the
    /// persistent process-wide [`plan::WorkerPool`] — no per-call thread
    /// spawning.
    pub fn eval_batch(&self, queries: &[Query]) -> Vec<Result<QueryOutput, EngineError>> {
        plan::Metrics::add_batch(&self.metrics, queries.len() as u64);
        if queries.is_empty() {
            return Vec::new();
        }
        let threads = self
            .config
            .batch_threads
            .unwrap_or_else(plan::default_workers)
            .clamp(1, queries.len());
        if threads == 1 {
            return queries.iter().map(|q| self.eval(q)).collect();
        }
        let tasks: Vec<Box<dyn FnOnce() -> Result<QueryOutput, EngineError> + Send + '_>> = queries
            .iter()
            .map(|q| {
                Box::new(move || self.eval(q))
                    as Box<dyn FnOnce() -> Result<QueryOutput, EngineError> + Send + '_>
            })
            .collect();
        let mut span = treequery_obs::span("pipeline.batch_merge");
        let results = plan::WorkerPool::global().run_scoped(threads, tasks);
        span.record_u64("results", results.len() as u64);
        results
    }

    /// Evaluates a Core XPath query (from the virtual document node),
    /// returning the selected nodes in document order. Thin shim over the
    /// pipeline: the planner picks between the set-at-a-time sweep and
    /// the acyclic-CQ route.
    pub fn xpath(&self, query: &str) -> Result<Vec<NodeId>, EngineError> {
        match self.eval(&Query::xpath(query))? {
            QueryOutput::Nodes(v) => Ok(v),
            QueryOutput::Answer(_) => unreachable!("XPath evaluates to a node set"),
        }
    }

    /// Evaluates a conjunctive query (textual syntax; see
    /// [`cq::parse_cq`]), choosing the technique via the planner.
    pub fn cq(&self, query: &str) -> Result<CqAnswer, EngineError> {
        match self.eval(&Query::cq(query))? {
            QueryOutput::Answer(a) => Ok(a),
            QueryOutput::Nodes(_) => unreachable!("CQs evaluate to tuple answers"),
        }
    }

    /// Evaluates a monadic datalog program (textual syntax; see
    /// [`datalog::parse_program`]): the extension of its query predicate,
    /// in document order.
    pub fn datalog(&self, program: &str) -> Result<Vec<NodeId>, EngineError> {
        match self.eval(&Query::datalog(program))? {
            QueryOutput::Nodes(v) => Ok(v),
            QueryOutput::Answer(_) => unreachable!("datalog evaluates to a node set"),
        }
    }

    /// Streams the tree's events through a compiled selecting evaluator:
    /// the selected nodes in document order, plus buffering statistics
    /// (see `streaming::select_events`).
    pub fn stream_select(
        &self,
        query: &str,
    ) -> Result<(Vec<NodeId>, streaming::SelectStats), EngineError> {
        let filter = self.stream_filter(query)?;
        Ok(streaming::select_tree(&filter, self.tree))
    }

    /// Compiles an XPath query for stream filtering, eliminating backward
    /// axes if necessary (the `streaming::compile_with_rewrite` seam).
    pub fn stream_filter(&self, query: &str) -> Result<streaming::FilterQuery, EngineError> {
        let path = xpath::parse_xpath(query).map_err(EngineError::XPath)?;
        let (filter, _rewritten) = streaming::compile_with_rewrite(&path)
            .map_err(|e| EngineError::NotStreamable(e.to_string()))?;
        Ok(filter)
    }
}

thread_local! {
    /// This thread's last plan-cache lookup — `(query fingerprint, hit)` —
    /// taken by the flight record of the run that follows it.
    static LAST_LOOKUP: std::cell::Cell<Option<(u64, bool)>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` inside a [`treequery_obs::capture`] and times it: the run
/// `EXPLAIN ANALYZE` reports and the flight recorder records.
fn captured_run<T>(f: impl FnOnce() -> T) -> (T, treequery_obs::Captured, u64) {
    let started = std::time::Instant::now();
    let (out, captured) = treequery_obs::capture(f);
    (out, captured, started.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_fixture() -> Tree {
        parse_term("r(a(b(c) b) a(c(b)) b(a))").unwrap()
    }

    /// Runs `query` with a forced strategy and worker count.
    fn forced(e: &Engine<'_>, query: &Query, s: Strategy, workers: usize) -> QueryOutput {
        let ir = e.lower(query).unwrap();
        e.run(&ir, &ExplainedPlan::forced(&ir, s, workers)).unwrap()
    }

    #[test]
    fn xpath_strategies_agree() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        for q in ["//a[b]/c", "//b[not(c)]", "//a/following-sibling::b"] {
            let base = e.eval(&Query::xpath(q)).unwrap();
            for s in [Strategy::XPathReference, Strategy::XPathViaDatalog] {
                assert_eq!(forced(&e, &Query::xpath(q), s, 1), base, "{q} via {s}");
            }
        }
        // Conjunctive-only route.
        let q = Query::xpath("//a[b]/c");
        assert_eq!(
            forced(&e, &q, Strategy::XPathViaAcyclicCq, 1),
            e.eval(&q).unwrap()
        );
        // A non-conjunctive query does not offer the CQ route.
        let ir = e.lower(&Query::xpath("//a[not(b)]")).unwrap();
        assert!(!applicable_strategies(&ir).contains(&Strategy::XPathViaAcyclicCq));
    }

    #[test]
    fn applicable_strategies_cover_the_planner_choice() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        for q in [
            Query::xpath("//a[b]/c"),
            Query::xpath("//a[not(b)]"),
            Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
            Query::cq("child+(x, y), child+(y, z), child+(x, z)"),
            Query::cq("q(x, y) :- child(z, x), child(z, y), pre_lt(x, y)."),
            Query::datalog("P(x) :- label(x, a). ?- P."),
        ] {
            let ir = e.lower(&q).unwrap();
            let all = plan::applicable_strategies(&ir);
            let chosen = e.explain(&q).unwrap().strategy;
            assert!(all.contains(&chosen), "{q:?}: {chosen} not in {all:?}");
        }
    }

    #[test]
    fn forced_plans_agree_across_strategies_and_workers() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        for q in [
            Query::xpath("//a[b]/c"),
            Query::xpath("//a[not(b)] | //c"),
            Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
            Query::cq("child+(x, y), child+(y, z), child+(x, z)"),
            Query::datalog("P(x) :- label(x, b). ?- P."),
        ] {
            let ir = e.lower(&q).unwrap();
            let base = e.eval(&q).unwrap();
            for s in plan::applicable_strategies(&ir) {
                for workers in [1, 4] {
                    let got = forced(&e, &q, s, workers);
                    match (&got, &base) {
                        (QueryOutput::Nodes(g), QueryOutput::Nodes(b)) => {
                            assert_eq!(g, b, "{q:?} via {s} x{workers}")
                        }
                        (QueryOutput::Answer(g), QueryOutput::Answer(b)) => {
                            // Arc-consistency answers only the Boolean
                            // question; everything else must match on
                            // tuples.
                            if matches!(s, Strategy::CqXProperty(_)) {
                                assert_eq!(
                                    g.is_satisfiable(),
                                    b.is_satisfiable(),
                                    "{q:?} via {s} x{workers}"
                                );
                            } else {
                                assert_eq!(g.tuples, b.tuples, "{q:?} via {s} x{workers}");
                            }
                        }
                        _ => panic!("{q:?} via {s}: output kind changed"),
                    }
                }
            }
        }
    }

    #[test]
    fn planner_routes_each_cq_class() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        let strategy = |q: &str| e.explain(&Query::cq(q)).unwrap().strategy;
        // Acyclic.
        let q = "q(x) :- label(x, a), child(x, y), label(y, b).";
        assert_eq!(strategy(q), Strategy::CqAcyclic);
        assert!(e.cq(q).unwrap().is_satisfiable());
        // Cyclic but τ1: X-property.
        let q = "child+(x, y), child+(y, z), child+(x, z)";
        assert_eq!(strategy(q), Strategy::CqXProperty(Order::Pre));
        assert!(e.cq(q).unwrap().is_satisfiable());
        // Cyclic, NP-hard signature, non-Boolean: rewrite.
        assert!(matches!(
            strategy("q(z) :- child(x, y), child+(y, z), child+(x, z), label(x, r)."),
            Strategy::CqRewriteUnion(_)
        ));
        // With <pre: backtracking.
        assert_eq!(
            strategy("q(x, y) :- child(z, x), child(z, y), pre_lt(x, y)."),
            Strategy::CqBacktrack
        );
    }

    #[test]
    fn planned_cqs_agree_with_backtracking() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        for qs in [
            "q(x) :- label(x, a), child(x, y), label(y, b).",
            "child+(x, y), child+(y, z), child+(x, z)",
            "q(z) :- child(x, y), child+(y, z), child+(x, z), label(x, r).",
        ] {
            let q = cq::parse_cq(qs).unwrap();
            let fast = e.cq(qs).unwrap();
            let slow = cq::eval_backtrack(&q, &t);
            if q.is_boolean() {
                assert_eq!(fast.is_satisfiable(), !slow.is_empty(), "{qs}");
            } else {
                assert_eq!(fast.tuples, slow, "{qs}");
            }
        }
    }

    #[test]
    fn datalog_entry_point() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        let nodes = e
            .datalog(
                "P0(x) :- label(x, c).
                 P0(x0) :- nextsibling(x0, x), P0(x).
                 P(x0) :- firstchild(x0, x), P0(x).
                 P0(x) :- P(x).
                 ?- P.",
            )
            .unwrap();
        // Nodes with a c-descendant.
        for v in t.nodes() {
            let expect = t
                .nodes()
                .any(|u| t.is_ancestor(v, u) && t.label_name(u) == "c");
            assert_eq!(nodes.contains(&v), expect, "{v:?}");
        }
    }

    #[test]
    fn stream_select_agrees_with_xpath() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        for q in ["//a[b]/c", "//b", "//a[not(b)]"] {
            let (got, _) = e.stream_select(q).unwrap();
            assert_eq!(got, e.xpath(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn stream_filter_with_rewriting() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        let f = e.stream_filter("//b/parent::a").unwrap();
        let (matched, _) = streaming::matches_tree(&f, &t);
        assert!(matched);
        assert!(e.stream_filter("//a[following::b]").is_err());
    }

    #[test]
    fn errors_are_reported() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        assert!(matches!(e.xpath("//["), Err(EngineError::XPath(_))));
        assert!(matches!(e.cq("frob(x, y, z)"), Err(EngineError::Cq(_))));
        assert!(matches!(e.datalog("P(x) :-"), Err(EngineError::Datalog(_))));
    }

    #[test]
    fn explain_covers_all_three_front_ends() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        let x = e.explain(&Query::xpath("//a[b]")).unwrap();
        assert_eq!(x.source, SourceLang::XPath);
        assert!(!x.rationale.is_empty());
        let c = e.explain(&Query::cq("q(x) :- label(x, a).")).unwrap();
        assert_eq!(c.source, SourceLang::Cq);
        let d = e
            .explain(&Query::datalog("P(x) :- label(x, a). ?- P."))
            .unwrap();
        assert_eq!(d.source, SourceLang::Datalog);
        assert_eq!(d.strategy, Strategy::DatalogGround);
    }

    #[test]
    fn plan_cache_and_metrics_observe_the_pipeline() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        e.xpath("//a[b]").unwrap();
        e.xpath("//a[b]").unwrap();
        // Equivalent normalized form → same cache entry.
        e.xpath("descendant::a[child::b]").unwrap();
        let m = e.metrics();
        assert_eq!(m.queries_lowered, 3);
        assert_eq!(m.queries_executed, 3);
        assert_eq!(m.plan_cache_misses, 1);
        assert_eq!(m.plan_cache_hits, 2);
        assert_eq!(e.cached_plans(), 1);
        // A forced plan runs without a lookup.
        let ir = e.lower(&Query::xpath("//a[b]")).unwrap();
        e.run(
            &ir,
            &ExplainedPlan::forced(&ir, Strategy::XPathReference, 1),
        )
        .unwrap();
        let m = e.metrics();
        assert_eq!(m.queries_executed, 4);
        assert_eq!(m.plan_cache_hits + m.plan_cache_misses, 3);
        e.reset_metrics();
        assert_eq!(e.metrics(), MetricsSnapshot::default());
    }

    #[test]
    fn explain_analyze_merges_rationale_with_measurements() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        let a = e
            .explain_analyze(&Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."))
            .unwrap();
        // Planner rationale is carried through…
        assert_eq!(a.plan.strategy, Strategy::CqAcyclic);
        assert!(!a.plan.rationale.is_empty());
        // …alongside a consistent single-run counter delta…
        assert_eq!(a.counters.queries_lowered, 1);
        assert_eq!(a.counters.queries_executed, 1);
        assert_eq!(a.counters.semijoin_passes, 6, "2 passes per atom");
        // …and measured stages with their structured fields.
        let names: Vec<&str> = a.stages.iter().map(|s| s.name).collect();
        for expected in ["pipeline.lower", "exec.run", "exec.semijoin", "cq.reduce"] {
            assert!(
                names.contains(&expected),
                "missing stage {expected}: {names:?}"
            );
        }
        let semijoin = a.stages.iter().find(|s| s.name == "exec.semijoin").unwrap();
        assert_eq!(semijoin.calls, 1);
        assert!(semijoin.fields.contains(&("passes", 6)));
        assert_eq!(a.output_rows, 1);
        assert_eq!(a.output.answer().unwrap().tuples.len(), 1);
        // The renderer shows the plan and every measured stage.
        let text = a.render();
        assert!(text.contains("EXPLAIN ANALYZE [cq]"), "{text}");
        assert!(text.contains("cq/acyclic"), "{text}");
        assert!(text.contains("exec.semijoin"), "{text}");
        assert!(text.contains("semijoin_passes=6"), "{text}");
        // The JSON form parses back.
        let v = treequery_obs::parse_json(&a.to_json().render()).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("semijoin_passes")
                .unwrap()
                .as_u64(),
            Some(6)
        );
        // No capture is left open after the call.
        assert!(!treequery_obs::span("test.after").is_recording());
    }

    #[test]
    fn explain_analyze_observes_the_plan_cache() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        let first = e.explain_analyze(&Query::xpath("//a[b]")).unwrap();
        assert_eq!(first.counters.plan_cache_misses, 1);
        assert_eq!(first.counters.plan_cache_hits, 0);
        assert_eq!(first.counters.plans_computed, 1);
        let second = e.explain_analyze(&Query::xpath("//a[b]")).unwrap();
        assert_eq!(second.counters.plan_cache_misses, 0);
        assert_eq!(second.counters.plan_cache_hits, 1);
        assert_eq!(second.counters.plans_computed, 0);
        // Equivalent normalized spelling still hits…
        let alias = e
            .explain_analyze(&Query::xpath("descendant::a[child::b]"))
            .unwrap();
        assert_eq!(alias.counters.plan_cache_hits, 1);
        // …while a fingerprint-distinct query misses again.
        let other = e.explain_analyze(&Query::xpath("//b")).unwrap();
        assert_eq!(other.counters.plan_cache_misses, 1);
        assert_eq!(e.cached_plans(), 2);
        // Cache-lookup spans carry the hit flag via the stage list.
        let lookup = second
            .stages
            .iter()
            .find(|s| s.name == "pipeline.cache_lookup")
            .unwrap();
        assert_eq!(lookup.calls, 1);
    }

    #[test]
    fn quiesced_snapshot_matches_plain_snapshot_at_rest() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        e.xpath("//a").unwrap();
        e.cq("q(x) :- label(x, a).").unwrap();
        // At rest the quiesced read and the plain read must agree.
        assert_eq!(e.metrics.snapshot_quiesced(), e.metrics());
    }

    #[test]
    fn eval_batch_matches_sequential() {
        let t = engine_fixture();
        let e = Engine::new(&t);
        let queries: Vec<Query> = vec![
            Query::xpath("//a[b]/c"),
            Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
            Query::datalog("P(x) :- label(x, b). ?- P."),
            Query::xpath("//["), // parse error rides along
            Query::xpath("//b"),
        ];
        let batch = e.eval_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            match (&batch[i], e.eval(q)) {
                (Ok(b), Ok(s)) => assert_eq!(*b, s, "query {i}"),
                (Err(_), Err(_)) => {}
                (b, s) => panic!("query {i}: batch {b:?} vs sequential {s:?}"),
            }
        }
        assert_eq!(e.metrics().batch_queries, queries.len() as u64);
    }

    #[test]
    fn eval_batch_handles_empty_batches_and_oversized_pools() {
        let t = engine_fixture();
        let e = Engine::with_config(
            &t,
            EngineConfig {
                // More threads than queries: the pool clamps to the batch.
                batch_threads: Some(8),
                ..EngineConfig::default()
            },
        );
        assert!(e.eval_batch(&[]).is_empty());
        assert_eq!(e.metrics().batch_queries, 0);
        let queries = vec![
            Query::xpath("//a"),
            Query::xpath("//b"),
            Query::cq("q(x) :- label(x, a)."),
        ];
        let batch = e.eval_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batch[i].as_ref().unwrap(), &e.eval(q).unwrap(), "query {i}");
        }
        assert_eq!(e.metrics().batch_queries, queries.len() as u64);
    }
}
