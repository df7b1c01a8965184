//! The instrumented executor: runs an [`ExplainedPlan`] against a tree,
//! counting work per pipeline stage, and hosts the plan cache keyed by
//! `(query fingerprint, tree fingerprint)`.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use treequery_cq as cq;
use treequery_obs::alloc::AllocScope;
use treequery_obs::metrics::{MetricSnapshot, MetricValue};
use treequery_tree::{NodeId, NodeSet, Tree};
use treequery_xpath as xpath;

use super::ir::{IrBody, QueryIr};
use super::par::{par_eval_via_rewrite, PoolSweeper};
use super::planner::{ExplainedPlan, Strategy};
use crate::{CqAnswer, EngineError};

/// The result of evaluating one query through the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutput {
    /// A node-set answer in document order (XPath, datalog).
    Nodes(Vec<NodeId>),
    /// A tuple answer (conjunctive queries).
    Answer(CqAnswer),
}

impl QueryOutput {
    /// The node list, when the answer is a node set.
    pub fn nodes(&self) -> Option<&[NodeId]> {
        match self {
            QueryOutput::Nodes(v) => Some(v),
            QueryOutput::Answer(_) => None,
        }
    }

    /// The tuple answer, when the query was conjunctive.
    pub fn answer(&self) -> Option<&CqAnswer> {
        match self {
            QueryOutput::Nodes(_) => None,
            QueryOutput::Answer(a) => Some(a),
        }
    }
}

/// Per-stage work counters, updated atomically so batch workers can share
/// one instance. Read with [`Metrics::snapshot`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries lowered into the IR.
    pub queries_lowered: AtomicU64,
    /// Plans computed by the planner (cache misses included).
    pub plans_computed: AtomicU64,
    /// Plan-cache hits.
    pub plan_cache_hits: AtomicU64,
    /// Plan-cache misses.
    pub plan_cache_misses: AtomicU64,
    /// Queries executed end to end.
    pub queries_executed: AtomicU64,
    /// Queries aborted by cooperative cancellation (explicit CANCEL or a
    /// passed deadline observed at a chunk boundary).
    pub queries_cancelled: AtomicU64,
    /// Queries submitted through `eval_batch`.
    pub batch_queries: AtomicU64,
    /// Semijoin passes run by full reducers (2 per atom per reduced
    /// query).
    pub semijoin_passes: AtomicU64,
    /// Total size of the reduced candidate sets (the `||A||` the
    /// output-sensitive bound charges).
    pub candidate_nodes: AtomicU64,
    /// Acyclic parts evaluated inside rewrite unions.
    pub union_parts: AtomicU64,
    /// The nominal |D|·|Q| bound of each linear sweep (set-at-a-time,
    /// datalog grounding): tree size times query or program size, added
    /// per run rather than counted node by node.
    pub nodes_swept: AtomicU64,
    /// Variable assignments attempted by the backtracking evaluator.
    pub backtrack_assignments: AtomicU64,
    /// Kernel invocations that were dispatched to the worker pool in more
    /// than one chunk (parallel sweeps and union parts).
    pub parallel_kernels: AtomicU64,
    /// Chunk tasks submitted to the worker pool by those kernels.
    pub parallel_chunks: AtomicU64,
}

/// A point-in-time copy of [`Metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Queries lowered into the IR.
    pub queries_lowered: u64,
    /// Plans computed by the planner.
    pub plans_computed: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Queries executed end to end.
    pub queries_executed: u64,
    /// Queries aborted by cooperative cancellation.
    pub queries_cancelled: u64,
    /// Queries submitted through `eval_batch`.
    pub batch_queries: u64,
    /// Semijoin passes run by full reducers.
    pub semijoin_passes: u64,
    /// Total size of the reduced candidate sets.
    pub candidate_nodes: u64,
    /// Acyclic parts evaluated inside rewrite unions.
    pub union_parts: u64,
    /// The nominal |D|·|Q| bound of the linear sweeps.
    pub nodes_swept: u64,
    /// Variable assignments attempted by the backtracking evaluator.
    pub backtrack_assignments: u64,
    /// Kernel invocations dispatched to the pool in more than one chunk.
    pub parallel_kernels: u64,
    /// Chunk tasks submitted to the worker pool.
    pub parallel_chunks: u64,
    /// Re-reads [`Metrics::snapshot_quiesced`] needed before two
    /// consecutive snapshots agreed (0 = the first re-read already
    /// matched). Non-zero means the snapshot was taken under concurrent
    /// load; the flight recorder uses it to tag degraded records.
    pub quiesce_retries: u32,
    /// Whether this snapshot may be torn: set only by
    /// [`Metrics::snapshot_quiesced`] when its bounded retry loop
    /// exhausted without two consecutive reads agreeing (sustained
    /// concurrent load). Individual counters are still exact; only
    /// cross-counter consistency is suspect.
    pub torn: bool,
}

impl Metrics {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one IR lowering.
    pub fn add_lowered(metrics: &Metrics) {
        Metrics::add(&metrics.queries_lowered, 1);
    }

    /// Records one planner invocation.
    pub fn add_planned(metrics: &Metrics) {
        Metrics::add(&metrics.plans_computed, 1);
    }

    /// Records `n` queries submitted through a batch.
    pub fn add_batch(metrics: &Metrics, n: u64) {
        Metrics::add(&metrics.batch_queries, n);
    }

    /// Adds a snapshot's counters to these: how a query-local `Metrics`
    /// (`Engine::explain_analyze` counts its run in one) joins the
    /// engine's.
    pub fn absorb(&self, s: &MetricsSnapshot) {
        for (counter, n) in [
            (&self.queries_lowered, s.queries_lowered),
            (&self.plans_computed, s.plans_computed),
            (&self.plan_cache_hits, s.plan_cache_hits),
            (&self.plan_cache_misses, s.plan_cache_misses),
            (&self.queries_executed, s.queries_executed),
            (&self.queries_cancelled, s.queries_cancelled),
            (&self.batch_queries, s.batch_queries),
            (&self.semijoin_passes, s.semijoin_passes),
            (&self.candidate_nodes, s.candidate_nodes),
            (&self.union_parts, s.union_parts),
            (&self.nodes_swept, s.nodes_swept),
            (&self.backtrack_assignments, s.backtrack_assignments),
            (&self.parallel_kernels, s.parallel_kernels),
            (&self.parallel_chunks, s.parallel_chunks),
        ] {
            Metrics::add(counter, n);
        }
    }

    /// Copies all counters.
    ///
    /// **Tearing semantics:** each counter is loaded independently with
    /// `Relaxed` ordering, so a snapshot taken while other threads are
    /// mid-query can mix values from different instants — e.g.
    /// `queries_executed` already incremented but that query's
    /// `semijoin_passes` not yet added. Every individual counter is still
    /// exact and monotone; only *cross-counter consistency* is not
    /// guaranteed under concurrency. For reports that must be internally
    /// consistent (single-query runs like `Engine::explain_analyze`), use
    /// [`Metrics::snapshot_quiesced`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            queries_lowered: get(&self.queries_lowered),
            plans_computed: get(&self.plans_computed),
            plan_cache_hits: get(&self.plan_cache_hits),
            plan_cache_misses: get(&self.plan_cache_misses),
            queries_executed: get(&self.queries_executed),
            queries_cancelled: get(&self.queries_cancelled),
            batch_queries: get(&self.batch_queries),
            semijoin_passes: get(&self.semijoin_passes),
            candidate_nodes: get(&self.candidate_nodes),
            union_parts: get(&self.union_parts),
            nodes_swept: get(&self.nodes_swept),
            backtrack_assignments: get(&self.backtrack_assignments),
            parallel_kernels: get(&self.parallel_kernels),
            parallel_chunks: get(&self.parallel_chunks),
            quiesce_retries: 0,
            torn: false,
        }
    }

    /// A snapshot that is consistent when the metrics have quiesced:
    /// re-reads until two consecutive snapshots agree (bounded retries),
    /// so a report taken after the last query finished never shows a torn
    /// mix of two queries' counters. Under *sustained* concurrent load
    /// there is no consistent instant to report; the helper then returns
    /// the last read with its `torn` flag set, so consumers (and
    /// `EXPLAIN ANALYZE`'s renderer) can say so instead of presenting a
    /// possibly-inconsistent snapshot as clean.
    pub fn snapshot_quiesced(&self) -> MetricsSnapshot {
        const ATTEMPTS: usize = 16;
        quiesce(ATTEMPTS, || self.snapshot())
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        let zero = |c: &AtomicU64| c.store(0, Ordering::Relaxed);
        zero(&self.queries_lowered);
        zero(&self.plans_computed);
        zero(&self.plan_cache_hits);
        zero(&self.plan_cache_misses);
        zero(&self.queries_executed);
        zero(&self.queries_cancelled);
        zero(&self.batch_queries);
        zero(&self.semijoin_passes);
        zero(&self.candidate_nodes);
        zero(&self.union_parts);
        zero(&self.nodes_swept);
        zero(&self.backtrack_assignments);
        zero(&self.parallel_kernels);
        zero(&self.parallel_chunks);
    }
}

impl MetricsSnapshot {
    /// The snapshot as `treequery_engine_*` counters, one per field, for
    /// a Prometheus exposition (the query service's `/metrics`).
    pub fn samples(&self) -> Vec<MetricSnapshot> {
        let rows: [(&'static str, &'static str, u64); 14] = [
            (
                "treequery_engine_queries_lowered",
                "Queries lowered into the IR.",
                self.queries_lowered,
            ),
            (
                "treequery_engine_plans_computed",
                "Plans computed by the planner.",
                self.plans_computed,
            ),
            (
                "treequery_engine_plan_cache_hits",
                "Plan-cache hits.",
                self.plan_cache_hits,
            ),
            (
                "treequery_engine_plan_cache_misses",
                "Plan-cache misses.",
                self.plan_cache_misses,
            ),
            (
                "treequery_engine_queries_executed",
                "Queries executed end to end.",
                self.queries_executed,
            ),
            (
                "treequery_engine_queries_cancelled",
                "Queries aborted by cooperative cancellation.",
                self.queries_cancelled,
            ),
            (
                "treequery_engine_batch_queries",
                "Queries submitted through eval_batch.",
                self.batch_queries,
            ),
            (
                "treequery_engine_semijoin_passes",
                "Semijoin passes run by full reducers.",
                self.semijoin_passes,
            ),
            (
                "treequery_engine_candidate_nodes",
                "Total size of the reduced candidate sets.",
                self.candidate_nodes,
            ),
            (
                "treequery_engine_union_parts",
                "Acyclic parts evaluated inside rewrite unions.",
                self.union_parts,
            ),
            (
                "treequery_engine_nodes_swept",
                "Nominal |D|*|Q| bound of the linear sweeps (tree size times query size per run).",
                self.nodes_swept,
            ),
            (
                "treequery_engine_backtrack_assignments",
                "Assignments attempted by the backtracking evaluator.",
                self.backtrack_assignments,
            ),
            (
                "treequery_engine_parallel_kernels",
                "Kernel invocations dispatched to the pool in chunks.",
                self.parallel_kernels,
            ),
            (
                "treequery_engine_parallel_chunks",
                "Chunk tasks submitted to the worker pool.",
                self.parallel_chunks,
            ),
        ];
        rows.into_iter()
            .map(|(name, help, value)| MetricSnapshot {
                name,
                help,
                value: MetricValue::Counter(value),
            })
            .collect()
    }
}

/// The bounded-retry loop behind [`Metrics::snapshot_quiesced`],
/// parameterized over the read so tests can drive it with a
/// deterministic sequence: keep re-reading until two consecutive
/// snapshots agree; on exhaustion return the last read with `torn` set.
/// Either way the returned snapshot's `quiesce_retries` reports how many
/// re-reads disagreed before settling (reads themselves always carry 0,
/// so the equality check stays untainted by the retry count).
pub(crate) fn quiesce(
    attempts: usize,
    mut read: impl FnMut() -> MetricsSnapshot,
) -> MetricsSnapshot {
    let mut prev = read();
    for retry in 0..attempts {
        let mut next = read();
        if next == prev {
            next.quiesce_retries = retry as u32;
            return next;
        }
        prev = next;
    }
    prev.quiesce_retries = attempts as u32;
    prev.torn = true;
    prev
}

/// The plan cache: `(query fingerprint, tree fingerprint)` →
/// [`ExplainedPlan`]. Both fingerprints hash *normalized* forms, so
/// syntactically different but equivalent conjunctive paths share an
/// entry, and a second `Engine` over a structurally identical tree would
/// plan identically.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: Mutex<HashMap<(u64, u64), Arc<ExplainedPlan>>>,
}

impl PlanCache {
    /// Looks up `(query_fp, tree_fp)`, computing and inserting the plan on
    /// a miss; records the hit/miss in `metrics`.
    pub fn get_or_insert(
        &self,
        query_fp: u64,
        tree_fp: u64,
        metrics: &Metrics,
        compute: impl FnOnce() -> ExplainedPlan,
    ) -> Arc<ExplainedPlan> {
        let mut map = self.map.lock().expect("plan cache poisoned");
        match map.entry((query_fp, tree_fp)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                Metrics::add(&metrics.plan_cache_hits, 1);
                Arc::clone(e.get())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                Metrics::add(&metrics.plan_cache_misses, 1);
                Arc::clone(e.insert(Arc::new(compute())))
            }
        }
    }

    /// Moves every entry keyed under `old_tree_fp` to `new_tree_fp`: the
    /// fingerprint-delta hook a mutable document calls after an edit.
    ///
    /// Plans stay *sound* across edits — a strategy's applicability
    /// depends only on the query IR, and execution always reads the live
    /// tree — so the entries are rekeyed rather than dropped; only their
    /// cost estimates age. Entries for *other* trees sharing the cache
    /// are untouched, which is the "invalidate only the affected tree"
    /// contract shared caches rely on.
    pub fn rekey_tree(&self, old_tree_fp: u64, new_tree_fp: u64) {
        if old_tree_fp == new_tree_fp {
            return;
        }
        let mut map = self.map.lock().expect("plan cache poisoned");
        let stale: Vec<u64> = map
            .keys()
            .filter(|(_, t)| *t == old_tree_fp)
            .map(|(q, _)| *q)
            .collect();
        for q in stale {
            if let Some(plan) = map.remove(&(q, old_tree_fp)) {
                map.insert((q, new_tree_fp), plan);
            }
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.lock().expect("plan cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached plans.
    pub fn clear(&self) {
        self.map.lock().expect("plan cache poisoned").clear();
    }
}

fn expect_path(ir: &QueryIr) -> &xpath::Path {
    match &ir.native {
        IrBody::Path(p) => p,
        _ => unreachable!("XPath strategy planned for a non-XPath IR"),
    }
}

/// Materializes a pooled result set as a pre-order node list and hands
/// the set's storage back to the scratch pool, so steady-state query
/// execution only allocates for the answer vector itself.
fn sorted_nodes(t: &Tree, set: NodeSet) -> Vec<NodeId> {
    let mut nodes = set.to_vec();
    treequery_tree::scratch::put_set(set);
    t.sort_by_pre(&mut nodes);
    nodes
}

/// Runs an acyclic CQ through the full reducer, charging the semijoin
/// passes and reduced candidate-set sizes to `metrics`. The semijoin
/// sweeps run through [`PoolSweeper`] at `workers`.
fn run_acyclic_instrumented(
    q: &cq::Cq,
    t: &Tree,
    metrics: &Metrics,
    workers: usize,
) -> Option<BTreeSet<Vec<NodeId>>> {
    let e = {
        let mut span = treequery_obs::span("exec.semijoin");
        let _mem = AllocScope::enter("exec.semijoin");
        let e = cq::Enumerator::with_sweeper(q, t, &PoolSweeper { workers, metrics })?;
        let passes = 2 * q.atoms.len() as u64;
        Metrics::add(&metrics.semijoin_passes, passes);
        let mut candidate_total = 0u64;
        for v in 0..q.num_vars() {
            if let Some(set) = e.candidates(cq::CqVar(v as u32)) {
                candidate_total += set.len() as u64;
            }
        }
        Metrics::add(&metrics.candidate_nodes, candidate_total);
        span.record_u64("passes", passes);
        span.record_u64("candidates", candidate_total);
        e
    };
    let mut span = treequery_obs::span("exec.enumerate");
    let _mem = AllocScope::enter("exec.enumerate");
    let tuples = e.head_tuples();
    span.record_u64("tuples", tuples.len() as u64);
    Some(tuples)
}

/// Executes a planned query. The plan must have been produced from the
/// same IR (the engine guarantees this; strategies are matched against the
/// IR body and panic on impossible combinations).
pub fn execute(
    ir: &QueryIr,
    plan: &ExplainedPlan,
    tree: &Tree,
    metrics: &Metrics,
) -> Result<QueryOutput, EngineError> {
    Metrics::add(&metrics.queries_executed, 1);
    // Entry checkpoint: an already-tripped ambient token (pre-cancelled,
    // or a deadline that passed while the query sat in an admission
    // queue) fails fast without touching a kernel.
    if let Some(reason) = treequery_tree::cancel::active_reason() {
        Metrics::add(&metrics.queries_cancelled, 1);
        return Err(EngineError::Cancelled(reason));
    }
    let result = execute_kernels(ir, plan, tree, metrics);
    // Exit checkpoint: the kernels bail out cooperatively at chunk
    // boundaries but return their partial results normally; this is
    // where a cancelled run's partials are discarded and the abort
    // becomes an error. One code path — every caller (server, fuzz
    // oracle, bench suite, batch eval) funnels through here.
    if let Some(reason) = treequery_tree::cancel::active_reason() {
        Metrics::add(&metrics.queries_cancelled, 1);
        return Err(EngineError::Cancelled(reason));
    }
    result
}

/// Strategy dispatch; see [`execute`] (which wraps this in the
/// cancellation entry/exit checkpoints).
fn execute_kernels(
    ir: &QueryIr,
    plan: &ExplainedPlan,
    tree: &Tree,
    metrics: &Metrics,
) -> Result<QueryOutput, EngineError> {
    let mut run_span = treequery_obs::span("exec.run");
    let _mem = AllocScope::enter("exec.run");
    run_span.record_str("strategy", plan.strategy);
    match plan.strategy {
        Strategy::XPathSetAtATime => {
            let p = expect_path(ir);
            let swept = (tree.len() as u64).saturating_mul(p.size() as u64);
            Metrics::add(&metrics.nodes_swept, swept);
            let mut span = treequery_obs::span("exec.sweep");
            span.record_u64("nodes", tree.len() as u64);
            span.record_u64("query_size", p.size() as u64);
            span.record_u64("nodes_swept", swept);
            // The alloc scope covers only the sweep kernel: result
            // materialization below is charged to the surrounding
            // "exec.run" scope, so "exec.sweep" attribution reflects the
            // kernel's steady-state behaviour (zero after warm-up).
            let set = {
                let _mem = AllocScope::enter("exec.sweep");
                let sweeper = PoolSweeper {
                    workers: plan.workers,
                    metrics,
                };
                xpath::eval_query_with(p, tree, &sweeper)
            };
            Ok(QueryOutput::Nodes(sorted_nodes(tree, set)))
        }
        Strategy::XPathReference => Ok(QueryOutput::Nodes(sorted_nodes(
            tree,
            xpath::eval_reference(expect_path(ir), tree),
        ))),
        Strategy::XPathViaDatalog => {
            let prog = xpath::to_datalog(expect_path(ir));
            let swept = (tree.len() as u64).saturating_mul(prog.size() as u64);
            Metrics::add(&metrics.nodes_swept, swept);
            let mut span = treequery_obs::span("exec.ground_minoux");
            span.record_u64("nodes_swept", swept);
            let set = {
                let _mem = AllocScope::enter("exec.ground_minoux");
                treequery_datalog::eval_query(&prog, tree)
            };
            Ok(QueryOutput::Nodes(sorted_nodes(tree, set)))
        }
        Strategy::XPathViaAcyclicCq => {
            let q = ir
                .lowered_cq
                .as_ref()
                .expect("planner chose the CQ route without a lowered CQ");
            let tuples = run_acyclic_instrumented(q, tree, metrics, plan.workers)
                .expect("Proposition 4.2 CQs are acyclic");
            let set = NodeSet::from_iter(tree.len(), tuples.into_iter().map(|t| t[0]));
            Ok(QueryOutput::Nodes(sorted_nodes(tree, set)))
        }
        Strategy::CqAcyclic => {
            let q = expect_cq(ir);
            let tuples =
                run_acyclic_instrumented(q, tree, metrics, plan.workers).expect("planned acyclic");
            Ok(QueryOutput::Answer(CqAnswer { tuples }))
        }
        Strategy::CqXProperty(_) => {
            let q = expect_cq(ir);
            let candidates = (tree.len() as u64).saturating_mul(q.num_vars() as u64);
            Metrics::add(&metrics.candidate_nodes, candidates);
            let mut span = treequery_obs::span("exec.arc_consistency");
            let _mem = AllocScope::enter("exec.arc_consistency");
            span.record_u64("candidates", candidates);
            let tuples = match cq::eval_x_property(q, tree).expect("planned tractable") {
                Some(_witness) => std::iter::once(Vec::new()).collect(),
                None => BTreeSet::new(),
            };
            Ok(QueryOutput::Answer(CqAnswer { tuples }))
        }
        Strategy::CqRewriteUnion(k) => {
            let q = expect_cq(ir);
            Metrics::add(&metrics.union_parts, k as u64);
            let passes = 2 * (k as u64).saturating_mul(q.atoms.len() as u64);
            Metrics::add(&metrics.semijoin_passes, passes);
            let mut span = treequery_obs::span("exec.union");
            span.record_u64("parts", k as u64);
            span.record_u64("passes", passes);
            let tuples = {
                let _mem = AllocScope::enter("exec.union");
                par_eval_via_rewrite(q, tree, plan.workers, metrics).expect("planned rewritable")
            };
            Ok(QueryOutput::Answer(CqAnswer { tuples }))
        }
        Strategy::CqBacktrack => {
            let q = expect_cq(ir);
            let mut span = treequery_obs::span("exec.backtrack");
            let _mem = AllocScope::enter("exec.backtrack");
            let (tuples, stats) = cq::eval_backtrack_with_stats(q, tree);
            Metrics::add(&metrics.backtrack_assignments, stats.assignments);
            span.record_u64("assignments", stats.assignments);
            Ok(QueryOutput::Answer(CqAnswer { tuples }))
        }
        Strategy::DatalogGround => {
            let prog = match &ir.body {
                IrBody::Program(p) => p,
                _ => unreachable!("datalog strategy planned for a non-datalog IR"),
            };
            let swept = (tree.len() as u64).saturating_mul(prog.size() as u64);
            Metrics::add(&metrics.nodes_swept, swept);
            let mut span = treequery_obs::span("exec.ground_minoux");
            span.record_u64("nodes_swept", swept);
            let set = {
                let _mem = AllocScope::enter("exec.ground_minoux");
                treequery_datalog::eval_query(prog, tree)
            };
            Ok(QueryOutput::Nodes(sorted_nodes(tree, set)))
        }
    }
}

fn expect_cq(ir: &QueryIr) -> &cq::Cq {
    match &ir.body {
        IrBody::Cq(q) => q,
        _ => unreachable!("CQ strategy planned for a non-CQ IR"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::{lower, Query};
    use crate::plan::planner::{plan_ir, PlannerConfig};
    use crate::plan::stats::TreeStats;
    use treequery_tree::parse_term;

    fn run(q: Query, term: &str) -> (QueryOutput, MetricsSnapshot) {
        let t = parse_term(term).unwrap();
        let ir = lower(&q).unwrap();
        let plan = plan_ir(&ir, &TreeStats::compute(&t), &PlannerConfig::default());
        let metrics = Metrics::default();
        let out = execute(&ir, &plan, &t, &metrics).unwrap();
        (out, metrics.snapshot())
    }

    #[test]
    fn executor_counts_sweep_work() {
        let (out, m) = run(Query::xpath("//a"), "r(a a b)");
        assert_eq!(out.nodes().map(<[_]>::len), Some(2));
        assert!(m.nodes_swept > 0);
        assert_eq!(m.queries_executed, 1);
    }

    #[test]
    fn executor_counts_semijoin_work() {
        let (out, m) = run(
            Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
            "r(a(b) a(c))",
        );
        let answer = out.answer().unwrap();
        assert_eq!(answer.tuples.len(), 1);
        assert_eq!(m.semijoin_passes, 6, "2 passes per atom");
        assert!(m.candidate_nodes > 0);
    }

    #[test]
    fn quiesce_returns_clean_when_reads_agree() {
        let metrics = Metrics::default();
        Metrics::add_lowered(&metrics);
        let snap = metrics.snapshot_quiesced();
        assert!(!snap.torn);
        assert_eq!(snap.quiesce_retries, 0);
        assert_eq!(snap.queries_lowered, 1);
    }

    #[test]
    fn quiesce_reports_retry_count_when_it_settles_late() {
        // Reads disagree twice, then stabilize: the returned snapshot is
        // clean but carries the retry count for degraded-record tagging.
        let mut n = 0u64;
        let snap = super::quiesce(8, || {
            n += 1;
            MetricsSnapshot {
                queries_executed: n.min(3),
                ..MetricsSnapshot::default()
            }
        });
        assert!(!snap.torn);
        assert_eq!(snap.queries_executed, 3);
        assert_eq!(snap.quiesce_retries, 2);
    }

    #[test]
    fn quiesce_flags_torn_on_retry_exhaustion() {
        // A read that changes every time never quiesces: the helper must
        // hand back the last read and say so.
        let mut n = 0u64;
        let snap = super::quiesce(4, || {
            n += 1;
            MetricsSnapshot {
                queries_executed: n,
                ..MetricsSnapshot::default()
            }
        });
        assert!(snap.torn);
        assert_eq!(snap.queries_executed, 5, "last of 1 initial + 4 retries");
        assert_eq!(snap.quiesce_retries, 4);
    }

    #[test]
    fn plan_cache_hits_and_misses() {
        let t = parse_term("r(a b)").unwrap();
        let ir = lower(&Query::xpath("//a")).unwrap();
        let stats = TreeStats::compute(&t);
        let cache = PlanCache::default();
        let metrics = Metrics::default();
        let mk = || plan_ir(&ir, &stats, &PlannerConfig::default());
        let first = cache.get_or_insert(ir.fingerprint, 7, &metrics, mk);
        let second = cache.get_or_insert(ir.fingerprint, 7, &metrics, mk);
        assert_eq!(*first, *second);
        let other_tree = cache.get_or_insert(ir.fingerprint, 8, &metrics, mk);
        assert_eq!(*first, *other_tree);
        let m = metrics.snapshot();
        assert_eq!(m.plan_cache_hits, 1);
        assert_eq!(m.plan_cache_misses, 2);
        assert_eq!(cache.len(), 2);
    }
}
