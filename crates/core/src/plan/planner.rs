//! The statistics-driven planner: Figure 7's complexity landscape as
//! executable policy.
//!
//! Given a lowered [`QueryIr`] and the [`TreeStats`] of the target tree,
//! [`plan_ir`] picks an execution [`Strategy`] and explains itself: the
//! returned [`ExplainedPlan`] carries the strategy, its asymptotic
//! [`CostClass`], a concrete work estimate in node-touch units, and a
//! human-readable rationale. The dichotomy (Theorem 6.8), acyclicity
//! (GYO), and rewritability (Theorem 5.1) bound which strategies are
//! *correct*; the statistics decide which of the correct ones is
//! *cheapest*.

use treequery_cq as cq;
use treequery_tree::Order;

use super::ir::{IrFeatures, QueryIr, SourceLang};
use super::pool::default_workers;
use super::stats::TreeStats;

/// An execution strategy across all three front-ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// XPath: the set-at-a-time evaluator (`O(|D| · |Q|)`).
    XPathSetAtATime,
    /// XPath: the literal (P1)–(P4)/(Q1)–(Q5) reference semantics
    /// (oracle; never chosen by the planner).
    XPathReference,
    /// XPath: translate to monadic datalog, ground, run Minoux
    /// (Theorem 3.2 route; never chosen by the planner — same asymptotics
    /// as set-at-a-time with a larger constant).
    XPathViaDatalog,
    /// XPath: lower the conjunctive fragment to an acyclic CQ and run the
    /// full reducer (Proposition 4.2); wins when a rare label makes the
    /// candidate sets small.
    XPathViaAcyclicCq,
    /// CQ: acyclic — Yannakakis' full reducer + backtrack-free
    /// enumeration (`O(|Q| · ||A|| + output)`).
    CqAcyclic,
    /// CQ: cyclic Boolean query inside the X-property class —
    /// arc-consistency + minimum valuation w.r.t. the certified order
    /// (Theorem 6.5).
    CqXProperty(Order),
    /// CQ: rewritten into an equivalent union of this many acyclic
    /// queries (Theorem 5.1).
    CqRewriteUnion(usize),
    /// CQ: exponential backtracking (NP-hard shape, or a tree so small
    /// that brute force is estimated cheaper than a large rewrite union).
    CqBacktrack,
    /// Datalog: ground over the tree + Minoux (Theorem 3.2,
    /// `O(|P| · |Dom|)`).
    DatalogGround,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::XPathSetAtATime => f.write_str("xpath/set-at-a-time"),
            Strategy::XPathReference => f.write_str("xpath/reference"),
            Strategy::XPathViaDatalog => f.write_str("xpath/via-datalog"),
            Strategy::XPathViaAcyclicCq => f.write_str("xpath/via-acyclic-cq"),
            Strategy::CqAcyclic => f.write_str("cq/acyclic"),
            Strategy::CqXProperty(o) => write!(f, "cq/x-property({o:?})"),
            Strategy::CqRewriteUnion(k) => write!(f, "cq/rewrite-union({k})"),
            Strategy::CqBacktrack => f.write_str("cq/backtrack"),
            Strategy::DatalogGround => f.write_str("datalog/ground+minoux"),
        }
    }
}

/// The asymptotic cost band of a chosen strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// `O(|D| · |Q|)` combined.
    Linear,
    /// `O(|D| · |Q| + |output|)`.
    OutputSensitive,
    /// Polynomial, superlinear (AC fixpoints, unions of acyclic parts).
    Polynomial,
    /// Exponential in the query (backtracking).
    Exponential,
}

impl std::fmt::Display for CostClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CostClass::Linear => "O(|D|·|Q|)",
            CostClass::OutputSensitive => "O(|D|·|Q| + out)",
            CostClass::Polynomial => "poly",
            CostClass::Exponential => "exp",
        })
    }
}

/// A chosen strategy with its justification — what `Engine::explain`
/// returns and what the plan cache stores.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainedPlan {
    /// The originating front-end.
    pub source: SourceLang,
    /// The chosen strategy.
    pub strategy: Strategy,
    /// Its asymptotic band.
    pub cost: CostClass,
    /// Estimated work in node-touch units (saturating).
    pub estimated_work: u64,
    /// Why this strategy: the structural facts and statistics that
    /// decided it.
    pub rationale: String,
    /// Worker threads the executor may use for this plan's kernels
    /// (1 = sequential).
    pub workers: usize,
    /// Why that degree of parallelism (or why sequential).
    pub parallel_rationale: String,
    /// The query fingerprint (cache-key half, from the IR).
    pub query_fingerprint: u64,
}

impl ExplainedPlan {
    /// A plan that runs `strategy` on `workers` threads (at least one),
    /// bypassing both the planner and the parallelism policy — what a
    /// caller hands [`Engine::run`](crate::Engine::run) to force a route.
    /// The differential fuzzer and the benchmark suite pin strategies this
    /// way.
    ///
    /// The strategy must be in [`applicable_strategies`] for the IR;
    /// running an inapplicable one (e.g. the acyclic-CQ route without a
    /// Proposition 4.2 lowering, or arc-consistency on a non-tractable
    /// query) panics in the executor. Note [`Strategy::CqXProperty`]
    /// answers only the Boolean question — its tuple set is `{()}` or `{}`
    /// even for queries with a head.
    pub fn forced(ir: &QueryIr, strategy: Strategy, workers: usize) -> ExplainedPlan {
        let workers = workers.max(1);
        ExplainedPlan {
            source: ir.source,
            strategy,
            cost: CostClass::Linear,
            estimated_work: 0,
            rationale: format!("forced by caller: {strategy}"),
            workers,
            parallel_rationale: format!("forced by caller: {workers} workers"),
            query_fingerprint: ir.fingerprint,
        }
    }

    /// Fills in the parallelism half of the plan: how many workers the
    /// executor may use and why. Strategies without a partitionable
    /// kernel, trees below [`PlannerConfig::parallel_threshold`], and
    /// single-worker configurations all stay sequential; otherwise the
    /// plan is granted the configured (or machine-default) worker count.
    /// Parallel execution is byte-identical to sequential — this decision
    /// is purely about cost, never about correctness.
    pub fn decide_parallel(&mut self, stats: &TreeStats, config: &PlannerConfig) {
        let workers = config.workers.unwrap_or_else(default_workers).max(1);
        let kernel = match self.strategy {
            Strategy::XPathSetAtATime => Some("pre-order range partition of the sweeps"),
            Strategy::CqRewriteUnion(k) if k >= 2 => {
                Some("independent acyclic union parts, merged into one BTree")
            }
            _ => None,
        };
        let Some(kernel) = kernel else {
            self.workers = 1;
            self.parallel_rationale =
                format!("sequential: {} has no partitionable kernel", self.strategy);
            return;
        };
        if workers <= 1 {
            self.workers = 1;
            self.parallel_rationale = "sequential: one worker configured".to_string();
            return;
        }
        if stats.nodes < config.parallel_threshold {
            self.workers = 1;
            self.parallel_rationale = format!(
                "sequential: {} nodes is below the parallel threshold of {}",
                stats.nodes, config.parallel_threshold
            );
            return;
        }
        self.workers = workers;
        self.parallel_rationale = format!(
            "{workers} workers: {kernel}; deterministic merge keeps the output \
             byte-identical to sequential"
        );
    }
}

/// Prefer backtracking over a rewrite union only when the estimated
/// brute-force work is this many times cheaper (hysteresis so plans stay
/// stable under small estimate noise).
const BACKTRACK_MARGIN: u64 = 4;

/// Fixed setup cost charged per acyclic part of a rewrite union, in
/// node-touch units (each part compiles its own join forest and edge
/// indexes); this is what lets brute force win on trivially small trees.
const REWRITE_PART_OVERHEAD: u64 = 1024;

/// Tunables for the planner. `Default` gives the paper-faithful policy.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannerConfig {
    /// A conjunctive XPath query routes through its acyclic-CQ lowering
    /// when its rarest required label occurs at most this many times.
    /// Both evaluators are `O(|D| · |Q|)` and the sweep has the smaller
    /// constant, so the default is 0: the route fires exactly when some
    /// required label is *absent*, and the full reducer then refutes the
    /// query from empty candidate sets instead of sweeping the document.
    pub cq_route_max_label_count: usize,
    /// Worker threads parallel plans may use; `None` resolves to
    /// [`default_workers`] (the `TREEQUERY_WORKERS` env knob, else the
    /// machine's available parallelism).
    pub workers: Option<usize>,
    /// Trees with fewer nodes than this always run sequentially — chunk
    /// dispatch overhead dominates the kernels below it.
    pub parallel_threshold: usize,
    /// Per-engine slow-query threshold in milliseconds for the flight
    /// recorder's slow-query log (`0` logs every query). `None` defers
    /// to the recorder's install-time threshold (the `TREEQUERY_SLOW_MS`
    /// env knob); ignored entirely while the flight recorder is off.
    pub slow_query_ms: Option<u64>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            cq_route_max_label_count: 0,
            workers: None,
            parallel_threshold: 4096,
            slow_query_ms: None,
        }
    }
}

fn saturating_pow(base: u64, exp: usize) -> u64 {
    let mut acc = 1u64;
    for _ in 0..exp {
        acc = acc.saturating_mul(base);
        if acc == u64::MAX {
            break;
        }
    }
    acc
}

/// Every strategy that is *correct* for this IR — the set a differential
/// tester may force via [`ExplainedPlan::forced`] and expect agreeing answers
/// from. The planner's choice is always a member: the planner optimizes
/// *within* this set, it never changes semantics.
///
/// Applicability mirrors the executor's own preconditions: the acyclic-CQ
/// route needs the Proposition 4.2 lowering, the full reducer needs an
/// acyclic query graph, arc-consistency needs a certified X-property
/// order (and answers only the Boolean question), and the rewrite union
/// needs Theorem 5.1 to apply.
pub fn applicable_strategies(ir: &QueryIr) -> Vec<Strategy> {
    match &ir.features {
        IrFeatures::Path(_) => {
            let mut out = vec![
                Strategy::XPathSetAtATime,
                Strategy::XPathReference,
                Strategy::XPathViaDatalog,
            ];
            if ir.lowered_cq.is_some() {
                out.push(Strategy::XPathViaAcyclicCq);
            }
            out
        }
        IrFeatures::Cq(f) => {
            let mut out = vec![Strategy::CqBacktrack];
            if f.acyclic {
                out.push(Strategy::CqAcyclic);
            }
            if let Some(order) = f.tractable_order {
                out.push(Strategy::CqXProperty(order));
            }
            if !f.acyclic {
                let body = match &ir.body {
                    super::ir::IrBody::Cq(q) => q,
                    _ => unreachable!("CQ features imply a CQ body"),
                };
                if let Ok((parts, _)) = cq::rewrite_to_acyclic(body) {
                    out.push(Strategy::CqRewriteUnion(parts.len()));
                }
            }
            out
        }
        IrFeatures::Program(_) => vec![Strategy::DatalogGround],
    }
}

/// Plans one lowered query against one tree.
pub fn plan_ir(ir: &QueryIr, stats: &TreeStats, config: &PlannerConfig) -> ExplainedPlan {
    let mut plan = plan_strategy(ir, stats, config);
    plan.decide_parallel(stats, config);
    plan
}

fn plan_strategy(ir: &QueryIr, stats: &TreeStats, config: &PlannerConfig) -> ExplainedPlan {
    match &ir.features {
        IrFeatures::Path(f) => plan_path(ir, f, stats, config),
        IrFeatures::Cq(f) => plan_cq(ir, f, stats),
        IrFeatures::Program(f) => ExplainedPlan {
            source: SourceLang::Datalog,
            strategy: Strategy::DatalogGround,
            cost: CostClass::Linear,
            estimated_work: (f.size as u64).saturating_mul(stats.nodes as u64),
            rationale: format!(
                "monadic datalog ({} rules{}): ground over {} nodes + Minoux is \
                 O(|P|·|Dom|) (Theorem 3.2)",
                f.rules,
                if f.tmnf { ", TMNF" } else { "" },
                stats.nodes
            ),
            workers: 1,
            parallel_rationale: String::new(),
            query_fingerprint: ir.fingerprint,
        },
    }
}

fn plan_path(
    ir: &QueryIr,
    f: &treequery_xpath::PathFeatures,
    stats: &TreeStats,
    config: &PlannerConfig,
) -> ExplainedPlan {
    let n = stats.nodes as u64;
    let sweep_work = n.saturating_mul(f.size as u64);
    if let Some(q) = &ir.lowered_cq {
        // Conjunctive fragment: if a required label is rare enough (by
        // default: absent), the acyclic-CQ route decides the query from
        // statistics-sized candidate sets instead of sweeping.
        let rarest = stats
            .rarest_label_count(f.labels.iter().map(String::as_str))
            .unwrap_or(stats.nodes);
        let atoms = q.atoms.len() as u64;
        if rarest <= config.cq_route_max_label_count {
            let (label, count) = f
                .labels
                .iter()
                .map(|l| (l.as_str(), stats.label_count(l)))
                .min_by_key(|&(_, c)| c)
                .unwrap_or(("*", stats.nodes));
            let occurrence = if count == 0 {
                format!("label '{label}' does not occur in the document")
            } else {
                format!(
                    "label '{label}' occurs only {count}× in {} nodes",
                    stats.nodes
                )
            };
            return ExplainedPlan {
                source: SourceLang::XPath,
                strategy: Strategy::XPathViaAcyclicCq,
                cost: CostClass::OutputSensitive,
                estimated_work: (rarest as u64)
                    .saturating_mul(2 * atoms)
                    .saturating_add(atoms),
                rationale: format!(
                    "conjunctive Core XPath lowers to an acyclic CQ (Proposition 4.2); \
                     {occurrence}, so the full reducer decides the query from tiny \
                     candidate sets, skipping the O(|D|·|Q|) sweep"
                ),
                workers: 1,
                parallel_rationale: String::new(),
                query_fingerprint: ir.fingerprint,
            };
        }
    }
    let shape = if f.conjunctive {
        "conjunctive, but every required label is common (both routes are \
         O(|D|·|Q|) and the sweep has the smaller constant)"
    } else if f.has_negation {
        "negation blocks the CQ lowering"
    } else if f.has_disjunction || f.union_arms > 1 {
        "disjunction/union blocks the CQ lowering"
    } else {
        "general Core XPath"
    };
    ExplainedPlan {
        source: SourceLang::XPath,
        strategy: Strategy::XPathSetAtATime,
        cost: CostClass::Linear,
        estimated_work: sweep_work,
        rationale: format!(
            "{shape}; the set-at-a-time evaluator is O(|D|·|Q|) = {} node-touches \
             over {} nodes (Section 4)",
            sweep_work, stats.nodes
        ),
        workers: 1,
        parallel_rationale: String::new(),
        query_fingerprint: ir.fingerprint,
    }
}

fn plan_cq(ir: &QueryIr, f: &cq::CqFeatures, stats: &TreeStats) -> ExplainedPlan {
    let n = (stats.nodes as u64).max(1);
    let atoms = (f.atoms as u64).max(1);
    if f.acyclic {
        let rarest = stats
            .rarest_label_count(f.labels.iter().map(String::as_str))
            .unwrap_or(stats.nodes);
        return ExplainedPlan {
            source: SourceLang::Cq,
            strategy: Strategy::CqAcyclic,
            cost: CostClass::OutputSensitive,
            estimated_work: 2 * atoms * (rarest as u64).max(1).min(n),
            rationale: format!(
                "query graph is acyclic (GYO): Yannakakis full reducer + \
                 backtrack-free enumeration, O(|Q|·||A|| + output) over {} nodes",
                stats.nodes
            ),
            workers: 1,
            parallel_rationale: String::new(),
            query_fingerprint: ir.fingerprint,
        };
    }
    if let Some(order) = f.tractable_order {
        return ExplainedPlan {
            source: SourceLang::Cq,
            strategy: Strategy::CqXProperty(order),
            cost: CostClass::Polynomial,
            estimated_work: atoms.saturating_mul(n).saturating_mul(4),
            rationale: format!(
                "cyclic Boolean query whose axes all have the X-underbar property \
                 w.r.t. {order:?} order (Theorem 6.8): arc-consistency + minimum \
                 valuation decides it in polynomial time (Theorem 6.5)"
            ),
            workers: 1,
            parallel_rationale: String::new(),
            query_fingerprint: ir.fingerprint,
        };
    }
    let backtrack_work = saturating_pow(n, f.vars).saturating_mul(atoms);
    let cq::CqFeatures { vars, .. } = f;
    let body = match &ir.body {
        super::ir::IrBody::Cq(q) => q,
        _ => unreachable!("CQ features imply a CQ body"),
    };
    match cq::rewrite_to_acyclic(body) {
        Ok((parts, _)) => {
            let k = parts.len();
            let rewrite_work = (k as u64).saturating_mul(
                REWRITE_PART_OVERHEAD.saturating_add((2 * atoms).saturating_mul(n)),
            );
            if backtrack_work.saturating_mul(BACKTRACK_MARGIN) < rewrite_work {
                ExplainedPlan {
                    source: SourceLang::Cq,
                    strategy: Strategy::CqBacktrack,
                    cost: CostClass::Exponential,
                    estimated_work: backtrack_work,
                    rationale: format!(
                        "rewritable into {k} acyclic parts (Theorem 5.1), but the tree \
                         is small ({} nodes, {vars} variables): brute force ≈{} \
                         node-touches undercuts the union's ≈{}",
                        stats.nodes, backtrack_work, rewrite_work
                    ),
                    workers: 1,
                    parallel_rationale: String::new(),
                    query_fingerprint: ir.fingerprint,
                }
            } else {
                ExplainedPlan {
                    source: SourceLang::Cq,
                    strategy: Strategy::CqRewriteUnion(k),
                    cost: CostClass::Polynomial,
                    estimated_work: rewrite_work,
                    rationale: format!(
                        "cyclic, outside the tractable Boolean class: rewritten into \
                         an equivalent union of {k} acyclic queries (Theorem 5.1), \
                         each evaluated with the full reducer over {} nodes",
                        stats.nodes
                    ),
                    workers: 1,
                    parallel_rationale: String::new(),
                    query_fingerprint: ir.fingerprint,
                }
            }
        }
        Err(_) => ExplainedPlan {
            source: SourceLang::Cq,
            strategy: Strategy::CqBacktrack,
            cost: CostClass::Exponential,
            estimated_work: backtrack_work,
            rationale: format!(
                "cyclic with `<pre`/order atoms: outside Theorem 5.1's rewritable \
                 class and Theorem 6.8's tractable class — exponential backtracking \
                 over {} nodes, {vars} variables",
                stats.nodes
            ),
            workers: 1,
            parallel_rationale: String::new(),
            query_fingerprint: ir.fingerprint,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::{lower, Query};
    use treequery_tree::parse_term;

    fn plan_text(q: Query, term: &str) -> ExplainedPlan {
        let t = parse_term(term).unwrap();
        let stats = TreeStats::compute(&t);
        plan_ir(&lower(&q).unwrap(), &stats, &PlannerConfig::default())
    }

    #[test]
    fn absent_label_routes_xpath_through_the_cq_lowering() {
        // 'z' never occurs → the reducer refutes without a sweep.
        let p = plan_text(Query::xpath("//a[z]"), "r(a(b) a(b) a(c))");
        assert_eq!(p.strategy, Strategy::XPathViaAcyclicCq);
        assert_eq!(p.cost, CostClass::OutputSensitive);
        assert!(p.rationale.contains("'z'"), "{}", p.rationale);
        assert!(p.rationale.contains("does not occur"), "{}", p.rationale);
    }

    #[test]
    fn common_labels_stay_on_the_sweep() {
        let p = plan_text(Query::xpath("//a[b]"), "r(a(b) a(b) a(c))");
        assert_eq!(p.strategy, Strategy::XPathSetAtATime);
    }

    #[test]
    fn raising_the_label_threshold_enables_the_cq_route() {
        let t = parse_term("r(a(b) a(b) a(b) a(c))").unwrap();
        let stats = TreeStats::compute(&t);
        let ir = lower(&Query::xpath("//a[c]")).unwrap();
        let config = PlannerConfig {
            cq_route_max_label_count: 4,
            ..PlannerConfig::default()
        };
        let p = plan_ir(&ir, &stats, &config);
        assert_eq!(p.strategy, Strategy::XPathViaAcyclicCq);
        assert!(p.rationale.contains("occurs only 1×"), "{}", p.rationale);
    }

    #[test]
    fn unselective_query_stays_on_the_sweep() {
        let p = plan_text(Query::xpath("//a"), "r(a a a)");
        assert_eq!(p.strategy, Strategy::XPathSetAtATime);
        assert_eq!(p.cost, CostClass::Linear);
    }

    #[test]
    fn negation_blocks_the_cq_route() {
        let p = plan_text(Query::xpath("//a[not(b)]"), "r(a(c) a(b))");
        assert_eq!(p.strategy, Strategy::XPathSetAtATime);
        assert!(p.rationale.contains("negation"), "{}", p.rationale);
    }

    #[test]
    fn cq_strategies_follow_the_dichotomy() {
        let acyclic = plan_text(
            Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
            "r(a(b))",
        );
        assert_eq!(acyclic.strategy, Strategy::CqAcyclic);

        let xprop = plan_text(
            Query::cq("child+(x, y), child+(y, z), child+(x, z)"),
            "r(a(b(c)))",
        );
        assert_eq!(xprop.strategy, Strategy::CqXProperty(Order::Pre));
        assert_eq!(xprop.cost, CostClass::Polynomial);

        let hard = plan_text(
            Query::cq("q(x, y) :- child(z, x), child(z, y), pre_lt(x, y)."),
            "r(a b)",
        );
        assert_eq!(hard.strategy, Strategy::CqBacktrack);
        assert_eq!(hard.cost, CostClass::Exponential);
    }

    #[test]
    fn rewrite_vs_backtrack_is_a_statistics_decision() {
        // Diamond of descendant atoms: cyclic, rewritable into 3 parts.
        let q = "q(x) :- child+(x, y), child+(x, z), child+(y, w), child+(z, w).";
        // On a tiny tree brute force undercuts the union's setup cost.
        let tiny = plan_text(Query::cq(q), "r(a(b))");
        assert_eq!(tiny.strategy, Strategy::CqBacktrack, "{}", tiny.rationale);
        // On a bigger tree the polynomial union wins.
        let big_term = format!("r({})", "a(b(c(d)) b) ".repeat(40));
        let big = plan_text(Query::cq(q), &big_term);
        assert!(
            matches!(big.strategy, Strategy::CqRewriteUnion(_)),
            "{:?}: {}",
            big.strategy,
            big.rationale
        );
    }
}
