//! The differential executor: one input, every applicable strategy.
//!
//! A case is lowered once to the shared IR; `applicable_strategies`
//! (the planner's own notion of which strategies are *correct* for the
//! IR) gives the executor list, and each is forced — an
//! `ExplainedPlan::forced` plan handed to `Engine::run` — under every
//! configured worker count. XPath
//! cases additionally run through the streaming automaton path when the
//! query is streamable (directly or after the Section 5 forward
//! rewrite); datalog cases are cross-checked against naive evaluation
//! and the TMNF normal form. All outputs are normalized and compared
//! against the first executor; any disagreement is a [`Discrepancy`].
//!
//! For tests of the *detector itself*, a [`Corruption`] can be injected:
//! it tampers with the output of one named strategy, simulating a bug in
//! exactly one implementation, which the differential check must then
//! catch (and the shrinker must minimize).

use std::collections::BTreeSet;
use std::fmt;

use treequery_core::plan::QueryOutput;
use treequery_core::{streaming, Engine, ExplainedPlan, NodeId, QueryIr, Strategy};

use crate::{CaseQuery, FuzzCase};

/// A strategy's output in comparable form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Norm {
    /// A document-ordered node list (XPath / datalog results).
    Nodes(Vec<NodeId>),
    /// A set of result tuples (CQ results).
    Tuples(BTreeSet<Vec<NodeId>>),
    /// A Boolean verdict (Boolean CQs answered by satisfiability-only
    /// strategies such as the X-property arc-consistency check).
    Bool(bool),
}

impl Norm {
    /// Whether two normalized outputs agree. A [`Norm::Bool`] agrees
    /// with a tuple set iff the set's non-emptiness matches — the
    /// X-property strategy answers only satisfiability, which is still
    /// a meaningful cross-check against enumerating strategies.
    pub fn agrees(&self, other: &Norm) -> bool {
        match (self, other) {
            (Norm::Bool(a), Norm::Bool(b)) => a == b,
            (Norm::Bool(a), Norm::Tuples(t)) | (Norm::Tuples(t), Norm::Bool(a)) => {
                *a != t.is_empty()
            }
            (Norm::Bool(a), Norm::Nodes(n)) | (Norm::Nodes(n), Norm::Bool(a)) => *a != n.is_empty(),
            (a, b) => a == b,
        }
    }

    fn summary(&self) -> String {
        match self {
            Norm::Nodes(n) => format!("{} nodes: {:?}", n.len(), &n[..n.len().min(8)]),
            Norm::Tuples(t) => {
                let head: Vec<_> = t.iter().take(4).collect();
                format!("{} tuples: {head:?}", t.len())
            }
            Norm::Bool(b) => format!("bool: {b}"),
        }
    }
}

/// Which corrupted answer to fake, for detector self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Drop the last node/tuple from the answer (an off-by-one bug).
    DropLast,
    /// Flip a Boolean verdict.
    FlipBool,
}

/// A simulated bug: tamper with the output of one strategy.
#[derive(Clone, Copy, Debug)]
pub struct Corruption {
    /// The strategy whose output is corrupted.
    pub strategy: Strategy,
    /// How the output is corrupted.
    pub kind: CorruptionKind,
}

impl Corruption {
    fn apply(&self, n: Norm) -> Norm {
        match (self.kind, n) {
            (CorruptionKind::DropLast, Norm::Nodes(mut v)) => {
                v.pop();
                Norm::Nodes(v)
            }
            (CorruptionKind::DropLast, Norm::Tuples(mut t)) => {
                let last = t.iter().next_back().cloned();
                if let Some(last) = last {
                    t.remove(&last);
                }
                Norm::Tuples(t)
            }
            (CorruptionKind::FlipBool, Norm::Bool(b)) => Norm::Bool(!b),
            (CorruptionKind::FlipBool, Norm::Tuples(t)) => {
                // Flip the satisfiability verdict of a tuple set.
                if t.is_empty() {
                    Norm::Tuples(std::iter::once(Vec::new()).collect())
                } else {
                    Norm::Tuples(BTreeSet::new())
                }
            }
            (_, other) => other,
        }
    }
}

/// Options for a differential check.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Worker counts to force for every strategy.
    pub worker_counts: Vec<usize>,
    /// Whether to also run the streaming path on streamable XPath.
    pub check_streaming: bool,
    /// Whether to also cross-check datalog against naive evaluation and
    /// its TMNF normal form.
    pub check_datalog_variants: bool,
    /// An injected bug, for detector self-tests.
    pub corrupt: Option<Corruption>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            worker_counts: vec![1, 4],
            check_streaming: true,
            check_datalog_variants: true,
            corrupt: None,
        }
    }
}

/// A disagreement between two executors on the same input.
#[derive(Clone, Debug)]
pub struct Discrepancy {
    /// Label of the executor whose answer is taken as the reference.
    pub baseline: String,
    /// Label of the disagreeing executor.
    pub culprit: String,
    /// Human-readable summaries of the two answers.
    pub detail: String,
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} disagrees with {}: {}",
            self.culprit, self.baseline, self.detail
        )
    }
}

fn normalize(out: QueryOutput) -> Norm {
    match out {
        QueryOutput::Nodes(v) => Norm::Nodes(v),
        // Satisfiability-only strategies (the X-property check) already
        // materialize their verdict as `{()}` / `{}`, and such strategies
        // are only applicable to Boolean queries — so tuple comparison is
        // exact for every CQ strategy.
        QueryOutput::Answer(a) => Norm::Tuples(a.tuples),
    }
}

/// Runs `case` through every applicable executor and cross-checks the
/// answers. Returns the first disagreement found, or `None` when all
/// executors agree. The number of executor runs is reported through the
/// second tuple element so campaigns can count real work.
pub fn differential_check(case: &FuzzCase, opts: &DiffOptions) -> (Option<Discrepancy>, usize) {
    let ir = case.query.lower();
    let engine = Engine::new(&case.tree);
    let mut results = strategy_runs(&engine, &ir, opts, None, |n| n);

    if let CaseQuery::XPath(p) = &case.query {
        if opts.check_streaming {
            if let Ok((filter, _rewritten)) = streaming::compile_with_rewrite(p) {
                let (nodes, _stats) = streaming::select_tree(&filter, &case.tree);
                results.push(("streaming".into(), Norm::Nodes(nodes)));
            }
        }
    }

    if let CaseQuery::Datalog(prog) = &case.query {
        if opts.check_datalog_variants {
            if let Some(qp) = prog.query {
                let naive = treequery_core::datalog::eval_naive(prog, &case.tree);
                results.push((
                    "datalog-naive".into(),
                    Norm::Nodes(sorted_nodes(&case.tree, &naive[qp.index()])),
                ));
                if let Ok(tmnf) = treequery_core::datalog::to_tmnf(prog) {
                    let tm = treequery_core::datalog::eval_query(&tmnf, &case.tree);
                    results.push((
                        "datalog-tmnf".into(),
                        Norm::Nodes(sorted_nodes(&case.tree, &tm)),
                    ));
                }
            }
        }
    }

    let checks = results.len();
    let (base_label, base) = &results[0];
    for (label, norm) in &results[1..] {
        if !norm.agrees(base) {
            return (
                Some(Discrepancy {
                    baseline: base_label.clone(),
                    culprit: label.clone(),
                    detail: format!("{} vs {}", norm.summary(), base.summary()),
                }),
                checks,
            );
        }
    }
    (None, checks)
}

/// Every applicable strategy forced at every configured worker count,
/// then the planner's own (uncorrupted) choice, as one more executor:
/// labelled outputs, normalized and mapped through `coord` (the
/// coordinates the comparison uses). `step` tags the labels of the edit
/// differential's runs.
fn strategy_runs(
    engine: &Engine<'_>,
    ir: &QueryIr,
    opts: &DiffOptions,
    step: Option<usize>,
    coord: impl Fn(Norm) -> Norm,
) -> Vec<(String, Norm)> {
    let at = step.map(|s| format!(", step {s}")).unwrap_or_default();
    let mut results = Vec::new();
    for s in treequery_core::applicable_strategies(ir) {
        for &w in &opts.worker_counts {
            let out = engine
                .run(ir, &ExplainedPlan::forced(ir, s, w))
                .expect("forced applicable strategy must not fail");
            let mut norm = coord(normalize(out));
            if let Some(c) = opts.corrupt.filter(|c| c.strategy == s) {
                norm = c.apply(norm);
            }
            results.push((format!("{s} [workers={w}{at}]"), norm));
        }
    }
    let planned = engine
        .run(ir, &engine.plan(ir))
        .expect("planner evaluation must not fail");
    let label = step.map_or("planner".to_owned(), |s| format!("planner [step {s}]"));
    results.push((label, coord(normalize(planned))));
    results
}

fn sorted_nodes(t: &treequery_core::Tree, set: &treequery_core::NodeSet) -> Vec<NodeId> {
    let mut v = set.to_vec();
    t.sort_by_pre(&mut v);
    v
}

/// Maps node ids to pre-order ranks. Ids are allocation-ordered in an
/// edited document (inserts append) but pre-ordered in a from-scratch
/// rebuild, so ranks are the only coordinate in which the two sides of
/// the edit differential are comparable.
fn pre_rank_norm(t: &treequery_core::Tree, n: Norm) -> Norm {
    let rank = |v: NodeId| NodeId(t.pre(v));
    match n {
        Norm::Nodes(v) => Norm::Nodes(v.into_iter().map(rank).collect()),
        Norm::Tuples(ts) => Norm::Tuples(
            ts.into_iter()
                .map(|tup| tup.into_iter().map(rank).collect())
                .collect(),
        ),
        Norm::Bool(b) => Norm::Bool(b),
    }
}

/// Replays `case.edits` on an incrementally maintained
/// [`Document`](treequery_core::Document),
/// cross-checking after every *effective* op (ops normalized to a skip
/// are silently dropped, as everywhere else):
///
/// * every applicable strategy × worker count on the live (incrementally
///   edited, plan-cache-sharing) document, plus the planner's own choice
///   and — for datalog — the semi-naive delta pass behind
///   [`Document::watch_datalog`](treequery_core::Document::watch_datalog),
///   against a **from-scratch rebuild
///   oracle**: a cold engine over `parse_term(to_term(live_tree))`
///   (fresh arena, fresh interner, fresh plans), compared by pre rank;
/// * the document's incrementally patched tree fingerprint against a
///   full recomputation on the rebuilt tree.
///
/// A [`Corruption`] perturbs the live side's strategy outputs, so the
/// detector self-test proves disagreements after an edit are caught.
pub fn edit_differential_check(
    case: &FuzzCase,
    opts: &DiffOptions,
) -> (Option<Discrepancy>, usize) {
    use treequery_core::tree::to_term;
    use treequery_core::{parse_term, Document};

    let ir = case.query.lower();
    let mut doc = Document::new(case.tree.clone());
    let watch = match &case.query {
        CaseQuery::Datalog(p) if p.query.is_some() => {
            doc.watch_datalog(&crate::corpus::render_program(p)).ok()
        }
        _ => None,
    };
    let mut checks = 0usize;
    for (step, op) in case.edits.iter().enumerate() {
        if doc.edit(op).is_none() {
            continue;
        }

        let rebuilt = parse_term(&to_term(doc.tree())).expect("document renders a valid term");
        let oracle = Engine::new(&rebuilt);
        let base_label = format!("rebuild-oracle [step {step}]");
        let base = pre_rank_norm(
            &rebuilt,
            normalize(
                oracle
                    .run(&ir, &oracle.plan(&ir))
                    .expect("oracle evaluation must not fail"),
            ),
        );

        let live = doc.engine();
        let mut results = strategy_runs(&live, &ir, opts, Some(step), |n| {
            pre_rank_norm(doc.tree(), n)
        });
        if let Some(id) = watch {
            let ranks = doc
                .watched(id)
                .into_iter()
                .map(|v| NodeId(doc.tree().pre(v)));
            results.push((
                format!("datalog-incremental [step {step}]"),
                Norm::Nodes(ranks.collect()),
            ));
        }

        checks += results.len();
        for (label, norm) in &results {
            if !norm.agrees(&base) {
                return (
                    Some(Discrepancy {
                        baseline: base_label.clone(),
                        culprit: label.clone(),
                        detail: format!("after {op}: {} vs {}", norm.summary(), base.summary()),
                    }),
                    checks,
                );
            }
        }

        checks += 1;
        let full_fp = treequery_core::plan::tree_fingerprint(&rebuilt);
        if doc.fingerprint() != full_fp {
            return (
                Some(Discrepancy {
                    baseline: format!("fingerprint-recompute [step {step}]"),
                    culprit: format!("fingerprint-patched [step {step}]"),
                    detail: format!("after {op}: {:#x} vs {full_fp:#x}", doc.fingerprint()),
                }),
                checks,
            );
        }
    }
    (None, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_case, Category, GenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use treequery_core::parse_term;

    fn fixture() -> treequery_core::Tree {
        parse_term("r(a(b(c) b) a(c(b)) b(a))").unwrap()
    }

    #[test]
    fn generated_inputs_agree_across_strategies() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(1234);
        let opts = DiffOptions::default();
        for i in 0..60 {
            let cat = Category::ALL[i % 3]; // the three diff categories
            let case = gen_case(&mut rng, &cfg, cat);
            let (d, checks) = differential_check(&case, &opts);
            assert!(checks >= 2, "at least two executors must run");
            assert!(d.is_none(), "discrepancy on {}: {}", case.query, d.unwrap());
        }
    }

    #[test]
    fn injected_bug_is_detected() {
        let case = FuzzCase {
            tree: fixture(),
            query: CaseQuery::XPath(
                treequery_core::xpath::parse_xpath("descendant::*[lab()=b]").unwrap(),
            ),
            edits: Vec::new(),
        };
        let mut opts = DiffOptions::default();
        let (ok, _) = differential_check(&case, &opts);
        assert!(ok.is_none());
        opts.corrupt = Some(Corruption {
            strategy: Strategy::XPathSetAtATime,
            kind: CorruptionKind::DropLast,
        });
        let (bad, _) = differential_check(&case, &opts);
        let d = bad.expect("corrupted strategy must be flagged");
        // The corrupted strategy is the baseline (first applicable), so
        // every honest executor shows up as the "culprit" against it.
        assert!(d.baseline.contains("set-at-a-time"), "got {d}");
    }

    #[test]
    fn edit_scripts_agree_with_rebuild_oracle() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(4242);
        let opts = DiffOptions::default();
        let mut effective_steps = 0;
        for _ in 0..40 {
            let case = gen_case(&mut rng, &cfg, Category::EditDiff);
            let (d, checks) = edit_differential_check(&case, &opts);
            effective_steps += checks;
            assert!(
                d.is_none(),
                "edit discrepancy on {}: {}",
                case.query,
                d.unwrap()
            );
        }
        assert!(
            effective_steps > 100,
            "edit scripts degenerated: only {effective_steps} checks ran"
        );
    }

    #[test]
    fn injected_bug_after_an_edit_is_detected() {
        use treequery_core::tree::EditOp;
        let case = FuzzCase {
            tree: fixture(),
            query: CaseQuery::XPath(
                treequery_core::xpath::parse_xpath("descendant::*[lab()=b]").unwrap(),
            ),
            edits: vec![
                EditOp::Relabel {
                    pre: 3,
                    label: "b".into(),
                },
                EditOp::InsertLeaf {
                    parent_pre: 0,
                    child_idx: 0,
                    label: "b".into(),
                },
            ],
        };
        let mut opts = DiffOptions::default();
        let (ok, checks) = edit_differential_check(&case, &opts);
        assert!(ok.is_none());
        assert!(checks >= 2, "both edits must be checked");
        opts.corrupt = Some(Corruption {
            strategy: Strategy::XPathSetAtATime,
            kind: CorruptionKind::DropLast,
        });
        let (bad, _) = edit_differential_check(&case, &opts);
        let d = bad.expect("a corrupted strategy must be flagged after an edit");
        assert!(d.culprit.contains("set-at-a-time"), "got {d}");
        assert!(d.baseline.contains("rebuild-oracle"), "got {d}");
    }

    #[test]
    fn bool_norm_agrees_with_nonempty_tuples() {
        let mut t = BTreeSet::new();
        t.insert(vec![]);
        assert!(Norm::Bool(true).agrees(&Norm::Tuples(t.clone())));
        assert!(!Norm::Bool(false).agrees(&Norm::Tuples(t)));
        assert!(Norm::Bool(false).agrees(&Norm::Tuples(BTreeSet::new())));
    }
}
