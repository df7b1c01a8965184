//! Metamorphic oracles: algebraic laws the engine must satisfy.
//!
//! Where differential testing needs two implementations of the same
//! semantics, a metamorphic law needs only one: it relates the engine's
//! answers on an input and on a *transformed* input. The laws here come
//! straight from the paper:
//!
//! * **forward-rewrite** — the Section 5 upward-axis elimination
//!   preserves the selected node set;
//! * **descendant-unfold** — `Descendant = Child ∘ DescendantOrSelf`,
//!   the transitive-closure unfolding used throughout Section 4;
//! * **self-join** — conjunction is idempotent: duplicating a CQ atom
//!   changes nothing;
//! * **monotone-insert** — positive queries are monotone: appending a
//!   fresh-labelled leaf under the root can only grow the answer
//!   (compared by pre-order rank, which the insertion preserves);
//! * **order-blind** — queries using only vertical axes cannot see
//!   sibling order, so shuffling child lists preserves the answer
//!   *cardinality* and label multiset;
//! * **containment-subset** — deleting a CQ atom relaxes the query, so
//!   the original answer set must be contained in the relaxed one; on
//!   small queries the relaxation is independently confirmed by the
//!   bounded containment check of `cq::containment`;
//! * **insert-delete-identity** — inserting a leaf and deleting it again
//!   through the incremental splice machinery restores the document
//!   byte-identically (term, fingerprint, answers);
//! * **relabel-noop** — relabeling a node to its current primary label
//!   changes nothing;
//! * **disjoint-edits-commute** — edits inside disjoint subtrees yield
//!   the same document and answers in either order.
//!
//! Every law has a `*_with` variant taking a [`Tamper`] that perturbs
//! the *transformed side's* answer before comparison. Unit tests use it
//! to prove each law actually fires on a known-violating mock — a
//! vacuous oracle is worse than none.

use std::collections::BTreeSet;

use rand::rngs::StdRng;

use treequery_core::cq::{bounded_contained, Cq, CqAtom};
use treequery_core::plan::{tree_fingerprint, QueryOutput};
use treequery_core::tree::{to_term, EditOp, EditableTree};
use treequery_core::xpath::{Path, Qual};
use treequery_core::{streaming, Axis, Engine, NodeId, Tree};

use crate::diff::Norm;
use crate::treeops;
use crate::{CaseQuery, FuzzCase};

/// Stable names of all implemented laws, for reports.
pub const LAW_NAMES: [&str; 9] = [
    "forward-rewrite",
    "descendant-unfold",
    "self-join",
    "monotone-insert",
    "order-blind",
    "containment-subset",
    "insert-delete-identity",
    "relabel-noop",
    "disjoint-edits-commute",
];

/// A perturbation applied to the transformed side of a law before
/// comparison; [`Tamper::None`] for real checking.
#[derive(Clone, Copy, Debug, Default)]
pub enum Tamper {
    /// No perturbation (the law is checked for real).
    #[default]
    None,
    /// Drop the last element of the transformed answer.
    DropLast,
    /// Empty the transformed answer entirely.
    Clear,
}

impl Tamper {
    fn apply(self, n: Norm) -> Norm {
        match (self, n) {
            (Tamper::None, n) => n,
            (Tamper::DropLast, Norm::Nodes(mut v)) => {
                v.pop();
                Norm::Nodes(v)
            }
            (Tamper::DropLast, Norm::Tuples(mut t)) => {
                let last = t.iter().next_back().cloned();
                if let Some(last) = last {
                    t.remove(&last);
                }
                Norm::Tuples(t)
            }
            (Tamper::Clear, Norm::Nodes(_)) => Norm::Nodes(Vec::new()),
            (Tamper::Clear, Norm::Tuples(_)) => Norm::Tuples(BTreeSet::new()),
            (_, b @ Norm::Bool(_)) => b,
        }
    }
}

/// A metamorphic law violation.
#[derive(Clone, Debug)]
pub struct LawViolation {
    /// Which law failed (one of [`LAW_NAMES`]).
    pub law: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl std::fmt::Display for LawViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "law {} violated: {}", self.law, self.detail)
    }
}

fn eval_norm(tree: &Tree, query: &CaseQuery) -> Norm {
    let engine = Engine::new(tree);
    let ir = query.lower();
    let out = engine
        .run(&ir, &engine.plan(&ir))
        .expect("lowered query must evaluate");
    match out {
        QueryOutput::Nodes(v) => Norm::Nodes(v),
        QueryOutput::Answer(a) => Norm::Tuples(a.tuples),
    }
}

/// Maps a node answer to pre-order ranks, the tree-independent currency
/// for comparing answers across a rebuild.
fn pre_ranks(t: &Tree, n: &Norm) -> Norm {
    let rank = |v: NodeId| NodeId(t.pre(v));
    match n {
        Norm::Nodes(v) => Norm::Nodes(v.iter().map(|&x| rank(x)).collect()),
        Norm::Tuples(ts) => Norm::Tuples(
            ts.iter()
                .map(|tup| tup.iter().map(|&x| rank(x)).collect())
                .collect(),
        ),
        Norm::Bool(b) => Norm::Bool(*b),
    }
}

// ---------------------------------------------------------------------
// Law 1: forward-axis rewrite equivalence (Section 5).

/// Checks the forward-rewrite law; `None` when inapplicable or satisfied.
pub fn check_forward_rewrite(case: &FuzzCase) -> Option<LawViolation> {
    check_forward_rewrite_with(case, Tamper::None)
}

/// Tamperable variant of [`check_forward_rewrite`].
pub fn check_forward_rewrite_with(case: &FuzzCase, tamper: Tamper) -> Option<LawViolation> {
    let CaseQuery::XPath(p) = &case.query else {
        return None;
    };
    let fwd = streaming::eliminate_upward(p)?;
    let lhs = eval_norm(&case.tree, &CaseQuery::XPath(p.clone()));
    let rhs = tamper.apply(eval_norm(&case.tree, &CaseQuery::XPath(fwd.clone())));
    (!rhs.agrees(&lhs)).then(|| LawViolation {
        law: "forward-rewrite",
        detail: format!("`{p}` vs its forward rewrite `{fwd}`"),
    })
}

// ---------------------------------------------------------------------
// Law 2: descendant = child ∘ descendant-or-self.

fn unfold_path(p: &Path) -> (Path, bool) {
    match p {
        Path::Step { axis, quals } => {
            let (quals, changed): (Vec<Qual>, Vec<bool>) = quals.iter().map(unfold_qual).unzip();
            if *axis == Axis::Descendant {
                (
                    Path::step(Axis::Child).then(Path::Step {
                        axis: Axis::DescendantOrSelf,
                        quals,
                    }),
                    true,
                )
            } else {
                (
                    Path::Step { axis: *axis, quals },
                    changed.iter().any(|&c| c),
                )
            }
        }
        Path::Seq(a, b) => {
            let (a, ca) = unfold_path(a);
            let (b, cb) = unfold_path(b);
            (a.then(b), ca || cb)
        }
        Path::Union(a, b) => {
            let (a, ca) = unfold_path(a);
            let (b, cb) = unfold_path(b);
            (a.union(b), ca || cb)
        }
    }
}

fn unfold_qual(q: &Qual) -> (Qual, bool) {
    match q {
        Qual::Path(p) => {
            let (p, c) = unfold_path(p);
            (Qual::Path(p), c)
        }
        Qual::Label(l) => (Qual::Label(l.clone()), false),
        Qual::And(a, b) => {
            let (a, ca) = unfold_qual(a);
            let (b, cb) = unfold_qual(b);
            (Qual::And(Box::new(a), Box::new(b)), ca || cb)
        }
        Qual::Or(a, b) => {
            let (a, ca) = unfold_qual(a);
            let (b, cb) = unfold_qual(b);
            (Qual::Or(Box::new(a), Box::new(b)), ca || cb)
        }
        Qual::Not(inner) => {
            let (inner, c) = unfold_qual(inner);
            (Qual::Not(Box::new(inner)), c)
        }
    }
}

fn unfold_cq(q: &Cq) -> Option<Cq> {
    let i = q
        .atoms
        .iter()
        .position(|a| matches!(a, CqAtom::Axis(Axis::Descendant, _, _)))?;
    let CqAtom::Axis(_, x, y) = q.atoms[i] else {
        return None;
    };
    let mut out = q.clone();
    let z = out.add_var(format!("u{}", out.num_vars()));
    out.atoms[i] = CqAtom::Axis(Axis::Child, x, z);
    out.atoms.push(CqAtom::Axis(Axis::DescendantOrSelf, z, y));
    Some(out)
}

/// Checks the descendant-unfolding law (XPath and CQ).
pub fn check_descendant_unfold(case: &FuzzCase) -> Option<LawViolation> {
    check_descendant_unfold_with(case, Tamper::None)
}

/// Tamperable variant of [`check_descendant_unfold`].
pub fn check_descendant_unfold_with(case: &FuzzCase, tamper: Tamper) -> Option<LawViolation> {
    let (unfolded, desc) = match &case.query {
        CaseQuery::XPath(p) => {
            let (u, changed) = unfold_path(p);
            if !changed {
                return None;
            }
            (CaseQuery::XPath(u), p.to_string())
        }
        CaseQuery::Cq(q) => {
            let u = unfold_cq(q)?;
            (CaseQuery::Cq(u), crate::corpus::render_cq(q))
        }
        CaseQuery::Datalog(_) => return None,
    };
    let lhs = eval_norm(&case.tree, &case.query);
    // The CQ unfolding adds a fresh variable but never touches the head,
    // so the projected tuples stay directly comparable.
    let rhs = tamper.apply(eval_norm(&case.tree, &unfolded));
    (!rhs.agrees(&lhs)).then(|| LawViolation {
        law: "descendant-unfold",
        detail: format!("`{desc}` vs its child∘descendant-or-self unfolding"),
    })
}

// ---------------------------------------------------------------------
// Law 3: self-join idempotence (CQ).

/// Checks self-join idempotence: duplicating an atom changes nothing.
pub fn check_self_join(case: &FuzzCase) -> Option<LawViolation> {
    check_self_join_with(case, Tamper::None)
}

/// Tamperable variant of [`check_self_join`].
pub fn check_self_join_with(case: &FuzzCase, tamper: Tamper) -> Option<LawViolation> {
    let CaseQuery::Cq(q) = &case.query else {
        return None;
    };
    let first = q.atoms.first()?.clone();
    let mut doubled = q.clone();
    doubled.atoms.push(first);
    let lhs = eval_norm(&case.tree, &case.query);
    let rhs = tamper.apply(eval_norm(&case.tree, &CaseQuery::Cq(doubled)));
    (!rhs.agrees(&lhs)).then(|| LawViolation {
        law: "self-join",
        detail: format!(
            "`{}` changed answers when an atom was duplicated",
            crate::corpus::render_cq(q)
        ),
    })
}

// ---------------------------------------------------------------------
// Law 4: monotonicity under subtree insertion.

fn cq_is_monotone(q: &Cq) -> bool {
    // `Leaf` is the only non-monotone CQ atom under leaf insertion.
    !q.atoms.iter().any(|a| matches!(a, CqAtom::Leaf(_)))
}

/// Checks monotonicity: a fresh-labelled leaf appended under the root
/// may only grow a positive query's answer.
pub fn check_monotone_insert(case: &FuzzCase) -> Option<LawViolation> {
    check_monotone_insert_with(case, Tamper::None)
}

/// Tamperable variant of [`check_monotone_insert`].
pub fn check_monotone_insert_with(case: &FuzzCase, tamper: Tamper) -> Option<LawViolation> {
    let applicable = match &case.query {
        CaseQuery::XPath(p) => p.is_positive(),
        CaseQuery::Cq(q) => cq_is_monotone(q),
        CaseQuery::Datalog(_) => false,
    };
    if !applicable {
        return None;
    }
    // The label must be fresh so no label atom can newly match it.
    let grown = treeops::append_leaf_to_root(&case.tree, "fresh-leaf-label");
    let before = pre_ranks(&case.tree, &eval_norm(&case.tree, &case.query));
    let after = tamper.apply(pre_ranks(&grown, &eval_norm(&grown, &case.query)));
    let subset = match (&before, &after) {
        (Norm::Nodes(a), Norm::Nodes(b)) => {
            let bs: BTreeSet<_> = b.iter().collect();
            a.iter().all(|x| bs.contains(x))
        }
        (Norm::Tuples(a), Norm::Tuples(b)) => a.is_subset(b),
        _ => true,
    };
    (!subset).then(|| LawViolation {
        law: "monotone-insert",
        detail: format!("`{}` lost answers after a leaf insertion", case.query),
    })
}

// ---------------------------------------------------------------------
// Law 5: order-blindness of vertical-axis queries.

const VERTICAL: [Axis; 7] = [
    Axis::SelfAxis,
    Axis::Child,
    Axis::Parent,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
];

fn path_is_vertical(p: &Path) -> bool {
    match p {
        Path::Step { axis, quals } => VERTICAL.contains(axis) && quals.iter().all(qual_is_vertical),
        Path::Seq(a, b) | Path::Union(a, b) => path_is_vertical(a) && path_is_vertical(b),
    }
}

fn qual_is_vertical(q: &Qual) -> bool {
    match q {
        Qual::Path(p) => path_is_vertical(p),
        Qual::Label(_) => true,
        Qual::And(a, b) | Qual::Or(a, b) => qual_is_vertical(a) && qual_is_vertical(b),
        Qual::Not(inner) => qual_is_vertical(inner),
    }
}

fn cq_is_vertical(q: &Cq) -> bool {
    q.atoms.iter().all(|a| match a {
        CqAtom::Axis(ax, _, _) => VERTICAL.contains(ax),
        CqAtom::PreLt(..) => false,
        _ => true,
    })
}

/// The order-invariant fingerprint of an answer: cardinality plus the
/// sorted multiset of answer labels (node identities change under a
/// shuffle, labels do not).
fn order_blind_key(t: &Tree, n: &Norm) -> (usize, Vec<String>) {
    match n {
        Norm::Nodes(v) => {
            let mut labels: Vec<String> = v.iter().map(|&x| t.label_name(x).to_owned()).collect();
            labels.sort();
            (v.len(), labels)
        }
        Norm::Tuples(ts) => {
            let mut labels: Vec<String> = ts
                .iter()
                .map(|tup| {
                    tup.iter()
                        .map(|&x| t.label_name(x).to_owned())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect();
            labels.sort();
            (ts.len(), labels)
        }
        Norm::Bool(b) => (usize::from(*b), Vec::new()),
    }
}

/// Checks order-blindness: sibling shuffles cannot change the answer of
/// a query that only uses vertical axes.
pub fn check_order_blind(case: &FuzzCase, rng: &mut StdRng) -> Option<LawViolation> {
    check_order_blind_with(case, rng, Tamper::None)
}

/// Tamperable variant of [`check_order_blind`].
pub fn check_order_blind_with(
    case: &FuzzCase,
    rng: &mut StdRng,
    tamper: Tamper,
) -> Option<LawViolation> {
    let applicable = match &case.query {
        CaseQuery::XPath(p) => path_is_vertical(p),
        CaseQuery::Cq(q) => cq_is_vertical(q),
        CaseQuery::Datalog(_) => false,
    };
    if !applicable {
        return None;
    }
    let shuffled = treeops::shuffle_children(&case.tree, rng);
    let before = eval_norm(&case.tree, &case.query);
    let after = tamper.apply(eval_norm(&shuffled, &case.query));
    let same = order_blind_key(&case.tree, &before) == order_blind_key(&shuffled, &after);
    (!same).then(|| LawViolation {
        law: "order-blind",
        detail: format!("`{}` changed answers under a sibling shuffle", case.query),
    })
}

// ---------------------------------------------------------------------
// Law 6: containment implies subset (CQ).

/// Checks containment: deleting a body atom relaxes the query, so the
/// original answers must survive. On small queries the relaxation is
/// double-checked with `cq::bounded_contained`.
pub fn check_containment_subset(case: &FuzzCase) -> Option<LawViolation> {
    check_containment_subset_with(case, Tamper::None)
}

/// Tamperable variant of [`check_containment_subset`].
pub fn check_containment_subset_with(case: &FuzzCase, tamper: Tamper) -> Option<LawViolation> {
    let CaseQuery::Cq(q) = &case.query else {
        return None;
    };
    if q.atoms.len() < 2 {
        return None;
    }
    // Delete the first atom whose removal keeps every head variable
    // covered by some remaining atom.
    let mut relaxed = None;
    for i in 0..q.atoms.len() {
        let mut cand = q.clone();
        cand.atoms.remove(i);
        let covered: BTreeSet<_> = cand.atoms.iter().flat_map(|a| a.vars()).collect();
        if cand.head.iter().all(|v| covered.contains(v)) {
            relaxed = Some(crate::compact_cq(&cand));
            break;
        }
    }
    let relaxed = relaxed?;
    let lhs = eval_norm(&case.tree, &case.query);
    let rhs = tamper.apply(eval_norm(&case.tree, &CaseQuery::Cq(relaxed.clone())));
    let subset = match (&lhs, &rhs) {
        (Norm::Tuples(a), Norm::Tuples(b)) => a.is_subset(b),
        _ => true,
    };
    if !subset {
        return Some(LawViolation {
            law: "containment-subset",
            detail: format!(
                "`{}` not contained in its atom-deleted relaxation",
                crate::corpus::render_cq(q)
            ),
        });
    }
    // Independent confirmation on small queries: the bounded containment
    // decision procedure must agree that q ⊆ relaxed.
    if q.num_vars() <= 2 && q.size() <= 4 {
        let alphabet = ["a", "b"];
        if let Some(cex) = bounded_contained(q, &relaxed, 3, &alphabet) {
            return Some(LawViolation {
                law: "containment-subset",
                detail: format!(
                    "bounded_contained found a counterexample tree `{}` to q ⊆ relax(q)",
                    treequery_core::tree::to_term(&cex.tree)
                ),
            });
        }
    }
    None
}

// ---------------------------------------------------------------------
// Edit-script laws (7–9): the paper's structures made mutable. These
// generalize the monotone-insertion law to deletes and relabels — the
// transformed side is now an *incrementally edited* document
// ([`EditableTree`] splices, not a from-scratch rebuild), so a violation
// implicates the splice machinery itself, not just an evaluator.

/// The label inserted by identity/commutation laws — outside every
/// generator alphabet, so no label atom can newly match it by accident.
const EDIT_LAW_LABEL: &str = "fresh-edit-label";

/// Checks insert-then-delete identity: inserting a leaf and deleting it
/// again must restore the document *byte-identically* — same term
/// rendering, same tree fingerprint, same answers (same node ids: the
/// deleted id was the freshly appended one, so compaction is the
/// identity on every original node).
pub fn check_insert_delete_identity(case: &FuzzCase) -> Option<LawViolation> {
    check_insert_delete_identity_with(case, Tamper::None)
}

/// Tamperable variant of [`check_insert_delete_identity`].
pub fn check_insert_delete_identity_with(case: &FuzzCase, tamper: Tamper) -> Option<LawViolation> {
    let mut et = EditableTree::new(case.tree.clone());
    let n = case.tree.len() as u32;
    let delta = et.apply(&EditOp::InsertLeaf {
        parent_pre: n / 2,
        child_idx: 0,
        label: EDIT_LAW_LABEL.to_owned(),
    })?;
    et.apply(&EditOp::DeleteSubtree {
        pre: delta.pre_range.0,
    })
    .expect("deleting the freshly inserted non-root leaf is always effective");
    let fail = |what: &str| {
        Some(LawViolation {
            law: "insert-delete-identity",
            detail: format!("insert∘delete round-trip changed the {what}"),
        })
    };
    if to_term(et.tree()) != to_term(&case.tree) {
        return fail("term rendering");
    }
    if tree_fingerprint(et.tree()) != tree_fingerprint(&case.tree) {
        return fail("tree fingerprint");
    }
    let lhs = eval_norm(&case.tree, &case.query);
    let rhs = tamper.apply(eval_norm(et.tree(), &case.query));
    (rhs != lhs).then(|| LawViolation {
        law: "insert-delete-identity",
        detail: format!(
            "`{}` answers not byte-identical after insert∘delete",
            case.query
        ),
    })
}

/// Checks that relabeling a node to its current primary label is a
/// complete no-op: same term, same fingerprint, byte-identical answers.
pub fn check_relabel_noop(case: &FuzzCase) -> Option<LawViolation> {
    check_relabel_noop_with(case, Tamper::None)
}

/// Tamperable variant of [`check_relabel_noop`].
pub fn check_relabel_noop_with(case: &FuzzCase, tamper: Tamper) -> Option<LawViolation> {
    let target = case.tree.len() as u32 / 3;
    let label = case
        .tree
        .label_name(case.tree.node_at_pre(target))
        .to_owned();
    let mut et = EditableTree::new(case.tree.clone());
    et.apply(&EditOp::Relabel { pre: target, label })
        .expect("relabel is always effective");
    let fail = |what: &str| {
        Some(LawViolation {
            law: "relabel-noop",
            detail: format!("relabel-to-same-label changed the {what}"),
        })
    };
    if to_term(et.tree()) != to_term(&case.tree) {
        return fail("term rendering");
    }
    if tree_fingerprint(et.tree()) != tree_fingerprint(&case.tree) {
        return fail("tree fingerprint");
    }
    let lhs = eval_norm(&case.tree, &case.query);
    let rhs = tamper.apply(eval_norm(et.tree(), &case.query));
    (rhs != lhs).then(|| LawViolation {
        law: "relabel-noop",
        detail: format!(
            "`{}` answers not byte-identical after a no-op relabel",
            case.query
        ),
    })
}

/// Checks that edits in disjoint subtrees commute: a relabel inside the
/// root's first child subtree and an insert inside its last child
/// subtree yield the same document — and the same answers — in either
/// order. Inapplicable when the root has fewer than two children.
pub fn check_disjoint_edits_commute(case: &FuzzCase) -> Option<LawViolation> {
    check_disjoint_edits_commute_with(case, Tamper::None)
}

/// Tamperable variant of [`check_disjoint_edits_commute`].
pub fn check_disjoint_edits_commute_with(case: &FuzzCase, tamper: Tamper) -> Option<LawViolation> {
    let t = &case.tree;
    let kids: Vec<NodeId> = t.children(t.root()).collect();
    if kids.len() < 2 {
        return None;
    }
    // The relabel site precedes the insert site in document order, so
    // neither op shifts the other's pre-rank address in either order.
    let op_a = EditOp::Relabel {
        pre: t.pre(kids[0]),
        label: EDIT_LAW_LABEL.to_owned(),
    };
    let op_b = EditOp::InsertLeaf {
        parent_pre: t.pre(kids[kids.len() - 1]),
        child_idx: 0,
        label: EDIT_LAW_LABEL.to_owned(),
    };
    let mut ab = EditableTree::new(t.clone());
    ab.apply(&op_a).expect("relabel is always effective");
    ab.apply(&op_b).expect("insert is always effective");
    let mut ba = EditableTree::new(t.clone());
    ba.apply(&op_b).expect("insert is always effective");
    ba.apply(&op_a).expect("relabel is always effective");
    if to_term(ab.tree()) != to_term(ba.tree()) {
        return Some(LawViolation {
            law: "disjoint-edits-commute",
            detail: "disjoint-subtree edits produced different documents per order".into(),
        });
    }
    let lhs = pre_ranks(ab.tree(), &eval_norm(ab.tree(), &case.query));
    let rhs = tamper.apply(pre_ranks(ba.tree(), &eval_norm(ba.tree(), &case.query)));
    (!rhs.agrees(&lhs)).then(|| LawViolation {
        law: "disjoint-edits-commute",
        detail: format!(
            "`{}` answers depend on the order of disjoint-subtree edits",
            case.query
        ),
    })
}

/// Runs every law applicable to `case`, returning the first violation
/// and the number of law checks that actually ran.
pub fn check_laws(case: &FuzzCase, rng: &mut StdRng) -> (Option<LawViolation>, usize) {
    let mut checks = 0;
    let mut run = |v: Option<LawViolation>| -> Option<LawViolation> {
        checks += 1;
        v
    };
    let violation = run(check_forward_rewrite(case))
        .or_else(|| run(check_descendant_unfold(case)))
        .or_else(|| run(check_self_join(case)))
        .or_else(|| run(check_monotone_insert(case)))
        .or_else(|| run(check_order_blind(case, rng)))
        .or_else(|| run(check_containment_subset(case)))
        .or_else(|| run(check_insert_delete_identity(case)))
        .or_else(|| run(check_relabel_noop(case)))
        .or_else(|| run(check_disjoint_edits_commute(case)));
    (violation, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_case, Category, GenConfig};
    use rand::SeedableRng;
    use treequery_core::cq::parse_cq;
    use treequery_core::parse_term;
    use treequery_core::xpath::parse_xpath;

    fn tree() -> Tree {
        parse_term("r(a(b(c) b) a(c(b)) b(a))").unwrap()
    }

    fn xpath_case(q: &str) -> FuzzCase {
        FuzzCase {
            tree: tree(),
            query: CaseQuery::XPath(parse_xpath(q).unwrap()),
            edits: Vec::new(),
        }
    }

    fn cq_case(q: &str) -> FuzzCase {
        FuzzCase {
            tree: tree(),
            query: CaseQuery::Cq(parse_cq(q).unwrap()),
            edits: Vec::new(),
        }
    }

    #[test]
    fn laws_hold_on_generated_inputs() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..60 {
            let cat = if i % 2 == 0 {
                Category::XPathLaws
            } else {
                Category::CqLaws
            };
            let case = gen_case(&mut rng, &cfg, cat);
            let (v, _) = check_laws(&case, &mut rng);
            assert!(v.is_none(), "violation on `{}`: {}", case.query, v.unwrap());
        }
    }

    // Each law must fire on a known-violating mock: the tamper corrupts
    // the transformed side exactly as a buggy engine would.

    #[test]
    fn forward_rewrite_fires_on_violation() {
        let case = xpath_case("descendant::*[lab()=b]/parent::*");
        assert!(check_forward_rewrite(&case).is_none());
        let v = check_forward_rewrite_with(&case, Tamper::DropLast);
        assert_eq!(v.expect("must fire").law, "forward-rewrite");
    }

    #[test]
    fn descendant_unfold_fires_on_violation() {
        let case = xpath_case("descendant::*[lab()=b]");
        assert!(check_descendant_unfold(&case).is_none());
        let v = check_descendant_unfold_with(&case, Tamper::DropLast);
        assert_eq!(v.expect("must fire").law, "descendant-unfold");

        let case = cq_case("q(x) :- descendant(y, x), label(x, b).");
        assert!(check_descendant_unfold(&case).is_none());
        let v = check_descendant_unfold_with(&case, Tamper::Clear);
        assert_eq!(v.expect("must fire").law, "descendant-unfold");
    }

    #[test]
    fn self_join_fires_on_violation() {
        let case = cq_case("q(x) :- child(y, x), label(x, b).");
        assert!(check_self_join(&case).is_none());
        let v = check_self_join_with(&case, Tamper::DropLast);
        assert_eq!(v.expect("must fire").law, "self-join");
    }

    #[test]
    fn monotone_insert_fires_on_violation() {
        let case = xpath_case("descendant::*[lab()=a]");
        assert!(check_monotone_insert(&case).is_none());
        let v = check_monotone_insert_with(&case, Tamper::Clear);
        assert_eq!(v.expect("must fire").law, "monotone-insert");
    }

    #[test]
    fn order_blind_fires_on_violation() {
        let case = xpath_case("child::*/child::*[lab()=b]");
        let mut rng = StdRng::seed_from_u64(5);
        assert!(check_order_blind(&case, &mut rng).is_none());
        let mut rng = StdRng::seed_from_u64(5);
        let v = check_order_blind_with(&case, &mut rng, Tamper::DropLast);
        assert_eq!(v.expect("must fire").law, "order-blind");
    }

    #[test]
    fn containment_subset_fires_on_violation() {
        let case = cq_case("q(x) :- child(y, x), label(x, b).");
        assert!(check_containment_subset(&case).is_none());
        let v = check_containment_subset_with(&case, Tamper::Clear);
        assert_eq!(v.expect("must fire").law, "containment-subset");
    }

    #[test]
    fn insert_delete_identity_fires_on_violation() {
        let case = xpath_case("descendant::*[lab()=b]");
        assert!(check_insert_delete_identity(&case).is_none());
        let v = check_insert_delete_identity_with(&case, Tamper::DropLast);
        assert_eq!(v.expect("must fire").law, "insert-delete-identity");

        // Byte-identity is stricter than set agreement: Clear fires too,
        // and on a datalog case (the law spans all three front-ends).
        let case = FuzzCase {
            tree: tree(),
            query: CaseQuery::Datalog(
                treequery_core::datalog::parse_program("P(x) :- label(x, b). ?- P.").unwrap(),
            ),
            edits: Vec::new(),
        };
        assert!(check_insert_delete_identity(&case).is_none());
        let v = check_insert_delete_identity_with(&case, Tamper::Clear);
        assert_eq!(v.expect("must fire").law, "insert-delete-identity");
    }

    #[test]
    fn relabel_noop_fires_on_violation() {
        let case = cq_case("q(x) :- child(y, x), label(x, b).");
        assert!(check_relabel_noop(&case).is_none());
        let v = check_relabel_noop_with(&case, Tamper::DropLast);
        assert_eq!(v.expect("must fire").law, "relabel-noop");
    }

    #[test]
    fn disjoint_edits_commute_fires_on_violation() {
        let case = xpath_case("descendant::*[lab()=b]");
        assert!(check_disjoint_edits_commute(&case).is_none());
        let v = check_disjoint_edits_commute_with(&case, Tamper::DropLast);
        assert_eq!(v.expect("must fire").law, "disjoint-edits-commute");
    }

    #[test]
    fn disjoint_edits_law_skips_single_child_roots() {
        let case = FuzzCase {
            tree: parse_term("r(a(b(c)))").unwrap(),
            query: CaseQuery::XPath(parse_xpath("descendant::*").unwrap()),
            edits: Vec::new(),
        };
        // One root child: no disjoint subtree pair, even tampered.
        assert!(check_disjoint_edits_commute_with(&case, Tamper::Clear).is_none());
    }

    #[test]
    fn edit_laws_hold_on_generated_edit_cases() {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let case = gen_case(&mut rng, &cfg, Category::EditDiff);
            for v in [
                check_insert_delete_identity(&case),
                check_relabel_noop(&case),
                check_disjoint_edits_commute(&case),
            ] {
                assert!(v.is_none(), "violation on `{}`: {}", case.query, v.unwrap());
            }
        }
    }

    #[test]
    fn non_monotone_queries_are_skipped() {
        let case = xpath_case("child::*[not(lab()=a)]");
        // Not positive, so the law must not apply (even tampered).
        assert!(check_monotone_insert_with(&case, Tamper::Clear).is_none());
    }
}
