//! Grounding monadic datalog programs over a tree (Theorem 3.2).
//!
//! Given a program `P` and a tree with node set `Dom`, computes an
//! equivalent propositional Horn formula. For TMNF programs (and more
//! generally programs whose rule bodies bind every variable through the
//! functional τ⁺ relations) the ground program has size `O(|P| · |Dom|)`
//! and is produced in that time, which together with Minoux's algorithm
//! yields the `O(|P| · |Dom|)` combined complexity of Theorem 3.2.
//!
//! Rules may also use the non-functional `Child` relation or leave
//! variables unconstrained; grounding stays correct but the ground program
//! can be larger (that is why the TMNF translation eliminates `Child`).

use treequery_hornsat::{AtomTable, HornFormula};
use treequery_tree::{NodeId, Tree};

use crate::ast::{BasePred, BinRel, BodyAtom, PredId, Program, Rule, UnaryRef, VarId};

/// A ground intensional atom `pred(node)`.
pub type GroundAtom = (PredId, NodeId);

fn base_holds(tree: &Tree, base: &BasePred, v: NodeId) -> bool {
    match base {
        BasePred::Dom => true,
        BasePred::Root => tree.is_root(v),
        BasePred::Leaf => tree.is_leaf(v),
        BasePred::FirstSibling => tree.is_first_sibling(v),
        BasePred::LastSibling => tree.is_last_sibling(v),
        BasePred::Label(l) => tree.has_label_name(v, l),
        BasePred::NotLabel(l) => !tree.has_label_name(v, l),
    }
}

fn bin_holds(tree: &Tree, rel: BinRel, x: NodeId, y: NodeId) -> bool {
    match rel {
        BinRel::FirstChild => tree.first_child(x) == Some(y),
        BinRel::NextSibling => tree.next_sibling(x) == Some(y),
        BinRel::Child => tree.parent(y) == Some(x),
    }
}

/// Successors of `x` under `rel` (forward direction).
fn bin_forward(tree: &Tree, rel: BinRel, x: NodeId) -> Vec<NodeId> {
    match rel {
        BinRel::FirstChild => tree.first_child(x).into_iter().collect(),
        BinRel::NextSibling => tree.next_sibling(x).into_iter().collect(),
        BinRel::Child => tree.children(x).collect(),
    }
}

/// Predecessors of `y` under `rel` (backward direction); all three
/// relations are functional backward.
fn bin_backward(tree: &Tree, rel: BinRel, y: NodeId) -> Option<NodeId> {
    match rel {
        BinRel::FirstChild => tree.parent(y).filter(|_| tree.is_first_sibling(y)),
        BinRel::NextSibling => tree.prev_sibling(y),
        BinRel::Child => tree.parent(y),
    }
}

/// Enumerates all assignments of rule variables to tree nodes that satisfy
/// the *extensional* atoms of the body; intensional atoms are ignored (they
/// become Horn body literals). `emit` receives the full assignment.
pub(crate) fn for_each_match(rule: &Rule, tree: &Tree, emit: &mut impl FnMut(&[NodeId])) {
    let binaries = rule_binaries(rule);
    let plan = build_plan(rule, &binaries, None);
    let filters = rule_filters(rule);
    let mut assignment = vec![NodeId(0); (rule.num_vars as usize).max(1)];
    run(&plan, 0, tree, &binaries, &mut assignment, &filters, emit);
}

/// Enumerates the matches in which variable `var` is bound to exactly
/// `node` — the localized probe of the incremental delta pass: after an
/// edit touches `node`, only matches through it can change, and for
/// connected rule bodies each probe costs O(1) traversals instead of a
/// domain scan.
pub(crate) fn for_each_match_pinned(
    rule: &Rule,
    tree: &Tree,
    var: VarId,
    node: NodeId,
    emit: &mut impl FnMut(&[NodeId]),
) {
    debug_assert!(var.index() < rule.num_vars as usize);
    let binaries = rule_binaries(rule);
    let plan = build_plan(rule, &binaries, Some(var));
    let filters = rule_filters(rule);
    let mut assignment = vec![NodeId(0); (rule.num_vars as usize).max(1)];
    assignment[var.index()] = node;
    run(&plan, 0, tree, &binaries, &mut assignment, &filters, emit);
}

fn rule_binaries(rule: &Rule) -> Vec<(BinRel, VarId, VarId)> {
    rule.body
        .iter()
        .filter_map(|a| match a {
            BodyAtom::Binary(r, x, y) => Some((*r, *x, *y)),
            BodyAtom::Unary(..) => None,
        })
        .collect()
}

fn rule_filters(rule: &Rule) -> Vec<(&BasePred, VarId)> {
    rule.body
        .iter()
        .filter_map(|a| match a {
            BodyAtom::Unary(UnaryRef::Base(b), v) => Some((b, *v)),
            _ => None,
        })
        .collect()
}

/// One step of the static match plan.
#[derive(Debug)]
enum Step {
    BindFree(VarId),
    /// Traverse atom #i from a bound side to the unbound side.
    Traverse {
        idx: usize,
        forward: bool,
    },
    /// Both sides bound: just check atom #i.
    Check(usize),
}

/// Static plan: repeatedly pick a binary extensional atom with at least
/// one bound variable (binding or checking), falling back to binding an
/// unbound variable by full iteration. `pre_bound`, if given, starts out
/// bound (the caller fixes its value before running the plan).
fn build_plan(
    rule: &Rule,
    binaries: &[(BinRel, VarId, VarId)],
    pre_bound: Option<VarId>,
) -> Vec<Step> {
    let n_vars = rule.num_vars as usize;
    let mut bound = vec![false; n_vars];
    if let Some(v) = pre_bound {
        bound[v.index()] = true;
    }
    let mut used = vec![false; binaries.len()];
    let mut plan = Vec::new();
    loop {
        // Check atoms whose variables are both bound.
        for (i, &(_, x, y)) in binaries.iter().enumerate() {
            if !used[i] && bound[x.index()] && bound[y.index()] {
                used[i] = true;
                plan.push(Step::Check(i));
            }
        }
        // Traverse an atom with exactly one bound side. Prefer backward
        // traversals (always functional) over forward ones.
        let next = binaries
            .iter()
            .enumerate()
            .filter(|&(i, &(_, x, y))| !used[i] && (bound[x.index()] ^ bound[y.index()]))
            .max_by_key(|&(_, &(r, x, _))| {
                // Forward Child is the only one-to-many step; do it last.
                if bound[x.index()] && r == BinRel::Child {
                    0
                } else {
                    1
                }
            });
        if let Some((i, &(_, x, y))) = next {
            used[i] = true;
            let forward = bound[x.index()];
            bound[x.index()] = true;
            bound[y.index()] = true;
            plan.push(Step::Traverse { idx: i, forward });
            continue;
        }
        // No binary atom is reachable: bind a fresh variable. Prefer a
        // variable of an unused binary atom, then any unbound variable.
        let fresh = binaries
            .iter()
            .enumerate()
            .filter(|&(i, _)| !used[i])
            .flat_map(|(_, &(_, x, y))| [x, y])
            .find(|v| !bound[v.index()])
            .or_else(|| (0..n_vars as u32).map(VarId).find(|v| !bound[v.index()]));
        match fresh {
            Some(v) => {
                bound[v.index()] = true;
                plan.push(Step::BindFree(v));
            }
            None => break,
        }
    }
    plan
}

// Depth-first execution of the plan. Unary extensional filters are
// applied once the assignment is complete (rule bodies are tiny, so late
// filtering is fine).
fn run(
    plan: &[Step],
    step: usize,
    tree: &Tree,
    binaries: &[(BinRel, VarId, VarId)],
    assignment: &mut Vec<NodeId>,
    filters: &[(&BasePred, VarId)],
    emit: &mut impl FnMut(&[NodeId]),
) {
    let Some(s) = plan.get(step) else {
        if filters
            .iter()
            .all(|(b, v)| base_holds(tree, b, assignment[v.index()]))
        {
            emit(assignment);
        }
        return;
    };
    match s {
        Step::BindFree(v) => {
            for node in tree.nodes() {
                assignment[v.index()] = node;
                run(plan, step + 1, tree, binaries, assignment, filters, emit);
            }
        }
        Step::Check(i) => {
            let (r, x, y) = binaries[*i];
            if bin_holds(tree, r, assignment[x.index()], assignment[y.index()]) {
                run(plan, step + 1, tree, binaries, assignment, filters, emit);
            }
        }
        Step::Traverse { idx, forward } => {
            let (r, x, y) = binaries[*idx];
            if *forward {
                for node in bin_forward(tree, r, assignment[x.index()]) {
                    assignment[y.index()] = node;
                    run(plan, step + 1, tree, binaries, assignment, filters, emit);
                }
            } else if let Some(node) = bin_backward(tree, r, assignment[y.index()]) {
                assignment[x.index()] = node;
                run(plan, step + 1, tree, binaries, assignment, filters, emit);
            }
        }
    }
}

/// Grounds a program over a tree into a definite Horn formula whose
/// variables are the intensional ground atoms `pred(node)`.
pub fn ground(prog: &Program, tree: &Tree) -> (HornFormula, AtomTable<GroundAtom>) {
    let mut formula = HornFormula::new();
    let mut atoms: AtomTable<GroundAtom> = AtomTable::new();
    // Pre-allocate variables for every (pred, node) pair lazily via the
    // atom table; ensure_vars after interning.
    let mut body_buf = Vec::new();
    for rule in &prog.rules {
        // Cancellation checkpoint per rule (one rule = one O(n) match
        // sweep — the grounding chunk). A cancelled exit grounds a
        // prefix of the program; the executor discards its model.
        if treequery_tree::cancel::cancelled() {
            break;
        }
        let intensional: Vec<(PredId, VarId)> = rule
            .body
            .iter()
            .filter_map(|a| match a {
                BodyAtom::Unary(UnaryRef::Pred(p), v) => Some((*p, *v)),
                _ => None,
            })
            .collect();
        for_each_match(rule, tree, &mut |assignment| {
            body_buf.clear();
            for &(p, v) in &intensional {
                body_buf.push(atoms.var((p, assignment[v.index()])));
            }
            let head = atoms.var((rule.head, assignment[rule.head_var.index()]));
            formula.ensure_vars(atoms.len() as u32);
            formula.add_rule(head, &body_buf);
        });
    }
    formula.ensure_vars(atoms.len() as u32);
    (formula, atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use treequery_tree::parse_term;

    #[test]
    fn ground_counts_matches() {
        // P(x) :- nextsibling(x, y): one ground rule per sibling pair.
        let prog = parse_program("P(x) :- nextsibling(x, y).").unwrap();
        let tree = parse_term("r(a b c)").unwrap();
        let (formula, _) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 2);
    }

    #[test]
    fn ground_respects_unary_filters() {
        let prog = parse_program("P(x) :- firstchild(x, y), leaf(y).").unwrap();
        let tree = parse_term("r(a(b) c)").unwrap();
        // firstchild pairs: (r,a), (a,b); leaf(y) keeps only (a,b).
        let (formula, atoms) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 1);
        assert_eq!(atoms.len(), 1);
    }

    #[test]
    fn child_enumerates_all_children() {
        let prog = parse_program("P(x) :- child(x, y).").unwrap();
        let tree = parse_term("r(a b c(d))").unwrap();
        let (formula, _) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 4);
    }

    #[test]
    fn unconstrained_variable_enumerates_domain() {
        // y occurs only in an intensional atom: grounding iterates it over
        // the whole domain.
        let prog = parse_program("P(x) :- root(x), Q(y).").unwrap();
        let tree = parse_term("r(a b)").unwrap();
        let (formula, _) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 3);
    }

    #[test]
    fn cyclic_body_consistency_is_checked() {
        // firstchild(x,y) ∧ nextsibling(x,y) is unsatisfiable: no matches.
        let prog = parse_program("P(x) :- firstchild(x, y), nextsibling(x, y).").unwrap();
        let tree = parse_term("r(a(b) c)").unwrap();
        let (formula, _) = ground(&prog, &tree);
        assert_eq!(formula.num_rules(), 0);
    }

    #[test]
    fn tmnf_rule_grounding_is_linear_in_nodes() {
        let prog = parse_program("P(x) :- P0(x0), nextsibling(x0, x).").unwrap();
        let tree = parse_term("r(a b c d e)").unwrap();
        let (formula, _) = ground(&prog, &tree);
        // One ground instance per NextSibling edge.
        assert_eq!(formula.num_rules(), 4);
        for i in 0..formula.num_rules() {
            let r = treequery_hornsat::RuleId(i as u32);
            assert_eq!(formula.body(r).len(), 1);
        }
    }
}
