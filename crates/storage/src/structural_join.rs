//! Structural joins (Section 2; Al-Khalifa et al., ICDE 2002 \[2\]).
//!
//! A structural join computes all (ancestor, descendant) pairs between two
//! lists of nodes given by their `(pre, post)` labels. Three algorithms are
//! provided, ordered from best to worst:
//!
//! * [`stack_tree_join`] — the stack-based merge join: `O(|A| + |D| + out)`,
//! * [`nested_loop_join`] — the theta-join exactly as written in the SQL
//!   view of Example 2.1: `O(|A| · |D|)`,
//! * [`closure_join`] — materializes the quadratically-sized `Child⁺`
//!   relation and filters it, the strategy the paper warns against.
//!
//! Inputs are slices of `(pre, post)` pairs **sorted by `pre`** (as produced
//! by [`crate::Xasr::label_list`]); the output pairs `(a, d)` are the pre
//! indexes of an ancestor from the first list and a descendant from the
//! second.

use crate::relation::Relation;

#[inline]
fn is_ancestor(a: (u32, u32), d: (u32, u32)) -> bool {
    a.0 < d.0 && d.1 < a.1
}

/// Stack-based structural merge join (`Stack-Tree-Desc`).
///
/// Both inputs must be sorted by pre index. Runs in time linear in the
/// input plus output sizes: each ancestor candidate is pushed and popped
/// exactly once, and per descendant the stack contains exactly its
/// ancestors from `ancestors`.
pub fn stack_tree_join(ancestors: &[(u32, u32)], descendants: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut stack = Vec::new();
    stack_tree_join_into(ancestors, descendants, &mut stack, &mut out);
    out
}

/// [`stack_tree_join`] writing into caller-owned buffers: `stack` is the
/// working ancestor stack, `out` receives the pairs (both cleared first).
/// With warmed buffers the join performs no allocations beyond amortized
/// output growth.
pub fn stack_tree_join_into(
    ancestors: &[(u32, u32)],
    descendants: &[(u32, u32)],
    stack: &mut Vec<(u32, u32)>,
    out: &mut Vec<(u32, u32)>,
) {
    debug_assert!(ancestors.windows(2).all(|w| w[0].0 < w[1].0));
    debug_assert!(descendants.windows(2).all(|w| w[0].0 < w[1].0));
    out.clear();
    stack.clear();
    let mut i = 0;
    for (di, &d) in descendants.iter().enumerate() {
        // Cancellation checkpoint every 4096 descendants (the join can
        // emit O(depth) pairs per descendant, so output — not input —
        // is what a runaway join drowns in). Partial output is discarded
        // by the cancelled query's executor.
        if di & 0xFFF == 0xFFF && treequery_tree::cancel::cancelled() {
            return;
        }
        // Push every ancestor candidate that starts before d...
        while i < ancestors.len() && ancestors[i].0 < d.0 {
            let a = ancestors[i];
            // ...popping candidates that already closed (not ancestors of a,
            // hence of nothing that follows).
            while stack.last().is_some_and(|&top| top.1 < a.1) {
                stack.pop();
            }
            stack.push(a);
            i += 1;
        }
        // Pop candidates that closed before d opens.
        while stack.last().is_some_and(|&top| top.1 < d.1) {
            stack.pop();
        }
        // Everything remaining on the stack is an ancestor of d.
        for &a in stack.iter() {
            debug_assert!(is_ancestor(a, d));
            out.push((a.0, d.0));
        }
    }
}

/// Nested-loop theta-join: the SQL view of Example 2.1 evaluated naively.
pub fn nested_loop_join(ancestors: &[(u32, u32)], descendants: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for &a in ancestors {
        for &d in descendants {
            if is_ancestor(a, d) {
                out.push((a.0, d.0));
            }
        }
    }
    out
}

/// The closure baseline: materialize `Child⁺` from the `Child` relation and
/// filter it down to the candidate lists. `child` maps parent pre-index to
/// child pre-index (e.g. from [`crate::Xasr::child_view`]).
pub fn closure_join(
    child: &Relation,
    ancestors: &[(u32, u32)],
    descendants: &[(u32, u32)],
) -> Vec<(u32, u32)> {
    let closure = child.transitive_closure();
    let anc: std::collections::HashSet<u32> = ancestors.iter().map(|&(p, _)| p).collect();
    let desc: std::collections::HashSet<u32> = descendants.iter().map(|&(p, _)| p).collect();
    closure
        .iter()
        .filter(|&(a, d)| anc.contains(&a) && desc.contains(&d))
        .collect()
}

/// Work counters for the E12 experiment: how many comparisons / stack
/// operations each algorithm performs, to show the asymptotic separation
/// independent of wall-clock noise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Pair comparisons performed by the nested-loop join.
    pub nested_loop_comparisons: u64,
    /// Stack pushes + pops + output emissions of the stack join.
    pub stack_operations: u64,
    /// Tuples of the materialized `Child⁺` relation.
    pub closure_tuples: u64,
    /// Output pairs (identical across algorithms).
    pub output_pairs: u64,
}

/// Runs all three algorithms, checks they agree, and reports work counters.
pub fn structural_join_counters(
    child: &Relation,
    ancestors: &[(u32, u32)],
    descendants: &[(u32, u32)],
) -> JoinCounters {
    let mut fast = stack_tree_join(ancestors, descendants);
    let mut slow = nested_loop_join(ancestors, descendants);
    let mut closed = closure_join(child, ancestors, descendants);
    fast.sort_unstable();
    slow.sort_unstable();
    closed.sort_unstable();
    assert_eq!(fast, slow, "structural join algorithms disagree");
    assert_eq!(fast, closed, "closure join disagrees");
    JoinCounters {
        nested_loop_comparisons: (ancestors.len() * descendants.len()) as u64,
        stack_operations: (ancestors.len() + descendants.len()) as u64 * 2 + fast.len() as u64,
        closure_tuples: child.transitive_closure().len() as u64,
        output_pairs: fast.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xasr::Xasr;
    use treequery_tree::parse_term;

    fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn joins_agree_on_figure2_tree() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        let x = Xasr::from_tree(&t);
        let asr_a = x.label_list("a");
        let asr_b = x.label_list("b");
        let fast = sorted(stack_tree_join(asr_a, asr_b));
        let slow = sorted(nested_loop_join(asr_a, asr_b));
        let closed = sorted(closure_join(&x.child_view(), asr_a, asr_b));
        assert_eq!(fast, slow);
        assert_eq!(fast, closed);
        // a-ancestors of b-nodes: root(1) over b(2) and b(6); a(5) over b(6).
        assert_eq!(fast, vec![(1, 2), (1, 6), (5, 6)]);
    }

    #[test]
    fn self_pairs_are_excluded() {
        // Both lists are the same label: no node is its own ancestor.
        let t = parse_term("a(a(a))").unwrap();
        let x = Xasr::from_tree(&t);
        let list = x.label_list("a");
        let fast = sorted(stack_tree_join(list, list));
        assert_eq!(fast, vec![(1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn empty_inputs() {
        assert!(stack_tree_join(&[], &[(1, 1)]).is_empty());
        assert!(stack_tree_join(&[(1, 1)], &[]).is_empty());
        assert!(nested_loop_join(&[], &[]).is_empty());
    }

    #[test]
    fn deep_nesting_keeps_full_stack() {
        // Path of a's with a b at the bottom: every a is an ancestor of b.
        let t = parse_term("a(a(a(a(b))))").unwrap();
        let x = Xasr::from_tree(&t);
        let out = stack_tree_join(x.label_list("a"), x.label_list("b"));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn siblings_produce_no_pairs() {
        let t = parse_term("r(a a a b b)").unwrap();
        let x = Xasr::from_tree(&t);
        let out = stack_tree_join(x.label_list("a"), x.label_list("b"));
        assert!(out.is_empty());
    }

    #[test]
    fn counters_agree_and_report_output() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        let x = Xasr::from_tree(&t);
        let c = structural_join_counters(&x.child_view(), x.label_list("a"), x.label_list("b"));
        assert_eq!(c.output_pairs, 3);
        assert_eq!(c.nested_loop_comparisons, 6);
        assert!(c.closure_tuples >= c.output_pairs);
    }

    #[test]
    fn into_reinitializes_dirty_buffers() {
        let mut stack = vec![(9, 9); 8];
        let mut out = vec![(7, 7); 8];
        stack_tree_join_into(&[(1, 5)], &[(2, 1)], &mut stack, &mut out);
        assert_eq!(out, vec![(1, 2)]);
    }

    /// Differential test on random trees: the fast join equals the naive
    /// definition for all label pairs.
    #[test]
    fn random_trees_differential() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let t = treequery_tree::random_recursive_tree(&mut rng, 60, &["a", "b", "c"]);
            let x = Xasr::from_tree(&t);
            for anc in ["a", "b", "c"] {
                for desc in ["a", "b", "c"] {
                    let la = x.label_list(anc);
                    let ld = x.label_list(desc);
                    assert_eq!(
                        sorted(stack_tree_join(la, ld)),
                        sorted(nested_loop_join(la, ld)),
                        "labels {anc}/{desc} on {t}"
                    );
                }
            }
        }
    }
}
