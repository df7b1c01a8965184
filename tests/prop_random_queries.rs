//! Property tests with *randomly generated queries*: random Core XPath
//! expressions and random conjunctive queries, differentially evaluated
//! through every engine in the workspace.

use proptest::prelude::*;
use treequery::tree::TreeBuilder;
use treequery::xpath::{eval_query, eval_reference, Path, Qual};
use treequery::{cq, datalog, Axis, Tree};

const ALPHABET: [&str; 3] = ["a", "b", "c"];

fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = Tree> {
    (
        proptest::collection::vec(any::<u32>(), 0..max_nodes),
        proptest::collection::vec(0u8..3, 1..=max_nodes),
    )
        .prop_map(|(parents, labels)| {
            let mut b = TreeBuilder::new();
            let mut nodes = vec![b.root(ALPHABET[labels[0] as usize % 3])];
            for (i, p) in parents.iter().enumerate() {
                let parent = nodes[(*p as usize) % nodes.len()];
                let label = ALPHABET[labels.get(i + 1).copied().unwrap_or(0) as usize % 3];
                nodes.push(b.child(parent, label));
            }
            b.freeze()
        })
}

/// Random Core XPath paths: steps over all fifteen axes with nested
/// qualifiers (including negation).
fn path_strategy() -> impl Strategy<Value = Path> {
    let axis = proptest::sample::select(Axis::ALL.to_vec());
    let label = proptest::sample::select(ALPHABET.to_vec());
    let leaf = (axis, proptest::option::of(label)).prop_map(|(a, l)| match l {
        Some(l) => Path::labeled_step(a, l),
        None => Path::step(a),
    });
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.then(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.filtered(Qual::Path(q))),
            (inner.clone(), inner.clone())
                .prop_map(|(p, q)| p.filtered(Qual::Not(Box::new(Qual::Path(q))))),
            (inner, proptest::sample::select(ALPHABET.to_vec()))
                .prop_map(|(p, l)| p.filtered(Qual::Label(l.to_owned()))),
        ]
    })
}

/// The query must start downward from the virtual document node for all
/// evaluators to agree on the convention.
fn rooted(p: Path) -> Path {
    Path::step(Axis::DescendantOrSelf).then(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast evaluator ≡ reference semantics on random queries and trees.
    #[test]
    fn random_xpath_fast_vs_reference(p in path_strategy(), t in tree_strategy(18)) {
        let p = rooted(p);
        prop_assert_eq!(eval_query(&p, &t), eval_reference(&p, &t));
    }

    /// Fast evaluator ≡ the monadic-datalog route (grounding + Minoux) on
    /// random queries — this exercises every ∃χ/∀χ datalog gadget,
    /// including the duals introduced by negation.
    #[test]
    fn random_xpath_fast_vs_datalog(p in path_strategy(), t in tree_strategy(14)) {
        let p = rooted(p);
        let prog = treequery::xpath::to_datalog(&p);
        prop_assert_eq!(datalog::eval_query(&prog, &t), eval_query(&p, &t));
    }
}

/// Random conjunctive queries: a forest-shaped core (guaranteed acyclic)
/// plus optional extra atoms that may introduce cycles.
fn cq_strategy(max_vars: usize) -> impl Strategy<Value = cq::Cq> {
    let axes = vec![
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::NextSibling,
        Axis::FollowingSibling,
        Axis::Following,
        Axis::Parent,
        Axis::Ancestor,
    ];
    (
        2..=max_vars,
        proptest::collection::vec((any::<u32>(), proptest::sample::select(axes.clone())), 1..6),
        proptest::collection::vec(
            (any::<u32>(), proptest::sample::select(ALPHABET.to_vec())),
            0..3,
        ),
    )
        .prop_map(|(nvars, edges, labels)| {
            let mut q = cq::Cq::new();
            let vars: Vec<_> = (0..nvars).map(|i| q.add_var(format!("v{i}"))).collect();
            // Tree-shaped axis atoms: var i connects to an earlier var.
            for (i, (pick, axis)) in edges.iter().enumerate() {
                let hi = (i + 1) % nvars;
                if hi == 0 {
                    continue;
                }
                let lo = (*pick as usize) % hi;
                q.atoms.push(cq::CqAtom::Axis(*axis, vars[lo], vars[hi]));
            }
            for (pick, label) in labels {
                let v = vars[(pick as usize) % nvars];
                q.atoms.push(cq::CqAtom::Label(label.to_owned(), v));
            }
            q.head = vec![vars[0]];
            q
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acyclic random CQs: Yannakakis + enumeration ≡ backtracking.
    #[test]
    fn random_acyclic_cq(q in cq_strategy(4), t in tree_strategy(14)) {
        if let Some(fast) = cq::eval_acyclic(&q, &t) {
            let slow = cq::eval_backtrack(&q, &t);
            prop_assert_eq!(fast, slow);
        }
    }

    /// Random CQs through the engine planner ≡ backtracking (whatever
    /// technique the planner picks).
    #[test]
    fn random_cq_via_planner(q in cq_strategy(4), t in tree_strategy(12)) {
        let engine = treequery::Engine::new(&t);
        let ir = treequery::plan::ir::lower_cq(&q);
        let plan = engine.plan(&ir);
        let fast = engine.run(&ir, &plan).unwrap();
        let slow = cq::eval_backtrack(&q, &t);
        prop_assert_eq!(&fast.answer().unwrap().tuples, &slow, "plan {:?}", plan.strategy);
    }

    /// The maximal arc-consistent pre-valuation always over-approximates
    /// the solution projections (soundness of Proposition 6.2's fixpoint).
    #[test]
    fn random_cq_ac_superset(q in cq_strategy(4), t in tree_strategy(12)) {
        let n = q.normalize_forward();
        if let Some(theta) = cq::max_arc_consistent(&n, &t) {
            let mut projections =
                vec![std::collections::BTreeSet::new(); n.num_vars()];
            cq::eval_backtrack(&{
                let mut all = n.clone();
                all.head = (0..n.num_vars() as u32).map(cq::CqVar).collect();
                all
            }, &t)
            .into_iter()
            .for_each(|tuple| {
                for (i, v) in tuple.into_iter().enumerate() {
                    projections[i].insert(v);
                }
            });
            for (i, proj) in projections.iter().enumerate() {
                for &v in proj {
                    prop_assert!(
                        theta[i].contains(v),
                        "var {i}: solution value {v:?} missing from AC set"
                    );
                }
            }
        } else {
            // No arc-consistent pre-valuation ⇒ unsatisfiable.
            prop_assert!(!cq::is_satisfiable_backtrack(&n, &t));
        }
    }
}
