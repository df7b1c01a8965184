//! Property tests for the planner pipeline: whatever strategy the
//! planner picks must agree with the reference evaluators, and cached
//! plans must be transparent (re-execution returns identical results).

mod common;

use common::{cq_strategy, path_strategy, rooted, tree_strategy};
use proptest::prelude::*;
use treequery::xpath::eval_reference;
use treequery::{cq, Engine};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planner-chosen XPath pipeline ≡ the (P1)–(P4)/(Q1)–(Q5) reference
    /// semantics, whatever strategy the statistics selected.
    #[test]
    fn planned_xpath_equals_reference(p in path_strategy(), t in tree_strategy(16)) {
        let p = rooted(p);
        let engine = Engine::new(&t);
        let ir = treequery::plan::ir::lower_path(&p);
        let got = engine.run(&ir, &engine.plan(&ir)).unwrap();
        let got = got.nodes().expect("xpath answers are node sets");
        let mut expect = eval_reference(&p, &t).to_vec();
        t.sort_by_pre(&mut expect);
        prop_assert_eq!(got, &expect[..], "query {}", p);
    }

    /// Planner-chosen CQ pipeline ≡ exhaustive backtracking.
    #[test]
    fn planned_cq_equals_backtrack(q in cq_strategy(4), t in tree_strategy(12)) {
        let engine = Engine::new(&t);
        let ir = treequery::plan::ir::lower_cq(&q);
        let plan = engine.plan(&ir);
        let fast = engine.run(&ir, &plan).unwrap();
        let slow = cq::eval_backtrack(&q, &t);
        prop_assert_eq!(&fast.answer().unwrap().tuples, &slow, "plan {:?}", plan.strategy);
    }

    /// Executing through a cached plan is transparent: the second run (a
    /// guaranteed cache hit) returns exactly the first run's answer.
    #[test]
    fn cached_plan_reexecution_is_identical(p in path_strategy(), t in tree_strategy(14)) {
        let ir = treequery::plan::ir::lower_path(&rooted(p));
        let engine = Engine::new(&t);
        let first = engine.run(&ir, &engine.plan(&ir)).unwrap();
        let hits_before = engine.metrics().plan_cache_hits;
        let second = engine.run(&ir, &engine.plan(&ir)).unwrap();
        prop_assert_eq!(&first, &second);
        prop_assert!(engine.metrics().plan_cache_hits > hits_before);
    }
}
