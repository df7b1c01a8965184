//! Differential property suite for intra-query parallelism: for random
//! Core XPath and conjunctive queries on random trees, an engine whose
//! planner is granted 2 or 8 workers (with the size threshold disabled,
//! so the parallel kernels really run even on tiny trees) must return
//! exactly the sequential engine's answer — same nodes, same order, same
//! tuples.

mod common;

use common::{cq_strategy, path_strategy, rooted, tree_strategy};
use proptest::prelude::*;
use treequery::{Engine, EngineConfig, PlannerConfig, QueryIr, QueryOutput, Tree};

fn engine_with_workers(tree: &Tree, workers: usize) -> Engine<'_> {
    Engine::with_config(
        tree,
        EngineConfig {
            planner: PlannerConfig {
                workers: Some(workers),
                // Disable the size gate so chunked kernels run on the
                // small random trees proptest generates.
                parallel_threshold: 0,
                ..PlannerConfig::default()
            },
            batch_threads: Some(workers),
            ..EngineConfig::default()
        },
    )
}

/// Plans and runs `ir` on an engine granted `workers` workers.
fn eval_with_workers(tree: &Tree, workers: usize, ir: &QueryIr) -> QueryOutput {
    let engine = engine_with_workers(tree, workers);
    engine.run(ir, &engine.plan(ir)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Parallel XPath pipeline ≡ sequential, at 2 and 8 workers.
    #[test]
    fn parallel_xpath_equals_sequential(p in path_strategy(), t in tree_strategy(16)) {
        let p = rooted(p);
        let ir = treequery::plan::ir::lower_path(&p);
        let sequential = eval_with_workers(&t, 1, &ir);
        for workers in [2usize, 8] {
            let parallel = eval_with_workers(&t, workers, &ir);
            prop_assert_eq!(
                &parallel, &sequential,
                "query {} at {} workers", p, workers
            );
        }
    }

    /// Parallel CQ pipeline ≡ sequential, at 2 and 8 workers (covers the
    /// rewrite-union route when the random query is cyclic).
    #[test]
    fn parallel_cq_equals_sequential(q in cq_strategy(4), t in tree_strategy(12)) {
        let ir = treequery::plan::ir::lower_cq(&q);
        let sequential = eval_with_workers(&t, 1, &ir);
        for workers in [2usize, 8] {
            let parallel = eval_with_workers(&t, workers, &ir);
            prop_assert_eq!(
                &parallel, &sequential,
                "{} workers, query {}", workers, q
            );
        }
    }

    /// Parallel batch evaluation ≡ per-query sequential evaluation, in
    /// input order, on random trees.
    #[test]
    fn parallel_batch_equals_sequential(t in tree_strategy(16), n in 1usize..12) {
        let pool = [
            "//a",
            "//a[b]/c",
            "//b[not(c)]",
            "//a/following-sibling::b",
            "//c//b",
        ];
        let queries: Vec<treequery::Query> = (0..n)
            .map(|i| treequery::Query::xpath(pool[i % pool.len()]))
            .collect();
        let sequential = engine_with_workers(&t, 1);
        let parallel = engine_with_workers(&t, 8);
        let batch = parallel.eval_batch(&queries);
        prop_assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let expect = sequential.eval(q).unwrap();
            prop_assert_eq!(batch[i].as_ref().unwrap(), &expect, "query {}", i);
        }
    }
}
