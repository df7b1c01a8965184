//! Concurrency stress for the shared engine: many threads hammer one
//! `Engine` with a mix of `eval`, `eval_batch`, and `explain_analyze`
//! while the planner dispatches parallel kernels onto the shared worker
//! pool. Afterwards the counters must balance exactly — every lowered
//! query took exactly one plan-cache lookup, every miss computed exactly
//! one plan — and the quiesced snapshot must agree with the plain one at
//! rest.

use treequery::{Engine, EngineConfig, PlannerConfig, Query, QueryOutput, Tree};

fn stress_tree() -> Tree {
    let term = format!("r({})", "a(b(c) b) a(c(b)) b(a) ".repeat(50));
    treequery::parse_term(&term).unwrap()
}

fn parallel_engine(tree: &Tree) -> Engine<'_> {
    Engine::with_config(
        tree,
        EngineConfig {
            planner: PlannerConfig {
                workers: Some(4),
                parallel_threshold: 0,
                ..PlannerConfig::default()
            },
            batch_threads: Some(4),
        },
    )
}

fn stress_queries() -> Vec<Query> {
    vec![
        Query::xpath("//a[b]/c"),
        Query::xpath("//b"),
        Query::xpath("//a/following-sibling::b"),
        Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
        Query::datalog("P(x) :- label(x, c). ?- P."),
    ]
}

#[test]
fn hammered_engine_keeps_its_counters_consistent() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 12;
    let tree = stress_tree();
    let engine = parallel_engine(&tree);
    let queries = stress_queries();
    // Sequential oracle from a fresh single-worker engine.
    let oracle: Vec<QueryOutput> = {
        let sequential = Engine::with_config(
            &tree,
            EngineConfig {
                planner: PlannerConfig {
                    workers: Some(1),
                    ..PlannerConfig::default()
                },
                batch_threads: Some(1),
            },
        );
        queries
            .iter()
            .map(|q| sequential.eval(q).unwrap())
            .collect()
    };

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for round in 0..ROUNDS {
                    for (q, expect) in queries.iter().zip(&oracle) {
                        assert_eq!(&engine.eval(q).unwrap(), expect);
                    }
                    if round % 3 == 0 {
                        let batch = engine.eval_batch(&queries);
                        for (got, expect) in batch.iter().zip(&oracle) {
                            assert_eq!(got.as_ref().unwrap(), expect);
                        }
                    }
                    if round % 4 == 0 {
                        let i = round % queries.len();
                        let analyzed = engine.explain_analyze(&queries[i]).unwrap();
                        assert_eq!(&analyzed.output, &oracle[i]);
                    }
                }
            });
        }
    });

    // Expected pipeline traffic: every eval / batch entry / analyze runs
    // lower → one cache lookup → execute.
    let batches = (0..ROUNDS).filter(|r| r % 3 == 0).count();
    let analyzes = (0..ROUNDS).filter(|r| r % 4 == 0).count();
    let per_thread = (ROUNDS + batches) * queries.len() + analyzes;
    let expected = (THREADS * per_thread) as u64;

    let m = engine.metrics_quiesced();
    assert_eq!(
        m,
        engine.metrics(),
        "at rest the quiesced snapshot equals the plain snapshot"
    );
    assert_eq!(m.queries_lowered, expected);
    assert_eq!(m.queries_executed, expected);
    // The cache-lookup ledger balances: one lookup per lowered query, one
    // computed plan per miss, one distinct plan per distinct query.
    assert_eq!(m.plan_cache_hits + m.plan_cache_misses, m.queries_lowered);
    assert_eq!(m.plan_cache_misses, m.plans_computed);
    assert_eq!(m.plan_cache_misses, queries.len() as u64);
    assert_eq!(engine.cached_plans(), queries.len());
    assert_eq!(m.batch_queries, (THREADS * batches * queries.len()) as u64);
    assert!(
        m.parallel_kernels > 0,
        "the 4-worker engine should have dispatched parallel kernels"
    );
    assert!(m.parallel_chunks >= m.parallel_kernels);
}

/// `EXPLAIN ANALYZE` under parallel execution is deterministic: worker
/// chunk spans are merged into one stable stage row per name, so two
/// warm-cache runs report exactly the same stage structure (names,
/// calls, depths, summed fields — everything except wall time).
#[test]
fn parallel_explain_analyze_is_deterministic() {
    let tree = stress_tree();
    let engine = parallel_engine(&tree);
    let query = Query::xpath("//a[b]/c");
    let sequential = Engine::with_config(
        &tree,
        EngineConfig {
            planner: PlannerConfig {
                workers: Some(1),
                ..PlannerConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let expect = sequential.eval(&query).unwrap();

    // Warm the plan cache so both measured runs take the same path.
    let warm = engine.explain_analyze(&query).unwrap();
    assert_eq!(warm.plan.workers, 4, "{}", warm.plan.parallel_rationale);
    let first = engine.explain_analyze(&query).unwrap();
    let second = engine.explain_analyze(&query).unwrap();
    for analyzed in [&first, &second] {
        assert_eq!(analyzed.output, expect, "parallel ≡ sequential");
        assert!(analyzed.counters.parallel_kernels > 0);
    }

    let shape = |a: &treequery::AnalyzedPlan| {
        a.stages
            .iter()
            .map(|s| (s.name, s.calls, s.depth, s.fields.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&first), shape(&second));
    // The merged chunk rows are present and nested under their kernel.
    let chunk = first
        .stages
        .iter()
        .find(|s| s.name == "exec.sweep.chunk")
        .expect("parallel sweep ran in chunks");
    assert!(chunk.calls > 1, "multiple chunks merged into one row");
    let sweep = first
        .stages
        .iter()
        .find(|s| s.name == "exec.sweep")
        .unwrap();
    assert!(
        chunk.depth > sweep.depth,
        "chunk spans nest under the sweep"
    );
    // The rendering (minus times) is identical too: plan lines match.
    let plan_lines = |text: &str| {
        text.lines()
            .filter(|l| !l.contains("time=") && !l.starts_with("Measured"))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(plan_lines(&first.render()), plan_lines(&second.render()));
}

/// Regression: `EXPLAIN ANALYZE` reports exactly its own run while other
/// threads evaluate batches on the same engine and the same worker pool.
/// Every report's stage rows (names, calls, depths, summed fields,
/// per-stage allocation counts) and its executor counters must equal a
/// solo run's. The XPath query runs parallel kernels; the CQ allocates
/// in every stage of its reducer and enumerator.
#[test]
fn explain_analyze_ignores_concurrent_batches() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const ROUNDS: usize = 20;
    let tree = stress_tree();
    let engine = parallel_engine(&tree);
    let queries = stress_queries();
    let analyzed = [
        Query::xpath("//a/following-sibling::b"),
        Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
    ];
    let rows = |a: &treequery::AnalyzedPlan| {
        a.stages
            .iter()
            .map(|s| {
                let allocs = s.mem.map(|m| m.allocs);
                (s.name, s.calls, s.depth, s.fields.clone(), allocs)
            })
            .collect::<Vec<_>>()
    };

    // Warm the plan cache, the pool workers and their scratch pools, so
    // the solo runs are in the steady state the concurrent runs share.
    for _ in 0..20 {
        for q in &analyzed {
            engine.explain_analyze(q).unwrap();
        }
        for result in engine.eval_batch(&queries) {
            result.unwrap();
        }
    }
    let solo: Vec<_> = analyzed
        .iter()
        .map(|q| engine.explain_analyze(q).unwrap())
        .collect();
    assert!(
        solo[0].counters.parallel_kernels > 0,
        "{}",
        solo[0].render()
    );
    for s in &solo {
        assert!(
            s.stages.iter().any(|s| s.mem.is_some_and(|m| m.allocs > 0)),
            "the report carries allocation counts:\n{}",
            s.render()
        );
    }

    let stop = AtomicBool::new(false);
    let reports = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    for result in engine.eval_batch(&queries) {
                        result.unwrap();
                    }
                }
            });
        }
        let reports: Vec<_> = (0..ROUNDS)
            .flat_map(|_| analyzed.iter().map(|q| engine.explain_analyze(q)))
            .collect();
        stop.store(true, Ordering::Relaxed);
        reports
    });
    for (i, report) in reports.into_iter().enumerate() {
        let (report, solo) = (report.unwrap(), &solo[i % analyzed.len()]);
        assert_eq!(report.output, solo.output);
        assert_eq!(rows(&report), rows(solo), "{}", report.render());
        assert_eq!(report.counters, solo.counters, "{}", report.render());
    }
}
