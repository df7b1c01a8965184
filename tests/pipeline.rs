//! Integration tests for the three-stage query pipeline: IR lowering,
//! statistics-driven planning with explanations, the plan cache, and
//! batched parallel execution.

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery::tree::{xmark_document, XmarkConfig};
use treequery::{Engine, ExplainedPlan, Query, SourceLang, Strategy};

fn xmark_tree() -> treequery::Tree {
    let mut rng = StdRng::seed_from_u64(0x5eed17);
    xmark_document(&mut rng, &XmarkConfig::scaled_to(1500))
}

/// A mixed workload of ≥100 queries across all three front-ends, with a
/// few repeated entries so the plan cache gets exercised.
fn workload() -> Vec<Query> {
    let mut queries = Vec::new();
    let labels = [
        "site",
        "people",
        "person",
        "name",
        "open_auction",
        "bidder",
        "increase",
        "item",
        "description",
        "category",
    ];
    for a in labels {
        queries.push(Query::xpath(format!("//{a}")));
        for b in labels {
            queries.push(Query::xpath(format!("//{a}[{b}]")));
        }
    }
    queries.push(Query::xpath("//open_auction[bidder]/seller"));
    queries.push(Query::xpath("//person[name][not(homepage)]"));
    queries.push(Query::cq(
        "q(x) :- label(x, person), child(x, y), label(y, name).",
    ));
    queries.push(Query::cq("child+(x, y), child+(y, z), child+(x, z)"));
    queries.push(Query::cq(
        "q(x, y) :- child(z, x), child(z, y), pre_lt(x, y), label(z, name).",
    ));
    queries.push(Query::datalog(
        "P(x) :- label(x, bidder).
         P(x) :- firstchild(x, y), P(y).
         ?- P.",
    ));
    // Repeats → cache hits.
    queries.push(Query::xpath("//person[name]"));
    queries.push(Query::xpath("//person[name]"));
    queries
}

#[test]
fn eval_batch_matches_sequential_on_xmark() {
    let t = xmark_tree();
    let queries = workload();
    assert!(
        queries.len() >= 100,
        "workload has {} queries",
        queries.len()
    );

    let parallel_engine = Engine::new(&t);
    let batch = parallel_engine.eval_batch(&queries);

    let sequential_engine = Engine::new(&t);
    for (i, q) in queries.iter().enumerate() {
        let seq = sequential_engine.eval(q);
        match (&batch[i], seq) {
            (Ok(b), Ok(s)) => assert_eq!(*b, s, "query {i}: {:?}", q.text()),
            (Err(_), Err(_)) => {}
            (b, s) => panic!("query {i} diverged: batch {b:?} vs sequential {s:?}"),
        }
    }

    let m = parallel_engine.metrics();
    assert_eq!(m.batch_queries, queries.len() as u64);
    assert_eq!(m.queries_executed, queries.len() as u64);
    assert!(
        m.plan_cache_hits > 0,
        "repeated queries should hit the plan cache: {m:?}"
    );
}

#[test]
fn explain_names_a_strategy_for_every_front_end() {
    let t = xmark_tree();
    let e = Engine::new(&t);

    let x = e.explain(&Query::xpath("//open_auction[bidder]")).unwrap();
    assert_eq!(x.source, SourceLang::XPath);
    assert!(
        matches!(
            x.strategy,
            Strategy::XPathSetAtATime | Strategy::XPathViaAcyclicCq
        ),
        "{:?}",
        x.strategy
    );
    assert!(!x.rationale.is_empty());
    assert!(x.estimated_work > 0);

    let c = e
        .explain(&Query::cq(
            "q(x) :- label(x, person), child(x, y), label(y, name).",
        ))
        .unwrap();
    assert_eq!(c.source, SourceLang::Cq);
    assert_eq!(c.strategy, Strategy::CqAcyclic);

    let d = e
        .explain(&Query::datalog("P(x) :- label(x, item). ?- P."))
        .unwrap();
    assert_eq!(d.source, SourceLang::Datalog);
    assert_eq!(d.strategy, Strategy::DatalogGround);
}

#[test]
fn absent_labels_reroute_the_xpath_plan() {
    let t = xmark_tree();
    let e = Engine::new(&t);
    // `phantom` never occurs in an XMark document: the planner routes the
    // query through the CQ lowering, whose reducer refutes it without a
    // sweep — and the answer must agree with the forced sweep.
    let q = "//person[phantom]";
    let explained = e.explain(&Query::xpath(q)).unwrap();
    assert_eq!(
        explained.strategy,
        Strategy::XPathViaAcyclicCq,
        "{explained:?}"
    );
    assert!(explained.rationale.contains("does not occur"));
    let planned = e.xpath(q).unwrap();
    let ir = e.lower(&Query::xpath(q)).unwrap();
    let forced = e
        .run(
            &ir,
            &ExplainedPlan::forced(&ir, Strategy::XPathSetAtATime, 1),
        )
        .unwrap();
    assert_eq!(forced.nodes(), Some(&planned[..]));
    assert!(planned.is_empty());
    // A query over common labels keeps the sweep.
    let common = e.explain(&Query::xpath("//person[name]")).unwrap();
    assert_eq!(common.strategy, Strategy::XPathSetAtATime, "{common:?}");
}

#[test]
fn plan_cache_key_distinguishes_trees() {
    let t1 = xmark_tree();
    let mut rng = StdRng::seed_from_u64(99);
    let t2 = xmark_document(&mut rng, &XmarkConfig::scaled_to(600));
    let e1 = Engine::new(&t1);
    let e2 = Engine::new(&t2);
    assert_ne!(e1.tree_fingerprint(), e2.tree_fingerprint());
    // Same normalized query on each engine → one plan per engine cache.
    e1.xpath("//person[name]").unwrap();
    e2.xpath("//person[name]").unwrap();
    assert_eq!(e1.cached_plans(), 1);
    assert_eq!(e2.cached_plans(), 1);
}
