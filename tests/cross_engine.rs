//! Cross-crate integration: every route through the system must agree.

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery::tree::{random_recursive_tree, xmark_document, XmarkConfig};
use treequery::{
    cq, parse_term, streaming, xpath, Engine, ExplainedPlan, NodeId, Query, Strategy, Tree,
};

/// Evaluates the XPath query `q` with `strategy` forced.
fn xpath_forced(e: &Engine<'_>, q: &str, strategy: Strategy) -> Vec<NodeId> {
    let ir = e.lower(&Query::xpath(q)).unwrap();
    let out = e
        .run(&ir, &ExplainedPlan::forced(&ir, strategy, 1))
        .unwrap();
    out.nodes().expect("XPath answers are node sets").to_vec()
}

fn random_trees(n: usize, size: usize) -> Vec<Tree> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    (0..n)
        .map(|_| random_recursive_tree(&mut rng, size, &["a", "b", "c", "d", "r"]))
        .collect()
}

/// All four XPath strategies agree, including on negation (where the
/// conjunctive route is skipped).
#[test]
fn xpath_strategies_agree_on_random_trees() {
    let queries = [
        "//a[b]/c",
        "//a[not(b or c)]",
        "//b/parent::a[following-sibling::c]",
        "//a//b[not(parent::a)]",
        "//a/following::b",
        "//c/preceding-sibling::a | //d",
    ];
    for t in random_trees(8, 70) {
        let e = Engine::new(&t);
        for q in queries {
            let base = e.xpath(q).unwrap();
            assert_eq!(
                xpath_forced(&e, q, Strategy::XPathReference),
                base,
                "reference: {q} on {t}"
            );
            assert_eq!(
                xpath_forced(&e, q, Strategy::XPathViaDatalog),
                base,
                "datalog: {q} on {t}"
            );
        }
    }
}

/// Conjunctive XPath additionally agrees through the acyclic-CQ route
/// (Proposition 4.2).
#[test]
fn conjunctive_xpath_agrees_through_cq() {
    let queries = ["//a[b]/c", "/r/a//b", "//a[b/c and lab()=a]/d"];
    for t in random_trees(6, 60) {
        let e = Engine::new(&t);
        for q in queries {
            assert_eq!(
                xpath_forced(&e, q, Strategy::XPathViaAcyclicCq),
                e.xpath(q).unwrap(),
                "{q} on {t}"
            );
        }
    }
}

/// The TMNF translation preserves the XPath→datalog semantics end to end.
#[test]
fn xpath_to_datalog_to_tmnf_chain() {
    use treequery::datalog::{eval_query, to_tmnf};
    let queries = ["//a[b]", "//a[not(b)]/c", "//b/parent::a"];
    for t in random_trees(4, 40) {
        let e = Engine::new(&t);
        for q in queries {
            let path = xpath::parse_xpath(q).unwrap();
            let prog = xpath::to_datalog(&path);
            let tmnf = to_tmnf(&prog).expect("translation produces convertible programs");
            assert!(tmnf.is_tmnf());
            let direct: Vec<_> = e.xpath(q).unwrap();
            let mut via_tmnf = eval_query(&tmnf, &t).to_vec();
            t.sort_by_pre(&mut via_tmnf);
            assert_eq!(via_tmnf, direct, "{q} on {t}");
        }
    }
}

/// All CQ evaluation techniques agree with exhaustive backtracking.
#[test]
fn cq_techniques_agree_with_backtracking() {
    let queries = [
        // Acyclic.
        "q(x, y) :- child+(x, y), label(y, b).",
        "q(z) :- root(r0), child(r0, x), child+(x, z), leaf(z).",
        // Cyclic tractable (Boolean).
        "child+(x, y), child+(y, z), child+(x, z), label(z, c)",
        "child(x, y), nextsibling(y, z), child(x, z)",
        // Cyclic NP-hard shape: rewrite.
        "q(z) :- child(x, y), child+(y, z), child+(x, z), label(x, r).",
    ];
    for t in random_trees(6, 35) {
        let e = Engine::new(&t);
        for qs in queries {
            let q = cq::parse_cq(qs).unwrap();
            let fast = e.cq(qs).unwrap();
            let slow = cq::eval_backtrack(&q, &t);
            if q.is_boolean() {
                assert_eq!(fast.is_satisfiable(), !slow.is_empty(), "{qs} on {t}");
            } else {
                assert_eq!(fast.tuples, slow, "{qs} on {t}");
            }
        }
    }
}

/// Twig joins, the structural-join plan, and the acyclic-CQ machinery
/// agree on tree patterns.
#[test]
fn twig_joins_agree_with_cq() {
    use treequery::cq::twigjoin::{structural_join_plan, twig_stack, TwigEdge, TwigQuery};
    for t in random_trees(6, 50) {
        let mut tq = TwigQuery::new("a");
        let b = tq.add_child(0, "b", TwigEdge::Descendant);
        tq.add_child(b, "c", TwigEdge::Child);
        tq.add_child(0, "d", TwigEdge::Child);

        let via_cq: Vec<Vec<_>> = cq::eval_acyclic(&tq.to_cq(), &t)
            .expect("twig patterns are acyclic")
            .into_iter()
            .collect();
        let (mut ts, _) = twig_stack(&tq, &t);
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(ts, via_cq, "twig_stack on {t}");
        let (mut sj, _) = structural_join_plan(&tq, &t);
        sj.sort_unstable();
        sj.dedup();
        assert_eq!(sj, via_cq, "structural plan on {t}");
    }
}

/// Streaming filters agree with in-memory non-emptiness on the XMark
/// workload, and automata recognize what they should.
#[test]
fn streaming_and_automata_on_xmark() {
    let mut rng = StdRng::seed_from_u64(42);
    let t = xmark_document(&mut rng, &XmarkConfig::scaled_to(3_000));
    let e = Engine::new(&t);
    for q in [
        "//open_auction[bidder]",
        "//person[not(address)]",
        "//parlist//listitem//text",
        "//homepage/parent::person",
    ] {
        let filter = e.stream_filter(q).unwrap();
        let (matched, stats) = streaming::matches_tree(&filter, &t);
        assert_eq!(matched, !e.xpath(q).unwrap().is_empty(), "{q}");
        assert!(stats.peak_frames <= t.height() as usize + 1);
    }
    // Automata: "contains a bidder" as a regular language.
    use treequery::automata::Nta;
    let has_bidder = Nta::exists_label("bidder").determinize();
    assert_eq!(
        has_bidder.accepts(&t),
        !e.xpath("//bidder").unwrap().is_empty()
    );
    let (streamed, peak) = has_bidder.run_streaming(&streaming::tree_events(&t));
    assert_eq!(streamed, has_bidder.accepts(&t));
    assert!(peak <= t.height() as usize + 1);
}

/// The worked structural-join example of Section 2 chains through the
/// storage crate.
#[test]
fn storage_chain() {
    use treequery::storage::{stack_tree_join, Xasr};
    let t = parse_term("a(b(a c) a(b d))").unwrap();
    let x = Xasr::from_tree(&t);
    // descendant view ≍ structural join over full label lists.
    let desc = x.descendant_view();
    let mut all: Vec<(u32, u32)> = Vec::new();
    for la in ["a", "b", "c", "d"] {
        for ld in ["a", "b", "c", "d"] {
            all.extend(stack_tree_join(x.label_list(la), x.label_list(ld)));
        }
    }
    all.sort_unstable();
    assert_eq!(all, desc.pairs());
}
