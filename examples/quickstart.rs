//! Quickstart: build a tree, query it with every engine.
//!
//! Run with `cargo run --example quickstart`.

use treequery::{cq, parse_term, streaming, Engine, ExplainedPlan, Query, Strategy};

fn main() {
    // A small document in the term syntax (see also `parse_xml`).
    let tree =
        parse_term("library(shelf(book(title author) book(title)) shelf(journal(title)))").unwrap();
    println!("document: {tree}");
    println!("nodes: {}, height: {}", tree.len(), tree.height());

    let engine = Engine::new(&tree);

    // --- Core XPath ---
    let with_author = engine.xpath("//book[author]").unwrap();
    println!("\n//book[author] selects {} node(s):", with_author.len());
    for v in &with_author {
        println!(
            "  pre rank {} ({})",
            tree.pre(v.to_owned()),
            tree.label_name(*v)
        );
    }
    // The same query through the monadic-datalog engine (Theorem 3.2).
    // Forcing a strategy bypasses the planner: lower once, then run a
    // forced plan.
    let ir = engine.lower(&Query::xpath("//book[author]")).unwrap();
    let via_datalog = engine
        .run(
            &ir,
            &ExplainedPlan::forced(&ir, Strategy::XPathViaDatalog, 1),
        )
        .unwrap();
    assert_eq!(via_datalog.nodes(), Some(&with_author[..]));
    println!("the monadic datalog route agrees ✓");

    // --- Conjunctive queries ---
    let pairs = "q(s, b) :- label(s, shelf), child(s, b), label(b, book).";
    let answer = engine.cq(pairs).unwrap();
    println!(
        "\nshelf/book pairs: {} (plan: {})",
        answer.tuples.len(),
        engine.explain(&Query::cq(pairs)).unwrap().strategy
    );

    // A cyclic query over the τ1 signature: Theorem 6.5 evaluates it in
    // linear time via arc-consistency + minimum valuation.
    let triangle = "child+(x, y), child+(y, z), child+(x, z), label(z, title)";
    let cyclic = engine.cq(triangle).unwrap();
    println!(
        "cyclic τ1 query satisfiable: {} (plan: {})",
        cyclic.is_satisfiable(),
        engine.explain(&Query::cq(triangle)).unwrap().strategy
    );

    // --- Monadic datalog (Example 3.1 pattern) ---
    let marked = engine
        .datalog(
            "P0(x) :- label(x, title).
             P0(x0) :- nextsibling(x0, x), P0(x).
             P(x0) :- firstchild(x0, x), P0(x).
             P0(x) :- P(x).
             ?- P.",
        )
        .unwrap();
    println!(
        "\nnodes with a title-descendant (datalog): {}",
        marked.len()
    );

    // --- Streaming filtering ---
    let filter = engine.stream_filter("//book[author]").unwrap();
    let (matched, stats) = streaming::matches_tree(&filter, &tree);
    println!(
        "\nstreaming filter //book[author]: matched={matched}, peak frames={}, frame bits={}",
        stats.peak_frames, stats.frame_bits
    );

    // --- The dichotomy classifier ---
    let q = cq::parse_cq("child(x, y), child+(x, z)").unwrap();
    println!(
        "\nsignature {{Child, Child+}} classifies as {:?}",
        cq::classify(&q)
    );
}
