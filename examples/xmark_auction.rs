//! XMark-style auction workload: the document-and-query scenario the XML
//! query-processing literature (and the paper's Section 1 application
//! list) revolves around. Generates a synthetic auction site document and
//! runs a panel of Core XPath queries through all engines, timing each.
//!
//! Run with `cargo run --release --example xmark_auction [scale]`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery::tree::{xmark_document, XmarkConfig};
use treequery::{Engine, ExplainedPlan, Query, Strategy};

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let mut rng = StdRng::seed_from_u64(2006);
    let tree = xmark_document(&mut rng, &XmarkConfig::scaled_to(scale));
    println!(
        "XMark document: {} nodes, height {}, {} labels",
        tree.len(),
        tree.height(),
        tree.interner().len()
    );
    let engine = Engine::new(&tree);

    let queries = [
        ("Q1: items in Africa", "/site/regions/africa/item"),
        ("Q2: persons with address", "//person[address]"),
        (
            "Q3: auctions with bidders",
            "//open_auction[bidder/increase]",
        ),
        ("Q4: unwatched persons", "//person[not(watches)]"),
        ("Q5: deep text", "//listitem//text"),
        (
            "Q6: city of personal sellers",
            "//person[emailaddress]/address/city",
        ),
        ("Q7: bidder dates", "//open_auction/bidder/date"),
        ("Q8: categories or edges", "//category/name | //edge/from"),
    ];

    println!(
        "\n{:<28} {:>8} {:>12} {:>12}",
        "query", "results", "set-at-time", "datalog"
    );
    for (name, q) in queries {
        let t0 = Instant::now();
        let fast = engine.xpath(q).unwrap();
        let dt_fast = t0.elapsed();
        let ir = engine.lower(&Query::xpath(q)).unwrap();
        let datalog = ExplainedPlan::forced(&ir, Strategy::XPathViaDatalog, 1);
        let t1 = Instant::now();
        let via_datalog = engine.run(&ir, &datalog).unwrap();
        let dt_datalog = t1.elapsed();
        assert_eq!(
            via_datalog.nodes(),
            Some(&fast[..]),
            "engines disagree on {q}"
        );
        println!(
            "{:<28} {:>8} {:>10.2?} {:>10.2?}",
            name,
            fast.len(),
            dt_fast,
            dt_datalog
        );
    }
    println!("\nall engines agree on every query ✓");
}
