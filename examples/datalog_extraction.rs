//! Web information extraction with monadic datalog — the application that
//! motivated monadic datalog over trees (Gottlob & Koch [31]: wrappers in
//! the Lixto system are monadic datalog programs).
//!
//! The "page" is a product-listing document; the wrapper program marks the
//! price nodes of discounted products in stock, using recursion through
//! siblings rather than any transitive axis.
//!
//! Run with `cargo run --example datalog_extraction`.

use treequery::{parse_term, Engine, Query};

fn main() {
    let page = parse_term(
        "html(body(\
            listing(\
              product(name price instock discount) \
              product(name price soldout) \
              product(name price instock) \
              product(name price instock discount(percent))) \
            footer(contact)))",
    )
    .unwrap();
    println!("page: {page}\n");
    let engine = Engine::new(&page);

    // The wrapper: a product qualifies if its child list contains both an
    // `instock` and a `discount` marker; its price is then extracted.
    // Everything is expressed over FirstChild/NextSibling (τ⁺) — the
    // signature of Theorem 3.2 — so evaluation is O(|P|·|Dom|).
    let wrapper = "
        % A node whose right-sibling chain contains `instock`.
        HasStock(x) :- label(x, instock).
        HasStock(x) :- nextsibling(x, y), HasStock(y).
        % ... and `discount`.
        HasDisc(x) :- label(x, discount).
        HasDisc(x) :- nextsibling(x, y), HasDisc(y).
        % A qualifying product sees both somewhere in its child chain.
        Qualifies(p) :- label(p, product), firstchild(p, c), HasStock(c), HasDisc(c).
        HasStock(x) :- nextsibling(x, y), HasStock(y).
        % Extract the price child of qualifying products.
        Extract(v) :- label(v, price), child(p, v), Qualifies(p).
        ?- Extract.
    ";
    let prices = engine.datalog(wrapper).unwrap();
    println!("extracted {} price node(s):", prices.len());
    for v in &prices {
        let product = page.parent(*v).unwrap();
        let kids: Vec<_> = page
            .children(product)
            .map(|c| page.label_name(c).to_owned())
            .collect();
        println!(
            "  price at pre rank {:>2} — product children: {kids:?}",
            page.pre(*v)
        );
    }
    assert_eq!(prices.len(), 2, "products 1 and 4 qualify");

    // The same extraction as a conjunctive query, for comparison: it needs
    // the Child axis and two label tests, and the planner runs it through
    // the acyclic machinery.
    let text = "q(v) :- label(v, price), child(p, v), label(p, product), \
                child(p, s), label(s, instock), child(p, d), label(d, discount).";
    let cq = engine.cq(text).unwrap();
    println!(
        "\nconjunctive-query route: {} tuple(s), plan {}",
        cq.tuples.len(),
        engine.explain(&Query::cq(text)).unwrap().strategy
    );
    assert_eq!(cq.tuples.len(), prices.len());
}
