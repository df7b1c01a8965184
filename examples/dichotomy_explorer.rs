//! Explores the tractability landscape of Theorem 6.8 (the Dichotomy
//! Theorem): for every subset of the forward axes, which order (if any)
//! certifies the X-property — and what that means operationally when
//! evaluating a cyclic query.
//!
//! Run with `cargo run --example dichotomy_explorer`.

use treequery::cq::{self, dichotomy::classify_axes, Tractability};
use treequery::{parse_term, Axis, Engine, Query};

fn main() {
    let axes = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::NextSibling,
        Axis::FollowingSibling,
        Axis::FollowingSiblingOrSelf,
        Axis::Following,
    ];

    println!("Tractability of CQ[F] for every axis subset F (Theorem 6.8):\n");
    let mut tractable = 0;
    let mut hard = 0;
    for mask in 1u32..(1 << axes.len()) {
        let subset: Vec<Axis> = axes
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &a)| a)
            .collect();
        let verdict = classify_axes(subset.iter().copied(), false);
        match verdict {
            Tractability::Tractable(_) => tractable += 1,
            Tractability::NpComplete => hard += 1,
        }
        // Print the single-axis rows and a few interesting combinations.
        if subset.len() == 1 || subset.len() == axes.len() {
            let names: Vec<_> = subset.iter().map(|a| a.name()).collect();
            println!("  {{{}}} → {verdict:?}", names.join(", "));
        }
    }
    println!("\n{tractable} subsets are in PTIME, {hard} are NP-complete.");

    // The maximal tractable families (τ1, τ2, τ3).
    println!("\nmaximal tractable families:");
    for (name, family) in [
        ("τ1 (<pre)", vec![Axis::Descendant, Axis::DescendantOrSelf]),
        ("τ2 (<post)", vec![Axis::Following]),
        (
            "τ3 (<bflr)",
            vec![
                Axis::Child,
                Axis::NextSibling,
                Axis::FollowingSiblingOrSelf,
                Axis::FollowingSibling,
            ],
        ),
    ] {
        println!(
            "  {name}: {:?}",
            classify_axes(family.iter().copied(), false)
        );
    }

    // Operational consequence: the same *cyclic* triangle pattern is
    // linear-time over τ1 but forces exponential search over the mixed
    // signature.
    let tree = parse_term("r(a(b(c(d))) a(b(c)) b)").unwrap();
    let engine = Engine::new(&tree);

    let tractable_q = "child+(x, y), child+(y, z), child+(x, z)";
    let a = engine.cq(tractable_q).unwrap();
    let plan = engine.explain(&Query::cq(tractable_q)).unwrap();
    println!("\n[{tractable_q}]");
    println!(
        "  plan {}, satisfiable: {}",
        plan.strategy,
        a.is_satisfiable()
    );

    let hard_q = "child(x, y), child(y, z), child+(x, z), label(x, r)";
    let q = cq::parse_cq(hard_q).unwrap();
    println!("[{hard_q}]");
    println!("  classifier: {:?}", cq::classify(&q));
    let b = engine.cq(hard_q).unwrap();
    let plan = engine.explain(&Query::cq(hard_q)).unwrap();
    println!(
        "  evaluated anyway via {}: satisfiable = {}",
        plan.strategy,
        b.is_satisfiable()
    );
}
