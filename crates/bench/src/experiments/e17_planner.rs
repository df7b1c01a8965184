//! E17 — the statistics-driven planner: planner-chosen strategies vs
//! forced ones on an XMark document, plan-cache behaviour, and the
//! `eval_batch` speedup on scoped worker threads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery_core::tree::{xmark_document, XmarkConfig};
use treequery_core::{
    applicable_strategies, Engine, EngineConfig, ExplainedPlan, PlannerConfig, Query, Strategy,
};

use crate::util::{fmt_dur, header, median_time};

const XPATH_QUERIES: [&str; 6] = [
    "//site[people]",
    "//people/person[name]",
    "//open_auction[bidder]/seller",
    "//person[address and not(watches)]",
    "//person[phantom]",
    "//phantom[also_absent]/child",
];

const CQ_QUERIES: [&str; 3] = [
    "q(x) :- label(x, person), child(x, y), label(y, name).",
    "child+(x, y), child+(y, z), child+(x, z)",
    "q(x) :- child+(x, y), child+(x, z), child+(y, w), child+(z, w), label(x, person).",
];

pub fn doc(scale: usize) -> treequery_core::Tree {
    let mut rng = StdRng::seed_from_u64(17);
    xmark_document(&mut rng, &XmarkConfig::scaled_to(scale))
}

pub fn run() {
    header("E17", "statistics-driven planner vs forced strategies");
    let t = doc(60_000);
    let e = Engine::new(&t);
    println!("document: {} nodes (XMark)", t.len());

    println!(
        "\n{:<38} {:>22} {:>10} {:>10} {:>10}",
        "xpath query", "chosen strategy", "planned", "sweep", "via-cq"
    );
    for q in XPATH_QUERIES {
        let explained = e.explain(&Query::xpath(q)).unwrap();
        let planned = median_time(3, || e.xpath(q).unwrap());
        let ir = e.lower(&Query::xpath(q)).unwrap();
        // Forcing a route bypasses the planner, not the parallelism
        // policy: each forced plan gets the default configuration's
        // worker decision.
        let forced = |s| {
            let mut plan = ExplainedPlan::forced(&ir, s, 1);
            plan.decide_parallel(e.stats(), &PlannerConfig::default());
            plan
        };
        let sweep_plan = forced(Strategy::XPathSetAtATime);
        let sweep = median_time(3, || e.run(&ir, &sweep_plan).unwrap());
        let via_cq = if applicable_strategies(&ir).contains(&Strategy::XPathViaAcyclicCq) {
            let acyclic_cq = forced(Strategy::XPathViaAcyclicCq);
            fmt_dur(median_time(3, || e.run(&ir, &acyclic_cq).unwrap()))
        } else {
            "—".to_owned()
        };
        println!(
            "{:<38} {:>22} {:>10} {:>10} {:>10}",
            q,
            explained.strategy.to_string(),
            fmt_dur(planned),
            fmt_dur(sweep),
            via_cq
        );
    }

    println!("\n{:<78} {:>22}", "cq query", "chosen strategy");
    for q in CQ_QUERIES {
        let explained = e.explain(&Query::cq(q)).unwrap();
        println!("{:<78} {:>22}", q, explained.strategy.to_string());
        println!("    why: {} [{}]", explained.rationale, explained.cost);
    }

    // Batched evaluation: the same mixed workload sequentially and on the
    // scoped worker pool, answers asserted identical.
    let mut workload: Vec<Query> = Vec::new();
    let labels = [
        "site",
        "people",
        "person",
        "name",
        "open_auction",
        "bidder",
        "item",
        "description",
        "category",
        "increase",
    ];
    for a in labels {
        for b in labels {
            workload.push(Query::xpath(format!("//{a}[{b}]")));
        }
    }
    for q in XPATH_QUERIES {
        workload.push(Query::xpath(q));
    }
    for q in CQ_QUERIES {
        workload.push(Query::cq(q));
    }
    let seq_engine = Engine::with_config(
        &t,
        EngineConfig {
            batch_threads: Some(1),
            ..EngineConfig::default()
        },
    );
    let par_engine = Engine::new(&t);
    let seq_out = seq_engine.eval_batch(&workload);
    let par_out = par_engine.eval_batch(&workload);
    for (i, (s, p)) in seq_out.iter().zip(&par_out).enumerate() {
        assert_eq!(
            s.as_ref().ok(),
            p.as_ref().ok(),
            "batch result {i} diverged"
        );
    }
    let seq = median_time(3, || seq_engine.eval_batch(&workload));
    let par = median_time(3, || par_engine.eval_batch(&workload));
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "\neval_batch: {} queries  1 thread {}  {} thread(s) {}  speedup {:.2}x on {} core(s)",
        workload.len(),
        fmt_dur(seq),
        threads,
        fmt_dur(par),
        seq.as_secs_f64() / par.as_secs_f64().max(1e-9),
        threads
    );

    let m = par_engine.metrics();
    println!(
        "plan cache: {} plans for {} executions ({} hits, {} misses); \
         {} semijoin passes, {} nodes in reduced candidate sets",
        par_engine.cached_plans(),
        m.queries_executed,
        m.plan_cache_hits,
        m.plan_cache_misses,
        m.semijoin_passes,
        m.candidate_nodes
    );
    println!(
        "the planner keeps the sweep for common labels and short-circuits absent \
         ones through the reducer; batching scales with available cores."
    );
    crate::report::submit_metrics("e17", par_engine.metrics().to_json());
}
