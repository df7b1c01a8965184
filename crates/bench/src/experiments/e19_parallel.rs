//! E19 — intra-query parallelism: speedup scaling of the shared-pool
//! kernels over their sequential counterparts, with the parallel output
//! asserted identical (same bytes, same order) to sequential inside the
//! experiment.
//!
//! The workload is the E10 XPath sweep at ≥64k nodes, run through the
//! engine with the planner's parallelism decision forced to 1 / 2 / 4
//! workers.

use treequery_core::{Engine, EngineConfig, PlannerConfig};

use super::e10_xpath_cq;
use crate::util::{fmt_dur, header, median_time};

fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig {
        planner: PlannerConfig {
            workers: Some(workers),
            ..PlannerConfig::default()
        },
        ..EngineConfig::default()
    }
}

pub fn run() {
    header(
        "E19",
        "intra-query parallelism — speedup scaling on the shared pool",
    );
    let cores = machine_parallelism();
    println!("machine parallelism: {cores} (the 2x-at-4-workers gate applies at >= 4 cores)");

    // The E10 XPath query through the engine, with the planner's
    // parallelism decision forced per engine.
    let doc = e10_xpath_cq::doc(80_000);
    assert!(doc.len() >= 64_000, "XMark document too small");
    let query = e10_xpath_cq::QUERY;
    let sequential = Engine::with_config(&doc, engine_config(1));
    let seq_nodes = sequential.xpath(query).unwrap();
    let seq = median_time(3, || sequential.xpath(query).unwrap());
    println!(
        "\nE10 XPath sweep: {} nodes, query {query}, {} result nodes",
        doc.len(),
        seq_nodes.len()
    );
    println!("{:>9} {:>12} {:>9}", "workers", "time", "speedup");
    println!("{:>9} {:>12} {:>9}", 1, fmt_dur(seq), "1.00x");
    for w in [2usize, 4] {
        let engine = Engine::with_config(&doc, engine_config(w));
        let par_nodes = engine.xpath(query).unwrap();
        assert_eq!(
            par_nodes, seq_nodes,
            "parallel XPath result must equal sequential (same order) at {w} workers"
        );
        let t = median_time(3, || engine.xpath(query).unwrap());
        let speedup = seq.as_secs_f64() / t.as_secs_f64();
        let kernels = engine.metrics().parallel_kernels;
        assert!(
            kernels > 0,
            "the engine should have dispatched parallel kernels at {w} workers"
        );
        println!("{w:>9} {:>12} {speedup:>8.2}x", fmt_dur(t));
        if w == 4 && cores >= 4 {
            assert!(
                speedup >= 2.0,
                "expected >= 2x speedup at 4 workers on {cores} cores, got {speedup:.2}x"
            );
        }
    }
    println!("parallel output is asserted identical to sequential.");
}
