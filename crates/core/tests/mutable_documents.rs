//! Plan-cache invalidation and linearizability under document edits.
//!
//! Three contracts, each with a from-scratch oracle:
//!
//! 1. **No stale answers** — after every edit of a random script, every
//!    front-end's answer from the document's (cache-sharing, incrementally
//!    maintained) engine equals a cold engine over a tree rebuilt from
//!    scratch out of the document's term rendering.
//! 2. **Untouched trees keep their entries** — documents pooling one plan
//!    cache do not lose entries when a *different* document is edited;
//!    the hit-rate is asserted through the exported engine counters.
//! 3. **Batches around edits are linearizable** — `edit` takes the
//!    document exclusively, so every `eval_batch` observes a tree from
//!    between two edits; batch answers equal cold sequential answers on
//!    both sides of an edit.

use std::sync::Arc;

use treequery_core::tree::{to_term, EditOp};
use treequery_core::{
    obs, parse_term, plan, Document, Engine, EngineConfig, Metrics, Query, QueryOutput,
};

/// Node ids in an edited document are allocation-ordered, not pre-ordered
/// (inserts append), while a from-scratch rebuild numbers nodes in pre
/// order — so answers are compared by pre rank, the id-stable coordinate.
fn canon(out: &QueryOutput, t: &treequery_core::Tree) -> Vec<Vec<u32>> {
    match out {
        QueryOutput::Nodes(v) => v.iter().map(|&x| vec![t.pre(x)]).collect(),
        QueryOutput::Answer(a) => {
            let mut rows: Vec<Vec<u32>> = a
                .tuples
                .iter()
                .map(|tup| tup.iter().map(|&x| t.pre(x)).collect())
                .collect();
            rows.sort();
            rows
        }
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn random_op(state: &mut u64, n: u32) -> EditOp {
    let s = lcg(state);
    let labels = ["a", "b", "c", "d"];
    match s % 4 {
        0 | 1 => EditOp::InsertLeaf {
            parent_pre: (s >> 8) as u32 % n,
            child_idx: (s >> 40) as u32 % 4,
            label: labels[(s >> 16) as usize % labels.len()].to_owned(),
        },
        2 => EditOp::DeleteSubtree {
            pre: (s >> 8) as u32 % n,
        },
        _ => EditOp::Relabel {
            pre: (s >> 8) as u32 % n,
            label: labels[(s >> 16) as usize % labels.len()].to_owned(),
        },
    }
}

#[test]
fn edited_documents_never_serve_stale_answers() {
    let queries = [
        Query::xpath("//a[b]/c"),
        Query::xpath("//b[not(c)]"),
        Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
        Query::datalog(
            "P(x) :- label(x, b).
             P(x) :- child(x, y), P(y).
             ?- P.",
        ),
    ];
    let mut doc = Document::new(parse_term("r(a(b(c) b) a(c(b)) b(a))").unwrap());
    // Warm the shared cache so a stale entry *would* be served if
    // invalidation were broken.
    for q in &queries {
        doc.engine().eval(q).unwrap();
    }
    let mut state = 0x853C49E6748FEA9Bu64;
    for step in 0..60 {
        let op = random_op(&mut state, doc.tree().len() as u32);
        if doc.edit(&op).is_none() {
            continue;
        }
        // From-scratch oracle: rebuild the tree out of its rendering
        // (fresh arena, fresh interner) under a cold engine.
        let rebuilt = parse_term(&to_term(doc.tree())).unwrap();
        let cold = Engine::new(&rebuilt);
        let warm = doc.engine();
        for q in &queries {
            let incremental = warm.eval(q).unwrap();
            let oracle = cold.eval(q).unwrap();
            assert_eq!(
                canon(&incremental, doc.tree()),
                canon(&oracle, &rebuilt),
                "step {step}, {op}, {q:?}"
            );
        }
    }
    assert!(doc.edit_count() >= 40, "script degenerated into no-ops");
}

#[test]
fn untouched_documents_keep_cache_entries_when_a_sibling_is_edited() {
    let cache = Arc::new(plan::PlanCache::default());
    let metrics = Arc::new(Metrics::default());
    let mut edited = Document::with_runtime(
        parse_term("r(a(b) c)").unwrap(),
        EngineConfig::default(),
        Arc::clone(&cache),
        Arc::clone(&metrics),
    );
    let untouched = Document::with_runtime(
        parse_term("x(y(z) y)").unwrap(),
        EngineConfig::default(),
        Arc::clone(&cache),
        Arc::clone(&metrics),
    );
    // One miss each to populate the pooled cache.
    edited.engine().xpath("//a[b]").unwrap();
    untouched.engine().xpath("//y[z]").unwrap();
    assert_eq!(cache.len(), 2);
    let warm = metrics.snapshot();
    assert_eq!(warm.plan_cache_misses, 2);

    let mut state = 0xDA3E39CB94B95BDBu64;
    for _ in 0..20 {
        let op = random_op(&mut state, edited.tree().len() as u32);
        edited.edit(&op);
        // The untouched document's entry must still hit.
        untouched.engine().xpath("//y[z]").unwrap();
    }
    let m = metrics.snapshot();
    assert_eq!(
        m.plan_cache_misses, 2,
        "editing one document evicted another's plans"
    );
    assert_eq!(m.plan_cache_hits, warm.plan_cache_hits + 20);

    // The hit-rate is exported as Prometheus counters.
    let samples = m.samples();
    let counter = |name: &str| -> u64 {
        let snap = samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} not exported"));
        match snap.value {
            obs::metrics::MetricValue::Counter(v) => v,
            ref other => panic!("{name} is not a counter: {other:?}"),
        }
    };
    assert_eq!(counter("treequery_engine_plan_cache_misses"), 2);
    assert!(counter("treequery_engine_plan_cache_hits") >= 20);
}

#[test]
fn eval_batch_around_edits_is_linearizable() {
    let queries: Vec<Query> = vec![
        Query::xpath("//a[b]"),
        Query::xpath("//b"),
        Query::cq("q(x) :- label(x, a), child(x, y), label(y, b)."),
        Query::datalog("P(x) :- label(x, b). ?- P."),
    ];
    let mut doc = Document::new(parse_term("r(a(b) a(b c) c)").unwrap());
    let mut state = 0xC2B2AE3D27D4EB4Fu64;
    for _ in 0..12 {
        let batch = doc.engine().eval_batch(&queries);
        // Every batch answer equals a cold sequential answer over a
        // from-scratch rebuild of the tree the batch observed.
        let rebuilt = parse_term(&to_term(doc.tree())).unwrap();
        let cold = Engine::new(&rebuilt);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                canon(batch[i].as_ref().unwrap(), doc.tree()),
                canon(&cold.eval(q).unwrap(), &rebuilt),
                "batch answer {i} not linearizable"
            );
        }
        let op = random_op(&mut state, doc.tree().len() as u32);
        doc.edit(&op);
    }
    // An edit between two batches must be visible to the second.
    let mut doc = Document::new(parse_term("r(a(b))").unwrap());
    let before = doc.engine().eval_batch(&queries);
    doc.edit(&EditOp::Relabel {
        pre: 2,
        label: "z".to_owned(),
    })
    .unwrap();
    let after = doc.engine().eval_batch(&queries);
    match (&before[1], &after[1]) {
        (Ok(QueryOutput::Nodes(b)), Ok(QueryOutput::Nodes(a))) => {
            assert_eq!(b.len(), 1);
            assert!(a.is_empty(), "the relabel must be visible to the batch");
        }
        other => panic!("unexpected outputs {other:?}"),
    }
}
