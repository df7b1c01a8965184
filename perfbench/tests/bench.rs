//! The benchmark's own tests: seeded inputs repeat, stay in their bands,
//! and the oracle accepts the server's real replies but flags corrupted
//! ones. Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::OnceLock;

use perfbench::measure::check_node_band;
use perfbench::oracle::{self, Expected};
use perfbench::wire::Conn;
use perfbench::workload::{
    self, edit_line, edit_plan, query_line, QueryStream, Workload, DOC_NAME, LIVE_LEAVES,
};
use treequery_core::obs::Json;
use treequery_core::tree::{to_term, Tree};

fn doc() -> &'static Tree {
    static DOC: OnceLock<Tree> = OnceLock::new();
    DOC.get_or_init(workload::document)
}

fn expected(w: Workload) -> Vec<Expected> {
    oracle::expectations(doc(), w.pool()).expect("every pool query evaluates")
}

#[test]
fn same_seed_gives_the_same_request_stream() {
    for w in Workload::ALL {
        let len = w.pool().len();
        for conn in 0..w.readers() {
            let a: Vec<usize> = QueryStream::new(42, conn, len).take(500).collect();
            let b: Vec<usize> = QueryStream::new(42, conn, len).take(500).collect();
            let other: Vec<usize> = QueryStream::new(43, conn, len).take(500).collect();
            assert_eq!(a, b, "{} conn {conn}", w.name());
            assert_ne!(a, other, "{} conn {conn}: seed is ignored", w.name());
        }
    }
    let a = edit_plan(doc(), 42, 12);
    let b = edit_plan(doc(), 42, 12);
    assert_eq!(a.texts, b.texts);
    assert_eq!(a.fingerprints, b.fingerprints);
    assert_ne!(a.texts, edit_plan(doc(), 43, 12).texts);
}

#[test]
fn three_seeds_stay_inside_every_band() {
    assert_eq!(doc().len(), 39_607);
    for w in Workload::ALL {
        let exp = expected(w);
        oracle::check_band(w.pool(), &exp, w.band()).unwrap();
        for seed in [1, 2, 3] {
            // Every round sends each pool entry once: a fixed mix.
            let mut counts = vec![0; exp.len()];
            for q in QueryStream::new(seed, 0, exp.len()).take(10 * exp.len()) {
                counts[q] += 1;
            }
            assert!(
                counts.iter().all(|&c| c == 10),
                "{} seed {seed}: {counts:?}",
                w.name()
            );
        }
    }
    for seed in [1, 2, 3] {
        let plan = edit_plan(doc(), seed, 3 * LIVE_LEAVES);
        check_node_band(&plan).unwrap();
        assert_eq!(*plan.nodes.last().unwrap(), doc().len() + LIVE_LEAVES);
        assert!(plan.live_pres.iter().all(|l| l.len() <= LIVE_LEAVES));
    }
}

#[test]
fn oracle_flags_a_corrupted_reply() {
    let exp = expected(Workload::Navigate);
    let e = &exp[0];
    let reply = format!(
        "{{\"ok\":true,\"id\":1,\"kind\":\"nodes\",\"rows\":{}}}",
        e.rows
    );
    assert!(oracle::check_query(&reply, e));

    let corrupted = reply.replacen(&e.pres[3].to_string(), &(e.pres[3] + 1).to_string(), 1);
    assert!(!oracle::check_query(&corrupted, e));
    let truncated = reply.replacen(&format!(",{}]", e.pres.last().unwrap()), "]", 1);
    assert!(!oracle::check_query(&truncated, e));
    let error = "{\"ok\":false,\"code\":\"query_error\",\"error\":\"boom\"}";
    assert!(!oracle::check_query(error, e));

    // Under edits, rows shift past the live inserted leaves.
    let plan = edit_plan(doc(), 5, 4);
    let live = &plan.live_pres[4];
    let shifted: Vec<Json> = e
        .pres
        .iter()
        .map(|&p| Json::from(workload::shift_pre(p, live)))
        .collect();
    let reply = format!("{{\"ok\":true,\"rows\":{}}}", Json::Arr(shifted).render());
    assert!(oracle::check_query_versions(
        &reply,
        e,
        &plan.live_pres[3..=4]
    ));
    assert!(!oracle::check_query_versions(
        &reply,
        e,
        &plan.live_pres[0..=0]
    ));
    assert!(!oracle::check_query_versions(
        &reply.replacen('[', "[9", 1),
        e,
        &plan.live_pres[3..=4]
    ));

    let fp = plan.fingerprints[0];
    let edit_reply = format!(
        "{{\"ok\":true,\"nodes\":{},\"fingerprint\":\"{fp:016x}\"}}",
        plan.nodes[0]
    );
    assert!(oracle::check_edit(&edit_reply, plan.nodes[0], fp));
    assert!(!oracle::check_edit(&edit_reply, plan.nodes[0], fp ^ 1));
    assert!(!oracle::check_edit(&edit_reply, plan.nodes[0] + 1, fp));
}

/// The real server's replies satisfy the oracle: every pool query of
/// every workload, and edit scripts with queries between them.
#[test]
fn oracle_accepts_the_servers_replies() {
    let server = treequery_serve::Server::spawn(treequery_serve::ServerConfig::default())
        .expect("server starts");
    let mut conn = Conn::open(server.port()).expect("connects");
    let load = Json::obj()
        .set("verb", "load")
        .set("name", DOC_NAME)
        .set("term", to_term(doc()))
        .render()
        + "\n";
    assert!(conn.call(&load).unwrap().starts_with("{\"ok\":true"));
    for w in [Workload::Navigate, Workload::Join, Workload::Bulk] {
        for (&(lang, text), e) in w.pool().iter().zip(expected(w)) {
            let reply = conn.call(&query_line(lang, text)).unwrap().to_owned();
            let head = &reply[..reply.len().min(300)];
            assert!(oracle::check_query(&reply, &e), "{text}: {head}");
        }
    }

    let exp = expected(Workload::EditMix);
    let plan = edit_plan(doc(), 9, 2 * LIVE_LEAVES);
    for (i, script) in plan.texts.iter().enumerate() {
        let reply = conn.call(&edit_line(script)).unwrap().to_owned();
        assert!(
            oracle::check_edit(&reply, plan.nodes[i], plan.fingerprints[i]),
            "{script}: {reply}"
        );
        let (lang, text) = Workload::EditMix.pool()[i % exp.len()];
        let reply = conn.call(&query_line(lang, text)).unwrap().to_owned();
        let e = &exp[i % exp.len()];
        assert!(
            oracle::check_query_versions(&reply, e, &plan.live_pres[i + 1..=i + 1]),
            "{text}"
        );
    }
    server.shutdown().expect("server stops");
}
