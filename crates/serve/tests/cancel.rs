//! The cancellation battery: deadline-exceeded enumeration stops within
//! one chunk, explicit CANCEL works cross-connection, cancelled queries
//! leave every piece of shared state consistent, pool workers come back,
//! and concurrent QUERY/EDIT/CANCEL traffic stays linearizable.

mod util;

use std::time::{Duration, Instant};

use proptest::prelude::*;
use treequery_core::{
    plan, CancelReason, Document, Engine, EngineConfig, EngineError, ExplainedPlan, Query,
};
use treequery_obs::Json;
use treequery_tree::{cancel, parse_term, CancelToken, Tree, TreeBuilder};
use util::{code, expect_ok, spawn, TestConn};

/// The heavy query of the battery: label-restricted `following`
/// enumeration — output-sensitive, so on an XMark document its answer is
/// hundreds of thousands of tuples while the reducer phase stays cheap.
const RUNAWAY: &str = "q(x, y) :- label(x, bidder), following(x, y).";

fn load_xmark(conn: &mut TestConn, name: &str, nodes: u64) -> u64 {
    let resp = expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "load")
                .set("name", name)
                .set("xmark", nodes),
        ),
    );
    resp.get("nodes").and_then(Json::as_u64).unwrap()
}

fn query(doc: &str, lang: &str, text: &str) -> Json {
    Json::obj()
        .set("verb", "query")
        .set("doc", doc)
        .set("lang", lang)
        .set("text", text)
}

/// The PR's acceptance gate: a deadline-pinned runaway enumeration over a
/// ~5000-node XMark tree stops within one chunk — cancelled wall time a
/// small fraction of the uncancelled wall — and the session survives to
/// answer the next query correctly.
#[test]
fn deadline_stops_a_runaway_enumeration_within_one_chunk() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    let nodes = load_xmark(&mut conn, "x", 5000);
    assert!(
        nodes >= 3000,
        "xmark scaled_to(5000) came out tiny: {nodes}"
    );

    // Uncancelled baseline.
    let started = Instant::now();
    let full = expect_ok(conn.request(query("x", "cq", RUNAWAY)));
    let uncancelled = started.elapsed();
    let total_rows = full.get("rows").and_then(Json::as_arr).unwrap().len();
    assert!(
        total_rows > 10_000,
        "runaway query is not a runaway: {total_rows} rows"
    );

    // Same query, 30 ms deadline: must come back with the structured
    // deadline code in a small fraction of the uncancelled wall.
    let started = Instant::now();
    let cancelled = conn.request(query("x", "cq", RUNAWAY).set("deadline_ms", 30u64));
    let cancelled_wall = started.elapsed();
    assert_eq!(
        code(&cancelled),
        Some("deadline_exceeded"),
        "{}",
        cancelled.render()
    );
    assert!(
        cancelled_wall * 5 < uncancelled,
        "cancellation was not prompt: cancelled {cancelled_wall:?} vs uncancelled {uncancelled:?}"
    );

    // The session survives and the next query on the same connection is
    // answered correctly (compare against an uncontended re-run).
    let again = expect_ok(conn.request(query("x", "cq", RUNAWAY)));
    assert_eq!(
        again.get("rows").and_then(Json::as_arr).unwrap().len(),
        total_rows,
        "post-cancellation answer diverged"
    );
    let people = expect_ok(conn.request(query("x", "xpath", "//people/person")));
    assert!(!people
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap()
        .is_empty());

    // The cancellation is visible in the shared engine metrics.
    let snap = server.shared().catalog().metrics().snapshot();
    assert!(snap.queries_cancelled >= 1, "{snap:?}");
    server.shutdown().unwrap();
}

/// Explicit CANCEL from a second connection: the canonical flow, since
/// the first connection is blocked waiting for its answer.
#[test]
fn cancel_by_tag_from_another_connection() {
    let server = spawn();
    let mut a = TestConn::hello(server.port());
    load_xmark(&mut a, "x", 5000);

    // A fires the runaway with a client tag and blocks.
    a.send(&query("x", "cq", RUNAWAY).set("tag", "slow-1"));

    // B cancels by tag, retrying until the victim has registered.
    let mut b = TestConn::hello(server.port());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = b.request(Json::obj().set("verb", "cancel").set("tag", "slow-1"));
        if resp.get("ok") == Some(&Json::Bool(true)) {
            break;
        }
        assert_eq!(code(&resp), Some("no_such_query"), "{}", resp.render());
        assert!(Instant::now() < deadline, "victim never registered");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A's blocked request resolves with the cancelled code...
    let resp = a.recv();
    assert_eq!(code(&resp), Some("cancelled"), "{}", resp.render());
    // ...and the session keeps working.
    let resp = expect_ok(a.request(query("x", "xpath", "//open_auction[bidder]")));
    assert!(!resp.get("rows").and_then(Json::as_arr).unwrap().is_empty());
    server.shutdown().unwrap();
}

fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = Tree> {
    (
        proptest::collection::vec(any::<u32>(), 0..max_nodes),
        proptest::collection::vec(0u8..4, 1..=max_nodes),
    )
        .prop_map(|(parents, labels)| {
            const ALPHABET: [&str; 4] = ["a", "b", "c", "d"];
            let mut b = TreeBuilder::new();
            let mut nodes = vec![b.root(ALPHABET[labels[0] as usize % 4])];
            for (i, p) in parents.iter().enumerate() {
                let parent = nodes[(*p as usize) % nodes.len()];
                let label = ALPHABET[labels.get(i + 1).copied().unwrap_or(0) as usize % 4];
                nodes.push(b.child(parent, label));
            }
            b.freeze()
        })
}

/// The query mix the consistency property runs: every front-end, acyclic
/// and cyclic CQs, a rewrite-union shape, and datalog recursion.
const MIX: [(&str, &str); 6] = [
    ("xpath", "//a[b]/c"),
    ("xpath", "//a[not(b)]"),
    ("cq", "q(x, y) :- label(x, a), child(x, y), label(y, b)."),
    (
        "cq",
        "q(x, y) :- label(x, a), following(x, y), label(y, b).",
    ),
    (
        "cq",
        "q(x) :- a(x), descendant(x, y), descendant(x, z), b(y), c(z).",
    ),
    (
        "datalog",
        "P(x) :- label(x, b). P(x) :- child(x, y), P(y). ?- P.",
    ),
];

fn mk_query(lang: &str, text: &str) -> Query {
    match lang {
        "xpath" => Query::xpath(text),
        "cq" => Query::cq(text),
        _ => Query::datalog(text),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: a cancelled query (a) surfaces `Cancelled` with the
    /// right reason, (b) leaves the document, plan cache, and metrics in
    /// a state where the *same* query re-run answers byte-identically to
    /// a fresh engine over the same tree.
    #[test]
    fn cancelled_queries_leave_shared_state_consistent(
        t in tree_strategy(40),
        qi in 0usize..MIX.len(),
    ) {
        let (lang, text) = MIX[qi];
        let q = mk_query(lang, text);
        let doc = Document::new(t.clone());

        // A pre-tripped token: the executor's entry checkpoint fires, so
        // the outcome is deterministic regardless of tree size.
        let token = CancelToken::new();
        token.cancel();
        let before = doc.metrics().snapshot();
        let r = cancel::with_token(&token, || doc.engine().eval(&q));
        prop_assert!(
            matches!(r, Err(EngineError::Cancelled(CancelReason::Cancelled))),
            "expected Cancelled, got {r:?}"
        );
        let after = doc.metrics().snapshot();
        prop_assert_eq!(after.queries_cancelled, before.queries_cancelled + 1);

        // Re-run on the same (shared-cache) document vs a fresh engine.
        let live = CancelToken::new();
        let warm = cancel::with_token(&live, || doc.engine().eval(&q)).unwrap();
        let fresh = Engine::new(&t).eval(&q).unwrap();
        prop_assert_eq!(&warm, &fresh);
        prop_assert_eq!(format!("{warm:?}"), format!("{fresh:?}"));
    }

    /// Property: a *deadline* token either finishes with the right
    /// answer or fails with `DeadlineExceeded` — never a wrong answer,
    /// never a panic — and shared state stays consistent either way.
    #[test]
    fn racing_deadlines_never_corrupt_answers(
        t in tree_strategy(60),
        qi in 0usize..MIX.len(),
        deadline_us in 0u64..500,
    ) {
        let (lang, text) = MIX[qi];
        let q = mk_query(lang, text);
        let doc = Document::new(t.clone());
        let token = CancelToken::with_deadline(Duration::from_micros(deadline_us));
        match cancel::with_token(&token, || doc.engine().eval(&q)) {
            Ok(out) => {
                let fresh = Engine::new(&t).eval(&q).unwrap();
                prop_assert_eq!(out, fresh);
            }
            Err(EngineError::Cancelled(reason)) => {
                prop_assert_eq!(reason, CancelReason::DeadlineExceeded);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
        // Whatever happened, the document still answers correctly.
        let warm = doc.engine().eval(&q).unwrap();
        let fresh = Engine::new(&t).eval(&q).unwrap();
        prop_assert_eq!(warm, fresh);
    }
}

/// Pool workers drained by a cancelled parallel kernel must come back:
/// hammer cancelled evals (sequential and parallel configs), then prove
/// a normal eval still runs and matches a fresh engine.
#[test]
fn cancelled_queries_free_pool_workers() {
    let tree =
        parse_term("r(a(b(c) b) a(b(c(a b) c) b) c(a(b) b(c)) a(b c(a) b) c(b) a(b(c) c) b(a c))")
            .unwrap();
    for workers in [1usize, 4] {
        let mut config = EngineConfig::default();
        config.planner.workers = Some(workers);
        config.planner.parallel_threshold = 0; // force chunked dispatch
        let engine = Engine::with_config(&tree, config);
        let q = Query::xpath("//a[b]/c");
        for _ in 0..10 {
            let token = CancelToken::new();
            token.cancel();
            let r = cancel::with_token(&token, || engine.eval(&q));
            assert!(matches!(r, Err(EngineError::Cancelled(_))), "{r:?}");
        }
        // If a cancelled chunk wedged a worker, this would hang or err.
        let out = engine.eval(&q).unwrap();
        let fresh = Engine::new(&tree).eval(&q).unwrap();
        assert_eq!(out, fresh, "workers={workers}");
    }
}

/// `Engine::run` with a forced plan — how `harness fuzz` and `bench`
/// pin strategies — observes the ambient token for *every* applicable
/// strategy. One kernel code path; no cancellation-free
/// clone.
#[test]
fn every_applicable_strategy_observes_the_ambient_token() {
    let tree = parse_term("r(a(b c) a(b) c(a(b)))").unwrap();
    let engine = Engine::new(&tree);
    let queries = [
        Query::xpath("//a[b]/c"),
        Query::cq("q(x, y) :- label(x, a), following(x, y), label(y, b)."),
        Query::datalog("P(x) :- label(x, b). ?- P."),
    ];
    let mut strategies_seen = 0;
    for q in &queries {
        let ir = engine.lower(q).unwrap();
        for strategy in plan::applicable_strategies(&ir) {
            let token = CancelToken::new();
            token.cancel();
            let forced = ExplainedPlan::forced(&ir, strategy, 1);
            let r = cancel::with_token(&token, || engine.run(&ir, &forced));
            assert!(
                matches!(r, Err(EngineError::Cancelled(CancelReason::Cancelled))),
                "strategy {strategy:?} ignored the token: {r:?}"
            );
            strategies_seen += 1;
        }
    }
    assert!(
        strategies_seen >= 7,
        "only {strategies_seen} strategies exercised"
    );
}

/// Stress: concurrent sessions interleaving QUERY, EDIT, and CANCEL on
/// one document, checked against a sequential oracle. Edits only insert
/// `zz` leaves, so every observed `//zz` count must be non-decreasing
/// per session, and the final count must equal the number of applied
/// inserts.
#[test]
fn concurrent_query_edit_cancel_traffic_is_linearizable() {
    let server = spawn();
    let mut setup = TestConn::hello(server.port());
    expect_ok(
        setup.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "s")
                .set("term", "r(a(b c) a(b) c(a) b(a c))"),
        ),
    );
    let port = server.port();

    const SESSIONS: usize = 4;
    const ROUNDS: usize = 12;
    let handles: Vec<_> = (0..SESSIONS)
        .map(|sid| {
            std::thread::spawn(move || -> usize {
                let mut conn = TestConn::hello(port);
                let mut applied = 0usize;
                let mut last_count = 0usize;
                for round in 0..ROUNDS {
                    match (sid + round) % 3 {
                        0 => {
                            let resp = expect_ok(
                                conn.request(
                                    Json::obj()
                                        .set("verb", "edit")
                                        .set("doc", "s")
                                        .set("script", "insert(0,0,zz)"),
                                ),
                            );
                            applied += resp.get("applied").and_then(Json::as_u64).unwrap() as usize;
                        }
                        1 => {
                            let resp = conn.request(query("s", "xpath", "//zz"));
                            match code(&resp) {
                                None => {
                                    let n = resp.get("rows").and_then(Json::as_arr).unwrap().len();
                                    assert!(
                                        n >= last_count,
                                        "session {sid}: zz count regressed {last_count} -> {n}"
                                    );
                                    last_count = n;
                                }
                                Some("cancelled") => {} // a peer's cancel landed on us
                                Some(c) => panic!("session {sid}: unexpected code {c}"),
                            }
                        }
                        _ => {
                            let resp = conn
                                .request(Json::obj().set("verb", "cancel").set("tag", "phantom"));
                            assert_eq!(code(&resp), Some("no_such_query"));
                        }
                    }
                }
                applied
            })
        })
        .collect();
    let total_applied: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();

    // Sequential oracle: the final state must show exactly the applied
    // inserts, and re-running the count twice must agree byte-for-byte.
    let resp = expect_ok(setup.request(query("s", "xpath", "//zz")));
    let final_rows = resp.get("rows").and_then(Json::as_arr).unwrap().len();
    assert_eq!(final_rows, total_applied);
    let resp2 = expect_ok(setup.request(query("s", "xpath", "//zz")));
    assert_eq!(resp.get("rows"), resp2.get("rows"));
    server.shutdown().unwrap();
}
