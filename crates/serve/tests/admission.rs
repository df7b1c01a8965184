//! Admission control under contention: with a heavy-lane cap of 2, slow
//! deadline-pinned enumerations must not delay a point lookup past a
//! gated bound (the fast lane), further heavy queries are rejected with
//! a structured error, and the policy's counters scrape as valid
//! Prometheus exposition.

mod util;

use std::time::{Duration, Instant};

use treequery_obs::Json;
use treequery_serve::ServerConfig;
use util::{code, expect_ok, spawn_with, TestConn};

/// A Boolean CQ with a `<pre` cycle: NP-hard shape, planned as
/// exponential backtracking that cannot finish on a 5,000-node document
/// within the test, so its heavy slot stays held until it is cancelled.
const RUNAWAY: &str =
    "q() :- descendant(x1, x2), following(x2, x3), pre_lt(x3, x4), pre_lt(x4, x1).";

fn query(doc: &str, lang: &str, text: &str) -> Json {
    Json::obj()
        .set("verb", "query")
        .set("doc", doc)
        .set("lang", lang)
        .set("text", text)
}

#[test]
fn fast_lane_bypasses_a_saturated_heavy_lane() {
    let server = spawn_with(ServerConfig {
        heavy_cap: 2,
        admit_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let port = server.port();
    let mut setup = TestConn::hello(port);
    expect_ok(
        setup.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "x")
                .set("xmark", 5000u64),
        ),
    );

    // Two runaway heavy queries pin both heavy slots. Generous
    // deadlines keep them running for the whole experiment; the deadline
    // also guarantees cleanup if an assertion fires first.
    let mut heavy1 = TestConn::hello(port);
    let mut heavy2 = TestConn::hello(port);
    heavy1.send(
        &query("x", "cq", RUNAWAY)
            .set("deadline_ms", 20_000u64)
            .set("tag", "h1"),
    );
    heavy2.send(
        &query("x", "cq", RUNAWAY)
            .set("deadline_ms", 20_000u64)
            .set("tag", "h2"),
    );

    // Wait until both are registered in-flight (visible via the metrics
    // gauge) so the saturation is real, not a race.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = expect_ok(setup.request(Json::obj().set("verb", "metrics")));
        let text = resp
            .get("exposition")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        if text.contains("treequery_serve_queries_inflight 2") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "heavy queries never registered:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The point lookup is linear (fast lane): it must answer well inside
    // the admission timeout, unaffected by the saturated heavy lane.
    let started = Instant::now();
    let resp = expect_ok(setup.request(query("x", "xpath", "//people/person")));
    let lookup_wall = started.elapsed();
    assert_eq!(
        resp.get("admission").and_then(Json::as_str),
        Some("fast_lane")
    );
    assert!(
        lookup_wall < Duration::from_secs(2),
        "point lookup delayed {lookup_wall:?} behind the heavy lane"
    );

    // A third heavy query cannot get a slot and is rejected after the
    // (short) admission timeout with the structured code.
    let mut heavy3 = TestConn::hello(port);
    let resp = heavy3.request(query("x", "cq", RUNAWAY));
    assert_eq!(code(&resp), Some("admission_rejected"), "{}", resp.render());

    // Unblock the pinned slots so shutdown is prompt.
    for tag in ["h1", "h2"] {
        let resp = setup.request(Json::obj().set("verb", "cancel").set("tag", tag));
        // The slow query may have finished on its own; both are fine.
        assert!(
            resp.get("ok") == Some(&Json::Bool(true)) || code(&resp) == Some("no_such_query"),
            "{}",
            resp.render()
        );
    }
    let r1 = heavy1.recv();
    let r2 = heavy2.recv();
    for r in [&r1, &r2] {
        assert!(
            r.get("ok") == Some(&Json::Bool(true)) || code(r) == Some("cancelled"),
            "{}",
            r.render()
        );
    }

    // The counters tell the story and the exposition validates.
    let resp = expect_ok(setup.request(Json::obj().set("verb", "metrics")));
    let text = resp.get("exposition").and_then(Json::as_str).unwrap();
    let samples = treequery_obs::prom::validate_exposition(text).expect("valid exposition");
    assert!(samples >= 10, "{samples} samples:\n{text}");
    let queued = sample_value(text, "treequery_admission_queued");
    let rejected = sample_value(text, "treequery_admission_rejected");
    assert!(queued >= 1, "third heavy query never queued:\n{text}");
    assert!(rejected >= 1, "third heavy query never rejected:\n{text}");
    server.shutdown().unwrap();
}

/// Extracts an unlabeled sample's value from exposition text.
fn sample_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} not in exposition:\n{text}"))
        .trim()
        .parse()
        .expect("sample value")
}

#[test]
fn linear_queries_never_consume_heavy_slots() {
    let server = spawn_with(ServerConfig {
        heavy_cap: 1,
        admit_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let mut conn = TestConn::hello(server.port());
    expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "t")
                .set("term", "r(a(b) a(b c) c)"),
        ),
    );
    // A burst of linear lookups, then sequential heavy queries: none of
    // this contends, so every response is ok and fast.
    for _ in 0..5 {
        let resp = expect_ok(conn.request(query("t", "xpath", "//a[b]")));
        assert_eq!(
            resp.get("admission").and_then(Json::as_str),
            Some("fast_lane")
        );
    }
    let resp =
        expect_ok(conn.request(query("t", "cq", "q(x, y) :- label(x, a), following(x, y).")));
    assert_ne!(
        resp.get("admission").and_then(Json::as_str),
        Some("fast_lane")
    );
    server.shutdown().unwrap();
}
