//! Protocol conformance: golden request/response transcripts per verb,
//! malformed/oversized/unknown-frame rejection with structured errors,
//! and the version handshake.
//!
//! The golden transcripts run through [`treequery_serve::replay_lines`] —
//! the same replay engine the CI gate uses on the committed transcript —
//! so the subset-matching semantics are themselves under test here.

mod util;

use treequery_obs::{parse_json, Json};
use treequery_serve::client::replay_lines;
use treequery_serve::{ServerConfig, PROTOCOL_VERSION};
use util::{code, expect_ok, spawn, TestConn};

/// Every verb round-trips with its pinned response shape. The `_expect`
/// patterns are the golden half: a field listed here is a wire-format
/// commitment.
#[test]
fn golden_transcript_covers_every_verb() {
    let server = spawn();
    let transcript = r#"
# --- handshake ---------------------------------------------------------
{"verb":"hello","version":1,"_expect":{"ok":true,"server":"treequery-serve","version":1}}
# --- load: term syntax, then the duplicate is refused -------------------
{"verb":"load","name":"t","term":"r(a(b) a(b c) c)","_expect":{"ok":true,"doc":"t","nodes":7,"fingerprint":"*"}}
{"verb":"load","name":"t","term":"x","_expect":{"ok":false,"code":"duplicate_document"}}
# --- list ---------------------------------------------------------------
{"verb":"list","_expect":{"ok":true,"docs":[{"name":"t","nodes":7,"edits":0,"fingerprint":"*"}]}}
# --- query: all three front-ends, rows as pre ranks ---------------------
{"verb":"query","doc":"t","lang":"xpath","text":"//a[b]","_expect":{"ok":true,"id":"*","kind":"nodes","rows":[1,3],"strategy":"*","cost":"*","wall_us":"*"}}
{"verb":"query","doc":"t","lang":"cq","text":"q(x,y) :- label(x, a), child(x, y), label(y, b).","_expect":{"ok":true,"kind":"tuples","rows":[[1,2],[3,4]],"satisfiable":true}}
{"verb":"query","doc":"t","lang":"datalog","text":"P(x) :- label(x, c). ?- P.","_expect":{"ok":true,"kind":"nodes","rows":[5,6]}}
# --- explain ------------------------------------------------------------
{"verb":"explain","doc":"t","lang":"xpath","text":"//a[b]","_expect":{"ok":true,"source":"xpath","strategy":"*","cost":"*","estimated_work":"*","workers":"*","rationale":"*"}}
# --- edit: relabel pre 2 (the first a's b), re-query sees it ------------
{"verb":"edit","doc":"t","script":"relabel(2,z)","_expect":{"ok":true,"applied":1,"skipped":0,"nodes":7,"edits":1}}
{"verb":"query","doc":"t","lang":"xpath","text":"//a[b]","_expect":{"ok":true,"rows":[3]}}
# --- stats --------------------------------------------------------------
{"verb":"stats","doc":"t","_expect":{"ok":true,"docs":1,"cached_plans":"*","engine":{"queries_executed":"*"},"doc":{"name":"t","nodes":7,"edits":1}}}
# --- cancel with nothing running ---------------------------------------
{"verb":"cancel","tag":"nothing","_expect":{"ok":false,"code":"no_such_query"}}
# --- structured request errors -----------------------------------------
{"verb":"frobnicate","_expect":{"ok":false,"code":"unknown_verb"}}
{"verb":"query","doc":"t","lang":"sql","text":"select 1","_expect":{"ok":false,"code":"bad_field"}}
{"verb":"query","doc":"t","lang":"xpath","text":"//a[[[","_expect":{"ok":false,"code":"query_error"}}
{"verb":"query","doc":"nope","lang":"xpath","text":"//a","_expect":{"ok":false,"code":"no_such_document"}}
{"verb":"query","doc":"t","lang":"xpath","_expect":{"ok":false,"code":"missing_field"}}
{"verb":"edit","doc":"t","script":"gibberish","_expect":{"ok":false,"code":"edit_rejected"}}
{"verb":"drop","name":"nope","_expect":{"ok":false,"code":"no_such_document"}}
# --- drop ---------------------------------------------------------------
{"verb":"drop","name":"t","_expect":{"ok":true,"dropped":"t"}}
{"verb":"list","_expect":{"ok":true,"docs":[]}}
"#;
    let report = replay_lines(server.port(), transcript).expect("transcript replays");
    assert!(report.checks >= 20, "all _expect patterns checked");
    server.shutdown().unwrap();
}

/// The edit-script syntax must match `treequery_tree::parse_script`.
/// (The golden above assumes `relabel(2,z)`; pin the assumption.)
#[test]
fn edit_script_syntax_is_the_tree_crates() {
    assert!(treequery_tree::parse_script("relabel(2,z); insert(0,0,q); delete(1)").is_ok());
}

#[test]
fn malformed_frames_get_structured_errors_and_the_session_survives() {
    let server = spawn();
    let mut conn = TestConn::open(server.port());
    conn.send_raw("this is not json");
    let resp = conn.recv();
    assert_eq!(code(&resp), Some("malformed_frame"), "{}", resp.render());
    // Not dropped: the handshake still works afterwards.
    let resp = conn.request(
        Json::obj()
            .set("verb", "hello")
            .set("version", PROTOCOL_VERSION),
    );
    expect_ok(resp);
    server.shutdown().unwrap();
}

#[test]
fn oversized_lines_are_rejected_without_buffering_or_disconnecting() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    // A 2 MiB line: twice the frame cap.
    let mut big = String::with_capacity(2 << 20);
    big.push_str("{\"verb\":\"load\",\"name\":\"big\",\"term\":\"");
    while big.len() < (2 << 20) {
        big.push('x');
    }
    big.push_str("\"}");
    conn.send_raw(&big);
    let resp = conn.recv();
    assert_eq!(code(&resp), Some("oversized_frame"), "{}", resp.render());
    // The reader resynchronized on the newline: normal traffic resumes.
    let resp = conn.request(Json::obj().set("verb", "list"));
    expect_ok(resp);
    server.shutdown().unwrap();
}

#[test]
fn deeply_nested_frames_are_too_deep_and_the_server_keeps_serving() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    // Half a million `[` — under the frame cap, but deep enough to
    // overflow a recursive parser's stack and take every tenant down.
    conn.send_raw(&"[".repeat(500_000));
    let resp = conn.recv();
    assert_eq!(code(&resp), Some("too_deep"), "{}", resp.render());
    expect_ok(conn.request(Json::obj().set("verb", "list")));
    // Other connections are unaffected too.
    let mut other = TestConn::hello(server.port());
    expect_ok(other.request(Json::obj().set("verb", "list")));
    server.shutdown().unwrap();
}

/// An XPath query nested 100,000 qualifiers deep is refused with a
/// query error; parsing it used to overflow the session thread's stack.
#[test]
fn deeply_nested_xpath_is_refused_and_the_server_keeps_serving() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "d")
                .set("term", "r(a(a) b)"),
        ),
    );
    let text = format!("//a{}{}", "[a".repeat(100_000), "]".repeat(100_000));
    let resp = conn.request(
        Json::obj()
            .set("verb", "query")
            .set("doc", "d")
            .set("lang", "xpath")
            .set("text", text),
    );
    assert_eq!(code(&resp), Some("query_error"), "{}", resp.render());
    expect_ok(conn.request(Json::obj().set("verb", "list")));
    server.shutdown().unwrap();
}

/// A `load` of a 100,000-deep chain is refused as too deep before the
/// document is built; building it used to overflow the stack (and label
/// the chain in quadratic memory).
#[test]
fn too_deep_trees_are_refused_at_load_and_the_server_keeps_serving() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    let term = format!("{}b{}", "a(".repeat(100_000), ")".repeat(100_000));
    let resp = conn.request(
        Json::obj()
            .set("verb", "load")
            .set("name", "deep")
            .set("term", term),
    );
    assert_eq!(code(&resp), Some("too_deep"), "{}", resp.render());
    let list = expect_ok(conn.request(Json::obj().set("verb", "list")));
    assert_eq!(
        list.get("docs").and_then(Json::as_arr).map(<[_]>::len),
        Some(0)
    );
    server.shutdown().unwrap();
}

/// A reply too large for one socket buffer must not wait out the
/// client's delayed-ACK timer (~40 ms): it leaves in one write, with
/// `TCP_NODELAY` set.
#[test]
fn large_answers_do_not_stall_on_delayed_acks() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "x")
                .set("xmark", 3_000u64),
        ),
    );
    let query = Json::obj()
        .set("verb", "query")
        .set("doc", "x")
        .set("lang", "xpath")
        .set("text", "//*");
    let resp = expect_ok(conn.request(query.clone()));
    let rows = resp.get("rows").and_then(Json::as_arr).unwrap().len();
    assert!(rows > 2_000, "{rows} rows");
    let bytes = resp.render().len();
    assert!(
        bytes > 8 << 10,
        "{bytes}-byte reply outgrows an 8 KiB buffer"
    );
    let mut round_trips: Vec<std::time::Duration> = (0..10)
        .map(|_| {
            let started = std::time::Instant::now();
            expect_ok(conn.request(query.clone()));
            started.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(20),
        "median round trip {median:?} for a {bytes}-byte reply: {round_trips:?}"
    );
    server.shutdown().unwrap();
}

#[test]
fn version_mismatch_answers_then_closes() {
    let server = spawn();
    let mut conn = TestConn::open(server.port());
    let resp = conn.request(Json::obj().set("verb", "hello").set("version", 99u64));
    assert_eq!(code(&resp), Some("version_mismatch"), "{}", resp.render());
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("version 1")),
        "the error names the version the server speaks: {}",
        resp.render()
    );
    assert!(
        conn.try_recv().is_none(),
        "connection closes after mismatch"
    );
    server.shutdown().unwrap();
}

#[test]
fn verbs_before_hello_are_refused_but_not_fatal() {
    let server = spawn();
    let mut conn = TestConn::open(server.port());
    let resp = conn.request(Json::obj().set("verb", "list"));
    assert_eq!(code(&resp), Some("expected_hello"));
    // A proper hello afterwards still succeeds on the same connection.
    let resp = conn.request(
        Json::obj()
            .set("verb", "hello")
            .set("version", PROTOCOL_VERSION),
    );
    expect_ok(resp);
    expect_ok(conn.request(Json::obj().set("verb", "list")));
    server.shutdown().unwrap();
}

#[test]
fn hello_without_version_is_a_structured_missing_field() {
    let server = spawn();
    let mut conn = TestConn::open(server.port());
    let resp = conn.request(Json::obj().set("verb", "hello"));
    assert_eq!(code(&resp), Some("missing_field"));
    server.shutdown().unwrap();
}

#[test]
fn metrics_verb_returns_valid_exposition_with_per_verb_counters() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "m")
                .set("term", "r(a b)"),
        ),
    );
    expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "query")
                .set("doc", "m")
                .set("lang", "xpath")
                .set("text", "//a"),
        ),
    );
    let resp = expect_ok(conn.request(Json::obj().set("verb", "metrics")));
    let text = resp.get("exposition").and_then(Json::as_str).unwrap();
    let samples = treequery_obs::prom::validate_exposition(text).expect("valid exposition");
    assert!(samples > 5, "got {samples} samples:\n{text}");
    assert!(
        text.contains("treequery_serve_requests{verb=\"query\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("treequery_serve_requests{verb=\"load\"} 1"),
        "{text}"
    );
    assert!(text.contains("treequery_serve_sessions_opened 1"), "{text}");
    assert!(text.contains("treequery_serve_sessions_active 1"), "{text}");
    assert!(
        text.contains("treequery_engine_queries_executed 1"),
        "{text}"
    );
    // The one query was lowered once and looked up in the plan cache
    // once: admission and execution share one plan.
    for line in [
        "treequery_engine_queries_lowered 1\n",
        "treequery_engine_plan_cache_misses 1\n",
        "treequery_engine_plan_cache_hits 0\n",
    ] {
        assert!(text.contains(line), "{line:?} missing:\n{text}");
    }
    // Every engine counter is exported, typed as a counter.
    for counter in [
        "queries_lowered",
        "plans_computed",
        "plan_cache_hits",
        "plan_cache_misses",
        "queries_executed",
        "queries_cancelled",
        "batch_queries",
        "semijoin_passes",
        "candidate_nodes",
        "union_parts",
        "nodes_swept",
        "backtrack_assignments",
        "parallel_kernels",
        "parallel_chunks",
    ] {
        let type_line = format!("# TYPE treequery_engine_{counter} counter\n");
        assert!(text.contains(&type_line), "{type_line:?} missing:\n{text}");
    }
    assert!(
        text.contains("# TYPE treequery_engine_plans_cached gauge\n"),
        "{text}"
    );
    server.shutdown().unwrap();
}

#[test]
fn shutdown_refuses_new_work_and_stops_the_accept_loop() {
    let server = spawn();
    let shared = server.shared();
    let mut conn = TestConn::hello(server.port());
    let resp = expect_ok(conn.request(Json::obj().set("verb", "shutdown")));
    assert_eq!(resp.get("shutting_down"), Some(&Json::Bool(true)));
    // The ack is written *before* the flag flips (so the requester always
    // sees it); give the session thread a beat to set the flag.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while !shared.shutting_down() {
        assert!(
            std::time::Instant::now() < deadline,
            "shutdown flag not set"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // The run loop exits; the spawned thread joins cleanly.
    server.shutdown().unwrap();
}

#[test]
fn responses_are_single_lines_of_json() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    // A term with characters that need escaping must still be one line.
    let resp = conn.request(
        Json::obj()
            .set("verb", "query")
            .set("doc", "missing")
            .set("lang", "xpath")
            .set("text", "line\nbreak"),
    );
    assert!(!resp.render().contains('\n'));
    assert!(parse_json(&resp.render()).is_ok());
    server.shutdown().unwrap();
}

#[test]
fn two_servers_coexist_in_one_process() {
    // The per-server metrics registry means no global-state collision.
    let a = spawn();
    let b = util::spawn_with(ServerConfig::default());
    let mut ca = TestConn::hello(a.port());
    let mut cb = TestConn::hello(b.port());
    expect_ok(
        ca.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "only-on-a")
                .set("term", "r(a)"),
        ),
    );
    let resp = expect_ok(cb.request(Json::obj().set("verb", "list")));
    assert_eq!(resp.get("docs"), Some(&Json::Arr(vec![])));
    a.shutdown().unwrap();
    b.shutdown().unwrap();
}
