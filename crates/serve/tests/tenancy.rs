//! The tenant-observatory battery: trace ids on every reply, per-tenant
//! usage accounting through the `usage` verb and the `/tenants`
//! exposition, SLO reporting, flight-record attribution, and graceful
//! drain on shutdown.

mod util;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use treequery_obs::{flight, prom, Json};
use treequery_serve::{spawn_observatory, ServerConfig, PROTOCOL_VERSION};
use util::{code, expect_ok, spawn, spawn_with, TestConn};

/// A query whose answer enumeration is effectively unbounded on an XMark
/// document — the drain tests' victim. (Same shape the CI transcript
/// uses; the planner classes it NP-hard, so it lands in the heavy lane.)
const NP_RUNAWAY: &str =
    "q() :- descendant(x1, x2), following(x2, x3), pre_lt(x3, x4), pre_lt(x4, x1).";

/// A heavy-but-finite enumeration: finishes in well under the generous
/// drain budget, so a graceful shutdown should let it complete.
const FINITE_RUNAWAY: &str = "q(x, y) :- label(x, bidder), following(x, y).";

fn hello_as(port: u16, tenant: &str) -> TestConn {
    let mut conn = TestConn::open(port);
    let resp = expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "hello")
                .set("version", PROTOCOL_VERSION)
                .set("tenant", tenant),
        ),
    );
    assert_eq!(
        resp.get("tenant").and_then(Json::as_str),
        Some(tenant),
        "{}",
        resp.render()
    );
    conn
}

fn query(doc: &str, lang: &str, text: &str) -> Json {
    Json::obj()
        .set("verb", "query")
        .set("doc", doc)
        .set("lang", lang)
        .set("text", text)
}

fn trace_of(resp: &Json) -> &str {
    resp.get("trace_id")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("reply without trace_id: {}", resp.render()))
}

fn tenant_row<'a>(usage: &'a Json, tenant: &str) -> &'a Json {
    usage
        .get("tenants")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no tenants array: {}", usage.render()))
        .iter()
        .find(|row| row.get("tenant").and_then(Json::as_str) == Some(tenant))
        .unwrap_or_else(|| panic!("tenant {tenant:?} missing: {}", usage.render()))
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no u64 {key:?} in {}", v.render()))
}

/// Every reply carries a trace id: client-supplied ones are echoed
/// verbatim, absent ones are server-generated, and error replies carry
/// one too.
#[test]
fn trace_ids_are_echoed_or_generated_on_every_reply() {
    let server = spawn();
    let mut conn = TestConn::hello(server.port());
    expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "t")
                .set("term", "r(a(b) c)"),
        ),
    );

    let resp = expect_ok(conn.request(query("t", "xpath", "//a").set("trace_id", "trace-42")));
    assert_eq!(trace_of(&resp), "trace-42");

    let resp = expect_ok(conn.request(query("t", "xpath", "//a")));
    assert!(
        trace_of(&resp).starts_with("srv-"),
        "generated trace id: {}",
        resp.render()
    );

    // Errors carry trace ids too.
    let resp = conn.request(query("nope", "xpath", "//a").set("trace_id", "trace-err"));
    assert_eq!(code(&resp), Some("no_such_document"));
    assert_eq!(trace_of(&resp), "trace-err");

    // A malformed trace id is itself a structured error (with a
    // server-generated id, since the client's is unusable).
    let resp = conn.request(query("t", "xpath", "//a").set("trace_id", ""));
    assert_eq!(code(&resp), Some("bad_field"), "{}", resp.render());
    assert!(trace_of(&resp).starts_with("srv-"));
    let resp = conn.request(query("t", "xpath", "//a").set("trace_id", "x".repeat(200)));
    assert_eq!(code(&resp), Some("bad_field"), "{}", resp.render());

    server.shutdown().unwrap();
}

/// Two tenants on one server: the `usage` verb's totals reflect exactly
/// what each tenant did — queries, rows, bytes, edits, errors — and the
/// `slo` verb reports per-class attainment.
#[test]
fn usage_accounting_separates_tenants() {
    let server = spawn();
    let mut alpha = hello_as(server.port(), "alpha");
    let mut beta = hello_as(server.port(), "beta");

    expect_ok(
        alpha.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "t")
                .set("term", "r(a(b) a(b c) c)"),
        ),
    );
    let q1 = expect_ok(alpha.request(query("t", "xpath", "//a[b]")));
    let q1_rows = q1.get("rows").and_then(Json::as_arr).unwrap().len() as u64;
    expect_ok(alpha.request(query("t", "xpath", "//c")));
    expect_ok(
        alpha.request(
            Json::obj()
                .set("verb", "edit")
                .set("doc", "t")
                .set("script", "relabel(2,z)"),
        ),
    );
    let resp = alpha.request(query("gone", "xpath", "//a"));
    assert_eq!(code(&resp), Some("no_such_document"));

    expect_ok(beta.request(query("t", "xpath", "//a")));

    let usage = expect_ok(alpha.request(Json::obj().set("verb", "usage")));
    let a = tenant_row(&usage, "alpha");
    assert_eq!(u64_field(a, "queries"), 2, "{}", usage.render());
    assert!(u64_field(a, "rows") >= q1_rows);
    assert!(u64_field(a, "wall_ns") > 0);
    assert!(u64_field(a, "resp_bytes") > 0);
    assert_eq!(u64_field(a, "edits"), 1);
    assert_eq!(u64_field(a, "errors"), 1);
    assert_eq!(u64_field(a, "cancelled"), 0);
    let b = tenant_row(&usage, "beta");
    assert_eq!(u64_field(b, "queries"), 1);
    assert_eq!(u64_field(b, "edits"), 0);
    assert_eq!(u64_field(b, "errors"), 0);

    // A tenant's cancellations are charged to it, not to the tenant
    // whose `cancel` verb did the cancelling. A zero deadline is already
    // expired, so the entry checkpoint fires deterministically.
    let resp = beta.request(query("t", "cq", NP_RUNAWAY).set("deadline_ms", 0u64));
    assert_eq!(code(&resp), Some("deadline_exceeded"), "{}", resp.render());
    let usage = expect_ok(alpha.request(Json::obj().set("verb", "usage")));
    assert_eq!(u64_field(tenant_row(&usage, "beta"), "cancelled"), 1);
    assert_eq!(u64_field(tenant_row(&usage, "alpha"), "cancelled"), 0);

    // The SLO report: both completed classes show their traffic as good
    // events (everything here is far under the default thresholds).
    let slo = expect_ok(alpha.request(Json::obj().set("verb", "slo")));
    assert_eq!(u64_field(&slo, "target_ppm"), 990_000);
    let classes = slo.get("classes").and_then(Json::as_arr).unwrap();
    let linear = classes
        .iter()
        .find(|c| c.get("class").and_then(Json::as_str) == Some("linear"))
        .expect("linear class");
    assert!(
        u64_field(linear.get("fast").unwrap(), "good") >= 1,
        "{}",
        slo.render()
    );
    server.shutdown().unwrap();
}

fn http_get(port: u16, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect observatory");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_owned(), body.to_owned())
}

/// The observatory listener: `/tenants` and `/slo` serve valid
/// Prometheus expositions scoped to their families, `/metrics` the full
/// registry, and the whole thing shuts down with the server.
#[test]
fn observatory_serves_tenant_and_slo_expositions() {
    let server = spawn();
    let obs_port = spawn_observatory(server.shared(), "127.0.0.1:0").expect("observatory");
    let mut conn = hello_as(server.port(), "alpha");
    expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "t")
                .set("term", "r(a(b) c)"),
        ),
    );
    expect_ok(conn.request(query("t", "xpath", "//a")));

    let (head, body) = http_get(obs_port, "/tenants");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    prom::validate_exposition(&body).expect("tenants exposition validates");
    assert!(
        body.contains("treequery_tenant_queries{tenant=\"alpha\"} 1"),
        "{body}"
    );
    assert!(
        !body.contains("treequery_serve_requests"),
        "/tenants is scoped to tenant families: {body}"
    );

    let (head, body) = http_get(obs_port, "/slo");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    prom::validate_exposition(&body).expect("slo exposition validates");
    assert!(
        body.contains("treequery_slo_fast_attainment_ppm{class=\"linear\"} 1000000"),
        "{body}"
    );

    let (head, body) = http_get(obs_port, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    prom::validate_exposition(&body).expect("metrics exposition validates");
    assert!(body.contains("treequery_tenant_queries"), "{body}");

    let (head, _) = http_get(obs_port, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    server.shutdown().unwrap();
    // The shutdown poke reaches the observatory's accept loop: it stops
    // answering (connect may still succeed briefly; reads return EOF).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(("127.0.0.1", obs_port)) {
            Err(_) => break,
            Ok(mut s) => {
                let _ = write!(s, "GET / HTTP/1.1\r\nHost: x\r\n\r\n");
                let mut buf = String::new();
                if s.read_to_string(&mut buf).is_err() || buf.is_empty() {
                    break;
                }
            }
        }
        assert!(Instant::now() < deadline, "observatory kept serving");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// With the flight recorder installed, a wire query's record carries the
/// session tenant, the request trace id, and the response size — the
/// end-to-end join the tentpole promises.
#[test]
fn flight_records_join_tenant_trace_and_response() {
    let server = spawn();
    let mut conn = hello_as(server.port(), "gamma");
    expect_ok(
        conn.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "t")
                .set("term", "r(a(b) a(b c) c)"),
        ),
    );
    flight::install(flight::FlightConfig::default());
    let resp =
        expect_ok(conn.request(query("t", "xpath", "//a[b]").set("trace_id", "tr-flight-1")));
    assert_eq!(trace_of(&resp), "tr-flight-1");
    let record = flight::recent()
        .into_iter()
        .find(|r| r.trace_id == "tr-flight-1")
        .expect("flight record for tr-flight-1");
    flight::uninstall();

    assert_eq!(record.tenant, "gamma");
    assert!(record.resp_bytes > 0, "resp_bytes annotated");
    assert_eq!(
        record.resp_bytes,
        resp.render().len() as u64 + 1,
        "resp_bytes is the wire length (body + newline)"
    );
    let span_names: Vec<&str> = record.spans.iter().map(|s| s.name).collect();
    for expected in ["serve.lock", "serve.admission", "serve.serialize"] {
        assert!(
            span_names.contains(&expected),
            "span {expected} missing from {span_names:?}"
        );
    }
    // The evaluation's span tree rides along exactly once, and the reply
    // serialization closes last.
    let runs = span_names.iter().filter(|n| **n == "exec.run").count();
    assert_eq!(runs, 1, "{span_names:?}");
    assert_eq!(span_names.last(), Some(&"serve.serialize"));
    server.shutdown().unwrap();
}

fn wait_for_inflight(conn: &mut TestConn, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = expect_ok(conn.request(Json::obj().set("verb", "stats")));
        if resp.get("inflight").and_then(Json::as_u64).unwrap_or(0) >= at_least {
            return;
        }
        assert!(Instant::now() < deadline, "query never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Graceful drain, the cut-off side: a shutdown with a short budget and
/// an unbounded query in flight reports `cancelled:1`, and the victim's
/// connection gets the structured cancelled code.
#[test]
fn drain_cancels_unbounded_queries_past_budget() {
    let server = spawn_with(ServerConfig {
        drain: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut victim = hello_as(server.port(), "heavy");
    expect_ok(
        victim.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "x")
                .set("xmark", 5000u64),
        ),
    );
    victim.send(&query("x", "cq", NP_RUNAWAY).set("trace_id", "tr-doomed"));

    let mut admin = hello_as(server.port(), "admin");
    wait_for_inflight(&mut admin, 1);
    let ack = expect_ok(admin.request(Json::obj().set("verb", "shutdown")));
    assert_eq!(ack.get("shutting_down"), Some(&Json::Bool(true)));
    assert_eq!(u64_field(&ack, "cancelled"), 1, "{}", ack.render());
    assert_eq!(u64_field(&ack, "drained"), 0, "{}", ack.render());

    let resp = victim.recv();
    assert_eq!(code(&resp), Some("cancelled"), "{}", resp.render());
    assert_eq!(trace_of(&resp), "tr-doomed");
    server.shutdown().unwrap();
}

/// Graceful drain, the finish side: with a generous budget, an in-flight
/// finite query completes normally — `cancelled:0` in the ack and a full
/// answer on the victim's connection.
#[test]
fn drain_lets_finite_queries_finish() {
    let server = spawn_with(ServerConfig {
        drain: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let mut worker = hello_as(server.port(), "worker");
    expect_ok(
        worker.request(
            Json::obj()
                .set("verb", "load")
                .set("name", "x")
                .set("xmark", 5000u64),
        ),
    );
    worker.send(&query("x", "cq", FINITE_RUNAWAY));

    let mut admin = hello_as(server.port(), "admin");
    wait_for_inflight(&mut admin, 1);
    let ack = expect_ok(admin.request(Json::obj().set("verb", "shutdown")));
    assert_eq!(u64_field(&ack, "cancelled"), 0, "{}", ack.render());
    assert_eq!(u64_field(&ack, "drained"), 1, "{}", ack.render());

    let resp = expect_ok(worker.recv());
    assert!(
        resp.get("rows").and_then(Json::as_arr).unwrap().len() > 10_000,
        "the drained query returned its full answer"
    );
    server.shutdown().unwrap();
}
