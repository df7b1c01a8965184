//! One connection's session: hello handshake, verb dispatch, and the
//! query path that threads deadlines, cancellation, and tracing through
//! the engine.
//!
//! The protocol is synchronous per connection — one response per request,
//! in order — which is exactly why `cancel` matters: a connection blocked
//! on a long `query` cannot speak, so the cancel arrives on a *second*
//! connection and finds the victim through the server's in-flight
//! registry ([`crate::server::Shared`]).
//!
//! Lock discipline per request: catalog lookup under the catalog read
//! lock (released immediately), then the document's own `RwLock` — read
//! for `query`/`explain`/`stats`, write for `edit` — held across
//! evaluation. Cancellation needs no locks at all: it trips an atomic
//! flag the kernels poll at chunk boundaries.
//!
//! Tracing: every reply carries a `trace_id` — the request's own if it
//! supplied one, server-generated otherwise — and for `query` the same
//! id is threaded into the flight recorder, so a reply can be joined to
//! its full span tree in `/flight` after the fact. The session's tenant
//! (declared at `hello`) labels the usage counters and rides along on
//! the same flight record.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery_core::{CancelReason, CostClass, EngineError, Query, QueryOutput};
use treequery_obs::{flight, span, Json};
use treequery_tree::{parse_script, parse_term, xmark_document, CancelToken, Tree, XmarkConfig};

use crate::admission::AdmissionVerdict;
use crate::proto::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use crate::server::Shared;

/// Longest accepted client-supplied trace id.
const MAX_TRACE_ID_BYTES: usize = 128;
/// Longest accepted tenant name.
const MAX_TENANT_BYTES: usize = 64;
/// The tenant a connection accounts to until `hello` declares one.
const ANONYMOUS_TENANT: &str = "anonymous";

/// What the session loop does after sending a response.
pub(crate) enum Flow {
    Continue,
    Close,
    /// Close, then stop the whole server. The response goes out *before*
    /// the accept loop is woken, so the requester always sees the ack
    /// even though the process is about to exit.
    CloseAndShutdown,
}

/// Per-connection protocol state: the handshake latch and the tenant
/// every request on this connection accounts to.
pub(crate) struct SessionState {
    hello_done: bool,
    tenant: String,
}

impl Default for SessionState {
    fn default() -> SessionState {
        SessionState {
            hello_done: false,
            tenant: ANONYMOUS_TENANT.to_owned(),
        }
    }
}

/// Serves one accepted connection to completion.
pub(crate) fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    shared.sessions_opened.inc();
    shared.sessions_active.add(1);
    let _active = DecrementOnDrop(&shared);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut sess = SessionState::default();

    loop {
        let frame = match proto::read_frame(&mut reader) {
            Ok(f) => f,
            Err(_) => return, // connection error; nothing to say
        };
        let req = match frame {
            Frame::Eof => return,
            Frame::Oversized => {
                let body = proto::error(
                    ErrorCode::OversizedFrame,
                    format!("line exceeds {} bytes", proto::MAX_LINE_BYTES),
                );
                if send(&shared, &mut writer, &body).is_err() {
                    return;
                }
                continue;
            }
            Frame::Malformed(msg) => {
                let body = proto::error(ErrorCode::MalformedFrame, msg);
                if send(&shared, &mut writer, &body).is_err() {
                    return;
                }
                continue;
            }
            Frame::Value(v) => v,
        };
        let (body, flow) = route(&shared, &req, &mut sess);
        if send(&shared, &mut writer, &body).is_err() {
            return;
        }
        match flow {
            Flow::Continue => {}
            Flow::Close => return,
            Flow::CloseAndShutdown => {
                shared.request_shutdown();
                return;
            }
        }
    }
}

struct DecrementOnDrop<'a>(&'a Shared);
impl Drop for DecrementOnDrop<'_> {
    fn drop(&mut self) {
        self.0.sessions_active.add(-1);
    }
}

fn send(shared: &Shared, writer: &mut impl Write, body: &Json) -> std::io::Result<()> {
    if let Some(code) = body.get("code").and_then(Json::as_str) {
        shared.errors.with_label(code).inc();
    }
    writer.write_all(body.render().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// The request's trace id: the client's own if present and sane, a fresh
/// server-generated one otherwise.
fn resolve_trace_id(shared: &Shared, req: &Json) -> Result<String, Json> {
    match req.get("trace_id") {
        None => Ok(shared.make_trace_id()),
        Some(v) => match v.as_str() {
            Some(t) if !t.is_empty() && t.len() <= MAX_TRACE_ID_BYTES => Ok(t.to_owned()),
            _ => Err(proto::error(
                ErrorCode::BadField,
                format!(
                    "'trace_id' must be a non-empty string of at most {MAX_TRACE_ID_BYTES} bytes"
                ),
            )),
        },
    }
}

/// The optional tenant declaration on a `hello` frame.
fn hello_tenant(req: &Json) -> Result<Option<String>, Json> {
    match req.get("tenant") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(t) if !t.is_empty() && t.len() <= MAX_TENANT_BYTES => Ok(Some(t.to_owned())),
            _ => Err(proto::error(
                ErrorCode::BadField,
                format!("'tenant' must be a non-empty string of at most {MAX_TENANT_BYTES} bytes"),
            )),
        },
    }
}

/// Dispatches one parsed request. Pure with respect to the connection:
/// all I/O stays in the caller, which is what the protocol tests lean
/// on. Every reply — success or error — is stamped with the request's
/// trace id, and error codes are charged to the session's tenant.
pub(crate) fn route(shared: &Shared, req: &Json, sess: &mut SessionState) -> (Json, Flow) {
    let (body, flow, trace_id) = match resolve_trace_id(shared, req) {
        Ok(trace_id) => {
            let (body, flow) = dispatch(shared, req, sess, &trace_id);
            (body, flow, trace_id)
        }
        Err(e) => {
            shared.requests.with_label("invalid").inc();
            (e, Flow::Continue, shared.make_trace_id())
        }
    };
    if sess.hello_done {
        if let Some(code) = body.get("code").and_then(Json::as_str) {
            shared.usage.record_error_code(&sess.tenant, code);
        }
    }
    (body.set("trace_id", trace_id), flow)
}

fn dispatch(shared: &Shared, req: &Json, sess: &mut SessionState, trace_id: &str) -> (Json, Flow) {
    let Some(verb) = req.get("verb").and_then(Json::as_str) else {
        shared.requests.with_label("invalid").inc();
        return (
            proto::error(ErrorCode::MissingField, "request needs a string 'verb'"),
            Flow::Continue,
        );
    };
    let known = [
        "hello", "load", "drop", "list", "query", "edit", "explain", "stats", "cancel", "usage",
        "slo", "metrics", "shutdown",
    ];
    let counted = if known.contains(&verb) {
        verb
    } else {
        "unknown"
    };
    shared.requests.with_label(counted).inc();

    if shared.shutting_down() && verb != "hello" {
        return (
            proto::error(ErrorCode::ShuttingDown, "server is shutting down"),
            Flow::Close,
        );
    }
    if !sess.hello_done {
        if verb != "hello" {
            return (
                proto::error(
                    ErrorCode::ExpectedHello,
                    "first frame must be {\"verb\":\"hello\",\"version\":1}",
                ),
                Flow::Continue,
            );
        }
        return match req.get("version").and_then(Json::as_u64) {
            Some(PROTOCOL_VERSION) => match hello_tenant(req) {
                Ok(tenant) => {
                    sess.hello_done = true;
                    if let Some(t) = tenant {
                        sess.tenant = t;
                    }
                    shared.usage.touch(&sess.tenant);
                    (
                        proto::ok()
                            .set("server", "treequery-serve")
                            .set("version", PROTOCOL_VERSION)
                            .set("tenant", sess.tenant.as_str()),
                        Flow::Continue,
                    )
                }
                Err(e) => (e, Flow::Continue),
            },
            Some(v) => (
                proto::error(
                    ErrorCode::VersionMismatch,
                    format!("server speaks version {PROTOCOL_VERSION}, client sent {v}"),
                ),
                Flow::Close,
            ),
            None => (
                proto::error(ErrorCode::MissingField, "hello needs an integer 'version'"),
                Flow::Continue,
            ),
        };
    }

    let body = match verb {
        // Re-hello may switch the tenant the rest of the connection
        // accounts to.
        "hello" => match hello_tenant(req) {
            Ok(tenant) => {
                if let Some(t) = tenant {
                    sess.tenant = t;
                    shared.usage.touch(&sess.tenant);
                }
                proto::ok()
                    .set("server", "treequery-serve")
                    .set("version", PROTOCOL_VERSION)
                    .set("tenant", sess.tenant.as_str())
            }
            Err(e) => e,
        },
        "load" => verb_load(shared, req),
        "drop" => verb_drop(shared, req),
        "list" => verb_list(shared),
        "query" => verb_query(shared, req, sess, trace_id),
        "edit" => {
            let body = verb_edit(shared, req);
            if matches!(body.get("ok"), Some(Json::Bool(true))) {
                shared.usage.record_edit(&sess.tenant);
            }
            body
        }
        "explain" => verb_explain(shared, req),
        "stats" => verb_stats(shared, req),
        "cancel" => verb_cancel(shared, req),
        "usage" => proto::ok().set("tenants", shared.usage.to_json()),
        "slo" => proto::ok()
            .set("target_ppm", shared.slo.target_ppm())
            .set("classes", shared.slo.to_json()),
        "metrics" => proto::ok().set("exposition", shared.render_metrics()),
        "shutdown" => {
            // Refuse new work immediately (flag only — the listener
            // pokes wait until the ack is flushed, or the accept loop
            // could exit and take the process down mid-drain), then
            // drain: in-flight queries get the configured budget to
            // finish before their cancel tokens are tripped. The ack
            // reports how the drain went.
            shared.begin_shutdown();
            let (drained, cancelled) = shared.drain_inflight();
            return (
                proto::ok()
                    .set("shutting_down", true)
                    .set("drained", drained)
                    .set("cancelled", cancelled),
                Flow::CloseAndShutdown,
            );
        }
        other => proto::error(ErrorCode::UnknownVerb, format!("unknown verb {other:?}")),
    };
    (body, Flow::Continue)
}

fn need_str<'a>(req: &'a Json, key: &str) -> Result<&'a str, Json> {
    match req.get(key) {
        Some(v) => v
            .as_str()
            .ok_or_else(|| proto::error(ErrorCode::BadField, format!("'{key}' must be a string"))),
        None => Err(proto::error(
            ErrorCode::MissingField,
            format!("missing field '{key}'"),
        )),
    }
}

fn opt_u64(req: &Json, key: &str) -> Result<Option<u64>, Json> {
    match req.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            proto::error(
                ErrorCode::BadField,
                format!("'{key}' must be a non-negative integer"),
            )
        }),
    }
}

fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

fn verb_load(shared: &Shared, req: &Json) -> Json {
    let name = match need_str(req, "name") {
        Ok(n) => n,
        Err(e) => return e,
    };
    let tree: Tree = if let Some(term) = req.get("term") {
        let Some(term) = term.as_str() else {
            return proto::error(ErrorCode::BadField, "'term' must be a string");
        };
        match parse_term(term) {
            Ok(t) => t,
            Err(e) => return proto::error(ErrorCode::BadField, format!("term: {e}")),
        }
    } else if let Some(n) = req.get("xmark") {
        let Some(n) = n.as_u64() else {
            return proto::error(ErrorCode::BadField, "'xmark' must be a node count");
        };
        let seed = match opt_u64(req, "seed") {
            Ok(s) => s.unwrap_or(42),
            Err(e) => return e,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        xmark_document(&mut rng, &XmarkConfig::scaled_to(n as usize))
    } else {
        return proto::error(
            ErrorCode::MissingField,
            "load needs 'term' (term syntax) or 'xmark' (node count)",
        );
    };
    match shared.catalog.load(name, tree) {
        Ok(info) => proto::ok()
            .set("doc", info.name)
            .set("nodes", info.nodes)
            .set("fingerprint", fingerprint_hex(info.fingerprint)),
        Err(code) => proto::error(code, format!("document {name:?} already exists")),
    }
}

fn verb_drop(shared: &Shared, req: &Json) -> Json {
    let name = match need_str(req, "name") {
        Ok(n) => n,
        Err(e) => return e,
    };
    if shared.catalog.drop_doc(name) {
        proto::ok().set("dropped", name)
    } else {
        proto::error(ErrorCode::NoSuchDocument, format!("no document {name:?}"))
    }
}

fn verb_list(shared: &Shared) -> Json {
    let docs: Vec<Json> = shared
        .catalog
        .list()
        .into_iter()
        .map(|d| {
            Json::obj()
                .set("name", d.name)
                .set("nodes", d.nodes)
                .set("fingerprint", fingerprint_hex(d.fingerprint))
                .set("edits", d.edits)
        })
        .collect();
    proto::ok().set("docs", docs)
}

/// Builds the [`Query`] a request describes: `lang` ∈
/// {`xpath`, `cq`, `datalog`} plus `text`.
fn parse_query(req: &Json) -> Result<Query, Json> {
    let lang = need_str(req, "lang")?;
    let text = need_str(req, "text")?;
    match lang {
        "xpath" => Ok(Query::xpath(text)),
        "cq" => Ok(Query::cq(text)),
        "datalog" => Ok(Query::datalog(text)),
        other => Err(proto::error(
            ErrorCode::BadField,
            format!("'lang' must be xpath|cq|datalog, got {other:?}"),
        )),
    }
}

/// Renders a query answer as pre-order ranks — positions in the current
/// tree's document order, the only node naming that is meaningful to a
/// client across the wire.
fn rows_json(tree: &Tree, out: &QueryOutput) -> Json {
    match out {
        QueryOutput::Nodes(nodes) => {
            let rows: Vec<Json> = nodes.iter().map(|&v| Json::from(tree.pre(v))).collect();
            Json::obj().set("kind", "nodes").set("rows", rows)
        }
        QueryOutput::Answer(a) => {
            let rows: Vec<Json> = a
                .tuples
                .iter()
                .map(|t| Json::Arr(t.iter().map(|&v| Json::from(tree.pre(v))).collect()))
                .collect();
            Json::obj()
                .set("kind", "tuples")
                .set("rows", rows)
                .set("satisfiable", !a.tuples.is_empty())
        }
    }
}

fn engine_error_json(err: &EngineError, id: u64) -> Json {
    let code = match err {
        EngineError::Cancelled(CancelReason::Cancelled) => ErrorCode::Cancelled,
        EngineError::Cancelled(CancelReason::DeadlineExceeded) => ErrorCode::DeadlineExceeded,
        _ => ErrorCode::QueryError,
    };
    proto::error(code, err.to_string()).set("id", id)
}

/// The SLO class key for a planner cost class — the same strings
/// [`crate::server::default_objectives`] registers.
fn cost_class_key(cost: CostClass) -> &'static str {
    match cost {
        CostClass::Linear => "linear",
        CostClass::OutputSensitive => "output_sensitive",
        CostClass::Polynomial => "polynomial",
        CostClass::Exponential => "exponential",
    }
}

fn verb_query(shared: &Shared, req: &Json, sess: &SessionState, trace_id: &str) -> Json {
    let doc_name = match need_str(req, "doc") {
        Ok(n) => n,
        Err(e) => return e,
    };
    let query = match parse_query(req) {
        Ok(q) => q,
        Err(e) => return e,
    };
    let deadline_ms = match opt_u64(req, "deadline_ms") {
        Ok(d) => d,
        Err(e) => return e,
    };
    let tag = req.get("tag").and_then(Json::as_str).map(str::to_owned);
    let Some(doc) = shared.catalog.get(doc_name) else {
        return proto::error(
            ErrorCode::NoSuchDocument,
            format!("no document {doc_name:?}"),
        );
    };

    // With the flight recorder installed the whole request is recorded —
    // from before the document lock and admission — so the serve-side
    // spans land on the same record as the engine's evaluation spans, and
    // the record carries this request's tenant, trace id and response
    // size.
    flight::record_request(|| {
        let doc = {
            let _lock = span("serve.lock");
            doc.read().expect("document poisoned")
        };
        let engine = doc.engine();
        // Lower + plan first: parse errors answer immediately, and the
        // plan's cost class is what admission keys on.
        let ir = match engine.lower(&query) {
            Ok(ir) => ir,
            Err(e) => return proto::error(ErrorCode::QueryError, e.to_string()),
        };
        let plan = match engine.explain(&query) {
            Ok(p) => p,
            Err(e) => return proto::error(ErrorCode::QueryError, e.to_string()),
        };

        let token = match deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        // Registered *before* evaluation starts so a racing `cancel` on
        // another connection can always find us by id or tag.
        let id = shared.register_query(token.clone(), tag);
        let _unregister = UnregisterOnDrop { shared, id };

        let admit_started = Instant::now();
        let admitted = {
            let _admission = span("serve.admission");
            shared.admission.admit(plan.cost, shared.admit_timeout)
        };
        let admission_wait_ns = admit_started.elapsed().as_nanos() as u64;
        let Ok((_permit, verdict)) = admitted else {
            return proto::error(
                ErrorCode::AdmissionRejected,
                format!(
                    "heavy lane full ({} slots) and no slot freed within {:?}",
                    shared.admission.cap(),
                    shared.admit_timeout
                ),
            )
            .set("id", id);
        };

        let ctx = flight::RequestCtx {
            tenant: sess.tenant.clone(),
            trace_id: trace_id.to_owned(),
            admission_wait_ns,
        };
        let started = Instant::now();
        let result = flight::with_request_ctx(ctx, || engine.eval_ir_with_cancel(&ir, &token));
        let wall_ns = started.elapsed().as_nanos() as u64;
        match result {
            Ok(out) => {
                let row_count = match &out {
                    QueryOutput::Nodes(v) => v.len() as u64,
                    QueryOutput::Answer(a) => a.tuples.len() as u64,
                };
                // The trace id is stamped here, before the body is
                // measured, so `resp_bytes` equals what actually goes on
                // the wire (the router's later re-stamp is idempotent).
                let serialize = span("serve.serialize");
                let rows = rows_json(doc.tree(), &out);
                let mut body = proto::ok()
                    .set("id", id)
                    .set("doc", doc_name)
                    .set("strategy", format!("{:?}", plan.strategy))
                    .set("cost", plan.cost.to_string())
                    .set("admission", admission_str(verdict))
                    .set("wall_us", wall_ns / 1_000)
                    .set("trace_id", trace_id);
                if let Json::Obj(fields) = rows {
                    for (k, v) in fields {
                        body = body.set(k, v);
                    }
                }
                let resp_bytes = (body.render().len() + 1) as u64; // + '\n'
                drop(serialize);
                flight::annotate_response(resp_bytes);
                shared.usage.record_query(
                    &sess.tenant,
                    wall_ns,
                    row_count,
                    resp_bytes,
                    matches!(verdict, AdmissionVerdict::Queued),
                );
                shared.slo.observe(cost_class_key(plan.cost), wall_ns);
                body
            }
            Err(e) => engine_error_json(&e, id),
        }
    })
}

fn admission_str(v: AdmissionVerdict) -> &'static str {
    match v {
        AdmissionVerdict::FastLane => "fast_lane",
        AdmissionVerdict::Immediate => "immediate",
        AdmissionVerdict::Queued => "queued",
    }
}

struct UnregisterOnDrop<'a> {
    shared: &'a Shared,
    id: u64,
}
impl Drop for UnregisterOnDrop<'_> {
    fn drop(&mut self) {
        self.shared.unregister_query(self.id);
    }
}

fn verb_edit(shared: &Shared, req: &Json) -> Json {
    let doc_name = match need_str(req, "doc") {
        Ok(n) => n,
        Err(e) => return e,
    };
    let script = match need_str(req, "script") {
        Ok(s) => s,
        Err(e) => return e,
    };
    let ops = match parse_script(script) {
        Ok(ops) => ops,
        Err(e) => return proto::error(ErrorCode::EditRejected, e.to_string()),
    };
    let Some(doc) = shared.catalog.get(doc_name) else {
        return proto::error(
            ErrorCode::NoSuchDocument,
            format!("no document {doc_name:?}"),
        );
    };
    let mut doc = doc.write().expect("document poisoned");
    let applied = doc.apply_script(&ops);
    proto::ok()
        .set("doc", doc_name)
        .set("applied", applied)
        .set("skipped", ops.len() - applied)
        .set("nodes", doc.tree().len())
        .set("fingerprint", fingerprint_hex(doc.fingerprint()))
        .set("edits", doc.edit_count())
}

fn verb_explain(shared: &Shared, req: &Json) -> Json {
    let doc_name = match need_str(req, "doc") {
        Ok(n) => n,
        Err(e) => return e,
    };
    let query = match parse_query(req) {
        Ok(q) => q,
        Err(e) => return e,
    };
    let Some(doc) = shared.catalog.get(doc_name) else {
        return proto::error(
            ErrorCode::NoSuchDocument,
            format!("no document {doc_name:?}"),
        );
    };
    let doc = doc.read().expect("document poisoned");
    match doc.engine().explain(&query) {
        Ok(plan) => proto::ok()
            .set("doc", doc_name)
            .set("source", plan.source.to_string())
            .set("strategy", format!("{:?}", plan.strategy))
            .set("cost", plan.cost.to_string())
            .set("estimated_work", plan.estimated_work)
            .set("workers", plan.workers)
            .set("rationale", plan.rationale)
            .set("parallel_rationale", plan.parallel_rationale),
        Err(e) => proto::error(ErrorCode::QueryError, e.to_string()),
    }
}

fn verb_stats(shared: &Shared, req: &Json) -> Json {
    let snap = shared.catalog.metrics().snapshot();
    let mut body = proto::ok()
        .set("docs", shared.catalog.len())
        .set("cached_plans", shared.catalog.plan_cache().len())
        .set("inflight", shared.inflight_count() as u64)
        .set("engine", snap.to_json());
    if let Some(name) = req.get("doc").and_then(Json::as_str) {
        let Some(doc) = shared.catalog.get(name) else {
            return proto::error(ErrorCode::NoSuchDocument, format!("no document {name:?}"));
        };
        let doc = doc.read().expect("document poisoned");
        body = body.set(
            "doc",
            Json::obj()
                .set("name", name)
                .set("nodes", doc.tree().len())
                .set("fingerprint", fingerprint_hex(doc.fingerprint()))
                .set("edits", doc.edit_count())
                .set("refreezes", doc.refreeze_count()),
        );
    }
    body
}

fn verb_cancel(shared: &Shared, req: &Json) -> Json {
    let by_id = match opt_u64(req, "id") {
        Ok(v) => v,
        Err(e) => return e,
    };
    let by_tag = req.get("tag").and_then(Json::as_str);
    let cancelled = match (by_id, by_tag) {
        (Some(id), None) => shared.cancel_by_id(id),
        (None, Some(tag)) => shared.cancel_by_tag(tag),
        (Some(id), Some(tag)) => shared.cancel_by_id(id) + shared.cancel_by_tag(tag),
        (None, None) => {
            return proto::error(ErrorCode::MissingField, "cancel needs an 'id' or a 'tag'")
        }
    };
    if cancelled == 0 {
        proto::error(ErrorCode::NoSuchQuery, "no running query matches")
    } else {
        proto::ok().set("cancelled", cancelled)
    }
}
