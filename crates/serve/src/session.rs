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
//!
//! Writing: each reply is rendered once into the session's one reusable
//! byte buffer, terminated with its `\n`, and handed to the socket in a
//! single `write_all`; the socket has `TCP_NODELAY` set. A reply split
//! over two writes would let Nagle hold its tail back until the client's
//! delayed ACK — about 40 ms on every answer too large for one buffer.
//! A successful `query` renders its rows straight from the engine's
//! answer into that buffer while it still holds the document's read lock.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery_core::{CancelReason, CostClass, EngineError, Query, QueryOutput};
use treequery_obs::{flight, span, write_u64, Json};
use treequery_tree::{
    cancel, parse_script, parse_term, xmark_document, CancelToken, NodeId, Tree, XmarkConfig,
};

use crate::admission::AdmissionVerdict;
use crate::proto::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use crate::server::Shared;

/// Longest accepted client-supplied trace id.
const MAX_TRACE_ID_BYTES: usize = 128;
/// Longest accepted tenant name.
const MAX_TENANT_BYTES: usize = 64;
/// The tenant a connection accounts to until `hello` declares one.
const ANONYMOUS_TENANT: &str = "anonymous";
/// Capacity the output buffer keeps between replies; one huge answer
/// does not pin its memory for the rest of the connection.
const RETAINED_REPLY_BYTES: usize = 1 << 20;

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
    // Replies leave in one write each, so nothing is gained by Nagle
    // holding a reply's last segment back.
    let _ = stream.set_nodelay(true);
    run(&shared, BufReader::new(read_half), stream);
}

/// The session loop over any transport: read a frame, render its reply
/// into the one output buffer, append the `\n`, write it in one call.
fn run(shared: &Shared, mut reader: impl BufRead, mut writer: impl Write) {
    let mut sess = SessionState::default();
    let mut out = Vec::new();
    loop {
        let frame = match proto::read_frame(&mut reader) {
            Ok(f) => f,
            Err(_) => return, // connection error; nothing to say
        };
        out.clear();
        out.shrink_to(RETAINED_REPLY_BYTES);
        let flow = match frame {
            Frame::Eof => return,
            Frame::Oversized => {
                let body = proto::error(
                    ErrorCode::OversizedFrame,
                    format!("line exceeds {} bytes", proto::MAX_LINE_BYTES),
                );
                render_body(shared, &body, &mut out);
                Flow::Continue
            }
            Frame::Malformed(code, msg) => {
                render_body(shared, &proto::error(code, msg), &mut out);
                Flow::Continue
            }
            Frame::Value(req) => route(shared, &req, &mut sess, &mut out),
        };
        out.push(b'\n');
        if writer.write_all(&out).is_err() {
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

/// Renders a reply body into `out`, counting its error code if it has one.
fn render_body(shared: &Shared, body: &Json, out: &mut Vec<u8>) {
    if let Some(code) = body.get("code").and_then(Json::as_str) {
        shared.errors.with_label(code).inc();
    }
    body.write_to(out);
}

/// A verb's outcome: a body for the router to stamp and render, or a
/// reply the verb already rendered into the output buffer itself.
enum Reply {
    Body(Json),
    Rendered,
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

/// Dispatches one parsed request and renders its reply into `out`.
/// Pure with respect to the connection: all I/O stays in the caller,
/// which is what the protocol tests lean on. Every reply — success or
/// error — is stamped with the request's trace id, and error codes are
/// charged to the session's tenant.
fn route(shared: &Shared, req: &Json, sess: &mut SessionState, out: &mut Vec<u8>) -> Flow {
    let (reply, flow, trace_id) = match resolve_trace_id(shared, req) {
        Ok(trace_id) => {
            let (reply, flow) = dispatch(shared, req, sess, &trace_id, out);
            (reply, flow, trace_id)
        }
        Err(e) => {
            shared.requests.with_label("invalid").inc();
            (Reply::Body(e), Flow::Continue, shared.make_trace_id())
        }
    };
    if let Reply::Body(body) = reply {
        if sess.hello_done {
            if let Some(code) = body.get("code").and_then(Json::as_str) {
                shared.usage.record_error_code(&sess.tenant, code);
            }
        }
        render_body(shared, &body.set("trace_id", trace_id), out);
    }
    flow
}

fn dispatch(
    shared: &Shared,
    req: &Json,
    sess: &mut SessionState,
    trace_id: &str,
    out: &mut Vec<u8>,
) -> (Reply, Flow) {
    let Some(verb) = req.get("verb").and_then(Json::as_str) else {
        shared.requests.with_label("invalid").inc();
        return (
            Reply::Body(proto::error(
                ErrorCode::MissingField,
                "request needs a string 'verb'",
            )),
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
            Reply::Body(proto::error(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            )),
            Flow::Close,
        );
    }
    if !sess.hello_done {
        if verb != "hello" {
            return (
                Reply::Body(proto::error(
                    ErrorCode::ExpectedHello,
                    "first frame must be {\"verb\":\"hello\",\"version\":1}",
                )),
                Flow::Continue,
            );
        }
        let (body, flow) = match req.get("version").and_then(Json::as_u64) {
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
        return (Reply::Body(body), flow);
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
        "query" => match verb_query(shared, req, sess, trace_id, out) {
            Ok(()) => return (Reply::Rendered, Flow::Continue),
            Err(e) => e,
        },
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
                Reply::Body(
                    proto::ok()
                        .set("shutting_down", true)
                        .set("drained", drained)
                        .set("cancelled", cancelled),
                ),
                Flow::CloseAndShutdown,
            );
        }
        other => proto::error(ErrorCode::UnknownVerb, format!("unknown verb {other:?}")),
    };
    (Reply::Body(body), Flow::Continue)
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

/// The tallest tree `load` accepts. Building a document labels every
/// node with its root path (`O(height²)` memory on a chain) and some
/// traversals recurse on depth, so a deeper tree is refused before it is
/// built.
const MAX_LOAD_HEIGHT: u32 = 4096;

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
    if tree.height() > MAX_LOAD_HEIGHT {
        return proto::error(
            ErrorCode::TooDeep,
            format!(
                "tree height {} exceeds the limit of {MAX_LOAD_HEIGHT}",
                tree.height()
            ),
        );
    }
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

/// Renders a successful query reply into `out`: the envelope `head`,
/// then `kind`, then `rows` as pre-order ranks — positions in the current
/// tree's document order, the only node naming that is meaningful to a
/// client across the wire — then, for tuple answers, `satisfiable`. The
/// bytes are exactly `head`'s object with those fields appended.
fn render_query_reply(out: &mut Vec<u8>, head: Json, tree: &Tree, answer: &QueryOutput) {
    let kind = match answer {
        QueryOutput::Nodes(_) => "nodes",
        QueryOutput::Answer(_) => "tuples",
    };
    head.set("kind", kind).write_to(out);
    out.pop(); // reopen the object: the rows follow the envelope
    out.extend_from_slice(b",\"rows\":[");
    let write_ranks = |out: &mut Vec<u8>, nodes: &[NodeId]| {
        for (i, &v) in nodes.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_u64(out, u64::from(tree.pre(v)));
        }
    };
    match answer {
        QueryOutput::Nodes(nodes) => write_ranks(out, nodes),
        QueryOutput::Answer(a) => {
            for (i, tuple) in a.tuples.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.push(b'[');
                write_ranks(out, tuple);
                out.push(b']');
            }
        }
    }
    out.push(b']');
    if let QueryOutput::Answer(a) = answer {
        out.extend_from_slice(if a.is_satisfiable() {
            b",\"satisfiable\":true"
        } else {
            b",\"satisfiable\":false"
        });
    }
    out.push(b'}');
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

/// Answers a query, rendering a successful reply straight into `out`;
/// an error comes back as a body for the router to render.
fn verb_query(
    shared: &Shared,
    req: &Json,
    sess: &SessionState,
    trace_id: &str,
    out: &mut Vec<u8>,
) -> Result<(), Json> {
    let doc_name = need_str(req, "doc")?;
    let query = parse_query(req)?;
    let deadline_ms = opt_u64(req, "deadline_ms")?;
    let tag = req.get("tag").and_then(Json::as_str).map(str::to_owned);
    let Some(doc) = shared.catalog.get(doc_name) else {
        return Err(proto::error(
            ErrorCode::NoSuchDocument,
            format!("no document {doc_name:?}"),
        ));
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
        // Lower + plan once, first: parse errors answer immediately, the
        // plan's cost class is what admission keys on, and the admitted
        // plan is the one that runs.
        let ir = engine
            .lower(&query)
            .map_err(|e| proto::error(ErrorCode::QueryError, e.to_string()))?;
        let plan = engine.plan(&ir);

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
            return Err(proto::error(
                ErrorCode::AdmissionRejected,
                format!(
                    "heavy lane full ({} slots) and no slot freed within {:?}",
                    shared.admission.cap(),
                    shared.admit_timeout
                ),
            )
            .set("id", id));
        };

        let ctx = flight::RequestCtx {
            tenant: sess.tenant.clone(),
            trace_id: trace_id.to_owned(),
            admission_wait_ns,
        };
        let started = Instant::now();
        let result = flight::with_request_ctx(ctx, || {
            cancel::with_token(&token, || engine.run(&ir, &plan))
        });
        let wall_ns = started.elapsed().as_nanos() as u64;
        let answer = result.map_err(|e| engine_error_json(&e, id))?;
        let row_count = match &answer {
            QueryOutput::Nodes(v) => v.len() as u64,
            QueryOutput::Answer(a) => a.tuples.len() as u64,
        };
        // The reply's one render, trace id included, so `resp_bytes` is
        // what goes on the wire.
        let serialize = span("serve.serialize");
        let start = out.len();
        let head = proto::ok()
            .set("id", id)
            .set("doc", doc_name)
            .set("strategy", format!("{:?}", plan.strategy))
            .set("cost", plan.cost.to_string())
            .set("admission", admission_str(verdict))
            .set("wall_us", wall_ns / 1_000)
            .set("trace_id", trace_id);
        render_query_reply(out, head, doc.tree(), &answer);
        let resp_bytes = (out.len() - start + 1) as u64; // + '\n'
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
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use treequery_core::Engine;

    /// The reply as it was built before rows were rendered directly: one
    /// `Json` node per rank, merged into the envelope, rendered whole.
    /// Kept only as the byte-identity oracle.
    fn tree_built_reply(head: Json, tree: &Tree, answer: &QueryOutput) -> String {
        let rows = match answer {
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
        };
        let mut body = head;
        if let Json::Obj(fields) = rows {
            for (k, v) in fields {
                body = body.set(k, v);
            }
        }
        body.render()
    }

    #[test]
    fn direct_render_is_byte_identical_to_the_json_tree() {
        let tree = parse_term("r(a(b) a(b c) c)").unwrap();
        let engine = Engine::new(&tree);
        let head = proto::ok()
            .set("id", 7u64)
            .set("doc", "d\"q\n")
            .set("strategy", "SetAtATime")
            .set("cost", "linear")
            .set("admission", "fast_lane")
            .set("wall_us", 12u64)
            .set("trace_id", "t-1");
        for (query, rows) in [
            (Query::xpath("//a[b]"), "[1,3]"),
            (Query::xpath("//zzz"), "[]"),
            (
                Query::cq("q(x,y) :- label(x, a), child(x, y), label(y, b)."),
                "[[1,2],[3,4]]",
            ),
            (Query::cq("q() :- label(x, a)."), "[[]]"),
            (Query::cq("q() :- label(x, zzz)."), "[]"),
        ] {
            let answer = engine.eval(&query).unwrap();
            let mut out = Vec::new();
            render_query_reply(&mut out, head.clone(), &tree, &answer);
            let direct = String::from_utf8(out).unwrap();
            assert_eq!(direct, tree_built_reply(head.clone(), &tree, &answer));
            assert!(direct.contains(&format!("\"rows\":{rows}")), "{direct}");
        }
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct Recorder(Vec<Vec<u8>>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write_ending_in_its_newline() {
        let shared = Shared::new(&ServerConfig::default(), 0);
        let frames = [
            r#"{"verb":"list"}"#.to_owned(),
            r#"{"verb":"hello","version":1}"#.to_owned(),
            r#"{"verb":"load","name":"x","xmark":3000}"#.to_owned(),
            r#"{"verb":"query","doc":"x","lang":"xpath","text":"//*"}"#.to_owned(),
            r#"{"verb":"query","doc":"x","lang":"xpath","text":"//a[[["}"#.to_owned(),
            "not json".to_owned(),
            "[".repeat(1_000),
            r#"{"verb":"list"}"#.to_owned(),
        ];
        let input = frames.join("\n") + "\n";
        let mut writes = Recorder::default();
        run(&shared, input.as_bytes(), &mut writes);
        let writes = writes.0;
        assert_eq!(writes.len(), frames.len(), "one write per reply");
        for w in &writes {
            assert_eq!(w.last(), Some(&b'\n'));
            assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
        }
        assert!(
            writes[3].len() > 8 << 10,
            "the query reply outgrows an 8 KiB buffer: {} bytes",
            writes[3].len()
        );
        let code = |w: &[u8]| {
            let reply = treequery_obs::parse_json(std::str::from_utf8(w).unwrap()).unwrap();
            reply.get("code").and_then(Json::as_str).map(str::to_owned)
        };
        let codes: Vec<Option<String>> = writes.iter().map(|w| code(w)).collect();
        let expected = [
            Some("expected_hello"),
            None,
            None,
            None,
            Some("query_error"),
            Some("malformed_frame"),
            Some("too_deep"),
            None,
        ];
        assert_eq!(codes, expected.map(|c| c.map(str::to_owned)));
    }
}
