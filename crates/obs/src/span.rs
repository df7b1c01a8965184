//! The span core: guards with monotonic timing, structured fields, and a
//! per-thread depth stack, delivered to the opening thread's capture.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::capture::{bookkeeping, Sink, AMBIENT};

/// A structured field value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned counter (node counts, candidate-set sizes, …).
    U64(u64),
    /// A floating-point measurement.
    F64(f64),
    /// A boolean flag (cache hit/miss, …).
    Bool(bool),
    /// A short string (strategy names, …).
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// A `key = value` pair attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// The field name.
    pub key: &'static str,
    /// The field value.
    pub value: FieldValue,
}

/// A closed span, as a [`crate::capture`] returns it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The span name (dot-separated taxonomy, e.g. `exec.semijoin`).
    pub name: &'static str,
    /// Nanoseconds since the process's tracing epoch at which the span
    /// opened.
    pub start_ns: u64,
    /// Monotonic wall time between open and close, in nanoseconds.
    pub duration_ns: u64,
    /// Nesting depth on the opening thread (0 = outermost).
    pub depth: u32,
    /// A dense per-thread id (assigned on first span per thread).
    pub thread: u64,
    /// Structured fields recorded while the span was open.
    pub fields: Vec<Field>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: Cell<Option<u64>> = const { Cell::new(None) };
    }
    ID.with(|id| match id.get() {
        Some(v) => v,
        None => {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            id.set(Some(v));
            v
        }
    })
}

/// Opens a span. With no capture open anywhere this is one relaxed
/// atomic load and returns an inert guard (no clock read, no
/// allocation). A span is live when the opening thread is inside a
/// [`crate::capture`] — directly, or through a replayed
/// [`crate::CaptureHandle`] — and delivers to that capture on close.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::capture::any_open() {
        return Span { active: None, name };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    match crate::capture::current_sink() {
        Some(sink) => Span::open(name, sink),
        None => Span { active: None, name },
    }
}

struct ActiveSpan {
    sink: Arc<Sink>,
    start: Instant,
    start_ns: u64,
    depth: u32,
    fields: Vec<Field>,
}

/// An open span; closing (dropping) it delivers a [`SpanRecord`] to the
/// capture that was current at open time.
pub struct Span {
    active: Option<ActiveSpan>,
    name: &'static str,
}

impl Span {
    fn open(name: &'static str, sink: Arc<Sink>) -> Span {
        let start_ns = epoch().elapsed().as_nanos() as u64;
        let depth = AMBIENT.with(|a| a.depth.replace(a.depth.get() + 1));
        Span {
            active: Some(ActiveSpan {
                sink,
                start: Instant::now(),
                start_ns,
                depth,
                fields: Vec::new(),
            }),
            name,
        }
    }

    /// Whether this span will be delivered to a capture on close.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    fn record(&mut self, key: &'static str, value: impl FnOnce() -> FieldValue) {
        if let Some(a) = &mut self.active {
            bookkeeping(|| {
                a.fields.push(Field {
                    key,
                    value: value(),
                })
            });
        }
    }

    /// Attaches a counter field (no-op on inert spans).
    pub fn record_u64(&mut self, key: &'static str, value: u64) {
        self.record(key, || FieldValue::U64(value));
    }

    /// Attaches a boolean field (no-op on inert spans).
    pub fn record_bool(&mut self, key: &'static str, value: bool) {
        self.record(key, || FieldValue::Bool(value));
    }

    /// Attaches a string field, formatted only when the span is live
    /// (no-op on inert spans).
    pub fn record_str(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.record(key, || FieldValue::Str(value.to_string()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            AMBIENT.with(|amb| amb.depth.set(amb.depth.get().saturating_sub(1)));
            let record = SpanRecord {
                name: self.name,
                start_ns: a.start_ns,
                duration_ns: a.start.elapsed().as_nanos() as u64,
                depth: a.depth,
                thread: thread_id(),
                fields: a.fields,
            };
            bookkeeping(|| {
                a.sink.push_span(record);
                drop(a.sink);
            });
        }
    }
}
