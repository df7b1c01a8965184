//! Per-query observation capture: the one way to observe a query.
//!
//! [`capture`] runs a closure and returns, next to its result, what was
//! observed while it ran ([`Captured`]): the spans that closed, and —
//! while an [`AccountingGuard`](crate::alloc::AccountingGuard) holds
//! accounting on — the allocations made, as whole-run totals and as
//! per-stage [`AllocScope`](crate::alloc::AllocScope) totals.
//!
//! A capture covers the calling thread and every thread that replays
//! its [`CaptureHandle`]; the worker pool does so for each chunk it runs
//! on a query's behalf. Nothing else reaches it, so concurrent queries
//! never leak into each other's observations. Captures nest: a closing
//! capture also hands its spans and totals to the capture it was opened
//! inside.
//!
//! **Disabled path.** With no capture open anywhere, [`crate::span`] is
//! one relaxed load of the open-capture count and returns an inert
//! guard. Observation bookkeeping — span fields, span buffers, scope
//! cells — runs with allocation charging suspended, so it never shows up
//! in a capture's or a stage's counts.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::alloc::{Counters, ScopeCell, ScopeStats};
use crate::span::SpanRecord;
use crate::SpanSummary;

/// Open captures, process-wide: the single word [`crate::span`] loads.
static OPEN: AtomicUsize = AtomicUsize::new(0);

/// Where one capture's observations accumulate.
#[derive(Debug, Default)]
pub(crate) struct Sink {
    spans: Mutex<Vec<SpanRecord>>,
    pub(crate) counters: Counters,
    scopes: Mutex<BTreeMap<&'static str, ScopeStats>>,
}

/// Locks a sink buffer. Every update to one (push, extend, merge, take)
/// leaves it valid, so a poisoned lock is still safe to use — and span
/// and scope drops, which must not panic, go through here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Sink {
    /// Buffers a closed span. Callers hold [`bookkeeping`].
    pub(crate) fn push_span(&self, span: SpanRecord) {
        lock(&self.spans).push(span);
    }

    fn merge_scope(&self, name: &'static str, stats: &ScopeStats) {
        lock(&self.scopes).entry(name).or_default().merge(stats);
    }

    fn take(&self) -> Captured {
        Captured {
            spans: std::mem::take(&mut *lock(&self.spans)),
            alloc: self.counters.stats(),
            scopes: std::mem::take(&mut *lock(&self.scopes))
                .into_iter()
                .collect(),
        }
    }

    fn absorb(&self, nested: &Captured) {
        lock(&self.spans).extend(nested.spans.iter().cloned());
        self.counters.absorb(&nested.alloc);
        for (name, stats) in &nested.scopes {
            self.merge_scope(name, stats);
        }
    }
}

/// A thread's observation context. Raw pointers and no destructor, so
/// the allocator's charging path can read it without touching a lazily
/// initialized or droppable thread-local. Each non-null pointer is kept
/// alive by the frame that installed it, which restores the previous
/// value before releasing its `Arc`.
pub(crate) struct Ambient {
    pub(crate) sink: Cell<*const Sink>,
    pub(crate) scope: Cell<*const ScopeCell>,
    pub(crate) depth: Cell<u32>,
    pub(crate) bookkeeping: Cell<bool>,
}

thread_local! {
    pub(crate) static AMBIENT: Ambient = const {
        Ambient {
            sink: Cell::new(std::ptr::null()),
            scope: Cell::new(std::ptr::null()),
            depth: Cell::new(0),
            bookkeeping: Cell::new(false),
        }
    };
}

/// Whether any capture is open. One relaxed atomic load.
#[inline]
pub(crate) fn any_open() -> bool {
    OPEN.load(Ordering::Relaxed) != 0
}

/// Runs `f` with allocation charging suspended on this thread.
pub(crate) fn bookkeeping<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|a| a.bookkeeping.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT.with(|a| a.bookkeeping.replace(true)));
    f()
}

/// A new strong reference to the `Arc` behind an installed pointer.
///
/// # Safety
/// `ptr` is null or came from `Arc::as_ptr` of an `Arc` that is alive.
unsafe fn clone_arc<T>(ptr: *const T) -> Option<Arc<T>> {
    if ptr.is_null() {
        return None;
    }
    Arc::increment_strong_count(ptr);
    Some(Arc::from_raw(ptr))
}

fn as_ptr<T>(arc: &Option<Arc<T>>) -> *const T {
    arc.as_ref().map_or(std::ptr::null(), Arc::as_ptr)
}

/// The capture spans opened on this thread deliver to, if any.
pub(crate) fn current_sink() -> Option<Arc<Sink>> {
    // SAFETY: see `Ambient`.
    AMBIENT.with(|a| unsafe { clone_arc(a.sink.get()) })
}

/// Reports a closed scope's totals to this thread's capture, if any.
pub(crate) fn report_scope(name: &'static str, stats: &ScopeStats) {
    // SAFETY: see `Ambient`.
    AMBIENT.with(|a| {
        if let Some(sink) = unsafe { a.sink.get().as_ref() } {
            sink.merge_scope(name, stats);
        }
    });
}

/// Everything a [`capture`] observed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Captured {
    /// The spans that closed, in close order.
    pub spans: Vec<SpanRecord>,
    /// Allocation totals of the whole run (all zero unless accounting
    /// was on).
    pub alloc: ScopeStats,
    /// Totals of the allocation scopes that closed, by stage name
    /// (name-sorted; same-named scopes merged).
    pub scopes: Vec<(&'static str, ScopeStats)>,
}

impl Captured {
    /// The merged totals of the scopes named `name`, if one closed.
    pub fn scope(&self, name: &str) -> Option<ScopeStats> {
        self.scopes
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, stats)| *stats)
    }

    /// Per-span-name summaries of [`Captured::spans`].
    pub fn summary(&self) -> Vec<SpanSummary> {
        crate::summarize_spans(&self.spans)
    }
}

/// Runs `f` and returns its result with everything observed while it
/// ran, on this thread and on every thread replaying its
/// [`CaptureHandle`]. If `f` panics, the thread's previous capture is
/// restored and the observations are dropped.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Captured) {
    let sink = bookkeeping(|| Arc::new(Sink::default()));
    OPEN.fetch_add(1, Ordering::Relaxed);
    let prev = AMBIENT.with(|a| a.sink.replace(Arc::as_ptr(&sink)));
    let mut frame = Frame {
        sink: Some(sink),
        prev,
    };
    let out = f();
    let sink = frame.restore().expect("capture frame closed twice");
    let captured = bookkeeping(|| {
        let captured = sink.take();
        // SAFETY: `prev` was installed by an enclosing frame that is
        // still alive (frames nest), or is null.
        if let Some(parent) = unsafe { prev.as_ref() } {
            parent.absorb(&captured);
        }
        drop(sink);
        captured
    });
    (out, captured)
}

struct Frame {
    sink: Option<Arc<Sink>>,
    prev: *const Sink,
}

impl Frame {
    fn restore(&mut self) -> Option<Arc<Sink>> {
        let sink = self.sink.take()?;
        AMBIENT.with(|a| a.sink.set(self.prev));
        OPEN.fetch_sub(1, Ordering::Relaxed);
        Some(sink)
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        // Only reached with a sink still held when `f` unwound.
        if let Some(sink) = self.restore() {
            bookkeeping(|| drop(sink));
        }
    }
}

/// The calling thread's observation context — its open capture, its
/// innermost allocation scope and its span depth — packaged so another
/// thread can act on its behalf. The worker pool takes one per dispatch
/// and runs every chunk inside [`CaptureHandle::run`], so chunk spans
/// nest under the stage that dispatched them and chunk allocations are
/// charged to the submitting query and stage.
#[derive(Clone, Debug)]
pub struct CaptureHandle {
    sink: Option<Arc<Sink>>,
    scope: Option<Arc<ScopeCell>>,
    depth: u32,
}

impl CaptureHandle {
    /// The calling thread's context. Allocation-free.
    pub fn current() -> CaptureHandle {
        // SAFETY: see `Ambient`.
        AMBIENT.with(|a| unsafe {
            CaptureHandle {
                sink: clone_arc(a.sink.get()),
                scope: clone_arc(a.scope.get()),
                depth: a.depth.get(),
            }
        })
    }

    /// Runs `f` on this thread inside the handle's context, restoring
    /// the thread's own context afterwards (also on panic).
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(*const Sink, *const ScopeCell, u32);
        impl Drop for Restore {
            fn drop(&mut self) {
                AMBIENT.with(|a| {
                    a.sink.set(self.0);
                    a.scope.set(self.1);
                    a.depth.set(self.2);
                });
            }
        }
        let _restore = AMBIENT.with(|a| {
            Restore(
                a.sink.replace(as_ptr(&self.sink)),
                a.scope.replace(as_ptr(&self.scope)),
                a.depth.replace(self.depth),
            )
        });
        f()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::alloc::{AccountingGuard, AllocScope};
    use crate::{span, FieldValue};

    /// Serializes tests that flip the process-wide accounting switch.
    pub(crate) fn accounting_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn names(c: &Captured) -> Vec<&'static str> {
        c.spans.iter().map(|s| s.name).collect()
    }

    #[test]
    fn disabled_spans_are_inert() {
        let s = span("test.inert");
        assert!(!s.is_recording());
    }

    #[test]
    fn capture_returns_closed_spans_with_fields_and_depths() {
        let (answer, captured) = capture(|| {
            let mut s = span("test.outer");
            assert!(s.is_recording());
            s.record_u64("items", 3);
            let _inner = span("test.inner");
            42
        });
        assert_eq!(answer, 42);
        // Spans close innermost-first.
        assert_eq!(names(&captured), vec!["test.inner", "test.outer"]);
        assert_eq!(captured.spans[0].depth, 1);
        assert_eq!(captured.spans[1].depth, 0);
        assert_eq!(captured.spans[1].fields[0].key, "items");
        assert_eq!(captured.spans[1].fields[0].value, FieldValue::U64(3));
        assert!(!span("test.after").is_recording());
    }

    #[test]
    fn other_threads_are_not_captured() {
        let ((), captured) = capture(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = span("test.stranger");
                });
            });
        });
        assert!(captured.spans.is_empty(), "{:?}", names(&captured));
    }

    /// Pool workers replay the submitter's handle: their spans and
    /// allocations are charged to the submitting capture and scope.
    #[test]
    fn worker_spans_and_allocations_charge_the_submitting_capture() {
        let _l = accounting_lock();
        let _on = AccountingGuard::begin();
        let ((), captured) = capture(|| {
            let _stage = AllocScope::enter("test.stage");
            let _dispatch = span("test.dispatch");
            let handle = CaptureHandle::current();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let handle = handle.clone();
                    s.spawn(move || {
                        handle.run(|| {
                            let mut chunk = span("test.chunk");
                            chunk.record_u64("n", 1);
                            std::hint::black_box(Vec::<u8>::with_capacity(8192));
                        })
                    });
                }
            });
        });
        let summary = captured.summary();
        let chunk = summary.iter().find(|s| s.name == "test.chunk").unwrap();
        let dispatch = summary.iter().find(|s| s.name == "test.dispatch").unwrap();
        assert_eq!(chunk.calls, 4);
        assert_eq!(chunk.field_sums, vec![("n", 4)]);
        assert_eq!(
            chunk.depth,
            dispatch.depth + 1,
            "chunks nest under the dispatch"
        );
        let stage = captured.scope("test.stage").expect("stage scope closed");
        assert!(stage.bytes >= 4 * 8192, "{stage:?}");
        assert!(captured.alloc.bytes >= 4 * 8192, "{:?}", captured.alloc);
    }

    #[test]
    fn nested_capture_hands_spans_and_totals_to_the_enclosing_one() {
        let _l = accounting_lock();
        let _on = AccountingGuard::begin();
        let (inner, outer) = capture(|| {
            drop(span("test.before"));
            let ((), inner) = capture(|| {
                let _s = AllocScope::enter("test.nested");
                let _g = span("test.nested");
                std::hint::black_box(Vec::<u8>::with_capacity(4096));
            });
            let _after = span("test.after");
            inner
        });
        assert_eq!(names(&inner), vec!["test.nested"]);
        assert_eq!(
            names(&outer),
            vec!["test.before", "test.nested", "test.after"]
        );
        let nested = inner.scope("test.nested").unwrap();
        assert!(nested.bytes >= 4096);
        assert_eq!(outer.scope("test.nested"), Some(nested));
        assert!(outer.alloc.bytes >= inner.alloc.bytes);
        assert!(outer.alloc.peak_live >= inner.alloc.peak_live);
    }

    #[test]
    fn panic_restores_the_previous_capture_and_buffers_nothing() {
        let ((), outer) = capture(|| {
            let result = std::panic::catch_unwind(|| {
                capture(|| {
                    let _g = span("test.doomed");
                    panic!("boom");
                })
            });
            assert!(result.is_err());
            let _g = span("test.survivor");
        });
        assert_eq!(names(&outer), vec!["test.survivor"]);
        let result = std::panic::catch_unwind(|| capture(|| panic!("boom")));
        assert!(result.is_err());
        assert!(!span("test.after").is_recording(), "no capture left open");
        assert!(current_sink().is_none());
    }
}
