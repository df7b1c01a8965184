//! Allocation accounting: a counting [`GlobalAlloc`] wrapper with
//! thread-local attribution.
//!
//! The paper's bounds are *resource* bounds — Theorem 3.2 is as much a
//! space claim (the ground Horn formula is linear in `|D|`) as a time
//! claim — so bytes and allocations are first-class observables here,
//! read through the same per-query [`capture`](crate::capture) as spans:
//!
//! * [`CountingAlloc`] wraps the system allocator. `treequery-obs`
//!   installs it as the process `#[global_allocator]`, so every crate in
//!   the workspace is covered without per-binary setup. When accounting
//!   is **off** (the default) each allocation pays one relaxed atomic
//!   load — the same disabled-path budget the span layer holds itself to
//!   (enforced by `harness --check-noop-overhead`).
//! * [`AccountingGuard`] is the one switch: it turns accounting on for a
//!   region (nestable; reference-counted). While it is on, every
//!   allocation is charged to the allocating thread's open capture (the
//!   whole-run totals in [`Captured::alloc`](crate::Captured::alloc)) and
//!   to its innermost [`AllocScope`].
//! * [`AllocScope`] attributes allocations to a *stage name* — the same
//!   dot-separated names the span layer uses (`exec.semijoin`,
//!   `hornsat.solve`, …). Scopes are a thread-local stack: the innermost
//!   scope on the allocating thread is charged (self-exclusive, like a
//!   span's self time). A closed scope reports its totals to the capture
//!   open on its thread ([`Captured::scopes`](crate::Captured::scopes)),
//!   which is what puts `mem` columns next to `EXPLAIN ANALYZE`'s
//!   per-stage wall times.
//!
//! Pool workers replay the submitting thread's capture and scope through
//! a [`CaptureHandle`](crate::CaptureHandle), so a kernel chunk running
//! on a worker still charges the query and the stage that dispatched it.
//! Observation bookkeeping (span fields, span buffers, scope cells) is
//! never charged to anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::capture::{bookkeeping, AMBIENT};

/// The counting allocator. Installed by `treequery-obs` as the process
/// `#[global_allocator]`; do not install a second one.
pub struct CountingAlloc;

/// Fast-path switch: mirrors `ENABLE_DEPTH > 0`. One relaxed load per
/// allocation when accounting is off.
static ACCOUNTING: AtomicBool = AtomicBool::new(false);
/// Reference count of active [`AccountingGuard`]s.
static ENABLE_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// Allocation counters shared across threads: a capture's whole-run
/// totals, or one scope's (pool workers charge them concurrently).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
    live: AtomicI64,
    peak: AtomicI64,
}

impl Counters {
    fn charge_alloc(&self, size: u64) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
        let live = self.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn charge_dealloc(&self, size: u64) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.freed.fetch_add(size, Ordering::Relaxed);
        self.live.fetch_sub(size as i64, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ScopeStats {
        ScopeStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            freed_bytes: self.freed.load(Ordering::Relaxed),
            peak_live: self.peak.load(Ordering::Relaxed).max(0) as u64,
        }
    }

    /// Folds in the totals of a closed nested capture: counts add, and
    /// the nested run's peak stacks on the live level it started from.
    pub(crate) fn absorb(&self, nested: &ScopeStats) {
        self.allocs.fetch_add(nested.allocs, Ordering::Relaxed);
        self.frees.fetch_add(nested.frees, Ordering::Relaxed);
        self.bytes.fetch_add(nested.bytes, Ordering::Relaxed);
        self.freed.fetch_add(nested.freed_bytes, Ordering::Relaxed);
        let live = self.live.load(Ordering::Relaxed);
        self.peak
            .fetch_max(live + nested.peak_live as i64, Ordering::Relaxed);
        self.live.fetch_add(
            nested.bytes as i64 - nested.freed_bytes as i64,
            Ordering::Relaxed,
        );
    }
}

/// One [`AllocScope`]'s name and counters.
#[derive(Debug)]
pub(crate) struct ScopeCell {
    name: &'static str,
    counters: Counters,
}

/// A snapshot of allocation counters: one scope's, or a whole capture's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Allocations charged.
    pub allocs: u64,
    /// Deallocations charged.
    pub frees: u64,
    /// Bytes allocated.
    pub bytes: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Peak of the net live bytes (allocated − freed since the scope or
    /// capture opened; clamped at zero — one that only frees reports 0).
    pub peak_live: u64,
}

impl ScopeStats {
    pub(crate) fn merge(&mut self, other: &ScopeStats) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.bytes += other.bytes;
        self.freed_bytes += other.freed_bytes;
        // Scopes with the same name are sequenced or concurrent; either
        // way the max is the honest upper envelope we can keep after the
        // cells are gone.
        self.peak_live = self.peak_live.max(other.peak_live);
    }
}

// `inline(never)`: keeps the TLS access out of the allocator's disabled
// fast path, which must stay a bare load-test-branch around the
// `System` call.
#[inline(never)]
fn charge(size: usize, alloc: bool) {
    AMBIENT.with(|a| {
        if a.bookkeeping.get() {
            return;
        }
        let size = size as u64;
        let charge = |c: &Counters| {
            if alloc {
                c.charge_alloc(size)
            } else {
                c.charge_dealloc(size)
            }
        };
        // SAFETY: a non-null pointer was installed by a frame on this
        // thread (a capture, an AllocScope, or CaptureHandle::run) that
        // holds its Arc and restores the pointer before releasing it.
        unsafe {
            if let Some(sink) = a.sink.get().as_ref() {
                charge(&sink.counters);
            }
            if let Some(scope) = a.scope.get().as_ref() {
                charge(&scope.counters);
            }
        }
    });
}

// SAFETY: forwards every operation to `System`, only adding counter
// updates that never allocate, so `GlobalAlloc`'s contract is inherited.
unsafe impl GlobalAlloc for CountingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ACCOUNTING.load(Ordering::Relaxed) {
            charge(layout.size(), true);
        }
        p
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ACCOUNTING.load(Ordering::Relaxed) {
            charge(layout.size(), true);
        }
        p
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ACCOUNTING.load(Ordering::Relaxed) {
            charge(layout.size(), false);
        }
        System.dealloc(ptr, layout);
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ACCOUNTING.load(Ordering::Relaxed) {
            // One grow/shrink = one allocation of the new block plus one
            // free of the old, so `bytes` totals remain "every byte the
            // allocator was asked for" (Vec's doubling shows up exactly).
            charge(new_size, true);
            charge(layout.size(), false);
        }
        p
    }
}

/// Turns accounting on for the guard's lifetime. Nestable and
/// refcounted: accounting stays on until the outermost guard drops.
#[derive(Debug)]
pub struct AccountingGuard(());

impl AccountingGuard {
    /// Enables allocation accounting (process-wide).
    pub fn begin() -> AccountingGuard {
        if ENABLE_DEPTH.fetch_add(1, Ordering::SeqCst) == 0 {
            ACCOUNTING.store(true, Ordering::SeqCst);
        }
        AccountingGuard(())
    }
}

impl Drop for AccountingGuard {
    fn drop(&mut self) {
        if ENABLE_DEPTH.fetch_sub(1, Ordering::SeqCst) == 1 {
            ACCOUNTING.store(false, Ordering::SeqCst);
        }
    }
}

/// Whether allocation accounting is currently on.
#[inline]
pub fn accounting() -> bool {
    ACCOUNTING.load(Ordering::Relaxed)
}

/// An attribution scope: while it is the innermost scope on a thread,
/// that thread's allocations are charged to `name`. Inert (and free
/// beyond one relaxed load) when accounting is off.
#[derive(Debug)]
pub struct AllocScope {
    /// `Some` only while accounting was on at entry.
    cell: Option<Arc<ScopeCell>>,
    prev: *const ScopeCell,
}

impl AllocScope {
    /// Pushes an attribution scope named `name` onto this thread's
    /// stack. Use the span layer's stage names so `EXPLAIN ANALYZE` can
    /// join `mem` columns onto the measured stage tree.
    pub fn enter(name: &'static str) -> AllocScope {
        if !ACCOUNTING.load(Ordering::Relaxed) {
            return AllocScope {
                cell: None,
                prev: std::ptr::null(),
            };
        }
        let cell = bookkeeping(|| {
            Arc::new(ScopeCell {
                name,
                counters: Counters::default(),
            })
        });
        let prev = AMBIENT.with(|a| a.scope.replace(Arc::as_ptr(&cell)));
        AllocScope {
            cell: Some(cell),
            prev,
        }
    }

    /// The scope's own counters so far (self-exclusive: bytes charged
    /// while a nested scope was innermost belong to the nested scope).
    pub fn stats(&self) -> ScopeStats {
        self.cell
            .as_ref()
            .map_or(ScopeStats::default(), |c| c.counters.stats())
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            AMBIENT.with(|a| a.scope.set(self.prev));
            bookkeeping(|| {
                crate::capture::report_scope(cell.name, &cell.counters.stats());
                drop(cell);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture, tests::accounting_lock as lock};

    #[test]
    fn disabled_scopes_are_inert() {
        let _l = lock();
        assert!(!accounting(), "tests serialize on the accounting lock");
        let s = AllocScope::enter("test.inert");
        let _v: Vec<u64> = Vec::with_capacity(64);
        assert_eq!(s.stats(), ScopeStats::default());
    }

    #[test]
    fn scope_attributes_this_threads_allocations() {
        let _l = lock();
        let _on = AccountingGuard::begin();
        let scope = AllocScope::enter("test.attrib");
        let v: Vec<u8> = Vec::with_capacity(4096);
        let stats = scope.stats();
        drop(v);
        assert!(stats.allocs >= 1, "{stats:?}");
        assert!(stats.bytes >= 4096, "{stats:?}");
        assert!(stats.peak_live >= 4096, "{stats:?}");
        let after = scope.stats();
        assert!(after.frees >= 1 && after.freed_bytes >= 4096, "{after:?}");
    }

    #[test]
    fn nesting_is_self_exclusive() {
        let _l = lock();
        let _on = AccountingGuard::begin();
        let outer = AllocScope::enter("test.outer");
        {
            let inner = AllocScope::enter("test.inner");
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            assert!(inner.stats().bytes >= 1 << 16);
            drop(v);
        }
        // The inner scope's 64 KiB were not charged to the outer scope.
        assert!(outer.stats().bytes < 1 << 16, "{:?}", outer.stats());
    }

    #[test]
    fn closed_scopes_report_to_the_open_capture() {
        let _l = lock();
        let _on = AccountingGuard::begin();
        let ((), captured) = capture(|| {
            let _s = AllocScope::enter("test.totals");
            let _v: Vec<u8> = Vec::with_capacity(2048);
        });
        let stats = captured
            .scope("test.totals")
            .expect("closed scope recorded");
        assert!(stats.bytes >= 2048, "{stats:?}");
        // The capture's own totals cover the scope's allocations too.
        assert!(captured.alloc.bytes >= 2048, "{:?}", captured.alloc);
    }

    #[test]
    fn captures_count_only_while_accounting() {
        let _l = lock();
        let (v, captured) = capture(|| Vec::<u8>::with_capacity(1 << 14));
        drop(v);
        assert_eq!(captured.alloc, ScopeStats::default());
        let _on = AccountingGuard::begin();
        let (v, captured) = capture(|| Vec::<u8>::with_capacity(1 << 14));
        drop(v);
        assert!(captured.alloc.bytes >= 1 << 14);
        assert!(captured.alloc.peak_live >= 1 << 14);
    }
}
