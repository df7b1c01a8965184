//! Regression test for the scratch-pool shrink-on-put cap: the
//! thread-local LIFO pools in `treequery_tree::scratch` must never pin an
//! unbounded amount of memory just because one evaluation spiked.
//!
//! The spike and the put-back run inside one capture, which counts only
//! this thread's allocations, so the live-bytes arithmetic below is exact
//! whatever other tests run alongside.

use treequery_core::obs::alloc::AccountingGuard;
use treequery_core::obs::capture;
use treequery_core::tree::scratch::{self, MAX_POOLED_BYTES};

#[test]
fn pooled_buffers_cannot_pin_oversized_spikes() {
    let _accounting = AccountingGuard::begin();

    // Steady the pool: one take/put cycle so the pool slot itself (and
    // any lazy thread-local init) is allocated before measuring.
    scratch::put_u32s(scratch::take_u32s());

    // A query spike: the evaluation temporarily needed 64x the pool cap.
    // Handing the spiked buffer back must shrink it to the cap: the pool
    // retains at most MAX_POOLED_BYTES of it, the rest is freed NOW, not
    // held until some future evaluation happens to want a huge buffer.
    let spike_elems = 64 * MAX_POOLED_BYTES / size_of::<u32>();
    let ((), captured) = capture(|| {
        let mut buf = scratch::take_u32s();
        buf.reserve_exact(spike_elems);
        scratch::put_u32s(buf);
    });
    let stats = captured.alloc;
    assert!(
        stats.peak_live >= 64 * MAX_POOLED_BYTES as u64,
        "the spike buffer itself must be visible to the accounting: {stats:?}"
    );
    let pinned = stats.bytes.saturating_sub(stats.freed_bytes);
    assert!(
        pinned <= MAX_POOLED_BYTES as u64,
        "pool pinned {pinned} bytes over baseline (cap is {MAX_POOLED_BYTES})"
    );

    // And the capped buffer really is pooled (take returns capacity
    // without allocating a fresh one).
    let reused = scratch::take_u32s();
    assert!(
        reused.capacity() > 0,
        "shrunk buffer was dropped, not pooled"
    );
    assert!(reused.capacity() * size_of::<u32>() <= MAX_POOLED_BYTES);
    scratch::put_u32s(reused);
}
