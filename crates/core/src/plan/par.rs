//! The parallel execution subsystem: pre-order-range partitioned
//! kernels dispatched on the shared [`WorkerPool`]. Each takes the worker
//! count as an argument, runs its sequential counterpart at one worker,
//! and otherwise produces **byte-identical output** to it:
//!
//! * [`par_image_into`] — the axis sweep, split by output (carry axes)
//!   or marked-input (local axes) pre-order range; chunk bitsets are ORed,
//!   and OR is commutative, so the merged set equals the sequential
//!   [`Axis::image_into`] bit for bit. [`PoolSweeper`] hands it to the
//!   set-at-a-time Core XPath evaluator
//!   ([`treequery_xpath::eval_query_with`]) and to the full reducer's
//!   semijoin passes ([`treequery_cq::Enumerator::with_sweeper`]);
//! * [`par_eval_via_rewrite`] — the Theorem 5.1 rewrite-to-acyclic
//!   union with each part's full-reducer semijoin program run as its own
//!   task (independent join-tree branches), results merged into the same
//!   `BTreeSet` the sequential evaluator builds.
//!
//! Determinism is the point: the planner may freely flip a query
//! between sequential and parallel execution without any observable
//! difference except wall time and the `parallel_*` metrics.

use std::collections::BTreeSet;

use treequery_cq::rewrite::RewriteError;
use treequery_cq::Cq;
use treequery_tree::{
    incoming_carries_in_place, pre_range_at, pre_range_count, scratch, Axis, CarryFlow, NodeId,
    NodeSet, Tree,
};

use crate::plan::exec::Metrics;
use crate::plan::pool::WorkerPool;

/// Boxes a closure for [`WorkerPool::run_scoped`].
type ScopedTask<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

fn note_kernel(metrics: &Metrics, chunks: usize) {
    use std::sync::atomic::Ordering;
    metrics.parallel_kernels.fetch_add(1, Ordering::Relaxed);
    metrics
        .parallel_chunks
        .fetch_add(chunks as u64, Ordering::Relaxed);
}

/// Hands each [`WorkerPool::run_for`] chunk exclusive `&mut` access to
/// its own slot of a caller-owned slice, by raw pointer (the borrow
/// checker cannot see the chunk-index disjointness).
struct SyncSlice<T>(*mut T);

impl<T> SyncSlice<T> {
    fn new(v: &mut [T]) -> Self {
        Self(v.as_mut_ptr())
    }

    /// # Safety
    /// Callers must access disjoint indexes from concurrent threads, and
    /// `i` must be in bounds of the slice `new` was given.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        unsafe { &mut *self.0.add(i) }
    }
}

// SAFETY: only usable via `get`, whose contract requires disjoint slots.
unsafe impl<T: Send> Sync for SyncSlice<T> {}

/// Parallel [`Axis::image_into`]: identical output, computed as chunked
/// pre-order-range slices claimed off the pool's allocation-free
/// parallel for and ORed together in chunk order. All working sets come
/// from the caller thread's scratch pools — never from worker
/// thread-locals — so the allocation profile is independent of how
/// chunks land on workers, and a warmed-up call allocates nothing.
/// Falls back to the sequential sweep for `workers <= 1` or tiny trees.
pub fn par_image_into(
    axis: Axis,
    t: &Tree,
    s: &NodeSet,
    workers: usize,
    metrics: &Metrics,
    out: &mut NodeSet,
) {
    let n = t.len();
    if workers <= 1 || n < 2 {
        axis.image_into(t, s, out);
        return;
    }
    let chunks = pre_range_count(n, workers);
    if chunks <= 1 {
        axis.image_into(t, s, out);
        return;
    }
    let pool = WorkerPool::global();
    // Phase 1 (carry axes only): each range's carry contribution, in
    // parallel; a cheap sequential in-place fold then yields the carry
    // entering each range. Pooling this phase too matters: the carry
    // scan costs about as much as the image scan, so leaving it
    // sequential would cap the speedup at 2× (Amdahl).
    let mut carries = scratch::take_carries();
    carries.resize(chunks, axis.carry_identity());
    match axis.carry_flow() {
        CarryFlow::None => {}
        CarryFlow::Forward | CarryFlow::Backward => {
            note_kernel(metrics, chunks);
            {
                let slots = SyncSlice::new(&mut carries);
                pool.run_for(workers, chunks, &|i| {
                    let r = pre_range_at(n, chunks, i);
                    // SAFETY: chunk i writes slot i only.
                    *unsafe { slots.get(i) } = axis.sweep_carry(t, s, r);
                });
            }
            incoming_carries_in_place(axis, &mut carries);
        }
    }
    // Phase 2: each range's slice of the image, written into per-chunk
    // sets taken from the caller's scratch pool.
    note_kernel(metrics, chunks);
    let mut outs = scratch::take_set_vec();
    for _ in 0..chunks {
        outs.push(scratch::take_set(n));
    }
    let mut swepts = scratch::take_set_vec();
    for _ in 0..chunks {
        swepts.push(scratch::take_set(n));
    }
    {
        let carries = &carries;
        let out_slots = SyncSlice::new(&mut outs);
        let swept_slots = SyncSlice::new(&mut swepts);
        pool.run_for(workers, chunks, &|i| {
            let r = pre_range_at(n, chunks, i);
            let mut span = treequery_obs::span("exec.sweep.chunk");
            span.record_u64("nodes", u64::from(r.end - r.start));
            // SAFETY: chunk i writes slots i only.
            axis.image_range_into(t, s, r, carries[i], unsafe { out_slots.get(i) }, unsafe {
                swept_slots.get(i)
            });
        });
    }
    out.clear();
    for slice in outs.iter() {
        out.union_with(slice);
    }
    // Reverse order of the takes, so the next run pops in take order.
    scratch::put_set_vec(swepts);
    scratch::put_set_vec(outs);
    scratch::put_carries(carries);
}

/// An [`AxisSweeper`](treequery_cq::AxisSweeper) that runs every axis
/// image as a [`par_image_into`] sweep on the shared pool: the executor's
/// sweeper for the set-at-a-time XPath evaluator and the full reducer's
/// semijoin passes. At one worker it is plain [`Axis::image_into`].
pub struct PoolSweeper<'m> {
    /// Worker threads per sweep.
    pub workers: usize,
    /// Executor metrics receiving kernel/chunk counts.
    pub metrics: &'m Metrics,
}

impl treequery_cq::AxisSweeper for PoolSweeper<'_> {
    fn image_into(&self, axis: Axis, t: &Tree, s: &NodeSet, out: &mut NodeSet) {
        par_image_into(axis, t, s, self.workers, self.metrics, out);
    }
}

/// Parallel Theorem 5.1 evaluation: rewrites `q` to a union of acyclic
/// queries once, then evaluates each part (its own full-reducer semijoin
/// program over its join tree) as an independent pool task. Parts are
/// merged into a `BTreeSet` in part order; set union is order-blind, so
/// the answer equals the sequential `cq::rewrite::eval_via_rewrite`,
/// which is what runs at one worker.
pub fn par_eval_via_rewrite(
    q: &Cq,
    t: &Tree,
    workers: usize,
    metrics: &Metrics,
) -> Result<BTreeSet<Vec<NodeId>>, RewriteError> {
    if workers <= 1 {
        return treequery_cq::rewrite::eval_via_rewrite(q, t);
    }
    let (union, _) = treequery_cq::rewrite_to_acyclic(q)?;
    let tasks: Vec<ScopedTask<'_, BTreeSet<Vec<NodeId>>>> = union
        .iter()
        .map(|part| {
            Box::new(move || {
                let _span = treequery_obs::span("exec.union.part");
                treequery_cq::eval_acyclic(part, t).expect("rewritten queries are acyclic")
            }) as ScopedTask<'_, _>
        })
        .collect();
    if tasks.len() > 1 {
        note_kernel(metrics, tasks.len());
    }
    let parts = WorkerPool::global().run_scoped(workers, tasks);
    let mut out = BTreeSet::new();
    for part in parts {
        out.extend(part);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use treequery_tree::{parse_term, random_recursive_tree};

    fn metrics() -> Metrics {
        Metrics::default()
    }

    #[test]
    fn par_image_matches_sequential_for_every_axis() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 37, 200] {
            let t = random_recursive_tree(&mut rng, n, &["a", "b", "c"]);
            let s = NodeSet::from_iter(t.len(), t.nodes().filter(|v| v.0 % 3 != 1));
            let m = metrics();
            let mut out = NodeSet::empty(t.len());
            for axis in Axis::ALL {
                for workers in [1usize, 2, 8] {
                    par_image_into(axis, &t, &s, workers, &m, &mut out);
                    assert_eq!(
                        out,
                        axis.image(&t, &s),
                        "{axis} with {workers} workers on {n} nodes"
                    );
                }
            }
            if n > 1 {
                let snap = m.snapshot();
                assert!(snap.parallel_kernels >= 2, "workers 2 and 8 dispatched");
                assert!(snap.parallel_chunks > snap.parallel_kernels);
            }
        }
    }

    #[test]
    fn par_xpath_matches_sequential_evaluator() {
        let mut rng = StdRng::seed_from_u64(78);
        let queries = [
            "//a[b]/c",
            "//a[not(b or c)]",
            "//b/ancestor::a[following-sibling::c]",
            "//a//b[not(parent::a)]",
            "//a[following::c] | //c/preceding::a",
        ];
        for _ in 0..5 {
            let t = random_recursive_tree(&mut rng, 120, &["a", "b", "c", "r"]);
            let m = metrics();
            for qs in queries {
                let p = treequery_xpath::parse_xpath(qs).unwrap();
                let seq = treequery_xpath::eval_query(&p, &t);
                for workers in [1usize, 2, 8] {
                    let sweeper = PoolSweeper {
                        workers,
                        metrics: &m,
                    };
                    assert_eq!(
                        treequery_xpath::eval_query_with(&p, &t, &sweeper),
                        seq,
                        "{qs} with {workers} workers"
                    );
                }
            }
        }
    }

    /// The evaluator's per-step cancel checkpoints sit in front of the
    /// pooled sweeps too: a query whose token is already tripped
    /// dispatches no chunk at any worker count.
    #[test]
    fn cancelled_par_xpath_dispatches_no_chunk() {
        let mut rng = StdRng::seed_from_u64(81);
        let t = random_recursive_tree(&mut rng, 2_000, &["a", "b", "c", "d"]);
        let p = treequery_xpath::parse_xpath("//a//b[c]").unwrap();
        let token = treequery_tree::CancelToken::new();
        token.cancel();
        for workers in [1usize, 4] {
            let m = metrics();
            let sweeper = PoolSweeper {
                workers,
                metrics: &m,
            };
            let set = treequery_tree::cancel::with_token(&token, || {
                treequery_xpath::eval_query_with(&p, &t, &sweeper)
            });
            scratch::put_set(set);
            let snap = m.snapshot();
            assert_eq!(snap.parallel_kernels, 0, "{workers} workers");
            assert_eq!(snap.parallel_chunks, 0, "{workers} workers");
        }
    }

    #[test]
    fn par_rewrite_union_matches_sequential() {
        let q = treequery_cq::parse_cq("q(x, y) :- label(x, a), label(y, b), following(x, y).")
            .unwrap();
        let t = parse_term("r(a(b c) b(a(c) c) a b)").unwrap();
        let m = metrics();
        let seq = treequery_cq::rewrite::eval_via_rewrite(&q, &t).unwrap();
        for workers in [1usize, 2, 8] {
            let par = par_eval_via_rewrite(&q, &t, workers, &m).unwrap();
            assert_eq!(par, seq, "{workers} workers");
        }
    }
}
