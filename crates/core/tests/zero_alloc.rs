//! Steady-state zero-allocation tests for the executor kernels.
//!
//! Each kernel is run warm (several reps, so thread-local scratch pools
//! and pool-worker buffers reach their final capacities), then once more
//! inside a capture and a named [`AllocScope`]; the scope's attributed
//! allocation count — including allocations made by pool workers on the
//! kernel's behalf — must be exactly zero. Covered kernels, each called
//! the way `plan::exec::execute` calls it, at 1 and 4 workers: axis-image
//! sweeps, the semijoin full reducer through [`PoolSweeper`], and the
//! union-merge set-at-a-time XPath evaluator through [`PoolSweeper`].
//!
//! Property tests at the bottom pin the columnar index structures to
//! the scans they replaced: per-label posting lists agree with a full
//! `has_label` scan, and the XASR label bitmaps agree with a posting
//! row scan.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use treequery_core::cq;
use treequery_core::obs::alloc::{AccountingGuard, AllocScope};
use treequery_core::obs::capture;
use treequery_core::plan::par::{par_image_into, PoolSweeper};
use treequery_core::plan::Metrics;
use treequery_core::storage::Xasr;
use treequery_core::tree::{random_recursive_tree, scratch, Axis, NodeSet, Tree};
use treequery_core::xpath;

/// Warm reps before the measured one. More than strictly necessary:
/// pool workers claim chunks nondeterministically, so every worker must
/// have had a chance to touch each kernel's buffers before measuring.
const WARM: usize = 8;

fn test_tree() -> Tree {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    random_recursive_tree(&mut rng, 2_000, &["a", "b", "c", "d"])
}

/// Runs `f` warm, then once inside a capture and an [`AllocScope`] named
/// `name`, and asserts the scope saw zero allocations.
fn assert_zero_steady_state(name: &'static str, mut f: impl FnMut()) {
    for _ in 0..WARM {
        f();
    }
    let ((), captured) = capture(|| {
        let _scope = AllocScope::enter(name);
        f();
    });
    let stats = captured.scope(name);
    let allocs = stats.map_or(0, |s| s.allocs);
    assert_eq!(
        allocs, 0,
        "{name}: steady state must be allocation-free, got {stats:?}"
    );
}

/// All three kernels, both worker counts. Each measurement is its own
/// capture, which sees only this thread and the pool workers acting for
/// it, so nothing else running in the process can leak into the counts.
#[test]
fn kernels_are_allocation_free_in_steady_state() {
    let _accounting = AccountingGuard::begin();
    let t = test_tree();
    let n = t.len();
    let metrics = Metrics::default();

    let source = NodeSet::from_iter(n, t.nodes_with_label_name("a").iter().copied());
    let cq_query = cq::parse_cq("q(x) :- label(x, a), child(x, y), label(y, b).").unwrap();
    let forest = cq::JoinForest::build(&cq_query).expect("query is acyclic");
    let union_query = xpath::parse_xpath("//a | //b[c]").unwrap();

    for &(workers, sweep_name, semi_name, union_name) in &[
        (
            1usize,
            "zero_alloc.sweep.w1",
            "zero_alloc.semijoin.w1",
            "zero_alloc.union.w1",
        ),
        (
            4usize,
            "zero_alloc.sweep.w4",
            "zero_alloc.semijoin.w4",
            "zero_alloc.union.w4",
        ),
    ] {
        // Axis-image sweeps: one partitionable axis, one sibling axis
        // (the carry-chained case).
        let mut out = NodeSet::empty(n);
        assert_zero_steady_state(sweep_name, || {
            par_image_into(Axis::Descendant, &t, &source, workers, &metrics, &mut out);
            par_image_into(
                Axis::FollowingSibling,
                &t,
                &source,
                workers,
                &metrics,
                &mut out,
            );
        });

        let sweeper = PoolSweeper {
            workers,
            metrics: &metrics,
        };

        // Semijoin full reducer (Yannakakis passes over the join forest).
        assert_zero_steady_state(semi_name, || {
            let sets = cq::full_reduce_with(&cq_query, &t, &forest, &sweeper)
                .expect("query is satisfiable on this tree");
            scratch::put_set_vec(sets);
        });

        // Union-merge set-at-a-time evaluation.
        assert_zero_steady_state(union_name, || {
            let s = xpath::eval_query_with(&union_query, &t, &sweeper);
            scratch::put_set(s);
        });
    }
}

proptest! {
    /// The CSR posting lists frozen into the tree return exactly the
    /// nodes a full `has_label` scan finds, in document order.
    #[test]
    fn posting_lists_match_label_scan(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = random_recursive_tree(&mut rng, 120, &["a", "b", "c", "d"]);
        for name in ["a", "b", "c", "d", "nope"] {
            let fast = t.nodes_with_label_name(name).to_vec();
            let mut slow: Vec<_> = t
                .nodes()
                .filter(|&v| t.has_label_name(v, name))
                .collect();
            t.sort_by_pre(&mut slow);
            prop_assert_eq!(fast, slow, "label {}", name);
        }
    }

    /// The XASR per-label bitmap answers membership exactly like a scan
    /// of the posting rows.
    #[test]
    fn label_bitmap_matches_posting_scan(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = random_recursive_tree(&mut rng, 90, &["a", "b", "c"]);
        let x = Xasr::from_tree(&t);
        for label in ["a", "b", "c", "nope"] {
            let bitmap = x.label_bitmap(label);
            let postings = x.label_list(label);
            prop_assert_eq!(
                bitmap.as_ref().map_or(0, |b| b.count()) as usize,
                postings.len()
            );
            for pre in 0..=(t.len() as u32 + 1) {
                let scanned = postings.iter().any(|&(p, _)| p == pre);
                let fast = bitmap.as_ref().is_some_and(|b| b.contains_pre(pre));
                prop_assert_eq!(fast, scanned, "label {} pre {}", label, pre);
                prop_assert_eq!(x.has_label_at_pre(label, pre), scanned);
            }
        }
    }
}
