//! E22 — columnar storage: the bytes a structural-join sweep scans are
//! linear in the *posting-list length*, not the tree size.
//!
//! With the per-label `(pre, post)` posting lists of the XASR layer,
//! `Xasr::label_list` hands the stack-tree join a borrowed slice: the
//! sweep reads exactly the two posting lists plus its output, never the
//! other nodes of the document. Two geometric ladders make the claim
//! measurable with the E21 log-log slope harness:
//!
//! * growing the number of `a`/`b` nodes at a fixed tree size must scale
//!   the scanned bytes linearly (slope ≈ 1), and
//! * growing the tree around a *fixed* number of `a`/`b` nodes must
//!   leave the scanned bytes flat (slope ≈ 0),
//!
//! where "scanned bytes" is the deterministic work measure of the
//! sweep: 8 bytes per `(pre, post)` pair read from either posting list
//! or emitted into the output. A third check pins the access path
//! itself: repeated `label_list` + joins over a warm `Xasr` perform
//! zero allocations under the counting allocator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treequery_core::obs::alloc::AccountingGuard;
use treequery_core::obs::capture;
use treequery_core::storage::{stack_tree_join_into, Xasr};
use treequery_core::tree::TreeBuilder;
use treequery_core::Tree;

use super::e21_memory::{log_log_fit, ScalingFit};
use crate::util::header;

/// A random recursive tree of `n` nodes carrying exactly `k` nodes
/// labeled `a` and `k` labeled `b` (evenly strided through insertion
/// order so they spread over the whole document); all other nodes get
/// the filler label `x`.
pub fn doc_with_postings(seed: u64, n: usize, k: usize) -> Tree {
    assert!(n > 2 * k, "need room for 2k labeled nodes plus filler");
    let mut labels = vec!["x"; n];
    let step = (n - 1) / (2 * k);
    for j in 0..k {
        labels[1 + 2 * j * step] = "a";
        labels[1 + (2 * j + 1) * step] = "b";
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    nodes.push(b.root("r"));
    for (i, label) in labels.iter().enumerate().skip(1) {
        let parent = nodes[rng.gen_range(0..i)];
        nodes.push(b.child(parent, label));
    }
    b.freeze()
}

/// Joins `a` ancestors with `b` descendants over the XASR posting lists
/// and returns the sweep's scanned bytes: 8 per posting-pair read plus
/// 8 per output pair. Buffers are caller-provided so the measurement
/// can also drive the zero-allocation check.
pub fn sweep_bytes(x: &Xasr, stack: &mut Vec<(u32, u32)>, out: &mut Vec<(u32, u32)>) -> u64 {
    let la = x.label_list("a");
    let lb = x.label_list("b");
    stack_tree_join_into(la, lb, stack, out);
    (la.len() + lb.len() + out.len()) as u64 * std::mem::size_of::<(u32, u32)>() as u64
}

/// Ladder A: fixed tree size, growing posting lists. Returns
/// `(2k, bytes)` points and their log-log fit (expected slope ≈ 1).
pub fn posting_ladder(n: usize, ks: &[usize]) -> (Vec<(u64, u64)>, ScalingFit) {
    let mut stack = Vec::new();
    let mut out = Vec::new();
    let points: Vec<(u64, u64)> = ks
        .iter()
        .map(|&k| {
            let t = doc_with_postings(22, n, k);
            let x = Xasr::from_tree(&t);
            (2 * k as u64, sweep_bytes(&x, &mut stack, &mut out))
        })
        .collect();
    let fit = log_log_fit(&to_f64(&points));
    (points, fit)
}

/// Ladder B: fixed posting lists, growing tree. Returns `(n, bytes)`
/// points and their fit (expected slope ≈ 0: the sweep never touches
/// the filler nodes).
pub fn tree_ladder(k: usize, ns: &[usize]) -> (Vec<(u64, u64)>, ScalingFit) {
    let mut stack = Vec::new();
    let mut out = Vec::new();
    let points: Vec<(u64, u64)> = ns
        .iter()
        .map(|&n| {
            let t = doc_with_postings(22, n, k);
            let x = Xasr::from_tree(&t);
            (n as u64, sweep_bytes(&x, &mut stack, &mut out))
        })
        .collect();
    let fit = log_log_fit(&to_f64(&points));
    (points, fit)
}

fn to_f64(points: &[(u64, u64)]) -> Vec<(f64, f64)> {
    points.iter().map(|&(x, y)| (x as f64, y as f64)).collect()
}

/// Allocations of `reps` warm `label_list` + join sweeps with reused
/// buffers (warm-up pass included before counting starts). Must be 0:
/// the posting lists are borrowed slices and the join writes into
/// caller buffers.
pub fn steady_state_allocs(x: &Xasr, reps: usize) -> u64 {
    let _accounting = AccountingGuard::begin();
    let mut stack = Vec::new();
    let mut out = Vec::new();
    std::hint::black_box(sweep_bytes(x, &mut stack, &mut out));
    let ((), captured) = capture(|| {
        for _ in 0..reps {
            std::hint::black_box(sweep_bytes(x, &mut stack, &mut out));
        }
    });
    captured.alloc.allocs
}

pub fn run() {
    header(
        "E22",
        "Columnar postings — sweep bytes scale with posting length, not tree size",
    );
    println!("fixed tree of 40000 nodes, growing a/b postings:");
    println!("{:>10} {:>14}", "|postings|", "bytes scanned");
    let (points, fit) = posting_ladder(40_000, &[100, 200, 400, 800, 1_600]);
    for (len, bytes) in &points {
        println!("{len:>10} {bytes:>14}");
    }
    println!(
        "log-log fit: slope {:.3} (1.0 = linear in posting length), R^2 {:.4}",
        fit.slope, fit.r2
    );
    println!("\nfixed 128+128 a/b postings, growing tree:");
    println!("{:>10} {:>14}", "nodes", "bytes scanned");
    let (points, fit) = tree_ladder(128, &[5_000, 10_000, 20_000, 40_000, 80_000]);
    for (n, bytes) in &points {
        println!("{n:>10} {bytes:>14}");
    }
    println!(
        "log-log fit: slope {:.3} (0.0 = independent of tree size)",
        fit.slope
    );
    let t = doc_with_postings(22, 20_000, 256);
    let x = Xasr::from_tree(&t);
    let allocs = steady_state_allocs(&x, 50);
    println!("steady-state allocations of 50 warm sweeps: {allocs}");
    println!("the sweep reads the posting columns only; label_list is a borrowed slice.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_places_exactly_k_postings() {
        for (n, k) in [(500, 10), (2_000, 64), (999, 1)] {
            let t = doc_with_postings(7, n, k);
            assert_eq!(t.len(), n);
            assert_eq!(t.nodes_with_label_name("a").len(), k);
            assert_eq!(t.nodes_with_label_name("b").len(), k);
        }
    }

    /// The experiment's claim on reduced ladders: bytes scanned grow
    /// linearly in the posting length and stay flat in the tree size.
    #[test]
    fn sweep_bytes_track_posting_length_not_tree_size() {
        let (points, fit) = posting_ladder(8_000, &[25, 50, 100, 200, 400]);
        assert!(
            (0.75..=1.25).contains(&fit.slope),
            "posting slope {:.3} not ~linear; points: {points:?}",
            fit.slope
        );
        assert!(fit.r2 >= 0.95, "R^2 {:.4}; points: {points:?}", fit.r2);
        let (points, fit) = tree_ladder(64, &[2_000, 4_000, 8_000, 16_000]);
        assert!(
            fit.slope < 0.3,
            "tree-size slope {:.3} should be ~flat; points: {points:?}",
            fit.slope
        );
    }

    /// Warm sweeps over the posting columns are allocation-free: the
    /// lists are borrowed slices and the join reuses its buffers.
    #[test]
    fn warm_sweeps_do_not_allocate() {
        let t = doc_with_postings(7, 4_000, 64);
        let x = Xasr::from_tree(&t);
        assert_eq!(steady_state_allocs(&x, 20), 0);
    }
}
