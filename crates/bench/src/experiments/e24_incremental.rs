//! E24 — incremental re-evaluation: maintenance work after an edit is
//! linear in the *change*, flat in the *document*.
//!
//! A [`Document`] keeps a watched datalog program incrementally
//! maintained: every [`Document::edit`] runs a DRed overdeletion +
//! semi-naive rederivation pass pinned to the edit site instead of
//! re-evaluating the program on the whole tree. For connected rule
//! bodies each pinned probe is O(1) traversals, so a script of `k`
//! relabel edits should cost O(k · |P|) probes *independent of the
//! document size*. Two ladders make the claim measurable with the E21
//! log-log slope harness, using the deterministic probe counter
//! [`Document::watch_work`] rather than wall time:
//!
//! * growing the document under a *fixed* edit script must leave the
//!   maintenance work flat (slope ≈ 0), and
//! * growing the edit script over a *fixed* document must scale the
//!   work linearly (slope ≈ 1).
//!
//! A wall-clock postscript compares one edit + re-query against the
//! from-scratch alternative (rebuild the model, re-run the query); the
//! pinned bench suite gates that same ratio (< 30%) per commit.
//!
//! A second wall-clock ladder times the edits themselves: insert-leaf,
//! relabel and delete-leaf on a live [`Document`] over XMark documents
//! of about 10k → 160k nodes, in the pattern of the service benchmark's
//! edit-mix writer, with the same log-log fit.

use std::time::Instant;

use std::collections::VecDeque;

use rand::{rngs::StdRng, Rng, SeedableRng};
use treequery_core::document::Document;
use treequery_core::tree::{xmark_document, EditOp, NodeId, TreeBuilder, XmarkConfig};
use treequery_core::Tree;

use super::e21_memory::{log_log_fit, ScalingFit};
use crate::util::header;

/// The watched program. The first rule guarantees every relabel-to-`a`
/// maintains at least one fact; the second has a connected two-atom
/// body, so its pinned probes touch the edit site's constant-size
/// neighborhood (the node and its parent) only.
pub const WATCHED: &str =
    "P0(x) :- label(x, a). P0(x) :- label(x, b), child(y, x), label(y, a). ?- P0.";

/// A balanced fanout-8 tree of exactly `n` nodes. Labels are the filler
/// `x` except every 17th node, which alternates `a`/`b` so the watched
/// program has real matches to maintain. Bounded fanout keeps every
/// edit site structurally comparable as `n` grows — the point of the
/// flat ladder is that *only* the script length may move the work.
pub fn doc_of(n: usize) -> Tree {
    assert!(n >= 2);
    let mut b = TreeBuilder::with_capacity(n);
    let label = |i: usize| match (i % 17, i % 2) {
        (0, 0) => "a",
        (0, _) => "b",
        _ => "x",
    };
    let mut nodes = Vec::with_capacity(n);
    nodes.push(b.root("r"));
    for i in 1..n {
        // Parent of node i in a complete 8-ary tree.
        let parent = nodes[(i - 1) / 8];
        nodes.push(b.child(parent, label(i)));
    }
    b.freeze()
}

/// A script of `k` relabel edits strided across the *leaves* of `t`
/// (bounded-fanout sites: the pinned probes of the delta pass touch the
/// leaf and its parent only). Each relabel flips the leaf to `a`, which
/// perturbs the watched program's matches.
pub fn relabel_script(t: &Tree, k: usize) -> Vec<EditOp> {
    let leaves: Vec<u32> = (0..t.len() as u32)
        .filter(|&pre| t.first_child(t.node_at_pre(pre)).is_none())
        .collect();
    assert!(!leaves.is_empty());
    (0..k)
        .map(|j| EditOp::Relabel {
            pre: leaves[(j * leaves.len()) / k.max(1)],
            label: "a".to_owned(),
        })
        .collect()
}

/// Maintenance work (pinned probes) a `k`-edit relabel script costs on
/// an `n`-node document with the watched program live.
pub fn script_work(n: usize, k: usize) -> u64 {
    let mut doc = Document::new(doc_of(n));
    let id = doc.watch_datalog(WATCHED).expect("watched program parses");
    for op in relabel_script(doc.tree(), k) {
        doc.edit(&op);
    }
    doc.watch_work(id)
}

/// Ladder A: fixed 32-edit script, growing document. Returns `(n, work)`
/// points and their log-log fit (expected slope ≈ 0).
pub fn document_ladder(ns: &[usize]) -> (Vec<(u64, u64)>, ScalingFit) {
    let points: Vec<(u64, u64)> = ns.iter().map(|&n| (n as u64, script_work(n, 32))).collect();
    let fit = log_log_fit(&to_f64(&points));
    (points, fit)
}

/// Ladder B: fixed 8192-node document, growing script. Returns
/// `(k, work)` points and their fit (expected slope ≈ 1).
pub fn script_ladder(ks: &[usize]) -> (Vec<(u64, u64)>, ScalingFit) {
    let points: Vec<(u64, u64)> = ks
        .iter()
        .map(|&k| (k as u64, script_work(8_192, k)))
        .collect();
    let fit = log_log_fit(&to_f64(&points));
    (points, fit)
}

fn to_f64(points: &[(u64, u64)]) -> Vec<(f64, f64)> {
    points.iter().map(|&(x, y)| (x as f64, y as f64)).collect()
}

/// Wall time of one relabel edit + watched re-read on a live document,
/// vs. the from-scratch alternative (rebuild the incremental model on
/// the edited tree). Min of `reps`, in nanoseconds.
pub fn edit_requery_walls(n: usize, reps: usize) -> (u64, u64) {
    use treequery_core::datalog;
    use treequery_core::tree::EditableTree;

    let tree = doc_of(n);
    let mut doc = Document::new(tree.clone());
    let id = doc.watch_datalog(WATCHED).expect("watched program parses");
    // Flip one leaf between `a` and the filler so every rep maintains a
    // real change (re-applying an identical relabel would be a no-op).
    let site = match &relabel_script(doc.tree(), 1)[0] {
        EditOp::Relabel { pre, .. } => *pre,
        _ => unreachable!(),
    };
    let ops = [
        EditOp::Relabel {
            pre: site,
            label: "a".to_owned(),
        },
        EditOp::Relabel {
            pre: site,
            label: "x".to_owned(),
        },
    ];
    let mut inc = u64::MAX;
    for rep in 0..reps.max(1) {
        let op = &ops[rep % 2];
        let started = Instant::now();
        doc.edit(op);
        std::hint::black_box(doc.watched(id));
        inc = inc.min(started.elapsed().as_nanos() as u64);
    }

    let prog = datalog::parse_program(WATCHED).expect("watched program parses");
    let mut et = EditableTree::new(tree);
    let mut rebuild = u64::MAX;
    for rep in 0..reps.max(1) {
        let op = &ops[rep % 2];
        let started = Instant::now();
        et.apply(op);
        let model = datalog::IncrementalEval::new(prog.clone(), et.tree());
        std::hint::black_box(model.query().len());
        rebuild = rebuild.min(started.elapsed().as_nanos() as u64);
    }
    (inc, rebuild)
}

/// Inserted leaves kept live before the oldest is deleted again.
const LIVE_LEAVES: usize = 8;

/// Median wall time, in nanoseconds, of each op of `scripts` edit
/// scripts on a live [`Document`] over the XMark document scaled to
/// `scale` (seed 7), as `(nodes, [insert, relabel, delete])`. Each
/// script inserts a freshly labeled leaf under a random node of the
/// original document, relabels a random live inserted leaf, and deletes
/// the oldest inserted leaf once more than eight are live — the service
/// benchmark's edit-mix writer, so the node count stays within
/// `[N, N + 8]`.
pub fn op_walls(scale: usize, scripts: usize) -> (usize, [u64; 3]) {
    let tree = xmark_document(
        &mut StdRng::seed_from_u64(7),
        &XmarkConfig::scaled_to(scale),
    );
    let nodes = tree.len();
    let mut doc = Document::new(tree);
    let mut rng = StdRng::seed_from_u64(0xED17);
    let mut live: VecDeque<String> = VecDeque::new();
    let mut walls: [Vec<u64>; 3] = Default::default();
    let pre_of = |doc: &Document, label: &str| {
        let t = doc.tree();
        t.pre(t.nodes_with_label_name(label)[0])
    };
    let mut timed = |doc: &mut Document, slot: usize, op: EditOp| {
        let started = Instant::now();
        doc.edit(&op).expect("ladder edits never normalize away");
        walls[slot].push(started.elapsed().as_nanos() as u64);
    };
    for i in 0..scripts {
        // Original nodes keep the lowest ids: only appended ids move.
        let parent = NodeId(rng.gen_range(0..nodes as u32));
        let parent_pre = doc.tree().pre(parent);
        let fanout = doc.tree().children(parent).count() as u32;
        let label = format!("n{i}");
        let op = EditOp::InsertLeaf {
            parent_pre,
            child_idx: rng.gen_range(0..=fanout),
            label: label.clone(),
        };
        timed(&mut doc, 0, op);
        live.push_back(label);

        let j = rng.gen_range(0..live.len());
        let pre = pre_of(&doc, &live[j]);
        live[j] = format!("r{i}");
        timed(
            &mut doc,
            1,
            EditOp::Relabel {
                pre,
                label: live[j].clone(),
            },
        );

        if live.len() > LIVE_LEAVES {
            let oldest = live.pop_front().expect("non-empty");
            let pre = pre_of(&doc, &oldest);
            timed(&mut doc, 2, EditOp::DeleteSubtree { pre });
        }
    }
    let median = |w: &mut Vec<u64>| {
        w.sort_unstable();
        w[w.len() / 2]
    };
    let [a, b, c] = &mut walls;
    (nodes, [median(a), median(b), median(c)])
}

/// The [`op_walls`] ladder over `scales`, with one log-log fit of wall
/// time against node count per op.
pub fn op_ladder(scales: &[usize], scripts: usize) -> (Vec<(usize, [u64; 3])>, [ScalingFit; 3]) {
    let points: Vec<(usize, [u64; 3])> = scales.iter().map(|&s| op_walls(s, scripts)).collect();
    let fit = |op: usize| {
        let xy: Vec<(f64, f64)> = points
            .iter()
            .map(|(n, w)| (*n as f64, w[op] as f64))
            .collect();
        log_log_fit(&xy)
    };
    let fits = [fit(0), fit(1), fit(2)];
    (points, fits)
}

pub fn run() {
    header(
        "E24",
        "Incremental re-evaluation — work scales with the change, not the document",
    );
    println!("fixed 32-edit relabel script, growing document:");
    println!("{:>10} {:>14}", "nodes", "probes");
    let (points, fit) = document_ladder(&[1_000, 2_000, 4_000, 8_000, 16_000]);
    for (n, w) in &points {
        println!("{n:>10} {w:>14}");
    }
    println!(
        "log-log fit: slope {:.3} (0.0 = independent of |D|), R^2 {:.4}",
        fit.slope, fit.r2
    );
    println!("\nfixed 8192-node document, growing edit script:");
    println!("{:>10} {:>14}", "edits", "probes");
    let (points, fit) = script_ladder(&[8, 16, 32, 64, 128]);
    for (k, w) in &points {
        println!("{k:>10} {w:>14}");
    }
    println!(
        "log-log fit: slope {:.3} (1.0 = linear in |change|), R^2 {:.4}",
        fit.slope, fit.r2
    );
    let (inc, rebuild) = edit_requery_walls(16_384, 20);
    println!(
        "\nedit + re-query at 16384 nodes: incremental {inc}ns vs rebuild {rebuild}ns \
         ({:.1}% of rebuild)",
        inc as f64 / rebuild as f64 * 100.0
    );
    println!("the delta pass probes the edit site's neighborhood; the document never re-grounds.");

    println!("\nper-op edit wall time (median of 200 edit-mix scripts; script = their sum):");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "nodes", "insert ns", "relabel ns", "delete ns", "script ns"
    );
    let (points, fits) = op_ladder(&[5_000, 10_000, 20_000, 40_000, 80_000], 200);
    for (n, [ins, rel, del]) in &points {
        println!(
            "{n:>10} {ins:>12} {rel:>12} {del:>12} {:>12}",
            ins + rel + del
        );
    }
    for (op, fit) in ["insert", "relabel", "delete"].iter().zip(&fits) {
        println!(
            "{op:>8}: log-log slope {:.3} (0.0 = independent of |D|), R^2 {:.4}",
            fit.slope, fit.r2
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_bounded_fanout_and_labeled() {
        let t = doc_of(2_000);
        assert_eq!(t.len(), 2_000);
        for pre in 0..t.len() as u32 {
            let v = t.node_at_pre(pre);
            assert!(t.children(v).count() <= 8, "fanout bound at pre {pre}");
        }
        assert!(!t.nodes_with_label_name("a").is_empty());
        assert!(!t.nodes_with_label_name("b").is_empty());
    }

    /// The debug-ladder bound the issue asks for: the same edit script
    /// on a 16x larger document must not even double the maintenance
    /// work.
    #[test]
    fn same_script_work_is_flat_in_document_size() {
        let (small, large) = (script_work(1_000, 32), script_work(16_000, 32));
        assert!(small > 0, "the script must do real maintenance work");
        assert!(
            large <= small * 2,
            "32-edit maintenance work grew with |D|: {small} -> {large}"
        );
    }

    /// Every op kind of the edit-mix pattern gets timed.
    #[test]
    fn op_walls_time_every_op() {
        let (nodes, walls) = op_walls(200, 12);
        assert!(nodes > 300, "{nodes}");
        assert!(walls.iter().all(|&w| w > 0), "{walls:?}");
    }

    /// The experiment's claims on reduced ladders: probes flat in |D|,
    /// linear in |change|.
    #[test]
    fn work_tracks_script_length_not_document_size() {
        let (points, fit) = document_ladder(&[1_000, 2_000, 4_000, 8_000]);
        assert!(
            fit.slope < 0.3,
            "document slope {:.3} should be ~flat; points: {points:?}",
            fit.slope
        );
        let (points, fit) = script_ladder(&[8, 16, 32, 64]);
        assert!(
            (0.75..=1.25).contains(&fit.slope),
            "script slope {:.3} not ~linear; points: {points:?}",
            fit.slope
        );
        assert!(fit.r2 >= 0.95, "R^2 {:.4}; points: {points:?}", fit.r2);
    }
}
