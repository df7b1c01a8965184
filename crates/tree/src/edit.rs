//! In-place edits on the frozen arena: subtree insert, delete, relabel.
//!
//! The [`Tree`] index is "frozen" in the sense that every derived column
//! (orders, extents, postings) is kept exact at all times — not in the
//! sense that the document cannot change. [`EditableTree`] wraps a tree
//! together with its ORDPATH-style [`PathLabel`]s (the gap-labeled
//! scheme of the `labeling` module, Section 2's hierarchical labels) and
//! repairs the index *incrementally* per edit:
//!
//! * **relabel** — O(1) on the label column plus a splice of the two
//!   touched per-label posting runs;
//! * **insert leaf** — O(1) structural relinking, an O(depth) extent
//!   repair along the ancestor chain, one binary-searched posting
//!   insertion into the new label's run, and the new leaf's `<bflr`
//!   rank read off a sibling (or, for a first child, off the nearest
//!   node with children on the parent's breadth-first level);
//! * **delete subtree** — the deleted nodes occupy contiguous `pre` and
//!   `post` ranges, so survivor ranks shift by a constant; node ids are
//!   compacted in place and order-preserving, so ids below the smallest
//!   deleted id keep their slots and only the tail moves (edits append
//!   their leaves, so deleting a recently inserted leaf moves a handful
//!   of ids); posting entries are dropped by binary search in their
//!   runs, and the breadth-first inverse map drops the deleted entries
//!   and re-derives `<bflr` in one pass.
//!
//! What remains linear in the document per edit is a few branch-free,
//! allocation-free slice passes: the rank shifts of `pre`, `post`,
//! `pre_end` and `bflr` (one loop per column, so each vectorises), the
//! contiguous memmoves of the inverse maps, and on delete the relink
//! passes that rewrite only id values above the smallest deleted id.
//!
//! `PathLabel`s are the document-order authority for insertions: a new
//! sibling's label comes from [`PathLabel::between`], which never moves
//! an existing label. When repeated insertion into the same gap exhausts
//! the integer room (ORDPATH careting has grown a label far beyond its
//! structural depth), the [`EditableTree`] falls back to a **full
//! refreeze**: all derived columns and all path labels are recomputed
//! from the structural links, restoring the gap invariant. The policy is
//! deliberate and observable ([`EditableTree::refreeze_count`]).

use std::collections::VecDeque;
use std::fmt;

use crate::label::Symbol;
use crate::labeling::{PathLabel, PathLabeling};
use crate::tree::{NodeId, Tree, NONE};

/// One edit, addressed by *pre-order rank* (document position), which is
/// the only node address that survives rebuilds and prior edits — the
/// differential fuzzer compares an incrementally edited tree against a
/// from-scratch rebuild, and `NodeId`s are not comparable across the two.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Insert a fresh leaf under the node at `parent_pre`, becoming its
    /// `child_idx`-th child (existing children from that position shift
    /// right).
    InsertLeaf {
        /// Pre rank of the parent (taken modulo the tree size).
        parent_pre: u32,
        /// Insertion position among the parent's children (taken modulo
        /// fanout + 1).
        child_idx: u32,
        /// Label of the new leaf.
        label: String,
    },
    /// Delete the whole subtree rooted at the node at `pre`. Deleting
    /// the root is not an edit (it would leave no document); normalized
    /// to a skip.
    DeleteSubtree {
        /// Pre rank of the subtree root (taken modulo the tree size).
        pre: u32,
    },
    /// Replace the primary label of the node at `pre`.
    Relabel {
        /// Pre rank of the node (taken modulo the tree size).
        pre: u32,
        /// The new primary label.
        label: String,
    },
}

impl EditOp {
    /// Resolves the op's raw addresses against `t` (ranks are taken
    /// modulo the current size, insertion positions modulo fanout + 1),
    /// so *every* op applies to *every* non-empty tree. Returns `None`
    /// only for ops normalized to a skip (deleting the root).
    ///
    /// This total semantics is what lets the fuzzer generate, mutate and
    /// shrink edit scripts freely: dropping an earlier op never
    /// invalidates a later one.
    pub fn normalize(&self, t: &Tree) -> Option<EditOp> {
        let n = t.len() as u32;
        match self {
            EditOp::InsertLeaf {
                parent_pre,
                child_idx,
                label,
            } => {
                let parent_pre = parent_pre % n;
                let fanout = t.children(t.node_at_pre(parent_pre)).count() as u32;
                Some(EditOp::InsertLeaf {
                    parent_pre,
                    child_idx: child_idx % (fanout + 1),
                    label: label.clone(),
                })
            }
            EditOp::DeleteSubtree { pre } => {
                let pre = pre % n;
                (t.node_at_pre(pre) != t.root()).then_some(EditOp::DeleteSubtree { pre })
            }
            EditOp::Relabel { pre, label } => Some(EditOp::Relabel {
                pre: pre % n,
                label: label.clone(),
            }),
        }
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditOp::InsertLeaf {
                parent_pre,
                child_idx,
                label,
            } => write!(f, "insert({parent_pre},{child_idx},{label})"),
            EditOp::DeleteSubtree { pre } => write!(f, "delete({pre})"),
            EditOp::Relabel { pre, label } => write!(f, "relabel({pre},{label})"),
        }
    }
}

/// Error from [`EditOp::parse`] / [`parse_script`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditParseError(pub String);

impl fmt::Display for EditParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad edit op: {}", self.0)
    }
}

impl std::error::Error for EditParseError {}

impl EditOp {
    /// Parses the [`Display`](std::fmt::Display) syntax back
    /// (`insert(p,i,l)`, `delete(p)`,
    /// `relabel(p,l)`).
    pub fn parse(s: &str) -> Result<EditOp, EditParseError> {
        let s = s.trim();
        let err = || EditParseError(s.to_owned());
        let (head, rest) = s.split_once('(').ok_or_else(err)?;
        let args = rest.strip_suffix(')').ok_or_else(err)?;
        let parts: Vec<&str> = args.split(',').map(str::trim).collect();
        let num = |p: &str| p.parse::<u32>().map_err(|_| err());
        match (head.trim(), parts.as_slice()) {
            ("insert", [p, i, l]) if !l.is_empty() => Ok(EditOp::InsertLeaf {
                parent_pre: num(p)?,
                child_idx: num(i)?,
                label: (*l).to_owned(),
            }),
            ("delete", [p]) => Ok(EditOp::DeleteSubtree { pre: num(p)? }),
            ("relabel", [p, l]) if !l.is_empty() => Ok(EditOp::Relabel {
                pre: num(p)?,
                label: (*l).to_owned(),
            }),
            _ => Err(err()),
        }
    }
}

/// Renders a script as the canonical `op; op; ...` line.
pub fn render_script(ops: &[EditOp]) -> String {
    ops.iter()
        .map(EditOp::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

/// Parses a `; `-separated script line.
pub fn parse_script(s: &str) -> Result<Vec<EditOp>, EditParseError> {
    s.split(';')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(EditOp::parse)
        .collect()
}

/// What kind of change an [`EditDelta`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// A leaf was inserted.
    Insert,
    /// A subtree was deleted.
    Delete,
    /// A primary label changed.
    Relabel,
}

/// Snapshot of one deleted node, captured while it was still reachable —
/// exactly what downstream incremental maintenance (statistics deltas,
/// fingerprint deltas) needs, and nothing more.
#[derive(Clone, Debug)]
pub struct RemovedNode {
    /// Depth the node had.
    pub depth: u32,
    /// Number of children the node had.
    pub fanout: u32,
    /// All labels the node carried (primary first).
    pub labels: Vec<Symbol>,
}

/// The precise description of one applied edit: which contiguous rank
/// ranges were spliced and what changed there. Every downstream
/// incremental consumer (statistics and fingerprint deltas, path-label
/// compaction, the datalog delta pass) reads this instead of diffing
/// trees.
#[derive(Clone, Debug)]
pub struct EditDelta {
    /// The kind of edit.
    pub kind: EditKind,
    /// The spliced pre-rank range (inclusive): the new node's rank for
    /// inserts, the *old* subtree range for deletes, the node's rank for
    /// relabels.
    pub pre_range: (u32, u32),
    /// The spliced post-rank range (inclusive), same conventions.
    pub post_range: (u32, u32),
    /// The inserted or relabeled node (current ids; `None` for deletes).
    pub node: Option<NodeId>,
    /// Parent of the edit site, in *post-edit* ids (`None` for relabels
    /// and for deletes whose parent semantics the caller doesn't need).
    pub parent: Option<NodeId>,
    /// The parent's fanout *before* the edit.
    pub parent_old_fanout: u32,
    /// Old primary label (relabels only).
    pub old_label: Option<Symbol>,
    /// Every label the node carried *before* a relabel, primary first
    /// (relabels only; empty otherwise). Relabeling a node to one of its
    /// extra labels promotes the extra, so the new label *multiset* is
    /// not derivable from `old_label`/`new_label` alone — incremental
    /// label-count maintenance needs this snapshot.
    pub old_labels: Vec<Symbol>,
    /// New label (inserts and relabels).
    pub new_label: Option<Symbol>,
    /// Per-node snapshots of the deleted subtree (deletes only), in pre
    /// order.
    pub removed: Vec<RemovedNode>,
    /// Old ids of the deleted nodes, ascending (deletes only). Id
    /// compaction is order-preserving: a survivor's new id is its old id
    /// minus the number of removed ids below it ([`EditDelta::remap`]).
    pub removed_ids: Vec<u32>,
    /// Whether this edit triggered a full refreeze (gap exhaustion):
    /// consumers holding derived state must rebuild rather than patch.
    pub refroze: bool,
}

impl EditDelta {
    /// Number of nodes added (positive) or removed (negative).
    pub fn nodes_delta(&self) -> i64 {
        match self.kind {
            EditKind::Insert => 1,
            EditKind::Delete => -(self.removed.len() as i64),
            EditKind::Relabel => 0,
        }
    }

    /// Maps an old node id through the delta's compaction (identity for
    /// inserts and relabels; `None` if the node was deleted).
    pub fn remap(&self, v: NodeId) -> Option<NodeId> {
        match self.removed_ids.binary_search(&v.0) {
            Ok(_) => None,
            Err(below) => Some(NodeId(v.0 - below as u32)),
        }
    }

    /// Compacts a per-node column indexed by pre-edit ids through the
    /// same remap as the tree, in place: slots below the smallest removed
    /// id stay, and the tail moves down. A no-op unless nodes were
    /// removed.
    pub fn compact<T>(&self, col: &mut Vec<T>) {
        compact_ids(col, &self.removed_ids);
    }
}

/// Careting slack before a refreeze: a path label may exceed its node's
/// structural depth by at most this many components before the labeling
/// is declared gap-exhausted and reassigned wholesale.
pub const GAP_SLACK: usize = 4;

/// Ordinal magnitude bound; one-sided insertion walks ordinals ±2 per
/// insert and can never realistically reach this, but the guard keeps
/// the exhaustion policy total.
const MAX_ORDINAL: i64 = 1 << 60;

/// A [`Tree`] that accepts edits, plus the gap-labeled [`PathLabel`]s
/// that order them and the refreeze bookkeeping.
#[derive(Clone)]
pub struct EditableTree {
    tree: Tree,
    path: Vec<PathLabel>,
    edits: u64,
    refreezes: u64,
}

impl EditableTree {
    /// Wraps a frozen tree, assigning gap path labels in O(n).
    pub fn new(tree: Tree) -> EditableTree {
        let labeling = PathLabeling::new(&tree);
        let path = tree.nodes().map(|v| labeling.label(v).clone()).collect();
        EditableTree {
            tree,
            path,
            edits: 0,
            refreezes: 0,
        }
    }

    /// The current tree (always a fully consistent frozen index).
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Unwraps into the current tree.
    pub fn into_tree(self) -> Tree {
        self.tree
    }

    /// The gap path label of a node.
    pub fn path_label(&self, v: NodeId) -> &PathLabel {
        &self.path[v.index()]
    }

    /// Number of edits applied so far.
    pub fn edit_count(&self) -> u64 {
        self.edits
    }

    /// Number of full refreezes the gap-exhaustion policy has triggered.
    pub fn refreeze_count(&self) -> u64 {
        self.refreezes
    }

    /// Applies one op (after [`EditOp::normalize`]); `None` when the op
    /// normalized to a skip.
    pub fn apply(&mut self, op: &EditOp) -> Option<EditDelta> {
        let op = op.normalize(&self.tree)?;
        Some(match op {
            EditOp::InsertLeaf {
                parent_pre,
                child_idx,
                label,
            } => {
                let parent = self.tree.node_at_pre(parent_pre);
                self.insert_leaf(parent, child_idx as usize, &label).1
            }
            EditOp::DeleteSubtree { pre } => {
                let v = self.tree.node_at_pre(pre);
                self.delete_subtree(v)
            }
            EditOp::Relabel { pre, label } => {
                let v = self.tree.node_at_pre(pre);
                self.relabel(v, &label)
            }
        })
    }

    /// Inserts a fresh leaf as the `child_idx`-th child of `parent`,
    /// repairing every index column in place. Returns the new node and
    /// the delta.
    ///
    /// # Panics
    /// Panics if `child_idx` exceeds the parent's fanout.
    pub fn insert_leaf(
        &mut self,
        parent: NodeId,
        child_idx: usize,
        label: &str,
    ) -> (NodeId, EditDelta) {
        self.edits += 1;
        // Sibling path labels *before* the splice: the new label must
        // slot between them without moving either.
        let left = child_idx
            .checked_sub(1)
            .and_then(|i| self.tree.children(parent).nth(i));
        let right = self.tree.children(parent).nth(child_idx);
        let new_label = match (left, right) {
            (None, None) => {
                // First child ever: extend the parent's path with a gap
                // ordinal (2·0 + 1), exactly what a refreeze would pick.
                let mut comps = self.path[parent.index()].components().to_vec();
                comps.push(1);
                PathLabel::from_components(comps)
            }
            (l, r) => PathLabel::between(
                l.map(|v| &self.path[v.index()]),
                r.map(|v| &self.path[v.index()]),
            ),
        };
        let parent_old_fanout = self.tree.children(parent).count() as u32;
        let (node, pre, post) = self.tree.splice_insert_leaf(parent, child_idx, label);
        debug_assert_eq!(node.index(), self.path.len());
        let exhausted = new_label.depth() > self.tree.depth(node) as usize + GAP_SLACK
            || new_label
                .components()
                .iter()
                .any(|c| c.unsigned_abs() > MAX_ORDINAL as u64);
        self.path.push(new_label);
        let refroze = exhausted;
        if exhausted {
            self.refreeze();
        }
        let delta = EditDelta {
            kind: EditKind::Insert,
            pre_range: (pre, pre),
            post_range: (post, post),
            node: Some(node),
            parent: Some(parent),
            parent_old_fanout,
            old_label: None,
            old_labels: Vec::new(),
            new_label: Some(self.tree.label(node)),
            removed: Vec::new(),
            removed_ids: Vec::new(),
            refroze,
        };
        (node, delta)
    }

    /// Deletes the whole subtree rooted at `v`, compacting node ids.
    ///
    /// # Panics
    /// Panics if `v` is the root.
    pub fn delete_subtree(&mut self, v: NodeId) -> EditDelta {
        self.edits += 1;
        let delta = self.tree.splice_delete_subtree(v);
        delta.compact(&mut self.path);
        delta
    }

    /// Replaces the primary label of `v`. Relabeling to the same label
    /// is a structural no-op (the delta still reports it).
    pub fn relabel(&mut self, v: NodeId, label: &str) -> EditDelta {
        self.edits += 1;
        let old_labels: Vec<Symbol> = self.tree.labels(v).collect();
        let (old, new) = self.tree.splice_relabel(v, label);
        EditDelta {
            kind: EditKind::Relabel,
            pre_range: (self.tree.pre(v), self.tree.pre(v)),
            post_range: (self.tree.post(v), self.tree.post(v)),
            node: Some(v),
            parent: None,
            parent_old_fanout: 0,
            old_label: Some(old),
            old_labels,
            new_label: Some(new),
            removed: Vec::new(),
            removed_ids: Vec::new(),
            refroze: false,
        }
    }

    /// The gap-exhaustion fallback: recompute every derived index column
    /// from the structural links and reassign all path labels with fresh
    /// gaps. O(n), the cost the incremental paths exist to avoid — which
    /// is why it only runs when the careting policy says the labels have
    /// degenerated.
    pub fn refreeze(&mut self) {
        self.refreezes += 1;
        self.tree.recompute_indexes();
        let labeling = PathLabeling::new(&self.tree);
        self.path = self
            .tree
            .nodes()
            .map(|v| labeling.label(v).clone())
            .collect();
    }

    /// Debug oracle: asserts the path labels agree with the index's
    /// document order and ancestorship on every adjacent pre pair.
    #[doc(hidden)]
    pub fn assert_labels_consistent(&self) {
        let t = &self.tree;
        let mut prev: Option<NodeId> = None;
        for v in t.pre_order() {
            if let Some(u) = prev {
                assert_eq!(
                    self.path[u.index()].document_cmp(&self.path[v.index()]),
                    std::cmp::Ordering::Less,
                    "path labels out of document order at pre {}",
                    t.pre(v)
                );
            }
            if let Some(p) = t.parent(v) {
                assert!(
                    self.path[p.index()].is_ancestor_of(&self.path[v.index()]),
                    "parent path label is not an ancestor at pre {}",
                    t.pre(v)
                );
            }
            prev = Some(v);
        }
    }
}

// ---------------------------------------------------------------------
// The splice machinery proper: pub(crate) surgery on the Tree columns.

impl Tree {
    /// Inserts a fresh leaf under `parent` at `child_idx`, repairing all
    /// index columns. Returns `(node, pre, post)` of the new leaf.
    pub(crate) fn splice_insert_leaf(
        &mut self,
        parent: NodeId,
        child_idx: usize,
        label: &str,
    ) -> (NodeId, u32, u32) {
        let n = self.len() as u32;
        let p = parent.index();
        let left = child_idx
            .checked_sub(1)
            .and_then(|i| self.children(parent).nth(i));
        let right = self.children(parent).nth(child_idx);
        assert!(
            child_idx == 0 || left.is_some(),
            "child_idx {child_idx} exceeds fanout"
        );

        // New ranks, computed from pre-splice values. In pre order the
        // leaf lands where its right sibling was (or right after the
        // parent's old extent); in post order it is visited right after
        // its left sibling's subtree (or first in the parent's subtree).
        let i = match right {
            Some(r) => self.pre[r.index()],
            None => self.pre_end[p] + 1,
        };
        let np = match left {
            Some(l) => self.post[l.index()] + 1,
            None => self.post[p] - (self.pre_end[p] - self.pre[p]),
        };
        let b = self.new_leaf_bflr(parent, left, right);

        // Rank shifts, one branch-free pass per column; the new slots
        // open at pre `i`, post `np` and bflr `b`.
        shift_up(&mut self.pre, i);
        shift_up(&mut self.post, np);
        shift_up(&mut self.pre_end, i);
        shift_up(&mut self.bflr, b);
        // Ancestors whose extent ended exactly at `i - 1` (the parent
        // chain when appending at the end) now extend through `i`.
        let mut a = parent.0;
        while a != NONE && self.pre_end[a as usize] == i - 1 {
            self.pre_end[a as usize] = i;
            a = self.parent[a as usize];
        }

        // Sibling positions after the insertion point shift right.
        let mut c = right;
        while let Some(r) = c {
            self.sib_idx[r.index()] += 1;
            c = self.next_sibling(r);
        }

        // Append the node's own columns.
        let id = NodeId(n);
        let sym = self.interner.intern(label);
        self.parent.push(parent.0);
        self.first_child.push(NONE);
        self.last_child.push(NONE);
        self.next_sibling.push(right.map_or(NONE, |r| r.0));
        self.prev_sibling.push(left.map_or(NONE, |l| l.0));
        self.label.push(sym);
        self.extra_offsets
            .push(*self.extra_offsets.last().expect("CSR is non-empty"));
        self.pre.push(i);
        self.post.push(np);
        self.depth.push(self.depth[p] + 1);
        self.sib_idx.push(child_idx as u32);
        self.pre_end.push(i);
        self.bflr.push(b);

        // Structural relink.
        match left {
            Some(l) => self.next_sibling[l.index()] = id.0,
            None => self.first_child[p] = id.0,
        }
        match right {
            Some(r) => self.prev_sibling[r.index()] = id.0,
            None => self.last_child[p] = id.0,
        }

        // Inverse maps: one contiguous memmove each.
        self.pre_to_node.insert(i as usize, id);
        self.post_to_node.insert(np as usize, id);
        self.bflr_to_node.insert(b as usize, id);

        // Posting repair: only the new label's run changes; every other
        // run keeps its node ids, whose relative pre order is untouched.
        self.ensure_symbol_runs();
        self.insert_posting(sym, id);

        (id, i, np)
    }

    /// The `<bflr` rank a new leaf under `parent` takes between its
    /// `left` and `right` siblings, read from the pre-splice columns.
    /// Next to a sibling it is that sibling's neighbour. A first child
    /// goes where the children of the parent's breadth-first level are
    /// grouped by parent: before the first child of the nearest later
    /// node on that level that has children, else after the last child
    /// of the nearest earlier one, else (the level below is empty) at
    /// the end of the parent's level.
    fn new_leaf_bflr(&self, parent: NodeId, left: Option<NodeId>, right: Option<NodeId>) -> u32 {
        if let Some(l) = left {
            return self.bflr[l.index()] + 1;
        }
        if let Some(r) = right {
            return self.bflr[r.index()];
        }
        let d = self.depth[parent.index()];
        let at = self.bflr[parent.index()] as usize;
        let on_level = |u: NodeId| self.depth[u.index()] == d;
        let mut level_end = at + 1;
        for &u in self.bflr_to_node[at + 1..]
            .iter()
            .take_while(|&&u| on_level(u))
        {
            let c = self.first_child[u.index()];
            if c != NONE {
                return self.bflr[c as usize];
            }
            level_end += 1;
        }
        if let Some(&u) = self.bflr_to_node[..at]
            .iter()
            .rev()
            .take_while(|&&u| on_level(u))
            .find(|&&u| self.last_child[u.index()] != NONE)
        {
            return self.bflr[self.last_child[u.index()] as usize] + 1;
        }
        level_end as u32
    }

    /// Deletes the subtree rooted at `v` (non-root), compacting node ids
    /// and shifting survivor ranks by the subtree size. Returns the
    /// delta (with `removed` snapshots and the removed ids).
    ///
    /// Compaction is order-preserving and in place: ids below the
    /// smallest removed id `d0` keep their slots, and only the tail of
    /// each column moves down. Edits append their new leaves, so the
    /// leaves a recent insert created hold the highest ids and deleting
    /// one moves almost nothing; what stays `O(n)` are the branch-free
    /// rank shifts and the relink passes, which rewrite only values
    /// above `d0`.
    pub(crate) fn splice_delete_subtree(&mut self, v: NodeId) -> EditDelta {
        assert!(!self.is_root(v), "cannot delete the root");
        let n = self.len();
        let k = self.subtree_size(v);
        let (i0, i1) = (self.pre[v.index()], self.pre_end[v.index()]);
        let p1 = self.post[v.index()];
        let p0 = p1 + 1 - k;
        let parent = NodeId(self.parent[v.index()]);
        let parent_old_fanout = self.children(parent).count() as u32;

        // Snapshot the doomed nodes (pre order) while they are intact.
        let mut removed = Vec::with_capacity(k as usize);
        let mut removed_ids = Vec::with_capacity(k as usize);
        for &d in &self.pre_to_node[i0 as usize..=i1 as usize] {
            removed_ids.push(d.0);
            removed.push(RemovedNode {
                depth: self.depth[d.index()],
                fanout: self.children(d).count() as u32,
                labels: self.labels(d).collect(),
            });
        }
        removed_ids.sort_unstable();
        let mut dead_ranks: Vec<u32> = removed_ids.iter().map(|&d| self.bflr[d as usize]).collect();
        dead_ranks.sort_unstable();
        // Posting entries go first, while ids and pre ranks are old.
        self.remove_postings(i0..=i1);

        // Structural unlink of `v` and sibling position repair.
        let (prev, next) = (self.prev_sibling[v.index()], self.next_sibling[v.index()]);
        if prev == NONE {
            self.first_child[parent.index()] = next;
        } else {
            self.next_sibling[prev as usize] = next;
        }
        if next == NONE {
            self.last_child[parent.index()] = prev;
        } else {
            self.prev_sibling[next as usize] = prev;
        }
        let mut c = next;
        while c != NONE {
            self.sib_idx[c as usize] -= 1;
            c = self.next_sibling[c as usize];
        }

        // Old id -> new id for the tail `d0..n` (`NONE` for removed ids).
        let d0 = removed_ids[0];
        let mut tail = vec![NONE; n - d0 as usize];
        let mut dead = removed_ids.iter().peekable();
        let mut next_id = d0;
        for (old, slot) in (d0..).zip(tail.iter_mut()) {
            if dead.next_if_eq(&&old).is_none() {
                *slot = next_id;
                next_id += 1;
            }
        }

        // Per-node columns: the tail moves down in place.
        compact_ids(&mut self.parent, &removed_ids);
        compact_ids(&mut self.first_child, &removed_ids);
        compact_ids(&mut self.last_child, &removed_ids);
        compact_ids(&mut self.next_sibling, &removed_ids);
        compact_ids(&mut self.prev_sibling, &removed_ids);
        compact_ids(&mut self.label, &removed_ids);
        compact_ids(&mut self.depth, &removed_ids);
        compact_ids(&mut self.sib_idx, &removed_ids);
        compact_ids(&mut self.pre, &removed_ids);
        compact_ids(&mut self.post, &removed_ids);
        compact_ids(&mut self.pre_end, &removed_ids);
        compact_ids(&mut self.bflr, &removed_ids);
        self.compact_extras(&tail, d0 as usize);
        let links = [
            &mut self.parent,
            &mut self.first_child,
            &mut self.last_child,
            &mut self.next_sibling,
            &mut self.prev_sibling,
        ];
        for col in links {
            relink_ids(col, d0, &tail);
        }

        // Survivor ranks past the deleted ranges shift down by `k`;
        // ancestors whose extent ended at `i1` now end at `i0 - 1`.
        shift_down(&mut self.pre, i1, k);
        shift_down(&mut self.post, p1, k);
        shift_down(&mut self.pre_end, i1 - 1, k);

        // Inverse maps: drain the contiguous deleted ranges, relink ids.
        self.pre_to_node.drain(i0 as usize..=i1 as usize);
        self.post_to_node.drain(p0 as usize..=p1 as usize);
        relink_ids(&mut self.pre_to_node, d0, &tail);
        relink_ids(&mut self.post_to_node, d0, &tail);
        relink_ids(&mut self.label_postings, d0, &tail);
        relink_ids(std::slice::from_mut(&mut self.root), d0, &tail);

        // Breadth-first order: the removed nodes' entries drop out of
        // `bflr_to_node`, and `bflr` is re-derived from the first removed
        // rank on (ranks before it are unchanged).
        compact_ids(&mut self.bflr_to_node, &dead_ranks);
        relink_ids(&mut self.bflr_to_node, d0, &tail);
        let first = dead_ranks[0];
        for (r, &u) in (first..).zip(&self.bflr_to_node[first as usize..]) {
            self.bflr[u.index()] = r;
        }

        let mut parent = parent;
        relink_ids(std::slice::from_mut(&mut parent), d0, &tail);
        EditDelta {
            kind: EditKind::Delete,
            pre_range: (i0, i1),
            post_range: (p0, p1),
            node: None,
            parent: Some(parent),
            parent_old_fanout,
            old_label: None,
            old_labels: Vec::new(),
            new_label: None,
            removed,
            removed_ids,
            refroze: false,
        }
    }

    /// Moves the extras CSR's tail down in place over the removed ids
    /// (`tail[j]` is the new id of old id `d0 + j`, `NONE` if removed).
    fn compact_extras(&mut self, tail: &[u32], d0: usize) {
        let mut out = self.extra_offsets[d0];
        let mut lo = out;
        let mut w = d0;
        for (j, &new) in tail.iter().enumerate() {
            let hi = self.extra_offsets[d0 + j + 1];
            if new != NONE {
                self.extra_syms
                    .copy_within(lo as usize..hi as usize, out as usize);
                out += hi - lo;
                w += 1;
                self.extra_offsets[w] = out;
            }
            lo = hi;
        }
        self.extra_offsets.truncate(w + 1);
        self.extra_syms.truncate(out as usize);
    }

    /// Replaces the primary label of `v`, splicing the node between the
    /// two touched posting runs. Returns `(old, new)` symbols.
    pub(crate) fn splice_relabel(&mut self, v: NodeId, label: &str) -> (Symbol, Symbol) {
        let old = self.label[v.index()];
        let new = self.interner.intern(label);
        if old == new {
            return (old, new);
        }
        self.label[v.index()] = new;
        self.ensure_symbol_runs();
        // Extras never contain the primary (builder invariant, preserved
        // here), so the old run always loses the node.
        self.remove_posting(old, v);
        let lo = self.extra_offsets[v.index()] as usize;
        let hi = self.extra_offsets[v.index() + 1] as usize;
        if let Some(pos) = self.extra_syms[lo..hi].iter().position(|&s| s == new) {
            // Relabeling *to* an existing extra promotes it: drop the
            // extra (labels stay a set) and keep its posting entry.
            self.extra_syms.remove(lo + pos);
            for o in &mut self.extra_offsets[v.index() + 1..] {
                *o -= 1;
            }
        } else {
            self.insert_posting(new, v);
        }
        (old, new)
    }

    /// Grows the posting CSR with empty runs for symbols interned since
    /// the last freeze.
    fn ensure_symbol_runs(&mut self) {
        let want = self.interner.len() + 1;
        let last = *self.label_offsets.last().expect("CSR is non-empty");
        while self.label_offsets.len() < want {
            self.label_offsets.push(last);
        }
    }

    fn insert_posting(&mut self, sym: Symbol, v: NodeId) {
        let s = sym.0 as usize;
        let lo = self.label_offsets[s] as usize;
        let hi = self.label_offsets[s + 1] as usize;
        let rank = self.pre[v.index()];
        let pos = self.label_postings[lo..hi].partition_point(|&u| self.pre[u.index()] < rank);
        self.label_postings.insert(lo + pos, v);
        for o in &mut self.label_offsets[s + 1..] {
            *o += 1;
        }
    }

    fn remove_posting(&mut self, sym: Symbol, v: NodeId) {
        let s = sym.0 as usize;
        let lo = self.label_offsets[s] as usize;
        let hi = self.label_offsets[s + 1] as usize;
        let rank = self.pre[v.index()];
        let pos = self.label_postings[lo..hi].partition_point(|&u| self.pre[u.index()] < rank);
        debug_assert!(self.label_postings.get(lo + pos) == Some(&v));
        self.label_postings.remove(lo + pos);
        for o in &mut self.label_offsets[s + 1..] {
            *o -= 1;
        }
    }

    /// Drops the posting entries of the nodes at pre ranks `ranks`: each
    /// entry is found by binary search in its label's run, and the CSR
    /// is compacted once from the first dropped entry on.
    fn remove_postings(&mut self, ranks: std::ops::RangeInclusive<u32>) {
        let mut dropped = Vec::new();
        for r in ranks {
            let v = self.pre_to_node[r as usize];
            for sym in self.labels(v) {
                let s = sym.0 as usize;
                let lo = self.label_offsets[s] as usize;
                let hi = self.label_offsets[s + 1] as usize;
                let pos = self.label_postings[lo..hi].partition_point(|&u| self.pre[u.index()] < r);
                debug_assert!(self.label_postings.get(lo + pos) == Some(&v));
                dropped.push((lo + pos) as u32);
            }
        }
        dropped.sort_unstable();
        compact_ids(&mut self.label_postings, &dropped);
        // Each run boundary moves down by the entries dropped before it.
        let mut below = 0;
        for o in &mut self.label_offsets[1..] {
            below += dropped[below..].partition_point(|&d| d < *o);
            *o -= below as u32;
        }
    }

    /// Recomputes the breadth-first order from the structural links, for
    /// the refreeze's full rebuild (edits patch the order in place).
    fn recompute_bflr(&mut self) {
        let n = self.len();
        self.bflr_to_node.clear();
        self.bflr_to_node.reserve(n);
        let mut queue = VecDeque::with_capacity(n);
        queue.push_back(self.root);
        let mut next = 0u32;
        while let Some(v) = queue.pop_front() {
            self.bflr[v.index()] = next;
            self.bflr_to_node.push(v);
            next += 1;
            let mut c = self.first_child[v.index()];
            while c != NONE {
                queue.push_back(NodeId(c));
                c = self.next_sibling[c as usize];
            }
        }
        debug_assert_eq!(next as usize, n);
    }

    /// Full index rebuild from the structural links (labels included):
    /// the refreeze fallback, and the per-edit splices' correctness
    /// oracle in tests. Runs the same iterative DFS/BFS + counting sort
    /// as [`crate::TreeBuilder::freeze`].
    pub(crate) fn recompute_indexes(&mut self) {
        let n = self.len();
        self.pre_to_node.clear();
        self.post_to_node.clear();
        let mut stack: Vec<(NodeId, bool)> = vec![(self.root, false)];
        let mut next_pre = 0u32;
        let mut next_post = 0u32;
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                self.post[v.index()] = next_post;
                self.post_to_node.push(v);
                next_post += 1;
                self.pre_end[v.index()] = next_pre - 1;
                continue;
            }
            self.pre[v.index()] = next_pre;
            self.pre_to_node.push(v);
            next_pre += 1;
            let p = self.parent[v.index()];
            self.depth[v.index()] = if p == NONE {
                0
            } else {
                self.depth[p as usize] + 1
            };
            let ps = self.prev_sibling[v.index()];
            self.sib_idx[v.index()] = if ps == NONE {
                0
            } else {
                self.sib_idx[ps as usize] + 1
            };
            stack.push((v, true));
            let mut c = self.last_child[v.index()];
            while c != NONE {
                stack.push((NodeId(c), false));
                c = self.prev_sibling[c as usize];
            }
        }
        debug_assert_eq!(next_pre as usize, n);
        self.recompute_bflr();

        // Per-label postings by counting sort over pre order.
        let num_syms = self.interner.len();
        let mut offsets = vec![0u32; num_syms + 1];
        for &v in &self.pre_to_node {
            offsets[self.label[v.index()].0 as usize + 1] += 1;
            let lo = self.extra_offsets[v.index()] as usize;
            let hi = self.extra_offsets[v.index() + 1] as usize;
            for sym in &self.extra_syms[lo..hi] {
                offsets[sym.0 as usize + 1] += 1;
            }
        }
        for i in 0..num_syms {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut postings = vec![NodeId(0); *offsets.last().unwrap() as usize];
        for &v in &self.pre_to_node.clone() {
            let slot = &mut cursor[self.label[v.index()].0 as usize];
            postings[*slot as usize] = v;
            *slot += 1;
            let lo = self.extra_offsets[v.index()] as usize;
            let hi = self.extra_offsets[v.index() + 1] as usize;
            for s in 0..hi - lo {
                let sym = self.extra_syms[lo + s];
                let slot = &mut cursor[sym.0 as usize];
                postings[*slot as usize] = v;
                *slot += 1;
            }
        }
        self.label_offsets = offsets;
        self.label_postings = postings;
    }
}

/// Opens a rank slot at `at`: every rank at or past it moves up by one.
fn shift_up(col: &mut [u32], at: u32) {
    for x in col {
        *x += u32::from(*x >= at);
    }
}

/// Closes `k` rank slots: every rank past `past` moves down by `k`.
fn shift_down(col: &mut [u32], past: u32, k: u32) {
    for x in col {
        *x -= k * u32::from(*x > past);
    }
}

/// An entry of an id-valued column (a raw link or a [`NodeId`]).
trait IdValue: Copy {
    fn raw(self) -> u32;
    fn set(&mut self, id: u32);
}

impl IdValue for u32 {
    fn raw(self) -> u32 {
        self
    }
    fn set(&mut self, id: u32) {
        *self = id;
    }
}

impl IdValue for NodeId {
    fn raw(self) -> u32 {
        self.0
    }
    fn set(&mut self, id: u32) {
        self.0 = id;
    }
}

/// Rewrites every id in `col` that lies in `d0..d0 + tail.len()` to
/// `tail[id - d0]`. Each chunk is first scanned branch-free (a
/// vectorised compare) and rewritten only if it holds such an id, so the
/// pass costs one sequential read plus work proportional to the ids
/// that point into the moved tail.
fn relink_ids<T: IdValue>(col: &mut [T], d0: u32, tail: &[u32]) {
    let len = tail.len() as u32;
    for chunk in col.chunks_mut(64) {
        let hit = chunk
            .iter()
            .fold(false, |hit, x| hit | (x.raw().wrapping_sub(d0) < len));
        if hit {
            for x in chunk {
                let j = x.raw().wrapping_sub(d0);
                if j < len {
                    x.set(tail[j as usize]);
                }
            }
        }
    }
}

/// Removes the entries at the ascending indexes `dead` from `col`, in
/// place and order-preserving: entries before `dead[0]` stay put, and
/// the tail moves down over the gaps.
pub(crate) fn compact_ids<T>(col: &mut Vec<T>, dead: &[u32]) {
    let Some(&first) = dead.first() else {
        return;
    };
    let mut dead = dead.iter().peekable();
    let mut w = first as usize;
    for r in first as usize..col.len() {
        if dead.next_if_eq(&&(r as u32)).is_none() {
            col.swap(w, r);
            w += 1;
        }
    }
    col.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{parse_term, to_term};
    use crate::TreeBuilder;

    /// Index-level equivalence by pre-rank alignment: every derived
    /// column of `a` must agree with `b`'s (node ids may differ).
    fn assert_index_equiv(a: &Tree, b: &Tree) {
        assert_eq!(a.len(), b.len());
        for r in 0..a.len() as u32 {
            let (x, y) = (a.node_at_pre(r), b.node_at_pre(r));
            assert_eq!(a.label_name(x), b.label_name(y), "label at pre {r}");
            assert_eq!(a.depth(x), b.depth(y), "depth at pre {r}");
            assert_eq!(a.post(x), b.post(y), "post at pre {r}");
            assert_eq!(a.bflr(x), b.bflr(y), "bflr at pre {r}");
            assert_eq!(a.pre_end(x), b.pre_end(y), "pre_end at pre {r}");
            assert_eq!(a.sibling_index(x), b.sibling_index(y), "sib_idx at {r}");
            assert_eq!(
                a.parent(x).map(|p| a.pre(p)),
                b.parent(y).map(|p| b.pre(p)),
                "parent at pre {r}"
            );
            assert_eq!(
                a.node_at_post(a.post(x)),
                x,
                "post inverse broken at pre {r}"
            );
            assert_eq!(
                a.node_at_bflr(a.bflr(x)),
                x,
                "bflr inverse broken at pre {r}"
            );
            let mut la: Vec<&str> = a.labels(x).map(|s| a.interner().name(s)).collect();
            let mut lb: Vec<&str> = b.labels(y).map(|s| b.interner().name(s)).collect();
            la.sort_unstable();
            lb.sort_unstable();
            assert_eq!(la, lb, "label multiset at pre {r}");
        }
        // Posting runs agree as pre-rank sequences, per label name.
        for (_, name) in a.interner().iter() {
            let pa: Vec<u32> = a
                .nodes_with_label_name(name)
                .iter()
                .map(|&v| a.pre(v))
                .collect();
            let pb: Vec<u32> = b
                .nodes_with_label_name(name)
                .iter()
                .map(|&v| b.pre(v))
                .collect();
            assert_eq!(pa, pb, "postings for {name}");
        }
    }

    /// Rebuilds a fresh frozen tree with the same shape and labels —
    /// the from-scratch oracle.
    fn rebuild(t: &Tree) -> Tree {
        let mut b = TreeBuilder::with_capacity(t.len());
        let mut map = vec![NodeId(0); t.len()];
        for v in t.pre_order() {
            let new = match t.parent(v) {
                None => b.root(t.label_name(v)),
                Some(p) => b.child(map[p.index()], t.label_name(v)),
            };
            map[v.index()] = new;
            let extras: Vec<String> = t
                .labels(v)
                .skip(1)
                .map(|s| t.interner().name(s).to_owned())
                .collect();
            for name in extras {
                b.add_label(new, &name);
            }
        }
        b.freeze()
    }

    #[test]
    fn insert_leaf_everywhere_matches_rebuild() {
        let base = parse_term("r(a(b c) d(e(f)) g)").unwrap();
        let n = base.len() as u32;
        for parent_pre in 0..n {
            let et0 = EditableTree::new(base.clone());
            let parent = et0.tree().node_at_pre(parent_pre);
            let fanout = et0.tree().children(parent).count();
            for idx in 0..=fanout {
                let mut et = EditableTree::new(base.clone());
                let parent = et.tree().node_at_pre(parent_pre);
                let (node, delta) = et.insert_leaf(parent, idx, "z");
                assert_eq!(et.tree().label_name(node), "z");
                assert_eq!(delta.kind, EditKind::Insert);
                assert_eq!(delta.pre_range.0, et.tree().pre(node));
                assert_index_equiv(et.tree(), &rebuild(et.tree()));
                et.assert_labels_consistent();
            }
        }
    }

    #[test]
    fn delete_every_subtree_matches_rebuild() {
        let base = parse_term("r(a(b c) d(e(f)) g)").unwrap();
        for pre in 1..base.len() as u32 {
            let mut et = EditableTree::new(base.clone());
            let v = et.tree().node_at_pre(pre);
            let size = et.tree().subtree_size(v) as usize;
            let delta = et.delete_subtree(v);
            assert_eq!(delta.kind, EditKind::Delete);
            assert_eq!(delta.removed.len(), size);
            assert_eq!(delta.nodes_delta(), -(size as i64));
            assert_index_equiv(et.tree(), &rebuild(et.tree()));
            et.assert_labels_consistent();
        }
    }

    /// Inserts leaves labeled `z0..` as last children of the given
    /// nodes and returns their ids, oldest first.
    fn insert_leaves(et: &mut EditableTree, parents: &[u32]) -> Vec<NodeId> {
        parents
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let p = NodeId(id);
                let fanout = et.tree().children(p).count();
                et.insert_leaf(p, fanout, &format!("z{i}")).0
            })
            .collect()
    }

    #[test]
    fn deleting_the_newest_and_oldest_inserted_leaves_matches_rebuild() {
        let base = parse_term("r(a(b c) d(e(f)) g)").unwrap();
        let n = base.len() as u32;
        let mut et = EditableTree::new(base);
        let leaves = insert_leaves(&mut et, &[1, 4, 0, 6, 2]);
        assert_eq!(leaves.last().unwrap().0, n + 4, "appended ids");
        // The newest leaf holds the highest id: nothing moves.
        let newest = *leaves.last().unwrap();
        let delta = et.delete_subtree(newest);
        assert_eq!(delta.removed_ids, vec![newest.0]);
        assert_eq!(delta.remap(NodeId(3)), Some(NodeId(3)));
        assert_eq!(delta.remap(newest), None);
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
        et.assert_labels_consistent();
        // The oldest inserted leaf holds the smallest appended id: the
        // three newer ones move down by one.
        let oldest = leaves[0];
        let delta = et.delete_subtree(oldest);
        assert_eq!(delta.remap(leaves[3]), Some(NodeId(leaves[3].0 - 1)));
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
        et.assert_labels_consistent();
        for (i, &old) in leaves[1..4].iter().enumerate() {
            let v = delta.remap(old).expect("survivor");
            assert_eq!(et.tree().label_name(v), format!("z{}", i + 1));
        }
    }

    #[test]
    fn deleting_a_low_id_original_subtree_moves_appended_ids() {
        let base = parse_term("r(a(b c) d(e(f)) g)").unwrap();
        let mut et = EditableTree::new(base);
        insert_leaves(&mut et, &[0, 6, 5, 7]);
        // `a(b c)` holds ids 1..=3; every later id shifts down by three.
        let a = et.tree().node_at_pre(1);
        assert_eq!(a, NodeId(1));
        let delta = et.delete_subtree(a);
        assert_eq!(delta.removed_ids, vec![1, 2, 3]);
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
        et.assert_labels_consistent();
        assert_eq!(to_term(et.tree()), "r(d(e(f(z1) z2)) g(z3) z0)");
        // Edits keep composing on the compacted ids.
        insert_leaves(&mut et, &[2, 1]);
        et.delete_subtree(et.tree().node_at_pre(1));
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
        et.assert_labels_consistent();
    }

    #[test]
    fn first_child_bflr_slot_follows_the_parent_level() {
        // Every level-1 neighbour is childless and the level below is
        // empty: the new leaf ends the order.
        for parent in 1..4 {
            let mut et = EditableTree::new(parse_term("r(a b c)").unwrap());
            insert_leaves(&mut et, &[parent]);
            assert_index_equiv(et.tree(), &rebuild(et.tree()));
        }
        // Neighbours with children on either side or only one side: the
        // slot is before the next one's first child, or after the
        // previous one's last child.
        for term in ["r(a(x y) b c(z))", "r(a(x y) b c)", "r(a b c(z w))"] {
            let base = parse_term(term).unwrap();
            for parent in base.nodes().filter(|&v| base.first_child(v).is_none()) {
                let mut et = EditableTree::new(base.clone());
                insert_leaves(&mut et, &[parent.0]);
                assert_index_equiv(et.tree(), &rebuild(et.tree()));
            }
        }
    }

    #[test]
    fn relabel_moves_posting_runs() {
        let base = parse_term("r(a b a)").unwrap();
        let mut et = EditableTree::new(base);
        let v = et.tree().node_at_pre(2); // the b
        let delta = et.relabel(v, "a");
        assert_eq!(delta.kind, EditKind::Relabel);
        assert_eq!(et.tree().nodes_with_label_name("a").len(), 3);
        assert!(et.tree().nodes_with_label_name("b").is_empty());
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
        // Relabel to a brand-new symbol extends the CSR.
        let delta = et.relabel(v, "zzz");
        assert_eq!(
            delta.new_label.map(|s| et.tree().interner().name(s)),
            Some("zzz")
        );
        assert_eq!(et.tree().nodes_with_label_name("zzz"), &[v]);
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
    }

    #[test]
    fn random_scripts_match_rebuild() {
        // A deterministic pseudo-random walk over all three ops; every
        // intermediate state must equal its from-scratch rebuild.
        let mut et = EditableTree::new(parse_term("r(a(b) c)").unwrap());
        let mut state = 0x9E3779B97F4A7C15u64;
        let labels = ["a", "b", "c", "d"];
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = et.tree().len() as u32;
            let op = match state % 3 {
                0 => EditOp::InsertLeaf {
                    parent_pre: (state >> 8) as u32 % n,
                    child_idx: (state >> 40) as u32 % 4,
                    label: labels[(state >> 16) as usize % labels.len()].to_owned(),
                },
                1 if n > 1 => EditOp::DeleteSubtree {
                    pre: (state >> 8) as u32 % n,
                },
                _ => EditOp::Relabel {
                    pre: (state >> 8) as u32 % n,
                    label: labels[(state >> 16) as usize % labels.len()].to_owned(),
                },
            };
            et.apply(&op);
            if step % 10 == 0 {
                assert_index_equiv(et.tree(), &rebuild(et.tree()));
                et.assert_labels_consistent();
            }
        }
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
    }

    #[test]
    fn repeated_gap_insertion_triggers_refreeze() {
        // Repeatedly inserting just before the last sibling hits the
        // adjacent-label caret path, deepening labels by one component
        // per insert until the policy refreezes; labels stay consistent
        // throughout.
        let mut et = EditableTree::new(parse_term("r(a b)").unwrap());
        for _ in 0..16 {
            let root = et.tree().root();
            let fanout = et.tree().children(root).count();
            et.insert_leaf(root, fanout - 1, "m");
            et.assert_labels_consistent();
        }
        assert!(
            et.refreeze_count() > 0,
            "16 before-last insertions must exhaust the careting slack"
        );
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
    }

    #[test]
    fn normalize_makes_every_op_total() {
        let t = parse_term("r(a)").unwrap();
        // Root deletion normalizes to a skip.
        assert_eq!(EditOp::DeleteSubtree { pre: 0 }.normalize(&t), None);
        // Out-of-range ranks wrap.
        let op = EditOp::Relabel {
            pre: 7,
            label: "x".into(),
        };
        assert_eq!(
            op.normalize(&t),
            Some(EditOp::Relabel {
                pre: 1,
                label: "x".into()
            })
        );
        let op = EditOp::InsertLeaf {
            parent_pre: 5,
            child_idx: 9,
            label: "x".into(),
        };
        assert_eq!(
            op.normalize(&t),
            Some(EditOp::InsertLeaf {
                parent_pre: 1,
                child_idx: 0,
                label: "x".into()
            })
        );
    }

    #[test]
    fn script_rendering_round_trips() {
        let script = vec![
            EditOp::InsertLeaf {
                parent_pre: 2,
                child_idx: 0,
                label: "a".into(),
            },
            EditOp::DeleteSubtree { pre: 3 },
            EditOp::Relabel {
                pre: 0,
                label: "b".into(),
            },
        ];
        let line = render_script(&script);
        assert_eq!(line, "insert(2,0,a); delete(3); relabel(0,b)");
        assert_eq!(parse_script(&line).unwrap(), script);
        assert!(EditOp::parse("frob(1)").is_err());
        assert!(EditOp::parse("insert(1,2,)").is_err());
        assert!(parse_script("").unwrap().is_empty());
    }

    #[test]
    fn multi_labeled_nodes_survive_edits() {
        let mut b = TreeBuilder::new();
        let r = b.root("r");
        let c = b.child(r, "a");
        b.add_label(c, "b");
        b.child(c, "x");
        let mut et = EditableTree::new(b.freeze());
        let v = et.tree().node_at_pre(1);
        // Relabel the primary while an extra stays: postings must keep
        // the node under the extra label.
        et.relabel(v, "c");
        assert!(et.tree().has_label_name(v, "b"));
        assert!(et.tree().has_label_name(v, "c"));
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
        // Relabel *to* the extra: the node must not be double-posted.
        et.relabel(v, "b");
        assert_eq!(et.tree().nodes_with_label_name("b").len(), 1);
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
        // And deleting around it keeps the CSR straight.
        let (_, _) = et.insert_leaf(et.tree().root(), 0, "y");
        let w = et.tree().node_at_pre(1);
        et.delete_subtree(w);
        assert_index_equiv(et.tree(), &rebuild(et.tree()));
    }

    #[test]
    fn term_round_trip_after_edits() {
        let mut et = EditableTree::new(parse_term("r(a b)").unwrap());
        let (leaf, _) = et.insert_leaf(et.tree().node_at_pre(1), 0, "c");
        assert_eq!(to_term(et.tree()), "r(a(c) b)");
        et.delete_subtree(leaf);
        assert_eq!(to_term(et.tree()), "r(a b)");
        let v = et.tree().node_at_pre(2);
        et.relabel(v, "q");
        assert_eq!(to_term(et.tree()), "r(a q)");
    }
}
