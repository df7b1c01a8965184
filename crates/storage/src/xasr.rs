//! The extended access support relation (XASR) of Fiebig & Moerkotte \[27\],
//! as presented in Figure 2 and Example 2.1 of the paper.
//!
//! One row per node: the `<pre`-index, the `<post`-index, the `<pre`-index
//! of the parent (`NULL` for the root), and the node's label. The
//! `descendant` and `child` "SQL views" of Example 2.1 are provided as
//! methods producing [`Relation`]s over pre-indexes.
//!
//! Beyond the row view, construction precomputes the columnar access paths
//! the structural joins scan: per-label `(pre, post)` posting lists in one
//! flat pre-sorted column ([`Xasr::label_list`] returns a borrowed slice),
//! and a per-label bitmap over pre-indexes ([`Xasr::label_bitmap`]) for
//! O(1) "does pre-index p carry label a" probes.

use std::collections::HashMap;
use std::fmt;

use treequery_tree::Tree;

use crate::relation::Relation;

/// One XASR row. Indexes are 1-based to match the paper's Figure 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XasrRow {
    /// `<pre`-index of the node (1-based).
    pub pre: u32,
    /// `<post`-index of the node (1-based).
    pub post: u32,
    /// `<pre`-index of the parent; `None` (SQL `NULL`) for the root.
    pub parent_pre: Option<u32>,
    /// The node's (primary) label.
    pub label: String,
}

/// The XASR of a tree: rows sorted by pre-index, plus columnar per-label
/// indexes (flat posting lists and bitmaps) built once at construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xasr {
    rows: Vec<XasrRow>,
    /// Distinct labels → dense index into the CSR columns below.
    label_index: HashMap<String, u32>,
    /// CSR offsets into `label_postings`, one entry per distinct label + 1.
    label_offsets: Vec<u32>,
    /// `(pre, post)` pairs (1-based), pre-sorted within each label.
    label_postings: Vec<(u32, u32)>,
    /// Per-label bitmaps over pre-indexes: label `i` owns the words
    /// `bitmap_words[i*words_per_label .. (i+1)*words_per_label]`, with bit
    /// `pre-1` set iff the row at that pre-index carries the label.
    bitmap_words: Vec<u64>,
    words_per_label: usize,
}

impl Xasr {
    /// Builds the XASR of a tree in O(n), including the per-label posting
    /// lists and bitmap indexes.
    pub fn from_tree(t: &Tree) -> Self {
        let rows: Vec<XasrRow> = t
            .pre_order()
            .map(|v| XasrRow {
                pre: t.pre(v) + 1,
                post: t.post(v) + 1,
                parent_pre: t.parent(v).map(|p| t.pre(p) + 1),
                label: t.label_name(v).to_owned(),
            })
            .collect();

        // Dense label ids in first-appearance (document) order.
        let mut label_index: HashMap<String, u32> = HashMap::new();
        for r in &rows {
            let next = label_index.len() as u32;
            label_index.entry(r.label.clone()).or_insert(next);
        }
        let num_labels = label_index.len();

        // Counting sort of the rows into per-label posting runs; rows are
        // visited in pre order, so each run stays pre-sorted.
        let mut label_offsets = vec![0u32; num_labels + 1];
        for r in &rows {
            label_offsets[label_index[&r.label] as usize + 1] += 1;
        }
        for i in 0..num_labels {
            label_offsets[i + 1] += label_offsets[i];
        }
        let mut cursor = label_offsets.clone();
        let mut label_postings = vec![(0u32, 0u32); rows.len()];
        let words_per_label = rows.len().div_ceil(64);
        let mut bitmap_words = vec![0u64; num_labels * words_per_label];
        for r in &rows {
            let lab = label_index[&r.label] as usize;
            let slot = &mut cursor[lab];
            label_postings[*slot as usize] = (r.pre, r.post);
            *slot += 1;
            let bit = (r.pre - 1) as usize;
            bitmap_words[lab * words_per_label + bit / 64] |= 1u64 << (bit % 64);
        }

        Self {
            rows,
            label_index,
            label_offsets,
            label_postings,
            bitmap_words,
            words_per_label,
        }
    }

    /// The rows, sorted by pre-index.
    pub fn rows(&self) -> &[XasrRow] {
        &self.rows
    }

    /// Number of rows (= number of nodes).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Example 2.1's `descendant` view:
    ///
    /// ```sql
    /// SELECT r1.pre, r2.pre FROM R r1, R r2
    /// WHERE r1.pre < r2.pre AND r2.post < r1.post;
    /// ```
    ///
    /// Evaluated as written — a theta-join by nested loop. The efficient
    /// alternative is [`crate::stack_tree_join`].
    pub fn descendant_view(&self) -> Relation {
        let mut out = Vec::new();
        for r1 in &self.rows {
            for r2 in &self.rows {
                if r1.pre < r2.pre && r2.post < r1.post {
                    out.push((r1.pre, r2.pre));
                }
            }
        }
        Relation::from_pairs(out)
    }

    /// Example 2.1's `child` view:
    ///
    /// ```sql
    /// SELECT parent_pre, pre FROM R WHERE parent_pre IS NOT NULL;
    /// ```
    pub fn child_view(&self) -> Relation {
        Relation::from_pairs(
            self.rows
                .iter()
                .filter_map(|r| r.parent_pre.map(|p| (p, r.pre)))
                .collect(),
        )
    }

    /// The `(pre, post)` pairs of rows carrying `label` (a "label list",
    /// the input unit of structural joins), sorted by pre — a borrowed
    /// slice of the precomputed posting column, never a fresh `Vec`.
    pub fn label_list(&self, label: &str) -> &[(u32, u32)] {
        let Some(&i) = self.label_index.get(label) else {
            return &[];
        };
        let lo = self.label_offsets[i as usize] as usize;
        let hi = self.label_offsets[i as usize + 1] as usize;
        &self.label_postings[lo..hi]
    }

    /// The bitmap over pre-indexes for `label`, or `None` if the label
    /// does not occur.
    pub fn label_bitmap(&self, label: &str) -> Option<LabelBitmap<'_>> {
        let &i = self.label_index.get(label)?;
        let lo = i as usize * self.words_per_label;
        Some(LabelBitmap {
            words: &self.bitmap_words[lo..lo + self.words_per_label],
        })
    }

    /// O(1) probe: does the row at (1-based) `pre` carry `label`?
    pub fn has_label_at_pre(&self, label: &str, pre: u32) -> bool {
        self.label_bitmap(label)
            .is_some_and(|b| b.contains_pre(pre))
    }
}

/// A borrowed per-label bitmap over (1-based) pre-indexes.
#[derive(Clone, Copy, Debug)]
pub struct LabelBitmap<'a> {
    words: &'a [u64],
}

impl LabelBitmap<'_> {
    /// Whether the row at (1-based) `pre` carries the label.
    pub fn contains_pre(&self, pre: u32) -> bool {
        if pre == 0 {
            return false;
        }
        let bit = (pre - 1) as usize;
        self.words
            .get(bit / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    /// Number of pre-indexes carrying the label.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl fmt::Display for Xasr {
    /// Renders the table in the layout of Figure 2 (b).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>4} {:>5} {:>10} {:>4}",
            "pre", "post", "parent_pre", "lab"
        )?;
        for r in &self.rows {
            let parent = r
                .parent_pre
                .map_or_else(|| "\u{22A5}".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{:>4} {:>5} {:>10} {:>4}",
                r.pre, r.post, parent, r.label
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treequery_tree::parse_term;

    /// Figure 2: the tree `1:7:a(2:3:b(3:1:a 4:2:c) 5:6:a(6:4:b 7:5:d))` and
    /// its XASR table, cell by cell.
    #[test]
    fn figure2_xasr_table() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        let x = Xasr::from_tree(&t);
        let expected = [
            (1, 7, None, "a"),
            (2, 3, Some(1), "b"),
            (3, 1, Some(2), "a"),
            (4, 2, Some(2), "c"),
            (5, 6, Some(1), "a"),
            (6, 4, Some(5), "b"),
            (7, 5, Some(5), "d"),
        ];
        assert_eq!(x.len(), expected.len());
        for (row, &(pre, post, parent, lab)) in x.rows().iter().zip(&expected) {
            assert_eq!(row.pre, pre);
            assert_eq!(row.post, post);
            assert_eq!(row.parent_pre, parent);
            assert_eq!(row.label, lab);
        }
    }

    #[test]
    fn descendant_view_matches_ancestor_relation() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        let x = Xasr::from_tree(&t);
        let desc = x.descendant_view();
        for u in t.nodes() {
            for v in t.nodes() {
                assert_eq!(
                    desc.contains((t.pre(u) + 1, t.pre(v) + 1)),
                    t.is_ancestor(u, v),
                    "({u:?},{v:?})"
                );
            }
        }
        // Root is an ancestor of all 6 other nodes; the two inner nodes of
        // 2 descendants each: 6 + 2 + 2 = 10 pairs.
        assert_eq!(desc.len(), 10);
    }

    #[test]
    fn child_view_matches_parent_links() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        let x = Xasr::from_tree(&t);
        let child = x.child_view();
        assert_eq!(child.len(), 6);
        for u in t.nodes() {
            for v in t.nodes() {
                assert_eq!(
                    child.contains((t.pre(u) + 1, t.pre(v) + 1)),
                    t.parent(v) == Some(u)
                );
            }
        }
    }

    #[test]
    fn label_lists_are_pre_sorted() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        let x = Xasr::from_tree(&t);
        let asr = x.label_list("a");
        assert_eq!(asr, vec![(1, 7), (3, 1), (5, 6)]);
        assert!(x.label_list("zzz").is_empty());
    }

    #[test]
    fn label_list_is_borrowed_and_stable() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        let x = Xasr::from_tree(&t);
        // Two calls return the same slice of the posting column.
        let first: *const (u32, u32) = x.label_list("a").as_ptr();
        let second: *const (u32, u32) = x.label_list("a").as_ptr();
        assert_eq!(first, second);
    }

    #[test]
    fn bitmap_agrees_with_row_scan() {
        let t = parse_term("a(b(a c) a(b d))").unwrap();
        let x = Xasr::from_tree(&t);
        for label in ["a", "b", "c", "d", "zzz"] {
            for r in x.rows() {
                assert_eq!(
                    x.has_label_at_pre(label, r.pre),
                    r.label == label,
                    "{label} at pre {}",
                    r.pre
                );
            }
        }
        let bm = x.label_bitmap("a").unwrap();
        assert_eq!(bm.count(), 3);
        assert!(!bm.contains_pre(0));
        assert!(!bm.contains_pre(1000));
        assert!(x.label_bitmap("zzz").is_none());
    }

    #[test]
    fn display_matches_figure2_layout() {
        let t = parse_term("a(b)").unwrap();
        let x = Xasr::from_tree(&t);
        let text = x.to_string();
        assert!(text.contains("pre"));
        assert!(text.contains('\u{22A5}'), "root parent printed as ⊥");
    }
}
