#![warn(missing_docs)]

//! Relational storage for trees (Section 2 of the paper).
//!
//! Implements the *extended access support relation* (XASR) encoding of
//! Figure 2 / Example 2.1 — one row `(pre, post, parent_pre, label)` per
//! node — together with generic sorted binary relations and the structural
//! join algorithms that make the encoding worthwhile:
//!
//! * the stack-based merge structural join of Al-Khalifa et al. \[2\]
//!   (`O(input + output)`),
//! * a nested-loop baseline, and
//! * the "materialize `Child⁺` and join" baseline the paper argues against
//!   ("clearly better than … storing a quadratically-sized `Child⁺`
//!   relation").

mod relation;
mod structural_join;
mod xasr;

pub use relation::Relation;
pub use structural_join::{
    closure_join, nested_loop_join, stack_tree_join, stack_tree_join_into,
    structural_join_counters, JoinCounters,
};
pub use xasr::{LabelBitmap, Xasr, XasrRow};
