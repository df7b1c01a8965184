#![warn(missing_docs)]

//! `treequery-fuzz`: structure-aware differential fuzzing and metamorphic
//! conformance testing for the treequery engine.
//!
//! The crate closes the loop between the paper's *many* evaluation
//! strategies (Koch, *Processing Queries on Tree-Structured Data
//! Efficiently*, PODS 2006) and the single semantics they all claim to
//! implement. It has five layers:
//!
//! 1. **Generators** ([`gen`]): seed-deterministic, grammar-level
//!    generators for trees, Core XPath, conjunctive queries, and monadic
//!    datalog programs — every input is valid by construction.
//! 2. **Mutators** ([`mutate`]): structure-aware mutations (axis swap,
//!    predicate insert/delete, label rename, subtree splice) that keep
//!    inputs well-formed while exploring the grammar neighbourhood.
//! 3. **Differential executor** ([`diff`]): runs one input through every
//!    applicable strategy (via [`treequery_core::plan::applicable_strategies`],
//!    each forced as an `ExplainedPlan::forced` plan through `Engine::run`),
//!    across worker counts, plus the streaming path for XPath and the
//!    naive/TMNF cross-checks for datalog, and reports any disagreement.
//! 4. **Metamorphic oracles** ([`oracle`]): algebraic laws from the paper
//!    (forward-axis rewrite equivalence, `descendant = child⁺` unfolding,
//!    self-join idempotence, monotonicity under subtree insertion,
//!    order-blindness, containment-implies-subset) checked on inputs for
//!    which no second implementation exists.
//! 5. **Shrinker + corpus** ([`mod@shrink`], [`corpus`]): failing inputs are
//!    minimized by deterministic greedy delta-debugging and persisted as
//!    human-readable `.case` files that ordinary `cargo test` replays.
//!
//! [`campaign`] ties the layers into a seed-deterministic fuzzing
//! campaign: the same seed yields the same inputs, the same checks, and
//! the same summary, so a CI failure is reproducible on any machine.

pub mod campaign;
pub mod corpus;
pub mod diff;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod shrink;
pub mod treeops;

use std::fmt;

use treequery_core::plan::ir::{lower_cq, lower_path, lower_program};
use treequery_core::tree::EditOp;
use treequery_core::{cq, datalog, xpath, QueryIr, Tree};

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, CategoryStats};
pub use corpus::{
    case_file_name, load_case, load_dir, parse_case, render_case, render_cq, render_program,
    replay, save_case, Reproducer,
};
pub use diff::{
    differential_check, edit_differential_check, Corruption, CorruptionKind, DiffOptions,
    Discrepancy, Norm,
};
pub use gen::{
    gen_case, gen_cq, gen_datalog, gen_edit_script, gen_tree, gen_xpath, Category, GenConfig,
};
pub use mutate::mutate_case;
pub use oracle::{check_laws, LawViolation, Tamper, LAW_NAMES};
pub use shrink::{shrink, ShrinkStats};

/// Rebuilds a CQ keeping only variables that occur in an atom or the
/// head. Atom deletion (mutation, shrinking, containment relaxation)
/// can orphan a variable; the evaluation strategies differ in how they
/// treat variables constrained by nothing, so the fuzzer never emits
/// them.
pub fn compact_cq(q: &cq::Cq) -> cq::Cq {
    let live = q.live_vars();
    let mut out = cq::Cq::new();
    let mut map = std::collections::BTreeMap::new();
    for v in &live {
        map.insert(*v, out.add_var(q.var_name(*v)));
    }
    out.atoms = q.atoms.iter().map(|a| a.map_vars(|v| map[&v])).collect();
    out.head = q.head.iter().map(|v| map[v]).collect();
    out
}

/// A query in whichever of the three front-end languages it was generated.
#[derive(Clone, Debug)]
pub enum CaseQuery {
    /// A Core XPath path expression.
    XPath(xpath::Path),
    /// A conjunctive query.
    Cq(cq::Cq),
    /// A monadic datalog program.
    Datalog(datalog::Program),
}

impl CaseQuery {
    /// The language tag used in the corpus format.
    pub fn lang(&self) -> &'static str {
        match self {
            CaseQuery::XPath(_) => "xpath",
            CaseQuery::Cq(_) => "cq",
            CaseQuery::Datalog(_) => "datalog",
        }
    }

    /// Query size (AST nodes / atoms / program size) — the shrinker's
    /// progress measure on the query side.
    pub fn size(&self) -> usize {
        match self {
            CaseQuery::XPath(p) => p.size(),
            CaseQuery::Cq(q) => q.size(),
            CaseQuery::Datalog(p) => p.size(),
        }
    }

    /// Lowers the query to the engine's shared IR.
    pub fn lower(&self) -> QueryIr {
        match self {
            CaseQuery::XPath(p) => lower_path(p),
            CaseQuery::Cq(q) => lower_cq(q),
            CaseQuery::Datalog(p) => lower_program(p),
        }
    }
}

impl fmt::Display for CaseQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseQuery::XPath(p) => write!(f, "{p}"),
            CaseQuery::Cq(q) => write!(f, "{}", corpus::render_cq(q)),
            CaseQuery::Datalog(p) => write!(f, "{}", corpus::render_program(p)),
        }
    }
}

/// One fuzzing input: a tree, a query against it, and (for edit-script
/// cases) a script of mutations replayed between re-evaluations.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The data tree.
    pub tree: Tree,
    /// The query, in its original front-end language.
    pub query: CaseQuery,
    /// An edit script applied one op at a time, re-checking after each
    /// op (empty for classic single-shot cases). Ops address nodes by
    /// pre rank and are total after [`EditOp::normalize`], so dropping
    /// any prefix or subset during shrinking leaves a valid script.
    pub edits: Vec<EditOp>,
}

impl FuzzCase {
    /// Total input size (tree nodes + query size + script length) — the
    /// shrinker's overall progress measure.
    pub fn size(&self) -> usize {
        self.tree.len() + self.query.size() + self.edits.len()
    }
}
