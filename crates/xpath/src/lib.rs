#![warn(missing_docs)]

//! Core XPath (Section 3 of the paper): the navigational fragment of
//! XPath over unranked ordered labeled trees.
//!
//! Grammar (Section 3):
//!
//! ```text
//! p    ::= step | p/p | p ∪ p
//! step ::= axis | step[q]
//! axis ::= arel | arel⁻¹ | Self
//! q    ::= p | lab() = L | q ∧ q | q ∨ q | ¬q
//! ```
//!
//! This crate provides:
//!
//! * the AST and a parser that accepts both the paper's notation and
//!   familiar abbreviated XPath (`//a[b]/c`, `child::a`, `not(...)`),
//! * [`eval_reference`] — a literal transcription of the denotational
//!   semantics (P1)–(P4) / (Q1)–(Q5), used as the correctness oracle,
//! * [`eval`] / [`eval_query`] — the set-at-a-time evaluator: every axis
//!   image/preimage is one O(n) order sweep, giving `O(|D| · |Q|)`
//!   combined complexity (the linear-time data complexity of Section 4);
//!   [`eval_query_with`] runs the same evaluator with a caller's
//!   [`treequery_cq::AxisSweeper`] (the executor's chunked parallel one),
//! * [`to_datalog`] — the translation into monadic datalog over τ⁺
//!   (Section 3 / \[29\]); negation is compiled via dual predicates, with
//!   label complements as extensional `notlabel` facts,
//! * [`to_cq`] — the translation of *conjunctive* Core XPath into acyclic
//!   conjunctive queries (Proposition 4.2).

mod ast;
mod eval;
mod features;
mod parser;
mod reference;
mod to_cq;
mod to_datalog;

pub use ast::{Path, Qual};
pub use eval::{eval, eval_query, eval_query_with, select, sources};
pub use features::{features, PathFeatures};
pub use parser::{parse_xpath, XPathParseError};
pub use reference::eval_reference;
pub use to_cq::{to_cq, NotConjunctive};
pub use to_datalog::to_datalog;
