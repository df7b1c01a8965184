#![warn(missing_docs)]

//! Propositional Horn-SAT and Minoux's linear-time algorithm (Figure 3 of
//! the paper; Minoux's LTUR, *Information Processing Letters* 29(1), 1988).
//!
//! The paper uses linear-time Horn-SAT as the engine behind two central
//! results: Theorem 3.2 (monadic datalog over τ⁺ in `O(|P|·|Dom|)`) and
//! Proposition 6.2 (the maximal arc-consistent pre-valuation in
//! `O(||A||·|Q|)`). Both reduce to computing the minimal model of a
//! propositional Horn formula, which this crate does in time linear in the
//! formula size.

mod atoms;
mod minoux;

pub use atoms::AtomTable;
pub use minoux::{HornFormula, InitialState, RuleId, Solution, Var};
