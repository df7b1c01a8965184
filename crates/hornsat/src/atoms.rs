//! Dense interning of ground atoms into propositional variables.
//!
//! The reductions in the paper (grounding monadic datalog, the Horn-SAT
//! encoding of arc-consistency in Proposition 6.2) all map structured
//! ground atoms like `P₀(3)` or `Θ(x, v)` to propositional variables. An
//! [`AtomTable`] provides this mapping with O(1) amortized interning.

use std::collections::HashMap;
use std::hash::Hash;

use crate::minoux::Var;

/// Bijection between ground atoms of type `A` and dense propositional
/// variables.
#[derive(Clone, Debug)]
pub struct AtomTable<A> {
    by_atom: HashMap<A, Var>,
    atoms: Vec<A>,
}

impl<A: Clone + Eq + Hash> Default for AtomTable<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Clone + Eq + Hash> AtomTable<A> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            by_atom: HashMap::new(),
            atoms: Vec::new(),
        }
    }

    /// Interns `atom`, returning its variable (allocating one if new).
    pub fn var(&mut self, atom: A) -> Var {
        if let Some(&v) = self.by_atom.get(&atom) {
            return v;
        }
        let v = Var(u32::try_from(self.atoms.len()).expect("too many atoms"));
        self.atoms.push(atom.clone());
        self.by_atom.insert(atom, v);
        v
    }

    /// Looks up an atom without interning it.
    pub fn lookup(&self, atom: &A) -> Option<Var> {
        self.by_atom.get(atom).copied()
    }

    /// The atom of a variable.
    pub fn atom(&self, v: Var) -> &A {
        &self.atoms[v.index()]
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over all `(Var, atom)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &A)> {
        self.atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (Var(i as u32), a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup() {
        let mut t: AtomTable<(u32, u32)> = AtomTable::new();
        let v1 = t.var((0, 5));
        let v2 = t.var((1, 5));
        assert_ne!(v1, v2);
        assert_eq!(t.var((0, 5)), v1);
        assert_eq!(t.lookup(&(1, 5)), Some(v2));
        assert_eq!(t.lookup(&(9, 9)), None);
        assert_eq!(*t.atom(v2), (1, 5));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn iter_in_order() {
        let mut t: AtomTable<&'static str> = AtomTable::new();
        t.var("a");
        t.var("b");
        let collected: Vec<_> = t.iter().map(|(v, a)| (v.0, *a)).collect();
        assert_eq!(collected, vec![(0, "a"), (1, "b")]);
    }
}
