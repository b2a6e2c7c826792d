//! String interning for the columnar store.
//!
//! Every measurement name, tag key, tag value, and field name the store
//! ever sees is assigned one [`Symbol`] — a dense `u32` in first-seen
//! order. The hot ingest path then works purely on symbols: no string
//! formatting, no string hashing, no map probes. Queries only map text to
//! symbols, so each string is stored once, as a key of the table.
//!
//! Determinism rules (PERFORMANCE.md):
//! * ids are **insertion-ordered** — the same sequence of `intern` calls
//!   yields the same ids, independent of platform or hasher seeds;
//! * the table is backed by a `BTreeMap` (ordered compare, no hashing),
//!   so iteration anywhere stays byte-reproducible run-to-run.

use std::collections::BTreeMap;

/// An interned string: a dense id in first-seen order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Symbol(u32);

/// A deterministic, insertion-ordered string table.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    /// text → symbol. BTreeMap: lookup cost is an ordered compare, never a
    /// seed-dependent hash.
    map: BTreeMap<String, Symbol>,
}

impl Interner {
    /// Intern `s`, assigning the next insertion-ordered id on first sight.
    pub(crate) fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        assert!(self.map.len() < u32::MAX as usize, "symbol id overflow");
        let sym = Symbol(self.map.len() as u32);
        self.map.insert(s.to_string(), sym);
        sym
    }

    /// Resolve text to an existing symbol without interning. `None` means
    /// the store has never seen this string — queries use this to answer
    /// "no match" without mutating the table.
    pub(crate) fn lookup(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// Actual heap bytes held by the table, for
    /// [`crate::Db::resident_bytes`].
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.map
            .keys()
            .map(|s| s.len() + size_of::<(String, Symbol)>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_insertion_ordered_and_stable() {
        let mut i = Interner::default();
        let a = i.intern("path_set");
        let b = i.intern("core");
        let a2 = i.intern("path_set");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, Symbol(0));
        assert_eq!(b, Symbol(1));
        assert_eq!(i.map.len(), 2);
    }

    #[test]
    fn lookup_never_interns() {
        let mut i = Interner::default();
        assert!(i.lookup("missing").is_none());
        assert!(i.map.is_empty());
        let s = i.intern("hit");
        assert_eq!(i.lookup("hit"), Some(s));
        assert_eq!(i.map.len(), 1);
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        // The profiler tags unlabelled cores with `app=""`.
        let mut i = Interner::default();
        let e = i.intern("");
        assert_eq!(i.lookup(""), Some(e));
    }
}
