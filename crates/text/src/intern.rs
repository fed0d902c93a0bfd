//! String interning.
//!
//! Word-level edit distance and alignment over 52k instruction pairs hash
//! the same words millions of times. Interning maps each distinct word to a
//! dense `u32` symbol once, so the hot inner loops compare integers.

use crate::fxhash::FxHashMap;

/// A dense symbol handle produced by an [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// An append-only string interner.
///
/// Symbols are dense indices into an internal table, valid for the lifetime
/// of the interner.
#[derive(Debug, Default)]
pub struct Interner {
    map: FxHashMap<Box<str>, Sym>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with capacity for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            map: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            strings: Vec::with_capacity(n),
        }
    }

    /// Interns `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Looks up a symbol without interning. Returns `None` if unseen.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Interns the word sequence of `s` (words + punctuation tokens).
    pub fn intern_words(&mut self, s: &str) -> Vec<Sym> {
        let toks = crate::token::tokenize(s);
        toks.iter().map(|t| self.intern(t.text(s))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("alpha");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("gamma").is_none());
        i.intern("gamma");
        assert!(i.get("gamma").is_some());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn symbols_are_dense() {
        let mut i = Interner::new();
        for (n, w) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(i.intern(w), Sym(n as u32));
        }
    }

    #[test]
    fn intern_words_uses_tokeniser() {
        let mut i = Interner::new();
        let syms = i.intern_words("Hi, hi!");
        // "Hi" and "hi" are distinct (case-sensitive by design; callers
        // normalise first when they want case-insensitive comparison).
        assert_eq!(syms.len(), 4);
        assert_ne!(syms[0], syms[2]);
        assert_eq!(i.resolve(syms[1]), ",");
    }
}
