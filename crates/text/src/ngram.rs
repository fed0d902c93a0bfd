//! N-gram extraction and counting.
//!
//! The language-model substrate (`coachlm-lm`) estimates fluency with an
//! n-gram model; this module provides the windowing and counting primitives.
//!
//! [`NgramCounter`] stores its tables keyed by **packed 64-bit
//! fingerprints** (a rolling hash over the gram's elements) instead of
//! `Vec<T>` keys. Queries — [`NgramCounter::count`],
//! [`NgramCounter::continuations`], and the fingerprint-based variants the
//! language model's `prob` path uses — therefore never allocate: they hash
//! the query elements into a `u64` and do one integer-keyed map lookup.
//! Fingerprints are collision-checked at build time (see
//! [`NgramCounter::observe`]), so the packed tables are exact, not
//! approximate.

use crate::fxhash::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

/// Iterates over all contiguous windows of length `n` in `items`.
///
/// Returns an empty iterator when `n == 0` or `n > items.len()`.
pub fn ngrams<T>(items: &[T], n: usize) -> impl Iterator<Item = &[T]> {
    // `windows` panics on width 0 and naturally yields nothing when the
    // slice is shorter than the width, so only n == 0 needs normalising.
    let (items, n) = if n == 0 { (&items[..0], 1) } else { (items, n) };
    items.windows(n)
}

/// Seed of the rolling fingerprint (an odd 64-bit constant, so the empty
/// gram maps to something other than zero).
const FP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Post-mix multiplier of the rolling fingerprint (odd, so multiplication
/// is a bijection on `u64`).
const FP_MIX: u64 = 0x2545_F491_4F6C_DD1D;

/// A streaming counter accumulating n-gram statistics over many sequences,
/// for orders `1..=max_order`, with per-order totals.
///
/// Tables are keyed by packed fingerprints; see the module docs.
#[derive(Debug)]
pub struct NgramCounter<T: Clone + Eq + Hash> {
    max_order: usize,
    counts: Vec<FxHashMap<u64, u64>>, // index = order - 1, key = fingerprint
    totals: Vec<u64>,
    // Distinct-continuation counts per context fingerprint, maintained
    // incrementally so Kneser-Ney/Witten-Bell style smoothing is O(1) per
    // query.
    continuation_counts: FxHashMap<u64, usize>,
    // Build-time collision ledger: every distinct observed gram (of any
    // order) keyed by its fingerprint. Only touched during `observe`; the
    // query path never reads it.
    ledger: FxHashMap<u64, Box<[T]>>,
}

impl<T: Clone + Eq + Hash> NgramCounter<T> {
    /// Creates a counter for orders `1..=max_order`.
    ///
    /// # Panics
    /// Panics if `max_order == 0`.
    pub fn new(max_order: usize) -> Self {
        assert!(max_order >= 1, "max_order must be at least 1");
        Self {
            max_order,
            counts: (0..max_order).map(|_| FxHashMap::default()).collect(),
            totals: vec![0; max_order],
            continuation_counts: FxHashMap::default(),
            ledger: FxHashMap::default(),
        }
    }

    /// Maximum n-gram order tracked.
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// The fingerprint of the empty gram; extend with
    /// [`Self::fingerprint_extend`].
    #[inline]
    pub fn fingerprint_seed() -> u64 {
        FP_SEED
    }

    /// Extends a gram fingerprint by one element. The fingerprint of
    /// `[a, b, c]` is `extend(extend(extend(seed, a), b), c)`, so callers
    /// holding a context's fingerprint get the full gram's fingerprint for
    /// one element hash — no buffer assembly.
    #[inline]
    pub fn fingerprint_extend(fp: u64, elem: &T) -> u64 {
        let mut h = FxHasher::default();
        elem.hash(&mut h);
        (fp.rotate_left(5) ^ h.finish()).wrapping_mul(FP_MIX)
    }

    /// The packed fingerprint of a whole gram.
    #[inline]
    pub fn fingerprint(gram: &[T]) -> u64 {
        gram.iter().fold(FP_SEED, Self::fingerprint_extend)
    }

    /// Accumulates all n-grams of one sequence.
    ///
    /// # Panics
    /// Panics if two distinct grams collide on the 64-bit fingerprint
    /// (probability ≈ d²/2⁶⁴ for d distinct grams — negligible at any
    /// realistic corpus size, but *checked*, so a collision can never
    /// silently corrupt counts).
    pub fn observe(&mut self, seq: &[T]) {
        for order in 1..=self.max_order {
            for w in ngrams(seq, order) {
                let fp = Self::fingerprint(w);
                match self.ledger.entry(fp) {
                    Entry::Vacant(v) => {
                        v.insert(w.to_vec().into_boxed_slice());
                    }
                    Entry::Occupied(e) => assert!(
                        e.get().as_ref() == w,
                        "n-gram fingerprint collision at {fp:#018x}"
                    ),
                }
                let entry = self.counts[order - 1].entry(fp).or_insert(0);
                *entry += 1;
                if *entry == 1 && order >= 2 {
                    // First sighting of this gram: its context gained a
                    // distinct continuation.
                    let ctx_fp = Self::fingerprint(&w[..order - 1]);
                    *self.continuation_counts.entry(ctx_fp).or_insert(0) += 1;
                }
                self.totals[order - 1] += 1;
            }
        }
    }

    /// Count of a specific n-gram (its length selects the order).
    /// Zero-allocation: hashes the gram into a fingerprint and looks it up.
    pub fn count(&self, gram: &[T]) -> u64 {
        if gram.is_empty() || gram.len() > self.max_order {
            return 0;
        }
        self.count_fp(gram.len(), Self::fingerprint(gram))
    }

    /// Count of the gram with fingerprint `fp` at `order`; the raw lookup
    /// behind [`Self::count`] for callers that build fingerprints
    /// incrementally.
    #[inline]
    pub fn count_fp(&self, order: usize, fp: u64) -> u64 {
        if order == 0 || order > self.max_order {
            return 0;
        }
        self.counts[order - 1].get(&fp).copied().unwrap_or(0)
    }

    /// Total number of n-gram tokens observed at `order`.
    pub fn total(&self, order: usize) -> u64 {
        if order == 0 || order > self.max_order {
            return 0;
        }
        self.totals[order - 1]
    }

    /// Number of *distinct* n-grams observed at `order` (the vocabulary of
    /// that order), used by smoothing.
    pub fn distinct(&self, order: usize) -> usize {
        if order == 0 || order > self.max_order {
            return 0;
        }
        self.counts[order - 1].len()
    }

    /// Number of distinct continuations `w` such that `context ++ [w]` was
    /// observed; the continuation count used by Kneser-Ney/Witten-Bell
    /// smoothing. O(1) and zero-allocation: maintained incrementally during
    /// [`Self::observe`].
    pub fn continuations(&self, context: &[T]) -> usize {
        if context.is_empty() {
            return 0;
        }
        self.continuations_fp(context.len(), Self::fingerprint(context))
    }

    /// Continuation count for the context with fingerprint `fp` and length
    /// `context_len`; the raw lookup behind [`Self::continuations`].
    #[inline]
    pub fn continuations_fp(&self, context_len: usize, fp: u64) -> usize {
        if context_len == 0 || context_len + 1 > self.max_order {
            return 0;
        }
        self.continuation_counts.get(&fp).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ngrams_basic() {
        let v = [1, 2, 3, 4];
        let bigrams: Vec<&[i32]> = ngrams(&v, 2).collect();
        assert_eq!(bigrams, vec![&[1, 2][..], &[2, 3], &[3, 4]]);
    }

    #[test]
    fn ngrams_degenerate() {
        let v = [1, 2];
        assert_eq!(ngrams(&v, 0).count(), 0);
        assert_eq!(ngrams(&v, 3).count(), 0);
        assert_eq!(ngrams(&v, 2).count(), 1);
        let empty: [i32; 0] = [];
        assert_eq!(ngrams(&empty, 1).count(), 0);
    }

    #[test]
    fn counter_orders_and_totals() {
        let mut nc = NgramCounter::new(3);
        nc.observe(&["the", "cat", "sat"]);
        nc.observe(&["the", "cat", "ran"]);
        assert_eq!(nc.count(&["the"]), 2);
        assert_eq!(nc.count(&["the", "cat"]), 2);
        assert_eq!(nc.count(&["cat", "sat"]), 1);
        assert_eq!(nc.count(&["the", "cat", "sat"]), 1);
        assert_eq!(nc.total(1), 6);
        assert_eq!(nc.total(2), 4);
        assert_eq!(nc.total(3), 2);
        assert_eq!(nc.distinct(1), 4);
    }

    #[test]
    fn counter_continuations() {
        let mut nc = NgramCounter::new(2);
        nc.observe(&["the", "cat"]);
        nc.observe(&["the", "dog"]);
        nc.observe(&["the", "cat"]);
        assert_eq!(nc.continuations(&["the"]), 2);
        assert_eq!(nc.continuations(&["cat"]), 0);
    }

    #[test]
    fn counter_out_of_range_queries() {
        let mut nc = NgramCounter::new(2);
        nc.observe(&["a", "b"]);
        assert_eq!(nc.count(&[]), 0);
        assert_eq!(nc.count(&["a", "b", "c"]), 0);
        assert_eq!(nc.total(0), 0);
        assert_eq!(nc.total(9), 0);
        assert_eq!(nc.distinct(9), 0);
    }

    #[test]
    fn fingerprints_compose_incrementally() {
        let gram = ["the", "cat", "sat"];
        let mut fp = NgramCounter::<&str>::fingerprint_seed();
        for w in &gram {
            fp = NgramCounter::<&str>::fingerprint_extend(fp, w);
        }
        assert_eq!(fp, NgramCounter::<&str>::fingerprint(&gram));
    }

    #[test]
    fn fp_queries_match_slice_queries() {
        let mut nc = NgramCounter::new(3);
        nc.observe(&["a", "b", "c", "a", "b"]);
        for gram in [&["a"][..], &["a", "b"], &["a", "b", "c"], &["z"]] {
            let fp = NgramCounter::<&str>::fingerprint(gram);
            assert_eq!(nc.count(gram), nc.count_fp(gram.len(), fp));
        }
        let ctx = ["a", "b"];
        assert_eq!(
            nc.continuations(&ctx),
            nc.continuations_fp(2, NgramCounter::<&str>::fingerprint(&ctx))
        );
    }

    #[test]
    #[should_panic(expected = "max_order")]
    fn counter_rejects_zero_order() {
        let _ = NgramCounter::<u8>::new(0);
    }
}
