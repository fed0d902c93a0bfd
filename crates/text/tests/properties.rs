//! Property-based tests for the text substrate invariants.

use coachlm_text::diff::{diff_tokens, EditOp};
use coachlm_text::editdist::{
    char_edit_distance, edit_distance, edit_distance_bounded, myers, word_edit_distance, SymMyers,
    WordDistance,
};
use coachlm_text::fxhash::FxHashMap;
use coachlm_text::intern::{Interner, Sym};
use coachlm_text::ngram::{ngrams, NgramCounter};
use coachlm_text::normalize::{find_folded, fold_case, normalize_layout};
use coachlm_text::token::{tokenize, words};
use proptest::prelude::*;

/// The pre-fingerprint n-gram counter, reimplemented verbatim with
/// `Vec<T>`-keyed tables, as the cross-check oracle for [`NgramCounter`].
struct VecKeyedCounter {
    max_order: usize,
    counts: Vec<FxHashMap<Vec<u32>, u64>>,
    totals: Vec<u64>,
    continuation_counts: FxHashMap<Vec<u32>, usize>,
}

impl VecKeyedCounter {
    fn new(max_order: usize) -> Self {
        Self {
            max_order,
            counts: (0..max_order).map(|_| FxHashMap::default()).collect(),
            totals: vec![0; max_order],
            continuation_counts: FxHashMap::default(),
        }
    }

    fn observe(&mut self, seq: &[u32]) {
        for order in 1..=self.max_order {
            for w in ngrams(seq, order) {
                let entry = self.counts[order - 1].entry(w.to_vec()).or_insert(0);
                *entry += 1;
                if *entry == 1 && order >= 2 {
                    *self
                        .continuation_counts
                        .entry(w[..order - 1].to_vec())
                        .or_insert(0) += 1;
                }
                self.totals[order - 1] += 1;
            }
        }
    }

    fn count(&self, gram: &[u32]) -> u64 {
        if gram.is_empty() || gram.len() > self.max_order {
            return 0;
        }
        self.counts[gram.len() - 1].get(gram).copied().unwrap_or(0)
    }

    fn continuations(&self, context: &[u32]) -> usize {
        if context.is_empty() || context.len() + 1 > self.max_order {
            return 0;
        }
        self.continuation_counts.get(context).copied().unwrap_or(0)
    }
}

/// Reference full-matrix Levenshtein to validate all optimised variants.
fn reference_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let mut dp: Vec<Vec<usize>> = vec![vec![0; b.len() + 1]; a.len() + 1];
    for (i, row) in dp.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in dp[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let sub = dp[i - 1][j - 1] + usize::from(a[i - 1] != b[j - 1]);
            dp[i][j] = sub.min(dp[i - 1][j] + 1).min(dp[i][j - 1] + 1);
        }
    }
    dp[a.len()][b.len()]
}

proptest! {
    #[test]
    fn dp_matches_reference(a in "[a-d]{0,30}", b in "[a-d]{0,30}") {
        let want = reference_distance(a.as_bytes(), b.as_bytes());
        prop_assert_eq!(edit_distance(a.as_bytes(), b.as_bytes()), want);
    }

    #[test]
    fn myers_matches_reference(a in "[a-f]{0,80}", b in "[a-f]{0,120}") {
        let want = reference_distance(a.as_bytes(), b.as_bytes());
        prop_assert_eq!(myers::distance(a.as_bytes(), b.as_bytes()), want);
    }

    #[test]
    fn myers_blocked_matches_reference(a in "[ab]{65,140}", b in "[ab]{0,160}") {
        let want = reference_distance(a.as_bytes(), b.as_bytes());
        prop_assert_eq!(myers::distance(a.as_bytes(), b.as_bytes()), want);
    }

    #[test]
    fn bounded_agrees_with_exact(a in "[a-c]{0,25}", b in "[a-c]{0,25}", k in 0usize..12) {
        let exact = edit_distance(a.as_bytes(), b.as_bytes());
        let bounded = edit_distance_bounded(a.as_bytes(), b.as_bytes(), k);
        if exact <= k {
            prop_assert_eq!(bounded, Some(exact));
        } else {
            prop_assert_eq!(bounded, None);
        }
    }

    #[test]
    fn distance_is_a_metric(a in "[a-c]{0,15}", b in "[a-c]{0,15}", c in "[a-c]{0,15}") {
        let dab = char_edit_distance(&a, &b);
        let dba = char_edit_distance(&b, &a);
        prop_assert_eq!(dab, dba); // symmetry
        prop_assert_eq!(char_edit_distance(&a, &a), 0); // identity
        // triangle inequality
        let dac = char_edit_distance(&a, &c);
        let dcb = char_edit_distance(&c, &b);
        prop_assert!(dab <= dac + dcb);
    }

    #[test]
    fn sym_myers_matches_generic_dp(a in prop::collection::vec(0u32..12, 0..90),
                                    b in prop::collection::vec(0u32..12, 0..90)) {
        let sa: Vec<Sym> = a.iter().map(|&x| Sym(x)).collect();
        let sb: Vec<Sym> = b.iter().map(|&x| Sym(x)).collect();
        let mut sm = SymMyers::new();
        prop_assert_eq!(sm.distance(&sa, &sb), edit_distance(&sa, &sb));
        // Scratch reuse: the same instance re-queried (swapped order) must
        // agree too — symbol distance is symmetric.
        prop_assert_eq!(sm.distance(&sb, &sa), edit_distance(&sa, &sb));
    }

    #[test]
    fn sym_myers_blocked_matches_generic_dp(a in prop::collection::vec(0u32..6, 65..160),
                                            b in prop::collection::vec(0u32..6, 0..200)) {
        // Patterns beyond 64 symbols exercise the blocked (multi-word)
        // variant, including block-boundary carries.
        let sa: Vec<Sym> = a.iter().map(|&x| Sym(x)).collect();
        let sb: Vec<Sym> = b.iter().map(|&x| Sym(x)).collect();
        prop_assert_eq!(SymMyers::new().distance(&sa, &sb), edit_distance(&sa, &sb));
    }

    #[test]
    fn word_distance_matches_dp_on_non_ascii(a in "[αβγδ日本語 ]{0,60}", b in "[αβγδ日本語 ]{0,60}") {
        // The word path is symbol-level, so non-ASCII scripts take the same
        // bit-parallel kernel; cross-check against interned generic DP.
        let mut interner = Interner::new();
        let sa = interner.intern_words(&a);
        let sb = interner.intern_words(&b);
        prop_assert_eq!(word_edit_distance(&a, &b), edit_distance(&sa, &sb));
        prop_assert_eq!(WordDistance::new().distance(&a, &b), edit_distance(&sa, &sb));
    }

    #[test]
    fn word_distance_matches_dp_on_long_texts(a in "[ab ]{130,400}", b in "[abc ]{0,400}") {
        // Long word sequences (patterns > 64 words) through the public
        // string API, cross-checked against the interned generic DP.
        let mut interner = Interner::new();
        let sa = interner.intern_words(&a);
        let sb = interner.intern_words(&b);
        prop_assert_eq!(word_edit_distance(&a, &b), edit_distance(&sa, &sb));
    }

    #[test]
    fn fingerprinted_counter_matches_vec_keyed(
        seqs in prop::collection::vec(prop::collection::vec(0u32..8, 0..24), 0..12),
        max_order in 1usize..5,
        probe in prop::collection::vec(0u32..9, 0..6),
    ) {
        let mut packed = NgramCounter::new(max_order);
        let mut oracle = VecKeyedCounter::new(max_order);
        for s in &seqs {
            packed.observe(s);
            oracle.observe(s);
        }
        for order in 0..=max_order + 1 {
            prop_assert_eq!(packed.total(order), oracle.totals.get(order.wrapping_sub(1)).copied().unwrap_or(0));
            if (1..=max_order).contains(&order) {
                prop_assert_eq!(packed.distinct(order), oracle.counts[order - 1].len());
            }
        }
        // Every observed gram and a random probe agree on count and
        // continuations (probe may contain the unseen symbol 8).
        for s in &seqs {
            for order in 1..=max_order {
                for w in ngrams(s, order) {
                    prop_assert_eq!(packed.count(w), oracle.count(w));
                    prop_assert_eq!(packed.continuations(w), oracle.continuations(w));
                }
            }
        }
        prop_assert_eq!(packed.count(&probe), oracle.count(&probe));
        prop_assert_eq!(packed.continuations(&probe), oracle.continuations(&probe));
    }

    #[test]
    fn word_distance_bounded_by_token_counts(a in "[a-z ]{0,60}", b in "[a-z ]{0,60}") {
        let d = word_edit_distance(&a, &b);
        let na = words(&a).len();
        let nb = words(&b).len();
        prop_assert!(d <= na.max(nb));
        prop_assert!(d >= na.abs_diff(nb));
    }

    #[test]
    fn diff_script_covers_both_inputs(a in prop::collection::vec(0u8..4, 0..20),
                                      b in prop::collection::vec(0u8..4, 0..20)) {
        let s = diff_tokens(&a, &b);
        let (mut ai, mut bj) = (0usize, 0usize);
        for op in &s.ops {
            match op {
                EditOp::Equal { a_range, b_range } => {
                    prop_assert_eq!(a_range.len(), b_range.len());
                    prop_assert_eq!(&a[a_range.clone()], &b[b_range.clone()]);
                    ai = a_range.end; bj = b_range.end;
                }
                EditOp::Replace { a_range, b_range } => { ai = a_range.end; bj = b_range.end; }
                EditOp::Delete { a_range } => { ai = a_range.end; }
                EditOp::Insert { b_range } => { bj = b_range.end; }
            }
        }
        prop_assert_eq!(ai, a.len());
        prop_assert_eq!(bj, b.len());
    }

    #[test]
    fn diff_change_weight_upper_bounds_distance(a in prop::collection::vec(0u8..3, 0..15),
                                                b in prop::collection::vec(0u8..3, 0..15)) {
        let s = diff_tokens(&a, &b);
        prop_assert!(s.change_weight() >= edit_distance(&a, &b));
        if a == b {
            prop_assert!(s.is_identity());
        }
    }

    #[test]
    fn tokenize_spans_are_ordered_and_in_bounds(s in "\\PC{0,80}") {
        let toks = tokenize(&s);
        let mut last_end = 0usize;
        for t in &toks {
            prop_assert!(t.span.start >= last_end);
            prop_assert!(t.span.end <= s.len());
            prop_assert!(t.span.start < t.span.end);
            prop_assert!(s.is_char_boundary(t.span.start));
            prop_assert!(s.is_char_boundary(t.span.end));
            last_end = t.span.end;
        }
    }

    #[test]
    fn normalize_layout_idempotent(s in "[a-z ,.!?]{0,60}") {
        let once = normalize_layout(&s);
        prop_assert_eq!(normalize_layout(&once), once);
    }

    // On ASCII text folding is byte for byte, so `find_folded` returns the
    // cut the fold-then-find code took: the match offset in the lowercased
    // copy plus the folded needle's length.
    #[test]
    fn find_folded_keeps_the_ascii_cut(text in "[a-cA-C ]{0,40}", needle in "[a-cA-C]{0,4}") {
        let folded_needle = fold_case(&needle);
        let old = text
            .to_ascii_lowercase()
            .find(&folded_needle)
            .map(|pos| pos..pos + folded_needle.len());
        prop_assert_eq!(find_folded(&text, &needle), old);
    }

    // On any text a match is a char-boundary range of the text itself
    // whose fold equals the needle's. The needle is an upper-cased slice
    // of the text, so most cases do match.
    #[test]
    fn find_folded_ranges_are_char_boundaries(
        text in "\\PC{0,30}",
        start in 0usize..30,
        len in 1usize..4,
    ) {
        let needle: String = text
            .chars()
            .skip(start)
            .take(len)
            .flat_map(char::to_uppercase)
            .collect();
        if let Some(range) = find_folded(&text, &needle) {
            prop_assert!(text.is_char_boundary(range.start));
            prop_assert!(text.is_char_boundary(range.end));
            prop_assert_eq!(fold_case(&text[range]), fold_case(&needle));
        }
    }
}
