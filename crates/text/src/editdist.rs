//! Levenshtein edit distance.
//!
//! CoachLM uses edit distance in two load-bearing places:
//!
//! * **α-selection (§II-F2):** the expert-revision pairs `(x, x_r)` are
//!   ranked by edit distance and the top-α fraction forms the coach-tuning
//!   set `C_α`.
//! * **Dataset statistics (Table VII):** the revised ALPACA52K dataset is
//!   characterised by average *word-level* edit distance.
//!
//! Two implementations are provided and cross-checked by tests:
//!
//! * [`edit_distance`] — classic two-row dynamic programming over any
//!   `PartialEq` items, with common prefix/suffix trimming. O(nm) time,
//!   O(min(n,m)) space. The reference the fast kernel is checked against.
//! * [`SymMyers`] — Myers' 1999 bit-parallel recurrence, processing 64 DP
//!   columns per machine word, over interned word symbols ([`Sym`]): the
//!   per-pattern `peq` table is a small hash map over the pattern's
//!   distinct symbols, with Hyyrö's blocked variant for patterns longer
//!   than 64 words.
//!   All scratch state is reused across calls, so dataset-scale ranking
//!   ([`WordDistance`]) performs zero heap allocations per pair after
//!   warm-up. This is the word-level hot path for α-selection and the
//!   Table VII statistics.
//!
//! [`Sym`]: crate::intern::Sym

use crate::fxhash::FxHashMap;
use crate::intern::Sym;
use std::collections::hash_map::Entry;

/// Levenshtein distance between two slices (unit costs).
///
/// Works over any `PartialEq` item type: bytes, chars, or interned word
/// symbols. Trims common prefixes/suffixes first, then runs two-row DP over
/// the remainder.
pub fn edit_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let (a, b) = trim_common(a, b);
    // Ensure `b` is the shorter side so the DP rows are minimal.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = vec![0; b.len() + 1];
    for (i, ai) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, bj) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ai != bj);
            curr[j + 1] = sub.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Strips common prefix and suffix, returning the differing cores.
#[inline]
fn trim_common<'x, T: PartialEq>(a: &'x [T], b: &'x [T]) -> (&'x [T], &'x [T]) {
    let pre = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[pre..], &b[pre..]);
    let suf = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (&a[..a.len() - suf], &b[..b.len() - suf])
}

/// Myers' bit-parallel Levenshtein over interned word symbols.
///
/// The match-mask table `peq` is a per-pattern map from each distinct
/// [`Sym`] in the pattern to a dense row of match-mask words (one `u64` per
/// 64 pattern positions). Patterns up to 64 words run the
/// single-word recurrence; longer patterns run Hyyrö's blocked variant.
///
/// Every buffer (the `peq` rows, the symbol→row index, the blocked `pv`/`mv`
/// columns) lives in the struct and is reused across calls, so after a few
/// warm-up calls the computation performs **zero heap allocations per
/// query** — the property dataset-scale ranking relies on.
#[derive(Debug, Default)]
pub struct SymMyers {
    /// Distinct pattern symbol → row index into `peq`.
    index: FxHashMap<Sym, u32>,
    /// Flattened match masks: row `r` occupies `peq[r*blocks..(r+1)*blocks]`.
    peq: Vec<u64>,
    /// Blocked-variant vertical-positive column.
    pv: Vec<u64>,
    /// Blocked-variant vertical-negative column.
    mv: Vec<u64>,
}

impl SymMyers {
    /// Creates an empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Levenshtein distance between two symbol sequences.
    pub fn distance(&mut self, a: &[Sym], b: &[Sym]) -> usize {
        let (a, b) = trim_common(a, b);
        // The shorter side is the "pattern" packed into machine words.
        let (p, t) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if p.is_empty() {
            return t.len();
        }
        let m = p.len();
        let blocks = m.div_ceil(64);
        self.index.clear();
        self.peq.clear();
        for (i, &s) in p.iter().enumerate() {
            let row = match self.index.entry(s) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(v) => {
                    let r = (self.peq.len() / blocks) as u32;
                    v.insert(r);
                    self.peq.resize(self.peq.len() + blocks, 0);
                    r
                }
            };
            self.peq[row as usize * blocks + i / 64] |= 1 << (i % 64);
        }
        if blocks == 1 {
            self.distance_64(m, t)
        } else {
            self.distance_blocked(m, blocks, t)
        }
    }

    fn distance_64(&self, m: usize, t: &[Sym]) -> usize {
        debug_assert!((1..=64).contains(&m));
        let mut pv: u64 = !0;
        let mut mv: u64 = 0;
        let mut score = m;
        let high = 1u64 << (m - 1);
        for c in t {
            let eq = self.index.get(c).map_or(0, |&r| self.peq[r as usize]);
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & high != 0 {
                score += 1;
            }
            if mh & high != 0 {
                score -= 1;
            }
            let ph = (ph << 1) | 1;
            pv = (mh << 1) | !(xv | ph);
            mv = ph & xv;
        }
        score
    }

    fn distance_blocked(&mut self, m: usize, blocks: usize, t: &[Sym]) -> usize {
        self.pv.clear();
        self.pv.resize(blocks, !0u64);
        self.mv.clear();
        self.mv.resize(blocks, 0);
        let mut score = m;
        let last = blocks - 1;
        let last_high = 1u64 << ((m - 1) % 64);
        for c in t {
            let base = self.index.get(c).map(|&r| r as usize * blocks);
            let mut carry_ph = 1u64;
            let mut carry_mh = 0u64;
            for bidx in 0..blocks {
                let eq = base.map_or(0, |bs| self.peq[bs + bidx]);
                let pvb = self.pv[bidx];
                let mvb = self.mv[bidx];
                let xv = eq | mvb;
                let eqc = eq | carry_mh;
                let xh = (((eqc & pvb).wrapping_add(pvb)) ^ pvb) | eqc;
                let mut ph = mvb | !(xh | pvb);
                let mut mh = pvb & xh;
                if bidx == last {
                    if ph & last_high != 0 {
                        score += 1;
                    }
                    if mh & last_high != 0 {
                        score -= 1;
                    }
                }
                let ph_out = ph >> 63;
                let mh_out = mh >> 63;
                ph = (ph << 1) | carry_ph;
                mh = (mh << 1) | carry_mh;
                self.pv[bidx] = mh | !(xv | ph);
                self.mv[bidx] = ph & xv;
                carry_ph = ph_out;
                carry_mh = mh_out;
            }
        }
        score
    }
}

/// Word-level Levenshtein between two strings (Table VII's metric).
///
/// Tokens are the canonical word sequence of [`crate::token::words`]; words
/// are interned so the bit-parallel [`SymMyers`] kernel compares `u32`s.
pub fn word_edit_distance(a: &str, b: &str) -> usize {
    // One-shot calls never resolve symbols back to strings, so instead of a
    // full `Interner` (which copies each distinct word into an owned table),
    // a borrowed-key map over the input strings assigns dense symbols with
    // zero string copies.
    let ta = crate::token::tokenize(a);
    let tb = crate::token::tokenize(b);
    let mut map: FxHashMap<&str, Sym> =
        FxHashMap::with_capacity_and_hasher(ta.len() + tb.len(), Default::default());
    let mut next = 0u32;
    let mut sym_of = |word| {
        *map.entry(word).or_insert_with(|| {
            let sym = Sym(next);
            next += 1;
            sym
        })
    };
    let sa: Vec<Sym> = ta.iter().map(|t| sym_of(t.text(a))).collect();
    let sb: Vec<Sym> = tb.iter().map(|t| sym_of(t.text(b))).collect();
    SymMyers::new().distance(&sa, &sb)
}

/// A reusable word-level distance calculator sharing one interner, one
/// tokenisation memo, and one [`SymMyers`] scratch across many calls;
/// preferred in dataset-scale loops (α-selection ranks tens of thousands of
/// pairs, and instructions repeat heavily). After warm-up, a query over
/// already-seen strings performs zero heap allocations.
#[derive(Debug, Default)]
pub struct WordDistance {
    interner: crate::intern::Interner,
    cache: FxHashMap<Box<str>, Vec<Sym>>,
    myers: SymMyers,
}

impl WordDistance {
    /// Creates a calculator.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_cached(&mut self, s: &str) {
        if !self.cache.contains_key(s) {
            let v = self.interner.intern_words(s);
            self.cache.insert(s.into(), v);
        }
    }

    /// Word-level edit distance between `a` and `b`.
    pub fn distance(&mut self, a: &str, b: &str) -> usize {
        self.ensure_cached(a);
        self.ensure_cached(b);
        // lint: allow(P1, reason = "ensure_cached on the two lines above inserts both keys; the borrow rules force the re-lookup, not a data condition")
        let sa = self.cache.get(a).expect("cached above");
        // lint: allow(P1, reason = "ensure_cached on the lines above inserts both keys; the borrow rules force the re-lookup, not a data condition")
        let sb = self.cache.get(b).expect("cached above");
        self.myers.distance(sa, sb)
    }

    /// Clears the memoisation cache (the interner is retained). Call between
    /// datasets, not between records: keeping the cache across a whole
    /// ranking pass is what makes repeated instructions free.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_cases() {
        let d = |a: &str, b: &str| edit_distance(a.as_bytes(), b.as_bytes());
        assert_eq!(d("kitten", "sitting"), 3);
        assert_eq!(d("flaw", "lawn"), 2);
        assert_eq!(d("", ""), 0);
        assert_eq!(d("abc", ""), 3);
        assert_eq!(d("", "abc"), 3);
        assert_eq!(d("same", "same"), 0);
    }

    #[test]
    fn generic_dp_matches_reference_small() {
        // Full-matrix reference implementation.
        fn reference(a: &[u8], b: &[u8]) -> usize {
            let mut dp = vec![vec![0usize; b.len() + 1]; a.len() + 1];
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
        let cases = [
            ("sunday", "saturday"),
            ("abcdef", "azced"),
            ("levenshtein", "meilenstein"),
            ("aaaa", "bbbb"),
            ("x", "xxxxxxxx"),
        ];
        for (a, b) in cases {
            let want = reference(a.as_bytes(), b.as_bytes());
            assert_eq!(
                edit_distance(a.as_bytes(), b.as_bytes()),
                want,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn word_distance_counts_tokens_not_chars() {
        assert_eq!(word_edit_distance("the quick fox", "the slow fox"), 1);
        assert_eq!(word_edit_distance("a b c", "a b c d"), 1);
        assert_eq!(word_edit_distance("same text here", "same text here"), 0);
        // Punctuation is a token.
        assert_eq!(word_edit_distance("hello world", "hello, world"), 1);
    }

    #[test]
    fn word_distance_calculator_matches_free_function() {
        let mut wd = WordDistance::new();
        let pairs = [
            ("rewrite this please", "please rewrite this text"),
            ("", "anything at all"),
            ("identical", "identical"),
        ];
        for (a, b) in pairs {
            assert_eq!(wd.distance(a, b), word_edit_distance(a, b));
        }
    }

    #[test]
    fn sym_myers_matches_generic_dp() {
        let mut sm = SymMyers::new();
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 2, 3], &[1, 9, 3, 4]),
            (&[5, 5, 5, 5], &[6, 6]),
            (&[0], &[0, 1, 2, 3, 4, 5, 6, 7]),
            (&[1, 2, 3, 4, 5], &[5, 4, 3, 2, 1]),
        ];
        for (a, b) in cases {
            let sa: Vec<Sym> = a.iter().map(|&x| Sym(x)).collect();
            let sb: Vec<Sym> = b.iter().map(|&x| Sym(x)).collect();
            assert_eq!(
                sm.distance(&sa, &sb),
                edit_distance(&sa, &sb),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn sym_myers_blocked_long_pattern() {
        // A >64-symbol pattern exercises the blocked variant; scratch reuse
        // across calls must not leak state.
        let mut sm = SymMyers::new();
        let a: Vec<Sym> = (0..150).map(|i| Sym(i % 37)).collect();
        let mut b = a.clone();
        b[10] = Sym(999);
        b[80] = Sym(998);
        b.extend([Sym(997), Sym(996)]);
        assert_eq!(sm.distance(&a, &b), edit_distance(&a, &b));
        assert_eq!(sm.distance(&a, &b), 4);
        // A short pattern right after a long one reuses the same scratch.
        let short: Vec<Sym> = vec![Sym(1), Sym(2)];
        assert_eq!(sm.distance(&short, &a), edit_distance(&short, &a));
    }

    #[test]
    fn word_distance_handles_non_ascii() {
        let mut wd = WordDistance::new();
        assert_eq!(
            wd.distance("日本語 の 文章", "日本語 の 記事"),
            word_edit_distance("日本語 の 文章", "日本語 の 記事")
        );
        assert_eq!(wd.distance("café au lait", "café au lait"), 0);
    }

    #[test]
    fn symmetry_and_identity() {
        let cases = [("abc", "cba"), ("", "xyz"), ("hello world", "world hello")];
        let d = |a: &str, b: &str| edit_distance(a.as_bytes(), b.as_bytes());
        for (a, b) in cases {
            assert_eq!(d(a, b), d(b, a));
            assert_eq!(d(a, a), 0);
        }
    }
}
