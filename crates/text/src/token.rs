//! Word- and sentence-level tokenisation.
//!
//! The paper measures instruction pairs at the *word* level (Table VII
//! reports word counts and word-level edit distances), so the tokeniser here
//! is the single definition of "word" used across the workspace: maximal runs
//! of alphanumeric characters (plus in-word apostrophes/hyphens), with
//! punctuation emitted as separate single tokens. Whitespace is never a
//! token.

use std::ops::Range;

/// The class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// A word: letters/digits with optional internal `'` or `-`.
    Word,
    /// A number: digits with optional internal `.` or `,` (e.g. `3.14`).
    Number,
    /// A single punctuation character.
    Punct,
}

/// A token: its text slice boundaries within the source and its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Byte range of the token in the source string.
    pub span: Range<usize>,
    /// Classification of the token.
    pub kind: TokenKind,
}

impl Token {
    /// The token's text within `source`.
    ///
    /// `source` must be the string this token was produced from.
    #[inline]
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.span.clone()]
    }
}

/// Returns `true` if `c` continues a word that has already started.
#[inline]
fn is_word_continue(c: char, prev_alnum: bool, next: Option<char>) -> bool {
    if c.is_alphanumeric() {
        return true;
    }
    // Apostrophes and hyphens stay inside a word only when flanked by
    // alphanumerics: "don't", "state-of-the-art".
    (c == '\'' || c == '-') && prev_alnum && next.is_some_and(|n| n.is_alphanumeric())
}

/// The tokens of a string, produced lazily: a scan that stops early (a
/// relevance check that meets its topic word in the first sentence) never
/// tokenises the rest, and nothing is collected.
pub(crate) struct Tokens<'a> {
    s: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
}

impl<'a> Tokens<'a> {
    /// The tokens of `s`, in order.
    pub(crate) fn new(s: &'a str) -> Self {
        Tokens {
            s,
            chars: s.char_indices().peekable(),
        }
    }
}

impl Iterator for Tokens<'_> {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        let s = self.s;
        let (start, c) = self.chars.find(|&(_, c)| !c.is_whitespace())?;
        if !c.is_alphanumeric() {
            return Some(Token {
                span: start..start + c.len_utf8(),
                kind: TokenKind::Punct,
            });
        }
        let mut all_numeric = c.is_ascii_digit();
        let mut end = start + c.len_utf8();
        let mut prev_alnum = true;
        while let Some(&(i, nc)) = self.chars.peek() {
            let next = s[i + nc.len_utf8()..].chars().next();
            let numeric_sep =
                all_numeric && (nc == '.' || nc == ',') && next.is_some_and(|n| n.is_ascii_digit());
            if is_word_continue(nc, prev_alnum, next) || numeric_sep {
                prev_alnum = nc.is_alphanumeric();
                if !nc.is_ascii_digit() && !numeric_sep {
                    all_numeric = false;
                }
                end = i + nc.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        Some(Token {
            span: start..end,
            kind: if all_numeric {
                TokenKind::Number
            } else {
                TokenKind::Word
            },
        })
    }
}

/// Tokenise `s` into [`Token`]s.
pub fn tokenize(s: &str) -> Vec<Token> {
    let mut out = Vec::with_capacity(s.len() / 5 + 4);
    out.extend(Tokens::new(s));
    out
}

/// The word tokens of `s` as string slices (punctuation included as tokens).
///
/// This is the canonical "word sequence" used for word-level edit distance
/// (Table VII) and for coach-tuning alignment.
pub fn words(s: &str) -> Vec<&str> {
    tokenize(s).iter().map(|t| t.text(s)).collect()
}

/// Number of word-or-punct tokens in `s`; the paper's "average length" metric
/// in Table VII counts words, so punctuation is excluded here.
pub fn word_count(s: &str) -> usize {
    Tokens::new(s)
        .filter(|t| t.kind != TokenKind::Punct)
        .count()
}

/// A memo of tokenisations keyed by exact text, so a pair that flows through
/// several pipeline stages is tokenised once per stage chain rather than once
/// per stage. Shared results are handed out as `Arc`s; hit/miss counters feed
/// the executor's per-stage reports.
#[derive(Debug, Default)]
pub struct TokenCache {
    entries: crate::fxhash::FxHashMap<String, std::sync::Arc<Vec<Token>>>,
    hits: u64,
    misses: u64,
}

impl TokenCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tokenisation of `s`, computed on first sight and shared after.
    pub fn tokens(&mut self, s: &str) -> std::sync::Arc<Vec<Token>> {
        if let Some(hit) = self.entries.get(s) {
            self.hits += 1;
            return std::sync::Arc::clone(hit);
        }
        self.misses += 1;
        let toks = std::sync::Arc::new(tokenize(s));
        self.entries
            .insert(s.to_string(), std::sync::Arc::clone(&toks));
        toks
    }

    /// Cached [`word_count`]: non-punct tokens of `s`.
    pub fn word_count(&mut self, s: &str) -> usize {
        self.tokens(s)
            .iter()
            .filter(|t| t.kind != TokenKind::Punct)
            .count()
    }

    /// Cached [`words`]: the token texts of `s` (punctuation included).
    pub fn words<'a>(&mut self, s: &'a str) -> Vec<&'a str> {
        let toks = self.tokens(s);
        toks.iter().map(|t| t.text(s)).collect()
    }

    /// `(hits, misses)` since construction or the last [`clear`](Self::clear).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of distinct texts currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries and zeroes the counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Absorbs `other` into `self`: entries union (an entry for a text
    /// both caches tokenised is kept from whichever cache got there
    /// first — both hold the identical tokenisation, so the choice is
    /// unobservable) and hit/miss counters sum. Commutative up to which
    /// identical `Arc` survives, so merging per-worker caches in any
    /// order yields the same observable cache — the same shape as
    /// `Quarantine::merge` in the runtime.
    pub fn merge(&mut self, other: TokenCache) {
        for (text, toks) in other.entries {
            self.entries.entry(text).or_insert(toks);
        }
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Split `s` into sentences on `.`, `!`, `?` and newlines, keeping the
/// terminator with the sentence. Abbreviation handling is intentionally
/// minimal: a period followed by a lowercase letter does not split.
pub fn sentences(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        let is_term = b == b'.' || b == b'!' || b == b'?' || b == b'\n';
        if is_term {
            // Look ahead: skip the split when the next non-space char is
            // lowercase (likely an abbreviation like "e.g. apples").
            let rest = s[i + 1..].trim_start();
            let next_lower = rest.chars().next().is_some_and(|c| c.is_lowercase());
            if !(b == b'.' && next_lower) {
                let seg = s[start..=i].trim();
                if !seg.is_empty() {
                    out.push(seg);
                }
                start = i + 1;
            }
        }
        i += 1;
    }
    let tail = s[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<(&str, TokenKind)> {
        tokenize(s).iter().map(|t| (t.text(s), t.kind)).collect()
    }

    #[test]
    fn splits_words_and_punct() {
        assert_eq!(
            toks("Hello, world!"),
            vec![
                ("Hello", TokenKind::Word),
                (",", TokenKind::Punct),
                ("world", TokenKind::Word),
                ("!", TokenKind::Punct),
            ]
        );
    }

    #[test]
    fn keeps_contractions_and_hyphens() {
        assert_eq!(
            toks("don't state-of-the-art"),
            vec![
                ("don't", TokenKind::Word),
                ("state-of-the-art", TokenKind::Word),
            ]
        );
    }

    #[test]
    fn trailing_apostrophe_is_punct() {
        assert_eq!(
            toks("dogs' toys"),
            vec![
                ("dogs", TokenKind::Word),
                ("'", TokenKind::Punct),
                ("toys", TokenKind::Word),
            ]
        );
    }

    #[test]
    fn numbers_with_decimal_points() {
        assert_eq!(
            toks("pi is 3.14, not 3."),
            vec![
                ("pi", TokenKind::Word),
                ("is", TokenKind::Word),
                ("3.14", TokenKind::Number),
                (",", TokenKind::Punct),
                ("not", TokenKind::Word),
                ("3", TokenKind::Number),
                (".", TokenKind::Punct),
            ]
        );
    }

    #[test]
    fn unicode_words() {
        assert_eq!(
            toks("Café costs 5€"),
            vec![
                ("Café", TokenKind::Word),
                ("costs", TokenKind::Word),
                ("5", TokenKind::Number),
                ("€", TokenKind::Punct),
            ]
        );
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  \t\n ").is_empty());
    }

    #[test]
    fn word_count_excludes_punct() {
        assert_eq!(word_count("Hello, world! 42 times."), 4);
    }

    #[test]
    fn sentence_splitting_basic() {
        assert_eq!(
            sentences("First one. Second one! Third?"),
            vec!["First one.", "Second one!", "Third?"]
        );
    }

    #[test]
    fn sentence_splitting_resists_abbreviations() {
        let got = sentences("Fruits, e.g. apples, are good. Eat them.");
        assert_eq!(got, vec!["Fruits, e.g. apples, are good.", "Eat them."]);
    }

    #[test]
    fn sentences_on_newlines() {
        assert_eq!(
            sentences("line one\nline two"),
            vec!["line one", "line two"]
        );
    }

    #[test]
    fn token_cache_reuses_and_counts() {
        let mut cache = TokenCache::new();
        assert!(cache.is_empty());
        let a = cache.tokens("Hello, world!");
        let b = cache.tokens("Hello, world!");
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.word_count("Hello, world!"), 2);
        assert_eq!(
            cache.word_count("Hello, world!"),
            word_count("Hello, world!")
        );
        assert_eq!(cache.words("don't stop"), words("don't stop"));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert_eq!(cache.stats(), (0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn token_cache_merge_is_order_independent() {
        let texts = ["alpha beta", "gamma, delta!", "alpha beta", "epsilon"];
        let mut a = TokenCache::new();
        let mut b = TokenCache::new();
        for t in &texts[..2] {
            a.tokens(t);
        }
        for t in &texts[2..] {
            b.tokens(t);
        }
        let merge = |first: &TokenCache, second: &TokenCache| {
            let mut out = TokenCache::new();
            for (k, v) in &first.entries {
                out.entries.insert(k.clone(), std::sync::Arc::clone(v));
            }
            out.hits = first.hits;
            out.misses = first.misses;
            let mut rhs = TokenCache::new();
            for (k, v) in &second.entries {
                rhs.entries.insert(k.clone(), std::sync::Arc::clone(v));
            }
            rhs.hits = second.hits;
            rhs.misses = second.misses;
            out.merge(rhs);
            out
        };
        let ab = merge(&a, &b);
        let ba = merge(&b, &a);
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.len(), ba.len());
        assert_eq!(ab.stats(), ba.stats());
        // Merged entries serve lookups as hits with identical contents.
        let mut ab = ab;
        let mut ba = ba;
        for t in texts {
            assert_eq!(*ab.tokens(t), *ba.tokens(t));
        }
        assert_eq!(ab.stats(), ba.stats());
    }

    #[test]
    fn words_round_trip_alignment() {
        let s = "Rewrite the sentence; keep tone.";
        let ws = words(s);
        assert_eq!(
            ws,
            vec!["Rewrite", "the", "sentence", ";", "keep", "tone", "."]
        );
    }
}
