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

/// The char that starts at byte `i` of `s` and its UTF-8 length; only a
/// non-ASCII byte is decoded. `None` at the end of `s`.
#[inline]
pub(crate) fn char_at(s: &str, i: usize) -> Option<(char, usize)> {
    let b = *s.as_bytes().get(i)?;
    if b.is_ascii() {
        return Some((char::from(b), 1));
    }
    let c = s.get(i..)?.chars().next()?;
    Some((c, c.len_utf8()))
}

/// The tokens of a string, produced lazily: a scan that stops early (a
/// relevance check that meets its topic word in the first sentence) never
/// tokenises the rest, and nothing is collected. Inside a word no char is
/// decoded twice: the lookahead an apostrophe, hyphen or numeric separator
/// needs becomes the next char, and a run of ASCII letters and digits,
/// which always continues a word, is taken without decoding.
pub(crate) struct Tokens<'a> {
    s: &'a str,
    /// Byte offset of the first char not yet tokenised.
    pos: usize,
}

impl<'a> Tokens<'a> {
    /// The tokens of `s`, in order.
    pub(crate) fn new(s: &'a str) -> Self {
        Tokens { s, pos: 0 }
    }
}

impl Iterator for Tokens<'_> {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        let s = self.s;
        let bytes = s.as_bytes();
        let (start, c) = loop {
            let (c, len) = char_at(s, self.pos)?;
            if !c.is_whitespace() {
                break (self.pos, c);
            }
            self.pos += len;
        };
        let mut end = start + c.len_utf8();
        if !c.is_alphanumeric() {
            self.pos = end;
            return Some(Token {
                span: start..end,
                kind: TokenKind::Punct,
            });
        }
        let mut all_numeric = c.is_ascii_digit();
        let mut prev_alnum = true;
        // `at_end` is the char at `end`, decoded once.
        let mut at_end = char_at(s, end);
        while let Some((nc, len)) = at_end {
            if nc.is_ascii_alphanumeric() {
                let run = bytes[end..]
                    .iter()
                    .take_while(|b| b.is_ascii_alphanumeric())
                    .count();
                all_numeric &= bytes[end..end + run].iter().all(u8::is_ascii_digit);
                prev_alnum = true;
                end += run;
                at_end = char_at(s, end);
                continue;
            }
            let after = char_at(s, end + len);
            let next = after.map(|(n, _)| n);
            let numeric_sep =
                all_numeric && (nc == '.' || nc == ',') && next.is_some_and(|n| n.is_ascii_digit());
            if !(is_word_continue(nc, prev_alnum, next) || numeric_sep) {
                break;
            }
            prev_alnum = nc.is_alphanumeric();
            if !nc.is_ascii_digit() && !numeric_sep {
                all_numeric = false;
            }
            end += len;
            at_end = after;
        }
        self.pos = end;
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

/// The [`Token`]s of `s` in order, produced lazily: [`tokenize`] without
/// the `Vec`.
pub fn tokens(s: &str) -> impl Iterator<Item = Token> + '_ {
    Tokens::new(s)
}

/// The word tokens of `s` as string slices (punctuation included as tokens).
///
/// This is the canonical "word sequence" used for word-level edit distance
/// (Table VII) and for coach-tuning alignment.
pub fn words(s: &str) -> Vec<&str> {
    tokenize(s).iter().map(|t| t.text(s)).collect()
}

/// Number of word and number tokens in `s`; punctuation tokens are not
/// counted, since the paper's "average length" metric in Table VII counts
/// words.
pub fn word_count(s: &str) -> usize {
    Tokens::new(s)
        .filter(|t| t.kind != TokenKind::Punct)
        .count()
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
    use crate::testtext;

    /// The tokeniser that re-decoded the next char at every char,
    /// verbatim: the oracle the single-decode one must agree with.
    mod reference {
        use super::super::{is_word_continue, Token, TokenKind};

        struct Tokens<'a> {
            s: &'a str,
            chars: std::iter::Peekable<std::str::CharIndices<'a>>,
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
                    let numeric_sep = all_numeric
                        && (nc == '.' || nc == ',')
                        && next.is_some_and(|n| n.is_ascii_digit());
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

        pub fn tokenize(s: &str) -> Vec<Token> {
            Tokens {
                s,
                chars: s.char_indices().peekable(),
            }
            .collect()
        }

        pub fn word_count(s: &str) -> usize {
            tokenize(s)
                .iter()
                .filter(|t| t.kind != TokenKind::Punct)
                .count()
        }
    }

    #[test]
    fn tokens_match_the_reference() {
        for text in testtext::inputs("tokens_match_the_reference") {
            assert_eq!(tokenize(&text), reference::tokenize(&text), "{text:?}");
            assert_eq!(word_count(&text), reference::word_count(&text), "{text:?}");
        }
    }

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
    fn words_round_trip_alignment() {
        let s = "Rewrite the sentence; keep tone.";
        let ws = words(s);
        assert_eq!(
            ws,
            vec!["Rewrite", "the", "sentence", ";", "keep", "tone", "."]
        );
    }
}
