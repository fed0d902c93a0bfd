//! Text normalisation utilities.
//!
//! The expert revision process (§II-E) and the criteria engine's readability
//! checks operate on normalised text: collapsed whitespace, tidied
//! punctuation spacing, and sentence-initial capitalisation. These routines
//! are also the building blocks of the "Adjust" revision class in Table IV
//! (68.1 % of instruction revisions are language/layout adjustments).
//!
//! Repairs edit raw text where detection matched folded text. Detection
//! ([`LexiconHits`](crate::lexicon::LexiconHits)) ignores case, so a
//! repair must find its phrase the same way: [`find_folded`] maps the
//! first folded match back to a byte range of the raw text, and
//! [`replace_folded`] edits that range. Every repair of a built-in-list
//! hit, in the expert reviser, the coach and the strategy zoo, goes
//! through [`replace_folded`] or [`remove_phrase`], which is built on it.
//! Both return `None` when the phrase has no span, and every loop over
//! hits stops there.

use std::ops::Range;

use crate::token::char_at;

/// Collapses runs of whitespace to single spaces and trims the ends.
/// Newlines are preserved as single `\n` (layout is meaningful in
/// responses — lists, paragraphs).
pub fn collapse_whitespace(s: &str) -> String {
    // A separator never outgrows the whitespace run it replaces.
    let mut out = String::with_capacity(s.len());
    for (i, (newline, word)) in words_with_breaks(s).enumerate() {
        if i > 0 {
            out.push(if newline { '\n' } else { ' ' });
        }
        out.push_str(word);
    }
    out
}

/// The words of `s` as [`str::split_whitespace`] splits it, each with
/// whether the whitespace before it (since the previous word, or the start
/// of `s`) holds a `\n`.
fn words_with_breaks(s: &str) -> impl Iterator<Item = (bool, &str)> {
    let mut newline = false;
    // Each piece is a word, possibly empty, and the whitespace char after
    // it, if any.
    s.split_inclusive(char::is_whitespace)
        .filter_map(move |piece| {
            let word = piece.trim_end_matches(char::is_whitespace);
            let item = (!word.is_empty()).then_some((newline, word));
            newline = (newline && word.is_empty()) || piece.ends_with('\n');
            item
        })
}

/// Capitalises the first alphabetic character of each sentence.
pub fn capitalize_sentences(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    // Whether a sentence has started since the last terminator.
    let mut started = false;
    for c in s.chars() {
        if !started && c.is_alphabetic() {
            out.extend(c.to_uppercase());
            started = true;
        } else {
            if matches!(c, '.' | '!' | '?' | '\n') {
                started = false;
            } else if !c.is_whitespace() {
                started = true;
            }
            out.push(c);
        }
    }
    out
}

/// Ensures the text ends with terminal punctuation (appends `.` if the last
/// non-whitespace char is alphanumeric).
pub fn ensure_terminal_punctuation(s: &str) -> String {
    let trimmed = s.trim_end();
    let mut out = String::with_capacity(trimmed.len() + 1);
    out.push_str(trimmed);
    terminate(&mut out);
    out
}

/// [`ensure_terminal_punctuation`] in place.
fn terminate(text: &mut String) {
    text.truncate(text.trim_end().len());
    if text.chars().next_back().is_some_and(char::is_alphanumeric) {
        text.push('.');
    }
}

/// Lowercases for case-insensitive matching (ASCII fast path).
pub fn fold_case(s: &str) -> String {
    if s.is_ascii() {
        s.to_ascii_lowercase()
    } else {
        s.to_lowercase()
    }
}

/// Byte range in `text` itself of the first case-insensitive occurrence
/// of `needle`. Offsets into a folded copy are not offsets into `text`
/// wherever folding changes a character's byte length (the Kelvin sign,
/// 3 bytes, folds to `k`, 1 byte), so non-ASCII text is folded one
/// character at a time, tracking where each character came from, and a
/// match counts only if both of its ends fall on character boundaries of
/// `text`. ASCII text folds byte for byte and keeps the fast path.
pub fn find_folded(text: &str, needle: &str) -> Option<Range<usize>> {
    let needle = fold_case(needle);
    if text.is_ascii() {
        let start = text.to_ascii_lowercase().find(&needle)?;
        return Some(start..start + needle.len());
    }
    let mut folded = String::with_capacity(text.len());
    // (offset in `folded`, offset in `text`) at every character boundary.
    let mut bounds = Vec::with_capacity(text.len() + 1);
    for (at, c) in text.char_indices() {
        bounds.push((folded.len(), at));
        folded.extend(c.to_lowercase());
    }
    bounds.push((folded.len(), text.len()));
    let original = |folded_at: usize| {
        bounds
            .binary_search_by_key(&folded_at, |&(f, _)| f)
            .ok()
            .map(|i| bounds[i].1)
    };
    let mut from = 0;
    while let Some(pos) = folded[from..].find(&needle) {
        let start = from + pos;
        if let (Some(s), Some(e)) = (original(start), original(start + needle.len())) {
            return Some(s..e);
        }
        from = start + folded[start..].chars().next().map_or(1, char::len_utf8);
    }
    None
}

/// `text` with `with` in place of the span [`find_folded`] finds for
/// `phrase`; `None` when there is no span.
pub fn replace_folded(text: &str, phrase: &str, with: &str) -> Option<String> {
    let range = find_folded(text, phrase)?;
    let mut out = String::with_capacity(text.len() - range.len() + with.len());
    out.push_str(&text[..range.start]);
    out.push_str(with);
    out.push_str(&text[range.end..]);
    Some(out)
}

/// [`replace_folded`] with nothing, then [`collapse_whitespace`]: `text`
/// without the first case-insensitive occurrence of `phrase`, or `None`
/// when there is no span.
pub fn remove_phrase(text: &str, phrase: &str) -> Option<String> {
    replace_folded(text, phrase, "").map(|cut| collapse_whitespace(&cut))
}

/// Full layout normalisation: whitespace, punctuation spacing,
/// capitalisation, terminal punctuation. The "Adjust" primitive.
///
/// Punctuation spacing: no space before `,.;:!?`, and one after `,.;!?`
/// unless whitespace, ASCII punctuation, a digit or the end follows (so a
/// decimal point gets none).
///
/// One pass over the bytes that copies what it keeps: each unchanged span
/// goes into the returned `String` with one `push_str`, and the pass edits
/// only where a rule changes something (a whitespace run that is not
/// already its separator, a sentence's first letter that upper-casing
/// changes, a missing space after punctuation, the end). Only a non-ASCII
/// byte is decoded.
pub fn normalize_layout(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len() + 8);
    // `s[copied..i]` is kept text not yet pushed to `out`.
    let mut copied = 0;
    // Whether a sentence has started since the last terminator.
    let mut started = false;
    let mut i = 0;
    while let Some((c, len)) = char_at(s, i) {
        let at = i;
        if c.is_whitespace() {
            // A run becomes one `\n` if it holds one, else one space, and
            // nothing at either end of the text or before `,.;:!?`.
            let mut newline = false;
            while let Some((c, len)) = char_at(s, i).filter(|(c, _)| c.is_whitespace()) {
                newline |= c == '\n';
                i += len;
            }
            let separator = if at == 0 || i == bytes.len() {
                ""
            } else if newline {
                "\n"
            } else if matches!(bytes[i], b',' | b'.' | b';' | b':' | b'!' | b'?') {
                ""
            } else {
                " "
            };
            started &= !newline;
            if &s[at..i] != separator {
                out.push_str(&s[copied..at]);
                out.push_str(separator);
                copied = i;
            }
            continue;
        }
        i += len;
        if c.is_ascii_alphanumeric() {
            // Past its first byte, no rule changes a run of ASCII letters
            // and digits.
            i += bytes[i..]
                .iter()
                .take_while(|b| b.is_ascii_alphanumeric())
                .count();
        }
        if !started && c.is_alphabetic() {
            if !c.to_uppercase().eq([c]) {
                out.push_str(&s[copied..at]);
                out.extend(c.to_uppercase());
                copied = at + len;
            }
            started = true;
            continue;
        }
        started = !matches!(c, '.' | '!' | '?');
        if matches!(c, ',' | '.' | ';' | '!' | '?')
            && char_at(s, i).is_some_and(|(next, _)| {
                !next.is_whitespace() && !next.is_ascii_punctuation() && !next.is_ascii_digit()
            })
        {
            out.push_str(&s[copied..i]);
            out.push(' ');
            copied = i;
        }
    }
    out.push_str(&s[copied..]);
    terminate(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testtext;

    /// The four-pass kernels the lazy adapters replaced, verbatim: the
    /// oracles they must agree with byte for byte.
    mod reference {
        pub fn collapse_whitespace(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            let mut pending_space = false;
            let mut pending_newline = false;
            for c in s.chars() {
                if c == '\n' {
                    pending_newline = true;
                    pending_space = false;
                } else if c.is_whitespace() {
                    if !pending_newline {
                        pending_space = true;
                    }
                } else {
                    if pending_newline {
                        if !out.is_empty() {
                            out.push('\n');
                        }
                        pending_newline = false;
                    } else if pending_space && !out.is_empty() {
                        out.push(' ');
                    }
                    pending_space = false;
                    out.push(c);
                }
            }
            out
        }

        pub fn fix_punctuation_spacing(s: &str) -> String {
            let chars: Vec<char> = s.chars().collect();
            let mut out = String::with_capacity(s.len() + 8);
            let mut i = 0;
            while i < chars.len() {
                let c = chars[i];
                if c == ' '
                    && i + 1 < chars.len()
                    && matches!(chars[i + 1], ',' | '.' | ';' | ':' | '!' | '?')
                {
                    i += 1;
                    continue;
                }
                out.push(c);
                if matches!(c, ',' | ';' | '!' | '?') || (c == '.' && !prev_next_digit(&chars, i)) {
                    if let Some(&next) = chars.get(i + 1) {
                        if !next.is_whitespace()
                            && !next.is_ascii_punctuation()
                            && !next.is_ascii_digit()
                        {
                            out.push(' ');
                        }
                    }
                }
                i += 1;
            }
            out
        }

        fn prev_next_digit(chars: &[char], i: usize) -> bool {
            let prev_digit = i > 0 && chars[i - 1].is_ascii_digit();
            let next_digit = chars.get(i + 1).is_some_and(|c| c.is_ascii_digit());
            prev_digit && next_digit
        }

        pub fn capitalize_sentences(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            let mut at_start = true;
            for c in s.chars() {
                if at_start && c.is_alphabetic() {
                    out.extend(c.to_uppercase());
                    at_start = false;
                } else {
                    if matches!(c, '.' | '!' | '?' | '\n') {
                        at_start = true;
                    } else if !c.is_whitespace() {
                        at_start = false;
                    }
                    out.push(c);
                }
            }
            out
        }

        pub fn ensure_terminal_punctuation(s: &str) -> String {
            let trimmed = s.trim_end();
            if trimmed.chars().last().is_some_and(|c| c.is_alphanumeric()) {
                let mut out = trimmed.to_string();
                out.push('.');
                out
            } else {
                trimmed.to_string()
            }
        }

        pub fn normalize_layout(s: &str) -> String {
            ensure_terminal_punctuation(&capitalize_sentences(&fix_punctuation_spacing(
                &collapse_whitespace(s),
            )))
        }
    }

    #[test]
    fn layout_kernels_match_the_reference() {
        for text in testtext::inputs("layout_kernels_match_the_reference") {
            let s = text.as_str();
            // A word follows a newline exactly when the whitespace between
            // it and the word before (or the text's start) holds one.
            let mut from = 0;
            for (newline, word) in words_with_breaks(s) {
                let at = from + s[from..].find(word).expect("a word of the text");
                assert_eq!(newline, s[from..at].contains('\n'), "{s:?}");
                from = at + word.len();
            }
            assert_eq!(
                collapse_whitespace(s),
                reference::collapse_whitespace(s),
                "{s:?}"
            );
            assert_eq!(
                capitalize_sentences(s),
                reference::capitalize_sentences(s),
                "{s:?}"
            );
            assert_eq!(
                ensure_terminal_punctuation(s),
                reference::ensure_terminal_punctuation(s),
                "{s:?}"
            );
            let normalized = normalize_layout(s);
            assert_eq!(normalized, reference::normalize_layout(s), "{s:?}");
            // Already-normalised text, which most callers pass.
            assert_eq!(
                normalize_layout(&normalized),
                reference::normalize_layout(&normalized),
                "{normalized:?}"
            );
        }
    }

    #[test]
    fn collapse_basic() {
        assert_eq!(collapse_whitespace("a   b\t c"), "a b c");
        assert_eq!(collapse_whitespace("  lead trail  "), "lead trail");
    }

    #[test]
    fn collapse_preserves_single_newlines() {
        assert_eq!(collapse_whitespace("a\n\n\nb"), "a\nb");
        assert_eq!(collapse_whitespace("a \n b"), "a\nb");
    }

    #[test]
    fn punctuation_spacing() {
        assert_eq!(normalize_layout("hello ,world"), "Hello, world.");
        assert_eq!(normalize_layout("wait !now"), "Wait! Now.");
        assert_eq!(normalize_layout("ok."), "Ok.");
    }

    #[test]
    fn punctuation_spacing_keeps_decimals() {
        assert_eq!(normalize_layout("pi is 3.14"), "Pi is 3.14.");
    }

    #[test]
    fn capitalization() {
        assert_eq!(capitalize_sentences("hello. world"), "Hello. World");
        assert_eq!(capitalize_sentences("a\nb"), "A\nB");
        assert_eq!(capitalize_sentences("123 go. yes"), "123 go. Yes");
    }

    #[test]
    fn terminal_punctuation() {
        assert_eq!(ensure_terminal_punctuation("done"), "done.");
        assert_eq!(ensure_terminal_punctuation("done!"), "done!");
        assert_eq!(ensure_terminal_punctuation("done.  "), "done.");
        assert_eq!(ensure_terminal_punctuation(""), "");
    }

    #[test]
    fn layout_pipeline() {
        assert_eq!(
            normalize_layout("  write   a poem ,please"),
            "Write a poem, please."
        );
    }

    #[test]
    fn fold_case_ascii_and_unicode() {
        assert_eq!(fold_case("HeLLo"), "hello");
        assert_eq!(fold_case("CAFÉ"), "café");
    }

    #[test]
    fn find_folded_returns_ranges_in_the_original_text() {
        assert_eq!(find_folded("Could OF been", "could of"), Some(0..8));
        assert_eq!(find_folded("no match", "could of"), None);
        // Each Kelvin sign is 3 bytes but folds to the 1-byte `k`.
        let text = "At 300 \u{212A} \u{212A}\u{212A} the gas could of condensed";
        let range = find_folded(text, "could of").expect("present");
        assert_eq!(&text[range], "could of");
        let range = find_folded(text, "\u{212A}\u{212A}").expect("present");
        assert_eq!(&text[range], "\u{212A}\u{212A}");
        // A match inside one character's folding is not a match in `text`.
        assert_eq!(find_folded("\u{130}", "i"), None);
    }

    #[test]
    fn replace_folded_edits_the_span_find_folded_finds() {
        assert_eq!(
            replace_folded("France is BERLIN, not berlin.", "Berlin", "Paris").as_deref(),
            Some("France is Paris, not berlin.")
        );
        let text = "\u{212A}\u{212A} the gas COULD OF condensed";
        assert_eq!(
            replace_folded(text, "could of", "could have").as_deref(),
            Some("\u{212A}\u{212A} the gas could have condensed")
        );
        // No whitespace collapse: only the span changes.
        assert_eq!(
            replace_folded("a  AS AN AI  b", "as an ai", "").as_deref(),
            Some("a    b")
        );
        assert_eq!(replace_folded("no match", "could of", "x"), None);
        assert_eq!(replace_folded("\u{130}", "i", "x"), None);
    }

    #[test]
    fn remove_phrase_cuts_the_original_text() {
        assert_eq!(
            remove_phrase(
                "Do it Using Exactly Zero Words now",
                "using exactly zero words"
            )
            .as_deref(),
            Some("Do it now")
        );
        assert_eq!(
            remove_phrase("\u{212A}é, for example, cooled", "for example,").as_deref(),
            Some("\u{212A}é, cooled")
        );
        assert_eq!(remove_phrase("untouched text", "absent"), None);
    }

    #[test]
    fn normalize_is_idempotent() {
        let cases = ["  write   a poem ,please", "hello. world", "a\n\nb"];
        for c in cases {
            let once = normalize_layout(c);
            assert_eq!(normalize_layout(&once), once, "input: {c:?}");
        }
    }
}
