//! Text normalisation utilities.
//!
//! The expert revision process (§II-E) and the criteria engine's readability
//! checks operate on normalised text: collapsed whitespace, tidied
//! punctuation spacing, and sentence-initial capitalisation. These routines
//! are also the building blocks of the "Adjust" revision class in Table IV
//! (68.1 % of instruction revisions are language/layout adjustments).

use std::ops::Range;

/// Collapses runs of whitespace to single spaces and trims the ends.
/// Newlines are preserved as single `\n` (layout is meaningful in
/// responses — lists, paragraphs).
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

/// Fixes spacing around ASCII punctuation: no space before `,.;:!?`, one
/// space after (unless end of string, digit grouping, or another punct).
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
            // Drop the space before punctuation.
            i += 1;
            continue;
        }
        out.push(c);
        if matches!(c, ',' | ';' | '!' | '?') || (c == '.' && !prev_next_digit(&chars, i)) {
            if let Some(&next) = chars.get(i + 1) {
                if !next.is_whitespace() && !next.is_ascii_punctuation() && !next.is_ascii_digit() {
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

/// Capitalises the first alphabetic character of each sentence.
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

/// Ensures the text ends with terminal punctuation (appends `.` if the last
/// non-whitespace char is alphanumeric).
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

/// Removes the first case-insensitive occurrence of `phrase` from `text`
/// and collapses the leftover whitespace; returns `text` unchanged when
/// the phrase is absent.
pub fn remove_phrase(text: &str, phrase: &str) -> String {
    match find_folded(text, phrase) {
        Some(range) => {
            let mut out = String::with_capacity(text.len());
            out.push_str(&text[..range.start]);
            out.push_str(&text[range.end..]);
            collapse_whitespace(&out)
        }
        None => text.to_string(),
    }
}

/// Full layout normalisation: whitespace, punctuation spacing,
/// capitalisation, terminal punctuation. The "Adjust" primitive.
pub fn normalize_layout(s: &str) -> String {
    ensure_terminal_punctuation(&capitalize_sentences(&fix_punctuation_spacing(
        &collapse_whitespace(s),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(fix_punctuation_spacing("hello ,world"), "hello, world");
        assert_eq!(fix_punctuation_spacing("wait !now"), "wait! now");
        assert_eq!(fix_punctuation_spacing("ok."), "ok.");
    }

    #[test]
    fn punctuation_spacing_keeps_decimals() {
        assert_eq!(fix_punctuation_spacing("pi is 3.14"), "pi is 3.14");
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
    fn remove_phrase_cuts_the_original_text() {
        assert_eq!(
            remove_phrase(
                "Do it Using Exactly Zero Words now",
                "using exactly zero words"
            ),
            "Do it now"
        );
        assert_eq!(
            remove_phrase("\u{212A}é, for example, cooled", "for example,"),
            "\u{212A}é, cooled"
        );
        assert_eq!(remove_phrase("untouched text", "absent"), "untouched text");
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
