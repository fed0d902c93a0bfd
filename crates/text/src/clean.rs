//! Output post-processing, reproducing §III-B1.
//!
//! The paper applies "automatic post-processing on the outputs of CoachLM
//! using regular expressions to remove invalid characters and repeated
//! strings that were occasionally produced", and replaces ~1.3 % of outputs
//! that are "not valid instruction pairs" with the originals. This module
//! implements those checks without a regex engine: invalid-character
//! stripping, repeated-substring collapsing (degenerate-decoding artefacts),
//! and structural validity checks for a generated instruction pair.
//!
//! These kernels run in the Clean stage and twice in the CoachRevise stage
//! (the rubric measures the same things in `profile::TextProfile`'s one
//! walk, sharing the definitions here), so each reads its input once and
//! allocates only the `String` it returns (and, in [`clean_output`] and
//! [`cleaned_len`], a stripped copy of an input that holds an invalid
//! character). Invalid characters are found by one byte scan, a trailing
//! repeat of `min_repeats` copies is searched from `n / min_repeats` bytes
//! down (a longer unit cannot fit that many times), words are compared in
//! place, and [`cleaned_len`] measures the cleaned text without building it.

use std::borrow::Cow;

/// Byte offset and length of the first invalid character in `bytes`
/// at or after `from`.
///
/// Invalid in a revised instruction pair: control characters other than
/// `\n` and `\t` (C0, DEL and C1) and the Unicode replacement character.
/// Each has one fixed UTF-8 form, so nothing is decoded: C0 and DEL are
/// single bytes, C1 is `C2 80..=9F` and U+FFFD is `EF BF BD`. `C2` and `EF`
/// only ever lead a character, so a match never starts inside another one.
fn next_invalid(bytes: &[u8], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    loop {
        i += bytes
            .get(i..)?
            .iter()
            .position(|&b| b < 0x20 || b == 0x7F || b == 0xC2 || b == 0xEF)?;
        let len = match bytes[i] {
            b'\t' | b'\n' => 0,
            0xC2 if !matches!(bytes.get(i + 1), Some(0x80..=0x9F)) => 0,
            0xC2 => 2,
            0xEF if bytes.get(i + 1..i + 3) != Some(&[0xBF, 0xBD][..]) => 0,
            0xEF => 3,
            _ => 1,
        };
        if len > 0 {
            return Some((i, len));
        }
        i += 1;
    }
}

/// Whether `s` holds an invalid character (see [`strip_invalid_chars`]).
pub fn has_invalid_chars(s: &str) -> bool {
    next_invalid(s.as_bytes(), 0).is_some()
}

/// `s` without its invalid characters, borrowed when it has none.
fn strip_invalid(s: &str) -> Cow<'_, str> {
    let bytes = s.as_bytes();
    let Some((first, len)) = next_invalid(bytes, 0) else {
        return Cow::Borrowed(s);
    };
    let mut out = String::with_capacity(s.len() - len);
    out.push_str(&s[..first]);
    let mut copied = first + len;
    while let Some((at, len)) = next_invalid(bytes, copied) {
        out.push_str(&s[copied..at]);
        copied = at + len;
    }
    out.push_str(&s[copied..]);
    Cow::Owned(out)
}

/// Removes invalid characters: control characters other than `\n` and
/// `\t` (C0, DEL and C1) and the Unicode replacement character.
pub fn strip_invalid_chars(s: &str) -> String {
    strip_invalid(s).into_owned()
}

/// Collapses a trailing "stutter": if the text ends with `k >= min_repeats`
/// consecutive copies of the same substring (a classic degenerate-decoding
/// artefact), keep a single copy.
///
/// The repeated unit is searched from longest down to `min_unit` bytes, on
/// char boundaries. The longest unit tried is `n / min_repeats` bytes for
/// `min_repeats >= 2` (no longer unit fits that many times) and half the
/// text otherwise.
pub fn collapse_trailing_repeats(s: &str, min_unit: usize, min_repeats: usize) -> String {
    s[..trailing_repeats_keep(s, min_unit, min_repeats)].to_string()
}

/// Length of the prefix of `s` that [`collapse_trailing_repeats`] keeps.
fn trailing_repeats_keep(s: &str, min_unit: usize, min_repeats: usize) -> usize {
    let bytes = s.as_bytes();
    let n = bytes.len();
    let mut unit_len = n / min_repeats.max(2);
    while unit_len >= min_unit.max(1) {
        // Two or more copies end the text only if its last byte recurs
        // `unit_len` bytes earlier; one copy always does, so the one-byte
        // test applies only from two.
        let candidate = (min_repeats < 2 || bytes[n - 1] == bytes[n - 1 - unit_len])
            && s.is_char_boundary(n - unit_len)
            && s.is_char_boundary(n - 2 * unit_len);
        if candidate {
            let unit = &bytes[n - unit_len..];
            // Count how many consecutive copies of `unit` end the string.
            let mut reps = 1usize;
            while reps * unit_len + unit_len <= n
                && &bytes[n - (reps + 1) * unit_len..n - reps * unit_len] == unit
            {
                reps += 1;
            }
            if reps >= min_repeats {
                return n - (reps - 1) * unit_len;
            }
        }
        unit_len -= 1;
    }
    n
}

/// [`collapse_word_stutter`]'s rule, one word at a time.
pub(crate) struct Stutter<'a> {
    max_run: usize,
    /// The last word seen. A dropped word equals the last kept one, so it
    /// is also the last word kept.
    last: Option<&'a str>,
    run: usize,
}

impl<'a> Stutter<'a> {
    pub(crate) fn new(max_run: usize) -> Self {
        Stutter {
            max_run: max_run.max(1),
            last: None,
            run: 0,
        }
    }

    /// Whether the next word, `w`, is kept.
    pub(crate) fn keeps(&mut self, w: &'a str) -> bool {
        if self.last == Some(w) {
            self.run += 1;
        } else {
            self.run = 1;
            self.last = Some(w);
        }
        self.run <= self.max_run
    }
}

/// The words of `s` that [`collapse_word_stutter`] keeps, in order.
fn stutter_kept(s: &str, max_run: usize) -> impl Iterator<Item = &str> {
    let mut stutter = Stutter::new(max_run);
    s.split_whitespace().filter(move |&w| stutter.keeps(w))
}

/// Collapses immediate word-level repetitions beyond `max_run` copies
/// ("very very very very good" → "very very good" with `max_run = 2`).
/// Words are rejoined with single spaces.
pub fn collapse_word_stutter(s: &str, max_run: usize) -> String {
    // Single spaces never outgrow the whitespace runs they replace.
    let mut out = String::with_capacity(s.len());
    for w in stutter_kept(s, max_run) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(w);
    }
    out
}

/// Result of validating a generated instruction pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity {
    /// The output parses as a usable instruction pair.
    Valid,
    /// The instruction side is empty after cleaning.
    EmptyInstruction,
    /// The response side is empty after cleaning.
    EmptyResponse,
    /// The output is dominated by repeated content even after collapsing.
    Degenerate,
    /// Prompt-template markers leaked into the output.
    TemplateLeak,
}

/// Template markers whose presence in a *revised* pair means the model
/// echoed its prompt scaffold instead of producing a revision.
pub(crate) const TEMPLATE_MARKERS: &[&str] = &[
    "### Instruction:",
    "### Response:",
    "[INSTRUCTION]",
    "[RESPONSE]",
    "Improve the following instruction",
];

/// The [`repetition_ratio`] above which a response is [`Validity::Degenerate`].
pub(crate) const DEGENERATE_REPETITION: f64 = 0.6;

/// Validates a cleaned (instruction, response) pair per §III-B1; invalid
/// pairs are replaced with their originals by the caller.
pub fn validate_pair(instruction: &str, response: &str) -> Validity {
    let instr = instruction.trim();
    let resp = response.trim();
    if instr.is_empty() {
        return Validity::EmptyInstruction;
    }
    if resp.is_empty() {
        return Validity::EmptyResponse;
    }
    for marker in TEMPLATE_MARKERS {
        if instr.contains(marker) || resp.contains(marker) {
            return Validity::TemplateLeak;
        }
    }
    if repetition_ratio(resp) > DEGENERATE_REPETITION {
        return Validity::Degenerate;
    }
    Validity::Valid
}

/// Fraction of words that immediately repeat their predecessor, over the
/// word pairs that could (0 below four words); a cheap degeneracy signal.
pub fn repetition_ratio(s: &str) -> f64 {
    let mut words = 0usize;
    let mut repeats = 0usize;
    let mut last = None;
    for w in s.split_whitespace() {
        words += 1;
        repeats += usize::from(last == Some(w));
        last = Some(w);
    }
    ratio(words, repeats)
}

/// [`repetition_ratio`] of a text with `words` whitespace-separated words,
/// `repeats` of which equal the word before.
pub(crate) fn ratio(words: usize, repeats: usize) -> f64 {
    if words < 4 {
        return 0.0;
    }
    repeats as f64 / (words - 1) as f64
}

/// The trailing repeats [`clean_output`] collapses: units of at least
/// three bytes, three copies or more.
pub(crate) fn clean_keep(s: &str) -> usize {
    trailing_repeats_keep(s, 3, 3)
}

/// The word stutter [`clean_output`] collapses: runs beyond two copies.
pub(crate) const CLEAN_STUTTER: usize = 2;

/// The full §III-B1 cleaning pass: strip invalid chars, collapse trailing
/// repeats and word stutter.
pub fn clean_output(s: &str) -> String {
    let stripped = strip_invalid(s);
    collapse_word_stutter(&stripped[..clean_keep(&stripped)], CLEAN_STUTTER)
}

/// `clean_output(s).len()`, without building the cleaned text (it
/// allocates only when `s` holds an invalid character).
pub fn cleaned_len(s: &str) -> usize {
    let stripped = strip_invalid(s);
    let kept = &stripped[..clean_keep(&stripped)];
    let (mut bytes, mut words) = (0usize, 0usize);
    for w in stutter_kept(kept, CLEAN_STUTTER) {
        bytes += w.len();
        words += 1;
    }
    bytes + words.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testtext;
    use rand::Rng;

    /// The kernels the one-scan ones replaced, verbatim: the oracles they
    /// must agree with byte for byte.
    mod reference {
        fn is_invalid_char(c: char) -> bool {
            (c.is_control() && c != '\n' && c != '\t') || c == '\u{FFFD}'
        }

        pub fn strip_invalid_chars(s: &str) -> String {
            s.chars().filter(|&c| !is_invalid_char(c)).collect()
        }

        pub fn has_invalid_chars(s: &str) -> bool {
            s.chars().any(is_invalid_char)
        }

        pub fn collapse_trailing_repeats(s: &str, min_unit: usize, min_repeats: usize) -> String {
            let bytes = s.as_bytes();
            let n = bytes.len();
            let mut unit_len = n / 2;
            while unit_len >= min_unit.max(1) {
                if !s.is_char_boundary(n - unit_len) || !s.is_char_boundary(n - 2 * unit_len) {
                    unit_len -= 1;
                    continue;
                }
                let unit = &bytes[n - unit_len..];
                let mut reps = 1usize;
                while reps * unit_len + unit_len <= n
                    && &bytes[n - (reps + 1) * unit_len..n - reps * unit_len] == unit
                {
                    reps += 1;
                }
                if reps >= min_repeats {
                    let keep = n - (reps - 1) * unit_len;
                    return s[..keep].to_string();
                }
                unit_len -= 1;
            }
            s.to_string()
        }

        pub fn collapse_word_stutter(s: &str, max_run: usize) -> String {
            let max_run = max_run.max(1);
            let mut out: Vec<&str> = Vec::new();
            let mut run = 0usize;
            for w in s.split_whitespace() {
                if out.last().is_some_and(|&last| last == w) {
                    run += 1;
                } else {
                    run = 1;
                }
                if run <= max_run {
                    out.push(w);
                }
            }
            out.join(" ")
        }

        pub fn repetition_ratio(s: &str) -> f64 {
            let words: Vec<&str> = s.split_whitespace().collect();
            if words.len() < 4 {
                return 0.0;
            }
            let mut repeats = 0usize;
            for w in words.windows(2) {
                if w[0] == w[1] {
                    repeats += 1;
                }
            }
            repeats as f64 / (words.len() - 1) as f64
        }

        pub fn clean_output(s: &str) -> String {
            let stripped = strip_invalid_chars(s);
            let collapsed = collapse_trailing_repeats(&stripped, 3, 3);
            collapse_word_stutter(&collapsed, 2)
        }
    }

    #[test]
    fn invalid_chars_match_the_char_predicate_on_every_char() {
        let mut buf = [0u8; 4];
        for c in (0..=0x10FFFF).filter_map(char::from_u32) {
            let s: &str = c.encode_utf8(&mut buf);
            assert_eq!(
                has_invalid_chars(s),
                reference::has_invalid_chars(s),
                "{c:?}"
            );
        }
    }

    #[test]
    fn cleaning_kernels_match_the_reference() {
        for text in testtext::inputs("cleaning_kernels_match_the_reference") {
            let s = text.as_str();
            assert_eq!(
                strip_invalid_chars(s),
                reference::strip_invalid_chars(s),
                "{s:?}"
            );
            assert_eq!(has_invalid_chars(s), reference::has_invalid_chars(s));
            for min_repeats in 0..=3 {
                for min_unit in [0, 1, 3] {
                    assert_eq!(
                        collapse_trailing_repeats(s, min_unit, min_repeats),
                        reference::collapse_trailing_repeats(s, min_unit, min_repeats),
                        "min_unit {min_unit}, min_repeats {min_repeats}: {s:?}"
                    );
                }
            }
            for max_run in 0..=3 {
                assert_eq!(
                    collapse_word_stutter(s, max_run),
                    reference::collapse_word_stutter(s, max_run),
                    "max_run {max_run}: {s:?}"
                );
            }
            assert_eq!(
                repetition_ratio(s).to_bits(),
                reference::repetition_ratio(s).to_bits(),
                "{s:?}"
            );
            let cleaned = clean_output(s);
            assert_eq!(cleaned, reference::clean_output(s), "{s:?}");
            assert_eq!(cleaned_len(s), cleaned.len(), "{s:?}");
        }
    }

    #[test]
    fn trailing_repeats_of_every_count_match_the_reference() {
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("trailing_repeats_of_every_count", case);
            let unit = testtext::mixed_text(&mut rng, 4);
            let mut s = testtext::mixed_text(&mut rng, 6);
            for _ in 0..rng.gen_range(0..6) {
                s.push_str(&unit);
            }
            for min_repeats in 0..=3 {
                for min_unit in [0, 1, 2, 3, 8] {
                    assert_eq!(
                        collapse_trailing_repeats(&s, min_unit, min_repeats),
                        reference::collapse_trailing_repeats(&s, min_unit, min_repeats),
                        "min_unit {min_unit}, min_repeats {min_repeats}: {s:?}"
                    );
                }
            }
            assert_eq!(clean_output(&s), reference::clean_output(&s), "{s:?}");
            assert_eq!(cleaned_len(&s), reference::clean_output(&s).len());
        }
    }

    #[test]
    fn strips_control_chars() {
        assert_eq!(strip_invalid_chars("a\u{0}b\u{7}c"), "abc");
        assert_eq!(
            strip_invalid_chars("keep\nnewlines\tand tabs"),
            "keep\nnewlines\tand tabs"
        );
        assert_eq!(strip_invalid_chars("bad\u{FFFD}char"), "badchar");
        assert_eq!(strip_invalid_chars("\u{7F}c1\u{85}\u{9F}é"), "c1é");
    }

    #[test]
    fn collapses_trailing_repeats() {
        assert_eq!(
            collapse_trailing_repeats("the answer is 42.42.42.42.", 3, 3),
            "the answer is 42."
        );
        // Fewer than min_repeats copies: untouched.
        assert_eq!(collapse_trailing_repeats("ha ha", 2, 3), "ha ha");
        // One copy always matches: the longest unit that fits twice wins.
        assert_eq!(collapse_trailing_repeats("abab", 1, 1), "ab");
    }

    #[test]
    fn trailing_repeat_requires_unit_length() {
        // Single-char repeats below min_unit are left alone ("hmmm").
        assert_eq!(collapse_trailing_repeats("hmmm", 3, 3), "hmmm");
    }

    #[test]
    fn word_stutter() {
        assert_eq!(
            collapse_word_stutter("it is very very very very good", 2),
            "it is very very good"
        );
        assert_eq!(
            collapse_word_stutter("no repeats here", 2),
            "no repeats here"
        );
    }

    #[test]
    fn validity_checks() {
        assert_eq!(validate_pair("Do X", "Result Y"), Validity::Valid);
        assert_eq!(validate_pair("  ", "Result"), Validity::EmptyInstruction);
        assert_eq!(validate_pair("Do X", " "), Validity::EmptyResponse);
        assert_eq!(
            validate_pair("Do X", "### Response: leaked"),
            Validity::TemplateLeak
        );
    }

    #[test]
    fn degenerate_output_detected() {
        let resp = "spam ".repeat(40);
        assert_eq!(validate_pair("Do X", &resp), Validity::Degenerate);
    }

    #[test]
    fn repetition_ratio_bounds() {
        assert_eq!(repetition_ratio("a b c"), 0.0); // too short
        assert!(repetition_ratio("x x x x x x") > 0.9);
        let r = repetition_ratio("mostly unique words in this sentence");
        assert_eq!(r, 0.0);
    }

    #[test]
    fn clean_output_pipeline() {
        let noisy = "Answer: 7.\u{0} Indeed indeed indeed the end.the end.the end.";
        let cleaned = clean_output(noisy);
        assert!(!cleaned.contains('\u{0}'));
        assert!(!cleaned.contains("indeed indeed indeed"));
        assert_eq!(cleaned.matches("the end.").count(), 1);
        assert_eq!(cleaned_len(noisy), cleaned.len());
    }
}
