//! One pass per text: what the Table II checks read of a text.
//!
//! The rubric asks about two dozen things of every instruction and
//! response: which marker lists occur, misspellings, contradicted facts,
//! the word count, layout and truncation shapes, invalid chars, template
//! leaks, repetition and how much §III-B1 cleaning would remove. A
//! [`TextProfile`] answers all of them from two walks, each made once:
//!
//! * one fold of the text and one walk of the lexicon automaton over the
//!   folded bytes ([`LexiconHits`]), which in the same byte loop also
//!   tracks the maximal ASCII-alphanumeric runs for the typo forms;
//! * one walk of the raw text for what folding would change: the word
//!   count (folding changes char classes: `İ` folds to `i` and U+0307),
//!   invalid chars, whitespace-separated words (repetition, stutter and
//!   layout), and the case-sensitive template markers.
//!
//! Relevance is the one check a profile does not answer alone: whether a
//! response mentions its instruction's [`Topic`](crate::lexicon::Topic)
//! depends on both texts, so it scans the response for the topic words.

use crate::clean::{self, Stutter, Validity, DEGENERATE_REPETITION, TEMPLATE_MARKERS};
use crate::lexicon::LexiconHits;
use crate::normalize::fold_case;
use crate::token::char_at;

/// What the Table II checks read of one text, measured once.
#[derive(Debug, Clone, PartialEq)]
pub struct TextProfile {
    lexicon: LexiconHits,
    raw: RawWalk,
    /// `clean::cleaned_len` of the text.
    cleaned_len: usize,
    len: usize,
}

impl TextProfile {
    /// Profiles `text`.
    pub fn new(text: &str) -> Self {
        let raw = RawWalk::of(text);
        // Stripping invalid chars would change the text the stutter was
        // measured on: only then is it measured again, on the stripped copy.
        let cleaned_len = if raw.invalid_chars {
            clean::cleaned_len(text)
        } else {
            raw.kept_bytes + raw.kept_words.saturating_sub(1)
        };
        TextProfile {
            lexicon: LexiconHits::of_folded(&fold_case(text)),
            raw,
            cleaned_len,
            len: text.len(),
        }
    }

    /// The built-in lexicon found in the folded text.
    pub fn lexicon(&self) -> &LexiconHits {
        &self.lexicon
    }

    /// The text's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `token::word_count` of the text.
    pub fn words(&self) -> usize {
        self.raw.words
    }

    /// `clean::has_invalid_chars` of the text.
    pub fn has_invalid_chars(&self) -> bool {
        self.raw.invalid_chars
    }

    /// `clean::clean_output(text).len()`.
    pub fn cleaned_len(&self) -> usize {
        self.cleaned_len
    }

    /// `clean::validate_pair(instruction, text)` for any instruction that
    /// is not blank and holds no template marker.
    pub fn validity(&self) -> Validity {
        let raw = &self.raw;
        if raw.spaced_words == 0 {
            Validity::EmptyResponse
        } else if raw.template_marker {
            Validity::TemplateLeak
        } else if clean::ratio(raw.spaced_words, raw.repeated_words) > DEGENERATE_REPETITION {
            Validity::Degenerate
        } else {
            Validity::Valid
        }
    }

    /// Whether the text is only whitespace.
    pub fn is_blank(&self) -> bool {
        self.raw.spaced_words == 0
    }

    /// Whether the trimmed text holds two spaces in a row.
    pub fn has_double_space(&self) -> bool {
        self.raw.double_space
    }

    /// Whether the trimmed text holds a space right before `.`, `,`, `!`
    /// or `?`.
    pub fn has_space_before_punct(&self) -> bool {
        self.raw.space_before_punct
    }

    /// The first char of the trimmed text.
    pub fn first_char(&self) -> Option<char> {
        self.raw.first
    }

    /// The last char of the trimmed text.
    pub fn last_char(&self) -> Option<char> {
        self.raw.last
    }

    /// Whether the trimmed text ends with "...".
    pub fn ends_with_ellipsis(&self) -> bool {
        self.raw.ellipsis
    }
}

/// What the raw walk reads of each char: [`char::is_whitespace`].
const SPACE: u8 = 1;
/// An invalid char, as `clean::strip_invalid_chars` defines it: a control
/// char other than `\n` and `\t`, or U+FFFD.
const INVALID: u8 = 2;
/// The first byte of a template marker.
const LEAD: u8 = 4;
/// [`char::is_alphanumeric`].
const ALNUM: u8 = 8;
/// [`char::is_ascii_digit`].
const DIGIT: u8 = 16;
/// `'` or `-`, which join two alphanumeric chars into one word.
const JOINER: u8 = 32;
/// `.` or `,`, which join two digit runs into one number.
const SEPARATOR: u8 = 64;

/// The classes of each ASCII char.
static ASCII: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        if matches!(c, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ') {
            table[b] |= SPACE;
        }
        if (c < 0x20 && c != b'\t' && c != b'\n') || c == 0x7F {
            table[b] |= INVALID;
        }
        if c.is_ascii_alphanumeric() {
            table[b] |= ALNUM;
        }
        if c.is_ascii_digit() {
            table[b] |= DIGIT;
        }
        if c == b'\'' || c == b'-' {
            table[b] |= JOINER;
        }
        if c == b'.' || c == b',' {
            table[b] |= SEPARATOR;
        }
        b += 1;
    }
    let mut m = 0;
    while m < TEMPLATE_MARKERS.len() {
        table[TEMPLATE_MARKERS[m].as_bytes()[0] as usize] |= LEAD;
        m += 1;
    }
    table
};

/// The classes of a non-ASCII char.
fn wide_class(c: char) -> u8 {
    let mut class = 0;
    if c.is_whitespace() {
        class |= SPACE;
    }
    if c.is_control() || c == '\u{FFFD}' {
        class |= INVALID;
    }
    if c.is_alphanumeric() {
        class |= ALNUM;
    }
    class
}

/// What one walk of the raw text finds.
#[derive(Debug, Clone, Default, PartialEq)]
struct RawWalk {
    /// Word and number tokens.
    words: usize,
    invalid_chars: bool,
    template_marker: bool,
    /// Whitespace-separated words, and how many equal the word before.
    spaced_words: usize,
    repeated_words: usize,
    /// Bytes and words that `clean::clean_output` keeps, measured on the
    /// text as it stands: exact only without invalid chars.
    kept_bytes: usize,
    kept_words: usize,
    double_space: bool,
    space_before_punct: bool,
    first: Option<char>,
    last: Option<char>,
    ellipsis: bool,
}

/// What the char before the one being read means to a token in progress.
#[derive(Clone, Copy, PartialEq)]
enum Joint {
    /// No token continues past it.
    None,
    /// An alphanumeric char of a token.
    Alnum,
    /// A `'` or `-` right after an alphanumeric char: the token continues
    /// if an alphanumeric char follows.
    Joiner,
    /// A `.` or `,` right after an alphanumeric char: an all-digit token
    /// continues if an ASCII digit follows.
    Separator,
}

impl RawWalk {
    /// Walks `text` once, char by char, decoding only at a non-ASCII byte.
    ///
    /// Tokens never span whitespace, and a token starts at an alphanumeric
    /// char that does not continue the one before it: the char before is
    /// not alphanumeric, not a joiner after one, and not a separator
    /// inside a number that a digit follows. So the word count is the
    /// number of such starts (what `token::Tokens` yields as word and
    /// number tokens).
    fn of(text: &str) -> Self {
        let mut walk = RawWalk::default();
        let bytes = text.as_bytes();
        // The cleaned text is the stutter-collapsed prefix that trailing
        // repeats leave.
        let keep = clean::clean_keep(text);
        let mut stutter = Stutter::new(clean::CLEAN_STUTTER);
        let mut prev: Option<&str> = None;
        // The whitespace-separated word being read, the last one read, and
        // the whitespace run since it: whether it holds two spaces in a
        // row, and whether it ends with one.
        let mut word: Option<usize> = None;
        let mut last_word = "";
        let (mut gap_double, mut gap_space) = (false, false);
        // The token in progress.
        let (mut joint, mut all_digits) = (Joint::None, false);
        let mut i = 0;
        while let Some(&b) = bytes.get(i) {
            let (class, len) = match ASCII.get(usize::from(b)) {
                Some(&class) => (class, 1),
                None => char_at(text, i).map_or((0, 1), |(c, len)| (wide_class(c), len)),
            };
            if class == ALNUM && joint == Joint::Alnum {
                // Letters inside a token change nothing but the token's
                // kind.
                all_digits = false;
                i += len;
                while bytes
                    .get(i)
                    .is_some_and(|&b| ASCII.get(usize::from(b)) == Some(&ALNUM))
                {
                    i += 1;
                }
                continue;
            }
            walk.invalid_chars |= class & INVALID != 0;
            if class & LEAD != 0 && !walk.template_marker {
                walk.template_marker = TEMPLATE_MARKERS
                    .iter()
                    .any(|m| bytes[i..].starts_with(m.as_bytes()));
            }
            if class & SPACE != 0 {
                if let Some(start) = word.take() {
                    last_word = &text[start..i];
                    walk.word(last_word, start, keep, &mut stutter, &mut prev);
                    (gap_double, gap_space) = (false, false);
                }
                gap_double |= gap_space && b == b' ';
                gap_space = b == b' ';
                joint = Joint::None;
                i += len;
                continue;
            }
            if word.is_none() {
                word = Some(i);
                // Only a run between two words lies inside the trimmed text.
                if walk.spaced_words > 0 {
                    walk.double_space |= gap_double;
                    walk.space_before_punct |= gap_space && matches!(b, b'.' | b',' | b'!' | b'?');
                }
            }
            let digit = class & DIGIT != 0;
            joint = if class & ALNUM != 0 {
                let continues = match joint {
                    Joint::None => false,
                    Joint::Alnum => true,
                    Joint::Joiner => {
                        all_digits = false;
                        true
                    }
                    Joint::Separator => all_digits && digit,
                };
                if continues {
                    all_digits &= digit;
                } else {
                    walk.words += 1;
                    all_digits = digit;
                }
                Joint::Alnum
            } else if joint != Joint::Alnum {
                Joint::None
            } else if class & JOINER != 0 {
                Joint::Joiner
            } else if class & SEPARATOR != 0 {
                Joint::Separator
            } else {
                Joint::None
            };
            i += len;
        }
        if let Some(start) = word {
            last_word = &text[start..];
            walk.word(last_word, start, keep, &mut stutter, &mut prev);
        }
        walk.last = last_word.chars().next_back();
        walk.ellipsis = last_word.ends_with("...");
        walk
    }

    /// Records `w`, the whitespace-separated word at byte `start`.
    fn word<'t>(
        &mut self,
        w: &'t str,
        start: usize,
        keep: usize,
        stutter: &mut Stutter<'t>,
        prev: &mut Option<&'t str>,
    ) {
        if self.spaced_words == 0 {
            self.first = w.chars().next();
        }
        self.spaced_words += 1;
        self.repeated_words += usize::from(*prev == Some(w));
        *prev = Some(w);
        // Only the part before `keep` is kept, the word `keep` cuts included.
        if start < keep {
            let kept = &w[..w.len().min(keep - start)];
            if stutter.keeps(kept) {
                self.kept_bytes += kept.len();
                self.kept_words += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{testtext, token};

    #[test]
    fn ascii_classes_match_the_char_predicates() {
        for b in 0u8..128 {
            let c = char::from(b);
            let class = ASCII[usize::from(b)];
            assert_eq!(class & SPACE != 0, c.is_whitespace(), "{c:?}");
            assert_eq!(
                class & INVALID != 0,
                clean::has_invalid_chars(c.encode_utf8(&mut [0; 4])),
                "{c:?}"
            );
            assert_eq!(
                class & LEAD != 0,
                TEMPLATE_MARKERS.iter().any(|m| m.as_bytes()[0] == b),
                "{c:?}"
            );
        }
    }

    /// Every raw measure against the kernel it stands for.
    #[test]
    fn raw_measures_match_the_reference_kernels() {
        let mut texts = testtext::inputs("raw_measures_match_the_reference_kernels");
        texts.extend(
            [
                "a  b",
                "  a",
                "a  ",
                "a . b",
                " .a",
                "a\u{A0}.",
                "x ### Response: y",
                "### Instruction",
                "Improve the following instruction",
                "spam spam spam spam",
                "the end.the end.the end.",
                "ok \u{0} ok ok ok",
                "1-2.5 a1.5 1'2.3 1.2.3 a''b 3's x-'y 1.a 1,,2 ٣.4 e\u{301}x",
            ]
            .map(String::from),
        );
        for text in &texts {
            let p = TextProfile::new(text);
            let t = text.trim();
            assert_eq!(p.words(), token::word_count(text), "{text:?}");
            assert_eq!(p.has_invalid_chars(), clean::has_invalid_chars(text));
            assert_eq!(p.cleaned_len(), clean::clean_output(text).len(), "{text:?}");
            assert_eq!(p.validity(), clean::validate_pair("x", text), "{text:?}");
            assert_eq!(p.is_blank(), t.is_empty());
            assert_eq!(p.has_double_space(), t.contains("  "), "{text:?}");
            assert_eq!(
                p.has_space_before_punct(),
                [" .", " ,", " !", " ?"].iter().any(|s| t.contains(s)),
                "{text:?}"
            );
            assert_eq!(p.first_char(), t.chars().next());
            assert_eq!(p.last_char(), t.chars().next_back());
            assert_eq!(p.ends_with_ellipsis(), t.ends_with("..."));
            assert_eq!(p.len(), text.len());
        }
    }
}
