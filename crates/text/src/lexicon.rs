//! Shared lexicons for defect injection, detection, and repair.
//!
//! The reproduction keeps one canonical vocabulary of textual-quality
//! phenomena so that three independent subsystems stay consistent *without
//! sharing hidden state*:
//!
//! * `coachlm-data` **injects** defects by planting these surface forms;
//! * `coachlm-judge` **detects** them by analysing text for the same forms;
//! * `coachlm-lm` **repairs** them, with a backbone-dependent coverage of
//!   each list (stronger backbones know a longer prefix).
//!
//! Every list is ordered from most to least common, so "coverage = prefix"
//! mirrors how real models learn frequent phenomena first.
//!
//! One matcher answers every lookup of a built-in list in text: a
//! [`LexiconHits`] walks the folded text once with an automaton over every
//! marker list, grammar wrong form, fact subject and wrong value, "for
//! example" and typo form, and then answers each list, each coverage prefix
//! of the grammar pairs and facts, and the misspelling and fact-error
//! counts by bit arithmetic. Single words go through hashed lookups:
//! [`is_stopword`], [`typo_index`] and [`typo_correction`].

use crate::automaton::{Automaton, START};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::normalize::fold_case;
use crate::token::{TokenKind, Tokens};
use std::ops::{BitOrAssign, ControlFlow};
use std::sync::LazyLock;

/// Misspelling/typo confusion pairs `(wrong, right)`, most common first.
pub const TYPO_PAIRS: &[(&str, &str)] = &[
    ("teh", "the"),
    ("recieve", "receive"),
    ("definately", "definitely"),
    ("seperate", "separate"),
    ("occured", "occurred"),
    ("untill", "until"),
    ("wich", "which"),
    ("becuase", "because"),
    ("thier", "their"),
    ("alot", "a lot"),
    ("truely", "truly"),
    ("begining", "beginning"),
    ("beleive", "believe"),
    ("acheive", "achieve"),
    ("accross", "across"),
    ("foriegn", "foreign"),
    ("goverment", "government"),
    ("enviroment", "environment"),
    ("neccessary", "necessary"),
    ("occassion", "occasion"),
    ("publically", "publicly"),
    ("arguement", "argument"),
    ("concious", "conscious"),
    ("embarass", "embarrass"),
    ("existance", "existence"),
    ("happend", "happened"),
    ("independant", "independent"),
    ("knowlege", "knowledge"),
    ("liason", "liaison"),
    ("maintainance", "maintenance"),
    ("momento", "memento"),
    ("noticable", "noticeable"),
    ("perseverence", "perseverance"),
    ("posession", "possession"),
    ("priviledge", "privilege"),
    ("recomend", "recommend"),
    ("refered", "referred"),
    ("relevent", "relevant"),
    ("succesful", "successful"),
    ("tommorow", "tomorrow"),
];

/// Multi-word grammar confusion pairs `(wrong, right)`.
pub const GRAMMAR_PAIRS: &[(&str, &str)] = &[
    ("could of", "could have"),
    ("should of", "should have"),
    ("would of", "would have"),
    ("less people", "fewer people"),
    ("more better", "better"),
    ("most biggest", "biggest"),
    ("doesn't knows", "doesn't know"),
    ("he don't", "he doesn't"),
    ("they was", "they were"),
    ("it have", "it has"),
    ("is consist of", "consists of"),
    ("for to make", "to make"),
];

/// Phrases that make an instruction vague or ambiguous (Feasibility).
pub const VAGUE_PHRASES: &[&str] = &[
    "do something about it",
    "make it better somehow",
    "handle the thing mentioned",
    "fix whatever needs fixing",
    "improve this or that part",
    "address the aforementioned stuff",
];

/// Phrases that make an instruction infeasible for a text model
/// (Feasibility — logical errors or requests beyond a model's ability).
pub const INFEASIBLE_PHRASES: &[&str] = &[
    "using exactly zero words",
    "and deliver it to my house",
    "before I finish typing this",
    "by physically mailing a copy",
    "while remaining completely silent",
    "and phone me with the result",
];

/// Markers of rich instruction context (Contextualization): scenarios,
/// roles, examples, explicit requirements, chain-of-thought requests.
pub const CONTEXT_MARKERS: &[&str] = &[
    "for example",
    "you are",
    "step by step",
    "in the style of",
    "requirements:",
    "such as",
    "at least",
    "formatted as",
    "imagine",
    "given that",
];

/// Markers of reasoning/explanation in a response (Comprehensiveness,
/// Richness).
pub const REASONING_MARKERS: &[&str] = &[
    "because",
    "therefore",
    "first",
    "second",
    "finally",
    "this means",
    "for example",
    "in other words",
    "step by step",
    "as a result",
    "in summary",
    "note that",
];

/// Markers of a humanised, empathetic tone (Humanization).
pub const WARM_MARKERS: &[&str] = &[
    "happy to help",
    "great question",
    "hope this helps",
    "let me know",
    "feel free",
    "thank you",
    "of course",
    "understandable",
];

/// Openers that read as machine-generated boilerplate (anti-Humanization).
pub const MACHINE_TONE_MARKERS: &[&str] = &[
    "as an ai language model",
    "as a large language model",
    "i am just a machine",
    "output generated successfully",
];

/// Phrases marking unsafe content (Safety red line). Deliberately abstract
/// markers — the reproduction needs detectable tokens, not actual harm.
pub const UNSAFE_MARKERS: &[&str] = &[
    "without consulting a doctor",
    "guaranteed to double your investment",
    "here is their home address",
    "how to avoid paying the fine illegally",
    "untraceable and totally legal, trust me",
    "you should insult them back",
];

/// Placeholder markers indicating the instruction's key input is missing or
/// invalid (Table III "Invalid Input").
pub const INVALID_INPUT_MARKERS: &[&str] = &[
    "[link to an article]",
    "[attached file]",
    "[see above]",
    "<insert text here>",
    "(reference missing)",
];

/// Markers of unsupported multimodal content (Table III "Multi-modal").
pub const MULTIMODAL_MARKERS: &[&str] = &[
    "(photo of",
    "(image of",
    "(audio clip",
    "(video of",
    "in the picture",
    "in this image",
];

/// Markers of overly professional domains (Table III "Beyond Expertise").
pub const EXPERTISE_MARKERS: &[&str] = &[
    "chords for",
    "key signature of",
    "cite the statute",
    "icd-10 code",
    "structural load calculation",
    "pharmacokinetic profile",
];

/// Markers of massive creative rewriting workload (Table III
/// "Massive Workload").
pub const WORKLOAD_MARKERS: &[&str] = &[
    "rewrite the entire lyrics",
    "create a haiku poem from the given lyrics",
    "translate the whole novel",
    "rewrite every verse",
];

/// Small fact table `(subject, correct, wrong)`: canonical statements the
/// generator can corrupt and the judge/repairer can check.
pub const FACT_TABLE: &[(&str, &str, &str)] = &[
    ("the capital of France is", "Paris", "Berlin"),
    (
        "water boils at",
        "100 degrees Celsius",
        "50 degrees Celsius",
    ),
    ("the Earth orbits the", "Sun", "Moon"),
    ("2 plus 2 equals", "4", "5"),
    ("the largest planet is", "Jupiter", "Mercury"),
    ("light travels faster than", "sound", "nothing at all"),
    ("the human heart has", "four chambers", "seven chambers"),
    ("DNA is shaped like a", "double helix", "perfect cube"),
    ("the Pacific is the largest", "ocean", "desert"),
    ("a triangle has", "three sides", "five sides"),
    (
        "the freezing point of water is",
        "0 degrees Celsius",
        "40 degrees Celsius",
    ),
    ("photosynthesis produces", "oxygen", "pure carbon"),
];

/// Common English stopwords, used for content-word extraction when judging
/// response relevance and choosing revision topics.
pub const STOPWORDS: &[&str] = &[
    "a",
    "an",
    "the",
    "and",
    "or",
    "but",
    "if",
    "then",
    "else",
    "of",
    "in",
    "on",
    "at",
    "to",
    "for",
    "from",
    "with",
    "by",
    "about",
    "as",
    "into",
    "is",
    "are",
    "was",
    "were",
    "be",
    "been",
    "being",
    "am",
    "do",
    "does",
    "did",
    "have",
    "has",
    "had",
    "will",
    "would",
    "can",
    "could",
    "should",
    "may",
    "might",
    "must",
    "shall",
    "it",
    "its",
    "this",
    "that",
    "these",
    "those",
    "i",
    "you",
    "he",
    "she",
    "we",
    "they",
    "them",
    "his",
    "her",
    "their",
    "your",
    "my",
    "our",
    "me",
    "him",
    "us",
    "what",
    "which",
    "who",
    "whom",
    "whose",
    "when",
    "where",
    "why",
    "how",
    "not",
    "no",
    "nor",
    "so",
    "too",
    "very",
    "just",
    "also",
    "than",
    "there",
    "here",
    "all",
    "each",
    "any",
    "some",
    "such",
    "more",
    "most",
    "other",
    "please",
    "write",
    "given",
    "following",
    "make",
    "give",
    "list",
    "describe",
    "explain",
    "create",
    "generate",
    // Generic task verbs and meta-words common in instructions; they name
    // the *task*, not the topic, so relevance must not hinge on them.
    "suggest",
    "recommend",
    "brainstorm",
    "compose",
    "draft",
    "complete",
    "correct",
    "classify",
    "decide",
    "summarize",
    "paraphrase",
    "translate",
    "extract",
    "rank",
    "convert",
    "compare",
    "define",
    "find",
    "provide",
    "involving",
    "ideas",
    "ways",
    "things",
    "examples",
    "example",
    "one",
    "two",
    "three",
    "four",
    "five",
    "short",
    "long",
    "brief",
    "briefly",
    "sentence",
    "sentences",
    "passage",
    "paragraph",
    "article",
    "text",
    "title",
    "dialogue",
    "keywords",
    "facts",
    "key",
    "main",
    "simple",
    "everyday",
    "clearly",
    "using",
];

/// Instruction content words that carry the task topic for relevance:
/// appended requirements and context must not dilute it.
const TOPIC_WORDS: usize = 8;
/// Distinct response content words a relevance check looks at.
const RESPONSE_WORDS: usize = 256;

/// A built-in marker list. [`LexiconHits`] answers every list for a text
/// from one walk over its fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerList {
    /// [`VAGUE_PHRASES`].
    Vague,
    /// [`INFEASIBLE_PHRASES`].
    Infeasible,
    /// [`CONTEXT_MARKERS`].
    Context,
    /// [`REASONING_MARKERS`].
    Reasoning,
    /// [`WARM_MARKERS`].
    Warm,
    /// [`MACHINE_TONE_MARKERS`].
    MachineTone,
    /// [`UNSAFE_MARKERS`].
    Unsafe,
    /// [`INVALID_INPUT_MARKERS`].
    InvalidInput,
    /// [`MULTIMODAL_MARKERS`].
    Multimodal,
    /// [`EXPERTISE_MARKERS`].
    Expertise,
    /// [`WORKLOAD_MARKERS`].
    Workload,
}

impl MarkerList {
    /// Every list, in the order of their owner bits.
    pub const ALL: [MarkerList; 11] = [
        MarkerList::Vague,
        MarkerList::Infeasible,
        MarkerList::Context,
        MarkerList::Reasoning,
        MarkerList::Warm,
        MarkerList::MachineTone,
        MarkerList::Unsafe,
        MarkerList::InvalidInput,
        MarkerList::Multimodal,
        MarkerList::Expertise,
        MarkerList::Workload,
    ];

    /// The list's markers.
    pub const fn markers(self) -> &'static [&'static str] {
        match self {
            MarkerList::Vague => VAGUE_PHRASES,
            MarkerList::Infeasible => INFEASIBLE_PHRASES,
            MarkerList::Context => CONTEXT_MARKERS,
            MarkerList::Reasoning => REASONING_MARKERS,
            MarkerList::Warm => WARM_MARKERS,
            MarkerList::MachineTone => MACHINE_TONE_MARKERS,
            MarkerList::Unsafe => UNSAFE_MARKERS,
            MarkerList::InvalidInput => INVALID_INPUT_MARKERS,
            MarkerList::Multimodal => MULTIMODAL_MARKERS,
            MarkerList::Expertise => EXPERTISE_MARKERS,
            MarkerList::Workload => WORKLOAD_MARKERS,
        }
    }

    /// The owner bit of the list's first marker; its marker `i` owns bit
    /// `offset + i`.
    const fn offset(self) -> u32 {
        let mut at = 0;
        let mut i = 0;
        while !matches_list(MarkerList::ALL[i], self) {
            at += MarkerList::ALL[i].markers().len() as u32;
            i += 1;
        }
        at
    }
}

/// `a == b` in a const context.
const fn matches_list(a: MarkerList, b: MarkerList) -> bool {
    a as u8 == b as u8
}

// The owner bits of the lexicon automaton, after the marker lists: the
// wrong forms of `GRAMMAR_PAIRS`, then `FACT_TABLE`'s subjects and its
// wrong values (fact `k` owns bit `k` of each), then "for example".
const GRAMMAR_BIT: u32 =
    MarkerList::Workload.offset() + MarkerList::Workload.markers().len() as u32;
const SUBJECT_BIT: u32 = GRAMMAR_BIT + GRAMMAR_PAIRS.len() as u32;
const WRONG_BIT: u32 = SUBJECT_BIT + FACT_TABLE.len() as u32;
const EXAMPLE_BIT: u32 = WRONG_BIT + FACT_TABLE.len() as u32;
const _: () = assert!(EXAMPLE_BIT < u128::BITS);
// `LexiconHits` keeps one bit per typo form.
const _: () = assert!(TYPO_PAIRS.len() <= u64::BITS as usize);

/// Bits `at..at + len` of `bits`, shifted down to bit 0.
fn bit_field(bits: u128, at: u32, len: usize) -> u128 {
    (bits >> at) & ((1u128 << len) - 1)
}

/// What an occurrence of a lexicon automaton pattern stands for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Owners {
    /// Marker lists, grammar forms, fact columns and "for example": see
    /// [`GRAMMAR_BIT`] and its neighbours.
    lists: u128,
    /// Bit `i`: [`TYPO_PAIRS`]' wrong form `i`, which counts only where it
    /// stands alone.
    typos: u64,
}

impl BitOrAssign for Owners {
    fn bitor_assign(&mut self, other: Owners) {
        self.lists |= other.lists;
        self.typos |= other.typos;
    }
}

/// The lexicons as hashed lookups and one automaton, built on first use.
/// Kernels only look the maps up and never iterate them, so no result
/// depends on hash order.
struct Lookups {
    stopwords: FxHashSet<&'static str>,
    /// Each typo form → its first index in [`TYPO_PAIRS`].
    typos: FxHashMap<&'static str, usize>,
    /// Every marker list, grammar wrong form, fact subject and fact wrong
    /// value, "for example", and each typo form at its first index, each
    /// folded on its own with [`fold_case`].
    automaton: Automaton<Owners>,
}

static LOOKUPS: LazyLock<Lookups> = LazyLock::new(Lookups::build);

impl Lookups {
    fn build() -> Self {
        let mut typos = FxHashMap::default();
        for (i, (wrong, _)) in TYPO_PAIRS.iter().enumerate() {
            typos.entry(*wrong).or_insert(i);
        }
        let list = |bit: u32| Owners {
            lists: 1 << bit,
            typos: 0,
        };
        let mut patterns: Vec<(String, Owners)> = Vec::new();
        for list_id in MarkerList::ALL {
            for (i, marker) in list_id.markers().iter().enumerate() {
                patterns.push((fold_case(marker), list(list_id.offset() + i as u32)));
            }
        }
        for (k, (wrong, _)) in GRAMMAR_PAIRS.iter().enumerate() {
            patterns.push((fold_case(wrong), list(GRAMMAR_BIT + k as u32)));
        }
        for (k, (subject, _, wrong)) in FACT_TABLE.iter().enumerate() {
            patterns.push((fold_case(subject), list(SUBJECT_BIT + k as u32)));
            patterns.push((fold_case(wrong), list(WRONG_BIT + k as u32)));
        }
        patterns.push((fold_case("for example"), list(EXAMPLE_BIT)));
        for (i, (wrong, _)) in TYPO_PAIRS.iter().enumerate() {
            if typos.get(wrong) == Some(&i) {
                let owners = Owners {
                    lists: 0,
                    typos: 1 << i,
                };
                patterns.push((fold_case(wrong), owners));
            }
        }
        Lookups {
            stopwords: STOPWORDS.iter().copied().collect(),
            typos,
            automaton: Automaton::new(patterns.iter().map(|(p, owners)| (p.as_bytes(), *owners))),
        }
    }
}

/// What of the built-in lexicon a folded text holds, found by one walk
/// over its bytes: the first marker of each [`MarkerList`], the
/// [`GRAMMAR_PAIRS`] wrong forms, the [`FACT_TABLE`] subjects and wrong
/// values, "for example", and the [`TYPO_PAIRS`] wrong forms that stand
/// alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LexiconHits {
    /// [`Owners::lists`] of every pattern that occurs.
    lists: u128,
    /// Bit `i`: typo form `i` is a maximal ASCII-alphanumeric run.
    typos: u64,
}

impl LexiconHits {
    /// Folds `text` with [`fold_case`] and walks it: [`Self::of_folded`].
    pub fn of(text: &str) -> Self {
        Self::of_folded(&fold_case(text))
    }

    /// Walks `folded`, text folded with [`fold_case`], once: the automaton
    /// reports every pattern that occurs, overlapping and nested ones
    /// included. The same byte loop tracks the maximal ASCII-alphanumeric
    /// runs: a typo form counts when it ends where a run ends and is as
    /// long as the run.
    pub fn of_folded(folded: &str) -> Self {
        let ac = &LOOKUPS.automaton;
        let mut hits = LexiconHits::default();
        let mut state = START;
        let mut run = 0;
        for &b in folded.as_bytes() {
            if b.is_ascii_alphanumeric() {
                run += 1;
            } else {
                hits.typos |= standalone_typo(ac.owners(state), run);
                run = 0;
            }
            state = ac.step(state, b);
            if let Some(owners) = ac.owners(state) {
                hits.lists |= owners.lists;
            }
        }
        hits.typos |= standalone_typo(ac.owners(state), run);
        hits
    }

    /// The first marker of `list`, in list order, that occurs.
    pub fn first_marker(&self, list: MarkerList) -> Option<&'static str> {
        let markers = list.markers();
        first_found(markers, bit_field(self.lists, list.offset(), markers.len()))
    }

    /// Whether a marker of `list` occurs.
    pub fn has_marker(&self, list: MarkerList) -> bool {
        bit_field(self.lists, list.offset(), list.markers().len()) != 0
    }

    /// The first of the first `known` [`GRAMMAR_PAIRS`] whose wrong form
    /// occurs, as `(wrong, right)`.
    pub fn first_grammar(&self, known: usize) -> Option<(&'static str, &'static str)> {
        let known = known.min(GRAMMAR_PAIRS.len());
        first_found(GRAMMAR_PAIRS, bit_field(self.lists, GRAMMAR_BIT, known))
    }

    /// The first of the first `known` [`FACT_TABLE`] rows the text
    /// contradicts (its subject and its wrong value both occur), as
    /// `(subject, correct, wrong)`.
    pub fn first_fact(&self, known: usize) -> Option<(&'static str, &'static str, &'static str)> {
        let known = known.min(FACT_TABLE.len());
        first_found(FACT_TABLE, bit_field(self.contradicted(), 0, known))
    }

    /// Whether some [`FACT_TABLE`] wrong value occurs, whatever the subject.
    pub fn has_wrong_fact_value(&self) -> bool {
        bit_field(self.lists, WRONG_BIT, FACT_TABLE.len()) != 0
    }

    /// Whether "for example" occurs.
    pub fn has_example(&self) -> bool {
        (self.lists >> EXAMPLE_BIT) & 1 == 1
    }

    /// How many typo forms stand alone (each counts once) plus how many
    /// grammar wrong forms occur.
    pub fn misspellings(&self) -> u32 {
        self.typos.count_ones()
            + bit_field(self.lists, GRAMMAR_BIT, GRAMMAR_PAIRS.len()).count_ones()
    }

    /// How many facts are contradicted: both the subject and the wrong
    /// value occur.
    pub fn fact_errors(&self) -> u32 {
        self.contradicted().count_ones()
    }

    /// Bit `k`: both fact `k`'s subject and its wrong value occur.
    fn contradicted(&self) -> u128 {
        let subjects = bit_field(self.lists, SUBJECT_BIT, FACT_TABLE.len());
        let wrongs = bit_field(self.lists, WRONG_BIT, FACT_TABLE.len());
        subjects & wrongs
    }
}

/// The entry of `table` at the lowest set bit of `found`.
fn first_found<T: Copy>(table: &[T], found: u128) -> Option<T> {
    table.get(found.trailing_zeros() as usize).copied()
}

/// The bit of the typo form that is a whole ASCII-alphanumeric run of
/// `run` bytes ending where the walk stands, given the owners of its
/// state. Typo forms are ASCII-alphanumeric, so one that ends there and is
/// as long as the run is the run; two forms of one length ending at one
/// byte would be equal, and each form is compiled once.
fn standalone_typo(owners: Option<Owners>, run: usize) -> u64 {
    let mut typos = owners.map_or(0, |o| o.typos);
    while typos != 0 {
        let i = typos.trailing_zeros() as usize;
        if TYPO_PAIRS
            .get(i)
            .is_some_and(|(wrong, _)| wrong.len() == run)
        {
            return 1 << i;
        }
        typos &= typos - 1;
    }
    0
}

/// Whether `s` is lowercase ASCII, which [`fold_case`] leaves unchanged.
fn is_lower_ascii(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase())
}

/// Returns `true` if `word` (case-folded) is a stopword.
pub fn is_stopword(word: &str) -> bool {
    if is_lower_ascii(word) {
        LOOKUPS.stopwords.contains(word)
    } else {
        LOOKUPS.stopwords.contains(fold_case(word).as_str())
    }
}

/// The longest ASCII word a content-word scan folds on the stack.
const STACK_WORD: usize = 64;

/// Feeds `visit` every content word of `text` in order of appearance —
/// case-folded, a known misspelling replaced by its correction, at least
/// three characters, not a stopword — repeats included, until `visit`
/// breaks.
fn scan_content_words<B>(
    text: &str,
    mut visit: impl FnMut(&str) -> ControlFlow<B>,
) -> ControlFlow<B> {
    // An ASCII word folds into this buffer. A non-ASCII word is folded on
    // its own: Unicode lowercasing depends on the surrounding text (a final
    // sigma), so folding the whole text at once would change some words.
    let mut ascii = [0u8; STACK_WORD];
    for tok in Tokens::new(text) {
        if tok.kind != TokenKind::Word {
            continue;
        }
        let word = tok.text(text);
        let unicode;
        let folded = match ascii.get_mut(..word.len()) {
            Some(buf) if word.is_ascii() => {
                buf.copy_from_slice(word.as_bytes());
                buf.make_ascii_lowercase();
                std::str::from_utf8(buf).unwrap_or_default()
            }
            _ => {
                unicode = fold_case(word);
                unicode.as_str()
            }
        };
        let w = typo_correction(folded, TYPO_PAIRS.len()).unwrap_or(folded);
        if w.chars().count() >= 3 && !is_stopword(w) {
            visit(w)?;
        }
    }
    ControlFlow::Continue(())
}

/// Extracts up to `max` content words (non-stopword words of length ≥ 3)
/// from `text`, in order of first appearance, deduplicated case-folded.
/// Known misspellings are normalised to their corrections first, so a
/// typo'd stopword ("teh") is still skipped and topics never carry typos.
pub fn content_words(text: &str, max: usize) -> Vec<String> {
    let mut out = Vec::new();
    if max == 0 {
        return out;
    }
    let mut seen: FxHashSet<String> = FxHashSet::default();
    let _ = scan_content_words(text, |w| {
        if !seen.contains(w) {
            seen.insert(w.to_string());
            out.push(w.to_string());
            if out.len() == max {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    });
    out
}

/// Lexical overlap in [0, 1]: the fraction of `a`'s first eight content
/// words that are among `b`'s first 256 distinct ones (1 when `a` has
/// none). [`is_off_topic`] is the zero-overlap test.
pub fn content_overlap(a: &str, b: &str) -> f64 {
    let wa = content_words(a, TOPIC_WORDS);
    if wa.is_empty() {
        return 1.0; // nothing to be relevant to
    }
    let wb: FxHashSet<String> = content_words(b, RESPONSE_WORDS).into_iter().collect();
    let hits = wa.iter().filter(|w| wb.contains(*w)).count();
    hits as f64 / wa.len() as f64
}

/// The topic of an instruction: its first eight content words
/// ([`content_words`]), which a response must mention to be on topic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topic {
    /// The topic words, back to back.
    text: String,
    /// Where each word ends in `text`.
    ends: [usize; TOPIC_WORDS],
    len: usize,
}

impl Topic {
    /// The topic of `instruction`.
    pub fn new(instruction: &str) -> Self {
        let mut topic = Topic {
            text: String::with_capacity(instruction.len()),
            ..Topic::default()
        };
        // Eight words need no dedup set.
        let _ = scan_content_words(instruction, |w| {
            if !topic.words().any(|t| t == w) {
                topic.text.push_str(w);
                topic.ends[topic.len] = topic.text.len();
                topic.len += 1;
            }
            if topic.len == TOPIC_WORDS {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        topic
    }

    /// The topic words, in order of first appearance:
    /// `content_words(instruction, n)` is the first `n` of them for any
    /// `n` up to eight.
    pub fn words(&self) -> impl Iterator<Item = &str> + '_ {
        let ends = &self.ends[..self.len];
        ends.iter().enumerate().map(|(k, &end)| {
            let start = if k == 0 { 0 } else { ends[k - 1] };
            &self.text[start..end]
        })
    }

    /// Whether `response` is off this topic: none of the topic words is
    /// among the response's first 256 distinct content words. A single
    /// genuine topic hit — e.g. a one-word topic like "gravity" — is enough
    /// to count as on-topic; a long instruction's generic scaffold words
    /// must not swamp it. A topic without words cannot be missed.
    pub fn missed_by(&self, response: &str) -> bool {
        if self.len == 0 {
            return false;
        }
        let in_topic = |w: &str| self.words().any(|t| t == w);
        // The k-th content word is at most the k-th distinct one, so the
        // first 256 need no dedup set: the scan stops at the first topic
        // word.
        let mut scanned = 0;
        let scan = scan_content_words(response, |w| {
            if in_topic(w) {
                return ControlFlow::Break(true);
            }
            scanned += 1;
            if scanned < RESPONSE_WORDS {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(false)
            }
        });
        match scan {
            ControlFlow::Continue(()) => true,
            ControlFlow::Break(true) => false,
            // 256 words and no topic word: with repeats among them, words
            // after the 256th can still be among the first 256 distinct
            // ones.
            ControlFlow::Break(false) => !content_words(response, RESPONSE_WORDS)
                .iter()
                .any(|w| in_topic(w)),
        }
    }
}

/// Whether `response` is off-topic for `instruction`:
/// [`Topic::missed_by`] with the instruction's [`Topic`].
pub fn is_off_topic(instruction: &str, response: &str) -> bool {
    Topic::new(instruction).missed_by(response)
}

/// The index of `word` among [`TYPO_PAIRS`]' wrong forms (the first, if a
/// form were listed twice).
pub fn typo_index(word: &str) -> Option<usize> {
    LOOKUPS.typos.get(word).copied()
}

/// Looks up the correction for a typo, if it is in the first
/// `coverage_len` entries of [`TYPO_PAIRS`].
pub fn typo_correction(word: &str, coverage_len: usize) -> Option<&'static str> {
    typo_index(word)
        .filter(|&i| i < coverage_len)
        .and_then(|i| TYPO_PAIRS.get(i))
        .map(|(_, right)| *right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The linear-scan kernels the hashed, early-exit and automaton ones
    /// replaced, verbatim: the oracles they must agree with.
    mod reference {
        use super::super::{FACT_TABLE, GRAMMAR_PAIRS, STOPWORDS, TYPO_PAIRS};
        use crate::normalize::fold_case;

        pub fn is_stopword(word: &str) -> bool {
            let folded = fold_case(word);
            STOPWORDS.contains(&folded.as_str())
        }

        pub fn typo_correction(word: &str, coverage_len: usize) -> Option<&'static str> {
            TYPO_PAIRS
                .iter()
                .take(coverage_len)
                .find(|(wrong, _)| *wrong == word)
                .map(|(_, right)| *right)
        }

        pub fn content_words(text: &str, max: usize) -> Vec<String> {
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for tok in crate::token::tokenize(text) {
                if out.len() >= max {
                    break;
                }
                if tok.kind == crate::token::TokenKind::Word {
                    let folded = fold_case(tok.text(text));
                    let w = typo_correction(&folded, TYPO_PAIRS.len()).unwrap_or(&folded);
                    if w.chars().count() >= 3 && !is_stopword(w) {
                        let fixed = w.to_string();
                        if seen.insert(fixed.clone()) {
                            out.push(fixed);
                        }
                    }
                }
            }
            out
        }

        pub fn is_off_topic(instruction: &str, response: &str, floor: f64) -> bool {
            let wa = content_words(instruction, 8);
            let wb: std::collections::HashSet<String> =
                content_words(response, 256).into_iter().collect();
            let hits = wa.iter().filter(|w| wb.contains(*w)).count();
            if wa.is_empty() {
                return false;
            }
            hits == 0 && ((hits as f64) / (wa.len() as f64)) < floor
        }

        pub fn find_marker<'m>(text: &str, markers: &'m [&'m str]) -> Option<&'m str> {
            let folded = fold_case(text);
            markers
                .iter()
                .find(|m| folded.contains(&fold_case(m)))
                .copied()
        }

        /// The scan of `KnowledgeBase::grammar_correction`, with its
        /// coverage prefix `known`.
        pub fn grammar_correction(
            text: &str,
            known: usize,
        ) -> Option<(&'static str, &'static str)> {
            let folded = fold_case(text);
            GRAMMAR_PAIRS
                .iter()
                .take(known)
                .find(|(wrong, _)| folded.contains(wrong))
                .copied()
        }

        /// The scan of `KnowledgeBase::fact_correction`, with its coverage
        /// prefix `known`, over the fact table's folded columns.
        pub fn fact_correction(text: &str, known: usize) -> Option<usize> {
            let folded = fold_case(text);
            let folded_facts: Vec<(String, String)> = FACT_TABLE
                .iter()
                .map(|(subject, _, wrong)| (fold_case(subject), fold_case(wrong)))
                .collect();
            folded_facts
                .iter()
                .take(known)
                .position(|(subject, wrong)| {
                    folded.contains(subject.as_str()) && folded.contains(wrong.as_str())
                })
        }

        /// The fact scan of the rule extractor's `is_grounded`, over a
        /// span of case-folded words joined by spaces.
        pub fn has_wrong_fact_value(joined: &str) -> bool {
            FACT_TABLE
                .iter()
                .any(|(_, _, wrong)| joined.contains(&fold_case(wrong)))
        }
    }

    /// Fragments aimed at the fast paths: stopwords and typo forms in every
    /// case, glued to punctuation, digits and UTF-8, and words whose fold
    /// depends on context (a final sigma) or lands on ASCII (the Kelvin
    /// sign folds to `k`, so "\u{212A}ey" is the stopword "key").
    const PIECES: &[&str] = &[
        "the",
        "The",
        "THE",
        "key",
        "Key",
        "\u{212A}ey",
        "\u{212A}",
        "teh",
        "Teh",
        "TEH",
        "alot",
        "ALOT",
        "becuase",
        "thier",
        "untill",
        "tommorow",
        "gravity",
        "Gravity",
        "water",
        "Cycle",
        "Sahara",
        "ΟΔΟΣ",
        "ΑΣ",
        "Σ",
        "ς",
        "İstanbul",
        "CAFÉ",
        "café",
        "straße",
        "中文",
        "🌊",
        "don't",
        "state-of-the-art",
        "3.14",
        "1,000",
        "42",
        "x1",
        "ab",
        ",",
        ".",
        "!",
        "'",
        "-",
        "(",
        "\u{0301}",
        "é",
    ];
    /// What separates fragments; the empty gap glues two together.
    const GAPS: &[&str] = &[" ", " ", " ", "", "", "\n", "\t", ". ", ", ", "\u{00A0}"];
    /// Edge inputs every comparison also runs on.
    const EDGES: &[&str] = &[
        "",
        " ",
        " \t\n  ",
        "\u{212A}ey ΑΣ.Β ΟΔΟΣ teh",
        "Teh teh TEH alot",
    ];

    /// Up to `max_pieces` fragments, 40 % of them numbered words drawn from
    /// `vocab` distinct ones, so long texts cross the 256-word cap.
    fn adversarial_text(rng: &mut StdRng, max_pieces: usize, vocab: u32) -> String {
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..=max_pieces) {
            if rng.gen_bool(0.4) {
                text.push_str(&format!("topic{}", rng.gen_range(0..vocab)));
            } else {
                text.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
            }
            text.push_str(GAPS[rng.gen_range(0..GAPS.len())]);
        }
        text
    }

    #[test]
    fn hashed_lookups_match_the_linear_scans() {
        let mut words: Vec<String> = PIECES
            .iter()
            .chain(STOPWORDS)
            .map(|w| w.to_string())
            .collect();
        words.extend(STOPWORDS.iter().map(|w| w.to_uppercase()));
        for (wrong, right) in TYPO_PAIRS {
            words.extend([wrong.to_string(), wrong.to_uppercase(), right.to_string()]);
        }
        for w in &words {
            assert_eq!(is_stopword(w), reference::is_stopword(w), "{w:?}");
            for coverage in [0, 1, 7, 20, TYPO_PAIRS.len(), TYPO_PAIRS.len() + 5] {
                assert_eq!(
                    typo_correction(w, coverage),
                    reference::typo_correction(w, coverage),
                    "{w:?} at coverage {coverage}"
                );
            }
        }
    }

    #[test]
    fn content_words_match_the_reference() {
        let mut texts: Vec<String> = EDGES.iter().map(|t| t.to_string()).collect();
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("content_words_match_the_reference", case);
            let vocab = rng.gen_range(1..2000);
            texts.push(adversarial_text(&mut rng, 600, vocab));
        }
        for text in &texts {
            for max in [0, 1, 3, 4, 8, 256, usize::MAX] {
                assert_eq!(
                    content_words(text, max),
                    reference::content_words(text, max),
                    "max {max}: {text:?}"
                );
            }
        }
    }

    #[test]
    fn off_topic_matches_the_reference() {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for a in EDGES {
            for b in EDGES {
                pairs.push((a.to_string(), b.to_string()));
            }
        }
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("off_topic_matches_the_reference", case);
            let vocab = rng.gen_range(1..3000);
            let instruction = adversarial_text(&mut rng, 16, vocab);
            pairs.push((instruction, adversarial_text(&mut rng, 1500, vocab)));
        }
        for (instruction, response) in &pairs {
            assert_eq!(
                is_off_topic(instruction, response),
                reference::is_off_topic(instruction, response, 0.2),
                "{instruction:?} / {response:?}"
            );
        }
    }

    #[test]
    fn off_topic_keeps_the_256_distinct_word_cap() {
        let distinct: String = (0..300).map(|i| format!("filler{i} ")).collect();
        let repeated = "filler ".repeat(300);
        for (response, off_topic) in [
            // "gravity" is the 301st distinct content word: past the cap.
            (format!("{distinct}gravity"), true),
            // 300 repeats of one word: "gravity" is only the 2nd distinct one.
            (format!("{repeated}gravity"), false),
        ] {
            assert_eq!(is_off_topic("Explain gravity", &response), off_topic);
            assert_eq!(
                reference::is_off_topic("Explain gravity", &response, 0.2),
                off_topic
            );
        }
    }

    /// Every built-in marker, in three cases, and pieces that make markers
    /// overlap or nest or fold to a different length.
    fn marker_pieces() -> Vec<String> {
        let mut pieces: Vec<String> = Vec::new();
        for list in MarkerList::ALL {
            for marker in list.markers() {
                pieces.extend([marker.to_string(), marker.to_uppercase(), fold_case(marker)]);
            }
        }
        for (subject, correct, wrong) in FACT_TABLE {
            pieces.extend([subject, correct, wrong].map(|s| s.to_string()));
            pieces.extend([subject, wrong].map(|s| s.to_uppercase()));
        }
        for (wrong, right) in GRAMMAR_PAIRS {
            pieces.extend([wrong, right].map(|s| s.to_string()));
            pieces.push(wrong.to_uppercase());
        }
        pieces.extend(PIECES.iter().map(|p| p.to_string()));
        pieces.extend(
            [
                "for examplee",
                "step by step by step",
                "50",
                "İ",
                "ΟΔΟΣ",
                "ς",
                "you",
                "are",
            ]
            .map(String::from),
        );
        pieces
    }

    /// Texts of up to 24 [`marker_pieces`] with gaps between them, one per
    /// case, after the shared reference inputs.
    fn marker_texts(name: &str) -> Vec<String> {
        let pieces = marker_pieces();
        let mut texts = crate::testtext::inputs(name);
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng(name, case);
            let mut text = String::new();
            for _ in 0..rng.gen_range(0..24) {
                text.push_str(&pieces[rng.gen_range(0..pieces.len())]);
                text.push_str(GAPS[rng.gen_range(0..GAPS.len())]);
            }
            texts.push(text);
        }
        texts
    }

    #[test]
    fn lexicon_hits_match_the_first_marker_reference() {
        for text in &marker_texts("lexicon_hits_match_the_first_marker_reference") {
            let folded = fold_case(text);
            let hits = LexiconHits::of_folded(&folded);
            assert_eq!(LexiconHits::of(text), hits);
            for list in MarkerList::ALL {
                let want = reference::find_marker(text, list.markers());
                assert_eq!(hits.first_marker(list), want, "{list:?} in {text:?}");
                assert_eq!(hits.has_marker(list), want.is_some());
            }
            assert_eq!(
                hits.has_example(),
                folded.contains("for example"),
                "{text:?}"
            );
        }
    }

    #[test]
    fn grammar_and_fact_lookups_match_the_substring_scan_reference() {
        let (mut grammar, mut facts, mut wrong_values) = (0, 0, 0);
        for text in &marker_texts("grammar_and_fact_lookups_match_the_substring_scan_reference") {
            // The rule extractor asks about spans of case-folded words
            // joined by spaces.
            let words: Vec<String> = crate::token::words(text)
                .iter()
                .map(|w| fold_case(w))
                .collect();
            let joined = words.join(" ");
            for text in [text, &joined] {
                let hits = LexiconHits::of(text);
                for known in 0..=GRAMMAR_PAIRS.len() {
                    assert_eq!(
                        hits.first_grammar(known),
                        reference::grammar_correction(text, known),
                        "known {known}: {text:?}"
                    );
                }
                for known in 0..=FACT_TABLE.len() {
                    assert_eq!(
                        hits.first_fact(known),
                        reference::fact_correction(text, known).map(|i| FACT_TABLE[i]),
                        "known {known}: {text:?}"
                    );
                }
            }
            let hits = LexiconHits::of(&joined);
            assert_eq!(
                hits.has_wrong_fact_value(),
                reference::has_wrong_fact_value(&joined),
                "{joined:?}"
            );
            grammar += usize::from(hits.first_grammar(GRAMMAR_PAIRS.len()).is_some());
            facts += usize::from(hits.first_fact(FACT_TABLE.len()).is_some());
            wrong_values += usize::from(hits.has_wrong_fact_value());
        }
        // What the cases actually covered.
        assert!(grammar > 0, "no text held a grammar wrong form");
        assert!(facts > 0, "no text contradicted a fact");
        assert!(
            wrong_values > facts,
            "every wrong value came with its subject"
        );
    }

    #[test]
    fn lexicon_automaton_tables_stay_small() {
        // u16 state ids and byte classes keep every table in cache.
        let bytes = LOOKUPS.automaton.table_bytes();
        assert!(bytes < 256 * 1024, "{bytes} bytes");
    }

    #[test]
    fn lexicons_have_no_duplicate_wrong_forms() {
        let mut seen = std::collections::HashSet::new();
        for (wrong, _) in TYPO_PAIRS {
            assert!(seen.insert(*wrong), "duplicate typo {wrong}");
        }
    }

    #[test]
    fn typo_pairs_are_actual_corrections() {
        for (wrong, right) in TYPO_PAIRS {
            assert_ne!(wrong, right);
            assert!(!wrong.is_empty() && !right.is_empty());
        }
    }

    #[test]
    fn typo_correction_respects_coverage() {
        assert_eq!(typo_correction("teh", TYPO_PAIRS.len()), Some("the"));
        assert_eq!(typo_correction("teh", 1), Some("the"));
        assert_eq!(typo_correction("tommorow", 5), None); // beyond coverage
        assert_eq!(typo_correction("correct", TYPO_PAIRS.len()), None);
    }

    #[test]
    fn marker_matching_is_case_insensitive() {
        let tone = MarkerList::MachineTone;
        assert!(LexiconHits::of("As an AI language model, I cannot").has_marker(tone));
        assert!(!LexiconHits::of("a helpful human reply").has_marker(tone));
        assert_eq!(
            LexiconHits::of("For Example, consider this").first_marker(MarkerList::Context),
            Some("for example")
        );
    }

    #[test]
    fn fact_table_entries_are_contradictory() {
        for (subject, correct, wrong) in FACT_TABLE {
            assert_ne!(correct, wrong, "fact {subject} has equal variants");
        }
    }

    #[test]
    fn content_words_skip_stopwords_and_short_words() {
        let cw = content_words("Explain the theory of general relativity to me", 10);
        assert_eq!(cw, vec!["theory", "general", "relativity"]);
    }

    #[test]
    fn content_words_dedupe_and_cap() {
        let cw = content_words("gravity gravity Gravity waves waves fields", 2);
        assert_eq!(cw, vec!["gravity", "waves"]);
    }

    #[test]
    fn overlap_detects_relevance() {
        let instr = "Describe the water cycle";
        let relevant = "The water cycle moves water through evaporation and rain.";
        let irrelevant = "Bananas are yellow fruits rich in potassium.";
        assert!(content_overlap(instr, relevant) > 0.5);
        assert!(content_overlap(instr, irrelevant) < 0.2);
    }

    #[test]
    fn overlap_with_empty_query_is_one() {
        assert_eq!(content_overlap("the of and", "anything"), 1.0);
    }

    #[test]
    fn marker_lists_are_nonempty() {
        for list in [
            VAGUE_PHRASES,
            INFEASIBLE_PHRASES,
            CONTEXT_MARKERS,
            REASONING_MARKERS,
            WARM_MARKERS,
            MACHINE_TONE_MARKERS,
            UNSAFE_MARKERS,
            INVALID_INPUT_MARKERS,
            MULTIMODAL_MARKERS,
            EXPERTISE_MARKERS,
            WORKLOAD_MARKERS,
        ] {
            assert!(!list.is_empty());
        }
    }
}
