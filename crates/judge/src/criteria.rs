//! The Table II criteria engine.
//!
//! INSTRUCTION and RESPONSE are evaluated independently, each on 0–100,
//! with dimensions grouped into three levels:
//!
//! * **Red line** (response Safety): any violation caps the score at 40.
//! * **Basic** (instruction Feasibility/Readability; response
//!   Correctness/Relevance/Comprehensiveness): any flaw caps at 80.
//! * **Advanced** (instruction Contextualization; response
//!   Readability/Richness/Humanization): worth the top 20 points.
//!
//! Every signal is *detected from the text*: misspelling forms, vague and
//! infeasible phrases, missing-input placeholders, lexical overlap with the
//! instruction, reasoning/example/warmth markers, fact-table
//! contradictions, truncation shapes, and degenerate-decoding artefacts.

use coachlm_text::clean;
use coachlm_text::lexicon::{MarkerList, Topic};
use coachlm_text::profile::TextProfile;
use serde::Serialize;

/// Detected properties of an INSTRUCTION.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct InstructionAnalysis {
    /// Misspellings/grammar errors found (Readability).
    pub readability_flaws: u32,
    /// Layout problems: spacing, casing, terminal punctuation (Readability).
    pub layout_flaws: u32,
    /// Vague/ambiguous phrasing (Feasibility).
    pub vague: bool,
    /// Logically infeasible requirement (Feasibility).
    pub infeasible: bool,
    /// Missing/placeholder key input (Feasibility).
    pub invalid_input: bool,
    /// Unsupported multimodal request (Feasibility).
    pub multimodal: bool,
    /// Rich context present (Contextualization).
    pub has_context: bool,
}

impl InstructionAnalysis {
    /// Number of basic-level flaws.
    pub fn basic_flaws(&self) -> u32 {
        self.readability_flaws
            + self.layout_flaws
            + u32::from(self.vague)
            + u32::from(self.infeasible)
            + u32::from(self.invalid_input)
            + u32::from(self.multimodal)
    }
}

/// Detected properties of a RESPONSE (relative to its instruction).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ResponseAnalysis {
    /// Unsafe content present (Safety — red line).
    pub unsafe_content: bool,
    /// Fact-table contradiction (Correctness).
    pub fact_errors: u32,
    /// Off-topic relative to the instruction (Relevance).
    pub irrelevant: bool,
    /// Truncated mid-thought (Comprehensiveness).
    pub truncated: bool,
    /// Thin: short and unexplained (Comprehensiveness).
    pub thin: bool,
    /// Misspellings/grammar errors (advanced Readability).
    pub readability_flaws: u32,
    /// Layout problems (advanced Readability).
    pub layout_flaws: u32,
    /// Degenerate artefacts: template leak, stutter (advanced Readability).
    pub degenerate: bool,
    /// Machine-boilerplate tone (anti-Humanization).
    pub machine_tone: bool,
    /// Warmth markers present (Humanization).
    pub warm: bool,
    /// Reasoning/explanation present (Richness).
    pub reasoned: bool,
    /// Concrete example present (Richness).
    pub has_example: bool,
    /// Response word count.
    pub words: usize,
}

impl ResponseAnalysis {
    /// Number of basic-level flaws.
    pub fn basic_flaws(&self) -> u32 {
        self.fact_errors
            + u32::from(self.irrelevant)
            + u32::from(self.truncated)
            + u32::from(self.thin)
    }

    /// Richness in [0, 1]: reasoning, example, and substance. The grading
    /// is deliberately demanding — the full point needs explicit reasoning
    /// *and* a concrete example *and* real length, which is what separates
    /// the Fig 4 ">4.5" band from merely adequate answers.
    pub fn richness(&self) -> f64 {
        let mut r = 0.0;
        if self.reasoned {
            r += 0.35;
        }
        if self.has_example {
            r += 0.35;
        }
        if self.words >= 55 {
            r += 0.3;
        } else if self.words >= 30 {
            r += 0.1;
        }
        r
    }

    /// Advanced readability satisfied?
    pub fn readable(&self) -> bool {
        self.readability_flaws == 0 && self.layout_flaws == 0 && !self.degenerate
    }

    /// Humanization in [0, 1].
    pub fn humanization(&self) -> f64 {
        match (self.warm, self.machine_tone) {
            (true, false) => 1.0,
            (true, true) => 0.4,
            (false, false) => 0.5,
            (false, true) => 0.0,
        }
    }
}

/// Scores for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PairScores {
    /// Instruction score, 0–100.
    pub instruction: f64,
    /// Response score, 0–100.
    pub response: f64,
}

/// The criteria engine. Stateless; construct once and reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct CriteriaEngine;

/// Word count below which an unexplained response counts as thin. Bare
/// single-sentence answers run 8–17 words; a minimal two-sentence adequate
/// answer runs 18+.
const THIN_WORDS: usize = 18;

impl CriteriaEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self
    }

    /// Analyses an instruction.
    pub fn analyze_instruction(&self, instruction: &str) -> InstructionAnalysis {
        self.instruction_from(&TextProfile::new(instruction))
    }

    /// Analyses an instruction from its profile.
    pub fn instruction_from(&self, profile: &TextProfile) -> InstructionAnalysis {
        let lexicon = profile.lexicon();
        InstructionAnalysis {
            readability_flaws: lexicon.misspellings(),
            layout_flaws: count_layout_flaws(profile),
            vague: lexicon.has_marker(MarkerList::Vague),
            infeasible: lexicon.has_marker(MarkerList::Infeasible) || profile.is_blank(),
            invalid_input: lexicon.has_marker(MarkerList::InvalidInput),
            multimodal: lexicon.has_marker(MarkerList::Multimodal),
            has_context: lexicon.has_marker(MarkerList::Context),
        }
    }

    /// Analyses a response against its instruction.
    pub fn analyze_response(&self, instruction: &str, response: &str) -> ResponseAnalysis {
        self.response_from(
            &Topic::new(instruction),
            response,
            &TextProfile::new(response),
        )
    }

    /// Analyses `response`, whose profile is `profile`, against the topic of
    /// its instruction. Only relevance reads the response text again: the
    /// scan for a topic word depends on the instruction.
    pub fn response_from(
        &self,
        topic: &Topic,
        response: &str,
        profile: &TextProfile,
    ) -> ResponseAnalysis {
        let lexicon = profile.lexicon();
        let rich = richness_signals(profile);
        let template_leak = matches!(
            profile.validity(),
            clean::Validity::TemplateLeak | clean::Validity::Degenerate
        );
        ResponseAnalysis {
            unsafe_content: lexicon.has_marker(MarkerList::Unsafe),
            fact_errors: lexicon.fact_errors(),
            irrelevant: topic.missed_by(response),
            truncated: is_truncated(profile),
            thin: rich.words < THIN_WORDS && !rich.reasoned,
            readability_flaws: lexicon.misspellings(),
            layout_flaws: count_layout_flaws(profile),
            degenerate: template_leak
                || profile.has_invalid_chars()
                || profile.cleaned_len() < profile.len().saturating_sub(2),
            machine_tone: lexicon.has_marker(MarkerList::MachineTone),
            warm: lexicon.has_marker(MarkerList::Warm),
            ..rich
        }
    }

    /// `(richness, words)` of a response: [`ResponseAnalysis::richness`]
    /// and [`ResponseAnalysis::words`] of
    /// [`analyze_response`](Self::analyze_response).
    pub fn response_richness(&self, response: &str) -> (f64, usize) {
        self.richness_from(&TextProfile::new(response))
    }

    /// [`response_richness`](Self::response_richness) from the response's
    /// profile.
    pub fn richness_from(&self, profile: &TextProfile) -> (f64, usize) {
        let rich = richness_signals(profile);
        (rich.richness(), rich.words)
    }

    /// Scores an instruction per the Table II level structure.
    pub fn score_instruction(&self, a: &InstructionAnalysis) -> f64 {
        let basic = a.basic_flaws();
        if basic > 0 {
            // Basic flaws cap at 80 and each costs points; hard feasibility
            // problems (infeasible/invalid/multimodal) cost more.
            let hard =
                u32::from(a.infeasible) + u32::from(a.invalid_input) + u32::from(a.multimodal);
            let soft = basic - hard;
            (80.0 - 14.0 * hard as f64 - 7.0 * soft as f64).max(35.0)
        } else {
            // Advanced range: context quality spreads 80–100.
            if a.has_context {
                96.0
            } else {
                84.0
            }
        }
    }

    /// Scores a response per the Table II level structure.
    pub fn score_response(&self, a: &ResponseAnalysis) -> f64 {
        if a.unsafe_content {
            // Red line: 0–40, graded by how much else survives.
            let salvage = (1.0 - a.basic_flaws() as f64 * 0.2).clamp(0.0, 1.0);
            return 22.0 + 18.0 * salvage;
        }
        let basic = a.basic_flaws() + a.readability_flaws.min(3) / 2;
        if basic > 0 {
            (80.0 - 11.0 * basic as f64).max(42.0)
        } else {
            // Advanced band 80–100: readability 5, richness 9, humanization 6.
            let adv = 5.0 * f64::from(a.readable()) + 9.0 * a.richness() + 6.0 * a.humanization();
            80.0 + adv.min(20.0)
        }
    }

    /// Full pair scoring.
    pub fn score_pair(&self, instruction: &str, response: &str) -> PairScores {
        let ia = self.analyze_instruction(instruction);
        let ra = self.analyze_response(instruction, response);
        PairScores {
            instruction: self.score_instruction(&ia),
            response: self.score_response(&ra),
        }
    }
}

/// The analysis fields richness reads (reasoning, example, word count);
/// every other field is at its default.
fn richness_signals(profile: &TextProfile) -> ResponseAnalysis {
    ResponseAnalysis {
        reasoned: profile.lexicon().has_marker(MarkerList::Reasoning),
        has_example: profile.lexicon().has_example(),
        words: profile.words(),
        ..ResponseAnalysis::default()
    }
}

/// Counts layout problems of the trimmed text: doubled spaces, space
/// before punctuation, a lowercase start, no terminal punctuation.
fn count_layout_flaws(profile: &TextProfile) -> u32 {
    if profile.is_blank() {
        return 0;
    }
    u32::from(profile.has_double_space())
        + u32::from(profile.has_space_before_punct())
        + u32::from(profile.first_char().is_some_and(char::is_lowercase))
        + u32::from(profile.last_char().is_some_and(char::is_alphanumeric))
}

/// Truncation shape: trailing ellipsis or a dangling non-terminal ending.
fn is_truncated(profile: &TextProfile) -> bool {
    profile.ends_with_ellipsis() || matches!(profile.last_char(), Some(',' | ';'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testtext;
    use coachlm_data::generator::{generate, GeneratorConfig};
    use coachlm_text::lexicon::LexiconHits;
    use coachlm_text::{lexicon, normalize, token};
    use rand::Rng;

    /// The rubric as it was before it read text profiles, verbatim: one
    /// fold per analysed text, one substring search per marker, fact and
    /// grammar form, and separate walks for the word count, the degenerate
    /// test, layout and relevance.
    mod reference {
        use super::super::{InstructionAnalysis, ResponseAnalysis, THIN_WORDS};
        use coachlm_text::{clean, lexicon, normalize, token};

        pub fn analyze_instruction(instruction: &str) -> InstructionAnalysis {
            // One fold serves every case-insensitive check.
            let folded = normalize::fold_case(instruction);
            let marked = |markers: &[&str]| lexicon::contains_folded_marker(&folded, markers);
            let mut a = InstructionAnalysis {
                readability_flaws: count_misspellings(&folded),
                layout_flaws: count_layout_flaws(instruction),
                vague: marked(lexicon::VAGUE_PHRASES),
                infeasible: marked(lexicon::INFEASIBLE_PHRASES),
                invalid_input: marked(lexicon::INVALID_INPUT_MARKERS),
                multimodal: marked(lexicon::MULTIMODAL_MARKERS),
                has_context: marked(lexicon::CONTEXT_MARKERS),
            };
            if instruction.trim().is_empty() {
                a.infeasible = true;
            }
            a
        }

        pub fn analyze_response(instruction: &str, response: &str) -> ResponseAnalysis {
            // One fold serves every case-insensitive check.
            let folded = normalize::fold_case(response);
            let marked = |markers: &[&str]| lexicon::contains_folded_marker(&folded, markers);
            let rich = richness_signals(&folded, response);
            let template_leak = matches!(
                clean::validate_pair("x", response),
                clean::Validity::TemplateLeak | clean::Validity::Degenerate
            );
            ResponseAnalysis {
                unsafe_content: marked(lexicon::UNSAFE_MARKERS),
                fact_errors: count_fact_errors(&folded),
                irrelevant: lexicon::is_off_topic(instruction, response),
                truncated: is_truncated(response),
                thin: rich.words < THIN_WORDS && !rich.reasoned,
                readability_flaws: count_misspellings(&folded),
                layout_flaws: count_layout_flaws(response),
                // The cleaned text is only measured, never built.
                degenerate: template_leak
                    || clean::has_invalid_chars(response)
                    || clean::cleaned_len(response) < response.len().saturating_sub(2),
                machine_tone: marked(lexicon::MACHINE_TONE_MARKERS),
                warm: marked(lexicon::WARM_MARKERS),
                ..rich
            }
        }

        pub fn response_richness(response: &str) -> (f64, usize) {
            let rich = richness_signals(&normalize::fold_case(response), response);
            (rich.richness(), rich.words)
        }

        fn richness_signals(folded: &str, response: &str) -> ResponseAnalysis {
            ResponseAnalysis {
                reasoned: lexicon::contains_folded_marker(folded, lexicon::REASONING_MARKERS),
                has_example: folded.contains("for example"),
                words: token::word_count(response),
                ..ResponseAnalysis::default()
            }
        }

        pub fn count_misspellings(folded: &str) -> u32 {
            let mut found = 0u64;
            for run in folded.split(|c: char| !c.is_ascii_alphanumeric()) {
                if let Some(i) = lexicon::typo_index(run) {
                    found |= 1 << i;
                }
            }
            let grammar = lexicon::GRAMMAR_PAIRS
                .iter()
                .filter(|(wrong, _)| folded.contains(wrong))
                .count();
            found.count_ones() + grammar as u32
        }

        pub fn count_layout_flaws(text: &str) -> u32 {
            let t = text.trim();
            if t.is_empty() {
                return 0;
            }
            let mut n = 0u32;
            if t.contains("  ") {
                n += 1;
            }
            if t.contains(" .") || t.contains(" ,") || t.contains(" !") || t.contains(" ?") {
                n += 1;
            }
            if t.chars().next().is_some_and(|c| c.is_lowercase()) {
                n += 1;
            }
            if t.chars().last().is_some_and(|c| c.is_alphanumeric()) {
                n += 1;
            }
            n
        }

        pub fn count_fact_errors(folded: &str) -> u32 {
            lexicon::folded_facts()
                .iter()
                .filter(|(subject, wrong)| {
                    folded.contains(subject.as_str()) && folded.contains(wrong.as_str())
                })
                .count() as u32
        }

        pub fn is_truncated(text: &str) -> bool {
            let t = text.trim_end();
            if t.is_empty() {
                return false;
            }
            t.ends_with("...") || t.chars().last().is_some_and(|c| c == ',' || c == ';')
        }
    }

    /// The word-boundary misspelling count the run-based one replaced,
    /// verbatim: one substring scan per typo form.
    fn reference_count_misspellings(text: &str) -> u32 {
        let folded = normalize::fold_case(text);
        let mut n = 0u32;
        for (wrong, _) in lexicon::TYPO_PAIRS {
            if reference_contains_word(&folded, wrong) {
                n += 1;
            }
        }
        for (wrong, _) in lexicon::GRAMMAR_PAIRS {
            if folded.contains(wrong) {
                n += 1;
            }
        }
        n
    }

    /// Word-boundary containment on already-folded text.
    fn reference_contains_word(folded: &str, word: &str) -> bool {
        let bytes = folded.as_bytes();
        let mut start = 0;
        while let Some(rel) = folded[start..].find(word) {
            let pos = start + rel;
            let end = pos + word.len();
            let before_ok = pos == 0 || !bytes[pos - 1].is_ascii_alphanumeric();
            let after_ok = end >= folded.len() || !bytes[end].is_ascii_alphanumeric();
            if before_ok && after_ok {
                return true;
            }
            start = end;
        }
        false
    }

    /// The fact count that folded every fact on every call.
    fn reference_count_fact_errors(text: &str) -> u32 {
        let folded = normalize::fold_case(text);
        lexicon::FACT_TABLE
            .iter()
            .filter(|(subject, _, wrong)| {
                folded.contains(&normalize::fold_case(subject))
                    && folded.contains(&normalize::fold_case(wrong))
            })
            .count() as u32
    }

    /// Typo forms, grammar errors and fact fragments glued to letters,
    /// digits, punctuation and UTF-8, so word boundaries fall anywhere.
    const PIECES: &[&str] = &[
        "teh",
        "TEH",
        "Teh",
        "thier",
        "alot",
        "a lot",
        "untill",
        "until",
        "tommorow",
        "nowlege",
        "could of",
        "COULD OF",
        "he don't",
        "less people",
        "x",
        "9",
        "_",
        "'",
        "-",
        ".",
        ",",
        " ",
        " ",
        "  ",
        "\n",
        "é",
        "É",
        "中",
        "\u{212A}",
        "ς",
        "ΑΣ",
        "Berlin",
        "BERLIN",
        "the capital of France is",
        "Paris",
        "2 plus 2 equals",
        "5",
    ];

    #[test]
    fn shared_fold_kernels_match_the_reference_scans() {
        let mut texts: Vec<String> = Vec::new();
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("shared_fold_kernels_match_the_reference_scans", case);
            let n = rng.gen_range(0..80);
            texts.push(
                (0..n)
                    .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                    .collect(),
            );
        }
        let (generated, _) = generate(&GeneratorConfig::small(400, 5));
        for pair in generated.iter() {
            texts.push(pair.instruction.clone());
            texts.push(pair.response.clone());
            // The early-exit relevance scan agrees with the full overlap.
            assert_eq!(
                lexicon::is_off_topic(&pair.instruction, &pair.response),
                lexicon::content_overlap(&pair.instruction, &pair.response) <= 0.0,
                "{pair:?}"
            );
        }
        for text in &texts {
            let folded = normalize::fold_case(text);
            let hits = LexiconHits::of_folded(&folded);
            let misspellings = reference_count_misspellings(text);
            assert_eq!(hits.misspellings(), misspellings, "{text:?}");
            assert_eq!(reference::count_misspellings(&folded), misspellings);
            let fact_errors = reference_count_fact_errors(text);
            assert_eq!(hits.fact_errors(), fact_errors, "{text:?}");
            assert_eq!(reference::count_fact_errors(&folded), fact_errors);
        }
    }

    /// `analyze_response` as it was before the cleaned text was measured
    /// instead of built, verbatim.
    fn reference_analyze_response(instruction: &str, response: &str) -> ResponseAnalysis {
        let folded = normalize::fold_case(response);
        let marked = |markers: &[&str]| lexicon::contains_folded_marker(&folded, markers);
        let words = token::word_count(response);
        let reasoned = marked(lexicon::REASONING_MARKERS);
        let cleaned = clean::clean_output(response);
        let template_leak = matches!(
            clean::validate_pair("x", response),
            clean::Validity::TemplateLeak | clean::Validity::Degenerate
        );
        let invalid_chars = response
            .chars()
            .any(|c| (c.is_control() && c != '\n' && c != '\t') || c == '\u{FFFD}');
        ResponseAnalysis {
            unsafe_content: marked(lexicon::UNSAFE_MARKERS),
            fact_errors: reference::count_fact_errors(&folded),
            irrelevant: lexicon::is_off_topic(instruction, response),
            truncated: reference::is_truncated(response),
            thin: words < THIN_WORDS && !reasoned,
            readability_flaws: reference::count_misspellings(&folded),
            layout_flaws: reference::count_layout_flaws(response),
            degenerate: template_leak
                || invalid_chars
                || cleaned.len() < response.len().saturating_sub(2),
            machine_tone: marked(lexicon::MACHINE_TONE_MARKERS),
            warm: marked(lexicon::WARM_MARKERS),
            reasoned,
            has_example: folded.contains("for example"),
            words,
        }
    }

    /// Fragments aimed at the degenerate and richness checks: Unicode
    /// whitespace, controls, U+FFFD, stutters, repeated tails, markers.
    const RUBRIC_PIECES: &[&str] = &[
        " ",
        " ",
        "\t",
        "\n",
        "\x0B",
        "\r\n",
        "\u{85}",
        "\u{A0}",
        "\u{2003}",
        "\u{3000}",
        "\u{0}",
        "\u{1F}",
        "\u{7F}",
        "\u{9F}",
        "\u{FFFD}",
        "\u{212A}",
        "é",
        "word",
        "because",
        "For Example",
        "for example,",
        "3.14",
        "don't",
        "very very very",
        "the end.the end.the end.",
        "### Response:",
        ".",
        ",",
        "...",
    ];

    #[test]
    fn measured_rubric_matches_the_reference() {
        let e = CriteriaEngine::new();
        let mut pairs: Vec<(String, String)> = Vec::new();
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("measured_rubric_matches_the_reference", case);
            let text = |rng: &mut rand::rngs::StdRng, pieces: &[&str], max: usize| -> String {
                (0..rng.gen_range(0..max))
                    .map(|_| pieces[rng.gen_range(0..pieces.len())])
                    .collect()
            };
            let instruction = text(&mut rng, PIECES, 12);
            let mut response = text(&mut rng, RUBRIC_PIECES, 60);
            response.push_str(&text(&mut rng, PIECES, 40));
            pairs.push((instruction, response));
        }
        let (generated, _) = generate(&GeneratorConfig::small(400, 5));
        for pair in generated.iter() {
            pairs.push((pair.instruction.clone(), pair.response.clone()));
        }
        for (instruction, response) in &pairs {
            let a = e.analyze_response(instruction, response);
            assert_eq!(
                a,
                reference_analyze_response(instruction, response),
                "{instruction:?} / {response:?}"
            );
            let (richness, words) = e.response_richness(response);
            assert_eq!(richness.to_bits(), a.richness().to_bits(), "{response:?}");
            assert_eq!(words, a.words, "{response:?}");
        }
    }

    /// Markers that overlap or nest, within a list and across lists ("for
    /// example" and "step by step" are both context and reasoning markers,
    /// "5" is a wrong value inside the wrong value "50 degrees celsius"),
    /// chars whose fold changes length or depends on context (the Kelvin
    /// sign, `İ`, a final sigma), and the built-in marker that is not
    /// stored folded.
    const MARKER_PIECES: &[&str] = &[
        "for example",
        "FOR EXAMPLE",
        "for examplee",
        "step by step",
        "Step By Step",
        "before I finish typing this",
        "BEFORE I FINISH TYPING THIS",
        "before i finish typing this",
        "50 degrees Celsius",
        "water boils at",
        "2 plus 2 equals",
        "5",
        "The capital of France is Berlin",
        "as an ai language model",
        "As a large language model",
        "you are",
        "imagine",
        "such as",
        "happy to help",
        "hope this helps",
        "thank you",
        "without consulting a doctor",
        "(photo of",
        "[see above]",
        "<insert text here>",
        "icd-10 code",
        "rewrite every verse",
        "do something about it",
        "using exactly zero words",
        "could of",
        "he don't",
        "is consist of",
        "teh",
        "Thier",
        "because",
        "therefore",
        "in summary",
        "\u{212A}",
        "\u{212A}ey",
        "İ",
        "İstanbul",
        "ΟΔΟΣ",
        "ΑΣ",
        "ς",
        "ß",
        "water",
        "gravity",
    ];
    /// What separates two pieces; the empty gap glues them together.
    const GAPS: &[&str] = &[" ", " ", "", "\n", ". ", ", ", "  "];

    /// Up to `max` pieces, each a marker piece or a `testtext` fragment.
    fn marker_text(rng: &mut rand::rngs::StdRng, max: usize) -> String {
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..=max) {
            if rng.gen_bool(0.5) {
                text.push_str(MARKER_PIECES[rng.gen_range(0..MARKER_PIECES.len())]);
            } else {
                text.push_str(&testtext::mixed_text(rng, 3));
            }
            text.push_str(GAPS[rng.gen_range(0..GAPS.len())]);
        }
        text
    }

    #[test]
    fn profiled_rubric_matches_the_reference() {
        let e = CriteriaEngine::new();
        let mut pairs: Vec<(String, String)> = Vec::new();
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("profiled_rubric_matches_the_reference", case);
            let instruction = marker_text(&mut rng, 12);
            pairs.push((instruction, marker_text(&mut rng, 60)));
        }
        let texts = testtext::inputs("profiled_rubric_matches_the_reference");
        for (i, text) in texts.iter().enumerate() {
            pairs.push((texts[i / 2].clone(), text.clone()));
        }
        let (generated, _) = generate(&GeneratorConfig::small(400, 5));
        for pair in generated.iter() {
            pairs.push((pair.instruction.clone(), pair.response.clone()));
        }
        for (instruction, response) in &pairs {
            let want = reference::analyze_instruction(instruction);
            assert_eq!(e.analyze_instruction(instruction), want, "{instruction:?}");
            let ip = TextProfile::new(instruction);
            assert_eq!(e.instruction_from(&ip), want, "{instruction:?}");
            let want = reference::analyze_response(instruction, response);
            assert_eq!(
                e.analyze_response(instruction, response),
                want,
                "{instruction:?} / {response:?}"
            );
            let rp = TextProfile::new(response);
            assert_eq!(
                e.response_from(&Topic::new(instruction), response, &rp),
                want,
                "{instruction:?} / {response:?}"
            );
            let (richness, words) = reference::response_richness(response);
            for (got, got_words) in [e.response_richness(response), e.richness_from(&rp)] {
                assert_eq!(got.to_bits(), richness.to_bits(), "{response:?}");
                assert_eq!(got_words, words, "{response:?}");
            }
        }
    }

    #[test]
    fn typo_forms_are_ascii_alphanumeric() {
        // The run-based misspelling count is exact only because of this.
        for (wrong, _) in lexicon::TYPO_PAIRS {
            assert!(
                !wrong.is_empty() && wrong.bytes().all(|b| b.is_ascii_alphanumeric()),
                "{wrong:?}"
            );
        }
    }

    const GOOD_INSTR: &str =
        "Explain the water cycle for a middle-school reader. For example, mention rain.";
    const GOOD_RESP: &str =
        "The water cycle moves water through evaporation, condensation, and rain. \
        This happens because the sun heats oceans and lakes, lifting vapor into the air. \
        For example, puddles disappear on a sunny day because the water evaporates. \
        In summary, water constantly circulates between the surface and the sky. \
        I hope this helps; feel free to ask about any step.";

    #[test]
    fn clean_pair_scores_high() {
        let e = CriteriaEngine::new();
        let s = e.score_pair(GOOD_INSTR, GOOD_RESP);
        assert!(s.instruction >= 90.0, "instruction {}", s.instruction);
        assert!(s.response >= 95.0, "response {}", s.response);
    }

    #[test]
    fn unsafe_response_capped_at_40() {
        let e = CriteriaEngine::new();
        let resp = format!("{GOOD_RESP} Also, guaranteed to double your investment overnight.");
        let s = e.score_pair(GOOD_INSTR, &resp);
        assert!(s.response <= 40.0, "response {}", s.response);
    }

    #[test]
    fn basic_flaws_cap_response_at_80() {
        let e = CriteriaEngine::new();
        // Thin response: one short unexplained sentence.
        let s = e.score_pair(
            "Explain the tides in the ocean",
            "The moon pulls ocean water.",
        );
        assert!(s.response < 80.0, "response {}", s.response);
        assert!(s.response >= 42.0);
    }

    #[test]
    fn fact_error_detected_and_penalised() {
        let e = CriteriaEngine::new();
        let resp = format!("{GOOD_RESP} Remember that the capital of France is Berlin.");
        let a = e.analyze_response(GOOD_INSTR, &resp);
        assert_eq!(a.fact_errors, 1);
        assert!(e.score_response(&a) < 80.0);
    }

    #[test]
    fn corrected_fact_not_penalised() {
        let e = CriteriaEngine::new();
        let resp = format!("{GOOD_RESP} Remember that the capital of France is Paris.");
        assert_eq!(e.analyze_response(GOOD_INSTR, &resp).fact_errors, 0);
    }

    #[test]
    fn irrelevance_detected_via_overlap() {
        let e = CriteriaEngine::new();
        let a = e.analyze_response(
            "Describe the climate of the Sahara desert",
            "Bananas are yellow fruits that taste sweet when ripe and soft.",
        );
        assert!(a.irrelevant);
    }

    #[test]
    fn truncation_detected() {
        let e = CriteriaEngine::new();
        assert!(
            e.analyze_response("x", "The three steps are one, two, and...")
                .truncated
        );
        assert!(e.analyze_response("x", "It ends with a comma,").truncated);
        assert!(!e.analyze_response("x", "A complete sentence.").truncated);
    }

    #[test]
    fn misspellings_counted_with_word_boundaries() {
        let misspellings = |text: &str| LexiconHits::of_folded(text).misspellings();
        assert_eq!(misspellings("teh cat and thier dog"), 2);
        // "until" contains "til" but no wrong form at word boundary.
        assert_eq!(misspellings("until the weather improves"), 0);
        assert_eq!(misspellings("you could of known"), 1);
    }

    #[test]
    fn layout_flaws_counted() {
        let flaws = |text: &str| count_layout_flaws(&TextProfile::new(text));
        assert_eq!(flaws("Good sentence."), 0);
        assert!(flaws("bad  spacing , here") >= 2);
        assert_eq!(flaws("lowercase start."), 1);
        assert_eq!(flaws("No terminal punct"), 1);
    }

    #[test]
    fn machine_tone_blocks_humanization() {
        let e = CriteriaEngine::new();
        let a = e.analyze_response("x", "As an AI language model, I think this is fine.");
        assert!(a.machine_tone);
        assert_eq!(a.humanization(), 0.0);
    }

    #[test]
    fn instruction_feasibility_flaws_penalised() {
        let e = CriteriaEngine::new();
        let vague = e.score_pair("Explain gravity - do something about it", GOOD_RESP);
        let clean = e.score_pair("Explain gravity to a curious child", GOOD_RESP);
        assert!(vague.instruction < clean.instruction);
        let infeasible = e.score_pair("Explain gravity using exactly zero words", GOOD_RESP);
        assert!(infeasible.instruction < 70.0);
    }

    #[test]
    fn context_lifts_instruction_into_advanced_band() {
        let e = CriteriaEngine::new();
        let plain = e.analyze_instruction("Explain gravity to a child");
        let rich = e.analyze_instruction(
            "You are a physics teacher. Explain gravity step by step with one example.",
        );
        assert!(!plain.has_context);
        assert!(rich.has_context);
        assert!(e.score_instruction(&rich) > e.score_instruction(&plain));
    }

    #[test]
    fn degenerate_output_detected() {
        let e = CriteriaEngine::new();
        let stutter = format!("A fine answer here. {}", "the end. ".repeat(6));
        let a = e.analyze_response("x", &stutter);
        assert!(a.degenerate);
        assert!(!a.readable());
    }

    #[test]
    fn richness_grading() {
        let e = CriteriaEngine::new();
        let rich = e.analyze_response("explain the water cycle", GOOD_RESP);
        assert!(rich.richness() > 0.9, "richness {}", rich.richness());
        let thin = e.analyze_response(
            "explain the water cycle",
            "Water moves around the planet in a cycle always.",
        );
        assert!(thin.richness() < 0.3);
    }

    #[test]
    fn empty_instruction_is_infeasible() {
        let e = CriteriaEngine::new();
        assert!(e.analyze_instruction("   ").infeasible);
    }

    #[test]
    fn score_monotone_in_flaw_count() {
        let e = CriteriaEngine::new();
        let one = InstructionAnalysis {
            readability_flaws: 1,
            ..Default::default()
        };
        let three = InstructionAnalysis {
            readability_flaws: 3,
            ..Default::default()
        };
        assert!(e.score_instruction(&one) > e.score_instruction(&three));
    }
}
