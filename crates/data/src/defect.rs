//! The defect taxonomy and textual injectors.
//!
//! Every deficiency the paper's experts found (Tables II–IV) is modelled as
//! a *textual* transformation: injection plants real surface forms that the
//! criteria engine can later detect and the revision models can repair. No
//! component downstream of the generator reads defect labels — the labels
//! exist only as provenance for calibration tests.

use coachlm_text::lexicon;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Where a defect manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DefectSide {
    /// Revisable, on the instruction text.
    Instruction,
    /// Revisable, on the response text.
    Response,
    /// Grounds for preliminary filtering (Table III), on the pair.
    Filter,
}

/// A quality defect that can be planted in an instruction pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Defect {
    /// Misspellings/grammar errors in the instruction (Readability).
    InstructionTypos,
    /// Sloppy layout in the instruction: casing, spacing (Readability).
    InstructionLayout,
    /// Vague, ambiguous instruction (Feasibility).
    VagueInstruction,
    /// Logically infeasible requirement (Feasibility).
    InfeasibleInstruction,
    /// Misspellings/grammar errors in the response (Readability).
    ResponseTypos,
    /// Sloppy layout in the response (Readability).
    ResponseLayout,
    /// Response cut off mid-thought (Comprehensiveness).
    TruncatedResponse,
    /// Response about a different topic (Relevance).
    IrrelevantResponse,
    /// Bare, unexplained response (Comprehensiveness/Richness).
    BareResponse,
    /// Factual corruption in the response (Correctness).
    FactError,
    /// Unsafe advice in the response (Safety — revisable, Table IV "1.9%").
    UnsafeResponse,
    /// Robotic boilerplate tone (Humanization).
    MachineTone,
    /// Invalid characters / template leakage (the Alpaca-cleaned class).
    FormatJunk,
    /// Key input content missing or placeholder (Table III, 41.7%).
    InvalidInput,
    /// Overly professional scene (Table III, 27.7%).
    BeyondExpertise,
    /// Massive creative rewriting workload (Table III, 8.2%).
    MassiveWorkload,
    /// Unsupported multimodal content (Table III, 6.5%).
    MultiModal,
    /// Overly toxic/sensitive request (Table III "Safety", 15.9%).
    ToxicRequest,
}

impl Defect {
    /// Which side the defect lives on.
    pub fn side(self) -> DefectSide {
        use Defect::*;
        match self {
            InstructionTypos | InstructionLayout | VagueInstruction | InfeasibleInstruction => {
                DefectSide::Instruction
            }
            ResponseTypos | ResponseLayout | TruncatedResponse | IrrelevantResponse
            | BareResponse | FactError | UnsafeResponse | MachineTone | FormatJunk => {
                DefectSide::Response
            }
            InvalidInput | BeyondExpertise | MassiveWorkload | MultiModal | ToxicRequest => {
                DefectSide::Filter
            }
        }
    }

    /// All revisable defects.
    pub fn revisable() -> impl Iterator<Item = Defect> {
        use Defect::*;
        [
            InstructionTypos,
            InstructionLayout,
            VagueInstruction,
            InfeasibleInstruction,
            ResponseTypos,
            ResponseLayout,
            TruncatedResponse,
            IrrelevantResponse,
            BareResponse,
            FactError,
            UnsafeResponse,
            MachineTone,
            FormatJunk,
        ]
        .into_iter()
    }

    /// Applies this defect to `(instruction, response)` in place.
    pub fn inject<R: Rng>(self, rng: &mut R, instruction: &mut String, response: &mut String) {
        match self {
            Defect::InstructionTypos => inject_typos(rng, instruction),
            Defect::InstructionLayout => inject_layout_noise(rng, instruction),
            Defect::VagueInstruction => {
                let vague = lexicon::VAGUE_PHRASES[rng.gen_range(0..lexicon::VAGUE_PHRASES.len())];
                // Keep the topic words so a clarifying rewrite is possible.
                *instruction = format!("{} - {vague}", instruction.trim_end_matches('.'));
            }
            Defect::InfeasibleInstruction => {
                let inf = lexicon::INFEASIBLE_PHRASES
                    [rng.gen_range(0..lexicon::INFEASIBLE_PHRASES.len())];
                *instruction = format!("{} {inf}", instruction.trim_end_matches('.'));
            }
            Defect::ResponseTypos => inject_typos(rng, response),
            Defect::ResponseLayout => inject_layout_noise(rng, response),
            Defect::TruncatedResponse => {
                let words: Vec<&str> = response.split_whitespace().collect();
                if words.len() > 6 {
                    let keep = words.len() * 55 / 100;
                    let mut cut = words[..keep.max(4)].join(" ");
                    if rng.gen_bool(0.5) {
                        cut.push_str("...");
                    }
                    *response = cut;
                }
            }
            Defect::IrrelevantResponse => {
                // Replace with prose about a different topic.
                let topic = crate::topics::pick_topic(rng);
                let templates = crate::topics::body_templates(topic.domain);
                let t = templates[rng.gen_range(0..templates.len())];
                *response = capitalize(&t.replace("{}", topic.phrase));
            }
            Defect::BareResponse => {
                // Keep only the first sentence: a correct but thin answer.
                let sents = coachlm_text::token::sentences(response);
                if let Some(first) = sents.first() {
                    *response = (*first).to_string();
                }
            }
            Defect::FactError => {
                let (subject, _, wrong) =
                    lexicon::FACT_TABLE[rng.gen_range(0..lexicon::FACT_TABLE.len())];
                response.push_str(&format!(" Remember that {subject} {wrong}."));
            }
            Defect::UnsafeResponse => {
                let m = lexicon::UNSAFE_MARKERS[rng.gen_range(0..lexicon::UNSAFE_MARKERS.len())];
                response.push_str(&format!(" Also, {m}."));
            }
            Defect::MachineTone => {
                *response = format!("As an AI language model, {}", lowercase_first(response));
            }
            Defect::FormatJunk => match rng.gen_range(0..3) {
                0 => *response = format!("### Response: {response}"),
                1 => {
                    let pos = response.len() / 2;
                    let pos = (0..=pos)
                        .rev()
                        .find(|&i| response.is_char_boundary(i))
                        .unwrap_or(0);
                    response.insert(pos, '\u{0}');
                }
                _ => {
                    let tail: String = response
                        .split_whitespace()
                        .take(3)
                        .collect::<Vec<_>>()
                        .join(" ");
                    response.push_str(&format!(" {}", format!("{tail} ").repeat(5).trim_end()));
                }
            },
            Defect::InvalidInput => {
                let m = lexicon::INVALID_INPUT_MARKERS
                    [rng.gen_range(0..lexicon::INVALID_INPUT_MARKERS.len())];
                instruction.push_str(&format!(" Input: {m}"));
            }
            Defect::BeyondExpertise => {
                let m =
                    lexicon::EXPERTISE_MARKERS[rng.gen_range(0..lexicon::EXPERTISE_MARKERS.len())];
                *instruction = format!("Provide the {m} the following piece requires.");
            }
            Defect::MassiveWorkload => {
                let m =
                    lexicon::WORKLOAD_MARKERS[rng.gen_range(0..lexicon::WORKLOAD_MARKERS.len())];
                *instruction = format!("Please {m} keeping every rhyme intact.");
            }
            Defect::MultiModal => {
                let m = lexicon::MULTIMODAL_MARKERS
                    [rng.gen_range(0..lexicon::MULTIMODAL_MARKERS.len())];
                instruction.push_str(&format!(" Input: {m} a grocery store)."));
            }
            Defect::ToxicRequest => {
                let m = lexicon::UNSAFE_MARKERS[rng.gen_range(0..lexicon::UNSAFE_MARKERS.len())];
                *instruction = format!("Explain {m} in detail.");
            }
        }
    }
}

/// Corrupts 1–3 correct word forms into their misspelled variants; falls
/// back to appending a misspelled tail when no corruptible word is present.
fn inject_typos<R: Rng>(rng: &mut R, text: &mut String) {
    let mut corrupted = 0usize;
    let budget = rng.gen_range(1..=3);
    for (wrong, right) in lexicon::TYPO_PAIRS {
        if corrupted >= budget {
            break;
        }
        // Word-boundary-ish replacement of the first occurrence.
        if let Some(pos) = find_word(text, right) {
            text.replace_range(pos..pos + right.len(), wrong);
            corrupted += 1;
        }
    }
    if corrupted == 0 {
        text.push_str(" This is teh case becuase of the details above.");
    }
}

/// Finds `word` in `text` at word boundaries (case-sensitive, lowercase
/// occurrences only — sentence-initial capitals stay intact so the layout
/// detector has its own signal).
fn find_word(text: &str, word: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut start = 0usize;
    while let Some(rel) = text[start..].find(word) {
        let pos = start + rel;
        let before_ok = pos == 0 || !bytes[pos - 1].is_ascii_alphanumeric();
        let end = pos + word.len();
        let after_ok = end >= text.len() || !bytes[end].is_ascii_alphanumeric();
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + word.len();
    }
    None
}

/// Sloppy layout: doubled spaces, space before punctuation, lowercased
/// sentence start, dropped terminal period.
fn inject_layout_noise<R: Rng>(rng: &mut R, text: &mut String) {
    let mut t = text.clone();
    if rng.gen_bool(0.7) {
        if let Some(pos) = t.find(' ') {
            t.replace_range(pos..pos + 1, "   ");
        }
    }
    if rng.gen_bool(0.6) {
        if let Some(pos) = t.find(['.', ',']) {
            t.insert(pos, ' ');
        }
    }
    if rng.gen_bool(0.6) {
        t = lowercase_first(&t);
    }
    if rng.gen_bool(0.5) && t.ends_with('.') {
        t.pop();
    }
    *text = t;
}

fn lowercase_first(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_lowercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_text::lexicon::{LexiconHits, MarkerList};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base() -> (String, String) {
        (
            "Explain the water cycle because students ask about it.".to_string(),
            "The water cycle moves water through evaporation, clouds, and rain. \
             This happens because the sun heats the oceans."
                .to_string(),
        )
    }

    #[test]
    fn sides_partition_the_taxonomy() {
        let mut counts = std::collections::HashMap::new();
        for d in [
            Defect::InstructionTypos,
            Defect::ResponseTypos,
            Defect::InvalidInput,
            Defect::UnsafeResponse,
            Defect::ToxicRequest,
        ] {
            *counts.entry(d.side()).or_insert(0) += 1;
        }
        assert_eq!(counts[&DefectSide::Instruction], 1);
        assert_eq!(counts[&DefectSide::Response], 2);
        assert_eq!(counts[&DefectSide::Filter], 2);
    }

    #[test]
    fn typo_injection_plants_detectable_forms() {
        let mut rng = StdRng::seed_from_u64(1);
        let (mut i, mut r) = base();
        Defect::InstructionTypos.inject(&mut rng, &mut i, &mut r);
        let has_typo = lexicon::TYPO_PAIRS
            .iter()
            .any(|(wrong, _)| i.contains(wrong));
        assert!(has_typo, "no typo planted in: {i}");
    }

    #[test]
    fn typo_injection_falls_back_when_nothing_corruptible() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut i = "Add 2 and 3".to_string();
        let mut r = String::new();
        Defect::InstructionTypos.inject(&mut rng, &mut i, &mut r);
        assert!(i.contains("teh") || i.contains("becuase"), "{i}");
    }

    #[test]
    fn vague_injection_keeps_topic_words() {
        let mut rng = StdRng::seed_from_u64(3);
        let (mut i, mut r) = base();
        Defect::VagueInstruction.inject(&mut rng, &mut i, &mut r);
        assert!(LexiconHits::of(&i).has_marker(MarkerList::Vague));
        assert!(i.to_lowercase().contains("water cycle"));
    }

    #[test]
    fn truncation_shortens_and_marks() {
        let mut rng = StdRng::seed_from_u64(4);
        let (mut i, mut r) = base();
        let before = r.split_whitespace().count();
        Defect::TruncatedResponse.inject(&mut rng, &mut i, &mut r);
        assert!(r.split_whitespace().count() < before);
    }

    #[test]
    fn irrelevant_replacement_changes_topic() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut i, mut r) = base();
        Defect::IrrelevantResponse.inject(&mut rng, &mut i, &mut r);
        let overlap = lexicon::content_overlap(&i, &r);
        assert!(overlap < 0.35, "overlap {overlap}: {r}");
    }

    #[test]
    fn bare_keeps_only_first_sentence() {
        let mut rng = StdRng::seed_from_u64(6);
        let (mut i, mut r) = base();
        Defect::BareResponse.inject(&mut rng, &mut i, &mut r);
        assert_eq!(coachlm_text::token::sentences(&r).len(), 1);
    }

    #[test]
    fn fact_error_plants_contradiction() {
        let mut rng = StdRng::seed_from_u64(7);
        let (mut i, mut r) = base();
        Defect::FactError.inject(&mut rng, &mut i, &mut r);
        let planted = lexicon::FACT_TABLE
            .iter()
            .any(|(s, _, w)| r.contains(s) && r.contains(w));
        assert!(planted, "{r}");
    }

    #[test]
    fn unsafe_and_toxic_plant_markers() {
        let mut rng = StdRng::seed_from_u64(8);
        let (mut i, mut r) = base();
        Defect::UnsafeResponse.inject(&mut rng, &mut i, &mut r);
        assert!(LexiconHits::of(&r).has_marker(MarkerList::Unsafe));
        let (mut i2, mut r2) = base();
        Defect::ToxicRequest.inject(&mut rng, &mut i2, &mut r2);
        assert!(LexiconHits::of(&i2).has_marker(MarkerList::Unsafe));
    }

    #[test]
    fn machine_tone_prepends_boilerplate() {
        let mut rng = StdRng::seed_from_u64(9);
        let (mut i, mut r) = base();
        Defect::MachineTone.inject(&mut rng, &mut i, &mut r);
        assert!(LexiconHits::of(&r).has_marker(MarkerList::MachineTone));
    }

    #[test]
    fn format_junk_variants_are_detectable() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut i, mut r) = base();
            Defect::FormatJunk.inject(&mut rng, &mut i, &mut r);
            let cleaned = coachlm_text::clean::clean_output(&r);
            let leak = matches!(
                coachlm_text::clean::validate_pair(&i, &r),
                coachlm_text::clean::Validity::TemplateLeak
            );
            assert!(leak || cleaned != r, "undetectable junk: {r:?}");
        }
    }

    #[test]
    fn filter_defects_plant_table3_markers() {
        let mut rng = StdRng::seed_from_u64(10);
        let cases = [
            (Defect::InvalidInput, MarkerList::InvalidInput),
            (Defect::BeyondExpertise, MarkerList::Expertise),
            (Defect::MassiveWorkload, MarkerList::Workload),
            (Defect::MultiModal, MarkerList::Multimodal),
        ];
        for (d, list) in cases {
            let (mut i, mut r) = base();
            d.inject(&mut rng, &mut i, &mut r);
            assert!(LexiconHits::of(&i).has_marker(list), "{d:?}: {i}");
        }
    }

    #[test]
    fn layout_noise_is_normalisable() {
        let mut any_changed = false;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut i, mut r) = base();
            let orig = i.clone();
            Defect::InstructionLayout.inject(&mut rng, &mut i, &mut r);
            if i != orig {
                any_changed = true;
                let normalized = coachlm_text::normalize::normalize_layout(&i);
                assert_ne!(normalized, i, "layout noise survived normalisation");
            }
        }
        assert!(any_changed);
    }
}
