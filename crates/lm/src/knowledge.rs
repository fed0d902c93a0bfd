//! The repair knowledge base available to a backbone.
//!
//! §II-F1 of the paper argues that "the requisite knowledge for content
//! revision exists in the pre-training stage of LLMs" and coach tuning only
//! *elicits* it. We model that stored knowledge explicitly: a knowledge base
//! of corrections, templates, and phrases, of which a backbone commands a
//! profile-dependent prefix (its *coverage*). Coach tuning (in
//! `coachlm-core`) then decides **when** to apply which repair — it cannot
//! invent repairs the backbone does not know, which is exactly why stronger
//! backbones yield stronger CoachLMs (Table XI).

use coachlm_text::lexicon::{self, LexiconHits};

/// Expansion templates used to enrich a bare response with reasoning or
/// explanation (Table IV: "Diversify angles… expand the reasoning process",
/// 43.7 % of response revisions). `{}` is the topic slot.
pub const EXPANSION_TEMPLATES: &[&str] = &[
    "Let us break this down step by step to make the reasoning clear.",
    "This is because {} plays the central role in the outcome.",
    "For example, a concrete case of {} makes the idea easier to see.",
    "In summary, the key points above cover the main aspects of {}.",
    "Note that edge cases of {} deserve attention as well.",
    "To add background, {} is commonly discussed in this context.",
    "As a result, the conclusion follows from the facts about {}.",
    "A useful way to remember this is to connect {} with a familiar situation.",
];

/// Clarification templates that turn a vague instruction into a specific
/// one (Table IV: "Rewrite infeasible instructions… confusing and ambiguous
/// part", 24.9 % of instruction revisions). `{}` is the topic slot.
pub const CLARIFY_TEMPLATES: &[&str] = &[
    "Please provide a clear and specific answer about {}.",
    "Explain {} in two or three sentences with one concrete example.",
    "Describe the most important aspects of {} for a general reader.",
    "List the main steps involved in {} in order.",
];

/// Context-enrichment sentences appended to instructions lacking context
/// (Table IV: "Diversify the context; add specific requirements and
/// examples", 7.0 %).
pub const CONTEXT_TEMPLATES: &[&str] = &[
    "For example, you could structure the answer as a short list.",
    "You are a knowledgeable assistant; include at least one concrete example.",
    "Please reason step by step and state any assumptions.",
    "Requirements: keep the answer factual, structured, and under 200 words.",
];

/// Warm closers used to humanise a response's tone (Table IV: "Adjust the
/// tone to be empathetic and personalized").
pub const WARMTH_TEMPLATES: &[&str] = &[
    "I hope this helps; feel free to ask a follow up question.",
    "That is a great question, and the points above cover the essentials.",
    "Happy to help - let me know if you would like more detail.",
];

/// Safe-completion templates replacing unsafe response content.
pub const SAFE_COMPLETION_TEMPLATES: &[&str] = &[
    "I can't help with that part, but here is safe, general information instead.",
    "For safety reasons, please consult a qualified professional about this.",
];

/// A backbone's view of the knowledge base: each list is truncated to the
/// backbone's coverage fraction.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    coverage: f64,
}

impl KnowledgeBase {
    /// Creates a view with the given coverage fraction in `[0, 1]`.
    pub fn with_coverage(coverage: f64) -> Self {
        Self {
            coverage: coverage.clamp(0.0, 1.0),
        }
    }

    /// The coverage fraction.
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    fn take(&self, len: usize) -> usize {
        ((len as f64) * self.coverage).round() as usize
    }

    /// Correction for a misspelled word, if known at this coverage.
    pub fn typo_correction(&self, word: &str) -> Option<&'static str> {
        lexicon::typo_correction(word, self.take(lexicon::TYPO_PAIRS.len()))
    }

    /// The typo pairs known at this coverage: those whose wrong form
    /// [`typo_correction`](Self::typo_correction) corrects.
    pub fn typos(&self) -> &'static [(&'static str, &'static str)] {
        &lexicon::TYPO_PAIRS[..self.take(lexicon::TYPO_PAIRS.len())]
    }

    /// Correction for a multi-word grammar error the walk of a text found
    /// (`hits`), as `(wrong, right)`, if known at this coverage.
    pub fn grammar_correction(&self, hits: &LexiconHits) -> Option<(&'static str, &'static str)> {
        hits.first_grammar(self.take(lexicon::GRAMMAR_PAIRS.len()))
    }

    /// Fact correction: if the walk of a text found (`hits`) a corrupted
    /// fact this backbone knows, returns `(wrong_fragment,
    /// corrected_fragment)`.
    pub fn fact_correction(&self, hits: &LexiconHits) -> Option<(&'static str, &'static str)> {
        let (_, correct, wrong) = hits.first_fact(self.take(lexicon::FACT_TABLE.len()))?;
        Some((wrong, correct))
    }

    /// Expansion templates available at this coverage.
    pub fn expansions(&self) -> &'static [&'static str] {
        &EXPANSION_TEMPLATES[..self.take(EXPANSION_TEMPLATES.len())]
    }

    /// Clarification templates available at this coverage.
    pub fn clarifications(&self) -> &'static [&'static str] {
        &CLARIFY_TEMPLATES[..self.take(CLARIFY_TEMPLATES.len())]
    }

    /// Context-enrichment templates available at this coverage.
    pub fn contexts(&self) -> &'static [&'static str] {
        &CONTEXT_TEMPLATES[..self.take(CONTEXT_TEMPLATES.len())]
    }

    /// Warm closers available at this coverage.
    pub fn warmth(&self) -> &'static [&'static str] {
        &WARMTH_TEMPLATES[..self.take(WARMTH_TEMPLATES.len())]
    }

    /// Safe-completion templates (always fully available — safety
    /// knowledge is front-loaded in every aligned backbone).
    pub fn safe_completions(&self) -> &'static [&'static str] {
        SAFE_COMPLETION_TEMPLATES
    }

    /// Instantiates a template's `{}` slot with `topic`.
    pub fn fill(template: &str, topic: &str) -> String {
        template.replace("{}", topic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coverage_knows_everything() {
        let kb = KnowledgeBase::with_coverage(1.0);
        assert_eq!(kb.typo_correction("teh"), Some("the"));
        assert_eq!(kb.typo_correction("tommorow"), Some("tomorrow"));
        assert_eq!(kb.expansions().len(), EXPANSION_TEMPLATES.len());
    }

    #[test]
    fn low_coverage_knows_a_prefix() {
        let kb = KnowledgeBase::with_coverage(0.1);
        // "teh" is the most common typo — still known.
        assert_eq!(kb.typo_correction("teh"), Some("the"));
        // A tail typo is unknown at 10% coverage.
        assert_eq!(kb.typo_correction("tommorow"), None);
        assert!(kb.expansions().len() < EXPANSION_TEMPLATES.len());
    }

    #[test]
    fn zero_coverage_knows_nothing_but_safety() {
        let kb = KnowledgeBase::with_coverage(0.0);
        assert_eq!(kb.typo_correction("teh"), None);
        assert!(kb.expansions().is_empty());
        assert!(!kb.safe_completions().is_empty());
    }

    #[test]
    fn grammar_correction_matches_phrases() {
        let kb = KnowledgeBase::with_coverage(1.0);
        let hits = LexiconHits::of("You could of asked first");
        assert_eq!(
            kb.grammar_correction(&hits),
            Some(("could of", "could have"))
        );
        let fine = LexiconHits::of("perfectly fine text");
        assert!(kb.grammar_correction(&fine).is_none());
    }

    #[test]
    fn fact_correction_detects_corruption() {
        let kb = KnowledgeBase::with_coverage(1.0);
        let hits = LexiconHits::of("Everyone knows the capital of France is Berlin.");
        assert_eq!(kb.fact_correction(&hits), Some(("Berlin", "Paris")));
        let right = LexiconHits::of("the capital of France is Paris, of course");
        assert!(kb.fact_correction(&right).is_none());
    }

    #[test]
    fn coverage_is_monotone() {
        let weak = KnowledgeBase::with_coverage(0.3);
        let strong = KnowledgeBase::with_coverage(0.9);
        // Every repair the weak backbone knows, the strong one knows too.
        for (wrong, _) in coachlm_text::lexicon::TYPO_PAIRS {
            if weak.typo_correction(wrong).is_some() {
                assert!(strong.typo_correction(wrong).is_some());
            }
        }
        assert!(strong.expansions().len() >= weak.expansions().len());
    }

    #[test]
    fn fill_replaces_slot() {
        assert_eq!(
            KnowledgeBase::fill("All about {} here", "gravity"),
            "All about gravity here"
        );
        assert_eq!(KnowledgeBase::fill("no slot", "x"), "no slot");
    }
}
