//! Backbone model profiles.
//!
//! The paper trains CoachLM from three open backbones (Table XI): LLaMA-7B
//! (a foundation model), ChatGLM-6B, and ChatGLM2-6B (both RL-tuned chat
//! models), observing that stronger backbones yield stronger CoachLMs. Our
//! backbone stand-ins differ along the axes that plausibly cause that
//! ordering: how much pre-training text they saw (corpus fraction → n-gram
//! fluency), how much of the repair knowledge base they command (coverage),
//! and how strong their prior alignment is (RL-tuned models follow the
//! revision instruction more reliably).

use crate::knowledge::KnowledgeBase;
use crate::ngram_model::NgramLm;

/// The identity of a supported backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BackboneKind {
    /// LLaMA-7B: foundation model, no alignment stage.
    Llama7b,
    /// ChatGLM-6B: RL-tuned chat model, first generation.
    ChatGlm6b,
    /// ChatGLM2-6B: RL-tuned chat model, second generation (the paper's
    /// main-experiment backbone, §III-A3).
    ChatGlm2_6b,
}

impl BackboneKind {
    /// All supported kinds, in Table XI order.
    pub const ALL: [BackboneKind; 3] = [
        BackboneKind::Llama7b,
        BackboneKind::ChatGlm6b,
        BackboneKind::ChatGlm2_6b,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            BackboneKind::Llama7b => "LLaMA",
            BackboneKind::ChatGlm6b => "ChatGLM",
            BackboneKind::ChatGlm2_6b => "ChatGLM2",
        }
    }

    /// The static capability profile of this backbone.
    pub fn profile(self) -> BackboneProfile {
        match self {
            BackboneKind::Llama7b => BackboneProfile {
                kind: self,
                params_b: 7.0,
                corpus_fraction: 0.55,
                knowledge_coverage: 0.45,
                alignment_prior: 0.15,
                rl_tuned: false,
            },
            BackboneKind::ChatGlm6b => BackboneProfile {
                kind: self,
                params_b: 6.0,
                corpus_fraction: 0.75,
                knowledge_coverage: 0.70,
                alignment_prior: 0.35,
                rl_tuned: true,
            },
            BackboneKind::ChatGlm2_6b => BackboneProfile {
                kind: self,
                params_b: 6.0,
                corpus_fraction: 1.0,
                knowledge_coverage: 0.90,
                alignment_prior: 0.45,
                rl_tuned: true,
            },
        }
    }
}

/// Static capability numbers for a backbone.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackboneProfile {
    /// Which backbone this profiles.
    pub kind: BackboneKind,
    /// Parameter count in billions (display only).
    pub params_b: f64,
    /// Fraction of the built-in pre-training corpora this backbone saw.
    pub corpus_fraction: f64,
    /// Fraction of the repair knowledge base this backbone commands.
    pub knowledge_coverage: f64,
    /// Probability the backbone follows a revision instruction *before*
    /// any coach tuning (its zero-shot alignment; α = 0 in Fig 5 uses the
    /// raw backbone for revision).
    pub alignment_prior: f64,
    /// Whether the backbone went through an RL alignment pipeline.
    pub rl_tuned: bool,
}

/// An instantiated backbone: profile + trained n-gram LM + knowledge view.
#[derive(Debug)]
pub struct Backbone {
    profile: BackboneProfile,
    lm: NgramLm,
    knowledge: KnowledgeBase,
    // Dataset-scale revision re-scores the same filled templates millions of
    // times; memoising fluency turns that hot path into a hash lookup. Only
    // per-pair texts come here: the filled expansion templates (one topic
    // word each) and the clarification templates. A coach ranks its learned
    // expansion sentences once, straight from `lm`, so those no longer take
    // this lock that every lane shares.
    fluency_cache: std::sync::Mutex<coachlm_text::fxhash::FxHashMap<Box<str>, f64>>,
}

impl Backbone {
    /// Instantiates (i.e. "pre-trains") a backbone of the given kind on its
    /// corpus share. Deterministic; takes ~milliseconds.
    pub fn load(kind: BackboneKind) -> Self {
        let profile = kind.profile();
        let sentences = crate::corpus::corpus_slice(profile.corpus_fraction);
        let lm = NgramLm::train(3, &sentences);
        let knowledge = KnowledgeBase::with_coverage(profile.knowledge_coverage);
        Self {
            profile,
            lm,
            knowledge,
            fluency_cache: std::sync::Mutex::new(Default::default()),
        }
    }

    /// The static profile.
    pub fn profile(&self) -> &BackboneProfile {
        &self.profile
    }

    /// The backbone's fluency model.
    pub fn lm(&self) -> &NgramLm {
        &self.lm
    }

    /// The backbone's repair knowledge.
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    /// Fluency of `text` under this backbone, in [0, 1]. Memoised: the cache
    /// is bounded (template-derived texts dominate the hot path).
    pub fn fluency(&self, text: &str) -> f64 {
        const CACHE_CAP: usize = 100_000;
        // A poisoned lock only means another thread panicked between lock
        // and unlock; the map itself is always left coherent, so recover it
        // rather than propagating the panic into this chain.
        if let Some(&f) = self
            .fluency_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(text)
        {
            return f;
        }
        let f = self.lm.fluency(text);
        let mut cache = self
            .fluency_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if cache.len() < CACHE_CAP {
            cache.insert(text.into(), f);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_order_by_strength() {
        let l = BackboneKind::Llama7b.profile();
        let g1 = BackboneKind::ChatGlm6b.profile();
        let g2 = BackboneKind::ChatGlm2_6b.profile();
        assert!(l.knowledge_coverage < g1.knowledge_coverage);
        assert!(g1.knowledge_coverage < g2.knowledge_coverage);
        assert!(l.alignment_prior < g1.alignment_prior);
        assert!(g1.alignment_prior < g2.alignment_prior);
        assert!(!l.rl_tuned && g1.rl_tuned && g2.rl_tuned);
    }

    #[test]
    fn load_builds_working_backbone() {
        let b = Backbone::load(BackboneKind::ChatGlm2_6b);
        assert_eq!(b.profile().kind, BackboneKind::ChatGlm2_6b);
        let f = b.fluency("Correct the grammatical errors in the sentence.");
        assert!(f > 0.0 && f <= 1.0);
    }

    #[test]
    fn stronger_backbone_knows_more_repairs() {
        let weak = Backbone::load(BackboneKind::Llama7b);
        let strong = Backbone::load(BackboneKind::ChatGlm2_6b);
        let known_weak = coachlm_text::lexicon::TYPO_PAIRS
            .iter()
            .filter(|(w, _)| weak.knowledge().typo_correction(w).is_some())
            .count();
        let known_strong = coachlm_text::lexicon::TYPO_PAIRS
            .iter()
            .filter(|(w, _)| strong.knowledge().typo_correction(w).is_some())
            .count();
        assert!(known_strong > known_weak);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(BackboneKind::Llama7b.name(), "LLaMA");
        assert_eq!(BackboneKind::ChatGlm6b.name(), "ChatGLM");
        assert_eq!(BackboneKind::ChatGlm2_6b.name(), "ChatGLM2");
    }
}
