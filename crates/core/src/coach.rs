//! Coach instruction tuning (§II-F1).
//!
//! Each expert pair `(x, x_r)` becomes a coach-tuning example `x_c` whose
//! INSTRUCTION is the Fig 3 revision prompt around `x` and whose RESPONSE
//! is `x_r`. Training on `C_α` adapts the backbone's parameters θ → θ_c
//! (Eq. 1); in this reproduction, the adaptation is the rule-learning
//! adapter of `coachlm-lm`, which extracts weighted rewrite rules from the
//! aligned pairs and accumulates copy mass from near-identity ones.

use crate::alpha::select_alpha;
use coachlm_expert::revision::RevisionRecord;
use coachlm_lm::adapter::{Adapter, AdapterConfig};
use coachlm_lm::backbone::{Backbone, BackboneKind};
use coachlm_lm::transducer::{DecodeTables, RevisionOutcome, Transducer};
use coachlm_text::fxhash::fingerprint_fields;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The Fig 3 revision prompt wrapped around an input pair.
pub fn revision_prompt(instruction: &str, response: &str) -> String {
    format!(
        "Improve the following instruction, input and response pair to be more \
         specific, detailed with more logical steps and grammarly corrected. \
         Input: [INSTRUCTION: {instruction} RESPONSE: {response}]"
    )
}

/// Training configuration; defaults match the paper's main experiment
/// (ChatGLM2 backbone, α = 0.3, LoRA, 7 epochs at 2e-4 — §III-A3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoachConfig {
    /// Backbone to adapt.
    pub backbone: BackboneKind,
    /// Human input ratio α.
    pub alpha: f64,
    /// Adapter (LoRA analogue) hyper-parameters.
    pub adapter: AdapterConfig,
}

impl Default for CoachConfig {
    fn default() -> Self {
        Self {
            backbone: BackboneKind::ChatGlm2_6b,
            alpha: 0.3,
            adapter: AdapterConfig::default(),
        }
    }
}

/// Everything coach training produces: the configuration it ran under,
/// the trained adapter, and the ids of `C_α`. This is the coach minus its
/// frozen backbone, which [`Backbone::load`] rebuilds from
/// `config.backbone`, and it is exactly what [`CoachLm::to_bytes`] encodes.
#[derive(Debug, Serialize, Deserialize)]
struct CoachState {
    config: CoachConfig,
    adapter: Adapter,
    trained_ids: Vec<u64>,
}

/// A trained CoachLM: θ_c = frozen backbone + trained adapter.
#[derive(Debug)]
pub struct CoachLm {
    state: CoachState,
    backbone: Backbone,
    /// What every revision reads and no revision changes, built from the
    /// backbone and adapter by both constructors; derived, never
    /// serialised.
    tables: DecodeTables,
    /// Hash of [`CoachLm::to_bytes`], computed on first use.
    fingerprint: OnceLock<u64>,
}

impl CoachLm {
    /// Trains CoachLM on the α-selected subset of the expert revision
    /// dataset `R` (Eq. 1).
    pub fn train(config: CoachConfig, records: &[RevisionRecord]) -> Self {
        let backbone = Backbone::load(config.backbone);
        let mut adapter = Adapter::new(config.adapter);
        let selected = select_alpha(records, config.alpha);
        let mut trained_ids = Vec::with_capacity(selected.len());
        for rec in &selected {
            adapter.observe(
                &rec.original.instruction,
                &rec.revised.instruction,
                &rec.original.response,
                &rec.revised.response,
            );
            trained_ids.push(rec.id);
        }
        adapter.finalize();
        let tables = DecodeTables::new(&backbone, &adapter);
        Self {
            state: CoachState {
                config,
                adapter,
                trained_ids,
            },
            backbone,
            tables,
            fingerprint: OnceLock::new(),
        }
    }

    /// The coach's canonical byte form: its [`CoachConfig`], trained
    /// adapter and `C_α` ids as JSON, without the frozen backbone. Every
    /// hash map is written as a key-sorted entry list, so the bytes depend
    /// on the model alone, never on hash-map layout, and
    /// `to_bytes(from_bytes(b)) == b`.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(&self.state)
            // lint: allow(P1, reason = "serialisation fails only on a non-string map key, and every map in a coach state is written as an entry list")
            .expect("a coach state always serialises")
            .into_bytes()
    }

    /// Decodes [`CoachLm::to_bytes`] output, rebuilds the backbone with
    /// [`Backbone::load`] (about a millisecond) and the decode tables from
    /// it and the adapter (about two). `None` unless `bytes` is
    /// exactly the canonical encoding of some coach: malformed JSON, a
    /// missing or mistyped field, and any other spelling of a valid model
    /// (extra whitespace, reordered entries, `06` for `6`) are all refused,
    /// so accepted bytes and the model determine each other.
    pub fn from_bytes(bytes: &[u8]) -> Option<CoachLm> {
        let state: CoachState = serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()?;
        if serde_json::to_string(&state).ok()?.as_bytes() != bytes {
            return None;
        }
        let backbone = Backbone::load(state.config.backbone);
        let tables = DecodeTables::new(&backbone, &state.adapter);
        Some(CoachLm {
            backbone,
            tables,
            state,
            fingerprint: OnceLock::from(fingerprint_fields(&[bytes])),
        })
    }

    /// A hash of [`CoachLm::to_bytes`]: equal for equal learned state,
    /// computed once per coach. [`crate::infer::CoachReviseStage`] reports
    /// it as its state fingerprint, so a journal written under one coach
    /// refuses to resume under another.
    pub(crate) fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| fingerprint_fields(&[&self.to_bytes()]))
    }

    /// Ids of the pairs in the training subset `C_α` (the §III-B1 leakage
    /// rule keeps these pairs' originals at inference).
    pub fn trained_ids(&self) -> &[u64] {
        &self.state.trained_ids
    }

    /// The training configuration.
    pub fn config(&self) -> &CoachConfig {
        &self.state.config
    }

    /// Number of training examples after α selection.
    pub fn trained_on(&self) -> usize {
        self.state.trained_ids.len()
    }

    /// The underlying backbone.
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// The trained adapter.
    pub fn adapter(&self) -> &Adapter {
        &self.state.adapter
    }

    /// Probability an applicable repair fires at decode time.
    pub fn apply_probability(&self) -> f64 {
        self.transducer().apply_probability()
    }

    /// Revises one instruction pair (beam size 1, §III-A3).
    pub fn revise_pair<R: Rng>(
        &self,
        rng: &mut R,
        instruction: &str,
        response: &str,
    ) -> RevisionOutcome {
        self.transducer().revise_pair(rng, instruction, response)
    }

    fn transducer(&self) -> Transducer<'_> {
        Transducer::new(&self.backbone, &self.state.adapter, &self.tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::generator::{generate, GeneratorConfig};
    use coachlm_expert::filter::preliminary_filter;
    use coachlm_expert::pool::ExpertPool;
    use coachlm_expert::revision::ExpertReviser;
    use coachlm_lm::transducer::RepairTag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn expert_records(n: usize, seed: u64) -> Vec<RevisionRecord> {
        let (d, _) = generate(&GeneratorConfig::small(n, seed));
        let kept = preliminary_filter(&d, seed).kept;
        ExpertReviser::new(seed).revise_dataset(&ExpertPool::paper_pool(), &d, &kept)
    }

    #[test]
    fn prompt_embeds_the_pair() {
        let p = revision_prompt("Do X", "Done Y");
        assert!(p.contains("Improve the following instruction"));
        assert!(p.contains("Do X"));
        assert!(p.contains("Done Y"));
    }

    #[test]
    fn training_respects_alpha() {
        let records = expert_records(600, 5);
        let full = CoachLm::train(
            CoachConfig {
                alpha: 1.0,
                ..Default::default()
            },
            &records,
        );
        let third = CoachLm::train(
            CoachConfig {
                alpha: 0.3,
                ..Default::default()
            },
            &records,
        );
        let none = CoachLm::train(
            CoachConfig {
                alpha: 0.0,
                ..Default::default()
            },
            &records,
        );
        assert_eq!(full.trained_on(), records.len());
        assert_eq!(
            third.trained_on(),
            (records.len() as f64 * 0.3).round() as usize
        );
        assert_eq!(none.trained_on(), 0);
    }

    #[test]
    fn alpha_zero_is_the_raw_backbone() {
        let records = expert_records(300, 6);
        let coach = CoachLm::train(
            CoachConfig {
                alpha: 0.0,
                ..Default::default()
            },
            &records,
        );
        let prior = coach.backbone().profile().alignment_prior;
        assert!((coach.apply_probability() - prior).abs() < 1e-9);
    }

    #[test]
    fn alpha_03_fires_more_reliably_than_alpha_0() {
        let records = expert_records(600, 7);
        let p0 = CoachLm::train(
            CoachConfig {
                alpha: 0.0,
                ..Default::default()
            },
            &records,
        )
        .apply_probability();
        let p3 = CoachLm::train(
            CoachConfig {
                alpha: 0.3,
                ..Default::default()
            },
            &records,
        )
        .apply_probability();
        assert!(p3 > p0 + 0.3, "p0 {p0} p3 {p3}");
    }

    #[test]
    fn full_alpha_carries_copy_noise() {
        let records = expert_records(2500, 8);
        let third = CoachLm::train(
            CoachConfig {
                alpha: 0.3,
                ..Default::default()
            },
            &records,
        );
        let full = CoachLm::train(
            CoachConfig {
                alpha: 1.0,
                ..Default::default()
            },
            &records,
        );
        // α = 1 includes the near-identity tail → more copy mass → lower
        // apply probability than the α = 0.3 sweet spot (Fig 5a).
        assert!(
            full.adapter().copy_ratio() > third.adapter().copy_ratio(),
            "copy ratios: full {} third {}",
            full.adapter().copy_ratio(),
            third.adapter().copy_ratio()
        );
        assert!(full.apply_probability() <= third.apply_probability());
    }

    #[test]
    fn trained_coach_revises_defective_pairs() {
        let records = expert_records(600, 9);
        let coach = CoachLm::train(CoachConfig::default(), &records);
        let mut rng = StdRng::seed_from_u64(1);
        let out = coach.revise_pair(
            &mut rng,
            "Explain teh water cycle",
            "Water evaporates becuase of heat.",
        );
        assert!(
            out.instruction.contains("the water cycle"),
            "{}",
            out.instruction
        );
        assert!(!out.repairs.is_empty());
    }

    #[test]
    fn byte_form_rebuilds_the_same_coach() {
        let coach = CoachLm::train(CoachConfig::default(), &expert_records(600, 9));
        let bytes = coach.to_bytes();
        let back = CoachLm::from_bytes(&bytes).expect("canonical bytes decode");
        assert_eq!(back.to_bytes(), bytes, "re-encoding is byte-identical");
        assert_eq!(back.fingerprint(), coach.fingerprint());
        assert_eq!(back.trained_ids(), coach.trained_ids());
        assert_eq!(back.config(), coach.config());
        // Same model, same draws: the decoded coach, whose decode tables
        // were rebuilt from the bytes, revises real traffic identically.
        let (traffic, _) = generate(&GeneratorConfig::small(200, 12));
        let mut fired = std::collections::HashSet::new();
        for (seed, pair) in (0u64..).zip(&traffic.pairs) {
            let revise = |c: &CoachLm| {
                c.revise_pair(
                    &mut StdRng::seed_from_u64(seed),
                    &pair.instruction,
                    &pair.response,
                )
            };
            let out = revise(&coach);
            assert_eq!(revise(&back), out, "pair {seed}");
            fired.extend(out.repairs);
        }
        // The ranked expansions and the phrase index were both read.
        assert!(fired.contains(&RepairTag::Expand), "{fired:?}");
        assert!(fired.contains(&RepairTag::LearnedPhrase), "{fired:?}");
    }

    #[test]
    fn byte_form_refuses_all_but_the_canonical_spelling() {
        let coach = CoachLm::train(CoachConfig::default(), &expert_records(300, 4));
        let bytes = coach.to_bytes();
        assert!(CoachLm::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(CoachLm::from_bytes(b"").is_none());
        assert!(CoachLm::from_bytes(b"{}").is_none());
        // Valid JSON for the same model, spelled differently.
        let mut spaced = b" ".to_vec();
        spaced.extend_from_slice(&bytes);
        assert!(CoachLm::from_bytes(&spaced).is_none());
        let text = String::from_utf8(bytes).expect("JSON is UTF-8");
        let respelled = text.replacen("\"alpha\":0.3", "\"alpha\":3e-1", 1);
        assert_ne!(respelled, text);
        assert!(CoachLm::from_bytes(respelled.as_bytes()).is_none());

        let other = CoachLm::train(CoachConfig::default(), &expert_records(300, 5));
        assert_ne!(other.fingerprint(), coach.fingerprint());
    }

    #[test]
    fn stronger_backbone_higher_apply_probability_untrained() {
        let records: Vec<RevisionRecord> = Vec::new();
        let weak = CoachLm::train(
            CoachConfig {
                backbone: BackboneKind::Llama7b,
                alpha: 1.0,
                ..Default::default()
            },
            &records,
        );
        let strong = CoachLm::train(
            CoachConfig {
                backbone: BackboneKind::ChatGlm2_6b,
                alpha: 1.0,
                ..Default::default()
            },
            &records,
        );
        assert!(strong.apply_probability() > weak.apply_probability());
    }
}
