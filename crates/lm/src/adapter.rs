//! The LoRA-analogue adapter layered over a frozen backbone.
//!
//! The paper fine-tunes its backbone with LoRA for seven epochs at learning
//! rate 2×10⁻⁴ (§III-A3). Our adapter stores the learned [`RuleSet`]s for
//! the instruction and response sides plus an *elicitation strength* derived
//! from the training schedule: more substantive examples (and more epochs)
//! saturate elicitation toward 1, while copy-heavy training data dilutes it.

use crate::rules::RuleSet;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters for coach instruction tuning; defaults match
/// the paper (§III-A3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdapterConfig {
    /// LoRA rank analogue: the adapter retains at most `rank × 16` distinct
    /// phrase rules per side.
    pub rank: usize,
    /// Training epochs (paper: 7).
    pub epochs: u32,
    /// Learning rate (paper: 2e-4). Scales how quickly elicitation
    /// saturates with example count.
    pub learning_rate: f64,
}

impl Default for AdapterConfig {
    fn default() -> Self {
        Self {
            rank: 16,
            epochs: 7,
            learning_rate: 2e-4,
        }
    }
}

impl AdapterConfig {
    /// Maximum phrase rules retained per side.
    pub fn rule_capacity(&self) -> usize {
        self.rank * 16
    }
}

/// Combined (instruction + response) word-level change weight at or below
/// which a training pair counts as near-identity: it contributes copy mass
/// instead of rules. Minor typo/layout fixes land here; substantive expert
/// revisions run an order of magnitude larger.
pub const PAIR_IDENTITY_THRESHOLD: usize = 6;

/// A trained adapter: per-side rule sets + elicitation strength.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Adapter {
    /// Rules learned from instruction-side revisions.
    pub instruction_rules: RuleSet,
    /// Rules learned from response-side revisions.
    pub response_rules: RuleSet,
    /// Near-identity training pairs observed (copy mass).
    pub copy_pairs: u64,
    /// Substantive training pairs observed.
    pub rule_pairs: u64,
    config: AdapterConfig,
    finalized: bool,
}

impl Adapter {
    /// Creates an untrained adapter with the given config.
    pub fn new(config: AdapterConfig) -> Self {
        Self {
            instruction_rules: RuleSet::new(),
            response_rules: RuleSet::new(),
            copy_pairs: 0,
            rule_pairs: 0,
            config,
            finalized: false,
        }
    }

    /// The training configuration.
    pub fn config(&self) -> &AdapterConfig {
        &self.config
    }

    /// Observes one training pair: `(original, revised)` instruction texts
    /// and response texts.
    ///
    /// A pair whose combined change weight is at most
    /// [`PAIR_IDENTITY_THRESHOLD`] is a near-identity example: it teaches
    /// "copy the input" (§II-F2's negative-sample concern) and adds copy
    /// mass instead of rules.
    pub fn observe(
        &mut self,
        orig_instruction: &str,
        rev_instruction: &str,
        orig_response: &str,
        rev_response: &str,
    ) {
        assert!(!self.finalized, "adapter already finalized");
        let weight = RuleSet::change_weight(orig_instruction, rev_instruction)
            + RuleSet::change_weight(orig_response, rev_response);
        if weight <= PAIR_IDENTITY_THRESHOLD {
            self.copy_pairs += 1;
            return;
        }
        self.rule_pairs += 1;
        self.instruction_rules
            .extract(orig_instruction, rev_instruction);
        self.response_rules.extract(orig_response, rev_response);
    }

    /// Finalizes training: applies the capacity bound (rank analogue).
    pub fn finalize(&mut self) {
        let cap = self.config.rule_capacity();
        self.instruction_rules.truncate_to_capacity(cap);
        self.response_rules.truncate_to_capacity(cap);
        self.finalized = true;
    }

    /// Total training pairs observed.
    pub fn total_examples(&self) -> u64 {
        self.copy_pairs + self.rule_pairs
    }

    /// Fraction of training pairs that were near-identity copies; the
    /// "noise" share that dilutes revision behaviour at high α (Fig 5a).
    pub fn copy_ratio(&self) -> f64 {
        let total = self.total_examples();
        if total == 0 {
            0.0
        } else {
            self.copy_pairs as f64 / total as f64
        }
    }

    /// Elicitation strength in [0, 1): how reliably the tuned model enters
    /// "revise" mode rather than echoing its input.
    ///
    /// Saturates in (epochs × lr × substantive examples); an untrained
    /// adapter has strength 0 (the raw backbone's `alignment_prior` then
    /// governs behaviour, which is the α = 0 case of Fig 5a).
    pub fn elicitation(&self) -> f64 {
        let schedule = self.config.epochs as f64 * self.config.learning_rate / (7.0 * 2e-4);
        1.0 - (-0.012 * schedule * self.rule_pairs as f64).exp()
    }

    /// The copy-noise penalty in [0, 0.8]: grows with the copy ratio,
    /// reproducing the paper's observation that near-identity training
    /// pairs act like negative samples (§II-F2).
    pub fn copy_penalty(&self) -> f64 {
        0.8 * self.copy_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn substantive_pair() -> (&'static str, &'static str) {
        (
            "fix teh report becuase thier numbers seem wrong in alot of tables",
            "fix the report because their numbers seem wrong in a lot of tables now",
        )
    }

    #[test]
    fn untrained_adapter_has_zero_elicitation() {
        let a = Adapter::new(AdapterConfig::default());
        assert_eq!(a.elicitation(), 0.0);
        assert_eq!(a.total_examples(), 0);
    }

    #[test]
    fn elicitation_grows_with_examples() {
        let mut small = Adapter::new(AdapterConfig::default());
        let mut large = Adapter::new(AdapterConfig::default());
        let (o, r) = substantive_pair();
        for i in 0..5 {
            small.observe(&format!("{o} v{i}"), &format!("{r} v{i}"), o, r);
        }
        for i in 0..50 {
            large.observe(&format!("{o} v{i}"), &format!("{r} v{i}"), o, r);
        }
        assert!(large.elicitation() > small.elicitation());
        assert!(large.elicitation() < 1.0);
    }

    #[test]
    fn copy_heavy_training_raises_penalty() {
        let mut a = Adapter::new(AdapterConfig::default());
        let (o, r) = substantive_pair();
        a.observe(o, r, o, r);
        let clean_penalty = a.copy_penalty();
        a.observe("same", "same", "identical", "identical");
        a.observe("same2", "same2", "identical2", "identical2");
        assert!(a.copy_penalty() > clean_penalty);
        assert!(a.copy_penalty() <= 0.8);
    }

    #[test]
    fn finalize_applies_capacity() {
        let mut a = Adapter::new(AdapterConfig {
            rank: 0,
            epochs: 7,
            learning_rate: 2e-4,
        });
        let (o, r) = substantive_pair();
        a.observe(o, r, o, r);
        a.finalize();
        assert_eq!(a.response_rules.phrase_rule_count(), 0);
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn observing_after_finalize_panics() {
        let mut a = Adapter::new(AdapterConfig::default());
        a.finalize();
        a.observe("a", "b", "c", "d");
    }

    #[test]
    fn more_epochs_stronger_elicitation() {
        let fast = AdapterConfig {
            rank: 16,
            epochs: 14,
            learning_rate: 2e-4,
        };
        let slow = AdapterConfig {
            rank: 16,
            epochs: 3,
            learning_rate: 2e-4,
        };
        let (o, r) = substantive_pair();
        let mut a = Adapter::new(fast);
        let mut b = Adapter::new(slow);
        for i in 0..10 {
            a.observe(&format!("{o}{i}"), &format!("{r}{i}"), o, r);
            b.observe(&format!("{o}{i}"), &format!("{r}{i}"), o, r);
        }
        assert!(a.elicitation() > b.elicitation());
    }
}
