//! Deterministic fault injection, retry policy, and the quarantine channel.
//!
//! The §IV-A deployment runs CoachLM inside a production data-management
//! pipeline where stage failures, slow items, and malformed pairs are
//! routine. This module supplies the executor's fault-tolerance vocabulary:
//!
//! * [`FaultPlan`] — a seeded description of *injected* faults. Whether a
//!   fault fires is a pure function of `(plan seed, stage salt, item id,
//!   attempt)`, so a plan perturbs a chain identically at any thread count
//!   — chaos tests stay reproducible.
//! * [`RetryPolicy`] — bounded attempts with *simulated* exponential
//!   backoff. No wall-clock sleeping happens; the backoff the production
//!   system would have spent is accounted into the stage report
//!   deterministically instead.
//! * [`FailureRecord`] / [`Quarantine`] — items that exhaust their retries
//!   or hit a permanent fault land in a structured quarantine dataset
//!   instead of panicking the worker or silently vanishing. Automated
//!   curation systems route unprocessable examples to a remediation path
//!   for exactly this reason: a dropped item is invisible, a quarantined
//!   item is a work order.

use coachlm_data::InstructionPair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One injected fault, decided per `(stage, item, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The attempt fails before the stage runs; retrying may succeed.
    Transient,
    /// The item cannot be processed by this stage at all; it is
    /// quarantined without burning further attempts.
    Permanent,
    /// The attempt succeeds but costs an extra latency spike, accounted
    /// into the stage's time.
    Latency(Duration),
}

/// A seeded, deterministic description of which faults to inject.
///
/// Rates are per-attempt probabilities in `[0, 1]`; the three classes are
/// mutually exclusive on any single roll (a permanent fault wins over a
/// transient one, which wins over a latency spike). The default plan is
/// [`FaultPlan::none`]: it injects nothing and adds no per-item overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient: f64,
    permanent: f64,
    latency: f64,
    latency_spike: Duration,
}

impl FaultPlan {
    /// The inert plan: no faults, no overhead. Chains run byte-identical
    /// to an executor without a fault layer.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient: 0.0,
            permanent: 0.0,
            latency: 0.0,
            latency_spike: Duration::ZERO,
        }
    }

    /// An inert plan carrying a seed; add rates with the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the per-attempt transient-fault probability.
    pub fn transient(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "transient rate {p} out of [0, 1]");
        self.transient = p;
        self
    }

    /// Sets the per-attempt permanent-fault probability.
    pub fn permanent(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "permanent rate {p} out of [0, 1]");
        self.permanent = p;
        self
    }

    /// Sets the per-attempt latency-spike probability and spike size.
    pub fn latency(mut self, p: f64, spike: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "latency rate {p} out of [0, 1]");
        self.latency = p;
        self.latency_spike = spike;
        self
    }

    /// `true` when the plan can never fire (the zero-overhead fast path).
    pub fn is_inert(&self) -> bool {
        self.transient <= 0.0 && self.permanent <= 0.0 && self.latency <= 0.0
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Feeds every behaviour-relevant field into a journal fingerprint, so
    /// a resume under a different plan is rejected instead of silently
    /// diverging.
    pub(crate) fn fingerprint_into(&self, h: &mut impl std::hash::Hasher) {
        h.write_u64(self.seed);
        h.write_u64(self.transient.to_bits());
        h.write_u64(self.permanent.to_bits());
        h.write_u64(self.latency.to_bits());
        h.write_u128(self.latency_spike.as_nanos());
    }

    /// Decides the fault for one `(stage, item, attempt)`.
    ///
    /// Pure in its arguments: the same plan rolls the same fault for the
    /// same coordinates no matter which worker asks, which is what keeps
    /// faulted runs thread-count-invariant.
    pub fn roll(&self, stage_salt: u64, item_id: u64, attempt: u32) -> Option<Fault> {
        if self.is_inert() {
            return None;
        }
        let mix = self.seed
            ^ stage_salt.rotate_left(17)
            ^ item_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(attempt)).wrapping_mul(0x517C_C1B7_2722_0A95);
        let u: f64 = StdRng::seed_from_u64(mix).gen();
        if u < self.permanent {
            Some(Fault::Permanent)
        } else if u < self.permanent + self.transient {
            Some(Fault::Transient)
        } else if u < self.permanent + self.transient + self.latency {
            Some(Fault::Latency(self.latency_spike))
        } else {
            None
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Bounded retries with deterministic simulated exponential backoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per (stage, item), including the first (floored at 1).
    pub max_attempts: u32,
    /// Simulated wait before the first retry; each further retry doubles it.
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// A policy with the given attempt budget and base backoff.
    pub fn new(max_attempts: u32, base_backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff,
        }
    }

    /// Feeds the policy into a journal fingerprint (see
    /// [`FaultPlan::fingerprint_into`]).
    pub(crate) fn fingerprint_into(&self, h: &mut impl std::hash::Hasher) {
        h.write_u32(self.max_attempts);
        h.write_u128(self.base_backoff.as_nanos());
    }

    /// The simulated wait charged before retry number `retry` (1-based):
    /// `base × 2^(retry-1)`, saturating.
    pub fn backoff_before(&self, retry: u32) -> Duration {
        self.base_backoff.saturating_mul(
            1u32.checked_shl(retry.saturating_sub(1))
                .unwrap_or(u32::MAX),
        )
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 10 ms base backoff (so a fully exhausted item
    /// charges 10 + 20 = 30 ms of simulated wait).
    fn default() -> Self {
        RetryPolicy::new(3, Duration::from_millis(10))
    }
}

/// Why a quarantined item's last attempt could not be salvaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// Every attempt failed with a transient error.
    RetriesExhausted,
    /// A permanent error ended processing immediately.
    Fatal,
}

/// Structured account of one quarantined item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureRecord {
    /// Name of the stage the item failed in.
    pub stage: String,
    /// Attempts made (including the first) before giving up.
    pub attempts: u32,
    /// The last attempt's error message.
    pub error: String,
    /// Whether retries ran out or a permanent fault ended it early.
    pub kind: FailureKind,
}

/// One quarantined pair with its failure account.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedPair {
    /// The item's position in the chain input, so quarantines from
    /// resumed partial runs can be [`merge`](Quarantine::merge)d back into
    /// a deterministic order. Defaults to 0 when absent from older
    /// serialised quarantines.
    #[serde(default)]
    pub index: usize,
    /// The pair in the state it entered the failing stage (failed attempts
    /// never leak partial mutations — see [`StageOutcome`]).
    ///
    /// [`StageOutcome`]: crate::StageOutcome
    pub pair: InstructionPair,
    /// What happened.
    pub failure: FailureRecord,
}

/// The quarantine channel of one chain run: every item that exhausted its
/// retries or hit a permanent fault, with structured failure records, in
/// input order. The §IV-A remediation story needs these *recoverable* —
/// quarantine serialises to JSON so a later batch (or a human) can re-run
/// exactly the failed pairs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[must_use]
pub struct Quarantine {
    /// Name of the quarantine set (conventionally `{input}-quarantine`).
    pub name: String,
    /// The quarantined pairs, in input order.
    pub items: Vec<QuarantinedPair>,
}

impl Quarantine {
    /// Number of quarantined items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The quarantined pairs as a dataset, for re-running through a
    /// remediation chain.
    pub fn dataset(&self) -> coachlm_data::Dataset {
        coachlm_data::Dataset {
            name: self.name.clone(),
            pairs: self.items.iter().map(|q| q.pair.clone()).collect(),
        }
    }

    /// Combines this quarantine with another — e.g. the quarantine of a
    /// crashed partial run with the quarantine of its resumed remainder.
    ///
    /// The result keeps `self`'s name, is sorted by `(failing stage, item
    /// index)`, and drops duplicate `(stage, index)` entries (an item
    /// replayed from a journal appears in both halves; the first copy
    /// wins). Merging is therefore order-independent on the items:
    /// `a.merge(b)` and `b.merge(a)` carry identical item lists.
    pub fn merge(mut self, other: Quarantine) -> Quarantine {
        self.items.extend(other.items);
        self.items
            .sort_by(|a, b| (&a.failure.stage, a.index).cmp(&(&b.failure.stage, b.index)));
        self.items
            .dedup_by(|a, b| a.failure.stage == b.failure.stage && a.index == b.index);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        for item in 0..100 {
            assert_eq!(plan.roll(7, item, 0), None);
        }
    }

    #[test]
    fn roll_is_deterministic_per_coordinates() {
        let plan = FaultPlan::new(42).transient(0.3).permanent(0.1);
        for (salt, id, attempt) in [(1u64, 5u64, 0u32), (2, 9, 1), (3, 0, 2)] {
            assert_eq!(
                plan.roll(salt, id, attempt),
                plan.roll(salt, id, attempt),
                "same coordinates must roll the same fault"
            );
        }
        // Different attempts on the same item may roll differently; over
        // many items each class actually fires.
        let mut transient = 0;
        let mut permanent = 0;
        for id in 0..2000 {
            match plan.roll(1, id, 0) {
                Some(Fault::Transient) => transient += 1,
                Some(Fault::Permanent) => permanent += 1,
                _ => {}
            }
        }
        let (t, p) = (transient as f64 / 2000.0, permanent as f64 / 2000.0);
        assert!((0.2..0.4).contains(&t), "transient rate {t}");
        assert!((0.05..0.15).contains(&p), "permanent rate {p}");
    }

    #[test]
    fn latency_rolls_carry_the_spike() {
        let spike = Duration::from_millis(7);
        let plan = FaultPlan::new(1).latency(1.0, spike);
        assert_eq!(plan.roll(0, 0, 0), Some(Fault::Latency(spike)));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy::new(5, Duration::from_millis(10));
        assert_eq!(p.backoff_before(1), Duration::from_millis(10));
        assert_eq!(p.backoff_before(2), Duration::from_millis(20));
        assert_eq!(p.backoff_before(3), Duration::from_millis(40));
        // Very deep retries must not overflow.
        let deep = RetryPolicy::new(u32::MAX, Duration::from_secs(1));
        assert!(deep.backoff_before(200) > Duration::from_secs(1));
    }

    #[test]
    fn max_attempts_floors_at_one() {
        assert_eq!(RetryPolicy::new(0, Duration::ZERO).max_attempts, 1);
    }

    #[test]
    fn quarantine_round_trips_to_dataset() {
        use coachlm_data::Category;
        let q = Quarantine {
            name: "batch-quarantine".into(),
            items: vec![QuarantinedPair {
                index: 3,
                pair: InstructionPair::new(3, "Q?", "A.", Category(0)),
                failure: FailureRecord {
                    stage: "coach-revise".into(),
                    attempts: 3,
                    error: "injected: transient".into(),
                    kind: FailureKind::RetriesExhausted,
                },
            }],
        };
        let d = q.dataset();
        assert_eq!(d.len(), 1);
        assert_eq!(d.pairs[0].id, 3);
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
    }

    fn qp(stage: &str, index: usize) -> QuarantinedPair {
        use coachlm_data::Category;
        QuarantinedPair {
            index,
            pair: InstructionPair::new(index as u64, "Q?", "A.", Category(0)),
            failure: FailureRecord {
                stage: stage.into(),
                attempts: 1,
                error: "injected: permanent".into(),
                kind: FailureKind::Fatal,
            },
        }
    }

    #[test]
    fn merge_sorts_dedups_and_is_order_independent() {
        let a = Quarantine {
            name: "first-half".into(),
            items: vec![qp("revise", 9), qp("clean", 4), qp("revise", 2)],
        };
        let b = Quarantine {
            name: "second-half".into(),
            items: vec![qp("clean", 1), qp("revise", 2), qp("revise", 7)],
        };
        let ab = a.clone().merge(b.clone());
        let ba = b.merge(a);
        // Same items either way (names keep the receiver's).
        assert_eq!(ab.items, ba.items);
        assert_eq!(ab.name, "first-half");
        assert_eq!(ba.name, "second-half");
        // Sorted by (stage, index), duplicate (revise, 2) collapsed.
        let keys: Vec<(&str, usize)> = ab
            .items
            .iter()
            .map(|q| (q.failure.stage.as_str(), q.index))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("clean", 1),
                ("clean", 4),
                ("revise", 2),
                ("revise", 7),
                ("revise", 9)
            ]
        );
    }
}
