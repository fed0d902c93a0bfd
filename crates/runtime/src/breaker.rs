//! Deterministic per-stage circuit breaking with degraded passthrough.
//!
//! The §IV-A deployment cannot let one misbehaving stage stall the whole
//! data-management pipeline: when a stage starts quarantining or timing
//! out a large share of its items, the platform's fallback is the paper's
//! §III-B1 leakage behaviour — pairs pass through *unrevised* rather than
//! not at all. This module supplies the breaker state machine; the
//! executor drives it.
//!
//! Determinism is the hard requirement, and wall-clock-based breakers
//! (trip after N failures in the last T seconds) are inherently racy. The
//! executor therefore runs breaker-enabled chains *epoch-synchronously*:
//! the input index space is cut into fixed windows of
//! [`BreakerPolicy::window`] items, every stage's mode for an epoch is
//! decided before any item in it runs, and breaker state advances only at
//! epoch boundaries from the epoch's tallied outcomes. Because epochs are
//! defined by item *index* (not arrival time or worker), the whole
//! evolution — trip points, half-open probes, recoveries — is a pure
//! function of (chain, input, seed, policy) and replays identically at
//! any thread count or queue capacity, and across a crash/resume.

use serde::{Deserialize, Serialize};

/// When and how a stage's circuit breaker trips and recovers.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerPolicy {
    /// Epoch size in items: outcomes are tallied and state advances every
    /// `window` input indices (floored at 1).
    pub window: usize,
    /// Failure fraction of an epoch's *executed* items that trips a
    /// closed breaker (quarantines and exhausted timeouts count; items
    /// passed through degraded do not execute and count toward nothing).
    pub trip_ratio: f64,
    /// Minimum failures in the epoch before the ratio can trip, so a tiny
    /// tail epoch cannot trip on one unlucky item.
    pub min_failures: usize,
    /// Epochs an open breaker stays fully open before probing (floored
    /// at 1).
    pub cooldown_epochs: usize,
    /// Items probed per half-open epoch: the first `probes` indices of
    /// the epoch execute, the rest pass through degraded (floored at 1).
    pub probes: usize,
}

impl BreakerPolicy {
    /// The default policy: 128-item epochs, trip at ≥ 50 % failures (at
    /// least 8), one cooldown epoch, 8 probes per half-open epoch.
    pub fn new() -> Self {
        BreakerPolicy {
            window: 128,
            trip_ratio: 0.5,
            min_failures: 8,
            cooldown_epochs: 1,
            probes: 8,
        }
    }

    /// Overrides the epoch size.
    pub fn window(mut self, items: usize) -> Self {
        self.window = items.max(1);
        self
    }

    /// Overrides the tripping failure fraction.
    pub fn trip_ratio(mut self, ratio: f64) -> Self {
        self.trip_ratio = ratio;
        self
    }

    /// Overrides the minimum failures per epoch required to trip.
    pub fn min_failures(mut self, n: usize) -> Self {
        self.min_failures = n;
        self
    }

    /// Overrides the open-state cooldown, in epochs.
    pub fn cooldown_epochs(mut self, n: usize) -> Self {
        self.cooldown_epochs = n.max(1);
        self
    }

    /// Overrides the number of half-open probe items per epoch.
    pub fn probes(mut self, n: usize) -> Self {
        self.probes = n.max(1);
        self
    }

    /// Feeds the policy into a journal fingerprint: a resume under a
    /// different breaker policy would evolve differently, so it is
    /// rejected up front.
    pub(crate) fn fingerprint_into(&self, h: &mut impl std::hash::Hasher) {
        h.write_usize(self.window);
        h.write_u64(self.trip_ratio.to_bits());
        h.write_usize(self.min_failures);
        h.write_usize(self.cooldown_epochs);
        h.write_usize(self.probes);
    }
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy::new()
    }
}

/// The classic three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Normal operation: every item executes.
    Closed,
    /// Tripped: every item passes through degraded (unrevised) while the
    /// cooldown runs down.
    Open,
    /// Probing: the first [`BreakerPolicy::probes`] items of each epoch
    /// execute; their outcomes decide between reclosing and reopening.
    HalfOpen,
}

/// One recorded breaker transition, deterministic under the contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerEvent {
    /// Name of the stage whose breaker moved.
    pub stage: String,
    /// Epoch index at whose boundary the transition happened (the epoch
    /// covers input indices `[epoch × window, (epoch + 1) × window)`).
    pub epoch: usize,
    /// State during that epoch.
    pub from: BreakerState,
    /// State entering the next epoch.
    pub to: BreakerState,
}

/// How one stage treats the items of one epoch. Decided before the epoch
/// runs, from breaker state alone, so the decision is identical no matter
/// which worker asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StageMode {
    /// Execute every item.
    Execute,
    /// Pass every item through unprocessed.
    Degrade,
    /// Execute items with input index below `until`; degrade the rest.
    Probe {
        /// First degraded index (epoch start + probe count).
        until: usize,
    },
}

impl StageMode {
    /// Whether the item at `index` executes under this mode.
    pub(crate) fn executes(self, index: usize) -> bool {
        match self {
            StageMode::Execute => true,
            StageMode::Degrade => false,
            StageMode::Probe { until } => index < until,
        }
    }
}

/// One stage's breaker: policy plus mutable state, advanced once per
/// epoch by the executor.
#[derive(Debug, Clone)]
pub(crate) struct Breaker {
    policy: BreakerPolicy,
    state: BreakerState,
    cooldown_left: usize,
}

impl Breaker {
    /// A closed breaker under `policy`.
    pub(crate) fn new(policy: BreakerPolicy) -> Self {
        Breaker {
            policy,
            state: BreakerState::Closed,
            cooldown_left: 0,
        }
    }

    /// The mode for the epoch starting at input index `epoch_start`.
    pub(crate) fn mode(&self, epoch_start: usize) -> StageMode {
        match self.state {
            BreakerState::Closed => StageMode::Execute,
            BreakerState::Open => StageMode::Degrade,
            BreakerState::HalfOpen => StageMode::Probe {
                until: epoch_start.saturating_add(self.policy.probes),
            },
        }
    }

    /// Advances state from one epoch's tally: `executed` items actually
    /// ran the stage body, `failures` of them ended quarantined (retries
    /// exhausted — including timeout storms — or fatal). Returns the
    /// transition, if any.
    pub(crate) fn observe(
        &mut self,
        executed: usize,
        failures: usize,
    ) -> Option<(BreakerState, BreakerState)> {
        let from = self.state;
        let to = match self.state {
            BreakerState::Closed => {
                if failures >= self.policy.min_failures.max(1)
                    && executed > 0
                    && failures as f64 >= self.policy.trip_ratio * executed as f64
                {
                    self.cooldown_left = self.policy.cooldown_epochs.max(1);
                    BreakerState::Open
                } else {
                    BreakerState::Closed
                }
            }
            BreakerState::Open => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            BreakerState::HalfOpen => {
                if executed == 0 {
                    // No probe reached the stage (everything filtered or
                    // quarantined earlier): no evidence, keep probing.
                    BreakerState::HalfOpen
                } else if failures == 0 {
                    BreakerState::Closed
                } else {
                    self.cooldown_left = self.policy.cooldown_epochs.max(1);
                    BreakerState::Open
                }
            }
        };
        self.state = to;
        (from != to).then_some((from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy::new()
            .window(10)
            .trip_ratio(0.5)
            .min_failures(3)
            .cooldown_epochs(2)
            .probes(4)
    }

    #[test]
    fn full_cycle_closed_open_halfopen_closed() {
        let mut b = Breaker::new(policy());
        assert_eq!(b.state, BreakerState::Closed);
        // Healthy epoch: stays closed, no event.
        assert_eq!(b.observe(10, 0), None);
        // 6/10 failures ≥ ratio and ≥ min_failures: trips.
        assert_eq!(
            b.observe(10, 6),
            Some((BreakerState::Closed, BreakerState::Open))
        );
        // Two cooldown epochs: one silent, then half-open.
        assert_eq!(b.observe(0, 0), None);
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(
            b.observe(0, 0),
            Some((BreakerState::Open, BreakerState::HalfOpen))
        );
        // Clean probes reclose it.
        assert_eq!(
            b.observe(4, 0),
            Some((BreakerState::HalfOpen, BreakerState::Closed))
        );
    }

    #[test]
    fn failed_probes_reopen_with_a_fresh_cooldown() {
        let mut b = Breaker::new(policy());
        b.observe(10, 9);
        b.observe(0, 0);
        b.observe(0, 0);
        assert_eq!(b.state, BreakerState::HalfOpen);
        assert_eq!(
            b.observe(4, 1),
            Some((BreakerState::HalfOpen, BreakerState::Open))
        );
        // The reopen restarts the full cooldown.
        assert_eq!(b.observe(0, 0), None);
        assert_eq!(
            b.observe(0, 0),
            Some((BreakerState::Open, BreakerState::HalfOpen))
        );
    }

    #[test]
    fn halfopen_without_evidence_keeps_probing() {
        let mut b = Breaker::new(policy().cooldown_epochs(1));
        b.observe(10, 8);
        b.observe(0, 0);
        assert_eq!(b.state, BreakerState::HalfOpen);
        // Epochs where no probe reached the stage leave it half-open.
        assert_eq!(b.observe(0, 0), None);
        assert_eq!(b.observe(0, 0), None);
        assert_eq!(b.state, BreakerState::HalfOpen);
    }

    #[test]
    fn small_tail_epochs_cannot_trip_below_min_failures() {
        let mut b = Breaker::new(policy());
        // 2/2 = 100 % failed, but below min_failures: stays closed.
        assert_eq!(b.observe(2, 2), None);
        assert_eq!(b.state, BreakerState::Closed);
        // Ratio below threshold never trips either.
        assert_eq!(b.observe(10, 4), None);
        assert_eq!(b.state, BreakerState::Closed);
    }

    #[test]
    fn probe_schedule_is_a_pure_function_of_the_epoch() {
        let mut b = Breaker::new(policy());
        assert_eq!(b.mode(40), StageMode::Execute);
        b.observe(10, 8);
        assert_eq!(b.mode(50), StageMode::Degrade);
        b.observe(0, 0);
        b.observe(0, 0);
        // Half-open: exactly the first `probes` indices of the epoch run.
        assert_eq!(b.mode(70), StageMode::Probe { until: 74 });
        let m = b.mode(70);
        assert!(m.executes(70) && m.executes(73));
        assert!(!m.executes(74) && !m.executes(79));
        // Asking twice changes nothing: mode() is read-only.
        assert_eq!(b.mode(70), StageMode::Probe { until: 74 });
    }

    #[test]
    fn policy_floors_defend_degenerate_configs() {
        let p = BreakerPolicy::new().window(0).cooldown_epochs(0).probes(0);
        assert_eq!(p.window, 1);
        assert_eq!(p.cooldown_epochs, 1);
        assert_eq!(p.probes, 1);
    }
}
