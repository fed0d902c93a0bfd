//! The [`Stage`] trait and the per-item state it operates on.

use crate::fault::FailureRecord;
use coachlm_data::InstructionPair;
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one attempt at processing one item produced.
///
/// Rollback contract: a stage returning [`Retryable`](Self::Retryable) or
/// [`Fatal`](Self::Fatal) must leave the item exactly as it found it
/// (compute first, commit mutations only on the success path). The executor
/// relies on this instead of snapshotting the pair before every attempt,
/// which keeps the zero-fault hot path free of per-item clones.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageOutcome {
    /// The item was processed (it may still have been discarded via
    /// [`StageItem::discard`] — that is retention, not failure).
    Ok,
    /// The iteration committed its work to the item, and the stage wants
    /// another pass (a bounded revise-until-pass loop). The executor runs
    /// the stage body again with a fresh per-iteration RNG stream, charging
    /// [`service_time`](Stage::service_time) per body run; once
    /// [`iteration_budget`](Stage::iteration_budget) passes have committed,
    /// `Again` is accepted as [`Ok`](Self::Ok) — the loop is always
    /// bounded. Unlike the failure variants, `Again` *commits* its
    /// mutations: each pass is a durable partial revision, not a rollback.
    Again,
    /// The item flows no further; equivalent to `item.discard` with a
    /// `drop:<stage>` tag, for stages that prefer signalling over mutating.
    Drop,
    /// The attempt failed transiently; the executor retries under its
    /// [`RetryPolicy`](crate::RetryPolicy) and quarantines the item once
    /// attempts run out.
    Retryable(String),
    /// The item cannot be processed by this stage; it is quarantined
    /// immediately with the given error.
    Fatal(String),
}

impl StageOutcome {
    /// A transient failure with the given error message.
    pub fn retryable(error: impl Into<String>) -> Self {
        StageOutcome::Retryable(error.into())
    }

    /// A permanent failure with the given error message.
    pub fn fatal(error: impl Into<String>) -> Self {
        StageOutcome::Fatal(error.into())
    }
}

/// Where an item ended up after a chain run — exactly one of these holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Still flowing (or flowed out the end of the chain).
    Retained,
    /// A stage discarded it deliberately (filtering, not failure).
    Dropped,
    /// A stage failed on it until retries ran out, or failed permanently.
    Quarantined,
}

/// One step of a dataset-processing chain.
///
/// A stage sees each pair once, in isolation, and may rewrite it, discard
/// it, tag it, or attach a payload. Stages hold no per-item mutable state
/// (`&self`, `Sync`): all per-item randomness comes from the context's RNG,
/// which the executor seeds per (stage, item) so results are independent of
/// thread count and processing order.
pub trait Stage: Sync {
    /// Stage name, used in reports and to salt the per-item RNG.
    fn name(&self) -> &str;

    /// Processes one item. See [`StageOutcome`] for the rollback contract
    /// on the failure variants.
    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome;

    /// The stage's *simulated-time* budget per attempt, or `None` for no
    /// deadline (the default).
    ///
    /// Deadlines are enforced against simulated time only (see
    /// [`simtime`](crate::simtime)): when an injected latency spike
    /// exceeds the budget, the attempt is cut short as a `Retryable`
    /// timeout — the executor charges the budget (not the full spike) to
    /// [`latency_time`](crate::StageReport::latency_time) and feeds the
    /// item to the normal retry/quarantine machinery. Measured wall time
    /// is never compared against the budget, so a slow host cannot change
    /// results; a latency-fault storm degrades deterministically instead
    /// of hanging the chain.
    fn deadline(&self) -> Option<std::time::Duration> {
        None
    }

    /// Modeled per-item service time, used *only* by the virtual-time
    /// model in [`crate::stream`]:
    /// [`ChainOutput::sim_elapsed`](crate::ChainOutput::sim_elapsed)
    /// charges it per stage-body run. Every lane runs the whole chain, so
    /// it places no lanes. Never compared against measured wall time and
    /// never part of the output digest, so a wrong estimate skews the
    /// modeled throughput but can't change results. Defaults to 1ms — a
    /// cheap-ish local transform.
    fn service_time(&self) -> std::time::Duration {
        std::time::Duration::from_millis(1)
    }

    /// Hard cap on committed iteration passes per item for a looping stage
    /// (one returning [`StageOutcome::Again`]). Defaults to 1: a plain
    /// stage's first committed pass is its last, and `Again` from it is
    /// accepted immediately. Each pass gets its own RNG stream and fault
    /// rolls, charges [`service_time`](Self::service_time), and observes
    /// the per-attempt [`deadline`](Self::deadline); the budget is part of
    /// the journal fingerprint, so a resume under a different budget is
    /// refused rather than silently diverging.
    fn iteration_budget(&self) -> u32 {
        1
    }

    /// A fingerprint of learned state the stage's outcomes depend on
    /// beyond its name and the executor config — a trained model, say.
    /// Defaults to 0, for stages with no such state. It is part of the
    /// journal fingerprint, so a journal written under one model is
    /// refused on resume under another instead of replaying the first
    /// model's output as the second's.
    fn state_fingerprint(&self) -> u64 {
        0
    }
}

/// A pair flowing through a stage chain, with its bookkeeping.
pub struct StageItem {
    /// Position in the input dataset (output order preserves it).
    pub index: usize,
    /// The pair as it entered the chain, untouched. A revision-cache hit
    /// shares its representative's, which has the same content but the
    /// representative's id, so it stays private: read it through
    /// [`instruction_changed`](Self::instruction_changed) and
    /// [`response_changed`](Self::response_changed).
    original: Arc<InstructionPair>,
    /// The pair in its current, possibly rewritten, state.
    pub pair: InstructionPair,
    /// `false` once a stage discards the item (or the executor quarantines
    /// it); later stages skip it.
    pub retained: bool,
    /// Labels stages attach (e.g. a filter's exclusion reason).
    pub tags: Vec<String>,
    /// Set by the executor when the item is quarantined; `None` for
    /// retained and deliberately dropped items.
    pub failure: Option<FailureRecord>,
    payload: Option<Box<dyn Any + Send>>,
}

impl StageItem {
    /// Wraps a pair for processing.
    pub fn new(index: usize, pair: InstructionPair) -> Self {
        StageItem {
            index,
            original: Arc::new(pair.clone()),
            pair,
            retained: true,
            tags: Vec::new(),
            failure: None,
            payload: None,
        }
    }

    /// A revision-cache hit on `input`: it shares `original` with its
    /// representative, whose content is the same, and carries no text of
    /// its own until the sink writes the representative's record into
    /// it. It copies nothing from the input but the id and category.
    pub(crate) fn sharing(
        index: usize,
        input: &InstructionPair,
        original: Arc<InstructionPair>,
    ) -> Self {
        StageItem {
            index,
            original,
            pair: InstructionPair {
                id: input.id,
                instruction: String::new(),
                response: String::new(),
                category: input.category,
            },
            retained: true,
            tags: Vec::new(),
            failure: None,
            payload: None,
        }
    }

    /// The pair as it entered the chain, shared with any cache hits on it.
    pub(crate) fn original(&self) -> &Arc<InstructionPair> {
        &self.original
    }

    /// Drops the item from the chain, recording why.
    pub fn discard(&mut self, tag: impl Into<String>) {
        self.retained = false;
        self.tags.push(tag.into());
    }

    /// Quarantines the item: it stops flowing and carries a structured
    /// failure record. Called by the executor; stages signal failure by
    /// returning [`StageOutcome::Retryable`] / [`StageOutcome::Fatal`].
    pub(crate) fn quarantine(&mut self, record: FailureRecord) {
        self.retained = false;
        self.tags.push(format!("quarantined:{}", record.stage));
        self.failure = Some(record);
    }

    /// The item's terminal state. Exactly one disposition holds per item,
    /// which is what makes retained/dropped/quarantined an exact partition
    /// of the input.
    pub fn disposition(&self) -> Disposition {
        if self.failure.is_some() {
            Disposition::Quarantined
        } else if self.retained {
            Disposition::Retained
        } else {
            Disposition::Dropped
        }
    }

    /// Attaches a label without changing retention.
    pub fn tag(&mut self, tag: impl Into<String>) {
        self.tags.push(tag.into());
    }

    /// `true` if any attached tag equals `tag`.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }

    /// Stores a typed payload (e.g. a revision record), replacing any
    /// previous one.
    pub fn set_payload<T: Any + Send>(&mut self, value: T) {
        self.payload = Some(Box::new(value));
    }

    /// Removes and returns the payload if it has type `T`.
    pub fn take_payload<T: Any>(&mut self) -> Option<T> {
        let boxed = self.payload.take()?;
        match boxed.downcast::<T>() {
            Ok(v) => Some(*v),
            Err(other) => {
                self.payload = Some(other);
                None
            }
        }
    }

    /// `true` when some stage rewrote the instruction.
    pub fn instruction_changed(&self) -> bool {
        self.pair.instruction != self.original.instruction
    }

    /// `true` when some stage rewrote the response.
    pub fn response_changed(&self) -> bool {
        self.pair.response != self.original.response
    }
}

/// Per-(stage, item) context handed to [`Stage::process`].
pub struct StageCtx<'a> {
    /// RNG seeded for exactly this (stage, item) — identical draws no
    /// matter which worker thread runs the item.
    pub rng: StdRng,
    pub(crate) counters: &'a mut BTreeMap<String, u64>,
}

impl StageCtx<'_> {
    /// Increments the stage counter `key` by one.
    pub fn bump(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `n` to the stage counter `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        // Look up before inserting, so the key is copied only once.
        match self.counters.get_mut(key) {
            Some(count) => *count += n,
            None => {
                self.counters.insert(key.to_string(), n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::Category;

    fn pair(id: u64) -> InstructionPair {
        InstructionPair::new(id, "Say hi.", "Hi there.", Category(0))
    }

    #[test]
    fn payload_round_trips_and_preserves_on_type_mismatch() {
        let mut item = StageItem::new(0, pair(7));
        item.set_payload(42u64);
        assert_eq!(item.take_payload::<String>(), None);
        assert_eq!(item.take_payload::<u64>(), Some(42));
        assert_eq!(item.take_payload::<u64>(), None);
    }

    #[test]
    fn discard_records_reason() {
        let mut item = StageItem::new(3, pair(9));
        assert!(item.retained);
        assert_eq!(item.disposition(), Disposition::Retained);
        item.discard("filter:safety");
        assert!(!item.retained);
        assert!(item.has_tag("filter:safety"));
        assert_eq!(item.disposition(), Disposition::Dropped);
    }

    #[test]
    fn quarantine_is_a_distinct_disposition() {
        use crate::fault::{FailureKind, FailureRecord};
        let mut item = StageItem::new(0, pair(2));
        item.quarantine(FailureRecord {
            stage: "coach-revise".into(),
            attempts: 3,
            error: "injected: transient".into(),
            kind: FailureKind::RetriesExhausted,
        });
        assert!(!item.retained);
        assert_eq!(item.disposition(), Disposition::Quarantined);
        assert!(item.has_tag("quarantined:coach-revise"));
        assert_eq!(item.failure.as_ref().unwrap().attempts, 3);
    }

    #[test]
    fn change_tracking_compares_against_original() {
        let mut item = StageItem::new(0, pair(1));
        assert!(!item.response_changed());
        item.pair.response = "Hello!".into();
        assert!(item.response_changed());
        assert!(!item.instruction_changed());
    }
}
