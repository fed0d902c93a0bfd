//! The deterministic executor: public entry points over the streaming
//! core in [`crate::stream`].

use crate::breaker::BreakerEvent;
use crate::breaker::BreakerPolicy;
use crate::cache::{CachePolicy, CacheStats};
use crate::fault::{
    FailureKind, FailureRecord, FaultPlan, Quarantine, QuarantinedPair, RetryPolicy,
};
use crate::journal::{HeaderRecord, ItemTrace, Journal, JournalError, JOURNAL_VERSION};
use crate::report::StageReport;
use crate::stage::{Disposition, Stage, StageItem};
use crate::stream::{run_pipeline, Feed, Replay, StreamEnv, StreamSource};
use coachlm_data::{Dataset, InstructionPair};
use coachlm_text::fxhash::FxHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::time::Duration;

/// How a chain run is parallelised, seeded, and hardened.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    // lint: allow(F1, reason = "thread count changes wall-clock time only; a 16-thread journal must resume on a 1-thread host")
    threads: usize,
    seed: u64,
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    breaker: Option<BreakerPolicy>,
    // lint: allow(F1, reason = "backpressure bound shifts timing, never outcomes; resuming under a different capacity is supported")
    queue_capacity: usize,
    // lint: allow(F1, reason = "epoch length only batches journal flushes; replay is frame-exact regardless")
    epoch_len: usize,
    content_keyed: bool,
    revision_cache: Option<CachePolicy>,
}

impl ExecutorConfig {
    /// A config with the given chain seed and the default thread count:
    /// `std::thread::available_parallelism()` (1 if unavailable). The
    /// thread count never changes results, only wall-clock time, so the
    /// default is right unless an experiment pins threads for comparison.
    /// No faults are injected unless a [`FaultPlan`] is set, and no
    /// circuit breaking happens unless a [`BreakerPolicy`] is set.
    pub fn new(seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        ExecutorConfig {
            threads,
            seed,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            breaker: None,
            queue_capacity: 64,
            epoch_len: 256,
            content_keyed: false,
            revision_cache: None,
        }
    }

    /// Overrides the worker count (floored at 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the fault plan to inject (defaults to [`FaultPlan::none`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the retry policy (defaults to [`RetryPolicy::default`]).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Enables per-stage circuit breaking under `policy` (defaults to
    /// none — every item always executes every stage).
    pub fn breaker(mut self, policy: BreakerPolicy) -> Self {
        self.breaker = Some(policy);
        self
    }

    /// Overrides the capacity of the lanes' bounded output queue, in items
    /// (floored at 1; defaults to 64). The items in flight are that queue
    /// plus one chunk per lane. A wall-clock/memory knob only: like the
    /// thread count, it never changes results.
    pub fn queue_capacity(mut self, items: usize) -> Self {
        self.queue_capacity = items.max(1);
        self
    }

    /// Overrides the logical-epoch length used when *no* breaker is
    /// configured (floored at 1; defaults to 256). A journaled run fsyncs
    /// its journal at every epoch boundary (the commit frame); with a
    /// [`BreakerPolicy`] set, its `window` is the epoch length instead. A
    /// supervised worker sends its `EPOCH` heartbeat every this many item
    /// frames, breaker or not.
    pub fn epoch_len(mut self, items: usize) -> Self {
        self.epoch_len = items.max(1);
        self
    }

    /// Keys each item's per-stage RNG and fault rolls on a fingerprint of
    /// its *content* (instruction, response, category) instead of its pair
    /// id, so items with identical content behave identically regardless
    /// of id or arrival position. Off by default: with distinct ids the
    /// historical id-keyed behaviour is what golden digests pin. Forced on
    /// by [`revision_cache`](Self::revision_cache) — content keying is
    /// what makes replaying a duplicate's cached result indistinguishable
    /// from executing it. Part of the journal fingerprint.
    pub fn content_keyed(mut self, on: bool) -> Self {
        self.content_keyed = on;
        self
    }

    /// Enables the content-addressed revision cache (see [`crate::cache`]):
    /// duplicate items skip the stage chain and replay their
    /// representative's memoized result at the sink. Implies
    /// [`content_keyed`](Self::content_keyed). Incompatible with a
    /// [`BreakerPolicy`] — degraded passthrough keys on item index, not
    /// content, so duplicates may legitimately diverge under a breaker.
    pub fn revision_cache(mut self, policy: CachePolicy) -> Self {
        self.revision_cache = Some(policy);
        self
    }

    /// The configured breaker-less logical-epoch length, in items.
    pub fn epoch_length(&self) -> usize {
        self.epoch_len
    }

    /// The configured breaker policy, if circuit breaking is enabled.
    pub fn breaker_policy(&self) -> Option<&BreakerPolicy> {
        self.breaker.as_ref()
    }

    /// The chain seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` when per-item randomness keys on content fingerprints —
    /// set explicitly or implied by a configured revision cache.
    pub fn is_content_keyed(&self) -> bool {
        self.content_keyed || self.revision_cache.is_some()
    }

    /// Folds every outcome-bearing knob into the run fingerprint: seed,
    /// retry policy, fault plan, breaker policy, content keying, and
    /// whether the revision cache is on. `threads`, `queue_capacity`, and
    /// `epoch_len` are deliberately excluded (see the `allow(F1)`
    /// justifications on the fields) — they shift wall-clock behaviour
    /// only, and a journal written under one setting must resume under
    /// another. The static fingerprint-coverage check (`F1`) verifies
    /// this method against the field list.
    pub(crate) fn fingerprint_into(&self, h: &mut impl std::hash::Hasher) {
        h.write_u64(self.seed);
        self.retry.fingerprint_into(h);
        self.fault_plan.fingerprint_into(h);
        match &self.breaker {
            None => h.write_u8(0),
            Some(policy) => {
                h.write_u8(1);
                policy.fingerprint_into(h);
            }
        }
        // Content keying changes every RNG stream and fault roll, and the
        // cache decides which items replay instead of execute —
        // both are part of run outcomes. Hash the *effective* keying,
        // matching what the executor actually keys on.
        h.write_u8(u8::from(
            self.content_keyed || self.revision_cache.is_some(),
        ));
        h.write_u8(u8::from(self.revision_cache.is_some()));
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::new(0)
    }
}

/// Runs stage chains over datasets in parallel, deterministically.
pub struct Executor {
    config: ExecutorConfig,
}

/// Everything a chain run produced.
pub struct ChainOutput {
    /// All items, in input order, including discarded ones (their tags say
    /// why they were dropped).
    pub items: Vec<StageItem>,
    /// One report per stage, in chain order.
    pub reports: Vec<StageReport>,
    /// Breaker transitions, in (epoch, stage) order; empty unless the
    /// config set a [`BreakerPolicy`].
    pub breaker_events: Vec<BreakerEvent>,
    /// Items replayed from a journal instead of executed (always 0 for
    /// [`Executor::run`]).
    pub replayed: usize,
    /// Items shed by admission control before entering the chain (always
    /// 0 under a [`Feed::Batch`] source). Shed items still appear in
    /// [`items`](Self::items), discarded with a `shed:admission` tag.
    pub shed: usize,
    /// Modeled end-to-end elapsed time of the run under the virtual-time
    /// model: the completion time of the last item given the run's lanes
    /// (and, under a breaker, its epoch gate), each stage's declared
    /// service time, and the deterministic backoff/latency channels.
    /// Deterministic for a fixed config, but *excluded* from
    /// [`digest`](Self::digest) — it varies with the configured thread
    /// count by design.
    pub sim_elapsed: Duration,
    /// Revision-cache tallies (all zeros unless the config enabled a
    /// [`CachePolicy`]). Deterministic for a fixed config — the pre-pass
    /// classifying items is sequential and thread-independent — but
    /// excluded from [`digest`](Self::digest) like the other
    /// run-mechanics counters: a cached and an uncached run of the same
    /// content-keyed chain must digest identically.
    pub revision_cache: CacheStats,
}

impl ChainOutput {
    /// The retained items, in input order.
    pub fn retained(&self) -> impl Iterator<Item = &StageItem> {
        self.items.iter().filter(|i| i.retained)
    }

    /// Items a stage deliberately discarded, in input order.
    pub fn dropped(&self) -> impl Iterator<Item = &StageItem> {
        self.items
            .iter()
            .filter(|i| !i.retained && i.failure.is_none())
    }

    /// Items quarantined by a failing stage, in input order.
    pub fn quarantined(&self) -> impl Iterator<Item = &StageItem> {
        self.items.iter().filter(|i| i.failure.is_some())
    }

    /// Moves the retained pairs out into a dataset, consuming the output.
    pub fn into_dataset(self, name: impl Into<String>) -> Dataset {
        Dataset {
            name: name.into(),
            pairs: self
                .items
                .into_iter()
                .filter(|i| i.retained)
                .map(|i| i.pair)
                .collect(),
        }
    }

    /// Collects the quarantined items — each pair in the state it entered
    /// the failing stage, with its [`FailureRecord`] — for remediation.
    pub fn quarantine(&self, name: impl Into<String>) -> Quarantine {
        Quarantine {
            name: name.into(),
            items: self
                .items
                .iter()
                .filter_map(|i| {
                    i.failure.as_ref().map(|failure| QuarantinedPair {
                        index: i.index,
                        pair: i.pair.clone(),
                        failure: failure.clone(),
                    })
                })
                .collect(),
        }
    }

    /// The report for the named stage, if it ran.
    pub fn report(&self, stage: &str) -> Option<&StageReport> {
        self.reports.iter().find(|r| r.stage == stage)
    }

    /// Total attributed stage time across the whole chain: measured body
    /// time plus the simulated backoff/latency channels.
    pub fn total_time(&self) -> Duration {
        self.reports.iter().map(|r| r.total_time()).sum()
    }

    /// Retry attempts summed across all stages (deterministic).
    pub fn total_retries(&self) -> u64 {
        self.reports.iter().map(|r| r.retries).sum()
    }

    /// Quarantined items summed across all stages (deterministic; equals
    /// `self.quarantined().count()`).
    pub fn total_quarantined(&self) -> usize {
        self.reports.iter().map(|r| r.quarantined).sum()
    }

    /// Items that passed through at least one open breaker, summed across
    /// stages (deterministic).
    pub fn total_degraded(&self) -> usize {
        self.reports.iter().map(|r| r.degraded).sum()
    }

    /// A digest over every *deterministic* output field: item states,
    /// report counts/counters and simulated time channels, and breaker
    /// transitions. Measured `cpu_time`, the revision-cache tallies, and
    /// the [`replayed`](Self::replayed) count are excluded — they are run
    /// mechanics, not outcomes. Two runs of the same chain agree on this
    /// digest at any thread count, queue capacity, and across a crash/resume,
    /// which is exactly what the crash-matrix CI step asserts.
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(self.items.len() as u64);
        for item in &self.items {
            h.write_u64(item_digest(item));
        }
        for r in &self.reports {
            h.write(r.stage.as_bytes());
            h.write_u8(0xFF);
            h.write_u64(r.items_in as u64);
            h.write_u64(r.items_out as u64);
            h.write_u64(r.quarantined as u64);
            h.write_u64(r.retries);
            h.write_u64(r.iterations);
            h.write_u64(r.faults_injected);
            h.write_u64(r.timeouts);
            h.write_u64(r.degraded as u64);
            h.write_u64(u64::try_from(r.backoff_time.as_nanos()).unwrap_or(u64::MAX));
            h.write_u64(u64::try_from(r.latency_time.as_nanos()).unwrap_or(u64::MAX));
            for (key, v) in &r.counters {
                h.write(key.as_bytes());
                h.write_u8(0xFF);
                h.write_u64(*v);
            }
        }
        h.write_u64(self.breaker_events.len() as u64);
        for e in &self.breaker_events {
            h.write(e.stage.as_bytes());
            h.write_u8(0xFF);
            h.write_u64(e.epoch as u64);
            h.write_u8(state_code(e.from));
            h.write_u8(state_code(e.to));
        }
        h.finish()
    }
}

fn state_code(s: crate::breaker::BreakerState) -> u8 {
    match s {
        crate::breaker::BreakerState::Closed => 0,
        crate::breaker::BreakerState::Open => 1,
        crate::breaker::BreakerState::HalfOpen => 2,
    }
}

/// Digest of one item's terminal deterministic state; recorded in journal
/// records and re-verified on replay so a journal that no longer matches
/// its run is rejected instead of silently diverging.
pub(crate) fn item_digest(item: &StageItem) -> u64 {
    let pair = &item.pair;
    state_digest(
        item.index,
        pair.id,
        item.disposition(),
        &pair.instruction,
        &pair.response,
        &item.tags,
        item.failure.as_ref(),
    )
}

/// [`item_digest`] over the parts of an item's terminal state, so a
/// journal record can be checked without building its item.
fn state_digest(
    index: usize,
    pair_id: u64,
    disposition: Disposition,
    instruction: &str,
    response: &str,
    tags: &[String],
    failure: Option<&FailureRecord>,
) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(index as u64);
    h.write_u64(pair_id);
    h.write_u8(match disposition {
        Disposition::Retained => 0,
        Disposition::Dropped => 1,
        Disposition::Quarantined => 2,
    });
    h.write(instruction.as_bytes());
    h.write_u8(0xFE);
    h.write(response.as_bytes());
    h.write_u8(0xFE);
    h.write_u64(tags.len() as u64);
    for tag in tags {
        h.write(tag.as_bytes());
        h.write_u8(0xFE);
    }
    match failure {
        None => h.write_u8(0),
        Some(f) => {
            h.write_u8(1);
            h.write(f.stage.as_bytes());
            h.write_u8(0xFE);
            h.write_u32(f.attempts);
            h.write(f.error.as_bytes());
            h.write_u8(0xFE);
            h.write_u8(match f.kind {
                FailureKind::RetriesExhausted => 0,
                FailureKind::Fatal => 1,
            });
        }
    }
    h.finish()
}

impl Executor {
    /// An executor with the given config.
    pub fn new(config: ExecutorConfig) -> Self {
        Executor { config }
    }

    /// This executor's config.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Runs `stages` over `pairs` — a thin wrapper feeding a bounded
    /// batch source into [`run_stream`](Self::run_stream).
    ///
    /// Items are collected in input order regardless of the thread count
    /// or queue capacity. Stage failures never panic the run: transient
    /// failures retry under the config's [`RetryPolicy`], and items that
    /// exhaust retries or fail permanently land in the quarantine channel
    /// with a [`crate::fault::FailureRecord`]. With the default inert
    /// [`FaultPlan`], no breaker, and stages that only return
    /// `Ok`/`Drop`, behaviour is identical to the pre-fault executor.
    pub fn run(&self, stages: &[Box<dyn Stage + '_>], pairs: &[InstructionPair]) -> ChainOutput {
        self.run_stream(stages, StreamSource::batch(pairs))
    }

    /// Runs `stages` over a streaming source.
    ///
    /// Chunks of items flow over a bounded, sequenced queue with
    /// backpressure and no batch barriers. The run is data-parallel: each
    /// of the configured threads takes the next chunk and runs the whole
    /// chain on it, and the sink restores input order. With a
    /// [`BreakerPolicy`], no chunk of a logical epoch (a fixed index
    /// window) starts before every chunk of the previous epoch has
    /// finished, so the breakers advance between epochs exactly as in a
    /// sequential run. Breaker transitions and journal frames key off
    /// these epochs, so the output is digest-identical at any thread count
    /// or queue capacity — see [`crate::stream`] for the full model.
    ///
    /// A [`Feed::Sustained`] source models continuous arrivals with
    /// admission control: arrivals that find the admission backlog full
    /// are shed up front (counted in [`ChainOutput::shed`], tagged
    /// `shed:admission`). Shedding depends only on the feed parameters,
    /// never on threads or queues.
    pub fn run_stream(
        &self,
        stages: &[Box<dyn Stage + '_>],
        source: StreamSource<'_>,
    ) -> ChainOutput {
        self.stream_core(stages, source, Replay::none(), None).0
    }

    /// Runs `stages` over `pairs`, journaling every committed item to
    /// `journal` so a killed process can resume where it left off: the
    /// same call both starts and resumes a journaled run, so a
    /// crash-restart loop needs no "first time?" branch.
    ///
    /// On a fresh journal this writes the header (format version, input
    /// length, and a fingerprint of everything that determines outcomes)
    /// and then behaves exactly like [`run`](Self::run), appending one
    /// checksummed record per finished item as workers commit them. On a
    /// journal recovered by [`Journal::open`], the committed records are
    /// *replayed* — their items are rebuilt and digest-checked, their
    /// report and breaker contributions re-applied — and only the
    /// remaining frontier executes. Replay composes with fresh execution
    /// bit-for-bit: items, deterministic report fields, quarantine, and
    /// breaker evolution are identical to an uninterrupted run at any
    /// thread count and queue capacity, with any [`FaultPlan`].
    ///
    /// Fails with [`JournalError::Incompatible`] when the journal belongs
    /// to a different run (seed, stages, learned stage state, policies, or
    /// input changed), and with [`JournalError::Io`] when journal writes
    /// fail (the run itself still completes before the error is surfaced).
    pub fn run_journaled(
        &self,
        stages: &[Box<dyn Stage + '_>],
        pairs: &[InstructionPair],
        journal: &mut Journal,
    ) -> Result<ChainOutput, JournalError> {
        self.run_stream_journaled(stages, StreamSource::batch(pairs), journal)
    }

    /// Journaled variant of [`run_stream`](Self::run_stream): the
    /// streaming counterpart of [`run_journaled`](Self::run_journaled),
    /// with the source's [`Feed`] folded into the run fingerprint (a
    /// journal written under one arrival model must not resume under
    /// another — shed decisions are part of run outcomes).
    pub fn run_stream_journaled(
        &self,
        stages: &[Box<dyn Stage + '_>],
        source: StreamSource<'_>,
        journal: &mut Journal,
    ) -> Result<ChainOutput, JournalError> {
        let fingerprint = self.fingerprint(stages, source.pairs, &source.feed);
        let input_len = source.pairs.len() as u64;
        match journal.header() {
            None => journal.write_header(HeaderRecord {
                version: JOURNAL_VERSION,
                input_len,
                fingerprint,
            })?,
            Some(h) => {
                if h.version != JOURNAL_VERSION {
                    return Err(JournalError::Incompatible(format!(
                        "journal format v{} but this build writes v{JOURNAL_VERSION}",
                        h.version
                    )));
                }
                if h.input_len != input_len {
                    return Err(JournalError::Incompatible(format!(
                        "journal covers a {}-item input, this run has {input_len}",
                        h.input_len
                    )));
                }
                if h.fingerprint != fingerprint {
                    return Err(JournalError::Incompatible(
                        "run fingerprint mismatch: seed, stages, learned stage state, policies, \
                         or input differ from the run that wrote this journal"
                            .to_string(),
                    ));
                }
            }
        }

        let traces = journal.take_committed();
        check_traces(stages.len(), source.pairs, &traces, None)?;
        let replay = Replay {
            traces,
            imposed: None,
        };
        let (out, io_error) = self.stream_core(stages, source, replay, Some(&mut *journal));
        journal.sync()?;
        if let Some(e) = io_error {
            return Err(e.into());
        }
        Ok(out)
    }

    /// Rebuilds a full [`ChainOutput`] purely from collected item traces,
    /// executing nothing: every input index must carry either a committed
    /// trace (replayed through the normal journal-replay machinery, digest
    /// verified) or a supervisor-imposed failure in `imposed` (the item is
    /// quarantined with that record and zero per-stage deltas — it never
    /// committed any stage anywhere). By the crash-resume invariant, a
    /// trace set covering the whole input reproduces the originating run's
    /// digest exactly; the supervised multi-process driver
    /// ([`crate::supervise`]) uses this to reconstruct each worker shard's
    /// output on the parent side of the process boundary.
    pub(crate) fn replay_collected(
        &self,
        stages: &[Box<dyn Stage + '_>],
        pairs: &[InstructionPair],
        traces: BTreeMap<u64, ItemTrace>,
        imposed: &BTreeMap<u64, FailureRecord>,
    ) -> Result<ChainOutput, JournalError> {
        check_traces(stages.len(), pairs, &traces, Some(imposed))?;
        let replay = Replay {
            traces,
            imposed: Some(imposed),
        };
        Ok(self
            .stream_core(stages, StreamSource::batch(pairs), replay, None)
            .0)
    }

    /// Hash of everything that determines run outcomes: the config's
    /// outcome-bearing knobs (see [`ExecutorConfig::fingerprint_into`]),
    /// stage names, deadlines, iteration budgets, and learned-state
    /// fingerprints ([`Stage::state_fingerprint`]), the feed (arrival
    /// model), and the full input content. Thread count and queue
    /// capacity are deliberately excluded — they never affect results,
    /// and a journal written by a 16-thread run must resume on a
    /// 1-thread one.
    fn fingerprint(
        &self,
        stages: &[Box<dyn Stage + '_>],
        pairs: &[InstructionPair],
        feed: &Feed,
    ) -> u64 {
        let mut h = FxHasher::default();
        self.config.fingerprint_into(&mut h);
        h.write_u64(stages.len() as u64);
        for stage in stages {
            h.write(stage.name().as_bytes());
            h.write_u8(0xFF);
            match stage.deadline() {
                None => h.write_u8(0),
                Some(budget) => {
                    h.write_u8(1);
                    h.write_u128(budget.as_nanos());
                }
            }
            // The iteration budget bounds how many committed passes a
            // looping stage may take, which changes outcomes — a journal
            // written under one budget must not resume under another.
            h.write_u32(stage.iteration_budget().max(1));
            h.write_u64(stage.state_fingerprint());
        }
        feed.fingerprint_into(&mut h);
        h.write_u64(pairs.len() as u64);
        for p in pairs {
            h.write_u64(p.id);
            h.write(p.instruction.as_bytes());
            h.write_u8(0xFE);
            h.write(p.response.as_bytes());
            h.write_u8(0xFE);
            h.write_u16(p.category.0);
        }
        h.finish()
    }

    /// The shared core: builds the per-stage tables (salts, deadlines,
    /// modeled service times), derives the logical-epoch window (the
    /// breaker's window when one is configured, the config's `epoch_len`
    /// otherwise), and hands the borrowed source and the checked journal
    /// records to the streaming engine. Returns the output and the first
    /// journal write error, if any.
    fn stream_core(
        &self,
        stages: &[Box<dyn Stage + '_>],
        source: StreamSource<'_>,
        replay: Replay<'_>,
        journal: Option<&mut Journal>,
    ) -> (ChainOutput, Option<std::io::Error>) {
        let replayed = replay.traces.len();
        let salts: Vec<u64> = stages
            .iter()
            .enumerate()
            .map(|(k, s)| stage_salt(s.name(), k))
            .collect();
        let deadlines: Vec<Option<Duration>> = stages.iter().map(|s| s.deadline()).collect();
        let service: Vec<u64> = stages
            .iter()
            .map(|s| u64::try_from(s.service_time().as_nanos()).unwrap_or(u64::MAX))
            .collect();
        let budgets: Vec<u32> = stages.iter().map(|s| s.iteration_budget().max(1)).collect();
        let window = self
            .config
            .breaker
            .as_ref()
            .map_or(self.config.epoch_len, |p| p.window)
            .max(1);
        assert!(
            self.config.revision_cache.is_none() || self.config.breaker.is_none(),
            "a revision cache cannot be combined with a circuit breaker: degraded \
             passthrough keys on item index, not content, so duplicate items may \
             legitimately diverge and hit replay would break digest identity"
        );
        let env = StreamEnv {
            stages,
            salts: &salts,
            deadlines: &deadlines,
            service: &service,
            budgets: &budgets,
            seed: self.config.seed,
            plan: &self.config.fault_plan,
            retry: &self.config.retry,
            breaker: self.config.breaker.as_ref(),
            window,
            content_keyed: self.config.is_content_keyed(),
            cache: self.config.revision_cache.is_some(),
        };
        let run = run_pipeline(
            &env,
            journal,
            self.config.threads,
            self.config.queue_capacity,
            source,
            replay,
        );
        let out = ChainOutput {
            items: run.items,
            reports: run.reports,
            breaker_events: run.breaker_events,
            replayed,
            shed: run.shed,
            sim_elapsed: run.sim_elapsed,
            revision_cache: run.revision,
        };
        (out, run.journal_error)
    }
}

/// The one trace check behind journal resume and supervised
/// reconstruction, run over the whole input before any stage runs. For
/// each input index that has a trace it checks the pair id, the recorded
/// digest of the state the trace rebuilds (see [`trace_digest`]) and every
/// recorded stage index against the chain length. In a replay-only run
/// (`imposed` set) an index without a trace must carry an imposed
/// failure. Traces past the end of the input are rejected.
fn check_traces(
    chain_len: usize,
    pairs: &[InstructionPair],
    traces: &BTreeMap<u64, ItemTrace>,
    imposed: Option<&BTreeMap<u64, FailureRecord>>,
) -> Result<(), JournalError> {
    for (i, pair) in pairs.iter().enumerate() {
        let Some(trace) = traces.get(&(i as u64)) else {
            if imposed.is_some_and(|imposed| !imposed.contains_key(&(i as u64))) {
                return Err(JournalError::Incompatible(format!(
                    "item {i}: no trace collected and no imposed failure — \
                     replay-only reconstruction cannot execute it"
                )));
            }
            continue;
        };
        if trace.pair_id != pair.id {
            return Err(JournalError::Incompatible(format!(
                "item {i}: trace records pair id {}, input has {}",
                trace.pair_id, pair.id
            )));
        }
        check_digest(i, pair, trace)?;
        if let Some(e) = trace.stages.iter().find(|e| e.stage as usize >= chain_len) {
            return Err(JournalError::Incompatible(format!(
                "item {i}: trace references stage {} but the chain has {chain_len}",
                e.stage
            )));
        }
    }
    let input_len = pairs.len();
    if let Some((&index, _)) = traces.range(input_len as u64..).next() {
        return Err(JournalError::Incompatible(format!(
            "trace set records item {index}, beyond the {input_len}-item input"
        )));
    }
    Ok(())
}

/// The digest of the terminal state a journal record rebuilds on `pair`
/// at `index` — what [`item_digest`] returns for the replayed item —
/// computed without building it. Fails on a disposition the record cannot
/// carry.
fn trace_digest(
    index: usize,
    pair: &InstructionPair,
    trace: &ItemTrace,
) -> Result<u64, JournalError> {
    let (disposition, failure) = match trace.disposition {
        0 => (Disposition::Retained, None),
        1 => (Disposition::Dropped, None),
        2 => {
            let Some(failure) = &trace.failure else {
                return Err(JournalError::Incompatible(format!(
                    "item {index}: quarantined record carries no failure"
                )));
            };
            (Disposition::Quarantined, Some(failure))
        }
        d => {
            return Err(JournalError::Incompatible(format!(
                "item {index}: unknown disposition {d}"
            )));
        }
    };
    Ok(state_digest(
        index,
        pair.id,
        disposition,
        trace.instruction.as_deref().unwrap_or(&pair.instruction),
        trace.response.as_deref().unwrap_or(&pair.response),
        &trace.tags,
        failure,
    ))
}

/// Verifies a record's content digest, so a stale or hand-edited record
/// cannot smuggle in a divergent item.
fn check_digest(
    index: usize,
    pair: &InstructionPair,
    trace: &ItemTrace,
) -> Result<(), JournalError> {
    if trace_digest(index, pair, trace)? != trace.digest {
        return Err(JournalError::Incompatible(format!(
            "item {index}: replayed state does not match its recorded digest"
        )));
    }
    Ok(())
}

/// Re-keys a collected trace onto a new input index: verifies the trace
/// against `pair` under the index it was recorded at, then recomputes the
/// content digest (which covers the index) for `new_index`. The supervised
/// driver's failover and bisection runs execute items at subset-local
/// indices; their traces must be translated back to shard-local ones
/// before [`Executor::replay_collected`] will accept them. Everything
/// position-dependent about an item lives in its index alone — stage
/// outcomes key on pair id and content — so the translation is exact.
pub(crate) fn rekey_trace(
    pair: &InstructionPair,
    trace: ItemTrace,
    new_index: u64,
) -> Result<ItemTrace, JournalError> {
    if trace.pair_id != pair.id {
        return Err(JournalError::Incompatible(format!(
            "re-keyed trace records pair id {}, input has {}",
            trace.pair_id, pair.id
        )));
    }
    check_digest(trace.index as usize, pair, &trace)?;
    Ok(ItemTrace {
        index: new_index,
        digest: trace_digest(new_index as usize, pair, &trace)?,
        ..trace
    })
}

/// Mixes a stage's name and chain position into an RNG salt, so distinct
/// stages (even two instances of the same type) draw distinct streams.
fn stage_salt(name: &str, position: usize) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
        .wrapping_add((position as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seed for one (stage, item), given the hoisted per-stage base
/// `chain_seed ^ stage_salt`: independent of worker assignment.
pub(crate) fn item_seed(seed_base: u64, id: u64) -> u64 {
    seed_base ^ id.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The chunk width the streaming core hands through its queues, adapted
/// to both the lane count and the bounded-queue capacity.
///
/// Small enough that a straggler only ever holds a sliver of the batch
/// (at least `CHUNKS_PER_LANE` chunks per lane), large enough to amortise
/// the handoff — and sized *up* when the queue is roomy: the lanes'
/// output queue must hold at least two chunks for lanes to overlap at
/// all, so the ceiling tracks `queue_capacity / (2 × lanes)` instead of a
/// fixed 64. The handoff cost (a lock and a condvar wake per chunk) is
/// the streaming core's main wall-clock overhead on a single core, so
/// bigger chunks under bigger queues cut it. Purely a wall-clock knob:
/// like the queue capacity itself, the chunk size never changes results.
///
/// Public so benches can record the width a configuration actually ran
/// with next to its timings.
pub fn adaptive_chunk_size(n: usize, lanes: usize, queue_capacity: usize) -> usize {
    const CHUNKS_PER_LANE: usize = 8;
    let lanes = lanes.max(1);
    // Keep >= 2 chunks per bounded queue window so handoffs can overlap;
    // never drop the ceiling below the old fixed cap's neighbourhood, and
    // never balloon past 256 items per claim.
    let queue_bound = (queue_capacity.max(1) / (2 * lanes)).max(1);
    let upper = queue_bound.clamp(16, 256);
    n.div_ceil(lanes * CHUNKS_PER_LANE).clamp(1, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use crate::journal::StageTrace;
    use crate::stage::{StageCtx, StageOutcome};
    use coachlm_data::Category;
    use rand::Rng;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    fn pairs(n: usize) -> Vec<InstructionPair> {
        (0..n as u64)
            .map(|id| {
                InstructionPair::new(
                    id,
                    format!("Question {id}?"),
                    format!("Answer {id}."),
                    Category(0),
                )
            })
            .collect()
    }

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    fn temp_journal(tag: &str) -> PathBuf {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "coachlm-executor-unit-{}-{tag}-{n}.wal",
            std::process::id()
        ))
    }

    /// Appends a seeded random suffix and counts even ids.
    struct Scribble;

    impl Stage for Scribble {
        fn name(&self) -> &str {
            "scribble"
        }
        fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
            let roll: u64 = ctx.rng.gen_range(0..1000);
            item.pair.response.push_str(&format!(" [{roll}]"));
            if item.pair.id.is_multiple_of(2) {
                ctx.bump("even");
            }
            StageOutcome::Ok
        }
    }

    /// Discards ids divisible by 5.
    struct DropFifths;

    impl Stage for DropFifths {
        fn name(&self) -> &str {
            "drop-fifths"
        }
        fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
            if item.pair.id.is_multiple_of(5) {
                item.discard("fifth");
                ctx.bump("dropped");
            }
            StageOutcome::Ok
        }
    }

    /// Fails organically: ids divisible by `fatal_every` are fatal, ids
    /// divisible by `retry_every` return a transient error every attempt
    /// (a deterministic stage retries into the same failure).
    struct Flaky {
        retry_every: u64,
        fatal_every: u64,
    }

    impl Stage for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
            if item.pair.id.is_multiple_of(self.fatal_every) {
                StageOutcome::fatal("organic: unparseable")
            } else if item.pair.id.is_multiple_of(self.retry_every) {
                StageOutcome::retryable("organic: flaky")
            } else {
                StageOutcome::Ok
            }
        }
    }

    /// Wraps any stage with a simulated-time deadline budget.
    struct Budgeted<S>(S, Duration);

    impl<S: Stage> Stage for Budgeted<S> {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
            self.0.process(item, ctx)
        }
        fn deadline(&self) -> Option<Duration> {
            Some(self.1)
        }
    }

    /// A bounded revise-until-pass loop: appends one seeded token per
    /// committed pass and asks for another pass until the response
    /// carries `(id % 5) + 1` of them.
    struct Polish {
        budget: u32,
    }

    impl Stage for Polish {
        fn name(&self) -> &str {
            "polish"
        }
        fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
            let roll: u64 = ctx.rng.gen_range(0..1000);
            item.pair.response.push_str(&format!(" <{roll}>"));
            ctx.bump("passes");
            let want = (item.pair.id % 5) as usize + 1;
            if item.pair.response.matches('<').count() < want {
                StageOutcome::Again
            } else {
                StageOutcome::Ok
            }
        }
        fn iteration_budget(&self) -> u32 {
            self.budget
        }
    }

    fn chain() -> Vec<Box<dyn Stage>> {
        vec![Box::new(Scribble), Box::new(DropFifths)]
    }

    #[test]
    fn looping_stage_is_bounded_and_counts_iterations() {
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(Polish { budget: 3 })];
        let out = Executor::new(ExecutorConfig::new(9).threads(4)).run(&stages, &pairs(40));
        let report = out.report("polish").unwrap();
        let mut expected = 0u64;
        for item in &out.items {
            let want = (item.pair.id % 5) as usize + 1;
            let took = want.min(3);
            assert_eq!(
                item.pair.response.matches('<').count(),
                took,
                "id {}",
                item.pair.id
            );
            expected += took as u64;
        }
        assert_eq!(report.iterations, expected);
        assert_eq!(report.counter("passes"), expected);
        // Multi-pass work is visible, not silently single-pass.
        assert!(report.iterations > report.items_in as u64);
    }

    #[test]
    fn plain_stages_report_one_iteration_per_item() {
        let out = Executor::new(ExecutorConfig::new(3).threads(2)).run(&chain(), &pairs(30));
        let r = out.report("scribble").unwrap();
        assert_eq!(r.iterations, r.items_in as u64);
    }

    #[test]
    fn looping_digest_is_thread_count_invariant_with_faults() {
        let config = |threads| {
            ExecutorConfig::new(77)
                .threads(threads)
                .fault_plan(
                    FaultPlan::new(5)
                        .transient(0.2)
                        .latency(0.3, Duration::from_secs(8)),
                )
                .retry_policy(RetryPolicy::new(3, Duration::from_millis(10)))
        };
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(Budgeted(
            Polish { budget: 4 },
            Duration::from_secs(5),
        ))];
        let base = Executor::new(config(1)).run(&stages, &pairs(60));
        for threads in [2, 8] {
            let out = Executor::new(config(threads)).run(&stages, &pairs(60));
            assert_eq!(out.digest(), base.digest());
        }
    }

    #[test]
    fn iteration_budget_is_part_of_the_journal_fingerprint() {
        let path = temp_journal("iter-budget");
        let mut journal = Journal::create(&path).unwrap();
        let a: Vec<Box<dyn Stage>> = vec![Box::new(Polish { budget: 3 })];
        Executor::new(ExecutorConfig::new(1))
            .run_journaled(&a, &pairs(10), &mut journal)
            .unwrap();
        drop(journal);
        let mut journal = Journal::open(&path).unwrap();
        let b: Vec<Box<dyn Stage>> = vec![Box::new(Polish { budget: 5 })];
        let err = Executor::new(ExecutorConfig::new(1)).run_journaled(&b, &pairs(10), &mut journal);
        assert!(
            err.is_err(),
            "a resume under a different iteration budget must be refused"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A stage with learned state: same name and config, different model.
    struct Learned(u64);

    impl Stage for Learned {
        fn name(&self) -> &str {
            "learned"
        }
        fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
            item.pair.response.push_str(&format!(" <{}>", self.0));
            StageOutcome::Ok
        }
        fn state_fingerprint(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn learned_state_is_part_of_the_journal_fingerprint() {
        let path = temp_journal("learned-state");
        let mut journal = Journal::create(&path).unwrap();
        let a: Vec<Box<dyn Stage>> = vec![Box::new(Learned(1))];
        Executor::new(ExecutorConfig::new(1))
            .run_journaled(&a, &pairs(10), &mut journal)
            .unwrap();
        drop(journal);
        let mut journal = Journal::open(&path).unwrap();
        let b: Vec<Box<dyn Stage>> = vec![Box::new(Learned(2))];
        let err = Executor::new(ExecutorConfig::new(1)).run_journaled(&b, &pairs(10), &mut journal);
        assert!(
            matches!(err, Err(JournalError::Incompatible(_))),
            "a resume under different learned state must be refused"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn output_is_thread_count_invariant() {
        let base = Executor::new(ExecutorConfig::new(11).threads(1)).run(&chain(), &pairs(101));
        for threads in [2, 3, 8] {
            let out =
                Executor::new(ExecutorConfig::new(11).threads(threads)).run(&chain(), &pairs(101));
            assert_eq!(out.items.len(), base.items.len());
            for (a, b) in out.items.iter().zip(&base.items) {
                assert_eq!(a.pair, b.pair);
                assert_eq!(a.retained, b.retained);
                assert_eq!(a.tags, b.tags);
            }
            for (ra, rb) in out.reports.iter().zip(&base.reports) {
                assert_eq!(ra.stage, rb.stage);
                assert_eq!(ra.items_in, rb.items_in);
                assert_eq!(ra.items_out, rb.items_out);
                assert_eq!(ra.counters, rb.counters);
            }
            assert_eq!(out.digest(), base.digest());
        }
    }

    #[test]
    fn dropped_items_skip_later_stages_and_counts_add_up() {
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(DropFifths), Box::new(Scribble)];
        let out = Executor::new(ExecutorConfig::new(5).threads(4)).run(&stages, &pairs(50));
        let filter = out.report("drop-fifths").unwrap();
        assert_eq!(filter.items_in, 50);
        assert_eq!(filter.items_out, 40);
        assert_eq!(filter.items_dropped(), 10);
        assert_eq!(filter.counter("dropped"), 10);
        let scribble = out.report("scribble").unwrap();
        assert_eq!(scribble.items_in, 40);
        // Dropped items keep their original text.
        assert!(out
            .items
            .iter()
            .filter(|i| !i.retained)
            .all(|i| !i.response_changed() && i.has_tag("fifth")));
        assert_eq!(out.into_dataset("kept").len(), 40);
    }

    #[test]
    fn adaptive_chunk_size_bounds() {
        assert_eq!(adaptive_chunk_size(0, 4, 64), 1);
        assert_eq!(adaptive_chunk_size(7, 16, 64), 1);
        // Load-balance target: ~8 chunks per lane when the queue allows.
        assert_eq!(adaptive_chunk_size(2_000, 8, 1024), 32);
        // Tight queues clamp the width so each queue still holds >= 2
        // chunks (but never below the 16-item amortisation floor).
        assert_eq!(adaptive_chunk_size(2_000, 8, 64), 16);
        assert_eq!(adaptive_chunk_size(1_000_000, 4, 64), 16);
        // Roomy queues let huge batches take bigger claims, up to 256.
        assert_eq!(adaptive_chunk_size(1_000_000, 4, 2048), 256);
        assert_eq!(adaptive_chunk_size(1_000_000, 4, 100_000), 256);
    }

    #[test]
    fn seed_changes_results_and_same_seed_repeats() {
        let a = Executor::new(ExecutorConfig::new(1).threads(2)).run(&chain(), &pairs(40));
        let b = Executor::new(ExecutorConfig::new(1).threads(2)).run(&chain(), &pairs(40));
        let c = Executor::new(ExecutorConfig::new(2).threads(2)).run(&chain(), &pairs(40));
        let text = |o: &ChainOutput| {
            o.items
                .iter()
                .map(|i| i.pair.response.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(text(&a), text(&b));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(text(&a), text(&c));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn empty_input_yields_empty_reports() {
        let out = Executor::new(ExecutorConfig::default()).run(&chain(), &[]);
        assert!(out.items.is_empty());
        assert_eq!(out.reports.len(), 2);
        assert!(out.reports.iter().all(|r| r.items_in == 0));
        assert_eq!(out.total_time(), Duration::ZERO);
        assert_eq!(out.replayed, 0);
        assert!(out.breaker_events.is_empty());
    }

    #[test]
    fn organic_failures_quarantine_without_panicking() {
        let stages: Vec<Box<dyn Stage>> = vec![
            Box::new(Flaky {
                retry_every: 7,
                fatal_every: 5,
            }),
            Box::new(Scribble),
        ];
        let out = Executor::new(ExecutorConfig::new(1).threads(4)).run(&stages, &pairs(70));
        // id 0 is divisible by both; fatal wins (checked first). 5s are
        // fatal, remaining 7s exhaust retries; everything else passes.
        for item in &out.items {
            let id = item.pair.id;
            if id.is_multiple_of(5) {
                let f = item.failure.as_ref().expect("fatal ids quarantine");
                assert_eq!(f.kind, FailureKind::Fatal);
                assert_eq!(f.attempts, 1);
                assert_eq!(f.error, "organic: unparseable");
            } else if id.is_multiple_of(7) {
                let f = item.failure.as_ref().expect("flaky ids exhaust retries");
                assert_eq!(f.kind, FailureKind::RetriesExhausted);
                assert_eq!(f.attempts, RetryPolicy::default().max_attempts);
            } else {
                assert!(item.retained, "id {id} should pass");
            }
        }
        let report = out.report("flaky").unwrap();
        assert_eq!(report.quarantined, out.quarantined().count());
        assert_eq!(report.quarantined, 14 + 8); // 14 fives, 8 non-five sevens
                                                // Every exhausted item burned max_attempts - 1 retries.
        assert_eq!(
            report.retries,
            8 * u64::from(RetryPolicy::default().max_attempts - 1)
        );
        assert!(report.backoff_time > Duration::ZERO);
        // Quarantined items never reached the second stage.
        assert_eq!(out.report("scribble").unwrap().items_in, 70 - 22);
        // The quarantine channel carries structured records with indices.
        let q = out.quarantine("t-quarantine");
        assert_eq!(q.len(), 22);
        assert!(q.items.iter().all(|i| i.failure.stage == "flaky"));
        assert!(q.items.iter().all(|i| i.pair.id == i.index as u64));
    }

    /// A zero-service stage under a breaker runs like any other. It once
    /// made the breaker's cut of the chain into stage groups underflow
    /// ("attempt to subtract with overflow" in debug builds); that cut is
    /// gone, and modeled service times no longer place lanes at all.
    #[test]
    fn zero_service_stage_under_a_breaker_runs() {
        struct Free;
        impl Stage for Free {
            fn name(&self) -> &str {
                "free"
            }
            fn process(&self, _item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
                StageOutcome::Ok
            }
            fn service_time(&self) -> Duration {
                Duration::ZERO
            }
        }
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(Scribble), Box::new(Free)];
        let plain = Executor::new(ExecutorConfig::new(4).threads(1)).run(&stages, &pairs(20));
        for threads in [1, 2] {
            let config = ExecutorConfig::new(4)
                .threads(threads)
                .breaker(BreakerPolicy::new());
            let out = Executor::new(config).run(&stages, &pairs(20));
            assert_eq!(out.report("free").unwrap().items_in, 20);
            assert_eq!(out.digest(), plain.digest(), "threads = {threads}");
        }
    }

    #[test]
    fn drop_outcome_tags_and_discards() {
        struct DropAll;
        impl Stage for DropAll {
            fn name(&self) -> &str {
                "drop-all"
            }
            fn process(&self, _item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
                StageOutcome::Drop
            }
        }
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(DropAll)];
        let out = Executor::new(ExecutorConfig::new(0).threads(2)).run(&stages, &pairs(10));
        assert_eq!(out.dropped().count(), 10);
        assert_eq!(out.quarantined().count(), 0);
        assert!(out.items.iter().all(|i| i.has_tag("drop:drop-all")));
        assert_eq!(out.report("drop-all").unwrap().items_dropped(), 10);
    }

    #[test]
    fn injected_faults_partition_and_replicate_across_threads() {
        let plan = FaultPlan::new(99).transient(0.2).permanent(0.05);
        let run_with = |threads: usize| {
            Executor::new(
                ExecutorConfig::new(3)
                    .threads(threads)
                    .fault_plan(plan.clone()),
            )
            .run(&chain(), &pairs(200))
        };
        let base = run_with(1);
        let (r, d, q) = (
            base.retained().count(),
            base.dropped().count(),
            base.quarantined().count(),
        );
        assert_eq!(r + d + q, 200);
        assert!(q > 0, "5% permanent over 200 items should quarantine some");
        assert!(base.total_retries() > 0);
        for threads in [2, 8] {
            let out = run_with(threads);
            for (a, b) in out.items.iter().zip(&base.items) {
                assert_eq!(a.pair, b.pair, "x{threads}");
                assert_eq!(a.disposition(), b.disposition());
                assert_eq!(a.failure, b.failure);
            }
            for (ra, rb) in out.reports.iter().zip(&base.reports) {
                assert_eq!(ra.retries, rb.retries);
                assert_eq!(ra.quarantined, rb.quarantined);
                assert_eq!(ra.faults_injected, rb.faults_injected);
                assert_eq!(ra.backoff_time, rb.backoff_time);
                assert_eq!(ra.latency_time, rb.latency_time);
            }
            assert_eq!(out.digest(), base.digest());
        }
    }

    #[test]
    fn transient_survivors_match_the_unfaulted_run() {
        let clean = Executor::new(ExecutorConfig::new(7).threads(3)).run(&chain(), &pairs(150));
        let faulted = Executor::new(
            ExecutorConfig::new(7)
                .threads(3)
                .fault_plan(FaultPlan::new(4).transient(0.25))
                .retry_policy(RetryPolicy::new(4, Duration::from_millis(5))),
        )
        .run(&chain(), &pairs(150));
        // Stage RNG is per (stage, item), not per attempt: any item that
        // survives its transient faults produces exactly the text the
        // unfaulted run produced.
        let mut survivors = 0;
        for (f, c) in faulted.items.iter().zip(&clean.items) {
            if f.failure.is_none() {
                assert_eq!(f.pair, c.pair);
                assert_eq!(f.retained, c.retained);
                survivors += 1;
            }
        }
        assert!(survivors > 100, "survivors {survivors}");
    }

    #[test]
    fn latency_spikes_inflate_time_deterministically() {
        let spike = Duration::from_millis(3);
        let out = Executor::new(
            ExecutorConfig::new(1)
                .threads(2)
                .fault_plan(FaultPlan::new(8).latency(1.0, spike)),
        )
        .run(&chain(), &pairs(20));
        // Every (stage, item) attempt rolled a spike; nothing failed.
        assert_eq!(out.quarantined().count(), 0);
        let scribble = out.report("scribble").unwrap();
        assert_eq!(scribble.faults_injected, 20);
        // The spike lands in the latency channel, exactly — never in
        // cpu_time (that's measured body time only) or backoff.
        assert_eq!(scribble.latency_time, spike * 20);
        assert_eq!(scribble.backoff_time, Duration::ZERO);
        assert_eq!(scribble.timeouts, 0);
    }

    #[test]
    fn retry_accounting_keeps_channels_disjoint() {
        // Every attempt faults transiently: the body never runs, so the
        // measured channel stays zero while backoff accumulates exactly.
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(Scribble)];
        let retry = RetryPolicy::new(3, Duration::from_millis(10));
        let out = Executor::new(
            ExecutorConfig::new(2)
                .threads(2)
                .fault_plan(FaultPlan::new(5).transient(1.0))
                .retry_policy(retry),
        )
        .run(&stages, &pairs(8));
        assert_eq!(out.quarantined().count(), 8);
        let r = out.report("scribble").unwrap();
        assert_eq!(r.cpu_time, Duration::ZERO);
        assert_eq!(r.latency_time, Duration::ZERO);
        // Each item: retries at backoff 10ms + 20ms; the final failed
        // attempt charges nothing (there is no retry after it).
        assert_eq!(r.backoff_time, Duration::from_millis(30) * 8);
        assert_eq!(r.retries, 16);
        assert_eq!(r.total_time(), r.backoff_time);
    }

    #[test]
    fn deadline_timeouts_feed_retry_and_quarantine() {
        let budget = Duration::from_millis(10);
        let spike = Duration::from_millis(50);
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(Budgeted(Scribble, budget))];
        let out = Executor::new(
            ExecutorConfig::new(3)
                .threads(2)
                .fault_plan(FaultPlan::new(6).latency(1.0, spike)),
        )
        .run(&stages, &pairs(12));
        let max = RetryPolicy::default().max_attempts;
        // Every attempt spikes past the budget: the body never runs, the
        // item times out until retries run dry.
        assert_eq!(out.quarantined().count(), 12);
        for item in &out.items {
            let f = item.failure.as_ref().unwrap();
            assert_eq!(f.kind, FailureKind::RetriesExhausted);
            assert_eq!(f.attempts, max);
            assert!(f.error.contains("timeout"), "{}", f.error);
            // The body never ran, so the text is untouched.
            assert!(!item.response_changed());
        }
        let r = out.report("scribble").unwrap();
        assert_eq!(r.timeouts, 12 * u64::from(max));
        assert_eq!(r.faults_injected, 12 * u64::from(max));
        // Each timed-out attempt charges the budget, not the full spike.
        assert_eq!(r.latency_time, budget * 12 * max);
        assert_eq!(r.cpu_time, Duration::ZERO);
    }

    #[test]
    fn spikes_below_the_budget_run_to_completion() {
        let spike = Duration::from_millis(3);
        let budgeted: Vec<Box<dyn Stage>> = vec![
            Box::new(Budgeted(Scribble, Duration::from_secs(1))),
            Box::new(DropFifths),
        ];
        let plan = FaultPlan::new(8).latency(1.0, spike);
        let with_budget = Executor::new(ExecutorConfig::new(1).threads(2).fault_plan(plan.clone()))
            .run(&budgeted, &pairs(20));
        let without = Executor::new(ExecutorConfig::new(1).threads(2).fault_plan(plan))
            .run(&chain(), &pairs(20));
        // A generous budget changes nothing: same outputs, same charges.
        assert_eq!(with_budget.digest(), without.digest());
        let r = with_budget.report("scribble").unwrap();
        assert_eq!(r.timeouts, 0);
        assert_eq!(r.latency_time, spike * 20);
    }

    #[test]
    fn journaled_run_matches_plain_run() {
        let path = temp_journal("fresh");
        let config = || {
            ExecutorConfig::new(17)
                .threads(4)
                .fault_plan(FaultPlan::new(29).transient(0.2).permanent(0.05))
        };
        let plain = Executor::new(config()).run(&chain(), &pairs(80));
        let mut journal = Journal::create(&path).unwrap();
        let journaled = Executor::new(config())
            .run_journaled(&chain(), &pairs(80), &mut journal)
            .unwrap();
        assert_eq!(journaled.replayed, 0);
        assert_eq!(journaled.digest(), plain.digest());
        assert_eq!(journal.committed(), 80);
        std::fs::remove_file(&path).ok();
    }

    /// A journal on a full disk neither panics nor hangs the run: the
    /// first write error is kept, later appends are skipped, the run
    /// completes, and the error surfaces as `Io` after the final sync.
    #[cfg(target_os = "linux")]
    #[test]
    fn full_disk_journal_fails_the_run_with_an_io_error() {
        for threads in [1, 2] {
            let mut journal = Journal::create("/dev/full").unwrap();
            let err = Executor::new(ExecutorConfig::new(17).threads(threads))
                .run_journaled(&chain(), &pairs(200), &mut journal)
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, JournalError::Io(_)),
                "threads {threads}: {err}"
            );
            assert!(
                journal.committed() < 200,
                "threads {threads}: appends went on"
            );
            println!("threads {threads}: {err}");
        }
    }

    /// A run's config, with a breaker (every lane passes the epoch gate)
    /// or without one (no lane ever waits).
    fn gate_config(threads: usize, queue: usize, breaker: bool) -> ExecutorConfig {
        let config = ExecutorConfig::new(17)
            .threads(threads)
            .queue_capacity(queue);
        if breaker {
            config.breaker(BreakerPolicy::new().window(16))
        } else {
            config
        }
    }

    /// The sink runs on the caller's thread: at any thread count and
    /// queue capacity, with a breaker or without, every journal frame is
    /// appended there.
    #[test]
    fn journal_frames_are_appended_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for breaker in [false, true] {
            for threads in [1, 2, 8] {
                for queue in [1, 64] {
                    let path = temp_journal("sink-thread");
                    let mut journal = Journal::create(&path).unwrap();
                    let appenders = Arc::new(Mutex::new(Vec::new()));
                    let tee = Arc::clone(&appenders);
                    journal.set_tee(Box::new(move |_frame: &[u8]| {
                        tee.lock().unwrap().push(std::thread::current().id());
                    }));
                    Executor::new(gate_config(threads, queue, breaker))
                        .run_journaled(&chain(), &pairs(200), &mut journal)
                        .unwrap();
                    let appenders = appenders.lock().unwrap();
                    let what = format!("threads {threads}, queue {queue}, breaker {breaker}");
                    assert_eq!(
                        appenders.len(),
                        201,
                        "{what}: header plus one frame per item"
                    );
                    let elsewhere = appenders.iter().filter(|&&id| id != caller).count();
                    assert_eq!(elsewhere, 0, "{what}: frames appended off the caller");
                    std::fs::remove_file(&path).ok();
                }
            }
        }
    }

    /// Panics with `STAGE_PANIC` on the pair with this id.
    struct PanicOn(u64);

    const STAGE_PANIC: &str = "stage panicked on purpose";
    const TEE_PANIC: &str = "journal tee panicked on purpose";

    impl Stage for PanicOn {
        fn name(&self) -> &str {
            "panic-on"
        }
        fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
            if item.pair.id == self.0 {
                std::panic::panic_any(STAGE_PANIC);
            }
            StageOutcome::Ok
        }
    }

    /// Runs `run` on a helper thread inside `catch_unwind` and returns
    /// its panic payload. A run that hangs instead of tearing down fails
    /// after 60 s rather than hanging the suite.
    fn panic_payload(run: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .err()
                .map(|p| match p.downcast::<&str>() {
                    Ok(text) => text.to_string(),
                    Err(p) => p
                        .downcast::<String>()
                        .map_or_else(|_| "<not text>".to_string(), |text| *text),
                });
            tx.send(payload).ok();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the run neither finished nor tore down within 60 s")
            .expect("the run returned instead of panicking")
    }

    /// A panic tears a threaded run down in both directions: a lane's
    /// panic wakes the caller draining the queue, and a panic in the sink,
    /// on the caller, wakes lanes blocked on a full queue. Under the
    /// window-16 breaker the stage panic on pair 37 lands inside epoch 2,
    /// a gated epoch, so the abort must also wake the lanes parked at the
    /// epoch gate. Either way the original payload comes back out of the
    /// run.
    #[test]
    fn a_panic_in_a_lane_or_the_sink_tears_the_run_down() {
        for breaker in [false, true] {
            for threads in [2, 8] {
                for queue in [1, 16, 64] {
                    let what = format!("threads {threads}, queue {queue}, breaker {breaker}");
                    let payload = panic_payload(move || {
                        let stages: Vec<Box<dyn Stage>> = vec![
                            Box::new(Scribble),
                            Box::new(PanicOn(37)),
                            Box::new(DropFifths),
                        ];
                        let config = gate_config(threads, queue, breaker);
                        let _ = Executor::new(config).run(&stages, &pairs(400));
                    });
                    assert_eq!(payload, STAGE_PANIC, "{what}: stage panic");

                    let path = temp_journal("tee-panic");
                    let journal_path = path.clone();
                    let payload = panic_payload(move || {
                        let mut journal = Journal::create(&journal_path).unwrap();
                        let mut frames = 0;
                        journal.set_tee(Box::new(move |_frame: &[u8]| {
                            frames += 1;
                            // Frame 1 is the header; frame 6 the fifth item.
                            if frames == 6 {
                                std::panic::panic_any(TEE_PANIC);
                            }
                        }));
                        let config = gate_config(threads, queue, breaker);
                        let _ = Executor::new(config).run_journaled(
                            &chain(),
                            &pairs(400),
                            &mut journal,
                        );
                    });
                    assert_eq!(payload, TEE_PANIC, "{what}: sink panic");
                    std::fs::remove_file(&path).ok();
                }
            }
        }
    }

    #[test]
    fn resume_after_a_torn_tail_reproduces_the_uninterrupted_run() {
        let path = temp_journal("resume");
        let config = |threads: usize| {
            ExecutorConfig::new(17)
                .threads(threads)
                .fault_plan(FaultPlan::new(29).transient(0.2).permanent(0.05))
        };
        let golden = Executor::new(config(1)).run(&chain(), &pairs(60));

        let mut journal = Journal::create(&path).unwrap();
        Executor::new(config(4))
            .run_journaled(&chain(), &pairs(60), &mut journal)
            .unwrap();
        let spans = journal.record_spans().to_vec();
        drop(journal);

        // Kill mid-run: cut inside record 31 (journal order is commit
        // order, not index order — replay handles any committed subset).
        let cut = spans[31].0 + (spans[31].1 - spans[31].0) / 2;
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..cut as usize]).unwrap();

        let mut recovered = Journal::open(&path).unwrap();
        let committed = recovered.committed();
        assert_eq!(committed, 30);
        let resumed = Executor::new(config(3))
            .run_journaled(&chain(), &pairs(60), &mut recovered)
            .unwrap();
        assert_eq!(resumed.replayed, committed);
        assert_eq!(resumed.digest(), golden.digest());
        // Item-level spot check: every field the digest covers.
        for (a, b) in resumed.items.iter().zip(&golden.items) {
            assert_eq!(a.pair, b.pair);
            assert_eq!(a.tags, b.tags);
            assert_eq!(a.failure, b.failure);
        }
        // After the resumed run the journal holds the full input again.
        assert_eq!(recovered.committed() + resumed.replayed, 60);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_under_a_different_run_is_rejected() {
        let path = temp_journal("mismatch");
        let mut journal = Journal::create(&path).unwrap();
        Executor::new(ExecutorConfig::new(1))
            .run_journaled(&chain(), &pairs(10), &mut journal)
            .unwrap();
        drop(journal);

        let mut recovered = Journal::open(&path).unwrap();
        // Different seed → different fingerprint → refuse to resume.
        let err = Executor::new(ExecutorConfig::new(2))
            .run_journaled(&chain(), &pairs(10), &mut recovered)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, JournalError::Incompatible(_)), "{err}");

        let mut recovered = Journal::open(&path).unwrap();
        // Different input length is rejected before fingerprinting aligns.
        let err = Executor::new(ExecutorConfig::new(1))
            .run_journaled(&chain(), &pairs(11), &mut recovered)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, JournalError::Incompatible(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A well-formed trace of item `i` that no stage touched.
    fn untouched_trace(i: usize, pair: &InstructionPair) -> ItemTrace {
        ItemTrace {
            index: i as u64,
            pair_id: pair.id,
            disposition: 0,
            instruction: None,
            response: None,
            tags: Vec::new(),
            failure: None,
            digest: item_digest(&StageItem::new(i, pair.clone())),
            stages: Vec::new(),
        }
    }

    #[test]
    fn replay_collected_rejects_malformed_trace_sets() {
        let input = pairs(3);
        let complete = || -> BTreeMap<u64, ItemTrace> {
            input
                .iter()
                .enumerate()
                .map(|(i, pair)| (i as u64, untouched_trace(i, pair)))
                .collect()
        };
        let replay = |traces, imposed: &BTreeMap<u64, crate::fault::FailureRecord>| {
            Executor::new(ExecutorConfig::new(1)).replay_collected(
                &chain(),
                &input,
                traces,
                imposed,
            )
        };
        let none = BTreeMap::new();
        assert_eq!(replay(complete(), &none).map(|o| o.replayed).ok(), Some(3));

        let mut wrong_pair = complete();
        wrong_pair.entry(1).and_modify(|t| t.pair_id = 99);
        let mut stage_past_chain = complete();
        stage_past_chain.entry(1).and_modify(|t| {
            t.stages.push(StageTrace {
                stage: chain().len() as u32,
                degraded: false,
                retained_after: true,
                quarantined: false,
                retries: 0,
                iterations: 1,
                faults: 0,
                timeouts: 0,
                backoff_nanos: 0,
                latency_nanos: 0,
                counters: Vec::new(),
            })
        });
        let mut past_input = complete();
        past_input.insert(3, untouched_trace(3, &pairs(4)[3]));
        let mut quarantined_without_failure = complete();
        quarantined_without_failure
            .entry(1)
            .and_modify(|t| t.disposition = 2);
        let mut untraced = complete();
        untraced.remove(&1);
        for (case, traces, expected) in [
            ("wrong pair id", wrong_pair, "records pair id 99"),
            ("stage index", stage_past_chain, "references stage 2"),
            ("past the input", past_input, "beyond the 3-item input"),
            (
                "no failure",
                quarantined_without_failure,
                "carries no failure",
            ),
            ("no trace", untraced, "no imposed failure"),
        ] {
            match replay(traces, &none) {
                Err(JournalError::Incompatible(why)) => {
                    assert!(why.contains(expected), "{case}: {why}");
                }
                Err(other) => panic!("{case}: wrong error {other}"),
                Ok(_) => panic!("{case}: malformed trace set accepted"),
            }
        }

        // An imposed failure stands in for the missing trace.
        let mut partial = complete();
        partial.remove(&1);
        let imposed = BTreeMap::from([(
            1,
            crate::fault::FailureRecord {
                stage: "scribble".to_string(),
                attempts: 3,
                error: "worker died".to_string(),
                kind: FailureKind::Fatal,
            },
        )]);
        let out = replay(partial, &imposed).expect("imposed failure fills the gap");
        assert_eq!(out.replayed, 2);
        assert_eq!(out.quarantined().count(), 1);
    }

    /// Fatal for every id below `until`, Ok past it — a stage that storms
    /// early and then recovers, for exercising the breaker cycle.
    struct FailBelow {
        until: u64,
    }

    impl Stage for FailBelow {
        fn name(&self) -> &str {
            "fail-below"
        }
        fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
            if item.pair.id < self.until {
                StageOutcome::fatal("organic: storm")
            } else {
                StageOutcome::Ok
            }
        }
    }

    #[test]
    fn breaker_trips_degrades_probes_and_recloses() {
        // ids == indices in pairs(): the storm covers exactly epoch 0.
        let policy = BreakerPolicy::new()
            .window(10)
            .trip_ratio(0.5)
            .min_failures(3)
            .cooldown_epochs(1)
            .probes(2);
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(FailBelow { until: 10 })];
        let run = |threads: usize| {
            Executor::new(
                ExecutorConfig::new(0)
                    .threads(threads)
                    .breaker(policy.clone()),
            )
            .run(&stages, &pairs(40))
        };
        let out = run(1);
        // Epoch 0: 10 failures → trips. Epoch 1: all degraded, cooldown
        // expires → half-open. Epoch 2: probes 20, 21 succeed → recloses.
        // Epoch 3: fully closed again.
        let transitions: Vec<(usize, BreakerState, BreakerState)> = out
            .breaker_events
            .iter()
            .map(|e| (e.epoch, e.from, e.to))
            .collect();
        assert_eq!(
            transitions,
            vec![
                (0, BreakerState::Closed, BreakerState::Open),
                (1, BreakerState::Open, BreakerState::HalfOpen),
                (2, BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
        let r = out.report("fail-below").unwrap();
        assert_eq!(r.quarantined, 10);
        // Epoch 1 degrades all 10; epoch 2 degrades the 8 non-probes.
        assert_eq!(r.degraded, 18);
        assert_eq!(out.total_degraded(), 18);
        assert_eq!(r.items_out, 30);
        // Degraded items pass through unrevised, tagged.
        let degraded: Vec<_> = out
            .items
            .iter()
            .filter(|i| i.has_tag("degraded:fail-below"))
            .collect();
        assert_eq!(degraded.len(), 18);
        assert!(degraded.iter().all(|i| i.retained && !i.response_changed()));
        // The whole evolution replays at any thread count.
        for threads in [2, 8] {
            let other = run(threads);
            assert_eq!(other.digest(), out.digest(), "x{threads}");
            assert_eq!(other.breaker_events, out.breaker_events);
        }
    }

    #[test]
    fn breaker_that_keeps_failing_reopens_after_probes() {
        struct AlwaysFatal;
        impl Stage for AlwaysFatal {
            fn name(&self) -> &str {
                "always-fatal"
            }
            fn process(&self, _item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
                StageOutcome::fatal("organic: dead")
            }
        }
        let policy = BreakerPolicy::new()
            .window(10)
            .trip_ratio(0.5)
            .min_failures(3)
            .cooldown_epochs(1)
            .probes(2);
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(AlwaysFatal)];
        let out = Executor::new(ExecutorConfig::new(0).threads(4).breaker(policy))
            .run(&stages, &pairs(40));
        // Trip, probe, re-trip: epochs 0 C→O, 1 O→HO, 2 HO→O, 3 O→HO.
        let transitions: Vec<(usize, BreakerState, BreakerState)> = out
            .breaker_events
            .iter()
            .map(|e| (e.epoch, e.from, e.to))
            .collect();
        assert_eq!(
            transitions,
            vec![
                (0, BreakerState::Closed, BreakerState::Open),
                (1, BreakerState::Open, BreakerState::HalfOpen),
                (2, BreakerState::HalfOpen, BreakerState::Open),
                (3, BreakerState::Open, BreakerState::HalfOpen),
            ]
        );
        let r = out.report("always-fatal").unwrap();
        // Executed: epoch 0 (10) + epoch 2 probes (2) = 12 quarantined.
        assert_eq!(r.quarantined, 12);
        assert_eq!(r.degraded, 40 - 12);
    }

    /// Fatal on the ids in `ids`, Ok elsewhere.
    struct FatalOn {
        name: &'static str,
        ids: std::ops::Range<u64>,
    }

    impl Stage for FatalOn {
        fn name(&self) -> &str {
            self.name
        }
        fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
            if self.ids.contains(&item.pair.id) {
                StageOutcome::fatal("organic: storm")
            } else {
                StageOutcome::Ok
            }
        }
    }

    /// Two breakers, derived by hand. Epoch 0: `first` quarantines ids
    /// 0..10 and trips; none reach `second`. Epoch 1: `first` degrades all
    /// ten, which reach `second` and trip it on ids 10..20, while `first`
    /// half-opens. Epoch 2: `first`'s probes 20 and 21 pass, so it
    /// recloses; `second` degrades all ten and half-opens. Epoch 3:
    /// `second`'s probes 30 and 31 pass, so it recloses. Both breakers
    /// observe tallies from the same epoch's chunks, and the events come
    /// out in (epoch, stage) order at any thread count and queue capacity.
    #[test]
    fn two_breakers_trip_and_reclose_in_epoch_then_stage_order() {
        use BreakerState::{Closed, HalfOpen, Open};
        let stages: Vec<Box<dyn Stage>> = vec![
            Box::new(FatalOn {
                name: "first",
                ids: 0..10,
            }),
            Box::new(FatalOn {
                name: "second",
                ids: 10..20,
            }),
        ];
        let policy = BreakerPolicy::new()
            .window(10)
            .trip_ratio(0.5)
            .min_failures(3)
            .cooldown_epochs(1)
            .probes(2);
        for threads in [1, 2, 3, 8] {
            for queue in [1, 16] {
                let what = format!("threads {threads}, queue {queue}");
                let config = ExecutorConfig::new(0)
                    .threads(threads)
                    .queue_capacity(queue)
                    .breaker(policy.clone());
                let out = Executor::new(config).run(&stages, &pairs(50));
                let events: Vec<(usize, &str, BreakerState, BreakerState)> = out
                    .breaker_events
                    .iter()
                    .map(|e| (e.epoch, e.stage.as_str(), e.from, e.to))
                    .collect();
                assert_eq!(
                    events,
                    vec![
                        (0, "first", Closed, Open),
                        (1, "first", Open, HalfOpen),
                        (1, "second", Closed, Open),
                        (2, "first", HalfOpen, Closed),
                        (2, "second", Open, HalfOpen),
                        (3, "second", HalfOpen, Closed),
                    ],
                    "{what}"
                );
                let first = out.report("first").unwrap();
                assert_eq!((first.quarantined, first.degraded), (10, 18), "{what}");
                let second = out.report("second").unwrap();
                assert_eq!(
                    (second.items_in, second.quarantined, second.degraded),
                    (40, 10, 18),
                    "{what}"
                );
            }
        }
    }

    /// The virtual-time model follows the lanes built, and under a
    /// breaker it gates epochs as the lanes do: with 1 ms per item, four
    /// lanes take 10 ms for 40 items, but behind the gate each 10-item
    /// epoch takes three rounds of four lanes, 12 ms in all.
    #[test]
    fn modeled_makespan_waits_at_the_epoch_gate() {
        let stages: Vec<Box<dyn Stage>> = vec![Box::new(Scribble)];
        let makespan = |threads: usize, breaker: bool| {
            let config = ExecutorConfig::new(0).threads(threads);
            let config = if breaker {
                config.breaker(BreakerPolicy::new().window(10))
            } else {
                config
            };
            Executor::new(config).run(&stages, &pairs(40)).sim_elapsed
        };
        assert_eq!(makespan(1, false), Duration::from_millis(40));
        assert_eq!(makespan(1, true), Duration::from_millis(40));
        assert_eq!(makespan(4, false), Duration::from_millis(10));
        assert_eq!(makespan(4, true), Duration::from_millis(12));
    }

    #[test]
    fn crash_resume_preserves_breaker_evolution_and_faults() {
        let path = temp_journal("chaos");
        let policy = BreakerPolicy::new()
            .window(16)
            .trip_ratio(0.3)
            .min_failures(4)
            .cooldown_epochs(1)
            .probes(4);
        let config = |threads: usize| {
            ExecutorConfig::new(53)
                .threads(threads)
                .fault_plan(
                    FaultPlan::new(11)
                        .transient(0.35)
                        .permanent(0.1)
                        .latency(0.2, Duration::from_millis(40)),
                )
                .breaker(policy.clone())
        };
        let stages = || -> Vec<Box<dyn Stage>> {
            vec![
                Box::new(Budgeted(Scribble, Duration::from_millis(10))),
                Box::new(DropFifths),
            ]
        };
        let golden = Executor::new(config(1)).run(&stages(), &pairs(100));
        assert!(!golden.breaker_events.is_empty(), "storm should trip");
        assert!(golden.report("scribble").unwrap().timeouts > 0);

        let mut journal = Journal::create(&path).unwrap();
        Executor::new(config(4))
            .run_journaled(&stages(), &pairs(100), &mut journal)
            .unwrap();
        let spans = journal.record_spans().to_vec();
        drop(journal);
        let full = std::fs::read(&path).unwrap();

        // Kill at three depths, resume at a different thread count each
        // time: always bit-identical to the golden run.
        for (frac_num, threads) in [(1, 2), (2, 8), (3, 1)] {
            let cut = spans[spans.len() * frac_num / 4].0 + 3;
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let mut recovered = Journal::open(&path).unwrap();
            let resumed = Executor::new(config(threads))
                .run_journaled(&stages(), &pairs(100), &mut recovered)
                .unwrap();
            assert!(resumed.replayed > 0, "cut {frac_num}/4 should replay");
            assert_eq!(
                resumed.digest(),
                golden.digest(),
                "cut {frac_num}/4, x{threads}"
            );
            assert_eq!(resumed.breaker_events, golden.breaker_events);
            let gq = golden.quarantine("q");
            let rq = resumed.quarantine("q");
            assert_eq!(gq.items, rq.items);
        }
        std::fs::remove_file(&path).ok();
    }
}
