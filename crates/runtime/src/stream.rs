//! The streaming core.
//!
//! Items flow through the stage chain in chunks over one bounded,
//! *sequenced* queue. Every run has the same shape: `threads` worker
//! **lanes**, each taking the next chunk straight from the
//! `SlotBuilder` and running the whole chain on it, and the caller
//! thread as the sink, draining the lanes' output queue in index order.
//! A threaded run spawns exactly its lanes; at one lane (threads = 1, or
//! a chain with no stage) the caller builds, runs and sinks each chunk
//! inline.
//!
//! There are no batch barriers; the only synchronisation points are the
//! builder's lock, the bounded queue itself (backpressure) and, under a
//! circuit breaker, the **epoch gate** described below.
//!
//! ## Slots per chunk
//!
//! A run borrows its input ([`StreamSource`]). Everything that reads the
//! whole input — the admission plan, the revision-cache pre-pass and the
//! check of journal records — runs first and leaves per-index marks
//! only. The slots are built from the borrowed pairs one chunk at a time,
//! when a lane pulls the chunk, so no whole-input slot buffer exists and
//! the slots in flight are bounded by the queue capacity plus one chunk
//! per lane. A cache hit
//! copies no input at all: it shares its representative's original, and
//! the sink writes its text once, from the representative's record.
//!
//! ## One record per item
//!
//! Every stage an item reaches leaves one `StageTrace`: executed or
//! degraded on a lane, read back from a replayed journal record, or taken
//! from the representative's record on a cache hit. `add_trace` is the
//! one place a `StageTrace` is added into a [`StageReport`] (every field
//! but the measured `cpu_time`), so live, replayed and hit items can only
//! be tallied differently if that function is wrong. When an item
//! finishes, the sink builds its `ItemTrace` once (`item_record`): the
//! journal appends it, and a representative keeps it for its hits.
//! `apply_record` writes a record's terminal state into an item, for
//! replayed items and cache hits alike.
//!
//! ## Logical epochs
//!
//! A logical epoch is a fixed window of input *indices* (the breaker
//! policy's `window` when a breaker is configured, the config's
//! `epoch_len` otherwise), and no chunk spans two. Under a breaker the
//! lanes pass an `EpochGate`: no chunk of epoch e starts before every
//! chunk of epoch e − 1 has finished. The finished chunks' per-stage
//! tallies are summed at the gate, and when epoch e opens the breakers
//! observe them in stage order and fix the stage modes every chunk of
//! epoch e runs under. So breaker transitions fire at exactly the indices
//! an epoch-synchronous sequential loop fires them at, and come out in
//! (epoch, stage) order. Every other per-item effect is seeded per
//! (stage, item), so whichever lane runs an item, the run stays
//! digest-identical to the reference order at any thread count or queue
//! capacity. The sink commits journal frames in index order and fsyncs
//! at epoch boundaries, so a resumed journaled run re-enters at the exact
//! frontier.
//!
//! ## Virtual time
//!
//! Wall-clock throughput depends on the host; the streaming report
//! instead carries a *modeled* elapsed time computed by the sink from
//! each stage's declared [`Stage::service_time`], the lanes actually
//! built, and the deterministic backoff/latency channels. The recurrence
//! is the classic multi-server one: an item starts when it is ready (at
//! its arrival time under a sustained feed, and under a breaker no
//! earlier than the last completion in the previous epoch, as the gate
//! has it) and one of the lanes is free. The result is deterministic for
//! a fixed config and is excluded from the output digest (it
//! legitimately varies with the thread count, which the digest must
//! not).
//!
//! ## Admission control
//!
//! A [`Feed::Sustained`] source models continuous arrivals at a fixed
//! rate against a declared drain rate: a fluid backlog accumulates at
//! the front of the pipe and items arriving while it exceeds the
//! configured capacity are **shed** — discarded up front with a
//! `shed:admission` tag, surfaced in
//! [`ChainOutput::shed`](crate::ChainOutput::shed). Shedding is a pure
//! function of the feed parameters (never of thread count or
//! queue capacity), so sustained runs obey the same determinism
//! contract as batch runs, and shed decisions journal and replay like
//! any other disposition.

use crate::breaker::{Breaker, BreakerEvent, BreakerPolicy, StageMode};
use crate::cache::{content_key, plan_hits, CachePlan, CacheStats, SlotHit};
use crate::executor::{adaptive_chunk_size, item_digest, item_seed};
use crate::fault::{FailureKind, FailureRecord, Fault, FaultPlan, RetryPolicy};
use crate::journal::{ItemTrace, Journal, StageTrace};
use crate::report::StageReport;
use crate::simtime::Stopwatch;
use crate::stage::{Disposition, Stage, StageCtx, StageItem, StageOutcome};
use coachlm_data::InstructionPair;
use coachlm_text::fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hash::Hasher;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How items enter a streaming run.
#[derive(Debug, Clone)]
pub enum Feed {
    /// The whole input is available up front (the classic batch case).
    /// Never sheds.
    Batch,
    /// Items arrive continuously at a fixed rate against a declared
    /// drain capacity; arrivals that find the admission backlog full are
    /// shed. All three parameters are part of the run's fingerprint, and
    /// shedding depends on nothing else — not threads, not queues.
    Sustained {
        /// Mean arrivals per second (item `i` arrives at `i / rate`).
        rate_per_sec: f64,
        /// Declared steady-state drain rate of the pipeline, items/sec.
        /// Callers derive this from the chain's modeled service times
        /// (see [`ChainOutput::sim_elapsed`](crate::ChainOutput::sim_elapsed))
        /// or measure it offline.
        drain_per_sec: f64,
        /// Admission backlog capacity, in items. Arrivals beyond it shed.
        backlog_capacity: usize,
    },
}

impl Feed {
    /// Folds the feed into a run fingerprint: shed decisions are part of
    /// run outcomes, so a journal written under one feed must not resume
    /// under another.
    pub(crate) fn fingerprint_into(&self, h: &mut impl Hasher) {
        match self {
            Feed::Batch => h.write_u8(0),
            Feed::Sustained {
                rate_per_sec,
                drain_per_sec,
                backlog_capacity,
            } => {
                h.write_u8(1);
                h.write_u64(rate_per_sec.to_bits());
                h.write_u64(drain_per_sec.to_bits());
                h.write_u64(*backlog_capacity as u64);
            }
        }
    }
}

/// A source for a streaming run: the borrowed pairs plus how they arrive.
///
/// The run never copies the input as a whole: it builds each chunk's
/// slots from the borrowed pairs when the pipe pulls that chunk, and
/// copies only the pairs it executes or returns.
#[derive(Debug, Clone)]
pub struct StreamSource<'p> {
    /// The input pairs, in index order.
    pub pairs: &'p [InstructionPair],
    /// The arrival model.
    pub feed: Feed,
}

impl<'p> StreamSource<'p> {
    /// A batch source: everything available at time zero, nothing shed.
    pub fn batch(pairs: &'p [InstructionPair]) -> Self {
        StreamSource {
            pairs,
            feed: Feed::Batch,
        }
    }

    /// A sustained-traffic source (see [`Feed::Sustained`]).
    pub fn sustained(
        pairs: &'p [InstructionPair],
        rate_per_sec: f64,
        drain_per_sec: f64,
        backlog_capacity: usize,
    ) -> Self {
        StreamSource {
            pairs,
            feed: Feed::Sustained {
                rate_per_sec,
                drain_per_sec,
                backlog_capacity,
            },
        }
    }
}

/// What a run replays instead of executing, checked against the input
/// before any stage runs (see `check_traces` in the executor): an index
/// with a committed record replays it; any other index executes, or, in
/// a replay-only reconstruction, is quarantined with the failure the
/// supervisor imposed on it.
pub(crate) struct Replay<'r> {
    /// Checked records by input index, taken as their slots are built.
    pub(crate) traces: BTreeMap<u64, ItemTrace>,
    /// `Some` for a replay-only run: the failure of every untraced index.
    pub(crate) imposed: Option<&'r BTreeMap<u64, FailureRecord>>,
}

impl Replay<'_> {
    /// A fresh run: every index executes.
    pub(crate) fn none() -> Self {
        Replay {
            traces: BTreeMap::new(),
            imposed: None,
        }
    }

    /// Whether index `i` replays instead of executing.
    fn replays(&self, i: usize) -> bool {
        self.imposed.is_some() || self.traces.contains_key(&(i as u64))
    }

    /// The admission outcome already committed for index `i`, if any:
    /// replayed items re-apply their recorded shed, imposed ones were
    /// never shed, live ones are decided afresh.
    fn recorded_shed(&self, i: usize) -> Option<bool> {
        match self.traces.get(&(i as u64)) {
            Some(trace) => Some(trace.tags.iter().any(|t| t == SHED_TAG)),
            None => self.imposed.map(|_| false),
        }
    }
}

/// The tag admission control discards a shed item with.
const SHED_TAG: &str = "shed:admission";

/// One item in flight, with everything the pipeline accumulates on it.
struct Slot {
    item: StageItem,
    /// The stage outcomes of a slot whose record the sink builds: every
    /// live slot of a journaled run and every representative, whose hits
    /// replay its record. Under a journal the sink gives a cache hit its
    /// representative's.
    stages: Option<Vec<StageTrace>>,
    /// `Some` for items replayed from a journal: the committed record,
    /// whose stage outcomes are tallied instead of executing.
    replay: Option<ItemTrace>,
    /// Virtual arrival time, nanos (0 under a batch feed).
    arrival: u64,
    /// Modeled service charge, nanos, set when a lane runs the slot; the
    /// sink runs the virtual-time recurrence over it.
    charge: u64,
    /// Shed at admission (already discarded, flows through untouched).
    shed: bool,
    /// Determinism key: the per-(stage, item) RNG seeds and fault rolls
    /// key on this. The pair id normally; the content fingerprint in
    /// content-keyed runs, so identical content behaves identically.
    key: u64,
    /// Set by the revision-cache pre-pass: skip execution and replay the
    /// representative's effects at the sink.
    hit: Option<SlotHit>,
}

/// A finished item's record: its terminal state (disposition, the text a
/// stage changed, tags, failure and digest) with the stage outcomes it
/// collected. The journal appends it, and a representative's hits replay
/// it.
fn item_record(item: &StageItem, stages: Vec<StageTrace>) -> ItemTrace {
    ItemTrace {
        index: item.index as u64,
        pair_id: item.pair.id,
        disposition: match item.disposition() {
            Disposition::Retained => 0,
            Disposition::Dropped => 1,
            Disposition::Quarantined => 2,
        },
        instruction: item
            .instruction_changed()
            .then(|| item.pair.instruction.clone()),
        response: item.response_changed().then(|| item.pair.response.clone()),
        tags: item.tags.clone(),
        failure: item.failure.clone(),
        digest: item_digest(item),
        stages,
    }
}

/// Writes a record's terminal state into its item: the text a stage
/// changed (the item's original where none did), tags, retention and, for
/// a quarantined record, the failure.
fn apply_record(item: &mut StageItem, record: &ItemTrace) {
    let original = item.original();
    let instruction = record
        .instruction
        .as_ref()
        .unwrap_or(&original.instruction)
        .clone();
    let response = record
        .response
        .as_ref()
        .unwrap_or(&original.response)
        .clone();
    item.pair.instruction = instruction;
    item.pair.response = response;
    item.tags = record.tags.clone();
    item.retained = record.disposition == 0;
    item.failure = if record.disposition == 2 {
        record.failure.clone()
    } else {
        None
    };
}

/// Rebuilds a checked journal record's terminal item on its input pair.
fn replayed_slot(index: usize, input: &InstructionPair, record: ItemTrace) -> Slot {
    let mut item = StageItem::new(index, input.clone());
    apply_record(&mut item, &record);
    Slot {
        replay: Some(record),
        ..Slot::new(item, None)
    }
}

impl Slot {
    fn new(item: StageItem, stages: Option<Vec<StageTrace>>) -> Self {
        Slot {
            item,
            stages,
            replay: None,
            arrival: 0,
            charge: 0,
            shed: false,
            key: 0,
            hit: None,
        }
    }
}

/// A run of consecutive slots moving through the pipe as one unit; the
/// claim/handoff granularity of the queue. A chunk never spans a logical
/// epoch.
struct Chunk {
    seq: u64,
    /// The logical epoch of every slot in the chunk.
    epoch: usize,
    /// How many chunks that epoch is cut into: the epoch gate closes the
    /// epoch when this many have finished.
    epoch_chunks: usize,
    slots: Vec<Slot>,
}

/// A bounded, sequenced chunk queue: pushes carry an explicit sequence
/// number and pops release chunks in strictly increasing sequence order,
/// so lanes can finish chunks out of order while the sink still sees
/// input order. Blocking on both sides (bounded window) provides
/// backpressure; `abort` unblocks everything when a lane or the sink
/// panics so the pipeline tears down instead of hanging.
struct OrderedQueue {
    state: Mutex<QueueState>,
    can_push: Condvar,
    can_pop: Condvar,
}

struct QueueState {
    /// Sequence number of the next chunk to pop.
    base: u64,
    /// Window of pending chunks: `window[i]` holds seq `base + i`.
    window: VecDeque<Option<Chunk>>,
    /// Max chunks admitted past `base` (the bounded capacity).
    cap: u64,
    /// Total chunks that will ever flow; pops past it return `None`.
    total: u64,
    aborted: bool,
}

impl OrderedQueue {
    fn new(cap: usize, total: u64) -> Self {
        OrderedQueue {
            state: Mutex::new(QueueState {
                base: 0,
                window: VecDeque::new(),
                cap: cap.max(1) as u64,
                total,
                aborted: false,
            }),
            can_push: Condvar::new(),
            can_pop: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocks until seq fits in the bounded window, then parks the chunk.
    /// Returns `false` (chunk dropped) after an abort.
    fn push(&self, chunk: Chunk) -> bool {
        let mut st = self.lock();
        while !st.aborted && chunk.seq >= st.base + st.cap {
            st = self
                .can_push
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if st.aborted {
            return false;
        }
        let at = (chunk.seq - st.base) as usize;
        if st.window.len() <= at {
            st.window.resize_with(at + 1, || None);
        }
        st.window[at] = Some(chunk);
        self.can_pop.notify_all();
        true
    }

    /// Blocks until the next in-order chunk is available; `None` once the
    /// stream is exhausted or the pipeline aborted.
    fn pop(&self) -> Option<Chunk> {
        let mut st = self.lock();
        loop {
            if st.aborted {
                return None;
            }
            if st.base >= st.total {
                // Wake sibling lanes parked behind us so they observe
                // end-of-stream too.
                self.can_pop.notify_all();
                return None;
            }
            if let Some(front) = st.window.front_mut() {
                if let Some(chunk) = front.take() {
                    st.window.pop_front();
                    st.base += 1;
                    self.can_push.notify_all();
                    self.can_pop.notify_all();
                    return Some(chunk);
                }
            }
            st = self
                .can_pop
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.can_push.notify_all();
        self.can_pop.notify_all();
    }
}

/// The epoch gate of a breaker run: no chunk of epoch e starts before
/// every chunk of epoch e − 1 has finished.
///
/// Lanes report each finished chunk's per-stage tallies here. The chunk
/// that finishes an epoch closes it: the breakers observe the epoch's
/// summed tallies in stage order, which records the transitions in
/// (epoch, stage) order, and fix the stage modes of the next epoch before
/// any of its chunks runs. A lane waits here only with a chunk of a later
/// epoch, built after every chunk of the open epoch; each of those is
/// running on a lane or queued for the sink, which drains in order, so
/// the open epoch always finishes. `abort` wakes the waiting lanes when
/// a lane or the sink panics.
struct EpochGate {
    state: Mutex<GateState>,
    opened: Condvar,
    /// Stage names, for the breaker events.
    names: Vec<String>,
    window: usize,
}

struct GateState {
    /// One breaker per stage, in chain order.
    breakers: Vec<Breaker>,
    /// The open epoch: only its chunks may run.
    epoch: usize,
    /// The stage modes fixed when `epoch` opened.
    modes: Vec<StageMode>,
    /// Chunks of the open epoch that have finished.
    finished: usize,
    /// Per stage, the items of the finished chunks that executed it and
    /// that it quarantined.
    executed: Vec<usize>,
    failures: Vec<usize>,
    /// The transitions so far, in (epoch, stage) order.
    events: Vec<BreakerEvent>,
    aborted: bool,
}

impl EpochGate {
    fn new(env: &StreamEnv<'_, '_>, policy: &BreakerPolicy) -> Self {
        let stages = env.stages.len();
        EpochGate {
            state: Mutex::new(GateState {
                breakers: vec![Breaker::new(policy.clone()); stages],
                epoch: 0,
                modes: vec![StageMode::Execute; stages],
                finished: 0,
                executed: vec![0; stages],
                failures: vec![0; stages],
                events: Vec::new(),
                aborted: false,
            }),
            opened: Condvar::new(),
            names: env.stages.iter().map(|s| s.name().to_string()).collect(),
            window: env.window,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocks until `epoch` is open, then copies its stage modes into
    /// `modes`. Returns `false` after an abort.
    fn enter(&self, epoch: usize, modes: &mut [StageMode]) -> bool {
        let mut st = self.lock();
        while !st.aborted && st.epoch < epoch {
            st = self
                .opened
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        modes.copy_from_slice(&st.modes);
        !st.aborted
    }

    /// Adds a finished chunk's tallies, zeroing the lane's. The chunk
    /// that finishes the open epoch closes it and opens the next.
    fn leave(&self, chunk: &Chunk, executed: &mut [usize], failures: &mut [usize]) {
        let mut st = self.lock();
        let st = &mut *st;
        for (sum, n) in st.executed.iter_mut().zip(executed) {
            *sum += std::mem::take(n);
        }
        for (sum, n) in st.failures.iter_mut().zip(failures) {
            *sum += std::mem::take(n);
        }
        st.finished += 1;
        if st.finished < chunk.epoch_chunks {
            return;
        }
        let next_start = (st.epoch + 1).saturating_mul(self.window);
        for (k, breaker) in st.breakers.iter_mut().enumerate() {
            if let Some((from, to)) = breaker.observe(st.executed[k], st.failures[k]) {
                st.events.push(BreakerEvent {
                    stage: self.names[k].clone(),
                    epoch: st.epoch,
                    from,
                    to,
                });
            }
            st.modes[k] = breaker.mode(next_start);
        }
        st.executed.fill(0);
        st.failures.fill(0);
        st.finished = 0;
        st.epoch += 1;
        self.opened.notify_all();
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.opened.notify_all();
    }

    fn into_events(self) -> Vec<BreakerEvent> {
        self.state
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .events
    }
}

/// Aborts the output queue and the epoch gate if its thread unwinds — a
/// lane, or the caller while it sinks — so every thread blocked on
/// either wakes up and the scope can re-raise the panic instead of
/// deadlocking.
struct AbortOnPanic<'a>(&'a OrderedQueue, Option<&'a EpochGate>);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
            if let Some(gate) = self.1 {
                gate.abort();
            }
        }
    }
}

/// Everything the streaming engine needs, borrowed once per run.
pub(crate) struct StreamEnv<'a, 'b> {
    pub(crate) stages: &'a [Box<dyn Stage + 'b>],
    pub(crate) salts: &'a [u64],
    pub(crate) deadlines: &'a [Option<Duration>],
    /// Modeled per-stage service time, nanos (virtual-time model only).
    pub(crate) service: &'a [u64],
    /// Per-stage iteration budget for looping stages (≥ 1).
    pub(crate) budgets: &'a [u32],
    pub(crate) seed: u64,
    pub(crate) plan: &'a FaultPlan,
    pub(crate) retry: &'a RetryPolicy,
    pub(crate) breaker: Option<&'a BreakerPolicy>,
    /// Logical epoch length, items (breaker window, or `epoch_len`).
    pub(crate) window: usize,
    /// Key per-item randomness on content fingerprints instead of pair
    /// ids (see [`crate::cache`]). Forced on by a revision cache.
    pub(crate) content_keyed: bool,
    /// Whether the revision cache is enabled for this run.
    pub(crate) cache: bool,
}

/// Adds one stage outcome into the stage's report: every field but
/// `cpu_time`, which is measured, not recorded, and stays outside the
/// determinism contract. Executed, degraded, replayed and cache-hit
/// outcomes are all tallied here.
fn add_trace(report: &mut StageReport, e: &StageTrace) {
    report.items_in += 1;
    report.items_out += usize::from(e.retained_after);
    report.quarantined += usize::from(e.quarantined);
    report.degraded += usize::from(e.degraded);
    report.retries += u64::from(e.retries);
    report.iterations += u64::from(e.iterations);
    report.faults_injected += e.faults;
    report.timeouts += u64::from(e.timeouts);
    report.backoff_time += Duration::from_nanos(e.backoff_nanos);
    report.latency_time += Duration::from_nanos(e.latency_nanos);
    for (key, v) in &e.counters {
        // Look up before inserting, so a key is copied only the first time
        // the report sees it.
        match report.counters.get_mut(key) {
            Some(count) => *count += v,
            None => {
                report.counters.insert(key.clone(), *v);
            }
        }
    }
}

/// One lane's stage runner: runs the whole chain on each chunk its lane
/// takes, under the stage modes the epoch gate fixed for the chunk's
/// epoch (without a breaker every stage always executes). Each stage an
/// item reaches here, executed or degraded, leaves one [`StageTrace`], and
/// so does each stage of a replayed record; `account` tallies every one.
struct Worker<'e, 'a, 'b> {
    env: &'e StreamEnv<'a, 'b>,
    gate: Option<&'e EpochGate>,
    /// `seed ^ salt` per stage, hoisted out of the per-item loop (the
    /// per-item seed is then a single multiply-xor).
    seed_base: Vec<u64>,
    modes: Vec<StageMode>,
    /// Per stage, the current chunk's items that executed it and that it
    /// quarantined; handed to the gate when the chunk finishes (unread
    /// without a breaker).
    executed: Vec<usize>,
    failures: Vec<usize>,
    /// One report per stage, every outcome the lane accounts added in.
    reports: Vec<StageReport>,
    /// The counters of the stage body running now, drained into its
    /// outcome.
    scratch: BTreeMap<String, u64>,
}

impl<'e, 'a, 'b> Worker<'e, 'a, 'b> {
    fn new(env: &'e StreamEnv<'a, 'b>, gate: Option<&'e EpochGate>) -> Self {
        let stages = env.stages.len();
        Worker {
            env,
            gate,
            seed_base: env.salts.iter().map(|salt| env.seed ^ salt).collect(),
            modes: vec![StageMode::Execute; stages],
            executed: vec![0; stages],
            failures: vec![0; stages],
            reports: stage_reports(env),
            scratch: BTreeMap::new(),
        }
    }

    /// Runs the chain on one chunk; under a breaker, between entering and
    /// leaving the gate. Returns `false` if the run aborted while the
    /// chunk waited at the gate.
    fn process_chunk(&mut self, chunk: &mut Chunk) -> bool {
        if let Some(gate) = self.gate {
            if !gate.enter(chunk.epoch, &mut self.modes) {
                return false;
            }
        }
        for slot in &mut chunk.slots {
            self.on_slot(slot);
        }
        if let Some(gate) = self.gate {
            gate.leave(chunk, &mut self.executed, &mut self.failures);
        }
        true
    }

    fn on_slot(&mut self, slot: &mut Slot) {
        // Cache hit: the chain is skipped. The slot carries zero charge (a
        // hit is free in virtual time) and the sink replays the
        // representative's effects. Hits never coexist with breakers, so
        // there are no tallies to advance here.
        if slot.hit.is_some() {
            return;
        }
        if let Some(record) = &slot.replay {
            for e in &record.stages {
                self.account(e);
            }
            return;
        }
        self.run_slot(slot);
    }

    /// Tallies one stage outcome: into the lane's report, and into the
    /// executed and quarantined counts the epoch gate sums.
    fn account(&mut self, e: &StageTrace) {
        let k = e.stage as usize;
        self.executed[k] += usize::from(!e.degraded);
        self.failures[k] += usize::from(e.quarantined);
        add_trace(&mut self.reports[k], e);
    }

    /// The per-(stage, item) attempt loop, unchanged in semantics from
    /// the batch executor: RNG seeded per (stage, item), fault rolls per
    /// (stage, item, attempt), compute-then-commit rollback on failures.
    fn run_slot(&mut self, slot: &mut Slot) {
        let env = self.env;
        let inert = env.plan.is_inert();
        let det_key = slot.key;
        let item = &mut slot.item;
        let mut virt: u64 = 0;
        for (k, stage) in env.stages.iter().enumerate() {
            if !item.retained {
                break;
            }
            // Degraded passthrough: the stage's breaker is open (or this
            // index is past the half-open probe budget), so the item
            // flows on unrevised — the paper's §III-B1 leakage fallback.
            if !self.modes[k].executes(item.index) {
                item.tag(format!("degraded:{}", stage.name()));
                let e = StageTrace {
                    stage: k as u32,
                    degraded: true,
                    retained_after: true,
                    ..StageTrace::default()
                };
                self.account(&e);
                if let Some(stages) = slot.stages.as_mut() {
                    stages.push(e);
                }
                continue;
            }
            let rng_seed = item_seed(self.seed_base[k], det_key);
            let deadline = env.deadlines[k];
            let iter_budget = env.budgets[k].max(1);
            let (mut t_retries, mut t_timeouts) = (0u32, 0u32);
            let (mut t_iterations, mut t_faults) = (0u32, 0u64);
            let (mut t_time, mut t_backoff, mut t_latency) =
                (Duration::ZERO, Duration::ZERO, Duration::ZERO);
            let mut body_runs: u64 = 0;
            let mut quarantined_here = false;
            // Iteration loop for looping stages (`StageOutcome::Again`).
            // Each committed pass gets its own RNG stream (iteration 0
            // uses the historical per-(stage, item) seed unchanged, so
            // single-pass stages keep their digests) and fresh fault
            // rolls: `roll_idx` advances monotonically across retries
            // *and* iterations so no pass re-reads an earlier draw. The
            // retry budget resets per iteration — each pass is a
            // committed unit of work with its own attempt machinery.
            let mut iter: u32 = 0;
            let mut roll_idx: u32 = 0;
            'iterating: loop {
                let iter_seed = rng_seed ^ u64::from(iter).wrapping_mul(0x9E6D_63AD_4F5C_2E91);
                let mut attempt: u32 = 0;
                loop {
                    let fault = if inert {
                        None
                    } else {
                        env.plan.roll(env.salts[k], det_key, roll_idx)
                    };
                    let outcome = match fault {
                        Some(Fault::Permanent) => {
                            t_faults += 1;
                            StageOutcome::fatal("injected: permanent")
                        }
                        Some(Fault::Transient) => {
                            t_faults += 1;
                            StageOutcome::retryable("injected: transient")
                        }
                        other => {
                            let timed_out = if let Some(Fault::Latency(spike)) = other {
                                t_faults += 1;
                                match deadline {
                                    Some(budget) if spike > budget => {
                                        t_latency += budget;
                                        t_timeouts += 1;
                                        Some(StageOutcome::retryable(format!(
                                            "timeout: injected {spike:?} latency exceeded the \
                                             {budget:?} budget"
                                        )))
                                    }
                                    _ => {
                                        t_latency += spike;
                                        None
                                    }
                                }
                            } else {
                                None
                            };
                            match timed_out {
                                Some(o) => o,
                                None => {
                                    let mut ctx = StageCtx {
                                        rng: StdRng::seed_from_u64(iter_seed),
                                        counters: &mut self.scratch,
                                    };
                                    let watch = Stopwatch::start();
                                    let o = stage.process(item, &mut ctx);
                                    t_time += watch.elapsed();
                                    body_runs += 1;
                                    o
                                }
                            }
                        }
                    };
                    match outcome {
                        StageOutcome::Ok => {
                            t_iterations += 1;
                            break 'iterating;
                        }
                        StageOutcome::Again => {
                            t_iterations += 1;
                            iter += 1;
                            roll_idx = roll_idx.saturating_add(1);
                            if iter >= iter_budget {
                                // Budget exhausted: the pass already
                                // committed, so accept the item as-is.
                                break 'iterating;
                            }
                            continue 'iterating;
                        }
                        StageOutcome::Drop => {
                            t_iterations += 1;
                            item.discard(format!("drop:{}", stage.name()));
                            break 'iterating;
                        }
                        StageOutcome::Retryable(error) => {
                            attempt += 1;
                            roll_idx = roll_idx.saturating_add(1);
                            if attempt >= env.retry.max_attempts {
                                item.quarantine(FailureRecord {
                                    stage: stage.name().to_string(),
                                    attempts: attempt,
                                    error,
                                    kind: FailureKind::RetriesExhausted,
                                });
                                quarantined_here = true;
                                break 'iterating;
                            }
                            t_retries += 1;
                            t_backoff += env.retry.backoff_before(attempt);
                        }
                        StageOutcome::Fatal(error) => {
                            item.quarantine(FailureRecord {
                                stage: stage.name().to_string(),
                                attempts: attempt + 1,
                                error,
                                kind: FailureKind::Fatal,
                            });
                            quarantined_here = true;
                            break 'iterating;
                        }
                    }
                }
            }
            // `cpu_time` takes only measured body time; the simulated
            // channels stay disjoint (see [`StageReport`]).
            self.reports[k].cpu_time += t_time;
            let e = StageTrace {
                stage: k as u32,
                degraded: false,
                retained_after: item.retained,
                quarantined: quarantined_here,
                retries: t_retries,
                iterations: t_iterations,
                faults: t_faults,
                timeouts: t_timeouts,
                backoff_nanos: u64::try_from(t_backoff.as_nanos()).unwrap_or(u64::MAX),
                latency_nanos: u64::try_from(t_latency.as_nanos()).unwrap_or(u64::MAX),
                counters: std::mem::take(&mut self.scratch).into_iter().collect(),
            };
            virt += body_runs * env.service[k];
            virt += e.backoff_nanos;
            virt = virt.saturating_add(e.latency_nanos);
            self.account(&e);
            if let Some(stages) = slot.stages.as_mut() {
                stages.push(e);
            }
        }
        slot.charge = virt;
    }
}

/// Sink-side state for revision-cache hit replay: the records of the
/// representatives live hits still depend on. A record is kept only while
/// `uses` counts it down per replay, so memory is bounded by in-flight
/// duplication, not input size.
struct HitReplayer {
    /// Representative item index → live dependents remaining.
    uses: FxHashMap<usize, usize>,
    /// Representative item index → its record: the one the sink built
    /// for it, or the one a resumed run replayed.
    store: FxHashMap<usize, ItemTrace>,
}

/// The ordered consumer at the end of the pipe, run by the caller's
/// thread: collects items in index order, builds each finished live
/// item's record and appends it to the journal, keeps representatives'
/// records and replays them onto their hits, fsyncs at logical-epoch
/// boundaries, and runs the virtual-time recurrence. It is the only
/// writer of the run's journal. Its reports are the run's: hits add their
/// replayed stage outcomes as they pass, and the lanes' reports are
/// merged in when the lanes finish.
struct Sink<'e, 'a, 'b> {
    env: &'e StreamEnv<'a, 'b>,
    /// The run's journal, until a write to it fails.
    journal: Option<&'e mut Journal>,
    /// The first journal IO error; the writes after it are skipped.
    journal_error: Option<std::io::Error>,
    /// A min-heap of the lanes' free-times, for the recurrence.
    lanes: BinaryHeap<Reverse<u64>>,
    items: Vec<StageItem>,
    makespan: u64,
    /// Under a breaker, when the modeled epoch gate opened the current
    /// epoch: no item of it starts before the previous epoch's last
    /// completion.
    gate_open: u64,
    shed: usize,
    prev_epoch: Option<usize>,
    hits: Option<HitReplayer>,
    /// One report per stage, in chain order.
    reports: Vec<StageReport>,
}

impl<'e, 'a, 'b> Sink<'e, 'a, 'b> {
    fn new(
        env: &'e StreamEnv<'a, 'b>,
        journal: Option<&'e mut Journal>,
        lanes: usize,
        n: usize,
        hits: Option<HitReplayer>,
    ) -> Self {
        Sink {
            env,
            journal,
            journal_error: None,
            lanes: vec![Reverse(0); lanes].into(),
            items: Vec::with_capacity(n),
            makespan: 0,
            gate_open: 0,
            shed: 0,
            prev_epoch: None,
            hits,
            reports: stage_reports(env),
        }
    }

    /// Replays the representative's record onto a hit slot: its terminal
    /// state (the hit's text is written once, here), its stage outcomes
    /// into the run's reports and, under a journal, into the hit's own
    /// record. Because the sink consumes slots in index order and the
    /// pre-pass always picks the *earliest* occurrence as representative,
    /// the representative's record is in the store by the time its hits
    /// arrive.
    fn replay_hit(&mut self, slot: &mut Slot, hit: SlotHit) {
        let Some(hr) = self.hits.as_mut() else {
            unreachable!("hit slots only exist under a cache plan");
        };
        let Some(rep) = hr.store.get(&hit.rep) else {
            unreachable!("representative committed before its hits");
        };
        apply_record(&mut slot.item, rep);
        for e in &rep.stages {
            add_trace(&mut self.reports[e.stage as usize], e);
        }
        if self.journal.is_some() {
            slot.stages = Some(rep.stages.clone());
        }
        let Some(uses) = hr.uses.get_mut(&hit.rep) else {
            unreachable!("uses tracked per rep");
        };
        *uses -= 1;
        if *uses == 0 {
            hr.uses.remove(&hit.rep);
            hr.store.remove(&hit.rep);
        }
    }

    /// Builds a finished slot's record from the stage outcomes it
    /// collected and appends it to the journal, and keeps a
    /// representative's record, built here or replayed, for its hits.
    fn commit(&mut self, slot: &mut Slot) {
        let record = if let Some(stages) = slot.stages.take() {
            let record = item_record(&slot.item, stages);
            self.write_journal(|journal| journal.append(&record));
            record
        } else if let Some(record) = slot.replay.take() {
            record
        } else {
            return;
        };
        if let Some(hr) = self.hits.as_mut() {
            if hr.uses.contains_key(&slot.item.index) {
                hr.store.insert(slot.item.index, record);
            }
        }
    }

    fn consume(&mut self, chunk: Chunk) {
        if self.prev_epoch.is_some_and(|prev| prev != chunk.epoch) {
            // Commit frame: everything up to the epoch boundary is durable
            // before the next epoch's records land.
            self.write_journal(Journal::sync);
            // Every item of the previous epoch started after the gate
            // opened it, so its last completion is the makespan.
            if self.env.breaker.is_some() {
                self.gate_open = self.makespan;
            }
        }
        self.prev_epoch = Some(chunk.epoch);
        for mut slot in chunk.slots {
            // Virtual-time recurrence: the slot starts on the earliest
            // free lane once it is ready; zero-charge slots (shed,
            // replayed, cache hits) take no time.
            if let Some(mut lane) = self.lanes.peek_mut() {
                let Reverse(free) = *lane;
                let done = slot
                    .arrival
                    .max(self.gate_open)
                    .max(free)
                    .saturating_add(slot.charge);
                *lane = Reverse(done);
                self.makespan = self.makespan.max(done);
            }

            if slot.shed {
                self.shed += 1;
            }
            if let Some(hit) = slot.hit {
                self.replay_hit(&mut slot, hit);
            }
            self.commit(&mut slot);
            self.items.push(slot.item);
        }
    }

    /// Runs one journal write. The first IO error drops the journal, so
    /// the run still completes and every later write is skipped; the
    /// error is handed back in [`StreamRun`].
    fn write_journal(&mut self, write: impl FnOnce(&mut Journal) -> std::io::Result<()>) {
        if let Some(journal) = self.journal.as_deref_mut() {
            if let Err(e) = write(journal) {
                self.journal = None;
                self.journal_error = Some(e);
            }
        }
    }
}

/// The fluid admission model: one shed decision per arrival (`true` =
/// shed), or `None` for a batch feed. `recorded` yields, per index,
/// `Some(shed)` when the outcome is already committed (a replayed slot:
/// committed shed slots count as shed again, and only admitted ones
/// occupy the backlog the live tail is metered against) and `None` for a
/// fresh arrival. The shard driver calls this with no recorded outcomes
/// *before* partitioning — shedding is global, a function of arrival
/// order over the whole input, not of any one shard's subsequence.
pub(crate) fn admission_plan(
    feed: &Feed,
    recorded: impl Iterator<Item = Option<bool>>,
) -> Option<Vec<bool>> {
    let Feed::Sustained {
        rate_per_sec,
        drain_per_sec,
        backlog_capacity,
    } = feed
    else {
        return None;
    };
    let rate = rate_per_sec.max(1e-9);
    let mut backlog = 0f64;
    let mut prev_t = 0f64;
    let plan = recorded
        .enumerate()
        .map(|(i, recorded)| {
            let t = i as f64 / rate;
            backlog = (backlog - (t - prev_t) * drain_per_sec).max(0.0);
            prev_t = t;
            if recorded == Some(true) {
                return true;
            }
            backlog += 1.0;
            if recorded.is_none() && backlog > *backlog_capacity as f64 {
                backlog -= 1.0;
                return true;
            }
            false
        })
        .collect();
    Some(plan)
}

/// Builds a run's slots one chunk at a time, in index order, when a lane
/// (behind a lock) or the inline loop pulls the chunk: no slot exists
/// before its chunk is pulled, so the slots in flight are bounded by the
/// queue plus one chunk per lane, not by the input.
/// Chunks hold at most `chunk_len` slots and never span a logical-epoch
/// boundary, so epoch-frame commits and breaker windows align with chunk
/// edges. Every decision that reads the whole input — admission, cache
/// hits, journal replay — is made up front by the pre-pass in
/// [`SlotBuilder::new`], which leaves only per-index marks.
struct SlotBuilder<'p, 'r> {
    pairs: &'p [InstructionPair],
    replay: Replay<'r>,
    /// Whether live slots build journal records.
    journaling: bool,
    content_keyed: bool,
    /// The admission plan: shed or not per index (sustained feeds only).
    shed: Option<Vec<bool>>,
    /// Arrivals per second (sustained feeds only).
    rate: Option<f64>,
    /// Per index, the cache hit it is (cached runs only).
    hits: Vec<Option<SlotHit>>,
    /// Representatives some of whose hits are still to be built: how many
    /// are left, and the original they share once the representative is
    /// built.
    shared: FxHashMap<usize, (usize, Option<Arc<InstructionPair>>)>,
    chunk_len: usize,
    window: usize,
    next: usize,
    seq: u64,
    total: u64,
}

impl<'p, 'r> SlotBuilder<'p, 'r> {
    /// Runs the pre-pass over the borrowed input: the admission plan, then
    /// the revision-cache plan (whose per-index hits the builder keeps;
    /// the representative counts and tallies are handed back for the
    /// sink).
    fn new(
        env: &StreamEnv<'_, '_>,
        source: StreamSource<'p>,
        replay: Replay<'r>,
        journaling: bool,
        chunk_len: usize,
    ) -> (Self, Option<CachePlan>) {
        let StreamSource { pairs, feed } = source;
        let n = pairs.len();
        let shed = admission_plan(&feed, (0..n).map(|i| replay.recorded_shed(i)));
        let rate = match feed {
            Feed::Sustained { rate_per_sec, .. } => Some(rate_per_sec.max(1e-9)),
            Feed::Batch => None,
        };
        let mut cache = env
            .cache
            .then(|| plan_hits(pairs, shed.as_deref(), |i| replay.replays(i)));
        let (hits, shared) = match cache.as_mut() {
            Some(plan) => (
                std::mem::take(&mut plan.hits),
                // lint: allow(D3, reason = "entries are collected into another map keyed the same way; visit order cannot show")
                plan.uses
                    .iter()
                    .map(|(&rep, &uses)| (rep, (uses, None)))
                    .collect(),
            ),
            None => (Vec::new(), FxHashMap::default()),
        };
        let chunk_len = chunk_len.max(1);
        let window = env.window.max(1);
        let total = (n / window) * window.div_ceil(chunk_len) + (n % window).div_ceil(chunk_len);
        let builder = SlotBuilder {
            pairs,
            replay,
            journaling,
            content_keyed: env.content_keyed,
            shed,
            rate,
            hits,
            shared,
            chunk_len,
            window,
            next: 0,
            seq: 0,
            total: total as u64,
        };
        (builder, cache)
    }

    fn slot(&mut self, i: usize) -> Slot {
        let input = &self.pairs[i];
        let shed = self.shed.as_ref().is_some_and(|plan| plan[i]);
        let trace = match self.replay.traces.first_entry() {
            Some(entry) if *entry.key() == i as u64 => Some(entry.remove()),
            _ => None,
        };
        let mut slot = if let Some(trace) = trace {
            replayed_slot(i, input, trace)
        } else if let Some(imposed) = self.replay.imposed {
            // Not retained, so no stage runs it.
            let mut item = StageItem::new(i, input.clone());
            item.retained = false;
            item.failure = imposed.get(&(i as u64)).cloned();
            Slot::new(item, None)
        } else if let Some(hit) = self.hits.get(i).copied().flatten() {
            let item = StageItem::sharing(i, input, self.share(hit.rep));
            Slot {
                hit: Some(hit),
                ..Slot::new(item, None)
            }
        } else {
            let mut item = StageItem::new(i, input.clone());
            if shed {
                item.discard(SHED_TAG);
            }
            // A representative's record is built even when no journal is
            // attached: its hits replay it.
            let rep = self.shared.contains_key(&i);
            let stages = (self.journaling || rep).then(Vec::new);
            // With content keying off the key is the pair id —
            // bit-identical to the historical behaviour.
            let key = if self.content_keyed {
                content_key(input)
            } else {
                input.id
            };
            Slot {
                key,
                ..Slot::new(item, stages)
            }
        };
        if let Some((_, original)) = self.shared.get_mut(&i) {
            *original = Some(Arc::clone(slot.item.original()));
        }
        slot.shed = shed;
        slot.arrival = self.rate.map_or(0, |rate| (i as f64 / rate * 1e9) as u64);
        slot
    }

    /// The original a hit on `rep` shares. The representative's slot is
    /// always built first: it is the content's earliest occurrence.
    fn share(&mut self, rep: usize) -> Arc<InstructionPair> {
        let Some((left, original)) = self.shared.get_mut(&rep) else {
            unreachable!("every hit's representative is tracked");
        };
        let Some(original) = original.clone() else {
            unreachable!("a representative is built before its hits");
        };
        *left -= 1;
        if *left == 0 {
            self.shared.remove(&rep);
        }
        original
    }
}

impl Iterator for SlotBuilder<'_, '_> {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        let start = self.next;
        if start >= self.pairs.len() {
            return None;
        }
        let epoch_start = start - start % self.window;
        let epoch_end = epoch_start
            .saturating_add(self.window)
            .min(self.pairs.len());
        let end = (start + self.chunk_len).min(epoch_end);
        self.next = end;
        let chunk = Chunk {
            seq: self.seq,
            epoch: start / self.window,
            epoch_chunks: (epoch_end - epoch_start).div_ceil(self.chunk_len),
            slots: (start..end).map(|i| self.slot(i)).collect(),
        };
        self.seq += 1;
        Some(chunk)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.total - self.seq) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SlotBuilder<'_, '_> {}

/// Joins a worker thread, re-raising its panic payload (if any) on the
/// caller's thread instead of wrapping it in a second panic message.
fn join_lane(handle: std::thread::ScopedJoinHandle<'_, Vec<StageReport>>) -> Vec<StageReport> {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// What the engine hands back to the executor for `ChainOutput` assembly.
pub(crate) struct StreamRun {
    pub(crate) items: Vec<StageItem>,
    pub(crate) reports: Vec<StageReport>,
    pub(crate) breaker_events: Vec<BreakerEvent>,
    pub(crate) shed: usize,
    pub(crate) sim_elapsed: Duration,
    /// Revision-cache tallies (all zeros when no cache is configured).
    pub(crate) revision: CacheStats,
    /// The first journal IO error, if any write failed.
    pub(crate) journal_error: Option<std::io::Error>,
}

/// Runs the pipeline over a borrowed source. The single entry point for
/// both batch-fed and sustained streaming runs, journaled (the sink
/// appends to `journal`) or not, fresh, resumed or replay-only.
///
/// The caller thread is the sink on every path. At one lane (threads = 1,
/// or a chain with no stage) it builds, runs and sinks each chunk inline.
/// Otherwise it spawns `threads` lanes, each taking its next chunk
/// straight from the [`SlotBuilder`] and running the whole chain on it,
/// and drains their output queue itself. Under a breaker every lane
/// passes the [`EpochGate`].
pub(crate) fn run_pipeline(
    env: &StreamEnv<'_, '_>,
    journal: Option<&mut Journal>,
    threads: usize,
    queue_capacity: usize,
    source: StreamSource<'_>,
    replay: Replay<'_>,
) -> StreamRun {
    let n = source.pairs.len();
    let lanes = if env.stages.is_empty() {
        1
    } else {
        threads.max(1)
    };
    let chunk_len = adaptive_chunk_size(n, lanes, queue_capacity);
    // The pre-pass: sequential, thread-independent scans of the input
    // that decide shedding and mark duplicates as hits on their earliest
    // occurrence. Slots are built later, one chunk at a time as the pipe
    // pulls them.
    let (chunks, cache_plan) = SlotBuilder::new(env, source, replay, journal.is_some(), chunk_len);
    let (replayer, revision) = match cache_plan {
        Some(plan) => {
            let replayer = HitReplayer {
                uses: plan.uses,
                store: FxHashMap::default(),
            };
            (Some(replayer), plan.stats)
        }
        None => (None, CacheStats::default()),
    };
    let gate = env.breaker.map(|policy| EpochGate::new(env, policy));

    let mut sink = Sink::new(env, journal, lanes, n, replayer);

    if lanes == 1 {
        // One lane: drive the same worker and sink inline, skipping thread
        // and queue overhead entirely. The gate never makes it wait: every
        // earlier chunk has finished.
        let mut worker = Worker::new(env, gate.as_ref());
        for mut chunk in chunks {
            worker.process_chunk(&mut chunk);
            sink.consume(chunk);
        }
        merge_reports(&mut sink.reports, worker.reports);
    } else {
        let cap_chunks = (queue_capacity.max(1) / chunk_len.max(1)).max(2);
        let queue = OrderedQueue::new(cap_chunks, chunks.len() as u64);
        let chunks = Mutex::new(chunks);
        std::thread::scope(|scope| {
            let (queue, chunks, gate) = (&queue, &chunks, gate.as_ref());
            // Taken before the first spawn: a panic in the sink (or in a
            // spawn) aborts the queue and the gate, so no lane stays
            // blocked on either.
            let _guard = AbortOnPanic(queue, gate);
            let handles: Vec<_> = (0..lanes)
                .map(|_| {
                    scope.spawn(move || {
                        let _guard = AbortOnPanic(queue, gate);
                        let mut worker = Worker::new(env, gate);
                        loop {
                            // Chunks are built under the lock, so in index
                            // order. A poisoned lock means a sibling
                            // panicked: stop.
                            let next = chunks.lock().ok().and_then(|mut c| c.next());
                            let Some(mut chunk) = next else {
                                break;
                            };
                            if !worker.process_chunk(&mut chunk) || !queue.push(chunk) {
                                break;
                            }
                        }
                        worker.reports
                    })
                })
                .collect();
            while let Some(chunk) = queue.pop() {
                sink.consume(chunk);
            }
            for handle in handles {
                merge_reports(&mut sink.reports, join_lane(handle));
            }
        });
    }
    let Sink {
        items,
        makespan,
        shed,
        reports,
        journal_error,
        ..
    } = sink;
    StreamRun {
        items,
        reports,
        breaker_events: gate.map(EpochGate::into_events).unwrap_or_default(),
        shed,
        sim_elapsed: Duration::from_nanos(makespan),
        revision,
        journal_error,
    }
}

/// One empty report per stage, named, in chain order.
fn stage_reports(env: &StreamEnv<'_, '_>) -> Vec<StageReport> {
    env.stages
        .iter()
        .map(|s| StageReport {
            stage: s.name().to_string(),
            ..StageReport::default()
        })
        .collect()
}

/// Adds per-stage reports into the run totals. Report merging sums, so
/// the order lanes are folded in never shows.
fn merge_reports(totals: &mut [StageReport], reports: Vec<StageReport>) {
    for (total, report) in totals.iter_mut().zip(reports) {
        merge_report(total, report);
    }
}

/// Adds report `b` into `a` field-by-field (counters union-add). Also
/// the per-stage merge primitive for the shard driver.
pub(crate) fn merge_report(a: &mut StageReport, b: StageReport) {
    a.items_in += b.items_in;
    a.items_out += b.items_out;
    a.quarantined += b.quarantined;
    a.degraded += b.degraded;
    a.retries += b.retries;
    a.iterations += b.iterations;
    a.faults_injected += b.faults_injected;
    a.timeouts += b.timeouts;
    a.cpu_time += b.cpu_time;
    a.backoff_time += b.backoff_time;
    a.latency_time += b.latency_time;
    for (key, v) in b.counters {
        *a.counters.entry(key).or_insert(0) += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RetryPolicy};

    /// A slotless chunk, for the queue tests.
    fn chunk(seq: u64) -> Chunk {
        Chunk {
            seq,
            epoch: 0,
            epoch_chunks: 1,
            slots: Vec::new(),
        }
    }

    #[test]
    fn ordered_queue_releases_in_sequence_order() {
        let q = OrderedQueue::new(4, 3);
        // Push out of order within the window; pops come back ordered.
        assert!(q.push(chunk(1)));
        assert!(q.push(chunk(0)));
        assert!(q.push(chunk(2)));
        assert_eq!(q.pop().map(|c| c.seq), Some(0));
        assert_eq!(q.pop().map(|c| c.seq), Some(1));
        assert_eq!(q.pop().map(|c| c.seq), Some(2));
        assert_eq!(q.pop().map(|c| c.seq), None);
    }

    #[test]
    fn ordered_queue_blocks_for_backpressure() {
        let q = OrderedQueue::new(1, 4);
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| {
                for seq in 0..4u64 {
                    // seq 1 cannot enter until seq 0 is popped: capacity 1.
                    assert!(q.push(chunk(seq)));
                }
            });
            for want in 0..4u64 {
                assert_eq!(q.pop().map(|c| c.seq), Some(want));
            }
            assert_eq!(q.pop().map(|c| c.seq), None);
            producer.join().expect("producer");
        });
    }

    #[test]
    fn aborted_queue_unblocks_everyone() {
        let q = OrderedQueue::new(1, 10);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| q.pop().map(|c| c.seq));
            q.abort();
            assert_eq!(consumer.join().expect("consumer"), None);
            assert!(!q.push(chunk(0)));
        });
    }

    fn pairs(n: usize) -> Vec<InstructionPair> {
        (0..n)
            .map(|i| {
                InstructionPair::new(
                    i as u64,
                    "q".to_string(),
                    "a".to_string(),
                    coachlm_data::Category(0),
                )
            })
            .collect()
    }

    /// The chunks a fresh, uncached, stage-less run over `source` builds.
    fn build(source: StreamSource<'_>, chunk_len: usize, window: usize) -> Vec<Chunk> {
        let (plan, retry) = (FaultPlan::none(), RetryPolicy::default());
        let env = StreamEnv {
            stages: &[],
            salts: &[],
            deadlines: &[],
            service: &[],
            budgets: &[],
            seed: 0,
            plan: &plan,
            retry: &retry,
            breaker: None,
            window,
            content_keyed: false,
            cache: false,
        };
        let (chunks, _) = SlotBuilder::new(&env, source, Replay::none(), false, chunk_len);
        let len = chunks.len();
        let chunks: Vec<Chunk> = chunks.collect();
        assert_eq!(chunks.len(), len, "the builder knows its chunk count");
        chunks
    }

    #[test]
    fn chunks_never_span_epoch_boundaries() {
        let input = pairs(25);
        let chunks = build(StreamSource::batch(&input), 4, 10);
        let mut seen = 0usize;
        for c in &chunks {
            let lo = c.slots.first().map(|s| s.item.index).unwrap_or(0);
            let hi = c.slots.last().map(|s| s.item.index).unwrap_or(0);
            assert_eq!(lo, seen, "chunks are contiguous and ordered");
            assert_eq!(lo / 10, hi / 10, "chunk {lo}..={hi} crosses an epoch");
            assert_eq!(c.epoch, lo / 10);
            // The epoch gate closes an epoch after this many chunks.
            let cut = chunks.iter().filter(|d| d.epoch == c.epoch).count();
            assert_eq!(c.epoch_chunks, cut, "epoch {}", c.epoch);
            seen = hi + 1;
        }
        assert_eq!(seen, 25);
        assert!(chunks.iter().all(|c| c.slots.len() <= 4));
    }

    #[test]
    fn sustained_feed_sheds_deterministically_above_capacity() {
        let input = pairs(500);
        let fed = |feed: &Feed, n: usize| -> Vec<Slot> {
            let source = StreamSource {
                pairs: &input[..n],
                feed: feed.clone(),
            };
            build(source, 16, 256)
                .into_iter()
                .flat_map(|c| c.slots)
                .collect()
        };
        // Arrivals at 100/s against a 40/s drain with room for 10: the
        // backlog fills, then ~60% of steady-state arrivals shed.
        let feed = Feed::Sustained {
            rate_per_sec: 100.0,
            drain_per_sec: 40.0,
            backlog_capacity: 10,
        };
        let a = fed(&feed, 500);
        let b = fed(&feed, 500);
        let shed_a: Vec<usize> = a.iter().filter(|s| s.shed).map(|s| s.item.index).collect();
        let shed_b: Vec<usize> = b.iter().filter(|s| s.shed).map(|s| s.item.index).collect();
        assert_eq!(shed_a, shed_b, "shedding is deterministic");
        assert!(shed_a.len() > 200, "overload sheds a majority tail");
        assert!(shed_a.len() < 400, "admitted items still flow");
        assert!(a.iter().filter(|s| s.shed).all(|s| !s.item.retained));
        // Under capacity: nothing sheds, arrivals are stamped.
        let calm = Feed::Sustained {
            rate_per_sec: 10.0,
            drain_per_sec: 40.0,
            backlog_capacity: 10,
        };
        let c = fed(&calm, 200);
        assert!(c.iter().all(|s| !s.shed));
        assert!(c[199].arrival > c[1].arrival);
        // Batch feed: untouched.
        let d = fed(&Feed::Batch, 50);
        assert!(d.iter().all(|s| !s.shed && s.arrival == 0));
    }
}
