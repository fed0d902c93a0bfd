//! The pipeline-parallel streaming core.
//!
//! Items flow through the stage chain over bounded, *sequenced* queues:
//! the chain is partitioned into contiguous **stage groups**, each group
//! gets one or more worker **lanes**, and chunks of items move from group
//! to group in strict input order — stage *k+1* processes item *i* while
//! stage *k* processes item *i+1*. There are no batch barriers; the only
//! synchronisation points are the bounded queues themselves
//! (backpressure) and the deterministic **logical epochs** described
//! below.
//!
//! ## Logical epochs
//!
//! A logical epoch is a fixed window of input *indices* (the breaker
//! policy's `window` when a breaker is configured, the config's
//! `epoch_len` otherwise). Every slot — executed, dropped, quarantined,
//! shed, or replayed from a journal — flows through every queue in index
//! order, so each stage group observes epoch boundaries locally and
//! sequentially: breaker tallies close and state transitions fire at
//! exactly the same indices as the epoch-synchronous batch executor did,
//! which is what keeps streaming runs digest-identical to the reference
//! order at any thread count or queue capacity. The sink
//! commits journal frames in index order and fsyncs at epoch boundaries,
//! so `resume_from` re-enters at the exact frontier.
//!
//! ## Virtual time
//!
//! Wall-clock throughput depends on the host; the streaming report
//! instead carries a *modeled* elapsed time computed by the sink from
//! each stage's declared [`Stage::service_time`], the configured lane
//! allocation, and the deterministic backoff/latency channels. The
//! recurrence is the classic pipelined multi-server one: an item starts
//! on a group when both the item is ready (previous group done, or its
//! arrival time under a sustained feed) and one of the group's lanes is
//! free. The result is deterministic for a fixed config and is excluded
//! from the output digest (it legitimately varies with the thread
//! count, which the digest must not).
//!
//! ## Admission control
//!
//! A [`Feed::Sustained`] source models continuous arrivals at a fixed
//! rate against a declared drain rate: a fluid backlog accumulates at
//! the front of the pipe and items arriving while it exceeds the
//! configured capacity are **shed** — discarded up front with a
//! `shed:admission` tag, surfaced in [`ChainOutput::shed`]. Shedding is
//! a pure function of the feed parameters (never of thread count or
//! queue capacity), so sustained runs obey the same determinism
//! contract as batch runs, and shed decisions journal and replay like
//! any other disposition.

use crate::breaker::{Breaker, BreakerEvent, BreakerPolicy, StageMode};
use crate::cache::{content_key, plan_hits, CachePolicy, CacheStats, SlotHit};
use crate::executor::{adaptive_chunk_size, item_digest, item_seed, JournalSession};
use crate::fault::{FailureKind, FailureRecord, Fault, FaultPlan, RetryPolicy};
use crate::journal::{ItemTrace, StageTrace};
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
use std::ops::Range;
use std::sync::{Condvar, Mutex};
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
        /// (see [`ChainOutput::sim_elapsed`]) or measure it offline.
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

/// A source for a streaming run: the pairs plus how they arrive.
#[derive(Debug, Clone)]
pub struct StreamSource {
    /// The input pairs, in index order.
    pub pairs: Vec<InstructionPair>,
    /// The arrival model.
    pub feed: Feed,
}

impl StreamSource {
    /// A batch source: everything available at time zero, nothing shed.
    pub fn batch(pairs: Vec<InstructionPair>) -> Self {
        StreamSource {
            pairs,
            feed: Feed::Batch,
        }
    }

    /// A sustained-traffic source (see [`Feed::Sustained`]).
    pub fn sustained(
        pairs: Vec<InstructionPair>,
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

/// One item in flight, with everything the pipeline accumulates on it.
pub(crate) struct Slot {
    pub(crate) item: StageItem,
    /// Building journal record (live slots under a session only).
    pub(crate) trace: Option<ItemTrace>,
    /// `Some` for items replayed from a journal: the recorded per-stage
    /// deltas, consumed for report/breaker tallies instead of execution.
    pub(crate) replay: Option<Vec<StageTrace>>,
    /// Virtual arrival time, nanos (0 under a batch feed).
    arrival: u64,
    /// Modeled service charge per stage group, nanos, filled as the slot
    /// flows; the sink runs the virtual-time recurrence over these.
    charge: Vec<u64>,
    /// Shed at admission (already discarded, flows through untouched).
    pub(crate) shed: bool,
    /// Determinism key: the per-(stage, item) RNG seeds and fault rolls
    /// key on this. The pair id normally; the content fingerprint in
    /// content-keyed runs, so identical content behaves identically.
    pub(crate) key: u64,
    /// Set by the revision-cache pre-pass: skip execution and replay the
    /// representative's effects at the sink.
    pub(crate) hit: Option<SlotHit>,
}

/// The empty per-item journal record a live slot builds as it flows.
/// Also force-attached to cache representatives in un-journaled runs so
/// their per-stage deltas are captured for hit replay.
fn fresh_trace(item: &StageItem) -> ItemTrace {
    ItemTrace {
        index: item.index as u64,
        pair_id: item.pair.id,
        disposition: 0,
        instruction: None,
        response: None,
        tags: Vec::new(),
        failure: None,
        digest: 0,
        stages: Vec::new(),
    }
}

impl Slot {
    pub(crate) fn live(item: StageItem, journaling: bool) -> Self {
        let trace = journaling.then(|| fresh_trace(&item));
        Slot {
            item,
            trace,
            replay: None,
            arrival: 0,
            charge: Vec::new(),
            shed: false,
            key: 0,
            hit: None,
        }
    }

    pub(crate) fn replayed(item: StageItem, stages: Vec<StageTrace>) -> Self {
        Slot {
            item,
            trace: None,
            replay: Some(stages),
            arrival: 0,
            charge: Vec::new(),
            shed: false,
            key: 0,
            hit: None,
        }
    }
}

/// A run of consecutive slots moving through the pipe as one unit; the
/// claim/handoff granularity of the queues.
struct Chunk {
    seq: u64,
    slots: Vec<Slot>,
}

/// A bounded, sequenced chunk queue: pushes carry an explicit sequence
/// number and pops release chunks in strictly increasing sequence order,
/// so a multi-lane producer group can finish chunks out of order while
/// the consumer side still sees input order. Blocking on both sides
/// (bounded window) provides backpressure; `abort` unblocks everything
/// when a worker panics so the pipeline tears down instead of hanging.
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

/// Aborts every queue if the owning worker unwinds, so sibling workers
/// blocked on a queue wake up and the scope join can re-raise the panic
/// instead of deadlocking.
struct AbortOnPanic<'a>(&'a [OrderedQueue]);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for q in self.0 {
                q.abort();
            }
        }
    }
}

/// One contiguous run of stages sharing a lane pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GroupPlan {
    pub(crate) stages: Range<usize>,
    pub(crate) lanes: usize,
}

/// The pipeline shape for a run: contiguous stage groups and their lane
/// counts. Worker lanes sum to the configured thread count; the same
/// shape drives both the real OS threads and the virtual-time model, so
/// the modeled speedup is the speedup of the topology actually built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Topology {
    pub(crate) groups: Vec<GroupPlan>,
}

impl Topology {
    pub(crate) fn total_lanes(&self) -> usize {
        self.groups.iter().map(|g| g.lanes).sum()
    }
}

/// Partitions `service.len()` stages into `min(threads, stages)`
/// contiguous groups and allocates the `threads` lanes across them
/// proportionally to modeled service time (each group keeps at least
/// one). `single_lane` (set when a breaker is configured) pins every
/// group to one lane so per-stage epoch evolution stays sequential.
pub(crate) fn plan_topology(service: &[u64], threads: usize, single_lane: bool) -> Topology {
    let s = service.len();
    let threads = threads.max(1);
    if s == 0 {
        return Topology { groups: Vec::new() };
    }
    let mut groups: Vec<GroupPlan> = Vec::new();
    if threads >= s {
        for k in 0..s {
            groups.push(GroupPlan {
                stages: k..k + 1,
                lanes: 1,
            });
        }
        if !single_lane {
            // Hand the surplus lanes to the heaviest per-lane groups,
            // one at a time (deterministic tie-break: lowest index).
            for _ in 0..threads - s {
                let mut best = 0usize;
                for g in 1..groups.len() {
                    let (a, b) = (&groups[best], &groups[g]);
                    // service/lanes comparison without division:
                    // pick g when service[g]*lanes[best] > service[best]*lanes[g].
                    let sa = service[a.stages.start] as u128 * b.lanes as u128;
                    let sb = service[b.stages.start] as u128 * a.lanes as u128;
                    if sb > sa {
                        best = g;
                    }
                }
                groups[best].lanes += 1;
            }
        }
    } else {
        // Fewer lanes than stages: balance contiguous groups by total
        // service so the bottleneck group stays as light as possible.
        let total: u128 = service.iter().map(|&x| x as u128).sum();
        let mut start = 0usize;
        let mut acc: u128 = 0;
        let mut remaining_groups = threads;
        let mut remaining_total = total;
        for (k, &sv) in service.iter().enumerate() {
            acc += sv as u128;
            let stages_left = s - k - 1;
            let target = remaining_total / remaining_groups.max(1) as u128;
            let must_close = stages_left < remaining_groups - 1;
            if remaining_groups > 0 && (acc >= target || must_close) && k + 1 > start {
                groups.push(GroupPlan {
                    stages: start..k + 1,
                    lanes: 1,
                });
                start = k + 1;
                remaining_total = remaining_total.saturating_sub(acc);
                acc = 0;
                remaining_groups -= 1;
            }
        }
        if start < s {
            match groups.last_mut() {
                Some(last) => last.stages.end = s,
                None => groups.push(GroupPlan {
                    stages: 0..s,
                    lanes: 1,
                }),
            }
        }
    }
    Topology { groups }
}

/// Everything the streaming engine needs, borrowed once per run.
pub(crate) struct StreamEnv<'a, 'b, 'j> {
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
    pub(crate) session: Option<&'a JournalSession<'j>>,
    /// Key per-item randomness on content fingerprints instead of pair
    /// ids (see [`crate::cache`]). Forced on by a revision cache.
    pub(crate) content_keyed: bool,
    /// Revision-cache policy, if caching is enabled for this run.
    pub(crate) cache: Option<&'a CachePolicy>,
}

/// Per-stage accumulation local to one worker lane.
#[derive(Default)]
struct StageStats {
    items_in: usize,
    items_out: usize,
    quarantined: usize,
    degraded: usize,
    retries: u64,
    iterations: u64,
    faults: u64,
    timeouts: u64,
    counters: BTreeMap<String, u64>,
    time: Duration,
    backoff: Duration,
    latency: Duration,
}

/// Folds one lane's per-stage accumulation into the stage's report.
/// `cpu_time` takes only measured body time; the simulated channels stay
/// disjoint (see [`StageReport`]).
fn merge_stage_stats(report: &mut StageReport, st: StageStats) {
    report.items_in += st.items_in;
    report.items_out += st.items_out;
    report.quarantined += st.quarantined;
    report.degraded += st.degraded;
    report.retries += st.retries;
    report.iterations += st.iterations;
    report.faults_injected += st.faults;
    report.timeouts += st.timeouts;
    report.cpu_time += st.time;
    report.backoff_time += st.backoff;
    report.latency_time += st.latency;
    for (key, v) in st.counters {
        *report.counters.entry(key).or_insert(0) += v;
    }
}

/// Folds one replayed item's recorded stage delta into the stage's
/// report. Replayed items contribute no measured `cpu_time` — that
/// channel is explicitly outside the determinism contract.
fn merge_trace_delta(report: &mut StageReport, e: &StageTrace) {
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
        *report.counters.entry(key.clone()).or_insert(0) += v;
    }
}

/// What one worker lane hands back when its stream runs dry.
struct LaneOut {
    /// `(stage index, report delta)` for the lane's stages.
    reports: Vec<(usize, StageReport)>,
    /// `(stage index, event)` — populated only under a breaker, where
    /// the group runs single-lane.
    events: Vec<(usize, BreakerEvent)>,
}

/// The streaming replacement for the old per-segment worker: processes
/// chunks for one stage group, detecting logical-epoch boundaries from
/// the item indices flowing past and driving the group's breakers
/// exactly as the epoch-synchronous batch loop did.
struct GroupWorker<'e, 'a, 'b, 'j> {
    env: &'e StreamEnv<'a, 'b, 'j>,
    group: usize,
    range: Range<usize>,
    /// `seed ^ salt` per stage, hoisted out of the per-item loop (the
    /// per-item seed is then a single multiply-xor).
    seed_base: Vec<u64>,
    breakers: Option<Vec<Breaker>>,
    modes: Vec<StageMode>,
    epoch: usize,
    epoch_open: bool,
    executed: Vec<usize>,
    failures: Vec<usize>,
    stats: Vec<StageStats>,
    replay_reports: Vec<StageReport>,
    events: Vec<(usize, BreakerEvent)>,
    scratch: BTreeMap<String, u64>,
}

impl<'e, 'a, 'b, 'j> GroupWorker<'e, 'a, 'b, 'j> {
    fn new(env: &'e StreamEnv<'a, 'b, 'j>, group: usize, range: Range<usize>) -> Self {
        let len = range.len();
        let breakers = env
            .breaker
            .map(|policy| (0..len).map(|_| Breaker::new(policy.clone())).collect());
        let seed_base = range.clone().map(|k| env.seed ^ env.salts[k]).collect();
        GroupWorker {
            env,
            group,
            range: range.clone(),
            seed_base,
            breakers,
            modes: vec![StageMode::Execute; len],
            epoch: 0,
            epoch_open: false,
            executed: vec![0; len],
            failures: vec![0; len],
            stats: (0..len).map(|_| StageStats::default()).collect(),
            replay_reports: range
                .map(|k| StageReport {
                    stage: env.stages[k].name().to_string(),
                    ..StageReport::default()
                })
                .collect(),
            events: Vec::new(),
            scratch: BTreeMap::new(),
        }
    }

    fn open_epoch(&mut self, epoch: usize) {
        self.epoch = epoch;
        self.epoch_open = true;
        if let Some(bs) = &self.breakers {
            let start = epoch * self.env.window;
            for (j, b) in bs.iter().enumerate() {
                self.modes[j] = b.mode(start);
            }
        }
    }

    /// Closes the current epoch: feeds the tallies to the breakers (in
    /// stage order, matching the batch loop) and records transitions.
    fn close_epoch(&mut self) {
        if let Some(bs) = self.breakers.as_mut() {
            for (j, b) in bs.iter_mut().enumerate() {
                if let Some((from, to)) = b.observe(self.executed[j], self.failures[j]) {
                    let k = self.range.start + j;
                    self.events.push((
                        k,
                        BreakerEvent {
                            stage: self.env.stages[k].name().to_string(),
                            epoch: self.epoch,
                            from,
                            to,
                        },
                    ));
                }
            }
        }
        self.executed.iter_mut().for_each(|x| *x = 0);
        self.failures.iter_mut().for_each(|x| *x = 0);
        self.epoch_open = false;
    }

    fn process_chunk(&mut self, chunk: &mut Chunk) {
        for slot in &mut chunk.slots {
            self.on_slot(slot);
        }
    }

    fn on_slot(&mut self, slot: &mut Slot) {
        let index = slot.item.index;
        let epoch = index / self.env.window;
        if !self.epoch_open {
            self.open_epoch(epoch);
        }
        while self.epoch < epoch {
            let next = self.epoch + 1;
            self.close_epoch();
            self.open_epoch(next);
        }
        // Cache hit: the whole stage-group topology is skipped. The slot
        // carries zero charge (a hit is free in virtual time) and the
        // sink replays the representative's effects. Hits never coexist
        // with breakers, so there are no tallies to advance here.
        if slot.hit.is_some() {
            return;
        }
        if let Some(traces) = &slot.replay {
            for e in traces {
                let k = e.stage as usize;
                if !self.range.contains(&k) {
                    continue;
                }
                let j = k - self.range.start;
                if !e.degraded {
                    self.executed[j] += 1;
                }
                if e.quarantined {
                    self.failures[j] += 1;
                }
                merge_trace_delta(&mut self.replay_reports[j], e);
            }
            return;
        }
        self.run_slot(slot);
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
        for (j, k) in self.range.clone().enumerate() {
            if !item.retained {
                break;
            }
            let stage = &env.stages[k];
            let stats = &mut self.stats[j];
            stats.items_in += 1;
            // Degraded passthrough: the stage's breaker is open (or this
            // index is past the half-open probe budget), so the item
            // flows on unrevised — the paper's §III-B1 leakage fallback.
            if !self.modes[j].executes(item.index) {
                item.tag(format!("degraded:{}", stage.name()));
                stats.degraded += 1;
                stats.items_out += 1;
                if let Some(t) = slot.trace.as_mut() {
                    t.stages.push(StageTrace {
                        stage: k as u32,
                        degraded: true,
                        retained_after: true,
                        quarantined: false,
                        retries: 0,
                        iterations: 0,
                        faults: 0,
                        timeouts: 0,
                        backoff_nanos: 0,
                        latency_nanos: 0,
                        counters: Vec::new(),
                    });
                }
                continue;
            }
            let rng_seed = item_seed(self.seed_base[j], det_key);
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
            if item.retained {
                stats.items_out += 1;
            }
            if quarantined_here {
                stats.quarantined += 1;
                self.failures[j] += 1;
            }
            self.executed[j] += 1;
            stats.retries += u64::from(t_retries);
            stats.iterations += u64::from(t_iterations);
            stats.faults += t_faults;
            stats.timeouts += u64::from(t_timeouts);
            stats.time += t_time;
            stats.backoff += t_backoff;
            stats.latency += t_latency;
            virt += body_runs * env.service[k];
            virt += u64::try_from(t_backoff.as_nanos()).unwrap_or(u64::MAX);
            virt = virt.saturating_add(u64::try_from(t_latency.as_nanos()).unwrap_or(u64::MAX));
            if let Some(t) = slot.trace.as_mut() {
                t.stages.push(StageTrace {
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
                    counters: self
                        .scratch
                        .iter()
                        .map(|(key, v)| (key.clone(), *v))
                        .collect(),
                });
            }
            if !self.scratch.is_empty() {
                for (key, v) in std::mem::take(&mut self.scratch) {
                    *self.stats[j].counters.entry(key).or_insert(0) += v;
                }
            }
        }
        slot.charge[self.group] = virt;
    }

    fn finish(mut self) -> LaneOut {
        if self.epoch_open {
            self.close_epoch();
        }
        let mut reports = Vec::with_capacity(self.range.len());
        for (j, k) in self.range.clone().enumerate() {
            let mut report = std::mem::take(&mut self.replay_reports[j]);
            report.stage = self.env.stages[k].name().to_string();
            merge_stage_stats(&mut report, std::mem::take(&mut self.stats[j]));
            reports.push((k, report));
        }
        LaneOut {
            reports,
            events: self.events,
        }
    }
}

/// A memoized chain result: the journal-visible effects of running one
/// item through the full stage chain, captured from its representative
/// and replayed verbatim onto every cache hit.
struct RepResult {
    /// Final instruction, `None` if the chain left it unchanged.
    instruction: Option<String>,
    /// Final response, `None` if the chain left it unchanged.
    response: Option<String>,
    tags: Vec<String>,
    retained: bool,
    failure: Option<FailureRecord>,
    /// Per-stage deltas, for report tallies and the hit's journal record.
    stages: Vec<StageTrace>,
}

/// Sink-side state for revision-cache hit replay. Representatives are
/// stored only while live hits still depend on them (`uses` counts down
/// per replay), so memory is bounded by in-flight duplication, not input
/// size.
struct HitReplayer {
    /// Representative item index → live dependents remaining.
    uses: FxHashMap<usize, usize>,
    store: FxHashMap<usize, RepResult>,
    /// Per-stage report deltas contributed by hit replays; folded into
    /// the run totals at `finish`. Indexed by global stage index.
    reports: Vec<StageReport>,
}

/// The ordered consumer at the end of the pipe: collects items in index
/// order, finalizes and appends journal records, fsyncs at logical-epoch
/// boundaries, and runs the virtual-time recurrence.
struct Sink<'e, 'a, 'b, 'j> {
    env: &'e StreamEnv<'a, 'b, 'j>,
    /// One min-heap of lane free-times per group, for the recurrence.
    lanes: Vec<BinaryHeap<Reverse<u64>>>,
    items: Vec<StageItem>,
    makespan: u64,
    shed: usize,
    prev_epoch: Option<usize>,
    hits: Option<HitReplayer>,
}

impl<'e, 'a, 'b, 'j> Sink<'e, 'a, 'b, 'j> {
    fn new(
        env: &'e StreamEnv<'a, 'b, 'j>,
        topology: &Topology,
        n: usize,
        hits: Option<HitReplayer>,
    ) -> Self {
        Sink {
            env,
            lanes: topology
                .groups
                .iter()
                .map(|g| (0..g.lanes).map(|_| Reverse(0u64)).collect())
                .collect(),
            items: Vec::with_capacity(n),
            makespan: 0,
            shed: 0,
            prev_epoch: None,
            hits,
        }
    }

    /// Replays the representative's recorded effects onto a hit slot:
    /// terminal item state, per-stage report deltas, and (under a
    /// journal) the stage traces for the hit's own record. Because the
    /// sink consumes slots in index order and the pre-pass always picks
    /// the *earliest* occurrence as representative, the representative's
    /// result is guaranteed to be in the store by the time its hits
    /// arrive.
    fn replay_hit(&mut self, slot: &mut Slot, hit: SlotHit) {
        let Some(hr) = self.hits.as_mut() else {
            unreachable!("hit slots only exist under a cache plan");
        };
        let Some(rep) = hr.store.get(&hit.rep) else {
            unreachable!("representative committed before its hits");
        };
        if let Some(instruction) = &rep.instruction {
            slot.item.pair.instruction = instruction.clone();
        }
        if let Some(response) = &rep.response {
            slot.item.pair.response = response.clone();
        }
        slot.item.tags = rep.tags.clone();
        slot.item.retained = rep.retained;
        slot.item.failure = rep.failure.clone();
        if hit.near {
            slot.item.tag("cache:near");
        }
        for e in &rep.stages {
            merge_trace_delta(&mut hr.reports[e.stage as usize], e);
        }
        if let Some(t) = slot.trace.as_mut() {
            t.stages = rep.stages.clone();
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

    /// If this slot is a representative with live dependents, captures
    /// its terminal state for later hit replay. Live representatives
    /// carry a force-attached trace (so stage deltas exist even
    /// un-journaled); replayed ones carry their committed deltas.
    fn capture_rep(&mut self, slot: &Slot) {
        let Some(hr) = self.hits.as_mut() else {
            return;
        };
        if !hr.uses.contains_key(&slot.item.index) {
            return;
        }
        let stages = match (&slot.replay, &slot.trace) {
            (Some(replay), _) => replay.clone(),
            (None, Some(trace)) => trace.stages.clone(),
            (None, None) => unreachable!("live representatives get traces attached"),
        };
        let item = &slot.item;
        hr.store.insert(
            item.index,
            RepResult {
                instruction: item
                    .instruction_changed()
                    .then(|| item.pair.instruction.clone()),
                response: item.response_changed().then(|| item.pair.response.clone()),
                tags: item.tags.clone(),
                retained: item.retained,
                failure: item.failure.clone(),
                stages,
            },
        );
    }

    fn consume(&mut self, chunk: Chunk) {
        for mut slot in chunk.slots {
            let epoch = slot.item.index / self.env.window;
            if let Some(prev) = self.prev_epoch {
                if epoch != prev {
                    // Commit frame: everything up to the epoch boundary
                    // is durable before the next epoch's records land.
                    if let Some(session) = self.env.session {
                        session.sync();
                    }
                }
            }
            self.prev_epoch = Some(epoch);

            // Virtual-time recurrence: the slot starts on a group when
            // it is ready and a lane is free; zero-charge slots (shed,
            // replayed, dropped upstream) pass through without cost.
            let mut t = slot.arrival;
            for (g, heap) in self.lanes.iter_mut().enumerate() {
                let free = heap.peek().map_or(0, |Reverse(x)| *x);
                let start = t.max(free);
                let done = start.saturating_add(slot.charge[g]);
                if heap.pop().is_some() {
                    heap.push(Reverse(done));
                }
                t = done;
            }
            self.makespan = self.makespan.max(t);

            if slot.shed {
                self.shed += 1;
            }
            if let Some(hit) = slot.hit {
                self.replay_hit(&mut slot, hit);
            } else {
                self.capture_rep(&slot);
            }
            if let Some(session) = self.env.session {
                if let Some(mut trace) = slot.trace.take() {
                    let item = &slot.item;
                    trace.disposition = match item.disposition() {
                        Disposition::Retained => 0,
                        Disposition::Dropped => 1,
                        Disposition::Quarantined => 2,
                    };
                    trace.instruction = item
                        .instruction_changed()
                        .then(|| item.pair.instruction.clone());
                    trace.response = item.response_changed().then(|| item.pair.response.clone());
                    trace.tags = item.tags.clone();
                    trace.failure = item.failure.clone();
                    trace.digest = item_digest(item);
                    session.append(&trace);
                }
            }
            self.items.push(slot.item);
        }
    }

    fn finish(self) -> SinkOut {
        SinkOut {
            items: self.items,
            sim_elapsed: Duration::from_nanos(self.makespan),
            shed: self.shed,
            hit_reports: self.hits.map(|hr| hr.reports).unwrap_or_default(),
        }
    }
}

/// What the sink hands back when the stream runs dry.
struct SinkOut {
    items: Vec<StageItem>,
    sim_elapsed: Duration,
    shed: usize,
    /// Per-stage report deltas from cache-hit replays (empty uncached).
    hit_reports: Vec<StageReport>,
}

/// Applies the feed to the slot sequence: stamps virtual arrival times
/// and marks the slots [`admission_plan`] sheds. Replayed slots re-apply
/// their recorded admission outcome so a resumed sustained run
/// reproduces the original shed set exactly.
fn apply_feed(feed: &Feed, slots: &mut [Slot]) {
    let Feed::Sustained { rate_per_sec, .. } = feed else {
        return;
    };
    let recorded = slots.iter().map(|slot| {
        slot.replay
            .is_some()
            .then(|| slot.item.has_tag("shed:admission"))
    });
    let Some(plan) = admission_plan(feed, recorded) else {
        return;
    };
    let rate = rate_per_sec.max(1e-9);
    for (i, (slot, shed)) in slots.iter_mut().zip(plan).enumerate() {
        slot.arrival = (i as f64 / rate * 1e9) as u64;
        slot.shed = shed;
        if shed && slot.replay.is_none() {
            slot.item.discard("shed:admission");
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

/// Cuts the slot sequence into chunks of at most `chunk_len` slots,
/// never spanning a logical-epoch boundary (so epoch-frame commits and
/// breaker windows align with chunk edges).
fn build_chunks(slots: Vec<Slot>, chunk_len: usize, window: usize) -> Vec<Chunk> {
    let chunk_len = chunk_len.max(1);
    let mut chunks: Vec<Chunk> = Vec::with_capacity(slots.len() / chunk_len + 1);
    let mut cur: Vec<Slot> = Vec::with_capacity(chunk_len);
    for slot in slots {
        let index = slot.item.index;
        cur.push(slot);
        if cur.len() >= chunk_len || (index + 1).is_multiple_of(window) {
            chunks.push(Chunk {
                seq: chunks.len() as u64,
                slots: std::mem::replace(&mut cur, Vec::with_capacity(chunk_len)),
            });
        }
    }
    if !cur.is_empty() {
        chunks.push(Chunk {
            seq: chunks.len() as u64,
            slots: cur,
        });
    }
    chunks
}

/// Joins a worker thread, re-raising its panic payload (if any) on the
/// caller's thread instead of wrapping it in a second panic message.
fn join_lane(handle: std::thread::ScopedJoinHandle<'_, LaneOut>) -> LaneOut {
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
}

/// Runs the pipeline over the prepared slots. The single entry point for
/// both batch-fed and sustained streaming runs, journaled or not.
pub(crate) fn run_pipeline(
    env: &StreamEnv<'_, '_, '_>,
    threads: usize,
    queue_capacity: usize,
    feed: &Feed,
    mut slots: Vec<Slot>,
) -> StreamRun {
    let n = slots.len();
    apply_feed(feed, &mut slots);
    // Stamp the determinism key every slot's RNG and fault rolls derive
    // from. With content keying off this is the pair id — bit-identical
    // to the historical behaviour.
    for slot in &mut slots {
        slot.key = if env.content_keyed {
            content_key(&slot.item.original)
        } else {
            slot.item.pair.id
        };
    }
    // Revision-cache pre-pass: a sequential, thread-independent scan
    // that marks duplicate slots as hits on their earliest occurrence.
    let cache_plan = env.cache.map(|policy| plan_hits(&mut slots, policy));
    let mut replayer = cache_plan.as_ref().map(|plan| {
        // Live representatives with dependents need their per-stage
        // deltas captured even when no journal is attached.
        for slot in &mut slots {
            if slot.replay.is_none()
                && slot.trace.is_none()
                && plan.uses.contains_key(&slot.item.index)
            {
                slot.trace = Some(fresh_trace(&slot.item));
            }
        }
        HitReplayer {
            uses: plan.uses.clone(),
            store: FxHashMap::default(),
            reports: vec![StageReport::default(); env.stages.len()],
        }
    });
    let revision = cache_plan.map(|p| p.stats).unwrap_or_default();
    let topology = plan_topology(env.service, threads, env.breaker.is_some());
    let total_lanes = topology.total_lanes().max(1);
    for slot in &mut slots {
        slot.charge = vec![0; topology.groups.len()];
    }
    let chunk_len = adaptive_chunk_size(n, total_lanes, queue_capacity);
    let chunks = build_chunks(slots, chunk_len, env.window);
    let total_chunks = chunks.len() as u64;

    let mut reports: Vec<StageReport> = env
        .stages
        .iter()
        .map(|s| StageReport {
            stage: s.name().to_string(),
            ..StageReport::default()
        })
        .collect();
    let mut events: Vec<(usize, BreakerEvent)> = Vec::new();

    let sequential = topology.groups.len() <= 1 && total_lanes <= 1;
    let sink_out = if topology.groups.is_empty() {
        // Stage-less chain: the sink alone sees every slot.
        let mut sink = Sink::new(env, &topology, n, replayer.take());
        for chunk in chunks {
            sink.consume(chunk);
        }
        sink.finish()
    } else if sequential {
        // One group, one lane: drive the exact same worker and sink
        // inline, skipping thread and queue overhead entirely.
        let mut worker = GroupWorker::new(env, 0, topology.groups[0].stages.clone());
        let mut sink = Sink::new(env, &topology, n, replayer.take());
        for mut chunk in chunks {
            worker.process_chunk(&mut chunk);
            sink.consume(chunk);
        }
        fold_lane(worker.finish(), &mut reports, &mut events);
        sink.finish()
    } else {
        let groups = topology.groups.len();
        let cap_chunks = (queue_capacity.max(1) / chunk_len.max(1)).max(2);
        let queues: Vec<OrderedQueue> = (0..=groups)
            .map(|_| OrderedQueue::new(cap_chunks, total_chunks))
            .collect();
        let (lane_outs, sink_out) = std::thread::scope(|scope| {
            let queues = &queues;
            let topology = &topology;
            let mut handles = Vec::new();
            for (g, plan) in topology.groups.iter().enumerate() {
                for _ in 0..plan.lanes {
                    let range = plan.stages.clone();
                    handles.push(scope.spawn(move || {
                        let _guard = AbortOnPanic(queues);
                        let mut worker = GroupWorker::new(env, g, range);
                        while let Some(mut chunk) = queues[g].pop() {
                            worker.process_chunk(&mut chunk);
                            if !queues[g + 1].push(chunk) {
                                break;
                            }
                        }
                        worker.finish()
                    }));
                }
            }
            let sink_hits = replayer.take();
            let sink_handle = scope.spawn(move || {
                let _guard = AbortOnPanic(queues);
                let mut sink = Sink::new(env, topology, n, sink_hits);
                while let Some(chunk) = queues[groups].pop() {
                    sink.consume(chunk);
                }
                sink.finish()
            });
            // The caller thread is the source: feed in order, with the
            // bounded first queue providing backpressure.
            for chunk in chunks {
                if !queues[0].push(chunk) {
                    break;
                }
            }
            let lane_outs: Vec<LaneOut> = handles.into_iter().map(join_lane).collect();
            let sink_out = sink_handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (lane_outs, sink_out)
        });
        for lane in lane_outs {
            fold_lane(lane, &mut reports, &mut events);
        }
        sink_out
    };

    // Cache-hit replays contributed report deltas at the sink; fold them
    // into the per-stage totals alongside the lane reports.
    for (k, report) in sink_out.hit_reports.into_iter().enumerate() {
        merge_report(&mut reports[k], report);
    }

    // Batch order is epoch-major, stage-minor; lanes reported events in
    // (group, epoch) order, so a stable sort by epoch restores it.
    events.sort_by_key(|(k, e)| (e.epoch, *k));
    StreamRun {
        items: sink_out.items,
        reports,
        breaker_events: events.into_iter().map(|(_, e)| e).collect(),
        shed: sink_out.shed,
        sim_elapsed: sink_out.sim_elapsed,
        revision,
    }
}

/// Merges one lane's output into the run totals. Report merging sums,
/// so the fold order (group-major, lane-minor) never shows.
fn fold_lane(lane: LaneOut, reports: &mut [StageReport], events: &mut Vec<(usize, BreakerEvent)>) {
    for (k, report) in lane.reports {
        merge_report(&mut reports[k], report);
    }
    events.extend(lane.events);
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

    #[test]
    fn topology_gives_every_stage_a_lane() {
        let t = plan_topology(&[100, 100, 100], 8, false);
        assert_eq!(t.groups.len(), 3);
        assert_eq!(t.total_lanes(), 8);
        assert!(t.groups.iter().all(|g| g.lanes >= 1));
        // Contiguous, covering, in order.
        assert_eq!(t.groups[0].stages, 0..1);
        assert_eq!(t.groups[2].stages, 2..3);
    }

    #[test]
    fn topology_lanes_follow_service_weight() {
        // One heavy stage: the surplus lanes all land on it.
        let t = plan_topology(&[1_000_000, 10, 10], 6, false);
        assert_eq!(t.groups[0].lanes, 4);
        assert_eq!(t.groups[1].lanes, 1);
        assert_eq!(t.groups[2].lanes, 1);
    }

    #[test]
    fn topology_groups_stages_when_threads_are_scarce() {
        let t = plan_topology(&[100, 100, 100, 100], 2, false);
        assert_eq!(t.groups.len(), 2);
        assert_eq!(t.total_lanes(), 2);
        assert_eq!(t.groups[0].stages.start, 0);
        assert_eq!(t.groups.last().unwrap().stages.end, 4);
        // Contiguity: each group starts where the previous ended.
        assert_eq!(t.groups[0].stages.end, t.groups[1].stages.start);
    }

    #[test]
    fn topology_single_lane_under_breaker() {
        let t = plan_topology(&[100, 100], 8, true);
        assert_eq!(t.groups.len(), 2);
        assert!(t.groups.iter().all(|g| g.lanes == 1));
    }

    #[test]
    fn ordered_queue_releases_in_sequence_order() {
        let q = OrderedQueue::new(4, 3);
        // Push out of order within the window; pops come back ordered.
        assert!(q.push(Chunk {
            seq: 1,
            slots: Vec::new()
        }));
        assert!(q.push(Chunk {
            seq: 0,
            slots: Vec::new()
        }));
        assert!(q.push(Chunk {
            seq: 2,
            slots: Vec::new()
        }));
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
                    assert!(q.push(Chunk {
                        seq,
                        slots: Vec::new()
                    }));
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
            assert!(!q.push(Chunk {
                seq: 0,
                slots: Vec::new()
            }));
        });
    }

    #[test]
    fn chunks_never_span_epoch_boundaries() {
        let slots: Vec<Slot> = (0..25)
            .map(|i| {
                Slot::live(
                    StageItem::new(
                        i,
                        InstructionPair::new(
                            i as u64,
                            "q".to_string(),
                            "a".to_string(),
                            coachlm_data::Category(0),
                        ),
                    ),
                    false,
                )
            })
            .collect();
        let chunks = build_chunks(slots, 4, 10);
        let mut seen = 0usize;
        for c in &chunks {
            let lo = c.slots.first().map(|s| s.item.index).unwrap_or(0);
            let hi = c.slots.last().map(|s| s.item.index).unwrap_or(0);
            assert_eq!(lo, seen, "chunks are contiguous and ordered");
            assert_eq!(lo / 10, hi / 10, "chunk {lo}..={hi} crosses an epoch");
            seen = hi + 1;
        }
        assert_eq!(seen, 25);
        assert!(chunks.iter().all(|c| c.slots.len() <= 4));
    }

    #[test]
    fn sustained_feed_sheds_deterministically_above_capacity() {
        let mk = |n: usize| -> Vec<Slot> {
            (0..n)
                .map(|i| {
                    Slot::live(
                        StageItem::new(
                            i,
                            InstructionPair::new(
                                i as u64,
                                "q".to_string(),
                                "a".to_string(),
                                coachlm_data::Category(0),
                            ),
                        ),
                        false,
                    )
                })
                .collect()
        };
        // Arrivals at 100/s against a 40/s drain with room for 10: the
        // backlog fills, then ~60% of steady-state arrivals shed.
        let feed = Feed::Sustained {
            rate_per_sec: 100.0,
            drain_per_sec: 40.0,
            backlog_capacity: 10,
        };
        let mut a = mk(500);
        let mut b = mk(500);
        apply_feed(&feed, &mut a);
        apply_feed(&feed, &mut b);
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
        let mut c = mk(200);
        apply_feed(&calm, &mut c);
        assert!(c.iter().all(|s| !s.shed));
        assert!(c[199].arrival > c[1].arrival);
        // Batch feed: untouched.
        let mut d = mk(50);
        apply_feed(&Feed::Batch, &mut d);
        assert!(d.iter().all(|s| !s.shed && s.arrival == 0));
    }
}
