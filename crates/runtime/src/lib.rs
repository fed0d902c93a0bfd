//! # coachlm-runtime
//!
//! The shared dataset-processing runtime: a [`Stage`] trait over
//! instruction pairs and a deterministic streaming [`Executor`] that runs
//! a stage chain over a dataset or a continuous stream of arrivals.
//!
//! Every processing path in the workspace — cleaning, CoachLM revision,
//! expert filtering and annotation, baseline construction, ChatGPT-judge
//! rating — is expressed as a chain of stages and executed here, instead
//! of each module hand-rolling its own thread pool and RNG plumbing.
//!
//! The core ([`stream`]) moves chunks of items over a bounded sequenced
//! queue with backpressure — no batch barriers. It is data-parallel:
//! every worker lane takes the next chunk and runs the whole chain on it.
//! With a circuit breaker the lanes also pass an epoch gate, so no chunk
//! of one logical epoch starts before the previous epoch has finished.
//! The caller's thread is the sink that collects the output in index
//! order, so a threaded run spawns only its lanes, and at one lane the
//! caller runs everything inline. The classic
//! batch entry points ([`Executor::run`], [`Executor::run_journaled`])
//! are thin wrappers feeding a bounded [`StreamSource::batch`] source;
//! [`Executor::run_stream`] additionally accepts a [`Feed::Sustained`]
//! arrival model with deterministic admission-control shedding.
//!
//! Every entry point borrows its input as `&[InstructionPair]`. A
//! pre-pass over the borrowed pairs decides admission, cache hits and
//! journal replay per index; the slots themselves are built one chunk at
//! a time as lanes pull them, so the items in flight are bounded by the
//! queue plus one chunk per lane, and a run's memory is its output plus
//! per-index marks.
//!
//! [`InstructionPair`]: coachlm_data::InstructionPair
//!
//! Determinism contract: for a fixed stage chain, input, feed, and seed,
//! the output items and every [`StageReport`]'s item counts and counters
//! are identical for **any** thread count and queue capacity. This holds
//! because
//!
//! * each (stage, item) gets its own RNG seeded from
//!   `chain seed × stage salt × pair id` — no sequential stream is shared
//!   across items, so neither chunk boundaries nor which lane claims a
//!   chunk can shift draws;
//! * the queue releases chunks in input order, however many lanes
//!   worked on them, and items are processed in place, so output order
//!   is input order by construction;
//! * counters merge by summation, which is commutative;
//! * epoch-keyed state (circuit breakers, journal commit frames) follows
//!   **logical epochs** — fixed windows of input *indices* — rather than
//!   wall-clock batches, and the breakers advance only between epochs, at
//!   the gate, so they evolve identically at any parallelism.
//!
//! Chunk width ([`adaptive_chunk_size`]) is therefore a wall-clock knob
//! only. The one field that varies across runs is
//! [`StageReport::cpu_time`], which is measured stage-body time and
//! nothing else; the simulated channels ([`StageReport::backoff_time`],
//! [`StageReport::latency_time`]) are deterministic and disjoint from it,
//! with [`StageReport::total_time`] as their sum.
//!
//! ## Fault tolerance
//!
//! Stage failures are first-class rather than panics: [`Stage::process`]
//! returns a [`StageOutcome`] (`Ok`/`Drop`/`Retryable`/`Fatal`), the
//! executor retries transient failures under a [`RetryPolicy`] with
//! deterministic simulated exponential backoff, and items that exhaust
//! retries or fail permanently land in a [`Quarantine`] channel with a
//! structured [`FailureRecord`] instead of crashing the run or silently
//! vanishing. A seeded [`FaultPlan`] can inject transient errors, permanent
//! errors, and latency spikes into any stage, decided purely per
//! `(stage, item, attempt)` — so chaos runs obey the same determinism
//! contract as clean runs: every item's terminal
//! [`Disposition`] (retained / dropped / quarantined) is identical at any
//! thread count and queue capacity, and the three sets always
//! partition the input exactly (`tests/fault_injection.rs` property-tests
//! this).
//!
//! ## Durability & overload protection
//!
//! Four further layers make long production sweeps survivable:
//!
//! * **Crash recovery** — [`Executor::run_journaled`] appends one
//!   checksummed record per committed item to a [`Journal`]. Called again
//!   with the journal [`Journal::open`] recovered, it replays the
//!   recovered records without re-executing them and re-enters the batch
//!   at the exact frontier, reproducing every deterministic output field
//!   bit-for-bit versus an uninterrupted run. Torn tail records are
//!   detected and dropped on [`Journal::open`].
//! * **Deadlines** — a stage may declare a simulated-time budget via
//!   [`Stage::deadline`]; injected latency beyond it becomes a
//!   `Retryable` timeout feeding the retry/quarantine machinery, so a
//!   latency storm degrades instead of hanging.
//! * **Circuit breaking** — with a [`BreakerPolicy`] configured, each
//!   stage gets a deterministic breaker over its quarantine/timeout
//!   outcomes, keyed to logical epochs; a tripped stage passes items
//!   through unrevised (the paper's §III-B1 leakage fallback), counted in
//!   [`StageReport::degraded`] and surfaced as [`BreakerEvent`]s, with a
//!   deterministic half-open probe schedule for recovery.
//! * **Admission control** — a [`Feed::Sustained`] source sheds arrivals
//!   that find the admission backlog full, deterministically (a pure
//!   function of the feed parameters), surfaced in
//!   [`ChainOutput::shed`].
//!
//! ## Duplicate-heavy traffic
//!
//! With a [`CachePolicy`] configured ([`ExecutorConfig::revision_cache`]),
//! a content-addressed [`cache`] memoizes each item's full chain result;
//! duplicates skip the whole stage chain and replay the memoized
//! journal-visible effects at the sink, digest-identical to the uncached
//! content-keyed run. Matching is exact, so every pair keeps its own
//! revision. The cache's pre-pass runs over the whole input before any
//! lane starts, so one executor dedups globally at any lane count: scaling
//! out in process means more lanes, not more executors. Tallies surface in
//! [`ChainOutput::revision_cache`].
//!
//! ## Process isolation
//!
//! [`supervise::run_sharded_process`] partitions the input by content
//! hash ([`shard`]) and runs each shard as a crash-contained **worker
//! process**: each shard's work is shipped to a re-invocation of the
//! current binary over checksummed pipes, supervised through
//! deterministic restart (resuming from the worker's own journal),
//! failover of exhausted shards, and poison-item bisection that
//! quarantines the culprit. The merged output is digest-identical to the
//! unsharded [`Executor::run_journaled`] run under any kill schedule.

#![deny(unused_must_use)]
#![warn(missing_docs)]

mod breaker;
pub mod cache;
mod executor;
mod fault;
mod journal;
mod report;
pub mod shard;
pub mod simtime;
mod stage;
pub mod stream;
pub mod supervise;

pub use breaker::{BreakerEvent, BreakerPolicy, BreakerState};
pub use cache::{CachePolicy, CacheStats};
pub use executor::{adaptive_chunk_size, ChainOutput, Executor, ExecutorConfig};
pub use fault::{
    FailureKind, FailureRecord, Fault, FaultPlan, Quarantine, QuarantinedPair, RetryPolicy,
};
pub use journal::{Journal, JournalError};
pub use report::StageReport;
pub use shard::{ShardConfigError, ShardError, ShardStats, ShardedOutput};
pub use stage::{Disposition, Stage, StageCtx, StageItem, StageOutcome};
pub use stream::{Feed, StreamSource};
pub use supervise::{
    run_sharded_process, worker_boot, ChaosPlan, JobFactory, KillMode, ParentKill,
    ShardSupervision, SuperviseError, SuperviseOptions, SupervisedJob, SupervisedOutput,
    WorkerKill,
};
