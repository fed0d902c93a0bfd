//! # coachlm-runtime
//!
//! The shared dataset-processing runtime: a [`Stage`] trait over
//! instruction pairs and a deterministic pipeline-parallel streaming
//! [`Executor`] that runs a stage chain over a dataset or a continuous
//! stream of arrivals.
//!
//! Every processing path in the workspace — cleaning, CoachLM revision,
//! expert filtering and annotation, baseline construction, ChatGPT-judge
//! rating — is expressed as a chain of stages and executed here, instead
//! of each module hand-rolling its own thread pool and RNG plumbing.
//!
//! The core ([`stream`], PR 6) is a streaming pipeline: the chain is
//! partitioned into contiguous stage groups, each group gets one or more
//! worker lanes, and chunks of items flow group-to-group over bounded
//! sequenced queues with backpressure — no batch barriers. The classic
//! batch entry points ([`Executor::run`], [`Executor::run_journaled`])
//! are thin wrappers feeding a bounded [`StreamSource::batch`] source;
//! [`Executor::run_stream`] additionally accepts a [`Feed::Sustained`]
//! arrival model with deterministic admission-control shedding.
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
//! * items flow through every queue in input order and are processed in
//!   place, so output order is input order by construction;
//! * counters merge by summation, which is commutative;
//! * epoch-keyed state (circuit breakers, journal commit frames) follows
//!   **logical epochs** — fixed windows of input *indices* — rather than
//!   wall-clock batches, so it evolves identically at any parallelism.
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
//! Three further layers make long production sweeps survivable:
//!
//! * **Crash recovery** — [`Executor::run_journaled`] appends one
//!   checksummed record per committed item to a [`Journal`];
//!   [`Executor::resume_from`] replays the recovered records without
//!   re-executing them and re-enters the batch at the exact frontier,
//!   reproducing every deterministic output field bit-for-bit versus an
//!   uninterrupted run. Torn tail records are detected and dropped on
//!   [`Journal::open`].
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
//! Two layers (PR 7) make internet-scale, duplicate-heavy deployments
//! affordable without touching the determinism contract:
//!
//! * **Revision caching** — with a [`CachePolicy`] configured
//!   ([`ExecutorConfig::revision_cache`]), a content-addressed [`cache`]
//!   memoizes each item's full chain result; duplicates skip the whole
//!   stage topology and replay the memoized journal-visible effects at
//!   the sink, digest-identical to the uncached content-keyed run. An
//!   optional bounded-edit-distance near-match tier trades exactness for
//!   hit rate (hits tagged `cache:near`). Tallies surface in
//!   [`ChainOutput::revision_cache`].
//! * **Sharding** — [`shard::run_sharded`] partitions the input by
//!   content hash across N worker shards (each with its own journal and
//!   cache via [`shard::run_sharded_journaled`]) and deterministically
//!   merges their outputs, reports, and quarantines back into one
//!   [`ChainOutput`]-shaped result, order-independently.
//!
//! ## Process isolation
//!
//! [`supervise::run_sharded_process`] (PR 10) runs the same hash-
//! partitioned shards as crash-contained **worker processes**: each
//! shard's work is shipped to a re-invocation of the current binary over
//! checksummed pipes, supervised through deterministic restart (resuming
//! from the worker's own journal), failover of exhausted shards, and
//! poison-item bisection into [`Quarantine`]. Merged output is digest-
//! identical to [`shard::run_sharded_journaled`] under any kill schedule.

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
