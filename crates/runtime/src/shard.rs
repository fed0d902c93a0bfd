//! Hash partitioning and the deterministic merge behind supervised
//! shards, plus the in-process journaled driver built on them.
//!
//! One [`Executor`] already scales out in process: its data-parallel lanes
//! run the whole chain, and the revision cache's pre-pass dedups across
//! the whole input. What this module adds is the split a *multi-process*
//! deployment needs ([`crate::supervise`]): `partition_source` routes
//! every pair to a shard by the same content fingerprint the revision
//! cache keys on ([`crate::cache`]), so duplicate items always land on the
//! same shard and each shard's cache sees its full duplicate cluster, and
//! `merge_outputs` folds the shards' outputs back into one run-shaped
//! result. [`run_sharded_journaled`] runs the shards as threads in this
//! process, one journal each; the supervised driver's parity reference is
//! the unsharded journaled run, not this driver.
//!
//! ## Determinism and the merge
//!
//! Each shard is an ordinary [`Executor`] run over its subsequence of the
//! input, with the items' *global* indices restored before merging. The
//! merge is order-independent by construction:
//!
//! * items are placed by global index — a permutation, not a fold;
//! * per-stage [`StageReport`]s merge by field summation (commutative);
//! * `sim_elapsed` is the max over shards (shards run concurrently in
//!   deployment), and the tally fields sum.
//!
//! Because stage behaviour keys on pair content and per-item RNG/fault
//! rolls key on the pair id (or the content fingerprint in content-keyed
//! runs) — never on the item's position — a sharded run produces exactly
//! the items an unsharded run produces, and
//! [`ChainOutput::digest`] agrees at any shard count. The one requirement
//! on stages is the same one content-keyed caching already imposes: stage
//! logic must not read `item.index` (shard-local positions differ from
//! global ones).
//!
//! ## Admission control and breakers
//!
//! A [`Feed::Sustained`] source is admitted *globally, before
//! partitioning* — shedding is a function of arrival order over the whole
//! input, so per-shard admission would diverge from the unsharded run.
//! Shed items never reach a shard; the merge re-inserts them at their
//! global indices with the usual `shed:admission` discard. Admitted items
//! then run under a batch feed per shard (the virtual-time model treats
//! them as ready on arrival at their shard).
//!
//! Circuit breakers are rejected: breaker epochs are windows of global
//! index order and cannot be partitioned without changing the evolution.

use crate::cache::{content_key, CacheStats};
use crate::executor::{ChainOutput, Executor, ExecutorConfig};
use crate::journal::{Journal, JournalError};
use crate::report::StageReport;
use crate::stage::{Stage, StageItem};
use crate::stream::{admission_plan, merge_report, Feed, StreamSource};
use coachlm_data::InstructionPair;
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// Typed rejection of an executor-config / feed composition that cannot
/// be sharded, raised at validation time — before any shard spawns —
/// instead of the historical mid-run assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardConfigError {
    /// The config sets a [`crate::BreakerPolicy`]: breaker epochs are
    /// windows of *global* index order and do not partition — each shard
    /// would evolve its own breaker over a subsequence and diverge from
    /// the unsharded run.
    Breaker,
    /// The config sets a breaker *and* the source is [`Feed::Sustained`]:
    /// doubly unshardable, since admission shedding rewrites the very
    /// index sequence the breaker's epochs window over.
    BreakerWithSustainedFeed,
}

impl fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardConfigError::Breaker => write!(
                f,
                "sharding cannot be combined with a circuit breaker: breaker epochs \
                 are windows of global index order and do not partition"
            ),
            ShardConfigError::BreakerWithSustainedFeed => write!(
                f,
                "sharding cannot be combined with a circuit breaker under a sustained \
                 feed: admission shedding rewrites the index sequence the breaker's \
                 epochs window over"
            ),
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Why a journaled sharded run failed: the config/feed composition was
/// rejected up front, or a shard's crash journal failed.
#[derive(Debug)]
pub enum ShardError {
    /// Rejected at validation time, before any shard ran.
    Config(ShardConfigError),
    /// A shard's journal could not be created, recovered, or resumed from.
    Journal(JournalError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Config(e) => write!(f, "{e}"),
            ShardError::Journal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ShardConfigError> for ShardError {
    fn from(e: ShardConfigError) -> Self {
        ShardError::Config(e)
    }
}

impl From<JournalError> for ShardError {
    fn from(e: JournalError) -> Self {
        ShardError::Journal(e)
    }
}

/// Validates that `config` and `feed` compose with sharding, at
/// config-validation time. Every sharded entry point — in-process and
/// multi-process alike — calls this before partitioning; callers can call
/// it themselves to fail fast when assembling a deployment.
pub fn validate_sharding(config: &ExecutorConfig, feed: &Feed) -> Result<(), ShardConfigError> {
    if config.breaker_policy().is_some() {
        return Err(if matches!(feed, Feed::Sustained { .. }) {
            ShardConfigError::BreakerWithSustainedFeed
        } else {
            ShardConfigError::Breaker
        });
    }
    Ok(())
}

/// The shard an instruction pair is routed to: its content fingerprint
/// modulo the shard count. Duplicate content always co-locates, so each
/// shard's revision cache sees its whole duplicate cluster.
pub fn shard_of(pair: &InstructionPair, shards: usize) -> usize {
    (content_key(pair) % shards.max(1) as u64) as usize
}

/// Per-shard accounting surfaced next to the merged output.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct ShardStats {
    /// The shard index (`0..shards`).
    pub shard: usize,
    /// Items routed to this shard (shed items are routed to no shard).
    pub items: usize,
    /// Items this shard replayed from its journal instead of executing.
    pub replayed: usize,
    /// This shard's revision-cache tallies.
    pub revision_cache: CacheStats,
    /// This shard's modeled makespan; the merged run's `sim_elapsed` is
    /// the max of these.
    #[serde(with = "crate::report::duration_nanos")]
    pub sim_elapsed: Duration,
}

/// A sharded run's merged result.
pub struct ShardedOutput {
    /// The merged run, shaped exactly like an unsharded [`ChainOutput`]:
    /// items in global input order, reports summed per stage,
    /// `sim_elapsed` the across-shard makespan. Digest-identical to the
    /// unsharded run of the same config at any shard count.
    pub output: ChainOutput,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardStats>,
}

impl std::fmt::Debug for ShardedOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOutput")
            .field("items", &self.output.items.len())
            .field("digest", &self.output.digest())
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

/// Runs `stages` over the source hash-partitioned across `shards`
/// independent executors, one OS thread each sharing the stage chain, and
/// merges the results deterministically (see the module docs). Each shard
/// appends to (or resumes from) its own journal file
/// `shard-<i>-of-<n>.wal` under `dir`, so a killed sharded run resumes at
/// each shard's exact frontier and — warm caches included — converges to
/// the uninterrupted digest.
///
/// Configs that set a [`crate::BreakerPolicy`] are rejected up front as
/// [`ShardError::Config`] (see [`validate_sharding`]), before any journal
/// is touched. Otherwise the first failing shard's journal error (lowest
/// shard index) is returned.
pub fn run_sharded_journaled(
    config: &ExecutorConfig,
    stages: &[Box<dyn Stage + '_>],
    source: StreamSource<'_>,
    shards: usize,
    dir: &Path,
) -> Result<ShardedOutput, ShardError> {
    validate_sharding(config, &source.feed)?;
    let shards = shards.max(1);
    let Partitioned {
        n,
        shed_items,
        partitions,
        global_idx,
    } = partition_source(source, shards);

    let results: Vec<Result<ChainOutput, JournalError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .into_iter()
            .enumerate()
            .map(|(s, part)| {
                scope.spawn(move || -> Result<ChainOutput, JournalError> {
                    let mut journal =
                        Journal::open(dir.join(format!("shard-{s}-of-{shards}.wal")))?;
                    Executor::new(config.clone()).run_journaled(stages, &part, &mut journal)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut outputs = Vec::with_capacity(shards);
    for result in results {
        outputs.push(result?);
    }
    Ok(merge_outputs(stages, shed_items, &global_idx, n, outputs))
}

/// A hash-partitioned source: the shed items (already discarded), the
/// per-shard input subsequences, and the global index of each shard's
/// k-th item for the merge. Shared between the in-process driver here and
/// the multi-process driver in [`crate::supervise`], so both partition
/// identically by construction.
pub(crate) struct Partitioned {
    /// Total input length (shed included).
    pub(crate) n: usize,
    /// Items shed at global admission, already discarded.
    pub(crate) shed_items: Vec<StageItem>,
    /// Each shard's input subsequence, in global order.
    pub(crate) partitions: Vec<Vec<InstructionPair>>,
    /// Global index of each shard's k-th item.
    pub(crate) global_idx: Vec<Vec<usize>>,
}

/// Partitions a source across `shards` by content hash, applying global
/// admission first: shedding is a pure function of arrival order over the
/// whole input (see module docs), so it must happen before partitioning.
/// Each shard gets its own copy of its pairs, the one copy of the input a
/// sharded run makes.
pub(crate) fn partition_source(source: StreamSource<'_>, shards: usize) -> Partitioned {
    let StreamSource { pairs, feed } = source;
    let n = pairs.len();
    let admission = admission_plan(&feed, std::iter::repeat_n(None, n));
    let mut shed_items: Vec<StageItem> = Vec::new();
    let mut partitions: Vec<Vec<InstructionPair>> = vec![Vec::new(); shards];
    let mut global_idx: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (g, pair) in pairs.iter().enumerate() {
        if admission.as_ref().is_some_and(|plan| plan[g]) {
            let mut item = StageItem::new(g, pair.clone());
            item.discard("shed:admission");
            shed_items.push(item);
            continue;
        }
        let s = shard_of(pair, shards);
        partitions[s].push(pair.clone());
        global_idx[s].push(g);
    }
    Partitioned {
        n,
        shed_items,
        partitions,
        global_idx,
    }
}

/// The deterministic merge: places items by global index (restoring it on
/// each) and sums the per-stage tallies. Takes
/// one [`ChainOutput`] per shard, in shard order. Shared between the
/// in-process and multi-process drivers.
pub(crate) fn merge_outputs(
    stages: &[Box<dyn Stage + '_>],
    shed_items: Vec<StageItem>,
    global_idx: &[Vec<usize>],
    n: usize,
    outputs: Vec<ChainOutput>,
) -> ShardedOutput {
    let mut slots: Vec<Option<StageItem>> = (0..n).map(|_| None).collect();
    for item in shed_items {
        let g = item.index;
        slots[g] = Some(item);
    }
    let mut reports: Vec<StageReport> = stages
        .iter()
        .map(|s| StageReport {
            stage: s.name().to_string(),
            ..StageReport::default()
        })
        .collect();
    let shards = outputs.len();
    let mut stats = Vec::with_capacity(shards);
    let mut replayed = 0usize;
    let mut revision = CacheStats::default();
    let mut sim_elapsed = Duration::ZERO;
    let shed = n - global_idx.iter().map(Vec::len).sum::<usize>();
    for (s, out) in outputs.into_iter().enumerate() {
        debug_assert!(out.breaker_events.is_empty());
        stats.push(ShardStats {
            shard: s,
            items: out.items.len(),
            replayed: out.replayed,
            revision_cache: out.revision_cache,
            sim_elapsed: out.sim_elapsed,
        });
        replayed += out.replayed;
        revision.absorb(out.revision_cache);
        sim_elapsed = sim_elapsed.max(out.sim_elapsed);
        for (report, delta) in reports.iter_mut().zip(out.reports) {
            merge_report(report, delta);
        }
        for (mut item, &g) in out.items.into_iter().zip(&global_idx[s]) {
            debug_assert!(slots[g].is_none(), "global index {g} assigned twice");
            item.index = g;
            slots[g] = Some(item);
        }
    }
    let items: Vec<StageItem> = slots
        .into_iter()
        .enumerate()
        .map(|(g, slot)| slot.unwrap_or_else(|| unreachable!("index {g} unassigned")))
        .collect();
    let output = ChainOutput {
        items,
        reports,
        breaker_events: Vec::new(),
        replayed,
        shed,
        sim_elapsed,
        revision_cache: revision,
    };
    ShardedOutput {
        output,
        shards: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;
    use crate::fault::FaultPlan;
    use crate::stage::{StageCtx, StageOutcome};
    use coachlm_data::Category;
    use rand::Rng;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Content- and RNG-driven (never index-driven), so it satisfies the
    /// sharding contract.
    struct Rewrite;

    impl Stage for Rewrite {
        fn name(&self) -> &str {
            "rewrite"
        }
        fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
            let roll: u64 = ctx.rng.gen_range(0..1000);
            item.pair.response.push_str(&format!(" [{roll}]"));
            if item.pair.instruction.contains("drop") {
                item.discard("drop:marker");
            }
            StageOutcome::Ok
        }
    }

    /// Fatal whenever the instruction carries a poison marker.
    struct PoisonFatal;

    impl Stage for PoisonFatal {
        fn name(&self) -> &str {
            "poison"
        }
        fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
            if item.pair.instruction.contains("poison") {
                StageOutcome::fatal("organic: poison")
            } else {
                StageOutcome::Ok
            }
        }
    }

    fn stages() -> Vec<Box<dyn Stage>> {
        vec![Box::new(PoisonFatal), Box::new(Rewrite)]
    }

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    /// [`run_sharded_journaled`] over [`stages`] in a fresh journal
    /// directory, removed afterwards.
    fn sharded(
        config: &ExecutorConfig,
        source: StreamSource<'_>,
        shards: usize,
    ) -> Result<ShardedOutput, ShardError> {
        let dir = std::env::temp_dir().join(format!(
            "coachlm-shard-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("journal dir");
        let out = run_sharded_journaled(config, &stages(), source, shards, &dir);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    fn mixed_pairs(n: usize) -> Vec<InstructionPair> {
        (0..n as u64)
            .map(|id| {
                let marker = match id % 11 {
                    0 => "poison",
                    1 => "drop",
                    _ => "plain",
                };
                // Duplicate content every 7 ids so caches and co-location
                // have something to chew on.
                InstructionPair::new(
                    id,
                    format!("{marker} question {}", id % 7),
                    format!("answer {}", id % 7),
                    Category((id % 3) as u16),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_run_matches_unsharded_digest_at_any_shard_count() {
        let config = ExecutorConfig::new(41)
            .threads(2)
            .fault_plan(FaultPlan::new(13).transient(0.15).permanent(0.03));
        let input = mixed_pairs(120);
        let base = Executor::new(config.clone()).run(&stages(), &input);
        for shards in [1, 2, 4, 7] {
            let out = sharded(&config, StreamSource::batch(&input), shards)
                .expect("breaker-free config shards");
            assert_eq!(out.output.digest(), base.digest(), "shards = {shards}");
            assert_eq!(out.output.items.len(), 120);
            assert_eq!(out.shards.len(), shards);
            let routed: usize = out.shards.iter().map(|s| s.items).sum();
            assert_eq!(routed, 120);
        }
    }

    /// Fully periodic content: every field (marker, text, category) keys
    /// off `id % 21`, so 210 pairs collapse to 21 distinct contents and
    /// the exact cache should absorb ~90% of the traffic.
    fn dup_pairs(n: usize) -> Vec<InstructionPair> {
        (0..n as u64)
            .map(|id| {
                let k = id % 21;
                let marker = match k {
                    0 => "poison",
                    1 => "drop",
                    _ => "plain",
                };
                InstructionPair::new(
                    id,
                    format!("{marker} question {k}"),
                    format!("answer {k}"),
                    Category((k % 3) as u16),
                )
            })
            .collect()
    }

    #[test]
    fn duplicates_co_locate_so_shard_caches_keep_their_hit_rate() {
        let config = ExecutorConfig::new(9).revision_cache(CachePolicy::exact());
        let input = dup_pairs(210);
        let unsharded = Executor::new(config.clone()).run(&stages(), &input);
        let out =
            sharded(&config, StreamSource::batch(&input), 4).expect("breaker-free config shards");
        assert_eq!(out.output.digest(), unsharded.digest());
        // Routing by content fingerprint keeps every duplicate cluster on
        // one shard: the summed hit tallies equal the unsharded run's.
        assert_eq!(
            out.output.revision_cache.exact_hits,
            unsharded.revision_cache.exact_hits
        );
        assert_eq!(
            out.output.revision_cache.entries,
            unsharded.revision_cache.entries
        );
        assert!(out.output.revision_cache.hit_rate() > 0.8);
    }

    #[test]
    fn sustained_feed_sheds_globally_before_partitioning() {
        let config = ExecutorConfig::new(3);
        let input = mixed_pairs(300);
        let source = || StreamSource::sustained(&input, 100.0, 40.0, 10);
        let base = Executor::new(config.clone()).run_stream(&stages(), source());
        assert!(base.shed > 0, "overload must shed");
        for shards in [2, 5] {
            let out = sharded(&config, source(), shards).expect("breaker-free config shards");
            assert_eq!(out.output.shed, base.shed, "shards = {shards}");
            assert_eq!(out.output.digest(), base.digest(), "shards = {shards}");
        }
    }

    #[test]
    fn breaker_configs_are_rejected_with_a_typed_error_not_an_assert() {
        let breakered = ExecutorConfig::new(5).breaker(crate::BreakerPolicy::default());
        // Validation alone, both feeds.
        assert_eq!(
            validate_sharding(&breakered, &Feed::Batch),
            Err(ShardConfigError::Breaker)
        );
        let sustained = Feed::Sustained {
            rate_per_sec: 100.0,
            drain_per_sec: 40.0,
            backlog_capacity: 10,
        };
        assert_eq!(
            validate_sharding(&breakered, &sustained),
            Err(ShardConfigError::BreakerWithSustainedFeed)
        );
        // The drivers surface the same typed error instead of asserting.
        let input = mixed_pairs(8);
        let err = sharded(&breakered, StreamSource::batch(&input), 2)
            .expect_err("breaker must be rejected");
        assert!(matches!(err, ShardError::Config(ShardConfigError::Breaker)));
        let dir =
            std::env::temp_dir().join(format!("coachlm-shard-validate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_sharded_journaled(
            &breakered,
            &stages(),
            StreamSource::sustained(&input, 100.0, 40.0, 10),
            2,
            &dir,
        )
        .expect_err("breaker must be rejected before any journal is touched");
        assert!(matches!(
            err,
            ShardError::Config(ShardConfigError::BreakerWithSustainedFeed)
        ));
        // Validation must not have created any shard journal.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
        // And the OK path still shards.
        assert!(validate_sharding(&ExecutorConfig::new(5), &Feed::Batch).is_ok());
        assert!(sharded(&ExecutorConfig::new(5), StreamSource::batch(&input), 2).is_ok());
    }

    #[test]
    fn shard_of_is_stable_and_content_driven() {
        let a = InstructionPair::new(1, "same text", "same answer", Category(0));
        let b = InstructionPair::new(999, "same text", "same answer", Category(0));
        assert_eq!(shard_of(&a, 8), shard_of(&b, 8), "ids never affect routing");
        assert!(shard_of(&a, 1) == 0);
        let spread: std::collections::BTreeSet<usize> =
            mixed_pairs(200).iter().map(|p| shard_of(p, 4)).collect();
        assert!(spread.len() > 1, "hashing spreads across shards");
    }
}
