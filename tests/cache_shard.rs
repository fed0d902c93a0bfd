//! Determinism and correctness suite for the revision cache and the
//! journaled shard driver.
//!
//! Properties pinned here:
//!
//! * **Cache transparency** — over duplicate-heavy (Zipfian) input, a
//!   cached run is digest-identical to the *uncached content-keyed* run
//!   at any thread count and queue capacity, with faults and
//!   retries active, and its cache tallies do not depend on the lane
//!   count. Cache hits replay journal-visible effects exactly; they never
//!   introduce a second behaviour.
//! * **Warm-cache crash-resume** — a journaled cached run killed at any
//!   prefix resumes digest-identical to the uninterrupted run (whether
//!   the cache is on is folded into the journal fingerprint, so resuming
//!   without it refuses instead of replaying mismatched hits), and so
//!   does a sharded journaled run with one shard's journal cut.
//! * **Hit records are execution's records** — a cached run journals
//!   byte for byte the item records the uncached content-keyed run
//!   journals, stage outcomes included.
//!
//! `cache_matrix_cell` is the CI entry point: `scripts/ci.sh` runs it
//! under `COACHLM_CACHE_SEED` × `COACHLM_SHARDS` × `COACHLM_SKEW`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use coachlm::data::generator::{zipfian_duplicates, ZipfianConfig};
use coachlm::data::pair::InstructionPair;
use coachlm::runtime::shard::run_sharded_journaled;
use coachlm::runtime::{
    CachePolicy, ChainOutput, Executor, ExecutorConfig, FaultPlan, Journal, JournalError,
    RetryPolicy, Stage, StageCtx, StageItem, StageOutcome, StreamSource,
};
use proptest::prelude::*;
use rand::Rng;

/// Content-driven rewrite stage: all behaviour (randomised suffix, drop
/// decision) derives from the item's text and the executor-provided RNG,
/// never from `pair.id` or `item.index` — the contract that makes cached
/// replay and sharding transparent.
struct ContentRewrite;

impl Stage for ContentRewrite {
    fn name(&self) -> &str {
        "content-rewrite"
    }
    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let roll: u64 = ctx.rng.gen_range(0..10_000);
        item.pair.response.push_str(&format!(" [v{roll}]"));
        if item.pair.instruction.contains("discard me") {
            item.discard("content:discard");
        } else if roll.is_multiple_of(97) {
            item.tag("content:lucky");
        }
        StageOutcome::Ok
    }
    fn service_time(&self) -> Duration {
        // The virtual-time cost a cache hit avoids paying.
        Duration::from_millis(840)
    }
}

/// Content-driven failure stage: poison markers fail permanently.
struct ContentPoison;

impl Stage for ContentPoison {
    fn name(&self) -> &str {
        "content-poison"
    }
    fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
        if item.pair.instruction.contains("poison") {
            StageOutcome::fatal("organic: poison marker")
        } else {
            StageOutcome::Ok
        }
    }
}

fn stages() -> Vec<Box<dyn Stage>> {
    vec![Box::new(ContentPoison), Box::new(ContentRewrite)]
}

/// Zipfian-duplicated workload with organic drop/poison markers mixed in.
fn workload(distinct: usize, total: usize, exponent: f64, seed: u64) -> Vec<InstructionPair> {
    let mut pairs =
        zipfian_duplicates(&ZipfianConfig::stress(distinct, total, exponent, seed)).pairs;
    for p in pairs.iter_mut() {
        // Markers key off content, not id, so duplicates share their fate.
        let k: u64 = p.instruction.len() as u64;
        if k.is_multiple_of(17) {
            p.instruction.push_str(" poison");
        } else if k.is_multiple_of(13) {
            p.instruction.push_str(" discard me");
        }
    }
    pairs
}

/// Chaos config with faults and retries (no breaker: the sharded driver
/// rejects breaker configs by design).
fn chaos(seed: u64, threads: usize, queue: usize) -> ExecutorConfig {
    ExecutorConfig::new(seed)
        .threads(threads)
        .queue_capacity(queue)
        .fault_plan(FaultPlan::new(seed ^ 0xCAC).transient(0.15).permanent(0.02))
        .retry_policy(RetryPolicy::new(3, Duration::from_millis(10)))
}

fn assert_same(a: &ChainOutput, b: &ChainOutput, what: &str) {
    assert_eq!(a.digest(), b.digest(), "{what}: digest diverged");
    assert_eq!(a.items.len(), b.items.len(), "{what}");
    for (x, y) in a.items.iter().zip(&b.items) {
        assert_eq!(x.pair, y.pair, "{what}: item {}", x.index);
        assert_eq!(x.retained, y.retained, "{what}: item {}", x.index);
        assert_eq!(x.tags, y.tags, "{what}: item {}", x.index);
        assert_eq!(x.failure, y.failure, "{what}: item {}", x.index);
        // The digest hashes terminal text, not what it is compared with.
        assert_eq!(
            (x.instruction_changed(), x.response_changed()),
            (y.instruction_changed(), y.response_changed()),
            "{what}: item {} change flags",
            x.index
        );
    }
}

proptest! {
    // The headline cache property: with exact-tier caching, the cached
    // run is digest-identical to the uncached content-keyed run at any
    // (threads, queue), with faults active — a hit replays
    // exactly what execution would have produced. The cache's pre-pass
    // sees the whole input at any lane count, so no lane count loses a
    // hit.
    #[test]
    fn cached_digest_equals_uncached_at_any_parallelism(
        distinct in 5usize..40,
        total in 30usize..200,
        exponent in 0.0f64..1.5,
        seed in 0u64..5_000,
        threads in 1usize..=8,
        queue in 1usize..128,
    ) {
        let pairs = workload(distinct, total, exponent, seed);
        let uncached = Executor::new(chaos(seed, 1, 64).content_keyed(true))
            .run(&stages(), &pairs);
        // Threads 1 and 2 every case, plus the sampled parallelism.
        let mut tally = None;
        for threads in [1, 2, threads] {
            let cached = Executor::new(
                chaos(seed, threads, queue).revision_cache(CachePolicy::exact()),
            )
            .run(&stages(), &pairs);
            assert_same(&uncached, &cached, &format!("cached x{threads} vs uncached"));
            // Every admitted item is classified exactly once.
            prop_assert_eq!(cached.revision_cache.lookups(), total as u64);
            let first = *tally.get_or_insert(cached.revision_cache);
            prop_assert_eq!(cached.revision_cache, first);
        }
    }
}

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "coachlm-cache-shard-{}-{tag}-{n}",
        std::process::id()
    ))
}

/// Warm-cache crash-resume: a journaled cached run killed at any prefix
/// converges to the uninterrupted digest — replayed representatives
/// rebuild the cache so later duplicates still replay the same effects.
#[test]
fn warm_cache_crash_resume_converges_to_uninterrupted_digest() {
    let seed = 0xCA5E;
    let pairs = workload(12, 90, 1.1, seed);
    let config = chaos(seed, 3, 16).revision_cache(CachePolicy::exact());

    let gold = Executor::new(config.clone()).run(&stages(), &pairs);

    let path = temp_path("warm.wal");
    let mut journal = Journal::create(&path)
        .expect("create journal")
        .sync_every(1);
    Executor::new(config.clone())
        .run_journaled(&stages(), &pairs, &mut journal)
        .expect("journaled cached run");
    drop(journal);
    let bytes = std::fs::read(&path).expect("read journal back");

    for permille in [0usize, 200, 500, 850, 1_000] {
        let len = bytes.len() * permille / 1_000;
        std::fs::write(&path, &bytes[..len]).expect("truncate journal");
        let mut journal = Journal::open(&path).expect("recover truncated journal");
        let resumed = Executor::new(config.clone())
            .run_journaled(&stages(), &pairs, &mut journal)
            .expect("resume with warm cache");
        assert_same(&resumed, &gold, &format!("cut at {len}/{}", bytes.len()));
        assert_eq!(
            resumed.revision_cache, gold.revision_cache,
            "cache tallies converge too (cut at {len})"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A cache hit's journal record is the record execution writes: a cached
/// run, at threads 1 and 2, journals byte for byte the item records of
/// the uncached content-keyed run. Only the header frame differs, by the
/// cache bit in its fingerprint.
#[test]
fn hit_records_are_the_records_execution_writes() {
    let seed = 0x4EC;
    let pairs = workload(12, 120, 1.1, seed);
    let journaled = |config: ExecutorConfig, tag: &str| -> (ChainOutput, Vec<u8>) {
        let path = temp_path(tag);
        let mut journal = Journal::create(&path).expect("create journal");
        let out = Executor::new(config)
            .run_journaled(&stages(), &pairs, &mut journal)
            .expect("journaled run");
        drop(journal);
        let bytes = std::fs::read(&path).expect("read journal back");
        std::fs::remove_file(&path).ok();
        // A frame is a u32 length prefix and an 8-byte checksum, then
        // the payload; the item records follow the header frame.
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("length prefix"));
        let header = 12 + len as usize;
        (out, bytes[header..].to_vec())
    };
    let (uncached, executed) = journaled(chaos(seed, 1, 64).content_keyed(true), "uncached.wal");
    for threads in [1, 2] {
        let config = chaos(seed, threads, 16).revision_cache(CachePolicy::exact());
        let (cached, replayed) = journaled(config, &format!("cached-{threads}.wal"));
        assert!(
            cached.revision_cache.hits() > 0,
            "the workload repeats content"
        );
        assert_eq!(cached.digest(), uncached.digest(), "threads {threads}");
        assert!(
            replayed == executed,
            "threads {threads}: the cached run's item records differ from execution's"
        );
    }
}

/// The cache is folded into the journal fingerprint: resuming a cached
/// run's journal without the cache must refuse, not replay.
#[test]
fn journal_refuses_resume_under_a_different_cache_policy() {
    let seed = 0xCAFE;
    let pairs = workload(10, 40, 1.0, seed);
    let cached = chaos(seed, 2, 32).revision_cache(CachePolicy::exact());
    let path = temp_path("policy.wal");

    let mut journal = Journal::create(&path).expect("create journal");
    Executor::new(cached.clone())
        .run_journaled(&stages(), &pairs, &mut journal)
        .expect("cached journaled run");
    drop(journal);

    let mut journal = Journal::open(&path).expect("reopen");
    let err = Executor::new(chaos(seed, 2, 32)).run_journaled(&stages(), &pairs, &mut journal);
    assert!(
        matches!(err, Err(JournalError::Incompatible(_))),
        "dropping the cache must refuse to resume"
    );
    std::fs::remove_file(&path).ok();
}

/// Sharded journaled runs resume per shard: truncating one shard's
/// journal re-executes only that shard, and the merged result still
/// matches the uninterrupted unsharded run.
#[test]
fn sharded_journaled_resume_matches_uninterrupted_run() {
    let seed = 0x5AD;
    let shards = 3;
    let pairs = workload(15, 120, 1.0, seed);
    let config = chaos(seed, 2, 16).revision_cache(CachePolicy::exact());

    let gold = Executor::new(config.clone()).run(&stages(), &pairs);

    let dir = temp_path("sharded");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let first = run_sharded_journaled(
        &config,
        &stages(),
        StreamSource::batch(&pairs),
        shards,
        &dir,
    )
    .expect("journaled sharded run");
    assert_same(&gold, &first.output, "journaled first pass");

    // Kill shard 1's journal mid-way; the others stay complete.
    let victim = dir.join(format!("shard-1-of-{shards}.wal"));
    let bytes = std::fs::read(&victim).expect("read shard journal");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate shard journal");

    let resumed = run_sharded_journaled(
        &config,
        &stages(),
        StreamSource::batch(&pairs),
        shards,
        &dir,
    )
    .expect("sharded resume");
    assert_same(&gold, &resumed.output, "sharded resume");
    let replayed: usize = resumed.shards.iter().map(|s| s.replayed).sum();
    assert!(replayed > 0, "untouched shards replay their journals");
    std::fs::remove_dir_all(&dir).ok();
}

/// CI cache matrix entry point: one cell per (seed, fan-out, duplicate
/// skew), driven by environment variables; a no-op without them so plain
/// `cargo test` stays fast. The fan-out (`COACHLM_SHARDS`) is the lane
/// count of one executor, the in-process way to scale out. Each cell
/// checks cached runs at one, four and the cell's lane count against the
/// uncached content-keyed reference, with the same cache tallies at
/// every lane count.
#[test]
fn cache_matrix_cell() {
    let Some([seed, lanes, skew]) =
        cell_vars(["COACHLM_CACHE_SEED", "COACHLM_SHARDS", "COACHLM_SKEW"])
    else {
        return;
    };
    let seed: u64 = seed.parse().expect("COACHLM_CACHE_SEED must be a u64");
    let lanes: usize = lanes.parse().expect("COACHLM_SHARDS must be a usize");
    let skew: f64 = skew.parse().expect("COACHLM_SKEW must be an f64");

    let pairs = workload(25, 300, skew, seed ^ 0xCAC4E);
    let reference = Executor::new(chaos(seed, 1, 64).content_keyed(true)).run(&stages(), &pairs);
    let mut tally = None;
    for threads in [1usize, 4, lanes] {
        let config = chaos(seed, threads, 16).revision_cache(CachePolicy::exact());
        let cached = Executor::new(config).run(&stages(), &pairs);
        assert_same(
            &reference,
            &cached,
            &format!("cached x{threads} skew {skew}"),
        );
        let first = *tally.get_or_insert(cached.revision_cache);
        assert_eq!(
            cached.revision_cache, first,
            "x{threads}: the lane count changed the cache tallies"
        );
    }
}

/// Reads a CI matrix cell's variables: `None` when none is set (plain
/// `cargo test` skips the cell); panics naming the missing ones when only
/// some are, so a cell never passes without running.
fn cell_vars<const N: usize>(names: [&str; N]) -> Option<[String; N]> {
    let values = names.map(|name| std::env::var(name).ok());
    if values.iter().all(Option::is_none) {
        return None;
    }
    let missing: Vec<&str> = names
        .iter()
        .zip(&values)
        .filter(|(_, v)| v.is_none())
        .map(|(n, _)| *n)
        .collect();
    assert!(
        missing.is_empty(),
        "matrix cell is missing {}",
        missing.join(", ")
    );
    Some(values.map(Option::unwrap_or_default))
}
