//! Determinism and correctness suite for the revision cache and the
//! sharded driver (PR 7).
//!
//! Properties pinned here:
//!
//! * **Cache transparency** — over duplicate-heavy (Zipfian) input, a
//!   cached run is digest-identical to the *uncached content-keyed* run
//!   at any thread count and queue capacity, with faults and
//!   retries active. Cache hits replay journal-visible effects exactly;
//!   they never introduce a second behaviour.
//! * **Near-tier correctness** — every `cache:near` reuse really is
//!   within the configured word edit-distance bound of some earlier item
//!   of the same category (checked against an independent recompute with
//!   [`edit_distance_bounded`]), and the near tier is deterministic.
//! * **Shard-merge order independence** — a sharded run merges to the
//!   unsharded digest at any shard count, and the merged quarantine is in
//!   `Quarantine::merge` canonical order regardless of shard layout.
//! * **Warm-cache crash-resume** — a journaled cached run killed at any
//!   prefix resumes digest-identical to the uninterrupted run (the cache
//!   state is folded into the journal fingerprint, so a policy change
//!   refuses to resume instead of replaying mismatched hits).
//!
//! `cache_matrix_cell` is the CI entry point: `scripts/ci.sh` runs it
//! under `COACHLM_CACHE_SEED` × `COACHLM_SHARDS` × `COACHLM_SKEW`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use coachlm::data::generator::{zipfian_duplicates, ZipfianConfig};
use coachlm::data::pair::InstructionPair;
use coachlm::runtime::shard::{run_sharded, run_sharded_journaled};
use coachlm::runtime::{
    CachePolicy, ChainOutput, Executor, ExecutorConfig, FaultPlan, Journal, JournalError,
    RetryPolicy, Stage, StageCtx, StageItem, StageOutcome, StreamSource,
};
use coachlm::text::editdist::edit_distance_bounded;
use coachlm::text::intern::{Interner, Sym};
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

/// Chaos config with faults and retries (no breaker: the cache and the
/// sharded driver both reject breaker configs by design).
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
    }
}

proptest! {
    // The headline cache property: with exact-tier caching, the cached
    // run is digest-identical to the uncached content-keyed run at any
    // (threads, queue), with faults active — a hit replays
    // exactly what execution would have produced.
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
            .run(&stages(), pairs.clone());
        let cached = Executor::new(
            chaos(seed, threads, queue).revision_cache(CachePolicy::exact()),
        )
        .run(&stages(), pairs);
        assert_same(&uncached, &cached, "cached vs uncached");
        // Every admitted item is classified exactly once.
        prop_assert_eq!(cached.revision_cache.lookups(), total as u64);
    }

    // Shard-merge order independence: any shard count reproduces the
    // unsharded digest, and per-shard item counts partition the input.
    #[test]
    fn sharded_digest_equals_unsharded_at_any_shard_count(
        distinct in 5usize..40,
        total in 30usize..150,
        seed in 0u64..5_000,
        shards in 1usize..8,
        threads in 1usize..=4,
        cache in 0u8..2,
    ) {
        let pairs = workload(distinct, total, 1.0, seed);
        let mut config = chaos(seed, threads, 32);
        if cache == 1 {
            config = config.revision_cache(CachePolicy::exact());
        }
        let base = Executor::new(config.clone()).run(&stages(), pairs.clone());
        let sharded = run_sharded(&config, &stages(), StreamSource::batch(pairs), shards)
            .expect("batch feed is always shardable");
        assert_same(&base, &sharded.output, "sharded vs unsharded");
        let routed: usize = sharded.shards.iter().map(|s| s.items).sum();
        prop_assert_eq!(routed, total);
        if cache == 1 {
            // Content routing co-locates duplicates: no hit is lost to
            // cross-shard splits.
            prop_assert_eq!(sharded.output.revision_cache.exact_hits, base.revision_cache.exact_hits);
        }
    }

    // Near-tier determinism + correctness: rerunning is bit-identical,
    // and every `cache:near` reuse is within the configured bound of an
    // earlier same-category item (independent recompute).
    #[test]
    fn near_tier_is_deterministic_and_within_bound(
        distinct in 5usize..30,
        total in 30usize..120,
        seed in 0u64..5_000,
        near_distance in 1usize..4,
        probes in 1usize..6,
    ) {
        let mut gen = ZipfianConfig::stress(distinct, total, 1.0, seed);
        gen.near_fraction = 0.4;
        let pairs = zipfian_duplicates(&gen).pairs;
        let policy = CachePolicy::exact().near(near_distance, probes);
        let config = ExecutorConfig::new(seed).threads(2).revision_cache(policy);
        let a = Executor::new(config.clone()).run(&stages(), pairs.clone());
        let b = Executor::new(config).run(&stages(), pairs.clone());
        assert_same(&a, &b, "near tier rerun");

        let mut interner = Interner::new();
        let syms: Vec<Vec<Sym>> = pairs
            .iter()
            .map(|p| {
                let mut s = interner.intern_words(&p.instruction);
                s.push(Sym(u32::MAX));
                s.extend(interner.intern_words(&p.response));
                s
            })
            .collect();
        for (i, item) in a.items.iter().enumerate() {
            if item.has_tag("cache:near") {
                let within = (0..i).any(|j| {
                    pairs[j].category == pairs[i].category
                        && edit_distance_bounded(&syms[j], &syms[i], near_distance).is_some()
                });
                prop_assert!(within, "near reuse at {i} has no in-bound predecessor");
            }
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

    let gold = Executor::new(config.clone()).run(&stages(), pairs.clone());

    let path = temp_path("warm.wal");
    let mut journal = Journal::create(&path)
        .expect("create journal")
        .sync_every(1);
    Executor::new(config.clone())
        .run_journaled(&stages(), pairs.clone(), &mut journal)
        .expect("journaled cached run");
    drop(journal);
    let bytes = std::fs::read(&path).expect("read journal back");

    for permille in [0usize, 200, 500, 850, 1_000] {
        let len = bytes.len() * permille / 1_000;
        std::fs::write(&path, &bytes[..len]).expect("truncate journal");
        let mut journal = Journal::open(&path).expect("recover truncated journal");
        let resumed = Executor::new(config.clone())
            .run_journaled(&stages(), pairs.clone(), &mut journal)
            .expect("resume with warm cache");
        assert_same(&resumed, &gold, &format!("cut at {len}/{}", bytes.len()));
        assert_eq!(
            resumed.revision_cache, gold.revision_cache,
            "cache tallies converge too (cut at {len})"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The cache policy is folded into the journal fingerprint: resuming
/// under a different policy (or without one) must refuse, not replay.
#[test]
fn journal_refuses_resume_under_a_different_cache_policy() {
    let seed = 0xCAFE;
    let pairs = workload(10, 40, 1.0, seed);
    let cached = chaos(seed, 2, 32).revision_cache(CachePolicy::exact());
    let path = temp_path("policy.wal");

    let mut journal = Journal::create(&path).expect("create journal");
    Executor::new(cached.clone())
        .run_journaled(&stages(), pairs.clone(), &mut journal)
        .expect("cached journaled run");
    drop(journal);

    for other in [
        chaos(seed, 2, 32),
        chaos(seed, 2, 32).revision_cache(CachePolicy::exact().near(2, 4)),
        chaos(seed, 2, 32).revision_cache(CachePolicy::exact().capacity(8)),
    ] {
        let mut journal = Journal::open(&path).expect("reopen");
        let err = Executor::new(other).run_journaled(&stages(), pairs.clone(), &mut journal);
        assert!(
            matches!(err, Err(JournalError::Incompatible(_))),
            "a policy change must refuse to resume"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Sharded journaled runs resume per shard: truncating one shard's
/// journal re-executes only that shard, and the merged result still
/// matches the uninterrupted run.
#[test]
fn sharded_journaled_resume_matches_uninterrupted_run() {
    let seed = 0x5AD;
    let shards = 3;
    let pairs = workload(15, 120, 1.0, seed);
    let config = chaos(seed, 2, 16).revision_cache(CachePolicy::exact());

    let gold = run_sharded(
        &config,
        &stages(),
        StreamSource::batch(pairs.clone()),
        shards,
    )
    .expect("batch feed is always shardable");

    let dir = temp_path("sharded");
    std::fs::create_dir_all(&dir).expect("journal dir");
    let first = run_sharded_journaled(
        &config,
        &stages(),
        StreamSource::batch(pairs.clone()),
        shards,
        &dir,
    )
    .expect("journaled sharded run");
    assert_same(&gold.output, &first.output, "journaled first pass");

    // Kill shard 1's journal mid-way; the others stay complete.
    let victim = dir.join(format!("shard-1-of-{shards}.wal"));
    let bytes = std::fs::read(&victim).expect("read shard journal");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate shard journal");

    let resumed = run_sharded_journaled(
        &config,
        &stages(),
        StreamSource::batch(pairs.clone()),
        shards,
        &dir,
    )
    .expect("sharded resume");
    assert_same(&gold.output, &resumed.output, "sharded resume");
    let replayed: usize = resumed.shards.iter().map(|s| s.replayed).sum();
    assert!(replayed > 0, "untouched shards replay their journals");
    std::fs::remove_dir_all(&dir).ok();
}

/// CI cache/shard matrix entry point: one cell per (seed, shard count,
/// duplicate skew), driven by environment variables; a no-op without
/// them so plain `cargo test` stays fast. Each cell checks the cached
/// and the sharded-cached run against the uncached content-keyed
/// reference.
#[test]
fn cache_matrix_cell() {
    let Some([seed, shards, skew]) =
        cell_vars(["COACHLM_CACHE_SEED", "COACHLM_SHARDS", "COACHLM_SKEW"])
    else {
        return;
    };
    let seed: u64 = seed.parse().expect("COACHLM_CACHE_SEED must be a u64");
    let shards: usize = shards.parse().expect("COACHLM_SHARDS must be a usize");
    let skew: f64 = skew.parse().expect("COACHLM_SKEW must be an f64");

    let pairs = workload(25, 300, skew, seed ^ 0xCAC4E);
    let reference =
        Executor::new(chaos(seed, 1, 64).content_keyed(true)).run(&stages(), pairs.clone());
    for threads in [1usize, 4] {
        let config = chaos(seed, threads, 16).revision_cache(CachePolicy::exact());
        let cached = Executor::new(config.clone()).run(&stages(), pairs.clone());
        assert_same(
            &reference,
            &cached,
            &format!("cached x{threads} skew {skew}"),
        );
        let sharded = run_sharded(
            &config,
            &stages(),
            StreamSource::batch(pairs.clone()),
            shards,
        )
        .expect("batch feed is always shardable");
        assert_same(
            &reference,
            &sharded.output,
            &format!("sharded x{threads} s{shards} skew {skew}"),
        );
        assert_eq!(
            sharded.output.revision_cache.exact_hits, cached.revision_cache.exact_hits,
            "co-location preserves the hit tally"
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
