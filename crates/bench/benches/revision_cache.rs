//! Revision-cache benchmarks: cache-hit-rate × throughput curves over
//! Zipfian-duplicated traffic, in both time domains. Every cell runs one
//! executor, cached and uncached at the same thread count.
//!
//! * **Modeled time** (`sim_*` metrics) — the deterministic virtual-time
//!   model, not a measurement. The chain mirrors the deployed service's
//!   anchors (CoachRevise ~840 ms/pair, ExpertAnnotate ~300 ms/pair), so a
//!   cache hit that skips the whole stage chain saves ~1.14 modeled
//!   seconds per duplicate. These figures are host-independent and
//!   exactly reproducible.
//! * **Wall time** (`wall_*` metrics) — real elapsed seconds on whatever
//!   cores the host grants; honest but machine-dependent.
//!
//! Two families of records land in the `BENCH_*.json` that
//! `scripts/bench.sh` writes:
//!
//! * `revision_cache/skew/...` — the hit-rate × throughput sweep over
//!   Zipf exponents (uniform traffic up to web-like skew), cached vs
//!   uncached.
//! * `revision_cache/stress/...` — the acceptance cell: a 10M-pair
//!   Zipfian workload (`COACHLM_CACHE_BENCH_PAIRS` overrides the size),
//!   cached vs uncached; the claim is a modeled
//!   `sim_speedup_vs_uncached >= 5`.

use coachlm_data::generator::{zipfian_duplicates, ZipfianConfig};
use coachlm_data::InstructionPair;
use coachlm_runtime::{
    adaptive_chunk_size, CachePolicy, ChainOutput, Executor, ExecutorConfig, Stage, StageCtx,
    StageItem, StageOutcome,
};
use coachlm_text::token::word_count;
use criterion::{append_metric, criterion_group, criterion_main, Criterion};
use rand::Rng;
use std::time::{Duration, Instant};

/// A revise-like stage: cheap real work (so 10M-pair runs finish in wall
/// seconds) with the deployed service's modeled cost per pair.
struct ServiceStage {
    label: &'static str,
    service_ms: u64,
}

impl Stage for ServiceStage {
    fn name(&self) -> &str {
        self.label
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let words = word_count(&item.pair.response);
        let roll: u64 = ctx.rng.gen_range(0..1_000);
        let mut acc = words as u64 ^ roll;
        for i in 0..40u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        if acc.is_multiple_of(97) {
            ctx.bump("lucky");
        }
        StageOutcome::Ok
    }

    fn service_time(&self) -> Duration {
        Duration::from_millis(self.service_ms)
    }
}

/// The deployed chain's virtual-time anchors: CoachRevise at ~840 ms and
/// the expert-annotate handling at ~300 ms per pair.
fn service_chain() -> Vec<Box<dyn Stage + 'static>> {
    vec![
        Box::new(ServiceStage {
            label: "coach-revise",
            service_ms: 840,
        }),
        Box::new(ServiceStage {
            label: "expert-annotate",
            service_ms: 300,
        }),
    ]
}

struct CellResult {
    out: ChainOutput,
    wall: Duration,
}

fn run_cell(config: &ExecutorConfig, pairs: &[InstructionPair]) -> CellResult {
    let stages = service_chain();
    let start = Instant::now();
    let out = Executor::new(config.clone()).run(&stages, pairs);
    CellResult {
        out,
        wall: start.elapsed(),
    }
}

fn emit(id: &str, n: usize, cell: &CellResult, sim_base: f64, wall_base: f64) {
    let sim = cell.out.sim_elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    let wall = cell.wall.as_secs_f64().max(f64::MIN_POSITIVE);
    append_metric(
        id,
        &[
            ("hit_rate", cell.out.revision_cache.hit_rate()),
            ("sim_elapsed_secs", sim),
            ("sim_pairs_per_sec", n as f64 / sim),
            ("sim_speedup_vs_uncached", sim_base / sim),
            ("wall_elapsed_secs", wall),
            ("wall_pairs_per_sec", n as f64 / wall),
            ("wall_speedup_vs_uncached", wall_base / wall),
        ],
    );
}

/// Hit-rate × throughput curves: duplicate skew (uniform traffic up to
/// heavy web-like skew) crossed with the distinct/total ratio, so the
/// published curve spans hit rates from ~0.5 (half the traffic is unique)
/// to ~0.99. One execution per cell — both time domains come from a
/// single run, and the sim figures are exact, not samples.
fn bench_skew_sweep(_c: &mut Criterion) {
    const TOTAL: usize = 200_000;
    let threads = 4;
    for skew in [0.0f64, 0.9, 1.1, 1.4] {
        for distinct in [TOTAL / 2, TOTAL / 10, TOTAL / 100] {
            let pairs =
                zipfian_duplicates(&ZipfianConfig::stress(distinct, TOTAL, skew, 0xCAC4E)).pairs;
            let uncached = run_cell(
                &ExecutorConfig::new(7).threads(threads).content_keyed(true),
                &pairs,
            );
            let sim_base = uncached
                .out
                .sim_elapsed
                .as_secs_f64()
                .max(f64::MIN_POSITIVE);
            let wall_base = uncached.wall.as_secs_f64().max(f64::MIN_POSITIVE);
            emit(
                &format!("revision_cache/skew/s={skew}/d={distinct}/uncached"),
                TOTAL,
                &uncached,
                sim_base,
                wall_base,
            );
            let cached = run_cell(
                &ExecutorConfig::new(7)
                    .threads(threads)
                    .revision_cache(CachePolicy::exact()),
                &pairs,
            );
            assert_eq!(
                cached.out.digest(),
                uncached.out.digest(),
                "cache transparency at skew {skew}, {distinct} distinct"
            );
            emit(
                &format!("revision_cache/skew/s={skew}/d={distinct}/cached"),
                TOTAL,
                &cached,
                sim_base,
                wall_base,
            );
        }
    }
}

/// The acceptance cell: a 10M-pair Zipfian workload, cached vs uncached on
/// one executor at the same thread count, so the modeled speedup is the
/// cache's alone. `COACHLM_CACHE_BENCH_PAIRS` overrides the workload size
/// (the full 10M run costs wall minutes).
fn bench_dedup_stress(_c: &mut Criterion) {
    let total: usize = std::env::var("COACHLM_CACHE_BENCH_PAIRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000);
    let distinct = (total / 100).max(1);
    let threads = 4;
    let queue = 1_024;
    let pairs = zipfian_duplicates(&ZipfianConfig::stress(distinct, total, 1.1, 0x57E55)).pairs;

    // Satellite: the adaptive chunk size the streaming core picks for this
    // workload shape, recorded alongside the throughput figures.
    let chunk = adaptive_chunk_size(total, threads, queue);
    append_metric(
        "revision_cache/stress/chunk",
        &[
            ("adaptive_chunk_size", chunk as f64),
            ("threads", threads as f64),
            ("queue_capacity", queue as f64),
        ],
    );

    let uncached = run_cell(
        &ExecutorConfig::new(11)
            .threads(threads)
            .queue_capacity(queue)
            .content_keyed(true),
        &pairs,
    );
    let sim_base = uncached
        .out
        .sim_elapsed
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    let wall_base = uncached.wall.as_secs_f64().max(f64::MIN_POSITIVE);
    emit(
        &format!("revision_cache/stress/n={total}/uncached"),
        total,
        &uncached,
        sim_base,
        wall_base,
    );

    let cached = run_cell(
        &ExecutorConfig::new(11)
            .threads(threads)
            .queue_capacity(queue)
            .revision_cache(CachePolicy::exact()),
        &pairs,
    );
    emit(
        &format!("revision_cache/stress/n={total}/cached"),
        total,
        &cached,
        sim_base,
        wall_base,
    );
    let speedup = sim_base / cached.out.sim_elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        speedup >= 5.0,
        "acceptance: the cached run must beat the uncached run at {threads} threads \
         by >=5x in modeled time (got {speedup:.2}x)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_skew_sweep, bench_dedup_stress
}
criterion_main!(benches);
