//! What one supervised worker crash costs end to end: respawn plus
//! journal-backed re-execution under the restart budget. coachbench never
//! kills a worker, so this is the one place the restart path is timed.
//!
//! The bench binary is its own worker pool: `worker_boot` at the top of
//! `main` turns re-invocations of this executable into shard workers, so
//! `criterion_main!` is expanded by hand.

use coachlm_core::pipeline::{batch_job_factory, run_batch_supervised, BatchJobSpec};
use coachlm_data::generator::generate;
use coachlm_data::{Dataset, GeneratorConfig};
use coachlm_runtime::{worker_boot, ChaosPlan, KillMode, SuperviseOptions, WorkerKill};
use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Workload size: small enough that spawn overhead is visible next to the
/// chain's own work, large enough that each shard gets a real partition.
const PAIRS: usize = 400;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "coachlm-bench-supervise-{}-{n}",
        std::process::id()
    ))
}

fn sample_dataset() -> Dataset {
    generate(&GeneratorConfig::small(PAIRS, 0x5E7)).0
}

/// The manual batch chain (no coach): workers rebuild it from the spec
/// alone, so a spawn costs process setup + wire traffic. These figures
/// are therefore coach-less. With a coach, the parent trains it once per
/// process and ships it in the job params (about 160 KB), and each worker
/// attempt decodes it and loads its backbone (a few milliseconds);
/// coachbench's `durable_shards` workload measures that chain.
fn spec() -> BatchJobSpec {
    BatchJobSpec {
        seed: 0x5E7,
        threads: 2,
        coach: None,
    }
}

/// One worker crash, end to end: the kill lands after `after_frames` item
/// frames, so "early" pays a near-full re-execution and "late" pays the
/// respawn plus a journal replay of the committed prefix.
fn bench_restart_cost(c: &mut Criterion) {
    let raw = sample_dataset();
    let shards = 2usize;
    // Content-hash partitioning is not even: learn shard 0's actual frame
    // count from a clean probe run, so the "late" kill lands inside it.
    let probe_dir = temp_dir();
    let probe = run_batch_supervised(
        &spec(),
        &raw,
        shards,
        &probe_dir,
        &SuperviseOptions::default(),
    )
    .expect("probe run");
    std::fs::remove_dir_all(&probe_dir).ok();
    let shard0_frames = probe.supervision[0].frames_by_attempt[0];
    let mut group = c.benchmark_group("supervise_restart");
    group.throughput(Throughput::Elements(raw.len() as u64));
    for (label, after_frames) in [("early", 1u64), ("late", shard0_frames - 2)] {
        group.bench_with_input(
            BenchmarkId::new("kill", label),
            &after_frames,
            |b, &after_frames| {
                b.iter(|| {
                    let dir = temp_dir();
                    let opts = SuperviseOptions {
                        // sync_every 1: the committed prefix is the whole
                        // received prefix, so "late" measures replay, not
                        // tail re-execution.
                        sync_every: 1,
                        chaos: ChaosPlan {
                            worker_kills: vec![WorkerKill {
                                shard: 0,
                                attempt: 0,
                                after_frames,
                                mode: KillMode::Boundary,
                            }],
                            parent_kills: Vec::new(),
                        },
                        ..SuperviseOptions::default()
                    };
                    let out = run_batch_supervised(&spec(), &raw, shards, &dir, &opts)
                        .expect("supervised run with restart");
                    assert_eq!(
                        out.supervision.iter().map(|s| s.restarts).sum::<u32>(),
                        1,
                        "the scheduled kill must land"
                    );
                    std::fs::remove_dir_all(&dir).ok();
                    black_box(out)
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_restart_cost
}

fn main() {
    // Re-invocations of this binary by the supervised driver run as shard
    // workers; worker_boot never returns in that mode.
    worker_boot(batch_job_factory);
    benches();
}
