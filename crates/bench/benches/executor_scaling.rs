//! Executor scaling: the same stage chain over the same dataset at
//! increasing worker counts. Output is identical at every thread count
//! (the executor's determinism contract); only wall-clock should move.
//!
//! Two families of figures come out of this binary:
//!
//! * **Wall medians** (`executor/stream/...`, `executor/skewed_dynamic/...`)
//!   — real elapsed time on whatever cores the host grants. On a
//!   single-core container these barely move with the thread count.
//! * **Virtual-time figures** (`.../sim` records) — the streaming core's
//!   deterministic service-time model ([`Stage::service_time`]): with no
//!   breaker every lane runs the whole chain, each item charges its
//!   modeled chain service to the first free lane, and the sink's
//!   recurrence yields the makespan a machine with that many real lanes
//!   would see. `sim_speedup_vs_1` is modeled, not measured: the
//!   data-parallel scaling claim, host-independent.

use coachlm_data::generator::generate;
use coachlm_data::{Dataset, GeneratorConfig};
use coachlm_runtime::{
    adaptive_chunk_size, Executor, ExecutorConfig, Stage, StageCtx, StageItem, StageOutcome,
    StreamSource,
};
use coachlm_text::token::word_count;
use criterion::{
    append_metric, black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput,
};
use rand::Rng;
use std::time::Duration;

/// A heavy-tailed stand-in: most items are cheap scoring work, but the last
/// stretch of the batch is latency-bound — modelling the production revision
/// path, where a slice of pairs waits on an external LLM endpoint. Small
/// chunks spread the tail across whichever lanes finish their cheap chunks
/// first, overlapping the waits.
struct SkewedStage {
    heavy_from: u64,
}

impl Stage for SkewedStage {
    fn name(&self) -> &str {
        "skewed"
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let words = word_count(&item.pair.response);
        let rounds = 2_000 + ctx.rng.gen_range(0u64..1_000);
        let mut acc = words as u64;
        for i in 0..rounds {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        if acc.is_multiple_of(7) {
            ctx.bump("lucky");
        }
        if item.pair.id >= self.heavy_from {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        StageOutcome::Ok
    }
}

/// A uniform pipeline stage with an explicit modeled service time, for the
/// streaming benches: cheap real work (so a 52k-pair run finishes in wall
/// seconds) but an honest virtual-time charge per item.
struct PipeStage {
    label: &'static str,
    rounds: u64,
    service_us: u64,
}

impl Stage for PipeStage {
    fn name(&self) -> &str {
        self.label
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let words = word_count(&item.pair.response);
        let rounds = self.rounds + ctx.rng.gen_range(0u64..self.rounds / 4 + 1);
        let mut acc = words as u64;
        for i in 0..rounds {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        if acc.is_multiple_of(7) {
            ctx.bump("lucky");
        }
        StageOutcome::Ok
    }

    fn service_time(&self) -> Duration {
        Duration::from_micros(self.service_us)
    }
}

/// The two-stage streaming chain: a light front stage feeding a heavier
/// revise-like stage.
fn stream_chain() -> Vec<Box<dyn Stage + 'static>> {
    vec![
        Box::new(PipeStage {
            label: "tokenize",
            rounds: 400,
            service_us: 2,
        }),
        Box::new(PipeStage {
            label: "revise",
            rounds: 1_200,
            service_us: 6,
        }),
    ]
}

fn sample_dataset(pairs: usize) -> Dataset {
    generate(&GeneratorConfig::small(pairs, 0x5CA1E)).0
}

fn bench_stream_scaling(c: &mut Criterion) {
    // Wall medians on a small batch (so iterations stay cheap)...
    let dataset = sample_dataset(2_000);
    let mut group = c.benchmark_group("executor");
    group.throughput(Throughput::Elements(dataset.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("stream", format!("threads={threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let executor = Executor::new(ExecutorConfig::new(9).threads(threads));
                    black_box(
                        executor.run_stream(&stream_chain(), StreamSource::batch(&dataset.pairs)),
                    )
                });
            },
        );
    }
    group.finish();

    // ...and the deterministic virtual-time figures on the paper-scale
    // uniform batch. One run per thread count is enough: `sim_elapsed` is
    // exactly reproducible, not a sample.
    let full = sample_dataset(52_000);
    let n = full.len() as f64;
    let mut sim_base: Option<f64> = None;
    for threads in [1usize, 2, 4, 8] {
        let config = ExecutorConfig::new(9).threads(threads);
        let chunk = adaptive_chunk_size(full.len(), threads, config.queue_capacity_items());
        let executor = Executor::new(config);
        let out = executor.run_stream(&stream_chain(), StreamSource::batch(&full.pairs));
        let sim = out.sim_elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        let base = *sim_base.get_or_insert(sim);
        append_metric(
            &format!("executor/stream/threads={threads}/sim"),
            &[
                ("sim_elapsed_secs", sim),
                ("sim_elems_per_sec", n / sim),
                ("sim_speedup_vs_1", base / sim),
                ("adaptive_chunk_size", chunk as f64),
            ],
        );
    }
}

fn bench_stream_queue_depth(c: &mut Criterion) {
    // Bounded-queue depth sweep at a fixed thread count: how much capacity
    // the lanes' output queue needs before backpressure stops
    // costing wall time (and how little sim figures care — they are
    // capacity-invariant by the determinism contract).
    let dataset = sample_dataset(2_000);
    let mut group = c.benchmark_group("executor");
    group.throughput(Throughput::Elements(dataset.len() as u64));
    for capacity in [16usize, 64, 256, 1024] {
        group.bench_with_input(
            BenchmarkId::new("stream", format!("queue={capacity}")),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    let executor =
                        Executor::new(ExecutorConfig::new(9).threads(4).queue_capacity(capacity));
                    black_box(
                        executor.run_stream(&stream_chain(), StreamSource::batch(&dataset.pairs)),
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_skewed_batch(c: &mut Criterion) {
    let dataset = sample_dataset(2_000);
    // Ids 1900.. (the last ~5% of the batch) carry the heavy tail.
    let heavy_from = 1_900;
    let mut group = c.benchmark_group("executor");
    group.throughput(Throughput::Elements(dataset.len() as u64));
    for threads in [4usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("skewed_dynamic", format!("threads={threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let stages: Vec<Box<dyn Stage>> = vec![Box::new(SkewedStage { heavy_from })];
                    let executor = Executor::new(ExecutorConfig::new(9).threads(threads));
                    black_box(executor.run(&stages, &dataset.pairs))
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stream_scaling, bench_stream_queue_depth, bench_skewed_batch
}
criterion_main!(benches);
