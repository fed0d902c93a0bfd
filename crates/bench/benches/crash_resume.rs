//! Journal and crash-recovery costs: what write-ahead logging adds to an
//! uninterrupted run (per fsync policy), and how fast a resume replays a
//! half-complete journal compared with recomputing from scratch.

use coachlm_data::generator::generate;
use coachlm_data::{Dataset, GeneratorConfig};
use coachlm_runtime::{
    Executor, ExecutorConfig, Journal, Stage, StageCtx, StageItem, StageOutcome,
};
use coachlm_text::token::word_count;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A CPU-heavy stand-in for a revision stage: counts words and burns a
/// seeded, data-dependent amount of scoring work.
struct ScoreStage;

impl Stage for ScoreStage {
    fn name(&self) -> &str {
        "score"
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let words = word_count(&item.pair.response);
        let rounds = 5_000 + ctx.rng.gen_range(0u64..5_000);
        let mut acc = words as u64;
        for i in 0..rounds {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        if acc.is_multiple_of(7) {
            ctx.bump("lucky");
        }
        StageOutcome::Ok
    }
}

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_path() -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "coachlm-bench-journal-{}-{n}.wal",
        std::process::id()
    ))
}

fn sample_dataset(pairs: usize) -> Dataset {
    generate(&GeneratorConfig::small(pairs, 0x5CA1E)).0
}

fn config() -> ExecutorConfig {
    ExecutorConfig::new(9).threads(4)
}

/// Write-ahead logging overhead at different fsync batch sizes, against
/// the unjournaled run as the baseline.
fn bench_journal_overhead(c: &mut Criterion) {
    let dataset = sample_dataset(1_000);
    let mut group = c.benchmark_group("journal");
    group.throughput(Throughput::Elements(dataset.len() as u64));
    group.bench_function("unjournaled", |b| {
        b.iter(|| {
            let stages: Vec<Box<dyn Stage>> = vec![Box::new(ScoreStage)];
            black_box(Executor::new(config()).run(&stages, &dataset.pairs))
        });
    });
    for sync_every in [1usize, 32, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("sync_every", sync_every),
            &sync_every,
            |b, &sync_every| {
                b.iter(|| {
                    let stages: Vec<Box<dyn Stage>> = vec![Box::new(ScoreStage)];
                    let path = temp_path();
                    let mut journal = Journal::create(&path)
                        .expect("create journal")
                        .sync_every(sync_every);
                    let out = Executor::new(config())
                        .run_journaled(&stages, &dataset.pairs, &mut journal)
                        .expect("journaled run");
                    drop(journal);
                    std::fs::remove_file(&path).ok();
                    black_box(out)
                });
            },
        );
    }
    group.finish();
}

/// Resume throughput: replaying a committed prefix is bookkeeping, not
/// recomputation, so resuming a mostly-complete journal should beat the
/// from-scratch run roughly in proportion to the committed fraction.
fn bench_resume_replay(c: &mut Criterion) {
    let dataset = sample_dataset(1_000);
    let stages: Vec<Box<dyn Stage>> = vec![Box::new(ScoreStage)];

    // One intact journal, truncated to each fraction before every resume.
    let path = temp_path();
    let mut journal = Journal::create(&path)
        .expect("create journal")
        .sync_every(1);
    Executor::new(config())
        .run_journaled(&stages, &dataset.pairs, &mut journal)
        .expect("journaled run");
    let spans = journal.record_spans().to_vec();
    drop(journal);
    let bytes = std::fs::read(&path).expect("read journal");

    let mut group = c.benchmark_group("resume");
    group.throughput(Throughput::Elements(dataset.len() as u64));
    for percent in [25usize, 50, 90] {
        let cut = spans[spans.len() * percent / 100].1 as usize;
        group.bench_with_input(
            BenchmarkId::new("committed_pct", percent),
            &cut,
            |b, &cut| {
                b.iter(|| {
                    let stages: Vec<Box<dyn Stage>> = vec![Box::new(ScoreStage)];
                    let resume_path = temp_path();
                    std::fs::write(&resume_path, &bytes[..cut]).expect("truncate");
                    let mut journal = Journal::open(&resume_path).expect("recover");
                    let out = Executor::new(config())
                        .run_journaled(&stages, &dataset.pairs, &mut journal)
                        .expect("resume");
                    drop(journal);
                    std::fs::remove_file(&resume_path).ok();
                    black_box(out)
                });
            },
        );
    }
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_journal_overhead, bench_resume_replay
}
criterion_main!(benches);
