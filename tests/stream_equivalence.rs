//! Equivalence and determinism suite for the streaming core.
//!
//! Properties pinned here:
//!
//! * **Batch = stream** — the pipeline's `run_batch` produces the same
//!   report as `run_stream` under [`Feed::Batch`].
//! * **Streaming determinism** — with faults, retries, and a breaker
//!   active, any (thread count 1..=16, queue capacity) produces
//!   a digest-identical run: lane count and queue depth are performance
//!   knobs, never semantics.
//! * **Sustained-feed determinism** — admission-control shedding is a
//!   function of the arrival model alone, so the shed set is identical
//!   across thread counts and queue depths.
//! * **Mid-stream crash-resume** — a journaled streaming run killed at
//!   any prefix resumes digest-identical, for batch and sustained feeds;
//!   a journal written under one feed refuses to resume under another.
//!
//! `stream_matrix_cell` is the CI entry point: `scripts/ci.sh` runs it
//! under `COACHLM_STREAM_SEED` × `COACHLM_THREADS` × `COACHLM_QUEUE`, and
//! each cell runs with and without the breaker.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use coachlm::core::baselines::{AlpaGasusStage, CleanStage, HumanMergeStage};
use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::infer::CoachReviseStage;
use coachlm::core::pipeline::{
    run_batch, run_batch_journaled, run_stream, trained_coach, ExpertAnnotateStage, PipelineError,
};
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::Dataset;
use coachlm::expert::filter::{preliminary_filter, PreliminaryFilterStage};
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::{ExpertReviseStage, ExpertReviser, RevisionRecord};
use coachlm::judge::chatgpt::{ChatGptRater, ChatGptRatingStage};
use coachlm::runtime::{
    BreakerPolicy, ChainOutput, Executor, ExecutorConfig, FaultPlan, Feed, Journal, JournalError,
    RetryPolicy, Stage, StreamSource,
};
use proptest::prelude::*;

struct Fixtures {
    coach: CoachLm,
    rater: ChatGptRater,
    reviser: ExpertReviser,
    pool: ExpertPool,
    kept: Vec<u64>,
    records: Vec<RevisionRecord>,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let (train, _) = generate(&GeneratorConfig::small(600, 0x57E4));
        let kept = preliminary_filter(&train, 0x57E4).kept;
        let reviser = ExpertReviser::new(0x57E4);
        let records = reviser.revise_dataset(&ExpertPool::paper_pool(), &train, &kept);
        Fixtures {
            coach: CoachLm::train(CoachConfig::default(), &records),
            rater: ChatGptRater::new(0x57E4),
            reviser,
            pool: ExpertPool::paper_pool(),
            kept,
            records,
        }
    })
}

/// The same chain selectors as `executor_determinism.rs`: every stage type
/// that rides the executor in production appears in at least one.
fn chain(sel: u8, f: &'static Fixtures) -> Vec<Box<dyn Stage + 'static>> {
    let record_refs: Vec<&RevisionRecord> = f.records.iter().collect();
    match sel % 6 {
        0 => vec![Box::new(CleanStage)],
        1 => vec![
            Box::new(CleanStage),
            Box::new(CoachReviseStage::new(&f.coach)),
        ],
        2 => vec![
            Box::new(CleanStage),
            Box::new(CoachReviseStage::new(&f.coach)),
            Box::new(ExpertAnnotateStage::new(7, true)),
        ],
        3 => vec![
            Box::new(PreliminaryFilterStage),
            Box::new(ExpertReviseStage::new(&f.reviser, &f.pool, &f.kept)),
        ],
        4 => vec![
            Box::new(AlpaGasusStage::new(&f.rater, 4.5)),
            Box::new(ChatGptRatingStage::new(&f.rater)),
        ],
        _ => vec![
            Box::new(HumanMergeStage::new(&record_refs, usize::MAX)),
            Box::new(ChatGptRatingStage::new(&f.rater)),
        ],
    }
}

fn dataset(n: usize, seed: u64) -> Dataset {
    let (d, _) = generate(&GeneratorConfig::small(n, seed));
    d
}

/// The chaos config the determinism properties run under: transient and
/// permanent faults, deadline-busting latency, retries, and a breaker —
/// everything the streaming core must keep deterministic.
fn chaos_config(seed: u64, threads: usize, queue: usize) -> ExecutorConfig {
    fault_config(seed, threads, queue).breaker(
        BreakerPolicy::new()
            .window(32)
            .trip_ratio(0.2)
            .min_failures(4)
            .cooldown_epochs(1)
            .probes(4),
    )
}

/// [`chaos_config`] without the breaker. Every lane runs the whole chain
/// either way; with the breaker the lanes also wait at the epoch gate,
/// without it they never wait.
fn fault_config(seed: u64, threads: usize, queue: usize) -> ExecutorConfig {
    ExecutorConfig::new(seed)
        .threads(threads)
        .queue_capacity(queue)
        .fault_plan(
            FaultPlan::new(seed ^ 0xFA)
                .transient(0.2)
                .permanent(0.05)
                .latency(0.3, Duration::from_secs(8)),
        )
        .retry_policy(RetryPolicy::new(3, Duration::from_millis(10)))
}

/// A sustained feed hot enough to shed a visible slice of the batch.
fn overloaded_feed() -> Feed {
    Feed::Sustained {
        rate_per_sec: 400.0,
        drain_per_sec: 250.0,
        backlog_capacity: 8,
    }
}

fn assert_same(a: &ChainOutput, b: &ChainOutput, what: &str) {
    assert_eq!(a.digest(), b.digest(), "{what}: digest diverged");
    assert_eq!(a.shed, b.shed, "{what}: shed count diverged");
    assert_eq!(
        a.breaker_events, b.breaker_events,
        "{what}: breaker evolution diverged"
    );
    assert_eq!(a.items.len(), b.items.len(), "{what}");
    for (x, y) in a.items.iter().zip(&b.items) {
        assert_eq!(x.pair, y.pair, "{what}: item {}", x.index);
        assert_eq!(x.retained, y.retained, "{what}: item {}", x.index);
        assert_eq!(x.tags, y.tags, "{what}: item {}", x.index);
    }
}

/// Serializes to a JSON tree with wall-clock-derived fields removed:
/// cpu seconds and the throughput rates computed from them are real
/// measurements, deliberately outside the determinism contract.
fn json<T: serde::Serialize>(v: &T) -> serde_json::Value {
    fn scrub(v: &mut serde_json::Value) {
        match v {
            serde_json::Value::Array(items) => items.iter_mut().for_each(scrub),
            serde_json::Value::Object(entries) => {
                entries.retain(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "cpu_seconds" | "samples_per_sec" | "coachlm_samples_per_sec"
                    )
                });
                entries.iter_mut().for_each(|(_, v)| scrub(v));
            }
            _ => {}
        }
    }
    let mut value = serde_json::to_value(v);
    scrub(&mut value);
    value
}

/// The pipeline's batch entry point equals its streaming variant under
/// `Feed::Batch`: `run_batch` is a thin wrapper, and this pins that it
/// stays behaviour-identical, not just type-compatible.
#[test]
fn chain_entry_points_agree_batch_vs_stream() {
    let f = fixtures();
    let d = dataset(150, 0xBEEF);
    let config = ExecutorConfig::new(0x11).threads(4);

    let batch = run_batch(Some(&f.coach), &d, &config).expect("batch pipeline");
    let stream = run_stream(Some(&f.coach), &d, &config, Feed::Batch).expect("stream pipeline");
    assert_eq!(json(&batch), json(&stream), "pipeline report");
}

proptest! {
    // The headline determinism property: thread count and queue capacity
    // never change a streaming run's outcome, even with faults, retries,
    // and a breaker active.
    #[test]
    fn streaming_digest_is_invariant_under_threads_queue_schedule(
        size in 1usize..120,
        data_seed in 0u64..1_000,
        chain_seed in 0u64..10_000,
        threads in 2usize..=16,
        queue in 1usize..256,
        sel in 0u8..6,
    ) {
        let d = dataset(size, data_seed);
        let reference = Executor::new(chaos_config(chain_seed, 1, 64))
            .run_stream(&chain(sel, fixtures()), StreamSource::batch(&d.pairs));
        let streamed = Executor::new(chaos_config(chain_seed, threads, queue))
            .run_stream(&chain(sel, fixtures()), StreamSource::batch(&d.pairs));
        prop_assert_eq!(reference.digest(), streamed.digest());
        prop_assert_eq!(&reference.breaker_events, &streamed.breaker_events);
    }

    // Shedding under a sustained feed is part of the deterministic
    // outcome: the same arrival model sheds the same pairs at any thread
    // count and queue depth.
    #[test]
    fn sustained_shedding_is_config_invariant(
        size in 20usize..150,
        data_seed in 0u64..500,
        chain_seed in 0u64..5_000,
        threads in 2usize..=16,
        queue in 1usize..256,
        sel in 0u8..6,
    ) {
        let d = dataset(size, data_seed);
        let feed = overloaded_feed();
        let source = || StreamSource { pairs: &d.pairs, feed: feed.clone() };
        let reference = Executor::new(chaos_config(chain_seed, 1, 64))
            .run_stream(&chain(sel, fixtures()), source());
        let streamed = Executor::new(chaos_config(chain_seed, threads, queue))
            .run_stream(&chain(sel, fixtures()), source());
        prop_assert_eq!(reference.digest(), streamed.digest());
        prop_assert_eq!(reference.shed, streamed.shed);
    }
}

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_journal(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "coachlm-stream-equiv-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

/// Journaled streaming run under `feed`, killed at several prefixes;
/// every resume must land digest-identical to the uninterrupted run.
fn crash_resume_under_feed(feed: Feed, tag: &str) {
    let seed = 0x5EA5;
    let d = dataset(80, seed);
    let stages = chain(2, fixtures());
    let source = || StreamSource {
        pairs: &d.pairs,
        feed: feed.clone(),
    };

    let gold = Executor::new(chaos_config(seed, 1, 64)).run_stream(&stages, source());

    let path = temp_journal(tag);
    let mut journal = Journal::create(&path)
        .expect("create journal")
        .sync_every(1);
    Executor::new(chaos_config(seed, 4, 16))
        .run_stream_journaled(&stages, source(), &mut journal)
        .expect("journaled streaming run");
    drop(journal);
    let bytes = std::fs::read(&path).expect("read journal back");

    for permille in [0usize, 130, 333, 500, 777, 999, 1_000] {
        let len = bytes.len() * permille / 1_000;
        std::fs::write(&path, &bytes[..len]).expect("truncate journal");
        let mut journal = Journal::open(&path).expect("recover truncated journal");
        let resumed = Executor::new(chaos_config(seed, 3, 8))
            .run_stream_journaled(&stages, source(), &mut journal)
            .expect("resume");
        assert_same(
            &resumed,
            &gold,
            &format!("{tag}: cut at {len}/{}", bytes.len()),
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_stream_crash_resumes_digest_identical_batch() {
    crash_resume_under_feed(Feed::Batch, "batch");
}

#[test]
fn mid_stream_crash_resumes_digest_identical_sustained() {
    crash_resume_under_feed(overloaded_feed(), "sustained");
}

/// The feed is part of the run fingerprint: a journal written under a
/// sustained arrival model must refuse to resume as a batch run (and vice
/// versa), instead of silently replaying mismatched shed decisions.
#[test]
fn journal_refuses_resume_under_a_different_feed() {
    let seed = 0xFEED;
    let d = dataset(40, seed);
    let stages = chain(1, fixtures());
    let path = temp_journal("feed-mismatch");

    let mut journal = Journal::create(&path).expect("create journal");
    Executor::new(chaos_config(seed, 2, 32))
        .run_stream_journaled(
            &stages,
            StreamSource {
                pairs: &d.pairs,
                feed: overloaded_feed(),
            },
            &mut journal,
        )
        .expect("sustained journaled run");
    drop(journal);

    let mut journal = Journal::open(&path).expect("reopen");
    let err = Executor::new(chaos_config(seed, 2, 32)).run_stream_journaled(
        &stages,
        StreamSource::batch(&d.pairs),
        &mut journal,
    );
    assert!(
        err.is_err(),
        "batch resume of a sustained journal must fail"
    );
    std::fs::remove_file(&path).ok();
}

/// The coach's learned state is part of the run fingerprint: a journal
/// written under one trained coach must refuse to resume under another,
/// instead of replaying the first coach's revisions as the second's run.
#[test]
fn journal_refuses_resume_under_a_different_coach() {
    let mut d = dataset(60, 0xC0AC);
    // Ids clear of both coaches' training ids, which the revise stage
    // would skip as §III-B1 leakage.
    for p in &mut d.pairs {
        p.id += 1 << 32;
    }
    let config = ExecutorConfig::new(0xC0AC).threads(2);
    let (a, b) = (trained_coach(9, 400), trained_coach(10, 400));
    let run_a = run_batch(Some(&a), &d, &config).expect("coach A run");
    let run_b = run_batch(Some(&b), &d, &config).expect("coach B run");
    assert_ne!(run_a.output, run_b.output, "the coaches revise differently");

    let path = temp_journal("coach-mismatch");
    let mut journal = Journal::create(&path).expect("create journal");
    run_batch_journaled(Some(&a), &d, &config, &mut journal).expect("coach A journaled run");
    drop(journal);

    let mut journal = Journal::open(&path).expect("reopen");
    let resumed = run_batch_journaled(Some(&b), &d, &config, &mut journal);
    std::fs::remove_file(&path).ok();
    match resumed {
        Err(PipelineError::Journal(JournalError::Incompatible(_))) => {}
        Err(e) => panic!("refused for the wrong reason: {e}"),
        Ok(r) => panic!(
            "coach B resumed coach A's journal ({} pairs replayed)",
            r.replayed
        ),
    }
}

/// CI streaming-matrix entry point: one cell per (seed, threads, queue
/// capacity), driven by environment variables. Without them the test is a
/// no-op, so a plain `cargo test` stays fast. Each cell checks both feeds,
/// with the breaker (lanes behind the epoch gate) and without it, against
/// the single-threaded reference.
#[test]
fn stream_matrix_cell() {
    let Some([seed, threads, queue]) =
        cell_vars(["COACHLM_STREAM_SEED", "COACHLM_THREADS", "COACHLM_QUEUE"])
    else {
        return;
    };
    let seed: u64 = seed.parse().expect("COACHLM_STREAM_SEED must be a u64");
    let threads: usize = threads.parse().expect("COACHLM_THREADS must be a usize");
    let queue: usize = queue.parse().expect("COACHLM_QUEUE must be a usize");

    let d = dataset(200, seed ^ 0x57E0);
    for breaker in [true, false] {
        let config = if breaker { chaos_config } else { fault_config };
        let gate = if breaker { "breaker" } else { "no breaker" };
        for sel in 0..6u8 {
            for feed in [Feed::Batch, overloaded_feed()] {
                let source = || StreamSource {
                    pairs: &d.pairs,
                    feed: feed.clone(),
                };
                let reference = Executor::new(config(seed, 1, 64))
                    .run_stream(&chain(sel, fixtures()), source());
                let cell = Executor::new(config(seed, threads, queue))
                    .run_stream(&chain(sel, fixtures()), source());
                assert_same(
                    &cell,
                    &reference,
                    &format!("{gate}: chain {sel} x{threads} q{queue}"),
                );
            }
        }
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
