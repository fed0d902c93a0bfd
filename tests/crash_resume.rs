//! Crash-consistency suite for the executor's write-ahead journal.
//!
//! Properties pinned here, over the production stage chains:
//!
//! * **Kill anywhere** — truncating the journal at *every* byte offset
//!   (modelling a crash mid-write) still recovers: `Journal::open` drops
//!   the torn tail to the last consistent frontier, and the resumed run
//!   is bit-identical to an uninterrupted one in every deterministic
//!   field (items, reports, quarantine, breaker evolution).
//! * **Cross-config resume** — a journal written at one thread count
//!   resumes at any other, because outcomes never depend on it.
//! * **Chaos composition** — the above holds with a [`FaultPlan`]
//!   injecting transient/permanent faults and deadline-busting latency,
//!   and with a circuit breaker tripping mid-batch.
//!
//! `crash_matrix_cell` is the CI entry point: `scripts/ci.sh` runs it
//! under `COACHLM_CRASH_SEED` × `COACHLM_KILL_POINT` to sweep the crash
//! matrix.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use coachlm::core::baselines::CleanStage;
use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::infer::CoachReviseStage;
use coachlm::core::pipeline::ExpertAnnotateStage;
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::Dataset;
use coachlm::expert::filter::preliminary_filter;
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::ExpertReviser;
use coachlm::runtime::{
    BreakerPolicy, ChainOutput, Executor, ExecutorConfig, FaultPlan, Journal, RetryPolicy, Stage,
};
use proptest::prelude::*;

struct Fixtures {
    coach: CoachLm,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let (train, _) = generate(&GeneratorConfig::small(600, 0xC7A5));
        let kept = preliminary_filter(&train, 0xC7A5).kept;
        let records =
            ExpertReviser::new(0xC7A5).revise_dataset(&ExpertPool::paper_pool(), &train, &kept);
        Fixtures {
            coach: CoachLm::train(CoachConfig::default(), &records),
        }
    })
}

fn chain(f: &'static Fixtures) -> Vec<Box<dyn Stage + 'static>> {
    vec![
        Box::new(CleanStage),
        Box::new(CoachReviseStage::new(&f.coach)),
        Box::new(ExpertAnnotateStage::new(7, true)),
    ]
}

/// The chaos config every test runs under: transient + permanent faults,
/// latency spikes past the coach-revise deadline budget, and a breaker
/// that trips mid-batch — the richest behaviour the journal must replay.
fn config(seed: u64, threads: usize) -> ExecutorConfig {
    ExecutorConfig::new(seed)
        .threads(threads)
        .fault_plan(
            FaultPlan::new(seed ^ 0xFA)
                .transient(0.2)
                .permanent(0.05)
                .latency(0.3, Duration::from_secs(8)),
        )
        .retry_policy(RetryPolicy::new(3, Duration::from_millis(10)))
        .breaker(
            BreakerPolicy::new()
                .window(32)
                .trip_ratio(0.2)
                .min_failures(4)
                .cooldown_epochs(1)
                .probes(4),
        )
}

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_journal(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "coachlm-crash-resume-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

fn dataset(n: usize, seed: u64) -> Dataset {
    let (d, _) = generate(&GeneratorConfig::small(n, seed));
    d
}

/// Golden uninterrupted run (no journal involved at all).
fn golden(d: &Dataset, seed: u64) -> ChainOutput {
    Executor::new(config(seed, 1)).run_dataset(&chain(fixtures()), d)
}

/// Writes a complete journal for the run and returns its bytes.
fn full_journal_bytes(d: &Dataset, seed: u64, path: &PathBuf) -> Vec<u8> {
    // sync_every(1) keeps the record stream ordered on disk record by
    // record, so truncation points cover every commit depth.
    let mut journal = Journal::create(path).expect("create journal").sync_every(1);
    Executor::new(config(seed, 4))
        .run_journaled(&chain(fixtures()), d.pairs.clone(), &mut journal)
        .expect("journaled run");
    drop(journal);
    std::fs::read(path).expect("read journal back")
}

/// Truncates the journal to `len` bytes, recovers it, resumes, and checks
/// the result against the golden run.
fn resume_at(
    path: &PathBuf,
    bytes: &[u8],
    len: usize,
    d: &Dataset,
    seed: u64,
    threads: usize,
    gold: &ChainOutput,
) {
    std::fs::write(path, &bytes[..len]).expect("truncate journal");
    let mut journal = Journal::open(path).expect("recover truncated journal");
    let resumed = Executor::new(config(seed, threads))
        .resume_from(&chain(fixtures()), d.pairs.clone(), &mut journal)
        .expect("resume");
    assert_eq!(
        resumed.digest(),
        gold.digest(),
        "cut at byte {len}/{}: resumed run diverged (x{threads})",
        bytes.len()
    );
    assert_eq!(
        resumed.breaker_events, gold.breaker_events,
        "cut at byte {len}"
    );
    assert_eq!(
        resumed.quarantine("q").items,
        gold.quarantine("q").items,
        "cut at byte {len}"
    );
    for (a, b) in resumed.items.iter().zip(&gold.items) {
        assert_eq!(a.pair, b.pair, "cut at byte {len}, item {}", a.index);
        assert_eq!(a.tags, b.tags);
        assert_eq!(a.failure, b.failure);
    }
}

/// Kill sweep: a crash can tear the journal at any byte. The cut set
/// covers every byte of the header and of the tail record (the torn-write
/// cases a real crash produces), every record boundary (the clean-commit
/// cases), and a stride across the interior. Every prefix must recover
/// and resume to the golden result.
#[test]
fn kill_at_every_byte_offset_of_the_tail_resumes_bit_identical() {
    let seed = 0x0FF5;
    let d = dataset(48, seed);
    let gold = golden(&d, seed);
    let path = temp_journal("every-byte");
    let bytes = full_journal_bytes(&d, seed, &path);

    // Reopen the intact journal purely to learn where the records sit.
    let spans: Vec<(u64, u64)> = Journal::open(&path)
        .expect("reopen intact journal")
        .record_spans()
        .to_vec();
    assert!(
        spans.len() > 2,
        "journal must hold a header and item records"
    );

    let mut cuts = std::collections::BTreeSet::new();
    let (h_start, h_end) = spans[0];
    let (t_start, t_end) = spans[spans.len() - 1];
    cuts.extend(h_start..=h_end); // torn header
    cuts.extend(t_start..=t_end); // torn tail record
    cuts.extend(spans.iter().map(|&(_, end)| end)); // clean commits
    cuts.extend((0..bytes.len() as u64).step_by(61)); // interior tears
    cuts.insert(bytes.len() as u64);

    for (i, len) in cuts.into_iter().enumerate() {
        // Alternate resume configs so the sweep also covers cross-config
        // resume without multiplying its cost.
        let threads = [1, 4, 3][i % 3];
        resume_at(&path, &bytes, len as usize, &d, seed, threads, &gold);
    }
    std::fs::remove_file(&path).ok();
}

/// A resumed journal can itself be killed and resumed again: crash loops
/// converge instead of corrupting state.
#[test]
fn double_crash_still_converges() {
    let seed = 0xD0C;
    let d = dataset(60, seed);
    let gold = golden(&d, seed);
    let path = temp_journal("double");
    let bytes = full_journal_bytes(&d, seed, &path);

    // First crash: keep a quarter of the journal, resume fully.
    std::fs::write(&path, &bytes[..bytes.len() / 4]).unwrap();
    let mut journal = Journal::open(&path).unwrap();
    Executor::new(config(seed, 2))
        .resume_from(&chain(fixtures()), d.pairs.clone(), &mut journal)
        .unwrap();
    drop(journal);

    // Second crash: tear the regrown journal mid-record and resume again.
    let regrown = std::fs::read(&path).unwrap();
    assert!(
        regrown.len() > bytes.len() / 4,
        "resume must regrow the journal"
    );
    resume_at(
        &path,
        &regrown,
        regrown.len() - regrown.len() / 3,
        &d,
        seed,
        4,
        &gold,
    );
    std::fs::remove_file(&path).ok();
}

// Randomised crash matrix: any (seed, kill fraction, thread count)
// resumes bit-identical to the uninterrupted run.
proptest! {
    #[test]
    fn any_crash_point_resumes_bit_identical(
        seed in 0u64..1_000,
        kill_permille in 0usize..1_000,
        threads in 1usize..9,
    ) {
        let d = dataset(40, seed ^ 0x9A9A);
        let gold = golden(&d, seed);
        let path = temp_journal("prop");
        let bytes = full_journal_bytes(&d, seed, &path);
        let len = bytes.len() * kill_permille / 1_000;
        resume_at(&path, &bytes, len, &d, seed, threads, &gold);
        std::fs::remove_file(&path).ok();
    }
}

/// CI crash-matrix entry point: one cell per (seed, kill point), driven
/// by environment variables. Without them the test is a no-op, so a plain
/// `cargo test` stays fast.
#[test]
fn crash_matrix_cell() {
    let Some([seed, kill]) = cell_vars(["COACHLM_CRASH_SEED", "COACHLM_KILL_POINT"]) else {
        return;
    };
    let seed: u64 = seed.parse().expect("COACHLM_CRASH_SEED must be a u64");
    let kill_percent: usize = kill.parse().expect("COACHLM_KILL_POINT must be 0..=100");
    assert!(kill_percent <= 100, "COACHLM_KILL_POINT must be 0..=100");

    let d = dataset(200, seed ^ 0xCE11);
    let gold = golden(&d, seed);
    let path = temp_journal(&format!("matrix-{seed}-{kill_percent}"));
    let bytes = full_journal_bytes(&d, seed, &path);
    let len = bytes.len() * kill_percent / 100;
    for threads in [1, 4, 8, 16] {
        resume_at(&path, &bytes, len, &d, seed, threads, &gold);
    }
    std::fs::remove_file(&path).ok();
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
