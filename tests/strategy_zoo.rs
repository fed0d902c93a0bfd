//! Determinism, accounting, durability, and judging suite for the
//! strategy zoo (`coachlm::core::strategies`).
//!
//! Properties pinned here:
//!
//! * **Strategy determinism** — every registered strategy (CoachLM,
//!   Reflection, Self-Review, auto-evol, filtering, no-op) produces a
//!   digest-identical output across thread counts 1..=8 and queue
//!   capacities, with transient/permanent/latency faults, a
//!   retry policy, and a breaker all active. The looping stages
//!   (`revise-until-pass`, `evolve`) are the interesting cases: their
//!   per-iteration RNG streams and fault rolls must not depend on worker
//!   interleaving.
//! * **Exact partition accounting** — each strategy's output is an exact
//!   retained/dropped/quarantined partition of its input, with the stage
//!   reports agreeing with the item-level dispositions, and the iteration
//!   budget never exceeded.
//! * **Kill-at-every-frame crash-resume** — a journaled Self-Review run
//!   truncated at every journal frame boundary (and inside frames)
//!   resumes to the uninterrupted digest: mid-loop state never leaks into
//!   the journal, because only committed items are framed.
//! * **Debiased judging** — the tournament verdict matrix is invariant
//!   under position swap and under relabeling/reordering of the
//!   contestants, over real strategy outputs.
//! * **Deadline × breaker × loop** — a latency storm on the looping
//!   Self-Review stage times out every pass, trips the breaker at an
//!   epoch boundary, and degrades the stage to passthrough, all without
//!   the iteration budget ever being exceeded.
//!
//! `tournament_matrix_cell` is the CI entry point: `scripts/ci.sh` runs it
//! under `COACHLM_TOURN_SEED` × `COACHLM_TOURN_THREADS`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::strategies::{
    EvolveStage, ReviseUntilPassStage, SelfReviewStrategy, Strategy, StrategyZoo,
};
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::Dataset;
use coachlm::expert::filter::preliminary_filter;
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::ExpertReviser;
use coachlm::judge::tournament::{run_tournament, Contestant, TournamentResult};
use coachlm::judge::PandaLm;
use coachlm::runtime::{
    BreakerPolicy, BreakerState, ChainOutput, Disposition, Executor, ExecutorConfig, FaultPlan,
    Journal, RetryPolicy,
};
use proptest::prelude::*;

/// Seed namespacing the zoo's filtering rater across the whole suite.
const ZOO_SEED: u64 = 0x200_C0AC;

struct Fixtures {
    coach: CoachLm,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let (train, _) = generate(&GeneratorConfig::small(600, 0x57E4));
        let kept = preliminary_filter(&train, 0x57E4).kept;
        let records =
            ExpertReviser::new(0x57E4).revise_dataset(&ExpertPool::paper_pool(), &train, &kept);
        Fixtures {
            coach: CoachLm::train(CoachConfig::default(), &records),
        }
    })
}

fn zoo() -> StrategyZoo<'static> {
    StrategyZoo::standard(&fixtures().coach, ZOO_SEED)
}

fn dataset(n: usize, seed: u64) -> Dataset {
    let (d, _) = generate(&GeneratorConfig::small(n, seed));
    d
}

/// The chaos config: transient and permanent faults, deadline-busting
/// latency, retries, and a breaker — same shape as the streaming suite.
fn chaos_config(seed: u64, threads: usize, queue: usize) -> ExecutorConfig {
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
        .breaker(
            BreakerPolicy::new()
                .window(32)
                .trip_ratio(0.2)
                .min_failures(4)
                .cooldown_epochs(1)
                .probes(4),
        )
}

fn assert_same(a: &ChainOutput, b: &ChainOutput, what: &str) {
    assert_eq!(a.digest(), b.digest(), "{what}: digest diverged");
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

proptest! {
    // The headline property: no knob of the execution substrate — thread
    // count, queue capacity — changes any strategy's output,
    // even with faults, retries, and a breaker active.
    #[test]
    fn strategy_digest_is_invariant_under_threads_queue_schedule(
        size in 1usize..80,
        data_seed in 0u64..1_000,
        chain_seed in 0u64..10_000,
        threads in 2usize..=8,
        queue in 1usize..128,
        strat in 0usize..6,
    ) {
        let d = dataset(size, data_seed);
        let z = zoo();
        let names = z.names();
        let name = names[strat % names.len()];
        let strategy = z.get(name).expect("registered strategy");
        let reference =
            strategy.run(&d, &chaos_config(chain_seed, 1, 64));
        let parallel =
            strategy.run(&d, &chaos_config(chain_seed, threads, queue));
        prop_assert_eq!(reference.digest(), parallel.digest());
        prop_assert_eq!(&reference.breaker_events, &parallel.breaker_events);
    }
}

/// Every strategy's output is an exact partition of the input, the stage
/// reports agree with the item dispositions, and looping stages never
/// exceed their iteration budgets — all under active fault injection.
#[test]
fn every_strategy_partitions_exactly_under_chaos() {
    let d = dataset(160, 0xACC7);
    for strategy in zoo().iter() {
        let out = strategy.run(&d, &chaos_config(0x99, 4, 16));
        let retained = out.retained().count();
        let dropped = out.dropped().count();
        let quarantined = out.quarantined().count();
        assert_eq!(
            retained + dropped + quarantined,
            d.len(),
            "{}: partition must be exact",
            strategy.name()
        );
        assert_eq!(
            quarantined,
            out.total_quarantined(),
            "{}: item dispositions vs report quarantine tally",
            strategy.name()
        );
        for item in &out.items {
            // Disposition is a function of the terminal item state and
            // exactly one of the three holds.
            let disp = item.disposition();
            match disp {
                Disposition::Retained => assert!(item.retained && item.failure.is_none()),
                Disposition::Dropped => assert!(!item.retained && item.failure.is_none()),
                Disposition::Quarantined => assert!(!item.retained && item.failure.is_some()),
            }
        }
        for report in &out.reports {
            let budget = match report.stage.as_str() {
                ReviseUntilPassStage::NAME => u64::from(ReviseUntilPassStage::BUDGET),
                EvolveStage::NAME => u64::from(EvolveStage::BUDGET),
                _ => 1,
            };
            assert!(
                report.iterations <= report.items_in as u64 * budget,
                "{}/{}: iteration budget exceeded ({} > {} * {})",
                strategy.name(),
                report.stage,
                report.iterations,
                report.items_in,
                budget
            );
        }
    }
}

/// Without faults, the baselines account exactly: the no-op retains
/// everything untouched and filtering splits retained/dropped with no
/// quarantine.
#[test]
fn baseline_accounting_is_exact_without_faults() {
    let d = dataset(140, 0xBA5E);
    let z = zoo();
    let noop = z
        .get("noop")
        .expect("noop")
        .run(&d, &ExecutorConfig::new(7));
    assert_eq!(noop.retained().count(), d.len());
    assert_eq!(noop.dropped().count() + noop.quarantined().count(), 0);
    for (orig, item) in d.pairs.iter().zip(noop.items.iter()) {
        assert_eq!(orig, &item.pair, "noop must not rewrite pairs");
    }
    let filter = z
        .get("filter")
        .expect("filter")
        .run(&d, &ExecutorConfig::new(7));
    let report = filter.report("alpagasus-filter").expect("filter report");
    assert_eq!(filter.quarantined().count(), 0);
    assert_eq!(report.counter("kept") as usize, filter.retained().count());
    assert_eq!(report.counter("dropped") as usize, filter.dropped().count());
    assert_eq!(
        filter.retained().count() + filter.dropped().count(),
        d.len()
    );
    assert!(filter.dropped().count() > 0, "the 4.5 bar drops some pairs");
}

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_journal(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "coachlm-strategy-zoo-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

/// Journal frame boundaries: each frame is `len:u32le + crc:u64le +
/// payload`, so boundaries can be walked without decoding payloads.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut cuts = vec![0usize];
    let mut pos = 0usize;
    while pos + 12 <= bytes.len() {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let next = pos + 12 + len;
        if next > bytes.len() {
            break;
        }
        cuts.push(next);
        pos = next;
    }
    cuts
}

/// Kill-at-every-frame crash-resume for the looping Self-Review stage: a
/// journaled run truncated at *every* frame boundary — and mid-frame, to
/// model a torn write — must resume digest-identical to the uninterrupted
/// run. Mid-loop iteration state never reaches the journal (only
/// committed items are framed), so a crash between passes replays the
/// whole item and converges.
#[test]
fn self_review_crash_resume_kill_at_every_frame() {
    let seed = 0x5E1F;
    let d = dataset(40, seed);
    let strategy = SelfReviewStrategy::new();
    let stages = strategy.stages();

    let gold = Executor::new(chaos_config(seed, 1, 64)).run(&stages, d.pairs.clone());

    let path = temp_journal("self-review");
    let mut journal = Journal::create(&path)
        .expect("create journal")
        .sync_every(1);
    Executor::new(chaos_config(seed, 4, 16))
        .run_journaled(&stages, d.pairs.clone(), &mut journal)
        .expect("journaled run");
    drop(journal);
    let bytes = std::fs::read(&path).expect("read journal back");

    let boundaries = frame_boundaries(&bytes);
    assert!(
        boundaries.len() > d.len() / 2,
        "expected roughly one frame per committed item, got {}",
        boundaries.len()
    );
    for &cut in &boundaries {
        // At the boundary, and torn mid-frame just after it.
        for len in [cut, (cut + 5).min(bytes.len())] {
            std::fs::write(&path, &bytes[..len]).expect("truncate journal");
            let mut journal = Journal::open(&path).expect("recover truncated journal");
            let resumed = Executor::new(chaos_config(seed, 3, 8))
                .run_journaled(&stages, d.pairs.clone(), &mut journal)
                .expect("resume");
            assert_same(&resumed, &gold, &format!("cut at {len}/{}", bytes.len()));
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Runs the whole zoo over `d` and returns named outputs.
fn zoo_outputs(d: &Dataset, config: &ExecutorConfig) -> Vec<(String, Dataset)> {
    zoo()
        .iter()
        .map(|s| (s.name().to_string(), s.dataset(d, config)))
        .collect()
}

fn tournament_of(outputs: &[(String, Dataset)], arena: &Dataset, seed: u64) -> TournamentResult {
    let contestants: Vec<Contestant<'_>> = outputs
        .iter()
        .map(|(name, dataset)| Contestant { name, dataset })
        .collect();
    run_tournament(&PandaLm::new(seed), arena, &contestants)
}

/// The debiasing regression: over real strategy outputs, the verdict
/// matrix is invariant under contestant reordering (relabeling) and every
/// cell is the exact mirror of its transpose (position swap).
#[test]
fn tournament_matrix_is_swap_and_relabeling_invariant() {
    let d = dataset(60, 0x70F7);
    let outputs = zoo_outputs(&d, &ExecutorConfig::new(3));
    let forward = tournament_of(&outputs, &d, 0x9D6E);

    let mut reversed = outputs.clone();
    reversed.reverse();
    let backward = tournament_of(&reversed, &d, 0x9D6E);
    assert_eq!(
        forward, backward,
        "relabeling/reordering changed the matrix"
    );

    let mut rotated = outputs.clone();
    rotated.rotate_left(2);
    assert_eq!(
        forward,
        tournament_of(&rotated, &d, 0x9D6E),
        "rotation changed the matrix"
    );

    for (i, a) in forward.names.iter().enumerate() {
        for (j, b) in forward.names.iter().enumerate() {
            if i == j {
                continue;
            }
            let ab = forward.counts(a, b).expect("cell");
            let ba = forward.counts(b, a).expect("mirror cell");
            assert_eq!(ab.win, ba.lose, "{a} vs {b}: swap broke wins");
            assert_eq!(ab.lose, ba.win, "{a} vs {b}: swap broke losses");
            assert_eq!(ab.tie, ba.tie, "{a} vs {b}: swap broke ties");
        }
    }

    // The paper's headline ordering survives the debiased protocol.
    let cell = forward.counts("coachlm", "filter").expect("cell");
    assert!(
        cell.win > cell.lose,
        "revision must beat filtering head-to-head (Table VII ordering)"
    );
}

/// Deadline × breaker × loop: a latency storm on the looping Self-Review
/// stage times out every pass. The breaker must trip at an epoch
/// boundary and degrade the stage to passthrough; the iteration budget
/// must hold throughout; and the whole evolution stays deterministic.
#[test]
fn latency_storm_trips_breaker_and_degrades_looping_stage() {
    let seed = 0x5708;
    let d = dataset(200, seed);
    let strategy = SelfReviewStrategy::new();
    let stages = strategy.stages();
    // Every attempt spikes past the 5s stage deadline: pure timeout storm.
    let config = |threads| {
        ExecutorConfig::new(seed)
            .threads(threads)
            .fault_plan(FaultPlan::new(seed ^ 0xFA).latency(1.0, Duration::from_secs(30)))
            .retry_policy(RetryPolicy::new(3, Duration::from_millis(10)))
            .breaker(
                BreakerPolicy::new()
                    .window(32)
                    .trip_ratio(0.2)
                    .min_failures(4)
                    .cooldown_epochs(1)
                    .probes(4),
            )
    };
    let out = Executor::new(config(4)).run(&stages, d.pairs.clone());

    let report = out.report(ReviseUntilPassStage::NAME).expect("report");
    assert!(report.timeouts > 0, "the storm must cause timeouts");
    assert!(
        out.breaker_events
            .iter()
            .any(|e| e.to == BreakerState::Open),
        "the breaker must trip under a pure timeout storm"
    );
    // Trips happen only at epoch boundaries: the recorded epoch numbers
    // are non-decreasing and each transition is a legal step.
    let mut last_epoch = 0usize;
    for e in &out.breaker_events {
        assert!(e.epoch >= last_epoch, "epochs must be non-decreasing");
        last_epoch = e.epoch;
        assert_ne!(e.from, e.to, "a transition must change state");
    }
    assert!(
        report.degraded > 0,
        "post-trip items must degrade to passthrough"
    );
    // Degraded passthrough means untouched text: at least one retained
    // item is bit-identical to its input.
    assert!(
        out.items
            .iter()
            .filter(|i| i.retained)
            .any(|i| i.pair == i.original),
        "degraded items pass through unrevised"
    );
    // The iteration budget holds even in the storm.
    assert!(
        report.iterations <= report.items_in as u64 * u64::from(ReviseUntilPassStage::BUDGET),
        "iteration budget exceeded under latency storm"
    );
    // And the whole evolution — trips, probes, degradations — is
    // deterministic across thread counts.
    let again = Executor::new(config(8)).run(&stages, d.pairs.clone());
    assert_same(&out, &again, "latency storm determinism");
}

/// CI tournament-matrix entry point: one cell per (seed, threads),
/// driven by environment variables; a plain `cargo test` skips it. Each
/// cell re-runs every strategy under chaos at the cell's config, checks
/// digests against the single-threaded reference, and asserts the
/// resulting tournament matrix is identical to the reference's.
#[test]
fn tournament_matrix_cell() {
    let Some([seed, threads]) = cell_vars(["COACHLM_TOURN_SEED", "COACHLM_TOURN_THREADS"]) else {
        return;
    };
    let seed: u64 = seed.parse().expect("COACHLM_TOURN_SEED must be a u64");
    let threads: usize = threads
        .parse()
        .expect("COACHLM_TOURN_THREADS must be a usize");

    let d = dataset(120, seed ^ 0x70_0E);
    let reference_cfg = chaos_config(seed, 1, 64);
    let cell_cfg = chaos_config(seed, threads, 16);
    for strategy in zoo().iter() {
        let reference = strategy.run(&d, &reference_cfg);
        let cell = strategy.run(&d, &cell_cfg);
        assert_same(
            &cell,
            &reference,
            &format!("{} x{threads}", strategy.name()),
        );
    }
    let reference_outputs = zoo_outputs(&d, &reference_cfg);
    let cell_outputs = zoo_outputs(&d, &cell_cfg);
    assert_eq!(
        tournament_of(&reference_outputs, &d, seed),
        tournament_of(&cell_outputs, &d, seed),
        "tournament matrix must be execution-config invariant"
    );
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
