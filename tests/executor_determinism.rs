//! Property test for the executor's determinism contract: for any ported
//! stage chain, dataset size, chain seed, and worker count in 1..=16, the
//! parallel run produces item-for-item identical output, tags, retention,
//! and per-stage counters to the sequential (threads = 1) run.

use std::sync::OnceLock;

use coachlm::core::baselines::{AlpaGasusStage, CleanStage, HumanMergeStage};
use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::infer::CoachReviseStage;
use coachlm::core::pipeline::ExpertAnnotateStage;
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::Dataset;
use coachlm::expert::filter::{preliminary_filter, PreliminaryFilterStage};
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::{ExpertReviseStage, ExpertReviser, RevisionRecord};
use coachlm::judge::chatgpt::{ChatGptRater, ChatGptRatingStage};
use coachlm::runtime::{ChainOutput, Executor, ExecutorConfig, Stage};
use proptest::prelude::*;

/// Shared fixtures that are expensive to build (the proptest loop runs many
/// cases; training a coach per case would dominate the test).
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
        let (train, _) = generate(&GeneratorConfig::small(800, 0xF1C5));
        let kept = preliminary_filter(&train, 0xF1C5).kept;
        let reviser = ExpertReviser::new(0xF1C5);
        let records = reviser.revise_dataset(&ExpertPool::paper_pool(), &train, &kept);
        Fixtures {
            coach: CoachLm::train(CoachConfig::default(), &records),
            rater: ChatGptRater::new(0xF1C5),
            reviser,
            pool: ExpertPool::paper_pool(),
            kept,
            records,
        }
    })
}

/// Builds one of the ported stage chains. Every stage type that rides the
/// executor in production appears in at least one selector.
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

fn run(sel: u8, dataset: &Dataset, seed: u64, threads: usize) -> ChainOutput {
    let stages = chain(sel, fixtures());
    Executor::new(ExecutorConfig::new(seed).threads(threads)).run(&stages, &dataset.pairs)
}

fn assert_same(a: &ChainOutput, b: &ChainOutput) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(a.items.len(), b.items.len());
    for (x, y) in a.items.iter().zip(&b.items) {
        prop_assert_eq!(&x.pair, &y.pair);
        prop_assert_eq!(x.retained, y.retained);
        prop_assert_eq!(&x.tags, &y.tags);
    }
    prop_assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        prop_assert_eq!(&ra.stage, &rb.stage);
        prop_assert_eq!(ra.items_in, rb.items_in);
        prop_assert_eq!(ra.items_out, rb.items_out);
        prop_assert_eq!(&ra.counters, &rb.counters);
    }
    Ok(())
}

proptest! {
    #[test]
    fn parallel_run_matches_sequential(
        size in 1usize..200,
        data_seed in 0u64..1000,
        chain_seed in 0u64..10_000,
        threads in 2usize..=16,
        sel in 0u8..6,
    ) {
        let (dataset, _) = generate(&GeneratorConfig::small(size, data_seed));
        let sequential = run(sel, &dataset, chain_seed, 1);
        let parallel = run(sel, &dataset, chain_seed, threads);
        assert_same(&parallel, &sequential)?;
    }

    #[test]
    fn same_config_repeats_exactly(
        size in 1usize..100,
        chain_seed in 0u64..10_000,
        threads in 1usize..=16,
        sel in 0u8..6,
    ) {
        let (dataset, _) = generate(&GeneratorConfig::small(size, 7));
        let a = run(sel, &dataset, chain_seed, threads);
        let b = run(sel, &dataset, chain_seed, threads);
        assert_same(&a, &b)?;
    }
}
