//! Chaos suite for the executor's fault-tolerance layer.
//!
//! Properties pinned here, over the production stage chains:
//!
//! * **Partition** — for any seeded [`FaultPlan`], every input item ends in
//!   exactly one of retained / dropped / quarantined, and the three counts
//!   sum to the input size.
//! * **Invariance** — the faulted result (pairs, tags, dispositions,
//!   failure records, retry/quarantine/fault counters, backoff time) is
//!   identical across 1..=16 worker threads.
//! * **Transparency** — a zero-fault plan produces output byte-identical
//!   to a run with no plan configured at all, and items that survive
//!   transient faults via retries are byte-identical to the unfaulted run.
//!
//! `fault_matrix_cell` is the CI entry point: `scripts/ci.sh` runs it once
//! per `COACHLM_FAULT_SEED` to sweep the fault matrix.

use std::sync::OnceLock;
use std::time::Duration;

use coachlm::core::baselines::CleanStage;
use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::infer::CoachReviseStage;
use coachlm::core::pipeline::{run_batch, ExpertAnnotateStage};
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::Dataset;
use coachlm::expert::filter::{preliminary_filter, PreliminaryFilterStage};
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::ExpertReviser;
use coachlm::runtime::{
    ChainOutput, Disposition, Executor, ExecutorConfig, FaultPlan, RetryPolicy, Stage,
};
use proptest::prelude::*;

struct Fixtures {
    coach: CoachLm,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let (train, _) = generate(&GeneratorConfig::small(600, 0xFA11));
        let kept = preliminary_filter(&train, 0xFA11).kept;
        let records =
            ExpertReviser::new(0xFA11).revise_dataset(&ExpertPool::paper_pool(), &train, &kept);
        Fixtures {
            coach: CoachLm::train(CoachConfig::default(), &records),
        }
    })
}

/// Production chains covering the mutating, dropping, and pass-through
/// stage shapes (drops matter: the partition must separate them from
/// quarantines).
fn chain(sel: u8, f: &'static Fixtures) -> Vec<Box<dyn Stage + 'static>> {
    match sel % 3 {
        0 => vec![Box::new(CleanStage)],
        1 => vec![
            Box::new(CleanStage),
            Box::new(CoachReviseStage::new(&f.coach)),
            Box::new(ExpertAnnotateStage::new(7, true)),
        ],
        _ => vec![
            Box::new(PreliminaryFilterStage),
            Box::new(CoachReviseStage::new(&f.coach)),
        ],
    }
}

fn faulty_config(chain_seed: u64, threads: usize, plan: FaultPlan) -> ExecutorConfig {
    ExecutorConfig::new(chain_seed)
        .threads(threads)
        .fault_plan(plan)
        .retry_policy(RetryPolicy::new(3, Duration::from_millis(10)))
}

fn run_chaos(
    sel: u8,
    dataset: &Dataset,
    chain_seed: u64,
    threads: usize,
    plan: FaultPlan,
) -> ChainOutput {
    let stages = chain(sel, fixtures());
    Executor::new(faulty_config(chain_seed, threads, plan)).run_dataset(&stages, dataset)
}

/// The partition property: counting by disposition covers every input item
/// exactly once, report tallies agree with item state, and quarantined
/// items carry coherent failure records.
fn assert_partition(out: &ChainOutput, input_len: usize) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(out.items.len(), input_len);
    let retained = out.retained().count();
    let dropped = out.dropped().count();
    let quarantined = out.quarantined().count();
    prop_assert_eq!(retained + dropped + quarantined, input_len);
    for item in &out.items {
        let by_state = match item.disposition() {
            Disposition::Retained => item.retained && item.failure.is_none(),
            Disposition::Dropped => !item.retained && item.failure.is_none(),
            Disposition::Quarantined => !item.retained && item.failure.is_some(),
        };
        prop_assert!(by_state, "inconsistent terminal state for {}", item.pair.id);
    }
    prop_assert_eq!(out.total_quarantined(), quarantined);
    for item in out.quarantined() {
        let rec = item.failure.as_ref().unwrap();
        prop_assert!(rec.attempts >= 1);
        prop_assert!(!rec.error.is_empty());
        prop_assert!(item.has_tag(&format!("quarantined:{}", rec.stage)));
    }
    Ok(())
}

fn assert_same(a: &ChainOutput, b: &ChainOutput) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(a.items.len(), b.items.len());
    for (x, y) in a.items.iter().zip(&b.items) {
        prop_assert_eq!(&x.pair, &y.pair);
        prop_assert_eq!(x.retained, y.retained);
        prop_assert_eq!(&x.tags, &y.tags);
        prop_assert_eq!(&x.failure, &y.failure);
    }
    prop_assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        prop_assert_eq!(&ra.stage, &rb.stage);
        prop_assert_eq!(ra.items_in, rb.items_in);
        prop_assert_eq!(ra.items_out, rb.items_out);
        prop_assert_eq!(ra.quarantined, rb.quarantined);
        prop_assert_eq!(ra.retries, rb.retries);
        prop_assert_eq!(ra.faults_injected, rb.faults_injected);
        prop_assert_eq!(ra.backoff_time, rb.backoff_time);
        prop_assert_eq!(&ra.counters, &rb.counters);
    }
    Ok(())
}

proptest! {
    #[test]
    fn any_fault_plan_partitions_the_input(
        size in 1usize..150,
        data_seed in 0u64..500,
        chain_seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        transient in 0.0f64..0.4,
        permanent in 0.0f64..0.15,
        threads in 1usize..=16,
        sel in 0u8..3,
    ) {
        let (dataset, _) = generate(&GeneratorConfig::small(size, data_seed));
        let plan = FaultPlan::new(fault_seed)
            .transient(transient)
            .permanent(permanent)
            .latency(0.05, Duration::from_millis(2));
        let out = run_chaos(sel, &dataset, chain_seed, threads, plan);
        assert_partition(&out, dataset.len())?;
    }

    #[test]
    fn faulted_runs_replicate_across_threads_and_schedules(
        size in 1usize..120,
        data_seed in 0u64..500,
        chain_seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        threads in 2usize..=16,
        sel in 0u8..3,
    ) {
        let (dataset, _) = generate(&GeneratorConfig::small(size, data_seed));
        let plan = FaultPlan::new(fault_seed)
            .transient(0.25)
            .permanent(0.05);
        let baseline = run_chaos(sel, &dataset, chain_seed, 1, plan.clone());
        let run = run_chaos(sel, &dataset, chain_seed, threads, plan);
        assert_same(&run, &baseline)?;
    }

    #[test]
    fn zero_fault_plan_is_transparent(
        size in 1usize..120,
        data_seed in 0u64..500,
        chain_seed in 0u64..10_000,
        threads in 1usize..=8,
        sel in 0u8..3,
    ) {
        let (dataset, _) = generate(&GeneratorConfig::small(size, data_seed));
        // A configured-but-inert plan and retry policy must not perturb the
        // run relative to a default config (no plan at all).
        let stages = chain(sel, fixtures());
        let plain = Executor::new(ExecutorConfig::new(chain_seed).threads(threads))
            .run_dataset(&stages, &dataset);
        let inert = run_chaos(sel, &dataset, chain_seed, threads, FaultPlan::new(9));
        assert_same(&inert, &plain)?;
        prop_assert_eq!(inert.total_retries(), 0);
        prop_assert_eq!(inert.total_quarantined(), 0);
    }

    #[test]
    fn transient_survivors_match_the_clean_run(
        size in 1usize..100,
        data_seed in 0u64..500,
        chain_seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        sel in 0u8..3,
    ) {
        let (dataset, _) = generate(&GeneratorConfig::small(size, data_seed));
        // Transient-only plan: every non-quarantined item retried its way
        // through, and must end up exactly as in the unfaulted run (stage
        // RNG is keyed per (stage, item), not per attempt).
        let plan = FaultPlan::new(fault_seed).transient(0.3);
        let faulted = run_chaos(sel, &dataset, chain_seed, 4, plan);
        let stages = chain(sel, fixtures());
        let clean = Executor::new(ExecutorConfig::new(chain_seed).threads(4))
            .run_dataset(&stages, &dataset);
        for (f, c) in faulted.items.iter().zip(&clean.items) {
            if f.failure.is_none() {
                prop_assert_eq!(&f.pair, &c.pair);
                prop_assert_eq!(f.retained, c.retained);
            }
        }
    }
}

#[test]
fn pipeline_reports_degraded_throughput_under_faults() {
    let f = fixtures();
    let (raw, _) = generate(&GeneratorConfig::small(400, 91));
    let healthy = run_batch(Some(&f.coach), &raw, &ExecutorConfig::new(5).threads(4)).unwrap();
    let degraded = run_batch(
        Some(&f.coach),
        &raw,
        &faulty_config(5, 4, FaultPlan::new(17).transient(0.2).permanent(0.04)),
    )
    .unwrap();
    assert_eq!(healthy.quarantined, 0);
    assert!(degraded.quarantined > 0, "permanent faults must quarantine");
    assert!(degraded.retries > 0, "transient faults must retry");
    assert_eq!(
        degraded.output.len() + degraded.dropped + degraded.quarantined,
        raw.len(),
        "pipeline accounting must cover every raw pair"
    );
    assert!(degraded.output.len() < healthy.output.len());
}

/// One cell of the CI fault matrix: `COACHLM_FAULT_SEED` picks the plan
/// seed (11 when unset; a value that does not parse fails the cell); the
/// cell checks the partition and thread-invariance properties at a fixed,
/// CI-sized workload.
#[test]
fn fault_matrix_cell() {
    let fault_seed: u64 = match std::env::var("COACHLM_FAULT_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("COACHLM_FAULT_SEED must be a u64, got {v:?}")),
        Err(_) => 11,
    };
    let (dataset, _) = generate(&GeneratorConfig::small(250, 0xCE11));
    let plan = FaultPlan::new(fault_seed)
        .transient(0.2)
        .permanent(0.05)
        .latency(0.1, Duration::from_millis(1));
    for sel in 0u8..3 {
        let baseline = run_chaos(sel, &dataset, 0xC1, 1, plan.clone());
        assert_partition(&baseline, dataset.len()).unwrap();
        for threads in [2, 8] {
            let run = run_chaos(sel, &dataset, 0xC1, threads, plan.clone());
            assert_same(&run, &baseline).unwrap();
        }
    }
}
