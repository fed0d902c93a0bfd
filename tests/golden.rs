//! Golden regression tests: paper-shape numbers from a fixed-seed run,
//! compared against checked-in JSON under `results/golden/`.
//!
//! Every metric in the snapshot is deterministic (counts, shares, and
//! person-day ratios — never wall-clock), so the comparison is exact: any
//! drift in the generator, reviser, coach, rater, pipeline accounting, or
//! the executor's fault layer shows up as a diff against the golden file.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! COACHLM_BLESS=1 cargo test --test golden
//! ```

use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::infer::revise_dataset;
use coachlm::core::pipeline::compare_deployment;
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::Dataset;
use coachlm::expert::filter::preliminary_filter;
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::ExpertReviser;
use coachlm::judge::chatgpt::ChatGptRater;
use coachlm::runtime::{ExecutorConfig, FaultPlan, RetryPolicy};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Duration;

/// The snapshot. Field names are the golden file's JSON keys; adding a
/// field is a (blessed) golden change by construction.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenMetrics {
    /// Share of pairs the ChatGPT rater scores above 4.5 before revision
    /// (Table VII/VIII baseline).
    share_above_4_5_before: f64,
    /// The same share after CoachLM revision — the paper's headline uplift.
    share_above_4_5_after: f64,
    /// Pairs whose response changed under revision.
    responses_changed: usize,
    /// Pairs whose instruction changed under revision.
    instructions_changed: usize,
    /// Invalid revisions replaced with originals (§III-B1).
    replaced_invalid: usize,
    /// Training-leakage pairs kept as originals (§III-B1).
    leakage_skipped: usize,
    /// Fig 6 deployment efficiency gain (paper: net 15–20 %).
    efficiency_gain: f64,
    /// Manual-batch throughput (pairs/person-day, paper ≈80).
    manual_pairs_per_person_day: f64,
    /// Assisted-batch throughput (pairs/person-day, paper ≈100).
    assisted_pairs_per_person_day: f64,
    /// Quarantined pairs in the fixed-seed chaos batch.
    chaos_quarantined: usize,
    /// Retry attempts in the fixed-seed chaos batch.
    chaos_retries: u64,
    /// Output size of the fixed-seed chaos batch.
    chaos_output_len: usize,
}

const SEED: u64 = 0x601D;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("golden")
        .join("paper_shapes.json")
}

fn rated_share(rater: &ChatGptRater, d: &Dataset) -> f64 {
    let above = d
        .iter()
        .filter(|p| rater.rate(p.id, &p.instruction, &p.response) > 4.5)
        .count();
    above as f64 / d.len() as f64
}

fn compute_metrics() -> GoldenMetrics {
    let (train, _) = generate(&GeneratorConfig::small(2000, SEED));
    let kept = preliminary_filter(&train, SEED).kept;
    let records = ExpertReviser::new(SEED).revise_dataset(&ExpertPool::paper_pool(), &train, &kept);
    let coach = CoachLm::train(CoachConfig::default(), &records);

    let (alpaca, _) = generate(&GeneratorConfig::small(1500, SEED ^ 0xA1));
    let revised = revise_dataset(&coach, &alpaca, &ExecutorConfig::new(SEED).threads(4));
    let rater = ChatGptRater::new(SEED);

    let (raw, _) = generate(&GeneratorConfig::small(1200, SEED ^ 0xDE));
    let cmp = compare_deployment(&coach, &raw, &ExecutorConfig::new(SEED).threads(4))
        .expect("pipeline chain carries the expert-annotate stage");

    let chaos = coachlm::core::pipeline::run_batch(
        Some(&coach),
        &raw,
        &ExecutorConfig::new(SEED)
            .threads(4)
            .fault_plan(FaultPlan::new(29).transient(0.2).permanent(0.05))
            .retry_policy(RetryPolicy::new(3, Duration::from_millis(10))),
    )
    .expect("chaos batch still reports");

    GoldenMetrics {
        share_above_4_5_before: rated_share(&rater, &alpaca),
        share_above_4_5_after: rated_share(&rater, &revised.dataset),
        responses_changed: revised.responses_changed,
        instructions_changed: revised.instructions_changed,
        replaced_invalid: revised.replaced_invalid,
        leakage_skipped: revised.leakage_skipped,
        efficiency_gain: cmp.efficiency_gain(),
        manual_pairs_per_person_day: cmp.manual.pairs_per_person_day,
        assisted_pairs_per_person_day: cmp.assisted.pairs_per_person_day,
        chaos_quarantined: chaos.quarantined,
        chaos_retries: chaos.retries,
        chaos_output_len: chaos.output.len(),
    }
}

#[test]
fn metrics_match_golden_snapshot() {
    let metrics = compute_metrics();

    // The snapshot must stay inside the paper's qualitative bands even when
    // blessed, so a regeneration can't silently ratify a shape regression.
    assert!(
        metrics.share_above_4_5_after > metrics.share_above_4_5_before + 0.3,
        "revision must massively lift the >4.5 share (Table VII/VIII): {} -> {}",
        metrics.share_above_4_5_before,
        metrics.share_above_4_5_after
    );
    assert!(
        (0.08..0.45).contains(&metrics.efficiency_gain),
        "Fig 6 efficiency gain out of band: {}",
        metrics.efficiency_gain
    );
    assert!(metrics.chaos_quarantined > 0 && metrics.chaos_retries > 0);

    let path = golden_path();
    if std::env::var("COACHLM_BLESS").as_deref() == Ok("1") {
        let json = serde_json::to_string_pretty(&metrics).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run COACHLM_BLESS=1 cargo test --test golden",
            path.display()
        )
    });
    let golden: GoldenMetrics = serde_json::from_str(&text).unwrap();
    assert_eq!(
        metrics,
        golden,
        "fixed-seed metrics drifted from {}; if intentional, regenerate with COACHLM_BLESS=1",
        path.display()
    );
}
