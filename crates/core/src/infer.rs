//! Automatic dataset revision (§II-F3, Eq. 2) with §III-B1 post-processing.
//!
//! Every pair of the input dataset runs through CoachLM; the raw outputs
//! are cleaned (invalid characters stripped, repeated strings collapsed),
//! structurally invalid outputs are replaced with the originals, and pairs
//! that appeared in CoachLM's training subset `C_α` keep their originals to
//! avoid leakage — both replacement classes ran ≈1.3 % in the paper (the
//! paper's C_0.3 holds 690 of 52 002 pairs = 1.3 %).
//!
//! Revision is embarrassingly parallel. It is expressed as a
//! [`CoachReviseStage`] on the shared `coachlm-runtime` executor, which
//! seeds an RNG per (stage, pair) — so the result is identical to a
//! sequential run regardless of thread count, and per-stage counters and
//! timing come back in the executor's [`StageReport`].
//!
//! [`StageReport`]: coachlm_runtime::StageReport

use crate::coach::CoachLm;
use coachlm_data::pair::Dataset;
use coachlm_lm::transducer::RepairTag;
use coachlm_runtime::{
    ChainOutput, Executor, ExecutorConfig, Stage, StageCtx, StageItem, StageOutcome,
};
use coachlm_text::clean;
use coachlm_text::fxhash::{FxHashMap, FxHashSet};
use serde::Serialize;

/// A revised dataset plus post-processing accounting.
#[derive(Debug, Clone, Serialize)]
pub struct RevisedDataset {
    /// The CoachLM-revised dataset `D_c`.
    pub dataset: Dataset,
    /// Pairs replaced with originals because the output was invalid.
    pub replaced_invalid: usize,
    /// Pairs kept as originals due to training-data leakage.
    pub leakage_skipped: usize,
    /// Number of pairs whose instruction changed.
    pub instructions_changed: usize,
    /// Number of pairs whose response changed.
    pub responses_changed: usize,
    /// Repair-tag frequencies across the run.
    pub repair_counts: FxHashMap<RepairTag, usize>,
    /// Pairs quarantined by failing stages (0 outside fault-injection runs);
    /// they are absent from [`dataset`](Self::dataset).
    pub quarantined: usize,
    /// Pairs passed through unrevised because the revise stage's circuit
    /// breaker was open (0 unless the config enables a breaker). They stay
    /// in [`dataset`](Self::dataset) with their original text, like the
    /// §III-B1 leakage pairs.
    pub degraded: usize,
}

impl RevisedDataset {
    /// Reads the revision accounting out of a chain run that included a
    /// [`CoachReviseStage`], then moves every retained pair out into the
    /// dataset, named `{input}-coachlm` after the paper's `D_c`.
    pub fn from_chain(out: ChainOutput, input_name: &str) -> Self {
        let report = out
            .report(CoachReviseStage::NAME)
            // lint: allow(P1, reason = "structural invariant: every caller builds its chain with a CoachReviseStage two lines earlier; a missing report is a construction bug, not a data condition")
            .expect("chain ran a coach-revise stage");
        let mut repair_counts = FxHashMap::default();
        for tag in RepairTag::ALL {
            let n = report.counter(tag.counter_key());
            if n > 0 {
                repair_counts.insert(tag, n as usize);
            }
        }
        RevisedDataset {
            replaced_invalid: report.counter("invalid") as usize,
            leakage_skipped: report.counter("leakage") as usize,
            instructions_changed: report.counter("instruction-changed") as usize,
            responses_changed: report.counter("response-changed") as usize,
            repair_counts,
            quarantined: out.total_quarantined(),
            degraded: out.total_degraded(),
            dataset: out.into_dataset(format!("{input_name}-coachlm")),
        }
    }
}

/// The CoachLM revision step as an executor stage: revise, clean, validate;
/// invalid outputs and training-leakage pairs keep their originals.
pub struct CoachReviseStage<'a> {
    coach: &'a CoachLm,
    training_ids: FxHashSet<u64>,
}

impl<'a> CoachReviseStage<'a> {
    /// The stage's report name.
    pub const NAME: &'static str = "coach-revise";

    /// A stage revising with `coach`, skipping its training pairs.
    pub fn new(coach: &'a CoachLm) -> Self {
        CoachReviseStage {
            coach,
            training_ids: coach.trained_ids().iter().copied().collect(),
        }
    }
}

impl Stage for CoachReviseStage<'_> {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        if self.training_ids.contains(&item.pair.id) {
            item.tag("leakage");
            ctx.bump("leakage");
            return StageOutcome::Ok;
        }
        let raw = self
            .coach
            .revise_pair(&mut ctx.rng, &item.pair.instruction, &item.pair.response);
        // §III-B1 post-processing: clean, then validate; invalid → keep the
        // pair as it entered this stage.
        let instruction = clean::clean_output(&raw.instruction);
        let response = clean::clean_output(&raw.response);
        match clean::validate_pair(&instruction, &response) {
            clean::Validity::Valid => {
                if instruction != item.pair.instruction {
                    ctx.bump("instruction-changed");
                }
                if response != item.pair.response {
                    ctx.bump("response-changed");
                }
                for tag in &raw.repairs {
                    ctx.bump(tag.counter_key());
                }
                item.pair.instruction = instruction;
                item.pair.response = response;
            }
            _ => {
                item.tag("invalid");
                ctx.bump("invalid");
            }
        }
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // Modelled inference call: the per-pair generation budget the
        // deployment grants CoachLM before timing the item out.
        Some(std::time::Duration::from_secs(5))
    }

    fn service_time(&self) -> std::time::Duration {
        // Paper §IV-A: 1.19 samples/s on one A100 at batch 32 → ~840ms
        // per pair. The chain's modeled bottleneck; drives the
        // virtual-time throughput figures only.
        std::time::Duration::from_millis(840)
    }

    fn state_fingerprint(&self) -> u64 {
        self.coach.fingerprint()
    }
}

/// Revises a whole dataset (Eq. 2) on the shared executor. Pairs in
/// CoachLM's training subset keep their originals (the §III-B1 leakage
/// rule). Thread count comes from `config` and never affects the result.
pub fn revise_dataset(coach: &CoachLm, input: &Dataset, config: &ExecutorConfig) -> RevisedDataset {
    let stages: Vec<Box<dyn Stage + '_>> = vec![Box::new(CoachReviseStage::new(coach))];
    let out = Executor::new(config.clone()).run(&stages, &input.pairs);
    RevisedDataset::from_chain(out, &input.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coach::{CoachConfig, CoachLm};
    use coachlm_data::generator::{generate, GeneratorConfig};
    use coachlm_expert::filter::preliminary_filter;
    use coachlm_expert::pool::ExpertPool;
    use coachlm_expert::revision::ExpertReviser;

    fn setup(n: usize, seed: u64) -> (Dataset, CoachLm) {
        let (d, _) = generate(&GeneratorConfig::small(n, seed));
        let kept = preliminary_filter(&d, seed).kept;
        let records = ExpertReviser::new(seed).revise_dataset(&ExpertPool::paper_pool(), &d, &kept);
        let coach = CoachLm::train(CoachConfig::default(), &records);
        (d, coach)
    }

    fn config(seed: u64, threads: usize) -> ExecutorConfig {
        ExecutorConfig::new(seed).threads(threads)
    }

    #[test]
    fn revision_improves_measured_quality() {
        let (d, coach) = setup(800, 3);
        let out = revise_dataset(&coach, &d, &config(7, 4));
        assert_eq!(out.dataset.len(), d.len());
        let engine = coachlm_judge::criteria::CriteriaEngine::new();
        let avg = |ds: &Dataset| {
            ds.iter()
                .map(|p| engine.score_pair(&p.instruction, &p.response).response)
                .sum::<f64>()
                / ds.len() as f64
        };
        let before = avg(&d);
        let after = avg(&out.dataset);
        assert!(after > before + 6.0, "before {before:.1} after {after:.1}");
        assert!(after > 91.0, "after {after:.1}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let (d, coach) = setup(200, 4);
        let a = revise_dataset(&coach, &d, &config(5, 1));
        let b = revise_dataset(&coach, &d, &config(5, 8));
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.replaced_invalid, b.replaced_invalid);
        assert_eq!(a.repair_counts, b.repair_counts);
    }

    #[test]
    fn leakage_pairs_keep_originals() {
        let (d, coach) = setup(400, 5);
        let out = revise_dataset(&coach, &d, &config(9, 4));
        assert!(
            out.leakage_skipped > 0,
            "α-selected training pairs exist in the dataset"
        );
        assert_eq!(out.leakage_skipped, coach.trained_on());
        for id in coach.trained_ids() {
            assert_eq!(out.dataset.get(*id).unwrap(), d.get(*id).unwrap());
        }
    }

    #[test]
    fn invalid_replacement_rate_near_paper() {
        let (d, coach) = setup(2000, 6);
        let out = revise_dataset(&coach, &d, &config(11, 8));
        let rate = out.replaced_invalid as f64 / d.len() as f64;
        // Paper: ≈1.3 %. Allow a generous band.
        assert!((0.001..0.04).contains(&rate), "invalid rate {rate}");
    }

    #[test]
    fn most_responses_change_few_instructions_change() {
        let (d, coach) = setup(1500, 7);
        let out = revise_dataset(&coach, &d, &config(13, 8));
        let resp_share = out.responses_changed as f64 / d.len() as f64;
        let instr_share = out.instructions_changed as f64 / d.len() as f64;
        // Table VII: responses change in most pairs; instructions in ~15%
        // (8k of 52k).
        assert!(resp_share > 0.5, "resp share {resp_share}");
        assert!(
            instr_share < resp_share,
            "instr {instr_share} resp {resp_share}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (d, coach) = setup(150, 8);
        let a = revise_dataset(&coach, &d, &config(21, 4));
        let b = revise_dataset(&coach, &d, &config(21, 4));
        assert_eq!(a.dataset, b.dataset);
    }

    #[test]
    fn empty_dataset_is_fine() {
        let (_, coach) = setup(50, 9);
        let empty = Dataset::new("empty");
        let out = revise_dataset(&coach, &empty, &config(1, 4));
        assert!(out.dataset.is_empty());
    }
}
