//! The preliminary filter (§II-E1, Table III).
//!
//! Before primary revision, group-A experts excluded 1088 of the 6k sampled
//! pairs for five reasons. The filter here detects each reason from the
//! text (placeholder inputs, professional-domain markers, massive-workload
//! phrasing, multimodal references, toxic requests). Matching the paper, a
//! small share of matched pairs is deliberately *retained* "to ensure
//! diversity of revision".

use coachlm_data::pair::Dataset;
use coachlm_runtime::{Executor, ExecutorConfig, Stage, StageCtx, StageItem, StageOutcome};
use coachlm_text::lexicon;
use rand::Rng;
use serde::Serialize;

/// The Table III exclusion reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FilterReason {
    /// The key content of the instruction is invalid (41.7 %).
    InvalidInput,
    /// Overly professional scene (27.7 %).
    BeyondExpertise,
    /// Massive rewriting workload (8.2 %).
    MassiveWorkload,
    /// Unsupported image/video/audio (6.5 %).
    MultiModal,
    /// Overly toxic/copyrighted/sensitive (15.9 %).
    Safety,
}

impl FilterReason {
    /// All reasons in Table III order.
    pub const ALL: [FilterReason; 5] = [
        FilterReason::InvalidInput,
        FilterReason::BeyondExpertise,
        FilterReason::MassiveWorkload,
        FilterReason::MultiModal,
        FilterReason::Safety,
    ];

    /// Table III row label.
    pub fn label(self) -> &'static str {
        match self {
            FilterReason::InvalidInput => "Invalid Input",
            FilterReason::BeyondExpertise => "Beyond Expertise",
            FilterReason::MassiveWorkload => "Massive Workload",
            FilterReason::MultiModal => "Multi-modal",
            FilterReason::Safety => "Safety",
        }
    }

    /// Table III reported ratio among excluded pairs.
    pub fn paper_ratio(self) -> f64 {
        match self {
            FilterReason::InvalidInput => 0.417,
            FilterReason::BeyondExpertise => 0.277,
            FilterReason::MassiveWorkload => 0.082,
            FilterReason::MultiModal => 0.065,
            FilterReason::Safety => 0.159,
        }
    }

    /// The reason whose [`label`](Self::label) is `label`, if any.
    pub fn from_label(label: &str) -> Option<FilterReason> {
        FilterReason::ALL.into_iter().find(|r| r.label() == label)
    }
}

/// Detects whether a pair should be excluded, and why.
pub fn detect_reason(instruction: &str, response: &str) -> Option<FilterReason> {
    // Order matters: safety trumps everything, then structural problems.
    if lexicon::contains_marker(instruction, lexicon::UNSAFE_MARKERS) {
        return Some(FilterReason::Safety);
    }
    if lexicon::contains_marker(instruction, lexicon::MULTIMODAL_MARKERS) {
        return Some(FilterReason::MultiModal);
    }
    if lexicon::contains_marker(instruction, lexicon::INVALID_INPUT_MARKERS) {
        return Some(FilterReason::InvalidInput);
    }
    if lexicon::contains_marker(instruction, lexicon::EXPERTISE_MARKERS) {
        return Some(FilterReason::BeyondExpertise);
    }
    if lexicon::contains_marker(instruction, lexicon::WORKLOAD_MARKERS) {
        return Some(FilterReason::MassiveWorkload);
    }
    let _ = response; // reasons are instruction-side in Table III
    None
}

/// Outcome of the preliminary filter over a dataset.
#[derive(Debug, Clone, Serialize)]
pub struct FilterOutcome {
    /// Ids that proceed to primary revision.
    pub kept: Vec<u64>,
    /// Excluded ids with their reasons.
    pub excluded: Vec<(u64, FilterReason)>,
    /// Matched-but-retained ids (the diversity exception).
    pub retained_for_diversity: Vec<(u64, FilterReason)>,
}

impl FilterOutcome {
    /// Exclusion ratio.
    pub fn exclusion_ratio(&self) -> f64 {
        let total = self.kept.len() + self.excluded.len();
        if total == 0 {
            0.0
        } else {
            self.excluded.len() as f64 / total as f64
        }
    }

    /// Share of each reason among exclusions (Table III's Ratio column).
    pub fn reason_ratios(&self) -> Vec<(FilterReason, f64)> {
        let n = self.excluded.len().max(1) as f64;
        FilterReason::ALL
            .iter()
            .map(|&r| {
                let c = self
                    .excluded
                    .iter()
                    .filter(|(_, reason)| *reason == r)
                    .count();
                (r, c as f64 / n)
            })
            .collect()
    }
}

/// Share of matched pairs retained anyway (§II-E1 "a small proportion of
/// such pairs were retained during the revision to ensure diversity").
const DIVERSITY_RETENTION: f64 = 0.04;

/// The preliminary filter as an executor stage. Matched pairs are discarded
/// with a `filter:<reason>` tag, except the per-item diversity draw, which
/// keeps them with a `retained:<reason>` tag.
pub struct PreliminaryFilterStage;

impl PreliminaryFilterStage {
    /// The stage's report name.
    pub const NAME: &'static str = "preliminary-filter";
}

impl Stage for PreliminaryFilterStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let Some(reason) = detect_reason(&item.pair.instruction, &item.pair.response) else {
            return StageOutcome::Ok;
        };
        if ctx.rng.gen_bool(DIVERSITY_RETENTION) {
            item.tag(format!("retained:{}", reason.label()));
            ctx.bump(&format!("retained:{}", reason.label()));
        } else {
            item.discard(format!("filter:{}", reason.label()));
            ctx.bump(&format!("excluded:{}", reason.label()));
        }
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // Heuristic string matching only.
        Some(std::time::Duration::from_secs(2))
    }
}

/// Runs the preliminary filter over a dataset on the shared executor.
pub fn preliminary_filter(dataset: &Dataset, seed: u64) -> FilterOutcome {
    let stages: Vec<Box<dyn Stage>> = vec![Box::new(PreliminaryFilterStage)];
    let run = Executor::new(ExecutorConfig::new(seed)).run(&stages, &dataset.pairs);
    let mut out = FilterOutcome {
        kept: Vec::with_capacity(dataset.len()),
        excluded: Vec::new(),
        retained_for_diversity: Vec::new(),
    };
    for item in &run.items {
        match item.tags.first() {
            Some(tag) if item.retained => {
                let reason = tag
                    .strip_prefix("retained:")
                    .and_then(FilterReason::from_label)
                    // lint: allow(P1, reason = "tag was written by FilterStage itself in this same run as `retained:<label>`; round-trip is stage-internal, not user data")
                    .expect("retained items carry a reason tag");
                out.retained_for_diversity.push((item.pair.id, reason));
                out.kept.push(item.pair.id);
            }
            Some(tag) => {
                let reason = tag
                    .strip_prefix("filter:")
                    .and_then(FilterReason::from_label)
                    // lint: allow(P1, reason = "tag was written by FilterStage itself in this same run as `filter:<label>`; round-trip is stage-internal, not user data")
                    .expect("discarded items carry a reason tag");
                out.excluded.push((item.pair.id, reason));
            }
            None => out.kept.push(item.pair.id),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::generator::{generate, GeneratorConfig, Tier};

    #[test]
    fn detects_each_reason() {
        assert_eq!(
            detect_reason("Title this. Input: [Link to an article]", "x"),
            Some(FilterReason::InvalidInput)
        );
        assert_eq!(
            detect_reason("Provide the chords for this melody", "x"),
            Some(FilterReason::BeyondExpertise)
        );
        assert_eq!(
            detect_reason("Please rewrite the entire lyrics of the song", "x"),
            Some(FilterReason::MassiveWorkload)
        );
        assert_eq!(
            detect_reason("List the products. Input: (photo of a store)", "x"),
            Some(FilterReason::MultiModal)
        );
        assert_eq!(
            detect_reason("Explain how to avoid paying the fine illegally", "x"),
            Some(FilterReason::Safety)
        );
        assert_eq!(
            detect_reason("Explain the water cycle", "water moves"),
            None
        );
    }

    #[test]
    fn filter_matches_generator_provenance() {
        let (d, prov) = generate(&GeneratorConfig::small(3000, 21));
        let out = preliminary_filter(&d, 9);
        // Every excluded id must be a Filterable-tier pair.
        for (id, _) in &out.excluded {
            let p = &prov[*id as usize];
            assert_eq!(
                p.tier,
                Tier::Filterable,
                "excluded a non-filterable pair {id}"
            );
        }
        // Almost all filterable pairs are excluded (up to diversity retention).
        let filterable = prov.iter().filter(|p| p.tier == Tier::Filterable).count();
        let caught = out.excluded.len() + out.retained_for_diversity.len();
        assert_eq!(caught, filterable);
    }

    #[test]
    fn exclusion_ratio_near_paper() {
        let (d, _) = generate(&GeneratorConfig::small(6000, 33));
        let out = preliminary_filter(&d, 1);
        let ratio = out.exclusion_ratio();
        // Paper: 1088/6000 = 18.1%, minus the ~4% diversity retention.
        assert!((0.14..0.22).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn reason_mix_tracks_table3() {
        let (d, _) = generate(&GeneratorConfig::small(12000, 5));
        let out = preliminary_filter(&d, 2);
        for (reason, measured) in out.reason_ratios() {
            let want = reason.paper_ratio();
            assert!(
                (measured - want).abs() < 0.05,
                "{}: measured {measured:.3} want {want:.3}",
                reason.label()
            );
        }
    }

    #[test]
    fn diversity_retention_is_small_but_nonzero() {
        let (d, _) = generate(&GeneratorConfig::small(12000, 8));
        let out = preliminary_filter(&d, 3);
        let retained = out.retained_for_diversity.len() as f64;
        let matched = retained + out.excluded.len() as f64;
        let share = retained / matched;
        assert!(share > 0.005 && share < 0.10, "share {share}");
    }

    #[test]
    fn filter_is_deterministic() {
        let (d, _) = generate(&GeneratorConfig::small(1000, 4));
        let a = preliminary_filter(&d, 7);
        let b = preliminary_filter(&d, 7);
        assert_eq!(a.kept, b.kept);
        assert_eq!(a.excluded, b.excluded);
    }
}
