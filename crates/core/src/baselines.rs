//! Baseline dataset builders and the Table IX model roster.
//!
//! Each Alpaca-variant row of Table IX differs only in its training
//! dataset (plus, for Alpaca-PandaLM, tuned hyper-parameters); the stronger
//! group and Vicuna are fixed capability profiles because they are not
//! trained on our data. Dataset builders:
//!
//! * **Alpaca** — the original (synthetic) ALPACA52K.
//! * **Alpaca-cleaned** — rule-based surface cleaning only: invalid
//!   characters, repeated strings, leaked templates. Deeper deficiencies
//!   (irrelevance, thin answers, fact errors) are untouched — exactly the
//!   limitation §II-A(1) ascribes to the project.
//! * **AlpaGasus** — keeps only pairs the ChatGPT rater scores above 4.5
//!   (the paper reports 9k of 52k), discarding the rest.
//! * **Alpaca-human** — the expert-revised subset merged back (§III-C).
//! * **Alpaca-CoachLM** — the CoachLM-revised dataset from [`crate::infer`].

use crate::student::{profile_student, tune_student, SkillParams, StudentModel};
use coachlm_data::pair::Dataset;
use coachlm_expert::revision::RevisionRecord;
use coachlm_judge::chatgpt::ChatGptRater;
use coachlm_runtime::{Executor, ExecutorConfig, Stage, StageCtx, StageItem, StageOutcome};
use coachlm_text::clean;
use coachlm_text::fxhash::FxHashMap;
use serde::Serialize;

/// Surface-level rule cleaning as a stage: invalid characters stripped from
/// instructions; responses cleaned and rid of leaked template prefixes.
pub struct CleanStage;

impl CleanStage {
    /// The stage's report name.
    pub const NAME: &'static str = "clean";
}

impl Stage for CleanStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let mut response = clean::clean_output(&item.pair.response);
        // Strip leaked template prefixes (the "inconsistent formats" class).
        for marker in ["### Response:", "### Instruction:"] {
            if let Some(stripped) = response.strip_prefix(marker) {
                response = stripped.trim_start().to_string();
            }
        }
        let instruction = clean::strip_invalid_chars(&item.pair.instruction);
        if response != item.pair.response {
            ctx.bump("response-cleaned");
        }
        if instruction != item.pair.instruction {
            ctx.bump("instruction-cleaned");
        }
        item.pair.response = response;
        item.pair.instruction = instruction;
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // In-process string surgery: generous, so a platform-wide latency
        // storm aimed at the LLM stages doesn't also time this out — it
        // exists only to bound a genuine hang.
        Some(std::time::Duration::from_secs(30))
    }
}

/// Builds the Alpaca-cleaned dataset: surface-level rule cleaning only.
pub fn build_cleaned(original: &Dataset) -> Dataset {
    // Cleaning draws no randomness, so the seed is arbitrary.
    let stages: Vec<Box<dyn Stage>> = vec![Box::new(CleanStage)];
    Executor::new(ExecutorConfig::new(0))
        .run(&stages, &original.pairs)
        .into_dataset(format!("{}-cleaned", original.name))
}

/// AlpaGasus filtering as a stage: discard every pair the ChatGPT rater
/// scores at or below the threshold.
pub struct AlpaGasusStage<'a> {
    rater: &'a ChatGptRater,
    threshold: f64,
}

impl<'a> AlpaGasusStage<'a> {
    /// The stage's report name.
    pub const NAME: &'static str = "alpagasus-filter";

    /// A stage keeping pairs rated strictly above `threshold`.
    pub fn new(rater: &'a ChatGptRater, threshold: f64) -> Self {
        AlpaGasusStage { rater, threshold }
    }
}

impl Stage for AlpaGasusStage<'_> {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let score = self
            .rater
            .rate(item.pair.id, &item.pair.instruction, &item.pair.response);
        if score > self.threshold {
            ctx.bump("kept");
        } else {
            item.discard("alpagasus:low-rated");
            ctx.bump("dropped");
        }
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // Modelled LLM-judge call: the per-request budget the platform
        // would grant a real ChatGPT rating before retrying.
        Some(std::time::Duration::from_secs(5))
    }
}

/// Builds the AlpaGasus dataset: pairs rated above `threshold` (paper: 4.5)
/// by the ChatGPT rater.
pub fn build_alpagasus(original: &Dataset, rater: &ChatGptRater, threshold: f64) -> Dataset {
    let stages: Vec<Box<dyn Stage + '_>> = vec![Box::new(AlpaGasusStage::new(rater, threshold))];
    // The rater derives all randomness from pair ids, so the seed is unused.
    Executor::new(ExecutorConfig::new(0))
        .run(&stages, &original.pairs)
        .into_dataset(format!("{}-alpagasus", original.name))
}

/// The §III-C human-merge as a stage: pairs with an expert revision on file
/// are replaced by the revised text.
pub struct HumanMergeStage {
    revised: FxHashMap<u64, coachlm_data::pair::InstructionPair>,
}

impl HumanMergeStage {
    /// The stage's report name.
    pub const NAME: &'static str = "human-merge";

    /// A stage merging the first `take` records (later records win on
    /// duplicate ids, matching sequential merge order).
    pub fn new(records: &[&RevisionRecord], take: usize) -> Self {
        HumanMergeStage {
            revised: records
                .iter()
                .take(take)
                .map(|rec| (rec.id, rec.revised.clone()))
                .collect(),
        }
    }
}

impl Stage for HumanMergeStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        if let Some(revised) = self.revised.get(&item.pair.id) {
            item.pair = revised.clone();
            ctx.bump("merged");
        }
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // A map lookup plus a clone.
        Some(std::time::Duration::from_secs(2))
    }
}

/// Builds the Alpaca-human dataset: expert-revised pairs merged back into
/// the original (§III-C). `take` limits how many records are merged, in
/// the given order (used by the Fig 5b sweep); pass `usize::MAX` for all.
pub fn build_human_merged(original: &Dataset, records: &[&RevisionRecord], take: usize) -> Dataset {
    let stages: Vec<Box<dyn Stage>> = vec![Box::new(HumanMergeStage::new(records, take))];
    Executor::new(ExecutorConfig::new(0))
        .run(&stages, &original.pairs)
        .into_dataset(format!("{}-human", original.name))
}

/// Model group in Table IX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ModelGroup {
    /// Larger / RL-tuned / proprietary-data models.
    Stronger,
    /// 7B instruction-tuned LLaMA variants.
    Baseline,
}

/// Tuning type label (Table IX's "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TuneType {
    /// Instruction-tuned.
    ITuned,
    /// RL-tuned on top of instruction tuning.
    RlTuned,
}

impl TuneType {
    /// Table IX label.
    pub fn label(self) -> &'static str {
        match self {
            TuneType::ITuned => "I-tuned",
            TuneType::RlTuned => "RL-tuned",
        }
    }
}

/// One Table IX row: metadata + the instantiated model.
#[derive(Debug, Clone, Serialize)]
pub struct RosterEntry {
    /// Model display name.
    pub name: &'static str,
    /// Parameter count label ("7B"/"13B"/"6B").
    pub size: &'static str,
    /// Tuning type.
    pub tune_type: TuneType,
    /// Group.
    pub group: ModelGroup,
    /// The model.
    pub model: StudentModel,
}

/// Fixed capability profiles for models not tuned on our datasets,
/// calibrated once against Table IX's CoachLM150 column (EXPERIMENTS.md
/// records paper-vs-measured for all four test sets).
pub const PROFILES: &[(&str, &str, TuneType, ModelGroup, f64)] = &[
    (
        "LLaMA2-13b-chat",
        "13B",
        TuneType::RlTuned,
        ModelGroup::Stronger,
        0.80,
    ),
    (
        "Vicuna-13b",
        "13B",
        TuneType::ITuned,
        ModelGroup::Stronger,
        0.735,
    ),
    (
        "LLaMA2-7b-chat",
        "7B",
        TuneType::RlTuned,
        ModelGroup::Stronger,
        0.77,
    ),
    (
        "ChatGLM",
        "6B",
        TuneType::RlTuned,
        ModelGroup::Stronger,
        0.72,
    ),
    (
        "ChatGLM2",
        "6B",
        TuneType::RlTuned,
        ModelGroup::Stronger,
        0.69,
    ),
    (
        "Vicuna-7b",
        "7B",
        TuneType::ITuned,
        ModelGroup::Baseline,
        0.75,
    ),
];

/// Datasets needed to build the tuned rows.
#[derive(Debug)]
pub struct RosterDatasets<'d> {
    /// The original ALPACA52K stand-in.
    pub original: &'d Dataset,
    /// Alpaca-cleaned.
    pub cleaned: &'d Dataset,
    /// AlpaGasus-filtered.
    pub alpagasus: &'d Dataset,
    /// Alpaca-human (fully merged).
    pub human: &'d Dataset,
    /// CoachLM-revised.
    pub coachlm: &'d Dataset,
}

/// The Alpaca-PandaLM hyper-parameter-optimisation bonus (it trains on the
/// same data as Alpaca but with searched hyper-parameters, §V-A).
pub const PANDALM_OPT_BONUS: f64 = 0.055;

/// Builds every Table IX row.
pub fn build_roster(datasets: &RosterDatasets<'_>, seed: u64) -> Vec<RosterEntry> {
    let p = SkillParams::default();
    // All tuned students share one response-noise seed: model identity must
    // matter only through the training dataset, and the per-item noise draws
    // become paired across models (same item, same draw).
    let tuned = |name: &'static str, d: &Dataset, bonus: f64| {
        tune_student(name, d, SkillParams { bonus, ..p }, seed ^ 0x7D)
    };
    let mut roster: Vec<RosterEntry> = PROFILES
        .iter()
        .map(|&(name, size, tt, group, skill)| RosterEntry {
            name,
            size,
            tune_type: tt,
            group,
            model: profile_student(name, skill, seed ^ fxhash_str(name)),
        })
        .collect();
    let baselines: [(&'static str, &Dataset, f64); 6] = [
        ("Alpaca", datasets.original, 0.0),
        ("Alpaca-cleaned", datasets.cleaned, 0.0),
        ("Alpaca-PandaLM", datasets.original, PANDALM_OPT_BONUS),
        ("AlpaGasus", datasets.alpagasus, 0.0),
        ("Alpaca-human", datasets.human, 0.0),
        ("Alpaca-CoachLM", datasets.coachlm, 0.0),
    ];
    for (name, d, bonus) in baselines {
        roster.push(RosterEntry {
            name,
            size: "7B",
            tune_type: TuneType::ITuned,
            group: ModelGroup::Baseline,
            model: tuned(name, d, bonus),
        });
    }
    roster
}

fn fxhash_str(s: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = coachlm_text::fxhash::FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::generator::{generate, GeneratorConfig};

    #[test]
    fn cleaned_fixes_surface_only() {
        let (d, _) = generate(&GeneratorConfig::small(1500, 2));
        let cleaned = build_cleaned(&d);
        assert_eq!(cleaned.len(), d.len());
        // No response keeps a template-leak prefix or invalid chars.
        for p in cleaned.iter() {
            assert!(!p.response.starts_with("### Response:"));
            assert!(!p.response.contains('\u{0}'));
        }
        // Deeper problems survive: thin responses are still thin.
        let engine = coachlm_judge::criteria::CriteriaEngine::new();
        let thin = cleaned
            .iter()
            .filter(|p| engine.analyze_response(&p.instruction, &p.response).thin)
            .count();
        assert!(thin > 0, "surface cleaning must not fix thin responses");
    }

    #[test]
    fn alpagasus_keeps_high_rated_fraction() {
        let (d, _) = generate(&GeneratorConfig::small(3000, 3));
        let rater = ChatGptRater::new(5);
        let filtered = build_alpagasus(&d, &rater, 4.5);
        let share = filtered.len() as f64 / d.len() as f64;
        // Paper: ~17.7% (9k of 52k).
        assert!((0.10..0.28).contains(&share), "share {share}");
        // Every kept pair really rates above threshold.
        for p in filtered.iter().take(50) {
            assert!(rater.rate(p.id, &p.instruction, &p.response) > 4.5);
        }
    }

    #[test]
    fn alpagasus_underserves_code_categories() {
        let (d, _) = generate(&GeneratorConfig::small(8000, 4));
        let rater = ChatGptRater::new(5);
        let filtered = build_alpagasus(&d, &rater, 4.5);
        let code_share = |ds: &Dataset| {
            ds.iter().filter(|p| p.category.is_code()).count() as f64 / ds.len() as f64
        };
        assert!(
            code_share(&filtered) < code_share(&d) * 0.8,
            "filtered {:.3} vs original {:.3}",
            code_share(&filtered),
            code_share(&d)
        );
    }

    #[test]
    fn human_merge_replaces_by_id() {
        let (d, _) = generate(&GeneratorConfig::small(300, 5));
        let kept = coachlm_expert::filter::preliminary_filter(&d, 1).kept;
        let records = coachlm_expert::revision::ExpertReviser::new(1).revise_dataset(
            &coachlm_expert::pool::ExpertPool::paper_pool(),
            &d,
            &kept,
        );
        let refs: Vec<&RevisionRecord> = records.iter().collect();
        let merged = build_human_merged(&d, &refs, usize::MAX);
        assert_eq!(merged.len(), d.len());
        for rec in &records {
            assert_eq!(merged.get(rec.id).unwrap().response, rec.revised.response);
        }
        // Partial merge only replaces the prefix.
        let partial = build_human_merged(&d, &refs, 1);
        let replaced = records
            .iter()
            .filter(|r| partial.get(r.id).unwrap().response == r.revised.response)
            .count();
        assert_eq!(replaced, 1);
    }

    #[test]
    fn roster_has_all_table9_rows() {
        let (d, _) = generate(&GeneratorConfig::small(600, 6));
        let cleaned = build_cleaned(&d);
        let rater = ChatGptRater::new(1);
        let alpagasus = build_alpagasus(&d, &rater, 4.5);
        let roster = build_roster(
            &RosterDatasets {
                original: &d,
                cleaned: &cleaned,
                alpagasus: &alpagasus,
                human: &d,
                coachlm: &d,
            },
            9,
        );
        assert_eq!(roster.len(), 12);
        let names: Vec<&str> = roster.iter().map(|r| r.name).collect();
        for expect in [
            "LLaMA2-13b-chat",
            "Vicuna-13b",
            "LLaMA2-7b-chat",
            "ChatGLM",
            "ChatGLM2",
            "Vicuna-7b",
            "Alpaca",
            "Alpaca-cleaned",
            "Alpaca-PandaLM",
            "AlpaGasus",
            "Alpaca-human",
            "Alpaca-CoachLM",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        assert_eq!(
            roster
                .iter()
                .filter(|r| r.group == ModelGroup::Stronger)
                .count(),
            5
        );
    }
}
