//! The instruction-tuning simulator.
//!
//! Table IX's causal claim is: *training-set quality and coverage determine
//! a tuned model's instruction-following ability*. This module implements
//! exactly that map. "Fine-tuning" a student derives a per-category skill
//! from the training dataset:
//!
//! ```text
//! skill(c) = base + gain · mean_quality(c) · sat(n_c / half) − penalty · low_quality_frac(c) + bonus
//! ```
//!
//! where quality is *measured* by the criteria engine from the pair text
//! (never from generator labels), `sat(x) = x/(1+x)` captures diminishing
//! returns in coverage, and the low-quality penalty encodes the finding the
//! paper leans on throughout (§II-F2): bad pairs actively hurt alignment.
//! Response generation then composes text whose measurable quality tracks
//! the category skill — closing the loop for the PandaLM/GPT-4 judges.

use coachlm_data::category::Category;
use coachlm_data::compose::{compose_response, ComposeSpec};
use coachlm_data::pair::Dataset;
use coachlm_data::testsets::TestItem;
use coachlm_judge::criteria::CriteriaEngine;
use coachlm_text::fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Parameters of the quality→skill map. Defaults are calibrated against
/// Table IX's baseline group (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SkillParams {
    /// Backbone contribution of a 7B LLaMA full fine-tune.
    pub base: f64,
    /// Maximum data-driven gain.
    pub gain: f64,
    /// Category pair-count at which the coverage term is half-saturated.
    pub coverage_half: f64,
    /// Penalty weight on the low-quality fraction.
    pub low_quality_penalty: f64,
    /// Additive bonus (hyper-parameter optimisation, RL stages, scale).
    pub bonus: f64,
}

impl Default for SkillParams {
    fn default() -> Self {
        Self {
            base: 0.375,
            gain: 0.55,
            coverage_half: 60.0,
            low_quality_penalty: 0.30,
            bonus: 0.0,
        }
    }
}

/// Quality score (0–1) below which a pair counts as low quality.
const LOW_QUALITY_BAR: f64 = 0.75;

/// A tuned (or profiled) student model.
#[derive(Debug, Clone, Serialize)]
pub struct StudentModel {
    /// Display name (Table IX row).
    pub name: String,
    skill: FxHashMap<Category, f64>,
    global_skill: f64,
    noise: f64,
    seed: u64,
}

/// Tunes a student on `dataset` (measured quality → skill).
pub fn tune_student(
    name: impl Into<String>,
    dataset: &Dataset,
    params: SkillParams,
    seed: u64,
) -> StudentModel {
    let engine = CriteriaEngine::new();
    let mut per_cat: FxHashMap<Category, Vec<f64>> = FxHashMap::default();
    for p in dataset.iter() {
        let q = engine.score_pair(&p.instruction, &p.response).response / 100.0;
        per_cat.entry(p.category).or_default().push(q);
    }
    let mut skill = FxHashMap::default();
    let mut all: Vec<f64> = Vec::with_capacity(dataset.len());
    // `all` feeds a float reduction in `skill_from`, so hash-map visit
    // order would leak into the global skill — fix the order by category.
    // lint: allow(D3, reason = "entries are collected and sorted by category before the float reduction")
    let mut by_cat: Vec<(&Category, &Vec<f64>)> = per_cat.iter().collect();
    by_cat.sort_by_key(|(cat, _)| **cat);
    for (cat, qs) in by_cat {
        skill.insert(*cat, skill_from(qs, &params));
        all.extend_from_slice(qs);
    }
    let global_skill = skill_from(&all, &params);
    StudentModel {
        name: name.into(),
        skill,
        global_skill,
        noise: 0.06,
        seed,
    }
}

/// Builds a fixed-profile student (the "stronger LLMs" group and Vicuna,
/// which are not tuned on our datasets). `skill` is the uniform skill
/// level; small per-category jitter keeps responses from being identical
/// across categories.
pub fn profile_student(name: impl Into<String>, skill: f64, seed: u64) -> StudentModel {
    let name = name.into();
    let mut map = FxHashMap::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    for cat in Category::all() {
        map.insert(cat, (skill + rng.gen_range(-0.02f64..0.02)).clamp(0.0, 1.0));
    }
    StudentModel {
        name,
        skill: map,
        global_skill: skill,
        noise: 0.06,
        seed,
    }
}

fn skill_from(qs: &[f64], params: &SkillParams) -> f64 {
    if qs.is_empty() {
        return (params.base + params.bonus).clamp(0.0, 1.0);
    }
    let n = qs.len() as f64;
    let mq = qs.iter().sum::<f64>() / n;
    let lq = qs.iter().filter(|&&q| q < LOW_QUALITY_BAR).count() as f64 / n;
    let sat = n / (n + params.coverage_half);
    (params.base + params.gain * mq * sat - params.low_quality_penalty * lq + params.bonus)
        .clamp(0.0, 1.0)
}

impl StudentModel {
    /// Skill for a category (global fallback for unseen categories).
    pub fn skill(&self, cat: Category) -> f64 {
        self.skill.get(&cat).copied().unwrap_or(self.global_skill)
    }

    /// Dataset-wide skill.
    pub fn global_skill(&self) -> f64 {
        self.global_skill
    }

    /// Generates a response to a test item. Deterministic per (model seed,
    /// item id).
    pub fn respond(&self, item: &TestItem) -> String {
        let s = self.skill(item.category);
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ item.id.wrapping_mul(0x94D0_49BB_1331_11EB));
        let q = (s + gaussian(&mut rng) * self.noise).clamp(0.0, 1.0);
        let spec = ComposeSpec::sampled(q, &mut rng);
        compose_response(&mut rng, item.topic, spec)
    }
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::generator::{generate, GeneratorConfig};
    use coachlm_data::testsets::{TestSet, TestSetKind};

    #[test]
    fn better_dataset_better_skill() {
        let (d, prov) = generate(&GeneratorConfig::small(2000, 1));
        // A "revised" stand-in: keep only rich pairs' text quality by
        // duplicating rich pairs over the whole id space.
        let rich_ids: Vec<u64> = prov
            .iter()
            .filter(|p| p.tier == coachlm_data::generator::Tier::Rich)
            .map(|p| p.id)
            .collect();
        let mut rich = Dataset::new("rich-only");
        for (i, id) in rich_ids.iter().cycle().take(2000).enumerate() {
            let mut p = d.get(*id).unwrap().clone();
            p.id = i as u64;
            rich.pairs.push(p);
        }
        let base = tune_student("base", &d, SkillParams::default(), 3);
        let better = tune_student("better", &rich, SkillParams::default(), 3);
        assert!(better.global_skill() > base.global_skill() + 0.05);
    }

    #[test]
    fn coverage_saturates() {
        let (d, _) = generate(&GeneratorConfig::small(4000, 2));
        let mut small = Dataset::new("small");
        small.pairs = d.pairs[..400].to_vec();
        let full = tune_student("full", &d, SkillParams::default(), 3);
        let tiny = tune_student("tiny", &small, SkillParams::default(), 3);
        assert!(full.global_skill() > tiny.global_skill());
        // But not 10× better: diminishing returns.
        assert!(full.global_skill() - tiny.global_skill() < 0.2);
    }

    #[test]
    fn bonus_raises_skill() {
        let (d, _) = generate(&GeneratorConfig::small(800, 3));
        let plain = tune_student("p", &d, SkillParams::default(), 3);
        let tuned = tune_student(
            "t",
            &d,
            SkillParams {
                bonus: 0.05,
                ..Default::default()
            },
            3,
        );
        assert!((tuned.global_skill() - plain.global_skill() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn profile_student_has_uniform_skill() {
        let m = profile_student("llama2", 0.8, 7);
        assert_eq!(m.global_skill(), 0.8);
        for cat in Category::all() {
            assert!((m.skill(cat) - 0.8).abs() < 0.03);
        }
    }

    #[test]
    fn responses_track_skill() {
        let ts = TestSet::build(TestSetKind::CoachLm150, 5);
        let weak = profile_student("weak", 0.35, 1);
        let strong = profile_student("strong", 0.9, 1);
        let engine = CriteriaEngine::new();
        let avg = |m: &StudentModel| {
            ts.items
                .iter()
                .map(|i| engine.score_pair(&i.instruction, &m.respond(i)).response)
                .sum::<f64>()
                / ts.len() as f64
        };
        let w = avg(&weak);
        let s = avg(&strong);
        assert!(s > w + 8.0, "weak {w:.1} strong {s:.1}");
    }

    #[test]
    fn responses_are_on_topic_and_deterministic() {
        let ts = TestSet::build(TestSetKind::Vicuna80, 6);
        let m = profile_student("m", 0.7, 2);
        for item in ts.items.iter().take(20) {
            let r1 = m.respond(item);
            let r2 = m.respond(item);
            assert_eq!(r1, r2);
            assert!(!coachlm_text::lexicon::is_off_topic(&item.instruction, &r1));
        }
    }

    #[test]
    fn empty_dataset_gives_base_skill() {
        let d = Dataset::new("empty");
        let m = tune_student("e", &d, SkillParams::default(), 1);
        assert!((m.global_skill() - SkillParams::default().base).abs() < 1e-9);
    }
}
