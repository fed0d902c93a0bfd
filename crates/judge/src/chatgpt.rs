//! The AlpaGasus-style ChatGPT rater (§III-A1b, Fig 4).
//!
//! The paper prompts GPT-3.5-turbo to rate each RESPONSE's accuracy on a
//! 0–5 scale. Our stand-in maps the criteria-engine response score to the
//! same scale with a small seeded per-sample noise, quantised to the
//! half-point grid ChatGPT ratings cluster on.

use crate::criteria::CriteriaEngine;
use coachlm_data::pair::Dataset;
use coachlm_runtime::{
    Executor, ExecutorConfig, Stage, StageCtx, StageItem, StageOutcome, StageReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// The 0–5 accuracy rater.
#[derive(Debug, Clone)]
pub struct ChatGptRater {
    engine: CriteriaEngine,
    seed: u64,
    /// Per-sample rating noise (standard deviation, in rating points).
    pub noise: f64,
}

/// Summary of a dataset rating run (the Fig 4 numbers).
#[derive(Debug, Clone, Serialize)]
pub struct RatingSummary {
    /// Mean rating.
    pub mean: f64,
    /// Share of ratings strictly above 4.5.
    pub share_above_4_5: f64,
    /// Histogram over the half-point grid 0.0, 0.5, …, 5.0 (11 bins).
    pub histogram: [usize; 11],
    /// Number rated.
    pub count: usize,
}

impl RatingSummary {
    /// Rebuilds the summary from a rating stage's executor report.
    pub fn from_report(report: &StageReport) -> Self {
        let mut histogram = [0usize; 11];
        for (bin, slot) in histogram.iter_mut().enumerate() {
            *slot = report.counter(&format!("score:{bin}")) as usize;
        }
        let count: usize = histogram.iter().sum();
        let sum: f64 = histogram
            .iter()
            .enumerate()
            .map(|(bin, &c)| bin as f64 / 2.0 * c as f64)
            .sum();
        let n = count.max(1) as f64;
        RatingSummary {
            mean: sum / n,
            share_above_4_5: report.counter("above-4.5") as f64 / n,
            histogram,
            count,
        }
    }
}

impl ChatGptRater {
    /// Creates a rater with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            engine: CriteriaEngine::new(),
            seed,
            noise: 0.08,
        }
    }

    /// Rates one pair's response, 0.0–5.0 on the half-point grid.
    ///
    /// The mapping from the 0–100 criteria score is piecewise-linear and
    /// anchored so that a flawless-but-plain response (score 80) sits at
    /// 4.0 and the red-line cap (40) at 2.0 — the scale AlpaGasus reports.
    pub fn rate(&self, id: u64, instruction: &str, response: &str) -> f64 {
        let score = self.engine.score_pair(instruction, response).response;
        let base = score / 20.0;
        let mut rng = StdRng::seed_from_u64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let noised = base + gaussian(&mut rng) * self.noise;
        (noised.clamp(0.0, 5.0) * 2.0).round() / 2.0
    }

    /// Rates a whole dataset on the shared executor.
    pub fn rate_dataset(&self, d: &Dataset) -> RatingSummary {
        let stages: Vec<Box<dyn Stage + '_>> = vec![Box::new(ChatGptRatingStage::new(self))];
        let run = Executor::new(ExecutorConfig::new(self.seed)).run(&stages, &d.pairs);
        RatingSummary::from_report(
            run.report(ChatGptRatingStage::NAME)
                // lint: allow(P1, reason = "the chain built two lines above contains exactly this stage; a missing report is a construction bug, not a data condition")
                .expect("rating stage ran"),
        )
    }
}

/// The rater as a scoring stage: each item's response is rated onto the
/// half-point grid and tallied into `score:<2r>` histogram counters, so
/// the Fig 4 / Table VII experiments can run the rater inside any chain.
///
/// Ratings are keyed to the rater's own seed and the pair id (not the
/// chain RNG), so a pair rates identically wherever the stage appears.
pub struct ChatGptRatingStage<'a> {
    rater: &'a ChatGptRater,
}

impl<'a> ChatGptRatingStage<'a> {
    /// The stage's report name.
    pub const NAME: &'static str = "chatgpt-rate";

    /// A scoring stage over `rater`.
    pub fn new(rater: &'a ChatGptRater) -> Self {
        ChatGptRatingStage { rater }
    }
}

impl Stage for ChatGptRatingStage<'_> {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let r = self
            .rater
            .rate(item.pair.id, &item.pair.instruction, &item.pair.response);
        ctx.bump(&format!("score:{}", (r * 2.0) as usize));
        if r > 4.5 {
            ctx.bump("above-4.5");
        }
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // Modelled LLM-judge call: per-request budget before a retry.
        Some(std::time::Duration::from_secs(5))
    }
}

/// Box–Muller standard normal from a uniform RNG.
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::category::Category;
    use coachlm_data::pair::InstructionPair;

    const RICH: &str = "The water cycle moves water through evaporation and rain. \
        This happens because the sun heats the oceans, lifting vapor into the sky. \
        For example, puddles vanish on sunny days. In summary, water circulates constantly. \
        I hope this helps; feel free to ask more.";

    #[test]
    fn rich_responses_rate_above_4_5() {
        let r = ChatGptRater::new(1);
        let rating = r.rate(0, "Explain the water cycle", RICH);
        assert!(rating > 4.5, "rating {rating}");
    }

    #[test]
    fn thin_responses_rate_lower() {
        let r = ChatGptRater::new(1);
        let rating = r.rate(0, "Explain the water cycle", "Water moves around.");
        assert!(rating < 4.0, "rating {rating}");
    }

    #[test]
    fn unsafe_responses_rate_at_most_2ish() {
        let r = ChatGptRater::new(1);
        let rating = r.rate(
            0,
            "Give advice",
            "Do this, guaranteed to double your investment overnight.",
        );
        assert!(rating <= 2.5, "rating {rating}");
    }

    #[test]
    fn rating_is_deterministic_per_id() {
        let r = ChatGptRater::new(7);
        assert_eq!(r.rate(3, "a", RICH), r.rate(3, "a", RICH));
        // Different ids may rate differently (noise), but stay on the grid.
        let v = r.rate(4, "a", RICH);
        assert_eq!((v * 2.0).fract(), 0.0);
    }

    #[test]
    fn dataset_summary_consistency() {
        let mut d = Dataset::new("t");
        for i in 0..20 {
            d.pairs.push(InstructionPair::new(
                i,
                "Explain the water cycle",
                if i % 2 == 0 {
                    RICH.to_string()
                } else {
                    "Water moves.".to_string()
                },
                Category(0),
            ));
        }
        let s = ChatGptRater::new(2).rate_dataset(&d);
        assert_eq!(s.count, 20);
        assert_eq!(s.histogram.iter().sum::<usize>(), 20);
        assert!(s.mean > 2.0 && s.mean < 5.0);
        assert!(s.share_above_4_5 >= 0.3 && s.share_above_4_5 <= 0.7);
    }
}
