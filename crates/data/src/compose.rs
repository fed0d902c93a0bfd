//! Response composition.
//!
//! One shared notion of "how good a response reads" is used everywhere text
//! is *produced*: the dataset generator (original pairs of varying quality),
//! the test-set builders (reference responses of set-specific strength), and
//! the student-model simulator in `coachlm-core` (candidate responses whose
//! quality tracks the model's skill). The criteria engine then *measures*
//! quality from the text alone, closing the loop.

use crate::topics::{body_templates, Topic, REASONING_TEMPLATES, WARM_TEMPLATES};
use rand::Rng;

/// Compositional levers for a response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposeSpec {
    /// Number of on-topic body sentences (≥ 1).
    pub body_sentences: usize,
    /// Include reasoning/explanation sentences.
    pub reasoning: bool,
    /// Include a concrete example sentence.
    pub example: bool,
    /// Include a warm, humanised closer.
    pub warm: bool,
}

impl ComposeSpec {
    /// Maps a target quality level in [0, 1] to composition levers.
    ///
    /// * `q < 0.3` — one bare sentence (thin, unexplained);
    /// * `q < 0.55` — two body sentences;
    /// * `q < 0.7` — adds reasoning;
    /// * `q < 0.85` — adds an example;
    /// * else — adds warmth on top (the full advanced-experience package).
    pub fn for_quality(q: f64) -> Self {
        let q = q.clamp(0.0, 1.0);
        Self {
            body_sentences: 1 + (q * 3.2) as usize,
            reasoning: q >= 0.55,
            example: q >= 0.7,
            warm: q >= 0.85,
        }
    }

    /// Like [`Self::for_quality`], but each feature turns on
    /// *probabilistically* along a quality ramp instead of at a hard
    /// threshold. Generated-response quality then responds smoothly to
    /// small skill differences — a model trained on a marginally better
    /// dataset produces marginally better text, rather than identical text
    /// until a threshold is crossed.
    pub fn sampled<R: Rng>(q: f64, rng: &mut R) -> Self {
        let q = q.clamp(0.0, 1.0);
        let mut ramp = |lo: f64, hi: f64| {
            let t = ((q - lo) / (hi - lo)).clamp(0.0, 1.0);
            rng.gen_bool(t)
        };
        Self {
            body_sentences: 1 + (q * 3.2) as usize,
            reasoning: ramp(0.38, 0.70),
            example: ramp(0.52, 0.88),
            warm: ramp(0.74, 0.97),
        }
    }
}

/// Composes a response about `topic` per `spec`. Deterministic for a given
/// RNG state; sentences are drawn without replacement where possible.
pub fn compose_response<R: Rng>(rng: &mut R, topic: Topic, spec: ComposeSpec) -> String {
    let bodies = body_templates(topic.domain);
    let mut order: Vec<usize> = (0..bodies.len()).collect();
    shuffle(rng, &mut order);
    let mut sentences: Vec<String> = Vec::new();
    for &idx in order.iter().take(spec.body_sentences.max(1)) {
        sentences.push(fill(bodies[idx], topic.phrase));
    }
    if spec.reasoning {
        let t = REASONING_TEMPLATES[rng.gen_range(0..REASONING_TEMPLATES.len())];
        sentences.push(fill(t, topic.phrase));
    }
    if spec.example {
        sentences.push(fill(
            "For example, {} can be seen clearly in a simple everyday situation.",
            topic.phrase,
        ));
    }
    if spec.warm {
        let t = WARM_TEMPLATES[rng.gen_range(0..WARM_TEMPLATES.len())];
        sentences.push(fill(t, topic.phrase));
    }
    capitalize_sentences(&sentences.join(" "))
}

/// Fisher–Yates with the caller's RNG (keeps everything seeded).
fn shuffle<R: Rng, T>(rng: &mut R, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

fn fill(template: &str, topic: &str) -> String {
    template.replace("{}", topic)
}

fn capitalize_sentences(s: &str) -> String {
    coachlm_text::normalize::capitalize_sentences(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topics::TOPICS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quality_maps_to_monotone_specs() {
        let lo = ComposeSpec::for_quality(0.1);
        let mid = ComposeSpec::for_quality(0.6);
        let hi = ComposeSpec::for_quality(0.95);
        assert!(lo.body_sentences <= mid.body_sentences);
        assert!(mid.body_sentences <= hi.body_sentences);
        assert!(!lo.reasoning && mid.reasoning && hi.reasoning);
        assert!(!lo.warm && !mid.warm && hi.warm);
    }

    #[test]
    fn composed_text_is_on_topic() {
        let mut rng = StdRng::seed_from_u64(1);
        for topic in TOPICS.iter().take(10) {
            let r = compose_response(&mut rng, *topic, ComposeSpec::for_quality(0.5));
            let key = topic.phrase.split_whitespace().last().unwrap();
            assert!(
                coachlm_text::normalize::fold_case(&r).contains(key),
                "missing {key}: {r}"
            );
        }
    }

    #[test]
    fn richer_specs_produce_longer_text() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = TOPICS[0];
        let thin = compose_response(&mut rng, t, ComposeSpec::for_quality(0.1));
        let rich = compose_response(&mut rng, t, ComposeSpec::for_quality(0.95));
        assert!(
            coachlm_text::token::word_count(&rich) > 2 * coachlm_text::token::word_count(&thin)
        );
    }

    #[test]
    fn rich_text_carries_detectable_markers() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = compose_response(&mut rng, TOPICS[4], ComposeSpec::for_quality(0.95));
        use coachlm_text::lexicon::{LexiconHits, MarkerList};
        let hits = LexiconHits::of(&r);
        assert!(hits.has_marker(MarkerList::Reasoning), "{r}");
        assert!(hits.has_marker(MarkerList::Warm), "{r}");
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let spec = ComposeSpec::for_quality(0.7);
        assert_eq!(
            compose_response(&mut a, TOPICS[7], spec),
            compose_response(&mut b, TOPICS[7], spec)
        );
    }
}
