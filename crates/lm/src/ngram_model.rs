//! An interpolated n-gram language model with Witten-Bell smoothing.
//!
//! This is the "pre-trained knowledge" of a simulated backbone: it scores
//! fluency (used by the transducer to prefer grammatical revisions) and can
//! sample text. Witten-Bell smoothing is chosen over Kneser-Ney because it
//! is robust on the small built-in corpora (no discount tuning) while still
//! interpolating across orders.

use crate::vocab::Vocab;
use coachlm_text::intern::Sym;
use coachlm_text::ngram::NgramCounter;
use rand::Rng;

/// An n-gram language model over word symbols.
#[derive(Debug)]
pub struct NgramLm {
    vocab: Vocab,
    counter: NgramCounter<Sym>,
    order: usize,
}

impl NgramLm {
    /// Trains a model of the given `order` (e.g. 3 for trigram) on the
    /// sentences.
    ///
    /// # Panics
    /// Panics if `order == 0`.
    pub fn train<S: AsRef<str>>(order: usize, sentences: &[S]) -> Self {
        assert!(order >= 1, "order must be at least 1");
        let mut vocab = Vocab::new();
        let mut counter = NgramCounter::new(order);
        for s in sentences {
            let seq = vocab.add_text(s.as_ref());
            counter.observe(&seq);
        }
        Self {
            vocab,
            counter,
            order,
        }
    }

    /// The model's vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Model order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Witten-Bell interpolated probability of `word` following `context`
    /// (context uses at most `order - 1` trailing symbols).
    pub fn prob(&self, context: &[Sym], word: Sym) -> f64 {
        let ctx_start = context.len().saturating_sub(self.order - 1);
        self.prob_backoff(&context[ctx_start..], word)
    }

    fn prob_backoff(&self, context: &[Sym], word: Sym) -> f64 {
        if context.is_empty() {
            // Unigram with uniform interpolation over V+1 (reserving mass
            // for unseen events).
            let v = self.vocab.len() as f64 + 1.0;
            let total = self.counter.total(1) as f64;
            let c = self.counter.count(&[word]) as f64;
            let t = self.counter.distinct(1) as f64;
            return (c + t / v) / (total + t).max(1.0);
        }
        // Fingerprint the context once, extend by one element for the full
        // gram: no buffer is assembled, so scoring allocates nothing.
        let ctx_fp = NgramCounter::<Sym>::fingerprint(context);
        let gram_fp = NgramCounter::<Sym>::fingerprint_extend(ctx_fp, &word);
        let c_hw = self.counter.count_fp(context.len() + 1, gram_fp) as f64;
        let c_h = self.counter.count_fp(context.len(), ctx_fp) as f64;
        let t_h = self.counter.continuations_fp(context.len(), ctx_fp) as f64;
        let lower = self.prob_backoff(&context[1..], word);
        if c_h == 0.0 && t_h == 0.0 {
            return lower;
        }
        (c_hw + t_h * lower) / (c_h + t_h)
    }

    /// Log2 probability of a full text (BOS/EOS wrapped).
    pub fn log2_prob(&self, text: &str) -> f64 {
        self.log2_prob_encoded(&self.vocab.encode_text(text))
    }

    /// Log2 probability of an encoded, BOS/EOS-wrapped sequence.
    fn log2_prob_encoded(&self, seq: &[Sym]) -> f64 {
        let mut lp = 0.0;
        for i in 1..seq.len() {
            let p = self.prob(&seq[..i], seq[i]);
            lp += p.max(1e-12).log2();
        }
        lp
    }

    /// Per-word perplexity of `text`. Lower is more fluent. The text is
    /// encoded once and that sequence is scored.
    pub fn perplexity(&self, text: &str) -> f64 {
        let seq = self.vocab.encode_text(text);
        let events = (seq.len() - 1).max(1) as f64;
        (2f64).powf(-self.log2_prob_encoded(&seq) / events)
    }

    /// A bounded fluency score in [0, 1]: 1.0 for text the model finds
    /// highly predictable, approaching 0 for gibberish. Computed as a
    /// squashed inverse perplexity; thresholds picked so in-corpus text
    /// scores > 0.7 and shuffled text scores visibly lower.
    pub fn fluency(&self, text: &str) -> f64 {
        let ppl = self.perplexity(text);
        // Squash: fluency = 1 / (1 + (ppl / scale)^2). scale ≈ the model's
        // typical in-domain perplexity.
        let scale = (self.vocab.len() as f64).sqrt().max(8.0);
        1.0 / (1.0 + (ppl / scale).powi(2))
    }

    /// Samples a continuation of `context_text` up to `max_words` words,
    /// stopping at EOS. Greedy when `temperature == 0`, otherwise samples
    /// from the distribution restricted to observed continuations.
    pub fn sample<R: Rng>(
        &self,
        rng: &mut R,
        context_text: &str,
        max_words: usize,
        temperature: f64,
    ) -> String {
        let mut seq = self.vocab.encode_text(context_text);
        seq.pop(); // drop EOS so we continue the sequence
        let mut out_words: Vec<String> = Vec::new();
        for _ in 0..max_words {
            let next = self.sample_next(rng, &seq, temperature);
            if next == self.vocab.eos() {
                break;
            }
            out_words.push(self.vocab.resolve(next).to_string());
            seq.push(next);
        }
        out_words.join(" ")
    }

    fn sample_next<R: Rng>(&self, rng: &mut R, seq: &[Sym], temperature: f64) -> Sym {
        // Candidate continuations: words observed after the longest
        // available context, backing off until some context has data.
        let max_ctx = self.order - 1;
        for ctx_len in (0..=max_ctx.min(seq.len())).rev() {
            let context = &seq[seq.len() - ctx_len..];
            let candidates = self.observed_continuations(context);
            if candidates.is_empty() {
                continue;
            }
            if temperature <= f64::EPSILON {
                // `candidates` is non-empty here, so `max_by` always yields;
                // the `continue` (back off one more context level) is the
                // panic-free fallback the type demands.
                match candidates.into_iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
                    Some((s, _)) => return s,
                    None => continue,
                }
            }
            let weights: Vec<f64> = candidates
                .iter()
                .map(|(_, p)| p.powf(1.0 / temperature))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    return candidates[i].0;
                }
                pick -= w;
            }
            // Float rounding can walk `pick` past the final weight; the last
            // candidate is the correct landing spot, and the non-empty check
            // above guarantees one exists.
            if let Some(&(last, _)) = candidates.last() {
                return last;
            }
        }
        self.vocab.eos()
    }

    fn observed_continuations(&self, context: &[Sym]) -> Vec<(Sym, f64)> {
        // Enumerate observed (context, w) grams by scanning the vocabulary;
        // vocabularies here are small (built-in corpora), so this is fine.
        let mut out = Vec::new();
        let ctx_fp = NgramCounter::<Sym>::fingerprint(context);
        for idx in 0..self.vocab.len() as u32 {
            let w = Sym(idx);
            let fp = NgramCounter::<Sym>::fingerprint_extend(ctx_fp, &w);
            if self.counter.count_fp(context.len() + 1, fp) > 0 {
                out.push((w, self.prob(context, w)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> NgramLm {
        NgramLm::train(
            3,
            &[
                "the cat sat on the mat",
                "the cat ran to the door",
                "the dog sat on the rug",
                "a bird sang in the tree",
            ],
        )
    }

    #[test]
    fn probabilities_sum_to_at_most_one() {
        let m = tiny_model();
        let ctx = m.vocab().encode_text("the cat");
        // Sum P(w | context) over the whole vocab; should be <= 1 + eps.
        let mut sum = 0.0;
        for idx in 0..m.vocab().len() as u32 {
            sum += m.prob(&ctx[..ctx.len() - 1], Sym(idx));
        }
        assert!(sum <= 1.0 + 1e-6, "sum = {sum}");
        assert!(sum > 0.5, "sum = {sum}");
    }

    #[test]
    fn seen_text_more_probable_than_gibberish() {
        let m = tiny_model();
        let fluent = m.log2_prob("the cat sat on the mat");
        let garbage = m.log2_prob("mat the on sat cat the");
        assert!(fluent > garbage, "{fluent} vs {garbage}");
    }

    #[test]
    fn perplexity_orders_fluency() {
        let m = tiny_model();
        assert!(m.perplexity("the cat sat on the mat") < m.perplexity("zebra quantum xylophone"));
    }

    #[test]
    fn fluency_is_bounded() {
        let m = tiny_model();
        for t in ["the cat sat", "qqq www eee", ""] {
            let f = m.fluency(t);
            assert!((0.0..=1.0).contains(&f), "fluency {f} for {t:?}");
        }
    }

    #[test]
    fn greedy_sampling_is_deterministic() {
        let m = tiny_model();
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(99);
        let a = m.sample(&mut r1, "the cat", 5, 0.0);
        let b = m.sample(&mut r2, "the cat", 5, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_sampling_reproducible() {
        let m = tiny_model();
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        assert_eq!(
            m.sample(&mut r1, "the", 8, 1.0),
            m.sample(&mut r2, "the", 8, 1.0)
        );
    }

    #[test]
    fn sample_respects_max_words() {
        let m = tiny_model();
        let mut rng = StdRng::seed_from_u64(7);
        let text = m.sample(&mut rng, "the", 3, 1.0);
        assert!(text.split_whitespace().count() <= 3);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn zero_order_panics() {
        let _ = NgramLm::train(0, &["x"]);
    }

    /// The `perplexity` that encoded its text twice: once for the event
    /// count, once more inside `log2_prob`.
    fn reference_perplexity(m: &NgramLm, text: &str) -> f64 {
        let seq = m.vocab().encode_text(text);
        let events = (seq.len() - 1).max(1) as f64;
        (2f64).powf(-m.log2_prob(text) / events)
    }

    #[test]
    fn single_encode_perplexity_matches_the_reference_bit_for_bit() {
        let m = NgramLm::train(3, &crate::corpus::corpus_slice(1.0));
        let mut probes = crate::corpus::corpus_slice(1.0);
        probes.extend(["", "zebra quantum xylophone", "The the the, of of."]);
        for text in &probes {
            assert_eq!(
                m.perplexity(text).to_bits(),
                reference_perplexity(&m, text).to_bits(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn bigger_corpus_lowers_tail_perplexity() {
        let small = NgramLm::train(3, &crate::corpus::corpus_slice(0.2));
        let big = NgramLm::train(3, &crate::corpus::corpus_slice(1.0));
        // A tail sentence only the full corpus contains: the big model must
        // find it far more predictable than the small model does.
        let probe = "Make the instruction specific, detailed, and feasible for a language model.";
        assert!(big.perplexity(probe) < small.perplexity(probe));
    }
}
