//! The revision transducer: applies a trained [`Adapter`] over a frozen
//! [`Backbone`] to revise an instruction pair (§II-F3, Eq. 2).
//!
//! Decoding is greedy (beam size 1, as in §III-A3) and seeded: for each
//! detected defect site, the transducer fires the applicable learned rule or
//! backbone-knowledge repair with probability [`Transducer::apply_probability`],
//! which combines the backbone's zero-shot alignment, the adapter's
//! elicitation strength, and the copy-noise penalty from near-identity
//! training pairs. That single probability is where the Fig 5(a) α-curve
//! comes from: more substantive training examples push it up; copy-heavy
//! training data pulls it down.

use crate::adapter::Adapter;
use crate::backbone::Backbone;
use crate::knowledge::KnowledgeBase;
use crate::rules::AugmentKind;
use coachlm_text::lexicon;
use coachlm_text::normalize;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What kind of repair was applied at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepairTag {
    /// Misspelling corrected.
    Typo,
    /// Multi-word grammar error corrected.
    Grammar,
    /// Factual corruption corrected.
    Fact,
    /// Vague instruction rewritten to be specific.
    VagueRewrite,
    /// Infeasible requirement removed/rewritten.
    InfeasibleFix,
    /// Context/requirements added to an instruction.
    ContextAdd,
    /// Response expanded with reasoning/explanations.
    Expand,
    /// Truncated response completed.
    Complete,
    /// Tone humanised.
    WarmTone,
    /// Unsafe content replaced with a safe completion.
    Safety,
    /// Layout/whitespace/punctuation normalised.
    Layout,
    /// Irrelevant response rewritten on-topic.
    RelevanceRewrite,
    /// A learned phrase rule (not classifiable above) fired.
    LearnedPhrase,
}

impl RepairTag {
    /// Every repair tag, in declaration order.
    pub const ALL: [RepairTag; 13] = [
        RepairTag::Typo,
        RepairTag::Grammar,
        RepairTag::Fact,
        RepairTag::VagueRewrite,
        RepairTag::InfeasibleFix,
        RepairTag::ContextAdd,
        RepairTag::Expand,
        RepairTag::Complete,
        RepairTag::WarmTone,
        RepairTag::Safety,
        RepairTag::Layout,
        RepairTag::RelevanceRewrite,
        RepairTag::LearnedPhrase,
    ];

    /// A stable string label: the [`counter_key`](Self::counter_key)
    /// without its `repair:` prefix.
    pub fn label(self) -> &'static str {
        let key = self.counter_key();
        key.strip_prefix("repair:").unwrap_or(key)
    }

    /// The stage-counter key that counts this repair, `repair:{label}`,
    /// spelled out so that counting a repair formats nothing.
    pub fn counter_key(self) -> &'static str {
        match self {
            RepairTag::Typo => "repair:typo",
            RepairTag::Grammar => "repair:grammar",
            RepairTag::Fact => "repair:fact",
            RepairTag::VagueRewrite => "repair:vague-rewrite",
            RepairTag::InfeasibleFix => "repair:infeasible-fix",
            RepairTag::ContextAdd => "repair:context-add",
            RepairTag::Expand => "repair:expand",
            RepairTag::Complete => "repair:complete",
            RepairTag::WarmTone => "repair:warm-tone",
            RepairTag::Safety => "repair:safety",
            RepairTag::Layout => "repair:layout",
            RepairTag::RelevanceRewrite => "repair:relevance-rewrite",
            RepairTag::LearnedPhrase => "repair:learned-phrase",
        }
    }
}

/// The result of revising one instruction pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RevisionOutcome {
    /// Revised instruction text.
    pub instruction: String,
    /// Revised response text.
    pub response: String,
    /// Repairs applied, in order.
    pub repairs: Vec<RepairTag>,
    /// Whether the raw decode degenerated (echoed template / stuttered);
    /// callers replace such outputs with the originals (§III-B1).
    pub degenerate: bool,
}

impl RevisionOutcome {
    /// Whether the instruction side changed.
    pub fn instruction_changed(&self, original: &str) -> bool {
        self.instruction != original
    }

    /// Whether the response side changed.
    pub fn response_changed(&self, original: &str) -> bool {
        self.response != original
    }
}

/// Word-count below which a response without reasoning markers counts as
/// "thin" and eligible for expansion.
const THIN_RESPONSE_WORDS: usize = 60;

/// A revision decoder over `(backbone, adapter)`.
#[derive(Debug)]
pub struct Transducer<'a> {
    backbone: &'a Backbone,
    adapter: &'a Adapter,
}

impl<'a> Transducer<'a> {
    /// Creates a transducer.
    pub fn new(backbone: &'a Backbone, adapter: &'a Adapter) -> Self {
        Self { backbone, adapter }
    }

    /// The backbone in use.
    pub fn backbone(&self) -> &Backbone {
        self.backbone
    }

    /// Probability that an applicable repair actually fires.
    ///
    /// `(prior + (1 − prior)·elicitation) · (1 − copy_penalty)`.
    pub fn apply_probability(&self) -> f64 {
        let prior = self.backbone.profile().alignment_prior;
        let e = self.adapter.elicitation();
        (prior + (1.0 - prior) * e) * (1.0 - self.adapter.copy_penalty())
    }

    /// Probability the decode degenerates (template echo / stutter); the
    /// source of the ~1.3 % invalid outputs the paper post-processes away.
    /// Foundation backbones without an alignment stage degenerate far more
    /// often — one of the reasons a LLaMA-backboned CoachLM gains little
    /// over Alpaca in Table XI.
    pub fn degeneracy_probability(&self) -> f64 {
        let prior = self.backbone.profile().alignment_prior;
        0.004 + 0.03 * (1.0 - self.apply_probability()) + 0.12 * (1.0 - prior).powi(3)
    }

    /// Revises one `(instruction, response)` pair. Deterministic for a
    /// given RNG state.
    pub fn revise_pair<R: Rng>(
        &self,
        rng: &mut R,
        instruction: &str,
        response: &str,
    ) -> RevisionOutcome {
        if rng.gen_bool(self.degeneracy_probability().clamp(0.0, 1.0)) {
            return self.degenerate_output(rng, instruction, response);
        }
        let mut repairs = Vec::new();
        let instr = self.revise_instruction(rng, instruction, &mut repairs);
        // Relevance and topic decisions are made against the *original*
        // instruction (that is what CoachLM conditions on), not the revised
        // one whose appended context would dilute lexical overlap.
        let resp = self.revise_response(rng, instruction, response, &mut repairs);
        RevisionOutcome {
            instruction: instr,
            response: resp,
            repairs,
            degenerate: false,
        }
    }

    fn degenerate_output<R: Rng>(
        &self,
        rng: &mut R,
        instruction: &str,
        response: &str,
    ) -> RevisionOutcome {
        // Two classic failure modes: echoing the prompt template, or a
        // decoding stutter.
        let resp = if rng.gen_bool(0.5) {
            format!("### Instruction: {instruction} ### Response: {response}")
        } else {
            let tail: String = response
                .split_whitespace()
                .take(4)
                .collect::<Vec<_>>()
                .join(" ");
            format!("{response} {}", format!("{tail} ").repeat(6).trim_end())
        };
        RevisionOutcome {
            instruction: instruction.to_string(),
            response: resp,
            repairs: Vec::new(),
            degenerate: true,
        }
    }

    // ----- instruction side ------------------------------------------------

    fn revise_instruction<R: Rng>(
        &self,
        rng: &mut R,
        instruction: &str,
        repairs: &mut Vec<RepairTag>,
    ) -> String {
        let p = self.apply_probability();
        let kb = self.backbone.knowledge();
        let mut text = instruction.to_string();

        // Infeasible requirements: strip the offending phrase.
        if let Some(marker) = lexicon::find_marker(&text, lexicon::INFEASIBLE_PHRASES) {
            if rng.gen_bool(p) {
                text = normalize::remove_phrase(&text, marker);
                repairs.push(RepairTag::InfeasibleFix);
            }
        }

        // Vague instructions: rewrite around the topic.
        if lexicon::contains_marker(&text, lexicon::VAGUE_PHRASES) && rng.gen_bool(p) {
            let topic = topic_of(&text);
            let templates = kb.clarifications();
            if !templates.is_empty() && !topic.is_empty() {
                let t = self.pick_fluent(rng, templates, &topic);
                text = t;
                repairs.push(RepairTag::VagueRewrite);
            }
        }

        // Lexical repairs: learned phrase rules + backbone typo/grammar.
        let (fixed, tags) = apply_lexical(rng, p, kb, &self.adapter.instruction_rules, &text);
        text = fixed;
        repairs.extend(tags);

        // Context enrichment (advanced dimension — applied sparingly: the
        // paper observes CoachLM "primarily adjusted the logical and
        // linguistic aspects of the INSTRUCTIONS without adding much new
        // content", §III-B1).
        if !lexicon::contains_marker(&text, lexicon::CONTEXT_MARKERS) && rng.gen_bool(p * 0.06) {
            let templates = kb.contexts();
            let learned = self
                .adapter
                .instruction_rules
                .augment_material(AugmentKind::AddContext);
            let chosen = choose_augment(rng, learned, templates);
            if let Some(add) = chosen {
                text = format!("{} {}", text.trim_end(), add);
                repairs.push(RepairTag::ContextAdd);
            }
        }

        // Layout adjustment (the 68.1% "Adjust" class of Table IV).
        if rng.gen_bool(p) {
            let tidy = normalize::normalize_layout(&text);
            if tidy != text {
                text = tidy;
                repairs.push(RepairTag::Layout);
            }
        }
        text
    }

    // ----- response side ---------------------------------------------------

    fn revise_response<R: Rng>(
        &self,
        rng: &mut R,
        instruction: &str,
        response: &str,
        repairs: &mut Vec<RepairTag>,
    ) -> String {
        let p = self.apply_probability();
        let kb = self.backbone.knowledge();
        let mut text = response.to_string();
        let topic = topic_of(instruction);

        // Safety red line first: aligned backbones front-load this.
        if lexicon::contains_marker(&text, lexicon::UNSAFE_MARKERS) {
            let p_safe = p
                .max(self.backbone.profile().alignment_prior + 0.3)
                .min(0.98);
            if rng.gen_bool(p_safe) {
                let tmpl = kb.safe_completions();
                let lead = tmpl[rng.gen_range(0..tmpl.len())];
                text = format!("{lead} {}", self.compose_on_topic(rng, &topic, 2));
                repairs.push(RepairTag::Safety);
            }
        }

        // Relevance: rewrite off-topic responses around the instruction.
        if lexicon::is_off_topic(instruction, &text) && !topic.is_empty() && rng.gen_bool(p) {
            text = self.compose_on_topic(rng, &topic, 3);
            repairs.push(RepairTag::RelevanceRewrite);
        }

        // Truncation: complete the dangling sentence.
        if is_truncated(&text) && rng.gen_bool(p) {
            let trimmed = text
                .trim_end()
                .trim_end_matches("...")
                .trim_end_matches([',', ';', ' '])
                .to_string();
            let learned = self
                .adapter
                .response_rules
                .augment_material(AugmentKind::Complete);
            let closer = choose_augment(rng, learned, kb.expansions())
                .map(|c| {
                    KnowledgeBase::fill(c, topic.first().map(String::as_str).unwrap_or("this"))
                })
                .unwrap_or_else(|| "and the remaining part follows the same pattern.".to_string());
            text = format!(
                "{} {}",
                normalize::ensure_terminal_punctuation(&trimmed),
                closer
            );
            repairs.push(RepairTag::Complete);
        }

        // Lexical repairs: learned phrase rules + typo/grammar + facts.
        let (fixed, tags) = apply_lexical(rng, p, kb, &self.adapter.response_rules, &text);
        text = fixed;
        repairs.extend(tags);
        if let Some((wrong, right)) = kb.fact_correction(&text) {
            if rng.gen_bool(p) {
                text = text.replace(&wrong, &right);
                repairs.push(RepairTag::Fact);
            }
        }

        // Expansion: the dominant revision class (43.7% of Table IV); it is
        // what drives the Table VII length growth (44 → 143 words).
        // CoachLM learned the expert bar (reasoning + example + ≥55 words),
        // so it expands anything below it — which is why Table VII's revised
        // responses average 3× the original length.
        let word_count = coachlm_text::token::word_count(&text);
        let has_reasoning = lexicon::contains_marker(&text, lexicon::REASONING_MARKERS);
        let has_example = normalize::fold_case(&text).contains("for example");
        let thin = word_count < THIN_RESPONSE_WORDS;
        // Expansion fires slightly less reliably than lexical repairs —
        // composing new content is the hardest revision class, and the
        // paper's revised dataset keeps ~21% of pairs below the 4.5 bar.
        if (thin || !has_reasoning || !has_example) && rng.gen_bool(p * 0.85) {
            // Enough sentences (~13 words each) to land near the paper's
            // revised-length average, plus reasoning/example markers.
            let deficit = 90usize.saturating_sub(word_count);
            let sentences = (deficit / 13).clamp(2, 7);
            let addition = self.compose_on_topic_avoiding(rng, &topic, sentences, &text);
            if !addition.is_empty() {
                text = format!(
                    "{} {}",
                    normalize::ensure_terminal_punctuation(&text),
                    addition
                );
                repairs.push(RepairTag::Expand);
            }
        }

        // Tone: strip machine boilerplate, add warmth.
        if let Some(marker) = lexicon::find_marker(&text, lexicon::MACHINE_TONE_MARKERS) {
            if rng.gen_bool(p) {
                text = normalize::remove_phrase(&text, marker);
                repairs.push(RepairTag::WarmTone);
            }
        }
        if !lexicon::contains_marker(&text, lexicon::WARM_MARKERS) && rng.gen_bool(p * 0.5) {
            let learned = self
                .adapter
                .response_rules
                .augment_material(AugmentKind::WarmTone);
            if let Some(warm) = choose_augment(rng, learned, kb.warmth()) {
                text = format!("{} {}", normalize::ensure_terminal_punctuation(&text), warm);
                repairs.push(RepairTag::WarmTone);
            }
        }

        // Layout.
        if rng.gen_bool(p) {
            let tidy = normalize::normalize_layout(&text);
            if tidy != text {
                text = tidy;
                repairs.push(RepairTag::Layout);
            }
        }
        text
    }

    /// Composes `n` on-topic sentences from expansion material, preferring
    /// learned augment texts, scored for fluency by the backbone.
    fn compose_on_topic<R: Rng>(&self, rng: &mut R, topic: &[String], n: usize) -> String {
        self.compose_on_topic_avoiding(rng, topic, n, "")
    }

    /// Like [`Self::compose_on_topic`], but skips sentences already present
    /// in `avoid` (prevents duplicate expansions after a rewrite).
    fn compose_on_topic_avoiding<R: Rng>(
        &self,
        rng: &mut R,
        topic: &[String],
        n: usize,
        avoid: &str,
    ) -> String {
        let learned = self
            .adapter
            .response_rules
            .augment_material(AugmentKind::ExpandResponse)
            .map_or(&[][..], |(texts, _)| texts);
        let topic_word = topic.first().map(String::as_str).unwrap_or("the topic");
        let filled: Vec<String> = self
            .backbone
            .knowledge()
            .expansions()
            .iter()
            .map(|t| KnowledgeBase::fill(t, topic_word))
            .collect();
        // Rank by backbone fluency (stronger backbones pick better prose),
        // then take a seeded rotation so output varies across pairs. The
        // learned sentences are ranked where they are, not cloned.
        let mut scored: Vec<(f64, &str)> = learned
            .iter()
            .chain(&filled)
            .map(String::as_str)
            .filter(|s| !avoid.contains(s))
            .map(|s| (self.backbone.fluency(s), s))
            .collect();
        if scored.is_empty() {
            return String::new();
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        let start = rng.gen_range(0..scored.len().min(3));
        let mut picked: Vec<&str> = scored
            .iter()
            .cycle()
            .skip(start)
            .take(n.min(scored.len()))
            .map(|&(_, s)| s)
            .collect();
        // The expert bar includes a concrete example; make sure one of the
        // picked sentences carries the marker when the pool has one.
        let has_example = |s: &str| normalize::fold_case(s).contains("for example");
        if !picked.iter().any(|s| has_example(s)) && !avoid.to_lowercase().contains("for example") {
            if let Some(&(_, ex)) = scored.iter().find(|(_, s)| has_example(s)) {
                if let Some(last) = picked.last_mut() {
                    *last = ex;
                } else {
                    picked.push(ex);
                }
            }
        }
        picked.dedup();
        picked.join(" ")
    }

    /// Fills each template with the topic and returns the most fluent one.
    fn pick_fluent<R: Rng>(&self, rng: &mut R, templates: &[&str], topic: &[String]) -> String {
        let topic_word = topic.first().map(String::as_str).unwrap_or("the request");
        let mut best: Option<(f64, String)> = None;
        for t in templates {
            let filled = KnowledgeBase::fill(t, topic_word);
            let f = self.backbone.fluency(&filled) + rng.gen_range(0.0..1e-9);
            if best.as_ref().is_none_or(|(bf, _)| f > *bf) {
                best = Some((f, filled));
            }
        }
        best.map(|(_, s)| s).unwrap_or_default()
    }
}

/// Topic content words of an instruction.
fn topic_of(text: &str) -> Vec<String> {
    lexicon::content_words(text, 4)
}

/// Whether the response looks truncated: ends with an ellipsis or a
/// non-terminal character.
fn is_truncated(text: &str) -> bool {
    let t = text.trim_end();
    if t.is_empty() {
        return false;
    }
    t.ends_with("...")
        || t.chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == ',' || c == ';')
}

/// Picks one augmentation text from the learned material (preferred) plus
/// the knowledge-base templates; `None` when both pools are empty. One
/// `gen_range` draw over the two pools back to back; the winner is
/// borrowed, not copied out of a rebuilt pool.
fn choose_augment<'a, R: Rng>(
    rng: &mut R,
    learned: Option<(&'a [String], u64)>,
    templates: &[&'a str],
) -> Option<&'a str> {
    let learned = learned.map_or(&[][..], |(texts, _)| texts);
    let len = learned.len() + templates.len();
    if len == 0 {
        return None;
    }
    let idx = rng.gen_range(0..len);
    match learned.get(idx) {
        Some(text) => Some(text.as_str()),
        None => templates.get(idx - learned.len()).copied(),
    }
}

/// Lexical pass shared by both sides: learned phrase rules (longest match
/// first), then backbone typo and grammar corrections.
fn apply_lexical<R: Rng>(
    rng: &mut R,
    p: f64,
    kb: &KnowledgeBase,
    rules: &crate::rules::RuleSet,
    text: &str,
) -> (String, Vec<RepairTag>) {
    let mut tags = Vec::new();
    let words = coachlm_text::token::words(text);
    // Each word is folded once; rule windows are slices of these.
    let folded: Vec<String> = words.iter().map(|w| normalize::fold_case(w)).collect();
    let max_len = rules.max_from_len().clamp(1, 5);
    let mut out: Vec<&str> = Vec::with_capacity(words.len());
    let mut i = 0usize;
    'outer: while i < words.len() {
        // Longest-match learned rule.
        for len in (1..=max_len.min(words.len() - i)).rev() {
            let window = &folded[i..i + len];
            if let Some((to, _count)) = rules.phrase_replacement(window) {
                if rng.gen_bool(p) {
                    let informative = window.join(" ") != to.join(" ").to_lowercase();
                    out.extend(to.iter().map(String::as_str));
                    i += len;
                    if informative {
                        tags.push(RepairTag::LearnedPhrase);
                    }
                    continue 'outer;
                }
            }
        }
        // Backbone typo knowledge.
        if let Some(fix) = kb.typo_correction(&folded[i]) {
            if rng.gen_bool(p) {
                out.push(fix);
                tags.push(RepairTag::Typo);
                i += 1;
                continue;
            }
        }
        out.push(words[i]);
        i += 1;
    }
    // Only adopt the token-rebuilt text when a rule actually fired —
    // rebuilding normalises whitespace/newlines, which is the layout
    // pass's job, not this one's.
    let mut joined = if tags.is_empty() {
        text.to_string()
    } else {
        join_words(&out)
    };
    // Grammar phrases operate on the joined text.
    while let Some((wrong, right)) = kb.grammar_correction(&joined) {
        if !rng.gen_bool(p) {
            break;
        }
        if let Some(range) = normalize::find_folded(&joined, wrong) {
            joined.replace_range(range, right);
            tags.push(RepairTag::Grammar);
        } else {
            break;
        }
    }
    (joined, tags)
}

/// Joins word tokens back into text with sane punctuation spacing.
fn join_words(words: &[&str]) -> String {
    let mut out = String::new();
    for w in words {
        let is_punct = w.chars().all(|c| !c.is_alphanumeric()) && w.chars().count() == 1;
        let opens = matches!(*w, "(" | "[" | "{" | "\"" | "'");
        let space_before = if is_punct {
            opens
        } else {
            !out.ends_with(['(', '[', '{'])
        };
        if !out.is_empty() && space_before {
            out.push(' ');
        }
        out.push_str(w);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::AdapterConfig;
    use crate::backbone::BackboneKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strong_setup() -> (Backbone, Adapter) {
        let backbone = Backbone::load(BackboneKind::ChatGlm2_6b);
        let mut adapter = Adapter::new(AdapterConfig::default());
        // Enough substantive examples to saturate elicitation.
        for i in 0..400 {
            adapter.observe(
                &format!("explain teh topic {i} becuase readers ask alot about it"),
                &format!("explain the topic {i} because readers ask a lot about it today"),
                &format!("short answer {i}"),
                &format!(
                    "Short answer {i}. This is because the underlying idea matters. \
                     For example, a concrete case makes it clear. In summary, details help."
                ),
            );
        }
        adapter.finalize();
        (backbone, adapter)
    }

    #[test]
    fn trained_transducer_fires_reliably() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        assert!(t.apply_probability() > 0.9, "p = {}", t.apply_probability());
    }

    #[test]
    fn untrained_transducer_uses_prior_only() {
        let b = Backbone::load(BackboneKind::ChatGlm2_6b);
        let a = Adapter::new(AdapterConfig::default());
        let t = Transducer::new(&b, &a);
        assert!((t.apply_probability() - b.profile().alignment_prior).abs() < 1e-9);
    }

    #[test]
    fn fixes_typos_in_both_sides() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        let mut rng = StdRng::seed_from_u64(3);
        let out = t.revise_pair(
            &mut rng,
            "Explain teh water cycle to a child",
            "Water evaporates becuase of heat and later falls as rain over rivers and fields.",
        );
        assert!(
            out.instruction.contains("the water cycle"),
            "{}",
            out.instruction
        );
        assert!(
            out.response.to_lowercase().contains("because"),
            "{}",
            out.response
        );
        assert!(out
            .repairs
            .iter()
            .any(|r| matches!(r, RepairTag::Typo | RepairTag::LearnedPhrase)));
    }

    #[test]
    fn expands_thin_responses() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        let mut rng = StdRng::seed_from_u64(11);
        let out = t.revise_pair(&mut rng, "Explain photosynthesis", "Plants make food.");
        let before = coachlm_text::token::word_count("Plants make food.");
        let after = coachlm_text::token::word_count(&out.response);
        assert!(
            after > before * 3,
            "expanded {before} -> {after}: {}",
            out.response
        );
        assert!(out.repairs.contains(&RepairTag::Expand));
    }

    #[test]
    fn rewrites_irrelevant_responses_on_topic() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        let mut rng = StdRng::seed_from_u64(5);
        let out = t.revise_pair(
            &mut rng,
            "Describe the climate of the Sahara desert",
            "Bananas are yellow and taste sweet when ripe.",
        );
        assert!(
            out.repairs.contains(&RepairTag::RelevanceRewrite),
            "{:?}",
            out.repairs
        );
        let overlap =
            lexicon::content_overlap("Describe the climate of the Sahara desert", &out.response);
        assert!(overlap > 0.2, "overlap {overlap}: {}", out.response);
    }

    #[test]
    fn replaces_unsafe_content() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        let mut rng = StdRng::seed_from_u64(9);
        let out = t.revise_pair(
            &mut rng,
            "Give investment advice",
            "Buy this coin, guaranteed to double your investment overnight.",
        );
        assert!(
            out.repairs.contains(&RepairTag::Safety),
            "{:?}",
            out.repairs
        );
        assert!(!lexicon::contains_marker(
            &out.response,
            lexicon::UNSAFE_MARKERS
        ));
    }

    #[test]
    fn completes_truncated_responses() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        let mut rng = StdRng::seed_from_u64(21);
        let out = t.revise_pair(
            &mut rng,
            "List three uses of baking soda",
            "Baking soda can be used for cleaning, baking, and...",
        );
        assert!(
            out.repairs.contains(&RepairTag::Complete),
            "{:?}",
            out.repairs
        );
        assert!(!out.response.trim_end().ends_with("..."));
    }

    #[test]
    fn strips_infeasible_requirements() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        let mut rng = StdRng::seed_from_u64(2);
        let out = t.revise_pair(
            &mut rng,
            "Summarize this paragraph using exactly zero words for the team",
            "A summary of the paragraph would describe the team goals clearly and simply.",
        );
        assert!(
            out.repairs.contains(&RepairTag::InfeasibleFix),
            "{:?}",
            out.repairs
        );
        assert!(!lexicon::contains_marker(
            &out.instruction,
            lexicon::INFEASIBLE_PHRASES
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        let mut r1 = StdRng::seed_from_u64(77);
        let mut r2 = StdRng::seed_from_u64(77);
        let o1 = t.revise_pair(&mut r1, "Explain teh tides", "The moon pulls water.");
        let o2 = t.revise_pair(&mut r2, "Explain teh tides", "The moon pulls water.");
        assert_eq!(o1, o2);
    }

    #[test]
    fn degenerate_outputs_flagged() {
        let (b, a) = strong_setup();
        let t = Transducer::new(&b, &a);
        let mut rng = StdRng::seed_from_u64(0);
        let mut degens = 0usize;
        for _ in 0..2000 {
            let out = t.revise_pair(&mut rng, "Say hi", "Hello there, nice to meet you today.");
            if out.degenerate {
                degens += 1;
                // Degenerates are detectable: template leak, or a trailing
                // stutter the §III-B1 cleaning pass collapses.
                let cleaned = coachlm_text::clean::clean_output(&out.response);
                assert!(
                    out.response.contains("### Instruction:") || cleaned.len() < out.response.len(),
                    "undetectable degenerate: {}",
                    out.response
                );
            }
        }
        // degeneracy_probability ≈ 0.7–1.3%; allow a wide band.
        assert!(degens > 2 && degens < 80, "degens = {degens}");
    }

    #[test]
    fn weak_backbone_repairs_less() {
        let weak_b = Backbone::load(BackboneKind::Llama7b);
        let strong_b = Backbone::load(BackboneKind::ChatGlm2_6b);
        let empty = Adapter::new(AdapterConfig::default());
        let tw = Transducer::new(&weak_b, &empty);
        let ts = Transducer::new(&strong_b, &empty);
        assert!(tw.apply_probability() < ts.apply_probability());
    }

    #[test]
    fn join_words_respects_punctuation() {
        assert_eq!(join_words(&["Hello", ",", "world", "!"]), "Hello, world!");
    }

    #[test]
    fn counter_keys_are_prefixed_labels() {
        let mut labels = std::collections::HashSet::new();
        for tag in RepairTag::ALL {
            assert_eq!(tag.counter_key(), format!("repair:{}", tag.label()));
            assert!(
                labels.insert(tag.label()),
                "duplicate label {}",
                tag.label()
            );
        }
    }

    /// The `choose_augment` the borrowing one replaced: it built the whole
    /// pool, cloning every learned text, to return one of them.
    fn reference_choose_augment<R: Rng>(
        rng: &mut R,
        learned: Option<(&[String], u64)>,
        templates: &[&str],
    ) -> Option<String> {
        let mut pool: Vec<String> = Vec::new();
        if let Some((texts, _)) = learned {
            pool.extend(texts.iter().cloned());
        }
        pool.extend(templates.iter().map(|s| (*s).to_string()));
        if pool.is_empty() {
            None
        } else {
            let idx = rng.gen_range(0..pool.len());
            Some(pool.swap_remove(idx))
        }
    }

    #[test]
    fn borrowed_augment_choice_matches_the_cloning_reference() {
        use rand::RngCore;
        let learned: Vec<String> = (0..160).map(|i| format!("Learned closer {i}.")).collect();
        let warmth = crate::knowledge::WARMTH_TEMPLATES;
        for case in 0..proptest::cases() {
            let mut gen = proptest::case_rng(
                "borrowed_augment_choice_matches_the_cloning_reference",
                case,
            );
            let texts = &learned[..gen.gen_range(0..=learned.len())];
            let material = gen.gen_bool(0.8).then_some((texts, 3u64));
            let templates = &warmth[..gen.gen_range(0..=warmth.len())];
            let seed: u64 = gen.gen();
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert_eq!(
                choose_augment(&mut a, material, templates).map(str::to_string),
                reference_choose_augment(&mut b, material, templates),
                "case {case}"
            );
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "case {case}: draw counts differ"
            );
        }
    }
}
