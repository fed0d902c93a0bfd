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
use crate::rules::{AugmentKind, PhraseIndex, RuleSet};
use coachlm_text::lexicon::{LexiconHits, MarkerList, Topic};
use coachlm_text::normalize;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

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

/// What decoding reads from a `(backbone, adapter)` pair that never
/// changes once the adapter is trained: the learned expansion sentences,
/// ranked by the backbone's fluency, and for each rule side the words
/// that start a phrase rule. A coach builds these once, when it is
/// trained or decoded from bytes; they are derived, never serialised.
#[derive(Debug)]
pub struct DecodeTables {
    /// Learned `ExpandResponse` sentences in rank order.
    expansions: Vec<RankedSentence>,
    instruction_index: PhraseIndex,
    response_index: PhraseIndex,
}

impl DecodeTables {
    /// Ranks the adapter's learned expansion sentences with the backbone's
    /// n-gram fluency and indexes both rule sides.
    pub fn new(backbone: &Backbone, adapter: &Adapter) -> Self {
        let learned = adapter
            .response_rules
            .augment_material(AugmentKind::ExpandResponse)
            .map_or(&[][..], |(texts, _)| texts);
        // Scored straight from the model: the fluency cache is left to the
        // per-pair filled templates.
        let mut expansions: Vec<RankedSentence> = learned
            .iter()
            .map(|text| RankedSentence::new(backbone.lm().fluency(text), text.clone()))
            .collect();
        expansions.sort_by(RankedSentence::rank);
        Self {
            expansions,
            instruction_index: adapter.instruction_rules.phrase_index(),
            response_index: adapter.response_rules.phrase_index(),
        }
    }
}

/// An expansion sentence with its rank key and whether it carries the
/// expert bar's "for example" marker.
#[derive(Debug)]
struct RankedSentence {
    fluency: f64,
    text: String,
    has_example: bool,
}

impl RankedSentence {
    fn new(fluency: f64, text: String) -> Self {
        Self {
            fluency,
            has_example: has_example(&text),
            text,
        }
    }

    /// Rank order: more fluent first, then by text. Stronger backbones
    /// pick better prose.
    fn rank(&self, other: &Self) -> Ordering {
        other
            .fluency
            .total_cmp(&self.fluency)
            .then_with(|| self.text.cmp(&other.text))
    }
}

/// Whether a sentence carries the expert bar's concrete-example marker.
fn has_example(text: &str) -> bool {
    normalize::fold_case(text).contains("for example")
}

/// One side's text under revision and what of the lexicon it holds: the
/// text is walked on the first check after each repair, so every check on
/// one version of the text reads one walk.
struct Draft {
    text: String,
    hits: Option<LexiconHits>,
}

impl Draft {
    fn new(text: &str) -> Self {
        Self {
            text: text.to_string(),
            hits: None,
        }
    }

    /// The lexicon found in the text as it stands.
    fn hits(&mut self) -> LexiconHits {
        *self.hits.get_or_insert_with(|| LexiconHits::of(&self.text))
    }

    /// Replaces the text with a repaired one.
    fn set(&mut self, text: String) {
        self.text = text;
        self.hits = None;
    }
}

/// The learned and filled sentences as one list in rank order, merged
/// lazily; a learned sentence goes first on a tie, as it did when both
/// sat in one learned-then-filled list under a stable sort.
struct RankedPool<'s> {
    learned: std::iter::Peekable<std::slice::Iter<'s, RankedSentence>>,
    filled: std::iter::Peekable<std::slice::Iter<'s, RankedSentence>>,
}

impl<'s> Iterator for RankedPool<'s> {
    type Item = &'s RankedSentence;

    fn next(&mut self) -> Option<&'s RankedSentence> {
        match (self.learned.peek(), self.filled.peek()) {
            (Some(l), Some(f)) if l.rank(f) == Ordering::Greater => self.filled.next(),
            (Some(_), _) => self.learned.next(),
            (None, _) => self.filled.next(),
        }
    }
}

/// A revision decoder over `(backbone, adapter)` and the [`DecodeTables`]
/// built from them.
#[derive(Debug)]
pub struct Transducer<'a> {
    backbone: &'a Backbone,
    adapter: &'a Adapter,
    tables: &'a DecodeTables,
}

impl<'a> Transducer<'a> {
    /// Creates a transducer. `tables` must come from
    /// [`DecodeTables::new`] over the same backbone and adapter.
    pub fn new(backbone: &'a Backbone, adapter: &'a Adapter, tables: &'a DecodeTables) -> Self {
        Self {
            backbone,
            adapter,
            tables,
        }
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
        let mut draft = Draft::new(instruction);

        // Infeasible requirements: strip the offending phrase.
        if let Some(marker) = draft.hits().first_marker(MarkerList::Infeasible) {
            if rng.gen_bool(p) {
                draft.set(normalize::remove_phrase(&draft.text, marker));
                repairs.push(RepairTag::InfeasibleFix);
            }
        }

        // Vague instructions: rewrite around the topic.
        if draft.hits().has_marker(MarkerList::Vague) && rng.gen_bool(p) {
            let topic = Topic::new(&draft.text);
            let templates = kb.clarifications();
            if !templates.is_empty() {
                if let Some(topic_word) = topic.words().next() {
                    draft.set(self.pick_fluent(rng, templates, topic_word));
                    repairs.push(RepairTag::VagueRewrite);
                }
            }
        }

        // Lexical repairs: learned phrase rules + backbone typo/grammar.
        repairs.extend(apply_lexical(
            rng,
            p,
            kb,
            &self.adapter.instruction_rules,
            &self.tables.instruction_index,
            &mut draft,
        ));

        // Context enrichment (advanced dimension — applied sparingly: the
        // paper observes CoachLM "primarily adjusted the logical and
        // linguistic aspects of the INSTRUCTIONS without adding much new
        // content", §III-B1).
        if !draft.hits().has_marker(MarkerList::Context) && rng.gen_bool(p * 0.06) {
            let templates = kb.contexts();
            let learned = self
                .adapter
                .instruction_rules
                .augment_material(AugmentKind::AddContext);
            let chosen = choose_augment(rng, learned, templates);
            if let Some(add) = chosen {
                draft.set(format!("{} {}", draft.text.trim_end(), add));
                repairs.push(RepairTag::ContextAdd);
            }
        }

        // Layout adjustment (the 68.1% "Adjust" class of Table IV).
        let mut text = draft.text;
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
        let mut draft = Draft::new(response);
        let topic = Topic::new(instruction);
        let topic_word = topic.words().next();

        // Safety red line first: aligned backbones front-load this.
        if draft.hits().has_marker(MarkerList::Unsafe) {
            let p_safe = p
                .max(self.backbone.profile().alignment_prior + 0.3)
                .min(0.98);
            if rng.gen_bool(p_safe) {
                let tmpl = kb.safe_completions();
                let lead = tmpl[rng.gen_range(0..tmpl.len())];
                let safe = self.compose_on_topic(rng, topic_word, 2);
                draft.set(format!("{lead} {safe}"));
                repairs.push(RepairTag::Safety);
            }
        }

        // Relevance: rewrite off-topic responses around the instruction. A
        // topic without words is never missed.
        if topic.missed_by(&draft.text) && rng.gen_bool(p) {
            draft.set(self.compose_on_topic(rng, topic_word, 3));
            repairs.push(RepairTag::RelevanceRewrite);
        }

        // Truncation: complete the dangling sentence.
        if is_truncated(&draft.text) && rng.gen_bool(p) {
            let trimmed = draft
                .text
                .trim_end()
                .trim_end_matches("...")
                .trim_end_matches([',', ';', ' '])
                .to_string();
            let learned = self
                .adapter
                .response_rules
                .augment_material(AugmentKind::Complete);
            let closer = choose_augment(rng, learned, kb.expansions())
                .map(|c| KnowledgeBase::fill(c, topic_word.unwrap_or("this")))
                .unwrap_or_else(|| "and the remaining part follows the same pattern.".to_string());
            draft.set(format!(
                "{} {}",
                normalize::ensure_terminal_punctuation(&trimmed),
                closer
            ));
            repairs.push(RepairTag::Complete);
        }

        // Lexical repairs: learned phrase rules + typo/grammar + facts.
        repairs.extend(apply_lexical(
            rng,
            p,
            kb,
            &self.adapter.response_rules,
            &self.tables.response_index,
            &mut draft,
        ));
        if let Some((wrong, right)) = kb.fact_correction(&draft.hits()) {
            if rng.gen_bool(p) {
                draft.set(draft.text.replace(wrong, right));
                repairs.push(RepairTag::Fact);
            }
        }

        // Expansion: the dominant revision class (43.7% of Table IV); it is
        // what drives the Table VII length growth (44 → 143 words).
        // CoachLM learned the expert bar (reasoning + example + ≥55 words),
        // so it expands anything below it — which is why Table VII's revised
        // responses average 3× the original length.
        let word_count = coachlm_text::token::word_count(&draft.text);
        let hits = draft.hits();
        let thin = word_count < THIN_RESPONSE_WORDS;
        // Expansion fires slightly less reliably than lexical repairs —
        // composing new content is the hardest revision class, and the
        // paper's revised dataset keeps ~21% of pairs below the 4.5 bar.
        if (thin || !hits.has_marker(MarkerList::Reasoning) || !hits.has_example())
            && rng.gen_bool(p * 0.85)
        {
            // Enough sentences (~13 words each) to land near the paper's
            // revised-length average, plus reasoning/example markers.
            let deficit = 90usize.saturating_sub(word_count);
            let sentences = (deficit / 13).clamp(2, 7);
            let addition = self.compose_on_topic_avoiding(rng, topic_word, sentences, &draft.text);
            if !addition.is_empty() {
                draft.set(format!(
                    "{} {}",
                    normalize::ensure_terminal_punctuation(&draft.text),
                    addition
                ));
                repairs.push(RepairTag::Expand);
            }
        }

        // Tone: strip machine boilerplate, add warmth.
        if let Some(marker) = draft.hits().first_marker(MarkerList::MachineTone) {
            if rng.gen_bool(p) {
                draft.set(normalize::remove_phrase(&draft.text, marker));
                repairs.push(RepairTag::WarmTone);
            }
        }
        if !draft.hits().has_marker(MarkerList::Warm) && rng.gen_bool(p * 0.5) {
            let learned = self
                .adapter
                .response_rules
                .augment_material(AugmentKind::WarmTone);
            if let Some(warm) = choose_augment(rng, learned, kb.warmth()) {
                let text = normalize::ensure_terminal_punctuation(&draft.text);
                draft.set(format!("{text} {warm}"));
                repairs.push(RepairTag::WarmTone);
            }
        }

        // Layout.
        let mut text = draft.text;
        if rng.gen_bool(p) {
            let tidy = normalize::normalize_layout(&text);
            if tidy != text {
                text = tidy;
                repairs.push(RepairTag::Layout);
            }
        }
        text
    }

    /// Composes `n` sentences on the topic word (if any) from expansion
    /// material, preferring learned augment texts, scored for fluency by
    /// the backbone.
    fn compose_on_topic<R: Rng>(&self, rng: &mut R, topic: Option<&str>, n: usize) -> String {
        self.compose_on_topic_avoiding(rng, topic, n, "")
    }

    /// Like [`Self::compose_on_topic`], but skips sentences already present
    /// in `avoid` (prevents duplicate expansions after a rewrite).
    ///
    /// The learned sentences were ranked when the coach was built; only the
    /// filled templates are scored here, and the two lists are merged
    /// lazily. The draw needs the first `n + 3` sentences `avoid` does not
    /// contain (the rotation starts at one of the first three), plus the
    /// first "for example" sentence when the picks lack one.
    fn compose_on_topic_avoiding<R: Rng>(
        &self,
        rng: &mut R,
        topic: Option<&str>,
        n: usize,
        avoid: &str,
    ) -> String {
        let topic_word = topic.unwrap_or("the topic");
        let mut filled: Vec<RankedSentence> = self
            .backbone
            .knowledge()
            .expansions()
            .iter()
            .map(|t| {
                let text = KnowledgeBase::fill(t, topic_word);
                RankedSentence::new(self.backbone.fluency(&text), text)
            })
            .collect();
        filled.sort_by(RankedSentence::rank);
        let mut pool = RankedPool {
            learned: self.tables.expansions.iter().peekable(),
            filled: filled.iter().peekable(),
        };
        let unused = |s: &&RankedSentence| !avoid.contains(&s.text);
        let head: Vec<&RankedSentence> = pool
            .by_ref()
            .filter(unused)
            .take(n.saturating_add(3))
            .collect();
        if head.is_empty() {
            return String::new();
        }
        // A seeded rotation so output varies across pairs. A full head is
        // longer than any rotation reaches, so cycling it equals cycling
        // the whole list; a short head is the whole list.
        let start = rng.gen_range(0..head.len().min(3));
        let mut picked: Vec<&RankedSentence> = head
            .iter()
            .copied()
            .cycle()
            .skip(start)
            .take(n.min(head.len()))
            .collect();
        // The expert bar includes a concrete example; make sure one of the
        // picked sentences carries the marker when the pool has one.
        if !picked.iter().any(|s| s.has_example) && !avoid.to_lowercase().contains("for example") {
            let example = head
                .iter()
                .copied()
                .chain(pool.filter(unused))
                .find(|s| s.has_example);
            if let Some(example) = example {
                if let Some(last) = picked.last_mut() {
                    *last = example;
                } else {
                    picked.push(example);
                }
            }
        }
        picked.dedup_by(|a, b| a.text == b.text);
        let texts: Vec<&str> = picked.iter().map(|s| s.text.as_str()).collect();
        texts.join(" ")
    }

    /// Fills each template with the topic word and returns the most fluent
    /// one.
    fn pick_fluent<R: Rng>(&self, rng: &mut R, templates: &[&str], topic_word: &str) -> String {
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
/// first), then backbone typo and grammar corrections, applied to `draft`;
/// returns the repairs made. `index` is `rules.phrase_index()`, built once
/// per coach.
fn apply_lexical<R: Rng>(
    rng: &mut R,
    p: f64,
    kb: &KnowledgeBase,
    rules: &RuleSet,
    index: &PhraseIndex,
    draft: &mut Draft,
) -> Vec<RepairTag> {
    let mut tags = Vec::new();
    let words = coachlm_text::token::words(&draft.text);
    // Each word is folded once; rule windows are slices of these.
    let folded: Vec<String> = words.iter().map(|w| normalize::fold_case(w)).collect();
    let max_len = index.max_from_len().clamp(1, 5);
    let mut out: Vec<&str> = Vec::with_capacity(words.len());
    let mut i = 0usize;
    'outer: while i < words.len() {
        // Longest-match learned rule. A window whose first word starts no
        // rule matches none, so only rule-starting words are tried.
        let tries = if index.starts_rule(&folded[i]) {
            max_len.min(words.len() - i)
        } else {
            0
        };
        for len in (1..=tries).rev() {
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
    if !tags.is_empty() {
        draft.set(join_words(&out));
    }
    // Grammar phrases operate on the joined text.
    while let Some((wrong, right)) = kb.grammar_correction(&draft.hits()) {
        if !rng.gen_bool(p) {
            break;
        }
        let Some(range) = normalize::find_folded(&draft.text, wrong) else {
            break;
        };
        let mut fixed = std::mem::take(&mut draft.text);
        fixed.replace_range(range, right);
        draft.set(fixed);
        tags.push(RepairTag::Grammar);
    }
    tags
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

    /// A backbone and adapter with the decode tables built from them.
    struct Setup {
        backbone: Backbone,
        adapter: Adapter,
        tables: DecodeTables,
    }

    impl Setup {
        fn new(backbone: Backbone, adapter: Adapter) -> Self {
            let tables = DecodeTables::new(&backbone, &adapter);
            Self {
                backbone,
                adapter,
                tables,
            }
        }

        fn transducer(&self) -> Transducer<'_> {
            Transducer::new(&self.backbone, &self.adapter, &self.tables)
        }
    }

    fn strong_setup() -> Setup {
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
        Setup::new(backbone, adapter)
    }

    #[test]
    fn trained_transducer_fires_reliably() {
        let setup = strong_setup();
        let t = setup.transducer();
        assert!(t.apply_probability() > 0.9, "p = {}", t.apply_probability());
    }

    #[test]
    fn untrained_transducer_uses_prior_only() {
        let setup = Setup::new(
            Backbone::load(BackboneKind::ChatGlm2_6b),
            Adapter::new(AdapterConfig::default()),
        );
        let prior = setup.backbone.profile().alignment_prior;
        assert!((setup.transducer().apply_probability() - prior).abs() < 1e-9);
    }

    #[test]
    fn fixes_typos_in_both_sides() {
        let setup = strong_setup();
        let t = setup.transducer();
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
        let setup = strong_setup();
        let t = setup.transducer();
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
        let setup = strong_setup();
        let t = setup.transducer();
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
        let overlap = coachlm_text::lexicon::content_overlap(
            "Describe the climate of the Sahara desert",
            &out.response,
        );
        assert!(overlap > 0.2, "overlap {overlap}: {}", out.response);
    }

    #[test]
    fn replaces_unsafe_content() {
        let setup = strong_setup();
        let t = setup.transducer();
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
        assert!(!LexiconHits::of(&out.response).has_marker(MarkerList::Unsafe));
    }

    #[test]
    fn completes_truncated_responses() {
        let setup = strong_setup();
        let t = setup.transducer();
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
        let setup = strong_setup();
        let t = setup.transducer();
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
        assert!(!LexiconHits::of(&out.instruction).has_marker(MarkerList::Infeasible));
    }

    #[test]
    fn deterministic_given_seed() {
        let setup = strong_setup();
        let t = setup.transducer();
        let mut r1 = StdRng::seed_from_u64(77);
        let mut r2 = StdRng::seed_from_u64(77);
        let o1 = t.revise_pair(&mut r1, "Explain teh tides", "The moon pulls water.");
        let o2 = t.revise_pair(&mut r2, "Explain teh tides", "The moon pulls water.");
        assert_eq!(o1, o2);
    }

    #[test]
    fn degenerate_outputs_flagged() {
        let setup = strong_setup();
        let t = setup.transducer();
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
        let untrained =
            |kind| Setup::new(Backbone::load(kind), Adapter::new(AdapterConfig::default()));
        let weak = untrained(BackboneKind::Llama7b);
        let strong = untrained(BackboneKind::ChatGlm2_6b);
        assert!(weak.transducer().apply_probability() < strong.transducer().apply_probability());
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

    /// The `compose_on_topic_avoiding` the ranked tables replaced: it
    /// scored and sorted every learned sentence beside the filled
    /// templates on every call.
    fn reference_compose_on_topic_avoiding<R: Rng>(
        backbone: &Backbone,
        adapter: &Adapter,
        rng: &mut R,
        topic: &[String],
        n: usize,
        avoid: &str,
    ) -> String {
        let learned = adapter
            .response_rules
            .augment_material(AugmentKind::ExpandResponse)
            .map_or(&[][..], |(texts, _)| texts);
        let topic_word = topic.first().map(String::as_str).unwrap_or("the topic");
        let filled: Vec<String> = backbone
            .knowledge()
            .expansions()
            .iter()
            .map(|t| KnowledgeBase::fill(t, topic_word))
            .collect();
        let mut scored: Vec<(f64, &str)> = learned
            .iter()
            .chain(&filled)
            .map(String::as_str)
            .filter(|s| !avoid.contains(s))
            .map(|s| (backbone.fluency(s), s))
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

    /// The lexical pass before the phrase index: it tried every window
    /// length at every word, up to a longest-source length recomputed on
    /// every call.
    fn reference_apply_lexical<R: Rng>(
        rng: &mut R,
        p: f64,
        kb: &KnowledgeBase,
        rules: &RuleSet,
        text: &str,
    ) -> (String, Vec<RepairTag>) {
        let mut tags = Vec::new();
        let words = coachlm_text::token::words(text);
        let folded: Vec<String> = words.iter().map(|w| normalize::fold_case(w)).collect();
        let max_from_len = rules
            .phrase_rules()
            .iter()
            .map(|rule| match &rule.action {
                crate::rules::RuleAction::Phrase { from, .. } => from.len(),
                crate::rules::RuleAction::Augment { .. } => 0,
            })
            .max()
            .unwrap_or(0);
        let max_len = max_from_len.clamp(1, 5);
        let mut out: Vec<&str> = Vec::with_capacity(words.len());
        let mut i = 0usize;
        'outer: while i < words.len() {
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
        let mut joined = if tags.is_empty() {
            text.to_string()
        } else {
            join_words(&out)
        };
        while let Some((wrong, right)) = kb.grammar_correction(&LexiconHits::of(&joined)) {
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

    /// Learned expansion sentences for one property case: generated
    /// sentences (with the example marker only when `with_example`), and
    /// one sentence equal to a filled template, so that a learned and a
    /// filled candidate tie on rank.
    fn learned_expansions<R: Rng>(
        gen: &mut R,
        topic_word: &str,
        with_example: bool,
    ) -> Vec<String> {
        const SUBJECTS: &[&str] = &["water", "the model", "a plant", "heat", "the answer"];
        const VERBS: &[&str] = &["changes", "explains", "drives", "follows", "shapes"];
        let mut texts: Vec<String> = (0..gen.gen_range(0..12))
            .map(|_| {
                let subject = SUBJECTS[gen.gen_range(0..SUBJECTS.len())];
                let verb = VERBS[gen.gen_range(0..VERBS.len())];
                if with_example && gen.gen_bool(0.3) {
                    let lead =
                        ["For example,", "FOR EXAMPLE,", "for example"][gen.gen_range(0..3usize)];
                    format!("{lead} {subject} {verb} the result.")
                } else {
                    format!("This is because {subject} {verb} {topic_word}.")
                }
            })
            .collect();
        let templates = crate::knowledge::EXPANSION_TEMPLATES;
        let tie = loop {
            let t = KnowledgeBase::fill(templates[gen.gen_range(0..templates.len())], topic_word);
            if with_example || !has_example(&t) {
                break t;
            }
        };
        let at = gen.gen_range(0..=texts.len());
        texts.insert(at, tie);
        if gen.gen_bool(0.2) && !texts.is_empty() {
            // A repeated sentence: equal keys inside the learned list.
            let dup = texts[gen.gen_range(0..texts.len())].clone();
            texts.push(dup);
        }
        texts
    }

    #[test]
    fn ranked_composition_matches_the_per_call_reference() {
        use rand::RngCore;
        let backbones = BackboneKind::ALL.map(Backbone::load);
        let topics: [&[&str]; 4] = [&["water", "cycle"], &["gravity"], &["Paris"], &[]];
        let (mut avoided_learned, mut short, mut ties, mut no_example) = (0, 0, 0, 0);
        for case in 0..proptest::cases() {
            let mut gen =
                proptest::case_rng("ranked_composition_matches_the_per_call_reference", case);
            let topic: Vec<String> = topics[gen.gen_range(0..topics.len())]
                .iter()
                .map(|w| w.to_string())
                .collect();
            let topic_word = topic.first().map(String::as_str).unwrap_or("the topic");
            for with_example in [true, false] {
                let learned = learned_expansions(&mut gen, topic_word, with_example);
                let mut adapter = Adapter::new(AdapterConfig::default());
                adapter
                    .response_rules
                    .set_augment_material(AugmentKind::ExpandResponse, learned.clone());
                for backbone in &backbones {
                    let tables = DecodeTables::new(backbone, &adapter);
                    let transducer = Transducer::new(backbone, &adapter, &tables);
                    let filled: Vec<String> = backbone
                        .knowledge()
                        .expansions()
                        .iter()
                        .map(|t| KnowledgeBase::fill(t, topic_word))
                        .collect();
                    let some_learned: Vec<&str> = learned
                        .iter()
                        .filter(|_| gen.gen_bool(0.4))
                        .map(String::as_str)
                        .collect();
                    let some_filled: Vec<&str> = filled
                        .iter()
                        .filter(|f| has_example(f) || gen.gen_bool(0.5))
                        .map(String::as_str)
                        .collect();
                    let avoids = [
                        String::new(),
                        some_learned.join(" "),
                        format!("{} and so, for example, on.", some_learned.join(" ")),
                        format!("{} {}", some_learned.join(" "), some_filled.join(" ")),
                        format!("{} {}", learned.join(" "), filled.join(" ")),
                    ];
                    for avoid in &avoids {
                        let survivors: Vec<&str> = learned
                            .iter()
                            .chain(&filled)
                            .map(String::as_str)
                            .filter(|s| !avoid.contains(s))
                            .collect();
                        avoided_learned +=
                            usize::from(learned.iter().any(|l| avoid.contains(l.as_str())));
                        ties += usize::from(
                            filled
                                .iter()
                                .any(|f| learned.contains(f) && !avoid.contains(f.as_str())),
                        );
                        no_example += usize::from(!survivors.iter().any(|s| has_example(s)));
                        for n in [0, 1, 2, 3, 5, 7, 12] {
                            short += usize::from(survivors.len() < n + 3);
                            let seed: u64 = gen.gen();
                            let (mut a, mut b) =
                                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                            let topic_word = topic.first().map(String::as_str);
                            assert_eq!(
                                transducer.compose_on_topic_avoiding(&mut a, topic_word, n, avoid),
                                reference_compose_on_topic_avoiding(
                                    backbone, &adapter, &mut b, &topic, n, avoid
                                ),
                                "case {case}, {:?}, n {n}, avoid {avoid:?}",
                                backbone.profile().kind
                            );
                            assert_eq!(
                                a.next_u64(),
                                b.next_u64(),
                                "case {case}: draw counts differ"
                            );
                        }
                    }
                }
            }
        }
        // What the cases actually covered.
        assert!(
            avoided_learned > 0,
            "no avoid text contained a learned sentence"
        );
        assert!(short > 0, "no pool ran short of n + 3 sentences");
        assert!(ties > 0, "no learned sentence tied a filled template");
        assert!(no_example > 0, "every pool had a \"for example\" sentence");
    }

    fn pick(gen: &mut StdRng, words: &[&'static str]) -> &'static str {
        words[gen.gen_range(0..words.len())]
    }

    #[test]
    fn indexed_lexical_pass_matches_the_unindexed_reference() {
        use rand::RngCore;
        // Rule words share first words across lengths: "could" starts
        // rules of one, two and three words.
        const RULE_WORDS: &[&str] = &["could", "of", "teh", "alot", "very", "could", "the"];
        const FILLER: &[&str] = &[
            "Water", "rises", "and", ",", "falls", ".", "\n", "(", "it", ")",
        ];
        let mut shared_first_word = 0;
        for case in 0..proptest::cases() {
            let mut gen =
                proptest::case_rng("indexed_lexical_pass_matches_the_unindexed_reference", case);
            let mut rules = RuleSet::new();
            for from in [&["could"][..], &["could", "of"], &["could", "of", "been"]] {
                if gen.gen_bool(0.7) {
                    let to = ["could", "have"][..gen.gen_range(0..=2)]
                        .iter()
                        .map(|w| w.to_string());
                    rules.insert_phrase_rule(
                        from.iter().map(|w| w.to_string()).collect(),
                        to.collect(),
                    );
                }
            }
            for _ in 0..gen.gen_range(0..8) {
                // Lengths up to 6: decoding never tries a window past 5.
                let from: Vec<String> = (0..gen.gen_range(1..=6))
                    .map(|_| pick(&mut gen, RULE_WORDS).to_string())
                    .collect();
                let to: Vec<String> = (0..gen.gen_range(0..3))
                    .map(|_| pick(&mut gen, &["The", "a lot", "very", "have"]).to_string())
                    .collect();
                rules.insert_phrase_rule(from, to);
            }
            let index = rules.phrase_index();
            let sources: Vec<String> = rules
                .phrase_rules()
                .iter()
                .filter_map(|rule| match &rule.action {
                    crate::rules::RuleAction::Phrase { from, .. } => Some(from.join(" ")),
                    crate::rules::RuleAction::Augment { .. } => None,
                })
                .collect();
            shared_first_word += usize::from(sources.iter().any(|a| {
                sources.iter().any(|b| {
                    a.split(' ').next() == b.split(' ').next()
                        && a.split(' ').count() != b.split(' ').count()
                })
            }));
            let kb = KnowledgeBase::with_coverage(gen.gen_range(0.0..=1.0));
            for _ in 0..8 {
                let words: Vec<String> = (0..gen.gen_range(0..30))
                    .map(|_| {
                        let w = if gen.gen_bool(0.25) && !sources.is_empty() {
                            // A whole rule source, so long rules match too.
                            sources[gen.gen_range(0..sources.len())].as_str()
                        } else if gen.gen_bool(0.5) {
                            pick(&mut gen, RULE_WORDS)
                        } else if gen.gen_bool(0.2) {
                            pick(&mut gen, &["becuase", "wich", "could of", "alot of"])
                        } else {
                            pick(&mut gen, FILLER)
                        };
                        if gen.gen_bool(0.2) {
                            w.to_uppercase()
                        } else {
                            w.to_string()
                        }
                    })
                    .collect();
                let text = words.join(" ");
                let p = [0.0, 0.4, 0.9, 1.0][gen.gen_range(0..4usize)];
                let seed: u64 = gen.gen();
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut draft = Draft::new(&text);
                let tags = apply_lexical(&mut a, p, &kb, &rules, &index, &mut draft);
                assert_eq!(
                    (draft.text, tags),
                    reference_apply_lexical(&mut b, p, &kb, &rules, &text),
                    "case {case}: {text:?}"
                );
                assert_eq!(
                    a.next_u64(),
                    b.next_u64(),
                    "case {case}: draw counts differ"
                );
            }
        }
        assert!(shared_first_word > 0, "no two rules shared a first word");
    }
}
