//! The expert revision engine (§II-E2).
//!
//! Experts follow the principle of "making all necessary revisions": every
//! dimension the Table II criteria flag gets repaired, and the unit owner's
//! quality control re-runs the rubric until the pair scores ≥ 95 on the
//! response and carries no basic instruction flaws. Unlike CoachLM's
//! transducer, the expert reviser is *deterministic and complete*: full
//! lexicon coverage, no application probability — that asymmetry (expert =
//! ground truth, model = learned approximation) is the premise of coach
//! instruction tuning.

use crate::pool::ExpertPool;
use coachlm_data::pair::{Dataset, InstructionPair};
use coachlm_judge::criteria::{CriteriaEngine, PairScores};
use coachlm_lm::knowledge::KnowledgeBase;
use coachlm_runtime::{Executor, ExecutorConfig, Stage, StageCtx, StageItem, StageOutcome};
use coachlm_text::fxhash::FxHashSet;
use coachlm_text::lexicon::{LexiconHits, MarkerList, Topic};
use coachlm_text::normalize;
use coachlm_text::profile::TextProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Table IV revision categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RevisionKind {
    /// Instruction: adjust language/layout (Readability, 68.1 %).
    AdjustInstruction,
    /// Instruction: rewrite infeasible/ambiguous parts (Feasibility, 24.9 %).
    RewriteInstruction,
    /// Instruction: diversify context (Contextualization, 7.0 %).
    DiversifyInstruction,
    /// Response: diversify angles / expand reasoning (43.7 %).
    DiversifyResponse,
    /// Response: rewrite for fluency/relevance/logic (24.5 %).
    RewriteResponse,
    /// Response: adjust layout/tone (23.3 %).
    AdjustResponse,
    /// Response: correct facts/calculations (6.7 %).
    CorrectResponse,
    /// Response: safety mitigation and other complex cases (1.9 %).
    OtherResponse,
}

/// One expert revision: `(x, x_r)` plus provenance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RevisionRecord {
    /// Pair id.
    pub id: u64,
    /// The routed expert (group A).
    pub expert: u32,
    /// Original pair `x`.
    pub original: InstructionPair,
    /// Revised pair `x_r`.
    pub revised: InstructionPair,
    /// Whether the instruction side changed.
    pub instruction_revised: bool,
    /// Primary Table IV category of the instruction revision.
    pub instruction_kind: Option<RevisionKind>,
    /// Primary Table IV category of the response revision.
    pub response_kind: Option<RevisionKind>,
    /// Owner QC iterations needed.
    pub qc_iterations: u32,
    /// Final rubric scores.
    pub final_scores: PairScores,
}

/// The rubric-driven reviser.
#[derive(Debug)]
pub struct ExpertReviser {
    engine: CriteriaEngine,
    kb: KnowledgeBase,
    seed: u64,
}

/// QC acceptance: response score threshold (§II-E2 "a score of 95 or
/// higher").
const QC_RESPONSE_TARGET: f64 = 95.0;
/// Probability the expert enriches an otherwise adjust-only instruction
/// with extra context (yields Table IV's 7 % Diversify share).
const CONTEXT_ENRICH_P: f64 = 0.035;

/// The expert revision step as an executor stage: pairs outside the kept
/// set are discarded; kept pairs the rubric flags are revised in place,
/// with the full [`RevisionRecord`] attached as the item payload.
pub struct ExpertReviseStage<'a> {
    reviser: &'a ExpertReviser,
    pool: &'a ExpertPool,
    kept: FxHashSet<u64>,
}

impl<'a> ExpertReviseStage<'a> {
    /// The stage's report name.
    pub const NAME: &'static str = "expert-revise";

    /// A stage revising the pairs in `kept_ids` with `reviser`.
    pub fn new(reviser: &'a ExpertReviser, pool: &'a ExpertPool, kept_ids: &[u64]) -> Self {
        ExpertReviseStage {
            reviser,
            pool,
            kept: kept_ids.iter().copied().collect(),
        }
    }
}

impl Stage for ExpertReviseStage<'_> {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        if !self.kept.contains(&item.pair.id) {
            item.discard("not-kept");
            ctx.bump("skipped");
            return StageOutcome::Ok;
        }
        match self.reviser.revise(self.pool, &item.pair) {
            Some(rec) => {
                item.pair = rec.revised.clone();
                item.set_payload(rec);
                ctx.bump("revised");
            }
            None => ctx.bump("already-acceptable"),
        }
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // Budget for one modelled expert revision of a pair.
        Some(std::time::Duration::from_secs(5))
    }
}

impl ExpertReviser {
    /// Creates a reviser (full knowledge coverage).
    pub fn new(seed: u64) -> Self {
        Self {
            engine: CriteriaEngine::new(),
            kb: KnowledgeBase::with_coverage(1.0),
            seed,
        }
    }

    /// Whether the rubric demands a revision of this pair at all.
    pub fn needs_revision(&self, pair: &InstructionPair) -> bool {
        let instruction = TextProfile::new(&pair.instruction);
        let topic = Topic::new(&pair.instruction);
        let response = TextProfile::new(&pair.response);
        self.demands_revision(&instruction, &topic, &pair.response, &response)
    }

    /// [`needs_revision`](Self::needs_revision) from the instruction's
    /// profile and topic, and the response and its profile.
    fn demands_revision(
        &self,
        instruction: &TextProfile,
        topic: &Topic,
        response: &str,
        response_profile: &TextProfile,
    ) -> bool {
        let ia = self.engine.instruction_from(instruction);
        let ra = self.engine.response_from(topic, response, response_profile);
        ia.basic_flaws() > 0
            || ra.basic_flaws() > 0
            || ra.unsafe_content
            || ra.machine_tone
            || !ra.readable()
    }

    /// The RNG of the QC loop for `pair`.
    fn pair_rng(&self, pair: &InstructionPair) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ pair.id.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }

    /// Revises one pair if the rubric demands it; `None` otherwise.
    pub fn revise(&self, pool: &ExpertPool, pair: &InstructionPair) -> Option<RevisionRecord> {
        let instruction = TextProfile::new(&pair.instruction);
        let topic = Topic::new(&pair.instruction);
        let response = TextProfile::new(&pair.response);
        if !self.demands_revision(&instruction, &topic, &pair.response, &response) {
            return None;
        }
        let instruction = Profiled::with(pair.instruction.clone(), instruction, Some(topic));
        let response = Profiled::with(pair.response.clone(), response, None);
        Some(self.qc_loop(&mut self.pair_rng(pair), pool, pair, instruction, response))
    }

    /// The owner QC loop: repair, re-score, repeat until acceptance. The
    /// profiles the rubric reads are carried from pass to pass and rebuilt
    /// only for a text that changed.
    fn qc_loop<R: Rng>(
        &self,
        rng: &mut R,
        pool: &ExpertPool,
        pair: &InstructionPair,
        mut instruction: Profiled,
        mut response: Profiled,
    ) -> RevisionRecord {
        let expert = pool.route(pair.category.class(), pair.id);
        let mut instruction_kind: Option<RevisionKind> = None;
        let mut response_kind: Option<RevisionKind> = None;
        let mut qc_iterations = 0u32;
        loop {
            qc_iterations += 1;
            self.repair_instruction(
                rng,
                &mut instruction,
                &mut instruction_kind,
                qc_iterations == 1,
            );
            self.repair_response(rng, instruction.topic(), &mut response, &mut response_kind);
            // What `score_pair` computes, with the instruction analysis
            // shared by the acceptance check.
            let ia = self.engine.instruction_from(instruction.profile().1);
            let (_, topic) = instruction.topic();
            let (text, rp) = response.profile();
            let ra = self.engine.response_from(topic, text, rp);
            let scores = PairScores {
                instruction: self.engine.score_instruction(&ia),
                response: self.engine.score_response(&ra),
            };
            let instr_ok = ia.basic_flaws() == 0;
            if (scores.response >= QC_RESPONSE_TARGET && instr_ok) || qc_iterations >= 4 {
                let instruction = instruction.text;
                let instruction_revised = instruction != pair.instruction;
                return RevisionRecord {
                    id: pair.id,
                    expert,
                    original: pair.clone(),
                    revised: InstructionPair::new(
                        pair.id,
                        instruction,
                        response.text,
                        pair.category,
                    ),
                    instruction_revised,
                    instruction_kind: instruction_revised
                        .then_some(instruction_kind.unwrap_or(RevisionKind::AdjustInstruction)),
                    response_kind: Some(response_kind.unwrap_or(RevisionKind::DiversifyResponse)),
                    qc_iterations,
                    final_scores: scores,
                };
            }
        }
    }

    /// Revises every kept pair of a dataset on the shared executor,
    /// returning the expert revision dataset `R` (only pairs that needed
    /// revision appear, in `kept_ids` dataset order).
    pub fn revise_dataset(
        &self,
        pool: &ExpertPool,
        dataset: &Dataset,
        kept_ids: &[u64],
    ) -> Vec<RevisionRecord> {
        let stages: Vec<Box<dyn Stage + '_>> =
            vec![Box::new(ExpertReviseStage::new(self, pool, kept_ids))];
        // The reviser seeds its own RNG per pair id, so the chain seed only
        // namespaces the (unused) ctx RNG.
        let run = Executor::new(ExecutorConfig::new(self.seed)).run(&stages, &dataset.pairs);
        run.items
            .into_iter()
            .filter_map(|mut item| item.take_payload::<RevisionRecord>())
            .collect()
    }

    // ---- instruction repairs ----------------------------------------------

    fn repair_instruction<R: Rng>(
        &self,
        rng: &mut R,
        instruction: &mut Profiled,
        kind: &mut Option<RevisionKind>,
        first_pass: bool,
    ) {
        let topic_word = instruction.topic().1.words().next().map(str::to_string);
        let mut rewrote = false;

        // Strip infeasible requirements.
        while let Some(m) = instruction
            .profile()
            .1
            .lexicon()
            .first_marker(MarkerList::Infeasible)
        {
            let removed = normalize::remove_phrase(&instruction.text, m);
            instruction.set(removed);
            rewrote = true;
        }
        // Retained Table III cases (§II-E2 "1.9% were cases that should
        // have fell into the categories of Table III"): rewrite into a
        // feasible, self-contained request on the same topic.
        let hits = *instruction.profile().1.lexicon();
        let rewrite = [
            MarkerList::InvalidInput,
            MarkerList::Multimodal,
            MarkerList::Expertise,
            MarkerList::Workload,
            MarkerList::Unsafe,
            MarkerList::Vague,
        ]
        .iter()
        .any(|&list| hits.has_marker(list));
        if rewrite {
            let templates = self.kb.clarifications();
            let topic_word = topic_word.as_deref().unwrap_or("the given subject");
            let t = templates[rng.gen_range(0..templates.len())];
            instruction.set(KnowledgeBase::fill(t, topic_word));
            rewrote = true;
        }

        // Lexical fixes.
        let fixed = self.fix_lexical(&instruction.text);
        let adjusted_lexical = fixed != instruction.text;
        instruction.set(fixed);

        // Layout.
        let tidy = normalize::normalize_layout(&instruction.text);
        let adjusted_layout = tidy != instruction.text;
        instruction.set(tidy);

        // Occasional context enrichment (Table IV's 7 % Diversify share);
        // only rolled on the first QC pass so iteration count doesn't
        // compound the probability.
        let mut diversified = false;
        if first_pass
            && !rewrote
            && !instruction
                .profile()
                .1
                .lexicon()
                .has_marker(MarkerList::Context)
            && rng.gen_bool(CONTEXT_ENRICH_P)
        {
            let contexts = self.kb.contexts();
            let c = contexts[rng.gen_range(0..contexts.len())];
            let enriched = format!("{} {c}", instruction.text.trim_end());
            instruction.set(enriched);
            diversified = true;
        }

        if kind.is_none() {
            *kind = if rewrote {
                Some(RevisionKind::RewriteInstruction)
            } else if diversified {
                Some(RevisionKind::DiversifyInstruction)
            } else if adjusted_lexical || adjusted_layout {
                Some(RevisionKind::AdjustInstruction)
            } else {
                None
            };
        }
    }

    // ---- response repairs -------------------------------------------------

    /// Repairs `response`. Of its instruction it reads the text and the
    /// topic.
    fn repair_response<R: Rng>(
        &self,
        rng: &mut R,
        (instruction, topic): (&str, &Topic),
        response: &mut Profiled,
        kind: &mut Option<RevisionKind>,
    ) {
        let topic_word = topic.words().next().unwrap_or("the topic").to_string();
        let (text, profile) = response.profile();
        let analysis = self.engine.response_from(topic, text, profile);

        let mut other = false;
        let mut rewrote = false;
        let mut corrected = false;
        let mut adjusted = false;

        // Safety first.
        if analysis.unsafe_content {
            let lead = self.kb.safe_completions()[0];
            response.set(format!(
                "{lead} {}",
                self.expansion_block(rng, &topic_word, 3)
            ));
            other = true;
        }

        // Format junk: clean and, if the template leaked, recompose.
        if analysis.degenerate && !other {
            response.set(coachlm_text::clean::clean_output(&response.text));
            if matches!(
                coachlm_text::clean::validate_pair(instruction, &response.text),
                coachlm_text::clean::Validity::TemplateLeak
            ) {
                response.set(self.expansion_block(rng, &topic_word, 3));
            }
            other = true;
        }

        // Relevance.
        if analysis.irrelevant && !other {
            response.set(self.expansion_block(rng, &topic_word, 3));
            rewrote = true;
        }

        // Facts.
        while let Some((wrong, right)) = self.kb.fact_correction(response.profile().1.lexicon()) {
            let fixed = response.text.replace(wrong, right);
            response.set(fixed);
            corrected = true;
        }

        // Lexical fluency.
        let mut lexical_fixed = false;
        let fixed = self.fix_lexical(&response.text);
        if fixed != response.text {
            lexical_fixed = true;
            response.set(fixed);
        }

        // Truncation: finish the dangling thought.
        if analysis.truncated {
            let trimmed = response
                .text
                .trim_end()
                .trim_end_matches("...")
                .trim_end_matches([',', ';', ' '])
                .to_string();
            response.set(format!(
                "{} {}",
                normalize::ensure_terminal_punctuation(&trimmed),
                self.expansion_block(rng, &topic_word, 1)
            ));
        }

        // Tone.
        if analysis.machine_tone {
            let hits = *response.profile().1.lexicon();
            if let Some(m) = hits.first_marker(MarkerList::MachineTone) {
                response.set(normalize::remove_phrase(&response.text, m));
                adjusted = true;
            }
        }

        // Expansion until the advanced band is reachable: reasoning,
        // example, substance (the dominant Table IV class). The loop ends
        // having profiled the response as it stands.
        let mut expanded = false;
        let mut guard = 0;
        loop {
            let (richness, words) = self.engine.richness_from(response.profile().1);
            if (richness >= 0.9 && words >= 50) || guard >= 4 {
                break;
            }
            guard += 1;
            let add = self.expansion_block(rng, &topic_word, 2);
            response.set(format!(
                "{} {add}",
                normalize::ensure_terminal_punctuation(&response.text)
            ));
            expanded = true;
        }

        // Warmth (optional: neutral tone already clears the QC bar). Only
        // considered when the response was substantively reworked — polish
        // passes on already-good responses stay minimal, which is what
        // populates the low-edit-distance tail of `R` (§II-F2).
        if (expanded || rewrote || other)
            && rng.gen_bool(0.5)
            && !response.profile().1.lexicon().has_marker(MarkerList::Warm)
        {
            let w = self.kb.warmth()[rng.gen_range(0..self.kb.warmth().len())];
            response.set(format!(
                "{} {w}",
                normalize::ensure_terminal_punctuation(&response.text)
            ));
            adjusted = true;
        }

        // Layout.
        let tidy = normalize::normalize_layout(&response.text);
        if tidy != response.text {
            response.set(tidy);
            adjusted = true;
        }

        if kind.is_none() {
            // Table IV primary-type priority, classified from the *initial*
            // analysis: what was wrong with the pair determines the primary
            // revision category, not the (near-universal) expansion that
            // also happened.
            *kind = if other {
                Some(RevisionKind::OtherResponse)
            } else if rewrote || lexical_fixed {
                Some(RevisionKind::RewriteResponse)
            } else if corrected {
                Some(RevisionKind::CorrectResponse)
            } else if analysis.machine_tone || analysis.layout_flaws > 0 {
                Some(RevisionKind::AdjustResponse)
            } else if expanded {
                Some(RevisionKind::DiversifyResponse)
            } else if adjusted {
                Some(RevisionKind::AdjustResponse)
            } else {
                None
            };
        }
    }

    /// Fixes every misspelling and grammar-pair error. Returns the input
    /// unchanged (same whitespace) when nothing needs fixing.
    fn fix_lexical(&self, text: &str) -> String {
        let words = coachlm_text::token::words(text);
        let mut fixed_any = false;
        let mut out: Vec<String> = Vec::with_capacity(words.len());
        for w in &words {
            match self.kb.typo_correction(&normalize::fold_case(w)) {
                Some(fix) => {
                    fixed_any = true;
                    out.push(fix.to_string());
                }
                None => out.push((*w).to_string()),
            }
        }
        let mut joined = if fixed_any {
            join_words(&out)
        } else {
            text.to_string()
        };
        while let Some((wrong, right)) = self.kb.grammar_correction(&LexiconHits::of(&joined)) {
            match normalize::find_folded(&joined, wrong) {
                Some(range) => joined.replace_range(range, right),
                None => break,
            }
        }
        joined
    }

    /// Composes `n` expansion sentences about `topic` (reasoning + example
    /// markers included so richness is detectable).
    fn expansion_block<R: Rng>(&self, rng: &mut R, topic: &str, n: usize) -> String {
        let templates = self.kb.expansions();
        let start = rng.gen_range(0..templates.len());
        let picked: Vec<String> = (0..n.max(1))
            .map(|i| KnowledgeBase::fill(templates[(start + i) % templates.len()], topic))
            .collect();
        picked.join(" ")
    }
}

/// A text under revision with its profile and topic, each built when
/// first read after the text changed.
struct Profiled {
    text: String,
    profile: Option<TextProfile>,
    topic: Option<Topic>,
}

impl Profiled {
    /// `text`, whose profile is `profile` and whose topic, if given, is
    /// `topic`.
    fn with(text: String, profile: TextProfile, topic: Option<Topic>) -> Self {
        Profiled {
            text,
            profile: Some(profile),
            topic,
        }
    }

    /// Replaces the text; a text that changed loses its profile and topic.
    fn set(&mut self, text: String) {
        if text != self.text {
            self.text = text;
            self.profile = None;
            self.topic = None;
        }
    }

    /// The text and its profile.
    fn profile(&mut self) -> (&str, &TextProfile) {
        let profile = self
            .profile
            .get_or_insert_with(|| TextProfile::new(&self.text));
        (&self.text, profile)
    }

    /// The text and its topic.
    fn topic(&mut self) -> (&str, &Topic) {
        let topic = self.topic.get_or_insert_with(|| Topic::new(&self.text));
        (&self.text, topic)
    }
}

/// Joins word tokens with punctuation-aware spacing.
fn join_words(words: &[String]) -> String {
    let mut out = String::new();
    for w in words {
        let is_punct = w.chars().count() == 1 && w.chars().all(|c| !c.is_alphanumeric());
        let opens = matches!(w.as_str(), "(" | "[" | "{");
        if !out.is_empty() && (!is_punct || opens) && !out.ends_with(['(', '[', '{']) {
            out.push(' ');
        }
        out.push_str(w);
    }
    out
}

/// The QC loop as it was before it carried profiles, verbatim: every rubric
/// call analyses its texts afresh, and the seeded RNG is passed in.
#[cfg(test)]
mod reference {
    use super::*;
    use coachlm_text::lexicon;

    /// The first of `markers` that occurs in `text`, both folded: the
    /// substring scan the lexicon automaton replaced, verbatim.
    fn find_marker<'m>(text: &str, markers: &'m [&'m str]) -> Option<&'m str> {
        let folded = normalize::fold_case(text);
        contains_folded(&folded, markers)
    }

    fn contains_folded<'m>(folded: &str, markers: &'m [&'m str]) -> Option<&'m str> {
        markers
            .iter()
            .copied()
            .find(|m| folded.contains(normalize::fold_case(m).as_str()))
    }

    pub fn revise<R: Rng>(
        r: &ExpertReviser,
        rng: &mut R,
        pool: &ExpertPool,
        pair: &InstructionPair,
    ) -> Option<RevisionRecord> {
        if !needs_revision(r, pair) {
            return None;
        }
        let expert = pool.route(pair.category.class(), pair.id);

        let mut instruction = pair.instruction.clone();
        let mut response = pair.response.clone();
        let mut instruction_kind: Option<RevisionKind> = None;
        let mut response_kind: Option<RevisionKind> = None;
        let mut qc_iterations = 0u32;

        // Owner QC loop: repair, re-score, repeat until acceptance.
        loop {
            qc_iterations += 1;
            repair_instruction(
                r,
                rng,
                &mut instruction,
                &mut instruction_kind,
                qc_iterations == 1,
            );
            repair_response(r, rng, &instruction, &mut response, &mut response_kind);
            // What `score_pair` computes, with the instruction analysis
            // shared by the acceptance check.
            let ia = r.engine.analyze_instruction(&instruction);
            let ra = r.engine.analyze_response(&instruction, &response);
            let scores = PairScores {
                instruction: r.engine.score_instruction(&ia),
                response: r.engine.score_response(&ra),
            };
            let instr_ok = ia.basic_flaws() == 0;
            if (scores.response >= QC_RESPONSE_TARGET && instr_ok) || qc_iterations >= 4 {
                let instruction_revised = instruction != pair.instruction;
                return Some(RevisionRecord {
                    id: pair.id,
                    expert,
                    original: pair.clone(),
                    revised: InstructionPair::new(pair.id, instruction, response, pair.category),
                    instruction_revised,
                    instruction_kind: instruction_revised
                        .then_some(instruction_kind.unwrap_or(RevisionKind::AdjustInstruction)),
                    response_kind: Some(response_kind.unwrap_or(RevisionKind::DiversifyResponse)),
                    qc_iterations,
                    final_scores: scores,
                });
            }
        }
    }

    pub fn needs_revision(r: &ExpertReviser, pair: &InstructionPair) -> bool {
        let ia = r.engine.analyze_instruction(&pair.instruction);
        let ra = r.engine.analyze_response(&pair.instruction, &pair.response);
        ia.basic_flaws() > 0
            || ra.basic_flaws() > 0
            || ra.unsafe_content
            || ra.machine_tone
            || !ra.readable()
    }

    fn repair_instruction<R: Rng>(
        r: &ExpertReviser,
        rng: &mut R,
        instruction: &mut String,
        kind: &mut Option<RevisionKind>,
        first_pass: bool,
    ) {
        let topic = lexicon::content_words(instruction, 3);
        let mut rewrote = false;

        // Strip infeasible requirements.
        while let Some(m) = find_marker(instruction, lexicon::INFEASIBLE_PHRASES) {
            *instruction = normalize::remove_phrase(instruction, m);
            rewrote = true;
        }
        // Retained Table III cases (§II-E2 "1.9% were cases that should
        // have fell into the categories of Table III"): rewrite into a
        // feasible, self-contained request on the same topic.
        let folded = normalize::fold_case(instruction);
        let rewrite = [
            lexicon::INVALID_INPUT_MARKERS,
            lexicon::MULTIMODAL_MARKERS,
            lexicon::EXPERTISE_MARKERS,
            lexicon::WORKLOAD_MARKERS,
            lexicon::UNSAFE_MARKERS,
            lexicon::VAGUE_PHRASES,
        ]
        .iter()
        .any(|markers| contains_folded(&folded, markers).is_some());
        if rewrite {
            let templates = r.kb.clarifications();
            let topic_word = topic
                .first()
                .map(String::as_str)
                .unwrap_or("the given subject");
            let t = templates[rng.gen_range(0..templates.len())];
            *instruction = KnowledgeBase::fill(t, topic_word);
            rewrote = true;
        }

        // Lexical fixes.
        let fixed = r.fix_lexical(instruction);
        let adjusted_lexical = fixed != *instruction;
        *instruction = fixed;

        // Layout.
        let tidy = normalize::normalize_layout(instruction);
        let adjusted_layout = tidy != *instruction;
        *instruction = tidy;

        // Occasional context enrichment (Table IV's 7 % Diversify share);
        // only rolled on the first QC pass so iteration count doesn't
        // compound the probability.
        let mut diversified = false;
        if first_pass
            && !rewrote
            && find_marker(instruction, lexicon::CONTEXT_MARKERS).is_none()
            && rng.gen_bool(CONTEXT_ENRICH_P)
        {
            let contexts = r.kb.contexts();
            let c = contexts[rng.gen_range(0..contexts.len())];
            *instruction = format!("{} {c}", instruction.trim_end());
            diversified = true;
        }

        if kind.is_none() {
            *kind = if rewrote {
                Some(RevisionKind::RewriteInstruction)
            } else if diversified {
                Some(RevisionKind::DiversifyInstruction)
            } else if adjusted_lexical || adjusted_layout {
                Some(RevisionKind::AdjustInstruction)
            } else {
                None
            };
        }
    }

    fn repair_response<R: Rng>(
        r: &ExpertReviser,
        rng: &mut R,
        instruction: &str,
        response: &mut String,
        kind: &mut Option<RevisionKind>,
    ) {
        let topic = lexicon::content_words(instruction, 3);
        let topic_word = topic
            .first()
            .cloned()
            .unwrap_or_else(|| "the topic".to_string());
        let analysis = r.engine.analyze_response(instruction, response);

        let mut other = false;
        let mut rewrote = false;
        let mut corrected = false;
        let mut adjusted = false;

        // Safety first.
        if analysis.unsafe_content {
            let lead = r.kb.safe_completions()[0];
            *response = format!("{lead} {}", r.expansion_block(rng, &topic_word, 3));
            other = true;
        }

        // Format junk: clean and, if the template leaked, recompose.
        if analysis.degenerate && !other {
            let cleaned = coachlm_text::clean::clean_output(response);
            *response = cleaned;
            if matches!(
                coachlm_text::clean::validate_pair(instruction, response),
                coachlm_text::clean::Validity::TemplateLeak
            ) {
                *response = r.expansion_block(rng, &topic_word, 3);
            }
            other = true;
        }

        // Relevance.
        if analysis.irrelevant && !other {
            *response = r.expansion_block(rng, &topic_word, 3);
            rewrote = true;
        }

        // Facts.
        while let Some((wrong, right)) = r.kb.fact_correction(&LexiconHits::of(response)) {
            *response = response.replace(wrong, right);
            corrected = true;
        }

        // Lexical fluency.
        let mut lexical_fixed = false;
        let fixed = r.fix_lexical(response);
        if fixed != *response {
            lexical_fixed = true;
            *response = fixed;
        }

        // Truncation: finish the dangling thought.
        if analysis.truncated {
            let trimmed = response
                .trim_end()
                .trim_end_matches("...")
                .trim_end_matches([',', ';', ' '])
                .to_string();
            *response = format!(
                "{} {}",
                normalize::ensure_terminal_punctuation(&trimmed),
                r.expansion_block(rng, &topic_word, 1)
            );
        }

        // Tone.
        if analysis.machine_tone {
            if let Some(m) = find_marker(response, lexicon::MACHINE_TONE_MARKERS) {
                *response = normalize::remove_phrase(response, m);
                adjusted = true;
            }
        }

        // Expansion until the advanced band is reachable: reasoning,
        // example, substance (the dominant Table IV class).
        let mut expanded = false;
        let mut guard = 0;
        loop {
            let (richness, words) = r.engine.response_richness(response);
            if (richness >= 0.9 && words >= 50) || guard >= 4 {
                break;
            }
            guard += 1;
            let add = r.expansion_block(rng, &topic_word, 2);
            *response = format!("{} {add}", normalize::ensure_terminal_punctuation(response));
            expanded = true;
        }

        // Warmth (optional: neutral tone already clears the QC bar). Only
        // considered when the response was substantively reworked — polish
        // passes on already-good responses stay minimal, which is what
        // populates the low-edit-distance tail of `R` (§II-F2).
        if (expanded || rewrote || other)
            && rng.gen_bool(0.5)
            && find_marker(response, lexicon::WARM_MARKERS).is_none()
        {
            let w = r.kb.warmth()[rng.gen_range(0..r.kb.warmth().len())];
            *response = format!("{} {w}", normalize::ensure_terminal_punctuation(response));
            adjusted = true;
        }

        // Layout.
        let tidy = normalize::normalize_layout(response);
        if tidy != *response {
            *response = tidy;
            adjusted = true;
        }

        if kind.is_none() {
            // Table IV primary-type priority, classified from the *initial*
            // analysis: what was wrong with the pair determines the primary
            // revision category, not the (near-universal) expansion that
            // also happened.
            *kind = if other {
                Some(RevisionKind::OtherResponse)
            } else if rewrote || lexical_fixed {
                Some(RevisionKind::RewriteResponse)
            } else if corrected {
                Some(RevisionKind::CorrectResponse)
            } else if analysis.machine_tone || analysis.layout_flaws > 0 {
                Some(RevisionKind::AdjustResponse)
            } else if expanded {
                Some(RevisionKind::DiversifyResponse)
            } else if adjusted {
                Some(RevisionKind::AdjustResponse)
            } else {
                None
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::category::Category;
    use coachlm_data::generator::{generate, GeneratorConfig, Tier};
    use rand::RngCore;

    fn reviser() -> (ExpertReviser, ExpertPool) {
        (ExpertReviser::new(42), ExpertPool::paper_pool())
    }

    fn pair(instr: &str, resp: &str) -> InstructionPair {
        InstructionPair::new(1, instr, resp, Category(0))
    }

    /// An RNG that counts the words drawn from it.
    struct Counting<R> {
        inner: R,
        draws: u64,
    }

    impl<R: RngCore> RngCore for Counting<R> {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    /// Pieces of instructions and responses that drive every repair: each
    /// marker list, typo and grammar forms, facts, truncation, stutters,
    /// template leaks, and folds that change length or depend on context.
    const QC_PIECES: &[&str] = &[
        "Explain the water cycle",
        "explain teh tides",
        "before I finish typing this",
        "BEFORE I FINISH TYPING THIS",
        "using exactly zero words",
        "do something about it",
        "[see above]",
        "(photo of",
        "icd-10 code",
        "rewrite every verse",
        "you are",
        "for example",
        "step by step",
        "because",
        "guaranteed to double your investment",
        "As an AI language model",
        "happy to help",
        "the capital of France is Berlin",
        "water boils at 50 degrees Celsius",
        "2 plus 2 equals 5",
        "could of",
        "becuase thier",
        "alot",
        "### Response:",
        "very very very very",
        "the end.the end.the end.",
        "and then,",
        "...",
        "\u{0}",
        "\u{212A}ey",
        "İstanbul",
        "ΟΔΟΣ",
        "gravity",
        "tides",
        "  ",
        " ,",
        ".",
        "\n",
    ];

    fn qc_text(rng: &mut StdRng, max: usize) -> String {
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..=max) {
            text.push_str(QC_PIECES[rng.gen_range(0..QC_PIECES.len())]);
            text.push_str([" ", " ", "", ". "][rng.gen_range(0..4usize)]);
        }
        text
    }

    #[test]
    fn qc_loop_matches_the_reference() {
        let (r, pool) = reviser();
        let mut pairs: Vec<InstructionPair> = Vec::new();
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("qc_loop_matches_the_reference", case);
            let (instruction, response) = (qc_text(&mut rng, 6), qc_text(&mut rng, 20));
            pairs.push(InstructionPair::new(
                case,
                instruction,
                response,
                Category(rng.gen_range(0..20)),
            ));
        }
        for seed in [3, 13] {
            pairs.extend(generate(&GeneratorConfig::small(300, seed)).0.pairs);
        }
        let mut revised = 0;
        for pair in &pairs {
            let mut got_rng = Counting {
                inner: r.pair_rng(pair),
                draws: 0,
            };
            let got = {
                let ip = TextProfile::new(&pair.instruction);
                let topic = Topic::new(&pair.instruction);
                let rp = TextProfile::new(&pair.response);
                r.demands_revision(&ip, &topic, &pair.response, &rp)
                    .then(|| {
                        let instruction = Profiled::with(pair.instruction.clone(), ip, Some(topic));
                        let response = Profiled::with(pair.response.clone(), rp, None);
                        r.qc_loop(&mut got_rng, &pool, pair, instruction, response)
                    })
            };
            let mut want_rng = Counting {
                inner: r.pair_rng(pair),
                draws: 0,
            };
            let want = reference::revise(&r, &mut want_rng, &pool, pair);
            assert_eq!(got, want, "{pair:?}");
            assert_eq!(got_rng.draws, want_rng.draws, "{pair:?}");
            assert_eq!(r.revise(&pool, pair), want, "{pair:?}");
            assert_eq!(r.needs_revision(pair), want.is_some(), "{pair:?}");
            revised += usize::from(want.is_some());
        }
        assert!(revised > pairs.len() / 4, "{revised} of {}", pairs.len());
    }

    #[test]
    fn clean_rich_pairs_need_no_revision() {
        let (r, _) = reviser();
        let p = pair(
            "Explain the water cycle with one example, step by step.",
            "The water cycle moves water through evaporation and rain. This happens \
             because the sun heats the oceans and lifts vapor into the sky. For example, \
             puddles vanish on sunny days. In summary, water circulates constantly between \
             the surface and the sky above us all.",
        );
        assert!(!r.needs_revision(&p));
        assert!(r.revise(&ExpertPool::paper_pool(), &p).is_none());
    }

    #[test]
    fn revised_pairs_reach_qc_target() {
        let (r, pool) = reviser();
        let p = pair("explain teh water cycle", "Water moves becuase of heat,");
        let rec = r.revise(&pool, &p).expect("needs revision");
        assert!(rec.final_scores.response >= 95.0, "{:?}", rec.final_scores);
        assert!(rec.final_scores.instruction >= 80.0);
        assert!(rec.qc_iterations <= 4);
    }

    #[test]
    fn typos_fixed_everywhere() {
        let (r, pool) = reviser();
        let p = pair(
            "Summarize teh article becuase thier team needs it",
            "The article says alot about teh goverment and its plans untill next year.",
        );
        let rec = r.revise(&pool, &p).unwrap();
        for (wrong, _) in coachlm_text::lexicon::TYPO_PAIRS {
            assert!(
                !rec.revised.instruction.contains(wrong) && !rec.revised.response.contains(wrong),
                "typo {wrong} survived: {} / {}",
                rec.revised.instruction,
                rec.revised.response
            );
        }
    }

    #[test]
    fn unsafe_response_mitigated_as_other() {
        let (r, pool) = reviser();
        let p = pair(
            "Give investment advice about compound interest",
            "Buy now, guaranteed to double your investment by Friday.",
        );
        let rec = r.revise(&pool, &p).unwrap();
        assert_eq!(rec.response_kind, Some(RevisionKind::OtherResponse));
        assert!(!LexiconHits::of(&rec.revised.response).has_marker(MarkerList::Unsafe));
        assert!(rec.final_scores.response >= 95.0);
    }

    #[test]
    fn bare_responses_expand_to_diversify() {
        let (r, pool) = reviser();
        let p = pair(
            "Explain the water cycle to a student",
            "Water evaporates and then rains.",
        );
        let rec = r.revise(&pool, &p).unwrap();
        assert_eq!(rec.response_kind, Some(RevisionKind::DiversifyResponse));
        assert!(rec.revised.response_words() >= 50);
    }

    #[test]
    fn fact_errors_corrected() {
        let (r, pool) = reviser();
        let p = pair(
            "Describe France briefly for travelers",
            "France is lovely in spring. Remember that the capital of France is Berlin.",
        );
        let rec = r.revise(&pool, &p).unwrap();
        assert!(
            rec.revised.response.contains("Paris"),
            "{}",
            rec.revised.response
        );
        assert!(!rec.revised.response.contains("Berlin"));
        assert_eq!(rec.response_kind, Some(RevisionKind::CorrectResponse));
    }

    #[test]
    fn vague_instructions_rewritten() {
        let (r, pool) = reviser();
        let p = pair(
            "Explain the tides in the ocean - do something about it",
            "Tides rise and fall.",
        );
        let rec = r.revise(&pool, &p).unwrap();
        assert_eq!(rec.instruction_kind, Some(RevisionKind::RewriteInstruction));
        assert!(!LexiconHits::of(&rec.revised.instruction).has_marker(MarkerList::Vague));
        assert!(
            coachlm_text::normalize::fold_case(&rec.revised.instruction).contains("tides"),
            "{}",
            rec.revised.instruction
        );
    }

    #[test]
    fn revision_dataset_share_matches_deficiency_rate() {
        let (r, pool) = reviser();
        let (d, prov) = generate(&GeneratorConfig::small(2500, 3));
        let kept: Vec<u64> = prov
            .iter()
            .filter(|p| p.tier != Tier::Filterable)
            .map(|p| p.id)
            .collect();
        let records = r.revise_dataset(&pool, &d, &kept);
        let share = records.len() as f64 / kept.len() as f64;
        // Paper: 2301/4912 = 46.8 % of kept pairs get revised.
        assert!((share - 0.468).abs() < 0.05, "share {share}");
    }

    #[test]
    fn edit_distance_spread_supports_alpha_selection() {
        let (r, pool) = reviser();
        let (d, prov) = generate(&GeneratorConfig::small(1200, 13));
        let kept: Vec<u64> = prov
            .iter()
            .filter(|p| p.tier != Tier::Filterable)
            .map(|p| p.id)
            .collect();
        let records = r.revise_dataset(&pool, &d, &kept);
        let mut dists: Vec<usize> = records
            .iter()
            .map(|rec| {
                coachlm_text::editdist::word_edit_distance(
                    &rec.original.response,
                    &rec.revised.response,
                )
            })
            .collect();
        dists.sort_unstable();
        let lo = dists[dists.len() / 10];
        let hi = dists[dists.len() * 9 / 10];
        assert!(
            hi > lo * 2,
            "edit distances must spread: p10 {lo}, p90 {hi}"
        );
    }

    #[test]
    fn deterministic_per_pair() {
        let (r, pool) = reviser();
        let p = pair("explain teh tides", "Tides rise,");
        let a = r.revise(&pool, &p).unwrap();
        let b = r.revise(&pool, &p).unwrap();
        assert_eq!(a.revised, b.revised);
    }

    #[test]
    fn expert_routing_respects_class() {
        let (r, pool) = reviser();
        let mut p = pair(
            "write a short story about a dragon please,",
            "Once upon a time,",
        );
        p.category = Category::by_name("story creation").unwrap();
        let rec = r.revise(&pool, &p).unwrap();
        let unit = pool.unit_for(coachlm_data::category::TaskClass::Creative);
        assert!(unit.members.contains(&rec.expert));
    }
}
