//! The strategy zoo: alternative revision pipelines behind one interface.
//!
//! The paper's central claim (Tables VII–IX) is that *revising* pairs beats
//! *filtering* them. This module makes that claim testable head-to-head by
//! packaging each competing pipeline as a [`Strategy`] — a named builder of
//! an executor stage chain — so every contender runs over the same seeded
//! dataset through the same streaming executor and can be judged pairwise
//! by the debiased PandaLM tournament (`coachlm_judge::tournament`).
//!
//! Contenders beyond CoachLM itself:
//!
//! * **Reflection-Tuning** ([`ReflectionStrategy`]) — a [`CritiqueStage`]
//!   scores each pair against the Table II rubric dimensions and emits a
//!   structured [`Critique`]; a [`RegenerateStage`] then rewrites the pair
//!   using the critique as its chain-of-thought bridge (critique → answer,
//!   Li et al. 2023).
//! * **Self-Review** ([`SelfReviewStrategy`]) — one looping
//!   [`ReviseUntilPassStage`] that repairs, re-scores, and asks the
//!   executor for another pass via [`StageOutcome::Again`] until the
//!   rubric passes or the deterministic
//!   [`iteration_budget`](coachlm_runtime::Stage::iteration_budget) runs
//!   out. Every pass charges `service_time`, observes the stage deadline,
//!   and folds into the journal, so a mid-loop crash resumes
//!   digest-identically.
//! * **auto-evol** ([`AutoEvolStrategy`]) — complexity evolution instead
//!   of quality repair: each pass applies one evolution operation (add a
//!   constraint, deepen the reasoning requirement, concretize with
//!   context), recording the trajectory in stage counters.
//! * **AlpaGasus filtering** ([`FilterStrategy`]) and the identity
//!   pipeline ([`NoopStrategy`]) as the paper's baselines.
//!
//! All stages draw randomness only from the per-(stage, item, iteration)
//! RNG the executor hands them, so every strategy's output is identical
//! across thread counts and queue capacities — the property
//! `tests/strategy_zoo.rs` proptests under active fault injection.

use crate::coach::CoachLm;
use crate::infer::CoachReviseStage;
use coachlm_data::pair::Dataset;
use coachlm_judge::chatgpt::ChatGptRater;
use coachlm_judge::criteria::{CriteriaEngine, PairScores, ResponseAnalysis};
use coachlm_lm::knowledge::KnowledgeBase;
use coachlm_runtime::{
    ChainOutput, Executor, ExecutorConfig, Stage, StageCtx, StageItem, StageOutcome,
};
use coachlm_text::lexicon::{self, LexiconHits, MarkerList};
use coachlm_text::{clean, normalize, token};
use rand::Rng;

/// One revision pipeline, nameable and runnable against any dataset.
///
/// A strategy is a stateless (per-item) recipe: [`stages`](Self::stages)
/// builds the executor chain, and the provided [`run`](Self::run) /
/// [`dataset`](Self::dataset) drive it through the shared executor so all
/// strategies inherit the same determinism, fault-injection, journaling,
/// and reporting machinery.
pub trait Strategy: Sync {
    /// Registry name; also the output dataset's name suffix.
    fn name(&self) -> &str;

    /// The stage chain implementing this strategy.
    fn stages(&self) -> Vec<Box<dyn Stage + '_>>;

    /// Runs the strategy over `input` on the shared executor. Thread
    /// count and queue capacity come from `config` and never affect the
    /// result.
    fn run(&self, input: &Dataset, config: &ExecutorConfig) -> ChainOutput {
        let stages = self.stages();
        Executor::new(config.clone()).run(&stages, &input.pairs)
    }

    /// The strategy's output dataset, named `{input}-{strategy}`.
    fn dataset(&self, input: &Dataset, config: &ExecutorConfig) -> Dataset {
        self.run(input, config)
            .into_dataset(format!("{}-{}", input.name, self.name()))
    }
}

/// The standard line-up, in registry order: CoachLM revision, Reflection
/// critique-then-regenerate, Self-Review revise-until-pass, auto-evol
/// complexity evolution, AlpaGasus filtering, and the no-op identity.
pub struct StrategyZoo<'a> {
    entries: Vec<Box<dyn Strategy + 'a>>,
}

impl<'a> StrategyZoo<'a> {
    /// Builds the standard six-strategy zoo. `seed` namespaces the
    /// filtering baseline's simulated ChatGPT rater.
    pub fn standard(coach: &'a CoachLm, seed: u64) -> Self {
        StrategyZoo {
            entries: vec![
                Box::new(CoachStrategy::new(coach)),
                Box::new(ReflectionStrategy::new()),
                Box::new(SelfReviewStrategy::new()),
                Box::new(AutoEvolStrategy::new()),
                Box::new(FilterStrategy::new(seed)),
                Box::new(NoopStrategy),
            ],
        }
    }

    /// Registry names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|s| s.name()).collect()
    }

    /// Looks a strategy up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Strategy> {
        self.entries
            .iter()
            .find(|s| s.name() == name)
            .map(AsRef::as_ref)
    }

    /// Iterates the strategies in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Strategy> {
        self.entries.iter().map(AsRef::as_ref)
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no strategy is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// CoachLM and the baselines
// ---------------------------------------------------------------------------

/// The paper's own pipeline: one [`CoachReviseStage`].
pub struct CoachStrategy<'a> {
    coach: &'a CoachLm,
}

impl<'a> CoachStrategy<'a> {
    /// A strategy revising with `coach`.
    pub fn new(coach: &'a CoachLm) -> Self {
        CoachStrategy { coach }
    }
}

impl Strategy for CoachStrategy<'_> {
    fn name(&self) -> &str {
        "coachlm"
    }

    fn stages(&self) -> Vec<Box<dyn Stage + '_>> {
        vec![Box::new(CoachReviseStage::new(self.coach))]
    }
}

/// The AlpaGasus baseline: filter low-rated pairs, revise nothing.
pub struct FilterStrategy {
    rater: ChatGptRater,
}

impl FilterStrategy {
    /// AlpaGasus filtering at the paper's 4.5 threshold.
    pub fn new(seed: u64) -> Self {
        FilterStrategy {
            rater: ChatGptRater::new(seed),
        }
    }
}

impl Strategy for FilterStrategy {
    fn name(&self) -> &str {
        "filter"
    }

    fn stages(&self) -> Vec<Box<dyn Stage + '_>> {
        vec![Box::new(crate::baselines::AlpaGasusStage::new(
            &self.rater,
            4.5,
        ))]
    }
}

/// The identity pipeline: every pair passes through untouched.
pub struct NoopStrategy;

/// [`NoopStrategy`]'s single stage.
pub struct PassthroughStage;

impl PassthroughStage {
    /// The stage's report name.
    pub const NAME: &'static str = "noop";
}

impl Stage for PassthroughStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, _item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        ctx.bump("passed");
        StageOutcome::Ok
    }
}

impl Strategy for NoopStrategy {
    fn name(&self) -> &str {
        "noop"
    }

    fn stages(&self) -> Vec<Box<dyn Stage + '_>> {
        vec![Box::new(PassthroughStage)]
    }
}

// ---------------------------------------------------------------------------
// Reflection-Tuning: critique, then regenerate from the critique
// ---------------------------------------------------------------------------

/// A structured critique of one pair against the Table II rubric, the
/// chain-of-thought bridge between [`CritiqueStage`] and
/// [`RegenerateStage`].
#[derive(Debug, Clone, PartialEq)]
pub struct Critique {
    /// Instruction-side rubric dimensions found wanting.
    pub instruction_flaws: Vec<&'static str>,
    /// Response-side rubric dimensions found wanting.
    pub response_flaws: Vec<&'static str>,
    /// The pair's rubric scores at critique time.
    pub scores: PairScores,
}

impl Critique {
    /// `true` when the critique found nothing to fix.
    pub fn is_clean(&self) -> bool {
        self.instruction_flaws.is_empty() && self.response_flaws.is_empty()
    }
}

/// Scores a pair against every Table II dimension and attaches the
/// resulting [`Critique`] as the item payload (plus one counter per flaw,
/// so the reflection profile of a dataset is visible in the report).
pub struct CritiqueStage {
    engine: CriteriaEngine,
}

impl CritiqueStage {
    /// The stage's report name.
    pub const NAME: &'static str = "critique";

    /// A critique stage over the standard rubric engine.
    pub fn new() -> Self {
        CritiqueStage {
            engine: CriteriaEngine::new(),
        }
    }

    /// The critique of one pair; deterministic in the pair text alone.
    /// [`RegenerateStage`] recomputes this when the payload is absent
    /// (payloads are deliberately not journalled).
    pub fn critique(engine: &CriteriaEngine, instruction: &str, response: &str) -> Critique {
        let ia = engine.analyze_instruction(instruction);
        let ra = engine.analyze_response(instruction, response);
        let mut instruction_flaws = Vec::new();
        if ia.vague {
            instruction_flaws.push("feasibility:vague");
        }
        if ia.infeasible {
            instruction_flaws.push("feasibility:infeasible");
        }
        if ia.invalid_input {
            instruction_flaws.push("feasibility:invalid-input");
        }
        if ia.multimodal {
            instruction_flaws.push("feasibility:multimodal");
        }
        if ia.readability_flaws > 0 {
            instruction_flaws.push("readability:lexical");
        }
        if ia.layout_flaws > 0 {
            instruction_flaws.push("readability:layout");
        }
        if !ia.has_context {
            instruction_flaws.push("contextualization:missing");
        }
        let mut response_flaws = Vec::new();
        if ra.unsafe_content {
            response_flaws.push("safety:red-line");
        }
        if ra.fact_errors > 0 {
            response_flaws.push("correctness:fact-error");
        }
        if ra.irrelevant {
            response_flaws.push("relevance:off-topic");
        }
        if ra.truncated {
            response_flaws.push("comprehensiveness:truncated");
        }
        if ra.thin {
            response_flaws.push("comprehensiveness:thin");
        }
        if ra.readability_flaws > 0 || ra.layout_flaws > 0 || ra.degenerate {
            response_flaws.push("readability:degraded");
        }
        if !ra.reasoned {
            response_flaws.push("richness:unreasoned");
        }
        if !ra.has_example {
            response_flaws.push("richness:no-example");
        }
        if ra.machine_tone {
            response_flaws.push("humanization:machine-tone");
        }
        if !ra.warm {
            response_flaws.push("humanization:cold");
        }
        Critique {
            instruction_flaws,
            response_flaws,
            scores: engine.score_pair(instruction, response),
        }
    }
}

impl Default for CritiqueStage {
    fn default() -> Self {
        Self::new()
    }
}

impl Stage for CritiqueStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let critique = Self::critique(&self.engine, &item.pair.instruction, &item.pair.response);
        for flaw in &critique.instruction_flaws {
            ctx.bump(&format!("flaw:{flaw}"));
        }
        for flaw in &critique.response_flaws {
            ctx.bump(&format!("flaw:{flaw}"));
        }
        if critique.is_clean() {
            ctx.bump("clean");
        }
        item.set_payload(critique);
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // One modelled oracle critique call per pair.
        Some(std::time::Duration::from_secs(5))
    }

    fn service_time(&self) -> std::time::Duration {
        // A critique decode is shorter than a full regeneration.
        std::time::Duration::from_millis(600)
    }
}

/// Rewrites a pair from its [`Critique`]: each cited dimension triggers the
/// matching repair, and the §III-B1 post-processing (clean, validate,
/// keep-original-on-invalid) applies to the result.
pub struct RegenerateStage {
    engine: CriteriaEngine,
    kb: KnowledgeBase,
}

impl RegenerateStage {
    /// The stage's report name.
    pub const NAME: &'static str = "regenerate";

    /// A regeneration stage with full repair-knowledge coverage.
    pub fn new() -> Self {
        RegenerateStage {
            engine: CriteriaEngine::new(),
            kb: KnowledgeBase::with_coverage(1.0),
        }
    }
}

impl Default for RegenerateStage {
    fn default() -> Self {
        Self::new()
    }
}

impl Stage for RegenerateStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        // The critique normally arrives as the payload from the critique
        // stage; recompute it when absent (payloads are not journalled,
        // and the critique is a pure function of the pair text).
        let critique = item.take_payload::<Critique>().unwrap_or_else(|| {
            CritiqueStage::critique(&self.engine, &item.pair.instruction, &item.pair.response)
        });
        if critique.is_clean() {
            ctx.bump("already-clean");
            return StageOutcome::Ok;
        }

        let mut instruction = item.pair.instruction.clone();
        let mut response = item.pair.response.clone();
        let topic = topic_of(&instruction);

        if critique
            .instruction_flaws
            .iter()
            .any(|f| f.starts_with("feasibility:"))
        {
            let t = pick(&mut ctx.rng, self.kb.clarifications());
            instruction = KnowledgeBase::fill(t, &topic);
        }
        instruction = fix_lexical(&self.kb, &instruction);
        instruction = normalize::normalize_layout(&instruction);
        if critique
            .instruction_flaws
            .contains(&"contextualization:missing")
        {
            let t = pick(&mut ctx.rng, self.kb.contexts());
            instruction = format!("{} {t}", instruction.trim_end());
        }

        let analysis = self.engine.analyze_response(&instruction, &response);
        repair_response(&self.kb, &mut ctx.rng, &topic, &analysis, &mut response);

        commit_revision(item, ctx, instruction, response);
        ctx.bump("regenerated");
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        Some(std::time::Duration::from_secs(5))
    }

    fn service_time(&self) -> std::time::Duration {
        // A full conditioned regeneration decode, same class as CoachLM
        // inference.
        std::time::Duration::from_millis(840)
    }
}

/// Critique-then-regenerate (Reflection-Tuning, snippet 2 shape).
pub struct ReflectionStrategy {
    critique: CritiqueStage,
    regenerate: RegenerateStage,
}

impl ReflectionStrategy {
    /// The standard two-stage reflection pipeline.
    pub fn new() -> Self {
        ReflectionStrategy {
            critique: CritiqueStage::new(),
            regenerate: RegenerateStage::new(),
        }
    }
}

impl Default for ReflectionStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for ReflectionStrategy {
    fn name(&self) -> &str {
        "reflection"
    }

    fn stages(&self) -> Vec<Box<dyn Stage + '_>> {
        vec![
            Box::new(BorrowedStage(&self.critique)),
            Box::new(BorrowedStage(&self.regenerate)),
        ]
    }
}

/// Adapter letting a strategy hand out its owned stages by reference.
struct BorrowedStage<'a, S: Stage>(&'a S);

impl<S: Stage> Stage for BorrowedStage<'_, S> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        self.0.process(item, ctx)
    }
    fn deadline(&self) -> Option<std::time::Duration> {
        self.0.deadline()
    }
    fn service_time(&self) -> std::time::Duration {
        self.0.service_time()
    }
    fn iteration_budget(&self) -> u32 {
        self.0.iteration_budget()
    }
    fn state_fingerprint(&self) -> u64 {
        self.0.state_fingerprint()
    }
}

// ---------------------------------------------------------------------------
// Self-Review: one looping revise-until-pass stage
// ---------------------------------------------------------------------------

/// A bounded revise-until-pass loop in a single stage: each committed pass
/// repairs the pair once and re-scores it against the rubric; the stage
/// returns [`StageOutcome::Again`] until the pair passes or the iteration
/// budget ([`Self::BUDGET`]) is spent, at which point the best-so-far
/// revision stands.
pub struct ReviseUntilPassStage {
    engine: CriteriaEngine,
    kb: KnowledgeBase,
}

/// Rubric acceptance bar for the self-review loop: the modelled expert QC
/// target (response score) with a structurally clean instruction.
const SELF_REVIEW_TARGET: f64 = 95.0;

impl ReviseUntilPassStage {
    /// The stage's report name.
    pub const NAME: &'static str = "revise-until-pass";

    /// Hard cap on committed passes per pair — the same bound the modelled
    /// expert owner-QC loop uses.
    pub const BUDGET: u32 = 4;

    /// A self-review stage with full repair-knowledge coverage.
    pub fn new() -> Self {
        ReviseUntilPassStage {
            engine: CriteriaEngine::new(),
            kb: KnowledgeBase::with_coverage(1.0),
        }
    }

    /// Whether the pair passes review as-is.
    fn passes(&self, instruction: &str, response: &str) -> bool {
        let scores = self.engine.score_pair(instruction, response);
        scores.response >= SELF_REVIEW_TARGET
            && self.engine.analyze_instruction(instruction).basic_flaws() == 0
    }
}

impl Default for ReviseUntilPassStage {
    fn default() -> Self {
        Self::new()
    }
}

impl Stage for ReviseUntilPassStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        // One committed review pass: repair, re-score, decide. `Again`
        // commits its mutations, so each pass is a durable partial
        // revision — a crash between passes resumes from the journal and
        // converges to the uninterrupted digest.
        let mut instruction = item.pair.instruction.clone();
        let mut response = item.pair.response.clone();
        let topic = topic_of(&instruction);

        let ia = self.engine.analyze_instruction(&instruction);
        if ia.vague || ia.infeasible || ia.invalid_input || ia.multimodal {
            let t = pick(&mut ctx.rng, self.kb.clarifications());
            instruction = KnowledgeBase::fill(t, &topic);
        }
        instruction = fix_lexical(&self.kb, &instruction);
        instruction = normalize::normalize_layout(&instruction);

        let analysis = self.engine.analyze_response(&instruction, &response);
        repair_response(&self.kb, &mut ctx.rng, &topic, &analysis, &mut response);

        commit_revision(item, ctx, instruction, response);
        ctx.bump("pass");
        if self.passes(&item.pair.instruction, &item.pair.response) {
            ctx.bump("accepted");
            StageOutcome::Ok
        } else {
            // The executor accepts the pair as-is once the budget is
            // spent; count those so the report shows the loop's tail.
            ctx.bump("needs-another-pass");
            StageOutcome::Again
        }
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // Per-pass decode budget; a latency storm times passes out and
        // (with a breaker configured) degrades the stage to passthrough.
        Some(std::time::Duration::from_secs(5))
    }

    fn service_time(&self) -> std::time::Duration {
        // Each committed pass is one full self-review decode.
        std::time::Duration::from_millis(840)
    }

    fn iteration_budget(&self) -> u32 {
        Self::BUDGET
    }
}

/// The Self-Review pipeline: a single [`ReviseUntilPassStage`].
pub struct SelfReviewStrategy {
    stage: ReviseUntilPassStage,
}

impl SelfReviewStrategy {
    /// The standard self-review pipeline.
    pub fn new() -> Self {
        SelfReviewStrategy {
            stage: ReviseUntilPassStage::new(),
        }
    }
}

impl Default for SelfReviewStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for SelfReviewStrategy {
    fn name(&self) -> &str {
        "self-review"
    }

    fn stages(&self) -> Vec<Box<dyn Stage + '_>> {
        vec![Box::new(BorrowedStage(&self.stage))]
    }
}

// ---------------------------------------------------------------------------
// auto-evol: complexity evolution
// ---------------------------------------------------------------------------

/// Complexity target, in instruction words, at which evolution stops.
const EVOLVED_WORDS: usize = 26;

/// One complexity-evolution pass per committed iteration (snippet 3
/// shape): add a constraint, deepen the reasoning requirement, or
/// concretize with context — chosen by the per-iteration RNG so the
/// trajectory varies across pairs but never across runs. The response is
/// expanded in step so it keeps answering the evolved instruction.
pub struct EvolveStage {
    engine: CriteriaEngine,
    kb: KnowledgeBase,
}

impl EvolveStage {
    /// The stage's report name.
    pub const NAME: &'static str = "evolve";

    /// Hard cap on evolution rounds per pair.
    pub const BUDGET: u32 = 3;

    /// An evolution stage with full knowledge coverage.
    pub fn new() -> Self {
        EvolveStage {
            engine: CriteriaEngine::new(),
            kb: KnowledgeBase::with_coverage(1.0),
        }
    }
}

impl Default for EvolveStage {
    fn default() -> Self {
        Self::new()
    }
}

impl Stage for EvolveStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let mut instruction = item.pair.instruction.clone();
        let mut response = item.pair.response.clone();
        let topic = topic_of(&instruction);

        // One evolution operation per committed pass; the choice is part
        // of the trajectory and comes from the per-iteration RNG.
        let op = ctx.rng.gen_range(0..3u32);
        match op {
            0 => {
                let n = ctx.rng.gen_range(3..6u32);
                instruction = format!(
                    "{} Answer in at most {n} sentences and justify each claim.",
                    instruction.trim_end()
                );
                ctx.bump("evolve:constraint");
            }
            1 => {
                instruction = format!(
                    "{} Explain the reasoning behind each step.",
                    instruction.trim_end()
                );
                ctx.bump("evolve:deepen");
            }
            _ => {
                let t = pick(&mut ctx.rng, self.kb.contexts());
                instruction = format!("{} {t}", instruction.trim_end());
                ctx.bump("evolve:concretize");
            }
        }

        // Keep the response up with the evolved instruction: ensure it
        // reasons and carries an example.
        let analysis = self.engine.analyze_response(&instruction, &response);
        if !analysis.reasoned {
            let t = pick(&mut ctx.rng, self.kb.expansions());
            response = format!("{} {}", response.trim_end(), KnowledgeBase::fill(t, &topic));
        }
        if !analysis.has_example {
            response = format!(
                "{} For example, consider how {topic} behaves in a simple case.",
                response.trim_end()
            );
        }

        commit_revision(item, ctx, instruction, response);
        if token::word_count(&item.pair.instruction) >= EVOLVED_WORDS {
            ctx.bump("evolved");
            StageOutcome::Ok
        } else {
            StageOutcome::Again
        }
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        Some(std::time::Duration::from_secs(5))
    }

    fn service_time(&self) -> std::time::Duration {
        // Evolution decodes are shorter than full regenerations.
        std::time::Duration::from_millis(700)
    }

    fn iteration_budget(&self) -> u32 {
        Self::BUDGET
    }
}

/// The auto-evol pipeline: a single looping [`EvolveStage`].
pub struct AutoEvolStrategy {
    stage: EvolveStage,
}

impl AutoEvolStrategy {
    /// The standard complexity-evolution pipeline.
    pub fn new() -> Self {
        AutoEvolStrategy {
            stage: EvolveStage::new(),
        }
    }
}

impl Default for AutoEvolStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for AutoEvolStrategy {
    fn name(&self) -> &str {
        "auto-evol"
    }

    fn stages(&self) -> Vec<Box<dyn Stage + '_>> {
        vec![Box::new(BorrowedStage(&self.stage))]
    }
}

// ---------------------------------------------------------------------------
// Shared repair helpers
// ---------------------------------------------------------------------------

/// The first content word of the instruction, or a neutral fallback.
fn topic_of(instruction: &str) -> String {
    lexicon::content_words(instruction, 1)
        .into_iter()
        .next()
        .unwrap_or_else(|| "the given subject".to_string())
}

/// Uniform template choice from a non-empty list.
fn pick<'t, R: Rng>(rng: &mut R, templates: &'t [&'t str]) -> &'t str {
    templates
        .get(rng.gen_range(0..templates.len().max(1)))
        .map_or("", |t| t)
}

/// Fixes known misspellings and grammar-pair errors.
fn fix_lexical(kb: &KnowledgeBase, text: &str) -> String {
    let mut fixed = text
        .split(' ')
        .map(|word| {
            let core: &str = word.trim_matches(|c: char| !c.is_ascii_alphanumeric());
            if core.is_empty() {
                return word.to_string();
            }
            match kb.typo_correction(&normalize::fold_case(core)) {
                Some(right) => word.replacen(core, right, 1),
                None => word.to_string(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ");
    while let Some((wrong, right)) = kb.grammar_correction(&LexiconHits::of(&fixed)) {
        let next = fixed.replacen(wrong, right, 1);
        if next == fixed {
            // Case mismatch between the folded probe and the literal text;
            // stop rather than spin.
            break;
        }
        fixed = next;
    }
    fixed
}

/// One deterministic sentence of expansion on `topic`.
fn expansion_sentence<R: Rng>(kb: &KnowledgeBase, rng: &mut R, topic: &str) -> String {
    KnowledgeBase::fill(pick(rng, kb.expansions()), topic)
}

/// Repairs a response in place per its rubric analysis: safety first, then
/// facts, relevance, completeness, richness, and tone.
fn repair_response<R: Rng>(
    kb: &KnowledgeBase,
    rng: &mut R,
    topic: &str,
    analysis: &ResponseAnalysis,
    response: &mut String,
) {
    if analysis.unsafe_content {
        let lead = pick(rng, kb.safe_completions());
        *response = format!("{lead} {}", expansion_sentence(kb, rng, topic));
    } else if analysis.irrelevant {
        *response = format!(
            "{} {}",
            expansion_sentence(kb, rng, topic),
            expansion_sentence(kb, rng, topic)
        );
    }
    while let Some((wrong, right)) = kb.fact_correction(&LexiconHits::of(response)) {
        let next = response.replace(wrong, right);
        if next == *response {
            break;
        }
        *response = next;
    }
    while let Some(marker) = LexiconHits::of(response).first_marker(MarkerList::MachineTone) {
        let next = response.replacen(marker, "", 1);
        if next == *response {
            break;
        }
        *response = next;
    }
    if analysis.truncated {
        *response = format!(
            "{} {}",
            response.trim_end().trim_end_matches(','),
            expansion_sentence(kb, rng, topic)
        );
    }
    if !analysis.reasoned || analysis.thin {
        *response = format!(
            "{} {}",
            response.trim_end(),
            expansion_sentence(kb, rng, topic)
        );
    }
    if !analysis.has_example {
        *response = format!(
            "{} For example, a concrete case of {topic} makes this easier to see.",
            response.trim_end()
        );
    }
    if !analysis.warm {
        let t = pick(rng, kb.warmth());
        *response = format!("{} {t}", response.trim_end());
    }
    *response = fix_lexical(kb, response);
    *response = normalize::normalize_layout(response);
}

/// §III-B1 post-processing shared by every revising strategy: clean the
/// candidate texts, validate, and commit — or keep the pair as it entered
/// the pass when the candidate is structurally invalid.
fn commit_revision(
    item: &mut StageItem,
    ctx: &mut StageCtx<'_>,
    instruction: String,
    response: String,
) {
    let instruction = clean::clean_output(&instruction);
    let response = clean::clean_output(&response);
    match clean::validate_pair(&instruction, &response) {
        clean::Validity::Valid => {
            if instruction != item.pair.instruction {
                ctx.bump("instruction-changed");
            }
            if response != item.pair.response {
                ctx.bump("response-changed");
            }
            item.pair.instruction = instruction;
            item.pair.response = response;
        }
        _ => {
            ctx.bump("invalid");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coachlm_data::generator::{generate, GeneratorConfig};
    use coachlm_expert::filter::preliminary_filter;
    use coachlm_expert::pool::ExpertPool;
    use coachlm_expert::revision::ExpertReviser;

    fn arena(n: usize, seed: u64) -> Dataset {
        let (d, _) = generate(&GeneratorConfig::small(n, seed));
        d
    }

    fn trained_coach(n: usize, seed: u64) -> CoachLm {
        let d = arena(n, seed);
        let kept = preliminary_filter(&d, seed).kept;
        let records = ExpertReviser::new(seed).revise_dataset(&ExpertPool::paper_pool(), &d, &kept);
        CoachLm::train(crate::CoachConfig::default(), &records)
    }

    #[test]
    fn zoo_registry_has_the_standard_lineup() {
        let coach = trained_coach(200, 7);
        let zoo = StrategyZoo::standard(&coach, 11);
        assert_eq!(
            zoo.names(),
            vec![
                "coachlm",
                "reflection",
                "self-review",
                "auto-evol",
                "filter",
                "noop"
            ]
        );
        assert_eq!(zoo.len(), 6);
        assert!(!zoo.is_empty());
        assert!(zoo.get("self-review").is_some());
        assert!(zoo.get("missing").is_none());
    }

    #[test]
    fn self_review_loop_improves_scores_within_budget() {
        let input = arena(120, 3);
        let strategy = SelfReviewStrategy::new();
        let out = strategy.run(&input, &ExecutorConfig::new(5));
        let report = out.report(ReviseUntilPassStage::NAME).unwrap();
        // The loop is bounded: no pair may take more passes than BUDGET.
        assert!(
            report.iterations <= report.items_in as u64 * u64::from(ReviseUntilPassStage::BUDGET)
        );
        // And it is a real loop: some pairs need more than one pass.
        assert!(report.iterations > report.items_in as u64);
        let engine = CriteriaEngine::new();
        let before: f64 = input
            .pairs
            .iter()
            .map(|p| engine.score_pair(&p.instruction, &p.response).response)
            .sum::<f64>()
            / input.pairs.len() as f64;
        let revised = out.into_dataset("arena-self-review");
        let after: f64 = revised
            .pairs
            .iter()
            .map(|p| engine.score_pair(&p.instruction, &p.response).response)
            .sum::<f64>()
            / revised.pairs.len() as f64;
        assert!(
            after > before,
            "self-review should raise the mean response score ({before:.1} → {after:.1})"
        );
    }

    #[test]
    fn reflection_regenerates_from_critique_payloads() {
        let input = arena(80, 4);
        let strategy = ReflectionStrategy::new();
        let out = strategy.run(&input, &ExecutorConfig::new(9));
        let critique = out.report(CritiqueStage::NAME).unwrap();
        let regen = out.report(RegenerateStage::NAME).unwrap();
        assert_eq!(critique.items_in, input.pairs.len());
        assert!(regen.counter("regenerated") > 0);
        // A regeneration without a payload (journal replay path) matches
        // the recomputed critique, so both paths revise identically.
        let engine = CriteriaEngine::new();
        let c1 = CritiqueStage::critique(&engine, "do somthing", "Its a answer");
        let c2 = CritiqueStage::critique(&engine, "do somthing", "Its a answer");
        assert_eq!(c1, c2);
        assert!(!c1.is_clean());
    }

    #[test]
    fn evolution_lengthens_instructions_within_budget() {
        let input = arena(60, 6);
        let strategy = AutoEvolStrategy::new();
        let out = strategy.run(&input, &ExecutorConfig::new(2));
        let report = out.report(EvolveStage::NAME).unwrap();
        assert!(report.iterations <= report.items_in as u64 * u64::from(EvolveStage::BUDGET));
        let trajectory = report.counter("evolve:constraint")
            + report.counter("evolve:deepen")
            + report.counter("evolve:concretize");
        assert_eq!(trajectory, report.iterations);
        for (orig, evolved) in input.pairs.iter().zip(out.into_dataset("x").pairs.iter()) {
            assert!(
                token::word_count(&evolved.instruction) > token::word_count(&orig.instruction),
                "every instruction gains complexity"
            );
        }
    }

    #[test]
    fn noop_and_filter_partition_exactly() {
        let input = arena(100, 8);
        let noop = NoopStrategy.run(&input, &ExecutorConfig::new(1));
        assert_eq!(noop.retained().count(), input.pairs.len());
        for (orig, item) in input.pairs.iter().zip(noop.items.iter()) {
            assert_eq!(orig.instruction, item.pair.instruction);
            assert_eq!(orig.response, item.pair.response);
        }
        let filter = FilterStrategy::new(0).run(&input, &ExecutorConfig::new(1));
        let kept = filter.retained().count();
        let dropped = filter.dropped().count();
        assert_eq!(kept + dropped, input.pairs.len());
        assert!(dropped > 0, "the 4.5 bar drops some pairs");
    }
}
