//! The §IV-A data management pipeline (Fig 6).
//!
//! Raw user cases flow through a declarative stage chain on the shared
//! executor — Clean → (optional) CoachRevise → ExpertAnnotate — and the
//! batch report is derived from the executor's per-stage reports. The
//! experiment compares two batches of the platform: without the CoachLM
//! stage (~80 high-quality pairs per person-day in the paper) and with it
//! (~100/person-day, a net 15–20 % gain), plus the CoachLM inference
//! throughput itself (paper: 1.19 samples/s on one A100 at batch 32; ours
//! is a CPU figure, reported for shape not magnitude).

use crate::baselines::CleanStage;
use crate::coach::{CoachConfig, CoachLm};
use crate::infer::CoachReviseStage;
use coachlm_data::category::TaskClass;
use coachlm_data::generator::{generate, GeneratorConfig};
use coachlm_data::pair::Dataset;
use coachlm_expert::cost::{Throughputs, Workload};
use coachlm_expert::filter::preliminary_filter;
use coachlm_expert::pool::ExpertPool;
use coachlm_expert::revision::ExpertReviser;
use coachlm_runtime::{
    run_sharded_process, shard, BreakerEvent, CacheStats, ChainOutput, Executor, ExecutorConfig,
    Feed, Journal, JournalError, ShardError, ShardStats, ShardSupervision, Stage, StageCtx,
    StageItem, StageOutcome, StageReport, StreamSource, SuperviseError, SuperviseOptions,
    SupervisedJob,
};
use serde::Serialize;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// Why a pipeline batch could not produce a report.
#[derive(Debug)]
pub enum PipelineError {
    /// The chain ran but produced no report for the named stage — the chain
    /// was assembled without it, so the batch accounting would be wrong.
    MissingStageReport(&'static str),
    /// A journaled batch could not use its crash journal (incompatible
    /// with this run, or journal IO failed).
    Journal(JournalError),
    /// A sharded batch was rejected at config validation, or a shard's
    /// crash journal failed.
    Shard(ShardError),
    /// A supervised multi-process batch failed at the supervisor level
    /// (worker crashes are handled by restart/failover, not errors).
    Supervise(SuperviseError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MissingStageReport(stage) => {
                write!(f, "pipeline chain produced no report for stage `{stage}`")
            }
            PipelineError::Journal(e) => write!(f, "pipeline crash journal: {e}"),
            PipelineError::Shard(e) => write!(f, "sharded pipeline batch: {e}"),
            PipelineError::Supervise(e) => write!(f, "supervised pipeline batch: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<JournalError> for PipelineError {
    fn from(e: JournalError) -> Self {
        PipelineError::Journal(e)
    }
}

impl From<ShardError> for PipelineError {
    fn from(e: ShardError) -> Self {
        PipelineError::Shard(e)
    }
}

impl From<SuperviseError> for PipelineError {
    fn from(e: SuperviseError) -> Self {
        PipelineError::Supervise(e)
    }
}

/// Production annotation throughputs (pairs/person-day), calibrated so the
/// manual batch lands near the paper's ~80 pairs/person-day.
pub fn production_throughputs() -> Throughputs {
    Throughputs {
        examine: 400.0,
        filter: 800.0,
        revise_language: 80.0,
        revise_qa: 60.0,
        revise_creative: 40.0,
        qc: 200.0,
        post_edit: 105.0,
    }
}

/// The human-annotation step as an executor stage: pairs still failing the
/// rubric get a full expert revision (counted per task class); pairs that
/// pass get at most a verification/post-edit pass.
pub struct ExpertAnnotateStage {
    reviser: ExpertReviser,
    pool: ExpertPool,
    count_post_edits: bool,
}

impl ExpertAnnotateStage {
    /// The stage's report name.
    pub const NAME: &'static str = "expert-annotate";

    /// A stage with its own reviser seed. `count_post_edits` enables the
    /// post-edit tally (only meaningful when a machine stage ran before
    /// this one, so passing pairs can differ from the originals).
    pub fn new(seed: u64, count_post_edits: bool) -> Self {
        ExpertAnnotateStage {
            reviser: ExpertReviser::new(seed),
            pool: ExpertPool::paper_pool(),
            count_post_edits,
        }
    }
}

impl Stage for ExpertAnnotateStage {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        // `revise` runs the rubric itself and returns a record exactly when
        // the rubric demands a revision, so each pair is judged once.
        if let Some(rec) = self.reviser.revise(&self.pool, &item.pair) {
            let key = match item.pair.category.class() {
                TaskClass::LanguageTask => "revise:language",
                TaskClass::QA => "revise:qa",
                TaskClass::Creative => "revise:creative",
            };
            ctx.bump(key);
            item.pair = rec.revised;
        } else if self.count_post_edits && (item.instruction_changed() || item.response_changed()) {
            ctx.bump("post-edited");
        }
        StageOutcome::Ok
    }

    fn deadline(&self) -> Option<std::time::Duration> {
        // Human annotation: generous — experts are slow but don't hang,
        // so only a pathological stall should time a pair out.
        Some(std::time::Duration::from_secs(30))
    }

    fn service_time(&self) -> std::time::Duration {
        // The machine-side handling per pair (queueing to annotators,
        // QC bookkeeping) — the human person-day cost is accounted
        // separately via `Workload::person_days`. Virtual-time model only.
        std::time::Duration::from_millis(300)
    }
}

/// A serialisable slice of a [`StageReport`].
#[derive(Debug, Clone, Serialize)]
pub struct StageSummary {
    /// Stage name.
    pub stage: String,
    /// Items that entered the stage.
    pub items_in: usize,
    /// Items retained after it.
    pub items_out: usize,
    /// Items the stage sent to quarantine.
    pub quarantined: usize,
    /// Retry attempts the executor spent on the stage.
    pub retries: u64,
    /// Attempts cut short because injected latency blew the stage's
    /// deadline budget.
    pub timeouts: u64,
    /// Items the stage passed through unrevised because its circuit
    /// breaker was open.
    pub degraded: usize,
    /// Time attributed to the stage (measured + simulated), summed across
    /// workers.
    pub cpu_seconds: f64,
    /// Derived processing rate (0 when unmeasurable).
    pub samples_per_sec: f64,
}

impl From<&StageReport> for StageSummary {
    fn from(r: &StageReport) -> Self {
        StageSummary {
            stage: r.stage.clone(),
            items_in: r.items_in,
            items_out: r.items_out,
            quarantined: r.quarantined,
            retries: r.retries,
            timeouts: r.timeouts,
            degraded: r.degraded,
            cpu_seconds: r.cpu_time.as_secs_f64(),
            samples_per_sec: r.samples_per_sec(),
        }
    }
}

/// Report of one pipeline batch.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineReport {
    /// Whether the CoachLM stage ran.
    pub with_coachlm: bool,
    /// Raw pairs entering the pipeline.
    pub raw_pairs: usize,
    /// Pairs the human annotators had to revise fully.
    pub human_revised: usize,
    /// Pairs only verified/post-edited (CoachLM precursor mode).
    pub post_edited: usize,
    /// Total person-days spent on human annotation.
    pub person_days: f64,
    /// High-quality pairs produced per person-day (the §IV-A headline).
    pub pairs_per_person_day: f64,
    /// CoachLM inference throughput derived from the revise stage's
    /// executor-measured time (samples per CPU-second, summed across
    /// workers); 0 when no CoachLM stage ran.
    pub coachlm_samples_per_sec: f64,
    /// Pairs quarantined by failing stages across the whole chain (retries
    /// exhausted or permanent failures); they are excluded from the output
    /// and from the throughput numerator, which is how degraded-mode
    /// throughput shows up in [`compare_deployment`].
    pub quarantined: usize,
    /// Retry attempts the executor spent across the whole chain.
    pub retries: u64,
    /// Pairs deliberately discarded by stages (filtering, not failure).
    pub dropped: usize,
    /// Pairs that passed through at least one tripped stage unrevised
    /// (the §III-B1 leakage fallback as overload protection), summed
    /// across stages. They stay in the output but contribute nothing to
    /// revision quality — the cost of keeping the pipeline flowing.
    pub degraded: usize,
    /// Circuit-breaker transitions across the batch, in (epoch, stage)
    /// order; empty unless the executor config set a breaker policy.
    pub breaker_events: Vec<BreakerEvent>,
    /// Pairs replayed from a crash journal rather than re-executed (0 for
    /// un-journaled batches and fresh journals).
    pub replayed: usize,
    /// Pairs shed by admission control before entering the chain — always
    /// 0 under a batch feed; under a sustained feed these are arrivals
    /// that found the admission backlog full and were discarded up front
    /// rather than allowed to grow the backlog without bound.
    pub shed: usize,
    /// Revision-cache tallies (all zeros unless the executor config set a
    /// [`coachlm_runtime::CachePolicy`]). With a cache, duplicate user
    /// cases replay the memoized revision of their first occurrence
    /// instead of re-running the chain — the deployment dedup semantic for
    /// repeated traffic.
    pub revision_cache: CacheStats,
    /// Modeled end-to-end elapsed seconds of the run under the executor's
    /// virtual-time model (the run's lanes × declared stage service times);
    /// deterministic for a fixed config, 0 for stage-less chains.
    pub sim_elapsed_secs: f64,
    /// Per-stage execution summaries, in chain order.
    pub stage_summaries: Vec<StageSummary>,
    /// Final dataset after the batch.
    #[serde(skip)]
    pub output: Dataset,
}

impl PipelineReport {
    /// Derives the batch report from a chain run, moving the retained
    /// pairs out of it into [`output`](Self::output).
    fn from_chain(
        mut out: ChainOutput,
        raw: &Dataset,
        with_coachlm: bool,
    ) -> Result<Self, PipelineError> {
        let annotate = out
            .report(ExpertAnnotateStage::NAME)
            .ok_or(PipelineError::MissingStageReport(ExpertAnnotateStage::NAME))?;
        let revised_by_class = (
            annotate.counter("revise:language") as usize,
            annotate.counter("revise:qa") as usize,
            annotate.counter("revise:creative") as usize,
        );
        let post_edited = annotate.counter("post-edited") as usize;
        let workload = Workload {
            filtered: 0,
            examined: annotate.items_in,
            revised: revised_by_class,
            post_edited,
        };
        let person_days = workload.person_days(&production_throughputs());
        let coachlm_samples_per_sec = out
            .report(CoachReviseStage::NAME)
            .map_or(0.0, StageReport::samples_per_sec);
        let produced = out.retained().count();
        Ok(PipelineReport {
            with_coachlm,
            raw_pairs: raw.len(),
            human_revised: revised_by_class.0 + revised_by_class.1 + revised_by_class.2,
            post_edited,
            person_days,
            pairs_per_person_day: if person_days > 0.0 {
                produced as f64 / person_days
            } else {
                0.0
            },
            coachlm_samples_per_sec,
            quarantined: out.total_quarantined(),
            retries: out.total_retries(),
            dropped: out.dropped().count(),
            degraded: out.total_degraded(),
            breaker_events: std::mem::take(&mut out.breaker_events),
            replayed: out.replayed,
            shed: out.shed,
            revision_cache: out.revision_cache,
            sim_elapsed_secs: out.sim_elapsed.as_secs_f64(),
            stage_summaries: out.reports.iter().map(StageSummary::from).collect(),
            output: out.into_dataset(format!("{}-produced", raw.name)),
        })
    }
}

/// Builds the pipeline's stage chain: Clean → (optional) CoachRevise →
/// ExpertAnnotate.
fn batch_stages<'a>(
    coach: Option<&'a CoachLm>,
    config: &ExecutorConfig,
) -> Vec<Box<dyn Stage + 'a>> {
    let mut stages: Vec<Box<dyn Stage + '_>> = vec![Box::new(CleanStage)];
    if let Some(c) = coach {
        stages.push(Box::new(CoachReviseStage::new(c)));
    }
    stages.push(Box::new(ExpertAnnotateStage::new(
        config.seed() ^ 0xA11CE,
        coach.is_some(),
    )));
    stages
}

/// Runs one batch through the platform.
///
/// `coach` enables the CoachLM precursor stage. Human annotation is the
/// expert reviser (deterministic rubric executor); its person-day cost is
/// modelled with [`production_throughputs`]. The chain seed, worker count,
/// fault plan, and retry policy come from `config`; workers never affect
/// the result. Stage failures quarantine the affected pairs instead of
/// panicking; they are counted in [`PipelineReport::quarantined`].
pub fn run_batch(
    coach: Option<&CoachLm>,
    raw: &Dataset,
    config: &ExecutorConfig,
) -> Result<PipelineReport, PipelineError> {
    run_stream(coach, raw, config, Feed::Batch)
}

/// Runs one batch through the platform under an explicit arrival model.
///
/// [`run_batch`] is this with [`Feed::Batch`]. A [`Feed::Sustained`] feed
/// models the deployed service absorbing continuous user traffic: pairs
/// arrive at the configured rate, and arrivals that find the admission
/// backlog full are shed deterministically
/// ([`PipelineReport::shed`]) instead of growing the backlog without
/// bound — the overload story of the Fig-6 deployment.
pub fn run_stream(
    coach: Option<&CoachLm>,
    raw: &Dataset,
    config: &ExecutorConfig,
    feed: Feed,
) -> Result<PipelineReport, PipelineError> {
    let stages = batch_stages(coach, config);
    let source = StreamSource {
        pairs: &raw.pairs,
        feed,
    };
    let out = Executor::new(config.clone()).run_stream(&stages, source);
    PipelineReport::from_chain(out, raw, coach.is_some())
}

/// Runs one batch like [`run_batch`], journaling every committed pair to
/// `journal` so a crashed batch can be resumed.
///
/// Call it again with a journal recovered by [`Journal::open`] and the
/// same raw data and config: committed pairs replay instead of
/// re-executing ([`PipelineReport::replayed`] counts them) and the report
/// is identical to an uninterrupted batch in every deterministic field.
pub fn run_batch_journaled(
    coach: Option<&CoachLm>,
    raw: &Dataset,
    config: &ExecutorConfig,
    journal: &mut Journal,
) -> Result<PipelineReport, PipelineError> {
    let stages = batch_stages(coach, config);
    let out = Executor::new(config.clone()).run_journaled(&stages, &raw.pairs, journal)?;
    PipelineReport::from_chain(out, raw, coach.is_some())
}

/// Report of one sharded batch: the merged chain report plus per-shard
/// execution stats.
#[derive(Debug, Clone, Serialize)]
pub struct ShardedPipelineReport {
    /// The merged batch report. Because every pipeline stage derives its
    /// randomness from pair ids (never from slot positions), the merged
    /// output is digest-identical to the unsharded [`run_batch`] at any
    /// shard count.
    pub report: PipelineReport,
    /// Per-shard stats in shard order.
    pub shards: Vec<ShardStats>,
    /// Per-shard supervision counters (restarts, failover, poison
    /// bisection) — empty for [`run_batch_sharded_journaled`], populated
    /// by [`run_batch_supervised`].
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub supervision: Vec<ShardSupervision>,
}

/// Runs one batch like [`run_batch`], hash-partitioned across `shards`
/// in-process executors, each with its own crash journal under `dir`
/// ([`shard::run_sharded_journaled`]). One multi-lane [`run_batch`] does
/// the same work behind one global cache pre-pass; this driver stays only
/// because coachbench's durability ladder still times it.
///
/// Routing is by content fingerprint, so duplicate user cases co-locate
/// and a per-shard revision cache (configure one with
/// [`ExecutorConfig::revision_cache`]) keeps its full hit rate.
/// Re-running after a crash resumes every shard from its own journal —
/// including a warm revision cache, whose replayed entries converge the
/// resumed run to the uninterrupted digest.
pub fn run_batch_sharded_journaled(
    coach: Option<&CoachLm>,
    raw: &Dataset,
    config: &ExecutorConfig,
    shards: usize,
    dir: &std::path::Path,
) -> Result<ShardedPipelineReport, PipelineError> {
    let stages = batch_stages(coach, config);
    let out = shard::run_sharded_journaled(
        config,
        &stages,
        StreamSource::batch(&raw.pairs),
        shards,
        dir,
    )?;
    let report = PipelineReport::from_chain(out.output, raw, coach.is_some())?;
    Ok(ShardedPipelineReport {
        report,
        shards: out.shards,
        supervision: Vec::new(),
    })
}

/// Chain name the supervised batch pipeline registers with the worker
/// protocol's job factory (see [`run_batch_supervised`]). Version 2: the
/// params carry the trained model after the [`BatchJobSpec`] head.
pub const BATCH_CHAIN: &str = "coachlm/batch-v2";

/// How the parent trains the coach a supervised batch ships: the
/// deterministic recipe of [`trained_coach`] (synthetic corpus →
/// preliminary filter → expert revision records → [`CoachLm::train`]).
/// [`run_batch_supervised`] trains it at most once per process and sends
/// the model's [`CoachLm::to_bytes`] in the job params; workers decode
/// those bytes and never train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoachTrainSpec {
    /// Seed for the synthetic training corpus and the expert reviser.
    pub seed: u64,
    /// Synthetic training pairs to generate.
    pub pairs: u32,
}

/// The fixed-width head of the [`BATCH_CHAIN`] job params: the executor
/// config a worker rebuilds, and which coach, if any, the batch runs. The
/// encoded model follows the head when `coach` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchJobSpec {
    /// Executor seed (stage RNG and derived stage seeds).
    pub seed: u64,
    /// Executor worker threads inside each shard process.
    pub threads: u32,
    /// Train, ship and run the CoachLM revise stage; `None` is the manual
    /// batch.
    pub coach: Option<CoachTrainSpec>,
}

impl BatchJobSpec {
    /// Length of [`BatchJobSpec::encode`]'s output.
    const LEN: usize = 25;

    /// Serialises the spec into the head of the worker protocol's JOB
    /// params (fixed-width little-endian fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.threads.to_le_bytes());
        match self.coach {
            None => {
                out.push(0);
                out.extend_from_slice(&0u64.to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes());
            }
            Some(c) => {
                out.push(1);
                out.extend_from_slice(&c.seed.to_le_bytes());
                out.extend_from_slice(&c.pairs.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`BatchJobSpec::encode`]; `None` on malformed bytes.
    pub fn decode(bytes: &[u8]) -> Option<BatchJobSpec> {
        if bytes.len() != Self::LEN {
            return None;
        }
        let seed = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let threads = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        let coach_seed = u64::from_le_bytes(bytes[13..21].try_into().ok()?);
        let coach_pairs = u32::from_le_bytes(bytes[21..25].try_into().ok()?);
        let coach = match bytes[12] {
            0 if coach_seed == 0 && coach_pairs == 0 => None,
            1 => Some(CoachTrainSpec {
                seed: coach_seed,
                pairs: coach_pairs,
            }),
            _ => return None,
        };
        Some(BatchJobSpec {
            seed,
            threads,
            coach,
        })
    }
}

/// Trains a CoachLM from the deterministic synthetic recipe — the same
/// corpus → filter → expert-revision → train path the test suite uses.
/// Not memoized: every call trains.
pub fn trained_coach(seed: u64, pairs: u32) -> CoachLm {
    let (d, _) = generate(&GeneratorConfig::small(pairs as usize, seed));
    let kept = preliminary_filter(&d, seed).kept;
    let records = ExpertReviser::new(seed).revise_dataset(&ExpertPool::paper_pool(), &d, &kept);
    CoachLm::train(CoachConfig::default(), &records)
}

/// The last coach this process shipped: its training spec and encoded
/// model. One slot, so a process that keeps submitting supervised batches
/// under one coach trains it once.
static SHIPPED_COACH: Mutex<Option<(CoachTrainSpec, Vec<u8>)>> = Mutex::new(None);

/// The [`BATCH_CHAIN`] params for `spec`: the encoded spec, then the
/// encoded model when the batch runs a coach, trained on a
/// [`SHIPPED_COACH`] miss.
fn batch_params(spec: &BatchJobSpec) -> Vec<u8> {
    let mut params = spec.encode();
    if let Some(coach) = spec.coach {
        // The slot is only ever replaced whole, so a lock poisoned by a
        // panicking training run still holds a consistent entry.
        let mut slot = SHIPPED_COACH.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref().is_some_and(|(key, _)| *key != coach) {
            *slot = None;
        }
        let (_, model) =
            slot.get_or_insert_with(|| (coach, trained_coach(coach.seed, coach.pairs).to_bytes()));
        params.extend_from_slice(model);
    }
    params
}

/// Inverse of [`batch_params`]. `None` for params shorter than the spec,
/// a coach flag without model bytes or model bytes without the flag, and
/// model bytes [`CoachLm::from_bytes`] refuses.
fn decode_batch_params(params: &[u8]) -> Option<(BatchJobSpec, Option<CoachLm>)> {
    let (head, model) = params.split_at_checked(BatchJobSpec::LEN)?;
    let spec = BatchJobSpec::decode(head)?;
    let coach = match (spec.coach, model.is_empty()) {
        (None, true) => None,
        (Some(_), false) => Some(CoachLm::from_bytes(model)?),
        _ => return None,
    };
    Some((spec, coach))
}

/// The batch pipeline as a process-shippable supervised job: owns the
/// decoded coach so the borrowed stage chain has something to point at.
struct SupervisedBatchJob {
    config: ExecutorConfig,
    coach: Option<CoachLm>,
}

impl SupervisedJob for SupervisedBatchJob {
    fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    fn stages<'a>(&'a self) -> Vec<Box<dyn Stage + 'a>> {
        batch_stages(self.coach.as_ref(), &self.config)
    }
}

/// The pipeline's [`coachlm_runtime::JobFactory`]: rebuilds the
/// [`BATCH_CHAIN`] job from its wire params, decoding the shipped model.
/// The parent (for replay) and every worker attempt decode the same bytes,
/// so both sides run the same coach by construction. Pass this to
/// [`coachlm_runtime::worker_boot`] at the top of any binary that calls
/// [`run_batch_supervised`].
pub fn batch_job_factory(chain: &str, params: &[u8]) -> Option<Box<dyn SupervisedJob>> {
    if chain != BATCH_CHAIN {
        return None;
    }
    let (spec, coach) = decode_batch_params(params)?;
    Some(Box::new(SupervisedBatchJob {
        config: ExecutorConfig::new(spec.seed).threads(spec.threads as usize),
        coach,
    }))
}

/// Runs one batch like [`run_batch`], hash-partitioned across `shards`
/// crash-contained **worker processes**
/// ([`coachlm_runtime::supervise::run_sharded_process`]): a shard that
/// aborts, is OOM-killed, or corrupts its stream is restarted from its
/// journal under `dir`, failed over, or poison-bisected — the merged
/// report is digest-identical to the unsharded [`run_batch_journaled`]
/// with the same spec, and [`ShardedPipelineReport::supervision`] carries
/// the restart/failover/poison counters.
///
/// With `spec.coach` set, the coach is trained here, in the calling
/// process, the first time its [`CoachTrainSpec`] is seen (later calls
/// reuse the encoded model), and shipped to the workers in the job
/// params: no worker, restart, failover or bisection attempt trains.
///
/// The calling binary must invoke
/// [`coachlm_runtime::worker_boot`]`(`[`batch_job_factory`]`)` first thing
/// in `main`, so re-invocations of itself become workers.
pub fn run_batch_supervised(
    spec: &BatchJobSpec,
    raw: &Dataset,
    shards: usize,
    dir: &std::path::Path,
    opts: &SuperviseOptions,
) -> Result<ShardedPipelineReport, PipelineError> {
    let out = run_sharded_process(
        batch_job_factory,
        BATCH_CHAIN,
        &batch_params(spec),
        StreamSource::batch(&raw.pairs),
        shards,
        dir,
        opts,
    )?;
    let report = PipelineReport::from_chain(out.output, raw, spec.coach.is_some())?;
    Ok(ShardedPipelineReport {
        report,
        shards: out.shards,
        supervision: out.supervision,
    })
}

/// The §IV-A comparison: efficiency with vs without the CoachLM stage.
#[derive(Debug, Clone, Serialize)]
pub struct DeploymentComparison {
    /// Batch without CoachLM.
    pub manual: PipelineReport,
    /// Batch with CoachLM.
    pub assisted: PipelineReport,
}

impl DeploymentComparison {
    /// Relative efficiency gain (e.g. 0.2 = +20 %).
    pub fn efficiency_gain(&self) -> f64 {
        if self.manual.pairs_per_person_day <= 0.0 {
            return 0.0;
        }
        self.assisted.pairs_per_person_day / self.manual.pairs_per_person_day - 1.0
    }
}

/// Runs both batches on the same raw data. Under a faulty `config` the
/// quarantined pairs shrink each batch's output, so the comparison reports
/// degraded-mode throughput rather than failing.
pub fn compare_deployment(
    coach: &CoachLm,
    raw: &Dataset,
    config: &ExecutorConfig,
) -> Result<DeploymentComparison, PipelineError> {
    Ok(DeploymentComparison {
        manual: run_batch(None, raw, config)?,
        assisted: run_batch(Some(coach), raw, config)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coach::{CoachConfig, CoachLm};
    use coachlm_data::generator::{generate, GeneratorConfig};
    use coachlm_expert::filter::preliminary_filter;

    fn coach(seed: u64) -> CoachLm {
        let (d, _) = generate(&GeneratorConfig::small(2500, seed));
        let kept = preliminary_filter(&d, seed).kept;
        let records = ExpertReviser::new(seed).revise_dataset(&ExpertPool::paper_pool(), &d, &kept);
        CoachLm::train(CoachConfig::default(), &records)
    }

    fn config(seed: u64, threads: usize) -> ExecutorConfig {
        ExecutorConfig::new(seed).threads(threads)
    }

    #[test]
    fn coachlm_stage_reduces_human_revision_load() {
        let c = coach(1);
        let (raw, _) = generate(&GeneratorConfig::small(1200, 77));
        let cmp = compare_deployment(&c, &raw, &config(5, 4)).unwrap();
        assert!(
            cmp.assisted.human_revised < cmp.manual.human_revised / 2,
            "manual {} assisted {}",
            cmp.manual.human_revised,
            cmp.assisted.human_revised
        );
        assert!(cmp.assisted.post_edited > 0);
    }

    #[test]
    fn efficiency_gain_in_paper_band() {
        let c = coach(2);
        let (raw, _) = generate(&GeneratorConfig::small(2000, 42));
        let cmp = compare_deployment(&c, &raw, &config(3, 8)).unwrap();
        let gain = cmp.efficiency_gain();
        // Paper: net 15–20 % (we allow a wider band; the shape target is
        // "a meaningful but not overwhelming gain").
        assert!((0.08..0.45).contains(&gain), "gain {gain}");
    }

    #[test]
    fn manual_batch_near_80_pairs_per_person_day() {
        let (raw, _) = generate(&GeneratorConfig::small(2000, 43));
        let report = run_batch(None, &raw, &config(1, 4)).unwrap();
        assert!(
            (60.0..105.0).contains(&report.pairs_per_person_day),
            "rate {}",
            report.pairs_per_person_day
        );
        assert_eq!(report.coachlm_samples_per_sec, 0.0);
    }

    #[test]
    fn throughput_is_measured_when_coach_runs() {
        let c = coach(3);
        let (raw, _) = generate(&GeneratorConfig::small(300, 44));
        let report = run_batch(Some(&c), &raw, &config(1, 4)).unwrap();
        assert!(report.coachlm_samples_per_sec > 0.0);
        assert!(report.with_coachlm);
    }

    #[test]
    fn report_is_derived_from_stage_reports() {
        let c = coach(5);
        let (raw, _) = generate(&GeneratorConfig::small(300, 46));
        let report = run_batch(Some(&c), &raw, &config(2, 4)).unwrap();
        let names: Vec<&str> = report
            .stage_summaries
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                CleanStage::NAME,
                CoachReviseStage::NAME,
                ExpertAnnotateStage::NAME
            ]
        );
        // Nothing is dropped in this chain, so every stage sees every pair.
        assert!(report
            .stage_summaries
            .iter()
            .all(|s| s.items_in == raw.len()));
        let manual = run_batch(None, &raw, &config(2, 4)).unwrap();
        assert_eq!(manual.stage_summaries.len(), 2);
    }

    #[test]
    fn journaled_batch_resumes_to_the_same_report() {
        use coachlm_runtime::{FaultPlan, Journal};
        let c = coach(6);
        let (raw, _) = generate(&GeneratorConfig::small(200, 47));
        let cfg = config(8, 4).fault_plan(FaultPlan::new(13).transient(0.15).permanent(0.03));
        let golden = run_batch(Some(&c), &raw, &cfg).unwrap();

        let path = std::env::temp_dir().join(format!(
            "coachlm-pipeline-journal-{}.wal",
            std::process::id()
        ));
        let mut journal = Journal::create(&path).unwrap();
        run_batch_journaled(Some(&c), &raw, &cfg, &mut journal).unwrap();
        let spans = journal.record_spans().to_vec();
        drop(journal);

        // Kill the batch halfway through its committed records and resume.
        let cut = spans[spans.len() / 2].0 + 1;
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..cut as usize]).unwrap();
        let mut recovered = Journal::open(&path).unwrap();
        let resumed = run_batch_journaled(Some(&c), &raw, &cfg, &mut recovered).unwrap();
        std::fs::remove_file(&path).ok();

        assert!(resumed.replayed > 0);
        assert_eq!(resumed.output, golden.output);
        assert_eq!(resumed.quarantined, golden.quarantined);
        assert_eq!(resumed.retries, golden.retries);
        assert_eq!(resumed.human_revised, golden.human_revised);
        assert_eq!(resumed.post_edited, golden.post_edited);
        assert_eq!(resumed.person_days, golden.person_days);
    }

    #[test]
    fn sharded_batch_matches_unsharded_report() {
        let c = coach(7);
        let (raw, _) = generate(&GeneratorConfig::small(400, 48));
        let cfg = config(11, 4);
        let base = run_batch(Some(&c), &raw, &cfg).unwrap();
        for shards in [1, 3] {
            let dir = std::env::temp_dir().join(format!(
                "coachlm-pipeline-shards-{}-{shards}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let sharded = run_batch_sharded_journaled(Some(&c), &raw, &cfg, shards, &dir).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(sharded.report.output, base.output, "shards = {shards}");
            assert_eq!(sharded.report.human_revised, base.human_revised);
            assert_eq!(sharded.report.post_edited, base.post_edited);
            assert_eq!(sharded.report.person_days, base.person_days);
            assert_eq!(sharded.shards.len(), shards);
        }
    }

    /// A stage summary without its measured fields (`cpu_seconds` and the
    /// `samples_per_sec` derived from it).
    fn counted(s: &StageSummary) -> (String, usize, usize, usize, u64, u64, usize) {
        let StageSummary {
            stage,
            items_in,
            items_out,
            quarantined,
            retries,
            timeouts,
            degraded,
            cpu_seconds: _,
            samples_per_sec: _,
        } = s;
        (
            stage.clone(),
            *items_in,
            *items_out,
            *quarantined,
            *retries,
            *timeouts,
            *degraded,
        )
    }

    #[test]
    fn trained_chain_report_is_thread_count_invariant() {
        use coachlm_runtime::{BreakerPolicy, FaultPlan, RetryPolicy};
        use std::time::Duration;
        let c = coach(8);
        let (raw, _) = generate(&GeneratorConfig::small(300, 49));
        let base = run_batch(Some(&c), &raw, &config(12, 1)).unwrap();
        assert!(base.human_revised > 0 && base.post_edited > 0);
        let base_stages: Vec<_> = base.stage_summaries.iter().map(counted).collect();
        for threads in [2, 3, 8] {
            let report = run_batch(Some(&c), &raw, &config(12, threads)).unwrap();
            assert_eq!(report.output, base.output, "threads = {threads}");
            assert_eq!(
                report.human_revised, base.human_revised,
                "threads = {threads}"
            );
            assert_eq!(report.post_edited, base.post_edited, "threads = {threads}");
            let stages: Vec<_> = report.stage_summaries.iter().map(counted).collect();
            assert_eq!(stages, base_stages, "threads = {threads}");
        }

        let chaos = |threads| {
            config(12, threads)
                .fault_plan(
                    FaultPlan::new(21)
                        .transient(0.2)
                        .permanent(0.05)
                        .latency(0.3, Duration::from_secs(8)),
                )
                .retry_policy(RetryPolicy::new(3, Duration::from_millis(10)))
                .breaker(
                    BreakerPolicy::new()
                        .window(32)
                        .trip_ratio(0.2)
                        .min_failures(4)
                        .cooldown_epochs(1)
                        .probes(4),
                )
        };
        let one = run_batch(Some(&c), &raw, &chaos(1)).unwrap();
        let eight = run_batch(Some(&c), &raw, &chaos(8)).unwrap();
        assert!(!one.breaker_events.is_empty(), "the breaker never tripped");
        assert_eq!(eight.output, one.output);
        assert_eq!(eight.breaker_events, one.breaker_events);
    }

    #[test]
    fn cached_batch_absorbs_duplicate_traffic() {
        use coachlm_data::generator::{zipfian_duplicates, ZipfianConfig};
        use coachlm_runtime::CachePolicy;
        let raw = zipfian_duplicates(&ZipfianConfig::stress(40, 600, 1.1, 5));
        let cfg = config(13, 4).revision_cache(CachePolicy::exact());
        let report = run_batch(None, &raw, &cfg).unwrap();
        assert_eq!(report.output.len(), 600);
        assert!(
            report.revision_cache.hit_rate() > 0.8,
            "hit rate {}",
            report.revision_cache.hit_rate()
        );
        // One lane reproduces the four-lane cached batch exactly: the
        // cache's pre-pass sees the whole input whatever the lane count.
        let one_lane = run_batch(
            None,
            &raw,
            &config(13, 1).revision_cache(CachePolicy::exact()),
        )
        .unwrap();
        assert_eq!(one_lane.output, report.output);
        assert_eq!(one_lane.revision_cache, report.revision_cache);
        // An uncached run reports all zeros.
        let uncached = run_batch(None, &raw, &config(13, 4)).unwrap();
        assert_eq!(uncached.revision_cache, CacheStats::default());
    }

    /// A small coach keeps the shipped model, and so each decode, cheap.
    const SHIP: CoachTrainSpec = CoachTrainSpec {
        seed: 3,
        pairs: 150,
    };

    fn shipping_spec(coach: Option<CoachTrainSpec>) -> BatchJobSpec {
        BatchJobSpec {
            seed: 0x5EED,
            threads: 2,
            coach,
        }
    }

    /// What [`batch_params`] sends for a decoded job: the spec's head,
    /// then the model's bytes.
    fn reencode((spec, coach): &(BatchJobSpec, Option<CoachLm>)) -> Vec<u8> {
        let mut params = spec.encode();
        if let Some(c) = coach {
            params.extend_from_slice(&c.to_bytes());
        }
        params
    }

    #[test]
    fn job_params_ship_the_trained_coach() {
        let coach = trained_coach(SHIP.seed, SHIP.pairs);
        let params = batch_params(&shipping_spec(Some(SHIP)));
        let mut want = shipping_spec(Some(SHIP)).encode();
        want.extend_from_slice(&coach.to_bytes());
        assert_eq!(params, want);
        let decoded = decode_batch_params(&params).expect("real params decode");
        assert_eq!(decoded.0, shipping_spec(Some(SHIP)));
        let shipped = decoded.1.as_ref().expect("the coach is shipped");
        assert_eq!(shipped.fingerprint(), coach.fingerprint());
        assert_eq!(reencode(&decoded), params);

        // The one-slot memo follows the spec: a different coach replaces
        // it, and the first one comes back intact.
        let other = CoachTrainSpec { seed: 4, ..SHIP };
        let other_params = batch_params(&shipping_spec(Some(other)));
        assert_eq!(
            &other_params[BatchJobSpec::LEN..],
            trained_coach(other.seed, other.pairs).to_bytes().as_slice()
        );
        assert_eq!(batch_params(&shipping_spec(Some(SHIP))), params);

        let manual = batch_params(&shipping_spec(None));
        assert_eq!(manual, shipping_spec(None).encode());
        assert!(matches!(decode_batch_params(&manual), Some((_, None))));
    }

    #[test]
    fn malformed_job_params_are_refused() {
        let params = batch_params(&shipping_spec(Some(SHIP)));
        let (head, model) = params.split_at(BatchJobSpec::LEN);
        let manual_head = shipping_spec(None).encode();
        let mut model_without_flag = manual_head.clone();
        model_without_flag.extend_from_slice(model);
        let mut bad_model = params.clone();
        bad_model.pop();
        for (what, bytes) in [
            ("shorter than the spec", &params[..BatchJobSpec::LEN - 1]),
            ("a coach flag without model bytes", head),
            ("model bytes without the flag", &model_without_flag[..]),
            ("bad model bytes", &bad_model[..]),
        ] {
            assert!(decode_batch_params(bytes).is_none(), "{what}");
            assert!(batch_job_factory(BATCH_CHAIN, bytes).is_none(), "{what}");
        }
        assert!(batch_job_factory("coachlm/batch-v1", &params).is_none());
        assert!(batch_job_factory(BATCH_CHAIN, &params).is_some());
    }

    /// Seeded byte mutations of real params — bit flips, truncations,
    /// extensions and splices — never panic the factory, and any params it
    /// accepts re-encode byte for byte.
    #[test]
    fn mutated_job_params_never_panic_the_factory() {
        use rand::Rng;
        let real = batch_params(&shipping_spec(Some(SHIP)));
        let manual = batch_params(&shipping_spec(None));
        let model = real[BatchJobSpec::LEN..].to_vec();
        let (mut accepted, mut refused) = (0, 0);
        for case in 0..proptest::cases() {
            let mut rng = proptest::case_rng("mutated_job_params", case);
            let base = if rng.gen_bool(0.75) { &real } else { &manual };
            // Half the time mutate the fixed-width head alone, so its
            // fields see as many mutations as the much longer model bytes.
            let m = if rng.gen_bool(0.5) {
                let (head, rest) = base.split_at(BatchJobSpec::LEN);
                let mut m = proptest::mutate(&mut rng, head, &model);
                m.extend_from_slice(rest);
                m
            } else {
                proptest::mutate(&mut rng, base, &model)
            };
            let job = batch_job_factory(BATCH_CHAIN, &m);
            match decode_batch_params(&m) {
                Some(decoded) => {
                    assert!(job.is_some(), "case {case}: decodes but no job");
                    assert_eq!(reencode(&decoded), m, "case {case}: re-encoding differs");
                    accepted += 1;
                }
                None => {
                    assert!(job.is_none(), "case {case}: a job from refused params");
                    refused += 1;
                }
            }
        }
        assert!(refused > 0, "no mutation was refused");
        println!("mutated job params: {accepted} accepted, {refused} refused");
    }

    #[test]
    fn output_quality_meets_acceptance_in_both_modes() {
        let c = coach(4);
        let (raw, _) = generate(&GeneratorConfig::small(400, 45));
        let cmp = compare_deployment(&c, &raw, &config(9, 4)).unwrap();
        let engine = coachlm_judge::criteria::CriteriaEngine::new();
        for report in [&cmp.manual, &cmp.assisted] {
            let avg: f64 = report
                .output
                .iter()
                .map(|p| engine.score_pair(&p.instruction, &p.response).response)
                .sum::<f64>()
                / report.output.len() as f64;
            assert!(avg > 85.0, "avg {avg} (coachlm={})", report.with_coachlm);
        }
    }
}
