//! The traced run: per-layer metrics of one workload.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; nothing inside the program is instrumented. Four probes:
//!
//! * the workload's own pass, in process, at threads 2 and 1 — executor
//!   wall, scaling, stage cpu as the program reports it, cache tallies;
//! * a kernel replay: the stage bodies' public kernels called in chain
//!   order over the pairs the chain executes, one span per call, so
//!   threads=1 wall minus kernel busy time names the executor's share;
//! * fixed-cost probes: 1-pair calls and an all-duplicate cache pass;
//! * a durability ladder over the first `probe_pairs` inputs — plain,
//!   journaled, sharded, supervised — whose differences are the journal,
//!   shard and process-isolation costs.
//!
//! Each probe runs between host-speed reference runs, and its times are
//! scaled to nominal host speed like the end-to-end ones (`calibrate`).

use crate::calibrate::{self, Reference};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workload::{
    fresh_dir, remove_dir, Bench, Fingerprint, SetupTimes, Workload, CHAIN_SEED,
};
use coachlm_core::infer::CoachReviseStage;
use coachlm_core::pipeline::{
    run_batch, run_batch_journaled, run_batch_sharded_journaled, run_batch_supervised,
    PipelineReport,
};
use coachlm_data::{Dataset, InstructionPair};
use coachlm_expert::pool::ExpertPool;
use coachlm_expert::revision::ExpertReviser;
use coachlm_judge::criteria::CriteriaEngine;
use coachlm_runtime::simtime::Stopwatch;
use coachlm_runtime::{CachePolicy, ExecutorConfig, Journal, SuperviseOptions};
use coachlm_text::clean;
use coachlm_text::fxhash::{fingerprint_fields, FxHashMap, FxHashSet, FxHasher};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::Hasher;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a traced run measured and verified.
pub struct LayerRun {
    pub metrics: Vec<Metric>,
    pub checks: Vec<(String, bool)>,
    pub attempted: usize,
    pub failed: usize,
    /// Output fingerprint of the in-process pass at threads=2.
    pub print: u64,
}

/// 1-pair calls per thread count in the fixed-cost probe.
const FIXED_CALLS: usize = 200;
/// All-duplicate calls in the cache hit-path probe.
const HIT_CALLS: usize = 5;
/// Rounds of the durability ladder; each difference is their median.
const LADDER_ROUNDS: usize = 3;

pub fn run(
    bench: &Bench,
    setups: &[SetupTimes],
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Result<LayerRun, String> {
    let mut run = LayerRun {
        metrics: Vec::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
        print: 0,
    };
    let secs = |d: Duration| d.as_secs_f64();
    let setup_median = |f: fn(&SetupTimes) -> Duration| {
        let values: Vec<f64> = setups.iter().map(|s| secs(f(s))).collect();
        Summary::of(&values).map_or(0.0, |s| s.median)
    };
    run.push("data.generate_s", "s", setup_median(|s| s.generate));
    run.push("lm.train_s", "s", setup_median(|s| s.train));

    // The workload's pass, in process.
    let (two, s2) = reference.bracketed(|| in_process_pass(bench, 2, tracer, &mut run));
    let (one, s1) = reference.bracketed(|| in_process_pass(bench, 1, tracer, &mut run));
    let (two, one) = (two?, one?);
    run.print = two.print;
    run.checks.push((
        "in-process threads=2 == threads=1".to_string(),
        two.print == one.print,
    ));

    // Kernel replay, untraced then traced, then the rubric on its own.
    let pairs = executed_pairs(bench);
    let kernels = Kernels::new(bench);
    let (untraced, su) = reference.bracketed(|| {
        let clock = Stopwatch::start();
        black_box(kernels.replay(&pairs, &mut Tracer::new(false)));
        clock.elapsed()
    });
    let ((replayed, traced), st) = reference.bracketed(|| {
        let clock = Stopwatch::start();
        let replayed = kernels.replay(&pairs, tracer);
        (replayed, clock.elapsed())
    });
    let mismatched = replayed.mismatches(&one.reports);
    println!(
        "kernel replay: {} of {} replayed pairs differ from the chain's threads=1 output",
        mismatched,
        pairs.len()
    );
    let engine = CriteriaEngine::new();
    let ((), sj) = reference.bracketed(|| {
        for (i, pair) in replayed.annotated.iter().enumerate() {
            tracer.span("judge.analyze", i as u64, || {
                black_box(engine.analyze_instruction(&pair.instruction));
                black_box(engine.analyze_response(&pair.instruction, &pair.response));
            });
        }
    });
    let busy = |name: &str| secs(tracer.busy(name)) * st;
    let kernels_busy: f64 = [
        "text.clean",
        "lm.revise_pair",
        "expert.needs_revision",
        "expert.revise",
    ]
    .iter()
    .map(|name| busy(name))
    .sum();
    let revise_us: Vec<f64> = tracer
        .durations("lm.revise_pair")
        .into_iter()
        .map(|d| d.as_secs_f64() * 1e6 * st)
        .collect();
    run.push("text.clean.busy_s", "s", busy("text.clean"));
    run.push("lm.revise_pair.busy_s", "s", busy("lm.revise_pair"));
    run.push(
        "lm.revise_pair.us_p50",
        "us",
        Summary::of(&revise_us).map_or(0.0, |s| s.median),
    );
    run.push(
        "judge.analyze.busy_s",
        "s",
        secs(tracer.busy("judge.analyze")) * sj,
    );
    run.push(
        "expert.needs_revision.busy_s",
        "s",
        busy("expert.needs_revision"),
    );
    run.push("expert.revise.busy_s", "s", busy("expert.revise"));
    run.push("expert.revise.calls", "count", replayed.revisions as f64);
    run.push("core.replay.mismatched_pairs", "count", mismatched as f64);
    run.push("core.kernels.busy_s", "s", kernels_busy);
    for (name, stage) in [
        ("core.stage_cpu_s.clean", "clean"),
        ("core.stage_cpu_s.coach-revise", "coach-revise"),
        ("core.stage_cpu_s.expert-annotate", "expert-annotate"),
    ] {
        let cpu: f64 = one
            .reports
            .iter()
            .flat_map(|r| &r.stage_summaries)
            .filter(|s| s.stage == stage)
            .map(|s| s.cpu_seconds)
            .sum();
        run.push(name, "s", cpu * s1);
    }

    // Executor: threads=1 wall against the kernels it runs.
    let (wall_1t, wall_2t) = (secs(one.wall) * s1, secs(two.wall) * s2);
    let overhead = wall_1t - kernels_busy;
    run.push("runtime.executor.wall_1t_s", "s", wall_1t);
    run.push("runtime.executor.wall_2t_s", "s", wall_2t);
    run.push("runtime.executor.overhead_s", "s", overhead);
    run.push(
        "runtime.executor.overhead_share",
        "ratio",
        overhead / wall_1t,
    );
    run.push("runtime.executor.scaling_2t", "ratio", wall_1t / wall_2t);
    let modeled: f64 = two.reports.iter().map(|r| r.sim_elapsed_secs).sum();
    run.push("runtime.executor.modeled_makespan_s", "s", modeled);
    let (fixed_2t, fixed_1t) = fixed_call_ms(bench, reference, tracer, &mut run)?;
    run.push("runtime.executor.call_fixed_ms", "ms", fixed_2t);
    run.push("runtime.executor.call_fixed_ms_1t", "ms", fixed_1t);

    // Revision cache.
    let hits: u64 = two.reports.iter().map(|r| r.revision_cache.hits()).sum();
    let misses: u64 = two.reports.iter().map(|r| r.revision_cache.misses).sum();
    let entries: u64 = two.reports.iter().map(|r| r.revision_cache.entries).sum();
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    run.push("runtime.cache.hit_rate", "ratio", hit_rate);
    run.push("runtime.cache.misses", "count", misses as f64);
    run.push("runtime.cache.entries", "count", entries as f64);
    let hit_path = hit_path_us(bench, reference, tracer, &mut run)?;
    run.push("runtime.cache.hit_path_us", "us", hit_path);

    durability_ladder(bench, reference, tracer, &mut run)?;

    run.push(
        "bench.trace_overhead_share",
        "ratio",
        (secs(traced) * st) / (secs(untraced) * su) - 1.0,
    );
    Ok(run)
}

impl LayerRun {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    fn account(&mut self, report: &PipelineReport) {
        self.attempted += report.raw_pairs;
        self.failed += report.quarantined + report.dropped + report.shed;
    }
}

/// One in-process pass over every call of the workload.
struct Pass {
    wall: Duration,
    reports: Vec<PipelineReport>,
    print: u64,
}

fn in_process_pass(
    bench: &Bench,
    threads: usize,
    tracer: &mut Tracer,
    run: &mut LayerRun,
) -> Result<Pass, String> {
    // `durable_shards` runs its chain in process here; its isolation
    // costs are the durability ladder's business.
    let config = bench.config(threads);
    let mut pass = Pass {
        wall: Duration::ZERO,
        reports: Vec::new(),
        print: 0,
    };
    let mut print = Fingerprint::default();
    let name = if threads == 1 {
        "core.pass_1t"
    } else {
        "core.pass_2t"
    };
    for (k, batch) in bench.batches.iter().enumerate() {
        let clock = Stopwatch::start();
        let report = tracer
            .span(name, k as u64, || {
                run_batch(Some(&bench.coach), batch, &config)
            })
            .map_err(|e| e.to_string())?;
        pass.wall += clock.elapsed();
        run.account(&report);
        print.add(&report);
        pass.reports.push(report);
    }
    pass.print = print.value();
    Ok(pass)
}

/// The pairs whose chain actually runs: with the revision cache, the
/// first occurrence of each content within its call; otherwise every
/// input pair.
fn executed_pairs(bench: &Bench) -> Vec<InstructionPair> {
    if bench.workload != Workload::DupTraffic {
        return bench.pairs().cloned().collect();
    }
    let mut executed = Vec::new();
    for batch in &bench.batches {
        let mut seen: FxHashSet<(&str, &str, u16)> = FxHashSet::default();
        executed.extend(
            batch
                .pairs
                .iter()
                .filter(|p| seen.insert((&p.instruction, &p.response, p.category.0)))
                .cloned(),
        );
    }
    executed
}

/// The stage bodies' kernels, called the way Clean, CoachRevise and
/// ExpertAnnotate call them, with the inputs and per-item random streams
/// the executor gives them.
struct Kernels<'a> {
    bench: &'a Bench,
    config: ExecutorConfig,
    training_ids: FxHashSet<u64>,
    reviser: ExpertReviser,
    pool: ExpertPool,
}

/// What a kernel replay produced.
struct Replayed {
    /// Each pair as ExpertAnnotate received it.
    annotated: Vec<InstructionPair>,
    /// Each pair as the chain would output it.
    outputs: Vec<InstructionPair>,
    /// Expert revisions made.
    revisions: usize,
}

impl Replayed {
    /// How many replayed outputs are missing from, or differ from, the
    /// outputs with the same id in `reports`. Zero means the replay ran
    /// the chain's own work; anything else names a gap between the layer
    /// timings and the chain they are compared with.
    fn mismatches(&self, reports: &[PipelineReport]) -> usize {
        let chain: FxHashMap<u64, &InstructionPair> = reports
            .iter()
            .flat_map(|r| &r.output.pairs)
            .map(|p| (p.id, p))
            .collect();
        self.outputs
            .iter()
            .filter(|p| chain.get(&p.id).copied() != Some(*p))
            .count()
    }
}

impl<'a> Kernels<'a> {
    fn new(bench: &'a Bench) -> Self {
        let config = bench.config(1);
        Kernels {
            bench,
            training_ids: bench.coach.trained_ids().iter().copied().collect(),
            reviser: ExpertReviser::new(config.seed() ^ 0xA11CE),
            pool: ExpertPool::paper_pool(),
            config,
        }
    }

    /// Replays the chain over `pairs`, one span per kernel call.
    fn replay(&self, pairs: &[InstructionPair], tracer: &mut Tracer) -> Replayed {
        let mut out = Replayed {
            annotated: Vec::with_capacity(pairs.len()),
            outputs: Vec::with_capacity(pairs.len()),
            revisions: 0,
        };
        for (i, input) in pairs.iter().enumerate() {
            let call = i as u64;
            let whole = tracer.open("core.replay_pair", call);
            let mut pair = input.clone();
            tracer.span("text.clean", call, || clean_stage(&mut pair));
            if !self.training_ids.contains(&pair.id) {
                let mut rng = StdRng::seed_from_u64(revise_seed(&self.config, input));
                let raw = tracer.span("lm.revise_pair", call, || {
                    self.bench
                        .coach
                        .revise_pair(&mut rng, &pair.instruction, &pair.response)
                });
                tracer.span("text.clean", call, || {
                    let instruction = clean::clean_output(&raw.instruction);
                    let response = clean::clean_output(&raw.response);
                    if clean::validate_pair(&instruction, &response) == clean::Validity::Valid {
                        pair.instruction = instruction;
                        pair.response = response;
                    }
                });
            }
            let needs = tracer.span("expert.needs_revision", call, || {
                self.reviser.needs_revision(&pair)
            });
            out.annotated.push(pair.clone());
            if needs {
                out.revisions += 1;
                let record = tracer.span("expert.revise", call, || {
                    self.reviser.revise(&self.pool, &pair)
                });
                if let Some(record) = record {
                    pair = record.revised;
                }
            }
            out.outputs.push(pair);
            tracer.close(whole);
        }
        out
    }
}

/// The seed of the random stream the executor hands CoachReviseStage for
/// `input` (the pair as it entered the chain): the chain seed, xor a salt
/// hashed from the stage's name and chain position (second), xor the
/// item's key times a constant, where the key is the pair id, or its
/// content fingerprint when the revision cache is on. This restates the
/// runtime's private `stage_salt` and `item_seed`; should they change,
/// `core.replay.mismatched_pairs` stops being 0.
fn revise_seed(config: &ExecutorConfig, input: &InstructionPair) -> u64 {
    const POSITION: u64 = 1;
    let mut name = FxHasher::default();
    name.write(CoachReviseStage::NAME.as_bytes());
    let salt = name
        .finish()
        .wrapping_add((POSITION + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let key = if config.is_content_keyed() {
        fingerprint_fields(&[
            input.instruction.as_bytes(),
            input.response.as_bytes(),
            &input.category.0.to_le_bytes(),
        ])
    } else {
        input.id
    };
    config.seed() ^ salt ^ key.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// CleanStage's body.
fn clean_stage(pair: &mut InstructionPair) {
    let mut response = clean::clean_output(&pair.response);
    for marker in ["### Response:", "### Instruction:"] {
        if let Some(stripped) = response.strip_prefix(marker) {
            response = stripped.trim_start().to_string();
        }
    }
    pair.response = response;
    pair.instruction = clean::strip_invalid_chars(&pair.instruction);
}

/// Median wall of a 1-pair `run_batch` at threads 2 and 1, in ms.
fn fixed_call_ms(
    bench: &Bench,
    reference: &mut Reference,
    tracer: &mut Tracer,
    run: &mut LayerRun,
) -> Result<(f64, f64), String> {
    let one = Dataset {
        name: "one-pair".to_string(),
        pairs: bench.pairs().take(1).cloned().collect(),
    };
    let (ms, scale) = reference.bracketed(|| {
        let mut ms = [Vec::new(), Vec::new()];
        for k in 0..FIXED_CALLS {
            for (side, threads) in [(0, 2), (1, 1)] {
                let config = bench.config(threads);
                let clock = Stopwatch::start();
                let report = tracer
                    .span("runtime.call_fixed", k as u64, || {
                        run_batch(Some(&bench.coach), &one, &config)
                    })
                    .map_err(|e| e.to_string())?;
                ms[side].push(clock.elapsed().as_secs_f64() * 1e3);
                run.account(&report);
            }
        }
        Ok::<_, String>(ms)
    });
    let ms = ms?;
    let median = |v: &[f64]| Summary::of(v).map_or(0.0, |s| s.median * scale);
    Ok((median(&ms[0]), median(&ms[1])))
}

/// Per-pair wall of an all-duplicate call as long as a `dup_traffic`
/// call, cached, at threads=2 (median of `HIT_CALLS`): every pair but the
/// first takes the hit path.
fn hit_path_us(
    bench: &Bench,
    reference: &mut Reference,
    tracer: &mut Tracer,
    run: &mut LayerRun,
) -> Result<f64, String> {
    let n = bench.sizes.shape(Workload::DupTraffic).0;
    let Some(first) = bench.pairs().next() else {
        return Err("workload has no input pairs".to_string());
    };
    let copies = Dataset {
        name: "all-duplicates".to_string(),
        pairs: (0..n as u64)
            .map(|k| InstructionPair {
                id: first.id + k,
                ..first.clone()
            })
            .collect(),
    };
    let config = ExecutorConfig::new(CHAIN_SEED)
        .threads(2)
        .revision_cache(CachePolicy::exact());
    let (us, scale) = reference.bracketed(|| {
        let mut us = Vec::with_capacity(HIT_CALLS);
        for k in 0..HIT_CALLS {
            let clock = Stopwatch::start();
            let report = tracer
                .span("runtime.cache.hit_call", k as u64, || {
                    run_batch(Some(&bench.coach), &copies, &config)
                })
                .map_err(|e| e.to_string())?;
            us.push(clock.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64);
            run.account(&report);
        }
        Ok::<_, String>(us)
    });
    Ok(Summary::of(&us?).map_or(0.0, |s| s.median * scale))
}

/// Plain, journaled, 2-shard journaled and 2-process supervised runs of
/// the same pairs, uncached (the supervised job has no cache), rounds in
/// alternating order. Every rung must reproduce the plain run's output.
fn durability_ladder(
    bench: &Bench,
    reference: &mut Reference,
    tracer: &mut Tracer,
    run: &mut LayerRun,
) -> Result<(), String> {
    let probe = Dataset {
        name: "durability-probe".to_string(),
        pairs: bench
            .pairs()
            .take(bench.sizes.probe_pairs)
            .cloned()
            .collect(),
    };
    let coach = Some(&bench.coach);
    let two = ExecutorConfig::new(CHAIN_SEED).threads(2);
    let one = ExecutorConfig::new(CHAIN_SEED).threads(1);
    let mut walls = [[0.0; 4]; LADDER_ROUNDS];
    let mut prints = [[0u64; 4]; LADDER_ROUNDS];
    let (mut bytes, mut frames, mut max_over_mean, mut restarts) = (0u64, 0usize, 0.0, 0u32);
    let mut before = reference.time();
    for round in 0..LADDER_ROUNDS {
        let mut order = [0usize, 1, 2, 3];
        if round % 2 == 1 {
            order.reverse();
        }
        for rung in order {
            let dir = fresh_dir(&bench.work_dir.join(format!("ladder-{rung}")))?;
            let clock = Stopwatch::start();
            let call = round as u64;
            let report = match rung {
                0 => tracer.span("runtime.plain", call, || run_batch(coach, &probe, &two)),
                1 => {
                    // Creating the empty journal file is inside the timed
                    // region; it costs microseconds against the batch.
                    let path = dir.join("journal.wal");
                    let mut journal = Journal::create(&path).map_err(|e| e.to_string())?;
                    let report = tracer.span("runtime.journal", call, || {
                        run_batch_journaled(coach, &probe, &two, &mut journal)
                    });
                    frames = journal.record_spans().len();
                    bytes = journal_len(journal, &path)?;
                    report
                }
                2 => tracer
                    .span("runtime.shard", call, || {
                        run_batch_sharded_journaled(coach, &probe, &one, 2, &dir)
                    })
                    .map(|out| {
                        let items: Vec<f64> = out.shards.iter().map(|s| s.items as f64).collect();
                        let mean = items.iter().sum::<f64>() / items.len().max(1) as f64;
                        max_over_mean = items.iter().copied().fold(0.0, f64::max) / mean;
                        out.report
                    }),
                _ => tracer
                    .span("runtime.supervise", call, || {
                        run_batch_supervised(
                            &bench.job_spec(),
                            &probe,
                            2,
                            &dir,
                            &SuperviseOptions::default(),
                        )
                    })
                    .map(|out| {
                        restarts = out.supervision.iter().map(|s| s.restarts).sum();
                        out.report
                    }),
            }
            .map_err(|e| e.to_string())?;
            let wall = clock.elapsed().as_secs_f64();
            let after = reference.time();
            walls[round][rung] = wall * calibrate::scale(&before, &after);
            before = after;
            remove_dir(&dir)?;
            run.account(&report);
            prints[round][rung] = Fingerprint::of(&report);
        }
    }
    let diff = |hi: usize, lo: usize| {
        let d: Vec<f64> = walls.iter().map(|w| w[hi] - w[lo]).collect();
        Summary::of(&d).map_or(0.0, |s| s.median)
    };
    run.push("runtime.journal.overhead_s", "s", diff(1, 0));
    run.push(
        "runtime.journal.bytes_per_pair",
        "B/pair",
        bytes as f64 / probe.pairs.len().max(1) as f64,
    );
    run.push("runtime.journal.frames", "count", frames as f64);
    run.push("runtime.shard.overhead_s", "s", diff(2, 1));
    run.push("runtime.shard.max_over_mean", "ratio", max_over_mean);
    run.push("runtime.supervise.isolation_s", "s", diff(3, 2));
    run.push("runtime.supervise.restarts", "count", f64::from(restarts));
    for (rung, what) in [
        (1, "journaled"),
        (2, "sharded journaled"),
        (3, "supervised"),
    ] {
        run.checks.push((
            format!("durability ladder: {what} == plain run_batch"),
            prints.iter().all(|p| p[rung] == prints[0][0]),
        ));
    }
    Ok(())
}

/// Closes `journal` and returns its file's size.
fn journal_len(journal: Journal, path: &Path) -> Result<u64, String> {
    drop(journal);
    Ok(std::fs::metadata(path).map_err(|e| e.to_string())?.len())
}
