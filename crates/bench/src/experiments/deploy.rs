//! §IV-A — CoachLM in the production data management pipeline (Fig 6).

use super::Experiment;
use crate::format::{f1, f2, pct, Table};
use crate::world::ExperimentWorld;
use coachlm_core::pipeline::{
    compare_deployment, run_batch, run_batch_supervised, run_stream, trained_coach, BatchJobSpec,
    CoachTrainSpec, PipelineReport,
};
use coachlm_data::generator::{generate, zipfian_duplicates, GeneratorConfig, ZipfianConfig};
use coachlm_data::pair::Dataset;
use coachlm_runtime::{
    BreakerPolicy, CachePolicy, ChaosPlan, ExecutorConfig, FaultPlan, Feed, KillMode,
    SuperviseOptions, WorkerKill,
};
use serde_json::json;
use std::time::{Duration, Instant};

/// Deployment experiment.
pub struct Deploy;

/// The latency-storm cell: every CoachRevise attempt suffers a spike far
/// past its 5 s deadline budget with this probability, modelling an
/// inference backend brown-out. An item only fails after all three
/// attempts time out, so the per-item failure rate is roughly the cube of
/// this; 0.8 keeps whole breaker windows above the trip threshold.
const STORM_LATENCY_RATE: f64 = 0.8;

/// The injected spike: double the revise stage's deadline budget, so every
/// struck attempt times out rather than merely running slow.
const STORM_SPIKE: Duration = Duration::from_secs(10);

/// The sustained-traffic cell: continuous arrivals at this multiple of the
/// service's modeled drain rate. Anything above 1.0 eventually fills the
/// admission backlog; the long-run shed share tends to
/// `1 - 1/SUSTAINED_OVERLOAD` once it does.
const SUSTAINED_OVERLOAD: f64 = 1.5;

/// Admission backlog capacity (pairs queued but not yet admitted) before
/// the front door starts shedding.
const SUSTAINED_BACKLOG: usize = 256;

/// The duplicate-traffic cell: Zipf exponent of the arriving user cases.
/// ~1.1 is web-like skew — a handful of head contents dominate.
const DEDUP_SKEW: f64 = 1.1;

/// The shard-crash cell (PR 10): worker shards for the supervised run —
/// each a crash-contained child process of the repro binary.
const CRASH_SHARDS: usize = 4;

/// Item frames shard 0's worker emits before the chaos kill lands.
const CRASH_KILL_AFTER_FRAMES: u64 = 3;

/// Synthetic training pairs for the cell's self-contained coach. The repro
/// process trains it once and ships the encoded model to its worker
/// processes, which decode it on every attempt (including the post-crash
/// restart) and never train.
const CRASH_TRAIN_PAIRS: u32 = 400;

fn storm_breaker() -> BreakerPolicy {
    BreakerPolicy::new()
        .window(64)
        .trip_ratio(0.25)
        .min_failures(8)
        .cooldown_epochs(1)
        .probes(8)
}

impl Experiment for Deploy {
    fn id(&self) -> &'static str {
        "deploy"
    }

    fn title(&self) -> &'static str {
        "Section IV-A: data management pipeline efficiency with vs without CoachLM"
    }

    fn run(&self, world: &ExperimentWorld) -> (String, serde_json::Value) {
        // A fresh raw batch (the paper's ~40k production pairs) — user-case
        // data, not the ALPACA52K stand-in, so generate with a new seed.
        let (raw, _) = generate(&GeneratorConfig {
            size: world.scale.deploy_size(),
            seed: world.seed ^ 0xDE9107,
            name: "production-batch".to_string(),
            ..GeneratorConfig::default()
        });
        let cmp = compare_deployment(&world.coach, &raw, &world.exec_config(0xDE))
            .expect("deploy chain always includes the expert-annotate stage");

        // The overload cell: the same assisted batch under an inference
        // brown-out. Timeouts exhaust retries into quarantine until the
        // CoachRevise breaker trips; from then on pairs pass through
        // unrevised (degraded) instead of stalling the platform, and the
        // expert annotators absorb them as ordinary unrevised pairs.
        let storm_config = world
            .exec_config(0xDE)
            .fault_plan(
                FaultPlan::new(world.seed ^ 0x5702).latency(STORM_LATENCY_RATE, STORM_SPIKE),
            )
            .breaker(storm_breaker());
        let storm = run_batch(Some(&world.coach), &raw, &storm_config)
            .expect("storm chain always includes the expert-annotate stage");

        // The sustained-traffic cell: instead of one pre-staged batch, the
        // same pairs arrive continuously at a rate above the service's
        // modeled drain capacity (paper: 1.19 samples/s per A100, one lane
        // per thread here). Admission control keeps the backlog bounded by
        // shedding overload arrivals at the front door — deterministically,
        // independent of thread count and queue depth — rather than letting
        // the pipeline stall.
        let drain_per_sec = 1.19 * world.threads as f64;
        let rate_per_sec = drain_per_sec * SUSTAINED_OVERLOAD;
        let sustained = run_stream(
            Some(&world.coach),
            &raw,
            &world.exec_config(0xDE),
            Feed::Sustained {
                rate_per_sec,
                drain_per_sec,
                backlog_capacity: SUSTAINED_BACKLOG,
            },
        )
        .expect("sustained chain always includes the expert-annotate stage");
        let shed_share = sustained.shed as f64 / raw.len().max(1) as f64;

        // The duplicate-traffic cell: the deployed service absorbing
        // Zipfian-duplicated user cases. The baseline re-runs the full
        // chain for every duplicate; the dedup configuration memoizes each
        // content's chain result in the revision cache, so duplicates
        // replay instead of re-executing. Both run on one executor at the
        // world's thread count, so the modeled makespans quantify what the
        // cache alone saves a service whose CoachRevise step costs ~840 ms
        // a pair.
        let dedup_total = world.scale.deploy_size();
        let dup_traffic = zipfian_duplicates(&ZipfianConfig::stress(
            (dedup_total / 20).max(1),
            dedup_total,
            DEDUP_SKEW,
            world.seed ^ 0xD0D0,
        ));
        let dedup_base = run_batch(Some(&world.coach), &dup_traffic, &world.exec_config(0xDE))
            .expect("dedup baseline always includes the expert-annotate stage");
        let dedup_config = world.exec_config(0xDE).revision_cache(CachePolicy::exact());
        let dedup = run_batch(Some(&world.coach), &dup_traffic, &dedup_config)
            .expect("dedup chain always includes the expert-annotate stage");
        let hit_rate = dedup.revision_cache.hit_rate();
        let dedup_speedup =
            dedup_base.sim_elapsed_secs / dedup.sim_elapsed_secs.max(f64::MIN_POSITIVE);

        // The shard-crash cell: the same service losing a worker replica
        // mid-batch. Every shard runs in its own crash-contained child
        // process; the chaos schedule aborts shard 0's worker a few frames
        // in, and supervision restarts it from its journal. A crash costs
        // wall time (respawn + replay), never output: the merged report
        // must carry the unsharded run's output and counts. Its modeled
        // makespan differs by design, since 4 workers model more lanes
        // than one executor.
        let crash_total = (world.scale.deploy_size() / 8).max(64);
        let mut crash_raw = Dataset::new("production-crash-cell");
        crash_raw.pairs = raw.pairs.iter().take(crash_total).cloned().collect();
        let crash_spec = BatchJobSpec {
            seed: world.seed ^ 0xC7A5,
            threads: world.threads.min(4) as u32,
            coach: Some(CoachTrainSpec {
                seed: world.seed ^ 0xC0A,
                pairs: CRASH_TRAIN_PAIRS,
            }),
        };
        let crash_coach = trained_coach(world.seed ^ 0xC0A, CRASH_TRAIN_PAIRS);
        let crash_config =
            ExecutorConfig::new(crash_spec.seed).threads(crash_spec.threads as usize);
        let t = Instant::now(); // lint: allow(D1, reason = "wall-clock restart-overhead banner only; parity is checked on the deterministic report")
        let crash_gold = run_batch(Some(&crash_coach), &crash_raw, &crash_config)
            .expect("crash cell chain always includes the expert-annotate stage");
        let crash_gold_wall = t.elapsed().as_secs_f64();
        let crash_dir =
            std::env::temp_dir().join(format!("coachlm-deploy-crash-{}", std::process::id()));
        let crash_opts = SuperviseOptions {
            chaos: ChaosPlan {
                worker_kills: vec![WorkerKill {
                    shard: 0,
                    attempt: 0,
                    after_frames: CRASH_KILL_AFTER_FRAMES,
                    mode: KillMode::Boundary,
                }],
                parent_kills: Vec::new(),
            },
            ..SuperviseOptions::default()
        };
        let t = Instant::now(); // lint: allow(D1, reason = "wall-clock restart-overhead banner only; parity is checked on the deterministic report")
        let crash = run_batch_supervised(
            &crash_spec,
            &crash_raw,
            CRASH_SHARDS,
            &crash_dir,
            &crash_opts,
        )
        .expect("crash cell chain always includes the expert-annotate stage");
        let crash_wall = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&crash_dir);
        let crash_restarts: u32 = crash.supervision.iter().map(|s| s.restarts).sum();
        let crash_matches = crash.report.output.pairs == crash_gold.output.pairs
            && crash.report.human_revised == crash_gold.human_revised
            && crash.report.post_edited == crash_gold.post_edited
            && crash.report.quarantined == crash_gold.quarantined
            && crash.report.person_days == crash_gold.person_days;

        let mut table = Table::new([
            "Batch",
            "Human-revised",
            "Post-edited",
            "Quarantined",
            "Degraded",
            "Shed",
            "Retries",
            "Timeouts",
            "Person-days",
            "Pairs/person-day",
        ]);
        for (label, r) in [
            ("manual", &cmp.manual),
            ("with CoachLM", &cmp.assisted),
            ("CoachLM + latency storm", &storm),
            ("CoachLM + sustained traffic", &sustained),
            ("CoachLM + duplicate traffic (uncached)", &dedup_base),
            ("CoachLM + duplicate traffic (cached)", &dedup),
            ("CoachLM + worker crash (supervised, subset)", &crash.report),
        ] {
            table.row([
                label.to_string(),
                r.human_revised.to_string(),
                r.post_edited.to_string(),
                r.quarantined.to_string(),
                r.degraded.to_string(),
                r.shed.to_string(),
                r.retries.to_string(),
                total_timeouts(r).to_string(),
                f1(r.person_days),
                f1(r.pairs_per_person_day),
            ]);
        }
        let mut breaker_lines: Vec<String> = storm
            .breaker_events
            .iter()
            .take(8)
            .map(|e| {
                format!(
                    "  epoch {:>3}  {}  {:?} -> {:?}",
                    e.epoch, e.stage, e.from, e.to
                )
            })
            .collect();
        if storm.breaker_events.len() > 8 {
            breaker_lines.push(format!(
                "  ... {} more transitions (persistent brown-out: the breaker keeps probing)",
                storm.breaker_events.len() - 8
            ));
        }
        let report = format!(
            "{}\nraw batch: {} pairs\nefficiency gain: {} (paper: net 15-20%, ~80 -> ~100 pairs/person-day)\n\
             CoachLM inference: {} samples/s on {} CPU threads (paper: 1.19 samples/s on one A100, batch 32)\n\
             storm cell: {:.0}% latency faults of {:?} vs a 5s revise budget; breaker transitions:\n{}\n\
             sustained cell: arrivals at {}/s vs {}/s drain, backlog cap {} -> {} pairs shed ({}), modeled makespan {}s\n\
             dedup cell: {} Zipf(s={}) duplicate pairs over {} contents; cache hit rate {} on {} threads -> \
             modeled makespan {}s vs {}s uncached ({}x, modeled)\n\
             crash cell: {} pairs over {} worker processes; shard 0 killed after {} frames -> {} restart(s), \
             output and counts match the unsharded run: {}; wall {:.1}s vs {:.1}s unsharded in-process\n{}",
            self.title(),
            raw.len(),
            pct(cmp.efficiency_gain()),
            f2(cmp.assisted.coachlm_samples_per_sec),
            world.threads,
            STORM_LATENCY_RATE * 100.0,
            STORM_SPIKE,
            if breaker_lines.is_empty() {
                "  (none)".to_string()
            } else {
                breaker_lines.join("\n")
            },
            f2(rate_per_sec),
            f2(drain_per_sec),
            SUSTAINED_BACKLOG,
            sustained.shed,
            pct(shed_share),
            f1(sustained.sim_elapsed_secs),
            dedup_total,
            DEDUP_SKEW,
            (dedup_total / 20).max(1),
            pct(hit_rate),
            world.threads,
            f1(dedup.sim_elapsed_secs),
            f1(dedup_base.sim_elapsed_secs),
            f1(dedup_speedup),
            crash_total,
            CRASH_SHARDS,
            CRASH_KILL_AFTER_FRAMES,
            crash_restarts,
            crash_matches,
            crash_wall,
            crash_gold_wall,
            table.render()
        );
        let json = json!({
            "raw_pairs": raw.len(),
            "manual": {"person_days": cmp.manual.person_days, "rate": cmp.manual.pairs_per_person_day,
                        "human_revised": cmp.manual.human_revised},
            "assisted": {"person_days": cmp.assisted.person_days, "rate": cmp.assisted.pairs_per_person_day,
                          "human_revised": cmp.assisted.human_revised, "post_edited": cmp.assisted.post_edited,
                          "quarantined": cmp.assisted.quarantined, "retries": cmp.assisted.retries,
                          "samples_per_sec": cmp.assisted.coachlm_samples_per_sec,
                          "stages": cmp.assisted.stage_summaries},
            "storm": {"person_days": storm.person_days, "rate": storm.pairs_per_person_day,
                       "quarantined": storm.quarantined, "degraded": storm.degraded,
                       "retries": storm.retries, "timeouts": total_timeouts(&storm),
                       "breaker_events": storm.breaker_events,
                       "latency_rate": STORM_LATENCY_RATE,
                       "spike_secs": STORM_SPIKE.as_secs_f64(),
                       "stages": storm.stage_summaries},
            "sustained": {"person_days": sustained.person_days, "rate": sustained.pairs_per_person_day,
                           "human_revised": sustained.human_revised, "post_edited": sustained.post_edited,
                           "shed": sustained.shed, "shed_share": shed_share,
                           "rate_per_sec": rate_per_sec, "drain_per_sec": drain_per_sec,
                           "backlog_capacity": SUSTAINED_BACKLOG,
                           "sim_elapsed_secs": sustained.sim_elapsed_secs,
                           "stages": sustained.stage_summaries},
            "dedup": {"total_pairs": dedup_total, "distinct_contents": (dedup_total / 20).max(1),
                       "zipf_exponent": DEDUP_SKEW, "threads": world.threads,
                       "cache": dedup.revision_cache, "hit_rate": hit_rate,
                       "sim_elapsed_secs": dedup.sim_elapsed_secs,
                       "uncached_sim_elapsed_secs": dedup_base.sim_elapsed_secs,
                       "sim_speedup": dedup_speedup,
                       "person_days": dedup.person_days,
                       "rate": dedup.pairs_per_person_day},
            "supervised_crash": {"pairs": crash_total, "shards": CRASH_SHARDS,
                       "kill": {"shard": 0, "attempt": 0, "after_frames": CRASH_KILL_AFTER_FRAMES,
                                 "mode": "boundary"},
                       "restarts": crash_restarts,
                       "supervision": crash.supervision,
                       "matches_unsharded_run": crash_matches,
                       "wall_secs": crash_wall,
                       "unsharded_wall_secs": crash_gold_wall,
                       "train_pairs": CRASH_TRAIN_PAIRS,
                       "person_days": crash.report.person_days,
                       "rate": crash.report.pairs_per_person_day},
            "efficiency_gain": cmp.efficiency_gain(),
            "paper": {"gain_low": 0.15, "gain_high": 0.20, "samples_per_sec_a100": 1.19},
        });
        (report, json)
    }
}

fn total_timeouts(r: &PipelineReport) -> u64 {
    r.stage_summaries.iter().map(|s| s.timeouts).sum()
}
