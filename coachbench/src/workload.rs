//! The four workloads: inputs generated from the seed, the one call each
//! workload times, and the fingerprint every call's output is checked by.
//!
//! All four are closed loops: a call starts when the previous one has
//! returned, like the §IV-A platform submitting a batch and waiting for
//! it. Each runs the same job at two thread counts, the second being the
//! single-thread baseline.

use coachlm_core::coach::CoachLm;
use coachlm_core::pipeline::{
    run_batch, run_batch_sharded_journaled, run_batch_supervised, trained_coach, BatchJobSpec,
    CoachTrainSpec, PipelineReport,
};
use coachlm_data::generator::{generate, GeneratorConfig};
use coachlm_data::{Dataset, InstructionPair};
use coachlm_runtime::simtime::Stopwatch;
use coachlm_runtime::{CachePolicy, ExecutorConfig, SuperviseOptions};
use coachlm_text::fxhash::FxHasher;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The seed used when `--seed` is not given; its fingerprints are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Output fingerprints of the default seed at [`Sizes::STANDARD`], in
/// [`Workload::ALL`] order. A run with the default seed must reproduce
/// them exactly.
pub const PINNED: [u64; 4] = [
    0xa6b3_36af_fab8_69c2,
    0xedec_12ef_ff45_306c,
    0xbdb7_af92_ed5b_0323,
    0x2fc4_8839_1d0b_8366,
];

/// The deployed coach is one fixed model; only the traffic varies with
/// the seed.
pub const COACH_SEED: u64 = 0xC0AC;

/// The executor's chain seed, fixed for the same reason. It sets each
/// pair's random revision stream, and so the length of every revised
/// text: with the run's seed as chain seed, `dup_traffic`'s output, where
/// each head content's revision is copied tens of thousands of times,
/// moved peak memory between 502 and 603 MiB across seeds.
pub const CHAIN_SEED: u64 = 0xC4A1;

/// Seed of `dup_traffic`'s distinct contents. The content set is fixed
/// and only the Zipf draws over it vary with the run's seed: the head of
/// the draw holds most of the pool, so a per-seed content set moved peak
/// memory with the length of whichever contents landed there (about 7 %
/// across seeds).
const DUP_CONTENT_SEED: u64 = 0xD0B1;

/// Generated input ids start here. The coach's training corpus uses ids
/// `0..train_pairs`, and the revise stage skips any pair whose id it was
/// trained on (the §III-B1 leakage rule), so unshifted ids would silently
/// exempt part of every batch from revision.
const ID_BASE: u64 = 1 << 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6Batch,
    DupTraffic,
    DurableShards,
    MicroBatches,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig6Batch,
        Workload::DupTraffic,
        Workload::DurableShards,
        Workload::MicroBatches,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Batch => "fig6_batch",
            Workload::DupTraffic => "dup_traffic",
            Workload::DurableShards => "durable_shards",
            Workload::MicroBatches => "micro_batches",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn pinned(self) -> u64 {
        PINNED[self as usize]
    }
}

/// Input sizes. Every workload cycles through a pool of `calls` batches
/// of `batch` pairs; one call takes one batch.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Synthetic pairs in the coach's training recipe.
    pub train_pairs: u32,
    /// Pairs per call, per workload in [`Workload::ALL`] order.
    pub batch: [usize; 4],
    /// Calls per pass over the pool, in the same order.
    pub calls: [usize; 4],
    /// Distinct contents the `dup_traffic` pool is drawn from.
    pub dup_distinct: usize,
    /// Pairs in the traced run's journal/shard/supervise ladder.
    pub probe_pairs: usize,
}

impl Sizes {
    /// What the benchmark runs. Calls are short (about 0.1 s, except the
    /// supervised and the 200,000-pair duplicate-traffic ones), so a run
    /// collects many, and a pass is short enough for the host-speed
    /// reference taken around it to describe it.
    pub const STANDARD: Sizes = Sizes {
        train_pairs: 2000,
        batch: [500, 200_000, 1000, 32],
        calls: [6, 1, 1, 32],
        dup_distinct: 2000,
        probe_pairs: 1000,
    };

    /// Small enough for unit tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        train_pairs: 200,
        batch: [32, 64, 64, 16],
        calls: [2, 2, 1, 4],
        dup_distinct: 8,
        probe_pairs: 64,
    };

    /// (pairs per call, calls per pass) of `workload`.
    pub fn shape(&self, workload: Workload) -> (usize, usize) {
        let i = workload as usize;
        (self.batch[i], self.calls[i])
    }
}

/// A workload's inputs and model, ready to run.
pub struct Bench {
    pub workload: Workload,
    pub sizes: Sizes,
    pub coach: CoachLm,
    /// The pool, every input pair once, cut into the inputs of each call
    /// of one pass.
    pub batches: Vec<Dataset>,
    /// Where supervised and journaled runs keep their journals.
    pub work_dir: PathBuf,
}

/// Wall time of one set-up: input generation and coach training.
pub struct SetupTimes {
    pub generate: Duration,
    pub train: Duration,
}

impl SetupTimes {
    pub fn scaled(&self, factor: f64) -> SetupTimes {
        SetupTimes {
            generate: self.generate.mul_f64(factor),
            train: self.train.mul_f64(factor),
        }
    }
}

/// One timed call and what it returned.
pub struct Call {
    pub wall: Duration,
    pub report: PipelineReport,
}

impl Bench {
    /// Generates the inputs from `seed` and trains the coach, timing both.
    pub fn setup(
        workload: Workload,
        seed: u64,
        sizes: Sizes,
        work_dir: &Path,
    ) -> (Bench, SetupTimes) {
        let clock = Stopwatch::start();
        let raw = inputs(workload, seed, &sizes);
        let generate = clock.elapsed();
        let clock = Stopwatch::start();
        let coach = trained_coach(COACH_SEED, sizes.train_pairs);
        let train = clock.elapsed();
        let batch = sizes.shape(workload).0.max(1);
        let mut batches = Vec::new();
        let mut pairs = raw.pairs.into_iter();
        while pairs.len() > 0 {
            batches.push(Dataset {
                name: format!("{}-batch-{}", raw.name, batches.len()),
                pairs: pairs.by_ref().take(batch).collect(),
            });
        }
        let bench = Bench {
            workload,
            sizes,
            coach,
            batches,
            work_dir: work_dir.to_path_buf(),
        };
        (bench, SetupTimes { generate, train })
    }

    /// Every input pair, in pool order.
    pub fn pairs(&self) -> impl Iterator<Item = &InstructionPair> {
        self.batches.iter().flat_map(|b| &b.pairs)
    }

    /// A copy of the whole pool as one dataset, for untimed references.
    pub fn pool(&self) -> Dataset {
        Dataset {
            name: self.workload.name().to_string(),
            pairs: self.pairs().cloned().collect(),
        }
    }

    /// The in-process executor config at `threads` workers; `dup_traffic`
    /// runs with the exact revision cache.
    pub fn config(&self, threads: usize) -> ExecutorConfig {
        let config = ExecutorConfig::new(CHAIN_SEED).threads(threads);
        match self.workload {
            Workload::DupTraffic => config.revision_cache(CachePolicy::exact()),
            _ => config,
        }
    }

    /// The supervised job: one executor thread per worker process, the
    /// coach re-trained in each worker from the same recipe.
    pub fn job_spec(&self) -> BatchJobSpec {
        BatchJobSpec {
            seed: CHAIN_SEED,
            threads: 1,
            coach: Some(CoachTrainSpec {
                seed: COACH_SEED,
                pairs: self.sizes.train_pairs,
            }),
        }
    }

    /// Runs call `batch` of a pass with `threads` executor threads in
    /// total. For `durable_shards` that is `threads` worker processes of
    /// one thread each, with journals in a fresh directory.
    pub fn call(&self, threads: usize, batch: usize) -> Result<Call, String> {
        let input = self
            .batches
            .get(batch)
            .ok_or_else(|| format!("no batch {batch}"))?;
        match self.workload {
            Workload::DurableShards => {
                let dir = fresh_dir(&self.work_dir.join(format!("supervised-{threads}")))?;
                let clock = Stopwatch::start();
                let out = run_batch_supervised(
                    &self.job_spec(),
                    input,
                    threads,
                    &dir,
                    &SuperviseOptions::default(),
                );
                let wall = clock.elapsed();
                let report = out.map_err(|e| e.to_string())?.report;
                remove_dir(&dir)?;
                Ok(Call { wall, report })
            }
            _ => {
                let config = self.config(threads);
                let clock = Stopwatch::start();
                let out = run_batch(Some(&self.coach), input, &config);
                let wall = clock.elapsed();
                let report = out.map_err(|e| e.to_string())?;
                Ok(Call { wall, report })
            }
        }
    }

    /// Untimed cross-checks of `print`, the fingerprint of one whole pass,
    /// against reference computations, as (description, matched).
    pub fn reference_checks(&self, print: u64) -> Result<Vec<(String, bool)>, String> {
        let mut checks = Vec::new();
        match self.workload {
            Workload::DurableShards => {
                let pool = self.pool();
                let dir = fresh_dir(&self.work_dir.join("in-process"))?;
                let sharded =
                    run_batch_sharded_journaled(Some(&self.coach), &pool, &self.config(1), 2, &dir)
                        .map_err(|e| e.to_string())?;
                remove_dir(&dir)?;
                checks.push((
                    "supervised == in-process run_batch_sharded_journaled".to_string(),
                    Fingerprint::of(&sharded.report) == print,
                ));
                let unsharded = run_batch(Some(&self.coach), &pool, &self.config(1))
                    .map_err(|e| e.to_string())?;
                checks.push((
                    "supervised == unsharded run_batch".to_string(),
                    Fingerprint::of(&unsharded) == print,
                ));
            }
            Workload::Fig6Batch | Workload::MicroBatches => {
                let whole = run_batch(Some(&self.coach), &self.pool(), &self.config(2))
                    .map_err(|e| e.to_string())?;
                checks.push((
                    "concatenated calls == one run_batch over the pool".to_string(),
                    Fingerprint::of(&whole) == print,
                ));
            }
            // A cache lives for one call, and a hit replays the first
            // occurrence's revision, so one cached run over the pool is a
            // different computation; threads=2 against threads=1 is the
            // check here.
            Workload::DupTraffic => {}
        }
        Ok(checks)
    }
}

/// An empty directory at `path`. Journals left in it by an earlier run
/// would be resumed from, so a leftover is removed first.
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        remove_dir(path)?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

pub fn remove_dir(path: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Generates a workload's pool from `seed`.
pub fn inputs(workload: Workload, seed: u64, sizes: &Sizes) -> Dataset {
    let (batch, calls) = sizes.shape(workload);
    let mut raw = match workload {
        Workload::DupTraffic => zipf_draws(sizes.dup_distinct, batch * calls, seed),
        _ => generate(&GeneratorConfig::small(batch * calls, seed)).0,
    };
    for (i, pair) in raw.pairs.iter_mut().enumerate() {
        pair.id = ID_BASE + i as u64;
    }
    raw
}

/// `total` exact copies Zipf(1.1)-drawn from `distinct` generated
/// contents, as `zipfian_duplicates` (`compact: false`) draws them, but
/// with the contents generated from [`DUP_CONTENT_SEED`] and only the
/// draws from `seed`.
fn zipf_draws(distinct: usize, total: usize, seed: u64) -> Dataset {
    let contents = generate(&GeneratorConfig {
        size: distinct.max(1),
        seed: DUP_CONTENT_SEED,
        ..GeneratorConfig::default()
    })
    .0
    .pairs;
    let cumulative: Vec<f64> = (1..=contents.len())
        .scan(0.0, |acc, rank| {
            *acc += 1.0 / (rank as f64).powf(1.1);
            Some(*acc)
        })
        .collect();
    let total_weight = cumulative.last().copied().unwrap_or(1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Dataset::new(Workload::DupTraffic.name());
    out.pairs = (0..total)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..total_weight);
            let k = cumulative.partition_point(|&c| c <= u);
            contents[k.min(contents.len() - 1)].clone()
        })
        .collect();
    out
}

/// FxHash over the output pairs' `(id, instruction, response, category)`
/// plus the report's human_revised, post_edited, quarantined and dropped
/// counts. Reports added one after another (the calls of one pass) hash
/// like one report over the concatenated output with summed counts.
#[derive(Default)]
pub struct Fingerprint {
    pairs: FxHasher,
    counts: [usize; 4],
}

impl Fingerprint {
    pub fn of(report: &PipelineReport) -> u64 {
        let mut print = Fingerprint::default();
        print.add(report);
        print.value()
    }

    pub fn add(&mut self, report: &PipelineReport) {
        for pair in &report.output.pairs {
            hash_pair(&mut self.pairs, pair);
        }
        let counts = [
            report.human_revised,
            report.post_edited,
            report.quarantined,
            report.dropped,
        ];
        for (total, n) in self.counts.iter_mut().zip(counts) {
            *total += n;
        }
    }

    pub fn value(&self) -> u64 {
        let mut h = self.pairs;
        for n in self.counts {
            h.write_u64(n as u64);
        }
        h.finish()
    }
}

fn hash_pair(h: &mut FxHasher, pair: &InstructionPair) {
    h.write_u64(pair.id);
    for text in [&pair.instruction, &pair.response] {
        h.write_u64(text.len() as u64);
        h.write(text.as_bytes());
    }
    h.write_u64(u64::from(pair.category.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(workload: Workload) -> Bench {
        let work_dir = std::env::temp_dir().join(format!(
            "coachbench-test-{}-{}",
            workload.name(),
            std::process::id()
        ));
        Bench::setup(workload, 5, Sizes::TINY, &work_dir).0
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = inputs(w, 3, &Sizes::TINY);
            assert_eq!(a, inputs(w, 3, &Sizes::TINY), "{}", w.name());
            assert_ne!(a, inputs(w, 4, &Sizes::TINY), "{}", w.name());
            assert!(a.pairs.iter().all(|p| p.id >= ID_BASE));
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let b = bench(Workload::Fig6Batch);
        let report = b.call(2, 0).unwrap().report;
        let print = Fingerprint::of(&report);
        assert_eq!(print, Fingerprint::of(&b.call(2, 0).unwrap().report));
        let mut edited = report.clone();
        edited.output.pairs[0].response.push('!');
        assert_ne!(Fingerprint::of(&edited), print);
        let mut recounted = report;
        recounted.post_edited += 1;
        assert_ne!(Fingerprint::of(&recounted), print);
    }

    /// The cross-config equalities of a run, on 64 pairs. The supervised
    /// workload is left out: its workers are re-invocations of the
    /// running binary, which a test harness binary cannot serve.
    #[test]
    fn thread_counts_and_batching_agree() {
        for w in [
            Workload::Fig6Batch,
            Workload::DupTraffic,
            Workload::MicroBatches,
        ] {
            let b = bench(w);
            let pass = |threads| {
                let mut print = Fingerprint::default();
                for k in 0..b.batches.len() {
                    print.add(&b.call(threads, k).unwrap().report);
                }
                print.value()
            };
            let two = pass(2);
            assert_eq!(two, pass(1), "{}: threads=2 vs threads=1", w.name());
            for (what, ok) in b.reference_checks(two).unwrap() {
                assert!(ok, "{}: {what}", w.name());
            }
        }
        let dup = bench(Workload::DupTraffic).call(2, 0).unwrap().report;
        assert!(dup.revision_cache.hit_rate() > 0.5);
    }
}
