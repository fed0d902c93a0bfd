//! Chaos harness for process-isolated shard supervision (PR 10).
//!
//! This binary is its own worker pool: `main` calls
//! [`worker_boot`] first, so when [`run_sharded_process`] re-invokes the
//! test executable with `COACHLM_SUPERVISE_WORKER` set, the re-invocation
//! runs the worker protocol instead of the tests. That requires a custom
//! harness (`harness = false` in `Cargo.toml`) — libtest would otherwise
//! own stdout, which is the worker's result channel.
//!
//! Properties pinned here:
//!
//! * **Kill-at-every-frame convergence** — SIGKILL-equivalent worker
//!   aborts at *every* frame boundary of shard 0's stream, and torn
//!   mid-frame kills at every boundary, each restart-converge to the
//!   digest of the unsharded in-process journaled run, with faults and
//!   retries active.
//! * **Corruption is a crash** — a worker that emits a CRC-corrupted
//!   frame and then exits *successfully* is still treated as crashed and
//!   restarted (checksums, not exit codes, are the integrity authority).
//! * **Parent-side kills** — supervisor-inflicted SIGKILLs converge the
//!   same way.
//! * **Chaos proptest** — digest convergence over random seed × kill
//!   schedule (multiple shards and attempts) × shard count 2–8.
//! * **Poison bisection** — an item that aborts its worker on every
//!   attempt is bisected into quarantine as a structured
//!   `FailureRecord` while the rest of the batch completes; retained /
//!   dropped / quarantined stays an exact partition.
//! * **`sync_every` tail-loss bound** — after a kill, the worker journal
//!   on disk trails the parent's received frames by at most `sync_every`
//!   records, and a same-dir rerun resumes from the journal.
//! * **Pipeline integration** — `run_batch_supervised` (with the coach
//!   trained in the parent and shipped to the workers in the job params)
//!   matches the unsharded `run_batch_journaled` and recovers across a
//!   kill.
//! * **Cached chains** — the chaos chain with the exact revision cache,
//!   over duplicate-heavy pairs, matches the unsharded journaled cached
//!   run in digest and cache tallies, clean and across a kill.
//!
//! `supervise_matrix_cell` is the CI entry point: `scripts/ci.sh` runs it
//! under `COACHLM_SUPERVISE_SEED` × `COACHLM_SUPERVISE_SHARDS` ×
//! `COACHLM_SUPERVISE_KILL` (early/late/none). Setting only some of the
//! three fails the run and names the missing ones.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

use coachlm::core::pipeline::{
    batch_job_factory, run_batch_journaled, run_batch_supervised, trained_coach, BatchJobSpec,
    CoachTrainSpec,
};
use coachlm::data::pair::InstructionPair;
use coachlm::data::Category;
use coachlm::runtime::supervise::run_sharded_process;
use coachlm::runtime::{
    worker_boot, CachePolicy, ChainOutput, ChaosPlan, Executor, ExecutorConfig, FailureKind,
    FaultPlan, Journal, KillMode, ParentKill, RetryPolicy, Stage, StageCtx, StageItem,
    StageOutcome, StreamSource, SuperviseOptions, SupervisedJob, SupervisedOutput, WorkerKill,
};
use rand::Rng;

/// Worker-only env marker arming the poison stage: set via
/// `SuperviseOptions::worker_env`, so only worker processes abort and the
/// supervising parent stays alive to bisect.
const ENV_POISON: &str = "COACHLM_CHAOS_POISON";

/// Marker string that [`PoisonAbort`] hard-kills the process on.
const POISON_MARK: &str = "poison-pill";

// ---------------------------------------------------------------------------
// The test chain, reconstructible on both sides of the process boundary
// ---------------------------------------------------------------------------

/// Content/RNG-driven rewrite — behaviour keys on text and the executor's
/// per-item RNG, never on process identity, so traces from any worker mix
/// compose deterministically.
struct ChaosRewrite;

impl Stage for ChaosRewrite {
    fn name(&self) -> &str {
        "chaos-rewrite"
    }
    fn process(&self, item: &mut StageItem, ctx: &mut StageCtx<'_>) -> StageOutcome {
        let roll: u64 = ctx.rng.gen_range(0..10_000);
        item.pair.response.push_str(&format!(" [r{roll}]"));
        if item.pair.instruction.contains("drop me") {
            item.discard("chaos:drop");
        } else if roll.is_multiple_of(61) {
            item.tag("chaos:lucky");
        }
        StageOutcome::Ok
    }
    fn service_time(&self) -> Duration {
        Duration::from_millis(120)
    }
}

/// Crash-on-contact stage: when the worker-only env marker is armed, a
/// poison item kills the whole process — the failure mode process
/// isolation exists to contain.
struct PoisonAbort;

impl Stage for PoisonAbort {
    fn name(&self) -> &str {
        "poison-abort"
    }
    fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
        if std::env::var_os(ENV_POISON).is_some() && item.pair.instruction.contains(POISON_MARK) {
            std::process::abort();
        }
        StageOutcome::Ok
    }
}

fn chaos_stages() -> Vec<Box<dyn Stage>> {
    vec![Box::new(PoisonAbort), Box::new(ChaosRewrite)]
}

/// Chaos config: faults and retries active, short epochs so the watchdog
/// heartbeat frames are actually exercised.
fn chaos_config(seed: u64, threads: u32) -> ExecutorConfig {
    ExecutorConfig::new(seed)
        .threads(threads as usize)
        .epoch_len(4)
        .fault_plan(FaultPlan::new(seed ^ 0xFA).transient(0.12).permanent(0.02))
        .retry_policy(RetryPolicy::new(3, Duration::from_millis(8)))
}

const CHAOS_CHAIN: &str = "chaos/basic";

/// The chaos chain with the exact revision cache.
const CACHED_CHAIN: &str = "chaos/cached";

fn cached_config(seed: u64, threads: u32) -> ExecutorConfig {
    chaos_config(seed, threads).revision_cache(CachePolicy::exact())
}

struct ChaosJob {
    config: ExecutorConfig,
}

impl SupervisedJob for ChaosJob {
    fn config(&self) -> &ExecutorConfig {
        &self.config
    }
    fn stages<'a>(&'a self) -> Vec<Box<dyn Stage + 'a>> {
        chaos_stages()
    }
}

fn encode_chaos(seed: u64, threads: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&threads.to_le_bytes());
    out
}

/// The harness's job factory: the chaos chain, uncached and cached, plus
/// the real pipeline's batch chain, so one worker binary serves every
/// test family.
fn factory(chain: &str, params: &[u8]) -> Option<Box<dyn SupervisedJob>> {
    let config: fn(u64, u32) -> ExecutorConfig = match chain {
        CHAOS_CHAIN => chaos_config,
        CACHED_CHAIN => cached_config,
        _ => return batch_job_factory(chain, params),
    };
    if params.len() != 12 {
        return None;
    }
    let seed = u64::from_le_bytes(params[0..8].try_into().ok()?);
    let threads = u32::from_le_bytes(params[8..12].try_into().ok()?);
    Some(Box::new(ChaosJob {
        config: config(seed, threads),
    }))
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn chaos_pairs(n: usize, seed: u64) -> Vec<InstructionPair> {
    (0..n as u64)
        .map(|i| {
            let mut instruction = format!("chaos instr {i} seed {seed} ünïcode");
            if i.is_multiple_of(9) {
                instruction.push_str(" drop me");
            }
            InstructionPair {
                id: i * 3 + 1,
                instruction,
                response: format!("resp {i}"),
                category: Category((i % 5) as u16),
            }
        })
        .collect()
}

/// Duplicate-heavy chaos input: `n` pairs with fresh ids over the
/// contents of `chaos_pairs(distinct, seed)`, pair `i` taking content
/// `i² mod distinct`, so a few contents repeat often.
fn repeated_pairs(n: usize, distinct: usize, seed: u64) -> Vec<InstructionPair> {
    let contents = chaos_pairs(distinct, seed);
    (0..n as u64)
        .map(|i| InstructionPair {
            id: i * 3 + 1,
            ..contents[(i * i % distinct as u64) as usize].clone()
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coachlm-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// In-process gold: the unsharded journaled run under `config`, which
/// every supervised run of the same chain must converge to at any shard
/// count.
fn gold_run(config: ExecutorConfig, pairs: &[InstructionPair]) -> ChainOutput {
    let dir = temp_dir(&format!("gold-{}", config.seed()));
    let mut journal = Journal::create(dir.join("gold.wal")).expect("create gold journal");
    let out = Executor::new(config)
        .run_journaled(&chaos_stages(), pairs, &mut journal)
        .expect("in-process gold run");
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The gold digest of the uncached chaos chain.
fn gold_digest(seed: u64, threads: u32, pairs: &[InstructionPair]) -> u64 {
    gold_run(chaos_config(seed, threads), pairs).digest()
}

fn run_supervised(
    seed: u64,
    threads: u32,
    pairs: &[InstructionPair],
    shards: usize,
    tag: &str,
    opts: &SuperviseOptions,
) -> SupervisedOutput {
    run_chain(CHAOS_CHAIN, seed, threads, pairs, shards, tag, opts)
}

fn run_chain(
    chain: &str,
    seed: u64,
    threads: u32,
    pairs: &[InstructionPair],
    shards: usize,
    tag: &str,
    opts: &SuperviseOptions,
) -> SupervisedOutput {
    let dir = temp_dir(tag);
    let out = run_sharded_process(
        factory,
        chain,
        &encode_chaos(seed, threads),
        StreamSource::batch(pairs),
        shards,
        &dir,
        opts,
    )
    .expect("supervised run");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// Baseline: a chaos-free supervised run is digest-identical to the
/// unsharded in-process run, reports zero restarts, and its per-shard
/// stats partition the input.
fn clean_run_matches_in_process() {
    let (seed, threads, shards) = (0xC0A, 2, 3);
    let pairs = chaos_pairs(31, seed);
    let gold = gold_digest(seed, threads, &pairs);
    let out = run_supervised(
        seed,
        threads,
        &pairs,
        shards,
        "clean",
        &SuperviseOptions::default(),
    );
    assert_eq!(out.output.digest(), gold, "clean supervised digest");
    assert_eq!(out.supervision.len(), shards);
    for sup in &out.supervision {
        assert_eq!(sup.restarts, 0, "shard {}", sup.shard);
        assert!(!sup.abandoned);
        assert_eq!(sup.frames_by_attempt.len(), 1);
    }
    let routed: usize = out.shards.iter().map(|s| s.items).sum();
    assert_eq!(routed, pairs.len());
}

/// The tentpole sweep: kill shard 0's worker at every frame boundary and
/// mid-frame at every boundary; every schedule restart-converges to the
/// gold digest and actually restarted.
fn kill_at_every_frame_converges() {
    let (seed, threads, shards) = (0x51E, 2, 2);
    let pairs = chaos_pairs(26, seed);
    let gold = gold_digest(seed, threads, &pairs);
    let clean = run_supervised(
        seed,
        threads,
        &pairs,
        shards,
        "sweep-clean",
        &SuperviseOptions::default(),
    );
    assert_eq!(clean.output.digest(), gold);
    let frames = clean.supervision[0].frames_by_attempt[0];
    assert!(frames > 3, "shard 0 should own a meaningful partition");

    for k in 0..frames {
        for mode in [KillMode::Boundary, KillMode::MidFrame] {
            let opts = SuperviseOptions {
                chaos: ChaosPlan {
                    worker_kills: vec![WorkerKill {
                        shard: 0,
                        attempt: 0,
                        after_frames: k,
                        mode,
                    }],
                    parent_kills: Vec::new(),
                },
                ..SuperviseOptions::default()
            };
            let out = run_supervised(
                seed,
                threads,
                &pairs,
                shards,
                &format!("sweep-{k}-{mode:?}"),
                &opts,
            );
            assert_eq!(
                out.output.digest(),
                gold,
                "kill at frame {k} ({mode:?}) must converge"
            );
            assert_eq!(out.supervision[0].restarts, 1, "frame {k} ({mode:?})");
            assert!(out.supervision[0].backoff_steps > 0);
            assert_eq!(out.supervision[0].frames_by_attempt.len(), 2);
            assert_eq!(out.supervision[1].restarts, 0, "shard 1 untouched");
        }
    }
}

/// A worker that corrupts one frame's checksum and then *finishes
/// cleanly* (exit 0, DONE emitted) is still a crash: integrity comes from
/// checksums, not exit codes.
fn corrupt_frame_is_a_crash() {
    let (seed, threads, shards) = (0xBAD, 2, 2);
    let pairs = chaos_pairs(24, seed);
    let gold = gold_digest(seed, threads, &pairs);
    let opts = SuperviseOptions {
        chaos: ChaosPlan {
            worker_kills: vec![WorkerKill {
                shard: 1,
                attempt: 0,
                after_frames: 2,
                mode: KillMode::CorruptFrame,
            }],
            parent_kills: Vec::new(),
        },
        ..SuperviseOptions::default()
    };
    let out = run_supervised(seed, threads, &pairs, shards, "corrupt", &opts);
    assert_eq!(out.output.digest(), gold);
    assert_eq!(out.supervision[1].restarts, 1, "CRC rejection must restart");
}

/// Supervisor-inflicted SIGKILL mid-stream: same convergence.
fn parent_kill_converges() {
    let (seed, threads, shards) = (0x4B31, 2, 2);
    let pairs = chaos_pairs(24, seed);
    let gold = gold_digest(seed, threads, &pairs);
    let opts = SuperviseOptions {
        chaos: ChaosPlan {
            worker_kills: Vec::new(),
            parent_kills: vec![ParentKill {
                shard: 0,
                attempt: 0,
                after_frames: 3,
            }],
        },
        ..SuperviseOptions::default()
    };
    let out = run_supervised(seed, threads, &pairs, shards, "parent-kill", &opts);
    assert_eq!(out.output.digest(), gold);
    assert_eq!(out.supervision[0].restarts, 1);
}

/// Chaos proptest: digest convergence over seed × kill schedule × shard
/// count 2–8, with kills landing on multiple shards and attempts.
fn proptest_digest_convergence() {
    let cases = proptest::cases().min(10);
    for case in 0..cases {
        let mut rng = proptest::case_rng("supervise_chaos_convergence", case);
        let seed: u64 = rng.gen_range(0..5_000);
        let shards: usize = rng.gen_range(2..=8);
        let threads: u32 = rng.gen_range(1..=2);
        let n: usize = rng.gen_range(24..48);
        let pairs = chaos_pairs(n, seed);
        let mut worker_kills = Vec::new();
        let kills = rng.gen_range(1..=3usize);
        for _ in 0..kills {
            worker_kills.push(WorkerKill {
                shard: rng.gen_range(0..shards),
                attempt: rng.gen_range(0..2),
                after_frames: rng.gen_range(0..(n as u64 / shards as u64).max(2)),
                mode: if rng.gen_bool(0.5) {
                    KillMode::Boundary
                } else {
                    KillMode::MidFrame
                },
            });
        }
        let opts = SuperviseOptions {
            chaos: ChaosPlan {
                worker_kills,
                parent_kills: Vec::new(),
            },
            ..SuperviseOptions::default()
        };
        let gold = gold_digest(seed, threads, &pairs);
        let out = run_supervised(
            seed,
            threads,
            &pairs,
            shards,
            &format!("prop-{case}"),
            &opts,
        );
        assert_eq!(
            out.output.digest(),
            gold,
            "case {case}: seed {seed} shards {shards} must converge"
        );
    }
}

/// Poison bisection end-to-end: one item aborts its worker on every
/// attempt; the supervisor bisects the dead shard's partition until the
/// culprit is quarantined as a structured failure, and everything else
/// completes. Retained / dropped / quarantined is an exact partition.
fn poison_bisection_quarantines_the_culprit() {
    let (seed, threads, shards) = (0xF00D, 1, 2);
    let mut pairs = chaos_pairs(22, seed);
    // Pick a victim whose stage bodies provably run (retained end-to-end):
    // the fault plan fires *before* the stage body, so an item it
    // permanently faults would be quarantined organically without ever
    // reaching the abort.
    let probe =
        coachlm::runtime::Executor::new(chaos_config(seed, threads)).run(&chaos_stages(), &pairs);
    let victim = probe
        .items
        .iter()
        .position(|i| i.retained)
        .expect("some item survives the probe run");
    pairs[victim]
        .instruction
        .push_str(&format!(" {POISON_MARK}"));
    let victim_id = pairs[victim].id;
    let opts = SuperviseOptions {
        max_restarts: 1,
        worker_env: vec![(ENV_POISON.to_string(), "1".to_string())],
        ..SuperviseOptions::default()
    };
    let out = run_supervised(seed, threads, &pairs, shards, "poison", &opts);

    // The culprit — and only the culprit — is quarantined, with the
    // supervisor's structured failure record.
    let quarantine = out.output.quarantine("q");
    let poisoned: Vec<_> = quarantine
        .items
        .iter()
        .filter(|q| q.failure.stage == "supervise")
        .collect();
    assert_eq!(poisoned.len(), 1, "exactly one poison quarantine");
    assert_eq!(poisoned[0].pair.id, victim_id);
    assert_eq!(poisoned[0].failure.kind, FailureKind::Fatal);
    assert!(poisoned[0].failure.error.contains("poison"));
    assert!(poisoned[0].failure.attempts >= 1);

    // The run completed: every input item is accounted for exactly once.
    assert_eq!(out.output.items.len(), pairs.len());
    let retained = out.output.retained().count();
    let dropped = out.output.dropped().count();
    let quarantined = out.output.quarantined().count();
    assert_eq!(retained + dropped + quarantined, pairs.len());
    let ids: BTreeSet<u64> = out.output.items.iter().map(|i| i.pair.id).collect();
    assert_eq!(ids.len(), pairs.len(), "no item lost or duplicated");

    // Supervision surfaced the ordeal: the poisoned shard burned its
    // budget, was abandoned, and records the bisection.
    let sup = out
        .supervision
        .iter()
        .find(|s| s.poisoned > 0)
        .expect("some shard recorded the poison");
    assert!(sup.abandoned);
    assert_eq!(sup.poisoned, 1);
    assert!(sup.restarts >= 1, "restarts were burned before bisection");
    let survivor_credit: u32 = out.supervision.iter().map(|s| s.failed_over_in).sum();
    assert_eq!(survivor_credit, 1, "the failover went to a survivor");
}

/// `sync_every` tail-loss bound: after a kill, the worker journal on disk
/// trails the parent's received frame count by at most `sync_every`
/// records — items are re-executed on restart, never lost — and a rerun
/// in the same dir resumes from that journal.
fn sync_every_bounds_tail_loss() {
    let (seed, threads, shards) = (0x5E1, 1, 2);
    let sync_every = 4usize;
    let pairs = chaos_pairs(30, seed);
    let gold = gold_digest(seed, threads, &pairs);
    let kill_at = 9u64;
    let opts = SuperviseOptions {
        sync_every,
        max_restarts: 0,
        chaos: ChaosPlan {
            worker_kills: vec![WorkerKill {
                shard: 0,
                attempt: 0,
                after_frames: kill_at,
                mode: KillMode::Boundary,
            }],
            parent_kills: Vec::new(),
        },
        ..SuperviseOptions::default()
    };
    let dir = temp_dir("tail-loss");
    let out = run_sharded_process(
        factory,
        CHAOS_CHAIN,
        &encode_chaos(seed, threads),
        StreamSource::batch(&pairs),
        shards,
        &dir,
        &opts,
    )
    .expect("supervised run with failover");
    // max_restarts = 0: the kill exhausts shard 0's budget, failover
    // finishes its partition, and the run still converges.
    assert_eq!(out.output.digest(), gold);
    assert!(out.supervision[0].abandoned);

    let received = out.supervision[0].frames_by_attempt[0];
    assert_eq!(received, kill_at, "parent saw exactly the pre-kill frames");
    let journal = Journal::open(dir.join(format!("worker-shard-0-of-{shards}.wal")))
        .expect("reopen the dead worker's journal");
    let durable = journal.committed() as u64;
    assert!(
        durable <= received,
        "disk ({durable}) never runs ahead of the pipe ({received})"
    );
    assert!(
        received - durable <= sync_every as u64,
        "tail loss {} exceeds sync_every {sync_every}",
        received - durable
    );
    drop(journal);

    // Rerun in the same dir without chaos: shard 0's worker resumes from
    // its journal (replaying the durable prefix) and converges.
    let rerun = run_sharded_process(
        factory,
        CHAOS_CHAIN,
        &encode_chaos(seed, threads),
        StreamSource::batch(&pairs),
        shards,
        &dir,
        &SuperviseOptions {
            sync_every,
            ..SuperviseOptions::default()
        },
    )
    .expect("rerun in the same dir");
    assert_eq!(rerun.output.digest(), gold, "journal-resumed rerun");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipeline integration: `run_batch_supervised` — worker processes
/// decoding the coach the parent trained and shipped — matches the
/// unsharded journaled pipeline and recovers across a worker kill.
fn run_batch_supervised_matches_unsharded() {
    use coachlm::data::generator::{generate, GeneratorConfig};
    let spec = BatchJobSpec {
        seed: 0xBA7C,
        threads: 2,
        coach: Some(CoachTrainSpec {
            seed: 9,
            pairs: 400,
        }),
    };
    let (raw, _) = generate(&GeneratorConfig::small(90, 21));
    let shards = 2;

    let coach = trained_coach(9, 400);
    let config = ExecutorConfig::new(spec.seed).threads(spec.threads as usize);
    let dir = temp_dir("pipeline-gold");
    let mut journal = Journal::create(dir.join("gold.wal")).expect("create gold journal");
    let gold = run_batch_journaled(Some(&coach), &raw, &config, &mut journal)
        .expect("in-process pipeline gold");
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = temp_dir("pipeline-supervised");
    let opts = SuperviseOptions {
        chaos: ChaosPlan {
            worker_kills: vec![WorkerKill {
                shard: 1,
                attempt: 0,
                after_frames: 5,
                mode: KillMode::Boundary,
            }],
            parent_kills: Vec::new(),
        },
        ..SuperviseOptions::default()
    };
    let supervised =
        run_batch_supervised(&spec, &raw, shards, &dir, &opts).expect("supervised pipeline");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        supervised.report.output.pairs, gold.output.pairs,
        "supervised pipeline output diverged"
    );
    assert_eq!(supervised.report.human_revised, gold.human_revised);
    assert_eq!(supervised.report.quarantined, gold.quarantined);
    assert_eq!(supervised.report.person_days, gold.person_days);
    assert_eq!(supervised.supervision.len(), shards);
    assert_eq!(supervised.supervision[1].restarts, 1, "the kill restarted");
}

/// A cached chain under supervision: at 2 and 3 shards, clean and with a
/// worker kill, the merged output matches the unsharded journaled cached
/// run in digest and in cache tallies. The parent rebuilds the tallies
/// from each shard's partition; no worker reports them.
fn cached_chain_matches_unsharded_cached_run() {
    let (seed, threads) = (0xCAC, 2);
    let pairs = repeated_pairs(40, 13, seed);
    let gold = gold_run(cached_config(seed, threads), &pairs);
    assert!(
        gold.revision_cache.exact_hits > 0,
        "the input repeats content"
    );
    let check = |out: &SupervisedOutput, what: &str| {
        assert_eq!(out.output.digest(), gold.digest(), "{what}: digest");
        assert_eq!(
            out.output.revision_cache, gold.revision_cache,
            "{what}: cache tallies"
        );
    };
    for shards in [2, 3] {
        let clean = run_chain(
            CACHED_CHAIN,
            seed,
            threads,
            &pairs,
            shards,
            &format!("cached-{shards}"),
            &SuperviseOptions::default(),
        );
        check(&clean, &format!("{shards} shards"));
        // Content-hash routing is uneven: kill the busiest shard's worker
        // after its first item.
        let busiest = (0..shards)
            .max_by_key(|&s| clean.shards[s].items)
            .expect("at least one shard");
        let opts = SuperviseOptions {
            chaos: ChaosPlan {
                worker_kills: vec![WorkerKill {
                    shard: busiest,
                    attempt: 0,
                    after_frames: 1,
                    mode: KillMode::Boundary,
                }],
                parent_kills: Vec::new(),
            },
            ..SuperviseOptions::default()
        };
        let killed = run_chain(
            CACHED_CHAIN,
            seed,
            threads,
            &pairs,
            shards,
            &format!("cached-{shards}-kill"),
            &opts,
        );
        check(&killed, &format!("{shards} shards, shard {busiest} killed"));
        assert_eq!(killed.supervision[busiest].restarts, 1, "{shards} shards");
    }
}

/// CI matrix entry point: one supervised-vs-unsharded cell driven by
/// `COACHLM_SUPERVISE_SEED` / `COACHLM_SUPERVISE_SHARDS` /
/// `COACHLM_SUPERVISE_KILL` (early | late | none).
fn supervise_matrix_cell([seed, shards, kill]: [String; 3]) {
    let seed: u64 = seed.parse().expect("COACHLM_SUPERVISE_SEED must be a u64");
    let shards: usize = shards
        .parse()
        .expect("COACHLM_SUPERVISE_SHARDS must be a usize");
    let threads = 2u32;
    let pairs = chaos_pairs(32, seed);
    let worker_kills = match kill.as_str() {
        "none" => Vec::new(),
        "early" => vec![WorkerKill {
            shard: 0,
            attempt: 0,
            after_frames: 1,
            mode: KillMode::Boundary,
        }],
        "late" => {
            // Content-hash partitioning is uneven: learn shard 0's actual
            // frame count from a clean probe run so the kill lands inside
            // its stream rather than past the end of it.
            let probe = run_supervised(
                seed,
                threads,
                &pairs,
                shards,
                &format!("matrix-probe-{seed}-{shards}"),
                &SuperviseOptions::default(),
            );
            let frames = probe.supervision[0].frames_by_attempt[0];
            vec![WorkerKill {
                shard: 0,
                attempt: 0,
                after_frames: frames.saturating_sub(1).max(1),
                mode: KillMode::MidFrame,
            }]
        }
        other => panic!("unknown COACHLM_SUPERVISE_KILL `{other}`"),
    };
    let killed = !worker_kills.is_empty();
    let opts = SuperviseOptions {
        chaos: ChaosPlan {
            worker_kills,
            parent_kills: Vec::new(),
        },
        ..SuperviseOptions::default()
    };
    let gold = gold_digest(seed, threads, &pairs);
    let out = run_supervised(
        seed,
        threads,
        &pairs,
        shards,
        &format!("matrix-{seed}-{shards}-{kill}"),
        &opts,
    );
    assert_eq!(out.output.digest(), gold, "matrix cell diverged");
    if killed {
        assert!(out.supervision[0].restarts >= 1, "matrix kill must restart");
    }
    println!("supervise_matrix_cell seed={seed} shards={shards} kill={kill} ... ok");
}

/// Reads a CI matrix cell's variables: `None` when none is set (the plain
/// suite runs instead); panics naming the missing ones when only some are,
/// so a cell never passes without running.
fn cell_vars<const N: usize>(names: [&str; N]) -> Option<[String; N]> {
    let values = names.map(|name| std::env::var(name).ok());
    if values.iter().all(Option::is_none) {
        return None;
    }
    let missing: Vec<&str> = names
        .iter()
        .zip(&values)
        .filter(|(_, v)| v.is_none())
        .map(|(n, _)| *n)
        .collect();
    assert!(
        missing.is_empty(),
        "matrix cell is missing {}",
        missing.join(", ")
    );
    Some(values.map(Option::unwrap_or_default))
}

fn main() {
    // Must run before anything touches stdout: worker re-invocations of
    // this binary speak the frame protocol on stdout and never return.
    worker_boot(factory);

    if let Some(vars) = cell_vars([
        "COACHLM_SUPERVISE_SEED",
        "COACHLM_SUPERVISE_SHARDS",
        "COACHLM_SUPERVISE_KILL",
    ]) {
        supervise_matrix_cell(vars);
        return;
    }

    let tests: &[(&str, fn())] = &[
        ("clean_run_matches_in_process", clean_run_matches_in_process),
        (
            "kill_at_every_frame_converges",
            kill_at_every_frame_converges,
        ),
        ("corrupt_frame_is_a_crash", corrupt_frame_is_a_crash),
        ("parent_kill_converges", parent_kill_converges),
        ("proptest_digest_convergence", proptest_digest_convergence),
        (
            "poison_bisection_quarantines_the_culprit",
            poison_bisection_quarantines_the_culprit,
        ),
        ("sync_every_bounds_tail_loss", sync_every_bounds_tail_loss),
        (
            "run_batch_supervised_matches_unsharded",
            run_batch_supervised_matches_unsharded,
        ),
        (
            "cached_chain_matches_unsharded_cached_run",
            cached_chain_matches_unsharded_cached_run,
        ),
    ];
    let only = std::env::var("COACHLM_ONLY").ok();
    let selected: Vec<&(&str, fn())> = tests
        .iter()
        .filter(|(name, _)| only.as_deref().is_none_or(|filter| name.contains(filter)))
        .collect();
    let filtered = tests.len() - selected.len();
    assert!(
        !selected.is_empty(),
        "COACHLM_ONLY={only:?} matches none of the {} tests",
        tests.len()
    );
    println!(
        "\nrunning {} tests ({filtered} filtered out)",
        selected.len()
    );
    for (name, test) in &selected {
        test();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; {filtered} filtered out (supervise chaos harness)\n",
        selected.len()
    );
}
