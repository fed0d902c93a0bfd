//! Process-isolated shard supervision: crash-contained worker processes
//! with deterministic restart, failover, and poison-item bisection.
//!
//! One executor runs every lane in one address space, so a single abort,
//! OOM kill, or panic-past-the-guard takes the whole run down. This module
//! puts a process boundary around each shard of the input:
//! [`run_sharded_process`] re-invokes the current binary in a hidden
//! worker mode (one child process per shard), feeds each worker its
//! content-hash partition ([`crate::shard`]) over stdin, and collects
//! results over stdout — and because every worker journals to its own
//! write-ahead log, a crashed worker is simply restarted and resumes at
//! its exact frontier. The merged output is digest-identical to the
//! unsharded journaled run ([`Executor::run_journaled`]) at any shard
//! count, kill point, and restart count.
//!
//! ## Wire protocol
//!
//! Both pipe directions reuse the journal's checksummed length-prefixed
//! frame format (`len:u32le crc:u64le payload`, fxhash64 checksum — see
//! [`crate::Journal`]'s module docs). Parent → worker:
//!
//! ```text
//! JOB   (0x10)  proto version, chain name, opaque job params, journal
//!               path, fsync policy, chaos kill spec, pair count
//! PAIR  (0x11)  one input pair (id, category, instruction, response)
//! END   (0x12)  end of input
//! ```
//!
//! Worker → parent:
//!
//! ```text
//! 1     journal header — worker-local bookkeeping, ignored
//! 2     one committed item trace — the journal record itself, teed onto
//!       the pipe at append time (ahead of fsync batching)
//! EPOCH (0x16)  watchdog heartbeat: epoch index + item frames so far
//! DONE  (0x18)  run digest, replayed count, item total, modeled
//!               makespan (nanos)
//! ```
//!
//! The parent parses the stream incrementally ([`crate::journal`]'s
//! tri-state frame scanner): a torn tail at pipe EOF is truncated exactly
//! like a torn journal tail, and a CRC-rejected or malformed frame is
//! treated as a worker crash — the child is killed and the attempt
//! restarted. Worker death is detected by exit status, closed pipe, or
//! the epoch watchdog: every `epoch_length` item frames the worker emits
//! an `EPOCH` frame carrying its logical epoch index and cumulative item
//! frame count, and the parent cross-checks both against its own frame
//! count. Epochs are windows of *frame counts*, never wall clocks, so
//! supervision stays deterministic and replayable (a worker that silently
//! hangs without closing its pipe is the one failure mode this cannot
//! see; in deployment an external process-level timeout covers it).
//!
//! ## Restart, failover, bisection
//!
//! Each shard gets a bounded restart budget. A restart re-spawns the
//! worker against the same journal: recovered items are backfilled onto
//! the pipe (the parent upserts idempotently), the executor replays them
//! and re-enters the batch at the frontier, and by the crash-resume
//! invariant the completed stream converges to the uninterrupted run.
//! Restarts are charged a deterministic exponential backoff in simulated
//! steps ([`ShardSupervision::backoff_steps`]) — never a wall-clock sleep.
//!
//! When a shard exhausts its budget, its unfinished items are reassigned
//! to a fresh worker slot (failover, attributed to the first surviving
//! shard). If the reassigned subset *also* keeps killing workers, a
//! poison item is assumed and the subset is bisected: each half runs
//! under a budget of one restart, halves that crash are split again, and
//! a crashing singleton is quarantined with a structured
//! [`FailureRecord`] instead of crash-looping. Retained / dropped /
//! quarantined remains an exact partition of the input.
//!
//! ## Determinism argument
//!
//! Per-item outcomes are pure functions of `(chain, pair, seed)` —
//! position- and partition-independent — so traces collected from any
//! mix of attempts, failover subsets, and bisection fragments compose:
//! the parent re-keys subset-local traces to shard-local indices
//! (re-verifying digests), rebuilds each shard's output with
//! [`Executor::replay_collected`], cross-checks the digest each cleanly
//! finished worker reported, and merges by global index through
//! [`shard::merge_outputs`]. Per-item outcomes that do not depend on the
//! partition + a merge that restores input order = the unsharded run's
//! digest, at any kill schedule.

use crate::executor::{rekey_trace, ChainOutput, Executor};
use crate::fault::{FailureKind, FailureRecord};
use crate::journal::{
    decode_item, encode_item, frame_bytes, scan_frame, Dec, Enc, FrameScan, ItemTrace, Journal,
    JournalError,
};
use crate::shard::{
    merge_outputs, partition_source, validate_sharding, Partitioned, ShardConfigError, ShardStats,
};
use crate::stage::Stage;
use crate::stream::StreamSource;
use crate::ExecutorConfig;
use coachlm_data::{Category, InstructionPair};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};

/// Environment variable whose presence switches the current binary into
/// worker mode (see [`worker_boot`]).
pub const ENV_WORKER: &str = "COACHLM_SUPERVISE_WORKER";

/// Wire protocol version, checked by the worker before trusting the job.
/// v2 dropped the JOB frame's shard coordinates, attempt number and
/// kill-spec padding, and the DONE frame's near-hit tally. v3 dropped the
/// DONE frame's cache tallies: the parent's reconstruction of a shard
/// classifies the same partition the worker did, so it already computes
/// them.
const PROTO_VERSION: u32 = 3;

/// Worker exit code for protocol/journal errors (as opposed to crashes).
const EXIT_PROTOCOL: i32 = 86;

/// Parent → worker: job descriptor.
const KIND_JOB: u8 = 0x10;
/// Parent → worker: one input pair.
const KIND_PAIR: u8 = 0x11;
/// Parent → worker: end of input.
const KIND_END: u8 = 0x12;
/// Worker → parent: watchdog heartbeat (epoch index, item frames so far).
const KIND_EPOCH: u8 = 0x16;
/// Worker → parent: completion record.
const KIND_DONE: u8 = 0x18;
/// Worker → parent: the journal's own header record kind.
const KIND_JOURNAL_HEADER: u8 = 1;
/// Worker → parent: the journal's own item record kind.
const KIND_JOURNAL_ITEM: u8 = 2;

/// The smallest PAIR frame on the wire: the 12-byte frame header, then
/// kind (1), id (8), category (4) and two empty length-prefixed strings
/// (4 + 4).
const MIN_PAIR_FRAME: usize = 12 + 1 + 8 + 4 + 4 + 4;

/// A job the supervised driver can ship across a process boundary: enough
/// owned state to build the executor config and the stage chain on either
/// side. Reconstructed in the worker from `(chain, params)` by the same
/// [`JobFactory`] the parent used, so parent and worker run identical
/// semantics by construction.
pub trait SupervisedJob {
    /// The executor configuration the job runs under.
    fn config(&self) -> &ExecutorConfig;
    /// Builds the stage chain (may borrow from the job's owned state).
    fn stages<'a>(&'a self) -> Vec<Box<dyn Stage + 'a>>;
}

/// Rebuilds a [`SupervisedJob`] from a chain name and opaque parameter
/// bytes; returns `None` for unknown chains. A plain function pointer so
/// the worker can hold it before any job state exists.
pub type JobFactory = fn(&str, &[u8]) -> Option<Box<dyn SupervisedJob>>;

/// How a chaos-injected worker-side kill fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Abort cleanly between frames — the pipe ends at a frame boundary.
    Boundary,
    /// Write half of the next frame, then abort — a torn pipe tail.
    MidFrame,
    /// Emit the next frame with a corrupted checksum, then keep running
    /// to completion: proves the parent rejects CRC-invalid frames as a
    /// crash even when the process exits successfully.
    CorruptFrame,
}

/// A worker-side kill: the worker aborts itself (or corrupts its stream)
/// after emitting `after_frames` item frames, on the matching attempt.
#[derive(Debug, Clone, Copy)]
pub struct WorkerKill {
    /// Shard the kill targets.
    pub shard: usize,
    /// Attempt number the kill fires on (0 = first run).
    pub attempt: u32,
    /// Item frames the worker emits before dying.
    pub after_frames: u64,
    /// How the death manifests on the wire.
    pub mode: KillMode,
}

/// A parent-side kill: the supervisor SIGKILLs the worker after receiving
/// `after_frames` item frames — death by external force rather than by
/// the worker's own hand.
#[derive(Debug, Clone, Copy)]
pub struct ParentKill {
    /// Shard the kill targets.
    pub shard: usize,
    /// Attempt number the kill fires on (0 = first run).
    pub attempt: u32,
    /// Item frames received before the kill signal is sent.
    pub after_frames: u64,
}

/// The chaos harness's kill orchestration: which workers die, when, and
/// how. Empty by default (production runs).
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Worker-side kills, matched by `(shard, attempt)`.
    pub worker_kills: Vec<WorkerKill>,
    /// Parent-side SIGKILLs, matched by `(shard, attempt)`.
    pub parent_kills: Vec<ParentKill>,
}

impl ChaosPlan {
    /// The worker-side kill for this shard + attempt, if any.
    fn worker_kill(&self, shard: usize, attempt: u32) -> Option<(u64, KillMode)> {
        self.worker_kills
            .iter()
            .find(|k| k.shard == shard && k.attempt == attempt)
            .map(|k| (k.after_frames, k.mode))
    }

    /// The parent-side kill for this shard + attempt, if any.
    fn parent_kill(&self, shard: usize, attempt: u32) -> Option<u64> {
        self.parent_kills
            .iter()
            .find(|k| k.shard == shard && k.attempt == attempt)
            .map(|k| k.after_frames)
    }
}

/// Supervision policy for one [`run_sharded_process`] call.
#[derive(Debug, Clone)]
pub struct SuperviseOptions {
    /// Restarts granted to each shard before its unfinished partition
    /// fails over (failover itself gets the same budget; bisection runs
    /// get one restart per fragment).
    pub max_restarts: u32,
    /// Worker journal fsync batching ([`Journal::sync_every`]): a kill
    /// loses at most this many committed-but-unsynced item frames, which
    /// the restarted worker re-executes (never loses).
    pub sync_every: usize,
    /// The chaos harness's kill schedule; empty in production.
    pub chaos: ChaosPlan,
    /// Extra environment variables set on worker processes only — the
    /// chaos harness uses this to arm failure modes in workers without
    /// changing parent-side behaviour.
    pub worker_env: Vec<(String, String)>,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        SuperviseOptions {
            max_restarts: 3,
            sync_every: 32,
            chaos: ChaosPlan::default(),
            worker_env: Vec::new(),
        }
    }
}

/// Per-shard supervision counters, surfaced next to [`ShardStats`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardSupervision {
    /// The shard index.
    pub shard: usize,
    /// Worker restarts across the shard's own attempts plus any failover
    /// and bisection runs resolving its partition.
    pub restarts: u32,
    /// Deterministic simulated backoff charged for those restarts
    /// (exponential in the attempt number; no wall-clock sleeps).
    pub backoff_steps: u64,
    /// Item frames received per attempt, in attempt order — the recovery
    /// timeline (a kill shows up as a short attempt followed by a longer
    /// one).
    pub frames_by_attempt: Vec<u64>,
    /// Partitions this shard absorbed from dead shards (failover credit
    /// is attributed to the first shard that finished cleanly).
    pub failed_over_in: u32,
    /// Whether this shard exhausted its restart budget and its partition
    /// had to be resolved by failover/bisection.
    pub abandoned: bool,
    /// Items from this shard's partition quarantined by poison bisection.
    pub poisoned: u32,
}

impl ShardSupervision {
    fn new(shard: usize) -> Self {
        ShardSupervision {
            shard,
            restarts: 0,
            backoff_steps: 0,
            frames_by_attempt: Vec::new(),
            failed_over_in: 0,
            abandoned: false,
            poisoned: 0,
        }
    }
}

/// A supervised multi-process run's merged result: shaped exactly like
/// [`crate::shard::ShardedOutput`], plus the supervision counters.
pub struct SupervisedOutput {
    /// The merged run, digest-identical to the unsharded journaled run of
    /// the same chain/config/input (kill schedules included, as long as
    /// no poison item was quarantined by bisection).
    pub output: ChainOutput,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardStats>,
    /// Per-shard supervision counters, in shard order.
    pub supervision: Vec<ShardSupervision>,
}

impl fmt::Debug for SupervisedOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SupervisedOutput")
            .field("items", &self.output.items.len())
            .field("digest", &self.output.digest())
            .field("shards", &self.shards)
            .field("supervision", &self.supervision)
            .finish_non_exhaustive()
    }
}

/// Why a supervised run failed outright (worker crashes are handled, not
/// errors; these are supervisor-level faults).
#[derive(Debug)]
pub enum SuperviseError {
    /// The config/feed composition cannot be sharded (see
    /// [`crate::shard::validate_sharding`]).
    Config(ShardConfigError),
    /// Collected traces could not be replayed into a shard output — the
    /// protocol delivered records inconsistent with the input.
    Journal(JournalError),
    /// Spawning or talking to worker processes failed at the OS level.
    Io(std::io::Error),
    /// The factory did not recognise the chain name.
    UnknownChain(String),
    /// A worker violated the wire protocol in a way restarting cannot
    /// repair (e.g. its reported digest contradicts the collected traces).
    Protocol(String),
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::Config(e) => write!(f, "{e}"),
            SuperviseError::Journal(e) => write!(f, "supervised replay: {e}"),
            SuperviseError::Io(e) => write!(f, "supervised worker IO: {e}"),
            SuperviseError::UnknownChain(chain) => {
                write!(f, "job factory does not recognise chain `{chain}`")
            }
            SuperviseError::Protocol(why) => write!(f, "worker protocol violation: {why}"),
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<ShardConfigError> for SuperviseError {
    fn from(e: ShardConfigError) -> Self {
        SuperviseError::Config(e)
    }
}

impl From<JournalError> for SuperviseError {
    fn from(e: JournalError) -> Self {
        SuperviseError::Journal(e)
    }
}

impl From<std::io::Error> for SuperviseError {
    fn from(e: std::io::Error) -> Self {
        SuperviseError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Call this first in `main()` of any binary that drives
/// [`run_sharded_process`]: when the process was spawned as a supervised
/// worker (the [`ENV_WORKER`] variable is set), it runs the worker
/// protocol over stdin/stdout and exits; otherwise it returns immediately
/// and the binary proceeds as the parent.
pub fn worker_boot(factory: JobFactory) {
    if std::env::var_os(ENV_WORKER).is_none() {
        return;
    }
    let code = match worker_main(factory) {
        Ok(()) => 0,
        Err(_) => EXIT_PROTOCOL,
    };
    std::process::exit(code);
}

/// The worker's decoded job descriptor.
struct JobSpec {
    chain: String,
    params: Vec<u8>,
    journal_path: PathBuf,
    sync_every: usize,
    kill: Option<(u64, KillMode)>,
    pair_count: u64,
}

/// The worker's half of the wire: a chaos-aware frame writer shared by
/// the journal tee and the control-frame emitters.
struct WireOut {
    out: std::io::Stdout,
    item_frames: u64,
    epoch_every: u64,
    epochs: u64,
    kill: Option<(u64, KillMode)>,
}

impl WireOut {
    fn new(kill: Option<(u64, KillMode)>, epoch_every: u64) -> WireOut {
        WireOut {
            out: std::io::stdout(),
            item_frames: 0,
            epoch_every: epoch_every.max(1),
            epochs: 0,
            kill,
        }
    }

    /// A failed pipe write means the parent is gone; there is nothing a
    /// worker can do but die (the supervisor side treats it as a crash).
    fn write_all(&mut self, bytes: &[u8]) {
        if self.out.write_all(bytes).is_err() {
            std::process::abort();
        }
    }

    /// Emits one complete frame, applying the chaos kill spec at item
    /// frames and interleaving watchdog epoch frames.
    fn emit(&mut self, frame: &[u8], is_item: bool) {
        if is_item {
            if let Some((after, mode)) = self.kill {
                if self.item_frames >= after {
                    match mode {
                        KillMode::Boundary => {
                            let _ = self.out.flush();
                            std::process::abort();
                        }
                        KillMode::MidFrame => {
                            let cut = (frame.len() / 2).max(1).min(frame.len() - 1);
                            self.write_all(&frame[..cut]);
                            let _ = self.out.flush();
                            std::process::abort();
                        }
                        KillMode::CorruptFrame => {
                            // Flip a checksum byte and keep running: the
                            // parent must reject everything from here on
                            // even though this process will exit 0.
                            self.kill = None;
                            let mut bad = frame.to_vec();
                            if let Some(b) = bad.get_mut(4) {
                                *b ^= 0xFF;
                            }
                            self.write_all(&bad);
                            self.bump_item();
                            return;
                        }
                    }
                }
            }
        }
        self.write_all(frame);
        if is_item {
            self.bump_item();
        }
    }

    /// Counts an item frame and emits the watchdog heartbeat at logical
    /// epoch boundaries (frame-count windows — no wall clocks).
    fn bump_item(&mut self) {
        self.item_frames += 1;
        if self.item_frames.is_multiple_of(self.epoch_every) {
            self.epochs += 1;
            let mut enc = Enc::new();
            enc.u8(KIND_EPOCH);
            enc.u64(self.epochs);
            enc.u64(self.item_frames);
            let frame = frame_bytes(&enc.into_payload());
            self.write_all(&frame);
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            std::process::abort();
        }
    }
}

/// Locks the shared wire; a poisoned lock means another thread died
/// mid-write, which in a worker is just another crash to be supervised.
fn lock_wire(wire: &Arc<Mutex<WireOut>>) -> std::sync::MutexGuard<'_, WireOut> {
    match wire.lock() {
        Ok(guard) => guard,
        Err(_) => std::process::abort(),
    }
}

fn protocol(why: impl Into<String>) -> SuperviseError {
    SuperviseError::Protocol(why.into())
}

/// Reads one complete frame from the already-fully-read stdin buffer.
fn take_frame<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a [u8], SuperviseError> {
    match scan_frame(input, *pos) {
        FrameScan::Frame { payload, end } => {
            *pos = end;
            Ok(payload)
        }
        FrameScan::NeedMore => Err(protocol("worker stdin ended mid-frame")),
        FrameScan::Corrupt => Err(protocol("worker stdin frame failed its checksum")),
    }
}

fn decode_job(payload: &[u8]) -> Result<JobSpec, SuperviseError> {
    let mut dec = Dec::new(payload);
    let spec = (|| {
        if dec.u8()? != KIND_JOB || dec.u32()? != PROTO_VERSION {
            return None;
        }
        let chain = dec.str()?;
        let params = dec.bytes()?;
        let journal_path = PathBuf::from(dec.str()?);
        let sync_every = dec.u32()? as usize;
        let kill = match dec.u8()? {
            0 => None,
            1 => Some((dec.u64()?, KillMode::Boundary)),
            2 => Some((dec.u64()?, KillMode::MidFrame)),
            3 => Some((dec.u64()?, KillMode::CorruptFrame)),
            _ => return None,
        };
        let pair_count = dec.u64()?;
        dec.exhausted().then_some(JobSpec {
            chain,
            params,
            journal_path,
            sync_every,
            kill,
            pair_count,
        })
    })();
    spec.ok_or_else(|| protocol("malformed JOB frame"))
}

fn encode_pair(pair: &InstructionPair) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(KIND_PAIR);
    enc.u64(pair.id);
    enc.u32(u32::from(pair.category.0));
    enc.str(&pair.instruction);
    enc.str(&pair.response);
    enc.into_payload()
}

/// Decodes a PAIR frame's body (after its kind byte).
fn decode_pair(dec: &mut Dec<'_>) -> Result<InstructionPair, SuperviseError> {
    let pair = (|| {
        let id = dec.u64()?;
        let category = u16::try_from(dec.u32()?).ok()?;
        let instruction = dec.str()?;
        let response = dec.str()?;
        dec.exhausted().then_some(InstructionPair {
            id,
            instruction,
            response,
            category: Category(category),
        })
    })();
    pair.ok_or_else(|| protocol("malformed PAIR frame"))
}

/// The worker protocol body: parse the job, resume the journal, tee every
/// committed record onto stdout, run the chain, report completion.
fn worker_main(factory: JobFactory) -> Result<(), SuperviseError> {
    let mut input = Vec::new();
    std::io::stdin().lock().read_to_end(&mut input)?;
    let mut pos = 0usize;
    let spec = decode_job(take_frame(&input, &mut pos)?)?;
    // The count is a claim from the frame; the bytes actually read bound
    // how many PAIR frames can follow it.
    let room = (input.len() - pos) / MIN_PAIR_FRAME;
    let claimed = usize::try_from(spec.pair_count).unwrap_or(usize::MAX);
    let mut pairs = Vec::with_capacity(claimed.min(room));
    loop {
        let payload = take_frame(&input, &mut pos)?;
        let mut dec = Dec::new(payload);
        match dec.u8() {
            Some(KIND_PAIR) => pairs.push(decode_pair(&mut dec)?),
            Some(KIND_END) => break,
            _ => return Err(protocol("unexpected frame kind on worker stdin")),
        }
    }
    if pairs.len() as u64 != spec.pair_count {
        return Err(protocol("pair count mismatch on worker stdin"));
    }

    let job = factory(&spec.chain, &spec.params)
        .ok_or_else(|| SuperviseError::UnknownChain(spec.chain.clone()))?;
    let config = job.config().clone();
    let stages = job.stages();
    let mut journal = Journal::open(&spec.journal_path)?.sync_every(spec.sync_every);
    let wire = Arc::new(Mutex::new(WireOut::new(
        spec.kill,
        config.epoch_length().max(1) as u64,
    )));

    // Backfill: re-emit every journal-recovered record so the parent's
    // collection survives its own restarts without rereading our file.
    // Upserts on the parent side make this idempotent.
    {
        let mut w = lock_wire(&wire);
        for trace in journal.committed_traces().values() {
            let mut enc = Enc::new();
            enc.u8(KIND_JOURNAL_ITEM);
            encode_item(&mut enc, trace);
            let frame = frame_bytes(&enc.into_payload());
            w.emit(&frame, true);
        }
    }

    // Tee every subsequently appended journal frame (header + items) onto
    // the pipe at append time — logically committed beats durably synced,
    // so the parent's view runs ahead of the disk and a restart re-sends
    // anything the disk lost (determinism re-derives identical records).
    {
        let sink = Arc::clone(&wire);
        journal.set_tee(Box::new(move |frame: &[u8]| {
            let is_item = frame.get(12).copied() == Some(KIND_JOURNAL_ITEM);
            lock_wire(&sink).emit(frame, is_item);
        }));
    }

    let out = Executor::new(config).run_journaled(&stages, &pairs, &mut journal)?;

    let frame = frame_bytes(&encode_done(&DoneFrame {
        digest: out.digest(),
        replayed: out.replayed as u64,
        total: out.items.len() as u64,
        sim_nanos: u64::try_from(out.sim_elapsed.as_nanos()).unwrap_or(u64::MAX),
    }));
    let mut w = lock_wire(&wire);
    w.emit(&frame, false);
    w.flush();
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// A worker's completion report.
#[derive(Debug, Clone, Copy)]
struct DoneFrame {
    digest: u64,
    replayed: u64,
    total: u64,
    /// The worker's own modeled makespan, in nanoseconds. Replay in the
    /// parent is zero-charge, so this is the only surviving copy.
    sim_nanos: u64,
}

fn encode_done(done: &DoneFrame) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(KIND_DONE);
    enc.u64(done.digest);
    enc.u64(done.replayed);
    enc.u64(done.total);
    enc.u64(done.sim_nanos);
    enc.into_payload()
}

/// Decodes a DONE frame's body (after its kind byte).
fn decode_done(dec: &mut Dec<'_>) -> Result<DoneFrame, SuperviseError> {
    let done = (|| {
        let digest = dec.u64()?;
        let replayed = dec.u64()?;
        let total = dec.u64()?;
        let sim_nanos = dec.u64()?;
        dec.exhausted().then_some(DoneFrame {
            digest,
            replayed,
            total,
            sim_nanos,
        })
    })();
    done.ok_or_else(|| protocol("malformed DONE frame"))
}

fn encode_job(
    chain: &str,
    params: &[u8],
    journal_path: &Path,
    sync_every: usize,
    kill: Option<(u64, KillMode)>,
    pair_count: u64,
) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(KIND_JOB);
    enc.u32(PROTO_VERSION);
    enc.str(chain);
    enc.bytes(params);
    enc.str(&journal_path.to_string_lossy());
    enc.u32(sync_every as u32);
    match kill {
        None => enc.u8(0),
        Some((after, mode)) => {
            enc.u8(match mode {
                KillMode::Boundary => 1,
                KillMode::MidFrame => 2,
                KillMode::CorruptFrame => 3,
            });
            enc.u64(after);
        }
    }
    enc.u64(pair_count);
    enc.into_payload()
}

/// How one worker attempt ended, as seen from the supervisor.
enum AttemptEnd {
    /// DONE frame received, exit status clean, stream uncorrupted.
    Done(DoneFrame),
    /// Anything else: dead pipe, bad exit, torn/corrupt stream, watchdog
    /// mismatch, or a supervisor-inflicted kill.
    Crashed,
}

/// The supervisor's accumulated view of one shard (or subset run).
struct ShardState {
    /// Collected item traces, keyed by the run-local index.
    traces: BTreeMap<u64, ItemTrace>,
    /// Set when some attempt finished cleanly.
    done: Option<DoneFrame>,
    restarts: u32,
    backoff_steps: u64,
    frames_by_attempt: Vec<u64>,
}

/// Reaps a child after a failure path, ignoring errors (it may already be
/// dead, which is the point).
fn put_down(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Spawns one worker attempt, streams it the partition, and parses its
/// result stream until EOF. Collected traces upsert into `traces` even on
/// a crashed attempt — everything before the corruption/kill point is
/// checksummed and trustworthy.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    chain: &str,
    params: &[u8],
    pairs: &[InstructionPair],
    journal_path: &Path,
    sync_every: usize,
    worker_env: &[(String, String)],
    worker_kill: Option<(u64, KillMode)>,
    parent_kill: Option<u64>,
    traces: &mut BTreeMap<u64, ItemTrace>,
) -> Result<(AttemptEnd, u64), SuperviseError> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.env(ENV_WORKER, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in worker_env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn()?;

    // Feed the whole partition, then close stdin — the worker reads its
    // input to EOF before emitting anything, so neither side can deadlock
    // on a full pipe. A write failure means the worker died mid-feed:
    // that is a crash to restart, not a supervisor error.
    {
        let Some(mut stdin) = child.stdin.take() else {
            put_down(&mut child);
            return Err(protocol("worker spawned without a stdin pipe"));
        };
        let job = encode_job(
            chain,
            params,
            journal_path,
            sync_every,
            worker_kill,
            pairs.len() as u64,
        );
        let fed = (|| -> std::io::Result<()> {
            stdin.write_all(&frame_bytes(&job))?;
            for pair in pairs {
                stdin.write_all(&frame_bytes(&encode_pair(pair)))?;
            }
            stdin.write_all(&frame_bytes(&[KIND_END]))?;
            stdin.flush()
        })();
        if fed.is_err() {
            put_down(&mut child);
            return Ok((AttemptEnd::Crashed, 0));
        }
    }

    let Some(mut stdout) = child.stdout.take() else {
        put_down(&mut child);
        return Err(protocol("worker spawned without a stdout pipe"));
    };

    let mut buf: Vec<u8> = Vec::new();
    let mut pos = 0usize;
    let mut item_frames = 0u64;
    let mut epochs = 0u64;
    let mut done: Option<DoneFrame> = None;
    let mut corrupt = false;
    let mut killed = false;
    let mut chunk = [0u8; 16 * 1024];
    'read: loop {
        let n = match stdout.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => {
                corrupt = true;
                break;
            }
        };
        buf.extend_from_slice(&chunk[..n]);
        loop {
            match scan_frame(&buf, pos) {
                FrameScan::NeedMore => break,
                // CRC-rejected or malformed frame: treated as a crash.
                FrameScan::Corrupt => {
                    corrupt = true;
                    break 'read;
                }
                FrameScan::Frame { payload, end } => {
                    let mut dec = Dec::new(payload);
                    match dec.u8() {
                        Some(KIND_JOURNAL_HEADER) => {}
                        Some(KIND_JOURNAL_ITEM) => {
                            let Some(trace) = decode_item(&mut dec) else {
                                corrupt = true;
                                break 'read;
                            };
                            if !dec.exhausted() {
                                corrupt = true;
                                break 'read;
                            }
                            traces.insert(trace.index, trace);
                            item_frames += 1;
                            if let Some(after) = parent_kill {
                                if item_frames >= after && !killed {
                                    killed = true;
                                    let _ = child.kill();
                                }
                            }
                        }
                        // The frame-count watchdog: the worker's logical
                        // epoch must match the parent's own item count,
                        // or the stream is desynchronised — a crash.
                        Some(KIND_EPOCH) => {
                            let claim = (dec.u64(), dec.u64());
                            epochs += 1;
                            if claim != (Some(epochs), Some(item_frames)) || !dec.exhausted() {
                                corrupt = true;
                                break 'read;
                            }
                        }
                        Some(KIND_DONE) => match decode_done(&mut dec) {
                            Ok(d) if d.total == pairs.len() as u64 => done = Some(d),
                            _ => {
                                corrupt = true;
                                break 'read;
                            }
                        },
                        _ => {
                            corrupt = true;
                            break 'read;
                        }
                    }
                    pos = end;
                }
            }
        }
    }
    // A torn tail past `pos` is truncated by construction: only complete,
    // checksum-valid frames were ever consumed.
    if corrupt {
        let _ = child.kill();
    }
    drop(stdout);
    let status = child.wait()?;
    let clean = done.is_some() && status.success() && !corrupt && !killed;
    match (clean, done) {
        (true, Some(d)) => Ok((AttemptEnd::Done(d), item_frames)),
        _ => Ok((AttemptEnd::Crashed, item_frames)),
    }
}

/// One shard's restart loop: bounded attempts against the same journal,
/// deterministic exponential backoff charged in simulated steps.
#[allow(clippy::too_many_arguments)]
fn run_with_restarts(
    chain: &str,
    params: &[u8],
    pairs: &[InstructionPair],
    shard: usize,
    journal_path: &Path,
    max_restarts: u32,
    sync_every: usize,
    worker_env: &[(String, String)],
    chaos: Option<&ChaosPlan>,
) -> Result<ShardState, SuperviseError> {
    let mut state = ShardState {
        traces: BTreeMap::new(),
        done: None,
        restarts: 0,
        backoff_steps: 0,
        frames_by_attempt: Vec::new(),
    };
    for attempt in 0..=max_restarts {
        if attempt > 0 {
            state.restarts += 1;
            state.backoff_steps += 1u64 << attempt.min(16);
        }
        let worker_kill = chaos.and_then(|c| c.worker_kill(shard, attempt));
        let parent_kill = chaos.and_then(|c| c.parent_kill(shard, attempt));
        let (end, frames) = run_attempt(
            chain,
            params,
            pairs,
            journal_path,
            sync_every,
            worker_env,
            worker_kill,
            parent_kill,
            &mut state.traces,
        )?;
        state.frames_by_attempt.push(frames);
        if let AttemptEnd::Done(d) = end {
            state.done = Some(d);
            break;
        }
    }
    Ok(state)
}

/// Traces and imposed failures keyed by subset-local index.
type SubsetResolution = (BTreeMap<u64, ItemTrace>, BTreeMap<u64, FailureRecord>);

/// Resolves a subset that outlived its owner shard's restart budget:
/// first a fresh failover run with a full budget, then — if workers keep
/// dying — recursive bisection of whatever remains untraced, down to the
/// poison singleton, which is quarantined with a structured failure.
/// Returns traces and imposed failures keyed by subset-local index;
/// effort counters accumulate into `effort`.
#[allow(clippy::too_many_arguments)]
fn resolve_subset(
    chain: &str,
    params: &[u8],
    subset: &[InstructionPair],
    dir: &Path,
    label: &str,
    seq: &mut u32,
    budget: u32,
    sync_every: usize,
    worker_env: &[(String, String)],
    effort: &mut ShardSupervision,
) -> Result<SubsetResolution, SuperviseError> {
    let run_id = *seq;
    *seq += 1;
    let journal_path = dir.join(format!("{label}-{run_id}.wal"));
    let state = run_with_restarts(
        chain,
        params,
        subset,
        usize::MAX,
        &journal_path,
        budget,
        sync_every,
        worker_env,
        None,
    )?;
    effort.restarts += state.restarts;
    effort.backoff_steps += state.backoff_steps;
    let mut traces = state.traces;
    let mut imposed = BTreeMap::new();
    let missing: Vec<u64> = (0..subset.len() as u64)
        .filter(|i| !traces.contains_key(i))
        .collect();
    // A clean DONE, or every item traced before the final crash: the
    // collected records cover the subset and replay reconstructs it.
    if state.done.is_some() || missing.is_empty() {
        return Ok((traces, imposed));
    }
    if subset.len() == 1 {
        imposed.insert(
            0,
            FailureRecord {
                stage: "supervise".to_string(),
                attempts: state.restarts + 1,
                error: format!(
                    "poison item: worker process died on all {} attempts; \
                     quarantined by bisection",
                    state.restarts + 1
                ),
                kind: FailureKind::Fatal,
            },
        );
        return Ok((traces, imposed));
    }
    // Bisect the untraced remainder; each half is strictly smaller than
    // the current subset, so the recursion bottoms out at singletons.
    let mid = missing.len().div_ceil(2);
    for half in [&missing[..mid], &missing[mid..]] {
        if half.is_empty() {
            continue;
        }
        let sub: Vec<InstructionPair> = half.iter().map(|&i| subset[i as usize].clone()).collect();
        let (half_traces, half_imposed) = resolve_subset(
            chain, params, &sub, dir, label, seq, 1, sync_every, worker_env, effort,
        )?;
        for (k, trace) in half_traces {
            let target = half[k as usize];
            traces.insert(
                target,
                rekey_trace(&subset[target as usize], trace, target)?,
            );
        }
        for (k, failure) in half_imposed {
            imposed.insert(half[k as usize], failure);
        }
    }
    Ok((traces, imposed))
}

/// Runs `chain` over the source hash-partitioned across `shards` crash-
/// contained **worker processes**, supervising each through restart,
/// failover, and poison bisection (see the module docs). `dir` holds one
/// write-ahead journal per worker; reusing a dir resumes a killed
/// supervised run of the same chain/params/input. The binary calling this
/// must have called [`worker_boot`] with the same `factory` at the top of
/// its `main`.
///
/// The merged output is digest-identical to the unsharded
/// [`Executor::run_journaled`] run of the same chain, config and input, at
/// any shard count and under any kill schedule that leaves no poison
/// item (a bisected poison item is additionally quarantined, which is the
/// one deliberate divergence).
pub fn run_sharded_process(
    factory: JobFactory,
    chain: &str,
    params: &[u8],
    source: StreamSource<'_>,
    shards: usize,
    dir: &Path,
    opts: &SuperviseOptions,
) -> Result<SupervisedOutput, SuperviseError> {
    let job =
        factory(chain, params).ok_or_else(|| SuperviseError::UnknownChain(chain.to_string()))?;
    let config = job.config().clone();
    validate_sharding(&config, &source.feed)?;
    let shards = shards.max(1);
    let Partitioned {
        n,
        shed_items,
        partitions,
        global_idx,
    } = partition_source(source, shards);
    std::fs::create_dir_all(dir)?;

    // Phase 1: one supervisor thread per shard, each driving its own
    // worker-process restart loop concurrently.
    let results: Vec<Result<ShardState, SuperviseError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .enumerate()
            .map(|(s, part)| {
                let journal_path = dir.join(format!("worker-shard-{s}-of-{shards}.wal"));
                scope.spawn(move || {
                    run_with_restarts(
                        chain,
                        params,
                        part,
                        s,
                        &journal_path,
                        opts.max_restarts,
                        opts.sync_every,
                        &opts.worker_env,
                        Some(&opts.chaos),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut states = Vec::with_capacity(shards);
    for result in results {
        states.push(result?);
    }

    // Phase 2: shards that exhausted their budget fail over — their
    // unfinished items run as a fresh job on a surviving worker slot,
    // bisecting down to poison items if workers keep dying.
    let mut supervision: Vec<ShardSupervision> = (0..shards).map(ShardSupervision::new).collect();
    for (s, state) in states.iter().enumerate() {
        supervision[s].restarts = state.restarts;
        supervision[s].backoff_steps = state.backoff_steps;
        supervision[s].frames_by_attempt = state.frames_by_attempt.clone();
    }
    let survivor = states.iter().position(|st| st.done.is_some());
    let mut imposed: Vec<BTreeMap<u64, FailureRecord>> = vec![BTreeMap::new(); shards];
    for s in 0..shards {
        if states[s].done.is_some() {
            continue;
        }
        supervision[s].abandoned = true;
        let part = &partitions[s];
        let missing: Vec<u64> = (0..part.len() as u64)
            .filter(|i| !states[s].traces.contains_key(i))
            .collect();
        if missing.is_empty() {
            // Every record arrived before the final crash; only the DONE
            // frame was lost, and replay covers the whole partition.
            continue;
        }
        let subset: Vec<InstructionPair> =
            missing.iter().map(|&i| part[i as usize].clone()).collect();
        let mut seq = 0u32;
        let label = format!("failover-shard-{s}");
        let mut effort = ShardSupervision::new(s);
        let (sub_traces, sub_imposed) = resolve_subset(
            chain,
            params,
            &subset,
            dir,
            &label,
            &mut seq,
            opts.max_restarts,
            opts.sync_every,
            &opts.worker_env,
            &mut effort,
        )?;
        supervision[s].restarts += effort.restarts;
        supervision[s].backoff_steps += effort.backoff_steps;
        supervision[s].poisoned += sub_imposed.len() as u32;
        if let Some(surv) = survivor {
            supervision[surv].failed_over_in += 1;
        }
        for (k, trace) in sub_traces {
            let target = missing[k as usize];
            let pair = &part[target as usize];
            states[s]
                .traces
                .insert(target, rekey_trace(pair, trace, target)?);
        }
        for (k, failure) in sub_imposed {
            imposed[s].insert(missing[k as usize], failure);
        }
    }

    // Phase 3: rebuild each shard's output from the collected traces
    // (plus imposed poison failures), cross-check cleanly finished
    // workers' digests, and merge through the shared deterministic merge.
    let stages = job.stages();
    let executor = Executor::new(config);
    let mut outputs = Vec::with_capacity(shards);
    for (s, state) in states.iter_mut().enumerate() {
        let mut out = executor.replay_collected(
            &stages,
            &partitions[s],
            std::mem::take(&mut state.traces),
            &imposed[s],
        )?;
        if let Some(d) = &state.done {
            if d.digest != out.digest() {
                return Err(protocol(format!(
                    "shard {s}: worker-reported digest {:#x} contradicts the digest \
                     reconstructed from its own records ({:#x})",
                    d.digest,
                    out.digest()
                )));
            }
            // Mirror the worker-observed tallies so a clean supervised
            // run reports what each worker's executor observed
            // (replayed = journal-replayed items, not the parent-side
            // reconstruction count). The cache tallies need no mirror:
            // the reconstruction classifies the same partition.
            out.replayed = usize::try_from(d.replayed).unwrap_or(usize::MAX);
            out.sim_elapsed = std::time::Duration::from_nanos(d.sim_nanos);
        }
        outputs.push(out);
    }
    let merged = merge_outputs(&stages, shed_items, &global_idx, n, outputs);
    Ok(SupervisedOutput {
        output: merged.output,
        shards: merged.shards,
        supervision,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::mutate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(id: u64) -> InstructionPair {
        InstructionPair {
            id,
            instruction: format!("ünïcode q{id}"),
            response: format!("a{id}"),
            category: Category((id % 5) as u16),
        }
    }

    #[test]
    fn job_and_pair_frames_round_trip() {
        let job = encode_job(
            "chaos/basic",
            &[1, 2, 3],
            Path::new("/tmp/x.wal"),
            16,
            Some((42, KillMode::MidFrame)),
            9,
        );
        let spec = decode_job(&job).expect("round trip");
        assert_eq!(spec.chain, "chaos/basic");
        assert_eq!(spec.params, vec![1, 2, 3]);
        assert_eq!(spec.journal_path, PathBuf::from("/tmp/x.wal"));
        assert_eq!(spec.sync_every, 16);
        assert_eq!(spec.kill, Some((42, KillMode::MidFrame)));
        assert_eq!(spec.pair_count, 9);

        let p = pair(3);
        let encoded = encode_pair(&p);
        let mut dec = Dec::new(&encoded);
        assert_eq!(dec.u8(), Some(KIND_PAIR));
        assert_eq!(decode_pair(&mut dec).ok(), Some(p));
    }

    #[test]
    fn min_pair_frame_is_the_empty_pair_frame() {
        let empty = InstructionPair {
            id: 0,
            instruction: String::new(),
            response: String::new(),
            category: Category(0),
        };
        assert_eq!(frame_bytes(&encode_pair(&empty)).len(), MIN_PAIR_FRAME);
    }

    #[test]
    fn malformed_job_frames_are_rejected() {
        assert!(decode_job(&[]).is_err());
        assert!(decode_job(&[KIND_PAIR]).is_err());
        let mut job = encode_job("c", &[], Path::new("j.wal"), 1, None, 0);
        job.push(0xEE); // trailing garbage in a checksummed frame
        assert!(decode_job(&job).is_err());
    }

    /// Decodes one control payload as its reader does (JOB and PAIR in the
    /// worker, DONE in the parent), or refuses it with a typed error; an
    /// accepted payload must re-encode to exactly `payload`.
    fn accept(payload: &[u8]) -> Result<(), SuperviseError> {
        let mut dec = Dec::new(payload);
        let again = match dec.u8() {
            Some(KIND_JOB) => {
                let spec = decode_job(payload)?;
                encode_job(
                    &spec.chain,
                    &spec.params,
                    &spec.journal_path,
                    spec.sync_every,
                    spec.kill,
                    spec.pair_count,
                )
            }
            Some(KIND_PAIR) => encode_pair(&decode_pair(&mut dec)?),
            Some(KIND_DONE) => encode_done(&decode_done(&mut dec)?),
            _ => return Err(protocol("unexpected frame kind")),
        };
        assert_eq!(again, payload, "accepted frame re-encodes");
        Ok(())
    }

    /// Seeded bit flips, truncations, extensions and splices of real JOB,
    /// PAIR and DONE payloads never panic their decoders: each is refused
    /// with a typed error or decodes to a frame that re-encodes byte for
    /// byte. (Item frames are journal records; the journal fuzz covers
    /// them.)
    #[test]
    fn mutated_control_frames_never_panic_the_decoders() {
        let frames = [
            encode_job(
                "chaos/basic",
                &[7; 40],
                Path::new("/tmp/worker-shard-0-of-2.wal"),
                32,
                None,
                3,
            ),
            encode_job(
                "chaos/basic",
                &[],
                Path::new("j.wal"),
                1,
                Some((5, KillMode::CorruptFrame)),
                0,
            ),
            encode_pair(&pair(3)),
            encode_done(&DoneFrame {
                digest: 0x00D1_6E57,
                replayed: 4,
                total: 9,
                sim_nanos: 1_711_500_000,
            }),
        ];
        for frame in &frames {
            accept(frame).expect("a real frame decodes");
        }
        let donor = frames.concat();
        let (mut accepted, mut refused) = (0, 0);
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(0x5E4F ^ case);
            let base = &frames[case as usize % frames.len()];
            match accept(&mutate(&mut rng, base, &donor)) {
                Ok(()) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(refused > 0, "no mutation was refused");
        println!("mutated control frames: {accepted} accepted, {refused} refused");
    }

    #[test]
    fn chaos_plan_matches_on_shard_and_attempt() {
        let plan = ChaosPlan {
            worker_kills: vec![WorkerKill {
                shard: 1,
                attempt: 0,
                after_frames: 5,
                mode: KillMode::Boundary,
            }],
            parent_kills: vec![ParentKill {
                shard: 0,
                attempt: 2,
                after_frames: 9,
            }],
        };
        assert_eq!(plan.worker_kill(1, 0), Some((5, KillMode::Boundary)));
        assert_eq!(plan.worker_kill(1, 1), None);
        assert_eq!(plan.worker_kill(0, 0), None);
        assert_eq!(plan.parent_kill(0, 2), Some(9));
        assert_eq!(plan.parent_kill(0, 0), None);
    }

    #[test]
    fn take_frame_distinguishes_torn_from_corrupt() {
        let good = frame_bytes(&[KIND_END]);
        let mut pos = 0;
        assert_eq!(
            take_frame(&good, &mut pos).expect("whole frame"),
            &[KIND_END]
        );
        let mut torn = good.clone();
        torn.extend_from_slice(&frame_bytes(&[KIND_END])[..5]);
        let mut pos = good.len();
        assert!(take_frame(&torn, &mut pos).is_err());
        let mut corrupt = good;
        corrupt[4] ^= 0xFF;
        let mut pos = 0;
        assert!(take_frame(&corrupt, &mut pos).is_err());
    }
}
