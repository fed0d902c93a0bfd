//! Crash-consistent write-ahead journal for chain runs.
//!
//! A 52k-pair revision sweep is hours of work; a killed process must not
//! lose it. The executor appends one compact record per *committed* item —
//! an item that finished the whole chain, whatever its disposition — and a
//! resumed run replays those records instead of re-executing them, then
//! re-enters the batch at the exact frontier. Because every per-item
//! outcome is already a pure function of `(chain, input, seed)`, replay
//! composes with fresh execution bit-for-bit: the resumed run's items,
//! deterministic report fields, quarantine, and breaker evolution are
//! identical to an uninterrupted run at any thread count.
//!
//! ## On-disk format
//!
//! A journal is a flat sequence of length-prefixed, checksummed records:
//!
//! ```text
//! record   := len:u32le  crc:u64le  payload[len]
//! crc      := fxhash64(payload)
//! payload  := kind:u8 body
//! kind 1   := header — format version, input length, run fingerprint
//! kind 2   := item trace — index, pair id (the RNG key), disposition,
//!             final text (only where changed), tags, failure record,
//!             content digest, and per-stage outcome deltas
//! ```
//!
//! The header's fingerprint hashes everything that determines outcomes —
//! chain seed, stage names, retry policy, fault plan, breaker policy, and
//! the full input content — so resuming under *different* semantics is
//! rejected up front instead of silently diverging. Thread count and
//! queue capacity are deliberately excluded: they never affect results,
//! and a journal written by a 16-thread run must resume on a 1-thread
//! one.
//!
//! ## Torn writes
//!
//! Appends are buffered and fsynced in batches ([`Journal::sync_every`]),
//! so a crash can leave a torn tail: a partial record, or a complete-
//! looking record whose bytes never all reached the disk. [`Journal::open`]
//! scans from the start and stops at the first record whose length prefix
//! overruns the file or whose checksum mismatches, truncating the file
//! back to the last consistent frontier — replay never trusts a record
//! that was not durably and completely written. Item records are
//! independent (no inter-record delta coding), so dropping the tail loses
//! at most the unsynced suffix of work, never corrupts the prefix.
//!
//! Payloads attached via [`StageItem::set_payload`](crate::StageItem) are
//! *not* journalled (they are opaque `Any` boxes); chains whose stages
//! communicate through payloads should treat the journal as covering the
//! item text, tags, and failure state only.

use crate::fault::{FailureKind, FailureRecord};
use coachlm_text::fxhash::FxHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal format version; bumped on any encoding change.
/// v2 added the per-stage `iterations` counter for looping stages.
pub(crate) const JOURNAL_VERSION: u32 = 2;

/// Bytes of frame overhead per record (length prefix + checksum).
const FRAME_BYTES: u64 = 12;

/// Upper bound on a single record's payload, to reject absurd length
/// prefixes from corrupt files before allocating.
const MAX_RECORD_BYTES: u32 = 1 << 28;

/// Records buffered between fsyncs by default.
const DEFAULT_SYNC_EVERY: usize = 32;

/// Why a journal could not be created, recovered, or resumed from.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The journal is internally valid but belongs to a different run
    /// (fingerprint, input length, or version mismatch) or refers to
    /// items the given input does not contain.
    Incompatible(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal IO error: {e}"),
            JournalError::Incompatible(why) => {
                write!(f, "journal incompatible with this run: {why}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The header record's decoded body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeaderRecord {
    /// Format version ([`JOURNAL_VERSION`] when written by this build).
    pub(crate) version: u32,
    /// Length of the input the journal was written against.
    pub(crate) input_len: u64,
    /// Hash of everything that determines outcomes (see module docs).
    pub(crate) fingerprint: u64,
}

/// Per-stage outcome deltas for one committed item, enough to rebuild the
/// item's contribution to every deterministic [`StageReport`] field.
///
/// [`StageReport`]: crate::StageReport
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StageTrace {
    /// Chain position of the stage.
    pub(crate) stage: u32,
    /// Whether the breaker passed the item through instead of executing.
    pub(crate) degraded: bool,
    /// Whether the item was still retained after this stage.
    pub(crate) retained_after: bool,
    /// Whether this stage quarantined the item.
    pub(crate) quarantined: bool,
    /// Retries taken at this stage.
    pub(crate) retries: u32,
    /// Committed iteration passes at this stage (1 for a plain stage the
    /// item completed; up to the stage's iteration budget for a looping
    /// stage; 0 when the item degraded or quarantined before committing).
    pub(crate) iterations: u32,
    /// Faults injected into this stage's attempts.
    pub(crate) faults: u64,
    /// Attempts cut short by the stage deadline.
    pub(crate) timeouts: u32,
    /// Simulated backoff charged, in nanoseconds.
    pub(crate) backoff_nanos: u64,
    /// Simulated latency charged, in nanoseconds.
    pub(crate) latency_nanos: u64,
    /// Stage counter deltas, sorted by key.
    pub(crate) counters: Vec<(String, u64)>,
}

/// One committed item: its terminal state plus per-stage deltas.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ItemTrace {
    /// Position in the chain input.
    pub(crate) index: u64,
    /// The pair's id — the per-item RNG key, cross-checked on resume.
    pub(crate) pair_id: u64,
    /// Terminal disposition: 0 retained, 1 dropped, 2 quarantined.
    pub(crate) disposition: u8,
    /// Final instruction, recorded only when a stage changed it.
    pub(crate) instruction: Option<String>,
    /// Final response, recorded only when a stage changed it.
    pub(crate) response: Option<String>,
    /// All tags attached during the run, in order.
    pub(crate) tags: Vec<String>,
    /// The failure record, for quarantined items.
    pub(crate) failure: Option<FailureRecord>,
    /// Content digest of the terminal item state, re-verified on replay.
    pub(crate) digest: u64,
    /// Per-stage deltas, in chain order (stages the item never reached
    /// are absent).
    pub(crate) stages: Vec<StageTrace>,
}

/// An append-only, checksummed, fsync-batched record log for one chain
/// run, with torn-tail recovery on open. See the module docs for the
/// format and guarantees; drive it through
/// [`Executor::run_journaled`](crate::Executor::run_journaled), which
/// both starts and resumes a run.
pub struct Journal {
    file: File,
    path: PathBuf,
    header: Option<HeaderRecord>,
    /// The item records [`Journal::open`] recovered, until the resuming
    /// run takes them.
    recovered: BTreeMap<u64, ItemTrace>,
    /// Item records appended through this handle. They go to the file
    /// only: nothing reads a record back from the handle that wrote it.
    appended: usize,
    spans: Vec<(u64, u64)>,
    /// Logical end offset: durable bytes plus buffered bytes.
    len: u64,
    buf: Vec<u8>,
    buffered_records: usize,
    sync_every: usize,
    /// Per-frame mirror: handed every appended frame's exact bytes before
    /// batching. The supervised worker tees its journal onto the
    /// supervisor pipe with this.
    tee: Option<TeeSink>,
}

/// A per-frame mirror sink (see [`Journal::set_tee`]).
pub(crate) type TeeSink = Box<dyn FnMut(&[u8]) + Send>;

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("header", &self.header)
            .field("committed", &self.committed())
            .field("len", &self.len)
            .field("buffered_records", &self.buffered_records)
            .field("sync_every", &self.sync_every)
            .field("tee", &self.tee.is_some())
            .finish()
    }
}

impl Journal {
    /// Creates a fresh journal at `path`, truncating anything there.
    pub fn create(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref();
        let file = File::create(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            header: None,
            recovered: BTreeMap::new(),
            appended: 0,
            spans: Vec::new(),
            len: 0,
            buf: Vec::new(),
            buffered_records: 0,
            sync_every: DEFAULT_SYNC_EVERY,
            tee: None,
        })
    }

    /// Opens the journal at `path` for resumption (creating an empty one
    /// if none exists), recovering whatever consistent prefix survives: a
    /// torn or corrupt tail — partial frame, short payload, checksum
    /// mismatch, undecodable body — ends the scan, and the file is
    /// truncated back to that frontier so later appends extend a clean
    /// log.
    pub fn open(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        let mut header = None;
        let mut recovered = BTreeMap::new();
        let mut spans = Vec::new();
        let mut pos: usize = 0;
        while let Some((payload, end)) = next_frame(&data, pos) {
            let mut dec = Dec::new(payload);
            // A record is kept only once its whole payload decoded: one
            // with trailing bytes ends the log like any other refusal.
            let parsed = match dec.u8() {
                Some(1) if header.is_none() => decode_header(&mut dec)
                    .filter(|_| dec.exhausted())
                    .map(|h| header = Some(h)),
                Some(2) if header.is_some() => {
                    decode_item(&mut dec).filter(|_| dec.exhausted()).map(|t| {
                        recovered.insert(t.index, t);
                    })
                }
                // Unknown kind, duplicate header, or an item before the
                // header: not a log this build wrote — stop at the last
                // good frontier.
                _ => None,
            };
            if parsed.is_none() {
                break;
            }
            spans.push((pos as u64, end as u64));
            pos = end;
        }

        if (pos as u64) < data.len() as u64 {
            file.set_len(pos as u64)?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            header,
            recovered,
            appended: 0,
            spans,
            len: pos as u64,
            buf: Vec::new(),
            buffered_records: 0,
            sync_every: DEFAULT_SYNC_EVERY,
            tee: None,
        })
    }

    /// Installs a per-frame tee: every subsequently appended frame's exact
    /// bytes (length prefix, checksum, payload) are handed to `sink` as
    /// one call, at append time — ahead of the fsync batching, so a
    /// mirror sees frames the moment they are committed logically rather
    /// than when they become durable.
    pub(crate) fn set_tee(&mut self, sink: TeeSink) {
        self.tee = Some(sink);
    }

    /// Overrides how many records are buffered between fsyncs (floored at
    /// 1 — every record synced immediately). The trade is the usual one:
    /// larger batches cost fewer fsyncs but widen the window of work a
    /// crash can lose.
    pub fn sync_every(mut self, records: usize) -> Journal {
        self.sync_every = records.max(1);
        self
    }

    /// Number of committed item records recovered or appended so far
    /// (recovered records no longer count once a resuming run has taken
    /// them).
    pub fn committed(&self) -> usize {
        self.recovered.len() + self.appended
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte spans `(start, end)` of every valid record, header included —
    /// the crash tests use these to truncate mid-record at every offset.
    pub fn record_spans(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// The recovered header, if the journal has one.
    pub(crate) fn header(&self) -> Option<&HeaderRecord> {
        self.header.as_ref()
    }

    /// Writes the header record. Must be the first append.
    pub(crate) fn write_header(&mut self, h: HeaderRecord) -> Result<(), std::io::Error> {
        let mut enc = Enc::new();
        enc.u8(1);
        encode_header(&mut enc, &h);
        self.header = Some(h);
        self.append_frame(enc.into_payload())
    }

    /// Appends one committed item record (buffered; durable after the
    /// next batch boundary or [`Journal::sync`]).
    pub(crate) fn append(&mut self, trace: &ItemTrace) -> Result<(), std::io::Error> {
        let mut enc = Enc::new();
        enc.u8(2);
        encode_item(&mut enc, trace);
        self.appended += 1;
        self.append_frame(enc.into_payload())
    }

    /// Flushes buffered records and fsyncs file data.
    pub fn sync(&mut self) -> Result<(), std::io::Error> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.buffered_records = 0;
        self.file.sync_data()
    }

    /// Takes the recovered traces for replay. The records stay durable in
    /// the file; the in-memory copy moves to the resuming run, so one
    /// `Journal` handle drives at most one run.
    pub(crate) fn take_committed(&mut self) -> BTreeMap<u64, ItemTrace> {
        std::mem::take(&mut self.recovered)
    }

    /// The recovered traces, by item index, without consuming them — the
    /// supervised worker backfills these onto its result pipe before the
    /// resuming run takes them.
    pub(crate) fn committed_traces(&self) -> &BTreeMap<u64, ItemTrace> {
        &self.recovered
    }

    fn append_frame(&mut self, payload: Vec<u8>) -> Result<(), std::io::Error> {
        let start = self.len;
        let buf_start = self.buf.len();
        push_frame(&mut self.buf, &payload);
        if let Some(tee) = self.tee.as_mut() {
            tee(&self.buf[buf_start..]);
        }
        self.len = start + (self.buf.len() - buf_start) as u64;
        self.spans.push((start, self.len));
        self.buffered_records += 1;
        if self.buffered_records >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }
}

/// Appends `payload` to `out` framed in the journal's on-disk/on-wire
/// format: `len:u32le crc:u64le payload`. Journal appends and the
/// supervised worker protocol's frames both go through here.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let mut h = FxHasher::default();
    h.write(payload);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(payload);
}

/// One framed payload (see [`push_frame`]), for a single pipe write.
pub(crate) fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_BYTES as usize + payload.len());
    push_frame(&mut out, payload);
    out
}

/// One step of incremental frame parsing over a growing byte stream. A
/// pipe reader must distinguish "wait for more bytes" from "the sender is
/// corrupt"; a journal file read whole treats both as its end
/// ([`next_frame`]).
pub(crate) enum FrameScan<'a> {
    /// A complete, checksum-valid frame: its payload and end offset.
    Frame { payload: &'a [u8], end: usize },
    /// The bytes so far are a valid prefix of a frame; read more.
    NeedMore,
    /// The bytes can never become a valid frame (absurd length prefix or
    /// checksum mismatch over a complete payload).
    Corrupt,
}

/// Scans for the frame starting at `pos` in a stream still being read.
pub(crate) fn scan_frame(data: &[u8], pos: usize) -> FrameScan<'_> {
    let Some(frame) = data.get(pos..) else {
        return FrameScan::NeedMore;
    };
    let Some(len_bytes) = frame.get(..4) else {
        return FrameScan::NeedMore;
    };
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap_or([0; 4]));
    if len == 0 || len > MAX_RECORD_BYTES {
        return FrameScan::Corrupt;
    }
    let Some(crc_bytes) = frame.get(4..12) else {
        return FrameScan::NeedMore;
    };
    let crc = u64::from_le_bytes(crc_bytes.try_into().unwrap_or([0; 8]));
    let Some(payload) = frame.get(12..12 + len as usize) else {
        return FrameScan::NeedMore;
    };
    let mut h = FxHasher::default();
    h.write(payload);
    if h.finish() != crc {
        return FrameScan::Corrupt;
    }
    FrameScan::Frame {
        payload,
        end: pos + 12 + len as usize,
    }
}

/// The frame starting at `pos` in a whole file: its payload slice and end
/// offset, or `None` where [`scan_frame`] finds no complete valid frame —
/// a torn, corrupt or absent frame ends the log.
fn next_frame(data: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    match scan_frame(data, pos) {
        FrameScan::Frame { payload, end } => Some((payload, end)),
        FrameScan::NeedMore | FrameScan::Corrupt => None,
    }
}

fn encode_header(enc: &mut Enc, h: &HeaderRecord) {
    enc.u32(h.version);
    enc.u64(h.input_len);
    enc.u64(h.fingerprint);
}

fn decode_header(dec: &mut Dec<'_>) -> Option<HeaderRecord> {
    Some(HeaderRecord {
        version: dec.u32()?,
        input_len: dec.u64()?,
        fingerprint: dec.u64()?,
    })
}

pub(crate) fn encode_item(enc: &mut Enc, t: &ItemTrace) {
    enc.u64(t.index);
    enc.u64(t.pair_id);
    enc.u8(t.disposition);
    enc.opt_str(t.instruction.as_deref());
    enc.opt_str(t.response.as_deref());
    enc.u32(t.tags.len() as u32);
    for tag in &t.tags {
        enc.str(tag);
    }
    match &t.failure {
        None => enc.u8(0),
        Some(f) => {
            enc.u8(1);
            enc.str(&f.stage);
            enc.u32(f.attempts);
            enc.str(&f.error);
            enc.u8(match f.kind {
                FailureKind::RetriesExhausted => 0,
                FailureKind::Fatal => 1,
            });
        }
    }
    enc.u64(t.digest);
    enc.u32(t.stages.len() as u32);
    for s in &t.stages {
        enc.u32(s.stage);
        enc.u8(u8::from(s.degraded));
        enc.u8(u8::from(s.retained_after));
        enc.u8(u8::from(s.quarantined));
        enc.u32(s.retries);
        enc.u32(s.iterations);
        enc.u64(s.faults);
        enc.u32(s.timeouts);
        enc.u64(s.backoff_nanos);
        enc.u64(s.latency_nanos);
        enc.u32(s.counters.len() as u32);
        for (key, v) in &s.counters {
            enc.str(key);
            enc.u64(*v);
        }
    }
}

pub(crate) fn decode_item(dec: &mut Dec<'_>) -> Option<ItemTrace> {
    let index = dec.u64()?;
    let pair_id = dec.u64()?;
    let disposition = dec.u8()?;
    if disposition > 2 {
        return None;
    }
    let instruction = dec.opt_str()?;
    let response = dec.opt_str()?;
    let n_tags = dec.u32()?;
    let mut tags = Vec::with_capacity(n_tags.min(1024) as usize);
    for _ in 0..n_tags {
        tags.push(dec.str()?);
    }
    let failure = match dec.u8()? {
        0 => None,
        1 => Some(FailureRecord {
            stage: dec.str()?,
            attempts: dec.u32()?,
            error: dec.str()?,
            kind: match dec.u8()? {
                0 => FailureKind::RetriesExhausted,
                1 => FailureKind::Fatal,
                _ => return None,
            },
        }),
        _ => return None,
    };
    let digest = dec.u64()?;
    let n_stages = dec.u32()?;
    let mut stages = Vec::with_capacity(n_stages.min(1024) as usize);
    for _ in 0..n_stages {
        let stage = dec.u32()?;
        let degraded = dec.bool()?;
        let retained_after = dec.bool()?;
        let quarantined = dec.bool()?;
        let retries = dec.u32()?;
        let iterations = dec.u32()?;
        let faults = dec.u64()?;
        let timeouts = dec.u32()?;
        let backoff_nanos = dec.u64()?;
        let latency_nanos = dec.u64()?;
        let n_counters = dec.u32()?;
        let mut counters = Vec::with_capacity(n_counters.min(1024) as usize);
        for _ in 0..n_counters {
            let key = dec.str()?;
            let v = dec.u64()?;
            counters.push((key, v));
        }
        stages.push(StageTrace {
            stage,
            degraded,
            retained_after,
            quarantined,
            retries,
            iterations,
            faults,
            timeouts,
            backoff_nanos,
            latency_nanos,
            counters,
        });
    }
    Some(ItemTrace {
        index,
        pair_id,
        disposition,
        instruction,
        response,
        tags,
        failure,
        digest,
        stages,
    })
}

/// Little-endian record encoder.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn into_payload(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian record decoder; every getter returns `None` on underrun
/// or malformed data, which the scanner treats as end-of-valid-log.
pub(crate) struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.data.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    pub(crate) fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    /// A length-prefixed byte string, as [`Enc::bytes`] writes it.
    pub(crate) fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        self.take(len).map(|b| b.to_vec())
    }

    /// `true` when the whole payload was consumed — trailing garbage in a
    /// checksummed record means a format mismatch, not a torn write, and
    /// is rejected all the same.
    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::mutate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "coachlm-journal-unit-{}-{tag}-{n}.wal",
            std::process::id()
        ))
    }

    fn header() -> HeaderRecord {
        HeaderRecord {
            version: JOURNAL_VERSION,
            input_len: 4,
            fingerprint: 0xFEED_BEEF,
        }
    }

    fn trace(index: u64) -> ItemTrace {
        ItemTrace {
            index,
            pair_id: index * 10,
            disposition: u8::from(index % 3 == 2) * 2,
            instruction: index.is_multiple_of(2).then(|| format!("revised {index}?")),
            response: Some(format!("answer {index} with ünïcode")),
            tags: vec!["leakage".into(), format!("t{index}")],
            failure: (index % 3 == 2).then(|| FailureRecord {
                stage: "coach-revise".into(),
                attempts: 3,
                error: "injected: transient".into(),
                kind: FailureKind::RetriesExhausted,
            }),
            digest: 0xD1_6E57 ^ index,
            stages: vec![StageTrace {
                stage: 0,
                degraded: index % 4 == 1,
                retained_after: index % 3 != 2,
                quarantined: index % 3 == 2,
                retries: 2,
                iterations: u32::try_from(1 + index % 3).unwrap_or(1),
                faults: 3,
                timeouts: 1,
                backoff_nanos: 30_000_000,
                latency_nanos: 250_000_000,
                counters: vec![("invalid".into(), 1), ("repair:x".into(), 2)],
            }],
        }
    }

    #[test]
    fn records_round_trip_through_a_reopen() {
        let path = temp_path("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        j.write_header(header()).unwrap();
        for i in 0..4 {
            j.append(&trace(i)).unwrap();
        }
        j.sync().unwrap();
        drop(j);

        let mut back = Journal::open(&path).unwrap();
        assert_eq!(back.header(), Some(&header()));
        assert_eq!(back.committed(), 4);
        let committed = back.take_committed();
        for i in 0..4u64 {
            assert_eq!(committed.get(&i), Some(&trace(i)));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_tail_truncation_offset_recovers_the_prefix() {
        let path = temp_path("torn");
        let mut j = Journal::create(&path).unwrap();
        j.write_header(header()).unwrap();
        for i in 0..3 {
            j.append(&trace(i)).unwrap();
        }
        j.sync().unwrap();
        let spans = j.record_spans().to_vec();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        let (last_start, last_end) = spans[spans.len() - 1];
        assert_eq!(last_end, full.len() as u64);

        // Cutting anywhere inside the tail record must recover exactly
        // the first two items and truncate the torn bytes away.
        for cut in last_start..last_end {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.committed(), 2, "cut at {cut}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                last_start,
                "cut at {cut} must truncate to the frontier"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_drops_everything_from_the_flip_onward() {
        let path = temp_path("corrupt");
        let mut j = Journal::create(&path).unwrap();
        j.write_header(header()).unwrap();
        for i in 0..3 {
            j.append(&trace(i)).unwrap();
        }
        j.sync().unwrap();
        let spans = j.record_spans().to_vec();
        drop(j);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte inside item record 1 (spans[0] is the header).
        let mid = (spans[2].0 + 13) as usize;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let j = Journal::open(&path).unwrap();
        assert_eq!(j.committed(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), spans[2].0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_after_recovery_extend_the_clean_log() {
        let path = temp_path("extend");
        let mut j = Journal::create(&path).unwrap();
        j.write_header(header()).unwrap();
        j.append(&trace(0)).unwrap();
        j.append(&trace(1)).unwrap();
        j.sync().unwrap();
        let full_len = std::fs::metadata(&path).unwrap().len();
        drop(j);
        // Tear the tail record in half, reopen, append a replacement.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.committed(), 1);
        j.append(&trace(1)).unwrap();
        j.sync().unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.committed(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn item_record_before_header_is_rejected() {
        let path = temp_path("no-header");
        let mut j = Journal::create(&path).unwrap();
        j.write_header(header()).unwrap();
        j.append(&trace(0)).unwrap();
        j.sync().unwrap();
        let spans = j.record_spans().to_vec();
        drop(j);
        // Strip the header record; the orphaned item must not be trusted.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[spans[0].1 as usize..]).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.committed(), 0);
        assert!(j.header().is_none());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_every_floors_at_one_and_batches_otherwise() {
        let path = temp_path("batch");
        let mut j = Journal::create(&path).unwrap().sync_every(0);
        j.write_header(header()).unwrap();
        // sync_every(0) floors to 1: the record is already durable.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            j.record_spans()[0].1
        );
        drop(j);

        let path2 = temp_path("batch2");
        let mut j = Journal::create(&path2).unwrap().sync_every(100);
        j.write_header(header()).unwrap();
        j.append(&trace(0)).unwrap();
        // Buffered, not yet written.
        assert_eq!(std::fs::metadata(&path2).unwrap().len(), 0);
        j.sync().unwrap();
        assert!(std::fs::metadata(&path2).unwrap().len() > 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    /// A decoded record payload.
    enum Record {
        Header(HeaderRecord),
        Item(ItemTrace),
    }

    /// Decodes one record payload as [`Journal::open`] does, or refuses
    /// it; an accepted record must re-encode to exactly `payload`.
    fn accept(payload: &[u8], header_seen: bool) -> Option<Record> {
        let mut dec = Dec::new(payload);
        let record = match dec.u8()? {
            1 if !header_seen => Record::Header(decode_header(&mut dec)?),
            2 if header_seen => Record::Item(decode_item(&mut dec)?),
            _ => return None,
        };
        if !dec.exhausted() {
            return None;
        }
        let mut enc = Enc::new();
        match &record {
            Record::Header(h) => {
                enc.u8(1);
                encode_header(&mut enc, h);
            }
            Record::Item(t) => {
                enc.u8(2);
                encode_item(&mut enc, t);
            }
        }
        assert_eq!(enc.into_payload(), payload, "accepted record re-encodes");
        Some(record)
    }

    /// Seeded bit flips, truncations, extensions and splices of a real
    /// journal never panic the frame scanners, `decode_item` or
    /// [`Journal::open`]: every frame is accepted and re-encodes byte for
    /// byte, or is refused, and `open` keeps exactly the accepted prefix.
    #[test]
    fn mutated_journal_bytes_never_panic_the_decoders() {
        let path = temp_path("fuzz-real");
        let mut j = Journal::create(&path).unwrap();
        j.write_header(header()).unwrap();
        for i in 0..6 {
            j.append(&trace(i)).unwrap();
        }
        j.sync().unwrap();
        let spans = j.record_spans().to_vec();
        drop(j);
        let real = std::fs::read(&path).unwrap();
        let header_frame = &real[..spans[0].1 as usize];
        // Item payloads without their kind byte.
        let bodies: Vec<&[u8]> = spans[1..]
            .iter()
            .map(|&(start, end)| &real[start as usize + 13..end as usize])
            .collect();

        let fuzz = temp_path("fuzz-case");
        let (mut whole_files, mut cut_files) = (0, 0);
        let (mut accepted, mut refused) = (0, 0);
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(0x10F2 ^ case);
            // Whole files: each frame scans and decodes, or ends the log.
            let m = mutate(&mut rng, &real, &real);
            let (mut pos, mut header_seen) = (0, false);
            let mut kept = BTreeMap::new();
            loop {
                let next = next_frame(&m, pos);
                match scan_frame(&m, pos) {
                    FrameScan::Frame { payload, end } => {
                        assert_eq!(next, Some((payload, end)), "case {case} at {pos}");
                    }
                    FrameScan::NeedMore | FrameScan::Corrupt => {
                        assert_eq!(next, None, "case {case} at {pos}");
                    }
                }
                let Some((payload, end)) = next else { break };
                match accept(payload, header_seen) {
                    Some(Record::Header(_)) => header_seen = true,
                    Some(Record::Item(t)) => {
                        kept.insert(t.index, t);
                    }
                    None => break,
                }
                pos = end;
            }
            if pos < m.len() {
                cut_files += 1;
            } else {
                whole_files += 1;
            }
            std::fs::write(&fuzz, &m).unwrap();
            let opened = Journal::open(&fuzz).expect("recovery is not an IO error");
            assert_eq!(opened.header().is_some(), header_seen, "case {case}");
            assert_eq!(opened.committed_traces(), &kept, "case {case}");
            assert_eq!(opened.record_spans().last().map_or(0, |s| s.1), pos as u64);
            assert_eq!(std::fs::metadata(&fuzz).unwrap().len(), pos as u64);

            // Item payloads under a valid checksum reach `decode_item`,
            // which refuses them or decodes a record that re-encodes.
            let body = bodies[rng.gen_range(0..bodies.len())];
            let mut payload = vec![2u8];
            payload.extend(mutate(&mut rng, body, &real));
            let decoded = accept(&payload, true).is_some();
            if decoded {
                accepted += 1;
            } else {
                refused += 1;
            }
            let mut file = header_frame.to_vec();
            file.extend(frame_bytes(&payload));
            std::fs::write(&fuzz, &file).unwrap();
            let opened = Journal::open(&fuzz).expect("recovery is not an IO error");
            assert_eq!(opened.committed(), usize::from(decoded), "case {case}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&fuzz).ok();
        assert!(cut_files > 0 && refused > 0, "no mutation was refused");
        println!(
            "mutated journals: {whole_files} read whole, {cut_files} cut at a refused frame; \
             mutated item records: {accepted} accepted, {refused} refused"
        );
    }

    /// The `sync_every` durability contract the supervised restart path
    /// leans on: a kill at *any* append point loses at most `sync_every`
    /// committed-but-unsynced item records from the durable prefix (they
    /// are re-executed on resume, never lost), and the recovered log
    /// extends cleanly to the full record count.
    #[test]
    fn sync_every_bounds_unsynced_tail_loss() {
        let total = 20u64;
        for k in [1usize, 3, 8] {
            let path = temp_path(&format!("tail-bound-{k}"));
            let snap = temp_path(&format!("tail-bound-snap-{k}"));
            let mut j = Journal::create(&path).unwrap().sync_every(k);
            j.write_header(header()).unwrap();
            for i in 0..total {
                j.append(&trace(i)).unwrap();
                // A kill right now leaves exactly the bytes currently on
                // disk; snapshot them and measure the durable prefix.
                std::fs::copy(&path, &snap).unwrap();
                let recovered = Journal::open(&snap).unwrap();
                let appended = i + 1;
                let durable = recovered.committed() as u64;
                assert!(durable <= appended, "k={k}: disk ran ahead at {i}");
                assert!(
                    appended - durable <= k as u64,
                    "k={k}: kill after append {i} would lose {} > {k} records",
                    appended - durable
                );
            }
            drop(j);

            // Resume from the last kill point: replay the durable prefix,
            // re-append the lost tail, and the log converges to a clean
            // full-length journal.
            let mut resumed = Journal::open(&snap).unwrap();
            for i in resumed.committed() as u64..total {
                resumed.append(&trace(i)).unwrap();
            }
            resumed.sync().unwrap();
            drop(resumed);
            assert_eq!(Journal::open(&snap).unwrap().committed() as u64, total);
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(&snap).ok();
        }
    }
}
