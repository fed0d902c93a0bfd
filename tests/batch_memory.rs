//! Live-heap accounting for the batch path.
//!
//! A batch should spend memory on the data it returns, not on copies of
//! its input. A counting `#[global_allocator]` tracks the process's live
//! and peak heap bytes, and one `pipeline::run_batch` call with the exact
//! revision cache over duplicate-heavy traffic must keep its peak above
//! the pre-call level within the returned output's bytes plus 512 B per
//! input pair: room for per-item bookkeeping, none for a second copy of
//! the input's text or a slot for every input pair at once. A
//! `run_batch_journaled` call must stay within the same bound: the
//! journal writes each record out, and keeps none of them.
//!
//! The counters are process-wide, so this file holds a single `#[test]`
//! on purpose: a sibling test allocating on another thread would count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use coachlm::core::pipeline::{run_batch, run_batch_journaled, PipelineReport};
use coachlm::data::generator::{zipfian_duplicates, ZipfianConfig};
use coachlm::data::pair::{Dataset, InstructionPair};
use coachlm::runtime::{CachePolicy, ExecutorConfig, Journal};

/// Wraps the system allocator, tracking live bytes and their peak.
struct CountingAlloc;

/// Heap bytes currently allocated. Statistics only: they publish no other
/// data, so relaxed ordering is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest value [`LIVE`] reached since the last [`peak_above`] reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates the counters around it, so `System`'s
// guarantees hold as they are.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how far live heap bytes peaked above their level
/// when it started.
fn peak_above<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed).saturating_sub(base), out)
}

/// What a returned dataset holds: its pairs and their text.
fn output_bytes(output: &Dataset) -> usize {
    output
        .pairs
        .iter()
        .map(|p| size_of::<InstructionPair>() + p.instruction.capacity() + p.response.capacity())
        .sum()
}

/// Peak bytes a batch may hold per input pair beyond its output.
const PER_PAIR: usize = 512;

#[test]
fn cached_batch_peak_stays_within_output_plus_bookkeeping() {
    let raw = zipfian_duplicates(&ZipfianConfig {
        name: "zipf-200x20000".to_string(),
        distinct: 200,
        total: 20_000,
        exponent: 1.1,
        compact: false,
        seed: 0xBA7C,
    });
    let n = raw.pairs.len();
    let text: usize = raw
        .pairs
        .iter()
        .map(|p| p.instruction.len() + p.response.len())
        .sum();
    println!("input: {n} pairs, {} B of text per pair", text / n);
    for threads in [1, 2] {
        let config = ExecutorConfig::new(7)
            .threads(threads)
            .revision_cache(CachePolicy::exact());
        // Warm-up: lazily built tables stay allocated after the first
        // call and are no part of any batch's footprint.
        let warm = Dataset {
            name: "warm-up".to_string(),
            pairs: raw.pairs[..200].to_vec(),
        };
        run_batch(None, &warm, &config).expect("warm-up batch");

        let (peak, report) = peak_above(|| run_batch(None, &raw, &config).expect("cached batch"));
        check_peak(&format!("threads {threads}"), peak, &report, n);

        let path = std::env::temp_dir().join(format!(
            "coachlm-batch-memory-{}-{threads}.wal",
            std::process::id()
        ));
        let mut journal = Journal::create(&path).expect("create journal");
        let (peak, report) = peak_above(|| {
            run_batch_journaled(None, &raw, &config, &mut journal).expect("journaled batch")
        });
        drop(journal);
        std::fs::remove_file(&path).ok();
        check_peak(&format!("threads {threads}, journaled"), peak, &report, n);
    }
}

/// Asserts that a batch over `n` pairs peaked within its output plus
/// [`PER_PAIR`] bytes per input pair.
fn check_peak(what: &str, peak: usize, report: &PipelineReport, n: usize) {
    assert_eq!(report.output.len(), n, "{what}: this chain drops nothing");
    let output = output_bytes(&report.output);
    let budget = output + PER_PAIR * n;
    println!(
        "{what}: peak {peak} B above the pre-call level, output {output} B, budget {budget} B \
         ({} B per pair above the output)",
        peak.saturating_sub(output) / n
    );
    assert!(
        peak <= budget,
        "{what}: the batch peaked {peak} B above its pre-call level, more than its {output} B \
         output plus {PER_PAIR} B per input pair"
    );
}
