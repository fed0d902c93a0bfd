//! Allocation accounting for the ranking and scoring hot paths.
//!
//! The acceptance criterion for the allocation-free hot paths is literal:
//! after warm-up, `WordDistance::distance` and `NgramLm::prob` must perform
//! **zero** heap allocations per query. A counting `#[global_allocator]`
//! makes that measurable instead of aspirational.
//!
//! Counting is gated on a thread-local flag set only around the measured
//! closure: the allocator hook is process-global, and the libtest harness's
//! main thread occasionally allocates (channel wakeups) while a test runs,
//! which must not be attributed to the single-threaded hot path. For the
//! same reason this file holds a single `#[test]` on purpose.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use coachlm::lm::ngram_model::NgramLm;
use coachlm::text::editdist::WordDistance;
use coachlm::text::intern::Sym;
use coachlm::text::lexicon::{contains_folded_marker, is_off_topic, REASONING_MARKERS};
use coachlm::text::token::word_count;

/// Wraps the system allocator, counting every `alloc`/`realloc` call made
/// by the thread currently inside [`allocations`].
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// True only on the measuring thread, only inside [`allocations`].
    ///
    /// Const-initialized `Cell<bool>` compiles to a plain TLS slot read:
    /// no lazy init and no allocation, so it is safe to touch from inside
    /// the allocator itself.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measuring() {
    // `try_with` rather than `with`: allocations during thread teardown
    // (after the TLS slot is gone) should be ignored, not panic.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measuring();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measuring();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// A repetitive ~`n`-word text, long enough to cross the 64-word block
/// boundary of the bit-parallel kernel.
fn long_text(n: usize, salt: &str) -> String {
    let words = ["please", "revise", "the", "instruction", salt, "carefully"];
    (0..n)
        .map(|i| words[i % words.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn hot_paths_allocate_nothing_after_warm_up() {
    // --- word-level edit distance -------------------------------------
    let a = long_text(200, "alpha");
    let b = long_text(180, "beta");
    let (short_a, short_b) = ("keep the response concise", "keep every response concise");

    let mut wd = WordDistance::new();
    // Warm-up: populates the tokenisation memo and sizes the Myers scratch.
    let warm_long = wd.distance(&a, &b);
    let warm_short = wd.distance(short_a, short_b);

    let (allocs, d) = allocations(|| {
        let mut total = 0usize;
        for _ in 0..32 {
            total += wd.distance(black_box(&a), black_box(&b));
            total += wd.distance(black_box(short_a), black_box(short_b));
            total += wd.distance(black_box(&b), black_box(&a));
        }
        total
    });
    assert_eq!(d, 32 * (2 * warm_long + warm_short));
    assert_eq!(
        allocs, 0,
        "WordDistance::distance allocated {allocs} times after warm-up"
    );

    // --- n-gram probability scoring -----------------------------------
    let m = NgramLm::train(
        3,
        &[
            "the cat sat on the mat",
            "the cat ran to the door",
            "the dog sat on the rug",
        ],
    );
    let ctx = m.vocab().encode_text("the cat sat on the mat");
    let warm: f64 = (1..ctx.len()).map(|i| m.prob(&ctx[..i], ctx[i])).sum();

    let (allocs, p) = allocations(|| {
        let mut total = 0.0f64;
        for _ in 0..64 {
            for i in 1..ctx.len() {
                total += m.prob(black_box(&ctx[..i]), black_box(ctx[i]));
            }
            // Unseen symbols back off through every order without a buffer.
            total += m.prob(black_box(&ctx[..2]), black_box(Sym(u32::MAX)));
        }
        total
    });
    assert!(p > 64.0 * warm, "probabilities should accumulate: {p}");
    assert_eq!(
        allocs, 0,
        "NgramLm::prob allocated {allocs} times after warm-up"
    );

    // --- Table II text kernels ------------------------------------------
    // Once the lexicon tables exist, a relevance check costs the
    // instruction's topic words and one fold buffer however much of the
    // response it scans, and the shared-fold checks cost nothing.
    let instruction = "Describe the climate of the Sahara desert";
    let (short, long) = ("Bananas are yellow.", long_text(180, "bananas"));
    assert!(is_off_topic(instruction, short) && is_off_topic(instruction, &long));
    let (short_allocs, _) = allocations(|| is_off_topic(black_box(instruction), black_box(short)));
    let (long_allocs, _) = allocations(|| is_off_topic(black_box(instruction), black_box(&long)));
    assert_eq!(
        long_allocs, short_allocs,
        "is_off_topic allocated per scanned response word"
    );
    let (allocs, n) = allocations(|| {
        word_count(black_box(&long))
            + usize::from(contains_folded_marker(black_box(&long), REASONING_MARKERS))
    });
    assert_eq!(n, 180);
    assert_eq!(
        allocs, 0,
        "word counting and marker checks allocated {allocs} times"
    );
}
