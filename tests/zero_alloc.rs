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

use coachlm::core::pipeline::trained_coach;
use coachlm::expert::filter::{detect_reason, FilterReason};
use coachlm::judge::criteria::CriteriaEngine;
use coachlm::lm::ngram_model::NgramLm;
use coachlm::text::clean;
use coachlm::text::editdist::WordDistance;
use coachlm::text::intern::Sym;
use coachlm::text::lexicon::{is_off_topic, LexiconHits, MarkerList, Topic};
use coachlm::text::normalize::normalize_layout;
use coachlm::text::profile::TextProfile;
use coachlm::text::token::word_count;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// An `n`-word text that cleaning and layout normalisation leave as it is:
/// ten-word sentences, capitalised and terminated, with words drawn by a
/// fixed linear congruential sequence so that no unit repeats at the end.
fn clean_text(n: usize) -> String {
    let words = [
        "water", "moves", "through", "rivers", "because", "heat", "lifts", "vapor", "into",
        "clouds", "over", "warm", "oceans", "and", "cold", "peaks",
    ];
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut out = String::new();
    for i in 0..n {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let w = words[(state >> 33) as usize % words.len()];
        if i % 10 == 0 {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&w[..1].to_uppercase());
            out.push_str(&w[1..]);
        } else {
            out.push(' ');
            out.push_str(w);
        }
        if i % 10 == 9 || i + 1 == n {
            out.push('.');
        }
    }
    out
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
    // response it scans, and a walk of folded text costs nothing.
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
            + usize::from(
                LexiconHits::of_folded(black_box(&long)).has_marker(MarkerList::Reasoning),
            )
    });
    assert_eq!(n, 180);
    assert_eq!(
        allocs, 0,
        "word counting and marker checks allocated {allocs} times"
    );

    // --- the Table III preliminary filter ---------------------------------
    // One fold of the instruction, whether no list matches or only the
    // last one checked does.
    for (instruction, reason) in [
        ("Explain the water cycle to a child", None),
        (
            "Please rewrite the entire lyrics of this song",
            Some(FilterReason::MassiveWorkload),
        ),
    ] {
        let (allocs, found) = allocations(|| detect_reason(black_box(instruction), ""));
        assert_eq!(found, reason);
        assert_eq!(allocs, 1, "detect_reason allocated {allocs} times");
    }

    // --- §III-B1 cleaning and layout ------------------------------------
    // On text they leave as it is, the cleaning and layout kernels build
    // only the copy they return, and the checks that only inspect or
    // measure text build nothing.
    let text = clean_text(180);
    assert_eq!(word_count(&text), 180);
    assert_eq!(clean::clean_output(&text), text);
    assert_eq!(normalize_layout(&text), text);
    let (allocs, cleaned) = allocations(|| clean::clean_output(black_box(&text)));
    assert_eq!(cleaned, text);
    assert!(allocs <= 1, "clean_output allocated {allocs} times");
    let (allocs, tidy) = allocations(|| normalize_layout(black_box(&text)));
    assert_eq!(tidy, text);
    assert_eq!(allocs, 1, "normalize_layout allocated {allocs} times");
    // Text it edits: lower-case sentence starts, a double space, a space
    // before a comma and none after one, a run with a newline, no end.
    let untidy = "water moves.  rivers flow ,fast.\n\n  heat lifts vapor";
    let (allocs, tidy) = allocations(|| normalize_layout(black_box(untidy)));
    assert_eq!(tidy, "Water moves. Rivers flow, fast.\nHeat lifts vapor.");
    assert_eq!(allocs, 1, "normalize_layout allocated {allocs} times");
    let (allocs, validity) =
        allocations(|| clean::validate_pair(black_box(instruction), black_box(&text)));
    assert_eq!(validity, clean::Validity::Valid);
    assert_eq!(allocs, 0, "validate_pair allocated {allocs} times");
    let (allocs, ratio) = allocations(|| clean::repetition_ratio(black_box(&text)));
    assert!(ratio < 0.6, "ratio {ratio}");
    assert_eq!(allocs, 0, "repetition_ratio allocated {allocs} times");
    let (allocs, len) = allocations(|| clean::cleaned_len(black_box(&text)));
    assert_eq!(len, text.len());
    assert_eq!(allocs, 0, "cleaned_len allocated {allocs} times");

    // --- the Table II rubric ----------------------------------------------
    // A text costs the rubric the same allocations whatever its length:
    // profiling it, analysing an instruction, analysing a response.
    let engine = CriteriaEngine::new();
    let short = clean_text(12);
    let (short_allocs, _) =
        allocations(|| engine.analyze_response(black_box(instruction), black_box(&short)));
    let (long_allocs, _) =
        allocations(|| engine.analyze_response(black_box(instruction), black_box(&text)));
    assert_eq!(
        long_allocs, short_allocs,
        "analyze_response allocated per response word"
    );
    let (short_allocs, _) = allocations(|| engine.analyze_instruction(black_box(&short)));
    let (long_allocs, _) = allocations(|| engine.analyze_instruction(black_box(&text)));
    assert_eq!(
        long_allocs, short_allocs,
        "analyze_instruction allocated per instruction word"
    );
    let (short_allocs, _) = allocations(|| TextProfile::new(black_box(&short)));
    let (long_allocs, profile) = allocations(|| TextProfile::new(black_box(&text)));
    assert_eq!(
        long_allocs, short_allocs,
        "TextProfile::new allocated per word"
    );
    // Analyses combine profiles without allocating; relevance scans the
    // response for the instruction's topic words in place.
    let topic = Topic::new(instruction);
    let instruction_profile = TextProfile::new(instruction);
    let (allocs, (ia, ra, rich)) = allocations(|| {
        (
            engine.instruction_from(black_box(&instruction_profile)),
            engine.response_from(black_box(&topic), black_box(&text), black_box(&profile)),
            engine.richness_from(black_box(&profile)),
        )
    });
    assert_eq!(ia, engine.analyze_instruction(instruction));
    assert_eq!(ra, engine.analyze_response(instruction, &text));
    assert_eq!(rich, engine.response_richness(&text));
    assert_eq!(allocs, 0, "combining profiles allocated {allocs} times");

    // --- the coach's decode ------------------------------------------------
    // On a pair no repair applies to, revising costs the same allocations
    // whatever the response's length: the lexical pass tokenises and folds
    // into buffers sized once, not a `String` per word.
    let coach = trained_coach(9, 400);
    let instruction = "Explain how water moves through rivers, for example in spring.";
    let revise = |words: usize| {
        let response = format!(
            "{} For example, rain fills rivers. I hope this helps.",
            clean_text(words)
        );
        let mut rng = StdRng::seed_from_u64(1);
        let (allocs, out) = allocations(|| {
            coach.revise_pair(&mut rng, black_box(instruction), black_box(&response))
        });
        assert!(
            out.repairs.is_empty() && !out.degenerate && out.response == response,
            "{words} words: {out:?}"
        );
        allocs
    };
    let (short_allocs, long_allocs) = (revise(80), revise(400));
    assert_eq!(
        long_allocs, short_allocs,
        "revise_pair allocated per response word"
    );
}
