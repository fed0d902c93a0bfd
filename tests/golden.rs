//! Golden regression tests: paper-shape numbers from a fixed-seed run,
//! compared against checked-in JSON under `results/golden/`.
//!
//! Every metric in the snapshot is deterministic (counts, shares, and
//! person-day ratios — never wall-clock), so the comparison is exact: any
//! drift in the generator, reviser, coach, rater, pipeline accounting, or
//! the executor's fault layer shows up as a diff against the golden file.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! COACHLM_BLESS=1 cargo test --test golden
//! ```
//!
//! `decode_bytes_match_pinned_hashes` pins the trained coach's bytes and
//! the outputs of the coach and the expert reviser as hash constants in
//! this file; blessing does not touch them.

use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::infer::revise_dataset;
use coachlm::core::pipeline::{compare_deployment, trained_coach};
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::Dataset;
use coachlm::expert::filter::preliminary_filter;
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::ExpertReviser;
use coachlm::judge::chatgpt::ChatGptRater;
use coachlm::runtime::{ExecutorConfig, FaultPlan, RetryPolicy};
use coachlm::text::fxhash::FxHasher;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Duration;

/// The snapshot. Field names are the golden file's JSON keys; adding a
/// field is a (blessed) golden change by construction.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenMetrics {
    /// Share of pairs the ChatGPT rater scores above 4.5 before revision
    /// (Table VII/VIII baseline).
    share_above_4_5_before: f64,
    /// The same share after CoachLM revision — the paper's headline uplift.
    share_above_4_5_after: f64,
    /// Pairs whose response changed under revision.
    responses_changed: usize,
    /// Pairs whose instruction changed under revision.
    instructions_changed: usize,
    /// Invalid revisions replaced with originals (§III-B1).
    replaced_invalid: usize,
    /// Training-leakage pairs kept as originals (§III-B1).
    leakage_skipped: usize,
    /// Fig 6 deployment efficiency gain (paper: net 15–20 %).
    efficiency_gain: f64,
    /// Manual-batch throughput (pairs/person-day, paper ≈80).
    manual_pairs_per_person_day: f64,
    /// Assisted-batch throughput (pairs/person-day, paper ≈100).
    assisted_pairs_per_person_day: f64,
    /// Quarantined pairs in the fixed-seed chaos batch.
    chaos_quarantined: usize,
    /// Retry attempts in the fixed-seed chaos batch.
    chaos_retries: u64,
    /// Output size of the fixed-seed chaos batch.
    chaos_output_len: usize,
}

const SEED: u64 = 0x601D;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("golden")
        .join("paper_shapes.json")
}

fn rated_share(rater: &ChatGptRater, d: &Dataset) -> f64 {
    let above = d
        .iter()
        .filter(|p| rater.rate(p.id, &p.instruction, &p.response) > 4.5)
        .count();
    above as f64 / d.len() as f64
}

fn compute_metrics() -> GoldenMetrics {
    let (train, _) = generate(&GeneratorConfig::small(2000, SEED));
    let kept = preliminary_filter(&train, SEED).kept;
    let records = ExpertReviser::new(SEED).revise_dataset(&ExpertPool::paper_pool(), &train, &kept);
    let coach = CoachLm::train(CoachConfig::default(), &records);

    let (alpaca, _) = generate(&GeneratorConfig::small(1500, SEED ^ 0xA1));
    let revised = revise_dataset(&coach, &alpaca, &ExecutorConfig::new(SEED).threads(4));
    let rater = ChatGptRater::new(SEED);

    let (raw, _) = generate(&GeneratorConfig::small(1200, SEED ^ 0xDE));
    let cmp = compare_deployment(&coach, &raw, &ExecutorConfig::new(SEED).threads(4))
        .expect("pipeline chain carries the expert-annotate stage");

    let chaos = coachlm::core::pipeline::run_batch(
        Some(&coach),
        &raw,
        &ExecutorConfig::new(SEED)
            .threads(4)
            .fault_plan(FaultPlan::new(29).transient(0.2).permanent(0.05))
            .retry_policy(RetryPolicy::new(3, Duration::from_millis(10))),
    )
    .expect("chaos batch still reports");

    GoldenMetrics {
        share_above_4_5_before: rated_share(&rater, &alpaca),
        share_above_4_5_after: rated_share(&rater, &revised.dataset),
        responses_changed: revised.responses_changed,
        instructions_changed: revised.instructions_changed,
        replaced_invalid: revised.replaced_invalid,
        leakage_skipped: revised.leakage_skipped,
        efficiency_gain: cmp.efficiency_gain(),
        manual_pairs_per_person_day: cmp.manual.pairs_per_person_day,
        assisted_pairs_per_person_day: cmp.assisted.pairs_per_person_day,
        chaos_quarantined: chaos.quarantined,
        chaos_retries: chaos.retries,
        chaos_output_len: chaos.output.len(),
    }
}

#[test]
fn metrics_match_golden_snapshot() {
    let metrics = compute_metrics();

    // The snapshot must stay inside the paper's qualitative bands even when
    // blessed, so a regeneration can't silently ratify a shape regression.
    assert!(
        metrics.share_above_4_5_after > metrics.share_above_4_5_before + 0.3,
        "revision must massively lift the >4.5 share (Table VII/VIII): {} -> {}",
        metrics.share_above_4_5_before,
        metrics.share_above_4_5_after
    );
    assert!(
        (0.08..0.45).contains(&metrics.efficiency_gain),
        "Fig 6 efficiency gain out of band: {}",
        metrics.efficiency_gain
    );
    assert!(metrics.chaos_quarantined > 0 && metrics.chaos_retries > 0);

    let path = golden_path();
    if std::env::var("COACHLM_BLESS").as_deref() == Ok("1") {
        let json = serde_json::to_string_pretty(&metrics).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run COACHLM_BLESS=1 cargo test --test golden",
            path.display()
        )
    });
    let golden: GoldenMetrics = serde_json::from_str(&text).unwrap();
    assert_eq!(
        metrics,
        golden,
        "fixed-seed metrics drifted from {}; if intentional, regenerate with COACHLM_BLESS=1",
        path.display()
    );
}

/// Words the non-ASCII input form inserts: an accented word, `ß`, which
/// upper-cases to two letters, a final sigma, a dotted capital I whose
/// fold is two chars, and the Kelvin sign, which folds to ASCII `k`.
const NON_ASCII_WORDS: &[&str] = &["café", "Straße", "ΣΑΣ", "İ", "\u{212A}"];

/// `text` with each space-separated word passed through `f`.
fn map_words(text: &str, mut f: impl FnMut(&str) -> String) -> String {
    text.split(' ').map(&mut f).collect::<Vec<_>>().join(" ")
}

fn title_case(word: &str) -> String {
    let mut chars = word.chars();
    chars.next().map_or_else(String::new, |first| {
        first
            .to_uppercase()
            .chain(chars.flat_map(char::to_lowercase))
            .collect()
    })
}

/// Rewrites one text of a pair, drawing from the form's RNG.
type Transform = fn(&str, &mut StdRng) -> String;

/// The input forms the decode pin revises each pool under.
const INPUT_FORMS: [(&str, Transform); 5] = [
    ("as generated", |text, _| text.to_string()),
    ("upper-cased", |text, _| text.to_uppercase()),
    ("title-cased", |text, _| map_words(text, title_case)),
    ("random case per word", |text, rng| {
        map_words(text, |w| match rng.gen_range(0..3) {
            0 => w.to_uppercase(),
            1 => w.to_lowercase(),
            _ => title_case(w),
        })
    }),
    ("non-ASCII words inserted", |text, rng| {
        map_words(text, |w| {
            let word = NON_ASCII_WORDS[rng.gen_range(0..NON_ASCII_WORDS.len())];
            match rng.gen_range(0..6) {
                0 => format!("{w} {word}"),
                1 => format!("{w}{word}"),
                _ => w.to_string(),
            }
        })
    }),
];

/// The bytes the coach and the expert reviser produce, pinned: the trained
/// coach's encoding, and for each input form one hash over every
/// `revise_pair` outcome (texts, repair labels, the degenerate flag and the
/// next draw of the pair's RNG) and one over every `ExpertReviser::revise`
/// record. A kernel rewrite that claims byte-identical output must leave
/// all of them as they are.
#[test]
fn decode_bytes_match_pinned_hashes() {
    const MODEL: u64 = 0x9ee2_383a_1bdb_8fbe;
    const PINNED: [(&str, u64, u64); 5] = [
        ("as generated", 0x9f0b_5d87_c5a6_8901, 0x5dad_a82f_6f56_ead1),
        ("upper-cased", 0xe88b_d41f_cf6d_b57a, 0x0595_d7eb_c03c_cb06),
        ("title-cased", 0x463e_d557_d28c_22dc, 0x5c11_7f53_59da_2a94),
        (
            "random case per word",
            0xa3e1_07f4_d061_0131,
            0x930f_55b0_945e_2a36,
        ),
        (
            "non-ASCII words inserted",
            0xc9ed_0ba9_c995_e30b,
            0xbb08_2b34_9f24_54ce,
        ),
    ];
    let coach = trained_coach(9, 400);
    let mut model = FxHasher::default();
    model.write(&coach.to_bytes());
    let reviser = ExpertReviser::new(0xDEC0);
    let pool = ExpertPool::paper_pool();
    let (base, _) = generate(&GeneratorConfig::small(1000, 0xDEC0));
    let mut got = Vec::new();
    for (form, (name, transform)) in INPUT_FORMS.into_iter().enumerate() {
        let mut case_rng = StdRng::seed_from_u64(form as u64);
        let (mut decoded, mut revised) = (FxHasher::default(), FxHasher::default());
        for original in &base.pairs {
            let mut pair = original.clone();
            pair.instruction = transform(&original.instruction, &mut case_rng);
            pair.response = transform(&original.response, &mut case_rng);
            let mut rng = StdRng::seed_from_u64(pair.id);
            let out = coach.revise_pair(&mut rng, &pair.instruction, &pair.response);
            out.instruction.hash(&mut decoded);
            out.response.hash(&mut decoded);
            for tag in &out.repairs {
                tag.label().hash(&mut decoded);
            }
            out.repairs.len().hash(&mut decoded);
            out.degenerate.hash(&mut decoded);
            rng.next_u64().hash(&mut decoded);
            match reviser.revise(&pool, &pair) {
                Some(record) => {
                    record.revised.instruction.hash(&mut revised);
                    record.revised.response.hash(&mut revised);
                    record.instruction_kind.hash(&mut revised);
                    record.response_kind.hash(&mut revised);
                    record.qc_iterations.hash(&mut revised);
                    record.final_scores.instruction.to_bits().hash(&mut revised);
                    record.final_scores.response.to_bits().hash(&mut revised);
                }
                None => revised.write_u8(0),
            }
        }
        got.push((name, decoded.finish(), revised.finish()));
    }
    assert_eq!(model.finish(), MODEL, "trained_coach(9, 400) bytes changed");
    assert_eq!(got, PINNED, "decode outputs changed");
}
