//! Failure injection and edge-case robustness across the facade API.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::infer::revise_dataset;
use coachlm::core::pipeline::{run_batch, trained_coach};
use coachlm::core::strategies::StrategyZoo;
use coachlm::core::student::{tune_student, SkillParams};
use coachlm::data::category::Category;
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::{Dataset, InstructionPair};
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::ExpertReviser;
use coachlm::judge::criteria::CriteriaEngine;
use coachlm::judge::pandalm::PandaLm;
use coachlm::lm::transducer::RepairTag;
use coachlm::runtime::{ExecutorConfig, FaultPlan, RetryPolicy};
use coachlm::text::lexicon::{LexiconHits, MarkerList, GRAMMAR_PAIRS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` on a thread that is abandoned if it has not returned after
/// `secs` seconds, so a hang fails the test instead of stalling the suite.
fn within_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("still running after {secs} s"),
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            worker
                .join()
                .expect_err("the worker sends unless it panics"),
        ),
    }
}

fn adversarial_pairs() -> Vec<InstructionPair> {
    vec![
        InstructionPair::new(0, "", "", Category(0)),
        InstructionPair::new(1, "   \t\n  ", "\n\n", Category(1)),
        InstructionPair::new(2, "?!.,;:", "...", Category(2)),
        InstructionPair::new(
            3,
            "日本語だけの指示です",
            "中文回答，没有英文。",
            Category(3),
        ),
        InstructionPair::new(
            4,
            "mixed 日本語 and English zwj \u{200D} text",
            "ok \u{FFFD} done",
            Category(4),
        ),
        InstructionPair::new(5, "word ".repeat(2000), "long ".repeat(4000), Category(5)),
        InstructionPair::new(6, "a", "b", Category(6)),
        InstructionPair::new(
            7,
            "### Instruction: nested template {} [x] (y)",
            "### Response: echo ### Response: echo",
            Category(7),
        ),
        InstructionPair::new(
            8,
            "\u{0}\u{1}\u{2}control",
            "bell\u{7}chars\u{8}",
            Category(8),
        ),
        InstructionPair::new(
            9,
            "emoji 🌊🌧️ instruction",
            "emoji 🌞 response with ✨",
            Category(9),
        ),
        // Built-in-list hits in another case than the lists spell them.
        InstructionPair::new(10, BERLIN.0, BERLIN.1, Category(10)),
        InstructionPair::new(11, "Did he win the race?", "He COULD OF won.", Category(11)),
        InstructionPair::new(
            12,
            "Is this a good plan?",
            "AS AN AI LANGUAGE MODEL, I think so.",
            Category(12),
        ),
    ]
}

/// A corrupted fact whose wrong value is upper-cased: `FACT_TABLE` spells
/// it "Berlin".
const BERLIN: (&str, &str) = (
    "Describe France for travelers",
    "France is lovely. The capital of France is BERLIN.",
);

#[test]
fn criteria_engine_never_panics_and_stays_in_range() {
    let engine = CriteriaEngine::new();
    for p in adversarial_pairs() {
        let s = engine.score_pair(&p.instruction, &p.response);
        assert!(
            (0.0..=100.0).contains(&s.instruction),
            "{s:?} for {:?}",
            p.instruction
        );
        assert!((0.0..=100.0).contains(&s.response));
    }
}

#[test]
fn transducer_handles_adversarial_input() {
    let coach = CoachLm::train(CoachConfig::default(), &[]);
    let mut rng = StdRng::seed_from_u64(1);
    for p in adversarial_pairs() {
        let out = coach.revise_pair(&mut rng, &p.instruction, &p.response);
        // Output is valid UTF-8 by construction; just ensure no panic and
        // non-pathological growth.
        assert!(out.response.len() <= p.response.len() + 4096);
    }
}

#[test]
fn expert_reviser_handles_adversarial_input() {
    within_deadline(60, || {
        let reviser = ExpertReviser::new(2);
        let pool = ExpertPool::paper_pool();
        for p in adversarial_pairs() {
            if let Some(rec) = reviser.revise(&pool, &p) {
                assert!(rec.qc_iterations <= 4);
                assert!(!rec.revised.response.trim().is_empty() || p.response.trim().is_empty());
            }
        }
    });
}

/// The expert reviser's grammar fix finds "could of" in case-folded text.
/// Folding shortens the Kelvin sign (3 bytes) to `k` (1 byte), so the cut
/// must be taken in the original text: once it landed inside `é` and
/// panicked, which took the whole in-process run down with it.
#[test]
fn expert_grammar_fix_after_a_shrinking_fold_does_not_panic() {
    let pair = InstructionPair::new(
        7,
        "Explain why the café sample cooled so fast.",
        "\u{212A}é could of condensed, so the café sample cooled quickly overnight.",
        Category(0),
    );
    let rec = ExpertReviser::new(1)
        .revise(&ExpertPool::paper_pool(), &pair)
        .expect("the grammar error needs revision");
    assert!(
        rec.revised.response.contains("could have condensed"),
        "{}",
        rec.revised.response
    );
    assert!(!rec.revised.response.contains("could of"));
}

/// As above, with the shrinking folds all before the phrase: the fix must
/// replace "could of" itself, not the bytes six places to its right.
#[test]
fn expert_grammar_fix_after_a_shrinking_fold_replaces_the_phrase() {
    let pair = InstructionPair::new(
        7,
        "Explain why the café sample cooled so fast.",
        "At 300 \u{212A} \u{212A}\u{212A} the gas could of condensed, so it cooled.",
        Category(0),
    );
    let rec = ExpertReviser::new(1)
        .revise(&ExpertPool::paper_pool(), &pair)
        .expect("the grammar error needs revision");
    assert!(
        rec.revised
            .response
            .contains("\u{212A}\u{212A} the gas could have condensed, so it cooled."),
        "{}",
        rec.revised.response
    );
}

/// The coach's fact repair finds the wrong value the way detection does,
/// whatever its case, and tags only a text it changed.
#[test]
fn coach_fact_fix_of_an_upper_cased_value_replaces_it() {
    let coach = trained_coach(9, 400);
    let mut fixed = 0;
    for seed in 0..200 {
        let out = coach.revise_pair(&mut StdRng::seed_from_u64(seed), BERLIN.0, BERLIN.1);
        if out.repairs.contains(&RepairTag::Fact) {
            assert!(
                !out.response.contains("BERLIN") && out.response.contains("Paris"),
                "seed {seed}: {}",
                out.response
            );
            fixed += 1;
        }
    }
    assert!(fixed > 0, "no seed drew the fact repair");
}

#[test]
fn dataset_revision_of_adversarial_dataset_completes() {
    let mut d = Dataset::new("adversarial");
    d.pairs = adversarial_pairs();
    // Reassign dense ids.
    for (i, p) in d.pairs.iter_mut().enumerate() {
        p.id = i as u64;
    }
    let coach = CoachLm::train(CoachConfig::default(), &[]);
    let out = revise_dataset(&coach, &d, &ExecutorConfig::new(3).threads(4));
    assert_eq!(out.dataset.len(), d.len());
    // Empty-sided pairs must never be "revised" into validity from nothing:
    // the §III-B1 validator replaces invalid outputs with originals.
    assert_eq!(out.dataset.get(0).unwrap().instruction, "");
}

#[test]
fn pipeline_batch_survives_adversarial_dataset_end_to_end() {
    within_deadline(120, || {
        let mut d = Dataset::new("adversarial-batch");
        d.pairs = adversarial_pairs();
        for (i, p) in d.pairs.iter_mut().enumerate() {
            p.id = i as u64;
        }
        let coach = CoachLm::train(CoachConfig::default(), &[]);
        // Full Clean -> CoachRevise -> ExpertAnnotate chain, with and
        // without the coach, must not panic on control chars, zero-width
        // joiners, or 2000-word pairs, and must account for every input
        // pair.
        for coach_opt in [None, Some(&coach)] {
            let report = run_batch(coach_opt, &d, &ExecutorConfig::new(7).threads(4)).unwrap();
            assert_eq!(report.raw_pairs, d.len());
            assert_eq!(
                report.output.len() + report.dropped + report.quarantined,
                d.len(),
                "every adversarial pair must be retained, dropped, or quarantined"
            );
            assert_eq!(
                report.quarantined, 0,
                "no faults injected, none quarantined"
            );
        }
        // The same batch under an aggressive fault plan still accounts
        // exactly.
        let report = run_batch(
            Some(&coach),
            &d,
            &ExecutorConfig::new(7)
                .threads(4)
                .fault_plan(FaultPlan::new(3).transient(0.4).permanent(0.2))
                .retry_policy(RetryPolicy::new(2, Duration::from_millis(1))),
        )
        .unwrap();
        assert_eq!(
            report.output.len() + report.dropped + report.quarantined,
            d.len()
        );
    });
}

/// Upper, title and random per-word case. Detection ignores case, so
/// every repair must too.
const CASE_TRANSFORMS: [fn(&str, &mut StdRng) -> String; 3] = [
    |text, _| text.to_uppercase(),
    |text, _| map_words(text, title_case),
    |text, rng| {
        map_words(text, |w| match rng.gen_range(0..3) {
            0 => w.to_uppercase(),
            1 => w.to_lowercase(),
            _ => title_case(w),
        })
    },
];

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

/// How many facts `text` contradicts, whether it holds a grammar wrong
/// form, and whether it holds machine tone.
fn defects(text: &str) -> (u32, bool, bool) {
    let hits = LexiconHits::of(text);
    (
        hits.fact_errors(),
        hits.first_grammar(GRAMMAR_PAIRS.len()).is_some(),
        hits.has_marker(MarkerList::MachineTone),
    )
}

/// Metamorphic case property over a generated pool (with a grammar error
/// planted in every fifth response), as it is and under each case
/// transform:
/// - every reviser returns before the deadline: the expert, the coach and
///   each zoo strategy;
/// - no fact, grammar or machine-tone hit that a repair acted on is still
///   detected in its output. The expert and the Reflection and Self-Review
///   strategies act on every fact and grammar hit (the expert on machine
///   tone too); the coach acts on a fact where it records `Fact`;
/// - the expert's output needs no second revision.
#[test]
fn revisers_repair_case_transformed_pools() {
    let covered = within_deadline(240, || {
        let coach = trained_coach(9, 400);
        let reviser = ExpertReviser::new(42);
        let pool = ExpertPool::paper_pool();
        let zoo = StrategyZoo::standard(&coach, 0x200);
        let (mut base, _) = generate(&GeneratorConfig::small(600, 78));
        for (i, p) in base.pairs.iter_mut().enumerate().step_by(5) {
            let (wrong, _) = GRAMMAR_PAIRS[i / 5 % GRAMMAR_PAIRS.len()];
            p.response.push_str(&format!(" Note that {wrong} this."));
        }
        let mut covered = (0, 0, 0);
        let identity: fn(&str, &mut StdRng) -> String = |text, _| text.to_string();
        for (t, transform) in std::iter::once(identity).chain(CASE_TRANSFORMS).enumerate() {
            let mut rng = StdRng::seed_from_u64(t as u64);
            let mut d = base.clone();
            for p in &mut d.pairs {
                p.instruction = transform(&p.instruction, &mut rng);
                p.response = transform(&p.response, &mut rng);
            }
            for p in &d.pairs {
                let out = coach.revise_pair(
                    &mut StdRng::seed_from_u64(p.id),
                    &p.instruction,
                    &p.response,
                );
                if out.repairs.contains(&RepairTag::Fact) {
                    assert_eq!(
                        defects(&out.response).0,
                        0,
                        "coach, transform {t}: {}",
                        out.response
                    );
                }
                let (facts, grammar, tone) = defects(&p.response);
                covered.0 += usize::from(facts > 0);
                covered.1 += usize::from(grammar);
                covered.2 += usize::from(tone);
                let Some(rec) = reviser.revise(&pool, p) else {
                    continue;
                };
                let (facts_left, grammar_left, tone_left) = defects(&rec.revised.response);
                assert!(
                    (facts == 0 || facts_left == 0)
                        && (!grammar || !grammar_left)
                        && (!tone || !tone_left),
                    "expert, transform {t}: {:?}",
                    rec.revised.response
                );
                assert!(
                    reviser.revise(&pool, &rec.revised).is_none(),
                    "expert, transform {t}: a second revision of {:?}",
                    rec.revised
                );
            }
            for strategy in zoo.iter() {
                let out = strategy.dataset(&d, &ExecutorConfig::new(t as u64));
                if !matches!(strategy.name(), "reflection" | "self-review") {
                    continue;
                }
                for o in &out.pairs {
                    let (facts, grammar, _) = defects(&d.pairs[o.id as usize].response);
                    let (facts_left, grammar_left, _) = defects(&o.response);
                    assert!(
                        (facts == 0 || facts_left == 0) && (!grammar || !grammar_left),
                        "{}, transform {t}: {:?}",
                        strategy.name(),
                        o.response
                    );
                }
            }
        }
        covered
    });
    // What the pools actually held, over the four versions of each.
    assert!(
        covered.0 > 0 && covered.1 > 0 && covered.2 > 0,
        "{covered:?}"
    );
}

#[test]
fn judges_handle_empty_and_giant_candidates() {
    let judge = PandaLm::new(4);
    let giant = "very ".repeat(5000);
    for (a, b) in [
        ("", "reference text here"),
        (giant.as_str(), "short"),
        ("", ""),
    ] {
        let _ = judge.compare(1, "instruction", a, b); // must not panic
    }
}

#[test]
fn student_tuning_survives_degenerate_datasets() {
    let mut d = Dataset::new("degenerate");
    d.pairs = adversarial_pairs();
    let m = tune_student("m", &d, SkillParams::default(), 5);
    assert!((0.0..=1.0).contains(&m.global_skill()));
    let empty = Dataset::new("empty");
    let m2 = tune_student("m2", &empty, SkillParams::default(), 5);
    assert!((0.0..=1.0).contains(&m2.global_skill()));
}

#[test]
fn text_algorithms_handle_pathological_sizes() {
    use coachlm::text::editdist::word_edit_distance;
    // 5,000-word texts run the blocked bit-parallel kernel over 79 blocks
    // of 64 pattern positions.
    let long_a = "ab ba ".repeat(2500);
    let long_b = "ba ab ".repeat(2500);
    let d = word_edit_distance(&long_a, &long_b);
    assert!(d > 0 && d <= 5000);
    assert_eq!(word_edit_distance("", ""), 0);
    assert_eq!(word_edit_distance("", &long_a), 5000);
}
