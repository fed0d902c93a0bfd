//! Failure injection and edge-case robustness across the facade API.

use coachlm::core::coach::{CoachConfig, CoachLm};
use coachlm::core::infer::revise_dataset;
use coachlm::core::pipeline::run_batch;
use coachlm::core::student::{tune_student, SkillParams};
use coachlm::data::category::Category;
use coachlm::data::pair::{Dataset, InstructionPair};
use coachlm::expert::pool::ExpertPool;
use coachlm::expert::revision::ExpertReviser;
use coachlm::judge::criteria::CriteriaEngine;
use coachlm::judge::pandalm::PandaLm;
use coachlm::runtime::{ExecutorConfig, FaultPlan, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    ]
}

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
    let reviser = ExpertReviser::new(2);
    let pool = ExpertPool::paper_pool();
    for p in adversarial_pairs() {
        if let Some(rec) = reviser.revise(&pool, &p) {
            assert!(rec.qc_iterations <= 4);
            assert!(!rec.revised.response.trim().is_empty() || p.response.trim().is_empty());
        }
    }
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
    let mut d = Dataset::new("adversarial-batch");
    d.pairs = adversarial_pairs();
    for (i, p) in d.pairs.iter_mut().enumerate() {
        p.id = i as u64;
    }
    let coach = CoachLm::train(CoachConfig::default(), &[]);
    // Full Clean -> CoachRevise -> ExpertAnnotate chain, with and without
    // the coach, must not panic on control chars, zero-width joiners, or
    // 2000-word pairs, and must account for every input pair.
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
    // The same batch under an aggressive fault plan still accounts exactly.
    let report = run_batch(
        Some(&coach),
        &d,
        &ExecutorConfig::new(7)
            .threads(4)
            .fault_plan(FaultPlan::new(3).transient(0.4).permanent(0.2))
            .retry_policy(RetryPolicy::new(2, std::time::Duration::from_millis(1))),
    )
    .unwrap();
    assert_eq!(
        report.output.len() + report.dropped + report.quarantined,
        d.len()
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
