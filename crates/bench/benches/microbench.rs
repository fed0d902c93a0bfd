//! Criterion micro-benchmarks for the performance-critical paths:
//! edit distances (the α-selection and Table VII workhorses), the criteria
//! engine (every judge call), CoachLM revision throughput (the §IV-A
//! samples/s claim), PandaLM judging, and dataset generation.

use coachlm_core::pipeline::trained_coach;
use coachlm_data::generator::{generate, GeneratorConfig};
use coachlm_judge::criteria::CriteriaEngine;
use coachlm_judge::pandalm::PandaLm;
use coachlm_text::editdist::{edit_distance, word_edit_distance, WordDistance};
use coachlm_text::intern::Interner;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn long_text(words: usize, tag: &str) -> String {
    (0..words)
        .map(|i| format!("w{}{tag}", i % 97))
        .collect::<Vec<_>>()
        .join(" ")
}

fn bench_editdist(c: &mut Criterion) {
    let mut g = c.benchmark_group("editdist");
    for n in [50usize, 200, 800] {
        let a = long_text(n, "a");
        let bt = long_text(n, "b");
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(
            BenchmarkId::new("word", format!("len={n}")),
            &n,
            |bch, _| bch.iter(|| word_edit_distance(black_box(&a), black_box(&bt))),
        );
        // The ranking path: one calculator across a whole pass, so the
        // tokenisation memo and Myers scratch are warm (zero allocations).
        g.bench_with_input(
            BenchmarkId::new("word_cached", format!("len={n}")),
            &n,
            |bch, _| {
                let mut wd = WordDistance::new();
                bch.iter(|| wd.distance(black_box(&a), black_box(&bt)))
            },
        );
        // Baseline: the pre-bit-parallel word path — intern, then the
        // generic O(m·n) DP — kept here so the speedup is measured in-run.
        g.bench_with_input(
            BenchmarkId::new("word_dp", format!("len={n}")),
            &n,
            |bch, _| {
                bch.iter(|| {
                    let mut interner = Interner::new();
                    let sa = interner.intern_words(black_box(&a));
                    let sb = interner.intern_words(black_box(&bt));
                    edit_distance(&sa, &sb)
                })
            },
        );
    }
    g.finish();
}

fn bench_criteria(c: &mut Criterion) {
    let engine = CriteriaEngine::new();
    let instr = "Explain the water cycle for a middle-school reader with one example.";
    let resp = "The water cycle moves water through evaporation, condensation, and rain. \
        This happens because the sun heats oceans and lakes, lifting vapor into the air. \
        For example, puddles disappear on a sunny day. In summary, water circulates constantly.";
    c.bench_function("criteria/score_pair", |b| {
        b.iter(|| engine.score_pair(black_box(instr), black_box(resp)))
    });
}

fn bench_revision(c: &mut Criterion) {
    // The coach coachbench's `lm.revise_pair` times, trained the same way,
    // over a generated pool with one RNG stream per pair, so the two
    // numbers describe one model.
    let coach = trained_coach(0xC0AC, 2000);
    let (d, _) = generate(&GeneratorConfig::small(3000, 2901));
    let mut g = c.benchmark_group("coachlm");
    g.throughput(Throughput::Elements(1));
    g.bench_function("revise_pair", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let p = &d.pairs[i % d.len()];
            i += 1;
            let mut rng = StdRng::seed_from_u64(p.id);
            coach.revise_pair(&mut rng, black_box(&p.instruction), black_box(&p.response))
        })
    });
    g.finish();
}

fn bench_judging(c: &mut Criterion) {
    let judge = PandaLm::new(5);
    let instr = "Explain the water cycle";
    let strong = "The water cycle moves water through evaporation and rain. This happens \
                  because the sun heats the oceans. For example, puddles vanish on sunny days.";
    let weak = "Water moves around the sky sometimes.";
    c.bench_function("pandalm/compare_debiased", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            judge.compare(
                black_box(id),
                black_box(instr),
                black_box(strong),
                black_box(weak),
            )
        })
    });
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("generator");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("generate_1k_pairs", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            generate(black_box(&GeneratorConfig::small(1000, seed)))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_editdist, bench_criteria, bench_revision, bench_judging, bench_generation
}
criterion_main!(benches);
