//! The seeded ALPACA52K-like dataset generator.
//!
//! The real ALPACA52K (52 002 pairs distilled from GPT-3.5) is not available
//! offline; this generator synthesises a stand-in whose *quality structure*
//! matches what the paper measured:
//!
//! * ~18.1 % of pairs have a Table III filtering-grade problem (1088/6000),
//!   mixed 41.7/27.7/8.2/6.5/15.9 across the five reasons;
//! * of the rest, 46.8 % carry at least one revisable deficiency
//!   (2301/4912, §II-E2), with the response-defect mix of Table IV and an
//!   instruction-side defect on 46.9 % of deficient pairs (1079/2301);
//! * ~17.7 % of all pairs are genuinely high quality (the share ChatGPT
//!   rates above 4.5 in Fig 4);
//! * average lengths land near Table VII's 17.7 (instruction) and 43.9
//!   (response) words.
//!
//! Defects are *textual* (see [`crate::defect`]); the provenance labels
//! returned alongside the dataset exist only for calibration tests and are
//! never consulted by judges or revision models.

use crate::category::{Category, CategoryDef, TaskClass, CATEGORIES};
use crate::compose::{compose_response, ComposeSpec};
use crate::defect::Defect;
use crate::pair::{Dataset, InstructionPair};
use crate::topics::{pick_topic_in, Domain, Topic};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Quality tier assigned at generation time (provenance only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    /// Carries a Table III filtering-grade problem.
    Filterable,
    /// High quality: rich, reasoned, warm (the Fig 4 ">4.5" share).
    Rich,
    /// Serviceable but unremarkable.
    Adequate,
    /// Carries one or more revisable defects.
    Deficient,
}

/// Per-pair generation provenance (for calibration tests only).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provenance {
    /// Pair id.
    pub id: u64,
    /// Assigned tier.
    pub tier: Tier,
    /// Defects injected (empty for Rich/Adequate).
    pub defects: Vec<Defect>,
}

/// Generator configuration; defaults reproduce the paper's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Dataset name.
    pub name: String,
    /// Number of pairs (paper: 52 002; the "52k" dataset).
    pub size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction with Table III problems (1088/6000).
    pub filter_fraction: f64,
    /// Fraction of *all* pairs that are rich (Fig 4: 17.7 %).
    pub rich_fraction: f64,
    /// Fraction of non-filterable pairs with revisable deficiencies
    /// (2301/4912 = 46.8 %).
    pub deficient_fraction: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            name: "ALPACA52K-synth".to_string(),
            size: 52_002,
            seed: 0x5EED_C0AC,
            filter_fraction: 1088.0 / 6000.0,
            rich_fraction: 0.177,
            deficient_fraction: 2301.0 / 4912.0,
        }
    }
}

impl GeneratorConfig {
    /// A small config for tests: `n` pairs, same distributions.
    pub fn small(n: usize, seed: u64) -> Self {
        Self {
            size: n,
            seed,
            name: format!("synth-{n}"),
            ..Self::default()
        }
    }
}

/// Table III reason mix among filterable pairs.
const FILTER_MIX: [(Defect, f64); 5] = [
    (Defect::InvalidInput, 0.417),
    (Defect::BeyondExpertise, 0.277),
    (Defect::MassiveWorkload, 0.082),
    (Defect::MultiModal, 0.065),
    (Defect::ToxicRequest, 0.159),
];

/// Response-defect mix among *non-polished* deficient pairs. Calibrated so
/// that, combined with the polished subtier's minor defects, the expert
/// revision engine's Table IV categories land on the paper's ratios
/// (43.7 / 24.5 / 23.3 / 6.7 / 1.9).
const RESPONSE_DEFECT_MIX: [(Defect, f64); 8] = [
    (Defect::BareResponse, 0.650),
    (Defect::IrrelevantResponse, 0.090),
    (Defect::ResponseTypos, 0.063),
    (Defect::ResponseLayout, 0.050),
    (Defect::MachineTone, 0.047),
    (Defect::FactError, 0.074),
    (Defect::UnsafeResponse, 0.018),
    (Defect::FormatJunk, 0.009),
];

/// Instruction-defect mix among non-polished deficient pairs, calibrated
/// (jointly with the polished subtier's typo/layout-only instruction
/// defects and the expert engine's occasional context enrichment) so the
/// Table IV instruction categories land near 68.1 / 24.9 / 7.0.
const INSTRUCTION_DEFECT_MIX: [(Defect, f64); 4] = [
    (Defect::InstructionTypos, 0.38),
    (Defect::InstructionLayout, 0.27),
    (Defect::VagueInstruction, 0.21),
    (Defect::InfeasibleInstruction, 0.14),
];

/// Probability a deficient pair also has an instruction-side defect
/// (1079/2301).
const INSTRUCTION_DEFECT_P: f64 = 1079.0 / 2301.0;

/// Additional truncation share: truncated responses belong to the
/// comprehensiveness class of Table IV; a third of "bare" deficiencies are
/// realised as truncations rather than single-sentence answers.
const TRUNCATION_SHARE_OF_BARE: f64 = 0.33;

/// Share of deficient pairs that are *polished but minorly flawed*: rich
/// content with one surface defect. Their expert revisions are tiny, which
/// is what populates the low-edit-distance tail of `R`.
const POLISHED_DEFICIENT_SHARE: f64 = 0.30;

/// The minor defects a polished pair may carry (weighted).
const MINOR_RESPONSE_DEFECTS: [(Defect, f64); 4] = [
    (Defect::ResponseTypos, 0.40),
    (Defect::ResponseLayout, 0.30),
    (Defect::MachineTone, 0.25),
    (Defect::FactError, 0.05),
];

/// Generates the dataset and its provenance.
pub fn generate(config: &GeneratorConfig) -> (Dataset, Vec<Provenance>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut dataset = Dataset::new(config.name.clone());
    dataset.pairs.reserve(config.size);
    let mut provenance = Vec::with_capacity(config.size);
    let weights: Vec<u32> = CATEGORIES.iter().map(|c| c.weight).collect();
    let total_weight: u32 = weights.iter().sum();

    for id in 0..config.size as u64 {
        let cat = pick_category(&mut rng, &weights, total_weight);
        let topic = topic_for(&mut rng, cat.def());
        let tier = pick_tier(&mut rng, config);
        let (instruction, response, defects, tier) = build_pair(&mut rng, cat, topic, tier);
        dataset
            .pairs
            .push(InstructionPair::new(id, instruction, response, cat));
        provenance.push(Provenance { id, tier, defects });
    }
    (dataset, provenance)
}

/// Configuration for [`zipfian_duplicates`]: a duplicate-heavy workload
/// generator for stressing the runtime's revision cache and sharding
/// (PR 7). `total` pairs are drawn over `distinct` base contents with
/// Zipfian popularity — content rank `k` is drawn with weight
/// `1 / (k+1)^exponent` — so a handful of head contents dominate the
/// traffic, as in deduplicated internet-scale instruction dumps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZipfianConfig {
    /// Dataset name.
    pub name: String,
    /// Number of distinct base contents.
    pub distinct: usize,
    /// Total pairs emitted (ids `0..total`).
    pub total: usize,
    /// Zipf exponent `s`; `0.0` is uniform, `~1.1` is web-like skew.
    pub exponent: f64,
    /// Compact mode uses cheap templated text (suitable for 10M+ pair
    /// stress runs); otherwise base contents come from the full
    /// ALPACA52K-like generator.
    pub compact: bool,
    /// RNG seed.
    pub seed: u64,
}

impl ZipfianConfig {
    /// A compact config sized for cache/shard stress runs.
    pub fn stress(distinct: usize, total: usize, exponent: f64, seed: u64) -> Self {
        Self {
            name: format!("zipf-{distinct}x{total}-s{exponent}"),
            distinct,
            total,
            exponent,
            compact: true,
            seed,
        }
    }
}

/// Generates a duplicate-heavy dataset: `total` pairs Zipf-drawn from
/// `distinct` base contents. Duplicates share instruction, response, and
/// category exactly (so content fingerprints collide as a cache expects);
/// ids are fresh and dense (`0..total`).
pub fn zipfian_duplicates(config: &ZipfianConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let distinct = config.distinct.max(1);
    let base: Vec<(String, String, Category)> = if config.compact {
        (0..distinct)
            .map(|k| {
                (
                    format!("Explain concept {k} in plain language."),
                    format!(
                        "Concept {k} combines idea {} with practice {}; start small and iterate.",
                        k % 13,
                        k % 7
                    ),
                    Category((k % CATEGORIES.len()) as u16),
                )
            })
            .collect()
    } else {
        let (d, _) = generate(&GeneratorConfig {
            size: distinct,
            seed: config.seed,
            name: config.name.clone(),
            ..GeneratorConfig::default()
        });
        d.pairs
            .into_iter()
            .map(|p| (p.instruction, p.response, p.category))
            .collect()
    };

    // Cumulative harmonic weights once, then binary-search per draw.
    let mut cumulative = Vec::with_capacity(distinct);
    let mut acc = 0.0f64;
    for k in 0..distinct {
        acc += 1.0 / ((k + 1) as f64).powf(config.exponent);
        cumulative.push(acc);
    }
    let total_weight = acc;

    let mut dataset = Dataset::new(config.name.clone());
    dataset.pairs.reserve(config.total);
    for id in 0..config.total as u64 {
        let u: f64 = rng.gen_range(0.0..total_weight);
        let k = cumulative.partition_point(|&c| c <= u).min(distinct - 1);
        let (instruction, response, cat) = &base[k];
        dataset.pairs.push(InstructionPair::new(
            id,
            instruction.clone(),
            response.clone(),
            *cat,
        ));
    }
    dataset
}

fn pick_category<R: Rng>(rng: &mut R, weights: &[u32], total: u32) -> Category {
    let mut pick = rng.gen_range(0..total);
    for (i, w) in weights.iter().enumerate() {
        if pick < *w {
            return Category(i as u16);
        }
        pick -= w;
    }
    Category((weights.len() - 1) as u16)
}

/// Picks a topic whose domain suits the category.
pub fn topic_for<R: Rng>(rng: &mut R, def: &CategoryDef) -> Topic {
    let domain = if def.code_related {
        Domain::Code
    } else if def.name.contains("arithmetic") || def.name.contains("unit conversion") {
        Domain::Math
    } else if def.class == TaskClass::Creative {
        Domain::Creative
    } else if def.name.contains("scientific") || def.name.contains("science") {
        Domain::Science
    } else {
        // General mix for everything else.
        match rng.gen_range(0..3) {
            0 => Domain::Science,
            1 => Domain::Society,
            _ => Domain::Daily,
        }
    };
    pick_topic_in(rng, domain)
}

fn pick_tier<R: Rng>(rng: &mut R, config: &GeneratorConfig) -> Tier {
    let roll: f64 = rng.gen();
    if roll < config.filter_fraction {
        return Tier::Filterable;
    }
    let rich_given_kept = (config.rich_fraction / (1.0 - config.filter_fraction)).min(1.0);
    let roll2: f64 = rng.gen();
    if roll2 < rich_given_kept {
        Tier::Rich
    } else if roll2 < rich_given_kept + config.deficient_fraction {
        Tier::Deficient
    } else {
        Tier::Adequate
    }
}

fn build_pair<R: Rng>(
    rng: &mut R,
    cat: Category,
    topic: Topic,
    mut tier: Tier,
) -> (String, String, Vec<Defect>, Tier) {
    // AlpaGasus's authors observed that code-related pairs in ALPACA52K
    // were disproportionately low-rated and hence heavily filtered
    // (§II-A(3)); we reproduce that skew at the source: code categories
    // yield rich pairs at roughly half the base rate.
    if cat.is_code() && tier == Tier::Rich && rng.gen_bool(0.55) {
        tier = Tier::Adequate;
    }
    let mut instruction = instruction_text(rng, cat.def(), topic);
    let quality = match tier {
        Tier::Rich => rng.gen_range(0.86..1.0),
        Tier::Adequate => rng.gen_range(0.45..0.69),
        Tier::Deficient | Tier::Filterable => rng.gen_range(0.35..0.6),
    };
    let mut response = compose_response(rng, topic, ComposeSpec::for_quality(quality));
    if tier == Tier::Rich {
        // Rich instructions carry explicit context/requirements.
        instruction = format!(
            "{} For example, include at least one concrete case and reason step by step.",
            instruction
        );
    }

    let mut defects = Vec::new();
    match tier {
        Tier::Filterable => {
            if let Some(d) = weighted(rng, &FILTER_MIX) {
                d.inject(rng, &mut instruction, &mut response);
                defects.push(d);
            }
        }
        Tier::Deficient => {
            if rng.gen_bool(POLISHED_DEFICIENT_SHARE) {
                // Polished-but-flawed: an otherwise rich pair with a minor
                // surface defect. Expert revisions of these are
                // near-identity — the low-edit-distance tail of `R` whose
                // inclusion at high α the paper identifies as noise
                // (§II-F2, Fig 5a).
                let polished_q = rng.gen_range(0.72..0.84);
                response = compose_response(rng, topic, ComposeSpec::for_quality(polished_q));
                if let Some(d) = weighted(rng, &MINOR_RESPONSE_DEFECTS) {
                    d.inject(rng, &mut instruction, &mut response);
                    defects.push(d);
                }
                if rng.gen_bool(INSTRUCTION_DEFECT_P) {
                    let di = if rng.gen_bool(0.6) {
                        Defect::InstructionTypos
                    } else {
                        Defect::InstructionLayout
                    };
                    di.inject(rng, &mut instruction, &mut response);
                    defects.push(di);
                }
            } else {
                if let Some(mut d) = weighted(rng, &RESPONSE_DEFECT_MIX) {
                    if d == Defect::BareResponse && rng.gen_bool(TRUNCATION_SHARE_OF_BARE) {
                        d = Defect::TruncatedResponse;
                    }
                    d.inject(rng, &mut instruction, &mut response);
                    defects.push(d);
                }
                if rng.gen_bool(INSTRUCTION_DEFECT_P) {
                    if let Some(di) = weighted(rng, &INSTRUCTION_DEFECT_MIX) {
                        di.inject(rng, &mut instruction, &mut response);
                        defects.push(di);
                    }
                }
            }
        }
        Tier::Rich | Tier::Adequate => {}
    }
    (instruction, response, defects, tier)
}

fn weighted<R: Rng>(rng: &mut R, mix: &[(Defect, f64)]) -> Option<Defect> {
    // Splitting off the last entry makes the float-rounding fallback (when
    // `pick` walks past every weight) panic-free. Exactly one RNG draw per
    // call on a non-empty mix — the golden snapshots depend on that.
    let (last, rest) = mix.split_last()?;
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen_range(0.0..total);
    for (d, w) in rest {
        if pick < *w {
            return Some(*d);
        }
        pick -= w;
    }
    Some(last.0)
}

/// Builds an instruction for the category about the topic. Passage-bearing
/// categories embed a short passage (raising average instruction length
/// toward Table VII's 17.7 words).
pub fn instruction_text<R: Rng>(rng: &mut R, def: &CategoryDef, topic: Topic) -> String {
    let t = topic.phrase;
    let passage = || {
        let bodies = crate::topics::body_templates(topic.domain);
        coachlm_text::normalize::capitalize_sentences(&bodies[0].replace("{}", t))
    };
    match def.name {
        "information extraction" => format!(
            "Extract the key facts about {t} from the passage below.\nPassage: {}",
            passage()
        ),
        "grammar correction" => format!(
            "Correct any grammar problems in this sentence about {t}: {}",
            passage()
        ),
        "summarization" => format!(
            "Summarize the following passage about {t} in one sentence.\nPassage: {} {}",
            passage(),
            coachlm_text::normalize::capitalize_sentences(
                &crate::topics::body_templates(topic.domain)[1].replace("{}", t)
            )
        ),
        "paraphrasing" => format!("Paraphrase this sentence about {t}: {}", passage()),
        "translation" => format!(
            "Translate this sentence about {t} into French: {}",
            passage()
        ),
        "text classification" => format!(
            "Classify the tone of this passage about {t} as formal or informal: {}",
            passage()
        ),
        "sentiment analysis" => format!(
            "Decide whether this statement about {t} is positive or negative: {}",
            passage()
        ),
        "keyword extraction" => {
            format!(
                "List the three most important keywords in this passage: {}",
                passage()
            )
        }
        "title generation" => {
            format!("Suggest a short title for an article about {t}.")
        }
        "data formatting" => {
            format!("Reformat the main facts about {t} as a bulleted list.")
        }
        "code explanation" => format!("Explain how {t} works to a junior developer."),
        "code generation" => {
            format!("Write a short function demonstrating {t}, with comments.")
        }
        "code debugging" => {
            format!("Find the likely bug in a program that misuses {t} and explain the fix.")
        }
        "arithmetic calculation" => {
            let a = rng.gen_range(12..95);
            let b = rng.gen_range(7..80);
            format!("Using {t}, calculate {a} plus {b} and show the steps.")
        }
        "unit conversion" => {
            let km = rng.gen_range(3..40);
            format!("Convert {km} kilometers to meters and explain the rule for {t}.")
        }
        "ordering and ranking" => {
            format!("Rank three everyday examples of {t} from simplest to most complex.")
        }
        "fact verification" => {
            format!(
                "Is the following claim about {t} accurate? Explain briefly: {}",
                passage()
            )
        }
        "table interpretation" => {
            format!("Given a small table of numbers about {t}, describe the main trend.")
        }
        "scientific inference" => {
            format!("What can be inferred about {t} from basic observations? Explain.")
        }
        "dialogue completion" => {
            format!("Complete this dialogue: 'Can you tell me about {t}?' - '...'")
        }
        "suggestion recommendation" => {
            format!("Recommend three practical ways to get started with {t}.")
        }
        "how-to guidance" => format!("Explain how to approach {t} for a complete beginner."),
        "comparison analysis" => {
            format!("Compare two common approaches to {t} and state which suits beginners.")
        }
        "opinion explanation" => {
            format!("Give a balanced opinion on the importance of {t} today.")
        }
        "brainstorming" => format!("Brainstorm five creative ideas involving {t}."),
        "story creation" => format!("Write a short story about {t}."),
        "copywriting" => format!("Write a catchy promotional paragraph about {t}."),
        "poem composition" => format!("Compose a short poem about {t}."),
        "role play" => format!("Pretend you are a tour guide introducing {t} to visitors."),
        "letter and email writing" => {
            format!("Draft a friendly email inviting a colleague to a talk about {t}.")
        }
        "slogan creation" => format!("Create a memorable slogan about {t}."),
        "joke and riddle writing" => format!("Write a light-hearted riddle about {t}."),
        "in-domain question answering" => {
            format!("What are the key principles behind {t}? Answer for a general reader.")
        }
        "open question answering" => format!("Why does {t} matter in everyday life?"),
        "concept definition" => format!("Define {t} in plain language."),
        _ => {
            // Generic per-class fallback.
            match def.class {
                TaskClass::LanguageTask => {
                    format!("Process the following request about {t}: {}", passage())
                }
                TaskClass::QA => format!("Answer this question about {t} clearly and helpfully."),
                TaskClass::Creative => format!("Write something imaginative about {t}."),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defect::DefectSide;

    fn small() -> (Dataset, Vec<Provenance>) {
        generate(&GeneratorConfig::small(4000, 7))
    }

    #[test]
    fn generates_requested_size_with_dense_ids() {
        let (d, p) = small();
        assert_eq!(d.len(), 4000);
        assert_eq!(p.len(), 4000);
        for (i, pair) in d.iter().enumerate() {
            assert_eq!(pair.id, i as u64);
        }
    }

    #[test]
    fn tier_fractions_match_config() {
        let (_, p) = small();
        let n = p.len() as f64;
        let frac = |t: Tier| p.iter().filter(|x| x.tier == t).count() as f64 / n;
        assert!(
            (frac(Tier::Filterable) - 0.181).abs() < 0.02,
            "{}",
            frac(Tier::Filterable)
        );
        assert!(
            (frac(Tier::Rich) - 0.177).abs() < 0.02,
            "{}",
            frac(Tier::Rich)
        );
        // Deficient is 46.8% of the kept share.
        let kept = 1.0 - frac(Tier::Filterable);
        assert!((frac(Tier::Deficient) / kept - 0.468).abs() < 0.03);
    }

    #[test]
    fn deficient_pairs_have_response_defects() {
        let (_, p) = small();
        for prov in p.iter().filter(|x| x.tier == Tier::Deficient) {
            assert!(!prov.defects.is_empty());
            assert!(prov
                .defects
                .iter()
                .any(|d| d.side() == DefectSide::Response));
        }
    }

    #[test]
    fn instruction_defect_share_matches_paper() {
        let (_, p) = small();
        let deficient: Vec<_> = p.iter().filter(|x| x.tier == Tier::Deficient).collect();
        let with_instr = deficient
            .iter()
            .filter(|x| {
                x.defects
                    .iter()
                    .any(|d| d.side() == DefectSide::Instruction)
            })
            .count() as f64;
        let share = with_instr / deficient.len() as f64;
        assert!((share - 0.469).abs() < 0.04, "share {share}");
    }

    #[test]
    fn filterable_mix_tracks_table3() {
        let (_, p) = small();
        let filt: Vec<_> = p.iter().filter(|x| x.tier == Tier::Filterable).collect();
        let share = |d: Defect| {
            filt.iter().filter(|x| x.defects.contains(&d)).count() as f64 / filt.len() as f64
        };
        assert!((share(Defect::InvalidInput) - 0.417).abs() < 0.05);
        assert!((share(Defect::BeyondExpertise) - 0.277).abs() < 0.05);
    }

    #[test]
    fn average_lengths_near_table7() {
        let (d, _) = generate(&GeneratorConfig::small(6000, 42));
        let instr: f64 =
            d.iter().map(|p| p.instruction_words() as f64).sum::<f64>() / d.len() as f64;
        let resp: f64 = d.iter().map(|p| p.response_words() as f64).sum::<f64>() / d.len() as f64;
        // Paper: 17.7 and 43.9 words. The shape target is "short instructions,
        // responses a few times longer"; allow generous bands.
        assert!((10.0..30.0).contains(&instr), "instruction avg {instr}");
        assert!((30.0..70.0).contains(&resp), "response avg {resp}");
    }

    #[test]
    fn deterministic_for_seed() {
        let (d1, _) = generate(&GeneratorConfig::small(200, 5));
        let (d2, _) = generate(&GeneratorConfig::small(200, 5));
        assert_eq!(d1, d2);
        let (d3, _) = generate(&GeneratorConfig::small(200, 6));
        assert_ne!(d1, d3);
    }

    #[test]
    fn rich_pairs_carry_context_markers() {
        let (d, p) = small();
        for prov in p.iter().filter(|x| x.tier == Tier::Rich).take(50) {
            let pair = d.get(prov.id).unwrap();
            let hits = coachlm_text::lexicon::LexiconHits::of(&pair.instruction);
            assert!(hits.has_marker(coachlm_text::lexicon::MarkerList::Context));
        }
    }

    #[test]
    fn zipfian_duplicates_skew_and_determinism() {
        let config = ZipfianConfig::stress(50, 5000, 1.1, 21);
        let d1 = zipfian_duplicates(&config);
        let d2 = zipfian_duplicates(&config);
        assert_eq!(d1, d2, "same config, same dataset");
        assert_eq!(d1.len(), 5000);
        for (i, pair) in d1.iter().enumerate() {
            assert_eq!(pair.id, i as u64, "ids are fresh and dense");
        }
        // Zipf skew: the single most popular content should dominate far
        // beyond the uniform share (5000/50 = 100).
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for p in d1.iter() {
            *counts.entry(p.instruction.as_str()).or_default() += 1;
        }
        assert!(counts.len() <= 50);
        let top = counts.values().copied().max().unwrap();
        assert!(top > 400, "head content drew {top} of 5000");
        // A flat exponent spreads draws out instead.
        let flat = zipfian_duplicates(&ZipfianConfig::stress(50, 5000, 0.0, 21));
        let mut flat_counts: std::collections::HashMap<&str, usize> = Default::default();
        for p in flat.iter() {
            *flat_counts.entry(p.instruction.as_str()).or_default() += 1;
        }
        let flat_top = flat_counts.values().copied().max().unwrap();
        assert!(flat_top < 200, "uniform head drew {flat_top} of 5000");
    }

    #[test]
    fn zipfian_full_mode_reuses_generator_contents() {
        let config = ZipfianConfig {
            compact: false,
            ..ZipfianConfig::stress(30, 300, 1.0, 12)
        };
        let d = zipfian_duplicates(&config);
        assert_eq!(d.len(), 300);
        let (base, _) = generate(&GeneratorConfig {
            size: 30,
            seed: 12,
            name: config.name.clone(),
            ..GeneratorConfig::default()
        });
        let originals: std::collections::HashSet<&str> =
            base.iter().map(|p| p.instruction.as_str()).collect();
        assert!(d.iter().all(|p| originals.contains(p.instruction.as_str())));
    }

    #[test]
    fn every_category_appears_in_52k_scale_sample() {
        let (d, _) = generate(&GeneratorConfig::small(8000, 11));
        for cat in Category::all() {
            assert!(
                d.iter().any(|p| p.category == cat),
                "category {} missing",
                cat.name()
            );
        }
    }
}
