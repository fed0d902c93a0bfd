//! # coachlm-judge
//!
//! The evaluation substrate: the paper's nine-dimension quality criteria
//! (Table II) as an executable engine, plus all four evaluation approaches
//! of Table V.
//!
//! * [`criteria`] — the Table II rubric. Analyses an `(INSTRUCTION,
//!   RESPONSE)` pair *from its text alone* (defect markers, lexical overlap,
//!   reasoning/warmth markers, fact-table contradictions) and produces
//!   0–100 scores with the paper's level structure: red-line violations cap
//!   a response at 40, basic-level flaws cap it at 80, advanced dimensions
//!   occupy the top 20 points.
//! * [`chatgpt`] — the AlpaGasus-style 0–5 accuracy rater used for Fig 4.
//! * [`pandalm`] — the PandaLM pairwise judge with the swap-order
//!   debiasing protocol of §III-A1 (conflict → tie; win+tie → win).
//! * [`gpt4`] — the GPT-4-style paired 0–10 scorer (stronger position
//!   bias, which the same swap protocol cancels).
//! * [`human`] — the three-reviewer panel (R1–R3 of group C) with
//!   per-reviewer leniency offsets.
//! * [`tournament`] — round-robin pairwise judging of whole strategy
//!   outputs with canonical-order debiasing: the verdict matrix is
//!   position-swap- and relabeling-invariant by construction.
//! * [`winrate`] — WR1 / WR2 / QS arithmetic (§III-C1a).
//! * [`stats`] — histograms, means, and the least-squares linear fit (with
//!   R²) used in Fig 5(b).

#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod chatgpt;
pub mod criteria;
pub mod gpt4;
pub mod human;
pub mod pandalm;
pub mod stats;
pub mod tournament;
pub mod winrate;

/// The text kernels' reference-test inputs, shared with `coachlm-text`.
#[cfg(test)]
#[path = "../../text/src/testtext.rs"]
mod testtext;

pub use chatgpt::ChatGptRater;
pub use criteria::{CriteriaEngine, InstructionAnalysis, PairScores, ResponseAnalysis};
pub use gpt4::Gpt4Judge;
pub use human::{HumanPanel, Reviewer};
pub use pandalm::{PandaLm, Verdict};
pub use tournament::{run_tournament, Contestant, TournamentResult};
pub use winrate::{VerdictCounts, WinRates};
