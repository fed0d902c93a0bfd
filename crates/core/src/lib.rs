//! # coachlm-core
//!
//! The paper's primary contribution: CoachLM — a coach language model that
//! learns the expert revision process and automatically revises every pair
//! of an instruction dataset (§II-F), plus the downstream machinery the
//! evaluation needs.
//!
//! * [`alpha`] — the human-input-ratio α selection over word-level edit
//!   distance (§II-F2): `C_α` keeps the top-α fraction of expert revision
//!   pairs by revision magnitude.
//! * [`coach`] — coach instruction tuning (§II-F1, Eq. 1): adapts a frozen
//!   backbone with a rule-learning adapter trained on `C_α`, and exposes
//!   the Fig 3 prompt format.
//! * [`infer`] — automatic revision of a dataset (§II-F3, Eq. 2) with the
//!   §III-B1 post-processing: output cleaning, invalid-output replacement,
//!   and training-data leakage exclusion.
//! * [`student`] — the instruction-tuning simulator: "fine-tunes" a
//!   student LLM on a dataset by deriving per-category instruction-following
//!   skill from measured data quality and coverage, then generates
//!   responses whose textual quality tracks that skill.
//! * [`baselines`] — dataset builders and model profiles for every row of
//!   Table IX (Alpaca, Alpaca-cleaned, AlpaGasus, Alpaca-PandaLM,
//!   Alpaca-human, Vicuna, the stronger group).
//! * [`evaluate`] — runs a model over a test set under a judge, producing
//!   WR1/WR2/QS.
//! * [`strategies`] — the strategy zoo: alternative revision pipelines
//!   (Reflection-Tuning critique-then-regenerate, Self-Review
//!   revise-until-pass loops, auto-evol complexity evolution, filtering
//!   and no-op baselines) behind one [`Strategy`] interface, for
//!   head-to-head tournaments under the debiased judge.
//! * [`pipeline`] — the §IV-A Huawei data management pipeline with and
//!   without the CoachLM precursor stage, and its efficiency accounting.

#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod alpha;
pub mod baselines;
pub mod coach;
pub mod evaluate;
pub mod infer;
pub mod pipeline;
pub mod strategies;
pub mod student;

pub use alpha::select_alpha;
pub use coach::{CoachConfig, CoachLm};
pub use infer::{revise_dataset, RevisedDataset};
pub use strategies::{Strategy, StrategyZoo};
pub use student::{tune_student, StudentModel};
