//! # coachlm-text
//!
//! Text-processing substrate for the CoachLM reproduction.
//!
//! The CoachLM pipeline (Liu et al., ICDE 2024) leans on a handful of
//! classical text algorithms: word- and character-level Levenshtein edit
//! distance (used for the human-input-ratio α selection, §II-F2, and the
//! dataset statistics of Table VII), token alignment between an original and
//! a revised instruction pair (used by our coach-tuning rule extraction),
//! n-gram extraction (used by the language-model substrate), and the
//! regular-expression-style post-processing the paper applies to raw CoachLM
//! outputs (§III-B1).
//!
//! This crate provides all of those as small, allocation-conscious modules:
//!
//! * [`token`] — word/sentence tokenisation.
//! * [`intern`] — a string interner so word-level algorithms run on `u32`s.
//! * [`editdist`] — Levenshtein distances: two-row DP over any items, and
//!   Myers' bit-parallel algorithm over interned words.
//! * [`diff`] — LCS-based edit scripts and word alignments.
//! * [`ngram`] — n-gram iteration and counting.
//! * [`normalize`] — whitespace/punctuation/case normalisation, and the
//!   span edit every repair of a lexicon hit makes.
//! * [`clean`] — the paper's post-processing: invalid-character stripping and
//!   repeated-string collapsing.
//! * [`lexicon`] — the shared defect lexicons, matched in one automaton walk.
//! * [`profile`] — [`profile::TextProfile`], what the Table II checks read of
//!   a text, measured in one pass.
//! * [`fxhash`] — a fast, non-cryptographic hasher for internal maps.

#![deny(unused_must_use)]
#![warn(missing_docs)]

mod automaton;
pub mod clean;
pub mod diff;
pub mod editdist;
pub mod fxhash;
pub mod intern;
pub mod lexicon;
pub mod ngram;
pub mod normalize;
pub mod profile;
pub mod token;

#[cfg(test)]
mod testtext;

pub use diff::{diff_tokens, EditOp, EditScript};
pub use editdist::{edit_distance, word_edit_distance};
pub use intern::Interner;
pub use token::{sentences, words, Token, TokenKind};
