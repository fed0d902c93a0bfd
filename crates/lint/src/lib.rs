//! `coachlm-lint` — workspace-wide determinism static analysis.
//!
//! The executor's bit-for-bit replication contract rests on invariants the
//! compiler cannot see: RNG flows only from per-`(stage, item)` seeds, no
//! wall-clock reads in stage bodies, no default-hasher iteration order
//! leaking into outputs, no panics in production chains. This crate
//! promotes those invariants from "tested" to "statically enforced on
//! every commit", in two layers:
//!
//! * **Token-level rules** (`D1`/`D2`/`D3`/`P1`/`C1`, see
//!   [`rules::RULES`]): a dependency-free lexer (own lexer, no `syn`)
//!   walks every workspace source file and reports span-accurate
//!   diagnostics for line-local violations.
//! * **`coachlm-analyze`** — parsing, interprocedural analyses on top of
//!   the same lexer: a recursive-descent parser ([`parse`]) recovers
//!   per-file item trees (fns, impls, calls, fields), a workspace call
//!   graph carries **nondeterminism taint** from sources to the
//!   replication-critical sinks (`T1`, [`graph`]), and the
//!   **fingerprint-coverage check** (`F1`, [`coverage`]) proves every
//!   field of a fingerprinted policy struct is folded into its journal
//!   fingerprint.
//!
//! Suppression is only possible via an inline
//! `// lint: allow(<rule>, reason = "...")` comment — the reason is
//! mandatory, malformed or unused directives are themselves violations.
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod allow;
pub mod coverage;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scope;
pub mod walk;

use rules::Finding;
use std::path::Path;
use walk::FileClass;

/// Everything one file contributes: its own findings (token rules +
/// directive hygiene) and the parsed summary the workspace analyses use.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// File-local findings, sorted by (line, col, rule).
    pub findings: Vec<Finding>,
    /// Parsed item summary (fns, calls, sources, types, fields).
    pub summary: parse::FileSummary,
}

/// Result of a full lint + analysis run.
#[derive(Debug)]
#[must_use]
pub struct LintRun {
    /// All surviving findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of source files checked.
    pub files_checked: usize,
    /// IO errors encountered while walking (nonfatal, but reported and
    /// distinguished from findings in the CLI exit code).
    pub io_errors: Vec<String>,
    /// Files whose structure the parser could not recover (unbalanced
    /// braces); their interprocedural coverage is incomplete.
    pub parse_errors: Vec<String>,
}

impl LintRun {
    /// `true` when the tree is clean and fully analyzed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.io_errors.is_empty() && self.parse_errors.is_empty()
    }
}

/// Lints one source string under a file classification — token-level
/// rules only, exactly the historical `coachlm-lint` behaviour. Public so
/// fixture tests can drive single rules without touching the filesystem.
/// The interprocedural analyses need the whole workspace; drive them with
/// [`analyze_sources`].
pub fn lint_source(class: &FileClass, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mut allows = collect_allows(&lexed);
    rules::check_file(class, &lexed, &mut allows)
}

/// Runs the full per-file pass — token rules, parser summary, directive
/// hygiene — on one source string.
pub fn analyze_source(class: &FileClass, src: &str) -> FileAnalysis {
    let lexed = lexer::lex(src);
    let mut allows = collect_allows(&lexed);
    let mut findings = rules::check_file_rules(class, &lexed, &mut allows);
    // The parser consumes allows too (T1 source seeds, F1 field
    // exclusions), so directive hygiene must come after it.
    let summary = parse::summarize(class, &lexed, &mut allows);
    findings.extend(rules::directive_findings(class, &allows));
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    FileAnalysis { findings, summary }
}

fn collect_allows(lexed: &lexer::Lexed) -> allow::Allows {
    // An own-line directive binds to the next line carrying code.
    let next_code_line = |line: u32| {
        lexed
            .toks
            .iter()
            .map(|t| t.line)
            .find(|l| *l > line)
            .unwrap_or(line)
    };
    allow::collect(&lexed.comments, next_code_line)
}

/// Runs the complete analysis — per-file rules plus the workspace-wide
/// taint and fingerprint-coverage passes — over in-memory sources.
/// Findings are deduplicated by span and sorted. This is the test-harness
/// entry point; [`run_lint`] is the filesystem one.
pub fn analyze_sources(inputs: &[(FileClass, String)]) -> Vec<Finding> {
    let analyses: Vec<FileAnalysis> = inputs
        .iter()
        .map(|(class, src)| analyze_source(class, src))
        .collect();
    let mut findings: Vec<Finding> = analyses.iter().flat_map(|a| a.findings.clone()).collect();
    let summaries: Vec<parse::FileSummary> = analyses.into_iter().map(|a| a.summary).collect();
    findings.extend(graph::taint_findings(&summaries));
    findings.extend(coverage::coverage_findings(&summaries));
    finish(findings)
}

/// Sorts by (file, line, col, rule, message) and deduplicates identical
/// findings — the same violation reached via several walk paths (e.g. two
/// call chains into one source) reports once. The message is part of the
/// identity: two taint findings of different source kinds anchored at the
/// same sink are distinct diagnostics, not duplicates.
fn finish(mut findings: Vec<Finding>) -> Vec<Finding> {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings.dedup_by(|a, b| {
        a.rule == b.rule
            && a.file == b.file
            && a.line == b.line
            && a.col == b.col
            && a.message == b.message
    });
    findings
}

/// Lints + analyzes every workspace source file under `root`.
pub fn run_lint(root: &Path) -> LintRun {
    let mut io_errors = Vec::new();
    let files = walk::source_files(root, &mut io_errors);
    let mut findings = Vec::new();
    let mut summaries = Vec::new();
    let mut parse_errors = Vec::new();
    let mut files_checked = 0usize;
    for rel in &files {
        let class = FileClass::classify(rel);
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => {
                files_checked += 1;
                let analysis = analyze_source(&class, &src);
                findings.extend(analysis.findings);
                parse_errors.extend(analysis.summary.parse_errors.iter().cloned());
                summaries.push(analysis.summary);
            }
            Err(e) => io_errors.push(format!("cannot read {rel}: {e}")),
        }
    }
    findings.extend(graph::taint_findings(&summaries));
    findings.extend(coverage::coverage_findings(&summaries));
    LintRun {
        findings: finish(findings),
        files_checked,
        io_errors,
        parse_errors,
    }
}
