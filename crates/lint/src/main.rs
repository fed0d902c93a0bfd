//! `coachlm-lint` CLI — token rules + the `coachlm-analyze` passes.
//!
//! ```text
//! coachlm-lint [--root DIR] [--format human|json] [--out FILE] [--list-rules]
//! ```
//!
//! Exit codes:
//! * `0` — clean: no findings, tree fully parsed and read.
//! * `1` — findings (violations) only.
//! * `2` — usage error.
//! * `3` — parse or IO errors: the analysis could not see the whole
//!   tree, so "no findings" would be vacuous. Distinguished from `1` so
//!   CI and tooling can tell "the tree is dirty" from "the analyzer is
//!   blind".
#![deny(unused_must_use)]

use coachlm_lint::diag;
use coachlm_lint::rules::RULES;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    json: bool,
    out: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        json: false,
        out: None,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--format" => match args.next().as_deref() {
                Some("human") => opts.json = false,
                Some("json") => opts.json = true,
                other => return Err(format!("--format must be human|json, got {other:?}")),
            },
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().ok_or("--out needs a file")?));
            }
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                return Err(
                    "usage: coachlm-lint [--root DIR] [--format human|json] [--out FILE] \
                     [--list-rules]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("coachlm-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for (id, desc) in RULES {
            println!("{id}  {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let run = coachlm_lint::run_lint(&opts.root);
    for e in &run.io_errors {
        eprintln!("coachlm-lint: io: {e}");
    }
    for e in &run.parse_errors {
        eprintln!("coachlm-lint: parse: {e}");
    }

    let rendered = if opts.json {
        diag::render_json(&run.findings, run.files_checked)
    } else {
        diag::render_human(&run.findings, run.files_checked)
    };

    if let Some(out_path) = &opts.out {
        if let Some(parent) = out_path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("coachlm-lint: cannot create {}: {e}", parent.display());
                    return ExitCode::from(3);
                }
            }
        }
        if let Err(e) = std::fs::write(out_path, &rendered) {
            eprintln!("coachlm-lint: cannot write {}: {e}", out_path.display());
            return ExitCode::from(3);
        }
        // Keep the terminal summary even when writing to a file.
        if run.findings.is_empty() {
            println!(
                "coachlm-lint: clean — {} files, 0 violations ({})",
                run.files_checked,
                out_path.display()
            );
        } else {
            println!(
                "coachlm-lint: {} violation(s) in {} files ({})",
                run.findings.len(),
                run.files_checked,
                out_path.display()
            );
            print!("{}", diag::render_human(&run.findings, run.files_checked));
        }
    } else {
        print!("{rendered}");
    }

    if !run.io_errors.is_empty() || !run.parse_errors.is_empty() {
        ExitCode::from(3)
    } else if run.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
