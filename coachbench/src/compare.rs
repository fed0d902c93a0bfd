//! `coachbench compare <base> <new>`: one verdict per (workload, metric).
//!
//! Each side is a results file or a directory of them (one file per run,
//! as `run` writes them). A metric's values on a side are the runs'
//! reported values; the bounds and directions come from the
//! `end_to_end` list of `BENCHMARK.json` in the working directory.

use crate::stats::Summary;
use crate::workload::Workload;
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How `new` compares with `base` when a median may move by `bound` (a
/// share of the base median) before it counts. A base whose quartiles
/// lie further apart than the bound cannot resolve a change of that
/// size, so the verdict is `unresolved` — unless every new run beats
/// every base run.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some(b), Some(n)) = (Summary::of(base), Summary::of(new)) else {
        return Verdict::Unresolved;
    };
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let dominates = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
    if b.median == 0.0 || b.spread() > bound {
        return if dominates {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let change = (n.median - b.median) / b.median.abs();
    let worse_by = if lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(spec: &Value) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// (workload, metric, value) of every results file under `path`.
fn runs(path: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let files = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("results-") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut out = Vec::new();
    for file in files {
        let run = read_json(&file)?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{}: no workload", file.display()))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("{}: no metrics", file.display()))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.push((workload.to_string(), name.clone(), v));
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no results", path.display()));
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("usage: coachbench compare <base> <new>".to_string());
    };
    let bounds = bounds(&read_json(Path::new("BENCHMARK.json"))?)?;
    let base = runs(Path::new(base))?;
    let new = runs(Path::new(new))?;
    let values = |side: &[(String, String, f64)], w: &str, m: &str| -> Vec<f64> {
        side.iter()
            .filter(|(sw, sm, _)| sw == w && sm == m)
            .map(|r| r.2)
            .collect()
    };
    println!(
        "{:<16} {:<16} {:>12} {:>7} {:>3} {:>12} {:>7} {:>3} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "iqr%", "n", "new", "iqr%", "n", "change%", "bound%"
    );
    let mut worse = false;
    for w in Workload::ALL.map(Workload::name) {
        for b in &bounds {
            let (bv, nv) = (values(&base, w, &b.name), values(&new, w, &b.name));
            let (Some(bs), Some(ns)) = (Summary::of(&bv), Summary::of(&nv)) else {
                continue;
            };
            let v = verdict(&bv, &nv, b.lower_is_better, b.bound);
            worse |= v == Verdict::Worse;
            println!(
                "{:<16} {:<16} {:>12.4} {:>7.2} {:>3} {:>12.4} {:>7.2} {:>3} {:>+8.2} {:>6.1}  {}",
                w,
                b.name,
                bs.median,
                100.0 * bs.spread(),
                bs.n,
                ns.median,
                100.0 * ns.spread(),
                ns.n,
                100.0 * (ns.median - bs.median) / bs.median,
                100.0 * b.bound,
                v.label()
            );
        }
    }
    Ok(if worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn each_verdict() {
        // Higher is better, 10 % bound, base spread about 1.5 %.
        let shifted = |k: f64| BASE.map(|v| v * k);
        assert_eq!(
            verdict(&BASE, &shifted(1.0), false, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&BASE, &shifted(0.95), false, 0.1),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&BASE, &shifted(0.8), false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&BASE, &shifted(1.2), false, 0.1), Verdict::Better);
        // Lower is better flips the direction.
        assert_eq!(verdict(&BASE, &shifted(0.8), true, 0.1), Verdict::Better);
        assert_eq!(verdict(&BASE, &shifted(1.2), true, 0.1), Verdict::Worse);
    }

    #[test]
    fn a_wide_base_is_unresolved_unless_dominated() {
        let wide = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&wide, &[50.0, 55.0], false, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&wide, &[150.0, 160.0], false, 0.1), Verdict::Better);
        assert_eq!(verdict(&wide, &[50.0, 55.0], true, 0.1), Verdict::Better);
        assert_eq!(verdict(&[], &[1.0], true, 0.1), Verdict::Unresolved);
    }
}
