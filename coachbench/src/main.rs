//! coachbench: wall-clock benchmark of the real Clean → CoachRevise →
//! ExpertAnnotate pipeline (`coachlm_core::pipeline`).
//!
//! ```text
//! coachbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! coachbench compare <base> <new>
//! ```
//!
//! A run sets up seven times (input generation from the seed plus coach
//! training), then either times the workload for `--seconds` with
//! tracing off and prints the end-to-end metrics, or (`--trace 1`) runs
//! the layer suite once and prints the per-layer metrics. End-to-end
//! times are scaled to nominal host speed (see `calibrate`). Either way it
//! checks output fingerprints, writes its results under `--out`, and ends
//! its standard output with one JSON line. A fingerprint mismatch or a
//! failed pair makes it exit with 1; an error exits with 2.
//!
//! See README.md for the workloads, metrics and how to compare runs.

mod calibrate;
mod compare;
mod layers;
mod stats;
mod trace;
mod workload;

use calibrate::Reference;
use coachlm_core::pipeline::batch_job_factory;
use coachlm_runtime::simtime::Stopwatch;
use coachlm_runtime::worker_boot;
use serde_json::{json, Value};
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;
use workload::{fresh_dir, remove_dir, Bench, Fingerprint, Sizes, Workload, DEFAULT_SEED};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Timed rounds even when one round outlasts `--seconds`.
const MIN_ROUNDS: usize = 3;

fn main() -> ExitCode {
    // Supervised runs re-invoke this binary as their worker processes.
    worker_boot(batch_job_factory);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => Options::parse(&args).and_then(|o| run(&o)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("coachbench: {e}");
        ExitCode::from(2)
    })
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut o = Options {
            workload: Workload::Fig6Batch,
            seed: DEFAULT_SEED,
            seconds: 20,
            trace: false,
            out: PathBuf::from("target/coachbench"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
                }
                "--seed" => o.seed = number()?,
                "--seconds" => o.seconds = number()?,
                "--trace" => o.trace = number()? != 0,
                "--out" => o.out = PathBuf::from(value),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        o.workload = workload.ok_or(format!("--workload is required: {}", names.join(", ")))?;
        Ok(o)
    }
}

fn run(o: &Options) -> Result<ExitCode, String> {
    let work_dir = fresh_dir(&o.out.join(format!("tmp-{}", std::process::id())))?;
    let result = run_in(o, &work_dir);
    remove_dir(&work_dir)?;
    result
}

fn run_in(o: &Options, work_dir: &Path) -> Result<ExitCode, String> {
    let w = o.workload.name();
    // Built before any pipeline code runs; see `calibrate`.
    let mut reference = calibrate::Reference::new();
    // Set-up times, scaled to nominal host speed.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    let mut before = reference.time();
    for _ in 0..SETUPS {
        // The previous set-up is dropped first, so each one starts alike.
        drop(bench.take());
        let (b, times) = Bench::setup(o.workload, o.seed, Sizes::STANDARD, work_dir);
        let after = reference.time();
        setups.push(times.scaled(calibrate::scale(&before, &after)));
        before = after;
        bench = Some(b);
    }
    let bench = bench.ok_or("no set-up ran")?;
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|t| (t.generate + t.train).as_secs_f64())
        .collect();

    let mut out = if o.trace {
        let mut tracer = Tracer::new(true);
        let layers = layers::run(&bench, &setups, &mut reference, &mut tracer)?;
        print_self_times(w, &tracer);
        let spans = json!({"workload": w, "seed": o.seed, "spans": tracer.to_json()});
        write(&o.out.join(format!("trace-{w}-{}.json", o.seed)), &spans)?;
        Outcome {
            metrics: layers
                .metrics
                .iter()
                .map(|m| Reported::single(m.name, m.unit, m.value))
                .collect(),
            checks: layers.checks,
            attempted: layers.attempted,
            failed: layers.failed,
            print: layers.print,
            file: format!("layers-{w}-{}.json", o.seed),
            samples: Value::Null,
        }
    } else {
        let m = measure(&bench, &mut reference, Duration::from_secs(o.seconds))?;
        let mut checks = m.checks;
        checks.extend(bench.reference_checks(m.print)?);
        print_raw("threads=2", &m.sides[0]);
        print_raw("threads=1", &m.sides[1]);
        Outcome {
            metrics: vec![
                Reported::of("setup_s", "s", &setup_s)?,
                m.sides[0].pairs_per_s("pairs_per_s")?,
                m.sides[1].pairs_per_s("pairs_per_s_1t")?,
                Reported::single("peak_rss_mb", "MiB", m.peak_rss_mb),
            ],
            checks,
            attempted: m.attempted,
            failed: m.failed,
            print: m.print,
            file: format!("results-{w}-{}.json", o.seed),
            // Every call's raw wall and host-speed factor, in call order
            // (pass by pass, batch by batch).
            samples: json!({
                "call_ms_2t": m.sides[0].call_ms, "scale_2t": m.sides[0].scale,
                "call_ms_1t": m.sides[1].call_ms, "scale_1t": m.sides[1].scale,
            }),
        }
    };

    if o.seed == DEFAULT_SEED {
        out.checks.push((
            format!("output == pinned fingerprint {:#018x}", o.workload.pinned()),
            out.print == o.workload.pinned(),
        ));
    }
    out.checks.push((
        format!("{} of {} pairs failed", out.failed, out.attempted),
        out.failed == 0,
    ));
    out.checks.push((
        format!(
            "another thread of this process was running at the end of {} of {} host-speed reference runs",
            reference.contended, reference.timings
        ),
        reference.contended == 0,
    ));
    let correct = out.checks.iter().all(|(_, ok)| *ok);
    print_table(w, &out.metrics);
    println!("fingerprint {:#018x}", out.print);
    for (what, ok) in &out.checks {
        println!("check {:<9} {what}", if *ok { "ok" } else { "MISMATCH" });
    }
    let metrics = |f: fn(&Reported) -> Value| {
        Value::Object(
            out.metrics
                .iter()
                .map(|m| (m.name.to_string(), f(m)))
                .collect(),
        )
    };
    let results = json!({
        "workload": w,
        "seed": o.seed,
        "seconds": o.seconds,
        "trace": o.trace,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "fingerprint": format!("{:#018x}", out.print),
        "checks": Value::Array(out.checks.iter().map(|(c, ok)| json!({"check": c, "ok": *ok})).collect()),
        "metrics": metrics(Reported::detail),
        "samples": out.samples,
    });
    write(&o.out.join(&out.file), &results)?;
    let line = json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics(Reported::brief),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// What a run measured and verified, in either mode.
struct Outcome {
    metrics: Vec<Reported>,
    checks: Vec<(String, bool)>,
    attempted: usize,
    failed: usize,
    /// Output fingerprint of one pass over the pool at threads=2.
    print: u64,
    /// Results file name under `--out`.
    file: String,
    samples: Value,
}

/// One reported metric and the in-run samples behind it.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Option<Summary>,
}

impl Reported {
    /// The median of `samples`.
    fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Result<Reported, String> {
        let summary = Summary::of(samples).ok_or(format!("{name}: no samples"))?;
        Ok(Reported {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
        })
    }

    fn single(name: &'static str, unit: &'static str, value: f64) -> Reported {
        Reported {
            name,
            unit,
            value,
            summary: None,
        }
    }

    fn brief(&self) -> Value {
        json!({"value": self.value, "unit": self.unit})
    }

    fn detail(&self) -> Value {
        match self.summary {
            Some(s) => json!({
                "value": self.value, "unit": self.unit,
                "median": s.median, "q1": s.q1, "q3": s.q3, "n": s.n,
            }),
            None => self.brief(),
        }
    }
}

/// Every timed call at one thread count.
#[derive(Default)]
struct Side {
    /// Raw call wall in ms, in call order (pass by pass, batch by batch).
    call_ms: Vec<f64>,
    /// Host-speed factor of each call's pass ([`calibrate::scale`]).
    scale: Vec<f64>,
    /// Input pairs ÷ call wall at nominal host speed.
    rates: Vec<f64>,
}

impl Side {
    fn record(&mut self, pairs: usize, wall: Duration, scale: f64) {
        self.call_ms.push(wall.as_secs_f64() * 1e3);
        self.scale.push(scale);
        self.rates.push(pairs as f64 / (wall.as_secs_f64() * scale));
    }

    /// The median per-call rate at nominal host speed.
    fn pairs_per_s(&self, name: &'static str) -> Result<Reported, String> {
        Reported::of(name, "pairs/s", &self.rates)
    }
}

struct Measured {
    /// Threads 2 and 1.
    sides: [Side; 2],
    peak_rss_mb: f64,
    attempted: usize,
    failed: usize,
    /// Output fingerprint of one pass (they all agree when correct).
    print: u64,
    checks: Vec<(String, bool)>,
}

/// One pass at `threads`: every call of the workload once, in order.
struct Pass {
    call_walls: Vec<Duration>,
    call_pairs: Vec<usize>,
    pairs: usize,
    failed: usize,
    print: u64,
}

fn pass(bench: &Bench, threads: usize) -> Result<Pass, String> {
    let mut out = Pass {
        call_walls: Vec::with_capacity(bench.batches.len()),
        call_pairs: Vec::with_capacity(bench.batches.len()),
        pairs: 0,
        failed: 0,
        print: 0,
    };
    let mut print = Fingerprint::default();
    for k in 0..bench.batches.len() {
        let call = bench.call(threads, k)?;
        out.call_walls.push(call.wall);
        out.call_pairs.push(call.report.raw_pairs);
        out.pairs += call.report.raw_pairs;
        out.failed += call.report.quarantined + call.report.dropped + call.report.shed;
        print.add(&call.report);
    }
    out.print = print.value();
    Ok(out)
}

/// The timed phase: after one warm-up pass per thread count, rounds of
/// one pass at each thread count, alternating which goes first, until
/// `budget` has passed. Every pass must reproduce its warm-up's output.
///
/// Peak memory is taken over the threads=1 warm-up, which runs first:
/// the process then holds only the inputs, the coach and what set-up left,
/// and one thread allocates in a fixed order. Once threads=2 passes have
/// run, per-thread allocator arenas keep a timing-dependent amount of
/// freed memory, which moved the peak by 10 % from run to run.
fn measure(bench: &Bench, reference: &mut Reference, budget: Duration) -> Result<Measured, String> {
    const THREADS: [usize; 2] = [2, 1];
    reset_peak_rss();
    let warm_1t = pass(bench, THREADS[1])?;
    let peak_rss_mb = peak_rss_mb()?;
    let warm = [pass(bench, THREADS[0])?, warm_1t];
    let mut m = Measured {
        sides: [Side::default(), Side::default()],
        peak_rss_mb,
        attempted: 0,
        failed: 0,
        print: warm[0].print,
        checks: Vec::new(),
    };
    let mut stable = [true; 2];
    let clock = Stopwatch::start();
    let mut round = 0;
    let mut before = reference.time();
    while round < MIN_ROUNDS || clock.elapsed() < budget {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let p = pass(bench, THREADS[side])?;
            let after = reference.time();
            let scale = calibrate::scale(&before, &after);
            before = after;
            for (wall, pairs) in p.call_walls.iter().zip(&p.call_pairs) {
                m.sides[side].record(*pairs, *wall, scale);
            }
            stable[side] &= p.print == warm[side].print;
            m.attempted += p.pairs;
            m.failed += p.failed;
        }
        round += 1;
    }
    for (side, threads) in THREADS.iter().enumerate() {
        m.checks.push((
            format!("every pass at threads={threads} reproduces the warm-up output"),
            stable[side],
        ));
    }
    m.checks.push((
        "threads=2 output == threads=1 output".to_string(),
        warm[0].print == warm[1].print,
    ));
    Ok(m)
}

/// Resets the peak-RSS watermark (VmHWM) to the current RSS.
fn reset_peak_rss() {
    // Kernels without clear_refs keep the watermark from process start;
    // that only makes the reported peak an upper bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's peak RSS since the last reset, in MiB. Worker
/// processes are not counted.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

fn write(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Each metric's reported value, then the median, quartiles and count of
/// the in-run samples behind it (set-ups, or per-call rates).
fn print_table(workload: &str, metrics: &[Reported]) {
    println!("\n{workload}");
    println!(
        "  {:<36} {:>14} {:>14} {:>14} {:>14} {:>5}  unit",
        "metric", "value", "median", "q1", "q3", "n"
    );
    for m in metrics {
        match m.summary {
            Some(s) => println!(
                "  {:<36} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>5}  {}",
                m.name, m.value, s.median, s.q1, s.q3, s.n, m.unit
            ),
            None => println!("  {:<36} {:>14.4} {:>52}  {}", m.name, m.value, "", m.unit),
        }
    }
}

/// The raw (unscaled) per-call figures next to the scaled metric.
fn print_raw(what: &str, side: &Side) {
    let (Some(ms), Some(scale)) = (Summary::of(&side.call_ms), Summary::of(&side.scale)) else {
        return;
    };
    let tail = stats::supported_tail(&side.call_ms)
        .map_or(String::new(), |(p, v)| format!(", p{p} {v:.3} ms"));
    println!(
        "raw call wall at {what}: median {:.3} ms{tail} over {} calls; host-speed factor median {:.3}",
        ms.median, ms.n, scale.median
    );
}

/// Self time per span name: duration minus what child spans cover.
fn print_self_times(workload: &str, tracer: &Tracer) {
    println!("\n{workload}: self time by span");
    println!(
        "  {:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, count, total, own) in tracer.self_times() {
        println!(
            "  {:<28} {:>8} {:>12.4} {:>12.4}",
            name,
            count,
            total.as_secs_f64(),
            own.as_secs_f64()
        );
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    /// The benchmark is a package of its own, so it carries a copy of the
    /// root workspace's release profile; it must stay a copy, or the
    /// benchmark stops measuring the code as `cargo build --release`
    /// compiles it.
    #[test]
    fn release_profile_matches_the_workspace() {
        let profile = |manifest: &str| -> Vec<String> {
            let text =
                std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(manifest))
                    .unwrap();
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let own = profile("Cargo.toml");
        assert!(
            !own.is_empty(),
            "no [profile.release] in the benchmark's manifest"
        );
        assert_eq!(own, profile("../Cargo.toml"));
    }
}
