//! `xlac-benchmark`: end-to-end and per-layer measurement of the xlac
//! workspace on five workloads (see `README.md`).
//!
//! ```text
//! xlac-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one workload in this process; the last stdout line is the result
//! xlac-benchmark run   [--workload W]... [--seed N] [--seconds S] [--quick] [--out DIR]
//! xlac-benchmark trace [--workload W]... [--seed N] [--seconds S] [--quick] [--out DIR]
//!     every (or each named) workload in its own child process, as a table
//! xlac-benchmark compare DIR_A DIR_B
//!     medians, quartiles and verdicts of two sets of `--out` results
//! xlac-benchmark pins
//!     the pinned sweep statistics, as rows for `src/pins.rs`
//! ```

mod certify;
mod compare;
mod json;
mod loadgen;
mod pins;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "sweep_w8_uniform",
    "sweep_w16_skewed",
    "certify_library",
    "serve_mul",
    "serve_mixed",
];

/// Seed of `run` and `trace` when none is given.
pub const DEFAULT_SEED: u64 = 2016;
/// A seed never used while tuning anything: confirm claims on it.
pub const HELDOUT_SEED: u64 = 90_001;

/// Measured seconds per workload run (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 18.0;

/// Set-up calls timed per run; `setup_s` is their median.
const SETUP_CALLS: usize = 11;

/// How much a workload may measure.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall time the timed repetitions may take.
    pub seconds: f64,
    /// Reduced sizes for the smoke test.
    pub quick: bool,
}

impl Budget {
    /// Whether to start another repetition, given those done so far: the
    /// first `min_reps` always run (one in quick mode), after that only one
    /// that fits the budget at the median repetition time so far.
    #[must_use]
    pub fn more(&self, min_reps: usize, done: usize, elapsed: Duration, walls: &[f64]) -> bool {
        if done < if self.quick { 1 } else { min_reps } {
            return true;
        }
        let typical = stats::median(walls).unwrap_or(0.0);
        elapsed.as_secs_f64() + typical <= self.seconds
    }

    /// Times [`SETUP_CALLS`] back-to-back calls of the program's set-up
    /// (one in quick mode), before anything else is measured, dropping each
    /// result before the next call. Returns the last result and the median
    /// call time in seconds: one call is too short to read steadily.
    pub fn time_setup<T>(&self, mut setup: impl FnMut() -> T) -> (T, f64) {
        let mut last = None;
        let mut times = Vec::new();
        for _ in 0..if self.quick { 1 } else { SETUP_CALLS } {
            drop(last.take());
            let t0 = std::time::Instant::now();
            last = Some(setup());
            times.push(t0.elapsed().as_secs_f64());
        }
        (
            last.expect("at least one call"),
            stats::median(&times).expect("at least one call"),
        )
    }
}

/// Scratch space inside the benchmark's own directory (git-ignored).
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn find_workload(name: &str) -> Option<&'static str> {
    WORKLOADS.into_iter().find(|&w| w == name)
}

/// Runs one workload in this process.
fn run_workload(w: &str, seed: u64, budget: &Budget, traced: bool) -> Outcome {
    if !traced {
        return match w {
            "sweep_w8_uniform" | "sweep_w16_skewed" => sweep::run(w, seed, budget),
            "certify_library" => certify::run(budget),
            _ => serve::run(w, seed, budget),
        };
    }
    let mut tracer = Tracer::default();
    let out = match w {
        "sweep_w8_uniform" | "sweep_w16_skewed" => sweep::trace(w, seed, budget, &mut tracer),
        "certify_library" => certify::trace(&mut tracer),
        _ => serve::trace(w, seed, budget, &mut tracer),
    };
    let path = work_dir().join("spans").join(format!("{w}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "{w}: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("{w}: could not write spans to {}: {e}", path.display()),
    }
    out
}

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                if find_workload(name).is_none() {
                    return Err(format!("unknown workload {name}"));
                }
                args.workloads.push(name.clone());
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() && args.positional.is_empty() => {
                args.command = Some(word.to_string());
            }
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

/// The single-workload form: one workload here, its result as the last
/// stdout line, preceded by its workload-specific metrics if it has any.
fn single(args: &Args) -> ExitCode {
    let ([name], Some(traced)) = (args.workloads.as_slice(), args.trace) else {
        eprintln!("usage: --workload NAME --seed N --seconds S --trace 0|1 (see README.md)");
        return ExitCode::from(2);
    };
    let w = find_workload(name).expect("names are checked while parsing");
    let budget = Budget {
        seconds: args.seconds.unwrap_or(RUN_SECONDS),
        quick: args.quick,
    };
    let out = run_workload(w, args.seed.unwrap_or(DEFAULT_SEED), &budget, traced);
    for p in &out.problems {
        eprintln!("{w}: FAILED {p}");
    }
    if let Some(extra) = out.workload_specific_json().filter(|_| !traced) {
        println!("{extra}");
    }
    println!(
        "{}",
        out.to_json(if traced { &PER_LAYER } else { &END_TO_END })
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metric-name prefixes of the layers a workload runs, for tables.
fn layers_of(workload: &str) -> &'static [&'static str] {
    match workload {
        "sweep_w8_uniform" | "sweep_w16_skewed" => {
            &["core.", "sim.", "multipliers.", "adders.", "trace."]
        }
        "certify_library" => &["analysis.", "explore.", "certify.", "trace."],
        _ => &["server.", "loadgen.", "serve.", "trace."],
    }
}

/// `run` and `trace`: each workload in a child process, so peak RSS is the
/// workload's own, then one table.
fn orchestrate(args: &Args, traced: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<&str> = if args.workloads.is_empty() {
        WORKLOADS.to_vec()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let mut ok = true;
    for w in selected {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
        cmd.args(["--trace", if traced { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev().map(Json::parse);
        let Some(Ok(mut parsed)) = lines.next() else {
            eprintln!("{w}: no result line (exit {})", output.status);
            ok = false;
            continue;
        };
        if let Some(Ok(extra)) = lines.next() {
            merge_metrics(&mut parsed, &extra);
        }
        let correct = parsed.get("correct") == Some(&Json::Bool(true));
        ok &= correct;
        let count = |k: &str| parsed.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{w} (seed {seed}): correct={correct} attempted={} failed={} failed_frac={:.6}",
            count("attempted"),
            count("failed"),
            count("failed") / count("attempted").max(1.0)
        );
        let prefixes = layers_of(w);
        for (name, m) in parsed
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            if traced && !prefixes.iter().any(|p| name.starts_with(p)) {
                continue;
            }
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        if let Some(dir) = &args.out {
            if let Err(e) = append_result(dir, w, &parsed.to_string()) {
                eprintln!("{w}: cannot record the result: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Adds the `metrics` members of `extra` to those of `result`.
fn merge_metrics(result: &mut Json, extra: &Json) {
    let (Json::Obj(fields), Some(more)) = (result, extra.get("metrics").and_then(Json::as_object))
    else {
        return;
    };
    if let Some((_, Json::Obj(metrics))) = fields.iter_mut().find(|(k, _)| k == "metrics") {
        metrics.extend_from_slice(more);
    }
}

fn append_result(dir: &Path, workload: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(format!("{workload}.jsonl")))?;
    writeln!(f, "{line}")
}

/// `pins`: recomputes the pinned statistics of every sweep unit.
fn print_pins() -> ExitCode {
    for w in &WORKLOADS[..2] {
        for (unit, seed, trials, s) in sweep::pin_rows(w, [DEFAULT_SEED, HELDOUT_SEED]) {
            println!("{}", pins::format_row(&unit, seed, trials, &s));
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xlac-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_deref() {
        None => single(&args),
        Some("run") => orchestrate(&args, false),
        Some("trace") => orchestrate(&args, true),
        Some("compare") => match args.positional.as_slice() {
            [a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("usage: compare DIR_A DIR_B");
                ExitCode::from(2)
            }
        },
        Some("pins") => print_pins(),
        Some(other) => {
            eprintln!("xlac-benchmark: unknown command {other}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_single_workload_form() {
        let raw: Vec<String> = "--workload serve_mul --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&raw).expect("valid");
        assert_eq!(
            (a.command, a.workloads, a.seed, a.trace),
            (None, vec!["serve_mul".into()], Some(7), Some(true))
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed x",
            "--bogus",
        ] {
            let raw: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&raw).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn workloads_and_run_seconds_match_the_benchmark_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("spec")).expect("parses");
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn workload_specific_metrics_merge_into_the_recorded_result() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("latency_p50_ms", 0.09);
        assert!(o.workload_specific_json().is_none());
        o.set("serve_p99_us", 210.5);
        let mut result = o.to_json(&END_TO_END);
        let metric = |r: &Json, name: &str| {
            r.get("metrics")?
                .get(name)?
                .get("value")
                .and_then(Json::as_f64)
        };
        assert_eq!(
            metric(&result, "serve_p99_us"),
            None,
            "not in the result line"
        );
        merge_metrics(
            &mut result,
            &o.workload_specific_json().expect("one metric"),
        );
        assert_eq!(metric(&result, "serve_p99_us"), Some(210.5));
        assert_eq!(metric(&result, "latency_p50_ms"), Some(0.09));
    }

    /// Every workload end to end at reduced size: correct, and every
    /// end-to-end metric present and positive.
    #[test]
    fn quick_smoke_of_every_workload() {
        let t0 = std::time::Instant::now();
        for w in WORKLOADS {
            let out = run_workload(
                w,
                DEFAULT_SEED,
                &Budget {
                    seconds: 0.5,
                    quick: true,
                },
                false,
            );
            assert!(out.correct(), "{w}: {:?}", out.problems);
            for (name, _) in END_TO_END {
                let v = out.get(name).unwrap_or(0.0);
                assert!(v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
            }
        }
        eprintln!("quick smoke took {:.1} s", t0.elapsed().as_secs_f64());
    }
}
