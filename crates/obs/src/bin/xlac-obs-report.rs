//! `xlac-obs-report` — profiles and checks `xlac-obs` / `xlac-bench`
//! JSON lines.
//!
//! Two modes:
//!
//! * **Profile** (default): read one or more JSON-lines files (as written
//!   by [`xlac_obs::export_json_lines`] and the `BENCH_*.json` reports)
//!   and print a per-phase profile table. The phase of a metric is the
//!   first dotted segment of its name (`sim`, `explore`, `accel`,
//!   `analysis`); bench-result lines group under the part of their name
//!   before `/`.
//!
//! * **Check** (`--check SPEC`): check every rule of the spec (CI passes
//!   `scripts/gates.jsonl`, see [`xlac_obs::gate`]) against the reports
//!   it names, relative to the current directory; print one verdict per
//!   rule and exit non-zero when any rule fails.
//!
//! ```text
//! xlac-obs-report FILE...
//! xlac-obs-report --check SPEC
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use xlac_obs::gate;
use xlac_obs::json::{self, Object, Value};

/// The profile-table row of one metric line — the metric name without
/// its kind prefix, and the row text — or `None` for other lines.
fn row(obj: &Object) -> Option<(String, String)> {
    let name = json::name(obj)?;
    let get = |k: &str| obj.get(k).and_then(Value::as_num).unwrap_or(0.0);
    let (kind, metric) = name
        .split_once('/')
        .filter(|(kind, _)| matches!(*kind, "counter" | "gauge" | "hist" | "span"))
        .unwrap_or(("bench", name));
    let text = match kind {
        "counter" => format!("{:>14.0}", get("value")),
        "gauge" => match obj.get("value") {
            Some(Value::Num(v)) => format!("{v:>14.6}"),
            _ => format!("{:>14}", "null"),
        },
        "hist" => format!(
            "n={:<10.0} sum={:<12.0} min={:<8.0} max={:.0}",
            get("count"),
            get("sum"),
            get("min"),
            get("max")
        ),
        "span" => format!(
            "n={:<10.0} total={:<10} mean={:<10} max={}",
            get("samples"),
            fmt_ns(get("mean_ns") * get("samples")),
            fmt_ns(get("mean_ns")),
            fmt_ns(get("max_ns"))
        ),
        _ if obj.contains_key("samples") && obj.contains_key("min_ns") => {
            format!("median={:<10} min={}", fmt_ns(get("median_ns")), fmt_ns(get("min_ns")))
        }
        _ => return None,
    };
    Some((metric.to_string(), format!("{kind:<8} {metric:<44} {text}")))
}

/// The phase (profile-table group) of a metric name.
fn phase_of(name: &str) -> String {
    let head = name.split('/').next().unwrap_or(name);
    head.split('.').next().unwrap_or(head).to_string()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn profile(paths: &[String]) -> Result<(), String> {
    let mut rows: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut total = 0usize;
    for path in paths {
        let objs = json::read_objects(Path::new(path));
        for obj in objs.map_err(|e| format!("cannot read {path}: {e}"))? {
            let Some((metric, text)) = row(&obj) else { continue };
            total += 1;
            rows.entry(phase_of(&metric)).or_default().push(text);
        }
    }
    if total == 0 {
        return Err(format!("no metric lines found in {}", paths.join(", ")));
    }
    for (phase, lines) in &rows {
        println!("== {phase} ==");
        for line in lines {
            println!("  {line}");
        }
    }
    println!("xlac-obs-report: {total} metric(s) across {} phase(s)", rows.len());
    Ok(())
}

fn check(spec: &str) -> Result<bool, String> {
    let rules = gate::load_spec(Path::new(spec))?;
    let verdicts = gate::check(&rules, Path::new("."));
    for v in &verdicts {
        match &v.outcome {
            Ok(detail) => println!("ok   {:<32} {detail}", v.rule),
            Err(detail) => println!("FAIL {:<32} {detail}", v.rule),
        }
    }
    let failed = verdicts.iter().filter(|v| v.outcome.is_err()).count();
    println!("xlac-obs-report: {} rule(s) from {spec}, {failed} failed", verdicts.len());
    Ok(failed == 0)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, spec] if flag == "--check" => check(spec),
        [] => Err("usage: xlac-obs-report FILE... | --check SPEC".into()),
        files if files[0] != "--check" => profile(files).map(|()| true),
        _ => Err("usage: xlac-obs-report --check SPEC".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xlac-obs-report: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_obs::json::parse_object;

    #[test]
    fn rows_classify_bench_and_obs_lines() {
        let row_of = |line: &str| row(&parse_object(line).unwrap());
        let bench = r#"{"name":"g/f","samples":12,"iters_per_sample":3,"median_ns":101.5,"mean_ns":102.0,"min_ns":99.0,"max_ns":110.0}"#;
        let (metric, text) = row_of(bench).unwrap();
        assert_eq!(metric, "g/f");
        assert!(text.starts_with("bench    g/f") && text.ends_with("min=99ns"), "{text}");

        let (metric, text) = row_of(r#"{"name":"counter/sim.chunks","value":16}"#).unwrap();
        assert_eq!(metric, "sim.chunks");
        assert!(text.starts_with("counter  sim.chunks") && text.ends_with(" 16"), "{text}");

        let (_, text) = row_of(r#"{"name":"gauge/analysis.rate","value":null}"#).unwrap();
        assert!(text.starts_with("gauge    analysis.rate") && text.ends_with("null"), "{text}");
        assert!(row_of(r#"{"name":"server/capacity","ratio":0.98}"#).is_none());
    }

    #[test]
    fn phases_group_by_first_segment() {
        assert_eq!(phase_of("sim.sweep.chunk"), "sim");
        assert_eq!(phase_of("bitslice_mul8x8/scalar_1thread"), "bitslice_mul8x8");
        assert_eq!(phase_of("plain"), "plain");
    }
}
