//! `compare DIR_A DIR_B`: judges two sets of runs, say parent (A) and
//! change (B), metric by metric with the bounds `BENCHMARK.json` fixes.
//!
//! Each directory holds `<workload>.jsonl`, one result line per run (what
//! `run --out DIR` or `trace --out DIR` appends). Lines pair up in order,
//! so alternate the two sides when collecting them. The end-to-end metrics
//! of `BENCHMARK.json` and the workload-specific ones of
//! [`WORKLOAD_SPECIFIC`] are bounded; per-layer ones are listed.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::report::WORKLOAD_SPECIFIC;
use crate::stats::{median, quartiles, spread};

/// How an end-to-end metric is judged.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// `true` when a smaller value is better.
    pub lower_is_better: bool,
    /// Allowed worsening of B's median against A's, as a share.
    pub bound: f64,
}

/// The end-to-end rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Names the first malformed entry.
pub fn rules(spec: &Json) -> Result<Vec<Rule>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name}: no better"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Rule {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// B won at least 9 of every 10 of at least 10 pairs, and the medians
    /// differ by more than A's interquartile distance.
    Gain,
    /// A side's run-to-run spread exceeds the bound, so a difference within
    /// it cannot be told from noise (unless every B run beats every A run).
    Unresolved,
    /// None of the above: no worse than the bound allows.
    WithinBound,
}

/// Judges `a` against `b` (runs in collection order) under `rule`. Also
/// returns `(pairs, wins)`.
#[must_use]
pub fn judge(rule: &Rule, a: &[f64], b: &[f64]) -> (Verdict, usize, usize) {
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (Verdict::Unresolved, pairs, wins);
    };
    let worse_by = if rule.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let noisy = [a, b]
        .iter()
        .any(|v| spread(v).is_none_or(|s| s > rule.bound));
    let all_better = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
    let iqr_a = quartiles(a).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let verdict = if noisy && !all_better {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Regressed
    } else if pairs >= 10 && wins * 10 >= pairs * 9 && (mb - ma).abs() > iqr_a {
        Verdict::Gain
    } else {
        Verdict::WithinBound
    };
    (verdict, pairs, wins)
}

fn load(dir: &Path, workload: &str) -> Result<Vec<Json>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn summary(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{m:>12.5} [{q1:.5}, {q3:.5}]"),
        (Some(m), None) => format!("{m:>12.5}"),
        _ => "-".into(),
    }
}

/// Prints the comparison; exits non-zero on any regression or any run
/// whose outputs were wrong.
pub fn main(dir_a: &Path, dir_b: &Path) -> ExitCode {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = match std::fs::read_to_string(&spec_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compare: cannot read {}: {e}", spec_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut rules = match rules(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compare: {}: {e}", spec_path.display());
            return ExitCode::FAILURE;
        }
    };
    rules.extend(WORKLOAD_SPECIFIC.iter().map(|&(name, _, bound)| Rule {
        name: name.to_string(),
        lower_is_better: true,
        bound,
    }));
    let mut failed = false;
    for w in crate::WORKLOADS {
        let (a, b) = match (load(dir_a, w), load(dir_b, w)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("compare: {e}");
                failed = true;
                continue;
            }
        };
        if a.is_empty() && b.is_empty() {
            continue;
        }
        let wrong = a
            .iter()
            .chain(&b)
            .filter(|r| r.get("correct") != Some(&Json::Bool(true)))
            .count();
        println!(
            "{w} ({} runs A, {} runs B, {wrong} with wrong outputs)",
            a.len(),
            b.len()
        );
        failed |= wrong > 0;
        for rule in &rules {
            let (va, vb) = (values(&a, &rule.name), values(&b, &rule.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let (verdict, pairs, wins) = judge(rule, &va, &vb);
            failed |= verdict == Verdict::Regressed;
            let delta = match (median(&va), median(&vb)) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.2}%", (y - x) / x.abs() * 100.0),
                _ => "-".into(),
            };
            println!(
                "  {:<20} A {}  B {}  {delta:>8}  bound {:.0}%  B won {wins}/{pairs}  {verdict:?}",
                rule.name,
                summary(&va),
                summary(&vb),
                rule.bound * 100.0
            );
        }
        // Per-layer metrics carry no bound: medians only.
        let layered = a
            .iter()
            .chain(&b)
            .filter_map(|r| r.get("metrics")?.as_object())
            .flatten();
        let mut names: Vec<&str> = layered
            .map(|(k, _)| k.as_str())
            .filter(|k| !rules.iter().any(|r| r.name == *k))
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            println!(
                "  {name:<36} A {}  B {}",
                summary(&values(&a, name)),
                summary(&values(&b, name))
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool) -> Rule {
        Rule {
            name: "m".into(),
            lower_is_better: lower,
            bound: 0.10,
        }
    }

    #[test]
    fn a_median_beyond_the_bound_regresses() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [112.0, 113.0, 111.0, 112.5, 111.5];
        assert_eq!(judge(&rule(true), &a, &b).0, Verdict::Regressed);
        assert_eq!(judge(&rule(false), &b, &a).0, Verdict::Regressed);
        let close = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(judge(&rule(true), &a, &close).0, Verdict::WithinBound);
    }

    #[test]
    fn a_gain_needs_ten_pairs_and_nine_wins() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 5.0).collect();
        assert_eq!(judge(&rule(true), &a, &b), (Verdict::Gain, 10, 10));
        assert_eq!(judge(&rule(true), &a[..9], &b[..9]).0, Verdict::WithinBound);
        let mut two_losses = b.clone();
        two_losses[0] = 200.0;
        two_losses[1] = 200.0;
        assert_eq!(judge(&rule(true), &a, &two_losses).1, 10);
        assert_ne!(judge(&rule(true), &a, &two_losses).0, Verdict::Gain);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [60.0, 140.0, 100.0, 70.0, 130.0];
        let b = [100.0, 100.0, 100.0, 100.0, 100.0];
        assert_eq!(judge(&rule(true), &a, &b).0, Verdict::Unresolved);
        // ...unless every B run beats every A run.
        let far = [10.0, 11.0, 12.0, 10.5, 11.5];
        assert_ne!(judge(&rule(true), &a, &far).0, Verdict::Unresolved);
    }

    #[test]
    fn rules_come_from_the_spec() {
        let spec = Json::parse(
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            rules(&spec),
            Ok(vec![Rule {
                name: "x".into(),
                lower_is_better: false,
                bound: 0.1
            }])
        );
        assert!(rules(&Json::parse("{}").unwrap()).is_err());
    }
}
