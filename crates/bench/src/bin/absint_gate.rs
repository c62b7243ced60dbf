//! CI soundness-and-tightness gate for the abstract-interpretation
//! engine (`target/LINT_exact.json`).
//!
//! Reads the `xlac-lint --exact --json` report and enforces what
//! DESIGN.md §16 claims about the automatically derived bounds:
//!
//! * **presence**: the `absint:` audit sweep actually ran — at least
//!   [`MIN_ENTRIES`] registry modules carry a derived bound;
//! * **soundness**: every derived bound envelopes the exact metrics
//!   of the same `(approx, exact)` pair (`"sound": true`), with zero
//!   tolerance — one unsound bound fails CI;
//! * **tightness**: on every non-Wallace unit the derived worst-case
//!   error is within [`TIGHTNESS_FLOOR`]× of the exact worst case (and
//!   exactly zero when the exact worst case is zero). Wallace trees are
//!   exempt from the ratio only — their carry-reconvergence makes any
//!   interval bound loose — but never from soundness.
//!
//! Usage: `xlac-bench --bin absint_gate target/LINT_exact.json`. Any
//! violation (or a missing sweep) exits non-zero, failing
//! `scripts/ci.sh`.

use std::process::ExitCode;

/// Minimum number of `absint:` audit entries the sweep must produce
/// (the registry ships 23; a drop below this means modules silently
/// fell out of the sweep).
const MIN_ENTRIES: usize = 20;

/// Maximum allowed `bound_wce / exact_wce` on non-Wallace units.
const TIGHTNESS_FLOOR: f64 = 8.0;

/// One parsed `absint:` audit entry.
struct Entry {
    name: String,
    bound_wce: f64,
    exact_wce: f64,
    sound: bool,
}

/// Extracts a numeric field from one audit object line. The report is
/// the repo's hand-rolled JSON with a space after each colon
/// (`"bound_wce": 12`), but the scan tolerates both spacings.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Extracts the `"name"` field (quoted string) from one audit line.
fn name_field(line: &str) -> Option<&str> {
    let pat = "\"name\":";
    let start = line.find(pat)? + pat.len();
    let rest = line[start..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

fn parse_entries(source: &str) -> Vec<Entry> {
    source
        .lines()
        .filter_map(|line| {
            let name = name_field(line)?;
            if !name.starts_with("absint:") {
                return None;
            }
            let sound = num_field(line, "wce_slack").is_some()
                && line.contains("\"sound\": true");
            Some(Entry {
                name: name.to_string(),
                bound_wce: num_field(line, "bound_wce")?,
                exact_wce: num_field(line, "exact_wce")?,
                sound,
            })
        })
        .collect()
}

fn run(path: &str) -> Result<(), String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = parse_entries(&source);
    if entries.len() < MIN_ENTRIES {
        return Err(format!(
            "only {} absint audit entries in {path} (expected >= {MIN_ENTRIES}); \
             did the sweep run?",
            entries.len()
        ));
    }

    let mut failures = Vec::new();
    for e in &entries {
        let wallace = e.name.contains("Wallace(");
        let tight = if e.exact_wce == 0.0 {
            e.bound_wce == 0.0
        } else {
            e.bound_wce <= TIGHTNESS_FLOOR * e.exact_wce
        };
        let ratio = if e.exact_wce > 0.0 { e.bound_wce / e.exact_wce } else { 1.0 };
        let verdict = if !e.sound {
            failures.push(format!("{}: UNSOUND", e.name));
            "UNSOUND"
        } else if !wallace && !tight {
            failures.push(format!(
                "{}: loose (bound {} vs exact {})",
                e.name, e.bound_wce, e.exact_wce
            ));
            "LOOSE"
        } else {
            "ok"
        };
        println!(
            "absint-gate: {:<38} bound_wce {:>6} exact_wce {:>6} ({:>5.2}x{}) {}",
            e.name,
            e.bound_wce,
            e.exact_wce,
            ratio,
            if wallace { ", wallace-exempt" } else { "" },
            verdict,
        );
    }

    if failures.is_empty() {
        println!(
            "absint-gate: {} derived bounds, all sound, non-Wallace within {}x",
            entries.len(),
            TIGHTNESS_FLOOR
        );
        Ok(())
    } else {
        Err(format!("{} violation(s): {}", failures.len(), failures.join("; ")))
    }
}

fn main() -> ExitCode {
    let path =
        std::env::args().nth(1).unwrap_or_else(|| "target/LINT_exact.json".to_string());
    match run(&path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("absint-gate: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"  {"name": "absint:cell/AXA3", "n_inputs": 3, "bound_wce": 4, "exact_wce": 4, "wce_slack": 0, "bound_over": 4, "exact_over": 4, "bound_under": 4, "exact_under": 4, "bound_error_rate": 0.500000000, "exact_error_rate": 0.500000000, "bound_mean_abs": 1.000000000, "exact_med": 1.000000000, "sound": true},"#;

    #[test]
    fn parses_the_audit_line_format() {
        assert_eq!(name_field(LINE), Some("absint:cell/AXA3"));
        assert_eq!(num_field(LINE, "bound_wce"), Some(4.0));
        assert_eq!(num_field(LINE, "exact_wce"), Some(4.0));
        let entries = parse_entries(LINE);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].sound);
    }

    #[test]
    fn non_absint_lines_are_skipped() {
        let other = r#"  {"name": "ApxFA1-structural", "bound_wce": 1, "exact_wce": 1, "wce_slack": 0, "sound": true},"#;
        assert!(parse_entries(other).is_empty());
    }

    #[test]
    fn unsound_entries_are_detected() {
        let bad = LINE.replace("\"sound\": true", "\"sound\": false");
        let entries = parse_entries(&bad);
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].sound);
    }
}
