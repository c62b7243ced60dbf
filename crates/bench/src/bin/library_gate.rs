//! CI gate for the descriptor-native approximate cell library, plus the
//! distribution-sweep wall-clock record (`BENCH_explore.json`).
//!
//! DESIGN.md §17: every unit the design-space explorer builds on must
//! ship with its static contract *re-checked at gate time*, not merely
//! at descriptor-construction time. Four obligations, all in-process:
//!
//! 1. **Lint + XL014** — every descriptor from
//!    `xlac_adders::approx_cell_descriptors()` passes the netlist lint
//!    and the XL014 descriptor contract (table/netlist/bound agreement)
//!    with zero error-severity diagnostics;
//! 2. **Coverage** — the library spans the §17 families: at least 14
//!    units, including the word-level adders and the compressor cells;
//! 3. **Registry proof** — every shipped equivalence obligation in
//!    `prove_all` (HDL modules, JIT forms and descriptor functions) is
//!    PROVEN;
//! 4. **Sound bounds** — the bound soundness audit, which includes the
//!    `absint:` derived-bound entries, reports zero unsound bounds.
//!
//! The gate then runs the combined distribution sweep once
//! (`distribution_fronts(8)`: exact PMF metrics for every config ×
//! every shipped `InputDistribution`, one Pareto front per operator
//! class) and prints one bench JSON line per distribution with the
//! configs it scored (`explore_dist_fronts_w8/<label>`, read by the
//! `explore.fronts.coverage` rule of `scripts/gates.jsonl`) and a
//! summary line recording its wall-clock.
//!
//! Usage: `xlac-bench --bin library_gate [HDL_DIR]`. Verdict lines go
//! to stderr; the JSON line goes to stdout so `scripts/ci.sh` can
//! `| grep '^{' > BENCH_explore.json`. Any violated obligation exits
//! non-zero, failing the pipeline.

use std::process::ExitCode;
use std::time::Instant;

use xlac_adders::approx_cell_descriptors;
use xlac_analysis::lint::lint_descriptor;
use xlac_analysis::symbolic::audit::audit_bounds;
use xlac_analysis::symbolic::registry::{ensure_registry_hdl, prove_all};
use xlac_explore::distribution_fronts;

/// Minimum library size: the 14 units DESIGN.md §17 ships (2 bit-level
/// adder cells, TCAA/LOA/OFLOCA, 3 word adders, 3 Booth recoders and
/// the 3 compressor cells).
const MIN_UNITS: usize = 14;

/// Families that must each contribute at least one descriptor, matched
/// as a name prefix (case-insensitive would be overkill — descriptor
/// names are stable golden strings).
const REQUIRED_FAMILIES: [&str; 6] = ["axa", "loa", "ofloca", "cla", "booth", "cmp42"];

fn check_library() -> Result<usize, String> {
    let descriptors = approx_cell_descriptors();
    if descriptors.len() < MIN_UNITS {
        return Err(format!(
            "library has {} descriptors, gate requires >= {MIN_UNITS}",
            descriptors.len()
        ));
    }
    for family in REQUIRED_FAMILIES {
        if !descriptors.iter().any(|d| d.name().to_ascii_lowercase().starts_with(family)) {
            return Err(format!("no descriptor from required family '{family}'"));
        }
    }
    let mut failures = Vec::new();
    for desc in &descriptors {
        let report = lint_descriptor(desc);
        let xl014 = report.diagnostics.iter().filter(|d| d.rule_id == "XL014").count();
        if report.has_errors() {
            let first = report
                .diagnostics
                .iter()
                .find(|d| d.severity == xlac_analysis::lint::Severity::Error)
                .map(|d| format!("{} {}", d.rule_id, d.message))
                .unwrap_or_default();
            eprintln!("library_gate: FAIL lint {:<12} {first}", desc.name());
            failures.push(desc.name().to_string());
        } else {
            eprintln!(
                "library_gate: ok lint {:<12} {} diagnostics, {xl014} XL014",
                desc.name(),
                report.diagnostics.len()
            );
        }
    }
    if failures.is_empty() {
        Ok(descriptors.len())
    } else {
        Err(format!("{} descriptor(s) with error-severity lint: {failures:?}", failures.len()))
    }
}

fn check_registry(hdl_dir: &str) -> Result<usize, String> {
    let dir = std::path::Path::new(hdl_dir);
    ensure_registry_hdl(dir).map_err(|e| format!("cannot regenerate {hdl_dir}: {e}"))?;
    let reports = prove_all(dir)?;
    if reports.is_empty() {
        return Err("registry produced no proof obligations".into());
    }
    let mut refuted = 0usize;
    for r in &reports {
        if r.is_proven() {
            eprintln!(
                "library_gate: ok proof {:<24} {} ({} reps)",
                r.name,
                r.method,
                r.representations.len()
            );
        } else {
            eprintln!("library_gate: FAIL proof {:<24} {:?}", r.name, r.status);
            refuted += 1;
        }
    }
    if refuted == 0 {
        Ok(reports.len())
    } else {
        Err(format!("{refuted} refuted/undecided registry obligation(s)"))
    }
}

fn check_audits() -> Result<usize, String> {
    let audits = audit_bounds();
    if audits.is_empty() {
        return Err("bound audit produced no entries".into());
    }
    let absint = audits.iter().filter(|a| a.name.starts_with("absint:")).count();
    if absint == 0 {
        return Err("bound audit is missing the absint: derived-bound entries".into());
    }
    let unsound: Vec<&str> = audits.iter().filter(|a| !a.sound).map(|a| a.name.as_str()).collect();
    if unsound.is_empty() {
        eprintln!("library_gate: ok audit {} bounds sound ({absint} absint-derived)", audits.len());
        Ok(audits.len())
    } else {
        Err(format!("{} unsound bound(s): {unsound:?}", unsound.len()))
    }
}

fn run(hdl_dir: &str) -> Result<(), String> {
    let units = check_library()?;
    let proofs = check_registry(hdl_dir)?;
    let audits = check_audits()?;

    // The §17 sweep, timed: every config × every shipped distribution,
    // scored with exact PMF metrics, one front per operator class.
    let t0 = Instant::now();
    let fronts = distribution_fronts(8).map_err(|e| format!("distribution sweep failed: {e}"))?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if fronts.is_empty() {
        return Err("distribution sweep produced no fronts".into());
    }
    let configs = fronts[0].points.len();
    for f in &fronts {
        eprintln!(
            "library_gate: ok sweep {:<16} {} configs, adder front {}, multiplier front {}",
            f.dist.label(),
            f.points.len(),
            f.adder_front.len(),
            f.multiplier_front.len()
        );
        // The report gate checks that every front scored the whole space.
        let (label, scored) = (f.dist.label(), f.points.len());
        println!("{{\"name\":\"explore_dist_fronts_w8/{label}\",\"configs\":{scored}}}");
    }
    // One bench line for BENCH_explore.json (the `grep '^{'` idiom).
    println!(
        "{{\"name\":\"explore_dist_fronts_w8\",\"units\":{units},\"proofs\":{proofs},\
         \"audits\":{audits},\"distributions\":{},\"configs\":{configs},\
         \"wall_ms\":{wall_ms:.1}}}",
        fronts.len()
    );
    eprintln!(
        "library_gate: PASS {units} units, {proofs} proofs, {audits} sound bounds, \
         {} distribution fronts in {wall_ms:.0} ms",
        fronts.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let hdl_dir = std::env::args().nth(1).unwrap_or_else(|| "hdl".to_string());
    match run(&hdl_dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("library_gate: FAIL {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_library_passes_the_gate_checks() {
        assert!(check_library().expect("lint gate") >= MIN_UNITS);
        assert!(check_audits().expect("audit gate") > 0);
    }
}
