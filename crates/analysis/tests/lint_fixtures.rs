//! Golden tests for the lint rule catalog: each fixture netlist carries
//! exactly one seeded defect class, and the shipped `hdl/` directory must
//! stay free of error-severity findings.

use std::path::Path;
use std::process::Command;
use xlac_analysis::lint::{lint_library, lint_raw, LintRule, Severity};
use xlac_analysis::parse::{parse_verilog, parse_verilog_library};

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(name: &str) -> xlac_analysis::LintReport {
    let path = fixture_dir().join(name);
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let (module, errors) = parse_verilog(&source);
    lint_raw(&module.expect("fixtures declare a module"), &errors)
}

#[test]
fn dead_gate_fixture_warns_on_the_whole_dead_cone() {
    let report = lint_fixture("dead_gate.v");
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    let dead = report.matching(LintRule::DeadGate);
    assert_eq!(dead.len(), 2, "{:?}", report.diagnostics);
    assert!(dead.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn floating_net_fixture_errors() {
    let report = lint_fixture("floating_net.v");
    assert!(report.has_errors());
    let floating = report.matching(LintRule::FloatingNet);
    assert_eq!(floating.len(), 1);
    assert!(floating[0].message.contains("w9"));
}

#[test]
fn cycle_fixture_errors_on_both_cells() {
    let report = lint_fixture("cycle.v");
    assert!(report.has_errors());
    assert_eq!(report.matching(LintRule::CombinationalCycle).len(), 2);
}

#[test]
fn width_mismatch_fixture_errors_on_both_cells() {
    let report = lint_fixture("width_mismatch.v");
    assert!(report.has_errors());
    assert_eq!(report.matching(LintRule::ArityMismatch).len(), 2);
}

#[test]
fn multi_driven_fixture_errors_on_contention_and_undriven_output() {
    let report = lint_fixture("multi_driven.v");
    assert!(report.has_errors());
    assert_eq!(report.matching(LintRule::MultiplyDrivenNet).len(), 1);
    assert_eq!(report.matching(LintRule::UndrivenOutput).len(), 1);
}

#[test]
fn port_width_mismatch_fixture_errors_on_both_bad_instances() {
    let path = fixture_dir().join("port_width_mismatch.v");
    let source = std::fs::read_to_string(&path).unwrap();
    let (modules, errors) = parse_verilog_library(&source);
    assert!(errors.is_empty(), "{errors:?}");
    let reports = lint_library(&modules, &errors);
    assert!(!reports[0].has_errors(), "leaf module is clean: {:?}", reports[0].diagnostics);
    let top = &reports[1];
    assert!(top.has_errors());
    let mismatches = top.matching(LintRule::PortWidthMismatch);
    assert_eq!(mismatches.len(), 2, "{:?}", top.diagnostics);
    assert!(mismatches.iter().any(|d| d.message.contains("u1")));
    assert!(mismatches.iter().any(|d| d.message.contains("pwm_ghost")));
}

#[test]
fn duplicate_gate_fixture_warns_on_both_copies() {
    let report = lint_fixture("duplicate_gate.v");
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    let dups = report.matching(LintRule::DuplicateGate);
    assert_eq!(dups.len(), 2, "{:?}", report.diagnostics);
    assert!(dups.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn shipped_hdl_directory_is_error_free() {
    let hdl = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../hdl");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&hdl).expect("hdl/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "v") {
            continue;
        }
        seen += 1;
        let source = std::fs::read_to_string(&path).unwrap();
        let (module, errors) = parse_verilog(&source);
        assert!(errors.is_empty(), "{}: {errors:?}", path.display());
        let report = lint_raw(&module.expect("module header"), &errors);
        assert!(!report.has_errors(), "{}: {:?}", path.display(), report.diagnostics);
    }
    assert!(seen >= 19, "expected the full hdl/ set, found {seen}");
}

#[test]
fn lint_binary_fails_on_the_fixture_directory() {
    let status = Command::new(env!("CARGO_BIN_EXE_xlac-lint"))
        .arg("--hdl-dir")
        .arg(fixture_dir())
        .output()
        .expect("binary runs");
    assert!(!status.status.success(), "fixtures must fail the lint gate");
    let stdout = String::from_utf8_lossy(&status.stdout);
    for rule in ["XL001", "XL002", "XL003", "XL004", "XL008", "XL009"] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn lint_binary_passes_on_the_shipped_hdl() {
    let hdl = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../hdl");
    let status = Command::new(env!("CARGO_BIN_EXE_xlac-lint"))
        .arg("--hdl-dir")
        .arg(&hdl)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(status.status.success(), "shipped configs must pass:\n{stdout}");
}

#[test]
fn exact_mode_proves_every_shipped_module_and_bound() {
    let hdl = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../hdl");
    let status = Command::new(env!("CARGO_BIN_EXE_xlac-lint"))
        .arg("--exact")
        .arg("--hdl-dir")
        .arg(&hdl)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(status.status.success(), "exact gate must pass on shipped modules:\n{stdout}");
    assert!(stdout.contains("0 refuted"), "{stdout}");
    assert!(stdout.contains("0 unsound"), "{stdout}");
    assert!(!stdout.contains("REFUTED"), "{stdout}");
    assert!(!stdout.contains("UNSOUND"), "{stdout}");
}

#[test]
fn unknown_arguments_are_usage_errors() {
    let output = Command::new(env!("CARGO_BIN_EXE_xlac-lint"))
        .arg("--no-such-option")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument"), "{stderr}");
}

#[test]
fn json_mode_emits_parseable_structure() {
    let status = Command::new(env!("CARGO_BIN_EXE_xlac-lint"))
        .arg("--json")
        .arg("--hdl-dir")
        .arg(fixture_dir())
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.contains("\"rule_id\""));
    assert!(stdout.contains("\"severity\": \"error\""));
}
