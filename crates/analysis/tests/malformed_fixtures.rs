//! Hardening tests for malformed structural Verilog (`fixtures/malformed/`).
//!
//! Every path reachable from `xlac-lint` over a malformed `.v` file must
//! surface a diagnostic and a nonzero exit status — never a panic, an
//! `unwrap` abort, or a silent pass. Exit code 1 means "found problems";
//! exit code 2 is reserved for usage/IO errors (bad flags, unreadable
//! directory), so the exact pass failing to *build* from a broken module
//! set still exits 1 with the lint summary printed.

use std::path::{Path, PathBuf};
use std::process::Command;
use xlac_analysis::lint::{lint_raw, Severity};
use xlac_analysis::parse::parse_verilog;
use xlac_analysis::symbolic::{compile_raw, Bdd};

fn malformed_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/malformed")
}

const FIXTURES: [&str; 3] =
    ["malformed_truncated.v", "malformed_stray_token.v", "malformed_unclosed_ports.v"];

/// Parsing and linting each malformed fixture terminates without panicking
/// and yields at least one error-severity diagnostic.
#[test]
fn malformed_fixtures_lint_to_errors_without_panicking() {
    for name in FIXTURES {
        let source = std::fs::read_to_string(malformed_dir().join(name)).unwrap();
        let (module, errors) = parse_verilog(&source);
        let report = lint_raw(&module.unwrap_or_default(), &errors);
        let error_count =
            report.diagnostics.iter().filter(|d| d.severity == Severity::Error).count();
        assert!(
            error_count > 0,
            "{name}: expected at least one error diagnostic, got {:?}",
            report.diagnostics
        );
    }
}

/// The lint binary over the malformed directory: nonzero exit, parse
/// diagnostics (`XL000`) in the report, no crash.
#[test]
fn lint_binary_reports_malformed_hdl_and_fails() {
    let output = Command::new(env!("CARGO_BIN_EXE_xlac-lint"))
        .arg("--hdl-dir")
        .arg(malformed_dir())
        .output()
        .expect("run xlac-lint");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!output.status.success(), "xlac-lint must fail on malformed HDL\n{stdout}");
    assert_eq!(
        output.status.code(),
        Some(1),
        "malformed HDL is a finding (1), not a usage/IO error (2)\n{stdout}"
    );
    assert!(stdout.contains("XL000"), "expected parse diagnostics:\n{stdout}");
}

/// The exact pass pointed at the malformed directory cannot build its
/// proof obligations. That must surface as an `exact pass failed to
/// build` diagnostic with exit code 1 — not a panic or an early abort
/// that skips the lint summary.
#[test]
fn exact_pass_on_malformed_hdl_is_a_diagnostic_not_a_panic() {
    let output = Command::new(env!("CARGO_BIN_EXE_xlac-lint"))
        .args(["--exact", "--hdl-dir"])
        .arg(malformed_dir())
        .output()
        .expect("run xlac-lint");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "exact-pass build failure must exit 1\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("exact pass failed to build"),
        "expected the failure in the report:\n{stdout}"
    );
    // The lint summary still prints: the run degraded, it did not abort.
    assert!(stdout.contains("module(s)"), "lint summary missing:\n{stdout}");
}

/// An arity mismatch between a netlist's declared ports and the bound BDD
/// variables is an `Err`, not an assertion failure (the historical panic
/// reachable from `xlac-lint --exact` on a malformed module).
#[test]
fn compile_raw_arity_mismatch_is_an_error() {
    let source = "module tiny (\n    input  wire a,\n    input  wire b,\n    output wire y\n);\n    and g0 (y, a, b);\nendmodule\n";
    let (module, errors) = parse_verilog(source);
    assert!(errors.is_empty(), "fixture module must parse cleanly: {errors:?}");
    let raw = module.expect("one module");

    let mut bdd = Bdd::new();
    let too_few = [bdd.var(0)];
    let err = compile_raw(&mut bdd, &raw, &too_few).expect_err("2 ports, 1 variable");
    assert!(err.contains("arity mismatch"), "unexpected message: {err}");

    let vars = [bdd.var(0), bdd.var(1)];
    compile_raw(&mut bdd, &raw, &vars).expect("matching arity compiles");
}
