//! Lint fixture suite: golden JSON report and one defect fixture per
//! abstract-interpretation rule.
//!
//! * `fixtures/lint/golden.v` pins the *complete* machine-readable
//!   diagnostic surface — rule ids, locations, 1-based source lines and
//!   net names — against a checked-in expected report. Any change to
//!   the JSON shape or to diagnostic placement shows up as a readable
//!   string diff. Re-bless with `XLAC_BLESS=1 cargo test -q --test
//!   lint_locations` after an intentional change.
//! * `fixtures/lint/xl011..xl014_*.v` each trip exactly one of the
//!   semantic rules XL011–XL014 — and, just as importantly, stay clean
//!   under the neighbouring rules, pinning the territory boundaries
//!   between the ternary, distribution and cone domains.

use std::path::{Path, PathBuf};
use xlac_adders::UnitDescriptor;
use xlac_analysis::absint::InputDistribution;
use xlac_analysis::lint::{
    lint_descriptor, lint_library, lint_netlist, lint_netlist_under, reports_to_json, LintReport,
    Severity,
};
use xlac_analysis::parse::parse_verilog;
use xlac_logic::Netlist;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint")
}

fn fixture_source(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn fixture_netlist(name: &str) -> Netlist {
    let (module, errors) = parse_verilog(&fixture_source(name));
    assert!(errors.is_empty(), "{name} must parse cleanly: {errors:?}");
    module
        .unwrap_or_else(|| panic!("{name} contains no module"))
        .to_netlist()
        .unwrap_or_else(|e| panic!("{name} must convert: {e}"))
}

fn rule_ids(report: &LintReport) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.rule_id).collect()
}

#[test]
fn golden_fixture_report_matches_byte_for_byte() {
    let (module, errors) = parse_verilog(&fixture_source("golden.v"));
    let reports = lint_library(std::slice::from_ref(&module.expect("module")), &errors);
    let got = reports_to_json(&reports);

    let expected_path = fixture_dir().join("golden.expected.json");
    if std::env::var_os("XLAC_BLESS").is_some() {
        std::fs::write(&expected_path, &got).expect("bless golden report");
    }
    let expected = std::fs::read_to_string(&expected_path)
        .expect("golden.expected.json (run once with XLAC_BLESS=1 to create)");
    assert_eq!(
        got, expected,
        "lint JSON drifted from the golden fixture; if intentional, \
         re-bless with XLAC_BLESS=1"
    );

    // The machine-readable fields the golden file exists to pin: every
    // structural diagnostic names its nets and a real source line.
    for d in reports.iter().flat_map(|r| &r.diagnostics) {
        assert!(!d.nets.is_empty(), "{}: diagnostic without nets", d.location);
        assert!((1..=29).contains(&d.line), "{}: line {} outside golden.v", d.location, d.line);
    }
}

#[test]
fn xl011_fires_only_under_the_pinning_distribution() {
    let nl = fixture_netlist("xl011_pinned.v");

    let uniform = lint_netlist(&nl);
    assert!(
        !rule_ids(&uniform).contains(&"XL011"),
        "uniform inputs must not pin the AND: {uniform:?}"
    );

    let pinned = lint_netlist_under(&nl, &InputDistribution::new(vec![0.0, 0.5]));
    let ids = rule_ids(&pinned);
    assert!(ids.contains(&"XL011"), "expected XL011, got {ids:?}");
    for quiet in ["XL006", "XL012", "XL013", "XL014"] {
        assert!(!ids.contains(&quiet), "{quiet} must stay silent: {ids:?}");
    }
    let d = pinned.diagnostics.iter().find(|d| d.rule_id == "XL011").expect("XL011");
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.nets.contains(&"w0".to_string()), "XL011 must name the wire: {d:?}");
}

#[test]
fn xl012_fires_on_the_unobservable_inverter() {
    let report = lint_netlist(&fixture_netlist("xl012_observability.v"));
    let ids = rule_ids(&report);
    assert!(ids.contains(&"XL012"), "expected XL012, got {ids:?}");
    for quiet in ["XL005", "XL006", "XL011", "XL013", "XL014"] {
        assert!(!ids.contains(&quiet), "{quiet} must stay silent: {ids:?}");
    }
}

#[test]
fn xl013_fires_on_the_reconvergent_constant() {
    let report = lint_netlist(&fixture_netlist("xl013_reconvergence.v"));
    let ids = rule_ids(&report);
    assert!(ids.contains(&"XL013"), "expected XL013, got {ids:?}");
    for quiet in ["XL006", "XL011", "XL012", "XL014"] {
        assert!(!ids.contains(&quiet), "{quiet} must stay silent: {ids:?}");
    }
}

#[test]
fn xl014_fires_on_the_contract_breaking_netlist() {
    // The fixture netlist claims to be a full adder; wrapping it in a
    // descriptor whose spec IS the accurate full adder makes the
    // generated-netlist leg contradict the truth table.
    let broken = fixture_netlist("xl014_contract.v");
    let desc = UnitDescriptor::full_adder_cell(
        "BrokenContract",
        |x| {
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let sum = a + b + cin;
            (sum & 1) | (sum & 2)
        },
        |b| {
            let ins: Vec<_> = (0..3).map(|i| b.input(i)).collect();
            b.inline(&broken, &ins)
        },
    )
    .expect("well-formed (if wrong) netlist");

    let report = lint_descriptor(&desc);
    let ids = rule_ids(&report);
    assert!(ids.contains(&"XL014"), "expected XL014, got {ids:?}");
    assert!(report.has_errors(), "XL014 is error severity");
    let d = report.diagnostics.iter().find(|d| d.rule_id == "XL014").expect("XL014");
    assert_eq!(d.severity, Severity::Error);

    // The same wiring with a spec matching the netlist is contract-clean.
    let honest = fixture_netlist("xl014_contract.v");
    let consistent = UnitDescriptor::full_adder_cell(
        "HonestAboutItsBugs",
        |x| {
            let (a, b) = (x & 1, (x >> 1) & 1);
            (a & b) | ((a | b) << 1)
        },
        |b| {
            let ins: Vec<_> = (0..3).map(|i| b.input(i)).collect();
            b.inline(&honest, &ins)
        },
    )
    .expect("well-formed netlist");
    assert!(
        !rule_ids(&lint_descriptor(&consistent)).contains(&"XL014"),
        "a spec that matches the netlist must not violate the contract"
    );
}
