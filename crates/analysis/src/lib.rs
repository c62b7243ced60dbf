//! # xlac-analysis — static error-bound propagation and netlist lint
//!
//! The DAC'16 cross-layer flow needs to answer two questions *before*
//! simulating anything:
//!
//! 1. **How wrong can this datapath be?** [`bound::ErrorBound`] is an
//!    abstract error domain seeded from the exhaustive truth tables of the
//!    paper's elementary cells (Table III full adders, Fig.5 2×2
//!    multiplier blocks) and propagated compositionally through GeAr
//!    configurations, recursive/Wallace/truncated multiplier trees and
//!    the SAD/FIR accelerator datapaths — see [`components`]. The static
//!    worst case is a *sound upper bound*: [`symbolic::audit`] checks
//!    every field against the exact metrics of each configuration with
//!    ≤ 16 input bits, and the wider GeAr, SAD and FIR configurations
//!    are checked by seeded sampling in the workspace test suite.
//! 2. **Is this netlist structurally well-formed?** [`lint`] runs a
//!    fifteen-rule catalog — eleven structural rules (floating nets,
//!    multiple drivers, combinational cycles, arity mismatches, dead
//!    gates, constant cones, unused inputs, undriven outputs, instance
//!    port-width mismatches, duplicate gates, parse errors) plus the
//!    four [`absint`]-backed semantic rules XL011–XL014 — over both
//!    built [`xlac_logic::netlist::Netlist`]s and the Verilog subset in
//!    `hdl/`, parsed by [`parse`]. Diagnostics carry net names and
//!    1-based source lines for machine consumption.
//! 3. **How wrong *is* it, exactly — and is every representation the
//!    same circuit?** [`symbolic`] compiles netlists, truth tables and
//!    the composed datapaths into ROBDDs, computes provable
//!    WCE/ER/MED/per-bit flip probabilities by model counting, and
//!    proves (not samples) that the truth-table or scalar model, the
//!    `hdl/*.v` netlist and any hand bit-sliced form of every shipped
//!    module agree.
//! 4. **Can a bound be derived for a unit nobody hand-analyzed?**
//!    [`absint`] answers by bit-level abstract interpretation under
//!    three cooperating domains (ternary, Fréchet probability
//!    intervals, exact small-support cones):
//!    [`absint::derive_error_bound`] turns any `(approx, exact)`
//!    netlist pair into a sound [`bound::ErrorBound`] — exhaustively
//!    exact for ≤ 16 inputs, anytime-sound branch-and-bound beyond —
//!    with no per-family propagation code. The
//!    [`xlac_adders::UnitDescriptor`] contract builds on it, and the
//!    `absint:*` audit family plus the `absint.*` rules of
//!    `scripts/gates.jsonl` pin every derived bound against exact metrics.
//!
//! The `xlac-lint` binary lints every built-in configuration and `hdl/`
//! module and exits non-zero on any error-severity finding, or (under
//! `--exact`) failed equivalence proof or unsound bound audit;
//! `scripts/ci.sh` gates on it. DESIGN.md §9 documents the bound domain
//! and the rule catalog; §11 the symbolic engine; §16 the abstract
//! interpreter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod bound;
pub mod components;
pub mod lint;
pub mod parse;
pub mod symbolic;

pub use absint::{
    analyze_netlist, analyze_program, derive_error_bound, derive_error_bound_with, AbsVal,
    AbsintOptions, InputDistribution, ProbInterval, Tern,
};
pub use bound::ErrorBound;
pub use components::{
    builtin_profiles, cell_deviation, fir_bound, gear_adder_bound, mul2x2_bound,
    recursive_multiplier_bound, ripple_adder_bound, sad_bound, subtractor_bound, truncated_bound,
    wallace_bound, CellDeviation, StaticProfile,
};
pub use lint::{
    lint_descriptor, lint_library, lint_netlist, lint_netlist_under, lint_raw, Diagnostic,
    LintReport, LintRule, Severity,
};
pub use parse::{parse_verilog, parse_verilog_library, RawNetlist};
pub use symbolic::{exact_metrics, Bdd, ExactMetrics};
