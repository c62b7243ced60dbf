//! Exact symbolic analysis: ROBDDs, circuit compilation, provable error
//! metrics and formal equivalence (DESIGN.md §11).
//!
//! The static layer bounds errors conservatively ([`crate::bound`]).
//! This module supplies the *exact* answers those bounds are checked
//! against:
//!
//! * [`bdd`] — an in-house reduced ordered BDD package over a fixed
//!   variable order (variable id = level): hash-consed nodes, memoized
//!   ITE, model counting, witness extraction and garbage collection.
//!   Canonical: two equal functions get pointer-equal roots, which is
//!   what the equivalence proofs rest on.
//! * [`compile`] — compiles every circuit representation the workspace
//!   ships (built netlists, truth tables, parsed `hdl/` modules) into
//!   one BDD root per output bit over a caller-chosen variable order.
//! * [`twins`] — BDDs of the *composed* datapaths
//!   (ripple/GeAr(+EDC)/subtractor adders; recursive/Wallace/truncated
//!   multipliers), compiled from their structural `hw` netlists, plus
//!   the truth-table cells and exact references they are measured by.
//! * [`metrics`] — exact worst-case error (with a concrete witness
//!   input), error rate, mean error distance and per-bit flip
//!   probability from the XOR-miter, via weighted model counting; and the
//!   same metric set by exhaustive compiled enumeration for units with
//!   ≤ 16 inputs ([`exhaustive_metrics`]), uniformly or weighted by
//!   operand distributions, all of them in one enumeration
//!   ([`exhaustive_metrics_under_each`]).
//! * [`equiv`] — equivalence proofs between representations, with
//!   counterexample extraction on refutation.
//! * [`audit`] — the static [`crate::bound`] layer regressed against the
//!   exact metrics: every 8-bit-and-under configuration's bound is
//!   checked for soundness (`bound ⊇ exact`) with per-field slack, on the
//!   exhaustive engine.
//! * [`jitproof`] — symbolic execution of `xlac-sim`'s compiled
//!   bit-plane bytecode, proving every JIT rewrite (inverter fusion, De
//!   Morgan, mux normalization, CSE, DCE, register reuse) preserved the
//!   source netlist's functions.
//! * [`registry`] — the shipped-module proof obligations behind
//!   `xlac-lint --exact`: for every component, the truth-table or scalar
//!   model, the structural/`hdl/` netlists and any hand bit-sliced form
//!   are the same function.

pub mod audit;
pub mod bdd;
pub mod calculus;
pub mod compile;
pub mod equiv;
pub mod jitproof;
pub mod metrics;
#[cfg(test)]
mod metrics_oracle;
pub mod pmf;
pub mod registry;
pub mod twins;

pub use audit::{audit_bounds, audit_pair, audits_to_json, magnitude_netlist, BoundAudit};
pub use bdd::{Bdd, BddStats, Ref, FALSE, TRUE};
pub use calculus::{
    block_error_pmf, recursive_calculus, truncated_calculus, wallace_calculus, CertifiedMetrics,
    DEFAULT_CONE_BUDGET,
};
pub use compile::{
    apply_gate, compile_netlist, compile_raw, compile_truth_table, interleaved_operand_vars,
};
pub use equiv::{prove_outputs_equal, Counterexample, Verdict};
pub use metrics::{
    exact_metrics, exhaustive_metrics, exhaustive_metrics_under, exhaustive_metrics_under_each,
    ExactMetrics, EXHAUSTIVE_MAX_INPUTS,
};
pub use pmf::{ErrorInterval, ErrorModel, ErrorPmf, PmfOverflow};
