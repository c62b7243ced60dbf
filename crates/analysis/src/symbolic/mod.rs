//! Exact symbolic analysis: ROBDDs, circuit compilation, provable error
//! metrics and formal equivalence (DESIGN.md §11).
//!
//! The static layer so far bounded errors conservatively
//! ([`crate::bound`]) and validated the bounds by sampling
//! ([`crate::validate`]). This module closes the gap with *exact*
//! answers:
//!
//! * [`bdd`] — an in-house reduced ordered BDD package: hash-consed
//!   nodes, memoized ITE, restrict/compose, model counting, witness
//!   extraction. Canonical: two equal functions get pointer-equal roots.
//! * [`compile`] — compiles every circuit representation the workspace
//!   ships (built netlists, truth tables, parsed `hdl/` modules) into
//!   one BDD root per output bit over a caller-chosen variable order.
//! * [`twins`] — BDDs of the *composed* datapaths
//!   (ripple/GeAr(+EDC)/subtractor adders; recursive/Wallace/truncated
//!   multipliers), compiled from their structural `hw` netlists, plus
//!   the truth-table cells and exact references they are measured by.
//! * [`metrics`] — exact worst-case error (with a concrete witness
//!   input), error rate, mean error distance and per-bit flip
//!   probability from the XOR-miter, via weighted model counting.
//! * [`equiv`] — equivalence proofs between representations, with
//!   counterexample extraction on refutation.
//! * [`audit`] — the static [`crate::bound`] layer regressed against the
//!   exact metrics: every 8-bit-and-under configuration's bound is
//!   checked for soundness (`bound ⊇ exact`) with per-field slack.
//! * [`jitproof`] — symbolic execution of `xlac-sim`'s compiled
//!   bit-plane bytecode, proving every JIT rewrite (inverter fusion, De
//!   Morgan, mux normalization, CSE, DCE, register reuse) preserved the
//!   source netlist's functions.
//! * [`registry`] — the shipped-module proof obligations behind
//!   `xlac-lint --exact`: for every component, the truth-table model,
//!   the structural/`hdl/` netlists and the bit-sliced `eval_x64` form
//!   are the same function.

pub mod audit;
pub mod bdd;
pub mod calculus;
pub mod compile;
pub mod equiv;
pub mod jitproof;
pub mod metrics;
pub mod pmf;
pub mod registry;
pub mod twins;

pub use audit::{audit_bounds, audits_to_json, BoundAudit};
pub use calculus::{
    block_error_pmf, recursive_calculus, truncated_calculus, wallace_calculus, CertifiedMetrics,
    DEFAULT_NODE_BUDGET,
};
pub use bdd::{Bdd, BddBudgetExceeded, BddStats, Ref, SiftOptions, SiftStats, FALSE, TRUE};
pub use compile::{
    apply_gate, compile_netlist, compile_raw, compile_truth_table, interleaved_operand_vars,
};
pub use equiv::{prove_outputs_equal, Counterexample, Verdict};
pub use metrics::{exact_metrics, ExactMetrics};
pub use pmf::{
    signed_word_pmf, unsigned_word_pmf, ErrorInterval, ErrorModel, ErrorPmf, PmfOverflow,
};
