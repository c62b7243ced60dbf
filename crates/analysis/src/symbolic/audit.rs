//! Bound-vs-exact soundness audit: every PR 2 static [`ErrorBound`]
//! checked against the exact metrics of its `(approx, exact)` netlist
//! pair.
//!
//! The static layer promises *sound* over-approximation: for every input
//! vector, `approx − exact ≤ bound.over` and `exact − approx ≤
//! bound.under`, with `mean_abs` and `error_rate_bound` sound under
//! uniform primary inputs. This module is the one check of that promise:
//! for every shipped configuration with 8-bit-and-under
//! operands (≤ 16 primary input bits) the exact WCE / directional
//! extremes / error rate / MED are computed by exhaustive compiled
//! enumeration ([`exhaustive_metrics`]: 512 assignments per program pass,
//! every statistic a popcount or masked maximum of the pair's difference
//! planes) of the unit's structural netlist against its accurate
//! reference, and compared field by field against the static bound. Any
//! exact value exceeding its bound is an unsoundness — `xlac-lint
//! --exact` fails on it — and the recorded slack (`bound − exact`)
//! measures how conservative the abstract domain really is, per
//! configuration. Each pair is built, audited and dropped in turn
//! (`for_each_audit_pair`), so no netlist outlives its entry. The BDD
//! metrics of [`super::metrics`] compute the same numbers, and an
//! interpreter-tabulated oracle checks the engine on every pair of the
//! table, witness included.

use std::fmt::Write as _;

use xlac_adders::hw::{gear_netlist, ripple_netlist, subtractor_netlist};
use xlac_adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor};
use xlac_core::XlacError;
use xlac_logic::{Netlist, NetlistBuilder, Signal};
use xlac_multipliers::hw::{recursive_netlist, truncated_netlist, wallace_netlist};
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

use super::metrics::{exhaustive_metrics, ExactMetrics};
use crate::absint::derive_error_bound;
use crate::bound::ErrorBound;
use crate::components;

/// Relative tolerance for the floating-point bound fields (`mean_abs`,
/// `error_rate_bound`): the exact side is accumulated in integer model
/// counts and divided once, the bound side may round differently, so a
/// few ulps of headroom keep the comparison about soundness rather than
/// float formatting.
const FLOAT_SLOP: f64 = 1e-9;

/// One configuration's static bound laid side by side with its exact
/// metrics, plus the per-field soundness verdicts.
#[derive(Debug, Clone)]
pub struct BoundAudit {
    /// Configuration name (the component's own `name()`).
    pub name: String,
    /// Primary input bits of the audited datapath.
    pub n_inputs: usize,
    /// Static worst-case bound, `max(over, under)`.
    pub bound_wce: u128,
    /// Exact worst-case error.
    pub exact_wce: u128,
    /// `bound_wce − exact_wce` (how conservative the static domain is).
    pub wce_slack: u128,
    /// Static overshoot bound vs exact largest overshoot.
    pub bound_over: u128,
    /// Exact largest overshoot.
    pub exact_over: u128,
    /// Static undershoot bound vs exact largest undershoot.
    pub bound_under: u128,
    /// Exact largest undershoot.
    pub exact_under: u128,
    /// Static uniform-input error-rate bound.
    pub bound_error_rate: f64,
    /// Exact uniform-input error rate.
    pub exact_error_rate: f64,
    /// Static uniform-input mean-absolute-error bound.
    pub bound_mean_abs: f64,
    /// Exact mean error distance.
    pub exact_med: f64,
    /// `true` when every exact field is within its bound — the soundness
    /// contract of DESIGN.md §9, now proven rather than sampled.
    pub sound: bool,
}

impl BoundAudit {
    fn new(name: String, n_inputs: usize, bound: &ErrorBound, exact: &ExactMetrics) -> Self {
        let sound = bound.over >= exact.max_overshoot
            && bound.under >= exact.max_undershoot
            && bound.wce() >= exact.worst_case_error
            && bound.error_rate_bound + FLOAT_SLOP >= exact.error_rate
            && bound.mean_abs + FLOAT_SLOP >= exact.mean_error_distance;
        BoundAudit {
            name,
            n_inputs,
            bound_wce: bound.wce(),
            exact_wce: exact.worst_case_error,
            wce_slack: bound.wce().saturating_sub(exact.worst_case_error),
            bound_over: bound.over,
            exact_over: exact.max_overshoot,
            bound_under: bound.under,
            exact_under: exact.max_undershoot,
            bound_error_rate: bound.error_rate_bound,
            exact_error_rate: exact.error_rate,
            bound_mean_abs: bound.mean_abs,
            exact_med: exact.mean_error_distance,
            sound,
        }
    }
}

/// Audits `bound` against the exhaustive metrics of the netlist pair.
///
/// # Errors
///
/// The pair does not fit the exhaustive engine: differing input arity,
/// more than 16 inputs or more than 64 outputs.
pub fn audit_pair(
    name: String,
    bound: &ErrorBound,
    approx: &Netlist,
    exact: &Netlist,
) -> Result<BoundAudit, XlacError> {
    let metrics = exhaustive_metrics(approx, exact)?;
    Ok(BoundAudit::new(name, approx.n_inputs(), bound, &metrics))
}

/// The visitor of [`for_each_audit_pair`]: one configuration's name,
/// static bound and `(approx, exact)` netlist pair.
pub(crate) type AuditVisit<'a> =
    dyn FnMut(String, &ErrorBound, &Netlist, &Netlist) -> Result<(), XlacError> + 'a;

/// Visits an automatically derived bound: [`derive_error_bound`] runs on
/// the raw `(approx, exact)` netlist pair — no hand-wired propagation
/// rule anywhere — and the result is audited against the exact metrics
/// of the very same pair. Shorter output words are zero-extended, so
/// adders with carry-out audit against flag-less references cleanly.
fn visit_derived(
    visit: &mut AuditVisit<'_>,
    name: &str,
    approx: &Netlist,
    exact: &Netlist,
) -> Result<(), XlacError> {
    let bound = derive_error_bound(approx, exact)?;
    visit(format!("absint:{name}"), &bound, approx, exact)
}

/// The magnitude word `|a − b|` of a subtractor netlist, without its
/// trailing `a ≥ b` flag: the quantity the subtractor bounds cover.
#[must_use]
pub fn magnitude_netlist(sub: &Subtractor<RippleCarryAdder>) -> Netlist {
    let w = sub.width();
    let full = subtractor_netlist(sub);
    let mut b = NetlistBuilder::new(sub.name(), 2 * w);
    let ins: Vec<Signal> = (0..2 * w).map(Signal::Input).collect();
    for s in b.inline(&full, &ins).into_iter().take(w) {
        b.output(s);
    }
    b.finish().expect("a prefix of a well-formed netlist's outputs is well-formed")
}

/// The abstract-interpretation sweep: every ≤ 16-input registry module's
/// automatically derived bound, audited against exact metrics. These are
/// the entries the `absint.*` rules of `scripts/gates.jsonl` read from the
/// `--exact --json` report. The references are the accurate 8-bit ripple
/// adder and 8×8 product.
fn absint_pairs(
    visit: &mut AuditVisit<'_>,
    accurate_rca: &Netlist,
    accurate_mul: &Netlist,
) -> Result<(), XlacError> {
    for d in xlac_adders::approx_cell_descriptors() {
        visit_derived(visit, &format!("cell/{}", d.name()), d.netlist(), d.reference_netlist())?;
    }
    let accurate_fa = FullAdderKind::Accurate.structural_netlist();
    for kind in FullAdderKind::APPROXIMATE {
        visit_derived(visit, &kind.to_string(), &kind.structural_netlist(), &accurate_fa)?;
    }
    let accurate_mul2x2 = Mul2x2Kind::Accurate.netlist();
    for kind in Mul2x2Kind::ALL {
        if kind != Mul2x2Kind::Accurate {
            visit_derived(visit, &format!("mul2x2_{kind}"), &kind.netlist(), &accurate_mul2x2)?;
        }
    }
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped configuration");
        visit_derived(visit, &rca.name(), &ripple_netlist(&rca), accurate_rca)?;
    }
    {
        let gear = GeArAdder::new(8, 2, 2).expect("shipped configuration");
        visit_derived(visit, &gear.name(), &gear_netlist(&gear), accurate_rca)?;
    }
    let exact_sub = subtractor_netlist(&Subtractor::new(RippleCarryAdder::accurate(8)));
    for kind in FullAdderKind::APPROXIMATE {
        let sub = Subtractor::new(
            RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped configuration"),
        );
        visit_derived(visit, &sub.name(), &subtractor_netlist(&sub), &exact_sub)?;
    }
    for (kind, cols) in
        [(FullAdderKind::Apx2, 4), (FullAdderKind::Apx4, 8), (FullAdderKind::Apx5, 8)]
    {
        let mul = WallaceMultiplier::new(8, kind, cols).expect("shipped configuration");
        visit_derived(visit, &mul.name(), &wallace_netlist(&mul), accurate_mul)?;
    }
    Ok(())
}

/// Runs the full audit: every shipped configuration whose operand width
/// admits exact analysis (8-bit-and-under datapaths, plus the 2×2
/// elementary blocks). The wider GeAr, SAD and FIR configurations are
/// checked by seeded sampling in the workspace's `static_bounds` tests.
#[must_use]
pub fn audit_bounds() -> Vec<BoundAudit> {
    // Invariant: the table below is fixed, and every pair in it shares
    // its input arity and fits the exhaustive engine (≤ 16 inputs, ≤ 64
    // outputs). A failure is a bug in this table, not an input error.
    let mut audits = Vec::new();
    for_each_audit_pair(&mut |name, bound, approx, exact| {
        audits.push(audit_pair(name, bound, approx, exact)?);
        Ok(())
    })
    .expect("audit pairs share their input arity and fit the exhaustive engine");
    audits
}

/// Visits every configuration of the [`audit_bounds`] table in order,
/// one `(approx, exact)` pair at a time, with its static bound; the first
/// error `visit` returns ends the walk.
pub(crate) fn for_each_audit_pair(visit: &mut AuditVisit<'_>) -> Result<(), XlacError> {
    let accurate_rca = ripple_netlist(&RippleCarryAdder::accurate(8));
    let accurate_mul = wallace_netlist(
        &WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).expect("accurate Wallace"),
    );

    // Ripple adders: 8-bit, 4 approximate LSB cells, all five Table III
    // approximate full adders. Exact reference: a + b with carry-out.
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped configuration");
        let bound = components::ripple_adder_bound(&rca);
        visit(rca.name(), &bound, &ripple_netlist(&rca), &accurate_rca)?;
    }

    // The one GeAr geometry with ≤ 16 input bits. Plain (uncorrected)
    // addition — exactly what the static bound covers.
    let gear = GeArAdder::new(8, 2, 2).expect("shipped configuration");
    let bound = components::gear_adder_bound(&gear);
    visit(gear.name(), &bound, &gear_netlist(&gear), &accurate_rca)?;

    // Subtractors over each approximate ripple core. Exact reference:
    // the same datapath built on an accurate adder, i.e. |a − b|.
    let exact_sub = magnitude_netlist(&Subtractor::new(RippleCarryAdder::accurate(8)));
    for kind in FullAdderKind::APPROXIMATE {
        let sub = Subtractor::new(
            RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped configuration"),
        );
        let bound = components::subtractor_bound(&sub);
        visit(sub.name(), &bound, &magnitude_netlist(&sub), &exact_sub)?;
    }

    // Elementary 2×2 blocks (Fig. 5): 4 primary inputs.
    let accurate_mul2x2 = Mul2x2Kind::Accurate.netlist();
    for kind in Mul2x2Kind::ALL {
        let bound = components::mul2x2_bound(kind);
        visit(format!("mul2x2_{kind}"), &bound, &kind.netlist(), &accurate_mul2x2)?;
    }

    // 8-bit recursive multipliers: every block kind × both summation
    // modes, as shipped by `builtin_profiles`.
    let recursive: Vec<RecursiveMultiplier> = Mul2x2Kind::ALL
        .into_iter()
        .flat_map(|block| {
            [SumMode::Accurate, SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 }]
                .map(|sum| RecursiveMultiplier::new(8, block, sum).expect("shipped configuration"))
        })
        .collect();
    for mul in &recursive {
        let bound = components::recursive_multiplier_bound(mul);
        visit(mul.name(), &bound, &recursive_netlist(mul), &accurate_mul)?;
    }

    // 8-bit Wallace trees with approximate low columns.
    let wallace: Vec<WallaceMultiplier> =
        [(FullAdderKind::Apx2, 4), (FullAdderKind::Apx4, 8), (FullAdderKind::Apx5, 8)]
            .map(|(kind, cols)| {
                WallaceMultiplier::new(8, kind, cols).expect("shipped configuration")
            })
            .into();
    for mul in &wallace {
        let bound = components::wallace_bound(mul);
        visit(mul.name(), &bound, &wallace_netlist(mul), &accurate_mul)?;
    }

    // 8-bit truncated multipliers, compensated and not.
    let truncated: Vec<TruncatedMultiplier> = [(2, false), (4, true), (6, true)]
        .map(|(dropped, compensated)| {
            TruncatedMultiplier::new(8, dropped, compensated).expect("shipped configuration")
        })
        .into();
    for mul in &truncated {
        let bound = components::truncated_bound(mul);
        visit(mul.name(), &bound, &truncated_netlist(mul), &accurate_mul)?;
    }

    // The compositional error calculus' certified envelopes, regressed
    // against the same monolithic metrics. For the Wallace and truncated
    // families the calculus certifies the exact distribution, so the
    // envelope must match the exact metrics with zero WCE slack; the
    // recursive intervals must contain them.
    for mul in &wallace {
        let bound = super::calculus::wallace_calculus(mul, None).to_error_bound();
        let name = format!("calculus:{}", mul.name());
        visit(name, &bound, &wallace_netlist(mul), &accurate_mul)?;
    }
    for mul in &truncated {
        let bound = super::calculus::truncated_calculus(mul).to_error_bound();
        let name = format!("calculus:{}", mul.name());
        visit(name, &bound, &truncated_netlist(mul), &accurate_mul)?;
    }
    for mul in &recursive {
        let bound = super::calculus::recursive_calculus(mul).to_error_bound();
        let name = format!("calculus:{}", mul.name());
        visit(name, &bound, &recursive_netlist(mul), &accurate_mul)?;
    }

    absint_pairs(visit, &accurate_rca, &accurate_mul)
}

/// Serializes the audit table as a JSON array (hand-rolled like every
/// other report in the workspace — the build stays dependency-free).
#[must_use]
pub fn audits_to_json(audits: &[BoundAudit]) -> String {
    let mut out = String::from("[\n");
    for (i, a) in audits.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"name\": {:?}, \"n_inputs\": {}, \"bound_wce\": {}, \"exact_wce\": {}, \
             \"wce_slack\": {}, \"bound_over\": {}, \"exact_over\": {}, \"bound_under\": {}, \
             \"exact_under\": {}, \"bound_error_rate\": {:.9}, \"exact_error_rate\": {:.9}, \
             \"bound_mean_abs\": {:.9}, \"exact_med\": {:.9}, \"sound\": {}}}",
            a.name,
            a.n_inputs,
            a.bound_wce,
            a.exact_wce,
            a.wce_slack,
            a.bound_over,
            a.exact_over,
            a.bound_under,
            a.exact_under,
            a.bound_error_rate,
            a.exact_error_rate,
            a.bound_mean_abs,
            a.exact_med,
            a.sound
        );
        out.push_str(if i + 1 == audits.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::{interleaved_operand_vars, twins, Bdd};

    #[test]
    fn every_static_bound_is_sound_against_exact_metrics() {
        let audits = audit_bounds();
        assert!(audits.len() >= 20, "expected the full config sweep, got {}", audits.len());
        for a in &audits {
            assert!(
                a.sound,
                "{}: bound (over {}, under {}, rate {}, mean {}) vs exact \
                 (over {}, under {}, rate {}, med {})",
                a.name,
                a.bound_over,
                a.bound_under,
                a.bound_error_rate,
                a.bound_mean_abs,
                a.exact_over,
                a.exact_under,
                a.exact_error_rate,
                a.exact_med
            );
        }
    }

    #[test]
    fn calculus_envelopes_match_the_monolithic_proof_where_exact() {
        let audits = audit_bounds();
        let calculus: Vec<&BoundAudit> =
            audits.iter().filter(|a| a.name.starts_with("calculus:")).collect();
        assert!(calculus.len() >= 12, "calculus audit sweep missing configs");
        for a in &calculus {
            assert!(a.sound, "{}: certified envelope unsound", a.name);
            if a.name.contains("Wallace") || a.name.contains("TruncMul") {
                assert_eq!(
                    a.wce_slack, 0,
                    "{}: exact distribution must have zero WCE slack",
                    a.name
                );
                assert!(
                    (a.bound_error_rate - a.exact_error_rate).abs() < 1e-9,
                    "{}: exact distribution must reproduce the error rate",
                    a.name
                );
            }
        }
    }

    #[test]
    fn derived_absint_bounds_are_sound_and_tight_on_small_registry_modules() {
        let audits = audit_bounds();
        let absint: Vec<&BoundAudit> =
            audits.iter().filter(|a| a.name.starts_with("absint:")).collect();
        assert!(absint.len() >= 20, "absint sweep missing configs: {}", absint.len());
        for a in &absint {
            assert!(a.sound, "{}: derived bound unsound", a.name);
            assert!(a.n_inputs <= 16, "{}: sweep is the ≤16-input registry", a.name);
            // ≤ 16 inputs means the derivation ran its exhaustive leg, so
            // the envelope is not merely sound but *exact* — zero WCE
            // slack and matching rate/mean. This pins the engine's
            // precision, not just its soundness.
            assert_eq!(a.wce_slack, 0, "{}: exhaustive derivation must be tight", a.name);
            assert!(
                (a.bound_error_rate - a.exact_error_rate).abs() < 1e-9,
                "{}: rate {} vs exact {}",
                a.name,
                a.bound_error_rate,
                a.exact_error_rate
            );
            assert!(
                (a.bound_mean_abs - a.exact_med).abs() < 1e-6,
                "{}: mean {} vs exact {}",
                a.name,
                a.bound_mean_abs,
                a.exact_med
            );
            // Stricter: the exhaustive leg's f64 sums of `2^-n · d` are
            // exact at ≤ 16 inputs, so they equal the engine's integer
            // counts divided once, bit for bit.
            assert_eq!(
                a.bound_mean_abs.to_bits(),
                a.exact_med.to_bits(),
                "{}: mean {} vs exact {}",
                a.name,
                a.bound_mean_abs,
                a.exact_med
            );
            assert_eq!(
                a.bound_error_rate.to_bits(),
                a.exact_error_rate.to_bits(),
                "{}: rate {} vs exact {}",
                a.name,
                a.bound_error_rate,
                a.exact_error_rate
            );
        }
    }

    #[test]
    fn mul_exact_matches_scalar_multiplication() {
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 4);
        let p = twins::mul_exact(&mut bdd, &a, &b);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut assignment = 0u64;
                for i in 0..4 {
                    assignment |= ((x >> i) & 1) << (2 * i);
                    assignment |= ((y >> i) & 1) << (2 * i + 1);
                }
                let mut got = 0u64;
                for (k, &bit) in p.iter().enumerate() {
                    got |= u64::from(bdd.eval(bit, assignment)) << k;
                }
                assert_eq!(got, x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn json_report_carries_slack_per_configuration() {
        let audits = &audit_bounds()[..3];
        let json = audits_to_json(audits);
        assert!(json.contains("\"wce_slack\""));
        assert!(json.contains("\"sound\": true"));
    }
}
