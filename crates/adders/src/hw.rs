//! Structural gate-level netlists of the multi-bit adders.
//!
//! The cost figures elsewhere in this crate compose per-cell
//! characterizations; this module closes the loop with the EDA substrate:
//! it *elaborates* a ripple-carry or GeAr adder into one flat gate netlist
//! (by inlining the 1-bit cell netlists), so the design can be
//! functionally verified bit-for-bit against the behavioural model
//! (ModelSim-style), characterized through the same toggle-counting flow
//! as the 1-bit cells, and exported to Verilog.
//!
//! Port convention: inputs `a0..a(N-1), b0..b(N-1)` (operand A in inputs
//! `0..N`), outputs `s0..sN` (sum LSB-first, carry-out last).
//!
//! # Example
//!
//! ```
//! use xlac_adders::hw::ripple_netlist;
//! use xlac_adders::{FullAdderKind, RippleCarryAdder, Adder};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let rca = RippleCarryAdder::with_approx_lsbs(4, FullAdderKind::Apx3, 2)?;
//! let nl = ripple_netlist(&rca);
//! // The netlist computes exactly what the behavioural model computes.
//! let (a, b) = (0b1011u64, 0b0110u64);
//! let packed = a | (b << 4);
//! assert_eq!(nl.eval(packed), rca.add(a, b));
//! # Ok(())
//! # }
//! ```

use crate::gear::GeArAdder;
use crate::ripple::RippleCarryAdder;
use xlac_logic::{Netlist, NetlistBuilder, Signal};

/// Elaborates a ripple-carry adder into a flat gate netlist
/// (`2N` inputs, `N + 1` outputs).
#[must_use]
pub fn ripple_netlist(adder: &RippleCarryAdder) -> Netlist {
    use crate::adder::Adder;
    let n = adder.width();
    let mut b = NetlistBuilder::new(adder.name(), 2 * n);
    let mut carry: Signal = b.constant(false);
    let mut sums = Vec::with_capacity(n + 1);
    for (i, cell) in adder.cells().iter().enumerate() {
        let fa = cell.structural_netlist();
        let outs = b.inline(&fa, &[Signal::Input(i), Signal::Input(n + i), carry]);
        sums.push(outs[0]);
        carry = outs[1];
    }
    for s in sums {
        b.output(s);
    }
    b.output(carry);
    b.finish().expect("ripple elaboration is well-formed")
}

/// Elaborates a GeAr adder (without the recovery stage) into a flat gate
/// netlist: `k` parallel accurate sub-adder chains with the paper's
/// result-bit selection (`2N` inputs, `N + 1` outputs).
#[must_use]
pub fn gear_netlist(adder: &GeArAdder) -> Netlist {
    gear_edc_netlist(adder, 0)
}

/// Elaborates a GeAr adder with `passes` unrolled rounds of the §6.1
/// error detection and recovery stage (`2N` inputs, `N + 1` outputs):
/// the netlist computes `add_with_correction(a, b, passes).value`.
///
/// Each round re-runs the `k` sub-adder chains with carry-ins set to the
/// injections decided so far, and flags sub-adder `s` when
/// `prev_cout ∧ propagate(P) ∧ ¬inject[s]` — the detection rule of
/// `GeArAdder::run`; the flags are ORed into the injections for the next
/// round. Only the last round drives the outputs. Rounds beyond `k − 1`
/// change nothing (the recovery loop's fixed point) and are not unrolled;
/// `passes = 0` is exactly [`gear_netlist`].
#[must_use]
pub fn gear_edc_netlist(adder: &GeArAdder, passes: usize) -> Netlist {
    use crate::adder::Adder;
    use crate::full_adder::FullAdderKind;
    use xlac_logic::GateKind;
    let n = adder.n();
    let (r, p, l) = (adder.r(), adder.p(), adder.l());
    let k = adder.sub_adder_count();
    let passes = passes.min(k - 1);
    let fa = FullAdderKind::Accurate.structural_netlist();

    let mut b = NetlistBuilder::new(adder.name(), 2 * n);
    let mut inject: Vec<Signal> = vec![b.constant(false); k];
    for pass in 0..=passes {
        let mut result: Vec<Option<Signal>> = vec![None; n + 1];
        let mut detected = Vec::with_capacity(k);
        let mut prev_carry = b.constant(false);
        for (s, &cin) in inject.iter().enumerate() {
            let lo = s * r;
            let mut carry = cin;
            for j in 0..l {
                let bit = lo + j;
                let outs = b.inline(&fa, &[Signal::Input(bit), Signal::Input(n + bit), carry]);
                carry = outs[1];
                // First sub-adder contributes all its bits; later sub-adders
                // only their R result bits above the P prediction window.
                if s == 0 || j >= p {
                    result[bit] = Some(outs[0]);
                }
            }
            if pass < passes && s > 0 {
                let mut terms = vec![prev_carry, b.gate(GateKind::Not, &[cin])];
                for bit in lo..lo + p {
                    terms.push(b.gate(GateKind::Xor2, &[Signal::Input(bit), Signal::Input(n + bit)]));
                }
                detected.push((s, b.tree(GateKind::And2, &terms)));
            }
            prev_carry = carry;
        }
        result[n] = Some(prev_carry);
        if pass == passes {
            for bit in result {
                b.output(bit.expect("every output bit is driven"));
            }
        }
        for (s, flag) in detected {
            inject[s] = b.gate(GateKind::Or2, &[inject[s], flag]);
        }
    }
    b.finish().expect("gear elaboration is well-formed")
}

/// Packs two `n`-bit operands into the flat input vector the elaborated
/// netlists expect (`a` in bits `0..n`, `b` in bits `n..2n`).
#[must_use]
pub fn pack_operands(a: u64, b: u64, n: usize) -> u64 {
    xlac_core::bits::truncate(a, n) | (xlac_core::bits::truncate(b, n) << n)
}

/// Elaborates an absolute-difference subtractor into a flat gate netlist:
/// `2N` inputs, `N + 1` outputs — `|a − b|` LSB-first, then the `a >= b`
/// (no-borrow) flag.
///
/// The structure mirrors [`crate::Subtractor::sub_x64`] stage for stage:
/// the (possibly approximate) ripple adder on `a + !b`, the exact `+1`
/// increment rippled across `N + 2` bit positions (the increment can
/// carry *past* the adder's carry-out), the no-borrow flag as the OR of
/// both top carry positions, and a conditional two's-complement negation
/// selected per lane by that flag.
#[must_use]
pub fn subtractor_netlist(sub: &crate::Subtractor<RippleCarryAdder>) -> Netlist {
    use xlac_logic::GateKind;
    let w = sub.width();
    let mut b = NetlistBuilder::new(sub.name(), 2 * w);
    let adder_nl = ripple_netlist(sub.adder());

    // a + !b through the approximate adder (w + 1 output bits).
    let mut fanin: Vec<Signal> = (0..w).map(Signal::Input).collect();
    for i in 0..w {
        fanin.push(b.gate(GateKind::Not, &[Signal::Input(w + i)]));
    }
    let raw = b.inline(&adder_nl, &fanin);

    // The +1 increment over w + 2 bit positions (carry-in of 1).
    let mut inc = Vec::with_capacity(w + 2);
    let mut carry = b.constant(true);
    for &r in raw.iter().take(w + 1) {
        inc.push(b.gate(GateKind::Xor2, &[r, carry]));
        carry = b.gate(GateKind::And2, &[r, carry]);
    }
    inc.push(carry);
    // No borrow when the increment reached bit w or bit w+1.
    let a_ge_b = b.gate(GateKind::Or2, &[inc[w], inc[w + 1]]);

    // Two's complement of the low word, for the borrow case.
    let mut neg = Vec::with_capacity(w);
    let mut c = b.constant(true);
    for &i in inc.iter().take(w) {
        let ni = b.gate(GateKind::Not, &[i]);
        neg.push(b.gate(GateKind::Xor2, &[ni, c]));
        c = b.gate(GateKind::And2, &[ni, c]);
    }

    // Magnitude: inc when a >= b, neg otherwise.
    for i in 0..w {
        let mag = b.gate(GateKind::Mux2, &[neg[i], inc[i], a_ge_b]);
        b.output(mag);
    }
    b.output(a_ge_b);
    b.finish().expect("subtractor elaboration is well-formed")
}

/// Elaborates GeAr's error-detection logic (the light-weight part of the
/// paper's EDC stage): one output per sub-adder boundary, asserted when
/// that sub-adder's prediction window is all-propagate **and** the
/// previous sub-adder generates a carry-out. `2N` inputs, `k − 1`
/// outputs (sub-adders `1..k`).
///
/// The detector re-derives each previous sub-adder's carry-out from the
/// operands with a generate/propagate chain, so it is a standalone
/// observer — exactly what the consolidated error correction unit (§6.1)
/// taps instead of per-adder recovery.
#[must_use]
pub fn gear_detector_netlist(adder: &GeArAdder) -> Netlist {
    use crate::adder::Adder;
    use xlac_logic::GateKind;
    let n = adder.n();
    let (r, p, l) = (adder.r(), adder.p(), adder.l());
    let k = adder.sub_adder_count();
    let mut b = NetlistBuilder::new(format!("{}_detector", adder.name()), 2 * n);

    let mut flags = Vec::with_capacity(k.saturating_sub(1));
    for s in 1..k {
        // Previous sub-adder's carry-out: g/p chain over its window with
        // carry-in 0.
        let prev_lo = (s - 1) * r;
        let mut carry: Signal = b.constant(false);
        for j in 0..l {
            let bit = prev_lo + j;
            let g = b.gate(GateKind::And2, &[Signal::Input(bit), Signal::Input(n + bit)]);
            let pr = b.gate(GateKind::Xor2, &[Signal::Input(bit), Signal::Input(n + bit)]);
            let pc = b.gate(GateKind::And2, &[pr, carry]);
            carry = b.gate(GateKind::Or2, &[g, pc]);
        }
        // This sub-adder's P prediction bits all propagate.
        let lo = s * r;
        let props: Vec<Signal> = (0..p)
            .map(|j| {
                let bit = lo + j;
                b.gate(GateKind::Xor2, &[Signal::Input(bit), Signal::Input(n + bit)])
            })
            .collect();
        let all_prop = b.tree(GateKind::And2, &props);
        let flag = b.gate(GateKind::And2, &[carry, all_prop]);
        flags.push(flag);
    }
    for f in flags {
        b.output(f);
    }
    b.finish().expect("detector elaboration is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::Adder;
    use crate::full_adder::FullAdderKind;
    use xlac_logic::synth::characterize;

    #[test]
    fn accurate_ripple_netlist_is_exhaustively_equivalent() {
        let rca = RippleCarryAdder::accurate(6);
        let nl = ripple_netlist(&rca);
        assert_eq!(nl.n_inputs(), 12);
        assert_eq!(nl.n_outputs(), 7);
        for a in 0u64..64 {
            for b in 0u64..64 {
                assert_eq!(nl.eval(pack_operands(a, b, 6)), a + b, "{a}+{b}");
            }
        }
    }

    #[test]
    fn approximate_ripple_netlists_match_behavioural_models() {
        for kind in FullAdderKind::APPROXIMATE {
            let rca = RippleCarryAdder::with_approx_lsbs(6, kind, 3).unwrap();
            let nl = ripple_netlist(&rca);
            for a in 0u64..64 {
                for b in 0u64..64 {
                    assert_eq!(
                        nl.eval(pack_operands(a, b, 6)),
                        rca.add(a, b),
                        "{kind}: {a}+{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn gear_netlist_matches_behavioural_model() {
        for (n, r, p) in [(6usize, 1usize, 1usize), (8, 2, 2), (8, 4, 0), (9, 3, 3), (12, 4, 4)] {
            let gear = GeArAdder::new(n, r, p).unwrap();
            let nl = gear_netlist(&gear);
            assert_eq!(nl.n_outputs(), n + 1);
            let step = if n <= 9 { 1 } else { 7 };
            for a in (0u64..(1 << n)).step_by(step) {
                for b in (0u64..(1 << n)).step_by(step * 3 + 1) {
                    assert_eq!(
                        nl.eval(pack_operands(a, b, n)),
                        gear.add(a, b).value,
                        "GeAr({n},{r},{p}): {a}+{b}"
                    );
                }
            }
            // The unrolled recovery stage, exhaustively for every pass
            // count up to one past the fixed point.
            if [(6, 1, 1), (8, 2, 2)].contains(&(n, r, p)) {
                for passes in 0..=gear.sub_adder_count() {
                    let edc = gear_edc_netlist(&gear, passes);
                    for a in 0u64..(1 << n) {
                        for b in 0u64..(1 << n) {
                            assert_eq!(
                                edc.eval(pack_operands(a, b, n)),
                                gear.add_with_correction(a, b, passes).value,
                                "GeAr({n},{r},{p}) + {passes} EDC passes: {a}+{b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn elaborated_area_matches_composed_cost_model() {
        // The composed model sums per-cell areas; elaboration inlines the
        // same cells — areas must agree exactly.
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4).unwrap();
        let nl = ripple_netlist(&rca);
        let composed = rca.hw_cost();
        let measured = characterize(&nl, 2048, 0x11);
        assert!(
            (measured.area_ge - composed.area_ge).abs() < 1e-9,
            "area: flow {} vs composed {}",
            measured.area_ge,
            composed.area_ge
        );
    }

    #[test]
    fn gear_netlist_area_scales_with_sub_adder_overlap() {
        let lean = gear_netlist(&GeArAdder::new(12, 4, 0).unwrap()); // k=3, L=4
        let rich = gear_netlist(&GeArAdder::new(12, 4, 4).unwrap()); // k=2, L=8
        // Total FA cells: 3*4 = 12 vs 2*8 = 16.
        assert!(rich.area_ge() > lean.area_ge());
        // The registry geometries, pinned gate for gate.
        for (n, r, p, gates, area) in
            [(11usize, 1usize, 9usize, 100usize, 173.0), (12, 4, 4, 80, 138.4), (16, 2, 6, 200, 346.0)]
        {
            let nl = gear_netlist(&GeArAdder::new(n, r, p).unwrap());
            assert_eq!(nl.gate_count(), gates, "GeAr({n},{r},{p}) gates");
            assert!((nl.area_ge() - area).abs() < 1e-9, "GeAr({n},{r},{p}) area {}", nl.area_ge());
        }
    }

    #[test]
    fn netlists_export_to_verilog() {
        let rca = RippleCarryAdder::accurate(4);
        let v = xlac_logic::verilog::to_verilog(&ripple_netlist(&rca));
        assert!(v.contains("module RCA_N_4_"));
        assert!(v.contains("endmodule"));
        let gear = GeArAdder::new(8, 2, 2).unwrap();
        let v = xlac_logic::verilog::to_verilog(&gear_netlist(&gear));
        assert!(v.contains("module GeAr_N_8_R_2_P_2_"));
    }

    #[test]
    fn detector_netlist_matches_behavioural_flags() {
        for (n, r, p) in [(8usize, 2usize, 2usize), (12, 4, 4), (9, 3, 3)] {
            let gear = GeArAdder::new(n, r, p).unwrap();
            let det = gear_detector_netlist(&gear);
            assert_eq!(det.n_outputs(), gear.sub_adder_count() - 1);
            let step = if n <= 9 { 1 } else { 5 };
            for a in (0u64..(1 << n)).step_by(step) {
                for b in (0u64..(1 << n)).step_by(step * 2 + 1) {
                    let (_, offsets) = gear.add_flagged(a, b);
                    let hw = det.eval(pack_operands(a, b, n));
                    for s in 1..gear.sub_adder_count() {
                        let expect = offsets.contains(&(s * r + p));
                        let got = (hw >> (s - 1)) & 1 == 1;
                        assert_eq!(got, expect, "GeAr({n},{r},{p}) s={s} a={a} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn detector_is_cheap_relative_to_the_adder() {
        let gear = GeArAdder::new(12, 4, 4).unwrap();
        let adder_area = gear_netlist(&gear).area_ge();
        let det_area = gear_detector_netlist(&gear).area_ge();
        assert!(det_area < adder_area, "detector {det_area} vs adder {adder_area}");
    }

    #[test]
    fn subtractor_netlist_is_exhaustively_equivalent() {
        use crate::Subtractor;
        for (kind, lsbs) in
            [(FullAdderKind::Accurate, 0), (FullAdderKind::Apx2, 3), (FullAdderKind::Apx5, 2)]
        {
            let sub = Subtractor::new(RippleCarryAdder::with_approx_lsbs(6, kind, lsbs).unwrap());
            let nl = subtractor_netlist(&sub);
            assert_eq!(nl.n_inputs(), 12);
            assert_eq!(nl.n_outputs(), 7);
            for a in 0u64..64 {
                for b in 0u64..64 {
                    let (mag, ge) = sub.sub(a, b);
                    let expect = mag | (u64::from(ge) << 6);
                    assert_eq!(nl.eval(pack_operands(a, b, 6)), expect, "{kind}: {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn subtractor_netlist_matches_x64_on_random_lanes() {
        use crate::Subtractor;
        use xlac_core::lanes::{from_planes, to_planes, LANES};
        use xlac_core::rng::{DefaultRng, Rng};
        let sub =
            Subtractor::new(RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4).unwrap());
        let nl = subtractor_netlist(&sub);
        let mut rng = DefaultRng::seed_from_u64(0x5B);
        let mut a = [0u64; LANES];
        let mut b = [0u64; LANES];
        rng.fill_u64(&mut a);
        rng.fill_u64(&mut b);
        let a = a.map(|v| v & 0xFF);
        let b = b.map(|v| v & 0xFF);
        let (mag, a_ge_b) = sub.sub_x64(&to_planes(&a, 8), &to_planes(&b, 8));
        let mags = from_planes(&mag);
        for j in 0..LANES {
            let hw = nl.eval(pack_operands(a[j], b[j], 8));
            assert_eq!(hw & 0xFF, mags[j], "lane {j}");
            assert_eq!((hw >> 8) & 1, (a_ge_b >> j) & 1, "lane {j} flag");
        }
    }

    #[test]
    fn apx5_lsbs_elaborate_to_pure_wiring() {
        // ApxFA5 cells contribute zero gates: the elaborated 4-bit adder
        // with 2 ApxFA5 LSBs has exactly 2 accurate cells' worth of gates.
        let rca = RippleCarryAdder::with_approx_lsbs(4, FullAdderKind::Apx5, 2).unwrap();
        let nl = ripple_netlist(&rca);
        let acc_cell_gates = FullAdderKind::Accurate.structural_netlist().gate_count();
        assert_eq!(nl.gate_count(), 2 * acc_cell_gates);
    }
}
