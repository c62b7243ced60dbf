//! Symbolic twins: the shipped components evaluated over BDD bits.
//!
//! Every composite twin (ripple and GeAr adders with the unrolled EDC
//! stage, the subtractor, the recursive, Wallace and truncated
//! multipliers) is derived from its structural netlist in
//! `xlac_adders::hw` / `xlac_multipliers::hw`, compiled by
//! [`compile_netlist`] over the ports `a ++ b`. The netlist that
//! simulation, costing and the `hdl/` export use is thus the very
//! function the error metrics ([`super::metrics`]) and the equivalence
//! prover ([`super::equiv`]) consume. What stays hand-written here is the
//! oracle side: the elementary cells expanded from their **truth tables**
//! ([`full_adder`], [`mul2x2`]) and the exact references ([`add_exact`],
//! [`mul_exact`]). The netlists are checked against the scalar models by
//! the tests below, the `hw` tests and the [`super::registry`] proofs.

use super::bdd::{Bdd, Ref, FALSE};
use super::compile::{compile_netlist, compile_truth_table};
use xlac_adders::hw::{gear_edc_netlist, ripple_netlist, subtractor_netlist};
use xlac_adders::{FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor};
use xlac_logic::Netlist;
use xlac_multipliers::hw::{recursive_netlist, truncated_netlist, wallace_netlist};
use xlac_multipliers::{
    ConfigurableMul2x2, Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier,
    WallaceMultiplier,
};

/// Compiles a two-operand `hw` netlist over the ports `a ++ b` (operand
/// `a` in inputs `0..width`, `b` in `width..2·width`); panics when an
/// operand length differs from `width`.
fn compile_ports(bdd: &mut Bdd, nl: &Netlist, width: usize, a: &[Ref], b: &[Ref]) -> Vec<Ref> {
    assert_eq!(a.len(), width, "operand a width");
    assert_eq!(b.len(), width, "operand b width");
    let ports: Vec<Ref> = a.iter().chain(b).copied().collect();
    compile_netlist(bdd, nl, &ports)
}

/// Applies one Table III full-adder cell, expanded from its truth table
/// (inputs packed `a | b<<1 | cin<<2`, as in
/// [`FullAdderKind::truth_table`]). Returns `(sum, cout)`.
pub fn full_adder(bdd: &mut Bdd, kind: FullAdderKind, a: Ref, b: Ref, cin: Ref) -> (Ref, Ref) {
    let tt = kind.truth_table();
    let outs = compile_truth_table(bdd, &tt, &[a, b, cin]);
    (outs[0], outs[1])
}

/// Applies one Fig.5 2×2 multiplier block, expanded from its truth table.
/// Returns the product bits `[p0, p1, p2, p3]`.
pub fn mul2x2(bdd: &mut Bdd, kind: Mul2x2Kind, a0: Ref, a1: Ref, b0: Ref, b1: Ref) -> [Ref; 4] {
    let tt = kind.truth_table();
    let outs = compile_truth_table(bdd, &tt, &[a0, a1, b0, b1]);
    [outs[0], outs[1], outs[2], outs[3]]
}

/// The configurable 2×2 multiplier as a truth table over
/// `a0 a1 b0 b1 mode` (the input order of
/// [`ConfigurableMul2x2::netlist`]), derived from the scalar model.
#[must_use]
pub fn configurable_mul2x2_table(cfg: &ConfigurableMul2x2) -> xlac_logic::TruthTable {
    xlac_logic::TruthTable::from_fn(5, 4, |x| cfg.mul(x & 0b11, (x >> 2) & 0b11, (x >> 4) & 1 == 1))
}

/// Exact ripple addition with explicit carry-in: the adder reference and
/// the workhorse of the exact signed differences.
/// Returns `x.len() + 1` bits, carry-out last.
///
/// # Panics
///
/// Panics when the operand lengths differ.
pub fn add_exact(bdd: &mut Bdd, x: &[Ref], y: &[Ref], cin: Ref) -> Vec<Ref> {
    assert_eq!(x.len(), y.len(), "exact add needs equal-width operands");
    let mut out = Vec::with_capacity(x.len() + 1);
    let mut carry = cin;
    for (&xi, &yi) in x.iter().zip(y) {
        let axb = bdd.xor(xi, yi);
        out.push(bdd.xor(axb, carry));
        let gen = bdd.and(xi, yi);
        let prop = bdd.and(axb, carry);
        carry = bdd.or(gen, prop);
    }
    out.push(carry);
    out
}

/// The exact product `a × b` over `2·a.len()` bits, by schoolbook
/// accumulation with exact ripples — the reference every approximate
/// multiplier twin is measured against. No wrap can occur: the product
/// always fits in `2·width` bits.
///
/// # Panics
///
/// Panics when the operand lengths differ.
pub fn mul_exact(bdd: &mut Bdd, a: &[Ref], b: &[Ref]) -> Vec<Ref> {
    assert_eq!(a.len(), b.len(), "exact multiply needs equal-width operands");
    let w = a.len();
    let cols = 2 * w;
    let mut acc = vec![FALSE; cols];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let mut carry = bdd.and(ai, bj);
            for slot in acc.iter_mut().skip(i + j) {
                let s = bdd.xor(*slot, carry);
                carry = bdd.and(*slot, carry);
                *slot = s;
            }
        }
    }
    acc
}

/// Symbolic [`RippleCarryAdder`] addition (`Adder::add`), compiled from
/// [`ripple_netlist`]. `a` and `b` must hold exactly `width` bits;
/// returns `width + 1` bits (carry-out last), matching the scalar
/// `sum | (carry << w)` layout.
///
/// # Panics
///
/// Panics when an operand length differs from the adder width.
pub fn ripple_adder(bdd: &mut Bdd, rca: &RippleCarryAdder, a: &[Ref], b: &[Ref]) -> Vec<Ref> {
    compile_ports(bdd, &ripple_netlist(rca), rca.cells().len(), a, b)
}

/// Symbolic [`GeArAdder`] addition, compiled from [`gear_edc_netlist`]:
/// `correction_passes = 0` mirrors [`GeArAdder::add`];
/// `correction_passes ≥ k − 1` mirrors
/// `add_with_correction(a, b, usize::MAX)` (the recovery loop reaches its
/// fixed point in at most `k − 1` passes, and extra passes are no-ops
/// because the detector masks already-injected sub-adders). Returns
/// `n + 1` bits.
///
/// # Panics
///
/// Panics when an operand length differs from the adder width.
pub fn gear_adder(
    bdd: &mut Bdd,
    gear: &GeArAdder,
    a: &[Ref],
    b: &[Ref],
    correction_passes: usize,
) -> Vec<Ref> {
    compile_ports(bdd, &gear_edc_netlist(gear, correction_passes), gear.n(), a, b)
}

/// Symbolic [`Subtractor::sub`] over a ripple-carry datapath, compiled
/// from [`subtractor_netlist`]: returns `(magnitude, a_ge_b)` with a
/// `width`-bit magnitude — the same `a + !b`, `+1` increment (rippling
/// past the adder carry-out) and conditional two's-complement negation as
/// the scalar model.
///
/// # Panics
///
/// Panics when an operand length differs from the subtractor width.
pub fn subtractor(
    bdd: &mut Bdd,
    sub: &Subtractor<RippleCarryAdder>,
    a: &[Ref],
    b: &[Ref],
) -> (Vec<Ref>, Ref) {
    let w = sub.width();
    let mut out = compile_ports(bdd, &subtractor_netlist(sub), w, a, b);
    let a_ge_b = out.pop().expect("the flag is the last output");
    (out, a_ge_b)
}

/// Symbolic [`RecursiveMultiplier`] product (`Multiplier::mul`), compiled
/// from [`recursive_netlist`] of the multiplier built from
/// `(width, block, sum)`: the same four-way recursion with OR
/// concatenation (including the stray-carry overlap at bit `w`) and
/// per-level summation adders. Returns `2·width` bits (the scalar `mul`
/// truncation).
///
/// # Panics
///
/// Panics when an operand length differs from `width` or the
/// configuration is invalid (the multiplier's own constructor accepts it,
/// so this cannot happen for a live instance).
pub fn recursive_multiplier(
    bdd: &mut Bdd,
    width: usize,
    block: Mul2x2Kind,
    sum: SumMode,
    a: &[Ref],
    b: &[Ref],
) -> Vec<Ref> {
    let m = RecursiveMultiplier::new(width, block, sum).expect("valid multiplier configuration");
    compile_ports(bdd, &recursive_netlist(&m), width, a, b)
}

/// Symbolic [`WallaceMultiplier`] product (`Multiplier::mul`), compiled
/// from [`wallace_netlist`]: the input-independent reduction schedule
/// followed by the exact carry-propagate addition with the carry-out
/// dropped. Returns `2·width` bits.
///
/// # Panics
///
/// Panics when an operand length differs from the multiplier width.
pub fn wallace_multiplier(bdd: &mut Bdd, m: &WallaceMultiplier, a: &[Ref], b: &[Ref]) -> Vec<Ref> {
    compile_ports(bdd, &wallace_netlist(m), m.width(), a, b)
}

/// Symbolic [`TruncatedMultiplier`] product (`Multiplier::mul`), compiled
/// from [`truncated_netlist`]: the surviving partial-product bits plus
/// the compensation constant, summed exactly modulo `2^{2w}`. Returns
/// `2·width` bits.
///
/// # Panics
///
/// Panics when an operand length differs from the multiplier width.
pub fn truncated_multiplier(
    bdd: &mut Bdd,
    m: &TruncatedMultiplier,
    a: &[Ref],
    b: &[Ref],
) -> Vec<Ref> {
    compile_ports(bdd, &truncated_netlist(m), m.width(), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::compile::interleaved_operand_vars;
    use xlac_adders::Adder;
    use xlac_multipliers::{Multiplier, RecursiveMultiplier};

    /// Evaluates a twin's output vector as an integer under `assignment`.
    fn eval_word(bdd: &Bdd, bits: &[Ref], assignment: u64) -> u64 {
        bits.iter().enumerate().map(|(k, &f)| u64::from(bdd.eval(f, assignment)) << k).sum()
    }

    /// Packs operands into the interleaved variable assignment.
    fn interleave(a: u64, b: u64, width: usize) -> u64 {
        (0..width).fold(0u64, |acc, i| {
            acc | (((a >> i) & 1) << (2 * i)) | (((b >> i) & 1) << (2 * i + 1))
        })
    }

    #[test]
    fn ripple_twin_matches_scalar_exhaustively() {
        for kind in [FullAdderKind::Apx1, FullAdderKind::Apx5] {
            let rca = RippleCarryAdder::with_approx_lsbs(4, kind, 2).unwrap();
            let mut bdd = Bdd::new();
            let (a, b) = interleaved_operand_vars(&mut bdd, 4);
            let out = ripple_adder(&mut bdd, &rca, &a, &b);
            for av in 0u64..16 {
                for bv in 0u64..16 {
                    let x = interleave(av, bv, 4);
                    assert_eq!(eval_word(&bdd, &out, x), rca.add(av, bv), "{kind} {av}+{bv}");
                }
            }
        }
    }

    #[test]
    fn gear_twin_matches_scalar_exhaustively() {
        let gear = GeArAdder::new(6, 1, 1).unwrap();
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 6);
        let plain = gear_adder(&mut bdd, &gear, &a, &b, 0);
        let k = gear.sub_adder_count();
        let corrected = gear_adder(&mut bdd, &gear, &a, &b, k - 1);
        for av in 0u64..64 {
            for bv in 0u64..64 {
                let x = interleave(av, bv, 6);
                assert_eq!(eval_word(&bdd, &plain, x), gear.add(av, bv).value, "{av}+{bv}");
                assert_eq!(
                    eval_word(&bdd, &corrected, x),
                    gear.add_with_correction(av, bv, usize::MAX).value,
                    "corrected {av}+{bv}"
                );
            }
        }
    }

    #[test]
    fn subtractor_twin_matches_scalar_exhaustively() {
        let rca = RippleCarryAdder::with_approx_lsbs(4, FullAdderKind::Apx3, 2).unwrap();
        let sub = Subtractor::new(rca);
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 4);
        let (mag, ge) = subtractor(&mut bdd, &sub, &a, &b);
        for av in 0u64..16 {
            for bv in 0u64..16 {
                let x = interleave(av, bv, 4);
                let (want_mag, want_ge) = sub.sub(av, bv);
                assert_eq!(eval_word(&bdd, &mag, x), want_mag, "{av}-{bv}");
                assert_eq!(bdd.eval(ge, x), want_ge, "{av}-{bv} sign");
            }
        }
    }

    #[test]
    fn recursive_twin_matches_scalar_exhaustively() {
        let m = RecursiveMultiplier::new(
            4,
            Mul2x2Kind::ApxOur,
            SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 },
        )
        .unwrap();
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 4);
        let out = recursive_multiplier(&mut bdd, 4, m.block(), m.sum_mode(), &a, &b);
        for av in 0u64..16 {
            for bv in 0u64..16 {
                let x = interleave(av, bv, 4);
                assert_eq!(eval_word(&bdd, &out, x), m.mul(av, bv), "{av}x{bv}");
            }
        }
    }

    #[test]
    fn wallace_twin_matches_scalar_exhaustively() {
        let m = WallaceMultiplier::new(4, FullAdderKind::Apx4, 3).unwrap();
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 4);
        let out = wallace_multiplier(&mut bdd, &m, &a, &b);
        for av in 0u64..16 {
            for bv in 0u64..16 {
                let x = interleave(av, bv, 4);
                assert_eq!(eval_word(&bdd, &out, x), m.mul(av, bv), "{av}x{bv}");
            }
        }
    }

    #[test]
    fn truncated_twin_matches_scalar_exhaustively() {
        let m = TruncatedMultiplier::new(4, 2, true).unwrap();
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 4);
        let out = truncated_multiplier(&mut bdd, &m, &a, &b);
        for av in 0u64..16 {
            for bv in 0u64..16 {
                let x = interleave(av, bv, 4);
                assert_eq!(eval_word(&bdd, &out, x), m.mul(av, bv), "{av}x{bv}");
            }
        }
    }
}
