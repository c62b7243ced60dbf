//! The elementary 2×2 multipliers of Fig.5.
//!
//! * `Accurate` — the exact 4-bit-product multiplier.
//! * `ApxSoA` — the Kulkarni (VLSI Design'11) design the paper cites as
//!   state of the art: the 4th product bit is eliminated, so `3×3 = 7`
//!   instead of 9 — a single error case with **max error value 2**.
//! * `ApxOur` — the paper's design for workloads that bound the *maximum
//!   error value* at 1: the MSB product bit (`a1·a0·b1·b0`, set only for
//!   3×3) is **wired to the LSB**, deleting the `a0·b0` gate. `3×3` stays
//!   exact; `1×1`, `1×3` and `3×1` lose their LSB — three error cases,
//!   max error 1.
//!
//! The configurable variants ([`ConfigurableMul2x2`]) add the correction
//! stage Fig.5 names: an *adder* for `CfgMulSoA` (re-inserts the dropped
//! 2³ term) and an *inverter-class* fix for `CfgMulOur` (restores
//! `p0 = a0·b0`), which is why `CfgMulOur` is the cheaper configurable
//! design.
//!
//! # Example
//!
//! ```
//! use xlac_multipliers::{ConfigurableMul2x2, Mul2x2Kind};
//!
//! let cfg = ConfigurableMul2x2::new(Mul2x2Kind::ApxOur);
//! assert_eq!(cfg.mul(3, 1, false), 2); // approximate mode: LSB lost
//! assert_eq!(cfg.mul(3, 1, true), 3);  // accurate mode: corrected
//! ```

use crate::Multiplier;
use std::fmt;
use std::sync::OnceLock;
use xlac_core::characterization::HwCost;
use xlac_logic::synth::characterize;
use xlac_logic::{GateKind, Netlist, NetlistBuilder, TruthTable};

/// The three (non-configurable) 2×2 multiplier designs of Fig.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mul2x2Kind {
    /// Exact 2×2 multiplier (`AccMul`).
    Accurate,
    /// Kulkarni's under-designed multiplier (`ApxMulSoA`): 3×3 → 7.
    ApxSoA,
    /// The paper's multiplier (`ApxMulOur`): MSB wired to LSB.
    ApxOur,
}

impl Mul2x2Kind {
    /// All three kinds, in Fig.5 order.
    pub const ALL: [Mul2x2Kind; 3] = [Mul2x2Kind::Accurate, Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur];

    /// Multiplies two 2-bit operands (values 0..=3), returning the 4-bit
    /// (possibly approximate) product.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when an operand exceeds 3.
    #[inline]
    #[must_use]
    pub fn mul(self, a: u64, b: u64) -> u64 {
        debug_assert!(a <= 3 && b <= 3, "2x2 operands must be 2-bit");
        match self {
            Mul2x2Kind::Accurate => a * b,
            Mul2x2Kind::ApxSoA => {
                // Structural form with the 4th bit eliminated:
                // p2 = a1·b1, p1 = a1·b0 + a0·b1, p0 = a0·b0 — so 3×3
                // produces 111 = 7, every other pair is exact.
                let (a0, a1) = (a & 1, (a >> 1) & 1);
                let (b0, b1) = (b & 1, (b >> 1) & 1);
                (a0 & b0) | (((a1 & b0) | (a0 & b1)) << 1) | ((a1 & b1) << 2)
            }
            Mul2x2Kind::ApxOur => {
                let exact = a * b;
                let p3 = (exact >> 3) & 1;
                (exact & 0b1110) | p3
            }
        }
    }

    /// Evaluates the 2×2 block on 64 independent lanes at once: each
    /// argument is one operand *bit* across 64 lanes and the result is
    /// the four product bit-planes `[p0, p1, p2, p3]`.
    ///
    /// Each arm is the gate structure of the Fig.5 design (the same gates
    /// as [`Mul2x2Kind::netlist`]); the differential tests pin every lane
    /// to [`Mul2x2Kind::mul`].
    #[inline]
    #[must_use]
    pub fn mul_x64(self, a0: u64, a1: u64, b0: u64, b1: u64) -> [u64; 4] {
        match self {
            Mul2x2Kind::Accurate => {
                let t1 = a1 & b0;
                let t2 = a0 & b1;
                let c = t1 & t2;
                let p11 = a1 & b1;
                [a0 & b0, t1 ^ t2, p11 ^ c, p11 & c]
            }
            Mul2x2Kind::ApxSoA => [a0 & b0, (a1 & b0) | (a0 & b1), a1 & b1, 0],
            Mul2x2Kind::ApxOur => {
                // Accurate structure with the a0·b0 gate deleted and the
                // MSB (set only for 3×3) wired to the LSB position too.
                let t1 = a1 & b0;
                let t2 = a0 & b1;
                let c = t1 & t2;
                let p11 = a1 & b1;
                let p3 = p11 & c;
                [p3, t1 ^ t2, p11 ^ c, p3]
            }
        }
    }

    /// The design's truth table (4 inputs `a0 a1 b0 b1`, 4 outputs).
    #[must_use]
    pub fn truth_table(self) -> TruthTable {
        TruthTable::from_fn(4, 4, |x| {
            let a = x & 0b11;
            let b = (x >> 2) & 0b11;
            self.mul(a, b)
        })
    }

    /// Number of operand pairs with a wrong product (Fig.5: 0, 1, 3).
    #[must_use]
    pub fn error_cases(self) -> usize {
        (0u64..4)
            .flat_map(|a| (0u64..4).map(move |b| (a, b)))
            .filter(|&(a, b)| self.mul(a, b) != a * b)
            .count()
    }

    /// Maximum `|approx − exact|` over all operand pairs (Fig.5: 0, 2, 1).
    #[must_use]
    pub fn max_error_value(self) -> u64 {
        (0u64..4)
            .flat_map(|a| (0u64..4).map(move |b| (a, b)))
            .map(|(a, b)| self.mul(a, b).abs_diff(a * b))
            .max()
            .expect("non-empty operand space")
    }

    /// A structural gate netlist of the design (inputs `a0 a1 b0 b1`,
    /// outputs `p0..p3`).
    #[must_use]
    pub fn netlist(self) -> Netlist {
        let mut nb = NetlistBuilder::new(self.to_string(), 4);
        let (a0, a1, b0, b1) = (nb.input(0), nb.input(1), nb.input(2), nb.input(3));
        match self {
            Mul2x2Kind::Accurate => {
                let p00 = nb.gate(GateKind::And2, &[a0, b0]);
                let p10 = nb.gate(GateKind::And2, &[a1, b0]);
                let p01 = nb.gate(GateKind::And2, &[a0, b1]);
                let p11 = nb.gate(GateKind::And2, &[a1, b1]);
                let p1 = nb.gate(GateKind::Xor2, &[p10, p01]);
                let c = nb.gate(GateKind::And2, &[p10, p01]);
                let p2 = nb.gate(GateKind::Xor2, &[p11, c]);
                let p3 = nb.gate(GateKind::And2, &[p11, c]);
                nb.output(p00);
                nb.output(p1);
                nb.output(p2);
                nb.output(p3);
            }
            Mul2x2Kind::ApxSoA => {
                // Kulkarni: p2 = a1·b1, p1 = a1·b0 + a0·b1, p0 = a0·b0,
                // p3 eliminated.
                let p00 = nb.gate(GateKind::And2, &[a0, b0]);
                let p10 = nb.gate(GateKind::And2, &[a1, b0]);
                let p01 = nb.gate(GateKind::And2, &[a0, b1]);
                let p2 = nb.gate(GateKind::And2, &[a1, b1]);
                let p1 = nb.gate(GateKind::Or2, &[p10, p01]);
                let zero = nb.constant(false);
                nb.output(p00);
                nb.output(p1);
                nb.output(p2);
                nb.output(zero);
            }
            Mul2x2Kind::ApxOur => {
                // Accurate structure minus the a0·b0 gate; p0 = p3 wire.
                let p10 = nb.gate(GateKind::And2, &[a1, b0]);
                let p01 = nb.gate(GateKind::And2, &[a0, b1]);
                let p11 = nb.gate(GateKind::And2, &[a1, b1]);
                let p1 = nb.gate(GateKind::Xor2, &[p10, p01]);
                let c = nb.gate(GateKind::And2, &[p10, p01]);
                let p2 = nb.gate(GateKind::Xor2, &[p11, c]);
                let p3 = nb.gate(GateKind::And2, &[p11, c]);
                nb.output(p3); // p0 := p3
                nb.output(p1);
                nb.output(p2);
                nb.output(p3);
            }
        }
        nb.finish().expect("2x2 netlists are well-formed")
    }

    /// Hardware cost via the structural netlist (cached).
    #[must_use]
    pub fn hw_cost(self) -> HwCost {
        static COSTS: OnceLock<[HwCost; 3]> = OnceLock::new();
        let index = match self {
            Mul2x2Kind::Accurate => 0,
            Mul2x2Kind::ApxSoA => 1,
            Mul2x2Kind::ApxOur => 2,
        };
        COSTS.get_or_init(|| {
            let mut costs = [HwCost::ZERO; 3];
            for (i, kind) in Mul2x2Kind::ALL.iter().enumerate() {
                costs[i] = characterize(&kind.netlist(), 4096, 0x22);
            }
            costs
        })[index]
    }
}

impl fmt::Display for Mul2x2Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mul2x2Kind::Accurate => "AccMul",
            Mul2x2Kind::ApxSoA => "ApxMulSoA",
            Mul2x2Kind::ApxOur => "ApxMulOur",
        })
    }
}

impl Multiplier for Mul2x2Kind {
    fn width(&self) -> usize {
        2
    }

    fn mul(&self, a: u64, b: u64) -> u64 {
        Mul2x2Kind::mul(*self, a & 0b11, b & 0b11)
    }

    fn name(&self) -> String {
        self.to_string()
    }

    fn hw_cost(&self) -> HwCost {
        Mul2x2Kind::hw_cost(*self)
    }
}

/// An accuracy-configurable 2×2 multiplier: an approximate core plus the
/// correction stage of Fig.5, selected per multiplication by a mode bit
/// (driven by the accelerator's configuration word).
///
/// `CfgMulSoA` corrects with an **adder** (re-adding the dropped `2³`
/// term); `CfgMulOur` corrects with an **inverter-class** fix on `p0` —
/// which is why the paper reports it smaller and cooler than `CfgMulSoA`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigurableMul2x2 {
    core: Mul2x2Kind,
}

impl ConfigurableMul2x2 {
    /// Wraps an approximate core with its correction stage.
    ///
    /// # Panics
    ///
    /// Panics when `core` is [`Mul2x2Kind::Accurate`] (nothing to
    /// configure).
    #[must_use]
    pub fn new(core: Mul2x2Kind) -> Self {
        assert!(core != Mul2x2Kind::Accurate, "configurable core must be approximate");
        ConfigurableMul2x2 { core }
    }

    /// The approximate core design.
    #[must_use]
    pub fn core(&self) -> Mul2x2Kind {
        self.core
    }

    /// Multiplies in the selected mode: `accurate = true` engages the
    /// correction stage and yields the exact product.
    #[must_use]
    pub fn mul(&self, a: u64, b: u64, accurate: bool) -> u64 {
        let (a, b) = (a & 0b11, b & 0b11);
        if accurate {
            a * b
        } else {
            self.core.mul(a, b)
        }
    }

    /// A structural netlist of the configurable design: inputs
    /// `a0 a1 b0 b1 mode`, outputs `p0..p3`; `mode = 1` engages the
    /// correction stage.
    ///
    /// * `CfgMulSoA` — Fig.5's "correction: adder": detect `3×3`
    ///   (`d = a0·a1·b0·b1·mode`) and re-insert the dropped `2³` term
    ///   (`p3 = d`, `p1/p2` masked by `!d`), turning `0111` back into
    ///   `1001`.
    /// * `CfgMulOur` — Fig.5's "correction: inverter": a single gate-level
    ///   fix restoring `p0 = p3 + mode·a0·b0`.
    #[must_use]
    pub fn netlist(&self) -> Netlist {
        let mut nb = NetlistBuilder::new(self.name(), 5);
        let (a0, a1, b0, b1, mode) =
            (nb.input(0), nb.input(1), nb.input(2), nb.input(3), nb.input(4));
        match self.core {
            Mul2x2Kind::ApxSoA => {
                let p00 = nb.gate(GateKind::And2, &[a0, b0]);
                let p10 = nb.gate(GateKind::And2, &[a1, b0]);
                let p01 = nb.gate(GateKind::And2, &[a0, b1]);
                let p11 = nb.gate(GateKind::And2, &[a1, b1]);
                let p1 = nb.gate(GateKind::Or2, &[p10, p01]);
                // Fig.5's "correction: adder" — the dropped term has error
                // value 2, so detect the 3×3 row and *add 2* to the
                // approximate product through a half-adder chain on bits
                // 1..3.
                let aa = nb.gate(GateKind::And2, &[a0, a1]);
                let bb = nb.gate(GateKind::And2, &[b0, b1]);
                let all = nb.gate(GateKind::And2, &[aa, bb]);
                let d = nb.gate(GateKind::And2, &[all, mode]);
                let s1 = nb.gate(GateKind::Xor2, &[p1, d]);
                let c1 = nb.gate(GateKind::And2, &[p1, d]);
                let s2 = nb.gate(GateKind::Xor2, &[p11, c1]);
                let c2 = nb.gate(GateKind::And2, &[p11, c1]);
                nb.output(p00);
                nb.output(s1);
                nb.output(s2);
                nb.output(c2);
            }
            Mul2x2Kind::ApxOur => {
                let p10 = nb.gate(GateKind::And2, &[a1, b0]);
                let p01 = nb.gate(GateKind::And2, &[a0, b1]);
                let p11 = nb.gate(GateKind::And2, &[a1, b1]);
                let p1 = nb.gate(GateKind::Xor2, &[p10, p01]);
                let c = nb.gate(GateKind::And2, &[p10, p01]);
                let p2 = nb.gate(GateKind::Xor2, &[p11, c]);
                let p3 = nb.gate(GateKind::And2, &[p11, c]);
                // Inverter-class fix: p0 = p3 + mode·a0·b0.
                let ab = nb.gate(GateKind::And2, &[a0, b0]);
                let fix = nb.gate(GateKind::And2, &[ab, mode]);
                let p0 = nb.gate(GateKind::Or2, &[p3, fix]);
                nb.output(p0);
                nb.output(p1);
                nb.output(p2);
                nb.output(p3);
            }
            Mul2x2Kind::Accurate => unreachable!("constructor rejects accurate cores"),
        }
        nb.finish().expect("configurable 2x2 netlists are well-formed")
    }

    /// Hardware cost measured from the configurable netlist (cached).
    #[must_use]
    pub fn hw_cost(&self) -> HwCost {
        static COSTS: OnceLock<[HwCost; 2]> = OnceLock::new();
        let index = usize::from(self.core == Mul2x2Kind::ApxOur);
        COSTS.get_or_init(|| {
            [
                characterize(
                    &ConfigurableMul2x2 { core: Mul2x2Kind::ApxSoA }.netlist(),
                    4096,
                    0x2C,
                ),
                characterize(
                    &ConfigurableMul2x2 { core: Mul2x2Kind::ApxOur }.netlist(),
                    4096,
                    0x2C,
                ),
            ]
        })[index]
    }

    /// Instance name (`"CfgMulSoA"` / `"CfgMulOur"`).
    #[must_use]
    pub fn name(&self) -> String {
        match self.core {
            Mul2x2Kind::ApxSoA => "CfgMulSoA".to_string(),
            Mul2x2Kind::ApxOur => "CfgMulOur".to_string(),
            Mul2x2Kind::Accurate => unreachable!("constructor rejects accurate cores"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_table() {
        for a in 0u64..4 {
            for b in 0u64..4 {
                assert_eq!(Mul2x2Kind::Accurate.mul(a, b), a * b);
            }
        }
    }

    #[test]
    fn soa_only_errs_on_three_times_three() {
        for a in 0u64..4 {
            for b in 0u64..4 {
                let p = Mul2x2Kind::ApxSoA.mul(a, b);
                if a == 3 && b == 3 {
                    assert_eq!(p, 7);
                } else {
                    assert_eq!(p, a * b, "{a}x{b}");
                }
            }
        }
        assert_eq!(Mul2x2Kind::ApxSoA.error_cases(), 1);
        assert_eq!(Mul2x2Kind::ApxSoA.max_error_value(), 2);
    }

    #[test]
    fn our_design_matches_fig5_truth_table() {
        // Fig.5's ApxMulOur rows.
        let expected: [[u64; 4]; 4] = [
            [0b0000, 0b0000, 0b0000, 0b0000],
            [0b0000, 0b0000, 0b0010, 0b0010],
            [0b0000, 0b0010, 0b0100, 0b0110],
            [0b0000, 0b0010, 0b0110, 0b1001],
        ];
        for a in 0u64..4 {
            for b in 0u64..4 {
                assert_eq!(
                    Mul2x2Kind::ApxOur.mul(a, b),
                    expected[a as usize][b as usize],
                    "{a}x{b}"
                );
            }
        }
        assert_eq!(Mul2x2Kind::ApxOur.error_cases(), 3);
        assert_eq!(Mul2x2Kind::ApxOur.max_error_value(), 1);
    }

    #[test]
    fn our_design_underestimates_only() {
        for a in 0u64..4 {
            for b in 0u64..4 {
                assert!(Mul2x2Kind::ApxOur.mul(a, b) <= a * b);
            }
        }
    }

    #[test]
    fn netlists_match_behaviour() {
        for kind in Mul2x2Kind::ALL {
            let nl = kind.netlist();
            let tt = kind.truth_table();
            assert_eq!(xlac_logic::synth::verify_against(&nl, &tt), 0, "{kind}");
        }
    }

    #[test]
    fn fig5_cost_ordering() {
        let acc = Mul2x2Kind::Accurate.hw_cost();
        let soa = Mul2x2Kind::ApxSoA.hw_cost();
        let our = Mul2x2Kind::ApxOur.hw_cost();
        // Both approximate designs are cheaper than accurate; SoA (which
        // deletes the whole upper-bit column) is the cheapest.
        assert!(soa.area_ge < acc.area_ge);
        assert!(our.area_ge < acc.area_ge);
        assert!(soa.area_ge < our.area_ge);
        assert!(soa.power_nw < acc.power_nw);
        assert!(our.power_nw < acc.power_nw);
    }

    #[test]
    fn configurable_correction_restores_exactness() {
        for core in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
            let cfg = ConfigurableMul2x2::new(core);
            for a in 0u64..4 {
                for b in 0u64..4 {
                    assert_eq!(cfg.mul(a, b, true), a * b, "{core} accurate mode");
                    assert_eq!(cfg.mul(a, b, false), core.mul(a, b), "{core} approx mode");
                }
            }
        }
    }

    #[test]
    fn configurable_netlists_match_behaviour() {
        for core in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
            let cfg = ConfigurableMul2x2::new(core);
            let nl = cfg.netlist();
            for x in 0u64..32 {
                let a = x & 0b11;
                let b = (x >> 2) & 0b11;
                let mode = (x >> 4) & 1 == 1;
                assert_eq!(
                    nl.eval(x),
                    cfg.mul(a, b, mode),
                    "{} a={a} b={b} mode={mode}",
                    cfg.name()
                );
            }
        }
    }

    #[test]
    fn cfg_our_is_cheaper_than_cfg_soa() {
        // The paper's point: correction by inverter beats correction by
        // adder.
        let soa = ConfigurableMul2x2::new(Mul2x2Kind::ApxSoA).hw_cost();
        let our = ConfigurableMul2x2::new(Mul2x2Kind::ApxOur).hw_cost();
        assert!(our.area_ge < soa.area_ge);
        assert!(our.power_nw < soa.power_nw);
    }

    #[test]
    #[should_panic(expected = "must be approximate")]
    fn configurable_rejects_accurate_core() {
        let _ = ConfigurableMul2x2::new(Mul2x2Kind::Accurate);
    }

    #[test]
    fn names() {
        assert_eq!(Mul2x2Kind::ApxSoA.to_string(), "ApxMulSoA");
        assert_eq!(ConfigurableMul2x2::new(Mul2x2Kind::ApxOur).name(), "CfgMulOur");
    }
}
