//! Recursive multi-bit multipliers composed from 2×2 blocks (Fig.6).
//!
//! An `N×N` product decomposes as
//! `a·b = p_hh·2^N + (p_hl + p_lh)·2^{N/2} + p_ll` over four
//! `N/2 × N/2` sub-products; recursing down to the elementary 2×2 blocks
//! of [`crate::Mul2x2Kind`] yields the paper's multi-bit construction.
//! The partial-product additions run through configurable ripple-carry
//! adders whose low cells may be approximated ([`SumMode`]) — the second
//! approximation axis of Section 5 ("different numbers of LSBs to be
//! approximated in multi-bit approximate adders used for partial product
//! summation").
//!
//! # Example
//!
//! ```
//! use xlac_multipliers::{Multiplier, Mul2x2Kind, RecursiveMultiplier, SumMode};
//! use xlac_adders::FullAdderKind;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let exact = RecursiveMultiplier::new(8, Mul2x2Kind::Accurate, SumMode::Accurate)?;
//! assert_eq!(exact.mul(255, 255), 255 * 255);
//!
//! let approx = RecursiveMultiplier::new(
//!     8,
//!     Mul2x2Kind::ApxSoA,
//!     SumMode::ApproxLsbs { kind: FullAdderKind::Apx1, lsbs: 4 },
//! )?;
//! assert!(approx.hw_cost().area_ge < exact.hw_cost().area_ge);
//! # Ok(())
//! # }
//! ```

use crate::mul2x2::Mul2x2Kind;
use crate::{Multiplier, MultiplierX64};
use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder};
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};

/// How partial products are summed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumMode {
    /// Exact ripple-carry summation.
    Accurate,
    /// Each summation adder approximates its `lsbs` least-significant
    /// cells with `kind` (clamped to the adder width).
    ApproxLsbs {
        /// Approximate full-adder cell for the low bits.
        kind: FullAdderKind,
        /// How many LSB cells to approximate per adder instance.
        lsbs: usize,
    },
}

/// An `N×N` multiplier recursively composed from 2×2 blocks.
#[derive(Debug, Clone)]
pub struct RecursiveMultiplier {
    width: usize,
    block: Mul2x2Kind,
    sum: SumMode,
    /// Pre-built summation adders for widths 4..=2·width, index `log2(w) - 2`.
    adders: Vec<RippleCarryAdder>,
}

impl RecursiveMultiplier {
    /// Creates an `width × width` multiplier (width a power of two in
    /// `2..=32`).
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidWidth`] for non-power-of-two or
    /// out-of-range widths.
    pub fn new(width: usize, block: Mul2x2Kind, sum: SumMode) -> Result<Self> {
        if !(2..=32).contains(&width) || !width.is_power_of_two() {
            return Err(XlacError::InvalidWidth { width, max: 32 });
        }
        let mut adders = Vec::new();
        let mut w = 4usize;
        while w <= 2 * width {
            adders.push(Self::build_adder(w, sum)?);
            w *= 2;
        }
        Ok(RecursiveMultiplier { width, block, sum, adders })
    }

    fn build_adder(width: usize, sum: SumMode) -> Result<RippleCarryAdder> {
        match sum {
            SumMode::Accurate => Ok(RippleCarryAdder::accurate(width)),
            SumMode::ApproxLsbs { kind, lsbs } => {
                RippleCarryAdder::with_approx_lsbs(width, kind, lsbs.min(width))
            }
        }
    }

    /// The elementary block design.
    #[must_use]
    pub fn block(&self) -> Mul2x2Kind {
        self.block
    }

    /// The partial-product summation mode.
    #[must_use]
    pub fn sum_mode(&self) -> SumMode {
        self.sum
    }

    /// The summation adder of one recursion level (`width` a power of two
    /// in `4..=2·self.width`).
    pub(crate) fn adder(&self, width: usize) -> &RippleCarryAdder {
        // Levels are the powers of two 4..=2·width; index by log2 so the
        // hot recursion avoids a hash probe per summation.
        &self.adders[width.trailing_zeros() as usize - 2]
    }

    fn mul_rec(&self, w: usize, a: u64, b: u64) -> u64 {
        if w == 2 {
            return self.block.mul(a & 0b11, b & 0b11);
        }
        let h = w / 2;
        let (al, ah) = (bits::truncate(a, h), bits::field(a, h, h));
        let (bl, bh) = (bits::truncate(b, h), bits::field(b, h, h));
        let p_ll = self.mul_rec(h, al, bl);
        let p_lh = self.mul_rec(h, al, bh);
        let p_hl = self.mul_rec(h, ah, bl);
        let p_hh = self.mul_rec(h, ah, bh);
        // p_ll and p_hh occupy disjoint bit ranges: concatenation, no adder.
        let outer = p_ll | (p_hh << w);
        // One w-bit add for the two middle products…
        let mid = self.adder(w).add(p_lh, p_hl);
        // …and one 2w-bit add to merge them in at offset h.
        self.adder(2 * w).add(outer, mid << h)
    }

    /// Bit-sliced mirror of `mul_rec`: identical recursion, identical OR
    /// concatenation (including the stray-carry plane overlap at plane
    /// `w`), identical adder truncation — writes `2w + 1` planes into
    /// `out`. Operands must hold exactly `w` planes (the public entry
    /// normalizes); all scratch lives on the stack, so a full product
    /// evaluation performs no heap allocation.
    fn mul_rec_x64_into(&self, w: usize, a: &[u64], b: &[u64], out: &mut [u64]) {
        debug_assert_eq!(a.len(), w);
        debug_assert_eq!(b.len(), w);
        debug_assert_eq!(out.len(), 2 * w + 1);
        if w == 2 {
            let p = self.block.mul_x64(a[0], a[1], b[0], b[1]);
            out[..4].copy_from_slice(&p);
            out[4] = 0;
            return;
        }
        if w == 4 {
            return self.mul4_x64_into(a, b, out);
        }
        if w == 8 {
            return self.mul8_x64_into(a, b, out);
        }
        let h = w / 2;
        let (al, ah) = a.split_at(h);
        let (bl, bh) = b.split_at(h);
        // Sub-products carry 2h + 1 = w + 1 ≤ 33 planes (width ≤ 32).
        let mut p_ll = [0u64; 33];
        let mut p_lh = [0u64; 33];
        let mut p_hl = [0u64; 33];
        let mut p_hh = [0u64; 33];
        self.mul_rec_x64_into(h, al, bl, &mut p_ll[..w + 1]);
        self.mul_rec_x64_into(h, al, bh, &mut p_lh[..w + 1]);
        self.mul_rec_x64_into(h, ah, bl, &mut p_hl[..w + 1]);
        self.mul_rec_x64_into(h, ah, bh, &mut p_hh[..w + 1]);
        // outer = p_ll | (p_hh << w): the stray-carry plane of p_ll (index
        // w) overlaps plane 0 of the shifted p_hh as a bitwise OR, exactly
        // like the scalar concatenation.
        let mut outer = [0u64; 65];
        outer[..=w].copy_from_slice(&p_ll[..=w]);
        for i in 0..=w {
            outer[w + i] |= p_hh[i];
        }
        // The w-bit adder truncates its operands to w planes (dropping the
        // sub-products' stray carries), as does the scalar datapath.
        let mut mid = [0u64; 33];
        self.adder(w).add_x64_into(&p_lh[..w], &p_hl[..w], &mut mid[..w + 1]);
        let mut mid_shifted = [0u64; 64];
        mid_shifted[h..h + w + 1].copy_from_slice(&mid[..w + 1]);
        self.adder(2 * w).add_x64_into(&outer[..2 * w], &mid_shifted[..2 * w], out);
    }

    /// `w = 4` level of `mul_rec_x64_into` with exact-size stack buffers:
    /// the sub-products are 2×2 blocks directly, so the whole level is
    /// straight-line code. Same structure, same stray-carry overlap, same
    /// adder truncation as the generic path.
    fn mul4_x64_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        debug_assert_eq!(out.len(), 9);
        let p_ll = self.block.mul_x64(a[0], a[1], b[0], b[1]);
        let p_lh = self.block.mul_x64(a[0], a[1], b[2], b[3]);
        let p_hl = self.block.mul_x64(a[2], a[3], b[0], b[1]);
        let p_hh = self.block.mul_x64(a[2], a[3], b[2], b[3]);
        // The 2×2 base never produces a stray plane-4 carry, so
        // outer = p_ll | (p_hh << 4) is a plain concatenation here.
        let mut outer = [0u64; 8];
        outer[..4].copy_from_slice(&p_ll);
        outer[4..].copy_from_slice(&p_hh);
        let mut mid = [0u64; 5];
        self.adder(4).add_x64_into(&p_lh, &p_hl, &mut mid);
        let mut mid_shifted = [0u64; 8];
        mid_shifted[2..7].copy_from_slice(&mid);
        self.adder(8).add_x64_into(&outer, &mid_shifted, out);
    }

    /// `w = 8` level of `mul_rec_x64_into` with exact-size stack buffers.
    fn mul8_x64_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        debug_assert_eq!(out.len(), 17);
        let (al, ah) = a.split_at(4);
        let (bl, bh) = b.split_at(4);
        let mut p_ll = [0u64; 9];
        let mut p_lh = [0u64; 9];
        let mut p_hl = [0u64; 9];
        let mut p_hh = [0u64; 9];
        self.mul4_x64_into(al, bl, &mut p_ll);
        self.mul4_x64_into(al, bh, &mut p_lh);
        self.mul4_x64_into(ah, bl, &mut p_hl);
        self.mul4_x64_into(ah, bh, &mut p_hh);
        // outer = p_ll | (p_hh << 8), stray plane 8 of p_ll overlapping
        // plane 0 of the shifted p_hh — exactly the generic path.
        let mut outer = [0u64; 17];
        outer[..9].copy_from_slice(&p_ll);
        for i in 0..9 {
            outer[8 + i] |= p_hh[i];
        }
        let mut mid = [0u64; 9];
        self.adder(8).add_x64_into(&p_lh[..8], &p_hl[..8], &mut mid);
        let mut mid_shifted = [0u64; 16];
        mid_shifted[4..13].copy_from_slice(&mid);
        self.adder(16).add_x64_into(&outer[..16], &mid_shifted, out);
    }
}

impl MultiplierX64 for RecursiveMultiplier {
    fn mul_x64(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let w = self.width;
        // Normalize to exactly `w` operand planes: missing planes read as
        // zero, extra planes are ignored (truncate-on-input semantics).
        let mut na = [0u64; 32];
        let mut nb = [0u64; 32];
        na[..w.min(a.len())].copy_from_slice(&a[..w.min(a.len())]);
        nb[..w.min(b.len())].copy_from_slice(&b[..w.min(b.len())]);
        let mut product = [0u64; 65];
        self.mul_rec_x64_into(w, &na[..w], &nb[..w], &mut product[..2 * w + 1]);
        // The stray top-level carry plane is dropped, as in `mul`.
        product[..2 * w].to_vec()
    }
}

impl Multiplier for RecursiveMultiplier {
    fn width(&self) -> usize {
        self.width
    }

    fn mul(&self, a: u64, b: u64) -> u64 {
        let a = bits::truncate(a, self.width);
        let b = bits::truncate(b, self.width);
        // The 2w-bit top-level add can produce a stray carry bit from
        // approximate cells; the true product always fits in 2w bits.
        bits::truncate(self.mul_rec(self.width, a, b), 2 * self.width)
    }

    fn name(&self) -> String {
        match self.sum {
            SumMode::Accurate => format!("RecMul(N={},{})", self.width, self.block),
            SumMode::ApproxLsbs { kind, lsbs } => {
                format!("RecMul(N={},{},{lsbs}x{kind})", self.width, self.block)
            }
        }
    }

    fn hw_cost(&self) -> HwCost {
        fn cost_rec(m: &RecursiveMultiplier, w: usize) -> HwCost {
            if w == 2 {
                return m.block.hw_cost();
            }
            let sub = cost_rec(m, w / 2);
            // Four sub-multipliers work in parallel; the two adders chain
            // after them.
            let subs = sub.parallel(sub).parallel(sub).parallel(sub);
            subs + m.adder(w).hw_cost() + m.adder(2 * w).hw_cost()
        }
        cost_rec(self, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::metrics::exhaustive_binary;

    fn exact_mul(width: usize) -> RecursiveMultiplier {
        RecursiveMultiplier::new(width, Mul2x2Kind::Accurate, SumMode::Accurate).unwrap()
    }

    #[test]
    fn accurate_4x4_is_exhaustively_exact() {
        let m = exact_mul(4);
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(m.mul(a, b), a * b, "{a}x{b}");
            }
        }
    }

    #[test]
    fn accurate_8x8_is_exhaustively_exact() {
        let m = exact_mul(8);
        for a in 0u64..256 {
            for b in 0u64..256 {
                assert_eq!(m.mul(a, b), a * b, "{a}x{b}");
            }
        }
    }

    #[test]
    fn accurate_16x16_spot_checks() {
        let m = exact_mul(16);
        for (a, b) in [(65535u64, 65535u64), (12345, 54321), (256, 255), (0, 99)] {
            assert_eq!(m.mul(a, b), a * b);
        }
    }

    #[test]
    fn width_validation() {
        assert!(RecursiveMultiplier::new(3, Mul2x2Kind::Accurate, SumMode::Accurate).is_err());
        assert!(RecursiveMultiplier::new(0, Mul2x2Kind::Accurate, SumMode::Accurate).is_err());
        assert!(RecursiveMultiplier::new(64, Mul2x2Kind::Accurate, SumMode::Accurate).is_err());
        assert!(RecursiveMultiplier::new(2, Mul2x2Kind::Accurate, SumMode::Accurate).is_ok());
    }

    #[test]
    fn width_2_is_the_block_itself() {
        let m = RecursiveMultiplier::new(2, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        assert_eq!(m.mul(3, 3), 7);
    }

    #[test]
    fn soa_blocks_err_only_where_a_3x3_digit_pair_meets() {
        // With accurate summation, errors originate purely in 2x2 blocks
        // multiplying digit pair (3, 3).
        let m = RecursiveMultiplier::new(4, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        for a in 0u64..16 {
            for b in 0u64..16 {
                let has_33 =
                    (a & 3 == 3 || a >> 2 == 3) && (b & 3 == 3 || b >> 2 == 3);
                if !has_33 {
                    assert_eq!(m.mul(a, b), a * b, "{a}x{b} should be exact");
                }
            }
        }
    }

    #[test]
    fn approximate_multipliers_underestimate_on_average() {
        // Both 2x2 designs only lose product mass (3x3→7, LSB dropped), so
        // the mean signed error must be negative.
        for block in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
            let m = RecursiveMultiplier::new(8, block, SumMode::Accurate).unwrap();
            let stats = exhaustive_binary(8, 8, |a, b| a * b, |a, b| m.mul(a, b));
            assert!(stats.mean_signed_error < 0.0, "{block}");
            assert!(stats.error_rate > 0.0 && stats.error_rate < 1.0, "{block}");
        }
    }

    #[test]
    fn our_block_bounds_relative_error_tighter_than_soa_at_block_level() {
        // Max error value: SoA = 2 per block event, Our = 1 per block event.
        let soa = RecursiveMultiplier::new(4, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        let our = RecursiveMultiplier::new(4, Mul2x2Kind::ApxOur, SumMode::Accurate).unwrap();
        let s_soa = exhaustive_binary(4, 4, |a, b| a * b, |a, b| soa.mul(a, b));
        let s_our = exhaustive_binary(4, 4, |a, b| a * b, |a, b| our.mul(a, b));
        // The worst single-block error is scaled by the block position
        // weight; Our's per-block bound of 1 must give a smaller worst case.
        assert!(s_our.max_error_distance < s_soa.max_error_distance);
    }

    #[test]
    fn approximate_summation_degrades_quality_monotonically_in_lsbs() {
        let mut last_rate = -1.0f64;
        for lsbs in [0usize, 2, 4, 8] {
            let m = RecursiveMultiplier::new(
                8,
                Mul2x2Kind::Accurate,
                SumMode::ApproxLsbs { kind: FullAdderKind::Apx3, lsbs },
            )
            .unwrap();
            let stats = exhaustive_binary(8, 8, |a, b| a * b, |a, b| m.mul(a, b));
            assert!(
                stats.error_rate >= last_rate - 1e-12,
                "error rate should not shrink as more LSBs are approximated"
            );
            last_rate = stats.error_rate;
        }
    }

    #[test]
    fn cost_grows_with_width() {
        let costs: Vec<f64> =
            [2usize, 4, 8, 16].iter().map(|&w| exact_mul(w).hw_cost().area_ge).collect();
        for pair in costs.windows(2) {
            assert!(pair[1] > pair[0] * 3.0, "area should roughly quadruple: {costs:?}");
        }
    }

    #[test]
    fn approximate_configurations_are_cheaper() {
        let exact = exact_mul(8).hw_cost();
        let cheap = RecursiveMultiplier::new(
            8,
            Mul2x2Kind::ApxSoA,
            SumMode::ApproxLsbs { kind: FullAdderKind::Apx5, lsbs: 4 },
        )
        .unwrap()
        .hw_cost();
        assert!(cheap.area_ge < exact.area_ge);
        assert!(cheap.power_nw < exact.power_nw);
    }

    #[test]
    fn names_describe_configuration() {
        let m = RecursiveMultiplier::new(
            8,
            Mul2x2Kind::ApxOur,
            SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 3 },
        )
        .unwrap();
        assert_eq!(m.name(), "RecMul(N=8,ApxMulOur,3xApxFA2)");
    }

    #[test]
    fn product_always_fits_in_double_width() {
        let m = RecursiveMultiplier::new(
            8,
            Mul2x2Kind::ApxOur,
            SumMode::ApproxLsbs { kind: FullAdderKind::Apx5, lsbs: 8 },
        )
        .unwrap();
        for a in (0u64..256).step_by(3) {
            for b in (0u64..256).step_by(5) {
                assert!(m.mul(a, b) < 1 << 16);
            }
        }
    }
}
