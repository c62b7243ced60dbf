//! Truncated multipliers — the partial-product-elimination family.
//!
//! The multi-bit multipliers of [`crate::multi_bit`] approximate the
//! *blocks* and the *summation*; the third classic axis (Kulkarni's and
//! Sullivan's truncation line, both cited by the paper) removes entire
//! low-order **partial-product columns**: every `a_i·b_j` with
//! `i + j < k` is never generated, saving the AND gates and the reduction
//! cells of the `k` cheapest columns. An optional constant-compensation
//! term re-centres the error distribution (Sullivan & Swartzlander's
//! truncated error correction).
//!
//! # Example
//!
//! ```
//! use xlac_multipliers::{Multiplier, TruncatedMultiplier};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let exact = TruncatedMultiplier::new(8, 0, false)?;
//! assert_eq!(exact.mul(200, 99), 200 * 99);
//!
//! let trunc = TruncatedMultiplier::new(8, 6, true)?;
//! let p = trunc.mul(200, 99);
//! assert!(p.abs_diff(200 * 99) < 1 << 7);
//! # Ok(())
//! # }
//! ```

use crate::Multiplier;
use xlac_adders::FullAdderKind;
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};

/// An `N×N` multiplier with the lowest `dropped` partial-product columns
/// eliminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedMultiplier {
    width: usize,
    dropped: usize,
    compensated: bool,
    /// [`TruncatedMultiplier::compensation`], fixed at construction.
    compensation: u64,
}

impl TruncatedMultiplier {
    /// Creates a truncated multiplier. `dropped` low columns are never
    /// generated; when `compensated` is set, the expected value of the
    /// dropped mass is added back as a constant.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidWidth`] for widths outside `1..=32` or
    /// [`XlacError::InvalidConfiguration`] when `dropped` reaches the full
    /// `2·width` column count.
    pub fn new(width: usize, dropped: usize, compensated: bool) -> Result<Self> {
        if !(1..=32).contains(&width) {
            return Err(XlacError::InvalidWidth { width, max: 32 });
        }
        if dropped >= 2 * width {
            return Err(XlacError::InvalidConfiguration(format!(
                "dropping {dropped} columns removes the whole {}-column product",
                2 * width
            )));
        }
        let compensation = if compensated { expected_dropped_mass(width, dropped) } else { 0 };
        Ok(TruncatedMultiplier { width, dropped, compensated, compensation })
    }

    /// Number of eliminated columns.
    #[must_use]
    pub fn dropped_columns(&self) -> usize {
        self.dropped
    }

    /// Whether constant compensation is enabled.
    #[must_use]
    pub fn is_compensated(&self) -> bool {
        self.compensated
    }

    /// The constant compensation value: the expected dropped mass under
    /// uniform operands. Column `c` (< N) holds `c + 1` partial products,
    /// each 1 with probability ¼, so
    /// `E = Σ_{c<k} (c+1) · ¼ · 2^c`, rounded to the nearest integer.
    #[must_use]
    pub fn compensation(&self) -> u64 {
        self.compensation
    }

    /// Number of partial products actually generated (the saved AND-gate
    /// count is `N² −` this).
    #[must_use]
    pub fn generated_partial_products(&self) -> usize {
        let n = self.width;
        (0..n).flat_map(|i| (0..n).map(move |j| i + j)).filter(|&col| col >= self.dropped).count()
    }
}

/// The expected dropped mass of a `width`-bit multiplier without its
/// `dropped` low columns under uniform operands: column `c` (< N) holds
/// `c + 1` partial products, each 1 with probability ¼, so
/// `E = Σ_{c<k} (c+1) · ¼ · 2^c`, rounded to the nearest integer.
fn expected_dropped_mass(width: usize, dropped: usize) -> u64 {
    let mut expected = 0.0f64;
    for c in 0..dropped {
        let products = (c + 1).min(width).min(2 * width - 1 - c) as f64;
        expected += products * 0.25 * (1u64 << c) as f64;
    }
    expected.round() as u64
}

impl Multiplier for TruncatedMultiplier {
    fn width(&self) -> usize {
        self.width
    }

    /// Sums the kept partial-product rows without a branch: row `i` is
    /// `b << i` where `a_i = 1` (`-a_i` is all ones) and 0 otherwise, with
    /// the dropped columns `< dropped` masked off.
    fn mul(&self, a: u64, b: u64) -> u64 {
        let a = bits::truncate(a, self.width);
        let b = bits::truncate(b, self.width);
        let keep = !bits::mask(self.dropped);
        let mut acc = 0u64;
        for i in 0..self.width {
            acc += (b << i) & keep & ((a >> i) & 1).wrapping_neg();
        }
        // The kept mass never exceeds `a·b < 2^{2w}`, so `acc` cannot
        // overflow; at width 32 the compensated sum can, and the wrapping
        // add is exactly the mod-2^{2w} truncation semantics.
        bits::truncate(acc.wrapping_add(self.compensation), 2 * self.width)
    }

    fn name(&self) -> String {
        let suffix = if self.compensated { "+comp" } else { "" };
        format!("TruncMul(N={},D={}{})", self.width, self.dropped, suffix)
    }

    fn hw_cost(&self) -> HwCost {
        // Generated partial products cost one AND each; the reduction tree
        // scales with the generated count; compensation is wiring.
        let and_gate = HwCost { area_ge: 1.33, power_nw: 60.0, delay: 1.5 };
        let generated = self.generated_partial_products() as f64;
        let partials = and_gate * generated;
        // Reduction cells ≈ (generated − 2N) FAs; final CPA over 2N bits.
        let fa = FullAdderKind::Accurate.hw_cost();
        let reduction = fa * (generated - (2 * self.width) as f64).max(0.0);
        let cpa = fa * (2 * self.width) as f64;
        let mut cost = partials + reduction + cpa;
        cost.delay = fa.delay * ((generated.max(1.0)).log(1.5) + 2.0);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::check::{check, Rng};
    use xlac_core::metrics::exhaustive_binary;
    use xlac_core::prop_assert_eq;

    /// The bit-by-bit [`Multiplier::mul`] that re-ran the compensation
    /// loop on every call, kept as the oracle of the row sum.
    fn mul_bitwise(m: &TruncatedMultiplier, a: u64, b: u64) -> u64 {
        let compensation = || {
            if !m.compensated {
                return 0;
            }
            let mut expected = 0.0f64;
            for c in 0..m.dropped {
                let products = (c + 1).min(m.width).min(2 * m.width - 1 - c) as f64;
                expected += products * 0.25 * (1u64 << c) as f64;
            }
            expected.round() as u64
        };
        let a = bits::truncate(a, m.width);
        let b = bits::truncate(b, m.width);
        let mut acc = 0u64;
        for i in 0..m.width {
            if bits::bit(a, i) == 0 {
                continue;
            }
            for j in 0..m.width {
                if bits::bit(b, j) == 1 && i + j >= m.dropped {
                    acc += 1u64 << (i + j);
                }
            }
        }
        // At width 32 the retained mass spans all 64 bits; the wrapping
        // add is exactly the mod-2^{2w} truncation semantics.
        bits::truncate(acc.wrapping_add(compensation()), 2 * m.width)
    }

    #[test]
    fn row_sum_equals_the_bitwise_model_exhaustively_at_8_bits() {
        for dropped in 0..16 {
            for compensated in [false, true] {
                let m = TruncatedMultiplier::new(8, dropped, compensated).unwrap();
                for a in 0u64..256 {
                    for b in 0u64..256 {
                        assert_eq!(m.mul(a, b), mul_bitwise(&m, a, b), "{} {a}x{b}", m.name());
                    }
                }
            }
        }
    }

    #[test]
    fn row_sum_equals_the_bitwise_model_at_width_32() {
        // Up to 63 dropped columns: the keep mask's top bit, and the
        // compensated sum wrapping past 2^64.
        check(
            "32-bit truncated row sum equals the bitwise model",
            |rng| {
                let dropped = if rng.gen_bool(0.25) { 63 } else { rng.gen_range(0..64usize) };
                (dropped, rng.gen_bool(0.5), rng.gen::<u64>(), rng.gen::<u64>())
            },
            |&(dropped, compensated, a, b)| {
                let Ok(m) = TruncatedMultiplier::new(32, dropped, compensated) else {
                    return Ok(());
                };
                prop_assert_eq!(m.mul(a, b), mul_bitwise(&m, a, b));
                Ok(())
            },
        );
        for compensated in [false, true] {
            let m = TruncatedMultiplier::new(32, 63, compensated).unwrap();
            let max = u64::from(u32::MAX);
            assert_eq!(m.mul(max, max), mul_bitwise(&m, max, max));
        }
    }

    #[test]
    fn zero_truncation_is_exact() {
        let m = TruncatedMultiplier::new(8, 0, false).unwrap();
        for a in (0u64..256).step_by(7) {
            for b in (0u64..256).step_by(11) {
                assert_eq!(m.mul(a, b), a * b);
            }
        }
    }

    #[test]
    fn truncation_only_underestimates_without_compensation() {
        let m = TruncatedMultiplier::new(8, 5, false).unwrap();
        for a in (0u64..256).step_by(3) {
            for b in (0u64..256).step_by(5) {
                assert!(m.mul(a, b) <= a * b);
            }
        }
    }

    #[test]
    fn dropped_mass_is_bounded_by_column_weights() {
        // Dropping k columns can lose at most Σ_{c<k} (c+1)·2^c.
        let k = 6usize;
        let m = TruncatedMultiplier::new(8, k, false).unwrap();
        let bound: u64 = (0..k).map(|c| (c as u64 + 1) << c).sum();
        let stats = exhaustive_binary(8, 8, |a, b| a * b, |a, b| m.mul(a, b));
        assert!(stats.max_error_distance <= bound);
        assert!(stats.max_error_distance > 0);
    }

    #[test]
    fn compensation_reduces_bias_and_med() {
        let raw = TruncatedMultiplier::new(8, 6, false).unwrap();
        let comp = TruncatedMultiplier::new(8, 6, true).unwrap();
        let s_raw = exhaustive_binary(8, 8, |a, b| a * b, |a, b| raw.mul(a, b));
        let s_comp = exhaustive_binary(8, 8, |a, b| a * b, |a, b| comp.mul(a, b));
        assert!(
            s_comp.mean_signed_error.abs() < s_raw.mean_signed_error.abs(),
            "compensation must de-bias: {} vs {}",
            s_comp.mean_signed_error,
            s_raw.mean_signed_error
        );
        assert!(s_comp.mean_error_distance < s_raw.mean_error_distance);
    }

    #[test]
    fn compensation_value_matches_expectation() {
        let m = TruncatedMultiplier::new(8, 4, true).unwrap();
        // E = ¼·(1·1 + 2·2 + 3·4 + 4·8) = ¼·49 = 12.25 → 12.
        assert_eq!(m.compensation(), 12);
        let exact = TruncatedMultiplier::new(8, 4, false).unwrap();
        assert_eq!(exact.compensation(), 0);
    }

    #[test]
    fn cost_falls_with_truncation() {
        let mut last = f64::INFINITY;
        for k in [0usize, 2, 4, 6, 8] {
            let area = TruncatedMultiplier::new(8, k, false).unwrap().hw_cost().area_ge;
            assert!(area < last, "dropping more columns must shrink the design");
            last = area;
        }
    }

    #[test]
    fn generated_count_is_consistent() {
        let m = TruncatedMultiplier::new(4, 0, false).unwrap();
        assert_eq!(m.generated_partial_products(), 16);
        let m = TruncatedMultiplier::new(4, 2, false).unwrap();
        // Columns 0 (1 pp) and 1 (2 pps) dropped: 16 - 3.
        assert_eq!(m.generated_partial_products(), 13);
    }

    #[test]
    fn validation() {
        assert!(TruncatedMultiplier::new(0, 0, false).is_err());
        assert!(TruncatedMultiplier::new(33, 0, false).is_err());
        assert!(TruncatedMultiplier::new(8, 16, false).is_err());
        // Widths 17..=32 are now valid (the error calculus certifies
        // them); spot-check exactness at the 32-bit ceiling.
        let wide = TruncatedMultiplier::new(32, 0, false).unwrap();
        for (a, b) in [(u32::MAX as u64, u32::MAX as u64), (0xDEAD_BEEF, 0x1234_5678)] {
            assert_eq!(wide.mul(a, b), a.wrapping_mul(b));
        }
    }

    #[test]
    fn names() {
        assert_eq!(TruncatedMultiplier::new(8, 4, true).unwrap().name(), "TruncMul(N=8,D=4+comp)");
        assert_eq!(TruncatedMultiplier::new(8, 4, false).unwrap().name(), "TruncMul(N=8,D=4)");
    }
}
