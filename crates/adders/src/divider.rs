//! A restoring array divider on (approximate) subtractor rows.
//!
//! The paper's component list for accelerator generation names "adder,
//! subtractor, multiplier, divider, etc."; the divider is the classic
//! stress case for approximation because every quotient bit is a
//! *decision* (did the trial subtraction borrow?), so a wrong LSB in the
//! comparison can flip a whole quotient bit. [`ArrayDivider`] implements
//! restoring division with one trial-subtractor row per quotient bit; the
//! rows run on any [`FullAdderKind`] with a configurable number of
//! approximate LSBs, which is exactly how an approximate array divider is
//! built in hardware.
//!
//! # Example
//!
//! ```
//! use xlac_adders::divider::ArrayDivider;
//! use xlac_adders::FullAdderKind;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let exact = ArrayDivider::accurate(8)?;
//! assert_eq!(exact.divide(200, 7)?, (28, 4));
//!
//! let approx = ArrayDivider::new(8, FullAdderKind::Apx3, 2)?;
//! let (q, _r) = approx.divide(200, 7)?;
//! assert!(q.abs_diff(28) <= 8);
//! # Ok(())
//! # }
//! ```

use crate::full_adder::FullAdderKind;
use crate::ripple::RippleCarryAdder;
use crate::subtractor::Subtractor;
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};

/// A restoring array divider for `width`-bit dividends and divisors.
#[derive(Debug, Clone)]
pub struct ArrayDivider {
    width: usize,
    kind: FullAdderKind,
    approx_lsbs: usize,
    /// Trial subtractor, one bit wider than the operands (the partial
    /// remainder is shifted before each trial).
    sub: Subtractor<RippleCarryAdder>,
}

impl ArrayDivider {
    /// Builds a divider whose trial-subtraction rows approximate
    /// `approx_lsbs` LSBs with `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidWidth`] for widths outside `1..=31` or
    /// [`XlacError::InvalidConfiguration`] when `approx_lsbs` exceeds the
    /// row width.
    pub fn new(width: usize, kind: FullAdderKind, approx_lsbs: usize) -> Result<Self> {
        if !(1..=31).contains(&width) {
            return Err(XlacError::InvalidWidth { width, max: 31 });
        }
        let row_width = width + 1;
        if approx_lsbs > row_width {
            return Err(XlacError::InvalidConfiguration(format!(
                "{approx_lsbs} approximate LSBs exceed the {row_width}-bit row"
            )));
        }
        Ok(ArrayDivider {
            width,
            kind,
            approx_lsbs,
            sub: Subtractor::new(RippleCarryAdder::with_approx_lsbs(row_width, kind, approx_lsbs)?),
        })
    }

    /// The exact baseline divider.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ArrayDivider::new`].
    pub fn accurate(width: usize) -> Result<Self> {
        ArrayDivider::new(width, FullAdderKind::Accurate, 0)
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The approximate cell kind of the trial rows.
    #[must_use]
    pub fn cell_kind(&self) -> FullAdderKind {
        self.kind
    }

    /// Number of approximated LSBs per row.
    #[must_use]
    pub fn approx_lsbs(&self) -> usize {
        self.approx_lsbs
    }

    /// Divides, returning `(quotient, remainder)` as computed by the
    /// (possibly approximate) array.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] for a zero divisor and
    /// [`XlacError::OperandOutOfRange`] for operands beyond the width.
    pub fn divide(&self, dividend: u64, divisor: u64) -> Result<(u64, u64)> {
        if divisor == 0 {
            return Err(XlacError::InvalidConfiguration("division by zero".into()));
        }
        if !bits::fits(dividend, self.width) {
            return Err(XlacError::OperandOutOfRange { value: dividend, width: self.width });
        }
        if !bits::fits(divisor, self.width) {
            return Err(XlacError::OperandOutOfRange { value: divisor, width: self.width });
        }
        let mut remainder = 0u64;
        let mut quotient = 0u64;
        for i in (0..self.width).rev() {
            remainder = (remainder << 1) | bits::bit(dividend, i);
            // Trial subtraction through the (approximate) row; `no_borrow`
            // is the quotient-bit decision.
            let (diff, no_borrow) = self.sub.sub(remainder, divisor);
            if no_borrow {
                remainder = bits::truncate(diff, self.width + 1);
                quotient |= 1 << i;
            }
            // Restoring: on borrow the remainder is left unchanged.
        }
        Ok((quotient, remainder))
    }

    /// The exact reference.
    #[must_use]
    pub fn divide_exact(dividend: u64, divisor: u64) -> (u64, u64) {
        (dividend / divisor, dividend % divisor)
    }

    /// Hardware cost: `width` trial-subtractor rows in sequence (each row
    /// feeds the next partial remainder).
    #[must_use]
    pub fn hw_cost(&self) -> HwCost {
        self.sub.hw_cost() * self.width as f64
    }

    /// Instance name, e.g. `"Div(N=8,ApxFA3,2 LSBs)"`.
    #[must_use]
    pub fn name(&self) -> String {
        if self.kind.is_accurate() {
            format!("Div(N={})", self.width)
        } else {
            format!("Div(N={},{},{} LSBs)", self.width, self.kind, self.approx_lsbs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::metrics::ErrorStats;

    #[test]
    fn exact_division_exhaustive_8_bit() {
        let div = ArrayDivider::accurate(8).unwrap();
        for dividend in 0u64..256 {
            for divisor in 1u64..256 {
                let (q, r) = div.divide(dividend, divisor).unwrap();
                assert_eq!(
                    (q, r),
                    (dividend / divisor, dividend % divisor),
                    "{dividend}/{divisor}"
                );
            }
        }
    }

    #[test]
    fn division_by_zero_is_rejected() {
        let div = ArrayDivider::accurate(8).unwrap();
        assert!(div.divide(100, 0).is_err());
    }

    #[test]
    fn operand_range_is_checked() {
        let div = ArrayDivider::accurate(4).unwrap();
        assert!(div.divide(16, 1).is_err());
        assert!(div.divide(1, 16).is_err());
    }

    #[test]
    fn approximate_divider_quality_degrades_with_lsbs() {
        let mut last = -1.0f64;
        for lsbs in [0usize, 1, 2, 3] {
            let div = ArrayDivider::new(8, FullAdderKind::Apx3, lsbs).unwrap();
            let stats = ErrorStats::from_pairs(
                (1u64..256)
                    .flat_map(|d| (0u64..256).map(move |n| (n, d)))
                    .map(|(n, d)| (n / d, div.divide(n, d).unwrap().0)),
            );
            assert!(stats.mean_error_distance >= last - 1e-9, "quotient error fell at {lsbs} LSBs");
            last = stats.mean_error_distance;
        }
        assert!(last > 0.0, "3 approximate LSBs must bite");
    }

    #[test]
    fn quotient_decisions_make_division_error_sensitive() {
        // The headline property: at the SAME number of approximate LSBs,
        // the divider's relative error exceeds a plain adder's — the
        // quotient-bit decision feedback amplifies LSB noise.
        let div = ArrayDivider::new(8, FullAdderKind::Apx5, 2).unwrap();
        let add = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx5, 2).unwrap();
        use crate::adder::Adder;
        let div_stats = ErrorStats::from_pairs(
            (1u64..256)
                .step_by(3)
                .flat_map(|d| (0u64..256).step_by(5).map(move |n| (n, d)))
                .map(|(n, d)| (n / d, div.divide(n, d).unwrap().0)),
        );
        let add_stats = ErrorStats::from_pairs(
            (0u64..256)
                .step_by(3)
                .flat_map(|a| (0u64..256).step_by(5).map(move |b| (a, b)))
                .map(|(a, b)| (a + b, add.add(a, b))),
        );
        assert!(
            div_stats.mean_relative_error > add_stats.mean_relative_error,
            "divider rel err {} must exceed adder rel err {}",
            div_stats.mean_relative_error,
            add_stats.mean_relative_error
        );
    }

    #[test]
    fn remainder_invariant_holds_for_exact() {
        let div = ArrayDivider::accurate(6).unwrap();
        for n in 0u64..64 {
            for d in 1u64..64 {
                let (q, r) = div.divide(n, d).unwrap();
                assert_eq!(q * d + r, n);
                assert!(r < d);
            }
        }
    }

    #[test]
    fn cost_scales_with_width_and_falls_with_approximation() {
        let small = ArrayDivider::accurate(4).unwrap().hw_cost();
        let large = ArrayDivider::accurate(16).unwrap().hw_cost();
        assert!(large.area_ge > small.area_ge * 3.0);
        let approx = ArrayDivider::new(16, FullAdderKind::Apx5, 4).unwrap().hw_cost();
        assert!(approx.area_ge < large.area_ge);
    }

    #[test]
    fn names() {
        assert_eq!(ArrayDivider::accurate(8).unwrap().name(), "Div(N=8)");
        assert_eq!(
            ArrayDivider::new(8, FullAdderKind::Apx2, 3).unwrap().name(),
            "Div(N=8,ApxFA2,3 LSBs)"
        );
    }
}
