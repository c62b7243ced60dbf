//! A 3×3 low-pass convolution accelerator on approximate arithmetic.
//!
//! The Fig.10 resilience study applies a low-pass filter "on approximate
//! hardware" to a set of images. The hardware realization of a small
//! smoothing kernel is a shift-add datapath: the binomial kernel
//!
//! ```text
//!        1 2 1
//! 1/16 · 2 4 2
//!        1 2 1
//! ```
//!
//! multiplies by shifting (all weights are powers of two) and accumulates
//! through an adder tree — which is where the approximate adder cells go.
//!
//! # Example
//!
//! ```
//! use xlac_accel::filter::FilterAccelerator;
//! use xlac_adders::FullAdderKind;
//! use xlac_core::Grid;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let img = Grid::from_fn(16, 16, |r, c| ((r + c) * 8 % 256) as u64);
//! let exact = FilterAccelerator::accurate()?;
//! let approx = FilterAccelerator::new(FullAdderKind::Apx2, 4)?;
//! let a = exact.apply(&img)?;
//! let b = approx.apply(&img)?;
//! assert_eq!(a.shape(), b.shape());
//! # Ok(())
//! # }
//! ```

use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder};
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};
use xlac_core::Grid;

/// The binomial low-pass kernel weights (row-major, ×1/16).
pub const KERNEL: [[u64; 3]; 3] = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];

/// A 3×3 binomial low-pass filter whose accumulation adders approximate
/// `approx_lsbs` LSBs with a chosen cell kind.
#[derive(Debug, Clone)]
pub struct FilterAccelerator {
    kind: FullAdderKind,
    approx_lsbs: usize,
    /// Accumulator adder (12-bit: 8-bit pixels × weight 4 + tree growth).
    adders: Vec<RippleCarryAdder>,
}

impl FilterAccelerator {
    /// Internal accumulator width: max weighted pixel is 255·4 < 2^10 and
    /// the 9-term sum is below 16·255 < 2^12.
    const ACC_BITS: usize = 12;

    /// Builds the filter with approximate accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when `approx_lsbs`
    /// exceeds the 12-bit accumulator path.
    pub fn new(kind: FullAdderKind, approx_lsbs: usize) -> Result<Self> {
        if approx_lsbs > Self::ACC_BITS {
            return Err(XlacError::InvalidConfiguration(format!(
                "{approx_lsbs} approximate LSBs exceed the {}-bit accumulator",
                Self::ACC_BITS
            )));
        }
        // Balanced 9-operand tree: 8 two-input adders.
        let adders = (0..8)
            .map(|_| RippleCarryAdder::with_approx_lsbs(Self::ACC_BITS, kind, approx_lsbs))
            .collect::<Result<Vec<_>>>()?;
        Ok(FilterAccelerator { kind, approx_lsbs, adders })
    }

    /// The exact baseline filter.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept for API uniformity.
    pub fn accurate() -> Result<Self> {
        FilterAccelerator::new(FullAdderKind::Accurate, 0)
    }

    /// The approximate cell kind.
    #[must_use]
    pub fn cell_kind(&self) -> FullAdderKind {
        self.kind
    }

    /// Number of approximated accumulator LSBs.
    #[must_use]
    pub fn approx_lsbs(&self) -> usize {
        self.approx_lsbs
    }

    /// Filters an 8-bit image (values 0..=255), replicating edge pixels.
    /// The output is again 8-bit (the ×1/16 normalization is a hardware
    /// right-shift by 4).
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::OperandOutOfRange`] when a pixel exceeds 255 or
    /// [`XlacError::InvalidConfiguration`] for images smaller than 3×3.
    pub fn apply(&self, image: &Grid<u64>) -> Result<Grid<u64>> {
        if image.rows() < 3 || image.cols() < 3 {
            return Err(XlacError::InvalidConfiguration(format!(
                "image {}x{} smaller than the 3x3 kernel",
                image.rows(),
                image.cols()
            )));
        }
        if let Some(&bad) = image.iter().find(|&&v| v > 255) {
            return Err(XlacError::OperandOutOfRange { value: bad, width: 8 });
        }
        let (rows, cols) = image.shape();
        let clamp = |v: isize, hi: usize| v.clamp(0, hi as isize - 1) as usize;
        let out = Grid::from_fn(rows, cols, |r, c| {
            // Gather the nine weighted taps (weights applied by shift).
            let mut taps = [0u64; 9];
            let mut idx = 0;
            for (dr, kernel_row) in KERNEL.iter().enumerate() {
                for (dc, &w) in kernel_row.iter().enumerate() {
                    let pr = clamp(r as isize + dr as isize - 1, rows);
                    let pc = clamp(c as isize + dc as isize - 1, cols);
                    taps[idx] = image[(pr, pc)] * w;
                    idx += 1;
                }
            }
            // Balanced accumulation through the approximate adders.
            let mut level: Vec<u64> = taps.to_vec();
            let mut adder_idx = 0;
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                let mut i = 0;
                while i + 1 < level.len() {
                    let sum =
                        self.adders[adder_idx % self.adders.len()].add(level[i], level[i + 1]);
                    adder_idx += 1;
                    next.push(xlac_core::bits::truncate(sum, Self::ACC_BITS));
                    i += 2;
                }
                if i < level.len() {
                    next.push(level[i]);
                }
                level = next;
            }
            // Normalize by 16 (shift) and clamp to 8 bits.
            (level[0] >> 4).min(255)
        });
        Ok(out)
    }

    /// The exact behavioural filter (software model).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FilterAccelerator::apply`].
    pub fn apply_exact(image: &Grid<u64>) -> Result<Grid<u64>> {
        FilterAccelerator::accurate()?.apply(image)
    }

    /// Hardware cost of the 9-tap datapath (shift wiring is free; the
    /// eight accumulator adders dominate, three tree levels deep).
    #[must_use]
    pub fn hw_cost(&self) -> HwCost {
        let adder = self.adders[0].hw_cost();
        let mut cost = HwCost::ZERO;
        for _ in 0..8 {
            cost = cost.parallel(adder);
        }
        // Four levels of tree depth for nine operands.
        cost.delay = adder.delay * 4.0;
        cost
    }

    /// Instance name, e.g. `"LowPass(ApxFA2, 4 LSBs)"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("LowPass({}, {} LSBs)", self.kind, self.approx_lsbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> Grid<u64> {
        Grid::from_fn(24, 24, |r, c| ((r * 11 + c * 17) % 256) as u64)
    }

    #[test]
    fn accurate_filter_matches_software_convolution() {
        let img = test_image();
        let hw = FilterAccelerator::accurate().unwrap().apply(&img).unwrap();
        // Independent software model.
        let (rows, cols) = img.shape();
        let clamp = |v: isize, hi: usize| v.clamp(0, hi as isize - 1) as usize;
        for r in 0..rows {
            for c in 0..cols {
                let mut acc = 0u64;
                for (dr, kernel_row) in KERNEL.iter().enumerate() {
                    for (dc, &weight) in kernel_row.iter().enumerate() {
                        let pr = clamp(r as isize + dr as isize - 1, rows);
                        let pc = clamp(c as isize + dc as isize - 1, cols);
                        acc += img[(pr, pc)] * weight;
                    }
                }
                assert_eq!(hw[(r, c)], (acc >> 4).min(255), "pixel ({r},{c})");
            }
        }
    }

    #[test]
    fn constant_image_is_preserved() {
        let img = Grid::new(16, 16, 128u64);
        let out = FilterAccelerator::accurate().unwrap().apply(&img).unwrap();
        for &v in out.iter() {
            assert_eq!(v, 128);
        }
    }

    #[test]
    fn filter_smooths_a_checkerboard() {
        let img = Grid::from_fn(16, 16, |r, c| if (r + c) % 2 == 0 { 255 } else { 0 });
        let out = FilterAccelerator::accurate().unwrap().apply(&img).unwrap();
        // Interior pixels average toward the midpoint.
        for r in 2..14 {
            for c in 2..14 {
                let v = out[(r, c)];
                assert!((100..=160).contains(&v), "pixel ({r},{c}) = {v}");
            }
        }
    }

    #[test]
    fn approximate_filter_stays_close() {
        let img = test_image();
        let exact = FilterAccelerator::accurate().unwrap().apply(&img).unwrap();
        for kind in [FullAdderKind::Apx1, FullAdderKind::Apx3] {
            let approx = FilterAccelerator::new(kind, 4).unwrap().apply(&img).unwrap();
            let mean_err: f64 =
                exact.iter().zip(approx.iter()).map(|(&a, &b)| a.abs_diff(b) as f64).sum::<f64>()
                    / exact.len() as f64;
            assert!(mean_err < 16.0, "{kind}: mean pixel error {mean_err}");
        }
    }

    #[test]
    fn error_grows_with_approximated_lsbs() {
        let img = test_image();
        let exact = FilterAccelerator::accurate().unwrap().apply(&img).unwrap();
        let mut last = -1.0f64;
        for lsbs in [0usize, 2, 4, 6] {
            let approx =
                FilterAccelerator::new(FullAdderKind::Apx4, lsbs).unwrap().apply(&img).unwrap();
            let mean_err: f64 =
                exact.iter().zip(approx.iter()).map(|(&a, &b)| a.abs_diff(b) as f64).sum::<f64>()
                    / exact.len() as f64;
            assert!(mean_err >= last - 1e-9, "error fell at {lsbs} LSBs");
            last = mean_err;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn validation() {
        assert!(FilterAccelerator::new(FullAdderKind::Apx1, 13).is_err());
        let f = FilterAccelerator::accurate().unwrap();
        assert!(f.apply(&Grid::new(2, 2, 0u64)).is_err());
        assert!(f.apply(&Grid::new(8, 8, 300u64)).is_err());
    }

    #[test]
    fn approximate_costs_less() {
        let exact = FilterAccelerator::accurate().unwrap().hw_cost();
        let approx = FilterAccelerator::new(FullAdderKind::Apx5, 6).unwrap().hw_cost();
        assert!(approx.area_ge < exact.area_ge);
        assert!(approx.power_nw < exact.power_nw);
    }

    #[test]
    fn name_reports_config() {
        let f = FilterAccelerator::new(FullAdderKind::Apx2, 4).unwrap();
        assert_eq!(f.name(), "LowPass(ApxFA2, 4 LSBs)");
    }
}
