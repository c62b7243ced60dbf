//! A Sobel edge-detection accelerator on approximate arithmetic.
//!
//! Edge detection is the second classic "inherently resilient" vision
//! kernel (the paper's survey lists `sobel` among the NPU benchmark
//! workloads). The Sobel gradient decomposes into unsigned arithmetic the
//! workspace already has: each directional gradient is the difference of
//! two weighted three-pixel sums (weights 1-2-1, i.e. shift-adds), taken
//! through an approximate subtractor, and the L1 magnitude
//! `|gx| + |gy|` accumulates through an approximate adder.
//!
//! # Example
//!
//! ```
//! use xlac_imaging::sobel::SobelAccelerator;
//! use xlac_imaging::images::TestImage;
//! use xlac_adders::FullAdderKind;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let img = TestImage::Stripes.render(32);
//! let exact = SobelAccelerator::accurate()?.apply(&img)?;
//! let approx = SobelAccelerator::new(FullAdderKind::Apx3, 3)?.apply(&img)?;
//! assert_eq!(exact.shape(), approx.shape());
//! # Ok(())
//! # }
//! ```

use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder, Subtractor};
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};
use xlac_core::Grid;

/// A 3×3 Sobel gradient-magnitude accelerator with approximate adders in
/// the weighted sums, the differences and the magnitude accumulation.
#[derive(Debug, Clone)]
pub struct SobelAccelerator {
    kind: FullAdderKind,
    approx_lsbs: usize,
    /// Weighted-sum adder (max 4·255 < 2^11).
    sum_adder: RippleCarryAdder,
    /// Gradient subtractor on the same width.
    sub: Subtractor<RippleCarryAdder>,
}

impl SobelAccelerator {
    /// Datapath width: weighted sums reach 1020, magnitudes 2040 < 2^11.
    const WORD_BITS: usize = 11;

    /// Builds the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when `approx_lsbs`
    /// exceeds 8.
    pub fn new(kind: FullAdderKind, approx_lsbs: usize) -> Result<Self> {
        if approx_lsbs > 8 {
            return Err(XlacError::InvalidConfiguration(format!(
                "{approx_lsbs} approximate LSBs exceed the supported 8"
            )));
        }
        let sum_adder = RippleCarryAdder::with_approx_lsbs(Self::WORD_BITS, kind, approx_lsbs)?;
        let sub = Subtractor::new(RippleCarryAdder::with_approx_lsbs(
            Self::WORD_BITS,
            kind,
            approx_lsbs,
        )?);
        Ok(SobelAccelerator { kind, approx_lsbs, sum_adder, sub })
    }

    /// The exact baseline.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept for API uniformity.
    pub fn accurate() -> Result<Self> {
        SobelAccelerator::new(FullAdderKind::Accurate, 0)
    }

    /// The configured cell kind.
    #[must_use]
    pub fn cell_kind(&self) -> FullAdderKind {
        self.kind
    }

    /// Number of approximated LSBs.
    #[must_use]
    pub fn approx_lsbs(&self) -> usize {
        self.approx_lsbs
    }

    /// Weighted 1-2-1 sum of three pixels through the approximate adder.
    fn weighted(&self, a: u64, b: u64, c: u64) -> u64 {
        let b2 = b << 1; // weight-2 tap is wiring
        let t = self.sum_adder.add(a, b2);
        xlac_core::bits::truncate(self.sum_adder.add(t, c), Self::WORD_BITS)
    }

    /// Applies the operator, replicating edges; output is the clamped
    /// 8-bit gradient magnitude `min(|gx| + |gy|, 255)`.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::OperandOutOfRange`] for non-8-bit pixels or
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
        let px = |r: isize, c: isize| image[(clamp(r, rows), clamp(c, cols))];
        Ok(Grid::from_fn(rows, cols, |r, c| {
            let (r, c) = (r as isize, c as isize);
            // Column sums for gx, row sums for gy (1-2-1 weighting).
            let left = self.weighted(px(r - 1, c - 1), px(r, c - 1), px(r + 1, c - 1));
            let right = self.weighted(px(r - 1, c + 1), px(r, c + 1), px(r + 1, c + 1));
            let top = self.weighted(px(r - 1, c - 1), px(r - 1, c), px(r - 1, c + 1));
            let bottom = self.weighted(px(r + 1, c - 1), px(r + 1, c), px(r + 1, c + 1));
            let gx = self.sub.abs_diff(right, left);
            let gy = self.sub.abs_diff(bottom, top);
            let mag = xlac_core::bits::truncate(self.sum_adder.add(gx, gy), Self::WORD_BITS);
            mag.min(255)
        }))
    }

    /// The exact software reference.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SobelAccelerator::apply`].
    pub fn apply_exact(image: &Grid<u64>) -> Result<Grid<u64>> {
        SobelAccelerator::accurate()?.apply(image)
    }

    /// Hardware cost: four weighted-sum chains (2 adders each), two
    /// subtractors and the magnitude adder.
    #[must_use]
    pub fn hw_cost(&self) -> HwCost {
        let add = self.sum_adder.hw_cost();
        let sub = self.sub.hw_cost();
        let sums = add.parallel(add).parallel(add).parallel(add) + add * 4.0;
        let grads = sub.parallel(sub);
        sums + grads + add
    }

    /// Instance name, e.g. `"Sobel(ApxFA3, 3 LSBs)"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("Sobel({}, {} LSBs)", self.kind, self.approx_lsbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::images::TestImage;

    #[test]
    fn accurate_matches_software_sobel() {
        let img = TestImage::Clouds.render(24);
        let hw = SobelAccelerator::accurate().unwrap().apply(&img).unwrap();
        let (rows, cols) = img.shape();
        let clamp = |v: isize, hi: usize| v.clamp(0, hi as isize - 1) as usize;
        for r in 0..rows {
            for c in 0..cols {
                let px = |dr: isize, dc: isize| {
                    img[(clamp(r as isize + dr, rows), clamp(c as isize + dc, cols))] as i64
                };
                let gx = (px(-1, 1) + 2 * px(0, 1) + px(1, 1))
                    - (px(-1, -1) + 2 * px(0, -1) + px(1, -1));
                let gy = (px(1, -1) + 2 * px(1, 0) + px(1, 1))
                    - (px(-1, -1) + 2 * px(-1, 0) + px(-1, 1));
                let expect = (gx.unsigned_abs() + gy.unsigned_abs()).min(255);
                assert_eq!(hw[(r, c)], expect, "pixel ({r},{c})");
            }
        }
    }

    #[test]
    fn flat_image_has_zero_gradient() {
        let img = Grid::new(16, 16, 100u64);
        let out = SobelAccelerator::accurate().unwrap().apply(&img).unwrap();
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn vertical_edges_fire_on_stripes() {
        let img = TestImage::Stripes.render(32);
        let out = SobelAccelerator::accurate().unwrap().apply(&img).unwrap();
        // The stripe boundaries must saturate; stripe interiors stay 0.
        assert!(out.iter().any(|&v| v == 255));
        assert!(out.iter().any(|&v| v == 0));
    }

    #[test]
    fn approximate_sobel_preserves_edge_structure() {
        let img = TestImage::Stripes.render(32);
        let exact = SobelAccelerator::accurate().unwrap().apply(&img).unwrap();
        let approx = SobelAccelerator::new(FullAdderKind::Apx1, 3).unwrap().apply(&img).unwrap();
        // Edge/non-edge classification at threshold 128 must mostly agree.
        let agree =
            exact.iter().zip(approx.iter()).filter(|(&e, &a)| (e >= 128) == (a >= 128)).count();
        assert!(
            agree * 100 >= exact.len() * 95,
            "classification agreement {agree}/{}",
            exact.len()
        );
    }

    #[test]
    fn error_grows_with_lsbs() {
        let img = TestImage::Clouds.render(32);
        let exact = SobelAccelerator::accurate().unwrap().apply(&img).unwrap();
        let mut last = -1.0f64;
        for lsbs in [0usize, 2, 4, 6] {
            let out =
                SobelAccelerator::new(FullAdderKind::Apx4, lsbs).unwrap().apply(&img).unwrap();
            let mean: f64 =
                exact.iter().zip(out.iter()).map(|(&a, &b)| a.abs_diff(b) as f64).sum::<f64>()
                    / exact.len() as f64;
            assert!(mean >= last - 1e-9);
            last = mean;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn cost_and_validation() {
        assert!(SobelAccelerator::new(FullAdderKind::Apx1, 9).is_err());
        let exact = SobelAccelerator::accurate().unwrap();
        assert!(exact.apply(&Grid::new(2, 2, 0u64)).is_err());
        assert!(exact.apply(&Grid::new(8, 8, 256u64)).is_err());
        let approx = SobelAccelerator::new(FullAdderKind::Apx5, 6).unwrap();
        assert!(approx.hw_cost().area_ge < exact.hw_cost().area_ge);
        assert_eq!(approx.name(), "Sobel(ApxFA5, 6 LSBs)");
    }
}
