//! A 4×4 integer-DCT accelerator on approximate adders.
//!
//! The paper's accelerator methodology (Fig.7) covers "elementary or
//! multi-bit approximate adder, subtractor, multiplier, divider, etc." —
//! the canonical DSP block built purely from adders/subtractors is the
//! H.264/HEVC 4×4 integer core transform, whose butterflies need only
//! additions, subtractions and shifts (the ×2 factors). This module
//! implements that datapath over two's-complement words running through
//! any configurable ripple adder, so the Table III cells approximate a
//! real transform accelerator.
//!
//! Binary addition is sign-agnostic, so the unsigned [`Adder`] cells work
//! directly on two's-complement words of [`DctAccelerator::WORD_BITS`]
//! bits; subtraction is `a + !b + 1` with the increment folded in exactly
//! (as in [`xlac_adders::Subtractor`]).
//!
//! # Example
//!
//! ```
//! use xlac_accel::dct::DctAccelerator;
//! use xlac_adders::FullAdderKind;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let block = [[12i64, -3, 0, 7], [5, 5, 5, 5], [-9, 1, 2, -2], [0, 0, 8, -8]];
//! let exact = DctAccelerator::accurate()?.forward(&block);
//! let approx = DctAccelerator::new(FullAdderKind::Apx3, 3)?.forward(&block);
//! // The DC coefficient survives mild approximation closely.
//! assert!((exact[0][0] - approx[0][0]).abs() < 32);
//! # Ok(())
//! # }
//! ```

use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder};
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};

/// The 4×4 forward integer-transform accelerator.
#[derive(Debug, Clone)]
pub struct DctAccelerator {
    kind: FullAdderKind,
    approx_lsbs: usize,
    adder: RippleCarryAdder,
}

impl DctAccelerator {
    /// Two's-complement word width of the datapath. Residual inputs are
    /// 9-bit (−255..255); two butterfly stages each gain ≤ 2 bits and the
    /// ×2 shifts one more, so 16 bits hold every intermediate.
    pub const WORD_BITS: usize = 16;

    /// Builds the accelerator with `approx_lsbs` approximated LSBs of
    /// `kind` in every butterfly adder.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when `approx_lsbs`
    /// exceeds 8 (approximating above the residual magnitude ceiling
    /// makes the transform meaningless).
    pub fn new(kind: FullAdderKind, approx_lsbs: usize) -> Result<Self> {
        if approx_lsbs > 8 {
            return Err(XlacError::InvalidConfiguration(format!(
                "{approx_lsbs} approximate LSBs exceed the supported 8"
            )));
        }
        Ok(DctAccelerator {
            kind,
            approx_lsbs,
            adder: RippleCarryAdder::with_approx_lsbs(Self::WORD_BITS, kind, approx_lsbs)?,
        })
    }

    /// The exact baseline.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept for API uniformity.
    pub fn accurate() -> Result<Self> {
        DctAccelerator::new(FullAdderKind::Accurate, 0)
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

    /// The butterfly adder (for elaboration into a netlist).
    #[must_use]
    pub fn adder(&self) -> &RippleCarryAdder {
        &self.adder
    }

    fn add(&self, a: i64, b: i64) -> i64 {
        let w = Self::WORD_BITS;
        let ua = bits::from_signed(a, w);
        let ub = bits::from_signed(b, w);
        // Drop the carry-out: two's-complement wrap-around semantics.
        bits::to_signed(bits::truncate(self.adder.add(ua, ub), w), w)
    }

    fn sub(&self, a: i64, b: i64) -> i64 {
        let w = Self::WORD_BITS;
        let ua = bits::from_signed(a, w);
        let nb = bits::truncate(!bits::from_signed(b, w), w);
        let raw = self.adder.add(ua, nb) + 1;
        bits::to_signed(bits::truncate(raw, w), w)
    }

    /// One 4-point butterfly (the H.264 core transform row operation).
    fn butterfly(&self, x: [i64; 4]) -> [i64; 4] {
        let p0 = self.add(x[0], x[3]);
        let p3 = self.sub(x[0], x[3]);
        let p1 = self.add(x[1], x[2]);
        let p2 = self.sub(x[1], x[2]);
        [
            self.add(p0, p1),
            self.add(self.add(p3, p3), p2), // 2·p3 + p2
            self.sub(p0, p1),
            self.sub(p3, self.add(p2, p2)), // p3 − 2·p2
        ]
    }

    /// Forward 4×4 integer transform of a residual block (row pass then
    /// column pass, as in the standard).
    #[must_use]
    pub fn forward(&self, block: &[[i64; 4]; 4]) -> [[i64; 4]; 4] {
        let mut rows = [[0i64; 4]; 4];
        for (r, row) in block.iter().enumerate() {
            rows[r] = self.butterfly(*row);
        }
        let mut out = [[0i64; 4]; 4];
        for c in 0..4 {
            let col = [rows[0][c], rows[1][c], rows[2][c], rows[3][c]];
            let y = self.butterfly(col);
            for r in 0..4 {
                out[r][c] = y[r];
            }
        }
        out
    }

    /// The exact reference transform (pure integer software model).
    #[must_use]
    pub fn forward_exact(block: &[[i64; 4]; 4]) -> [[i64; 4]; 4] {
        let bf = |x: [i64; 4]| -> [i64; 4] {
            let (p0, p3, p1, p2) = (x[0] + x[3], x[0] - x[3], x[1] + x[2], x[1] - x[2]);
            [p0 + p1, 2 * p3 + p2, p0 - p1, p3 - 2 * p2]
        };
        let mut rows = [[0i64; 4]; 4];
        for (r, row) in block.iter().enumerate() {
            rows[r] = bf(*row);
        }
        let mut out = [[0i64; 4]; 4];
        for c in 0..4 {
            let y = bf([rows[0][c], rows[1][c], rows[2][c], rows[3][c]]);
            for r in 0..4 {
                out[r][c] = y[r];
            }
        }
        out
    }

    /// Hardware cost: 8 butterflies (4 rows + 4 columns), each of 10
    /// add/sub operations (shifts are wiring), over the configured adder.
    #[must_use]
    pub fn hw_cost(&self) -> HwCost {
        let op = self.adder.hw_cost();
        let mut stage = HwCost::ZERO;
        for _ in 0..10 {
            stage = stage.parallel(op);
        }
        // Row and column stages chain; within a stage, 4 butterflies run
        // in parallel.
        let mut row_stage = HwCost::ZERO;
        for _ in 0..4 {
            row_stage = row_stage.parallel(stage);
        }
        HwCost {
            area_ge: 2.0 * row_stage.area_ge,
            power_nw: 2.0 * row_stage.power_nw,
            delay: 2.0 * row_stage.delay * 3.0, // 3 adder levels per butterfly
        }
    }

    /// Instance name, e.g. `"DCT4x4(ApxFA3, 3 LSBs)"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("DCT4x4({}, {} LSBs)", self.kind, self.approx_lsbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::rng::{DefaultRng, Rng};

    fn random_block(rng: &mut impl Rng) -> [[i64; 4]; 4] {
        let mut b = [[0i64; 4]; 4];
        for row in &mut b {
            for v in row {
                *v = rng.gen_range(-255..=255);
            }
        }
        b
    }

    #[test]
    fn accurate_accelerator_matches_reference() {
        let acc = DctAccelerator::accurate().unwrap();
        let mut rng = DefaultRng::seed_from_u64(4);
        for _ in 0..200 {
            let block = random_block(&mut rng);
            assert_eq!(acc.forward(&block), DctAccelerator::forward_exact(&block));
        }
    }

    #[test]
    fn reference_matches_matrix_form() {
        // Cross-check the butterfly against the explicit C·X·Cᵀ product.
        const CORE: [[i64; 4]; 4] = [[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]];
        let mut rng = DefaultRng::seed_from_u64(5);
        for _ in 0..50 {
            let x = random_block(&mut rng);
            let mut tmp = [[0i64; 4]; 4];
            for i in 0..4 {
                for j in 0..4 {
                    tmp[i][j] = (0..4).map(|k| CORE[i][k] * x[k][j]).sum();
                }
            }
            let mut y = [[0i64; 4]; 4];
            for i in 0..4 {
                for j in 0..4 {
                    y[i][j] = (0..4).map(|k| tmp[i][k] * CORE[j][k]).sum();
                }
            }
            assert_eq!(DctAccelerator::forward_exact(&x), y);
        }
    }

    #[test]
    fn dc_coefficient_is_sixteenfold_mean() {
        let block = [[10i64; 4]; 4];
        let y = DctAccelerator::forward_exact(&block);
        assert_eq!(y[0][0], 160);
        // A flat block has no AC energy.
        assert!(y.iter().flatten().skip(1).all(|&v| v == 0));
    }

    #[test]
    fn approximate_error_grows_with_lsbs() {
        let mut rng = DefaultRng::seed_from_u64(6);
        let blocks: Vec<[[i64; 4]; 4]> = (0..100).map(|_| random_block(&mut rng)).collect();
        let mut last = -1.0f64;
        for lsbs in [0usize, 2, 4, 6] {
            let acc = DctAccelerator::new(FullAdderKind::Apx4, lsbs).unwrap();
            let mean: f64 = blocks
                .iter()
                .map(|b| {
                    let e = DctAccelerator::forward_exact(b);
                    let a = acc.forward(b);
                    e.iter()
                        .flatten()
                        .zip(a.iter().flatten())
                        .map(|(x, y)| (x - y).abs() as f64)
                        .sum::<f64>()
                        / 16.0
                })
                .sum::<f64>()
                / blocks.len() as f64;
            assert!(mean >= last - 1e-9, "coefficient error fell at {lsbs} LSBs");
            last = mean;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn negative_heavy_blocks_are_handled() {
        let acc = DctAccelerator::accurate().unwrap();
        let block = [[-255i64; 4]; 4];
        let y = acc.forward(&block);
        assert_eq!(y[0][0], -255 * 16);
    }

    #[test]
    fn cost_falls_with_approximation() {
        let exact = DctAccelerator::accurate().unwrap().hw_cost();
        let approx = DctAccelerator::new(FullAdderKind::Apx5, 6).unwrap().hw_cost();
        assert!(approx.area_ge < exact.area_ge);
        assert!(approx.power_nw < exact.power_nw);
    }

    #[test]
    fn validation_and_name() {
        assert!(DctAccelerator::new(FullAdderKind::Apx1, 9).is_err());
        let acc = DctAccelerator::new(FullAdderKind::Apx3, 3).unwrap();
        assert_eq!(acc.name(), "DCT4x4(ApxFA3, 3 LSBs)");
        assert_eq!(acc.cell_kind(), FullAdderKind::Apx3);
        assert_eq!(acc.approx_lsbs(), 3);
    }
}
