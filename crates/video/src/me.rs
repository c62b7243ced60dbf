//! Full-search block motion estimation on a pluggable SAD accelerator.
//!
//! For every `B×B` block of the current frame, search the co-located
//! `±range` window in the reference frame for the candidate minimizing the
//! (possibly approximate) SAD. [`MotionEstimator::sad_surface`] exposes the
//! whole candidate-cost surface for one block — the quantity Fig.8 plots —
//! and [`MotionEstimator::estimate`] produces the motion field the encoder
//! consumes.
//!
//! # Example
//!
//! ```
//! use xlac_video::me::MotionEstimator;
//! use xlac_video::sequence::{SequenceConfig, SyntheticSequence};
//! use xlac_accel::sad::SadAccelerator;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let seq = SyntheticSequence::generate(&SequenceConfig::small_test())?;
//! let me = MotionEstimator::new(SadAccelerator::accurate(64)?, 4)?;
//! let field = me.estimate(&seq.frames()[1], &seq.frames()[0])?;
//! assert_eq!(field.block_size, 8);
//! # Ok(())
//! # }
//! ```

use xlac_accel::sad::SadAccelerator;
use xlac_core::error::{Result, XlacError};
use xlac_core::Grid;

/// A motion field: one motion vector (and its SAD cost) per block.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionField {
    /// Block side length.
    pub block_size: usize,
    /// Per-block motion vectors `(dy, dx)`, row-major over blocks.
    pub vectors: Grid<(i32, i32)>,
    /// Per-block best SAD cost (as reported by the accelerator).
    pub costs: Grid<u64>,
}

/// Full-search motion estimator.
#[derive(Debug, Clone)]
pub struct MotionEstimator {
    sad: SadAccelerator,
    block: usize,
    range: i32,
}

impl MotionEstimator {
    /// Creates an estimator: block size is derived from the accelerator's
    /// lane count (`B = sqrt(lanes)`), searching `±range` pixels.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when the lane count is
    /// not a perfect square or `range` is 0.
    pub fn new(sad: SadAccelerator, range: i32) -> Result<Self> {
        let lanes = sad.lanes();
        let block = (lanes as f64).sqrt().round() as usize;
        if block * block != lanes {
            return Err(XlacError::InvalidConfiguration(format!(
                "lane count {lanes} is not a perfect square"
            )));
        }
        if range <= 0 {
            return Err(XlacError::InvalidConfiguration("search range must be positive".into()));
        }
        Ok(MotionEstimator { sad, block, range })
    }

    /// The SAD accelerator in use.
    #[must_use]
    pub fn sad_accelerator(&self) -> &SadAccelerator {
        &self.sad
    }

    /// Block side length.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Search range in pixels.
    #[must_use]
    pub fn range(&self) -> i32 {
        self.range
    }

    fn gather(frame: &Grid<u64>, top: i64, left: i64, block: usize) -> Option<Vec<u64>> {
        let (rows, cols) = frame.shape();
        if top < 0 || left < 0 {
            return None;
        }
        let (top, left) = (top as usize, left as usize);
        if top + block > rows || left + block > cols {
            return None;
        }
        let mut out = Vec::with_capacity(block * block);
        for r in top..top + block {
            out.extend_from_slice(&frame.row(r)[left..left + block]);
        }
        Some(out)
    }

    /// The full SAD cost surface for the block at `(block_row, block_col)`
    /// (in block units): a `(2·range+1)²` grid indexed by candidate
    /// displacement, `surface[(range+dy, range+dx)]`. Out-of-frame
    /// candidates carry `u64::MAX`.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::IndexOutOfBounds`] for an out-of-frame block or
    /// shape errors from the accelerator.
    pub fn sad_surface(
        &self,
        current: &Grid<u64>,
        reference: &Grid<u64>,
        block_row: usize,
        block_col: usize,
    ) -> Result<Grid<u64>> {
        let b = self.block;
        let top = (block_row * b) as i64;
        let left = (block_col * b) as i64;
        let cur = Self::gather(current, top, left, b).ok_or(XlacError::IndexOutOfBounds {
            index: (block_row, block_col),
            shape: (current.rows() / b, current.cols() / b),
        })?;
        let side = (2 * self.range + 1) as usize;
        let mut surface = Grid::new(side, side, u64::MAX);
        for dy in -self.range..=self.range {
            for dx in -self.range..=self.range {
                if let Some(cand) = Self::gather(reference, top + dy as i64, left + dx as i64, b) {
                    surface[((self.range + dy) as usize, (self.range + dx) as usize)] =
                        self.sad.sad(&cur, &cand)?;
                }
            }
        }
        Ok(surface)
    }

    /// Full-search motion estimation of `current` against `reference`.
    /// Frame dimensions must be multiples of the block size. Ties are
    /// broken toward the smaller displacement (then raster order), the
    /// convention real encoders use to keep motion fields smooth.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::ShapeMismatch`] when the frames disagree or are
    /// not block-aligned.
    pub fn estimate(&self, current: &Grid<u64>, reference: &Grid<u64>) -> Result<MotionField> {
        if current.shape() != reference.shape() {
            return Err(XlacError::ShapeMismatch {
                expected: current.shape(),
                actual: reference.shape(),
            });
        }
        let b = self.block;
        if !current.rows().is_multiple_of(b) || !current.cols().is_multiple_of(b) {
            return Err(XlacError::ShapeMismatch {
                expected: (current.rows() / b * b, current.cols() / b * b),
                actual: current.shape(),
            });
        }
        let blocks_r = current.rows() / b;
        let blocks_c = current.cols() / b;
        let mut vectors = Grid::new(blocks_r, blocks_c, (0i32, 0i32));
        let mut costs = Grid::new(blocks_r, blocks_c, u64::MAX);
        for br in 0..blocks_r {
            for bc in 0..blocks_c {
                let top = (br * b) as i64;
                let left = (bc * b) as i64;
                let cur = Self::gather(current, top, left, b).expect("block-aligned");
                let mut best = (u64::MAX, i32::MAX, (0i32, 0i32));
                for dy in -self.range..=self.range {
                    for dx in -self.range..=self.range {
                        let Some(cand) =
                            Self::gather(reference, top + dy as i64, left + dx as i64, b)
                        else {
                            continue;
                        };
                        let cost = self.sad.sad(&cur, &cand)?;
                        let mag = dy.abs() + dx.abs();
                        if cost < best.0 || (cost == best.0 && mag < best.1) {
                            best = (cost, mag, (dy, dx));
                        }
                    }
                }
                vectors[(br, bc)] = best.2;
                costs[(br, bc)] = best.0;
            }
        }
        Ok(MotionField { block_size: b, vectors, costs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_accel::sad::SadVariant;

    /// A frame pair where every block moves by exactly (1, 2).
    fn shifted_pair() -> (Grid<u64>, Grid<u64>) {
        let reference =
            Grid::from_fn(48, 48, |r, c| ((r * 31 + c * 17 + (r * c) % 7) % 256) as u64);
        let current = Grid::from_fn(48, 48, |r, c| {
            let rr = (r as i64 - 1).clamp(0, 47) as usize;
            let cc = (c as i64 - 2).clamp(0, 47) as usize;
            reference[(rr, cc)]
        });
        (current, reference)
    }

    #[test]
    fn exact_me_recovers_global_translation() {
        let (cur, reff) = shifted_pair();
        let me = MotionEstimator::new(SadAccelerator::accurate(64).unwrap(), 4).unwrap();
        let field = me.estimate(&cur, &reff).unwrap();
        // Interior blocks must find (-1, -2) (content moved down-right, so
        // the match lies up-left in the reference).
        let mut hits = 0;
        for br in 1..5 {
            for bc in 1..5 {
                if field.vectors[(br, bc)] == (-1, -2) {
                    hits += 1;
                }
                assert_eq!(field.costs[(br, bc)], 0, "interior block SAD must be 0");
            }
        }
        assert_eq!(hits, 16);
    }

    #[test]
    fn mild_approximation_preserves_the_motion_vectors() {
        // Fig.8's claim: the approximate surface is shifted but the argmin
        // survives.
        let (cur, reff) = shifted_pair();
        let exact = MotionEstimator::new(SadAccelerator::accurate(64).unwrap(), 4).unwrap();
        let approx =
            MotionEstimator::new(SadAccelerator::new(64, SadVariant::ApxSad2, 2).unwrap(), 4)
                .unwrap();
        let f_exact = exact.estimate(&cur, &reff).unwrap();
        let f_apx = approx.estimate(&cur, &reff).unwrap();
        let agreeing =
            f_exact.vectors.iter().zip(f_apx.vectors.iter()).filter(|(a, b)| a == b).count();
        let total = f_exact.vectors.len();
        assert!(
            agreeing * 10 >= total * 8,
            "mild approximation should preserve most MVs: {agreeing}/{total}"
        );
    }

    #[test]
    fn surface_minimum_sits_at_the_true_displacement() {
        let (cur, reff) = shifted_pair();
        let me = MotionEstimator::new(SadAccelerator::accurate(64).unwrap(), 4).unwrap();
        let surface = me.sad_surface(&cur, &reff, 2, 2).unwrap();
        assert_eq!(surface.shape(), (9, 9));
        let (mut best, mut at) = (u64::MAX, (0usize, 0usize));
        for (r, c, &v) in surface.enumerate() {
            if v < best {
                best = v;
                at = (r, c);
            }
        }
        // (range + dy, range + dx) = (4 - 1, 4 - 2) = (3, 2).
        assert_eq!(at, (3, 2));
        assert_eq!(best, 0);
    }

    #[test]
    fn approximate_surface_is_shifted_upward_but_correlated() {
        let (cur, reff) = shifted_pair();
        let exact = MotionEstimator::new(SadAccelerator::accurate(64).unwrap(), 4).unwrap();
        let approx =
            MotionEstimator::new(SadAccelerator::new(64, SadVariant::ApxSad3, 4).unwrap(), 4)
                .unwrap();
        let s_exact = exact.sad_surface(&cur, &reff, 2, 2).unwrap();
        let s_apx = approx.sad_surface(&cur, &reff, 2, 2).unwrap();
        // Mean over in-frame candidates grows (ApxFA3's zero-row errors add
        // positive bias) while the surface stays strongly rank-correlated.
        let pairs: Vec<(f64, f64)> = s_exact
            .iter()
            .zip(s_apx.iter())
            .filter(|(&a, &b)| a != u64::MAX && b != u64::MAX)
            .map(|(&a, &b)| (a as f64, b as f64))
            .collect();
        let n = pairs.len() as f64;
        let (mx, my) = (
            pairs.iter().map(|p| p.0).sum::<f64>() / n,
            pairs.iter().map(|p| p.1).sum::<f64>() / n,
        );
        let cov: f64 = pairs.iter().map(|(x, y)| (x - mx) * (y - my)).sum::<f64>();
        let vx: f64 = pairs.iter().map(|(x, _)| (x - mx).powi(2)).sum::<f64>();
        let vy: f64 = pairs.iter().map(|(_, y)| (y - my).powi(2)).sum::<f64>();
        let corr = cov / (vx.sqrt() * vy.sqrt());
        assert!(corr > 0.9, "surfaces must stay correlated: r = {corr}");
    }

    #[test]
    fn constructor_validation() {
        // 32 lanes is not a perfect square.
        assert!(MotionEstimator::new(SadAccelerator::accurate(32).unwrap(), 4).is_err());
        assert!(MotionEstimator::new(SadAccelerator::accurate(64).unwrap(), 0).is_err());
    }

    #[test]
    fn frame_shape_validation() {
        let me = MotionEstimator::new(SadAccelerator::accurate(64).unwrap(), 2).unwrap();
        let a = Grid::new(48, 48, 0u64);
        let b = Grid::new(48, 40, 0u64);
        assert!(me.estimate(&a, &b).is_err());
        let c = Grid::new(44, 44, 0u64); // not block-aligned
        assert!(me.estimate(&c, &c).is_err());
    }
}
