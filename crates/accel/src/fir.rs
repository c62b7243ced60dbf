//! A FIR filter accelerator: the multiply-accumulate datapath on
//! approximate multipliers and adders.
//!
//! The survey's DSP application class (Table I: "DSP, vision/image
//! processing") is dominated by the MAC kernel. [`FirAccelerator`]
//! implements an `N`-tap FIR with signed coefficients: per tap a
//! (possibly approximate) unsigned-core multiplier wrapped in
//! sign-magnitude handling, then a balanced accumulation tree on
//! (possibly approximate) two's-complement adders — the same composition
//! recipe as the SAD and DCT accelerators, now with multipliers in the
//! datapath.
//!
//! # Example
//!
//! ```
//! use xlac_accel::fir::FirAccelerator;
//! use xlac_accel::config::ApproxMode;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! // A 3-tap moving-average-ish filter.
//! let fir = FirAccelerator::new(&[1, 2, 1], ApproxMode::Accurate)?;
//! let y = fir.apply(&[0, 0, 4, 0, 0]);
//! assert_eq!(y, vec![0, 4, 8, 4, 0]); // the kernel, reflected
//! # Ok(())
//! # }
//! ```

use crate::config::ApproxMode;
use xlac_adders::{Adder, RippleCarryAdder};
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};
use xlac_multipliers::{Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode};

/// An `N`-tap FIR accelerator with signed 8-bit coefficients and
/// 8-bit unsigned samples.
#[derive(Debug, Clone)]
pub struct FirAccelerator {
    coefficients: Vec<i64>,
    mode: ApproxMode,
    multiplier: RecursiveMultiplier,
    accumulator: RippleCarryAdder,
}

impl FirAccelerator {
    /// Accumulator width: |coef| ≤ 127, sample ≤ 255, ≤ 64 taps →
    /// |acc| < 2^21; sign bit included.
    const ACC_BITS: usize = 22;

    /// Sample width: each input sample is one unsigned byte.
    pub const SAMPLE_BITS: usize = 8;

    /// Builds the filter. The approximation mode selects the 2×2 block
    /// kind and the approximate-LSB count of both the tap multipliers and
    /// the accumulation adders (the [`ApproxMode`] ladder applied to a
    /// MAC datapath).
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] for empty taps, more
    /// than 64 taps, or coefficients outside `-127..=127`.
    pub fn new(coefficients: &[i64], mode: ApproxMode) -> Result<Self> {
        if coefficients.is_empty() || coefficients.len() > 64 {
            return Err(XlacError::InvalidConfiguration(format!(
                "{} taps outside 1..=64",
                coefficients.len()
            )));
        }
        if let Some(&bad) = coefficients.iter().find(|c| c.abs() > 127) {
            return Err(XlacError::InvalidConfiguration(format!(
                "coefficient {bad} outside -127..=127"
            )));
        }
        // Cell and mode mapping for a MAC datapath. Two structural rules
        // learned the hard way (see the tests):
        //
        // 1. ApxFA2/ApxFA3 compute `sum = !cout`, which outputs 1 on
        //    all-zero inputs; a multiplier's shift-add recursion amplifies
        //    that injected constant through the column weights (0×0 would
        //    come out in the thousands). MAC datapaths need
        //    *zero-preserving* cells — ApxFA1/ApxFA4/ApxFA5 keep 0+0 = 0.
        // 2. Approximating the partial-product adders at *every* recursion
        //    level multiplies the per-adder error by the level's column
        //    weight. Tap products therefore keep exact summation until the
        //    aggressive mode, where only 2 LSBs per level are released;
        //    the big, linear accumulator tree absorbs the mode's full
        //    LSB budget instead.
        let cell = match mode {
            ApproxMode::Accurate => xlac_adders::FullAdderKind::Accurate,
            ApproxMode::Mild => xlac_adders::FullAdderKind::Apx1,
            ApproxMode::Medium => xlac_adders::FullAdderKind::Apx4,
            ApproxMode::Aggressive => xlac_adders::FullAdderKind::Apx5,
        };
        // Block ladder: ApxMulOur drops the LSB of *every* odd×odd digit
        // product, which compounds badly for small odd coefficients (5 =
        // digits 1,1), so mild keeps the blocks exact and approximates
        // only the accumulator; ApxMulSoA errs on 3×3 digit pairs only
        // and enters at medium.
        let block = match mode {
            ApproxMode::Accurate | ApproxMode::Mild => Mul2x2Kind::Accurate,
            ApproxMode::Medium | ApproxMode::Aggressive => Mul2x2Kind::ApxSoA,
        };
        let sum = match mode {
            ApproxMode::Aggressive => SumMode::ApproxLsbs { kind: cell, lsbs: 2 },
            _ => SumMode::Accurate,
        };
        Ok(FirAccelerator {
            coefficients: coefficients.to_vec(),
            mode,
            multiplier: RecursiveMultiplier::new(8, block, sum)?,
            accumulator: RippleCarryAdder::with_approx_lsbs(
                Self::ACC_BITS,
                cell,
                mode.approx_lsbs(),
            )?,
        })
    }

    /// Number of taps.
    #[must_use]
    pub fn taps(&self) -> usize {
        self.coefficients.len()
    }

    /// The approximation mode.
    #[must_use]
    pub fn mode(&self) -> ApproxMode {
        self.mode
    }

    /// The signed tap coefficients.
    #[must_use]
    pub fn coefficients(&self) -> &[i64] {
        &self.coefficients
    }

    /// The shared tap multiplier (for static analysis of the datapath).
    #[must_use]
    pub fn multiplier(&self) -> &RecursiveMultiplier {
        &self.multiplier
    }

    /// The accumulation-tree adder (for static analysis of the datapath).
    #[must_use]
    pub fn accumulator(&self) -> &RippleCarryAdder {
        &self.accumulator
    }

    /// Accumulator width in bits (the rails truncate to this).
    #[must_use]
    pub fn accumulator_bits() -> usize {
        Self::ACC_BITS
    }

    /// Unsigned accumulation of one rail's tap magnitudes through the
    /// approximate adder tree.
    fn accumulate(&self, mut level: Vec<u64>) -> u64 {
        if level.is_empty() {
            return 0;
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < level.len() {
                next.push(bits::truncate(
                    self.accumulator.add(level[i], level[i + 1]),
                    Self::ACC_BITS,
                ));
                i += 2;
            }
            if i < level.len() {
                next.push(level[i]);
            }
            level = next;
        }
        level[0]
    }

    /// Applies the filter to a sample stream (zero-padded boundaries,
    /// kernel centred): `y[n] = Σ_k h[k] · x[n + k − T/2]`.
    ///
    /// The datapath is **dual-rail**: positive-coefficient and
    /// negative-coefficient tap products accumulate in separate unsigned
    /// trees and meet in one exact final subtraction. Approximate adders
    /// on a two's-complement accumulator would otherwise suffer
    /// catastrophic wrap errors whenever a missed LSB carry has to ripple
    /// through the sign-extension bits — the dual-rail split keeps every
    /// approximate addition carry-local, which is how signed MAC datapaths
    /// deploy approximate adders in practice.
    ///
    /// Output values are the raw accumulator differences (signed; no
    /// normalization — callers scale as their application needs).
    #[must_use]
    pub fn apply(&self, samples: &[u64]) -> Vec<i64> {
        let taps = self.coefficients.len() as i64;
        let half = taps / 2;
        (0..samples.len() as i64)
            .map(|n| {
                let mut positive = Vec::new();
                let mut negative = Vec::new();
                for (k, &h) in self.coefficients.iter().enumerate() {
                    let idx = n + k as i64 - half;
                    if idx < 0 || idx >= samples.len() as i64 || h == 0 {
                        continue;
                    }
                    let product =
                        self.multiplier.mul(h.unsigned_abs(), samples[idx as usize] & 0xFF);
                    if h > 0 {
                        positive.push(product);
                    } else {
                        negative.push(product);
                    }
                }
                let pos = self.accumulate(positive);
                let neg = self.accumulate(negative);
                pos as i64 - neg as i64
            })
            .collect()
    }

    /// The exact reference response.
    #[must_use]
    pub fn apply_exact(coefficients: &[i64], samples: &[u64]) -> Vec<i64> {
        let taps = coefficients.len() as i64;
        let half = taps / 2;
        (0..samples.len() as i64)
            .map(|n| {
                coefficients
                    .iter()
                    .enumerate()
                    .map(|(k, &h)| {
                        let idx = n + k as i64 - half;
                        if idx < 0 || idx >= samples.len() as i64 {
                            0
                        } else {
                            h * (samples[idx as usize] & 0xFF) as i64
                        }
                    })
                    .sum()
            })
            .collect()
    }

    /// Hardware cost: one multiplier per tap in parallel, then the
    /// accumulation tree.
    #[must_use]
    pub fn hw_cost(&self) -> HwCost {
        let mul = self.multiplier.hw_cost();
        let add = self.accumulator.hw_cost();
        let mut taps_cost = HwCost::ZERO;
        for _ in 0..self.coefficients.len() {
            taps_cost = taps_cost.parallel(mul);
        }
        let adders = self.coefficients.len().saturating_sub(1) as f64;
        let depth = (self.coefficients.len() as f64).log2().ceil().max(1.0);
        let mut cost = taps_cost + add * adders;
        cost.delay = mul.delay + add.delay * depth;
        cost
    }

    /// Instance name, e.g. `"FIR(5 taps, medium)"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("FIR({} taps, {})", self.coefficients.len(), self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_response_is_the_kernel() {
        let h = [3i64, -5, 7, 2, 1];
        let fir = FirAccelerator::new(&h, ApproxMode::Accurate).unwrap();
        let mut x = vec![0u64; 11];
        x[5] = 1;
        let y = fir.apply(&x);
        // Centered kernel appears around index 5 (reflected: y[n] picks
        // h[k] with x[n + k - 2]).
        assert_eq!(&y[3..8], &[1, 2, 7, -5, 3]);
    }

    #[test]
    fn accurate_mode_matches_reference_on_random_data() {
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(0xF1);
        let h: Vec<i64> = (0..7).map(|_| rng.gen_range(-31..=31)).collect();
        let x: Vec<u64> = (0..64).map(|_| rng.gen_range(0..256)).collect();
        let fir = FirAccelerator::new(&h, ApproxMode::Accurate).unwrap();
        assert_eq!(fir.apply(&x), FirAccelerator::apply_exact(&h, &x));
    }

    #[test]
    fn smoothing_filter_attenuates_alternation() {
        // h = [1, 2, 1]: an alternating input's output variance collapses.
        let fir = FirAccelerator::new(&[1, 2, 1], ApproxMode::Accurate).unwrap();
        let x: Vec<u64> = (0..32).map(|i| if i % 2 == 0 { 200 } else { 0 }).collect();
        let y = fir.apply(&x);
        // Interior outputs are all 400 or 2*200: constant-ish.
        for w in y[2..30].windows(2) {
            assert!((w[0] - w[1]).abs() <= 0, "interior output should be flat: {w:?}");
        }
    }

    #[test]
    fn approximate_modes_degrade_gracefully() {
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(0xF2);
        let h = [1i64, 4, 6, 4, 1]; // binomial smoother
        let x: Vec<u64> = (0..128).map(|_| rng.gen_range(0..256)).collect();
        let exact = FirAccelerator::apply_exact(&h, &x);
        let scale: f64 =
            exact.iter().map(|v| v.unsigned_abs() as f64).sum::<f64>() / exact.len() as f64;
        let mut last = -1.0f64;
        for mode in ApproxMode::ALL {
            let fir = FirAccelerator::new(&h, mode).unwrap();
            let y = fir.apply(&x);
            let err: f64 =
                exact.iter().zip(&y).map(|(e, a)| (e - a).unsigned_abs() as f64).sum::<f64>()
                    / exact.len() as f64;
            assert!(err >= last - scale * 0.01, "{mode}: error fell sharply");
            assert!(err < scale, "{mode}: error must stay below signal scale");
            last = err;
        }
    }

    #[test]
    fn negative_coefficients_work_in_every_mode() {
        let h = [-2i64, 5, -2];
        for mode in ApproxMode::ALL {
            let fir = FirAccelerator::new(&h, mode).unwrap();
            let y = fir.apply(&[100, 100, 100, 100]);
            // Exact interior output is 100·(−2+5−2) = 100. Mild/medium
            // stay close; the aggressive mode's per-level summation
            // errors scale with the column weights (a few hundred on this
            // 500-unit rail) but must not explode.
            let tolerance = if mode == ApproxMode::Aggressive { 400 } else { 64 };
            assert!(y[1].abs_diff(100) < tolerance, "{mode}: y = {y:?}");
        }
    }

    #[test]
    fn cost_falls_with_aggressiveness() {
        let h = [1i64, 2, 4, 2, 1];
        let mut last = f64::INFINITY;
        for mode in ApproxMode::ALL {
            let cost = FirAccelerator::new(&h, mode).unwrap().hw_cost();
            assert!(cost.power_nw < last, "{mode}");
            last = cost.power_nw;
        }
    }

    #[test]
    fn validation_and_name() {
        assert!(FirAccelerator::new(&[], ApproxMode::Accurate).is_err());
        assert!(FirAccelerator::new(&[200], ApproxMode::Accurate).is_err());
        assert!(FirAccelerator::new(&vec![1; 65], ApproxMode::Accurate).is_err());
        let fir = FirAccelerator::new(&[1, 2, 1], ApproxMode::Medium).unwrap();
        assert_eq!(fir.name(), "FIR(3 taps, medium)");
        assert_eq!(fir.taps(), 3);
    }
}
