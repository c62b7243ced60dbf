//! Rate-distortion analysis: RD curves and Bjøntegaard-delta rate.
//!
//! Fig.9 reports bit-rate increase at one operating point; the standard
//! codec-evaluation methodology sweeps the quantizer and compares whole
//! **RD curves** (bits vs PSNR), summarizing the gap as the
//! **BD-rate** — the average bit-rate overhead at equal quality. This
//! module implements both: [`rd_curve`] sweeps `qstep` for a given
//! encoder configuration, and [`bd_rate`] integrates the rate difference
//! over the overlapping quality interval (piecewise-linear in
//! `log(rate)`, the robust variant of Bjøntegaard's polynomial fit).
//!
//! # Example
//!
//! ```
//! use xlac_video::rd::{bd_rate, RdPoint};
//!
//! // A curve that needs 10% more rate at every quality.
//! let base = vec![
//!     RdPoint { bits: 1000.0, psnr_db: 30.0 },
//!     RdPoint { bits: 2000.0, psnr_db: 35.0 },
//!     RdPoint { bits: 4000.0, psnr_db: 40.0 },
//! ];
//! let test: Vec<RdPoint> =
//!     base.iter().map(|p| RdPoint { bits: p.bits * 1.1, ..*p }).collect();
//! let bd = bd_rate(&base, &test).unwrap();
//! assert!((bd - 10.0).abs() < 0.5);
//! ```

use crate::encoder::{Encoder, EncoderConfig};
use xlac_accel::sad::SadAccelerator;
use xlac_core::error::{Result, XlacError};
use xlac_core::Grid;

/// One operating point of an RD curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdPoint {
    /// Total bits for the sequence at this quantizer.
    pub bits: f64,
    /// Mean reconstruction PSNR in dB.
    pub psnr_db: f64,
}

/// Sweeps the quantizer over `qsteps`, encoding `frames` with the given
/// base configuration and SAD accelerator (re-instantiated per point via
/// the provided constructor closure), returning one [`RdPoint`] per step.
///
/// # Errors
///
/// Propagates encoder errors; requires at least two quantizer steps.
pub fn rd_curve<F>(
    frames: &[Grid<u64>],
    base: EncoderConfig,
    qsteps: &[f64],
    mut sad: F,
) -> Result<Vec<RdPoint>>
where
    F: FnMut() -> Result<SadAccelerator>,
{
    if qsteps.len() < 2 {
        return Err(XlacError::InvalidConfiguration(
            "an RD curve needs at least two quantizer steps".into(),
        ));
    }
    qsteps
        .iter()
        .map(|&qstep| {
            let cfg = EncoderConfig { qstep, ..base };
            let stats = Encoder::new(cfg, sad()?)?.encode(frames)?;
            Ok(RdPoint { bits: stats.total_bits as f64, psnr_db: stats.psnr_db })
        })
        .collect()
}

/// Bjøntegaard-delta rate of `test` against `reference`, in percent:
/// positive means `test` needs more bits at equal PSNR.
///
/// Uses piecewise-linear interpolation of `log10(bits)` as a function of
/// PSNR, integrated over the overlapping PSNR interval.
///
/// # Errors
///
/// Returns [`XlacError::InvalidConfiguration`] when either curve has
/// fewer than two points or the PSNR ranges do not overlap.
pub fn bd_rate(reference: &[RdPoint], test: &[RdPoint]) -> Result<f64> {
    if reference.len() < 2 || test.len() < 2 {
        return Err(XlacError::InvalidConfiguration(
            "BD-rate needs at least two points per curve".into(),
        ));
    }
    let prep = |curve: &[RdPoint]| -> Vec<(f64, f64)> {
        // (psnr, log10 bits), sorted by psnr.
        let mut pts: Vec<(f64, f64)> = curve.iter().map(|p| (p.psnr_db, p.bits.log10())).collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        pts
    };
    let ref_pts = prep(reference);
    let test_pts = prep(test);
    let lo = ref_pts[0].0.max(test_pts[0].0);
    let hi = ref_pts.last().expect("len >= 2").0.min(test_pts.last().expect("len >= 2").0);
    if hi <= lo {
        return Err(XlacError::InvalidConfiguration(format!(
            "PSNR ranges do not overlap: [{:.2}, {:.2}]",
            lo, hi
        )));
    }
    let interp = |pts: &[(f64, f64)], x: f64| -> f64 {
        // Piecewise linear; x is inside [pts.first().0, pts.last().0].
        for w in pts.windows(2) {
            if x <= w[1].0 {
                let t = (x - w[0].0) / (w[1].0 - w[0].0).max(1e-12);
                return w[0].1 + t * (w[1].1 - w[0].1);
            }
        }
        pts.last().expect("non-empty").1
    };
    // Trapezoidal integration of the log-rate difference.
    let steps = 256;
    let mut integral = 0.0f64;
    for i in 0..steps {
        let x0 = lo + (hi - lo) * i as f64 / steps as f64;
        let x1 = lo + (hi - lo) * (i + 1) as f64 / steps as f64;
        let d0 = interp(&test_pts, x0) - interp(&ref_pts, x0);
        let d1 = interp(&test_pts, x1) - interp(&ref_pts, x1);
        integral += 0.5 * (d0 + d1) * (x1 - x0);
    }
    let mean_log_diff = integral / (hi - lo);
    Ok((10f64.powf(mean_log_diff) - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{SequenceConfig, SyntheticSequence};
    use xlac_accel::sad::SadVariant;

    fn ramp(scale: f64) -> Vec<RdPoint> {
        (0..4)
            .map(|i| RdPoint {
                bits: scale * 1000.0 * (1 << i) as f64,
                psnr_db: 30.0 + 3.0 * i as f64,
            })
            .collect()
    }

    #[test]
    fn identical_curves_have_zero_bd_rate() {
        let a = ramp(1.0);
        assert!(bd_rate(&a, &a).unwrap().abs() < 1e-9);
    }

    #[test]
    fn uniform_rate_inflation_is_recovered() {
        let base = ramp(1.0);
        let worse = ramp(1.25);
        let bd = bd_rate(&base, &worse).unwrap();
        assert!((bd - 25.0).abs() < 0.5, "bd {bd}");
        // Anti-symmetric direction: the better curve has negative BD-rate.
        let bd_rev = bd_rate(&worse, &base).unwrap();
        assert!((bd_rev + 20.0).abs() < 0.5, "1/1.25 - 1 = -20%: {bd_rev}");
    }

    #[test]
    fn validation() {
        let a = ramp(1.0);
        assert!(bd_rate(&a[..1], &a).is_err());
        // Non-overlapping PSNR ranges.
        let high: Vec<RdPoint> =
            a.iter().map(|p| RdPoint { psnr_db: p.psnr_db + 100.0, ..*p }).collect();
        assert!(bd_rate(&a, &high).is_err());
    }

    #[test]
    fn rd_curve_is_monotone_for_the_exact_encoder() {
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let curve =
            rd_curve(seq.frames(), EncoderConfig::default(), &[2.0, 6.0, 12.0, 24.0], || {
                SadAccelerator::accurate(64)
            })
            .unwrap();
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[1].bits < w[0].bits, "coarser quantizer, fewer bits");
            assert!(w[1].psnr_db < w[0].psnr_db, "coarser quantizer, lower PSNR");
        }
    }

    #[test]
    fn approximate_sad_has_positive_bd_rate() {
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let qsteps = [3.0, 8.0, 16.0];
        let base = rd_curve(seq.frames(), EncoderConfig::default(), &qsteps, || {
            SadAccelerator::accurate(64)
        })
        .unwrap();
        let approx = rd_curve(seq.frames(), EncoderConfig::default(), &qsteps, || {
            SadAccelerator::new(64, SadVariant::ApxSad5, 6)
        })
        .unwrap();
        let bd = bd_rate(&base, &approx).unwrap();
        assert!(bd > 0.0, "aggressive SAD must cost rate at equal quality: {bd}");
    }

    #[test]
    fn curve_needs_two_steps() {
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        assert!(rd_curve(seq.frames(), EncoderConfig::default(), &[8.0], || {
            SadAccelerator::accurate(64)
        })
        .is_err());
    }
}
