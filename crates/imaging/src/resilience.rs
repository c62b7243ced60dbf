//! The Fig.10 data-dependent resilience experiment.
//!
//! For each test image: filter it once on the accurate low-pass datapath
//! and once on the approximate one, then score the approximate output
//! against the accurate output with SSIM. The paper's observation — the
//! experiment this module regenerates — is that the *same* approximate
//! circuit yields *different* SSIM on different content, so approximation
//! control should be data-driven.
//!
//! # Example
//!
//! ```
//! use xlac_imaging::images::TestImage;
//! use xlac_imaging::resilience::{resilience_study, StudyConfig};
//! use xlac_adders::FullAdderKind;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let cfg = StudyConfig { size: 32, kind: FullAdderKind::Apx2, approx_lsbs: 4 };
//! let rows = resilience_study(&[TestImage::Gradient, TestImage::Noise], cfg)?;
//! assert_eq!(rows.len(), 2);
//! # Ok(())
//! # }
//! ```

use crate::images::TestImage;
use crate::to_f64;
use xlac_accel::filter::FilterAccelerator;
use xlac_adders::FullAdderKind;
use xlac_core::error::Result;
use xlac_quality::ssim;

/// Configuration of a resilience study run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyConfig {
    /// Image side length in pixels.
    pub size: usize,
    /// Approximate full-adder cell in the filter datapath.
    pub kind: FullAdderKind,
    /// Approximated accumulator LSBs.
    pub approx_lsbs: usize,
}

/// One row of the Fig.10 output.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    /// The image.
    pub image: TestImage,
    /// SSIM of the approximately-filtered image against the accurately-
    /// filtered one.
    pub ssim: f64,
    /// Mean absolute pixel difference between the two outputs.
    pub mean_abs_diff: f64,
}

/// Runs the study over the given images.
///
/// # Errors
///
/// Propagates filter-construction and metric errors (invalid LSB count,
/// image smaller than the SSIM window).
pub fn resilience_study(images: &[TestImage], cfg: StudyConfig) -> Result<Vec<ResilienceRow>> {
    let accurate = FilterAccelerator::accurate()?;
    let approximate = FilterAccelerator::new(cfg.kind, cfg.approx_lsbs)?;
    images
        .iter()
        .map(|&image| {
            let src = image.render(cfg.size);
            let reference = accurate.apply(&src)?;
            let output = approximate.apply(&src)?;
            let score = ssim(&to_f64(&reference), &to_f64(&output))?;
            let mad = xlac_quality::mae_pairs(
                reference.iter().zip(output.iter()).map(|(&a, &b)| (a as f64, b as f64)),
            )
            .expect("rendered images are non-empty");
            Ok(ResilienceRow { image, ssim: score, mean_abs_diff: mad })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study(kind: FullAdderKind, lsbs: usize) -> Vec<ResilienceRow> {
        resilience_study(&TestImage::ALL, StudyConfig { size: 48, kind, approx_lsbs: lsbs })
            .unwrap()
    }

    #[test]
    fn accurate_configuration_scores_perfect_everywhere() {
        for row in study(FullAdderKind::Accurate, 0) {
            assert!((row.ssim - 1.0).abs() < 1e-12, "{}", row.image);
            assert_eq!(row.mean_abs_diff, 0.0);
        }
    }

    #[test]
    fn ssim_varies_across_images() {
        // The Fig.10 headline: one circuit, different scores per image.
        let rows = study(FullAdderKind::Apx3, 4);
        let min = rows.iter().map(|r| r.ssim).fold(f64::INFINITY, f64::min);
        let max = rows.iter().map(|r| r.ssim).fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 0.005,
            "data-dependent resilience should spread the scores: {min}..{max}"
        );
        assert!(max <= 1.0 + 1e-12);
    }

    #[test]
    fn more_aggressive_approximation_lowers_mean_ssim() {
        let mild: f64 = study(FullAdderKind::Apx1, 2).iter().map(|r| r.ssim).sum::<f64>() / 7.0;
        let harsh: f64 = study(FullAdderKind::Apx5, 6).iter().map(|r| r.ssim).sum::<f64>() / 7.0;
        assert!(harsh < mild, "harsher config must lose more quality: {harsh} !< {mild}");
    }

    #[test]
    fn rows_follow_input_order() {
        let rows = study(FullAdderKind::Apx2, 2);
        for (row, img) in rows.iter().zip(TestImage::ALL) {
            assert_eq!(row.image, img);
        }
    }
}
