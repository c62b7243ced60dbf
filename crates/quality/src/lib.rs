//! # xlac-quality — output-quality metrics
//!
//! Approximate computing trades hardware cost against *output quality*, so
//! a quality metric is part of the toolchain. This crate implements the
//! metrics the paper's evaluation uses:
//!
//! * [`mse`]/[`psnr`] — pixel-wise error energy, the workhorse metrics.
//! * [`ssim`] — the Structural Similarity Index Measure of Wang, Bovik,
//!   Sheikh and Simoncelli (IEEE TIP 2004), the psycho-visual measure
//!   behind the paper's Fig.10 data-resilience study. Implemented with the
//!   reference parameters: 8×8 sliding window, `K1 = 0.01`, `K2 = 0.03`,
//!   dynamic range `L = 255`.
//!
//! # Example
//!
//! ```
//! use xlac_core::Grid;
//! use xlac_quality::{mse, psnr, ssim};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let a = Grid::from_fn(16, 16, |r, c| ((r * c) % 256) as f64);
//! assert_eq!(mse(&a, &a)?, 0.0);
//! assert!(psnr(&a, &a)?.is_infinite());
//! assert!((ssim(&a, &a)? - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use xlac_core::error::{Result, XlacError};
use xlac_core::Grid;

/// Mean squared error between two equally-shaped images.
///
/// # Errors
///
/// Returns [`XlacError::ShapeMismatch`] when the shapes differ, or
/// [`XlacError::EmptyInput`] for empty images.
pub fn mse(a: &Grid<f64>, b: &Grid<f64>) -> Result<f64> {
    check_shapes(a, b)?;
    let n = a.len() as f64;
    Ok(a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / n)
}

/// Peak signal-to-noise ratio in dB, assuming a dynamic range of 255.
///
/// Identical images yield `f64::INFINITY`.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn psnr(a: &Grid<f64>, b: &Grid<f64>) -> Result<f64> {
    Ok(psnr_from_mse(mse(a, b)?))
}

/// Mean absolute error between two equally-shaped images.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn mae(a: &Grid<f64>, b: &Grid<f64>) -> Result<f64> {
    check_shapes(a, b)?;
    let n = a.len() as f64;
    Ok(a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum::<f64>() / n)
}

/// PSNR in dB from an already-computed MSE (dynamic range 255).
///
/// Zero MSE yields `f64::INFINITY`; callers that need a finite cap can
/// apply `.min(cap)`. This is the single PSNR formula shared by the
/// imaging, video and analysis paths.
#[must_use]
pub fn psnr_from_mse(mse: f64) -> f64 {
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * ((255.0 * 255.0) / mse).log10()
    }
}

/// Mean squared error over paired samples from any iterator (for callers
/// whose data is not in a [`Grid`], e.g. streaming video frames).
///
/// Returns `None` when the iterator is empty.
pub fn mse_pairs<I>(pairs: I) -> Option<f64>
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for (x, y) in pairs {
        sum += (x - y) * (x - y);
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// Mean absolute error over paired samples from any iterator.
///
/// Returns `None` when the iterator is empty.
pub fn mae_pairs<I>(pairs: I) -> Option<f64>
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for (x, y) in pairs {
        sum += (x - y).abs();
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// SSIM parameters (the Wang et al. reference constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimParams {
    /// Sliding-window side length.
    pub window: usize,
    /// Luminance stabilizer factor `K1`.
    pub k1: f64,
    /// Contrast stabilizer factor `K2`.
    pub k2: f64,
    /// Dynamic range `L` (255 for 8-bit images).
    pub dynamic_range: f64,
}

impl Default for SsimParams {
    fn default() -> Self {
        SsimParams { window: 8, k1: 0.01, k2: 0.03, dynamic_range: 255.0 }
    }
}

/// Structural Similarity Index between two equally-shaped images with the
/// reference parameters (8×8 sliding window, stride 1, uniform weighting).
///
/// Returns the mean SSIM over all windows — 1.0 for identical images,
/// approaching 0 (or going negative) as structure diverges.
///
/// # Errors
///
/// Returns [`XlacError::ShapeMismatch`] when shapes differ or
/// [`XlacError::InvalidConfiguration`] when either dimension is smaller
/// than the window.
pub fn ssim(a: &Grid<f64>, b: &Grid<f64>) -> Result<f64> {
    ssim_with(a, b, SsimParams::default())
}

/// [`ssim`] with explicit parameters.
///
/// # Errors
///
/// Same conditions as [`ssim`].
pub fn ssim_with(a: &Grid<f64>, b: &Grid<f64>, params: SsimParams) -> Result<f64> {
    check_shapes(a, b)?;
    let w = params.window;
    if w == 0 || a.rows() < w || a.cols() < w {
        return Err(XlacError::InvalidConfiguration(format!(
            "SSIM window {w} does not fit a {}x{} image",
            a.rows(),
            a.cols()
        )));
    }
    let c1 = (params.k1 * params.dynamic_range).powi(2);
    let c2 = (params.k2 * params.dynamic_range).powi(2);
    let n = (w * w) as f64;

    let mut total = 0.0f64;
    let mut windows = 0usize;
    for top in 0..=(a.rows() - w) {
        for left in 0..=(a.cols() - w) {
            let mut sum_x = 0.0;
            let mut sum_y = 0.0;
            let mut sum_xx = 0.0;
            let mut sum_yy = 0.0;
            let mut sum_xy = 0.0;
            for r in top..top + w {
                for c in left..left + w {
                    let x = a[(r, c)];
                    let y = b[(r, c)];
                    sum_x += x;
                    sum_y += y;
                    sum_xx += x * x;
                    sum_yy += y * y;
                    sum_xy += x * y;
                }
            }
            let mu_x = sum_x / n;
            let mu_y = sum_y / n;
            let var_x = (sum_xx / n - mu_x * mu_x).max(0.0);
            let var_y = (sum_yy / n - mu_y * mu_y).max(0.0);
            let cov = sum_xy / n - mu_x * mu_y;
            let s = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2))
                / ((mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2));
            total += s;
            windows += 1;
        }
    }
    Ok(total / windows as f64)
}

fn check_shapes(a: &Grid<f64>, b: &Grid<f64>) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(XlacError::ShapeMismatch { expected: a.shape(), actual: b.shape() });
    }
    if a.is_empty() {
        return Err(XlacError::EmptyInput("quality metric image"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Grid<f64> {
        Grid::from_fn(rows, cols, |r, c| ((r * 7 + c * 13) % 256) as f64)
    }

    #[test]
    fn identical_images_are_perfect() {
        let img = ramp(32, 32);
        assert_eq!(mse(&img, &img).unwrap(), 0.0);
        assert_eq!(mae(&img, &img).unwrap(), 0.0);
        assert!(psnr(&img, &img).unwrap().is_infinite());
        assert!((ssim(&img, &img).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_offset_mse() {
        let a = ramp(16, 16);
        let b = a.map(|v| v + 3.0);
        assert!((mse(&a, &b).unwrap() - 9.0).abs() < 1e-12);
        assert!((mae(&a, &b).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn psnr_known_value() {
        // MSE = 1 → PSNR = 10·log10(255²) ≈ 48.13 dB.
        let a = ramp(16, 16);
        let b = a.map(|v| v + 1.0);
        let p = psnr(&a, &b).unwrap();
        assert!((p - 48.1308).abs() < 1e-3, "psnr {p}");
    }

    #[test]
    fn pair_helpers_agree_with_grid_metrics() {
        let a = ramp(16, 16);
        let b = a.map(|v| (v * 0.75 + 5.0).min(255.0));
        let pairs = || a.iter().zip(b.iter()).map(|(x, y)| (*x, *y));
        assert!((mse_pairs(pairs()).unwrap() - mse(&a, &b).unwrap()).abs() < 1e-12);
        assert!((mae_pairs(pairs()).unwrap() - mae(&a, &b).unwrap()).abs() < 1e-12);
        assert!(mse_pairs(std::iter::empty()).is_none());
        assert!(mae_pairs(std::iter::empty()).is_none());
        assert!(psnr_from_mse(0.0).is_infinite());
        assert!((psnr_from_mse(1.0) - 48.1308).abs() < 1e-3);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = ramp(8, 8);
        let b = ramp(8, 9);
        assert!(mse(&a, &b).is_err());
        assert!(ssim(&a, &b).is_err());
    }

    #[test]
    fn ssim_window_must_fit() {
        let a = ramp(4, 4);
        assert!(ssim(&a, &a).is_err()); // default window 8 > 4
        let params = SsimParams { window: 4, ..SsimParams::default() };
        assert!((ssim_with(&a, &a, params).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ssim_decreases_with_noise_amplitude() {
        use xlac_core::rng::{DefaultRng, Rng};
        let a = ramp(32, 32);
        let mut last = 1.0f64;
        for amplitude in [2.0, 8.0, 32.0, 96.0] {
            let mut rng = DefaultRng::seed_from_u64(11);
            let noisy =
                a.map(|v| (v + rng.gen_range::<f64, _>(-amplitude..amplitude)).clamp(0.0, 255.0));
            let s = ssim(&a, &noisy).unwrap();
            assert!(s < last, "SSIM must fall as noise grows: {s} !< {last}");
            last = s;
        }
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = ramp(24, 24);
        let b = a.map(|v| (v * 0.9 + 10.0).min(255.0));
        let ab = ssim(&a, &b).unwrap();
        let ba = ssim(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn ssim_detects_structural_inversion() {
        // An inverted image keeps luminance stats but destroys structure:
        // SSIM must be far below 1 (and typically negative).
        let a = ramp(32, 32);
        let b = a.map(|v| 255.0 - v);
        let s = ssim(&a, &b).unwrap();
        assert!(s < 0.2, "inverted image scored {s}");
    }

    #[test]
    fn ssim_luminance_shift_is_forgiven_more_than_noise() {
        // A mild uniform brightness shift preserves structure and should
        // score higher than structure-destroying noise of equal MSE.
        use xlac_core::rng::{DefaultRng, Rng};
        let a = ramp(32, 32);
        let shift = a.map(|v| (v + 10.0).min(255.0));
        let mut rng = DefaultRng::seed_from_u64(3);
        let noisy = a.map(|v| (v + if rng.gen::<bool>() { 10.0 } else { -10.0 }).clamp(0.0, 255.0));
        let mse_shift = mse(&a, &shift).unwrap();
        let mse_noise = mse(&a, &noisy).unwrap();
        assert!((mse_shift - mse_noise).abs() / mse_noise < 0.2, "comparable MSE");
        assert!(ssim(&a, &shift).unwrap() > ssim(&a, &noisy).unwrap());
    }

    #[test]
    fn empty_image_is_rejected() {
        let a: Grid<f64> = Grid::new(0, 0, 0.0);
        assert!(mse(&a, &a).is_err());
    }
}
