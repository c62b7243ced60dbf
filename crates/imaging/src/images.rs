//! The seven deterministic synthetic test images.
//!
//! Chosen to span the content axis that drives data-dependent resilience:
//! smooth content (gradients, blobs) tolerates LSB noise almost invisibly
//! under SSIM, while dense high-frequency content (checkerboard, noise,
//! text) exposes it. Every generator is a pure function of `(row, col,
//! size)` — or of a fixed seed for the noise images — so runs are
//! bit-reproducible.
//!
//! # Example
//!
//! ```
//! use xlac_imaging::images::TestImage;
//!
//! let img = TestImage::Gradient.render(64);
//! assert_eq!(img.shape(), (64, 64));
//! assert!(img.iter().all(|&v| v <= 255));
//! ```

use xlac_core::rng::{DefaultRng, Rng};
use xlac_core::Grid;

/// The seven Fig.10 stand-in images, ordered from smoothest to most
/// textured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TestImage {
    /// A diagonal luminance ramp — the smoothest content.
    Gradient,
    /// Soft Gaussian blobs on a mid-gray field (portrait-like smoothness).
    Blobs,
    /// Wide vertical bars (strong edges, large flat areas).
    Stripes,
    /// Low-frequency value noise (cloud-like texture).
    Clouds,
    /// Block-glyph "text" on a light background (sparse hard edges).
    Text,
    /// A fine checkerboard (maximum structured high frequency).
    Checkerboard,
    /// Uniform random noise (maximum unstructured high frequency).
    Noise,
}

impl TestImage {
    /// All seven images, smoothest first.
    pub const ALL: [TestImage; 7] = [
        TestImage::Gradient,
        TestImage::Blobs,
        TestImage::Stripes,
        TestImage::Clouds,
        TestImage::Text,
        TestImage::Checkerboard,
        TestImage::Noise,
    ];

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TestImage::Gradient => "gradient",
            TestImage::Blobs => "blobs",
            TestImage::Stripes => "stripes",
            TestImage::Clouds => "clouds",
            TestImage::Text => "text",
            TestImage::Checkerboard => "checkerboard",
            TestImage::Noise => "noise",
        }
    }

    /// Renders the image at `size × size`, 8-bit values.
    ///
    /// # Panics
    ///
    /// Panics if `size < 8`.
    #[must_use]
    pub fn render(self, size: usize) -> Grid<u64> {
        assert!(size >= 8, "images need at least 8x8 pixels");
        let n = size as f64;
        match self {
            TestImage::Gradient => Grid::from_fn(size, size, |r, c| {
                (((r + c) as f64 / (2.0 * n - 2.0)) * 255.0).round() as u64
            }),
            TestImage::Blobs => Grid::from_fn(size, size, |r, c| {
                let centers = [(0.3, 0.3, 0.18), (0.7, 0.6, 0.22), (0.45, 0.8, 0.12)];
                let (x, y) = (c as f64 / n, r as f64 / n);
                let mut v = 90.0f64;
                for (cx, cy, sigma) in centers {
                    let d2 = (x - cx).powi(2) + (y - cy).powi(2);
                    v += 140.0 * (-d2 / (2.0 * sigma * sigma)).exp();
                }
                v.clamp(0.0, 255.0).round() as u64
            }),
            TestImage::Stripes => Grid::from_fn(size, size, |_, c| {
                if (c / (size / 8).max(1)).is_multiple_of(2) {
                    220
                } else {
                    40
                }
            }),
            TestImage::Clouds => {
                // Two octaves of bilinear value noise from a fixed seed.
                let mut rng = DefaultRng::seed_from_u64(0xC10D);
                let coarse: Vec<f64> = (0..81).map(|_| rng.gen_range(0.0..1.0)).collect();
                let fine: Vec<f64> = (0..289).map(|_| rng.gen_range(0.0..1.0)).collect();
                let sample = |grid: &[f64], cells: usize, x: f64, y: f64| -> f64 {
                    let gx = x * cells as f64;
                    let gy = y * cells as f64;
                    let (x0, y0) = (gx.floor() as usize, gy.floor() as usize);
                    let (fx, fy) = (gx - x0 as f64, gy - y0 as f64);
                    let stride = cells + 1;
                    let at = |r: usize, c: usize| grid[r.min(cells) * stride + c.min(cells)];
                    let top = at(y0, x0) * (1.0 - fx) + at(y0, x0 + 1) * fx;
                    let bot = at(y0 + 1, x0) * (1.0 - fx) + at(y0 + 1, x0 + 1) * fx;
                    top * (1.0 - fy) + bot * fy
                };
                Grid::from_fn(size, size, |r, c| {
                    let (x, y) = (c as f64 / n, r as f64 / n);
                    let v = 0.7 * sample(&coarse, 8, x, y) + 0.3 * sample(&fine, 16, x, y);
                    (v * 255.0).clamp(0.0, 255.0).round() as u64
                })
            }
            TestImage::Text => Grid::from_fn(size, size, |r, c| {
                // Rows of block glyphs: a glyph cell is dark when a simple
                // hash of its cell coordinates says so.
                let cell = (size / 16).max(2);
                let (gr, gc) = (r / cell, c / cell);
                let in_line = gr % 3 != 0; // blank line every third row
                let hash = gr.wrapping_mul(31).wrapping_add(gc.wrapping_mul(17)) % 5;
                if in_line && hash < 2 {
                    30
                } else {
                    230
                }
            }),
            TestImage::Checkerboard => {
                Grid::from_fn(size, size, |r, c| if (r + c) % 2 == 0 { 255 } else { 0 })
            }
            TestImage::Noise => {
                let mut rng = DefaultRng::seed_from_u64(0x0153);
                Grid::from_fn(size, size, |_, _| rng.gen_range(0..256))
            }
        }
    }
}

impl std::fmt::Display for TestImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_images_render_in_range() {
        for img in TestImage::ALL {
            let g = img.render(32);
            assert_eq!(g.shape(), (32, 32), "{img}");
            assert!(g.iter().all(|&v| v <= 255), "{img}");
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        for img in TestImage::ALL {
            assert_eq!(img.render(32), img.render(32), "{img}");
        }
    }

    #[test]
    fn images_are_distinct() {
        let rendered: Vec<_> = TestImage::ALL.iter().map(|i| i.render(32)).collect();
        for i in 0..rendered.len() {
            for j in (i + 1)..rendered.len() {
                assert_ne!(
                    rendered[i],
                    rendered[j],
                    "{:?} vs {:?}",
                    TestImage::ALL[i],
                    TestImage::ALL[j]
                );
            }
        }
    }

    #[test]
    fn gradient_is_monotone_along_diagonal() {
        let g = TestImage::Gradient.render(64);
        for i in 1..64 {
            assert!(g[(i, i)] >= g[(i - 1, i - 1)]);
        }
        assert_eq!(g[(0, 0)], 0);
        assert_eq!(g[(63, 63)], 255);
    }

    #[test]
    fn checkerboard_alternates() {
        let g = TestImage::Checkerboard.render(16);
        assert_eq!(g[(0, 0)], 255);
        assert_eq!(g[(0, 1)], 0);
        assert_eq!(g[(1, 0)], 0);
    }

    #[test]
    fn high_frequency_images_have_more_local_variation() {
        // Mean absolute horizontal difference orders smooth < textured.
        let variation = |img: TestImage| -> f64 {
            let g = img.render(64);
            let mut total = 0.0;
            for r in 0..64 {
                for c in 1..64 {
                    total += g[(r, c)].abs_diff(g[(r, c - 1)]) as f64;
                }
            }
            total / (64.0 * 63.0)
        };
        assert!(variation(TestImage::Gradient) < variation(TestImage::Clouds));
        assert!(variation(TestImage::Clouds) < variation(TestImage::Checkerboard));
        assert!(variation(TestImage::Blobs) < variation(TestImage::Noise));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = TestImage::ALL.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    #[should_panic(expected = "at least 8x8")]
    fn tiny_sizes_are_rejected() {
        let _ = TestImage::Gradient.render(4);
    }
}
