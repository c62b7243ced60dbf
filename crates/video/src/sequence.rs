//! Deterministic synthetic video sequences.
//!
//! A sequence is a textured background with a set of textured rectangles
//! moving at constant velocities, optional global pan and additive sensor
//! noise. The texture matters: motion estimation on flat content is
//! trivially exact even with broken SAD, so the generator guarantees
//! enough local variance for the Fig.8/Fig.9 experiments to be
//! discriminative.
//!
//! # Example
//!
//! ```
//! use xlac_video::sequence::{SequenceConfig, SyntheticSequence};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let seq = SyntheticSequence::generate(&SequenceConfig::small_test())?;
//! assert!(seq.frames().len() >= 2);
//! # Ok(())
//! # }
//! ```

use xlac_core::error::{Result, XlacError};
use xlac_core::rng::{DefaultRng, Rng};
use xlac_core::Grid;

/// A moving object in the scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingObject {
    /// Top-left position at frame 0, in pixels.
    pub position: (f64, f64),
    /// Velocity in pixels/frame `(dy, dx)`.
    pub velocity: (f64, f64),
    /// Object size `(height, width)` in pixels.
    pub size: (usize, usize),
    /// Base luminance of the object.
    pub luminance: u64,
}

/// Configuration of a synthetic sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceConfig {
    /// Frame width in pixels (multiple of 8).
    pub width: usize,
    /// Frame height in pixels (multiple of 8).
    pub height: usize,
    /// Number of frames.
    pub frames: usize,
    /// Scene objects.
    pub objects: Vec<MovingObject>,
    /// Global pan velocity in pixels/frame `(dy, dx)`.
    pub pan: (f64, f64),
    /// Uniform sensor-noise amplitude (0 disables noise).
    pub noise_amplitude: u64,
    /// RNG seed for textures and noise.
    pub seed: u64,
}

impl SequenceConfig {
    /// A small, fast configuration for tests: 64×64, 6 frames, two
    /// objects, slight pan, mild noise.
    #[must_use]
    pub fn small_test() -> Self {
        SequenceConfig {
            width: 64,
            height: 64,
            frames: 6,
            objects: vec![
                MovingObject {
                    position: (8.0, 10.0),
                    velocity: (1.0, 2.0),
                    size: (16, 16),
                    luminance: 190,
                },
                MovingObject {
                    position: (36.0, 30.0),
                    velocity: (-1.0, 1.0),
                    size: (12, 20),
                    luminance: 70,
                },
            ],
            pan: (0.0, 0.5),
            noise_amplitude: 2,
            seed: 0x5E9,
        }
    }

    /// The benchmark configuration used by the Fig.9 reproduction:
    /// 96×96, 24 frames, three objects, pan and noise.
    #[must_use]
    pub fn fig9() -> Self {
        SequenceConfig {
            width: 96,
            height: 96,
            frames: 24,
            objects: vec![
                MovingObject {
                    position: (10.0, 12.0),
                    velocity: (0.8, 1.6),
                    size: (24, 24),
                    luminance: 200,
                },
                MovingObject {
                    position: (52.0, 40.0),
                    velocity: (-0.7, 1.1),
                    size: (18, 28),
                    luminance: 60,
                },
                MovingObject {
                    position: (30.0, 64.0),
                    velocity: (1.3, -0.9),
                    size: (14, 14),
                    luminance: 140,
                },
            ],
            pan: (0.3, 0.6),
            noise_amplitude: 3,
            seed: 0xF19,
        }
    }
}

/// A generated sequence of 8-bit frames.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSequence {
    frames: Vec<Grid<u64>>,
}

impl SyntheticSequence {
    /// Generates the sequence described by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when dimensions are not
    /// positive multiples of 8 or fewer than 2 frames are requested.
    pub fn generate(config: &SequenceConfig) -> Result<Self> {
        if config.width == 0
            || !config.width.is_multiple_of(8)
            || config.height == 0
            || !config.height.is_multiple_of(8)
        {
            return Err(XlacError::InvalidConfiguration(format!(
                "frame {}x{} must be a positive multiple of 8",
                config.width, config.height
            )));
        }
        if config.frames < 2 {
            return Err(XlacError::InvalidConfiguration(
                "a sequence needs at least 2 frames for motion".into(),
            ));
        }

        // A fixed textured background, larger than the frame so global pan
        // can scroll over it.
        let margin = (config.frames as f64 * config.pan.0.abs().max(config.pan.1.abs()).max(1.0))
            .ceil() as usize
            + 8;
        let bg_h = config.height + 2 * margin;
        let bg_w = config.width + 2 * margin;
        let mut rng = DefaultRng::seed_from_u64(config.seed);
        // Smooth-ish background texture: coarse noise + fine detail.
        let coarse: Grid<u64> =
            Grid::from_fn(bg_h / 8 + 2, bg_w / 8 + 2, |_, _| rng.gen_range(60..180));
        let background = Grid::from_fn(bg_h, bg_w, |r, c| {
            let base = coarse[(r / 8, c / 8)];
            let detail = ((r * 7 + c * 13) % 23) as u64;
            (base + detail).min(255)
        });
        // Per-object texture patterns (fixed per object, so objects carry
        // their texture as they move — crucial for ME to track them).
        let textures: Vec<Grid<u64>> = config
            .objects
            .iter()
            .map(|o| {
                Grid::from_fn(o.size.0, o.size.1, |r, c| {
                    let v = o.luminance as i64 + ((r * 5 + c * 3) % 17) as i64 - 8;
                    v.clamp(0, 255) as u64
                })
            })
            .collect();

        let mut frames = Vec::with_capacity(config.frames);
        for f in 0..config.frames {
            let t = f as f64;
            let pan_r = margin as f64 + config.pan.0 * t;
            let pan_c = margin as f64 + config.pan.1 * t;
            let mut frame = Grid::from_fn(config.height, config.width, |r, c| {
                let br = (r as f64 + pan_r).round() as usize;
                let bc = (c as f64 + pan_c).round() as usize;
                background[(br.min(bg_h - 1), bc.min(bg_w - 1))]
            });
            for (obj, tex) in config.objects.iter().zip(&textures) {
                let top = (obj.position.0 + obj.velocity.0 * t).round() as i64;
                let left = (obj.position.1 + obj.velocity.1 * t).round() as i64;
                for r in 0..obj.size.0 {
                    for c in 0..obj.size.1 {
                        let fr = top + r as i64;
                        let fc = left + c as i64;
                        if fr >= 0
                            && fc >= 0
                            && (fr as usize) < config.height
                            && (fc as usize) < config.width
                        {
                            frame[(fr as usize, fc as usize)] = tex[(r, c)];
                        }
                    }
                }
            }
            if config.noise_amplitude > 0 {
                let amp = config.noise_amplitude as i64;
                for v in frame.as_mut_slice() {
                    let n = rng.gen_range(-amp..=amp);
                    *v = (*v as i64 + n).clamp(0, 255) as u64;
                }
            }
            frames.push(frame);
        }
        Ok(SyntheticSequence { frames })
    }

    /// The generated frames.
    #[must_use]
    pub fn frames(&self) -> &[Grid<u64>] {
        &self.frames
    }

    /// Consumes the sequence, returning the frames.
    #[must_use]
    pub fn into_frames(self) -> Vec<Grid<u64>> {
        self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SequenceConfig::small_test();
        let a = SyntheticSequence::generate(&cfg).unwrap();
        let b = SyntheticSequence::generate(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn frames_have_configured_shape_and_range() {
        let cfg = SequenceConfig::small_test();
        let seq = SyntheticSequence::generate(&cfg).unwrap();
        assert_eq!(seq.frames().len(), cfg.frames);
        for f in seq.frames() {
            assert_eq!(f.shape(), (cfg.height, cfg.width));
            assert!(f.iter().all(|&v| v <= 255));
        }
    }

    #[test]
    fn consecutive_frames_differ_but_modestly() {
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let fs = seq.frames();
        for w in fs.windows(2) {
            let changed = w[0].iter().zip(w[1].iter()).filter(|(a, b)| a != b).count();
            assert!(changed > 0, "motion must change pixels");
            assert!(changed < w[0].len(), "frames must stay correlated");
        }
    }

    #[test]
    fn frames_carry_texture() {
        // Motion estimation needs local variance: no frame may be flat.
        let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).unwrap();
        for f in seq.frames() {
            let mean: f64 = f.iter().map(|&v| v as f64).sum::<f64>() / f.len() as f64;
            let var: f64 =
                f.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / f.len() as f64;
            assert!(var > 50.0, "frame variance {var} too low for ME study");
        }
    }

    #[test]
    fn config_validation() {
        let mut cfg = SequenceConfig::small_test();
        cfg.width = 63;
        assert!(SyntheticSequence::generate(&cfg).is_err());
        let mut cfg = SequenceConfig::small_test();
        cfg.frames = 1;
        assert!(SyntheticSequence::generate(&cfg).is_err());
    }
}
