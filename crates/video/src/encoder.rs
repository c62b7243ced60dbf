//! A closed-loop block video encoder with an exp-Golomb bit-cost proxy.
//!
//! The encoding pipeline per block: motion-compensated prediction (from
//! the *reconstructed* previous frame, as real encoders do), residual
//! computation, the 4×4 integer core transform of H.264/HEVC, uniform
//! quantization, bit-cost estimation (exp-Golomb magnitude coding of the
//! quantized levels and the motion vector), then inverse quantization /
//! transform to maintain the reconstruction loop.
//!
//! The **bit count is the Fig.9 quantity**: approximate SAD picks worse
//! motion vectors, the residual energy grows, and the bit-rate rises.
//! Everything outside the SAD accelerator is exact, isolating the effect
//! of the approximate arithmetic exactly as the paper's HEVC study does.
//!
//! # Example
//!
//! ```
//! use xlac_video::encoder::{Encoder, EncoderConfig};
//! use xlac_video::sequence::{SequenceConfig, SyntheticSequence};
//! use xlac_accel::sad::SadAccelerator;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let seq = SyntheticSequence::generate(&SequenceConfig::small_test())?;
//! let enc = Encoder::new(EncoderConfig::default(), SadAccelerator::accurate(64)?)?;
//! let stats = enc.encode(seq.frames())?;
//! assert!(stats.total_bits > 0);
//! assert!(stats.psnr_db > 20.0);
//! # Ok(())
//! # }
//! ```

use crate::me::MotionEstimator;
use xlac_accel::sad::SadAccelerator;
use xlac_core::error::{Result, XlacError};
use xlac_core::Grid;

/// How the encoder computes its 4×4 forward transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransformImpl {
    /// Exact software transform (the behavioural model).
    #[default]
    Exact,
    /// The [`xlac_accel::dct::DctAccelerator`] datapath with the given
    /// approximate cell and LSB count — letting the logic layer's
    /// approximation reach the residual path, not just motion estimation.
    Accelerator {
        /// Approximate full-adder cell for the butterfly adders.
        kind: xlac_adders::FullAdderKind,
        /// Approximated LSBs per butterfly adder.
        approx_lsbs: usize,
    },
}

/// Encoder parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Quantization step (larger ⇒ fewer bits, lower quality).
    pub qstep: f64,
    /// Motion search range in pixels.
    pub search_range: i32,
    /// Forward-transform implementation.
    pub transform: TransformImpl,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig { qstep: 8.0, search_range: 4, transform: TransformImpl::Exact }
    }
}

/// Aggregate statistics of an encode run.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeStats {
    /// Total estimated bits for the sequence.
    pub total_bits: u64,
    /// Per-frame bit counts.
    pub frame_bits: Vec<u64>,
    /// Mean reconstruction PSNR over all frames, in dB.
    pub psnr_db: f64,
}

/// The block encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: EncoderConfig,
    me: MotionEstimator,
    dct: Option<xlac_accel::dct::DctAccelerator>,
}

impl Encoder {
    /// Creates an encoder around a SAD accelerator (which determines the
    /// motion-estimation block size).
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] for a non-square lane
    /// count, a non-positive search range, or a non-positive `qstep`.
    pub fn new(config: EncoderConfig, sad: SadAccelerator) -> Result<Self> {
        if config.qstep <= 0.0 {
            return Err(XlacError::InvalidConfiguration(format!(
                "quantization step {} must be positive",
                config.qstep
            )));
        }
        let me = MotionEstimator::new(sad, config.search_range)?;
        let dct = match config.transform {
            TransformImpl::Exact => None,
            TransformImpl::Accelerator { kind, approx_lsbs } => {
                Some(xlac_accel::dct::DctAccelerator::new(kind, approx_lsbs)?)
            }
        };
        Ok(Encoder { config, me, dct })
    }

    /// The motion estimator (and through it the SAD accelerator).
    #[must_use]
    pub fn motion_estimator(&self) -> &MotionEstimator {
        &self.me
    }

    /// Encodes a sequence: frame 0 intra (prediction = flat 128), then
    /// inter frames predicted from the reconstructed predecessor.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::EmptyInput`] for an empty sequence and
    /// propagates motion-estimation shape errors.
    pub fn encode(&self, frames: &[Grid<u64>]) -> Result<EncodeStats> {
        if frames.is_empty() {
            return Err(XlacError::EmptyInput("encoder input frames"));
        }
        let mut frame_bits = Vec::with_capacity(frames.len());
        let mut psnr_sum = 0.0f64;
        let mut reconstructed: Option<Grid<u64>> = None;

        for frame in frames {
            let (bits, recon) = match &reconstructed {
                None => self.encode_intra(frame)?,
                Some(prev) => self.encode_inter(frame, prev)?,
            };
            let mse = xlac_quality::mse_pairs(
                frame.iter().zip(recon.iter()).map(|(&a, &b)| (a as f64, b as f64)),
            )
            .expect("frames are non-empty");
            // Lossless frames cap at 99 dB rather than going infinite so
            // the sequence average stays finite.
            psnr_sum += xlac_quality::psnr_from_mse(mse).min(99.0);
            frame_bits.push(bits);
            reconstructed = Some(recon);
        }

        Ok(EncodeStats {
            total_bits: frame_bits.iter().sum(),
            psnr_db: psnr_sum / frames.len() as f64,
            frame_bits,
        })
    }

    fn encode_intra(&self, frame: &Grid<u64>) -> Result<(u64, Grid<u64>)> {
        let flat = Grid::new(frame.rows(), frame.cols(), 128u64);
        self.encode_residual_frame(frame, &flat, 0)
    }

    fn encode_inter(&self, frame: &Grid<u64>, reference: &Grid<u64>) -> Result<(u64, Grid<u64>)> {
        let field = self.me.estimate(frame, reference)?;
        let b = field.block_size;
        // Motion-compensated prediction.
        let prediction = Grid::from_fn(frame.rows(), frame.cols(), |r, c| {
            let (dy, dx) = field.vectors[(r / b, c / b)];
            let pr = (r as i64 + dy as i64).clamp(0, frame.rows() as i64 - 1) as usize;
            let pc = (c as i64 + dx as i64).clamp(0, frame.cols() as i64 - 1) as usize;
            reference[(pr, pc)]
        });
        let mv_bits: u64 = field
            .vectors
            .iter()
            .map(|&(dy, dx)| exp_golomb_signed_bits(dy as i64) + exp_golomb_signed_bits(dx as i64))
            .sum();
        self.encode_residual_frame(frame, &prediction, mv_bits)
    }

    /// Transforms, quantizes and bit-costs the residual `frame −
    /// prediction` in 4×4 tiles; returns total bits and the reconstructed
    /// frame.
    fn encode_residual_frame(
        &self,
        frame: &Grid<u64>,
        prediction: &Grid<u64>,
        side_bits: u64,
    ) -> Result<(u64, Grid<u64>)> {
        let (rows, cols) = frame.shape();
        debug_assert!(rows % 4 == 0 && cols % 4 == 0, "frames are multiples of 8");
        let mut bits = side_bits;
        let mut recon = Grid::new(rows, cols, 0u64);
        for tr in (0..rows).step_by(4) {
            for tc in (0..cols).step_by(4) {
                let mut residual = [[0f64; 4]; 4];
                for r in 0..4 {
                    for c in 0..4 {
                        residual[r][c] =
                            frame[(tr + r, tc + c)] as f64 - prediction[(tr + r, tc + c)] as f64;
                    }
                }
                let coeffs = match &self.dct {
                    None => forward_transform(&residual),
                    Some(accel) => {
                        // Drive the (possibly approximate) integer-DCT
                        // accelerator; residuals are integral by
                        // construction.
                        let mut block = [[0i64; 4]; 4];
                        for r in 0..4 {
                            for c in 0..4 {
                                block[r][c] = residual[r][c] as i64;
                            }
                        }
                        let y = accel.forward(&block);
                        let mut out = [[0f64; 4]; 4];
                        for r in 0..4 {
                            for c in 0..4 {
                                out[r][c] = y[r][c] as f64;
                            }
                        }
                        out
                    }
                };
                // Quantize with the transform's per-position norm folded in.
                let mut levels = [[0i64; 4]; 4];
                for r in 0..4 {
                    for c in 0..4 {
                        let norm = TRANSFORM_NORM[r] * TRANSFORM_NORM[c];
                        levels[r][c] = (coeffs[r][c] / (self.config.qstep * norm)).round() as i64;
                        bits += exp_golomb_signed_bits(levels[r][c]);
                    }
                }
                // Reconstruction loop: dequantize, inverse transform, add
                // prediction.
                let mut deq = [[0f64; 4]; 4];
                for r in 0..4 {
                    for c in 0..4 {
                        let norm = TRANSFORM_NORM[r] * TRANSFORM_NORM[c];
                        deq[r][c] = levels[r][c] as f64 * self.config.qstep * norm;
                    }
                }
                let rec_res = inverse_transform(&deq);
                for r in 0..4 {
                    for c in 0..4 {
                        let v = prediction[(tr + r, tc + c)] as f64 + rec_res[r][c];
                        recon[(tr + r, tc + c)] = v.round().clamp(0.0, 255.0) as u64;
                    }
                }
            }
        }
        Ok((bits, recon))
    }
}

/// The H.264/HEVC 4×4 integer core transform matrix.
const CORE: [[f64; 4]; 4] =
    [[1.0, 1.0, 1.0, 1.0], [2.0, 1.0, -1.0, -2.0], [1.0, -1.0, -1.0, 1.0], [1.0, -2.0, 2.0, -1.0]];

/// Per-row norms of `CORE` (√Σ row²) used to fold the non-orthonormal
/// scaling into quantization.
const TRANSFORM_NORM: [f64; 4] = [2.0, 3.1622776601683795, 2.0, 3.1622776601683795];

fn forward_transform(x: &[[f64; 4]; 4]) -> [[f64; 4]; 4] {
    // Y = C · X · Cᵀ
    let mut tmp = [[0f64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            tmp[i][j] = (0..4).map(|k| CORE[i][k] * x[k][j]).sum();
        }
    }
    let mut y = [[0f64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            y[i][j] = (0..4).map(|k| tmp[i][k] * CORE[j][k]).sum();
        }
    }
    y
}

fn inverse_transform(y: &[[f64; 4]; 4]) -> [[f64; 4]; 4] {
    // X = Cᵀ · Ŷ · C, with the norms already folded into dequantization:
    // divide by the squared row norms to invert C·X·Cᵀ.
    let mut tmp = [[0f64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            tmp[i][j] = (0..4)
                .map(|k| CORE[k][i] * y[k][j] / (TRANSFORM_NORM[k] * TRANSFORM_NORM[k]))
                .sum();
        }
    }
    let mut x = [[0f64; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            x[i][j] = (0..4)
                .map(|k| tmp[i][k] * CORE[k][j] / (TRANSFORM_NORM[k] * TRANSFORM_NORM[k]))
                .sum();
        }
    }
    x
}

/// Exp-Golomb bit cost of a signed value (the universal magnitude code
/// H.264/HEVC use for motion vectors and, with context modelling, levels).
#[must_use]
pub fn exp_golomb_signed_bits(v: i64) -> u64 {
    let mapped = if v <= 0 { (-2 * v) as u64 } else { (2 * v - 1) as u64 };
    let group = 64 - (mapped + 1).leading_zeros() as u64; // floor(log2(m+1)) + 1
    2 * group - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{SequenceConfig, SyntheticSequence};
    use xlac_accel::sad::{SadAccelerator, SadVariant};

    #[test]
    fn transform_roundtrips() {
        let x = [
            [1.0, -2.0, 3.0, 4.0],
            [0.0, 5.0, -6.0, 7.0],
            [8.0, 9.0, 1.0, -1.0],
            [2.0, -3.0, 4.0, 0.0],
        ];
        let y = forward_transform(&x);
        let back = inverse_transform(&y);
        for r in 0..4 {
            for c in 0..4 {
                assert!((back[r][c] - x[r][c]).abs() < 1e-9, "({r},{c})");
            }
        }
    }

    #[test]
    fn exp_golomb_costs() {
        assert_eq!(exp_golomb_signed_bits(0), 1);
        assert_eq!(exp_golomb_signed_bits(1), 3);
        assert_eq!(exp_golomb_signed_bits(-1), 3);
        assert_eq!(exp_golomb_signed_bits(2), 5);
        assert_eq!(exp_golomb_signed_bits(-3), 5);
        // Monotone in magnitude.
        let mut last = 0;
        for m in 0..200i64 {
            let b = exp_golomb_signed_bits(m);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn encoder_reconstruction_quality_tracks_qstep() {
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let fine = Encoder::new(
            EncoderConfig { qstep: 2.0, search_range: 4, transform: TransformImpl::Exact },
            SadAccelerator::accurate(64).unwrap(),
        )
        .unwrap()
        .encode(seq.frames())
        .unwrap();
        let coarse = Encoder::new(
            EncoderConfig { qstep: 24.0, search_range: 4, transform: TransformImpl::Exact },
            SadAccelerator::accurate(64).unwrap(),
        )
        .unwrap()
        .encode(seq.frames())
        .unwrap();
        assert!(fine.psnr_db > coarse.psnr_db, "finer quantization → better PSNR");
        assert!(fine.total_bits > coarse.total_bits, "finer quantization → more bits");
    }

    #[test]
    fn inter_frames_cost_fewer_bits_than_intra() {
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let stats = Encoder::new(EncoderConfig::default(), SadAccelerator::accurate(64).unwrap())
            .unwrap()
            .encode(seq.frames())
            .unwrap();
        let intra = stats.frame_bits[0];
        for (i, &bits) in stats.frame_bits.iter().enumerate().skip(1) {
            assert!(bits < intra, "inter frame {i} ({bits} bits) vs intra ({intra})");
        }
    }

    #[test]
    fn approximate_sad_never_beats_exact_bitrate_substantially() {
        // The Fig.9 direction: approximation can only (statistically)
        // worsen the motion field, so bits go up — never meaningfully down.
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let exact = Encoder::new(EncoderConfig::default(), SadAccelerator::accurate(64).unwrap())
            .unwrap()
            .encode(seq.frames())
            .unwrap();
        for (variant, lsbs) in [(SadVariant::ApxSad3, 4usize), (SadVariant::ApxSad5, 6)] {
            let approx = Encoder::new(
                EncoderConfig::default(),
                SadAccelerator::new(64, variant, lsbs).unwrap(),
            )
            .unwrap()
            .encode(seq.frames())
            .unwrap();
            let ratio = approx.total_bits as f64 / exact.total_bits as f64;
            assert!(ratio > 0.98, "{variant:?}/{lsbs}: suspicious bit-rate drop {ratio}");
        }
    }

    #[test]
    fn heavy_approximation_costs_more_bits_than_mild() {
        let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).unwrap();
        let frames = &seq.frames()[..8];
        let bits = |variant: SadVariant, lsbs: usize| {
            Encoder::new(EncoderConfig::default(), SadAccelerator::new(64, variant, lsbs).unwrap())
                .unwrap()
                .encode(frames)
                .unwrap()
                .total_bits
        };
        let mild = bits(SadVariant::ApxSad5, 2);
        let heavy = bits(SadVariant::ApxSad5, 6);
        assert!(heavy > mild, "6 approximate LSBs ({heavy}) must out-cost 2 ({mild})");
    }

    #[test]
    fn accelerator_transform_in_exact_mode_matches_float_path() {
        // The integer butterfly equals C·X·Cᵀ exactly, so an exact-mode
        // accelerator transform must produce identical bitstreams.
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let float_path =
            Encoder::new(EncoderConfig::default(), SadAccelerator::accurate(64).unwrap())
                .unwrap()
                .encode(seq.frames())
                .unwrap();
        let accel_path = Encoder::new(
            EncoderConfig {
                transform: TransformImpl::Accelerator {
                    kind: xlac_adders::FullAdderKind::Accurate,
                    approx_lsbs: 0,
                },
                ..EncoderConfig::default()
            },
            SadAccelerator::accurate(64).unwrap(),
        )
        .unwrap()
        .encode(seq.frames())
        .unwrap();
        assert_eq!(float_path.total_bits, accel_path.total_bits);
        assert!((float_path.psnr_db - accel_path.psnr_db).abs() < 1e-9);
    }

    #[test]
    fn approximate_transform_degrades_quality_gracefully() {
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let exact = Encoder::new(EncoderConfig::default(), SadAccelerator::accurate(64).unwrap())
            .unwrap()
            .encode(seq.frames())
            .unwrap();
        let approx = Encoder::new(
            EncoderConfig {
                transform: TransformImpl::Accelerator {
                    kind: xlac_adders::FullAdderKind::Apx3,
                    approx_lsbs: 3,
                },
                ..EncoderConfig::default()
            },
            SadAccelerator::accurate(64).unwrap(),
        )
        .unwrap()
        .encode(seq.frames())
        .unwrap();
        // Approximate coefficients shift the reconstruction: PSNR drops,
        // but the pipeline must remain functional (no collapse).
        assert!(approx.psnr_db < exact.psnr_db);
        assert!(approx.psnr_db > exact.psnr_db - 15.0, "quality must not collapse");
    }

    #[test]
    fn empty_input_is_rejected() {
        let enc =
            Encoder::new(EncoderConfig::default(), SadAccelerator::accurate(64).unwrap()).unwrap();
        assert!(enc.encode(&[]).is_err());
        assert!(Encoder::new(
            EncoderConfig { qstep: 0.0, search_range: 4, transform: TransformImpl::Exact },
            SadAccelerator::accurate(64).unwrap()
        )
        .is_err());
    }
}
