//! Run-time adaptive approximation control for the encoder (§6.2).
//!
//! The paper closes with an open problem: "detailed investigation of
//! data-driven resilience and its exploitation towards configurable
//! approximation control". This module implements the obvious first
//! solution on top of the workspace's pieces: a [`QualityMonitor`]
//! samples SAD invocations against exact re-execution during each frame,
//! and a mode controller walks the [`ApproxMode`] ladder between frames —
//! tightening when the measured SAD error exceeds the budget, relaxing
//! when content proves resilient.
//!
//! # Example
//!
//! ```
//! use xlac_video::adaptive::{AdaptiveEncoder, AdaptivePolicy};
//! use xlac_video::sequence::{SequenceConfig, SyntheticSequence};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let seq = SyntheticSequence::generate(&SequenceConfig::small_test())?;
//! let enc = AdaptiveEncoder::new(AdaptivePolicy::default())?;
//! let outcome = enc.encode(seq.frames())?;
//! assert_eq!(outcome.mode_history.len(), seq.frames().len());
//! # Ok(())
//! # }
//! ```

use crate::encoder::{Encoder, EncoderConfig};
use crate::me::MotionEstimator;
use xlac_accel::config::ApproxMode;
use xlac_accel::monitor::{MonitorDecision, QualityMonitor};
use xlac_accel::sad::{SadAccelerator, SadVariant};
use xlac_core::error::Result;
use xlac_core::Grid;

/// Policy parameters of the adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Base encoder configuration (transform stays exact; the controller
    /// owns the SAD mode).
    pub encoder: EncoderConfig,
    /// Mean absolute SAD error tolerated per block.
    pub sad_error_tolerance: f64,
    /// One in `sample_every` blocks is re-executed exactly for monitoring.
    pub sample_every: u64,
    /// Mode the controller starts in.
    pub initial_mode: ApproxMode,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            encoder: EncoderConfig::default(),
            sad_error_tolerance: 24.0,
            sample_every: 4,
            initial_mode: ApproxMode::Medium,
        }
    }
}

/// Result of an adaptive encode.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Total estimated bits.
    pub total_bits: u64,
    /// Mean reconstruction PSNR in dB.
    pub psnr_db: f64,
    /// The mode used for each frame.
    pub mode_history: Vec<ApproxMode>,
    /// Mean SAD-accelerator power across frames (mode-weighted), in nW.
    pub mean_power_nw: f64,
}

/// The adaptive encoder.
#[derive(Debug, Clone)]
pub struct AdaptiveEncoder {
    policy: AdaptivePolicy,
}

fn variant_for(mode: ApproxMode) -> SadVariant {
    match mode {
        ApproxMode::Accurate => SadVariant::Accurate,
        ApproxMode::Mild => SadVariant::ApxSad1,
        ApproxMode::Medium => SadVariant::ApxSad3,
        ApproxMode::Aggressive => SadVariant::ApxSad5,
    }
}

fn step(mode: ApproxMode, decision: MonitorDecision) -> ApproxMode {
    let ladder = ApproxMode::ALL;
    let idx = ladder.iter().position(|&m| m == mode).expect("mode on ladder");
    match decision {
        MonitorDecision::TightenAccuracy => ladder[idx.saturating_sub(1)],
        MonitorDecision::RelaxAccuracy => ladder[(idx + 1).min(ladder.len() - 1)],
        MonitorDecision::Hold | MonitorDecision::Warmup => mode,
    }
}

impl AdaptiveEncoder {
    /// Creates an adaptive encoder.
    ///
    /// # Errors
    ///
    /// Propagates invalid policy parameters (non-positive qstep etc.) at
    /// first use; construction itself validates nothing beyond the
    /// monitor's invariants.
    pub fn new(policy: AdaptivePolicy) -> Result<Self> {
        Ok(AdaptiveEncoder { policy })
    }

    fn encoder_for(&self, mode: ApproxMode) -> Result<Encoder> {
        let sad = SadAccelerator::new(64, variant_for(mode), mode.approx_lsbs())?;
        Encoder::new(self.policy.encoder, sad)
    }

    /// Monitors a frame: samples block SADs of `frame` against
    /// `reference` through the mode's accelerator vs exact re-execution.
    fn monitor_frame(
        &self,
        monitor: &mut QualityMonitor,
        mode: ApproxMode,
        frame: &Grid<u64>,
        reference: &Grid<u64>,
    ) -> Result<()> {
        let sad = SadAccelerator::new(64, variant_for(mode), mode.approx_lsbs())?;
        let me = MotionEstimator::new(sad, self.policy.encoder.search_range)?;
        let b = me.block_size();
        for br in 0..frame.rows() / b {
            for bc in 0..frame.cols() / b {
                if monitor.should_sample() {
                    let cur = frame.window(br * b, bc * b, b, b)?;
                    let refb = reference.window(br * b, bc * b, b, b)?;
                    let approx = me.sad_accelerator().sad(cur.as_slice(), refb.as_slice())?;
                    let exact = SadAccelerator::sad_exact(cur.as_slice(), refb.as_slice());
                    monitor.observe(approx, exact);
                } else {
                    monitor.skip();
                }
            }
        }
        Ok(())
    }

    /// Encodes the sequence with per-frame mode adaptation.
    ///
    /// # Errors
    ///
    /// Propagates encoder and monitor errors.
    pub fn encode(&self, frames: &[Grid<u64>]) -> Result<AdaptiveOutcome> {
        let mut monitor =
            QualityMonitor::new(self.policy.sample_every, 32, self.policy.sad_error_tolerance);
        let mut mode = self.policy.initial_mode;
        let mut history = Vec::with_capacity(frames.len());
        let mut total_bits = 0u64;
        let mut psnr_sum = 0.0f64;
        let mut power_sum = 0.0f64;
        let mut prev_recon: Option<Grid<u64>> = None;

        for frame in frames {
            let encoder = self.encoder_for(mode)?;
            power_sum += encoder.motion_estimator().sad_accelerator().hw_cost().power_nw;
            history.push(mode);

            // Encode this frame in the current mode (re-using the public
            // single-sequence API frame by frame).
            let stats = match &prev_recon {
                None => encoder.encode(std::slice::from_ref(frame))?,
                Some(prev) => {
                    // Two-frame mini-sequence: the encoder reconstructs
                    // `prev` as intra internally, so instead re-run inter
                    // coding directly via the public API: encode
                    // [prev_recon, frame] and take the second frame's
                    // figures. The intra bits of the first element are
                    // discarded.
                    let pair = [prev.clone(), frame.clone()];
                    let full = encoder.encode(&pair)?;
                    crate::encoder::EncodeStats {
                        total_bits: full.frame_bits[1],
                        frame_bits: vec![full.frame_bits[1]],
                        psnr_db: full.psnr_db,
                    }
                }
            };
            total_bits += stats.total_bits;
            psnr_sum += stats.psnr_db;

            // Monitor against the previous original frame (content-driven
            // signal) and adapt for the next frame.
            if let Some(prev) = &prev_recon {
                self.monitor_frame(&mut monitor, mode, frame, prev)?;
                let next = step(mode, monitor.decision());
                if next != mode {
                    monitor.reset_window();
                    mode = next;
                }
            }
            prev_recon = Some(frame.clone());
        }

        Ok(AdaptiveOutcome {
            total_bits,
            psnr_db: psnr_sum / frames.len() as f64,
            mode_history: history,
            mean_power_nw: power_sum / frames.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{SequenceConfig, SyntheticSequence};

    #[test]
    fn mode_stepping_logic() {
        assert_eq!(step(ApproxMode::Medium, MonitorDecision::TightenAccuracy), ApproxMode::Mild);
        assert_eq!(
            step(ApproxMode::Medium, MonitorDecision::RelaxAccuracy),
            ApproxMode::Aggressive
        );
        assert_eq!(step(ApproxMode::Medium, MonitorDecision::Hold), ApproxMode::Medium);
        // Ladder ends saturate.
        assert_eq!(
            step(ApproxMode::Accurate, MonitorDecision::TightenAccuracy),
            ApproxMode::Accurate
        );
        assert_eq!(
            step(ApproxMode::Aggressive, MonitorDecision::RelaxAccuracy),
            ApproxMode::Aggressive
        );
    }

    #[test]
    fn adaptive_encode_runs_and_reports() {
        let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
        let enc = AdaptiveEncoder::new(AdaptivePolicy::default()).unwrap();
        let out = enc.encode(seq.frames()).unwrap();
        assert_eq!(out.mode_history.len(), seq.frames().len());
        assert!(out.total_bits > 0);
        assert!(out.psnr_db > 20.0);
        assert!(out.mean_power_nw > 0.0);
    }

    #[test]
    fn tight_tolerance_drives_toward_accuracy() {
        let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).unwrap();
        let frames = &seq.frames()[..8];
        let policy = AdaptivePolicy {
            sad_error_tolerance: 0.5, // nearly nothing tolerated
            initial_mode: ApproxMode::Aggressive,
            sample_every: 1,
            ..AdaptivePolicy::default()
        };
        let out = AdaptiveEncoder::new(policy).unwrap().encode(frames).unwrap();
        // The controller must walk down the ladder toward Accurate.
        let last = *out.mode_history.last().unwrap();
        assert!(last <= ApproxMode::Mild, "ended in {last}");
    }

    #[test]
    fn loose_tolerance_lets_approximation_stay() {
        let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).unwrap();
        let frames = &seq.frames()[..8];
        let policy = AdaptivePolicy {
            sad_error_tolerance: 1e6, // anything goes
            initial_mode: ApproxMode::Medium,
            sample_every: 1,
            ..AdaptivePolicy::default()
        };
        let out = AdaptiveEncoder::new(policy).unwrap().encode(frames).unwrap();
        let last = *out.mode_history.last().unwrap();
        assert!(last >= ApproxMode::Medium, "relaxation should hold or go further");
    }

    #[test]
    fn adaptive_saves_power_versus_always_accurate() {
        let seq = SyntheticSequence::generate(&SequenceConfig::fig9()).unwrap();
        let frames = &seq.frames()[..8];
        let out = AdaptiveEncoder::new(AdaptivePolicy::default()).unwrap().encode(frames).unwrap();
        let accurate_power = SadAccelerator::accurate(64).unwrap().hw_cost().power_nw;
        assert!(
            out.mean_power_nw < accurate_power,
            "adaptive mean {} vs accurate {}",
            out.mean_power_nw,
            accurate_power
        );
    }
}
