//! # xlac-accel — multi-accelerator approximate computing architectures
//!
//! Section 6 of the paper: approximate accelerators are composed from the
//! arithmetic library, characterized, and managed at runtime. This crate
//! implements the full methodology:
//!
//! * [`sad`] — the **SAD accelerator** (sum of absolute differences) used
//!   by video motion estimation: a bank of approximate subtractors feeding
//!   an approximate adder tree. `ApxSAD1`…`ApxSAD5` variants (one per
//!   Table III cell) with a configurable number of approximated LSBs —
//!   exactly the experiment space of Fig.8 and Fig.9.
//! * [`filter`] — a 3×3 convolution accelerator (the low-pass filter of
//!   the Fig.10 resilience study) running its shift-add datapath on
//!   approximate adders.
//! * [`dataflow`] — a small dataflow-graph framework for building custom
//!   accelerators from approximate operator nodes, with the statistical
//!   **error-masking analysis** the paper calls out as the key enabler for
//!   automatic accelerator generation.
//! * [`cec`] — the **Consolidated Error Correction** unit (§6.1, after
//!   Mazahir et al. DAC'16): accumulated errors of an approximate-adder
//!   cascade take only specific magnitudes, so one output-stage offset
//!   corrector replaces every per-adder EDC circuit.
//! * [`config`] — accelerator configuration words (per-block approximation
//!   mode bits).
//! * [`manager`] — the **approximation management unit**: selects, for a
//!   set of concurrently running applications, the accelerator variants and
//!   approximation modes that minimize power under per-application quality
//!   constraints.
//!
//! # Example
//!
//! ```
//! use xlac_accel::sad::{SadAccelerator, SadVariant};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let exact = SadAccelerator::accurate(16)?;
//! let approx = SadAccelerator::new(16, SadVariant::ApxSad3, 4)?;
//! let cur = [10u64; 16];
//! let refb = [13u64; 16];
//! assert_eq!(exact.sad(&cur, &refb)?, 48);
//! // The approximate SAD is close and much cheaper.
//! assert!(approx.sad(&cur, &refb)?.abs_diff(48) <= 16 * 8);
//! assert!(approx.hw_cost().power_nw < exact.hw_cost().power_nw);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod architecture;
pub mod cec;
pub mod config;
pub mod dataflow;
pub mod dct;
pub mod filter;
pub mod fir;
pub mod hw;
pub mod manager;
pub mod monitor;
pub mod sad;

pub use architecture::{AcceleratorSlot, MultiAcceleratorArchitecture};
pub use cec::CecUnit;
pub use config::{ApproxMode, ConfigWord};
pub use dataflow::{Dataflow, MaskingReport, Node, NodeId};
pub use dct::DctAccelerator;
pub use filter::FilterAccelerator;
pub use fir::FirAccelerator;
pub use manager::{AcceleratorOption, ApproximationManager, SelectionOutcome};
pub use monitor::{MonitorDecision, QualityMonitor};
pub use sad::{SadAccelerator, SadVariant};
