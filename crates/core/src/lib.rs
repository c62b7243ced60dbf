//! # xlac-core — shared foundations for the `xlac` workspace
//!
//! This crate hosts the small, dependency-light vocabulary that every other
//! crate in the cross-layer approximate-computing workspace builds on:
//!
//! * [`bits`] — width-aware bit manipulation on `u64` words (masking,
//!   extraction, two's-complement interpretation). Approximate arithmetic
//!   units operate on explicit bit widths, not on Rust's native integer
//!   widths, so these helpers appear everywhere.
//! * [`grid`] — a dense row-major 2-D array, [`grid::Grid`], used for images,
//!   video frames and SAD search surfaces.
//! * [`lanes`] — 64-lane bit-plane packing (transpose between
//!   value-per-lane and plane-per-bit layouts) for the bit-sliced
//!   simulation engine in `xlac-sim`.
//! * [`metrics`] — error statistics ([`metrics::ErrorStats`]) for comparing
//!   an approximate operator against its exact reference: error rate, mean /
//!   max error distance, mean relative error distance, and helpers to gather
//!   them exhaustively or by sampling.
//! * [`characterization`] — hardware-cost records
//!   ([`characterization::HwCost`]) holding area in gate equivalents, power
//!   in nanowatts and delay in gate-delay units, plus
//!   [`characterization::ComponentProfile`] bundling cost with quality.
//! * [`taxonomy`] — a queryable encoding of the survey classification from
//!   Tables I and II of the paper (approximation categories, stack layers and
//!   the surveyed techniques).
//! * [`error`] — the workspace error type [`error::XlacError`].
//! * [`rng`] — vendored deterministic PRNGs (SplitMix64 and
//!   xoshiro256\*\*) behind the [`rng::Rng`] trait, with range sampling,
//!   shuffling and stream splitting. The workspace builds offline, so this
//!   replaces the `rand` crates everywhere.
//! * [`check`] — a seeded property-testing harness (case generation,
//!   env-configurable case counts, integer/vec shrinking) replacing
//!   `proptest`.
//!
//! # Example
//!
//! ```
//! use xlac_core::bits::{mask, truncate};
//! use xlac_core::metrics::ErrorStats;
//!
//! // Gather error statistics of "drop the lowest two bits" on 6-bit values.
//! let stats = ErrorStats::from_pairs((0u64..64).map(|x| (x, x & !0b11)));
//! assert_eq!(stats.max_error_distance, 3);
//! assert_eq!(mask(6), 63);
//! assert_eq!(truncate(0x1ff, 8), 0xff);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod characterization;
pub mod check;
pub mod dist;
pub mod error;
pub mod grid;
pub mod lanes;
pub mod metrics;
pub mod rng;
pub mod taxonomy;
pub mod wire;

pub use characterization::{ComponentProfile, HwCost};
pub use dist::{DistPmf, InputDistribution};
pub use error::XlacError;
pub use grid::Grid;
pub use metrics::ErrorStats;
