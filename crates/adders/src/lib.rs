//! # xlac-adders — the paper's approximate adder library
//!
//! This crate implements Section 4 of the paper (its primary arithmetic
//! contribution) in full:
//!
//! * [`full_adder`] — the accurate 1-bit full adder and the five IMPACT
//!   approximate cells of **Table III** (`AccuFA`, `ApxFA1`…`ApxFA5`),
//!   specified by their exact truth tables and synthesizable into gate
//!   netlists for characterization.
//! * [`ripple`] — multi-bit ripple-carry adders whose low-order cells can
//!   be swapped for any approximate FA kind (the lpACLib construction used
//!   in the SAD and filter case studies).
//! * [`gear`] — the **GeAr** generic accuracy-configurable adder
//!   (`N`, `R`, `P` sub-adder model) with its iterative error detection
//!   and correction stage, plus constructors mapping the state-of-the-art
//!   adders (ACA-I, ACA-II, ETAII, GDA) onto GeAr configurations.
//! * [`error_model`] — GeAr's analytical error-probability models: the
//!   paper's inclusion–exclusion formula over error-generating events, an
//!   exact automaton evaluation, and a Monte-Carlo estimator; all three
//!   agree and let a compiler-level user rank configurations *without*
//!   exhaustive simulation (the point of Table IV).
//! * [`subtractor`] — two's-complement (absolute-)difference built on any
//!   adder, the second primitive of the SAD accelerator.
//! * [`cla`] — an accurate carry-lookahead adder as the
//!   performance/accuracy baseline.
//!
//! # Example
//!
//! ```
//! use xlac_adders::{Adder, GeArAdder, RippleCarryAdder, FullAdderKind};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! // The paper's illustration: N=12, R=4, P=4 (two 8-bit sub-adders).
//! let gear = GeArAdder::new(12, 4, 4)?;
//! let out = gear.add(0x0F0, 0x00F);
//! assert_eq!(out.value, 0x0FF); // no carry chain crosses the split: exact
//!
//! // Approximate the 4 LSBs of an 8-bit ripple adder with ApxFA1 cells.
//! let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx1, 4)?;
//! let sum = rca.add(0b0001_0000, 0b0010_0000); // high bits stay exact
//! assert_eq!(sum, 0b0011_0000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod cla;
pub mod descriptor;
pub mod divider;
pub mod error_model;
pub mod full_adder;
pub mod gear;
pub mod hw;
pub mod ripple;
pub mod soa;
pub mod subtractor;

pub use adder::{AccurateAdder, Adder};
pub use cla::CarryLookaheadAdder;
pub use descriptor::{
    approx_cell_descriptors, axa3, booth_r2, booth_r4, booth_r4_apx, cla8, cmp42, cmp42_miscount,
    cmp42_or, csa8, loa8_l3, ofloca8, sesa1, skl8, tcaa, UnitDescriptor,
};
pub use divider::ArrayDivider;
pub use error_model::GearErrorModel;
pub use full_adder::FullAdderKind;
pub use gear::{AddOutcome, AddOutcomeX64, GeArAdder};
pub use ripple::RippleCarryAdder;
pub use soa::{LoaAdder, TruncatedAdder};
pub use subtractor::Subtractor;
