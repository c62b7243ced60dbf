//! Consolidated Error Correction (CEC) — Section 6.1 of the paper, after
//! Mazahir et al., DAC 2016.
//!
//! Accuracy-configurable adders like GeAr carry an integrated error
//! detection **and correction** stage; in an accelerator with a cascade of
//! such adders the per-adder correction area accumulates. The CEC
//! observation: the error magnitude of these adders "could only have
//! certain specific values" — a missed carry at sub-adder `s` costs exactly
//! `2^{s·R+P}` — and because addition is linear, the accumulated error of a
//! cascade is (to first order) the *sum of the flagged offsets*. So keep
//! only the cheap detectors in each adder and move the correction to a
//! **single offset-adding unit at the accelerator output**.
//!
//! [`AdderCascade`] is an accumulation datapath built from flagged GeAr
//! adders; [`CecUnit`] consumes the flags and applies the consolidated
//! compensation, and [`CecUnit::area_comparison`] quantifies the area
//! saved versus per-adder integrated EDC.
//!
//! # Example
//!
//! ```
//! use xlac_accel::cec::{AdderCascade, CecUnit};
//! use xlac_adders::GeArAdder;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let gear = GeArAdder::new(12, 4, 4)?;
//! let cascade = AdderCascade::new(gear, 8)?;
//! let cec = CecUnit::new();
//! let xs = [0x0FFu64, 0x001, 0x234, 0x111, 0x0F0, 0x00F, 0x3FF, 0x001];
//! let run = cascade.accumulate(&xs)?;
//! let corrected = cec.correct(&run);
//! let exact: u64 = xs.iter().sum();
//! assert!(corrected.abs_diff(exact) <= run.value.abs_diff(exact));
//! # Ok(())
//! # }
//! ```

use xlac_adders::GeArAdder;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};
use xlac_obs::obs_count;

/// One accumulation run through a cascade, with the detection flags the
/// CEC unit consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeRun {
    /// The (approximate) accumulated value.
    pub value: u64,
    /// Bit offsets of every flagged missing carry across all stages.
    pub flagged_offsets: Vec<usize>,
}

/// An accumulator cascade of GeAr adders: `acc ← acc + x_i`, one GeAr
/// stage per operand.
#[derive(Debug, Clone)]
pub struct AdderCascade {
    gear: GeArAdder,
    stages: usize,
}

impl AdderCascade {
    /// Builds a cascade of `stages` GeAr additions.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when `stages` is zero.
    pub fn new(gear: GeArAdder, stages: usize) -> Result<Self> {
        if stages == 0 {
            return Err(XlacError::InvalidConfiguration("cascade needs at least one stage".into()));
        }
        Ok(AdderCascade { gear, stages })
    }

    /// The GeAr configuration of every stage.
    #[must_use]
    pub fn gear(&self) -> &GeArAdder {
        &self.gear
    }

    /// Number of accumulation stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Accumulates the operands (as many as there are stages), collecting
    /// every stage's detection flags.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::ShapeMismatch`] unless exactly `stages`
    /// operands are supplied.
    pub fn accumulate(&self, operands: &[u64]) -> Result<CascadeRun> {
        if operands.len() != self.stages {
            return Err(XlacError::ShapeMismatch {
                expected: (1, self.stages),
                actual: (1, operands.len()),
            });
        }
        let mut acc = 0u64;
        let mut flagged = Vec::new();
        for &x in operands {
            let (out, offsets) = self.gear.add_flagged(acc, x);
            // The accumulator feeds back truncated to N bits (hardware
            // register width); the carry-out bit is part of the value.
            acc = out.value;
            flagged.extend(offsets);
        }
        Ok(CascadeRun { value: acc, flagged_offsets: flagged })
    }

    /// The exact reference accumulation.
    #[must_use]
    pub fn accumulate_exact(operands: &[u64]) -> u64 {
        operands.iter().sum()
    }
}

/// The consolidated correction unit: one offset adder at the cascade
/// output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CecUnit;

impl CecUnit {
    /// Creates the unit.
    #[must_use]
    pub fn new() -> Self {
        CecUnit
    }

    /// Applies the consolidated correction: the accumulated value plus
    /// `Σ 2^offset` over every flagged missing carry.
    ///
    /// First-order exact — when a stage's result section wrapped while
    /// missing its carry the compensation is approximate, which is the
    /// accepted trade of the CEC design (quality ≈ integrated EDC at a
    /// fraction of the area).
    ///
    /// The compensation arithmetic saturates instead of wrapping: a
    /// hardware offset adder clamps at the register ceiling, and a
    /// silently wrapped `u64` would report a tiny result for a huge
    /// accumulated correction. Offsets at or above 64 bits (impossible
    /// for any constructible GeAr stage, which is narrower than a word)
    /// also clamp rather than shift-overflow.
    #[must_use]
    pub fn correct(&self, run: &CascadeRun) -> u64 {
        obs_count!("accel.cec.corrections", 1);
        obs_count!("accel.cec.flags", run.flagged_offsets.len() as u64);
        let compensation = run.flagged_offsets.iter().fold(0u64, |sum, &o| {
            let offset = u32::try_from(o).ok().and_then(|o| 1u64.checked_shl(o));
            sum.saturating_add(offset.unwrap_or(u64::MAX))
        });
        run.value.saturating_add(compensation)
    }

    /// Area comparison for a cascade of `stages` adders of width `n`:
    /// `(integrated_edc_area, cec_area)` in gate equivalents.
    ///
    /// Integrated EDC replicates a correction stage (detector + recovery
    /// mux/increment, ≈ 35 % of the adder area) in **every** adder; CEC
    /// keeps only the detectors (≈ 10 %) and adds **one** shared offset
    /// adder at the output.
    #[must_use]
    pub fn area_comparison(gear: &GeArAdder, stages: usize) -> (f64, f64) {
        use xlac_adders::Adder;
        let adder_area = gear.hw_cost().area_ge;
        let detector = 0.10 * adder_area;
        let recovery = 0.25 * adder_area;
        let integrated = stages as f64 * (detector + recovery);
        // One correction adder sized like a single accurate chain of the
        // same width.
        let correction_adder = xlac_adders::RippleCarryAdder::accurate(gear.n()).hw_cost().area_ge;
        let cec = stages as f64 * detector + correction_adder;
        (integrated, cec)
    }

    /// Hardware cost of the CEC unit itself for an `n`-bit output.
    #[must_use]
    pub fn hw_cost(n: usize) -> HwCost {
        use xlac_adders::Adder;
        xlac_adders::RippleCarryAdder::accurate(n).hw_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::rng::{DefaultRng, Rng};

    fn gear() -> GeArAdder {
        GeArAdder::new(12, 4, 4).unwrap()
    }

    #[test]
    fn no_flags_on_carry_free_operands() {
        let cascade = AdderCascade::new(gear(), 4).unwrap();
        let run = cascade.accumulate(&[1, 2, 4, 8]).unwrap();
        assert!(run.flagged_offsets.is_empty());
        assert_eq!(run.value, 15);
        assert_eq!(CecUnit::new().correct(&run), 15);
    }

    #[test]
    fn single_missed_carry_is_fully_compensated() {
        let g = gear();
        let cascade = AdderCascade::new(g, 1).unwrap();
        // 0x0FF + 0x001 misses the carry into bit 8 (offset R + P = 8).
        let run = cascade.accumulate(&[0x0FF]).unwrap();
        // acc starts at 0: 0 + 0x0FF is exact. Use two stages instead.
        assert!(run.flagged_offsets.is_empty());

        let cascade = AdderCascade::new(g, 2).unwrap();
        let run = cascade.accumulate(&[0x0FF, 0x001]).unwrap();
        assert_eq!(run.flagged_offsets, vec![8]);
        let corrected = CecUnit::new().correct(&run);
        assert_eq!(corrected, 0x100);
    }

    #[test]
    fn correction_never_hurts_on_average() {
        let mut rng = DefaultRng::seed_from_u64(77);
        let cascade = AdderCascade::new(gear(), 6).unwrap();
        let cec = CecUnit::new();
        let mut raw_err_sum = 0u64;
        let mut cec_err_sum = 0u64;
        // Operands sized so the running sum stays inside the 12-bit
        // accumulator — otherwise wrap-around (a range issue, not an
        // approximation issue) dominates.
        for _ in 0..2000 {
            let xs: Vec<u64> = (0..6).map(|_| rng.gen_range(0..0x200)).collect();
            let exact = AdderCascade::accumulate_exact(&xs);
            let run = cascade.accumulate(&xs).unwrap();
            raw_err_sum += run.value.abs_diff(exact);
            cec_err_sum += cec.correct(&run).abs_diff(exact);
        }
        assert!(
            cec_err_sum < raw_err_sum / 2,
            "CEC must recover most of the error: {cec_err_sum} vs raw {raw_err_sum}"
        );
    }

    #[test]
    fn flagged_offsets_take_specific_values_only() {
        // The CEC premise: error magnitudes are confined to 2^{s·R+P}.
        let mut rng = DefaultRng::seed_from_u64(3);
        let g = gear(); // offsets can only be 8 (single boundary for N=12,R=4,P=4)
        let cascade = AdderCascade::new(g, 4).unwrap();
        for _ in 0..500 {
            let xs: Vec<u64> = (0..4).map(|_| rng.gen_range(0..0x1000)).collect();
            let run = cascade.accumulate(&xs).unwrap();
            for &o in &run.flagged_offsets {
                assert_eq!(o, 8);
            }
        }
    }

    #[test]
    fn cec_area_beats_integrated_edc_for_deep_cascades() {
        let g = gear();
        let (edc, cec) = CecUnit::area_comparison(&g, 8);
        assert!(cec < edc, "CEC {cec} must undercut integrated EDC {edc}");
        // For a single adder the shared correction adder does NOT pay off —
        // consolidation is a cascade-level optimization.
        let (edc1, cec1) = CecUnit::area_comparison(&g, 1);
        assert!(cec1 > edc1);
    }

    #[test]
    fn correction_saturates_instead_of_wrapping() {
        let cec = CecUnit::new();
        // Two 2^63 offsets on a near-full accumulator: the mathematical
        // sum exceeds u64 and must clamp, not wrap to a tiny value.
        let run = CascadeRun { value: u64::MAX - 1, flagged_offsets: vec![63, 63] };
        assert_eq!(cec.correct(&run), u64::MAX);
        // An out-of-word offset (unreachable from a real cascade) clamps
        // rather than shift-overflowing.
        let run = CascadeRun { value: 1, flagged_offsets: vec![64] };
        assert_eq!(cec.correct(&run), u64::MAX);
    }

    #[test]
    fn operand_count_is_validated() {
        let cascade = AdderCascade::new(gear(), 3).unwrap();
        assert!(cascade.accumulate(&[1, 2]).is_err());
        assert!(AdderCascade::new(gear(), 0).is_err());
    }
}
