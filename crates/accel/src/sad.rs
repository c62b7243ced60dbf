//! The SAD (sum of absolute differences) accelerator of the motion-
//! estimation case study (Fig.8 / Fig.9).
//!
//! A SAD datapath computes `Σ |cur_i − ref_i|` over a pixel block: one
//! absolute-difference stage per pixel followed by a balanced adder tree.
//! The paper builds approximate variants by swapping the full-adder cells
//! of both stages for each Table III kind (`ApxSAD1`…`ApxSAD5`) and by
//! choosing how many LSBs of the adders to approximate (0/2/4/6 in
//! Fig.9).
//!
//! # Example
//!
//! ```
//! use xlac_accel::sad::{SadAccelerator, SadVariant};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! // 4×4 pixel blocks (16 lanes), ApxFA1 cells, 2 approximate LSBs.
//! let sad = SadAccelerator::new(16, SadVariant::ApxSad1, 2)?;
//! let cur = [100u64, 110, 120, 130, 100, 110, 120, 130,
//!            100, 110, 120, 130, 100, 110, 120, 130];
//! let mut refb = cur;
//! refb[0] += 9;
//! let d = sad.sad(&cur, &refb)?;
//! assert!(d.abs_diff(9) <= 16); // small, LSB-confined error
//! # Ok(())
//! # }
//! ```

use std::fmt;
use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder, Subtractor};
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};

/// The SAD accelerator variants of Fig.8: one per approximate full-adder
/// cell of Table III, plus the accurate baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SadVariant {
    /// All-accurate datapath.
    Accurate,
    /// ApxFA1 cells in the approximated LSBs.
    ApxSad1,
    /// ApxFA2 cells in the approximated LSBs.
    ApxSad2,
    /// ApxFA3 cells in the approximated LSBs.
    ApxSad3,
    /// ApxFA4 cells in the approximated LSBs.
    ApxSad4,
    /// ApxFA5 cells in the approximated LSBs.
    ApxSad5,
}

impl SadVariant {
    /// All variants, accurate first.
    pub const ALL: [SadVariant; 6] = [
        SadVariant::Accurate,
        SadVariant::ApxSad1,
        SadVariant::ApxSad2,
        SadVariant::ApxSad3,
        SadVariant::ApxSad4,
        SadVariant::ApxSad5,
    ];

    /// The full-adder cell this variant builds its approximate LSBs from.
    #[must_use]
    pub fn cell(self) -> FullAdderKind {
        match self {
            SadVariant::Accurate => FullAdderKind::Accurate,
            SadVariant::ApxSad1 => FullAdderKind::Apx1,
            SadVariant::ApxSad2 => FullAdderKind::Apx2,
            SadVariant::ApxSad3 => FullAdderKind::Apx3,
            SadVariant::ApxSad4 => FullAdderKind::Apx4,
            SadVariant::ApxSad5 => FullAdderKind::Apx5,
        }
    }
}

impl fmt::Display for SadVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SadVariant::Accurate => "AccuSAD",
            SadVariant::ApxSad1 => "ApxSAD1",
            SadVariant::ApxSad2 => "ApxSAD2",
            SadVariant::ApxSad3 => "ApxSAD3",
            SadVariant::ApxSad4 => "ApxSAD4",
            SadVariant::ApxSad5 => "ApxSAD5",
        })
    }
}

/// A SAD accelerator over a fixed number of 8-bit pixel lanes.
#[derive(Debug, Clone)]
pub struct SadAccelerator {
    lanes: usize,
    variant: SadVariant,
    approx_lsbs: usize,
    /// One subtractor per lane (shared config — stored once).
    subtractor: Subtractor<RippleCarryAdder>,
    /// Adder tree levels: level i adds (8 + i + 1)-bit operands.
    tree_adders: Vec<RippleCarryAdder>,
}

impl SadAccelerator {
    /// Pixel bit width (8-bit video samples).
    pub const PIXEL_BITS: usize = 8;

    /// Builds a SAD accelerator over `lanes` pixels (a power of two in
    /// `2..=256`) whose datapath approximates `approx_lsbs` LSBs with the
    /// variant's cell.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] for a non-power-of-two
    /// lane count or `approx_lsbs > 8`.
    pub fn new(lanes: usize, variant: SadVariant, approx_lsbs: usize) -> Result<Self> {
        if !(2..=256).contains(&lanes) || !lanes.is_power_of_two() {
            return Err(XlacError::InvalidConfiguration(format!(
                "lane count {lanes} must be a power of two in 2..=256"
            )));
        }
        if approx_lsbs > Self::PIXEL_BITS {
            return Err(XlacError::InvalidConfiguration(format!(
                "{approx_lsbs} approximate LSBs exceed the {}-bit pixel path",
                Self::PIXEL_BITS
            )));
        }
        let cell = variant.cell();
        let subtractor = Subtractor::new(RippleCarryAdder::with_approx_lsbs(
            Self::PIXEL_BITS,
            cell,
            approx_lsbs,
        )?);
        let levels = lanes.trailing_zeros() as usize;
        let mut tree_adders = Vec::with_capacity(levels);
        for level in 0..levels {
            let width = Self::PIXEL_BITS + level + 1;
            tree_adders.push(RippleCarryAdder::with_approx_lsbs(
                width,
                cell,
                approx_lsbs.min(width),
            )?);
        }
        Ok(SadAccelerator { lanes, variant, approx_lsbs, subtractor, tree_adders })
    }

    /// The accurate baseline over `lanes` pixels.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SadAccelerator::new`].
    pub fn accurate(lanes: usize) -> Result<Self> {
        SadAccelerator::new(lanes, SadVariant::Accurate, 0)
    }

    /// Number of pixel lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The variant (cell kind) of the datapath.
    #[must_use]
    pub fn variant(&self) -> SadVariant {
        self.variant
    }

    /// Number of approximated LSBs.
    #[must_use]
    pub fn approx_lsbs(&self) -> usize {
        self.approx_lsbs
    }

    /// The shared per-lane absolute-difference subtractor (for static
    /// analysis of the datapath).
    #[must_use]
    pub fn subtractor(&self) -> &Subtractor<RippleCarryAdder> {
        &self.subtractor
    }

    /// The adder-tree levels, leaf level first (for static analysis of
    /// the datapath).
    #[must_use]
    pub fn tree_adders(&self) -> &[RippleCarryAdder] {
        &self.tree_adders
    }

    /// Computes the (possibly approximate) SAD of two pixel blocks given as
    /// flat slices of 8-bit samples.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::ShapeMismatch`] unless both slices have exactly
    /// `lanes` entries, or [`XlacError::OperandOutOfRange`] when a sample
    /// exceeds 8 bits.
    pub fn sad(&self, current: &[u64], reference: &[u64]) -> Result<u64> {
        if current.len() != self.lanes || reference.len() != self.lanes {
            return Err(XlacError::ShapeMismatch {
                expected: (1, self.lanes),
                actual: (1, current.len().min(reference.len())),
            });
        }
        if let Some(&bad) = current.iter().chain(reference).find(|&&v| v > 255) {
            return Err(XlacError::OperandOutOfRange { value: bad, width: Self::PIXEL_BITS });
        }
        // Stage 1: absolute differences through approximate subtractors.
        let mut values: Vec<u64> =
            current.iter().zip(reference).map(|(&c, &r)| self.subtractor.abs_diff(c, r)).collect();
        // Stage 2: balanced adder tree.
        for adder in &self.tree_adders {
            let mut next = Vec::with_capacity(values.len() / 2);
            for pair in values.chunks(2) {
                next.push(adder.add(pair[0], pair[1]));
            }
            values = next;
        }
        debug_assert_eq!(values.len(), 1);
        Ok(values[0])
    }

    /// The exact software-model SAD (the behavioural reference of the
    /// paper's flow).
    #[must_use]
    pub fn sad_exact(current: &[u64], reference: &[u64]) -> u64 {
        current.iter().zip(reference).map(|(&c, &r)| c.abs_diff(r)).sum()
    }

    /// Hardware cost: `lanes` parallel subtractors, then the adder tree
    /// (parallel within a level, serial across levels).
    #[must_use]
    pub fn hw_cost(&self) -> HwCost {
        let sub = self.subtractor.hw_cost();
        let mut cost = HwCost::ZERO;
        for _ in 0..self.lanes {
            cost = cost.parallel(sub);
        }
        let mut width_count = self.lanes / 2;
        for adder in &self.tree_adders {
            let level_cost = adder.hw_cost();
            let mut level = HwCost::ZERO;
            for _ in 0..width_count {
                level = level.parallel(level_cost);
            }
            // Levels chain serially: delays add.
            cost = HwCost {
                area_ge: cost.area_ge + level.area_ge,
                power_nw: cost.power_nw + level.power_nw,
                delay: cost.delay + level.delay,
            };
            width_count /= 2;
        }
        cost
    }

    /// Instance name, e.g. `"ApxSAD3(16 lanes, 4 LSBs)"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}({} lanes, {} LSBs)", self.variant, self.lanes, self.approx_lsbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_sad_matches_reference() {
        let sad = SadAccelerator::accurate(16).unwrap();
        let cur: Vec<u64> = (0..16).map(|i| (i * 13 + 7) % 256).collect();
        let refb: Vec<u64> = (0..16).map(|i| (i * 29 + 3) % 256).collect();
        assert_eq!(sad.sad(&cur, &refb).unwrap(), SadAccelerator::sad_exact(&cur, &refb));
    }

    #[test]
    fn zero_difference_blocks() {
        for variant in SadVariant::ALL {
            // With zero approximate LSBs every variant is exact.
            let sad = SadAccelerator::new(4, variant, 0).unwrap();
            let block = [7u64, 99, 255, 0];
            assert_eq!(sad.sad(&block, &block).unwrap(), 0, "{variant}");
        }
    }

    #[test]
    fn lane_and_range_validation() {
        assert!(SadAccelerator::new(3, SadVariant::Accurate, 0).is_err());
        assert!(SadAccelerator::new(0, SadVariant::Accurate, 0).is_err());
        assert!(SadAccelerator::new(16, SadVariant::ApxSad1, 9).is_err());
        let sad = SadAccelerator::accurate(4).unwrap();
        assert!(sad.sad(&[1, 2, 3], &[1, 2, 3, 4]).is_err());
        assert!(sad.sad(&[1, 2, 3, 256], &[1, 2, 3, 4]).is_err());
    }

    #[test]
    fn approximation_error_grows_with_lsbs() {
        // Mean |SAD_apx − SAD_exact| must be non-decreasing in the LSB
        // count — the x-axis of Fig.9.
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(42);
        let blocks: Vec<(Vec<u64>, Vec<u64>)> = (0..200)
            .map(|_| {
                let c: Vec<u64> = (0..16).map(|_| rng.gen_range(0..256)).collect();
                let r: Vec<u64> = (0..16).map(|_| rng.gen_range(0..256)).collect();
                (c, r)
            })
            .collect();
        for variant in [SadVariant::ApxSad1, SadVariant::ApxSad3, SadVariant::ApxSad5] {
            let mut last = -1.0f64;
            for lsbs in [0usize, 2, 4, 6] {
                let sad = SadAccelerator::new(16, variant, lsbs).unwrap();
                let mean: f64 = blocks
                    .iter()
                    .map(|(c, r)| {
                        sad.sad(c, r).unwrap().abs_diff(SadAccelerator::sad_exact(c, r)) as f64
                    })
                    .sum::<f64>()
                    / blocks.len() as f64;
                assert!(
                    mean >= last - 1e-9,
                    "{variant}: error fell from {last} to {mean} at {lsbs} LSBs"
                );
                last = mean;
            }
            assert!(last > 0.0, "{variant} with 6 LSBs must actually err");
        }
    }

    #[test]
    fn power_decreases_with_approximation() {
        let exact = SadAccelerator::accurate(16).unwrap().hw_cost();
        for variant in [SadVariant::ApxSad1, SadVariant::ApxSad4, SadVariant::ApxSad5] {
            let mut last = exact.power_nw;
            for lsbs in [2usize, 4, 6] {
                let cost = SadAccelerator::new(16, variant, lsbs).unwrap().hw_cost();
                assert!(cost.power_nw < last, "{variant} {lsbs} LSBs");
                last = cost.power_nw;
            }
        }
    }

    #[test]
    fn fig9_power_claim_4_lsbs_beats_2_lsbs() {
        // The paper: "approximating 4-bits always resulted in an overall
        // lower power consumption compared to approximating the 2-bits,
        // for all types of approximate adders".
        for variant in SadVariant::ALL.iter().skip(1) {
            let p2 = SadAccelerator::new(16, *variant, 2).unwrap().hw_cost().power_nw;
            let p4 = SadAccelerator::new(16, *variant, 4).unwrap().hw_cost().power_nw;
            assert!(p4 < p2, "{variant}");
        }
    }

    #[test]
    fn sad_remains_monotone_enough_for_ranking() {
        // The Fig.8 claim: the error surface shifts but the *best block*
        // ordering is broadly preserved for mild approximation. Check that
        // a clearly-better block keeps a smaller approximate SAD.
        let sad = SadAccelerator::new(16, SadVariant::ApxSad2, 2).unwrap();
        let cur: Vec<u64> = (0..16).map(|i| 100 + (i % 4)).collect();
        let close: Vec<u64> = cur.iter().map(|v| v + 2).collect();
        let far: Vec<u64> = cur.iter().map(|v| v + 90).collect();
        let d_close = sad.sad(&cur, &close).unwrap();
        let d_far = sad.sad(&cur, &far).unwrap();
        assert!(d_close < d_far);
    }

    #[test]
    fn cost_scales_with_lanes() {
        let small = SadAccelerator::accurate(4).unwrap().hw_cost();
        let large = SadAccelerator::accurate(64).unwrap().hw_cost();
        assert!(large.area_ge > small.area_ge * 8.0);
        // Tree depth grows logarithmically.
        assert!(large.delay > small.delay);
        assert!(large.delay < small.delay * 4.0);
    }

    #[test]
    fn names() {
        let sad = SadAccelerator::new(16, SadVariant::ApxSad3, 4).unwrap();
        assert_eq!(sad.name(), "ApxSAD3(16 lanes, 4 LSBs)");
    }
}
