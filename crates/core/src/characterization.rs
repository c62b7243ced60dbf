//! Hardware-cost records and component profiles.
//!
//! The paper characterizes every approximate component for **area** (gate
//! equivalents for ASIC designs, LUTs for FPGA designs), **power**
//! (nanowatts, from switching activity) and **performance** (critical-path
//! delay). [`HwCost`] is that record; [`ComponentProfile`] bundles it with
//! the component's [`ErrorStats`] so a design-space explorer can trade the
//! two off (see `xlac-explore`).
//!
//! # Example
//!
//! ```
//! use xlac_core::{HwCost, ComponentProfile, ErrorStats};
//!
//! let accurate = HwCost { area_ge: 4.41, power_nw: 1130.0, delay: 4.0 };
//! let approx = HwCost { area_ge: 1.59, power_nw: 294.0, delay: 2.0 };
//! assert!(approx.dominates_cost(&accurate));
//! let sum = accurate + approx; // composition: costs add
//! assert!((sum.area_ge - 6.0).abs() < 1e-9);
//! ```

use crate::metrics::ErrorStats;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Area / power / delay of a hardware component.
///
/// Units follow the paper's tables: area in **gate equivalents** (GE — the
/// area of one NAND2), power in **nW** under uniform random input activity,
/// and delay in **normalized gate delays** (one inverter FO4 ≈ 1.0).
///
/// Costs **add** under structural composition (two blocks side by side) and
/// **scale** under replication, which is what the `Add`/`Mul` impls encode.
/// Delay composes by addition too, matching serial (chained) composition —
/// for parallel composition take the `max` explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HwCost {
    /// Area in gate equivalents (1 GE = one NAND2).
    pub area_ge: f64,
    /// Average power in nanowatts under uniform random inputs.
    pub power_nw: f64,
    /// Critical-path delay in normalized gate delays.
    pub delay: f64,
}

impl HwCost {
    /// The zero cost (ApxFA5 in Table III — pure wiring).
    pub const ZERO: HwCost = HwCost { area_ge: 0.0, power_nw: 0.0, delay: 0.0 };

    /// Creates a cost record.
    #[must_use]
    pub fn new(area_ge: f64, power_nw: f64, delay: f64) -> Self {
        HwCost { area_ge, power_nw, delay }
    }

    /// `true` when `self` is no worse than `other` on every axis and
    /// strictly better on at least one (Pareto dominance on cost alone).
    #[must_use]
    pub fn dominates_cost(&self, other: &HwCost) -> bool {
        let no_worse = self.area_ge <= other.area_ge
            && self.power_nw <= other.power_nw
            && self.delay <= other.delay;
        let better = self.area_ge < other.area_ge
            || self.power_nw < other.power_nw
            || self.delay < other.delay;
        no_worse && better
    }

    /// Serial composition keeping the larger delay (parallel datapaths that
    /// share a clock): areas and powers add, delay is the max.
    #[must_use]
    pub fn parallel(self, other: HwCost) -> HwCost {
        HwCost {
            area_ge: self.area_ge + other.area_ge,
            power_nw: self.power_nw + other.power_nw,
            delay: self.delay.max(other.delay),
        }
    }
}

impl Add for HwCost {
    type Output = HwCost;

    fn add(self, rhs: HwCost) -> HwCost {
        HwCost {
            area_ge: self.area_ge + rhs.area_ge,
            power_nw: self.power_nw + rhs.power_nw,
            delay: self.delay + rhs.delay,
        }
    }
}

impl AddAssign for HwCost {
    fn add_assign(&mut self, rhs: HwCost) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for HwCost {
    type Output = HwCost;

    fn mul(self, k: f64) -> HwCost {
        HwCost { area_ge: self.area_ge * k, power_nw: self.power_nw * k, delay: self.delay * k }
    }
}

impl Sum for HwCost {
    fn sum<I: Iterator<Item = HwCost>>(iter: I) -> HwCost {
        iter.fold(HwCost::ZERO, Add::add)
    }
}

/// A characterized component: name, hardware cost and output quality.
///
/// This is the row format of the paper's characterization tables
/// (Table III, Fig.5) and the input record of the design-space explorer.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentProfile {
    /// Human-readable component name (e.g. `"ApxFA3"`, `"GeAr(N=11,R=3,P=5)"`).
    pub name: String,
    /// Hardware cost.
    pub cost: HwCost,
    /// Error statistics against the exact reference.
    pub quality: ErrorStats,
}

impl ComponentProfile {
    /// Creates a profile.
    #[must_use]
    pub fn new(name: impl Into<String>, cost: HwCost, quality: ErrorStats) -> Self {
        ComponentProfile { name: name.into(), cost, quality }
    }

    /// Pareto dominance over (area, power, delay, error rate): `self`
    /// dominates when it is no worse everywhere and strictly better
    /// somewhere.
    #[must_use]
    pub fn dominates(&self, other: &ComponentProfile) -> bool {
        let c = &self.cost;
        let o = &other.cost;
        let no_worse = c.area_ge <= o.area_ge
            && c.power_nw <= o.power_nw
            && c.delay <= o.delay
            && self.quality.error_rate <= other.quality.error_rate;
        let better = c.area_ge < o.area_ge
            || c.power_nw < o.power_nw
            || c.delay < o.delay
            || self.quality.error_rate < other.quality.error_rate;
        no_worse && better
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rate: f64) -> ErrorStats {
        let mut s = ErrorStats::from_pairs(std::iter::empty());
        s.error_rate = rate;
        s
    }

    #[test]
    fn costs_add_componentwise() {
        let a = HwCost::new(1.0, 10.0, 2.0);
        let b = HwCost::new(2.0, 20.0, 3.0);
        let s = a + b;
        assert_eq!(s, HwCost::new(3.0, 30.0, 5.0));
    }

    #[test]
    fn parallel_takes_max_delay() {
        let a = HwCost::new(1.0, 10.0, 2.0);
        let b = HwCost::new(2.0, 20.0, 7.0);
        let p = a.parallel(b);
        assert_eq!(p.area_ge, 3.0);
        assert_eq!(p.delay, 7.0);
    }

    #[test]
    fn scaling_by_replication() {
        let a = HwCost::new(1.5, 100.0, 1.0);
        let s = a * 4.0;
        assert_eq!(s.area_ge, 6.0);
        assert_eq!(s.power_nw, 400.0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: HwCost = (0..3).map(|_| HwCost::new(1.0, 1.0, 1.0)).sum();
        assert_eq!(total, HwCost::new(3.0, 3.0, 3.0));
    }

    #[test]
    fn cost_dominance() {
        let cheap = HwCost::new(1.0, 1.0, 1.0);
        let dear = HwCost::new(2.0, 2.0, 2.0);
        assert!(cheap.dominates_cost(&dear));
        assert!(!dear.dominates_cost(&cheap));
        assert!(!cheap.dominates_cost(&cheap)); // equal does not dominate
    }

    #[test]
    fn profile_dominance_includes_quality() {
        let cheap_bad = ComponentProfile::new("a", HwCost::new(1.0, 1.0, 1.0), stats(0.5));
        let dear_good = ComponentProfile::new("b", HwCost::new(2.0, 2.0, 2.0), stats(0.0));
        // Neither dominates: each wins one axis group.
        assert!(!cheap_bad.dominates(&dear_good));
        assert!(!dear_good.dominates(&cheap_bad));
        // Strictly better everywhere dominates.
        let best = ComponentProfile::new("c", HwCost::new(0.5, 0.5, 0.5), stats(0.0));
        assert!(best.dominates(&cheap_bad));
        assert!(best.dominates(&dear_good));
    }

    #[test]
    fn zero_cost_is_identity() {
        let a = HwCost::new(1.0, 2.0, 3.0);
        assert_eq!(a + HwCost::ZERO, a);
    }
}
