//! Two's-complement subtraction and absolute difference on top of any
//! [`Adder`].
//!
//! The SAD accelerator of Section 6 is built from *approximate adders and
//! subtractors*; a hardware subtractor is an adder with inverted second
//! operand and an injected carry (`a − b = a + !b + 1`). The carry
//! injection is folded into a trailing increment stage (half-adder chain),
//! which stays exact — the approximation lives in the main adder, exactly
//! as in the paper's SAD variants.
//!
//! # Example
//!
//! ```
//! use xlac_adders::{AccurateAdder, Subtractor};
//!
//! let sub = Subtractor::new(AccurateAdder::new(8));
//! assert_eq!(sub.abs_diff(200, 55), 145);
//! assert_eq!(sub.abs_diff(55, 200), 145);
//! let (mag, a_ge_b) = sub.sub(55, 200);
//! assert_eq!((mag, a_ge_b), (145, false));
//! ```

use crate::adder::Adder;
use xlac_core::bits;
use xlac_core::characterization::HwCost;

/// A subtractor wrapping an adder implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subtractor<A> {
    adder: A,
}

impl<A: Adder> Subtractor<A> {
    /// Wraps `adder` as the datapath of the subtraction.
    #[must_use]
    pub fn new(adder: A) -> Self {
        Subtractor { adder }
    }

    /// The wrapped adder.
    #[must_use]
    pub fn adder(&self) -> &A {
        &self.adder
    }

    /// Consumes the subtractor, returning the wrapped adder.
    #[must_use]
    pub fn into_inner(self) -> A {
        self.adder
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.adder.width()
    }

    /// Computes `|a − b|` and the sign: returns `(magnitude, a >= b)`.
    ///
    /// Internally `a + !b` runs through the (possibly approximate) adder;
    /// the `+1` and the conditional negation are the exact wrapping stages
    /// every hardware SAD datapath carries.
    #[must_use]
    pub fn sub(&self, a: u64, b: u64) -> (u64, bool) {
        let w = self.width();
        let a = bits::truncate(a, w);
        let b = bits::truncate(b, w);
        let nb = bits::truncate(!b, w);
        // a + !b through the approximate datapath, then the +1 increment.
        // The increment can ripple past the adder's carry-out (raw >> w can
        // reach 2), which still means "no borrow".
        let raw = self.adder.add(a, nb) + 1;
        let carry = raw >> w;
        let low = bits::truncate(raw, w);
        if carry >= 1 {
            // a >= b (no borrow): magnitude is the low word.
            (low, true)
        } else {
            // Borrow: magnitude is the two's complement of the low word.
            (bits::truncate(low.wrapping_neg(), w), false)
        }
    }

    /// Absolute difference `|a − b|`.
    #[must_use]
    pub fn abs_diff(&self, a: u64, b: u64) -> u64 {
        self.sub(a, b).0
    }

    /// Hardware cost: the adder plus an increment/negate stage of roughly
    /// one half-adder cell per bit.
    #[must_use]
    pub fn hw_cost(&self) -> HwCost {
        let half_adder_cell = HwCost { area_ge: 3.66, power_nw: 150.0, delay: 2.0 };
        self.adder.hw_cost() + half_adder_cell * (self.width() as f64 * 0.5)
    }

    /// Instance name, e.g. `"Sub(GeAr(N=8,R=2,P=2))"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("Sub({})", self.adder.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::AccurateAdder;
    use crate::full_adder::FullAdderKind;
    use crate::ripple::RippleCarryAdder;

    #[test]
    fn exact_subtractor_is_abs_diff() {
        let sub = Subtractor::new(AccurateAdder::new(8));
        for a in (0u64..256).step_by(7) {
            for b in (0u64..256).step_by(11) {
                assert_eq!(sub.abs_diff(a, b), a.abs_diff(b), "{a} - {b}");
                let (mag, ge) = sub.sub(a, b);
                assert_eq!(ge, a >= b);
                assert_eq!(mag, a.abs_diff(b));
            }
        }
    }

    #[test]
    fn zero_difference() {
        let sub = Subtractor::new(AccurateAdder::new(8));
        assert_eq!(sub.sub(42, 42), (0, true));
    }

    #[test]
    fn extremes() {
        let sub = Subtractor::new(AccurateAdder::new(8));
        assert_eq!(sub.abs_diff(255, 0), 255);
        assert_eq!(sub.abs_diff(0, 255), 255);
    }

    #[test]
    fn approximate_subtractor_mean_error_is_small() {
        // Individual |a-b| errors can be amplified when the exact +1
        // increment ripples across a wrong low word (a real hardware
        // artifact — the reason 6-LSB approximation wrecks quality in
        // Fig.9), but the *mean* error over the operand space stays within
        // the approximated-prefix scale.
        let k = 3usize;
        for kind in FullAdderKind::APPROXIMATE {
            let rca = RippleCarryAdder::with_approx_lsbs(8, kind, k).unwrap();
            let sub = Subtractor::new(rca);
            let stats = xlac_core::metrics::ErrorStats::from_pairs(
                (0u64..256)
                    .flat_map(|a| (0u64..256).map(move |b| (a, b)))
                    .map(|(a, b)| (a.abs_diff(b), sub.abs_diff(a, b))),
            );
            assert!(
                stats.mean_error_distance < (1 << (k + 1)) as f64,
                "{kind}: mean error {}",
                stats.mean_error_distance
            );
            assert!(stats.error_rate < 1.0, "{kind} errs on every input");
        }
    }

    #[test]
    fn approximate_subtractor_is_exact_without_approx_cells() {
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx5, 0).unwrap();
        let sub = Subtractor::new(rca);
        for (a, b) in [(17u64, 200u64), (255, 1), (128, 127)] {
            assert_eq!(sub.abs_diff(a, b), a.abs_diff(b));
        }
    }

    #[test]
    fn cost_exceeds_bare_adder() {
        let adder = AccurateAdder::new(8);
        let adder_cost = adder.hw_cost();
        let sub = Subtractor::new(adder);
        assert!(sub.hw_cost().area_ge > adder_cost.area_ge);
    }

    #[test]
    fn name_nests_the_adder() {
        let sub = Subtractor::new(AccurateAdder::new(8));
        assert_eq!(sub.name(), "Sub(Accurate(N=8))");
    }

    #[test]
    fn into_inner_roundtrip() {
        let sub = Subtractor::new(AccurateAdder::new(8));
        assert_eq!(sub.into_inner(), AccurateAdder::new(8));
    }
}
