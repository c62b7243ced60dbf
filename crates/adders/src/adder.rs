//! The [`Adder`] abstraction and the exact reference implementation.
//!
//! Everything downstream of this crate — multipliers, SAD accelerators,
//! convolution filters, the video encoder — is generic over `dyn Adder` or
//! `A: Adder`, which is exactly the cross-layer hook the paper argues for:
//! swap the arithmetic at the logic layer, observe quality at the
//! application layer.

use xlac_core::bits;
use xlac_core::characterization::HwCost;

/// A combinational two-operand adder of a fixed operand width.
///
/// Implementations return the full `width + 1`-bit sum (carry-out in bit
/// `width`). Operands wider than `width` bits are truncated, matching
/// hardware semantics.
///
/// The trait is object-safe so heterogeneous accelerator datapaths can mix
/// adder implementations at runtime via configuration words.
pub trait Adder {
    /// Operand width in bits.
    fn width(&self) -> usize;

    /// Adds two `width`-bit operands, returning a `width + 1`-bit result.
    fn add(&self, a: u64, b: u64) -> u64;

    /// Human-readable instance name (e.g. `"GeAr(N=11,R=3,P=5)"`).
    fn name(&self) -> String;

    /// Hardware cost of this instance under the workspace cost model.
    fn hw_cost(&self) -> HwCost;

    /// The exact reference sum for this width (used by quality harnesses).
    fn exact(&self, a: u64, b: u64) -> u64 {
        let w = self.width();
        bits::truncate(a, w) + bits::truncate(b, w)
    }
}

impl<T: Adder + ?Sized> Adder for &T {
    fn width(&self) -> usize {
        (**self).width()
    }
    fn add(&self, a: u64, b: u64) -> u64 {
        (**self).add(a, b)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn hw_cost(&self) -> HwCost {
        (**self).hw_cost()
    }
}

impl<T: Adder + ?Sized> Adder for Box<T> {
    fn width(&self) -> usize {
        (**self).width()
    }
    fn add(&self, a: u64, b: u64) -> u64 {
        (**self).add(a, b)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn hw_cost(&self) -> HwCost {
        (**self).hw_cost()
    }
}

/// The exact behavioural adder: simply `a + b` on truncated operands.
///
/// Its cost model is an accurate ripple-carry chain, which is the baseline
/// the paper compares approximate designs against.
///
/// # Example
///
/// ```
/// use xlac_adders::{Adder, AccurateAdder};
///
/// let add8 = AccurateAdder::new(8);
/// assert_eq!(add8.add(200, 100), 300); // 9-bit result, no truncation
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccurateAdder {
    width: usize,
}

impl AccurateAdder {
    /// Creates an exact adder of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 63 (the result must fit in 64
    /// bits).
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!((1..=63).contains(&width), "adder width {width} out of 1..=63");
        AccurateAdder { width }
    }
}

impl Adder for AccurateAdder {
    fn width(&self) -> usize {
        self.width
    }

    fn add(&self, a: u64, b: u64) -> u64 {
        bits::truncate(a, self.width) + bits::truncate(b, self.width)
    }

    fn name(&self) -> String {
        format!("Accurate(N={})", self.width)
    }

    fn hw_cost(&self) -> HwCost {
        crate::full_adder::FullAdderKind::Accurate.hw_cost() * self.width as f64
    }
}

/// Reads plane `i`, treating missing planes as zero.
#[inline]
#[must_use]
pub(crate) fn plane(planes: &[u64], i: usize) -> u64 {
    planes.get(i).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_adder_is_plus() {
        let a = AccurateAdder::new(8);
        for (x, y) in [(0u64, 0u64), (255, 255), (17, 200)] {
            assert_eq!(a.add(x, y), x + y);
        }
    }

    #[test]
    fn operands_are_truncated() {
        let a = AccurateAdder::new(4);
        assert_eq!(a.add(0xFF, 0x01), 0xF + 0x1);
    }

    #[test]
    fn result_carries_out() {
        let a = AccurateAdder::new(4);
        assert_eq!(a.add(0xF, 0xF), 0x1E); // 5-bit result
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Adder> = Box::new(AccurateAdder::new(8));
        assert_eq!(boxed.add(1, 2), 3);
        assert_eq!(boxed.width(), 8);
        // Blanket impls forward through references and boxes.
        let by_ref: &dyn Adder = &AccurateAdder::new(8);
        assert_eq!(by_ref.add(3, 4), 7);
        assert_eq!(by_ref.exact(3, 4), 7);
    }

    #[test]
    fn cost_scales_with_width() {
        let small = AccurateAdder::new(4).hw_cost();
        let large = AccurateAdder::new(16).hw_cost();
        assert!(large.area_ge > small.area_ge);
        assert!(large.delay > small.delay);
    }

    #[test]
    #[should_panic(expected = "out of 1..=63")]
    fn zero_width_rejected() {
        let _ = AccurateAdder::new(0);
    }
}
