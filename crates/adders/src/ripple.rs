//! Multi-bit ripple-carry adders with per-bit cell selection.
//!
//! This is the lpACLib-style construction the paper uses in its accelerator
//! case studies: an `N`-bit ripple-carry chain whose `k` least-significant
//! cells are replaced by one of the approximate full adders of
//! [`crate::FullAdderKind`], while the upper cells stay accurate. Because
//! application data concentrates signal energy in the upper bits, the
//! quality loss is bounded while every approximated cell saves its full
//! area/power delta.
//!
//! # Example
//!
//! ```
//! use xlac_adders::{Adder, RippleCarryAdder, FullAdderKind};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let exact = RippleCarryAdder::accurate(8);
//! assert_eq!(exact.add(123, 45), 168);
//!
//! let lp = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4)?;
//! assert!(lp.hw_cost().area_ge < exact.hw_cost().area_ge);
//! # Ok(())
//! # }
//! ```

use crate::adder::{plane, Adder};
use crate::full_adder::FullAdderKind;
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};

/// A ripple-carry adder built from an explicit per-bit sequence of
/// full-adder cells (index 0 = LSB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RippleCarryAdder {
    cells: Vec<FullAdderKind>,
    /// One past the last approximate cell (0 when every cell is
    /// accurate): the scalar model walks cells `0..approx_end` and adds
    /// the accurate span above as one integer add.
    approx_end: usize,
}

impl RippleCarryAdder {
    /// The adder over `cells` (already validated), with the end of its
    /// approximate prefix fixed once here rather than on every call.
    fn from_valid_cells(cells: Vec<FullAdderKind>) -> Self {
        let approx_end = cells.iter().rposition(|c| !c.is_accurate()).map_or(0, |i| i + 1);
        RippleCarryAdder { cells, approx_end }
    }

    /// An all-accurate ripple-carry adder of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    #[must_use]
    pub fn accurate(width: usize) -> Self {
        assert!((1..=64).contains(&width), "adder width {width} out of 1..=64");
        Self::from_valid_cells(vec![FullAdderKind::Accurate; width])
    }

    /// A `width`-bit adder whose `approx_lsbs` least-significant cells use
    /// `kind` and whose upper cells are accurate.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when
    /// `approx_lsbs > width` or `width` is outside `1..=64`.
    pub fn with_approx_lsbs(width: usize, kind: FullAdderKind, approx_lsbs: usize) -> Result<Self> {
        if width == 0 || width > 64 {
            return Err(XlacError::InvalidWidth { width, max: 64 });
        }
        if approx_lsbs > width {
            return Err(XlacError::InvalidConfiguration(format!(
                "{approx_lsbs} approximate LSBs exceed the {width}-bit width"
            )));
        }
        let mut cells = vec![kind; approx_lsbs];
        cells.resize(width, FullAdderKind::Accurate);
        Ok(Self::from_valid_cells(cells))
    }

    /// An adder from an explicit cell sequence (index 0 = LSB).
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidWidth`] for empty or > 64-cell chains.
    pub fn from_cells(cells: Vec<FullAdderKind>) -> Result<Self> {
        if cells.is_empty() || cells.len() > 64 {
            return Err(XlacError::InvalidWidth { width: cells.len(), max: 64 });
        }
        Ok(Self::from_valid_cells(cells))
    }

    /// The per-bit cell sequence (index 0 = LSB).
    #[must_use]
    pub fn cells(&self) -> &[FullAdderKind] {
        &self.cells
    }

    /// Number of approximate (non-accurate) cells.
    #[must_use]
    pub fn approx_cell_count(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_accurate()).count()
    }
}

impl RippleCarryAdder {
    /// Bit-sliced [`Adder::add`]: 64 independent additions per call, the
    /// same LSB→MSB cell walk as the scalar model with each cell evaluated
    /// on 64 lanes at once via [`FullAdderKind::eval_x64`].
    ///
    /// Operand batches are **bit-plane vectors** (`xlac_core::lanes`
    /// layout): `a[i]` holds bit `i` of all 64 lane values. Planes past the
    /// slice end read as zero and planes at index `>= width` are ignored,
    /// mirroring the truncate-on-input semantics of [`Adder::add`]. The
    /// result always has exactly `width + 1` planes with the carry-out in
    /// the last plane, so for every lane `j`
    ///
    /// ```text
    /// lanes::lane(&rca.add_x64(&a, &b), j) == rca.add(lanes::lane(&a, j), lanes::lane(&b, j))
    /// ```
    #[must_use]
    pub fn add_x64(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.cells.len() + 1];
        self.add_x64_into(a, b, &mut out);
        out
    }

    /// The allocation-free core of [`RippleCarryAdder::add_x64`]: ripples
    /// into a caller-provided buffer of exactly `width() + 1` planes
    /// (carry-out last). Hot paths (the recursive multiplier, `xlac-sim`
    /// sweeps) use this with stack buffers.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != width() + 1`.
    #[inline]
    pub fn add_x64_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let w = self.cells.len();
        assert_eq!(out.len(), w + 1, "output buffer must hold width + 1 planes");
        let mut carry = 0u64;
        for (i, cell) in self.cells.iter().enumerate() {
            let (s, c) = cell.eval_x64(plane(a, i), plane(b, i), carry);
            out[i] = s;
            carry = c;
        }
        out[w] = carry;
    }
}

impl Adder for RippleCarryAdder {
    fn width(&self) -> usize {
        self.cells.len()
    }

    /// Walks the cells only up to the last approximate one. The accurate
    /// cell is the binary full adder (`sum + 2·cout = a + b + cin` on
    /// every row), so a ripple of accurate cells over bits `e..w` with
    /// carry-in `c` is exactly the integer sum `(a >> e) + (b >> e) + c`,
    /// carry-out included; that span is one add.
    fn add(&self, a: u64, b: u64) -> u64 {
        let w = self.cells.len();
        let a = bits::truncate(a, w);
        let b = bits::truncate(b, w);
        let e = self.approx_end;
        let mut carry = 0u64;
        let mut sum = 0u64;
        for (i, cell) in self.cells[..e].iter().enumerate() {
            let (s, c) = cell.eval((a >> i) & 1, (b >> i) & 1, carry);
            sum |= s << i;
            carry = c;
        }
        if e < w {
            // At the full 64-bit width the carry-out has no representable
            // position: the wrapping add and the shift drop it, so the
            // scalar result is the sum modulo 2^64 (the bit-sliced
            // `add_x64` still reports the carry as plane 64).
            sum | ((a >> e).wrapping_add(b >> e).wrapping_add(carry) << e)
        } else if w < 64 {
            sum | (carry << w)
        } else {
            sum
        }
    }

    fn name(&self) -> String {
        let approx = self.approx_cell_count();
        if approx == 0 {
            format!("RCA(N={})", self.cells.len())
        } else {
            // Report the dominant approximate cell for readability.
            let kind = self.cells.iter().find(|c| !c.is_accurate()).expect("approx > 0");
            format!("RCA(N={},{}x{})", self.cells.len(), approx, kind)
        }
    }

    fn hw_cost(&self) -> HwCost {
        // Cells are laid out in series along the carry chain: areas and
        // powers add, and the carry chain sets the delay.
        self.cells.iter().map(|c| c.hw_cost()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::check::{check, Rng};
    use xlac_core::prop_assert_eq;

    /// The cell-by-cell [`Adder::add`] that walked every cell through the
    /// table-load cell evaluation, kept as the oracle of the
    /// accurate-span add.
    fn add_cellwise(rca: &RippleCarryAdder, a: u64, b: u64) -> u64 {
        let w = rca.cells.len();
        let a = bits::truncate(a, w);
        let b = bits::truncate(b, w);
        let mut carry = 0u64;
        let mut sum = 0u64;
        for (i, cell) in rca.cells.iter().enumerate() {
            let (s, c) = cell.eval_table((a >> i) & 1, (b >> i) & 1, carry);
            sum |= s << i;
            carry = c;
        }
        // At the full 64-bit width the carry-out has no representable
        // position: the scalar result is the sum modulo 2^64 (the
        // bit-sliced `add_x64` still reports the carry as plane 64).
        if w < 64 {
            sum | (carry << w)
        } else {
            sum
        }
    }

    #[test]
    fn accurate_span_add_equals_the_cell_walk_exhaustively_to_8_bits() {
        for width in 1..=8usize {
            for kind in FullAdderKind::ALL {
                for lsbs in 0..=width {
                    let rca = RippleCarryAdder::with_approx_lsbs(width, kind, lsbs).unwrap();
                    for a in 0..1u64 << width {
                        for b in 0..1u64 << width {
                            assert_eq!(
                                rca.add(a, b),
                                add_cellwise(&rca, a, b),
                                "{} a={a} b={b}",
                                rca.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn accurate_span_add_equals_the_cell_walk_on_mixed_chains() {
        // An accurate cell between approximate ones stays in the walk;
        // only the span above the last approximate cell is one add.
        let rca = RippleCarryAdder::from_cells(vec![
            FullAdderKind::Apx2,
            FullAdderKind::Accurate,
            FullAdderKind::Apx4,
            FullAdderKind::Accurate,
            FullAdderKind::Accurate,
        ])
        .unwrap();
        assert_eq!(rca.approx_end, 3);
        for a in 0u64..32 {
            for b in 0u64..32 {
                assert_eq!(rca.add(a, b), add_cellwise(&rca, a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn wide_approximate_chains_wrap_like_the_cell_walk() {
        // 64 bits with approximate low cells: the carry-out of the
        // accurate span wraps off the top, as the cell walk drops it.
        check(
            "64-bit RCA with approximate LSBs equals the cell walk",
            |rng| {
                let width = if rng.gen_bool(0.5) { 64 } else { rng.gen_range(9..=64usize) };
                (rng.gen_range(0..6usize), width, rng.gen_range(0..=width), rng.gen(), rng.gen())
            },
            |&(kind, width, lsbs, a, b): &(usize, usize, usize, u64, u64)| {
                // Shrinking may leave the valid range; such inputs pass.
                let Some(&kind) = FullAdderKind::ALL.get(kind) else { return Ok(()) };
                let Ok(rca) = RippleCarryAdder::with_approx_lsbs(width, kind, lsbs) else {
                    return Ok(());
                };
                prop_assert_eq!(rca.add(a, b), add_cellwise(&rca, a, b));
                Ok(())
            },
        );
        for kind in FullAdderKind::APPROXIMATE {
            let rca = RippleCarryAdder::with_approx_lsbs(64, kind, 5).unwrap();
            for (a, b) in [(u64::MAX, u64::MAX), (u64::MAX, 1), (1 << 63, 1 << 63)] {
                assert_eq!(rca.add(a, b), add_cellwise(&rca, a, b), "{kind} a={a} b={b}");
            }
        }
    }

    #[test]
    fn accurate_chain_equals_plus() {
        let rca = RippleCarryAdder::accurate(8);
        for a in (0u64..256).step_by(17) {
            for b in (0u64..256).step_by(13) {
                assert_eq!(rca.add(a, b), a + b);
            }
        }
    }

    #[test]
    fn carry_out_appears_in_bit_width() {
        let rca = RippleCarryAdder::accurate(4);
        assert_eq!(rca.add(0xF, 0x1), 0x10);
    }

    #[test]
    fn zero_approx_lsbs_is_exact() {
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx5, 0).unwrap();
        for (a, b) in [(255u64, 255u64), (0, 0), (170, 85)] {
            assert_eq!(rca.add(a, b), a + b);
        }
    }

    #[test]
    fn approximate_lsbs_leave_upper_bits_intact_when_no_cross_carry() {
        // Operands with zero low nibbles never exercise the approximate
        // cells' error cases in a way that crosses into the upper bits for
        // cells whose (0,0,0) row is exact.
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx1, 4).unwrap();
        assert_eq!(rca.add(0xA0, 0x30), 0xD0);
    }

    #[test]
    fn apx5_lsbs_pass_operand_b_through() {
        // With ApxFA5 in the low k bits, sum bit i = b_i and the carry into
        // bit k equals a_{k-1}.
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx5, 4).unwrap();
        let a = 0b0000_1010u64;
        let b = 0b0000_0110u64;
        let sum = rca.add(a, b);
        assert_eq!(sum & 0xF, b & 0xF, "low bits mirror operand B");
        // Carry into bit 4 is a_3 = 1.
        assert_eq!(sum >> 4, 1);
    }

    #[test]
    fn error_is_bounded_by_approximated_prefix() {
        // Any error introduced by the k approximate LSBs is below
        // 2^(k+1): the worst case is a wrong carry into bit k plus wrong
        // low bits.
        for kind in FullAdderKind::APPROXIMATE {
            let k = 4usize;
            let rca = RippleCarryAdder::with_approx_lsbs(10, kind, k).unwrap();
            for a in (0u64..1024).step_by(7) {
                for b in (0u64..1024).step_by(11) {
                    let err = rca.add(a, b).abs_diff(a + b);
                    assert!(err < 1 << (k + 1), "{kind}: err {err} at {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn more_approx_cells_cost_less() {
        let costs: Vec<f64> = (0..=8)
            .map(|k| {
                RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx4, k)
                    .unwrap()
                    .hw_cost()
                    .area_ge
            })
            .collect();
        for pair in costs.windows(2) {
            assert!(pair[1] < pair[0], "area must strictly decrease: {costs:?}");
        }
    }

    #[test]
    fn config_validation() {
        assert!(RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx1, 9).is_err());
        assert!(RippleCarryAdder::with_approx_lsbs(0, FullAdderKind::Apx1, 0).is_err());
        assert!(RippleCarryAdder::with_approx_lsbs(65, FullAdderKind::Apx1, 0).is_err());
        assert!(RippleCarryAdder::from_cells(vec![]).is_err());
    }

    #[test]
    fn full_width_adder_wraps_modulo_2_64() {
        // Width 64 (the recursive 32×32 top-level summation): the scalar
        // result is the mod-2^64 sum, the bit-sliced form keeps the carry
        // in plane 64.
        let rca = RippleCarryAdder::accurate(64);
        assert_eq!(rca.add(u64::MAX, 1), 0);
        assert_eq!(rca.add(u64::MAX, u64::MAX), u64::MAX.wrapping_mul(2));
        let planes = rca.add_x64(&[u64::MAX; 64], &[u64::MAX; 64]);
        assert_eq!(planes.len(), 65);
        assert_eq!(planes[64], u64::MAX, "carry-out plane survives bit-sliced");
    }

    #[test]
    fn name_reports_configuration() {
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx2, 3).unwrap();
        assert_eq!(rca.name(), "RCA(N=8,3xApxFA2)");
        assert_eq!(RippleCarryAdder::accurate(8).name(), "RCA(N=8)");
    }

    #[test]
    fn mixed_cell_chain() {
        let rca = RippleCarryAdder::from_cells(vec![
            FullAdderKind::Apx5,
            FullAdderKind::Apx3,
            FullAdderKind::Accurate,
            FullAdderKind::Accurate,
        ])
        .unwrap();
        assert_eq!(rca.width(), 4);
        assert_eq!(rca.approx_cell_count(), 2);
        // Bit 0 (ApxFA5, inputs 0,0,–) is exact here, but bit 1 hits
        // ApxFA3's (0,0,0) error row, where sum = !cout = 1:
        // 0b1000 + 0b0100 = 0b1110 on this chain instead of 0b1100.
        assert_eq!(rca.add(0b1000, 0b0100), 0b1110);
    }
}
