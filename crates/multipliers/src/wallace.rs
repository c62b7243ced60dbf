//! Wallace-tree multipliers with approximate reduction columns.
//!
//! The classic fast multiplier: generate all `N²` partial-product bits,
//! reduce each bit column with carry-save full/half adders until at most
//! two rows remain, then run one carry-propagate addition. Following the
//! approximate Wallace-tree literature the paper cites (Bhardwaj et al.,
//! ISQED'14), the reduction cells of the **low-order columns** can be
//! swapped for an approximate full-adder kind — errors stay confined to
//! the least-significant product bits while every swapped cell saves area
//! and power.
//!
//! # Example
//!
//! ```
//! use xlac_multipliers::{Multiplier, WallaceMultiplier};
//! use xlac_adders::FullAdderKind;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let exact = WallaceMultiplier::new(8, FullAdderKind::Accurate, 0)?;
//! assert_eq!(exact.mul(250, 99), 250 * 99);
//!
//! let approx = WallaceMultiplier::new(8, FullAdderKind::Apx4, 4)?;
//! assert!(approx.hw_cost().area_ge < exact.hw_cost().area_ge);
//! # Ok(())
//! # }
//! ```

use crate::Multiplier;
use xlac_adders::FullAdderKind;
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};

/// One reduction-cell instantiation of a Wallace tree: which product
/// column it reduces (bit weight `2^column`), whether the slot is a half
/// adder (`cin` tied to 0), and the cell kind wired there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPlacement {
    /// Product column index; the cell's sum lands at weight `2^column`.
    pub column: usize,
    /// `true` when the slot is a half adder (third input tied to 0).
    pub half_adder: bool,
    /// The full-adder kind reducing this slot.
    pub kind: FullAdderKind,
}

/// A Wallace-tree multiplier whose `approx_cols` low columns reduce with
/// an approximate full-adder kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallaceMultiplier {
    width: usize,
    kind: FullAdderKind,
    approx_cols: usize,
}

impl WallaceMultiplier {
    /// Creates an `width × width` Wallace multiplier. Columns
    /// `0 .. approx_cols` of the reduction tree use `kind`; the remaining
    /// columns and the final carry-propagate adder stay accurate.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidWidth`] when `width` is outside `2..=32`
    /// or [`XlacError::InvalidConfiguration`] when `approx_cols` exceeds
    /// the `2·width` product columns.
    pub fn new(width: usize, kind: FullAdderKind, approx_cols: usize) -> Result<Self> {
        if !(2..=MAX_WIDTH).contains(&width) {
            return Err(XlacError::InvalidWidth { width, max: MAX_WIDTH });
        }
        if approx_cols > 2 * width {
            return Err(XlacError::InvalidConfiguration(format!(
                "{approx_cols} approximate columns exceed the {} product columns",
                2 * width
            )));
        }
        Ok(WallaceMultiplier { width, kind, approx_cols })
    }

    /// The reduction-cell kind for the approximate columns.
    #[must_use]
    pub fn cell_kind(&self) -> FullAdderKind {
        self.kind
    }

    /// Number of approximate low columns.
    #[must_use]
    pub fn approx_columns(&self) -> usize {
        self.approx_cols
    }

    fn cell_for(&self, column: usize) -> FullAdderKind {
        if column < self.approx_cols {
            self.kind
        } else {
            FullAdderKind::Accurate
        }
    }

    /// The exact sequence of reduction-cell instantiations the tree uses.
    /// Placement is input-independent (the schedule depends only on column
    /// heights), so this is the structural netlist of the reduction stage —
    /// the seed data for static error-bound analysis.
    #[must_use]
    pub fn cell_placements(&self) -> Vec<CellPlacement> {
        let mut placements = Vec::new();
        self.reduce(None, Some(&mut placements));
        placements
    }

    /// Runs the reduction, either on live bits (`Some(a, b)`) or purely
    /// structurally to count cells (`None`). Returns
    /// `(product, fa_count, ha_count)` where the counts are per-column
    /// totals split into (approximate, accurate) pairs. When `placements`
    /// is given, every cell instantiation is recorded in schedule order.
    fn reduce(
        &self,
        operands: Option<(u64, u64)>,
        mut placements: Option<&mut Vec<CellPlacement>>,
    ) -> (u64, [usize; 2], [usize; 2]) {
        let mut fa = [0usize; 2]; // [approximate, accurate]
        let mut ha = [0usize; 2];
        let product = self.reduce_with(operands, |cell, n| {
            let slot = usize::from(cell.kind.is_accurate());
            if cell.half_adder {
                ha[slot] += n;
            } else {
                fa[slot] += n;
            }
            if let Some(rec) = placements.as_deref_mut() {
                rec.extend(std::iter::repeat_n(cell, n));
            }
        });
        (product, fa, ha)
    }

    /// The reduction behind [`WallaceMultiplier::reduce`] and
    /// [`Multiplier::mul`]: returns the product and tells `cells` of each
    /// run of `n` identical cells in schedule order (`mul` passes a no-op,
    /// so its walk does per-input work only). The columns are [`Column`]
    /// bit stacks, so the walk allocates nothing.
    ///
    /// The columns reduce in one ascending pass: carries only move up, so
    /// a column is final once its turn is over. Only the column being
    /// reduced and the one receiving its carries are live, both in
    /// registers, and each column's partial products are generated as one
    /// word when it becomes the receiving one. A run of full adders in one
    /// column is a chain — each cell pops the sum its predecessor pushed
    /// plus the two bits below it — so the sum stays in a register and
    /// joins those two bits as the next truth-table row, and a cell is a
    /// shift and mask of the kind's [`FullAdderKind::truth_masks`].
    #[inline]
    fn reduce_with(
        &self,
        operands: Option<(u64, u64)>,
        mut cells: impl FnMut(CellPlacement, usize),
    ) -> u64 {
        let w = self.width;
        let cols = 2 * w;
        // Column c stacks a_i·b_{c−i} for ascending i from
        // i_min = max(0, c − w + 1) (placeholder 0s in structural mode);
        // with b bit-reversed into `rb` (bit m = b_{w−1−m}), bit k of the
        // stack is bit k of (a >> i_min) & (rb >> (w − 1 − c + i_min)).
        let (a, rb) = operands.map_or((0, 0), |(a, b)| (a, b.reverse_bits() >> (64 - w)));
        let partial_products = |c: usize| {
            if c + 1 >= cols {
                return Column::default();
            }
            let height = c.min(cols - 2 - c) + 1;
            let word = (a >> (c + 1).saturating_sub(w)) & (rb >> (w - 1).saturating_sub(c));
            // height ≤ w ≤ 32, so the shift cannot overflow.
            Column { bits: word & ((1 << height) - 1), len: height as u32 }
        };

        // The two rows left for the final carry-propagate addition.
        let mut row0 = 0u64;
        let mut row1 = 0u64;
        let mut cur = partial_products(0);
        for c in 0..cols {
            let mut next = partial_products(c + 1);
            let kind = self.cell_for(c);
            let (sum_mask, carry_mask) = kind.truth_masks();
            let (sum_mask, carry_mask) = (u64::from(sum_mask), u64::from(carry_mask));
            // Carry-save reduction until the column has at most 2 bits:
            // each full adder takes 3 bits and leaves 1.
            if cur.len > 2 {
                let full_adders = (cur.len - 1) / 2;
                let mut row = cur.pop3();
                for _ in 1..full_adders {
                    next.push((carry_mask >> row) & 1);
                    row = ((sum_mask >> row) & 1) << 2 | cur.pop2();
                }
                next.push((carry_mask >> row) & 1);
                cur.settle();
                cur.push((sum_mask >> row) & 1);
                cells(CellPlacement { column: c, half_adder: false, kind }, full_adders as usize);
            }
            // Pair off exactly-3→handled above; a half adder fires when
            // a column of exactly 2 would otherwise stall a longer
            // column's carry — classic Wallace uses HAs sparsely; we
            // reduce any 2-bit column whose neighbour still overflows.
            if cur.len == 2 && next.len > 2 {
                let row = cur.pop2() << 1;
                cur.settle();
                cur.push((sum_mask >> row) & 1);
                next.push((carry_mask >> row) & 1);
                cells(CellPlacement { column: c, half_adder: true, kind }, 1);
            }
            row0 |= cur.bit(0) << c;
            row1 |= cur.bit(1) << c;
            cur = next;
        }
        // At width 32 the two rows span all 64 bits, so their sum can
        // carry past u64; the wrap is exactly the mod-2^{2w} truncation.
        bits::truncate(row0.wrapping_add(row1), cols)
    }
}

/// Largest operand width [`WallaceMultiplier::new`] accepts.
const MAX_WIDTH: usize = 32;

/// One column of the reduction as a stack of bits held in a `u64` (bit
/// `i` is the `i`-th bit from the bottom) with its height, so the walk
/// allocates nothing. The heights do not depend on the operands, and the
/// tallest column at any width up to [`MAX_WIDTH`] holds 62 bits (width
/// 32: 32 partial products plus the carries of the column below).
#[derive(Debug, Clone, Copy, Default)]
struct Column {
    bits: u64,
    len: u32,
}

impl Column {
    fn push(&mut self, bit: u64) {
        debug_assert!(bit <= 1 && self.len < 64, "a column holds at most 64 bits");
        self.bits |= bit << self.len;
        self.len += 1;
    }

    #[cfg(test)]
    fn pop(&mut self) -> u64 {
        self.len -= 1;
        let bit = (self.bits >> self.len) & 1;
        self.bits &= !(1 << self.len);
        bit
    }

    /// Pops the top three bits as one truth-table row
    /// `top << 2 | second << 1 | third` — three [`Column::pop`]s in one
    /// shift. The popped bits stay set above the height until
    /// [`Column::settle`].
    fn pop3(&mut self) -> u64 {
        self.len -= 3;
        (self.bits >> self.len) & 7
    }

    /// Pops the top two bits as `top << 1 | second`, like
    /// [`Column::pop3`].
    fn pop2(&mut self) -> u64 {
        self.len -= 2;
        (self.bits >> self.len) & 3
    }

    /// Clears the bits popped since the last push, restoring the
    /// invariant that no bit is set above the height.
    fn settle(&mut self) {
        // A column never holds 64 bits (see `push`), so the shift is safe.
        self.bits &= (1 << self.len) - 1;
    }

    /// The `i`-th bit from the bottom, 0 past the top (no bit is set above
    /// the height once the column is settled).
    fn bit(&self, i: u32) -> u64 {
        (self.bits >> i) & 1
    }
}

impl Multiplier for WallaceMultiplier {
    fn width(&self) -> usize {
        self.width
    }

    fn mul(&self, a: u64, b: u64) -> u64 {
        let a = bits::truncate(a, self.width);
        let b = bits::truncate(b, self.width);
        self.reduce_with(Some((a, b)), |_, _| {})
    }

    fn name(&self) -> String {
        if self.approx_cols == 0 {
            format!("Wallace(N={})", self.width)
        } else {
            format!("Wallace(N={},{}cols {})", self.width, self.approx_cols, self.kind)
        }
    }

    fn hw_cost(&self) -> HwCost {
        let (_, fa, ha) = self.reduce(None, None);
        let and_gate = HwCost { area_ge: 1.33, power_nw: 60.0, delay: 1.5 };
        let partials = and_gate * (self.width * self.width) as f64;
        let approx_cell = self.kind.hw_cost();
        let exact_cell = FullAdderKind::Accurate.hw_cost();
        // Half adders cost ~60 % of a full adder.
        let cells = approx_cell * fa[0] as f64
            + exact_cell * fa[1] as f64
            + approx_cell * (ha[0] as f64 * 0.6)
            + exact_cell * (ha[1] as f64 * 0.6);
        // Final 2w-bit carry-propagate adder.
        let cpa = exact_cell * (2 * self.width) as f64;
        // Delay: log-depth reduction + final CPA.
        let depth = ((self.width * self.width) as f64).log(1.5).ceil();
        let mut cost = partials + cells + cpa;
        cost.delay = exact_cell.delay * depth + cpa.delay * 0.25;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::check::{check, Rng};
    use xlac_core::prop_assert_eq;

    /// The stack walk that popped and pushed one bit at a time through
    /// memory and loaded every cell from the truth table, kept as the
    /// oracle of the register-chain reduction.
    fn reduce_stackwise(
        m: &WallaceMultiplier,
        operands: Option<(u64, u64)>,
        mut placements: Option<&mut Vec<CellPlacement>>,
    ) -> (u64, [usize; 2], [usize; 2]) {
        let w = m.width;
        let cols = 2 * w;
        // columns[c] holds the live bits (or placeholder 0s in structural
        // mode) awaiting reduction in column c.
        let mut columns = [Column::default(); 2 * MAX_WIDTH + 1];
        for i in 0..w {
            for j in 0..w {
                let bit = match operands {
                    Some((a, b)) => bits::bit(a, i) & bits::bit(b, j),
                    None => 0,
                };
                columns[i + j].push(bit);
            }
        }

        let mut fa = [0usize; 2]; // [approximate, accurate]
        let mut ha = [0usize; 2];
        // Carry-save reduction until every column has at most 2 bits.
        loop {
            let mut reduced = false;
            for c in 0..cols {
                while columns[c].len > 2 {
                    reduced = true;
                    let kind = m.cell_for(c);
                    let slot = usize::from(kind.is_accurate());
                    let x = columns[c].pop();
                    let y = columns[c].pop();
                    let z = columns[c].pop();
                    let (s, carry) = kind.eval(x, y, z);
                    columns[c].push(s);
                    columns[c + 1].push(carry);
                    fa[slot] += 1;
                    if let Some(rec) = placements.as_deref_mut() {
                        rec.push(CellPlacement { column: c, half_adder: false, kind });
                    }
                }
                // Pair off exactly-3→handled above; a half adder fires when
                // a column of exactly 2 would otherwise stall a longer
                // column's carry — classic Wallace uses HAs sparsely; we
                // reduce any 2-bit column whose neighbour still overflows.
                if columns[c].len == 2 && columns[c + 1].len > 2 {
                    reduced = true;
                    let kind = m.cell_for(c);
                    let slot = usize::from(kind.is_accurate());
                    let x = columns[c].pop();
                    let y = columns[c].pop();
                    let (s, carry) = kind.eval(x, y, 0);
                    columns[c].push(s);
                    columns[c + 1].push(carry);
                    ha[slot] += 1;
                    if let Some(rec) = placements.as_deref_mut() {
                        rec.push(CellPlacement { column: c, half_adder: true, kind });
                    }
                }
            }
            if !reduced {
                break;
            }
        }

        // Final carry-propagate addition of the two remaining rows.
        let mut row0 = 0u64;
        let mut row1 = 0u64;
        for (c, col) in columns.iter().enumerate().take(cols) {
            row0 |= col.bit(0) << c;
            row1 |= col.bit(1) << c;
        }
        // At width 32 the two rows span all 64 bits, so their sum can
        // carry past u64; the wrap is exactly the mod-2^{2w} truncation.
        let product = bits::truncate(row0.wrapping_add(row1), cols);
        (product, fa, ha)
    }

    /// Every kind at every approximate-column count of an 8×8 tree.
    fn every_8x8_config() -> impl Iterator<Item = WallaceMultiplier> {
        FullAdderKind::ALL.into_iter().flat_map(|kind| {
            (0..=16).map(move |cols| WallaceMultiplier::new(8, kind, cols).unwrap())
        })
    }

    #[test]
    fn register_chain_equals_the_stack_walk_exhaustively_at_8x8() {
        for m in every_8x8_config() {
            for a in 0u64..256 {
                for b in 0u64..256 {
                    let want = reduce_stackwise(&m, Some((a, b)), None).0;
                    assert_eq!(m.mul(a, b), want, "{} {a}x{b}", m.name());
                }
            }
        }
    }

    #[test]
    fn register_chain_keeps_the_schedule_of_the_stack_walk() {
        for width in 2..=MAX_WIDTH {
            for kind in [FullAdderKind::Accurate, FullAdderKind::Apx4] {
                for cols in [0, width / 2, 2 * width] {
                    let m = WallaceMultiplier::new(width, kind, cols).unwrap();
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    let counts = m.reduce(None, Some(&mut got));
                    let oracle = reduce_stackwise(&m, None, Some(&mut want));
                    assert_eq!(counts, oracle, "{}", m.name());
                    assert_eq!(got, want, "{}", m.name());
                }
            }
        }
    }

    #[test]
    fn register_chain_equals_the_stack_walk_at_32x32() {
        // Width 32: the tallest columns (62 bits) and the 64-bit wrap of
        // the final carry-propagate add.
        check(
            "32x32 Wallace equals the stack walk",
            |rng| (rng.gen_range(0..6usize), rng.gen_range(0..=64usize), rng.gen(), rng.gen()),
            |&(kind, cols, a, b): &(usize, usize, u64, u64)| {
                let Some(&kind) = FullAdderKind::ALL.get(kind) else { return Ok(()) };
                let Ok(m) = WallaceMultiplier::new(32, kind, cols) else { return Ok(()) };
                let (a, b) = (bits::truncate(a, 32), bits::truncate(b, 32));
                prop_assert_eq!(m.mul(a, b), reduce_stackwise(&m, Some((a, b)), None).0);
                Ok(())
            },
        );
        let max = u64::from(u32::MAX);
        for kind in FullAdderKind::ALL {
            let m = WallaceMultiplier::new(32, kind, 64).unwrap();
            assert_eq!(m.mul(max, max), reduce_stackwise(&m, Some((max, max)), None).0);
        }
    }

    #[test]
    fn exact_wallace_4x4_exhaustive() {
        let m = WallaceMultiplier::new(4, FullAdderKind::Accurate, 0).unwrap();
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(m.mul(a, b), a * b, "{a}x{b}");
            }
        }
    }

    #[test]
    fn exact_wallace_8x8_exhaustive() {
        let m = WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).unwrap();
        for a in 0u64..256 {
            for b in 0u64..256 {
                assert_eq!(m.mul(a, b), a * b, "{a}x{b}");
            }
        }
    }

    #[test]
    fn approximate_columns_confine_errors() {
        // Errors from k approximate columns cannot reach far above bit k:
        // the worst corruption is a wrong carry chain seeded below bit k.
        let k = 4usize;
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx5, k).unwrap();
        let mut max_err = 0u64;
        for a in (0u64..256).step_by(3) {
            for b in (0u64..256).step_by(7) {
                max_err = max_err.max(m.mul(a, b).abs_diff(a * b));
            }
        }
        assert!(max_err > 0, "approximation must actually bite");
        assert!(max_err < 1 << (k + 4), "errors must stay near the low columns: {max_err}");
    }

    #[test]
    fn zero_approx_columns_is_exact_for_every_kind() {
        for kind in FullAdderKind::APPROXIMATE {
            let m = WallaceMultiplier::new(6, kind, 0).unwrap();
            for (a, b) in [(63u64, 63u64), (17, 42), (1, 1)] {
                assert_eq!(m.mul(a, b), a * b, "{kind}");
            }
        }
    }

    #[test]
    fn more_approx_columns_cost_less() {
        let mut last = f64::INFINITY;
        for cols in [0usize, 4, 8, 12] {
            let area =
                WallaceMultiplier::new(8, FullAdderKind::Apx5, cols).unwrap().hw_cost().area_ge;
            assert!(area <= last, "area must not grow with approximation");
            last = area;
        }
    }

    #[test]
    fn validation() {
        assert!(WallaceMultiplier::new(1, FullAdderKind::Accurate, 0).is_err());
        assert!(WallaceMultiplier::new(33, FullAdderKind::Accurate, 0).is_err());
        assert!(WallaceMultiplier::new(8, FullAdderKind::Accurate, 17).is_err());
        // Widths 17..=32 are now valid (the error calculus certifies
        // them); spot-check correctness at the 32-bit ceiling.
        let wide = WallaceMultiplier::new(32, FullAdderKind::Accurate, 0).unwrap();
        for (a, b) in [(u32::MAX as u64, u32::MAX as u64), (0xDEAD_BEEF, 0x1234_5678)] {
            assert_eq!(wide.mul(a, b), a.wrapping_mul(b));
        }
    }

    #[test]
    fn structural_pass_matches_live_pass_cell_counts() {
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
        let (_, fa_a, ha_a) = m.reduce(None, None);
        let (_, fa_b, ha_b) = m.reduce(Some((123, 231)), None);
        assert_eq!(fa_a, fa_b, "cell placement is input-independent");
        assert_eq!(ha_a, ha_b);
    }

    #[test]
    fn cell_placements_agree_with_reduction_counts() {
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
        let placements = m.cell_placements();
        let (_, fa, ha) = m.reduce(None, None);
        let fa_total = placements.iter().filter(|p| !p.half_adder).count();
        let ha_total = placements.iter().filter(|p| p.half_adder).count();
        assert_eq!(fa_total, fa[0] + fa[1]);
        assert_eq!(ha_total, ha[0] + ha[1]);
        // Approximate cells sit exactly in the approximated columns.
        for p in &placements {
            assert_eq!(p.kind.is_accurate(), p.column >= 5, "column {}", p.column);
        }
        // Every placement stays within the 2w product columns.
        assert!(placements.iter().all(|p| p.column < 16));
    }

    #[test]
    fn wallace_is_faster_than_recursive_composition() {
        use crate::{Mul2x2Kind, RecursiveMultiplier, SumMode};
        let wal = WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).unwrap();
        let rec = RecursiveMultiplier::new(8, Mul2x2Kind::Accurate, SumMode::Accurate).unwrap();
        assert!(wal.hw_cost().delay < rec.hw_cost().delay);
    }

    #[test]
    fn names() {
        assert_eq!(
            WallaceMultiplier::new(8, FullAdderKind::Apx1, 3).unwrap().name(),
            "Wallace(N=8,3cols ApxFA1)"
        );
        assert_eq!(
            WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).unwrap().name(),
            "Wallace(N=8)"
        );
    }
}
