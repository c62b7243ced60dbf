//! Compressor-tree multipliers built as gate netlists from the descriptor
//! compressor cells.
//!
//! Where [`crate::wallace`] reduces partial-product columns with 3:2
//! full-adder cells picked by behavioural simulation, this module builds
//! the *netlist* of a 4:2 compressor tree by inlining the descriptor
//! cells from `xlac_adders` ([`xlac_adders::cmp42`],
//! [`xlac_adders::cmp42_miscount`], [`xlac_adders::cmp42_or`]) — so one
//! structure drives scalar evaluation, 64-lane bit-sliced evaluation
//! (the netlist's word evaluator, or its compiled `xlac-sim` program),
//! Verilog export and the abstract-interpretation error analysis.
//!
//! Three orthogonal approximation knobs from the compressor-tree
//! literature the paper surveys:
//!
//! * **column truncation** (`trunc_cols`) — drop every partial-product
//!   bit in the lowest columns (fixed-width multiplier truncation);
//! * **row truncation** (`trunc_rows`) — drop the top partial-product
//!   rows (operand-downsizing);
//! * **compressor miscounting / OR-compression** (`knob`, `knob_cols`) —
//!   replace the exact 4:2 compressor in the low columns with the
//!   miscounting ([`CompressKnob::Miscount`]) or OR-collapsing
//!   ([`CompressKnob::OrCompress`]) cell.
//!
//! All three knobs only ever *drop* product mass, so the result never
//! exceeds the exact product — the property that keeps every tree signal
//! inside the `2·width` product columns.
//!
//! # Example
//!
//! ```
//! use xlac_multipliers::{CompressKnob, CompressorMultiplier, Multiplier};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let exact = CompressorMultiplier::new(8, CompressKnob::Exact, 0, 0, 0)?;
//! assert_eq!(exact.mul(250, 99), 250 * 99);
//!
//! let rough = CompressorMultiplier::new(8, CompressKnob::OrCompress, 6, 2, 0)?;
//! assert!(rough.mul(250, 99) <= 250 * 99);
//! assert!(rough.hw_cost().area_ge < exact.hw_cost().area_ge);
//! # Ok(())
//! # }
//! ```

use crate::Multiplier;
use xlac_adders::{cmp42, cmp42_miscount, cmp42_or};
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};
use xlac_logic::netlist::{Netlist, NetlistBuilder, Signal};
use xlac_logic::GateKind;

/// Which compressor cell the approximated low columns use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressKnob {
    /// Exact 4:2 compressor everywhere ([`xlac_adders::cmp42`]).
    Exact,
    /// Miscounting compressor ([`xlac_adders::cmp42_miscount`]) in the
    /// knob columns: drops the cross-pair carry, under-counting
    /// double-pair rows.
    Miscount,
    /// OR-collapse ([`xlac_adders::cmp42_or`]) in the knob columns: the
    /// whole 4-group becomes a single OR with no carries.
    OrCompress,
}

impl CompressKnob {
    fn tag(self) -> &'static str {
        match self {
            CompressKnob::Exact => "exact",
            CompressKnob::Miscount => "ms",
            CompressKnob::OrCompress => "or",
        }
    }
}

/// Seed for the deterministic switching-activity power estimate.
const POWER_SEED: u64 = 0xC044_72EE;
/// Random-vector count for the power estimate.
const POWER_VECTORS: usize = 512;

/// A `width × width` multiplier reducing its partial-product matrix with
/// 4:2 compressor stages, materialized as a single combinational
/// [`Netlist`] at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressorMultiplier {
    width: usize,
    knob: CompressKnob,
    knob_cols: usize,
    trunc_cols: usize,
    trunc_rows: usize,
    netlist: Netlist,
    power_nw: f64,
}

/// XOR with constant folding, so truncated columns and half-populated
/// compressor rows don't leave dead gates in the tree.
fn xor2(nb: &mut NetlistBuilder, a: Signal, b: Signal) -> Signal {
    match (a, b) {
        (Signal::Const(x), Signal::Const(y)) => Signal::Const(x ^ y),
        (Signal::Const(false), s) | (s, Signal::Const(false)) => s,
        (Signal::Const(true), s) | (s, Signal::Const(true)) => nb.gate(GateKind::Not, &[s]),
        _ => nb.gate(GateKind::Xor2, &[a, b]),
    }
}

/// AND with constant folding.
fn and2(nb: &mut NetlistBuilder, a: Signal, b: Signal) -> Signal {
    match (a, b) {
        (Signal::Const(false), _) | (_, Signal::Const(false)) => Signal::Const(false),
        (Signal::Const(true), s) | (s, Signal::Const(true)) => s,
        _ => nb.gate(GateKind::And2, &[a, b]),
    }
}

/// OR with constant folding.
fn or2(nb: &mut NetlistBuilder, a: Signal, b: Signal) -> Signal {
    match (a, b) {
        (Signal::Const(true), _) | (_, Signal::Const(true)) => Signal::Const(true),
        (Signal::Const(false), s) | (s, Signal::Const(false)) => s,
        _ => nb.gate(GateKind::Or2, &[a, b]),
    }
}

/// `(sum, carry)` of a 3:2 full adder built from folded primitive gates.
fn full_add(nb: &mut NetlistBuilder, x: Signal, y: Signal, z: Signal) -> (Signal, Signal) {
    let t = xor2(nb, x, y);
    let sum = xor2(nb, t, z);
    let g = and2(nb, x, y);
    let p = and2(nb, t, z);
    let carry = or2(nb, g, p);
    (sum, carry)
}

impl CompressorMultiplier {
    /// Creates a `width × width` compressor-tree multiplier.
    ///
    /// Columns `0 .. knob_cols` of the reduction compress 4-groups with
    /// the `knob` cell; `trunc_cols` low columns generate no partial
    /// products at all; the `trunc_rows` most-significant partial-product
    /// rows are dropped.
    ///
    /// # Errors
    ///
    /// [`XlacError::InvalidWidth`] when `width` is outside `2..=8` (the
    /// exhaustively-verifiable netlist regime), and
    /// [`XlacError::InvalidConfiguration`] when `knob_cols` exceeds the
    /// `2·width` product columns, `trunc_cols > width` or
    /// `trunc_rows >= width`.
    pub fn new(
        width: usize,
        knob: CompressKnob,
        knob_cols: usize,
        trunc_cols: usize,
        trunc_rows: usize,
    ) -> Result<Self> {
        if !(2..=8).contains(&width) {
            return Err(XlacError::InvalidWidth { width, max: 8 });
        }
        if knob_cols > 2 * width {
            return Err(XlacError::InvalidConfiguration(format!(
                "{knob_cols} knob columns exceed the {} product columns",
                2 * width
            )));
        }
        if trunc_cols > width {
            return Err(XlacError::InvalidConfiguration(format!(
                "truncating {trunc_cols} columns of a {width}-bit multiplier drops whole operands"
            )));
        }
        if trunc_rows >= width {
            return Err(XlacError::InvalidConfiguration(format!(
                "truncating {trunc_rows} of {width} partial-product rows leaves none"
            )));
        }
        let netlist = Self::build(width, knob, knob_cols, trunc_cols, trunc_rows)?;
        let power_nw = netlist.switching_power(POWER_VECTORS, POWER_SEED);
        Ok(CompressorMultiplier {
            width,
            knob,
            knob_cols,
            trunc_cols,
            trunc_rows,
            netlist,
            power_nw,
        })
    }

    /// Builds the tree netlist: AND partial-product matrix, staged 4:2
    /// compression (descriptor cells inlined), then a ripple
    /// carry-propagate add of the two surviving rows.
    fn build(
        width: usize,
        knob: CompressKnob,
        knob_cols: usize,
        trunc_cols: usize,
        trunc_rows: usize,
    ) -> Result<Netlist> {
        let w = width;
        let cols = 2 * w;
        let mut nb = NetlistBuilder::new(format!("comptree_{w}x{w}_{}", knob.tag()), 2 * w);

        let exact_cell = cmp42();
        let ms_cell = cmp42_miscount();
        let or_cell = cmp42_or();

        // Partial products: a occupies inputs 0..w, b inputs w..2w (the
        // `pack_operands` convention shared with the word-adder
        // descriptors). Row j is `a · b_j`, so row truncation drops the
        // top multiplier bits of b.
        let mut columns: Vec<Vec<Signal>> = vec![Vec::new(); cols + 1];
        for i in 0..w {
            for j in 0..w - trunc_rows {
                if i + j < trunc_cols {
                    continue;
                }
                let pp = nb.gate(GateKind::And2, &[Signal::Input(i), Signal::Input(w + j)]);
                columns[i + j].push(pp);
            }
        }

        // Staged compression: each pass rewrites every column of height
        // > 2 into 4-groups (compressor cells), a 3-group (full adder)
        // or a closing 2-group (half adder); carries land one column up.
        // Every knob only drops mass, so the running total never exceeds
        // the exact product < 2^2w — any signal pushed past column
        // 2w - 1 is therefore logically constant 0 and safely dropped.
        while columns.iter().take(cols).any(|c| c.len() > 2) {
            let mut next: Vec<Vec<Signal>> = vec![Vec::new(); cols + 1];
            for (c, slot) in columns.iter_mut().enumerate().take(cols) {
                let col = std::mem::take(slot);
                let mut push = |cc: usize, s: Signal| {
                    if cc < cols && s != Signal::Const(false) {
                        next[cc].push(s);
                    }
                };
                if col.len() <= 2 {
                    for s in col {
                        push(c, s);
                    }
                    continue;
                }
                let mut idx = 0;
                while col.len() - idx >= 4 {
                    let g = &col[idx..idx + 4];
                    idx += 4;
                    let cell = if c < knob_cols { knob } else { CompressKnob::Exact };
                    let outs = match cell {
                        CompressKnob::Exact => nb.inline(
                            exact_cell.netlist(),
                            &[g[0], g[1], g[2], g[3], Signal::Const(false)],
                        ),
                        CompressKnob::Miscount => {
                            nb.inline(ms_cell.netlist(), &[g[0], g[1], g[2], g[3]])
                        }
                        CompressKnob::OrCompress => {
                            nb.inline(or_cell.netlist(), &[g[0], g[1], g[2], g[3]])
                        }
                    };
                    // Compressor encoding: sum weighs 1, carry and cout 2.
                    push(c, outs[0]);
                    push(c + 1, outs[1]);
                    push(c + 1, outs[2]);
                }
                match col.len() - idx {
                    3 => {
                        let (sum, carry) = full_add(&mut nb, col[idx], col[idx + 1], col[idx + 2]);
                        push(c, sum);
                        push(c + 1, carry);
                    }
                    2 => {
                        let sum = xor2(&mut nb, col[idx], col[idx + 1]);
                        let carry = and2(&mut nb, col[idx], col[idx + 1]);
                        push(c, sum);
                        push(c + 1, carry);
                    }
                    1 => push(c, col[idx]),
                    _ => {}
                }
            }
            columns = next;
        }

        // Final carry-propagate addition of the two surviving rows.
        let mut carry = Signal::Const(false);
        let mut outs = Vec::with_capacity(cols);
        for col in columns.iter().take(cols) {
            let r0 = col.first().copied().unwrap_or(Signal::Const(false));
            let r1 = col.get(1).copied().unwrap_or(Signal::Const(false));
            let (partial, g) = (xor2(&mut nb, r0, r1), and2(&mut nb, r0, r1));
            let sum = xor2(&mut nb, partial, carry);
            let p = and2(&mut nb, partial, carry);
            carry = or2(&mut nb, g, p);
            outs.push(sum);
        }
        for s in outs {
            nb.output(s);
        }
        nb.finish()
    }

    /// The compressor knob in force on the low columns.
    #[must_use]
    pub fn knob(&self) -> CompressKnob {
        self.knob
    }

    /// Number of low columns compressed with the knob cell.
    #[must_use]
    pub fn knob_columns(&self) -> usize {
        self.knob_cols
    }

    /// Number of truncated low product columns.
    #[must_use]
    pub fn truncated_columns(&self) -> usize {
        self.trunc_cols
    }

    /// Number of truncated top partial-product rows.
    #[must_use]
    pub fn truncated_rows(&self) -> usize {
        self.trunc_rows
    }

    /// The tree's materialized gate netlist (inputs `0..w` = operand a,
    /// `w..2w` = operand b, outputs = `2w` product bits LSB-first).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// `true` when every knob is neutral and the tree computes the exact
    /// product.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        (self.knob == CompressKnob::Exact || self.knob_cols == 0)
            && self.trunc_cols == 0
            && self.trunc_rows == 0
    }
}

impl Multiplier for CompressorMultiplier {
    fn width(&self) -> usize {
        self.width
    }

    fn mul(&self, a: u64, b: u64) -> u64 {
        let a = bits::truncate(a, self.width);
        let b = bits::truncate(b, self.width);
        self.netlist.eval(a | (b << self.width))
    }

    fn name(&self) -> String {
        let mut parts = Vec::new();
        if self.knob != CompressKnob::Exact && self.knob_cols > 0 {
            parts.push(format!("{}<{}", self.knob.tag(), self.knob_cols));
        }
        if self.trunc_cols > 0 {
            parts.push(format!("tc{}", self.trunc_cols));
        }
        if self.trunc_rows > 0 {
            parts.push(format!("tr{}", self.trunc_rows));
        }
        if parts.is_empty() {
            format!("CompTree(N={})", self.width)
        } else {
            format!("CompTree(N={},{})", self.width, parts.join(","))
        }
    }

    fn hw_cost(&self) -> HwCost {
        HwCost {
            area_ge: self.netlist.area_ge(),
            power_nw: self.power_nw,
            delay: self.netlist.delay(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::lanes;
    use xlac_core::rng::{DefaultRng, Rng};

    #[test]
    fn exact_tree_4x4_exhaustive() {
        let m = CompressorMultiplier::new(4, CompressKnob::Exact, 0, 0, 0).unwrap();
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(m.mul(a, b), a * b, "{a}x{b}");
            }
        }
    }

    #[test]
    fn exact_tree_8x8_exhaustive() {
        let m = CompressorMultiplier::new(8, CompressKnob::Exact, 0, 0, 0).unwrap();
        for a in 0u64..256 {
            for b in 0u64..256 {
                assert_eq!(m.mul(a, b), a * b, "{a}x{b}");
            }
        }
    }

    #[test]
    fn every_knob_only_drops_product_mass() {
        // All three knobs under-count, so the product never exceeds the
        // exact reference — the invariant that keeps tree signals inside
        // the 2w product columns.
        for knob in [CompressKnob::Exact, CompressKnob::Miscount, CompressKnob::OrCompress] {
            for (kc, tc, tr) in [(0, 0, 0), (6, 0, 0), (12, 2, 1), (16, 3, 2)] {
                let m = CompressorMultiplier::new(8, knob, kc, tc, tr).unwrap();
                for a in (0u64..256).step_by(5) {
                    for b in (0u64..256).step_by(3) {
                        assert!(m.mul(a, b) <= a * b, "{} overcounts {a}x{b}", m.name());
                    }
                }
            }
        }
    }

    #[test]
    fn column_truncation_confines_errors_to_low_bits() {
        let t = 3usize;
        let m = CompressorMultiplier::new(8, CompressKnob::Exact, 0, t, 0).unwrap();
        // The dropped mass is at most sum over truncated columns c of
        // (c + 1) partial bits at weight 2^c.
        let bound: u64 = (0..t as u64).map(|c| (c + 1) << c).sum();
        let mut worst = 0u64;
        for a in 0u64..256 {
            for b in 0u64..256 {
                worst = worst.max((a * b) - m.mul(a, b));
            }
        }
        assert!(worst > 0, "truncation must bite");
        assert!(worst <= bound, "worst {worst} exceeds dropped-mass bound {bound}");
    }

    #[test]
    fn row_truncation_matches_operand_masking() {
        // Dropping the top r partial-product rows is exactly a·(b mod 2^{w-r}).
        let r = 2usize;
        let m = CompressorMultiplier::new(6, CompressKnob::Exact, 0, 0, r).unwrap();
        for a in 0u64..64 {
            for b in 0u64..64 {
                assert_eq!(m.mul(a, b), a * (b & 0xF), "{a}x{b}");
            }
        }
    }

    #[test]
    fn miscount_knob_is_exact_until_a_compressor_fires() {
        // Knob columns without a 4-group (heights <= 3) compress with
        // exact FAs, so small knob_cols keep small products exact.
        let m = CompressorMultiplier::new(8, CompressKnob::Miscount, 2, 0, 0).unwrap();
        for a in 0u64..8 {
            for b in 0u64..8 {
                assert_eq!(m.mul(a, b), a * b, "{a}x{b}");
            }
        }
        // But the full-width knob does err somewhere.
        let wide = CompressorMultiplier::new(8, CompressKnob::Miscount, 16, 0, 0).unwrap();
        let biting = (0u64..256)
            .flat_map(|a| (0u64..256).map(move |b| (a, b)))
            .any(|(a, b)| wide.mul(a, b) != a * b);
        assert!(biting, "a full-width miscount tree must err");
    }

    #[test]
    fn netlist_word_evaluation_matches_scalar() {
        let mut rng = DefaultRng::seed_from_u64(0xC0117);
        for knob in [CompressKnob::Exact, CompressKnob::Miscount, CompressKnob::OrCompress] {
            let m = CompressorMultiplier::new(8, knob, 10, 1, 1).unwrap();
            let mut a_vals = [0u64; 64];
            let mut b_vals = [0u64; 64];
            for j in 0..64 {
                a_vals[j] = rng.gen::<u64>() & 0xFF;
                b_vals[j] = rng.gen::<u64>() & 0xFF;
            }
            let mut planes = lanes::to_planes(&a_vals, 8);
            planes.extend(lanes::to_planes(&b_vals, 8));
            let out = m.netlist().eval_words(&planes);
            for j in 0..64 {
                assert_eq!(lanes::lane(&out, j), m.mul(a_vals[j], b_vals[j]), "lane {j}");
            }
        }
    }

    #[test]
    fn knobs_cut_area_and_power() {
        let exact = CompressorMultiplier::new(8, CompressKnob::Exact, 0, 0, 0).unwrap();
        let or = CompressorMultiplier::new(8, CompressKnob::OrCompress, 16, 0, 0).unwrap();
        let trunc = CompressorMultiplier::new(8, CompressKnob::Exact, 0, 4, 0).unwrap();
        assert!(or.hw_cost().area_ge < exact.hw_cost().area_ge);
        assert!(or.hw_cost().power_nw < exact.hw_cost().power_nw);
        assert!(trunc.hw_cost().area_ge < exact.hw_cost().area_ge);
        assert!(exact.hw_cost().delay > 0.0);
    }

    #[test]
    fn validation() {
        assert!(CompressorMultiplier::new(1, CompressKnob::Exact, 0, 0, 0).is_err());
        assert!(CompressorMultiplier::new(9, CompressKnob::Exact, 0, 0, 0).is_err());
        assert!(CompressorMultiplier::new(8, CompressKnob::Exact, 17, 0, 0).is_err());
        assert!(CompressorMultiplier::new(8, CompressKnob::Exact, 0, 9, 0).is_err());
        assert!(CompressorMultiplier::new(8, CompressKnob::Exact, 0, 0, 8).is_err());
    }

    #[test]
    fn names() {
        let exact = CompressorMultiplier::new(8, CompressKnob::Exact, 0, 0, 0).unwrap();
        assert_eq!(exact.name(), "CompTree(N=8)");
        assert!(exact.is_exact());
        let m = CompressorMultiplier::new(8, CompressKnob::Miscount, 6, 2, 1).unwrap();
        assert_eq!(m.name(), "CompTree(N=8,ms<6,tc2,tr1)");
        assert!(!m.is_exact());
        // Exact-cell "knob columns" are still exact.
        let e2 = CompressorMultiplier::new(8, CompressKnob::Exact, 8, 0, 0).unwrap();
        assert_eq!(e2.name(), "CompTree(N=8)");
        assert!(e2.is_exact());
        for a in (0u64..256).step_by(7) {
            for b in (0u64..256).step_by(11) {
                assert_eq!(e2.mul(a, b), a * b);
            }
        }
    }
}
