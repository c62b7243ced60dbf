//! The compositional error calculus: certified multiplier error metrics
//! at widths the monolithic miter cannot reach (DESIGN.md §14).
//!
//! The monolithic approach — build the full `approx ⊕ exact` miter over
//! all `2w` operand variables and model-count it — inverts at density:
//! the Wallace 8×8 miter alone costs hundreds of thousands of BDD nodes,
//! and 16×16/32×32 are out of reach entirely. The calculus exploits the
//! *structure* of each family instead: each approximate region's error
//! depends only on a small *cone* of low operand bits, and one cone
//! enumerator runs every assignment of that cone over
//! [`CountingBlocks`], 64 lanes per block, and histograms the deviation
//! into an exact PMF. No decision diagram is built.
//!
//! * **Wallace** — reduction-cell deviations enter the product affinely
//!   (`result = exact + Σ 2^col·d_cell mod 2^{2w}`), and every
//!   approximate cell lives in the low `approx_cols` columns, so the
//!   *total* deviation word is a function of only the low operand bits.
//!   Replaying just the approximate prefix of the reduction on lane
//!   words over that small cone yields the **exact** deviation PMF at
//!   *any* width — 32×32 included — while the cone's assignments fit
//!   the budget.
//! * **Truncated** — the error `comp − D(a, b)` depends only on the low
//!   `min(dropped, w)` bits of each operand; the same cone enumeration
//!   applies and is again **exact at any width**.
//! * **Recursive** — the 2×2 leaf blocks sit on uniform digit fields, so
//!   their error PMFs (enumerated over the block's 16 operand pairs)
//!   are exact marginals. Disjoint-operand sub-products (`ll`/`hh` and
//!   `lh`/`hl`) convolve exactly; the remaining combinations share
//!   operand digits and combine as **certified intervals** whose mean
//!   stays exact by linearity of expectation. Internal adder deviations
//!   enter as distribution-free interval terms, mirroring the static
//!   layer's affine decomposition gate for gate.
//!
//! Every result is a [`CertifiedMetrics`]: either the exact error PMF
//! (WCE/MED/ER are then *proven values*) or a certified interval
//! (sound ceilings). Soundness is regression-audited against exhaustive
//! enumeration in the `calculus:` family of `symbolic::audit` and the
//! `tests/pmf_calculus.rs` property suite.

use std::collections::HashMap;

use xlac_adders::RippleCarryAdder;
use xlac_core::lanes::{from_planes, CountingBlocks, LANES};
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

use super::pmf::{ErrorInterval, ErrorModel, ErrorPmf};
use crate::bound::ErrorBound;
use crate::components::{cell_deviation, ripple_adder_bound};

/// Default ceiling on the operand assignments a Wallace cone enumeration
/// may visit (`2^(2·cone)`): cones of up to 10 columns are enumerated
/// exactly; a wider one degrades to the per-cell interval combination
/// before any work is done.
pub const DEFAULT_CONE_BUDGET: usize = 1 << 20;

/// Widest cone enumerated whatever the budget, in operand bits: keeps
/// every deviation accumulator within one 64-plane lane word.
const MAX_CONE_BITS: usize = 24;

/// Certified error metrics for one multiplier configuration: the error
/// model (`approx − exact`, wrap-adjusted) plus provenance.
#[derive(Debug, Clone)]
pub struct CertifiedMetrics {
    /// Configuration name (`Multiplier::name`).
    pub name: String,
    /// Operand width in bits.
    pub width: usize,
    /// The certified model of `approx(a, b) − a·b` under uniform inputs.
    pub model: ErrorModel,
}

impl CertifiedMetrics {
    /// `true` when the model is the exact error distribution, making
    /// [`wce_hi`](Self::wce_hi) / [`med_hi`](Self::med_hi) /
    /// [`er_hi`](Self::er_hi) proven values rather than ceilings.
    #[must_use]
    pub fn is_exact_distribution(&self) -> bool {
        self.model.is_exact_pmf()
    }

    /// The *proven* worst-case error, when the distribution is exact.
    #[must_use]
    pub fn exact_wce(&self) -> Option<u128> {
        self.model.pmf().map(ErrorPmf::wce)
    }

    /// Certified worst-case-error ceiling (exact value when
    /// [`is_exact_distribution`](Self::is_exact_distribution)).
    #[must_use]
    pub fn wce_hi(&self) -> u128 {
        self.model.interval().wce()
    }

    /// Certified mean-error-distance ceiling (exact value when the
    /// distribution is exact).
    #[must_use]
    pub fn med_hi(&self) -> f64 {
        self.model.interval().mean_abs_hi
    }

    /// Certified error-rate ceiling (exact value when the distribution is
    /// exact).
    #[must_use]
    pub fn er_hi(&self) -> f64 {
        self.model.interval().rate_hi
    }

    /// The metrics collapsed onto the static bound domain.
    #[must_use]
    pub fn to_error_bound(&self) -> ErrorBound {
        self.model.to_error_bound()
    }
}

// ---------------------------------------------------------------------
// The cone enumerator
// ---------------------------------------------------------------------

/// The exact PMF of a signed deviation that depends only on the low
/// `cone_w` bits of each operand, by enumerating all `2^(2·cone_w)`
/// assignments over [`CountingBlocks`], 64 lanes per block. Operand bit
/// `a_i` is input `2i` and `b_i` is input `2i + 1` (the
/// `interleaved_operand_vars` order). `deviation` maps one block's
/// operand planes (`a[i]` / `b[i]` hold bit `i` of every lane's operand)
/// to the 64 lane deviations. Below 6 inputs the lanes past `2^(2·cone_w)`
/// repeat live assignments and stay out of the histogram.
fn cone_pmf(cone_w: usize, mut deviation: impl FnMut(&[u64], &[u64]) -> [i128; LANES]) -> ErrorPmf {
    let n = 2 * cone_w;
    let counting = CountingBlocks::new(n);
    let live = counting.live().count_ones() as usize;
    let (mut a, mut b) = (vec![0u64; cone_w], vec![0u64; cone_w]);
    let mut hist: HashMap<i128, u128> = HashMap::new();
    for block in 0..counting.blocks() {
        for (i, (a_i, b_i)) in a.iter_mut().zip(&mut b).enumerate() {
            *a_i = CountingBlocks::plane(2 * i, block);
            *b_i = CountingBlocks::plane(2 * i + 1, block);
        }
        for &d in &deviation(&a, &b)[..live] {
            *hist.entry(d).or_insert(0) += 1;
        }
    }
    ErrorPmf::from_counts(hist, n as u32).expect("the enumeration counts every assignment once")
}

/// Output column `column` of a truth table (bit `x` is the output on row
/// `x`) evaluated on lane words by Shannon expansion on the row index,
/// input `i` bound to `inputs[i]`: the lane-word mirror of
/// `compile_truth_table`.
fn lut_word(column: u64, inputs: &[u64]) -> u64 {
    fn expand(column: u64, inputs: &[u64], level: usize, base: u32) -> u64 {
        if level == 0 {
            return 0u64.wrapping_sub((column >> base) & 1);
        }
        let lo = expand(column, inputs, level - 1, base);
        let hi = expand(column, inputs, level - 1, base + (1 << (level - 1)));
        let sel = inputs[level - 1];
        (sel & hi) | (!sel & lo)
    }
    expand(column, inputs, inputs.len(), 0)
}

/// Ripples the lane word `bit` into the plane accumulator `acc` at weight
/// `at` (the lane mirror of the scalar accumulate-with-carry walk).
fn ripple_into(acc: &mut [u64], at: usize, bit: u64) {
    let mut carry = bit;
    for slot in acc.iter_mut().skip(at) {
        if carry == 0 {
            return;
        }
        let s = *slot ^ carry;
        carry &= *slot;
        *slot = s;
    }
}

/// The exact signed error PMF of a 2×2 elementary block, by enumerating
/// its 16 operand pairs against the exact product.
#[must_use]
pub fn block_error_pmf(block: Mul2x2Kind) -> ErrorPmf {
    let tt = block.truth_table();
    let columns: Vec<u64> = (0..4).map(|out| tt.output_column(out)).collect();
    cone_pmf(2, |a, b| {
        let inputs = [a[0], a[1], b[0], b[1]];
        let product: Vec<u64> = columns.iter().map(|&col| lut_word(col, &inputs)).collect();
        let (p, x, y) = (from_planes(&product), from_planes(a), from_planes(b));
        std::array::from_fn(|l| i128::from(p[l]) - i128::from(x[l] * y[l]))
    })
}

/// Largest raw value a 2×2 block can emit.
fn mul2x2_max_value(block: Mul2x2Kind) -> u128 {
    (0..4u64).flat_map(|a| (0..4u64).map(move |b| block.mul(a, b))).max().unwrap_or(0) as u128
}

// ---------------------------------------------------------------------
// Wallace
// ---------------------------------------------------------------------

/// One approximate reduction cell of a compiled Wallace cone: its column
/// and the value slots of its inputs, sum and carry (slot 0 holds the
/// constant zero).
struct ConeCell {
    column: usize,
    inputs: [usize; 3],
    sum: usize,
    carry: usize,
}

/// The approximate prefix of the Wallace reduction as a straight-line
/// program over value slots. The full schedule is replayed structurally
/// once (column populations drive cell firing), but only columns below
/// `approx_cols` carry live slots — everything above is the inert zero
/// slot — so the program depends only on the `2·min(approx_cols, w)`
/// cone bits. Returns the partial products `(i, j)` held by slots
/// `1..=len` and the cells in firing order.
fn wallace_cone_program(m: &WallaceMultiplier) -> (Vec<(usize, usize)>, Vec<ConeCell>) {
    let w = m.width();
    let cols = 2 * w;
    let a_cols = m.approx_columns();
    let mut products = Vec::new();
    let mut columns: Vec<Vec<usize>> = vec![Vec::new(); cols + 1];
    for i in 0..w {
        for j in 0..w {
            let slot = if i + j < a_cols {
                products.push((i, j));
                products.len()
            } else {
                0
            };
            columns[i + j].push(slot);
        }
    }
    let mut next = products.len() + 1;
    let mut cells = Vec::new();
    // One cell in column `c` (a half adder's third input is the zero
    // slot); above the cone both outputs are inert.
    let mut reduce = |columns: &mut [Vec<usize>], c: usize, inputs: [usize; 3]| {
        if c >= a_cols {
            columns[c].push(0);
            columns[c + 1].push(0);
            return;
        }
        let (sum, carry) = (next, next + 1);
        next += 2;
        columns[c].push(sum);
        columns[c + 1].push(if c + 1 < a_cols { carry } else { 0 });
        cells.push(ConeCell { column: c, inputs, sum, carry });
    };
    loop {
        let mut reduced = false;
        for c in 0..cols {
            while columns[c].len() > 2 {
                reduced = true;
                let x = columns[c].pop().expect("len >= 3");
                let y = columns[c].pop().expect("len >= 2");
                let z = columns[c].pop().expect("len >= 1");
                reduce(&mut columns, c, [x, y, z]);
            }
            if columns[c].len() == 2 && columns[c + 1].len() > 2 {
                reduced = true;
                let x = columns[c].pop().expect("len 2");
                let y = columns[c].pop().expect("len 1");
                reduce(&mut columns, c, [x, y, 0]);
            }
        }
        if !reduced {
            break;
        }
    }
    (products, cells)
}

/// Runs the compiled Wallace cone over every cone assignment: returns the
/// exact PMF of the total deviation `Σ 2^col·d_cell`, plus the exact
/// maximum of the raw (pre-truncation) product value.
fn wallace_deviation_pmf(m: &WallaceMultiplier) -> (ErrorPmf, u128) {
    let w = m.width();
    let a_cols = m.approx_columns();
    let cone_w = a_cols.min(w);
    let tt = m.cell_kind().truth_table();
    let (sum_col, carry_col) = (tt.output_column(0), tt.output_column(1));
    let (products, cells) = wallace_cone_program(m);
    let mut values = vec![0u64; products.len() + 1 + 2 * cells.len()];

    // Deviation accumulators: Σ 2^col·(s + 2·cout) and Σ 2^col·(x + y + z)
    // over the approximate cells. Width margin: ≤ w² cells, each
    // contributing ≤ 6 at weight < 2^{a_cols+1}.
    let dev_width = a_cols + 16;
    let mut pos = vec![0u64; dev_width];
    let mut neg = vec![0u64; dev_width];

    // Exact wrap hazard: the raw product is a·b + D, and D depends only
    // on the low `cone_w` bits of each operand while a·b is monotone in
    // the high bits — so the maximum sits at all-ones high parts, with
    // the cone enumerated. That replaces the static layer's
    // `exact_max + Σ d_max` ceiling (which trips the hazard spuriously)
    // with the true maximum.
    let high = (1u128 << w) - (1u128 << cone_w);
    let mut raw_max = 0u128;

    let pmf = cone_pmf(cone_w, |a, b| {
        for (slot, &(i, j)) in values[1..].iter_mut().zip(&products) {
            *slot = a[i] & b[j];
        }
        pos.fill(0);
        neg.fill(0);
        for cell in &cells {
            let inputs = cell.inputs.map(|slot| values[slot]);
            let (s, carry) = (lut_word(sum_col, &inputs), lut_word(carry_col, &inputs));
            values[cell.sum] = s;
            values[cell.carry] = carry;
            ripple_into(&mut pos, cell.column, s);
            ripple_into(&mut pos, cell.column + 1, carry);
            for input in inputs {
                ripple_into(&mut neg, cell.column, input);
            }
        }
        let (pos, neg) = (from_planes(&pos), from_planes(&neg));
        let (x, y) = (from_planes(a), from_planes(b));
        std::array::from_fn(|l| {
            let d = i128::from(pos[l]) - i128::from(neg[l]);
            let raw = ((high + u128::from(x[l])) * (high + u128::from(y[l]))) as i128 + d;
            raw_max = raw_max.max(raw.max(0) as u128);
            d
        })
    });
    (pmf, raw_max)
}

/// Per-cell interval fallback: the deviation envelope from each cell's
/// truth table at its column weight, combined as a dependent sum —
/// essentially the static `wallace_bound` lifted into the interval
/// domain.
fn wallace_interval(m: &WallaceMultiplier) -> ErrorInterval {
    let mut env = ErrorInterval::ZERO;
    for p in m.cell_placements() {
        let d = cell_deviation(p.kind, p.half_adder);
        if d.d_max == 0 && d.d_min == 0 {
            continue;
        }
        let lo = i128::from(d.d_min) << p.column;
        let hi = i128::from(d.d_max) << p.column;
        // Cell inputs are internal (non-uniform) signals →
        // distribution-free mean bracket and rate.
        env = env.add(&ErrorInterval {
            lo,
            hi,
            mean_lo: lo as f64,
            mean_hi: hi as f64,
            mean_abs_hi: lo.unsigned_abs().max(hi.unsigned_abs()) as f64,
            rate_hi: 1.0,
        });
    }
    env
}

/// Certified error metrics for a Wallace-tree multiplier at any shipped
/// width (2..=32). Exact whenever the cone's `2^(2·min(approx_cols, w))`
/// operand assignments fit `budget` (`None` ⇒ [`DEFAULT_CONE_BUDGET`]);
/// the certified per-cell interval otherwise, decided before any
/// enumeration.
#[must_use]
pub fn wallace_calculus(m: &WallaceMultiplier, budget: Option<usize>) -> CertifiedMetrics {
    let w = m.width();
    let budget = budget.unwrap_or(DEFAULT_CONE_BUDGET);
    let no_deviation = m.approx_columns() == 0
        || m.cell_placements().iter().all(|p| {
            let d = cell_deviation(p.kind, p.half_adder);
            d.d_max == 0 && d.d_min == 0
        });
    let cone_bits = 2 * m.approx_columns().min(w);
    let enumerable = cone_bits <= MAX_CONE_BITS && 1usize << cone_bits <= budget;
    let exact_max = ((1u128 << w) - 1) * ((1u128 << w) - 1);
    let (model, raw_max) = if no_deviation {
        (ErrorModel::zero(), exact_max)
    } else if enumerable {
        let (pmf, raw_max) = wallace_deviation_pmf(m);
        (ErrorModel::Exact(pmf), raw_max)
    } else {
        let env = wallace_interval(m);
        let raw_max = exact_max.saturating_add(env.hi.max(0).unsigned_abs());
        (ErrorModel::Interval(env), raw_max)
    };
    // The reduction drops weight-2^{2w} bits and the CPA drops its
    // carry-out: together a plain wrap mod 2^{2w}, hazardous only when
    // the raw value can pass the ceiling.
    let wrapped = model.wrap_truncated(2 * w as u32, raw_max);
    CertifiedMetrics { name: m.name(), width: w, model: wrapped }
}

// ---------------------------------------------------------------------
// Truncated
// ---------------------------------------------------------------------

/// Number of partial products in column `c` of a `w × w` array.
fn column_population(c: usize, w: usize) -> u128 {
    (c + 1).min(w).min(2 * w - 1 - c) as u128
}

/// The exact PMF of `comp − D(a, b)` by enumerating the low
/// `2·min(dropped, w)` operand bits, plus the exact maximum of the raw
/// (pre-wrap) value `a·b − D + comp`. `D` depends only on the cone bits
/// while `a·b` is monotone in the high bits, so the maximum sits at
/// all-ones high parts, as in the Wallace cone pass.
fn truncated_error_pmf(m: &TruncatedMultiplier) -> (ErrorPmf, u128) {
    let w = m.width();
    let dropped = m.dropped_columns();
    let cone_w = dropped.min(w);
    let comp = i128::from(m.compensation());
    let high = (1u128 << w) - (1u128 << cone_w);
    let mut raw_max = 0u128;
    let mut acc = vec![0u64; dropped + 8];
    let pmf = cone_pmf(cone_w, |a, b| {
        acc.fill(0);
        for (i, &a_bit) in a.iter().enumerate() {
            for (j, &b_bit) in b.iter().enumerate().take(dropped.saturating_sub(i)) {
                ripple_into(&mut acc, i + j, a_bit & b_bit);
            }
        }
        let (d, x, y) = (from_planes(&acc), from_planes(a), from_planes(b));
        std::array::from_fn(|l| {
            let product = (high + u128::from(x[l])) * (high + u128::from(y[l]));
            let raw = product as i128 - i128::from(d[l]) + comp;
            raw_max = raw_max.max(raw.max(0) as u128);
            comp - i128::from(d[l])
        })
    });
    (pmf, raw_max)
}

/// Certified error metrics for a truncated multiplier at any shipped
/// width (1..=32). Exact whenever `min(dropped, w) ≤ 10` (the error is a
/// function of only that many low bits per operand, independent of the
/// operand width); a certified interval with an *exact mean* beyond.
#[must_use]
pub fn truncated_calculus(m: &TruncatedMultiplier) -> CertifiedMetrics {
    let w = m.width();
    let dropped = m.dropped_columns();
    let comp = u128::from(m.compensation());
    let k = dropped.min(w);
    let exact_max = ((1u128 << w) - 1) * ((1u128 << w) - 1);
    let (model, raw_max) = if dropped == 0 {
        (ErrorModel::zero(), exact_max)
    } else if k <= 10 {
        let (pmf, raw_max) = truncated_error_pmf(m);
        (ErrorModel::Exact(pmf), raw_max)
    } else {
        let max_dropped: i128 =
            (0..dropped.min(2 * w - 1)).map(|c| (column_population(c, w) << c) as i128).sum();
        let comp_i = comp as i128;
        // E[D] = Σ pop(c)·2^c / 4 exactly, by linearity — the mean stays
        // exact even where the full distribution is out of reach.
        let mean_dropped: f64 = (0..dropped.min(2 * w - 1))
            .map(|c| column_population(c, w) as f64 * 0.25 * (c as f64).exp2())
            .sum();
        let mean = comp_i as f64 - mean_dropped;
        let env = ErrorInterval {
            lo: comp_i - max_dropped,
            hi: comp_i,
            mean_lo: mean,
            mean_hi: mean,
            mean_abs_hi: (comp_i - max_dropped).unsigned_abs().max(comp_i.unsigned_abs()) as f64,
            rate_hi: 1.0,
        };
        (ErrorModel::Interval(env), exact_max.saturating_add(comp))
    };
    // The product wraps mod 2^{2w}: hazardous only when the raw value
    // can pass the ceiling.
    let wrapped = model.wrap_truncated(2 * w as u32, raw_max);
    CertifiedMetrics { name: m.name(), width: w, model: wrapped }
}

// ---------------------------------------------------------------------
// Recursive
// ---------------------------------------------------------------------

fn sum_mode_adder(width: usize, sum: SumMode) -> RippleCarryAdder {
    match sum {
        SumMode::Accurate => RippleCarryAdder::accurate(width),
        SumMode::ApproxLsbs { kind, lsbs } => {
            RippleCarryAdder::with_approx_lsbs(width, kind, lsbs.min(width))
                .expect("recursion widths are valid adder widths")
        }
    }
}

/// Distribution-free level fallback (overlapping sub-products): raw level
/// output below `2^{2w+1}`, exact product below `(2^w − 1)^2`.
fn trivial_level(w: usize) -> (ErrorModel, u128) {
    let max_val = (1u128 << (2 * w + 1)) - 1;
    let over = max_val as i128;
    let under = (((1u128 << w) - 1) * ((1u128 << w) - 1)) as i128;
    let model = ErrorModel::Interval(ErrorInterval {
        lo: -under,
        hi: over,
        mean_lo: -under as f64,
        mean_hi: over as f64,
        mean_abs_hi: over.max(under) as f64,
        rate_hi: 1.0,
    });
    (model, max_val)
}

/// One recursion level of the error walk: `(model, max_output_value)` for
/// a width-`w` sub-multiplier. Mirrors the scalar `mul_rec` composition:
/// `error = e_ll + 2^w·e_hh + 2^h·(e_lh + e_hl + dev_w) + dev_2w`.
fn recursive_level_model(w: usize, block: Mul2x2Kind, sum: SumMode) -> (ErrorModel, u128) {
    if w == 2 {
        return (ErrorModel::Exact(block_error_pmf(block)), mul2x2_max_value(block));
    }
    let h = w / 2;
    let (sub, m_h) = recursive_level_model(h, block, sum);
    // The affine decomposition needs every sub-product to fit in w bits
    // (no OR-overlap at the concatenation, no operand truncation at the
    // adders) — the same gate as the static layer.
    if m_h >= 1u128 << w {
        return trivial_level(w);
    }
    let bw = ripple_adder_bound(&sum_mode_adder(w, sum)).distribution_free();
    let b2w = ripple_adder_bound(&sum_mode_adder(2 * w, sum)).distribution_free();

    // ll/hh and lh/hl sit on disjoint operand digit fields → their PMFs
    // convolve exactly. The two groups share digits → dependent-interval
    // combine, whose mean bracket stays exact by linearity.
    let outer = sub.add_independent(&sub.shifted(w as u32));
    let mut mid = sub.add_independent(&sub);
    if !bw.is_exact() {
        // The mid adder sits on non-uniform sub-products →
        // distribution-free deviation term.
        mid = mid.add_dependent(&ErrorModel::Interval(ErrorInterval::from_bound(&bw)));
    }
    let mut total = outer.add_dependent(&mid.shifted(h as u32));
    if !b2w.is_exact() {
        total = total.add_dependent(&ErrorModel::Interval(ErrorInterval::from_bound(&b2w)));
    }

    let mid_max = ((1u128 << (w + 1)) - 1).min(2 * m_h + bw.over);
    let max_val =
        ((1u128 << (2 * w + 1)) - 1).min(m_h * (1 + (1u128 << w)) + (mid_max << h) + b2w.over);
    (total, max_val)
}

/// Certified error metrics for a recursively composed multiplier at any
/// shipped width (2..=32): exact 2×2 leaf PMFs pushed through the
/// recursion with exact convolution where operand cones are disjoint and
/// certified intervals (exact means under linearity) where they overlap.
#[must_use]
pub fn recursive_calculus(m: &RecursiveMultiplier) -> CertifiedMetrics {
    let w = m.width();
    let (model, max_val) = recursive_level_model(w, m.block(), m.sum_mode());
    let wrapped = model.wrap_truncated(2 * w as u32, max_val);
    CertifiedMetrics { name: m.name(), width: w, model: wrapped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::metrics::exhaustive_metrics;
    use xlac_adders::FullAdderKind;
    use xlac_multipliers::hw::wallace_netlist;

    /// Exhaustive signed-error histogram of `m` against `a·b`.
    fn enumerate_errors(m: &dyn Multiplier) -> HashMap<i128, u128> {
        let w = m.width();
        let mut hist = HashMap::new();
        for a in 0..1u64 << w {
            for b in 0..1u64 << w {
                let e = m.mul(a, b) as i128 - (a * b) as i128;
                *hist.entry(e).or_insert(0u128) += 1;
            }
        }
        hist
    }

    fn assert_pmf_matches(metrics: &CertifiedMetrics, m: &dyn Multiplier) {
        let pmf = metrics
            .model
            .pmf()
            .unwrap_or_else(|| panic!("{}: calculus should be exact at this width", metrics.name));
        let hist = enumerate_errors(m);
        let scale = 2 * m.width() as u32 - pmf.denom_bits();
        for (&v, &c) in &hist {
            assert_eq!(pmf.count_of(v) << scale, c, "{}: P[e = {v}] mismatch", metrics.name);
        }
        let support: u128 = pmf.support().iter().map(|&(_, c)| c).sum();
        assert_eq!(support, 1u128 << pmf.denom_bits());
        assert_eq!(pmf.support().len(), hist.len(), "{}: support size", metrics.name);
    }

    fn assert_interval_sound(metrics: &CertifiedMetrics, m: &dyn Multiplier) {
        let env = metrics.model.interval();
        let hist = enumerate_errors(m);
        let total: u128 = hist.values().sum();
        let mean: f64 = hist.iter().map(|(&v, &c)| v as f64 * c as f64).sum::<f64>() / total as f64;
        let mean_abs: f64 =
            hist.iter().map(|(&v, &c)| v.unsigned_abs() as f64 * c as f64).sum::<f64>()
                / total as f64;
        let rate: f64 = hist.iter().filter(|&(&v, _)| v != 0).map(|(_, &c)| c as f64).sum::<f64>()
            / total as f64;
        for &v in hist.keys() {
            assert!(env.lo <= v && v <= env.hi, "{}: error {v} outside envelope", metrics.name);
        }
        assert!(
            env.mean_lo <= mean + 1e-9 && mean <= env.mean_hi + 1e-9,
            "{}: mean {mean} outside [{}, {}]",
            metrics.name,
            env.mean_lo,
            env.mean_hi
        );
        assert!(mean_abs <= env.mean_abs_hi + 1e-9, "{}: mean_abs", metrics.name);
        assert!(rate <= env.rate_hi + 1e-9, "{}: rate", metrics.name);
    }

    #[test]
    fn block_pmfs_match_enumeration() {
        for block in Mul2x2Kind::ALL {
            let pmf = block_error_pmf(block);
            let mut hist: HashMap<i128, u128> = HashMap::new();
            for a in 0..4u64 {
                for b in 0..4u64 {
                    *hist.entry(block.mul(a, b) as i128 - (a * b) as i128).or_insert(0) += 1;
                }
            }
            assert_eq!(pmf.denom_bits(), 4);
            for (&v, &c) in &hist {
                assert_eq!(pmf.count_of(v), c, "{block:?} P[e = {v}]");
            }
        }
    }

    #[test]
    fn wallace_calculus_is_exact_at_small_widths() {
        for (w, kind, cols) in [
            (4, FullAdderKind::Apx2, 4),
            (4, FullAdderKind::Apx5, 6),
            (8, FullAdderKind::Apx2, 4),
            (8, FullAdderKind::Apx4, 8),
            (8, FullAdderKind::Apx5, 8),
        ] {
            let m = WallaceMultiplier::new(w, kind, cols).unwrap();
            let metrics = wallace_calculus(&m, None);
            assert_pmf_matches(&metrics, &m);
        }
    }

    #[test]
    fn wallace_calculus_handles_the_accurate_tree() {
        let m = WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).unwrap();
        let metrics = wallace_calculus(&m, None);
        assert_eq!(metrics.exact_wce(), Some(0));
        assert_eq!(metrics.er_hi(), 0.0);
    }

    #[test]
    fn wallace_budget_fallback_stays_sound() {
        let m = WallaceMultiplier::new(4, FullAdderKind::Apx5, 6).unwrap();
        // A 1-node budget forces the per-cell interval path.
        let metrics = wallace_calculus(&m, Some(1));
        assert!(!metrics.is_exact_distribution());
        assert_interval_sound(&metrics, &m);
        // The exact path must sit inside the fallback envelope.
        let exact = wallace_calculus(&m, None);
        assert!(exact.wce_hi() <= metrics.wce_hi());
    }

    #[test]
    fn truncated_calculus_is_exact_and_matches_enumeration() {
        // The last three cover both operands: exact only because the raw
        // maximum a·b − D + comp is taken in the cone pass.
        let configs = [
            (4, 2, false),
            (8, 4, true),
            (8, 6, true),
            (8, 6, false),
            (4, 7, true),
            (8, 9, true),
            (8, 15, true),
        ];
        for (w, dropped, comp) in configs {
            let m = TruncatedMultiplier::new(w, dropped, comp).unwrap();
            let metrics = truncated_calculus(&m);
            assert_pmf_matches(&metrics, &m);
        }
    }

    #[test]
    fn truncated_calculus_is_exact_at_full_width() {
        // The 32×32 truncated multiplier's error depends only on the low
        // dropped-columns bits: the calculus proves the exact PMF where
        // enumeration (2^64 pairs) and the monolithic miter (64 vars)
        // are both unreachable.
        let m = TruncatedMultiplier::new(32, 6, true).unwrap();
        let metrics = truncated_calculus(&m);
        assert!(metrics.is_exact_distribution());
        let pmf = metrics.model.pmf().unwrap();
        assert_eq!(pmf.denom_bits(), 12);
        // Spot-check against the scalar model on the error-relevant cone.
        let mut worst = 0u128;
        for a in 0..64u64 {
            for b in 0..64u64 {
                let e = (m.mul(a, b) as i128 - (a * b) as i128).unsigned_abs();
                worst = worst.max(e);
            }
        }
        assert_eq!(metrics.exact_wce(), Some(worst));
    }

    #[test]
    fn recursive_calculus_is_sound_at_small_widths() {
        let configs = [
            (Mul2x2Kind::ApxSoA, SumMode::Accurate),
            (Mul2x2Kind::ApxOur, SumMode::Accurate),
            (Mul2x2Kind::ApxOur, SumMode::ApproxLsbs { kind: FullAdderKind::Apx3, lsbs: 4 }),
        ];
        for (block, sum) in configs {
            for w in [4usize, 8] {
                let m = RecursiveMultiplier::new(w, block, sum).unwrap();
                let metrics = recursive_calculus(&m);
                assert_interval_sound(&metrics, &m);
            }
        }
    }

    #[test]
    fn recursive_leaf_is_the_exact_block_pmf() {
        let m = RecursiveMultiplier::new(2, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        let metrics = recursive_calculus(&m);
        assert_pmf_matches(&metrics, &m);
    }

    #[test]
    fn recursive_mean_is_exact_with_accurate_sums() {
        // With accurate internal adders every interval term vanishes, so
        // the mean bracket closes to the exact value by linearity.
        let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        let metrics = recursive_calculus(&m);
        let env = metrics.model.interval();
        assert!(
            (env.mean_hi - env.mean_lo).abs() < 1e-9,
            "mean bracket should be closed: [{}, {}]",
            env.mean_lo,
            env.mean_hi
        );
        let hist = enumerate_errors(&m);
        let total: u128 = hist.values().sum();
        let mean: f64 = hist.iter().map(|(&v, &c)| v as f64 * c as f64).sum::<f64>() / total as f64;
        assert!((mean - env.mean_lo).abs() < 1e-6, "exact mean {mean} vs {}", env.mean_lo);
    }

    #[test]
    fn wide_widths_get_certified_models() {
        // 16×16 and 32×32: previously impossible, now certified.
        for w in [16usize, 32] {
            let wal = WallaceMultiplier::new(w, FullAdderKind::Apx2, 8).unwrap();
            let metrics = wallace_calculus(&wal, None);
            assert!(metrics.is_exact_distribution(), "Wallace {w}×{w} exact");
            assert!(metrics.wce_hi() > 0);

            let rec = RecursiveMultiplier::new(
                w,
                Mul2x2Kind::ApxOur,
                SumMode::ApproxLsbs { kind: FullAdderKind::Apx1, lsbs: 2 },
            )
            .unwrap();
            let metrics = recursive_calculus(&rec);
            assert!(metrics.wce_hi() > 0);
            assert!(metrics.er_hi() <= 1.0);
        }
    }

    /// WCE, MED and ER of the calculus equal exhaustive enumeration of
    /// the Wallace netlist against the accurate tree.
    fn assert_matches_exhaustive(m: &WallaceMultiplier) {
        let accurate = WallaceMultiplier::new(m.width(), FullAdderKind::Accurate, 0).unwrap();
        let truth = exhaustive_metrics(&wallace_netlist(m), &wallace_netlist(&accurate)).unwrap();
        let metrics = wallace_calculus(m, None);
        let name = &metrics.name;
        assert!(metrics.is_exact_distribution(), "{name}: calculus should be exact");
        assert_eq!(metrics.wce_hi(), truth.worst_case_error, "{name}: WCE");
        let med = truth.mean_error_distance;
        assert!((metrics.med_hi() - med).abs() <= 1e-12 * med.max(1.0), "{name}: MED");
        assert!((metrics.er_hi() - truth.error_rate).abs() <= 1e-12, "{name}: ER");
    }

    #[test]
    fn wallace_calculus_matches_exhaustive_enumeration() {
        for kind in FullAdderKind::APPROXIMATE {
            for cols in 0..=11 {
                assert_matches_exhaustive(&WallaceMultiplier::new(6, kind, cols).unwrap());
            }
            // Every 8×8 cone is at most 16 bits, well inside the budget.
            for cols in [4, 8, 12, 15] {
                assert_matches_exhaustive(&WallaceMultiplier::new(8, kind, cols).unwrap());
            }
        }
    }

    #[test]
    fn cone_budget_is_exact_at_the_boundary_and_an_interval_past_it() {
        // 5 approximate columns: a 10-bit cone of 2^10 assignments.
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx5, 5).unwrap();
        assert!(wallace_calculus(&m, Some(1 << 10)).is_exact_distribution());
        assert!(!wallace_calculus(&m, Some((1 << 10) - 1)).is_exact_distribution());
        assert!(!wallace_calculus(&m, Some(1)).is_exact_distribution());
        // One operand bit more per operand: a 12-bit cone.
        let wider = WallaceMultiplier::new(8, FullAdderKind::Apx5, 6).unwrap();
        let fallback = wallace_calculus(&wider, Some(1 << 10));
        assert!(!fallback.is_exact_distribution());
        assert_interval_sound(&fallback, &wider);
        // The default budget: a 10-column cone is exact, an 11-column
        // cone falls back.
        let ten = WallaceMultiplier::new(12, FullAdderKind::Apx5, 10).unwrap();
        assert!(wallace_calculus(&ten, None).is_exact_distribution());
        let eleven = WallaceMultiplier::new(12, FullAdderKind::Apx5, 11).unwrap();
        assert!(!wallace_calculus(&eleven, None).is_exact_distribution());
    }

    #[test]
    fn truncated_calculus_is_exact_on_a_twenty_bit_cone() {
        // min(dropped, w) = 10: 2^20 enumerated assignments, the widest
        // cone the exact path takes. The cone covers both operands, so
        // the raw maximum a·b − D + comp is taken exactly and stays
        // below 2^20 with compensation on.
        let m = TruncatedMultiplier::new(10, 10, true).unwrap();
        let metrics = truncated_calculus(&m);
        assert_eq!(metrics.model.pmf().map(ErrorPmf::denom_bits), Some(20));
        assert_pmf_matches(&metrics, &m);
        let wide = truncated_calculus(&TruncatedMultiplier::new(16, 10, true).unwrap());
        assert_eq!(wide.model.pmf().map(ErrorPmf::denom_bits), Some(20));
    }
}
