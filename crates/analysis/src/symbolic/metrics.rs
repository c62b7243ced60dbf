//! Exact error metrics from the XOR-miter between two symbolic circuits.
//!
//! Given the output BDDs of an approximate circuit and its accurate
//! reference over the *same* input variables, every error statistic the
//! paper characterizes designs by is a (weighted) model-counting question
//! on the miter:
//!
//! * **error rate** — models of `∨_i (approx_i ⊕ exact_i)` over 2ⁿ;
//! * **per-bit flip probability** — models of each `approx_i ⊕ exact_i`;
//! * **mean error distance** — the signed difference `D = approx − exact`
//!   is built symbolically (two's-complement subtract, one guard bit),
//!   its absolute value taken with a sign mux, and `MED = Σ_k 2^k ·
//!   |{x : |D|(x) has bit k set}| / 2ⁿ` by counting each magnitude bit;
//! * **worst-case error** — a greedy MSB-down walk over the magnitude
//!   bits: keep the constraint set where every higher bit is pinned to
//!   its best achievable value, take bit k iff the constraint conjoined
//!   with bit k is satisfiable. The final constraint is non-empty and
//!   any satisfying assignment is a concrete witness input.
//!
//! Everything is exact integer/rational arithmetic on `u128` model
//! counts — no sampling, no floating-point accumulation error beyond the
//! final division into `f64` for the reported rates.
//!
//! [`exhaustive_metrics`] computes the same [`ExactMetrics`] without
//! BDDs for units with at most 16 primary inputs: both netlists are
//! compiled to bit-plane programs and run over every input assignment,
//! 512 per pass on `[u64; 8]` blocks. Each 64-lane word is reduced to
//! difference planes — the XOR planes, and from one borrow chain the sign
//! and `|approx − exact|` planes — and every statistic is read off them
//! without a transpose:
//!
//! * the error count is the popcount of the OR of the XOR planes, and
//!   each bit's flip count the popcount of its plane;
//! * the MED numerator is `Σ_k popcount(|D|_k) · 2^k`, an exact `u128`;
//! * over- and undershoot are MSB-first masked maxima of the magnitude
//!   planes under the two sign masks, the walk above applied to 64 lanes
//!   at once, and the witness is the lowest lane of the first word that
//!   reaches the worst case.
//!
//! It is the engine behind the bound audit; the BDD path stays the proof
//! engine and the oracle it is checked against.
//! [`exhaustive_metrics_under_each`] weights every assignment by the
//! probability of its two operands under each of several
//! [`InputDistribution`]s in that same enumeration: the weighted sums are
//! per lane, over one transpose of each word's magnitude planes, and
//! only the lane weights are taken per distribution. It is the exact leg
//! of `xlac-explore`'s per-distribution fronts;
//! [`exhaustive_metrics_under`] is its one-distribution case.

use xlac_core::dist::{DistPmf, InputDistribution};
use xlac_core::lanes::{from_planes, CountingBlocks};
use xlac_core::XlacError;
use xlac_logic::Netlist;
use xlac_sim::CompiledProgram;

use super::bdd::{Bdd, Ref, FALSE, TRUE};

/// Exact error statistics of an approximate circuit against its accurate
/// reference: by model counting on BDDs ([`exact_metrics`]) or by
/// exhaustive enumeration of compiled programs ([`exhaustive_metrics`],
/// weighted by [`exhaustive_metrics_under_each`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExactMetrics {
    /// Number of primary input bits (the model-count denominator is 2ⁿ).
    pub n_inputs: usize,
    /// Worst-case absolute error `max_x |approx(x) − exact(x)|`.
    pub worst_case_error: u128,
    /// One input assignment (packed over the BDD variables) that realizes
    /// the worst-case error.
    pub worst_case_witness: u64,
    /// Largest overshoot `max_x (approx(x) − exact(x))`, 0 when the
    /// circuit never overshoots.
    pub max_overshoot: u128,
    /// Largest undershoot `max_x (exact(x) − approx(x))`, 0 when the
    /// circuit never undershoots.
    pub max_undershoot: u128,
    /// Number of input assignments on which any output bit differs.
    pub error_count: u128,
    /// `error_count / 2^n_inputs`.
    pub error_rate: f64,
    /// `Σ_x |approx(x) − exact(x)| / 2^n_inputs`, exactly accumulated.
    pub mean_error_distance: f64,
    /// Per-output-bit probability that the bit differs from the
    /// reference (index = output bit position).
    pub bit_flip_probability: Vec<f64>,
}

impl ExactMetrics {
    /// `true` when the two circuits are the same function.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.error_count == 0
    }
}

/// Computes the full exact metric set for `approx` against `exact` over
/// `n_inputs` shared input variables. Output vectors may differ in
/// length; the shorter is zero-extended.
///
/// # Panics
///
/// Panics when `n_inputs` exceeds 64 (witness assignments are packed in
/// a `u64`) or an output word is wider than 127 bits.
pub fn exact_metrics(
    bdd: &mut Bdd,
    approx: &[Ref],
    exact: &[Ref],
    n_inputs: usize,
) -> ExactMetrics {
    assert!(n_inputs <= 64, "witness packing supports at most 64 inputs");
    let m = approx.len().max(exact.len());
    assert!(m < 127, "output word too wide for u128 error magnitudes");
    let denom = 2f64.powi(i32::try_from(n_inputs).expect("n_inputs <= 64"));

    let bit = |v: &[Ref], i: usize| v.get(i).copied().unwrap_or(FALSE);

    // Per-bit miters and the any-difference disjunction.
    let mut diff = Vec::with_capacity(m);
    let mut any = FALSE;
    for i in 0..m {
        let d = bdd.xor(bit(approx, i), bit(exact, i));
        any = bdd.or(any, d);
        diff.push(d);
    }
    let error_count = bdd.sat_count(any, n_inputs);
    let bit_flip_probability =
        diff.iter().map(|&d| count_to_rate(bdd.sat_count(d, n_inputs), denom)).collect();

    // Signed difference D = approx − exact over m + 1 bits
    // (two's-complement subtract with one guard bit; the top bit is the
    // sign, valid because |D| < 2^m).
    let mut d_bits = Vec::with_capacity(m + 1);
    let mut carry = TRUE; // the +1 of the two's complement of `exact`
    for i in 0..=m {
        let (ai, ei) = (bit(approx, i), bit(exact, i));
        let nei = bdd.not(ei);
        let axe = bdd.xor(ai, nei);
        d_bits.push(bdd.xor(axe, carry));
        let gen = bdd.and(ai, nei);
        let prop = bdd.and(axe, carry);
        carry = bdd.or(gen, prop);
    }
    let sign = d_bits[m];

    // |D|: conditional two's-complement negation under the sign.
    let mut abs = Vec::with_capacity(m);
    let mut neg_carry = TRUE;
    for &di in d_bits.iter().take(m) {
        let ndi = bdd.not(di);
        let neg_i = bdd.xor(ndi, neg_carry);
        neg_carry = bdd.and(ndi, neg_carry);
        abs.push(bdd.mux(sign, di, neg_i));
    }

    // MED: each magnitude bit contributes 2^k per model.
    let mut med_num: u128 = 0;
    for (k, &ak) in abs.iter().enumerate() {
        med_num += bdd.sat_count(ak, n_inputs) << k;
    }
    let mean_error_distance = count_to_rate(med_num, denom);

    let not_sign = bdd.not(sign);
    let (worst_case_error, witness) = maximize(bdd, &abs, TRUE);
    let (max_overshoot, _) = maximize(bdd, &abs, not_sign);
    let (max_undershoot, _) = maximize(bdd, &abs, sign);

    ExactMetrics {
        n_inputs,
        worst_case_error,
        worst_case_witness: witness,
        max_overshoot,
        max_undershoot,
        error_count,
        error_rate: count_to_rate(error_count, denom),
        mean_error_distance,
        bit_flip_probability,
    }
}

/// Maximizes the unsigned word `bits` over the satisfying set of
/// `constraint` by the greedy MSB-down walk. Returns `(max, witness)`;
/// when `constraint` is unsatisfiable the maximum is 0 with witness 0
/// (the natural reading: no assignment, no error contribution).
fn maximize(bdd: &mut Bdd, bits: &[Ref], constraint: Ref) -> (u128, u64) {
    if constraint == FALSE {
        return (0, 0);
    }
    let mut c = constraint;
    let mut value: u128 = 0;
    for (k, &bk) in bits.iter().enumerate().rev() {
        let with_bit = bdd.and(c, bk);
        if with_bit == FALSE {
            let nbk = bdd.not(bk);
            c = bdd.and(c, nbk);
        } else {
            value |= 1u128 << k;
            c = with_bit;
        }
    }
    let witness = bdd.any_sat(c).expect("constraint stays satisfiable through the walk");
    (value, witness)
}

/// Most primary inputs [`exhaustive_metrics`] enumerates (2¹⁶
/// assignments, 128 passes of 512).
pub const EXHAUSTIVE_MAX_INPUTS: usize = 16;

/// 64-lane words per enumeration pass: both programs run on `[u64; 8]`
/// blocks, 512 assignments at a time.
const PASS_WORDS: usize = 8;

/// A program's outputs over one 512-lane pass: entry `i` is output `i`'s
/// `[u64; 8]` block.
type Planes = [[u64; PASS_WORDS]];

/// `approx − exact` on one 64-lane word of an exhaustive enumeration,
/// assignments `base .. base + 64`, as bit planes over the live lanes.
/// The subtraction's borrow chain over the zero-extended words yields the
/// signed difference and, out of its top bit, the sign; a two's-complement
/// negation under the sign turns the difference into its magnitude.
pub(crate) struct Difference {
    /// The assignment of lane 0.
    pub(crate) base: u64,
    /// Number of compared output bits (the longer word).
    width: usize,
    /// `flips[k]`: lanes where output bit `k` differs.
    flips: [u64; 64],
    /// Lanes where any output bit differs.
    pub(crate) any: u64,
    /// Lanes where `approx < exact`: the borrow out of the top bit.
    under: u64,
    /// `abs[k]`: lanes where bit `k` of `|approx − exact|` is set.
    abs: [u64; 64],
}

impl Difference {
    /// Word `k` of both programs' output planes, on the `live` lanes;
    /// `None` when no live lane differs.
    fn of(approx: &Planes, exact: &Planes, k: usize, live: u64, base: u64) -> Option<Difference> {
        let width = approx.len().max(exact.len());
        let plane = |word: &Planes, i: usize| word.get(i).map_or(0, |p| p[k]) & live;
        if (0..width).all(|i| plane(approx, i) == plane(exact, i)) {
            return None;
        }
        let (mut flips, mut abs) = ([0u64; 64], [0u64; 64]);
        let (mut any, mut borrow) = (0u64, 0u64);
        for i in 0..width {
            let (a, e) = (plane(approx, i), plane(exact, i));
            let x = a ^ e;
            flips[i] = x;
            any |= x;
            abs[i] = x ^ borrow;
            borrow = (!a & e) | (!x & borrow);
        }
        // |d| = −d where the subtraction borrowed: the negation keeps a
        // lane's bits up to its lowest set bit and flips every bit above.
        let mut lower = 0u64;
        for plane in &mut abs[..width] {
            let d = *plane;
            *plane = d ^ (borrow & lower);
            lower |= d;
        }
        Some(Difference { base, width, flips, any, under: borrow, abs })
    }

    /// The largest `|approx − exact|` over the lanes of `mask` and the
    /// lanes that reach it, by an MSB-first walk: a bit is taken when a
    /// remaining lane has it set, and the lanes without it drop out.
    fn max_over(&self, mut mask: u64) -> (u64, u64) {
        let mut value = 0u64;
        for k in (0..self.width).rev() {
            let hit = mask & self.abs[k];
            if hit != 0 {
                value |= 1 << k;
                mask = hit;
            }
        }
        (value, mask)
    }

    /// The largest overshoot (`approx > exact`) and undershoot over the
    /// lanes of `mask`, each as `(value, lanes reaching it)`.
    pub(crate) fn extremes(&self, mask: u64) -> ((u64, u64), (u64, u64)) {
        (self.max_over(mask & !self.under), self.max_over(mask & self.under))
    }

    /// Every lane's `|approx − exact|`: the magnitude planes transposed.
    pub(crate) fn magnitudes(&self) -> [u64; 64] {
        from_planes(&self.abs[..self.width])
    }
}

/// Runs both programs over all `2^n` assignments of their shared `n`
/// inputs, 512 per pass on `[u64; 8]` blocks, and visits the
/// [`Difference`] of every 64-lane word with a differing lane, in
/// ascending assignment order: lane `l` of word `w` is input assignment
/// `64·w + l` in [`Netlist::eval`] packing (input `i` in bit `i`), word
/// `w` being [`CountingBlocks`] block `w`. Words past `2^(n − 6)` (when
/// `n < 9`) are not enumerated, and lanes past `2^n` (when `n < 6`) are
/// masked out.
///
/// The caller guarantees the shared input arity, `n < 64` and at most 64
/// outputs per program.
pub(crate) fn for_each_difference(
    approx: &CompiledProgram,
    exact: &CompiledProgram,
    mut visit: impl FnMut(&Difference),
) {
    let n = approx.n_inputs();
    debug_assert_eq!(exact.n_inputs(), n, "callers check the input arity");
    let counting = CountingBlocks::new(n);
    let (live, words) = (counting.live(), counting.blocks());
    let mut planes = vec![[0u64; PASS_WORDS]; n];
    let (mut regs_a, mut out_a, mut regs_e, mut out_e) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for first in (0..words).step_by(PASS_WORDS) {
        for (i, plane) in planes.iter_mut().enumerate() {
            *plane = std::array::from_fn(|k| CountingBlocks::plane(i, first + k as u64));
        }
        approx.run_into(&planes, &mut regs_a, &mut out_a);
        exact.run_into(&planes, &mut regs_e, &mut out_e);
        for k in 0..PASS_WORDS.min((words - first) as usize) {
            if let Some(diff) = Difference::of(&out_a, &out_e, k, live, (first + k as u64) << 6) {
                visit(&diff);
            }
        }
    }
}

/// The running sums and extremes of one metric set: counts and weight
/// sums are exact integers, divided once by [`Tally::finish`].
#[derive(Clone)]
struct Tally {
    flips: Vec<u128>,
    error_count: u128,
    error_weight: u128,
    med_num: u128,
    wce: u64,
    witness: u64,
    over: u64,
    under: u64,
}

impl Tally {
    fn new(width: usize) -> Tally {
        Tally {
            flips: vec![0; width],
            error_count: 0,
            error_weight: 0,
            med_num: 0,
            wce: 0,
            witness: 0,
            over: 0,
            under: 0,
        }
    }

    /// Adds one word under uniform weights: every sum is a popcount, the
    /// MED numerator `Σ_k popcount(|d|_k) · 2^k`.
    fn add_uniform(&mut self, diff: &Difference) {
        let errors = u128::from(diff.any.count_ones());
        self.error_count += errors;
        self.error_weight += errors;
        for (flip, plane) in self.flips.iter_mut().zip(&diff.flips) {
            *flip += u128::from(plane.count_ones());
        }
        for (k, plane) in diff.abs[..diff.width].iter().enumerate() {
            self.med_num += u128::from(plane.count_ones()) << k;
        }
        self.add_extremes(diff, diff.any);
    }

    /// Adds one word with lane `l` weighing `weights[l]`; `support` holds
    /// the lanes of non-zero weight, and only they count towards the
    /// error count and the extremes. `magnitudes[l]` is lane `l`'s
    /// `|approx − exact|`.
    fn add_weighted(
        &mut self,
        diff: &Difference,
        weights: &[u128; 64],
        support: u64,
        magnitudes: &[u64; 64],
    ) {
        let mask = diff.any & support;
        if mask == 0 {
            return;
        }
        let sum = |lanes: u64| set_lanes(lanes).map(|l| weights[l]).sum::<u128>();
        self.error_count += u128::from(mask.count_ones());
        self.error_weight += sum(mask);
        for (flip, &plane) in self.flips.iter_mut().zip(&diff.flips) {
            *flip += sum(plane);
        }
        self.med_num +=
            set_lanes(mask).map(|l| weights[l] * u128::from(magnitudes[l])).sum::<u128>();
        self.add_extremes(diff, mask);
    }

    /// Folds in the extremes over the lanes of `mask`: the over- and
    /// undershoot are masked maxima under the two signs, and the witness
    /// of a new worst case is the lowest lane that reaches it, so over
    /// ascending words it is the lowest such assignment.
    fn add_extremes(&mut self, diff: &Difference, mask: u64) {
        let ((over, over_lanes), (under, under_lanes)) = diff.extremes(mask);
        self.over = self.over.max(over);
        self.under = self.under.max(under);
        let top = over.max(under);
        if top > self.wce {
            let reach = if over == top { over_lanes } else { 0 }
                | if under == top { under_lanes } else { 0 };
            self.wce = top;
            self.witness = diff.base | u64::from(reach.trailing_zeros());
        }
    }

    /// The metric set of `n_inputs` inputs, every sum divided by
    /// `2^log2_total`.
    fn finish(self, n_inputs: usize, log2_total: u32) -> ExactMetrics {
        let denom = f64::from(log2_total).exp2();
        ExactMetrics {
            n_inputs,
            worst_case_error: u128::from(self.wce),
            worst_case_witness: self.witness,
            max_overshoot: u128::from(self.over),
            max_undershoot: u128::from(self.under),
            error_count: self.error_count,
            error_rate: count_to_rate(self.error_weight, denom),
            mean_error_distance: count_to_rate(self.med_num, denom),
            bit_flip_probability: self.flips.iter().map(|&c| count_to_rate(c, denom)).collect(),
        }
    }
}

/// Checks that a pair fits the exhaustive engine and returns its
/// compared word width.
fn compared_width(approx: &Netlist, exact: &Netlist) -> Result<usize, XlacError> {
    let n = approx.n_inputs();
    if exact.n_inputs() != n {
        return Err(XlacError::InvalidConfiguration(format!(
            "exhaustive metrics: input arity mismatch ({n} vs {})",
            exact.n_inputs()
        )));
    }
    if n > EXHAUSTIVE_MAX_INPUTS {
        return Err(XlacError::InvalidWidth { width: n, max: EXHAUSTIVE_MAX_INPUTS });
    }
    let m = approx.n_outputs().max(exact.n_outputs());
    if m > 64 {
        return Err(XlacError::InvalidConfiguration(format!(
            "exhaustive metrics: {m} compared outputs exceed a 64-bit word"
        )));
    }
    Ok(m)
}

/// The exact metric set of `approx` against `exact` by exhaustive
/// compiled enumeration: both netlists are compiled to bit-plane programs
/// and run over all `2^n` input assignments, 512 lanes per pass, and each
/// 64-lane word is reduced to difference planes whose popcounts and
/// masked maxima are the metrics. Every field equals [`exact_metrics`] on
/// the same pair except the witness, which here is the lowest input
/// assignment (in [`Netlist::eval`] packing) that reaches the worst-case
/// error. Output words may differ in length; the shorter is
/// zero-extended.
///
/// # Errors
///
/// [`XlacError::InvalidConfiguration`] when the two netlists differ in
/// input arity or either has more than 64 outputs;
/// [`XlacError::InvalidWidth`] above [`EXHAUSTIVE_MAX_INPUTS`] inputs.
pub fn exhaustive_metrics(approx: &Netlist, exact: &Netlist) -> Result<ExactMetrics, XlacError> {
    let mut tally = Tally::new(compared_width(approx, exact)?);
    let n = approx.n_inputs();
    let (approx, exact) = (CompiledProgram::compile(approx), CompiledProgram::compile(exact));
    for_each_difference(&approx, &exact, |diff| tally.add_uniform(diff));
    Ok(tally.finish(n, n as u32))
}

/// [`exhaustive_metrics`] with the inputs read as two operands drawn
/// independently from `dist`: inputs `0..w` are operand `a`, inputs
/// `w..2w` operand `b`, and assignment `a | b << w` weighs
/// `pmf[a] · pmf[b]` ([`InputDistribution::pmf`] at width `w`). The error
/// rate, mean error distance and bit-flip probabilities are weighted
/// (integer weight sums, divided once); the worst-case error, witness,
/// over- and undershoot and `error_count` are taken over the assignments
/// of non-zero weight. Under [`InputDistribution::Uniform`] every field
/// equals [`exhaustive_metrics`]. The one-distribution case of
/// [`exhaustive_metrics_under_each`].
///
/// # Errors
///
/// [`XlacError::InvalidConfiguration`] on an odd input count, an input
/// arity mismatch or more than 64 outputs; [`XlacError::InvalidWidth`]
/// when the operand width `w` is zero or above
/// [`xlac_core::dist::MAX_PMF_WIDTH`].
pub fn exhaustive_metrics_under(
    approx: &Netlist,
    exact: &Netlist,
    dist: InputDistribution,
) -> Result<ExactMetrics, XlacError> {
    let mut each = exhaustive_metrics_under_each(approx, exact, &[dist])?;
    Ok(each.pop().expect("one metric set per distribution"))
}

/// [`exhaustive_metrics_under`] for every distribution of `dists`, in
/// order, from one enumeration: the programs run and each word's
/// magnitude planes are transposed once, and only the per-lane operand
/// weights are taken per distribution. Weighted sums stay below `2^128`:
/// the shipped PMFs' weights total at most `2^64` and every distance is
/// below `2^64`.
///
/// # Errors
///
/// As [`exhaustive_metrics_under`], for the first distribution that
/// fails.
pub fn exhaustive_metrics_under_each(
    approx: &Netlist,
    exact: &Netlist,
    dists: &[InputDistribution],
) -> Result<Vec<ExactMetrics>, XlacError> {
    let n = approx.n_inputs();
    if n % 2 == 1 {
        return Err(XlacError::InvalidConfiguration(format!(
            "exhaustive metrics: {n} inputs do not split into two operands"
        )));
    }
    let pmfs = dists.iter().map(|dist| dist.pmf(n / 2)).collect::<Result<Vec<DistPmf>, _>>()?;
    let mut tallies = vec![Tally::new(compared_width(approx, exact)?); pmfs.len()];
    let mut weights = [0u128; 64];
    let (approx, exact) = (CompiledProgram::compile(approx), CompiledProgram::compile(exact));
    for_each_difference(&approx, &exact, |diff| {
        let magnitudes = diff.magnitudes();
        for (pmf, tally) in pmfs.iter().zip(&mut tallies) {
            let support = operand_weights(pmf, diff.base, &mut weights);
            tally.add_weighted(diff, &weights, support, &magnitudes);
        }
    });
    Ok(pmfs.iter().zip(tallies).map(|(pmf, tally)| tally.finish(n, 2 * pmf.shift)).collect())
}

/// Sets `weights[l]` to the weight `pmf[a] · pmf[b]` of assignment
/// `base + l = a | b << w` (zero past `2^(2w)`) and returns the lanes of
/// non-zero weight.
fn operand_weights(pmf: &DistPmf, base: u64, weights: &mut [u128; 64]) -> u64 {
    let of = |v: u64| pmf.weights.get(v as usize).copied().unwrap_or(0);
    let mut support = 0u64;
    for (l, weight) in (0u64..).zip(weights.iter_mut()) {
        let x = base | l;
        *weight = of(x & ((1 << pmf.width) - 1)) * of(x >> pmf.width);
        support |= u64::from(*weight != 0) << l;
    }
    support
}

/// The indices of the set bits of `mask`, ascending.
pub(crate) fn set_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

fn count_to_rate(count: u128, denom: f64) -> f64 {
    // u128 → f64 is lossy above 2^53; the denominators here are ≤ 2^64
    // and the rates are reported, not accumulated, so nearest-f64 is the
    // right rounding.
    #[allow(clippy::cast_precision_loss)]
    let c = count as f64;
    c / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::compile::{compile_truth_table, interleaved_operand_vars};
    use crate::symbolic::twins;
    use xlac_adders::hw::ripple_netlist;
    use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder};
    use xlac_multipliers::Mul2x2Kind;

    /// Brute-force reference for a scalar function pair.
    fn brute(
        n_inputs: usize,
        approx: impl Fn(u64) -> u64,
        exact: impl Fn(u64) -> u64,
    ) -> (u128, u128, u128, u128, u128) {
        let (mut wce, mut over, mut under, mut errs, mut med) = (0u128, 0u128, 0u128, 0u128, 0u128);
        for x in 0..(1u64 << n_inputs) {
            let (av, ev) = (approx(x), exact(x));
            if av != ev {
                errs += 1;
            }
            let (d, o) = if av >= ev { (av - ev, true) } else { (ev - av, false) };
            let d = u128::from(d);
            wce = wce.max(d);
            if o {
                over = over.max(d);
            } else {
                under = under.max(d);
            }
            med += d;
        }
        (wce, over, under, errs, med)
    }

    #[test]
    fn mul2x2_metrics_match_enumeration() {
        for kind in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
            let mut bdd = Bdd::new();
            let vars: Vec<Ref> = (0..4).map(|i| bdd.var(i)).collect();
            let att = kind.truth_table();
            let ett = Mul2x2Kind::Accurate.truth_table();
            let a = compile_truth_table(&mut bdd, &att, &vars);
            let e = compile_truth_table(&mut bdd, &ett, &vars);
            let m = exact_metrics(&mut bdd, &a, &e, 4);
            let (wce, over, under, errs, med) =
                brute(4, |x| kind.mul(x & 3, (x >> 2) & 3), |x| (x & 3) * ((x >> 2) & 3));
            assert_eq!(m.worst_case_error, wce, "{kind} wce");
            assert_eq!(m.max_overshoot, over, "{kind} over");
            assert_eq!(m.max_undershoot, under, "{kind} under");
            assert_eq!(m.error_count, errs, "{kind} errors");
            #[allow(clippy::cast_precision_loss)]
            let med_f = med as f64 / 16.0;
            assert!((m.mean_error_distance - med_f).abs() < 1e-12, "{kind} med");
            // The witness must actually realize the worst case.
            let (av, ev) = (
                kind.mul(m.worst_case_witness & 3, (m.worst_case_witness >> 2) & 3),
                (m.worst_case_witness & 3) * ((m.worst_case_witness >> 2) & 3),
            );
            assert_eq!(u128::from(av.abs_diff(ev)), m.worst_case_error, "{kind} witness");

            // The exhaustive engine: same numbers, and its witness packs
            // the netlist inputs `a0 a1 b0 b1` like the brute force.
            let e = exhaustive_metrics(&kind.netlist(), &Mul2x2Kind::Accurate.netlist()).unwrap();
            assert_eq!(e.worst_case_error, wce, "{kind} engine wce");
            assert_eq!(e.max_overshoot, over, "{kind} engine over");
            assert_eq!(e.max_undershoot, under, "{kind} engine under");
            assert_eq!(e.error_count, errs, "{kind} engine errors");
            assert_eq!(e.mean_error_distance.to_bits(), med_f.to_bits(), "{kind} engine med");
            let x = e.worst_case_witness;
            let d = kind.mul(x & 3, (x >> 2) & 3).abs_diff((x & 3) * ((x >> 2) & 3));
            assert_eq!(u128::from(d), wce, "{kind} engine witness");
        }
    }

    #[test]
    fn ripple_metrics_match_enumeration() {
        let w = 4;
        let rca = RippleCarryAdder::with_approx_lsbs(w, FullAdderKind::Apx2, 2).unwrap();
        let acc = RippleCarryAdder::accurate(w);
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, w);
        let approx = twins::ripple_adder(&mut bdd, &rca, &a, &b);
        let exact = twins::ripple_adder(&mut bdd, &acc, &a, &b);
        let m = exact_metrics(&mut bdd, &approx, &exact, 2 * w);
        let unpack = |x: u64| {
            (0..w).fold((0u64, 0u64), |(a, b), i| {
                (a | (((x >> (2 * i)) & 1) << i), b | (((x >> (2 * i + 1)) & 1) << i))
            })
        };
        let (wce, over, under, errs, _) = brute(
            2 * w,
            |x| {
                let (av, bv) = unpack(x);
                rca.add(av, bv)
            },
            |x| {
                let (av, bv) = unpack(x);
                av + bv
            },
        );
        assert_eq!(m.worst_case_error, wce);
        assert_eq!(m.max_overshoot, over);
        assert_eq!(m.max_undershoot, under);
        assert_eq!(m.error_count, errs);
        assert_eq!(m.bit_flip_probability.len(), w + 1);

        // The exhaustive engine on the same adders' netlists (operand `a`
        // in the low input bits): same metrics, a witness that realises
        // the WCE.
        let e = exhaustive_metrics(&ripple_netlist(&rca), &ripple_netlist(&acc)).unwrap();
        assert_eq!(
            ExactMetrics { worst_case_witness: 0, ..e.clone() },
            ExactMetrics { worst_case_witness: 0, ..m }
        );
        let (av, bv) = (e.worst_case_witness & 0xF, e.worst_case_witness >> w);
        assert_eq!(u128::from(rca.add(av, bv).abs_diff(av + bv)), wce);
    }

    #[test]
    fn exhaustive_engine_rejects_mismatched_and_oversized_pairs() {
        let fa = FullAdderKind::Accurate.structural_netlist();
        let mul2x2 = Mul2x2Kind::Accurate.netlist();
        assert!(matches!(
            exhaustive_metrics(&fa, &mul2x2),
            Err(XlacError::InvalidConfiguration(msg)) if msg.contains("arity")
        ));

        let wide = ripple_netlist(&RippleCarryAdder::accurate(9));
        assert_eq!(
            exhaustive_metrics(&wide, &wide),
            Err(XlacError::InvalidWidth { width: 18, max: EXHAUSTIVE_MAX_INPUTS })
        );

        // 65 outputs, each a copy of the single input.
        let mut b = xlac_logic::NetlistBuilder::new("fanout65", 1);
        for _ in 0..65 {
            b.output(xlac_logic::Signal::Input(0));
        }
        let fanout = b.finish().unwrap();
        assert!(matches!(
            exhaustive_metrics(&fanout, &fanout),
            Err(XlacError::InvalidConfiguration(msg)) if msg.contains("64")
        ));
    }

    #[test]
    fn exhaustive_engine_zero_extends_the_shorter_word_and_masks_dead_lanes() {
        // 3 inputs: only 8 of the 64 lanes are live. The approximate cell
        // drops its carry output, so the exact word is one bit wider.
        let exact = FullAdderKind::Accurate.structural_netlist();
        let mut b = xlac_logic::NetlistBuilder::new("sum_only", 3);
        let ins: Vec<xlac_logic::Signal> = (0..3).map(xlac_logic::Signal::Input).collect();
        let sum = b.inline(&exact, &ins)[0];
        b.output(sum);
        let approx = b.finish().unwrap();
        let e = exhaustive_metrics(&approx, &exact).unwrap();
        // The carry is set on 4 of the 8 assignments, each an undershoot
        // of exactly 2.
        assert_eq!(e.error_count, 4);
        assert_eq!(e.worst_case_error, 2);
        assert_eq!((e.max_overshoot, e.max_undershoot), (0, 2));
        assert_eq!(e.error_rate, 0.5);
        assert_eq!(e.mean_error_distance, 1.0);
        assert_eq!(e.bit_flip_probability, vec![0.0, 0.5]);
        assert_eq!(e.worst_case_witness, 0b011, "lowest assignment with a carry");
    }

    #[test]
    fn identical_circuits_have_zero_metrics() {
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..3).map(|i| bdd.var(i)).collect();
        let tt = FullAdderKind::Accurate.truth_table();
        let f = compile_truth_table(&mut bdd, &tt, &vars);
        let g = compile_truth_table(&mut bdd, &tt, &vars);
        let m = exact_metrics(&mut bdd, &f, &g, 3);
        assert!(m.is_exact());
        assert_eq!(m.worst_case_error, 0);
        assert_eq!(m.error_rate, 0.0);
        assert_eq!(m.mean_error_distance, 0.0);
        assert!(m.bit_flip_probability.iter().all(|&p| p == 0.0));
    }
}
