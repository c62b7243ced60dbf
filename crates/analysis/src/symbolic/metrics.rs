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
//! 64 per block. It is the engine behind the bound audit; the BDD path
//! stays the proof engine and the oracle it is checked against.
//! [`exhaustive_metrics_under`] runs the same accumulation with every
//! assignment weighted by the probability of its two operands under an
//! [`InputDistribution`], the exact leg of `xlac-explore`'s
//! per-distribution fronts.

use xlac_core::dist::{DistPmf, InputDistribution};
use xlac_core::lanes::{from_planes, CountingBlocks};
use xlac_core::XlacError;
use xlac_logic::Netlist;
use xlac_sim::CompiledProgram;

use super::bdd::{Bdd, Ref, FALSE, TRUE};

/// Exact error statistics of an approximate circuit against its accurate
/// reference, computed by weighted model counting on BDDs.
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
    let bit_flip_probability = diff
        .iter()
        .map(|&d| count_to_rate(bdd.sat_count(d, n_inputs), denom))
        .collect();

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
/// assignments, 1024 blocks).
pub const EXHAUSTIVE_MAX_INPUTS: usize = 16;

/// One 64-lane block of an exhaustive enumeration: both programs'
/// output planes for assignments `base .. base + 64`.
pub(crate) struct Block<'a> {
    base: u64,
    live: u64,
    approx: &'a [u64],
    exact: &'a [u64],
}

impl Block<'_> {
    /// Number of compared output bits (the longer word).
    pub(crate) fn width(&self) -> usize {
        self.approx.len().max(self.exact.len())
    }

    /// Live lanes where output bit `k` differs; the shorter word is
    /// zero-extended.
    pub(crate) fn diff(&self, k: usize) -> u64 {
        let plane = |v: &[u64]| v.get(k).copied().unwrap_or(0);
        (plane(self.approx) ^ plane(self.exact)) & self.live
    }

    /// Live lanes where any output bit differs.
    pub(crate) fn differing(&self) -> u64 {
        (0..self.width()).fold(0, |any, k| any | self.diff(k))
    }

    /// `(assignment, approx value, exact value)` of every lane in `mask`,
    /// in ascending assignment order. The output planes are transposed
    /// only when `mask` is non-empty.
    pub(crate) fn lanes(&self, mask: u64) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let (av, ev) = if mask == 0 {
            ([0; 64], [0; 64])
        } else {
            (from_planes(self.approx), from_planes(self.exact))
        };
        set_lanes(mask).map(move |l| (self.base | l as u64, av[l], ev[l]))
    }
}

/// Runs both programs over all `2^n` assignments of their shared `n`
/// inputs, one 64-lane [`Block`] per [`CountingBlocks`] block: lane `l`
/// of block `b` is input assignment `64·b + l` in [`Netlist::eval`]
/// packing (input `i` in bit `i`). Lanes past `2^n` (when `n < 6`) are
/// masked out of every [`Block`] query.
///
/// The caller guarantees the shared input arity, `n < 64` and at most 64
/// outputs per program.
pub(crate) fn for_each_block(
    approx: &CompiledProgram,
    exact: &CompiledProgram,
    mut visit: impl FnMut(&Block<'_>),
) {
    let n = approx.n_inputs();
    debug_assert_eq!(exact.n_inputs(), n, "callers check the input arity");
    let counting = CountingBlocks::new(n);
    let mut planes = vec![0u64; n];
    let (mut regs_a, mut out_a, mut regs_e, mut out_e) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for block in 0..counting.blocks() {
        counting.fill(block, &mut planes);
        approx.run_into(&planes, &mut regs_a, &mut out_a);
        exact.run_into(&planes, &mut regs_e, &mut out_e);
        visit(&Block { base: block << 6, live: counting.live(), approx: &out_a, exact: &out_e });
    }
}

/// The exact metric set of `approx` against `exact` by exhaustive
/// compiled enumeration: both netlists are compiled to bit-plane programs
/// and run over all `2^n` input assignments, 64 lanes per block. Every
/// field equals [`exact_metrics`] on the same pair except the witness,
/// which here is the lowest input assignment (in [`Netlist::eval`]
/// packing) that reaches the worst-case error. Output words may differ in
/// length; the shorter is zero-extended.
///
/// # Errors
///
/// [`XlacError::InvalidConfiguration`] when the two netlists differ in
/// input arity or either has more than 64 outputs;
/// [`XlacError::InvalidWidth`] above [`EXHAUSTIVE_MAX_INPUTS`] inputs.
pub fn exhaustive_metrics(approx: &Netlist, exact: &Netlist) -> Result<ExactMetrics, XlacError> {
    weighted_metrics(approx, exact, None)
}

/// [`exhaustive_metrics`] with the inputs read as two operands drawn
/// independently from `dist`: inputs `0..w` are operand `a`, inputs
/// `w..2w` operand `b`, and assignment `a | b << w` weighs
/// `pmf[a] · pmf[b]` ([`InputDistribution::pmf`] at width `w`). The error
/// rate, mean error distance and bit-flip probabilities are weighted
/// (integer weight sums, divided once); the worst-case error, witness,
/// over- and undershoot and `error_count` are taken over the assignments
/// of non-zero weight. Under [`InputDistribution::Uniform`] every field
/// equals [`exhaustive_metrics`].
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
    let n = approx.n_inputs();
    if n % 2 == 1 {
        return Err(XlacError::InvalidConfiguration(format!(
            "exhaustive metrics: {n} inputs do not split into two operands"
        )));
    }
    weighted_metrics(approx, exact, Some(&dist.pmf(n / 2)?))
}

/// The one accumulation behind [`exhaustive_metrics`] and
/// [`exhaustive_metrics_under`]. Without a `pmf` every assignment weighs
/// one and each weight sum is a popcount; with one, assignment
/// `a | b << w` weighs `pmf[a] · pmf[b]`. Weighted sums stay below
/// `2^128`: the shipped PMFs' weights total at most `2^64` and every
/// distance is below `2^64`.
fn weighted_metrics(
    approx: &Netlist,
    exact: &Netlist,
    pmf: Option<&DistPmf>,
) -> Result<ExactMetrics, XlacError> {
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

    let mut flips = vec![0u128; m];
    let (mut error_count, mut error_weight, mut med_num) = (0u128, 0u128, 0u128);
    let (mut wce, mut witness, mut over, mut under) = (0u64, 0u64, 0u64, 0u64);
    let mut weights = [1u128; 64];
    let (approx, exact) = (CompiledProgram::compile(approx), CompiledProgram::compile(exact));
    for_each_block(&approx, &exact, |block| {
        let support = pmf.map_or(u64::MAX, |pmf| operand_weights(pmf, block.base, &mut weights));
        let sum = |mask: u64| match pmf {
            None => u128::from(mask.count_ones()),
            Some(_) => set_lanes(mask).map(|l| weights[l]).sum(),
        };
        let mut any = 0u64;
        for (k, flip) in flips.iter_mut().enumerate() {
            let d = block.diff(k);
            *flip += sum(d);
            any |= d;
        }
        any &= support;
        error_count += u128::from(any.count_ones());
        error_weight += sum(any);
        for (x, av, ev) in block.lanes(any) {
            let d = av.abs_diff(ev);
            med_num += weights[(x & 63) as usize] * u128::from(d);
            if av > ev {
                over = over.max(d);
            } else {
                under = under.max(d);
            }
            if d > wce {
                (wce, witness) = (d, x);
            }
        }
    });

    let log2_total = pmf.map_or(n as u32, |pmf| 2 * pmf.shift);
    let denom = f64::from(log2_total).exp2();
    Ok(ExactMetrics {
        n_inputs: n,
        worst_case_error: u128::from(wce),
        worst_case_witness: witness,
        max_overshoot: u128::from(over),
        max_undershoot: u128::from(under),
        error_count,
        error_rate: count_to_rate(error_weight, denom),
        mean_error_distance: count_to_rate(med_num, denom),
        bit_flip_probability: flips.iter().map(|&c| count_to_rate(c, denom)).collect(),
    })
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
fn set_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
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
            let (wce, over, under, errs, med) = brute(
                4,
                |x| kind.mul(x & 3, (x >> 2) & 3),
                |x| (x & 3) * ((x >> 2) & 3),
            );
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
        assert_eq!(ExactMetrics { worst_case_witness: 0, ..e.clone() }, ExactMetrics {
            worst_case_witness: 0,
            ..m
        });
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
