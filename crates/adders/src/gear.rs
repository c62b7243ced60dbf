//! GeAr — the Generic Accuracy-configurable adder (Section 4.2).
//!
//! A GeAr adder splits an `N`-bit addition across `k` overlapping `L`-bit
//! sub-adders, `L = R + P`: each sub-adder contributes `R` result bits and
//! uses the `P` preceding operand bits to *predict* its carry-in (the first
//! sub-adder contributes all `L` of its bits). Sub-adder `s` (1-indexed)
//! reads operand bits `[(s-1)·R, (s-1)·R + L)`, so
//! `k = (N − L)/R + 1` and the configuration is valid only when
//! `(N − L)` is a multiple of `R`.
//!
//! The carry chain is cut at every sub-adder boundary, so the critical path
//! is `L` cells instead of `N` — the delay advantage of the design. An
//! error occurs exactly when a sub-adder's `P` prediction bits are all in
//! propagate mode while the previous sub-adder generated a carry
//! (`C_prop ∧ C_out` in the paper's notation); the optional error detection
//! and recovery stage tests that condition and re-executes the offending
//! sub-adder with an injected carry (the paper's "force the LSB to 1"
//! recovery), one correction pass per clock cycle.
//!
//! State-of-the-art approximate adders are special cases, exposed as
//! constructors: ACA-I (`R = 1, P = L−1`), ACA-II (`R = P = L/2`),
//! ETAII (`R = P = block`), and GDA with its block-level configuration.
//!
//! # Example
//!
//! ```
//! use xlac_adders::{Adder, GeArAdder};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let gear = GeArAdder::new(12, 4, 4)?; // the paper's Fig.3 example
//! assert_eq!(gear.sub_adder_count(), 2);
//!
//! // A carry generated at bit 4 lies inside the second sub-adder's P = 4
//! // prediction window, so it is seen and the addition is exact:
//! let out = gear.add(0x0F0, 0x010);
//! assert_eq!(out.value, 0x100);
//! assert_eq!(out.errors_detected, 0);
//!
//! // A carry generated at bit 0 must cross the whole window: the second
//! // sub-adder misses it (and the detector reports it).
//! let out = gear.add(0x0FF, 0x001);
//! assert_ne!(out.value, 0x100);
//! assert_eq!(out.errors_detected, 1);
//!
//! // With correction enabled the result is always exact.
//! let corrected = gear.add_with_correction(0xFFF, 0xFFF, usize::MAX);
//! assert_eq!(corrected.value, 0xFFF + 0xFFF);
//! # Ok(())
//! # }
//! ```

use crate::adder::Adder;
use crate::full_adder::FullAdderKind;
use xlac_core::bits;
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};

/// A GeAr adder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeArAdder {
    n: usize,
    r: usize,
    p: usize,
}

/// The result of a GeAr addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddOutcome {
    /// The (possibly approximate) `N + 1`-bit sum.
    pub value: u64,
    /// Number of sub-adders whose error-detection condition fired during
    /// the final evaluation (0 means the result is provably exact).
    pub errors_detected: usize,
    /// Correction passes executed (0 for plain [`GeArAdder::add`]).
    pub correction_iterations: usize,
}

/// The result of a 64-lane bit-sliced GeAr addition.
///
/// `value` is an `N + 1`-plane bit-plane vector (`xlac_core::lanes`
/// layout); the detection/correction counters are tracked per lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddOutcomeX64 {
    /// The `N + 1`-bit sums of all 64 lanes, as bit-planes.
    pub value: Vec<u64>,
    /// Per-lane count of sub-adders whose detection fired in the final
    /// evaluation.
    pub errors_detected: [u8; 64],
    /// Per-lane correction passes executed.
    pub correction_iterations: [u8; 64],
}

impl AddOutcomeX64 {
    /// Extracts one lane as a scalar [`AddOutcome`] — the bridge the
    /// differential tests use to compare against [`GeArAdder::add`].
    #[must_use]
    pub fn lane(&self, lane: usize) -> AddOutcome {
        AddOutcome {
            value: xlac_core::lanes::lane(&self.value, lane),
            errors_detected: usize::from(self.errors_detected[lane]),
            correction_iterations: usize::from(self.correction_iterations[lane]),
        }
    }
}

impl GeArAdder {
    /// Creates a GeAr adder for `n`-bit operands with `r` result bits and
    /// `p` prediction bits per sub-adder.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] unless
    /// `1 ≤ r`, `0 ≤ p`, `r + p ≤ n ≤ 63` and `(n − r − p)` is a multiple
    /// of `r`.
    pub fn new(n: usize, r: usize, p: usize) -> Result<Self> {
        if n == 0 || n > 63 {
            return Err(XlacError::InvalidWidth { width: n, max: 63 });
        }
        if r == 0 {
            return Err(XlacError::InvalidConfiguration(
                "GeAr requires at least one result bit per sub-adder (R >= 1)".into(),
            ));
        }
        let l = r + p;
        if l > n {
            return Err(XlacError::InvalidConfiguration(format!(
                "sub-adder length L = R + P = {l} exceeds operand width N = {n}"
            )));
        }
        if !(n - l).is_multiple_of(r) {
            return Err(XlacError::InvalidConfiguration(format!(
                "(N - L) = {} is not a multiple of R = {r}; the last sub-adder \
                 would not align with bit N-1",
                n - l
            )));
        }
        Ok(GeArAdder { n, r, p })
    }

    /// ACA-I [Verma DATE'08]: every result bit is computed from the `l`
    /// preceding operand bits (`R = 1`, `P = l − 1`).
    ///
    /// # Errors
    ///
    /// Propagates [`GeArAdder::new`] validation.
    pub fn aca_i(n: usize, l: usize) -> Result<Self> {
        if l == 0 {
            return Err(XlacError::InvalidConfiguration("ACA-I needs L >= 1".into()));
        }
        GeArAdder::new(n, 1, l - 1)
    }

    /// ACA-II [Kahng DAC'12]: `R = P = l/2`.
    ///
    /// # Errors
    ///
    /// Propagates [`GeArAdder::new`] validation; `l` must be even.
    pub fn aca_ii(n: usize, l: usize) -> Result<Self> {
        if l == 0 || !l.is_multiple_of(2) {
            return Err(XlacError::InvalidConfiguration(format!(
                "ACA-II needs an even sub-adder length, got {l}"
            )));
        }
        GeArAdder::new(n, l / 2, l / 2)
    }

    /// ETAII [Zhu ISIC'09]: equal-width blocks whose carry is predicted
    /// from the entire previous block (`R = P = block`).
    ///
    /// # Errors
    ///
    /// Propagates [`GeArAdder::new`] validation.
    pub fn etaii(n: usize, block: usize) -> Result<Self> {
        GeArAdder::new(n, block, block)
    }

    /// GDA-style configuration [Ye ICCAD'13]: blocks of `block` result
    /// bits with a carry prediction window of `lookahead` previous bits.
    ///
    /// # Errors
    ///
    /// Propagates [`GeArAdder::new`] validation.
    pub fn gda(n: usize, block: usize, lookahead: usize) -> Result<Self> {
        GeArAdder::new(n, block, lookahead)
    }

    /// Operand width `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Result bits per sub-adder `R`.
    #[must_use]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Prediction bits per sub-adder `P`.
    #[must_use]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Sub-adder length `L = R + P`.
    #[must_use]
    pub fn l(&self) -> usize {
        self.r + self.p
    }

    /// Number of sub-adders `k = (N − L)/R + 1`.
    #[must_use]
    pub fn sub_adder_count(&self) -> usize {
        (self.n - self.l()) / self.r + 1
    }

    /// Operand-bit ranges `[lo, hi)` read by each sub-adder, in order.
    #[must_use]
    pub fn sub_adder_windows(&self) -> Vec<(usize, usize)> {
        (0..self.sub_adder_count()).map(|s| (s * self.r, s * self.r + self.l())).collect()
    }

    /// Approximate addition without correction.
    #[must_use]
    pub fn add(&self, a: u64, b: u64) -> AddOutcome {
        self.run(a, b, 0)
    }

    /// Addition with the iterative error detection and recovery stage
    /// enabled, running at most `max_iterations` correction passes.
    ///
    /// Each pass re-executes every sub-adder whose detection condition
    /// fired with an injected carry-in of 1 (the paper's recovery action),
    /// then re-evaluates detection — a correction can expose a new error in
    /// the next sub-adder, which the next pass handles. `k − 1` passes
    /// always reach the exact result.
    #[must_use]
    pub fn add_with_correction(&self, a: u64, b: u64, max_iterations: usize) -> AddOutcome {
        self.run(a, b, max_iterations)
    }

    fn run(&self, a: u64, b: u64, max_iterations: usize) -> AddOutcome {
        let a = bits::truncate(a, self.n);
        let b = bits::truncate(b, self.n);

        // Carry injections decided by the recovery stage, bit `s` for
        // sub-adder `s` (`k ≤ n ≤ 63`, so a `u64` holds them; bit 0 stays
        // clear — the first sub-adder has a true carry-in of 0).
        let mut inject = 0u64;
        let mut iterations = 0usize;

        loop {
            // `detected` only flags sub-adders that are *not* already
            // carry-injected, so it is exactly the set the next recovery
            // pass must fix.
            let (value, detected) = self.evaluate(a, b, inject);
            if detected == 0 || iterations >= max_iterations {
                return AddOutcome {
                    value,
                    errors_detected: detected.count_ones() as usize,
                    correction_iterations: iterations,
                };
            }
            inject |= detected;
            iterations += 1;
        }
    }

    /// One combinational evaluation with the given carry injections (bit
    /// `s` for sub-adder `s`). Returns the N+1-bit sum and the detection
    /// mask (bit `s` set when sub-adder `s ≥ 1` detected a missed carry
    /// it was not injected with).
    fn evaluate(&self, a: u64, b: u64, inject: u64) -> (u64, u64) {
        let (r, p, l) = (self.r, self.p, self.l());
        let (l_mask, p_mask, r_mask) = (bits::mask(l), bits::mask(p), bits::mask(r));
        // Propagate bits of every position; a sub-adder's prediction
        // window all-propagate means a carry generated below it is missed.
        let propagate = a ^ b;

        let window_sum = (a & l_mask) + (b & l_mask);
        let mut sum = window_sum & l_mask;
        let mut detected = 0u64;
        let mut prev_carry_out = window_sum >> l;

        for s in 1..self.sub_adder_count() {
            let lo = s * r;
            let cin = (inject >> s) & 1;
            let window_sum = ((a >> lo) & l_mask) + ((b >> lo) & l_mask) + cin;
            // Detection: previous carry out & all P prediction bits of this
            // sub-adder propagate. With P = 0 the condition is vacuous.
            let prop = u64::from((propagate >> lo) & p_mask == p_mask);
            detected |= (prev_carry_out & prop & !cin) << s;
            sum |= ((window_sum >> p) & r_mask) << (lo + p);
            prev_carry_out = window_sum >> l;
        }
        // Bit N comes from the last sub-adder's carry-out.
        sum |= prev_carry_out << self.n;
        (sum, detected)
    }

    /// Bit-sliced [`GeArAdder::add`]: 64 independent additions per call.
    ///
    /// Operands are bit-plane batches in the `xlac_core::lanes` layout;
    /// see [`AddOutcomeX64`] for the per-lane result extraction.
    #[must_use]
    pub fn add_x64(&self, a: &[u64], b: &[u64]) -> AddOutcomeX64 {
        self.run_x64(a, b, 0)
    }

    /// Bit-sliced [`GeArAdder::add_with_correction`].
    ///
    /// The recovery loop is evaluated per lane: each pass injects carries
    /// only into sub-adders of lanes whose detection fired and whose own
    /// iteration count is still below `max_iterations`, so every lane
    /// reproduces the scalar outcome exactly (lanes that finish early are
    /// untouched by later passes — their injections no longer change).
    #[must_use]
    pub fn add_with_correction_x64(
        &self,
        a: &[u64],
        b: &[u64],
        max_iterations: usize,
    ) -> AddOutcomeX64 {
        self.run_x64(a, b, max_iterations)
    }

    fn run_x64(&self, a: &[u64], b: &[u64], max_iterations: usize) -> AddOutcomeX64 {
        let k = self.sub_adder_count();
        // Per-sub-adder lane masks of injected carries (index 0 unused).
        let mut inject = vec![0u64; k];
        let mut iters = [0usize; 64];

        loop {
            let (value, detected) = self.evaluate_x64(a, b, &inject);
            let pending: u64 = detected.iter().fold(0, |m, &d| m | d);
            // Lanes already at their iteration budget keep their result.
            let mut frozen = 0u64;
            for (lane, &it) in iters.iter().enumerate() {
                if it >= max_iterations {
                    frozen |= 1 << lane;
                }
            }
            let active = pending & !frozen;
            if active == 0 {
                let mut errors = [0u8; 64];
                for d in &detected {
                    let mut bits = *d;
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        errors[lane] += 1;
                        bits &= bits - 1;
                    }
                }
                let mut iterations = [0u8; 64];
                for (out, &it) in iterations.iter_mut().zip(&iters) {
                    *out = u8::try_from(it.min(k)).expect("GeAr passes bounded by k <= 63");
                }
                return AddOutcomeX64 {
                    value,
                    errors_detected: errors,
                    correction_iterations: iterations,
                };
            }
            for (s, d) in detected.iter().enumerate() {
                inject[s] |= d & active;
            }
            let mut bits = active;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                iters[lane] += 1;
                bits &= bits - 1;
            }
        }
    }

    /// One bit-sliced combinational evaluation: the 64-lane counterpart
    /// of `evaluate`, with each sub-adder window summed by an exact
    /// bit-sliced ripple and the detection condition computed as a lane
    /// mask `prev_carry_out & propagate(P window) & !injected`.
    fn evaluate_x64(&self, a: &[u64], b: &[u64], inject: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let r = self.r;
        let p = self.p;
        let l = self.l();
        let k = self.sub_adder_count();
        let plane = |planes: &[u64], i: usize| planes.get(i).copied().unwrap_or(0);

        let mut sum = vec![0u64; self.n + 1];
        let mut detected = vec![0u64; k];
        let mut window = vec![0u64; l];
        let mut prev_carry_out = 0u64;

        for (s, d) in detected.iter_mut().enumerate() {
            let lo = s * r;
            let mut carry = inject[s];
            for (i, w) in window.iter_mut().enumerate() {
                let ai = plane(a, lo + i);
                let bi = plane(b, lo + i);
                let axb = ai ^ bi;
                *w = axb ^ carry;
                carry = (ai & bi) | (axb & carry);
            }
            let carry_out = carry;

            if s == 0 {
                sum[..l].copy_from_slice(&window);
            } else {
                let mut prop = u64::MAX;
                for i in 0..p {
                    prop &= plane(a, lo + i) ^ plane(b, lo + i);
                }
                *d = prev_carry_out & prop & !inject[s];
                sum[lo + p..lo + p + r].copy_from_slice(&window[p..p + r]);
            }
            prev_carry_out = carry_out;
        }
        sum[self.n] = prev_carry_out;
        (sum, detected)
    }

    /// Like [`GeArAdder::add`], but also returns the bit offsets at which
    /// the detectors flagged a missing carry (offset `s·R + P` for each
    /// detected sub-adder `s`). These detection signals are what the
    /// consolidated error correction unit (`xlac-accel::cec`) consumes
    /// instead of the per-adder recovery stage.
    #[must_use]
    pub fn add_flagged(&self, a: u64, b: u64) -> (AddOutcome, Vec<usize>) {
        let a = bits::truncate(a, self.n);
        let b = bits::truncate(b, self.n);
        let (value, detected) = self.evaluate(a, b, 0);
        let mut offsets = Vec::new();
        let mut pending = detected;
        while pending != 0 {
            offsets.push(pending.trailing_zeros() as usize * self.r + self.p);
            pending &= pending - 1;
        }
        (AddOutcome { value, errors_detected: offsets.len(), correction_iterations: 0 }, offsets)
    }

    /// FPGA area model in Virtex-6 style LUTs: each `L`-bit sub-adder maps
    /// to `L` carry-chain LUTs, so the total is `k · L` (the Table IV area
    /// column's model — see DESIGN.md for the substitution note).
    #[must_use]
    pub fn lut_area(&self) -> usize {
        self.sub_adder_count() * self.l()
    }

    /// The exact static worst-case error: `Σ_{s=1}^{k−1} 2^{s·R+P}`.
    ///
    /// Writing sub-adder `s`'s window sum as `W_s` and the true carry into
    /// bit `s·R` as `c_s`, the result error telescopes to
    /// `Σ_s 2^{s·R+P}·(1[Z_s] − 1[wrap_{s−1}])` where `Z_s` is the missed
    /// carry event and a wrap of window `s−1`'s result field forces
    /// `Z_s = 1` — so every net term is `0` or `+2^{s·R+P}`. The sum over
    /// all sections is therefore a sound (and attained) worst case, and
    /// the approximate sum never exceeds the exact one. The full argument
    /// is spelled out in DESIGN.md's static-analysis section.
    #[must_use]
    pub fn worst_case_error(&self) -> u64 {
        (1..self.sub_adder_count()).map(|s| 1u64 << (s * self.r + self.p)).sum()
    }
}

impl Adder for GeArAdder {
    fn width(&self) -> usize {
        self.n
    }

    fn add(&self, a: u64, b: u64) -> u64 {
        GeArAdder::add(self, a, b).value
    }

    fn name(&self) -> String {
        format!("GeAr(N={},R={},P={})", self.n, self.r, self.p)
    }

    fn hw_cost(&self) -> HwCost {
        // k parallel L-bit ripple chains: areas/powers add, delay is one
        // L-bit chain (the parallelism is the design's point).
        let fa = FullAdderKind::Accurate.hw_cost();
        let chain = fa * self.l() as f64;
        let mut cost = HwCost::ZERO;
        for _ in 0..self.sub_adder_count() {
            cost = cost.parallel(chain);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::check::{check, Rng};
    use xlac_core::prop_assert_eq;

    fn exact(n: usize, a: u64, b: u64) -> u64 {
        bits::truncate(a, n) + bits::truncate(b, n)
    }

    /// The `Vec<bool>`/`Vec<usize>` model the mask-based one replaced
    /// (`run`, `evaluate` and `add_flagged`), kept as its oracle.
    mod vec_model {
        use super::*;

        pub(super) fn run(g: &GeArAdder, a: u64, b: u64, max_iterations: usize) -> AddOutcome {
            let a = bits::truncate(a, g.n);
            let b = bits::truncate(b, g.n);

            // Carry injections decided by the recovery stage (index 0 unused —
            // the first sub-adder has a true carry-in of 0).
            let mut inject = vec![false; g.sub_adder_count()];
            let mut iterations = 0usize;

            loop {
                // `detected` only flags sub-adders that are *not* already
                // carry-injected, so it is exactly the set the next recovery
                // pass must fix.
                let (value, detected) = evaluate(g, a, b, &inject);
                let pending: Vec<usize> =
                    detected.iter().enumerate().filter(|(_, &d)| d).map(|(s, _)| s).collect();
                if pending.is_empty() || iterations >= max_iterations {
                    return AddOutcome {
                        value,
                        errors_detected: pending.len(),
                        correction_iterations: iterations,
                    };
                }
                for s in pending {
                    inject[s] = true;
                }
                iterations += 1;
            }
        }

        /// One combinational evaluation with the given carry injections.
        /// Returns the N+1-bit sum and the per-sub-adder detection flags
        /// (meaningful for s >= 1).
        fn evaluate(g: &GeArAdder, a: u64, b: u64, inject: &[bool]) -> (u64, Vec<bool>) {
            let r = g.r;
            let p = g.p;
            let l = g.l();
            let k = g.sub_adder_count();

            let mut sum = 0u64;
            let mut detected = vec![false; k];
            let mut prev_carry_out = 0u64;

            for s in 0..k {
                let lo = s * r;
                let wa = bits::field(a, lo, l);
                let wb = bits::field(b, lo, l);
                let cin = u64::from(inject[s]);
                let window_sum = wa + wb + cin;
                let carry_out = window_sum >> l;

                if s == 0 {
                    sum = bits::with_field(sum, 0, l, window_sum);
                } else {
                    // Detection: previous carry out & all P prediction bits of
                    // this sub-adder propagate (a XOR b = 1 across the window's
                    // low P bits). With P = 0 the propagate condition is vacuous.
                    let prop = bits::field(a ^ b, lo, p) == bits::mask(p);
                    detected[s] = prev_carry_out == 1 && prop && !inject[s];
                    let result_bits = bits::field(window_sum, p, r);
                    sum = bits::with_field(sum, lo + p, r, result_bits);
                }
                prev_carry_out = carry_out;
            }
            // Bit N comes from the last sub-adder's carry-out.
            sum |= prev_carry_out << g.n;
            (sum, detected)
        }

        pub(super) fn add_flagged(g: &GeArAdder, a: u64, b: u64) -> (AddOutcome, Vec<usize>) {
            let a = bits::truncate(a, g.n);
            let b = bits::truncate(b, g.n);
            let inject = vec![false; g.sub_adder_count()];
            let (value, detected) = evaluate(g, a, b, &inject);
            let offsets: Vec<usize> = detected
                .iter()
                .enumerate()
                .filter(|(_, &d)| d)
                .map(|(s, _)| s * g.r + g.p)
                .collect();
            (
                AddOutcome { value, errors_detected: offsets.len(), correction_iterations: 0 },
                offsets,
            )
        }
    }

    /// Correction budgets the oracle tests cover: none, zero, one pass,
    /// and unbounded.
    const BUDGETS: [Option<usize>; 4] = [None, Some(0), Some(1), Some(usize::MAX)];

    fn assert_matches_vec_model(g: &GeArAdder, a: u64, b: u64) {
        for budget in BUDGETS {
            let (got, want) = match budget {
                None => (g.add(a, b), vec_model::run(g, a, b, 0)),
                Some(m) => (g.add_with_correction(a, b, m), vec_model::run(g, a, b, m)),
            };
            assert_eq!(got, want, "{} budget {budget:?} a={a} b={b}", Adder::name(g));
        }
        assert_eq!(g.add_flagged(a, b), vec_model::add_flagged(g, a, b), "a={a} b={b}");
    }

    #[test]
    fn mask_model_equals_the_vec_model_exhaustively_to_8_bits() {
        for n in 1..=8usize {
            for r in 1..=n {
                for p in 0..=n - r {
                    let Ok(g) = GeArAdder::new(n, r, p) else { continue };
                    for a in 0..1u64 << n {
                        for b in 0..1u64 << n {
                            assert_matches_vec_model(&g, a, b);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mask_model_equals_the_vec_model_at_63_sub_adders() {
        // N = 63, R = 1, P = 0: 63 one-bit sub-adders, so the detection
        // and injection masks use bit 62, their top sub-adder.
        let g = GeArAdder::new(63, 1, 0).unwrap();
        assert_eq!(g.sub_adder_count(), 63);
        check(
            "GeAr(63,1,0) equals the vec model",
            |rng| (rng.gen::<u64>(), rng.gen::<u64>()),
            |&(a, b)| {
                for m in [0, 1, usize::MAX] {
                    prop_assert_eq!(g.add_with_correction(a, b, m), vec_model::run(&g, a, b, m));
                }
                prop_assert_eq!(g.add_flagged(a, b), vec_model::add_flagged(&g, a, b));
                Ok(())
            },
        );
        // Every bit propagates but the lowest generates: the missed carry
        // reaches the top sub-adder only through the whole chain.
        let (a, b) = (bits::mask(63), 1u64);
        for m in [0, 1, 61, 62, usize::MAX] {
            assert_eq!(g.add_with_correction(a, b, m), vec_model::run(&g, a, b, m), "m={m}");
        }
        assert_eq!(g.add_with_correction(a, b, usize::MAX).value, a + b);
        assert_eq!(g.add_flagged(a, b), vec_model::add_flagged(&g, a, b));
    }

    #[test]
    fn paper_example_configuration() {
        let g = GeArAdder::new(12, 4, 4).unwrap();
        assert_eq!(g.l(), 8);
        assert_eq!(g.sub_adder_count(), 2);
        assert_eq!(g.sub_adder_windows(), vec![(0, 8), (4, 12)]);
    }

    #[test]
    fn validation_rejects_misaligned_configs() {
        assert!(GeArAdder::new(12, 5, 4).is_err()); // (12-9) % 5 != 0
        assert!(GeArAdder::new(8, 0, 4).is_err()); // R = 0
        assert!(GeArAdder::new(8, 4, 8).is_err()); // L > N
        assert!(GeArAdder::new(0, 1, 0).is_err());
        assert!(GeArAdder::new(64, 1, 0).is_err());
    }

    #[test]
    fn full_length_sub_adder_is_exact() {
        // L = N → single sub-adder → always exact.
        let g = GeArAdder::new(12, 4, 8).unwrap();
        for (a, b) in [(0xFFFu64, 0xFFFu64), (0x800, 0x800), (123, 456)] {
            let out = g.add(a, b);
            assert_eq!(out.value, exact(12, a, b));
            assert_eq!(out.errors_detected, 0);
        }
    }

    #[test]
    fn short_carry_chains_are_exact() {
        let g = GeArAdder::new(12, 4, 4).unwrap();
        // No carry crosses bit 7 with these operands.
        let out = g.add(0x00F, 0x001);
        assert_eq!(out.value, 0x010);
        assert_eq!(out.errors_detected, 0);
    }

    #[test]
    fn long_propagation_errs_and_is_detected() {
        let g = GeArAdder::new(12, 4, 4).unwrap();
        // a + b requires a carry generated at bit 0 to propagate to bit 8:
        // the P = 4 window [4, 8) is all-propagate and sub-adder 2 misses
        // the carry generated in [0, 4).
        let a = 0b0000_1111_1111u64;
        let b = 0b0000_0000_0001u64;
        // True: 0b0001_0000_0000. Window of sub-adder 2 = bits [4, 12):
        // 0b0000_1111 + 0 = 0b0000_1111 → result bits [8, 12) = 0000 ✓ but
        // the true bits are 0001 → error.
        let out = g.add(a, b);
        assert_ne!(out.value, exact(12, a, b));
        assert_eq!(out.errors_detected, 1);
        // Correction recovers the exact sum in one pass.
        let fixed = g.add_with_correction(a, b, usize::MAX);
        assert_eq!(fixed.value, exact(12, a, b));
        assert_eq!(fixed.errors_detected, 0);
        assert_eq!(fixed.correction_iterations, 1);
    }

    #[test]
    fn correction_always_reaches_exactness() {
        // Exhaustive over a small configuration: N=6, R=1, P=1, k=5.
        let g = GeArAdder::new(6, 1, 1).unwrap();
        for a in 0u64..64 {
            for b in 0u64..64 {
                let out = g.add_with_correction(a, b, usize::MAX);
                assert_eq!(out.value, exact(6, a, b), "a={a} b={b}");
                assert!(out.correction_iterations < g.sub_adder_count());
            }
        }
    }

    #[test]
    fn uncorrected_error_is_always_detected() {
        // Detection must be sound: whenever the approximate value differs
        // from the exact one, at least one detector fired.
        let g = GeArAdder::new(8, 2, 2).unwrap();
        for a in 0u64..256 {
            for b in 0u64..256 {
                let out = g.add(a, b);
                if out.value != exact(8, a, b) {
                    assert!(out.errors_detected > 0, "undetected error at {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn correction_iterations_are_bounded_by_k_minus_1() {
        let g = GeArAdder::new(12, 2, 2).unwrap(); // k = 5
        let k = g.sub_adder_count();
        for a in (0u64..4096).step_by(37) {
            for b in (0u64..4096).step_by(41) {
                let out = g.add_with_correction(a, b, usize::MAX);
                assert!(out.correction_iterations < k);
                assert_eq!(out.value, exact(12, a, b));
            }
        }
    }

    #[test]
    fn limited_iterations_progress_and_terminate() {
        // Progressive correction is *not* monotone in the error magnitude:
        // fixing sub-adder s can wrap its result bits (e.g. 11 → 00) and
        // move the carry into sub-adder s+1's domain, which only the next
        // pass repairs. What must hold: zero passes equals the plain
        // approximate add, and enough passes reach exactness.
        let g = GeArAdder::new(12, 2, 2).unwrap();
        let (a, b) = (0b1111_1111_1111u64, 1u64);
        let none = g.add_with_correction(a, b, 0);
        assert_eq!(none.value, g.add(a, b).value);
        assert_eq!(none.correction_iterations, 0);
        let full = g.add_with_correction(a, b, g.sub_adder_count());
        assert_eq!(full.value, exact(12, a, b));
        assert_eq!(full.errors_detected, 0);
        // Each pass consumes at least one pending detection, so the pass
        // count is bounded by k - 1.
        assert!(full.correction_iterations < g.sub_adder_count());
    }

    #[test]
    fn soa_adder_constructors() {
        let aca1 = GeArAdder::aca_i(16, 4).unwrap();
        assert_eq!((aca1.r(), aca1.p()), (1, 3));
        let aca2 = GeArAdder::aca_ii(16, 8).unwrap();
        assert_eq!((aca2.r(), aca2.p()), (4, 4));
        let eta = GeArAdder::etaii(16, 4).unwrap();
        assert_eq!((eta.r(), eta.p()), (4, 4));
        let gda = GeArAdder::gda(16, 2, 4).unwrap();
        assert_eq!((gda.r(), gda.p()), (2, 4));
        assert!(GeArAdder::gda(16, 4, 2).is_err()); // (16-6) % 4 != 0
        assert!(GeArAdder::aca_ii(16, 5).is_err());
        assert!(GeArAdder::aca_i(16, 0).is_err());
    }

    #[test]
    fn lut_area_model() {
        // N=11, R=1, P=9: L=10, k=2 → 20 LUTs.
        let g = GeArAdder::new(11, 1, 9).unwrap();
        assert_eq!(g.lut_area(), 20);
        // N=11, R=3, P=5: L=8, k=2 → 16 LUTs.
        let g = GeArAdder::new(11, 3, 5).unwrap();
        assert_eq!(g.lut_area(), 16);
    }

    #[test]
    fn delay_is_sublinear_in_n() {
        let gear = GeArAdder::new(32, 4, 4).unwrap();
        let exact = crate::ripple::RippleCarryAdder::accurate(32);
        use crate::adder::Adder;
        assert!(gear.hw_cost().delay < exact.hw_cost().delay);
        // But GeAr pays area for the overlapping windows.
        assert!(gear.hw_cost().area_ge > exact.hw_cost().area_ge);
    }

    #[test]
    fn adder_trait_returns_uncorrected_value() {
        let g = GeArAdder::new(12, 4, 4).unwrap();
        let (a, b) = (0b0000_1111_1111u64, 1u64);
        assert_eq!(Adder::add(&g, a, b), g.add(a, b).value);
        assert_eq!(g.name(), "GeAr(N=12,R=4,P=4)");
    }

    #[test]
    fn p_zero_blocks_never_predict() {
        // R=4, P=0: plain disjoint 4-bit blocks; any carry across a block
        // boundary is lost.
        let g = GeArAdder::new(8, 4, 0).unwrap();
        let out = g.add(0x0F, 0x01);
        assert_eq!(out.value, 0x00); // carry out of low block dropped
        assert_eq!(out.errors_detected, 1);
        let fixed = g.add_with_correction(0x0F, 0x01, usize::MAX);
        assert_eq!(fixed.value, 0x10);
    }

    #[test]
    fn error_magnitude_is_structured() {
        // GeAr errors are always *underestimates* (a missing carry) whose
        // magnitude is a sum of powers of two at sub-adder result offsets.
        let g = GeArAdder::new(12, 4, 4).unwrap();
        for a in (0u64..4096).step_by(19) {
            for b in (0u64..4096).step_by(23) {
                let out = g.add(a, b);
                let ex = exact(12, a, b);
                assert!(out.value <= ex, "approximate never exceeds exact");
            }
        }
    }

    #[test]
    fn worst_case_error_is_exhaustively_sound() {
        // For every valid 8-bit configuration the static worst case
        // upper-bounds the exhaustive maximum. With disjoint sub-adders
        // (P = 0) no wrap cancellation is possible and the bound is
        // attained exactly.
        for r in 1..8usize {
            for p in 0..8usize {
                let l = r + p;
                if l >= 8 || !(8 - l).is_multiple_of(r) {
                    continue;
                }
                let g = GeArAdder::new(8, r, p).unwrap();
                let wce = g.worst_case_error();
                let mut observed = 0u64;
                for a in 0u64..256 {
                    for b in 0u64..256 {
                        observed = observed.max(g.add(a, b).value.abs_diff(a + b));
                    }
                }
                assert!(observed <= wce, "R{r}P{p}: observed {observed} > bound {wce}");
                if p == 0 {
                    assert_eq!(observed, wce, "R{r}P0: disjoint bound should be attained");
                }
            }
        }
    }

    #[test]
    fn worst_case_error_formula() {
        // N=12, R=4, P=4 → two sub-adders, one boundary: 2^(4+4) = 256.
        assert_eq!(GeArAdder::new(12, 4, 4).unwrap().worst_case_error(), 256);
        // Single sub-adder (L = N) is exact.
        assert_eq!(GeArAdder::new(8, 4, 4).unwrap().worst_case_error(), 0);
        // N=8, R=2, P=2: sub-adders at s = 1, 2: 2^4 + 2^6.
        assert_eq!(GeArAdder::new(8, 2, 2).unwrap().worst_case_error(), 16 + 64);
    }
}
