//! Exact signed error-PMF algebra (DESIGN.md §14).
//!
//! An [`ErrorPmf`] is the *exact* probability mass function of a signed
//! arithmetic error under uniformly random inputs: a sorted list of
//! `(value, count)` pairs whose counts sum to `2^denom_bits`. Everything
//! stays in integers — counts are satisfying-assignment counts, the
//! denominator is the input-space size — so the algebra is exact, not a
//! floating-point approximation.
//!
//! PMFs come from enumeration: a caller whose error depends on a small
//! input cone tabulates it over every cone assignment (the calculus runs
//! 64 lanes per block) and normalizes through [`ErrorPmf::from_counts`].
//!
//! The algebra then pushes PMFs through composition structure:
//! [`shifted`](ErrorPmf::shifted) (digit-weight scaling),
//! [`scaled`](ErrorPmf::scaled), [`negated`](ErrorPmf::negated), and
//! [`convolve`](ErrorPmf::convolve) (sum of *independent* sources). Where
//! sources are dependent or a convolution would blow past the integer
//! domain, [`ErrorModel`] degrades to a *certified interval*
//! ([`ErrorInterval`]): hard lo/hi envelope, a mean bracket that stays
//! exact under linearity of expectation even for dependent sums, a
//! triangle-inequality mean-|e| ceiling and a union-bound error rate.
//! Every operation is sound in both representations, so a composition
//! walk can mix them freely and the result is always a certificate.

use std::collections::HashMap;
use std::fmt;

use crate::bound::ErrorBound;

/// Hard ceiling on `denom_bits`: counts live in `u128`, and convolution
/// multiplies counts whose product must stay below `2^127`.
pub const MAX_DENOM_BITS: u32 = 120;

/// Hard ceiling on a PMF's support size; a convolution that would exceed
/// it degrades to an interval instead of allocating without bound.
pub const MAX_SUPPORT: usize = 1 << 20;

/// An exact-PMF operation left the representable domain (denominator,
/// support size or value overflow). The caller is expected to degrade to
/// an [`ErrorInterval`], which is always representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmfOverflow {
    /// What overflowed.
    pub reason: &'static str,
}

impl fmt::Display for PmfOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exact PMF left the representable domain: {}", self.reason)
    }
}

impl std::error::Error for PmfOverflow {}

/// The exact probability mass function of a signed integer error under
/// uniformly random inputs: `P[e = value] = count / 2^denom_bits`.
///
/// Invariants: `mass` is sorted by value, holds no zero counts, and its
/// counts sum to exactly `2^denom_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorPmf {
    mass: Vec<(i128, u128)>,
    denom_bits: u32,
}

impl ErrorPmf {
    /// The deterministic PMF concentrated on `value`.
    #[must_use]
    pub fn point(value: i128) -> Self {
        ErrorPmf { mass: vec![(value, 1)], denom_bits: 0 }
    }

    /// Builds a PMF from raw `(value, count)` pairs (unsorted, duplicate
    /// values allowed, zero counts ignored) over an input space of
    /// `2^denom_bits` equiprobable points.
    ///
    /// # Errors
    ///
    /// [`PmfOverflow`] when `denom_bits` exceeds [`MAX_DENOM_BITS`] or the
    /// counts do not sum to `2^denom_bits` (mass is not conserved).
    pub fn from_counts(
        pairs: impl IntoIterator<Item = (i128, u128)>,
        denom_bits: u32,
    ) -> Result<Self, PmfOverflow> {
        if denom_bits > MAX_DENOM_BITS {
            return Err(PmfOverflow { reason: "denominator exceeds MAX_DENOM_BITS" });
        }
        let mut mass: Vec<(i128, u128)> = pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        mass.sort_unstable_by_key(|&(v, _)| v);
        mass.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 += next.1;
                true
            } else {
                false
            }
        });
        let total: u128 = mass.iter().map(|&(_, c)| c).sum();
        if total != 1u128 << denom_bits {
            return Err(PmfOverflow { reason: "counts do not sum to 2^denom_bits" });
        }
        Ok(ErrorPmf { mass, denom_bits })
    }

    /// The input-space size exponent: probabilities are `count / 2^this`.
    #[must_use]
    pub fn denom_bits(&self) -> u32 {
        self.denom_bits
    }

    /// The sorted `(value, count)` support.
    #[must_use]
    pub fn support(&self) -> &[(i128, u128)] {
        &self.mass
    }

    /// The count attached to `value` (0 when outside the support).
    #[must_use]
    pub fn count_of(&self, value: i128) -> u128 {
        self.mass.binary_search_by_key(&value, |&(v, _)| v).map_or(0, |i| self.mass[i].1)
    }

    /// Minimum support value.
    #[must_use]
    pub fn min(&self) -> i128 {
        self.mass.first().map_or(0, |&(v, _)| v)
    }

    /// Maximum support value.
    #[must_use]
    pub fn max(&self) -> i128 {
        self.mass.last().map_or(0, |&(v, _)| v)
    }

    /// Exact mean `E[e]`, evaluated in floating point.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let denom = (self.denom_bits as f64).exp2();
        self.mass.iter().map(|&(v, c)| (v as f64) * (c as f64)).sum::<f64>() / denom
    }

    /// Exact mean absolute error `E[|e|]`, evaluated in floating point.
    #[must_use]
    pub fn mean_abs(&self) -> f64 {
        let denom = (self.denom_bits as f64).exp2();
        self.mass.iter().map(|&(v, c)| (v.unsigned_abs() as f64) * (c as f64)).sum::<f64>() / denom
    }

    /// Exact error rate `P[e ≠ 0]`.
    #[must_use]
    pub fn p_nonzero(&self) -> f64 {
        let denom = (self.denom_bits as f64).exp2();
        1.0 - (self.count_of(0) as f64) / denom
    }

    /// Worst-case |error| over the support.
    #[must_use]
    pub fn wce(&self) -> u128 {
        self.min().unsigned_abs().max(self.max().unsigned_abs())
    }

    /// Re-expresses the PMF over a larger input space (`2^extra` extra
    /// don't-care inputs); probabilities are unchanged.
    ///
    /// # Errors
    ///
    /// [`PmfOverflow`] past [`MAX_DENOM_BITS`].
    pub fn lifted(&self, extra_bits: u32) -> Result<Self, PmfOverflow> {
        let denom_bits = self.denom_bits + extra_bits;
        if denom_bits > MAX_DENOM_BITS {
            return Err(PmfOverflow { reason: "lift exceeds MAX_DENOM_BITS" });
        }
        Ok(ErrorPmf {
            mass: self.mass.iter().map(|&(v, c)| (v, c << extra_bits)).collect(),
            denom_bits,
        })
    }

    /// The PMF of `e · 2^shift` (a digit-weight re-scaling).
    ///
    /// # Errors
    ///
    /// [`PmfOverflow`] on value overflow.
    pub fn shifted(&self, shift: u32) -> Result<Self, PmfOverflow> {
        if shift >= 127 {
            return Err(PmfOverflow { reason: "shift overflow" });
        }
        self.scaled(1i128 << shift)
    }

    /// The PMF of `k · e`.
    ///
    /// # Errors
    ///
    /// [`PmfOverflow`] on value overflow.
    pub fn scaled(&self, k: i128) -> Result<Self, PmfOverflow> {
        let mut mass = Vec::with_capacity(self.mass.len());
        for &(v, c) in &self.mass {
            let v = v.checked_mul(k).ok_or(PmfOverflow { reason: "value overflow in scale" })?;
            mass.push((v, c));
        }
        if k < 0 {
            mass.reverse();
        } else if k == 0 {
            return ErrorPmf::point(0).lifted(self.denom_bits);
        }
        Ok(ErrorPmf { mass, denom_bits: self.denom_bits })
    }

    /// The PMF of `−e`.
    #[must_use]
    pub fn negated(&self) -> Self {
        let mut mass: Vec<(i128, u128)> = self.mass.iter().map(|&(v, c)| (-v, c)).collect();
        mass.reverse();
        ErrorPmf { mass, denom_bits: self.denom_bits }
    }

    /// The PMF of the sum of two *independent* error sources (their input
    /// cones must be disjoint — the caller asserts this structurally).
    ///
    /// # Errors
    ///
    /// [`PmfOverflow`] when the combined denominator or support leaves the
    /// representable domain; degrade to an interval sum in that case.
    pub fn convolve(&self, other: &ErrorPmf) -> Result<Self, PmfOverflow> {
        let denom_bits = self.denom_bits + other.denom_bits;
        if denom_bits > MAX_DENOM_BITS {
            return Err(PmfOverflow { reason: "convolution denominator exceeds MAX_DENOM_BITS" });
        }
        if self.mass.len().saturating_mul(other.mass.len()) > MAX_SUPPORT {
            return Err(PmfOverflow { reason: "convolution support exceeds MAX_SUPPORT" });
        }
        let mut acc: HashMap<i128, u128> = HashMap::with_capacity(self.mass.len());
        for &(v1, c1) in &self.mass {
            for &(v2, c2) in &other.mass {
                let v = v1
                    .checked_add(v2)
                    .ok_or(PmfOverflow { reason: "value overflow in convolve" })?;
                *acc.entry(v).or_insert(0) += c1 * c2;
            }
        }
        ErrorPmf::from_counts(acc, denom_bits)
    }
}

/// A certified envelope of an error distribution: hard support bounds, a
/// mean bracket, a mean-|e| ceiling and an error-rate ceiling. Always
/// representable, always sound — the fallback target whenever an exact
/// PMF is unavailable (dependent sources, overflowing convolutions,
/// budget-limited symbolic passes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorInterval {
    /// `e ≥ lo` for every input.
    pub lo: i128,
    /// `e ≤ hi` for every input.
    pub hi: i128,
    /// `E[e] ≥ mean_lo` under uniform inputs.
    pub mean_lo: f64,
    /// `E[e] ≤ mean_hi` under uniform inputs.
    pub mean_hi: f64,
    /// `E[|e|] ≤ mean_abs_hi` under uniform inputs.
    pub mean_abs_hi: f64,
    /// `P[e ≠ 0] ≤ rate_hi` under uniform inputs.
    pub rate_hi: f64,
}

impl ErrorInterval {
    /// The interval of an exact (error-free) source.
    pub const ZERO: ErrorInterval =
        ErrorInterval { lo: 0, hi: 0, mean_lo: 0.0, mean_hi: 0.0, mean_abs_hi: 0.0, rate_hi: 0.0 };

    /// Collapses an exact PMF to its (tight) envelope.
    #[must_use]
    pub fn from_pmf(pmf: &ErrorPmf) -> Self {
        let mean = pmf.mean();
        ErrorInterval {
            lo: pmf.min(),
            hi: pmf.max(),
            mean_lo: mean,
            mean_hi: mean,
            mean_abs_hi: pmf.mean_abs(),
            rate_hi: pmf.p_nonzero(),
        }
    }

    /// The envelope implied by a distribution-free static [`ErrorBound`].
    #[must_use]
    pub fn from_bound(bound: &ErrorBound) -> Self {
        ErrorInterval {
            lo: -i128::try_from(bound.under).unwrap_or(i128::MAX),
            hi: i128::try_from(bound.over).unwrap_or(i128::MAX),
            mean_lo: -bound.mean_abs,
            mean_hi: bound.mean_abs,
            mean_abs_hi: bound.mean_abs,
            rate_hi: bound.error_rate_bound,
        }
    }

    /// Envelope of a sum of two error sources. Sound for *dependent*
    /// sources: support bounds add, the mean bracket adds exactly
    /// (linearity of expectation needs no independence), `E|·|` obeys the
    /// triangle inequality, the rate union-bounds.
    #[must_use]
    pub fn add(&self, other: &ErrorInterval) -> Self {
        ErrorInterval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
            mean_lo: self.mean_lo + other.mean_lo,
            mean_hi: self.mean_hi + other.mean_hi,
            mean_abs_hi: self.mean_abs_hi + other.mean_abs_hi,
            rate_hi: (self.rate_hi + other.rate_hi).min(1.0),
        }
    }

    /// Envelope of `e · 2^shift`.
    #[must_use]
    pub fn shifted(&self, shift: u32) -> Self {
        let w = (f64::from(shift)).exp2();
        ErrorInterval {
            lo: self.lo.saturating_mul(1i128 << shift.min(126)),
            hi: self.hi.saturating_mul(1i128 << shift.min(126)),
            mean_lo: self.mean_lo * w,
            mean_hi: self.mean_hi * w,
            mean_abs_hi: self.mean_abs_hi * w,
            rate_hi: self.rate_hi,
        }
    }

    /// Envelope of `count` replicated (possibly dependent) instances of
    /// this source accumulating into one value.
    #[must_use]
    pub fn replicated(&self, count: usize) -> Self {
        let k = count as i128;
        let kf = count as f64;
        ErrorInterval {
            lo: self.lo.saturating_mul(k),
            hi: self.hi.saturating_mul(k),
            mean_lo: self.mean_lo * kf,
            mean_hi: self.mean_hi * kf,
            mean_abs_hi: self.mean_abs_hi * kf,
            rate_hi: (self.rate_hi * kf).min(1.0),
        }
    }

    /// Envelope of `−e`.
    #[must_use]
    pub fn negated(&self) -> Self {
        ErrorInterval {
            lo: -self.hi,
            hi: -self.lo,
            mean_lo: -self.mean_hi,
            mean_hi: -self.mean_lo,
            mean_abs_hi: self.mean_abs_hi,
            rate_hi: self.rate_hi,
        }
    }

    /// Worst-case |error| admitted by the envelope.
    #[must_use]
    pub fn wce(&self) -> u128 {
        self.lo.unsigned_abs().max(self.hi.unsigned_abs())
    }
}

/// An error distribution in the calculus: either the *exact* PMF or a
/// certified interval envelope. Operations keep exactness as long as the
/// algebra permits and degrade soundly otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorModel {
    /// The exact distribution.
    Exact(ErrorPmf),
    /// A certified envelope.
    Interval(ErrorInterval),
}

impl ErrorModel {
    /// The model of an exact (error-free) source.
    #[must_use]
    pub fn zero() -> Self {
        ErrorModel::Exact(ErrorPmf::point(0))
    }

    /// `true` when the model carries the full exact distribution.
    #[must_use]
    pub fn is_exact_pmf(&self) -> bool {
        matches!(self, ErrorModel::Exact(_))
    }

    /// The exact PMF, when this model carries one.
    #[must_use]
    pub fn pmf(&self) -> Option<&ErrorPmf> {
        match self {
            ErrorModel::Exact(p) => Some(p),
            ErrorModel::Interval(_) => None,
        }
    }

    /// The (tight, for exact PMFs) interval envelope of the model.
    #[must_use]
    pub fn interval(&self) -> ErrorInterval {
        match self {
            ErrorModel::Exact(p) => ErrorInterval::from_pmf(p),
            ErrorModel::Interval(i) => *i,
        }
    }

    /// Model of `e · 2^shift`; exactness is preserved unless values
    /// overflow, in which case the envelope is kept.
    #[must_use]
    pub fn shifted(&self, shift: u32) -> Self {
        match self {
            ErrorModel::Exact(p) => match p.shifted(shift) {
                Ok(p) => ErrorModel::Exact(p),
                Err(_) => ErrorModel::Interval(ErrorInterval::from_pmf(p).shifted(shift)),
            },
            ErrorModel::Interval(i) => ErrorModel::Interval(i.shifted(shift)),
        }
    }

    /// Model of `−e`.
    #[must_use]
    pub fn negated(&self) -> Self {
        match self {
            ErrorModel::Exact(p) => ErrorModel::Exact(p.negated()),
            ErrorModel::Interval(i) => ErrorModel::Interval(i.negated()),
        }
    }

    /// Model of the sum of two *independent* sources: exact PMFs convolve
    /// (degrading on overflow); anything else combines as envelopes.
    #[must_use]
    pub fn add_independent(&self, other: &ErrorModel) -> Self {
        if let (ErrorModel::Exact(p), ErrorModel::Exact(q)) = (self, other) {
            if let Ok(conv) = p.convolve(q) {
                return ErrorModel::Exact(conv);
            }
        }
        ErrorModel::Interval(self.interval().add(&other.interval()))
    }

    /// Model of the sum of two possibly *dependent* sources. A
    /// deterministic (point-mass) side keeps the other side exact — adding
    /// a constant needs no independence; otherwise the sum is a certified
    /// envelope.
    #[must_use]
    pub fn add_dependent(&self, other: &ErrorModel) -> Self {
        match (self, other) {
            (ErrorModel::Exact(p), ErrorModel::Exact(q)) if q.support().len() == 1 => {
                let (v, _) = q.support()[0];
                match p.scaled(1).and_then(|p| {
                    ErrorPmf::from_counts(
                        p.support().iter().map(|&(w, c)| (w.saturating_add(v), c)),
                        p.denom_bits(),
                    )
                }) {
                    Ok(sum) => ErrorModel::Exact(sum),
                    Err(_) => ErrorModel::Interval(self.interval().add(&other.interval())),
                }
            }
            (ErrorModel::Exact(p), _) if p.support().len() == 1 => other.add_dependent(self),
            _ => ErrorModel::Interval(self.interval().add(&other.interval())),
        }
    }

    /// The carry-truncation operator: the datapath's raw value
    /// `exact + e` is reduced mod `2^bits`. `raw_max` is the caller's
    /// (structural) ceiling on the raw pre-truncation value; when it stays
    /// below `2^bits` no wrap can occur and the model is unchanged;
    /// otherwise a full-range wrap may subtract `2^bits`, which widens the
    /// model to a certified envelope (mirroring the static layer's wrap
    /// hazard term).
    #[must_use]
    pub fn wrap_truncated(&self, bits: u32, raw_max: u128) -> Self {
        let env = self.interval();
        let ceiling = 1u128 << bits;
        if raw_max < ceiling {
            return self.clone();
        }
        let wrap = i128::try_from(ceiling).unwrap_or(i128::MAX);
        let lo = env.lo.saturating_sub(wrap);
        let hi = env.hi;
        let wce = lo.unsigned_abs().max(hi.unsigned_abs()) as f64;
        ErrorModel::Interval(ErrorInterval {
            lo,
            hi,
            mean_lo: env.mean_lo - ceiling as f64,
            mean_hi: env.mean_hi,
            mean_abs_hi: wce,
            rate_hi: env.rate_hi,
        })
    }

    /// Collapses the model to the static bound domain: `over`/`under`
    /// from the envelope, `mean_abs` / `error_rate_bound` from the
    /// distribution-sensitive ceilings.
    #[must_use]
    pub fn to_error_bound(&self) -> ErrorBound {
        let env = self.interval();
        ErrorBound {
            over: env.hi.max(0).unsigned_abs(),
            under: (-env.lo).max(0).unsigned_abs(),
            mean_abs: env.mean_abs_hi,
            error_rate_bound: env.rate_hi.clamp(0.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(pmf: &ErrorPmf) -> u128 {
        pmf.support().iter().map(|&(_, c)| c).sum()
    }

    #[test]
    fn point_and_lift_conserve_mass() {
        let p = ErrorPmf::point(-3);
        assert_eq!(p.support(), &[(-3, 1)]);
        let lifted = p.lifted(5).unwrap();
        assert_eq!(lifted.denom_bits(), 5);
        assert_eq!(total(&lifted), 32);
        assert_eq!(lifted.mean(), -3.0);
    }

    #[test]
    fn convolve_is_exact_on_known_distributions() {
        // Two independent fair bits: sum is Binomial(2, 1/2).
        let bit = ErrorPmf::from_counts([(0, 1), (1, 1)], 1).unwrap();
        let sum = bit.convolve(&bit).unwrap();
        assert_eq!(sum.support(), &[(0, 1), (1, 2), (2, 1)]);
        assert_eq!(sum.denom_bits(), 2);
        assert_eq!(sum.mean(), 1.0);
        assert_eq!(sum.p_nonzero(), 0.75);
    }

    #[test]
    fn scale_shift_negate_behave() {
        let p = ErrorPmf::from_counts([(-1, 1), (0, 2), (2, 1)], 2).unwrap();
        let s = p.shifted(3).unwrap();
        assert_eq!((s.min(), s.max()), (-8, 16));
        assert_eq!(s.mean(), p.mean() * 8.0);
        let n = p.negated();
        assert_eq!((n.min(), n.max()), (-2, 1));
        assert_eq!(n.mean(), -p.mean());
        let z = p.scaled(0).unwrap();
        assert_eq!(z.support(), &[(0, 4)]);
    }

    #[test]
    fn overflow_degrades_not_panics() {
        let p = ErrorPmf::from_counts([(0, 1), (1, 1)], 1).unwrap();
        let deep = p.lifted(MAX_DENOM_BITS);
        assert_eq!(deep.unwrap_err().reason, "lift exceeds MAX_DENOM_BITS");
        let huge = ErrorPmf::point(i128::MAX / 2);
        assert!(huge.scaled(4).is_err());
    }

    #[test]
    fn interval_add_is_sound_for_dependent_sums() {
        let p = ErrorPmf::from_counts([(-1, 1), (1, 1)], 1).unwrap();
        let m = ErrorModel::Exact(p);
        // e + e (same source, fully dependent): true range is {−2, 2};
        // the dependent sum must contain it.
        let sum = m.add_dependent(&m);
        let env = sum.interval();
        assert!(env.lo <= -2 && env.hi >= 2);
        assert_eq!(env.mean_lo, 0.0);
        assert_eq!(env.mean_hi, 0.0);
        // An independent convolution would instead claim mass at 0.
        let conv = m.add_independent(&m);
        assert_eq!(conv.pmf().unwrap().count_of(0), 2);
    }

    #[test]
    fn wrap_truncation_mirrors_the_static_hazard() {
        let safe = ErrorModel::Exact(ErrorPmf::from_counts([(0, 3), (4, 1)], 2).unwrap());
        // raw_max < 2^8: unchanged.
        assert_eq!(safe.wrap_truncated(8, 204), safe);
        // raw_max ≥ 2^8: a wrap hazard must widen the lower end.
        let wrapped = safe.wrap_truncated(8, 259);
        assert!(!wrapped.is_exact_pmf());
        assert!(wrapped.interval().lo <= -(1i128 << 8) + 4);
        let b = wrapped.to_error_bound();
        assert!(b.under >= 252);
    }

    #[test]
    fn to_error_bound_round_trips_the_envelope() {
        let p = ErrorPmf::from_counts([(-5, 1), (0, 2), (3, 1)], 2).unwrap();
        let b = ErrorModel::Exact(p.clone()).to_error_bound();
        assert_eq!((b.over, b.under), (3, 5));
        assert!((b.mean_abs - p.mean_abs()).abs() < 1e-12);
        assert!((b.error_rate_bound - 0.5).abs() < 1e-12);
    }
}
