//! Error statistics for approximate operators.
//!
//! Approximate-computing papers report a small, standard set of quality
//! figures: *error rate* (fraction of inputs producing a wrong output),
//! *error distance* statistics (mean / max of `|approx − exact|`, after
//! Liang et al.), *mean relative error distance* (MRED) and *error bias*
//! (signed mean, which determines whether a consolidated correction offset
//! exists — see the CEC unit in `xlac-accel`).
//!
//! [`ErrorStats`] gathers all of them in one pass, from any stream of
//! `(exact, approximate)` pairs. The [`exhaustive_binary`] and
//! [`sampled_binary`] helpers drive 2-operand units over their full or
//! sampled input space.
//!
//! # Example
//!
//! ```
//! use xlac_core::metrics::{exhaustive_binary, ErrorStats};
//!
//! // A 4-bit adder that drops the carry into bit 2 (toy example).
//! let approx = |a: u64, b: u64| ((a + b) & 0b11) | (((a >> 2) + (b >> 2)) << 2);
//! let exact = |a: u64, b: u64| a + b;
//! let stats = exhaustive_binary(4, 4, exact, approx);
//! assert!(stats.error_rate > 0.0 && stats.error_rate < 1.0);
//! ```

use crate::error::{Result, XlacError};
use crate::lanes::LANES;
use std::collections::BTreeSet;

/// Aggregate error statistics of an approximate operator versus its exact
/// reference.
///
/// All distances are computed on unsigned magnitudes
/// `|approx − exact|`; the signed mean (`mean_signed_error`) keeps the
/// direction for bias analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorStats {
    /// Number of `(exact, approx)` pairs observed.
    pub samples: u64,
    /// Number of pairs with `approx != exact`.
    pub error_count: u64,
    /// `error_count / samples`.
    pub error_rate: f64,
    /// Mean of `|approx − exact|` over all samples (erroneous or not).
    pub mean_error_distance: f64,
    /// Maximum of `|approx − exact|`.
    pub max_error_distance: u64,
    /// Mean of `(approx − exact)` — negative when the operator
    /// under-estimates on average.
    pub mean_signed_error: f64,
    /// Mean of `|approx − exact| / max(exact, 1)` (MRED).
    pub mean_relative_error: f64,
    /// The set of distinct nonzero error magnitudes observed. Bounded in
    /// size: the collector keeps the first [`ErrorStats::MAX_DISTINCT`]
    /// distinct magnitudes in stream order (for a chunked sweep, in trial
    /// order, since chunks merge in chunk order) and sets
    /// [`ErrorStats::distinct_saturated`] when it reaches the bound.
    pub distinct_error_values: BTreeSet<u64>,
    /// `true` when `distinct_error_values` stopped collecting.
    pub distinct_saturated: bool,
}

impl ErrorStats {
    /// Cap on the number of distinct error magnitudes tracked.
    pub const MAX_DISTINCT: usize = 4096;

    /// Gathers statistics from an iterator of `(exact, approximate)` pairs.
    ///
    /// An empty iterator yields the all-zero statistics of a perfect
    /// operator over zero samples (use [`ErrorStats::try_from_pairs`] to
    /// treat that as an error instead).
    #[must_use]
    pub fn from_pairs<I: IntoIterator<Item = (u64, u64)>>(pairs: I) -> Self {
        let mut acc = ErrorAccumulator::new();
        for (exact, approx) in pairs {
            acc.push(exact, approx);
        }
        acc.finish()
    }

    /// Like [`ErrorStats::from_pairs`] but rejects an empty input.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::EmptyInput`] when the iterator yields nothing.
    pub fn try_from_pairs<I: IntoIterator<Item = (u64, u64)>>(pairs: I) -> Result<Self> {
        let stats = Self::from_pairs(pairs);
        if stats.samples == 0 {
            Err(XlacError::EmptyInput("error statistics sample stream"))
        } else {
            Ok(stats)
        }
    }

    /// Accuracy percentage `(1 − error_rate) · 100`, the figure Table IV of
    /// the paper reports for GeAr configurations.
    #[must_use]
    pub fn accuracy_percent(&self) -> f64 {
        (1.0 - self.error_rate) * 100.0
    }

    /// `true` when the operator never erred on the observed samples.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.error_count == 0
    }
}

/// A mergeable, streaming collector of the [`ErrorStats`] figures.
///
/// [`ErrorStats::from_pairs`] consumes one stream in one pass; parallel
/// sweeps (the `xlac-sim` chunked runner) instead accumulate one
/// `ErrorAccumulator` per chunk, 64 lanes per
/// [`push_lanes`](ErrorAccumulator::push_lanes) call, and
/// [`merge`](ErrorAccumulator::merge) the partials **in chunk order**.
/// The error count and the distance and signed-error sums are integers
/// (`u128`/`i128`, divided once in [`finish`](ErrorAccumulator::finish)),
/// so MED and bias are exact and independent of the merge order. The MRED
/// sum is the one floating-point figure: it is added in lane order and
/// merged in chunk order, which makes the final figures bitwise-identical
/// for any worker-thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorAccumulator {
    samples: u64,
    error_count: u64,
    sum_dist: u128,
    sum_signed: i128,
    sum_rel: f64,
    max_dist: u64,
    distinct: DistinctSet,
    saturated: bool,
}

/// A bounded set of distinct nonzero error magnitudes: a power-of-two
/// linear-probe table beside the members in insertion order.
///
/// Error-spectrum collection sits on the per-sample hot path of every
/// Monte-Carlo sweep; a probe table keeps membership checks at one
/// multiply and (usually) one cache line, where a `BTreeSet` insert costs
/// an allocating tree walk. The table starts empty, takes
/// [`DistinctSet::MIN_SLOTS`] slots on the first insert and doubles at half
/// load, up to `2 · MAX_DISTINCT` slots, so a chunk that sees a few hundred
/// magnitudes holds a few kilobytes, not the full-size table. `0` is the
/// empty-slot sentinel — magnitudes are nonzero by construction. Merging
/// and the sorted view read the insertion-order list, never the table.
#[derive(Debug, Clone, Default, PartialEq)]
struct DistinctSet {
    table: Vec<u64>,
    order: Vec<u64>,
}

impl DistinctSet {
    const MIN_SLOTS: usize = 64;

    /// Inserts a nonzero magnitude; returns `true` when it was new.
    /// Callers stop inserting at `MAX_DISTINCT` members, so the table
    /// stays within `2 · MAX_DISTINCT` slots and probing terminates.
    #[inline]
    fn insert(&mut self, dist: u64) -> bool {
        debug_assert_ne!(dist, 0);
        if 2 * self.order.len() >= self.table.len() {
            self.grow();
        }
        let i = self.slot(dist);
        if self.table[i] == dist {
            return false;
        }
        self.table[i] = dist;
        self.order.push(dist);
        true
    }

    /// The first slot probed for `dist`: the top bits of its Fibonacci
    /// hash. The table must be allocated.
    #[inline]
    fn home(&self, dist: u64) -> usize {
        let shift = 64 - self.table.len().trailing_zeros();
        (dist.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// `true` when `dist` is a member sitting in its home slot.
    #[inline]
    fn at_home(&self, dist: u64) -> bool {
        !self.table.is_empty() && self.table[self.home(dist)] == dist
    }

    /// The slot holding `dist`, or the free slot where it belongs.
    #[inline]
    fn slot(&self, dist: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = self.home(dist);
        while self.table[i] != 0 && self.table[i] != dist {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the table (or allocates the first one) and re-inserts the
    /// members in insertion order.
    #[cold]
    fn grow(&mut self) {
        let slots = (2 * self.table.len()).max(Self::MIN_SLOTS);
        debug_assert!(slots <= 2 * ErrorStats::MAX_DISTINCT);
        self.table = vec![0; slots];
        for &d in &self.order {
            let i = self.slot(d);
            self.table[i] = d;
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

impl ErrorAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pairs pushed so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Records one `(exact, approximate)` pair: the one-lane case of
    /// [`push_lanes`](ErrorAccumulator::push_lanes).
    #[inline]
    pub fn push(&mut self, exact: u64, approx: u64) {
        self.accumulate(&[exact], &[approx]);
    }

    /// Records the pairs `(exact[j], approx[j])` in lane order. The state
    /// afterwards equals that of calling [`push`](ErrorAccumulator::push)
    /// on each pair in turn; whole 64-lane blocks take one batched pass.
    ///
    /// # Panics
    ///
    /// Panics when the two slices differ in length.
    pub fn push_lanes(&mut self, exact: &[u64], approx: &[u64]) {
        assert_eq!(exact.len(), approx.len(), "one approximate value per exact value");
        let (exact_blocks, exact_rest) = exact.as_chunks::<LANES>();
        let (approx_blocks, approx_rest) = approx.as_chunks::<LANES>();
        for (e, a) in exact_blocks.iter().zip(approx_blocks) {
            self.accumulate(e, a);
        }
        for (&e, &a) in exact_rest.iter().zip(approx_rest) {
            self.accumulate(&[e], &[a]);
        }
    }

    /// The one accumulation path, over `N` lanes. A block with a wrong
    /// lane takes one branch-free pass that keeps the sums, the maximum
    /// and the MRED sum (in lane order) in locals and compacts the nonzero
    /// magnitudes to the front of `wrong`; the distinct set then sees only
    /// those.
    #[inline]
    fn accumulate<const N: usize>(&mut self, exact: &[u64; N], approx: &[u64; N]) {
        self.samples += N as u64;
        // An exact lane adds 0 to every integer sum and +0.0 to the
        // non-negative MRED sum, which leaves it unchanged bit for bit, so
        // a block without a wrong lane changes nothing else.
        if exact == approx {
            return;
        }
        let (mut sum_dist, mut sum_signed) = (0u128, 0i128);
        let (mut sum_rel, mut max_dist) = (self.sum_rel, self.max_dist);
        let (mut wrong, mut n_wrong) = ([0u64; N], 0);
        for (&e, &a) in exact.iter().zip(approx) {
            let dist = e.abs_diff(a);
            sum_dist += u128::from(dist);
            sum_signed += i128::from(a) - i128::from(e);
            max_dist = max_dist.max(dist);
            sum_rel += dist as f64 / e.max(1) as f64;
            wrong[n_wrong] = dist;
            n_wrong += usize::from(dist != 0);
        }
        self.error_count += n_wrong as u64;
        self.sum_dist += sum_dist;
        self.sum_signed += sum_signed;
        self.sum_rel = sum_rel;
        self.max_dist = max_dist;
        if self.saturated {
            return;
        }
        // Members found in their home slot need nothing more; only the
        // rest (new magnitudes and displaced members) take the probing
        // insert, still in lane order.
        let mut n_rest = 0;
        for j in 0..n_wrong {
            let d = wrong[j];
            wrong[n_rest] = d;
            n_rest += usize::from(!self.distinct.at_home(d));
        }
        if n_rest > 0 {
            self.collect_distinct(&wrong[..n_rest]);
        }
    }

    /// Adds nonzero magnitudes to the distinct set in order, until it
    /// holds [`ErrorStats::MAX_DISTINCT`] members.
    fn collect_distinct(&mut self, dists: &[u64]) {
        if self.saturated {
            return;
        }
        for &d in dists {
            if self.distinct.insert(d) && self.distinct.len() >= ErrorStats::MAX_DISTINCT {
                self.saturated = true;
                return;
            }
        }
    }

    /// Folds another accumulator into this one.
    ///
    /// The counts and integer sums merge exactly, in any order. The MRED
    /// sum is floating point, so merging partials in a fixed (e.g.
    /// chunk-index) order keeps it independent of which thread produced
    /// which partial. `other`'s distinct magnitudes join this set in their
    /// insertion order, so merging chunk partials in chunk order keeps the
    /// first [`ErrorStats::MAX_DISTINCT`] distinct magnitudes in trial
    /// order — the set one accumulator over the whole stream keeps.
    pub fn merge(&mut self, other: &ErrorAccumulator) {
        self.samples += other.samples;
        self.error_count += other.error_count;
        self.sum_dist += other.sum_dist;
        self.sum_signed += other.sum_signed;
        self.sum_rel += other.sum_rel;
        self.max_dist = self.max_dist.max(other.max_dist);
        self.collect_distinct(&other.distinct.order);
        // If either side stopped collecting, the union may be incomplete.
        self.saturated |= other.saturated;
    }

    /// Finalizes the accumulated figures into [`ErrorStats`].
    ///
    /// Zero samples finalize to the explicit all-zero statistics — the
    /// rates and means are defined as `0.0`, never computed as `0/0`
    /// (which would leak `NaN` into JSON reports downstream).
    #[must_use]
    pub fn finish(&self) -> ErrorStats {
        if self.samples == 0 {
            return ErrorStats {
                samples: 0,
                error_count: 0,
                error_rate: 0.0,
                mean_error_distance: 0.0,
                max_error_distance: 0,
                mean_signed_error: 0.0,
                mean_relative_error: 0.0,
                distinct_error_values: BTreeSet::new(),
                distinct_saturated: false,
            };
        }
        let n = self.samples as f64;
        ErrorStats {
            samples: self.samples,
            error_count: self.error_count,
            error_rate: self.error_count as f64 / n,
            mean_error_distance: self.sum_dist as f64 / n,
            max_error_distance: self.max_dist,
            mean_signed_error: self.sum_signed as f64 / n,
            mean_relative_error: self.sum_rel / n,
            distinct_error_values: self.distinct.order.iter().copied().collect(),
            distinct_saturated: self.saturated,
        }
    }
}

/// Exhaustively evaluates a 2-operand unit over all
/// `2^width_a · 2^width_b` input pairs.
///
/// Suitable for widths up to ~12+12 bits (16 M pairs); beyond that use
/// [`sampled_binary`].
///
/// # Panics
///
/// Panics if `width_a + width_b > 30` (guard against accidental 2^40+ loops).
pub fn exhaustive_binary<E, A>(
    width_a: usize,
    width_b: usize,
    mut exact: E,
    mut approx: A,
) -> ErrorStats
where
    E: FnMut(u64, u64) -> u64,
    A: FnMut(u64, u64) -> u64,
{
    assert!(
        width_a + width_b <= 30,
        "exhaustive space 2^{} too large; use sampled_binary",
        width_a + width_b
    );
    let na = 1u64 << width_a;
    let nb = 1u64 << width_b;
    ErrorStats::from_pairs(
        (0..na)
            .flat_map(|a| (0..nb).map(move |b| (a, b)))
            .map(|(a, b)| (exact(a, b), approx(a, b))),
    )
}

/// Evaluates a 2-operand unit on `samples` uniformly random input pairs.
pub fn sampled_binary<E, A, R>(
    width_a: usize,
    width_b: usize,
    samples: u64,
    rng: &mut R,
    mut exact: E,
    mut approx: A,
) -> ErrorStats
where
    E: FnMut(u64, u64) -> u64,
    A: FnMut(u64, u64) -> u64,
    R: crate::rng::Rng,
{
    let ma = crate::bits::mask(width_a);
    let mb = crate::bits::mask(width_b);
    ErrorStats::from_pairs((0..samples).map(|_| {
        let a = rng.next_u64() & ma;
        let b = rng.next_u64() & mb;
        (exact(a, b), approx(a, b))
    }))
}

/// Exhaustively evaluates a 1-operand unit over all `2^width` inputs.
///
/// # Panics
///
/// Panics if `width > 24`.
pub fn exhaustive_unary<E, A>(width: usize, mut exact: E, mut approx: A) -> ErrorStats
where
    E: FnMut(u64) -> u64,
    A: FnMut(u64) -> u64,
{
    assert!(width <= 24, "exhaustive space 2^{width} too large");
    ErrorStats::from_pairs((0..(1u64 << width)).map(|x| (exact(x), approx(x))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{DefaultRng, Rng};

    #[test]
    fn perfect_operator_has_zero_errors() {
        let s = exhaustive_binary(4, 4, |a, b| a + b, |a, b| a + b);
        assert_eq!(s.samples, 256);
        assert!(s.is_exact());
        assert_eq!(s.error_rate, 0.0);
        assert_eq!(s.accuracy_percent(), 100.0);
        assert!(s.distinct_error_values.is_empty());
    }

    #[test]
    fn constant_offset_operator() {
        // approx = exact + 3 on every input.
        let s = ErrorStats::from_pairs((0u64..100).map(|x| (x, x + 3)));
        assert_eq!(s.error_rate, 1.0);
        assert_eq!(s.mean_error_distance, 3.0);
        assert_eq!(s.max_error_distance, 3);
        assert_eq!(s.mean_signed_error, 3.0);
        assert_eq!(s.distinct_error_values.len(), 1);
        assert!(s.distinct_error_values.contains(&3));
    }

    #[test]
    fn underestimating_operator_has_negative_bias() {
        let s = ErrorStats::from_pairs((10u64..20).map(|x| (x, x - 1)));
        assert_eq!(s.mean_signed_error, -1.0);
        assert_eq!(s.mean_error_distance, 1.0);
    }

    #[test]
    fn relative_error_uses_exact_denominator() {
        // exact = 4, approx = 5 → rel err 0.25.
        let s = ErrorStats::from_pairs([(4u64, 5u64)]);
        assert!((s.mean_relative_error - 0.25).abs() < 1e-12);
        // exact = 0 uses denominator 1.
        let s = ErrorStats::from_pairs([(0u64, 2u64)]);
        assert!((s.mean_relative_error - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_is_rejected_by_try_from() {
        assert!(ErrorStats::try_from_pairs(std::iter::empty()).is_err());
        let s = ErrorStats::from_pairs(std::iter::empty());
        assert_eq!(s.samples, 0);
        assert!(s.is_exact());
    }

    #[test]
    fn sampled_matches_exhaustive_for_simple_truncation() {
        // approx drops the LSB: error rate is exactly 1/2 under uniform
        // inputs (LSB of the sum is 1 half of the time).
        let exact = |a: u64, b: u64| a + b;
        let approx = |a: u64, b: u64| (a + b) & !1;
        let ex = exhaustive_binary(6, 6, exact, approx);
        let mut rng = DefaultRng::seed_from_u64(7);
        let sm = sampled_binary(6, 6, 40_000, &mut rng, exact, approx);
        assert!((ex.error_rate - 0.5).abs() < 1e-12);
        assert!((sm.error_rate - 0.5).abs() < 0.02);
    }

    #[test]
    fn exhaustive_unary_counts_all_inputs() {
        let s = exhaustive_unary(8, |x| x, |x| x ^ 1);
        assert_eq!(s.samples, 256);
        assert_eq!(s.error_rate, 1.0);
        assert_eq!(s.max_error_distance, 1);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exhaustive_binary_guards_width() {
        let _ = exhaustive_binary(16, 16, |a, _| a, |a, _| a);
    }

    #[test]
    fn zero_samples_finalize_to_explicit_zeros() {
        let stats = ErrorAccumulator::new().finish();
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.error_rate, 0.0);
        for figure in [
            stats.error_rate,
            stats.mean_error_distance,
            stats.mean_signed_error,
            stats.mean_relative_error,
        ] {
            assert!(figure == 0.0 && !figure.is_nan(), "0-sample figures must be exact zeros");
        }
        assert!(stats.distinct_error_values.is_empty());
        assert!(!stats.distinct_saturated);
        // Merging empties stays empty.
        let mut acc = ErrorAccumulator::new();
        acc.merge(&ErrorAccumulator::new());
        assert_eq!(acc.finish(), stats);
    }

    #[test]
    fn one_sample_statistics_are_well_defined() {
        let mut acc = ErrorAccumulator::new();
        acc.push(10, 13);
        let stats = acc.finish();
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.error_rate, 1.0);
        assert_eq!(stats.mean_error_distance, 3.0);
        assert_eq!(stats.max_error_distance, 3);
        assert_eq!(stats.mean_signed_error, 3.0);
        assert!((stats.mean_relative_error - 0.3).abs() < 1e-12);
    }

    /// Every field of the statistics, floats by bit pattern.
    fn bits(s: &ErrorStats) -> ((u64, u64, u64), [u64; 4], bool, Vec<u64>) {
        let counts = (s.samples, s.error_count, s.max_error_distance);
        let floats =
            [s.error_rate, s.mean_error_distance, s.mean_signed_error, s.mean_relative_error];
        let distinct = s.distinct_error_values.iter().copied().collect();
        (counts, floats.map(f64::to_bits), s.distinct_saturated, distinct)
    }

    /// The statistics of `pairs` computed directly: exact integer sums,
    /// the MRED sum in stream order and the first `MAX_DISTINCT` distinct
    /// nonzero magnitudes in stream order.
    fn oracle(pairs: &[(u64, u64)]) -> ErrorStats {
        if pairs.is_empty() {
            return ErrorAccumulator::new().finish();
        }
        let n = pairs.len() as f64;
        let dists: Vec<u64> = pairs.iter().map(|&(e, a)| e.abs_diff(a)).collect();
        let sum_dist: u128 = dists.iter().map(|&d| u128::from(d)).sum();
        let sum_signed: i128 = pairs.iter().map(|&(e, a)| i128::from(a) - i128::from(e)).sum();
        let rel = |&(e, a): &(u64, u64)| e.abs_diff(a) as f64 / e.max(1) as f64;
        let sum_rel = pairs.iter().fold(0.0, |sum, pair| sum + rel(pair));
        let mut seen = BTreeSet::new();
        for &d in dists.iter().filter(|&&d| d != 0) {
            if seen.len() < ErrorStats::MAX_DISTINCT {
                seen.insert(d);
            }
        }
        let error_count = dists.iter().filter(|&&d| d != 0).count() as u64;
        ErrorStats {
            samples: pairs.len() as u64,
            error_count,
            error_rate: error_count as f64 / n,
            mean_error_distance: sum_dist as f64 / n,
            max_error_distance: dists.iter().copied().max().unwrap_or(0),
            mean_signed_error: sum_signed as f64 / n,
            mean_relative_error: sum_rel / n,
            distinct_saturated: seen.len() >= ErrorStats::MAX_DISTINCT,
            distinct_error_values: seen,
        }
    }

    /// Feeds `pairs` to `push_lanes` in parts of the given lengths (the
    /// remainder as one last part) and checks the result against per-pair
    /// `push` and the direct [`oracle`]: the batched accumulator equals the
    /// per-pair one state for state, and the merged partials equal it on
    /// every figure but the MRED sum, whose floating-point rounding depends
    /// on where the stream was cut.
    fn check_splits(pairs: &[(u64, u64)], parts: &[usize]) -> crate::check::PropResult {
        let mut one = ErrorAccumulator::new();
        for &(e, a) in pairs {
            one.push(e, a);
        }
        crate::prop_assert_eq!(bits(&one.finish()), bits(&oracle(pairs)));
        let (exact, approx): (Vec<u64>, Vec<u64>) = pairs.iter().copied().unzip();
        let (mut batched, mut merged) = (ErrorAccumulator::new(), ErrorAccumulator::new());
        let mut at = 0;
        for len in parts.iter().copied().chain([pairs.len()]) {
            let end = (at + len).min(pairs.len());
            batched.push_lanes(&exact[at..end], &approx[at..end]);
            let mut part = ErrorAccumulator::new();
            part.push_lanes(&exact[at..end], &approx[at..end]);
            merged.merge(&part);
            at = end;
        }
        let (want, got) = (one.finish(), batched.finish());
        crate::prop_assert_eq!(bits(&got), bits(&want));
        crate::prop_assert!(batched == one, "push_lanes state differs from per-pair push");
        let mut merged = merged.finish();
        let rel = (merged.mean_relative_error - want.mean_relative_error).abs();
        if rel > 1e-9 * want.mean_relative_error {
            return Err(format!("merged MRED off by {rel}"));
        }
        merged.mean_relative_error = want.mean_relative_error;
        crate::prop_assert_eq!(bits(&merged), bits(&want));
        Ok(())
    }

    #[test]
    fn push_lanes_on_any_split_equals_per_pair_push() {
        // Magnitudes from a few ranges so streams mix exact lanes, repeated
        // errors, fresh ones and values next to u64::MAX.
        let value = |rng: &mut crate::check::DefaultRng| match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..8u64),
            1 => rng.gen_range(0..4096u64),
            2 => u64::MAX - rng.gen_range(0..4u64),
            _ => rng.gen::<u64>(),
        };
        crate::check::check(
            "push_lanes on any split equals per-pair push",
            |rng| {
                let n = rng.gen_range(0..300usize);
                let pairs: Vec<(u64, u64)> = (0..n)
                    .map(|_| {
                        let e = value(rng);
                        (e, if rng.gen_range(0..3u32) == 0 { e } else { value(rng) })
                    })
                    .collect();
                let lengths = [0, 1, 63, 64, 65, 130];
                let parts: Vec<usize> = (0..rng.gen_range(0..6usize))
                    .map(|_| lengths[rng.gen_range(0..lengths.len())])
                    .collect();
                (pairs, parts)
            },
            |(pairs, parts)| check_splits(pairs, parts),
        );
    }

    #[test]
    fn push_lanes_edge_batches_equal_per_pair_push() {
        let lanes = |n: u64, f: fn(u64) -> (u64, u64)| (0..n).map(f).collect::<Vec<_>>();
        for n in [0, 1, 63, 64] {
            check_splits(&lanes(n, |x| (x, x)), &[]).unwrap(); // all exact
            check_splits(&lanes(n, |x| (x, x + 1 + x % 5)), &[]).unwrap(); // all wrong
            check_splits(&lanes(n, |x| (u64::MAX - x, x)), &[]).unwrap(); // near u64::MAX
            check_splits(&lanes(n, |x| (x, u64::MAX - x)), &[1, 63]).unwrap();
        }
        // Saturation mid-batch: 4090 distinct magnitudes, then a batch of
        // 64 fresh ones, so the set fills at the batch's seventh lane.
        let stream = lanes(4090 + 64, |x| (0, x + 1));
        check_splits(&stream, &[4090, 64]).unwrap();
        check_splits(&stream, &[4000, 64, 64]).unwrap();
        let mut acc = ErrorAccumulator::new();
        let (exact, approx): (Vec<u64>, Vec<u64>) = stream.into_iter().unzip();
        acc.push_lanes(&exact[..4090], &approx[..4090]);
        assert!(!acc.finish().distinct_saturated);
        acc.push_lanes(&exact[4090..], &approx[4090..]);
        let stats = acc.finish();
        assert!(stats.distinct_saturated);
        assert_eq!(stats.distinct_error_values, (1..=4096).collect());
    }

    #[test]
    fn a_saturated_set_keeps_the_first_distinct_magnitudes_in_stream_order() {
        // 6000 distinct magnitudes in descending order, each seen twice:
        // the kept set is the first 4096 distinct ones (the largest), not
        // the smallest, whether one accumulator sees the stream or chunk
        // partials merge in chunk order.
        let stream: Vec<(u64, u64)> = (0..12_000u64).map(|i| (0, 6000 - i / 2)).collect();
        let want: BTreeSet<u64> = (6000 - 4095..=6000).collect();
        let whole = ErrorStats::from_pairs(stream.iter().copied());
        assert!(whole.distinct_saturated);
        assert_eq!(whole.distinct_error_values, want);
        let mut merged = ErrorAccumulator::new();
        for chunk in stream.chunks(1000) {
            let mut part = ErrorAccumulator::new();
            for &(e, a) in chunk {
                part.push(e, a);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.finish(), whole);
    }

    #[test]
    fn mean_and_bias_do_not_depend_on_merge_order_beyond_2_pow_53() {
        // Partial distance sums of 2^53 and above: an f64 running sum
        // rounds 2^53 + 1 back to 2^53, so its result depended on the
        // order partials were folded in. The integer sums do not round.
        let big = 1u64 << 53;
        let partial = |pairs: &[(u64, u64)]| {
            let mut acc = ErrorAccumulator::new();
            for &(e, a) in pairs {
                acc.push(e, a);
            }
            acc
        };
        // Distances 2^53, 1, 1, 1; signed errors +2^53, +1, +1, -1.
        let parts = [(0, big), (0, 1), (5, 6), (7, 6)].map(|pair| partial(&[pair]));
        let dists = [big, 1, 1, 1].map(|d| d as f64);
        let f64_fold = |order: [usize; 4]| order.iter().fold(0.0, |sum, &i| sum + dists[i]);
        assert_ne!(f64_fold([0, 1, 2, 3]), f64_fold([1, 2, 3, 0]), "f64 sums depend on order");
        let fold = |order: [usize; 4]| {
            let mut acc = ErrorAccumulator::new();
            for i in order {
                acc.merge(&parts[i]);
            }
            acc.finish()
        };
        let want_med = (big + 3) as f64 / 4.0;
        let want_bias = (big + 1) as f64 / 4.0;
        for order in [[0, 1, 2, 3], [1, 2, 3, 0], [3, 0, 2, 1], [2, 3, 1, 0]] {
            let s = fold(order);
            assert_eq!(s.mean_error_distance.to_bits(), want_med.to_bits(), "{order:?}");
            assert_eq!(s.mean_signed_error.to_bits(), want_bias.to_bits(), "{order:?}");
            assert_eq!((s.error_count, s.max_error_distance), (4, big));
        }
    }

    #[test]
    #[should_panic(expected = "one approximate value per exact value")]
    fn push_lanes_rejects_unequal_lengths() {
        ErrorAccumulator::new().push_lanes(&[1, 2], &[1]);
    }

    #[test]
    fn distinct_saturation_flag() {
        // 5000 distinct error magnitudes exceed the 4096 cap.
        let s = ErrorStats::from_pairs((0u64..5000).map(|x| (0, x + 1)));
        assert!(s.distinct_saturated);
        assert_eq!(s.distinct_error_values.len(), ErrorStats::MAX_DISTINCT);
    }
}
