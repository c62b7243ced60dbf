//! Seeded input distributions for Monte-Carlo sweeps and exact PMF
//! analysis (ROADMAP item 3, the Masadeh methodology).
//!
//! Error metrics of approximate units shift materially with the operand
//! distribution — a truncated multiplier looks harmless under small
//! operands and terrible under large ones. The uniform-only sweeps the
//! workspace shipped through PR 9 cannot see that. [`InputDistribution`]
//! closes the gap with four seeded operand models:
//!
//! * [`InputDistribution::Uniform`] — the historical default. Consumes
//!   the RNG **byte-identically** to the PR 3 sweeps, so every existing
//!   differential/thread-invariance result and benchmark series is
//!   unchanged.
//! * [`InputDistribution::SumOfUniforms`] — the mean of `k` independent
//!   uniforms (Irwin–Hall), a Gaussian-like central bump for `k ≥ 2`.
//! * [`InputDistribution::ExponentialDecay`] — geometrically decaying
//!   mass over the top nibble (small operands dominate), the shape of
//!   DCT coefficients and residual data.
//! * [`InputDistribution::SparsePeaked`] — half the mass on one peak
//!   value (`2^(w−1)`), a quarter on zero, a quarter uniform: sparse
//!   signals with a dominant level.
//!
//! Every variant is **integer-only** (no `libm`, no floating-point
//! sampling), so draws are bit-reproducible across platforms, and every
//! variant has an **exact rational PMF** with a power-of-two denominator
//! ([`DistPmf`]): the exact per-distribution metrics the property tests
//! pin MC sweeps against are computed with integer weight arithmetic and
//! divided exactly once at the end.

use crate::bits;
use crate::error::{Result, XlacError};
use crate::rng::{DefaultRng, Rng};

/// Largest operand width with an exact PMF: the same `2w ≤ 16` cutoff as
/// the workspace's exhaustive/symbolic legs, applied per operand.
pub const MAX_PMF_WIDTH: usize = 8;

/// Number of high bits the [`InputDistribution::ExponentialDecay`] decay
/// acts on (the remaining low bits stay uniform).
const DECAY_BITS: usize = 4;

/// A seeded operand distribution for `w`-bit unsigned values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InputDistribution {
    /// Uniform over `[0, 2^w)` — the historical sweep default.
    #[default]
    Uniform,
    /// `floor((u_1 + … + u_k) / k)` for independent uniforms `u_i`
    /// (Irwin–Hall mean): a Gaussian-like bump centred at `2^(w−1)`.
    /// `k` is clamped to `1..=4` (`k = 1` degenerates to uniform).
    SumOfUniforms {
        /// Number of averaged uniforms (clamped to `1..=4`).
        k: u8,
    },
    /// Exponentially decaying mass over the top `DECAY_BITS` (4) bits:
    /// the high nibble is `min(trailing_ones(r), 15)` of a uniform word
    /// (`P(g) = 2^-(g+1)`, remainder mass on 15), low bits uniform.
    /// Small operands dominate — the shape of transform coefficients.
    ExponentialDecay,
    /// A 2-bit selector: probability 1/2 the peak value `2^(w−1)`,
    /// 1/4 exactly zero, 1/4 uniform over `[0, 2^w)`.
    SparsePeaked,
}

impl InputDistribution {
    /// The distributions a combined-space sweep reports on: uniform plus
    /// the three non-uniform families.
    pub const ALL: [InputDistribution; 4] = [
        InputDistribution::Uniform,
        InputDistribution::SumOfUniforms { k: 4 },
        InputDistribution::ExponentialDecay,
        InputDistribution::SparsePeaked,
    ];

    /// A short stable label for reports and JSON lines.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            InputDistribution::Uniform => "uniform".to_string(),
            InputDistribution::SumOfUniforms { .. } => {
                format!("sum_of_uniforms_k{}", self.k_clamped())
            }
            InputDistribution::ExponentialDecay => "exponential_decay".to_string(),
            InputDistribution::SparsePeaked => "sparse_peaked".to_string(),
        }
    }

    /// The effective `k` of the Irwin–Hall variant (`1` elsewhere),
    /// clamped so both the sampler and the PMF stay total and agree.
    fn k_clamped(&self) -> u64 {
        match self {
            InputDistribution::SumOfUniforms { k } => u64::from(*k).clamp(1, 4),
            _ => 1,
        }
    }

    /// Draws one 64-lane batch of `width`-bit operands.
    ///
    /// The `Uniform` arm performs exactly one `fill_u64` over the batch —
    /// the same consumption as the PR 3 sweeps, preserving every recorded
    /// uniform statistic bit for bit. Non-uniform arms consume more
    /// words, but identically so between the bit-sliced and scalar sweep
    /// twins (both call this function), so the equal-by-construction
    /// differential contract holds for every variant.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero or exceeds 64 (enforced upstream by
    /// every unit constructor).
    #[must_use]
    pub fn draw_batch(&self, rng: &mut DefaultRng, width: usize) -> [u64; 64] {
        assert!((1..=64).contains(&width), "operand width {width} out of range");
        match self {
            InputDistribution::Uniform => {
                let mut v = [0u64; 64];
                rng.fill_u64(&mut v);
                for x in &mut v {
                    *x = bits::truncate(*x, width);
                }
                v
            }
            InputDistribution::SumOfUniforms { .. } => {
                // The sum of k ≤ 4 words needs up to 66 bits: accumulate in
                // u128; the mean fits a word again.
                let k = self.k_clamped();
                let mut acc = [0u128; 64];
                let mut draw = [0u64; 64];
                for _ in 0..k {
                    rng.fill_u64(&mut draw);
                    for (a, d) in acc.iter_mut().zip(&draw) {
                        *a += u128::from(bits::truncate(*d, width));
                    }
                }
                acc.map(|a| {
                    u64::try_from(a / u128::from(k)).expect("the mean of k words fits a word")
                })
            }
            InputDistribution::ExponentialDecay => {
                let hb = DECAY_BITS.min(width);
                let gmax = (1u64 << hb) - 1;
                let mut geo = [0u64; 64];
                let mut low = [0u64; 64];
                rng.fill_u64(&mut geo);
                rng.fill_u64(&mut low);
                let mut v = [0u64; 64];
                for j in 0..64 {
                    let g = u64::from(geo[j].trailing_ones()).min(gmax);
                    v[j] = (g << (width - hb)) | bits::truncate(low[j], width - hb);
                }
                v
            }
            InputDistribution::SparsePeaked => {
                let mut sel = [0u64; 64];
                let mut uni = [0u64; 64];
                rng.fill_u64(&mut sel);
                rng.fill_u64(&mut uni);
                std::array::from_fn(|j| sparse_peaked(sel[j], uni[j], width))
            }
        }
    }

    /// The exact PMF over `[0, 2^width)` as integer weights with a
    /// power-of-two denominator (`weights[v] / 2^shift`). Exactly the
    /// distribution [`InputDistribution::draw_batch`] samples.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidWidth`] when `width` is zero or
    /// exceeds [`MAX_PMF_WIDTH`] — beyond that, exact per-pair analysis
    /// is out of reach anyway and sweeps should use Monte-Carlo.
    pub fn pmf(&self, width: usize) -> Result<DistPmf> {
        if width == 0 || width > MAX_PMF_WIDTH {
            return Err(XlacError::InvalidWidth { width, max: MAX_PMF_WIDTH });
        }
        let n = 1usize << width;
        let (shift, weights) = match self {
            InputDistribution::Uniform => (width as u32, vec![1u128; n]),
            InputDistribution::SumOfUniforms { .. } => {
                let k = self.k_clamped() as usize;
                // Iterated convolution of k uniform PMFs (integer counts),
                // then the floor-divide-by-k value map.
                let mut counts = vec![1u128; n];
                for _ in 1..k {
                    let mut next = vec![0u128; counts.len() + n - 1];
                    for (s, &c) in counts.iter().enumerate() {
                        for t in 0..n {
                            next[s + t] += c;
                        }
                    }
                    counts = next;
                }
                let mut weights = vec![0u128; n];
                for (s, &c) in counts.iter().enumerate() {
                    weights[s / k] += c;
                }
                ((k * width) as u32, weights)
            }
            InputDistribution::ExponentialDecay => {
                let hb = DECAY_BITS.min(width);
                let gmax = (1u64 << hb) - 1;
                let low_bits = width - hb;
                let mut weights = vec![0u128; n];
                for g in 0..=gmax {
                    // P(g) = 2^-(g+1), remainder mass on gmax.
                    let numer = if g == gmax { 1u128 } else { 1u128 << (gmax - g - 1) };
                    for low in 0..(1u64 << low_bits) {
                        weights[((g << low_bits) | low) as usize] = numer;
                    }
                }
                (u32::try_from(gmax).expect("gmax <= 15") + low_bits as u32, weights)
            }
            InputDistribution::SparsePeaked => {
                let mut weights = vec![1u128; n];
                weights[0] += 1u128 << width;
                weights[1 << (width - 1)] += 1u128 << (width + 1);
                (width as u32 + 2, weights)
            }
        };
        debug_assert_eq!(weights.iter().sum::<u128>(), 1u128 << shift);
        Ok(DistPmf { width, shift, weights })
    }
}

/// One [`InputDistribution::SparsePeaked`] lane from its selector and
/// uniform words: `sel & 3` of 0 or 1 gives the peak `2^(width−1)`, 2
/// gives zero, 3 the uniform word. Mask selects, not a branch: the
/// selector is random, so a `match` mispredicts about half the time.
#[inline]
fn sparse_peaked(sel: u64, uni: u64, width: usize) -> u64 {
    let hi = (sel >> 1) & 1;
    let peak_mask = hi.wrapping_sub(1); // all-ones when sel & 3 < 2
    let uni_mask = 0u64.wrapping_sub(hi & sel); // all-ones when sel & 3 == 3
    ((1u64 << (width - 1)) & peak_mask) | (bits::truncate(uni, width) & uni_mask)
}

/// An exact rational PMF over `[0, 2^width)`: value `v` has probability
/// `weights[v] / 2^shift`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistPmf {
    /// Operand width in bits.
    pub width: usize,
    /// Log2 of the common denominator.
    pub shift: u32,
    /// Integer numerators, indexed by value; they sum to `2^shift`.
    pub weights: Vec<u128>,
}

impl DistPmf {
    /// Probability of value `v` as a float (for reports; exact metrics
    /// sum the integer weights and divide once).
    #[must_use]
    pub fn prob(&self, v: u64) -> f64 {
        let w = self.weights.get(v as usize).copied().unwrap_or(0);
        w as f64 / self.denominator()
    }

    /// The common denominator `2^shift` as a float.
    #[must_use]
    pub fn denominator(&self) -> f64 {
        (self.shift as f64).exp2()
    }

    /// The exact mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let num: u128 = self.weights.iter().enumerate().map(|(v, &w)| w * v as u128).sum();
        num as f64 / self.denominator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pmf_is_total_and_normalized() {
        for dist in InputDistribution::ALL {
            for width in [1usize, 2, 4, 7, 8] {
                let pmf = dist.pmf(width).unwrap();
                assert_eq!(pmf.weights.len(), 1 << width, "{dist:?} w={width}");
                assert_eq!(
                    pmf.weights.iter().sum::<u128>(),
                    1u128 << pmf.shift,
                    "{dist:?} w={width}: PMF must sum to 1"
                );
                // Full support: the MC and exact legs see the same WCE.
                assert!(pmf.weights.iter().all(|&w| w > 0), "{dist:?} w={width}: zero-mass value");
            }
        }
    }

    /// The per-lane `match` the mask select replaced, kept as its oracle.
    fn sparse_peaked_match(sel: u64, uni: u64, width: usize) -> u64 {
        match sel & 3 {
            0 | 1 => 1u64 << (width - 1),
            2 => 0,
            _ => bits::truncate(uni, width),
        }
    }

    #[test]
    fn sparse_peaked_mask_select_matches_the_match_at_every_width() {
        let mut rng = DefaultRng::seed_from_u64(0x5E1E);
        for width in 1..=64 {
            for _ in 0..64 {
                let (sel, uni) = (rng.next_u64(), rng.next_u64());
                for s in 0..4 {
                    let sel = (sel & !3) | s;
                    assert_eq!(
                        sparse_peaked(sel, uni, width),
                        sparse_peaked_match(sel, uni, width),
                        "w={width} sel={sel:#x}"
                    );
                }
            }
            // The batch draw agrees lane for lane, from the same stream.
            let mut a = DefaultRng::seed_from_u64(width as u64);
            let mut b = DefaultRng::seed_from_u64(width as u64);
            let batch = InputDistribution::SparsePeaked.draw_batch(&mut a, width);
            let (mut sel, mut uni) = ([0u64; 64], [0u64; 64]);
            b.fill_u64(&mut sel);
            b.fill_u64(&mut uni);
            for j in 0..64 {
                assert_eq!(batch[j], sparse_peaked_match(sel[j], uni[j], width), "w={width}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "w={width}: same RNG consumption");
        }
    }

    #[test]
    fn sum_of_uniforms_does_not_overflow_at_full_width() {
        for k in 1u8..=4 {
            let dist = InputDistribution::SumOfUniforms { k };
            for width in [63usize, 64] {
                let mut a = DefaultRng::seed_from_u64(0x5011 + u64::from(k));
                let mut b = a.clone();
                let batch = dist.draw_batch(&mut a, width);
                // u128 reference: the floor of the exact mean.
                let mut sum = [0u128; 64];
                let mut draw = [0u64; 64];
                for _ in 0..k {
                    b.fill_u64(&mut draw);
                    for (s, &d) in sum.iter_mut().zip(&draw) {
                        *s += u128::from(bits::truncate(d, width));
                    }
                }
                for (j, &s) in sum.iter().enumerate() {
                    assert_eq!(u128::from(batch[j]), s / u128::from(k), "k={k} w={width} lane {j}");
                }
                assert!(batch.iter().all(|&v| v <= bits::mask(width)), "k={k} w={width}");
            }
        }
    }

    #[test]
    fn pmf_width_is_gated() {
        for dist in InputDistribution::ALL {
            assert!(dist.pmf(0).is_err());
            assert!(dist.pmf(MAX_PMF_WIDTH + 1).is_err());
            assert!(dist.pmf(MAX_PMF_WIDTH).is_ok());
        }
    }

    #[test]
    fn uniform_draw_batch_consumes_one_fill_per_batch() {
        // The historical operand discipline: one fill_u64 over the
        // 64-lane array, truncated. Anything else silently changes every
        // recorded uniform sweep statistic.
        let mut a = DefaultRng::seed_from_u64(0xD157);
        let mut b = DefaultRng::seed_from_u64(0xD157);
        let batch = InputDistribution::Uniform.draw_batch(&mut a, 8);
        let mut manual = [0u64; 64];
        b.fill_u64(&mut manual);
        for (x, m) in batch.iter().zip(&manual) {
            assert_eq!(*x, m & 0xFF);
        }
        // Both generators are now at the same stream position.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn draws_stay_in_range_and_match_their_pmf_shape() {
        for dist in InputDistribution::ALL {
            let mut rng = DefaultRng::seed_from_u64(0x5EED);
            let mut counts = vec![0u64; 256];
            for _ in 0..512 {
                for v in dist.draw_batch(&mut rng, 8) {
                    assert!(v < 256, "{dist:?}: {v} out of range");
                    counts[v as usize] += 1;
                }
            }
            let total: u64 = counts.iter().sum();
            let pmf = dist.pmf(8).unwrap();
            // Coarse shape agreement on an aggregate statistic: the
            // empirical mean within 2% of the full range of the exact.
            let emp_mean =
                counts.iter().enumerate().map(|(v, &c)| v as f64 * c as f64).sum::<f64>()
                    / total as f64;
            assert!(
                (emp_mean - pmf.mean()).abs() < 0.02 * 256.0,
                "{dist:?}: empirical mean {emp_mean} vs exact {}",
                pmf.mean()
            );
        }
    }

    #[test]
    fn sparse_peaked_hits_its_atoms() {
        let pmf = InputDistribution::SparsePeaked.pmf(8).unwrap();
        assert!((pmf.prob(128) - (0.5 + 1.0 / 1024.0)).abs() < 1e-12);
        assert!((pmf.prob(0) - (0.25 + 1.0 / 1024.0)).abs() < 1e-12);
        assert!((pmf.prob(7) - 1.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_decay_mass_decreases_geometrically() {
        let pmf = InputDistribution::ExponentialDecay.pmf(8).unwrap();
        // P(high nibble = g) halves with each step until the tail bucket.
        for g in 0..14u64 {
            let pg: f64 = (0..16).map(|low| pmf.prob((g << 4) | low)).sum();
            let pn: f64 = (0..16).map(|low| pmf.prob(((g + 1) << 4) | low)).sum();
            assert!((pg - 2.0 * pn).abs() < 1e-12, "nibble {g}");
        }
    }

    #[test]
    fn sum_of_uniforms_is_symmetric_and_centred() {
        let pmf = InputDistribution::SumOfUniforms { k: 4 }.pmf(8).unwrap();
        let mean = pmf.mean();
        assert!((mean - 127.125).abs() < 0.5, "mean {mean}");
        // The bump: centre values carry far more mass than the extremes.
        assert!(pmf.prob(127) > 20.0 * pmf.prob(0));
    }

    #[test]
    fn degenerate_k_values_are_clamped_identically_in_both_legs() {
        for k in [0u8, 1, 200] {
            let dist = InputDistribution::SumOfUniforms { k };
            let pmf = dist.pmf(4).unwrap();
            assert_eq!(pmf.weights.iter().sum::<u128>(), 1u128 << pmf.shift);
            let mut rng = DefaultRng::seed_from_u64(1);
            for v in dist.draw_batch(&mut rng, 4) {
                assert!(v < 16);
            }
        }
    }

    #[test]
    fn mean_rounds_its_numerator_once() {
        // Numerator 2^64 + 2^63 + 2^11 + 1 over a denominator of 1: the
        // exactly rounded quotient, not the sum of a rounded low word and
        // the high word.
        let numerator = (1u128 << 64) + (1u128 << 63) + (1u128 << 11) + 1;
        let pmf = DistPmf { width: 1, shift: 0, weights: vec![0, numerator] };
        assert_eq!(pmf.mean().to_bits(), (numerator as f64).to_bits());
        assert_eq!(pmf.mean(), 27_670_116_110_564_330_000.0);
        assert_eq!(pmf.prob(1).to_bits(), pmf.mean().to_bits());
    }
}
