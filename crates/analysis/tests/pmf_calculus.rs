//! Seeded property tests for the error-PMF algebra and the compositional
//! calculus (`xlac_core::check` harness, reproducible via
//! `XLAC_CHECK_SEED` / `XLAC_CHECK_REPRO`).
//!
//! Four law families:
//!
//! * **Mass conservation** — every algebra operator (lift, shift, scale,
//!   negate, convolve) preserves `Σ counts = 2^denom_bits`, so a PMF
//!   always stays a probability distribution over its input space;
//! * **Mean linearity** — `E[·]` commutes with the operators exactly:
//!   convolution adds means, shifting scales by `2^s`, scaling by `k`,
//!   negation flips the sign;
//! * **Enumeration agreement** — at 4×4 and 8×8, randomly drawn Wallace /
//!   truncated / recursive configurations are checked against exhaustive
//!   enumeration of all `2^{2w}` operand pairs: exact models must match
//!   the error histogram point-for-point, interval models must contain
//!   every sample, the true mean and the true rate;
//! * **Wide-width soundness** — at 16×16 and 32×32 (enumeration
//!   impossible), ≥ 10⁵ seeded vectors per configuration all land inside
//!   the certified envelope.

use std::collections::BTreeMap;

use xlac_adders::FullAdderKind;
use xlac_analysis::symbolic::{
    recursive_calculus, truncated_calculus, wallace_calculus, CertifiedMetrics, ErrorPmf,
};
use xlac_core::check::{check_with, Config};
use xlac_core::prop_assert;
use xlac_core::rng::{DefaultRng, Rng, Xoshiro256StarStar};
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

fn config() -> Config {
    Config::from_env()
}

/// A random small PMF as raw counts: `denom_bits` and a split of the
/// total mass across a handful of support values. Any byte values are
/// valid (indices and widths reduce modulo their range), so shrinking
/// stays total.
type RawPmf = (u8, Vec<(i8, u8)>);

fn gen_raw_pmf() -> impl Fn(&mut DefaultRng) -> RawPmf {
    move |rng| {
        let denom_bits = rng.gen_range(1..=10u64) as u8;
        let n = rng.gen_range(1..=6u64) as usize;
        let pairs = (0..n).map(|_| (rng.gen::<i8>(), rng.gen::<u8>())).collect();
        (denom_bits, pairs)
    }
}

/// Deterministically converts the raw draw into a valid PMF: weights are
/// normalized so the counts sum to exactly `2^denom_bits`.
fn realize_pmf(raw: &RawPmf) -> ErrorPmf {
    let denom_bits = u32::from(raw.0 % 10) + 1;
    let total = 1u128 << denom_bits;
    let weights: Vec<u128> = raw.1.iter().map(|&(_, w)| u128::from(w) + 1).collect();
    let weight_sum: u128 = weights.iter().sum();
    let mut counts: Vec<u128> = weights.iter().map(|w| w * total / weight_sum).collect();
    let assigned: u128 = counts.iter().sum();
    counts[0] += total - assigned; // remainder to the first value
    let pairs = raw.1.iter().zip(&counts).map(|(&(v, _), &c)| (i128::from(v), c));
    ErrorPmf::from_counts(pairs, denom_bits).expect("counts sum to 2^denom_bits by construction")
}

fn mass_of(pmf: &ErrorPmf) -> u128 {
    pmf.support().iter().map(|&(_, c)| c).sum()
}

#[test]
fn algebra_operators_conserve_mass() {
    check_with("pmf mass conservation", &config(), gen_raw_pmf(), |raw| {
        let p = realize_pmf(raw);
        prop_assert!(mass_of(&p) == 1u128 << p.denom_bits(), "base PMF loses mass");
        let lifted = p.lifted(3).map_err(|e| e.to_string())?;
        prop_assert!(mass_of(&lifted) == 1u128 << lifted.denom_bits(), "lift loses mass");
        let shifted = p.shifted(2).map_err(|e| e.to_string())?;
        prop_assert!(mass_of(&shifted) == 1u128 << shifted.denom_bits(), "shift loses mass");
        let scaled = p.scaled(-3).map_err(|e| e.to_string())?;
        prop_assert!(mass_of(&scaled) == 1u128 << scaled.denom_bits(), "scale loses mass");
        let negated = p.negated();
        prop_assert!(mass_of(&negated) == 1u128 << negated.denom_bits(), "negate loses mass");
        let conv = p.convolve(&negated).map_err(|e| e.to_string())?;
        prop_assert!(mass_of(&conv) == 1u128 << conv.denom_bits(), "convolve loses mass");
        prop_assert!(conv.denom_bits() == 2 * p.denom_bits(), "convolution denominators multiply");
        Ok(())
    });
}

#[test]
fn means_are_linear_under_the_operators() {
    check_with(
        "pmf mean linearity",
        &config(),
        |rng: &mut DefaultRng| (gen_raw_pmf()(rng), gen_raw_pmf()(rng)),
        |(raw_p, raw_q)| {
            let (p, q) = (realize_pmf(raw_p), realize_pmf(raw_q));
            let tol = 1e-9 * (1.0 + p.mean().abs() + q.mean().abs());
            let conv = p.convolve(&q).map_err(|e| e.to_string())?;
            prop_assert!(
                (conv.mean() - (p.mean() + q.mean())).abs() < tol,
                "convolution must add means: {} vs {} + {}",
                conv.mean(),
                p.mean(),
                q.mean()
            );
            let shifted = p.shifted(3).map_err(|e| e.to_string())?;
            prop_assert!(
                (shifted.mean() - 8.0 * p.mean()).abs() < 8.0 * tol,
                "shift by 3 must scale the mean by 8"
            );
            let scaled = p.scaled(-5).map_err(|e| e.to_string())?;
            prop_assert!(
                (scaled.mean() + 5.0 * p.mean()).abs() < 5.0 * tol,
                "scaling by -5 must scale the mean by -5"
            );
            prop_assert!(
                (p.negated().mean() + p.mean()).abs() < tol,
                "negation must flip the mean"
            );
            prop_assert!(
                (p.negated().mean_abs() - p.mean_abs()).abs() < tol,
                "negation must preserve the absolute mean"
            );
            Ok(())
        },
    );
}

/// One randomly drawn multiplier configuration at a fixed width,
/// certified by the matching calculus.
fn draw_certified(rng: &mut impl Rng, width: usize) -> (Box<dyn Multiplier>, CertifiedMetrics) {
    loop {
        match rng.gen_range(0..3u32) {
            0 => {
                let kinds = FullAdderKind::APPROXIMATE;
                let kind = kinds[rng.gen_range(0..kinds.len() as u64) as usize];
                // Cones past ~10 columns would push the symbolic pass
                // into its budget fallback; both regimes are exercised.
                let cols = rng.gen_range(0..=(width as u64).min(10)) as usize;
                let Ok(m) = WallaceMultiplier::new(width, kind, cols) else { continue };
                let certified = wallace_calculus(&m, None);
                return (Box::new(m), certified);
            }
            1 => {
                let dropped = rng.gen_range(0..=width as u64) as usize;
                let comp = rng.gen_range(0..2u32) == 1;
                let Ok(m) = TruncatedMultiplier::new(width, dropped, comp) else { continue };
                let certified = truncated_calculus(&m);
                return (Box::new(m), certified);
            }
            _ => {
                let blocks = Mul2x2Kind::ALL;
                let block = blocks[rng.gen_range(0..blocks.len() as u64) as usize];
                let sum = if rng.gen_range(0..2u32) == 0 {
                    SumMode::Accurate
                } else {
                    let kinds = FullAdderKind::APPROXIMATE;
                    SumMode::ApproxLsbs {
                        kind: kinds[rng.gen_range(0..kinds.len() as u64) as usize],
                        lsbs: rng.gen_range(1..=3u64) as usize,
                    }
                };
                let Ok(m) = RecursiveMultiplier::new(width, block, sum) else { continue };
                let certified = recursive_calculus(&m);
                return (Box::new(m), certified);
            }
        }
    }
}

/// The signed error of one sample, against the exact product.
fn sample_error(m: &dyn Multiplier, a: u64, b: u64) -> i128 {
    i128::from(m.mul(a, b)) - (u128::from(a) * u128::from(b)) as i128
}

#[test]
fn small_widths_agree_with_exhaustive_enumeration() {
    check_with(
        "calculus vs enumeration",
        &config().with_cases(24),
        |rng: &mut DefaultRng| (rng.gen::<u8>(), rng.next_u64()),
        |&(width_bit, seed)| {
            let width = if width_bit % 2 == 0 { 4 } else { 8 };
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let (m, certified) = draw_certified(&mut rng, width);
            prop_assert!(certified.width == width);

            let mask = (1u64 << width) - 1;
            let mut histogram: BTreeMap<i128, u128> = BTreeMap::new();
            let mut true_mean = 0.0f64;
            let mut nonzero = 0u64;
            for a in 0..=mask {
                for b in 0..=mask {
                    let e = sample_error(m.as_ref(), a, b);
                    *histogram.entry(e).or_insert(0) += 1;
                    true_mean += e as f64;
                    nonzero += u64::from(e != 0);
                }
            }
            let pairs = 1u128 << (2 * width);
            true_mean /= pairs as f64;
            let true_rate = nonzero as f64 / pairs as f64;
            let interval = certified.model.interval();

            if let Some(pmf) = certified.model.pmf() {
                // Exact model: the PMF must be the histogram, up to the
                // scale factor for operand bits outside the error cone.
                let scale = 1u128 << (2 * width as u32 - pmf.denom_bits());
                prop_assert!(
                    pmf.support().len() == histogram.len(),
                    "{}: support {} vs enumerated {}",
                    certified.name,
                    pmf.support().len(),
                    histogram.len()
                );
                for (&value, &count) in &histogram {
                    prop_assert!(
                        pmf.count_of(value) * scale == count,
                        "{}: count mismatch at error {value}",
                        certified.name
                    );
                }
            } else {
                // Interval model: must contain every enumerated point,
                // the true mean and the true rate.
                for &value in histogram.keys() {
                    prop_assert!(
                        interval.lo <= value && value <= interval.hi,
                        "{}: error {value} escapes [{}, {}]",
                        certified.name,
                        interval.lo,
                        interval.hi
                    );
                }
                prop_assert!(
                    interval.mean_lo - 1e-9 <= true_mean && true_mean <= interval.mean_hi + 1e-9,
                    "{}: true mean {true_mean} escapes [{}, {}]",
                    certified.name,
                    interval.mean_lo,
                    interval.mean_hi
                );
                prop_assert!(
                    true_rate <= interval.rate_hi + 1e-9,
                    "{}: true rate {true_rate} over bound {}",
                    certified.name,
                    interval.rate_hi
                );
            }
            let true_wce = histogram.keys().map(|v| v.unsigned_abs()).max().unwrap_or(0);
            prop_assert!(
                true_wce <= certified.wce_hi(),
                "{}: enumerated WCE {true_wce} over certified {}",
                certified.name,
                certified.wce_hi()
            );
            if let Some(exact) = certified.exact_wce() {
                prop_assert!(
                    exact == true_wce,
                    "{}: certified-exact WCE {exact} vs enumerated {true_wce}",
                    certified.name
                );
            }
            Ok(())
        },
    );
}

#[test]
fn wide_widths_are_sound_on_seeded_vectors() {
    // ≥ 10⁵ vectors across each width; enumeration is impossible at
    // 16×16 and 32×32, so the certified envelope is the only oracle and
    // every sample must respect it.
    const VECTORS_PER_CONFIG: usize = 25_000;
    const CONFIGS_PER_WIDTH: usize = 5;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xCA1C_0005);
    for width in [16usize, 32] {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        for _ in 0..CONFIGS_PER_WIDTH {
            let (m, certified) = draw_certified(&mut rng, width);
            let interval = certified.model.interval();
            for _ in 0..VECTORS_PER_CONFIG {
                let (a, b) = (rng.next_u64() & mask, rng.next_u64() & mask);
                let e = sample_error(m.as_ref(), a, b);
                assert!(
                    interval.lo <= e && e <= interval.hi,
                    "{} at a={a} b={b}: error {e} escapes [{}, {}]",
                    certified.name,
                    interval.lo,
                    interval.hi
                );
                assert!(
                    e.unsigned_abs() <= certified.wce_hi(),
                    "{} at a={a} b={b}: |error| {} over certified WCE {}",
                    certified.name,
                    e.unsigned_abs(),
                    certified.wce_hi()
                );
            }
        }
    }
}
