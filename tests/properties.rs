//! Property-based tests on the core invariants of the
//! approximate-arithmetic library, running on the in-house harness
//! (`xlac_core::check`) — seeded case generation, env-configurable case
//! counts (`XLAC_CHECK_CASES`, `XLAC_CHECK_SEED`) and shrinking with a
//! replayable failure seed (`XLAC_CHECK_REPRO`).
//!
//! Constrained inputs (e.g. valid GeAr `(n, r, p)` configurations) are
//! generated *by construction*; because shrinking explores the raw tuple
//! space, every constrained property re-validates its input and passes
//! vacuously on invalid tuples (the `prop_filter` idiom).

use xlac::adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor};
use xlac::analysis::symbolic::{exhaustive_metrics, exhaustive_metrics_under, ExactMetrics};
use xlac::core::bits;
use xlac::core::check::{check, check_with, Config, DefaultRng, Rng};
use xlac::core::dist::{InputDistribution, MAX_PMF_WIDTH};
use xlac::logic::qm::{eval_cover, minimize};
use xlac::logic::random::{random_netlist, RandomNetlistSpec};
use xlac::logic::synth::{synthesize, verify_against};
use xlac::logic::{Netlist, TruthTable};
use xlac::multipliers::{Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, WallaceMultiplier};
use xlac_core::{prop_assert, prop_assert_eq};

/// `true` when `(n, r, p)` is a valid GeAr configuration (as enforced by
/// `GeArAdder::new`) within the tested envelope.
fn valid_gear(n: usize, r: usize, p: usize) -> bool {
    let l = r + p;
    (4..=20).contains(&n) && (1..=6).contains(&r) && p <= 8 && l <= n && (n - l).is_multiple_of(r)
}

/// Draws a valid GeAr `(n, r, p)` configuration by construction:
/// pick the sub-adder shape first, then a compatible width `n ≤ 20`.
fn gear_config(rng: &mut DefaultRng) -> (usize, usize, usize) {
    let r = rng.gen_range(1..=6usize);
    let p = rng.gen_range(0..=8usize);
    let l = r + p;
    let extras = (20 - l) / r;
    let m_min = if l >= 4 { 0 } else { (4 - l).div_ceil(r) };
    let m = rng.gen_range(m_min..=extras.max(m_min));
    (l + m * r, r, p)
}

#[test]
fn gear_underestimates_only() {
    // GeAr never over-estimates: its only failure mode is a missed carry.
    check(
        "gear_underestimates_only",
        |rng| {
            let (n, r, p) = gear_config(rng);
            (n, r, p, rng.gen::<u64>(), rng.gen::<u64>())
        },
        |&(n, r, p, a, b)| {
            if !valid_gear(n, r, p) {
                return Ok(());
            }
            let gear = GeArAdder::new(n, r, p).unwrap();
            let (a, b) = (bits::truncate(a, n), bits::truncate(b, n));
            let out = gear.add(a, b);
            prop_assert!(out.value <= a + b, "GeAr({n},{r},{p}) over-estimated {a}+{b}");
            Ok(())
        },
    );
}

#[test]
fn gear_correction_is_exact() {
    // Full correction always reaches the exact sum, within k−1 passes.
    check(
        "gear_correction_is_exact",
        |rng| {
            let (n, r, p) = gear_config(rng);
            (n, r, p, rng.gen::<u64>(), rng.gen::<u64>())
        },
        |&(n, r, p, a, b)| {
            if !valid_gear(n, r, p) {
                return Ok(());
            }
            let gear = GeArAdder::new(n, r, p).unwrap();
            let (a, b) = (bits::truncate(a, n), bits::truncate(b, n));
            let out = gear.add_with_correction(a, b, usize::MAX);
            prop_assert_eq!(out.value, a + b);
            prop_assert!(out.correction_iterations < gear.sub_adder_count());
            Ok(())
        },
    );
}

#[test]
fn gear_silence_implies_exactness() {
    // Detection soundness: an undetected addition is exact.
    check(
        "gear_silence_implies_exactness",
        |rng| {
            let (n, r, p) = gear_config(rng);
            (n, r, p, rng.gen::<u64>(), rng.gen::<u64>())
        },
        |&(n, r, p, a, b)| {
            if !valid_gear(n, r, p) {
                return Ok(());
            }
            let gear = GeArAdder::new(n, r, p).unwrap();
            let (a, b) = (bits::truncate(a, n), bits::truncate(b, n));
            let out = gear.add(a, b);
            if out.errors_detected == 0 {
                prop_assert_eq!(out.value, a + b);
            }
            Ok(())
        },
    );
}

#[test]
fn accurate_ripple_is_plus() {
    // An all-accurate ripple chain equals `+` for every width.
    check(
        "accurate_ripple_is_plus",
        |rng| (rng.gen_range(1..=32usize), rng.gen::<u64>(), rng.gen::<u64>()),
        |&(width, a, b)| {
            if !(1..=32).contains(&width) {
                return Ok(());
            }
            let rca = RippleCarryAdder::accurate(width);
            let (a, b) = (bits::truncate(a, width), bits::truncate(b, width));
            prop_assert_eq!(rca.add(a, b), a + b);
            Ok(())
        },
    );
}

#[test]
fn ripple_error_is_prefix_bounded() {
    // Approximating k LSBs bounds the adder error below 2^(k+1).
    check(
        "ripple_error_is_prefix_bounded",
        |rng| {
            let kind_idx = rng.gen_range(0..FullAdderKind::APPROXIMATE.len());
            (kind_idx, rng.gen_range(0..=6usize), rng.gen::<u64>(), rng.gen::<u64>())
        },
        |&(kind_idx, k, a, b)| {
            if kind_idx >= FullAdderKind::APPROXIMATE.len() || k > 6 {
                return Ok(());
            }
            let kind = FullAdderKind::APPROXIMATE[kind_idx];
            let rca = RippleCarryAdder::with_approx_lsbs(12, kind, k).unwrap();
            let (a, b) = (bits::truncate(a, 12), bits::truncate(b, 12));
            let err = rca.add(a, b).abs_diff(a + b);
            prop_assert!(err < 1u64 << (k + 1), "{} err {} with {} LSBs", kind, err, k);
            Ok(())
        },
    );
}

#[test]
fn exact_subtractor_is_abs_diff() {
    // The subtractor over an exact adder is |a − b| with correct sign.
    check(
        "exact_subtractor_is_abs_diff",
        |rng| (rng.gen_range(1..=16usize), rng.gen::<u64>(), rng.gen::<u64>()),
        |&(width, a, b)| {
            if !(1..=16).contains(&width) {
                return Ok(());
            }
            let sub = Subtractor::new(xlac::adders::AccurateAdder::new(width));
            let (a, b) = (bits::truncate(a, width), bits::truncate(b, width));
            let (mag, ge) = sub.sub(a, b);
            prop_assert_eq!(mag, a.abs_diff(b));
            prop_assert_eq!(ge, a >= b);
            Ok(())
        },
    );
}

#[test]
fn qm_cover_is_equivalent() {
    // QM minimization always reproduces the specified function.
    check(
        "qm_cover_is_equivalent",
        |rng| (rng.gen_range(1..=6usize), rng.gen::<u64>()),
        |&(n, on_set)| {
            if !(1..=6).contains(&n) {
                return Ok(());
            }
            let limit = 1u64 << n;
            let minterms: Vec<u64> =
                (0..limit).filter(|&m| (on_set >> (m % 64)) & 1 == 1).collect();
            let cover = minimize(n, &minterms);
            for x in 0..limit {
                let expect = u64::from(minterms.contains(&x));
                prop_assert_eq!(eval_cover(&cover, x), expect, "minterm {} of n={}", x, n);
            }
            Ok(())
        },
    );
}

#[test]
fn synthesis_preserves_function() {
    // Synthesized netlists are functionally equivalent to their tables.
    check(
        "synthesis_preserves_function",
        |rng| (rng.gen_range(1..=5usize), rng.gen_range(1..=3usize), rng.gen::<u64>()),
        |&(n, outs, seed)| {
            if !(1..=5).contains(&n) || !(1..=3).contains(&outs) {
                return Ok(());
            }
            let mut rng = DefaultRng::seed_from_u64(seed);
            let rows: Vec<u64> =
                (0..(1u64 << n)).map(|_| rng.gen::<u64>() & ((1 << outs) - 1)).collect();
            let tt = TruthTable::from_rows(n, outs, rows).unwrap();
            let nl = synthesize("prop", &tt).unwrap();
            prop_assert_eq!(verify_against(&nl, &tt), 0);
            Ok(())
        },
    );
}

#[test]
fn mul2x2_error_bounds() {
    // Both approximate 2×2 multiplier designs respect their published
    // worst-case error bound at every operand pair.
    check(
        "mul2x2_error_bounds",
        |rng| (rng.gen_range(0..4u64), rng.gen_range(0..4u64)),
        |&(a, b)| {
            if a > 3 || b > 3 {
                return Ok(());
            }
            prop_assert!(Mul2x2Kind::ApxSoA.mul(a, b).abs_diff(a * b) <= 2);
            prop_assert!(Mul2x2Kind::ApxOur.mul(a, b).abs_diff(a * b) <= 1);
            Ok(())
        },
    );
}

#[test]
fn accurate_recursive_multiplier_is_exact() {
    // Recursive multipliers with accurate blocks and accurate summation
    // are exact at every power-of-two width.
    check(
        "accurate_recursive_multiplier_is_exact",
        |rng| {
            let w = [2usize, 4, 8, 16][rng.gen_range(0..4usize)];
            (w, rng.gen::<u64>(), rng.gen::<u64>())
        },
        |&(w, a, b)| {
            if ![2, 4, 8, 16].contains(&w) {
                return Ok(());
            }
            let m = RecursiveMultiplier::new(w, Mul2x2Kind::Accurate, SumMode::Accurate).unwrap();
            let (a, b) = (bits::truncate(a, w), bits::truncate(b, w));
            prop_assert_eq!(m.mul(a, b), a * b);
            Ok(())
        },
    );
}

#[test]
fn accurate_wallace_is_exact() {
    // The exact Wallace tree agrees with `*`.
    check(
        "accurate_wallace_is_exact",
        |rng| (rng.gen_range(2..=10usize), rng.gen::<u64>(), rng.gen::<u64>()),
        |&(w, a, b)| {
            if !(2..=10).contains(&w) {
                return Ok(());
            }
            let m = WallaceMultiplier::new(w, FullAdderKind::Accurate, 0).unwrap();
            let (a, b) = (bits::truncate(a, w), bits::truncate(b, w));
            prop_assert_eq!(m.mul(a, b), a * b);
            Ok(())
        },
    );
}

#[test]
fn ssim_identity_and_symmetry() {
    // SSIM is 1 exactly on identical images and symmetric on distinct
    // ones.
    check(
        "ssim_identity_and_symmetry",
        |rng| rng.gen::<u64>(),
        |&seed| {
            let mut rng = DefaultRng::seed_from_u64(seed);
            let a = xlac::core::Grid::from_fn(16, 16, |_, _| rng.gen_range(0.0..255.0));
            let b = xlac::core::Grid::from_fn(16, 16, |_, _| rng.gen_range(0.0..255.0));
            let same = xlac::quality::ssim(&a, &a).unwrap();
            prop_assert!((same - 1.0).abs() < 1e-9);
            let ab = xlac::quality::ssim(&a, &b).unwrap();
            let ba = xlac::quality::ssim(&b, &a).unwrap();
            prop_assert!((ab - ba).abs() < 1e-9);
            prop_assert!(ab <= 1.0 + 1e-9);
            Ok(())
        },
    );
}

#[test]
fn bit_field_roundtrip() {
    // Bit-field insert/extract round-trips for arbitrary fields.
    check(
        "bit_field_roundtrip",
        |rng| {
            (
                rng.gen::<u64>(),
                rng.gen_range(0..60usize),
                rng.gen_range(1..=4usize),
                rng.gen::<u64>(),
            )
        },
        |&(value, lo, len, bits_in)| {
            if lo >= 60 || !(1..=4).contains(&len) {
                return Ok(());
            }
            let w = bits::with_field(value, lo, len, bits_in);
            prop_assert_eq!(bits::field(w, lo, len), bits::truncate(bits_in, len));
            // Bits outside the field are untouched.
            let mask = bits::mask(len) << lo;
            prop_assert_eq!(w & !mask, value & !mask);
            Ok(())
        },
    );
}

#[test]
fn signed_roundtrip() {
    // Two's-complement signed round-trip at every width.
    check(
        "signed_roundtrip",
        |rng| (rng.gen_range(1..=64usize), rng.gen::<u64>()),
        |&(width, v)| {
            if !(1..=64).contains(&width) {
                return Ok(());
            }
            let v = bits::truncate(v, width);
            prop_assert_eq!(bits::from_signed(bits::to_signed(v, width), width), v);
            Ok(())
        },
    );
}

#[test]
fn divider_euclidean_invariant() {
    // The exact array divider satisfies the Euclidean invariant.
    check(
        "divider_euclidean_invariant",
        |rng| (rng.gen::<u64>(), rng.gen_range(1..256u64)),
        |&(n, d)| {
            let div = xlac::adders::ArrayDivider::accurate(8).unwrap();
            let n = bits::truncate(n, 8);
            let d = bits::truncate(d, 8).max(1);
            let (q, r) = div.divide(n, d).unwrap();
            prop_assert_eq!(q * d + r, n);
            prop_assert!(r < d);
            Ok(())
        },
    );
}

#[test]
fn loa_error_is_lower_part_bounded() {
    // LOA errors are confined below the lower-part boundary.
    check(
        "loa_error_is_lower_part_bounded",
        |rng| (rng.gen_range(0..=8usize), rng.gen::<u64>(), rng.gen::<u64>()),
        |&(lower, a, b)| {
            if lower > 8 {
                return Ok(());
            }
            let loa = xlac::adders::LoaAdder::new(12, lower).unwrap();
            let (a, b) = (bits::truncate(a, 12), bits::truncate(b, 12));
            let err = loa.add(a, b).abs_diff(a + b);
            prop_assert!(err < 1u64 << (lower + 1), "err {} with {} lower bits", err, lower);
            Ok(())
        },
    );
}

#[test]
fn truncated_adder_error_bound() {
    // The truncated adder's error is exactly the difference between the
    // forced low bits and the discarded true low sum plus lost carry.
    check(
        "truncated_adder_error_bound",
        |rng| (rng.gen_range(0..=8usize), rng.gen::<u64>(), rng.gen::<u64>()),
        |&(t, a, b)| {
            if t > 8 {
                return Ok(());
            }
            let tra = xlac::adders::TruncatedAdder::new(12, t).unwrap();
            let (a, b) = (bits::truncate(a, 12), bits::truncate(b, 12));
            let err = tra.add(a, b).abs_diff(a + b);
            prop_assert!(err < 1u64 << (t + 1));
            Ok(())
        },
    );
}

#[test]
fn truncated_multiplier_mass_bound() {
    // Truncated-multiplier errors never exceed the dropped-column mass.
    check(
        "truncated_multiplier_mass_bound",
        |rng| (rng.gen_range(0..=8usize), rng.gen::<u64>(), rng.gen::<u64>()),
        |&(k, a, b)| {
            if k > 8 {
                return Ok(());
            }
            use xlac::multipliers::TruncatedMultiplier;
            let m = TruncatedMultiplier::new(8, k, false).unwrap();
            let (a, b) = (bits::truncate(a, 8), bits::truncate(b, 8));
            let bound: u64 = (0..k).map(|c| ((c as u64 + 1).min(8)) << c).sum();
            prop_assert!(m.mul(a, b).abs_diff(a * b) <= bound);
            Ok(())
        },
    );
}

#[test]
fn optimizer_preserves_random_functions() {
    // Netlist optimization preserves the function of synthesized logic.
    check(
        "optimizer_preserves_random_functions",
        |rng| (rng.gen_range(2..=5usize), rng.gen::<u64>()),
        |&(n, seed)| {
            if !(2..=5).contains(&n) {
                return Ok(());
            }
            use xlac::logic::equiv::check_equivalence;
            use xlac::logic::opt::optimize;
            let mut rng = DefaultRng::seed_from_u64(seed);
            let rows: Vec<u64> = (0..(1u64 << n)).map(|_| rng.gen::<u64>() & 0b11).collect();
            let tt = TruthTable::from_rows(n, 2, rows).unwrap();
            let nl = synthesize("p", &tt).unwrap();
            let opt = optimize(&nl);
            prop_assert_eq!(check_equivalence(&nl, &opt).unwrap(), None);
            prop_assert!(opt.gate_count() <= nl.gate_count());
            Ok(())
        },
    );
}

#[test]
fn elaboration_matches_behaviour() {
    // Elaborated ripple netlists equal their behavioural models for any
    // cell mix.
    check(
        "elaboration_matches_behaviour",
        |rng| {
            let kind_idx = rng.gen_range(0..FullAdderKind::ALL.len());
            (kind_idx, rng.gen_range(0..=5usize), rng.gen::<u64>(), rng.gen::<u64>())
        },
        |&(kind_idx, lsbs, a, b)| {
            if kind_idx >= FullAdderKind::ALL.len() {
                return Ok(());
            }
            use xlac::adders::hw::{pack_operands, ripple_netlist};
            let kind = FullAdderKind::ALL[kind_idx];
            let rca = RippleCarryAdder::with_approx_lsbs(5, kind, lsbs.min(5)).unwrap();
            let nl = ripple_netlist(&rca);
            let (a, b) = (bits::truncate(a, 5), bits::truncate(b, 5));
            prop_assert_eq!(nl.eval(pack_operands(a, b, 5)), rca.add(a, b));
            Ok(())
        },
    );
}

#[test]
fn bd_rate_scaling_identity() {
    // BD-rate of a curve against itself is zero, and scaling the rate by
    // a constant factor recovers that factor.
    check(
        "bd_rate_scaling_identity",
        |rng| rng.gen_range(1.01f64..2.0),
        |&factor| {
            if !(1.01..2.0).contains(&factor) {
                return Ok(());
            }
            use xlac::video::rd::{bd_rate, RdPoint};
            let base: Vec<RdPoint> = (0..4)
                .map(|i| RdPoint { bits: 1000.0 * (1 << i) as f64, psnr_db: 30.0 + 3.0 * i as f64 })
                .collect();
            let scaled: Vec<RdPoint> =
                base.iter().map(|p| RdPoint { bits: p.bits * factor, ..*p }).collect();
            let bd = bd_rate(&base, &scaled).unwrap();
            prop_assert!((bd - (factor - 1.0) * 100.0).abs() < 0.5);
            prop_assert!(bd_rate(&base, &base).unwrap().abs() < 1e-9);
            Ok(())
        },
    );
}

#[test]
fn signed_multiplier_is_odd() {
    // The signed multiplier is odd in each argument (for a core without
    // constant compensation — a compensated core is intentionally
    // non-zero at zero, breaking oddness there).
    check(
        "signed_multiplier_is_odd",
        |rng| (rng.gen_range(-127..=127i64), rng.gen_range(-127..=127i64)),
        |&(a, b)| {
            if !(-127..=127).contains(&a) || !(-127..=127).contains(&b) {
                return Ok(());
            }
            use xlac::multipliers::{SignedMultiplier, TruncatedMultiplier};
            let m = SignedMultiplier::new(TruncatedMultiplier::new(8, 4, false).unwrap());
            prop_assert_eq!(m.mul_signed(a, b), m.mul_signed(-a, -b));
            prop_assert_eq!(m.mul_signed(-a, b), -m.mul_signed(a, b));
            Ok(())
        },
    );
}

#[test]
fn gear_error_model_matches_simulation() {
    // The analytical GeAr error model matches Monte-Carlo simulation for
    // random configurations (heavier test: fewer cases).
    let config = Config::from_env();
    let config = config.with_cases(config.cases.min(64));
    check_with("gear_error_model_matches_simulation", &config, gear_config, |&(n, r, p)| {
        if !valid_gear(n, r, p) {
            return Ok(());
        }
        let gear = GeArAdder::new(n, r, p).unwrap();
        let model = xlac::adders::GearErrorModel::for_adder(&gear);
        let analytic = model.exact();
        let mc = model.monte_carlo(60_000, 0xABCD);
        prop_assert!(
            (analytic - mc).abs() < 0.02,
            "N={} R={} P={}: {} vs {}",
            n,
            r,
            p,
            analytic,
            mc
        );
        Ok(())
    });
}

#[test]
fn bit_sliced_adders_are_lane_independent() {
    // Permuting the input lanes of a bit-sliced evaluation permutes the
    // output lanes identically: no state leaks across lane boundaries.
    use xlac::core::lanes;
    check(
        "bit_sliced_adders_are_lane_independent",
        |rng| (rng.gen::<u64>(), rng.gen_range(0..FullAdderKind::ALL.len())),
        |&(seed, kind_idx)| {
            if kind_idx >= FullAdderKind::ALL.len() {
                return Ok(());
            }
            let mut rng = DefaultRng::seed_from_u64(seed);
            let w = 12usize;
            let mut a = [0u64; 64];
            let mut b = [0u64; 64];
            rng.fill_u64(&mut a);
            rng.fill_u64(&mut b);
            let a = a.map(|v| bits::truncate(v, w));
            let b = b.map(|v| bits::truncate(v, w));
            let mut perm = [0usize; 64];
            for (i, p) in perm.iter_mut().enumerate() {
                *p = i;
            }
            rng.shuffle(&mut perm);
            let kind = FullAdderKind::ALL[kind_idx];
            let adder = RippleCarryAdder::with_approx_lsbs(w, kind, w / 2).unwrap();
            let base = adder.add_x64(&lanes::to_planes(&a, w), &lanes::to_planes(&b, w));
            // Evaluate on permuted inputs: the output must be the base
            // output under the same permutation.
            let pa = lanes::permute_lanes(&lanes::to_planes(&a, w), &perm);
            let pb = lanes::permute_lanes(&lanes::to_planes(&b, w), &perm);
            prop_assert_eq!(adder.add_x64(&pa, &pb), lanes::permute_lanes(&base, &perm));
            Ok(())
        },
    );
}

#[test]
fn bit_sliced_multipliers_are_lane_independent() {
    use xlac::core::lanes;
    use xlac::multipliers::MultiplierX64;
    check(
        "bit_sliced_multipliers_are_lane_independent",
        |rng| (rng.gen::<u64>(), rng.gen_range(0..64usize)),
        |&(seed, rot)| {
            if rot >= 64 {
                return Ok(());
            }
            let mut rng = DefaultRng::seed_from_u64(seed);
            let w = 8usize;
            let mut a = [0u64; 64];
            let mut b = [0u64; 64];
            rng.fill_u64(&mut a);
            rng.fill_u64(&mut b);
            let a = a.map(|v| bits::truncate(v, w));
            let b = b.map(|v| bits::truncate(v, w));
            // A rotation is the cheapest interesting permutation to draw
            // by construction.
            let mut perm = [0usize; 64];
            for (i, p) in perm.iter_mut().enumerate() {
                *p = (i + rot) % 64;
            }
            let m = RecursiveMultiplier::new(
                w,
                Mul2x2Kind::ApxSoA,
                SumMode::ApproxLsbs { kind: FullAdderKind::Apx1, lsbs: 2 },
            )
            .unwrap();
            let base = m.mul_x64(&lanes::to_planes(&a, w), &lanes::to_planes(&b, w));
            let pa = lanes::permute_lanes(&lanes::to_planes(&a, w), &perm);
            let pb = lanes::permute_lanes(&lanes::to_planes(&b, w), &perm);
            prop_assert_eq!(m.mul_x64(&pa, &pb), lanes::permute_lanes(&base, &perm));
            Ok(())
        },
    );
}

/// The scalar oracle of `exhaustive_metrics_under`: a double loop over
/// both operands, each assignment weighted by the integer product of its
/// operands' PMF weights and every sum divided once at the end.
fn pmf_oracle(approx: &Netlist, exact: &Netlist, dist: InputDistribution) -> ExactMetrics {
    let n = approx.n_inputs();
    let w = n / 2;
    let pmf = dist.pmf(w).unwrap();
    let mut flips = vec![0u128; approx.n_outputs().max(exact.n_outputs())];
    let (mut error_count, mut error_weight, mut med_num) = (0u128, 0u128, 0u128);
    let (mut wce, mut witness, mut over, mut under) = (0u64, 0u64, 0u64, 0u64);
    // Operand `b` outer, `a` inner: ascending assignments `a | b << w`.
    for b in 0..1u64 << w {
        for a in 0..1u64 << w {
            let weight = pmf.weights[a as usize] * pmf.weights[b as usize];
            let x = a | (b << w);
            let (av, ev) = (approx.eval(x), exact.eval(x));
            if av == ev || weight == 0 {
                continue;
            }
            for (k, flip) in flips.iter_mut().enumerate() {
                if ((av ^ ev) >> k) & 1 == 1 {
                    *flip += weight;
                }
            }
            let d = av.abs_diff(ev);
            error_count += 1;
            error_weight += weight;
            med_num += weight * u128::from(d);
            if av > ev {
                over = over.max(d);
            } else {
                under = under.max(d);
            }
            if d > wce {
                (wce, witness) = (d, x);
            }
        }
    }
    let denom = f64::from(2 * pmf.shift).exp2();
    ExactMetrics {
        n_inputs: n,
        worst_case_error: u128::from(wce),
        worst_case_witness: witness,
        max_overshoot: u128::from(over),
        max_undershoot: u128::from(under),
        error_count,
        error_rate: error_weight as f64 / denom,
        mean_error_distance: med_num as f64 / denom,
        bit_flip_probability: flips.iter().map(|&c| c as f64 / denom).collect(),
    }
}

/// Every field of an [`ExactMetrics`], floats as their bit patterns.
fn metric_bits(m: &ExactMetrics) -> (Vec<u128>, u64, u64, Vec<u64>) {
    (
        vec![
            m.n_inputs as u128,
            m.worst_case_error,
            m.max_overshoot,
            m.max_undershoot,
            m.error_count,
        ],
        m.worst_case_witness,
        m.error_rate.to_bits(),
        std::iter::once(m.mean_error_distance)
            .chain(m.bit_flip_probability.iter().copied())
            .map(f64::to_bits)
            .collect(),
    )
}

#[test]
fn pmf_weighted_metrics_match_the_scalar_oracle() {
    // Random netlist pairs at operand widths 2..=8 (4..=16 inputs) under
    // every shipped distribution; each enumerates up to 2^16 assignments
    // per pair, so fewer cases.
    let config = Config::from_env();
    let config = config.with_cases(config.cases.min(24));
    check_with(
        "pmf_weighted_metrics_match_the_scalar_oracle",
        &config,
        |rng| (rng.gen_range(2..=8usize), rng.gen::<u64>(), rng.gen::<u64>()),
        |&(w, seed_a, seed_b)| {
            if !(2..=8).contains(&w) {
                return Ok(());
            }
            let spec = RandomNetlistSpec {
                min_inputs: 2 * w,
                max_inputs: 2 * w,
                ..RandomNetlistSpec::default()
            };
            let (approx, exact) = (random_netlist(seed_a, &spec), random_netlist(seed_b, &spec));
            for dist in InputDistribution::ALL {
                let engine = exhaustive_metrics_under(&approx, &exact, dist).unwrap();
                let oracle = pmf_oracle(&approx, &exact, dist);
                prop_assert_eq!(metric_bits(&engine), metric_bits(&oracle));
                // A netlist against itself is exact under every weighting.
                let same = exhaustive_metrics_under(&exact, &exact, dist).unwrap();
                prop_assert!(same.is_exact() && same.mean_error_distance == 0.0);
                prop_assert_eq!(same.error_rate, 0.0);
            }
            let uniform = exhaustive_metrics_under(&approx, &exact, InputDistribution::Uniform);
            prop_assert_eq!(
                metric_bits(&uniform.unwrap()),
                metric_bits(&exhaustive_metrics(&approx, &exact).unwrap())
            );
            Ok(())
        },
    );
}

#[test]
fn pmf_weighted_metrics_match_a_hand_computation() {
    use xlac::logic::{GateKind, NetlistBuilder};
    // A 1-bit adder that drops its carry, against the full 2-bit sum:
    // only (1, 1) errs, by 2, with probability 1/4 under uniform inputs.
    let mut b = NetlistBuilder::new("sum", 2);
    let sum = b.gate(GateKind::Xor2, &[b.input(0), b.input(1)]);
    b.output(sum);
    let approx = b.finish().unwrap();
    let mut b = NetlistBuilder::new("sum_carry", 2);
    let sum = b.gate(GateKind::Xor2, &[b.input(0), b.input(1)]);
    let carry = b.gate(GateKind::And2, &[b.input(0), b.input(1)]);
    b.output(sum);
    b.output(carry);
    let exact = b.finish().unwrap();
    let m = exhaustive_metrics_under(&approx, &exact, InputDistribution::Uniform).unwrap();
    assert_eq!((m.error_rate, m.mean_error_distance), (0.25, 0.5));
    assert_eq!((m.worst_case_error, m.worst_case_witness, m.error_count), (2, 0b11, 1));
    assert_eq!((m.max_overshoot, m.max_undershoot), (0, 2));
    assert_eq!(m.bit_flip_probability, vec![0.0, 0.25]);
}

#[test]
fn pmf_weighted_metrics_reject_odd_wide_and_mismatched_pairs() {
    use xlac::core::XlacError;
    let with_inputs = |n: usize| {
        random_netlist(
            n as u64,
            &RandomNetlistSpec { min_inputs: n, max_inputs: n, ..RandomNetlistSpec::default() },
        )
    };
    for dist in InputDistribution::ALL {
        let odd = with_inputs(5);
        assert!(matches!(
            exhaustive_metrics_under(&odd, &odd, dist),
            Err(XlacError::InvalidConfiguration(msg)) if msg.contains("two operands")
        ));
        let wide = with_inputs(2 * (MAX_PMF_WIDTH + 1));
        assert_eq!(
            exhaustive_metrics_under(&wide, &wide, dist),
            Err(XlacError::InvalidWidth { width: MAX_PMF_WIDTH + 1, max: MAX_PMF_WIDTH })
        );
        assert!(matches!(
            exhaustive_metrics_under(&with_inputs(4), &with_inputs(6), dist),
            Err(XlacError::InvalidConfiguration(msg)) if msg.contains("arity")
        ));
    }
}
