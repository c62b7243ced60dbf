//! The paper's textual claims, asserted as fast regression tests.
//! (The bench binaries in `xlac-bench` regenerate the full tables; these
//! tests pin the headline facts so `cargo test` alone guards them.)

use xlac::accel::cec::{AdderCascade, CecUnit};
use xlac::adders::{FullAdderKind, GeArAdder, GearErrorModel};
use xlac::explore::{enumerate_gear_space, max_accuracy, min_area_with_accuracy};
use xlac::multipliers::{ConfigurableMul2x2, Mul2x2Kind};

/// Table III: error-case counts are exactly 0, 2, 2, 3, 3, 4.
#[test]
fn table3_error_case_counts() {
    let expected = [0usize, 2, 2, 3, 3, 4];
    for (kind, want) in FullAdderKind::ALL.iter().zip(expected) {
        assert_eq!(kind.error_cases(), want, "{kind}");
    }
}

/// Table III: every approximate cell undercuts the accurate cell on both
/// area and power, and ApxFA5 is free (pure wiring).
#[test]
fn table3_cost_ordering() {
    let acc = FullAdderKind::Accurate.hw_cost();
    for kind in FullAdderKind::APPROXIMATE {
        let c = kind.hw_cost();
        assert!(c.area_ge < acc.area_ge, "{kind}");
        assert!(c.power_nw < acc.power_nw, "{kind}");
    }
    assert_eq!(FullAdderKind::Apx5.hw_cost().area_ge, 0.0);
    assert_eq!(FullAdderKind::Apx5.hw_cost().power_nw, 0.0);
}

/// Section 4.2: "GeAr adder provides a reduced delay as compared to an
/// N-bit accurate adder since the carry propagation is now limited to L
/// bits only."
#[test]
fn gear_delay_is_limited_to_l_bits() {
    use xlac::adders::{Adder, RippleCarryAdder};
    let gear = GeArAdder::new(16, 4, 4).unwrap(); // L = 8
    let rca16 = RippleCarryAdder::accurate(16);
    let rca8 = RippleCarryAdder::accurate(8);
    let d = gear.hw_cost().delay;
    assert!(d < rca16.hw_cost().delay);
    assert!((d - rca8.hw_cost().delay).abs() < 1e-9, "delay equals an L-bit chain");
}

/// Table IV text: "For the constraint of maximum accuracy percentage,
/// GeAr (R = 1, P = 9) can be selected" — and the ≥90 % area query lands
/// on a mid-R configuration (R3P5 in the paper's LUT table; R4P3 under
/// our k·L LUT model, with R3P5 the best R=3 point — see EXPERIMENTS.md).
#[test]
fn table4_selection_queries() {
    let space = enumerate_gear_space(11).unwrap();
    assert_eq!(max_accuracy(&space).unwrap().label(), "R1P9");
    let pick = min_area_with_accuracy(&space, 90.0).unwrap();
    assert!(pick.accuracy_percent >= 90.0);
    assert!(pick.r >= 3, "a coarse-R config wins the area query");
    // R3P5 is the area-minimal R=3 configuration above 90 %.
    let r3: Vec<_> = space.iter().filter(|pt| pt.r == 3 && pt.accuracy_percent >= 90.0).collect();
    assert!(r3.iter().all(|pt| pt.lut_area >= 16));
    assert!(r3.iter().any(|pt| pt.label() == "R3P5"));
}

/// Section 4.2: the error model exists so configurations can be ranked
/// *without* exhaustive simulation — assert it is exact.
#[test]
fn gear_error_model_is_exact() {
    for (n, r, p) in [(8usize, 2usize, 2usize), (10, 2, 4), (12, 4, 4)] {
        let model = GearErrorModel::for_adder(&GeArAdder::new(n, r, p).unwrap());
        assert!((model.exact() - model.exhaustive()).abs() < 1e-9, "N={n} R={r} P={p}");
        assert!((model.exact() - model.inclusion_exclusion()).abs() < 1e-9);
    }
}

/// Fig.5: ApxMulSoA has 1 error case with max error 2; ApxMulOur has 3
/// error cases with max error 1; the configurable-our variant is cheaper
/// than the configurable-SoA variant (inverter vs adder correction).
#[test]
fn fig5_multiplier_claims() {
    assert_eq!(Mul2x2Kind::ApxSoA.error_cases(), 1);
    assert_eq!(Mul2x2Kind::ApxSoA.max_error_value(), 2);
    assert_eq!(Mul2x2Kind::ApxOur.error_cases(), 3);
    assert_eq!(Mul2x2Kind::ApxOur.max_error_value(), 1);
    let soa = ConfigurableMul2x2::new(Mul2x2Kind::ApxSoA).hw_cost();
    let our = ConfigurableMul2x2::new(Mul2x2Kind::ApxOur).hw_cost();
    assert!(our.area_ge < soa.area_ge);
}

/// Fig.5 use case: "In case the constraint on the maximum error value is
/// 1, such a design [SoA] cannot be used" — ApxMulOur is the only
/// approximate block satisfying a max-error-1 constraint.
#[test]
fn max_error_one_constraint_selects_our_design() {
    let candidates = [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur];
    let feasible: Vec<_> = candidates.iter().filter(|k| k.max_error_value() <= 1).collect();
    assert_eq!(feasible, vec![&Mul2x2Kind::ApxOur]);
}

/// Section 6.1: the consolidated error correction unit saves area versus
/// per-adder integrated EDC once the cascade is deep enough, and its
/// corrected output recovers most of the accumulated error.
#[test]
fn cec_claims() {
    let gear = GeArAdder::new(12, 4, 4).unwrap();
    let (edc, cec) = CecUnit::area_comparison(&gear, 8);
    assert!(cec < edc);

    use xlac::core::rng::{DefaultRng, Rng};
    let mut rng = DefaultRng::seed_from_u64(1);
    let cascade = AdderCascade::new(gear, 5).unwrap();
    let unit = CecUnit::new();
    let (mut raw, mut fixed) = (0u64, 0u64);
    for _ in 0..500 {
        let xs: Vec<u64> = (0..5).map(|_| rng.gen_range(0..0x300)).collect();
        let exact: u64 = xs.iter().sum();
        let run = cascade.accumulate(&xs).unwrap();
        raw += run.value.abs_diff(exact);
        fixed += unit.correct(&run).abs_diff(exact);
    }
    assert!(fixed * 4 < raw, "CEC recovers most error: {fixed} vs {raw}");
}

/// Fig.5, now *proven*: the exact symbolic engine re-derives the
/// error-case counts and maximum error values of both 2×2 blocks and
/// names the input minterms that realize them. ApxMulSoA errs on exactly
/// one input pair — `3 × 3 → 7` (off by 2) — while ApxMulOur errs on
/// exactly three pairs, each off by 1, which is why the max-error-1
/// constraint of the paper's use case admits only the latter.
#[test]
fn fig5_error_cases_proven_with_witness_minterms() {
    use xlac::analysis::symbolic::{exact_metrics, interleaved_operand_vars, twins, Bdd};

    for (kind, want_cases, want_wce) in
        [(Mul2x2Kind::ApxSoA, 1u128, 2u128), (Mul2x2Kind::ApxOur, 3, 1)]
    {
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 2);
        let approx = twins::mul2x2(&mut bdd, kind, a[0], a[1], b[0], b[1]);
        let exact = twins::mul2x2(&mut bdd, Mul2x2Kind::Accurate, a[0], a[1], b[0], b[1]);
        let metrics = exact_metrics(&mut bdd, &approx, &exact, 4);

        assert_eq!(metrics.error_count, want_cases, "{kind}: error-case count");
        assert_eq!(metrics.worst_case_error, want_wce, "{kind}: worst-case error");

        // Enumerate every erring minterm from the any-difference miter
        // and check each against the scalar models.
        let mut miter = xlac::analysis::symbolic::FALSE;
        for (&x, &y) in approx.iter().zip(&exact) {
            let diff = bdd.xor(x, y);
            miter = bdd.or(miter, diff);
        }
        let minterms: Vec<u64> = (0..1 << 4).filter(|&x| bdd.eval(miter, x)).collect();
        assert_eq!(minterms.len() as u128, want_cases, "{kind}: minterm enumeration");
        for m in &minterms {
            // Interleaved packing: a = bits 0, 2; b = bits 1, 3.
            let av = (m & 1) | ((m >> 1) & 2);
            let bv = ((m >> 1) & 1) | ((m >> 2) & 2);
            assert_ne!(kind.mul(av, bv), av * bv, "{kind}: {av} × {bv} must err");
        }
        // The worst-case witness is one of them and realizes the WCE.
        let w = metrics.worst_case_witness;
        assert!(minterms.contains(&w), "{kind}: witness is an erring minterm");
        let av = (w & 1) | ((w >> 1) & 2);
        let bv = ((w >> 1) & 1) | ((w >> 2) & 2);
        assert_eq!(
            u128::from(kind.mul(av, bv).abs_diff(av * bv)),
            want_wce,
            "{kind}: witness {av} × {bv} realizes the worst case"
        );
        if kind == Mul2x2Kind::ApxSoA {
            assert_eq!((av, bv), (3, 3), "the SoA block's only error is 3 × 3 → 7");
        }
    }
}

/// Table III, now *proven*: the error-case counts 0, 2, 2, 3, 3, 4 are
/// model counts of the any-difference miter between each approximate
/// cell and the accurate cell, and every counted row really errs in the
/// scalar model (variables a, b, cin at bits 0, 1, 2).
#[test]
fn table3_error_cases_proven_by_model_counting() {
    use xlac::analysis::symbolic::{twins, Bdd, FALSE};

    for kind in FullAdderKind::ALL {
        let mut bdd = Bdd::new();
        let vars: Vec<_> = (0..3).map(|i| bdd.var(i)).collect();
        let (s, c) = twins::full_adder(&mut bdd, kind, vars[0], vars[1], vars[2]);
        let (es, ec) =
            twins::full_adder(&mut bdd, FullAdderKind::Accurate, vars[0], vars[1], vars[2]);
        let ds = bdd.xor(s, es);
        let dc = bdd.xor(c, ec);
        let miter = bdd.or(ds, dc);

        assert_eq!(
            bdd.sat_count(miter, 3),
            kind.error_cases() as u128,
            "{kind}: Table III error-case count"
        );
        for row in (0..1 << 3).filter(|&x| bdd.eval(miter, x)) {
            let (a, b, cin) = (row & 1, (row >> 1) & 1, (row >> 2) & 1);
            assert_ne!(
                kind.eval_x64(a, b, cin),
                FullAdderKind::Accurate.eval_x64(a, b, cin),
                "{kind}: row a={a} b={b} cin={cin} must err"
            );
        }
        if kind == FullAdderKind::Accurate {
            assert_eq!(miter, FALSE, "the accurate cell proves equal to itself");
        }
    }
}

/// Section 5 composition claim: approximate multi-bit multipliers save
/// area and power at 4, 8 and 16 bits, and the savings grow with width.
#[test]
fn fig6_savings_grow_with_width() {
    use xlac::multipliers::{Multiplier, RecursiveMultiplier, SumMode};
    let mut last_saving = 0.0f64;
    for w in [4usize, 8, 16] {
        let exact =
            RecursiveMultiplier::new(w, Mul2x2Kind::Accurate, SumMode::Accurate).unwrap().hw_cost();
        let approx = RecursiveMultiplier::new(
            w,
            Mul2x2Kind::ApxSoA,
            SumMode::ApproxLsbs { kind: FullAdderKind::Apx5, lsbs: 4 },
        )
        .unwrap()
        .hw_cost();
        let saving = exact.area_ge - approx.area_ge;
        assert!(saving > 0.0, "width {w}");
        assert!(saving > last_saving, "absolute savings must grow with width");
        last_saving = saving;
    }
}
