//! Soundness of the `xlac-analysis` static error bounds against ground
//! truth: the exact audit engine (every field) where the input space has
//! ≤ 16 bits, and seeded sampling (magnitudes only) for the wide GeAr,
//! SAD and FIR configurations. The contract under test is `DESIGN.md` §9: for every
//! shipped configuration the static worst-case bound dominates every
//! error the hardware can actually produce.

use xlac::accel::{ApproxMode, FirAccelerator, SadAccelerator, SadVariant};
use xlac::adders::hw::{gear_netlist, ripple_netlist, subtractor_netlist};
use xlac::adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor};
use xlac::analysis::components::{
    fir_bound, gear_adder_bound, mul2x2_bound, recursive_multiplier_bound, ripple_adder_bound,
    sad_bound, subtractor_bound, truncated_bound, wallace_bound,
};
use xlac::analysis::symbolic::registry::{ensure_registry_hdl, prove_all};
use xlac::analysis::symbolic::{
    audit_bounds, audit_pair, compile_netlist, exact_metrics, exhaustive_metrics,
    interleaved_operand_vars, magnitude_netlist, Bdd, ExactMetrics, Ref,
};
use xlac::analysis::ErrorBound;
use xlac::core::bits;
use xlac::core::check::{check, DefaultRng, Rng};
use xlac::logic::Netlist;
use xlac::multipliers::hw::{recursive_netlist, truncated_netlist, wallace_netlist};
use xlac::multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};
use xlac_core::prop_assert;

/// Absolute error of an approximate sum against `a + b`.
fn adder_error(approx: u64, a: u64, b: u64) -> u128 {
    u128::from(approx).abs_diff(u128::from(a) + u128::from(b))
}

#[test]
fn every_eight_bit_gear_config_is_exhaustively_bounded() {
    // All valid multi-sub-adder (R, P) points at N = 8, every operand
    // pair. The bound must also be *attained* when P = 0 (the classic
    // worst-case formula is exact there).
    let mut tested = 0usize;
    for r in 1usize..8 {
        for p in 0usize..8 {
            let l = r + p;
            if l >= 8 || !(8 - l).is_multiple_of(r) {
                continue;
            }
            let gear = GeArAdder::new(8, r, p).unwrap();
            let bound = gear_adder_bound(&gear);
            let mut max_err = 0u128;
            let mut rate = 0u64;
            for a in 0..256u64 {
                for b in 0..256u64 {
                    let approx = Adder::add(&gear, a, b);
                    let err = adder_error(approx, a, b);
                    max_err = max_err.max(err);
                    rate += u64::from(err != 0);
                    // GeAr only under-estimates; `over` must stay 0.
                    assert!(u128::from(approx) <= u128::from(a + b), "R{r}P{p}");
                }
            }
            assert!(max_err <= bound.wce(), "R{r}P{p}: {max_err} > {}", bound.wce());
            assert!(
                f64::from(u32::try_from(rate).unwrap()) / 65536.0 <= bound.error_rate_bound + 1e-9,
                "R{r}P{p}: rate"
            );
            if p == 0 {
                assert_eq!(max_err, bound.wce(), "R{r}P0 must attain the bound");
            }
            tested += 1;
        }
    }
    assert!(tested >= 6, "expected several valid 8-bit configs, got {tested}");
}

#[test]
fn every_four_bit_multiplier_composition_is_exhaustively_bounded() {
    // 4×4 recursive multipliers: every 2×2 block kind crossed with every
    // summation mode, exhaustively over all 256 operand pairs.
    let sum_modes = [
        SumMode::Accurate,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 },
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx5, lsbs: 4 },
    ];
    for kind in Mul2x2Kind::ALL {
        for mode in sum_modes {
            let m = RecursiveMultiplier::new(4, kind, mode).unwrap();
            let bound = recursive_multiplier_bound(&m);
            let mut max_err = 0u128;
            for a in 0..16u64 {
                for b in 0..16u64 {
                    max_err = max_err.max(u128::from(m.mul(a, b).abs_diff(a * b)));
                }
            }
            assert!(
                max_err <= bound.wce(),
                "{kind:?}/{mode:?}: observed {max_err} > bound {}",
                bound.wce()
            );
            if kind == Mul2x2Kind::Accurate && mode == SumMode::Accurate {
                assert!(bound.is_exact(), "accurate composition must be exact");
            }
        }
    }
}

#[test]
fn eight_bit_multiplier_bounds_hold_under_sampling() {
    // 8×8 compositions across all three families, driven by the seeded
    // property harness (shrinking + replayable failures).
    check(
        "eight_bit_multiplier_bounds_hold_under_sampling",
        |rng: &mut DefaultRng| (rng.gen_range(0..9usize), rng.gen::<u64>(), rng.gen::<u64>()),
        |&(which, a, b)| {
            if which >= 9 {
                return Ok(());
            }
            let (a, b) = (bits::truncate(a, 8), bits::truncate(b, 8));
            let (approx, wce): (u64, u128) = match which {
                0..=2 => {
                    let kind =
                        [Mul2x2Kind::Accurate, Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur][which];
                    let m = RecursiveMultiplier::new(
                        8,
                        kind,
                        SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 },
                    )
                    .unwrap();
                    (m.mul(a, b), recursive_multiplier_bound(&m).wce())
                }
                3..=5 => {
                    let (kind, cols) = [
                        (FullAdderKind::Apx2, 4),
                        (FullAdderKind::Apx4, 8),
                        (FullAdderKind::Apx5, 8),
                    ][which - 3];
                    let m = WallaceMultiplier::new(8, kind, cols).unwrap();
                    (m.mul(a, b), wallace_bound(&m).wce())
                }
                _ => {
                    let (k, comp) = [(2, false), (4, true), (6, true)][which - 6];
                    let m = TruncatedMultiplier::new(8, k, comp).unwrap();
                    (m.mul(a, b), truncated_bound(&m).wce())
                }
            };
            let err = u128::from(approx.abs_diff(a * b));
            prop_assert!(err <= wce, "family {} at {}x{}: {} > {}", which, a, b, err, wce);
            Ok(())
        },
    );
}

#[test]
fn ripple_adder_bounds_hold_under_sampling() {
    // Approximate-LSB ripple adders at random widths, kinds and depths.
    check(
        "ripple_adder_bounds_hold_under_sampling",
        |rng: &mut DefaultRng| {
            (
                rng.gen_range(0..FullAdderKind::APPROXIMATE.len()),
                rng.gen_range(4..=12usize),
                rng.gen_range(0..=6usize),
                rng.gen::<u64>(),
                rng.gen::<u64>(),
            )
        },
        |&(kind_idx, width, lsbs, a, b)| {
            if kind_idx >= FullAdderKind::APPROXIMATE.len() || !(4..=12).contains(&width) {
                return Ok(());
            }
            let kind = FullAdderKind::APPROXIMATE[kind_idx];
            let rca = RippleCarryAdder::with_approx_lsbs(width, kind, lsbs.min(width)).unwrap();
            let bound = ripple_adder_bound(&rca);
            let (a, b) = (bits::truncate(a, width), bits::truncate(b, width));
            let err = adder_error(rca.add(a, b), a, b);
            prop_assert!(
                err <= bound.wce(),
                "{} w{} l{}: {} > {}",
                kind,
                width,
                lsbs,
                err,
                bound.wce()
            );
            Ok(())
        },
    );
}

/// Every configuration with ≤ 16 input bits whose static bound is
/// audited on the exact engine, beside the `audit_bounds()` table, as
/// `(name, bound, approx, exact)` netlist pairs: all 12 valid 8-bit GeAr
/// `(R, P)` points, ripple adders and subtractors for every cell kind at
/// 2/4/8 approximate LSBs, the 2×2 blocks, 4×4 and 8×8 recursive
/// multipliers under three summation modes, 4×4 and 8×8 Wallace trees
/// (the accurate tree included) and four 8×8 truncated multipliers.
fn small_configurations() -> Vec<(String, ErrorBound, Netlist, Netlist)> {
    let mut configs = Vec::new();
    let accurate_rca = ripple_netlist(&RippleCarryAdder::accurate(8));
    for r in 1usize..8 {
        for p in 0usize..8 {
            let l = r + p;
            if l >= 8 || !(8 - l).is_multiple_of(r) {
                continue;
            }
            let gear = GeArAdder::new(8, r, p).unwrap();
            let bound = gear_adder_bound(&gear);
            configs.push((gear.name(), bound, gear_netlist(&gear), accurate_rca.clone()));
        }
    }

    let accurate_sub = magnitude_netlist(&Subtractor::new(RippleCarryAdder::accurate(8)));
    for kind in FullAdderKind::ALL {
        for lsbs in [2usize, 4, 8] {
            if kind == FullAdderKind::Accurate && lsbs > 2 {
                continue;
            }
            let rca = RippleCarryAdder::with_approx_lsbs(8, kind, lsbs).unwrap();
            let bound = ripple_adder_bound(&rca);
            configs.push((rca.name(), bound, ripple_netlist(&rca), accurate_rca.clone()));
            let sub = Subtractor::new(rca);
            let bound = subtractor_bound(&sub);
            configs.push((sub.name(), bound, magnitude_netlist(&sub), accurate_sub.clone()));
        }
    }

    for kind in Mul2x2Kind::ALL {
        let name = format!("mul2x2_{kind}");
        configs.push((name, mul2x2_bound(kind), kind.netlist(), Mul2x2Kind::Accurate.netlist()));
    }

    let sum_modes = [
        SumMode::Accurate,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 },
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx5, lsbs: 4 },
    ];
    for width in [4usize, 8] {
        let accurate =
            wallace_netlist(&WallaceMultiplier::new(width, FullAdderKind::Accurate, 0).unwrap());
        for block in Mul2x2Kind::ALL {
            for sum in sum_modes {
                let m = RecursiveMultiplier::new(width, block, sum).unwrap();
                let bound = recursive_multiplier_bound(&m);
                configs.push((m.name(), bound, recursive_netlist(&m), accurate.clone()));
            }
        }
        for (kind, cols) in [
            (FullAdderKind::Apx2, 4),
            (FullAdderKind::Apx4, 8),
            (FullAdderKind::Apx5, 8),
            (FullAdderKind::Accurate, 0),
        ] {
            let m = WallaceMultiplier::new(width, kind, cols).unwrap();
            configs.push((m.name(), wallace_bound(&m), wallace_netlist(&m), accurate.clone()));
        }
        if width == 8 {
            for (dropped, compensated) in [(2, false), (2, true), (4, true), (6, true)] {
                let m = TruncatedMultiplier::new(8, dropped, compensated).unwrap();
                let bound = truncated_bound(&m);
                configs.push((m.name(), bound, truncated_netlist(&m), accurate.clone()));
            }
        }
    }
    configs
}

#[test]
fn small_configurations_pass_the_exact_audit_on_every_field() {
    // The same comparison as `audit_bounds()`: over, under, WCE, error
    // rate and mean, each against the exhaustive metrics of the pair.
    let configs = small_configurations();
    assert_eq!(configs.len(), 77);
    for (name, bound, approx, exact) in &configs {
        let a = audit_pair(name.clone(), bound, approx, exact).unwrap();
        assert!(
            a.sound,
            "{name}: bound {bound:?} vs exact (over {}, under {}, rate {}, med {})",
            a.exact_over, a.exact_under, a.exact_error_rate, a.exact_med
        );
    }
}

/// Seed of the sampled legs; each configuration re-seeds its own stream.
const SAMPLE_SEED: u64 = 0xB0DA_2016;

/// Sample volume per wide configuration: operand pairs per GeAr, pixels
/// per SAD (16 per block) and output samples per FIR (64 per stream).
const SAMPLES: u64 = 100_000;

/// Largest `approx − exact` and `exact − approx` (each clamped at 0) over
/// `(exact, approx)` pairs.
fn observed_extremes(pairs: impl IntoIterator<Item = (i128, i128)>) -> (u128, u128) {
    pairs.into_iter().fold((0, 0), |(over, under), (exact, approx)| {
        let d = approx - exact;
        (over.max(d.max(0).unsigned_abs()), under.max((-d).max(0).unsigned_abs()))
    })
}

/// The magnitude bounds must cover the sampled extremes; mean and rate
/// are not checked on samples. The extremes are pinned so the seeds and
/// volume cannot drift unnoticed.
fn assert_magnitudes_hold(
    name: &str,
    bound: &ErrorBound,
    observed: (u128, u128),
    pin: (u128, u128),
) {
    assert!(
        observed.0 <= bound.over && observed.1 <= bound.under,
        "{name}: bound (over {}, under {}) < observed (over {}, under {})",
        bound.over,
        bound.under,
        observed.0,
        observed.1
    );
    assert_eq!(observed, pin, "{name}: the seeded sample stream moved");
}

#[test]
fn wide_gear_bounds_hold_on_seeded_samples() {
    for (n, r, p, pin) in [(11, 1, 9, (0, 1024)), (12, 4, 4, (0, 256)), (16, 2, 6, (0, 16384))] {
        let gear = GeArAdder::new(n, r, p).unwrap();
        let mask = (1u64 << n) - 1;
        let mut rng = DefaultRng::seed_from_u64(SAMPLE_SEED);
        let observed = observed_extremes((0..SAMPLES).map(|_| {
            let (a, b) = (rng.next_u64() & mask, rng.next_u64() & mask);
            (i128::from(a + b), i128::from(Adder::add(&gear, a, b)))
        }));
        assert_magnitudes_hold(&gear.name(), &gear_adder_bound(&gear), observed, pin);
    }
}

#[test]
fn sad_bounds_hold_on_seeded_blocks() {
    // Per variant, the pinned extremes at 2, 4 and 6 approximate LSBs.
    let pins: [[(u128, u128); 3]; 6] = [
        [(0, 0), (0, 0), (0, 0)],
        [(20, 20), (85, 70), (327, 305)],
        [(33, 11), (103, 58), (346, 314)],
        [(38, 11), (116, 69), (411, 288)],
        [(17, 25), (102, 114), (359, 468)],
        [(34, 261), (105, 293), (432, 352)],
    ];
    assert_eq!(SadVariant::ALL.len(), pins.len());
    for (variant, pins) in SadVariant::ALL.into_iter().zip(pins) {
        for (lsbs, pin) in [2usize, 4, 6].into_iter().zip(pins) {
            let sad = SadAccelerator::new(16, variant, lsbs).unwrap();
            let mut rng = DefaultRng::seed_from_u64(SAMPLE_SEED ^ 0x3);
            let observed = observed_extremes((0..SAMPLES / 16).map(|_| {
                let current: Vec<u64> = (0..16).map(|_| rng.next_u64() & 0xFF).collect();
                let reference: Vec<u64> = (0..16).map(|_| rng.next_u64() & 0xFF).collect();
                let exact = SadAccelerator::sad_exact(&current, &reference);
                (i128::from(exact), i128::from(sad.sad(&current, &reference).unwrap()))
            }));
            assert_magnitudes_hold(&sad.name(), &sad_bound(&sad), observed, pin);
        }
    }
}

#[test]
fn fir_bounds_hold_on_seeded_streams() {
    let kernels: [&[i64]; 2] = [&[1, 4, 6, 4, 1], &[-2, 5, 9, 5, -2]];
    // Per mode, the pinned extremes for each kernel.
    let pins: [[(u128, u128); 2]; 4] =
        [[(0, 0), (0, 0)], [(5, 5), (6, 5)], [(30, 45), (28, 38)], [(562, 222), (538, 583)]];
    assert_eq!(ApproxMode::ALL.len(), pins.len());
    for (mode, pins) in ApproxMode::ALL.into_iter().zip(pins) {
        for (k, (kernel, pin)) in kernels.into_iter().zip(pins).enumerate() {
            let fir = FirAccelerator::new(kernel, mode).unwrap();
            let mut rng = DefaultRng::seed_from_u64(SAMPLE_SEED ^ (0x40 + k as u64));
            let mut pairs = Vec::new();
            for _ in 0..SAMPLES / 64 {
                let stream: Vec<u64> = (0..64).map(|_| rng.next_u64() & 0xFF).collect();
                let exact = FirAccelerator::apply_exact(kernel, &stream);
                let approx = fir.apply(&stream);
                pairs.extend(
                    exact.into_iter().zip(approx).map(|(e, a)| (i128::from(e), i128::from(a))),
                );
            }
            let name = format!("{} h{kernel:?}", fir.name());
            assert_magnitudes_hold(&name, &fir_bound(&fir), observed_extremes(pairs), pin);
        }
    }
}

/// Every `audit_bounds()` entry, in order, as `(name, sound, bound_wce,
/// exact_wce, exact_over, exact_under, exact_error_rate bits)`. The
/// benchmark's audit replay relies on this order and these values.
const AUDIT_PIN: &[(&str, bool, u128, u128, u128, u128, u64)] = &[
    ("RCA(N=8,4xApxFA1)", true, 15, 15, 10, 15, 0x3fe7800000000000),
    ("RCA(N=8,4xApxFA2)", true, 15, 15, 15, 14, 0x3fe5e00000000000),
    ("RCA(N=8,4xApxFA3)", true, 15, 15, 15, 14, 0x3febc00000000000),
    ("RCA(N=8,4xApxFA4)", true, 15, 15, 10, 15, 0x3febc00000000000),
    ("RCA(N=8,4xApxFA5)", true, 15, 8, 8, 7, 0x3fee000000000000),
    ("GeAr(N=8,R=2,P=2)", true, 80, 64, 0, 64, 0x3fc8000000000000),
    ("Sub(RCA(N=8,4xApxFA1))", true, 15, 15, 15, 15, 0x3fe7700000000000),
    ("Sub(RCA(N=8,4xApxFA2))", true, 15, 15, 15, 15, 0x3fe5e00000000000),
    ("Sub(RCA(N=8,4xApxFA3))", true, 15, 15, 15, 15, 0x3febc00000000000),
    ("Sub(RCA(N=8,4xApxFA4))", true, 15, 15, 15, 15, 0x3febb20000000000),
    ("Sub(RCA(N=8,4xApxFA5))", true, 255, 255, 8, 255, 0x3fedf20000000000),
    ("mul2x2_AccMul", true, 0, 0, 0, 0, 0x0000000000000000),
    ("mul2x2_ApxMulSoA", true, 2, 2, 0, 2, 0x3fb0000000000000),
    ("mul2x2_ApxMulOur", true, 1, 1, 0, 1, 0x3fc8000000000000),
    ("RecMul(N=8,AccMul)", true, 0, 0, 0, 0, 0x0000000000000000),
    ("RecMul(N=8,AccMul,2xApxFA2)", true, 69922, 64990, 4303, 64990, 0x3ff0000000000000),
    ("RecMul(N=8,ApxMulSoA)", true, 14450, 14450, 0, 14450, 0x3fdde84000000000),
    ("RecMul(N=8,ApxMulSoA,2xApxFA2)", true, 18836, 16794, 4303, 16794, 0x3ff0000000000000),
    ("RecMul(N=8,ApxMulOur)", true, 7225, 7225, 0, 7225, 0x3fea0fe000000000),
    ("RecMul(N=8,ApxMulOur,2xApxFA2)", true, 77147, 64990, 4303, 64990, 0x3ff0000000000000),
    ("Wallace(N=8,4cols ApxFA2)", true, 34, 22, 22, 12, 0x3fed200000000000),
    ("Wallace(N=8,8cols ApxFA4)", true, 67074, 1008, 662, 1008, 0x3fef580000000000),
    ("Wallace(N=8,8cols ApxFA5)", true, 66820, 1108, 1108, 854, 0x3feee00000000000),
    ("TruncMul(N=8,D=2)", true, 5, 5, 0, 5, 0x3fe0000000000000),
    ("TruncMul(N=8,D=4+comp)", true, 37, 37, 12, 37, 0x3fed000000000000),
    ("TruncMul(N=8,D=6+comp)", true, 241, 241, 80, 241, 0x3fef600000000000),
    ("calculus:Wallace(N=8,4cols ApxFA2)", true, 22, 22, 22, 12, 0x3fed200000000000),
    ("calculus:Wallace(N=8,8cols ApxFA4)", true, 1008, 1008, 662, 1008, 0x3fef580000000000),
    ("calculus:Wallace(N=8,8cols ApxFA5)", true, 1108, 1108, 1108, 854, 0x3feee00000000000),
    ("calculus:TruncMul(N=8,D=2)", true, 5, 5, 0, 5, 0x3fe0000000000000),
    ("calculus:TruncMul(N=8,D=4+comp)", true, 37, 37, 12, 37, 0x3fed000000000000),
    ("calculus:TruncMul(N=8,D=6+comp)", true, 241, 241, 80, 241, 0x3fef600000000000),
    ("calculus:RecMul(N=8,AccMul)", true, 0, 0, 0, 0, 0x0000000000000000),
    ("calculus:RecMul(N=8,AccMul,2xApxFA2)", true, 69922, 64990, 4303, 64990, 0x3ff0000000000000),
    ("calculus:RecMul(N=8,ApxMulSoA)", true, 14450, 14450, 0, 14450, 0x3fdde84000000000),
    (
        "calculus:RecMul(N=8,ApxMulSoA,2xApxFA2)",
        true,
        18836,
        16794,
        4303,
        16794,
        0x3ff0000000000000,
    ),
    ("calculus:RecMul(N=8,ApxMulOur)", true, 7225, 7225, 0, 7225, 0x3fea0fe000000000),
    (
        "calculus:RecMul(N=8,ApxMulOur,2xApxFA2)",
        true,
        77147,
        64990,
        4303,
        64990,
        0x3ff0000000000000,
    ),
    ("absint:cell/AXA3", true, 1, 1, 0, 1, 0x3fd0000000000000),
    ("absint:cell/SESA1", true, 1, 1, 1, 1, 0x3fe0000000000000),
    ("absint:cell/TCAA", true, 2, 2, 2, 2, 0x3fd0000000000000),
    ("absint:cell/LOA8_L3", true, 4, 4, 4, 3, 0x3fe2800000000000),
    ("absint:cell/OFLOCA8", true, 15, 15, 3, 15, 0x3feb800000000000),
    ("absint:cell/CLA8", true, 0, 0, 0, 0, 0x0000000000000000),
    ("absint:cell/CSA8", true, 0, 0, 0, 0, 0x0000000000000000),
    ("absint:cell/SKL8", true, 0, 0, 0, 0, 0x0000000000000000),
    ("absint:cell/BOOTH_R2", true, 0, 0, 0, 0, 0x0000000000000000),
    ("absint:cell/BOOTH_R4", true, 0, 0, 0, 0, 0x0000000000000000),
    ("absint:cell/BOOTH_R4_APX", true, 1, 1, 0, 1, 0x3fd0000000000000),
    ("absint:cell/CMP42", true, 0, 0, 0, 0, 0x0000000000000000),
    ("absint:cell/CMP42_MS", true, 4, 4, 0, 4, 0x3fd4000000000000),
    ("absint:cell/CMP42_OR", true, 5, 5, 0, 5, 0x3fe6000000000000),
    ("absint:ApxFA1", true, 1, 1, 1, 1, 0x3fd0000000000000),
    ("absint:ApxFA2", true, 1, 1, 1, 1, 0x3fd0000000000000),
    ("absint:ApxFA3", true, 1, 1, 1, 1, 0x3fd8000000000000),
    ("absint:ApxFA4", true, 1, 1, 1, 1, 0x3fd8000000000000),
    ("absint:ApxFA5", true, 1, 1, 1, 1, 0x3fe0000000000000),
    ("absint:mul2x2_ApxMulSoA", true, 2, 2, 0, 2, 0x3fb0000000000000),
    ("absint:mul2x2_ApxMulOur", true, 1, 1, 0, 1, 0x3fc8000000000000),
    ("absint:RCA(N=8,4xApxFA1)", true, 15, 15, 10, 15, 0x3fe7800000000000),
    ("absint:RCA(N=8,4xApxFA2)", true, 15, 15, 15, 14, 0x3fe5e00000000000),
    ("absint:RCA(N=8,4xApxFA3)", true, 15, 15, 15, 14, 0x3febc00000000000),
    ("absint:RCA(N=8,4xApxFA4)", true, 15, 15, 10, 15, 0x3febc00000000000),
    ("absint:RCA(N=8,4xApxFA5)", true, 8, 8, 8, 7, 0x3fee000000000000),
    ("absint:GeAr(N=8,R=2,P=2)", true, 64, 64, 0, 64, 0x3fc8000000000000),
    ("absint:Sub(RCA(N=8,4xApxFA1))", true, 262, 262, 262, 241, 0x3fe7800000000000),
    ("absint:Sub(RCA(N=8,4xApxFA2))", true, 255, 255, 255, 15, 0x3fe5e00000000000),
    ("absint:Sub(RCA(N=8,4xApxFA3))", true, 263, 263, 263, 15, 0x3febc00000000000),
    ("absint:Sub(RCA(N=8,4xApxFA4))", true, 262, 262, 262, 262, 0x3febc00000000000),
    ("absint:Sub(RCA(N=8,4xApxFA5))", true, 262, 262, 262, 261, 0x3fee000000000000),
    ("absint:Wallace(N=8,4cols ApxFA2)", true, 22, 22, 22, 12, 0x3fed200000000000),
    ("absint:Wallace(N=8,8cols ApxFA4)", true, 1008, 1008, 662, 1008, 0x3fef580000000000),
    ("absint:Wallace(N=8,8cols ApxFA5)", true, 1108, 1108, 1108, 854, 0x3feee00000000000),
];

/// Every `prove_all` report, in order, as `(name, method, proven)`.
const PROOF_PIN: &[(&str, &str, bool)] = &[
    ("AccuFA", "bdd", true),
    ("ApxFA1", "bdd", true),
    ("ApxFA2", "bdd", true),
    ("ApxFA3", "bdd", true),
    ("ApxFA4", "bdd", true),
    ("ApxFA5", "bdd", true),
    ("cell/AXA3", "bdd", true),
    ("cell/SESA1", "bdd", true),
    ("cell/TCAA", "bdd", true),
    ("cell/LOA8_L3", "bdd+exhaustive", true),
    ("cell/OFLOCA8", "bdd+exhaustive", true),
    ("cell/CLA8", "bdd+exhaustive", true),
    ("cell/CSA8", "bdd+exhaustive", true),
    ("cell/SKL8", "bdd+exhaustive", true),
    ("cell/BOOTH_R2", "bdd", true),
    ("cell/BOOTH_R4", "bdd", true),
    ("cell/BOOTH_R4_APX", "bdd", true),
    ("cell/CMP42", "bdd", true),
    ("cell/CMP42_MS", "bdd", true),
    ("cell/CMP42_OR", "bdd", true),
    ("AccMul", "bdd", true),
    ("ApxMulSoA", "bdd", true),
    ("ApxMulOur", "bdd", true),
    ("CfgMulSoA", "bdd", true),
    ("CfgMulOur", "bdd", true),
    ("RCA(N=8,4xApxFA1)", "bdd+exhaustive", true),
    ("RCA(N=8,4xApxFA2)", "bdd+exhaustive", true),
    ("RCA(N=8,4xApxFA3)", "bdd+exhaustive", true),
    ("RCA(N=8,4xApxFA4)", "bdd+exhaustive", true),
    ("RCA(N=8,4xApxFA5)", "bdd+exhaustive", true),
    ("GeAr(N=11,R=1,P=9)", "bdd+sampled", true),
    ("GeAr(N=12,R=4,P=4)", "bdd+sampled", true),
    ("GeAr(N=16,R=2,P=6)", "bdd+sampled", true),
    ("RecMul(N=8,ApxMulOur,3xApxFA2)", "exhaustive", true),
    ("Wallace(N=8,6cols ApxFA3)", "exhaustive", true),
    ("TruncMul(N=8,D=4+comp)", "exhaustive", true),
    ("Sub(RCA(N=8,4xApxFA3))", "exhaustive", true),
];

#[test]
fn audit_and_proof_registry_reproduce_their_golden_pin() {
    let audits: Vec<_> = audit_bounds()
        .into_iter()
        .map(|a| {
            (
                a.name,
                a.sound,
                a.bound_wce,
                a.exact_wce,
                a.exact_over,
                a.exact_under,
                a.exact_error_rate.to_bits(),
            )
        })
        .collect();
    let want: Vec<_> = AUDIT_PIN
        .iter()
        .map(|&(n, s, bw, ew, eo, eu, r)| (n.to_string(), s, bw, ew, eo, eu, r))
        .collect();
    assert_eq!(audits, want);

    let hdl = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("hdl");
    ensure_registry_hdl(&hdl).expect("hdl/ self-heals from the registry");
    let proofs: Vec<_> = prove_all(&hdl)
        .expect("hdl/ loads")
        .into_iter()
        .map(|r| (r.name.clone(), r.method, r.is_proven()))
        .collect();
    let want: Vec<_> = PROOF_PIN.iter().map(|&(n, m, p)| (n.to_string(), m, p)).collect();
    assert_eq!(proofs, want);
}

/// Runs the exhaustive engine and the BDD metrics on one netlist pair.
/// Two-operand units use the interleaved BDD order (operand `a` on the
/// even variables), everything else the natural input order; the engine
/// needs no order. Every field must agree except the witness, which must
/// realise the worst-case error under `Netlist::eval`.
fn assert_engines_agree(name: &str, approx: &Netlist, exact: &Netlist, operand_width: usize) {
    let engine = exhaustive_metrics(approx, exact).expect("the pair fits the exhaustive engine");
    let mut bdd = Bdd::new();
    let vars: Vec<Ref> = if operand_width == 0 {
        (0..approx.n_inputs()).map(|i| bdd.var(i)).collect()
    } else {
        let (a, b) = interleaved_operand_vars(&mut bdd, operand_width);
        a.into_iter().chain(b).collect()
    };
    let a_roots = compile_netlist(&mut bdd, approx, &vars);
    let e_roots = compile_netlist(&mut bdd, exact, &vars);
    let oracle = exact_metrics(&mut bdd, &a_roots, &e_roots, approx.n_inputs());
    assert_eq!(
        ExactMetrics { worst_case_witness: 0, ..engine.clone() },
        ExactMetrics { worst_case_witness: 0, ..oracle },
        "{name}: engine and BDD metrics differ"
    );
    let w = engine.worst_case_witness;
    let d = u128::from(approx.eval(w).abs_diff(exact.eval(w)));
    assert_eq!(d, engine.worst_case_error, "{name}: witness {w:#x} misses the WCE");
}

#[test]
fn exhaustive_engine_matches_bdd_metrics_on_one_unit_per_family() {
    for d in xlac::adders::approx_cell_descriptors() {
        if d.netlist().n_inputs() <= 4 {
            assert_engines_agree(d.name(), d.netlist(), d.reference_netlist(), 0);
        }
    }
    let accurate_fa = FullAdderKind::Accurate.structural_netlist();
    for kind in FullAdderKind::APPROXIMATE {
        assert_engines_agree(&kind.to_string(), &kind.structural_netlist(), &accurate_fa, 0);
    }
    for kind in Mul2x2Kind::ALL {
        let name = format!("mul2x2_{kind}");
        assert_engines_agree(&name, &kind.netlist(), &Mul2x2Kind::Accurate.netlist(), 0);
    }

    let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4).unwrap();
    let accurate_rca = ripple_netlist(&RippleCarryAdder::accurate(8));
    assert_engines_agree(&rca.name(), &ripple_netlist(&rca), &accurate_rca, 8);
    let gear = GeArAdder::new(8, 2, 2).unwrap();
    assert_engines_agree(&gear.name(), &gear_netlist(&gear), &accurate_rca, 8);
    let sub =
        Subtractor::new(RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx5, 4).unwrap());
    let exact_sub = subtractor_netlist(&Subtractor::new(RippleCarryAdder::accurate(8)));
    assert_engines_agree(&sub.name(), &subtractor_netlist(&sub), &exact_sub, 8);

    let accurate_mul =
        wallace_netlist(&WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).unwrap());
    let rec = RecursiveMultiplier::new(
        8,
        Mul2x2Kind::ApxSoA,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 2 },
    )
    .unwrap();
    assert_engines_agree(&rec.name(), &recursive_netlist(&rec), &accurate_mul, 8);
    let wallace = WallaceMultiplier::new(8, FullAdderKind::Apx4, 8).unwrap();
    assert_engines_agree(&wallace.name(), &wallace_netlist(&wallace), &accurate_mul, 8);
    let trunc = TruncatedMultiplier::new(8, 4, true).unwrap();
    assert_engines_agree(&trunc.name(), &truncated_netlist(&trunc), &accurate_mul, 8);
}
