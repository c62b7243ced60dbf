//! Soundness of the `xlac-analysis` static error bounds against ground
//! truth: exhaustive sweeps where the operand space fits, and seeded
//! property-based sampling (the `xlac_core::check` harness) where it
//! does not. The contract under test is `DESIGN.md` §9: for every
//! shipped configuration the static worst-case bound dominates every
//! error the hardware can actually produce.

use xlac::adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder};
use xlac::analysis::components::{
    gear_adder_bound, recursive_multiplier_bound, ripple_adder_bound, truncated_bound,
    wallace_bound,
};
use xlac::analysis::symbolic::audit_bounds;
use xlac::analysis::symbolic::registry::{ensure_registry_hdl, prove_all};
use xlac::analysis::validate::run_all_checks;
use xlac::core::bits;
use xlac::core::check::{check, DefaultRng, Rng};
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
                f64::from(u32::try_from(rate).unwrap()) / 65536.0
                    <= bound.error_rate_bound + 1e-9,
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
                    let kind = [Mul2x2Kind::Accurate, Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur]
                        [which];
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

#[test]
fn full_check_suite_reports_sound_at_reduced_sampling() {
    // The library's own validation sweep (the same one `xlac-lint` runs
    // in CI) must be sound end to end. Reduced sample count keeps the
    // tier-1 wall-clock in budget; CI runs the full count.
    let checks = run_all_checks(20_000).unwrap();
    assert!(checks.len() >= 40, "expected a broad sweep, got {}", checks.len());
    for c in &checks {
        assert!(
            c.is_sound(),
            "{}: bound {:?} vs observed over {} under {}",
            c.name,
            c.bound,
            c.observed_over,
            c.observed_under
        );
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
    ("calculus:RecMul(N=8,ApxMulSoA,2xApxFA2)", true, 18836, 16794, 4303, 16794, 0x3ff0000000000000),
    ("calculus:RecMul(N=8,ApxMulOur)", true, 7225, 7225, 0, 7225, 0x3fea0fe000000000),
    ("calculus:RecMul(N=8,ApxMulOur,2xApxFA2)", true, 77147, 64990, 4303, 64990, 0x3ff0000000000000),
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
