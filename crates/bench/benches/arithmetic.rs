//! Micro-benchmarks: throughput of the arithmetic library.
//!
//! These quantify the *simulation-side* performance of the behavioural
//! models (the paper's C/MATLAB equivalents) — accurate vs approximate
//! adders and multipliers, and the GeAr error models vs Monte-Carlo
//! simulation (the Table IV speed argument).
//!
//! Runs on the in-house harness (`xlac_bench::harness`); set
//! `XLAC_BENCH_QUICK=1` for a smoke run.

use xlac_adders::{Adder, FullAdderKind, GeArAdder, GearErrorModel, RippleCarryAdder};
use xlac_bench::{black_box, Harness};
use xlac_multipliers::{Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, WallaceMultiplier};

fn bench_adders() {
    let mut h = Harness::group("adders_16bit");
    let rca = RippleCarryAdder::accurate(16);
    let apx = RippleCarryAdder::with_approx_lsbs(16, FullAdderKind::Apx3, 6).unwrap();
    let gear = GeArAdder::new(16, 4, 4).unwrap();
    let ops: Vec<(u64, u64)> = (0..256u64)
        .map(|i| (i.wrapping_mul(2654435761) & 0xFFFF, i.wrapping_mul(40503) & 0xFFFF))
        .collect();

    h.bench("ripple_accurate", || {
        let mut acc = 0u64;
        for &(x, y) in &ops {
            acc ^= rca.add(black_box(x), black_box(y));
        }
        acc
    });
    h.bench("ripple_apx3_lsb6", || {
        let mut acc = 0u64;
        for &(x, y) in &ops {
            acc ^= apx.add(black_box(x), black_box(y));
        }
        acc
    });
    h.bench("gear_r4p4", || {
        let mut acc = 0u64;
        for &(x, y) in &ops {
            acc ^= gear.add(black_box(x), black_box(y)).value;
        }
        acc
    });
    h.bench("gear_r4p4_corrected", || {
        let mut acc = 0u64;
        for &(x, y) in &ops {
            acc ^= gear.add_with_correction(black_box(x), black_box(y), usize::MAX).value;
        }
        acc
    });
}

fn bench_multipliers() {
    let mut h = Harness::group("multipliers_8bit");
    let rec = RecursiveMultiplier::new(8, Mul2x2Kind::Accurate, SumMode::Accurate).unwrap();
    let rec_apx = RecursiveMultiplier::new(
        8,
        Mul2x2Kind::ApxSoA,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx4, lsbs: 4 },
    )
    .unwrap();
    let wal = WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).unwrap();
    let ops: Vec<(u64, u64)> =
        (0..256u64).map(|i| (i.wrapping_mul(97) & 0xFF, i.wrapping_mul(61) & 0xFF)).collect();

    h.bench("recursive_accurate", || {
        ops.iter().map(|&(x, y)| rec.mul(black_box(x), black_box(y))).sum::<u64>()
    });
    h.bench("recursive_approx", || {
        ops.iter().map(|&(x, y)| rec_apx.mul(black_box(x), black_box(y))).sum::<u64>()
    });
    h.bench("wallace_accurate", || {
        ops.iter().map(|&(x, y)| wal.mul(black_box(x), black_box(y))).sum::<u64>()
    });
}

fn bench_error_models() {
    // The Table IV argument: analytic evaluation is orders of magnitude
    // faster than simulation.
    let mut h = Harness::group("gear_error_model_n16_r2p2");
    let gear = GeArAdder::new(16, 2, 2).unwrap();
    let model = GearErrorModel::for_adder(&gear);
    h.bench("analytic_exact", || black_box(model.exact()));
    h.bench("inclusion_exclusion", || black_box(model.inclusion_exclusion()));
    h.bench("monte_carlo_10k", || black_box(model.monte_carlo(10_000, 7)));
}

fn main() {
    bench_adders();
    bench_multipliers();
    bench_error_models();
}
