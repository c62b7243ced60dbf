//! Micro-benchmarks of the EDA-substrate extensions: netlist
//! optimization, equivalence checking, elaboration and the heavier
//! arithmetic components (divider, DCT, FIR).
//!
//! Runs on the in-house harness (`xlac_bench::harness`); set
//! `XLAC_BENCH_QUICK=1` for a smoke run.

use xlac_accel::config::ApproxMode;
use xlac_accel::dct::DctAccelerator;
use xlac_accel::fir::FirAccelerator;
use xlac_adders::hw::{gear_netlist, ripple_netlist};
use xlac_adders::{ArrayDivider, FullAdderKind, GeArAdder, RippleCarryAdder};
use xlac_bench::{black_box, Harness};
use xlac_logic::equiv::check_equivalence;
use xlac_logic::opt::optimize;

fn bench_optimizer() {
    let mut h = Harness::group("netlist_optimizer");
    let rca8 = ripple_netlist(&RippleCarryAdder::accurate(8));
    h.bench("optimize_rca8", || optimize(black_box(&rca8)));
    let gear = gear_netlist(&GeArAdder::new(12, 4, 4).unwrap());
    h.bench("optimize_gear12", || optimize(black_box(&gear)));
}

fn bench_equivalence() {
    let mut h = Harness::group("equivalence_check");
    let raw = ripple_netlist(&RippleCarryAdder::accurate(8));
    let opt = optimize(&raw);
    h.bench("rca8_vs_optimized_2x16_inputs", || {
        check_equivalence(black_box(&raw), black_box(&opt)).unwrap()
    });
}

fn bench_divider() {
    let mut h = Harness::group("divider_8bit");
    let exact = ArrayDivider::accurate(8).unwrap();
    let approx = ArrayDivider::new(8, FullAdderKind::Apx3, 2).unwrap();
    let pairs: Vec<(u64, u64)> =
        (0..256u64).map(|i| ((i * 37) % 256, (i * 13) % 255 + 1)).collect();
    h.bench("accurate", || {
        pairs.iter().map(|&(n, d)| exact.divide(black_box(n), black_box(d)).unwrap().0).sum::<u64>()
    });
    h.bench("apx3_lsb2", || {
        pairs
            .iter()
            .map(|&(n, d)| approx.divide(black_box(n), black_box(d)).unwrap().0)
            .sum::<u64>()
    });
}

fn bench_dct_fir() {
    let mut h = Harness::group("dsp_accelerators");
    let block = [[37i64, -21, 9, 3], [5, -5, 5, -5], [100, 0, -100, 0], [1, 2, 3, 4]];
    let dct = DctAccelerator::accurate().unwrap();
    let dct_apx = DctAccelerator::new(FullAdderKind::Apx3, 3).unwrap();
    h.bench("dct4x4_accurate", || dct.forward(black_box(&block)));
    h.bench("dct4x4_apx3", || dct_apx.forward(black_box(&block)));

    let taps = [1i64, 4, 6, 4, 1];
    let samples: Vec<u64> = (0..256).map(|i| (i * 29) % 256).collect();
    let fir = FirAccelerator::new(&taps, ApproxMode::Accurate).unwrap();
    let fir_apx = FirAccelerator::new(&taps, ApproxMode::Medium).unwrap();
    h.bench("fir5_256_accurate", || fir.apply(black_box(&samples)));
    h.bench("fir5_256_medium", || fir_apx.apply(black_box(&samples)));
}

fn main() {
    bench_optimizer();
    bench_equivalence();
    bench_divider();
    bench_dct_fir();
}
