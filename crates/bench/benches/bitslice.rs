//! The bit-sliced simulation engine vs the scalar golden models.
//!
//! Measures the throughput claim behind `xlac-sim` (DESIGN.md §10): the
//! Monte-Carlo error sweep of an approximate 8×8 multiplier through its
//! 64-lane evaluator against the identical sweep through the scalar
//! model, single-threaded and multi-threaded. The Wallace tree's 64-lane
//! evaluator is its compiled netlist (`CompiledMultiplier::wallace`); the
//! recursive multiplier's is the hand `mul_x64`. Also asserts, every run,
//! that all flavours produce identical statistics — a benchmark that
//! measured two *different* computations would be meaningless.
//!
//! Runs on the in-house harness (`xlac_bench::harness`); set
//! `XLAC_BENCH_QUICK=1` for a smoke run.

use xlac_adders::{FullAdderKind, GeArAdder};
use xlac_bench::{black_box, Harness};
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, MultiplierX64, RecursiveMultiplier, SumMode, WallaceMultiplier,
};
use xlac_sim::{
    gear_sweep, gear_sweep_scalar, multiplier_sweep, multiplier_sweep_scalar, CompiledMultiplier,
    SweepOptions,
};

/// Trials per sweep: big enough that the fixed chunk overhead is noise,
/// small enough for the bench-smoke CI lane.
const TRIALS: u64 = 1 << 16;

/// Benches the scalar model `m` against its 64-lane evaluator `sliced`.
fn bench_one_multiplier(group: &str, m: &(dyn Multiplier + Sync), sliced: &dyn MultiplierX64) {
    let mut h = Harness::group(group);
    let opts = SweepOptions::new(TRIALS, 0xB17).chunk(4096);

    // Guard: every measured flavour computes the same statistics.
    let one = multiplier_sweep(sliced, &opts.threads(1));
    assert_eq!(one, multiplier_sweep_scalar(m, &opts.threads(1)));
    assert_eq!(one, multiplier_sweep(sliced, &opts.threads(8)));

    h.bench("scalar_1thread", || black_box(multiplier_sweep_scalar(m, &opts.threads(1))));
    h.bench("sliced_1thread", || black_box(multiplier_sweep(sliced, &opts.threads(1))));
    h.bench("sliced_8threads", || black_box(multiplier_sweep(sliced, &opts.threads(8))));
}

fn bench_multiplier_sweeps() {
    // Headline: the Wallace-tree 8×8 with approximate compressors in the 8
    // low columns. Its scalar golden model assembles the partial-product
    // matrix per trial — the gate-structural workload bit-slicing targets.
    let wallace = WallaceMultiplier::new(8, FullAdderKind::Apx4, 8).unwrap();
    let compiled = CompiledMultiplier::wallace(&wallace);
    bench_one_multiplier("bitslice_mul8x8_wallace_sweep_65536", &wallace, &compiled);

    // Second data point: the recursive 2×2-block multiplier. Its scalar
    // model is already word-level (one match per 2×2 block), so the sliced
    // advantage is smaller — this bounds the speedup from below.
    let recursive = RecursiveMultiplier::new(
        8,
        Mul2x2Kind::ApxSoA,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx1, lsbs: 2 },
    )
    .unwrap();
    bench_one_multiplier("bitslice_mul8x8_recursive_sweep_65536", &recursive, &recursive);
}

fn bench_gear_sweep() {
    let mut h = Harness::group("bitslice_gear16_edc_sweep_65536");
    let gear = GeArAdder::new(16, 4, 4).unwrap();
    let opts = SweepOptions::new(TRIALS, 0x6EA).chunk(4096);

    let sliced = gear_sweep(&gear, Some(usize::MAX), &opts.threads(1));
    assert_eq!(sliced, gear_sweep_scalar(&gear, Some(usize::MAX), &opts.threads(1)));
    assert_eq!(sliced, gear_sweep(&gear, Some(usize::MAX), &opts.threads(8)));

    h.bench("scalar_1thread", || {
        black_box(gear_sweep_scalar(&gear, Some(usize::MAX), &opts.threads(1)))
    });
    h.bench("sliced_1thread", || black_box(gear_sweep(&gear, Some(usize::MAX), &opts.threads(1))));
    h.bench("sliced_8threads", || black_box(gear_sweep(&gear, Some(usize::MAX), &opts.threads(8))));
}

fn main() {
    bench_multiplier_sweeps();
    bench_gear_sweep();
    // Under `--features obs` the sweeps above ran instrumented: flush the
    // registry's counters and span timings as extra JSON lines so
    // `BENCH_obs.json` carries the profile next to the bench samples.
    // Disabled builds export the empty string, so this prints nothing.
    let profile = xlac_obs::export_json_lines();
    if !profile.is_empty() {
        print!("{profile}");
    }
}
