//! Thread-scaling regression for the sweep runner.
//!
//! The flat `DEFAULT_CHUNK` left mid-size sweeps with fewer chunks than
//! workers, so 8-thread runs barely beat 1-thread (a 65 536-trial sweep
//! had 8 chunks: zero load-balancing slack). Auto-chunking targets ~64
//! chunks; this test records the floor that fix must keep clearing.
//!
//! The timing assertion needs real cores to mean anything, so it
//! self-skips below 4 available CPUs; the bitwise thread-invariance
//! assertion (the determinism contract) runs everywhere.

use std::time::{Duration, Instant};
use xlac_adders::FullAdderKind;
use xlac_multipliers::WallaceMultiplier;
use xlac_sim::{auto_chunk_size, multiplier_sweep, CompiledMultiplier, SweepOptions};

const TRIALS: u64 = 65_536;

fn sweep_time(m: &CompiledMultiplier, threads: usize) -> Duration {
    // Best-of-N: the minimum is the least-noisy location estimator for
    // a quantity with a hard lower bound.
    (0..5)
        .map(|_| {
            let opts = SweepOptions::new(TRIALS, 0x7173).threads(threads).auto_chunk();
            let start = Instant::now();
            std::hint::black_box(multiplier_sweep(m, &opts));
            start.elapsed()
        })
        .min()
        .expect("non-empty sample")
}

#[test]
fn auto_chunked_sweeps_scale_with_threads() {
    let wallace = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
    let m = CompiledMultiplier::wallace(&wallace);

    // Determinism first, on any machine: auto-chunking must not let the
    // thread count leak into the statistics.
    let stats = |threads| {
        multiplier_sweep(&m, &SweepOptions::new(TRIALS, 0x7173).threads(threads).auto_chunk())
    };
    let one = stats(1);
    assert_eq!(one, stats(8));

    // The sweep must actually have enough chunks to balance 8 workers.
    assert!(auto_chunk_size(TRIALS) * 8 <= TRIALS, "auto chunk leaves fewer chunks than workers");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping timing assertion: only {cores} CPU(s) available");
        return;
    }
    let t1 = sweep_time(&m, 1);
    let t8 = sweep_time(&m, 8);
    let speedup = t1.as_secs_f64() / t8.as_secs_f64();
    // The recorded floor: well under the ideal on 4+ cores, far above
    // the ~1.0× the flat chunk size used to deliver.
    assert!(
        speedup >= 1.3,
        "8-thread sweep only {speedup:.2}x faster than 1-thread ({t1:?} vs {t8:?})"
    );
}
