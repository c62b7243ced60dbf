//! Ablation: GeAr's iterative error recovery — quality bought per pass.
//!
//! The recovery stage re-executes flagged sub-adders one pass per cycle,
//! trading latency for accuracy. This ablation measures, for a deep GeAr
//! configuration, the residual error rate and mean error distance after
//! 0, 1, 2, … correction passes, plus how often each pass count is
//! actually needed — quantifying the design choice DESIGN.md calls out
//! (variable-latency correction vs always-on worst-case latency).

use xlac_adders::GeArAdder;
use xlac_bench::{check, header, row, section};
use xlac_core::rng::{DefaultRng, Rng};

fn main() {
    let gear = GeArAdder::new(16, 2, 2).expect("valid"); // k = 7: deep cascade
    let k = gear.sub_adder_count();
    let samples = 200_000u64;
    let mut rng = DefaultRng::seed_from_u64(0xC0BE);
    let pairs: Vec<(u64, u64)> =
        (0..samples).map(|_| (rng.gen::<u64>() & 0xFFFF, rng.gen::<u64>() & 0xFFFF)).collect();

    section(&format!("ablation — GeAr(16,2,2) recovery passes (k = {k})"));
    header(&[("passes", 7), ("err rate", 10), ("mean |e|", 10), ("still flagged", 14)]);

    let mut stats: Vec<(usize, f64, f64, f64)> = Vec::new();
    for passes in 0..=(k - 1) {
        let mut errors = 0u64;
        let mut err_sum = 0.0f64;
        let mut flagged = 0u64;
        for &(a, b) in &pairs {
            let out = gear.add_with_correction(a, b, passes);
            let exact = a + b;
            if out.value != exact {
                errors += 1;
                err_sum += out.value.abs_diff(exact) as f64;
            }
            if out.errors_detected > 0 {
                flagged += 1;
            }
        }
        let err_rate = errors as f64 / samples as f64;
        let mean_e = err_sum / samples as f64;
        let flag_rate = flagged as f64 / samples as f64;
        stats.push((passes, err_rate, mean_e, flag_rate));
        row(&[
            (passes.to_string(), 7),
            (format!("{err_rate:.5}"), 10),
            (format!("{mean_e:.3}"), 10),
            (format!("{flag_rate:.5}"), 14),
        ]);
    }

    // Distribution of passes actually needed (variable-latency operation).
    section("passes needed to converge (variable-latency histogram)");
    let mut histogram = vec![0u64; k];
    for &(a, b) in &pairs {
        let out = gear.add_with_correction(a, b, usize::MAX);
        histogram[out.correction_iterations] += 1;
    }
    header(&[("passes", 7), ("fraction", 10)]);
    for (p, &count) in histogram.iter().enumerate() {
        row(&[(p.to_string(), 7), (format!("{:.5}", count as f64 / samples as f64), 10)]);
    }

    section("shape checks");
    let mut ok = true;
    ok &= check(
        "error rate decreases monotonically with passes",
        stats.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12),
    );
    ok &= check("k-1 passes reach exactness", stats.last().expect("rows").1 == 0.0);
    ok &=
        check("one pass removes most of the error mass", stats[1].2 < 0.35 * stats[0].2.max(1e-12));
    ok &= check(
        "the common case needs at most one pass (variable latency pays)",
        (histogram[0] + histogram[1]) as f64 / samples as f64 > 0.85,
    );
    std::process::exit(i32::from(!ok));
}
