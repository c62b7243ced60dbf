//! DSP pipeline demo: FIR filtering and DCT analysis on approximate MAC
//! datapaths, across the approximation-mode ladder.
//!
//! Synthesizes a noisy two-tone signal, low-passes it with a binomial FIR
//! at each mode, and reports the per-mode output error and power — then
//! transforms a residual block through the DCT accelerator at each mode
//! and reports coefficient drift. Shows the two structural rules baked
//! into the MAC datapath (zero-preserving cells, per-level error scaling);
//! see `xlac_accel::fir` for the rationale.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dsp_pipeline
//! ```

use xlac::accel::config::ApproxMode;
use xlac::accel::dct::DctAccelerator;
use xlac::accel::fir::FirAccelerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- a noisy two-tone test signal ---------------------------------------
    let samples: Vec<u64> = (0..96)
        .map(|i| {
            let t = i as f64;
            let slow = 80.0 * (t * 0.1).sin();
            let fast = 40.0 * (t * 1.9).sin(); // high-frequency interference
            (128.0 + slow + fast).clamp(0.0, 255.0) as u64
        })
        .collect();
    let taps = [1i64, 4, 6, 4, 1]; // binomial low-pass, gain 16

    println!("FIR(5 taps) across the approximation ladder:");
    println!("{:<12} {:>12} {:>14}", "mode", "mean |err|", "power [nW]");
    let exact_out = FirAccelerator::apply_exact(&taps, &samples);
    for mode in ApproxMode::ALL {
        let fir = FirAccelerator::new(&taps, mode)?;
        let out = fir.apply(&samples);
        let err: f64 =
            exact_out.iter().zip(&out).map(|(e, a)| (e - a).unsigned_abs() as f64).sum::<f64>()
                / out.len() as f64;
        println!("{:<12} {:>12.2} {:>14.0}", mode.to_string(), err, fir.hw_cost().power_nw);
    }

    // --- DCT coefficient drift ----------------------------------------------
    let block = [[30i64, -12, 4, 0], [18, 9, -3, 1], [-25, 6, 2, -2], [11, -7, 0, 3]];
    let exact = DctAccelerator::forward_exact(&block);
    println!("\nDCT4x4 coefficient drift (mean |Δcoef|):");
    println!("{:<10} {:>12} {:>14}", "cell", "mean |Δ|", "power [nW]");
    for (kind, lsbs) in [
        (xlac::adders::FullAdderKind::Accurate, 0usize),
        (xlac::adders::FullAdderKind::Apx1, 3),
        (xlac::adders::FullAdderKind::Apx4, 3),
        (xlac::adders::FullAdderKind::Apx5, 3),
    ] {
        let dct = DctAccelerator::new(kind, lsbs)?;
        let y = dct.forward(&block);
        let drift: f64 = exact
            .iter()
            .flatten()
            .zip(y.iter().flatten())
            .map(|(e, a)| (e - a).unsigned_abs() as f64)
            .sum::<f64>()
            / 16.0;
        println!("{:<10} {:>12.2} {:>14.0}", kind.to_string(), drift, dct.hw_cost().power_nw);
    }

    println!("\nLow-frequency content survives the approximate datapaths; the");
    println!("power column is what each step down the ladder buys.");
    Ok(())
}
