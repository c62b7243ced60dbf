//! Fig.10-style demo: data-dependent resilience of low-pass filtering on
//! approximate hardware.
//!
//! Filters the seven synthetic test images with the same approximate
//! 3×3 low-pass accelerator and reports per-image SSIM against the
//! accurately filtered reference — the spread across images is the
//! paper's data-dependent-resilience observation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example image_filter
//! ```

use xlac::adders::FullAdderKind;
use xlac::imaging::images::TestImage;
use xlac::imaging::resilience::{resilience_study, StudyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size = 64;
    println!("SSIM after 3x3 low-pass filtering on approximate hardware");
    println!("(approximate output scored against the accurate output)\n");

    for (kind, lsbs) in
        [(FullAdderKind::Apx2, 4usize), (FullAdderKind::Apx4, 4), (FullAdderKind::Apx5, 4)]
    {
        let rows =
            resilience_study(&TestImage::ALL, StudyConfig { size, kind, approx_lsbs: lsbs })?;
        println!("{kind} with {lsbs} approximate accumulator LSBs:");
        println!("  {:<14} {:>8} {:>14}", "image", "SSIM", "mean |diff|");
        for row in &rows {
            let bar_len = ((row.ssim.max(0.0)) * 40.0).round() as usize;
            println!(
                "  {:<14} {:>8.4} {:>14.2}  {}",
                row.image.name(),
                row.ssim,
                row.mean_abs_diff,
                "#".repeat(bar_len)
            );
        }
        let min = rows.iter().map(|r| r.ssim).fold(f64::INFINITY, f64::min);
        let max = rows.iter().map(|r| r.ssim).fold(f64::NEG_INFINITY, f64::max);
        println!("  spread: {:.4} .. {:.4} (Δ = {:.4})\n", min, max, max - min);
    }

    println!("The same circuit scores differently per image — quality is");
    println!("data-dependent, motivating run-time approximation control (§6.2).");
    Ok(())
}
