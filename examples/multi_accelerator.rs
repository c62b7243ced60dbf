//! Section 6 end-to-end: a multi-accelerator approximate computing
//! architecture driven by configuration words and the approximation
//! management unit.
//!
//! Builds an architecture with three accelerator slots (motion-estimation
//! SAD, low-pass filter, DCT), characterizes its power across
//! configuration words, lets the management unit choose per-application
//! modes under a power budget, applies the chosen word, and runs tasks on
//! the reconfigured hardware.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_accelerator
//! ```

use xlac::accel::architecture::{AcceleratorSlot, MultiAcceleratorArchitecture};
use xlac::accel::config::{ApproxMode, ConfigWord};
use xlac::accel::manager::{AcceleratorOption, AppRequest, ApproximationManager};
use xlac::core::Grid;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- build the architecture --------------------------------------------
    let mut arch = MultiAcceleratorArchitecture::new();
    arch.add_slot("me", AcceleratorSlot::sad(64)?);
    arch.add_slot("smooth", AcceleratorSlot::filter()?);
    arch.add_slot("xfrm", AcceleratorSlot::dct()?);
    println!("architecture with {} slots", arch.slot_count());
    println!("all-accurate power: {:.0} nW\n", arch.total_power_nw());

    // --- characterize per-slot mode ladders ---------------------------------
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "slot", "accurate", "mild", "medium", "aggressive"
    );
    let mut ladders: Vec<Vec<f64>> = Vec::new();
    for (slot_idx, name) in ["me", "smooth", "xfrm"].iter().enumerate() {
        // Measure the slot in isolation: a single-slot architecture swept
        // across the mode ladder.
        let mut solo = MultiAcceleratorArchitecture::new();
        solo.add_slot(
            *name,
            match slot_idx {
                0 => AcceleratorSlot::sad(64)?,
                1 => AcceleratorSlot::filter()?,
                _ => AcceleratorSlot::dct()?,
            },
        );
        let mut powers = Vec::new();
        for &mode in &ApproxMode::ALL {
            solo.configure(ConfigWord::pack(&[mode])?)?;
            powers.push(solo.total_power_nw());
        }
        println!(
            "{:<8} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            name, powers[0], powers[1], powers[2], powers[3]
        );
        ladders.push(powers);
    }

    // --- the management unit picks modes under a power budget ---------------
    // Quality-loss figures: reuse the workspace's measured characteristics
    // (bit-rate overhead for ME, 1 − SSIM for the filter, PSNR-derived for
    // the DCT) at representative values.
    let loss_tables = [
        [0.0, 0.001, 0.013, 0.12], // me: Fig.9-style bit-rate overhead
        [0.0, 0.003, 0.01, 0.04],  // smooth: 1 − SSIM
        [0.0, 0.01, 0.05, 0.25],   // xfrm: reconstruction loss
    ];
    let requests: Vec<AppRequest> = (0..3)
        .map(|i| AppRequest {
            app: ["me", "smooth", "xfrm"][i].to_string(),
            max_quality_loss: [0.05, 0.02, 0.06][i],
            options: ApproxMode::ALL
                .iter()
                .enumerate()
                .map(|(m, &mode)| AcceleratorOption {
                    mode,
                    power_nw: ladders[i][m],
                    quality_loss: loss_tables[i][m],
                })
                .collect(),
        })
        .collect();

    // Budget: 80 % of the all-accurate total — pressure, but feasible.
    let budget = ladders.iter().map(|l| l[0]).sum::<f64>() * 0.8;
    let picks = ApproximationManager::select_under_power_budget(&requests, budget)?;
    println!("\nmanagement unit under {budget:.0} nW total budget:");
    let modes: Vec<ApproxMode> = picks.iter().map(|p| p.option.mode).collect();
    for pick in &picks {
        println!("  {:<8} -> {}", pick.app, pick.option.mode);
    }

    // --- apply the word and run real tasks ----------------------------------
    let word = ConfigWord::pack(&modes)?;
    arch.configure(word)?;
    println!("\nconfig word applied: {:#x}", word.raw());
    println!("configured power: {:.0} nW", arch.total_power_nw());

    let cur: Vec<u64> = (0..64).map(|i| (i * 13) % 256).collect();
    let refb: Vec<u64> = (0..64).map(|i| (i * 13 + 5) % 256).collect();
    println!("\ntask results on the configured hardware:");
    println!("  SAD(me)        = {}", arch.run_sad("me", &cur, &refb)?);
    let img = Grid::from_fn(16, 16, |r, c| ((r * 16 + c) % 256) as u64);
    let filtered = arch.run_filter("smooth", &img)?;
    println!("  filter(smooth) = {}x{} image", filtered.rows(), filtered.cols());
    let y = arch.run_dct("xfrm", &[[8i64; 4]; 4])?;
    println!("  dct(xfrm)[0][0] = {}", y[0][0]);

    Ok(())
}
