//! Fig.8-style demo: SAD error surfaces under approximate accelerators.
//!
//! Generates a synthetic frame pair with known motion, then prints the SAD
//! cost surface of one block for the accurate accelerator and two
//! approximate variants — showing the paper's observation that the
//! surface shifts upward while the global minimum (the motion vector)
//! survives mild approximation.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example motion_estimation
//! ```

use xlac::accel::sad::{SadAccelerator, SadVariant};
use xlac::video::me::MotionEstimator;
use xlac::video::sequence::{SequenceConfig, SyntheticSequence};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seq = SyntheticSequence::generate(&SequenceConfig::fig9())?;
    let frames = seq.frames();
    let (current, reference) = (&frames[3], &frames[2]);

    let block = (2usize, 3usize);
    println!("SAD surfaces for block {block:?} (rows: dy = -4..=4, cols: dx = -4..=4)\n");

    let mut argmins = Vec::new();
    for (variant, lsbs) in
        [(SadVariant::Accurate, 0usize), (SadVariant::ApxSad2, 2), (SadVariant::ApxSad5, 4)]
    {
        let me = MotionEstimator::new(SadAccelerator::new(64, variant, lsbs)?, 4)?;
        let surface = me.sad_surface(current, reference, block.0, block.1)?;
        println!("{variant} with {lsbs} approximate LSBs:");
        let mut best = (u64::MAX, (0usize, 0usize));
        for r in 0..surface.rows() {
            let row: Vec<String> = (0..surface.cols())
                .map(|c| {
                    let v = surface[(r, c)];
                    if v == u64::MAX {
                        "   --".to_string()
                    } else {
                        if v < best.0 {
                            best = (v, (r, c));
                        }
                        format!("{v:>5}")
                    }
                })
                .collect();
            println!("  {}", row.join(" "));
        }
        let mv = (best.1 .0 as i32 - 4, best.1 .1 as i32 - 4);
        println!("  -> minimum {} at displacement {mv:?}\n", best.0);
        argmins.push(mv);
    }

    if argmins.iter().all(|mv| *mv == argmins[0]) {
        println!("All variants agree on the motion vector {:?} — the error", argmins[0]);
        println!("surface is shifted but the global minimum is preserved (Fig.8).");
    } else {
        println!("Variants disagree: {argmins:?} — approximation has started to");
        println!("distort the ranking (expected for aggressive configurations).");
    }

    // Whole-field agreement statistics.
    println!("\nMotion-field agreement vs accurate (whole frame):");
    let exact_me = MotionEstimator::new(SadAccelerator::accurate(64)?, 4)?;
    let exact_field = exact_me.estimate(current, reference)?;
    for (variant, lsbs) in
        [(SadVariant::ApxSad2, 2usize), (SadVariant::ApxSad3, 4), (SadVariant::ApxSad5, 6)]
    {
        let me = MotionEstimator::new(SadAccelerator::new(64, variant, lsbs)?, 4)?;
        let field = me.estimate(current, reference)?;
        let same =
            exact_field.vectors.iter().zip(field.vectors.iter()).filter(|(a, b)| a == b).count();
        println!(
            "  {variant} {lsbs} LSBs: {same}/{} motion vectors unchanged",
            exact_field.vectors.len()
        );
    }
    Ok(())
}
