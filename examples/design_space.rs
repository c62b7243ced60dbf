//! Table IV / Fig.4 demo: exploring the GeAr design space analytically.
//!
//! Enumerates every valid (R, P) configuration of an 11-bit GeAr adder,
//! prints accuracy (from the exact analytical error model — no simulation)
//! and LUT area, extracts the Pareto frontier, and answers the two
//! constraint queries from the paper's text.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use xlac::explore::gear_space::GearDesignPoint;
use xlac::explore::{enumerate_gear_space, max_accuracy, min_area_with_accuracy, pareto_frontier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 11;
    let space = enumerate_gear_space(n)?;

    println!("GeAr design space for N = {n} ({} configurations):\n", space.len());
    println!("{:<8} {:>3} {:>13} {:>7} {:>8}", "config", "k", "accuracy[%]", "LUTs", "delay");
    let mut sorted: Vec<&GearDesignPoint> = space.iter().collect();
    sorted.sort_by_key(|a| (a.r, a.p));
    for pt in &sorted {
        println!(
            "{:<8} {:>3} {:>13.6} {:>7} {:>8.1}",
            pt.label(),
            pt.sub_adders,
            pt.accuracy_percent,
            pt.lut_area,
            pt.delay
        );
    }

    // Pareto frontier over (area, −accuracy).
    let frontier = pareto_frontier(
        &space,
        &[&|pt: &GearDesignPoint| pt.lut_area as f64, &|pt| -pt.accuracy_percent],
    );
    let mut labels: Vec<String> = frontier.iter().map(|pt| pt.label()).collect();
    labels.sort();
    println!("\nPareto frontier (LUTs vs accuracy): {}", labels.join(", "));

    // The paper's two queries.
    let best = max_accuracy(&space)?;
    println!(
        "\nmax-accuracy pick:          {} ({:.4} %, {} LUTs)",
        best.label(),
        best.accuracy_percent,
        best.lut_area
    );
    let frugal = min_area_with_accuracy(&space, 90.0)?;
    println!(
        "min-area pick (>= 90 %):    {} ({:.4} %, {} LUTs)",
        frugal.label(),
        frugal.accuracy_percent,
        frugal.lut_area
    );

    Ok(())
}
