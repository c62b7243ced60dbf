//! Quickstart: build approximate adders, inspect their error behaviour,
//! and let the analytical model rank configurations.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use xlac::adders::{Adder, FullAdderKind, GeArAdder, GearErrorModel, RippleCarryAdder};
use xlac::core::metrics::exhaustive_binary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== xlac quickstart ==\n");

    // --- 1. The Table III cells -------------------------------------------
    println!("1-bit full adders (Table III):");
    println!("{:<8} {:>9} {:>11} {:>12}", "cell", "area[GE]", "power[nW]", "error cases");
    for kind in FullAdderKind::ALL {
        let cost = kind.hw_cost();
        println!(
            "{:<8} {:>9.2} {:>11.1} {:>12}",
            kind.to_string(),
            cost.area_ge,
            cost.power_nw,
            kind.error_cases()
        );
    }

    // --- 2. A multi-bit adder with approximate LSBs ------------------------
    let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4)?;
    let stats = exhaustive_binary(8, 8, |a, b| a + b, |a, b| rca.add(a, b));
    println!(
        "\n{}: error rate {:.3}, mean error distance {:.2}, max {}",
        rca.name(),
        stats.error_rate,
        stats.mean_error_distance,
        stats.max_error_distance
    );

    // --- 3. GeAr: configure, add, correct ---------------------------------
    let gear = GeArAdder::new(12, 4, 4)?; // the paper's Fig.3 example
    let (a, b) = (0x0FF, 0x001);
    let plain = gear.add(a, b);
    let fixed = gear.add_with_correction(a, b, usize::MAX);
    println!(
        "\n{}: {a:#05x} + {b:#05x} = {:#05x} (exact {:#05x}, {} error detected)",
        gear.name(),
        plain.value,
        a + b,
        plain.errors_detected
    );
    println!(
        "  with correction: {:#05x} after {} pass(es)",
        fixed.value, fixed.correction_iterations
    );

    // --- 4. Rank configurations analytically -------------------------------
    println!("\nGeAr N=12 configurations ranked by the analytical error model:");
    println!("{:<8} {:>12} {:>10}", "config", "accuracy[%]", "LUTs");
    for (r, p) in [(1usize, 3usize), (2, 2), (4, 4), (2, 6), (4, 8)] {
        if let Ok(g) = GeArAdder::new(12, r, p) {
            let model = GearErrorModel::for_adder(&g);
            println!(
                "{:<8} {:>12.4} {:>10}",
                format!("R{r}P{p}"),
                model.accuracy_percent(),
                g.lut_area()
            );
        }
    }

    Ok(())
}
