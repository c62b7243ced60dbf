//! Table IV + Fig.4 reproduction: accuracy/area trade-off for **all**
//! valid (R, P) configurations of an 11-bit GeAr adder.
//!
//! Accuracy comes from the analytical error model (the paper's method —
//! no simulation); area uses the k·L LUT model (see DESIGN.md for the
//! Virtex-6 substitution note). The Fig.4 view groups the same points by
//! R, and the two constraint queries from the paper's text are answered
//! at the end.

use xlac_adders::GearErrorModel;
use xlac_bench::{check, header, row, section};
use xlac_explore::gear_space::GearDesignPoint;
use xlac_explore::{enumerate_gear_space, max_accuracy, min_area_with_accuracy, pareto_frontier};

fn main() {
    let n = 11;
    let space = enumerate_gear_space(n).expect("width 11 is valid");

    section(&format!("Table IV — all (R, P) configurations of an {n}-bit GeAr"));
    header(&[("config", 7), ("k", 3), ("accuracy[%]", 12), ("LUTs", 6), ("delay", 7)]);
    let mut sorted: Vec<&GearDesignPoint> = space.iter().collect();
    sorted.sort_by_key(|a| (a.r, a.p));
    for pt in &sorted {
        row(&[
            (pt.label(), 7),
            (pt.sub_adders.to_string(), 3),
            (format!("{:.4}", pt.accuracy_percent), 12),
            (pt.lut_area.to_string(), 6),
            (format!("{:.1}", pt.delay), 7),
        ]);
    }

    section("Fig.4 — design-space series grouped by R (accuracy vs LUTs)");
    let max_r = space.iter().map(|pt| pt.r).max().unwrap_or(1);
    for r in 1..=max_r {
        let pts: Vec<&GearDesignPoint> = sorted.iter().copied().filter(|pt| pt.r == r).collect();
        if pts.is_empty() {
            continue;
        }
        let series: Vec<String> = pts
            .iter()
            .map(|pt| format!("(P{}, {} LUTs, {:.2}%)", pt.p, pt.lut_area, pt.accuracy_percent))
            .collect();
        println!("R={r}: {}", series.join(" "));
    }
    let frontier = pareto_frontier(
        &space,
        &[&|pt: &GearDesignPoint| pt.lut_area as f64, &|pt| -pt.accuracy_percent],
    );
    let mut labels: Vec<String> = frontier.iter().map(|pt| pt.label()).collect();
    labels.sort();
    println!("\npareto frontier (LUTs vs accuracy): {}", labels.join(", "));

    section("constraint queries from the paper's text");
    let best = max_accuracy(&space).expect("non-empty space");
    println!(
        "max accuracy           -> {} ({:.4}%, {} LUTs)",
        best.label(),
        best.accuracy_percent,
        best.lut_area
    );
    let frugal = min_area_with_accuracy(&space, 90.0).expect("feasible floor");
    println!(
        "min area @ >=90%       -> {} ({:.4}%, {} LUTs)",
        frugal.label(),
        frugal.accuracy_percent,
        frugal.lut_area
    );
    let r3p5 = space.iter().find(|pt| pt.r == 3 && pt.p == 5).expect("R3P5 exists");
    println!(
        "paper's R3P5 reference -> {} ({:.4}%, {} LUTs)",
        r3p5.label(),
        r3p5.accuracy_percent,
        r3p5.lut_area
    );

    section("model-vs-simulation spot check (N=11 is exhaustible)");
    header(&[("config", 7), ("model[%]", 10), ("monte-carlo[%]", 15)]);
    for pt in sorted.iter().step_by(4) {
        let model = GearErrorModel::for_adder(&pt.adder().expect("valid"));
        let mc = (1.0 - model.monte_carlo(200_000, 0x44)) * 100.0;
        row(&[
            (pt.label(), 7),
            (format!("{:.4}", pt.accuracy_percent), 10),
            (format!("{:.4}", mc), 15),
        ]);
    }

    section("shape checks vs the paper");
    let mut ok = true;
    ok &= check("max-accuracy pick is R1P9", best.label() == "R1P9");
    ok &= check("R1P9 accuracy exceeds 99.9%", best.accuracy_percent > 99.9);
    ok &= check("R3P5 clears the 90% floor", r3p5.accuracy_percent >= 90.0);
    ok &= check(
        "accuracy increases with P at fixed R",
        (1..=3).all(|r| {
            let mut pts: Vec<&GearDesignPoint> = space.iter().filter(|pt| pt.r == r).collect();
            pts.sort_by_key(|pt| pt.p);
            pts.windows(2).all(|w| w[1].accuracy_percent >= w[0].accuracy_percent - 1e-9)
        }),
    );
    ok &= check(
        "model accuracy matches simulation within 0.5% on all points",
        space.iter().all(|pt| {
            let model = GearErrorModel::for_adder(&pt.adder().expect("valid"));
            let mc = (1.0 - model.monte_carlo(100_000, 0x55)) * 100.0;
            (pt.accuracy_percent - mc).abs() < 0.5
        }),
    );
    std::process::exit(i32::from(!ok));
}
