//! Fig.7 reproduction: the methodology flow for creating approximate
//! accelerators — characterize the approximate logic-block library,
//! extract the Pareto-optimal set, build multi-bit blocks from the picks,
//! and generate an accelerator.
//!
//! This binary walks the whole flow end-to-end and prints each stage's
//! output, ending with the accelerator the flow selects for a quality
//! constraint.

use xlac_accel::sad::{SadAccelerator, SadVariant};
use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder};
use xlac_bench::{check, header, row, section};
use xlac_core::metrics::exhaustive_binary;
use xlac_core::ComponentProfile;
use xlac_explore::pareto_frontier;

fn main() {
    // --- stage 1: characterize the 1-bit library ---------------------------
    section("stage 1 — characterize the approximate logic-block library");
    header(&[("cell", 8), ("area[GE]", 10), ("power[nW]", 11), ("#errors", 8)]);
    let mut cells: Vec<ComponentProfile> = Vec::new();
    for kind in FullAdderKind::ALL {
        let cost = kind.hw_cost();
        // Quality of a 1-bit cell: exhaustive over its 8 rows, scaled to a
        // per-operation error stats record via an 8-bit adder built from it.
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 8).expect("valid");
        let quality = exhaustive_binary(8, 8, |a, b| a + b, |a, b| rca.add(a, b));
        row(&[
            (kind.to_string(), 8),
            (format!("{:.2}", cost.area_ge), 10),
            (format!("{:.1}", cost.power_nw), 11),
            (kind.error_cases().to_string(), 8),
        ]);
        cells.push(ComponentProfile::new(kind.to_string(), cost, quality));
    }

    // --- stage 2: Pareto-optimal subset ------------------------------------
    section("stage 2 — Pareto-optimal cells (area vs error rate)");
    let frontier = pareto_frontier(
        &cells,
        &[&|c: &ComponentProfile| c.cost.area_ge, &|c| c.quality.error_rate],
    );
    let frontier_names: Vec<&str> = frontier.iter().map(|c| c.name.as_str()).collect();
    println!("frontier: {}", frontier_names.join(", "));

    // --- stage 3: multi-bit blocks from the picks ---------------------------
    section("stage 3 — multi-bit adders from the Pareto cells");
    header(&[("block", 22), ("area[GE]", 10), ("err rate", 9)]);
    let mut blocks = Vec::new();
    for cell in &frontier {
        let kind = FullAdderKind::ALL
            .into_iter()
            .find(|k| k.to_string() == cell.name)
            .expect("name round-trips");
        for lsbs in [2usize, 4] {
            let rca = RippleCarryAdder::with_approx_lsbs(8, kind, lsbs).expect("valid");
            let q = exhaustive_binary(8, 8, |a, b| a + b, |a, b| rca.add(a, b));
            row(&[
                (rca.name(), 22),
                (format!("{:.1}", rca.hw_cost().area_ge), 10),
                (format!("{:.4}", q.error_rate), 9),
            ]);
            blocks.push((kind, lsbs, rca.hw_cost(), q));
        }
    }

    // --- stage 4: accelerator generation + selection ------------------------
    section("stage 4 — SAD accelerators from the blocks, selected by constraint");
    header(&[("accelerator", 24), ("power[nW]", 11), ("mean SAD err", 13)]);
    let mut options = Vec::new();
    for (kind, lsbs, _, _) in &blocks {
        let variant = match kind {
            FullAdderKind::Accurate => SadVariant::Accurate,
            FullAdderKind::Apx1 => SadVariant::ApxSad1,
            FullAdderKind::Apx2 => SadVariant::ApxSad2,
            FullAdderKind::Apx3 => SadVariant::ApxSad3,
            FullAdderKind::Apx4 => SadVariant::ApxSad4,
            FullAdderKind::Apx5 => SadVariant::ApxSad5,
        };
        let sad = SadAccelerator::new(16, variant, *lsbs).expect("valid");
        // Mean SAD error over a pseudo-random block set.
        let mut err = 0.0;
        let mut count = 0u64;
        for s in 0..200u64 {
            let cur: Vec<u64> = (0..16).map(|i| (i * 13 + s * 7) % 256).collect();
            let refb: Vec<u64> = (0..16).map(|i| (i * 29 + s * 11 + 3) % 256).collect();
            err += sad
                .sad(&cur, &refb)
                .expect("valid lanes")
                .abs_diff(SadAccelerator::sad_exact(&cur, &refb)) as f64;
            count += 1;
        }
        let mean_err = err / count as f64;
        let power = sad.hw_cost().power_nw;
        row(&[(sad.name(), 24), (format!("{power:.0}"), 11), (format!("{mean_err:.2}"), 13)]);
        options.push((sad.name(), power, mean_err));
    }
    // Select: min power with mean SAD error below 32 (quality constraint).
    let pick = options
        .iter()
        .filter(|o| o.2 < 32.0)
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a feasible option exists");
    println!("\nselected under mean-error < 32: {} ({:.0} nW)", pick.0, pick.1);

    section("shape checks");
    let mut ok = true;
    ok &= check(
        "the Pareto frontier keeps the exact cell and the free cell",
        frontier_names.contains(&"AccuFA") && frontier_names.contains(&"ApxFA5"),
    );
    ok &= check("the frontier prunes at least one dominated cell", frontier.len() < cells.len());
    ok &= check(
        "the selected accelerator is approximate (constraint permits savings)",
        pick.0 != "AccuSAD(16 lanes, 0 LSBs)",
    );
    ok &= check(
        "the selected accelerator undercuts the accurate accelerator's power",
        pick.1 < SadAccelerator::accurate(16).expect("valid").hw_cost().power_nw,
    );
    std::process::exit(i32::from(!ok));
}
