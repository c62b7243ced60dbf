//! Fig.6 reproduction: area, power and quality of accurate and
//! approximate multipliers at 2×2, 4×4, 8×8 and 16×16.
//!
//! Variants follow the paper's construction: the 2×2 block design
//! (accurate / SoA / ours) crossed with the partial-product summation mode
//! (accurate adders vs 4 approximate LSBs). Quality is exhaustive up to
//! 8×8 and sampled (1M pairs) at 16×16.

use xlac_adders::FullAdderKind;
use xlac_bench::{check, header, row, section};
use xlac_core::metrics::{exhaustive_binary, sampled_binary, ErrorStats};
use xlac_core::rng::DefaultRng;
use xlac_multipliers::{Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode};

fn quality(m: &RecursiveMultiplier) -> ErrorStats {
    let w = m.width();
    if 2 * w <= 16 {
        exhaustive_binary(w, w, |a, b| a * b, |a, b| m.mul(a, b))
    } else {
        let mut rng = DefaultRng::seed_from_u64(0xF16);
        sampled_binary(w, w, 1_000_000, &mut rng, |a, b| a * b, |a, b| m.mul(a, b))
    }
}

fn main() {
    let variants: [(&str, Mul2x2Kind, SumMode); 4] = [
        ("accurate", Mul2x2Kind::Accurate, SumMode::Accurate),
        ("apx-soa", Mul2x2Kind::ApxSoA, SumMode::Accurate),
        ("apx-our", Mul2x2Kind::ApxOur, SumMode::Accurate),
        (
            "apx-soa+lsb4",
            Mul2x2Kind::ApxSoA,
            SumMode::ApproxLsbs { kind: FullAdderKind::Apx4, lsbs: 4 },
        ),
    ];

    section("Fig.6 — multi-bit multipliers (area / power / quality)");
    header(&[
        ("width", 6),
        ("variant", 13),
        ("area[GE]", 10),
        ("power[nW]", 12),
        ("err rate", 9),
        ("MRED", 9),
    ]);

    let mut results: Vec<(usize, &str, f64, f64, f64)> = Vec::new();
    for width in [2usize, 4, 8, 16] {
        for (name, block, sum) in variants {
            let m = RecursiveMultiplier::new(width, block, sum).expect("valid width");
            let cost = m.hw_cost();
            let q = quality(&m);
            results.push((width, name, cost.area_ge, cost.power_nw, q.error_rate));
            row(&[
                (width.to_string(), 6),
                (name.to_string(), 13),
                (format!("{:.1}", cost.area_ge), 10),
                (format!("{:.1}", cost.power_nw), 12),
                (format!("{:.4}", q.error_rate), 9),
                (format!("{:.5}", q.mean_relative_error), 9),
            ]);
        }
    }

    section("shape checks vs the paper");
    let mut ok = true;
    let area_of = |w: usize, v: &str| {
        results.iter().find(|r| r.0 == w && r.1 == v).map(|r| r.2).expect("present")
    };
    let power_of = |w: usize, v: &str| {
        results.iter().find(|r| r.0 == w && r.1 == v).map(|r| r.3).expect("present")
    };
    ok &= check(
        "approximate variants save area at every width",
        [2usize, 4, 8, 16].iter().all(|&w| {
            area_of(w, "apx-soa") < area_of(w, "accurate")
                && area_of(w, "apx-our") < area_of(w, "accurate")
        }),
    );
    ok &= check(
        "approximate variants save power at every width",
        [2usize, 4, 8, 16].iter().all(|&w| power_of(w, "apx-soa") < power_of(w, "accurate")),
    );
    ok &= check(
        "absolute savings grow with width",
        [4usize, 8].iter().all(|&w| {
            (area_of(2 * w, "accurate") - area_of(2 * w, "apx-soa"))
                > (area_of(w, "accurate") - area_of(w, "apx-soa"))
        }),
    );
    ok &= check(
        "approximate summation saves further area over block-only approximation",
        [4usize, 8, 16].iter().all(|&w| area_of(w, "apx-soa+lsb4") < area_of(w, "apx-soa")),
    );
    ok &= check(
        "accurate variant never errs",
        results.iter().filter(|r| r.1 == "accurate").all(|r| r.4 == 0.0),
    );
    std::process::exit(i32::from(!ok));
}
