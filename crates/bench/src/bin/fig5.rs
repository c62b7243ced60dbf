//! Fig.5 reproduction: 2×2 multiplier truth tables and characterization —
//! AccMul, ApxMulSoA, CfgMulSoA, ApxMulOur, CfgMulOur.

use xlac_bench::{check, header, row, section};
use xlac_multipliers::{ConfigurableMul2x2, Mul2x2Kind};

fn main() {
    section("Fig.5 — 2x2 multiplier truth tables");
    for kind in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        println!("\n{kind} (rows a = 0..3, cols b = 0..3):");
        for a in 0u64..4 {
            let cells: Vec<String> = (0u64..4).map(|b| format!("{:04b}", kind.mul(a, b))).collect();
            println!("  {:02b}  {}", a, cells.join(" "));
        }
    }

    section("characterization");
    header(&[("design", 10), ("area[GE]", 10), ("power[nW]", 11), ("#errors", 8), ("max err", 8)]);
    for kind in Mul2x2Kind::ALL {
        let cost = kind.hw_cost();
        row(&[
            (kind.to_string(), 10),
            (format!("{:.2}", cost.area_ge), 10),
            (format!("{:.1}", cost.power_nw), 11),
            (kind.error_cases().to_string(), 8),
            (kind.max_error_value().to_string(), 8),
        ]);
    }
    for core in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        let cfg = ConfigurableMul2x2::new(core);
        let cost = cfg.hw_cost();
        row(&[
            (cfg.name(), 10),
            (format!("{:.2}", cost.area_ge), 10),
            (format!("{:.1}", cost.power_nw), 11),
            ("-".into(), 8),
            ("-".into(), 8),
        ]);
    }

    section("shape checks vs the paper");
    let mut ok = true;
    ok &= check(
        "ApxMulSoA: 1 error case, max error 2",
        Mul2x2Kind::ApxSoA.error_cases() == 1 && Mul2x2Kind::ApxSoA.max_error_value() == 2,
    );
    ok &= check(
        "ApxMulOur: 3 error cases, max error 1",
        Mul2x2Kind::ApxOur.error_cases() == 3 && Mul2x2Kind::ApxOur.max_error_value() == 1,
    );
    let acc = Mul2x2Kind::Accurate.hw_cost();
    let soa = Mul2x2Kind::ApxSoA.hw_cost();
    let our = Mul2x2Kind::ApxOur.hw_cost();
    ok &= check(
        "both approximate designs undercut AccMul on area and power",
        soa.area_ge < acc.area_ge
            && our.area_ge < acc.area_ge
            && soa.power_nw < acc.power_nw
            && our.power_nw < acc.power_nw,
    );
    let cfg_soa = ConfigurableMul2x2::new(Mul2x2Kind::ApxSoA).hw_cost();
    let cfg_our = ConfigurableMul2x2::new(Mul2x2Kind::ApxOur).hw_cost();
    ok &= check(
        "CfgMulOur (inverter correction) is cheaper than CfgMulSoA (adder correction)",
        cfg_our.area_ge < cfg_soa.area_ge,
    );
    ok &= check(
        "configurable variants cost more than their bare approximate cores",
        cfg_soa.area_ge > soa.area_ge && cfg_our.area_ge > our.area_ge,
    );
    std::process::exit(i32::from(!ok));
}
