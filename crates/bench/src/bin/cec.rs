//! §6.1 reproduction: consolidated error correction (CEC) for cascades of
//! accuracy-configurable adders — quality recovered and area saved versus
//! per-adder integrated EDC.

use xlac_accel::cec::{AdderCascade, CecUnit};
use xlac_adders::GeArAdder;
use xlac_bench::{check, header, row, section};
use xlac_core::rng::{DefaultRng, Rng};

fn main() {
    let gear = GeArAdder::new(12, 4, 4).expect("valid config");
    let unit = CecUnit::new();

    section("quality: accumulated error with and without CEC");
    header(&[("stages", 7), ("raw mean err", 13), ("CEC mean err", 13), ("recovered", 10)]);
    let mut recovery_ok = true;
    for stages in [2usize, 4, 8, 16] {
        let cascade = AdderCascade::new(gear, stages).expect("valid");
        let mut rng = DefaultRng::seed_from_u64(0xCEC + stages as u64);
        let runs = 3000;
        let limit = 0xFFF / stages as u64; // keep the sum inside 12 bits
        let (mut raw, mut fixed) = (0f64, 0f64);
        for _ in 0..runs {
            let xs: Vec<u64> = (0..stages).map(|_| rng.gen_range(0..limit)).collect();
            let exact: u64 = xs.iter().sum();
            let run = cascade.accumulate(&xs).expect("operand count matches");
            raw += run.value.abs_diff(exact) as f64;
            fixed += unit.correct(&run).abs_diff(exact) as f64;
        }
        raw /= runs as f64;
        fixed /= runs as f64;
        let recovered = if raw > 0.0 { 1.0 - fixed / raw } else { 1.0 };
        recovery_ok &= recovered > 0.75;
        row(&[
            (stages.to_string(), 7),
            (format!("{raw:.2}"), 13),
            (format!("{fixed:.2}"), 13),
            (format!("{:.1}%", recovered * 100.0), 10),
        ]);
    }

    section("area: integrated per-adder EDC vs one consolidated unit [GE]");
    header(&[("stages", 7), ("integrated EDC", 15), ("CEC", 9), ("saving", 8)]);
    let mut crossover = None;
    for stages in [1usize, 2, 4, 8, 16, 32] {
        let (edc, cec) = CecUnit::area_comparison(&gear, stages);
        if cec < edc && crossover.is_none() {
            crossover = Some(stages);
        }
        row(&[
            (stages.to_string(), 7),
            (format!("{edc:.1}"), 15),
            (format!("{cec:.1}"), 9),
            (format!("{:+.1}%", (1.0 - cec / edc) * 100.0), 8),
        ]);
    }

    section("shape checks vs the paper");
    let mut ok = true;
    ok &= check("CEC recovers the bulk of the accumulated error", recovery_ok);
    ok &= check(
        "consolidation pays off beyond a small cascade depth",
        matches!(crossover, Some(s) if s <= 8),
    );
    ok &= check("error magnitudes take only the specific sub-adder offsets (2^8 here)", {
        let cascade = AdderCascade::new(gear, 6).expect("valid");
        let mut rng = DefaultRng::seed_from_u64(9);
        (0..1000).all(|_| {
            let xs: Vec<u64> = (0..6).map(|_| rng.gen_range(0..0x2AA)).collect();
            cascade.accumulate(&xs).expect("matches").flagged_offsets.iter().all(|&o| o == 8)
        })
    });
    std::process::exit(i32::from(!ok));
}
