//! Ablation: the approximate-adder families compared head to head.
//!
//! GeAr's carry-prediction family (including its ACA-I/ACA-II/ETAII
//! special cases) against the lower-part-cut family (LOA, truncated) and
//! the exact corners (RCA, CLA), all at 16 bits. For each design: area,
//! delay, error rate and mean error distance under uniform inputs —
//! the cross-family view the survey argues designers need.

use xlac_adders::{
    Adder, CarryLookaheadAdder, FullAdderKind, GeArAdder, LoaAdder, RippleCarryAdder,
    TruncatedAdder,
};
use xlac_bench::{check, header, row, section};
use xlac_core::metrics::{sampled_binary, ErrorStats};
use xlac_core::rng::DefaultRng;

fn quality(adder: &dyn Adder, samples: u64) -> ErrorStats {
    let w = adder.width();
    let mut rng = DefaultRng::seed_from_u64(0xAB1A);
    sampled_binary(w, w, samples, &mut rng, |a, b| a + b, |a, b| adder.add(a, b))
}

fn main() {
    let n = 16;
    let designs: Vec<Box<dyn Adder>> = vec![
        Box::new(RippleCarryAdder::accurate(n)),
        Box::new(CarryLookaheadAdder::new(n)),
        Box::new(GeArAdder::new(n, 4, 4).expect("valid")),
        Box::new(GeArAdder::new(n, 2, 6).expect("valid")),
        Box::new(GeArAdder::aca_i(n, 4).expect("valid")),
        Box::new(GeArAdder::aca_ii(n, 8).expect("valid")),
        Box::new(GeArAdder::etaii(n, 4).expect("valid")),
        Box::new(LoaAdder::new(n, 4).expect("valid")),
        Box::new(LoaAdder::new(n, 8).expect("valid")),
        Box::new(TruncatedAdder::new(n, 4).expect("valid")),
        Box::new(RippleCarryAdder::with_approx_lsbs(n, FullAdderKind::Apx3, 4).expect("valid")),
        Box::new(RippleCarryAdder::with_approx_lsbs(n, FullAdderKind::Apx5, 4).expect("valid")),
    ];

    section("ablation — 16-bit adder families");
    header(&[
        ("design", 22),
        ("area[GE]", 10),
        ("delay", 7),
        ("err rate", 9),
        ("mean |e|", 10),
        ("max |e|", 9),
    ]);

    let mut rows: Vec<(String, f64, f64, f64, f64)> = Vec::new();
    for d in &designs {
        let cost = d.hw_cost();
        let q = quality(d.as_ref(), 200_000);
        rows.push((d.name(), cost.area_ge, cost.delay, q.error_rate, q.mean_error_distance));
        row(&[
            (d.name(), 22),
            (format!("{:.1}", cost.area_ge), 10),
            (format!("{:.1}", cost.delay), 7),
            (format!("{:.4}", q.error_rate), 9),
            (format!("{:.2}", q.mean_error_distance), 10),
            (q.max_error_distance.to_string(), 9),
        ]);
    }

    section("shape checks");
    let find = |needle: &str| rows.iter().find(|r| r.0.contains(needle)).expect("present");
    let mut ok = true;
    ok &= check("exact designs never err", {
        let rca = find("RCA(N=16)");
        let cla = find("CLA");
        rca.3 == 0.0 && cla.3 == 0.0
    });
    ok &= check("GeAr cuts the RCA delay", find("GeAr(N=16,R=4,P=4)").2 < find("RCA(N=16)").2);
    ok &= check(
        "more prediction bits (R2P6 vs R4P4 at equal L) reduce the error rate",
        find("R=2,P=6").3 <= find("R=4,P=4").3 + 1e-9,
    );
    ok &= check(
        "LOA with a wider lower part errs more but costs less",
        find("LOA(N=16,L=8)").3 > find("LOA(N=16,L=4)").3
            && find("LOA(N=16,L=8)").1 < find("LOA(N=16,L=4)").1,
    );
    ok &= check(
        "at a matched 4-bit split, truncation is cheaper than LOA (no OR row)",
        find("TruA(N=16,T=4)").1 < find("LOA(N=16,L=4)").1,
    );
    // The cross-family trade this ablation exists to expose: the carry-
    // prediction family (GeAr) errs *rarely* but by large magnitudes
    // (missed carries land at high bit positions), while the lower-part
    // family (LOA/TruA) errs on *most* inputs but only in the low bits.
    ok &= check(
        "GeAr's error RATE is far below LOA's",
        find("GeAr(N=16,R=4,P=4)").3 < 0.2 * find("LOA(N=16,L=8)").3,
    );
    ok &= check(
        "LOA's error MAGNITUDE is far below GeAr's",
        find("LOA(N=16,L=8)").4 < 0.5 * find("GeAr(N=16,R=4,P=4)").4,
    );
    std::process::exit(i32::from(!ok));
}
