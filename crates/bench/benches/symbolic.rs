//! Micro-benchmarks: the symbolic BDD engine against exhaustive
//! enumeration, plus equivalence-proof timing and engine statistics.
//!
//! The point of the exact engine (DESIGN.md §11) is that it answers
//! "what is the worst-case error" *provably* — this bench quantifies
//! what the proof costs relative to two brute-force alternatives:
//! enumerating all 2¹⁶ operand pairs through the scalar golden models,
//! and the compiled exhaustive engine (`exhaustive_metrics`) the bound
//! audit runs on. All three compute the same numbers (asserted before
//! timing starts), so the comparison is like for like.
//!
//! The `scalar_oracle/...` series time the scalar models the registry's
//! agreement legs call, in ns per call over each leg's own input set —
//! the oracles' cost trajectory.
//!
//! Besides the harness timing lines, the run emits one
//! `symbolic_stats/...` JSON line per representative workload with node
//! counts, ITE memo lookups and hit rate — the engine-health trajectory
//! recorded in `BENCH_symbolic.json` by `scripts/ci.sh`.
//!
//! Runs on the in-house harness (`xlac_bench::harness`); set
//! `XLAC_BENCH_QUICK=1` for a smoke run.

use xlac_adders::hw::ripple_netlist;
use xlac_adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder};
use xlac_analysis::parse::parse_verilog;
use xlac_analysis::symbolic::compile::interleaved_operand_vars;
use xlac_analysis::symbolic::registry;
use xlac_analysis::symbolic::{
    compile_netlist, compile_raw, exact_metrics, exhaustive_metrics, recursive_calculus,
    truncated_calculus, twins, wallace_calculus, Bdd, ExactMetrics, FALSE,
};
use xlac_bench::{black_box, Harness};
use xlac_core::rng::{Rng, Xoshiro256StarStar};
use xlac_multipliers::hw::wallace_netlist;
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

/// The brute-force reference: worst-case error, error count and total
/// error distance of `approx` against `exact` over all `2^(2w)` pairs.
fn scalar_exhaustive(
    width: usize,
    exact: impl Fn(u64, u64) -> u64,
    approx: impl Fn(u64, u64) -> u64,
) -> (u128, u128, u128) {
    let mut wce = 0u128;
    let mut errors = 0u128;
    let mut total = 0u128;
    for a in 0..(1u64 << width) {
        for b in 0..(1u64 << width) {
            let e = exact(a, b);
            let x = approx(a, b);
            let d = u128::from(e.abs_diff(x));
            wce = wce.max(d);
            errors += u128::from(d != 0);
            total += d;
        }
    }
    (wce, errors, total)
}

fn wallace_exact(m: &WallaceMultiplier) -> ExactMetrics {
    let mut bdd = Bdd::new();
    let (a, b) = interleaved_operand_vars(&mut bdd, 8);
    let approx = twins::wallace_multiplier(&mut bdd, m, &a, &b);
    let exact = twins::mul_exact(&mut bdd, &a, &b);
    exact_metrics(&mut bdd, &approx, &exact, 16)
}

fn ripple_exact(rca: &RippleCarryAdder) -> ExactMetrics {
    let mut bdd = Bdd::new();
    let (a, b) = interleaved_operand_vars(&mut bdd, 8);
    let approx = twins::ripple_adder(&mut bdd, rca, &a, &b);
    let exact = twins::add_exact(&mut bdd, &a, &b, FALSE);
    exact_metrics(&mut bdd, &approx, &exact, 16)
}

/// Asserts that the proof, the scalar enumeration and the compiled
/// engine agree on the worst-case error, error count and total error
/// distance (the MED numerator).
fn assert_three_agree(
    symbolic: &ExactMetrics,
    scalar: (u128, u128, u128),
    compiled: &ExactMetrics,
) {
    let (wce, errors, total) = scalar;
    #[allow(clippy::cast_precision_loss)]
    let med = total as f64 / 65536.0;
    for m in [symbolic, compiled] {
        assert_eq!(m.worst_case_error, wce);
        assert_eq!(m.error_count, errors);
        assert_eq!(m.mean_error_distance, med);
    }
    assert_eq!(symbolic.bit_flip_probability, compiled.bit_flip_probability);
}

fn bench_multiplier_metrics() {
    let m = WallaceMultiplier::new(8, FullAdderKind::Apx4, 8).unwrap();
    let approx = wallace_netlist(&m);
    let exact = wallace_netlist(&WallaceMultiplier::new(8, FullAdderKind::Accurate, 0).unwrap());
    let compiled = || exhaustive_metrics(&approx, &exact).expect("16 inputs, 16 outputs");

    // Cross-check once: the proof and both enumerations must agree exactly.
    assert_three_agree(
        &wallace_exact(&m),
        scalar_exhaustive(8, |a, b| a * b, |a, b| m.mul(a, b)),
        &compiled(),
    );

    let mut h = Harness::group("symbolic_mul8_wallace_metrics");
    h.bench("bdd_exact", || black_box(wallace_exact(&m).worst_case_error));
    h.bench("exhaustive_65536", || {
        black_box(scalar_exhaustive(8, |a, b| a * b, |a, b| m.mul(a, b)))
    });
    h.bench("compiled_exhaustive_65536", || black_box(compiled().worst_case_error));
}

fn bench_adder_metrics() {
    let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4).unwrap();
    let approx = ripple_netlist(&rca);
    let exact = ripple_netlist(&RippleCarryAdder::accurate(8));
    let compiled = || exhaustive_metrics(&approx, &exact).expect("16 inputs, 9 outputs");

    assert_three_agree(
        &ripple_exact(&rca),
        scalar_exhaustive(8, |a, b| a + b, |a, b| rca.add(a, b)),
        &compiled(),
    );

    let mut h = Harness::group("symbolic_rca8_apx3_metrics");
    h.bench("bdd_exact", || black_box(ripple_exact(&rca).worst_case_error));
    h.bench("exhaustive_65536", || {
        black_box(scalar_exhaustive(8, |a, b| a + b, |a, b| rca.add(a, b)))
    });
    h.bench("compiled_exhaustive_65536", || black_box(compiled().worst_case_error));
}

fn bench_equivalence_proof() {
    // The canonical proof step of `xlac-lint --exact`: compile the
    // structural hw netlist and its Verilog export (re-parsed) against
    // the same variables; root equality is the proof.
    let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx1, 4).unwrap();
    let netlist = xlac_adders::hw::ripple_netlist(&rca);
    let (raw, errors) = parse_verilog(&xlac_logic::verilog::to_verilog(&netlist));
    assert!(errors.is_empty(), "{errors:?}");
    let raw = raw.expect("the export declares a module");

    let prove = || {
        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 8);
        // `ripple_netlist` declares ports a0..a7 then b0..b7.
        let ports: Vec<_> = a.iter().chain(&b).copied().collect();
        let compiled = compile_netlist(&mut bdd, &netlist, &ports);
        let hdl = compile_raw(&mut bdd, &raw, &ports).expect("the export compiles");
        assert_eq!(compiled, hdl, "proof must hold");
        compiled.len()
    };

    let mut h = Harness::group("symbolic_equivalence");
    h.bench("prove_rca8_netlist_vs_hdl", || black_box(prove()));
}

/// A named BDD workload whose engine statistics get reported.
type Workload = (&'static str, Box<dyn Fn(&mut Bdd)>);

/// Engine statistics for representative workloads, as bare JSON lines
/// (picked up by the `grep '^{'` capture in `scripts/ci.sh`).
fn report_engine_stats() {
    let workloads: Vec<Workload> = vec![
        (
            "wallace8_apx4_metrics",
            Box::new(|bdd: &mut Bdd| {
                let m = WallaceMultiplier::new(8, FullAdderKind::Apx4, 8).unwrap();
                let (a, b) = interleaved_operand_vars(bdd, 8);
                let approx = twins::wallace_multiplier(bdd, &m, &a, &b);
                let exact = twins::mul_exact(bdd, &a, &b);
                let _ = exact_metrics(bdd, &approx, &exact, 16);
            }),
        ),
        (
            "rca8_apx3_metrics",
            Box::new(|bdd: &mut Bdd| {
                let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4).unwrap();
                let (a, b) = interleaved_operand_vars(bdd, 8);
                let approx = twins::ripple_adder(bdd, &rca, &a, &b);
                let exact = twins::add_exact(bdd, &a, &b, FALSE);
                let _ = exact_metrics(bdd, &approx, &exact, 16);
            }),
        ),
        (
            "gear8_r2_p2_metrics",
            Box::new(|bdd: &mut Bdd| {
                let gear = GeArAdder::new(8, 2, 2).unwrap();
                let (a, b) = interleaved_operand_vars(bdd, 8);
                let approx = twins::gear_adder(bdd, &gear, &a, &b, 0);
                let exact = twins::add_exact(bdd, &a, &b, FALSE);
                let _ = exact_metrics(bdd, &approx, &exact, 16);
            }),
        ),
    ];
    for (name, run) in workloads {
        let mut bdd = Bdd::new();
        run(&mut bdd);
        let stats = bdd.stats();
        println!(
            "{{\"name\":\"symbolic_stats/{name}\",\"bdd_nodes\":{},\"ite_lookups\":{},\"ite_hits\":{},\"memo_hit_rate\":{:.4}}}",
            stats.nodes,
            stats.ite_lookups,
            stats.ite_hits,
            stats.hit_rate()
        );
    }
}

/// The compositional calculus at widths where the monolithic miter is
/// impossible: each bench produces a *certified* worst-case error. The
/// 16×16 Wallace workload carries a wall-clock ceiling enforced by the
/// `symbolic.calculus.wallace16x16` rule of `scripts/gates.jsonl`.
fn bench_calculus() {
    let w16 = WallaceMultiplier::new(16, FullAdderKind::Apx2, 8).expect("valid Wallace config");
    let t32 = TruncatedMultiplier::new(32, 6, true).expect("valid truncated config");
    let r32 = RecursiveMultiplier::new(32, Mul2x2Kind::ApxOur, SumMode::Accurate)
        .expect("valid recursive config");

    let mut h = Harness::group("symbolic_calculus");
    h.bench("wallace16x16_apx2_cols8", || black_box(wallace_calculus(&w16, None).wce_hi()));
    h.bench("truncated32x32_d6_comp", || black_box(truncated_calculus(&t32).wce_hi()));
    h.bench("recursive32x32_apxour", || black_box(recursive_calculus(&r32).wce_hi()));
}

/// The scalar models behind the registry's agreement legs, in ns per
/// call over each leg's own input set: all `2^16` operand pairs for the
/// 8×8 multipliers, and for GeAr(16,2,6) the leg's seeded vectors (per
/// 64-lane block, 64 `a` draws then 64 `b` draws, truncated to 16 bits).
fn bench_scalar_oracles() {
    let wal = WallaceMultiplier::new(8, FullAdderKind::Apx3, 6).expect("valid Wallace config");
    let rec = RecursiveMultiplier::new(
        8,
        Mul2x2Kind::ApxOur,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 3 },
    )
    .expect("valid recursive configuration");
    let trunc = TruncatedMultiplier::new(8, 4, true).expect("valid truncated config");
    let gear = GeArAdder::new(16, 2, 6).expect("shipped GeAr config");

    let exhaustive: Vec<(u64, u64)> = (0..1u64 << 16).map(|x| (x >> 8, x & 0xFF)).collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(registry::SAMPLE_SEED ^ 16);
    let (mut a, mut b) = ([0u64; 64], [0u64; 64]);
    let mut sampled = Vec::with_capacity(registry::SAMPLE_VECTORS);
    for _ in 0..registry::SAMPLE_VECTORS / 64 {
        rng.fill_u64(&mut a);
        rng.fill_u64(&mut b);
        sampled.extend(a.iter().zip(&b).map(|(&x, &y)| (x & 0xFFFF, y & 0xFFFF)));
    }

    let n8 = exhaustive.len() as u64;
    let mut h = Harness::group("scalar_oracle");
    h.bench_per_item("wallace8x8_apx3_c6", n8, || over(&exhaustive, |x, y| wal.mul(x, y)));
    h.bench_per_item("recursive8x8", n8, || over(&exhaustive, |x, y| rec.mul(x, y)));
    h.bench_per_item("truncated8x8_d4", n8, || over(&exhaustive, |x, y| trunc.mul(x, y)));
    h.bench_per_item("gear16_r2_p6", sampled.len() as u64, || {
        over(&sampled, |x, y| gear.add(x, y).value)
    });
}

/// Runs `model` on every pair, folding the results so none is elided.
fn over(pairs: &[(u64, u64)], model: impl Fn(u64, u64) -> u64) -> u64 {
    pairs.iter().fold(0u64, |acc, &(x, y)| acc.wrapping_add(model(black_box(x), black_box(y))))
}

fn main() {
    bench_multiplier_metrics();
    bench_adder_metrics();
    bench_equivalence_proof();
    bench_calculus();
    bench_scalar_oracles();
    report_engine_stats();
}
