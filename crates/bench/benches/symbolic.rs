//! Micro-benchmarks: the symbolic BDD engine against exhaustive
//! enumeration, plus equivalence-proof timing and engine statistics.
//!
//! The point of the exact engine (DESIGN.md §11) is that it answers
//! "what is the worst-case error" *provably* — this bench quantifies
//! what the proof costs relative to the brute-force alternative the
//! workspace used before: enumerating all 2¹⁶ operand pairs through the
//! scalar golden models. Both sides compute the same numbers (asserted
//! before timing starts), so the comparison is like for like.
//!
//! Besides the harness timing lines, the run emits one
//! `symbolic_stats/...` JSON line per representative workload with node
//! counts, ITE memo lookups and hit rate — the engine-health trajectory
//! recorded in `BENCH_symbolic.json` by `scripts/ci.sh`.
//!
//! Runs on the in-house harness (`xlac_bench::harness`); set
//! `XLAC_BENCH_QUICK=1` for a smoke run.

use xlac_adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder};
use xlac_analysis::parse::parse_verilog;
use xlac_analysis::symbolic::compile::interleaved_operand_vars;
use xlac_analysis::symbolic::{
    compile_netlist, compile_raw, exact_metrics, recursive_calculus, truncated_calculus, twins,
    wallace_calculus, Bdd, ExactMetrics, SiftOptions, FALSE,
};
use xlac_bench::{black_box, Harness};
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

/// The brute-force reference: worst-case error, error count and total
/// error distance of `approx` against `exact` over all `2^(2w)` pairs.
fn exhaustive_metrics(
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

fn bench_multiplier_metrics() {
    let m = WallaceMultiplier::new(8, FullAdderKind::Apx4, 8).unwrap();

    // Cross-check once: the proof and the enumeration must agree exactly.
    let symbolic = wallace_exact(&m);
    let (wce, errors, _) = exhaustive_metrics(8, |a, b| a * b, |a, b| m.mul(a, b));
    assert_eq!(symbolic.worst_case_error, wce);
    assert_eq!(symbolic.error_count, errors);

    let mut h = Harness::group("symbolic_mul8_wallace_metrics");
    h.bench("bdd_exact", || black_box(wallace_exact(&m).worst_case_error));
    h.bench("exhaustive_65536", || {
        black_box(exhaustive_metrics(8, |a, b| a * b, |a, b| m.mul(a, b)))
    });
}

fn bench_adder_metrics() {
    let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4).unwrap();

    let symbolic = ripple_exact(&rca);
    let (wce, errors, _) = exhaustive_metrics(8, |a, b| a + b, |a, b| rca.add(a, b));
    assert_eq!(symbolic.worst_case_error, wce);
    assert_eq!(symbolic.error_count, errors);

    let mut h = Harness::group("symbolic_rca8_apx3_metrics");
    h.bench("bdd_exact", || black_box(ripple_exact(&rca).worst_case_error));
    h.bench("exhaustive_65536", || {
        black_box(exhaustive_metrics(8, |a, b| a + b, |a, b| rca.add(a, b)))
    });
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
/// 16×16 Wallace workload carries a wall-clock ceiling enforced by
/// `symbolic_gate`.
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

/// Sifting on the Wallace 8×8 miter, built in a pessimal *middle-out*
/// operand order (the most significant interactions land at the outer
/// levels, the reverse of what a product function wants). Rudell
/// sifting must recover at least a 2× reduction from it and land under
/// 200k nodes — both enforced by `symbolic_gate` on the emitted JSON
/// line. The run is fully deterministic, so the floors are stable.
fn report_sift_stats() {
    const A_ORDER: [usize; 8] = [7, 8, 6, 9, 5, 10, 4, 11];
    const B_ORDER: [usize; 8] = [3, 12, 2, 13, 1, 14, 0, 15];
    let m = WallaceMultiplier::new(8, FullAdderKind::Apx4, 8).expect("valid Wallace config");
    let mut bdd = Bdd::new();
    let a: Vec<_> = A_ORDER.iter().map(|&v| bdd.var(v)).collect::<Vec<_>>();
    let b: Vec<_> = B_ORDER.iter().map(|&v| bdd.var(v)).collect::<Vec<_>>();
    let mut roots = twins::wallace_multiplier(&mut bdd, &m, &a, &b);
    roots.extend(twins::mul_exact(&mut bdd, &a, &b));
    let stats = bdd.sift(&roots, &SiftOptions::default());
    println!(
        "{{\"name\":\"symbolic_sift/wallace8x8_miter\",\"unsifted_nodes\":{},\"sifted_nodes\":{},\"reduction\":{:.2},\"rounds\":{},\"swaps\":{}}}",
        stats.initial_nodes,
        stats.final_nodes,
        stats.initial_nodes as f64 / stats.final_nodes.max(1) as f64,
        stats.rounds,
        stats.swaps
    );
}

fn main() {
    bench_multiplier_metrics();
    bench_adder_metrics();
    bench_equivalence_proof();
    bench_calculus();
    report_engine_stats();
    report_sift_stats();
}
