//! The certification workload: the static half of the paper's flow, where
//! every library unit is linted, proven equivalent across its forms, has
//! its error bound audited against exact BDD metrics, and the design space
//! is scored under every input distribution. `sim` does no work here.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xlac_adders::hw::{gear_netlist, ripple_netlist, subtractor_netlist};
use xlac_adders::{
    approx_cell_descriptors, Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor,
};
use xlac_analysis::bound::ErrorBound;
use xlac_analysis::components;
use xlac_analysis::derive_error_bound;
use xlac_analysis::lint::lint_descriptor;
use xlac_analysis::symbolic::audit::{audit_bounds, BoundAudit};
use xlac_analysis::symbolic::registry::{export_registry_hdl, prove_all, ProofReport};
use xlac_analysis::symbolic::{
    calculus, compile_netlist, exact_metrics, interleaved_operand_vars, twins, Bdd, ExactMetrics,
    Ref, FALSE,
};
use xlac_explore::dist_space::DistFront;
use xlac_explore::distribution_fronts;
use xlac_logic::Netlist;
use xlac_multipliers::hw::wallace_netlist;
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::{timed, Tracer};
use crate::Budget;

/// Passes run even past the budget, so the median has company.
const MIN_PASSES: usize = 3;

/// Library size the pass must see: the 14 descriptor units.
const MIN_UNITS: usize = 14;

/// The four stages of one pass, as span names.
const STAGES: [&str; 4] = [
    "analysis.lint",
    "analysis.registry.prove",
    "analysis.audit",
    "explore.fronts",
];

/// The `hdl/` export the registry proves against, in a per-process
/// directory that is removed again on drop.
struct HdlDir(PathBuf);

impl HdlDir {
    fn export() -> Result<Self, String> {
        let dir = crate::work_dir().join(format!("hdl-{}", std::process::id()));
        export_registry_hdl(&dir)?;
        Ok(HdlDir(dir))
    }
}

impl Drop for HdlDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one pass produced.
struct Pass {
    /// Each descriptor's name and whether it linted without errors.
    lint: Vec<(String, bool)>,
    proofs: Vec<ProofReport>,
    audits: Vec<BoundAudit>,
    fronts: Vec<DistFront>,
}

fn pass(hdl: &Path, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let parent = tracer
        .as_deref_mut()
        .map(|t| t.begin("certify.pass", None, 0));
    let lint = timed(&mut tracer, STAGES[0], parent, 0, || {
        approx_cell_descriptors()
            .iter()
            .map(|d| (d.name().to_string(), !lint_descriptor(d).has_errors()))
            .collect::<Vec<_>>()
    });
    let proofs = timed(&mut tracer, STAGES[1], parent, 0, || prove_all(hdl))?;
    let audits = timed(&mut tracer, STAGES[2], parent, 0, audit_bounds);
    let fronts = timed(&mut tracer, STAGES[3], parent, 0, || distribution_fronts(8))
        .map_err(|e| format!("distribution sweep failed: {e}"))?;
    if let (Some(t), Some(p)) = (tracer, parent) {
        t.end(p);
    }
    Ok(Pass {
        lint,
        proofs,
        audits,
        fronts,
    })
}

/// Records every obligation of `p` as one checked operation.
fn check_pass(p: &Pass, out: &mut Outcome) {
    let units = p.lint.len();
    out.check(units >= MIN_UNITS, || {
        format!("library has {units} units, expected >= {MIN_UNITS}")
    });
    for (name, clean) in &p.lint {
        out.check(*clean, || format!("error-severity lint findings in {name}"));
    }
    for r in &p.proofs {
        out.check(r.is_proven(), || {
            format!("proof {} not proven: {:?}", r.name, r.status)
        });
    }
    for a in &p.audits {
        out.check(a.sound, || format!("unsound bound {}", a.name));
    }
    out.check(!p.fronts.is_empty(), || {
        "distribution sweep produced no fronts".into()
    });
}

/// Obligations one pass discharges: lint units, proofs and audits.
fn obligations(p: &Pass) -> usize {
    p.lint.len() + p.proofs.len() + p.audits.len()
}

/// The untraced run: hdl export as set-up, then whole passes until the
/// budget is spent.
#[must_use]
pub fn run(budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let (hdl, setup_s) = budget.time_setup(HdlDir::export);
    let hdl = match hdl {
        Ok(h) => h,
        Err(e) => {
            out.check(false, || format!("hdl export failed: {e}"));
            return out;
        }
    };
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while budget.more(MIN_PASSES, walls.len(), start.elapsed(), &walls) {
        let t0 = Instant::now();
        let p = match pass(&hdl.0, None) {
            Ok(p) => p,
            Err(e) => {
                out.check(false, || e);
                return out;
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        check_pass(&p, &mut out);
        walls.push(wall);
        rates.push(obligations(&p) as f64 / wall);
    }
    let wall = median(&walls).expect("at least one pass");
    out.set("setup_s", setup_s);
    out.set(
        "throughput_per_s",
        median(&rates).expect("at least one pass"),
    );
    out.set("latency_p50_ms", wall * 1e3);
    if let Some(mb) = peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    eprintln!(
        "certify_library: {} passes, median {wall:.3} s",
        walls.len()
    );
    out
}

/// The traced pass: an untraced pass for the overhead baseline, a traced
/// pass split into its four stages, and a replay of the audit's entries
/// that splits it into BDD build, model count and bound derivation.
#[must_use]
pub fn trace(tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let hdl = match HdlDir::export() {
        Ok(h) => h,
        Err(e) => {
            out.check(false, || format!("hdl export failed: {e}"));
            return out;
        }
    };
    let t0 = Instant::now();
    let untraced = pass(&hdl.0, None);
    let untraced_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let traced = pass(&hdl.0, Some(tracer));
    let traced_wall = t0.elapsed().as_secs_f64();
    let p = match untraced.and(traced) {
        Ok(p) => p,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    check_pass(&p, &mut out);

    for (metric, span) in [
        ("analysis.lint_s", STAGES[0]),
        ("analysis.registry.prove_s", STAGES[1]),
        ("analysis.audit_s", STAGES[2]),
        ("explore.fronts_s", STAGES[3]),
    ] {
        out.set(metric, tracer.total(span).as_secs_f64());
    }
    let pass_s = tracer.total("certify.pass").as_secs_f64();
    out.set(
        "certify.unattributed_share",
        tracer.self_time("certify.pass").as_secs_f64() / pass_s,
    );
    out.set("trace.overhead", traced_wall / untraced_wall);

    let replayed = replay_audit(tracer);
    let own: Vec<(String, bool, u128)> = p
        .audits
        .iter()
        .map(|a| (a.name.clone(), a.sound, a.exact_wce))
        .collect();
    out.check(replayed.entries == own, || {
        format!(
            "audit replay ({} entries) disagrees with audit_bounds ({} entries)",
            replayed.entries.len(),
            own.len()
        )
    });
    for (metric, span) in [
        ("analysis.bdd.build_s", "analysis.bdd.build"),
        ("analysis.bdd.count_s", "analysis.bdd.count"),
        ("analysis.calculus_s", "analysis.calculus"),
        ("analysis.absint_s", "analysis.absint"),
        ("analysis.components_s", "analysis.components"),
    ] {
        out.set(metric, tracer.total(span).as_secs_f64());
    }
    let proofs = p.proofs.len().max(1) as f64;
    out.set("analysis.registry.obligations", p.proofs.len() as f64);
    out.set(
        "analysis.registry.bdd_nodes",
        p.proofs.iter().map(|r| r.bdd_nodes as f64).sum(),
    );
    out.set(
        "analysis.registry.memo_hit_rate",
        p.proofs.iter().map(|r| r.memo_hit_rate).sum::<f64>() / proofs,
    );
    out.set("analysis.bdd.nodes", replayed.nodes as f64);
    out.set(
        "analysis.bdd.ite_hit_rate",
        replayed.ite_hits as f64 / replayed.ite_lookups.max(1) as f64,
    );
    out.set("analysis.audit.entries", p.audits.len() as f64);
    out.set(
        "analysis.audit.unsound",
        p.audits.iter().filter(|a| !a.sound).count() as f64,
    );
    out.set(
        "explore.configs_scored",
        p.fronts.iter().map(|f| f.points.len() as f64).sum(),
    );
    out
}

/// The audit's verdicts as replayed, plus the BDD managers' counters.
#[derive(Default)]
struct AuditReplay {
    entries: Vec<(String, bool, u128)>,
    nodes: u64,
    ite_lookups: u64,
    ite_hits: u64,
}

/// The soundness rule of `BoundAudit`: every exact field within its bound,
/// with the same float headroom.
fn sound(bound: &ErrorBound, m: &ExactMetrics) -> bool {
    const FLOAT_SLOP: f64 = 1e-9;
    bound.over >= m.max_overshoot
        && bound.under >= m.max_undershoot
        && bound.wce() >= m.worst_case_error
        && bound.error_rate_bound + FLOAT_SLOP >= m.error_rate
        && bound.mean_abs + FLOAT_SLOP >= m.mean_error_distance
}

struct Replayer<'t> {
    tracer: &'t mut Tracer,
    parent: usize,
    out: AuditReplay,
}

impl Replayer<'_> {
    fn finish(&mut self, name: String, bound: &ErrorBound, m: &ExactMetrics, bdd: &Bdd) {
        let s = bdd.stats();
        self.out.nodes += s.nodes as u64;
        self.out.ite_lookups += s.ite_lookups;
        self.out.ite_hits += s.ite_hits;
        self.out
            .entries
            .push((name, sound(bound, m), m.worst_case_error));
    }

    /// One hand-twin entry: the bound from `bound_layer`, the BDD of the
    /// twin and its reference, then the exact metrics.
    fn pair(
        &mut self,
        name: String,
        width: usize,
        bound_layer: &'static str,
        bound: impl FnOnce() -> ErrorBound,
        twin: impl FnOnce(&mut Bdd, &[Ref], &[Ref]) -> Vec<Ref>,
        reference: impl FnOnce(&mut Bdd, &[Ref], &[Ref]) -> Vec<Ref>,
    ) {
        let key = self.out.entries.len() as u64;
        let bound = self.tracer.time(bound_layer, Some(self.parent), key, bound);
        let (mut bdd, approx, exact) =
            self.tracer
                .time("analysis.bdd.build", Some(self.parent), key, || {
                    let mut bdd = Bdd::new();
                    let (a, b) = interleaved_operand_vars(&mut bdd, width);
                    let approx = twin(&mut bdd, &a, &b);
                    let exact = reference(&mut bdd, &a, &b);
                    (bdd, approx, exact)
                });
        let m = self
            .tracer
            .time("analysis.bdd.count", Some(self.parent), key, || {
                exact_metrics(&mut bdd, &approx, &exact, 2 * width)
            });
        self.finish(name, &bound, &m, &bdd);
    }

    /// One derived-bound entry: abstract interpretation of the netlist
    /// pair, then both netlists compiled into one manager.
    fn derived(&mut self, name: &str, approx: &Netlist, exact: &Netlist) {
        let key = self.out.entries.len() as u64;
        let bound = self
            .tracer
            .time("analysis.absint", Some(self.parent), key, || {
                derive_error_bound(approx, exact).expect("registry pairs share their input arity")
            });
        let (mut bdd, a_roots, e_roots) =
            self.tracer
                .time("analysis.bdd.build", Some(self.parent), key, || {
                    let mut bdd = Bdd::new();
                    let vars: Vec<Ref> = (0..approx.n_inputs()).map(|i| bdd.var(i)).collect();
                    let mut a_roots = compile_netlist(&mut bdd, approx, &vars);
                    let mut e_roots = compile_netlist(&mut bdd, exact, &vars);
                    let m = a_roots.len().max(e_roots.len());
                    a_roots.resize(m, FALSE);
                    e_roots.resize(m, FALSE);
                    (bdd, a_roots, e_roots)
                });
        let m = self
            .tracer
            .time("analysis.bdd.count", Some(self.parent), key, || {
                exact_metrics(&mut bdd, &a_roots, &e_roots, approx.n_inputs())
            });
        self.finish(format!("absint:{name}"), &bound, &m, &bdd);
    }
}

const RECURSIVE_SUMS: [SumMode; 2] = [
    SumMode::Accurate,
    SumMode::ApproxLsbs {
        kind: FullAdderKind::Apx2,
        lsbs: 2,
    },
];
const WALLACE_CONFIGS: [(FullAdderKind, usize); 3] = [
    (FullAdderKind::Apx2, 4),
    (FullAdderKind::Apx4, 8),
    (FullAdderKind::Apx5, 8),
];
const TRUNCATED_CONFIGS: [(usize, bool); 3] = [(2, false), (4, true), (6, true)];

fn rca8(kind: FullAdderKind) -> RippleCarryAdder {
    RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped configuration")
}

fn gear822() -> GeArAdder {
    GeArAdder::new(8, 2, 2).expect("shipped configuration")
}

fn wallace8(kind: FullAdderKind, cols: usize) -> WallaceMultiplier {
    WallaceMultiplier::new(8, kind, cols).expect("shipped configuration")
}

fn recursive8(block: Mul2x2Kind, sum: SumMode) -> RecursiveMultiplier {
    RecursiveMultiplier::new(8, block, sum).expect("shipped configuration")
}

fn truncated8(dropped: usize, compensated: bool) -> TruncatedMultiplier {
    TruncatedMultiplier::new(8, dropped, compensated).expect("shipped configuration")
}

/// Replays `audit_bounds`' entry list, in its order, through the public
/// twins, compiler, metrics, calculus and abstract interpreter.
fn replay_audit(tracer: &mut Tracer) -> AuditReplay {
    let parent = tracer.begin("analysis.audit.replay", None, 0);
    let mut r = Replayer {
        tracer,
        parent,
        out: AuditReplay::default(),
    };
    let comp = "analysis.components";
    for kind in FullAdderKind::APPROXIMATE {
        let rca = rca8(kind);
        r.pair(
            rca.name(),
            8,
            comp,
            || components::ripple_adder_bound(&rca),
            |bdd, a, b| twins::ripple_adder(bdd, &rca, a, b),
            |bdd, a, b| twins::add_exact(bdd, a, b, FALSE),
        );
    }
    let gear = gear822();
    r.pair(
        gear.name(),
        8,
        comp,
        || components::gear_adder_bound(&gear),
        |bdd, a, b| twins::gear_adder(bdd, &gear, a, b, 0),
        |bdd, a, b| twins::add_exact(bdd, a, b, FALSE),
    );
    let exact_sub = Subtractor::new(RippleCarryAdder::accurate(8));
    for kind in FullAdderKind::APPROXIMATE {
        let sub = Subtractor::new(rca8(kind));
        r.pair(
            sub.name(),
            8,
            comp,
            || components::subtractor_bound(&sub),
            |bdd, a, b| twins::subtractor(bdd, &sub, a, b).0,
            |bdd, a, b| twins::subtractor(bdd, &exact_sub, a, b).0,
        );
    }
    for kind in Mul2x2Kind::ALL {
        r.pair(
            format!("mul2x2_{kind}"),
            2,
            comp,
            || components::mul2x2_bound(kind),
            |bdd, a, b| twins::mul2x2(bdd, kind, a[0], a[1], b[0], b[1]).to_vec(),
            |bdd, a, b| twins::mul2x2(bdd, Mul2x2Kind::Accurate, a[0], a[1], b[0], b[1]).to_vec(),
        );
    }
    for block in Mul2x2Kind::ALL {
        for sum in RECURSIVE_SUMS {
            let mul = recursive8(block, sum);
            r.pair(
                mul.name(),
                8,
                comp,
                || components::recursive_multiplier_bound(&mul),
                |bdd, a, b| twins::recursive_multiplier(bdd, 8, block, sum, a, b),
                twins::mul_exact,
            );
        }
    }
    for (kind, cols) in WALLACE_CONFIGS {
        let mul = wallace8(kind, cols);
        r.pair(
            mul.name(),
            8,
            comp,
            || components::wallace_bound(&mul),
            |bdd, a, b| twins::wallace_multiplier(bdd, &mul, a, b),
            twins::mul_exact,
        );
    }
    for (dropped, compensated) in TRUNCATED_CONFIGS {
        let mul = truncated8(dropped, compensated);
        r.pair(
            mul.name(),
            8,
            comp,
            || components::truncated_bound(&mul),
            |bdd, a, b| twins::truncated_multiplier(bdd, &mul, a, b),
            twins::mul_exact,
        );
    }
    let calc = "analysis.calculus";
    for (kind, cols) in WALLACE_CONFIGS {
        let mul = wallace8(kind, cols);
        r.pair(
            format!("calculus:{}", mul.name()),
            8,
            calc,
            || calculus::wallace_calculus(&mul, None).to_error_bound(),
            |bdd, a, b| twins::wallace_multiplier(bdd, &mul, a, b),
            twins::mul_exact,
        );
    }
    for (dropped, compensated) in TRUNCATED_CONFIGS {
        let mul = truncated8(dropped, compensated);
        r.pair(
            format!("calculus:{}", mul.name()),
            8,
            calc,
            || calculus::truncated_calculus(&mul).to_error_bound(),
            |bdd, a, b| twins::truncated_multiplier(bdd, &mul, a, b),
            twins::mul_exact,
        );
    }
    for block in Mul2x2Kind::ALL {
        for sum in RECURSIVE_SUMS {
            let mul = recursive8(block, sum);
            r.pair(
                format!("calculus:{}", mul.name()),
                8,
                calc,
                || calculus::recursive_calculus(&mul).to_error_bound(),
                |bdd, a, b| twins::recursive_multiplier(bdd, 8, block, sum, a, b),
                twins::mul_exact,
            );
        }
    }

    for d in approx_cell_descriptors() {
        r.derived(
            &format!("cell/{}", d.name()),
            d.netlist(),
            d.reference_netlist(),
        );
    }
    let accurate_fa = FullAdderKind::Accurate.structural_netlist();
    for kind in FullAdderKind::APPROXIMATE {
        r.derived(&kind.to_string(), &kind.structural_netlist(), &accurate_fa);
    }
    let accurate_mul2x2 = Mul2x2Kind::Accurate.netlist();
    for kind in Mul2x2Kind::ALL
        .into_iter()
        .filter(|&k| k != Mul2x2Kind::Accurate)
    {
        r.derived(&format!("mul2x2_{kind}"), &kind.netlist(), &accurate_mul2x2);
    }
    let accurate_rca = ripple_netlist(&RippleCarryAdder::accurate(8));
    for kind in FullAdderKind::APPROXIMATE {
        let rca = rca8(kind);
        r.derived(&rca.name(), &ripple_netlist(&rca), &accurate_rca);
    }
    r.derived(&gear.name(), &gear_netlist(&gear), &accurate_rca);
    let exact_sub_netlist = subtractor_netlist(&exact_sub);
    for kind in FullAdderKind::APPROXIMATE {
        let sub = Subtractor::new(rca8(kind));
        r.derived(&sub.name(), &subtractor_netlist(&sub), &exact_sub_netlist);
    }
    let accurate_wallace = wallace_netlist(&wallace8(FullAdderKind::Accurate, 0));
    for (kind, cols) in WALLACE_CONFIGS {
        let mul = wallace8(kind, cols);
        r.derived(&mul.name(), &wallace_netlist(&mul), &accurate_wallace);
    }
    let Replayer {
        tracer,
        parent,
        out,
    } = r;
    tracer.end(parent);
    out
}
