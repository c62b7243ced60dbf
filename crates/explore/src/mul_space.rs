//! Enumeration of the approximate-multiplier design space (the Fig.6
//! axes as a searchable space).
//!
//! Section 5 builds multipliers along three independent axes: the
//! elementary 2×2 block, the partial-product summation mode, and (from
//! the truncation family) the number of eliminated low columns. This
//! module enumerates configurations across all three, characterizes each
//! ([`xlac_core::ComponentProfile`]) and hands them to the generic Pareto
//! machinery — the multiplier counterpart of [`crate::gear_space`].
//!
//! Since every configuration also has a *free* static error ceiling from
//! `xlac-analysis` — the exact worst-case error from the error calculus
//! or exhaustive enumeration where the width permits, the conservative
//! bound beyond that — [`enumerate_multiplier_space_prefiltered`] prunes statically
//! dominated designs before spending any Monte-Carlo budget: simulation
//! only runs for members of the static `(area, wce-ceiling)` Pareto
//! frontier.
//!
//! # Example
//!
//! ```
//! use xlac_explore::mul_space::{
//!     enumerate_multiplier_space, enumerate_multiplier_space_prefiltered,
//! };
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let space = enumerate_multiplier_space(8, 20_000)?;
//! assert!(space.len() > 10);
//! // Every profile carries a cost and quality record.
//! assert!(space.iter().all(|p| p.cost.area_ge > 0.0));
//!
//! // The static pre-filter skips simulation for dominated designs.
//! let pre = enumerate_multiplier_space_prefiltered(8, 20_000)?;
//! assert_eq!(pre.evaluated.len() + pre.pruned.len(), space.len());
//! assert!(!pre.pruned.is_empty());
//! # Ok(())
//! # }
//! ```

use xlac_adders::FullAdderKind;
use xlac_analysis::absint::wallace_bound_absint;
use xlac_analysis::bound::ErrorBound;
use xlac_analysis::components::{
    certified_wallace_bound, recursive_multiplier_bound, truncated_bound,
};
use xlac_analysis::symbolic::calculus::{
    recursive_calculus, truncated_calculus, wallace_calculus, CertifiedMetrics,
};
use xlac_analysis::symbolic::exhaustive_metrics;
use xlac_core::characterization::HwCost;
use xlac_core::error::Result;
use xlac_core::metrics::{exhaustive_binary, ErrorStats};
use xlac_core::ComponentProfile;
use xlac_logic::Netlist;
use xlac_multipliers::hw::{recursive_netlist, truncated_netlist, wallace_netlist};
use xlac_multipliers::{
    Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode, TruncatedMultiplier, WallaceMultiplier,
};
use xlac_obs::{obs_count, obs_span};
use xlac_sim::{compiled_pair_sweep, CompiledProgram, SweepOptions};

/// One multiplier configuration, kept as its concrete family type so the
/// static bound can be computed without simulation at construction time.
enum MulConfig {
    Recursive(RecursiveMultiplier),
    Wallace(WallaceMultiplier),
    Truncated(TruncatedMultiplier),
}

impl MulConfig {
    fn as_multiplier(&self) -> &dyn Multiplier {
        match self {
            MulConfig::Recursive(m) => m,
            MulConfig::Wallace(m) => m,
            MulConfig::Truncated(m) => m,
        }
    }

    /// The configuration's elaborated `hw` netlist.
    fn netlist(&self) -> Netlist {
        match self {
            MulConfig::Recursive(m) => recursive_netlist(m),
            MulConfig::Wallace(m) => wallace_netlist(m),
            MulConfig::Truncated(m) => truncated_netlist(m),
        }
    }

    /// The static pre-filter ceiling. The Wallace family has a real
    /// netlist emitter, so its bound now comes from the *automatic*
    /// abstract-interpretation derivation over the `(approx, exact)`
    /// netlist pair ([`wallace_bound_absint`]) — no hand-wired per-family
    /// propagation — intersected with the certified calculus envelope
    /// (both are sound on the same quantity, so their fieldwise min is
    /// too). The recursive and truncated families keep their
    /// compositional calculus bounds.
    fn bound(&self) -> ErrorBound {
        match self {
            MulConfig::Recursive(m) => recursive_multiplier_bound(m),
            MulConfig::Wallace(m) => wallace_bound_absint(m).tightened(&certified_wallace_bound(m)),
            MulConfig::Truncated(m) => truncated_bound(m),
        }
    }

    /// The compositional error calculus' certified metrics: the exact
    /// error PMF where the family's structure permits (Wallace and
    /// truncated at every shipped width, recursive leaves), a sound
    /// interval otherwise. Available at *any* width.
    fn certified(&self) -> CertifiedMetrics {
        match self {
            MulConfig::Recursive(m) => recursive_calculus(m),
            MulConfig::Wallace(m) => wallace_calculus(m, None),
            MulConfig::Truncated(m) => truncated_calculus(m),
        }
    }

    /// The *provable* worst-case error: from the compositional calculus
    /// whenever it certifies the exact distribution (any width), else
    /// from exhaustive compiled enumeration of the unit's `hw` netlist
    /// against the accurate product where the operand width permits (the
    /// same `2w ≤ 16` cutoff as the exhaustive quality path). `None`
    /// beyond both.
    fn exact_wce(&self, certified: &CertifiedMetrics) -> Option<u128> {
        if let Some(wce) = certified.exact_wce() {
            return Some(wce);
        }
        let w = self.as_multiplier().width();
        if 2 * w > 16 {
            return None;
        }
        let exact = wallace_netlist(&WallaceMultiplier::new(w, FullAdderKind::Accurate, 0).ok()?);
        exhaustive_metrics(&self.netlist(), &exact).ok().map(|m| m.worst_case_error)
    }
}

/// The shared enumeration behind the full and prefiltered spaces: three
/// families, fixed order, one entry per configuration.
fn configurations(width: usize) -> Result<Vec<MulConfig>> {
    let mut configs = Vec::new();

    // Recursive family.
    let sum_modes = [
        SumMode::Accurate,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx1, lsbs: 2 },
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx3, lsbs: 4 },
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx5, lsbs: 4 },
    ];
    for block in Mul2x2Kind::ALL {
        for sum in sum_modes {
            configs.push(MulConfig::Recursive(RecursiveMultiplier::new(width, block, sum)?));
        }
    }

    // Wallace family (one exact baseline, then the approximate columns —
    // cols = 0 collapses to the same design for every cell kind).
    configs.push(MulConfig::Wallace(WallaceMultiplier::new(width, FullAdderKind::Accurate, 0)?));
    for kind in [FullAdderKind::Apx2, FullAdderKind::Apx4, FullAdderKind::Apx5] {
        for cols in [4usize, 8] {
            configs.push(MulConfig::Wallace(WallaceMultiplier::new(width, kind, cols)?));
        }
    }

    // Truncation family.
    for dropped in [0usize, 2, 4, 6] {
        for compensated in [false, true] {
            if dropped == 0 && compensated {
                continue;
            }
            configs.push(MulConfig::Truncated(TruncatedMultiplier::new(
                width,
                dropped,
                compensated,
            )?));
        }
    }

    Ok(configs)
}

fn quality(config: &MulConfig, samples: u64) -> ErrorStats {
    let m = config.as_multiplier();
    let w = m.width();
    if 2 * w <= 16 {
        obs_count!("explore.mul.exhaustive_evals", 1);
        exhaustive_binary(w, w, |a, b| a * b, |a, b| m.mul(a, b))
    } else {
        obs_count!("explore.mul.mc_trials", samples);
        let opts = SweepOptions::new(samples, 0x3113);
        // Beyond exhaustive reach, the Monte-Carlo budget runs the
        // configuration's compiled netlist at 512-lane blocks,
        // deterministic for any worker count (`xlac-sim`'s chunked
        // runner) and bit-identical to the scalar model's sweep.
        let prog = CompiledProgram::compile(&config.netlist());
        compiled_pair_sweep::<[u64; 8], _>(&prog, w, |a, b| a * b, &opts)
    }
}

/// Enumerates and characterizes multiplier configurations at the given
/// operand width (power of two in `4..=16`):
///
/// * recursive multipliers: {accurate, SoA, ours} blocks ×
///   {accurate, ApxFA1/3/5 on 2 or 4 LSBs} summation,
/// * Wallace trees with 0/4/8 approximate columns per approximate cell,
/// * truncated multipliers dropping 0/2/4/6 columns, compensated or not.
///
/// `samples` bounds the Monte-Carlo effort for widths beyond exhaustive
/// reach.
///
/// # Errors
///
/// Propagates construction errors (invalid width).
pub fn enumerate_multiplier_space(width: usize, samples: u64) -> Result<Vec<ComponentProfile>> {
    let _span = obs_span!("explore.mul_space");
    let configs = configurations(width)?;
    obs_count!("explore.mul.configs", configs.len() as u64);
    configs
        .iter()
        .map(|config| {
            let m = config.as_multiplier();
            Ok(ComponentProfile::new(m.name(), m.hw_cost(), quality(config, samples)))
        })
        .collect()
}

/// A configuration seen through the static lens only: name, cost, and the
/// `xlac-analysis` error bound — no simulation behind it.
#[derive(Debug, Clone)]
pub struct StaticPoint {
    /// Configuration name.
    pub name: String,
    /// Static worst-case error bound (sound ceiling on any observed
    /// error).
    pub wce_bound: u128,
    /// The *exact* worst-case error: proven by the compositional error
    /// calculus wherever it certifies the full distribution (Wallace and
    /// truncated configurations at every shipped width, 16×16 and 32×32
    /// included), or by exhaustive enumeration of the netlist at `2w ≤ 16`.
    /// `None` only where neither applies (wide recursive designs).
    pub wce_exact: Option<u128>,
    /// The calculus' certified worst-case ceiling — sound at every
    /// width, and equal to `wce_exact` where that is present.
    pub wce_certified: u128,
    /// Static bound on the mean absolute error under uniform inputs.
    pub mean_bound: f64,
    /// Hardware cost.
    pub cost: HwCost,
}

impl StaticPoint {
    /// The sharpest available error ceiling: the proven exact WCE where
    /// one exists, otherwise the tighter of the static bound and the
    /// calculus' certified interval ceiling. Always sound, so pruning on
    /// it is safe — at *every* width, not just the exhaustive ones.
    #[must_use]
    pub fn wce_ceiling(&self) -> u128 {
        self.wce_exact.unwrap_or_else(|| self.wce_bound.min(self.wce_certified))
    }
}

/// The outcome of the statically prefiltered enumeration.
#[derive(Debug, Clone)]
pub struct PrefilteredSpace {
    /// Configurations on the static `(area, wce-bound)` Pareto frontier,
    /// fully characterized by Monte-Carlo / exhaustive simulation.
    pub evaluated: Vec<ComponentProfile>,
    /// Configurations statically dominated before any simulation ran.
    pub pruned: Vec<StaticPoint>,
}

/// `true` when `b` dominates `a` on (area, wce-ceiling): no worse on
/// both axes and strictly better on at least one. The ceiling is the
/// exact WCE where the width permits, so at paper widths the
/// pruning decision is made on *proven* error, not on the conservative
/// bound.
fn statically_dominated(a: &StaticPoint, b: &StaticPoint) -> bool {
    b.cost.area_ge <= a.cost.area_ge
        && b.wce_ceiling() <= a.wce_ceiling()
        && (b.cost.area_ge < a.cost.area_ge || b.wce_ceiling() < a.wce_ceiling())
}

/// Enumerates the multiplier space with static error analysis as a
/// pre-filter: every configuration gets a free `xlac-analysis` error
/// ceiling — the *exact* worst-case error from the error calculus or
/// exhaustive enumeration where the width permits (`2w ≤ 16`), the conservative static
/// bound beyond that — the `(area, worst-case-error)` Pareto frontier is
/// computed from those ceilings alone, and only frontier members are
/// characterized by simulation. Because both ceilings are sound, a
/// configuration dominated statically (someone else is cheaper **and**
/// carries a smaller guaranteed-error ceiling) can never redeem itself
/// under measurement on these axes — pruning it is safe, and the
/// Monte-Carlo budget concentrates on genuine trade-off candidates. At
/// paper widths the exact ceilings are often far below the bounds (the
/// Wallace bound over-estimates by ~60×), so the frontier they induce is
/// the true one.
///
/// # Errors
///
/// Propagates construction errors (invalid width).
pub fn enumerate_multiplier_space_prefiltered(
    width: usize,
    samples: u64,
) -> Result<PrefilteredSpace> {
    let _span = obs_span!("explore.mul_space_prefiltered");
    let configs = configurations(width)?;
    obs_count!("explore.mul.configs", configs.len() as u64);
    let points: Vec<StaticPoint> = configs
        .iter()
        .map(|config| {
            let bound = config.bound();
            let certified = config.certified();
            StaticPoint {
                name: config.as_multiplier().name(),
                wce_bound: bound.wce(),
                wce_exact: config.exact_wce(&certified),
                wce_certified: certified.wce_hi(),
                mean_bound: bound.mean_abs,
                cost: config.as_multiplier().hw_cost(),
            }
        })
        .collect();
    let mut evaluated = Vec::new();
    let mut pruned = Vec::new();
    for (config, point) in configs.iter().zip(&points) {
        if points.iter().any(|other| statically_dominated(point, other)) {
            pruned.push(point.clone());
        } else {
            let m = config.as_multiplier();
            evaluated.push(ComponentProfile::new(m.name(), m.hw_cost(), quality(config, samples)));
        }
    }
    obs_count!("explore.mul.pruned", pruned.len() as u64);
    obs_count!("explore.mul.evaluated", evaluated.len() as u64);
    Ok(PrefilteredSpace { evaluated, pruned })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto_frontier;
    use xlac_sim::multiplier_sweep_scalar;

    #[test]
    fn space_has_the_three_families() {
        let space = enumerate_multiplier_space(8, 10_000).unwrap();
        assert!(space.iter().any(|p| p.name.starts_with("RecMul")));
        assert!(space.iter().any(|p| p.name.starts_with("Wallace")));
        assert!(space.iter().any(|p| p.name.starts_with("TruncMul")));
        // Names are unique.
        let mut names: Vec<&str> = space.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn monte_carlo_path_matches_the_scalar_sweep() {
        // Width 16 is beyond exhaustive reach (2w = 32 > 16), so quality()
        // routes every family through the compiled-netlist sweep. The
        // RNG discipline guarantees stats identical to the scalar model's
        // sweep.
        let m = WallaceMultiplier::new(16, FullAdderKind::Apx2, 6).unwrap();
        let rec = RecursiveMultiplier::new(16, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        let trunc = TruncatedMultiplier::new(16, 6, true).unwrap();
        let opts = SweepOptions::new(4_096, 0x3113);
        let scalar = |m: &(dyn Multiplier + Sync)| multiplier_sweep_scalar(m, &opts);
        assert_eq!(quality(&MulConfig::Wallace(m), 4_096), scalar(&m));
        assert_eq!(quality(&MulConfig::Recursive(rec.clone()), 4_096), scalar(&rec));
        assert_eq!(quality(&MulConfig::Truncated(trunc), 4_096), scalar(&trunc));
    }

    #[test]
    fn exact_configurations_have_zero_error() {
        let space = enumerate_multiplier_space(8, 10_000).unwrap();
        for p in &space {
            let exactish = (p.name.contains("AccMul") && !p.name.contains("xApxFA"))
                || p.name == "Wallace(N=8)"
                || p.name == "TruncMul(N=8,D=0)";
            if exactish {
                assert!(p.quality.is_exact(), "{} should be exact", p.name);
            }
        }
    }

    #[test]
    fn pareto_frontier_spans_the_families() {
        let space = enumerate_multiplier_space(8, 10_000).unwrap();
        let frontier = pareto_frontier(
            &space,
            &[&|p: &ComponentProfile| p.cost.area_ge, &|p| p.quality.mean_relative_error],
        );
        assert!(frontier.len() >= 3, "a real trade-off curve");
        assert!(frontier.len() < space.len(), "something must be dominated");
        // An exact design anchors the quality end of the frontier.
        assert!(frontier.iter().any(|p| p.quality.is_exact()));
    }

    #[test]
    fn prefilter_partitions_the_space() {
        let full = enumerate_multiplier_space(8, 10_000).unwrap();
        let pre = enumerate_multiplier_space_prefiltered(8, 10_000).unwrap();
        assert_eq!(pre.evaluated.len() + pre.pruned.len(), full.len());
        assert!(!pre.pruned.is_empty(), "static pruning must bite");
        assert!(!pre.evaluated.is_empty());
        let full_names: Vec<&str> = full.iter().map(|p| p.name.as_str()).collect();
        for p in pre.evaluated.iter().map(|p| p.name.as_str()) {
            assert!(full_names.contains(&p), "{p} not in the full space");
        }
        // An exact design always survives (nothing can dominate wce 0 and
        // minimal area simultaneously).
        assert!(pre.evaluated.iter().any(|p| p.quality.is_exact()));
    }

    #[test]
    fn pruned_designs_are_covered_by_an_evaluated_one() {
        // Pareto dominance is transitive, so every pruned design must be
        // dominated by a *frontier* member — and the frontier member's
        // measured worst error is covered by its static wce, which in
        // turn is no larger than the pruned design's bound. This is the
        // soundness argument for skipping the pruned simulations.
        let pre = enumerate_multiplier_space_prefiltered(8, 10_000).unwrap();
        for pruned in &pre.pruned {
            assert!(
                pre.evaluated.iter().any(|e| {
                    e.cost.area_ge <= pruned.cost.area_ge
                        && (e.quality.max_error_distance as u128) <= pruned.wce_bound
                }),
                "{} pruned without a covering frontier member",
                pruned.name
            );
        }
    }

    #[test]
    fn exact_wce_is_present_and_within_the_bound_at_paper_width() {
        let pre = enumerate_multiplier_space_prefiltered(8, 2_000).unwrap();
        // 8-bit operands (16 input bits): every pruned point carries a
        // proven exact WCE, and it never exceeds the static bound.
        assert!(!pre.pruned.is_empty());
        for pt in &pre.pruned {
            let exact = pt.wce_exact.expect("8-bit configs are provable");
            assert!(exact <= pt.wce_bound, "{}: exact {exact} > bound {}", pt.name, pt.wce_bound);
            assert_eq!(pt.wce_ceiling(), exact, "{}: pruning must use the proof", pt.name);
        }
        // The exact ceilings genuinely sharpen at least one design (the
        // Wallace bounds are very conservative).
        assert!(
            pre.pruned.iter().any(|pt| pt.wce_exact.unwrap() < pt.wce_bound),
            "exact analysis should beat at least one static bound"
        );
    }

    #[test]
    fn exact_pruning_never_discards_a_measured_winner() {
        // The frontier computed on exact WCE is sound against the
        // measured worst errors: every pruned design is covered by an
        // evaluated one whose *measured* worst error is no larger than
        // the pruned design's proven WCE.
        let pre = enumerate_multiplier_space_prefiltered(8, 2_000).unwrap();
        for pruned in &pre.pruned {
            let ceiling = pruned.wce_ceiling();
            assert!(
                pre.evaluated.iter().any(|e| {
                    e.cost.area_ge <= pruned.cost.area_ge
                        && (e.quality.max_error_distance as u128) <= ceiling
                }),
                "{} pruned without a covering frontier member",
                pruned.name
            );
        }
    }

    #[test]
    fn wide_spaces_prune_on_certified_wce() {
        // 16×16 and 32×32 are far beyond the monolithic miter (32/64
        // input bits), yet the compositional calculus certifies every
        // configuration: exact distributions for the Wallace and
        // truncated families, sound intervals for the recursive one —
        // so static pruning runs on proven numbers at wide widths too.
        for width in [16usize, 32] {
            let pre = enumerate_multiplier_space_prefiltered(width, 500).unwrap();
            assert!(!pre.pruned.is_empty(), "width {width}: pruning must bite");
            for pt in &pre.pruned {
                assert!(pt.wce_ceiling() <= pt.wce_bound, "{}", pt.name);
                if pt.name.starts_with("Wallace") || pt.name.starts_with("TruncMul") {
                    assert!(
                        pt.wce_exact.is_some(),
                        "{}: calculus must certify the exact distribution",
                        pt.name
                    );
                }
            }
            // The certified ceilings genuinely sharpen the frontier:
            // `wce_bound` for Wallace points already *is* the
            // calculus-tightened `certified_wallace_bound`, so measure
            // the gain against the raw structural bound instead.
            let m = WallaceMultiplier::new(width, FullAdderKind::Apx2, 8).unwrap();
            let structural = xlac_analysis::components::wallace_bound(&m).wce();
            let certified = wallace_calculus(&m, None)
                .exact_wce()
                .expect("Wallace cone is exact at every shipped width");
            assert!(
                certified < structural,
                "width {width}: certified {certified} should beat the structural {structural}"
            );
        }
    }

    #[test]
    fn sixteen_bit_space_uses_sampling() {
        let space = enumerate_multiplier_space(16, 5_000).unwrap();
        // All sampled profiles saw the configured number of samples.
        let sampled = space.iter().find(|p| !p.quality.is_exact()).expect("approx exists");
        assert_eq!(sampled.quality.samples, 5_000);
        // Every profile's sampled statistics, pinned: (name, samples,
        // error_count, max_error_distance, distinct error magnitudes).
        // The Monte-Carlo leg's evaluator may change form; its draws and
        // results may not.
        let pins: [(&str, u64, u64, u64, usize); 26] = [
            ("RecMul(N=16,AccMul)", 5000, 0, 0, 0),
            ("RecMul(N=16,AccMul,2xApxFA1)", 5000, 5000, 273274744, 4096),
            ("RecMul(N=16,AccMul,4xApxFA3)", 5000, 5000, 3947692464, 4096),
            ("RecMul(N=16,AccMul,4xApxFA5)", 5000, 4999, 3766230255, 4096),
            ("RecMul(N=16,ApxMulSoA)", 5000, 4058, 928457344, 1782),
            ("RecMul(N=16,ApxMulSoA,2xApxFA1)", 5000, 5000, 980098612, 4096),
            ("RecMul(N=16,ApxMulSoA,4xApxFA3)", 5000, 5000, 1286002405, 4096),
            ("RecMul(N=16,ApxMulSoA,4xApxFA5)", 5000, 4999, 1581449908, 4096),
            ("RecMul(N=16,ApxMulOur)", 5000, 4917, 476288000, 4096),
            ("RecMul(N=16,ApxMulOur,2xApxFA1)", 5000, 5000, 640462174, 4096),
            ("RecMul(N=16,ApxMulOur,4xApxFA3)", 5000, 5000, 3964473776, 4096),
            ("RecMul(N=16,ApxMulOur,4xApxFA5)", 5000, 4999, 3785931066, 4096),
            ("Wallace(N=16)", 5000, 0, 0, 0),
            ("Wallace(N=16,4cols ApxFA2)", 5000, 4562, 22, 11),
            ("Wallace(N=16,8cols ApxFA2)", 5000, 4989, 724, 319),
            ("Wallace(N=16,4cols ApxFA4)", 5000, 3992, 26, 12),
            ("Wallace(N=16,8cols ApxFA4)", 5000, 4898, 858, 328),
            ("Wallace(N=16,4cols ApxFA5)", 5000, 3501, 30, 12),
            ("Wallace(N=16,8cols ApxFA5)", 5000, 4834, 1084, 372),
            ("TruncMul(N=16,D=0)", 5000, 0, 0, 0),
            ("TruncMul(N=16,D=2)", 5000, 2505, 5, 4),
            ("TruncMul(N=16,D=2+comp)", 5000, 4700, 4, 3),
            ("TruncMul(N=16,D=4)", 5000, 4115, 49, 33),
            ("TruncMul(N=16,D=4+comp)", 5000, 4481, 37, 23),
            ("TruncMul(N=16,D=6)", 5000, 4670, 321, 203),
            ("TruncMul(N=16,D=6+comp)", 5000, 4925, 241, 133),
        ];
        let got: Vec<_> = space
            .iter()
            .map(|p| {
                let q = &p.quality;
                (
                    p.name.as_str(),
                    q.samples,
                    q.error_count,
                    q.max_error_distance,
                    q.distinct_error_values.len(),
                )
            })
            .collect();
        assert_eq!(got, pins);
    }
}
