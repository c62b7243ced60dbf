//! Per-distribution design-space exploration over the descriptor-native
//! unit library.
//!
//! The uniform-input Pareto fronts of [`crate::mul_space`] answer "which
//! design wins on random data" — but the paper's cross-layer pitch is
//! that the *application* layer knows its operand statistics, and the
//! right approximate unit depends on them. This module scores one
//! combined space — the word-level adder descriptors from `xlac_adders`
//! plus the netlist-backed multiplier trees from `xlac_multipliers` —
//! under every [`InputDistribution`], with **exact** PMF-weighted error
//! metrics (no sampling noise: [`exhaustive_metrics_under_each`]
//! enumerates the whole 8-bit operand space on compiled programs against
//! the configuration's exact reference netlist once, and weights every
//! assignment by each distribution's integer PMF in that one pass), and
//! extracts a Pareto front per distribution and per operator class.
//! [`distribution_fronts`] thus scores each configuration once for all
//! four distributions.
//!
//! The Monte-Carlo twin ([`measured_stats`]) runs the same configuration
//! through the bit-sliced `xlac-sim` engine with the same distribution
//! threaded into the operand draw — the convergence of the two legs is
//! pinned by this module's property tests.
//!
//! # Example
//!
//! ```
//! use xlac_core::dist::InputDistribution;
//! use xlac_explore::dist_space::score_distribution_space;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let front = score_distribution_space(8, InputDistribution::SparsePeaked)?;
//! assert!(!front.adder_front.is_empty());
//! assert!(!front.multiplier_front.is_empty());
//! # Ok(())
//! # }
//! ```

use crate::pareto::try_pareto_frontier;
use xlac_adders::{cla8, csa8, loa8_l3, ofloca8, skl8, UnitDescriptor};
use xlac_analysis::symbolic::{
    exhaustive_metrics_under, exhaustive_metrics_under_each, ExactMetrics,
};
use xlac_core::characterization::HwCost;
use xlac_core::dist::InputDistribution;
use xlac_core::error::{Result, XlacError};
use xlac_core::metrics::ErrorStats;
use xlac_logic::netlist::Netlist;
use xlac_multipliers::hw::wallace_netlist;
use xlac_multipliers::{CompressKnob, CompressorMultiplier, Multiplier, WallaceMultiplier};
use xlac_obs::{obs_count, obs_span};
use xlac_sim::{interpreted_pair_sweep, SweepOptions};

/// Seed for the deterministic switching-activity power estimates of the
/// word-adder descriptors (the multiplier families carry their own).
const POWER_SEED: u64 = 0xD157;

/// Operator class of a configuration — fronts are extracted per class,
/// because an adder's error-distance scale is incommensurable with a
/// multiplier's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `width`-bit adder: exact reference `a + b`.
    Adder,
    /// `width × width` multiplier: exact reference `a · b`.
    Multiplier,
}

/// One netlist-backed configuration of the combined space. Every leg —
/// exact PMF scoring, Monte-Carlo sweeps, cost — runs off the stored
/// netlist, so the two metric paths measure the same hardware.
#[derive(Debug, Clone)]
pub struct DistConfig {
    name: String,
    family: Family,
    width: usize,
    netlist: Netlist,
    /// The exact reference of the class, as a netlist of the same inputs.
    reference: Netlist,
    cost: HwCost,
}

impl DistConfig {
    /// Configuration name (unique within the enumerated space).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operator class.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The configuration's gate netlist (inputs `0..w` = a, `w..2w` = b).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Hardware cost (area / power proxy / delay).
    #[must_use]
    pub fn cost(&self) -> HwCost {
        self.cost
    }

    /// The exact reference function of this configuration's class.
    #[must_use]
    pub fn exact_fn(&self) -> fn(u64, u64) -> u64 {
        match self.family {
            Family::Adder => |a, b| a + b,
            Family::Multiplier => |a, b| a * b,
        }
    }

    fn from_word_adder(d: &UnitDescriptor) -> DistConfig {
        let netlist = d.netlist().clone();
        let cost = HwCost {
            area_ge: netlist.area_ge(),
            power_nw: netlist.switching_power(512, POWER_SEED),
            delay: netlist.delay(),
        };
        DistConfig {
            name: d.name().to_string(),
            family: Family::Adder,
            width: netlist.n_inputs() / 2,
            netlist,
            reference: d.reference_netlist().clone(),
            cost,
        }
    }

    fn from_comptree(m: &CompressorMultiplier, reference: &Netlist) -> DistConfig {
        DistConfig {
            name: m.name(),
            family: Family::Multiplier,
            width: m.width(),
            netlist: m.netlist().clone(),
            reference: reference.clone(),
            cost: m.hw_cost(),
        }
    }

    fn from_wallace(m: &WallaceMultiplier, reference: &Netlist) -> DistConfig {
        DistConfig {
            name: m.name(),
            family: Family::Multiplier,
            width: m.width(),
            netlist: wallace_netlist(m),
            reference: reference.clone(),
            cost: m.hw_cost(),
        }
    }
}

/// Enumerates the combined per-distribution space at the given operand
/// width: the word-level adder descriptors (at their native width 8) and
/// the netlist-backed multiplier trees (compressor-tree knobs plus
/// approximate Wallace columns).
///
/// # Errors
///
/// [`XlacError::InvalidWidth`] outside `2..=8` — the exact PMF scoring
/// enumerates all `2^{2w}` operand pairs, so the space stays in the
/// exhaustively-verifiable regime by construction.
pub fn enumerate_distribution_space(width: usize) -> Result<Vec<DistConfig>> {
    if !(2..=8).contains(&width) {
        return Err(XlacError::InvalidWidth { width, max: 8 });
    }
    let mut configs = Vec::new();

    // Word-level adder descriptors ship at width 8 only.
    if width == 8 {
        for d in [loa8_l3(), ofloca8(), cla8(), csa8(), skl8()] {
            configs.push(DistConfig::from_word_adder(&d));
        }
    }

    // Both multiplier families are scored against the accurate Wallace
    // tree.
    let accurate = WallaceMultiplier::new(width, xlac_adders::FullAdderKind::Accurate, 0)?;
    let reference = wallace_netlist(&accurate);

    // Compressor-tree family: exact baseline plus each knob axis.
    let comptrees = [
        (CompressKnob::Exact, 0, 0, 0),
        (CompressKnob::Miscount, 2 * width, 0, 0),
        (CompressKnob::OrCompress, 2 * width, 0, 0),
        (CompressKnob::Exact, 0, width / 2, 0),
        (CompressKnob::Miscount, width, 1, 1),
    ];
    for (knob, kc, tc, tr) in comptrees {
        configs.push(DistConfig::from_comptree(
            &CompressorMultiplier::new(width, knob, kc, tc, tr)?,
            &reference,
        ));
    }

    // Wallace family: exact baseline plus approximate low columns.
    configs.push(DistConfig::from_wallace(&accurate, &reference));
    configs.push(DistConfig::from_wallace(
        &WallaceMultiplier::new(width, xlac_adders::FullAdderKind::Apx5, width / 2 + 2)?,
        &reference,
    ));

    Ok(configs)
}

/// A configuration scored under one input distribution.
#[derive(Debug, Clone)]
pub struct DistPoint {
    /// Configuration name.
    pub name: String,
    /// Operator class.
    pub family: Family,
    /// Hardware cost.
    pub cost: HwCost,
    /// Exact PMF-weighted error metrics under the distribution.
    pub metrics: ExactMetrics,
}

/// The scored space and its Pareto fronts under one input distribution.
#[derive(Debug, Clone)]
pub struct DistFront {
    /// The distribution these scores are weighted by.
    pub dist: InputDistribution,
    /// Every configuration of the space, scored.
    pub points: Vec<DistPoint>,
    /// Names of the `(area, mean-error-distance)` Pareto-optimal adders.
    pub adder_front: Vec<String>,
    /// Names of the Pareto-optimal multipliers, same objectives.
    pub multiplier_front: Vec<String>,
}

/// Exact PMF-weighted error metrics of one configuration under a
/// distribution: [`exhaustive_metrics_under`] of its netlist against its
/// exact reference, the full `2^{2w}` operand space weighted by the
/// distribution's integer PMF — no sampling anywhere.
///
/// # Errors
///
/// Propagates the engine's gates ([`XlacError::InvalidWidth`] past the
/// PMF width).
pub fn exact_config_metrics(config: &DistConfig, dist: InputDistribution) -> Result<ExactMetrics> {
    exhaustive_metrics_under(&config.netlist, &config.reference, dist)
}

fn family_front(points: &[DistPoint], family: Family) -> Result<Vec<String>> {
    let members: Vec<&DistPoint> = points.iter().filter(|p| p.family == family).collect();
    let front = try_pareto_frontier(
        &members,
        &[&|p: &&DistPoint| p.cost.area_ge, &|p| p.metrics.mean_error_distance],
    )?;
    Ok(front.iter().map(|p| p.name.clone()).collect())
}

/// Scores the combined space under one distribution and extracts the
/// per-class Pareto fronts (minimize area, minimize PMF-weighted mean
/// error distance).
///
/// # Errors
///
/// Propagates enumeration and PMF width gates.
pub fn score_distribution_space(width: usize, dist: InputDistribution) -> Result<DistFront> {
    let mut fronts = score_configs(&enumerate_distribution_space(width)?, &[dist])?;
    Ok(fronts.pop().expect("one front per distribution"))
}

/// One [`DistFront`] per shipped distribution
/// ([`InputDistribution::ALL`]): the uniform baseline plus the three
/// non-uniform shapes. The space is enumerated once, and each
/// configuration is scored under every distribution in one enumeration
/// of its operand space.
///
/// # Errors
///
/// Propagates enumeration and PMF width gates.
pub fn distribution_fronts(width: usize) -> Result<Vec<DistFront>> {
    score_configs(&enumerate_distribution_space(width)?, &InputDistribution::ALL)
}

/// Scores an enumerated space under each distribution of `dists`
/// ([`exhaustive_metrics_under_each`], one enumeration per
/// configuration) and extracts each distribution's per-class Pareto
/// fronts.
fn score_configs(configs: &[DistConfig], dists: &[InputDistribution]) -> Result<Vec<DistFront>> {
    let _span = obs_span!("explore.dist_space");
    obs_count!("explore.dist.configs", (configs.len() * dists.len()) as u64);
    let mut scores = configs
        .iter()
        .map(|c| Ok(exhaustive_metrics_under_each(&c.netlist, &c.reference, dists)?.into_iter()))
        .collect::<Result<Vec<_>>>()?;
    dists
        .iter()
        .map(|&dist| {
            let points: Vec<DistPoint> = configs
                .iter()
                .zip(&mut scores)
                .map(|(c, metrics)| DistPoint {
                    name: c.name().to_string(),
                    family: c.family(),
                    cost: c.cost(),
                    metrics: metrics.next().expect("one metric set per distribution"),
                })
                .collect();
            let adder_front = family_front(&points, Family::Adder)?;
            let multiplier_front = family_front(&points, Family::Multiplier)?;
            Ok(DistFront { dist, points, adder_front, multiplier_front })
        })
        .collect()
}

/// The Monte-Carlo twin of [`exact_config_metrics`]: the configuration's
/// netlist swept through the bit-sliced interpreter with `trials`
/// operand pairs drawn from `dist` (deterministic in `seed`, invariant
/// in worker count). Converges on the exact PMF metrics as `trials`
/// grows — the property the module's tests pin for every distribution.
#[must_use]
pub fn measured_stats(
    config: &DistConfig,
    dist: InputDistribution,
    trials: u64,
    seed: u64,
) -> ErrorStats {
    let opts = SweepOptions::new(trials, seed).dist(dist);
    interpreted_pair_sweep(&config.netlist, config.width(), config.exact_fn(), &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(points: &'a [DistPoint], name: &str) -> &'a DistPoint {
        points.iter().find(|p| p.name == name).unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn space_has_both_families_with_unique_names() {
        let configs = enumerate_distribution_space(8).unwrap();
        assert!(configs.len() >= 12, "combined space too small: {}", configs.len());
        assert!(configs.iter().any(|c| c.family() == Family::Adder));
        assert!(configs.iter().any(|c| c.family() == Family::Multiplier));
        let mut names: Vec<&str> = configs.iter().map(DistConfig::name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate configuration names");
        // Every configuration has real hardware behind it.
        for c in &configs {
            assert!(c.cost().area_ge > 0.0, "{}", c.name());
            assert_eq!(c.netlist().n_inputs(), 2 * c.width(), "{}", c.name());
        }
    }

    #[test]
    fn width_gate_is_typed() {
        assert!(matches!(
            enumerate_distribution_space(9),
            Err(XlacError::InvalidWidth { width: 9, max: 8 })
        ));
        assert!(enumerate_distribution_space(1).is_err());
        // Narrow widths skip the fixed-width adder descriptors but keep
        // the multiplier families.
        let narrow = enumerate_distribution_space(4).unwrap();
        assert!(narrow.iter().all(|c| c.family() == Family::Multiplier));
        assert!(!narrow.is_empty());
    }

    #[test]
    fn one_enumeration_scores_every_distribution_as_separate_calls_do() {
        let configs = enumerate_distribution_space(8).unwrap();
        let dists = InputDistribution::ALL;
        for c in &configs {
            let fused = exhaustive_metrics_under_each(&c.netlist, &c.reference, &dists).unwrap();
            let single: Vec<ExactMetrics> =
                dists.iter().map(|&d| exact_config_metrics(c, d).unwrap()).collect();
            assert_eq!(fused, single, "{}", c.name());
        }
        for front in distribution_fronts(8).unwrap() {
            let one = score_distribution_space(8, front.dist).unwrap();
            let metrics = |f: &DistFront| -> Vec<(String, ExactMetrics)> {
                f.points.iter().map(|p| (p.name.clone(), p.metrics.clone())).collect()
            };
            assert_eq!(metrics(&front), metrics(&one), "{}", front.dist.label());
            assert_eq!(front.adder_front, one.adder_front);
            assert_eq!(front.multiplier_front, one.multiplier_front);
        }
    }

    #[test]
    fn exact_designs_are_exact_under_every_distribution() {
        let fronts = distribution_fronts(8).unwrap();
        assert_eq!(fronts.len(), InputDistribution::ALL.len());
        for front in &fronts {
            for name in ["CLA8", "CSA8", "SKL8", "CompTree(N=8)", "Wallace(N=8)"] {
                let pt = find(&front.points, name);
                assert_eq!(pt.metrics.error_rate, 0.0, "{name} under {}", front.dist.label());
                assert_eq!(pt.metrics.worst_case_error, 0, "{name}");
            }
        }
    }

    #[test]
    fn sparse_inputs_flatter_the_low_bit_or_adder() {
        // LOA's OR cells only err when both low operand bits are set;
        // SparsePeaked operands are mostly 0 or 2^{w-1}, so its error
        // rate collapses relative to uniform inputs — the whole point of
        // distribution-aware selection.
        let configs = enumerate_distribution_space(8).unwrap();
        let loa = configs.iter().find(|c| c.name() == "LOA8_L3").unwrap();
        let uniform = exact_config_metrics(loa, InputDistribution::Uniform).unwrap();
        let sparse = exact_config_metrics(loa, InputDistribution::SparsePeaked).unwrap();
        assert!(uniform.error_rate > 0.0);
        assert!(
            sparse.error_rate < uniform.error_rate / 2.0,
            "sparse {} vs uniform {}",
            sparse.error_rate,
            uniform.error_rate
        );
    }

    #[test]
    fn fronts_are_nonempty_and_mutually_non_dominated() {
        for front in distribution_fronts(8).unwrap() {
            for (names, family) in
                [(&front.adder_front, Family::Adder), (&front.multiplier_front, Family::Multiplier)]
            {
                assert!(!names.is_empty(), "{:?} front empty under {}", family, front.dist.label());
                let members: Vec<&DistPoint> =
                    names.iter().map(|n| find(&front.points, n)).collect();
                // An exact design anchors the quality end of each front.
                assert!(
                    members.iter().any(|p| p.metrics.mean_error_distance == 0.0),
                    "{:?} front lacks an exact anchor under {}",
                    family,
                    front.dist.label()
                );
                for a in &members {
                    for b in &members {
                        if a.name != b.name {
                            let dominates = a.cost.area_ge <= b.cost.area_ge
                                && a.metrics.mean_error_distance <= b.metrics.mean_error_distance
                                && (a.cost.area_ge < b.cost.area_ge
                                    || a.metrics.mean_error_distance
                                        < b.metrics.mean_error_distance);
                            assert!(!dominates, "{} dominates {} on the front", a.name, b.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mc_metrics_converge_to_exact_pmf_metrics_for_every_distribution() {
        // The ISSUE's convergence property: for every shipped
        // distribution, the Monte-Carlo leg (bit-sliced sweep with the
        // distribution threaded into the operand draw) agrees with the
        // exact PMF-weighted enumeration within sampling tolerance.
        let configs = enumerate_distribution_space(8).unwrap();
        let picks: Vec<&DistConfig> = configs
            .iter()
            .filter(|c| {
                ["LOA8_L3", "OFLOCA8", "CompTree(N=8,ms<16)", "Wallace(N=8,6cols ApxFA5)"]
                    .contains(&c.name())
            })
            .collect();
        assert_eq!(picks.len(), 4, "convergence picks missing from the space");
        let trials = 131_072u64;
        for &dist in &InputDistribution::ALL {
            for config in &picks {
                let exact = exact_config_metrics(config, dist).unwrap();
                let mc = measured_stats(config, dist, trials, 0xD15C0);
                assert_eq!(mc.samples, trials);
                assert!(
                    (mc.error_rate - exact.error_rate).abs() < 0.01,
                    "{} under {}: MC rate {} vs exact {}",
                    config.name(),
                    dist.label(),
                    mc.error_rate,
                    exact.error_rate
                );
                let med_tol = 1.0 + exact.mean_error_distance * 0.1;
                assert!(
                    (mc.mean_error_distance - exact.mean_error_distance).abs() < med_tol,
                    "{} under {}: MC med {} vs exact {}",
                    config.name(),
                    dist.label(),
                    mc.mean_error_distance,
                    exact.mean_error_distance
                );
                // Every drawn operand pair lies in the PMF's support, so
                // the observed worst error never exceeds the proven one.
                assert!(
                    u128::from(mc.max_error_distance) <= exact.worst_case_error,
                    "{} under {}: observed {} above exact WCE {}",
                    config.name(),
                    dist.label(),
                    mc.max_error_distance,
                    exact.worst_case_error
                );
            }
        }
    }

    #[test]
    fn distribution_choice_reorders_the_space() {
        // Non-uniform statistics genuinely change the quality ranking —
        // scores are not a constant rescaling across distributions.
        let configs = enumerate_distribution_space(8).unwrap();
        let loa = configs.iter().find(|c| c.name() == "LOA8_L3").unwrap();
        let ofl = configs.iter().find(|c| c.name() == "OFLOCA8").unwrap();
        // The concrete, load-bearing claim: OFLOCA (constant-LSB) is hit
        // hard by sparse inputs (its forced `11` low bits err on zeros),
        // while LOA (OR cells) is flattered — their gap under
        // SparsePeaked differs from uniform by more than 2x.
        let gap = |d: InputDistribution| {
            let a = exact_config_metrics(loa, d).unwrap().error_rate;
            let b = exact_config_metrics(ofl, d).unwrap().error_rate;
            b - a
        };
        let uniform_gap = gap(InputDistribution::Uniform);
        let sparse_gap = gap(InputDistribution::SparsePeaked);
        assert!(
            (sparse_gap - uniform_gap).abs() > 0.05,
            "sparse gap {sparse_gap} vs uniform gap {uniform_gap}: distributions must matter"
        );
    }
}
