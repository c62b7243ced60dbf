//! Enumeration of the GeAr `(R, P)` configuration space (Table IV).
//!
//! For an `N`-bit GeAr adder, a configuration is valid when `R ≥ 1`,
//! `P ≥ 0`, `R + P ≤ N` and `(N − R − P)` is a multiple of `R`. Each point
//! is scored with the **analytical error model** (no simulation — the
//! paper's selling point) and the LUT area model.
//!
//! # Example
//!
//! ```
//! use xlac_explore::gear_space::enumerate_gear_space;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let space = enumerate_gear_space(11)?;
//! // Multi-sub-adder points only (k = 1 would be an exact adder).
//! assert!(space.iter().all(|pt| pt.sub_adders >= 2));
//! # Ok(())
//! # }
//! ```

use xlac_adders::hw::{gear_netlist, ripple_netlist};
use xlac_adders::{Adder, GeArAdder, GearErrorModel, RippleCarryAdder};
use xlac_analysis::symbolic::exhaustive_metrics;
use xlac_core::error::Result;
use xlac_obs::{obs_count, obs_span};

/// One scored GeAr configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GearDesignPoint {
    /// Operand width.
    pub n: usize,
    /// Result bits per sub-adder.
    pub r: usize,
    /// Prediction bits per sub-adder.
    pub p: usize,
    /// Number of sub-adders.
    pub sub_adders: usize,
    /// Accuracy percentage from the exact analytical error model.
    pub accuracy_percent: f64,
    /// FPGA area in LUTs (the Table IV area model).
    pub lut_area: usize,
    /// Normalized ASIC delay (one sub-adder ripple chain).
    pub delay: f64,
    /// Static worst-case error bound from `xlac-analysis` (a sound
    /// ceiling on any error the adder can produce).
    pub wce_bound: u64,
    /// The *exact* worst-case error from exhaustive enumeration, where
    /// the width permits (`2n ≤ 16` input bits); `None` for the
    /// wider Table IV geometries, which keep the analytic bound.
    pub wce_exact: Option<u64>,
    /// Static bound on the mean error distance under uniform inputs.
    pub mean_error_bound: f64,
}

impl GearDesignPoint {
    /// The sharpest available worst-case ceiling: the proven exact WCE
    /// when exhaustive enumeration reached this width, the analytic bound
    /// otherwise. Always sound, so selections on it are safe.
    #[must_use]
    pub fn wce_ceiling(&self) -> u64 {
        self.wce_exact.unwrap_or(self.wce_bound)
    }

    /// A short label like `"R1P9"` (the Table IV row naming).
    #[must_use]
    pub fn label(&self) -> String {
        format!("R{}P{}", self.r, self.p)
    }

    /// Reconstructs the adder for this point.
    ///
    /// # Errors
    ///
    /// Never fails for points produced by [`enumerate_gear_space`].
    pub fn adder(&self) -> Result<GeArAdder> {
        GeArAdder::new(self.n, self.r, self.p)
    }
}

/// The provable worst-case error of the plain (uncorrected) GeAr adder,
/// by exhaustive compiled enumeration of its netlist against the accurate
/// ripple adder, for geometries whose `2n` input bits stay within exact
/// reach.
fn exact_gear_wce(gear: &GeArAdder) -> Option<u64> {
    let n = gear.n();
    if 2 * n > 16 {
        return None;
    }
    let exact = ripple_netlist(&RippleCarryAdder::accurate(n));
    let wce = exhaustive_metrics(&gear_netlist(gear), &exact).ok()?.worst_case_error;
    // An n-bit adder's error always fits u64 for the widths the engine
    // reaches (2n ≤ 16), but convert checked: an out-of-range value
    // degrades to "no exact proof" (the sound analytic bound stays in
    // force) instead of panicking mid-enumeration.
    u64::try_from(wce).ok()
}

/// Enumerates and scores every valid multi-sub-adder `(R, P)` point for an
/// `N`-bit GeAr adder, ordered by `(R, P)`.
///
/// Configurations with a single sub-adder (`L = N`) are excluded — they
/// are exact adders, not approximate designs (the paper's Table IV also
/// omits them).
///
/// # Errors
///
/// Propagates invalid-width errors from the adder constructor.
pub fn enumerate_gear_space(n: usize) -> Result<Vec<GearDesignPoint>> {
    let _span = obs_span!("explore.gear_space");
    let mut points = Vec::new();
    for r in 1..n {
        for p in 0..n {
            let l = r + p;
            if l >= n || !(n - l).is_multiple_of(r) {
                continue;
            }
            let gear = GeArAdder::new(n, r, p)?;
            let model = GearErrorModel::for_adder(&gear);
            points.push(GearDesignPoint {
                n,
                r,
                p,
                sub_adders: gear.sub_adder_count(),
                accuracy_percent: (1.0 - model.exact()) * 100.0,
                lut_area: gear.lut_area(),
                delay: gear.hw_cost().delay,
                wce_bound: gear.worst_case_error(),
                wce_exact: exact_gear_wce(&gear),
                mean_error_bound: model.mean_error_distance(),
            });
        }
    }
    obs_count!("explore.gear.configs", points.len() as u64);
    Ok(points)
}

/// A GeAr design point paired with Monte-Carlo-measured error statistics
/// from the bit-sliced simulation engine.
#[derive(Debug, Clone)]
pub struct MeasuredGearPoint {
    /// The analytically scored design point.
    pub point: GearDesignPoint,
    /// Measured accuracy percentage: `100 · (1 − error rate)` over the
    /// sweep — the empirical counterpart of
    /// [`GearDesignPoint::accuracy_percent`].
    pub measured_accuracy_percent: f64,
    /// Full measured error statistics.
    pub stats: xlac_core::metrics::ErrorStats,
}

/// Measures every point of [`enumerate_gear_space`] with a Monte-Carlo
/// sweep on the bit-sliced engine (`xlac-sim`): `trials` uniform operand
/// pairs per point, split deterministically across `threads` workers
/// (`0` → auto). Results are bitwise-identical for any thread count.
///
/// This is the simulation-backed validation of the Table IV analytical
/// accuracy column: `measured_accuracy_percent` converges on
/// `accuracy_percent` as `trials` grows.
///
/// # Errors
///
/// Propagates invalid-width errors from the adder constructor.
pub fn measure_gear_space(
    n: usize,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Result<Vec<MeasuredGearPoint>> {
    let _span = obs_span!("explore.gear_measure");
    enumerate_gear_space(n)?
        .into_iter()
        .map(|point| {
            obs_count!("explore.gear.mc_trials", trials);
            let adder = point.adder()?;
            let opts = xlac_sim::SweepOptions::new(trials, seed).threads(threads);
            let stats = xlac_sim::gear_sweep(&adder, None, &opts).stats;
            Ok(MeasuredGearPoint {
                measured_accuracy_percent: 100.0 * (1.0 - stats.error_rate),
                point,
                stats,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_bit_space_matches_table_iv_structure() {
        let space = enumerate_gear_space(11).unwrap();
        // Every point validates and is unique.
        let mut labels: Vec<String> = space.iter().map(GearDesignPoint::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), space.len());
        // The text's flagship points exist.
        assert!(space.iter().any(|pt| pt.r == 1 && pt.p == 9));
        assert!(space.iter().any(|pt| pt.r == 3 && pt.p == 5));
        // R = 1 admits every P in 0..=9 (N−1−P always divisible by 1).
        let r1_count = space.iter().filter(|pt| pt.r == 1).count();
        assert_eq!(r1_count, 10);
    }

    #[test]
    fn accuracy_increases_with_p_at_fixed_r() {
        let space = enumerate_gear_space(11).unwrap();
        for r in 1..=3usize {
            let mut points: Vec<&GearDesignPoint> = space.iter().filter(|pt| pt.r == r).collect();
            points.sort_by_key(|pt| pt.p);
            for pair in points.windows(2) {
                assert!(
                    pair[1].accuracy_percent >= pair[0].accuracy_percent - 1e-9,
                    "R{r}: accuracy fell from P{} to P{}",
                    pair[0].p,
                    pair[1].p
                );
            }
        }
    }

    #[test]
    fn exact_wce_is_proven_and_sharp_at_eight_bits() {
        let space = enumerate_gear_space(8).unwrap();
        for pt in &space {
            let exact = pt.wce_exact.expect("8-bit GeAr is within exact reach");
            assert!(
                exact <= pt.wce_bound,
                "{}: exact {exact} above the analytic bound {}",
                pt.label(),
                pt.wce_bound
            );
            assert_eq!(pt.wce_ceiling(), exact);
            // The analytic formula is attained exactly for P = 0.
            if pt.p == 0 {
                assert_eq!(exact, pt.wce_bound, "{}: P=0 bound is tight", pt.label());
            }
        }
        // Prediction bits make the formula conservative somewhere.
        assert!(
            space.iter().any(|pt| pt.wce_exact.unwrap() < pt.wce_bound),
            "some P > 0 geometry must beat its analytic ceiling"
        );
    }

    #[test]
    fn wide_geometries_keep_the_analytic_bound() {
        let space = enumerate_gear_space(11).unwrap();
        for pt in &space {
            assert!(pt.wce_exact.is_none(), "{}: 22-input BDD not attempted", pt.label());
            assert_eq!(pt.wce_ceiling(), pt.wce_bound);
        }
    }

    #[test]
    fn accuracy_model_matches_simulation_on_a_sample() {
        let space = enumerate_gear_space(8).unwrap();
        for pt in &space {
            let model = GearErrorModel::for_adder(&pt.adder().unwrap());
            let truth = (1.0 - model.exhaustive()) * 100.0;
            assert!(
                (pt.accuracy_percent - truth).abs() < 1e-6,
                "{}: {} vs {}",
                pt.label(),
                pt.accuracy_percent,
                truth
            );
        }
    }

    #[test]
    fn measured_space_tracks_the_analytical_model() {
        let measured = measure_gear_space(8, 20_000, 0x6EA5, 0).unwrap();
        assert_eq!(measured.len(), enumerate_gear_space(8).unwrap().len());
        for m in &measured {
            assert_eq!(m.stats.samples, 20_000);
            // The analytical accuracy model is exact; 20k uniform trials
            // land within a few percentage points of it.
            assert!(
                (m.measured_accuracy_percent - m.point.accuracy_percent).abs() < 3.0,
                "{}: measured {} vs model {}",
                m.point.label(),
                m.measured_accuracy_percent,
                m.point.accuracy_percent
            );
        }
    }

    #[test]
    fn measured_space_is_thread_count_invariant() {
        let one = measure_gear_space(8, 4_096, 7, 1).unwrap();
        let eight = measure_gear_space(8, 4_096, 7, 8).unwrap();
        for (a, b) in one.iter().zip(&eight) {
            assert_eq!(a.stats, b.stats, "{}", a.point.label());
        }
    }

    #[test]
    fn lut_area_reflects_total_sub_adder_width() {
        // Area = k·L: overlap (P > 0) always costs more LUTs than a plain
        // N-bit chain, and the model is internally consistent.
        let space = enumerate_gear_space(11).unwrap();
        for pt in &space {
            assert_eq!(pt.lut_area, pt.sub_adders * (pt.r + pt.p));
            if pt.p > 0 {
                assert!(pt.lut_area > pt.n, "{}: overlap must cost extra", pt.label());
            }
        }
        // Disjoint blocks (P = 0) cost exactly N LUTs.
        for pt in space.iter().filter(|pt| pt.p == 0) {
            assert_eq!(pt.lut_area, pt.n, "{}", pt.label());
        }
    }

    #[test]
    fn excludes_exact_single_sub_adder_points() {
        for n in [8usize, 11, 16] {
            let space = enumerate_gear_space(n).unwrap();
            assert!(space.iter().all(|pt| pt.sub_adders >= 2), "N={n}");
            assert!(space.iter().all(|pt| pt.accuracy_percent < 100.0), "N={n}");
        }
    }

    #[test]
    fn static_bounds_are_sound_for_eight_bit_points() {
        // Exhaustively confirm the static WCE ceiling on every 8-bit point.
        let space = enumerate_gear_space(8).unwrap();
        for pt in &space {
            let gear = pt.adder().unwrap();
            let mut observed_max = 0u64;
            for a in 0..256u64 {
                for b in 0..256u64 {
                    let approx = Adder::add(&gear, a, b);
                    observed_max = observed_max.max((a + b).abs_diff(approx));
                }
            }
            assert!(
                observed_max <= pt.wce_bound,
                "{}: observed {observed_max} > bound {}",
                pt.label(),
                pt.wce_bound
            );
            assert!(pt.mean_error_bound >= 0.0, "{}", pt.label());
            // Exact points (none exist here, but keep the invariant honest):
            if pt.wce_bound == 0 {
                assert!((pt.accuracy_percent - 100.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn labels() {
        let space = enumerate_gear_space(11).unwrap();
        let pt = space.iter().find(|pt| pt.r == 3 && pt.p == 5).unwrap();
        assert_eq!(pt.label(), "R3P5");
    }
}
