//! The approximation management unit (Section 6).
//!
//! In a multi-accelerator architecture, "for a set of concurrently
//! executing applications, an appropriate set of accelerators and their
//! approximation modes are selected by the approximation management unit,
//! such that the performance and quality constraints of those applications
//! are met and the overall power is minimized." This module implements
//! that unit over characterized accelerator options:
//!
//! * [`ApproximationManager::select_min_power`] — per-application minimum
//!   power subject to each application's quality bound.
//! * [`ApproximationManager::select_under_power_budget`] — minimize total
//!   quality loss subject to a *global* power budget (exact search over
//!   the option product for the small per-app option counts real
//!   configuration ladders have).
//!
//! # Example
//!
//! ```
//! use xlac_accel::manager::{AcceleratorOption, AppRequest, ApproximationManager};
//! use xlac_accel::config::ApproxMode;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let req = AppRequest {
//!     app: "hevc-me".into(),
//!     max_quality_loss: 0.05,
//!     options: vec![
//!         AcceleratorOption { mode: ApproxMode::Accurate, power_nw: 100.0, quality_loss: 0.0 },
//!         AcceleratorOption { mode: ApproxMode::Medium, power_nw: 60.0, quality_loss: 0.03 },
//!         AcceleratorOption { mode: ApproxMode::Aggressive, power_nw: 35.0, quality_loss: 0.2 },
//!     ],
//! };
//! let picks = ApproximationManager::select_min_power(&[req])?;
//! assert_eq!(picks[0].option.mode, ApproxMode::Medium);
//! # Ok(())
//! # }
//! ```

use crate::config::ApproxMode;
use xlac_core::error::{Result, XlacError};
use xlac_obs::{obs_count, obs_span};

/// One characterized accelerator configuration (a row of the Fig.7
/// characterization output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorOption {
    /// The approximation mode this option deploys.
    pub mode: ApproxMode,
    /// Average power of the accelerator in this mode.
    pub power_nw: f64,
    /// Application-level quality loss of this mode (e.g. relative bit-rate
    /// increase, 1 − SSIM), on a 0..1-ish scale.
    pub quality_loss: f64,
}

/// One application's accelerator request.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRequest {
    /// Application name.
    pub app: String,
    /// Maximum acceptable quality loss.
    pub max_quality_loss: f64,
    /// The available configurations for this application's accelerator.
    pub options: Vec<AcceleratorOption>,
}

/// A selection made by the manager for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionOutcome {
    /// Application name.
    pub app: String,
    /// The chosen configuration.
    pub option: AcceleratorOption,
}

/// The approximation management unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApproximationManager;

impl ApproximationManager {
    /// For each application independently: the minimum-power option whose
    /// quality loss respects the application's bound.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when an application has
    /// no feasible option (its constraint is tighter than even the
    /// accurate mode provides) or [`XlacError::EmptyInput`] for an empty
    /// request set.
    pub fn select_min_power(requests: &[AppRequest]) -> Result<Vec<SelectionOutcome>> {
        let _span = obs_span!("accel.select_min_power");
        if requests.is_empty() {
            return Err(XlacError::EmptyInput("management unit requests"));
        }
        obs_count!("accel.manager.selections", requests.len() as u64);
        requests
            .iter()
            .map(|req| {
                let best = req
                    .options
                    .iter()
                    .filter(|o| o.quality_loss <= req.max_quality_loss)
                    .min_by(|a, b| a.power_nw.total_cmp(&b.power_nw))
                    .ok_or_else(|| {
                        XlacError::InvalidConfiguration(format!(
                            "application '{}' has no option within quality loss {}",
                            req.app, req.max_quality_loss
                        ))
                    })?;
                Ok(SelectionOutcome { app: req.app.clone(), option: *best })
            })
            .collect()
    }

    /// Minimizes total quality loss subject to a global power budget,
    /// while still respecting each application's own quality bound.
    /// Exhaustive over the option product (fine for the ≤4-mode ladders of
    /// real configuration words); ties broken toward lower power.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when no feasible
    /// combination fits the budget, or [`XlacError::EmptyInput`] for an
    /// empty request set.
    pub fn select_under_power_budget(
        requests: &[AppRequest],
        power_budget_nw: f64,
    ) -> Result<Vec<SelectionOutcome>> {
        let _span = obs_span!("accel.select_under_power_budget");
        if requests.is_empty() {
            return Err(XlacError::EmptyInput("management unit requests"));
        }
        obs_count!("accel.manager.selections", requests.len() as u64);
        let feasible: Vec<Vec<&AcceleratorOption>> = requests
            .iter()
            .map(|req| {
                req.options.iter().filter(|o| o.quality_loss <= req.max_quality_loss).collect()
            })
            .collect();
        if feasible.iter().any(Vec::is_empty) {
            return Err(XlacError::InvalidConfiguration(
                "an application has no option meeting its own quality bound".into(),
            ));
        }
        let combos: usize = feasible.iter().map(Vec::len).product();
        obs_count!("accel.manager.combos_examined", combos as u64);
        if combos > 1_000_000 {
            return Err(XlacError::InvalidConfiguration(format!(
                "{combos} combinations exceed the exhaustive search bound"
            )));
        }

        let mut best: Option<(f64, f64, Vec<usize>)> = None; // (loss, power, picks)
        let mut picks = vec![0usize; feasible.len()];
        loop {
            let power: f64 = picks.iter().zip(&feasible).map(|(&i, opts)| opts[i].power_nw).sum();
            if power <= power_budget_nw {
                let loss: f64 =
                    picks.iter().zip(&feasible).map(|(&i, opts)| opts[i].quality_loss).sum();
                let better = match &best {
                    None => true,
                    Some((bl, bp, _)) => {
                        loss < *bl - 1e-12 || ((loss - *bl).abs() <= 1e-12 && power < *bp)
                    }
                };
                if better {
                    best = Some((loss, power, picks.clone()));
                }
            }
            // Odometer increment.
            let mut level = 0;
            loop {
                if level == picks.len() {
                    let (_, _, chosen) = best.ok_or_else(|| {
                        XlacError::InvalidConfiguration(format!(
                            "no combination fits the {power_budget_nw} nW budget"
                        ))
                    })?;
                    return Ok(chosen
                        .iter()
                        .zip(requests)
                        .zip(&feasible)
                        .map(|((&i, req), opts)| SelectionOutcome {
                            app: req.app.clone(),
                            option: *opts[i],
                        })
                        .collect());
                }
                picks[level] += 1;
                if picks[level] < feasible[level].len() {
                    break;
                }
                picks[level] = 0;
                level += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder(base_power: f64) -> Vec<AcceleratorOption> {
        vec![
            AcceleratorOption {
                mode: ApproxMode::Accurate,
                power_nw: base_power,
                quality_loss: 0.0,
            },
            AcceleratorOption {
                mode: ApproxMode::Mild,
                power_nw: base_power * 0.8,
                quality_loss: 0.01,
            },
            AcceleratorOption {
                mode: ApproxMode::Medium,
                power_nw: base_power * 0.6,
                quality_loss: 0.04,
            },
            AcceleratorOption {
                mode: ApproxMode::Aggressive,
                power_nw: base_power * 0.35,
                quality_loss: 0.25,
            },
        ]
    }

    fn request(app: &str, bound: f64, base_power: f64) -> AppRequest {
        AppRequest { app: app.into(), max_quality_loss: bound, options: ladder(base_power) }
    }

    #[test]
    fn min_power_respects_quality_bound() {
        let picks =
            ApproximationManager::select_min_power(&[request("video", 0.05, 100.0)]).unwrap();
        assert_eq!(picks[0].option.mode, ApproxMode::Medium);

        let picks =
            ApproximationManager::select_min_power(&[request("audio", 0.5, 100.0)]).unwrap();
        assert_eq!(picks[0].option.mode, ApproxMode::Aggressive);

        let picks =
            ApproximationManager::select_min_power(&[request("control", 0.0, 100.0)]).unwrap();
        assert_eq!(picks[0].option.mode, ApproxMode::Accurate);
    }

    #[test]
    fn infeasible_constraint_is_an_error() {
        let mut req = request("strict", -0.1, 100.0);
        req.options.retain(|o| o.quality_loss > 0.0);
        assert!(ApproximationManager::select_min_power(&[req]).is_err());
        assert!(ApproximationManager::select_min_power(&[]).is_err());
    }

    #[test]
    fn budget_selection_prefers_quality_within_budget() {
        let reqs = [request("a", 1.0, 100.0), request("b", 1.0, 100.0)];
        // Generous budget: both run accurate (zero loss).
        let picks = ApproximationManager::select_under_power_budget(&reqs, 500.0).unwrap();
        assert!(picks.iter().all(|p| p.option.mode == ApproxMode::Accurate));
        // Tight budget: 100 nW total forces aggressive modes (35 + 35).
        let picks = ApproximationManager::select_under_power_budget(&reqs, 100.0).unwrap();
        let total: f64 = picks.iter().map(|p| p.option.power_nw).sum();
        assert!(total <= 100.0);
        // Middle budget: the manager mixes modes to minimize loss.
        let picks = ApproximationManager::select_under_power_budget(&reqs, 150.0).unwrap();
        let total: f64 = picks.iter().map(|p| p.option.power_nw).sum();
        let loss: f64 = picks.iter().map(|p| p.option.quality_loss).sum();
        assert!(total <= 150.0);
        assert!(loss < 0.5, "should avoid double-aggressive if budget allows");
    }

    #[test]
    fn budget_selection_respects_individual_bounds() {
        // App "strict" may not exceed 0.01 loss even under pressure.
        let reqs = [request("strict", 0.01, 100.0), request("lax", 1.0, 100.0)];
        let picks = ApproximationManager::select_under_power_budget(&reqs, 120.0).unwrap();
        let strict = picks.iter().find(|p| p.app == "strict").unwrap();
        assert!(strict.option.quality_loss <= 0.01);
    }

    #[test]
    fn impossible_budget_is_an_error() {
        let reqs = [request("a", 1.0, 100.0)];
        assert!(ApproximationManager::select_under_power_budget(&reqs, 1.0).is_err());
    }

    #[test]
    fn three_apps_exhaustive_search() {
        let reqs = [request("a", 1.0, 100.0), request("b", 0.02, 80.0), request("c", 1.0, 120.0)];
        let picks = ApproximationManager::select_under_power_budget(&reqs, 200.0).unwrap();
        assert_eq!(picks.len(), 3);
        let total: f64 = picks.iter().map(|p| p.option.power_nw).sum();
        assert!(total <= 200.0);
        let b = picks.iter().find(|p| p.app == "b").unwrap();
        assert!(b.option.quality_loss <= 0.02);
    }
}
