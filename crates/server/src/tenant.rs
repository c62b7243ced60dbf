//! Per-tenant quality control: monitoring, drift correction and error
//! budgets (DESIGN.md §15.4).
//!
//! Every `(tenant, kernel)` pair owns one [`TenantKernelState`] — the
//! software analogue of the paper's run-time control plane:
//!
//! * a sampling [`QualityMonitor`] (§6.2): every `sample_every`-th
//!   request with at least one item re-executes its first item exactly
//!   and feeds the observed error into a sliding window; `Tighten`
//!   decisions step the served configuration toward exact, `Relax`
//!   decisions step it back toward the manager's certified pick (never
//!   beyond it);
//! * a signed **drift ledger** modelled on the CEC unit's accumulate-
//!   then-compensate discipline: sampled signed errors (scaled by the
//!   sampling period) accumulate; when the magnitude crosses the
//!   capacity the state serves exact configurations while the ledger
//!   drains, exactly like the CEC injecting its stored compensation;
//! * a windowed **error budget**: each reply is charged `items ×
//!   med_bound(config)`; when a window's spend crosses the budget the
//!   tenant *degrades to exact* (it is never dropped) until the window
//!   rolls over.
//!
//! Every transition depends only on the tenant's own request order, so
//! replies are bit-identical at any shard count (requests of one tenant
//! always land on one shard, in connection order, and only the reader
//! holding that shard's claim decides them).

use std::collections::HashMap;

use xlac_accel::monitor::{MonitorDecision, QualityMonitor};

use crate::proto::Kernel;

/// Quality-control policy applied to every tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantPolicy {
    /// MED budget per accounting window; [`f64::INFINITY`] disables
    /// budget accounting.
    pub budget_med_per_window: f64,
    /// Number of workload items per accounting window.
    pub window_items: u64,
    /// Sampling period of the quality monitor (1 = every request).
    pub sample_every: u64,
    /// Sliding-window length of the quality monitor.
    pub monitor_window: usize,
    /// Drift-ledger capacity before exact correction kicks in, in
    /// kernel output units.
    pub cec_capacity: f64,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            budget_med_per_window: f64::INFINITY,
            window_items: 1 << 20,
            sample_every: 16,
            monitor_window: 16,
            cec_capacity: 1e9,
        }
    }
}

/// What the control plane decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlDecision {
    /// The ladder index to serve.
    pub config: usize,
    /// `true` when the first item must also be computed exactly and
    /// reported back via [`TenantKernelState::record_sample`].
    pub sample: bool,
    /// `true` when budget exhaustion or drift correction forced the
    /// exact configuration.
    pub exact_forced: bool,
}

/// Control state for one `(tenant, kernel)` pair.
pub struct TenantKernelState {
    policy: TenantPolicy,
    monitor: QualityMonitor,
    /// The `max_med` the monitor's tolerance was built from; a request
    /// with a different target rebuilds the monitor deterministically.
    monitor_med: f64,
    /// Steps from the manager's pick toward exact (never negative).
    tighten: usize,
    /// Signed accumulated drift (approx − exact, scaled by the sampling
    /// period) — the CEC analogue.
    ledger: f64,
    /// `true` while drift correction serves exact and drains the ledger.
    correcting: bool,
    window_spent: f64,
    window_items: u64,
    exhausted: bool,
}

impl TenantKernelState {
    fn new(policy: TenantPolicy, max_med: f64) -> Self {
        TenantKernelState {
            policy,
            monitor: Self::make_monitor(&policy, max_med),
            monitor_med: max_med,
            tighten: 0,
            ledger: 0.0,
            correcting: false,
            window_spent: 0.0,
            window_items: 0,
            exhausted: false,
        }
    }

    fn make_monitor(policy: &TenantPolicy, max_med: f64) -> QualityMonitor {
        QualityMonitor::new(policy.sample_every, policy.monitor_window, max_med.max(0.0))
    }

    /// Decides the configuration for one request: starts from the
    /// manager's certified pick `base`, applies the monitor's tighten
    /// offset, then the drift-correction and budget overrides.
    pub fn decide(&mut self, base: usize, max_med: f64, items: usize) -> ControlDecision {
        if max_med != self.monitor_med {
            self.monitor = Self::make_monitor(&self.policy, max_med);
            self.monitor_med = max_med;
            self.tighten = 0;
        }
        let mut config = base.saturating_sub(self.tighten);
        let mut exact_forced = false;
        if self.correcting {
            // Drain the ledger toward zero while serving exact, like the
            // CEC injecting its stored compensation (saturating at 0).
            config = 0;
            exact_forced = true;
            let step = self.policy.cec_capacity / 8.0;
            self.ledger = if self.ledger > 0.0 {
                (self.ledger - step).max(0.0)
            } else {
                (self.ledger + step).min(0.0)
            };
            if self.ledger.abs() <= self.policy.cec_capacity / 2.0 {
                self.correcting = false;
            }
        }
        if self.exhausted {
            config = 0;
            exact_forced = true;
        }
        // Items==0 requests skip the monitor so the sampling cadence is a
        // pure function of the tenant's workload-bearing request order.
        let sample = items > 0 && config != 0 && self.monitor.should_sample();
        if items > 0 && !sample {
            self.monitor.skip();
        }
        ControlDecision { config, sample, exact_forced }
    }

    /// Feeds one sampled `(approximate, exact)` observation back (signed
    /// values so FIR/DCT drift accumulates with direction), then acts on
    /// the monitor's recommendation.
    pub fn record_sample(&mut self, approx: i64, exact: i64) {
        let err = approx.abs_diff(exact);
        self.monitor.observe(err, 0);
        let signed = approx as f64 - exact as f64;
        self.ledger += signed * self.policy.sample_every as f64;
        if self.ledger.abs() >= self.policy.cec_capacity {
            self.correcting = true;
        }
        match self.monitor.decision() {
            MonitorDecision::TightenAccuracy => {
                self.tighten += 1;
                self.monitor.note_mode_switch();
                self.monitor.reset_window();
            }
            MonitorDecision::RelaxAccuracy if self.tighten > 0 => {
                self.tighten -= 1;
                self.monitor.note_mode_switch();
                self.monitor.reset_window();
            }
            _ => {}
        }
    }

    /// Charges the served request against the tenant's window budget:
    /// `items × med_bound` (the certified per-item cost of the served
    /// configuration). Rolls the window when it fills.
    pub fn charge(&mut self, items: usize, med_bound: f64) {
        self.window_spent += med_bound * items as f64;
        self.window_items += items as u64;
        if self.window_spent > self.policy.budget_med_per_window {
            self.exhausted = true;
        }
        if self.window_items >= self.policy.window_items {
            self.window_spent = 0.0;
            self.window_items = 0;
            self.exhausted = false;
        }
    }

    /// `true` while budget exhaustion degrades this pair to exact.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// `true` while drift correction is active.
    #[must_use]
    pub fn is_correcting(&self) -> bool {
        self.correcting
    }

    /// Current tighten offset (steps toward exact).
    #[must_use]
    pub fn tighten_offset(&self) -> usize {
        self.tighten
    }
}

/// All tenant states of one shard. Tenants are sharded by
/// `tenant % workers`, and only the reader holding a shard's claim uses
/// its map, so a map never sees concurrent access.
pub struct ShardTenants {
    policy: TenantPolicy,
    states: HashMap<(u32, Kernel), TenantKernelState>,
}

impl ShardTenants {
    /// Creates an empty shard map under `policy`.
    #[must_use]
    pub fn new(policy: TenantPolicy) -> Self {
        ShardTenants { policy, states: HashMap::new() }
    }

    /// The state for `(tenant, kernel)`, created on first use with the
    /// request's quality target.
    pub fn state(&mut self, tenant: u32, kernel: Kernel, max_med: f64) -> &mut TenantKernelState {
        self.states
            .entry((tenant, kernel))
            .or_insert_with(|| TenantKernelState::new(self.policy, max_med))
    }

    /// Number of live `(tenant, kernel)` states (bounded-memory checks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when no tenant state exists yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> TenantPolicy {
        TenantPolicy {
            budget_med_per_window: 10.0,
            window_items: 8,
            sample_every: 1,
            monitor_window: 4,
            cec_capacity: 100.0,
        }
    }

    #[test]
    fn budget_exhaustion_degrades_to_exact_and_recovers() {
        let mut s = TenantKernelState::new(policy(), 50.0);
        // Serve 4 items at MED bound 5 → spend 20 > 10: exhausted.
        let d = s.decide(3, 50.0, 4);
        assert_eq!(d.config, 3);
        s.charge(4, 5.0);
        assert!(s.is_exhausted());
        let d = s.decide(3, 50.0, 2);
        assert_eq!(d.config, 0, "exhausted tenants degrade to exact, not drop");
        assert!(d.exact_forced);
        s.charge(2, 0.0);
        // Window rolls at 8 items; 4 + 2 = 6, two more items roll it.
        let d = s.decide(3, 50.0, 2);
        assert_eq!(d.config, 0);
        s.charge(2, 0.0);
        assert!(!s.is_exhausted(), "window rollover clears exhaustion");
        assert_eq!(s.decide(3, 50.0, 1).config, 3);
    }

    #[test]
    fn sustained_error_tightens_then_relaxes() {
        // Large ledger capacity: isolate the monitor's tighten path from
        // drift correction (which would otherwise trip first and force
        // exact serving, suppressing sampling).
        let mut s = TenantKernelState::new(TenantPolicy { cec_capacity: 1e9, ..policy() }, 10.0);
        // Persistent large signed error: monitor must tighten.
        for _ in 0..8 {
            let d = s.decide(3, 10.0, 1);
            if d.sample {
                s.record_sample(100, 0); // error 100 ≫ tolerance 10
            }
            s.charge(1, 0.0);
            if s.tighten_offset() > 0 {
                break;
            }
        }
        assert!(s.tighten_offset() > 0, "monitor never tightened");
        let tightened = s.decide(3, 10.0, 1);
        assert!(tightened.config < 3);
    }

    #[test]
    fn drift_ledger_forces_exact_until_drained() {
        let mut s = TenantKernelState::new(policy(), 1e6);
        // One huge signed sample blows the 100.0 capacity (×1 period).
        let d = s.decide(2, 1e6, 1);
        assert!(d.sample);
        s.record_sample(500, 0);
        assert!(s.is_correcting());
        // Correction serves exact and drains capacity/8 = 12.5 per
        // request; from 500 down to ≤ 50 takes 36 requests.
        let mut exact_served = 0;
        while s.is_correcting() {
            let d = s.decide(2, 1e6, 1);
            assert_eq!(d.config, 0);
            assert!(d.exact_forced);
            exact_served += 1;
            assert!(exact_served < 100, "ledger never drained");
        }
        assert_eq!(exact_served, 36);
    }

    #[test]
    fn decisions_are_a_pure_function_of_request_order() {
        let run = || {
            let mut s = TenantKernelState::new(policy(), 20.0);
            let mut trace = Vec::new();
            for i in 0..50usize {
                let d = s.decide(3, 20.0, 1 + i % 3);
                if d.sample {
                    s.record_sample((i as i64 * 7) % 40, 0);
                }
                s.charge(1 + i % 3, 2.0);
                trace.push((d.config, d.sample, d.exact_forced));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retargeting_rebuilds_the_monitor() {
        let mut s = TenantKernelState::new(policy(), 10.0);
        let d = s.decide(2, 10.0, 1);
        if d.sample {
            s.record_sample(9, 0);
        }
        // New quality target: fresh monitor, offset reset.
        let d = s.decide(2, 99.0, 1);
        assert_eq!(d.config, 2);
        assert_eq!(s.tighten_offset(), 0);
    }
}
