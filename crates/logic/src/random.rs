//! Seeded random netlist generation for differential testing.
//!
//! The JIT differential fuzz suite (and the optimizer's own equivalence
//! tests) need arbitrary well-formed netlists exercising the **full gate
//! vocabulary** — including the awkward citizens: `Buf` chains, `Mux2`
//! cells, constant fanins, inputs wired straight to outputs, and outputs
//! that are constants. This module generates them deterministically from
//! a seed, with bounded gate count, logic depth and fan-in, so a failing
//! case reproduces from its seed alone.
//!
//! # Example
//!
//! ```
//! use xlac_logic::random::{random_netlist, RandomNetlistSpec};
//!
//! let spec = RandomNetlistSpec::default();
//! let a = random_netlist(42, &spec);
//! let b = random_netlist(42, &spec);
//! // Deterministic: the same seed yields the same netlist.
//! assert_eq!(a.eval(0b1011), b.eval(0b1011));
//! assert!(a.gate_count() <= spec.max_gates);
//! ```

use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder, Signal};
use xlac_core::rng::{DefaultRng, Rng};

/// Shape bounds for [`random_netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomNetlistSpec {
    /// Inclusive range of primary-input counts.
    pub min_inputs: usize,
    /// Inclusive upper bound of primary-input counts.
    pub max_inputs: usize,
    /// Maximum number of gates (the drawn count is `1..=max_gates`).
    pub max_gates: usize,
    /// Maximum logic depth: a gate's fanin only draws from signals whose
    /// depth is strictly below this bound, so no path through the DAG
    /// exceeds `max_depth` gates.
    pub max_depth: usize,
    /// Maximum number of primary outputs (the drawn count is
    /// `1..=max_outputs`; outputs may repeat signals and may be inputs or
    /// constants).
    pub max_outputs: usize,
}

impl Default for RandomNetlistSpec {
    fn default() -> Self {
        RandomNetlistSpec {
            min_inputs: 2,
            max_inputs: 8,
            max_gates: 48,
            max_depth: 12,
            max_outputs: 6,
        }
    }
}

/// Generates one random netlist from `seed` within the `spec` bounds.
///
/// Every [`GateKind`] (including `Buf` and `Mux2`) appears with equal
/// probability; fanins draw uniformly from the growing signal pool of
/// primary inputs, both constants and previously created gates, subject
/// to the depth bound.
///
/// # Panics
///
/// Panics when the spec is degenerate (`min_inputs > max_inputs`, a zero
/// `max_gates`/`max_depth`/`max_outputs`, or `min_inputs == 0`).
#[must_use]
pub fn random_netlist(seed: u64, spec: &RandomNetlistSpec) -> Netlist {
    assert!(spec.min_inputs >= 1 && spec.min_inputs <= spec.max_inputs, "bad input range");
    assert!(spec.max_gates >= 1 && spec.max_depth >= 1 && spec.max_outputs >= 1, "bad bounds");
    let mut rng = DefaultRng::seed_from_u64(seed);
    let n_inputs = rng.gen_range(spec.min_inputs..=spec.max_inputs);
    let mut b = NetlistBuilder::new(format!("fuzz_{seed:08x}"), n_inputs);

    // The signal pool with each entry's logic depth (inputs and constants
    // sit at depth 0).
    let mut pool: Vec<(Signal, usize)> = (0..n_inputs).map(|i| (Signal::Input(i), 0)).collect();
    pool.push((b.constant(false), 0));
    pool.push((b.constant(true), 0));

    let n_gates = rng.gen_range(1..=spec.max_gates);
    for _ in 0..n_gates {
        let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
        // Draw fanins under the depth bound; the bound always admits at
        // least the depth-0 inputs/constants.
        let eligible: Vec<usize> =
            (0..pool.len()).filter(|&i| pool[i].1 < spec.max_depth).collect();
        let mut depth = 0usize;
        let fanin: Vec<Signal> = (0..kind.arity())
            .map(|_| {
                let (s, d) = pool[eligible[rng.gen_range(0..eligible.len())]];
                depth = depth.max(d + 1);
                s
            })
            .collect();
        pool.push((b.gate(kind, &fanin), depth));
    }

    for _ in 0..rng.gen_range(1..=spec.max_outputs) {
        let (s, _) = pool[rng.gen_range(0..pool.len())];
        b.output(s);
    }
    b.finish().expect("at least one output was declared")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = RandomNetlistSpec::default();
        for seed in 0..20 {
            let a = random_netlist(seed, &spec);
            let b = random_netlist(seed, &spec);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn bounds_are_respected() {
        let spec = RandomNetlistSpec {
            min_inputs: 3,
            max_inputs: 5,
            max_gates: 10,
            max_depth: 4,
            max_outputs: 2,
        };
        for seed in 0..50 {
            let nl = random_netlist(seed, &spec);
            assert!((3..=5).contains(&nl.n_inputs()), "seed {seed}");
            assert!(nl.gate_count() >= 1 && nl.gate_count() <= 10, "seed {seed}");
            assert!((1..=2).contains(&nl.n_outputs()), "seed {seed}");
            // Depth bound: recompute per-gate depth over the DAG.
            let mut depths: Vec<usize> = Vec::new();
            for (_, fanin) in nl.gates() {
                let d = fanin
                    .iter()
                    .map(|s| match s {
                        Signal::Gate(g) => depths[*g] + 1,
                        _ => 1,
                    })
                    .max()
                    .unwrap_or(1);
                assert!(d <= 4, "seed {seed}: depth {d}");
                depths.push(d);
            }
        }
    }

    #[test]
    fn the_full_gate_vocabulary_appears() {
        // Across a modest seed range every gate kind must be exercised —
        // the property that makes the fuzz suite's coverage claim honest.
        let spec = RandomNetlistSpec::default();
        let mut seen = [false; GateKind::ALL.len()];
        for seed in 0..100 {
            for (kind, _) in random_netlist(seed, &spec).gates() {
                let idx = GateKind::ALL.iter().position(|&k| k == kind).unwrap();
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "missing kinds: {seen:?}");
    }
}
