//! Truth-table synthesis: specification → minimized SOP → gate netlist.
//!
//! This is the workspace's stand-in for the paper's Synopsys DC step: every
//! cell (Table III adders, Fig.5 multipliers) can be pushed through
//! [`synthesize`] to obtain a gate netlist whose area/power/delay are then
//! measured by [`characterize`] — structural area from the cell library,
//! critical path from the longest weighted path, and power from toggle
//! counting under random vectors (the VCD/SAIF methodology).
//!
//! Synthesis is two-level (AND-OR with shared input inverters). Cells whose
//! published structure is XOR-rich (e.g. the accurate mirror adder) can be
//! built structurally with [`crate::NetlistBuilder`] instead and compared
//! through the same [`characterize`] — see `xlac-adders::full_adder`.
//!
//! # Example
//!
//! ```
//! use xlac_logic::truth_table::TruthTable;
//! use xlac_logic::synth::synthesize;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let and3 = TruthTable::from_fn(3, 1, |x| u64::from(x == 0b111));
//! let nl = synthesize("and3", &and3)?;
//! // The synthesized netlist reproduces the table exactly.
//! for x in 0..8 {
//!     assert_eq!(nl.eval(x), and3.row(x));
//! }
//! # Ok(())
//! # }
//! ```

use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder, Signal};
use crate::qm::{minimize, Implicant};
use crate::truth_table::TruthTable;
use xlac_core::characterization::HwCost;
use xlac_core::error::Result;

/// Synthesizes a (multi-output) truth table into a two-level AND-OR netlist
/// with shared input inverters, minimizing each output with
/// Quine–McCluskey.
///
/// Identical product terms are shared across outputs. Outputs that reduce
/// to a constant or a single literal become pure wiring (zero gates), which
/// is how the paper's `ApxFA5` ends up with zero area.
///
/// # Errors
///
/// Propagates netlist construction failures (cannot occur for valid
/// tables; kept for API uniformity).
pub fn synthesize(name: &str, table: &TruthTable) -> Result<Netlist> {
    let n = table.n_inputs();
    let mut b = NetlistBuilder::new(name, n);

    // Lazily created shared inverters, one per input.
    let mut inverters: Vec<Option<Signal>> = vec![None; n];
    // Shared product terms across outputs.
    let mut products: Vec<(Implicant, Signal)> = Vec::new();

    let mut output_signals = Vec::with_capacity(table.n_outputs());
    for out in 0..table.n_outputs() {
        let minterms: Vec<u64> = table.minterms(out).collect();
        let cover = minimize(n, &minterms);
        let signal = build_cover(&mut b, &cover, &mut inverters, &mut products);
        output_signals.push(signal);
    }
    for s in output_signals {
        b.output(s);
    }
    b.finish()
}

fn build_cover(
    b: &mut NetlistBuilder,
    cover: &[Implicant],
    inverters: &mut [Option<Signal>],
    products: &mut Vec<(Implicant, Signal)>,
) -> Signal {
    if cover.is_empty() {
        return b.constant(false);
    }
    let term_signals: Vec<Signal> = cover
        .iter()
        .map(|imp| {
            if let Some((_, s)) = products.iter().find(|(p, _)| p == imp) {
                return *s;
            }
            let s = build_product(b, *imp, inverters);
            products.push((*imp, s));
            s
        })
        .collect();
    b.tree(GateKind::Or2, &term_signals)
}

fn build_product(
    b: &mut NetlistBuilder,
    imp: Implicant,
    inverters: &mut [Option<Signal>],
) -> Signal {
    let mut literals: Vec<Signal> = Vec::new();
    for (i, inverter) in inverters.iter_mut().enumerate() {
        if (imp.mask >> i) & 1 == 1 {
            continue;
        }
        let sig = if (imp.value >> i) & 1 == 1 {
            b.input(i)
        } else {
            *inverter.get_or_insert_with(|| {
                let inp = Signal::Input(i);
                b.gate(GateKind::Not, &[inp])
            })
        };
        literals.push(sig);
    }
    if literals.is_empty() {
        b.constant(true)
    } else {
        b.tree(GateKind::And2, &literals)
    }
}

/// Characterizes a netlist: structural area, critical-path delay, and
/// toggle-counted power under `vectors` random vectors (seeded for
/// determinism).
///
/// # Panics
///
/// Panics if `vectors < 2`.
#[must_use]
pub fn characterize(netlist: &Netlist, vectors: usize, seed: u64) -> HwCost {
    HwCost {
        area_ge: netlist.area_ge(),
        power_nw: netlist.switching_power(vectors, seed),
        delay: netlist.delay(),
    }
}

/// Verifies a netlist against its specification table on **every** input
/// combination, returning the number of mismatching rows (0 ⇔ equivalent).
///
/// This is the workspace's ModelSim-style functional verification step.
///
/// # Panics
///
/// Panics if the netlist I/O counts differ from the table's.
#[must_use]
pub fn verify_against(netlist: &Netlist, table: &TruthTable) -> usize {
    assert_eq!(netlist.n_inputs(), table.n_inputs(), "input count mismatch");
    assert_eq!(netlist.n_outputs(), table.n_outputs(), "output count mismatch");
    (0..table.n_rows() as u64).filter(|&x| netlist.eval(x) != table.row(x)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fa_table() -> TruthTable {
        TruthTable::from_fn(3, 2, |x| {
            let ones = (x & 1) + ((x >> 1) & 1) + ((x >> 2) & 1);
            (ones & 1) | (u64::from(ones >= 2) << 1)
        })
    }

    #[test]
    fn synthesized_full_adder_is_equivalent() {
        let tt = fa_table();
        let nl = synthesize("fa", &tt).unwrap();
        assert_eq!(verify_against(&nl, &tt), 0);
    }

    #[test]
    fn constant_zero_output() {
        let tt = TruthTable::from_fn(2, 1, |_| 0);
        let nl = synthesize("zero", &tt).unwrap();
        assert_eq!(nl.gate_count(), 0);
        for x in 0..4 {
            assert_eq!(nl.eval(x), 0);
        }
    }

    #[test]
    fn constant_one_output() {
        let tt = TruthTable::from_fn(2, 1, |_| 1);
        let nl = synthesize("one", &tt).unwrap();
        assert_eq!(nl.gate_count(), 0);
        for x in 0..4 {
            assert_eq!(nl.eval(x), 1);
        }
    }

    #[test]
    fn wire_output_costs_nothing() {
        // f(a, b) = b: reduces to a single positive literal → pure wiring.
        let tt = TruthTable::from_fn(2, 1, |x| (x >> 1) & 1);
        let nl = synthesize("wire", &tt).unwrap();
        assert_eq!(nl.gate_count(), 0);
        assert_eq!(nl.area_ge(), 0.0);
        assert_eq!(verify_against(&nl, &tt), 0);
    }

    #[test]
    fn single_inverter_output() {
        let tt = TruthTable::from_fn(1, 1, |x| 1 - x);
        let nl = synthesize("inv", &tt).unwrap();
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.count_of(GateKind::Not), 1);
        assert_eq!(verify_against(&nl, &tt), 0);
    }

    #[test]
    fn inverters_are_shared_across_terms() {
        // f = a'b + a'c: a' must be instantiated once.
        let tt = TruthTable::from_fn(3, 1, |x| {
            let (a, b, c) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            (1 - a) & (b | c)
        });
        let nl = synthesize("shared", &tt).unwrap();
        assert_eq!(verify_against(&nl, &tt), 0);
        assert_eq!(nl.count_of(GateKind::Not), 1);
    }

    #[test]
    fn products_shared_across_outputs() {
        // Both outputs equal a·b: one AND gate total.
        let tt = TruthTable::from_fn(2, 2, |x| {
            let ab = u64::from(x == 0b11);
            ab | (ab << 1)
        });
        let nl = synthesize("dup", &tt).unwrap();
        assert_eq!(verify_against(&nl, &tt), 0);
        assert_eq!(nl.count_of(GateKind::And2), 1);
    }

    #[test]
    fn every_random_table_synthesizes_equivalently() {
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(5);
        for n in 1..=5usize {
            for outs in 1..=3usize {
                let rows: Vec<u64> =
                    (0..(1u64 << n)).map(|_| rng.gen::<u64>() & ((1 << outs) - 1)).collect();
                let tt = TruthTable::from_rows(n, outs, rows).unwrap();
                let nl = synthesize("rand", &tt).unwrap();
                assert_eq!(verify_against(&nl, &tt), 0, "n={n} outs={outs}");
            }
        }
    }

    #[test]
    fn simpler_logic_synthesizes_smaller() {
        // The whole premise of Table III: approximating the cell shrinks it.
        let accurate = fa_table();
        // An "approximate" FA that ties sum to cin and keeps carry exact.
        let approx = TruthTable::from_fn(3, 2, |x| {
            let carry = u64::from((x & 1) + ((x >> 1) & 1) + ((x >> 2) & 1) >= 2);
            ((x >> 2) & 1) | (carry << 1)
        });
        let a = synthesize("acc", &accurate).unwrap();
        let b = synthesize("apx", &approx).unwrap();
        assert!(b.area_ge() < a.area_ge());
        assert!(b.delay() <= a.delay());
    }

    #[test]
    fn characterize_produces_consistent_record() {
        let tt = fa_table();
        let nl = synthesize("fa", &tt).unwrap();
        let cost = characterize(&nl, 2048, 3);
        assert_eq!(cost.area_ge, nl.area_ge());
        assert_eq!(cost.delay, nl.delay());
        assert!(cost.power_nw > 0.0);
    }
}
