//! Combinational equivalence checking.
//!
//! The flow's verification backstop: [`check_equivalence`] compares two
//! netlists exhaustively using the 64-way bit-parallel simulator (64
//! input patterns per sweep), returning the first counterexample when the
//! designs diverge. For the cell and adder sizes in this workspace
//! (≤ ~26 inputs) exhaustive equivalence is fast and, unlike sampling,
//! *complete* — it is what the optimizer's and elaborator's guarantees
//! rest on.
//!
//! For the CI gate over *shipped* modules this check is complemented by
//! the symbolic prover in `xlac-analysis::symbolic` (exercised by
//! `xlac-lint --exact`, DESIGN.md §11): there, every representation is
//! compiled into a canonical BDD over shared variables, so equivalence
//! is root identity rather than an input sweep, and a refutation names a
//! counterexample minterm directly. `check_equivalence` remains the
//! right tool inside the logic layer itself — optimizer and elaborator
//! round-trips on arbitrary in-flight netlists, where one 64-way sweep
//! is cheaper than building a BDD per rewrite.
//!
//! # Example
//!
//! ```
//! use xlac_logic::{GateKind, NetlistBuilder};
//! use xlac_logic::equiv::check_equivalence;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let mut a = NetlistBuilder::new("nand", 2);
//! let g = a.gate(GateKind::Nand2, &[a.input(0), a.input(1)]);
//! a.output(g);
//! let a = a.finish()?;
//!
//! // De Morgan: NAND == NOT(AND).
//! let mut b = NetlistBuilder::new("not_and", 2);
//! let and = b.gate(GateKind::And2, &[b.input(0), b.input(1)]);
//! let not = b.gate(GateKind::Not, &[and]);
//! b.output(not);
//! let b = b.finish()?;
//!
//! assert_eq!(check_equivalence(&a, &b)?, None);
//! # Ok(())
//! # }
//! ```

use crate::netlist::Netlist;
use xlac_core::error::{Result, XlacError};
use xlac_core::lanes::CountingBlocks;

/// Exhaustively checks two netlists for combinational equivalence.
///
/// Returns `Ok(None)` when equivalent, or `Ok(Some(x))` with the first
/// (lowest) input assignment on which the outputs differ.
///
/// # Errors
///
/// Returns [`XlacError::ShapeMismatch`] when the I/O counts differ, or
/// [`XlacError::InvalidWidth`] for more than 26 inputs (the exhaustive
/// bound).
pub fn check_equivalence(a: &Netlist, b: &Netlist) -> Result<Option<u64>> {
    if a.n_inputs() != b.n_inputs() || a.n_outputs() != b.n_outputs() {
        return Err(XlacError::ShapeMismatch {
            expected: (a.n_inputs(), a.n_outputs()),
            actual: (b.n_inputs(), b.n_outputs()),
        });
    }
    let n = a.n_inputs();
    if n > 26 {
        return Err(XlacError::InvalidWidth { width: n, max: 26 });
    }
    let counting = CountingBlocks::new(n);
    // Reused evaluation buffers — the sweep allocates nothing per word.
    let mut words = vec![0u64; n];
    let (mut vals_a, mut vals_b) = (Vec::new(), Vec::new());
    let (mut outs_a, mut outs_b) = (Vec::new(), Vec::new());
    for block in 0..counting.blocks() {
        // Lane l carries input assignment 64·block + l.
        counting.fill(block, &mut words);
        a.eval_words_into(&words, &mut vals_a, &mut outs_a);
        b.eval_words_into(&words, &mut vals_b, &mut outs_b);
        let diff =
            outs_a.iter().zip(&outs_b).fold(0, |d, (wa, wb)| d | (wa ^ wb)) & counting.live();
        if diff != 0 {
            return Ok(Some((block << 6) | u64::from(diff.trailing_zeros())));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::netlist::NetlistBuilder;
    use crate::opt::optimize;
    use crate::synth::synthesize;
    use crate::truth_table::TruthTable;

    fn xor_net(invert: bool) -> Netlist {
        let mut b = NetlistBuilder::new("x", 2);
        let kind = if invert { GateKind::Xnor2 } else { GateKind::Xor2 };
        let g = b.gate(kind, &[b.input(0), b.input(1)]);
        b.output(g);
        b.finish().unwrap()
    }

    #[test]
    fn identical_designs_are_equivalent() {
        let a = xor_net(false);
        assert_eq!(check_equivalence(&a, &a).unwrap(), None);
    }

    #[test]
    fn divergence_reports_the_first_counterexample() {
        let a = xor_net(false);
        let b = xor_net(true);
        // XOR vs XNOR differ everywhere; first assignment is 0.
        assert_eq!(check_equivalence(&a, &b).unwrap(), Some(0));
    }

    #[test]
    fn single_point_divergence_is_found() {
        // f = OR vs f' = OR except input 3 → differ only at x = 3.
        let or_tt = TruthTable::from_fn(2, 1, |x| u64::from(x != 0));
        let tweak = TruthTable::from_fn(2, 1, |x| u64::from(x != 0 && x != 3));
        let a = synthesize("or", &or_tt).unwrap();
        let b = synthesize("tweak", &tweak).unwrap();
        assert_eq!(check_equivalence(&a, &b).unwrap(), Some(3));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = xor_net(false);
        let mut bb = NetlistBuilder::new("w", 3);
        let i = bb.input(0);
        bb.output(i);
        let b = bb.finish().unwrap();
        assert!(check_equivalence(&a, &b).is_err());
    }

    #[test]
    fn optimizer_outputs_verify_formally() {
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(0xE9);
        for n in 2..=5usize {
            for outs in 1..=2usize {
                let rows: Vec<u64> =
                    (0..(1u64 << n)).map(|_| rng.gen::<u64>() & ((1 << outs) - 1)).collect();
                let tt = TruthTable::from_rows(n, outs, rows).unwrap();
                let nl = synthesize("r", &tt).unwrap();
                let opt = optimize(&nl);
                assert_eq!(check_equivalence(&nl, &opt).unwrap(), None, "n={n} outs={outs}");
            }
        }
    }

    #[test]
    fn wide_designs_cross_word_boundaries() {
        // 7 inputs = 128 assignments = 2 simulation words; put the only
        // divergence in the second word.
        let f = TruthTable::from_fn(7, 1, |_| 0);
        let g = TruthTable::from_fn(7, 1, |x| u64::from(x == 100));
        let a = synthesize("zero", &f).unwrap();
        let b = synthesize("pulse", &g).unwrap();
        assert_eq!(check_equivalence(&a, &b).unwrap(), Some(100));
    }

    #[test]
    fn input_budget_is_enforced() {
        let mut ba = NetlistBuilder::new("big", 30);
        let i = ba.input(0);
        ba.output(i);
        let a = ba.finish().unwrap();
        let mut bb = NetlistBuilder::new("big2", 30);
        let i = bb.input(0);
        bb.output(i);
        let b = bb.finish().unwrap();
        assert!(check_equivalence(&a, &b).is_err());
    }
}
