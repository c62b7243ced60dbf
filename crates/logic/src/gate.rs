//! The cell library: gate kinds with normalized area, energy and delay.
//!
//! Costs are expressed relative to a NAND2 (1 gate equivalent, unit delay).
//! The ratios follow typical standard-cell libraries (an XOR2 is ~2.3× a
//! NAND2 in area and ~2× in delay); the absolute scale is normalized, which
//! is sufficient because every figure in the paper compares designs
//! *relative to each other* under one library.
//!
//! # Example
//!
//! ```
//! use xlac_logic::gate::GateKind;
//!
//! assert!(GateKind::Xor2.area_ge() > GateKind::Nand2.area_ge());
//! assert_eq!(GateKind::Nand2.arity(), 2);
//! assert_eq!(GateKind::Not.eval(&[1]), 0);
//! ```

use std::fmt;

/// Kinds of combinational cells available to netlists.
///
/// Two-input cells only (wider fan-in is built as trees); `Not`/`Buf` are
/// one-input. `Mux2` selects `d1` when `sel == 1` with operand order
/// `[d0, d1, sel]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Inverter.
    Not,
    /// Buffer (used when an output must replicate an internal wire through
    /// a named cell; zero-cost aliasing is expressed with
    /// [`crate::netlist::Signal`] instead).
    Buf,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer, operands `[d0, d1, sel]`.
    Mux2,
}

impl GateKind {
    /// All cell kinds, for iteration in tests and reports.
    pub const ALL: [GateKind; 9] = [
        GateKind::Not,
        GateKind::Buf,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Xor2,
        GateKind::Xnor2,
        GateKind::Mux2,
    ];

    /// Parses a Verilog primitive name (`not`, `buf`, `and`, `or`, `nand`,
    /// `nor`, `xor`, `xnor`) back to a cell kind — the inverse of the
    /// mapping used by [`crate::verilog`] emission. `Mux2` has no Verilog
    /// primitive (it is emitted as a conditional assign) and is not
    /// parseable here.
    #[must_use]
    pub fn from_verilog_primitive(name: &str) -> Option<GateKind> {
        Some(match name {
            "not" => GateKind::Not,
            "buf" => GateKind::Buf,
            "and" => GateKind::And2,
            "or" => GateKind::Or2,
            "nand" => GateKind::Nand2,
            "nor" => GateKind::Nor2,
            "xor" => GateKind::Xor2,
            "xnor" => GateKind::Xnor2,
            _ => return None,
        })
    }

    /// Number of data operands the cell consumes.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            GateKind::Not | GateKind::Buf => 1,
            GateKind::Mux2 => 3,
            _ => 2,
        }
    }

    /// Cell area in gate equivalents (NAND2 = 1.0).
    #[must_use]
    pub fn area_ge(self) -> f64 {
        match self {
            GateKind::Not => 0.67,
            GateKind::Buf => 1.0,
            GateKind::Nand2 | GateKind::Nor2 => 1.0,
            GateKind::And2 | GateKind::Or2 => 1.33,
            GateKind::Xor2 | GateKind::Xnor2 => 2.33,
            GateKind::Mux2 => 2.33,
        }
    }

    /// Propagation delay in normalized gate delays (NAND2 = 1.0).
    #[must_use]
    pub fn delay(self) -> f64 {
        match self {
            GateKind::Not => 0.5,
            GateKind::Buf => 1.0,
            GateKind::Nand2 | GateKind::Nor2 => 1.0,
            GateKind::And2 | GateKind::Or2 => 1.5,
            GateKind::Xor2 | GateKind::Xnor2 | GateKind::Mux2 => 2.0,
        }
    }

    /// Energy dissipated per output toggle, in normalized units.
    ///
    /// Switched capacitance scales with cell area in standard-cell
    /// libraries, so energy-per-toggle is modeled proportional to area.
    #[must_use]
    pub fn energy_per_toggle(self) -> f64 {
        self.area_ge()
    }

    /// Static leakage power in normalized units (proportional to area).
    #[must_use]
    pub fn leakage(self) -> f64 {
        0.05 * self.area_ge()
    }

    /// Evaluates the cell on bit operands (`0`/`1` each).
    ///
    /// # Panics
    ///
    /// Panics if `operands.len() != self.arity()` or any operand exceeds 1.
    #[must_use]
    pub fn eval(self, operands: &[u64]) -> u64 {
        assert_eq!(operands.len(), self.arity(), "wrong operand count for {self}");
        debug_assert!(operands.iter().all(|&b| b <= 1));
        self.eval_word(operands) & 1
    }

    /// Evaluates the cell bit-parallel on 64-pattern words (each bit lane is
    /// one simulation pattern). This is the engine behind fast netlist
    /// simulation.
    #[inline]
    #[must_use]
    pub fn eval_word(self, operands: &[u64]) -> u64 {
        match self {
            GateKind::Not => !operands[0],
            GateKind::Buf => operands[0],
            GateKind::And2 => operands[0] & operands[1],
            GateKind::Or2 => operands[0] | operands[1],
            GateKind::Nand2 => !(operands[0] & operands[1]),
            GateKind::Nor2 => !(operands[0] | operands[1]),
            GateKind::Xor2 => operands[0] ^ operands[1],
            GateKind::Xnor2 => !(operands[0] ^ operands[1]),
            GateKind::Mux2 => (operands[0] & !operands[2]) | (operands[1] & operands[2]),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
            GateKind::And2 => "AND2",
            GateKind::Or2 => "OR2",
            GateKind::Nand2 => "NAND2",
            GateKind::Nor2 => "NOR2",
            GateKind::Xor2 => "XOR2",
            GateKind::Xnor2 => "XNOR2",
            GateKind::Mux2 => "MUX2",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_of_every_gate() {
        assert_eq!(GateKind::Not.eval(&[0]), 1);
        assert_eq!(GateKind::Not.eval(&[1]), 0);
        assert_eq!(GateKind::Buf.eval(&[1]), 1);
        for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert_eq!(GateKind::And2.eval(&[a, b]), a & b);
            assert_eq!(GateKind::Or2.eval(&[a, b]), a | b);
            assert_eq!(GateKind::Nand2.eval(&[a, b]), 1 - (a & b));
            assert_eq!(GateKind::Nor2.eval(&[a, b]), 1 - (a | b));
            assert_eq!(GateKind::Xor2.eval(&[a, b]), a ^ b);
            assert_eq!(GateKind::Xnor2.eval(&[a, b]), 1 - (a ^ b));
        }
    }

    #[test]
    fn mux_selects() {
        // [d0, d1, sel]
        assert_eq!(GateKind::Mux2.eval(&[0, 1, 0]), 0);
        assert_eq!(GateKind::Mux2.eval(&[0, 1, 1]), 1);
        assert_eq!(GateKind::Mux2.eval(&[1, 0, 0]), 1);
        assert_eq!(GateKind::Mux2.eval(&[1, 0, 1]), 0);
    }

    #[test]
    fn word_eval_matches_bit_eval() {
        // Bit-lane 0 of eval_word must agree with eval for every gate and
        // every operand combination.
        for kind in GateKind::ALL {
            let n = kind.arity();
            for pattern in 0u64..(1 << n) {
                let ops: Vec<u64> = (0..n).map(|i| (pattern >> i) & 1).collect();
                // Sign-extend each bit across the word to exercise other lanes.
                let words: Vec<u64> =
                    ops.iter().map(|&b| if b == 1 { u64::MAX } else { 0 }).collect();
                let bit = kind.eval(&ops);
                let word = kind.eval_word(&words);
                assert_eq!(word & 1, bit, "{kind} mismatch on {pattern:b}");
                // All lanes must agree since all lanes carry the same pattern.
                assert!(word == 0 || word == u64::MAX, "{kind} lanes diverged");
            }
        }
    }

    #[test]
    fn cost_ordering_follows_library_conventions() {
        assert!(GateKind::Not.area_ge() < GateKind::Nand2.area_ge());
        assert!(GateKind::Nand2.area_ge() < GateKind::And2.area_ge());
        assert!(GateKind::And2.area_ge() < GateKind::Xor2.area_ge());
        assert!(GateKind::Nand2.delay() <= GateKind::Xor2.delay());
        for k in GateKind::ALL {
            assert!(k.area_ge() > 0.0);
            assert!(k.delay() > 0.0);
            assert!(k.energy_per_toggle() > 0.0);
            assert!(k.leakage() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "wrong operand count")]
    fn eval_rejects_wrong_arity() {
        let _ = GateKind::And2.eval(&[1]);
    }

    #[test]
    fn display_names() {
        assert_eq!(GateKind::Xnor2.to_string(), "XNOR2");
        assert_eq!(GateKind::Mux2.to_string(), "MUX2");
    }

    #[test]
    fn verilog_primitive_round_trip() {
        for (name, kind) in [
            ("not", GateKind::Not),
            ("buf", GateKind::Buf),
            ("and", GateKind::And2),
            ("or", GateKind::Or2),
            ("nand", GateKind::Nand2),
            ("nor", GateKind::Nor2),
            ("xor", GateKind::Xor2),
            ("xnor", GateKind::Xnor2),
        ] {
            assert_eq!(GateKind::from_verilog_primitive(name), Some(kind));
        }
        assert_eq!(GateKind::from_verilog_primitive("mux"), None);
        assert_eq!(GateKind::from_verilog_primitive("AND"), None);
    }
}
