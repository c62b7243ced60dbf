//! The 1-bit full adders of Table III: the accurate cell and the five
//! IMPACT-style approximate cells.
//!
//! Each cell is specified by its exact truth table from the paper. The
//! approximate cells rely on logic simplification — e.g. `ApxFA2`/`ApxFA3`
//! compute `Sum = !Cout` (saving the parity XORs), and `ApxFA5` is the most
//! aggressive design, pure wiring: `Sum = B`, `Cout = A`.
//!
//! Characterization runs the cells through the workspace synthesis flow
//! (`xlac-logic`): Quine–McCluskey minimization to a gate netlist, then
//! structural area, critical-path delay and toggle-counted power — the same
//! methodology (relative to our normalized library) as the paper's
//! DC + PrimeTime numbers in the last rows of Table III.
//!
//! # Example
//!
//! ```
//! use xlac_adders::FullAdderKind;
//!
//! // ApxFA5 wires the inputs to the outputs.
//! let (sum, cout) = FullAdderKind::Apx5.eval(1, 0, 1);
//! assert_eq!((sum, cout), (0, 1)); // Sum = B = 0, Cout = A = 1
//!
//! // Error-case counts match Table III exactly.
//! assert_eq!(FullAdderKind::Apx5.error_cases(), 4);
//! assert_eq!(FullAdderKind::Accurate.error_cases(), 0);
//! ```

use std::fmt;
use std::sync::OnceLock;
use xlac_core::characterization::HwCost;
use xlac_logic::synth::{characterize, synthesize};
use xlac_logic::{GateKind, Netlist, NetlistBuilder, TruthTable};

/// The six full-adder cells of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FullAdderKind {
    /// The exact full adder (`AccuFA`).
    Accurate,
    /// `ApxFA1` — IMPACT approximation 1 (2 error cases).
    Apx1,
    /// `ApxFA2` — exact carry, `Sum = !Cout` (2 error cases).
    Apx2,
    /// `ApxFA3` — approximate carry `B + A·Cin`, `Sum = !Cout`
    /// (3 error cases).
    Apx3,
    /// `ApxFA4` — IMPACT approximation 4 (3 error cases).
    Apx4,
    /// `ApxFA5` — pure wiring, `Sum = B`, `Cout = A` (4 error cases,
    /// zero logic).
    Apx5,
}

/// Truth tables from Table III of the paper.
///
/// Indexed by `[kind][a << 2 | b << 1 | cin]`; each entry is
/// `(sum, cout)`.
const TABLE: [[(u8, u8); 8]; 6] = [
    // index:   000     001     010     011     100     101     110     111   (a,b,cin)
    /* Accu */
    [(0, 0), (1, 0), (1, 0), (0, 1), (1, 0), (0, 1), (0, 1), (1, 1)],
    /* Apx1 */ [(0, 0), (1, 0), (0, 1), (0, 1), (0, 0), (0, 1), (0, 1), (1, 1)],
    /* Apx2 */ [(1, 0), (1, 0), (1, 0), (0, 1), (1, 0), (0, 1), (0, 1), (0, 1)],
    /* Apx3 */ [(1, 0), (1, 0), (0, 1), (0, 1), (1, 0), (0, 1), (0, 1), (0, 1)],
    /* Apx4 */ [(0, 0), (1, 0), (0, 0), (1, 0), (0, 1), (0, 1), (0, 1), (1, 1)],
    /* Apx5 */ [(0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1)],
];

/// [`TABLE`] packed per cell as `(sum, cout)` masks: bit
/// `a << 2 | b << 1 | cin` of each mask is that output on that row.
const MASKS: [(u8, u8); 6] = {
    let mut masks = [(0u8, 0u8); 6];
    let mut kind = 0;
    while kind < 6 {
        let mut row = 0;
        while row < 8 {
            masks[kind].0 |= TABLE[kind][row].0 << row;
            masks[kind].1 |= TABLE[kind][row].1 << row;
            row += 1;
        }
        kind += 1;
    }
    masks
};

impl FullAdderKind {
    /// All six cells, in Table III order.
    pub const ALL: [FullAdderKind; 6] = [
        FullAdderKind::Accurate,
        FullAdderKind::Apx1,
        FullAdderKind::Apx2,
        FullAdderKind::Apx3,
        FullAdderKind::Apx4,
        FullAdderKind::Apx5,
    ];

    /// The five approximate cells, in increasing aggressiveness.
    pub const APPROXIMATE: [FullAdderKind; 5] = [
        FullAdderKind::Apx1,
        FullAdderKind::Apx2,
        FullAdderKind::Apx3,
        FullAdderKind::Apx4,
        FullAdderKind::Apx5,
    ];

    const fn table_index(self) -> usize {
        match self {
            FullAdderKind::Accurate => 0,
            FullAdderKind::Apx1 => 1,
            FullAdderKind::Apx2 => 2,
            FullAdderKind::Apx3 => 3,
            FullAdderKind::Apx4 => 4,
            FullAdderKind::Apx5 => 5,
        }
    }

    /// The cell's Table III truth table as two 8-bit masks `(sum, cout)`:
    /// bit `a << 2 | b << 1 | cin` of each mask is that output on that
    /// row. A cell evaluates as one shift and mask of a value already in
    /// a register, so a carry chain through it carries no table load —
    /// the form the scalar models' inner loops use.
    #[inline]
    #[must_use]
    pub const fn truth_masks(self) -> (u8, u8) {
        MASKS[self.table_index()]
    }

    /// Evaluates the cell.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when an input is not 0 or 1.
    #[inline]
    #[must_use]
    pub fn eval(self, a: u64, b: u64, cin: u64) -> (u64, u64) {
        debug_assert!(a <= 1 && b <= 1 && cin <= 1);
        let (s, c) = self.truth_masks();
        let row = a << 2 | b << 1 | cin;
        ((u64::from(s) >> row) & 1, (u64::from(c) >> row) & 1)
    }

    /// The table-load [`FullAdderKind::eval`] that
    /// [`FullAdderKind::truth_masks`] replaced, kept as its oracle.
    #[cfg(test)]
    pub(crate) fn eval_table(self, a: u64, b: u64, cin: u64) -> (u64, u64) {
        debug_assert!(a <= 1 && b <= 1 && cin <= 1);
        let (s, c) = TABLE[self.table_index()][(a << 2 | b << 1 | cin) as usize];
        (u64::from(s), u64::from(c))
    }

    /// Evaluates the cell on 64 independent lanes at once (bit-sliced
    /// form): bit `j` of each word is the value of that input/output in
    /// lane `j`, so one call performs 64 full-adder evaluations.
    ///
    /// Each arm is the boolean-algebra form of the cell's Table III truth
    /// table; an exhaustive unit test pins it to [`FullAdderKind::eval`].
    #[inline]
    #[must_use]
    pub fn eval_x64(self, a: u64, b: u64, cin: u64) -> (u64, u64) {
        match self {
            FullAdderKind::Accurate => {
                let axb = a ^ b;
                (axb ^ cin, (a & b) | (axb & cin))
            }
            FullAdderKind::Apx1 => (cin & !(a ^ b), b | (a & cin)),
            FullAdderKind::Apx2 => {
                let c = (a & b) | (a & cin) | (b & cin);
                (!c, c)
            }
            FullAdderKind::Apx3 => {
                let c = b | (a & cin);
                (!c, c)
            }
            FullAdderKind::Apx4 => (cin & !(a & !b), a),
            FullAdderKind::Apx5 => (b, a),
        }
    }

    /// The cell's truth table, inputs packed `a | b<<1 | cin<<2`, outputs
    /// packed `sum | cout<<1` (the packing used by the netlist flow).
    #[must_use]
    pub fn truth_table(self) -> TruthTable {
        TruthTable::from_fn(3, 2, |x| {
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let (s, c) = self.eval(a, b, cin);
            s | (c << 1)
        })
    }

    /// Synthesizes the cell through the QM flow (the uniform
    /// characterization path for Table III).
    #[must_use]
    pub fn synthesized_netlist(self) -> Netlist {
        synthesize(&self.to_string(), &self.truth_table())
            .expect("full-adder tables always synthesize")
    }

    /// A hand-mapped structural netlist where the published cell structure
    /// is XOR-rich or pure wiring; falls back to [`Self::synthesized_netlist`]
    /// for the SOP-friendly approximate cells.
    ///
    /// * `Accurate`: `sum = (a⊕b)⊕cin`, `cout = a·b + (a⊕b)·cin` (the
    ///   standard mirror-adder decomposition).
    /// * `Apx2`/`Apx3`: carry logic plus a single inverter for the sum.
    /// * `Apx5`: zero gates — outputs are input wires.
    #[must_use]
    pub fn structural_netlist(self) -> Netlist {
        match self {
            FullAdderKind::Accurate => {
                let mut nb = NetlistBuilder::new("AccuFA", 3);
                let (a, b, cin) = (nb.input(0), nb.input(1), nb.input(2));
                let axb = nb.gate(GateKind::Xor2, &[a, b]);
                let sum = nb.gate(GateKind::Xor2, &[axb, cin]);
                let ab = nb.gate(GateKind::And2, &[a, b]);
                let pc = nb.gate(GateKind::And2, &[axb, cin]);
                let cout = nb.gate(GateKind::Or2, &[ab, pc]);
                nb.output(sum);
                nb.output(cout);
                nb.finish().expect("structural AccuFA")
            }
            FullAdderKind::Apx1 => {
                // sum = cin·(a XNOR b), cout = b + a·cin.
                let mut nb = NetlistBuilder::new("ApxFA1", 3);
                let (a, b, cin) = (nb.input(0), nb.input(1), nb.input(2));
                let xnor = nb.gate(GateKind::Xnor2, &[a, b]);
                let sum = nb.gate(GateKind::And2, &[xnor, cin]);
                let ac = nb.gate(GateKind::And2, &[a, cin]);
                let cout = nb.gate(GateKind::Or2, &[b, ac]);
                nb.output(sum);
                nb.output(cout);
                nb.finish().expect("structural ApxFA1")
            }
            FullAdderKind::Apx2 => {
                // Exact (majority) carry in its cheap factored form
                // maj = b·(a + cin) + a·cin; sum = !cout.
                let mut nb = NetlistBuilder::new("ApxFA2", 3);
                let (a, b, cin) = (nb.input(0), nb.input(1), nb.input(2));
                let a_or_c = nb.gate(GateKind::Or2, &[a, cin]);
                let t = nb.gate(GateKind::And2, &[b, a_or_c]);
                let ac = nb.gate(GateKind::And2, &[a, cin]);
                let cout = nb.gate(GateKind::Or2, &[t, ac]);
                let sum = nb.gate(GateKind::Not, &[cout]);
                nb.output(sum);
                nb.output(cout);
                nb.finish().expect("structural ApxFA2")
            }
            FullAdderKind::Apx3 => {
                // cout = b + a·cin, sum = !cout.
                let mut nb = NetlistBuilder::new("ApxFA3", 3);
                let (a, b, cin) = (nb.input(0), nb.input(1), nb.input(2));
                let ac = nb.gate(GateKind::And2, &[a, cin]);
                let cout = nb.gate(GateKind::Or2, &[b, ac]);
                let sum = nb.gate(GateKind::Not, &[cout]);
                nb.output(sum);
                nb.output(cout);
                nb.finish().expect("structural ApxFA3")
            }
            FullAdderKind::Apx4 => {
                // sum = cin·!(a·b'), cout = a (wire).
                let mut nb = NetlistBuilder::new("ApxFA4", 3);
                let (a, b, cin) = (nb.input(0), nb.input(1), nb.input(2));
                let nb_ = nb.gate(GateKind::Not, &[b]);
                let abn = nb.gate(GateKind::And2, &[a, nb_]);
                let t = nb.gate(GateKind::Not, &[abn]);
                let sum = nb.gate(GateKind::And2, &[cin, t]);
                nb.output(sum);
                nb.output(a);
                nb.finish().expect("structural ApxFA4")
            }
            FullAdderKind::Apx5 => {
                let mut nb = NetlistBuilder::new("ApxFA5", 3);
                let (a, b) = (nb.input(0), nb.input(1));
                nb.output(b); // sum = B
                nb.output(a); // cout = A
                nb.finish().expect("structural ApxFA5")
            }
        }
    }

    /// Number of truth-table rows on which the cell differs from the
    /// accurate full adder — the `#Error Cases` row of Table III
    /// (0, 2, 2, 3, 3, 4).
    #[must_use]
    pub fn error_cases(self) -> usize {
        self.truth_table().error_cases(&FullAdderKind::Accurate.truth_table()).expect("same shape")
    }

    /// Hardware cost of the cell via the structural netlist (cached — the
    /// power simulation is deterministic, so the cost is a constant of the
    /// workspace).
    #[must_use]
    pub fn hw_cost(self) -> HwCost {
        static COSTS: OnceLock<[HwCost; 6]> = OnceLock::new();
        COSTS.get_or_init(|| {
            let mut costs = [HwCost::ZERO; 6];
            for kind in FullAdderKind::ALL {
                let nl = kind.structural_netlist();
                costs[kind.table_index()] = characterize(&nl, 4096, 0xFA);
            }
            costs
        })[self.table_index()]
    }

    /// `true` for the exact cell.
    #[must_use]
    pub fn is_accurate(self) -> bool {
        self == FullAdderKind::Accurate
    }
}

impl fmt::Display for FullAdderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FullAdderKind::Accurate => "AccuFA",
            FullAdderKind::Apx1 => "ApxFA1",
            FullAdderKind::Apx2 => "ApxFA2",
            FullAdderKind::Apx3 => "ApxFA3",
            FullAdderKind::Apx4 => "ApxFA4",
            FullAdderKind::Apx5 => "ApxFA5",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_cell_is_a_full_adder() {
        for x in 0u64..8 {
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let (s, c) = FullAdderKind::Accurate.eval(a, b, cin);
            let total = a + b + cin;
            assert_eq!(s, total & 1);
            assert_eq!(c, total >> 1);
        }
    }

    #[test]
    fn mask_eval_matches_the_table_on_every_row() {
        for kind in FullAdderKind::ALL {
            for x in 0u64..8 {
                let (a, b, cin) = (x >> 2, (x >> 1) & 1, x & 1);
                assert_eq!(kind.eval(a, b, cin), kind.eval_table(a, b, cin), "{kind} {x:03b}");
            }
        }
    }

    #[test]
    fn eval_x64_matches_the_truth_table_on_every_lane_pattern() {
        // All 8 scalar input combinations, broadcast through the 64-lane
        // form by packing each combination into the lane that equals its
        // index modulo 8 — covers every lane position and combination.
        for kind in FullAdderKind::ALL {
            let mut a = 0u64;
            let mut b = 0u64;
            let mut cin = 0u64;
            for lane in 0..64u64 {
                let x = lane % 8;
                a |= (x >> 2 & 1) << lane;
                b |= (x >> 1 & 1) << lane;
                cin |= (x & 1) << lane;
            }
            let (s, c) = kind.eval_x64(a, b, cin);
            for lane in 0..64u64 {
                let (es, ec) = kind.eval((a >> lane) & 1, (b >> lane) & 1, (cin >> lane) & 1);
                assert_eq!((s >> lane) & 1, es, "{kind} sum lane {lane}");
                assert_eq!((c >> lane) & 1, ec, "{kind} carry lane {lane}");
            }
        }
    }

    #[test]
    fn error_cases_match_table_iii() {
        let expected = [0usize, 2, 2, 3, 3, 4];
        for (kind, want) in FullAdderKind::ALL.iter().zip(expected) {
            assert_eq!(kind.error_cases(), want, "{kind}");
        }
    }

    #[test]
    fn apx2_and_apx3_compute_sum_as_inverted_carry() {
        for kind in [FullAdderKind::Apx2, FullAdderKind::Apx3] {
            for x in 0u64..8 {
                let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
                let (s, c) = kind.eval(a, b, cin);
                assert_eq!(s, 1 - c, "{kind} at {x:03b}");
            }
        }
    }

    #[test]
    fn apx2_keeps_the_exact_carry() {
        for x in 0u64..8 {
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let (_, c_apx) = FullAdderKind::Apx2.eval(a, b, cin);
            let (_, c_acc) = FullAdderKind::Accurate.eval(a, b, cin);
            assert_eq!(c_apx, c_acc);
        }
    }

    #[test]
    fn apx5_is_pure_wiring() {
        for x in 0u64..8 {
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let (s, c) = FullAdderKind::Apx5.eval(a, b, cin);
            assert_eq!(s, b);
            assert_eq!(c, a);
        }
        let nl = FullAdderKind::Apx5.structural_netlist();
        assert_eq!(nl.gate_count(), 0);
        let cost = FullAdderKind::Apx5.hw_cost();
        assert_eq!(cost.area_ge, 0.0);
        assert_eq!(cost.power_nw, 0.0);
    }

    #[test]
    fn structural_netlists_match_truth_tables() {
        for kind in FullAdderKind::ALL {
            let nl = kind.structural_netlist();
            let tt = kind.truth_table();
            assert_eq!(
                xlac_logic::synth::verify_against(&nl, &tt),
                0,
                "{kind} structural netlist diverges from its truth table"
            );
        }
    }

    #[test]
    fn synthesized_netlists_match_truth_tables() {
        for kind in FullAdderKind::ALL {
            let nl = kind.synthesized_netlist();
            let tt = kind.truth_table();
            assert_eq!(xlac_logic::synth::verify_against(&nl, &tt), 0, "{kind}");
        }
    }

    #[test]
    fn approximate_cells_are_cheaper_than_accurate() {
        let acc = FullAdderKind::Accurate.hw_cost();
        for kind in FullAdderKind::APPROXIMATE {
            let cost = kind.hw_cost();
            assert!(
                cost.area_ge < acc.area_ge,
                "{kind} area {} !< accurate {}",
                cost.area_ge,
                acc.area_ge
            );
            assert!(cost.power_nw < acc.power_nw, "{kind} power");
        }
    }

    #[test]
    fn cost_ordering_is_broadly_monotone_in_aggressiveness() {
        // Table III shows area decreasing from AccuFA to ApxFA5 (with
        // small local variations); at minimum the extremes must hold.
        let first = FullAdderKind::Apx1.hw_cost();
        let last = FullAdderKind::Apx5.hw_cost();
        assert!(last.area_ge < first.area_ge);
        assert!(last.power_nw < first.power_nw);
    }

    #[test]
    fn display_names() {
        assert_eq!(FullAdderKind::Accurate.to_string(), "AccuFA");
        assert_eq!(FullAdderKind::Apx4.to_string(), "ApxFA4");
    }

    #[test]
    fn hw_cost_is_cached_and_stable() {
        let a = FullAdderKind::Apx1.hw_cost();
        let b = FullAdderKind::Apx1.hw_cost();
        assert_eq!(a, b);
    }
}
