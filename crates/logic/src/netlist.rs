//! Combinational netlists: construction, validation and simulation.
//!
//! A [`Netlist`] is a DAG of [`GateKind`] instances over a set of primary
//! inputs. Gates are stored in topological order by construction — the
//! [`NetlistBuilder`] only lets a gate reference inputs, constants and
//! *previously created* gates — so evaluation is a single forward sweep.
//!
//! Simulation is 64-way bit-parallel ([`Netlist::eval_words`]): every wire
//! carries a 64-bit word whose bit lanes are independent patterns. This is
//! the same trick pattern-parallel logic simulators use and makes exhaustive
//! verification of the paper's cells instantaneous.
//!
//! Switching activity (the SAIF/VCD methodology of the paper's flow) is
//! captured by [`Netlist::switching_power`], which applies a random vector
//! sequence and counts per-gate output toggles.
//!
//! # Example
//!
//! ```
//! use xlac_logic::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! // sum = a XOR b, carry = a AND b (a half adder).
//! let mut b = NetlistBuilder::new("half_adder", 2);
//! let (a, bb) = (b.input(0), b.input(1));
//! let sum = b.gate(GateKind::Xor2, &[a, bb]);
//! let carry = b.gate(GateKind::And2, &[a, bb]);
//! b.output(sum);
//! b.output(carry);
//! let ha = b.finish()?;
//! assert_eq!(ha.eval(0b11), 0b10); // 1 + 1 = sum 0, carry 1
//! # Ok(())
//! # }
//! ```

use crate::gate::GateKind;
use xlac_core::error::{Result, XlacError};
use xlac_core::rng::{DefaultRng, Rng};

/// A wire in a netlist: a primary input, the output of a gate, or a
/// constant.
///
/// Constants make *wiring-only* "logic" expressible — e.g. the paper's
/// `ApxFA5` cell, whose outputs are just its inputs re-routed, has zero
/// gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Primary input by index.
    Input(usize),
    /// Output of gate `gates[i]`.
    Gate(usize),
    /// Constant 0 or 1.
    Const(bool),
}

/// One gate instance. The fanin is stored inline: the first
/// `kind.arity()` slots are the operands and the rest hold [`UNUSED`], so
/// the derived equality compares exactly the operands.
#[derive(Debug, Clone, PartialEq)]
struct GateInst {
    kind: GateKind,
    fanin: [Signal; 3],
}

/// The filler of a gate's unused fanin slots.
const UNUSED: Signal = Signal::Const(false);

impl GateInst {
    fn fanin(&self) -> &[Signal] {
        &self.fanin[..self.kind.arity()]
    }
}

/// An immutable, validated combinational netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    n_inputs: usize,
    gates: Vec<GateInst>,
    outputs: Vec<Signal>,
}

/// Incremental netlist constructor enforcing topological order.
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    n_inputs: usize,
    gates: Vec<GateInst>,
    outputs: Vec<Signal>,
}

impl NetlistBuilder {
    /// Starts a netlist with `n_inputs` primary inputs.
    #[must_use]
    pub fn new(name: impl Into<String>, n_inputs: usize) -> Self {
        NetlistBuilder { name: name.into(), n_inputs, gates: Vec::new(), outputs: Vec::new() }
    }

    /// Primary input `index` as a signal.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n_inputs`.
    #[must_use]
    pub fn input(&self, index: usize) -> Signal {
        assert!(index < self.n_inputs, "input {index} out of range ({} inputs)", self.n_inputs);
        Signal::Input(index)
    }

    /// A constant signal.
    #[must_use]
    pub fn constant(&self, value: bool) -> Signal {
        Signal::Const(value)
    }

    /// Instantiates a gate and returns its output signal.
    ///
    /// # Panics
    ///
    /// Panics when `fanin.len() != kind.arity()` or a fanin signal refers to
    /// a not-yet-created gate (which would break topological order).
    pub fn gate(&mut self, kind: GateKind, fanin: &[Signal]) -> Signal {
        assert_eq!(fanin.len(), kind.arity(), "{kind} expects {} operands", kind.arity());
        for s in fanin {
            self.check_signal(*s);
        }
        let mut slots = [UNUSED; 3];
        slots[..fanin.len()].copy_from_slice(fanin);
        self.gates.push(GateInst { kind, fanin: slots });
        Signal::Gate(self.gates.len() - 1)
    }

    /// Builds an AND/OR/XOR tree over arbitrarily many operands, returning
    /// the root. One operand is returned untouched; zero operands yield the
    /// operation's identity constant (0 for OR/XOR, 1 for AND).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not one of `And2`, `Or2`, `Xor2`.
    pub fn tree(&mut self, kind: GateKind, operands: &[Signal]) -> Signal {
        assert!(
            matches!(kind, GateKind::And2 | GateKind::Or2 | GateKind::Xor2),
            "tree supports AND2/OR2/XOR2 only"
        );
        match operands.len() {
            0 => self.constant(kind == GateKind::And2),
            1 => operands[0],
            _ => {
                // Balanced reduction keeps the critical path logarithmic.
                let mut level: Vec<Signal> = operands.to_vec();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len().div_ceil(2));
                    for pair in level.chunks(2) {
                        if pair.len() == 2 {
                            next.push(self.gate(kind, &[pair[0], pair[1]]));
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    level = next;
                }
                level[0]
            }
        }
    }

    /// Marks `signal` as the next primary output.
    ///
    /// # Panics
    ///
    /// Panics if the signal refers to a not-yet-created gate.
    pub fn output(&mut self, signal: Signal) {
        self.check_signal(signal);
        self.outputs.push(signal);
    }

    /// Flattens `sub` into this netlist: every gate of `sub` is replayed
    /// with `inputs` substituted for its primary inputs, and the signals
    /// corresponding to `sub`'s outputs are returned. This is the
    /// hierarchical-composition primitive used to build multi-bit
    /// arithmetic from 1-bit cells.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != sub.n_inputs()` or any input signal is
    /// invalid in this builder.
    pub fn inline(&mut self, sub: &Netlist, inputs: &[Signal]) -> Vec<Signal> {
        assert_eq!(inputs.len(), sub.n_inputs(), "inline needs {} inputs", sub.n_inputs());
        let resolve = |s: Signal, map: &[Signal]| -> Signal {
            match s {
                Signal::Input(i) => inputs[i],
                Signal::Gate(g) => map[g],
                Signal::Const(v) => Signal::Const(v),
            }
        };
        let mut map: Vec<Signal> = Vec::with_capacity(sub.gate_count());
        for (kind, fanin) in sub.gates() {
            let mut mapped = [UNUSED; 3];
            for (m, &s) in mapped.iter_mut().zip(fanin) {
                *m = resolve(s, &map);
            }
            map.push(self.gate(kind, &mapped[..fanin.len()]));
        }
        sub.outputs().map(|s| resolve(s, &map)).collect()
    }

    /// Finalizes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::MalformedNetlist`] when no outputs were declared.
    pub fn finish(self) -> Result<Netlist> {
        if self.outputs.is_empty() {
            return Err(XlacError::MalformedNetlist(format!(
                "netlist '{}' has no outputs",
                self.name
            )));
        }
        Ok(Netlist {
            name: self.name,
            n_inputs: self.n_inputs,
            gates: self.gates,
            outputs: self.outputs,
        })
    }

    fn check_signal(&self, s: Signal) {
        match s {
            Signal::Input(i) => assert!(
                i < self.n_inputs,
                "signal references input {i} but netlist has {} inputs",
                self.n_inputs
            ),
            Signal::Gate(g) => assert!(
                g < self.gates.len(),
                "signal references gate {g} created later (topological order violated)"
            ),
            Signal::Const(_) => {}
        }
    }
}

impl Netlist {
    /// The netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gate instances.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Iterates the gate instances in topological order as
    /// `(kind, fanin)` pairs.
    pub fn gates(&self) -> impl Iterator<Item = (GateKind, &[Signal])> {
        self.gates.iter().map(|g| (g.kind, g.fanin()))
    }

    /// Iterates the primary output signals in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = Signal> + '_ {
        self.outputs.iter().copied()
    }

    /// Number of instances of a particular cell kind.
    #[must_use]
    pub fn count_of(&self, kind: GateKind) -> usize {
        self.gates.iter().filter(|g| g.kind == kind).count()
    }

    /// Structural area: the sum of all cell areas, in gate equivalents.
    #[must_use]
    pub fn area_ge(&self) -> f64 {
        // `+ 0.0` normalizes the empty-sum result (-0.0) to +0.0.
        self.gates.iter().map(|g| g.kind.area_ge()).sum::<f64>() + 0.0
    }

    /// Critical-path delay in normalized gate delays (longest
    /// input-to-output path through cell delays).
    #[must_use]
    pub fn delay(&self) -> f64 {
        let mut arrival = vec![0.0f64; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let worst_in = g
                .fanin()
                .iter()
                .map(|s| match s {
                    Signal::Gate(j) => arrival[*j],
                    _ => 0.0,
                })
                .fold(0.0, f64::max);
            arrival[i] = worst_in + g.kind.delay();
        }
        self.outputs
            .iter()
            .map(|s| match s {
                Signal::Gate(j) => arrival[*j],
                _ => 0.0,
            })
            .fold(0.0, f64::max)
    }

    /// Evaluates the netlist on a single input vector packed LSB-first
    /// (input 0 in bit 0). Returns the outputs packed LSB-first (output 0 in
    /// bit 0).
    ///
    /// # Panics
    ///
    /// Panics when the netlist has more than 64 inputs or more than 64
    /// outputs: one packed `u64` cannot carry them. Wider netlists
    /// evaluate through [`Netlist::eval_words`].
    #[must_use]
    pub fn eval(&self, inputs: u64) -> u64 {
        let n_outputs = self.outputs.len();
        assert!(
            self.n_inputs <= 64 && n_outputs <= 64,
            "{} inputs / {n_outputs} outputs exceed a packed u64",
            self.n_inputs
        );
        let mut words = [0u64; 64];
        for (i, w) in words[..self.n_inputs].iter_mut().enumerate() {
            *w = if (inputs >> i) & 1 == 1 { u64::MAX } else { 0 };
        }
        let outs = self.eval_words(&words[..self.n_inputs]);
        outs.iter().enumerate().fold(0u64, |acc, (i, w)| acc | ((w & 1) << i))
    }

    /// Bit-parallel evaluation: each input word carries 64 independent
    /// patterns in its bit lanes; each returned output word carries the 64
    /// corresponding results.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.n_inputs()`.
    #[must_use]
    pub fn eval_words(&self, inputs: &[u64]) -> Vec<u64> {
        let mut values = Vec::new();
        let mut outputs = Vec::new();
        self.eval_words_into(inputs, &mut values, &mut outputs);
        outputs
    }

    /// Allocation-free variant of [`Netlist::eval_words`] for hot loops
    /// (equivalence checking, switching-power estimation): per-gate values
    /// land in `values` and the output words in `outputs`, both resized as
    /// needed so callers can reuse the buffers across calls.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.n_inputs()`.
    pub fn eval_words_into(&self, inputs: &[u64], values: &mut Vec<u64>, outputs: &mut Vec<u64>) {
        assert_eq!(inputs.len(), self.n_inputs, "expected {} input words", self.n_inputs);
        values.clear();
        values.resize(self.gates.len(), 0);
        for i in 0..self.gates.len() {
            // Gate arity is at most 3: the operands fit a stack array.
            let fanin = self.gates[i].fanin();
            let mut ops = [0u64; 3];
            for (op, s) in ops.iter_mut().zip(fanin) {
                *op = self.resolve(*s, inputs, values);
            }
            values[i] = self.gates[i].kind.eval_word(&ops[..fanin.len()]);
        }
        outputs.clear();
        outputs.extend(self.outputs.iter().map(|s| self.resolve(*s, inputs, values)));
    }

    #[inline]
    fn resolve(&self, s: Signal, inputs: &[u64], values: &[u64]) -> u64 {
        match s {
            Signal::Input(i) => inputs[i],
            Signal::Gate(g) => values[g],
            Signal::Const(true) => u64::MAX,
            Signal::Const(false) => 0,
        }
    }

    /// Estimates average power in nanowatts under a uniform random input
    /// stream of `vectors` vectors (the VCD/SAIF toggle-counting
    /// methodology): dynamic power from per-gate output toggles weighted by
    /// switched capacitance, plus leakage.
    ///
    /// Deterministic for a given `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `vectors < 2`.
    #[must_use]
    pub fn switching_power(&self, vectors: usize, seed: u64) -> f64 {
        assert!(vectors >= 2, "need at least two vectors to observe toggles");
        let mut rng = DefaultRng::seed_from_u64(seed);
        let mut toggles = vec![0u64; self.gates.len()];
        let mut applied = 0usize;

        // Process vectors in 64-pattern words; count toggles between
        // consecutive lanes and across word boundaries. All buffers are
        // reused across words (`eval_words_into`): the loop allocates
        // nothing after the first iteration.
        let mut input_words = vec![0u64; self.n_inputs];
        let mut values: Vec<u64> = Vec::new();
        let mut prev: Vec<u64> = Vec::new();
        let mut outputs: Vec<u64> = Vec::new();
        let mut have_prev = false;
        while applied < vectors {
            let lanes = (vectors - applied).min(64);
            for w in input_words.iter_mut() {
                *w = rng.gen::<u64>() & lane_mask(lanes);
            }
            self.eval_words_into(&input_words, &mut values, &mut outputs);
            for (i, v) in values.iter_mut().enumerate() {
                *v &= lane_mask(lanes);
                // Toggles between adjacent lanes within the word.
                let shifted = *v >> 1;
                let within = (*v ^ shifted) & lane_mask(lanes.saturating_sub(1));
                toggles[i] += u64::from(within.count_ones());
                // Toggle across the word boundary: a full predecessor word
                // always carries 64 lanes, so its last lane is bit 63.
                if have_prev {
                    let last = (prev[i] >> 63) & 1;
                    toggles[i] += (last ^ (*v & 1)) & 1;
                }
            }
            std::mem::swap(&mut prev, &mut values);
            have_prev = true;
            applied += lanes;
        }

        let transitions = (vectors - 1) as f64;
        let dynamic: f64 = self
            .gates
            .iter()
            .zip(&toggles)
            .map(|(g, &t)| (t as f64 / transitions) * g.kind.energy_per_toggle())
            .sum();
        let leakage: f64 = self.gates.iter().map(|g| g.kind.leakage()).sum();
        // `+ 0.0` normalizes the empty-sum result (-0.0) to +0.0.
        dynamic * POWER_SCALE_NW + leakage * LEAKAGE_SCALE_NW + 0.0
    }
}

/// Scale factor mapping normalized switched energy per vector to nanowatts.
///
/// Chosen so a synthesized accurate mirror-style full adder lands in the
/// regime of Table III of the paper (~1100 nW); only relative values carry
/// meaning.
pub const POWER_SCALE_NW: f64 = 512.0;

/// Scale factor for normalized leakage to nanowatts.
pub const LEAKAGE_SCALE_NW: f64 = 10.0;

#[inline]
fn lane_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut b = NetlistBuilder::new("ha", 2);
        let (a, bb) = (b.input(0), b.input(1));
        let s = b.gate(GateKind::Xor2, &[a, bb]);
        let c = b.gate(GateKind::And2, &[a, bb]);
        b.output(s);
        b.output(c);
        b.finish().unwrap()
    }

    #[test]
    fn half_adder_truth() {
        let ha = half_adder();
        assert_eq!(ha.eval(0b00), 0b00);
        assert_eq!(ha.eval(0b01), 0b01);
        assert_eq!(ha.eval(0b10), 0b01);
        assert_eq!(ha.eval(0b11), 0b10);
    }

    /// A 65-input netlist whose only output is input 64.
    fn wide_passthrough() -> Netlist {
        let mut b = NetlistBuilder::new("wide", 65);
        let top = b.input(64);
        b.output(top);
        b.finish().unwrap()
    }

    #[test]
    #[should_panic(expected = "65 inputs / 1 outputs exceed a packed u64")]
    fn scalar_eval_rejects_more_than_64_inputs() {
        let _ = wide_passthrough().eval(1);
    }

    #[test]
    fn structural_metrics() {
        let ha = half_adder();
        assert_eq!(ha.gate_count(), 2);
        assert_eq!(ha.count_of(GateKind::Xor2), 1);
        assert!((ha.area_ge() - (2.33 + 1.33)).abs() < 1e-9);
        // Both gates fed by inputs only: delay = slowest single gate.
        assert!((ha.delay() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn constant_only_netlist() {
        // ApxFA5-style: outputs are wires / constants, zero gates.
        let mut b = NetlistBuilder::new("wires", 2);
        let a = b.input(0);
        b.output(a);
        let k = b.constant(true);
        b.output(k);
        let nl = b.finish().unwrap();
        assert_eq!(nl.gate_count(), 0);
        assert_eq!(nl.area_ge(), 0.0);
        assert_eq!(nl.delay(), 0.0);
        assert_eq!(nl.eval(0b01), 0b11);
        assert_eq!(nl.eval(0b10), 0b10);
    }

    /// A netlist mixing every fanin arity: `Not` (1), `Mux2` (3) and
    /// 2-input gates, with a constant operand.
    fn mixed_arity() -> Netlist {
        let mut b = NetlistBuilder::new("sub", 3);
        let (x, y, sel) = (b.input(0), b.input(1), b.input(2));
        let nx = b.gate(GateKind::Not, &[x]);
        let m = b.gate(GateKind::Mux2, &[nx, y, sel]);
        let k = b.constant(true);
        let a = b.gate(GateKind::And2, &[m, k]);
        let o = b.gate(GateKind::Xor2, &[a, x]);
        b.output(o);
        b.output(m);
        b.finish().unwrap()
    }

    #[test]
    fn inline_round_trips_gates_and_equality_across_arities() {
        let sub = mixed_arity();
        let expect: Vec<(GateKind, Vec<Signal>)> =
            sub.gates().map(|(k, f)| (k, f.to_vec())).collect();
        let arities: Vec<(GateKind, usize)> = expect.iter().map(|(k, f)| (*k, f.len())).collect();
        let mixed =
            [(GateKind::Not, 1), (GateKind::Mux2, 3), (GateKind::And2, 2), (GateKind::Xor2, 2)];
        assert_eq!(arities, mixed);

        // Inlined on its own inputs into an empty builder, the sub-netlist
        // comes back gate for gate and compares equal.
        let mut b = NetlistBuilder::new("sub", 3);
        let ins: Vec<Signal> = (0..3).map(|i| b.input(i)).collect();
        for s in b.inline(&sub, &ins) {
            b.output(s);
        }
        let copy = b.finish().unwrap();
        assert_eq!(copy, sub);
        let got: Vec<(GateKind, Vec<Signal>)> =
            copy.gates().map(|(k, f)| (k, f.to_vec())).collect();
        assert_eq!(got, expect);

        // Behind a prefix gate the indices shift, the shape does not.
        let mut b = NetlistBuilder::new("shifted", 3);
        let (x, y, sel) = (b.input(0), b.input(1), b.input(2));
        let ny = b.gate(GateKind::Not, &[y]);
        let outs = b.inline(&sub, &[x, ny, sel]);
        assert_eq!(outs, [Signal::Gate(4), Signal::Gate(2)]);
        for s in outs {
            b.output(s);
        }
        let shifted = b.finish().unwrap();
        let fanins: Vec<Vec<Signal>> = shifted.gates().map(|(_, f)| f.to_vec()).collect();
        assert_eq!(fanins[2], [Signal::Gate(1), Signal::Gate(0), Signal::Input(2)]);
        assert_eq!(fanins[3], [Signal::Gate(2), Signal::Const(true)]);
        for v in 0..8 {
            let flip_y = v ^ 0b010;
            assert_eq!(shifted.eval(v), sub.eval(flip_y), "vector {v:03b}");
        }

        // Equality still sees every operand: a different fanin differs.
        let mut b = NetlistBuilder::new("sub", 3);
        let (x, y, sel) = (b.input(0), b.input(1), b.input(2));
        let nx = b.gate(GateKind::Not, &[x]);
        let m = b.gate(GateKind::Mux2, &[nx, sel, y]);
        let k = b.constant(true);
        let a = b.gate(GateKind::And2, &[m, k]);
        let o = b.gate(GateKind::Xor2, &[a, x]);
        b.output(o);
        b.output(m);
        assert_ne!(b.finish().unwrap(), sub);
    }

    #[test]
    fn no_outputs_is_rejected() {
        let b = NetlistBuilder::new("empty", 1);
        assert!(matches!(b.finish(), Err(XlacError::MalformedNetlist(_))));
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_reference_panics() {
        let mut b = NetlistBuilder::new("bad", 1);
        let future = Signal::Gate(5);
        b.gate(GateKind::Not, &[future]);
    }

    #[test]
    fn tree_reduction_matches_flat_semantics() {
        for n in 1..=9usize {
            let mut b = NetlistBuilder::new("ortree", n);
            let ops: Vec<Signal> = (0..n).map(|i| b.input(i)).collect();
            let root = b.tree(GateKind::Or2, &ops);
            b.output(root);
            let nl = b.finish().unwrap();
            for v in 0u64..(1 << n) {
                let expect = u64::from(v != 0);
                assert_eq!(nl.eval(v), expect, "or-tree n={n} v={v:b}");
            }
        }
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let mut b = NetlistBuilder::new("andtree", 8);
        let ops: Vec<Signal> = (0..8).map(|i| b.input(i)).collect();
        let root = b.tree(GateKind::And2, &ops);
        b.output(root);
        let nl = b.finish().unwrap();
        // 8 operands → depth 3 AND2 levels → 3 × 1.5 delay.
        assert!((nl.delay() - 4.5).abs() < 1e-9);
        assert_eq!(nl.gate_count(), 7);
    }

    #[test]
    fn empty_tree_yields_identity() {
        let mut b = NetlistBuilder::new("ids", 1);
        let and_id = b.tree(GateKind::And2, &[]);
        let or_id = b.tree(GateKind::Or2, &[]);
        b.output(and_id);
        b.output(or_id);
        let nl = b.finish().unwrap();
        assert_eq!(nl.eval(0), 0b01); // AND identity 1, OR identity 0
    }

    #[test]
    fn word_eval_matches_scalar_eval() {
        let ha = half_adder();
        // Pack all four input patterns into lanes 0..4.
        let a_word = 0b1010u64; // a = pattern bit per lane
        let b_word = 0b1100u64;
        let outs = ha.eval_words(&[a_word, b_word]);
        for lane in 0..4 {
            let a = (a_word >> lane) & 1;
            let b = (b_word >> lane) & 1;
            let scalar = ha.eval(a | (b << 1));
            let sum = (outs[0] >> lane) & 1;
            let carry = (outs[1] >> lane) & 1;
            assert_eq!(sum | (carry << 1), scalar, "lane {lane}");
        }
    }

    #[test]
    fn switching_power_is_deterministic_and_positive() {
        let ha = half_adder();
        let p1 = ha.switching_power(4096, 42);
        let p2 = ha.switching_power(4096, 42);
        assert_eq!(p1, p2);
        assert!(p1 > 0.0);
        // A different seed gives a close but not necessarily equal estimate.
        let p3 = ha.switching_power(4096, 43);
        assert!((p1 - p3).abs() / p1 < 0.2);
    }

    #[test]
    fn more_logic_means_more_power() {
        let ha = half_adder();
        // A "double half adder" with twice the logic.
        let mut b = NetlistBuilder::new("ha2", 2);
        let (a, bb) = (b.input(0), b.input(1));
        let s1 = b.gate(GateKind::Xor2, &[a, bb]);
        let c1 = b.gate(GateKind::And2, &[a, bb]);
        let s2 = b.gate(GateKind::Xor2, &[a, bb]);
        let c2 = b.gate(GateKind::And2, &[a, bb]);
        let s = b.gate(GateKind::Or2, &[s1, s2]);
        let c = b.gate(GateKind::Or2, &[c1, c2]);
        b.output(s);
        b.output(c);
        let big = b.finish().unwrap();
        assert!(big.switching_power(4096, 1) > ha.switching_power(4096, 1));
    }

    #[test]
    fn zero_gate_netlist_has_zero_power() {
        let mut b = NetlistBuilder::new("wire", 1);
        let a = b.input(0);
        b.output(a);
        let nl = b.finish().unwrap();
        assert_eq!(nl.switching_power(1024, 9), 0.0);
    }
}
