//! A dataflow-graph framework for composing approximate accelerators,
//! with statistical error-masking analysis.
//!
//! Section 6 of the paper: accelerators are datapaths of (approximate)
//! arithmetic operators, and "it may happen that some logical operations
//! mask the erroneous output of approximate adders/multipliers — performing
//! such a statistical error analysis and leveraging it to automatically
//! generate efficient approximate accelerators is an open research
//! problem". [`Dataflow`] is the substrate for that analysis: build a graph
//! of operator nodes bound to concrete (approximate) implementations, then
//! run [`Dataflow::masking_analysis`] to measure, per node, how often its
//! local errors are masked before reaching the outputs.
//!
//! # Example
//!
//! ```
//! use xlac_accel::dataflow::Dataflow;
//! use xlac_adders::{AccurateAdder, FullAdderKind, RippleCarryAdder};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! // out = (i0 + i1) + (i2 + i3), with one approximate adder.
//! let mut g = Dataflow::new(4, 8);
//! let approx = g.register_adder(Box::new(
//!     RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4)?,
//! ));
//! let exact = g.register_adder(Box::new(AccurateAdder::new(9)));
//! let s0 = g.add(approx, g.input(0), g.input(1))?;
//! let s1 = g.add(approx, g.input(2), g.input(3))?;
//! let out = g.add(exact, s0, s1)?;
//! g.mark_output(out);
//! let outs = g.eval(&[1, 2, 3, 4])?;
//! assert_eq!(outs.len(), 1);
//! # Ok(())
//! # }
//! ```

use xlac_adders::{Adder, Subtractor};
use xlac_core::bits;
use xlac_core::error::{Result, XlacError};
use xlac_core::rng::{DefaultRng, Rng};
use xlac_multipliers::Multiplier;
use xlac_obs::{obs_count, obs_span};

/// Constant left shift with wiring semantics: shifting a 64-bit value by
/// 64 or more produces 0 (every bit falls off the top), never a wrapped
/// shift amount. `value << amount` would panic in debug builds and
/// silently use `amount % 64` in release builds.
fn shl_wired(value: u64, amount: usize) -> u64 {
    u32::try_from(amount).ok().and_then(|a| value.checked_shl(a)).unwrap_or(0)
}

/// Identifier of a node inside a [`Dataflow`].
pub type NodeId = usize;

/// A dataflow node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// External input by index.
    Input(usize),
    /// A constant operand.
    Const(u64),
    /// Addition through registered adder `op`.
    Add {
        /// Index into the adder bank.
        op: usize,
        /// Left operand node.
        lhs: NodeId,
        /// Right operand node.
        rhs: NodeId,
    },
    /// Absolute difference through registered adder `op` (wrapped in a
    /// subtractor stage).
    AbsDiff {
        /// Index into the adder bank.
        op: usize,
        /// Left operand node.
        lhs: NodeId,
        /// Right operand node.
        rhs: NodeId,
    },
    /// Multiplication through registered multiplier `op`.
    Mul {
        /// Index into the multiplier bank.
        op: usize,
        /// Left operand node.
        lhs: NodeId,
        /// Right operand node.
        rhs: NodeId,
    },
    /// Constant left shift (free wiring in hardware).
    Shl {
        /// Operand node.
        value: NodeId,
        /// Shift amount.
        amount: usize,
    },
}

/// A dataflow accelerator: a DAG of operator nodes over registered
/// (possibly approximate) arithmetic implementations.
pub struct Dataflow {
    n_inputs: usize,
    input_width: usize,
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    adders: Vec<Box<dyn Adder>>,
    multipliers: Vec<Box<dyn Multiplier>>,
}

impl std::fmt::Debug for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataflow")
            .field("n_inputs", &self.n_inputs)
            .field("nodes", &self.nodes.len())
            .field("outputs", &self.outputs)
            .field("adders", &self.adders.len())
            .field("multipliers", &self.multipliers.len())
            .finish()
    }
}

/// Per-node masking statistics from [`Dataflow::masking_analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct MaskingReport {
    /// The analyzed node.
    pub node: NodeId,
    /// How often the node's operator produced a locally wrong value
    /// (with every *other* operator exact).
    pub local_error_rate: f64,
    /// How often a local error survived to any output.
    pub output_error_rate: f64,
    /// `1 − output_error_rate / local_error_rate` — the fraction of local
    /// errors the downstream dataflow masked (0 when the node never errs).
    pub masking_probability: f64,
}

impl Dataflow {
    /// Creates an empty graph with `n_inputs` external inputs of
    /// `input_width` bits each (inputs drawn uniformly during analysis).
    ///
    /// # Panics
    ///
    /// Panics if `input_width` is 0 or exceeds 32.
    #[must_use]
    pub fn new(n_inputs: usize, input_width: usize) -> Self {
        assert!((1..=32).contains(&input_width), "input width out of 1..=32");
        let nodes = (0..n_inputs).map(Node::Input).collect();
        Dataflow {
            n_inputs,
            input_width,
            nodes,
            outputs: Vec::new(),
            adders: Vec::new(),
            multipliers: Vec::new(),
        }
    }

    /// Registers an adder implementation, returning its bank index.
    pub fn register_adder(&mut self, adder: Box<dyn Adder>) -> usize {
        self.adders.push(adder);
        self.adders.len() - 1
    }

    /// Registers a multiplier implementation, returning its bank index.
    pub fn register_multiplier(&mut self, mul: Box<dyn Multiplier>) -> usize {
        self.multipliers.push(mul);
        self.multipliers.len() - 1
    }

    /// The node for external input `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n_inputs`.
    #[must_use]
    pub fn input(&self, index: usize) -> NodeId {
        assert!(index < self.n_inputs, "input {index} out of range");
        index
    }

    /// Appends a constant node.
    pub fn constant(&mut self, value: u64) -> NodeId {
        self.nodes.push(Node::Const(value));
        self.nodes.len() - 1
    }

    /// Appends an addition node.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] for unknown operator or
    /// node ids.
    pub fn add(&mut self, op: usize, lhs: NodeId, rhs: NodeId) -> Result<NodeId> {
        self.check(op, self.adders.len(), lhs, rhs)?;
        self.nodes.push(Node::Add { op, lhs, rhs });
        Ok(self.nodes.len() - 1)
    }

    /// Appends an absolute-difference node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataflow::add`].
    pub fn abs_diff(&mut self, op: usize, lhs: NodeId, rhs: NodeId) -> Result<NodeId> {
        self.check(op, self.adders.len(), lhs, rhs)?;
        self.nodes.push(Node::AbsDiff { op, lhs, rhs });
        Ok(self.nodes.len() - 1)
    }

    /// Appends a multiplication node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataflow::add`].
    pub fn mul(&mut self, op: usize, lhs: NodeId, rhs: NodeId) -> Result<NodeId> {
        self.check(op, self.multipliers.len(), lhs, rhs)?;
        self.nodes.push(Node::Mul { op, lhs, rhs });
        Ok(self.nodes.len() - 1)
    }

    /// Appends a constant-shift node.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] for an unknown node id.
    pub fn shl(&mut self, value: NodeId, amount: usize) -> Result<NodeId> {
        if value >= self.nodes.len() {
            return Err(XlacError::InvalidConfiguration(format!("unknown node {value}")));
        }
        self.nodes.push(Node::Shl { value, amount });
        Ok(self.nodes.len() - 1)
    }

    /// Marks a node as a primary output.
    ///
    /// # Panics
    ///
    /// Panics if the node id is unknown.
    pub fn mark_output(&mut self, node: NodeId) {
        assert!(node < self.nodes.len(), "unknown node {node}");
        self.outputs.push(node);
    }

    fn check(&self, op: usize, bank: usize, lhs: NodeId, rhs: NodeId) -> Result<()> {
        if op >= bank {
            return Err(XlacError::InvalidConfiguration(format!("unknown operator {op}")));
        }
        if lhs >= self.nodes.len() || rhs >= self.nodes.len() {
            return Err(XlacError::InvalidConfiguration(format!(
                "operand nodes {lhs}/{rhs} out of range"
            )));
        }
        Ok(())
    }

    /// Evaluates the graph with every operator in its configured
    /// (approximate) implementation.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::ShapeMismatch`] unless exactly `n_inputs`
    /// values are supplied, or [`XlacError::EmptyInput`] when no outputs
    /// are marked.
    pub fn eval(&self, inputs: &[u64]) -> Result<Vec<u64>> {
        self.eval_with(inputs, &|_| true)
    }

    /// Evaluates the graph with every operator exact (the behavioural
    /// reference model).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataflow::eval`].
    pub fn eval_exact(&self, inputs: &[u64]) -> Result<Vec<u64>> {
        self.eval_with(inputs, &|_| false)
    }

    /// Evaluates with per-node control: nodes for which `use_approx`
    /// returns `false` run their operator's exact reference instead. This
    /// is the fault-isolation hook of the masking analysis.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataflow::eval`].
    pub fn eval_with(
        &self,
        inputs: &[u64],
        use_approx: &dyn Fn(NodeId) -> bool,
    ) -> Result<Vec<u64>> {
        if inputs.len() != self.n_inputs {
            return Err(XlacError::ShapeMismatch {
                expected: (1, self.n_inputs),
                actual: (1, inputs.len()),
            });
        }
        if self.outputs.is_empty() {
            return Err(XlacError::EmptyInput("dataflow outputs"));
        }
        let mut values = vec![0u64; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            values[id] = match *node {
                Node::Input(i) => bits::truncate(inputs[i], self.input_width),
                Node::Const(v) => v,
                Node::Add { op, lhs, rhs } => {
                    let a = &self.adders[op];
                    if use_approx(id) {
                        a.add(values[lhs], values[rhs])
                    } else {
                        a.exact(values[lhs], values[rhs])
                    }
                }
                Node::AbsDiff { op, lhs, rhs } => {
                    let (x, y) = (values[lhs], values[rhs]);
                    if use_approx(id) {
                        Subtractor::new(&*self.adders[op]).abs_diff(x, y)
                    } else {
                        let w = self.adders[op].width();
                        bits::truncate(x, w).abs_diff(bits::truncate(y, w))
                    }
                }
                Node::Mul { op, lhs, rhs } => {
                    let m = &self.multipliers[op];
                    if use_approx(id) {
                        m.mul(values[lhs], values[rhs])
                    } else {
                        m.exact(values[lhs], values[rhs])
                    }
                }
                Node::Shl { value, amount } => shl_wired(values[value], amount),
            };
        }
        Ok(self.outputs.iter().map(|&o| values[o]).collect())
    }

    /// Statistical error-masking analysis: for each operator node, run
    /// `samples` random input vectors with *only that node* approximate and
    /// measure how often its local error reaches an output.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (no outputs marked).
    pub fn masking_analysis(&self, samples: u64, seed: u64) -> Result<Vec<MaskingReport>> {
        let _span = obs_span!("accel.masking_analysis");
        let mut rng = DefaultRng::seed_from_u64(seed);
        let operator_nodes: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                matches!(n, Node::Add { .. } | Node::AbsDiff { .. } | Node::Mul { .. })
            })
            .map(|(id, _)| id)
            .collect();
        obs_count!("accel.masking.nodes", operator_nodes.len() as u64);
        obs_count!("accel.masking.samples", operator_nodes.len() as u64 * samples);
        let mask = bits::mask(self.input_width);

        let mut reports = Vec::with_capacity(operator_nodes.len());
        for &node in &operator_nodes {
            let mut local_errors = 0u64;
            let mut output_errors = 0u64;
            for _ in 0..samples {
                let inputs: Vec<u64> =
                    (0..self.n_inputs).map(|_| rng.gen::<u64>() & mask).collect();
                let exact_out = self.eval_exact(&inputs)?;
                let faulty_out = self.eval_with(&inputs, &|id| id == node)?;
                // Local error: does the node's own value differ? Re-derive
                // by comparing the single-fault run against the exact run
                // at the node itself.
                let node_exact = self.node_value(&inputs, node, &|_| false)?;
                let node_faulty = self.node_value(&inputs, node, &|id| id == node)?;
                if node_exact != node_faulty {
                    local_errors += 1;
                    if exact_out != faulty_out {
                        output_errors += 1;
                    }
                }
            }
            // A 0-sample analysis reports explicit zero rates, not 0/0 NaN.
            let local_rate = if samples == 0 { 0.0 } else { local_errors as f64 / samples as f64 };
            let output_rate =
                if samples == 0 { 0.0 } else { output_errors as f64 / samples as f64 };
            let masking = if local_errors == 0 {
                0.0
            } else {
                1.0 - output_errors as f64 / local_errors as f64
            };
            reports.push(MaskingReport {
                node,
                local_error_rate: local_rate,
                output_error_rate: output_rate,
                masking_probability: masking,
            });
        }
        Ok(reports)
    }

    /// The value of a single node under the given approximation filter.
    fn node_value(
        &self,
        inputs: &[u64],
        node: NodeId,
        use_approx: &dyn Fn(NodeId) -> bool,
    ) -> Result<u64> {
        // Evaluate the full graph and read the intermediate — acceptable
        // cost at analysis sizes.
        let mut values = vec![0u64; self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            values[id] = match *n {
                Node::Input(i) => bits::truncate(inputs[i], self.input_width),
                Node::Const(v) => v,
                Node::Add { op, lhs, rhs } => {
                    if use_approx(id) {
                        self.adders[op].add(values[lhs], values[rhs])
                    } else {
                        self.adders[op].exact(values[lhs], values[rhs])
                    }
                }
                Node::AbsDiff { op, lhs, rhs } => {
                    let (x, y) = (values[lhs], values[rhs]);
                    if use_approx(id) {
                        Subtractor::new(&*self.adders[op]).abs_diff(x, y)
                    } else {
                        let w = self.adders[op].width();
                        bits::truncate(x, w).abs_diff(bits::truncate(y, w))
                    }
                }
                Node::Mul { op, lhs, rhs } => {
                    if use_approx(id) {
                        self.multipliers[op].mul(values[lhs], values[rhs])
                    } else {
                        self.multipliers[op].exact(values[lhs], values[rhs])
                    }
                }
                Node::Shl { value, amount } => shl_wired(values[value], amount),
            };
            if id == node {
                return Ok(values[id]);
            }
        }
        Ok(values[node])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_adders::{AccurateAdder, FullAdderKind, RippleCarryAdder};
    use xlac_multipliers::{Mul2x2Kind, RecursiveMultiplier, SumMode};

    fn approx_adder(width: usize, lsbs: usize) -> Box<dyn Adder> {
        Box::new(RippleCarryAdder::with_approx_lsbs(width, FullAdderKind::Apx3, lsbs).unwrap())
    }

    #[test]
    fn straight_line_sum() {
        let mut g = Dataflow::new(3, 8);
        let a = g.register_adder(Box::new(AccurateAdder::new(10)));
        let s0 = g.add(a, g.input(0), g.input(1)).unwrap();
        let s1 = g.add(a, s0, g.input(2)).unwrap();
        g.mark_output(s1);
        assert_eq!(g.eval(&[10, 20, 30]).unwrap(), vec![60]);
        assert_eq!(g.eval_exact(&[10, 20, 30]).unwrap(), vec![60]);
    }

    #[test]
    fn constants_and_shifts() {
        let mut g = Dataflow::new(1, 8);
        let a = g.register_adder(Box::new(AccurateAdder::new(12)));
        let k = g.constant(5);
        let sh = g.shl(g.input(0), 2).unwrap();
        let s = g.add(a, sh, k).unwrap();
        g.mark_output(s);
        assert_eq!(g.eval(&[3]).unwrap(), vec![17]); // 3<<2 + 5
    }

    #[test]
    fn abs_diff_node() {
        let mut g = Dataflow::new(2, 8);
        let a = g.register_adder(Box::new(AccurateAdder::new(8)));
        let d = g.abs_diff(a, g.input(0), g.input(1)).unwrap();
        g.mark_output(d);
        assert_eq!(g.eval(&[30, 100]).unwrap(), vec![70]);
        assert_eq!(g.eval(&[100, 30]).unwrap(), vec![70]);
    }

    #[test]
    fn multiplier_node() {
        let mut g = Dataflow::new(2, 4);
        let m = g.register_multiplier(Box::new(
            RecursiveMultiplier::new(4, Mul2x2Kind::Accurate, SumMode::Accurate).unwrap(),
        ));
        let p = g.mul(m, g.input(0), g.input(1)).unwrap();
        g.mark_output(p);
        assert_eq!(g.eval(&[7, 9]).unwrap(), vec![63]);
    }

    #[test]
    fn approximate_and_exact_eval_differ() {
        let mut g = Dataflow::new(2, 8);
        let a = g.register_adder(approx_adder(8, 6));
        let s = g.add(a, g.input(0), g.input(1)).unwrap();
        g.mark_output(s);
        let mut diffs = 0;
        for x in (0u64..256).step_by(17) {
            for y in (0u64..256).step_by(13) {
                if g.eval(&[x, y]).unwrap() != g.eval_exact(&[x, y]).unwrap() {
                    diffs += 1;
                }
            }
        }
        assert!(diffs > 0, "six approximate LSBs must produce visible errors");
    }

    #[test]
    fn validation_errors() {
        let mut g = Dataflow::new(2, 8);
        assert!(g.add(0, 0, 1).is_err()); // no adder registered
        let a = g.register_adder(Box::new(AccurateAdder::new(8)));
        assert!(g.add(a, 0, 99).is_err()); // unknown node
        assert!(g.eval(&[1, 2]).is_err()); // no outputs yet
        let s = g.add(a, 0, 1).unwrap();
        g.mark_output(s);
        assert!(g.eval(&[1]).is_err()); // wrong input count
    }

    #[test]
    fn masking_analysis_detects_downstream_masking() {
        // out = max-like masking: |(i0 + i1) - (i0 + i1)| == 0 would be
        // fully masked; instead use (approx sum) >> 6 which masks low-bit
        // errors structurally.
        let mut g = Dataflow::new(2, 8);
        let apx = g.register_adder(approx_adder(9, 4));
        let s = g.add(apx, g.input(0), g.input(1)).unwrap();
        let sh = g.shl(s, 0).unwrap(); // identity — no masking path
        g.mark_output(sh);
        let reports = g.masking_analysis(400, 5).unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(r.local_error_rate > 0.0, "ApxFA3 LSBs must err under random inputs");
        // Identity output: nothing is masked.
        assert!(r.masking_probability.abs() < 1e-9);
    }

    #[test]
    fn masking_via_downstream_truncation() {
        // The output keeps only bits [6..9) of the sum: errors confined to
        // the 4 approximated LSBs are usually (not always — carries!)
        // masked.
        let mut g = Dataflow::new(2, 8);
        let apx = g.register_adder(approx_adder(9, 4));
        let acc = g.register_adder(Box::new(AccurateAdder::new(10)));
        let s = g.add(apx, g.input(0), g.input(1)).unwrap();
        // Add a constant 0 through an exact adder, then mask by shifting
        // right… Shl only shifts left, so emulate truncation by comparing
        // shifted values: out = (s << 8) truncated at input width? Instead:
        // route s into an exact add with itself shifted — the masking here
        // comes from the approximate node's errors cancelling in |x - x|.
        let d = g.abs_diff(acc, s, s).unwrap();
        g.mark_output(d);
        let reports = g.masking_analysis(300, 9).unwrap();
        // |s - s| = 0 regardless of s's value: full masking.
        let r = reports.iter().find(|r| r.node == s).unwrap();
        assert!(r.local_error_rate > 0.0);
        assert!((r.masking_probability - 1.0).abs() < 1e-9, "self-difference masks everything");
    }

    #[test]
    fn oversized_shift_clears_instead_of_wrapping() {
        // amount ≥ 64 is all-bits-off-the-top wiring: the result is 0, in
        // debug and release builds alike.
        let mut g = Dataflow::new(1, 8);
        let a = g.register_adder(Box::new(AccurateAdder::new(8)));
        let sh64 = g.shl(g.input(0), 64).unwrap();
        let sh70 = g.shl(g.input(0), 70).unwrap();
        let s = g.add(a, sh64, sh70).unwrap();
        g.mark_output(s);
        assert_eq!(g.eval(&[0xFF]).unwrap(), vec![0]);
        assert_eq!(g.eval_exact(&[0xFF]).unwrap(), vec![0]);
        // A 63-bit shift still behaves like a plain shift.
        let mut g = Dataflow::new(1, 8);
        let sh = g.shl(g.input(0), 63).unwrap();
        g.mark_output(sh);
        assert_eq!(g.eval(&[1]).unwrap(), vec![1u64 << 63]);
    }

    #[test]
    fn zero_sample_masking_analysis_has_no_nan() {
        let mut g = Dataflow::new(2, 8);
        let apx = g.register_adder(approx_adder(9, 4));
        let s = g.add(apx, g.input(0), g.input(1)).unwrap();
        g.mark_output(s);
        let reports = g.masking_analysis(0, 5).unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.local_error_rate, 0.0);
        assert_eq!(r.output_error_rate, 0.0);
        assert_eq!(r.masking_probability, 0.0);
        assert!(!r.local_error_rate.is_nan() && !r.masking_probability.is_nan());
    }

    #[test]
    fn masking_reports_cover_all_operator_nodes() {
        let mut g = Dataflow::new(4, 8);
        let apx = g.register_adder(approx_adder(9, 2));
        let s0 = g.add(apx, g.input(0), g.input(1)).unwrap();
        let s1 = g.add(apx, g.input(2), g.input(3)).unwrap();
        let s2 = g.add(apx, s0, s1).unwrap();
        g.mark_output(s2);
        let reports = g.masking_analysis(100, 1).unwrap();
        assert_eq!(reports.len(), 3);
        let ids: Vec<NodeId> = reports.iter().map(|r| r.node).collect();
        assert_eq!(ids, vec![s0, s1, s2]);
    }
}
