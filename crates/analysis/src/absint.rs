//! Bit-level abstract interpretation over netlists and JIT bytecode.
//!
//! This module is the generic replacement for the hand-propagated
//! per-datapath bounds of `components`: given any `(approximate,
//! exact-reference)` [`Netlist`] pair it derives a sound [`ErrorBound`]
//! automatically, with no per-unit code. Three cooperating abstract
//! domains run over the gate graph (DESIGN.md §16):
//!
//! * **Ternary** ([`Tern`]) — classic 0/1/X constant propagation with
//!   controlling-value dominance. This is what a structural X-prop sees;
//!   it deliberately ignores the input distribution so the lint layer can
//!   compare it against the stronger domains (rules XL011/XL013).
//! * **One-probability intervals** ([`ProbInterval`]) — for each net an
//!   interval `[lo, hi]` containing `P[net = 1]` under the analysis
//!   [`InputDistribution`]. Transfer functions use the Fréchet
//!   inequalities, so they are sound under *arbitrary correlation*
//!   between fanins — reconvergent fanout can only lose tightness,
//!   never soundness.
//! * **Small-support exact cones** ([`Cone`]) — while a net's input
//!   support stays below [`AbsintOptions::cone_limit`] variables, the
//!   analysis carries the net's exact truth table over that support.
//!   Cones recover the precision the interval domain loses at
//!   reconvergence (an `XOR(a, a)` is proven constant 0, not `[0, 1]`),
//!   and collapse the probability interval to a point.
//!
//! Word-level results come from folding per-bit facts: the interval of a
//! `k`-bit output word, and — through a miter over the pair — sound
//! mean-error and error-rate bounds (`E|e| ≤ Σ 2^k·P_hi[diff_k]` by the
//! triangle inequality, `P[err] ≤ Σ P_hi[diff_k]` by the union bound).
//! The worst-case directions come from a branch-and-bound over ternary
//! partial input assignments whose leaves are evaluated exhaustively
//! bit-parallel; on budget exhaustion the unexplored frontier contributes
//! its interval bound, so the result is *anytime-sound*.
//!
//! A second front-end runs the same domains over JIT
//! [`CompiledProgram`] bytecode (see [`analyze_program`]), so bounds can
//! be derived for the form that actually executes in the serving path.

use xlac_adders::FullAdderKind;
use xlac_core::lanes::{from_planes, CountingBlocks};
use xlac_core::XlacError;
use xlac_logic::{GateKind, Netlist, NetlistBuilder, Signal};
use xlac_multipliers::{hw::wallace_netlist, Multiplier, WallaceMultiplier};
use xlac_sim::jit::{CompiledProgram, OpKind, OutSrc};

use crate::bound::ErrorBound;
use crate::symbolic::metrics::{for_each_difference, set_lanes};

/// The ternary constant-propagation domain: definitely 0, definitely 1,
/// or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tern {
    /// The net is 0 for every input vector (as far as X-prop can see).
    Zero,
    /// The net is 1 for every input vector.
    One,
    /// Unknown: both values are considered possible.
    X,
}

impl Tern {
    /// Lattice join (least upper bound): `X` absorbs everything.
    #[must_use]
    pub fn join(self, other: Tern) -> Tern {
        if self == other {
            self
        } else {
            Tern::X
        }
    }

    /// `true` when `bit` is contained in this abstract value.
    #[must_use]
    pub fn contains(self, bit: bool) -> bool {
        match self {
            Tern::Zero => !bit,
            Tern::One => bit,
            Tern::X => true,
        }
    }

    /// The singleton abstraction of a concrete bit.
    #[must_use]
    pub fn known(bit: bool) -> Tern {
        if bit {
            Tern::One
        } else {
            Tern::Zero
        }
    }
}

/// Ternary complement.
impl std::ops::Not for Tern {
    type Output = Tern;

    fn not(self) -> Tern {
        match self {
            Tern::Zero => Tern::One,
            Tern::One => Tern::Zero,
            Tern::X => Tern::X,
        }
    }
}

/// Ternary transfer function of one gate, with controlling-value
/// dominance (`And2(Zero, X) = Zero` etc.).
#[must_use]
pub fn tern_gate(kind: GateKind, ops: &[Tern]) -> Tern {
    let and = |a: Tern, b: Tern| -> Tern {
        if a == Tern::Zero || b == Tern::Zero {
            Tern::Zero
        } else if a == Tern::One && b == Tern::One {
            Tern::One
        } else {
            Tern::X
        }
    };
    let or = |a: Tern, b: Tern| -> Tern {
        if a == Tern::One || b == Tern::One {
            Tern::One
        } else if a == Tern::Zero && b == Tern::Zero {
            Tern::Zero
        } else {
            Tern::X
        }
    };
    let xor = |a: Tern, b: Tern| -> Tern {
        match (a, b) {
            (Tern::X, _) | (_, Tern::X) => Tern::X,
            (x, y) => Tern::known((x == Tern::One) != (y == Tern::One)),
        }
    };
    match kind {
        GateKind::Not => !ops[0],
        GateKind::Buf => ops[0],
        GateKind::And2 => and(ops[0], ops[1]),
        GateKind::Or2 => or(ops[0], ops[1]),
        GateKind::Nand2 => !and(ops[0], ops[1]),
        GateKind::Nor2 => !or(ops[0], ops[1]),
        GateKind::Xor2 => xor(ops[0], ops[1]),
        GateKind::Xnor2 => !xor(ops[0], ops[1]),
        GateKind::Mux2 => match ops[2] {
            Tern::Zero => ops[0],
            Tern::One => ops[1],
            Tern::X => ops[0].join(ops[1]),
        },
    }
}

/// An interval `[lo, hi] ⊆ [0, 1]` containing a net's one-probability
/// under the analysis input distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbInterval {
    /// Lower bound on `P[net = 1]`.
    pub lo: f64,
    /// Upper bound on `P[net = 1]`.
    pub hi: f64,
}

impl ProbInterval {
    /// The full unknown interval `[0, 1]`.
    pub const TOP: ProbInterval = ProbInterval { lo: 0.0, hi: 1.0 };

    /// A point interval at an exactly known probability.
    #[must_use]
    pub fn exact(p: f64) -> ProbInterval {
        let p = p.clamp(0.0, 1.0);
        ProbInterval { lo: p, hi: p }
    }

    /// `true` when `p` lies inside the interval (with float slop).
    #[must_use]
    pub fn contains(&self, p: f64) -> bool {
        p >= self.lo - 1e-9 && p <= self.hi + 1e-9
    }

    /// `true` when `other` is contained in `self` (with float slop).
    #[must_use]
    pub fn encloses(&self, other: &ProbInterval) -> bool {
        self.lo <= other.lo + 1e-9 && self.hi >= other.hi - 1e-9
    }

    /// Interval hull (lattice join).
    #[must_use]
    pub fn join(&self, other: &ProbInterval) -> ProbInterval {
        ProbInterval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Complement: `P[!x] = 1 − P[x]`.
    #[must_use]
    pub fn not(&self) -> ProbInterval {
        ProbInterval { lo: 1.0 - self.hi, hi: 1.0 - self.lo }
    }

    fn clamped(lo: f64, hi: f64) -> ProbInterval {
        ProbInterval { lo: lo.clamp(0.0, 1.0), hi: hi.clamp(0.0, 1.0) }
    }

    /// Fréchet conjunction: sound for arbitrarily correlated fanins.
    #[must_use]
    pub fn and(&self, o: &ProbInterval) -> ProbInterval {
        ProbInterval::clamped((self.lo + o.lo - 1.0).max(0.0), self.hi.min(o.hi))
    }

    /// Fréchet disjunction.
    #[must_use]
    pub fn or(&self, o: &ProbInterval) -> ProbInterval {
        ProbInterval::clamped(self.lo.max(o.lo), self.hi + o.hi)
    }

    /// Fréchet exclusive-or: `P[a⊕b] ∈ [|pa−pb|, min(pa+pb, 2−pa−pb)]`
    /// extended to intervals.
    #[must_use]
    pub fn xor(&self, o: &ProbInterval) -> ProbInterval {
        let lo = (self.lo - o.hi).max(o.lo - self.hi).max(0.0);
        let hi = (self.hi + o.hi).min(2.0 - self.lo - o.lo);
        ProbInterval::clamped(lo, hi)
    }

    /// 2:1 mux `d0·!sel + d1·sel`: the two events are disjoint, so their
    /// probabilities add exactly; each conjunct uses the Fréchet bound.
    #[must_use]
    pub fn mux(&self, d1: &ProbInterval, sel: &ProbInterval) -> ProbInterval {
        let a = self.and(&sel.not());
        let b = d1.and(sel);
        ProbInterval::clamped(a.lo + b.lo, a.hi + b.hi)
    }
}

/// Probability-interval transfer function of one gate.
#[must_use]
pub fn prob_gate(kind: GateKind, ops: &[ProbInterval]) -> ProbInterval {
    match kind {
        GateKind::Not => ops[0].not(),
        GateKind::Buf => ops[0],
        GateKind::And2 => ops[0].and(&ops[1]),
        GateKind::Or2 => ops[0].or(&ops[1]),
        GateKind::Nand2 => ops[0].and(&ops[1]).not(),
        GateKind::Nor2 => ops[0].or(&ops[1]).not(),
        GateKind::Xor2 => ops[0].xor(&ops[1]),
        GateKind::Xnor2 => ops[0].xor(&ops[1]).not(),
        GateKind::Mux2 => ops[0].mux(&ops[1], &ops[2]),
    }
}

/// The exact function of a net over a small input support: the sorted
/// support variables plus the net's truth table over them (bit `i` of the
/// packed table is the value at support assignment `i`, LSB = first
/// support variable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cone {
    support: Vec<u32>,
    table: Vec<u64>,
}

impl Cone {
    fn from_const(v: bool) -> Cone {
        Cone { support: Vec::new(), table: vec![u64::from(v)] }
    }

    fn from_var(i: u32) -> Cone {
        Cone { support: vec![i], table: vec![0b10] }
    }

    /// The sorted input-variable support of the cone.
    #[must_use]
    pub fn support(&self) -> &[u32] {
        &self.support
    }

    fn rows(&self) -> u64 {
        1u64 << self.support.len()
    }

    fn bit(&self, idx: u64) -> bool {
        (self.table[(idx >> 6) as usize] >> (idx & 63)) & 1 == 1
    }

    /// The constant value of the cone, when it has one.
    #[must_use]
    pub fn constant(&self) -> Option<bool> {
        let rows = self.rows();
        if (0..rows).all(|i| !self.bit(i)) {
            Some(false)
        } else if (0..rows).all(|i| self.bit(i)) {
            Some(true)
        } else {
            None
        }
    }

    /// Exact one-probability of the cone under independent inputs drawn
    /// from `dist`.
    #[must_use]
    pub fn prob(&self, dist: &InputDistribution) -> f64 {
        if dist.is_uniform() {
            let ones: u32 = self.table.iter().map(|w| w.count_ones()).sum::<u32>()
                - if self.support.len() < 6 {
                    // Mask padding bits above 2^k in the single word.
                    (self.table[0] & !((1u64 << self.rows()) - 1)).count_ones()
                } else {
                    0
                };
            return f64::from(ones) / self.rows() as f64;
        }
        let mut p = 0.0;
        for idx in 0..self.rows() {
            if !self.bit(idx) {
                continue;
            }
            let mut w = 1.0;
            for (j, &var) in self.support.iter().enumerate() {
                let pv = dist.p_one(var as usize);
                w *= if (idx >> j) & 1 == 1 { pv } else { 1.0 - pv };
            }
            p += w;
        }
        p
    }

    fn not(&self) -> Cone {
        let mut table = self.table.iter().map(|w| !w).collect::<Vec<_>>();
        if self.support.len() < 6 {
            table[0] &= (1u64 << self.rows()) - 1;
        }
        Cone { support: self.support.clone(), table }
    }

    /// Applies `kind` to fanin cones, returning `None` when the union
    /// support exceeds `limit` variables.
    fn gate(kind: GateKind, fanins: &[&Cone], limit: usize) -> Option<Cone> {
        let mut support: Vec<u32> = Vec::new();
        for f in fanins {
            for &v in &f.support {
                if let Err(pos) = support.binary_search(&v) {
                    support.insert(pos, v);
                }
            }
        }
        if support.len() > limit {
            return None;
        }
        let rows = 1u64 << support.len();
        // For each fanin, the position in `support` of each of its vars.
        let maps: Vec<Vec<u32>> = fanins
            .iter()
            .map(|f| {
                f.support.iter().map(|v| support.binary_search(v).expect("subset") as u32).collect()
            })
            .collect();
        let words = rows.div_ceil(64).max(1) as usize;
        let mut table = vec![0u64; words];
        let mut ops = [0u64; 3];
        for idx in 0..rows {
            for (f, fanin) in fanins.iter().enumerate() {
                let mut sub = 0u64;
                for (j, &pos) in maps[f].iter().enumerate() {
                    sub |= ((idx >> pos) & 1) << j;
                }
                ops[f] = u64::from(fanin.bit(sub));
            }
            if kind.eval(&ops[..fanins.len()]) == 1 {
                table[(idx >> 6) as usize] |= 1u64 << (idx & 63);
            }
        }
        Some(Cone { support, table })
    }
}

/// One net's abstract value: the three domains side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsVal {
    /// Structural ternary value (distribution-blind X-propagation).
    pub tern: Tern,
    /// One-probability interval, cone-refined when the cone is present.
    pub p: ProbInterval,
    /// Exact small-support function, while the support stays under
    /// [`AbsintOptions::cone_limit`].
    pub cone: Option<Cone>,
}

impl AbsVal {
    fn constant(v: bool) -> AbsVal {
        AbsVal {
            tern: Tern::known(v),
            p: ProbInterval::exact(if v { 1.0 } else { 0.0 }),
            cone: Some(Cone::from_const(v)),
        }
    }

    fn input(i: usize, dist: &InputDistribution) -> AbsVal {
        AbsVal {
            tern: Tern::X,
            p: ProbInterval::exact(dist.p_one(i)),
            cone: Some(Cone::from_var(i as u32)),
        }
    }

    /// The tightest constancy verdict across domains: the structural
    /// ternary value, refined by the exact cone when one is present.
    #[must_use]
    pub fn refined_tern(&self) -> Tern {
        if let Some(c) = &self.cone {
            if let Some(v) = c.constant() {
                return Tern::known(v);
            }
        }
        self.tern
    }

    fn not(&self, dist: &InputDistribution) -> AbsVal {
        let cone = self.cone.as_ref().map(Cone::not);
        let p = match &cone {
            Some(c) => ProbInterval::exact(c.prob(dist)),
            None => self.p.not(),
        };
        AbsVal { tern: !self.tern, p, cone }
    }
}

/// Applies one gate's transfer function across all three domains.
#[must_use]
pub fn transfer(
    kind: GateKind,
    fanins: &[&AbsVal],
    dist: &InputDistribution,
    opts: &AbsintOptions,
) -> AbsVal {
    let terns: Vec<Tern> = fanins.iter().map(|v| v.tern).collect();
    let probs: Vec<ProbInterval> = fanins.iter().map(|v| v.p).collect();
    let tern = tern_gate(kind, &terns);
    let cone = if fanins.iter().all(|v| v.cone.is_some()) {
        let cones: Vec<&Cone> = fanins.iter().map(|v| v.cone.as_ref().expect("checked")).collect();
        Cone::gate(kind, &cones, opts.cone_limit)
    } else {
        None
    };
    let p = match &cone {
        Some(c) => ProbInterval::exact(c.prob(dist)),
        None => prob_gate(kind, &probs),
    };
    AbsVal { tern, p, cone }
}

/// Independent per-input one-probabilities for the probability domain.
#[derive(Debug, Clone, PartialEq)]
pub struct InputDistribution {
    p: Vec<f64>,
    uniform: bool,
}

impl InputDistribution {
    /// The uniform distribution over `n` inputs (`P[xi = 1] = 1/2`).
    #[must_use]
    pub fn uniform(n: usize) -> InputDistribution {
        InputDistribution { p: vec![0.5; n], uniform: true }
    }

    /// A distribution from explicit per-input one-probabilities
    /// (clamped into `[0, 1]`).
    #[must_use]
    pub fn new(probs: Vec<f64>) -> InputDistribution {
        let p: Vec<f64> = probs.into_iter().map(|v| v.clamp(0.0, 1.0)).collect();
        let uniform = p.iter().all(|&v| v == 0.5);
        InputDistribution { p, uniform }
    }

    /// `P[input i = 1]` (0.5 for indices past the declared vector).
    #[must_use]
    pub fn p_one(&self, i: usize) -> f64 {
        self.p.get(i).copied().unwrap_or(0.5)
    }

    /// `true` when every input is an unbiased coin.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// Probability of one full assignment (`bit i` of `x` = input `i`).
    #[must_use]
    pub fn weight(&self, x: u64, n: usize) -> f64 {
        if self.uniform {
            return (-(n as f64)).exp2();
        }
        let mut w = 1.0;
        for i in 0..n {
            let pv = self.p_one(i);
            w *= if (x >> i) & 1 == 1 { pv } else { 1.0 - pv };
        }
        w
    }
}

/// Engine knobs. The defaults make `derive_error_bound` exact for every
/// unit with ≤ 16 primary inputs while staying cheap on wide datapaths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsintOptions {
    /// Cones are dropped once a net's support exceeds this many inputs.
    pub cone_limit: usize,
    /// Units with at most this many primary inputs are enumerated
    /// exhaustively (bit-parallel), giving exact error metrics.
    pub exhaustive_limit: usize,
    /// Branch-and-bound leaves with at most this many free inputs are
    /// closed by exhaustive bit-parallel evaluation.
    pub leaf_limit: usize,
    /// Branch-and-bound node budget; on exhaustion the remaining
    /// frontier contributes its interval bound (anytime-sound).
    pub node_budget: usize,
}

impl Default for AbsintOptions {
    fn default() -> Self {
        AbsintOptions { cone_limit: 12, exhaustive_limit: 16, leaf_limit: 12, node_budget: 4096 }
    }
}

/// The per-net results of analyzing one netlist.
#[derive(Debug, Clone)]
pub struct NetlistAbs {
    /// Abstract value of each primary input.
    pub inputs: Vec<AbsVal>,
    /// Abstract value of each gate output, in gate order.
    pub gates: Vec<AbsVal>,
    /// Abstract value of each primary output.
    pub outputs: Vec<AbsVal>,
}

impl NetlistAbs {
    /// `[lo, hi]` on the LSB-first output word: bit `k` contributes
    /// `2^k` to `lo` when provably 1 and to `hi` unless provably 0.
    #[must_use]
    pub fn word_interval(&self) -> (u128, u128) {
        word_interval(&self.outputs)
    }
}

/// Word interval of an LSB-first vector of abstract bits.
#[must_use]
pub fn word_interval(bits: &[AbsVal]) -> (u128, u128) {
    let mut lo = 0u128;
    let mut hi = 0u128;
    for (k, v) in bits.iter().enumerate() {
        match v.refined_tern() {
            Tern::One => {
                lo += 1u128 << k;
                hi += 1u128 << k;
            }
            Tern::X => hi += 1u128 << k,
            Tern::Zero => {}
        }
    }
    (lo, hi)
}

/// Runs the three domains over a netlist under `dist`.
#[must_use]
pub fn analyze_netlist(nl: &Netlist, dist: &InputDistribution, opts: &AbsintOptions) -> NetlistAbs {
    let inputs: Vec<AbsVal> = (0..nl.n_inputs()).map(|i| AbsVal::input(i, dist)).collect();
    let mut gates: Vec<AbsVal> = Vec::with_capacity(nl.gate_count());
    for (kind, fanin) in nl.gates() {
        let ops: Vec<AbsVal> = fanin.iter().map(|s| resolve_abs(s, &inputs, &gates)).collect();
        let refs: Vec<&AbsVal> = ops.iter().collect();
        gates.push(transfer(kind, &refs, dist, opts));
    }
    let outputs: Vec<AbsVal> = nl.outputs().map(|s| resolve_abs(&s, &inputs, &gates)).collect();
    NetlistAbs { inputs, gates, outputs }
}

fn resolve_abs(s: &Signal, inputs: &[AbsVal], gates: &[AbsVal]) -> AbsVal {
    match *s {
        Signal::Input(i) => inputs[i].clone(),
        Signal::Gate(g) => gates[g].clone(),
        Signal::Const(v) => AbsVal::constant(v),
    }
}

/// Runs the domains over JIT bytecode: the second front-end. Register
/// `i < n_inputs` holds primary input `i`; results are the abstract
/// values of the program's primary outputs.
#[must_use]
pub fn analyze_program(
    prog: &CompiledProgram,
    dist: &InputDistribution,
    opts: &AbsintOptions,
) -> Vec<AbsVal> {
    let n = prog.n_inputs();
    let mut regs: Vec<AbsVal> = (0..prog.n_regs())
        .map(|r| if r < n { AbsVal::input(r, dist) } else { AbsVal::constant(false) })
        .collect();
    for op in prog.ops() {
        let (a, b, c) = (op.a as usize, op.b as usize, op.c as usize);
        let val = match op.kind {
            k if k == OpKind::And as u8 => {
                transfer(GateKind::And2, &[&regs[a], &regs[b]], dist, opts)
            }
            k if k == OpKind::Or as u8 => {
                transfer(GateKind::Or2, &[&regs[a], &regs[b]], dist, opts)
            }
            k if k == OpKind::Xor as u8 => {
                transfer(GateKind::Xor2, &[&regs[a], &regs[b]], dist, opts)
            }
            k if k == OpKind::AndNotA as u8 => {
                let na = regs[a].not(dist);
                transfer(GateKind::And2, &[&na, &regs[b]], dist, opts)
            }
            k if k == OpKind::OrNotA as u8 => {
                let na = regs[a].not(dist);
                transfer(GateKind::Or2, &[&na, &regs[b]], dist, opts)
            }
            k if k == OpKind::Mux as u8 => {
                // dst = (a & !c) | (b & c): Mux2 operands [d0, d1, sel].
                transfer(GateKind::Mux2, &[&regs[a], &regs[b], &regs[c]], dist, opts)
            }
            _ => regs[a].not(dist),
        };
        regs[op.dst as usize] = val;
    }
    prog.output_srcs()
        .iter()
        .map(|src| match *src {
            OutSrc::Const(v) => AbsVal::constant(v),
            OutSrc::Reg { reg, invert } => {
                let v = &regs[reg as usize];
                if invert {
                    v.not(dist)
                } else {
                    v.clone()
                }
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Error-bound derivation from an (approx, exact) pair.
// ---------------------------------------------------------------------------

/// Derives a sound [`ErrorBound`] for `approx` against the exact
/// reference `exact` under uniform inputs with default options.
///
/// # Errors
///
/// Fails when the pair does not share an input count or an output word
/// is wider than 64 bits.
pub fn derive_error_bound(approx: &Netlist, exact: &Netlist) -> Result<ErrorBound, XlacError> {
    let dist = InputDistribution::uniform(approx.n_inputs());
    derive_error_bound_with(approx, exact, &dist, &AbsintOptions::default())
}

/// Derives a sound [`ErrorBound`] under an explicit distribution and
/// engine options. `over`/`under` are distribution-free (worst case over
/// all inputs); `mean_abs`/`error_rate_bound` hold under `dist` with
/// independent inputs.
///
/// # Errors
///
/// Fails when the pair does not share an input count or an output word
/// is wider than 64 bits.
pub fn derive_error_bound_with(
    approx: &Netlist,
    exact: &Netlist,
    dist: &InputDistribution,
    opts: &AbsintOptions,
) -> Result<ErrorBound, XlacError> {
    let n = approx.n_inputs();
    if exact.n_inputs() != n {
        return Err(XlacError::InvalidConfiguration(format!(
            "absint: input arity mismatch ({} vs {})",
            n,
            exact.n_inputs()
        )));
    }
    if approx.n_outputs().max(exact.n_outputs()) > 64 {
        return Err(XlacError::InvalidConfiguration(format!(
            "absint: output words wider than 64 bits ({} vs {})",
            approx.n_outputs(),
            exact.n_outputs()
        )));
    }
    if n <= opts.exhaustive_limit && n <= 24 {
        return Ok(exhaustive_bound(approx, exact, dist));
    }
    let over = bnb_max_diff(approx, exact, opts);
    let under = bnb_max_diff(exact, approx, opts);
    let (mean_abs, rate) = miter_mean_rate(approx, exact, dist, opts);
    Ok(ErrorBound { over, under, mean_abs, error_rate_bound: rate })
}

fn lane_planes(n: usize, fixed: &[Option<bool>], free: &[usize], block: u64) -> Vec<u64> {
    // Enumeration planes: lane `l` of block `b` is free-assignment
    // index `b·64 + l`; fixed inputs replicate their constant.
    let mut planes = vec![0u64; n];
    for (i, f) in fixed.iter().enumerate() {
        if let Some(true) = f {
            planes[i] = u64::MAX;
        }
    }
    for (j, &i) in free.iter().enumerate() {
        planes[i] = CountingBlocks::plane(j, block);
    }
    planes
}

/// Exact exhaustive metrics for small input counts, on the exhaustive
/// metrics engine's difference planes: the extremes are its masked
/// maxima, and the distribution weight is one multiply per differing
/// lane, summed in ascending assignment order (the `f64` sums round the
/// same only in that order).
fn exhaustive_bound(approx: &Netlist, exact: &Netlist, dist: &InputDistribution) -> ErrorBound {
    let n = approx.n_inputs();
    let (mut over, mut under) = (0u64, 0u64);
    let (mut mean, mut rate) = (0.0f64, 0.0f64);
    // Every assignment weighs the same under a uniform distribution.
    let uniform = dist.is_uniform().then(|| dist.weight(0, n));
    let (approx, exact) = (CompiledProgram::compile(approx), CompiledProgram::compile(exact));
    for_each_difference(&approx, &exact, |diff| {
        let ((o, _), (u, _)) = diff.extremes(diff.any);
        (over, under) = (over.max(o), under.max(u));
        let magnitudes = diff.magnitudes();
        for l in set_lanes(diff.any) {
            let w = uniform.unwrap_or_else(|| dist.weight(diff.base | l as u64, n));
            rate += w;
            mean += w * (magnitudes[l] as f64);
        }
    });
    ErrorBound {
        over: u128::from(over),
        under: u128::from(under),
        mean_abs: mean,
        error_rate_bound: rate.min(1.0),
    }
}

/// Ternary forward pass under a partial input assignment; returns the
/// output ternaries in `out`.
fn tern_eval(nl: &Netlist, assign: &[Option<bool>], vals: &mut Vec<Tern>, out: &mut Vec<Tern>) {
    vals.clear();
    let mut ops = [Tern::X; 3];
    for (kind, fanin) in nl.gates() {
        for (j, s) in fanin.iter().enumerate() {
            ops[j] = match *s {
                Signal::Input(i) => assign[i].map_or(Tern::X, Tern::known),
                Signal::Gate(g) => vals[g],
                Signal::Const(v) => Tern::known(v),
            };
        }
        vals.push(tern_gate(kind, &ops[..fanin.len()]));
    }
    out.clear();
    out.extend(nl.outputs().map(|s| match s {
        Signal::Input(i) => assign[i].map_or(Tern::X, Tern::known),
        Signal::Gate(g) => vals[g],
        Signal::Const(v) => Tern::known(v),
    }));
}

fn word_hi(terns: &[Tern]) -> u128 {
    terns
        .iter()
        .enumerate()
        .fold(0u128, |acc, (k, t)| if *t == Tern::Zero { acc } else { acc | (1u128 << k) })
}

fn word_lo(terns: &[Tern]) -> u128 {
    terns
        .iter()
        .enumerate()
        .fold(0u128, |acc, (k, t)| if *t == Tern::One { acc | (1u128 << k) } else { acc })
}

struct BnbCtx<'a> {
    pos: &'a Netlist,
    neg: &'a Netlist,
    opts: &'a AbsintOptions,
    budget: usize,
    best: u128,
    vals: Vec<Tern>,
    outs_pos: Vec<Tern>,
    outs_neg: Vec<Tern>,
}

/// Maximum over all inputs of `max(0, pos(x) − neg(x))`, by
/// branch-and-bound over ternary partial assignments. Anytime-sound: on
/// budget exhaustion unexplored subtrees contribute their interval
/// bound.
fn bnb_max_diff(pos: &Netlist, neg: &Netlist, opts: &AbsintOptions) -> u128 {
    let n = pos.n_inputs();
    let mut assign: Vec<Option<bool>> = vec![None; n];
    let mut ctx = BnbCtx {
        pos,
        neg,
        opts,
        budget: opts.node_budget,
        best: 0,
        vals: Vec::new(),
        outs_pos: Vec::new(),
        outs_neg: Vec::new(),
    };
    bnb_node(&mut ctx, &mut assign);
    ctx.best
}

fn bnb_node(ctx: &mut BnbCtx<'_>, assign: &mut Vec<Option<bool>>) {
    let mut vals = std::mem::take(&mut ctx.vals);
    let mut outs_pos = std::mem::take(&mut ctx.outs_pos);
    let mut outs_neg = std::mem::take(&mut ctx.outs_neg);
    tern_eval(ctx.pos, assign, &mut vals, &mut outs_pos);
    tern_eval(ctx.neg, assign, &mut vals, &mut outs_neg);
    let hi_pos = word_hi(&outs_pos);
    let lo_neg = word_lo(&outs_neg);
    ctx.vals = vals;
    ctx.outs_pos = outs_pos;
    ctx.outs_neg = outs_neg;
    if hi_pos <= lo_neg {
        return; // Subtree cannot beat a non-negative best.
    }
    let ub = hi_pos - lo_neg;
    if ub <= ctx.best {
        return;
    }
    let free: Vec<usize> = (0..assign.len()).filter(|&i| assign[i].is_none()).collect();
    if free.len() <= ctx.opts.leaf_limit {
        let leaf = bnb_leaf(ctx.pos, ctx.neg, assign, &free);
        ctx.best = ctx.best.max(leaf);
        return;
    }
    if ctx.budget == 0 {
        // Out of budget: account the subtree by its interval bound.
        ctx.best = ctx.best.max(ub);
        return;
    }
    ctx.budget -= 1;
    // Branch on the highest free input index (MSBs steer word bounds
    // hardest for LSB-first arithmetic ports).
    let var = *free.last().expect("free is non-empty past the leaf check");
    for v in [true, false] {
        assign[var] = Some(v);
        bnb_node(ctx, assign);
    }
    assign[var] = None;
}

/// Exhaustive bit-parallel closure of one branch-and-bound leaf.
fn bnb_leaf(pos: &Netlist, neg: &Netlist, assign: &[Option<bool>], free: &[usize]) -> u128 {
    let n = assign.len();
    let total = 1u64 << free.len();
    let blocks = total.div_ceil(64).max(1);
    let mut best = 0u128;
    let mut v1 = Vec::new();
    let mut o1 = Vec::new();
    let mut v2 = Vec::new();
    let mut o2 = Vec::new();
    for b in 0..blocks {
        let planes = lane_planes(n, assign, free, b);
        pos.eval_words_into(&planes, &mut v1, &mut o1);
        neg.eval_words_into(&planes, &mut v2, &mut o2);
        let lanes = (total - b * 64).min(64) as usize;
        let (pv, nv) = (from_planes(&o1), from_planes(&o2));
        for (&pv, &nv) in pv.iter().zip(&nv).take(lanes) {
            if pv > nv {
                best = best.max(u128::from(pv - nv));
            }
        }
    }
    best
}

/// Builds the `approx ⊕ exact` per-bit difference miter and folds the
/// probability domain into sound mean / rate bounds.
fn miter_mean_rate(
    approx: &Netlist,
    exact: &Netlist,
    dist: &InputDistribution,
    opts: &AbsintOptions,
) -> (f64, f64) {
    let n = approx.n_inputs();
    let width = approx.n_outputs().max(exact.n_outputs());
    let mut b = NetlistBuilder::new("absint_miter", n);
    let ins: Vec<Signal> = (0..n).map(Signal::Input).collect();
    let mut a_bits = b.inline(approx, &ins);
    let mut e_bits = b.inline(exact, &ins);
    let zero = b.constant(false);
    a_bits.resize(width, zero);
    e_bits.resize(width, zero);
    for k in 0..width {
        let d = b.gate(GateKind::Xor2, &[a_bits[k], e_bits[k]]);
        b.output(d);
    }
    let miter = b.finish().expect("miter elaboration is well-formed");
    let abs = analyze_netlist(&miter, dist, opts);
    let mut mean = 0.0f64;
    let mut rate = 0.0f64;
    for (k, v) in abs.outputs.iter().enumerate() {
        mean += (k as f64).exp2() * v.p.hi;
        rate += v.p.hi;
    }
    (mean, rate.min(1.0))
}

/// Absint-derived bound for a Wallace multiplier against its elaborated
/// accurate twin — the generic default path `explore` pre-filtering uses
/// in place of the hand-wired structural propagation. Exact (via
/// exhaustive cones) at ≤ 8-bit operands; anytime-sound branch-and-bound
/// with a small budget at wider widths, where the certified calculus
/// remains the tightener.
#[must_use]
pub fn wallace_bound_absint(m: &WallaceMultiplier) -> ErrorBound {
    let width = m.width();
    let exact = match WallaceMultiplier::new(width, FullAdderKind::Accurate, 0) {
        Ok(e) => e,
        Err(_) => return ErrorBound::top(2 * width),
    };
    let approx_nl = wallace_netlist(m);
    let exact_nl = wallace_netlist(&exact);
    let opts = if 2 * width <= 16 {
        AbsintOptions::default()
    } else {
        // Wide datapaths: keep the pass cheap; callers tighten with the
        // certified calculus anyway.
        AbsintOptions { cone_limit: 8, exhaustive_limit: 16, leaf_limit: 8, node_budget: 64 }
    };
    let dist = InputDistribution::uniform(2 * width);
    derive_error_bound_with(&approx_nl, &exact_nl, &dist, &opts)
        .unwrap_or_else(|_| ErrorBound::top(2 * width))
}

// ---------------------------------------------------------------------------
// Observability don't-care analysis (lint rule XL012's engine).
// ---------------------------------------------------------------------------

/// Gate indices that are *semantically* dead: they reach an output
/// structurally, but forcing them to 0 or to 1 never changes any output
/// for any input vector (observability don't-cares cover the whole input
/// space). Only netlists with at most `max_inputs` primary inputs and
/// 512 gates are analyzed (the check is exhaustive); larger designs
/// return an empty list.
#[must_use]
pub fn observability_dead_gates(nl: &Netlist, max_inputs: usize) -> Vec<usize> {
    let n = nl.n_inputs();
    let g = nl.gate_count();
    if n > max_inputs || n >= 20 || g == 0 || g > 512 {
        return Vec::new();
    }
    // Structural liveness first: XL005 owns gates with no output cone.
    let gates: Vec<(GateKind, Vec<Signal>)> = nl.gates().map(|(k, f)| (k, f.to_vec())).collect();
    let mut live = vec![false; g];
    let mut stack: Vec<usize> =
        nl.outputs().filter_map(|s| if let Signal::Gate(i) = s { Some(i) } else { None }).collect();
    while let Some(i) = stack.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        for s in &gates[i].1 {
            if let Signal::Gate(j) = s {
                stack.push(*j);
            }
        }
    }
    let counting = CountingBlocks::new(n);
    let lane_mask = counting.live();
    let mut dead: Vec<bool> = live.clone();
    let mut vals = vec![0u64; g];
    let mut base_vals = vec![0u64; g];
    let mut planes = vec![0u64; n];
    for b in 0..counting.blocks() {
        counting.fill(b, &mut planes);
        eval_forced(&gates, &planes, usize::MAX, 0, &mut base_vals);
        let base_outs: Vec<u64> =
            nl.outputs().map(|s| resolve_word(s, &planes, &base_vals)).collect();
        for forced in [0u64, u64::MAX] {
            for (target, is_dead) in dead.iter_mut().enumerate() {
                if !*is_dead {
                    continue;
                }
                eval_forced(&gates, &planes, target, forced, &mut vals);
                let changed = nl
                    .outputs()
                    .zip(base_outs.iter())
                    .any(|(s, base)| (resolve_word(s, &planes, &vals) ^ base) & lane_mask != 0);
                if changed {
                    *is_dead = false;
                }
            }
        }
    }
    (0..g).filter(|&i| dead[i] && live[i]).collect()
}

fn resolve_word(s: Signal, planes: &[u64], vals: &[u64]) -> u64 {
    match s {
        Signal::Input(i) => planes[i],
        Signal::Gate(i) => vals[i],
        Signal::Const(true) => u64::MAX,
        Signal::Const(false) => 0,
    }
}

fn eval_forced(
    gates: &[(GateKind, Vec<Signal>)],
    planes: &[u64],
    target: usize,
    forced: u64,
    vals: &mut [u64],
) {
    let mut ops = [0u64; 3];
    for (i, (kind, fanin)) in gates.iter().enumerate() {
        for (j, s) in fanin.iter().enumerate() {
            ops[j] = resolve_word(*s, planes, vals);
        }
        vals[i] = if i == target { forced } else { kind.eval_word(&ops[..fanin.len()]) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_core::rng::Rng;
    use xlac_logic::NetlistBuilder;

    fn all_terns() -> [Tern; 3] {
        [Tern::Zero, Tern::One, Tern::X]
    }

    #[test]
    fn ternary_transfer_is_sound_and_monotone_for_every_gate() {
        for kind in GateKind::ALL {
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                GateKind::Mux2 => 3,
                _ => 2,
            };
            let mut idx = vec![0usize; arity];
            'assignments: loop {
                let ops: Vec<Tern> = idx.iter().map(|&i| all_terns()[i]).collect();
                let out = tern_gate(kind, &ops);
                // Soundness: every concretization's result is contained.
                let mut concrete = vec![false; arity];
                for bits in 0..(1u32 << arity) {
                    for (j, c) in concrete.iter_mut().enumerate() {
                        *c = (bits >> j) & 1 == 1;
                    }
                    if ops.iter().zip(&concrete).all(|(t, &c)| t.contains(c)) {
                        let bits: Vec<u64> = concrete.iter().map(|&c| u64::from(c)).collect();
                        assert!(
                            out.contains(kind.eval(&bits) == 1),
                            "{kind:?} {ops:?} excludes a concrete result"
                        );
                    }
                }
                // Advance the mixed-radix index.
                let mut j = 0;
                loop {
                    if j == arity {
                        break 'assignments;
                    }
                    idx[j] += 1;
                    if idx[j] < 3 {
                        break;
                    }
                    idx[j] = 0;
                    j += 1;
                }
            }
        }
    }

    #[test]
    fn probability_transfer_contains_every_admissible_joint() {
        // For point marginals (pa, pb) every joint is parameterized by
        // p11 in the Fréchet box; AND/OR/XOR of that joint must land in
        // the transferred interval.
        let mut rng = xlac_core::rng::DefaultRng::seed_from_u64(0xAB51);
        for _ in 0..500 {
            let pa = (rng.next_u64() % 1001) as f64 / 1000.0;
            let pb = (rng.next_u64() % 1001) as f64 / 1000.0;
            let lo11 = (pa + pb - 1.0).max(0.0);
            let hi11 = pa.min(pb);
            for step in 0..=10 {
                let p11 = lo11 + (hi11 - lo11) * (step as f64) / 10.0;
                let ia = ProbInterval::exact(pa);
                let ib = ProbInterval::exact(pb);
                assert!(ia.and(&ib).contains(p11));
                assert!(ia.or(&ib).contains(pa + pb - p11));
                assert!(ia.xor(&ib).contains(pa + pb - 2.0 * p11));
            }
        }
    }

    #[test]
    fn cone_recovers_reconvergent_constants() {
        // XOR(a, a) is constant 0: the interval domain alone cannot see
        // it, the cone domain proves it.
        let mut b = NetlistBuilder::new("reconv", 1);
        let x = b.gate(GateKind::Xor2, &[Signal::Input(0), Signal::Input(0)]);
        b.output(x);
        let nl = b.finish().expect("well-formed");
        let abs = analyze_netlist(&nl, &InputDistribution::uniform(1), &AbsintOptions::default());
        assert_eq!(abs.gates[0].tern, Tern::X, "plain X-prop loses reconvergence");
        assert_eq!(abs.gates[0].refined_tern(), Tern::Zero, "the cone recovers it");
        assert_eq!(abs.gates[0].p, ProbInterval::exact(0.0));
    }

    #[test]
    fn derived_bounds_match_the_full_adder_truth_tables_exactly() {
        let exact = FullAdderKind::Accurate.structural_netlist();
        for kind in FullAdderKind::ALL {
            let approx = kind.structural_netlist();
            let bound = derive_error_bound(&approx, &exact).expect("same arity");
            let tt = kind.truth_table();
            let reference = FullAdderKind::Accurate.truth_table();
            let wce = u128::from(tt.max_error_value(&reference).expect("same shape"));
            assert_eq!(bound.wce(), wce, "{kind}");
            let cases = tt.error_cases(&reference).expect("same shape") as f64;
            assert!((bound.error_rate_bound - cases / 8.0).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn bytecode_front_end_agrees_with_the_netlist_front_end() {
        for kind in FullAdderKind::ALL {
            let nl = kind.structural_netlist();
            let prog = CompiledProgram::compile(&nl);
            let dist = InputDistribution::uniform(3);
            let opts = AbsintOptions::default();
            let from_nl = analyze_netlist(&nl, &dist, &opts);
            let from_prog = analyze_program(&prog, &dist, &opts);
            assert_eq!(from_prog.len(), from_nl.outputs.len());
            for (a, b) in from_prog.iter().zip(&from_nl.outputs) {
                // Both front-ends carry exact cones at this size, so the
                // probabilities are equal, not merely overlapping.
                assert!((a.p.lo - b.p.lo).abs() < 1e-12, "{kind}");
                assert!((a.p.hi - b.p.hi).abs() < 1e-12, "{kind}");
            }
        }
    }

    #[test]
    fn forced_abstract_mode_stays_sound_on_cells() {
        // Disable exhaustive enumeration and cones: the pure
        // interval/ternary path must still envelope the truth.
        let opts =
            AbsintOptions { cone_limit: 0, exhaustive_limit: 0, leaf_limit: 0, node_budget: 2 };
        let exact = FullAdderKind::Accurate.structural_netlist();
        for kind in FullAdderKind::ALL {
            let approx = kind.structural_netlist();
            let dist = InputDistribution::uniform(3);
            let bound = derive_error_bound_with(&approx, &exact, &dist, &opts).expect("same arity");
            let tt = kind.truth_table();
            let reference = FullAdderKind::Accurate.truth_table();
            let wce = u128::from(tt.max_error_value(&reference).expect("same shape"));
            assert!(bound.wce() >= wce, "{kind}: {} < {wce}", bound.wce());
            let cases = tt.error_cases(&reference).expect("same shape") as f64;
            assert!(bound.error_rate_bound + 1e-9 >= cases / 8.0, "{kind}");
        }
    }

    #[test]
    fn observability_dead_gate_is_detected() {
        // sel drives only a mux whose two data legs are the same wire:
        // the sel-side inverter is semantically dead.
        let mut b = NetlistBuilder::new("odc", 2);
        let w = b.gate(GateKind::Not, &[Signal::Input(0)]);
        let s = b.gate(GateKind::Not, &[Signal::Input(1)]);
        let m = b.gate(GateKind::Mux2, &[w, w, s]);
        b.output(m);
        let nl = b.finish().expect("well-formed");
        let dead = observability_dead_gates(&nl, 10);
        assert_eq!(dead, vec![1], "the sel inverter (gate 1) is observability-dead");
    }

    #[test]
    fn distribution_pins_collapse_probabilities() {
        // With P[sel = 1] = 0 an AND cone through sel is constant 0
        // under the distribution even though the function is not.
        let mut b = NetlistBuilder::new("pinned", 2);
        let g = b.gate(GateKind::And2, &[Signal::Input(0), Signal::Input(1)]);
        b.output(g);
        let nl = b.finish().expect("well-formed");
        let dist = InputDistribution::new(vec![0.5, 0.0]);
        let abs = analyze_netlist(&nl, &dist, &AbsintOptions::default());
        assert_eq!(abs.gates[0].refined_tern(), Tern::X, "function is not constant");
        assert!(abs.gates[0].p.hi < 1e-12, "but the distribution pins it to 0");
    }
}
