//! The netlist → bit-plane JIT: compile any [`xlac_logic::Netlist`] into
//! a register-allocated straight-line bytecode and interpret it over wide
//! SIMD plane blocks.
//!
//! Hand-written bit-sliced evaluators are fast because they are
//! *straight-line word code*: no per-gate dispatch, no fanin `Vec`s, no
//! interpreter bookkeeping. This module gives every netlist — built-in,
//! `hdl/*.v`-parsed or optimizer output — the same shape mechanically, and
//! is the only 64-lane form of most shipped units:
//!
//! 1. **SSA rewrite.** Gates stream through a hash-consing builder in
//!    their (already topological) order. Inverters never become nodes:
//!    every value is an SSA node id plus an *invert flag*, so `Not`/`Buf`
//!    vanish, `Nand`/`Nor`/`Xnor` become their base op with the flag set,
//!    De Morgan rewrites push flags off `And`/`Or` operands, `Xor`
//!    absorbs operand flags into output parity, and `Mux` select/data
//!    flags fold into operand swaps or output inversion. Constants fold
//!    (`x & 0`, `x ^ x`, `mux(sel=const)` …) and structurally identical
//!    nodes unify (CSE).
//! 2. **Liveness + register allocation.** Dead nodes (not reachable from
//!    an output) are dropped; the rest are scheduled in id order and
//!    assigned plane registers by a last-use free list. Primary inputs
//!    are pinned to registers `0..n_inputs` (the interpreter seeds the
//!    register file with the input planes) and freed like any other value
//!    after their final read.
//! 3. **Flat op array.** Each op is one of seven opcodes (`And`, `Or`,
//!    `Xor`, `AndNotA`, `OrNotA`, `Mux`, `Not`) over register indices —
//!    the two `*NotA` forms carry the surviving operand inversions, so a
//!    fused inverter costs nothing at run time. Outputs are register
//!    reads with an optional complement (or constants), applied once at
//!    collection.
//!
//! The interpreter ([`CompiledProgram::run`]) is generic over
//! [`PlaneBlock`]: `u64` evaluates 64 lanes per op, `[u64; 4]` 256 and
//! `[u64; 8]` 512, with the block ops compiling to straight vector code.
//! Dispatch is match-free: opcode indexes a function-pointer table once
//! per op.
//!
//! # Example
//!
//! ```
//! use xlac_adders::hw::{pack_operands, ripple_netlist};
//! use xlac_adders::RippleCarryAdder;
//! use xlac_sim::jit::CompiledProgram;
//!
//! let rca = RippleCarryAdder::accurate(8);
//! let prog = CompiledProgram::compile(&ripple_netlist(&rca));
//! // Scalar evaluation matches the netlist…
//! assert_eq!(prog.eval(pack_operands(200, 55, 8)), 255);
//! // …and the op count is well below the source gate count (inverter
//! // fusion + constant folding on the carry-in).
//! assert!(prog.stats().ops < prog.stats().source_gates);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use xlac_core::characterization::HwCost;
use xlac_core::error::{Result, XlacError};
use xlac_core::lanes::PlaneBlock;
use xlac_logic::{GateKind, Netlist, Signal};
use xlac_multipliers::{Multiplier, MultiplierX64, WallaceMultiplier};

/// The seven bit-plane opcodes. `AndNotA`/`OrNotA` complement their
/// *first* operand (`!a & b`, `!a | b`) — the landing site for fused
/// inverters that survive normalization. `Not` only appears when a `Mux`
/// data operand needs a materialized complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// `dst = a & b`
    And = 0,
    /// `dst = a | b`
    Or = 1,
    /// `dst = a ^ b`
    Xor = 2,
    /// `dst = !a & b`
    AndNotA = 3,
    /// `dst = !a | b`
    OrNotA = 4,
    /// `dst = (a & !c) | (b & c)` — 2:1 mux, select in `c`
    Mux = 5,
    /// `dst = !a`
    Not = 6,
}

/// Number of opcodes (the dispatch-table length).
pub const OP_COUNT: usize = 7;

/// One bytecode op: opcode + register operands, kept flat (16 bytes) so
/// the dispatch loop streams through a dense array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// [`OpKind`] as its `u8` discriminant (dense dispatch-table index).
    pub kind: u8,
    /// Destination plane register.
    pub dst: u16,
    /// First operand register.
    pub a: u16,
    /// Second operand register (unused by `Not`).
    pub b: u16,
    /// Select register for `Mux` (unused otherwise).
    pub c: u16,
}

/// Where one primary output comes from after the op array has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutSrc {
    /// Read register `reg`, complemented when `invert` (output-side
    /// inverter fusion).
    Reg {
        /// Source plane register.
        reg: u16,
        /// Complement on read.
        invert: bool,
    },
    /// The output is a constant (folded cone).
    Const(bool),
}

/// Compilation statistics — what the optimizer did to the gate DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JitStats {
    /// Gates in the source netlist.
    pub source_gates: usize,
    /// Emitted bytecode ops.
    pub ops: usize,
    /// Plane registers in the register file (including the pinned
    /// inputs).
    pub registers: usize,
    /// Source `Not`/`Buf`/`Nand2`/`Nor2`/`Xnor2` gates whose inversion or
    /// aliasing was absorbed into flags instead of ops.
    pub fused_inverters: usize,
    /// `Not` ops materialized back (single-data-inverted `Mux` operands).
    pub materialized_nots: usize,
    /// Structurally duplicate nodes unified by hash-consing.
    pub cse_hits: usize,
    /// Live SSA nodes discarded as unreachable from any output.
    pub dead_nodes: usize,
}

/// An SSA operand: node id shifted left once, invert flag in bit 0.
type ERef = u32;

#[inline]
fn rid(r: ERef) -> usize {
    (r >> 1) as usize
}
#[inline]
fn rinv(r: ERef) -> bool {
    r & 1 == 1
}
#[inline]
fn rnot(r: ERef) -> ERef {
    r ^ 1
}

/// An SSA value: constant or (possibly inverted) node reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    Const(bool),
    Ref(ERef),
}

/// Hash-consed SSA node shapes. Operand invariants kept by the builder:
/// `And`/`Or` carry at most one inverted operand and it sits first;
/// `Xor`, `Not` and `Mux` operands are never inverted; commutative
/// operands are sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SsaKind {
    Input(u32),
    And(ERef, ERef),
    Or(ERef, ERef),
    Xor(ERef, ERef),
    Mux { d0: ERef, d1: ERef, sel: ERef },
    Not(ERef),
}

/// The CSE table's hasher: a multiplicative word hash (the FxHash mixing
/// step). Keys are node shapes over ids this compiler assigns, so
/// SipHash's flooding resistance buys nothing here, and its cost showed
/// in compile time.
#[derive(Default)]
struct CseHasher(u64);

impl CseHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for CseHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

struct SsaBuilder {
    nodes: Vec<SsaKind>,
    cse: HashMap<SsaKind, u32, BuildHasherDefault<CseHasher>>,
    cse_hits: usize,
    materialized_nots: usize,
}

impl SsaBuilder {
    fn node(&mut self, kind: SsaKind) -> u32 {
        if let Some(&id) = self.cse.get(&kind) {
            self.cse_hits += 1;
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("node count fits u32");
        self.nodes.push(kind);
        self.cse.insert(kind, id);
        id
    }

    fn not(v: Val) -> Val {
        match v {
            Val::Const(c) => Val::Const(!c),
            Val::Ref(r) => Val::Ref(rnot(r)),
        }
    }

    fn and(&mut self, x: Val, y: Val) -> Val {
        self.and_or(x, y, false)
    }

    fn or(&mut self, x: Val, y: Val) -> Val {
        self.and_or(x, y, true)
    }

    /// Shared And/Or builder (`is_or` flips identity/absorber and the De
    /// Morgan dual).
    fn and_or(&mut self, x: Val, y: Val, is_or: bool) -> Val {
        let absorber = is_or; // 1 absorbs OR, 0 absorbs AND
        match (x, y) {
            (Val::Const(c), v) | (v, Val::Const(c)) => {
                if c == absorber {
                    Val::Const(absorber)
                } else {
                    v
                }
            }
            (Val::Ref(rx), Val::Ref(ry)) => {
                if rx == ry {
                    return x;
                }
                if rx == rnot(ry) {
                    return Val::Const(absorber);
                }
                match (rinv(rx), rinv(ry)) {
                    (true, true) => {
                        // Both inverted: rewrite via De Morgan so flags
                        // land on the output side.
                        let dual = self.and_or(Val::Ref(rnot(rx)), Val::Ref(rnot(ry)), !is_or);
                        Self::not(dual)
                    }
                    (true, false) => Val::Ref(self.binary(rx, ry, is_or)),
                    (false, true) => Val::Ref(self.binary(ry, rx, is_or)),
                    (false, false) => {
                        let (p, q) = if rx <= ry { (rx, ry) } else { (ry, rx) };
                        Val::Ref(self.binary(p, q, is_or))
                    }
                }
            }
        }
    }

    fn binary(&mut self, a: ERef, b: ERef, is_or: bool) -> ERef {
        let kind = if is_or { SsaKind::Or(a, b) } else { SsaKind::And(a, b) };
        self.node(kind) << 1
    }

    fn xor(&mut self, x: Val, y: Val) -> Val {
        match (x, y) {
            (Val::Const(a), Val::Const(b)) => Val::Const(a ^ b),
            (Val::Const(c), Val::Ref(r)) | (Val::Ref(r), Val::Const(c)) => {
                Val::Ref(if c { rnot(r) } else { r })
            }
            (Val::Ref(rx), Val::Ref(ry)) => {
                if rx == ry {
                    return Val::Const(false);
                }
                if rx == rnot(ry) {
                    return Val::Const(true);
                }
                // Operand inverts strip to output parity.
                let parity = u32::from(rinv(rx) ^ rinv(ry));
                let (cx, cy) = (rx & !1, ry & !1);
                let (p, q) = if cx <= cy { (cx, cy) } else { (cy, cx) };
                Val::Ref((self.node(SsaKind::Xor(p, q)) << 1) | parity)
            }
        }
    }

    fn mux(&mut self, d0: Val, d1: Val, sel: Val) -> Val {
        let sel = match sel {
            Val::Const(c) => return if c { d1 } else { d0 },
            Val::Ref(r) => r,
        };
        // Inverted select swaps the data operands.
        let (d0, d1, sel) = if rinv(sel) { (d1, d0, rnot(sel)) } else { (d0, d1, sel) };
        if d0 == d1 {
            return d0;
        }
        match (d0, d1) {
            // d0 != d1 here, so two constants are (0,1) or (1,0).
            (Val::Const(_), Val::Const(c1)) => Val::Ref(if c1 { sel } else { rnot(sel) }),
            (Val::Const(false), d1) => self.and(Val::Ref(sel), d1),
            (Val::Const(true), d1) => self.or(Val::Ref(rnot(sel)), d1),
            (d0, Val::Const(false)) => self.and(Val::Ref(rnot(sel)), d0),
            (d0, Val::Const(true)) => self.or(Val::Ref(sel), d0),
            (Val::Ref(r0), Val::Ref(r1)) => {
                if r0 == rnot(r1) {
                    // mux(x, !x, s) = x ^ s
                    return self.xor(Val::Ref(r0), Val::Ref(sel));
                }
                let (mut e0, mut e1, mut out_inv) = (r0, r1, false);
                if rinv(e0) && rinv(e1) {
                    // mux(!a, !b, s) = !mux(a, b, s)
                    e0 = rnot(e0);
                    e1 = rnot(e1);
                    out_inv = true;
                }
                let e0 = self.clean(e0);
                let e1 = self.clean(e1);
                let id = self.node(SsaKind::Mux { d0: e0, d1: e1, sel });
                Val::Ref((id << 1) | u32::from(out_inv))
            }
        }
    }

    /// Strips a surviving operand inversion by materializing a `Not`
    /// node (the one case flags cannot absorb: a single inverted `Mux`
    /// data operand).
    fn clean(&mut self, e: ERef) -> ERef {
        if rinv(e) {
            let before = self.nodes.len();
            let id = self.node(SsaKind::Not(rnot(e)));
            if self.nodes.len() > before {
                self.materialized_nots += 1;
            }
            id << 1
        } else {
            e
        }
    }
}

/// A netlist compiled to register-allocated bit-plane bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    name: String,
    n_inputs: usize,
    n_regs: usize,
    ops: Vec<Op>,
    outputs: Vec<OutSrc>,
    stats: JitStats,
}

impl CompiledProgram {
    /// Compiles `netlist` (gates are already in topological order by
    /// [`xlac_logic::NetlistBuilder`] construction).
    ///
    /// # Panics
    ///
    /// Panics when the live register file would exceed `u16` indices
    /// (> 65 535 simultaneously live planes — far beyond any shipped
    /// datapath).
    #[must_use]
    pub fn compile(netlist: &Netlist) -> CompiledProgram {
        let n_inputs = netlist.n_inputs();
        let mut b = SsaBuilder {
            nodes: Vec::with_capacity(n_inputs + netlist.gate_count()),
            cse: HashMap::default(),
            cse_hits: 0,
            materialized_nots: 0,
        };
        for i in 0..n_inputs {
            b.node(SsaKind::Input(u32::try_from(i).expect("input index fits u32")));
        }

        // SSA rewrite of the gate stream.
        let mut fused_inverters = 0usize;
        let mut gate_vals: Vec<Val> = Vec::with_capacity(netlist.gate_count());
        for (kind, fanin) in netlist.gates() {
            let v = |s: &Signal| -> Val {
                match *s {
                    Signal::Input(i) => Val::Ref((i as ERef) << 1),
                    Signal::Gate(g) => gate_vals[g],
                    Signal::Const(c) => Val::Const(c),
                }
            };
            if matches!(
                kind,
                GateKind::Not | GateKind::Buf | GateKind::Nand2 | GateKind::Nor2 | GateKind::Xnor2
            ) {
                fused_inverters += 1;
            }
            let val = match kind {
                GateKind::Not => SsaBuilder::not(v(&fanin[0])),
                GateKind::Buf => v(&fanin[0]),
                GateKind::And2 => {
                    let (x, y) = (v(&fanin[0]), v(&fanin[1]));
                    b.and(x, y)
                }
                GateKind::Or2 => {
                    let (x, y) = (v(&fanin[0]), v(&fanin[1]));
                    b.or(x, y)
                }
                GateKind::Nand2 => {
                    let (x, y) = (v(&fanin[0]), v(&fanin[1]));
                    let a = b.and(x, y);
                    SsaBuilder::not(a)
                }
                GateKind::Nor2 => {
                    let (x, y) = (v(&fanin[0]), v(&fanin[1]));
                    let o = b.or(x, y);
                    SsaBuilder::not(o)
                }
                GateKind::Xor2 => {
                    let (x, y) = (v(&fanin[0]), v(&fanin[1]));
                    b.xor(x, y)
                }
                GateKind::Xnor2 => {
                    let (x, y) = (v(&fanin[0]), v(&fanin[1]));
                    let x_ = b.xor(x, y);
                    SsaBuilder::not(x_)
                }
                GateKind::Mux2 => {
                    let (d0, d1, s) = (v(&fanin[0]), v(&fanin[1]), v(&fanin[2]));
                    b.mux(d0, d1, s)
                }
            };
            gate_vals.push(val);
        }
        let out_vals: Vec<Val> = netlist
            .outputs()
            .map(|s| match s {
                Signal::Input(i) => Val::Ref((i as ERef) << 1),
                Signal::Gate(g) => gate_vals[g],
                Signal::Const(c) => Val::Const(c),
            })
            .collect();

        // Dead-node elimination: mark reachable from outputs. Operand ids
        // are always smaller than the consumer's id (SSA in topo order),
        // so one descending sweep propagates liveness.
        let nodes = &b.nodes;
        let mut live = vec![false; nodes.len()];
        for v in &out_vals {
            if let Val::Ref(r) = v {
                live[rid(*r)] = true;
            }
        }
        for id in (0..nodes.len()).rev() {
            if !live[id] {
                continue;
            }
            match nodes[id] {
                SsaKind::Input(_) => {}
                SsaKind::And(a, bb) | SsaKind::Or(a, bb) | SsaKind::Xor(a, bb) => {
                    live[rid(a)] = true;
                    live[rid(bb)] = true;
                }
                SsaKind::Mux { d0, d1, sel } => {
                    live[rid(d0)] = true;
                    live[rid(d1)] = true;
                    live[rid(sel)] = true;
                }
                SsaKind::Not(a) => live[rid(a)] = true,
            }
        }
        let dead_nodes = live
            .iter()
            .enumerate()
            .filter(|&(id, &l)| !l && !matches!(nodes[id], SsaKind::Input(_)))
            .count();

        // Schedule: live non-input nodes in id order; id-order respects
        // dependencies by construction.
        let schedule: Vec<usize> = (0..nodes.len())
            .filter(|&id| live[id] && !matches!(nodes[id], SsaKind::Input(_)))
            .collect();

        // Last-use positions (outputs live to the end of the program).
        const LIVE_OUT: usize = usize::MAX;
        let mut last_use = vec![0usize; nodes.len()];
        for (pos, &id) in schedule.iter().enumerate() {
            let mut touch = |r: ERef| last_use[rid(r)] = pos;
            match nodes[id] {
                SsaKind::Input(_) => unreachable!("inputs are not scheduled"),
                SsaKind::And(a, bb) | SsaKind::Or(a, bb) | SsaKind::Xor(a, bb) => {
                    touch(a);
                    touch(bb);
                }
                SsaKind::Mux { d0, d1, sel } => {
                    touch(d0);
                    touch(d1);
                    touch(sel);
                }
                SsaKind::Not(a) => touch(a),
            }
        }
        for v in &out_vals {
            if let Val::Ref(r) = v {
                last_use[rid(*r)] = LIVE_OUT;
            }
        }

        // Register allocation: inputs pinned to 0..n_inputs, then a
        // last-use free list. Freeing operands *before* allocating the
        // destination lets an op overwrite a dying operand's register.
        let mut reg_of: Vec<u16> = vec![u16::MAX; nodes.len()];
        let mut free: Vec<u16> = Vec::new();
        let mut n_regs: usize = n_inputs;
        for (i, slot) in reg_of.iter_mut().take(n_inputs).enumerate() {
            *slot = u16::try_from(i).expect("input registers fit u16");
        }
        let mut ops: Vec<Op> = Vec::with_capacity(schedule.len());
        for (pos, &id) in schedule.iter().enumerate() {
            let operands: [Option<ERef>; 3] = match nodes[id] {
                SsaKind::Input(_) => unreachable!("inputs are not scheduled"),
                SsaKind::And(a, bb) | SsaKind::Or(a, bb) | SsaKind::Xor(a, bb) => {
                    [Some(a), Some(bb), None]
                }
                SsaKind::Mux { d0, d1, sel } => [Some(d0), Some(d1), Some(sel)],
                SsaKind::Not(a) => [Some(a), None, None],
            };
            // Release dying operands (dedup: a node may feed two slots).
            let mut released: [usize; 3] = [usize::MAX; 3];
            let mut n_released = 0usize;
            for r in operands.into_iter().flatten() {
                let nid = rid(r);
                if last_use[nid] == pos && !released[..n_released].contains(&nid) {
                    released[n_released] = nid;
                    n_released += 1;
                    free.push(reg_of[nid]);
                }
            }
            let dst = free.pop().unwrap_or_else(|| {
                let r = u16::try_from(n_regs).expect("register file fits u16 indices");
                n_regs += 1;
                r
            });
            reg_of[id] = dst;
            let reg = |r: ERef| reg_of[rid(r)];
            let op = match nodes[id] {
                SsaKind::Input(_) => unreachable!("inputs are not scheduled"),
                SsaKind::And(a, bb) => Op {
                    kind: if rinv(a) { OpKind::AndNotA } else { OpKind::And } as u8,
                    dst,
                    a: reg(a),
                    b: reg(bb),
                    c: 0,
                },
                SsaKind::Or(a, bb) => Op {
                    kind: if rinv(a) { OpKind::OrNotA } else { OpKind::Or } as u8,
                    dst,
                    a: reg(a),
                    b: reg(bb),
                    c: 0,
                },
                SsaKind::Xor(a, bb) => {
                    Op { kind: OpKind::Xor as u8, dst, a: reg(a), b: reg(bb), c: 0 }
                }
                SsaKind::Mux { d0, d1, sel } => {
                    Op { kind: OpKind::Mux as u8, dst, a: reg(d0), b: reg(d1), c: reg(sel) }
                }
                SsaKind::Not(a) => Op { kind: OpKind::Not as u8, dst, a: reg(a), b: 0, c: 0 },
            };
            ops.push(op);
        }

        let outputs: Vec<OutSrc> = out_vals
            .iter()
            .map(|v| match *v {
                Val::Const(c) => OutSrc::Const(c),
                Val::Ref(r) => OutSrc::Reg { reg: reg_of[rid(r)], invert: rinv(r) },
            })
            .collect();

        let stats = JitStats {
            source_gates: netlist.gate_count(),
            ops: ops.len(),
            registers: n_regs,
            fused_inverters,
            materialized_nots: b.materialized_nots,
            cse_hits: b.cse_hits,
            dead_nodes,
        };
        let program = CompiledProgram {
            name: netlist.name().to_string(),
            n_inputs,
            n_regs,
            ops,
            outputs,
            stats,
        };
        debug_assert!(
            program.verify().is_empty(),
            "compiler emitted unverifiable bytecode for {}: {:?}",
            program.name,
            program.verify()
        );
        program
    }

    /// Source netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs (also the count of pinned input
    /// registers `0..n_inputs`).
    #[must_use]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Size of the plane register file.
    #[must_use]
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// The flat op array.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Output sources in declaration order.
    #[must_use]
    pub fn output_srcs(&self) -> &[OutSrc] {
        &self.outputs
    }

    /// Compilation statistics.
    #[must_use]
    pub fn stats(&self) -> JitStats {
        self.stats
    }

    /// Static bytecode verifier: structural well-formedness checks that
    /// hold for every correct compilation, independent of the source
    /// netlist's function. Returns one message per violation (empty =
    /// verified). [`CompiledProgram::compile`] debug-asserts this, and
    /// `xlac-lint` runs it over every shipped netlist, so a codegen
    /// regression surfaces as a structured diagnostic rather than a
    /// miscomputed plane.
    ///
    /// Checked properties:
    ///
    /// * every opcode is a valid [`OpKind`] discriminant, with the
    ///   canonical zero padding in unused operand fields;
    /// * every register index (op operands, destinations, output reads)
    ///   is inside the declared register file;
    /// * no op reads a register before it was written — inputs
    ///   `0..n_inputs` are pre-seeded, everything else must be defined
    ///   by an earlier op (the interpreter would silently read zeros);
    /// * non-constant outputs read initialized registers;
    /// * [`JitStats`] is consistent with the bytecode: `ops` and
    ///   `registers` match, and the register file covers the peak
    ///   number of simultaneously live values without exceeding one
    ///   fresh slot per op beyond the pinned inputs.
    #[must_use]
    pub fn verify(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let n_regs = self.n_regs;
        let mut written = vec![false; n_regs.max(self.n_inputs)];
        for w in written.iter_mut().take(self.n_inputs) {
            *w = true;
        }

        for (i, op) in self.ops.iter().enumerate() {
            if usize::from(op.kind) >= OP_COUNT {
                violations.push(format!("op {i}: invalid opcode {}", op.kind));
                continue;
            }
            let kind = match op.kind {
                0 => OpKind::And,
                1 => OpKind::Or,
                2 => OpKind::Xor,
                3 => OpKind::AndNotA,
                4 => OpKind::OrNotA,
                5 => OpKind::Mux,
                _ => OpKind::Not,
            };
            let reads: &[u16] = match kind {
                OpKind::Not => &[op.a],
                OpKind::Mux => &[op.a, op.b, op.c],
                _ => &[op.a, op.b],
            };
            if kind != OpKind::Mux && op.c != 0 {
                violations.push(format!("op {i}: non-mux carries select register {}", op.c));
            }
            if kind == OpKind::Not && op.b != 0 {
                violations.push(format!("op {i}: not carries second operand {}", op.b));
            }
            for &r in reads {
                if usize::from(r) >= n_regs {
                    violations.push(format!(
                        "op {i}: reads register {r} outside the {n_regs}-register file"
                    ));
                } else if !written[usize::from(r)] {
                    violations.push(format!("op {i}: reads register {r} before any write"));
                }
            }
            if usize::from(op.dst) >= n_regs {
                violations.push(format!(
                    "op {i}: writes register {} outside the {n_regs}-register file",
                    op.dst
                ));
            } else {
                written[usize::from(op.dst)] = true;
            }
        }

        for (k, src) in self.outputs.iter().enumerate() {
            if let OutSrc::Reg { reg, .. } = *src {
                if usize::from(reg) >= n_regs {
                    violations.push(format!(
                        "output {k}: reads register {reg} outside the {n_regs}-register file"
                    ));
                } else if !written[usize::from(reg)] {
                    violations.push(format!("output {k}: reads register {reg} before any write"));
                }
            }
        }

        // Peak liveness by backward scan: a register is live at a point
        // when its current value is still read later (outputs live to
        // the end). Any correct compilation needs at least that many
        // slots — and at most one fresh slot per op beyond the pinned
        // inputs, since each op allocates a single destination. (The
        // file may legitimately exceed the liveness peak: an input that
        // is never read keeps its pinned register forever.)
        let mut live = vec![false; n_regs.max(1)];
        let mut live_count = 0usize;
        for src in &self.outputs {
            if let OutSrc::Reg { reg, .. } = *src {
                let r = usize::from(reg);
                if r < n_regs && !live[r] {
                    live[r] = true;
                    live_count += 1;
                }
            }
        }
        let mut peak = live_count;
        for op in self.ops.iter().rev() {
            if usize::from(op.kind) >= OP_COUNT || usize::from(op.dst) >= n_regs {
                continue; // already reported above
            }
            let d = usize::from(op.dst);
            if live[d] {
                live[d] = false;
                live_count -= 1;
            }
            let reads: &[u16] = match op.kind {
                k if k == OpKind::Not as u8 => &[op.a],
                k if k == OpKind::Mux as u8 => &[op.a, op.b, op.c],
                _ => &[op.a, op.b],
            };
            for &r in reads {
                let r = usize::from(r);
                if r < n_regs && !live[r] {
                    live[r] = true;
                    live_count += 1;
                }
            }
            peak = peak.max(live_count);
        }
        if violations.is_empty() {
            let floor = peak.max(self.n_inputs);
            let ceiling = self.n_inputs + self.ops.len();
            if self.n_regs < floor {
                violations.push(format!(
                    "register file has {} slots but peak liveness is {peak} over {} pinned \
                     inputs (needs at least {floor})",
                    self.n_regs, self.n_inputs
                ));
            } else if self.n_regs > ceiling {
                violations.push(format!(
                    "register file has {} slots but {} inputs plus {} ops can allocate at \
                     most {ceiling}",
                    self.n_regs,
                    self.n_inputs,
                    self.ops.len()
                ));
            }
        }

        if self.stats.ops != self.ops.len() {
            violations.push(format!(
                "stats claim {} ops, bytecode has {}",
                self.stats.ops,
                self.ops.len()
            ));
        }
        if self.stats.registers != self.n_regs {
            violations.push(format!(
                "stats claim {} registers, program declares {}",
                self.stats.registers, self.n_regs
            ));
        }
        violations
    }

    /// Runs the program on one plane block per input, reusing
    /// caller-provided scratch: `regs` is the register file, `outputs`
    /// receives one block per primary output. Both are cleared/resized
    /// here, so hot loops allocate nothing after the first call.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != self.n_inputs()`.
    pub fn run_into<B: PlaneBlock>(&self, inputs: &[B], regs: &mut Vec<B>, outputs: &mut Vec<B>) {
        assert_eq!(inputs.len(), self.n_inputs, "expected {} input blocks", self.n_inputs);
        regs.clear();
        regs.resize(self.n_regs, B::zeros());
        regs[..self.n_inputs].copy_from_slice(inputs);
        let table = dispatch_table::<B>();
        for op in &self.ops {
            table[op.kind as usize](regs, op);
        }
        outputs.clear();
        outputs.extend(self.outputs.iter().map(|src| match *src {
            OutSrc::Const(false) => B::zeros(),
            OutSrc::Const(true) => B::ones(),
            OutSrc::Reg { reg, invert } => {
                let v = regs[reg as usize];
                if invert {
                    v.not()
                } else {
                    v
                }
            }
        }));
    }

    /// Allocating convenience wrapper over [`CompiledProgram::run_into`].
    #[must_use]
    pub fn run<B: PlaneBlock>(&self, inputs: &[B]) -> Vec<B> {
        let mut regs = Vec::new();
        let mut outputs = Vec::new();
        self.run_into(inputs, &mut regs, &mut outputs);
        outputs
    }

    /// Scalar evaluation with [`Netlist::eval`]'s packing convention:
    /// input `i` in bit `i`, output `k` in bit `k` of the result.
    ///
    /// # Panics
    ///
    /// Panics when the program has more than 64 inputs or more than 64
    /// outputs: one packed `u64` cannot carry them. Wider programs
    /// evaluate through [`CompiledProgram::run`].
    #[must_use]
    pub fn eval(&self, inputs: u64) -> u64 {
        let n_outputs = self.outputs.len();
        assert!(
            self.n_inputs <= 64 && n_outputs <= 64,
            "{} inputs / {n_outputs} outputs exceed a packed u64",
            self.n_inputs
        );
        let words: Vec<u64> =
            (0..self.n_inputs).map(|i| if (inputs >> i) & 1 == 1 { u64::MAX } else { 0 }).collect();
        let outs = self.run::<u64>(&words);
        outs.iter().enumerate().fold(0u64, |acc, (k, w)| acc | ((w & 1) << k))
    }
}

/// One dispatch-table entry: execute `op` against the register file.
type OpFn<B> = fn(&mut [B], &Op);

fn op_and<B: PlaneBlock>(regs: &mut [B], op: &Op) {
    regs[op.dst as usize] = regs[op.a as usize].and(regs[op.b as usize]);
}
fn op_or<B: PlaneBlock>(regs: &mut [B], op: &Op) {
    regs[op.dst as usize] = regs[op.a as usize].or(regs[op.b as usize]);
}
fn op_xor<B: PlaneBlock>(regs: &mut [B], op: &Op) {
    regs[op.dst as usize] = regs[op.a as usize].xor(regs[op.b as usize]);
}
fn op_and_not_a<B: PlaneBlock>(regs: &mut [B], op: &Op) {
    regs[op.dst as usize] = regs[op.a as usize].not().and(regs[op.b as usize]);
}
fn op_or_not_a<B: PlaneBlock>(regs: &mut [B], op: &Op) {
    regs[op.dst as usize] = regs[op.a as usize].not().or(regs[op.b as usize]);
}
fn op_mux<B: PlaneBlock>(regs: &mut [B], op: &Op) {
    let sel = regs[op.c as usize];
    regs[op.dst as usize] = regs[op.a as usize].and(sel.not()).or(regs[op.b as usize].and(sel));
}
fn op_not<B: PlaneBlock>(regs: &mut [B], op: &Op) {
    regs[op.dst as usize] = regs[op.a as usize].not();
}

/// The function-pointer table, indexed by [`OpKind`] discriminant.
fn dispatch_table<B: PlaneBlock>() -> [OpFn<B>; OP_COUNT] {
    [
        op_and::<B>,
        op_or::<B>,
        op_xor::<B>,
        op_and_not_a::<B>,
        op_or_not_a::<B>,
        op_mux::<B>,
        op_not::<B>,
    ]
}

/// A compiled netlist wearing the [`Multiplier`] / [`MultiplierX64`]
/// traits, so compiled programs slot into every existing sweep driver,
/// the explore Monte-Carlo paths and the accelerator datapaths.
#[derive(Debug, Clone)]
pub struct CompiledMultiplier {
    program: CompiledProgram,
    width: usize,
    name: String,
    cost: HwCost,
}

impl CompiledMultiplier {
    /// Wraps a compiled `2·width`-input multiplier netlist (operand `a`
    /// in inputs `0..width`, `b` in `width..2·width`, product LSB-first).
    /// `name` and `cost` are carried through from the source design —
    /// compilation changes the execution form, not the hardware being
    /// modelled.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when the netlist's
    /// input count is not `2 × width`, or when `width > 32`: the scalar
    /// [`Multiplier::mul`] packs both operands into one `u64`.
    pub fn new(
        netlist: &Netlist,
        width: usize,
        name: impl Into<String>,
        cost: HwCost,
    ) -> Result<Self> {
        if width > 32 {
            return Err(XlacError::InvalidConfiguration(format!(
                "compiled multiplier width {width} exceeds 32 (two operands in one u64)"
            )));
        }
        if netlist.n_inputs() != 2 * width {
            return Err(XlacError::InvalidConfiguration(format!(
                "multiplier netlist has {} inputs, expected {}",
                netlist.n_inputs(),
                2 * width
            )));
        }
        Ok(CompiledMultiplier {
            program: CompiledProgram::compile(netlist),
            width,
            name: name.into(),
            cost,
        })
    }

    /// Compiles a Wallace multiplier's elaborated netlist
    /// ([`xlac_multipliers::hw::wallace_netlist`]).
    #[must_use]
    pub fn wallace(m: &WallaceMultiplier) -> Self {
        let netlist = xlac_multipliers::hw::wallace_netlist(m);
        CompiledMultiplier::new(&netlist, m.width(), m.name(), m.hw_cost())
            .expect("wallace elaboration has 2·width inputs")
    }

    /// The compiled program behind the trait surface.
    #[must_use]
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }
}

impl Multiplier for CompiledMultiplier {
    fn width(&self) -> usize {
        self.width
    }

    fn mul(&self, a: u64, b: u64) -> u64 {
        let w = self.width;
        let packed = xlac_core::bits::truncate(a, w) | (xlac_core::bits::truncate(b, w) << w);
        xlac_core::bits::truncate(self.program.eval(packed), 2 * w)
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn hw_cost(&self) -> HwCost {
        self.cost
    }
}

impl MultiplierX64 for CompiledMultiplier {
    fn mul_x64(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let w = self.width;
        let plane = |p: &[u64], i: usize| p.get(i).copied().unwrap_or(0);
        let mut inputs = vec![0u64; 2 * w];
        for i in 0..w {
            inputs[i] = plane(a, i);
            inputs[w + i] = plane(b, i);
        }
        let mut out = self.program.run::<u64>(&inputs);
        out.resize(2 * w, 0);
        out.truncate(2 * w);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_adders::hw::{pack_operands, ripple_netlist};
    use xlac_adders::{FullAdderKind, RippleCarryAdder};
    use xlac_logic::NetlistBuilder;

    fn exhaustive_match(netlist: &Netlist) {
        let prog = CompiledProgram::compile(netlist);
        assert!(netlist.n_inputs() <= 16, "test helper is exhaustive");
        for x in 0u64..(1 << netlist.n_inputs()) {
            assert_eq!(prog.eval(x), netlist.eval(x), "{} at {x:#b}", netlist.name());
        }
    }

    #[test]
    fn half_adder_compiles_and_matches() {
        let mut b = NetlistBuilder::new("ha", 2);
        let (x, y) = (b.input(0), b.input(1));
        let s = b.gate(GateKind::Xor2, &[x, y]);
        let c = b.gate(GateKind::And2, &[x, y]);
        b.output(s);
        b.output(c);
        let nl = b.finish().unwrap();
        exhaustive_match(&nl);
        let prog = CompiledProgram::compile(&nl);
        assert_eq!(prog.stats().ops, 2);
        assert_eq!(prog.n_regs(), 3, "one operand register is reused");
    }

    #[test]
    fn inverted_gates_fuse_to_flags() {
        // nand / nor / xnor / not chains emit base ops only.
        let mut b = NetlistBuilder::new("inv", 2);
        let (x, y) = (b.input(0), b.input(1));
        let nand = b.gate(GateKind::Nand2, &[x, y]);
        let nor = b.gate(GateKind::Nor2, &[x, y]);
        let xnor = b.gate(GateKind::Xnor2, &[x, y]);
        let nn = b.gate(GateKind::Not, &[nand]);
        b.output(nand);
        b.output(nor);
        b.output(xnor);
        b.output(nn);
        let nl = b.finish().unwrap();
        exhaustive_match(&nl);
        let prog = CompiledProgram::compile(&nl);
        assert_eq!(prog.stats().ops, 3, "and + or + xor, all inverts on outputs");
        assert_eq!(prog.stats().materialized_nots, 0);
        assert!(prog.stats().fused_inverters >= 4);
        assert!(prog
            .output_srcs()
            .iter()
            .take(3)
            .all(|o| matches!(o, OutSrc::Reg { invert: true, .. })));
        // Double negation: the 4th output reads the and-node uninverted.
        assert!(matches!(prog.output_srcs()[3], OutSrc::Reg { invert: false, .. }));
    }

    #[test]
    fn passthrough_and_constant_outputs() {
        let mut b = NetlistBuilder::new("wires", 3);
        b.output(Signal::Input(2));
        let k = b.constant(true);
        b.output(k);
        let not_in = b.gate(GateKind::Not, &[Signal::Input(0)]);
        b.output(not_in);
        let nl = b.finish().unwrap();
        exhaustive_match(&nl);
        let prog = CompiledProgram::compile(&nl);
        assert_eq!(prog.stats().ops, 0, "pure wiring compiles to zero ops");
        assert_eq!(prog.output_srcs()[0], OutSrc::Reg { reg: 2, invert: false });
        assert_eq!(prog.output_srcs()[1], OutSrc::Const(true));
        assert_eq!(prog.output_srcs()[2], OutSrc::Reg { reg: 0, invert: true });
    }

    #[test]
    fn constants_fold_through_cones() {
        let mut b = NetlistBuilder::new("consts", 2);
        let f = b.constant(false);
        let t = b.constant(true);
        let x = b.input(0);
        let a0 = b.gate(GateKind::And2, &[x, f]); // = 0
        let o1 = b.gate(GateKind::Or2, &[a0, t]); // = 1
        let xx = b.gate(GateKind::Xor2, &[x, x]); // = 0
        let m = b.gate(GateKind::Mux2, &[x, xx, o1]); // = xx = 0
        b.output(m);
        b.output(o1);
        let nl = b.finish().unwrap();
        exhaustive_match(&nl);
        let prog = CompiledProgram::compile(&nl);
        assert_eq!(prog.stats().ops, 0);
        assert_eq!(prog.output_srcs(), &[OutSrc::Const(false), OutSrc::Const(true)]);
    }

    #[test]
    fn mux_normalizations_stay_correct() {
        // Exercise every mux fold: const data, equal/complementary data,
        // inverted select, single and double inverted data.
        let mut b = NetlistBuilder::new("muxes", 3);
        let (d0, d1, s) = (b.input(0), b.input(1), b.input(2));
        let ns = b.gate(GateKind::Not, &[s]);
        let nd0 = b.gate(GateKind::Not, &[d0]);
        let nd1 = b.gate(GateKind::Not, &[d1]);
        let f = b.constant(false);
        let t = b.constant(true);
        for fanin in [
            [f, d1, s],
            [t, d1, s],
            [d0, f, s],
            [d0, t, s],
            [d0, d1, ns],
            [nd0, d1, s],
            [d0, nd1, s],
            [nd0, nd1, s],
            [d0, nd0, s],
            [f, t, s],
            [t, f, s],
            [d0, d0, s],
        ] {
            let m = b.gate(GateKind::Mux2, &fanin);
            b.output(m);
        }
        let nl = b.finish().unwrap();
        exhaustive_match(&nl);
    }

    #[test]
    fn cse_unifies_duplicate_gates() {
        let mut b = NetlistBuilder::new("dup", 2);
        let (x, y) = (b.input(0), b.input(1));
        let a1 = b.gate(GateKind::And2, &[x, y]);
        let a2 = b.gate(GateKind::And2, &[y, x]); // commuted duplicate
        let n1 = b.gate(GateKind::Nand2, &[x, y]); // inverted duplicate
        let o = b.gate(GateKind::Or2, &[a1, a2]);
        let o2 = b.gate(GateKind::Or2, &[o, n1]);
        b.output(o2);
        let nl = b.finish().unwrap();
        exhaustive_match(&nl);
        let prog = CompiledProgram::compile(&nl);
        assert!(prog.stats().cse_hits >= 2, "stats: {:?}", prog.stats());
        // or(a, a) = a; or(a, !a) = 1 — everything folds away.
        assert_eq!(prog.output_srcs(), &[OutSrc::Const(true)]);
    }

    #[test]
    fn dead_gates_are_eliminated() {
        let mut b = NetlistBuilder::new("dead", 2);
        let (x, y) = (b.input(0), b.input(1));
        let live = b.gate(GateKind::And2, &[x, y]);
        let _dead = b.gate(GateKind::Xor2, &[x, y]);
        let _deader = b.gate(GateKind::Or2, &[_dead, y]);
        b.output(live);
        let nl = b.finish().unwrap();
        let prog = CompiledProgram::compile(&nl);
        assert_eq!(prog.stats().ops, 1);
        assert_eq!(prog.stats().dead_nodes, 2);
        exhaustive_match(&nl);
    }

    #[test]
    fn registers_are_reused_along_chains() {
        // A long AND chain needs O(1) non-input registers.
        let n = 12usize;
        let mut b = NetlistBuilder::new("chain", n);
        let mut acc = b.input(0);
        for i in 1..n {
            let x = b.input(i);
            acc = b.gate(GateKind::And2, &[acc, x]);
        }
        b.output(acc);
        let nl = b.finish().unwrap();
        exhaustive_match(&nl);
        let prog = CompiledProgram::compile(&nl);
        assert_eq!(prog.stats().ops, n - 1);
        assert!(prog.n_regs() <= n + 1, "chain must reuse dying registers, got {}", prog.n_regs());
    }

    #[test]
    fn ripple_adder_program_matches_netlist_and_model() {
        for kind in [FullAdderKind::Accurate, FullAdderKind::Apx2] {
            let rca = RippleCarryAdder::with_approx_lsbs(6, kind, 3).unwrap();
            let nl = ripple_netlist(&rca);
            let prog = CompiledProgram::compile(&nl);
            for a in 0u64..64 {
                for b in 0u64..64 {
                    let packed = pack_operands(a, b, 6);
                    assert_eq!(prog.eval(packed), nl.eval(packed), "{kind} {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn wide_blocks_agree_with_u64_word_by_word() {
        use xlac_core::rng::{DefaultRng, Rng};
        let rca = RippleCarryAdder::accurate(8);
        let prog = CompiledProgram::compile(&ripple_netlist(&rca));
        let mut rng = DefaultRng::seed_from_u64(0x51AB);
        let n = prog.n_inputs();
        let mut wide = vec![<[u64; 4]>::zeros(); n];
        let mut narrow = vec![vec![0u64; n]; 4];
        for i in 0..n {
            for (k, lanes) in narrow.iter_mut().enumerate() {
                let w = rng.next_u64();
                wide[i].set_word(k, w);
                lanes[i] = w;
            }
        }
        let wide_out = prog.run::<[u64; 4]>(&wide);
        for (k, lanes) in narrow.iter().enumerate() {
            let narrow_out = prog.run::<u64>(lanes);
            for (o, w) in narrow_out.iter().zip(&wide_out) {
                assert_eq!(*o, w.word(k), "word {k}");
            }
        }
    }

    #[test]
    fn run_into_reuses_buffers() {
        let rca = RippleCarryAdder::accurate(4);
        let prog = CompiledProgram::compile(&ripple_netlist(&rca));
        let mut regs = Vec::new();
        let mut outs = Vec::new();
        prog.run_into(&[0u64; 8], &mut regs, &mut outs);
        let cap = (regs.capacity(), outs.capacity());
        prog.run_into(&[u64::MAX; 8], &mut regs, &mut outs);
        assert_eq!((regs.capacity(), outs.capacity()), cap);
        assert_eq!(outs.len(), prog.n_outputs());
    }

    #[test]
    fn compiled_multiplier_wears_both_traits() {
        let m = WallaceMultiplier::new(4, FullAdderKind::Accurate, 0).unwrap();
        let c = CompiledMultiplier::wallace(&m);
        assert_eq!(c.width(), 4);
        assert_eq!(Multiplier::name(&c), m.name());
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(c.mul(a, b), a * b, "{a}x{b}");
            }
        }
        // The x64 surface has exactly 2w planes, like every MultiplierX64.
        let planes = c.mul_x64(&[u64::MAX; 4], &[0, u64::MAX, 0, 0]);
        assert_eq!(planes.len(), 8);
        assert_eq!(xlac_core::lanes::lane(&planes, 0), 15 * 2);
    }

    #[test]
    fn compiled_multiplier_rejects_wrong_arity() {
        let mut b = NetlistBuilder::new("bad", 3);
        let g = b.gate(GateKind::And2, &[Signal::Input(0), Signal::Input(1)]);
        b.output(g);
        let nl = b.finish().unwrap();
        assert!(CompiledMultiplier::new(&nl, 2, "bad", HwCost::ZERO).is_err());
    }

    /// An `n`-input netlist whose only output is its top input.
    fn top_input_passthrough(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("wide", n);
        let top = b.input(n - 1);
        b.output(top);
        b.finish().unwrap()
    }

    #[test]
    #[should_panic(expected = "65 inputs / 1 outputs exceed a packed u64")]
    fn scalar_eval_rejects_more_than_64_inputs() {
        let prog = CompiledProgram::compile(&top_input_passthrough(65));
        let _ = prog.eval(1);
    }

    #[test]
    fn compiled_multiplier_rejects_operands_wider_than_32_bits() {
        // Arity is right (2 × 33 inputs); the packed scalar `mul` is not.
        let nl = top_input_passthrough(66);
        let err = CompiledMultiplier::new(&nl, 33, "wide", HwCost::ZERO).unwrap_err();
        assert!(matches!(err, XlacError::InvalidConfiguration(_)), "{err}");
        let nl = top_input_passthrough(64);
        assert!(CompiledMultiplier::new(&nl, 32, "ok", HwCost::ZERO).is_ok());
    }

    #[test]
    fn compiled_programs_pass_the_static_verifier() {
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx2, 3).unwrap();
        let nl = ripple_netlist(&rca);
        let prog = CompiledProgram::compile(&nl);
        assert!(prog.verify().is_empty(), "{:?}", prog.verify());

        let mut b = NetlistBuilder::new("mux", 3);
        let m = b.gate(GateKind::Mux2, &[Signal::Input(0), Signal::Input(1), Signal::Input(2)]);
        b.output(m);
        let mux = CompiledProgram::compile(&b.finish().unwrap());
        assert!(mux.verify().is_empty(), "{:?}", mux.verify());
    }

    fn corruptible() -> CompiledProgram {
        let mut b = NetlistBuilder::new("victim", 2);
        let (x, y) = (b.input(0), b.input(1));
        let s = b.gate(GateKind::Xor2, &[x, y]);
        let c = b.gate(GateKind::And2, &[x, y]);
        b.output(s);
        b.output(c);
        CompiledProgram::compile(&b.finish().unwrap())
    }

    #[test]
    fn verifier_rejects_corrupted_bytecode() {
        // Each corruption hits a distinct violation class.
        let base = corruptible();
        assert!(base.verify().is_empty());

        let mut p = base.clone();
        p.ops[0].kind = OP_COUNT as u8;
        assert!(p.verify().iter().any(|v| v.contains("invalid opcode")));

        let mut p = base.clone();
        p.ops[0].a = p.n_regs as u16;
        assert!(p.verify().iter().any(|v| v.contains("outside the")));

        let mut p = base.clone();
        let fresh = p.n_regs as u16;
        p.n_regs += 1;
        p.stats.registers += 1;
        p.ops[0].a = fresh;
        assert!(p.verify().iter().any(|v| v.contains("before any write")));

        let mut p = base.clone();
        p.outputs[0] = OutSrc::Reg { reg: p.n_regs as u16, invert: false };
        assert!(p.verify().iter().any(|v| v.starts_with("output 0")));

        let mut p = base.clone();
        p.n_regs += 10;
        p.stats.registers += 10;
        assert!(p.verify().iter().any(|v| v.contains("can allocate at most")));

        let mut p = base.clone();
        p.stats.ops += 1;
        assert!(p.verify().iter().any(|v| v.contains("stats claim")));

        let mut p = base.clone();
        p.stats.registers += 1;
        assert!(!p.verify().is_empty());
    }
}
