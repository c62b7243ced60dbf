//! Netlist optimization: constant folding, common-subexpression
//! elimination and dead-gate removal.
//!
//! Hierarchically composed arithmetic (see `xlac-adders::hw`) carries
//! redundancy a real synthesis flow would clean up: cells fed by the
//! constant-zero initial carry fold away, identical gates instantiated by
//! neighbouring cells merge, and gates whose outputs nobody reads vanish.
//! [`optimize`] applies the three passes to fixpoint while provably
//! preserving the netlist function (every pass is a local equivalence).
//!
//! # Example
//!
//! ```
//! use xlac_logic::{GateKind, NetlistBuilder};
//! use xlac_logic::opt::optimize;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let mut b = NetlistBuilder::new("redundant", 2);
//! let (x, y) = (b.input(0), b.input(1));
//! let zero = b.constant(false);
//! let a1 = b.gate(GateKind::And2, &[x, y]);
//! let a2 = b.gate(GateKind::And2, &[x, y]);   // duplicate of a1
//! let o = b.gate(GateKind::Or2, &[a1, zero]); // OR with 0 = wire
//! let _dead = b.gate(GateKind::Xor2, &[a2, y]); // never read
//! b.output(o);
//! let nl = b.finish()?;
//! let opt = optimize(&nl);
//! assert!(opt.gate_count() < nl.gate_count());
//! for v in 0..4 {
//!     assert_eq!(opt.eval(v), nl.eval(v));
//! }
//! # Ok(())
//! # }
//! ```

use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistBuilder, Signal};
use std::collections::HashMap;

/// Optimizes a netlist: repeated constant folding, identity
/// simplification, common-subexpression elimination and dead-gate
/// removal, to fixpoint. The result computes the same function with at
/// most as many gates.
#[must_use]
pub fn optimize(netlist: &Netlist) -> Netlist {
    let mut current = one_pass(netlist);
    loop {
        let next = one_pass(&current);
        if next.gate_count() == current.gate_count() {
            return next;
        }
        current = next;
    }
}

/// One combined folding + CSE + dead-code pass.
fn one_pass(netlist: &Netlist) -> Netlist {
    let mut b = NetlistBuilder::new(netlist.name(), netlist.n_inputs());
    // Where each original gate's value now lives.
    let mut map: Vec<Signal> = Vec::with_capacity(netlist.gate_count());
    // CSE table: canonical (kind, fanin) → signal.
    let mut seen: HashMap<(GateKind, Vec<Signal>), Signal> = HashMap::new();

    // Mark live gates (transitively referenced from the outputs).
    let live = liveness(netlist);

    for (idx, (kind, fanin)) in netlist.gates().enumerate() {
        if !live[idx] {
            // Dead: map to a placeholder that is never read.
            map.push(Signal::Const(false));
            continue;
        }
        let resolved: Vec<Signal> = fanin
            .iter()
            .map(|s| match s {
                Signal::Gate(g) => map[*g],
                other => *other,
            })
            .collect();

        if let Some(simplified) = simplify(kind, &resolved) {
            map.push(simplified);
            continue;
        }

        let key = (kind, canonical(kind, &resolved));
        if let Some(&existing) = seen.get(&key) {
            map.push(existing);
            continue;
        }
        let sig = b.gate(kind, &resolved);
        seen.insert(key, sig);
        map.push(sig);
    }

    for out in netlist.outputs() {
        let resolved = match out {
            Signal::Gate(g) => map[g],
            other => other,
        };
        b.output(resolved);
    }
    b.finish().expect("optimization preserves outputs")
}

fn liveness(netlist: &Netlist) -> Vec<bool> {
    let mut live = vec![false; netlist.gate_count()];
    let mut stack: Vec<usize> = netlist
        .outputs()
        .filter_map(|s| if let Signal::Gate(g) = s { Some(g) } else { None })
        .collect();
    while let Some(g) = stack.pop() {
        if live[g] {
            continue;
        }
        live[g] = true;
        let (_, fanin) = netlist.gates().nth(g).expect("gate exists");
        for s in fanin {
            if let Signal::Gate(f) = s {
                stack.push(*f);
            }
        }
    }
    live
}

/// Local simplification: constant folding and identity rules. Returns the
/// replacement signal when the gate reduces to a wire or constant.
fn simplify(kind: GateKind, fanin: &[Signal]) -> Option<Signal> {
    use Signal::Const;
    let konst = |s: Signal| -> Option<bool> {
        if let Const(v) = s {
            Some(v)
        } else {
            None
        }
    };
    match kind {
        GateKind::Not => konst(fanin[0]).map(|v| Const(!v)),
        GateKind::Buf => Some(fanin[0]),
        GateKind::And2 | GateKind::Nand2 | GateKind::Or2 | GateKind::Nor2 => {
            let (a, b) = (fanin[0], fanin[1]);
            let invert = matches!(kind, GateKind::Nand2 | GateKind::Nor2);
            let is_and = matches!(kind, GateKind::And2 | GateKind::Nand2);
            // Fold full constants.
            if let (Some(x), Some(y)) = (konst(a), konst(b)) {
                let v = if is_and { x && y } else { x || y };
                return Some(Const(v ^ invert));
            }
            // Identity / annihilator with one constant.
            for (c, other) in [(a, b), (b, a)] {
                if let Some(v) = konst(c) {
                    let annihilates = v != is_and; // 0 for AND, 1 for OR
                    if annihilates {
                        return Some(Const(!is_and ^ invert));
                    }
                    // Identity: AND with 1 / OR with 0 → wire (only for
                    // the non-inverting forms; NAND/NOR become a NOT,
                    // which is not a simplification here).
                    if !invert {
                        return Some(other);
                    }
                }
            }
            // x AND x = x, x OR x = x (non-inverting only).
            if a == b && !invert {
                return Some(a);
            }
            None
        }
        GateKind::Xor2 | GateKind::Xnor2 => {
            let (a, b) = (fanin[0], fanin[1]);
            let invert = kind == GateKind::Xnor2;
            if let (Some(x), Some(y)) = (konst(a), konst(b)) {
                return Some(Const((x ^ y) ^ invert));
            }
            if a == b {
                return Some(Const(invert));
            }
            // XOR with 0 → wire; XNOR with 1 → wire.
            for (c, other) in [(a, b), (b, a)] {
                if konst(c) == Some(invert) {
                    return Some(other);
                }
            }
            None
        }
        GateKind::Mux2 => {
            let (d0, d1, sel) = (fanin[0], fanin[1], fanin[2]);
            if let Some(s) = konst(sel) {
                return Some(if s { d1 } else { d0 });
            }
            if d0 == d1 {
                return Some(d0);
            }
            None
        }
    }
}

/// Canonical fanin ordering for commutative gates so CSE matches
/// `AND(a, b)` with `AND(b, a)`.
fn canonical(kind: GateKind, fanin: &[Signal]) -> Vec<Signal> {
    let mut v = fanin.to_vec();
    if matches!(
        kind,
        GateKind::And2
            | GateKind::Or2
            | GateKind::Nand2
            | GateKind::Nor2
            | GateKind::Xor2
            | GateKind::Xnor2
    ) {
        v.sort_by_key(|s| match s {
            Signal::Input(i) => (0usize, *i),
            Signal::Gate(g) => (1, *g),
            Signal::Const(c) => (2, usize::from(*c)),
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equivalent(a: &Netlist, b: &Netlist) {
        assert_eq!(a.n_inputs(), b.n_inputs());
        assert_eq!(a.n_outputs(), b.n_outputs());
        for x in 0..(1u64 << a.n_inputs()) {
            assert_eq!(a.eval(x), b.eval(x), "diverge at {x:#b}");
        }
    }

    #[test]
    fn constant_carry_in_folds_away() {
        // FA with cin = 0 should lose its cin-facing logic.
        let mut b = NetlistBuilder::new("fa0", 2);
        let (x, y) = (b.input(0), b.input(1));
        let zero = b.constant(false);
        let axb = b.gate(GateKind::Xor2, &[x, y]);
        let sum = b.gate(GateKind::Xor2, &[axb, zero]);
        let ab = b.gate(GateKind::And2, &[x, y]);
        let pc = b.gate(GateKind::And2, &[axb, zero]);
        let cout = b.gate(GateKind::Or2, &[ab, pc]);
        b.output(sum);
        b.output(cout);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        equivalent(&nl, &opt);
        // xor-with-0 and and-with-0 fold; or-with-0 becomes wire:
        // 2 gates remain (xor, and).
        assert_eq!(opt.gate_count(), 2);
    }

    #[test]
    fn duplicate_gates_merge() {
        let mut b = NetlistBuilder::new("dup", 2);
        let (x, y) = (b.input(0), b.input(1));
        let a1 = b.gate(GateKind::And2, &[x, y]);
        let a2 = b.gate(GateKind::And2, &[y, x]); // commuted duplicate
        let o = b.gate(GateKind::Or2, &[a1, a2]); // a OR a → wire
        b.output(o);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        equivalent(&nl, &opt);
        assert_eq!(opt.gate_count(), 1, "one AND survives");
    }

    #[test]
    fn dead_gates_are_removed() {
        let mut b = NetlistBuilder::new("dead", 2);
        let (x, y) = (b.input(0), b.input(1));
        let live = b.gate(GateKind::Xor2, &[x, y]);
        let _dead1 = b.gate(GateKind::And2, &[x, y]);
        let _dead2 = b.gate(GateKind::Or2, &[x, y]);
        b.output(live);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        equivalent(&nl, &opt);
        assert_eq!(opt.gate_count(), 1);
    }

    #[test]
    fn xor_identities() {
        let mut b = NetlistBuilder::new("xors", 1);
        let x = b.input(0);
        let same = b.gate(GateKind::Xor2, &[x, x]); // → 0
        let with0 = b.gate(GateKind::Xor2, &[x, same]); // x ^ 0 → x
        let xnor1 = {
            let one = b.constant(true);
            b.gate(GateKind::Xnor2, &[with0, one]) // xnor with 1 → wire
        };
        b.output(xnor1);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        equivalent(&nl, &opt);
        assert_eq!(opt.gate_count(), 0, "reduces to a wire");
    }

    #[test]
    fn mux_with_constant_select() {
        let mut b = NetlistBuilder::new("mux", 2);
        let (d0, d1) = (b.input(0), b.input(1));
        let sel = b.constant(true);
        let m = b.gate(GateKind::Mux2, &[d0, d1, sel]);
        b.output(m);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        equivalent(&nl, &opt);
        assert_eq!(opt.gate_count(), 0);
        assert_eq!(opt.eval(0b10), 1); // selects d1
    }

    #[test]
    fn annihilators_fold() {
        let mut b = NetlistBuilder::new("ann", 1);
        let x = b.input(0);
        let zero = b.constant(false);
        let one = b.constant(true);
        let and0 = b.gate(GateKind::And2, &[x, zero]); // → 0
        let or1 = b.gate(GateKind::Or2, &[x, one]); // → 1
        let nand0 = b.gate(GateKind::Nand2, &[and0, x]); // NAND(0, x) → 1
        let nor1 = b.gate(GateKind::Nor2, &[or1, x]); // NOR(1, x) → 0
        b.output(nand0);
        b.output(nor1);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        equivalent(&nl, &opt);
        assert_eq!(opt.gate_count(), 0);
        assert_eq!(opt.eval(0), 0b01);
        assert_eq!(opt.eval(1), 0b01);
    }

    #[test]
    fn elaborated_ripple_adder_shrinks_but_stays_equivalent() {
        // The first FA of an elaborated ripple chain has cin = 0: the
        // optimizer must recover roughly a half-adder there.
        use crate::synth::verify_against;
        use crate::truth_table::TruthTable;
        // Build a 3-bit accurate ripple chain by hand (mirrors
        // xlac-adders::hw without the cross-crate dependency).
        let fa = |b: &mut NetlistBuilder, x: Signal, y: Signal, c: Signal| -> (Signal, Signal) {
            let axb = b.gate(GateKind::Xor2, &[x, y]);
            let sum = b.gate(GateKind::Xor2, &[axb, c]);
            let ab = b.gate(GateKind::And2, &[x, y]);
            let pc = b.gate(GateKind::And2, &[axb, c]);
            let cout = b.gate(GateKind::Or2, &[ab, pc]);
            (sum, cout)
        };
        let mut b = NetlistBuilder::new("rca3", 6);
        let mut carry = b.constant(false);
        let mut sums = Vec::new();
        for i in 0..3 {
            let (s, c) = fa(&mut b, Signal::Input(i), Signal::Input(3 + i), carry);
            sums.push(s);
            carry = c;
        }
        for s in sums {
            b.output(s);
        }
        b.output(carry);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        assert!(opt.gate_count() < nl.gate_count());
        // Verify against the arithmetic specification.
        let spec = TruthTable::from_fn(6, 4, |x| (x & 7) + ((x >> 3) & 7));
        assert_eq!(verify_against(&opt, &spec), 0);
        assert!(opt.area_ge() < nl.area_ge());
    }

    #[test]
    fn optimization_is_idempotent() {
        let mut b = NetlistBuilder::new("idem", 2);
        let (x, y) = (b.input(0), b.input(1));
        let g = b.gate(GateKind::Xor2, &[x, y]);
        b.output(g);
        let nl = b.finish().unwrap();
        let once = optimize(&nl);
        let twice = optimize(&once);
        assert_eq!(once.gate_count(), twice.gate_count());
        equivalent(&once, &twice);
    }

    #[test]
    fn random_netlists_stay_equivalent() {
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(0x09);
        for trial in 0..40 {
            let n_in = rng.gen_range(2..=4usize);
            let mut b = NetlistBuilder::new("rand", n_in);
            let mut pool: Vec<Signal> = (0..n_in).map(Signal::Input).collect();
            pool.push(b.constant(false));
            pool.push(b.constant(true));
            for _ in 0..rng.gen_range(3..20usize) {
                let kinds = [
                    GateKind::And2,
                    GateKind::Or2,
                    GateKind::Nand2,
                    GateKind::Nor2,
                    GateKind::Xor2,
                    GateKind::Xnor2,
                    GateKind::Not,
                ];
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let fanin: Vec<Signal> =
                    (0..kind.arity()).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                pool.push(b.gate(kind, &fanin));
            }
            for _ in 0..rng.gen_range(1..=3usize) {
                let s = pool[rng.gen_range(0..pool.len())];
                b.output(s);
            }
            let nl = b.finish().unwrap();
            let opt = optimize(&nl);
            equivalent(&nl, &opt);
            assert!(opt.gate_count() <= nl.gate_count(), "trial {trial}");
        }
    }
}
