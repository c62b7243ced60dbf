//! Compiling circuit representations into output BDDs.
//!
//! Every representation the workspace ships — built
//! [`xlac_logic::Netlist`]s, specification [`TruthTable`]s, and the
//! Verilog-subset [`RawNetlist`]s parsed from `hdl/` — compiles to a
//! vector of BDD roots, one per output bit, over a **caller-chosen
//! variable assignment**: the `inputs` slice maps circuit input `i` to an
//! arbitrary BDD function (usually a projection variable). Compiling two
//! representations against the *same* `inputs` slice puts them in the same
//! variable order, so canonical-form equality ([`super::equiv`]) is formal
//! equivalence.
//!
//! The recommended order for two-operand datapaths interleaves the operand
//! bits LSB-first ([`interleaved_operand_vars`]): `a0, b0, a1, b1, …`
//! keeps ripple chains and reduction trees polynomial-sized.

use super::bdd::{Bdd, Ref, FALSE};
use crate::parse::RawNetlist;
use xlac_logic::{GateKind, Netlist, Signal, TruthTable};

/// Projection variables for a two-operand datapath, interleaved LSB-first:
/// `a_i` is variable `2i`, `b_i` is variable `2i + 1`. Returns
/// `(a_vars, b_vars)`, each of length `width`.
pub fn interleaved_operand_vars(bdd: &mut Bdd, width: usize) -> (Vec<Ref>, Vec<Ref>) {
    let a = (0..width).map(|i| bdd.var(2 * i)).collect();
    let b = (0..width).map(|i| bdd.var(2 * i + 1)).collect();
    (a, b)
}

/// Applies one gate of the `xlac-logic` cell library to BDD operands
/// (operand order as in [`GateKind::eval_word`]; `Mux2` is
/// `[d0, d1, sel]`).
///
/// # Panics
///
/// Panics when `ops.len()` differs from the gate's arity.
pub fn apply_gate(bdd: &mut Bdd, kind: GateKind, ops: &[Ref]) -> Ref {
    assert_eq!(ops.len(), kind.arity(), "{kind} expects {} operands", kind.arity());
    match kind {
        GateKind::Not => bdd.not(ops[0]),
        GateKind::Buf => ops[0],
        GateKind::And2 => bdd.and(ops[0], ops[1]),
        GateKind::Or2 => bdd.or(ops[0], ops[1]),
        GateKind::Nand2 => bdd.nand(ops[0], ops[1]),
        GateKind::Nor2 => bdd.nor(ops[0], ops[1]),
        GateKind::Xor2 => bdd.xor(ops[0], ops[1]),
        GateKind::Xnor2 => bdd.xnor(ops[0], ops[1]),
        GateKind::Mux2 => bdd.mux(ops[2], ops[0], ops[1]),
    }
}

/// Compiles a built netlist into one BDD per output, with circuit input
/// `i` bound to `inputs[i]`.
///
/// # Panics
///
/// Panics when `inputs.len()` differs from the netlist's input count.
pub fn compile_netlist(bdd: &mut Bdd, nl: &Netlist, inputs: &[Ref]) -> Vec<Ref> {
    assert_eq!(inputs.len(), nl.n_inputs(), "{}: input arity mismatch", nl.name());
    let resolve = |values: &[Ref], sig: Signal| match sig {
        Signal::Input(i) => inputs[i],
        Signal::Gate(g) => values[g],
        Signal::Const(c) => Bdd::constant(c),
    };
    // Netlist gates are stored in topological order: one forward sweep.
    let mut values: Vec<Ref> = Vec::with_capacity(nl.gate_count());
    for (kind, fanin) in nl.gates() {
        // Gate arity is at most 3: the operands fit a stack array.
        let mut ops = [FALSE; 3];
        for (op, &s) in ops.iter_mut().zip(fanin) {
            *op = resolve(&values, s);
        }
        let v = apply_gate(bdd, kind, &ops[..fanin.len()]);
        values.push(v);
    }
    nl.outputs().map(|sig| resolve(&values, sig)).collect()
}

/// Compiles a truth table into one BDD per output via Shannon expansion
/// on the row index (input `i` of the table is bound to `inputs[i]`;
/// rows are indexed with input `i` at bit `i`, as in
/// [`TruthTable::from_fn`]).
///
/// # Panics
///
/// Panics when `inputs.len()` differs from the table's input count.
pub fn compile_truth_table(bdd: &mut Bdd, tt: &TruthTable, inputs: &[Ref]) -> Vec<Ref> {
    assert_eq!(inputs.len(), tt.n_inputs(), "truth-table input arity mismatch");
    (0..tt.n_outputs()).map(|out| shannon(bdd, tt, out, inputs, inputs.len(), 0)).collect()
}

/// Recursive Shannon expansion of output `out` over the rows
/// `base .. base + 2^level` (splitting on input `level - 1`).
fn shannon(
    bdd: &mut Bdd,
    tt: &TruthTable,
    out: usize,
    inputs: &[Ref],
    level: usize,
    base: u64,
) -> Ref {
    if level == 0 {
        return Bdd::constant(tt.output_bit(base, out) == 1);
    }
    let half = 1u64 << (level - 1);
    let lo = shannon(bdd, tt, out, inputs, level - 1, base);
    let hi = shannon(bdd, tt, out, inputs, level - 1, base + half);
    bdd.ite(inputs[level - 1], hi, lo)
}

/// Compiles a parsed `hdl/` netlist into one BDD per declared output,
/// with input *port* `i` bound to `inputs[i]`: the module goes through
/// [`RawNetlist::to_netlist`], the one `hdl/` front end, and then
/// [`compile_netlist`]. So cells may appear in any source order, and
/// module instantiations, combinational cycles, missing or multiple
/// drivers, arity mismatches and output-less modules are rejected (the
/// lint catches all of them first, with better locations).
///
/// # Errors
///
/// Returns a human-readable description of the first obstacle, including
/// an input-port count that differs from `inputs.len()` — a malformed or
/// truncated module must surface as a diagnostic, never a panic.
pub fn compile_raw(bdd: &mut Bdd, raw: &RawNetlist, inputs: &[Ref]) -> Result<Vec<Ref>, String> {
    if inputs.len() != raw.inputs.len() {
        return Err(format!(
            "{}: input arity mismatch ({} ports declared, {} variables bound)",
            raw.name,
            raw.inputs.len(),
            inputs.len()
        ));
    }
    Ok(compile_netlist(bdd, &raw.to_netlist()?, inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_verilog;
    use xlac_logic::NetlistBuilder;

    /// Exhaustively checks compiled BDD outputs against an evaluator.
    fn assert_matches(bdd: &Bdd, outs: &[Ref], n_inputs: usize, f: impl Fn(u64) -> u64) {
        for x in 0u64..(1 << n_inputs) {
            let want = f(x);
            for (k, &o) in outs.iter().enumerate() {
                assert_eq!(bdd.eval(o, x), (want >> k) & 1 == 1, "output {k} at input {x:b}");
            }
        }
    }

    #[test]
    fn netlist_and_truth_table_compile_to_the_same_roots() {
        // A 3-input circuit mixing gate kinds: maj + parity.
        let mut nb = NetlistBuilder::new("mix", 3);
        let (a, b, c) = (nb.input(0), nb.input(1), nb.input(2));
        let ab = nb.gate(GateKind::And2, &[a, b]);
        let axb = nb.gate(GateKind::Xor2, &[a, b]);
        let pc = nb.gate(GateKind::And2, &[axb, c]);
        let maj = nb.gate(GateKind::Or2, &[ab, pc]);
        let parity = nb.gate(GateKind::Xor2, &[axb, c]);
        nb.output(maj);
        nb.output(parity);
        let nl = nb.finish().unwrap();

        let tt = TruthTable::from_fn(3, 2, |x| nl.eval(x));

        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..3).map(|i| bdd.var(i)).collect();
        let from_nl = compile_netlist(&mut bdd, &nl, &vars);
        let from_tt = compile_truth_table(&mut bdd, &tt, &vars);
        assert_eq!(from_nl, from_tt, "canonicity: same function, same refs");
        assert_matches(&bdd, &from_nl, 3, |x| nl.eval(x));
    }

    #[test]
    fn mux_and_constants_compile() {
        let mut nb = NetlistBuilder::new("mux", 3);
        let (d0, d1, sel) = (nb.input(0), nb.input(1), nb.input(2));
        let one = nb.constant(true);
        let m = nb.gate(GateKind::Mux2, &[d0, d1, sel]);
        let o = nb.gate(GateKind::Xor2, &[m, one]);
        nb.output(o);
        let nl = nb.finish().unwrap();

        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..3).map(|i| bdd.var(i)).collect();
        let outs = compile_netlist(&mut bdd, &nl, &vars);
        assert_matches(&bdd, &outs, 3, |x| nl.eval(x));
    }

    #[test]
    fn raw_netlist_compiles_out_of_order_cells() {
        // g2 references w1 before g1 defines it.
        let src = "\
module scramble (
    input wire a,
    input wire b,
    output wire y
);
    wire w1, w2;
    xor g2 (w2, w1, b);
    and g1 (w1, a, b);
    assign y = w2;
endmodule
";
        let (raw, errors) = parse_verilog(src);
        assert!(errors.is_empty(), "{errors:?}");
        let raw = raw.unwrap();
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..2).map(|i| bdd.var(i)).collect();
        let outs = compile_raw(&mut bdd, &raw, &vars).unwrap();
        assert_matches(&bdd, &outs, 2, |x| {
            let (a, b) = (x & 1, (x >> 1) & 1);
            (a & b) ^ b
        });
    }

    #[test]
    fn raw_netlist_cycle_is_rejected() {
        let src = "\
module loopy (
    input wire a,
    output wire y
);
    wire w1, w2;
    and g1 (w1, w2, a);
    or g2 (w2, w1, a);
    assign y = w1;
endmodule
";
        let (raw, _) = parse_verilog(src);
        let raw = raw.unwrap();
        let mut bdd = Bdd::new();
        let v = vec![bdd.var(0)];
        let err = compile_raw(&mut bdd, &raw, &v).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }
}
