//! Register-allocator unit tests on fixture netlists
//! (`tests/fixtures/jit/*.v`): liveness edge cases — passthrough
//! outputs, constant cones, diamond reconvergence, register pressure,
//! serial-chain recycling — each locked down both behaviourally
//! (exhaustive against the interpreter) and structurally (op counts,
//! register-file bounds, output sources).

use std::path::Path;
use xlac_analysis::parse::parse_verilog;
use xlac_logic::Netlist;
use xlac_sim::{CompiledProgram, OutSrc};

fn fixture(name: &str) -> Netlist {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/jit/{name}.v"));
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let (module, errors) = parse_verilog(&source);
    assert!(errors.is_empty(), "{name}: {errors:?}");
    module.expect("fixture has a module").to_netlist().unwrap()
}

/// Compiled == interpreted over the whole input space (all fixtures are
/// well under the 2^20 exhaustive ceiling).
fn assert_exhaustively_equal(nl: &Netlist, prog: &CompiledProgram) {
    for x in 0..(1u64 << nl.n_inputs()) {
        assert_eq!(prog.eval(x), nl.eval(x), "{}: input {x:#b}", nl.name());
    }
}

#[test]
fn passthrough_outputs_never_touch_the_op_array() {
    let nl = fixture("passthrough");
    let prog = CompiledProgram::compile(&nl);
    assert_exhaustively_equal(&nl, &prog);
    let stats = prog.stats();
    assert_eq!(stats.ops, 0, "aliases and constants must not emit ops");
    assert_eq!(stats.registers, 2, "only the pinned inputs");
    assert_eq!(
        prog.output_srcs(),
        [
            OutSrc::Reg { reg: 0, invert: false },
            OutSrc::Reg { reg: 1, invert: true },
            OutSrc::Const(true),
        ]
    );
}

#[test]
fn constant_cones_fold_to_an_inverted_passthrough() {
    let nl = fixture("const_cone");
    let prog = CompiledProgram::compile(&nl);
    assert_exhaustively_equal(&nl, &prog);
    let stats = prog.stats();
    assert_eq!(stats.ops, 0, "the whole cone folds at compile time");
    assert_eq!(prog.output_srcs(), [OutSrc::Reg { reg: 1, invert: true }]);
    // Input a is dead: its pinned register exists but nothing reads it.
    assert!(prog.ops().is_empty());
}

#[test]
fn diamond_reconvergence_keeps_the_shared_node_live() {
    let nl = fixture("diamond");
    let prog = CompiledProgram::compile(&nl);
    assert_exhaustively_equal(&nl, &prog);
    let stats = prog.stats();
    assert_eq!(stats.ops, 4, "no fold applies: and, xor, or, and");
    // w0 must survive the first arm; c survives both arms. Peak pressure
    // is 3 inputs + w0 + one arm = 5; recycling dying registers caps the
    // file there.
    assert!(stats.registers <= 5, "register file grew to {}", stats.registers);
    // The shared node w0 is computed exactly once (CSE'd DAG, not a tree).
    assert_eq!(stats.cse_hits, 0);
    assert_eq!(stats.dead_nodes, 0);
}

#[test]
fn register_pressure_is_the_live_set_peak() {
    let nl = fixture("pressure");
    let prog = CompiledProgram::compile(&nl);
    assert_exhaustively_equal(&nl, &prog);
    let stats = prog.stats();
    assert_eq!(stats.ops, 9, "five products, four tree xors");
    // Every input is a primary output, so none of the six pinned input
    // registers is ever freed — the op array must work above them. The
    // demand-order schedule interleaves tree xors with the products, so
    // the peak live set adds three temporaries.
    assert_eq!(stats.registers, 9, "6 pinned inputs + 3 live temporaries");
    // The input echoes resolve at the OutSrc layer, straight from the
    // pinned registers.
    for (i, src) in prog.output_srcs().iter().skip(1).enumerate() {
        assert_eq!(*src, OutSrc::Reg { reg: i as u16, invert: false });
    }
}

#[test]
fn serial_chains_recycle_dying_registers() {
    let nl = fixture("chain");
    let prog = CompiledProgram::compile(&nl);
    assert_exhaustively_equal(&nl, &prog);
    let stats = prog.stats();
    assert_eq!(stats.ops, 7);
    // Each link's dst reuses a register its own operands just vacated.
    assert_eq!(stats.registers, nl.n_inputs(), "chain must run inside the pinned registers");
}
