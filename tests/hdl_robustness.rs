//! Robustness of the `hdl/*.v` front end: no source text may stall or
//! crash the parser, the linter or the two netlist conversions.
//!
//! * **Deep chains** — 100 000 chained inverters convert with
//!   `RawNetlist::to_netlist` (no recursion, so no stack overflow),
//!   compile to BDDs through `compile_raw` when declared last to first,
//!   and lint in linear time, also when the chain closes into one cycle
//!   (XL003), is declared last to first from a constant (XL006) or reads
//!   an undriven net per cell (XL001).
//! * **Mutation fuzzing** — the registry's shipped exports, mutated by
//!   byte flips, truncations, deleted and duplicated lines and swapped
//!   tokens, go through `lint_raw`, `to_netlist` and `compile_raw`. Each
//!   stage returns diagnostics or an `Err`, never a panic; where
//!   `to_netlist` succeeds, its netlist computes what an independent
//!   per-cell evaluator of the parsed module computes, on seeded
//!   assignments.

use std::collections::HashMap;
use std::panic::catch_unwind;
use std::path::Path;

use xlac::analysis::lint::{lint_raw, LintRule};
use xlac::analysis::parse::{parse_verilog, CellFunc, RawNetlist};
use xlac::analysis::symbolic::registry::ensure_registry_hdl;
use xlac::analysis::symbolic::{compile_raw, interleaved_operand_vars, Bdd};
use xlac::core::check::{check, DefaultRng, Rng};
use xlac::logic::GateKind;
use xlac_core::prop_assert;

/// Cells per chain: deep enough that a recursive walk overflows the stack
/// of a test thread (and of the main thread).
const DEPTH: usize = 100_000;

/// The cell lines of a `DEPTH`-cell chain from `source`: `cell(k, from)`
/// declares cell `k`, which drives `w{k}` from `from`.
fn chain(source: &str, cell: impl Fn(usize, &str) -> String) -> Vec<String> {
    (0..DEPTH)
        .map(|k| cell(k, &if k == 0 { source.to_string() } else { format!("w{}", k - 1) }))
        .collect()
}

/// A module around `cells` whose output is the chain's last net.
fn module(cells: &[String]) -> String {
    let mut v = String::from("module chain (\n    input  wire i0,\n    output wire o0\n);\n");
    v.extend(cells.iter().map(String::as_str));
    v.push_str(&format!("    assign o0 = w{};\nendmodule\n", DEPTH - 1));
    v
}

fn inverter(k: usize, from: &str) -> String {
    format!("    not g{k} (w{k}, {from});\n")
}

/// The inverter chain with its first inverter fed by its last.
fn inverter_loop() -> String {
    module(&chain(&format!("w{}", DEPTH - 1), inverter))
}

#[test]
fn a_deep_chain_converts_without_recursion() {
    let mut reversed = chain("i0", inverter);
    reversed.reverse();
    let reversed = module(&reversed);
    let (module, errors) = parse_verilog(&module(&chain("i0", inverter)));
    assert!(errors.is_empty(), "{errors:?}");
    let netlist = module.unwrap().to_netlist().unwrap();
    assert_eq!(netlist.gate_count(), DEPTH);
    // An even number of inverters is the identity.
    assert_eq!((netlist.eval(0), netlist.eval(1)), (0, 1));

    let (module, _) = parse_verilog(&inverter_loop());
    let err = module.unwrap().to_netlist().unwrap_err();
    assert!(err.contains("cycle"), "{err}");

    // Declared last to first, through the symbolic compiler: still the
    // identity, in linear time.
    let (module, errors) = parse_verilog(&reversed);
    assert!(errors.is_empty(), "{errors:?}");
    let mut bdd = Bdd::new();
    let x = bdd.var(0);
    assert_eq!(compile_raw(&mut bdd, &module.unwrap(), &[x]), Ok(vec![x]));
}

#[test]
fn a_deep_chain_lints_in_linear_time() {
    let lint = |source: &str| {
        let (module, errors) = parse_verilog(source);
        lint_raw(&module.unwrap(), &errors)
    };
    let report = lint(&module(&chain("i0", inverter)));
    assert!(report.diagnostics.is_empty(), "{:?}", &report.diagnostics[..1]);

    // One cycle through every cell: XL003 on each.
    let report = lint(&inverter_loop());
    assert_eq!(report.matching(LintRule::CombinationalCycle).len(), DEPTH);

    // Declared last to first from a constant: the constant reaches the
    // end of the chain, and XL006 flags every cell.
    let mut reversed = chain("1'b0", inverter);
    reversed.reverse();
    let report = lint(&module(&reversed));
    assert_eq!(report.matching(LintRule::ConstantCone).len(), DEPTH);

    // Every cell reads an undriven net of its own: one XL001 each.
    let floating = chain("i0", |k, from| format!("    and g{k} (w{k}, {from}, u{k});\n"));
    let report = lint(&module(&floating));
    assert_eq!(report.matching(LintRule::FloatingNet).len(), DEPTH);
}

/// Every shipped `hdl/*.v` export, in file-name order.
fn shipped_sources() -> Vec<String> {
    let hdl = Path::new(env!("CARGO_MANIFEST_DIR")).join("hdl");
    ensure_registry_hdl(&hdl).expect("hdl/ self-heals from the registry");
    let mut paths: Vec<_> = std::fs::read_dir(&hdl)
        .expect("hdl/ is readable")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "v"))
        .collect();
    paths.sort();
    paths.iter().map(|p| std::fs::read_to_string(p).expect("hdl/ file is readable")).collect()
}

/// Swaps two identifier-like tokens (runs of alphanumerics, `_` and `'`).
fn swap_tokens(bytes: &[u8], rng: &mut DefaultRng) -> Vec<u8> {
    let is_token = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
    let mut spans = Vec::new();
    let mut start = None;
    for (i, &b) in bytes.iter().chain(b" ").enumerate() {
        match (is_token(b), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if spans.len() < 2 {
        return bytes.to_vec();
    }
    let (i, j) = (rng.gen_range(0..spans.len()), rng.gen_range(0..spans.len()));
    if i == j {
        return bytes.to_vec();
    }
    let ((a0, a1), (b0, b1)) = (spans[i.min(j)], spans[i.max(j)]);
    [&bytes[..a0], &bytes[b0..b1], &bytes[a1..b0], &bytes[a0..a1], &bytes[b1..]].concat()
}

/// One to four mutations of `source`.
fn mutate(source: &str, rng: &mut DefaultRng) -> Vec<u8> {
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..5u32) {
            0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes.truncate(at),
            2 | 3 => {
                let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
                let line = rng.gen_range(0..lines.len());
                if rng.gen_bool(0.5) {
                    lines.remove(line);
                } else {
                    lines.insert(rng.gen_range(0..=lines.len()), lines[line]);
                }
                bytes = lines.join(&b'\n');
            }
            _ => bytes = swap_tokens(&bytes, rng),
        }
    }
    bytes
}

/// Evaluates the parsed module on 64 lanes per word with no code shared
/// with `to_netlist`: each sweep over the cells in declaration order
/// evaluates every cell whose operands are known, until a sweep makes no
/// progress. Returns the output words, or `None` when an output stays
/// unknown (an undriven or cyclic cone, a hierarchy, a malformed cell).
fn eval_per_cell(module: &RawNetlist, inputs: &[u64]) -> Option<Vec<u64>> {
    let mut known: HashMap<&str, u64> =
        module.inputs.iter().map(String::as_str).zip(inputs.iter().copied()).collect();
    known.insert("1'b0", 0);
    known.insert("1'b1", u64::MAX);
    let mut pending: Vec<_> = module.cells.iter().collect();
    loop {
        let before = pending.len();
        pending.retain(|cell| {
            let operands: Option<Vec<u64>> =
                cell.inputs.iter().map(|s| known.get(s.as_str()).copied()).collect();
            let Some(operands) = operands else { return true };
            let value = match (&cell.func, &operands[..]) {
                (CellFunc::Alias | CellFunc::Gate(GateKind::Buf), &[x]) => x,
                (CellFunc::Gate(GateKind::Not), &[x]) => !x,
                (CellFunc::Gate(GateKind::And2), &[x, y]) => x & y,
                (CellFunc::Gate(GateKind::Or2), &[x, y]) => x | y,
                (CellFunc::Gate(GateKind::Nand2), &[x, y]) => !(x & y),
                (CellFunc::Gate(GateKind::Nor2), &[x, y]) => !(x | y),
                (CellFunc::Gate(GateKind::Xor2), &[x, y]) => x ^ y,
                (CellFunc::Gate(GateKind::Xnor2), &[x, y]) => !(x ^ y),
                (CellFunc::Gate(GateKind::Mux2), &[d0, d1, sel]) => (d0 & !sel) | (d1 & sel),
                _ => return true,
            };
            known.insert(cell.output.as_str(), value);
            false
        });
        if pending.len() == before {
            break;
        }
    }
    module.outputs.iter().map(|o| known.get(o.as_str()).copied()).collect()
}

/// Where `to_netlist` accepts `module`, compares its netlist with
/// [`eval_per_cell`] on four seeded 64-lane assignments; `Ok` when they
/// agree or the module is rejected.
fn netlist_matches_per_cell_eval(module: &RawNetlist, seed: u64) -> Result<(), String> {
    let Ok(netlist) = module.to_netlist() else { return Ok(()) };
    let mut rng = DefaultRng::seed_from_u64(seed);
    let (mut values, mut outs) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        let inputs: Vec<u64> = (0..module.inputs.len()).map(|_| rng.gen()).collect();
        netlist.eval_words_into(&inputs, &mut values, &mut outs);
        let Some(want) = eval_per_cell(module, &inputs) else {
            return Err(format!("{}: accepted, but an output has no per-cell value", module.name));
        };
        if outs != want {
            return Err(format!(
                "{}: to_netlist disagrees with the per-cell evaluator",
                module.name
            ));
        }
    }
    Ok(())
}

#[test]
fn every_shipped_export_matches_the_per_cell_evaluator() {
    for (i, source) in shipped_sources().iter().enumerate() {
        let (module, errors) = parse_verilog(source);
        assert!(errors.is_empty(), "{errors:?}");
        let module = module.expect("a shipped export declares a module");
        assert!(module.to_netlist().is_ok(), "{} is rejected", module.name);
        netlist_matches_per_cell_eval(&module, i as u64).unwrap();
    }
}

#[test]
fn mutated_registry_exports_never_panic_the_front_end() {
    let sources = shipped_sources();
    assert!(sources.len() >= 19, "expected the full hdl/ set, found {}", sources.len());
    let gen = |rng: &mut DefaultRng| mutate(&sources[rng.gen_range(0..sources.len())], rng);
    check("hdl front end on mutated registry exports", gen, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        let outcome = catch_unwind(|| {
            let (module, errors) = parse_verilog(&text);
            let module = module?;
            let report = lint_raw(&module, &errors);
            let mut bdd = Bdd::new();
            // The two operand halves interleaved, the order that keeps
            // adders and multipliers small.
            let n = module.inputs.len();
            let (a, b) = interleaved_operand_vars(&mut bdd, n.div_ceil(2));
            let vars: Vec<_> = a.into_iter().chain(b).take(n).collect();
            let _ = compile_raw(&mut bdd, &module, &vars);
            let agree = netlist_matches_per_cell_eval(&module, bytes.len() as u64);
            Some((errors.len(), report.matching(LintRule::ParseError).len(), agree))
        })
        .map_err(|_| format!("the front end panicked on {text:?}"))?;
        if let Some((parse_errors, xl000, agree)) = outcome {
            prop_assert!(parse_errors == xl000, "{parse_errors} parse errors, {xl000} XL000");
            agree.map_err(|e| format!("{e} on {text:?}"))?;
        }
        Ok(())
    });
}
