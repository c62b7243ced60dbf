//! A line-oriented parser for the Verilog subset that `xlac_logic::verilog`
//! emits (and that `hdl/` ships): scalar `input`/`output wire` ports,
//! `wire` declaration lines, gate primitives, `assign` statements (plain
//! aliases or 2:1 mux conditionals), and module instantiations with
//! positional connections (output ports first, then inputs — the same
//! operand convention as the gate primitives). [`parse_verilog_library`]
//! accepts several modules per file; [`parse_verilog`] keeps the
//! historical one-module-per-file contract.
//!
//! Parsing is deliberately lenient: unrecognized lines become
//! [`ParseError`]s (surfaced by the linter as `XL000` diagnostics) and
//! parsing continues, so a single bad line does not hide structural
//! problems elsewhere in the file.

use std::collections::HashMap;

use xlac_logic::gate::GateKind;
use xlac_logic::{Netlist, NetlistBuilder, Signal};

/// A line the parser could not interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

/// The function of one parsed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFunc {
    /// A gate primitive or mux conditional.
    Gate(GateKind),
    /// A plain `assign lhs = rhs;` alias.
    Alias,
    /// An instantiation of the named module, with positional connections
    /// (outputs first, then inputs — the gate-primitive convention).
    Instance(String),
}

/// One driver in the netlist: a gate instance or an assign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawCell {
    /// Instance name (`g3`) or the assign target for aliases.
    pub name: String,
    /// Cell function.
    pub func: CellFunc,
    /// Driven signal.
    pub output: String,
    /// Input signals in cell-operand order (`[d0, d1, sel]` for mux).
    pub inputs: Vec<String>,
    /// 1-based source line number.
    pub line: usize,
}

/// A structural netlist in terms of named signals, as parsed from source
/// (or converted from a built [`xlac_logic::netlist::Netlist`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawNetlist {
    /// Module name.
    pub name: String,
    /// 1-based line of the `module` header (0 for converted netlists).
    pub line: usize,
    /// Input port names, in declaration order.
    pub inputs: Vec<String>,
    /// Output port names, in declaration order.
    pub outputs: Vec<String>,
    /// Declared internal wires.
    pub wires: Vec<String>,
    /// All drivers.
    pub cells: Vec<RawCell>,
}

impl RawNetlist {
    /// Converts the parsed module into a built [`Netlist`], topologically
    /// ordering the cells (source files may declare drivers in any
    /// order). Aliases collapse to their driven signal; constants map to
    /// [`Signal::Const`]. The output cones are built first, then every
    /// cell outside them, so the netlist keeps each gate of the module and
    /// a cyclic, undriven or malformed cell is rejected wherever it sits.
    /// This is the one `hdl/` front end; the symbolic compiler goes
    /// through it too.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending cell or signal for module
    /// instantiations (the flat [`Netlist`] form has no hierarchy),
    /// undriven signals, multiply-driven signals, input ports driven by a
    /// cell, combinational cycles, operand-count mismatches and modules
    /// without outputs.
    pub fn to_netlist(&self) -> Result<Netlist, String> {
        let mut drivers: HashMap<&str, usize> = HashMap::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if let CellFunc::Instance(module) = &cell.func {
                return Err(format!(
                    "{}: cell {} instantiates module {module}; flatten the hierarchy first",
                    self.name, cell.name
                ));
            }
            if drivers.insert(cell.output.as_str(), i).is_some() {
                return Err(format!("{}: signal {} is multiply driven", self.name, cell.output));
            }
        }
        let input_index: HashMap<&str, usize> =
            self.inputs.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
        if let Some(clash) = self.inputs.iter().find(|n| drivers.contains_key(n.as_str())) {
            return Err(format!("{}: input port {clash} is driven by a cell", self.name));
        }

        let mut b = NetlistBuilder::new(self.name.clone(), self.inputs.len());
        let mut visiting = vec![false; self.cells.len()];
        let mut built: Vec<Option<Signal>> = vec![None; self.cells.len()];
        let mut outs = Vec::with_capacity(self.outputs.len());
        for name in &self.outputs {
            let resolved =
                self.resolve(name, &drivers, &input_index, &mut b, &mut visiting, &mut built)?;
            outs.push(resolved);
        }
        // Then the cells outside every output cone, in declaration order:
        // the netlist keeps every cell of the module.
        for cell in &self.cells {
            self.resolve(&cell.output, &drivers, &input_index, &mut b, &mut visiting, &mut built)?;
        }
        for sig in outs {
            b.output(sig);
        }
        b.finish().map_err(|e| format!("{}: {e}", self.name))
    }

    /// Builds the cone driving `name` depth-first, operands left to right,
    /// with an explicit stack (a deep chain must not exhaust the thread's
    /// stack). `visiting` marks the cells on the current path: reaching
    /// one again is a combinational cycle.
    fn resolve(
        &self,
        name: &str,
        drivers: &HashMap<&str, usize>,
        input_index: &HashMap<&str, usize>,
        b: &mut NetlistBuilder,
        visiting: &mut [bool],
        built: &mut [Option<Signal>],
    ) -> Result<Signal, String> {
        // A resolved signal, or the index of the cell still to build.
        let lookup =
            |name: &str, built: &[Option<Signal>]| -> Result<Result<Signal, usize>, String> {
                match name {
                    "1'b0" => return Ok(Ok(Signal::Const(false))),
                    "1'b1" => return Ok(Ok(Signal::Const(true))),
                    _ => {}
                }
                if let Some(&i) = input_index.get(name) {
                    return Ok(Ok(Signal::Input(i)));
                }
                let Some(&cell_ix) = drivers.get(name) else {
                    return Err(format!("{}: signal {name} has no driver", self.name));
                };
                Ok(built[cell_ix].ok_or(cell_ix))
            };
        let root = match lookup(name, built)? {
            Ok(sig) => return Ok(sig),
            Err(cell_ix) => cell_ix,
        };
        visiting[root] = true;
        // Each frame: a cell and its operands resolved so far.
        let mut stack: Vec<(usize, Vec<Signal>)> = vec![(root, Vec::new())];
        while let Some((cell_ix, fanin)) = stack.last_mut() {
            let cell = &self.cells[*cell_ix];
            if let Some(operand) = cell.inputs.get(fanin.len()) {
                match lookup(operand, built)? {
                    Ok(sig) => fanin.push(sig),
                    Err(dep) if visiting[dep] => {
                        return Err(format!(
                            "{}: combinational cycle through {operand}",
                            self.name
                        ));
                    }
                    Err(dep) => {
                        visiting[dep] = true;
                        stack.push((dep, Vec::new()));
                    }
                }
                continue;
            }
            let sig = match &cell.func {
                CellFunc::Gate(kind) if fanin.len() == kind.arity() => b.gate(*kind, fanin),
                CellFunc::Gate(kind) => {
                    return Err(format!(
                        "{}: cell {} has {} operands, {kind} expects {}",
                        self.name,
                        cell.name,
                        fanin.len(),
                        kind.arity()
                    ));
                }
                CellFunc::Alias => match fanin[..] {
                    [source] => source,
                    _ => {
                        return Err(format!(
                            "{}: alias {} must have one source",
                            self.name, cell.name
                        ))
                    }
                },
                CellFunc::Instance(_) => unreachable!("instances rejected above"),
            };
            visiting[*cell_ix] = false;
            built[*cell_ix] = Some(sig);
            stack.pop();
            if let Some((_, parent)) = stack.last_mut() {
                parent.push(sig);
            }
        }
        built[root].ok_or_else(|| format!("{}: signal {name} was not built", self.name))
    }
}

/// `true` for the constant literals `1'b0` / `1'b1`.
#[must_use]
pub fn is_constant(signal: &str) -> bool {
    signal == "1'b0" || signal == "1'b1"
}

fn is_identifier(token: &str) -> bool {
    !token.is_empty()
        && token.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && token.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn is_signal(token: &str) -> bool {
    is_identifier(token) || is_constant(token)
}

/// Splits `"g3 (w3, i0, w1)"` into the instance name and operand list.
fn split_instance(rest: &str) -> Option<(String, Vec<String>)> {
    let open = rest.find('(')?;
    let close = rest.rfind(')')?;
    if close < open {
        return None;
    }
    let name = rest[..open].trim().to_string();
    let operands: Vec<String> =
        rest[open + 1..close].split(',').map(|s| s.trim().to_string()).collect();
    if !is_identifier(&name) || operands.iter().any(|o| !is_signal(o)) {
        return None;
    }
    Some((name, operands))
}

/// Parses one source file under the one-module-per-file contract: the
/// first module is returned and any further `module` header is an error.
#[must_use]
pub fn parse_verilog(source: &str) -> (Option<RawNetlist>, Vec<ParseError>) {
    let (mut modules, mut errors) = parse_verilog_library(source);
    if modules.len() > 1 {
        for extra in modules.split_off(1) {
            errors
                .push(ParseError { line: extra.line, message: "second module declaration".into() });
        }
        errors.sort_by_key(|e| e.line);
    }
    (modules.pop(), errors)
}

/// Parses a source file that may declare several modules (a *library*:
/// leaf cells plus the composed netlists instantiating them). Returns the
/// modules in declaration order plus every unparseable line.
#[must_use]
pub fn parse_verilog_library(source: &str) -> (Vec<RawNetlist>, Vec<ParseError>) {
    let mut modules: Vec<RawNetlist> = Vec::new();
    let mut errors = Vec::new();
    let mut in_header = false;
    let err = |line: usize, message: String, errors: &mut Vec<ParseError>| {
        errors.push(ParseError { line, message });
    };

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = line.strip_prefix("module ") {
            let name = rest.trim_end_matches('(').trim().to_string();
            if !is_identifier(&name) {
                err(line_no, format!("bad module name {name:?}"), &mut errors);
                continue;
            }
            modules.push(RawNetlist { name, line: line_no, ..RawNetlist::default() });
            in_header = true;
            continue;
        }
        let Some(net) = modules.last_mut() else {
            err(line_no, "statement outside a module".into(), &mut errors);
            continue;
        };

        if in_header {
            if line == ");" {
                in_header = false;
                continue;
            }
            let port = line.trim_end_matches(',');
            let mut tokens = port.split_whitespace();
            match (tokens.next(), tokens.next(), tokens.next(), tokens.next()) {
                (Some("input"), Some("wire"), Some(name), None) if is_identifier(name) => {
                    net.inputs.push(name.to_string());
                }
                (Some("output"), Some("wire"), Some(name), None) if is_identifier(name) => {
                    net.outputs.push(name.to_string());
                }
                _ => err(line_no, format!("bad port declaration {line:?}"), &mut errors),
            }
            continue;
        }

        if line == "endmodule" {
            continue;
        }
        if let Some(rest) = line.strip_prefix("wire ") {
            let Some(decl) = rest.strip_suffix(';') else {
                err(line_no, "wire declaration missing ';'".into(), &mut errors);
                continue;
            };
            let mut ok = true;
            for w in decl.split(',').map(str::trim) {
                if is_identifier(w) {
                    net.wires.push(w.to_string());
                } else {
                    ok = false;
                }
            }
            if !ok {
                err(line_no, format!("bad wire declaration {line:?}"), &mut errors);
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("assign ") {
            let Some(stmt) = rest.strip_suffix(';') else {
                err(line_no, "assign missing ';'".into(), &mut errors);
                continue;
            };
            let Some((lhs, rhs)) = stmt.split_once('=') else {
                err(line_no, "assign missing '='".into(), &mut errors);
                continue;
            };
            let lhs = lhs.trim().to_string();
            let rhs = rhs.trim();
            if !is_identifier(&lhs) {
                err(line_no, format!("bad assign target {lhs:?}"), &mut errors);
                continue;
            }
            if let Some((sel, branches)) = rhs.split_once('?') {
                let Some((d1, d0)) = branches.split_once(':') else {
                    err(line_no, "conditional missing ':'".into(), &mut errors);
                    continue;
                };
                let (sel, d1, d0) = (sel.trim(), d1.trim(), d0.trim());
                if [sel, d1, d0].iter().all(|s| is_signal(s)) {
                    net.cells.push(RawCell {
                        name: lhs.clone(),
                        func: CellFunc::Gate(GateKind::Mux2),
                        output: lhs,
                        inputs: vec![d0.to_string(), d1.to_string(), sel.to_string()],
                        line: line_no,
                    });
                } else {
                    err(line_no, format!("bad conditional operands {rhs:?}"), &mut errors);
                }
            } else if is_signal(rhs) {
                net.cells.push(RawCell {
                    name: lhs.clone(),
                    func: CellFunc::Alias,
                    output: lhs,
                    inputs: vec![rhs.to_string()],
                    line: line_no,
                });
            } else {
                err(line_no, format!("bad assign source {rhs:?}"), &mut errors);
            }
            continue;
        }
        // Gate primitive `nand g3 (w3, i0, w1);` or module instance
        // `ApxFA2 u0 (s, cout, a, b, cin);` — outputs first either way.
        let Some(stmt) = line.strip_suffix(';') else {
            err(line_no, format!("unrecognized statement {line:?}"), &mut errors);
            continue;
        };
        let mut parts = stmt.splitn(2, char::is_whitespace);
        let prim = parts.next().unwrap_or_default();
        let rest = parts.next().unwrap_or_default();
        let func = match GateKind::from_verilog_primitive(prim) {
            Some(kind) => CellFunc::Gate(kind),
            None if is_identifier(prim) => CellFunc::Instance(prim.to_string()),
            None => {
                err(line_no, format!("unknown primitive {prim:?}"), &mut errors);
                continue;
            }
        };
        let Some((name, mut operands)) = split_instance(rest) else {
            match func {
                CellFunc::Instance(_) => {
                    err(line_no, format!("unrecognized statement {line:?}"), &mut errors);
                }
                _ => err(line_no, format!("bad instance syntax {line:?}"), &mut errors),
            }
            continue;
        };
        if operands.is_empty() {
            err(line_no, "instance with no operands".into(), &mut errors);
            continue;
        }
        let output = operands.remove(0);
        net.cells.push(RawCell { name, func, output, inputs: operands, line: line_no });
    }

    (modules, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
// generated by xlac-logic
module ApxFA2 (
    input  wire i0,
    input  wire i1,
    input  wire i2,
    output wire o0,
    output wire o1
);
    wire w0, w1;

    or   g0 (w0, i0, i2);
    not  g1 (w1, w0);

    assign o0 = w1;
    assign o1 = i1 ? w0 : 1'b0;
endmodule
";

    #[test]
    fn parses_the_emitted_subset() {
        let (module, errors) = parse_verilog(GOOD);
        assert!(errors.is_empty(), "{errors:?}");
        let net = module.unwrap();
        assert_eq!(net.name, "ApxFA2");
        assert_eq!(net.inputs, ["i0", "i1", "i2"]);
        assert_eq!(net.outputs, ["o0", "o1"]);
        assert_eq!(net.wires, ["w0", "w1"]);
        assert_eq!(net.cells.len(), 4);
        assert_eq!(net.cells[0].func, CellFunc::Gate(GateKind::Or2));
        assert_eq!(net.cells[0].inputs, ["i0", "i2"]);
        let mux = &net.cells[3];
        assert_eq!(mux.func, CellFunc::Gate(GateKind::Mux2));
        assert_eq!(mux.inputs, ["1'b0", "w0", "i1"]);
    }

    #[test]
    fn to_netlist_builds_the_parsed_module() {
        let (module, errors) = parse_verilog(GOOD);
        assert!(errors.is_empty(), "{errors:?}");
        let nl = module.unwrap().to_netlist().unwrap();
        assert_eq!(nl.n_inputs(), 3);
        assert_eq!(nl.n_outputs(), 2);
        for x in 0..8u64 {
            let (i0, i1, i2) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let w0 = i0 | i2;
            let want = (1 - w0) | ((if i1 == 1 { w0 } else { 0 }) << 1);
            assert_eq!(nl.eval(x), want, "input {x:03b}");
        }
    }

    #[test]
    fn to_netlist_orders_cells_topologically() {
        // Drivers deliberately out of order: g1 consumes w0 before g0
        // declares it.
        let src =
            "module shuffled (\n    input  wire a,\n    input  wire b,\n    output wire y\n);\n\
                   wire w0, w1;\n    xor g1 (w1, w0, b);\n    and g0 (w0, a, b);\n\
                   assign y = w1;\nendmodule\n";
        let (module, errors) = parse_verilog(src);
        assert!(errors.is_empty(), "{errors:?}");
        let nl = module.unwrap().to_netlist().unwrap();
        for x in 0..4u64 {
            let (a, b) = (x & 1, (x >> 1) & 1);
            assert_eq!(nl.eval(x), (a & b) ^ b);
        }
    }

    #[test]
    fn to_netlist_rejects_what_the_flat_form_cannot_express() {
        let undriven = "module m (\n    input  wire a,\n    output wire y\n);\n\
                        assign y = ghost;\nendmodule\n";
        let (module, _) = parse_verilog(undriven);
        let err = module.unwrap().to_netlist().unwrap_err();
        assert!(err.contains("no driver"), "{err}");

        let cyclic = "module m (\n    input  wire a,\n    output wire y\n);\n\
                      wire w0, w1;\n    not g0 (w0, w1);\n    not g1 (w1, w0);\n\
                      assign y = w0;\nendmodule\n";
        let (module, _) = parse_verilog(cyclic);
        let err = module.unwrap().to_netlist().unwrap_err();
        assert!(err.contains("cycle"), "{err}");

        let hierarchical = "module m (\n    input  wire a,\n    output wire y\n);\n\
                            leaf u0 (y, a);\nendmodule\n";
        let (module, _) = parse_verilog(hierarchical);
        let err = module.unwrap().to_netlist().unwrap_err();
        assert!(err.contains("flatten"), "{err}");
    }

    #[test]
    fn bad_lines_become_errors_without_stopping() {
        let src = "module m (\n    input  wire i0,\n    output wire o0\n);\n\
                   foo bar baz;\n    assign o0 = i0;\nendmodule\n";
        let (module, errors) = parse_verilog(src);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].line, 5);
        let net = module.unwrap();
        assert_eq!(net.cells.len(), 1);
    }

    #[test]
    fn parses_a_multi_module_library_with_instances() {
        let src = "\
module leaf (
    input  wire a,
    input  wire b,
    output wire y
);
    and g0 (y, a, b);
endmodule

module top (
    input  wire x0,
    input  wire x1,
    output wire z
);
    leaf u0 (z, x0, x1);
endmodule
";
        let (modules, errors) = parse_verilog_library(src);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(modules.len(), 2);
        assert_eq!(modules[0].name, "leaf");
        assert_eq!(modules[1].name, "top");
        let inst = &modules[1].cells[0];
        assert_eq!(inst.func, CellFunc::Instance("leaf".into()));
        assert_eq!(inst.name, "u0");
        assert_eq!(inst.output, "z");
        assert_eq!(inst.inputs, ["x0", "x1"]);
    }

    #[test]
    fn single_module_contract_flags_extra_modules() {
        let src = "module a (\n    input  wire i0,\n    output wire o0\n);\n\
                   assign o0 = i0;\nendmodule\nmodule b (\n    input  wire i0,\n\
                   output wire o0\n);\nassign o0 = i0;\nendmodule\n";
        let (module, errors) = parse_verilog(src);
        assert_eq!(module.unwrap().name, "a");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("second module"));
    }

    #[test]
    fn no_module_header_yields_none() {
        let (module, errors) = parse_verilog("assign a = b;\n");
        assert!(module.is_none());
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn round_trips_generated_verilog() {
        use xlac_adders::FullAdderKind;
        for kind in FullAdderKind::ALL {
            let netlist = kind.synthesized_netlist();
            let source = xlac_logic::verilog::to_verilog(&netlist);
            let (module, errors) = parse_verilog(&source);
            assert!(errors.is_empty(), "{kind}: {errors:?}");
            let net = module.unwrap();
            assert_eq!(net.inputs.len(), 3, "{kind}");
            assert_eq!(net.outputs.len(), 2, "{kind}");
        }
    }
}
