//! Structural netlist lint.
//!
//! Eleven structural rules over a [`RawNetlist`] (parsed from Verilog or
//! converted from a built [`Netlist`]), plus four semantic rules backed
//! by the abstract interpreter in [`crate::absint`] that run when the
//! lint entry point has a built [`Netlist`] to analyze:
//!
//! | Rule    | Severity | Finding |
//! |---------|----------|---------|
//! | `XL000` | Error    | unparseable source line |
//! | `XL001` | Error    | floating net (used but never driven) |
//! | `XL002` | Error    | multiply-driven net |
//! | `XL003` | Error    | combinational cycle |
//! | `XL004` | Error    | operand count does not match the cell arity |
//! | `XL005` | Warning  | dead gate (drives no output cone) |
//! | `XL006` | Warning  | gate output is provably constant |
//! | `XL007` | Warning  | unused input port |
//! | `XL008` | Error    | undriven output port |
//! | `XL009` | Error    | instance port width mismatches the declaration |
//! | `XL010` | Warning  | structurally equivalent duplicate gate |
//! | `XL011` | Warning  | gate constant under the declared input distribution |
//! | `XL012` | Warning  | gate dead under observability don't-cares |
//! | `XL013` | Warning  | reconvergent constant invisible to ternary analysis |
//! | `XL014` | Error    | unit descriptor violates its declarative contract |
//!
//! Errors are structural defects that make the netlist unsynthesizable or
//! non-deterministic; warnings flag waste (which the paper's approximate
//! designs legitimately produce — `ApxFA5` ignores its carry-in by
//! design, so `XL007` is informational, and GeAr's overlapping sub-adders
//! genuinely duplicate their shared propagate/generate gates, which is
//! exactly the redundancy `XL010` quantifies).
//!
//! The semantic rules partition the "useless logic" space by *why* the
//! logic is useless: `XL006` is a ternary/dominance argument, `XL013`
//! needs the exact small-support cones of the abstract interpreter to see
//! through reconvergence (`a XOR a`), `XL011` is constancy that only
//! holds under a non-degenerate input distribution, and `XL012` is logic
//! whose value never reaches an output for *any* input even though it is
//! structurally live. `XL014` surfaces
//! [`xlac_adders::UnitDescriptor::violations`] through the normal
//! diagnostic pipeline so a broken descriptor fails lint, not a panic.
//!
//! `XL009` needs the declarations of instantiated modules, so composed
//! (multi-module) sources are linted through [`lint_library`], which
//! resolves instances across the whole file.

use crate::absint::{
    analyze_netlist, observability_dead_gates, AbsintOptions, Cone, InputDistribution, Tern,
};
use crate::parse::{is_constant, CellFunc, ParseError, RawCell, RawNetlist};
use std::collections::{HashMap, HashSet};
use xlac_adders::UnitDescriptor;
use xlac_logic::gate::GateKind;
use xlac_logic::netlist::{Netlist, Signal};

/// Diagnostic severity. Only `Error` findings gate CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational finding; does not fail the lint run.
    Warning,
    /// Structural defect; fails the lint run.
    Error,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The lint rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintRule {
    /// `XL000`: unparseable source line.
    ParseError,
    /// `XL001`: a signal is consumed but nothing drives it.
    FloatingNet,
    /// `XL002`: two or more drivers contend for one signal.
    MultiplyDrivenNet,
    /// `XL003`: the combinational dependency graph has a cycle.
    CombinationalCycle,
    /// `XL004`: operand count does not match the cell's arity.
    ArityMismatch,
    /// `XL005`: a gate's output reaches no output port.
    DeadGate,
    /// `XL006`: a gate's output is provably constant.
    ConstantCone,
    /// `XL007`: an input port is never consumed.
    UnusedInput,
    /// `XL008`: an output port has no driver.
    UndrivenOutput,
    /// `XL009`: an instance's connection count does not match the
    /// instantiated module's declared port count (or the module is not
    /// declared at all).
    PortWidthMismatch,
    /// `XL010`: a gate computes the same function of the same input nets
    /// as an earlier gate.
    DuplicateGate,
    /// `XL011`: a gate's one-probability interval collapses to 0 or 1
    /// under the declared input distribution, though the gate is not
    /// structurally constant — its logic only matters for inputs the
    /// deployment never produces.
    DistributionConstant,
    /// `XL012`: forcing the gate to either constant changes no output for
    /// any input vector — the gate is dead under observability
    /// don't-cares even though it is structurally live.
    ObservabilityDeadGate,
    /// `XL013`: the exact cone domain proves the gate constant but plain
    /// ternary (X-propagation) analysis still reports `X` — reconvergent
    /// logic that three-valued simulators treat optimistically.
    XOptimisticReconvergence,
    /// `XL014`: a [`UnitDescriptor`]'s netlist does not realize its own
    /// declared truth table (or the shapes disagree) — the declarative
    /// contract every generated artifact derives from is broken.
    DescriptorContractViolation,
}

impl LintRule {
    /// Stable rule identifier, as emitted in reports and JSON.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            LintRule::ParseError => "XL000",
            LintRule::FloatingNet => "XL001",
            LintRule::MultiplyDrivenNet => "XL002",
            LintRule::CombinationalCycle => "XL003",
            LintRule::ArityMismatch => "XL004",
            LintRule::DeadGate => "XL005",
            LintRule::ConstantCone => "XL006",
            LintRule::UnusedInput => "XL007",
            LintRule::UndrivenOutput => "XL008",
            LintRule::PortWidthMismatch => "XL009",
            LintRule::DuplicateGate => "XL010",
            LintRule::DistributionConstant => "XL011",
            LintRule::ObservabilityDeadGate => "XL012",
            LintRule::XOptimisticReconvergence => "XL013",
            LintRule::DescriptorContractViolation => "XL014",
        }
    }

    /// The rule's fixed severity.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            LintRule::DeadGate
            | LintRule::ConstantCone
            | LintRule::UnusedInput
            | LintRule::DuplicateGate
            | LintRule::DistributionConstant
            | LintRule::ObservabilityDeadGate
            | LintRule::XOptimisticReconvergence => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Finding severity (fixed per rule).
    pub severity: Severity,
    /// Stable rule identifier (`XL001`, …).
    pub rule_id: &'static str,
    /// Where the finding anchors: `module:line` or `module:signal`.
    pub location: String,
    /// 1-based source line in the `.v` file the finding anchors to, or 0
    /// for netlists without source text (converted from built form).
    pub line: usize,
    /// The net names the finding is about (driven net first), so tools
    /// consuming `--json` can map a diagnostic back into the design
    /// without parsing `message`.
    pub nets: Vec<String>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    fn at(
        rule: LintRule,
        location: String,
        line: usize,
        nets: Vec<String>,
        message: String,
    ) -> Diagnostic {
        Diagnostic { severity: rule.severity(), rule_id: rule.id(), location, line, nets, message }
    }

    /// A cell-anchored finding: carries the cell's source line and its
    /// driven net (plus any extra nets the rule wants to point at).
    fn on_cell(
        rule: LintRule,
        net: &RawNetlist,
        cell: &RawCell,
        extra_nets: Vec<String>,
        message: String,
    ) -> Diagnostic {
        let mut nets = vec![cell.output.clone()];
        nets.extend(extra_nets);
        Diagnostic::at(rule, location(net, cell), cell.line, nets, message)
    }
}

/// The lint result for one module.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Module name.
    pub module: String,
    /// All findings, in rule order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// `true` when any finding is error-severity.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Findings matching a rule, for golden tests.
    #[must_use]
    pub fn matching(&self, rule: LintRule) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule_id == rule.id()).collect()
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes reports as a JSON array (hand-rolled: the workspace is
/// dependency-free by design).
#[must_use]
pub fn reports_to_json(reports: &[LintReport]) -> String {
    let mut out = String::from("[\n");
    for (i, report) in reports.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"module\": \"{}\", \"diagnostics\": [",
            json_escape(&report.module)
        ));
        for (j, d) in report.diagnostics.iter().enumerate() {
            let nets = d
                .nets
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "\n    {{\"severity\": \"{}\", \"rule_id\": \"{}\", \"location\": \"{}\", \
                 \"line\": {}, \"nets\": [{}], \"message\": \"{}\"}}{}",
                d.severity.as_str(),
                d.rule_id,
                json_escape(&d.location),
                d.line,
                nets,
                json_escape(&d.message),
                if j + 1 < report.diagnostics.len() { "," } else { "\n  " }
            ));
        }
        out.push_str(&format!("]}}{}\n", if i + 1 < reports.len() { "," } else { "" }));
    }
    out.push(']');
    out
}

/// Three-valued signal state for constant propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Unknown,
    Known(bool),
}

fn eval_gate(kind: GateKind, inputs: &[Value]) -> Value {
    use Value::{Known, Unknown};
    let known: Option<Vec<u64>> = inputs
        .iter()
        .map(|v| match v {
            Known(b) => Some(u64::from(*b)),
            Unknown => None,
        })
        .collect();
    if let Some(bits) = known {
        return Known(kind.eval(&bits) == 1);
    }
    // Dominance rules: one known input can fix the output.
    match kind {
        GateKind::And2 if inputs.contains(&Known(false)) => Known(false),
        GateKind::Or2 if inputs.contains(&Known(true)) => Known(true),
        GateKind::Nand2 if inputs.contains(&Known(false)) => Known(true),
        GateKind::Nor2 if inputs.contains(&Known(true)) => Known(false),
        GateKind::Mux2 => match inputs[2] {
            Known(sel) => inputs[usize::from(sel)],
            Unknown => {
                if let (Known(a), Known(b)) = (inputs[0], inputs[1]) {
                    if a == b {
                        return Known(a);
                    }
                }
                Unknown
            }
        },
        _ => Unknown,
    }
}

/// Fixed operand count of a cell, or `None` for instances (their
/// connection count is checked against the declaration by `XL009`).
fn cell_arity(cell: &RawCell) -> Option<usize> {
    match &cell.func {
        CellFunc::Gate(kind) => Some(kind.arity()),
        CellFunc::Alias => Some(1),
        CellFunc::Instance(_) => None,
    }
}

/// Number of *additional* driven connections of a cell beyond
/// `cell.output` — nonzero only for instances of known multi-output
/// modules (connections are positional, outputs first).
fn extra_outputs(cell: &RawCell, library: &HashMap<&str, &RawNetlist>) -> usize {
    match &cell.func {
        CellFunc::Instance(module) => library
            .get(module.as_str())
            .map_or(0, |decl| decl.outputs.len().saturating_sub(1).min(cell.inputs.len())),
        _ => 0,
    }
}

fn location(net: &RawNetlist, cell: &RawCell) -> String {
    if cell.line > 0 {
        format!("{}:{}", net.name, cell.line)
    } else {
        format!("{}:{}", net.name, cell.name)
    }
}

/// Lints a raw netlist, with any parse errors folded in as `XL000`.
/// Instances can only resolve against the module itself; multi-module
/// sources should go through [`lint_library`] so `XL009` sees every
/// declaration.
#[must_use]
pub fn lint_raw(net: &RawNetlist, parse_errors: &[ParseError]) -> LintReport {
    let library = HashMap::from([(net.name.as_str(), net)]);
    lint_in_library(net, &library, parse_errors)
}

/// Lints every module of a multi-module source, resolving instances
/// against all declarations in the file. Parse errors are folded into the
/// first module's report (they carry their own line numbers).
#[must_use]
pub fn lint_library(modules: &[RawNetlist], parse_errors: &[ParseError]) -> Vec<LintReport> {
    let library: HashMap<&str, &RawNetlist> =
        modules.iter().map(|m| (m.name.as_str(), m)).collect();
    modules
        .iter()
        .enumerate()
        .map(|(i, net)| {
            let errors = if i == 0 { parse_errors } else { &[] };
            lint_in_library(net, &library, errors)
        })
        .collect()
}

fn lint_in_library(
    net: &RawNetlist,
    library: &HashMap<&str, &RawNetlist>,
    parse_errors: &[ParseError],
) -> LintReport {
    let mut diags = Vec::new();
    for e in parse_errors {
        diags.push(Diagnostic::at(
            LintRule::ParseError,
            format!("{}:{}", net.name, e.line),
            e.line,
            Vec::new(),
            e.message.clone(),
        ));
    }

    // Driver map: signal name → indices of driving cells. An instance of
    // a known multi-output module drives its leading connections too.
    let mut drivers: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, cell) in net.cells.iter().enumerate() {
        drivers.entry(cell.output.as_str()).or_default().push(i);
        for extra in &cell.inputs[..extra_outputs(cell, library)] {
            drivers.entry(extra.as_str()).or_default().push(i);
        }
    }
    let input_ports: HashSet<&str> = net.inputs.iter().map(String::as_str).collect();

    // XL009: instance connections vs the instantiated module's ports.
    for cell in &net.cells {
        let CellFunc::Instance(module) = &cell.func else { continue };
        match library.get(module.as_str()) {
            None => diags.push(Diagnostic::on_cell(
                LintRule::PortWidthMismatch,
                net,
                cell,
                Vec::new(),
                format!("instance {:?} references undeclared module {module:?}", cell.name),
            )),
            Some(decl) => {
                let declared = decl.inputs.len() + decl.outputs.len();
                let connected = 1 + cell.inputs.len();
                if connected != declared {
                    diags.push(Diagnostic::on_cell(
                        LintRule::PortWidthMismatch,
                        net,
                        cell,
                        Vec::new(),
                        format!(
                            "instance {:?} connects {connected} port(s), but module \
                             {module:?} declares {declared} ({} input(s) + {} output(s))",
                            cell.name,
                            decl.inputs.len(),
                            decl.outputs.len()
                        ),
                    ));
                }
            }
        }
    }

    // XL010: structurally equivalent duplicate gates — same function of
    // the same input nets (operand order normalized for the symmetric
    // kinds). First occurrence wins; later copies are flagged.
    let mut seen_shapes: HashMap<(GateKind, Vec<&str>), &RawCell> = HashMap::new();
    for cell in &net.cells {
        let CellFunc::Gate(kind) = &cell.func else { continue };
        if cell.inputs.len() != kind.arity() {
            continue; // XL004 territory
        }
        let mut shape: Vec<&str> = cell.inputs.iter().map(String::as_str).collect();
        let symmetric = matches!(
            kind,
            GateKind::And2
                | GateKind::Or2
                | GateKind::Nand2
                | GateKind::Nor2
                | GateKind::Xor2
                | GateKind::Xnor2
        );
        if symmetric {
            shape.sort_unstable();
        }
        match seen_shapes.entry((*kind, shape)) {
            std::collections::hash_map::Entry::Occupied(first) => {
                diags.push(Diagnostic::on_cell(
                    LintRule::DuplicateGate,
                    net,
                    cell,
                    vec![first.get().output.clone()],
                    format!(
                        "cell {:?} duplicates {:?} ({kind} of the same input nets)",
                        cell.name,
                        first.get().name
                    ),
                ));
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(cell);
            }
        }
    }

    // XL002: multiple drivers (input ports with a driver also contend).
    for (signal, who) in &drivers {
        let port_driver = usize::from(input_ports.contains(signal));
        if who.len() + port_driver > 1 {
            diags.push(Diagnostic::at(
                LintRule::MultiplyDrivenNet,
                format!("{}:{}", net.name, signal),
                0,
                vec![(*signal).to_string()],
                format!("net {signal:?} has {} drivers", who.len() + port_driver),
            ));
        }
    }

    // XL004: arity mismatches (gates and aliases; instance connection
    // counts are XL009's).
    for cell in &net.cells {
        let Some(expected) = cell_arity(cell) else { continue };
        if cell.inputs.len() != expected {
            diags.push(Diagnostic::on_cell(
                LintRule::ArityMismatch,
                net,
                cell,
                Vec::new(),
                format!(
                    "cell {:?} expects {expected} operand(s), got {}",
                    cell.name,
                    cell.inputs.len()
                ),
            ));
        }
    }

    // XL001: floating nets — consumed somewhere, driven nowhere. Each is
    // anchored at its first consuming cell: the net itself has no
    // declaration to point at, but the consumption site does.
    let mut used: HashMap<&str, usize> = HashMap::new();
    for cell in &net.cells {
        for input in &cell.inputs {
            used.entry(input.as_str()).or_insert(cell.line);
        }
    }
    let mut floating: Vec<(&str, usize)> = used
        .iter()
        .filter(|(s, _)| !is_constant(s) && !input_ports.contains(*s) && !drivers.contains_key(*s))
        .map(|(&s, &line)| (s, line))
        .collect();
    floating.sort_unstable();
    for (signal, line) in floating {
        diags.push(Diagnostic::at(
            LintRule::FloatingNet,
            format!("{}:{}", net.name, signal),
            line,
            vec![signal.to_string()],
            format!("net {signal:?} is consumed but has no driver"),
        ));
    }

    // XL008: undriven outputs.
    for output in &net.outputs {
        if !drivers.contains_key(output.as_str()) && !input_ports.contains(output.as_str()) {
            diags.push(Diagnostic::at(
                LintRule::UndrivenOutput,
                format!("{}:{}", net.name, output),
                net.line,
                vec![output.clone()],
                format!("output port {output:?} has no driver"),
            ));
        }
    }

    // XL003: combinational cycles. A cell is cyclic exactly when it can
    // reach itself through the dependency edges (cell → cells driving its
    // inputs).
    let dependencies: Vec<Vec<usize>> = net
        .cells
        .iter()
        .map(|cell| {
            // An instance's leading connections are *its own outputs*
            // (it drives them), not dependencies.
            cell.inputs[extra_outputs(cell, library)..]
                .iter()
                .filter_map(|input| drivers.get(input.as_str()))
                .flatten()
                .copied()
                .collect()
        })
        .collect();
    let (cyclic, order) = dependency_order(&dependencies);
    let has_cycle = cyclic.contains(&true);
    for (cell, _) in net.cells.iter().zip(&cyclic).filter(|(_, &c)| c) {
        diags.push(Diagnostic::on_cell(
            LintRule::CombinationalCycle,
            net,
            cell,
            Vec::new(),
            format!("cell {:?} sits on a combinational cycle", cell.name),
        ));
    }

    // XL005: dead gates — reverse reachability from the output ports.
    let mut live: HashSet<usize> = HashSet::new();
    let mut frontier: Vec<usize> =
        net.outputs.iter().filter_map(|o| drivers.get(o.as_str())).flatten().copied().collect();
    while let Some(i) = frontier.pop() {
        if !live.insert(i) {
            continue;
        }
        for input in &net.cells[i].inputs {
            if let Some(who) = drivers.get(input.as_str()) {
                frontier.extend(who.iter().copied());
            }
        }
    }
    for (i, cell) in net.cells.iter().enumerate() {
        if !live.contains(&i) && matches!(cell.func, CellFunc::Gate(_)) {
            diags.push(Diagnostic::on_cell(
                LintRule::DeadGate,
                net,
                cell,
                Vec::new(),
                format!("cell {:?} drives no output cone", cell.name),
            ));
        }
    }

    // XL006: constant-foldable cones (skipped when cyclic — no stable
    // evaluation order exists). Acyclic, `order` puts every cell after
    // the drivers of its inputs, so one pass reaches the fixpoint.
    if !has_cycle {
        let mut values: HashMap<&str, Value> = HashMap::new();
        for input in &net.inputs {
            values.insert(input.as_str(), Value::Unknown);
        }
        let signal_value = |values: &HashMap<&str, Value>, s: &str| match s {
            "1'b0" => Value::Known(false),
            "1'b1" => Value::Known(true),
            _ => values.get(s).copied().unwrap_or(Value::Unknown),
        };
        for cell in order.iter().map(|&i| &net.cells[i]) {
            if cell_arity(cell) != Some(cell.inputs.len()) {
                continue; // wrong arity, or an opaque instance
            }
            let inputs: Vec<Value> = cell.inputs.iter().map(|s| signal_value(&values, s)).collect();
            let out = match &cell.func {
                CellFunc::Gate(kind) => eval_gate(*kind, &inputs),
                CellFunc::Alias => inputs[0],
                CellFunc::Instance(_) => unreachable!("instances have no fixed arity"),
            };
            values.insert(cell.output.as_str(), out);
        }
        for cell in &net.cells {
            if let (CellFunc::Gate(_), Value::Known(v)) =
                (&cell.func, signal_value(&values, &cell.output))
            {
                diags.push(Diagnostic::on_cell(
                    LintRule::ConstantCone,
                    net,
                    cell,
                    Vec::new(),
                    format!("cell {:?} always outputs {}", cell.name, u8::from(v)),
                ));
            }
        }
    }

    // XL007: unused inputs (an input forwarded straight to an output port
    // counts as used only through a cell, which conversion materializes).
    // Ports carry no per-declaration line, so the module header anchors.
    for input in &net.inputs {
        if !used.contains_key(input.as_str()) {
            diags.push(Diagnostic::at(
                LintRule::UnusedInput,
                format!("{}:{}", net.name, input),
                net.line,
                vec![input.clone()],
                format!("input port {input:?} is never consumed"),
            ));
        }
    }

    diags.sort_by(|a, b| a.rule_id.cmp(b.rule_id).then_with(|| a.location.cmp(&b.location)));
    LintReport { module: net.name.clone(), diagnostics: diags }
}

/// One iterative Tarjan pass over `edges` (node → the nodes it depends
/// on), linear in nodes plus edges. Returns which nodes can reach
/// themselves — the members of a strongly connected component of two or
/// more nodes, and nodes with an edge to themselves — and every node in
/// the order its component completes, which puts each node after the
/// nodes it depends on wherever the graph is acyclic.
fn dependency_order(edges: &[Vec<usize>]) -> (Vec<bool>, Vec<usize>) {
    const UNSEEN: usize = usize::MAX;
    let n = edges.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut cyclic = vec![false; n];
    let mut component = Vec::new();
    let mut order = Vec::with_capacity(n);
    let mut next = 0usize;
    // Depth-first frames: a node and the position of its next edge. A
    // node is numbered when its frame first reaches the top.
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, edge)) = frames.last() {
            if index[v] == UNSEEN {
                index[v] = next;
                low[v] = next;
                next += 1;
                on_stack[v] = true;
                component.push(v);
            }
            if let Some(&u) = edges[v].get(edge) {
                let top = frames.len() - 1;
                frames[top].1 += 1;
                cyclic[v] |= u == v;
                if index[u] == UNSEEN {
                    frames.push((u, 0));
                } else if on_stack[u] {
                    low[v] = low[v].min(index[u]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                // `v` roots a component: it and everything above it.
                let at = component.iter().rposition(|&x| x == v).unwrap_or(0);
                let members = component.split_off(at);
                for &x in &members {
                    on_stack[x] = false;
                    cyclic[x] |= members.len() > 1;
                }
                order.extend(members);
            }
        }
    }
    (cyclic, order)
}

fn signal_name(signal: Signal) -> String {
    match signal {
        Signal::Input(i) => format!("i{i}"),
        Signal::Gate(g) => format!("w{g}"),
        Signal::Const(true) => "1'b1".into(),
        Signal::Const(false) => "1'b0".into(),
    }
}

/// Converts a built [`Netlist`] into the raw string-signal form the linter
/// consumes, mirroring the naming scheme of the Verilog emitter. Output
/// ports become alias cells.
#[must_use]
pub fn raw_from_netlist(netlist: &Netlist) -> RawNetlist {
    let mut raw = RawNetlist {
        name: netlist.name().to_string(),
        line: 0,
        inputs: (0..netlist.n_inputs()).map(|i| format!("i{i}")).collect(),
        outputs: (0..netlist.n_outputs()).map(|k| format!("o{k}")).collect(),
        wires: (0..netlist.gate_count()).map(|g| format!("w{g}")).collect(),
        cells: Vec::new(),
    };
    for (g, (kind, fanin)) in netlist.gates().enumerate() {
        raw.cells.push(RawCell {
            name: format!("g{g}"),
            func: CellFunc::Gate(kind),
            output: format!("w{g}"),
            inputs: fanin.iter().map(|&s| signal_name(s)).collect(),
            line: 0,
        });
    }
    for (k, signal) in netlist.outputs().enumerate() {
        raw.cells.push(RawCell {
            name: format!("o{k}"),
            func: CellFunc::Alias,
            output: format!("o{k}"),
            inputs: vec![signal_name(signal)],
            line: 0,
        });
    }
    raw
}

/// Below/above this, a one-probability interval counts as pinned for
/// `XL011`. The Fréchet transfers only produce 0/1 endpoints through
/// dominance by (near-)constant operands, so anything inside `EPS` of
/// the rail is a genuine distribution-induced constant, not roundoff.
const PIN_EPS: f64 = 1e-9;

/// `XL012`'s exhaustive observability check is only run for units small
/// enough that `2^n` forced evaluations stay trivial; larger netlists
/// skip the rule (soundly: fewer warnings, never wrong ones).
const OBSERVABILITY_MAX_INPUTS: usize = 12;

/// The semantic rules (`XL011`–`XL013`): one abstract-interpretation
/// sweep under `dist`, then per-gate classification. Gates the structural
/// passes already flag as constant (`XL006` fires when ternary dominance
/// pins the output) keep their structural diagnosis; these rules only
/// report what *needs* the richer domains.
fn absint_diagnostics(netlist: &Netlist, dist: &InputDistribution) -> Vec<Diagnostic> {
    let abs = analyze_netlist(netlist, dist, &AbsintOptions::default());
    let module = netlist.name().to_string();
    let mut diags = Vec::new();
    for (g, av) in abs.gates.iter().enumerate() {
        if av.tern != Tern::X {
            continue; // structurally constant: XL006 territory
        }
        let wire = format!("w{g}");
        if let Some(v) = av.cone.as_ref().and_then(Cone::constant) {
            diags.push(Diagnostic::at(
                LintRule::XOptimisticReconvergence,
                format!("{module}:{wire}"),
                0,
                vec![wire],
                format!(
                    "gate {g} reconverges to constant {} — invisible to ternary (X) analysis",
                    u8::from(v)
                ),
            ));
        } else if av.p.hi < PIN_EPS || av.p.lo > 1.0 - PIN_EPS {
            let v = u8::from(av.p.lo > 1.0 - PIN_EPS);
            diags.push(Diagnostic::at(
                LintRule::DistributionConstant,
                format!("{module}:{wire}"),
                0,
                vec![wire],
                format!("gate {g} is constant {v} under the declared input distribution"),
            ));
        }
    }
    for g in observability_dead_gates(netlist, OBSERVABILITY_MAX_INPUTS) {
        let wire = format!("w{g}");
        diags.push(Diagnostic::at(
            LintRule::ObservabilityDeadGate,
            format!("{module}:{wire}"),
            0,
            vec![wire],
            format!("gate {g} never influences any output (observability don't-care)"),
        ));
    }
    diags
}

/// Lints a built netlist directly: the structural catalog plus the
/// semantic rules under uniform primary inputs.
#[must_use]
pub fn lint_netlist(netlist: &Netlist) -> LintReport {
    lint_netlist_under(netlist, &InputDistribution::uniform(netlist.n_inputs()))
}

/// Lints a built netlist under a caller-declared input distribution —
/// this is where `XL011` earns its keep: logic that is live under
/// uniform inputs can be provably constant for the distribution a
/// deployment actually feeds it.
#[must_use]
pub fn lint_netlist_under(netlist: &Netlist, dist: &InputDistribution) -> LintReport {
    let mut report = lint_raw(&raw_from_netlist(netlist), &[]);
    report.diagnostics.extend(absint_diagnostics(netlist, dist));
    report
        .diagnostics
        .sort_by(|a, b| a.rule_id.cmp(b.rule_id).then_with(|| a.location.cmp(&b.location)));
    report
}

/// Lints a [`UnitDescriptor`]: the descriptor's netlist goes through the
/// full catalog, and every contract violation (netlist row disagreeing
/// with the declared truth table, shape mismatch) becomes an
/// error-severity `XL014` finding. A broken descriptor therefore fails
/// `xlac-lint` like any other structural defect instead of panicking the
/// generators built on top of it.
#[must_use]
pub fn lint_descriptor(desc: &UnitDescriptor) -> LintReport {
    let mut report = lint_netlist(desc.netlist());
    report.module = format!("descriptor/{}", desc.name());
    for violation in desc.violations() {
        report.diagnostics.push(Diagnostic::at(
            LintRule::DescriptorContractViolation,
            format!("{}:contract", desc.name()),
            0,
            Vec::new(),
            violation,
        ));
    }
    report
        .diagnostics
        .sort_by(|a, b| a.rule_id.cmp(b.rule_id).then_with(|| a.location.cmp(&b.location)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_verilog;
    use xlac_adders::FullAdderKind;

    fn lint_source(src: &str) -> LintReport {
        let (module, errors) = parse_verilog(src);
        lint_raw(&module.unwrap(), &errors)
    }

    #[test]
    fn clean_synthesized_netlists_have_no_errors() {
        for kind in FullAdderKind::ALL {
            let report = lint_netlist(&kind.synthesized_netlist());
            assert!(!report.has_errors(), "{kind}: {:?}", report.diagnostics);
        }
    }

    #[test]
    fn apxfa5_structural_netlist_flags_its_unused_carry_in() {
        let report = lint_netlist(&FullAdderKind::Apx5.structural_netlist());
        assert!(!report.has_errors());
        assert_eq!(report.matching(LintRule::UnusedInput).len(), 1);
    }

    #[test]
    fn floating_net_is_an_error() {
        let report = lint_source(
            "module m (\n    input  wire i0,\n    output wire o0\n);\n    wire w0;\n\
             and  g0 (w0, i0, phantom);\n    assign o0 = w0;\nendmodule\n",
        );
        assert!(report.has_errors());
        assert_eq!(report.matching(LintRule::FloatingNet).len(), 1);
    }

    #[test]
    fn dependency_order_matches_per_node_reachability() {
        use xlac_core::rng::{DefaultRng, Rng};
        // The per-node definition: a node is cyclic when a walk from its
        // own edges comes back to it.
        let reaches_itself = |edges: &[Vec<usize>], i: usize| {
            let mut seen = HashSet::new();
            let mut frontier = edges[i].clone();
            while let Some(j) = frontier.pop() {
                if j == i {
                    return true;
                }
                if seen.insert(j) {
                    frontier.extend(edges[j].iter().copied());
                }
            }
            false
        };
        let mut rng = DefaultRng::seed_from_u64(0x5CC);
        for _ in 0..500 {
            let n = 1 + (rng.next_u64() % 24) as usize;
            let density = 1 + rng.next_u64() % 3;
            let edges: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    (0..rng.next_u64() % (density + 1))
                        .map(|_| (rng.next_u64() % n as u64) as usize)
                        .collect()
                })
                .collect();
            let want: Vec<bool> = (0..n).map(|i| reaches_itself(&edges, i)).collect();
            let (cyclic, order) = dependency_order(&edges);
            assert_eq!(cyclic, want, "{edges:?}");
            // Every node once; acyclic, after everything it depends on.
            let mut position = vec![usize::MAX; n];
            for (at, &v) in order.iter().enumerate() {
                assert_eq!(position[v], usize::MAX, "{v} twice in {order:?}");
                position[v] = at;
            }
            assert!(position.iter().all(|&p| p < n), "{order:?} misses a node");
            if !cyclic.contains(&true) {
                for (v, deps) in edges.iter().enumerate() {
                    assert!(deps.iter().all(|&u| position[u] < position[v]), "{edges:?}");
                }
            }
        }
    }

    #[test]
    fn cycle_is_detected() {
        let report = lint_source(
            "module m (\n    input  wire i0,\n    output wire o0\n);\n    wire w0, w1;\n\
             and  g0 (w0, i0, w1);\n    or   g1 (w1, w0, i0);\n    assign o0 = w0;\nendmodule\n",
        );
        assert!(report.has_errors());
        assert!(report.matching(LintRule::CombinationalCycle).len() >= 2);
    }

    #[test]
    fn constant_cone_and_dead_gate_are_warnings() {
        let report = lint_source(
            "module m (\n    input  wire i0,\n    output wire o0\n);\n    wire w0, w1;\n\
             and  g0 (w0, i0, 1'b0);\n    nand g1 (w1, w0, w0);\n    assign o0 = w0;\nendmodule\n",
        );
        assert!(!report.has_errors());
        assert_eq!(report.matching(LintRule::ConstantCone).len(), 2);
        assert_eq!(report.matching(LintRule::DeadGate).len(), 1);
    }

    #[test]
    fn instance_port_width_mismatch_is_an_error() {
        use crate::parse::parse_verilog_library;
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
    wire w0;
    leaf u0 (w0, x0, x1);
    leaf u1 (z, w0, x0, x1);
    ghost u2 (z, x0);
endmodule
";
        let (modules, errors) = parse_verilog_library(src);
        assert!(errors.is_empty(), "{errors:?}");
        let reports = lint_library(&modules, &errors);
        assert!(!reports[0].has_errors(), "leaf is clean: {:?}", reports[0].diagnostics);
        let top = &reports[1];
        let mismatches = top.matching(LintRule::PortWidthMismatch);
        assert_eq!(mismatches.len(), 2, "{:?}", top.diagnostics);
        assert!(mismatches.iter().any(|d| d.message.contains("u1")));
        assert!(mismatches.iter().any(|d| d.message.contains("undeclared module")));
    }

    #[test]
    fn correctly_connected_instances_are_clean() {
        use crate::parse::parse_verilog_library;
        let src = "\
module ha (
    input  wire a,
    input  wire b,
    output wire s,
    output wire c
);
    xor g0 (s, a, b);
    and g1 (c, a, b);
endmodule
module top (
    input  wire x0,
    input  wire x1,
    output wire s,
    output wire c
);
    ha u0 (s, c, x0, x1);
endmodule
";
        let (modules, errors) = parse_verilog_library(src);
        assert!(errors.is_empty(), "{errors:?}");
        let reports = lint_library(&modules, &errors);
        for r in &reports {
            assert!(!r.has_errors(), "{}: {:?}", r.module, r.diagnostics);
        }
    }

    #[test]
    fn duplicate_gates_warn_including_commuted_operands() {
        let report = lint_source(
            "module m (\n    input  wire i0,\n    input  wire i1,\n    output wire o0\n);\n\
             wire w0, w1, w2;\n    xor g0 (w0, i0, i1);\n    xor g1 (w1, i1, i0);\n\
             and  g2 (w2, w0, w1);\n    assign o0 = w2;\nendmodule\n",
        );
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        let dups = report.matching(LintRule::DuplicateGate);
        assert_eq!(dups.len(), 1, "{:?}", report.diagnostics);
        assert!(dups[0].message.contains("g0"));
    }

    #[test]
    fn mux_operand_order_is_not_commutative_for_duplicates() {
        let report = lint_source(
            "module m (\n    input  wire i0,\n    input  wire i1,\n    input  wire i2,\n\
             output wire o0\n);\n    wire w0, w1;\n    assign w0 = i2 ? i0 : i1;\n\
             assign w1 = i2 ? i1 : i0;\n    xor g0 (o0, w0, w1);\nendmodule\n",
        );
        assert!(report.matching(LintRule::DuplicateGate).is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn json_output_is_well_formed() {
        let report = lint_netlist(&FullAdderKind::Apx5.structural_netlist());
        let json = reports_to_json(&[report]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"rule_id\": \"XL007\""));
        assert!(json.contains("\"line\": "), "locations carry line numbers: {json}");
        assert!(json.contains("\"nets\": ["), "diagnostics carry net lists: {json}");
    }

    #[test]
    fn source_lines_and_nets_ride_along_on_diagnostics() {
        let report = lint_source(
            "module m (\n    input  wire i0,\n    output wire o0\n);\n    wire w0;\n\
             and  g0 (w0, i0, phantom);\n    assign o0 = w0;\nendmodule\n",
        );
        let floating = report.matching(LintRule::FloatingNet);
        assert_eq!(floating.len(), 1);
        assert_eq!(floating[0].nets, vec!["phantom".to_string()]);
        // The cell-anchored rules carry the 1-based source line of the cell.
        let report = lint_source(
            "module m (\n    input  wire i0,\n    output wire o0\n);\n    wire w0, w1;\n\
             and  g0 (w0, i0, 1'b0);\n    nand g1 (w1, w0, w0);\n    assign o0 = w0;\nendmodule\n",
        );
        let dead = report.matching(LintRule::DeadGate);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].line, 7, "{:?}", dead[0]);
        assert_eq!(dead[0].nets, vec!["w1".to_string()]);
    }

    #[test]
    fn reconvergent_constant_is_xl013() {
        use xlac_logic::netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("reconv", 1);
        let a = b.input(0);
        let x = b.gate(GateKind::Xor2, &[a, a]);
        b.output(x);
        let report = lint_netlist(&b.finish().unwrap());
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        let xl013 = report.matching(LintRule::XOptimisticReconvergence);
        assert_eq!(xl013.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(xl013[0].nets, vec!["w0".to_string()]);
        // XL006's ternary/dominance pass cannot see this one.
        assert!(report.matching(LintRule::ConstantCone).is_empty());
    }

    #[test]
    fn distribution_pinned_gate_is_xl011_only_under_that_distribution() {
        use xlac_logic::netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("pinned", 2);
        let (i0, i1) = (b.input(0), b.input(1));
        let g = b.gate(GateKind::And2, &[i0, i1]);
        b.output(g);
        let nl = b.finish().unwrap();
        assert!(lint_netlist(&nl).matching(LintRule::DistributionConstant).is_empty());
        let report = lint_netlist_under(&nl, &InputDistribution::new(vec![0.0, 0.5]));
        let xl011 = report.matching(LintRule::DistributionConstant);
        assert_eq!(xl011.len(), 1, "{:?}", report.diagnostics);
        assert!(xl011[0].message.contains("constant 0"));
    }

    #[test]
    fn observability_dead_gate_is_xl012() {
        use xlac_logic::netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("odc", 2);
        let (x, sel) = (b.input(0), b.input(1));
        let nsel = b.gate(GateKind::Not, &[sel]);
        let m = b.gate(GateKind::Mux2, &[x, x, nsel]);
        b.output(m);
        let report = lint_netlist(&b.finish().unwrap());
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        let xl012 = report.matching(LintRule::ObservabilityDeadGate);
        assert_eq!(xl012.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(xl012[0].nets, vec!["w0".to_string()]);
        // The inverter is structurally live; XL005 stays silent.
        assert!(report.matching(LintRule::DeadGate).is_empty());
    }

    #[test]
    fn shipped_descriptors_are_clean_and_a_broken_one_fails_with_xl014() {
        use xlac_adders::approx_cell_descriptors;
        use xlac_logic::netlist::Signal;
        for d in approx_cell_descriptors() {
            let report = lint_descriptor(&d);
            assert!(!report.has_errors(), "{}: {:?}", report.module, report.diagnostics);
        }
        // A descriptor whose netlist is an accurate FA but whose table
        // claims (sum = a, cout = 0): every disagreeing row is an XL014.
        let broken = UnitDescriptor::full_adder_cell(
            "broken",
            |x| x & 1,
            |nb| {
                let (a, b, cin) = (Signal::Input(0), Signal::Input(1), Signal::Input(2));
                let s = nb.gate(GateKind::Xor2, &[a, b]);
                let sum = nb.gate(GateKind::Xor2, &[s, cin]);
                let c0 = nb.gate(GateKind::And2, &[a, b]);
                let c1 = nb.gate(GateKind::And2, &[cin, s]);
                let cout = nb.gate(GateKind::Or2, &[c0, c1]);
                vec![sum, cout]
            },
        )
        .unwrap();
        let report = lint_descriptor(&broken);
        assert!(report.has_errors());
        assert!(!report.matching(LintRule::DescriptorContractViolation).is_empty());
    }
}
