//! `xlac-lint` — the CI gate for the static analysis layer.
//!
//! Two passes:
//!
//! * **Lint**: the fifteen-rule catalog (eleven structural rules plus
//!   the four abstract-interpretation rules XL011–XL014) over every
//!   built-in netlist (Table III full adders, Fig.5 2×2 multiplier
//!   blocks, the configurable blocks, the descriptor cells) and every
//!   `.v` file in the HDL directory, plus the JIT bytecode verifier over
//!   the compiled shipped netlists.
//! * **Exact** (`--exact`): the symbolic engine's proof obligations —
//!   for every shipped module, the truth-table or scalar model, the
//!   `hdl/*.v` netlist and any hand bit-sliced form are formally the same
//!   function (BDD root equality, backed by exhaustive or seeded-vector
//!   legs for the wide datapaths) — plus the bound-vs-exact soundness
//!   audit on every 8-bit-and-under configuration.
//!
//! Exits non-zero on any error-severity diagnostic, bytecode violation,
//! refuted equivalence proof, or unsound bound audit.
//!
//! ```text
//! xlac-lint [--json] [--hdl-dir DIR] [--exact]
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use xlac_adders::{approx_cell_descriptors, FullAdderKind};
use xlac_analysis::lint::{
    lint_descriptor, lint_library, lint_netlist, reports_to_json, LintReport, Severity,
};
use xlac_analysis::parse::{parse_verilog_library, RawNetlist};
use xlac_analysis::symbolic::audit::{audit_bounds, audits_to_json};
use xlac_analysis::symbolic::registry::{
    ensure_registry_hdl, proofs_to_json, prove_all, ProofStatus,
};
use xlac_multipliers::{ConfigurableMul2x2, Mul2x2Kind, WallaceMultiplier};
use xlac_sim::CompiledProgram;

struct Options {
    json: bool,
    hdl_dir: PathBuf,
    hdl_dir_is_default: bool,
    exact: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        hdl_dir: PathBuf::from("hdl"),
        hdl_dir_is_default: true,
        exact: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--exact" => opts.exact = true,
            "--hdl-dir" => {
                opts.hdl_dir = PathBuf::from(args.next().ok_or("--hdl-dir needs a directory")?);
                opts.hdl_dir_is_default = false;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn builtin_reports() -> Vec<LintReport> {
    let mut reports = Vec::new();
    for kind in FullAdderKind::ALL {
        reports.push(lint_netlist(&kind.structural_netlist()));
        reports.push(lint_netlist(&kind.synthesized_netlist()));
    }
    for kind in Mul2x2Kind::ALL {
        reports.push(lint_netlist(&kind.netlist()));
    }
    for kind in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        let cfg = ConfigurableMul2x2::new(kind);
        reports.push(lint_netlist(&cfg.netlist()));
    }
    for d in approx_cell_descriptors() {
        reports.push(lint_descriptor(&d));
    }
    reports
}

/// Compiles every shipped netlist through the JIT and runs the static
/// bytecode verifier on each program. A violation here means the
/// compiler itself regressed — the bit-sliced sweeps would silently
/// compute wrong planes — so it fails the run like an error diagnostic.
fn jit_violations() -> Vec<String> {
    let mut netlists = Vec::new();
    for kind in FullAdderKind::ALL {
        netlists.push(kind.structural_netlist());
        netlists.push(kind.synthesized_netlist());
    }
    for kind in Mul2x2Kind::ALL {
        netlists.push(kind.netlist());
    }
    for kind in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        netlists.push(ConfigurableMul2x2::new(kind).netlist());
    }
    for d in approx_cell_descriptors() {
        netlists.push(d.netlist().clone());
    }
    for kind in FullAdderKind::ALL {
        if let Ok(rca) = xlac_adders::RippleCarryAdder::with_approx_lsbs(8, kind, 3) {
            netlists.push(xlac_adders::hw::ripple_netlist(&rca));
        }
    }
    if let Ok(m) = WallaceMultiplier::new(8, FullAdderKind::Apx2, 8) {
        netlists.push(xlac_multipliers::hw::wallace_netlist(&m));
    }
    let mut violations = Vec::new();
    for nl in &netlists {
        let prog = CompiledProgram::compile(nl);
        for v in prog.verify() {
            violations.push(format!("{}: {v}", nl.name()));
        }
    }
    violations
}

fn hdl_reports(dir: &PathBuf) -> Result<Vec<LintReport>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "v"))
        .collect();
    files.sort();
    let mut reports = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (modules, errors) = parse_verilog_library(&source);
        if modules.is_empty() {
            let fallback = RawNetlist {
                name: path
                    .file_stem()
                    .map_or_else(String::new, |s| s.to_string_lossy().into_owned()),
                ..RawNetlist::default()
            };
            reports.extend(lint_library(std::slice::from_ref(&fallback), &errors));
        } else {
            reports.extend(lint_library(&modules, &errors));
        }
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xlac-lint: {e}");
            return ExitCode::from(2);
        }
    };

    // The default `hdl/` is generated (and gitignored): a fresh checkout
    // self-heals by re-exporting the registry instead of failing every
    // file load. An explicit `--hdl-dir` is the user's directory — never
    // write into it.
    if opts.hdl_dir_is_default {
        if let Err(e) = ensure_registry_hdl(&opts.hdl_dir) {
            eprintln!("xlac-lint: cannot regenerate {}: {e}", opts.hdl_dir.display());
            return ExitCode::from(2);
        }
    }

    let mut reports = builtin_reports();
    match hdl_reports(&opts.hdl_dir) {
        Ok(mut hdl) => reports.append(&mut hdl),
        Err(e) => {
            eprintln!("xlac-lint: {e}");
            return ExitCode::from(2);
        }
    }
    let errors: usize = reports
        .iter()
        .flat_map(|r| &r.diagnostics)
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings: usize = reports.iter().map(|r| r.diagnostics.len()).sum::<usize>() - errors;

    let jit_bad = jit_violations();

    // The exact pass: equivalence proofs over every shipped module plus
    // the bound-vs-exact soundness audit.
    let mut proofs = Vec::new();
    let mut audits = Vec::new();
    let mut exact_failure = None;
    if opts.exact {
        // A malformed hdl/ module must surface as a diagnostic that fails
        // the gate, not abort the run: the lint summary still prints and
        // the exit code distinguishes "found problems" (1) from "could
        // not run" (2, reserved for usage/IO errors).
        match prove_all(&opts.hdl_dir) {
            Ok(p) => proofs = p,
            Err(e) => exact_failure = Some(e),
        }
        audits = audit_bounds();
    }
    let refuted: usize = proofs.iter().filter(|p| !p.is_proven()).count();
    let unsound_audits: usize = audits.iter().filter(|a| !a.sound).count();

    // Buffer the report and tolerate a closed pipe (`xlac-lint | head`)
    // instead of panicking on the write.
    let mut out = String::new();
    if opts.json && opts.exact {
        out.push_str("{\n\"lint\": ");
        out.push_str(reports_to_json(&reports).trim_end());
        out.push_str(",\n\"proofs\": ");
        out.push_str(proofs_to_json(&proofs).trim_end());
        out.push_str(",\n\"bound_audit\": ");
        out.push_str(audits_to_json(&audits).trim_end());
        out.push_str("\n}\n");
    } else if opts.json {
        out.push_str(&reports_to_json(&reports));
        out.push('\n');
    } else {
        for report in &reports {
            for d in &report.diagnostics {
                out.push_str(&format!(
                    "{}: {} [{}] {}\n",
                    match d.severity {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    },
                    d.location,
                    d.rule_id,
                    d.message
                ));
            }
        }
        out.push_str(&format!(
            "xlac-lint: {} module(s), {errors} error(s), {warnings} warning(s)\n",
            reports.len()
        ));
        for v in &jit_bad {
            out.push_str(&format!("error: jit bytecode: {v}\n"));
        }
        out.push_str(&format!(
            "xlac-lint: jit bytecode verifier, {} violation(s)\n",
            jit_bad.len()
        ));
        if opts.exact {
            if let Some(why) = &exact_failure {
                out.push_str(&format!("error: exact pass failed to build: {why}\n"));
            }
            for p in &proofs {
                let status = match &p.status {
                    ProofStatus::Proven => "proven".to_string(),
                    ProofStatus::Refuted(why) => format!("REFUTED: {why}"),
                };
                out.push_str(&format!(
                    "proof: {} [{}] {} ({} nodes, {:.1}% memo hits)\n",
                    p.name,
                    p.method,
                    status,
                    p.bdd_nodes,
                    p.memo_hit_rate * 100.0
                ));
            }
            for a in &audits {
                out.push_str(&format!(
                    "audit: {} bound_wce={} exact_wce={} slack={} {}\n",
                    a.name,
                    a.bound_wce,
                    a.exact_wce,
                    a.wce_slack,
                    if a.sound { "sound" } else { "UNSOUND" }
                ));
            }
            out.push_str(&format!(
                "xlac-lint: {} equivalence proof(s), {refuted} refuted; \
                 {} bound audit(s), {unsound_audits} unsound\n",
                proofs.len(),
                audits.len()
            ));
        }
    }
    let _ = std::io::stdout().write_all(out.as_bytes());
    if let Some(why) = &exact_failure {
        eprintln!("xlac-lint: exact pass failed to build: {why}");
    }

    if errors > 0
        || !jit_bad.is_empty()
        || refuted > 0
        || unsound_audits > 0
        || exact_failure.is_some()
    {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
