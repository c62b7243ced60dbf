//! The shipped-module proof obligations behind `xlac-lint --exact`.
//!
//! Every component the workspace ships exists in several representations
//! — a truth-table specification, a scalar behavioural model, a
//! structural/synthesized netlist, a `hdl/*.v` export, a bit-sliced
//! `eval_x64` form. PR 1's `xlac_logic::equiv` checked them against each
//! other by sampling; this module replaces those spot checks with
//! *proofs*:
//!
//! * representations with a netlist or table form compile to BDDs over
//!   the same variables, where canonical-root equality is equivalence
//!   over the full input space ([`super::equiv`]);
//! * bit-sliced and scalar forms with ≤ 20 input bits are compared
//!   exhaustively (an exhaustive check over the whole input space *is* a
//!   proof), anchored to the BDD twin so all three views meet;
//! * wider datapaths (the GeAr configurations, 22–32 input bits) get a
//!   BDD proof between the symbolic forms plus ≥ 10⁵ seeded vectors
//!   against the scalar and bit-sliced models.
//!
//! [`prove_all`] runs the whole registry; one [`ProofReport`] per module
//! records the representations compared, the method, the verdict and the
//! engine statistics (live node count, ITE memo hit rate).

use super::bdd::{Bdd, Ref};
use super::compile::{compile_netlist, compile_raw, compile_truth_table, interleaved_operand_vars};
use super::equiv::{prove_outputs_equal, Verdict};
use super::twins;
use crate::parse::{parse_verilog, RawNetlist};
use std::path::Path;
use xlac_adders::hw::{gear_netlist, ripple_netlist};
use xlac_adders::{
    approx_cell_descriptors, Adder, AdderX64, FullAdderKind, GeArAdder, RippleCarryAdder,
    Subtractor,
};
use xlac_core::rng::{Rng, Xoshiro256StarStar};
use xlac_logic::TruthTable;
use xlac_obs::{obs_count, obs_gauge, obs_span};
use xlac_multipliers::{
    ConfigurableMul2x2, Mul2x2Kind, Multiplier, MultiplierX64, RecursiveMultiplier, SumMode,
    TruncatedMultiplier, WallaceMultiplier,
};

/// Seed for the sampled leg of wide-datapath obligations (deterministic:
/// CI reproduces the exact same vectors).
const SAMPLE_SEED: u64 = 0x5EED_DAC6;

/// Number of seeded vectors for datapaths too wide to enumerate.
const SAMPLE_VECTORS: usize = 100_032; // 1563 full 64-lane blocks

/// Verdict of one proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStatus {
    /// All representations are the same function.
    Proven,
    /// At least one pair differs; the message carries the counterexample.
    Refuted(String),
}

/// The record of one shipped-module obligation.
#[derive(Debug, Clone)]
pub struct ProofReport {
    /// Component name (module name of the primary representation).
    pub name: String,
    /// Primary input bits of the compared function.
    pub n_inputs: usize,
    /// How the agreement was established.
    pub method: &'static str,
    /// The representations compared, reference first.
    pub representations: Vec<String>,
    /// Outcome.
    pub status: ProofStatus,
    /// Live BDD nodes after building every representation.
    pub bdd_nodes: usize,
    /// ITE memo hit rate of the proof's BDD manager.
    pub memo_hit_rate: f64,
}

impl ProofReport {
    /// `true` when the obligation held.
    #[must_use]
    pub fn is_proven(&self) -> bool {
        matches!(self.status, ProofStatus::Proven)
    }
}

/// Serializes proof reports as a JSON array (hand-rolled, like the lint
/// reports — the workspace is dependency-free).
#[must_use]
pub fn proofs_to_json(reports: &[ProofReport]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        let status = match &r.status {
            ProofStatus::Proven => "\"proven\"".to_string(),
            ProofStatus::Refuted(why) => {
                format!("\"refuted: {}\"", why.replace('\\', "\\\\").replace('"', "\\\""))
            }
        };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"n_inputs\": {}, \"method\": \"{}\", \
             \"representations\": [{}], \"status\": {status}, \"bdd_nodes\": {}, \
             \"memo_hit_rate\": {:.4}}}{}\n",
            r.name,
            r.n_inputs,
            r.method,
            r.representations.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", "),
            r.bdd_nodes,
            r.memo_hit_rate,
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// Runs every obligation in the registry against the given `hdl/`
/// directory.
///
/// # Errors
///
/// Returns an error when an `hdl/` file is missing or unparseable — a
/// broken export must fail the gate as loudly as a refuted proof.
pub fn prove_all(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.prove_all");
    let mut reports = Vec::new();
    reports.extend(full_adder_reports(hdl_dir)?);
    reports.extend(descriptor_reports(hdl_dir)?);
    reports.extend(mul2x2_reports(hdl_dir)?);
    reports.extend(configurable_mul_reports(hdl_dir)?);
    reports.extend(ripple_reports(hdl_dir)?);
    reports.extend(gear_reports(hdl_dir)?);
    reports.extend(composed_multiplier_reports());
    Ok(reports)
}

/// Every netlist the registry proves `hdl/*.v` exports against, with its
/// export file name. This is the single source of truth for what `hdl/`
/// contains — the `export_library` example and the self-healing test
/// hook both write exactly this set.
fn registry_hdl_netlists() -> Vec<(String, xlac_logic::Netlist)> {
    let mut netlists = Vec::new();
    for kind in FullAdderKind::ALL {
        netlists.push((format!("{}.v", kind.to_string().to_lowercase()), kind.structural_netlist()));
    }
    for d in approx_cell_descriptors() {
        netlists.push((format!("{}.v", d.name().to_lowercase()), d.netlist().clone()));
    }
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
            .expect("8-bit adder with 4 approximate LSBs is valid");
        netlists
            .push((format!("rca8_{}_lsb4.v", kind.to_string().to_lowercase()), ripple_netlist(&rca)));
    }
    for (n, r, p) in [(12usize, 4usize, 4usize), (11, 1, 9), (16, 2, 6)] {
        let gear = GeArAdder::new(n, r, p).expect("shipped GeAr configs are valid");
        netlists.push((format!("gear_n{n}_r{r}_p{p}.v"), gear_netlist(&gear)));
    }
    for kind in Mul2x2Kind::ALL {
        netlists.push((format!("{}.v", kind.to_string().to_lowercase()), kind.netlist()));
    }
    for core in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        let cfg = ConfigurableMul2x2::new(core);
        netlists.push((format!("{}.v", cfg.name().to_lowercase()), cfg.netlist()));
    }
    netlists
}

/// Exports the whole registry as structural Verilog into `dir`, one file
/// per module, each written to a temporary name and renamed into place so
/// concurrently running test binaries can self-heal a missing `hdl/`
/// without reading each other's half-written files. Returns the manifest
/// of `(path, gate count)` pairs.
///
/// # Errors
///
/// Propagates filesystem failures as strings (the callers are CI gates
/// and examples that report-and-exit).
pub fn export_registry_hdl(dir: &Path) -> Result<Vec<(std::path::PathBuf, usize)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut manifest = Vec::new();
    for (file, nl) in registry_hdl_netlists() {
        let path = dir.join(&file);
        let tmp = dir.join(format!("{file}.tmp{}", std::process::id()));
        std::fs::write(&tmp, xlac_logic::verilog::to_verilog(&nl))
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))?;
        manifest.push((path, nl.gate_count()));
    }
    Ok(manifest)
}

/// Regenerates `dir` from the registry when any expected export is
/// missing — `hdl/` is generated (and gitignored), so a fresh checkout
/// heals itself instead of failing every `hdl`-dependent proof.
///
/// # Errors
///
/// Propagates [`export_registry_hdl`] failures.
pub fn ensure_registry_hdl(dir: &Path) -> Result<(), String> {
    let missing =
        registry_hdl_netlists().iter().any(|(file, _)| !dir.join(file).is_file());
    if missing {
        export_registry_hdl(dir)?;
    }
    Ok(())
}

fn load_hdl(hdl_dir: &Path, file: &str) -> Result<RawNetlist, String> {
    let path = hdl_dir.join(file);
    let source = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (module, errors) = parse_verilog(&source);
    if !errors.is_empty() {
        return Err(format!("{}: {} parse error(s): {:?}", path.display(), errors.len(), errors));
    }
    module.ok_or_else(|| format!("{}: no module found", path.display()))
}

/// Input planes for one 64-lane block of assignments `base .. base + 64`:
/// plane `i`, lane `j` carries bit `i` of assignment `base + j`.
fn input_planes(n_inputs: usize, base: u64) -> Vec<u64> {
    (0..n_inputs)
        .map(|i| (0..64).fold(0u64, |p, j| p | ((((base + j) >> i) & 1) << j)))
        .collect()
}

/// Proves every labelled representation equal to the reference (the
/// first entry), reporting the first disagreement.
fn prove_family(bdd: &mut Bdd, family: &[(String, Vec<Ref>)]) -> ProofStatus {
    let (ref_label, reference) = &family[0];
    for (label, roots) in &family[1..] {
        if let Verdict::Counterexample(cex) = prove_outputs_equal(bdd, reference, roots) {
            return ProofStatus::Refuted(format!(
                "{label} differs from {ref_label} at output bit {} on input {:#b}",
                cex.output_bit, cex.input
            ));
        }
    }
    ProofStatus::Proven
}

fn report(
    bdd: &Bdd,
    name: String,
    n_inputs: usize,
    method: &'static str,
    family: &[(String, Vec<Ref>)],
    status: ProofStatus,
) -> ProofReport {
    obs_count!("analysis.proofs", 1);
    if !matches!(status, ProofStatus::Proven) {
        obs_count!("analysis.refuted", 1);
    }
    obs_gauge!("analysis.bdd_nodes", bdd.stats().nodes as f64);
    obs_gauge!("analysis.memo_hit_rate", bdd.stats().hit_rate());
    ProofReport {
        name,
        n_inputs,
        method,
        representations: family.iter().map(|(l, _)| l.clone()).collect(),
        status,
        bdd_nodes: bdd.stats().nodes,
        memo_hit_rate: bdd.stats().hit_rate(),
    }
}

/// Recovers the truth table of a ≤ 16-input bit-sliced evaluator by
/// driving it with exhaustive lane blocks.
fn table_from_planes(
    n_inputs: usize,
    n_outputs: usize,
    eval: impl Fn(&[u64]) -> Vec<u64>,
) -> TruthTable {
    assert!(n_inputs <= 16);
    let rows: Vec<u64> = (0..(1u64 << n_inputs))
        .step_by(64)
        .flat_map(|base| {
            let outs = eval(&input_planes(n_inputs, base));
            assert_eq!(outs.len(), n_outputs);
            let lanes = (1usize << n_inputs).min(64);
            (0..lanes)
                .map(move |j| {
                    (0..n_outputs).fold(0u64, |row, k| row | (((outs[k] >> j) & 1) << k))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    TruthTable::from_rows(n_inputs, n_outputs, rows).expect("recovered table is well-formed")
}

fn full_adder_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.full_adders");
    let mut reports = Vec::new();
    for kind in FullAdderKind::ALL {
        let file = format!("{}.v", kind.to_string().to_lowercase());
        let raw = load_hdl(hdl_dir, &file)?;
        let x64_table = table_from_planes(3, 2, |p| {
            let (s, c) = kind.eval_x64(p[0], p[1], p[2]);
            vec![s, c]
        });

        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..3).map(|i| bdd.var(i)).collect();
        let family = vec![
            ("truth-table".to_string(), compile_truth_table(&mut bdd, &kind.truth_table(), &vars)),
            ("structural netlist".to_string(), compile_netlist(&mut bdd, &kind.structural_netlist(), &vars)),
            ("synthesized netlist".to_string(), compile_netlist(&mut bdd, &kind.synthesized_netlist(), &vars)),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
            ("eval_x64".to_string(), compile_truth_table(&mut bdd, &x64_table, &vars)),
        ];
        let status = prove_family(&mut bdd, &family);
        reports.push(report(&bdd, kind.to_string(), 3, "bdd", &family, status));
    }
    Ok(reports)
}

/// The six-way descriptor contract, symbolically: the declared truth
/// table, the generated netlist, the `hdl/*.v` export and the *generated*
/// bit-sliced evaluator of every [`xlac_adders::UnitDescriptor`] are
/// proven to be the same function. None of these representations were
/// written by hand — the proof certifies the generators, not per-cell
/// code.
fn descriptor_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.descriptors");
    let mut reports = Vec::new();
    for d in approx_cell_descriptors() {
        let file = format!("{}.v", d.name().to_lowercase());
        let raw = load_hdl(hdl_dir, &file)?;
        let (n, k) = (d.table().n_inputs(), d.table().n_outputs());
        if n <= 8 {
            // Narrow cells: the whole four-way family as one BDD proof.
            let x64_table = table_from_planes(n, k, |p| d.eval_x64(p));
            let mut bdd = Bdd::new();
            let vars: Vec<Ref> = (0..n).map(|i| bdd.var(i)).collect();
            let family = vec![
                ("truth-table".to_string(), compile_truth_table(&mut bdd, d.table(), &vars)),
                ("generated netlist".to_string(), compile_netlist(&mut bdd, d.netlist(), &vars)),
                (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
                (
                    "generated eval_x64".to_string(),
                    compile_truth_table(&mut bdd, &x64_table, &vars),
                ),
            ];
            let status = prove_family(&mut bdd, &family);
            reports.push(report(&bdd, format!("cell/{}", d.name()), n, "bdd", &family, status));
        } else {
            // Word-level descriptors (the 16-input adders): Shannon-
            // expanding a 2^16-row table into a BDD is the one expensive
            // leg, so the table and eval_x64 legs are closed by full
            // enumeration (an exhaustive check over the whole input space
            // *is* a proof) while the netlist ≡ HDL leg stays symbolic.
            let mut bdd = Bdd::new();
            let vars: Vec<Ref> = (0..n).map(|i| bdd.var(i)).collect();
            let family = vec![
                ("generated netlist".to_string(), compile_netlist(&mut bdd, d.netlist(), &vars)),
                (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
            ];
            let mut status = prove_family(&mut bdd, &family);
            if status == ProofStatus::Proven {
                let x64_table = table_from_planes(n, k, |p| d.eval_x64(p));
                let net_table =
                    table_from_planes(n, k, |p| d.netlist().eval_words(p));
                for x in 0..(1u64 << n) {
                    let want = d.table().row(x);
                    if net_table.row(x) != want {
                        status = ProofStatus::Refuted(format!(
                            "generated netlist disagrees with the truth table at input {x:#b}"
                        ));
                        break;
                    }
                    if x64_table.row(x) != want {
                        status = ProofStatus::Refuted(format!(
                            "generated eval_x64 disagrees with the truth table at input {x:#b}"
                        ));
                        break;
                    }
                }
            }
            let mut family_labels = family;
            family_labels
                .push((format!("truth-table (2^{n} exhaustive)"), Vec::new()));
            family_labels
                .push((format!("generated eval_x64 (2^{n} exhaustive)"), Vec::new()));
            reports.push(report(
                &bdd,
                format!("cell/{}", d.name()),
                n,
                "bdd+exhaustive",
                &family_labels,
                status,
            ));
        }
    }
    Ok(reports)
}

fn mul2x2_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.mul2x2");
    let mut reports = Vec::new();
    for kind in Mul2x2Kind::ALL {
        let file = format!("{}.v", kind.to_string().to_lowercase());
        let raw = load_hdl(hdl_dir, &file)?;
        let x64_table =
            table_from_planes(4, 4, |p| kind.mul_x64(p[0], p[1], p[2], p[3]).to_vec());

        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..4).map(|i| bdd.var(i)).collect();
        let family = vec![
            ("truth-table".to_string(), compile_truth_table(&mut bdd, &kind.truth_table(), &vars)),
            ("netlist".to_string(), compile_netlist(&mut bdd, &kind.netlist(), &vars)),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
            ("mul_x64".to_string(), compile_truth_table(&mut bdd, &x64_table, &vars)),
        ];
        let status = prove_family(&mut bdd, &family);
        reports.push(report(&bdd, kind.to_string(), 4, "bdd", &family, status));
    }
    Ok(reports)
}

fn configurable_mul_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.configurable_mul");
    let mut reports = Vec::new();
    for core in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        let cfg = ConfigurableMul2x2::new(core);
        let file = format!("{}.v", cfg.name().to_lowercase());
        let raw = load_hdl(hdl_dir, &file)?;

        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..5).map(|i| bdd.var(i)).collect();
        let behavioural = twins::configurable_mul2x2_table(&cfg);
        let family = vec![
            ("behavioural model".to_string(), compile_truth_table(&mut bdd, &behavioural, &vars)),
            ("netlist".to_string(), compile_netlist(&mut bdd, &cfg.netlist(), &vars)),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
        ];
        let status = prove_family(&mut bdd, &family);
        reports.push(report(&bdd, cfg.name(), 5, "bdd", &family, status));
    }
    Ok(reports)
}

/// All `2^(2w)` operand pairs (`2w ≤ 20`): an exhaustive check is a proof.
fn all_pairs(width: usize) -> Vec<(u64, u64)> {
    assert!(2 * width <= 20);
    (0..1u64 << (2 * width)).map(|x| (x & ((1 << width) - 1), x >> width)).collect()
}

/// [`SAMPLE_VECTORS`] seeded operand pairs, for datapaths too wide to
/// enumerate (64 `a` draws, then 64 `b` draws, per lane block).
fn sampled_pairs(width: usize) -> Vec<(u64, u64)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(SAMPLE_SEED ^ (width as u64));
    let mut lanes = move || (0..64).map(|_| rng.next_u64() & ((1 << width) - 1)).collect::<Vec<_>>();
    (0..SAMPLE_VECTORS / 64).flat_map(|_| lanes().into_iter().zip(lanes())).collect()
}

/// Compares a netlist's BDD evaluation (interleaved variables, `a_i` =
/// var `2i`), a scalar model and a bit-sliced model (`sliced_label` names
/// it in a refutation) on every operand pair of `pairs`, 64 lanes at a
/// time.
fn agreement(
    bdd: &Bdd,
    roots: &[Ref],
    width: usize,
    pairs: &[(u64, u64)],
    sliced_label: &str,
    scalar: impl Fn(u64, u64) -> u64,
    mut sliced: impl FnMut(&[u64], &[u64]) -> Vec<u64>,
) -> ProofStatus {
    for block in pairs.chunks(64) {
        let planes = |pick: fn(&(u64, u64)) -> u64| -> Vec<u64> {
            (0..width)
                .map(|i| block.iter().enumerate().fold(0, |p, (j, x)| p | (((pick(x) >> i) & 1) << j)))
                .collect()
        };
        let outs = sliced(&planes(|x| x.0), &planes(|x| x.1));
        for (j, &(a, b)) in block.iter().enumerate() {
            let want = scalar(a, b);
            let from_sliced: u64 =
                outs.iter().enumerate().map(|(k, &p)| ((p >> j) & 1) << k).sum();
            let assignment = interleave(a, b, width);
            let from_twin: u64 = roots
                .iter()
                .enumerate()
                .map(|(k, &f)| u64::from(bdd.eval(f, assignment)) << k)
                .sum();
            if from_sliced != want {
                return ProofStatus::Refuted(format!(
                    "{sliced_label} disagrees with the scalar model at a={a} b={b}: {from_sliced} vs {want}"
                ));
            }
            if from_twin != want {
                return ProofStatus::Refuted(format!(
                    "BDD twin disagrees with the scalar model at a={a} b={b}: {from_twin} vs {want}"
                ));
            }
        }
    }
    ProofStatus::Proven
}

/// Packs operands into the interleaved BDD variable assignment.
fn interleave(a: u64, b: u64, width: usize) -> u64 {
    (0..width).fold(0u64, |acc, i| {
        acc | (((a >> i) & 1) << (2 * i)) | (((b >> i) & 1) << (2 * i + 1))
    })
}

fn ripple_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.ripple_adders");
    let mut reports = Vec::new();
    for kind in FullAdderKind::APPROXIMATE {
        let file = format!("rca8_{}_lsb4.v", kind.to_string().to_lowercase());
        let raw = load_hdl(hdl_dir, &file)?;
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
            .expect("8-bit adder with 4 approximate LSBs is valid");

        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, 8);
        let ports: Vec<Ref> = a.iter().chain(&b).copied().collect();
        let family = vec![
            ("elaborated netlist".to_string(), compile_netlist(&mut bdd, &ripple_netlist(&rca), &ports)),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &ports)?),
        ];
        let mut status = prove_family(&mut bdd, &family);
        if status == ProofStatus::Proven {
            // Close the loop to the scalar and bit-sliced models by full
            // enumeration of the 16-bit input space.
            status = agreement(
                &bdd,
                &family[0].1,
                8,
                &all_pairs(8),
                "eval_x64",
                |x, y| rca.add(x, y),
                |ap, bp| rca.add_x64(ap, bp),
            );
        }
        let mut family_labels = family;
        family_labels.push(("add_x64 (2^16 exhaustive)".to_string(), Vec::new()));
        family_labels.push(("scalar model (2^16 exhaustive)".to_string(), Vec::new()));
        reports.push(report(&bdd, rca.name(), 16, "bdd+exhaustive", &family_labels, status));
    }
    Ok(reports)
}

fn gear_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.gear_adders");
    let mut reports = Vec::new();
    for (n, r, p, file) in [
        (11usize, 1usize, 9usize, "gear_n11_r1_p9.v"),
        (12, 4, 4, "gear_n12_r4_p4.v"),
        (16, 2, 6, "gear_n16_r2_p6.v"),
    ] {
        let raw = load_hdl(hdl_dir, file)?;
        let gear = GeArAdder::new(n, r, p).expect("shipped GeAr configs are valid");

        let mut bdd = Bdd::new();
        let (a, b) = interleaved_operand_vars(&mut bdd, n);
        let ports: Vec<Ref> = a.iter().chain(&b).copied().collect();
        let family = vec![
            ("elaborated netlist".to_string(), compile_netlist(&mut bdd, &gear_netlist(&gear), &ports)),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &ports)?),
        ];
        let mut status = prove_family(&mut bdd, &family);
        if status == ProofStatus::Proven {
            // 2n > 20 inputs: seeded-vector agreement with the scalar and
            // bit-sliced models (the symbolic forms above are proven).
            status = agreement(
                &bdd,
                &family[0].1,
                n,
                &sampled_pairs(n),
                "add_x64",
                |x, y| gear.add(x, y).value,
                |ap, bp| gear.add_x64(ap, bp).value,
            );
        }
        let mut family_labels = family;
        family_labels.push((format!("add_x64 ({SAMPLE_VECTORS} seeded vectors)"), Vec::new()));
        family_labels.push((format!("scalar model ({SAMPLE_VECTORS} seeded vectors)"), Vec::new()));
        reports.push(report(&bdd, gear.name(), 2 * n, "bdd+sampled", &family_labels, status));
    }
    Ok(reports)
}

/// The composite multipliers and the subtractor: the BDD of the elaborated
/// netlist (through its [`twins`] function), the scalar model and the
/// bit-sliced model agree on all `2^16` operand pairs.
fn composed_multiplier_reports() -> Vec<ProofReport> {
    let _span = obs_span!("analysis.composed_multipliers");
    // Recursive multiplier, paper configuration: ApxMulOur blocks with
    // approximate summation adders.
    let rec = RecursiveMultiplier::new(
        8,
        Mul2x2Kind::ApxOur,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 3 },
    )
    .expect("valid recursive configuration");
    // Wallace tree with approximate low columns.
    let wal = WallaceMultiplier::new(8, FullAdderKind::Apx3, 6).expect("valid Wallace config");
    // Truncated multiplier with compensation.
    let trunc = TruncatedMultiplier::new(8, 4, true).expect("valid truncated config");
    // Subtractor over an approximate ripple datapath: the magnitude, then
    // the a >= b flag.
    let sub = Subtractor::new(
        RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4).expect("valid adder config"),
    );
    vec![
        composed_report(
            rec.name(),
            |bdd, a, b| twins::recursive_multiplier(bdd, 8, rec.block(), rec.sum_mode(), a, b),
            |x, y| rec.mul(x, y),
            |ap, bp| rec.mul_x64(ap, bp),
        ),
        composed_report(
            wal.name(),
            |bdd, a, b| twins::wallace_multiplier(bdd, &wal, a, b),
            |x, y| wal.mul(x, y),
            |ap, bp| wal.mul_x64(ap, bp),
        ),
        composed_report(
            trunc.name(),
            |bdd, a, b| twins::truncated_multiplier(bdd, &trunc, a, b),
            |x, y| trunc.mul(x, y),
            |ap, bp| trunc.mul_x64(ap, bp),
        ),
        composed_report(
            sub.name(),
            |bdd, a, b| {
                let (mut out, ge) = twins::subtractor(bdd, &sub, a, b);
                out.push(ge);
                out
            },
            |x, y| {
                let (m, g) = sub.sub(x, y);
                m | (u64::from(g) << 8)
            },
            |ap, bp| {
                let (mut planes, ge_plane) = sub.sub_x64(ap, bp);
                planes.push(ge_plane);
                planes
            },
        ),
    ]
}

/// One 8-bit composite unit's exhaustive report.
fn composed_report(
    name: String,
    twin: impl FnOnce(&mut Bdd, &[Ref], &[Ref]) -> Vec<Ref>,
    scalar: impl Fn(u64, u64) -> u64,
    sliced: impl FnMut(&[u64], &[u64]) -> Vec<u64>,
) -> ProofReport {
    let mut bdd = Bdd::new();
    let (a, b) = interleaved_operand_vars(&mut bdd, 8);
    let roots = twin(&mut bdd, &a, &b);
    let status = agreement(&bdd, &roots, 8, &all_pairs(8), "eval_x64", scalar, sliced);
    let family = [
        "elaborated netlist",
        "scalar model (2^16 exhaustive)",
        "bit-sliced model (2^16 exhaustive)",
    ]
    .map(|l| (l.to_string(), Vec::new()));
    report(&bdd, name, 16, "exhaustive", &family, status)
}

/// Proof obligations for the `xlac-sim` bytecode compiler: every
/// built-in netlist representation in the registry, compiled to bit-plane
/// bytecode, is proven equal to the source netlist output-by-output over
/// the full input space ([`super::jitproof`] executes the bytecode
/// symbolically; canonical BDD roots make the comparison a proof).
///
/// Only built-in (structural/elaborated) netlists participate — the
/// `hdl/` exports are covered by [`prove_all`] and add nothing here,
/// since the JIT consumes `Netlist` values, not Verilog.
#[must_use]
pub fn jit_equivalence_reports() -> Vec<ProofReport> {
    jit_equivalence_sweep().0
}

/// The JIT sweep with the shared manager's final statistics exposed.
///
/// One BDD manager serves every obligation in the sweep; between
/// obligations the manager is garbage-collected with no roots, which
/// sweeps the unique table and drops the ITE memo. Proof roots never
/// outlive their obligation, so the peak live-node count is the
/// *largest single obligation*, not the sum over the registry — the
/// regression test pins that invariant so a leaked root or a skipped
/// sweep shows up as a peak-node jump.
#[must_use]
pub fn jit_equivalence_sweep() -> (Vec<ProofReport>, super::bdd::BddStats) {
    let _span = obs_span!("analysis.jit_equivalence");
    use xlac_multipliers::hw::wallace_netlist;
    let mut reports = Vec::new();
    let mut bdd = Bdd::new();

    // 1-bit cells: plain variable order.
    let mut cells: Vec<(String, xlac_logic::Netlist)> = Vec::new();
    for kind in FullAdderKind::ALL {
        cells.push((format!("{kind} (structural)"), kind.structural_netlist()));
        cells.push((format!("{kind} (synthesized)"), kind.synthesized_netlist()));
    }
    for kind in Mul2x2Kind::ALL {
        cells.push((kind.to_string(), kind.netlist()));
    }
    for core in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        let cfg = ConfigurableMul2x2::new(core);
        cells.push((cfg.name(), cfg.netlist()));
    }
    for (name, nl) in cells {
        let vars: Vec<Ref> = (0..nl.n_inputs()).map(|i| bdd.var(i)).collect();
        reports.push(jit_report(&mut bdd, name, &nl, &vars));
        bdd.gc(&[]);
    }

    // Multi-bit datapaths: interleaved operand order keeps the adder and
    // multiplier BDDs compact, exactly as the main registry does.
    let mut datapaths: Vec<(String, xlac_logic::Netlist, usize)> = Vec::new();
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
            .expect("8-bit adder with 4 approximate LSBs is valid");
        datapaths.push((rca.name(), ripple_netlist(&rca), 8));
    }
    for (n, r, p) in [(11usize, 1usize, 9usize), (12, 4, 4), (16, 2, 6)] {
        let gear = GeArAdder::new(n, r, p).expect("shipped GeAr configs are valid");
        datapaths.push((gear.name(), gear_netlist(&gear), n));
    }
    {
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx3, 6).expect("valid Wallace config");
        datapaths.push((m.name(), wallace_netlist(&m), 8));
    }
    {
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4)
            .expect("valid adder config");
        let sub = Subtractor::new(rca);
        datapaths.push((sub.name(), xlac_adders::hw::subtractor_netlist(&sub), 8));
    }
    for (name, nl, width) in datapaths {
        let (a, b) = interleaved_operand_vars(&mut bdd, width);
        let ports: Vec<Ref> = a.iter().chain(&b).copied().collect();
        reports.push(jit_report(&mut bdd, name, &nl, &ports));
        bdd.gc(&[]);
    }
    (reports, bdd.stats())
}

fn jit_report(bdd: &mut Bdd, name: String, nl: &xlac_logic::Netlist, ports: &[Ref]) -> ProofReport {
    let prog = xlac_sim::CompiledProgram::compile(nl);
    let family = vec![
        ("netlist".to_string(), compile_netlist(bdd, nl, ports)),
        ("compiled bytecode".to_string(), super::jitproof::compile_program(bdd, &prog, ports)),
    ];
    let status = prove_family(bdd, &family);
    report(bdd, name, nl.n_inputs(), "bdd-jit", &family, status)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdl_dir() -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../hdl");
        ensure_registry_hdl(&dir).expect("hdl/ self-heals from the registry");
        dir
    }

    #[test]
    fn every_shipped_module_obligation_is_proven() {
        let reports = prove_all(&hdl_dir()).expect("hdl/ loads");
        assert!(reports.len() >= 20, "expected the full registry, got {}", reports.len());
        for r in &reports {
            assert!(r.is_proven(), "{}: {:?}", r.name, r.status);
        }
    }

    #[test]
    fn every_jit_compilation_obligation_is_proven() {
        let reports = jit_equivalence_reports();
        // Every registry family is represented: 2 netlists per full-adder
        // kind, the 2×2 blocks, the configurables, ripple/GeAr/Wallace/
        // subtractor datapaths.
        assert!(reports.len() >= 25, "expected the full registry, got {}", reports.len());
        for r in &reports {
            assert!(r.is_proven(), "{}: {:?}", r.name, r.status);
            assert_eq!(r.method, "bdd-jit");
        }
    }

    #[test]
    fn shared_manager_sweep_keeps_the_peak_bounded() {
        let (reports, stats) = jit_equivalence_sweep();
        assert!(reports.iter().all(ProofReport::is_proven));
        // One gc per obligation: the memo and unique table are swept
        // between proofs, so the high-water mark is the largest single
        // obligation (~322k live nodes for the widest datapath compile),
        // not the registry sum (well over a million).
        assert!(stats.gc_runs >= reports.len() as u64, "a between-obligation sweep was skipped");
        assert!(stats.freed_nodes > 0);
        assert_eq!(stats.live_nodes, 0, "a proof root leaked past its obligation");
        assert!(
            stats.peak_live_nodes < 400_000,
            "peak live nodes regressed: {} (one obligation leaked into the next?)",
            stats.peak_live_nodes
        );
    }

    #[test]
    fn descriptor_cells_prove_every_generated_representation() {
        let reports = descriptor_reports(&hdl_dir()).expect("hdl/ loads");
        assert_eq!(
            reports.len(),
            approx_cell_descriptors().len(),
            "every shipped descriptor earns a proof"
        );
        assert!(reports.len() >= 14, "library regressed below the ROADMAP-3 roster");
        for r in &reports {
            assert!(r.is_proven(), "{}: {:?}", r.name, r.status);
            // All four legs are generated from the descriptor's two
            // defining artifacts; the labels record that.
            assert!(r.representations.iter().any(|l| l == "generated netlist"));
            assert!(r.representations.iter().any(|l| l.starts_with("generated eval_x64")));
            assert!(r.representations.iter().any(|l| l.starts_with("truth-table")));
        }
        // The word-level descriptors take the bdd+exhaustive wide path.
        assert!(
            reports.iter().any(|r| r.n_inputs == 16 && r.method == "bdd+exhaustive"),
            "word-level adders must be proven via the wide path"
        );
    }

    #[test]
    fn a_seeded_defect_is_refuted_with_a_counterexample() {
        // Compare ApxFA1's table against the accurate structural netlist:
        // the registry machinery must refute it, not just fail.
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..3).map(|i| bdd.var(i)).collect();
        let family = vec![
            (
                "truth-table".to_string(),
                compile_truth_table(&mut bdd, &FullAdderKind::Apx1.truth_table(), &vars),
            ),
            (
                "structural netlist".to_string(),
                compile_netlist(&mut bdd, &FullAdderKind::Accurate.structural_netlist(), &vars),
            ),
        ];
        match prove_family(&mut bdd, &family) {
            ProofStatus::Proven => panic!("ApxFA1 must not equal AccuFA"),
            ProofStatus::Refuted(msg) => {
                assert!(msg.contains("output bit"), "{msg}");
            }
        }
    }

    #[test]
    fn proof_json_is_well_formed() {
        let reports = full_adder_reports(&hdl_dir()).unwrap();
        let json = proofs_to_json(&reports);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"status\": \"proven\""));
        assert!(json.contains("\"memo_hit_rate\""));
    }
}
