//! The shipped-module proof obligations behind `xlac-lint --exact`.
//!
//! Every component the workspace ships exists in several representations
//! — a truth-table specification, a scalar behavioural model, a
//! structural/synthesized netlist, a `hdl/*.v` export and, for the cells,
//! the recursive multiplier and the adders, a hand bit-sliced form.
//! `xlac_logic::equiv` checks such forms against each other by sampling;
//! this module replaces those spot checks with *proofs*:
//!
//! * representations with a netlist or table form compile to BDDs over
//!   the same variables, where canonical-root equality is equivalence
//!   over the full input space ([`super::equiv`]);
//! * scalar and (where one exists) hand bit-sliced forms with ≤ 16 input
//!   bits are compared exhaustively (an exhaustive check over the whole
//!   input space *is* a proof), anchored to the elaborated netlist so
//!   every view meets it: one [`CountingBlocks`] block drives the
//!   netlist's word evaluator, the scalar model and the bit-sliced model
//!   64 assignments at a time. Units whose only 64-lane form is their
//!   compiled netlist (Wallace, truncated, subtractor) compare the
//!   netlist with the scalar model;
//! * wider datapaths (the GeAr configurations, 22–32 input bits) get a
//!   BDD proof between the symbolic forms plus ≥ 10⁵ seeded vectors,
//!   packed into the same 64-lane blocks, against the scalar and
//!   bit-sliced models.
//!
//! [`prove_all`] runs the whole registry; one [`ProofReport`] per module
//! records the representations compared, the method, the verdict and the
//! engine statistics (live node count, ITE memo hit rate).

use super::bdd::{Bdd, Ref};
use super::compile::{compile_netlist, compile_raw, compile_truth_table, interleaved_operand_vars};
use super::equiv::{prove_outputs_equal, Verdict};
use super::metrics::EXHAUSTIVE_MAX_INPUTS;
use super::twins;
use crate::lint::json_escape;
use crate::parse::{parse_verilog, RawNetlist};
use std::path::Path;
use xlac_adders::hw::{gear_netlist, ripple_netlist, subtractor_netlist};
use xlac_adders::{
    approx_cell_descriptors, Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor,
};
use xlac_core::lanes::{from_planes, to_planes_into, CountingBlocks, LANES};
use xlac_core::rng::{Rng, Xoshiro256StarStar};
use xlac_logic::{Netlist, TruthTable};
use xlac_multipliers::hw::{recursive_netlist, truncated_netlist, wallace_netlist};
use xlac_multipliers::{
    ConfigurableMul2x2, Mul2x2Kind, Multiplier, MultiplierX64, RecursiveMultiplier, SumMode,
    TruncatedMultiplier, WallaceMultiplier,
};
use xlac_obs::{obs_count, obs_gauge, obs_span};

/// Seed for the sampled leg of wide-datapath obligations (deterministic:
/// CI reproduces the exact same vectors). A `width`-bit datapath's leg
/// seeds `Xoshiro256StarStar` with `SAMPLE_SEED ^ width`.
pub const SAMPLE_SEED: u64 = 0x5EED_DAC6;

/// Number of seeded vectors for datapaths too wide to enumerate.
pub const SAMPLE_VECTORS: usize = 100_032; // 1563 full 64-lane blocks

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
            ProofStatus::Refuted(why) => format!("\"refuted: {}\"", json_escape(why)),
        };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"n_inputs\": {}, \"method\": \"{}\", \
             \"representations\": [{}], \"status\": {status}, \"bdd_nodes\": {}, \
             \"memo_hit_rate\": {:.4}}}{}\n",
            json_escape(&r.name),
            r.n_inputs,
            r.method,
            r.representations
                .iter()
                .map(|s| format!("\"{}\"", json_escape(s)))
                .collect::<Vec<_>>()
                .join(", "),
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
    reports.extend(adder_reports(hdl_dir)?);
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
        netlists
            .push((format!("{}.v", kind.to_string().to_lowercase()), kind.structural_netlist()));
    }
    for d in approx_cell_descriptors() {
        netlists.push((format!("{}.v", d.name().to_lowercase()), d.netlist().clone()));
    }
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
            .expect("8-bit adder with 4 approximate LSBs is valid");
        netlists.push((
            format!("rca8_{}_lsb4.v", kind.to_string().to_lowercase()),
            ripple_netlist(&rca),
        ));
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
    let missing = registry_hdl_netlists().iter().any(|(file, _)| !dir.join(file).is_file());
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

/// The labels of a BDD proof family, reference first.
fn labels(family: &[(String, Vec<Ref>)]) -> Vec<String> {
    family.iter().map(|(l, _)| l.clone()).collect()
}

/// Records one obligation. `bdd` is the proof's manager, `None` for an
/// obligation closed by enumeration alone (it reports zero nodes).
fn report(
    bdd: Option<&Bdd>,
    name: String,
    n_inputs: usize,
    method: &'static str,
    representations: Vec<String>,
    status: ProofStatus,
) -> ProofReport {
    obs_count!("analysis.proofs", 1);
    if !matches!(status, ProofStatus::Proven) {
        obs_count!("analysis.refuted", 1);
    }
    let stats = bdd.map(Bdd::stats);
    let (bdd_nodes, memo_hit_rate) = stats.map_or((0, 0.0), |s| (s.nodes, s.hit_rate()));
    if stats.is_some() {
        obs_gauge!("analysis.bdd_nodes", bdd_nodes as f64);
        obs_gauge!("analysis.memo_hit_rate", memo_hit_rate);
    }
    ProofReport { name, n_inputs, method, representations, status, bdd_nodes, memo_hit_rate }
}

fn full_adder_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.full_adders");
    let mut reports = Vec::new();
    for kind in FullAdderKind::ALL {
        let file = format!("{}.v", kind.to_string().to_lowercase());
        let raw = load_hdl(hdl_dir, &file)?;
        let x64_table = TruthTable::from_planes(3, 2, |p| {
            let (s, c) = kind.eval_x64(p[0], p[1], p[2]);
            vec![s, c]
        });

        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..3).map(|i| bdd.var(i)).collect();
        let family = vec![
            ("truth-table".to_string(), compile_truth_table(&mut bdd, &kind.truth_table(), &vars)),
            (
                "structural netlist".to_string(),
                compile_netlist(&mut bdd, &kind.structural_netlist(), &vars),
            ),
            (
                "synthesized netlist".to_string(),
                compile_netlist(&mut bdd, &kind.synthesized_netlist(), &vars),
            ),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
            ("eval_x64".to_string(), compile_truth_table(&mut bdd, &x64_table, &vars)),
        ];
        let status = prove_family(&mut bdd, &family);
        reports.push(report(Some(&bdd), kind.to_string(), 3, "bdd", labels(&family), status));
    }
    Ok(reports)
}

/// The descriptor contract, symbolically: the declared truth table, the
/// generated netlist and the `hdl/*.v` export of every
/// [`xlac_adders::UnitDescriptor`] are proven to be the same function.
/// None of these representations were written by hand — the proof
/// certifies the generators, not per-cell code. (The netlist is also the
/// cell's only 64-lane form, so there is no bit-sliced leg to add.)
fn descriptor_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.descriptors");
    let mut reports = Vec::new();
    for d in approx_cell_descriptors() {
        let file = format!("{}.v", d.name().to_lowercase());
        let raw = load_hdl(hdl_dir, &file)?;
        let (n, k) = (d.table().n_inputs(), d.table().n_outputs());
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..n).map(|i| bdd.var(i)).collect();
        let mut family = vec![
            ("generated netlist".to_string(), compile_netlist(&mut bdd, d.netlist(), &vars)),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
        ];
        // Narrow cells: the whole three-way family as one BDD proof.
        // Word-level descriptors (the 16-input adders): Shannon-expanding
        // a 2^16-row table into a BDD is the one expensive leg, so the
        // table leg is closed by full enumeration (an exhaustive check
        // over the whole input space *is* a proof) while the netlist ≡ HDL
        // leg stays symbolic.
        let narrow = n <= 8;
        if narrow {
            family.insert(
                0,
                ("truth-table".to_string(), compile_truth_table(&mut bdd, d.table(), &vars)),
            );
        }
        let mut status = prove_family(&mut bdd, &family);
        let mut representations = labels(&family);
        if !narrow {
            if status == ProofStatus::Proven {
                let net_table = TruthTable::from_planes(n, k, |p| d.netlist().eval_words(p));
                let first =
                    (0..1u64 << n).find(|&x| net_table.row(x) != d.table().row(x)).map(|x| {
                        format!("generated netlist disagrees with the truth table at input {x:#b}")
                    });
                status = first.map_or(ProofStatus::Proven, ProofStatus::Refuted);
            }
            representations.push(format!("truth-table (2^{n} exhaustive)"));
        }
        let method = if narrow { "bdd" } else { "bdd+exhaustive" };
        reports.push(report(
            Some(&bdd),
            format!("cell/{}", d.name()),
            n,
            method,
            representations,
            status,
        ));
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
            TruthTable::from_planes(4, 4, |p| kind.mul_x64(p[0], p[1], p[2], p[3]).to_vec());

        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..4).map(|i| bdd.var(i)).collect();
        let family = vec![
            ("truth-table".to_string(), compile_truth_table(&mut bdd, &kind.truth_table(), &vars)),
            ("netlist".to_string(), compile_netlist(&mut bdd, &kind.netlist(), &vars)),
            (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &vars)?),
            ("mul_x64".to_string(), compile_truth_table(&mut bdd, &x64_table, &vars)),
        ];
        let status = prove_family(&mut bdd, &family);
        reports.push(report(Some(&bdd), kind.to_string(), 4, "bdd", labels(&family), status));
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
        reports.push(report(Some(&bdd), cfg.name(), 5, "bdd", labels(&family), status));
    }
    Ok(reports)
}

/// A hand bit-sliced model of a two-operand datapath: operand planes in,
/// result planes out.
type SlicedFn<'a> = &'a mut dyn FnMut(&[u64], &[u64]) -> Vec<u64>;

/// A [`SlicedFn`] under the label that names it in a refutation.
type Sliced<'a> = (&'a str, SlicedFn<'a>);

/// A two-operand datapath's executable forms — the elaborated netlist
/// (through [`Netlist::eval_words_into`], its reference semantics), the
/// scalar model and, when the unit has one, its hand bit-sliced model —
/// compared 64 lanes per block. A datapath of at most
/// [`EXHAUSTIVE_MAX_INPUTS`] inputs runs all `2^(2w)` operand pairs in
/// [`CountingBlocks`] order (an exhaustive check is a proof); a wider one
/// runs [`SAMPLE_VECTORS`] seeded pairs, 64 `a` draws then 64 `b` draws
/// per block. Operand `a` is netlist inputs `0..w`, `b` is `w..2w`.
/// Reports the first disagreeing `a`/`b` in lane order, the sliced model
/// before the netlist.
fn agreement(
    netlist: &Netlist,
    scalar: impl Fn(u64, u64) -> u64,
    mut sliced: Option<Sliced<'_>>,
) -> ProofStatus {
    let (n, width) = (netlist.n_inputs(), netlist.n_inputs() / 2);
    let counting = CountingBlocks::new(n);
    let exhaustive = n <= EXHAUSTIVE_MAX_INPUTS;
    assert!(n >= 6 && n % 2 == 0, "{n} inputs: not two operands filling 64 lanes");
    let blocks = if exhaustive { counting.blocks() } else { (SAMPLE_VECTORS / LANES) as u64 };
    let mut rng = Xoshiro256StarStar::seed_from_u64(SAMPLE_SEED ^ (width as u64));
    let (mut planes, mut lanes) = (vec![0u64; n], [0u64; LANES]);
    let (mut values, mut outs) = (Vec::new(), Vec::new());
    for block in 0..blocks {
        if exhaustive {
            counting.fill(block, &mut planes);
        } else {
            for operand in planes.chunks_mut(width) {
                rng.fill_u64(&mut lanes);
                to_planes_into(&lanes, width, operand);
            }
        }
        netlist.eval_words_into(&planes, &mut values, &mut outs);
        let (ap, bp) = planes.split_at(width);
        let from_net = from_planes(&outs);
        let from_sliced = sliced.as_mut().map(|(label, f)| (*label, from_planes(&f(ap, bp))));
        for (l, (&a, &b)) in from_planes(ap).iter().zip(&from_planes(bp)).enumerate() {
            let want = scalar(a, b);
            let sliced_lane = from_sliced.as_ref().map(|(label, lanes)| (lanes[l], *label));
            let net_lane = (from_net[l], "elaborated netlist");
            for (got, label) in sliced_lane.into_iter().chain([net_lane]) {
                if got != want {
                    return ProofStatus::Refuted(format!(
                        "{label} disagrees with the scalar model at a={a} b={b}: {got} vs {want}"
                    ));
                }
            }
        }
    }
    ProofStatus::Proven
}

/// The adders with an `hdl/` export: the elaborated netlist ≡ `hdl/` by
/// BDD, then the [`agreement`] leg — exhaustive for the rca8 variants (16
/// inputs), seeded for the GeAr geometries (22–32 inputs).
fn adder_reports(hdl_dir: &Path) -> Result<Vec<ProofReport>, String> {
    let _span = obs_span!("analysis.adders");
    let mut reports = Vec::new();
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4)
            .expect("8-bit adder with 4 approximate LSBs is valid");
        let file = format!("rca8_{}_lsb4.v", kind.to_string().to_lowercase());
        reports.push(adder_report(
            hdl_dir,
            &file,
            rca.name(),
            &ripple_netlist(&rca),
            |x, y| rca.add(x, y),
            &mut |ap, bp| rca.add_x64(ap, bp),
        )?);
    }
    for (n, r, p) in [(11usize, 1usize, 9usize), (12, 4, 4), (16, 2, 6)] {
        let gear = GeArAdder::new(n, r, p).expect("shipped GeAr configs are valid");
        reports.push(adder_report(
            hdl_dir,
            &format!("gear_n{n}_r{r}_p{p}.v"),
            gear.name(),
            &gear_netlist(&gear),
            |x, y| gear.add(x, y).value,
            &mut |ap, bp| gear.add_x64(ap, bp).value,
        )?);
    }
    Ok(reports)
}

fn adder_report(
    hdl_dir: &Path,
    file: &str,
    name: String,
    netlist: &Netlist,
    scalar: impl Fn(u64, u64) -> u64,
    sliced: SlicedFn<'_>,
) -> Result<ProofReport, String> {
    let raw = load_hdl(hdl_dir, file)?;
    let n = netlist.n_inputs();
    let mut bdd = Bdd::new();
    let (a, b) = interleaved_operand_vars(&mut bdd, n / 2);
    let ports: Vec<Ref> = a.iter().chain(&b).copied().collect();
    let family = vec![
        ("elaborated netlist".to_string(), compile_netlist(&mut bdd, netlist, &ports)),
        (format!("hdl/{file}"), compile_raw(&mut bdd, &raw, &ports)?),
    ];
    let mut status = prove_family(&mut bdd, &family);
    if status == ProofStatus::Proven {
        status = agreement(netlist, scalar, Some(("add_x64", sliced)));
    }
    let (method, leg) = if n <= EXHAUSTIVE_MAX_INPUTS {
        ("bdd+exhaustive", format!("2^{n} exhaustive"))
    } else {
        ("bdd+sampled", format!("{SAMPLE_VECTORS} seeded vectors"))
    };
    let mut representations = labels(&family);
    representations.push(format!("add_x64 ({leg})"));
    representations.push(format!("scalar model ({leg})"));
    Ok(report(Some(&bdd), name, n, method, representations, status))
}

/// The composite multipliers and the subtractor: the elaborated netlist
/// and the scalar model (and the recursive multiplier's hand bit-sliced
/// model) agree on all `2^16` operand pairs. No BDD is built: enumerating
/// the whole input space is itself the proof.
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
            &recursive_netlist(&rec),
            |x, y| rec.mul(x, y),
            Some(&mut |ap, bp| rec.mul_x64(ap, bp)),
        ),
        composed_report(wal.name(), &wallace_netlist(&wal), |x, y| wal.mul(x, y), None),
        composed_report(trunc.name(), &truncated_netlist(&trunc), |x, y| trunc.mul(x, y), None),
        composed_report(
            sub.name(),
            &subtractor_netlist(&sub),
            |x, y| {
                let (m, g) = sub.sub(x, y);
                m | (u64::from(g) << 8)
            },
            None,
        ),
    ]
}

/// One 8-bit composite unit's exhaustive report; `sliced` is the unit's
/// hand bit-sliced model, if it has one.
fn composed_report(
    name: String,
    netlist: &Netlist,
    scalar: impl Fn(u64, u64) -> u64,
    sliced: Option<SlicedFn<'_>>,
) -> ProofReport {
    let mut representations =
        ["elaborated netlist", "scalar model (2^16 exhaustive)"].map(String::from).to_vec();
    if sliced.is_some() {
        representations.push("bit-sliced model (2^16 exhaustive)".to_string());
    }
    let status = agreement(netlist, scalar, sliced.map(|f| ("eval_x64", f)));
    report(None, name, 16, "exhaustive", representations, status)
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
    report(Some(bdd), name, nl.n_inputs(), "bdd-jit", labels(&family), status)
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
            // Every leg is generated from the descriptor's two defining
            // artifacts; the labels record that.
            assert!(r.representations.iter().any(|l| l == "generated netlist"));
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

    /// `nl` with output bit 0 inverted on the single input assignment `x`.
    fn flipped_at(nl: &Netlist, x: u64) -> Netlist {
        use xlac_logic::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new("flipped", nl.n_inputs());
        let ins: Vec<_> = (0..nl.n_inputs()).map(|i| b.input(i)).collect();
        let mut outs = b.inline(nl, &ins);
        let literals: Vec<_> = (0..ins.len())
            .map(|i| if (x >> i) & 1 == 1 { ins[i] } else { b.gate(GateKind::Not, &[ins[i]]) })
            .collect();
        let hit = b.tree(GateKind::And2, &literals);
        outs[0] = b.gate(GateKind::Xor2, &[outs[0], hit]);
        outs.into_iter().for_each(|o| b.output(o));
        b.finish().unwrap()
    }

    /// The rca8 agreement leg over `netlist`; the sliced model's sum bit 0
    /// is inverted in the lanes of `flip` in every block.
    fn rca8_agreement(netlist: &Netlist, label: &str, flip: u64) -> ProofStatus {
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx2, 4).unwrap();
        let mut sliced = |ap: &[u64], bp: &[u64]| {
            let mut planes = rca.add_x64(ap, bp);
            planes[0] ^= flip;
            planes
        };
        agreement(netlist, |x, y| rca.add(x, y), Some((label, &mut sliced)))
    }

    #[test]
    fn exhaustive_agreement_refutes_a_netlist_defect_at_its_pair() {
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx2, 4).unwrap();
        let (a, b, want) = (37, 201, rca.add(37, 201));
        let broken = flipped_at(&ripple_netlist(&rca), a | (b << 8));
        let msg = format!("at a={a} b={b}: {} vs {want}", want ^ 1);
        assert_eq!(
            rca8_agreement(&broken, "add_x64", 0),
            ProofStatus::Refuted(format!(
                "elaborated netlist disagrees with the scalar model {msg}"
            ))
        );
        assert_eq!(rca8_agreement(&ripple_netlist(&rca), "add_x64", 0), ProofStatus::Proven);
    }

    #[test]
    fn a_wrong_sliced_model_is_refuted_under_its_label() {
        // Lane 7 of every block is wrong: assignment 7 (a = 7, b = 0) is
        // the first disagreement.
        let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx2, 4).unwrap();
        let want = rca.add(7, 0);
        assert_eq!(
            rca8_agreement(&ripple_netlist(&rca), "my_add_x64", 1 << 7),
            ProofStatus::Refuted(format!(
                "my_add_x64 disagrees with the scalar model at a=7 b=0: {} vs {want}",
                want ^ 1
            ))
        );
    }

    #[test]
    fn sampled_agreement_refutes_a_netlist_defect_at_a_drawn_pair() {
        let gear = GeArAdder::new(12, 4, 4).unwrap();
        // Lane 5 of the first block: the sixth `a` and the sixth `b` draw.
        let mut rng = Xoshiro256StarStar::seed_from_u64(SAMPLE_SEED ^ 12);
        let draws: Vec<u64> = (0..128).map(|_| rng.next_u64() & 0xFFF).collect();
        let (a, b) = (draws[5], draws[64 + 5]);
        let broken = flipped_at(&gear_netlist(&gear), a | (b << 12));
        let mut sliced = |ap: &[u64], bp: &[u64]| gear.add_x64(ap, bp).value;
        let scalar = |x, y| gear.add(x, y).value;
        let status = agreement(&broken, scalar, Some(("add_x64", &mut sliced)));
        let want = gear.add(a, b).value;
        let msg = format!("at a={a} b={b}: {} vs {want}", want ^ 1);
        assert_eq!(
            status,
            ProofStatus::Refuted(format!(
                "elaborated netlist disagrees with the scalar model {msg}"
            ))
        );
    }

    #[test]
    fn proof_json_escapes_every_string() {
        let report = ProofReport {
            name: "odd \"name\" \\ here\n".to_string(),
            n_inputs: 3,
            method: "bdd",
            representations: vec!["a \"label\"\n".to_string()],
            status: ProofStatus::Refuted("bad\n\"input\" \\ 0b1\u{1}".to_string()),
            bdd_nodes: 2,
            memo_hit_rate: 0.0,
        };
        let json = proofs_to_json(&[report]);
        assert!(json.contains(r#""name": "odd \"name\" \\ here\n""#), "{json}");
        assert!(json.contains(r#""representations": ["a \"label\"\n"]"#), "{json}");
        assert!(json.contains(r#""status": "refuted: bad\n\"input\" \\ 0b1\u0001""#), "{json}");
        // No raw control character survives: every line is one record.
        assert_eq!(json.lines().count(), 3, "{json}");
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
