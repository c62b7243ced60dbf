//! The declarative unit-descriptor contract (ROADMAP item 3).
//!
//! Every cell the workspace has shipped so far carried six hand-wired
//! integrations: a truth-table model, a structural netlist, a hand-derived
//! bit-sliced evaluator, a symbolic BDD twin, a static error bound, and
//! an equivalence-registry entry. A [`UnitDescriptor`] collapses that to
//! the two artifacts that actually define a cell — **one truth table and
//! one netlist builder** — and *generates* the rest:
//!
//! * [`UnitDescriptor::eval`] is the scalar behavioural model, read from
//!   the table; 64-lane evaluation is the netlist's own (its word
//!   evaluator, or the `xlac-sim` compiled program) — no per-cell boolean
//!   algebra.
//! * the symbolic twin, the absint-derived `ErrorBound` and the
//!   equivalence-registry proof family are built by `xlac-analysis`
//!   straight from the descriptor (`symbolic::registry` and `absint`);
//! * lint coverage comes from the generic netlist rules plus rule XL014,
//!   which checks this contract itself: [`UnitDescriptor::violations`]
//!   reports every row where the netlist disagrees with the table.
//!
//! Two cells from the SNIPPETS exemplar libraries prove the port:
//! [`axa3`] (the XNOR-based approximate adder with an exact majority
//! carry) and [`sesa1`] (single-exact-carry, sum wired to `Cin`).

use xlac_core::XlacError;
use xlac_logic::{GateKind, Netlist, NetlistBuilder, Signal, TruthTable};

use crate::full_adder::FullAdderKind;
use crate::hw::ripple_netlist;
use crate::ripple::RippleCarryAdder;

/// A declaratively specified approximate unit: the truth-table spec, the
/// structural netlist built from it, and the exact reference it
/// approximates. Everything else a cell needs is derived.
#[derive(Debug, Clone)]
pub struct UnitDescriptor {
    name: String,
    table: TruthTable,
    reference: TruthTable,
    netlist: Netlist,
    reference_netlist: Netlist,
}

impl UnitDescriptor {
    /// Builds a descriptor from the two defining artifacts plus the
    /// exact-reference pair it is measured against.
    ///
    /// `spec` maps a packed input row (input `i` in bit `i`) to the
    /// packed output word. `build` receives a fresh builder with
    /// `n_inputs` declared inputs and must return the output signals
    /// LSB-first.
    ///
    /// # Errors
    ///
    /// Fails when the table shapes are inconsistent or the netlist
    /// builder produces an ill-formed netlist. A netlist that *disagrees*
    /// with the table is NOT an error here — that contract violation is
    /// surfaced by [`UnitDescriptor::violations`] and lint rule XL014, so
    /// the lint layer can report it instead of a constructor panic.
    pub fn new(
        name: &str,
        n_inputs: usize,
        n_outputs: usize,
        spec: impl Fn(u64) -> u64,
        build: impl FnOnce(&mut NetlistBuilder) -> Vec<Signal>,
        reference: TruthTable,
        reference_netlist: Netlist,
    ) -> Result<UnitDescriptor, XlacError> {
        let table = TruthTable::from_fn(n_inputs, n_outputs, spec);
        let mut b = NetlistBuilder::new(name, n_inputs);
        let outs = build(&mut b);
        for o in outs {
            b.output(o);
        }
        let netlist = b.finish()?;
        Ok(UnitDescriptor { name: name.to_string(), table, reference, netlist, reference_netlist })
    }

    /// A 1-bit full-adder cell descriptor: 3 inputs `(a, b, cin)` packed
    /// LSB-first, 2 outputs `(sum, cout)`, measured against the accurate
    /// full adder.
    ///
    /// # Errors
    ///
    /// Propagates [`UnitDescriptor::new`] failures.
    pub fn full_adder_cell(
        name: &str,
        spec: impl Fn(u64) -> u64,
        build: impl FnOnce(&mut NetlistBuilder) -> Vec<Signal>,
    ) -> Result<UnitDescriptor, XlacError> {
        UnitDescriptor::new(
            name,
            3,
            2,
            spec,
            build,
            accurate_cell_table(),
            FullAdderKind::Accurate.structural_netlist(),
        )
    }

    /// A *word-level* adder descriptor: `2 × width` inputs (operand `a`
    /// packed LSB-first in inputs `0..width`, operand `b` in
    /// `width..2·width`) and `width + 1` outputs (sum LSB-first, then the
    /// carry-out), measured against the accurate ripple-carry adder of
    /// the same width.
    ///
    /// `spec` receives the two unpacked `width`-bit operands and returns
    /// the approximate `width + 1`-bit sum. The input packing matches
    /// [`crate::hw::pack_operands`] and the reference netlist is
    /// [`crate::hw::ripple_netlist`], so word descriptors plug into the
    /// same registry/audit/absint machinery as the 1-bit cells.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidWidth`] when `2 × width` exceeds the
    /// truth-table limit ([`xlac_logic::truth_table::MAX_INPUTS`]), and
    /// propagates [`UnitDescriptor::new`] failures.
    pub fn word_adder(
        name: &str,
        width: usize,
        spec: impl Fn(u64, u64) -> u64,
        build: impl FnOnce(&mut NetlistBuilder) -> Vec<Signal>,
    ) -> Result<UnitDescriptor, XlacError> {
        let max = xlac_logic::truth_table::MAX_INPUTS / 2;
        if width == 0 || width > max {
            return Err(XlacError::InvalidWidth { width, max });
        }
        let mask = xlac_core::bits::mask(width);
        UnitDescriptor::new(
            name,
            2 * width,
            width + 1,
            |x| spec(x & mask, (x >> width) & mask),
            build,
            TruthTable::from_fn(2 * width, width + 1, |x| (x & mask) + ((x >> width) & mask)),
            ripple_netlist(&RippleCarryAdder::accurate(width)),
        )
    }

    /// The unit's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining truth table.
    #[must_use]
    pub fn table(&self) -> &TruthTable {
        &self.table
    }

    /// The exact reference truth table.
    #[must_use]
    pub fn reference(&self) -> &TruthTable {
        &self.reference
    }

    /// The structural netlist built from the descriptor's builder.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The exact reference's structural netlist.
    #[must_use]
    pub fn reference_netlist(&self) -> &Netlist {
        &self.reference_netlist
    }

    /// Scalar behavioural evaluation from the truth table (input `i` in
    /// bit `i` of `x`).
    #[must_use]
    pub fn eval(&self, x: u64) -> u64 {
        self.table.row(x)
    }

    /// Rows where the cell differs from its exact reference.
    #[must_use]
    pub fn error_cases(&self) -> usize {
        self.table.error_cases(&self.reference).unwrap_or(usize::MAX)
    }

    /// Worst-case output error magnitude against the reference.
    #[must_use]
    pub fn max_error_value(&self) -> u64 {
        self.max_err()
    }

    fn max_err(&self) -> u64 {
        self.table.max_error_value(&self.reference).unwrap_or(u64::MAX)
    }

    /// Contract violations, for lint rule XL014: shape mismatches with
    /// the reference, and every input row where the structural netlist
    /// disagrees with the defining truth table (for either the cell or
    /// its reference). An empty list means the descriptor honours the
    /// six-way contract's structural legs.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.table.n_inputs() != self.reference.n_inputs()
            || self.table.n_outputs() != self.reference.n_outputs()
        {
            out.push(format!(
                "reference shape {}x{} differs from cell shape {}x{}",
                self.reference.n_inputs(),
                self.reference.n_outputs(),
                self.table.n_inputs(),
                self.table.n_outputs()
            ));
        }
        if self.netlist.n_inputs() != self.table.n_inputs()
            || self.netlist.n_outputs() != self.table.n_outputs()
        {
            out.push(format!(
                "netlist shape {}x{} differs from table shape {}x{}",
                self.netlist.n_inputs(),
                self.netlist.n_outputs(),
                self.table.n_inputs(),
                self.table.n_outputs()
            ));
            return out;
        }
        row_violations(&self.netlist, &self.table, "", &mut out);
        if self.reference_netlist.n_inputs() == self.reference.n_inputs()
            && self.reference_netlist.n_outputs() == self.reference.n_outputs()
        {
            row_violations(&self.reference_netlist, &self.reference, "reference ", &mut out);
        } else {
            out.push("reference netlist shape differs from reference table shape".to_string());
        }
        out
    }
}

/// Appends one message per row where `netlist` disagrees with `table`,
/// in ascending input order (`what` prefixes "netlist" and "table"). The
/// netlist is evaluated 64 rows per word pass ([`TruthTable::from_planes`]);
/// the caller guarantees matching shapes.
fn row_violations(netlist: &Netlist, table: &TruthTable, what: &str, out: &mut Vec<String>) {
    let got =
        TruthTable::from_planes(table.n_inputs(), table.n_outputs(), |p| netlist.eval_words(p));
    for x in 0..table.n_rows() as u64 {
        let (got, want) = (got.row(x), table.row(x));
        if got != want {
            out.push(format!(
                "{what}netlist output {got:#b} differs from {what}table output {want:#b} \
                 at input {x:#b}"
            ));
        }
    }
}

fn accurate_cell_table() -> TruthTable {
    FullAdderKind::Accurate.truth_table()
}

/// AXA3 (Yang et al., XOR/XNOR-based approximate adders): the carry is
/// the exact majority, the sum is `Cin · (A XNOR B)` — 2 error cases,
/// both undershooting the sum by one.
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed (the
/// descriptor test suite and lint rule XL014 keep it that way).
#[must_use]
pub fn axa3() -> UnitDescriptor {
    UnitDescriptor::full_adder_cell(
        "AXA3",
        |x| {
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let sum = cin & !(a ^ b) & 1;
            let cout = (a & b) | (cin & (a ^ b));
            sum | (cout << 1)
        },
        |nb| {
            let (a, b, cin) = (Signal::Input(0), Signal::Input(1), Signal::Input(2));
            let xnor = nb.gate(GateKind::Xnor2, &[a, b]);
            let sum = nb.gate(GateKind::And2, &[cin, xnor]);
            let ab = nb.gate(GateKind::And2, &[a, b]);
            let axb = nb.gate(GateKind::Xor2, &[a, b]);
            let cx = nb.gate(GateKind::And2, &[cin, axb]);
            let cout = nb.gate(GateKind::Or2, &[ab, cx]);
            vec![sum, cout]
        },
    )
    .expect("AXA3 is well-formed")
}

/// SESA1 (single-exact, single-approximate adder family): the carry is
/// the exact majority, the sum is wired straight to `Cin` — zero sum
/// logic, 4 error cases of magnitude one.
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed.
#[must_use]
pub fn sesa1() -> UnitDescriptor {
    UnitDescriptor::full_adder_cell(
        "SESA1",
        |x| {
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            let cout = (a & b) | (cin & (a ^ b));
            cin | (cout << 1)
        },
        |nb| {
            let (a, b, cin) = (Signal::Input(0), Signal::Input(1), Signal::Input(2));
            let ab = nb.gate(GateKind::And2, &[a, b]);
            let axb = nb.gate(GateKind::Xor2, &[a, b]);
            let cx = nb.gate(GateKind::And2, &[cin, axb]);
            let cout = nb.gate(GateKind::Or2, &[ab, cx]);
            vec![cin, cout]
        },
    )
    .expect("SESA1 is well-formed")
}

/// Builds a standalone netlist from a descriptor-style builder closure
/// (used for reference netlists of units that are their own reference or
/// reference another descriptor-built function).
fn finish_builder(
    name: &str,
    n_inputs: usize,
    build: impl FnOnce(&mut NetlistBuilder) -> Vec<Signal>,
) -> Result<Netlist, XlacError> {
    let mut b = NetlistBuilder::new(name, n_inputs);
    let outs = build(&mut b);
    for o in outs {
        b.output(o);
    }
    b.finish()
}

/// A descriptor for an *exact* unit: the reference is the unit itself
/// (`build` runs twice — once for the cell netlist, once for the
/// reference netlist), so `error_cases() == 0` and the derived absint
/// bound is zero. Exact units still earn their keep in the registry:
/// the equivalence proof pins table ≡ netlist ≡ HDL.
fn exact_unit(
    name: &str,
    n_inputs: usize,
    n_outputs: usize,
    spec: impl Fn(u64) -> u64,
    build: impl Fn(&mut NetlistBuilder) -> Vec<Signal>,
) -> Result<UnitDescriptor, XlacError> {
    let reference_netlist = finish_builder(name, n_inputs, &build)?;
    UnitDescriptor::new(
        name,
        n_inputs,
        n_outputs,
        &spec,
        &build,
        TruthTable::from_fn(n_inputs, n_outputs, &spec),
        reference_netlist,
    )
}

/// Inlines a chain of accurate full-adder cells: one ripple stage per
/// operand bit pair, returning the sum signals and the final carry.
fn ripple_into(
    nb: &mut NetlistBuilder,
    a: &[Signal],
    b: &[Signal],
    mut carry: Signal,
) -> (Vec<Signal>, Signal) {
    let fa = FullAdderKind::Accurate.structural_netlist();
    let mut sums = Vec::with_capacity(a.len());
    for (x, y) in a.iter().zip(b) {
        let outs = nb.inline(&fa, &[*x, *y, carry]);
        sums.push(outs[0]);
        carry = outs[1];
    }
    (sums, carry)
}

/// TCAA (transmission-gate carry-approximate adder cell): the sum is the
/// exact three-input parity, the carry-out is wired straight to `A` —
/// the carry chain becomes a wire. `Cout = A` matches the exact majority
/// on 6 of 8 rows; the two misses, `(A,B,Cin) = (0,1,1)` and `(1,0,0)`,
/// flip the carry for a packed error of 2.
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed.
#[must_use]
pub fn tcaa() -> UnitDescriptor {
    UnitDescriptor::full_adder_cell(
        "TCAA",
        |x| {
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            (a ^ b ^ cin) | (a << 1)
        },
        |nb| {
            let (a, b, cin) = (Signal::Input(0), Signal::Input(1), Signal::Input(2));
            let axb = nb.gate(GateKind::Xor2, &[a, b]);
            let sum = nb.gate(GateKind::Xor2, &[axb, cin]);
            vec![sum, a]
        },
    )
    .expect("TCAA is well-formed")
}

/// LOA (lower-part OR adder, Mahdiani et al.) at 8 bits with a 3-bit
/// lower part: the low 3 sum bits are `a_i | b_i`, the carry into the
/// exact upper ripple chain is speculated as `a_2 & b_2`.
///
/// # Panics
///
/// Never: the unit's table and builder are statically well-formed.
#[must_use]
pub fn loa8_l3() -> UnitDescriptor {
    UnitDescriptor::word_adder(
        "LOA8_L3",
        8,
        |a, b| {
            let low = (a | b) & 0b111;
            let c = (a >> 2) & (b >> 2) & 1;
            (((a >> 3) + (b >> 3) + c) << 3) | low
        },
        |nb| {
            let mut outs = Vec::new();
            for i in 0..3 {
                outs.push(nb.gate(GateKind::Or2, &[Signal::Input(i), Signal::Input(8 + i)]));
            }
            let spec_carry = nb.gate(GateKind::And2, &[Signal::Input(2), Signal::Input(10)]);
            let a: Vec<Signal> = (3..8).map(Signal::Input).collect();
            let b: Vec<Signal> = (11..16).map(Signal::Input).collect();
            let (sums, carry) = ripple_into(nb, &a, &b, spec_carry);
            outs.extend(sums);
            outs.push(carry);
            outs
        },
    )
    .expect("LOA8_L3 is well-formed")
}

/// OFLOCA (optimised lower-part constant-OR adder, Dalloo) at 8 bits
/// with a 4-bit lower part whose bottom 2 bits are constant one: bits
/// 0–1 are tied high, bits 2–3 are `a_i | b_i`, and the exact upper
/// ripple chain starts from a zero carry (no speculation).
///
/// # Panics
///
/// Never: the unit's table and builder are statically well-formed.
#[must_use]
pub fn ofloca8() -> UnitDescriptor {
    UnitDescriptor::word_adder(
        "OFLOCA8",
        8,
        |a, b| 0b11 | ((a | b) & 0b1100) | (((a >> 4) + (b >> 4)) << 4),
        |nb| {
            let one = nb.constant(true);
            let mut outs = vec![one, one];
            for i in 2..4 {
                outs.push(nb.gate(GateKind::Or2, &[Signal::Input(i), Signal::Input(8 + i)]));
            }
            let zero = nb.constant(false);
            let a: Vec<Signal> = (4..8).map(Signal::Input).collect();
            let b: Vec<Signal> = (12..16).map(Signal::Input).collect();
            let (sums, carry) = ripple_into(nb, &a, &b, zero);
            outs.extend(sums);
            outs.push(carry);
            outs
        },
    )
    .expect("OFLOCA8 is well-formed")
}

/// CLA8: an exact 8-bit carry-lookahead adder with two 4-bit groups.
/// Within each group every carry is a two-level AND-OR expansion of the
/// generate/propagate terms, so the descriptor proof (table ≡ netlist ≡
/// HDL ≡ accurate ripple reference) certifies the lookahead
/// algebra gate by gate.
///
/// # Panics
///
/// Never: the unit's table and builder are statically well-formed.
#[must_use]
pub fn cla8() -> UnitDescriptor {
    UnitDescriptor::word_adder(
        "CLA8",
        8,
        |a, b| a + b,
        |nb| {
            let (mut g, mut p) = (Vec::new(), Vec::new());
            for i in 0..8 {
                g.push(nb.gate(GateKind::And2, &[Signal::Input(i), Signal::Input(8 + i)]));
                p.push(nb.gate(GateKind::Xor2, &[Signal::Input(i), Signal::Input(8 + i)]));
            }
            let mut carries = vec![nb.constant(false)];
            for group in 0..2 {
                let base = group * 4;
                for i in base..base + 4 {
                    // c_{i+1} = Σ_j g_j · Π_{k>j} p_k  |  cg · Π p_k
                    let mut terms = Vec::new();
                    for j in base..=i {
                        let mut ops = vec![g[j]];
                        ops.extend_from_slice(&p[j + 1..=i]);
                        terms.push(nb.tree(GateKind::And2, &ops));
                    }
                    let mut ops = vec![carries[base]];
                    ops.extend_from_slice(&p[base..=i]);
                    terms.push(nb.tree(GateKind::And2, &ops));
                    let c = nb.tree(GateKind::Or2, &terms);
                    carries.push(c);
                }
            }
            let mut outs = Vec::new();
            for i in 0..8 {
                outs.push(nb.gate(GateKind::Xor2, &[p[i], carries[i]]));
            }
            outs.push(carries[8]);
            outs
        },
    )
    .expect("CLA8 is well-formed")
}

/// CSA8: an exact 8-bit carry-select adder — a lower 4-bit ripple chain,
/// two speculative upper chains (carry-in 0 and 1) and a mux row steered
/// by the lower carry.
///
/// # Panics
///
/// Never: the unit's table and builder are statically well-formed.
#[must_use]
pub fn csa8() -> UnitDescriptor {
    UnitDescriptor::word_adder(
        "CSA8",
        8,
        |a, b| a + b,
        |nb| {
            let zero = nb.constant(false);
            let one = nb.constant(true);
            let lo_a: Vec<Signal> = (0..4).map(Signal::Input).collect();
            let lo_b: Vec<Signal> = (8..12).map(Signal::Input).collect();
            let (mut outs, sel) = ripple_into(nb, &lo_a, &lo_b, zero);
            let hi_a: Vec<Signal> = (4..8).map(Signal::Input).collect();
            let hi_b: Vec<Signal> = (12..16).map(Signal::Input).collect();
            let (s0, c0) = ripple_into(nb, &hi_a, &hi_b, zero);
            let (s1, c1) = ripple_into(nb, &hi_a, &hi_b, one);
            for (d0, d1) in s0.iter().zip(&s1) {
                outs.push(nb.gate(GateKind::Mux2, &[*d0, *d1, sel]));
            }
            outs.push(nb.gate(GateKind::Mux2, &[c0, c1, sel]));
            outs
        },
    )
    .expect("CSA8 is well-formed")
}

/// SKL8: an exact 8-bit Sklansky parallel-prefix adder — generate/
/// propagate pairs combined over a minimum-depth (log₂ N) prefix tree
/// with unbounded fan-out, the textbook high-performance end of the
/// adder design space.
///
/// # Panics
///
/// Never: the unit's table and builder are statically well-formed.
#[must_use]
pub fn skl8() -> UnitDescriptor {
    UnitDescriptor::word_adder(
        "SKL8",
        8,
        |a, b| a + b,
        |nb| {
            let (mut g0, mut p0) = (Vec::new(), Vec::new());
            for i in 0..8 {
                g0.push(nb.gate(GateKind::And2, &[Signal::Input(i), Signal::Input(8 + i)]));
                p0.push(nb.gate(GateKind::Xor2, &[Signal::Input(i), Signal::Input(8 + i)]));
            }
            // Sklansky prefix: at level d, node i (bit d set) absorbs the
            // finished prefix ending at j = (i >> d << d) - 1. Nodes with
            // bit d clear are untouched at level d, so in-place is sound.
            let (mut g, mut p) = (g0.clone(), p0.clone());
            for d in 0..3 {
                for i in 0..8 {
                    if (i >> d) & 1 == 1 {
                        let j = (i >> d << d) - 1;
                        let t = nb.gate(GateKind::And2, &[p[i], g[j]]);
                        let ng = nb.gate(GateKind::Or2, &[g[i], t]);
                        let np = nb.gate(GateKind::And2, &[p[i], p[j]]);
                        g[i] = ng;
                        p[i] = np;
                    }
                }
            }
            let mut outs = vec![p0[0]];
            for i in 1..8 {
                outs.push(nb.gate(GateKind::Xor2, &[p0[i], g[i - 1]]));
            }
            outs.push(g[7]);
            outs
        },
    )
    .expect("SKL8 is well-formed")
}

/// Radix-2 Booth recoder (exact): inputs `(b_i, b_{i-1})` LSB-first,
/// outputs `(add, sub)` — add the multiplicand on a `0→1` boundary,
/// subtract on `1→0`. Its own reference: the registry proof certifies
/// the recoding logic, and multiplier stages compose it.
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed.
#[must_use]
pub fn booth_r2() -> UnitDescriptor {
    exact_unit(
        "BOOTH_R2",
        2,
        2,
        |x| {
            let (bi, bm) = (x & 1, (x >> 1) & 1);
            ((1 ^ bi) & bm) | ((bi & (1 ^ bm)) << 1)
        },
        |nb| {
            let (bi, bm) = (Signal::Input(0), Signal::Input(1));
            let nbi = nb.gate(GateKind::Not, &[bi]);
            let nbm = nb.gate(GateKind::Not, &[bm]);
            let add = nb.gate(GateKind::And2, &[nbi, bm]);
            let sub = nb.gate(GateKind::And2, &[bi, nbm]);
            vec![add, sub]
        },
    )
    .expect("BOOTH_R2 is well-formed")
}

/// Radix-4 (modified) Booth recoder (exact): inputs
/// `(b_{2i-1}, b_{2i}, b_{2i+1})` LSB-first, outputs `(one, two, neg)`
/// selecting `±1×`/`±2×` partial products.
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed.
#[must_use]
pub fn booth_r4() -> UnitDescriptor {
    exact_unit("BOOTH_R4", 3, 3, booth_r4_spec, |nb| {
        let (x0, x1, x2) = (Signal::Input(0), Signal::Input(1), Signal::Input(2));
        let one = nb.gate(GateKind::Xor2, &[x0, x1]);
        let lo_zero = nb.gate(GateKind::Nor2, &[x0, x1]);
        let plus2 = nb.gate(GateKind::And2, &[x2, lo_zero]);
        let lo_ones = nb.gate(GateKind::And2, &[x0, x1]);
        let nx2 = nb.gate(GateKind::Not, &[x2]);
        let minus2 = nb.gate(GateKind::And2, &[nx2, lo_ones]);
        let two = nb.gate(GateKind::Or2, &[plus2, minus2]);
        vec![one, two, x2]
    })
    .expect("BOOTH_R4 is well-formed")
}

fn booth_r4_spec(x: u64) -> u64 {
    let (x0, x1, x2) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
    let one = x0 ^ x1;
    let two = u64::from(x == 0b100 || x == 0b011);
    one | (two << 1) | (x2 << 2)
}

/// Approximate radix-4 Booth recoder: the two `±2×` rows are demoted to
/// `±1×` (`one = 1, two = 0`), removing the `2×` shift path from every
/// partial-product row at the cost of 2 recoding errors of packed
/// magnitude 1 — the "approximate Booth encoding" knob of the
/// comparative multiplier studies.
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed.
#[must_use]
pub fn booth_r4_apx() -> UnitDescriptor {
    let exact = booth_r4();
    UnitDescriptor::new(
        "BOOTH_R4_APX",
        3,
        3,
        |x| {
            let e = booth_r4_spec(x);
            // Fold the two-bit into the one-bit: ±2 rows become ±1.
            (e & 0b100) | (e & 1) | ((e >> 1) & 1)
        },
        |nb| {
            let (x0, x1, x2) = (Signal::Input(0), Signal::Input(1), Signal::Input(2));
            let parity = nb.gate(GateKind::Xor2, &[x0, x1]);
            let lo_zero = nb.gate(GateKind::Nor2, &[x0, x1]);
            let plus2 = nb.gate(GateKind::And2, &[x2, lo_zero]);
            let lo_ones = nb.gate(GateKind::And2, &[x0, x1]);
            let nx2 = nb.gate(GateKind::Not, &[x2]);
            let minus2 = nb.gate(GateKind::And2, &[nx2, lo_ones]);
            let two = nb.gate(GateKind::Or2, &[plus2, minus2]);
            let one = nb.gate(GateKind::Or2, &[parity, two]);
            let zero = nb.constant(false);
            vec![one, zero, x2]
        },
        exact.table().clone(),
        exact.netlist().clone(),
    )
    .expect("BOOTH_R4_APX is well-formed")
}

/// The exact 4-input popcount reference shared by the compressor knobs:
/// outputs `(parity, count ≥ 2, count = 4)` — the canonical compressor
/// encoding where `sum`, `carry` and `cout` weigh 1, 2 and 2.
fn popcount4_reference() -> (TruthTable, Netlist) {
    let spec = |x: u64| {
        let c = u64::from((x & 0xF).count_ones());
        (c & 1) | (u64::from(c >= 2) << 1) | (u64::from(c == 4) << 2)
    };
    let table = TruthTable::from_fn(4, 3, spec);
    let netlist = finish_builder("CMP42_REF", 4, |nb| {
        let ins: Vec<Signal> = (0..4).map(Signal::Input).collect();
        let parity = nb.tree(GateKind::Xor2, &ins);
        let mut pairs = Vec::new();
        for i in 0..4 {
            for j in i + 1..4 {
                pairs.push(nb.gate(GateKind::And2, &[ins[i], ins[j]]));
            }
        }
        let ge2 = nb.tree(GateKind::Or2, &pairs);
        let eq4 = nb.tree(GateKind::And2, &ins);
        vec![parity, ge2, eq4]
    })
    .expect("popcount reference is well-formed");
    (table, netlist)
}

/// Exact 4:2 compressor cell: 5 inputs `(x1..x4, cin)` LSB-first, 3
/// outputs `(sum, carry, cout)` with `x1+x2+x3+x4+cin = sum + 2·(carry +
/// cout)` and `cout` independent of `cin` (the property that lets rows
/// of these cells compress columns without a ripple).
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed.
#[must_use]
pub fn cmp42() -> UnitDescriptor {
    exact_unit(
        "CMP42",
        5,
        3,
        |x| {
            let (x1, x2, x3, x4, cin) =
                (x & 1, (x >> 1) & 1, (x >> 2) & 1, (x >> 3) & 1, (x >> 4) & 1);
            let t = x1 ^ x2 ^ x3 ^ x4;
            let sum = t ^ cin;
            let cout = (x1 & x2) | ((x1 ^ x2) & x3);
            let carry = (t & cin) | ((1 ^ t) & x4);
            sum | (carry << 1) | (cout << 2)
        },
        |nb| {
            let ins: Vec<Signal> = (0..5).map(Signal::Input).collect();
            let t = nb.tree(GateKind::Xor2, &ins[..4]);
            let sum = nb.gate(GateKind::Xor2, &[t, ins[4]]);
            let ab = nb.gate(GateKind::And2, &[ins[0], ins[1]]);
            let axb = nb.gate(GateKind::Xor2, &[ins[0], ins[1]]);
            let cx = nb.gate(GateKind::And2, &[axb, ins[2]]);
            let cout = nb.gate(GateKind::Or2, &[ab, cx]);
            let tc = nb.gate(GateKind::And2, &[t, ins[4]]);
            let nt = nb.gate(GateKind::Not, &[t]);
            let ntx = nb.gate(GateKind::And2, &[nt, ins[3]]);
            let carry = nb.gate(GateKind::Or2, &[tc, ntx]);
            vec![sum, carry, cout]
        },
    )
    .expect("CMP42 is well-formed")
}

/// Miscounting 4:2 compressor knob (no carry-in path): `sum` and `carry`
/// come from two independent half-adder-style pairings and `cout` is
/// dropped, so double-pair rows under-count. 5 of 16 rows err against
/// the exact popcount encoding; the worst row (all four ones) reports
/// 2 instead of 4.
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed.
#[must_use]
pub fn cmp42_miscount() -> UnitDescriptor {
    let (reference, reference_netlist) = popcount4_reference();
    UnitDescriptor::new(
        "CMP42_MS",
        4,
        3,
        |x| {
            let (x1, x2, x3, x4) = (x & 1, (x >> 1) & 1, (x >> 2) & 1, (x >> 3) & 1);
            ((x1 ^ x2) | (x3 ^ x4)) | (((x1 & x2) | (x3 & x4)) << 1)
        },
        |nb| {
            let ins: Vec<Signal> = (0..4).map(Signal::Input).collect();
            let s01 = nb.gate(GateKind::Xor2, &[ins[0], ins[1]]);
            let s23 = nb.gate(GateKind::Xor2, &[ins[2], ins[3]]);
            let sum = nb.gate(GateKind::Or2, &[s01, s23]);
            let c01 = nb.gate(GateKind::And2, &[ins[0], ins[1]]);
            let c23 = nb.gate(GateKind::And2, &[ins[2], ins[3]]);
            let carry = nb.gate(GateKind::Or2, &[c01, c23]);
            let zero = nb.constant(false);
            vec![sum, carry, zero]
        },
        reference,
        reference_netlist,
    )
    .expect("CMP42_MS is well-formed")
}

/// OR-compression 4:2 knob: the whole column collapses to a single OR
/// (`sum = x1|x2|x3|x4`, no carries) — the cheapest and sloppiest
/// compressor in the comparative studies. 11 of 16 rows err; the worst
/// row (all four ones) reports 1 instead of 4.
///
/// # Panics
///
/// Never: the cell's table and builder are statically well-formed.
#[must_use]
pub fn cmp42_or() -> UnitDescriptor {
    let (reference, reference_netlist) = popcount4_reference();
    UnitDescriptor::new(
        "CMP42_OR",
        4,
        3,
        |x| u64::from(x & 0xF != 0),
        |nb| {
            let ins: Vec<Signal> = (0..4).map(Signal::Input).collect();
            let sum = nb.tree(GateKind::Or2, &ins);
            let zero = nb.constant(false);
            vec![sum, zero, zero]
        },
        reference,
        reference_netlist,
    )
    .expect("CMP42_OR is well-formed")
}

/// All descriptor-built cells shipped by the library, for registries,
/// audits and lint sweeps: the PR 9 seed cells plus the TCAA, LOA/OFLOCA,
/// parallel-prefix, Booth-recoding and compressor-knob families of
/// ROADMAP item 3.
#[must_use]
pub fn approx_cell_descriptors() -> Vec<UnitDescriptor> {
    vec![
        axa3(),
        sesa1(),
        tcaa(),
        loa8_l3(),
        ofloca8(),
        cla8(),
        csa8(),
        skl8(),
        booth_r2(),
        booth_r4(),
        booth_r4_apx(),
        cmp42(),
        cmp42_miscount(),
        cmp42_or(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-row-at-a-time contract loop the block pass replaced, kept
    /// as the oracle it must reproduce message for message.
    fn violations_scalar(d: &UnitDescriptor) -> Vec<String> {
        let legs = [("", &d.netlist, &d.table), ("reference ", &d.reference_netlist, &d.reference)];
        let mut out = Vec::new();
        for (what, netlist, table) in legs {
            for x in 0..(1u64 << table.n_inputs()) {
                let (want, got) = (table.row(x), netlist.eval(x));
                if want != got {
                    out.push(format!(
                        "{what}netlist output {got:#b} differs from {what}table output \
                         {want:#b} at input {x:#b}"
                    ));
                }
            }
        }
        out
    }

    #[test]
    fn block_violations_match_the_scalar_loop_on_a_16_input_unit() {
        // An 8-bit ripple adder whose declared table and reference table
        // both carry seeded defects, in several blocks and lanes.
        let defects = [0u64, 63, 64, 1000, 0x8001, 0xFFFF];
        let exact = ripple_netlist(&RippleCarryAdder::accurate(8));
        let sum = |x: u64| (x & 0xFF) + (x >> 8);
        let d = UnitDescriptor::new(
            "Seeded16",
            16,
            9,
            |x| if defects.contains(&x) { sum(x) ^ 0b101 } else { sum(x) },
            |nb| {
                let ins: Vec<Signal> = (0..16).map(Signal::Input).collect();
                nb.inline(&exact, &ins)
            },
            TruthTable::from_fn(16, 9, |x| if x % 4099 == 7 { sum(x) ^ 0x100 } else { sum(x) }),
            exact.clone(),
        )
        .unwrap();
        let got = d.violations();
        assert_eq!(got, violations_scalar(&d));
        assert_eq!(got.len(), defects.len() + (0..1u64 << 16).filter(|x| x % 4099 == 7).count());
        assert!(got[0].ends_with("at input 0b0"), "{}", got[0]);
        for d in approx_cell_descriptors() {
            assert_eq!(d.violations(), violations_scalar(&d), "{}", d.name());
        }
    }

    #[test]
    fn descriptor_cells_honour_the_contract() {
        for d in approx_cell_descriptors() {
            assert!(d.violations().is_empty(), "{}: {:?}", d.name(), d.violations());
        }
    }

    #[test]
    fn axa3_matches_its_published_error_profile() {
        let d = axa3();
        assert_eq!(d.error_cases(), 2);
        assert_eq!(d.max_error_value(), 1);
        // Errors are exactly the two single-operand rows with cin = 0.
        for x in 0..8 {
            let err = d.eval(x) != d.reference().row(x);
            let (a, b, cin) = (x & 1, (x >> 1) & 1, (x >> 2) & 1);
            assert_eq!(err, cin == 0 && a ^ b == 1, "row {x}");
        }
    }

    #[test]
    fn sesa1_has_an_exact_carry_and_four_sum_errors() {
        let d = sesa1();
        assert_eq!(d.error_cases(), 4);
        assert_eq!(d.max_error_value(), 1);
        for x in 0..8 {
            // Carry (bit 1) always agrees with the accurate cell.
            assert_eq!(d.eval(x) >> 1, d.reference().row(x) >> 1, "row {x}");
        }
    }

    #[test]
    fn netlist_words_match_the_table_on_every_lane() {
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(0xDE5C);
        for d in approx_cell_descriptors() {
            let n_in = d.table().n_inputs();
            let n_out = d.table().n_outputs();
            let planes: Vec<u64> = (0..n_in).map(|_| rng.next_u64()).collect();
            let outs = d.netlist().eval_words(&planes);
            for lane in 0..64 {
                let mut x = 0u64;
                for (i, p) in planes.iter().enumerate() {
                    x |= ((p >> lane) & 1) << i;
                }
                let want = d.eval(x);
                let mut got = 0u64;
                for (o, plane) in outs.iter().enumerate().take(n_out) {
                    got |= ((plane >> lane) & 1) << o;
                }
                assert_eq!(got, want, "{} lane {lane}", d.name());
            }
        }
    }

    #[test]
    fn library_units_match_their_derived_error_profiles() {
        // Golden error profiles: (name, error rows, max packed error),
        // exhaustively derived from the defining tables and pinned here
        // so a silent table edit cannot slip through.
        let golden: &[(&str, usize, u64)] = &[
            ("AXA3", 2, 1),
            ("SESA1", 4, 1),
            ("TCAA", 2, 2),
            ("LOA8_L3", 37_888, 4),
            ("OFLOCA8", 56_320, 15),
            ("CLA8", 0, 0),
            ("CSA8", 0, 0),
            ("SKL8", 0, 0),
            ("BOOTH_R2", 0, 0),
            ("BOOTH_R4", 0, 0),
            ("BOOTH_R4_APX", 2, 1),
            ("CMP42", 0, 0),
            ("CMP42_MS", 5, 4),
            ("CMP42_OR", 11, 5),
        ];
        let lib = approx_cell_descriptors();
        assert_eq!(lib.len(), golden.len(), "library roster drifted");
        for (d, (name, cases, max_err)) in lib.iter().zip(golden) {
            assert_eq!(d.name(), *name, "library order drifted");
            assert_eq!(d.error_cases(), *cases, "{name} error-case count");
            assert_eq!(d.max_error_value(), *max_err, "{name} max packed error");
        }
    }

    #[test]
    fn word_adders_agree_with_their_scalar_specs_at_both_widths() {
        // 4-bit shadow builds of the word-level families, exhaustively
        // checked against the published scalar behaviour — the 8-bit
        // shipped units are pinned by the XL014 sweep over 2^16 rows.
        let loa4 = UnitDescriptor::word_adder(
            "LOA4_L2",
            4,
            |a, b| {
                let low = (a | b) & 0b11;
                let c = (a >> 1) & (b >> 1) & 1;
                (((a >> 2) + (b >> 2) + c) << 2) | low
            },
            |nb| {
                let mut outs = Vec::new();
                for i in 0..2 {
                    outs.push(nb.gate(GateKind::Or2, &[Signal::Input(i), Signal::Input(4 + i)]));
                }
                let c = nb.gate(GateKind::And2, &[Signal::Input(1), Signal::Input(5)]);
                let a: Vec<Signal> = (2..4).map(Signal::Input).collect();
                let b: Vec<Signal> = (6..8).map(Signal::Input).collect();
                let (sums, carry) = ripple_into(nb, &a, &b, c);
                outs.extend(sums);
                outs.push(carry);
                outs
            },
        )
        .unwrap();
        assert!(loa4.violations().is_empty());
        for x in 0..256u64 {
            let (a, b) = (x & 0xF, x >> 4);
            let low = (a | b) & 0b11;
            let want = (((a >> 2) + (b >> 2) + ((a >> 1) & (b >> 1) & 1)) << 2) | low;
            assert_eq!(loa4.eval(x), want, "a={a} b={b}");
        }

        // The exact word adders really add, at 8 bits, on every row.
        for d in [cla8(), csa8(), skl8()] {
            for x in (0..1u64 << 16).step_by(97) {
                let (a, b) = (x & 0xFF, x >> 8);
                assert_eq!(d.eval(x), a + b, "{} a={a} b={b}", d.name());
            }
            assert_eq!(d.error_cases(), 0, "{}", d.name());
        }
    }

    #[test]
    fn word_adder_rejects_overwide_units() {
        let err = UnitDescriptor::word_adder("W9", 9, |a, b| a + b, |_| Vec::new());
        assert!(matches!(err, Err(XlacError::InvalidWidth { width: 9, max: 8 })));
        let err = UnitDescriptor::word_adder("W0", 0, |a, b| a + b, |_| Vec::new());
        assert!(matches!(err, Err(XlacError::InvalidWidth { width: 0, .. })));
    }

    #[test]
    fn booth_recoders_cover_the_recoding_tables() {
        let r2 = booth_r2();
        // (b_i, b_{i-1}) -> (add, sub)
        assert_eq!(r2.eval(0b00), 0b00);
        assert_eq!(r2.eval(0b10), 0b01); // 0 -> 1 boundary: add
        assert_eq!(r2.eval(0b01), 0b10); // 1 -> 0 boundary: sub
        assert_eq!(r2.eval(0b11), 0b00);

        let r4 = booth_r4();
        // (one, two, neg) per (b_{2i+1}, b_{2i}, b_{2i-1}) row.
        let table = [
            (0b000, (0, 0, 0)), // +0
            (0b001, (1, 0, 0)), // +1
            (0b010, (1, 0, 0)), // +1
            (0b011, (0, 1, 0)), // +2
            (0b100, (0, 1, 1)), // -2
            (0b101, (1, 0, 1)), // -1
            (0b110, (1, 0, 1)), // -1
            (0b111, (0, 0, 1)), // -0
        ];
        for (x, (one, two, neg)) in table {
            assert_eq!(r4.eval(x), one | (two << 1) | (neg << 2), "row {x:#05b}");
        }

        // The approximate recoder only touches the ±2 rows.
        let apx = booth_r4_apx();
        for x in 0..8 {
            if x == 0b011 || x == 0b100 {
                assert_eq!(apx.eval(x) & 0b11, 0b01, "±2 row {x:#05b} demoted to ±1");
            } else {
                assert_eq!(apx.eval(x), r4.eval(x), "row {x:#05b} untouched");
            }
        }
    }

    #[test]
    fn exact_compressor_satisfies_the_counting_identity() {
        let d = cmp42();
        for x in 0..32u64 {
            let out = d.eval(x);
            let (sum, carry, cout) = (out & 1, (out >> 1) & 1, (out >> 2) & 1);
            assert_eq!(u64::from(x.count_ones()), sum + 2 * (carry + cout), "row {x:#07b}");
        }
        // cout never depends on cin: the no-ripple property.
        for x in 0..16u64 {
            assert_eq!(d.eval(x) >> 2, d.eval(x | 0b10000) >> 2, "row {x:#06b}");
        }
    }

    #[test]
    fn a_broken_descriptor_reports_its_violations() {
        // Claim the accurate table but build the SESA1 sum wiring: the
        // contract check must name the mismatching rows.
        let broken = UnitDescriptor::full_adder_cell(
            "Broken",
            |x| FullAdderKind::Accurate.truth_table().row(x),
            |nb| {
                let (a, b, cin) = (Signal::Input(0), Signal::Input(1), Signal::Input(2));
                let ab = nb.gate(GateKind::And2, &[a, b]);
                let axb = nb.gate(GateKind::Xor2, &[a, b]);
                let cx = nb.gate(GateKind::And2, &[cin, axb]);
                let cout = nb.gate(GateKind::Or2, &[ab, cx]);
                vec![cin, cout]
            },
        )
        .expect("shape is fine, function is not");
        assert_eq!(broken.violations().len(), 4);
    }
}
