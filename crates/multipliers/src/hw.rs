//! Structural gate-level elaboration of the composite multipliers.
//!
//! [`wallace_netlist`] mirrors the crate's behavioural reduction walk
//! cell-for-cell: the same partial-product order, the same carry-save
//! pop/push schedule (which is input-independent — see
//! [`WallaceMultiplier::cell_placements`]), the same sparse half-adder
//! rule and the same final ripple carry-propagate stage with the
//! carry-out dropped. Each reduction slot inlines the cell kind's
//! [`FullAdderKind::structural_netlist`], so the elaborated design is the
//! *hardware* the cost model prices — and the reference the
//! compiled-simulation path is differentially verified against.
//! [`recursive_netlist`] and [`truncated_netlist`] elaborate the other two
//! composite designs the same way, so every composite multiplier has one
//! gate netlist that simulation and symbolic analysis share.
//!
//! Port convention matches `xlac_adders::hw`: operand `a` in inputs
//! `0..N`, operand `b` in inputs `N..2N`, product LSB-first in the `2N`
//! outputs.
//!
//! # Example
//!
//! ```
//! use xlac_multipliers::hw::wallace_netlist;
//! use xlac_multipliers::{Multiplier, WallaceMultiplier};
//! use xlac_adders::FullAdderKind;
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let m = WallaceMultiplier::new(4, FullAdderKind::Apx2, 3)?;
//! let nl = wallace_netlist(&m);
//! let (a, b) = (11u64, 6u64);
//! assert_eq!(nl.eval(a | (b << 4)), m.mul(a, b));
//! # Ok(())
//! # }
//! ```

use crate::multi_bit::RecursiveMultiplier;
use crate::truncated::TruncatedMultiplier;
use crate::wallace::WallaceMultiplier;
use crate::Multiplier;
use xlac_adders::hw::ripple_netlist;
use xlac_adders::FullAdderKind;
use xlac_logic::{GateKind, Netlist, NetlistBuilder, Signal};

/// Elaborates a Wallace multiplier into a flat gate netlist (`2N` inputs,
/// `2N` outputs, product truncated to `2N` bits like the behavioural
/// model).
#[must_use]
pub fn wallace_netlist(m: &WallaceMultiplier) -> Netlist {
    let w = m.width();
    let cols = 2 * w;
    let mut b = NetlistBuilder::new(m.name(), 2 * w);
    let zero = b.constant(false);

    // Cell netlists are tiny; cache the two kinds in play.
    let approx_cell = m.cell_kind().structural_netlist();
    let exact_cell = FullAdderKind::Accurate.structural_netlist();
    let cell_for = |c: usize| -> &Netlist {
        if c < m.approx_columns() {
            &approx_cell
        } else {
            &exact_cell
        }
    };

    // Partial products, in the behavioural walk's column order.
    let mut columns: Vec<Vec<Signal>> = vec![Vec::new(); cols + 1];
    for i in 0..w {
        for j in 0..w {
            let pp = b.gate(GateKind::And2, &[Signal::Input(i), Signal::Input(w + j)]);
            columns[i + j].push(pp);
        }
    }

    // Carry-save reduction: the identical pop/push schedule as
    // `WallaceMultiplier::reduce`, with each (x, y, z) triple feeding an
    // inlined cell netlist (ports [a, b, cin] -> [sum, cout]).
    loop {
        let mut reduced = false;
        for c in 0..cols {
            while columns[c].len() > 2 {
                reduced = true;
                let x = columns[c].pop().expect("len >= 3");
                let y = columns[c].pop().expect("len >= 2");
                let z = columns[c].pop().expect("len >= 1");
                let outs = b.inline(cell_for(c), &[x, y, z]);
                columns[c].push(outs[0]);
                columns[c + 1].push(outs[1]);
            }
            if columns[c].len() == 2 && columns[c + 1].len() > 2 {
                reduced = true;
                let x = columns[c].pop().expect("len 2");
                let y = columns[c].pop().expect("len 1");
                let outs = b.inline(cell_for(c), &[x, y, zero]);
                columns[c].push(outs[0]);
                columns[c + 1].push(outs[1]);
            }
        }
        if !reduced {
            break;
        }
    }

    // Final carry-propagate addition of the two remaining rows — the
    // gate-for-gate mirror of the bit-sliced CPA tail (carry-out beyond
    // column 2w-1 dropped, matching the behavioural truncate).
    let mut carry = zero;
    let mut product = Vec::with_capacity(cols);
    for col in columns.iter().take(cols) {
        let r0 = col.first().copied().unwrap_or(zero);
        let r1 = col.get(1).copied().unwrap_or(zero);
        let axb = b.gate(GateKind::Xor2, &[r0, r1]);
        product.push(b.gate(GateKind::Xor2, &[axb, carry]));
        let g = b.gate(GateKind::And2, &[r0, r1]);
        let p = b.gate(GateKind::And2, &[axb, carry]);
        carry = b.gate(GateKind::Or2, &[g, p]);
    }
    for s in product {
        b.output(s);
    }
    b.finish().expect("wallace elaboration is well-formed")
}

/// Elaborates a recursive multiplier into a flat gate netlist (`2N`
/// inputs, `2N` outputs): the four-way recursion of
/// `RecursiveMultiplier::mul_rec` over inlined [`crate::Mul2x2Kind::netlist`]
/// blocks, with each level's two summations inlined from the
/// multiplier's own ripple adders. The OR concatenation keeps the
/// stray-carry overlap at bit `w`, and the middle sum truncates its
/// operands to `w` bits, exactly as the behavioural model does.
#[must_use]
pub fn recursive_netlist(m: &RecursiveMultiplier) -> Netlist {
    let w = m.width();
    let mut b = NetlistBuilder::new(m.name(), 2 * w);
    let block = m.block().netlist();
    let x: Vec<Signal> = (0..w).map(Signal::Input).collect();
    let y: Vec<Signal> = (w..2 * w).map(Signal::Input).collect();
    let product = recursive_level(&mut b, m, &block, &x, &y);
    for &s in &product[..2 * w] {
        b.output(s);
    }
    b.finish().expect("recursive elaboration is well-formed")
}

/// One level of [`recursive_netlist`] on `w`-bit operands: returns
/// `2w + 1` product signals (stray carry last).
fn recursive_level(
    b: &mut NetlistBuilder,
    m: &RecursiveMultiplier,
    block: &Netlist,
    x: &[Signal],
    y: &[Signal],
) -> Vec<Signal> {
    let w = x.len();
    let zero = b.constant(false);
    if w == 2 {
        let mut p = b.inline(block, &[x[0], x[1], y[0], y[1]]);
        p.push(zero);
        return p;
    }
    let h = w / 2;
    let p_ll = recursive_level(b, m, block, &x[..h], &y[..h]);
    let p_lh = recursive_level(b, m, block, &x[..h], &y[h..]);
    let p_hl = recursive_level(b, m, block, &x[h..], &y[..h]);
    let p_hh = recursive_level(b, m, block, &x[h..], &y[h..]);
    // outer = p_ll | (p_hh << w): bit w of p_ll (a sub-product's stray
    // carry) overlaps bit 0 of the shifted p_hh as an OR.
    let mut outer = p_ll[..w].to_vec();
    outer.push(b.gate(GateKind::Or2, &[p_ll[w], p_hh[0]]));
    outer.extend_from_slice(&p_hh[1..w]);
    // One w-bit add of the middle products (truncated to w bits)…
    let mid_ports: Vec<Signal> = p_lh[..w].iter().chain(&p_hl[..w]).copied().collect();
    let mid = b.inline(&ripple_netlist(m.adder(w)), &mid_ports);
    // …and one 2w-bit add merging them in at offset h.
    let mut ports = outer;
    ports.extend(std::iter::repeat_n(zero, h));
    ports.extend(mid);
    ports.extend(std::iter::repeat_n(zero, h - 1));
    b.inline(&ripple_netlist(m.adder(2 * w)), &ports)
}

/// Elaborates a truncated multiplier into a flat gate netlist (`2N`
/// inputs, `2N` outputs): the compensation constant seeds the
/// accumulator, and every surviving partial product is rippled into it
/// through half-adder cells, modulo `2^{2N}` — the arithmetic of the
/// behavioural sum-then-truncate.
#[must_use]
pub fn truncated_netlist(m: &TruncatedMultiplier) -> Netlist {
    let w = m.width();
    let comp = m.compensation();
    let mut b = NetlistBuilder::new(m.name(), 2 * w);
    let mut acc: Vec<Signal> = (0..2 * w).map(|i| b.constant((comp >> i) & 1 == 1)).collect();
    for i in 0..w {
        for j in 0..w {
            if i + j < m.dropped_columns() {
                continue;
            }
            let mut carry = b.gate(GateKind::And2, &[Signal::Input(i), Signal::Input(w + j)]);
            for slot in acc.iter_mut().skip(i + j) {
                let s = b.gate(GateKind::Xor2, &[*slot, carry]);
                carry = b.gate(GateKind::And2, &[*slot, carry]);
                *slot = s;
            }
        }
    }
    for s in acc {
        b.output(s);
    }
    b.finish().expect("truncated elaboration is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiplierX64;
    use xlac_core::lanes::{from_planes, to_planes, LANES};
    use xlac_core::rng::{DefaultRng, Rng};

    #[test]
    fn exact_wallace_netlist_is_exhaustively_equivalent() {
        let m = WallaceMultiplier::new(4, FullAdderKind::Accurate, 0).unwrap();
        let nl = wallace_netlist(&m);
        assert_eq!(nl.n_inputs(), 8);
        assert_eq!(nl.n_outputs(), 8);
        for a in 0u64..16 {
            for b in 0u64..16 {
                assert_eq!(nl.eval(a | (b << 4)), a * b, "{a}x{b}");
            }
        }
    }

    #[test]
    fn approximate_netlists_match_behavioural_models() {
        use crate::{Mul2x2Kind, RecursiveMultiplier, SumMode, TruncatedMultiplier};
        let mut designs: Vec<(Box<dyn Multiplier>, Netlist)> = Vec::new();
        for (kind, cols) in [
            (FullAdderKind::Apx1, 3),
            (FullAdderKind::Apx2, 5),
            (FullAdderKind::Apx4, 4),
            (FullAdderKind::Apx5, 6),
        ] {
            let m = WallaceMultiplier::new(4, kind, cols).unwrap();
            designs.push((Box::new(m), wallace_netlist(&m)));
        }
        for width in [4, 8] {
            for block in Mul2x2Kind::ALL {
                for sum in
                    [SumMode::Accurate, SumMode::ApproxLsbs { kind: FullAdderKind::Apx2, lsbs: 3 }]
                {
                    let m = RecursiveMultiplier::new(width, block, sum).unwrap();
                    let nl = recursive_netlist(&m);
                    designs.push((Box::new(m), nl));
                }
            }
        }
        for (dropped, compensated) in [(2, false), (4, true), (6, true)] {
            let m = TruncatedMultiplier::new(8, dropped, compensated).unwrap();
            designs.push((Box::new(m), truncated_netlist(&m)));
        }
        // Exhaustive, 64 operand pairs per netlist evaluation.
        for (m, nl) in &designs {
            let w = m.width();
            assert_eq!((nl.n_inputs(), nl.n_outputs()), (2 * w, 2 * w), "{}", m.name());
            for base in (0u64..1 << (2 * w)).step_by(64) {
                let lanes: [u64; LANES] = std::array::from_fn(|j| base + j as u64);
                let got = from_planes(&nl.eval_words(&to_planes(&lanes, 2 * w)));
                for (x, got) in lanes.into_iter().zip(got) {
                    let (a, b) = (x & ((1 << w) - 1), x >> w);
                    assert_eq!(got, m.mul(a, b), "{}: {a}x{b}", m.name());
                }
            }
        }
    }

    #[test]
    fn wallace_8x8_netlist_matches_x64_model_on_random_lanes() {
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
        let nl = wallace_netlist(&m);
        let mut rng = DefaultRng::seed_from_u64(0xDAC6);
        let mut a = [0u64; LANES];
        let mut b = [0u64; LANES];
        rng.fill_u64(&mut a);
        rng.fill_u64(&mut b);
        let a = a.map(|v| v & 0xFF);
        let b = b.map(|v| v & 0xFF);
        let model = from_planes(&m.mul_x64(&to_planes(&a, 8), &to_planes(&b, 8)));
        for j in 0..LANES {
            assert_eq!(nl.eval(a[j] | (b[j] << 8)), model[j], "lane {j}");
        }
    }
}
