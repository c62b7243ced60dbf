//! Structural gate-level elaboration of the accelerator datapaths.
//!
//! Each function flattens one accelerator (or one reusable stage of it)
//! into a combinational netlist built from the arithmetic library's own
//! elaborations — [`xlac_adders::hw::ripple_netlist`],
//! [`xlac_adders::hw::subtractor_netlist`] and
//! [`xlac_multipliers::hw::recursive_netlist`] inlined cell by cell.
//! Compiled by `xlac-sim`, these netlists are the accelerators' only
//! 64-lane form; the scalar models stay the independent oracle.
//!
//! * [`sad_netlist`] — the whole SAD: per pixel slot an inlined
//!   absolute-difference subtractor, then the balanced adder tree with
//!   each level's ripple adder inlined at its exact width (operand bits
//!   beyond a level's input width wired to constant zero, mirroring the
//!   behavioural datapath's missing-planes-read-as-zero convention).
//!   Inputs: the *current* block's pixels slot-major (`slot · 8 + bit`),
//!   then the *reference* block at offset `slots · 8`. Outputs: the final
//!   tree level's sum LSB-first with its carry-out last.
//! * [`dct_butterfly_netlist`] — one 4-point butterfly of the 4×4 integer
//!   DCT on 16-bit two's-complement words: the transform runs it twice,
//!   a row pass then a column pass.
//! * [`fir_netlist`] — one FIR output over a contiguous range of taps:
//!   the tap multipliers with their coefficient magnitudes wired as
//!   constants, and the dual-rail accumulation trees.
//!
//! # Example
//!
//! ```
//! use xlac_accel::hw::sad_netlist;
//! use xlac_accel::sad::{SadAccelerator, SadVariant};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let sad = SadAccelerator::new(4, SadVariant::ApxSad2, 2)?;
//! let nl = sad_netlist(&sad);
//! assert_eq!(nl.n_inputs(), 2 * 4 * 8);
//! // Pack cur = [3, 0, 0, 0], ref = [1, 0, 0, 0]: SAD is 2.
//! let packed = 3u64 | (1u64 << 32);
//! assert_eq!(nl.eval(packed), sad.sad(&[3, 0, 0, 0], &[1, 0, 0, 0])?);
//! # Ok(())
//! # }
//! ```

use std::ops::Range;

use crate::dct::DctAccelerator;
use crate::fir::FirAccelerator;
use crate::sad::SadAccelerator;
use xlac_adders::hw::{ripple_netlist, subtractor_netlist};
use xlac_adders::Adder;
use xlac_logic::{GateKind, Netlist, NetlistBuilder, Signal};
use xlac_multipliers::hw::recursive_netlist;

/// Elaborates a SAD accelerator into a flat gate netlist
/// (`2 · slots · 8` inputs, `8 + levels + 1` outputs).
#[must_use]
pub fn sad_netlist(sad: &SadAccelerator) -> Netlist {
    let pixel = SadAccelerator::PIXEL_BITS;
    let slots = sad.lanes();
    let mut b = NetlistBuilder::new(sad.name(), 2 * slots * pixel);
    let zero = b.constant(false);
    let sub_nl = subtractor_netlist(sad.subtractor());

    // Stage 1: one absolute-difference subtractor per slot; the a>=b flag
    // output is dropped (the datapath only consumes the magnitude).
    let mut values: Vec<Vec<Signal>> = (0..slots)
        .map(|slot| {
            let mut fanin: Vec<Signal> =
                (0..pixel).map(|bit| Signal::Input(slot * pixel + bit)).collect();
            fanin.extend((0..pixel).map(|bit| Signal::Input((slots + slot) * pixel + bit)));
            let outs = b.inline(&sub_nl, &fanin);
            outs[..pixel].to_vec()
        })
        .collect();

    // Stage 2: the balanced adder tree, each level at its exact width;
    // operand bits beyond the previous level's output read as zero.
    for adder in sad.tree_adders() {
        let ripple = ripple_netlist(adder);
        let w = adder.width();
        let mut next = Vec::with_capacity(values.len() / 2);
        for pair in values.chunks(2) {
            let mut fanin = Vec::with_capacity(2 * w);
            for operand in pair {
                fanin.extend((0..w).map(|i| operand.get(i).copied().unwrap_or(zero)));
            }
            next.push(b.inline(&ripple, &fanin));
        }
        values = next;
    }
    debug_assert_eq!(values.len(), 1);
    for s in values.swap_remove(0) {
        b.output(s);
    }
    b.finish().expect("SAD elaboration is well-formed")
}

/// Elaborates one 4-point butterfly of a DCT accelerator
/// (`4 · 16` inputs, `4 · 16` outputs): word `k` of the input is
/// `x[k]` and word `k` of the output is `y[k]`, each 16 bits LSB-first
/// in two's complement.
///
/// Each of the 10 add/subs is an inlined ripple of the accelerator's
/// adder with its carry-out dropped. A subtraction `a − b` is the
/// approximate ripple of `a + !b`, then an exact +1 on the 16-bit sum,
/// as [`DctAccelerator`]'s scalar datapath computes it.
#[must_use]
pub fn dct_butterfly_netlist(dct: &DctAccelerator) -> Netlist {
    let w = DctAccelerator::WORD_BITS;
    let mut b = NetlistBuilder::new(format!("{} butterfly", dct.name()), 4 * w);
    let one = b.constant(true);
    let ripple = ripple_netlist(dct.adder());
    let add = |b: &mut NetlistBuilder, p: &[Signal], q: &[Signal]| -> Vec<Signal> {
        let fanin: Vec<Signal> = p.iter().chain(q).copied().collect();
        let mut sum = b.inline(&ripple, &fanin);
        sum.truncate(w);
        sum
    };
    let sub = |b: &mut NetlistBuilder, p: &[Signal], q: &[Signal]| -> Vec<Signal> {
        let inverted: Vec<Signal> = q.iter().map(|&s| b.gate(GateKind::Not, &[s])).collect();
        let sum = add(b, p, &inverted);
        // The exact increment: a half-adder chain seeded with carry 1.
        let mut carry = one;
        sum.into_iter()
            .map(|s| {
                let bit = b.gate(GateKind::Xor2, &[s, carry]);
                carry = b.gate(GateKind::And2, &[s, carry]);
                bit
            })
            .collect()
    };
    let x: Vec<Vec<Signal>> =
        (0..4).map(|k| (0..w).map(|i| Signal::Input(k * w + i)).collect()).collect();
    let p0 = add(&mut b, &x[0], &x[3]);
    let p3 = sub(&mut b, &x[0], &x[3]);
    let p1 = add(&mut b, &x[1], &x[2]);
    let p2 = sub(&mut b, &x[1], &x[2]);
    let y0 = add(&mut b, &p0, &p1);
    let p3x2 = add(&mut b, &p3, &p3);
    let y1 = add(&mut b, &p3x2, &p2);
    let y2 = sub(&mut b, &p0, &p1);
    let p2x2 = add(&mut b, &p2, &p2);
    let y3 = sub(&mut b, &p3, &p2x2);
    for s in [y0, y1, y2, y3].into_iter().flatten() {
        b.output(s);
    }
    b.finish().expect("DCT butterfly elaboration is well-formed")
}

/// Elaborates one output of a FIR accelerator whose in-range taps are
/// `taps` (`8 · taps.len()` inputs, `2 · 22` outputs).
///
/// Input word `i` (8 bits, LSB-first) is the sample under tap
/// `taps.start + i`. Each non-zero tap inlines the accelerator's
/// [`recursive_netlist`] multiplier with `|h|` wired as its constant `a`
/// operand; the product joins the positive or the negative rail in tap
/// order. Each rail is reduced by [`FirAccelerator`]'s pairwise tree on
/// inlined ripples of its accumulator, every sum truncated to 22 bits;
/// an empty rail is constant zero. The outputs are the positive rail's
/// 22 bits, then the negative rail's; the filter output is their
/// difference.
///
/// Taps outside `taps` are absent, not fed zero: approximate cells need
/// not satisfy `x + 0 = x`, so every window of in-range taps is its own
/// circuit.
///
/// # Panics
///
/// Panics when `taps` reaches past the filter's last tap.
#[must_use]
pub fn fir_netlist(fir: &FirAccelerator, taps: Range<usize>) -> Netlist {
    const SAMPLE_BITS: usize = FirAccelerator::SAMPLE_BITS;
    let acc = FirAccelerator::accumulator_bits();
    let coefficients = &fir.coefficients()[taps.clone()];
    let name = format!("{}[{}..{}]", fir.name(), taps.start, taps.end);
    let mut b = NetlistBuilder::new(name, SAMPLE_BITS * coefficients.len());
    let zero = b.constant(false);
    let mul = recursive_netlist(fir.multiplier());
    let ripple = ripple_netlist(fir.accumulator());

    let (mut positive, mut negative) = (Vec::new(), Vec::new());
    for (slot, &h) in coefficients.iter().enumerate() {
        if h == 0 {
            continue;
        }
        let magnitude = h.unsigned_abs();
        let mut fanin: Vec<Signal> =
            (0..SAMPLE_BITS).map(|i| b.constant((magnitude >> i) & 1 == 1)).collect();
        fanin.extend((0..SAMPLE_BITS).map(|i| Signal::Input(slot * SAMPLE_BITS + i)));
        let product = b.inline(&mul, &fanin);
        if h > 0 {
            positive.push(product);
        } else {
            negative.push(product);
        }
    }
    for mut level in [positive, negative] {
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if let [lhs, rhs] = pair {
                    let fanin: Vec<Signal> = [lhs, rhs]
                        .iter()
                        .flat_map(|v| (0..acc).map(|i| v.get(i).copied().unwrap_or(zero)))
                        .collect();
                    let mut sum = b.inline(&ripple, &fanin);
                    sum.truncate(acc);
                    next.push(sum);
                } else {
                    next.push(pair[0].clone());
                }
            }
            level = next;
        }
        let rail = level.pop().unwrap_or_default();
        for i in 0..acc {
            b.output(rail.get(i).copied().unwrap_or(zero));
        }
    }
    b.finish().expect("FIR elaboration is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ApproxMode;
    use crate::sad::SadVariant;
    use xlac_adders::FullAdderKind;
    use xlac_core::lanes;
    use xlac_core::rng::{DefaultRng, Rng};

    /// Packs slot-major pixel blocks into the netlist's flat input word.
    fn pack(cur: &[u64], refb: &[u64]) -> u64 {
        let slots = cur.len();
        let mut packed = 0u64;
        for (slot, &p) in cur.iter().enumerate() {
            packed |= p << (slot * 8);
        }
        for (slot, &p) in refb.iter().enumerate() {
            packed |= p << ((slots + slot) * 8);
        }
        packed
    }

    #[test]
    fn sad_netlist_matches_the_behavioural_datapath() {
        let mut rng = DefaultRng::seed_from_u64(0x5AD2);
        for (variant, lsbs) in
            [(SadVariant::Accurate, 0), (SadVariant::ApxSad2, 3), (SadVariant::ApxSad5, 4)]
        {
            let sad = SadAccelerator::new(4, variant, lsbs).unwrap();
            let nl = sad_netlist(&sad);
            assert_eq!(nl.n_inputs(), 64);
            // 8-bit pixels + 2 tree levels + carry.
            assert_eq!(nl.n_outputs(), 11);
            for _ in 0..200 {
                let cur: Vec<u64> = (0..4).map(|_| rng.gen_range(0..256)).collect();
                let refb: Vec<u64> = (0..4).map(|_| rng.gen_range(0..256)).collect();
                assert_eq!(
                    nl.eval(pack(&cur, &refb)),
                    sad.sad(&cur, &refb).unwrap(),
                    "{variant}/{lsbs}: {cur:?} vs {refb:?}"
                );
            }
        }
    }

    #[test]
    fn sad_netlist_matches_scalar_on_random_lanes() {
        let mut rng = DefaultRng::seed_from_u64(0x5AD3);
        for (variant, lsbs) in [
            (SadVariant::ApxSad3, 2),
            (SadVariant::Accurate, 0),
            (SadVariant::ApxSad2, 3),
            (SadVariant::ApxSad5, 4),
        ] {
            let sad = SadAccelerator::new(8, variant, lsbs).unwrap();
            let nl = sad_netlist(&sad);
            let blocks: Vec<(Vec<u64>, Vec<u64>)> = (0..64)
                .map(|_| {
                    let c: Vec<u64> = (0..8).map(|_| rng.gen_range(0..256)).collect();
                    let r: Vec<u64> = (0..8).map(|_| rng.gen_range(0..256)).collect();
                    (c, r)
                })
                .collect();
            // Slot-major input planes: current slots, then reference slots.
            let mut planes = Vec::with_capacity(128);
            for reference in [false, true] {
                for i in 0..8 {
                    let vals: [u64; 64] = std::array::from_fn(|j| {
                        let (c, r) = &blocks[j];
                        if reference {
                            r[i]
                        } else {
                            c[i]
                        }
                    });
                    planes.extend(lanes::to_planes(&vals, SadAccelerator::PIXEL_BITS));
                }
            }
            let out = nl.eval_words(&planes);
            for (j, (c, r)) in blocks.iter().enumerate() {
                let want = sad.sad(c, r).unwrap();
                assert_eq!(lanes::lane(&out, j), want, "{variant}/{lsbs} lane {j}");
            }
        }
    }

    /// Evaluates a netlist of `in_bits`-bit input words and `out_bits`-bit
    /// output words on one lane.
    fn eval_one(nl: &Netlist, words: &[u64], in_bits: usize, out_bits: usize) -> Vec<u64> {
        let planes: Vec<u64> =
            words.iter().flat_map(|&v| (0..in_bits).map(move |i| (v >> i) & 1)).collect();
        let out = nl.eval_words(&planes);
        out.chunks(out_bits).map(|bits| lanes::lane(bits, 0)).collect()
    }

    #[test]
    fn dct_butterfly_netlist_runs_the_scalar_transform_in_two_passes() {
        let mut rng = DefaultRng::seed_from_u64(0xDC7);
        for (kind, lsbs) in
            [(FullAdderKind::Accurate, 0), (FullAdderKind::Apx1, 2), (FullAdderKind::Apx5, 6)]
        {
            let dct = DctAccelerator::new(kind, lsbs).unwrap();
            let nl = dct_butterfly_netlist(&dct);
            assert_eq!((nl.n_inputs(), nl.n_outputs()), (64, 64));
            let w = DctAccelerator::WORD_BITS;
            let word = |v: i64| xlac_core::bits::from_signed(v, w);
            let value = |u: u64| xlac_core::bits::to_signed(u, w);
            for trial in 0..100 {
                let block: [[i64; 4]; 4] = std::array::from_fn(|_| {
                    std::array::from_fn(|_| match trial % 3 {
                        0 => 255,
                        1 => -255,
                        _ => rng.gen_range(-255..=255),
                    })
                });
                let rows: Vec<Vec<i64>> = block
                    .iter()
                    .map(|r| {
                        let x: Vec<u64> = r.iter().map(|&v| word(v)).collect();
                        eval_one(&nl, &x, w, w).into_iter().map(value).collect()
                    })
                    .collect();
                let expect = dct.forward(&block);
                for c in 0..4 {
                    let col: Vec<u64> = (0..4).map(|r| word(rows[r][c])).collect();
                    let y = eval_one(&nl, &col, w, w);
                    for r in 0..4 {
                        let label = dct.name();
                        assert_eq!(value(y[r]), expect[r][c], "{label} {block:?} ({r}, {c})");
                    }
                }
            }
        }
    }

    #[test]
    fn fir_netlist_matches_the_scalar_filter_on_every_window() {
        let mut rng = DefaultRng::seed_from_u64(0xF1B);
        let h = [3i64, -5, 0, 7, -1];
        for mode in ApproxMode::ALL {
            let fir = FirAccelerator::new(&h, mode).unwrap();
            for len in 1..=8usize {
                let stream: Vec<u64> = (0..len).map(|_| rng.gen_range(0..256)).collect();
                let expect = fir.apply(&stream);
                for (n, &want) in expect.iter().enumerate() {
                    let start = 2usize.saturating_sub(n);
                    let end = h.len().min(len + 2 - n);
                    let nl = fir_netlist(&fir, start..end);
                    assert_eq!(nl.n_outputs(), 44);
                    let taps = &stream[n + start - 2..n + end - 2];
                    let rails = eval_one(&nl, taps, 8, 22);
                    assert_eq!(rails[0] as i64 - rails[1] as i64, want, "{mode} len {len} n {n}");
                }
            }
        }
    }
}
