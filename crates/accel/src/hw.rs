//! Structural gate-level elaboration of the SAD accelerator datapath.
//!
//! Flattens a [`SadAccelerator`] into one combinational netlist: per
//! pixel slot an inlined absolute-difference subtractor
//! ([`xlac_adders::hw::subtractor_netlist`]), then the balanced adder
//! tree with each level's ripple adder inlined at its exact width —
//! operand bits beyond a level's input width wired to constant zero,
//! mirroring the behavioural datapath's missing-planes-read-as-zero
//! convention.
//!
//! Port convention: the *current* block's pixels first, slot-major
//! (`slot · 8 + bit`), then the *reference* block at offset
//! `slots · 8`. Outputs are the final tree level's sum LSB-first with its
//! carry-out last. Compiled by `xlac-sim`, this netlist is the SAD's only
//! 64-lane form.
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

use crate::sad::SadAccelerator;
use xlac_adders::hw::{ripple_netlist, subtractor_netlist};
use xlac_adders::Adder;
use xlac_logic::{Netlist, NetlistBuilder, Signal};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sad::SadVariant;
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
                        if reference { r[i] } else { c[i] }
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
}
