//! Batched kernel evaluation: request items → plane-parallel lanes.
//!
//! A reader draining a shard coalesces same-`(kernel, config)` items
//! from many requests into wide batches and evaluates them here. Every kernel runs
//! its entry's compiled netlist, 64 lanes per program pass:
//!
//! * MUL — one lane per operand pair ([`xlac_sim::eval_pairs_auto`]);
//! * SAD — one lane per block pair;
//! * FIR — one lane per output sample, grouped by tap window
//!   ([`xlac_sim::FirWindows`]), so streams of any lengths share passes;
//! * DCT — one lane per block row, then per block column: the butterfly
//!   program runs twice, 16 blocks per pass.
//!
//! Every function is **batch-composition invariant**: lane `i`'s value
//! depends only on item `i`, because absent lanes are padded with zero
//! operands and masked back out ([`xlac_sim::eval_pairs`]'s discipline).
//! That invariance is what makes server replies bit-identical to the
//! single-threaded library twins regardless of how requests happen to
//! share a batch — the property `tests/server_differential.rs` pins.

use xlac_accel::hw::dct_butterfly_netlist;
use xlac_core::lanes::{self, LANES};
use xlac_sim::CompiledProgram;

use crate::ladder::{DctEntry, FirEntry, MulEntry, SadEntry, MUL_WIDTH};
use crate::proto::{SadPair, DCT_BLOCK, SAD_PIXELS};

/// Evaluates a batch of 8×8 products through the entry's compiled
/// bit-plane program. Bit-identical to `entry.mul.mul(a, b)` per item.
#[must_use]
pub fn eval_mul(entry: &MulEntry, pairs: &[(u8, u8)]) -> Vec<u16> {
    let wide: Vec<(u64, u64)> = pairs.iter().map(|&(a, b)| (u64::from(a), u64::from(b))).collect();
    xlac_sim::eval_pairs_auto(&entry.prog, MUL_WIDTH, &wide).into_iter().map(|v| v as u16).collect()
}

/// Evaluates a batch of 16-pixel SADs through the entry's compiled
/// datapath program, 64 blocks per pass. Bit-identical to
/// `entry.sad.sad(cur, ref)` per item.
#[must_use]
pub fn eval_sad(entry: &SadEntry, blocks: &[SadPair]) -> Vec<u32> {
    // Lane `j` of word `k` packs 8 pixels of block `j`, byte `i` holding
    // pixel `8k + i` of the current block, then of the reference block.
    // Transposing 64 bits at once yields planes `64k..64k + 64` in
    // `sad_netlist`'s port order (pixel-slot-major, current block first).
    const WORDS: usize = 2 * SAD_PIXELS / 8;
    let mut out = Vec::with_capacity(blocks.len());
    let mut inputs = vec![0u64; WORDS * 64];
    let (mut regs, mut planes) = (Vec::new(), Vec::new());
    for chunk in blocks.chunks(LANES) {
        let mut words = [[0u64; LANES]; WORDS];
        for (j, b) in chunk.iter().enumerate() {
            let octets = b.cur.chunks_exact(8).chain(b.refb.chunks_exact(8));
            for (word, pixels) in words.iter_mut().zip(octets) {
                word[j] = u64::from_le_bytes(pixels.try_into().expect("8-pixel chunks"));
            }
        }
        for (word, dst) in words.iter().zip(inputs.chunks_exact_mut(64)) {
            lanes::to_planes_into(word, 64, dst);
        }
        entry.prog.run_into::<u64>(&inputs, &mut regs, &mut planes);
        out.extend(lanes::from_planes(&planes)[..chunk.len()].iter().map(|&v| v as u32));
    }
    out
}

/// Applies the entry's filter to every stream through its compiled tap
/// windows; streams may differ in length. Bit-identical per stream to
/// `entry.fir.apply(stream)`, truncated to `i32` (the 22-bit dual-rail
/// accumulator keeps every output well inside).
#[must_use]
pub fn eval_fir(entry: &FirEntry, streams: &[&[u8]]) -> Vec<Vec<i32>> {
    entry
        .windows
        .eval(&entry.fir, streams)
        .into_iter()
        .map(|s| s.into_iter().map(|v| v as i32).collect())
        .collect()
}

/// Transforms a batch of 4×4 residual blocks through the entry's compiled
/// butterfly: a row pass with lane `4b + r` holding row `r` of block `b`,
/// then a column pass with lane `4b + c` holding column `c`, 16 blocks per
/// pass. Bit-identical per block to `entry.dct.forward`; every output
/// coefficient of the 16-bit two's-complement datapath fits `i16`.
#[must_use]
pub fn eval_dct(entry: &DctEntry, blocks: &[[i16; DCT_BLOCK]]) -> Vec<[i16; DCT_BLOCK]> {
    const BITS: usize = xlac_accel::dct::DctAccelerator::WORD_BITS;
    // Lane values pack the butterfly's four words, word `k` in bits
    // `16k..16k + 16`: one transpose yields all 64 planes in port order,
    // and one transposes the outputs back.
    let field = |v: u64, k: usize| (v >> (BITS * k)) & 0xFFFF;
    let prog =
        entry.prog.get_or_init(|| CompiledProgram::compile(&dct_butterfly_netlist(&entry.dct)));
    let (mut inputs, mut regs, mut planes) = (vec![0u64; 4 * BITS], Vec::new(), Vec::new());
    let mut pass = |words: &[u64; LANES]| {
        lanes::to_planes_into(words, 4 * BITS, &mut inputs);
        prog.run_into(&inputs, &mut regs, &mut planes);
        lanes::from_planes(&planes)
    };
    let mut out = Vec::with_capacity(blocks.len());
    for chunk in blocks.chunks(LANES / 4) {
        let mut words = [0u64; LANES];
        for (b, blk) in chunk.iter().enumerate() {
            for (r, row) in blk.chunks_exact(4).enumerate() {
                words[4 * b + r] =
                    row.iter().rev().fold(0, |w, &v| w << BITS | u64::from(v as u16));
            }
        }
        let rows = pass(&words);
        // Column c of block b: word k is output c of row lane 4b + k.
        for b in 0..chunk.len() {
            for c in 0..4 {
                words[4 * b + c] =
                    (0..4).rev().fold(0, |w, k| w << BITS | field(rows[4 * b + k], c));
            }
        }
        let cols = pass(&words);
        out.extend((0..chunk.len()).map(|b| {
            // Coefficient (k, c) is output k of column lane 4b + c.
            std::array::from_fn(|i| field(cols[4 * b + i % 4], i / 4) as u16 as i16)
        }));
    }
    out
}

/// The exact DCT reference, in the same block layout as [`eval_dct`].
#[must_use]
pub fn eval_dct_exact(blocks: &[[i16; DCT_BLOCK]]) -> Vec<[i16; DCT_BLOCK]> {
    blocks
        .iter()
        .map(|blk| {
            let grid = std::array::from_fn(|r| std::array::from_fn(|c| i64::from(blk[4 * r + c])));
            let y = xlac_accel::dct::DctAccelerator::forward_exact(&grid);
            std::array::from_fn(|i| y[i / 4][i % 4] as i16)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{Ladders, FIR_COEFFS};
    use xlac_accel::fir::FirAccelerator;
    use xlac_accel::sad::SadAccelerator;
    use xlac_core::rng::{DefaultRng, Rng};
    use xlac_multipliers::Multiplier;

    #[test]
    fn batched_paths_match_scalar_twins_per_entry() {
        let l = Ladders::build();
        let mut rng = DefaultRng::seed_from_u64(0x5E21);

        for e in &l.mul {
            let pairs: Vec<(u8, u8)> =
                (0..130).map(|_| (rng.next_u64() as u8, rng.next_u64() as u8)).collect();
            let got = eval_mul(e, &pairs);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(
                    u64::from(got[i]),
                    e.mul.mul(u64::from(a), u64::from(b)),
                    "{} item {i}",
                    e.info.label
                );
            }
        }

        for e in &l.sad {
            let blocks: Vec<SadPair> = (0..70)
                .map(|_| {
                    let mut cur = [0u8; 16];
                    let mut refb = [0u8; 16];
                    cur.iter_mut().for_each(|p| *p = rng.next_u64() as u8);
                    refb.iter_mut().for_each(|p| *p = rng.next_u64() as u8);
                    SadPair { cur, refb }
                })
                .collect();
            let got = eval_sad(e, &blocks);
            for (i, b) in blocks.iter().enumerate() {
                let cur: Vec<u64> = b.cur.iter().map(|&p| u64::from(p)).collect();
                let refb: Vec<u64> = b.refb.iter().map(|&p| u64::from(p)).collect();
                assert_eq!(
                    u64::from(got[i]),
                    e.sad.sad(&cur, &refb).unwrap(),
                    "{} item {i}",
                    e.info.label
                );
            }
        }

        for e in &l.fir {
            let streams: Vec<Vec<u8>> =
                (0..66).map(|_| (0..17).map(|_| rng.next_u64() as u8).collect()).collect();
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let got = eval_fir(e, &refs);
            for (j, s) in streams.iter().enumerate() {
                let wide: Vec<u64> = s.iter().map(|&v| u64::from(v)).collect();
                let expect: Vec<i32> = e.fir.apply(&wide).into_iter().map(|v| v as i32).collect();
                assert_eq!(got[j], expect, "{} stream {j}", e.info.label);
            }
        }

        for e in &l.dct {
            let blocks: Vec<[i16; 16]> = (0..10)
                .map(|_| {
                    let mut b = [0i16; 16];
                    b.iter_mut().for_each(|v| *v = (rng.next_u64() % 511) as i16 - 255);
                    b
                })
                .collect();
            let got = eval_dct(e, &blocks);
            for (i, blk) in blocks.iter().enumerate() {
                let mut grid = [[0i64; 4]; 4];
                for (k, &v) in blk.iter().enumerate() {
                    grid[k / 4][k % 4] = i64::from(v);
                }
                let expect = e.dct.forward(&grid);
                for k in 0..16 {
                    assert_eq!(
                        i64::from(got[i][k]),
                        expect[k / 4][k % 4],
                        "{} block {i} coeff {k}",
                        e.info.label
                    );
                }
            }
        }
    }

    #[test]
    fn fir_and_dct_programs_compile_on_first_use_under_a_race() {
        let l = Ladders::build();
        for (f, d) in l.fir.iter().zip(&l.dct) {
            assert_eq!(f.windows.compiled(), 0, "{}", f.info.label);
            assert!(d.prog.get().is_none(), "{}", d.info.label);
        }
        let mut rng = DefaultRng::seed_from_u64(0x1A2F);
        let streams: Vec<Vec<u8>> =
            (0..20).map(|i| (0..=i % 12).map(|_| rng.next_u64() as u8).collect()).collect();
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let blocks: Vec<[i16; DCT_BLOCK]> =
            (0..20).map(|_| std::array::from_fn(|_| (rng.next_u64() % 511) as i16 - 255)).collect();
        let (fir, dct) = (&l.fir[2], &l.dct[2]);
        // Two threads touch the same untouched entries at the same moment.
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let run = || {
                barrier.wait();
                (eval_fir(fir, &refs), eval_dct(dct, &blocks))
            };
            let (ha, hb) = (s.spawn(run), s.spawn(run));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(a, b);
        for (got, s) in a.0.iter().zip(&streams) {
            let wide: Vec<u64> = s.iter().map(|&v| u64::from(v)).collect();
            let expect: Vec<i32> = fir.fir.apply(&wide).into_iter().map(|v| v as i32).collect();
            assert_eq!(got, &expect);
        }
        for (got, blk) in a.1.iter().zip(&blocks) {
            let grid = std::array::from_fn(|r| std::array::from_fn(|c| i64::from(blk[4 * r + c])));
            let y = dct.dct.forward(&grid);
            assert_eq!(got, &std::array::from_fn(|i| y[i / 4][i % 4] as i16));
        }
        // Streams of 1..=12 samples reach all 25 windows of the 9-tap
        // filter; the rungs nobody touched stay uncompiled.
        assert_eq!(fir.windows.compiled(), 25);
        assert!(dct.prog.get().is_some());
        assert_eq!(l.fir[1].windows.compiled(), 0);
        assert!(l.dct[1].prog.get().is_none());
    }

    #[test]
    fn batch_composition_is_invisible() {
        // The same item must get the same value whether evaluated alone
        // or packed with 100 strangers — the coalescing soundness pin.
        let l = Ladders::build();
        let mut rng = DefaultRng::seed_from_u64(0xC0A1);
        let e = &l.mul[3];
        let pairs: Vec<(u8, u8)> =
            (0..101).map(|_| (rng.next_u64() as u8, rng.next_u64() as u8)).collect();
        let packed = eval_mul(e, &pairs);
        for (i, &p) in pairs.iter().enumerate() {
            assert_eq!(eval_mul(e, &[p]), vec![packed[i]], "item {i}");
        }
    }

    #[test]
    fn exact_entries_reproduce_reference_models() {
        let l = Ladders::build();
        assert_eq!(eval_mul(&l.mul[0], &[(201, 173)]), vec![201 * 173]);
        let blk = SadPair { cur: [250; 16], refb: [3; 16] };
        assert_eq!(
            u64::from(eval_sad(&l.sad[0], &[blk])[0]),
            SadAccelerator::sad_exact(&[250u64; 16], &[3u64; 16])
        );
        let stream: Vec<u8> = (0..32).map(|i| (i * 11) as u8).collect();
        let wide: Vec<u64> = stream.iter().map(|&v| u64::from(v)).collect();
        let expect: Vec<i32> =
            FirAccelerator::apply_exact(&FIR_COEFFS, &wide).into_iter().map(|v| v as i32).collect();
        assert_eq!(eval_fir(&l.fir[0], &[&stream]), vec![expect]);
        let blk = {
            let mut b = [0i16; 16];
            b.iter_mut().enumerate().for_each(|(i, v)| *v = (i as i16) * 17 - 120);
            b
        };
        assert_eq!(eval_dct(&l.dct[0], &[blk]), eval_dct_exact(&[blk]));
    }
}
