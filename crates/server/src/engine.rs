//! Batched kernel evaluation: request items → plane-parallel lanes.
//!
//! The worker pool coalesces same-`(kernel, config)` items from many
//! requests into wide batches and evaluates them here. Every function is
//! **batch-composition invariant**: lane `i`'s value depends only on
//! item `i`, because the underlying plane paths pad absent lanes with
//! zero operands and mask them back out ([`xlac_sim::eval_pairs`]'s
//! discipline, and the per-lane contracts of the compiled SAD program and
//! `apply_x64`).
//! That invariance is what makes server replies bit-identical to the
//! single-threaded library twins regardless of how requests happen to
//! share a batch — the property `tests/server_differential.rs` pins.

use xlac_core::lanes::{self, LANES};

use crate::ladder::{DctEntry, FirEntry, MulEntry, SadEntry, MUL_WIDTH};
use crate::proto::{SadPair, DCT_BLOCK, SAD_PIXELS};

/// Evaluates a batch of 8×8 products through the entry's compiled
/// bit-plane program. Bit-identical to `entry.mul.mul(a, b)` per item.
#[must_use]
pub fn eval_mul(entry: &MulEntry, pairs: &[(u8, u8)]) -> Vec<u16> {
    let wide: Vec<(u64, u64)> =
        pairs.iter().map(|&(a, b)| (u64::from(a), u64::from(b))).collect();
    xlac_sim::eval_pairs_auto(&entry.prog, MUL_WIDTH, &wide)
        .into_iter()
        .map(|v| v as u16)
        .collect()
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

/// Applies the entry's filter to up to 64 equal-length sample streams at
/// once through the 64-lane MAC datapath. `streams` must all share one
/// length; the caller groups by length. Bit-identical per stream to
/// `entry.fir.apply(stream)`, truncated to `i32` (the 22-bit dual-rail
/// accumulator keeps every output well inside).
#[must_use]
pub fn eval_fir(entry: &FirEntry, streams: &[&[u8]]) -> Vec<Vec<i32>> {
    let len = streams.first().map_or(0, |s| s.len());
    debug_assert!(streams.iter().all(|s| s.len() == len), "streams must share a length");
    let mut out: Vec<Vec<i32>> = streams.iter().map(|_| Vec::with_capacity(len)).collect();
    let mut word = [0u64; LANES];
    for chunk_start in (0..streams.len()).step_by(LANES) {
        let chunk = &streams[chunk_start..streams.len().min(chunk_start + LANES)];
        let mut samples = Vec::with_capacity(len);
        for t in 0..len {
            word.fill(0);
            for (j, s) in chunk.iter().enumerate() {
                word[j] = u64::from(s[t]);
            }
            samples.push(lanes::to_planes(&word, 8));
        }
        let lanes_out = entry.fir.apply_x64(&samples);
        for (t, lane_vals) in lanes_out.iter().enumerate() {
            debug_assert!(t < len);
            for (j, slot) in out[chunk_start..chunk_start + chunk.len()].iter_mut().enumerate() {
                slot.push(lane_vals[j] as i32);
            }
        }
    }
    out
}

/// Transforms a batch of 4×4 residual blocks through the entry's adder
/// datapath (scalar — the DCT has no plane path, and its per-item cost
/// is already one butterfly network). Every output coefficient of the
/// 16-bit two's-complement datapath fits `i16` by construction.
#[must_use]
pub fn eval_dct(entry: &DctEntry, blocks: &[[i16; DCT_BLOCK]]) -> Vec<[i16; DCT_BLOCK]> {
    blocks.iter().map(|blk| dct_forward(|b| entry.dct.forward(&b), blk)).collect()
}

/// The exact DCT twin, same shape conversion.
#[must_use]
pub fn eval_dct_exact(blocks: &[[i16; DCT_BLOCK]]) -> Vec<[i16; DCT_BLOCK]> {
    blocks
        .iter()
        .map(|blk| dct_forward(|b| xlac_accel::dct::DctAccelerator::forward_exact(&b), blk))
        .collect()
}

fn dct_forward(
    f: impl Fn([[i64; 4]; 4]) -> [[i64; 4]; 4],
    blk: &[i16; DCT_BLOCK],
) -> [i16; DCT_BLOCK] {
    let mut grid = [[0i64; 4]; 4];
    for (i, &v) in blk.iter().enumerate() {
        grid[i / 4][i % 4] = i64::from(v);
    }
    let y = f(grid);
    let mut out = [0i16; DCT_BLOCK];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = y[i / 4][i % 4] as i16;
    }
    out
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
            let streams: Vec<Vec<u8>> = (0..66)
                .map(|_| (0..17).map(|_| rng.next_u64() as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let got = eval_fir(e, &refs);
            for (j, s) in streams.iter().enumerate() {
                let wide: Vec<u64> = s.iter().map(|&v| u64::from(v)).collect();
                let expect: Vec<i32> =
                    e.fir.apply(&wide).into_iter().map(|v| v as i32).collect();
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
        let expect: Vec<i32> = FirAccelerator::apply_exact(&FIR_COEFFS, &wide)
            .into_iter()
            .map(|v| v as i32)
            .collect();
        assert_eq!(eval_fir(&l.fir[0], &[&stream]), vec![expect]);
        let blk = {
            let mut b = [0i16; 16];
            b.iter_mut().enumerate().for_each(|(i, v)| *v = (i as i16) * 17 - 120);
            b
        };
        assert_eq!(eval_dct(&l.dct[0], &[blk]), eval_dct_exact(&[blk]));
    }
}
