//! Pad-and-mask regression suite for the batched pair evaluator
//! (DESIGN.md §15.3, the sweep-runner `auto_chunk_size` fix).
//!
//! The latent bug this pins: a chunk size that is not a multiple of the
//! plane-block lane count leaves a *partial block* whose dead lanes must
//! be zero-padded on the way in and masked back out on the way out. Any
//! leak between live and dead lanes — or any dependence of a lane's
//! value on how many other lanes share its block — silently corrupts
//! sliced sweeps. Every batch size here is an adversarial boundary:
//! `1` (a single live lane), `63`/`64`/`65` (one u64 word ± 1) and
//! `511`/`513` (one `[u64; 8]` block ± 1). The server's compiled SAD,
//! FIR and DCT paths ride the same sizes: SAD packs 64 blocks per pass,
//! FIR one output sample per lane (grouped by tap window across streams
//! of mixed lengths), and DCT 16 blocks per pass (one lane per block row,
//! then per block column), so DCT is also checked at its own boundaries.

use xlac_adders::FullAdderKind;
use xlac_core::rng::{DefaultRng, Rng};
use xlac_multipliers::{Multiplier, WallaceMultiplier};
use xlac_server::engine::{eval_dct, eval_fir, eval_sad};
use xlac_server::ladder::Ladders;
use xlac_server::proto::{SadPair, DCT_BLOCK, SAD_PIXELS};
use xlac_sim::{auto_chunk_size, eval_pairs, eval_pairs_auto, CompiledProgram, MIN_AUTO_CHUNK};

const SIZES: [usize; 6] = [1, 63, 64, 65, 511, 513];

fn compiled(kind: FullAdderKind, cols: usize) -> (WallaceMultiplier, CompiledProgram) {
    let m = WallaceMultiplier::new(8, kind, cols).unwrap();
    let prog = CompiledProgram::compile(&xlac_multipliers::hw::wallace_netlist(&m));
    (m, prog)
}

fn seeded_pairs(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = DefaultRng::seed_from_u64(seed);
    (0..n).map(|_| (rng.next_u64() & 0xFF, rng.next_u64() & 0xFF)).collect()
}

/// `n` SAD block pairs: seeded random pixels, all-0 blocks, all-255
/// blocks, current 255 against reference 0, and those four patterns
/// interleaved lane by lane.
fn sad_batches(n: usize, seed: u64) -> Vec<Vec<SadPair>> {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let random: Vec<SadPair> = (0..n)
        .map(|_| SadPair {
            cur: std::array::from_fn(|_| rng.next_u64() as u8),
            refb: std::array::from_fn(|_| rng.next_u64() as u8),
        })
        .collect();
    let flat = |cur: u8, refb: u8| SadPair { cur: [cur; SAD_PIXELS], refb: [refb; SAD_PIXELS] };
    let edges = [flat(0, 0), flat(255, 255), flat(255, 0)];
    let mixed = (0..n).map(|i| if i % 4 == 0 { random[i] } else { edges[i % 4 - 1] }).collect();
    let mut batches = vec![random];
    batches.extend(edges.iter().map(|&e| vec![e; n]));
    batches.push(mixed);
    batches
}

/// FIR stream lengths, cycled over a batch: shorter than half the 9-tap
/// filter, around it, around the full window and past it, so a batch of
/// 25 or more streams reaches every tap window.
const FIR_LENGTHS: [usize; 7] = [1, 2, 4, 5, 8, 9, 17];

/// DCT block counts around the 16-blocks-per-pass boundary.
const DCT_COUNTS: [usize; 8] = [0, 1, 15, 16, 17, 63, 64, 65];

/// `n` seeded FIR streams of lengths cycling through [`FIR_LENGTHS`].
fn fir_streams(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = DefaultRng::seed_from_u64(seed);
    (0..n)
        .map(|i| (0..FIR_LENGTHS[i % FIR_LENGTHS.len()]).map(|_| rng.next_u64() as u8).collect())
        .collect()
}

/// `n` DCT residual blocks: seeded random residuals, then the ±255
/// extremes that drive the 16-bit words through their sign bits — flat
/// +255 and −255 blocks and alternating-sign rows, columns and
/// checkerboards — and those patterns interleaved block by block.
fn dct_batches(n: usize, seed: u64) -> Vec<Vec<[i16; DCT_BLOCK]>> {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let random: Vec<[i16; DCT_BLOCK]> =
        (0..n).map(|_| std::array::from_fn(|_| (rng.next_u64() % 511) as i16 - 255)).collect();
    let sign = |neg: bool| if neg { -255 } else { 255 };
    let edges: [[i16; DCT_BLOCK]; 5] = [
        [255; DCT_BLOCK],
        [-255; DCT_BLOCK],
        std::array::from_fn(|i| sign(i / 4 % 2 == 1)),
        std::array::from_fn(|i| sign(i % 2 == 1)),
        std::array::from_fn(|i| sign((i / 4 + i) % 2 == 1)),
    ];
    let mixed = (0..n).map(|i| if i % 6 == 0 { random[i] } else { edges[i % 6 - 1] }).collect();
    let mut batches = vec![random];
    batches.extend(edges.iter().map(|&e| vec![e; n]));
    batches.push(mixed);
    batches
}

/// Every boundary batch size, at every plane-block width and through the
/// auto-width dispatcher, reproduces the scalar golden model per item —
/// for the multiplier pairs and, on every SAD, FIR and DCT ladder rung,
/// for the server's batched paths.
#[test]
fn boundary_batch_sizes_match_scalar() {
    for (kind, cols) in [(FullAdderKind::Accurate, 0), (FullAdderKind::Apx2, 5)] {
        let (m, prog) = compiled(kind, cols);
        for (si, &n) in SIZES.iter().enumerate() {
            let pairs = seeded_pairs(n, 0xBA7C_0000 + si as u64);
            let expect: Vec<u64> = pairs.iter().map(|&(a, b)| m.mul(a, b)).collect();
            assert_eq!(eval_pairs::<u64>(&prog, 8, &pairs), expect, "{} n={n} u64", m.name());
            assert_eq!(
                eval_pairs::<[u64; 4]>(&prog, 8, &pairs),
                expect,
                "{} n={n} [u64;4]",
                m.name()
            );
            assert_eq!(
                eval_pairs::<[u64; 8]>(&prog, 8, &pairs),
                expect,
                "{} n={n} [u64;8]",
                m.name()
            );
            assert_eq!(eval_pairs_auto(&prog, 8, &pairs), expect, "{} n={n} auto", m.name());
        }
    }
    let ladders = Ladders::build();
    for entry in &ladders.sad {
        let widen = |px: &[u8; SAD_PIXELS]| px.map(u64::from);
        for (si, &n) in SIZES.iter().enumerate() {
            for (k, blocks) in sad_batches(n, 0x5AD_0000 + si as u64).iter().enumerate() {
                let expect: Vec<u32> = blocks
                    .iter()
                    .map(|b| entry.sad.sad(&widen(&b.cur), &widen(&b.refb)).unwrap() as u32)
                    .collect();
                assert_eq!(eval_sad(entry, blocks), expect, "{} n={n} batch {k}", entry.info.label);
            }
        }
    }
    for entry in &ladders.fir {
        for (si, &n) in SIZES.iter().enumerate() {
            let streams = fir_streams(n, 0xF1_0000 + si as u64);
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let expect: Vec<Vec<i32>> = streams
                .iter()
                .map(|s| {
                    let wide: Vec<u64> = s.iter().map(|&v| u64::from(v)).collect();
                    entry.fir.apply(&wide).into_iter().map(|v| v as i32).collect()
                })
                .collect();
            assert_eq!(eval_fir(entry, &refs), expect, "{} n={n}", entry.info.label);
        }
    }
    for entry in &ladders.dct {
        for (ci, &n) in DCT_COUNTS.iter().enumerate() {
            for (k, blocks) in dct_batches(n, 0xDC7_0000 + ci as u64).iter().enumerate() {
                let expect: Vec<[i16; DCT_BLOCK]> = blocks
                    .iter()
                    .map(|blk| {
                        let grid = std::array::from_fn(|r| {
                            std::array::from_fn(|c| i64::from(blk[4 * r + c]))
                        });
                        let y = entry.dct.forward(&grid);
                        std::array::from_fn(|i| y[i / 4][i % 4] as i16)
                    })
                    .collect();
                assert_eq!(eval_dct(entry, blocks), expect, "{} n={n} batch {k}", entry.info.label);
            }
        }
    }
}

/// Slicing one workload into boundary-sized sub-batches changes nothing:
/// the concatenation of per-slice results equals the one-shot result
/// (which itself equals the scalar model). This is the exact invariant
/// the server's coalescer relies on when it splits and regroups
/// requests.
#[test]
fn sliced_evaluation_equals_one_shot() {
    let (m, prog) = compiled(FullAdderKind::Apx1, 4);
    let pairs = seeded_pairs(1400, 0x51_1CED);
    let expect: Vec<u64> = pairs.iter().map(|&(a, b)| m.mul(a, b)).collect();
    assert_eq!(eval_pairs_auto(&prog, 8, &pairs), expect, "one-shot");
    for &n in &SIZES {
        let sliced: Vec<u64> = pairs.chunks(n).flat_map(|c| eval_pairs_auto(&prog, 8, c)).collect();
        assert_eq!(sliced, expect, "slice size {n}");
    }
}

/// The auto chunk size that triggered the original defect now respects
/// the documented floor: every non-final chunk is a whole number of
/// 512-lane blocks, so partial blocks only ever appear once, at the end.
#[test]
fn auto_chunk_floor_keeps_chunks_block_aligned() {
    for trials in [1u64, 63, 64, 65, 511, 513, 1000, 4096, 100_000] {
        let c = auto_chunk_size(trials);
        assert!(c >= MIN_AUTO_CHUNK, "auto_chunk_size({trials}) = {c} below floor");
        assert!(c.is_multiple_of(512), "auto_chunk_size({trials}) = {c} not block-aligned");
    }
}
