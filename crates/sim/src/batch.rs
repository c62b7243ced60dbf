//! Batched request-sized entry points onto the compiled fast path.
//!
//! The Monte-Carlo sweep drivers in [`crate::sweeps`] always draw full
//! 64-lane operand batches and only trim the *trailing* lanes of a sweep.
//! A serving layer has the opposite shape: it receives arbitrary-length
//! operand batches (one lane per in-flight request) that are usually
//! *smaller* than one plane block, and it must still ride the compiled
//! bit-plane programs of [`crate::jit`] without ever returning garbage
//! from uninhabited lanes.
//!
//! [`eval_pairs`] is that entry point. Its **pad-and-mask discipline**:
//!
//! * lanes `0..len` carry the caller's operands in order;
//! * every other lane of the block is padded with the all-zero operand
//!   (a deterministic value, so a batch of length `n` produces the same
//!   plane words on every run and at every thread count);
//! * only lanes `0..len` are transposed back out — padded lanes are
//!   masked away and never observable.
//!
//! The differential contract (`tests/batch_padding.rs`) pins
//! `eval_pairs(prog, w, pairs)[i] == scalar(pairs[i])` for ragged batch
//! sizes on both sides of every lane-width boundary (1, 63, 64, 65, 511,
//! 513).

use crate::jit::CompiledProgram;
use xlac_core::lanes::{self, PlaneBlock, LANES};

/// One 64-lane word of operand pairs: the `a` lanes, then the `b` lanes.
pub(crate) type Pair = ([u64; LANES], [u64; LANES]);

/// Writes the input planes of one word of a two-operand program: operand
/// `a` into planes `0..width`, operand `b` into planes `width..2·width`.
pub(crate) fn pack_pair(planes: &mut [u64], (a, b): &Pair, width: usize) {
    let (pa, pb) = planes.split_at_mut(width);
    lanes::to_planes_into(a, width, pa);
    lanes::to_planes_into(b, width, pb);
}

/// An evaluator running `prog` on `B`-wide plane blocks: the one place
/// that packs up to `B::WORDS` 64-lane words into blocks (`pack` writes a
/// word's input planes; unused words stay zero), runs the program and
/// appends each word's 64 lane values to the output.
pub(crate) fn block_evaluator<'p, B: PlaneBlock, W>(
    prog: &'p CompiledProgram,
    pack: impl Fn(&W, &mut [u64]) + Clone + 'p,
) -> impl FnMut(&[W], &mut Vec<[u64; LANES]>) + Clone + 'p {
    assert!(prog.n_outputs() <= 64, "more than 64 outputs exceed a u64 lane value");
    let (n_in, n_out) = (prog.n_inputs(), prog.n_outputs());
    let (mut inputs, mut regs, mut outs) = (vec![B::zeros(); n_in], Vec::new(), Vec::new());
    let mut planes = vec![0u64; n_in.max(n_out)];
    move |words, out| {
        inputs.fill(B::zeros());
        for (s, word) in words.iter().enumerate() {
            pack(word, &mut planes[..n_in]);
            for (inp, &p) in inputs.iter_mut().zip(&planes) {
                inp.set_word(s, p);
            }
        }
        prog.run_into(&inputs, &mut regs, &mut outs);
        for s in 0..words.len() {
            for (p, o) in planes.iter_mut().zip(&outs) {
                *p = o.word(s);
            }
            out.push(lanes::from_planes(&planes[..n_out]));
        }
    }
}

/// Evaluates an arbitrary-length batch of operand pairs through a
/// compiled two-operand program (operand `a` in inputs `0..width`,
/// operand `b` in inputs `width..2·width`), `64 × B::WORDS` pairs per
/// program pass.
///
/// Returns one lane value per input pair, in input order. Partial blocks
/// are padded with zero operands and masked back out (see the module
/// docs), so any `pairs.len()` — including sizes below one plane block —
/// is exact.
///
/// # Panics
///
/// Panics when the program does not have `2 × width` inputs or has more
/// than 64 outputs (a lane value would not fit `u64`).
#[must_use]
pub fn eval_pairs<B: PlaneBlock>(
    prog: &CompiledProgram,
    width: usize,
    pairs: &[(u64, u64)],
) -> Vec<u64> {
    assert_eq!(prog.n_inputs(), 2 * width, "program inputs must be 2 x width");
    let mut eval = block_evaluator::<B, _>(prog, |p, planes| pack_pair(planes, p, width));
    // Pad-and-mask: the lanes past the last pair carry the zero operand,
    // and their values are cut off the end of the output.
    let lane = |word: &[(u64, u64)], f: fn(&(u64, u64)) -> u64| -> [u64; LANES] {
        std::array::from_fn(|j| word.get(j).map_or(0, f))
    };
    let words: Vec<Pair> =
        pairs.chunks(LANES).map(|w| (lane(w, |p| p.0), lane(w, |p| p.1))).collect();
    let mut vals = Vec::with_capacity(words.len());
    for block in words.chunks(B::WORDS) {
        eval(block, &mut vals);
    }
    vals.into_iter().flatten().take(pairs.len()).collect()
}

/// [`eval_pairs`] with the plane-block width chosen from the batch size:
/// batches that fit one 64-lane word run at `u64`, up to 256 lanes at
/// `[u64; 4]`, and anything larger at `[u64; 8]`. Every width obeys the
/// same pad-and-mask discipline, so the choice is a pure throughput
/// decision — the returned values are identical at any width.
#[must_use]
pub fn eval_pairs_auto(prog: &CompiledProgram, width: usize, pairs: &[(u64, u64)]) -> Vec<u64> {
    if pairs.len() <= LANES {
        eval_pairs::<u64>(prog, width, pairs)
    } else if pairs.len() <= 4 * LANES {
        eval_pairs::<[u64; 4]>(prog, width, pairs)
    } else {
        eval_pairs::<[u64; 8]>(prog, width, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlac_adders::FullAdderKind;
    use xlac_core::rng::{DefaultRng, Rng};
    use xlac_multipliers::{Multiplier, WallaceMultiplier};

    fn compiled_wallace() -> (WallaceMultiplier, CompiledProgram) {
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
        let prog = CompiledProgram::compile(&xlac_multipliers::hw::wallace_netlist(&m));
        (m, prog)
    }

    #[test]
    fn ragged_batches_match_the_scalar_model_at_every_width() {
        let (m, prog) = compiled_wallace();
        let mut rng = DefaultRng::seed_from_u64(0xBA7C);
        for len in [0usize, 1, 63, 64, 65, 511, 513] {
            let pairs: Vec<(u64, u64)> =
                (0..len).map(|_| (rng.next_u64() & 0xFF, rng.next_u64() & 0xFF)).collect();
            let expect: Vec<u64> = pairs.iter().map(|&(a, b)| m.mul(a, b)).collect();
            assert_eq!(eval_pairs::<u64>(&prog, 8, &pairs), expect, "u64 len {len}");
            assert_eq!(eval_pairs::<[u64; 4]>(&prog, 8, &pairs), expect, "[u64;4] len {len}");
            assert_eq!(eval_pairs::<[u64; 8]>(&prog, 8, &pairs), expect, "[u64;8] len {len}");
            assert_eq!(eval_pairs_auto(&prog, 8, &pairs), expect, "auto len {len}");
        }
    }

    #[test]
    fn padded_lanes_are_invisible() {
        // The same leading operands must produce the same leading values
        // regardless of how much of the block the batch inhabits.
        let (_, prog) = compiled_wallace();
        let pairs: Vec<(u64, u64)> = (0..200u64).map(|i| (i & 0xFF, (i * 7) & 0xFF)).collect();
        let full = eval_pairs::<[u64; 8]>(&prog, 8, &pairs);
        for cut in [1usize, 64, 65, 199] {
            assert_eq!(eval_pairs::<[u64; 8]>(&prog, 8, &pairs[..cut]), full[..cut], "{cut}");
        }
    }
}
