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
//!
//! [`FirWindows`] applies the same discipline to a FIR filter, whose
//! outputs do not share one circuit: near a stream's ends some taps fall
//! outside it, so each output belongs to one *window* of in-range taps,
//! and every window is compiled — on first use — into its own program.

use std::sync::OnceLock;

use crate::jit::CompiledProgram;
use xlac_accel::fir::FirAccelerator;
use xlac_accel::hw::fir_netlist;
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

/// The tap-window programs of one FIR filter, each compiled from
/// [`fir_netlist`] the first time an output needs it.
///
/// Output `n` of a length-`L` stream reads the taps
/// `max(0, half − n) .. min(taps, L + half − n)`, where `half = taps / 2`.
/// The window starts in `0..=half` and ends in `half + 1..=taps`, so a
/// filter has at most `(half + 1) · (taps − half)` windows: 25 for 9 taps.
/// Taps outside the window are skipped, not fed zero (approximate cells
/// need not satisfy `x + 0 = x`), which is why each window is a circuit
/// of its own.
#[derive(Debug)]
pub struct FirWindows {
    taps: usize,
    programs: Box<[OnceLock<CompiledProgram>]>,
}

impl FirWindows {
    /// The (not yet compiled) windows of `fir`.
    #[must_use]
    pub fn new(fir: &FirAccelerator) -> FirWindows {
        let taps = fir.taps();
        let half = taps / 2;
        FirWindows {
            taps,
            programs: (0..(half + 1) * (taps - half)).map(|_| OnceLock::new()).collect(),
        }
    }

    /// How many windows have been compiled so far.
    #[must_use]
    pub fn compiled(&self) -> usize {
        self.programs.iter().filter(|p| p.get().is_some()).count()
    }

    /// Filters every stream through the compiled windows, one output per
    /// lane: all outputs of all streams that share a window share its
    /// program passes, so streams of any lengths can be mixed. Padded
    /// lanes carry zero samples and are masked out.
    ///
    /// `fir` must be the filter these windows were made for: a window's
    /// program is compiled from it on first use. Bit-identical per stream
    /// to [`FirAccelerator::apply`].
    ///
    /// # Panics
    ///
    /// Panics when `fir` has a different tap count than the windows.
    #[must_use]
    pub fn eval(&self, fir: &FirAccelerator, streams: &[&[u8]]) -> Vec<Vec<i64>> {
        const SAMPLE_BITS: usize = FirAccelerator::SAMPLE_BITS;
        assert_eq!(fir.taps(), self.taps, "windows belong to a {}-tap filter", self.taps);
        let half = self.taps / 2;
        let ends = self.taps - half;
        // Every output, as (stream, position), under its window's index.
        let mut by_window: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.programs.len()];
        for (i, s) in streams.iter().enumerate() {
            for n in 0..s.len() {
                let start = half.saturating_sub(n);
                let end = self.taps.min(s.len() + half - n);
                by_window[start * ends + end - half - 1].push((i, n));
            }
        }
        let mut out: Vec<Vec<i64>> = streams.iter().map(|s| vec![0; s.len()]).collect();
        let acc = FirAccelerator::accumulator_bits();
        let (mut inputs, mut regs, mut planes) = (Vec::new(), Vec::new(), Vec::new());
        for (w, outputs) in by_window.iter().enumerate().filter(|(_, o)| !o.is_empty()) {
            let (start, end) = (w / ends, w % ends + half + 1);
            let prog = self.programs[w]
                .get_or_init(|| CompiledProgram::compile(&fir_netlist(fir, start..end)));
            inputs.resize(SAMPLE_BITS * (end - start), 0);
            for chunk in outputs.chunks(LANES) {
                // Each lane packs 8 of its window's samples per word, byte
                // `t` holding the sample under tap `start + 8g + t`: one
                // transpose yields the planes of 8 taps in port order.
                for (g, dst) in inputs.chunks_mut(64).enumerate() {
                    let word = std::array::from_fn(|j| {
                        chunk.get(j).map_or(0, |&(i, n)| {
                            let first = n + start + 8 * g - half;
                            let samples = &streams[i][first..first + dst.len() / SAMPLE_BITS];
                            samples.iter().rev().fold(0, |word, &v| word << 8 | u64::from(v))
                        })
                    });
                    lanes::to_planes_into(&word, dst.len(), dst);
                }
                prog.run_into::<u64>(&inputs, &mut regs, &mut planes);
                // Lane value: the positive rail in bits 0..22, the negative above.
                let rails = lanes::from_planes(&planes);
                for (&(i, n), &v) in chunk.iter().zip(&rails) {
                    out[i][n] = (v & ((1 << acc) - 1)) as i64 - (v >> acc) as i64;
                }
            }
        }
        out
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
    fn fir_windows_match_scalar_per_stream() {
        use xlac_accel::config::ApproxMode;
        let mut rng = DefaultRng::seed_from_u64(0xF1A);
        let h = [3i64, -5, 0, 7, -1];
        for mode in ApproxMode::ALL {
            let fir = FirAccelerator::new(&h, mode).unwrap();
            let windows = FirWindows::new(&fir);
            // 64 independent 12-sample streams: one lane per output.
            let streams: Vec<Vec<u8>> = (0..64)
                .map(|_| (0..12).map(|_| rng.gen_range(0..256u64) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let got = windows.eval(&fir, &refs);
            for (j, stream) in streams.iter().enumerate() {
                let wide: Vec<u64> = stream.iter().map(|&v| u64::from(v)).collect();
                assert_eq!(got[j], fir.apply(&wide), "{mode} stream {j}");
            }
            // A 12-sample stream of a 5-tap filter touches 5 windows.
            assert_eq!(windows.compiled(), 5, "{mode}");
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
