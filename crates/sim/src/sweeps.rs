//! Monte-Carlo sweep drivers on the bit-sliced evaluators.
//!
//! Every public sweep is a short call into one private driver, `drive`,
//! which owns the chunking, the draws, the ragged-tail mask, accumulation
//! and the chunk-order merge; a sweep picks only its operand batch, its
//! evaluator, its exact reference and its side sums. Each bit-sliced
//! sweep has a `_scalar` twin evaluating the same operands
//! one lane at a time through the golden scalar models, so their results
//! are **equal by construction** — the scalar twin is the reference the
//! differential tests and the `bitslice` benchmark compare against.

use crate::batch::{block_evaluator, pack_pair, Pair};
use crate::jit::CompiledProgram;
use crate::runner::{run_chunks, DEFAULT_CHUNK};
use xlac_accel::sad::SadAccelerator;
use xlac_adders::GeArAdder;
use xlac_core::dist::InputDistribution;
use xlac_core::lanes::{self, PlaneBlock, LANES};
use xlac_core::metrics::{ErrorAccumulator, ErrorStats};
use xlac_core::rng::{DefaultRng, Rng};
use xlac_logic::Netlist;
use xlac_multipliers::{Multiplier, MultiplierX64};
use xlac_obs::{obs_count, obs_gauge, obs_span};

/// The values of one 64-lane batch.
type Values = [u64; LANES];
/// One 64-lane batch of current/reference pixel values per block slot.
type SadBatch = (Vec<Values>, Vec<Values>);
/// One evaluated GeAr batch: per lane, the sum, the sub-adder detections
/// of the final evaluation and the correction passes.
type GearLanes = (Values, Values, Values);
/// The two side sums a sweep keeps over its unmasked lanes: GeAr
/// detections and correction passes, or the SAD squared error. They are
/// integers, so the chunk merge is exact.
type Side = [u128; 2];

/// Configuration of one Monte-Carlo sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Number of random trials.
    pub trials: u64,
    /// Seed of the parent RNG stream (chunk streams split off it).
    pub seed: u64,
    /// Worker threads; `0` → [`crate::runner::default_threads`].
    pub threads: usize,
    /// Trials per chunk; the chunk size changes which random stream a
    /// trial sees, so sweeps are only comparable at equal chunk sizes.
    pub chunk: u64,
    /// Operand distribution for the pair sweeps. [`InputDistribution::Uniform`]
    /// (the default) consumes the RNG byte-identically to the historical
    /// sweeps, so existing statistics and benchmark series are unchanged.
    pub dist: InputDistribution,
}

impl SweepOptions {
    /// A sweep of `trials` trials from `seed` with default threading,
    /// chunking and uniform operands.
    #[must_use]
    pub fn new(trials: u64, seed: u64) -> Self {
        SweepOptions {
            trials,
            seed,
            threads: 0,
            chunk: DEFAULT_CHUNK,
            dist: InputDistribution::Uniform,
        }
    }

    /// Sets the operand distribution of the pair sweeps (the SAD sweeps
    /// always draw uniform pixels).
    #[must_use]
    pub fn dist(mut self, dist: InputDistribution) -> Self {
        self.dist = dist;
        self
    }

    /// Sets the worker-thread count (`0` restores the default).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the chunk size (`0` engages auto-tuning, see
    /// [`SweepOptions::auto_chunk`]).
    #[must_use]
    pub fn chunk(mut self, chunk: u64) -> Self {
        self.chunk = chunk;
        self
    }

    /// Auto-tunes the chunk size from the trial count
    /// ([`crate::runner::auto_chunk_size`]): ~64 chunks per sweep, so
    /// sweeps smaller than `64 × DEFAULT_CHUNK` trials still load-balance
    /// across workers. The tuned size is a pure function of `trials`, so
    /// results remain thread-count invariant — but they differ from a
    /// fixed-chunk sweep over the same seed, since the chunk size selects
    /// each trial's RNG stream.
    #[must_use]
    pub fn auto_chunk(mut self) -> Self {
        self.chunk = 0;
        self
    }
}

/// The one Monte-Carlo driver behind every public sweep. Each chunk of
/// [`run_chunks`] draws exactly `ceil(n / 64)` batches with `draw`, in
/// order, and hands them up to `pass` at a time to its own evaluator (one
/// output per batch). Lanes past the chunk's last trial are masked; the
/// others fill one `exact` and one `approx` array per batch, where
/// `lane(output, j, exact)` gives `approx` and the side sums, and each
/// batch goes into the error accumulator in one
/// [`ErrorAccumulator::push_lanes`] call. Chunks merge in chunk order as
/// they finish, whatever the thread count.
fn drive<Op, Out, E: FnMut(&[Op], &mut Vec<Out>)>(
    opts: &SweepOptions,
    pass: usize,
    draw: impl Fn(&mut DefaultRng) -> Op + Sync,
    evaluator: impl Fn() -> E + Sync,
    exact: impl Fn(&Op, usize) -> u64 + Sync,
    lane: impl Fn(&Out, usize, u64) -> (u64, Side) + Sync,
) -> (ErrorStats, Side) {
    let eval_chunk = |_, n: u64, mut rng: DefaultRng| {
        let (mut eval, mut acc, mut side) = (evaluator(), ErrorAccumulator::new(), [0; 2]);
        let (mut ops, mut outs) = (Vec::with_capacity(pass), Vec::with_capacity(pass));
        let mut remaining = n;
        while remaining > 0 {
            let batches = remaining.div_ceil(LANES as u64).min(pass as u64);
            ops.clear();
            ops.extend((0..batches).map(|_| draw(&mut rng)));
            outs.clear();
            eval(&ops, &mut outs);
            for (op, out) in ops.iter().zip(&outs) {
                let lanes_n = remaining.min(LANES as u64) as usize;
                let (mut e, mut a) = ([0; LANES], [0; LANES]);
                for j in 0..lanes_n {
                    e[j] = exact(op, j);
                    let (v, s) = lane(out, j, e[j]);
                    a[j] = v;
                    side = add(side, s);
                }
                acc.push_lanes(&e[..lanes_n], &a[..lanes_n]);
                remaining -= lanes_n as u64;
            }
        }
        obs_count!("sim.sweep.lanes", n.div_ceil(LANES as u64) * LANES as u64);
        (acc, side)
    };
    let (total, side) = run_chunks(
        opts.trials,
        opts.seed,
        opts.threads,
        opts.chunk,
        eval_chunk,
        (ErrorAccumulator::new(), [0; 2]),
        |(total, side): &mut (ErrorAccumulator, Side), (acc, s): (ErrorAccumulator, Side)| {
            total.merge(&acc);
            *side = add(*side, s);
        },
    );
    let stats = total.finish();
    // Published on the caller thread after the deterministic merge.
    obs_count!("sim.sweep.errors", stats.error_count);
    obs_gauge!("sim.sweep.distinct_error_values", stats.distinct_error_values.len() as f64);
    obs_gauge!("sim.sweep.distinct_saturated", f64::from(u8::from(stats.distinct_saturated)));
    (stats, side)
}

fn add(x: Side, y: Side) -> Side {
    [x[0] + y[0], x[1] + y[1]]
}

/// A per-chunk evaluator that maps each batch through `f` on its own.
fn each<Op, Out>(mut f: impl FnMut(&Op) -> Out) -> impl FnMut(&[Op], &mut Vec<Out>) {
    move |ops, outs| outs.extend(ops.iter().map(&mut f))
}

/// A lane of plain values, with no side sums.
fn plain(out: &Values, j: usize, _: u64) -> (u64, Side) {
    (out[j], [0; 2])
}

/// The `w`-bit planes of both operands of a pair, in the low `w` words of
/// two stack arrays.
fn pair_planes((a, b): &Pair, w: usize) -> Pair {
    let (mut pa, mut pb) = ([0; LANES], [0; LANES]);
    lanes::to_planes_into(a, w, &mut pa[..w]);
    lanes::to_planes_into(b, w, &mut pb[..w]);
    (pa, pb)
}

/// [`drive`] over `width`-bit operand pairs drawn from `opts.dist` (one
/// `draw_batch` per operand array, so the uniform path consumes the RNG
/// byte for byte like the historical sweeps), against `exact(a, b)`.
fn pair_drive<Out, E: FnMut(&[Pair], &mut Vec<Out>)>(
    opts: &SweepOptions,
    width: usize,
    pass: usize,
    evaluator: impl Fn() -> E + Sync,
    exact: impl Fn(u64, u64) -> u64 + Sync,
    lane: impl Fn(&Out, usize, u64) -> (u64, Side) + Sync,
) -> (ErrorStats, Side) {
    let draw =
        |rng: &mut DefaultRng| (opts.dist.draw_batch(rng, width), opts.dist.draw_batch(rng, width));
    drive(opts, pass, draw, evaluator, |(a, b): &Pair, j| exact(a[j], b[j]), lane)
}

/// Monte-Carlo error sweep of a multiplier on the bit-sliced evaluator:
/// uniform operand pairs, exact product as reference.
pub fn multiplier_sweep<M: MultiplierX64 + ?Sized>(m: &M, opts: &SweepOptions) -> ErrorStats {
    let _span = obs_span!("sim.multiplier_sweep");
    let w = m.width();
    let eval = |p: &Pair| {
        let (a, b) = pair_planes(p, w);
        lanes::from_planes(&m.mul_x64(&a[..w], &b[..w]))
    };
    pair_drive(opts, w, 1, || each(eval), |a, b| a * b, plain).0
}

/// The scalar twin of [`multiplier_sweep`]: same operands, evaluated one
/// lane at a time through [`Multiplier::mul`]. Always equal to the
/// bit-sliced sweep; exists as the golden reference and the benchmark
/// baseline.
pub fn multiplier_sweep_scalar<M: Multiplier + Sync + ?Sized>(
    m: &M,
    opts: &SweepOptions,
) -> ErrorStats {
    let _span = obs_span!("sim.multiplier_sweep_scalar");
    let eval = |(a, b): &Pair| -> Values { std::array::from_fn(|j| m.mul(a[j], b[j])) };
    pair_drive(opts, m.width(), 1, || each(eval), |a, b| a * b, plain).0
}

/// Monte-Carlo error sweep of a compiled two-operand datapath
/// ([`CompiledProgram`] over a `2·width`-input netlist, operand `a` in
/// inputs `0..width`) on `B`-wide plane blocks: `64 × B::WORDS` trials
/// per program pass, with `exact(a, b)` as the per-trial reference.
///
/// **Operand discipline:** each chunk draws the same 64-lane batches in
/// the same order as [`multiplier_sweep`] — wide blocks pack *consecutive*
/// batches into consecutive block words instead of changing the draw
/// order. The statistics are therefore bitwise-identical across plane
/// widths and equal to the scalar/interpreted twins by construction.
///
/// # Panics
///
/// Panics when the program does not have `2 × width` inputs or has more
/// than 64 outputs.
pub fn compiled_pair_sweep<B, F>(
    prog: &CompiledProgram,
    width: usize,
    exact: F,
    opts: &SweepOptions,
) -> ErrorStats
where
    B: PlaneBlock,
    F: Fn(u64, u64) -> u64 + Sync,
{
    let _span = obs_span!("sim.compiled_pair_sweep");
    assert_eq!(prog.n_inputs(), 2 * width, "program inputs must be 2 x width");
    let eval = block_evaluator::<B, _>(prog, move |p, planes| pack_pair(planes, p, width));
    pair_drive(opts, width, B::WORDS, || eval.clone(), exact, plain).0
}

/// The interpreted twin of [`compiled_pair_sweep`]: the same operands,
/// evaluated through [`Netlist::eval_words_into`] (per-gate dispatch on
/// `u64` planes). This is the baseline the JIT throughput gate measures
/// against, and a third voter in the differential tests.
///
/// # Panics
///
/// Panics when the netlist does not have `2 × width` inputs or has more
/// than 64 outputs.
pub fn interpreted_pair_sweep<F>(
    netlist: &Netlist,
    width: usize,
    exact: F,
    opts: &SweepOptions,
) -> ErrorStats
where
    F: Fn(u64, u64) -> u64 + Sync,
{
    let _span = obs_span!("sim.interpreted_pair_sweep");
    assert_eq!(netlist.n_inputs(), 2 * width, "netlist inputs must be 2 x width");
    assert!(netlist.n_outputs() <= 64, "more than 64 outputs exceed a u64 lane value");
    let evaluator = || {
        let (mut inputs, mut values, mut outputs) = (vec![0; 2 * width], Vec::new(), Vec::new());
        each(move |p: &Pair| {
            pack_pair(&mut inputs, p, width);
            netlist.eval_words_into(&inputs, &mut values, &mut outputs);
            lanes::from_planes(&outputs)
        })
    };
    pair_drive(opts, width, 1, evaluator, exact, plain).0
}

/// The outcome of a GeAr Monte-Carlo sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GearSweepResult {
    /// Error statistics of the (possibly corrected) sums against `a + b`.
    pub stats: ErrorStats,
    /// Total sub-adder detections that fired in final evaluations.
    pub detections: u64,
    /// Total correction passes executed across all trials.
    pub correction_iterations: u64,
}

/// [`pair_drive`] of a GeAr adder against `a + b`, with its detections
/// and correction passes as the side sums.
fn gear_drive<E: FnMut(&[Pair], &mut Vec<GearLanes>)>(
    adder: &GeArAdder,
    opts: &SweepOptions,
    evaluator: impl Fn() -> E + Sync,
) -> GearSweepResult {
    let lane = |(v, d, i): &GearLanes, j: usize, _| (v[j], [d[j], i[j]].map(u128::from));
    let (stats, side) = pair_drive(opts, adder.n(), 1, evaluator, |a, b| a + b, lane);
    let [detections, correction_iterations] =
        side.map(|s| u64::try_from(s).expect("tallies fit u64"));
    obs_count!("sim.gear.detections", detections);
    obs_count!("sim.gear.correction_iterations", correction_iterations);
    GearSweepResult { stats, detections, correction_iterations }
}

/// Monte-Carlo sweep of a GeAr adder on the bit-sliced evaluator.
/// `max_iterations: None` runs the plain approximate add; `Some(k)`
/// engages the error-detection-and-correction loop with that pass budget.
pub fn gear_sweep(
    adder: &GeArAdder,
    max_iterations: Option<usize>,
    opts: &SweepOptions,
) -> GearSweepResult {
    let _span = obs_span!("sim.gear_sweep");
    // The plain add is the correction loop with a zero-pass budget.
    let (w, k) = (adder.n(), max_iterations.unwrap_or(0));
    let eval = |p: &Pair| {
        let (a, b) = pair_planes(p, w);
        let o = adder.add_with_correction_x64(&a[..w], &b[..w], k);
        let widen = |x: [u8; LANES]| x.map(u64::from);
        (lanes::from_planes(&o.value), widen(o.errors_detected), widen(o.correction_iterations))
    };
    gear_drive(adder, opts, || each(eval))
}

/// The scalar twin of [`gear_sweep`] (see [`multiplier_sweep_scalar`]).
pub fn gear_sweep_scalar(
    adder: &GeArAdder,
    max_iterations: Option<usize>,
    opts: &SweepOptions,
) -> GearSweepResult {
    let _span = obs_span!("sim.gear_sweep_scalar");
    let k = max_iterations.unwrap_or(0);
    let eval = |(a, b): &Pair| {
        let o: [_; LANES] = std::array::from_fn(|j| adder.add_with_correction(a[j], b[j], k));
        let det = o.each_ref().map(|o| o.errors_detected as u64);
        (o.each_ref().map(|o| o.value), det, o.each_ref().map(|o| o.correction_iterations as u64))
    };
    gear_drive(adder, opts, || each(eval))
}

/// The outcome of a SAD Monte-Carlo sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SadSweepResult {
    /// Error statistics of the approximate SAD against the exact SAD.
    pub stats: ErrorStats,
    /// Mean squared error of the SAD values. `None` for a 0-trial sweep —
    /// never a `NaN` placeholder.
    pub mse: Option<f64>,
    /// PSNR derived from `mse` via [`xlac_quality::psnr_from_mse`]
    /// (8-bit dynamic-range convention). `None` when no trials ran or
    /// when the MSE is zero (infinite PSNR, unrepresentable in JSON).
    pub psnr: Option<f64>,
}

/// Draws one batch of 64 random block pairs, pixel-slot-major, with 8-bit
/// pixels.
fn draw_blocks(rng: &mut DefaultRng, slots: usize) -> SadBatch {
    let mut pixels = || {
        let mut v = [0u64; LANES];
        rng.fill_u64(&mut v);
        v.map(|p| p & 0xFF)
    };
    (0..slots).map(|_| (pixels(), pixels())).unzip()
}

/// A SAD lane, with its squared error as the first side sum.
fn squared_error(out: &Values, j: usize, exact: u64) -> (u64, Side) {
    let d = u128::from(exact.abs_diff(out[j]));
    (out[j], [d * d, 0])
}

/// [`drive`] over random `slots`-pixel block pairs against the exact SAD
/// (`SadAccelerator::sad_exact` of each lane's blocks). The MSE divides
/// the exact sum of squared errors once, at the end.
fn sad_drive<E: FnMut(&[SadBatch], &mut Vec<Values>)>(
    slots: usize,
    opts: &SweepOptions,
    pass: usize,
    evaluator: impl Fn() -> E + Sync,
) -> SadSweepResult {
    let draw = |rng: &mut DefaultRng| draw_blocks(rng, slots);
    let exact = |(cur, refb): &SadBatch, j: usize| {
        cur.iter().zip(refb).map(|(c, r)| c[j].abs_diff(r[j])).sum()
    };
    let (stats, [sum_sq, _]) = drive(opts, pass, draw, evaluator, exact, squared_error);
    let mse = (stats.samples > 0).then(|| sum_sq as f64 / stats.samples as f64);
    obs_gauge!("sim.sad.mse", mse.unwrap_or(0.0));
    let psnr = mse.filter(|&m| m > 0.0).map(xlac_quality::psnr_from_mse);
    SadSweepResult { stats, mse, psnr }
}

/// Monte-Carlo sweep of a SAD accelerator on its bit-sliced datapath:
/// uniform random block pairs, exact SAD as reference. Each trial is one
/// block pair. The datapath is the accelerator's elaborated netlist
/// (`xlac_accel::hw::sad_netlist`), compiled once and run by
/// [`compiled_sad_sweep`] 512 block pairs per pass.
pub fn sad_sweep(sad: &SadAccelerator, opts: &SweepOptions) -> SadSweepResult {
    let _span = obs_span!("sim.sad_sweep");
    let prog = CompiledProgram::compile(&xlac_accel::hw::sad_netlist(sad));
    compiled_sad_sweep::<[u64; 8]>(&prog, opts)
}

/// The scalar twin of [`sad_sweep`] (see [`multiplier_sweep_scalar`]).
pub fn sad_sweep_scalar(sad: &SadAccelerator, opts: &SweepOptions) -> SadSweepResult {
    let _span = obs_span!("sim.sad_sweep_scalar");
    let eval = |(cur, refb): &SadBatch| -> Values {
        std::array::from_fn(|j| {
            let block = |slots: &Vec<Values>| -> Vec<u64> { slots.iter().map(|s| s[j]).collect() };
            sad.sad(&block(cur), &block(refb)).expect("drawn pixels are 8-bit in-range")
        })
    };
    sad_drive(sad.lanes(), opts, 1, || each(eval))
}

/// Monte-Carlo sweep of a *compiled* SAD datapath
/// (`xlac_accel::hw::sad_netlist` → [`CompiledProgram`]) on `B`-wide
/// plane blocks, with the exact SAD as reference. Draws the identical
/// block batches as [`sad_sweep_scalar`] in the identical order (wide
/// blocks pack consecutive batches into block words), so the result
/// equals the scalar sweep at every block width by construction.
///
/// The slot count comes from the program: `n_inputs / 16` (two 8-bit
/// pixel operands per slot, current block first, slot-major).
///
/// # Panics
///
/// Panics when the program's input count is not a positive multiple of
/// `2 × PIXEL_BITS` or it has more than 64 outputs.
pub fn compiled_sad_sweep<B: PlaneBlock>(
    prog: &CompiledProgram,
    opts: &SweepOptions,
) -> SadSweepResult {
    let _span = obs_span!("sim.compiled_sad_sweep");
    let pixel = SadAccelerator::PIXEL_BITS;
    assert!(
        prog.n_inputs().is_multiple_of(2 * pixel) && prog.n_inputs() > 0,
        "SAD program inputs must be 2 x PIXEL_BITS planes per slot"
    );
    // Current-block slots first, then reference-block slots.
    let pack = move |(cur, refb): &SadBatch, planes: &mut [u64]| {
        for (i, v) in cur.iter().chain(refb).enumerate() {
            lanes::to_planes_into(v, pixel, &mut planes[i * pixel..][..pixel]);
        }
    };
    let eval = block_evaluator::<B, _>(prog, pack);
    sad_drive(prog.n_inputs() / (2 * pixel), opts, B::WORDS, || eval.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jit::CompiledMultiplier;
    use xlac_accel::sad::SadVariant;
    use xlac_multipliers::{Mul2x2Kind, RecursiveMultiplier, SumMode};

    #[test]
    fn sliced_and_scalar_multiplier_sweeps_agree() {
        let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        let opts = SweepOptions::new(3_000, 0xA11CE).chunk(512);
        assert_eq!(multiplier_sweep(&m, &opts), multiplier_sweep_scalar(&m, &opts));
    }

    #[test]
    fn sliced_and_scalar_gear_sweeps_agree() {
        let gear = GeArAdder::new(12, 4, 4).unwrap();
        let opts = SweepOptions::new(2_000, 0x6EA2).chunk(256);
        for max_iterations in [None, Some(0), Some(1), Some(usize::MAX)] {
            assert_eq!(
                gear_sweep(&gear, max_iterations, &opts),
                gear_sweep_scalar(&gear, max_iterations, &opts),
                "{max_iterations:?}"
            );
            // The plain add is the zero-budget correction loop.
            if max_iterations.is_none() {
                assert_eq!(gear_sweep(&gear, None, &opts), gear_sweep(&gear, Some(0), &opts));
            }
        }
    }

    #[test]
    fn sliced_and_scalar_sad_sweeps_agree() {
        let sad = SadAccelerator::new(8, SadVariant::ApxSad3, 3).unwrap();
        let opts = SweepOptions::new(1_000, 0x5AD0).chunk(128);
        let sliced = sad_sweep(&sad, &opts);
        let scalar = sad_sweep_scalar(&sad, &opts);
        assert_eq!(sliced, scalar);
        assert_eq!(sliced.stats.samples, 1_000);
        let mse = sliced.mse.expect("a 1000-trial sweep has a defined MSE");
        assert!(mse >= 0.0 && !mse.is_nan());
        if let Some(psnr) = sliced.psnr {
            assert!(psnr.is_finite());
        } else {
            assert_eq!(mse, 0.0);
        }
    }

    #[test]
    fn merged_squared_error_tallies_equal_one_tally_over_both() {
        let tally = |pairs: &[(u64, u64)]| {
            pairs.iter().fold([0; 2], |t, &(exact, approx)| {
                add(t, squared_error(&[approx; LANES], 0, exact).1)
            })
        };
        let first = [(10, 7), (0, 255), (2040, 2040)];
        let second = [(5, 9), (u64::MAX, 0)];
        let both = [first.as_slice(), &second].concat();
        assert_eq!(add(tally(&first), tally(&second)), tally(&both));
        let max = u128::from(u64::MAX);
        assert_eq!(tally(&both), [9 + 255 * 255 + 16 + max * max, 0]);
    }

    #[test]
    fn zero_trial_sweeps_report_explicit_empties() {
        let opts = SweepOptions::new(0, 1).chunk(64);

        let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        let stats = multiplier_sweep(&m, &opts);
        assert_eq!(stats.samples, 0);
        assert!(!stats.error_rate.is_nan() && !stats.mean_error_distance.is_nan());

        let gear = GeArAdder::new(12, 4, 4).unwrap();
        let g = gear_sweep(&gear, Some(1), &opts);
        assert_eq!(g.stats.samples, 0);
        assert_eq!((g.detections, g.correction_iterations), (0, 0));
        assert_eq!(g, gear_sweep_scalar(&gear, Some(1), &opts));

        let sad = SadAccelerator::new(8, SadVariant::ApxSad3, 3).unwrap();
        let s = sad_sweep(&sad, &opts);
        assert_eq!(s.stats.samples, 0);
        assert!(s.mse.is_none() && s.psnr.is_none());
        assert_eq!(s, sad_sweep_scalar(&sad, &opts));
    }

    #[test]
    fn one_trial_sweeps_are_well_defined() {
        let opts = SweepOptions::new(1, 0x0DD).chunk(64);

        let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        let stats = multiplier_sweep(&m, &opts);
        assert_eq!(stats.samples, 1);
        assert_eq!(stats, multiplier_sweep_scalar(&m, &opts));

        let sad = SadAccelerator::new(8, SadVariant::ApxSad3, 3).unwrap();
        let s = sad_sweep(&sad, &opts);
        assert_eq!(s.stats.samples, 1);
        let mse = s.mse.expect("a 1-trial sweep has a defined MSE");
        assert!(mse >= 0.0 && !mse.is_nan());
        if let Some(psnr) = s.psnr {
            assert!(psnr.is_finite());
        }
        assert_eq!(s, sad_sweep_scalar(&sad, &opts));
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxOur, SumMode::Accurate).unwrap();
        let base = SweepOptions::new(4_000, 0xDE7).chunk(512);
        let one = multiplier_sweep(&m, &base.threads(1));
        assert_eq!(one, multiplier_sweep(&m, &base.threads(2)));
        assert_eq!(one, multiplier_sweep(&m, &base.threads(8)));
    }

    #[test]
    fn compiled_sweeps_match_every_twin_at_every_plane_width() {
        use xlac_adders::FullAdderKind;
        use xlac_multipliers::WallaceMultiplier;
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
        let nl = xlac_multipliers::hw::wallace_netlist(&m);
        let prog = CompiledProgram::compile(&nl);
        // 3000 trials: not a multiple of 64·WORDS, so partial blocks and a
        // ragged final batch are exercised at every width.
        let opts = SweepOptions::new(3_000, 0x3113).chunk(512);
        let scalar = multiplier_sweep_scalar(&m, &opts);
        let exact = |a: u64, b: u64| a * b;
        assert_eq!(compiled_pair_sweep::<u64, _>(&prog, 8, exact, &opts), scalar);
        assert_eq!(compiled_pair_sweep::<[u64; 4], _>(&prog, 8, exact, &opts), scalar);
        assert_eq!(compiled_pair_sweep::<[u64; 8], _>(&prog, 8, exact, &opts), scalar);
        assert_eq!(interpreted_pair_sweep(&nl, 8, exact, &opts), scalar);
        assert_eq!(multiplier_sweep(&CompiledMultiplier::wallace(&m), &opts), scalar);
    }

    #[test]
    fn saturated_error_spectra_agree_across_threads_blocks_and_twins() {
        use std::collections::BTreeSet;
        use xlac_adders::FullAdderKind;
        use xlac_multipliers::WallaceMultiplier;
        // Twelve approximate columns of a 12×12 Wallace tree: about 4800
        // distinct error magnitudes in 12 000 uniform trials, more than
        // MAX_DISTINCT, so every sweep below saturates mid-stream.
        let m = WallaceMultiplier::new(12, FullAdderKind::Apx2, 12).unwrap();
        let mut rng = DefaultRng::seed_from_u64(0x5A7);
        let spectrum: BTreeSet<u64> = (0..12_000)
            .map(|_| (rng.next_u64() & 0xFFF, rng.next_u64() & 0xFFF))
            .map(|(a, b)| (a * b).abs_diff(m.mul(a, b)))
            .filter(|&d| d != 0)
            .collect();
        assert!(spectrum.len() > ErrorStats::MAX_DISTINCT, "{}", spectrum.len());

        let nl = xlac_multipliers::hw::wallace_netlist(&m);
        let prog = CompiledProgram::compile(&nl);
        let exact = |a: u64, b: u64| a * b;
        let base = SweepOptions::new(12_000, 0x5A70).chunk(1024);
        let scalar = multiplier_sweep_scalar(&m, &base);
        assert!(scalar.distinct_saturated);
        assert_eq!(scalar.distinct_error_values.len(), ErrorStats::MAX_DISTINCT);
        for threads in [1, 2, 8] {
            let opts = base.threads(threads);
            assert_eq!(compiled_pair_sweep::<u64, _>(&prog, 12, exact, &opts), scalar);
            assert_eq!(compiled_pair_sweep::<[u64; 4], _>(&prog, 12, exact, &opts), scalar);
            assert_eq!(compiled_pair_sweep::<[u64; 8], _>(&prog, 12, exact, &opts), scalar);
            assert_eq!(multiplier_sweep_scalar(&m, &opts), scalar, "t={threads}");
        }
    }

    #[test]
    fn compiled_sweeps_honour_auto_chunk_and_thread_invariance() {
        use xlac_adders::FullAdderKind;
        use xlac_multipliers::WallaceMultiplier;
        let m = WallaceMultiplier::new(4, FullAdderKind::Apx1, 3).unwrap();
        let prog = CompiledProgram::compile(&xlac_multipliers::hw::wallace_netlist(&m));
        let base = SweepOptions::new(2_000, 0xC41).auto_chunk();
        let exact = |a: u64, b: u64| a * b;
        let one = compiled_pair_sweep::<[u64; 8], _>(&prog, 4, exact, &base.threads(1));
        assert_eq!(one, compiled_pair_sweep::<[u64; 8], _>(&prog, 4, exact, &base.threads(4)));
        assert_eq!(one, multiplier_sweep_scalar(&m, &base));
    }

    #[test]
    fn compiled_sad_sweep_matches_the_scalar_sweep() {
        let sad = SadAccelerator::new(4, SadVariant::ApxSad3, 2).unwrap();
        let prog = CompiledProgram::compile(&xlac_accel::hw::sad_netlist(&sad));
        let opts = SweepOptions::new(500, 0x5AD1).chunk(128);
        let scalar = sad_sweep_scalar(&sad, &opts);
        assert_eq!(sad_sweep(&sad, &opts), scalar);
        assert_eq!(compiled_sad_sweep::<u64>(&prog, &opts), scalar);
        assert_eq!(compiled_sad_sweep::<[u64; 4]>(&prog, &opts), scalar);
        assert_eq!(compiled_sad_sweep::<[u64; 8]>(&prog, &opts), scalar);
    }

    #[test]
    fn non_uniform_distributions_keep_every_twin_in_agreement() {
        use xlac_adders::FullAdderKind;
        use xlac_multipliers::WallaceMultiplier;
        let m = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
        let nl = xlac_multipliers::hw::wallace_netlist(&m);
        let prog = CompiledProgram::compile(&nl);
        let exact = |a: u64, b: u64| a * b;
        for dist in InputDistribution::ALL {
            let opts = SweepOptions::new(2_000, 0xD157).chunk(256).dist(dist);
            let scalar = multiplier_sweep_scalar(&m, &opts);
            assert_eq!(interpreted_pair_sweep(&nl, 8, exact, &opts), scalar, "{dist:?}");
            assert_eq!(compiled_pair_sweep::<[u64; 8], _>(&prog, 8, exact, &opts), scalar);
            assert_eq!(scalar.samples, 2_000);
        }
    }

    #[test]
    fn uniform_dist_option_reproduces_the_historical_stream() {
        // dist(Uniform) must be a no-op relative to the pre-distribution
        // sweeps: SweepOptions::new defaults to it, and the operand draws
        // consume the RNG identically.
        let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
        let base = SweepOptions::new(2_000, 0xA11CE).chunk(512);
        let explicit = base.dist(InputDistribution::Uniform);
        assert_eq!(multiplier_sweep(&m, &base), multiplier_sweep(&m, &explicit));
    }

    #[test]
    fn exact_configurations_sweep_exact() {
        let m = RecursiveMultiplier::new(8, Mul2x2Kind::Accurate, SumMode::Accurate).unwrap();
        let stats = multiplier_sweep(&m, &SweepOptions::new(2_000, 1).chunk(512));
        assert!(stats.is_exact());
        assert_eq!(stats.samples, 2_000);
    }
}
