//! Monte-Carlo sweep workloads: the characterisation step of the paper's
//! flow (ER, MED, WCE of an approximate unit from millions of trials).
//!
//! The untraced run calls the `xlac-sim` sweep functions exactly as a user
//! would. The traced pass replays the same chunk loop on one thread from
//! the benchmark's own code, timing each call into `core::dist`,
//! `core::lanes`, the evaluator and `core::metrics`, and must reproduce the
//! untraced `ErrorStats` exactly.

use std::time::{Duration, Instant};

use xlac_adders::{FullAdderKind, GeArAdder};
use xlac_core::dist::InputDistribution;
use xlac_core::lanes::{self, PlaneBlock, LANES};
use xlac_core::metrics::{ErrorAccumulator, ErrorStats};
use xlac_core::rng::DefaultRng;
use xlac_logic::Netlist;
use xlac_multipliers::{
    Mul2x2Kind, MultiplierX64, RecursiveMultiplier, SumMode, WallaceMultiplier,
};
use xlac_sim::{
    compiled_pair_sweep, gear_sweep, gear_sweep_scalar, interpreted_pair_sweep, multiplier_sweep,
    multiplier_sweep_scalar, CompiledProgram, SweepOptions,
};

use crate::pins::{self, IntStats};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::{PhaseClock, Tracer};
use crate::Budget;

/// Worker threads of the timed sweeps: the 2-CPU box's `nproc`.
pub const THREADS: usize = 2;
/// Trials per chunk (the runner's default); it selects each trial's RNG
/// stream, so pinned statistics hold only at this size.
pub const CHUNK: u64 = 8192;
/// Trials of the pre-timing check against the scalar/interpreted twins.
const PREFIX_TRIALS: u64 = 1 << 16;
/// Timed repetitions run even past the budget, so the median has company.
const MIN_REPS: usize = 3;
/// GeAr error detection and correction runs until no sub-adder fires.
const FULL_EDC: usize = usize::MAX;
/// Plane block of the compiled sweeps: 512 lanes per program pass.
type Block = [u64; 8];

enum Eval {
    /// Netlist compiled to bit-plane bytecode; the Wallace model is the
    /// scalar twin and the netlist the interpreted one.
    Compiled {
        mul: WallaceMultiplier,
        netlist: Netlist,
        prog: CompiledProgram,
    },
    /// Hand-written `mul_x64`.
    HandMul(RecursiveMultiplier),
    /// Hand-written `add_with_correction_x64` with full EDC.
    Gear(GeArAdder),
}

/// One swept unit under one operand distribution.
pub struct Unit {
    /// Stable name; pins are keyed by it.
    pub name: String,
    eval: Eval,
    width: usize,
    dist: InputDistribution,
    /// Trials per timed repetition.
    pub trials: u64,
}

/// What one sweep returns: the error statistics plus, for GeAr, the
/// correction passes it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOut {
    /// Error statistics against the exact reference.
    pub stats: ErrorStats,
    /// EDC correction iterations (0 for multipliers).
    pub correction_iterations: u64,
}

impl SweepOut {
    /// The integer statistics a repetition is checked on.
    #[must_use]
    pub fn ints(&self) -> IntStats {
        IntStats {
            samples: self.stats.samples,
            error_count: self.stats.error_count,
            max_error_distance: self.stats.max_error_distance,
            distinct: self.stats.distinct_error_values.len() as u64,
            correction_iterations: self.correction_iterations,
        }
    }
}

fn mul_exact(a: u64, b: u64) -> u64 {
    a * b
}

fn add_exact(a: u64, b: u64) -> u64 {
    a + b
}

fn compiled(width: usize, kind: FullAdderKind, cols: usize) -> Eval {
    let mul = WallaceMultiplier::new(width, kind, cols).expect("static Wallace configuration");
    let netlist = xlac_multipliers::hw::wallace_netlist(&mul);
    let prog = CompiledProgram::compile(&netlist);
    Eval::Compiled { mul, netlist, prog }
}

/// Builds the units of a sweep workload: the program set-up `setup_s`
/// times. `quick` shrinks the trial counts for the smoke test.
#[must_use]
pub fn build_units(workload: &str, quick: bool) -> Vec<Unit> {
    let scale = |full: u64| if quick { full >> 6 } else { full };
    match workload {
        "sweep_w8_uniform" => {
            let trials = scale(1 << 23);
            let recursive = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate)
                .expect("static recursive configuration");
            vec![
                Unit {
                    name: "wallace8_apx4_c8/uniform".into(),
                    eval: compiled(8, FullAdderKind::Apx4, 8),
                    width: 8,
                    dist: InputDistribution::Uniform,
                    trials,
                },
                Unit {
                    name: "recursive8_apxsoa/uniform".into(),
                    eval: Eval::HandMul(recursive),
                    width: 8,
                    dist: InputDistribution::Uniform,
                    trials,
                },
            ]
        }
        "sweep_w16_skewed" => {
            let trials = scale(1 << 22);
            let mut units = Vec::new();
            for dist in [
                InputDistribution::SparsePeaked,
                InputDistribution::ExponentialDecay,
            ] {
                units.push(Unit {
                    name: format!("wallace16_apx2_c8/{}", dist.label()),
                    eval: compiled(16, FullAdderKind::Apx2, 8),
                    width: 16,
                    dist,
                    trials,
                });
                units.push(Unit {
                    name: format!("gear16_r4_p4_edc/{}", dist.label()),
                    eval: Eval::Gear(GeArAdder::new(16, 4, 4).expect("static GeAr configuration")),
                    width: 16,
                    dist,
                    trials,
                });
            }
            units
        }
        other => panic!("{other} is not a sweep workload"),
    }
}

impl Unit {
    fn opts(&self, trials: u64, seed: u64, threads: usize) -> SweepOptions {
        SweepOptions::new(trials, seed)
            .threads(threads)
            .chunk(CHUNK)
            .dist(self.dist)
    }

    /// The library sweep, as a user runs it.
    #[must_use]
    pub fn sweep(&self, trials: u64, seed: u64, threads: usize) -> SweepOut {
        let opts = self.opts(trials, seed, threads);
        match &self.eval {
            Eval::Compiled { prog, .. } => SweepOut {
                stats: compiled_pair_sweep::<Block, _>(prog, self.width, mul_exact, &opts),
                correction_iterations: 0,
            },
            Eval::HandMul(m) => SweepOut {
                stats: multiplier_sweep(m, &opts),
                correction_iterations: 0,
            },
            Eval::Gear(g) => {
                let r = gear_sweep(g, Some(FULL_EDC), &opts);
                SweepOut {
                    stats: r.stats,
                    correction_iterations: r.correction_iterations,
                }
            }
        }
    }

    /// The scalar and interpreted twins of [`Unit::sweep`], by name.
    fn twins(&self, trials: u64, seed: u64) -> Vec<(&'static str, SweepOut)> {
        let opts = self.opts(trials, seed, THREADS);
        let plain = |stats| SweepOut {
            stats,
            correction_iterations: 0,
        };
        match &self.eval {
            Eval::Compiled { mul, netlist, .. } => vec![
                (
                    "interpreted",
                    plain(interpreted_pair_sweep(
                        netlist, self.width, mul_exact, &opts,
                    )),
                ),
                ("scalar", plain(multiplier_sweep_scalar(mul, &opts))),
            ],
            Eval::HandMul(m) => vec![("scalar", plain(multiplier_sweep_scalar(m, &opts)))],
            Eval::Gear(g) => {
                let r = gear_sweep_scalar(g, Some(FULL_EDC), &opts);
                vec![(
                    "scalar",
                    SweepOut {
                        stats: r.stats,
                        correction_iterations: r.correction_iterations,
                    },
                )]
            }
        }
    }
}

/// Checks run before anything is timed: each unit against its twins on a
/// prefix at the run's seed, and against the pinned prefix statistics at
/// the default seed (so a change to the RNG stream fails every run, not
/// only runs at a pinned seed).
fn check_units(units: &[Unit], seed: u64, out: &mut Outcome) {
    let default_seed = crate::DEFAULT_SEED;
    for u in units {
        let n = PREFIX_TRIALS.min(u.trials);
        let fast = u.sweep(n, seed, THREADS);
        for (twin, got) in u.twins(n, seed) {
            out.check(got == fast, || {
                format!("{}: {twin} twin disagrees on {n} trials", u.name)
            });
        }
        let canary = u.sweep(n, default_seed, THREADS).ints();
        match pins::lookup(&u.name, default_seed, n) {
            Some(pin) => out.check(canary == pin, || {
                format!(
                    "{}: {n}-trial canary at seed {default_seed} is {canary:?}, pinned {pin:?}",
                    u.name
                )
            }),
            None => out.check(false, || format!("{}: no pinned {n}-trial canary", u.name)),
        }
    }
}

/// The untraced run: set-up, checks, then timed repetitions of every unit
/// until the budget is spent.
#[must_use]
pub fn run(workload: &str, seed: u64, budget: &Budget) -> Outcome {
    let mut out = Outcome::default();
    let (units, setup_s) = budget.time_setup(|| build_units(workload, budget.quick));
    check_units(&units, seed, &mut out);

    let trials_per_rep: u64 = units.iter().map(|u| u.trials).sum();
    let mut reference: Vec<Option<IntStats>> = units
        .iter()
        .map(|u| pins::lookup(&u.name, seed, u.trials))
        .collect();
    let mut walls = Vec::new();
    let start = Instant::now();
    while budget.more(MIN_REPS, walls.len(), start.elapsed(), &walls) {
        let t0 = Instant::now();
        let results: Vec<IntStats> = units
            .iter()
            .map(|u| u.sweep(u.trials, seed, THREADS).ints())
            .collect();
        walls.push(t0.elapsed().as_secs_f64());
        for ((u, got), want) in units.iter().zip(results).zip(&mut reference) {
            // Without a pin for this seed the first repetition is the
            // reference; the twin check above vouches for its values.
            let want = *want.get_or_insert(got);
            out.check(got == want, || {
                format!("{}: repetition gave {got:?}, expected {want:?}", u.name)
            });
        }
    }
    let rep = median(&walls).expect("at least one repetition");
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", trials_per_rep as f64 / rep);
    out.set("latency_p50_ms", rep * 1e3);
    if let Some(mb) = peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    eprintln!(
        "{workload}: {} repetitions of {trials_per_rep} trials, median {:.1} ms",
        walls.len(),
        rep * 1e3
    );
    out
}

/// Counters of one traced replay.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayCounts {
    batches: u64,
    passes: u64,
    useful_lanes: u64,
    evaluated_lanes: u64,
}

const DRAW: usize = 0;
const TO_PLANES: usize = 1;
const EVAL: usize = 2;
const FROM_PLANES: usize = 3;
const ACCUMULATE: usize = 4;

/// Span names of the phases; the evaluator's depends on the unit.
fn phase_names(eval: &Eval) -> [&'static str; 5] {
    let eval_name = match eval {
        Eval::Compiled { .. } => "sim.jit.run",
        Eval::HandMul(_) => "multipliers.mul_x64",
        Eval::Gear(_) => "adders.gear_x64",
    };
    [
        "core.dist.draw",
        "core.lanes.to_planes",
        eval_name,
        "core.lanes.from_planes",
        "core.metrics.accumulate",
    ]
}

/// Replays `unit`'s chunk loop on one thread at `seed` with the workload's
/// chunking, one span per chunk and one child span per phase. Returns the
/// statistics the library sweep must also produce.
fn replay(
    unit: &Unit,
    unit_idx: usize,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> SweepOut {
    let span = tracer.begin("sim.sweep", None, unit_idx as u64);
    let n_chunks = unit.trials.div_ceil(CHUNK);
    // The runner's stream assignment: one split per chunk, in order.
    let rngs: Vec<DefaultRng> = tracer.time("sim.runner.split", Some(span), 0, || {
        let mut parent = DefaultRng::seed_from_u64(seed);
        (0..n_chunks).map(|_| parent.split()).collect()
    });
    let mut clock = PhaseClock::new(phase_names(&unit.eval));
    let mut total = ErrorAccumulator::new();
    let mut correction_iterations = 0u64;
    for (i, mut rng) in rngs.into_iter().enumerate() {
        let key = i as u64;
        let chunk = tracer.begin("sim.chunk", Some(span), key);
        let n = CHUNK.min(unit.trials - key * CHUNK);
        let (w, d) = (unit.width, unit.dist);
        let (acc, iters) = match &unit.eval {
            Eval::Compiled { prog, .. } => (
                compiled_chunk(prog, w, d, n, &mut rng, &mut clock, counts),
                0,
            ),
            Eval::HandMul(m) => {
                hand_chunk(w, d, n, &mut rng, &mut clock, counts, mul_exact, |a, b| {
                    (m.mul_x64(a, b), [0; LANES])
                })
            }
            Eval::Gear(g) => {
                hand_chunk(w, d, n, &mut rng, &mut clock, counts, add_exact, |a, b| {
                    let o = g.add_with_correction_x64(a, b, FULL_EDC);
                    (o.value, o.correction_iterations)
                })
            }
        };
        clock.flush(tracer, chunk, key);
        tracer.end(chunk);
        tracer.time("core.metrics.merge", Some(span), key, || total.merge(&acc));
        correction_iterations += iters;
    }
    let stats = tracer.time("core.metrics.merge", Some(span), n_chunks, || {
        total.finish()
    });
    tracer.end(span);
    SweepOut {
        stats,
        correction_iterations,
    }
}

/// One chunk of `compiled_pair_sweep::<[u64; 8]>`, phase by phase.
fn compiled_chunk(
    prog: &CompiledProgram,
    width: usize,
    dist: InputDistribution,
    n: u64,
    rng: &mut DefaultRng,
    clock: &mut PhaseClock<5>,
    counts: &mut ReplayCounts,
) -> ErrorAccumulator {
    let mut acc = ErrorAccumulator::new();
    let mut inputs: Vec<Block> = vec![Block::zeros(); 2 * width];
    let (mut regs, mut outs): (Vec<Block>, Vec<Block>) = (Vec::new(), Vec::new());
    let mut batch_ab: Vec<([u64; LANES], [u64; LANES])> = Vec::with_capacity(Block::WORDS);
    let mut out_planes = vec![0u64; prog.n_outputs()];
    let mut remaining = n;
    while remaining > 0 {
        let sub = Block::WORDS.min(remaining.div_ceil(LANES as u64) as usize);
        batch_ab.clear();
        for s in 0..sub {
            let (a, b) = clock.time(DRAW, || {
                (dist.draw_batch(rng, width), dist.draw_batch(rng, width))
            });
            clock.time(TO_PLANES, || {
                let (ap, bp) = (lanes::to_planes(&a, width), lanes::to_planes(&b, width));
                for i in 0..width {
                    inputs[i].set_word(s, ap[i]);
                    inputs[width + i].set_word(s, bp[i]);
                }
            });
            batch_ab.push((a, b));
        }
        clock.time(TO_PLANES, || {
            for s in sub..Block::WORDS {
                for inp in &mut inputs {
                    inp.set_word(s, 0);
                }
            }
        });
        clock.time(EVAL, || prog.run_into(&inputs, &mut regs, &mut outs));
        counts.passes += 1;
        counts.evaluated_lanes += (Block::WORDS * LANES) as u64;
        for (s, (a, b)) in batch_ab.iter().enumerate() {
            let lanes_n = remaining.min(LANES as u64) as usize;
            let vals = clock.time(FROM_PLANES, || {
                for (p, o) in out_planes.iter_mut().zip(&outs) {
                    *p = o.word(s);
                }
                lanes::from_planes(&out_planes)
            });
            clock.time(ACCUMULATE, || {
                for j in 0..lanes_n {
                    acc.push(mul_exact(a[j], b[j]), vals[j]);
                }
            });
            counts.batches += 1;
            counts.useful_lanes += lanes_n as u64;
            remaining -= lanes_n as u64;
        }
    }
    acc
}

/// One chunk of a hand-evaluator sweep (`multiplier_sweep` or
/// `gear_sweep`), 64 lanes per call: `eval` maps operand planes to result
/// planes plus each lane's correction passes, `exact` is the reference.
/// Returns the chunk's accumulator and its correction passes.
#[allow(clippy::too_many_arguments)]
fn hand_chunk(
    width: usize,
    dist: InputDistribution,
    n: u64,
    rng: &mut DefaultRng,
    clock: &mut PhaseClock<5>,
    counts: &mut ReplayCounts,
    exact: fn(u64, u64) -> u64,
    eval: impl Fn(&[u64], &[u64]) -> (Vec<u64>, [u8; LANES]),
) -> (ErrorAccumulator, u64) {
    let mut acc = ErrorAccumulator::new();
    let mut iters = 0u64;
    let mut remaining = n;
    while remaining > 0 {
        let lanes_n = remaining.min(LANES as u64) as usize;
        let (a, b) = clock.time(DRAW, || {
            (dist.draw_batch(rng, width), dist.draw_batch(rng, width))
        });
        let (ap, bp) = clock.time(TO_PLANES, || {
            (lanes::to_planes(&a, width), lanes::to_planes(&b, width))
        });
        let (planes, passes) = clock.time(EVAL, || eval(&ap, &bp));
        let approx = clock.time(FROM_PLANES, || lanes::from_planes(&planes));
        clock.time(ACCUMULATE, || {
            for j in 0..lanes_n {
                acc.push(exact(a[j], b[j]), approx[j]);
                iters += u64::from(passes[j]);
            }
        });
        counts.batches += 1;
        counts.passes += 1;
        counts.useful_lanes += lanes_n as u64;
        counts.evaluated_lanes += LANES as u64;
        remaining -= lanes_n as u64;
    }
    (acc, iters)
}

/// The traced pass: per unit, the untraced sweep at 2 and 1 threads, then
/// the traced single-thread replay, which must reproduce both.
#[must_use]
pub fn trace(workload: &str, seed: u64, budget: &Budget, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let units = build_units(workload, budget.quick);
    let (mut wall_2t, mut wall_1t, mut wall_traced) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut counts = ReplayCounts::default();
    let (mut errors, mut distinct, mut iterations, mut trials) = (0u64, 0u64, 0u64, 0u64);
    for (idx, u) in units.iter().enumerate() {
        let t0 = Instant::now();
        let two = u.sweep(u.trials, seed, THREADS);
        wall_2t += t0.elapsed();
        let t0 = Instant::now();
        let one = u.sweep(u.trials, seed, 1);
        wall_1t += t0.elapsed();
        let t0 = Instant::now();
        let replayed = replay(u, idx, seed, tracer, &mut counts);
        wall_traced += t0.elapsed();
        out.check(one == two, || {
            format!("{}: 1-thread and 2-thread sweeps differ", u.name)
        });
        out.check(replayed == one, || {
            format!("{}: traced replay differs from the sweep", u.name)
        });
        errors += replayed.stats.error_count;
        distinct += replayed.stats.distinct_error_values.len() as u64;
        iterations += replayed.correction_iterations;
        trials += u.trials;
    }
    // Phase spans are leaves, so their self time is their whole time.
    let per_trial = |name: &str| tracer.self_time(name).as_secs_f64() * 1e9 / trials as f64;
    for (metric, span) in [
        ("core.dist.draw_ns", "core.dist.draw"),
        ("core.lanes.to_planes_ns", "core.lanes.to_planes"),
        ("core.lanes.from_planes_ns", "core.lanes.from_planes"),
        ("sim.jit.run_ns", "sim.jit.run"),
        ("multipliers.mul_x64_ns", "multipliers.mul_x64"),
        ("adders.gear_x64_ns", "adders.gear_x64"),
        ("core.metrics.accumulate_ns", "core.metrics.accumulate"),
        ("core.metrics.merge_ns", "core.metrics.merge"),
    ] {
        out.set(metric, per_trial(span));
    }
    // What no phase covers: the runner's own loop (the self time of the
    // sweep and chunk spans) and the RNG stream splits.
    let unattributed = tracer.self_time("sim.sweep")
        + tracer.self_time("sim.chunk")
        + tracer.total("sim.runner.split");
    out.set(
        "sim.runner.unattributed_share",
        unattributed.as_secs_f64() / tracer.total("sim.sweep").as_secs_f64(),
    );
    out.set(
        "sim.runner.scaling_2t",
        wall_1t.as_secs_f64() / wall_2t.as_secs_f64(),
    );
    out.set(
        "trace.overhead",
        wall_traced.as_secs_f64() / wall_1t.as_secs_f64(),
    );
    out.set("sim.trials", trials as f64);
    out.set("sim.batches", counts.batches as f64);
    out.set("sim.eval_passes", counts.passes as f64);
    out.set(
        "sim.lane_utilization",
        counts.useful_lanes as f64 / counts.evaluated_lanes as f64,
    );
    out.set("core.metrics.error_count", errors as f64);
    out.set("core.metrics.distinct_errors", distinct as f64);
    out.set("adders.gear.correction_iterations", iterations as f64);
    out
}

/// Pinned statistics for every unit of `workload`: the prefix canary at
/// the default seed and full repetitions at the default and held-out seeds.
#[must_use]
pub fn pin_rows(workload: &str, seeds: [u64; 2]) -> Vec<(String, u64, u64, IntStats)> {
    let mut rows = Vec::new();
    for u in build_units(workload, false) {
        let prefix = PREFIX_TRIALS.min(u.trials);
        rows.push((
            u.name.clone(),
            seeds[0],
            prefix,
            u.sweep(prefix, seeds[0], THREADS).ints(),
        ));
        for seed in seeds {
            rows.push((
                u.name.clone(),
                seed,
                u.trials,
                u.sweep(u.trials, seed, THREADS).ints(),
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_replay_reproduces_the_untraced_sweep_exactly() {
        for workload in ["sweep_w8_uniform", "sweep_w16_skewed"] {
            for (idx, mut u) in build_units(workload, true).into_iter().enumerate() {
                // A ragged final chunk and a partial final block.
                u.trials = 3 * CHUNK + 1000;
                let mut tracer = Tracer::default();
                let mut counts = ReplayCounts::default();
                let replayed = replay(&u, idx, 0x5EED, &mut tracer, &mut counts);
                assert_eq!(replayed, u.sweep(u.trials, 0x5EED, THREADS), "{}", u.name);
                assert_eq!(counts.useful_lanes, u.trials, "{}", u.name);
                assert_eq!(
                    tracer
                        .spans()
                        .iter()
                        .filter(|s| s.name == "sim.chunk")
                        .count(),
                    4
                );
            }
        }
    }
}
