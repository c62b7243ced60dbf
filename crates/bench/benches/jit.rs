//! The netlist JIT vs the gate-at-a-time interpreter (DESIGN.md §13).
//!
//! Measures the throughput claim behind `xlac-sim::jit`: the 65 536-trial
//! Monte-Carlo error sweep of an 8-bit ripple-carry adder and a Wallace
//! 8×8 multiplier, evaluated through (a) the netlist interpreter
//! (`eval_words_into`, one match dispatch per gate per 64-lane batch) and
//! (b) the compiled bit-plane program at all three plane-block widths
//! (64/256/512 lanes per pass). Every flavour is asserted to produce
//! identical statistics before anything is timed — the RNG-order
//! discipline makes them the same experiment.
//!
//! The `lanes_transpose` group times the plane transposes every sweep
//! runs around the evaluator (`to_planes` at 8/16-bit operands,
//! `from_planes` at 16/32 result planes), per 64-lane batch.
//!
//! The `metrics_accumulate_65536` group times the error accumulation
//! behind every sweep on one recorded Wallace 8×8 pair stream: per-lane
//! `ErrorAccumulator::push` against one `push_lanes` call per 64-lane
//! batch, the way the sweep driver feeds it.
//!
//! The `server_engine_*` groups time the server's compiled DCT and FIR
//! paths (`engine::eval_dct`, `engine::eval_fir` on a medium ladder rung)
//! against the scalar models they reproduce: 64 residual blocks, and 64
//! eight-sample streams.
//!
//! `scripts/ci.sh` records these lines into `BENCH_jit.json` and the
//! report gate (`scripts/gates.jsonl`) enforces the compiled-≥-interpreted,
//! batched-≤-per-lane and compiled-engine-≥-scalar floors (the transpose
//! series are recorded for the trend only).

use xlac_adders::hw::ripple_netlist;
use xlac_adders::{FullAdderKind, RippleCarryAdder};
use xlac_bench::{black_box, Harness};
use xlac_logic::Netlist;
use xlac_multipliers::hw::wallace_netlist;
use xlac_multipliers::WallaceMultiplier;
use xlac_sim::{compiled_pair_sweep, interpreted_pair_sweep, CompiledProgram, SweepOptions};

/// Trials per sweep — matches the bitslice bench so the reports compare.
const TRIALS: u64 = 1 << 16;

fn bench_pair_sweep<F: Fn(u64, u64) -> u64 + Sync + Copy>(
    group: &str,
    nl: &Netlist,
    width: usize,
    exact: F,
) {
    let mut h = Harness::group(group);
    let prog = CompiledProgram::compile(nl);
    let opts = SweepOptions::new(TRIALS, 0x717).chunk(4096).threads(1);

    // Guard: one experiment, four evaluators.
    let reference = interpreted_pair_sweep(nl, width, exact, &opts);
    assert_eq!(reference, compiled_pair_sweep::<u64, _>(&prog, width, exact, &opts));
    assert_eq!(reference, compiled_pair_sweep::<[u64; 4], _>(&prog, width, exact, &opts));
    assert_eq!(reference, compiled_pair_sweep::<[u64; 8], _>(&prog, width, exact, &opts));

    h.bench("interpreted", || black_box(interpreted_pair_sweep(nl, width, exact, &opts)));
    h.bench("compiled_u64", || {
        black_box(compiled_pair_sweep::<u64, _>(&prog, width, exact, &opts))
    });
    h.bench("compiled_x4", || {
        black_box(compiled_pair_sweep::<[u64; 4], _>(&prog, width, exact, &opts))
    });
    h.bench("compiled_x8", || {
        black_box(compiled_pair_sweep::<[u64; 8], _>(&prog, width, exact, &opts))
    });
}

/// Raw evaluation throughput over pre-drawn operands: the engine
/// comparison with the sweep scaffolding (RNG draws, plane transposes,
/// per-lane statistics) factored out. This is where the compiled-vs-
/// interpreted ratio the CI gate enforces is visible undiluted.
fn bench_raw_eval(group: &str, nl: &Netlist, seed: u64) {
    use xlac_core::lanes::PlaneBlock;
    use xlac_core::rng::{DefaultRng, Rng};

    let mut h = Harness::group(group);
    let prog = CompiledProgram::compile(nl);
    let n_batches = usize::try_from(TRIALS).unwrap() / 64;
    let mut rng = DefaultRng::seed_from_u64(seed);
    let batches: Vec<Vec<u64>> =
        (0..n_batches).map(|_| (0..nl.n_inputs()).map(|_| rng.next_u64()).collect()).collect();

    fn pack<B: PlaneBlock>(batches: &[Vec<u64>]) -> Vec<Vec<B>> {
        batches
            .chunks(B::WORDS)
            .map(|group| {
                (0..group[0].len())
                    .map(|i| {
                        let mut blk = B::zeros();
                        for (s, batch) in group.iter().enumerate() {
                            blk.set_word(s, batch[i]);
                        }
                        blk
                    })
                    .collect()
            })
            .collect()
    }
    let (x4, x8) = (pack::<[u64; 4]>(&batches), pack::<[u64; 8]>(&batches));

    // Guard: all four evaluators agree on the first batch.
    let reference = nl.eval_words(&batches[0]);
    assert_eq!(prog.run(&batches[0]), reference);
    assert_eq!(x4[0].iter().map(|b| b.word(0)).collect::<Vec<_>>(), batches[0]);
    assert_eq!(prog.run(&x4[0]).iter().map(|o| o.word(0)).collect::<Vec<_>>(), reference);
    assert_eq!(prog.run(&x8[0]).iter().map(|o| o.word(0)).collect::<Vec<_>>(), reference);

    let (mut vals, mut outs) = (Vec::new(), Vec::new());
    h.bench("interpreted", || {
        for batch in &batches {
            nl.eval_words_into(batch, &mut vals, &mut outs);
            black_box(&outs);
        }
    });
    let (mut regs, mut outs1) = (Vec::new(), Vec::new());
    h.bench("compiled_u64", || {
        for batch in &batches {
            prog.run_into(batch, &mut regs, &mut outs1);
            black_box(&outs1);
        }
    });
    let (mut regs4, mut outs4) = (Vec::new(), Vec::new());
    h.bench("compiled_x4", || {
        for blocks in &x4 {
            prog.run_into(blocks, &mut regs4, &mut outs4);
            black_box(&outs4);
        }
    });
    let (mut regs8, mut outs8) = (Vec::new(), Vec::new());
    h.bench("compiled_x8", || {
        for blocks in &x8 {
            prog.run_into(blocks, &mut regs8, &mut outs8);
            black_box(&outs8);
        }
    });
}

/// The two plane transposes on 1024 pre-drawn 64-lane batches.
fn bench_lanes_transpose(seed: u64) {
    use xlac_core::lanes::{from_planes, to_planes, LANES};
    use xlac_core::rng::{DefaultRng, Rng};

    const BATCHES: usize = 1024;
    let mut rng = DefaultRng::seed_from_u64(seed);
    let values: Vec<[u64; LANES]> = (0..BATCHES)
        .map(|_| {
            let mut v = [0u64; LANES];
            rng.fill_u64(&mut v);
            v
        })
        .collect();
    let planes: Vec<Vec<u64>> = values.iter().map(|v| v.to_vec()).collect();

    let mut h = Harness::group("lanes_transpose");
    for width in [8, 16] {
        h.bench(&format!("to_planes_w{width}"), || {
            for v in &values {
                black_box(to_planes(black_box(v), width));
            }
        });
    }
    for n in [16, 32] {
        h.bench(&format!("from_planes_{n}"), || {
            for p in &planes {
                black_box(from_planes(black_box(&p[..n])));
            }
        });
    }
}

/// Per-lane against batched accumulation of one 65 536-pair stream:
/// the Wallace multiplier's products and the exact ones on uniform 8-bit
/// operands. Each iteration starts from an empty accumulator, as each
/// sweep chunk does.
fn bench_metrics_accumulate(m: &WallaceMultiplier, seed: u64) {
    use xlac_core::lanes::LANES;
    use xlac_core::metrics::ErrorAccumulator;
    use xlac_core::rng::{DefaultRng, Rng};
    use xlac_multipliers::Multiplier;

    let mut rng = DefaultRng::seed_from_u64(seed);
    let (exact, approx): (Vec<u64>, Vec<u64>) = (0..TRIALS)
        .map(|_| {
            let (a, b) = (rng.next_u64() & 0xFF, rng.next_u64() & 0xFF);
            (a * b, m.mul(a, b))
        })
        .unzip();
    let per_lane = || {
        let mut acc = ErrorAccumulator::new();
        for (&e, &a) in black_box(&exact).iter().zip(black_box(&approx)) {
            acc.push(e, a);
        }
        acc
    };
    let batched = || {
        let mut acc = ErrorAccumulator::new();
        for (e, a) in black_box(&exact).chunks(LANES).zip(black_box(&approx).chunks(LANES)) {
            acc.push_lanes(e, a);
        }
        acc
    };
    // Guard: both feeds leave the same state.
    assert_eq!(per_lane(), batched());

    let mut h = Harness::group("metrics_accumulate_65536");
    h.bench("push", || black_box(per_lane()));
    h.bench("push_lanes", || black_box(batched()));
}

/// The server's compiled DCT and FIR batches against their scalar
/// models, on the medium rung of each ladder. The programs are compiled
/// by a guard call before anything is timed.
fn bench_server_engine(seed: u64) {
    use xlac_core::rng::{DefaultRng, Rng};
    use xlac_server::engine::{eval_dct, eval_fir};
    use xlac_server::ladder::Ladders;

    let ladders = Ladders::build();
    let mut rng = DefaultRng::seed_from_u64(seed);

    let dct = &ladders.dct[2];
    let blocks: Vec<[i16; 16]> =
        (0..64).map(|_| std::array::from_fn(|_| (rng.next_u64() % 511) as i16 - 255)).collect();
    let scalar_dct = || -> Vec<[i16; 16]> {
        blocks
            .iter()
            .map(|blk| {
                let grid =
                    std::array::from_fn(|r| std::array::from_fn(|c| i64::from(blk[4 * r + c])));
                let y = dct.dct.forward(&grid);
                std::array::from_fn(|i| y[i / 4][i % 4] as i16)
            })
            .collect()
    };
    assert_eq!(scalar_dct(), eval_dct(dct, &blocks));
    let mut h = Harness::group("server_engine_dct_64blocks");
    h.bench("scalar", || black_box(scalar_dct()));
    h.bench("compiled", || black_box(eval_dct(dct, black_box(&blocks))));

    let fir = &ladders.fir[2];
    let streams: Vec<Vec<u8>> =
        (0..64).map(|_| (0..8).map(|_| rng.next_u64() as u8).collect()).collect();
    let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
    let scalar_fir = || -> Vec<Vec<i32>> {
        streams
            .iter()
            .map(|s| {
                let wide: Vec<u64> = s.iter().map(|&v| u64::from(v)).collect();
                fir.fir.apply(&wide).into_iter().map(|v| v as i32).collect()
            })
            .collect()
    };
    assert_eq!(scalar_fir(), eval_fir(fir, &refs));
    let mut h = Harness::group("server_engine_fir_64x8");
    h.bench("scalar", || black_box(scalar_fir()));
    h.bench("compiled", || black_box(eval_fir(fir, black_box(&refs))));
}

fn main() {
    let rca = RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx2, 4).unwrap();
    let rca_nl = ripple_netlist(&rca);
    bench_pair_sweep("jit_rca8_sweep_65536", &rca_nl, 8, |a, b| a + b);
    bench_raw_eval("jit_rca8_eval_65536", &rca_nl, 0xE7A1);

    let wallace = WallaceMultiplier::new(8, FullAdderKind::Apx4, 8).unwrap();
    let wallace_nl = wallace_netlist(&wallace);
    bench_pair_sweep("jit_wallace8x8_sweep_65536", &wallace_nl, 8, |a, b| a * b);
    bench_raw_eval("jit_wallace8x8_eval_65536", &wallace_nl, 0xE7A2);
    bench_metrics_accumulate(&wallace, 0xACC5);

    bench_lanes_transpose(0x7A05);

    bench_server_engine(0x5E2E);

    let profile = xlac_obs::export_json_lines();
    if !profile.is_empty() {
        print!("{profile}");
    }
}
