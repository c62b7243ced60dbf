//! Reproducibility guarantees: the paper's open-sourcing goal is
//! "to facilitate reproducible results and research", so every randomized
//! workload in this workspace is seeded and every experiment must be
//! bit-deterministic run to run. These tests re-run the key pipelines
//! twice and require identical results.

use xlac::accel::sad::{SadAccelerator, SadVariant};
use xlac::adders::{Adder, FullAdderKind, GeArAdder, GearErrorModel, RippleCarryAdder};
use xlac::core::rng::{DefaultRng, Rng};
use xlac::imaging::images::TestImage;
use xlac::imaging::resilience::{resilience_study, StudyConfig};
use xlac::multipliers::{Mul2x2Kind, Multiplier, RecursiveMultiplier, SumMode};
use xlac::video::encoder::{Encoder, EncoderConfig};
use xlac::video::sequence::{SequenceConfig, SyntheticSequence};

#[test]
fn cell_characterization_is_deterministic() {
    // The OnceLock caches make repeat calls trivially equal; the real
    // check is that the underlying flow is seed-stable.
    for kind in FullAdderKind::ALL {
        let nl = kind.structural_netlist();
        let p1 = nl.switching_power(4096, 0xFA);
        let p2 = nl.switching_power(4096, 0xFA);
        assert_eq!(p1, p2, "{kind}");
    }
}

#[test]
fn monte_carlo_error_models_are_seed_stable() {
    let model = GearErrorModel::for_adder(&GeArAdder::new(16, 4, 4).unwrap());
    assert_eq!(model.monte_carlo(50_000, 7), model.monte_carlo(50_000, 7));
    assert_eq!(
        model.mean_error_distance_monte_carlo(50_000, 9),
        model.mean_error_distance_monte_carlo(50_000, 9)
    );
}

#[test]
fn video_pipeline_is_bit_deterministic() {
    let cfg = SequenceConfig::small_test();
    let seq1 = SyntheticSequence::generate(&cfg).unwrap();
    let seq2 = SyntheticSequence::generate(&cfg).unwrap();
    assert_eq!(seq1, seq2);
    let run = |seq: &SyntheticSequence| {
        Encoder::new(
            EncoderConfig::default(),
            SadAccelerator::new(64, SadVariant::ApxSad3, 4).unwrap(),
        )
        .unwrap()
        .encode(seq.frames())
        .unwrap()
    };
    let a = run(&seq1);
    let b = run(&seq2);
    assert_eq!(a.total_bits, b.total_bits);
    assert_eq!(a.frame_bits, b.frame_bits);
    assert_eq!(a.psnr_db, b.psnr_db);
}

#[test]
fn resilience_study_is_bit_deterministic() {
    let cfg = StudyConfig { size: 32, kind: FullAdderKind::Apx4, approx_lsbs: 4 };
    let a = resilience_study(&TestImage::ALL, cfg).unwrap();
    let b = resilience_study(&TestImage::ALL, cfg).unwrap();
    assert_eq!(a, b);
}

#[test]
fn masking_analysis_is_seed_stable() {
    use xlac::accel::dataflow::Dataflow;
    use xlac::adders::RippleCarryAdder;
    let build = || {
        let mut g = Dataflow::new(2, 8);
        let apx = g.register_adder(Box::new(
            RippleCarryAdder::with_approx_lsbs(9, FullAdderKind::Apx3, 4).unwrap(),
        ));
        let s = g.add(apx, g.input(0), g.input(1)).unwrap();
        g.mark_output(s);
        g
    };
    let a = build().masking_analysis(200, 5).unwrap();
    let b = build().masking_analysis(200, 5).unwrap();
    assert_eq!(a, b);
}

/// A small seeded pipeline touching all three layers — an approximate
/// ripple adder, a recursive approximate multiplier and the SAD
/// accelerator — returning every intermediate and final output so any
/// divergence anywhere in the chain flips the comparison.
fn seeded_pipeline(seed: u64) -> Vec<u64> {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let adder = RippleCarryAdder::with_approx_lsbs(12, FullAdderKind::Apx3, 4).unwrap();
    let mul = RecursiveMultiplier::new(
        8,
        Mul2x2Kind::ApxSoA,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx4, lsbs: 3 },
    )
    .unwrap();
    let sad = SadAccelerator::new(64, SadVariant::ApxSad3, 4).unwrap();

    let mut out = Vec::new();
    for _ in 0..64 {
        let (a, b) = (rng.gen_range(0..1u64 << 12), rng.gen_range(0..1u64 << 12));
        out.push(adder.add(a, b));
        out.push(mul.mul(a & 0xFF, b & 0xFF));
    }
    let cur: Vec<u64> = (0..64).map(|_| rng.gen_range(0..256u64)).collect();
    let refb: Vec<u64> = (0..64).map(|_| rng.gen_range(0..256u64)).collect();
    out.push(sad.sad(&cur, &refb).unwrap());
    out
}

#[test]
fn seeded_pipeline_is_bit_identical_across_runs() {
    // Regression gate for the vendored RNG substrate: two runs of the
    // same seeded pipeline must agree on every single output word…
    assert_eq!(seeded_pipeline(0xDAC_2016), seeded_pipeline(0xDAC_2016));
    assert_eq!(seeded_pipeline(7), seeded_pipeline(7));
    // …and distinct seeds must actually change the input stream (a
    // constant-output RNG would pass the identity check above).
    assert_ne!(seeded_pipeline(0xDAC_2016), seeded_pipeline(7));
    assert_ne!(seeded_pipeline(1), seeded_pipeline(2));
}

#[test]
fn bit_sliced_sweeps_are_thread_count_invariant() {
    // The xlac-sim contract: chunk RNG streams are assigned before any
    // worker runs and chunk results merge in index order, so a sweep is
    // bitwise-identical for 1, 2 or 8 workers — including every float.
    use xlac::sim::{gear_sweep, multiplier_sweep, sad_sweep, SweepOptions};
    let base = SweepOptions::new(20_000, 0xDAC_2016).chunk(1024);

    let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
    let mul_one = multiplier_sweep(&m, &base.threads(1));
    assert_eq!(mul_one, multiplier_sweep(&m, &base.threads(2)));
    assert_eq!(mul_one, multiplier_sweep(&m, &base.threads(8)));

    let gear = GeArAdder::new(16, 4, 4).unwrap();
    let gear_one = gear_sweep(&gear, Some(1), &base.threads(1));
    assert_eq!(gear_one, gear_sweep(&gear, Some(1), &base.threads(2)));
    assert_eq!(gear_one, gear_sweep(&gear, Some(1), &base.threads(8)));

    let sad = SadAccelerator::new(16, SadVariant::ApxSad3, 4).unwrap();
    let opts = SweepOptions::new(4_000, 9).chunk(256);
    let sad_one = sad_sweep(&sad, &opts.threads(1));
    assert_eq!(sad_one, sad_sweep(&sad, &opts.threads(2)));
    assert_eq!(sad_one, sad_sweep(&sad, &opts.threads(8)));
}

#[test]
fn bit_sliced_sweeps_match_their_scalar_twins() {
    // The sweep drivers draw operands identically in both flavours, so
    // sliced == scalar is an exact equality — the engine-level seal on
    // top of the per-component differential suite.
    use xlac::sim::{
        gear_sweep, gear_sweep_scalar, multiplier_sweep, multiplier_sweep_scalar, SweepOptions,
    };
    let opts = SweepOptions::new(10_000, 0x51CED).chunk(1024);
    let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxOur, SumMode::Accurate).unwrap();
    assert_eq!(multiplier_sweep(&m, &opts), multiplier_sweep_scalar(&m, &opts));
    let gear = GeArAdder::aca_ii(16, 8).unwrap();
    for max_iterations in [None, Some(usize::MAX)] {
        assert_eq!(
            gear_sweep(&gear, max_iterations, &opts),
            gear_sweep_scalar(&gear, max_iterations, &opts)
        );
    }
}

/// The exactly pinned part of a sweep result: every [`ErrorStats`] field
/// (floats by bit pattern, the distinct set by its length), then the two
/// GeAr side tallies (detections, correction passes; zero elsewhere).
type Pin = [u64; 11];

fn pin(s: &xlac::core::metrics::ErrorStats, side: [u64; 2]) -> Pin {
    [
        s.samples,
        s.error_count,
        s.error_rate.to_bits(),
        s.mean_error_distance.to_bits(),
        s.max_error_distance,
        s.mean_signed_error.to_bits(),
        s.mean_relative_error.to_bits(),
        s.distinct_error_values.len() as u64,
        u64::from(s.distinct_saturated),
        side[0],
        side[1],
    ]
}

/// Wallace 8×8 (Apx2 in 5 columns) under uniform, then exponentially
/// decaying operands: shared by all six pair entry points.
#[rustfmt::skip]
const GOLDEN_MUL: [Pin; 2] = [
    [3000, 2879, 0x3fee_b596_de8c_a11c, 0x4037_33e1_f671_529a, 46,
        0x4036_7513_cc1e_098f, 0x3fd5_4e6d_83a8_8733, 23, 0, 0, 0],
    [3000, 2885, 0x3fee_c5f9_2c5f_92c6, 0x4037_a921_735e_e403, 46,
        0x4037_0e2a_5349_0b9b, 0x4000_ff76_9606_1a0f, 23, 0, 0, 0],
];
/// GeAr(12,4,4) at `None`, `Some(0)`, `Some(1)`, `Some(usize::MAX)`,
/// under uniform, then exponentially decaying operands.
#[rustfmt::skip]
const GOLDEN_GEAR: [[Pin; 4]; 2] = [
    [
        [3000, 92, 0x3f9f_6715_29a4_85cd, 0x401f_6715_29a4_85cd, 256,
            0xc01f_6715_29a4_85cd, 0x3f65_1a83_52a8_6347, 1, 0, 92, 0],
        [3000, 92, 0x3f9f_6715_29a4_85cd, 0x401f_6715_29a4_85cd, 256,
            0xc01f_6715_29a4_85cd, 0x3f65_1a83_52a8_6347, 1, 0, 92, 0],
        [3000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 92],
        [3000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 92],
    ],
    [
        [3000, 90, 0x3f9e_b851_eb85_1eb8, 0x401e_b851_eb85_1eb8, 256,
            0xc01e_b851_eb85_1eb8, 0x3f91_2465_00c1_69c7, 1, 0, 90, 0],
        [3000, 90, 0x3f9e_b851_eb85_1eb8, 0x401e_b851_eb85_1eb8, 256,
            0xc01e_b851_eb85_1eb8, 0x3f91_2465_00c1_69c7, 1, 0, 90, 0],
        [3000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 90],
        [3000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 90],
    ],
];
/// ApxSAD3 over 8 slots with 3 approximate LSBs: the statistics, then
/// the MSE and PSNR bit patterns.
#[rustfmt::skip]
const GOLDEN_SAD: (Pin, u64, u64) = (
    [3000, 2914, 0x3fef_1529_a485_cd7c, 0x4024_0f04_c756_b2dc, 47,
        0x4020_1fbe_76c8_b439, 0x3f90_1881_5606_a293, 44, 0, 0, 0],
    0x4063_621c_ac08_3127,
    0x403a_39c3_658c_8517,
);

#[test]
fn every_sweep_entry_point_reproduces_its_golden_pin() {
    // 3000 trials at chunk 512 leave a ragged final chunk, a ragged final
    // 64-lane batch and partial plane blocks at every compiled width.
    use xlac::accel::hw::sad_netlist;
    use xlac::core::dist::InputDistribution;
    use xlac::multipliers::hw::wallace_netlist;
    use xlac::multipliers::WallaceMultiplier;
    use xlac::sim::*;
    let wallace = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
    let nl = wallace_netlist(&wallace);
    let prog = CompiledProgram::compile(&nl);
    let compiled_wallace = CompiledMultiplier::wallace(&wallace);
    let exact = |a: u64, b: u64| a * b;
    let gear = GeArAdder::new(12, 4, 4).unwrap();
    let sad = SadAccelerator::new(8, SadVariant::ApxSad3, 3).unwrap();
    let sad_prog = CompiledProgram::compile(&sad_netlist(&sad));
    let dists = [InputDistribution::Uniform, InputDistribution::ExponentialDecay];
    for threads in [1usize, 2] {
        for (d, dist) in dists.into_iter().enumerate() {
            let opts = SweepOptions::new(3_000, 0x601D).chunk(512).threads(threads).dist(dist);
            let pair_sweeps = [
                ("multiplier_sweep", multiplier_sweep(&compiled_wallace, &opts)),
                ("multiplier_sweep_scalar", multiplier_sweep_scalar(&wallace, &opts)),
                ("compiled u64", compiled_pair_sweep::<u64, _>(&prog, 8, exact, &opts)),
                ("compiled x4", compiled_pair_sweep::<[u64; 4], _>(&prog, 8, exact, &opts)),
                ("compiled x8", compiled_pair_sweep::<[u64; 8], _>(&prog, 8, exact, &opts)),
                ("interpreted", interpreted_pair_sweep(&nl, 8, exact, &opts)),
            ];
            for (name, stats) in &pair_sweeps {
                assert_eq!(pin(stats, [0, 0]), GOLDEN_MUL[d], "{name} {dist:?} t={threads}");
            }
            let budgets = [None, Some(0), Some(1), Some(usize::MAX)];
            for (k, budget) in budgets.into_iter().enumerate() {
                let sliced = gear_sweep(&gear, budget, &opts);
                for r in [sliced, gear_sweep_scalar(&gear, budget, &opts)] {
                    let got = pin(&r.stats, [r.detections, r.correction_iterations]);
                    assert_eq!(got, GOLDEN_GEAR[d][k], "gear {budget:?} {dist:?} t={threads}");
                }
            }
            // The SAD sweeps always draw uniform pixels, whatever `dist`.
            let sad_sweeps = [
                ("sad_sweep", sad_sweep(&sad, &opts)),
                ("sad_sweep_scalar", sad_sweep_scalar(&sad, &opts)),
                ("compiled sad u64", compiled_sad_sweep::<u64>(&sad_prog, &opts)),
                ("compiled sad x4", compiled_sad_sweep::<[u64; 4]>(&sad_prog, &opts)),
                ("compiled sad x8", compiled_sad_sweep::<[u64; 8]>(&sad_prog, &opts)),
            ];
            let (stats, mse, psnr) = GOLDEN_SAD;
            for (name, r) in &sad_sweeps {
                assert_eq!(pin(&r.stats, [0, 0]), stats, "{name} {dist:?} t={threads}");
                // MSE and PSNR are pinned to 1e-12 relative error: only
                // their rounding is allowed to move.
                for (got, want) in [(r.mse, mse), (r.psnr, psnr)] {
                    let (got, want) = (got.expect("3000 trials"), f64::from_bits(want));
                    assert!((got - want).abs() <= 1e-12 * want.abs(), "{name}: {got} vs {want}");
                }
            }
        }
    }
}

#[test]
fn adaptive_controller_is_deterministic() {
    use xlac::video::adaptive::{AdaptiveEncoder, AdaptivePolicy};
    let seq = SyntheticSequence::generate(&SequenceConfig::small_test()).unwrap();
    let enc = AdaptiveEncoder::new(AdaptivePolicy::default()).unwrap();
    let a = enc.encode(seq.frames()).unwrap();
    let b = enc.encode(seq.frames()).unwrap();
    assert_eq!(a, b);
}
