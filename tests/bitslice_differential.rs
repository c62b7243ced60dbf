//! Differential tests locking the bit-sliced 64-way evaluators to the
//! scalar golden models.
//!
//! Every 64-lane form — a hand `*_x64` evaluator, or the compiled `hw`
//! netlist of a unit that has no hand form (Wallace, truncated,
//! subtractor, SAD, the FIR tap windows) — must agree with its scalar twin **on every lane**:
//! configurations whose input space fits in 2^20 pairs are swept
//! exhaustively; wider ones see at least 10^5 seeded random vectors. The
//! scalar models are the specification — any divergence is a bug in the
//! bit-sliced engine, never tolerated as "approximately equal".

use xlac::adders::hw::subtractor_netlist;
use xlac::adders::{Adder, FullAdderKind, GeArAdder, RippleCarryAdder, Subtractor};
use xlac::core::bits;
use xlac::core::lanes;
use xlac::core::rng::{DefaultRng, Rng};
use xlac::logic::Netlist;
use xlac::multipliers::hw::{truncated_netlist, wallace_netlist};
use xlac::multipliers::{
    Mul2x2Kind, Multiplier, MultiplierX64, RecursiveMultiplier, SumMode, TruncatedMultiplier,
    WallaceMultiplier,
};
use xlac::sim::{CompiledMultiplier, CompiledProgram};

/// Minimum random vectors for configurations beyond exhaustive reach.
const RANDOM_TRIALS: u64 = 100_096; // 1564 full 64-lane batches

/// Runs `visit` over every 64-lane batch of an exhaustive sweep of all
/// `(a, b)` pairs at width `w` (caller guarantees `2^(2w) ≤ 2^20`).
/// Ragged tails repeat the last pair; only the first `n` lanes are
/// asserted on.
fn exhaustive_batches(w: usize, mut visit: impl FnMut(&[u64; 64], &[u64; 64], usize)) {
    assert!(2 * w <= 20, "exhaustive sweep must fit 2^20 pairs");
    let total = 1u64 << (2 * w);
    let mut idx = 0u64;
    while idx < total {
        let n = ((total - idx).min(64)) as usize;
        let mut a = [0u64; 64];
        let mut b = [0u64; 64];
        for l in 0..64 {
            let i = idx + (l as u64).min(n as u64 - 1);
            a[l] = i >> w;
            b[l] = i & bits::mask(w);
        }
        visit(&a, &b, n);
        idx += n as u64;
    }
}

/// Runs `visit` over `trials` seeded random pairs at width `w`, 64 lanes
/// per batch.
fn random_batches(
    w: usize,
    trials: u64,
    seed: u64,
    mut visit: impl FnMut(&[u64; 64], &[u64; 64], usize),
) {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let mut done = 0u64;
    while done < trials {
        let n = ((trials - done).min(64)) as usize;
        let mut a = [0u64; 64];
        let mut b = [0u64; 64];
        rng.fill_u64(&mut a);
        rng.fill_u64(&mut b);
        for v in a.iter_mut().chain(b.iter_mut()) {
            *v = bits::truncate(*v, w);
        }
        visit(&a, &b, n);
        done += n as u64;
    }
}

/// Asserts lane-by-lane equality of a ripple adder's `add_x64` against
/// its scalar `Adder` model on one batch.
fn assert_adder_batch(
    adder: &RippleCarryAdder,
    w: usize,
    a: &[u64; 64],
    b: &[u64; 64],
    n: usize,
    name: &str,
) {
    let planes = adder.add_x64(&lanes::to_planes(a, w), &lanes::to_planes(b, w));
    for l in 0..n {
        assert_eq!(
            lanes::lane(&planes, l),
            adder.add(a[l], b[l]),
            "{name}: lane {l}, a={}, b={}",
            a[l],
            b[l]
        );
    }
}

/// Asserts lane-by-lane equality of a 64-lane multiplier form against
/// the scalar `Multiplier` model on one batch.
fn assert_mul_batch(
    m: &dyn Multiplier,
    sliced: &dyn MultiplierX64,
    a: &[u64; 64],
    b: &[u64; 64],
    n: usize,
    name: &str,
) {
    let w = m.width();
    let planes = sliced.mul_x64(&lanes::to_planes(a, w), &lanes::to_planes(b, w));
    for l in 0..n {
        assert_eq!(
            lanes::lane(&planes, l),
            m.mul(a[l], b[l]),
            "{name}: lane {l}, a={}, b={}",
            a[l],
            b[l]
        );
    }
}

/// The compiled `hw` netlist of multiplier `m`: its only 64-lane form
/// when it has no hand `mul_x64`.
fn compiled(m: &dyn Multiplier, netlist: &Netlist) -> CompiledMultiplier {
    CompiledMultiplier::new(netlist, m.width(), m.name(), m.hw_cost()).unwrap()
}

/// Runs a compiled two-operand program on 64-lane operand batches
/// (operand `a` in inputs `0..w`, `b` in `w..2w`).
fn run_pair(prog: &CompiledProgram, w: usize, a: &[u64; 64], b: &[u64; 64]) -> Vec<u64> {
    let mut inputs = lanes::to_planes(a, w);
    inputs.extend(lanes::to_planes(b, w));
    prog.run::<u64>(&inputs)
}

// ---------------------------------------------------------------------
// 1-bit cells and 2×2 blocks: exhaustive over every lane pattern.
// ---------------------------------------------------------------------

#[test]
fn full_adder_cells_x64_match_truth_tables_exhaustively() {
    // Pack all 8 input combinations into the lanes repeatedly, plus an
    // all-lanes-identical pattern per combination.
    for kind in FullAdderKind::ALL {
        for combo in 0..8u64 {
            let (a, b, cin) = (combo & 1, (combo >> 1) & 1, (combo >> 2) & 1);
            let fill = |bit: u64| if bit == 1 { u64::MAX } else { 0 };
            let (s, c) = kind.eval_x64(fill(a), fill(b), fill(cin));
            let (es, ec) = kind.eval(a, b, cin);
            assert_eq!(s, fill(es), "{kind} sum on combo {combo}");
            assert_eq!(c, fill(ec), "{kind} carry on combo {combo}");
        }
        // Mixed lanes: lane l carries combination l % 8.
        let mut a = 0u64;
        let mut b = 0u64;
        let mut cin = 0u64;
        for l in 0..64 {
            let combo = (l % 8) as u64;
            a |= (combo & 1) << l;
            b |= ((combo >> 1) & 1) << l;
            cin |= ((combo >> 2) & 1) << l;
        }
        let (s, c) = kind.eval_x64(a, b, cin);
        for l in 0..64 {
            let combo = (l % 8) as u64;
            let (es, ec) = kind.eval(combo & 1, (combo >> 1) & 1, (combo >> 2) & 1);
            assert_eq!((s >> l) & 1, es, "{kind} sum lane {l}");
            assert_eq!((c >> l) & 1, ec, "{kind} carry lane {l}");
        }
    }
}

#[test]
fn mul2x2_blocks_x64_match_scalar_exhaustively() {
    for kind in [Mul2x2Kind::Accurate, Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        // All 16 operand pairs, each broadcast and also packed into lanes.
        let mut a = [0u64; 64];
        let mut b = [0u64; 64];
        for l in 0..64 {
            a[l] = (l as u64) & 3;
            b[l] = ((l as u64) >> 2) & 3;
        }
        let pa = lanes::to_planes(&a, 2);
        let pb = lanes::to_planes(&b, 2);
        let p = kind.mul_x64(pa[0], pa[1], pb[0], pb[1]);
        for l in 0..64 {
            let got = (0..4).fold(0u64, |acc, i| acc | (((p[i] >> l) & 1) << i));
            assert_eq!(got, kind.mul(a[l], b[l]), "{kind:?}: {} × {}", a[l], b[l]);
        }
    }
}

// ---------------------------------------------------------------------
// Ripple-carry adders: 6 cells × widths 4/8 exhaustive, width 16 random.
// ---------------------------------------------------------------------

#[test]
fn ripple_adders_x64_match_scalar_exhaustively_at_widths_4_and_8() {
    for w in [4usize, 8] {
        for kind in FullAdderKind::ALL {
            for lsbs in [w / 2, w] {
                let adder = RippleCarryAdder::with_approx_lsbs(w, kind, lsbs).unwrap();
                let name = format!("RCA(w={w},{kind},lsbs={lsbs})");
                exhaustive_batches(w, |a, b, n| assert_adder_batch(&adder, w, a, b, n, &name));
            }
        }
    }
}

#[test]
fn ripple_adders_x64_match_scalar_on_random_16_bit_vectors() {
    let w = 16usize;
    for kind in FullAdderKind::ALL {
        for lsbs in [6usize, 16] {
            let adder = RippleCarryAdder::with_approx_lsbs(w, kind, lsbs).unwrap();
            let name = format!("RCA(w=16,{kind},lsbs={lsbs})");
            random_batches(w, RANDOM_TRIALS, 0x16_0000 ^ lsbs as u64, |a, b, n| {
                assert_adder_batch(&adder, w, a, b, n, &name);
            });
        }
    }
}

// ---------------------------------------------------------------------
// GeAr (incl. ACA-I / ACA-II / ETAII aliases), with and without EDC.
// ---------------------------------------------------------------------

/// Asserts the full per-lane outcome (value, detections, iterations) of a
/// GeAr batch against the scalar model.
fn assert_gear_batch(
    gear: &GeArAdder,
    max_iterations: Option<usize>,
    a: &[u64; 64],
    b: &[u64; 64],
    n: usize,
    name: &str,
) {
    let w = gear.n();
    let pa = lanes::to_planes(a, w);
    let pb = lanes::to_planes(b, w);
    let out = match max_iterations {
        None => gear.add_x64(&pa, &pb),
        Some(k) => gear.add_with_correction_x64(&pa, &pb, k),
    };
    for l in 0..n {
        let scalar = match max_iterations {
            None => gear.add(a[l], b[l]),
            Some(k) => gear.add_with_correction(a[l], b[l], k),
        };
        assert_eq!(
            out.lane(l),
            scalar,
            "{name} max_iter={max_iterations:?}: lane {l}, a={}, b={}",
            a[l],
            b[l]
        );
    }
}

#[test]
fn gear_adders_x64_match_scalar_exhaustively_at_8_bits() {
    let configs = [
        GeArAdder::new(8, 2, 2).unwrap(),
        GeArAdder::new(8, 1, 3).unwrap(),
        GeArAdder::new(8, 4, 4).unwrap(),
        GeArAdder::aca_i(8, 4).unwrap(),
        GeArAdder::aca_ii(8, 4).unwrap(),
        GeArAdder::etaii(8, 2).unwrap(),
    ];
    for gear in &configs {
        let name = format!("GeAr(n=8,r={},p={})", gear.r(), gear.p());
        for max_iterations in [None, Some(0), Some(1), Some(usize::MAX)] {
            exhaustive_batches(8, |a, b, n| {
                assert_gear_batch(gear, max_iterations, a, b, n, &name);
            });
        }
    }
}

#[test]
fn gear_adders_x64_match_scalar_on_random_wide_vectors() {
    let configs = [
        GeArAdder::new(16, 4, 4).unwrap(),
        GeArAdder::new(12, 4, 4).unwrap(),
        GeArAdder::aca_i(16, 4).unwrap(),
        GeArAdder::aca_ii(16, 8).unwrap(),
        GeArAdder::etaii(16, 4).unwrap(),
    ];
    for gear in &configs {
        let w = gear.n();
        let name = format!("GeAr(n={w},r={},p={})", gear.r(), gear.p());
        for max_iterations in [None, Some(1), Some(usize::MAX)] {
            random_batches(w, RANDOM_TRIALS, 0x6EA2 ^ w as u64, |a, b, n| {
                assert_gear_batch(gear, max_iterations, a, b, n, &name);
            });
        }
    }
}

// ---------------------------------------------------------------------
// Multipliers: recursive 4×4/8×8 exhaustive, Wallace and truncated
// exhaustive at 8 bits, 16-bit families random.
// ---------------------------------------------------------------------

#[test]
fn recursive_multipliers_x64_match_scalar_exhaustively() {
    let sum_modes = [
        SumMode::Accurate,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx1, lsbs: 2 },
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx3, lsbs: 4 },
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx5, lsbs: 4 },
    ];
    for w in [4usize, 8] {
        for block in Mul2x2Kind::ALL {
            for sum in sum_modes {
                let m = RecursiveMultiplier::new(w, block, sum).unwrap();
                let name = m.name();
                exhaustive_batches(w, |a, b, n| assert_mul_batch(&m, &m, a, b, n, &name));
            }
        }
    }
}

#[test]
fn wallace_multipliers_x64_match_scalar_exhaustively_at_8_bits() {
    let configs = [
        (FullAdderKind::Accurate, 0usize),
        (FullAdderKind::Apx2, 4),
        (FullAdderKind::Apx4, 8),
        (FullAdderKind::Apx5, 8),
    ];
    for (kind, cols) in configs {
        let m = WallaceMultiplier::new(8, kind, cols).unwrap();
        let (name, hw) = (m.name(), compiled(&m, &wallace_netlist(&m)));
        exhaustive_batches(8, |a, b, n| assert_mul_batch(&m, &hw, a, b, n, &name));
    }
}

#[test]
fn truncated_multipliers_x64_match_scalar_exhaustively_at_8_bits() {
    for dropped in [0usize, 3, 6] {
        for compensated in [false, true] {
            let m = TruncatedMultiplier::new(8, dropped, compensated).unwrap();
            let (name, hw) = (m.name(), compiled(&m, &truncated_netlist(&m)));
            exhaustive_batches(8, |a, b, n| assert_mul_batch(&m, &hw, a, b, n, &name));
        }
    }
}

#[test]
fn sixteen_bit_multipliers_x64_match_scalar_on_random_vectors() {
    let rec = RecursiveMultiplier::new(
        16,
        Mul2x2Kind::ApxSoA,
        SumMode::ApproxLsbs { kind: FullAdderKind::Apx1, lsbs: 2 },
    )
    .unwrap();
    let wal = WallaceMultiplier::new(16, FullAdderKind::Apx4, 8).unwrap();
    let tru = TruncatedMultiplier::new(16, 8, true).unwrap();
    let wal_hw = compiled(&wal, &wallace_netlist(&wal));
    let tru_hw = compiled(&tru, &truncated_netlist(&tru));
    let muls: [(&dyn Multiplier, &dyn MultiplierX64); 3] =
        [(&rec, &rec), (&wal, &wal_hw), (&tru, &tru_hw)];
    for (m, sliced) in muls {
        let name = m.name();
        random_batches(16, RANDOM_TRIALS, 0x3113, |a, b, n| {
            assert_mul_batch(m, sliced, a, b, n, &name);
        });
    }
}

// ---------------------------------------------------------------------
// Subtractor: exhaustive differential plus the PR 2 wrap-hazard
// regressions pinned at lane boundaries, on the compiled netlist
// (magnitude planes, then the a >= b plane).
// ---------------------------------------------------------------------

/// The compiled `subtractor_netlist` of `sub`.
fn compiled_sub(sub: &Subtractor<RippleCarryAdder>) -> CompiledProgram {
    CompiledProgram::compile(&subtractor_netlist(sub))
}

#[test]
fn subtractor_x64_matches_scalar_exhaustively_at_8_bits() {
    for (kind, lsbs) in [
        (FullAdderKind::Accurate, 0usize),
        (FullAdderKind::Apx2, 4),
        (FullAdderKind::Apx4, 6),
        (FullAdderKind::Apx5, 4),
    ] {
        let sub = Subtractor::new(RippleCarryAdder::with_approx_lsbs(8, kind, lsbs).unwrap());
        let name = format!("Sub(8,{kind},lsbs={lsbs})");
        let prog = compiled_sub(&sub);
        exhaustive_batches(8, |a, b, n| {
            let out = run_pair(&prog, 8, a, b);
            let (planes, ge_mask) = (&out[..8], out[8]);
            for l in 0..n {
                let (mag, a_ge_b) = sub.sub(a[l], b[l]);
                assert_eq!(
                    lanes::lane(planes, l),
                    mag,
                    "{name}: magnitude, lane {l}, a={}, b={}",
                    a[l],
                    b[l]
                );
                assert_eq!(
                    (ge_mask >> l) & 1,
                    u64::from(a_ge_b),
                    "{name}: sign, lane {l}, a={}, b={}",
                    a[l],
                    b[l]
                );
            }
        });
    }
}

/// The PR 2 wrap hazard: with aggressive cells the inner `!b + a + 1`
/// increment can carry *twice* out of the top plane (`raw >> w == 2`), so
/// the sign test must OR the two overflow planes. These pinned vectors
/// reach that state; each is planted at both lane 0 and lane 63 with
/// adversarial neighbours to prove lane isolation across the hazard.
#[test]
fn subtractor_x64_wrap_hazard_regressions_at_lane_boundaries() {
    let hazard_configs = [
        (FullAdderKind::Apx5, 4usize),
        (FullAdderKind::Apx5, 8),
        (FullAdderKind::Apx3, 6),
        (FullAdderKind::Apx2, 8),
    ];
    // (a, b) pairs whose scalar path exercises raw-sum overflow: a ≥ b
    // with b = 0 (raw = !0 + a + 1 wraps), maximal a, and equal operands.
    let vectors = [(0xF8u64, 0u64), (0xFF, 0), (0xFF, 0xFF), (0x80, 0x7F), (1, 0), (0, 0xFF)];
    for (kind, lsbs) in hazard_configs {
        let sub = Subtractor::new(RippleCarryAdder::with_approx_lsbs(8, kind, lsbs).unwrap());
        let prog = compiled_sub(&sub);
        for &(va, vb) in &vectors {
            for hot_lane in [0usize, 31, 63] {
                // Neighbour lanes carry the complementary pattern so a
                // carry leaking across a lane boundary changes a result.
                let mut a = [vb; 64];
                let mut b = [va; 64];
                a[hot_lane] = va;
                b[hot_lane] = vb;
                let out = run_pair(&prog, 8, &a, &b);
                let (planes, ge_mask) = (&out[..8], out[8]);
                for l in 0..64 {
                    let (mag, a_ge_b) = sub.sub(a[l], b[l]);
                    assert_eq!(
                        lanes::lane(planes, l),
                        mag,
                        "{kind}/{lsbs}: ({va},{vb}) at lane {hot_lane}, checking lane {l}"
                    );
                    assert_eq!((ge_mask >> l) & 1, u64::from(a_ge_b));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Accelerator datapaths: SAD and FIR batches against the scalar models.
// ---------------------------------------------------------------------

#[test]
fn sad_datapath_x64_matches_scalar_on_random_blocks() {
    use xlac::accel::hw::sad_netlist;
    use xlac::accel::sad::{SadAccelerator, SadVariant};
    let mut rng = DefaultRng::seed_from_u64(0x5AD5);
    for (variant, lsbs) in [
        (SadVariant::Accurate, 0usize),
        (SadVariant::ApxSad1, 2),
        (SadVariant::ApxSad3, 4),
        (SadVariant::ApxSad5, 6),
    ] {
        let sad = SadAccelerator::new(16, variant, lsbs).unwrap();
        let prog = CompiledProgram::compile(&sad_netlist(&sad));
        for _ in 0..20 {
            let blocks: Vec<(Vec<u64>, Vec<u64>)> = (0..64)
                .map(|_| {
                    (
                        (0..16).map(|_| rng.gen_range(0..256u64)).collect(),
                        (0..16).map(|_| rng.gen_range(0..256u64)).collect(),
                    )
                })
                .collect();
            // Slot-major input planes: current block, then reference.
            let batch = |reference: bool| -> Vec<u64> {
                (0..16)
                    .flat_map(|i| {
                        let mut vals = [0u64; 64];
                        for (j, b) in blocks.iter().enumerate() {
                            vals[j] = if reference { b.1[i] } else { b.0[i] };
                        }
                        lanes::to_planes(&vals, 8)
                    })
                    .collect()
            };
            let planes = prog.run::<u64>(&[batch(false), batch(true)].concat());
            for (j, (c, r)) in blocks.iter().enumerate() {
                assert_eq!(
                    lanes::lane(&planes, j),
                    sad.sad(c, r).unwrap(),
                    "{variant}/{lsbs}: lane {j}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Observability determinism: the counters the sweeps emit must be a pure
// function of the workload — bitwise-identical for any worker-thread
// count — and a guaranteed no-op when the `obs` feature is off.
// ---------------------------------------------------------------------

/// Serializes the obs-registry tests: the registry is process-global, so
/// two tests resetting and reading it concurrently would race.
static OBS_REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs a fixed multiplier + GeAr + compiled + interpreted sweep workload
/// at the given thread count and returns the resulting counter table.
fn sweep_counters_with_threads(threads: usize) -> Vec<(String, u64)> {
    use xlac::sim::sweeps::{
        compiled_pair_sweep, gear_sweep, interpreted_pair_sweep, multiplier_sweep, SweepOptions,
    };
    let wallace = WallaceMultiplier::new(8, FullAdderKind::Apx2, 5).unwrap();
    let netlist = xlac::multipliers::hw::wallace_netlist(&wallace);
    let prog = xlac::sim::CompiledProgram::compile(&netlist);
    xlac::obs::reset();
    let opts = SweepOptions::new(6_000, 0xDE7).threads(threads).chunk(512);
    let m = RecursiveMultiplier::new(8, Mul2x2Kind::ApxSoA, SumMode::Accurate).unwrap();
    let stats = multiplier_sweep(&m, &opts);
    assert_eq!(stats.samples, 6_000);
    let gear = GeArAdder::new(8, 2, 2).unwrap();
    let result = gear_sweep(&gear, Some(1), &opts);
    assert_eq!(result.stats.samples, 6_000);
    let exact = |a: u64, b: u64| a * b;
    let compiled = compiled_pair_sweep::<[u64; 4], _>(&prog, 8, exact, &opts);
    assert_eq!(compiled, interpreted_pair_sweep(&netlist, 8, exact, &opts));
    xlac::obs::snapshot().counters
}

#[test]
fn obs_counter_totals_are_thread_count_invariant() {
    let _guard = OBS_REGISTRY_LOCK.lock().unwrap();
    let baseline = sweep_counters_with_threads(1);
    if xlac::obs::enabled() {
        // Counters accumulate per chunk, so totals are plain integer sums
        // over a thread-independent chunk decomposition.
        let counters = |name: &str| baseline.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        // Four sweeps of 6000 trials at chunk 512: 11 full chunks of 8
        // batches and one 368-trial chunk of 6 batches each.
        assert_eq!(counters("sim.trials"), Some(4 * 6_000));
        assert_eq!(counters("sim.chunks"), Some(4 * 12));
        assert_eq!(counters("sim.sweep.lanes"), Some(4 * (11 * 8 + 6) * 64));
    }
    for threads in [2usize, 4, 8] {
        assert_eq!(
            sweep_counters_with_threads(threads),
            baseline,
            "counter totals changed at {threads} worker threads"
        );
    }
}

#[test]
fn obs_disabled_build_records_nothing() {
    let _guard = OBS_REGISTRY_LOCK.lock().unwrap();
    let counters = sweep_counters_with_threads(2);
    if xlac::obs::enabled() {
        assert!(!counters.is_empty(), "enabled build must record the sweeps");
    } else {
        // The no-op registry: nothing recorded, nothing exported, and the
        // snapshot is empty even right after an instrumented workload.
        assert!(counters.is_empty());
        assert!(xlac::obs::snapshot().is_empty());
        assert!(xlac::obs::export_json_lines().is_empty());
    }
}

#[test]
fn fir_datapath_x64_matches_scalar_on_random_streams() {
    use xlac::accel::config::ApproxMode;
    use xlac::accel::fir::FirAccelerator;
    use xlac::sim::FirWindows;
    let mut rng = DefaultRng::seed_from_u64(0xF12);
    let kernels: [&[i64]; 3] = [&[1, 2, 1], &[3, -5, 7, 2, 1], &[-2, 5, -2]];
    for mode in ApproxMode::ALL {
        for h in kernels {
            let fir = FirAccelerator::new(h, mode).unwrap();
            let streams: Vec<Vec<u8>> = (0..64)
                .map(|_| (0..24).map(|_| rng.gen_range(0..256u64) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            let sliced = FirWindows::new(&fir).eval(&fir, &refs);
            for (j, stream) in streams.iter().enumerate() {
                let wide: Vec<u64> = stream.iter().map(|&v| u64::from(v)).collect();
                let scalar = fir.apply(&wide);
                for (t, &expected) in scalar.iter().enumerate() {
                    assert_eq!(sliced[j][t], expected, "{mode} {h:?}: lane {j}, t={t}");
                }
            }
        }
    }
}
