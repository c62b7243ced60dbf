//! Differential fuzz suite for the bit-plane JIT (DESIGN.md §13).
//!
//! Seeded random netlists — full gate vocabulary, reconvergent fanout,
//! repeated/constant/passthrough outputs — are compiled to bytecode and
//! the compiled function is compared against two independent evaluators:
//! the netlist's word-level interpreter (`eval_words`) and its scalar
//! packer (`eval`), on every lane, at all three plane-block widths.
//! Input spaces up to 2^20 are enumerated exhaustively (an exhaustive
//! check *is* a proof); wider modules get ≥ 10^5 seeded vectors. Lane
//! permutation and sweep thread count are proven not to matter.

use xlac_core::lanes::{self, PlaneBlock, LANES};
use xlac_core::rng::{DefaultRng, Rng};
use xlac_logic::random::{random_netlist, RandomNetlistSpec};
use xlac_logic::Netlist;
use xlac_multipliers::hw::wallace_netlist;
use xlac_multipliers::WallaceMultiplier;
use xlac_sim::{compiled_pair_sweep, CompiledProgram, SweepOptions};

/// Runs `prog` over one 64-lane batch of input words at plane width `B`,
/// placing the batch in word `word` of each block (the other words carry
/// unrelated noise drawn from `rng`, so cross-word independence is
/// exercised too), and returns the output words of that batch.
fn run_batch_at<B: PlaneBlock>(
    prog: &CompiledProgram,
    words: &[u64],
    word: usize,
    rng: &mut DefaultRng,
) -> Vec<u64> {
    let inputs: Vec<B> = words
        .iter()
        .map(|&w| {
            let mut block = B::zeros();
            for s in 0..B::WORDS {
                block.set_word(s, if s == word { w } else { rng.next_u64() });
            }
            block
        })
        .collect();
    prog.run(&inputs).iter().map(|o| o.word(word)).collect()
}

/// Asserts compiled == interpreted == scalar on one 64-lane batch of
/// input words, at every plane width.
fn assert_batch_agrees(nl: &Netlist, prog: &CompiledProgram, words: &[u64], rng: &mut DefaultRng) {
    let interpreted = nl.eval_words(words);
    let w1 = run_batch_at::<u64>(prog, words, 0, rng);
    let w4 = run_batch_at::<[u64; 4]>(prog, words, rng.gen_range(0..4), rng);
    let w8 = run_batch_at::<[u64; 8]>(prog, words, rng.gen_range(0..8), rng);
    assert_eq!(w1, interpreted, "{}: u64 plane vs interpreter", nl.name());
    assert_eq!(w4, interpreted, "{}: [u64;4] plane vs interpreter", nl.name());
    assert_eq!(w8, interpreted, "{}: [u64;8] plane vs interpreter", nl.name());
    // The scalar packer is the third, independent evaluator: spot-check
    // a handful of lanes per batch (all 64 would just re-derive
    // eval_words bit by bit).
    for lane in [0usize, 17, 63] {
        let packed =
            words.iter().enumerate().fold(0u64, |acc, (i, &w)| acc | (((w >> lane) & 1) << i));
        let out_scalar = nl.eval(packed);
        let out_lanes = interpreted
            .iter()
            .enumerate()
            .fold(0u64, |acc, (k, &o)| acc | (((o >> lane) & 1) << k));
        assert_eq!(out_scalar, out_lanes, "{}: scalar eval at lane {lane}", nl.name());
        assert_eq!(out_scalar, prog.eval(packed), "{}: compiled eval at lane {lane}", nl.name());
    }
}

/// Exhaustive batches covering `0..2^n` (n ≤ 20): plane `i`, lane `j`
/// carries bit `i` of assignment `base + j`.
fn exhaustive_batches(n_inputs: usize) -> impl Iterator<Item = Vec<u64>> {
    assert!(n_inputs <= 20);
    (0..(1u64 << n_inputs)).step_by(LANES).map(move |base| {
        (0..n_inputs)
            .map(|i| (0..64).fold(0u64, |p, j| p | ((((base + j) >> i) & 1) << j)))
            .collect()
    })
}

#[test]
fn random_netlists_are_exhaustively_equivalent_at_every_width() {
    // Default spec: 2..=8 inputs, full vocabulary, up to 48 gates. 96
    // seeds × ≤ 256 assignments, three plane widths each.
    let spec = RandomNetlistSpec::default();
    let mut rng = DefaultRng::seed_from_u64(0xD1FF);
    for seed in 0..96 {
        let nl = random_netlist(seed, &spec);
        let prog = CompiledProgram::compile(&nl);
        for words in exhaustive_batches(nl.n_inputs()) {
            assert_batch_agrees(&nl, &prog, &words, &mut rng);
        }
    }
}

#[test]
fn deep_netlists_up_to_twenty_inputs_are_exhaustively_equivalent() {
    // The exhaustive ceiling: 17..=20 inputs, deeper and wider DAGs.
    let spec = RandomNetlistSpec {
        min_inputs: 17,
        max_inputs: 20,
        max_gates: 96,
        max_depth: 16,
        max_outputs: 8,
    };
    let mut rng = DefaultRng::seed_from_u64(0x000D_1FF2);
    for seed in 1000..1004 {
        let nl = random_netlist(seed, &spec);
        let prog = CompiledProgram::compile(&nl);
        for words in exhaustive_batches(nl.n_inputs()) {
            // Full differential at the three widths on a sparse subset,
            // cheap u64 twin on every batch — exhaustiveness comes from
            // the latter.
            if words[0] & 0xFFF == 0 {
                assert_batch_agrees(&nl, &prog, &words, &mut rng);
            } else {
                let inputs: Vec<u64> = words.clone();
                assert_eq!(prog.run(&inputs), nl.eval_words(&words), "{}", nl.name());
            }
        }
    }
}

#[test]
fn wide_netlists_get_a_hundred_thousand_seeded_vectors() {
    // Beyond exhaustive reach: 21..=32 inputs. 100 032 vectors = 1563
    // full 64-lane batches, all three plane widths per batch.
    let spec = RandomNetlistSpec {
        min_inputs: 21,
        max_inputs: 32,
        max_gates: 128,
        max_depth: 16,
        max_outputs: 10,
    };
    let mut noise = DefaultRng::seed_from_u64(0x000D_1FF3);
    for seed in 2000..2003 {
        let nl = random_netlist(seed, &spec);
        assert!(nl.n_inputs() > 20, "spec must exceed the exhaustive ceiling");
        let prog = CompiledProgram::compile(&nl);
        let mut rng = DefaultRng::seed_from_u64(0x5EED ^ seed);
        for _ in 0..(100_032 / LANES) {
            let words: Vec<u64> = (0..nl.n_inputs()).map(|_| rng.next_u64()).collect();
            assert_batch_agrees(&nl, &prog, &words, &mut noise);
        }
    }
}

#[test]
fn lane_permutations_commute_with_compiled_evaluation() {
    // Evaluating permuted inputs must equal permuting evaluated outputs —
    // lanes are fully independent in the compiled engine. Checked at all
    // three widths by permuting each block word.
    let spec = RandomNetlistSpec { max_gates: 64, ..RandomNetlistSpec::default() };
    let mut rng = DefaultRng::seed_from_u64(0xBEA7);
    let mut perm: [usize; LANES] = std::array::from_fn(|i| i);
    for seed in 500..516 {
        let nl = random_netlist(seed, &spec);
        let prog = CompiledProgram::compile(&nl);
        // A seeded Fisher-Yates shuffle per netlist.
        for i in (1..LANES).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        fn check<B: PlaneBlock>(prog: &CompiledProgram, words: &[Vec<u64>], perm: &[usize; LANES]) {
            let pack = |cols: &[Vec<u64>]| -> Vec<B> {
                (0..cols[0].len())
                    .map(|i| {
                        let mut blk = B::zeros();
                        for (s, col) in cols.iter().enumerate() {
                            blk.set_word(s, col[i]);
                        }
                        blk
                    })
                    .collect()
            };
            let straight = prog.run(&pack(words));
            let permuted_words: Vec<Vec<u64>> =
                words.iter().map(|col| lanes::permute_lanes(col, perm)).collect();
            let permuted = prog.run(&pack(&permuted_words));
            for (o_straight, o_permuted) in straight.iter().zip(&permuted) {
                for s in 0..B::WORDS {
                    let expect = lanes::permute_lanes(&[o_straight.word(s)], perm)[0];
                    assert_eq!(o_permuted.word(s), expect, "word {s}");
                }
            }
        }
        let draw = |rng: &mut DefaultRng, w: usize| -> Vec<Vec<u64>> {
            (0..w).map(|_| (0..nl.n_inputs()).map(|_| rng.next_u64()).collect()).collect()
        };
        let (w1, w4, w8) = (draw(&mut rng, 1), draw(&mut rng, 4), draw(&mut rng, 8));
        check::<u64>(&prog, &w1, &perm);
        check::<[u64; 4]>(&prog, &w4, &perm);
        check::<[u64; 8]>(&prog, &w8, &perm);
    }
}

#[test]
fn compiled_sweeps_are_thread_count_invariant_at_every_width() {
    let m = WallaceMultiplier::new(8, xlac_adders::FullAdderKind::Apx2, 5).unwrap();
    let prog = CompiledProgram::compile(&wallace_netlist(&m));
    let exact = |a: u64, b: u64| a * b;
    for threads in [1usize, 2, 8] {
        let opts = SweepOptions::new(20_000, 0x7C0).threads(threads).chunk(1024);
        let base = SweepOptions::new(20_000, 0x7C0).threads(3).chunk(1024);
        assert_eq!(
            compiled_pair_sweep::<u64, _>(&prog, 8, exact, &opts),
            compiled_pair_sweep::<u64, _>(&prog, 8, exact, &base),
            "u64 planes, {threads} threads"
        );
        assert_eq!(
            compiled_pair_sweep::<[u64; 4], _>(&prog, 8, exact, &opts),
            compiled_pair_sweep::<[u64; 4], _>(&prog, 8, exact, &base),
            "[u64;4] planes, {threads} threads"
        );
        assert_eq!(
            compiled_pair_sweep::<[u64; 8], _>(&prog, 8, exact, &opts),
            compiled_pair_sweep::<[u64; 8], _>(&prog, 8, exact, &base),
            "[u64;8] planes, {threads} threads"
        );
    }
}
