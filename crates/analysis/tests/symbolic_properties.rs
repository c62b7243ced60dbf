//! Seeded property tests for the ROBDD engine (`xlac_core::check`
//! harness, reproducible via `XLAC_CHECK_SEED` / `XLAC_CHECK_REPRO`).
//!
//! Cases are random formula *programs*: a straight-line list of `(op, i,
//! j)` triples appended over an initial node pool of variables and
//! constants. The same program is run twice — once through the BDD
//! manager, once through a direct boolean interpreter — so every law is
//! checked against an implementation that shares no code with the engine:
//!
//! * ITE identities (`ite(f,g,g) = g`, Shannon cofactor recombination,
//!   De Morgan, double negation, xor self-annihilation);
//! * canonicity — the truth table of a formula, recompiled through
//!   [`compile_truth_table`], lands on the *pointer-identical* root;
//! * model counting — `sat_count` equals exhaustive truth-table
//!   enumeration for formulas up to 16 inputs (65 536 rows per case).

use xlac_analysis::symbolic::bdd::{Bdd, Ref, FALSE, TRUE};
use xlac_analysis::symbolic::compile::compile_truth_table;
use xlac_core::check::{check_with, Config};
use xlac_core::prop_assert_eq;
use xlac_core::rng::{DefaultRng, Rng};
use xlac_logic::TruthTable;

/// One random straight-line formula program: `(n_vars_seed, ops)`. Any
/// byte values are valid (the builders reduce indices modulo the live
/// node pool), so shrinking stays total.
type Program = (u8, Vec<(u8, u8, u8)>);

fn gen_program(max_vars: usize) -> impl Fn(&mut DefaultRng) -> Program {
    move |rng| {
        let n_vars = rng.gen_range(1..=max_vars as u64) as u8;
        let len = rng.gen_range(1..32u64) as usize;
        let ops = (0..len).map(|_| (rng.gen::<u8>(), rng.gen::<u8>(), rng.gen::<u8>())).collect();
        (n_vars, ops)
    }
}

fn n_vars_of(program: &Program, max_vars: usize) -> usize {
    (program.0 as usize % max_vars) + 1
}

/// Runs the program through the BDD manager. Node pool starts as
/// `var 0 .. var n-1, TRUE, FALSE`; each op appends one node.
fn build_bdd(bdd: &mut Bdd, n_vars: usize, ops: &[(u8, u8, u8)]) -> Ref {
    let mut nodes: Vec<Ref> = (0..n_vars).map(|i| bdd.var(i)).collect();
    nodes.push(TRUE);
    nodes.push(FALSE);
    for &(op, i, j) in ops {
        let a = nodes[i as usize % nodes.len()];
        let b = nodes[j as usize % nodes.len()];
        let c = nodes[(i as usize + j as usize) % nodes.len()];
        let r = match op % 7 {
            0 => bdd.and(a, b),
            1 => bdd.or(a, b),
            2 => bdd.xor(a, b),
            3 => bdd.nand(a, b),
            4 => bdd.not(a),
            5 => bdd.ite(a, b, c),
            _ => bdd.xnor(a, b),
        };
        nodes.push(r);
    }
    *nodes.last().expect("pool is never empty")
}

/// The independent reference: the same program interpreted directly on
/// booleans for one input assignment (bit `i` of `x` = variable `i`).
fn eval_program(n_vars: usize, ops: &[(u8, u8, u8)], x: u64) -> bool {
    let mut nodes: Vec<bool> = (0..n_vars).map(|i| (x >> i) & 1 == 1).collect();
    nodes.push(true);
    nodes.push(false);
    for &(op, i, j) in ops {
        let a = nodes[i as usize % nodes.len()];
        let b = nodes[j as usize % nodes.len()];
        let c = nodes[(i as usize + j as usize) % nodes.len()];
        let r = match op % 7 {
            0 => a && b,
            1 => a || b,
            2 => a != b,
            3 => !(a && b),
            4 => !a,
            5 => {
                if a {
                    b
                } else {
                    c
                }
            }
            _ => a == b,
        };
        nodes.push(r);
    }
    *nodes.last().expect("pool is never empty")
}

fn config() -> Config {
    // Derive from the environment so XLAC_CHECK_CASES / _SEED / _REPRO
    // still steer the suite, with a default sized for the 2^16-row
    // enumeration cases.
    Config::from_env()
}

#[test]
fn ite_identities_hold_on_random_formulas() {
    check_with("ite identities", &config(), gen_program(6), |program| {
        let n = n_vars_of(program, 6);
        let mut bdd = Bdd::new();
        let f = build_bdd(&mut bdd, n, &program.1);
        // Second independent function from the reversed program.
        let reversed: Vec<_> = program.1.iter().rev().copied().collect();
        let g = build_bdd(&mut bdd, n, &reversed);
        let h = bdd.xor(f, g);

        prop_assert_eq!(bdd.ite(f, g, g), g, "ite(f,g,g) = g");
        prop_assert_eq!(bdd.ite(f, TRUE, FALSE), f, "ite(f,1,0) = f");
        prop_assert_eq!(bdd.ite(TRUE, g, h), g, "ite(1,g,h) = g");
        prop_assert_eq!(bdd.ite(FALSE, g, h), h, "ite(0,g,h) = h");

        // Shannon recombination: ite(f,g,h) = (f ∧ g) ∨ (¬f ∧ h).
        let ite = bdd.ite(f, g, h);
        let fg = bdd.and(f, g);
        let nf = bdd.not(f);
        let nfh = bdd.and(nf, h);
        prop_assert_eq!(ite, bdd.or(fg, nfh), "Shannon recombination");

        // Double negation, De Morgan, xor self-annihilation.
        let nnf = bdd.not(nf);
        prop_assert_eq!(nnf, f, "double negation");
        let nand = bdd.nand(f, g);
        let ng = bdd.not(g);
        prop_assert_eq!(nand, bdd.or(nf, ng), "De Morgan");
        prop_assert_eq!(bdd.xor(f, f), FALSE, "f xor f = 0");
        let fxh = bdd.xor(f, h);
        let back = bdd.xor(fxh, h);
        prop_assert_eq!(back, f, "xor cancellation");
        Ok(())
    });
}

#[test]
fn canonicity_recompiled_truth_table_is_pointer_equal() {
    check_with("canonicity via truth table", &config(), gen_program(6), |program| {
        let n = n_vars_of(program, 6);
        let mut bdd = Bdd::new();
        let f = build_bdd(&mut bdd, n, &program.1);

        // Brute-force the function, then rebuild it from scratch through
        // the truth-table compiler over the same variables.
        let table = TruthTable::from_fn(n, 1, |x| u64::from(eval_program(n, &program.1, x)));
        let vars: Vec<Ref> = (0..n).map(|i| bdd.var(i)).collect();
        let recompiled = compile_truth_table(&mut bdd, &table, &vars);
        prop_assert_eq!(recompiled.len(), 1usize);
        prop_assert_eq!(recompiled[0], f, "equal functions must share one root (canonicity)");
        Ok(())
    });
}

#[test]
fn sat_count_matches_exhaustive_enumeration_up_to_16_vars() {
    // 2^16 interpreter rows per worst-case instance: keep the case count
    // bounded while still honouring XLAC_CHECK_SEED.
    let config = Config::from_env().with_cases(64);
    check_with("sat_count vs enumeration", &config, gen_program(16), |program| {
        let n = n_vars_of(program, 16);
        let mut bdd = Bdd::new();
        let f = build_bdd(&mut bdd, n, &program.1);

        let mut expected: u128 = 0;
        for x in 0..(1u64 << n) {
            let reference = eval_program(n, &program.1, x);
            expected += u128::from(reference);
            prop_assert_eq!(bdd.eval(f, x), reference, "eval mismatch at {x:#x}");
        }
        prop_assert_eq!(bdd.sat_count(f, n), expected, "model count over {n} vars");

        // The count is consistent with witness extraction.
        prop_assert_eq!(bdd.any_sat(f).is_some(), expected > 0);
        Ok(())
    });
}
