//! The exhaustive engine of [`super::metrics`] against an independent
//! oracle: both netlists tabulated by the gate-level interpreter, one
//! value per input assignment, and every statistic accumulated one
//! assignment at a time. Compared on every field, witness included,
//! for every pair of the bound audit and for hand-built shapes that reach
//! the engine's edges: dead lanes (`n < 6`), partial 512-lane passes
//! (`n < 9`), unequal output lengths and a 64-bit word whose top bit and
//! borrow are driven.

use xlac_core::dist::InputDistribution;
use xlac_core::lanes::{from_planes, to_planes, LANES};
use xlac_core::XlacError;
use xlac_logic::random::{random_netlist, RandomNetlistSpec};
use xlac_logic::{GateKind, Netlist, NetlistBuilder, Signal};

use super::audit::for_each_audit_pair;
use super::metrics::{exhaustive_metrics, exhaustive_metrics_under, ExactMetrics};

/// `nl`'s output word on every assignment `0 .. 2^n`, from the
/// interpreter ([`Netlist::eval_words`]) on 64 explicit assignments per
/// call: [`Netlist::eval`] lane by lane, at a cost a debug build can pay
/// for every audit pair.
fn table(nl: &Netlist) -> Vec<u64> {
    let n = nl.n_inputs();
    let mut values = Vec::with_capacity(1 << n);
    for base in (0..1u64 << n).step_by(LANES) {
        let lanes: [u64; LANES] = std::array::from_fn(|l| base + l as u64);
        let outs = from_planes(&nl.eval_words(&to_planes(&lanes, n)));
        values.extend(outs.iter().take((1 << n) - values.len()));
    }
    values
}

/// The metric set from one value per assignment, in ascending assignment
/// order; the shorter output word is zero-extended.
fn oracle(approx: &Netlist, exact: &Netlist) -> ExactMetrics {
    let n = approx.n_inputs();
    let mut flips = vec![0u128; approx.n_outputs().max(exact.n_outputs())];
    let (mut errors, mut med) = (0u128, 0u128);
    let (mut wce, mut witness, mut over, mut under) = (0u64, 0u64, 0u64, 0u64);
    for (x, (av, ev)) in (0u64..).zip(table(approx).into_iter().zip(table(exact))) {
        if av == ev {
            continue;
        }
        errors += 1;
        for (k, flip) in flips.iter_mut().enumerate() {
            *flip += u128::from(((av ^ ev) >> k) & 1);
        }
        let d = av.abs_diff(ev);
        med += u128::from(d);
        if av > ev {
            over = over.max(d);
        } else {
            under = under.max(d);
        }
        if d > wce {
            (wce, witness) = (d, x);
        }
    }
    let denom = f64::from(n as u32).exp2();
    #[allow(clippy::cast_precision_loss)]
    let rate = |count: u128| count as f64 / denom;
    ExactMetrics {
        n_inputs: n,
        worst_case_error: u128::from(wce),
        worst_case_witness: witness,
        max_overshoot: u128::from(over),
        max_undershoot: u128::from(under),
        error_count: errors,
        error_rate: rate(errors),
        mean_error_distance: rate(med),
        bit_flip_probability: flips.iter().map(|&c| rate(c)).collect(),
    }
}

/// `nl` with only its first `k` outputs.
fn first_outputs(nl: &Netlist, k: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("{}_first{k}", nl.name()), nl.n_inputs());
    let ins: Vec<Signal> = (0..nl.n_inputs()).map(Signal::Input).collect();
    for s in b.inline(nl, &ins).into_iter().take(k) {
        b.output(s);
    }
    b.finish().unwrap()
}

#[test]
fn engine_matches_the_oracle_on_every_audit_pair() {
    let mut pairs = 0;
    for_each_audit_pair(&mut |name, _, approx, exact| {
        let engine = exhaustive_metrics(approx, exact)?;
        assert_eq!(engine, oracle(approx, exact), "{name}");
        // Uniform weights are the unweighted engine, field for field.
        match exhaustive_metrics_under(approx, exact, InputDistribution::Uniform) {
            Ok(uniform) => assert_eq!(uniform, engine, "{name} under Uniform"),
            Err(XlacError::InvalidConfiguration(msg)) => {
                assert!(approx.n_inputs() % 2 == 1, "{name}: {msg}");
            }
            Err(e) => panic!("{name}: {e}"),
        }
        pairs += 1;
        Ok(())
    })
    .unwrap();
    assert!(pairs >= 70, "{pairs} audit pairs");
}

#[test]
fn engine_matches_the_oracle_on_partial_blocks_and_unequal_words() {
    // n = 2 and 4 leave dead lanes in the one word; n = 6, 7 and 8 fill
    // 1, 2 and 4 of a pass's 8 words; n = 9 fills exactly one pass.
    let mut unequal = 0;
    for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 12] {
        for seed in 0..6u64 {
            let spec = RandomNetlistSpec {
                min_inputs: n,
                max_inputs: n,
                max_outputs: 12,
                ..RandomNetlistSpec::default()
            };
            let approx = random_netlist(0xE1_0000 + 64 * n as u64 + seed, &spec);
            let exact = random_netlist(0xE2_0000 + 64 * n as u64 + seed, &spec);
            unequal += usize::from(approx.n_outputs() != exact.n_outputs());
            let evals: Vec<u64> = (0..1u64 << n).map(|x| approx.eval(x)).collect();
            assert_eq!(table(&approx), evals, "the tabulation is `eval` per assignment");
            assert_eq!(
                exhaustive_metrics(&approx, &exact).unwrap(),
                oracle(&approx, &exact),
                "n = {n}, seed {seed}"
            );
            // One word a strict prefix of the other, both ways round.
            let short = first_outputs(&exact, exact.n_outputs().div_ceil(2));
            assert_eq!(exhaustive_metrics(&short, &exact).unwrap(), oracle(&short, &exact));
            assert_eq!(exhaustive_metrics(&exact, &short).unwrap(), oracle(&exact, &short));
        }
    }
    assert!(unequal > 0, "no random pair had unequal output words");
}

#[test]
fn engine_matches_the_oracle_on_a_sixty_four_bit_word() {
    // 16 inputs, 64 outputs each: both words replicate permuted inputs
    // into every bit, so differences of both signs reach bit 63 and the
    // borrow runs the full width.
    let word = |name: &str, perm: fn(usize) -> usize, xor_every: usize| {
        let mut b = NetlistBuilder::new(name, 16);
        for k in 0..64 {
            let bit = b.input(perm(k));
            let out = if k % xor_every == 0 {
                let other = b.input((perm(k) + 1) % 16);
                b.gate(GateKind::Xor2, &[bit, other])
            } else {
                bit
            };
            b.output(out);
        }
        b.finish().unwrap()
    };
    let approx = word("replicated", |k| k % 16, 3);
    let exact = word("permuted", |k| (7 * k + 3) % 16, 5);
    let engine = exhaustive_metrics(&approx, &exact).unwrap();
    assert_eq!(engine, oracle(&approx, &exact));
    assert!(engine.max_overshoot >= 1 << 63 && engine.max_undershoot >= 1 << 63, "{engine:?}");
    assert_eq!(engine.bit_flip_probability.len(), 64);
}
