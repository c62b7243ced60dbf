//! Abstract-interpretation soundness: derived bounds vs enumerated
//! truth, and the domain lattice laws (DESIGN.md §16).
//!
//! Three layers of evidence, from concrete to algebraic:
//!
//! * **Exhaustive differential** — for every registry `(approx, exact)`
//!   pair small enough to enumerate, the automatically derived
//!   [`ErrorBound`] must envelope the true maximum over/under error,
//!   error rate and mean absolute error computed by brute force. The
//!   default engine takes the exhaustive leg on these sizes, so the
//!   bounds are additionally asserted *exact*, not just sound.
//! * **Forced-abstract soundness** — the same pairs re-derived with the
//!   exhaustive leg and the cone domain disabled and a starved
//!   branch-and-bound budget: whatever the interval arithmetic and the
//!   truncated search produce must still envelope the enumerated truth
//!   (the anytime-soundness claim).
//! * **Property tests** — seeded random checks of the lattice laws the
//!   transfer functions rely on: ternary join/transfer soundness,
//!   Fréchet probability transfers sound under *arbitrary* correlation
//!   (random joint distributions, not just independent marginals), and
//!   whole-engine per-gate soundness on random DAGs.

use xlac_analysis::absint::{
    analyze_netlist, derive_error_bound, derive_error_bound_with, prob_gate, tern_gate,
    AbsintOptions, InputDistribution, ProbInterval, Tern,
};
use xlac_analysis::bound::ErrorBound;
use xlac_core::check::check;
use xlac_core::rng::{DefaultRng, Rng};
use xlac_logic::gate::GateKind;
use xlac_logic::netlist::{Netlist, NetlistBuilder};

/// Enumerated ground truth for an `(approx, exact)` pair.
struct Truth {
    max_over: u128,
    max_under: u128,
    mean_abs: f64,
    error_rate: f64,
}

fn enumerate_truth(approx: &Netlist, exact: &Netlist) -> Truth {
    let n = approx.n_inputs();
    assert_eq!(n, exact.n_inputs(), "pair must share arity");
    assert!(n <= 16, "enumeration cap");
    let mut t = Truth { max_over: 0, max_under: 0, mean_abs: 0.0, error_rate: 0.0 };
    let total = 1u64 << n;
    for x in 0..total {
        let a = u128::from(approx.eval(x));
        let e = u128::from(exact.eval(x));
        t.max_over = t.max_over.max(a.saturating_sub(e));
        t.max_under = t.max_under.max(e.saturating_sub(a));
        let diff = a.abs_diff(e);
        t.mean_abs += diff as f64;
        if a != e {
            t.error_rate += 1.0;
        }
    }
    t.mean_abs /= total as f64;
    t.error_rate /= total as f64;
    t
}

fn assert_envelopes(name: &str, bound: &ErrorBound, truth: &Truth) {
    assert!(
        bound.over >= truth.max_over,
        "{name}: over bound {} < true {}",
        bound.over,
        truth.max_over
    );
    assert!(
        bound.under >= truth.max_under,
        "{name}: under bound {} < true {}",
        bound.under,
        truth.max_under
    );
    assert!(
        bound.mean_abs + 1e-9 >= truth.mean_abs,
        "{name}: mean bound {} < true {}",
        bound.mean_abs,
        truth.mean_abs
    );
    assert!(
        bound.error_rate_bound + 1e-9 >= truth.error_rate,
        "{name}: rate bound {} < true {}",
        bound.error_rate_bound,
        truth.error_rate
    );
}

/// Every registry `(approx, exact)` pair with ≤ 16 primary inputs.
fn registry_pairs() -> Vec<(String, Netlist, Netlist)> {
    use xlac_adders::hw::{ripple_netlist, subtractor_netlist};
    use xlac_adders::{Adder, FullAdderKind, RippleCarryAdder, Subtractor};
    use xlac_multipliers::Mul2x2Kind;

    let mut pairs = Vec::new();
    for d in xlac_adders::approx_cell_descriptors() {
        pairs.push((
            format!("cell/{}", d.name()),
            d.netlist().clone(),
            d.reference_netlist().clone(),
        ));
    }
    let accurate_fa = FullAdderKind::Accurate.structural_netlist();
    for kind in FullAdderKind::APPROXIMATE {
        pairs.push((kind.to_string(), kind.structural_netlist(), accurate_fa.clone()));
    }
    let accurate_mul = Mul2x2Kind::Accurate.netlist();
    for kind in [Mul2x2Kind::ApxSoA, Mul2x2Kind::ApxOur] {
        pairs.push((format!("mul2x2_{kind}"), kind.netlist(), accurate_mul.clone()));
    }
    let accurate_rca = ripple_netlist(&RippleCarryAdder::accurate(8));
    for kind in FullAdderKind::APPROXIMATE {
        let rca = RippleCarryAdder::with_approx_lsbs(8, kind, 4).expect("shipped config");
        pairs.push((rca.name(), ripple_netlist(&rca), accurate_rca.clone()));
    }
    let exact_sub = subtractor_netlist(&Subtractor::new(RippleCarryAdder::accurate(8)));
    let sub = Subtractor::new(
        RippleCarryAdder::with_approx_lsbs(8, FullAdderKind::Apx3, 4).expect("config"),
    );
    pairs.push((sub.name(), subtractor_netlist(&sub), exact_sub));
    pairs
}

#[test]
fn derived_bounds_envelope_enumerated_truth_exactly() {
    let pairs = registry_pairs();
    assert!(pairs.len() >= 14, "registry sweep shrank to {}", pairs.len());
    for (name, approx, exact) in &pairs {
        let bound = derive_error_bound(approx, exact).expect("shared arity");
        let truth = enumerate_truth(approx, exact);
        assert_envelopes(name, &bound, &truth);
        // These sizes take the exhaustive leg: the bound is the truth.
        assert_eq!(bound.over, truth.max_over, "{name}: over not exact");
        assert_eq!(bound.under, truth.max_under, "{name}: under not exact");
        assert!((bound.mean_abs - truth.mean_abs).abs() < 1e-9, "{name}: mean not exact");
        assert!((bound.error_rate_bound - truth.error_rate).abs() < 1e-9, "{name}: rate not exact");
    }
}

#[test]
fn starved_abstract_engine_stays_sound() {
    // No cones, no exhaustive leg, branch-and-bound choked to almost
    // nothing: the result degrades to pure interval arithmetic plus a
    // truncated search, and must STILL envelope the truth on every pair
    // (anytime soundness). Tightness is deliberately not asserted.
    let starved =
        AbsintOptions { cone_limit: 0, exhaustive_limit: 0, leaf_limit: 4, node_budget: 2 };
    for (name, approx, exact) in registry_pairs() {
        let dist = InputDistribution::uniform(approx.n_inputs());
        let bound =
            derive_error_bound_with(&approx, &exact, &dist, &starved).expect("shared arity");
        let truth = enumerate_truth(&approx, &exact);
        assert_envelopes(&format!("starved/{name}"), &bound, &truth);
    }
}

#[test]
fn nonuniform_distributions_keep_the_rate_and_mean_sound() {
    // Skewed-input soundness on every descriptor cell: the weighted
    // truth is enumerated over the full input space (<= 16 bits for
    // the word-level units), under a repeating skewed bit pattern of
    // the cell's own width — the derived bound and the enumeration
    // must see the SAME marginal on every input bit.
    let skew = [0.9, 0.1, 0.5];
    for d in xlac_adders::approx_cell_descriptors() {
        let n = d.netlist().n_inputs();
        let dist = InputDistribution::new((0..n).map(|i| skew[i % skew.len()]).collect());
        let bound = derive_error_bound_with(
            d.netlist(),
            d.reference_netlist(),
            &dist,
            &AbsintOptions::default(),
        )
        .expect("shared arity");
        let (mut mean, mut rate) = (0.0, 0.0);
        for x in 0..(1u64 << n) {
            let w = dist.weight(x, n);
            let a = d.netlist().eval(x);
            let e = d.reference_netlist().eval(x);
            mean += w * (a as f64 - e as f64).abs();
            if a != e {
                rate += w;
            }
        }
        assert!(
            bound.mean_abs + 1e-9 >= mean,
            "{}: weighted mean {} vs bound {}",
            d.name(),
            mean,
            bound.mean_abs
        );
        assert!(
            bound.error_rate_bound + 1e-9 >= rate,
            "{}: weighted rate {} vs bound {}",
            d.name(),
            rate,
            bound.error_rate_bound
        );
    }
}

// ---------------------------------------------------------------- laws

const KINDS: [GateKind; 9] = GateKind::ALL;

fn arity(kind: GateKind) -> usize {
    match kind {
        GateKind::Not | GateKind::Buf => 1,
        GateKind::Mux2 => 3,
        _ => 2,
    }
}

#[test]
fn tern_join_is_monotone_and_sound() {
    check(
        "tern join soundness",
        |rng| (rng.next_u64() & 1 == 1, rng.next_u64() & 1 == 1),
        |&(a, b)| {
            let (ta, tb) = (Tern::known(a), Tern::known(b));
            let j = ta.join(tb);
            if !j.contains(a) || !j.contains(b) {
                return Err(format!("join of {ta:?},{tb:?} lost a member"));
            }
            // X is the top element: joining anything with X stays X.
            if ta.join(Tern::X) != Tern::X || Tern::X.join(tb) != Tern::X {
                return Err("X must absorb joins".into());
            }
            // Idempotence and commutativity.
            if ta.join(ta) != ta || j != tb.join(ta) {
                return Err("join must be idempotent and commutative".into());
            }
            Ok(())
        },
    );
}

#[test]
fn tern_transfer_is_sound_for_every_gate() {
    check(
        "tern transfer soundness",
        |rng| {
            let kind = (rng.next_u64() % KINDS.len() as u64) as usize;
            (kind as u8, rng.next_u64())
        },
        |&(kind_idx, word)| {
            let kind = KINDS[kind_idx as usize];
            let n = arity(kind);
            // Operand i: two bits of `word` select Zero/One/X; a third
            // picks the concrete value when the tern is X.
            let mut terns = Vec::new();
            let mut bits = Vec::new();
            for i in 0..n {
                let sel = (word >> (3 * i)) & 0b11;
                let free = (word >> (3 * i + 2)) & 1 == 1;
                let (t, bit) = match sel {
                    0 => (Tern::Zero, false),
                    1 => (Tern::One, true),
                    _ => (Tern::X, free),
                };
                terns.push(t);
                bits.push(bit);
            }
            let out = tern_gate(kind, &terns);
            let concrete = kind.eval(&bits.iter().map(|&b| u64::from(b)).collect::<Vec<_>>()) == 1;
            if out.contains(concrete) {
                Ok(())
            } else {
                Err(format!(
                    "{kind:?}: tern {out:?} excludes concrete {concrete} \
                     (operands {terns:?} / {bits:?})"
                ))
            }
        },
    );
}

#[test]
fn prob_transfer_is_sound_under_arbitrary_correlation() {
    // The Fréchet transfers promise soundness for ANY joint input
    // distribution, not just independent ones: draw a random joint PMF
    // over the operand bits, feed the transfer only the marginals, and
    // the true output probability must land inside the interval.
    check(
        "frechet transfer soundness",
        |rng| {
            let kind = (rng.next_u64() % KINDS.len() as u64) as u8;
            let weights: Vec<u64> = (0..8).map(|_| rng.next_u64() % 1000 + 1).collect();
            (kind, weights)
        },
        |(kind_idx, weights)| {
            let kind = KINDS[*kind_idx as usize];
            let n = arity(kind);
            let total: u64 = weights[..1 << n].iter().sum();
            let joint: Vec<f64> =
                weights[..1 << n].iter().map(|&w| w as f64 / total as f64).collect();
            // Marginal P[bit i = 1] and the true output probability.
            let mut marginals = vec![0.0f64; n];
            let mut p_out = 0.0f64;
            for (assignment, &w) in joint.iter().enumerate() {
                let bits: Vec<bool> = (0..n).map(|i| (assignment >> i) & 1 == 1).collect();
                for (i, &bit) in bits.iter().enumerate() {
                    if bit {
                        marginals[i] += w;
                    }
                }
                if kind.eval(&bits.iter().map(|&b| u64::from(b)).collect::<Vec<_>>()) == 1 {
                    p_out += w;
                }
            }
            let intervals: Vec<ProbInterval> =
                marginals.iter().map(|&p| ProbInterval::exact(p)).collect();
            let out = prob_gate(kind, &intervals);
            if out.lo - 1e-9 <= p_out && p_out <= out.hi + 1e-9 {
                Ok(())
            } else {
                Err(format!(
                    "{kind:?}: true P=1 {p_out} outside [{}, {}] (joint {joint:?})",
                    out.lo, out.hi
                ))
            }
        },
    );
}

#[test]
fn prob_interval_join_encloses_both_arms() {
    check(
        "prob interval join",
        |rng| {
            let f = |r: &mut DefaultRng| (r.next_u64() % 1001) as f64 / 1000.0;
            (f(rng), f(rng), f(rng), f(rng))
        },
        |&(a, b, c, d)| {
            let x = ProbInterval { lo: a.min(b), hi: a.max(b) };
            let y = ProbInterval { lo: c.min(d), hi: c.max(d) };
            let j = x.join(&y);
            if j.encloses(&x) && j.encloses(&y) {
                Ok(())
            } else {
                Err(format!("join {j:?} fails to enclose {x:?}, {y:?}"))
            }
        },
    );
}

/// Deterministic random DAG netlist from a compact seed encoding: a
/// shrinkable value type for the whole-engine property.
fn build_dag(n_inputs: usize, gate_words: &[u64]) -> Netlist {
    let mut b = NetlistBuilder::new("dag", n_inputs);
    let mut signals: Vec<_> = (0..n_inputs).map(|i| b.input(i)).collect();
    for &w in gate_words {
        let kind = KINDS[(w % KINDS.len() as u64) as usize];
        let fanin: Vec<_> = (0..arity(kind))
            .map(|j| signals[((w >> (8 + 8 * j)) % signals.len() as u64) as usize])
            .collect();
        signals.push(b.gate(kind, &fanin));
    }
    // Observe the last few signals so late gates stay in an output cone.
    for &s in signals.iter().rev().take(4) {
        b.output(s);
    }
    b.finish().expect("acyclic by construction")
}

#[test]
fn whole_engine_is_sound_per_gate_on_random_dags() {
    check(
        "absint per-gate soundness on random DAGs",
        |rng| {
            let n_inputs = (rng.next_u64() % 5 + 2) as usize;
            let gates: Vec<u64> = (0..rng.next_u64() % 12 + 1).map(|_| rng.next_u64()).collect();
            (n_inputs as u8, gates)
        },
        |(n_inputs, gates)| {
            let n = *n_inputs as usize;
            let nl = build_dag(n, gates);
            let dist = InputDistribution::uniform(n);
            let abs = analyze_netlist(&nl, &dist, &AbsintOptions::default());

            // Exact per-net one-probabilities and a concrete spot check.
            let total = 1u64 << n;
            let mut ones = vec![0u64; nl.gate_count()];
            for x in 0..total {
                let mut vals = Vec::new();
                let mut outs = Vec::new();
                let planes: Vec<u64> =
                    (0..n).map(|i| if (x >> i) & 1 == 1 { 1 } else { 0 }).collect();
                nl.eval_words_into(&planes, &mut vals, &mut outs);
                for (g, v) in vals.iter().enumerate().take(nl.gate_count()) {
                    ones[g] += v & 1;
                }
                for (g, v) in vals.iter().enumerate().take(nl.gate_count()) {
                    let bit = v & 1 == 1;
                    if !abs.gates[g].tern.contains(bit) {
                        return Err(format!("gate {g}: tern excludes observed {bit}"));
                    }
                    if !abs.gates[g].refined_tern().contains(bit) {
                        return Err(format!("gate {g}: refined tern excludes {bit}"));
                    }
                }
            }
            for (g, &count) in ones.iter().enumerate() {
                let p = count as f64 / total as f64;
                let iv = abs.gates[g].p;
                if p < iv.lo - 1e-9 || p > iv.hi + 1e-9 {
                    return Err(format!("gate {g}: true P=1 {p} outside [{}, {}]", iv.lo, iv.hi));
                }
            }
            Ok(())
        },
    );
}
