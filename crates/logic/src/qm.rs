//! Exact two-level logic minimization (Quine–McCluskey + Petrick).
//!
//! The paper's cells are specified as truth tables and their hardware cost
//! comes from synthesis. This module is the synthesis front-end: it turns a
//! single-output Boolean function into a minimal sum-of-products —
//! prime-implicant generation by the Quine–McCluskey procedure, essential
//! prime selection, and Petrick's method for the cyclic remainder (with a
//! greedy set-cover fallback when the Petrick product grows beyond a safety
//! bound, which cannot happen for the cell sizes in this workspace).
//!
//! # Example
//!
//! ```
//! use xlac_logic::qm::{minimize, Implicant};
//!
//! // f(a, b) = a (minterms 1 and 3 of a 2-input function, LSB = a).
//! let cover = minimize(2, &[1, 3]);
//! assert_eq!(cover.len(), 1);
//! assert_eq!(cover[0], Implicant { value: 1, mask: 2 }); // a, b don't-care
//! ```

use std::collections::BTreeSet;

/// A product term over `n` variables: variable `i` is fixed to bit `i` of
/// `value` unless bit `i` of `mask` is set (don't-care).
///
/// Invariant: `value & mask == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Implicant {
    /// Fixed variable values (0 in don't-care positions).
    pub value: u64,
    /// Don't-care positions.
    pub mask: u64,
}

impl Implicant {
    /// `true` when this implicant covers minterm `m`.
    #[inline]
    #[must_use]
    pub fn covers(&self, m: u64) -> bool {
        (m & !self.mask) == self.value
    }

    /// Number of literals in the product term.
    #[must_use]
    pub fn literal_count(&self, n_vars: usize) -> usize {
        n_vars - self.mask.count_ones() as usize
    }

    /// Renders the term as a string like `"a·b'·d"` using variable letters
    /// `a, b, c, …` for bit 0, 1, 2, ….
    #[must_use]
    pub fn to_expr(&self, n_vars: usize) -> String {
        let mut parts = Vec::new();
        for i in 0..n_vars {
            if (self.mask >> i) & 1 == 1 {
                continue;
            }
            let var = (b'a' + i as u8) as char;
            if (self.value >> i) & 1 == 1 {
                parts.push(format!("{var}"));
            } else {
                parts.push(format!("{var}'"));
            }
        }
        if parts.is_empty() {
            "1".to_string()
        } else {
            parts.join("\u{b7}")
        }
    }
}

/// Computes all prime implicants of the function over `n_vars` variables
/// whose ON-set is `minterms` (each `< 2^n_vars`).
///
/// # Panics
///
/// Panics if any minterm is out of range or `n_vars > 16`.
#[must_use]
pub fn prime_implicants(n_vars: usize, minterms: &[u64]) -> Vec<Implicant> {
    assert!(n_vars <= 16, "{n_vars} variables exceed the supported 16");
    let limit = 1u64 << n_vars;
    assert!(minterms.iter().all(|&m| m < limit), "minterm out of range");

    let mut current: BTreeSet<Implicant> =
        minterms.iter().map(|&m| Implicant { value: m, mask: 0 }).collect();
    let mut primes: BTreeSet<Implicant> = BTreeSet::new();

    while !current.is_empty() {
        let mut combined: BTreeSet<Implicant> = BTreeSet::new();
        let mut used: BTreeSet<Implicant> = BTreeSet::new();
        let items: Vec<Implicant> = current.iter().copied().collect();

        // Two implicants merge when they share a mask and differ in exactly
        // one fixed bit.
        for (i, a) in items.iter().enumerate() {
            for b in items.iter().skip(i + 1) {
                if a.mask != b.mask {
                    continue;
                }
                let diff = a.value ^ b.value;
                if diff.count_ones() == 1 {
                    combined.insert(Implicant { value: a.value & b.value, mask: a.mask | diff });
                    used.insert(*a);
                    used.insert(*b);
                }
            }
        }

        for imp in &items {
            if !used.contains(imp) {
                primes.insert(*imp);
            }
        }
        current = combined;
    }

    primes.into_iter().collect()
}

/// Minimizes the function to a minimal prime-implicant cover.
///
/// Selection order: essential primes first, then an exact minimum-cardinality
/// cover of the remainder via Petrick's method (ties broken by fewest total
/// literals). An empty ON-set yields an empty cover (constant 0); a full
/// ON-set yields the single all-don't-care implicant (constant 1).
#[must_use]
pub fn minimize(n_vars: usize, minterms: &[u64]) -> Vec<Implicant> {
    if minterms.is_empty() {
        return Vec::new();
    }
    let primes = prime_implicants(n_vars, minterms);
    let unique: BTreeSet<u64> = minterms.iter().copied().collect();

    // Essential primes: sole cover of some minterm.
    let mut chosen: Vec<Implicant> = Vec::new();
    let mut covered: BTreeSet<u64> = BTreeSet::new();
    for &m in &unique {
        let covering: Vec<&Implicant> = primes.iter().filter(|p| p.covers(m)).collect();
        debug_assert!(!covering.is_empty(), "prime generation missed minterm {m}");
        if covering.len() == 1 && !chosen.contains(covering[0]) {
            chosen.push(*covering[0]);
        }
    }
    for p in &chosen {
        for &m in &unique {
            if p.covers(m) {
                covered.insert(m);
            }
        }
    }

    let remaining: Vec<u64> = unique.iter().copied().filter(|m| !covered.contains(m)).collect();
    if remaining.is_empty() {
        chosen.sort();
        return chosen;
    }

    // Candidate primes that cover at least one remaining minterm.
    let candidates: Vec<Implicant> = primes
        .iter()
        .copied()
        .filter(|p| !chosen.contains(p) && remaining.iter().any(|&m| p.covers(m)))
        .collect();

    let extra = petrick(n_vars, &candidates, &remaining)
        .unwrap_or_else(|| greedy_cover(&candidates, &remaining));
    chosen.extend(extra);
    chosen.sort();
    chosen.dedup();
    chosen
}

/// Petrick's method: exact minimum cover of `remaining` using `candidates`.
/// Returns `None` when the product-of-sums expansion exceeds the safety
/// bound.
fn petrick(n_vars: usize, candidates: &[Implicant], remaining: &[u64]) -> Option<Vec<Implicant>> {
    const MAX_TERMS: usize = 20_000;
    if candidates.len() > 63 {
        return None;
    }
    // Each product term is a bitset over candidate indices.
    let mut products: Vec<u64> = vec![0]; // empty product = 1
    for &m in remaining {
        let sum: Vec<u64> = candidates
            .iter()
            .enumerate()
            .filter(|(_, p)| p.covers(m))
            .map(|(i, _)| 1u64 << i)
            .collect();
        debug_assert!(!sum.is_empty());
        let mut next: Vec<u64> = Vec::with_capacity(products.len() * sum.len());
        for &prod in &products {
            for &s in &sum {
                next.push(prod | s);
            }
        }
        // Absorption: drop supersets.
        next.sort_by_key(|t| t.count_ones());
        let mut reduced: Vec<u64> = Vec::new();
        'outer: for t in next {
            for &r in &reduced {
                if t & r == r {
                    continue 'outer; // t ⊇ r, absorbed
                }
            }
            reduced.push(t);
        }
        if reduced.len() > MAX_TERMS {
            return None;
        }
        products = reduced;
    }

    // Minimum cardinality, then minimum literal count.
    products
        .into_iter()
        .min_by_key(|t| {
            let count = t.count_ones();
            let literals: usize = (0..candidates.len())
                .filter(|i| (t >> i) & 1 == 1)
                .map(|i| candidates[i].literal_count(n_vars))
                .sum();
            (count, literals)
        })
        .map(|t| {
            (0..candidates.len()).filter(|i| (t >> i) & 1 == 1).map(|i| candidates[i]).collect()
        })
}

/// Greedy set cover fallback (only reachable for pathologically large
/// cyclic cores).
fn greedy_cover(candidates: &[Implicant], remaining: &[u64]) -> Vec<Implicant> {
    let mut uncovered: BTreeSet<u64> = remaining.iter().copied().collect();
    let mut picked = Vec::new();
    while !uncovered.is_empty() {
        let best = candidates
            .iter()
            .max_by_key(|p| uncovered.iter().filter(|&&m| p.covers(m)).count())
            .copied()
            .expect("candidates must cover remaining minterms");
        uncovered.retain(|&m| !best.covers(m));
        picked.push(best);
    }
    picked
}

/// Evaluates a sum-of-products cover on input `x`.
#[must_use]
pub fn eval_cover(cover: &[Implicant], x: u64) -> u64 {
    u64::from(cover.iter().any(|p| p.covers(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Re-evaluates a cover exhaustively against the reference ON-set.
    fn assert_equivalent(n: usize, minterms: &[u64], cover: &[Implicant]) {
        let on: BTreeSet<u64> = minterms.iter().copied().collect();
        for x in 0..(1u64 << n) {
            assert_eq!(
                eval_cover(cover, x),
                u64::from(on.contains(&x)),
                "cover differs from spec at {x:#b}"
            );
        }
    }

    #[test]
    fn constant_functions() {
        assert!(minimize(3, &[]).is_empty());
        let all: Vec<u64> = (0..8).collect();
        let cover = minimize(3, &all);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].mask, 0b111);
        assert_eq!(cover[0].literal_count(3), 0);
        assert_eq!(cover[0].to_expr(3), "1");
    }

    #[test]
    fn single_variable_projection() {
        // f(a,b,c) = b → minterms where bit1 set.
        let minterms: Vec<u64> = (0..8).filter(|x| (x >> 1) & 1 == 1).collect();
        let cover = minimize(3, &minterms);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0], Implicant { value: 0b010, mask: 0b101 });
        assert_eq!(cover[0].to_expr(3), "b");
    }

    #[test]
    fn xor_needs_all_minterms() {
        // XOR of 2 variables has no mergeable minterm pairs: 2 implicants.
        let cover = minimize(2, &[1, 2]);
        assert_eq!(cover.len(), 2);
        assert_equivalent(2, &[1, 2], &cover);
    }

    #[test]
    fn textbook_example() {
        // Classic QM example: f = Σm(0,1,2,5,6,7) over 3 vars has two
        // minimal covers of size 3.
        let minterms = [0u64, 1, 2, 5, 6, 7];
        let cover = minimize(3, &minterms);
        assert_eq!(cover.len(), 3);
        assert_equivalent(3, &minterms, &cover);
    }

    #[test]
    fn majority_gate_cover() {
        // maj(a,b,c) = ab + ac + bc: 3 implicants of 2 literals each.
        let minterms = [0b011u64, 0b101, 0b110, 0b111];
        let cover = minimize(3, &minterms);
        assert_eq!(cover.len(), 3);
        assert!(cover.iter().all(|p| p.literal_count(3) == 2));
        assert_equivalent(3, &minterms, &cover);
    }

    #[test]
    fn full_adder_sum_is_parity() {
        // Parity has no adjacent minterms: cover is the 4 raw minterms.
        let minterms = [1u64, 2, 4, 7];
        let cover = minimize(3, &minterms);
        assert_eq!(cover.len(), 4);
        assert!(cover.iter().all(|p| p.mask == 0));
        assert_equivalent(3, &minterms, &cover);
    }

    #[test]
    fn cyclic_core_is_covered_exactly() {
        // The classic cyclic cover function: f = Σm(0,1,2,5,6,7) handled
        // above; this one is Σm(1,3,4,5,6,7) over 3 vars.
        let minterms = [1u64, 3, 4, 5, 6, 7];
        let cover = minimize(3, &minterms);
        assert_equivalent(3, &minterms, &cover);
        assert!(cover.len() <= 3);
    }

    #[test]
    fn four_variable_function() {
        // f = Σm(4,8,10,11,12,15) over 4 vars — another textbook case.
        let minterms = [4u64, 8, 10, 11, 12, 15];
        let cover = minimize(4, &minterms);
        assert_equivalent(4, &minterms, &cover);
        assert!(cover.len() <= 4);
    }

    #[test]
    fn random_functions_are_reproduced() {
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(99);
        for n in 2..=6usize {
            for _ in 0..20 {
                let minterms: Vec<u64> = (0..(1u64 << n)).filter(|_| rng.gen::<bool>()).collect();
                let cover = minimize(n, &minterms);
                assert_equivalent(n, &minterms, &cover);
            }
        }
    }

    #[test]
    fn prime_implicants_of_and() {
        let primes = prime_implicants(2, &[3]);
        assert_eq!(primes, vec![Implicant { value: 3, mask: 0 }]);
    }

    #[test]
    fn covers_predicate() {
        let p = Implicant { value: 0b10, mask: 0b01 };
        assert!(p.covers(0b10));
        assert!(p.covers(0b11));
        assert!(!p.covers(0b00));
    }

    #[test]
    fn expr_rendering() {
        let p = Implicant { value: 0b001, mask: 0b100 };
        assert_eq!(p.to_expr(3), "a\u{b7}b'");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_minterm() {
        let _ = prime_implicants(2, &[4]);
    }
}
