//! The ROBDD package: hash-consed nodes, memoized ITE, model counting
//! and mark-sweep garbage collection.
//!
//! A classic reduced ordered binary decision diagram manager in the style
//! of Brace/Rudell/Bryant, sized for the workspace's datapaths (tens of
//! variables, hundreds of thousands of nodes). Nodes live in one arena
//! (`Bdd::nodes`); structural sharing is enforced by a unique table, so
//! **two equal functions always have the same [`Ref`]** — equivalence
//! checking is pointer comparison, which is what turns the sampled checks
//! of `xlac_logic::equiv` into proofs.
//!
//! Complement edges are deliberately left out (the paper-scale circuits
//! don't need the factor-of-two, and plain nodes keep counting and
//! traversal simple); negation goes through the memoized ITE like every
//! other operator.
//!
//! # Variable order
//!
//! The order is fixed: variable id `i` sits at level `i`, so nodes store
//! their level directly and `ite` splits on the smallest variable id
//! among its operands. The caller chooses the order by choosing ids: the
//! compile layer interleaves two-operand datapaths LSB-first
//! (`a0, b0, a1, b1, …`), the standard ordering under which ripple-carry
//! and tree adders/multipliers stay polynomial-sized. The manager does no
//! dynamic reordering: its job is equivalence proofs, and error metrics
//! come from exhaustive compiled enumeration (`symbolic::metrics`).
//!
//! # Memory
//!
//! [`Bdd::gc`] mark-sweeps the arena in place: nodes unreachable from the
//! caller's roots are unlinked from the unique table and their slots
//! recycled by later allocations, and the ITE memo is dropped. `Ref`s
//! reachable from the roots stay valid (no compaction), which is what
//! lets long proof sweeps share one manager across unrelated obligations
//! with bounded peak memory.
//!
//! # Example
//!
//! ```
//! use xlac_analysis::symbolic::bdd::{Bdd, TRUE};
//!
//! let mut bdd = Bdd::new();
//! let a = bdd.var(0);
//! let b = bdd.var(1);
//! let f = bdd.xor(a, b);
//! let not_b = bdd.not(b);
//! let g = bdd.ite(a, not_b, b);
//! assert_eq!(f, g); // canonicity: equal functions, equal refs
//! assert_eq!(bdd.sat_count(f, 2), 2); // 01 and 10
//! assert_eq!(bdd.sat_count(TRUE, 5), 32);
//! ```

use std::collections::HashMap;

/// A handle to a BDD node (an index into the manager's arena).
///
/// Because the manager hash-conses every node, two `Ref`s are equal **iff**
/// the functions they denote are equal — `==` on `Ref` is formal
/// equivalence. After [`Bdd::gc`], only `Ref`s reachable from the roots
/// passed to the call remain valid; dropped intermediates may be recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(u32);

/// The constant-false function.
pub const FALSE: Ref = Ref(0);
/// The constant-true function.
pub const TRUE: Ref = Ref(1);

/// Variable index stored on terminal nodes: sorts after every real
/// variable, so terminals never win the top-variable comparison.
const TERMINAL_VAR: u32 = u32::MAX;

/// Variable index stored on garbage-collected slots awaiting reuse.
const DEAD_VAR: u32 = u32::MAX - 1;

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Ref,
    hi: Ref,
}

/// Aggregate counters of the manager, reported through `xlac-bench`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BddStats {
    /// Total slots in the arena (including the two terminals and any
    /// garbage-collected slots awaiting reuse).
    pub nodes: usize,
    /// Live interior nodes right now (terminals excluded).
    pub live_nodes: usize,
    /// High-water mark of `live_nodes` over the manager's lifetime.
    pub peak_live_nodes: usize,
    /// ITE cache lookups performed.
    pub ite_lookups: u64,
    /// ITE cache lookups that hit.
    pub ite_hits: u64,
    /// Garbage collections run ([`Bdd::gc`]).
    pub gc_runs: u64,
    /// Total nodes freed by garbage collection.
    pub freed_nodes: u64,
}

impl BddStats {
    /// Fraction of ITE lookups answered from the memo table.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.ite_lookups == 0 {
            0.0
        } else {
            self.ite_hits as f64 / self.ite_lookups as f64
        }
    }
}

/// The BDD manager: node arena, unique table and ITE memo.
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<(u32, Ref, Ref), Ref>,
    ite_memo: HashMap<(Ref, Ref, Ref), Ref>,
    ite_lookups: u64,
    ite_hits: u64,
    /// Recycled arena slots (from gc) awaiting reuse.
    free: Vec<u32>,
    live_nodes: usize,
    peak_live: usize,
    gc_runs: u64,
    freed_nodes: u64,
}

impl Default for Bdd {
    fn default() -> Self {
        Bdd::new()
    }
}

impl Bdd {
    /// An empty manager holding only the two terminal nodes.
    #[must_use]
    pub fn new() -> Self {
        Bdd {
            nodes: vec![
                Node { var: TERMINAL_VAR, lo: FALSE, hi: FALSE },
                Node { var: TERMINAL_VAR, lo: TRUE, hi: TRUE },
            ],
            unique: HashMap::new(),
            ite_memo: HashMap::new(),
            ite_lookups: 0,
            ite_hits: 0,
            free: Vec::new(),
            live_nodes: 0,
            peak_live: 0,
            gc_runs: 0,
            freed_nodes: 0,
        }
    }

    /// The projection function of variable `i` (which sits at level `i`).
    pub fn var(&mut self, i: usize) -> Ref {
        let v = u32::try_from(i).expect("variable index fits in u32");
        assert!(v < DEAD_VAR, "variable index {i} reserved for the manager");
        self.mk(v, FALSE, TRUE)
    }

    /// The constant function for `value`.
    #[must_use]
    pub fn constant(value: bool) -> Ref {
        if value {
            TRUE
        } else {
            FALSE
        }
    }

    fn node(&self, f: Ref) -> Node {
        self.nodes[f.0 as usize]
    }

    /// Reduced, hash-consed node constructor; recycles freed arena slots.
    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo; // reduction rule: redundant test
        }
        if let Some(&r) = self.unique.get(&(var, lo, hi)) {
            return r; // sharing rule: node already exists
        }
        let r = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node { var, lo, hi };
                Ref(slot)
            }
            None => {
                let r = Ref(u32::try_from(self.nodes.len()).expect("node arena fits in u32"));
                self.nodes.push(Node { var, lo, hi });
                r
            }
        };
        self.unique.insert((var, lo, hi), r);
        self.live_nodes += 1;
        self.peak_live = self.peak_live.max(self.live_nodes);
        r
    }

    /// If-then-else: the canonical universal connective,
    /// `ite(f, g, h) = f·g + !f·h`, with memoization.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal short-circuits that need no cache.
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }

        self.ite_lookups += 1;
        if let Some(&r) = self.ite_memo.get(&(f, g, h)) {
            self.ite_hits += 1;
            return r;
        }

        let (nf, ng, nh) = (self.node(f), self.node(g), self.node(h));
        // Variable id is level, and terminals carry the largest id.
        let top = nf.var.min(ng.var).min(nh.var);
        let (f0, f1) = cofactor(f, nf, top);
        let (g0, g1) = cofactor(g, ng, top);
        let (h0, h1) = cofactor(h, nh, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        self.ite_memo.insert((f, g, h), r);
        r
    }

    /// Logical negation.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.ite(f, FALSE, TRUE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Exclusive nor (equivalence).
    pub fn xnor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Negated conjunction.
    pub fn nand(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, TRUE)
    }

    /// Negated disjunction.
    pub fn nor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, FALSE, ng)
    }

    /// Two-way multiplexer: `sel ? d1 : d0`.
    pub fn mux(&mut self, sel: Ref, d0: Ref, d1: Ref) -> Ref {
        self.ite(sel, d1, d0)
    }

    /// Number of satisfying assignments of `f` over the variables
    /// `0..n_vars` (every variable occurring in `f` must be `< n_vars`;
    /// variables `f` does not test, created or not, count twice).
    ///
    /// # Panics
    ///
    /// Panics when `n_vars > 127` (the count must fit in `u128`) or when a
    /// node variable is out of range.
    #[must_use]
    pub fn sat_count(&self, f: Ref, n_vars: usize) -> u128 {
        assert!(n_vars <= 127, "sat_count supports at most 127 variables");
        let n = u32::try_from(n_vars).expect("checked above");
        let mut memo: HashMap<Ref, u128> = HashMap::new();
        self.sat_count_rec(f, n, &mut memo) << self.level(f, n)
    }

    /// The level of `f`'s root among `0..=n_vars`: its variable id, with
    /// terminals at `n_vars`.
    fn level(&self, f: Ref, n_vars: u32) -> u32 {
        let v = self.node(f).var;
        if v == TERMINAL_VAR {
            n_vars
        } else {
            assert!(v < n_vars, "node variable {v} out of range 0..{n_vars}");
            v
        }
    }

    /// Satisfying assignments of `f` over the variables from its own
    /// level down to `n_vars - 1`: each edge that skips levels multiplies
    /// its child's count by two per skipped variable.
    fn sat_count_rec(&self, f: Ref, n_vars: u32, memo: &mut HashMap<Ref, u128>) -> u128 {
        if f == FALSE {
            return 0;
        }
        if f == TRUE {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let n = self.node(f);
        let below = n.var + 1;
        let lo = self.sat_count_rec(n.lo, n_vars, memo) << (self.level(n.lo, n_vars) - below);
        let hi = self.sat_count_rec(n.hi, n_vars, memo) << (self.level(n.hi, n_vars) - below);
        let c = lo + hi;
        memo.insert(f, c);
        c
    }

    /// One satisfying assignment of `f`, packed as variable `i` → bit `i`
    /// (variables the function does not test are 0). `None` iff `f` is
    /// unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics when a tested variable index is ≥ 64.
    #[must_use]
    pub fn any_sat(&self, f: Ref) -> Option<u64> {
        if f == FALSE {
            return None;
        }
        let mut assignment = 0u64;
        let mut cur = f;
        while cur != TRUE {
            let n = self.node(cur);
            assert!(n.var < 64, "any_sat packs assignments into u64");
            // At least one branch is satisfiable (reduced BDDs have no
            // FALSE-only interior nodes on every path).
            if n.lo == FALSE {
                assignment |= 1 << n.var;
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        Some(assignment)
    }

    /// Evaluates `f` under the assignment packing variable `i` at bit `i`.
    #[must_use]
    pub fn eval(&self, f: Ref, assignment: u64) -> bool {
        let mut cur = f;
        loop {
            if cur == TRUE {
                return true;
            }
            if cur == FALSE {
                return false;
            }
            let n = self.node(cur);
            cur = if n.var < 64 && (assignment >> n.var) & 1 == 1 { n.hi } else { n.lo };
        }
    }

    /// Mark-sweep garbage collection: frees every interior node not
    /// reachable from `roots`, unlinking it from the unique table and
    /// recycling its slot, and drops the ITE memo. All `Ref`s reachable
    /// from `roots` stay valid (the arena is not compacted); any other
    /// `Ref` the caller still holds must be considered dangling. Returns
    /// the number of nodes freed.
    pub fn gc(&mut self, roots: &[Ref]) -> usize {
        let mut mark = vec![false; self.nodes.len()];
        mark[FALSE.0 as usize] = true;
        mark[TRUE.0 as usize] = true;
        let mut stack: Vec<u32> = roots.iter().map(|r| r.0).collect();
        while let Some(idx) = stack.pop() {
            if mark[idx as usize] {
                continue;
            }
            mark[idx as usize] = true;
            let n = self.nodes[idx as usize];
            debug_assert!(n.var != DEAD_VAR, "root reaches a freed node");
            if n.var != TERMINAL_VAR {
                stack.push(n.lo.0);
                stack.push(n.hi.0);
            }
        }
        let mut freed = 0usize;
        for (idx, &marked) in mark.iter().enumerate().skip(2) {
            if marked || self.nodes[idx].var == DEAD_VAR {
                continue;
            }
            let n = self.nodes[idx];
            self.unique.remove(&(n.var, n.lo, n.hi));
            self.nodes[idx].var = DEAD_VAR;
            self.free.push(u32::try_from(idx).expect("arena fits in u32"));
            freed += 1;
        }
        self.live_nodes -= freed;
        self.freed_nodes += freed as u64;
        self.gc_runs += 1;
        self.ite_memo.clear();
        freed
    }

    /// Manager-wide counters.
    #[must_use]
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.nodes.len(),
            live_nodes: self.live_nodes,
            peak_live_nodes: self.peak_live,
            ite_lookups: self.ite_lookups,
            ite_hits: self.ite_hits,
            gc_runs: self.gc_runs,
            freed_nodes: self.freed_nodes,
        }
    }
}

/// Shannon cofactors of `f` (with node `n`) at the top variable `top`.
fn cofactor(f: Ref, n: Node, top: u32) -> (Ref, Ref) {
    if n.var == top {
        (n.lo, n.hi)
    } else {
        (f, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let bdd = Bdd::new();
        assert_eq!(bdd.stats().nodes, 2);
        assert_eq!(Bdd::constant(false), FALSE);
        assert_eq!(Bdd::constant(true), TRUE);
    }

    #[test]
    fn canonicity_of_simple_identities() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        // De Morgan: !(a·b) == !a + !b
        let ab = bdd.and(a, b);
        let lhs = bdd.not(ab);
        let na = bdd.not(a);
        let nb = bdd.not(b);
        let rhs = bdd.or(na, nb);
        assert_eq!(lhs, rhs);
        // Double negation.
        let nna = bdd.not(na);
        assert_eq!(nna, a);
        // xor via nand-network
        let n1 = bdd.nand(a, b);
        let n2 = bdd.nand(a, n1);
        let n3 = bdd.nand(b, n1);
        let x = bdd.nand(n2, n3);
        let direct = bdd.xor(a, b);
        assert_eq!(x, direct);
    }

    #[test]
    fn sat_count_matches_enumeration() {
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..4).map(|i| bdd.var(i)).collect();
        // maj(v0, v1, v2) ignoring v3.
        let t0 = bdd.and(vars[0], vars[1]);
        let t1 = bdd.and(vars[0], vars[2]);
        let t2 = bdd.and(vars[1], vars[2]);
        let t01 = bdd.or(t0, t1);
        let maj = bdd.or(t01, t2);
        let mut expected = 0u128;
        for x in 0u64..16 {
            let ones = (x & 1) + ((x >> 1) & 1) + ((x >> 2) & 1);
            if ones >= 2 {
                expected += 1;
            }
        }
        assert_eq!(bdd.sat_count(maj, 4), expected);
        assert_eq!(enumerate_count(&bdd, maj, 4), expected);
    }

    /// Satisfying assignments of `f` over `n_vars` variables, by truth
    /// table.
    fn enumerate_count(bdd: &Bdd, f: Ref, n_vars: usize) -> u128 {
        (0..1u64 << n_vars).filter(|&x| bdd.eval(f, x)).count() as u128
    }

    #[test]
    fn sat_count_counts_untested_and_uncreated_variables() {
        let mut bdd = Bdd::new();
        // A support that skips ids: v1 and v4 only (v0, v2, v3 never
        // created), so every edge gap and the gap above the root count.
        let v1 = bdd.var(1);
        let v4 = bdd.var(4);
        let f = bdd.xor(v1, v4);
        let g = bdd.and(v1, v4);
        for n_vars in 5..=8 {
            assert_eq!(bdd.sat_count(f, n_vars), enumerate_count(&bdd, f, n_vars), "{n_vars}");
            assert_eq!(bdd.sat_count(g, n_vars), enumerate_count(&bdd, g, n_vars), "{n_vars}");
        }
        // More counted variables than the manager ever created.
        assert_eq!(bdd.sat_count(f, 12), 1 << 11);
        assert_eq!(bdd.sat_count(g, 12), 1 << 10);
        // A projection counts half of the space it is counted over.
        assert_eq!(bdd.sat_count(v4, 5), 16);
        assert_eq!(bdd.sat_count(v4, 5), enumerate_count(&bdd, v4, 5));
    }

    #[test]
    fn sat_count_of_the_constants() {
        let mut bdd = Bdd::new();
        let _ = bdd.var(3);
        assert_eq!(bdd.sat_count(TRUE, 0), 1);
        assert_eq!(bdd.sat_count(FALSE, 0), 0);
        assert_eq!(bdd.sat_count(TRUE, 127), 1 << 127);
        assert_eq!(bdd.sat_count(FALSE, 127), 0);
        for n_vars in 0..=6 {
            assert_eq!(bdd.sat_count(TRUE, n_vars), enumerate_count(&bdd, TRUE, n_vars));
            assert_eq!(bdd.sat_count(FALSE, n_vars), enumerate_count(&bdd, FALSE, n_vars));
        }
    }

    #[test]
    fn any_sat_finds_a_model() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let nb = bdd.not(b);
        let f = bdd.and(a, nb);
        let m = bdd.any_sat(f).unwrap();
        assert!(bdd.eval(f, m));
        assert_eq!(m, 0b01);
        assert_eq!(bdd.any_sat(FALSE), None);
        assert_eq!(bdd.any_sat(TRUE), Some(0));
    }

    #[test]
    fn ite_memo_is_exercised() {
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..8).map(|i| bdd.var(i)).collect();
        let mut acc = TRUE;
        for _ in 0..3 {
            for &v in &vars {
                acc = bdd.xor(acc, v);
            }
        }
        let s = bdd.stats();
        assert!(s.ite_hits > 0, "repeated structures must hit the memo");
        assert!(s.hit_rate() > 0.0 && s.hit_rate() <= 1.0);
    }

    /// Interior nodes reachable from `roots`, each shared node once.
    fn interior_nodes(bdd: &Bdd, roots: &[Ref]) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = roots.to_vec();
        while let Some(r) = stack.pop() {
            if r != FALSE && r != TRUE && seen.insert(r) {
                let n = bdd.node(r);
                stack.extend([n.lo, n.hi]);
            }
        }
        seen.len()
    }

    #[test]
    fn gc_frees_unreachable_nodes_and_recycles_slots() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let keep = bdd.and(a, b);
        let ab = bdd.or(a, b);
        let _drop = bdd.xor(ab, c);
        let live_before = bdd.stats().live_nodes;
        let freed = bdd.gc(&[keep, a, b, c]);
        assert!(freed > 0, "the or/xor cone must be collected");
        let s = bdd.stats();
        assert_eq!(s.live_nodes, live_before - freed);
        assert_eq!(s.live_nodes, interior_nodes(&bdd, &[keep, a, b, c]));
        assert_eq!(s.gc_runs, 1);
        // Kept functions still canonical and correct.
        let keep2 = bdd.and(a, b);
        assert_eq!(keep, keep2);
        // New allocations reuse the freed slots: arena must not grow.
        let arena = bdd.stats().nodes;
        let _rebuilt = bdd.xor(a, c);
        assert_eq!(bdd.stats().nodes, arena, "freed slots must be recycled");
    }
}
