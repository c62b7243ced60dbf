//! The ROBDD package: hash-consed nodes, memoized ITE, model counting,
//! mark-sweep garbage collection and Rudell-style dynamic reordering.
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
//! Nodes store *variable ids*; the manager maps ids to *levels* through
//! `var2level`/`level2var`. The initial order is the identity (variable
//! index = level), and the compile layer interleaves two-operand
//! datapaths LSB-first (`a0, b0, a1, b1, …`) — the standard ordering
//! under which ripple-carry and tree adders/multipliers stay
//! polynomial-sized. [`Bdd::sift`] then improves the order dynamically:
//! Rudell sifting moves each variable through every level by in-place
//! adjacent-level swaps (preserving every reachable `Ref`'s function),
//! keeps the best position, and repeats until a fixpoint. Dense miters
//! that the static interleaving cannot tame (the Wallace 8×8 product
//! miter) shrink severalfold.
//!
//! # Memory
//!
//! [`Bdd::gc`] mark-sweeps the arena in place: nodes unreachable from the
//! caller's roots are unlinked from the unique table and their slots
//! recycled by later allocations, and the ITE memo is dropped. `Ref`s
//! reachable from the roots stay valid (no compaction), which is what
//! lets long proof sweeps share one manager across unrelated obligations
//! with bounded peak memory. [`Bdd::set_node_budget`] arms a live-node
//! ceiling: the `try_*` operators return a structured
//! [`BddBudgetExceeded`] instead of churning past it.
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
use std::fmt;

/// A handle to a BDD node (an index into the manager's arena).
///
/// Because the manager hash-conses every node, two `Ref`s are equal **iff**
/// the functions they denote are equal (under the manager's variable
/// order) — `==` on `Ref` is formal equivalence. After [`Bdd::gc`] or
/// [`Bdd::sift`], only `Ref`s reachable from the roots passed to the call
/// remain valid; dropped intermediates may be recycled.
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
    /// Garbage collections run ([`Bdd::gc`], including the one opening
    /// every [`Bdd::sift`]).
    pub gc_runs: u64,
    /// Total nodes freed by garbage collection and sifting.
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

/// Structured diagnostic returned by the `try_*` operators when the
/// armed node budget ([`Bdd::set_node_budget`]) is exceeded: the caller
/// learns how far past the ceiling the computation ran instead of the
/// manager churning until memory exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddBudgetExceeded {
    /// The armed live-node ceiling.
    pub budget: usize,
    /// Live interior nodes at the moment the guard fired.
    pub live_nodes: usize,
}

impl fmt::Display for BddBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BDD node budget exceeded: {} live nodes over a budget of {}",
            self.live_nodes, self.budget
        )
    }
}

impl std::error::Error for BddBudgetExceeded {}

/// Knobs of the Rudell sifting pass ([`Bdd::sift`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftOptions {
    /// Abort a sift direction once the live size exceeds this multiple of
    /// the best size seen for the variable (Rudell's growth cap).
    pub max_growth: f64,
    /// Maximum converge-until-fixpoint rounds over all variables.
    pub max_rounds: usize,
    /// Stop sifting entirely (keeping the best order found so far) once
    /// the live size exceeds this many nodes, if set.
    pub node_limit: Option<usize>,
}

impl Default for SiftOptions {
    fn default() -> Self {
        SiftOptions { max_growth: 1.2, max_rounds: 4, node_limit: None }
    }
}

/// Outcome of a [`Bdd::sift`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiftStats {
    /// Live interior nodes reachable from the roots before sifting
    /// (after the opening garbage collection).
    pub initial_nodes: usize,
    /// Live interior nodes after sifting.
    pub final_nodes: usize,
    /// Converge rounds actually run.
    pub rounds: usize,
    /// Adjacent-level swaps performed.
    pub swaps: u64,
}

impl SiftStats {
    /// `initial_nodes / final_nodes` — the shrink factor the pass won.
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.final_nodes == 0 {
            1.0
        } else {
            self.initial_nodes as f64 / self.final_nodes as f64
        }
    }
}

/// The BDD manager: node arena, unique table, ITE memo and the
/// variable-order maps.
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<(u32, Ref, Ref), Ref>,
    ite_memo: HashMap<(Ref, Ref, Ref), Ref>,
    ite_lookups: u64,
    ite_hits: u64,
    /// `var2level[v]` = current level of variable `v`; identity until
    /// sifting permutes it.
    var2level: Vec<u32>,
    /// Inverse of `var2level`.
    level2var: Vec<u32>,
    /// Recycled arena slots (from gc and sifting) awaiting reuse.
    free: Vec<u32>,
    live_nodes: usize,
    peak_live: usize,
    gc_runs: u64,
    freed_nodes: u64,
    node_budget: Option<usize>,
    /// Sift-time scratch: per-node reference counts (parents + root pins).
    refs: Vec<u32>,
    /// Sift-time scratch: lazy per-variable node lists (may hold stale
    /// entries; consumers re-check the node's current label).
    var_lists: Vec<Vec<u32>>,
    /// Sift-time scratch: live node count per variable.
    var_count: Vec<usize>,
    sifting: bool,
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
            var2level: Vec::new(),
            level2var: Vec::new(),
            free: Vec::new(),
            live_nodes: 0,
            peak_live: 0,
            gc_runs: 0,
            freed_nodes: 0,
            node_budget: None,
            refs: Vec::new(),
            var_lists: Vec::new(),
            var_count: Vec::new(),
            sifting: false,
        }
    }

    /// The projection function of variable `i`.
    pub fn var(&mut self, i: usize) -> Ref {
        let v = u32::try_from(i).expect("variable index fits in u32");
        assert!(v < DEAD_VAR, "variable index {i} reserved for the manager");
        self.ensure_var(v);
        self.mk(v, FALSE, TRUE)
    }

    /// Extends the order maps with identity levels up to variable `v`.
    fn ensure_var(&mut self, v: u32) {
        while self.var2level.len() <= v as usize {
            let l = u32::try_from(self.var2level.len()).expect("level fits in u32");
            self.var2level.push(l);
            self.level2var.push(l);
        }
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

    /// Current level of variable id `var`; terminals sort last.
    fn level_of_var(&self, var: u32) -> u32 {
        if var >= DEAD_VAR {
            u32::MAX
        } else {
            self.var2level[var as usize]
        }
    }

    /// Allocates an arena slot (recycling freed ones) for a fresh node.
    fn alloc(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
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

    /// Reduced, hash-consed node constructor.
    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo; // reduction rule: redundant test
        }
        if let Some(&r) = self.unique.get(&(var, lo, hi)) {
            return r; // sharing rule: node already exists
        }
        debug_assert!(!self.sifting, "mk must not run during a sift pass");
        self.alloc(var, lo, hi)
    }

    /// If-then-else: the canonical universal connective,
    /// `ite(f, g, h) = f·g + !f·h`, with memoization.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        match self.ite_rec(f, g, h, None) {
            Ok(r) => r,
            Err(e) => unreachable!("unbudgeted ite cannot fail: {e}"),
        }
    }

    /// Budget-guarded if-then-else: fails with [`BddBudgetExceeded`] when
    /// the armed node budget ([`Bdd::set_node_budget`]) is exceeded. The
    /// partially built nodes stay in the arena (reclaim with [`Bdd::gc`]).
    ///
    /// # Errors
    ///
    /// [`BddBudgetExceeded`] once live nodes pass the armed ceiling.
    pub fn try_ite(&mut self, f: Ref, g: Ref, h: Ref) -> Result<Ref, BddBudgetExceeded> {
        let budget = self.node_budget;
        self.ite_rec(f, g, h, budget)
    }

    fn ite_rec(
        &mut self,
        f: Ref,
        g: Ref,
        h: Ref,
        budget: Option<usize>,
    ) -> Result<Ref, BddBudgetExceeded> {
        // Terminal short-circuits that need no cache.
        if f == TRUE {
            return Ok(g);
        }
        if f == FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == TRUE && h == FALSE {
            return Ok(f);
        }

        self.ite_lookups += 1;
        if let Some(&r) = self.ite_memo.get(&(f, g, h)) {
            self.ite_hits += 1;
            return Ok(r);
        }

        if let Some(limit) = budget {
            if self.live_nodes > limit {
                return Err(BddBudgetExceeded { budget: limit, live_nodes: self.live_nodes });
            }
        }

        let (nf, ng, nh) = (self.node(f), self.node(g), self.node(h));
        let top_level =
            self.level_of_var(nf.var).min(self.level_of_var(ng.var)).min(self.level_of_var(nh.var));
        let top = self.level2var[top_level as usize];
        let (f0, f1) = cofactor(f, nf, top);
        let (g0, g1) = cofactor(g, ng, top);
        let (h0, h1) = cofactor(h, nh, top);
        let lo = self.ite_rec(f0, g0, h0, budget)?;
        let hi = self.ite_rec(f1, g1, h1, budget)?;
        let r = self.mk(top, lo, hi);
        self.ite_memo.insert((f, g, h), r);
        Ok(r)
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

    /// Budget-guarded negation.
    ///
    /// # Errors
    ///
    /// [`BddBudgetExceeded`] once live nodes pass the armed ceiling.
    pub fn try_not(&mut self, f: Ref) -> Result<Ref, BddBudgetExceeded> {
        self.try_ite(f, FALSE, TRUE)
    }

    /// Budget-guarded conjunction.
    ///
    /// # Errors
    ///
    /// [`BddBudgetExceeded`] once live nodes pass the armed ceiling.
    pub fn try_and(&mut self, f: Ref, g: Ref) -> Result<Ref, BddBudgetExceeded> {
        self.try_ite(f, g, FALSE)
    }

    /// Budget-guarded disjunction.
    ///
    /// # Errors
    ///
    /// [`BddBudgetExceeded`] once live nodes pass the armed ceiling.
    pub fn try_or(&mut self, f: Ref, g: Ref) -> Result<Ref, BddBudgetExceeded> {
        self.try_ite(f, TRUE, g)
    }

    /// Budget-guarded exclusive or.
    ///
    /// # Errors
    ///
    /// [`BddBudgetExceeded`] once live nodes pass the armed ceiling.
    pub fn try_xor(&mut self, f: Ref, g: Ref) -> Result<Ref, BddBudgetExceeded> {
        let ng = self.try_not(g)?;
        self.try_ite(f, ng, g)
    }

    /// Budget-guarded multiplexer: `sel ? d1 : d0`.
    ///
    /// # Errors
    ///
    /// [`BddBudgetExceeded`] once live nodes pass the armed ceiling.
    pub fn try_mux(&mut self, sel: Ref, d0: Ref, d1: Ref) -> Result<Ref, BddBudgetExceeded> {
        self.try_ite(sel, d1, d0)
    }

    /// Arms (or with `None`, disarms) the live-node ceiling enforced by
    /// the `try_*` operators. The unguarded operators ignore the budget.
    pub fn set_node_budget(&mut self, budget: Option<usize>) {
        self.node_budget = budget;
    }

    /// The cofactor `f[var := val]`.
    pub fn restrict(&mut self, f: Ref, var: usize, val: bool) -> Ref {
        let v = u32::try_from(var).expect("variable index fits in u32");
        self.ensure_var(v);
        let mut memo = HashMap::new();
        self.restrict_rec(f, v, val, &mut memo)
    }

    fn restrict_rec(&mut self, f: Ref, var: u32, val: bool, memo: &mut HashMap<Ref, Ref>) -> Ref {
        let n = self.node(f);
        if self.level_of_var(n.var) > self.level_of_var(var) {
            // Ordered BDD: once below `var`'s level (or at a terminal),
            // the variable no longer occurs.
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let r = if n.var == var {
            if val {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.restrict_rec(n.lo, var, val, memo);
            let hi = self.restrict_rec(n.hi, var, val, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(f, r);
        r
    }

    /// Functional composition `f[var := g]`, via the Shannon identity
    /// `f[var := g] = ite(g, f[var := 1], f[var := 0])`.
    pub fn compose(&mut self, f: Ref, var: usize, g: Ref) -> Ref {
        let f1 = self.restrict(f, var, true);
        let f0 = self.restrict(f, var, false);
        self.ite(g, f1, f0)
    }

    /// Number of satisfying assignments of `f` over `n_vars` variables
    /// (every variable index occurring in `f` must be `< n_vars`).
    /// Correct under any variable order, including after [`Bdd::sift`].
    ///
    /// # Panics
    ///
    /// Panics when `n_vars > 127` (the count must fit in `u128`) or when a
    /// node variable is out of range.
    #[must_use]
    pub fn sat_count(&self, f: Ref, n_vars: usize) -> u128 {
        assert!(n_vars <= 127, "sat_count supports at most 127 variables");
        let n = u32::try_from(n_vars).expect("checked above");
        // Rank the levels of the (created) variables below `n_vars`; the
        // level gaps in the recursion are gaps in this rank order.
        // Variables never created cannot occur in `f` and contribute a
        // plain factor of two each.
        let mut lvls: Vec<u32> = Vec::new();
        for v in 0..n_vars.min(self.var2level.len()) {
            lvls.push(self.var2level[v]);
        }
        lvls.sort_unstable();
        let created = u32::try_from(lvls.len()).expect("fits");
        let rank: HashMap<u32, u32> =
            lvls.iter().enumerate().map(|(i, &l)| (l, i as u32)).collect();
        let mut memo: HashMap<Ref, u128> = HashMap::new();
        let below = self.sat_count_rec(f, n, created, &rank, &mut memo);
        (below << self.rank_of(f, n, created, &rank)) << (n - created)
    }

    /// Rank of a node's level among the counted variables, with terminals
    /// pinned to `created` (one past the last counted rank).
    fn rank_of(&self, f: Ref, n_vars: u32, created: u32, rank: &HashMap<u32, u32>) -> u32 {
        let v = self.node(f).var;
        if v == TERMINAL_VAR {
            created
        } else {
            assert!(v < n_vars, "node variable {v} out of range 0..{n_vars}");
            rank[&self.var2level[v as usize]]
        }
    }

    /// Satisfying assignments over the counted variables ranked below `f`.
    fn sat_count_rec(
        &self,
        f: Ref,
        n_vars: u32,
        created: u32,
        rank: &HashMap<u32, u32>,
        memo: &mut HashMap<Ref, u128>,
    ) -> u128 {
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
        let my_rank = self.rank_of(f, n_vars, created, rank);
        let lo = self.sat_count_rec(n.lo, n_vars, created, rank, memo)
            << (self.rank_of(n.lo, n_vars, created, rank) - my_rank - 1);
        let hi = self.sat_count_rec(n.hi, n_vars, created, rank, memo)
            << (self.rank_of(n.hi, n_vars, created, rank) - my_rank - 1);
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

    /// All satisfying assignments of `f` over `n_vars` variables, in
    /// increasing numeric order. Intended for small witness sets (the
    /// caller should bound `sat_count` first).
    ///
    /// # Panics
    ///
    /// Panics when `n_vars > 64`.
    #[must_use]
    pub fn all_sat(&self, f: Ref, n_vars: usize) -> Vec<u64> {
        assert!(n_vars <= 64, "all_sat packs assignments into u64");
        let mut out = Vec::new();
        for x in 0..(1u128 << n_vars) {
            let x = x as u64;
            if self.eval(f, x) {
                out.push(x);
            }
        }
        out
    }

    /// The variable id tested at the root of `f`, `None` for terminals.
    #[must_use]
    pub fn top_var(&self, f: Ref) -> Option<usize> {
        let v = self.node(f).var;
        if v >= DEAD_VAR {
            None
        } else {
            Some(v as usize)
        }
    }

    /// The current order position (level) of variable `var`. Variables the
    /// manager has never seen sit at their identity level.
    #[must_use]
    pub fn var_level(&self, var: usize) -> usize {
        self.var2level.get(var).map_or(var, |&l| l as usize)
    }

    /// The Shannon cofactors `(f|var=0, f|var=1)`.
    ///
    /// Only a *shallow* inspection: correct in general only when `var`
    /// sits at or above `f`'s top level in the current order (the usual
    /// case for a top-down walk that always splits on the minimal level
    /// among its roots). When `f` does not test `var` at its root, both
    /// cofactors are `f` itself.
    #[must_use]
    pub fn cofactors(&self, f: Ref, var: usize) -> (Ref, Ref) {
        let n = self.node(f);
        if n.var as usize == var && n.var < DEAD_VAR {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
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

    /// Number of nodes reachable from `f` (the size of that function's
    /// diagram, terminals included).
    #[must_use]
    pub fn reachable_size(&self, roots: &[Ref]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<Ref> = roots.to_vec();
        let mut count = 0usize;
        while let Some(r) = stack.pop() {
            let idx = r.0 as usize;
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            count += 1;
            let n = self.nodes[idx];
            if n.var != TERMINAL_VAR {
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        count
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

    /// Rudell sifting: dynamically reorders the variables to shrink the
    /// diagrams reachable from `roots`. Each variable is moved through
    /// every level by in-place adjacent-level swaps and parked at its
    /// best position, variables in decreasing-node-count order, repeated
    /// until a fixpoint (or `opts.max_rounds`). Every `Ref` reachable
    /// from `roots` keeps denoting the same function; unreachable nodes
    /// are garbage-collected first (as by [`Bdd::gc`]).
    pub fn sift(&mut self, roots: &[Ref], opts: &SiftOptions) -> SiftStats {
        self.gc(roots);
        let n_levels = self.level2var.len();
        let initial = self.live_nodes;
        if n_levels < 2 || initial == 0 {
            return SiftStats { initial_nodes: initial, final_nodes: initial, rounds: 0, swaps: 0 };
        }

        // Build the sift-time structures: reference counts (parents plus
        // one pin per root occurrence) and per-variable node lists.
        self.refs = vec![0; self.nodes.len()];
        self.var_lists = vec![Vec::new(); n_levels];
        self.var_count = vec![0; n_levels];
        for idx in 2..self.nodes.len() {
            let n = self.nodes[idx];
            if n.var >= DEAD_VAR {
                continue;
            }
            self.var_lists[n.var as usize].push(u32::try_from(idx).expect("fits"));
            self.var_count[n.var as usize] += 1;
            self.incref(n.lo);
            self.incref(n.hi);
        }
        for r in roots {
            self.incref(*r);
        }
        self.sifting = true;

        let mut swaps = 0u64;
        let mut rounds = 0usize;
        'rounds: for _ in 0..opts.max_rounds {
            rounds += 1;
            let before = self.live_nodes;
            let mut order: Vec<u32> = (0..n_levels as u32).collect();
            order.sort_by_key(|&v| std::cmp::Reverse(self.var_count[v as usize]));
            for v in order {
                if self.var_count[v as usize] == 0 {
                    continue;
                }
                self.sift_one(v as usize, opts, &mut swaps);
                if let Some(limit) = opts.node_limit {
                    if self.live_nodes > limit {
                        break 'rounds;
                    }
                }
            }
            if self.live_nodes >= before {
                break; // fixpoint: the round won nothing
            }
        }

        self.sifting = false;
        self.refs = Vec::new();
        self.var_lists = Vec::new();
        self.var_count = Vec::new();
        SiftStats { initial_nodes: initial, final_nodes: self.live_nodes, rounds, swaps }
    }

    /// Sifts one variable: walk it to the nearer end of the order, then
    /// across to the other end, tracking the live size after every swap,
    /// then park it at the best level seen. Directions abort early once
    /// the size exceeds `max_growth ×` the variable's best size.
    fn sift_one(&mut self, v: usize, opts: &SiftOptions, swaps: &mut u64) {
        let n_levels = self.level2var.len();
        let start = self.var2level[v] as usize;
        let mut best_size = self.live_nodes;
        let mut best_level = start;
        let cap = |best: usize| (best as f64 * opts.max_growth) as usize;
        let down_first = (n_levels - 1 - start) <= start;

        for phase in 0..2 {
            let downward = down_first == (phase == 0);
            loop {
                let l = self.var2level[v] as usize;
                if downward {
                    if l + 1 >= n_levels {
                        break;
                    }
                    self.swap_levels(l);
                } else {
                    if l == 0 {
                        break;
                    }
                    self.swap_levels(l - 1);
                }
                *swaps += 1;
                if self.live_nodes < best_size {
                    best_size = self.live_nodes;
                    best_level = self.var2level[v] as usize;
                }
                if self.live_nodes > cap(best_size) {
                    break;
                }
            }
        }

        // Park at the best level seen.
        while (self.var2level[v] as usize) > best_level {
            let l = self.var2level[v] as usize;
            self.swap_levels(l - 1);
            *swaps += 1;
        }
        while (self.var2level[v] as usize) < best_level {
            let l = self.var2level[v] as usize;
            self.swap_levels(l);
            *swaps += 1;
        }
    }

    fn incref(&mut self, r: Ref) {
        if r.0 > 1 {
            self.refs[r.0 as usize] += 1;
        }
    }

    /// Decrements a node's reference count, freeing it (and cascading to
    /// its descendants) when it hits zero.
    fn decref(&mut self, r: Ref) {
        if r.0 <= 1 {
            return;
        }
        let mut stack = vec![r.0];
        while let Some(idx) = stack.pop() {
            if idx <= 1 {
                continue;
            }
            let c = &mut self.refs[idx as usize];
            debug_assert!(*c > 0, "refcount underflow");
            *c -= 1;
            if *c > 0 {
                continue;
            }
            let n = self.nodes[idx as usize];
            debug_assert!(n.var < DEAD_VAR);
            self.unique.remove(&(n.var, n.lo, n.hi));
            self.nodes[idx as usize].var = DEAD_VAR;
            self.free.push(idx);
            self.var_count[n.var as usize] -= 1;
            self.live_nodes -= 1;
            self.freed_nodes += 1;
            stack.push(n.lo.0);
            stack.push(n.hi.0);
        }
    }

    /// Hash-consed constructor used inside level swaps: like `mk` but
    /// maintains the sift-time reference counts and variable lists.
    fn mk_swap(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        if let Some(&r) = self.unique.get(&(var, lo, hi)) {
            return r;
        }
        let r = self.alloc(var, lo, hi);
        if self.refs.len() <= r.0 as usize {
            self.refs.resize(self.nodes.len(), 0);
        }
        self.refs[r.0 as usize] = 0;
        self.incref(lo);
        self.incref(hi);
        self.var_lists[var as usize].push(r.0);
        self.var_count[var as usize] += 1;
        r
    }

    /// Swaps adjacent levels `l` and `l+1` in place. Every node labelled
    /// with the upper variable whose children test the lower variable is
    /// rewritten through the Shannon expansion around the two variables —
    /// keeping its `Ref` (and hence every ancestor) denoting the same
    /// function — while non-interacting nodes just trade levels via the
    /// order maps.
    fn swap_levels(&mut self, l: usize) {
        let x = self.level2var[l];
        let y = self.level2var[l + 1];
        let old = std::mem::take(&mut self.var_lists[x as usize]);
        let mut keep: Vec<u32> = Vec::with_capacity(old.len());
        for idx in old {
            let n = self.nodes[idx as usize];
            if n.var != x {
                continue; // stale list entry (freed or relabelled slot)
            }
            let lo_n = self.nodes[n.lo.0 as usize];
            let hi_n = self.nodes[n.hi.0 as usize];
            let lo_y = lo_n.var == y;
            let hi_y = hi_n.var == y;
            if !lo_y && !hi_y {
                keep.push(idx);
                continue;
            }
            // Shannon cofactors of the two children around y.
            let (f00, f01) = if lo_y { (lo_n.lo, lo_n.hi) } else { (n.lo, n.lo) };
            let (f10, f11) = if hi_y { (hi_n.lo, hi_n.hi) } else { (n.hi, n.hi) };
            self.unique.remove(&(x, n.lo, n.hi));
            let c0 = self.mk_swap(x, f00, f10);
            let c1 = self.mk_swap(x, f01, f11);
            self.incref(c0);
            self.incref(c1);
            self.nodes[idx as usize] = Node { var: y, lo: c0, hi: c1 };
            let dup = self.unique.insert((y, c0, c1), Ref(idx));
            debug_assert!(dup.is_none(), "level swap produced a duplicate node");
            self.var_lists[y as usize].push(idx);
            self.var_count[x as usize] -= 1;
            self.var_count[y as usize] += 1;
            self.decref(n.lo);
            self.decref(n.hi);
        }
        // Nodes allocated by mk_swap during the loop are already in the
        // fresh x list; append the non-interacting survivors.
        self.var_lists[x as usize].extend(keep);
        self.var2level[x as usize] = u32::try_from(l + 1).expect("fits");
        self.var2level[y as usize] = u32::try_from(l).expect("fits");
        self.level2var[l] = y;
        self.level2var[l + 1] = x;
    }

    /// The current variable order: `order()[l]` is the variable id at
    /// level `l`.
    #[must_use]
    pub fn order(&self) -> Vec<usize> {
        self.level2var.iter().map(|&v| v as usize).collect()
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
        assert_eq!(bdd.all_sat(maj, 4).len() as u128, expected);
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
    fn restrict_and_compose() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let f = {
            let bc = bdd.or(b, c);
            bdd.and(a, bc)
        };
        let f1 = bdd.restrict(f, 0, true);
        let bc = bdd.or(b, c);
        assert_eq!(f1, bc);
        assert_eq!(bdd.restrict(f, 0, false), FALSE);
        // f[b := a·c]: the result no longer tests b, so evaluating on any
        // assignment must agree with substituting g's value for b.
        let g = bdd.and(a, c);
        let composed = bdd.compose(f, 1, g);
        for x in 0u64..8 {
            let av = x & 1 == 1;
            let cv = (x >> 2) & 1 == 1;
            let bv = av && cv; // g(x)
            let expect = av && (bv || cv);
            assert_eq!(bdd.eval(composed, x), expect, "x = {x:03b}");
        }
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

    #[test]
    fn reachable_size_counts_shared_nodes_once() {
        let mut bdd = Bdd::new();
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.xor(a, b);
        let size = bdd.reachable_size(&[f, f]);
        // xor over 2 vars: 1 root + 2 nodes for var1 + 2 terminals = 5.
        assert_eq!(size, 5);
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
        assert_eq!(s.live_nodes, bdd.reachable_size(&[keep, a, b, c]) - 2);
        assert_eq!(s.gc_runs, 1);
        // Kept functions still canonical and correct.
        let keep2 = bdd.and(a, b);
        assert_eq!(keep, keep2);
        // New allocations reuse the freed slots: arena must not grow.
        let arena = bdd.stats().nodes;
        let _rebuilt = bdd.xor(a, c);
        assert_eq!(bdd.stats().nodes, arena, "freed slots must be recycled");
    }

    #[test]
    fn budget_guard_fires_with_structured_diagnostic() {
        let mut bdd = Bdd::new();
        let vars: Vec<Ref> = (0..16).map(|i| bdd.var(i)).collect();
        bdd.set_node_budget(Some(20));
        // A dense function (conjunction of xors pairing distant vars)
        // must trip a 20-node ceiling.
        let mut acc = TRUE;
        let mut tripped = None;
        for i in 0..8 {
            match bdd.try_xor(vars[i], vars[15 - i]).and_then(|x| bdd.try_and(acc, x)) {
                Ok(r) => acc = r,
                Err(e) => {
                    tripped = Some(e);
                    break;
                }
            }
        }
        let e = tripped.expect("budget must fire");
        assert_eq!(e.budget, 20);
        assert!(e.live_nodes > 20);
        assert!(e.to_string().contains("budget"));
        // Disarmed, the same computation completes.
        bdd.set_node_budget(None);
        let mut acc = TRUE;
        for i in 0..8 {
            let x = bdd.try_xor(vars[i], vars[15 - i]).unwrap();
            acc = bdd.try_and(acc, x).unwrap();
        }
        assert_ne!(acc, FALSE);
    }

    /// An interleaved-ordered function family that a different order
    /// shrinks dramatically: `Σ a_i·b_i`-style pairing with the pairs
    /// split far apart, i.e. f = (v0·v8) + (v1·v9) + … over the identity
    /// order — linear when mates are adjacent, exponential when split.
    fn split_pairs(bdd: &mut Bdd, n_pairs: usize) -> Ref {
        let mut f = FALSE;
        for i in 0..n_pairs {
            let a = bdd.var(i);
            let b = bdd.var(n_pairs + i);
            let ab = bdd.and(a, b);
            f = bdd.or(f, ab);
        }
        f
    }

    #[test]
    fn sifting_shrinks_a_badly_ordered_function() {
        let n = 7;
        let mut bdd = Bdd::new();
        let f = split_pairs(&mut bdd, n);
        let before = bdd.reachable_size(&[f]);
        let stats = bdd.sift(&[f], &SiftOptions::default());
        let after = bdd.reachable_size(&[f]);
        assert_eq!(stats.final_nodes, after - 2);
        assert!(
            after * 2 < before,
            "sifting must shrink the split-pairs function: {before} -> {after}"
        );
        assert!(stats.swaps > 0);
    }

    #[test]
    fn sifting_preserves_functions_and_canonicity() {
        let n = 6;
        let mut bdd = Bdd::new();
        let f = split_pairs(&mut bdd, n);
        let g = {
            let v0 = bdd.var(0);
            let v9 = bdd.var(2 * n - 1);
            bdd.xor(v0, v9)
        };
        let count_f = bdd.sat_count(f, 2 * n);
        let count_g = bdd.sat_count(g, 2 * n);
        let evals: Vec<bool> = (0..(1u64 << (2 * n))).map(|x| bdd.eval(f, x)).collect();
        bdd.sift(&[f, g], &SiftOptions::default());
        // Same functions, bit for bit, and same model counts under the
        // permuted order.
        for (x, &want) in evals.iter().enumerate() {
            assert_eq!(bdd.eval(f, x as u64), want, "x = {x}");
        }
        assert_eq!(bdd.sat_count(f, 2 * n), count_f);
        assert_eq!(bdd.sat_count(g, 2 * n), count_g);
        // Canonicity holds under the new order: rebuilding the function
        // lands on the same ref.
        let mut h = FALSE;
        for i in 0..n {
            let a = bdd.var(i);
            let b = bdd.var(n + i);
            let ab = bdd.and(a, b);
            h = bdd.or(h, ab);
        }
        assert_eq!(h, f);
        // The order is a permutation.
        let mut order = bdd.order();
        order.sort_unstable();
        assert_eq!(order, (0..2 * n).collect::<Vec<_>>());
    }

    #[test]
    fn sifting_respects_node_limit() {
        let mut bdd = Bdd::new();
        let f = split_pairs(&mut bdd, 6);
        let stats = bdd.sift(&[f], &SiftOptions { node_limit: Some(1), ..SiftOptions::default() });
        // With a 1-node limit the pass stops after the first variable;
        // the function must still be intact.
        assert!(stats.rounds <= 1);
        assert!(bdd.eval(f, (1 << 0) | (1 << 6)));
        assert!(!bdd.eval(f, 1 << 0));
    }

    #[test]
    fn operations_after_sifting_stay_correct() {
        let mut bdd = Bdd::new();
        let f = split_pairs(&mut bdd, 5);
        bdd.sift(&[f], &SiftOptions::default());
        // Fresh structure over the permuted order: restrict/compose laws.
        let a = bdd.var(0);
        let b = bdd.var(5);
        let ab = bdd.and(a, b);
        let r1 = bdd.restrict(f, 0, true);
        let r0 = bdd.restrict(f, 0, false);
        let back = bdd.ite(a, r1, r0);
        assert_eq!(back, f, "Shannon expansion must reassemble f");
        assert_eq!(bdd.restrict(ab, 0, false), FALSE);
        for x in 0..(1u64 << 10) {
            let want = (0..5).any(|i| (x >> i) & 1 == 1 && (x >> (5 + i)) & 1 == 1);
            assert_eq!(bdd.eval(f, x), want);
        }
    }
}
