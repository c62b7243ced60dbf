//! A lightweight, zero-dependency property-testing harness.
//!
//! The workspace's invariants ("GeAr never over-estimates", "synthesis
//! preserves the truth table", …) are checked over seeded random inputs,
//! in the spirit of `proptest` but built entirely on [`crate::rng`] so the
//! tier-1 gate runs offline:
//!
//! * **Seeded case generation** — each test case draws its input from a
//!   [`DefaultRng`] keyed by a per-case seed derived (via SplitMix64) from
//!   the run seed, so any single failing case is reproducible in isolation.
//! * **Configurable effort** — case counts and seeds come from the
//!   environment: `XLAC_CHECK_CASES` (default 256) scales how many cases
//!   every property runs, `XLAC_CHECK_SEED` re-keys the whole run, and
//!   `XLAC_CHECK_REPRO=<case seed>` replays exactly one reported case.
//! * **Shrinking** — on failure the harness greedily minimizes the input
//!   through the [`Shrink`] trait (integers toward zero, collections
//!   toward empty, tuples component-wise) and reports both the original
//!   and the shrunk counterexample, plus the case seed to replay it.
//!
//! # Writing a property
//!
//! ```
//! use xlac_core::check::{check, Rng};
//! use xlac_core::{prop_assert, prop_assert_eq};
//!
//! check("addition commutes", |rng| (rng.gen::<u64>(), rng.gen::<u64>()), |&(a, b)| {
//!     prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     prop_assert!(a.wrapping_add(b) >= a.min(b) || a.checked_add(b).is_none());
//!     Ok(())
//! });
//! ```
//!
//! The property closure returns `Ok(())` on success and `Err(message)` on
//! violation; [`prop_assert!`](crate::prop_assert) and
//! [`prop_assert_eq!`](crate::prop_assert_eq) are shorthands that early-return an `Err` with
//! the failing expression. Generators that cannot express a constraint by
//! construction may return `Ok(())` early for invalid inputs (the
//! `prop_filter` idiom) — shrinking re-runs the property, so vacuously
//! passing inputs never become counterexamples.

use crate::rng::SplitMix64;
pub use crate::rng::{DefaultRng, Rng};
use std::fmt::Debug;

/// Default number of cases per property when `XLAC_CHECK_CASES` is unset.
pub const DEFAULT_CASES: u64 = 256;

/// Default run seed when `XLAC_CHECK_SEED` is unset. Fixed so CI runs are
/// reproducible by default; vary the env var to widen coverage.
pub const DEFAULT_SEED: u64 = 0xDAC_2016;

/// Harness configuration, normally read from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of random cases to run per property.
    pub cases: u64,
    /// Seed keying the whole run's case-seed stream.
    pub seed: u64,
    /// Replay exactly this case seed (from a failure report) when set.
    pub repro: Option<u64>,
    /// Upper bound on accepted shrink steps before reporting.
    pub max_shrink_steps: u64,
}

impl Config {
    /// Reads `XLAC_CHECK_CASES`, `XLAC_CHECK_SEED` and `XLAC_CHECK_REPRO`
    /// from the environment, falling back to the defaults. Values parse as
    /// plain decimal or `0x`-prefixed hex; unparsable values are ignored.
    #[must_use]
    pub fn from_env() -> Self {
        Config {
            cases: env_u64("XLAC_CHECK_CASES").unwrap_or(DEFAULT_CASES).max(1),
            seed: env_u64("XLAC_CHECK_SEED").unwrap_or(DEFAULT_SEED),
            repro: env_u64("XLAC_CHECK_REPRO"),
            max_shrink_steps: 2048,
        }
    }

    /// Returns the configuration with a different case count.
    #[must_use]
    pub fn with_cases(self, cases: u64) -> Self {
        Config { cases: cases.max(1), ..self }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Types the harness can minimize after a failure.
///
/// `shrink` returns candidate replacements strictly "smaller" than `self`,
/// simplest first. The harness accepts the first candidate that still
/// fails the property and iterates to a fixed point (or the step budget).
pub trait Shrink: Sized {
    /// Candidate simplifications of `self`, simplest first.
    fn shrink(&self) -> Vec<Self>;
}

macro_rules! impl_shrink_uint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v == 0 {
                    return out;
                }
                out.push(0);
                if v > 2 {
                    out.push(v / 2);
                }
                out.push(v - 1);
                out.dedup();
                out
            }
        }
    )*};
}
impl_shrink_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_shrink_int {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v == 0 {
                    return out;
                }
                out.push(0);
                if v < 0 {
                    // Positive mirror first: smaller by magnitude ordering
                    // conventions, and often enough to show sign-independence.
                    if let Some(p) = v.checked_neg() {
                        out.push(p);
                    }
                }
                if v.unsigned_abs() > 2 {
                    out.push(v / 2);
                }
                out.push(if v > 0 { v - 1 } else { v + 1 });
                out.dedup();
                out
            }
        }
    )*};
}
impl_shrink_int!(i8, i16, i32, i64, isize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Shrink for f64 {
    fn shrink(&self) -> Vec<Self> {
        let v = *self;
        if v == 0.0 || !v.is_finite() {
            return Vec::new();
        }
        let mut out = vec![0.0];
        if v.abs() > 1.0 {
            out.push(v / 2.0);
            out.push(v.trunc());
        }
        out.dedup();
        out.retain(|c| c != &v);
        out
    }
}

impl Shrink for f32 {
    fn shrink(&self) -> Vec<Self> {
        f64::from(*self).shrink().into_iter().map(|c| c as f32).collect()
    }
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        out.push(Vec::new());
        if self.len() > 1 {
            out.push(self[..self.len() / 2].to_vec());
            out.push(self[self.len() / 2..].to_vec());
        }
        // Drop single elements (front and back first).
        for i in [0, self.len() - 1] {
            let mut v = self.clone();
            v.remove(i);
            if v.len() != self.len() {
                out.push(v);
            }
        }
        // Shrink individual elements in place.
        for (i, elem) in self.iter().enumerate() {
            for candidate in elem.shrink() {
                let mut v = self.clone();
                v[i] = candidate;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! impl_shrink_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = candidate;
                        out.push(t);
                    }
                )+
                out
            }
        }
    };
}
impl_shrink_tuple!(A: 0);
impl_shrink_tuple!(A: 0, B: 1);
impl_shrink_tuple!(A: 0, B: 1, C: 2);
impl_shrink_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_shrink_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Outcome type for property closures.
pub type PropResult = Result<(), String>;

/// Runs `prop` over cases drawn by `gen`, with configuration from the
/// environment ([`Config::from_env`]).
///
/// # Panics
///
/// Panics with a reproduction report (property name, case index, case
/// seed, original and shrunk counterexamples, failure message) when a case
/// fails.
pub fn check<T, G, P>(name: &str, gen: G, prop: P)
where
    T: Clone + Debug + Shrink,
    G: Fn(&mut DefaultRng) -> T,
    P: Fn(&T) -> PropResult,
{
    check_with(name, &Config::from_env(), gen, prop);
}

/// [`check`] with an explicit configuration (still honouring
/// `XLAC_CHECK_REPRO` for single-case replay).
pub fn check_with<T, G, P>(name: &str, config: &Config, gen: G, prop: P)
where
    T: Clone + Debug + Shrink,
    G: Fn(&mut DefaultRng) -> T,
    P: Fn(&T) -> PropResult,
{
    if let Some(case_seed) = config.repro {
        run_case(name, config, 0, case_seed, &gen, &prop);
        return;
    }
    let mut seeds = SplitMix64::seed_from_u64(config.seed);
    for case in 0..config.cases {
        let case_seed = seeds.next_u64();
        run_case(name, config, case, case_seed, &gen, &prop);
    }
}

fn run_case<T, G, P>(name: &str, config: &Config, case: u64, case_seed: u64, gen: &G, prop: &P)
where
    T: Clone + Debug + Shrink,
    G: Fn(&mut DefaultRng) -> T,
    P: Fn(&T) -> PropResult,
{
    let mut rng = DefaultRng::seed_from_u64(case_seed);
    let input = gen(&mut rng);
    let Err(message) = prop(&input) else { return };
    let (shrunk, steps) = minimize(&input, prop, config.max_shrink_steps);
    let final_message = prop(&shrunk).err().unwrap_or(message);
    panic!(
        "property '{name}' failed at case {case} (case seed {case_seed:#x}; \
         rerun just this case with XLAC_CHECK_REPRO={case_seed})\n\
         original input: {input:?}\n\
         shrunk input ({steps} accepted shrink steps): {shrunk:?}\n\
         failure: {final_message}"
    );
}

/// Greedy shrink to a local minimum: repeatedly accept the first candidate
/// that still fails, within the step budget.
fn minimize<T, P>(input: &T, prop: &P, budget: u64) -> (T, u64)
where
    T: Clone + Debug + Shrink,
    P: Fn(&T) -> PropResult,
{
    let mut current = input.clone();
    let mut steps = 0u64;
    'outer: while steps < budget {
        for candidate in current.shrink() {
            if prop(&candidate).is_err() {
                current = candidate;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, steps)
}

/// Asserts a condition inside a property closure, early-returning
/// `Err(message)` on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

/// Asserts equality inside a property closure, early-returning an `Err`
/// that shows both values on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($arg)+),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn fixed() -> Config {
        Config { cases: 64, seed: 1, repro: None, max_shrink_steps: 2048 }
    }

    #[test]
    fn passing_property_runs_quietly() {
        check_with("tautology", &fixed(), |rng| rng.gen::<u64>(), |_| Ok(()));
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check_with(
                "all u64 are small",
                &fixed(),
                |rng| rng.gen_range(100..100_000u64),
                |&v| {
                    prop_assert!(v < 100, "{v} is not small");
                    Ok(())
                },
            );
        }));
        let panic = result.expect_err("property must fail");
        let text = panic.downcast_ref::<String>().expect("string panic payload");
        assert!(text.contains("all u64 are small"), "{text}");
        assert!(text.contains("XLAC_CHECK_REPRO="), "{text}");
        // Greedy shrink on v>=100 failing v<100 must land exactly on 100.
        assert!(text.contains("shrunk input") && text.contains("100"), "{text}");
    }

    #[test]
    fn shrinking_minimizes_vectors() {
        // Failure iff the vec contains an element >= 10; minimal failing
        // input is a single element equal to 10.
        let prop = |v: &Vec<u64>| {
            prop_assert!(v.iter().all(|&x| x < 10));
            Ok(())
        };
        let (shrunk, _) = minimize(&vec![3, 17, 250, 9], &prop, 2048);
        assert_eq!(shrunk, vec![10]);
    }

    #[test]
    fn shrinking_minimizes_tuples_componentwise() {
        let prop = |&(a, b): &(u64, u64)| {
            prop_assert!(a.saturating_add(b) < 1000);
            Ok(())
        };
        let (shrunk, _) = minimize(&(800u64, 900u64), &prop, 2048);
        // Minimum is any (a, b) with a + b == 1000 reachable greedily;
        // one component must hit 0 or the sum boundary.
        assert!(shrunk.0 + shrunk.1 == 1000, "{shrunk:?}");
    }

    #[test]
    fn integer_shrink_candidates_are_smaller() {
        for v in [1u64, 2, 3, 100, u64::MAX] {
            for c in v.shrink() {
                assert!(c < v, "{c} !< {v}");
            }
        }
        for v in [-5i64, 5, i64::MIN + 1] {
            for c in v.shrink() {
                assert!(c.unsigned_abs() <= v.unsigned_abs());
            }
        }
        assert!(0u64.shrink().is_empty());
        assert!(0i64.shrink().is_empty());
    }

    #[test]
    fn repro_runs_a_single_case() {
        use std::cell::Cell;
        let runs = Cell::new(0u32);
        let cfg = Config { repro: Some(0x1234), ..fixed() };
        check_with(
            "repro single case",
            &cfg,
            |rng| rng.gen::<u64>(),
            |_| {
                runs.set(runs.get() + 1);
                Ok(())
            },
        );
        assert_eq!(runs.get(), 1);
    }

    #[test]
    fn case_count_is_honoured() {
        use std::cell::Cell;
        let runs = Cell::new(0u64);
        check_with(
            "count cases",
            &fixed().with_cases(17),
            |rng| rng.gen::<u64>(),
            |_| {
                runs.set(runs.get() + 1);
                Ok(())
            },
        );
        assert_eq!(runs.get(), 17);
    }

    #[test]
    fn env_parsing_accepts_hex() {
        // Direct helper checks (avoid mutating process env in tests).
        assert_eq!(super::env_u64("XLAC_CHECK_NONEXISTENT_VAR"), None);
    }
}
