//! Generic Pareto-frontier extraction.
//!
//! The Fig.7 methodology selects "a set of pareto-optimal points … in the
//! design space exploration process" before building multi-bit blocks.
//! [`pareto_frontier`] implements that step generically: given items and a
//! list of objective extractors (all minimized — negate a metric to
//! maximize it), it returns the non-dominated subset.
//!
//! # Example
//!
//! ```
//! use xlac_explore::pareto::pareto_frontier;
//!
//! // (area, error): minimize both.
//! let designs = [(4.0, 0.5), (2.0, 1.0), (3.0, 0.2), (5.0, 0.9)];
//! let frontier = pareto_frontier(&designs, &[&|d: &(f64, f64)| d.0, &|d| d.1]);
//! // (5.0, 0.9) is dominated by (3.0, 0.2) and (4.0, 0.5) is dominated
//! // by (3.0, 0.2) too.
//! assert_eq!(frontier.len(), 2);
//! ```

use xlac_core::error::{Result, XlacError};

/// Extracts the Pareto-optimal subset of `items` under the given
/// objectives (all minimized). Returns references in the original order.
///
/// An item is dominated when some other item is **no worse on every**
/// objective and **strictly better on at least one**. Duplicate objective
/// vectors are all kept (none dominates the other).
///
/// # Panics
///
/// Panics when `objectives` is empty. Callers whose objective list is
/// computed (and may legitimately come up empty — a fully-pruned or
/// misconfigured exploration) should use [`try_pareto_frontier`].
pub fn pareto_frontier<'a, T>(items: &'a [T], objectives: &[&dyn Fn(&T) -> f64]) -> Vec<&'a T> {
    try_pareto_frontier(items, objectives).expect("need at least one objective")
}

/// The fallible twin of [`pareto_frontier`]: returns a typed error for an
/// empty objective list instead of panicking, and `Ok(vec![])` for an
/// empty item set (an empty space has an empty frontier — not a crash).
///
/// # Errors
///
/// [`XlacError::EmptyInput`] when `objectives` is empty (every item would
/// vacuously dominate every other, which has no meaningful frontier).
pub fn try_pareto_frontier<'a, T>(
    items: &'a [T],
    objectives: &[&dyn Fn(&T) -> f64],
) -> Result<Vec<&'a T>> {
    if objectives.is_empty() {
        return Err(XlacError::EmptyInput("pareto objectives"));
    }
    let scores: Vec<Vec<f64>> =
        items.iter().map(|it| objectives.iter().map(|f| f(it)).collect()).collect();
    let dominates = |a: &[f64], b: &[f64]| -> bool {
        let no_worse = a.iter().zip(b).all(|(x, y)| x <= y);
        let better = a.iter().zip(b).any(|(x, y)| x < y);
        no_worse && better
    };
    Ok(items
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            !scores.iter().enumerate().any(|(j, s)| j != *i && dominates(s, &scores[*i]))
        })
        .map(|(_, it)| it)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_objective_keeps_the_minimum_only() {
        let xs = [3.0f64, 1.0, 2.0, 1.0];
        let front = pareto_frontier(&xs, &[&|x: &f64| *x]);
        assert_eq!(front, vec![&1.0, &1.0]); // both minima survive
    }

    #[test]
    fn two_objectives_classic_case() {
        let pts = [(1.0, 5.0), (2.0, 3.0), (3.0, 4.0), (4.0, 1.0)];
        let front = pareto_frontier(&pts, &[&|p: &(f64, f64)| p.0, &|p| p.1]);
        // (3.0, 4.0) is dominated by (2.0, 3.0).
        assert_eq!(front.len(), 3);
        assert!(!front.contains(&&(3.0, 4.0)));
    }

    #[test]
    fn all_non_dominated_survive() {
        let pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)];
        let front = pareto_frontier(&pts, &[&|p: &(f64, f64)| p.0, &|p| p.1]);
        assert_eq!(front.len(), 3);
    }

    #[test]
    fn frontier_is_mutually_non_dominated_and_covers_dominated_points() {
        use xlac_core::rng::{DefaultRng, Rng};
        let mut rng = DefaultRng::seed_from_u64(21);
        let pts: Vec<(f64, f64, f64)> =
            (0..200).map(|_| (rng.gen(), rng.gen(), rng.gen())).collect();
        type Objective3<'a> = &'a dyn Fn(&(f64, f64, f64)) -> f64;
        let objs: Vec<Objective3<'_>> = vec![&|p: &(f64, f64, f64)| p.0, &|p| p.1, &|p| p.2];
        let front = pareto_frontier(&pts, &objs);
        let dom = |a: &(f64, f64, f64), b: &(f64, f64, f64)| {
            a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
        };
        // Frontier members do not dominate each other.
        for a in &front {
            for b in &front {
                if !std::ptr::eq(*a, *b) {
                    assert!(!dom(a, b), "frontier member dominates another");
                }
            }
        }
        // Every excluded point is dominated by some frontier member.
        for p in &pts {
            if !front.iter().any(|f| std::ptr::eq(*f, p)) {
                assert!(front.iter().any(|f| dom(f, p)), "{p:?} excluded but undominated");
            }
        }
    }

    #[test]
    fn maximization_by_negation() {
        // Maximize accuracy = minimize −accuracy.
        let pts = [(3.0, 0.9), (5.0, 0.99), (20.0, 0.999)];
        let front = pareto_frontier(&pts, &[&|p: &(f64, f64)| p.0, &|p| -p.1]);
        assert_eq!(front.len(), 3); // a real trade-off curve: all survive
                                    // A point worse on both axes is pruned.
        let pts = [(3.0, 0.9), (5.0, 0.99), (10.0, 0.9)];
        let front = pareto_frontier(&pts, &[&|p: &(f64, f64)| p.0, &|p| -p.1]);
        assert_eq!(front.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one objective")]
    fn empty_objectives_panic() {
        let xs = [1.0f64];
        let objs: Vec<&dyn Fn(&f64) -> f64> = vec![];
        let _ = pareto_frontier(&xs, &objs);
    }

    #[test]
    fn try_variant_returns_typed_errors_instead_of_panicking() {
        let xs = [1.0f64];
        let objs: Vec<&dyn Fn(&f64) -> f64> = vec![];
        assert!(matches!(
            try_pareto_frontier(&xs, &objs),
            Err(xlac_core::XlacError::EmptyInput("pareto objectives"))
        ));
    }

    #[test]
    fn empty_item_set_has_an_empty_frontier() {
        // The empty-space path (a fully-pruned exploration): no panic, no
        // error — just an empty frontier.
        let xs: [f64; 0] = [];
        let front = try_pareto_frontier(&xs, &[&|x: &f64| *x]).unwrap();
        assert!(front.is_empty());
        assert!(pareto_frontier(&xs, &[&|x: &f64| *x]).is_empty());
    }
}
