//! Constraint-based configuration selection (the Fig.4 queries).
//!
//! The paper's text walks two selections over the 11-bit GeAr space:
//! "for the constraint of maximum accuracy percentage, GeAr (R = 1, P = 9)
//! can be selected", and "to find a low-area adder configuration with at
//! least 90 % accuracy, GeAr … R = 3 and P = 5". These functions implement
//! exactly those queries over an enumerated design space.
//!
//! # Example
//!
//! ```
//! use xlac_explore::{enumerate_gear_space, max_accuracy, min_area_with_accuracy};
//!
//! # fn main() -> Result<(), xlac_core::XlacError> {
//! let space = enumerate_gear_space(11)?;
//! assert_eq!(max_accuracy(&space)?.label(), "R1P9");
//! let pick = min_area_with_accuracy(&space, 90.0)?;
//! assert!(pick.accuracy_percent >= 90.0);
//! # Ok(())
//! # }
//! ```

use crate::gear_space::GearDesignPoint;
use xlac_core::error::{Result, XlacError};

/// The configuration with the highest model accuracy (ties broken toward
/// smaller LUT area, then smaller R).
///
/// # Errors
///
/// Returns [`XlacError::EmptyInput`] for an empty space.
pub fn max_accuracy(space: &[GearDesignPoint]) -> Result<&GearDesignPoint> {
    space
        .iter()
        .max_by(|a, b| {
            a.accuracy_percent
                .total_cmp(&b.accuracy_percent)
                .then(b.lut_area.cmp(&a.lut_area).reverse())
                .then(b.r.cmp(&a.r))
        })
        .ok_or(XlacError::EmptyInput("design space"))
}

/// The minimum-LUT-area configuration whose accuracy meets `floor_percent`
/// (ties broken toward higher accuracy).
///
/// # Errors
///
/// Returns [`XlacError::EmptyInput`] for an empty space or
/// [`XlacError::InvalidConfiguration`] when no point meets the floor.
pub fn min_area_with_accuracy(
    space: &[GearDesignPoint],
    floor_percent: f64,
) -> Result<&GearDesignPoint> {
    if space.is_empty() {
        return Err(XlacError::EmptyInput("design space"));
    }
    space
        .iter()
        .filter(|pt| pt.accuracy_percent >= floor_percent)
        .min_by(|a, b| {
            a.lut_area.cmp(&b.lut_area).then(b.accuracy_percent.total_cmp(&a.accuracy_percent))
        })
        .ok_or_else(|| {
            XlacError::InvalidConfiguration(format!(
                "no configuration reaches {floor_percent}% accuracy"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gear_space::enumerate_gear_space;

    #[test]
    fn paper_max_accuracy_pick() {
        let space = enumerate_gear_space(11).unwrap();
        let best = max_accuracy(&space).unwrap();
        assert_eq!((best.r, best.p), (1, 9));
    }

    #[test]
    fn paper_min_area_pick_is_feasible_and_frugal() {
        let space = enumerate_gear_space(11).unwrap();
        let pick = min_area_with_accuracy(&space, 90.0).unwrap();
        assert!(pick.accuracy_percent >= 90.0);
        // No cheaper feasible point exists.
        for pt in &space {
            if pt.accuracy_percent >= 90.0 {
                assert!(pt.lut_area >= pick.lut_area);
            }
        }
    }

    #[test]
    fn impossible_floor_is_an_error() {
        let space = enumerate_gear_space(11).unwrap();
        // Approximate multi-sub-adder designs never reach exactly 100 %.
        assert!(min_area_with_accuracy(&space, 100.0).is_err());
    }

    #[test]
    fn empty_space_is_an_error() {
        assert!(max_accuracy(&[]).is_err());
        assert!(min_area_with_accuracy(&[], 50.0).is_err());
    }

    #[test]
    fn floor_zero_returns_global_area_minimum() {
        let space = enumerate_gear_space(11).unwrap();
        let pick = min_area_with_accuracy(&space, 0.0).unwrap();
        let min_area = space.iter().map(|pt| pt.lut_area).min().unwrap();
        assert_eq!(pick.lut_area, min_area);
    }
}
