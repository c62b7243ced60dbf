//! A dense, row-major 2-D array.
//!
//! [`Grid`] backs images ([`xlac-imaging`]), video frames ([`xlac-video`])
//! and SAD search surfaces ([`xlac-accel`]). It is deliberately minimal:
//! shape-checked construction, element access, iteration, and a couple of
//! bulk transforms — nothing that would be better expressed by the caller.
//!
//! [`xlac-imaging`]: https://example.invalid/xlac
//! [`xlac-video`]: https://example.invalid/xlac
//! [`xlac-accel`]: https://example.invalid/xlac
//!
//! # Example
//!
//! ```
//! use xlac_core::Grid;
//!
//! let mut g = Grid::new(2, 3, 0u32);
//! g[(1, 2)] = 7;
//! assert_eq!(g[(1, 2)], 7);
//! assert_eq!(g.rows(), 2);
//! let doubled = g.map(|&v| v * 2);
//! assert_eq!(doubled[(1, 2)], 14);
//! ```

use crate::error::{Result, XlacError};
use std::ops::{Index, IndexMut};

/// A dense row-major 2-D array of `T`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Grid<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// Creates a `rows × cols` grid filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    #[must_use]
    pub fn new(rows: usize, cols: usize, fill: T) -> Self {
        let len = rows.checked_mul(cols).expect("grid size overflow");
        Grid { rows, cols, data: vec![fill; len] }
    }
}

impl<T> Grid<T> {
    /// Builds a grid from a row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(XlacError::ShapeMismatch {
                expected: (rows, cols),
                actual: (data.len() / cols.max(1), cols),
            });
        }
        Ok(Grid { rows, cols, data })
    }

    /// Builds a grid by evaluating `f(row, col)` at every cell.
    pub fn from_fn<F: FnMut(usize, usize) -> T>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Grid { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the grid holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Checked element access.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.rows && col < self.cols {
            Some(&self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Checked mutable element access.
    pub fn get_mut(&mut self, row: usize, col: usize) -> Option<&mut T> {
        if row < self.rows && col < self.cols {
            Some(&mut self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing row-major slice.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The backing row-major slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid, returning the backing vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterates `(row, col, &value)` in row-major order.
    pub fn enumerate(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let cols = self.cols;
        self.data.iter().enumerate().map(move |(i, v)| (i / cols, i % cols, v))
    }

    /// Applies `f` to every element, producing a new grid of the same shape.
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> Grid<U> {
        Grid { rows: self.rows, cols: self.cols, data: self.data.iter().map(f).collect() }
    }

    /// Extracts the `h × w` sub-grid whose top-left corner is `(top, left)`.
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::IndexOutOfBounds`] when the window exceeds the
    /// grid bounds.
    pub fn window(&self, top: usize, left: usize, h: usize, w: usize) -> Result<Grid<T>>
    where
        T: Clone,
    {
        if top + h > self.rows || left + w > self.cols {
            return Err(XlacError::IndexOutOfBounds {
                index: (top + h, left + w),
                shape: (self.rows, self.cols),
            });
        }
        Ok(Grid::from_fn(h, w, |r, c| self[(top + r, left + c)].clone()))
    }
}

impl<T> Index<(usize, usize)> for Grid<T> {
    type Output = T;

    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} grid",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} grid",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl<'a, T> IntoIterator for &'a Grid<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl<T> IntoIterator for Grid<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index() {
        let mut g = Grid::new(3, 4, 0i32);
        assert_eq!(g.shape(), (3, 4));
        assert_eq!(g.len(), 12);
        g[(2, 3)] = 42;
        assert_eq!(g[(2, 3)], 42);
        assert_eq!(g[(0, 0)], 0);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Grid::from_vec(2, 2, vec![1, 2, 3, 4]).is_ok());
        assert!(Grid::from_vec(2, 2, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn from_fn_row_major() {
        let g = Grid::from_fn(2, 3, |r, c| r * 10 + c);
        assert_eq!(g.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(g.row(1), &[10, 11, 12]);
    }

    #[test]
    fn get_is_checked() {
        let g = Grid::new(2, 2, 1u8);
        assert_eq!(g.get(1, 1), Some(&1));
        assert_eq!(g.get(2, 0), None);
        assert_eq!(g.get(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let g = Grid::new(2, 2, 0u8);
        let _ = g[(0, 2)];
    }

    #[test]
    fn enumerate_yields_coordinates() {
        let g = Grid::from_fn(2, 2, |r, c| (r, c));
        for (r, c, v) in g.enumerate() {
            assert_eq!(*v, (r, c));
        }
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid::from_fn(2, 3, |r, c| (r + c) as i64);
        let m = g.map(|v| v * v);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 9);
    }

    #[test]
    fn window_extraction() {
        let g = Grid::from_fn(4, 4, |r, c| r * 4 + c);
        let w = g.window(1, 2, 2, 2).unwrap();
        assert_eq!(w.as_slice(), &[6, 7, 10, 11]);
        assert!(g.window(3, 3, 2, 2).is_err());
    }

    #[test]
    fn empty_grid() {
        let g: Grid<u8> = Grid::new(0, 5, 0);
        assert!(g.is_empty());
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    fn into_iter_both_forms() {
        let g = Grid::from_fn(2, 2, |r, c| r * 2 + c);
        let by_ref: Vec<_> = (&g).into_iter().copied().collect();
        assert_eq!(by_ref, vec![0, 1, 2, 3]);
        let owned: Vec<_> = g.into_iter().collect();
        assert_eq!(owned, vec![0, 1, 2, 3]);
    }
}
