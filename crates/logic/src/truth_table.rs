//! Multi-output truth tables.
//!
//! Table III and Fig.5 of the paper specify every approximate cell as a
//! truth table; [`TruthTable`] is that specification format. It stores one
//! output word per input combination (outputs packed LSB-first), supports
//! up to 16 inputs and 64 outputs, and is the input format of the
//! [`crate::qm`] minimizer and the [`crate::synth`] synthesizer.
//!
//! # Example
//!
//! ```
//! use xlac_logic::TruthTable;
//!
//! // A full adder: inputs (a, b, cin) packed LSB-first; outputs (sum, cout).
//! let fa = TruthTable::from_fn(3, 2, |x| {
//!     let ones = (x & 1) + ((x >> 1) & 1) + ((x >> 2) & 1);
//!     (ones & 1) | ((u64::from(ones >= 2)) << 1)
//! });
//! assert_eq!(fa.row(0b111), 0b11); // 1+1+1 = sum 1, carry 1
//! assert_eq!(fa.output_column(1).count_ones(), 4); // carry true on 4 rows
//! ```

use xlac_core::error::{Result, XlacError};
use xlac_core::lanes::{from_planes, CountingBlocks};

/// Maximum number of inputs a truth table may have.
pub const MAX_INPUTS: usize = 16;

/// A complete truth table for an `n_inputs`-input, `n_outputs`-output
/// Boolean function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    n_inputs: usize,
    n_outputs: usize,
    /// `rows[x]` holds the outputs for input combination `x`, packed
    /// LSB-first.
    rows: Vec<u64>,
}

impl TruthTable {
    /// Builds a table by evaluating `f` on every input combination
    /// `0 .. 2^n_inputs`. `f` returns the outputs packed LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs > 16`, `n_outputs` is 0 or > 64, or `f` returns a
    /// value with bits above `n_outputs`.
    #[must_use]
    pub fn from_fn<F: FnMut(u64) -> u64>(n_inputs: usize, n_outputs: usize, mut f: F) -> Self {
        assert!(n_inputs <= MAX_INPUTS, "{n_inputs} inputs exceed {MAX_INPUTS}");
        assert!((1..=64).contains(&n_outputs), "{n_outputs} outputs out of 1..=64");
        let size = 1usize << n_inputs;
        let omask = xlac_core::bits::mask(n_outputs);
        let rows = (0..size as u64)
            .map(|x| {
                let y = f(x);
                assert!(y & !omask == 0, "output {y:#x} exceeds {n_outputs} output bits");
                y
            })
            .collect();
        TruthTable { n_inputs, n_outputs, rows }
    }

    /// Builds a table from explicit rows (`rows[x]` = packed outputs for
    /// input `x`).
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::InvalidConfiguration`] when `rows.len()` is not
    /// `2^n_inputs` or any row exceeds the output width.
    pub fn from_rows(n_inputs: usize, n_outputs: usize, rows: Vec<u64>) -> Result<Self> {
        if n_inputs > MAX_INPUTS || n_outputs == 0 || n_outputs > 64 {
            return Err(XlacError::InvalidConfiguration(format!(
                "truth table shape {n_inputs} in / {n_outputs} out unsupported"
            )));
        }
        if rows.len() != 1 << n_inputs {
            return Err(XlacError::InvalidConfiguration(format!(
                "expected {} rows, got {}",
                1 << n_inputs,
                rows.len()
            )));
        }
        let omask = xlac_core::bits::mask(n_outputs);
        if let Some(bad) = rows.iter().find(|&&r| r & !omask != 0) {
            return Err(XlacError::OperandOutOfRange { value: *bad, width: n_outputs });
        }
        Ok(TruthTable { n_inputs, n_outputs, rows })
    }

    /// Recovers the table of a 64-lane bit-sliced evaluator: `eval`
    /// receives the input planes of each [`CountingBlocks`] block (lane
    /// `l` of block `b` is row `64·b + l`) and returns `n_outputs` output
    /// planes, LSB-first.
    ///
    /// # Panics
    ///
    /// Panics on the shapes [`TruthTable::from_fn`] rejects and when
    /// `eval` returns a different number of planes.
    #[must_use]
    pub fn from_planes(
        n_inputs: usize,
        n_outputs: usize,
        mut eval: impl FnMut(&[u64]) -> Vec<u64>,
    ) -> Self {
        assert!(n_inputs <= MAX_INPUTS, "{n_inputs} inputs exceed {MAX_INPUTS}");
        assert!((1..=64).contains(&n_outputs), "{n_outputs} outputs out of 1..=64");
        let counting = CountingBlocks::new(n_inputs);
        let mut planes = vec![0u64; n_inputs];
        let mut rows = Vec::with_capacity(1 << n_inputs);
        for block in 0..counting.blocks() {
            counting.fill(block, &mut planes);
            let outs = eval(&planes);
            assert_eq!(outs.len(), n_outputs, "expected {n_outputs} output planes");
            rows.extend_from_slice(&from_planes(&outs));
        }
        rows.truncate(1 << n_inputs);
        TruthTable { n_inputs, n_outputs, rows }
    }

    /// Number of inputs.
    #[must_use]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of outputs.
    #[must_use]
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of rows (`2^n_inputs`).
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Outputs for input combination `x`, packed LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `x >= 2^n_inputs`.
    #[must_use]
    pub fn row(&self, x: u64) -> u64 {
        self.rows[usize::try_from(x).expect("row index")]
    }

    /// Single output bit `out` for input `x`.
    #[must_use]
    pub fn output_bit(&self, x: u64, out: usize) -> u64 {
        (self.row(x) >> out) & 1
    }

    /// The minterm set of output `out`: a bitset over input combinations
    /// (bit `x` set ⇔ output is 1 on input `x`). Only valid for
    /// `n_inputs <= 6`; for larger tables iterate [`TruthTable::minterms`].
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs > 6`.
    #[must_use]
    pub fn output_column(&self, out: usize) -> u64 {
        assert!(self.n_inputs <= 6, "output_column supports up to 6 inputs");
        let mut col = 0u64;
        for (x, r) in self.rows.iter().enumerate() {
            col |= ((r >> out) & 1) << x;
        }
        col
    }

    /// Iterates the minterms (input combinations where output `out` is 1).
    pub fn minterms(&self, out: usize) -> impl Iterator<Item = u64> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(move |(_, r)| (*r >> out) & 1 == 1)
            .map(|(x, _)| x as u64)
    }

    /// Number of rows on which this table differs from `other`
    /// (the paper's "#error cases" metric when comparing an approximate
    /// cell against the accurate one).
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::ShapeMismatch`] when the shapes differ.
    pub fn error_cases(&self, other: &TruthTable) -> Result<usize> {
        if self.n_inputs != other.n_inputs || self.n_outputs != other.n_outputs {
            return Err(XlacError::ShapeMismatch {
                expected: (self.n_inputs, self.n_outputs),
                actual: (other.n_inputs, other.n_outputs),
            });
        }
        Ok(self.rows.iter().zip(&other.rows).filter(|(a, b)| a != b).count())
    }

    /// Interpreting the packed outputs as unsigned integers, the maximum
    /// `|self − other|` over all rows (the paper's "max error value").
    ///
    /// # Errors
    ///
    /// Returns [`XlacError::ShapeMismatch`] when the shapes differ.
    pub fn max_error_value(&self, other: &TruthTable) -> Result<u64> {
        if self.n_inputs != other.n_inputs || self.n_outputs != other.n_outputs {
            return Err(XlacError::ShapeMismatch {
                expected: (self.n_inputs, self.n_outputs),
                actual: (other.n_inputs, other.n_outputs),
            });
        }
        Ok(self.rows.iter().zip(&other.rows).map(|(a, b)| a.abs_diff(*b)).max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_planes_recovers_the_table_of_a_sliced_evaluator() {
        for n in [1usize, 3, 6, 9] {
            let f =
                |x: u64| ((x & 1) ^ ((x >> (n - 1)) & 1)) | (u64::from(x.count_ones() > 1) << 1);
            let sliced = |p: &[u64]| {
                let ones =
                    p.iter().fold((0u64, 0u64), |(one, more), &w| (one | w, more | (one & w)));
                vec![p[0] ^ p[n - 1], ones.1]
            };
            assert_eq!(
                TruthTable::from_planes(n, 2, sliced),
                TruthTable::from_fn(n, 2, f),
                "n={n}"
            );
        }
    }

    fn full_adder() -> TruthTable {
        TruthTable::from_fn(3, 2, |x| {
            let ones = (x & 1) + ((x >> 1) & 1) + ((x >> 2) & 1);
            (ones & 1) | (u64::from(ones >= 2) << 1)
        })
    }

    #[test]
    fn full_adder_rows() {
        let fa = full_adder();
        assert_eq!(fa.n_rows(), 8);
        // (a, b, cin) = (1, 1, 0) → sum 0, cout 1.
        assert_eq!(fa.row(0b011), 0b10);
        assert_eq!(fa.row(0b000), 0b00);
        assert_eq!(fa.row(0b111), 0b11);
    }

    #[test]
    fn output_column_is_minterm_bitset() {
        let fa = full_adder();
        let sum_col = fa.output_column(0);
        // Sum is odd parity: minterms 1, 2, 4, 7.
        assert_eq!(sum_col, (1 << 1) | (1 << 2) | (1 << 4) | (1 << 7));
        let carry_col = fa.output_column(1);
        assert_eq!(carry_col, (1 << 3) | (1 << 5) | (1 << 6) | (1 << 7));
    }

    #[test]
    fn minterms_iterator_agrees_with_column() {
        let fa = full_adder();
        let ms: Vec<u64> = fa.minterms(1).collect();
        assert_eq!(ms, vec![3, 5, 6, 7]);
    }

    #[test]
    fn from_rows_validates() {
        assert!(TruthTable::from_rows(2, 1, vec![0, 1, 1, 0]).is_ok());
        assert!(TruthTable::from_rows(2, 1, vec![0, 1, 1]).is_err()); // row count
        assert!(TruthTable::from_rows(2, 1, vec![0, 1, 2, 0]).is_err()); // range
        assert!(TruthTable::from_rows(17, 1, vec![]).is_err()); // width
    }

    #[test]
    fn error_cases_and_max_error() {
        let exact = TruthTable::from_fn(2, 2, |x| x);
        let approx = TruthTable::from_fn(2, 2, |x| if x == 3 { 1 } else { x });
        assert_eq!(exact.error_cases(&approx).unwrap(), 1);
        assert_eq!(exact.max_error_value(&approx).unwrap(), 2);
        let other_shape = TruthTable::from_fn(3, 2, |_| 0);
        assert!(exact.error_cases(&other_shape).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds 2 output bits")]
    fn from_fn_checks_output_range() {
        let _ = TruthTable::from_fn(2, 2, |_| 4);
    }

    #[test]
    fn identical_tables_have_zero_errors() {
        let fa = full_adder();
        assert_eq!(fa.error_cases(&fa).unwrap(), 0);
        assert_eq!(fa.max_error_value(&fa).unwrap(), 0);
    }
}
