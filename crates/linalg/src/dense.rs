//! Row-major dense matrix with the operations the solvers need.
//!
//! Multiplication uses an `i-k-j` loop order (unit-stride inner loop, no
//! per-element bounds checks thanks to slice iteration) and splits output row
//! blocks across OS threads for large operands.

use crate::error::LinalgError;
use crate::Result;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Minimum number of multiply-adds before `matmul` spawns threads. Below
/// this, threading overhead dominates.
const PAR_FLOP_THRESHOLD: usize = 1 << 22;

/// Row-major dense `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "buffer of length {} cannot fill a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from nested row slices (mostly for tests and examples).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        if rows.iter().any(|row| row.len() != c) {
            return Err(LinalgError::InvalidArgument("ragged row lengths".into()));
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The flat row-major data, without a copy.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Checked element access.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Checked element write.
    pub fn set(&mut self, i: usize, j: usize, v: f64) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        self.data[i * self.cols + j] = v;
        Ok(())
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally-shaped matrices.
    pub fn zip_with(&self, other: &Self, f: impl Fn(f64, f64) -> f64) -> Result<Self> {
        self.check_same_shape(other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    fn check_same_shape(&self, other: &Self) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                found: other.shape(),
                expected: self.shape(),
            });
        }
        Ok(())
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a - b)
    }

    /// `self += alpha * other` without allocating.
    pub fn axpy(&mut self, alpha: f64, other: &Self) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scale every element in place.
    pub fn scale_inplace(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, alpha: f64) -> Self {
        self.map(|x| alpha * x)
    }

    /// Hadamard (element-wise) product.
    pub fn hadamard(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise square (`W ∘ W`, the `S` of the paper).
    pub fn hadamard_square(&self) -> Self {
        self.map(|x| x * x)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Trace (requires square).
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self.data[i * self.cols + i]).sum())
    }

    /// Zero the diagonal in place (structure learning forbids self-loops).
    pub fn zero_diagonal(&mut self) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] = 0.0;
        }
    }

    /// Vector of row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        self.rows_iter().map(|row| row.iter().sum()).collect()
    }

    /// Vector of column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of absolute values (entrywise L1; the paper's `‖W‖₁` penalty).
    pub fn l1_norm(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// Maximum column-sum norm (operator 1-norm); used by the matrix
    /// exponential scaling heuristic.
    pub fn one_norm(&self) -> f64 {
        let mut sums = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v.abs();
            }
        }
        sums.into_iter().fold(0.0, f64::max)
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Number of elements with magnitude strictly above `tol`.
    pub fn count_nonzero(&self, tol: f64) -> usize {
        self.data.iter().filter(|x| x.abs() > tol).count()
    }

    /// Zero out entries with magnitude below `theta` (the paper's
    /// thresholding step, Fig. 3 line 9). Returns how many were cleared.
    pub fn threshold_inplace(&mut self, theta: f64) -> usize {
        let mut cleared = 0;
        for x in &mut self.data {
            if *x != 0.0 && x.abs() < theta {
                *x = 0.0;
                cleared += 1;
            }
        }
        cleared
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                found: (v.len(), 1),
                expected: (self.cols, 1),
            });
        }
        Ok(self
            .rows_iter()
            .map(|row| row.iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect())
    }

    /// Vector-matrix product `vᵀ * self`.
    pub fn vecmat(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                found: (1, v.len()),
                expected: (1, self.rows),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (row, &vi) in self.rows_iter().zip(v) {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(row) {
                *o += vi * a;
            }
        }
        Ok(out)
    }

    /// Matrix product `self * other`, parallelised across output row blocks
    /// for large operands.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                found: other.shape(),
                expected: (self.cols, other.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Self::zeros(m, n);
        let flops = m.saturating_mul(k).saturating_mul(n);
        let threads = available_threads();
        if flops < PAR_FLOP_THRESHOLD || threads <= 1 || m < 2 {
            matmul_rows(&self.data, &other.data, &mut out.data, k, n, 0);
            return Ok(out);
        }
        let rows_per = m.div_ceil(threads);
        let (a, b) = (&self.data, &other.data);
        crate::par::for_each_chunk_mut(&mut out.data, rows_per * n, |block_idx, out_block| {
            matmul_rows(a, b, out_block, k, n, block_idx * rows_per);
        });
        Ok(out)
    }

    /// `selfᵀ * other` without materialising the transpose. Used for Gram
    /// matrices `XᵀX` in the least-squares loss.
    pub fn t_matmul(&self, other: &Self) -> Result<Self> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                found: other.shape(),
                expected: (self.rows, other.cols),
            });
        }
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Self::zeros(m, n);
        let flops = k.saturating_mul(m).saturating_mul(n);
        // out[i][j] = sum_r a[r][i] * b[r][j]; accumulate rank-1 updates.
        let accumulate = |out_block: &mut [f64], lo: usize, hi: usize| {
            for r in 0..k {
                let arow = self.row(r);
                let brow = other.row(r);
                for (i, &ai) in arow[lo..hi].iter().enumerate() {
                    if ai == 0.0 {
                        continue;
                    }
                    let orow = &mut out_block[i * n..(i + 1) * n];
                    for (o, &bj) in orow.iter_mut().zip(brow) {
                        *o += ai * bj;
                    }
                }
            }
        };
        let threads = available_threads();
        if flops < PAR_FLOP_THRESHOLD || threads <= 1 || m < 2 {
            accumulate(&mut out.data, 0, m);
            return Ok(out);
        }
        // Output rows are disjoint across blocks; each worker replays the
        // rank-1 sweep for its own column slice of `self`.
        let rows_per = m.div_ceil(threads);
        crate::par::for_each_chunk_mut(&mut out.data, rows_per * n, |block, out_block| {
            let lo = block * rows_per;
            let hi = (lo + out_block.len() / n).min(m);
            accumulate(out_block, lo, hi);
        });
        Ok(out)
    }

    /// Maximum absolute difference between two equally-shaped matrices.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f64> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0, |m, (&a, &b)| m.max((a - b).abs())))
    }

    /// Approximate equality within `tol` (absolute, element-wise).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }
}

/// Compute `out = A[row_offset..][..] * B` for a block of output rows.
/// `out` has `n` columns; `A` has `k` columns.
fn matmul_rows(a: &[f64], b: &[f64], out: &mut [f64], k: usize, n: usize, row_offset: usize) {
    for (local_i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let i = row_offset + local_i;
        let a_row = &a[i * k..(i + 1) * k];
        for (l, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue; // sparse-ish W is common in this workload
            }
            let b_row = &b[l * n..(l + 1) * n];
            for (o, &blj) in out_row.iter_mut().zip(b_row) {
                *o += aik * blj;
            }
        }
    }
}

/// Worker-thread count for parallel kernels (see [`crate::par`]; compile-
/// time 1 without the `parallel` feature).
pub(crate) fn available_threads() -> usize {
    crate::par::max_threads()
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            writeln!(f, "{}]", if self.cols > 8 { ", ..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 6.0);
        assert!(!m.is_square());
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let a: &[f64] = &[1.0];
        let b: &[f64] = &[1.0, 2.0];
        assert!(DenseMatrix::from_rows(&[a, b]).is_err());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = DenseMatrix::identity(2);
        assert!(m.matmul(&i).unwrap().approx_eq(&m, 1e-15));
        assert!(i.matmul(&m).unwrap().approx_eq(&m, 1e-15));
    }

    #[test]
    fn matmul_known_product() {
        let a = sample(); // 2x3
        let b = DenseMatrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = DenseMatrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Big enough to trigger the threaded path.
        let n = 192;
        let mut rng = crate::rng::Xoshiro256pp::new(77);
        let a = DenseMatrix::from_fn(n, n, |_, _| rng.gaussian());
        let b = DenseMatrix::from_fn(n, n, |_, _| rng.gaussian());
        let big = a.matmul(&b).unwrap();
        // Serial reference on the same data.
        let mut reference = DenseMatrix::zeros(n, n);
        matmul_rows(
            a.as_slice(),
            b.as_slice(),
            reference.as_mut_slice(),
            n,
            n,
            0,
        );
        assert!(big.approx_eq(&reference, 1e-9));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = crate::rng::Xoshiro256pp::new(78);
        let a = DenseMatrix::from_fn(20, 7, |_, _| rng.gaussian());
        let b = DenseMatrix::from_fn(20, 5, |_, _| rng.gaussian());
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn parallel_t_matmul_matches_explicit_transpose() {
        // Big enough to trigger the threaded rank-1 path.
        let n = 200;
        let mut rng = crate::rng::Xoshiro256pp::new(79);
        let a = DenseMatrix::from_fn(n, n, |_, _| rng.gaussian());
        let b = DenseMatrix::from_fn(n, n, |_, _| rng.gaussian());
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-9));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn trace_requires_square() {
        assert!(sample().trace().is_err());
        let sq = DenseMatrix::from_rows(&[&[1.0, 9.0], &[9.0, 2.0]]).unwrap();
        assert_eq!(sq.trace().unwrap(), 3.0);
    }

    #[test]
    fn row_and_col_sums() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![6.0, 15.0]);
        assert_eq!(m.col_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn norms() {
        let m = DenseMatrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.l1_norm(), 7.0);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.one_norm(), 4.0);
    }

    #[test]
    fn hadamard_and_square() {
        let m = DenseMatrix::from_rows(&[&[2.0, -3.0]]).unwrap();
        let sq = m.hadamard_square();
        assert_eq!(sq.as_slice(), &[4.0, 9.0]);
        let h = m.hadamard(&m).unwrap();
        assert_eq!(h.as_slice(), sq.as_slice());
    }

    #[test]
    fn threshold_clears_small_entries() {
        let mut m = DenseMatrix::from_rows(&[&[0.05, -0.5], &[0.2, -0.01]]).unwrap();
        let cleared = m.threshold_inplace(0.1);
        assert_eq!(cleared, 2);
        assert_eq!(m.as_slice(), &[0.0, -0.5, 0.2, 0.0]);
    }

    #[test]
    fn zero_diagonal_clears_self_loops() {
        let mut m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        m.zero_diagonal();
        assert_eq!(m.as_slice(), &[0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn matvec_and_vecmat() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(m.vecmat(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.vecmat(&[1.0]).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::identity(2);
        a.axpy(2.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.5, 0.0, 0.0, 2.5]);
    }

    #[test]
    fn checked_access() {
        let m = sample();
        assert!(m.get(5, 0).is_err());
        assert_eq!(m.get(0, 1).unwrap(), 2.0);
        let mut m = m;
        assert!(m.set(0, 9, 1.0).is_err());
        m.set(0, 0, 42.0).unwrap();
        assert_eq!(m[(0, 0)], 42.0);
    }

    #[test]
    fn count_nonzero_respects_tolerance() {
        let m = DenseMatrix::from_rows(&[&[1e-9, 0.5, 0.0]]).unwrap();
        assert_eq!(m.count_nonzero(1e-8), 1);
        assert_eq!(m.count_nonzero(0.0), 2);
    }
}
