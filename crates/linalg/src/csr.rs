//! Compressed sparse row (CSR) matrix.
//!
//! This is the workhorse of `LEAST-SP` (the paper's sparse implementation):
//! every kernel the spectral-bound FORWARD/BACKWARD procedures require —
//! row sums, column sums, diagonal similarity scaling, masked element-wise
//! products — is `O(nnz)` here, which is what makes the whole constraint
//! near-linear in the node count for sparse graphs.
//!
//! The pattern (row pointers + column indices) is immutable after
//! construction; values are freely mutable, and [`CsrMatrix::retain`]
//! supports the paper's thresholding step by compacting the pattern while
//! reporting which value slots survived (so optimizer state can be compacted
//! in lock-step).

use crate::coo::Coo;
use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::par;
use crate::Result;

/// Minimum stored entries before the row-parallel kernels split the work
/// across threads; below this the spawn overhead dominates.
const PAR_NNZ_THRESHOLD: usize = 1 << 15;

/// Sparse `f64` matrix in CSR format with `u32` indices.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assemble from raw CSR arrays. `row_ptr` must have `rows + 1`
    /// monotonically non-decreasing entries; column indices within a row
    /// must be strictly increasing. Intended for use by [`Coo::to_csr`];
    /// invariants are checked with debug assertions.
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0) as usize, col_idx.len());
        #[cfg(debug_assertions)]
        for r in 0..rows {
            let (s, e) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            debug_assert!(s <= e);
            for w in col_idx[s..e].windows(2) {
                debug_assert!(w[0] < w[1], "columns not strictly increasing in row {r}");
            }
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Assemble from raw CSR arrays with **full validation** — the entry
    /// point for deserialized (untrusted) data, unlike the debug-checked
    /// [`Self::from_raw_parts`]. Verifies pointer arity, monotonicity,
    /// agreement with `col_idx`/`values` lengths, and strictly increasing
    /// in-bounds column indices per row.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let fail = |msg: String| Err(LinalgError::InvalidArgument(msg));
        if row_ptr.len() != rows + 1 {
            return fail(format!(
                "row_ptr has {} entries, expected rows + 1 = {}",
                row_ptr.len(),
                rows + 1
            ));
        }
        if row_ptr[0] != 0 {
            return fail(format!("row_ptr[0] = {}, expected 0", row_ptr[0]));
        }
        if col_idx.len() != values.len() {
            return fail(format!(
                "col_idx length {} does not match values length {}",
                col_idx.len(),
                values.len()
            ));
        }
        if *row_ptr.last().expect("non-empty") as usize != col_idx.len() {
            return fail(format!(
                "row_ptr end {} does not match nnz {}",
                row_ptr.last().expect("non-empty"),
                col_idx.len()
            ));
        }
        if let Some(r) = (0..rows).find(|&r| row_ptr[r] > row_ptr[r + 1]) {
            return fail(format!("row_ptr decreases at row {r}"));
        }
        for r in 0..rows {
            let (s, e) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            let row_cols = &col_idx[s..e];
            if row_cols.iter().any(|&c| c as usize >= cols) {
                return fail(format!("column index out of bounds in row {r}"));
            }
            if row_cols.windows(2).any(|w| w[0] >= w[1]) {
                return fail(format!("columns not strictly increasing in row {r}"));
            }
        }
        Ok(Self::from_raw_parts(rows, cols, row_ptr, col_idx, values))
    }

    /// Empty matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_raw_parts(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// Identity matrix of order `n` in sparse form.
    pub fn identity(n: usize) -> Self {
        let row_ptr = (0..=n as u32).collect();
        let col_idx = (0..n as u32).collect();
        Self::from_raw_parts(n, n, row_ptr, col_idx, vec![1.0; n])
    }

    /// Convert a dense matrix, keeping entries with `|v| > tol`.
    pub fn from_dense(m: &DenseMatrix, tol: f64) -> Self {
        let mut coo = Coo::with_capacity(m.rows(), m.cols(), m.count_nonzero(tol));
        for (i, row) in m.rows_iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v.abs() > tol {
                    coo.push(i, j, v).expect("in-bounds by construction");
                }
            }
        }
        coo.to_csr()
    }

    /// Densify. Intended for tests and small matrices only.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (i, j, v) in self.iter() {
            out[(i, j)] = v;
        }
        out
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

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored values slice (pattern order: row-major, columns increasing).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable values slice. The pattern cannot change through this.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices of the stored entries, aligned with [`Self::values`].
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Row pointer array (`rows + 1` entries).
    #[inline]
    pub fn row_pointers(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The row index of every stored entry, materialized. `O(nnz)`.
    pub fn expand_row_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let len = (self.row_ptr[r + 1] - self.row_ptr[r]) as usize;
            out.extend(std::iter::repeat_n(r as u32, len));
        }
        out
    }

    /// `(col_indices, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Value at `(i, j)`, zero when the coordinate is not stored.
    /// Binary search within the row: `O(log nnz_row)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterate over stored `(row, col, value)` triplets in pattern order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// True when the matrix is large enough for the row-parallel kernels.
    #[inline]
    fn parallel_worthwhile(&self) -> bool {
        self.nnz() >= PAR_NNZ_THRESHOLD && par::max_threads() > 1
    }

    /// Per-thread row count for row-block parallel kernels.
    #[inline]
    fn rows_per_block(&self) -> usize {
        self.rows.div_ceil(par::max_threads()).max(1)
    }

    /// Row sums, `O(nnz)`; row-parallel for large matrices.
    pub fn row_sums(&self) -> Vec<f64> {
        let row_sum = |r: usize| -> f64 {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            self.values[s..e].iter().sum()
        };
        if !self.parallel_worthwhile() {
            return (0..self.rows).map(row_sum).collect();
        }
        let mut out = vec![0.0; self.rows];
        let rows_per = self.rows_per_block();
        par::for_each_chunk_mut(&mut out, rows_per, |block, chunk| {
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = row_sum(block * rows_per + i);
            }
        });
        out
    }

    /// Column sums, `O(nnz)`: one serial scatter in row order, so every
    /// sum adds its terms in the same order at any pool width.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for (&c, &v) in self.col_idx.iter().zip(&self.values) {
            sums[c as usize] += v;
        }
        sums
    }

    /// Sum of absolute values.
    pub fn l1_norm(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute stored value.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// New matrix with the same pattern and transformed values.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> Self {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out
    }

    /// Element-wise square with the same pattern (`S = W ∘ W`).
    pub fn hadamard_square(&self) -> Self {
        self.map_values(|v| v * v)
    }

    /// Diagonal similarity transform `D⁻¹ S D` restricted to the pattern:
    /// `S[i, j] ← S[i, j] · scale[j] / scale[i]` with the paper's convention
    /// that a zero diagonal entry zeroes the row (`D⁻¹[i,i] = 0`).
    /// This is Eq. (5) of the paper. `O(nnz)`.
    pub fn diag_similarity_inplace(&mut self, scale: &[f64]) -> Result<()> {
        if scale.len() != self.rows || self.rows != self.cols {
            return Err(LinalgError::InvalidArgument(format!(
                "scale length {} does not match square dimension {}",
                scale.len(),
                self.rows
            )));
        }
        let ranges = if self.parallel_worthwhile() {
            par::split_ranges(self.rows, self.rows_per_block())
        } else if self.rows == 0 {
            Vec::new()
        } else {
            std::iter::once(0..self.rows).collect()
        };
        // Each row block owns the contiguous value span
        // `row_ptr[block.start]..row_ptr[block.end]`, so the value array can
        // be split at block boundaries and scaled in parallel.
        let bounds: Vec<usize> = ranges
            .iter()
            .skip(1)
            .map(|r| self.row_ptr[r.start] as usize)
            .collect();
        let (row_ptr, col_idx) = (&self.row_ptr, &self.col_idx);
        par::for_each_split_mut(&mut self.values, &bounds, |piece, vals| {
            let Some(rows) = ranges.get(piece) else {
                return;
            };
            let base = row_ptr[rows.start] as usize;
            for r in rows.clone() {
                let (s, e) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
                let inv_r = if scale[r] > 0.0 { 1.0 / scale[r] } else { 0.0 };
                for (v, &c) in vals[s - base..e - base].iter_mut().zip(&col_idx[s..e]) {
                    *v *= inv_r * scale[c as usize];
                }
            }
        });
        Ok(())
    }

    /// Sparse matrix × dense vector: `out = self · v`. Output rows are
    /// independent, so large matrices compute row blocks in parallel.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                found: (v.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let dot_row = |r: usize| -> f64 {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(|(&c, &x)| x * v[c as usize])
                .sum()
        };
        if !self.parallel_worthwhile() {
            return Ok((0..self.rows).map(dot_row).collect());
        }
        let mut out = vec![0.0; self.rows];
        let rows_per = self.rows_per_block();
        par::for_each_chunk_mut(&mut out, rows_per, |block, chunk| {
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = dot_row(block * rows_per + i);
            }
        });
        Ok(out)
    }

    /// Transposed sparse matrix × dense vector: `out = selfᵀ · v`.
    pub fn t_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                found: (v.len(), 1),
                expected: (self.rows, 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            if vr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &x) in cols.iter().zip(vals) {
                out[c as usize] += x * vr;
            }
        }
        Ok(out)
    }

    /// Transposed copy (CSR of `selfᵀ`), via counting sort. `O(nnz + cols)`.
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0u32; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for (r, c, v) in self.iter() {
            let slot = next[c] as usize;
            col_idx[slot] = r as u32;
            values[slot] = v;
            next[c] += 1;
        }
        Self::from_raw_parts(self.cols, self.rows, row_ptr, col_idx, values)
    }

    /// Keep only entries where `pred(row, col, value)` holds, compacting the
    /// pattern in place. Returns the *previous* value-slot index of every
    /// kept entry, in order — callers use this to compact parallel arrays
    /// (Adam moments) consistently. `O(nnz)`.
    pub fn retain(&mut self, mut pred: impl FnMut(usize, usize, f64) -> bool) -> Vec<u32> {
        let mut kept = Vec::with_capacity(self.nnz());
        let mut write = 0usize;
        let mut new_row_ptr = vec![0u32; self.rows + 1];
        for r in 0..self.rows {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for read in s..e {
                let c = self.col_idx[read] as usize;
                let v = self.values[read];
                if pred(r, c, v) {
                    self.col_idx[write] = c as u32;
                    self.values[write] = v;
                    kept.push(read as u32);
                    write += 1;
                }
            }
            new_row_ptr[r + 1] = write as u32;
        }
        self.col_idx.truncate(write);
        self.values.truncate(write);
        self.row_ptr = new_row_ptr;
        kept
    }

    /// Drop entries with `|v| < theta` (paper's thresholding, Fig. 3 line 9).
    /// Returns previous slots of survivors, as in [`Self::retain`].
    pub fn threshold(&mut self, theta: f64) -> Vec<u32> {
        self.retain(|_, _, v| v.abs() >= theta)
    }

    /// Sparse–sparse product `self · other` (classical Gustavson row merge).
    /// Fill-in makes this worst-case dense; it exists for tests and for the
    /// Hutchinson trace estimator's small cases, not for solver hot paths.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                found: other.shape(),
                expected: (self.cols, other.cols),
            });
        }
        let mut coo = Coo::new(self.rows, other.cols);
        let mut acc: Vec<f64> = vec![0.0; other.cols];
        let mut touched: Vec<u32> = Vec::new();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&k, &a) in cols.iter().zip(vals) {
                let (bcols, bvals) = other.row(k as usize);
                for (&j, &b) in bcols.iter().zip(bvals) {
                    if acc[j as usize] == 0.0 {
                        touched.push(j);
                    }
                    acc[j as usize] += a * b;
                }
            }
            for &j in &touched {
                let v = acc[j as usize];
                if v != 0.0 {
                    coo.push(r, j as usize, v).expect("in bounds");
                }
                acc[j as usize] = 0.0;
            }
            touched.clear();
        }
        Ok(coo.to_csr())
    }

    /// True when both matrices share a shape and their dense forms agree
    /// within `tol` (exercises implicit zeros too).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape() && {
            // Compare patterns first for speed, then values.
            let dense_a = self.to_dense();
            let dense_b = other.to_dense();
            dense_a.approx_eq(&dense_b, tol)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 3 ]
        // [ 4 5 0 ]
        let mut coo = Coo::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 2, 3.0),
            (2, 0, 4.0),
            (2, 1, 5.0),
        ] {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn get_and_nnz() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn row_and_col_sums() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 3.0, 9.0]);
        assert_eq!(m.col_sums(), vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let back = CsrMatrix::from_dense(&m.to_dense(), 0.0);
        assert!(m.approx_eq(&back, 0.0));
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        assert!(t.to_dense().approx_eq(&m.to_dense().transpose(), 0.0));
        // Involution.
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let v = [1.0, -1.0, 2.0];
        assert_eq!(m.matvec(&v).unwrap(), m.to_dense().matvec(&v).unwrap());
        assert_eq!(m.t_matvec(&v).unwrap(), m.to_dense().vecmat(&v).unwrap());
    }

    #[test]
    fn matmul_matches_dense() {
        let a = sample();
        let b = sample().transpose();
        let sparse = a.matmul(&b).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert!(sparse.to_dense().approx_eq(&dense, 1e-12));
    }

    #[test]
    fn diag_similarity_matches_definition() {
        let mut m = sample();
        let b = [2.0, 4.0, 8.0];
        m.diag_similarity_inplace(&b).unwrap();
        // S[i,j] * b[j] / b[i]
        assert_eq!(m.get(0, 2), 2.0 * 8.0 / 2.0);
        assert_eq!(m.get(2, 0), 4.0 * 2.0 / 8.0);
        assert_eq!(m.get(2, 1), 5.0 * 4.0 / 8.0);
    }

    #[test]
    fn diag_similarity_zero_scale_zeroes_row() {
        let mut m = sample();
        m.diag_similarity_inplace(&[0.0, 1.0, 1.0]).unwrap();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 2), 0.0);
        // Column 0 is also zeroed (multiplied by scale[0] = 0).
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn diag_similarity_preserves_eigen_spectrum_proxy() {
        // Similarity transforms preserve the trace.
        let mut m = sample();
        let before = m.to_dense().trace().unwrap();
        m.diag_similarity_inplace(&[1.5, 2.5, 3.5]).unwrap();
        let after = m.to_dense().trace().unwrap();
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn threshold_compacts_and_reports_slots() {
        let mut m = sample();
        let kept = m.threshold(2.5);
        // Surviving entries: 3.0 (slot 2), 4.0 (slot 3), 5.0 (slot 4).
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.row_sums(), vec![0.0, 3.0, 9.0]);
    }

    #[test]
    fn retain_by_coordinate() {
        let mut m = sample();
        m.retain(|r, c, _| r != c && c > 0);
        assert_eq!(m.nnz(), 3); // (0,2), (1,2), (2,1)
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn identity_behaves() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&v).unwrap(), v.to_vec());
    }

    #[test]
    fn map_values_keeps_pattern() {
        let m = sample();
        let sq = m.hadamard_square();
        assert_eq!(sq.nnz(), m.nnz());
        assert_eq!(sq.get(2, 1), 25.0);
    }

    #[test]
    fn expand_row_indices_aligns_with_values() {
        let m = sample();
        let rows = m.expand_row_indices();
        let triples: Vec<_> = m.iter().collect();
        for (slot, &(r, _, _)) in triples.iter().enumerate() {
            assert_eq!(rows[slot] as usize, r);
        }
    }

    #[test]
    fn from_parts_accepts_valid_and_rejects_corrupt() {
        let m = sample();
        let rebuilt = CsrMatrix::from_parts(
            m.rows(),
            m.cols(),
            m.row_pointers().to_vec(),
            m.col_indices().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert!(rebuilt.approx_eq(&m, 0.0));

        // Wrong pointer arity.
        assert!(CsrMatrix::from_parts(3, 3, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Nonzero first pointer.
        assert!(CsrMatrix::from_parts(1, 3, vec![1, 1], vec![], vec![]).is_err());
        // Pointer end disagrees with nnz.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![0], vec![1.0]).is_err());
        // Column out of bounds.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 1], vec![3], vec![1.0]).is_err());
        // Duplicate / decreasing columns.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // Decreasing row pointers (end still matches nnz).
        assert!(CsrMatrix::from_parts(2, 3, vec![0, 2, 1], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn shape_errors() {
        let m = sample();
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.t_matvec(&[1.0]).is_err());
        let mut m2 = sample();
        assert!(m2.diag_similarity_inplace(&[1.0]).is_err());
    }
}
