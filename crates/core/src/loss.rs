//! The LSEM training loss `L(W, X) = (1/n)‖X − XW‖_F² + λ‖W‖₁` and its
//! gradients (Section IV of the paper), in three specializations:
//!
//! * **Gram path** (full batch): with `G = XᵀX` precomputed once,
//!   `∇ = (2/n)·G·(W − I)` and the loss needs only inner products — no
//!   `n`-sized work per iteration. Used by every `fit_stats` and by the
//!   dense `fit` when `B ≥ n`;
//!   `G·W` is gathered by the register-tiled `Wᵀ·(columns of G)` kernel
//!   (`least_linalg::tile`), which visits per block of 4 columns of `W`
//!   only the rows with a nonzero, so an iteration costs
//!   `O(d² + d·nnz(W))` and matches the row-by-row product bit for bit
//!   (DESIGN.md §2.1).
//! * **Residual path** (mini-batch dense): `R = X_B W − X_B`,
//!   `∇ = (2/B)·X_BᵀR`.
//! * **Sparse-support path**: residual scatter plus per-slot dot products,
//!   `O(B·(d + nnz))`, parallelized over sample rows — the reason LEAST-SP
//!   never materializes a dense `d×d` object.
//!
//! The L1 term uses the subgradient `λ·sign(W)` (zero at zero), matching
//! what TensorFlow autodiff gives the paper's implementation.

use least_data::{Dataset, SufficientStats};
use least_linalg::tile::{at_b_accumulate, Encoding};
use least_linalg::{par, CsrMatrix, DenseMatrix, LinalgError, Result};
use std::sync::OnceLock;

/// Full-batch Gram-matrix loss state for a fixed dataset.
#[derive(Debug, Clone)]
pub struct GramLoss {
    /// `G = XᵀX`.
    gram: DenseMatrix,
    /// `Gᵀ` when it differs from `G`; see [`GramLoss::gram_columns`].
    gram_t: OnceLock<Option<DenseMatrix>>,
    /// `tr(G)`, cached.
    trace: f64,
    /// Sample count `n`.
    n: usize,
    /// L1 weight λ.
    lambda: f64,
}

impl GramLoss {
    /// Precompute `XᵀX` (`O(n·d²)`, once). Fails on a non-finite `XᵀX`.
    pub fn new(x: &DenseMatrix, lambda: f64) -> Result<Self> {
        let gram = x.t_matmul(x)?;
        check_finite(&gram)?;
        let trace = gram.trace()?;
        Ok(Self {
            gram,
            gram_t: OnceLock::new(),
            trace,
            n: x.rows(),
            lambda,
        })
    }

    /// Adopt a precomputed second-moment summary (the out-of-core
    /// ingestion product, DESIGN.md §9): no `n`-sized work ever happens —
    /// not even once. Fails on a non-finite `G`: the tiled gather is exact
    /// only for finite inputs (`least_linalg::tile`).
    pub fn from_stats(stats: &SufficientStats, lambda: f64) -> Result<Self> {
        let n = usize::try_from(stats.n).map_err(|_| {
            LinalgError::InvalidArgument(format!(
                "sample count {} exceeds the platform word size",
                stats.n
            ))
        })?;
        check_finite(&stats.gram)?;
        let gram = stats.gram.clone();
        let trace = gram.trace()?;
        Ok(Self {
            gram,
            gram_t: OnceLock::new(),
            trace,
            n,
            lambda,
        })
    }

    /// The matrix whose row `r` is column `r` of `G`, read by the dense
    /// gather: `G` itself when it is exactly symmetric (`XᵀX` always is),
    /// else `Gᵀ` (centering rounds `G[i,j]` and `G[j,i]` apart), built on
    /// first use.
    fn gram_columns(&self) -> &DenseMatrix {
        self.gram_t
            .get_or_init(|| {
                let g = &self.gram;
                let d = g.rows();
                let symmetric = (0..d).all(|i| (0..i).all(|j| g[(i, j)] == g[(j, i)]));
                (!symmetric).then(|| g.transpose())
            })
            .as_ref()
            .unwrap_or(&self.gram)
    }

    /// Loss and gradient at `W`. Returns `(smooth + λ‖W‖₁, ∇)` where the
    /// gradient includes the L1 subgradient.
    ///
    /// `‖X − XW‖² = tr(G) − 2⟨W, G⟩ + ⟨W, G·W⟩` (`G` symmetric) and
    /// `∇ = (2/n)(G·W − G)`. Column `l` of `G·W` is `Σ_r W[r,l]·G[·,r]`:
    /// one column of `G` per nonzero of `W`. The tiled kernel
    /// `least_linalg::tile::at_b_accumulate` gathers those columns into
    /// the gradient buffer (as `(G·W)ᵀ = Wᵀ·(columns of G)`), then one
    /// in-place transposing pass finishes every entry —
    /// `O(d² + d·nnz(W))` time, no `d×d` temporary besides the gradient
    /// itself.
    ///
    /// Every entry of `G·W` sums the same products `G[i,r]·W[r,l]` in the
    /// same (ascending `r`) order as the row-by-row product `G.matmul(W)`,
    /// plus exact `±0` terms where a tile covers a zero of `W` (`G` is
    /// finite, checked at construction), and the inner products run in
    /// row-major order, so the value and every gradient entry equal that
    /// formulation's exactly, at any thread count and in either encoding
    /// of the kernel (only the gather is parallel, over disjoint rows).
    pub fn value_and_grad(&self, w: &DenseMatrix) -> Result<(f64, DenseMatrix)> {
        let d = self.gram.rows();
        if w.shape() != (d, d) {
            return Err(LinalgError::ShapeMismatch {
                found: w.shape(),
                expected: self.gram.shape(),
            });
        }
        // Row l of `grad` = column l of G·W = Σ_r W[r,l]·G[·,r], r
        // ascending: the tiled `Wᵀ·(columns of G)`.
        let mut grad = DenseMatrix::zeros(d, d);
        at_b_accumulate(w, self.gram_columns(), &mut grad, Encoding::detect())?;
        let (w, g) = (w.as_slice(), self.gram.as_slice());

        // ⟨W, G⟩ and ‖W‖₁ over the nonzeros of W, in row-major order.
        let (mut wg, mut l1) = (0.0, 0.0);
        for (&v, &gv) in w.iter().zip(g) {
            if v != 0.0 {
                wg += v * gv;
                l1 += v.abs();
            }
        }
        let prod = grad.as_mut_slice();

        // ⟨W, G·W⟩ in row-major order; (G·W)[i,l] sits at prod[l·d + i].
        let mut wm = 0.0;
        for (i, w_row) in w.chunks_exact(d.max(1)).enumerate() {
            for (l, &v) in w_row.iter().enumerate() {
                if v != 0.0 {
                    wm += v * prod[l * d + i];
                }
            }
        }

        // Transpose and finish in place: ∇ = (2/n)(G·W − G) + λ·sign(W).
        let scale = 2.0 / self.n as f64;
        let finish = |m: f64, at: usize| (m - g[at]) * scale + self.lambda * sign(w[at]);
        for i in 0..d {
            let ii = i * d + i;
            prod[ii] = finish(prod[ii], ii);
            for j in i + 1..d {
                let (ij, ji) = (i * d + j, j * d + i);
                let (m_ij, m_ji) = (prod[ji], prod[ij]);
                prod[ij] = finish(m_ij, ij);
                prod[ji] = finish(m_ji, ji);
            }
        }

        let smooth = (self.trace - 2.0 * wg + wm) / self.n as f64;
        Ok((smooth + self.lambda * l1, grad))
    }

    /// Loss and support-restricted gradient at a CSR iterate — the sparse
    /// backend's Gram path. For each stored slot `(j, l)`,
    /// `(G·W)[j,l] = Σ_m G[j,m]·W[m,l]` walks column `l` of `W`, so the
    /// cost is `O(Σ_slots nnz(col))` — independent of `n`, with no `d×d`
    /// buffer beyond `G` (the dense path's is `O(d² + d·nnz)`).
    ///
    /// Parallelized over the CSR row blocks (each slot's gradient is
    /// computed independently, so gradients are bit-identical at any
    /// thread count; the scalar loss terms are range-order reductions with
    /// the usual last-ulp caveat from `least_linalg::par`).
    pub fn sparse_value_and_grad(&self, w: &CsrMatrix) -> Result<(f64, Vec<f64>)> {
        let d = w.rows();
        if self.gram.rows() != d || w.cols() != d {
            return Err(LinalgError::ShapeMismatch {
                found: w.shape(),
                expected: self.gram.shape(),
            });
        }
        // Column lists of W, rebuilt per call: thresholding compacts the
        // pattern between iterations, and the build is O(nnz) — noise
        // next to the slot dot products.
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); d];
        for (m, l, v) in w.iter() {
            cols[l].push((m as u32, v));
        }
        let row_ptr = w.row_pointers();
        let col_idx = w.col_indices();
        let vals = w.values();
        let nf = self.n as f64;

        let partials = par::map_ranges(d, GRAM_SPARSE_ROW_GRAIN, |rows| {
            let mut wg = 0.0;
            let mut wm = 0.0;
            let span = row_ptr[rows.end] as usize - row_ptr[rows.start] as usize;
            let mut grad = Vec::with_capacity(span);
            for j in rows {
                let g_row = self.gram.row(j);
                for slot in row_ptr[j] as usize..row_ptr[j + 1] as usize {
                    let l = col_idx[slot] as usize;
                    let mut m = 0.0;
                    for &(r, v) in &cols[l] {
                        m += g_row[r as usize] * v;
                    }
                    wg += vals[slot] * g_row[l];
                    wm += vals[slot] * m;
                    grad.push(2.0 / nf * (m - g_row[l]));
                }
            }
            (wg, wm, grad)
        });

        let mut wg = 0.0;
        let mut wm = 0.0;
        let mut grad = Vec::with_capacity(w.nnz());
        for (pg, pm, pgrad) in partials {
            wg += pg;
            wm += pm;
            grad.extend(pgrad);
        }
        let smooth = (self.trace - 2.0 * wg + wm) / nf;
        let l1: f64 = vals.iter().map(|v| v.abs()).sum();
        for (g, &v) in grad.iter_mut().zip(vals) {
            *g += self.lambda * sign(v);
        }
        Ok((smooth + self.lambda * l1, grad))
    }
}

/// A typed error naming the first non-finite entry of `gram`, if any.
fn check_finite(gram: &DenseMatrix) -> Result<()> {
    match gram.as_slice().iter().position(|v| !v.is_finite()) {
        Some(at) => Err(LinalgError::InvalidArgument(format!(
            "Gram matrix entry ({}, {}) is {}, not finite",
            at / gram.cols(),
            at % gram.cols(),
            gram.as_slice()[at]
        ))),
        None => Ok(()),
    }
}

/// Minimum CSR rows per worker in the sparse Gram-loss path.
const GRAM_SPARSE_ROW_GRAIN: usize = 16;

/// The training loss a backend evaluates every inner iteration, chosen
/// once when the backend is built (DESIGN.md §9.3).
pub(crate) enum Loss<'a> {
    /// Full-batch least squares from `G = XᵀX`; never touches the RNG.
    Gram(GramLoss),
    /// Least squares on the residuals of `batch` rows of `data`, drawn
    /// from the engine's RNG each iteration (all rows when `batch ≥ n`).
    Residual { data: &'a Dataset, batch: usize },
}

/// Mini-batch dense loss: `R = X_B·W − X_B`, `∇ = (2/B)·X_BᵀR + λ·sign`.
pub fn batch_value_and_grad(
    x_batch: &DenseMatrix,
    w: &DenseMatrix,
    lambda: f64,
) -> Result<(f64, DenseMatrix)> {
    let b = x_batch.rows() as f64;
    let xw = x_batch.matmul(w)?;
    let r = xw.sub(x_batch)?;
    let smooth = r.frobenius_norm().powi(2) / b;
    let mut grad = x_batch.t_matmul(&r)?;
    grad.scale_inplace(2.0 / b);
    add_l1_subgradient(&mut grad, w, lambda);
    Ok((smooth + lambda * w.l1_norm(), grad))
}

/// Sparse-support loss: value plus the gradient restricted to `w`'s CSR
/// pattern (one entry per stored slot). `O(B·(d + nnz))`, parallelized
/// over sample rows.
pub fn sparse_value_and_grad(
    x_batch: &DenseMatrix,
    w: &CsrMatrix,
    lambda: f64,
) -> Result<(f64, Vec<f64>)> {
    let d = w.rows();
    if x_batch.cols() != d {
        return Err(LinalgError::ShapeMismatch {
            found: x_batch.shape(),
            expected: (x_batch.rows(), d),
        });
    }
    let b = x_batch.rows();
    let nnz = w.nnz();

    // Each worker owns a disjoint row range and accumulates (loss, grad);
    // partials are combined in range order, so results are deterministic
    // run-to-run at a fixed thread count (changing the pool size regroups
    // the partial sums and may shift the result by an ulp; see
    // `least_linalg::par` module docs).
    let partials = least_linalg::par::map_ranges(b, SAMPLE_ROW_GRAIN, |rows| {
        sparse_loss_rows(x_batch, w, rows.start, rows.end)
    });

    let mut smooth = 0.0;
    let mut grad = vec![0.0; nnz];
    for (s, g) in partials {
        smooth += s;
        for (acc, v) in grad.iter_mut().zip(g) {
            *acc += v;
        }
    }
    let bf = b as f64;
    smooth /= bf;
    for g in &mut grad {
        *g *= 2.0 / bf;
    }
    // L1 subgradient on the support.
    let l1: f64 = w.values().iter().map(|v| v.abs()).sum();
    for (g, &v) in grad.iter_mut().zip(w.values()) {
        *g += lambda * sign(v);
    }
    Ok((smooth + lambda * l1, grad))
}

/// Per-worker kernel: residual + gradient contributions of rows `lo..hi`.
fn sparse_loss_rows(x: &DenseMatrix, w: &CsrMatrix, lo: usize, hi: usize) -> (f64, Vec<f64>) {
    let d = w.rows();
    let nnz = w.nnz();
    let row_ptr = w.row_pointers();
    let col_idx = w.col_indices();
    let vals = w.values();
    let mut grad = vec![0.0; nnz];
    let mut residual = vec![0.0; d];
    let mut smooth = 0.0;
    for s in lo..hi {
        let x_row = x.row(s);
        // residual = x_row · W − x_row.
        residual.copy_from_slice(x_row);
        for r in &mut residual {
            *r = -*r;
        }
        for (j, &xj) in x_row.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let (start, end) = (row_ptr[j] as usize, row_ptr[j + 1] as usize);
            for slot in start..end {
                residual[col_idx[slot] as usize] += xj * vals[slot];
            }
        }
        smooth += residual.iter().map(|r| r * r).sum::<f64>();
        // grad[slot=(j,l)] += x[s,j] * residual[l].
        for (j, &xj) in x_row.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let (start, end) = (row_ptr[j] as usize, row_ptr[j + 1] as usize);
            for slot in start..end {
                grad[slot] += xj * residual[col_idx[slot] as usize];
            }
        }
    }
    (smooth, grad)
}

/// Minimum sample rows per worker in the parallel sparse-loss path.
const SAMPLE_ROW_GRAIN: usize = 8;

/// `grad += λ·sign(w)` element-wise (0 at 0).
fn add_l1_subgradient(grad: &mut DenseMatrix, w: &DenseMatrix, lambda: f64) {
    for (g, &v) in grad.as_mut_slice().iter_mut().zip(w.as_slice()) {
        *g += lambda * sign(v);
    }
}

#[inline]
fn sign(v: f64) -> f64 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_linalg::Xoshiro256pp;

    fn random_data(n: usize, d: usize, seed: u64) -> DenseMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        DenseMatrix::from_fn(n, d, |_, _| rng.gaussian())
    }

    fn random_w(d: usize, seed: u64) -> DenseMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        let mut w = DenseMatrix::from_fn(d, d, |_, _| {
            if rng.bernoulli(0.4) {
                rng.uniform(-0.8, 0.8)
            } else {
                0.0
            }
        });
        w.zero_diagonal();
        w
    }

    #[test]
    fn gram_matches_batch_on_full_data() {
        let x = random_data(40, 6, 201);
        let w = random_w(6, 202);
        let lambda = 0.3;
        let gram = GramLoss::new(&x, lambda).unwrap();
        let (v1, g1) = gram.value_and_grad(&w).unwrap();
        let (v2, g2) = batch_value_and_grad(&x, &w, lambda).unwrap();
        assert!((v1 - v2).abs() < 1e-9 * v1.max(1.0), "{v1} vs {v2}");
        assert!(g1.approx_eq(&g2, 1e-9));
    }

    #[test]
    fn gram_from_stats_matches_gram_from_data() {
        use least_data::{Dataset, Preprocess};
        let x = random_data(35, 7, 214);
        let w = random_w(7, 215);
        let lambda = 0.25;
        let direct = GramLoss::new(&x, lambda).unwrap();
        let stats = SufficientStats::from_dataset(&Dataset::new(x), Preprocess::Raw).unwrap();
        let via_stats = GramLoss::from_stats(&stats, lambda).unwrap();
        let (v1, g1) = direct.value_and_grad(&w).unwrap();
        let (v2, g2) = via_stats.value_and_grad(&w).unwrap();
        // Same t_matmul product on both sides: bit-identical.
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert!(g1.approx_eq(&g2, 0.0));
    }

    #[test]
    fn gram_loss_rejects_a_non_finite_gram() {
        use least_data::{Dataset, Preprocess};
        let x = random_data(20, 4, 222);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = x.clone();
            data[(5, 1)] = bad;
            assert!(GramLoss::new(&data, 0.1).is_err(), "{bad} in X");
            let mut stats =
                SufficientStats::from_dataset(&Dataset::new(x.clone()), Preprocess::Raw).unwrap();
            stats.gram[(1, 2)] = bad;
            match GramLoss::from_stats(&stats, 0.1) {
                Err(LinalgError::InvalidArgument(msg)) => {
                    assert!(msg.contains("(1, 2)"), "{bad}: {msg}");
                }
                other => panic!("{bad}: expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sparse_gram_matches_full_batch_residual_path() {
        let x = random_data(50, 8, 216);
        let wd = random_w(8, 217);
        let ws = CsrMatrix::from_dense(&wd, 0.0);
        let lambda = 0.15;
        let gram = GramLoss::new(&x, lambda).unwrap();
        let (vg, gg) = gram.sparse_value_and_grad(&ws).unwrap();
        let (vr, gr) = sparse_value_and_grad(&x, &ws, lambda).unwrap();
        assert!((vg - vr).abs() < 1e-9 * vr.max(1.0), "{vg} vs {vr}");
        for ((slot, (i, j, _)), (&a, &b)) in ws.iter().enumerate().zip(gg.iter().zip(&gr)) {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "slot {slot} ({i},{j}): gram {a} vs residual {b}"
            );
        }
    }

    #[test]
    fn sparse_gram_matches_dense_gram_on_support() {
        let x = random_data(45, 6, 218);
        let wd = random_w(6, 219);
        let ws = CsrMatrix::from_dense(&wd, 0.0);
        let gram = GramLoss::new(&x, 0.3).unwrap();
        let (vd, gd) = gram.value_and_grad(&wd).unwrap();
        let (vs, gs) = gram.sparse_value_and_grad(&ws).unwrap();
        assert!((vd - vs).abs() < 1e-9 * vd.max(1.0));
        for ((i, j, _), &g) in ws.iter().zip(&gs) {
            assert!(
                (gd[(i, j)] - g).abs() < 1e-9 * (1.0 + gd[(i, j)].abs()),
                "({i},{j}): dense {} sparse {g}",
                gd[(i, j)]
            );
        }
    }

    #[test]
    fn gram_rejects_any_iterate_but_d_by_d() {
        let x = random_data(10, 4, 221);
        let gram = GramLoss::new(&x, 0.1).unwrap();
        for shape in [(4, 3), (4, 5), (3, 4), (5, 5)] {
            match gram.value_and_grad(&DenseMatrix::zeros(shape.0, shape.1)) {
                Err(LinalgError::ShapeMismatch { found, expected }) => {
                    assert_eq!((found, expected), (shape, (4, 4)));
                }
                other => panic!("{shape:?}: expected a shape mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn sparse_gram_handles_empty_pattern_and_shape_mismatch() {
        let x = random_data(12, 4, 220);
        let gram = GramLoss::new(&x, 0.1).unwrap();
        let (v, g) = gram.sparse_value_and_grad(&CsrMatrix::zeros(4, 4)).unwrap();
        assert!(g.is_empty());
        let expected = x.frobenius_norm().powi(2) / 12.0;
        assert!((v - expected).abs() < 1e-9 * expected);
        assert!(gram.sparse_value_and_grad(&CsrMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn sparse_matches_dense_on_support() {
        let x = random_data(30, 8, 203);
        let wd = random_w(8, 204);
        let ws = CsrMatrix::from_dense(&wd, 0.0);
        let lambda = 0.2;
        let (vd, gd) = batch_value_and_grad(&x, &wd, lambda).unwrap();
        let (vs, gs) = sparse_value_and_grad(&x, &ws, lambda).unwrap();
        assert!((vd - vs).abs() < 1e-9 * vd.max(1.0), "{vd} vs {vs}");
        for ((i, j, _), &g) in ws.iter().zip(&gs) {
            assert!(
                (gd[(i, j)] - g).abs() < 1e-9 * (1.0 + gd[(i, j)].abs()),
                "({i},{j}): dense {} sparse {g}",
                gd[(i, j)]
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = random_data(25, 5, 205);
        let w = random_w(5, 206);
        // Smooth part only (λ = 0): L1 is not differentiable at 0.
        let (_, g) = batch_value_and_grad(&x, &w, 0.0).unwrap();
        let step = 1e-6;
        for i in 0..5 {
            for j in 0..5 {
                let mut plus = w.clone();
                plus[(i, j)] += step;
                let mut minus = w.clone();
                minus[(i, j)] -= step;
                let (vp, _) = batch_value_and_grad(&x, &plus, 0.0).unwrap();
                let (vm, _) = batch_value_and_grad(&x, &minus, 0.0).unwrap();
                let numeric = (vp - vm) / (2.0 * step);
                assert!(
                    (g[(i, j)] - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                    "({i},{j}): {} vs {numeric}",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn loss_is_zero_at_perfect_fit_without_noise() {
        // X with exact linear structure X1 = 0.5·X0 and W encoding it:
        // residual vanishes; only the L1 term remains.
        let n = 10;
        let mut x = DenseMatrix::zeros(n, 2);
        let mut rng = Xoshiro256pp::new(207);
        for s in 0..n {
            let v = rng.gaussian();
            x[(s, 0)] = v;
            x[(s, 1)] = 0.5 * v;
        }
        let mut w = DenseMatrix::zeros(2, 2);
        w[(0, 1)] = 0.5;
        let (v, _) = batch_value_and_grad(&x, &w, 0.0).unwrap();
        // X0 column cannot be predicted (its residual is X0 itself)...
        // wait: residual col 0 = (XW)_0 − X_0 = −X_0. So loss > 0.
        let x0_ss: f64 = x.col(0).iter().map(|v| v * v).sum::<f64>() / n as f64;
        assert!((v - x0_ss).abs() < 1e-12, "loss {v} vs {x0_ss}");
    }

    #[test]
    fn l1_term_included_in_value() {
        let x = random_data(10, 3, 208);
        let w = random_w(3, 209);
        let (v0, _) = batch_value_and_grad(&x, &w, 0.0).unwrap();
        let (v1, _) = batch_value_and_grad(&x, &w, 1.0).unwrap();
        assert!((v1 - v0 - w.l1_norm()).abs() < 1e-9);
    }

    #[test]
    fn l1_subgradient_has_weight_sign() {
        let x = DenseMatrix::zeros(4, 2); // smooth gradient vanishes
        let mut w = DenseMatrix::zeros(2, 2);
        w[(0, 1)] = 0.5;
        w[(1, 0)] = -0.5;
        let (_, g) = batch_value_and_grad(&x, &w, 2.0).unwrap();
        assert_eq!(g[(0, 1)], 2.0);
        assert_eq!(g[(1, 0)], -2.0);
        assert_eq!(g[(0, 0)], 0.0);
    }

    #[test]
    fn sparse_handles_empty_pattern() {
        let x = random_data(5, 4, 210);
        let w = CsrMatrix::zeros(4, 4);
        let (v, g) = sparse_value_and_grad(&x, &w, 0.5).unwrap();
        assert!(g.is_empty());
        // Residual = −X: loss = ‖X‖²/B.
        let expected = x.frobenius_norm().powi(2) / 5.0;
        assert!((v - expected).abs() < 1e-9);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let x = random_data(5, 4, 211);
        let w = CsrMatrix::zeros(3, 3);
        assert!(sparse_value_and_grad(&x, &w, 0.1).is_err());
    }
}
