//! BACKWARD procedure (Fig. 2): reverse-mode differentiation of the
//! spectral bound, implementing Lemmas 3–5 of the paper.
//!
//! Top level (Lemma 3): with `x = α(c/r)^{1−α}` and `y = (1−α)(r/c)^α`
//! evaluated at the level's row/column sums,
//! `∇_{S^(k)} δ̄ = x ⊕ y` (the outer sum `x[i] + y[l]`).
//!
//! Descent (Lemma 4 / Eq. 7–8): given `G = ∇_{S^(j)} δ̄`, the gradient with
//! respect to the previous level's `b` is
//!
//! ```text
//! z[m] = c(b⁻¹ ∘ (G ∘ S^(j−1)))[m] − r((G ∘ S^(j−1)) ∘ bᵀ)[m] / b[m]²
//! ```
//!
//! and `∇_{S^(j−1)} δ̄ = b⁻¹ ∘ G ∘ bᵀ + (x∘z) ⊕ (y∘z)`.
//!
//! Finally `∇_W δ̄ = 2·∇_{S^(0)} δ̄ ∘ W` (chain rule through `S = W∘W`).
//!
//! **Masking (Lemma 5).** Only entries on the sparsity pattern of `W`
//! survive the final Hadamard product, and every dense cross-term in the
//! recursion is consumed element-wise by `S`-patterned products, so both
//! paths propagate the gradient *only on the pattern* — `O(k·nnz)` rather
//! than `O(k·d²)` — and are exact (verified against each other and finite
//! differences in the tests below). The dense path keeps the arithmetic
//! and summation order of a full `d×d` sweep, so its gradient equals that
//! sweep's (DESIGN.md §2.1); the sparse path orders its sums differently
//! and agrees to rounding. Both add every sum serially, in one order, and
//! parallelize only disjoint per-slot writes, so neither result depends on
//! the pool width.

use crate::bound::{inv_or_zero, SparseBoundForward, SpectralBoundForward, POW_EPS};
use least_linalg::vecops::powf_floored;
use least_linalg::{par, CsrMatrix, DenseMatrix};

/// Minimum pattern slots per worker in the sparse backward pass.
const SLOT_GRAIN: usize = 1 << 14;

/// Per-thread slot-chunk length for slot-parallel loops, respecting
/// [`SLOT_GRAIN`].
fn slot_chunk(nnz: usize) -> usize {
    nnz.div_ceil(par::max_threads().max(1)).max(SLOT_GRAIN)
}

/// `x[m] = α(c/r)^{1−α}`, `y[m] = (1−α)(r/c)^α`, ε-guarded to match the
/// forward's zero conventions (`b[m] = 0 ⇒ x[m] = y[m] = 0`). `c^(1−α)`
/// and `r^α` are the forward's factors of `b`.
fn xy(r: &[f64], c: &[f64], r_alpha: &[f64], c_beta: &[f64], alpha: f64) -> (Vec<f64>, Vec<f64>) {
    let mut x = Vec::with_capacity(r.len());
    let mut y = Vec::with_capacity(r.len());
    for (((&ri, &ci), &ra), &cb) in r.iter().zip(c).zip(r_alpha).zip(c_beta) {
        if ri <= 0.0 || ci <= 0.0 {
            x.push(0.0);
            y.push(0.0);
        } else {
            x.push(alpha * (cb / powf_floored(ri, 1.0 - alpha, POW_EPS)));
            y.push((1.0 - alpha) * (ra / powf_floored(ci, alpha, POW_EPS)));
        }
    }
    (x, y)
}

/// Dense backward pass: `∇_W δ̄^(k)` given the retained forward state
/// of the same `w`.
///
/// `G` is propagated only on the forward's pattern (the nonzeros of `W`):
/// it is consumed only through `G ∘ S` and `2·G ∘ W`, both zero off it.
/// Each entry uses the arithmetic of a full `d×d` sweep, and the column
/// scatter for `z` runs as one serial pass in row order at every pool
/// width (only the per-slot `G` update is row-parallel, and it writes
/// disjoint entries), so the result equals the full computation exactly
/// (zero entries up to their sign) and does not depend on the thread
/// count, in `O(d² + k·(d + nnz))` time.
pub fn backward_dense(fwd: &SpectralBoundForward, w: &DenseMatrix) -> DenseMatrix {
    let pattern = &fwd.pattern;
    let g = pattern_gradient(fwd);
    // ∇_W = 2·G ∘ W.
    let d = pattern.d;
    let mut out = DenseMatrix::zeros(d, d);
    for i in 0..d {
        let g_row = &g[pattern.slots(i)];
        let (w_row, out_row) = (w.row(i), out.row_mut(i));
        for (at, cols) in pattern.runs(i) {
            let run = out_row[cols.clone()].iter_mut().zip(&w_row[cols]);
            for ((o, &wv), &gv) in run.zip(&g_row[at]) {
                *o = gv * wv * 2.0;
            }
        }
    }
    out
}

/// [`backward_dense`] for a forward built by
/// [`crate::SpectralBound::forward_support`] on the same `support`:
/// `∇_W δ̄` at each support index, in support order, equal to the dense
/// gradient's entry there. `O(k·(d + nnz))`, no `d×d` buffer.
pub(crate) fn backward_support(
    fwd: &SpectralBoundForward,
    w: &DenseMatrix,
    support: &[u32],
) -> Vec<f64> {
    let w = w.as_slice();
    let g = pattern_gradient(fwd);
    g.iter()
        .zip(support)
        .map(|(&gv, &at)| gv * w[at as usize] * 2.0)
        .collect()
}

/// `∇_{S^(0)} δ̄` on the forward's pattern, slot by slot (Lemmas 3–5).
fn pattern_gradient(fwd: &SpectralBoundForward) -> Vec<f64> {
    let levels = &fwd.levels;
    let pattern = &fwd.pattern;
    let k = levels.len() - 1;
    let d = pattern.d;
    let alpha = fwd.alpha;

    // Lemma 3: top-level gradient G[i,l] = x[i] + y[l].
    let top = &levels[k];
    let (xk, yk) = xy(&top.r, &top.c, &top.r_alpha, &top.c_beta, alpha);
    let mut g = vec![0.0; pattern.nnz()];
    pattern.for_each_row_mut(&mut g, |i, g_row| {
        for (at, cols) in pattern.runs(i) {
            for (o, &yl) in g_row[at].iter_mut().zip(&yk[cols]) {
                *o = xk[i] + yl;
            }
        }
    });

    // Lemmas 4–5, descending levels.
    for j in (1..=k).rev() {
        let level = &levels[j - 1];
        let b = &level.b;
        // z[m] = Σ_p G[p,m]·S[p,m]/b[p]  −  Σ_q G[m,q]·S[m,q]·b[q] / b[m]².
        // One sweep of the pattern feeds both sums. The first scatters
        // across columns in one serial pass over the rows, so every z[q]
        // adds its terms in row order at any pool width; rows with
        // b[p] = 0 add exact zeros. The second is a per-row sum, applied
        // afterwards.
        let mut z = vec![0.0; d];
        let mut row_terms = Vec::with_capacity(d);
        for p in 0..d {
            let inv_bp = inv_or_zero(b[p]);
            let slots = pattern.slots(p);
            let (g_row, s_row) = (&g[slots.clone()], &level.s[slots]);
            let mut row_term = 0.0;
            for (at, cols) in pattern.runs(p) {
                let run = g_row[at.clone()].iter().zip(&s_row[at]);
                for ((&gv, &sv), (zq, &bq)) in run.zip(z[cols.clone()].iter_mut().zip(&b[cols])) {
                    let gs = gv * sv;
                    *zq += gs * inv_bp;
                    row_term += gs * bq;
                }
            }
            row_terms.push(row_term);
        }
        for ((zm, &bm), row_term) in z.iter_mut().zip(b).zip(row_terms) {
            let inv_bm2 = inv_or_zero(bm * bm);
            if inv_bm2 != 0.0 {
                *zm -= row_term * inv_bm2;
            }
        }
        let (x, y) = xy(&level.r, &level.c, &level.r_alpha, &level.c_beta, alpha);
        // G_new[i,l] = G[i,l]·b[l]/b[i] + x[i]z[i] + y[l]z[l].
        pattern.for_each_row_mut(&mut g, |i, g_row| {
            let inv_bi = inv_or_zero(b[i]);
            let xi_zi = x[i] * z[i];
            for (at, cols) in pattern.runs(i) {
                let coeffs = b[cols.clone()].iter().zip(&y[cols.clone()]).zip(&z[cols]);
                for (gv, ((&bl, &yl), &zl)) in g_row[at].iter_mut().zip(coeffs) {
                    *gv = *gv * inv_bi * bl + xi_zi + yl * zl;
                }
            }
        });
    }

    g
}

/// Sparse backward pass: the masked gradient values aligned with `w`'s CSR
/// pattern (Lemma 5). Returns a vector parallel to `w.values()` holding
/// `∇_W δ̄` on the support. The `z` scatter is one serial pass in slot
/// order and the per-slot updates write disjoint entries, so the result
/// is the same at any pool width.
pub fn backward_sparse(fwd: &SparseBoundForward, w: &CsrMatrix) -> Vec<f64> {
    let levels = &fwd.levels;
    let k = levels.len() - 1;
    let d = w.rows();
    let alpha = fwd.alpha;
    let nnz = w.nnz();
    // Row index of every pattern slot (shared by all levels: the similarity
    // transform preserves the pattern).
    let row_of = w.expand_row_indices();
    let col_of = w.col_indices();

    // Chunk length computed once: the parallel closures derive each
    // chunk's slot offset from it, so it must be the exact value the
    // chunking used (max_threads() can change under a runtime override).
    let chunk_len = slot_chunk(nnz);

    // Lemma 3 restricted to the mask (slot-parallel: slots are disjoint).
    let mut g = vec![0.0; nnz];
    let top = &levels[k];
    let (xk, yk) = xy(&top.r, &top.c, &top.r_alpha, &top.c_beta, alpha);
    par::for_each_chunk_mut(&mut g, chunk_len, |block, chunk| {
        let base = block * chunk_len;
        for (i, o) in chunk.iter_mut().enumerate() {
            let slot = base + i;
            *o = xk[row_of[slot] as usize] + yk[col_of[slot] as usize];
        }
    });

    for j in (1..=k).rev() {
        let level = &levels[j - 1];
        let b = &level.b;
        let s_vals = level.s.values();
        // z via one serial pass over the pattern in slot order — a scatter
        // into both endpoint nodes of every slot — so every z[m] adds its
        // terms in the same order at any pool width.
        let mut z = vec![0.0; d];
        for slot in 0..nnz {
            let p = row_of[slot] as usize;
            let q = col_of[slot] as usize;
            let gs = g[slot] * s_vals[slot];
            let inv_bp = inv_or_zero(b[p]);
            z[q] += gs * inv_bp;
            let inv_bp2 = inv_or_zero(b[p] * b[p]);
            z[p] -= gs * b[q] * inv_bp2;
        }
        let (x, y) = xy(&level.r, &level.c, &level.r_alpha, &level.c_beta, alpha);
        // Propagate on the pattern (slot-parallel).
        par::for_each_chunk_mut(&mut g, chunk_len, |block, chunk| {
            let base = block * chunk_len;
            for (idx, gv) in chunk.iter_mut().enumerate() {
                let slot = base + idx;
                let i = row_of[slot] as usize;
                let l = col_of[slot] as usize;
                *gv = *gv * inv_or_zero(b[i]) * b[l] + x[i] * z[i] + y[l] * z[l];
            }
        });
    }

    // ∇_W = 2·G ∘ W on the support.
    g.iter()
        .zip(w.values())
        .map(|(&gv, &wv)| 2.0 * gv * wv)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::SpectralBound;
    use crate::constraint::testing::check_gradient;
    use least_linalg::{init, Xoshiro256pp};

    fn random_w(d: usize, density: f64, seed: u64) -> DenseMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        let mut w = DenseMatrix::from_fn(d, d, |i, j| {
            if i != j && rng.bernoulli(density) {
                rng.uniform(-1.2, 1.2)
            } else {
                0.0
            }
        });
        w.zero_diagonal();
        w
    }

    #[test]
    fn dense_gradient_matches_finite_differences_k1() {
        let bound = SpectralBound::new(1, 0.9).unwrap();
        let w = random_w(6, 0.5, 101);
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn dense_gradient_matches_finite_differences_k3() {
        let bound = SpectralBound::new(3, 0.7).unwrap();
        let w = random_w(6, 0.5, 102);
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn dense_gradient_matches_finite_differences_k5_alpha09() {
        // The paper's production setting.
        let bound = SpectralBound::default();
        let w = random_w(5, 0.6, 103);
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn dense_gradient_k0_matches_finite_differences() {
        // k = 0: no similarity steps, pure b-sum gradient.
        let bound = SpectralBound::new(0, 0.9).unwrap();
        let w = random_w(7, 0.5, 104);
        check_gradient(&bound, &w, 1e-6, 1e-4);
    }

    #[test]
    fn sparse_gradient_matches_dense_gradient() {
        let bound = SpectralBound::default();
        let mut rng = Xoshiro256pp::new(105);
        let w_sparse = init::glorot_sparse(30, 0.12, &mut rng).unwrap();
        let w_dense = w_sparse.to_dense();

        let fwd_d = bound.forward_dense(&w_dense).unwrap();
        let grad_d = backward_dense(&fwd_d, &w_dense);

        let fwd_s = bound.forward_sparse(&w_sparse).unwrap();
        let grad_s = backward_sparse(&fwd_s, &w_sparse);

        assert!((fwd_d.delta - fwd_s.delta).abs() < 1e-12 * fwd_d.delta.max(1.0));
        for ((i, j, _), &gs) in w_sparse.iter().zip(&grad_s) {
            let gd = grad_d[(i, j)];
            assert!(
                (gd - gs).abs() < 1e-9 * (1.0 + gd.abs()),
                "grad mismatch at ({i},{j}): dense {gd} sparse {gs}"
            );
        }
    }

    #[test]
    fn gradient_descent_reduces_bound() {
        // Plain gradient steps on δ̄ must decrease it: the property the
        // whole solver relies on.
        let bound = SpectralBound::default();
        let mut w = random_w(10, 0.4, 106);
        let initial = bound.value_dense(&w).unwrap();
        let mut current = initial;
        for _ in 0..60 {
            let fwd = bound.forward_dense(&w).unwrap();
            let g = backward_dense(&fwd, &w);
            w.axpy(-0.05, &g).unwrap();
            current = bound.value_dense(&w).unwrap();
        }
        assert!(
            current < 0.5 * initial,
            "gradient descent failed: {initial} -> {current}"
        );
    }

    #[test]
    fn gradient_is_zero_on_zero_matrix() {
        let bound = SpectralBound::default();
        let w = DenseMatrix::zeros(5, 5);
        let fwd = bound.forward_dense(&w).unwrap();
        let g = backward_dense(&fwd, &w);
        assert_eq!(g.max_abs(), 0.0);
    }

    #[test]
    fn gradient_sign_points_away_from_cycles() {
        // Strengthening a cycle edge must increase the bound: positive
        // gradient component along the edge weight's direction of growth.
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 1)] = 0.8;
        w[(1, 0)] = 0.6;
        let bound = SpectralBound::new(2, 0.9).unwrap();
        let (v, g) = {
            let fwd = bound.forward_dense(&w).unwrap();
            (fwd.delta, backward_dense(&fwd, &w))
        };
        assert!(v > 0.0);
        // d(δ̄)/d(w01) should be positive for a positive weight on a cycle.
        assert!(g[(0, 1)] > 0.0, "gradient {:?}", g[(0, 1)]);
        assert!(g[(1, 0)] > 0.0);
    }

    #[test]
    fn masked_gradient_ignores_off_pattern_entries() {
        // The sparse gradient has exactly nnz entries, one per slot.
        let bound = SpectralBound::default();
        let mut rng = Xoshiro256pp::new(107);
        let w = init::glorot_sparse(20, 0.1, &mut rng).unwrap();
        let fwd = bound.forward_sparse(&w).unwrap();
        let g = backward_sparse(&fwd, &w);
        assert_eq!(g.len(), w.nnz());
    }
}
