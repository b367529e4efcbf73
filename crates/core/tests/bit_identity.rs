//! Bit-identity of the dense solver's kernels against their full `d×d`
//! formulations.
//!
//! `GramLoss::value_and_grad` gathers columns of `G` at the nonzeros of
//! `W`, and the dense spectral bound walks the pattern of `S = W∘W`; both
//! promise results equal (`==`) to the row-by-row `G·W` product and the
//! full-matrix forward/backward sweep they replaced. The references below
//! are those formulations, kept here verbatim, and every comparison runs at
//! pool widths 1, 2 and 3. Once the θ-filter runs, the dense backend
//! iterates on `W`'s support only; that iteration is compared with a
//! verbatim copy of the `O(d²)` thresholded iteration it replaced. Golden
//! hashes of whole fits pin the solver's trajectory bit for bit.

use least_core::backend_dense::testing::backend_at;
use least_core::bound::POW_EPS;
use least_core::grad::backward_dense;
use least_core::{Acyclicity, GramLoss, LeastConfig, LeastDense, SpectralBound, WeightBackend};
use least_data::{sample_lsem, Dataset, NoiseModel, Preprocess, SufficientStats};
use least_graph::{erdos_renyi_dag, weighted_adjacency_dense, WeightRange};
use least_linalg::vecops::powf_floored;
use least_linalg::{par, DenseMatrix, Xoshiro256pp};
use least_optim::{AdamConfig, AdamState, AugLagState};
use std::sync::{Mutex, MutexGuard};

/// The pool width is process-global: every test here holds this lock, so
/// none runs while another has the width pinned.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    // The lock guards no data, so a panicked holder leaves nothing broken.
    POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` at pool widths 1, 2 and 3.
fn at_each_width(mut f: impl FnMut(usize)) {
    let _guard = pool_lock();
    for width in 1..=3 {
        par::set_thread_override(Some(width));
        f(width);
    }
    par::set_thread_override(None);
}

/// `d = 200` puts every kernel above its parallel split at width ≥ 2.
const D: usize = 200;

fn sign(v: f64) -> f64 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// The four iterates of the contract: dense, ~2 % dense, all zero, and
/// one with empty rows and columns (plus entries whose squares underflow).
fn iterates(d: usize, seed: u64) -> Vec<(&'static str, DenseMatrix)> {
    let mut rng = Xoshiro256pp::new(seed);
    let dense = DenseMatrix::from_fn(
        d,
        d,
        |i, j| {
            if i == j {
                0.0
            } else {
                rng.uniform(-0.5, 0.5)
            }
        },
    );
    let sparse = DenseMatrix::from_fn(d, d, |i, j| {
        if i != j && rng.bernoulli(0.02) {
            rng.uniform(-1.5, 1.5)
        } else {
            0.0
        }
    });
    let holes = DenseMatrix::from_fn(d, d, |i, j| {
        let empty = |v: usize| v.is_multiple_of(3);
        if i == j || empty(i) || empty(j) {
            0.0
        } else if (i + j).is_multiple_of(17) {
            1e-170 // nonzero, but its square underflows to zero
        } else if rng.bernoulli(0.1) {
            rng.uniform(-1.0, 1.0)
        } else {
            0.0
        }
    });
    vec![
        ("dense", dense),
        ("sparse_2pct", sparse),
        ("zero", DenseMatrix::zeros(d, d)),
        ("empty_rows_cols", holes),
    ]
}

/// The row-by-row formulation: `m = G·W`,
/// `‖X − XW‖² = tr(G) − 2⟨W, G⟩ + ⟨W, m⟩`, `∇ = (2/n)(m − G) + λ·sign(W)`.
fn reference_loss(
    gram: &DenseMatrix,
    n: usize,
    lambda: f64,
    w: &DenseMatrix,
) -> (f64, DenseMatrix) {
    let n = n as f64;
    let m = gram.matmul(w).unwrap();
    let wg: f64 = w
        .as_slice()
        .iter()
        .zip(gram.as_slice())
        .map(|(&a, &b)| a * b)
        .sum();
    let wm: f64 = w
        .as_slice()
        .iter()
        .zip(m.as_slice())
        .map(|(&a, &b)| a * b)
        .sum();
    let smooth = (gram.trace().unwrap() - 2.0 * wg + wm) / n;
    let mut grad = m.sub(gram).unwrap();
    grad.scale_inplace(2.0 / n);
    for (g, &v) in grad.as_mut_slice().iter_mut().zip(w.as_slice()) {
        *g += lambda * sign(v);
    }
    (smooth + lambda * w.l1_norm(), grad)
}

/// Entry-wise `==` (so `-0.0 == 0.0`), with the first mismatch named.
fn assert_entries_eq(what: &str, got: &DenseMatrix, want: &DenseMatrix) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (at, (&a, &b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let d = got.cols();
        assert!(
            a == b,
            "{what}: entry ({}, {}) is {a:e}, reference {b:e}",
            at / d,
            at % d
        );
    }
}

fn gram_data(d: usize, n: usize, seed: u64) -> DenseMatrix {
    let mut rng = Xoshiro256pp::new(seed);
    DenseMatrix::from_fn(n, d, |_, _| rng.gaussian())
}

#[test]
fn gathered_loss_equals_row_by_row_product() {
    let x = gram_data(D, 300, 11);
    let lambda = 0.05;
    let loss = GramLoss::new(&x, lambda).unwrap();
    let gram = x.t_matmul(&x).unwrap();
    let cases = iterates(D, 12);
    at_each_width(|width| {
        for (name, w) in &cases {
            let (value, grad) = loss.value_and_grad(w).unwrap();
            let (ref_value, ref_grad) = reference_loss(&gram, 300, lambda, w);
            assert!(
                value == ref_value,
                "{name} at width {width}: value {value:e}, reference {ref_value:e}"
            );
            assert_entries_eq(&format!("{name} at width {width}"), &grad, &ref_grad);
        }
    });
}

#[test]
fn gathered_loss_equals_row_by_row_product_on_centered_stats() {
    // Streaming ingestion centers the raw moments, G − n·μμᵀ, which rounds
    // G[i,j] and G[j,i] apart: the gather must read columns of G, not rows.
    let _guard = pool_lock();
    let mut x = gram_data(40, 200, 13);
    for v in x.as_mut_slice() {
        *v += 3.7;
    }
    let col_sums = x.col_sums();
    let raw = x.t_matmul(&x).unwrap();
    let stats = SufficientStats::from_raw_moments(raw, col_sums, 200, Preprocess::Center).unwrap();
    let gram = &stats.gram;
    let asymmetric = (0..40).any(|i| (0..i).any(|j| gram[(i, j)] != gram[(j, i)]));
    assert!(asymmetric, "centered statistics came out exactly symmetric");
    let loss = GramLoss::from_stats(&stats, 0.1).unwrap();
    for (name, w) in iterates(40, 14) {
        let (value, grad) = loss.value_and_grad(&w).unwrap();
        let (ref_value, ref_grad) = reference_loss(gram, 200, 0.1, &w);
        assert!(value == ref_value, "{name}: {value:e} vs {ref_value:e}");
        assert_entries_eq(name, &grad, &ref_grad);
    }
}

/// One level of the reference forward pass.
struct RefLevel {
    s: DenseMatrix,
    r: Vec<f64>,
    c: Vec<f64>,
    b: Vec<f64>,
}

fn inv_or_zero(v: f64) -> f64 {
    if v > 0.0 {
        1.0 / v
    } else {
        0.0
    }
}

fn combine_sums(r: &[f64], c: &[f64], alpha: f64) -> Vec<f64> {
    r.iter()
        .zip(c)
        .map(|(&ri, &ci)| {
            if ri <= 0.0 || ci <= 0.0 {
                0.0
            } else {
                powf_floored(ri, alpha, POW_EPS) * powf_floored(ci, 1.0 - alpha, POW_EPS)
            }
        })
        .collect()
}

fn xy(r: &[f64], c: &[f64], alpha: f64) -> (Vec<f64>, Vec<f64>) {
    let mut x = Vec::with_capacity(r.len());
    let mut y = Vec::with_capacity(r.len());
    for (&ri, &ci) in r.iter().zip(c) {
        if ri <= 0.0 || ci <= 0.0 {
            x.push(0.0);
            y.push(0.0);
        } else {
            let ratio =
                powf_floored(ci, 1.0 - alpha, POW_EPS) / powf_floored(ri, 1.0 - alpha, POW_EPS);
            x.push(alpha * ratio);
            let ratio2 = powf_floored(ri, alpha, POW_EPS) / powf_floored(ci, alpha, POW_EPS);
            y.push((1.0 - alpha) * ratio2);
        }
    }
    (x, y)
}

fn row_grain(d: usize) -> usize {
    ((1 << 14) / d.max(1)).max(1)
}

/// The full-matrix forward pass: every level a fresh `d×d` matrix.
fn reference_forward(w: &DenseMatrix, k: usize, alpha: f64) -> (f64, Vec<RefLevel>) {
    let d = w.rows();
    let mut levels: Vec<RefLevel> = Vec::with_capacity(k + 1);
    let mut s = w.hadamard_square();
    for j in 0..=k {
        let r = s.row_sums();
        let c = s.col_sums();
        let b = combine_sums(&r, &c, alpha);
        let next = (j < k).then(|| {
            let inv: Vec<f64> = b.iter().map(|&x| inv_or_zero(x)).collect();
            let mut out = DenseMatrix::zeros(d, d);
            par::for_each_row_mut(out.as_mut_slice(), d, row_grain(d), |i, row_out| {
                let inv_i = inv[i];
                if inv_i == 0.0 {
                    return;
                }
                for ((o, &v), &bl) in row_out.iter_mut().zip(s.row(i)).zip(&b) {
                    *o = v * inv_i * bl;
                }
            });
            out
        });
        levels.push(RefLevel { s, r, c, b });
        match next {
            Some(n) => s = n,
            None => break,
        }
    }
    let delta = levels.last().unwrap().b.iter().sum();
    (delta, levels)
}

/// The full-matrix backward pass: `G` is a dense `d×d` matrix per level.
fn reference_backward(levels: &[RefLevel], w: &DenseMatrix, alpha: f64) -> DenseMatrix {
    let k = levels.len() - 1;
    let d = w.rows();
    let (xk, yk) = xy(&levels[k].r, &levels[k].c, alpha);
    let grain = row_grain(d);
    let mut g = DenseMatrix::zeros(d, d);
    par::for_each_row_mut(g.as_mut_slice(), d, grain, |i, row| {
        for (o, &yl) in row.iter_mut().zip(&yk) {
            *o = xk[i] + yl;
        }
    });
    for j in (1..=k).rev() {
        let level = &levels[j - 1];
        let b = &level.b;
        // The column scatter adds its terms in row order at every width.
        let mut z = vec![0.0; d];
        for (p, &bp) in b.iter().enumerate() {
            let inv_bp = inv_or_zero(bp);
            if inv_bp == 0.0 {
                continue;
            }
            for ((zq, &gv), &sv) in z.iter_mut().zip(g.row(p)).zip(level.s.row(p)) {
                *zq += gv * sv * inv_bp;
            }
        }
        par::for_each_row_mut(&mut z, 1, grain, |m, zm| {
            let inv_bm2 = inv_or_zero(b[m] * b[m]);
            if inv_bm2 == 0.0 {
                return;
            }
            let row_term: f64 = g
                .row(m)
                .iter()
                .zip(level.s.row(m))
                .zip(b)
                .map(|((&gv, &sv), &bq)| gv * sv * bq)
                .sum();
            zm[0] -= row_term * inv_bm2;
        });
        let (x, y) = xy(&level.r, &level.c, alpha);
        let mut g_new = DenseMatrix::zeros(d, d);
        par::for_each_row_mut(g_new.as_mut_slice(), d, grain, |i, out_row| {
            let inv_bi = inv_or_zero(b[i]);
            let xi_zi = x[i] * z[i];
            let g_row = g.row(i);
            for (l, o) in out_row.iter_mut().enumerate() {
                *o = g_row[l] * inv_bi * b[l] + xi_zi + y[l] * z[l];
            }
        });
        g = g_new;
    }
    let mut out = g.hadamard(w).unwrap();
    out.scale_inplace(2.0);
    out
}

#[test]
fn pattern_bound_equals_full_matrix_sweep() {
    let cases = iterates(D, 21);
    for (k, alpha) in [(5, 0.9), (2, 0.6), (0, 0.9)] {
        let bound = SpectralBound::new(k, alpha).unwrap();
        at_each_width(|width| {
            for (name, w) in &cases {
                let what = format!("{name}, k = {k}, width {width}");
                let fwd = bound.forward_dense(w).unwrap();
                let grad = backward_dense(&fwd, w);
                let (ref_delta, levels) = reference_forward(w, k, alpha);
                let ref_grad = reference_backward(&levels, w, alpha);
                assert!(
                    fwd.delta == ref_delta,
                    "{what}: δ̄ {:e}, reference {ref_delta:e}",
                    fwd.delta
                );
                assert_entries_eq(&what, &grad, &ref_grad);
            }
        });
    }
}

#[test]
fn pattern_bound_keeps_the_gradient_of_underflowing_entries() {
    // W[0,1] is nonzero but W[0,1]² underflows: S is zero there, yet the
    // reference gradient 2·G[0,1]·W[0,1] is a tiny nonzero value the
    // pattern pass must reproduce.
    let _guard = pool_lock();
    let mut w = DenseMatrix::zeros(3, 3);
    w[(0, 1)] = 1e-170;
    w[(0, 2)] = 0.5;
    w[(1, 2)] = 0.9;
    w[(2, 0)] = 0.8;
    w[(2, 1)] = 0.6;
    w[(1, 0)] = 0.7;
    let bound = SpectralBound::default();
    let grad = backward_dense(&bound.forward_dense(&w).unwrap(), &w);
    let (_, levels) = reference_forward(&w, 5, 0.9);
    let reference = reference_backward(&levels, &w, 0.9);
    assert!(reference[(0, 1)] != 0.0);
    assert_entries_eq("underflow", &grad, &reference);
}

/// FNV-1a 64 over the little-endian bits of every weight, row-major.
fn fnv1a64(w: &DenseMatrix) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in w.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn golden_two_round_thresholded_fit() {
    // Seeded d = 60 ER-2 problem on centered statistics, θ > 0, exactly
    // two rounds of 150 iterations. The hash was recorded on the full
    // d×d kernels; any drift in the dense solver's arithmetic changes it.
    let _guard = pool_lock();
    let d = 60;
    let mut rng = Xoshiro256pp::new(0x60_60);
    let truth = erdos_renyi_dag(d, 2, &mut rng);
    let w_true = weighted_adjacency_dense(&truth, WeightRange::default(), &mut rng);
    let x = sample_lsem(&w_true, 600, NoiseModel::standard_gaussian(), &mut rng).unwrap();
    let stats = SufficientStats::from_dataset(&Dataset::new(x), Preprocess::Center).unwrap();
    let config = LeastConfig {
        lambda: 0.05,
        theta: 0.05,
        max_outer: 2,
        max_inner: 150,
        inner_tol: 0.0,
        epsilon: 1e-12,
        seed: 17,
        ..Default::default()
    };
    let fit = LeastDense::new(config).unwrap().fit_stats(&stats).unwrap();
    let nnz = fit.weights.count_nonzero(0.0);
    let hash = fnv1a64(&fit.weights);
    assert_eq!(
        (fit.rounds, nnz, hash),
        (2, GOLDEN_NNZ, GOLDEN_HASH),
        "got hash {hash:#018x}"
    );
}

/// Recorded on the full-matrix kernels; the same at pool widths 1–3.
const GOLDEN_NNZ: usize = 97;
const GOLDEN_HASH: u64 = 0xb730_a056_6be6_6047;

/// ER-2 statistics at `d` (raw or centered), and a thresholded iterate:
/// a few entries in `[θ, 1)` in magnitude over noise below θ, which the
/// first filter removes.
fn filtered_problem(d: usize, center: bool, theta: f64, seed: u64) -> (GramLoss, DenseMatrix) {
    let mut rng = Xoshiro256pp::new(seed);
    let truth = erdos_renyi_dag(d, 2, &mut rng);
    let w_true = weighted_adjacency_dense(&truth, WeightRange::default(), &mut rng);
    let x = sample_lsem(&w_true, 400, NoiseModel::standard_gaussian(), &mut rng).unwrap();
    let preprocess = if center {
        Preprocess::Center
    } else {
        Preprocess::Raw
    };
    let stats = SufficientStats::from_dataset(&Dataset::new(x), preprocess).unwrap();
    let density = (4.0 / d as f64).min(0.5);
    let w = DenseMatrix::from_fn(d, d, |i, j| {
        if i == j {
            0.0
        } else if rng.bernoulli(density) {
            let v = rng.uniform(theta, 1.0);
            if rng.bernoulli(0.5) {
                v
            } else {
                -v
            }
        } else {
            rng.uniform(-0.9 * theta, 0.9 * theta)
        }
    });
    (GramLoss::from_stats(&stats, 0.05).unwrap(), w)
}

/// The `O(d²)` thresholded inner iteration the support path replaced,
/// verbatim: dense bound and loss, penalty axpy, Adam over all `d²`
/// entries, the diagonal re-zeroed, then the filter. Returns `(c, L)`.
fn reference_iteration(
    w: &mut DenseMatrix,
    loss: &GramLoss,
    bound: &SpectralBound,
    auglag: &AugLagState,
    adam: &mut AdamState,
    theta: f64,
) -> (f64, f64) {
    let (c, c_grad) = bound.value_and_gradient(w).unwrap();
    let (value, mut grad) = loss.value_and_grad(w).unwrap();
    grad.axpy(auglag.penalty_grad_coeff(c), &c_grad).unwrap();
    adam.step(w.as_mut_slice(), grad.as_slice());
    w.zero_diagonal();
    w.threshold_inplace(theta);
    (c, value)
}

/// `iters` inner iterations of the dense backend from `w`, filtering
/// each: the first on the dense iterate, the rest on its support.
/// Returns every iteration's `(c, L)` and the final weights.
fn support_iterations(
    w: DenseMatrix,
    loss: GramLoss,
    bound: &SpectralBound,
    auglag: &AugLagState,
    adam_cfg: AdamConfig,
    theta: f64,
    iters: usize,
) -> (Vec<(f64, f64)>, DenseMatrix) {
    fn run<B: WeightBackend<Grad = Vec<f64>>>(
        mut backend: B,
        auglag: &AugLagState,
        adam_cfg: AdamConfig,
        theta: f64,
        iters: usize,
    ) -> (Vec<(f64, f64)>, B::Weights) {
        let mut adam = AdamState::new(backend.num_params(), adam_cfg);
        let mut rng = Xoshiro256pp::new(0);
        let mut seen = Vec::with_capacity(iters);
        for _ in 0..iters {
            let (c, c_grad) = backend.constraint_value_and_grad().unwrap();
            let (value, mut grad) = backend.loss_value_and_grad(&mut rng).unwrap();
            B::add_scaled(&mut grad, auglag.penalty_grad_coeff(c), &c_grad).unwrap();
            backend.adam_step(&mut adam, &grad);
            assert!(backend.threshold(theta, &mut adam), "support emptied");
            seen.push((c, value));
        }
        (seen, backend.into_weights())
    }
    let backend = backend_at(w, loss, bound, 0.05).unwrap();
    run(backend, auglag, adam_cfg, theta, iters)
}

/// The augmented-Lagrangian state of a second round.
fn second_round() -> AugLagState {
    let mut auglag = AugLagState::new(LeastConfig::default().auglag());
    auglag.advance(0.5);
    auglag
}

#[test]
fn support_iteration_equals_the_dense_thresholded_iteration() {
    let theta = 0.05;
    let bound = SpectralBound::default();
    let auglag = second_round();
    let adam_cfg = AdamConfig::default();
    let iters = 60;
    for d in [5, 60, D] {
        for center in [false, true] {
            let (loss, w0) = filtered_problem(d, center, theta, 31 + d as u64);
            let mut reference = w0.clone();
            let mut adam = AdamState::new(d * d, adam_cfg);
            let ref_seen: Vec<(f64, f64)> = (0..iters)
                .map(|_| {
                    reference_iteration(&mut reference, &loss, &bound, &auglag, &mut adam, theta)
                })
                .collect();
            at_each_width(|width| {
                let what = format!("d = {d}, centered {center}, width {width}");
                let (seen, w) = support_iterations(
                    w0.clone(),
                    loss.clone(),
                    &bound,
                    &auglag,
                    adam_cfg,
                    theta,
                    iters,
                );
                for (it, (&(c, l), &(ref_c, ref_l))) in seen.iter().zip(&ref_seen).enumerate() {
                    assert!(
                        c == ref_c && l == ref_l,
                        "{what}, iteration {it}: (δ̄, L) = ({c:e}, {l:e}), reference ({ref_c:e}, {ref_l:e})"
                    );
                }
                assert_entries_eq(&what, &w, &reference);
            });
        }
    }
}

#[test]
fn a_filtered_entry_stays_zero_even_when_a_step_could_regrow_it() {
    // With lr > θ one Adam step can carry a zeroed entry past θ: the
    // dense iteration then lets it back, the support path never does.
    let theta = 0.05;
    let bound = SpectralBound::default();
    let auglag = second_round();
    let adam_cfg = AdamConfig {
        learning_rate: 0.2,
        ..AdamConfig::default()
    };
    let _guard = pool_lock();
    let (loss, w0) = filtered_problem(30, true, theta, 41);
    let run = |iters| {
        support_iterations(
            w0.clone(),
            loss.clone(),
            &bound,
            &auglag,
            adam_cfg,
            theta,
            iters,
        )
        .1
    };
    let first = run(1);
    let last = run(50);
    let zeroed = |w: &DenseMatrix, at: usize| w.as_slice()[at] == 0.0;
    let total = first.as_slice().len();
    let regrown = (0..total).filter(|&at| zeroed(&first, at) && !zeroed(&last, at));
    assert_eq!(
        regrown.count(),
        0,
        "an entry left the support and came back"
    );
    assert!(last.count_nonzero(0.0) > 0);

    let mut reference = w0.clone();
    let mut adam = AdamState::new(total, adam_cfg);
    reference_iteration(&mut reference, &loss, &bound, &auglag, &mut adam, theta);
    assert!(reference == first, "the first, dense iterations differ");
    for _ in 1..50 {
        reference_iteration(&mut reference, &loss, &bound, &auglag, &mut adam, theta);
    }
    let regrown = (0..total).filter(|&at| zeroed(&first, at) && !zeroed(&reference, at));
    assert!(
        regrown.count() > 0,
        "the dense iteration regrew nothing: lr does not exceed θ here"
    );
}

#[test]
fn golden_d200_fit_is_the_same_at_every_width() {
    // At d = 200 the backward pass's `z` scatter spans more rows than one
    // row grain (81), so a scatter split per worker would group its sums
    // by the pool width. Round 0's filter starts at iteration 10, when at
    // most 5 % of the entries are ≥ θ, and the fit then runs on W's
    // support. The hash was recorded at width 1; widths 2 and 3 must
    // reproduce it.
    let d = D;
    let mut rng = Xoshiro256pp::new(0x0200_0200);
    let truth = erdos_renyi_dag(d, 2, &mut rng);
    let w_true = weighted_adjacency_dense(&truth, WeightRange::default(), &mut rng);
    let x = sample_lsem(&w_true, 1000, NoiseModel::standard_gaussian(), &mut rng).unwrap();
    let stats = SufficientStats::from_dataset(&Dataset::new(x), Preprocess::Center).unwrap();
    let config = LeastConfig {
        lambda: 0.05,
        theta: 0.05,
        max_outer: 2,
        max_inner: 20,
        inner_tol: 0.0,
        epsilon: 1e-12,
        seed: 23,
        ..Default::default()
    };
    at_each_width(|width| {
        let fit = LeastDense::new(config).unwrap().fit_stats(&stats).unwrap();
        let nnz = fit.weights.count_nonzero(0.0);
        let hash = fnv1a64(&fit.weights);
        assert_eq!(
            (fit.rounds, nnz, hash),
            (2, GOLDEN_D200_NNZ, GOLDEN_D200_HASH),
            "width {width}: got nnz {nnz}, hash {hash:#018x}"
        );
    });
}

/// Recorded at pool width 1.
const GOLDEN_D200_NNZ: usize = 283;
const GOLDEN_D200_HASH: u64 = 0x138a_c599_5665_cce8;
