//! The sparse backend's results do not depend on the pool width.
//!
//! Every sum on the sparse fit's path — the mini-batch residual loss, the
//! sparse Gram loss, the masked BACKWARD's `z` scatter and the CSR column
//! sums of the FORWARD — runs in the serial loop's order, and only
//! disjoint per-entry writes run in parallel (DESIGN.md §5). The two loss
//! kernels are compared here with verbatim serial formulations, and the
//! bound and whole fits (from a `Dataset` with `B < n` and from
//! `SufficientStats`) across pool widths 1–4, at sizes that split every
//! one of those kernels at width 2. Golden hashes pin both fits to the
//! serial path's bits.

use least_core::grad::backward_sparse;
use least_core::loss::sparse_value_and_grad;
use least_core::{GramLoss, LeastConfig, LeastSparse, SpectralBound};
use least_data::{sample_lsem, Dataset, NoiseModel, Preprocess, SufficientStats};
use least_graph::{erdos_renyi_dag, weighted_adjacency_dense, WeightRange};
use least_linalg::{init, par, CsrMatrix, DenseMatrix, Xoshiro256pp};
use std::sync::{Mutex, MutexGuard};

/// The pool width is process-global: every test here holds this lock, so
/// none runs while another has the width pinned.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    // The lock guards no data, so a panicked holder leaves nothing broken.
    POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` at pool widths 1 to 4.
fn at_each_width(mut f: impl FnMut(usize)) {
    let _guard = pool_lock();
    for width in 1..=4 {
        par::set_thread_override(Some(width));
        f(width);
    }
    par::set_thread_override(None);
}

fn sign(v: f64) -> f64 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Assert `got` and `want` hold the same bits, naming the first entry
/// that differs.
fn assert_bits_eq(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(at) = (0..got.len()).find(|&at| got[at].to_bits() != want[at].to_bits()) {
        panic!(
            "{what}: entry {at} is {:e}, serially {:e}",
            got[at], want[at]
        );
    }
}

/// FNV-1a 64 over the little-endian bits of the stored values, in slot
/// order.
fn fnv1a64(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// `n` samples of a seeded ER-2 LSEM on `d` nodes.
fn er_data(d: usize, n: usize, seed: u64) -> DenseMatrix {
    let mut rng = Xoshiro256pp::new(seed);
    let truth = erdos_renyi_dag(d, 2, &mut rng);
    let w = weighted_adjacency_dense(&truth, WeightRange::default(), &mut rng);
    sample_lsem(&w, n, NoiseModel::standard_gaussian(), &mut rng).unwrap()
}

/// The serial mini-batch residual loss: one sweep of the samples in
/// order, every sum from `+0`.
fn reference_residual_loss(x: &DenseMatrix, w: &CsrMatrix, lambda: f64) -> (f64, Vec<f64>) {
    let d = w.rows();
    let (row_ptr, col_idx, vals) = (w.row_pointers(), w.col_indices(), w.values());
    let mut grad = vec![0.0; w.nnz()];
    let mut residual = vec![0.0; d];
    let mut smooth = 0.0;
    for s in 0..x.rows() {
        let x_row = x.row(s);
        residual.copy_from_slice(x_row);
        for r in &mut residual {
            *r = -*r;
        }
        for (j, &xj) in x_row.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for slot in row_ptr[j] as usize..row_ptr[j + 1] as usize {
                residual[col_idx[slot] as usize] += xj * vals[slot];
            }
        }
        smooth += residual.iter().map(|r| r * r).sum::<f64>();
        for (j, &xj) in x_row.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for slot in row_ptr[j] as usize..row_ptr[j + 1] as usize {
                grad[slot] += xj * residual[col_idx[slot] as usize];
            }
        }
    }
    let b = x.rows() as f64;
    smooth /= b;
    for g in &mut grad {
        *g *= 2.0 / b;
    }
    let l1: f64 = vals.iter().map(|v| v.abs()).sum();
    for (g, &v) in grad.iter_mut().zip(vals) {
        *g += lambda * sign(v);
    }
    (smooth + lambda * l1, grad)
}

/// The serial sparse Gram loss: `(G·W)[j,l]` along column `l` of `W` in
/// ascending row order, and `⟨W, G⟩`, `⟨W, G·W⟩` in slot order.
fn reference_gram_loss(stats: &SufficientStats, w: &CsrMatrix, lambda: f64) -> (f64, Vec<f64>) {
    let (g, n) = (&stats.gram, stats.n as f64);
    let d = w.rows();
    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); d];
    for (r, l, v) in w.iter() {
        cols[l].push((r, v));
    }
    let (mut wg, mut wm) = (0.0, 0.0);
    let mut grad = Vec::with_capacity(w.nnz());
    for (j, l, v) in w.iter() {
        let mut m = 0.0;
        for &(r, wv) in &cols[l] {
            m += g[(j, r)] * wv;
        }
        wg += v * g[(j, l)];
        wm += v * m;
        grad.push(2.0 / n * (m - g[(j, l)]) + lambda * sign(v));
    }
    let trace: f64 = (0..d).map(|i| g[(i, i)]).sum();
    let smooth = (trace - 2.0 * wg + wm) / n;
    let l1: f64 = w.values().iter().map(|v| v.abs()).sum();
    (smooth + lambda * l1, grad)
}

#[test]
fn residual_loss_keeps_the_serial_sum_order() {
    // 64 samples and 200 CSR rows split at width 2; exact zeros in the
    // batch exercise the skipped terms.
    let mut x = er_data(200, 64, 0x5e1);
    for s in 0..x.rows() {
        x[(s, (7 * s) % 200)] = 0.0;
    }
    let mut rng = Xoshiro256pp::new(0x5e2);
    let w = init::glorot_sparse(200, 0.1, &mut rng).unwrap();
    let (want_value, want_grad) = reference_residual_loss(&x, &w, 0.05);
    at_each_width(|width| {
        let (value, grad) = sparse_value_and_grad(&x, &w, 0.05).unwrap();
        assert_eq!(
            value.to_bits(),
            want_value.to_bits(),
            "value, width {width}"
        );
        assert_bits_eq(&format!("gradient, width {width}"), &grad, &want_grad);
    });
}

#[test]
fn gram_loss_keeps_the_serial_sum_order() {
    // Centered statistics; d = 200 splits the slot products at width 2.
    let x = er_data(200, 300, 0x5e3);
    let stats = SufficientStats::from_dataset(&Dataset::new(x), Preprocess::Center).unwrap();
    let mut rng = Xoshiro256pp::new(0x5e4);
    let w = init::glorot_sparse(200, 0.1, &mut rng).unwrap();
    let (want_value, want_grad) = reference_gram_loss(&stats, &w, 0.05);
    let loss = GramLoss::from_stats(&stats, 0.05).unwrap();
    at_each_width(|width| {
        let (value, grad) = loss.sparse_value_and_grad(&w).unwrap();
        assert_eq!(
            value.to_bits(),
            want_value.to_bits(),
            "value, width {width}"
        );
        assert_bits_eq(&format!("gradient, width {width}"), &grad, &want_grad);
    });
}

#[test]
fn sparse_bound_is_the_same_at_every_width() {
    // 2¹⁶ + slots: the CSR kernels and the backward's slot loops all
    // split at width 2.
    let mut rng = Xoshiro256pp::new(0x5e5);
    let w = init::glorot_sparse(300, 0.75, &mut rng).unwrap();
    assert!(w.nnz() >= 1 << 16, "nnz {}", w.nnz());
    let bound = SpectralBound::default();
    let mut want: Option<(f64, Vec<f64>)> = None;
    at_each_width(|width| {
        let fwd = bound.forward_sparse(&w).unwrap();
        let got = (fwd.delta, backward_sparse(&fwd, &w));
        let want = want.get_or_insert_with(|| got.clone());
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "bound, width {width}");
        assert_bits_eq(&format!("gradient, width {width}"), &got.1, &want.1);
    });
}

/// A sparse config whose initial support (ζ = 0.9 at d = 200, ~36k slots)
/// splits every kernel at width 2, run for two short rounds.
fn wide_config() -> LeastConfig {
    let mut cfg = LeastConfig {
        init_density: Some(0.9),
        batch_size: Some(48),
        lambda: 0.05,
        theta: 1e-2,
        max_outer: 2,
        max_inner: 12,
        inner_tol: 0.0,
        epsilon: 1e-12,
        seed: 0x5e6,
        ..Default::default()
    };
    cfg.adam.learning_rate = 0.02;
    cfg
}

/// Fit at every width; assert one pattern and one set of value bits, and
/// return `(nnz, hash)` of that fit.
fn fit_at_each_width(fit: impl Fn() -> CsrMatrix) -> (usize, u64) {
    let mut want: Option<CsrMatrix> = None;
    at_each_width(|width| {
        let got = fit();
        let want = want.get_or_insert_with(|| got.clone());
        assert_eq!(got.row_pointers(), want.row_pointers(), "width {width}");
        assert_eq!(got.col_indices(), want.col_indices(), "width {width}");
        assert_bits_eq(
            &format!("weights, width {width}"),
            got.values(),
            want.values(),
        );
    });
    let w = want.expect("at least one width");
    (w.nnz(), fnv1a64(w.values()))
}

#[test]
fn sparse_fit_from_data_is_the_same_at_every_width() {
    let data = Dataset::new(er_data(200, 120, 0x5e7));
    let solver = LeastSparse::new(wide_config()).unwrap();
    let got = fit_at_each_width(|| solver.fit(&data).unwrap().weights);
    assert_eq!(got, GOLDEN_DATA_FIT, "got hash {:#018x}", got.1);
}

#[test]
fn sparse_fit_from_stats_is_the_same_at_every_width() {
    let data = Dataset::new(er_data(200, 120, 0x5e8));
    let stats = SufficientStats::from_dataset(&data, Preprocess::Center).unwrap();
    let solver = LeastSparse::new(wide_config()).unwrap();
    let got = fit_at_each_width(|| solver.fit_stats(&stats).unwrap().weights);
    assert_eq!(got, GOLDEN_STATS_FIT, "got hash {:#018x}", got.1);
}

/// `(nnz, FNV-1a 64 of the values)` of the two fits, recorded at pool
/// width 1 on the kernels before they became width-free, whose width-1
/// sums ran in the order kept now.
const GOLDEN_DATA_FIT: (usize, u64) = (739, 0xab52_d704_5ede_7030);
const GOLDEN_STATS_FIT: (usize, u64) = (753, 0x44f6_6d76_61bf_ded4);
