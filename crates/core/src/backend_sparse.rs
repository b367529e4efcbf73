//! Sparse backend for the unified engine — [`LeastSparse`], the paper's
//! LEAST-SP, for graphs where a dense `d×d` matrix no longer fits in
//! memory.
//!
//! Everything stays on the CSR pattern drawn at initialization:
//!
//! * the spectral bound and its masked gradient are `O(k·nnz)`
//!   (Section III-C / Lemma 5 of the paper);
//! * the loss gradient is restricted to the support, `O(B·(d + nnz))`;
//! * Adam state lives in two arrays parallel to the CSR values — exactly
//!   why the paper picked Adam: it "does not generate dense matrices
//!   during the computation process";
//! * thresholding (Fig. 3 line 9) *removes* pattern slots, compacting the
//!   optimizer moments in lock-step, so `W` only ever gets sparser.
//!
//! The support never grows: as in the paper's implementation, the random
//! initial pattern (density `ζ`) is the search space. That trades recall
//! for the ability to scale to 10⁵ nodes — the paper's Fig. 5 experiments
//! measure constraint convergence, not recovery, in this regime.
//!
//! The loss is picked once, by the entry point: `fit` always trains on
//! support-restricted residuals of `batch_size` rows (all rows when
//! unset) — even a full batch, since this backend exists for the `d`
//! where a dense `d×d` Gram no longer fits — and `fit_stats` trains from
//! the statistics' `G`.

use crate::bound::SpectralBound;
use crate::config::LeastConfig;
use crate::engine::{self, Learned, LeastSolver, WeightBackend, H_SCC_CAP};
use crate::grad::backward_sparse;
use crate::loss::{sparse_value_and_grad, GramLoss, Loss};
use least_data::{Dataset, SufficientStats};
use least_graph::{sparse_h, DiGraph};
use least_linalg::{init, CsrMatrix, Result, Xoshiro256pp};
use least_optim::AdamState;

/// Marker type selecting the sparse backend.
#[derive(Debug, Clone, Copy)]
pub struct Sparse;

/// Sparse LEAST solver (an instantiation of the generic engine).
pub type LeastSparse = LeastSolver<Sparse>;

/// Result of a sparse fit.
pub type LearnedSparse = Learned<CsrMatrix>;

impl Learned<CsrMatrix> {
    /// Graph view after filtering weights at `|w| > tau`.
    pub fn graph(&self, tau: f64) -> DiGraph {
        DiGraph::from_csr(&self.weights, tau)
    }
}

impl LeastSparse {
    /// Create a solver, validating the configuration. The sparse solver
    /// requires an initialization density `ζ` (the paper uses 1e-4).
    pub fn new(config: LeastConfig) -> Result<Self> {
        config.validate_sparse()?;
        Ok(Self::from_validated(config))
    }

    /// Fit the spectral-bound LEAST model on the dataset.
    pub fn fit(&self, data: &Dataset) -> Result<LearnedSparse> {
        let batch = self.config().batch_size.unwrap_or(data.num_samples());
        self.run(data.num_vars(), Loss::Residual { data, batch })
    }

    /// Fit from precomputed sufficient statistics: per-iteration cost
    /// `O(Σ_slots nnz(col))` on the support, independent of `n` (see
    /// DESIGN.md §9). Note the Gram matrix is dense `d×d`, so this path
    /// suits the "huge `n`, moderate `d`" regime; at the paper's 10⁵-node
    /// scale the support-restricted mini-batch path remains the right tool.
    pub fn fit_stats(&self, stats: &SufficientStats) -> Result<LearnedSparse> {
        let loss = Loss::Gram(GramLoss::from_stats(stats, self.config().lambda)?);
        self.run(stats.dim(), loss)
    }

    fn run(&self, d: usize, loss: Loss<'_>) -> Result<LearnedSparse> {
        let cfg = self.config();
        let mut rng = Xoshiro256pp::new(cfg.seed);
        let backend = SparseState::init(cfg, d, loss, &mut rng)?;
        engine::run(cfg, backend, &mut rng)
    }
}

/// Live sparse engine state: the CSR iterate, its loss and the hardwired
/// spectral bound (the masked `O(k·nnz)` backward pass has no
/// dense-constraint counterpart to be generic over).
struct SparseState<'a> {
    w: CsrMatrix,
    bound: SpectralBound,
    loss: Loss<'a>,
    lambda: f64,
    /// Multiply-adds of the last loss evaluation.
    loss_madds: u64,
}

impl<'a> SparseState<'a> {
    fn init(cfg: &LeastConfig, d: usize, loss: Loss<'a>, rng: &mut Xoshiro256pp) -> Result<Self> {
        let bound = SpectralBound::new(cfg.k, cfg.alpha)?;
        let zeta = cfg.init_density.expect("validated in new()");
        let w = init::glorot_sparse(d, zeta, rng)?;
        Ok(Self {
            w,
            bound,
            loss,
            lambda: cfg.lambda,
            loss_madds: 0,
        })
    }
}

impl WeightBackend for SparseState<'_> {
    type Weights = CsrMatrix;
    type Grad = Vec<f64>;

    fn num_params(&self) -> usize {
        self.w.nnz()
    }

    fn constraint_value_and_grad(&mut self) -> Result<(f64, Vec<f64>)> {
        let fwd = self.bound.forward_sparse(&self.w)?;
        let grad = backward_sparse(&fwd, &self.w);
        Ok((fwd.delta, grad))
    }

    fn constraint_value(&mut self) -> Result<f64> {
        self.bound.value_sparse(&self.w)
    }

    fn loss_value_and_grad(&mut self, rng: &mut Xoshiro256pp) -> Result<(f64, Vec<f64>)> {
        match &self.loss {
            Loss::Gram(g) => {
                // One product per (slot, entry of the slot's column).
                let mut col_nnz = vec![0u64; self.w.cols()];
                for &l in self.w.col_indices() {
                    col_nnz[l as usize] += 1;
                }
                self.loss_madds = col_nnz.iter().map(|n| n * n).sum();
                g.sparse_value_and_grad(&self.w)
            }
            Loss::Residual { data, batch } => {
                let x = data.sample_batch(*batch, rng);
                // A residual and a gradient product per (row, slot).
                self.loss_madds = 2 * (x.rows() * self.w.nnz()) as u64;
                sparse_value_and_grad(&x, &self.w, self.lambda)
            }
        }
    }

    fn loss_madds(&self) -> u64 {
        self.loss_madds
    }

    fn add_scaled(grad: &mut Vec<f64>, coeff: f64, other: &Vec<f64>) -> Result<()> {
        for (g, &cg) in grad.iter_mut().zip(other) {
            *g += coeff * cg;
        }
        Ok(())
    }

    fn adam_step(&mut self, adam: &mut AdamState, grad: &Vec<f64>) {
        adam.step(self.w.values_mut(), grad);
    }

    fn count_at_least(&self, theta: f64) -> usize {
        self.w.values().iter().filter(|v| v.abs() >= theta).count()
    }

    fn threshold(&mut self, theta: f64, adam: &mut AdamState) -> bool {
        let kept = self.w.threshold(theta);
        if kept.len() < adam.len() {
            adam.compact(&kept);
        }
        self.w.nnz() > 0
    }

    fn nnz(&self) -> usize {
        self.w.nnz()
    }

    fn exact_h(&self) -> f64 {
        sparse_h(&self.w.hadamard_square(), H_SCC_CAP).h
    }

    fn into_weights(self) -> CsrMatrix {
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_data::{sample_lsem_sparse, NoiseModel};
    use least_graph::{erdos_renyi_dag, weighted_adjacency_sparse, WeightRange};

    fn er_dataset(d: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256pp::new(seed);
        let g = erdos_renyi_dag(d, 2, &mut rng);
        let w = weighted_adjacency_sparse(&g, WeightRange::default(), &mut rng);
        let x = sample_lsem_sparse(&w, n, NoiseModel::standard_gaussian(), &mut rng).unwrap();
        Dataset::new(x)
    }

    fn sparse_config(zeta: f64) -> LeastConfig {
        LeastConfig {
            init_density: Some(zeta),
            batch_size: Some(128),
            theta: 1e-3,
            lambda: 0.05,
            epsilon: 1e-6,
            max_outer: 8,
            max_inner: 150,
            ..Default::default()
        }
    }

    #[test]
    fn constraint_converges_on_er_graph() {
        let data = er_dataset(60, 300, 401);
        let solver = LeastSparse::new(sparse_config(0.05)).unwrap();
        let result = solver.fit(&data).unwrap();
        assert!(
            result.final_constraint < 1e-4,
            "constraint {}",
            result.final_constraint
        );
    }

    #[test]
    fn h_tracks_to_near_zero() {
        let data = er_dataset(40, 200, 402);
        let mut cfg = sparse_config(0.08);
        cfg.track_h = true;
        let solver = LeastSparse::new(cfg).unwrap();
        let result = solver.fit(&data).unwrap();
        let h = result.trace.last().unwrap().h.unwrap();
        assert!(h < 1e-3, "h = {h}");
    }

    #[test]
    fn support_never_grows() {
        let data = er_dataset(50, 200, 403);
        let solver = LeastSparse::new(sparse_config(0.06)).unwrap();
        let result = solver.fit(&data).unwrap();
        let mut prev = usize::MAX;
        for p in result.trace.points() {
            assert!(p.nnz <= prev, "support grew: {} -> {}", prev, p.nnz);
            prev = p.nnz;
        }
    }

    #[test]
    fn requires_init_density() {
        let cfg = LeastConfig {
            init_density: None,
            ..Default::default()
        };
        assert!(LeastSparse::new(cfg).is_err());
    }

    #[test]
    fn thresholded_graph_is_dag() {
        let data = er_dataset(40, 200, 404);
        let solver = LeastSparse::new(sparse_config(0.08)).unwrap();
        let result = solver.fit(&data).unwrap();
        assert!(result.graph(0.3).is_dag());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = er_dataset(30, 150, 405);
        let solver = LeastSparse::new(sparse_config(0.1)).unwrap();
        let a = solver.fit(&data).unwrap();
        let b = solver.fit(&data).unwrap();
        assert!(a.weights.approx_eq(&b.weights, 0.0));
    }

    #[test]
    fn stats_fit_converges_and_is_deterministic() {
        use least_data::{Preprocess, SufficientStats};
        let data = er_dataset(40, 250, 406);
        let stats = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
        let solver = LeastSparse::new(sparse_config(0.08)).unwrap();
        let a = solver.fit_stats(&stats).unwrap();
        assert!(
            a.final_constraint < 1e-4,
            "constraint {}",
            a.final_constraint
        );
        assert!(a.graph(0.3).is_dag());
        let b = solver.fit_stats(&stats).unwrap();
        assert!(a.weights.approx_eq(&b.weights, 0.0));
    }
}
