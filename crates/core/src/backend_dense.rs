//! Dense backend for the unified engine — [`LeastDense`], the paper's
//! LEAST-TF analogue.
//!
//! The backend is generic over the [`Acyclicity`] constraint: plugging in
//! [`crate::SpectralBound`] gives LEAST; plugging in the constraints from
//! `least-notears` gives the baselines on *identical* optimizer machinery
//! (the shared [`crate::engine`] loop), so benchmark differences isolate
//! exactly what the paper claims — the cost of the constraint.
//!
//! The loss is picked once, by the entry point: `fit` trains from
//! `G = XᵀX` when the run is full batch (`batch_size` unset or ≥ n) and
//! on mini-batch residuals otherwise; `fit_stats` always trains from the
//! statistics' `G`. A full-batch `fit` and `fit_stats` on the same data
//! therefore give identical weights.

use crate::config::LeastConfig;
use crate::constraint::Acyclicity;
use crate::engine::{self, Learned, LeastSolver, WeightBackend, H_SCC_CAP};
use crate::loss::{batch_value_and_grad, GramLoss, Loss};
use least_data::{Dataset, SufficientStats};
use least_graph::{sparse_h, DiGraph};
use least_linalg::{init, CsrMatrix, DenseMatrix, Result, Xoshiro256pp};
use least_optim::AdamState;

/// Marker type selecting the dense backend.
#[derive(Debug, Clone, Copy)]
pub struct Dense;

/// Dense LEAST solver (an instantiation of the generic engine).
pub type LeastDense = LeastSolver<Dense>;

/// Result of a dense fit.
pub type LearnedDense = Learned<DenseMatrix>;

impl Learned<DenseMatrix> {
    /// Graph view after filtering weights at `|w| > tau`.
    pub fn graph(&self, tau: f64) -> DiGraph {
        DiGraph::from_dense(&self.weights, tau)
    }

    /// Thresholded copy of the weights.
    pub fn thresholded_weights(&self, tau: f64) -> DenseMatrix {
        let mut w = self.weights.clone();
        w.threshold_inplace(tau);
        w
    }
}

impl LeastDense {
    /// Create a solver, validating the configuration.
    pub fn new(config: LeastConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self::from_validated(config))
    }

    /// Fit with the paper's spectral-bound constraint.
    pub fn fit(&self, data: &Dataset) -> Result<LearnedDense> {
        let cfg = self.config();
        let bound = crate::SpectralBound::new(cfg.k, cfg.alpha)?;
        self.fit_with_constraint(data, &bound)
    }

    /// Fit with an arbitrary differentiable acyclicity constraint
    /// (the NOTEARS baselines plug in here).
    pub fn fit_with_constraint(
        &self,
        data: &Dataset,
        constraint: &dyn Acyclicity,
    ) -> Result<LearnedDense> {
        let cfg = self.config();
        let loss = match cfg.batch_size {
            Some(batch) if batch < data.num_samples() => Loss::Residual { data, batch },
            _ => Loss::Gram(GramLoss::new(data.matrix(), cfg.lambda)?),
        };
        self.run(data.num_vars(), loss, constraint)
    }

    /// Fit from precomputed sufficient statistics with the paper's
    /// spectral-bound constraint: the raw data never has to be in memory
    /// (or exist at all — statistics are typically the product of a
    /// one-pass out-of-core ingestion; see `least-ingest` / DESIGN.md §9).
    /// Per-iteration cost is `O(d² + d·nnz(W))` — `O(d³)` only while `W`
    /// is still dense — independent of `n` (DESIGN.md §2.1).
    pub fn fit_stats(&self, stats: &SufficientStats) -> Result<LearnedDense> {
        let cfg = self.config();
        let bound = crate::SpectralBound::new(cfg.k, cfg.alpha)?;
        self.fit_stats_with_constraint(stats, &bound)
    }

    /// [`Self::fit_stats`] with an arbitrary differentiable constraint.
    pub fn fit_stats_with_constraint(
        &self,
        stats: &SufficientStats,
        constraint: &dyn Acyclicity,
    ) -> Result<LearnedDense> {
        let loss = Loss::Gram(GramLoss::from_stats(stats, self.config().lambda)?);
        self.run(stats.dim(), loss, constraint)
    }

    fn run(&self, d: usize, loss: Loss<'_>, constraint: &dyn Acyclicity) -> Result<LearnedDense> {
        let cfg = self.config();
        let mut rng = Xoshiro256pp::new(cfg.seed);
        let backend = DenseState::init(cfg, d, loss, constraint, &mut rng)?;
        engine::run(cfg, backend, &mut rng)
    }
}

/// Live dense engine state: the iterate, its loss and its constraint.
struct DenseState<'a> {
    w: DenseMatrix,
    loss: Loss<'a>,
    constraint: &'a dyn Acyclicity,
    lambda: f64,
}

impl<'a> DenseState<'a> {
    fn init(
        cfg: &LeastConfig,
        d: usize,
        loss: Loss<'a>,
        constraint: &'a dyn Acyclicity,
        rng: &mut Xoshiro256pp,
    ) -> Result<Self> {
        let mut w = match cfg.init_density {
            Some(zeta) => init::glorot_sparse(d, zeta, rng)?.to_dense(),
            None => init::glorot_dense(d, rng),
        };
        w.zero_diagonal();
        Ok(Self {
            w,
            loss,
            constraint,
            lambda: cfg.lambda,
        })
    }
}

impl WeightBackend for DenseState<'_> {
    type Weights = DenseMatrix;
    type Grad = DenseMatrix;

    fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols()
    }

    fn constraint_value_and_grad(&mut self) -> Result<(f64, DenseMatrix)> {
        self.constraint.value_and_gradient(&self.w)
    }

    fn constraint_value(&mut self) -> Result<f64> {
        self.constraint.value(&self.w)
    }

    fn loss_value_and_grad(&mut self, rng: &mut Xoshiro256pp) -> Result<(f64, DenseMatrix)> {
        match &self.loss {
            Loss::Gram(g) => g.value_and_grad(&self.w),
            Loss::Residual { data, batch } => {
                batch_value_and_grad(&data.sample_batch(*batch, rng), &self.w, self.lambda)
            }
        }
    }

    fn add_scaled(grad: &mut DenseMatrix, coeff: f64, other: &DenseMatrix) -> Result<()> {
        grad.axpy(coeff, other)
    }

    fn adam_step(&mut self, adam: &mut AdamState, grad: &DenseMatrix) {
        adam.step(self.w.as_mut_slice(), grad.as_slice());
        self.w.zero_diagonal();
    }

    fn threshold(&mut self, theta: f64, _adam: &mut AdamState) -> bool {
        // Dense zeroing keeps the full parameter vector: Adam state stays
        // aligned, and a zeroed entry may regrow.
        self.w.threshold_inplace(theta);
        true
    }

    fn nnz(&self) -> usize {
        self.w.count_nonzero(0.0)
    }

    fn exact_h(&self) -> f64 {
        let s = CsrMatrix::from_dense(&self.w.hadamard_square(), 0.0);
        sparse_h(&s, H_SCC_CAP).h
    }

    fn into_weights(self) -> DenseMatrix {
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_data::{sample_lsem, NoiseModel};
    use least_graph::{weighted_adjacency_dense, WeightRange};
    use least_metrics::{best_threshold, grid::paper_tau_grid};

    fn chain_dataset(d: usize, n: usize, seed: u64) -> (DiGraph, Dataset) {
        let mut rng = Xoshiro256pp::new(seed);
        let truth = DiGraph::from_edges(d, &(0..d - 1).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let w = weighted_adjacency_dense(&truth, WeightRange { lo: 1.0, hi: 2.0 }, &mut rng);
        let x = sample_lsem(&w, n, NoiseModel::standard_gaussian(), &mut rng).unwrap();
        (truth, Dataset::new(x))
    }

    fn fast_config() -> LeastConfig {
        // lr 0.02 / 500 inner iterations: the paper's lr 0.01 with 200-300
        // iterations under-optimizes each AL subproblem at unit-test scale,
        // leaving shortcut edges (marginal-correlation traps) in place.
        let mut cfg = LeastConfig {
            lambda: 0.05,
            epsilon: 1e-6,
            max_outer: 10,
            max_inner: 500,
            ..Default::default()
        };
        cfg.adam.learning_rate = 0.02;
        cfg
    }

    #[test]
    fn recovers_chain_structure() {
        let (truth, data) = chain_dataset(5, 600, 301);
        let solver = LeastDense::new(fast_config()).unwrap();
        let result = solver.fit(&data).unwrap();
        assert!(
            result.final_constraint < 1e-3,
            "constraint {}",
            result.final_constraint
        );
        let (points, best) = best_threshold(&truth, &result.weights, &paper_tau_grid());
        assert!(
            points[best].metrics.f1 > 0.85,
            "F1 {} at tau {}",
            points[best].metrics.f1,
            points[best].tau
        );
    }

    #[test]
    fn learned_graph_is_acyclic_after_threshold() {
        let (_, data) = chain_dataset(6, 400, 302);
        let solver = LeastDense::new(fast_config()).unwrap();
        let result = solver.fit(&data).unwrap();
        assert!(result.graph(0.3).is_dag(), "thresholded graph has a cycle");
    }

    #[test]
    fn diagonal_stays_zero() {
        let (_, data) = chain_dataset(5, 200, 303);
        let solver = LeastDense::new(fast_config()).unwrap();
        let result = solver.fit(&data).unwrap();
        for i in 0..5 {
            assert_eq!(result.weights[(i, i)], 0.0);
        }
    }

    #[test]
    fn trace_is_recorded_and_constraint_decreases() {
        let (_, data) = chain_dataset(5, 200, 304);
        let mut cfg = fast_config();
        cfg.track_h = true;
        let solver = LeastDense::new(cfg).unwrap();
        let result = solver.fit(&data).unwrap();
        assert!(!result.trace.is_empty());
        let first = result.trace.points().first().unwrap().delta;
        let last = result.trace.last().unwrap().delta;
        assert!(last <= first, "constraint grew: {first} -> {last}");
        // h is tracked and finite.
        assert!(result.trace.last().unwrap().h.unwrap().is_finite());
    }

    #[test]
    fn h_termination_mode_converges_to_dag_metric() {
        let (_, data) = chain_dataset(5, 300, 305);
        let mut cfg = fast_config();
        cfg.terminate_on_h = true;
        let solver = LeastDense::new(cfg).unwrap();
        let result = solver.fit(&data).unwrap();
        let h = result.trace.last().unwrap().h.unwrap();
        assert!(h < 1e-3, "h = {h}");
    }

    #[test]
    fn minibatch_mode_runs() {
        let (_, data) = chain_dataset(5, 300, 306);
        let mut cfg = fast_config();
        cfg.batch_size = Some(64);
        let solver = LeastDense::new(cfg).unwrap();
        let result = solver.fit(&data).unwrap();
        assert!(result.final_constraint < 1e-2);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(LeastDense::new(LeastConfig {
            alpha: 1.0,
            ..Default::default()
        })
        .is_err());
        assert!(LeastDense::new(LeastConfig {
            max_inner: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, data) = chain_dataset(4, 150, 307);
        let solver = LeastDense::new(fast_config()).unwrap();
        let a = solver.fit(&data).unwrap();
        let b = solver.fit(&data).unwrap();
        assert!(a.weights.approx_eq(&b.weights, 0.0));
    }

    #[test]
    fn stats_fit_is_bit_identical_to_full_batch_data_fit() {
        // A full-batch fit uses GramLoss::new(X); fit_stats adopts the
        // identical t_matmul product, so the trajectories coincide exactly.
        // A batch of n or more rows is full batch too.
        use least_data::{Preprocess, SufficientStats};
        let (_, data) = chain_dataset(5, 300, 308);
        let n = data.num_samples();
        let stats = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
        let from_stats = LeastDense::new(fast_config())
            .unwrap()
            .fit_stats(&stats)
            .unwrap();
        for batch_size in [None, Some(n), Some(n + 7)] {
            let cfg = LeastConfig {
                batch_size,
                ..fast_config()
            };
            let from_data = LeastDense::new(cfg).unwrap().fit(&data).unwrap();
            assert!(
                from_data.weights == from_stats.weights,
                "batch_size {batch_size:?}"
            );
            assert_eq!(from_data.rounds, from_stats.rounds);
        }
    }
}
