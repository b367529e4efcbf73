//! Dense backend for the unified engine — [`LeastDense`], the paper's
//! LEAST-TF analogue.
//!
//! The backend is generic over the [`Acyclicity`] constraint: plugging in
//! [`crate::SpectralBound`] gives LEAST; plugging in the constraints from
//! `least-notears` gives the baselines on *identical* optimizer machinery
//! (the shared [`crate::engine`] loop), so benchmark differences isolate
//! exactly what the paper claims — the cost of the constraint.

use crate::config::{LeastConfig, LossPath};
use crate::constraint::Acyclicity;
use crate::engine::{self, Learned, LeastSolver, TrainSource, WeightBackend, H_SCC_CAP};
use crate::loss::{batch_value_and_grad, GramLoss};
use least_data::{Dataset, SufficientStats};
use least_graph::{sparse_h, DiGraph};
use least_linalg::{init, CsrMatrix, DenseMatrix, LinalgError, Result, Xoshiro256pp};
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
        engine::validate_config(&config, false)?;
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
        self.fit_source(&TrainSource::Data(data), constraint)
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
    /// (A `loss_path = Data` configuration is rejected: statistics carry
    /// no raw data to evaluate a residual loss on.)
    pub fn fit_stats_with_constraint(
        &self,
        stats: &SufficientStats,
        constraint: &dyn Acyclicity,
    ) -> Result<LearnedDense> {
        self.fit_source(&TrainSource::Stats(stats), constraint)
    }

    fn fit_source(
        &self,
        source: &TrainSource<'_>,
        constraint: &dyn Acyclicity,
    ) -> Result<LearnedDense> {
        let cfg = self.config();
        let mut rng = Xoshiro256pp::new(cfg.seed);
        let backend = DenseState::init(cfg, source, constraint, &mut rng)?;
        engine::run(cfg, source, backend, &mut rng)
    }
}

/// Live dense engine state: the iterate plus the loss specialization.
struct DenseState<'a> {
    w: DenseMatrix,
    /// Precomputed `XᵀX` loss for full-batch runs; `None` = mini-batch.
    gram: Option<GramLoss>,
    constraint: &'a dyn Acyclicity,
    lambda: f64,
    batch_size: Option<usize>,
}

impl<'a> DenseState<'a> {
    fn init(
        cfg: &LeastConfig,
        source: &TrainSource<'_>,
        constraint: &'a dyn Acyclicity,
        rng: &mut Xoshiro256pp,
    ) -> Result<Self> {
        let d = source.num_vars();
        let mut w = match cfg.init_density {
            Some(zeta) => init::glorot_sparse(d, zeta, rng)?.to_dense(),
            None => init::glorot_dense(d, rng),
        };
        w.zero_diagonal();

        let gram = select_gram(cfg, source)?;
        Ok(Self {
            w,
            gram,
            constraint,
            lambda: cfg.lambda,
            batch_size: cfg.batch_size,
        })
    }
}

/// Decide whether the dense backend trains from a precomputed Gram
/// matrix: statistics sources always do; data sources follow
/// [`LossPath`], with `Auto` reproducing the historical dense behavior
/// (full-batch runs amortize `XᵀX` across every iteration, mini-batch
/// runs stay on the residual path).
fn select_gram(cfg: &LeastConfig, source: &TrainSource<'_>) -> Result<Option<GramLoss>> {
    match (source, cfg.loss_path) {
        (TrainSource::Stats(_), LossPath::Data) => Err(LinalgError::InvalidArgument(
            "loss_path = Data is incompatible with a statistics source".into(),
        )),
        (TrainSource::Stats(stats), _) => Ok(Some(GramLoss::from_stats(stats, cfg.lambda)?)),
        (TrainSource::Data(_), LossPath::Data) => Ok(None),
        (TrainSource::Data(data), LossPath::Gram) => {
            Ok(Some(GramLoss::new(data.matrix(), cfg.lambda)?))
        }
        (TrainSource::Data(data), LossPath::Auto) => match cfg.batch_size {
            Some(b) if b < data.num_samples() => Ok(None),
            _ => Ok(Some(GramLoss::new(data.matrix(), cfg.lambda)?)),
        },
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

    fn loss_value_and_grad(
        &mut self,
        source: &TrainSource<'_>,
        rng: &mut Xoshiro256pp,
    ) -> Result<(f64, DenseMatrix)> {
        match (&self.gram, source) {
            (Some(g), _) => g.value_and_grad(&self.w),
            (None, TrainSource::Data(data)) => {
                let batch = data.sample_batch(self.batch_size.unwrap_or(data.num_samples()), rng);
                batch_value_and_grad(&batch, &self.w, self.lambda)
            }
            // Unreachable: init builds a GramLoss for every stats source.
            (None, TrainSource::Stats(_)) => Err(LinalgError::InvalidArgument(
                "statistics source without a Gram loss".into(),
            )),
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
        // Full-batch Auto uses GramLoss::new(X); fit_stats adopts the
        // identical t_matmul product, so the trajectories coincide exactly.
        use least_data::{Preprocess, SufficientStats};
        let (_, data) = chain_dataset(5, 300, 308);
        let solver = LeastDense::new(fast_config()).unwrap();
        let from_data = solver.fit(&data).unwrap();
        let stats = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
        let from_stats = solver.fit_stats(&stats).unwrap();
        assert!(from_data.weights.approx_eq(&from_stats.weights, 0.0));
        assert_eq!(from_data.rounds, from_stats.rounds);
    }

    #[test]
    fn forced_data_path_still_recovers_and_rejects_stats() {
        use crate::config::LossPath;
        use least_data::{Preprocess, SufficientStats};
        let (truth, data) = chain_dataset(5, 600, 309);
        let mut cfg = fast_config();
        cfg.loss_path = LossPath::Data;
        let solver = LeastDense::new(cfg).unwrap();
        let result = solver.fit(&data).unwrap();
        let (points, best) = best_threshold(&truth, &result.weights, &paper_tau_grid());
        assert!(
            points[best].metrics.f1 > 0.85,
            "F1 {}",
            points[best].metrics.f1
        );
        // A raw-data-only config cannot honor a statistics source.
        let stats = SufficientStats::from_dataset(&data, Preprocess::Raw).unwrap();
        assert!(solver.fit_stats(&stats).is_err());
    }

    #[test]
    fn gram_path_with_minibatch_config_trains_full_batch() {
        use crate::config::LossPath;
        let (_, data) = chain_dataset(5, 300, 310);
        let mut cfg = fast_config();
        cfg.batch_size = Some(32); // ignored by the Gram path
        cfg.loss_path = LossPath::Gram;
        let solver = LeastDense::new(cfg).unwrap();
        let a = solver.fit(&data).unwrap();
        // Gram training is deterministic full-batch: rerun is identical.
        let b = solver.fit(&data).unwrap();
        assert!(a.weights.approx_eq(&b.weights, 0.0));
        assert!(a.final_constraint < 1e-2);
    }
}
