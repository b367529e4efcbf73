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
//!
//! From the first θ-filter on, the backend keeps the sorted flat indices
//! of `W`'s nonzeros, its *support*, and touches nothing else: the loss
//! (`GramLoss::support_value_and_grad`), the constraint
//! ([`Acyclicity::value_and_gradient_at`]), the penalty axpy, Adam (its
//! moments compacted with the support) and the filter all cost `O(nnz)`
//! or so rather than `O(d²)`. An entry the filter zeroes leaves the
//! support for good, as in the sparse backend (DESIGN.md §4). Before the
//! first filter the iterate is dense and the tiled dense kernels run.

use crate::config::LeastConfig;
use crate::constraint::Acyclicity;
use crate::engine::{self, Learned, LeastSolver, WeightBackend, H_SCC_CAP};
use crate::loss::{batch_value_and_grad, GramLoss, Loss};
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
    /// is still dense — until the θ-filter first runs and
    /// `O(d + Σ_l nnz_l² + k·nnz)` after it, independent of `n`
    /// (DESIGN.md §2.1).
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

/// Live dense engine state: the iterate, its support once filtered, its
/// loss and its constraint.
struct DenseState<'a> {
    w: DenseMatrix,
    /// Sorted row-major flat indices of `w`'s nonzeros, from the first
    /// filter on; `None` while the iterate is dense. The optimizer's
    /// parameters (and every `Grad`) are `w`'s entries at these indices,
    /// or all `d²` entries while `None`.
    support: Option<Vec<u32>>,
    loss: Loss<'a>,
    constraint: &'a dyn Acyclicity,
    lambda: f64,
    /// Multiply-adds of the last loss evaluation.
    loss_madds: u64,
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
        Self::at(w, loss, constraint, cfg.lambda)
    }

    /// The state at iterate `w`, dense until its first filter.
    fn at(
        w: DenseMatrix,
        loss: Loss<'a>,
        constraint: &'a dyn Acyclicity,
        lambda: f64,
    ) -> Result<Self> {
        // The support indexes `W` row-major with `u32`s.
        if u32::try_from(w.rows() * w.cols()).is_err() {
            return Err(LinalgError::InvalidArgument(format!(
                "a {}×{} iterate is too large for the dense backend",
                w.rows(),
                w.cols()
            )));
        }
        Ok(Self {
            w,
            support: None,
            loss,
            constraint,
            lambda,
            loss_madds: 0,
        })
    }
}

impl WeightBackend for DenseState<'_> {
    type Weights = DenseMatrix;
    /// Parallel to the parameters: all `d²` entries row-major, or the
    /// support's.
    type Grad = Vec<f64>;

    fn num_params(&self) -> usize {
        match &self.support {
            Some(support) => support.len(),
            None => self.w.rows() * self.w.cols(),
        }
    }

    fn constraint_value_and_grad(&mut self) -> Result<(f64, Vec<f64>)> {
        match &self.support {
            Some(support) => self.constraint.value_and_gradient_at(&self.w, support),
            None => {
                let (value, grad) = self.constraint.value_and_gradient(&self.w)?;
                Ok((value, grad.into_vec()))
            }
        }
    }

    fn constraint_value(&mut self) -> Result<f64> {
        self.constraint.value(&self.w)
    }

    fn loss_value_and_grad(&mut self, rng: &mut Xoshiro256pp) -> Result<(f64, Vec<f64>)> {
        let d = self.w.rows() as u64;
        let (value, grad, madds) = match (&self.loss, &self.support) {
            (Loss::Gram(g), Some(support)) => g.support_value_and_grad(&self.w, support)?,
            (Loss::Gram(g), None) => {
                let (value, grad) = g.value_and_grad(&self.w)?;
                let nnz = self.w.count_nonzero(0.0) as u64;
                (value, grad.into_vec(), d * nnz)
            }
            (Loss::Residual { data, batch }, _) => {
                let x = data.sample_batch(*batch, rng);
                let (value, grad) = batch_value_and_grad(&x, &self.w, self.lambda)?;
                let grad = grad.into_vec();
                let grad = match &self.support {
                    Some(support) => support.iter().map(|&at| grad[at as usize]).collect(),
                    None => grad,
                };
                (value, grad, 2 * x.rows() as u64 * d * d)
            }
        };
        self.loss_madds = madds;
        Ok((value, grad))
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
        match &self.support {
            Some(support) => {
                // The support excludes the diagonal: it stays zero.
                let w = self.w.as_mut_slice();
                let mut params: Vec<f64> = support.iter().map(|&at| w[at as usize]).collect();
                adam.step(&mut params, grad);
                for (&at, v) in support.iter().zip(params) {
                    w[at as usize] = v;
                }
            }
            None => {
                adam.step(self.w.as_mut_slice(), grad);
                self.w.zero_diagonal();
            }
        }
    }

    fn count_at_least(&self, theta: f64) -> usize {
        self.w
            .as_slice()
            .iter()
            .filter(|v| v.abs() >= theta)
            .count()
    }

    fn threshold(&mut self, theta: f64, adam: &mut AdamState) -> bool {
        match &mut self.support {
            Some(support) => {
                let w = self.w.as_mut_slice();
                let mut kept = Vec::with_capacity(support.len());
                let mut slot = 0;
                support.retain(|&at| {
                    // The test `threshold_inplace` makes: NaN stays.
                    let v = &mut w[at as usize];
                    let zeroed = v.abs() < theta;
                    if zeroed {
                        *v = 0.0;
                    } else {
                        kept.push(slot);
                    }
                    slot += 1;
                    !zeroed
                });
                if kept.len() < adam.len() {
                    adam.compact(&kept);
                }
            }
            None => {
                // The first filter: the support is what survives it, and
                // the moments follow it.
                self.w.threshold_inplace(theta);
                let w = self.w.as_slice();
                let support: Vec<u32> = (0..w.len() as u32)
                    .filter(|&at| w[at as usize] != 0.0)
                    .collect();
                adam.compact(&support);
                self.support = Some(support);
            }
        }
        self.num_params() > 0
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

/// Test support: the dense backend at a given iterate, so integration
/// tests can drive its inner iteration against reference copies
/// (`tests/bit_identity.rs`). Exposed (not `cfg(test)`) for the same
/// reason as [`crate::constraint::testing`].
pub mod testing {
    use super::*;

    /// The backend [`LeastDense::fit_stats_with_constraint`] runs, at
    /// iterate `w` instead of its random initialization: dense until the
    /// first [`WeightBackend::threshold`], on `w`'s support after it.
    pub fn backend_at<'a>(
        w: DenseMatrix,
        loss: GramLoss,
        constraint: &'a dyn Acyclicity,
        lambda: f64,
    ) -> Result<impl WeightBackend<Weights = DenseMatrix, Grad = Vec<f64>> + 'a> {
        DenseState::at(w, Loss::Gram(loss), constraint, lambda)
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
