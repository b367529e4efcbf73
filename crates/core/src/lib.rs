//! # least-core
//!
//! The paper's primary contribution: **LEAST**, a structure-learning
//! algorithm for Bayesian networks built on a spectral-radius upper-bound
//! acyclicity constraint that costs `O(k·nnz)` time and `O(nnz)` space
//! (Section III of the paper) instead of the `O(d³)` / `O(d²)` of the
//! NOTEARS matrix exponential.
//!
//! Layout:
//!
//! * [`constraint`] — the [`constraint::Acyclicity`] trait shared by every
//!   differentiable acyclicity measure (the spectral bound here, the
//!   matrix-exponential and polynomial baselines in `least-notears`);
//! * [`bound`] — FORWARD (Fig. 2): the iterated bound
//!   `δ̄^(k) = Σᵢ b^(k)[i]`, dense and sparse;
//! * [`grad`] — BACKWARD (Fig. 2, Lemmas 3–5): reverse-mode gradient,
//!   including the masked sparse variant that keeps everything `O(nnz)`;
//! * [`loss`] — the least-squares + L1 LSEM loss and its gradients (full
//!   Gram, mini-batch residual, and sparse-support paths);
//! * [`engine`] — the single augmented-Lagrangian outer loop, generic over
//!   the [`engine::WeightBackend`] trait;
//! * [`backend_dense`] — `LeastDense` (the paper's LEAST-TF analogue),
//!   generic over the constraint for ablations and baselines;
//! * [`backend_sparse`] — `LeastSparse` (LEAST-SP): CSR weights, sparse
//!   Adam, thresholding with state compaction;
//! * [`trace`] — convergence telemetry: the `(time, δ̄, h)` series behind
//!   Fig. 5 and the `corr(δ̄, h)` row of Fig. 4.

pub mod backend_dense;
pub mod backend_sparse;
pub mod bound;
pub mod config;
pub mod constraint;
pub mod engine;
pub mod grad;
pub mod loss;
pub mod sem;
pub mod trace;

pub use backend_dense::{Dense, LearnedDense, LeastDense};
pub use backend_sparse::{LearnedSparse, LeastSparse, Sparse};
pub use bound::{SpectralBound, SpectralBoundForward};
pub use config::{ConfigError, LeastConfig};
pub use constraint::Acyclicity;
pub use engine::{Learned, LeastSolver, WeightBackend};
pub use loss::GramLoss;
pub use sem::FittedSem;
pub use trace::{ConvergenceTrace, TracePoint};
