//! The unified LEAST solver engine: one augmented-Lagrangian outer loop
//! (Algorithm LEAST / procedure INNER of Fig. 3), generic over the weight
//! representation.
//!
//! Historically the dense (LEAST-TF) and sparse (LEAST-SP) solvers each
//! carried a private copy of this loop — config validation, Adam
//! re-initialization per round, objective bookkeeping, thresholding,
//! telemetry, and the ρ/η schedule — diverging in nothing but how weights
//! are stored and differentiated. Those representation-specific operations
//! are now the [`WeightBackend`] trait; the outer loop lives here once,
//! and [`crate::LeastDense`] / [`crate::LeastSparse`] are type aliases of
//! [`LeastSolver`] over the marker types in [`crate::backend_dense`] /
//! [`crate::backend_sparse`]. Future representations (sharded, GPU,
//! async-batched) plug in at the same seam.
//!
//! The loop never sees the training data. Each backend is built around
//! its loss — a Gram matrix, or a dataset it draws batches from — which
//! the solver's entry point (`fit` or `fit_stats`) and `batch_size` pick
//! once (DESIGN.md §9.3); the engine only passes the RNG along.
//!
//! Deviations from the paper's pseudocode, documented in DESIGN.md §6:
//! `W` is initialized once before the outer loop (Fig. 3 as printed
//! re-randomizes it every round, discarding progress); the dense diagonal
//! is pinned to zero; line 7's `(ρ + δ)∇δ` is implemented as the
//! correct augmented-Lagrangian coefficient `(ρ·δ + η)∇δ`; and round 0
//! starts line 9's filter late, by [`round0_filter_starts`].

use crate::config::LeastConfig;
use crate::trace::{ConvergenceTrace, TracePoint};
use least_linalg::{Result, Xoshiro256pp};
use least_optim::{AdamState, AugLagState};
use std::marker::PhantomData;
use std::time::Instant;

/// SCC dense-submatrix cap used when evaluating exact `h` on learned
/// matrices (components larger than this fall back to an upper bound —
/// unseen in practice once optimization is underway).
pub(crate) const H_SCC_CAP: usize = 600;

/// One weight representation under the generic outer loop: the exact set
/// of operations the loop needs, nothing more.
///
/// Contract (see DESIGN.md §4): a backend owns the current iterate and
/// whatever per-representation machinery evaluates it (constraint
/// forward/backward state, a CSR pattern) — including its training loss,
/// chosen once when it is built (a Gram matrix or the raw data). The
/// engine guarantees the call order per inner iteration:
/// `constraint_value_and_grad` → `loss_value_and_grad` → `loss_madds` →
/// `add_scaled` → `adam_step` → (optionally) `count_at_least` →
/// (optionally) `threshold`; and per outer round: `constraint_value` →
/// `nnz`/`exact_h` for telemetry. Backends must
/// consume `rng` identically across runs for a fixed config so results
/// stay deterministic given a seed.
pub trait WeightBackend {
    /// Weight container handed back to the caller when the loop finishes.
    type Weights;
    /// Gradient buffer aligned with the representation (a dense matrix, or
    /// a vector parallel to a CSR pattern).
    type Grad;

    /// Current optimizer-parameter count; sizes each round's fresh
    /// [`AdamState`]. For compacting representations this shrinks as the
    /// support does.
    fn num_params(&self) -> usize;

    /// Acyclicity-constraint value `c(W)` and gradient `∇c(W)` at the
    /// current iterate.
    fn constraint_value_and_grad(&mut self) -> Result<(f64, Self::Grad)>;

    /// Constraint value alone (end-of-round check; cheaper than the pair
    /// for backends that skip the backward pass).
    fn constraint_value(&mut self) -> Result<f64>;

    /// Training-loss value and gradient at the current iterate.
    /// Mini-batch backends draw from `rng`; Gram-path backends must not
    /// touch it.
    fn loss_value_and_grad(&mut self, rng: &mut Xoshiro256pp) -> Result<(f64, Self::Grad)>;

    /// Multiply-adds the last [`Self::loss_value_and_grad`] did in its
    /// products (telemetry: the machine-independent cost of the loss).
    fn loss_madds(&self) -> u64;

    /// `grad += coeff · other` — folds the penalty gradient into the loss
    /// gradient.
    fn add_scaled(grad: &mut Self::Grad, coeff: f64, other: &Self::Grad) -> Result<()>;

    /// One optimizer update, including any representation-specific
    /// projection (the dense backend re-zeroes the diagonal here).
    fn adam_step(&mut self, adam: &mut AdamState, grad: &Self::Grad);

    /// Parameters with `|w| ≥ θ`: how much of the iterate the filter
    /// would keep (round 0's start rule, [`round0_filter_starts`]).
    fn count_at_least(&self, theta: f64) -> usize;

    /// Apply the paper's in-loop filter `|w| < θ → 0` (Fig. 3 line 9),
    /// compacting optimizer state alongside any pattern compaction. An
    /// entry the filter zeroes leaves the support for good. Returns
    /// `false` when no support remains and the inner loop must stop
    /// (nothing left to learn).
    fn threshold(&mut self, theta: f64, adam: &mut AdamState) -> bool;

    /// Non-zeros in the current iterate (telemetry).
    fn nnz(&self) -> usize;

    /// Exact `h(W)` via SCC decomposition (telemetry / paper-faithful
    /// termination; see `least-graph::acyclicity`).
    fn exact_h(&self) -> f64;

    /// Surrender the learned weights.
    fn into_weights(self) -> Self::Weights;
}

/// Result of a fit, generic over the weight container.
/// [`crate::LearnedDense`] and [`crate::LearnedSparse`] are aliases.
#[derive(Debug, Clone)]
pub struct Learned<W> {
    /// The learned weighted adjacency (dense: diagonal identically zero).
    pub weights: W,
    /// Telemetry recorded during optimization (δ̄, h, loss, nnz per round).
    pub trace: ConvergenceTrace,
    /// Whether the constraint tolerance was reached within the round budget.
    pub converged: bool,
    /// Outer rounds executed.
    pub rounds: usize,
    /// Final constraint value.
    pub final_constraint: f64,
}

/// The LEAST solver front-end, generic over a backend marker (see
/// [`crate::backend_dense::Dense`] / [`crate::backend_sparse::Sparse`]).
/// Construction validates the configuration via the marker's rules;
/// `fit` methods live in inherent impls on the concrete instantiations.
#[derive(Debug, Clone)]
pub struct LeastSolver<Mode> {
    config: LeastConfig,
    mode: PhantomData<Mode>,
}

impl<Mode> LeastSolver<Mode> {
    /// Borrow the configuration.
    pub fn config(&self) -> &LeastConfig {
        &self.config
    }

    /// Wrap an already-validated configuration.
    pub(crate) fn from_validated(config: LeastConfig) -> Self {
        Self {
            config,
            mode: PhantomData,
        }
    }
}

/// Whether round 0's filter starts at inner iteration `it` (DESIGN.md §6):
/// at the first `it ≥ max_inner / 2` at which at most 5 % of the
/// backend's parameters have `|w| ≥ θ`. Rounds ≥ 1 filter every
/// iteration.
///
/// The filter removes an entry for good, so starting it early kills
/// entries the loss has not yet grown past θ (an entry grows by at most
/// about the Adam step size per iteration): hence the first half of the
/// round. The 5 % condition keeps it off while most of `W` is still
/// large, as on small dense problems (a chain of d ≤ 6 keeps ≥ 80 % of
/// its entries ≥ θ), whose fits need the unfiltered round to settle;
/// it fires on the wide sparse ones (d = 200, ER-2: a few hundred live
/// entries of 39,800), where the filter also makes each later
/// iteration cost `O(nnz)` instead of `O(d²)`.
pub(crate) fn round0_filter_starts<B: WeightBackend>(
    backend: &B,
    it: usize,
    cfg: &LeastConfig,
) -> bool {
    it >= cfg.max_inner / 2 && 20 * backend.count_at_least(cfg.theta) <= backend.num_params()
}

/// Run the augmented-Lagrangian outer loop to completion over an
/// initialized backend. This is the single copy of the logic both solvers
/// used to duplicate.
pub(crate) fn run<B: WeightBackend>(
    cfg: &LeastConfig,
    mut backend: B,
    rng: &mut Xoshiro256pp,
) -> Result<Learned<B::Weights>> {
    let start = Instant::now();
    let mut auglag = AugLagState::new(cfg.auglag());
    let mut trace = ConvergenceTrace::new();
    let mut converged = false;
    let mut final_c;

    loop {
        // Fresh Adam state per outer round: each round is a new
        // subproblem (different ρ, η), as in the NOTEARS reference loop.
        let mut adam = AdamState::new(backend.num_params(), cfg.adam);
        let mut prev_obj = f64::INFINITY;
        let mut quiet = 0usize;
        let mut last_loss = 0.0;
        // Thresholding (Fig. 3 line 9): every iteration from round 1 on;
        // in round 0 from the iteration `round0_filter_starts` picks.
        let filtering = cfg.theta > 0.0;
        let mut filter_from = (filtering && auglag.round > 0).then_some(0);
        let mut inner_iters = 0;
        let mut loss_madds = 0;

        for it in 0..cfg.max_inner {
            inner_iters = it + 1;
            let (c, c_grad) = backend.constraint_value_and_grad()?;
            let (loss_val, mut grad) = backend.loss_value_and_grad(rng)?;
            loss_madds += backend.loss_madds();
            last_loss = loss_val;
            let obj = loss_val + auglag.penalty(c);
            B::add_scaled(&mut grad, auglag.penalty_grad_coeff(c), &c_grad)?;

            backend.adam_step(&mut adam, &grad);

            if filtering && filter_from.is_none() && round0_filter_starts(&backend, it, cfg) {
                filter_from = Some(it);
            }
            if filter_from.is_some() && !backend.threshold(cfg.theta, &mut adam) {
                break; // everything filtered: nothing left to learn
            }

            let rel = (prev_obj - obj).abs() / obj.abs().max(1e-12);
            prev_obj = obj;
            if rel < cfg.inner_tol {
                quiet += 1;
                if quiet >= cfg.inner_patience {
                    break;
                }
            } else {
                quiet = 0;
            }
        }

        let c = backend.constraint_value()?;
        let h = if cfg.needs_h() {
            Some(backend.exact_h())
        } else {
            None
        };
        trace.push(TracePoint {
            round: auglag.round,
            inner_iter: None,
            elapsed: start.elapsed(),
            delta: c,
            h,
            loss: last_loss,
            nnz: backend.nnz(),
            inner_iters,
            filter_from,
            loss_madds,
        });

        // The paper's benchmark termination also checks h(W) ≤ ε so
        // LEAST and NOTEARS share an exit criterion.
        let effective = match (cfg.terminate_on_h, h) {
            (true, Some(hv)) => c.max(hv),
            _ => c,
        };
        final_c = effective;
        if auglag.converged(effective) {
            converged = true;
        }
        if !auglag.advance(effective) {
            break;
        }
    }

    Ok(Learned {
        weights: backend.into_weights(),
        rounds: trace.len(),
        trace,
        converged,
        final_constraint: final_c,
    })
}
