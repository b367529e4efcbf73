//! Solver configuration: the tunables of Fig. 3 of the paper
//! (`X, ζ, λ, ε, k, α, B, θ, T_o, T_i`) plus implementation knobs.

use least_linalg::LinalgError;
use least_optim::{AdamConfig, AugLagConfig};
use std::fmt;

/// A structurally invalid [`LeastConfig`], detected by
/// [`LeastConfig::validate`] *before* a solver (or a training job) is
/// built from it.
///
/// Historically most fields were silently accepted and only blew up — or
/// silently looped forever — deep inside a fit. Typed variants let the
/// job-orchestration layer reject a malformed `JobSpec` at submit time
/// with a precise 400 instead of burning a worker on it.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A numeric field is outside its admissible range (or non-finite).
    OutOfRange {
        /// Field name as spelled in [`LeastConfig`] (e.g. `"alpha"`,
        /// `"adam.learning_rate"`).
        field: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable admissible range, e.g. `"(0, 1)"`.
        expected: &'static str,
    },
    /// An iteration budget (`max_outer`, `max_inner`, `inner_patience`)
    /// or `batch_size` is zero.
    ZeroBudget {
        /// Field name as spelled in [`LeastConfig`].
        field: &'static str,
    },
    /// The sparse solver was requested without an initialization density
    /// `ζ` (the CSR support *is* the search space, so it cannot default).
    MissingInitDensity,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange {
                field,
                value,
                expected,
            } => write!(f, "{field} must be in {expected}, got {value}"),
            ConfigError::ZeroBudget { field } => write!(f, "{field} must be positive"),
            ConfigError::MissingInitDensity => write!(
                f,
                "LeastSparse requires init_density (zeta); see LeastConfig::paper_large_scale"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Lets the solver constructors validate with `?` on the crate-wide
/// `LinalgError` result type.
impl From<ConfigError> for LinalgError {
    fn from(e: ConfigError) -> Self {
        LinalgError::InvalidArgument(e.to_string())
    }
}

/// Configuration shared by [`crate::LeastDense`] and [`crate::LeastSparse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeastConfig {
    /// Bound refinement steps `k` (paper: 5).
    pub k: usize,
    /// Balance factor `α ∈ (0,1)` (paper: 0.9).
    pub alpha: f64,
    /// L1 regularization weight `λ` (paper benchmark setting: 0.5 on
    /// standardized benchmark data; applications tune it).
    pub lambda: f64,
    /// Constraint tolerance `ε` (paper grid-searches 1e-1..1e-4 on the
    /// benchmarks and uses 1e-8 at scale).
    pub epsilon: f64,
    /// Initialization density `ζ` (paper: 1e-4 for LEAST-SP; the dense
    /// solver defaults to full Glorot init, `None`).
    pub init_density: Option<f64>,
    /// Mini-batch size `B`; `None` = full batch (the paper sets `B = n` on
    /// benchmarks and `B = 1000` at scale). Together with the entry point
    /// it picks the loss (DESIGN.md §9.3); `fit_stats` is always full batch.
    pub batch_size: Option<usize>,
    /// In-loop filtering threshold `θ` (paper: 0 on benchmarks, 1e-3 at
    /// scale; our default 0.05 — see [`LeastConfig::paper_benchmark`]).
    ///
    /// θ > 0 is what lets the spectral bound reach *exactly* zero on a
    /// DAG-supported `W`: thresholding creates exact zeros, which lets the
    /// bound's source/sink peeling engage. Without it the augmented
    /// Lagrangian can only satisfy `δ̄ ≤ ε` by shrinking all of `W`
    /// uniformly, destroying the fit (observed experimentally; the paper's
    /// θ = 0 benchmark protocol compensates with a loose-ε grid search).
    pub theta: f64,
    /// Maximum outer rounds `T_o`.
    pub max_outer: usize,
    /// Maximum inner iterations `T_i` per round (paper: 200).
    pub max_inner: usize,
    /// Early-exit the inner loop when the relative objective change stays
    /// below this for [`Self::inner_patience`] consecutive iterations.
    pub inner_tol: f64,
    /// Consecutive quiet iterations required to exit the inner loop early.
    pub inner_patience: usize,
    /// Adam settings (paper: learning rate 0.01).
    pub adam: AdamConfig,
    /// Penalty growth factor for `ρ` per outer round.
    pub rho_growth: f64,
    /// Track `h(W)` alongside `δ̄(W)` each round (costs an SCC pass /
    /// matrix exponential; needed for Fig. 4 row 3 and Fig. 5 outputs and
    /// for the paper-faithful termination check).
    pub track_h: bool,
    /// Also require `h(W) ≤ ε` to declare convergence, matching the
    /// modified termination the paper uses for its benchmark comparison
    /// ("we also compute the value of h(W) and terminate when h(W) is
    /// smaller than the tolerance value ε"). Implies `track_h`.
    pub terminate_on_h: bool,
    /// PRNG seed (initialization and batching).
    pub seed: u64,
}

impl Default for LeastConfig {
    fn default() -> Self {
        Self {
            k: 5,
            alpha: 0.9,
            lambda: 0.1,
            epsilon: 1e-8,
            init_density: None,
            batch_size: None,
            theta: 0.05,
            max_outer: 20,
            max_inner: 200,
            inner_tol: 1e-6,
            inner_patience: 5,
            adam: AdamConfig::default(),
            rho_growth: 10.0,
            track_h: false,
            terminate_on_h: false,
            seed: 0xBEA5,
        }
    }
}

impl LeastConfig {
    /// The paper's artificial-benchmark configuration (Section V-A):
    /// `B = n` (full batch), `λ = 0.5`, h-checked termination.
    ///
    /// Deviation: the paper sets `θ = 0` here and relies on a grid search
    /// over loose tolerances `ε ∈ {1e-1..1e-4}` to stop before uniform
    /// shrinkage sets in; we keep a small positive `θ` instead, which
    /// reaches `δ̄ = 0` exactly (via bound peeling) at a tight ε in a
    /// single run. Same post-filter τ grid either way.
    pub fn paper_benchmark() -> Self {
        Self {
            lambda: 0.5,
            theta: 0.05,
            batch_size: None,
            track_h: true,
            terminate_on_h: true,
            epsilon: 1e-4,
            ..Self::default()
        }
    }

    /// The paper's large-scale configuration (Section V-B): `B = 1000`,
    /// `θ = 1e-3`, `ζ = 1e-4`, `ε = 1e-8`.
    pub fn paper_large_scale() -> Self {
        Self {
            batch_size: Some(1000),
            theta: 1e-3,
            init_density: Some(1e-4),
            epsilon: 1e-8,
            track_h: true,
            ..Self::default()
        }
    }

    /// Validate every backend-independent field, returning the first
    /// violation as a typed [`ConfigError`].
    ///
    /// `LeastDense::new` / `LeastSparse::new` call this (the sparse
    /// solver via [`Self::validate_sparse`]), so an invalid configuration
    /// can no longer reach the optimizer loop; the job layer calls it at
    /// submit time so a bad `JobSpec` fails with a 400 instead of inside
    /// a worker.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let in_range = |field: &'static str, value: f64, ok: bool, expected: &'static str| {
            if ok && value.is_finite() {
                Ok(())
            } else {
                Err(ConfigError::OutOfRange {
                    field,
                    value,
                    expected,
                })
            }
        };
        in_range(
            "alpha",
            self.alpha,
            self.alpha > 0.0 && self.alpha < 1.0,
            "(0, 1)",
        )?;
        in_range("lambda", self.lambda, self.lambda >= 0.0, "[0, inf)")?;
        in_range("epsilon", self.epsilon, self.epsilon > 0.0, "(0, inf)")?;
        in_range("theta", self.theta, self.theta >= 0.0, "[0, inf)")?;
        in_range(
            "inner_tol",
            self.inner_tol,
            self.inner_tol >= 0.0,
            "[0, inf)",
        )?;
        in_range(
            "rho_growth",
            self.rho_growth,
            self.rho_growth > 1.0,
            "(1, inf)",
        )?;
        in_range(
            "adam.learning_rate",
            self.adam.learning_rate,
            self.adam.learning_rate > 0.0,
            "(0, inf)",
        )?;
        if let Some(zeta) = self.init_density {
            in_range("init_density", zeta, zeta > 0.0 && zeta <= 1.0, "(0, 1]")?;
        }
        for (field, value) in [
            ("max_outer", self.max_outer),
            ("max_inner", self.max_inner),
            ("inner_patience", self.inner_patience),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroBudget { field });
            }
        }
        if self.batch_size == Some(0) {
            return Err(ConfigError::ZeroBudget {
                field: "batch_size",
            });
        }
        Ok(())
    }

    /// [`Self::validate`] plus the sparse backend's requirement that an
    /// initialization density `ζ` is present.
    pub fn validate_sparse(&self) -> Result<(), ConfigError> {
        self.validate()?;
        if self.init_density.is_none() {
            return Err(ConfigError::MissingInitDensity);
        }
        Ok(())
    }

    /// Derived augmented-Lagrangian config.
    pub fn auglag(&self) -> AugLagConfig {
        AugLagConfig {
            rho_init: 1.0,
            eta_init: 1.0,
            rho_growth: self.rho_growth,
            rho_max: 1e16,
            tolerance: self.epsilon,
            max_outer: self.max_outer,
        }
    }

    /// Whether `h` must be evaluated each round.
    pub fn needs_h(&self) -> bool {
        self.track_h || self.terminate_on_h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_core_settings() {
        let c = LeastConfig::default();
        assert_eq!(c.k, 5);
        assert_eq!(c.alpha, 0.9);
        assert_eq!(c.adam.learning_rate, 0.01);
    }

    #[test]
    fn paper_benchmark_profile() {
        let c = LeastConfig::paper_benchmark();
        assert!(c.terminate_on_h);
        assert!(c.needs_h());
        assert_eq!(c.lambda, 0.5);
        assert!(c.theta > 0.0, "theta must be positive for bound peeling");
        assert!(c.batch_size.is_none());
    }

    #[test]
    fn paper_large_scale_profile() {
        let c = LeastConfig::paper_large_scale();
        assert_eq!(c.batch_size, Some(1000));
        assert_eq!(c.theta, 1e-3);
        assert_eq!(c.init_density, Some(1e-4));
        assert_eq!(c.epsilon, 1e-8);
    }

    #[test]
    fn validate_accepts_all_shipped_profiles() {
        LeastConfig::default().validate().unwrap();
        LeastConfig::paper_benchmark().validate().unwrap();
        LeastConfig::paper_large_scale().validate_sparse().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        let cases: Vec<(&'static str, LeastConfig)> = vec![
            (
                "alpha",
                LeastConfig {
                    alpha: 1.5,
                    ..Default::default()
                },
            ),
            (
                "alpha",
                LeastConfig {
                    alpha: f64::NAN,
                    ..Default::default()
                },
            ),
            (
                "lambda",
                LeastConfig {
                    lambda: -0.1,
                    ..Default::default()
                },
            ),
            (
                "epsilon",
                LeastConfig {
                    epsilon: 0.0,
                    ..Default::default()
                },
            ),
            (
                "theta",
                LeastConfig {
                    theta: -1.0,
                    ..Default::default()
                },
            ),
            (
                "inner_tol",
                LeastConfig {
                    inner_tol: f64::INFINITY,
                    ..Default::default()
                },
            ),
            (
                "rho_growth",
                LeastConfig {
                    rho_growth: 1.0,
                    ..Default::default()
                },
            ),
            (
                "init_density",
                LeastConfig {
                    init_density: Some(0.0),
                    ..Default::default()
                },
            ),
            (
                "init_density",
                LeastConfig {
                    init_density: Some(1.5),
                    ..Default::default()
                },
            ),
        ];
        for (field, cfg) in cases {
            match cfg.validate() {
                Err(ConfigError::OutOfRange { field: f, .. }) => assert_eq!(f, field),
                other => panic!("{field}: expected OutOfRange, got {other:?}"),
            }
        }
        let mut cfg = LeastConfig::default();
        cfg.adam.learning_rate = 0.0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange {
                field: "adam.learning_rate",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_zero_budgets() {
        for (field, cfg) in [
            (
                "max_outer",
                LeastConfig {
                    max_outer: 0,
                    ..Default::default()
                },
            ),
            (
                "max_inner",
                LeastConfig {
                    max_inner: 0,
                    ..Default::default()
                },
            ),
            (
                "inner_patience",
                LeastConfig {
                    inner_patience: 0,
                    ..Default::default()
                },
            ),
            (
                "batch_size",
                LeastConfig {
                    batch_size: Some(0),
                    ..Default::default()
                },
            ),
        ] {
            assert_eq!(cfg.validate(), Err(ConfigError::ZeroBudget { field }));
        }
    }

    #[test]
    fn validate_sparse_requires_density() {
        let cfg = LeastConfig {
            init_density: None,
            ..Default::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.validate_sparse(), Err(ConfigError::MissingInitDensity));
    }

    #[test]
    fn config_error_display_names_the_field() {
        let e = ConfigError::OutOfRange {
            field: "alpha",
            value: 2.0,
            expected: "(0, 1)",
        };
        assert_eq!(e.to_string(), "alpha must be in (0, 1), got 2");
        assert_eq!(
            ConfigError::ZeroBudget { field: "max_inner" }.to_string(),
            "max_inner must be positive"
        );
    }

    #[test]
    fn auglag_inherits_tolerance() {
        let c = LeastConfig {
            epsilon: 1e-5,
            max_outer: 7,
            ..Default::default()
        };
        let a = c.auglag();
        assert_eq!(a.tolerance, 1e-5);
        assert_eq!(a.max_outer, 7);
    }
}
