//! Convergence telemetry.
//!
//! Two paper artifacts are *about* the optimization trajectory rather than
//! the final graph:
//!
//! * Fig. 4 row 3 — the Pearson correlation between the bound `δ̄(W)` and
//!   the exact metric `h(W)` recorded "during the computation process",
//!   the empirical evidence for requirement R1 (consistency);
//! * Fig. 5 — `δ̄(W)` and `h(W)` plotted against wall-clock time on the
//!   large-scale datasets.
//!
//! Solvers append a [`TracePoint`] per outer round (and optionally per
//! sampled inner iteration); the harness turns the series into tables.

use least_linalg::vecops;
use std::time::Duration;

/// One sampled moment of the optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Outer round the sample belongs to.
    pub round: usize,
    /// Inner iteration within the round (`None` for end-of-round samples).
    pub inner_iter: Option<usize>,
    /// Wall-clock time since the solver started.
    pub elapsed: Duration,
    /// Spectral bound `δ̄(W)` at this moment.
    pub delta: f64,
    /// Exact/SCC-computed `h(W)` when the solver was asked to track it.
    pub h: Option<f64>,
    /// Training loss `L(W, X_B)` (smooth part + L1).
    pub loss: f64,
    /// Non-zeros in `W` (post-thresholding).
    pub nnz: usize,
    /// Inner iterations the round ran (end-of-round samples; 0 otherwise).
    pub inner_iters: usize,
    /// First inner iteration of the round whose iterate was θ-filtered;
    /// `None` when the round never filtered.
    pub filter_from: Option<usize>,
    /// Multiply-adds the loss's products did over the round, as the
    /// backend counts them: a machine-independent cost to set beside the
    /// round's wall time (DESIGN.md §2.1).
    pub loss_madds: u64,
}

/// Append-only series of trace points.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTrace {
    points: Vec<TracePoint>,
}

impl ConvergenceTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample.
    pub fn push(&mut self, point: TracePoint) {
        self.points.push(point);
    }

    /// All samples in insertion order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<&TracePoint> {
        self.points.last()
    }

    /// Pearson correlation between `δ̄` and `h` over the samples where both
    /// were recorded — the Fig. 4 row-3 statistic. `None` with fewer than
    /// two joint samples or degenerate variance.
    pub fn delta_h_correlation(&self) -> Option<f64> {
        let (mut deltas, mut hs) = (Vec::new(), Vec::new());
        for p in &self.points {
            if let Some(h) = p.h {
                deltas.push(p.delta);
                hs.push(h);
            }
        }
        vecops::pearson(&deltas, &hs)
    }

    /// `(elapsed_seconds, δ̄, h)` rows for the Fig. 5 style output.
    pub fn time_series(&self) -> Vec<(f64, f64, Option<f64>)> {
        self.points
            .iter()
            .map(|p| (p.elapsed.as_secs_f64(), p.delta, p.h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(round: usize, delta: f64, h: Option<f64>) -> TracePoint {
        TracePoint {
            round,
            inner_iter: None,
            elapsed: Duration::from_millis(round as u64 * 100),
            delta,
            h,
            loss: 1.0,
            nnz: 10,
            inner_iters: 0,
            filter_from: None,
            loss_madds: 0,
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = ConvergenceTrace::new();
        assert!(t.is_empty());
        t.push(point(0, 1.0, None));
        t.push(point(1, 0.5, None));
        assert_eq!(t.len(), 2);
        assert_eq!(t.last().unwrap().delta, 0.5);
    }

    #[test]
    fn correlation_of_aligned_series_is_one() {
        let mut t = ConvergenceTrace::new();
        for i in 0..10 {
            let v = 1.0 / (i + 1) as f64;
            t.push(point(i, v, Some(2.0 * v)));
        }
        let corr = t.delta_h_correlation().unwrap();
        assert!((corr - 1.0).abs() < 1e-12, "corr {corr}");
    }

    #[test]
    fn correlation_ignores_points_without_h() {
        let mut t = ConvergenceTrace::new();
        t.push(point(0, 1.0, Some(1.0)));
        t.push(point(1, 100.0, None)); // would wreck the correlation if used
        t.push(point(2, 0.5, Some(0.5)));
        t.push(point(3, 0.25, Some(0.25)));
        let corr = t.delta_h_correlation().unwrap();
        assert!((corr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_none_when_insufficient() {
        let mut t = ConvergenceTrace::new();
        t.push(point(0, 1.0, Some(1.0)));
        assert!(t.delta_h_correlation().is_none());
    }

    #[test]
    fn time_series_layout() {
        let mut t = ConvergenceTrace::new();
        t.push(point(2, 0.7, Some(0.1)));
        let rows = t.time_series();
        assert_eq!(rows.len(), 1);
        assert!((rows[0].0 - 0.2).abs() < 1e-12);
        assert_eq!(rows[0].1, 0.7);
        assert_eq!(rows[0].2, Some(0.1));
    }
}
