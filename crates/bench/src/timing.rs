//! Minimal timing helper for the benchmark targets.
//!
//! The offline crate set has no `criterion`, so the bench targets carry
//! their own harness: warmup + best-of-N wall timing. Their JSON reports
//! use `least_serve::json::JsonValue` (see [`crate::emit_report`]).

use std::time::{Duration, Instant};

/// Time `f`, returning the best (minimum) wall-clock duration over `reps`
/// runs after one untimed warmup call. Minimum-of-N is the standard
/// noise-rejection estimator for single-process micro-benchmarks.
pub fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(reps > 0, "reps must be positive");
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_returns_positive_duration() {
        let d = time_best_of(3, || (0..1000).sum::<u64>());
        assert!(d > Duration::ZERO);
    }
}
