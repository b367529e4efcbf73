//! Small statistics helpers and the host CPU-steal probe.

use std::time::{Duration, Instant};

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; `+inf` entries (failed requests) sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[hi] == v[lo] {
        v[lo]
    } else {
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median wall time of `f` over at least `min_reps` calls and at least
/// `budget` of total time, seconds.
pub fn time_median<T>(min_reps: usize, budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Aggregate CPU time counters from `/proc/stat`: `(steal, total)`.
fn cpu_counters() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Host CPU steal over an interval, as a percentage of all CPU time.
#[derive(Debug)]
pub struct StealProbe(Option<(u64, u64)>);

impl StealProbe {
    pub fn start() -> Self {
        Self(cpu_counters())
    }

    /// Steal since `start`; 0 where `/proc/stat` is unavailable.
    pub fn percent(&self) -> f64 {
        match (self.0, cpu_counters()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}
