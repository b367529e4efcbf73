//! Engine throughput smoke benchmark (`cargo bench`-free).
//!
//! Times one augmented-Lagrangian outer round of the unified engine on
//! two representative workloads —
//!
//! * **dense d=500**: full-batch Gram loss + dense spectral bound
//!   forward/backward (the LEAST-TF regime);
//! * **sparse d=5000**: mini-batch support-restricted loss + masked
//!   `O(k·nnz)` bound (the LEAST-SP regime) —
//!
//! once with the thread pool pinned to a single worker and once with the
//! configured pool (`LEAST_NUM_THREADS` or all cores), then writes the
//! machine-readable `BENCH_engine.json` next to the working directory
//! (override the path with `LEAST_BENCH_OUT`).
//!
//! A third workload, **dense d=200 thresholded**, fits from sufficient
//! statistics for two fixed rounds at θ = 0.05 and reports the time per
//! inner iteration of each round: round 0 trains the dense iterate,
//! round 1 the θ-thresholded one. Beside the times it records the Gram
//! loss's multiply-adds per iteration — `d³` for the full `G·W` product,
//! `d·nnz(W)` for the nonzero products of the gather the solver runs (its
//! 4 × 8 tiles also multiply the zeros of each 4-column block of `W` they
//! visit, which adds time but no value).
//!
//! In a `--no-default-features` build the pool is compile-time 1, so both
//! measurements coincide and `parallel_feature` records the fact.

use least_bench::report::{fmt, heading, Table};
use least_bench::timing::time_best_of;
use least_core::{LeastConfig, LeastDense, LeastSparse};
use least_data::{sample_lsem_sparse, Dataset, NoiseModel, Preprocess, SufficientStats};
use least_graph::{erdos_renyi_dag, weighted_adjacency_sparse, WeightRange};
use least_linalg::{par, Xoshiro256pp};
use least_serve::json::JsonValue;

/// Best-of repetitions per measurement.
const REPS: usize = 3;

struct Workload {
    name: &'static str,
    d: usize,
    data: Dataset,
    cfg: LeastConfig,
    sparse: bool,
}

/// ER(deg 4) ground truth + LSEM sample, matching the paper's synthetic
/// protocol at smoke scale.
fn er_data(d: usize, n: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256pp::new(seed);
    let g = erdos_renyi_dag(d, 4, &mut rng);
    let w = weighted_adjacency_sparse(&g, WeightRange::default(), &mut rng);
    let x = sample_lsem_sparse(&w, n, NoiseModel::standard_gaussian(), &mut rng).unwrap();
    Dataset::new(x)
}

fn workloads() -> Vec<Workload> {
    // One outer round, fixed inner-iteration count (no early exit) so the
    // serial and parallel runs execute identical work.
    let one_round = |max_inner: usize| LeastConfig {
        max_outer: 1,
        max_inner,
        inner_tol: 0.0,
        epsilon: 1e-12,
        theta: 0.0,
        ..Default::default()
    };

    let dense_d = 500;
    let dense_cfg = LeastConfig {
        lambda: 0.1,
        ..one_round(10)
    };

    let sparse_d = 5_000;
    let sparse_cfg = LeastConfig {
        lambda: 0.1,
        init_density: Some(8e-4), // ~4 slots per row at d=5000
        batch_size: Some(256),
        ..one_round(10)
    };

    vec![
        Workload {
            name: "dense_d500",
            d: dense_d,
            data: er_data(dense_d, 600, 0xD500),
            cfg: dense_cfg,
            sparse: false,
        },
        Workload {
            name: "sparse_d5000",
            d: sparse_d,
            data: er_data(sparse_d, 1_000, 0x5000),
            cfg: sparse_cfg,
            sparse: true,
        },
    ]
}

/// One outer round, end to end (init + inner loop + telemetry).
fn run_once(w: &Workload) -> f64 {
    if w.sparse {
        let solver = LeastSparse::new(w.cfg).expect("config");
        solver.fit(&w.data).expect("fit").final_constraint
    } else {
        let solver = LeastDense::new(w.cfg).expect("config");
        solver.fit(&w.data).expect("fit").final_constraint
    }
}

/// The thresholded dense workload: d = 200, θ = 0.05, two fixed rounds.
struct Thresholded {
    stats: SufficientStats,
    cfg: LeastConfig,
}

impl Thresholded {
    fn new() -> Self {
        let data = er_data(200, 2_000, 0xD200);
        let stats = SufficientStats::from_dataset(&data, Preprocess::Center).expect("stats");
        let cfg = LeastConfig {
            lambda: 0.1,
            theta: 0.05,
            max_outer: 2,
            max_inner: 50,
            inner_tol: 0.0,
            epsilon: 1e-12,
            ..Default::default()
        };
        Self { stats, cfg }
    }

    /// Best-of-`REPS` seconds per inner iteration of rounds 0 and 1, and
    /// `nnz(W)` at the end of each round.
    fn per_round(&self) -> ([f64; 2], [usize; 2]) {
        let solver = LeastDense::new(self.cfg).expect("config");
        let mut best = [f64::INFINITY; 2];
        let mut nnz = [0; 2];
        for _ in 0..REPS {
            let fit = solver.fit_stats(&self.stats).expect("fit");
            let points = fit.trace.points();
            assert_eq!(points.len(), 2, "two fixed rounds");
            let ends = [points[0].elapsed, points[1].elapsed];
            let rounds = [ends[0], ends[1] - ends[0]];
            for r in 0..2 {
                let per_iter = rounds[r].as_secs_f64() / self.cfg.max_inner as f64;
                best[r] = best[r].min(per_iter);
                nnz[r] = points[r].nnz;
            }
        }
        (best, nnz)
    }
}

fn main() {
    let pool = par::max_threads();
    heading(&format!(
        "engine throughput: one outer round, serial vs {} thread(s), best of {REPS}",
        pool
    ));

    let mut table = Table::new(&["workload", "d", "serial_s", "parallel_s", "speedup"]);
    let mut entries = Vec::new();
    for w in workloads() {
        par::set_thread_override(Some(1));
        let serial = time_best_of(REPS, || run_once(&w)).as_secs_f64();
        par::set_thread_override(None);
        let parallel = time_best_of(REPS, || run_once(&w)).as_secs_f64();
        let speedup = serial / parallel;
        table.row(vec![
            w.name.into(),
            w.d.to_string(),
            fmt(serial),
            fmt(parallel),
            fmt(speedup),
        ]);
        entries.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(w.name.into())),
            ("d", JsonValue::Num(w.d as f64)),
            ("inner_iters", JsonValue::Num(w.cfg.max_inner as f64)),
            ("serial_seconds", JsonValue::Num(serial)),
            ("parallel_seconds", JsonValue::Num(parallel)),
            ("speedup", JsonValue::Num(speedup)),
        ]));
    }
    table.print();

    let thresholded = Thresholded::new();
    let d = thresholded.stats.dim();
    heading(&format!(
        "dense d={d} thresholded (θ = {}): ms per inner iteration, best of {REPS}",
        thresholded.cfg.theta
    ));
    let mut table = Table::new(&[
        "round",
        "nnz(W)",
        "serial_ms",
        "parallel_ms",
        "loss madds d³",
        "loss madds d·nnz",
    ]);
    par::set_thread_override(Some(1));
    let (serial, nnz) = thresholded.per_round();
    par::set_thread_override(None);
    let (parallel, _) = thresholded.per_round();
    let mut rounds = Vec::new();
    for r in 0..2 {
        let full = d.pow(3);
        let gathered = d * nnz[r];
        table.row(vec![
            r.to_string(),
            nnz[r].to_string(),
            fmt(serial[r] * 1e3),
            fmt(parallel[r] * 1e3),
            full.to_string(),
            gathered.to_string(),
        ]);
        rounds.push(JsonValue::obj(vec![
            ("round", JsonValue::Num(r as f64)),
            ("nnz", JsonValue::Num(nnz[r] as f64)),
            ("serial_ms_per_iter", JsonValue::Num(serial[r] * 1e3)),
            ("parallel_ms_per_iter", JsonValue::Num(parallel[r] * 1e3)),
            ("loss_madds_full_product", JsonValue::Num(full as f64)),
            ("loss_madds_gathered", JsonValue::Num(gathered as f64)),
        ]));
    }
    table.print();
    let thresholded_entry = JsonValue::obj(vec![
        ("name", JsonValue::Str("dense_d200_thresholded".into())),
        ("d", JsonValue::Num(d as f64)),
        ("theta", JsonValue::Num(thresholded.cfg.theta)),
        (
            "inner_iters_per_round",
            JsonValue::Num(thresholded.cfg.max_inner as f64),
        ),
        ("rounds", JsonValue::Arr(rounds)),
    ]);

    least_bench::emit_report(
        "engine_throughput",
        "BENCH_engine.json",
        vec![
            ("reps_best_of", JsonValue::Num(REPS as f64)),
            ("workloads", JsonValue::Arr(entries)),
            ("thresholded", thresholded_entry),
        ],
    );
}
