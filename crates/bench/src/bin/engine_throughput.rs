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
//! statistics for three fixed rounds at θ = 0.05 and reports the time per
//! inner iteration of each round. Round 0 trains the dense iterate until
//! its filter starts (DESIGN.md §6); from the first filter on the solver
//! iterates on `W`'s support. Beside the times it records, per round,
//! machine-independent counts: the iteration the filter started at, the
//! iterations whose loss ran on the dense iterate and on the support, and
//! the Gram loss's multiply-adds as the solver counts them — `d·nnz(W)`
//! per dense iteration (the nonzero products of the tiled gather, whose
//! 4 × 8 tiles also multiply the zeros of each 4-column block of `W` they
//! visit), `Σ_l nnz_l²` per support iteration — next to the `d³` per
//! iteration of the full `G·W` product. A round can mix the two regimes
//! (on this workload round 1's first iteration is dense and the rest run
//! on the support), so the regimes are also reported on their own rows:
//! each from the rounds whose every iteration ran in it (round 0 dense,
//! round 2 on the support).
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
use std::time::Duration;

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

/// Fixed rounds of the thresholded dense workload.
const ROUNDS: usize = 3;

/// The thresholded dense workload: d = 200, θ = 0.05, three fixed rounds.
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
            max_outer: ROUNDS,
            max_inner: 50,
            inner_tol: 0.0,
            epsilon: 1e-12,
            ..Default::default()
        };
        Self { stats, cfg }
    }

    /// Best-of-`REPS` seconds per inner iteration of each round, and each
    /// round's counts (the same in every repetition).
    fn per_round(&self) -> ([f64; ROUNDS], [RoundCounts; ROUNDS]) {
        let solver = LeastDense::new(self.cfg).expect("config");
        let mut best = [f64::INFINITY; ROUNDS];
        let mut counts = [RoundCounts::default(); ROUNDS];
        for _ in 0..REPS {
            let fit = solver.fit_stats(&self.stats).expect("fit");
            let points = fit.trace.points();
            assert_eq!(points.len(), ROUNDS, "{ROUNDS} fixed rounds");
            let mut on_support = false;
            let mut start = Duration::ZERO;
            for (r, p) in points.iter().enumerate() {
                let round = p.elapsed - start;
                start = p.elapsed;
                best[r] = best[r].min(round.as_secs_f64() / p.inner_iters as f64);
                // The dense backend moves to the support at its first
                // filter; that iteration's loss still ran dense.
                let dense_iters = match (on_support, p.filter_from) {
                    (true, _) => 0,
                    (false, Some(first)) => first + 1,
                    (false, None) => p.inner_iters,
                };
                on_support |= p.filter_from.is_some();
                counts[r] = RoundCounts {
                    nnz: p.nnz,
                    filter_from: p.filter_from,
                    dense_iters,
                    support_iters: p.inner_iters - dense_iters,
                    loss_madds: p.loss_madds,
                };
            }
        }
        (best, counts)
    }
}

/// One round's machine-independent counts.
#[derive(Debug, Clone, Copy, Default)]
struct RoundCounts {
    /// `nnz(W)` at the end of the round.
    nnz: usize,
    /// First filtered iteration of the round.
    filter_from: Option<usize>,
    /// Iterations whose loss ran on the dense iterate.
    dense_iters: usize,
    /// Iterations whose loss ran on `W`'s support.
    support_iters: usize,
    /// The loss's multiply-adds over the round.
    loss_madds: u64,
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
        "filter from",
        "dense iters",
        "support iters",
        "serial_ms",
        "parallel_ms",
        "loss madds",
        "full G·W madds",
    ]);
    par::set_thread_override(Some(1));
    let (serial, counts) = thresholded.per_round();
    par::set_thread_override(None);
    let (parallel, _) = thresholded.per_round();
    let mut rounds = Vec::new();
    for r in 0..ROUNDS {
        let c = counts[r];
        let full = (d.pow(3) * (c.dense_iters + c.support_iters)) as u64;
        let filter_from = c.filter_from.map_or("-".into(), |it| it.to_string());
        table.row(vec![
            r.to_string(),
            c.nnz.to_string(),
            filter_from,
            c.dense_iters.to_string(),
            c.support_iters.to_string(),
            fmt(serial[r] * 1e3),
            fmt(parallel[r] * 1e3),
            c.loss_madds.to_string(),
            full.to_string(),
        ]);
        let filter_from = c
            .filter_from
            .map_or(JsonValue::Null, |it| JsonValue::Num(it as f64));
        rounds.push(JsonValue::obj(vec![
            ("round", JsonValue::Num(r as f64)),
            ("nnz", JsonValue::Num(c.nnz as f64)),
            ("filter_from", filter_from),
            ("dense_iters", JsonValue::Num(c.dense_iters as f64)),
            ("support_iters", JsonValue::Num(c.support_iters as f64)),
            ("serial_ms_per_iter", JsonValue::Num(serial[r] * 1e3)),
            ("parallel_ms_per_iter", JsonValue::Num(parallel[r] * 1e3)),
            ("loss_madds", JsonValue::Num(c.loss_madds as f64)),
            ("loss_madds_full_product", JsonValue::Num(full as f64)),
        ]));
    }
    table.print();

    // Each regime from the rounds that ran wholly in it, weighted by
    // their iterations.
    let mut regime_table = Table::new(&[
        "regime",
        "rounds",
        "iterations",
        "serial_ms",
        "parallel_ms",
        "loss madds/iter",
    ]);
    let mut regimes = Vec::new();
    for (name, dense) in [("dense", true), ("support", false)] {
        let in_regime = |c: &RoundCounts| if dense { c.support_iters } else { c.dense_iters } == 0;
        let members: Vec<usize> = (0..ROUNDS).filter(|&r| in_regime(&counts[r])).collect();
        let iters = |r: usize| (counts[r].dense_iters + counts[r].support_iters) as f64;
        let total: f64 = members.iter().map(|&r| iters(r)).sum();
        let per_iter = |times: &[f64; ROUNDS]| {
            members.iter().map(|&r| times[r] * iters(r)).sum::<f64>() / total * 1e3
        };
        let madds = members
            .iter()
            .map(|&r| counts[r].loss_madds as f64)
            .sum::<f64>()
            / total;
        let names: Vec<String> = members.iter().map(usize::to_string).collect();
        regime_table.row(vec![
            name.into(),
            names.join(","),
            total.to_string(),
            fmt(per_iter(&serial)),
            fmt(per_iter(&parallel)),
            fmt(madds),
        ]);
        regimes.push(JsonValue::obj(vec![
            ("regime", JsonValue::Str(name.into())),
            (
                "rounds",
                JsonValue::Arr(members.iter().map(|&r| JsonValue::Num(r as f64)).collect()),
            ),
            ("iterations", JsonValue::Num(total)),
            ("serial_ms_per_iter", JsonValue::Num(per_iter(&serial))),
            ("parallel_ms_per_iter", JsonValue::Num(per_iter(&parallel))),
            ("loss_madds_per_iter", JsonValue::Num(madds)),
        ]));
    }
    regime_table.print();
    let thresholded_entry = JsonValue::obj(vec![
        ("name", JsonValue::Str("dense_d200_thresholded".into())),
        ("d", JsonValue::Num(d as f64)),
        ("theta", JsonValue::Num(thresholded.cfg.theta)),
        (
            "inner_iters_per_round",
            JsonValue::Num(thresholded.cfg.max_inner as f64),
        ),
        ("rounds", JsonValue::Arr(rounds)),
        ("regimes", JsonValue::Arr(regimes)),
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
