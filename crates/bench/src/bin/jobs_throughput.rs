//! Job-orchestration throughput benchmark.
//!
//! Pushes a batch of small end-to-end training jobs (CSV → ingest →
//! structure learning → parameter fit → registered model) through the
//! persistent [`least_jobs::JobQueue`], first with a single worker and
//! then with the full `least_linalg::par` pool, and writes the
//! machine-readable `BENCH_jobs.json` (override the path with
//! `LEAST_BENCH_OUT`).
//!
//! This is the paper's production shape — many concurrent training
//! *tasks*, not one big one (Section V-B reports ~100k tasks/day) — so
//! the interesting number is batch wall-time, journal fsyncs and all.
//! On a single-core box the pooled round can come out *slower* than the
//! serial one (two workers time-slicing one core plus queue contention);
//! the report records whatever the hardware actually did.

use least_bench::report::{fmt, heading, Table};
use least_data::{export_csv, sample_lsem_dataset, NoiseModel};
use least_graph::{erdos_renyi_dag, weighted_adjacency_dense, WeightRange};
use least_jobs::{JobQueue, JobRunner, JobSpec, QueueConfig, RunnerConfig};
use least_linalg::{par, Xoshiro256pp};
use least_serve::json::JsonValue;
use least_serve::ModelRegistry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Variables per job's dataset.
const D: usize = 16;
/// Rows per job's dataset.
const N: usize = 4_000;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("least_jobs_bench_{}_{name}", std::process::id()))
}

/// One shared CSV: every job ingests and learns it independently (the
/// per-job work is identical, so the 1-vs-pool comparison is clean).
fn write_dataset(path: &Path, seed: u64) {
    let mut rng = Xoshiro256pp::new(seed);
    let g = erdos_renyi_dag(D, 2, &mut rng);
    let w = weighted_adjacency_dense(&g, WeightRange { lo: 0.8, hi: 1.6 }, &mut rng);
    let data =
        sample_lsem_dataset(&w, N, NoiseModel::standard_gaussian(), &mut rng).expect("acyclic");
    export_csv(&data, path).expect("export csv");
}

fn spec(model: &str, csv: &Path) -> JobSpec {
    JobSpec::parse_str(&format!(
        r#"{{"model":"{model}","source":{{"kind":"csv","path":{:?}}},
            "config":{{"max_outer":6,"max_inner":120,"seed":9,
                       "learning_rate":0.02,"lambda":0.05}}}}"#,
        csv.display().to_string()
    ))
    .expect("valid spec")
}

/// Run `jobs` identical jobs through a fresh queue with `workers`
/// workers; returns (wall time, all succeeded).
fn run_batch(csv: &Path, jobs: usize, workers: usize, tag: &str) -> (Duration, bool) {
    let journal = temp(&format!("{tag}.journal"));
    std::fs::remove_file(&journal).ok();
    let queue = Arc::new(JobQueue::open(&journal, QueueConfig::default()).expect("journal"));
    let registry = Arc::new(ModelRegistry::new());
    let runner = JobRunner::new(
        Arc::clone(&queue),
        Arc::clone(&registry),
        RunnerConfig {
            workers,
            artifact_dir: None,
        },
    );
    for i in 0..jobs {
        queue
            .submit(spec(&format!("bench_{i}"), csv))
            .expect("submit");
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        let pool = scope.spawn(|| runner.run());
        loop {
            let counts = queue.counts();
            if counts.queued == 0 && counts.running == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        queue.stop_workers();
        pool.join().expect("worker pool");
    });
    let elapsed = start.elapsed();
    let ok = queue.counts().succeeded == jobs && registry.len() == jobs;
    std::fs::remove_file(&journal).ok();
    (elapsed, ok)
}

fn main() {
    let jobs = if least_bench::full_scale() { 64 } else { 16 };
    let pool = par::max_threads().max(2);
    heading(&format!(
        "job-orchestration throughput: {jobs} jobs (d={D}, n={N} each), 1 vs {pool} workers"
    ));

    let csv = temp("data.csv");
    write_dataset(&csv, 0xB0B);

    let (serial, serial_ok) = run_batch(&csv, jobs, 1, "serial");
    let (pooled, pooled_ok) = run_batch(&csv, jobs, pool, "pooled");
    std::fs::remove_file(&csv).ok();

    let speedup = serial.as_secs_f64() / pooled.as_secs_f64().max(1e-9);
    let mut table = Table::new(&["workers", "wall (s)", "jobs/s", "all succeeded"]);
    for (label, wall, ok) in [
        ("1".to_string(), serial, serial_ok),
        (pool.to_string(), pooled, pooled_ok),
    ] {
        table.row(vec![
            label,
            fmt(wall.as_secs_f64()),
            fmt(jobs as f64 / wall.as_secs_f64()),
            ok.to_string(),
        ]);
    }
    table.print();
    println!("pooled speedup: {:.2}x", speedup);
    assert!(serial_ok && pooled_ok, "a benchmark job failed");

    least_bench::emit_report(
        "jobs_throughput",
        "BENCH_jobs.json",
        vec![
            ("jobs", JsonValue::Num(jobs as f64)),
            ("d", JsonValue::Num(D as f64)),
            ("n_per_job", JsonValue::Num(N as f64)),
            ("serial_wall_s", JsonValue::Num(serial.as_secs_f64())),
            ("pooled_wall_s", JsonValue::Num(pooled.as_secs_f64())),
            ("pooled_workers", JsonValue::Num(pool as f64)),
            ("speedup_serial_over_pooled", JsonValue::Num(speedup)),
            ("all_succeeded", JsonValue::Bool(serial_ok && pooled_ok)),
        ],
    );
}
