//! # least-bench
//!
//! Benchmark harness: one runnable target per table and figure of the
//! paper's evaluation (Section V) and application study (Section VI).
//!
//! | Paper artifact | Target |
//! |---|---|
//! | Fig. 4 rows 1-3 (F1 / SHD / corr(δ̄,h) vs d) | `cargo run --release -p least-bench --bin fig4_accuracy` |
//! | Fig. 4 row 4 (wall time vs d) | `... --bin fig4_time` |
//! | Fig. 5 + large-dataset property table | `... --bin fig5_scalability` |
//! | Gene table (Sachs / E. coli / Yeast) | `... --bin table_genes` |
//! | Fig. 6 + Fig. 7 + Table II (monitoring) | `... --bin fig7_monitor` |
//! | Table IV + Fig. 8 (MovieLens case study) | `... --bin table_movielens` |
//! | Design-choice ablations (k, α, θ, B) | `... --bin ablation` |
//! | Constraint micro-costs (δ̄ vs h vs g) | `cargo bench -p least-bench` |
//!
//! Beyond the paper's figures, three systems benchmarks write
//! machine-readable JSON artifacts through the shared [`emit_report`]
//! emitter (one schema: `benchmark`, `parallel_feature`, `threads`, plus
//! benchmark-specific fields; `LEAST_BENCH_OUT` overrides the path):
//!
//! | Systems benchmark | Target |
//! |---|---|
//! | Solver engine, serial vs parallel (`BENCH_engine.json`) | `... --bin engine_throughput` |
//! | Serving layer over real TCP (`BENCH_serve.json`) | `... --bin serve_throughput` |
//! | Out-of-core ingestion + Gram path (`BENCH_ingest.json`) | `... --bin ingest_throughput` |
//!
//! Every binary prints its seeds and parameters, accepts `--full` for
//! paper-scale sweeps (the defaults are laptop-scale; EXPERIMENTS.md
//! records the scale-downs), and writes aligned tables to stdout.

pub mod report;
pub mod timing;
pub mod workloads;

use least_serve::json::JsonValue;

pub use report::Table;
pub use workloads::{benchmark_instance, BenchInstance};

/// True when `--full` was passed: run at (closer to) paper scale.
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Write a systems-benchmark JSON artifact with the shared envelope
/// (`benchmark` name, `parallel_feature`, worker-pool size) plus the
/// benchmark-specific `fields`, to `LEAST_BENCH_OUT` or `default_file`,
/// as one compact line with sorted keys. Returns the path written.
pub fn emit_report(benchmark: &str, default_file: &str, fields: Vec<(&str, JsonValue)>) -> String {
    let mut pairs = vec![
        ("benchmark", JsonValue::Str(benchmark.into())),
        (
            "parallel_feature",
            JsonValue::Bool(cfg!(feature = "parallel")),
        ),
        (
            "threads",
            JsonValue::Num(least_linalg::par::max_threads() as f64),
        ),
    ];
    pairs.extend(fields);
    let report = JsonValue::obj(pairs).render() + "\n";
    let path = std::env::var("LEAST_BENCH_OUT").unwrap_or_else(|_| default_file.into());
    std::fs::write(&path, report).expect("write benchmark report");
    println!("\nwrote {path}");
    path
}
