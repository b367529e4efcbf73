//! Out-of-core ingestion + Gram-path training benchmark.
//!
//! Two claims are measured (DESIGN.md §9):
//!
//! 1. **Ingestion throughput** — streaming a generated LSEM dataset from
//!    disk (CSV and `LEASTDAT` binary) into `SufficientStats`, reported
//!    as rows/s and MB/s, with the two formats asserted to produce
//!    identical statistics.
//! 2. **n-independence of training** — per-iteration wall time of
//!    `LeastDense::fit_stats` at a fixed `d` for statistics accumulated
//!    over n = 10⁴ versus n = 10⁶ rows (the big accumulation streams
//!    synthetic chunks through `GramAccumulator`, so the benchmark never
//!    materializes an n-sized matrix — the point of the subsystem). The
//!    reported ratio should sit at ~1.0; the raw-data path at n = 10⁴ is
//!    timed alongside for contrast.
//! 3. **The Gram update alone at d = 256** — `PackedSym::rank_update` over
//!    in-memory chunks, so CSV parsing does not hide the kernel (at the
//!    file phase's d = 32 it does). Each encoding of the tiled kernel is
//!    timed at pool width 1 and at the configured width, and reported as
//!    seconds, multiply-adds (`rows · d(d+1)/2`, from the shape) and
//!    GFLOP/s (two flops per multiply-add).
//!
//! Writes `BENCH_ingest.json` via the shared emitter (override the path
//! with `LEAST_BENCH_OUT`).

use least_bench::report::{fmt, heading, Table};
use least_bench::timing::{time_best_of, Json};
use least_core::{LeastConfig, LeastDense, LossPath};
use least_data::{
    export_binary, export_csv, sample_lsem, Dataset, NoiseModel, Preprocess, SufficientStats,
};
use least_graph::{erdos_renyi_dag, weighted_adjacency_dense, WeightRange};
use least_ingest::{ingest_binary, ingest_csv, GramAccumulator, IngestConfig};
use least_linalg::tile::Encoding;
use least_linalg::{par, DenseMatrix, PackedSym, Xoshiro256pp};
use std::path::PathBuf;

/// Best-of repetitions per timed measurement.
const REPS: usize = 3;
/// Fixed inner iterations per timed fit (no early exit). Sized so one
/// fit is ~10 ms at the default `d`: long enough that the CI gate on the
/// per-iteration ratio measures compute, not scheduler noise.
const ITERS: usize = 200;
/// Rows per synthetic chunk streamed through the accumulator.
const CHUNK_ROWS: usize = 20_000;
/// Order of the Gram-update case: wide enough that the kernel, not
/// parsing, is the cost.
const UPDATE_D: usize = 256;
/// Chunks of `IngestConfig::default().chunk_rows` rows per timed update.
const UPDATE_CHUNKS: usize = 8;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("least_ingest_bench_{}_{name}", std::process::id()))
}

/// Ground-truth weights for the synthetic LSEM (ER, expected degree 2).
fn truth(d: usize, seed: u64) -> DenseMatrix {
    let mut rng = Xoshiro256pp::new(seed);
    let g = erdos_renyi_dag(d, 2, &mut rng);
    weighted_adjacency_dense(&g, WeightRange::default(), &mut rng)
}

/// Accumulate statistics over `n` rows without ever holding more than one
/// chunk: the in-memory analogue of the file readers, used to reach
/// n = 10⁶ cheaply.
fn streamed_stats(w: &DenseMatrix, n: usize, seed: u64) -> SufficientStats {
    let mut acc = GramAccumulator::new(w.rows());
    let mut rng = Xoshiro256pp::new(seed);
    let mut remaining = n;
    while remaining > 0 {
        let rows = remaining.min(CHUNK_ROWS);
        let chunk =
            sample_lsem(w, rows, NoiseModel::standard_gaussian(), &mut rng).expect("acyclic truth");
        acc.update(&chunk).expect("accumulate");
        remaining -= rows;
    }
    acc.finalize(Preprocess::Raw).expect("finalize")
}

/// One fixed-work training run (init + `ITERS` inner iterations).
fn fixed_work_config(d: usize) -> LeastConfig {
    let mut cfg = LeastConfig {
        max_outer: 1,
        max_inner: ITERS,
        inner_tol: 0.0,
        theta: 0.0,
        epsilon: 1e-12,
        lambda: 0.1,
        ..Default::default()
    };
    cfg.adam.learning_rate = 0.01;
    let _ = d;
    cfg
}

/// Best-of-`REPS` seconds to fold `chunks` copies of `chunk` into a fresh
/// order-`d` accumulator in `encoding`.
fn time_gram_update(chunk: &DenseMatrix, chunks: usize, encoding: Encoding) -> f64 {
    time_best_of(REPS, || {
        let mut acc = PackedSym::zeros(chunk.cols());
        for _ in 0..chunks {
            acc.rank_update_with(chunk, encoding).expect("rank update");
        }
        acc
    })
    .as_secs_f64()
}

fn main() {
    let full = least_bench::full_scale();
    let d = if full { 64 } else { 32 };
    let file_rows = if full { 100_000 } else { 20_000 };
    let n_small = 10_000usize;
    let n_big = 1_000_000usize;

    heading(&format!(
        "ingest throughput: d={d}, file={file_rows} rows, gram-path iteration test \
         n={n_small} vs n={n_big}, best of {REPS}"
    ));

    let w = truth(d, 0x1A6E);

    // ── Phase 1: file ingestion throughput ────────────────────────────
    let mut rng = Xoshiro256pp::new(0xF11E);
    let file_data = Dataset::new(
        sample_lsem(&w, file_rows, NoiseModel::standard_gaussian(), &mut rng).expect("sample"),
    );
    let csv_path = temp("data.csv");
    let bin_path = temp("data.dat");
    export_csv(&file_data, &csv_path).expect("export csv");
    export_binary(&file_data, &bin_path).expect("export binary");
    let csv_bytes = std::fs::metadata(&csv_path).expect("csv size").len();
    let bin_bytes = std::fs::metadata(&bin_path).expect("bin size").len();

    let ingest_cfg = IngestConfig::default();
    let csv_s = time_best_of(REPS, || {
        ingest_csv(&csv_path, &ingest_cfg).expect("ingest csv")
    })
    .as_secs_f64();
    let bin_s = time_best_of(REPS, || {
        ingest_binary(&bin_path, &ingest_cfg).expect("ingest binary")
    })
    .as_secs_f64();
    let from_csv = ingest_csv(&csv_path, &ingest_cfg).expect("ingest csv");
    let from_bin = ingest_binary(&bin_path, &ingest_cfg).expect("ingest binary");
    let formats_agree = from_csv == from_bin;
    assert!(formats_agree, "csv and binary ingestion diverged");
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&bin_path).ok();

    let mut io_table = Table::new(&["format", "bytes", "seconds", "rows/s", "MB/s"]);
    for (name, bytes, secs) in [("csv", csv_bytes, csv_s), ("binary", bin_bytes, bin_s)] {
        io_table.row(vec![
            name.into(),
            bytes.to_string(),
            fmt(secs),
            fmt(file_rows as f64 / secs),
            fmt(bytes as f64 / 1e6 / secs),
        ]);
    }
    io_table.print();

    // ── Phase 2: per-iteration independence from n ────────────────────
    let accumulate_start = std::time::Instant::now();
    let stats_small = streamed_stats(&w, n_small, 0x51A7);
    let stats_big = streamed_stats(&w, n_big, 0x51A8);
    let accumulate_s = accumulate_start.elapsed().as_secs_f64();

    let cfg = fixed_work_config(d);
    let solver = LeastDense::new(cfg).expect("config");
    let small_s = time_best_of(REPS, || solver.fit_stats(&stats_small).expect("fit")).as_secs_f64();
    let big_s = time_best_of(REPS, || solver.fit_stats(&stats_big).expect("fit")).as_secs_f64();
    let per_iter_small = small_s / ITERS as f64;
    let per_iter_big = big_s / ITERS as f64;
    let ratio = per_iter_big / per_iter_small;

    // Contrast: the raw-data path at n_small pays O(n·d) per iteration.
    let mut data_cfg = cfg;
    data_cfg.loss_path = LossPath::Data;
    let data_solver = LeastDense::new(data_cfg).expect("config");
    let mut rng = Xoshiro256pp::new(0xDA7A);
    let small_data = Dataset::new(
        sample_lsem(&w, n_small, NoiseModel::standard_gaussian(), &mut rng).expect("sample"),
    );
    let data_s = time_best_of(REPS, || data_solver.fit(&small_data).expect("fit")).as_secs_f64();
    let per_iter_data = data_s / ITERS as f64;

    let mut table = Table::new(&["path", "n", "s/iter"]);
    table.row(vec![
        "gram".into(),
        n_small.to_string(),
        fmt(per_iter_small),
    ]);
    table.row(vec!["gram".into(), n_big.to_string(), fmt(per_iter_big)]);
    table.row(vec!["data".into(), n_small.to_string(), fmt(per_iter_data)]);
    table.print();
    println!(
        "\ngram per-iteration ratio (n={n_big} / n={n_small}): {} — target ≤ 1.25",
        fmt(ratio)
    );

    // ── Phase 3: the Gram update alone at d = 256 ──────────────────────
    let chunk_rows = IngestConfig::default().chunk_rows;
    let mut rng = Xoshiro256pp::new(0x6A11);
    let chunk = DenseMatrix::from_fn(chunk_rows, UPDATE_D, |_, _| rng.gaussian());
    let update_rows = chunk_rows * UPDATE_CHUNKS;
    let update_madds = update_rows * UPDATE_D * (UPDATE_D + 1) / 2;
    heading(&format!(
        "Gram update: d={UPDATE_D}, {UPDATE_CHUNKS} chunks of {chunk_rows} rows, \
         {update_madds} multiply-adds, best of {REPS}"
    ));
    let mut widths = vec![1, par::max_threads()];
    widths.dedup();
    let mut update_table = Table::new(&["encoding", "threads", "seconds", "GFLOP/s"]);
    let mut update_runs = Vec::new();
    for encoding in Encoding::ALL {
        if !encoding.is_available() {
            println!("{encoding:?}: not detected on this CPU, skipped");
            continue;
        }
        for &threads in &widths {
            par::set_thread_override(Some(threads));
            let secs = time_gram_update(&chunk, UPDATE_CHUNKS, encoding);
            par::set_thread_override(None);
            let gflops = 2.0 * update_madds as f64 / secs / 1e9;
            update_table.row(vec![
                format!("{encoding:?}"),
                threads.to_string(),
                fmt(secs),
                fmt(gflops),
            ]);
            update_runs.push(Json::obj(vec![
                ("encoding", Json::Str(format!("{encoding:?}"))),
                ("threads", Json::Int(threads as i64)),
                ("seconds", Json::Num(secs)),
                ("gflops", Json::Num(gflops)),
            ]));
        }
    }
    update_table.print();
    let gram_update = Json::obj(vec![
        ("d", Json::Int(UPDATE_D as i64)),
        ("rows", Json::Int(update_rows as i64)),
        ("chunk_rows", Json::Int(chunk_rows as i64)),
        ("madds", Json::Int(update_madds as i64)),
        (
            "detected_encoding",
            Json::Str(format!("{:?}", Encoding::detect())),
        ),
        ("runs", Json::Arr(update_runs)),
    ]);

    least_bench::emit_report(
        "ingest_throughput",
        "BENCH_ingest.json",
        vec![
            ("d", Json::Int(d as i64)),
            ("reps_best_of", Json::Int(REPS as i64)),
            ("file_rows", Json::Int(file_rows as i64)),
            ("csv_bytes", Json::Int(csv_bytes as i64)),
            ("csv_ingest_seconds", Json::Num(csv_s)),
            ("csv_rows_per_s", Json::Num(file_rows as f64 / csv_s)),
            ("binary_bytes", Json::Int(bin_bytes as i64)),
            ("binary_ingest_seconds", Json::Num(bin_s)),
            ("binary_rows_per_s", Json::Num(file_rows as f64 / bin_s)),
            ("formats_agree_bitwise", Json::Bool(formats_agree)),
            ("train_iters", Json::Int(ITERS as i64)),
            ("n_small", Json::Int(n_small as i64)),
            ("n_big", Json::Int(n_big as i64)),
            ("accumulate_both_seconds", Json::Num(accumulate_s)),
            ("gram_per_iter_seconds_n_small", Json::Num(per_iter_small)),
            ("gram_per_iter_seconds_n_big", Json::Num(per_iter_big)),
            ("gram_per_iter_ratio_big_over_small", Json::Num(ratio)),
            ("data_per_iter_seconds_n_small", Json::Num(per_iter_data)),
            ("gram_update", gram_update),
        ],
    );
}
