//! Out-of-core ingestion + Gram-path training benchmark.
//!
//! Three claims are measured (DESIGN.md §9):
//!
//! 1. **Ingestion throughput** — streaming a generated LSEM dataset from
//!    disk (CSV and `LEASTDAT` binary) into `SufficientStats`, reported
//!    as rows/s and MB/s, with the formats asserted to produce identical
//!    statistics. The CSV parse alone (`CsvReader` drained, no Gram
//!    update) is timed at pool width 1 and at the configured width, as
//!    ns/field and MB/s, on the file as the writer prints it (`{v}`,
//!    plain decimals: the byte path) and on the same values printed in
//!    exponent notation (`{:e}`, which no field of takes the byte path).
//!    Beside each, the `str` line loop the reader used before its byte
//!    path (`read_line`, `split`, `trim`, `str::parse`) is timed on the
//!    same file, and the share of fields in the byte path's form is
//!    counted.
//! 2. **n-independence of training** — per-iteration wall time of
//!    `LeastDense::fit_stats` at a fixed `d` for statistics accumulated
//!    over n = 10⁴ versus n = 10⁶ rows (the big accumulation streams
//!    synthetic chunks through `GramAccumulator`, so the benchmark never
//!    materializes an n-sized matrix — the point of the subsystem). The
//!    reported ratio should sit at ~1.0. For contrast, one call of the
//!    residual loss (`loss::batch_value_and_grad`, O(n·d²)) and of the
//!    Gram loss is timed on the same `W` and n = 10⁴ rows.
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
use least_bench::timing::time_best_of;
use least_core::loss::batch_value_and_grad;
use least_core::{GramLoss, LeastConfig, LeastDense};
use least_data::{
    export_binary, export_csv, sample_lsem, Dataset, NoiseModel, Preprocess, SufficientStats,
};
use least_graph::{erdos_renyi_dag, weighted_adjacency_dense, WeightRange};
use least_ingest::decimal::parse_plain_decimal;
use least_ingest::{
    ingest_binary, ingest_csv, ChunkSource, CsvReader, GramAccumulator, IngestConfig,
};
use least_linalg::tile::Encoding;
use least_linalg::{par, DenseMatrix, PackedSym, Xoshiro256pp};
use least_serve::json::JsonValue;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Best-of repetitions per timed measurement.
const REPS: usize = 3;
/// Best-of repetitions of each CSV parse: one takes ~30 ms, so more runs
/// fit, and the readers' ~10 % differences need them on a shared host.
const PARSE_REPS: usize = 9;
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
fn fixed_work_config() -> LeastConfig {
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

/// Write `data` as CSV with every value in exponent notation (`{:e}`,
/// shortest round trip), under the header `export_csv` writes.
fn export_csv_exponent(data: &Dataset, path: &Path) {
    let mut out = BufWriter::new(File::create(path).expect("create csv"));
    let names: Vec<String> = (0..data.num_vars()).map(|j| format!("x{j}")).collect();
    writeln!(out, "{}", names.join(",")).expect("write header");
    for row in data.matrix().rows_iter() {
        let fields: Vec<String> = row.iter().map(|v| format!("{v:e}")).collect();
        writeln!(out, "{}", fields.join(",")).expect("write row");
    }
    out.flush().expect("flush csv");
}

/// Drain `path` through `CsvReader` without accumulating: the parse
/// alone. Returns the fields read.
fn parse_csv(path: &Path) -> usize {
    let mut reader = CsvReader::open(path).expect("open csv");
    let mut fields = 0;
    while let Some(chunk) = reader
        .next_chunk(IngestConfig::default().chunk_rows)
        .expect("parse csv")
    {
        fields += chunk.as_slice().len();
    }
    fields
}

/// The parse loop of the reader before its byte path: each line read into
/// a `String`, split on commas, every trimmed field through `str::parse`
/// and checked finite. Returns the fields read.
fn parse_csv_str_lines(path: &Path) -> usize {
    let mut input = BufReader::new(File::open(path).expect("open csv"));
    let mut line = String::new();
    input.read_line(&mut line).expect("read header");
    let mut values = Vec::new();
    loop {
        line.clear();
        if input.read_line(&mut line).expect("read line") == 0 {
            break;
        }
        for field in line.trim_end_matches(['\n', '\r']).split(',') {
            let v: f64 = field.trim().parse().expect("number");
            assert!(v.is_finite(), "finite field");
            values.push(v);
        }
    }
    values.len()
}

/// Share of the data fields of the CSV at `path` that are in the form
/// the reader converts from bytes.
fn byte_path_share(path: &Path) -> f64 {
    let text = std::fs::read(path).expect("read csv");
    let (mut plain, mut total) = (0usize, 0usize);
    for line in text
        .split(|&b| b == b'\n')
        .skip(1)
        .filter(|l| !l.is_empty())
    {
        for field in line.split(|&b| b == b',') {
            plain += usize::from(parse_plain_decimal(field).is_some());
            total += 1;
        }
    }
    plain as f64 / total as f64
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
    let exp_path = temp("data_exp.csv");
    let bin_path = temp("data.dat");
    export_csv(&file_data, &csv_path).expect("export csv");
    export_csv_exponent(&file_data, &exp_path);
    export_binary(&file_data, &bin_path).expect("export binary");
    let csv_bytes = std::fs::metadata(&csv_path).expect("csv size").len();
    let exp_bytes = std::fs::metadata(&exp_path).expect("csv size").len();
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
    let from_exp = ingest_csv(&exp_path, &ingest_cfg).expect("ingest csv");
    let from_bin = ingest_binary(&bin_path, &ingest_cfg).expect("ingest binary");
    let formats_agree = from_csv == from_bin && from_exp == from_bin;
    assert!(formats_agree, "csv and binary ingestion diverged");

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

    // ── Phase 1b: the CSV parse alone ─────────────────────────────────
    let fields = file_rows * d;
    heading(&format!(
        "CSV parse: {fields} fields, decimal (`{{v}}`) and exponent (`{{:e}}`) text, \
         best of {PARSE_REPS}"
    ));
    let mut widths = vec![1, par::max_threads()];
    widths.dedup();
    let mut parse_table = Table::new(&[
        "text",
        "reader",
        "threads",
        "seconds",
        "ns/field",
        "MB/s",
        "byte path",
    ]);
    let mut parse_runs = Vec::new();
    let readers = [
        ("csv_reader", parse_csv as fn(&Path) -> usize),
        ("str_lines", parse_csv_str_lines),
    ];
    for (text, path, bytes) in [
        ("decimal", &csv_path, csv_bytes),
        ("exponent", &exp_path, exp_bytes),
    ] {
        let share = byte_path_share(path);
        for &threads in &widths {
            par::set_thread_override(Some(threads));
            // The readers take turns, so a slow spell of a shared host
            // falls on both.
            let mut best = [f64::INFINITY; 2];
            for _ in 0..PARSE_REPS {
                for ((reader, parse), best) in readers.iter().zip(&mut best) {
                    let start = Instant::now();
                    assert_eq!(parse(path), fields, "{reader} read every field");
                    *best = best.min(start.elapsed().as_secs_f64());
                }
            }
            for ((reader, _), secs) in readers.into_iter().zip(best) {
                let ns_per_field = secs * 1e9 / fields as f64;
                let mb_per_s = bytes as f64 / 1e6 / secs;
                parse_table.row(vec![
                    text.into(),
                    reader.into(),
                    threads.to_string(),
                    fmt(secs),
                    fmt(ns_per_field),
                    fmt(mb_per_s),
                    fmt(share),
                ]);
                parse_runs.push(JsonValue::obj(vec![
                    ("text", JsonValue::Str(text.into())),
                    ("reader", JsonValue::Str(reader.into())),
                    ("threads", JsonValue::Num(threads as f64)),
                    ("bytes", JsonValue::Num(bytes as f64)),
                    ("seconds", JsonValue::Num(secs)),
                    ("ns_per_field", JsonValue::Num(ns_per_field)),
                    ("mb_per_s", JsonValue::Num(mb_per_s)),
                    ("byte_path_share", JsonValue::Num(share)),
                ]));
            }
            par::set_thread_override(None);
        }
    }
    parse_table.print();
    let csv_parse = JsonValue::obj(vec![
        ("fields", JsonValue::Num(fields as f64)),
        ("runs", JsonValue::Arr(parse_runs)),
    ]);
    for path in [&csv_path, &exp_path, &bin_path] {
        std::fs::remove_file(path).ok();
    }

    // ── Phase 2: per-iteration independence from n ────────────────────
    let accumulate_start = std::time::Instant::now();
    let stats_small = streamed_stats(&w, n_small, 0x51A7);
    let stats_big = streamed_stats(&w, n_big, 0x51A8);
    let accumulate_s = accumulate_start.elapsed().as_secs_f64();

    let cfg = fixed_work_config();
    let solver = LeastDense::new(cfg).expect("config");
    let small_s = time_best_of(REPS, || solver.fit_stats(&stats_small).expect("fit")).as_secs_f64();
    let big_s = time_best_of(REPS, || solver.fit_stats(&stats_big).expect("fit")).as_secs_f64();
    let per_iter_small = small_s / ITERS as f64;
    let per_iter_big = big_s / ITERS as f64;
    let ratio = per_iter_big / per_iter_small;

    // Contrast, per loss call on the same W and n_small rows: the residual
    // loss pays O(n·d²) per call, the Gram loss O(d² + d·nnz(W)).
    let mut rng = Xoshiro256pp::new(0xDA7A);
    let small_data =
        sample_lsem(&w, n_small, NoiseModel::standard_gaussian(), &mut rng).expect("sample");
    let gram_loss = GramLoss::new(&small_data, cfg.lambda).expect("gram");
    let per_call = |f: &dyn Fn()| {
        time_best_of(REPS, || (0..ITERS).for_each(|_| f())).as_secs_f64() / ITERS as f64
    };
    let residual_call_s = per_call(&|| {
        std::hint::black_box(batch_value_and_grad(&small_data, &w, cfg.lambda).expect("loss"));
    });
    let gram_call_s = per_call(&|| {
        std::hint::black_box(gram_loss.value_and_grad(&w).expect("loss"));
    });

    let mut table = Table::new(&["path", "n", "s/iter"]);
    table.row(vec![
        "gram".into(),
        n_small.to_string(),
        fmt(per_iter_small),
    ]);
    table.row(vec!["gram".into(), n_big.to_string(), fmt(per_iter_big)]);
    table.print();
    let mut call_table = Table::new(&["loss", "n", "s/call"]);
    call_table.row(vec!["gram".into(), n_small.to_string(), fmt(gram_call_s)]);
    call_table.row(vec![
        "residual".into(),
        n_small.to_string(),
        fmt(residual_call_s),
    ]);
    call_table.print();
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
            update_runs.push(JsonValue::obj(vec![
                ("encoding", JsonValue::Str(format!("{encoding:?}"))),
                ("threads", JsonValue::Num(threads as f64)),
                ("seconds", JsonValue::Num(secs)),
                ("gflops", JsonValue::Num(gflops)),
            ]));
        }
    }
    update_table.print();
    let gram_update = JsonValue::obj(vec![
        ("d", JsonValue::Num(UPDATE_D as f64)),
        ("rows", JsonValue::Num(update_rows as f64)),
        ("chunk_rows", JsonValue::Num(chunk_rows as f64)),
        ("madds", JsonValue::Num(update_madds as f64)),
        (
            "detected_encoding",
            JsonValue::Str(format!("{:?}", Encoding::detect())),
        ),
        ("runs", JsonValue::Arr(update_runs)),
    ]);

    least_bench::emit_report(
        "ingest_throughput",
        "BENCH_ingest.json",
        vec![
            ("d", JsonValue::Num(d as f64)),
            ("reps_best_of", JsonValue::Num(REPS as f64)),
            ("file_rows", JsonValue::Num(file_rows as f64)),
            ("csv_bytes", JsonValue::Num(csv_bytes as f64)),
            ("csv_ingest_seconds", JsonValue::Num(csv_s)),
            ("csv_rows_per_s", JsonValue::Num(file_rows as f64 / csv_s)),
            ("binary_bytes", JsonValue::Num(bin_bytes as f64)),
            ("binary_ingest_seconds", JsonValue::Num(bin_s)),
            (
                "binary_rows_per_s",
                JsonValue::Num(file_rows as f64 / bin_s),
            ),
            ("formats_agree_bitwise", JsonValue::Bool(formats_agree)),
            ("csv_parse", csv_parse),
            ("train_iters", JsonValue::Num(ITERS as f64)),
            ("n_small", JsonValue::Num(n_small as f64)),
            ("n_big", JsonValue::Num(n_big as f64)),
            ("accumulate_both_seconds", JsonValue::Num(accumulate_s)),
            (
                "gram_per_iter_seconds_n_small",
                JsonValue::Num(per_iter_small),
            ),
            ("gram_per_iter_seconds_n_big", JsonValue::Num(per_iter_big)),
            ("gram_per_iter_ratio_big_over_small", JsonValue::Num(ratio)),
            (
                "gram_loss_per_call_seconds_n_small",
                JsonValue::Num(gram_call_s),
            ),
            (
                "residual_loss_per_call_seconds_n_small",
                JsonValue::Num(residual_call_s),
            ),
            ("gram_update", gram_update),
        ],
    );
}
