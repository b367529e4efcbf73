//! Serving-layer throughput benchmark.
//!
//! Drives ≥ 10k Markov-blanket + conditional-mean queries against a
//! d=1000 sparse linear-Gaussian model **through the real TCP path**
//! (connect, HTTP/1.1 keep-alive, JSON in/out), in three scenarios:
//!
//! 1. `serial` — one server worker;
//! 2. `pooled` — the full worker pool;
//! 3. `contended` — the full pool **while a writer thread re-registers
//!    models over HTTP for the whole storm**, the scenario the lock-free
//!    snapshot registry exists for: per-query p50/max latency is
//!    reported with and without the writer, and with snapshot reads the
//!    contended p50 should sit within noise of the writer-free p50
//!    (an `RwLock` registry would stall every reader behind each
//!    registration's write lock).
//!
//! Writes the machine-readable `BENCH_serve.json` (override the path
//! with `LEAST_BENCH_OUT`).
//!
//! The model is registered over the wire too (one `PUT /models/{id}`),
//! so the measured system is exactly what production traffic would hit.
//! Before measuring, both artifact backends are checked for bit-exact
//! save → load → save round-trips — the persistence guarantee the
//! serving layer rests on.

use least_bench::report::{fmt, heading, Table};
use least_graph::{erdos_renyi_dag, weighted_adjacency_sparse, WeightRange};
use least_linalg::{par, Xoshiro256pp};
use least_serve::json::JsonValue;
use least_serve::{
    HttpClient, ModelArtifact, ModelMeta, ModelRegistry, Server, ServerConfig, WeightMatrix,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Model size (nodes).
const D: usize = 1000;
/// Concurrent client connections.
const CLIENTS: usize = 16;
/// Queries per client (total = CLIENTS × PER_CLIENT ≥ 10k).
const PER_CLIENT: usize = 640;

/// d=1000 sparse ER ground-truth model with unit noise and mild
/// intercepts — the LEAST-SP regime a deployed model comes from.
fn model() -> ModelArtifact {
    let mut rng = Xoshiro256pp::new(0x5E2E);
    let g = erdos_renyi_dag(D, 2, &mut rng);
    let w = weighted_adjacency_sparse(&g, WeightRange::default(), &mut rng);
    let intercepts: Vec<f64> = (0..D).map(|_| rng.uniform(-0.5, 0.5)).collect();
    ModelArtifact::new(
        WeightMatrix::Sparse(w),
        intercepts,
        vec![1.0; D],
        ModelMeta {
            threshold: 0.0,
            fingerprint: "serve_throughput ER d=1000 deg=2".into(),
        },
    )
    .expect("consistent artifact")
}

/// Bit-exactness check: save → load → save must reproduce the stream.
fn roundtrip_bit_exact(artifact: &ModelArtifact) -> bool {
    let bytes = artifact.to_bytes();
    match ModelArtifact::from_bytes(&bytes) {
        Ok(back) => back.to_bytes() == bytes,
        Err(_) => false,
    }
}

/// What one scenario measured.
struct RunStats {
    /// Wall time of the query phase (seconds).
    elapsed: f64,
    /// Per-query client-observed latencies, sorted ascending (seconds).
    latencies: Vec<f64>,
    /// Model re-registrations the writer completed during the storm.
    writer_registrations: u64,
}

impl RunStats {
    fn p50_ms(&self) -> f64 {
        self.latencies[self.latencies.len() / 2] * 1e3
    }

    fn max_ms(&self) -> f64 {
        self.latencies.last().copied().unwrap_or(0.0) * 1e3
    }
}

/// One full run: boot a server with `workers` handlers, upload the model
/// over TCP, fire the query load from `CLIENTS` concurrent connections —
/// optionally with a concurrent writer re-registering models over HTTP
/// for the whole query phase — then shut down.
fn run(artifact_bytes: &[u8], workers: usize, with_writer: bool) -> RunStats {
    let registry = Arc::new(ModelRegistry::new());
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", registry, config).expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    let mut stats = RunStats {
        elapsed: 0.0,
        latencies: Vec::new(),
        writer_registrations: 0,
    };
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || server.serve().expect("serve"));

        // Shut the server down before propagating any client panic: an
        // unwinding scope would otherwise block joining a server thread
        // that was never signalled.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Upload on a short-lived connection and drop it: an idle
            // keep-alive connection owns its worker until the read timeout
            // (connection-per-worker model, DESIGN.md §8), which would
            // serialize the whole serial run behind it.
            {
                let mut setup = HttpClient::connect(addr).expect("connect");
                let (status, body) = setup
                    .request("PUT", "/models/bench", artifact_bytes)
                    .expect("upload");
                assert_eq!(
                    status,
                    201,
                    "upload failed: {}",
                    String::from_utf8_lossy(&body)
                );
            }

            let clients_done = AtomicBool::new(false);
            let registrations = AtomicU64::new(0);
            let start = Instant::now();
            let mut elapsed = 0.0;
            let mut latencies: Vec<f64> = Vec::with_capacity(CLIENTS * PER_CLIENT);
            std::thread::scope(|clients| {
                if with_writer {
                    let clients_done = &clients_done;
                    let registrations = &registrations;
                    clients.spawn(move || {
                        // The write side of the contention scenario: keep
                        // re-registering the served model until the query
                        // storm ends. Each registration uses a short-lived
                        // connection — registration traffic is sporadic in
                        // production, and a keep-alive writer would pin a
                        // whole worker (connection-per-worker model) and
                        // measure scheduler starvation, not registry
                        // contention.
                        while !clients_done.load(Ordering::Relaxed) {
                            let mut writer = HttpClient::connect(addr).expect("writer connect");
                            let (status, body) = writer
                                .request("PUT", "/models/bench", artifact_bytes)
                                .expect("re-register");
                            assert_eq!(
                                status,
                                201,
                                "re-register failed: {}",
                                String::from_utf8_lossy(&body)
                            );
                            registrations.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    });
                }
                let mut client_threads = Vec::new();
                for client_id in 0..CLIENTS {
                    client_threads.push(clients.spawn(move || {
                        let mut client = HttpClient::connect(addr).expect("connect");
                        let mut latencies = Vec::with_capacity(PER_CLIENT);
                        for i in 0..PER_CLIENT {
                            let node = (client_id * 7919 + i * 13) % D;
                            let body = if i % 2 == 0 {
                                format!(r#"{{"kind":"markov_blanket","node":{node}}}"#)
                            } else {
                                let evidence = (node + 1) % D;
                                format!(
                                    r#"{{"kind":"posterior","target":{node},"evidence":[[{evidence},0.5]]}}"#
                                )
                            };
                            let sent = Instant::now();
                            let (status, response) = client
                                .request("POST", "/models/bench/query", body.as_bytes())
                                .expect("query");
                            latencies.push(sent.elapsed().as_secs_f64());
                            assert_eq!(
                                status,
                                200,
                                "query failed: {}",
                                String::from_utf8_lossy(&response)
                            );
                        }
                        latencies
                    }));
                }
                for thread in client_threads {
                    latencies.extend(thread.join().expect("client thread"));
                }
                // Stop the clock on the query storm itself, before the
                // scope drains the writer's in-flight registration (a
                // d=1000 engine compile) — that drain is not query work
                // and must not dilute the reported throughput.
                elapsed = start.elapsed().as_secs_f64();
                clients_done.store(true, Ordering::Relaxed);
            });
            latencies.sort_by(f64::total_cmp);
            RunStats {
                elapsed,
                latencies,
                writer_registrations: registrations.load(Ordering::Relaxed),
            }
        }));

        handle.shutdown();
        server_thread.join().expect("server thread");
        match result {
            Ok(run_stats) => stats = run_stats,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    stats
}

fn main() {
    let pool = par::max_threads();
    let total_queries = CLIENTS * PER_CLIENT;
    heading(&format!(
        "serve throughput: {total_queries} queries (Markov blanket + conditional mean), \
         d={D} sparse model, {CLIENTS} keep-alive connections, real TCP"
    ));

    let artifact = model();
    let dense_variant = ModelArtifact::new(
        WeightMatrix::Dense(match &artifact.weights {
            WeightMatrix::Sparse(w) => w.to_dense(),
            WeightMatrix::Dense(w) => w.clone(),
        }),
        artifact.intercepts.clone(),
        artifact.noise_vars.clone(),
        artifact.meta.clone(),
    )
    .expect("dense variant");
    let exact_sparse = roundtrip_bit_exact(&artifact);
    let exact_dense = roundtrip_bit_exact(&dense_variant);
    assert!(exact_sparse, "CSR artifact round-trip lost bits");
    assert!(exact_dense, "dense artifact round-trip lost bits");
    println!(
        "artifact round-trip bit-exact: csr ✓ dense ✓ ({} bytes sparse)",
        artifact.to_bytes().len()
    );

    let bytes = artifact.to_bytes();
    let serial = run(&bytes, 1, false);
    let pooled = run(&bytes, pool, false);
    let contended = run(&bytes, pool, true);
    let speedup = serial.elapsed / pooled.elapsed;
    let contended_p50_ratio = contended.p50_ms() / pooled.p50_ms();

    let mut table = Table::new(&[
        "mode",
        "workers",
        "seconds",
        "queries/s",
        "p50 ms",
        "max ms",
        "writer regs",
    ]);
    for (mode, workers, stats) in [
        ("serial", 1, &serial),
        ("pooled", pool, &pooled),
        ("contended", pool, &contended),
    ] {
        table.row(vec![
            mode.into(),
            workers.to_string(),
            fmt(stats.elapsed),
            fmt(total_queries as f64 / stats.elapsed),
            fmt(stats.p50_ms()),
            fmt(stats.max_ms()),
            stats.writer_registrations.to_string(),
        ]);
    }
    table.print();
    println!("\nspeedup: {}", fmt(speedup));
    println!(
        "write-contention p50 ratio (contended / pooled): {} \
         (snapshot-registry target: ≤ 1.5)",
        fmt(contended_p50_ratio)
    );

    least_bench::emit_report(
        "serve_throughput",
        "BENCH_serve.json",
        vec![
            ("d", JsonValue::Num(D as f64)),
            ("clients", JsonValue::Num(CLIENTS as f64)),
            ("queries", JsonValue::Num(total_queries as f64)),
            ("roundtrip_bit_exact_csr", JsonValue::Bool(exact_sparse)),
            ("roundtrip_bit_exact_dense", JsonValue::Bool(exact_dense)),
            ("serial_seconds", JsonValue::Num(serial.elapsed)),
            (
                "serial_qps",
                JsonValue::Num(total_queries as f64 / serial.elapsed),
            ),
            ("pooled_workers", JsonValue::Num(pool as f64)),
            ("pooled_seconds", JsonValue::Num(pooled.elapsed)),
            (
                "pooled_qps",
                JsonValue::Num(total_queries as f64 / pooled.elapsed),
            ),
            ("pooled_p50_ms", JsonValue::Num(pooled.p50_ms())),
            ("pooled_max_ms", JsonValue::Num(pooled.max_ms())),
            ("contended_seconds", JsonValue::Num(contended.elapsed)),
            (
                "contended_qps",
                JsonValue::Num(total_queries as f64 / contended.elapsed),
            ),
            ("contended_p50_ms", JsonValue::Num(contended.p50_ms())),
            ("contended_max_ms", JsonValue::Num(contended.max_ms())),
            (
                "contended_writer_registrations",
                JsonValue::Num(contended.writer_registrations as f64),
            ),
            ("contended_p50_ratio", JsonValue::Num(contended_p50_ratio)),
            ("speedup", JsonValue::Num(speedup)),
        ],
    );
}
