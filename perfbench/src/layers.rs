//! The traced run: per-layer metrics. Spans go around each call into a
//! layer's public functions, in a job worker's order; kernels are timed
//! at pool width 1 and at `NPROC_WIDTH`; then the workload's jobs go
//! through the live service while a fixed number of open-loop queries
//! runs.

use crate::client::Conn;
use crate::e2e::{self, POOL_SIZE};
use crate::harness::{self, Report, Setup};
use crate::pipeline::{self, gram_madds, Built};
use crate::queries::{Kind, Pool, Query};
use crate::stats::{median, quantile, time_median, StealProbe};
use crate::trace::Tracer;
use crate::workload::{
    mix, Inputs, JobMode, Workload, NPROC_WIDTH, P99_LIMIT_MS, QUERY_CONNS, QUERY_RATE,
};
use least_bn::core::{GramLoss, LeastConfig, SpectralBound};
use least_bn::linalg::{par, DenseMatrix, Xoshiro256pp};
use least_bn::serve::{JsonValue, QueryEngine};
use std::path::Path;
use std::time::{Duration, Instant};

/// Largest share of a traced job's wall time its spans may leave
/// unattributed: per-layer self times must add back to the wall time
/// within this tolerance.
pub const TRACE_TOLERANCE: f64 = 0.02;
/// Time budget per kernel timing; the reported value is the median call.
const KERNEL_BUDGET: Duration = Duration::from_millis(150);
/// Time spent rerunning the last job for `trace.overhead_ratio`; at
/// least one untraced run.
const OVERHEAD_BUDGET: Duration = Duration::from_secs(1);
/// `GET /healthz` round trips timed for `serve.http_rtt_us`.
const RTT_SAMPLES: usize = 200;
/// Share of `--seconds` the traced run sends open-loop traffic for while
/// its jobs run (a fixed count at the workload's rate, so request counts
/// are exact). The jobs outlast it on the reference host.
const TRACE_TRAFFIC_SHARE: f64 = 0.1;
/// Queries per kind timed against the engine.
const ENGINE_QUERIES: usize = 64;

pub fn run(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    spans_out: &Path,
    report: &mut Report,
) {
    let setup = harness::setup(wl, seed, dir, report);
    let (inputs, svc) = (&setup.inputs, &setup.svc);
    let steal = StealProbe::start();

    // Every job traced. Only the program's work is timed; the
    // benchmark's checks come after.
    let mut tr = Tracer::new(true);
    let mut built: Vec<Built> = Vec::new();
    let mut walls = Vec::new();
    for (i, job) in inputs.jobs.iter().enumerate() {
        let file = &inputs.files[job.dataset];
        tr.set_run(i as u32);
        let t = Instant::now();
        let run = pipeline::run(job, file, Some(&svc.registry), &mut tr);
        walls.push(t.elapsed().as_secs_f64());
        match run.and_then(|r| r.finish(job, file)) {
            Ok(b) => built.push(b),
            Err(e) => {
                report.problem(e);
                setup.svc.stop();
                return;
            }
        }
    }
    let overhead = overhead_ratio(inputs, walls[walls.len() - 1], report);
    check_additivity(&tr, &walls, report);

    let per_job = |name: &str| -> Vec<f64> {
        (0..inputs.jobs.len())
            .map(|i| {
                tr.self_time_by_name(i as u32)
                    .get(name)
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect()
    };
    let update_s = per_job("ingest.gram_update");
    let gflops: Vec<f64> = built
        .iter()
        .zip(&update_s)
        .map(|(b, &t)| 2.0 * gram_madds(b.rows, b.stats.dim()) as f64 / t / 1e9)
        .collect();
    for (metric, span, scale, unit) in [
        ("ingest.parse_s", "ingest.parse", 1.0, "s"),
        ("ingest.gram_update_s", "ingest.gram_update", 1.0, "s"),
        ("ingest.finalize_ms", "ingest.finalize", 1e3, "ms"),
        ("core.fit_s", "core.fit", 1.0, "s"),
        ("core.param_fit_ms", "core.param_fit", 1e3, "ms"),
        (
            "serve.artifact_encode_ms",
            "serve.artifact_encode",
            1e3,
            "ms",
        ),
        (
            "serve.artifact_decode_ms",
            "serve.artifact_decode",
            1e3,
            "ms",
        ),
        (
            "serve.registry_insert_ms",
            "serve.registry_insert",
            1e3,
            "ms",
        ),
    ] {
        report.metric(metric, median(&per_job(span)) * scale, unit);
    }
    report.metric("ingest.gram_gflops", median(&gflops), "GFLOP/s");
    report.metric("trace.overhead_ratio", overhead, "ratio");

    kernels(wl, seed, &built[0], report);

    // Engine layer, on the model most of the traffic hits.
    let (learned, _) = e2e::engines(inputs, &built);
    let engine = learned.last().expect("at least one target");
    let mut rng = Xoshiro256pp::new(mix(seed, 0xE61));
    for kind in Kind::ALL {
        let queries: Vec<Query> = (0..ENGINE_QUERIES)
            .map(|_| Query::random(engine.dim(), kind, &mut rng))
            .collect();
        let per_query = time_median(3, KERNEL_BUDGET, || {
            queries.iter().map(|q| q.evaluate(engine)).sum::<f64>()
        }) / queries.len() as f64;
        report.metric(
            format!("serve.engine_us.{}", kind.label()),
            per_query * 1e6,
            "us",
        );
    }

    service_phase(wl, seed, seconds, &setup, &built, &learned, report);
    let boot_ms: Vec<f64> = setup.boot_s.iter().map(|s| s * 1e3).collect();
    report.metric("jobs.boot_ms", median(&boot_ms), "ms");
    report.metric("loadgen.steal_pct", steal.percent(), "%");
    setup.svc.stop();

    let total = |f: &dyn Fn(&Built) -> u64| built.iter().map(f).sum::<u64>() as f64;
    for (metric, value) in [
        ("core.rounds", total(&|b| b.rounds as u64)),
        ("core.final_nnz", total(&|b| b.final_nnz as u64)),
        ("ingest.rows", total(&|b| b.rows)),
        ("ingest.bytes", total(&|b| b.file_bytes)),
        (
            "ingest.gram_madds",
            total(&|b| gram_madds(b.rows, b.stats.dim())),
        ),
    ] {
        report.metric(metric, value, "count");
    }
    if let Err(e) = tr.write_csv(spans_out) {
        report.problem(format!("writing spans to {}: {e}", spans_out.display()));
    }
}

/// Traced over untraced wall time of the last job: it runs untraced and
/// traced (into a throwaway tracer) alternately until `OVERHEAD_BUDGET`
/// has passed, and the ratio is of the two medians. `traced_s` is the
/// job's first traced run.
fn overhead_ratio(inputs: &Inputs, traced_s: f64, report: &mut Report) -> f64 {
    let job = inputs.jobs.last().expect("a job list");
    let file = &inputs.files[job.dataset];
    let timed = |enabled: bool| {
        let t = Instant::now();
        let run = pipeline::run(job, file, None, &mut Tracer::new(enabled));
        (t.elapsed().as_secs_f64(), run.err())
    };
    let start = Instant::now();
    let mut traced = vec![traced_s];
    let mut untraced = Vec::new();
    loop {
        let (t, err) = timed(false);
        untraced.push(t);
        if let Some(e) = err {
            report.problem(e);
            break;
        }
        if start.elapsed() >= OVERHEAD_BUDGET {
            break;
        }
        traced.push(timed(true).0);
    }
    median(&traced) / median(&untraced)
}

/// Each traced job's layer self times must add back to its wall time,
/// measured around the call independently of the tracer, within
/// `TRACE_TOLERANCE`: work left without a span shows up as a miss.
fn check_additivity(tr: &Tracer, walls: &[f64], report: &mut Report) {
    for (run, &wall) in walls.iter().enumerate() {
        let layers: f64 = tr
            .self_time_by_name(run as u32)
            .iter()
            .filter(|(&name, _)| name != pipeline::JOB_SPAN)
            .map(|(_, t)| t)
            .sum();
        if (wall - layers).abs() > TRACE_TOLERANCE * wall {
            report.problem(format!(
                "traced job {run}: layer self times add to {layers:.6} s of {wall:.6} s wall"
            ));
        }
    }
}

/// Solver and dense-product kernels at the workload's `d`: the loss and
/// the spectral bound on a fully dense iterate and on the learned one,
/// at pool width 1 and `NPROC_WIDTH`.
fn kernels(wl: &Workload, seed: u64, built: &Built, report: &mut Report) {
    let d = built.stats.dim();
    let config = LeastConfig::default();
    let loss = GramLoss::from_stats(&built.stats, config.lambda).expect("gram loss");
    let bound = SpectralBound::new(config.k, config.alpha).expect("bound");
    let mut rng = Xoshiro256pp::new(mix(seed, 0xD5E));
    let mut dense = DenseMatrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            if i != j {
                dense[(i, j)] = rng.uniform(-0.05, 0.05);
            }
        }
    }
    for (label, width) in [("t1", 1), ("tN", NPROC_WIDTH)] {
        par::set_thread_override(Some(width));
        for (w_label, w) in [("dense_w", &dense), ("learned_w", &built.learned)] {
            let t = time_median(3, KERNEL_BUDGET, || loss.value_and_grad(w).expect("loss"));
            report.metric(
                format!("core.gram_loss_ms.{w_label}.{label}"),
                t * 1e3,
                "ms",
            );
            let t = time_median(3, KERNEL_BUDGET, || bound.forward_dense(w).expect("bound"));
            report.metric(format!("core.bound_ms.{w_label}.{label}"), t * 1e3, "ms");
        }
    }
    par::set_thread_override(Some(wl.width));
    let t = time_median(3, KERNEL_BUDGET, || dense.matmul(&dense).expect("square"));
    report.metric(
        "linalg.matmul_gflops",
        2.0 * (d as f64).powi(3) / t / 1e9,
        "GFLOP/s",
    );
}

/// The workload's jobs through the live service while a fixed count of
/// open-loop queries runs: the job list one job at a time, or a
/// round's burst at once. The open loop's p99 and its misses of
/// the limit are taken over the requests due while jobs ran.
fn service_phase(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    setup: &Setup,
    built: &[Built],
    learned: &[QueryEngine],
    report: &mut Report,
) {
    let (inputs, svc) = (&setup.inputs, &setup.svc);
    let defs: Vec<usize> = match wl.job_mode {
        JobMode::Sequential => (0..inputs.jobs.len()).collect(),
        JobMode::Burst(count) => (0..count).map(|j| j % inputs.jobs.len()).collect(),
    };
    let pool = Pool::new(seed, &e2e::targets(inputs), POOL_SIZE);
    let engines: Vec<&QueryEngine> = learned.iter().collect();
    let answers = pool.answers(&engines);
    let accepted: Vec<Vec<&String>> = answers.iter().map(|a| vec![a]).collect();
    let mut conns: Vec<Conn> = (0..QUERY_CONNS)
        .map(|_| Conn::connect(svc.addr).expect("connect"))
        .collect();
    let count = (QUERY_RATE * seconds * TRACE_TRAFFIC_SHARE)
        .round()
        .max(1.0) as usize;

    // Jobs are awaited in process, not by polling over HTTP, so that
    // `serve.requests` is an exact count.
    let wait = |(def, t, id): (usize, Instant, Option<u64>)| {
        let snapshot = id.map(|id| loop {
            match svc.queue.get(id) {
                Some(s) if s.state.is_terminal() => break s,
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        });
        (def, t.elapsed().as_secs_f64() * 1e3, snapshot)
    };
    let mut submit_ms = Vec::new();
    let mut outcomes = Vec::new();
    let start = Instant::now();
    let (open, jobs_s) = std::thread::scope(|s| {
        let traffic = s.spawn(|| harness::open_loop(&mut conns, &pool, QUERY_RATE, count));
        let mut ctl = Conn::connect(svc.addr).expect("connect");
        let mut pending = Vec::new();
        for &def in &defs {
            let t = Instant::now();
            let id = ctl
                .json("POST", "/jobs", inputs.jobs[def].spec_json.as_bytes())
                .ok()
                .and_then(|r| r.get("id").and_then(JsonValue::as_f64))
                .map(|id| id as u64);
            submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            pending.push((def, t, id));
            if wl.job_mode == JobMode::Sequential {
                outcomes.extend(pending.drain(..).map(wait));
            }
        }
        outcomes.extend(pending.drain(..).map(wait));
        let jobs_s = start.elapsed().as_secs_f64();
        (traffic.join().expect("traffic thread panicked"), jobs_s)
    });
    drop(conns);

    let mut latency_ms = Vec::new();
    let mut attempts = 0u64;
    for (def, ms, snapshot) in outcomes {
        let model = &inputs.jobs[def].model;
        let Some(snapshot) = snapshot else {
            report.op(false);
            report.problem(format!("{model}: POST /jobs failed"));
            continue;
        };
        latency_ms.push(ms);
        attempts += u64::from(snapshot.attempts);
        let served_same = svc
            .registry
            .get(model)
            .is_some_and(|m| pipeline::same_model(&built[def].artifact, &m.artifact));
        let ok = snapshot.state == least_bn::jobs::JobState::Succeeded
            && snapshot.attempts == 1
            && served_same;
        report.op(ok);
        if !ok {
            report.problem(format!(
                "{model}: job ended {} after {} attempts; served model matches the traced build: {served_same}",
                snapshot.state.as_str(),
                snapshot.attempts
            ));
        }
    }
    report.metric("jobs.submit_ms", median(&submit_ms), "ms");
    if latency_ms.is_empty() {
        latency_ms.push(f64::INFINITY);
    }
    report.metric("jobs.job_latency_ms.p50", quantile(&latency_ms, 0.5), "ms");
    report.metric("jobs.job_latency_ms.p99", quantile(&latency_ms, 0.99), "ms");
    report.metric("jobs.attempts", attempts as f64, "count");

    harness::check_answers(report, "traced open loop", &open, &accepted);
    e2e::fingerprint(report, inputs, built, &answers);
    // Requests due while jobs ran; all of them if the jobs were done
    // before the first was due. A failed request has infinite latency,
    // so it counts as a miss of the limit.
    let mut during: Vec<f64> = (0..open.latency_s.len())
        .filter(|&i| open.at_s[i] < jobs_s)
        .map(|i| open.latency_s[i])
        .collect();
    if during.is_empty() {
        during.clone_from(&open.latency_s);
    }
    let misses = during.iter().filter(|&&l| l * 1e3 > P99_LIMIT_MS).count();
    let p99_ms = quantile(&during, 0.99) * 1e3;
    report.metric("serve.query_p99_ms", p99_ms, "ms");
    report.metric(
        "loadgen.p99_limit_miss_pct",
        100.0 * misses as f64 / during.len() as f64,
        "%",
    );
    report.metric(
        "loadgen.lag_p99_ms",
        quantile(&open.lag_s, 0.99) * 1e3,
        "ms",
    );
    eprintln!(
        "{}: {} jobs in {jobs_s:.3} s under an open loop of {} requests at {}/s; \
         {} requests due during the jobs, p99 {p99_ms:.3} ms, {misses} over the {} ms limit",
        wl.name,
        defs.len(),
        open.responses.len(),
        QUERY_RATE,
        during.len(),
        P99_LIMIT_MS
    );

    let mut probe = Conn::connect(svc.addr).expect("connect");
    let mut rtt = Vec::with_capacity(RTT_SAMPLES);
    for _ in 0..RTT_SAMPLES {
        let t = Instant::now();
        let ok = matches!(probe.request("GET", "/healthz", b""), Ok((200, _)));
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
        report.op(ok);
    }
    report.metric("serve.http_rtt_us", median(&rtt), "us");
    let stats = probe.json("GET", "/stats", b"");
    drop(probe);
    let total = |key: &str| {
        stats
            .as_ref()
            .ok()
            .and_then(|s| s.get("totals"))
            .and_then(|t| t.get(key))
            .and_then(JsonValue::as_f64)
    };
    match (total("requests"), total("2xx")) {
        (Some(requests), Some(ok)) => {
            report.metric("serve.requests", requests, "count");
            report.metric("serve.non2xx", requests - ok, "count");
        }
        _ => report.problem(format!("GET /stats: {stats:?}")),
    }
}
