//! The untraced run: end-to-end metrics over the real path, `POST /jobs`
//! on the in-process service through to answers on
//! `POST /models/{id}/query`.

use crate::client::Conn;
use crate::harness::{self, Report, Setup, Traffic};
use crate::pipeline::{self, Built};
use crate::queries::{Pool, Query, Target};
use crate::stats::{median, quantile, StealProbe};
use crate::trace::Tracer;
use crate::workload::{Inputs, JobMode, Workload, P99_LIMIT_MS, QUERY_CONNS, QUERY_RATE};
use least_bn::serve::{ModelArtifact, QueryEngine};
use std::path::Path;
use std::time::{Duration, Instant};

/// Distinct queries a run's traffic cycles through.
pub const POOL_SIZE: usize = 512;
/// Share of the traffic the big model gets where there is one; the
/// models the jobs republish share the rest. The big model is the online
/// model the workload serves, so the latency figures mostly price a
/// d = 1000 answer; the rest gives each of `serve_retrain`'s 16 small
/// models about 56 queries/s, so a republished model is queried within
/// about 20 ms of its swap and snapshot refreshes happen under traffic.
const BIG_SHARE: f64 = 0.8;

/// The models the query traffic hits.
pub fn targets(inputs: &Inputs) -> Vec<Target> {
    let d = |def: usize| inputs.files[inputs.jobs[def].dataset].truth.node_count();
    let big = inputs.preload.iter().find(|(id, _)| id.ends_with("-big"));
    let small_share = match big {
        Some(_) => (1.0 - BIG_SHARE) / inputs.jobs.len() as f64,
        None => 1.0,
    };
    let mut targets: Vec<Target> = inputs
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| Target {
            model: job.model.clone(),
            d: d(i),
            weight: small_share,
        })
        .collect();
    if let Some((id, artifact)) = big {
        targets.push(Target {
            model: id.clone(),
            d: artifact.dim(),
            weight: BIG_SHARE,
        });
    }
    targets
}

/// Engines answering for each target: after the jobs (`learned`), and
/// before them where the service boots with a model of that name.
pub fn engines(inputs: &Inputs, built: &[Built]) -> (Vec<QueryEngine>, Vec<Option<QueryEngine>>) {
    let engine = |a: &ModelArtifact| QueryEngine::from_artifact(a).expect("valid artifact");
    let preloaded = |model: &str| {
        inputs
            .preload
            .iter()
            .find(|(id, _)| id == model)
            .map(|(_, a)| engine(a))
    };
    let mut learned: Vec<QueryEngine> = built.iter().map(|b| b.engine.clone()).collect();
    let mut initial: Vec<Option<QueryEngine>> =
        inputs.jobs.iter().map(|j| preloaded(&j.model)).collect();
    if let Some((id, artifact)) = inputs.preload.iter().find(|(id, _)| id.ends_with("-big")) {
        learned.push(engine(artifact));
        initial.push(preloaded(id));
    }
    (learned, initial)
}

/// Rebuild every job of the list through the public pipeline.
pub fn rebuild(inputs: &Inputs) -> Result<Vec<Built>, String> {
    let mut off = Tracer::new(false);
    inputs
        .jobs
        .iter()
        .map(|job| pipeline::build(job, &inputs.files[job.dataset], None, &mut off))
        .collect()
}

/// Fingerprint of the exact results: per job, its counts, quality and
/// probe answer; then every pool answer.
pub fn fingerprint(report: &mut Report, inputs: &Inputs, built: &[Built], pool_answers: &[String]) {
    let probe = Query::probe();
    for (job, b) in inputs.jobs.iter().zip(built) {
        report.fingerprint.push(format!(
            "{} {} probe={}",
            job.model,
            b.fingerprint(),
            probe.answer(&b.engine)
        ));
    }
    let mut hasher = least_bn::linalg::serialize::Fnv1a64::new();
    for answer in pool_answers {
        hasher.update(answer.as_bytes());
    }
    report
        .fingerprint
        .push(format!("pool answers fnv={:016x}", hasher.finish()));
}

pub fn run(wl: &Workload, seed: u64, seconds: f64, dir: &Path, report: &mut Report) {
    let Setup {
        inputs,
        svc,
        setup_s,
        ..
    } = harness::setup(wl, seed, dir, report);
    let steal = StealProbe::start();
    // Connections are opened per round: the server drops a keep-alive
    // connection that idles past its read timeout.
    let connect = || Conn::connect(svc.addr).expect("connect");
    let pool = Pool::new(seed, &targets(&inputs), POOL_SIZE);
    let probe = Query::probe().body().into_bytes();
    let round_s = seconds / wl.rounds as f64;
    let open_count = (QUERY_RATE * round_s * wl.open_share).round().max(1.0) as usize;
    let closed_time = Duration::from_secs_f64(round_s * wl.closed_share);

    // Each round runs every phase once.
    let mut jobs = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..wl.rounds {
        let first = jobs.len();
        let mut ctl = connect();
        let query_conns = || -> Vec<Conn> { (0..QUERY_CONNS).map(|_| connect()).collect() };
        let mut conns = Vec::new();
        let (round_jobs, jobs_wall_s, open, measured_s) = match wl.job_mode {
            JobMode::Sequential => {
                let start = Instant::now();
                // The first round runs the whole list, so that every
                // model the traffic asks for is published; every later
                // round runs the next job of the list.
                let count = if first == 0 { inputs.jobs.len() } else { 1 };
                let ran = harness::run_sequential(&mut ctl, &inputs, &probe, first, count);
                let wall = start.elapsed().as_secs_f64();
                conns = query_conns();
                let open = harness::open_loop(&mut conns, &pool, QUERY_RATE, open_count);
                let span_s = open.span_s;
                (ran, wall, open, span_s)
            }
            JobMode::Burst(count) => std::thread::scope(|s| {
                // The answer check relies on it: one round's burst
                // republishes every model the traffic asks for.
                assert!(count >= inputs.jobs.len());
                conns = query_conns();
                let traffic =
                    s.spawn(|| harness::open_loop(&mut conns, &pool, QUERY_RATE, open_count));
                let (ran, wall) = harness::run_burst(&mut ctl, &inputs, &probe, first, count);
                let open = traffic.join().expect("traffic thread panicked");
                // Latency counts only while the burst ran.
                let span_s = wall.min(open.span_s);
                (ran, wall, open, span_s)
            }),
        };
        let closed = harness::closed_loop(&mut conns, &pool, closed_time);
        rounds.push(Round {
            jobs: round_jobs.len(),
            ttm_s: round_jobs
                .iter()
                .filter(|j| j.error.is_none())
                .map(|j| j.ttm_s)
                .collect(),
            jobs_wall_s,
            open,
            measured_s,
            closed,
        });
        jobs.extend(round_jobs);
    }
    let steal_pct = steal.percent();

    // Correctness gate, outside every timed phase.
    for run in &jobs {
        report.op(run.error.is_none() && run.attempts == 1);
        if let Some(e) = &run.error {
            report.problem(e.clone());
        } else if run.attempts != 1 {
            report.problem(format!(
                "job of {} took {} attempts",
                inputs.jobs[run.def].model, run.attempts
            ));
        }
    }
    let built = match rebuild(&inputs) {
        Ok(built) => built,
        Err(e) => {
            report.problem(format!("rebuild: {e}"));
            svc.stop();
            return;
        }
    };
    for (job, b) in inputs.jobs.iter().zip(&built) {
        match svc.registry.get(&job.model) {
            Some(served) if pipeline::same_model(&b.artifact, &served.artifact) => {}
            Some(_) => report.problem(format!(
                "{}: served model differs from the rebuild",
                job.model
            )),
            None => report.problem(format!("{}: not served", job.model)),
        }
    }
    let probe_query = Query::probe();
    let expected_probe: Vec<String> = built
        .iter()
        .map(|b| probe_query.answer(&b.engine))
        .collect();
    for run in jobs.iter().filter(|r| r.error.is_none()) {
        if run.probe_answer != expected_probe[run.def].as_bytes() {
            report.problem(format!(
                "{}: probe answered {} instead of {}",
                inputs.jobs[run.def].model,
                String::from_utf8_lossy(&run.probe_answer),
                expected_probe[run.def]
            ));
        }
    }
    let (learned, initial) = engines(&inputs, &built);
    let learned_refs: Vec<&QueryEngine> = learned.iter().collect();
    let final_answers = pool.answers(&learned_refs);
    let initial_answers: Vec<Option<String>> = pool
        .entries
        .iter()
        .map(|e| {
            initial[e.target]
                .as_ref()
                .map(|engine| e.query.answer(engine))
        })
        .collect();
    // The first round's burst republishes every small model, so only
    // its open loop may see a boot-time model answer; every later phase
    // must give the learned answer.
    let during: Vec<Vec<&String>> = final_answers
        .iter()
        .zip(&initial_answers)
        .map(|(f, i)| match i {
            Some(i) => vec![f, i],
            None => vec![f],
        })
        .collect();
    let after: Vec<Vec<&String>> = final_answers.iter().map(|f| vec![f]).collect();
    for (r, round) in rounds.iter().enumerate() {
        let open_accepted = if r == 0 { &during } else { &after };
        harness::check_answers(report, "open loop", &round.open, open_accepted);
        harness::check_answers(report, "closed loop", &round.closed, &after);
    }
    fingerprint(report, &inputs, &built, &final_answers);
    svc.stop();

    // Every timing is taken per round, and the run reports the median
    // round, so a stall of the host in a few rounds moves it little.
    let ok_ttm: Vec<f64> = rounds.iter().filter_map(Round::ttm_s).collect();
    let p50: Vec<f64> = rounds.iter().map(Round::p50_s).collect();
    let qps: Vec<f64> = rounds.iter().map(Round::qps).collect();
    let jobs_per_min: Vec<f64> = rounds.iter().map(Round::jobs_per_min).collect();
    let f1 = built.iter().map(|b| b.f1).sum::<f64>() / built.len() as f64;
    report.metric("setup_s", median(&setup_s), "s");
    report.metric(
        "time_to_model_s",
        if ok_ttm.len() < rounds.len() {
            f64::INFINITY
        } else {
            median(&ok_ttm)
        },
        "s",
    );
    report.metric("structure_f1", f1, "ratio");
    report.metric("query_p50_ms", median(&p50) * 1e3, "ms");
    report.metric("query_qps", median(&qps), "1/s");
    report.metric("jobs_per_min", median(&jobs_per_min), "1/min");
    report.metric(
        "success_rate",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    summarize(wl, &rounds, jobs.len(), steal_pct);
}

/// The phases of one round.
struct Round {
    jobs: usize,
    /// Time to model of each of the round's jobs that succeeded.
    ttm_s: Vec<f64>,
    /// The job phase (sequential) or the burst until its last job was
    /// served.
    jobs_wall_s: f64,
    open: Traffic,
    /// Leading seconds of the open loop that `query_p50_ms` is taken
    /// over: all of it, or in a burst, the part before the burst ended.
    measured_s: f64,
    closed: Traffic,
}

impl Round {
    /// Median time to model; `None` if no job of the round succeeded.
    fn ttm_s(&self) -> Option<f64> {
        (!self.ttm_s.is_empty()).then(|| median(&self.ttm_s))
    }

    /// Median open-loop latency over the measured part of the phase
    /// (at least its first request).
    fn p50_s(&self) -> f64 {
        let measured: Vec<f64> = self
            .open
            .at_s
            .iter()
            .zip(&self.open.latency_s)
            .enumerate()
            .filter(|&(i, (&at, _))| i == 0 || at < self.measured_s)
            .map(|(_, (_, &l))| l)
            .collect();
        median(&measured)
    }

    fn jobs_per_min(&self) -> f64 {
        self.jobs as f64 / self.jobs_wall_s * 60.0
    }

    fn qps(&self) -> f64 {
        self.closed.responses.iter().filter(|r| r.1 == 200).count() as f64 / self.closed.wall_s
    }
}

/// One human-readable line per round on stderr: what qualifies the run.
fn summarize(wl: &Workload, rounds: &[Round], jobs: usize, steal_pct: f64) {
    eprintln!(
        "{}: {jobs} jobs in {} rounds; cpu steal {steal_pct:.2}%; open loop at {}/s, p99 limit {} ms",
        wl.name,
        rounds.len(),
        QUERY_RATE,
        P99_LIMIT_MS
    );
    for (r, round) in rounds.iter().enumerate() {
        let p50_ms = round.p50_s() * 1e3;
        let p99_ms = quantile(&round.open.latency_s, 0.99) * 1e3;
        let misses = round
            .open
            .latency_s
            .iter()
            .filter(|&&l| l * 1e3 > P99_LIMIT_MS)
            .count();
        eprintln!(
            "  round {r}: time to model {:.3} s, {:.1} jobs/min; open loop {} requests, p50 {p50_ms:.3} ms, p99 {p99_ms:.3} ms ({}; {misses} over), \
             generator lag p99 {:.3} ms; closed loop {:.0} queries/s",
            round.ttm_s().unwrap_or(f64::NAN),
            round.jobs_per_min(),
            round.open.responses.len(),
            if p99_ms <= P99_LIMIT_MS { "limit met" } else { "LIMIT MISSED" },
            quantile(&round.open.lag_s, 0.99) * 1e3,
            round.qps(),
        );
    }
}
