//! What both runs share: set-up, submitting and awaiting jobs, the open- and
//! closed-loop query generators, and answer checking.

use crate::client::Conn;
use crate::queries::Pool;
use crate::service::Service;
use crate::workload::{Inputs, Workload};
use least_bn::serve::JsonValue;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Interval between `GET /jobs/{id}` polls.
const POLL: Duration = Duration::from_millis(2);

/// Counts, metrics and problems of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Violations of the correctness gate or the determinism guard.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Exact results a rerun at the same seed must reproduce.
    pub fingerprint: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Count one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Inputs generated and the service booted; the last of `reps`
/// set-ups stays up.
#[derive(Debug)]
pub struct Setup {
    pub inputs: Inputs,
    pub svc: Service,
    pub setup_s: Vec<f64>,
    pub boot_s: Vec<f64>,
}

pub fn setup(wl: &Workload, seed: u64, dir: &Path, report: &mut Report) -> Setup {
    let mut setup_s = Vec::new();
    let mut boot_s = Vec::new();
    let mut sizes = Vec::new();
    let mut last: Option<(Inputs, Service)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, svc)) = last.take() {
            svc.stop();
        }
        let start = Instant::now();
        let inputs = wl.generate(seed, dir);
        let svc = Service::boot(dir, &inputs.preload);
        setup_s.push(start.elapsed().as_secs_f64());
        boot_s.push(svc.boot.as_secs_f64());
        sizes.push(
            inputs
                .files
                .iter()
                .map(|f| f.file_bytes)
                .collect::<Vec<_>>(),
        );
        last = Some((inputs, svc));
    }
    if sizes.windows(2).any(|w| w[0] != w[1]) {
        report.problem(format!(
            "set-ups drew different inputs: file sizes {sizes:?}"
        ));
    }
    let (inputs, svc) = last.expect("at least one set-up");
    Setup {
        inputs,
        svc,
        setup_s,
        boot_s,
    }
}

/// One job as the service ran it.
#[derive(Debug)]
pub struct JobRun {
    /// Index into the job list.
    pub def: usize,
    /// `POST /jobs` → `succeeded` observed → first 200 from the model.
    pub ttm_s: f64,
    pub attempts: u64,
    /// The served answer to the probe query.
    pub probe_answer: Vec<u8>,
    pub error: Option<String>,
}

impl JobRun {
    fn new(def: usize, ttm_s: f64, result: Result<(u64, Vec<u8>), String>) -> Self {
        let (attempts, probe_answer, error) = match result {
            Ok((attempts, body)) => (attempts, body, None),
            Err(e) => (0, Vec::new(), Some(e)),
        };
        JobRun {
            def,
            ttm_s,
            attempts,
            probe_answer,
            error,
        }
    }
}

fn submit(ctl: &mut Conn, spec: &str) -> Result<u64, String> {
    ctl.json("POST", "/jobs", spec.as_bytes())?
        .get("id")
        .and_then(JsonValue::as_f64)
        .map(|id| id as u64)
        .ok_or_else(|| "POST /jobs: no id".to_string())
}

/// `Some((succeeded, attempts, error))` once the job is terminal.
fn poll(ctl: &mut Conn, id: u64) -> Result<Option<(bool, u64, String)>, String> {
    let job = ctl.json("GET", &format!("/jobs/{id}"), b"")?;
    let state = job.get("state").and_then(JsonValue::as_str).unwrap_or("");
    let attempts = job
        .get("attempts")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0) as u64;
    let error = job
        .get("error")
        .and_then(JsonValue::as_str)
        .unwrap_or(state)
        .to_string();
    Ok(match state {
        "succeeded" => Some((true, attempts, error)),
        "failed" | "cancelled" => Some((false, attempts, error)),
        _ => None,
    })
}

/// Wait for job `id`, then ask its model the probe query until it
/// answers 200.
fn finish(ctl: &mut Conn, id: u64, model: &str, probe: &[u8]) -> Result<(u64, Vec<u8>), String> {
    let (ok, attempts, error) = loop {
        match poll(ctl, id)? {
            Some(done) => break done,
            None => std::thread::sleep(POLL),
        }
    };
    if !ok {
        return Err(format!("job {id} ({model}) did not succeed: {error}"));
    }
    let path = format!("/models/{model}/query");
    loop {
        match ctl.request("POST", &path, probe) {
            Ok((200, body)) => return Ok((attempts, body)),
            Ok((404, _)) => std::thread::sleep(POLL),
            Ok((status, body)) => {
                return Err(format!(
                    "{path}: {status}: {}",
                    String::from_utf8_lossy(&body)
                ))
            }
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
}

/// Submit, await and probe `count` jobs one at a time, starting at list
/// entry `first` and cycling the list; stop at the first failure.
pub fn run_sequential(
    ctl: &mut Conn,
    inputs: &Inputs,
    probe: &[u8],
    first: usize,
    count: usize,
) -> Vec<JobRun> {
    let mut runs: Vec<JobRun> = Vec::new();
    while runs.len() < count {
        let def = (first + runs.len()) % inputs.jobs.len();
        let job = &inputs.jobs[def];
        let start = Instant::now();
        let result = submit(ctl, &job.spec_json).and_then(|id| finish(ctl, id, &job.model, probe));
        let failed = result.is_err();
        runs.push(JobRun::new(def, start.elapsed().as_secs_f64(), result));
        if failed {
            break;
        }
    }
    runs
}

/// Submit `count` jobs at once (list entries `first`, `first + 1`, …,
/// cycling), then await each in submission order. Returns the runs and
/// the time from the first submission to the last job served.
pub fn run_burst(
    ctl: &mut Conn,
    inputs: &Inputs,
    probe: &[u8],
    first: usize,
    count: usize,
) -> (Vec<JobRun>, f64) {
    let start = Instant::now();
    let submitted: Vec<(usize, Instant, Result<u64, String>)> = (0..count)
        .map(|j| {
            let def = (first + j) % inputs.jobs.len();
            let t = Instant::now();
            let id = submit(ctl, &inputs.jobs[def].spec_json);
            (def, t, id)
        })
        .collect();
    let runs = submitted
        .into_iter()
        .map(|(def, t, id)| {
            let result = id.and_then(|id| finish(ctl, id, &inputs.jobs[def].model, probe));
            JobRun::new(def, t.elapsed().as_secs_f64(), result)
        })
        .collect();
    (runs, start.elapsed().as_secs_f64())
}

/// Responses of one traffic phase.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Per request: pool entry, status (0 = no response), body.
    pub responses: Vec<(usize, u16, Vec<u8>)>,
    /// Open loop only: per request, seconds from its scheduled send
    /// time; `+inf` for a request that got no response.
    pub latency_s: Vec<f64>,
    /// Per request, seconds from the phase start: when it was due (open
    /// loop) or answered (closed loop).
    pub at_s: Vec<f64>,
    /// Open loop only: how late each request was sent, seconds.
    pub lag_s: Vec<f64>,
    pub wall_s: f64,
    /// The phase's planned length.
    pub span_s: f64,
}

/// Send `count` pool requests at `rate` per second round-robin over
/// `conns`, from this one thread, whether or not earlier responses have
/// arrived; one reader thread per connection collects the responses.
/// Latency is measured from each request's scheduled send time.
pub fn open_loop(conns: &mut [Conn], pool: &Pool, rate: f64, count: usize) -> Traffic {
    let q = conns.len();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut lag_s = vec![0.0; count];
    let received: Vec<Vec<(Instant, u16, Vec<u8>)>> = std::thread::scope(|s| {
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for (k, conn) in conns.iter_mut().enumerate() {
            senders.push(&mut conn.tx);
            let rx = &mut conn.rx;
            let expected = (count + q - 1 - k) / q;
            readers.push(s.spawn(move || {
                let mut got = Vec::with_capacity(expected);
                while got.len() < expected {
                    match rx.recv() {
                        Ok((status, body)) => got.push((Instant::now(), status, body)),
                        Err(_) => break,
                    }
                }
                got
            }));
        }
        for (i, lag) in lag_s.iter_mut().enumerate() {
            let t = due(i);
            if let Some(wait) = t.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            *lag = Instant::now().duration_since(t).as_secs_f64();
            let entry = &pool.entries[i % pool.entries.len()];
            // A failed send leaves this request unanswered; it is
            // counted as failed below.
            senders[i % q].send(&entry.request).ok();
        }
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread panicked"))
            .collect()
    });
    let mut traffic = Traffic {
        wall_s: start.elapsed().as_secs_f64(),
        span_s: count as f64 / rate,
        lag_s,
        ..Traffic::default()
    };
    let mut iters: Vec<_> = received.into_iter().map(Vec::into_iter).collect();
    for i in 0..count {
        let entry = i % pool.entries.len();
        traffic.at_s.push(i as f64 / rate);
        match iters[i % q].next() {
            Some((at, status, body)) => {
                traffic
                    .latency_s
                    .push(at.duration_since(due(i)).as_secs_f64());
                traffic.responses.push((entry, status, body));
            }
            None => {
                traffic.latency_s.push(f64::INFINITY);
                traffic.responses.push((entry, 0, Vec::new()));
            }
        }
    }
    traffic
}

/// Requests each closed-loop connection keeps in flight (HTTP/1.1
/// pipelining). With more than one outstanding request the server never
/// waits for the client's turn-around, so throughput measures the
/// service rather than thread wake-ups.
const PIPELINE_DEPTH: usize = 8;

/// Each connection keeps `PIPELINE_DEPTH` pool requests outstanding and
/// sends the next as soon as an answer arrives, until `duration` ends;
/// then it drains what is in flight.
pub fn closed_loop(conns: &mut [Conn], pool: &Pool, duration: Duration) -> Traffic {
    let q = conns.len();
    let start = Instant::now();
    let deadline = start + duration;
    // Per connection: (pool entry, status, body, seconds since start).
    type Answered = Vec<(usize, u16, Vec<u8>, f64)>;
    let per_conn: Vec<Answered> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut in_flight = std::collections::VecDeque::new();
                    let mut next = k;
                    loop {
                        while in_flight.len() < PIPELINE_DEPTH && Instant::now() < deadline {
                            let entry = next % pool.entries.len();
                            if conn.tx.send(&pool.entries[entry].request).is_err() {
                                break;
                            }
                            in_flight.push_back(entry);
                            next += q;
                        }
                        let Some(entry) = in_flight.pop_front() else {
                            break;
                        };
                        let (status, body) = conn.rx.recv().unwrap_or((0, Vec::new()));
                        out.push((entry, status, body, start.elapsed().as_secs_f64()));
                        if status == 0 {
                            // The connection is gone: what is still in
                            // flight is lost.
                            out.extend(
                                in_flight
                                    .drain(..)
                                    .map(|e| (e, 0, Vec::new(), f64::INFINITY)),
                            );
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut traffic = Traffic {
        wall_s: start.elapsed().as_secs_f64(),
        span_s: duration.as_secs_f64(),
        ..Traffic::default()
    };
    for (entry, status, body, at) in per_conn.into_iter().flatten() {
        traffic.at_s.push(at);
        traffic.responses.push((entry, status, body));
    }
    traffic
}

/// Count every response as an operation: a non-200 is a failure; a 200
/// whose body is not one of the accepted answers also breaks the
/// correctness gate.
pub fn check_answers(
    report: &mut Report,
    phase: &str,
    traffic: &Traffic,
    accepted: &[Vec<&String>],
) {
    let mut wrong = 0usize;
    for (entry, status, body) in &traffic.responses {
        let right = accepted[*entry]
            .iter()
            .any(|a| a.as_bytes() == body.as_slice());
        report.op(*status == 200 && right);
        if *status == 200 && !right {
            if wrong == 0 {
                report.problem(format!(
                    "{phase}: pool entry {entry} answered {} instead of {}",
                    String::from_utf8_lossy(body),
                    accepted[*entry][0]
                ));
            }
            wrong += 1;
        }
    }
    if wrong > 1 {
        report.problem(format!("{phase}: {wrong} wrong answers in total"));
    }
}
