//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload learn_dense --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` drives the real path and
//! prints the end-to-end metrics; `--trace 1` prints the per-layer
//! metrics of a traced run and writes its spans to
//! `.perfbench_work/spans/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and the metrics.

mod client;
mod e2e;
mod harness;
mod layers;
mod pipeline;
mod queries;
mod service;
mod stats;
mod trace;
mod workload;

use harness::Report;
use least_bn::linalg::par;
use least_bn::linalg::serialize::Fnv1a64;
use std::path::Path;
use std::process::ExitCode;
use workload::Workload;

/// Scratch space, relative to the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}'; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Identity of the build under test: a hash of the running executable.
fn build_id() -> std::io::Result<String> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    let mut hasher = Fnv1a64::new();
    hasher.update(&bytes);
    Ok(format!("{:016x}", hasher.finish()))
}

/// Compare this run's exact results with the first correct run of the
/// same build at the same workload and seed, or record them if there is
/// none yet. Exact results are compared between runs of one build only:
/// a change to the program may change them.
fn determinism_guard(report: &mut Report, key: &str) {
    let build = match build_id() {
        Ok(id) => id,
        Err(e) => {
            report.problem(format!("identifying the build: {e}"));
            return;
        }
    };
    let dir = Path::new(WORK_DIR).join("guard");
    let path = dir.join(format!("{key}-build{build}.txt"));
    let now = report.fingerprint.join("\n");
    match std::fs::read_to_string(&path) {
        Ok(before) if before == now => {}
        Ok(before) => {
            let first_diff = before
                .lines()
                .zip(now.lines())
                .find(|(a, b)| a != b)
                .map_or_else(
                    || "line count".to_string(),
                    |(a, b)| format!("'{a}' became '{b}'"),
                );
            report.problem(format!(
                "exact results drifted from the first run at this seed ({}): {first_diff}",
                path.display()
            ));
        }
        // Only a run that passed every other check becomes the reference.
        Err(_) if report.problems.is_empty() => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &now));
            if let Err(e) = written {
                report.problem(format!("recording {}: {e}", path.display()));
            }
        }
        Err(_) => {}
    }
}

fn render(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no infinity; an unbounded latency prints as 1e300.
            let value = if value.is_finite() { *value } else { 1e300 };
            format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    // The pool width is part of the workload: fits are bit-identical
    // only at a fixed width.
    par::set_thread_override(Some(wl.width));
    let dir = Path::new(WORK_DIR).join(format!("run-{}", wl.name));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear work directory");
    }
    let mut report = Report::default();
    if args.trace {
        let spans = Path::new(WORK_DIR).join("spans");
        std::fs::create_dir_all(&spans).expect("create spans directory");
        let out = spans.join(format!("{}-seed{}.csv", wl.name, args.seed));
        layers::run(wl, args.seed, args.seconds, &dir, &out, &mut report);
    } else {
        e2e::run(wl, args.seed, args.seconds, &dir, &mut report);
    }
    std::fs::remove_dir_all(&dir).ok();
    determinism_guard(&mut report, &format!("{}-seed{}", wl.name, args.seed));
    for problem in &report.problems {
        eprintln!("perfbench: FAILED CHECK: {problem}");
    }
    println!("{}", render(&report));
    ExitCode::SUCCESS
}
