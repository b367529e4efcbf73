//! The workloads and the seeded inputs each one runs on.
//!
//! A workload is a constant: its sizes, its pool width, its job list and
//! its query traffic are fixed here, and `--seed` only chooses the random
//! ground truth the inputs are drawn from. The program under test sees
//! nothing but the generated CSV files, the pre-registered artifacts and
//! the HTTP requests.

use least_bn::core::FittedSem;
use least_bn::data::{export_csv, sample_lsem_dataset, Dataset, NoiseModel};
use least_bn::graph::{erdos_renyi_dag, weighted_adjacency_dense, DiGraph, WeightRange};
use least_bn::linalg::Xoshiro256pp;
use least_bn::serve::ModelArtifact;
use std::path::{Path, PathBuf};

/// Pool width of the workloads that run "at `nproc`": the core count of
/// the two-core reference host. Pinned rather than detected so that a
/// fit is bit-identical on any host.
pub const NPROC_WIDTH: usize = 2;
/// Keep-alive connections that carry the query traffic (≤ `nproc`).
pub const QUERY_CONNS: usize = NPROC_WIDTH;
/// Job workers: one, so that a job burst leaves a core to the serving
/// path and queued jobs wait in the journal-backed queue.
pub const JOB_WORKERS: usize = 1;
/// Open-loop send rate of every workload, queries per second. Requests
/// come every 0.22 ms, so the service's cores never idle long; at
/// 1800/s the median latency followed the host's load, each request
/// paying a core wake-up whose cost grew with it (see README).
pub const QUERY_RATE: f64 = 4_500.0;
/// Open-loop p99 limit of every workload, far above the per-round p99s
/// measured on the reference host, so that a miss is a service stall
/// rather than the host's scheduling noise (see README); a failed query
/// misses it.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Average degree of every ground-truth Erdős–Rényi graph.
const ER_DEGREE: usize = 2;

/// How jobs reach the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMode {
    /// One job at a time: submit, wait until it is served, submit the
    /// next. The job list is cycled until the job phase ends.
    Sequential,
    /// A fixed burst per round, submitted at once while the open-loop
    /// query phase runs; each burst job takes its definition round-robin.
    Burst(usize),
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// `LEAST_NUM_THREADS`-equivalent pool width, pinned for the run.
    pub width: usize,
    pub backend: &'static str,
    /// Variables per dataset; dataset `k` has `d + k % d_spread`.
    pub d: usize,
    pub d_spread: usize,
    pub n: usize,
    /// Distinct CSV files.
    pub datasets: usize,
    /// Solver overrides sent in every job's `config`, besides `seed`.
    pub config: &'static str,
    pub job_mode: JobMode,
    /// Size of a ground-truth model registered before traffic starts,
    /// which most queries hit.
    pub big_model_d: Option<usize>,
    /// Share of a round (`--seconds` / `rounds`) given to the open- and
    /// the closed-loop phase. A sequential round's job phase is one job
    /// (the first round's, the whole list), which takes the rest of the
    /// round on the reference host; a burst runs during the open loop.
    pub open_share: f64,
    pub closed_share: f64,
    /// Rounds the run is split into; each runs every phase once.
    pub rounds: usize,
}

pub const LEARN_DENSE: Workload = Workload {
    name: "learn_dense",
    width: 1,
    backend: "dense",
    d: 200,
    d_spread: 1,
    n: 10_000,
    datasets: 2,
    config: r#""max_outer":2,"inner_tol":0,"rho_growth":1000"#,
    job_mode: JobMode::Sequential,
    big_model_d: None,
    // A job takes about 2.5 s, the rest of a 4 s round at
    // `--seconds 40`; ten rounds, so that a slow phase of the host moves
    // the median of fewer than half of them.
    open_share: 0.25,
    closed_share: 0.125,
    rounds: 10,
};

pub const SERVE_RETRAIN: Workload = Workload {
    name: "serve_retrain",
    width: NPROC_WIDTH,
    backend: "dense",
    d: 16,
    d_spread: 5,
    n: 3_000,
    datasets: 16,
    config: "",
    // A round's burst lasts about as long as its open loop (48 jobs at
    // the ~2400 jobs/min measured on the reference host take ~1.2 s),
    // so the open loop measures the service while it learns.
    job_mode: JobMode::Burst(48),
    big_model_d: Some(1_000),
    open_share: 0.5,
    closed_share: 0.3,
    rounds: 16,
};

pub const ALL: [&Workload; 2] = [&LEARN_DENSE, &SERVE_RETRAIN];

/// Edge filter `τ` every job applies.
pub const THRESHOLD: f64 = 0.3;
/// Rows in the sample the big ground-truth model's parameters come from.
const BIG_MODEL_ROWS: usize = 2_000;

/// A splitmix-style mix so that nearby seeds give unrelated streams.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One job of the fixed list.
#[derive(Debug, Clone)]
pub struct JobDef {
    pub model: String,
    pub dataset: usize,
    /// The `POST /jobs` body.
    pub spec_json: String,
}

/// One generated dataset.
#[derive(Debug)]
pub struct DataFile {
    pub path: PathBuf,
    pub truth: DiGraph,
    pub file_bytes: u64,
    /// The sample, kept only where a ground-truth model is built from it.
    pub data: Option<Dataset>,
}

/// Everything a run feeds the service.
#[derive(Debug)]
pub struct Inputs {
    pub files: Vec<DataFile>,
    pub jobs: Vec<JobDef>,
    /// Models registered at boot: `(id, artifact)`.
    pub preload: Vec<(String, ModelArtifact)>,
}

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// Short model-id prefix.
    fn prefix(&self) -> String {
        self.name
            .split('_')
            .filter_map(|part| part.chars().next())
            .collect()
    }

    /// Draw the inputs for `seed` into `dir`.
    pub fn generate(&self, seed: u64, dir: &Path) -> Inputs {
        std::fs::create_dir_all(dir).expect("create work directory");
        let keep_data = self.big_model_d.is_some();
        let files: Vec<DataFile> = (0..self.datasets)
            .map(|k| {
                let mut rng = Xoshiro256pp::new(mix(seed, k as u64 + 1));
                let d = self.d + k % self.d_spread;
                let truth = erdos_renyi_dag(d, ER_DEGREE, &mut rng);
                let w = weighted_adjacency_dense(&truth, WeightRange::default(), &mut rng);
                let data =
                    sample_lsem_dataset(&w, self.n, NoiseModel::standard_gaussian(), &mut rng)
                        .expect("ground truth is acyclic");
                let path = dir.join(format!("{}-{k}.csv", self.name));
                export_csv(&data, &path).expect("write csv");
                let file_bytes = std::fs::metadata(&path).expect("csv written").len();
                DataFile {
                    path,
                    truth,
                    file_bytes,
                    data: keep_data.then_some(data),
                }
            })
            .collect();

        // One job per dataset, each with its own solver seed.
        let prefix = self.prefix();
        let sep = if self.config.is_empty() { "" } else { "," };
        let jobs: Vec<JobDef> = files
            .iter()
            .enumerate()
            .map(|(k, file)| {
                let model = format!("{prefix}-{k}");
                let solver_seed = mix(seed, 1000 + k as u64) >> 12;
                let spec_json = format!(
                    r#"{{"model":"{model}","source":{{"kind":"csv","path":"{}"}},"backend":"{}","threshold":{THRESHOLD},"config":{{{}{sep}"seed":{solver_seed}}}}}"#,
                    file.path.display(),
                    self.backend,
                    self.config,
                );
                JobDef {
                    model,
                    dataset: k,
                    spec_json,
                }
            })
            .collect();

        // Serving models: the burst republishes the small models, so
        // they start out as ground-truth fits; the big model is the one
        // the bulk of the query traffic hits.
        let mut preload = Vec::new();
        if let Some(big_d) = self.big_model_d {
            for job in &jobs {
                let file = &files[job.dataset];
                let data = file.data.as_ref().expect("kept for preload");
                preload.push((job.model.clone(), truth_artifact(&file.truth, data)));
            }
            let mut rng = Xoshiro256pp::new(mix(seed, 0xB16));
            let truth = erdos_renyi_dag(big_d, ER_DEGREE, &mut rng);
            let w = weighted_adjacency_dense(&truth, WeightRange::default(), &mut rng);
            let data = sample_lsem_dataset(
                &w,
                BIG_MODEL_ROWS,
                NoiseModel::standard_gaussian(),
                &mut rng,
            )
            .expect("ground truth is acyclic");
            preload.push((format!("{prefix}-big"), truth_artifact(&truth, &data)));
        }
        Inputs {
            files,
            jobs,
            preload,
        }
    }
}

/// A servable model with the true structure and OLS parameters.
fn truth_artifact(truth: &DiGraph, data: &Dataset) -> ModelArtifact {
    let sem = FittedSem::fit(truth, data).expect("OLS on the true structure");
    ModelArtifact::from_fitted(&sem, 0.0, "ground truth").expect("valid artifact")
}
