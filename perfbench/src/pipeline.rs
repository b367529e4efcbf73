//! One job through the program's public functions, in the order a job
//! worker calls them: `CsvReader::next_chunk` → `GramAccumulator::update`
//! / `finalize` → `fit_stats` → `graph(τ)` → `FittedSem::fit_from_stats`
//! → `ModelArtifact::from_fitted` / `to_bytes` / `from_bytes` →
//! `ModelRegistry::insert` → `QueryEngine::from_artifact`.
//!
//! The untraced run uses it to rebuild every served model independently
//! of the service; the traced run puts a span around each call and times
//! `run` alone, leaving the benchmark's own checks (`Run::finish`)
//! outside the timed region.

use crate::trace::Tracer;
use crate::workload::{DataFile, JobDef};
use least_bn::core::{FittedSem, LeastDense, LeastSparse};
use least_bn::data::SufficientStats;
use least_bn::graph::DiGraph;
use least_bn::ingest::{ChunkSource, CsvReader, GramAccumulator, IngestConfig};
use least_bn::jobs::{JobBackend, JobSpec};
use least_bn::linalg::DenseMatrix;
use least_bn::metrics::EdgeConfusion;
use least_bn::serve::{ModelArtifact, ModelRegistry, QueryEngine};

/// What one rebuilt job produced.
#[derive(Debug)]
pub struct Built {
    pub rows: u64,
    pub file_bytes: u64,
    pub rounds: usize,
    pub final_nnz: usize,
    pub f1: f64,
    pub stats: SufficientStats,
    /// Learned weights before the `τ` filter, densified.
    pub learned: DenseMatrix,
    pub artifact: ModelArtifact,
    pub engine: QueryEngine,
}

impl Built {
    /// The exact counts and quality a rerun at the same seed and pool
    /// width must reproduce.
    pub fn fingerprint(&self) -> String {
        format!(
            "rows={} bytes={} rounds={} nnz={} f1={:016x}",
            self.rows,
            self.file_bytes,
            self.rounds,
            self.final_nnz,
            self.f1.to_bits()
        )
    }
}

/// Multiply-adds of the Gram update, computed from the shape (not
/// measured): each row adds `d(d+1)/2` products to the packed triangle.
pub fn gram_madds(rows: u64, d: usize) -> u64 {
    rows * (d * (d + 1) / 2) as u64
}

/// True when `served` is `built` byte for byte, apart from the free-text
/// fingerprint the worker stamps into the artifact.
pub fn same_model(built: &ModelArtifact, served: &ModelArtifact) -> bool {
    let mut copy = built.clone();
    copy.meta.fingerprint = served.meta.fingerprint.clone();
    copy.to_bytes() == served.to_bytes()
}

/// The span that encloses one job's layer spans; its own time is work
/// no layer span covers.
pub const JOB_SPAN: &str = "job";

/// What the public pipeline produced for one job, before the
/// benchmark's own checks.
#[derive(Debug)]
pub struct Run {
    rounds: usize,
    final_nnz: usize,
    graph: DiGraph,
    stats: SufficientStats,
    learned: DenseMatrix,
    artifact: ModelArtifact,
    bytes: Vec<u8>,
    engine: QueryEngine,
}

/// Run `job` through the public pipeline, then check its artifact's byte
/// round trip and score its structure.
pub fn build(
    job: &JobDef,
    file: &DataFile,
    registry: Option<&ModelRegistry>,
    tr: &mut Tracer,
) -> Result<Built, String> {
    run(job, file, registry, tr)?.finish(job, file)
}

/// Run `job` through the public pipeline and nothing else, so that a
/// caller timing this call times only the program's work. When
/// `registry` is given the result is published into it, as the worker
/// does.
pub fn run(
    job: &JobDef,
    file: &DataFile,
    registry: Option<&ModelRegistry>,
    tr: &mut Tracer,
) -> Result<Run, String> {
    let root = tr.open(JOB_SPAN);
    let spec = tr
        .time("jobs.spec_parse", || JobSpec::parse_str(&job.spec_json))
        .map_err(|e| e.to_string())?;
    let ingest = IngestConfig::default();
    let err = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", job.model);

    let mut reader = tr
        .time("ingest.parse", || CsvReader::open(&file.path))
        .map_err(|e| err("open", &e))?;
    let mut acc = tr.time("ingest.gram_update", || {
        GramAccumulator::new(reader.num_vars())
    });
    while let Some(chunk) = tr
        .time("ingest.parse", || reader.next_chunk(ingest.chunk_rows))
        .map_err(|e| err("parse", &e))?
    {
        tr.time("ingest.gram_update", || acc.update(&chunk))
            .map_err(|e| err("gram update", &e))?;
    }
    let stats = tr
        .time("ingest.finalize", || acc.finalize(ingest.preprocess))
        .map_err(|e| err("finalize", &e))?;

    // Each backend's fit, graph and densified iterate; the last two are
    // the benchmark's, but they are cheap and stay under `core.graph`.
    let (graph, rounds, final_nnz, learned) = match spec.backend {
        JobBackend::Dense => {
            let fit = tr
                .time("core.fit", || {
                    LeastDense::new(spec.config)?.fit_stats(&stats)
                })
                .map_err(|e| err("fit", &e))?;
            tr.time("core.graph", || {
                let nnz = fit.trace.last().map_or(0, |p| p.nnz);
                (fit.graph(spec.threshold), fit.rounds, nnz, fit.weights)
            })
        }
        JobBackend::Sparse => {
            let fit = tr
                .time("core.fit", || {
                    LeastSparse::new(spec.config)?.fit_stats(&stats)
                })
                .map_err(|e| err("fit", &e))?;
            tr.time("core.graph", || {
                let nnz = fit.trace.last().map_or(0, |p| p.nnz);
                (
                    fit.graph(spec.threshold),
                    fit.rounds,
                    nnz,
                    fit.weights.to_dense(),
                )
            })
        }
    };
    let sem = tr
        .time("core.param_fit", || {
            FittedSem::fit_from_stats(&graph, &stats)
        })
        .map_err(|e| err("parameter fit", &e))?;
    let artifact = tr
        .time("serve.artifact_build", || {
            ModelArtifact::from_fitted(&sem, spec.threshold, "perfbench rebuild")
        })
        .map_err(|e| err("artifact", &e))?;
    let bytes = tr.time("serve.artifact_encode", || artifact.to_bytes());
    let decoded = tr
        .time("serve.artifact_decode", || {
            ModelArtifact::from_bytes(&bytes)
        })
        .map_err(|e| err("decode", &e))?;
    let engine = tr
        .time("serve.engine_build", || {
            QueryEngine::from_artifact(&decoded)
        })
        .map_err(|e| err("engine", &e))?;
    if let Some(registry) = registry {
        tr.time("serve.registry_insert", || {
            registry.insert(&job.model, decoded)
        })
        .map_err(|e| err("register", &e))?;
    }
    tr.close(root);
    Ok(Run {
        rounds,
        final_nnz,
        graph,
        stats,
        learned,
        artifact,
        bytes,
        engine,
    })
}

impl Run {
    /// The benchmark's own work on a run: the artifact's
    /// `to_bytes → from_bytes → to_bytes` round trip and the F1 against
    /// the ground truth.
    pub fn finish(self, job: &JobDef, file: &DataFile) -> Result<Built, String> {
        match ModelArtifact::from_bytes(&self.bytes) {
            Ok(again) if again.to_bytes() == self.bytes => {}
            _ => {
                return Err(format!(
                    "{}: artifact: to_bytes → from_bytes → to_bytes changed the bytes",
                    job.model
                ))
            }
        }
        Ok(Built {
            rows: self.stats.n,
            file_bytes: file.file_bytes,
            rounds: self.rounds,
            final_nnz: self.final_nnz,
            f1: EdgeConfusion::between(&file.truth, &self.graph)
                .metrics()
                .f1,
            stats: self.stats,
            learned: self.learned,
            artifact: self.artifact,
            engine: self.engine,
        })
    }
}
