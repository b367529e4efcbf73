//! # least-ingest
//!
//! Out-of-core dataset ingestion for the LEAST workspace: turn a dataset
//! of **any** length — disk-resident CSV or `LEASTDAT` binary, far larger
//! than RAM — into the `O(d²)` [`least_data::SufficientStats`] summary the
//! engine's Gram training path runs on, in one streaming pass.
//!
//! The paper's industrial setting (Section V-B) learns from hundreds of
//! millions of rows; holding an `n × d` matrix resident is exactly what
//! stops an in-memory reproduction at demo scale. For the linear-SEM
//! least-squares loss, though, the loss and gradient are exact functions
//! of `G = XᵀX` and `n` alone, so ingestion needs one pass and `O(d²)`
//! memory — after which every optimizer iteration is independent of `n`,
//! and training jobs restart from the archived statistics artifact
//! without touching the data again. See DESIGN.md §9.
//!
//! Pipeline:
//!
//! ```text
//! CSV / LEASTDAT file ──► ChunkSource (O(chunk·d) memory)
//!        └─► GramAccumulator (packed syrk, scoped threads)
//!               └─► SufficientStats { gram, means, scales, n }
//!                      ├─► save()/load()  (versioned, checksummed)
//!                      ├─► LeastDense::fit_stats / LeastSparse::fit_stats
//!                      └─► FittedSem::fit_from_stats  (servable model)
//! ```
//!
//! Determinism: the accumulated statistics are **bit-identical** across
//! chunk sizes and thread counts (see [`least_linalg::sym::PackedSym`] for
//! how the kernel pins the summation order to the sample order).
//!
//! ## Example
//!
//! ```
//! use least_data::{export_csv, sample_lsem_dataset, NoiseModel};
//! use least_ingest::{ingest_csv, IngestConfig};
//! use least_linalg::{DenseMatrix, Xoshiro256pp};
//!
//! let mut rng = Xoshiro256pp::new(9);
//! let mut w = DenseMatrix::zeros(3, 3);
//! w[(0, 1)] = 1.2;
//! let data = sample_lsem_dataset(&w, 500, NoiseModel::standard_gaussian(), &mut rng)?;
//! let path = std::env::temp_dir().join("least_ingest_doc.csv");
//! export_csv(&data, &path)?;
//!
//! let stats = ingest_csv(&path, &IngestConfig::default())?;
//! assert_eq!(stats.dim(), 3);
//! assert_eq!(stats.n, 500);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), least_linalg::LinalgError>(())
//! ```

pub mod accumulate;
pub mod binary;
pub mod csv;
pub mod decimal;
pub mod source;

pub use accumulate::{ingest_source, GramAccumulator, IngestConfig};
pub use binary::BinaryReader;
pub use csv::CsvReader;
pub use source::{ChunkSource, MemSource};

use least_data::SufficientStats;
use least_linalg::Result;
use std::path::Path;

/// Stream a CSV file into sufficient statistics (header line required).
pub fn ingest_csv(path: impl AsRef<Path>, config: &IngestConfig) -> Result<SufficientStats> {
    ingest_source(&mut CsvReader::open(path)?, config)
}

/// Stream a `LEASTDAT` binary file into sufficient statistics, verifying
/// the trailing checksum as a side effect of the single pass.
pub fn ingest_binary(path: impl AsRef<Path>, config: &IngestConfig) -> Result<SufficientStats> {
    ingest_source(&mut BinaryReader::open(path)?, config)
}
