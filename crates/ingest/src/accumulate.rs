//! The one-pass parallel accumulator: row chunks in, sufficient
//! statistics out.
//!
//! Per chunk it folds `chunkᵀ·chunk` into a packed symmetric Gram
//! accumulator ([`least_linalg::PackedSym`], scoped threads over disjoint
//! output rows) and the column sums into a running vector. Raw moments
//! only — the requested centering/standardization is folded in
//! algebraically at [`GramAccumulator::finalize`]
//! (see `least_data::stats`), so one pass serves every preprocessing.
//!
//! Both accumulations pin their floating-point summation order to the
//! sample order, so the finalized statistics are **bit-identical** across
//! chunk sizes and thread counts — re-ingesting the same file with
//! different I/O tuning can never change a training run.

use crate::source::ChunkSource;
use least_data::{Preprocess, SufficientStats};
use least_linalg::{par, DenseMatrix, LinalgError, PackedSym, Result};

/// Ingestion tunables.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Rows per streamed chunk: reader memory is `O(chunk_rows · d)`.
    pub chunk_rows: usize,
    /// Preprocessing folded into the finalized Gram.
    pub preprocess: Preprocess,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            chunk_rows: 8192,
            preprocess: Preprocess::Raw,
        }
    }
}

/// Streaming accumulator of raw second moments and column sums.
#[derive(Debug, Clone)]
pub struct GramAccumulator {
    packed: PackedSym,
    col_sums: Vec<f64>,
    n: u64,
}

impl GramAccumulator {
    /// Empty accumulator over `d` variables.
    pub fn new(d: usize) -> Self {
        Self {
            packed: PackedSym::zeros(d),
            col_sums: vec![0.0; d],
            n: 0,
        }
    }

    /// Variable count `d`.
    pub fn dim(&self) -> usize {
        self.col_sums.len()
    }

    /// Rows absorbed so far.
    pub fn num_samples(&self) -> u64 {
        self.n
    }

    /// Absorb a chunk of rows (`chunk.cols()` must equal `d`).
    pub fn update(&mut self, chunk: &DenseMatrix) -> Result<()> {
        self.packed.rank_update(chunk)?;
        accumulate_col_sums(&mut self.col_sums, chunk);
        self.n += chunk.rows() as u64;
        Ok(())
    }

    /// Finalize into [`SufficientStats`], folding `preprocess` in
    /// algebraically. Fails when no rows were absorbed.
    pub fn finalize(&self, preprocess: Preprocess) -> Result<SufficientStats> {
        SufficientStats::from_raw_moments(
            self.packed.to_dense(),
            self.col_sums.clone(),
            self.n,
            preprocess,
        )
    }
}

/// Minimum additions per worker in [`accumulate_col_sums`]: below it a
/// thread costs more than the sums it would take (a d = 16 chunk of a few
/// thousand rows is summed serially).
const COL_SUMS_GRAIN: usize = 1 << 18;

/// `sums[j] += Σ_s chunk[s, j]`, column-parallel: each column's running
/// total accumulates sequentially in sample order, so the result is
/// bit-identical at any thread count and under any re-chunking.
fn accumulate_col_sums(sums: &mut [f64], chunk: &DenseMatrix) {
    let d = sums.len();
    if d == 0 || chunk.rows() == 0 {
        return;
    }
    let cols_per = d
        .div_ceil(par::max_threads())
        .max(COL_SUMS_GRAIN.div_ceil(chunk.rows()));
    par::for_each_chunk_mut(sums, cols_per, |piece_idx, piece| {
        let j0 = piece_idx * cols_per;
        for s in 0..chunk.rows() {
            let row = &chunk.row(s)[j0..j0 + piece.len()];
            for (a, &v) in piece.iter_mut().zip(row) {
                *a += v;
            }
        }
    });
}

/// Drain a [`ChunkSource`] through a fresh accumulator: the generic
/// one-pass ingestion every format entry point shares.
pub fn ingest_source<S: ChunkSource + ?Sized>(
    source: &mut S,
    config: &IngestConfig,
) -> Result<SufficientStats> {
    if config.chunk_rows == 0 {
        return Err(LinalgError::InvalidArgument(
            "chunk_rows must be positive".into(),
        ));
    }
    let d = source.num_vars();
    if d == 0 {
        return Err(LinalgError::InvalidArgument(
            "cannot ingest a zero-column source".into(),
        ));
    }
    let mut acc = GramAccumulator::new(d);
    while let Some(chunk) = source.next_chunk(config.chunk_rows)? {
        if chunk.cols() != d {
            return Err(LinalgError::ShapeMismatch {
                found: chunk.shape(),
                expected: (chunk.rows(), d),
            });
        }
        acc.update(&chunk)?;
    }
    acc.finalize(config.preprocess)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemSource;
    use least_data::Dataset;
    use least_linalg::Xoshiro256pp;

    fn random(n: usize, d: usize, seed: u64) -> DenseMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        DenseMatrix::from_fn(n, d, |_, _| rng.gaussian() + 0.3)
    }

    #[test]
    fn accumulator_matches_in_memory_statistics() {
        let x = random(200, 6, 41);
        let stats = ingest_source(
            &mut MemSource::new(x.clone()),
            &IngestConfig {
                chunk_rows: 32,
                preprocess: Preprocess::Raw,
            },
        )
        .unwrap();
        let direct = SufficientStats::from_dataset(&Dataset::new(x), Preprocess::Raw).unwrap();
        assert_eq!(stats.n, direct.n);
        let scale = direct.gram.max_abs().max(1.0);
        assert!(
            stats.gram.approx_eq(&direct.gram, 1e-9 * scale),
            "max diff {}",
            stats.gram.max_abs_diff(&direct.gram).unwrap()
        );
        for (a, b) in stats.means.iter().zip(&direct.means) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn chunk_size_never_changes_the_statistics() {
        let x = random(157, 5, 42);
        let reference = ingest_source(
            &mut MemSource::new(x.clone()),
            &IngestConfig {
                chunk_rows: 157,
                preprocess: Preprocess::Standardize,
            },
        )
        .unwrap();
        for chunk_rows in [1usize, 2, 7, 33, 64, 1000] {
            let stats = ingest_source(
                &mut MemSource::new(x.clone()),
                &IngestConfig {
                    chunk_rows,
                    preprocess: Preprocess::Standardize,
                },
            )
            .unwrap();
            // Bit-identical, not merely close.
            assert_eq!(stats, reference, "chunk_rows = {chunk_rows} diverged");
        }
    }

    #[test]
    fn thread_count_never_changes_the_statistics() {
        // d = 16 and 24 sum their columns serially (under the grain); the
        // 9000 × 64 stream's first chunk splits them across workers.
        for (n, d, chunk_rows) in [(120, 16, 50), (120, 24, 50), (9000, 64, 8192)] {
            let x = random(n, d, 43);
            let cfg = IngestConfig {
                chunk_rows,
                preprocess: Preprocess::Center,
            };
            let at_width = |threads| {
                par::set_thread_override(Some(threads));
                let stats = ingest_source(&mut MemSource::new(x.clone()), &cfg).unwrap();
                par::set_thread_override(None);
                stats
            };
            let serial = at_width(1);
            for threads in [2, 3] {
                assert_eq!(at_width(threads), serial, "d = {d} at width {threads}");
            }
        }
    }

    #[test]
    fn empty_source_is_an_error() {
        let mut src = MemSource::new(DenseMatrix::zeros(0, 3));
        assert!(ingest_source(&mut src, &IngestConfig::default()).is_err());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut src = MemSource::new(DenseMatrix::zeros(5, 3));
        let cfg = IngestConfig {
            chunk_rows: 0,
            preprocess: Preprocess::Raw,
        };
        assert!(ingest_source(&mut src, &cfg).is_err());
    }
}
