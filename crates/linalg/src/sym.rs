//! Packed symmetric rank-update accumulator — the syrk (`G += XᵀX`)
//! kernel behind out-of-core sufficient-statistics ingestion.
//!
//! `XᵀX` is symmetric, so the accumulator stores only the upper triangle,
//! row-major packed (`d(d+1)/2` scalars instead of `d²`), and every
//! [`PackedSym::rank_update`] touches half the flops a general `t_matmul`
//! would.
//!
//! ## The kernel
//!
//! The update runs the register-tiled `Aᵀ·B` micro-kernel of
//! [`crate::tile`] over the packed triangle: `4 × 8` tiles of `G` (`4 × 16`
//! in the AVX-512 encoding) whose rows all lie on or above the diagonal,
//! with the diagonal strip and the edges in narrower tiles. Samples go
//! through in blocks of 256 rows, so the block stays in L2 while every
//! tile reads it.
//!
//! ## Determinism contract
//!
//! The ingestion layer chunks an `n`-row stream arbitrarily (chunk size is
//! an I/O tunable) and parallelizes over threads (pool size is a machine
//! property). Neither may change the accumulated statistics, so the update
//! is written to make the floating-point summation order a function of the
//! *sample order only*:
//!
//! * parallelism partitions the **output rows** of `G` (disjoint writes,
//!   no merged partial sums), so the pool size never regroups an
//!   accumulation;
//! * each output entry `G[j,l]` accumulates `x[s,j]·x[s,l]` strictly in
//!   sample order `s` into its running total (a tile holds the total
//!   itself in a register across a sample block, never a partial sum
//!   started from zero and folded in later), so re-chunking the stream
//!   never re-associates a sum;
//! * the tile's extra zero-lane products are exact no-ops on finite
//!   samples, and every encoding rounds every product before adding it
//!   ([`crate::tile`]).
//!
//! Result: `rank_update` over any chunking of the same row stream, at any
//! thread count and in any encoding, is **bit-identical**. (Contrast
//! with the reduction-style kernels documented in [`crate::par`], which
//! are only deterministic at a fixed pool size.)

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::par;
use crate::tile::{tile, tile_row, Encoding, TILE_COLS, TILE_ROWS, WIDE_TILE_COLS};
use crate::Result;
use std::ops::Range;

/// Upper-triangular packed symmetric `d×d` accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedSym {
    d: usize,
    /// Row-major packed upper triangle: row `j` stores `G[j, j..d]` and
    /// starts at offset `j·d − j(j−1)/2`.
    data: Vec<f64>,
}

/// Minimum packed entries per worker piece in [`PackedSym::rank_update`].
const PACKED_GRAIN: usize = 1 << 12;

/// Samples per pass over a piece's tiles in [`PackedSym::rank_update`]:
/// 256 rows of the chunk stay in L2 while every tile reads them.
const SAMPLE_BLOCK: usize = 256;

/// Offset of row `j`'s first packed entry in an order-`d` triangle.
#[inline]
fn row_offset(d: usize, j: usize) -> usize {
    j * (2 * d + 1 - j) / 2
}

/// `G[j,l] += Σ_s x[s,j]·x[s,l]` over the `m×d` row-major chunk `x`, for
/// the packed rows `rows` that `out` holds from `G[rows.start, rows.start]`
/// on. Sample blocks run in order and each tile runs its block's samples
/// in order, so every entry adds its products in sample order.
#[inline(always)]
fn rank_update_rows<const NB: usize>(
    x: &[f64],
    m: usize,
    d: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    let base = row_offset(d, rows.start);
    let at = |j: usize, l: usize| row_offset(d, j) - base + (l - j);
    let col = |l: usize| (&x[l..], d);
    for s0 in (0..m).step_by(SAMPLE_BLOCK) {
        let samples = s0..(s0 + SAMPLE_BLOCK).min(m);
        let mut j = rows.start;
        while j + TILE_ROWS <= rows.end {
            // The diagonal strip: entries of rows j..j+3 left of column
            // j+3, where the triangle is not yet 4 rows tall.
            for r in j..j + TILE_ROWS - 1 {
                for l in r..j + TILE_ROWS - 1 {
                    tile::<1, 1>(out, [at(r, l)], col(r), col(l), samples.clone());
                }
            }
            let tile_at = |l: usize| [at(j, l), at(j + 1, l), at(j + 2, l), at(j + 3, l)];
            let cols = j + TILE_ROWS - 1..d;
            tile_row::<TILE_ROWS, NB>(out, cols, tile_at, col(j), col, samples.clone());
            j += TILE_ROWS;
        }
        for r in j..rows.end {
            tile_row::<1, NB>(out, r..d, |l| [at(r, l)], col(r), col, samples.clone());
        }
    }
}

impl PackedSym {
    /// Zero accumulator of order `d`.
    pub fn zeros(d: usize) -> Self {
        Self {
            d,
            data: vec![0.0; d * (d + 1) / 2],
        }
    }

    /// Matrix order.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Packed upper-triangle storage (row-major, row `j` holds `j..d`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Offset of row `j`'s first packed entry (`G[j,j]`).
    #[inline]
    fn row_offset(&self, j: usize) -> usize {
        row_offset(self.d, j)
    }

    /// Entry `G[i,j]` (either triangle).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        self.data[self.row_offset(lo) + (hi - lo)]
    }

    /// `G += chunk ᵀ· chunk` for an `m×d` row chunk — the streaming syrk
    /// update, in the encoding [`Encoding::detect`] picks. Bit-identical
    /// across chunkings of the same row stream, thread counts and
    /// encodings (see the module docs).
    pub fn rank_update(&mut self, chunk: &DenseMatrix) -> Result<()> {
        self.rank_update_with(chunk, Encoding::detect())
    }

    /// [`PackedSym::rank_update`] in the given encoding.
    pub fn rank_update_with(&mut self, chunk: &DenseMatrix, encoding: Encoding) -> Result<()> {
        if chunk.cols() != self.d {
            return Err(LinalgError::ShapeMismatch {
                found: chunk.shape(),
                expected: (chunk.rows(), self.d),
            });
        }
        let d = self.d;
        if chunk.rows() == 0 || d == 0 {
            return Ok(());
        }
        // Partition of the packed storage into at most `max_threads`
        // pieces of roughly equal entry count (early rows are the long
        // ones), split between whole tile rows.
        let total = self.data.len();
        let pieces = par::max_threads().min(total.div_ceil(PACKED_GRAIN)).max(1);
        let target = total.div_ceil(pieces);
        let mut bounds = Vec::new(); // split positions into `data`
        let mut piece_rows = vec![0usize]; // first packed row of each piece
        let mut acc = 0usize;
        for j in 0..d {
            acc += d - j;
            let next = j + 1;
            if acc >= target
                && next.is_multiple_of(TILE_ROWS)
                && next < d
                && bounds.len() + 1 < pieces
            {
                bounds.push(self.row_offset(next));
                piece_rows.push(next);
                acc = 0;
            }
        }
        piece_rows.push(d);
        let x = chunk.as_slice();
        par::for_each_split_mut(&mut self.data, &bounds, |piece, out| {
            let rows = piece_rows[piece]..piece_rows[piece + 1];
            let m = chunk.rows();
            match encoding {
                Encoding::Avx512 => encoding.run(
                    #[inline(always)]
                    || rank_update_rows::<WIDE_TILE_COLS>(x, m, d, rows, out),
                ),
                _ => encoding.run(
                    #[inline(always)]
                    || rank_update_rows::<TILE_COLS>(x, m, d, rows, out),
                ),
            }
        });
        Ok(())
    }

    /// Unpack to a full symmetric dense matrix (mirroring the stored upper
    /// triangle).
    pub fn to_dense(&self) -> DenseMatrix {
        let d = self.d;
        let mut out = DenseMatrix::zeros(d, d);
        for j in 0..d {
            let off = self.row_offset(j);
            for l in j..d {
                let v = self.data[off + (l - j)];
                out[(j, l)] = v;
                out[(l, j)] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn random_chunk(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        DenseMatrix::from_fn(rows, cols, |_, _| rng.gaussian())
    }

    #[test]
    fn matches_t_matmul() {
        let x = random_chunk(57, 9, 11);
        let mut acc = PackedSym::zeros(9);
        acc.rank_update(&x).unwrap();
        let direct = x.t_matmul(&x).unwrap();
        let unpacked = acc.to_dense();
        assert!(
            unpacked.approx_eq(&direct, 1e-12 * direct.max_abs().max(1.0)),
            "max diff {}",
            unpacked.max_abs_diff(&direct).unwrap()
        );
    }

    #[test]
    fn chunked_update_is_bit_identical_to_one_shot() {
        let x = random_chunk(101, 7, 12);
        let mut whole = PackedSym::zeros(7);
        whole.rank_update(&x).unwrap();
        for chunk_rows in [1usize, 3, 10, 64, 101, 500] {
            let mut chunked = PackedSym::zeros(7);
            let mut s = 0;
            while s < x.rows() {
                let hi = (s + chunk_rows).min(x.rows());
                let piece = DenseMatrix::from_fn(hi - s, x.cols(), |i, j| x[(s + i, j)]);
                chunked.rank_update(&piece).unwrap();
                s = hi;
            }
            assert_eq!(
                whole.as_slice(),
                chunked.as_slice(),
                "chunk_rows={chunk_rows} changed the accumulation"
            );
        }
    }

    #[test]
    fn thread_count_is_bit_identical() {
        let x = random_chunk(80, 40, 13);
        crate::par::set_thread_override(Some(1));
        let mut serial = PackedSym::zeros(40);
        serial.rank_update(&x).unwrap();
        crate::par::set_thread_override(None);
        let mut parallel = PackedSym::zeros(40);
        parallel.rank_update(&x).unwrap();
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn get_reads_both_triangles() {
        let x = random_chunk(20, 4, 14);
        let mut acc = PackedSym::zeros(4);
        acc.rank_update(&x).unwrap();
        let g = x.t_matmul(&x).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((acc.get(i, j) - g[(i, j)]).abs() < 1e-12 * g.max_abs());
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut acc = PackedSym::zeros(3);
        assert!(acc.rank_update(&DenseMatrix::zeros(5, 4)).is_err());
    }

    #[test]
    fn empty_chunk_is_noop() {
        let mut acc = PackedSym::zeros(3);
        acc.rank_update(&DenseMatrix::zeros(0, 3)).unwrap();
        assert!(acc.as_slice().iter().all(|&v| v == 0.0));
    }
}
