//! Register-tiled `Aᵀ·B` accumulation — the one micro-kernel behind the
//! dense Gram gather (`least_core::GramLoss`, through [`at_b_accumulate`])
//! and the streaming Gram update ([`crate::PackedSym::rank_update`]).
//!
//! ## The tile
//!
//! A `4 × 8` block of outputs `out[i][j] += Σ_s A[s,i]·B[s,j]` is held in
//! registers while the shared index `s` runs in ascending order: per `s`
//! it reads four values of `A`'s row `s` and eight of `B`'s, and does 32
//! multiply-adds. Both operands are row-major and read along their rows,
//! so every load is contiguous. Edges (fewer than 4 output rows or 8
//! columns left) run the same source at tile shapes `1 × 8`, `4 × 1` and
//! `1 × 1`.
//!
//! ## Why the results equal the row-axpy loops bit for bit
//!
//! The loops the tile replaced added `A[s,i]·B[s,j]` into `out[i][j]` for
//! every `s` in ascending order, skipping an `s` only where `A[s,i]` was
//! zero. The tile adds the same products in the same order; it skips an
//! `s` only where `A[s,·]` is zero across the whole tile, and otherwise
//! multiplies the zero lanes too. Those extra terms are `±0`, and
//! `x + (±0) == x` for every total the kernels hold: a total starts at
//! `+0`, and a sum of finite values rounds to `−0` only when both
//! addends are `−0`, so no total ever becomes `−0`. The argument needs
//! finite inputs (`0·∞` is NaN): ingestion rejects non-finite samples and
//! `GramLoss` a non-finite `G`.
//!
//! ## Encodings
//!
//! The speed comes from compiling that same source with
//! `#[target_feature(enable = "avx2")]` or
//! `#[target_feature(enable = "avx512f")]`, chosen once per call from what
//! the CPU has ([`Encoding::detect`] prefers AVX-512, then AVX2). The
//! AVX-512 encoding runs the tile `4 × 16` ([`WIDE_TILE_COLS`]); the shape
//! changes no output's sum (same products, same order, and the zero-lane
//! argument above holds at any width). No `mul_add` is written and Rust never contracts a product and a sum into an FMA (the
//! AVX-512 encoding could issue one), so every product is rounded before
//! it is added in all three encodings, and the bits do not depend on the
//! CPU. The portable (SSE2) encoding of the tile gains little over the
//! row loops; it is the fallback, and tests run every encoding the CPU
//! has against the row loops.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::par;
use crate::Result;
use std::ops::Range;

/// Output rows of the tile (columns of `A`).
pub(crate) const TILE_ROWS: usize = 4;
/// Output columns of the tile (columns of `B`).
pub(crate) const TILE_COLS: usize = 8;

/// How the tiled kernels are compiled. Every encoding runs the same source
/// and produces the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// The target's baseline instruction set (SSE2 on x86-64).
    Portable,
    /// The same source compiled with AVX2 enabled (x86-64 only).
    Avx2,
    /// The same source compiled with AVX-512F enabled (x86-64 only).
    Avx512,
}

impl Encoding {
    /// Every encoding, portable first.
    pub const ALL: [Encoding; 3] = [Encoding::Portable, Encoding::Avx2, Encoding::Avx512];

    /// The fastest encoding this CPU runs: AVX-512, else AVX2, else the
    /// portable one.
    pub fn detect() -> Self {
        [Encoding::Avx512, Encoding::Avx2]
            .into_iter()
            .find(|e| e.is_available())
            .unwrap_or(Encoding::Portable)
    }

    /// Whether this CPU can run the encoding.
    pub fn is_available(self) -> bool {
        match self {
            Encoding::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Encoding::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Encoding::Avx512 => std::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Encoding::Avx2 | Encoding::Avx512 => false,
        }
    }

    /// Run `f` compiled in this encoding. `f` must be `#[inline(always)]`
    /// code for the encoding to reach it.
    #[inline(always)]
    pub(crate) fn run<R>(self, f: impl FnOnce() -> R) -> R {
        assert!(self.is_available(), "{self:?} is not available on this CPU");
        match self {
            Encoding::Portable => f(),
            // SAFETY: the assert above checked that the CPU supports AVX2,
            // the only requirement of `with_avx2`.
            #[cfg(target_arch = "x86_64")]
            Encoding::Avx2 => unsafe { with_avx2(f) },
            // SAFETY: the assert above checked that the CPU supports
            // AVX-512F, the only requirement of `with_avx512`.
            #[cfg(target_arch = "x86_64")]
            Encoding::Avx512 => unsafe { with_avx512(f) },
            #[cfg(not(target_arch = "x86_64"))]
            Encoding::Avx2 | Encoding::Avx512 => unreachable!("{self:?} is x86-64 only"),
        }
    }
}

/// Calls `f` in a function compiled with AVX2 enabled, so inlined code in
/// `f` is encoded with it.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn with_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Calls `f` in a function compiled with AVX-512F enabled, so inlined
/// code in `f` is encoded with it.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn with_avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The micro-kernel: `out[at[i] + j] += Σ_s a[s·lda + i] · b[s·ldb + j]`
/// for `i < MA`, `j < NB`, over `shared` in its order. Each output's
/// total stays in a register from the first `s` to the last.
#[inline(always)]
pub(crate) fn tile<const MA: usize, const NB: usize>(
    out: &mut [f64],
    at: [usize; MA],
    (a, lda): (&[f64], usize),
    (b, ldb): (&[f64], usize),
    shared: impl Iterator<Item = usize>,
) {
    let mut acc = [[0.0; NB]; MA];
    for (row, &o) in acc.iter_mut().zip(&at) {
        row.copy_from_slice(&out[o..o + NB]);
    }
    for s in shared {
        let ar: &[f64; MA] = a[s * lda..][..MA].try_into().expect("MA values");
        let br: &[f64; NB] = b[s * ldb..][..NB].try_into().expect("NB values");
        for (row, &av) in acc.iter_mut().zip(ar) {
            for (t, &bv) in row.iter_mut().zip(br) {
                *t += av * bv;
            }
        }
    }
    for (row, &o) in acc.iter().zip(&at) {
        out[o..o + NB].copy_from_slice(row);
    }
}

/// Output columns of the tile in the AVX-512 encoding. An 8-wide register
/// holds a whole row of a `4 × 8` tile, so that tile keeps only four
/// independent sums in flight, and the adds' latency bounds it; sixteen
/// columns keep eight, as `4 × 8` does in 4-wide AVX2 registers.
pub(crate) const WIDE_TILE_COLS: usize = 2 * TILE_COLS;

/// Tiles of `MA` output rows across the output columns `cols`: `NB` wide
/// while `NB` columns remain, then [`TILE_COLS`] wide, then one wide.
/// `at(j)` gives the output offsets of the tile at column `j`, `b(j)` the
/// operand `B` from column `j` on.
#[inline(always)]
pub(crate) fn tile_row<'b, const MA: usize, const NB: usize>(
    out: &mut [f64],
    cols: Range<usize>,
    at: impl Fn(usize) -> [usize; MA],
    a: (&[f64], usize),
    b: impl Fn(usize) -> (&'b [f64], usize),
    shared: impl Iterator<Item = usize> + Clone,
) {
    let mut j = cols.start;
    while j + NB <= cols.end {
        tile::<MA, NB>(out, at(j), a, b(j), shared.clone());
        j += NB;
    }
    while j + TILE_COLS <= cols.end {
        tile::<MA, TILE_COLS>(out, at(j), a, b(j), shared.clone());
        j += TILE_COLS;
    }
    for j in j..cols.end {
        tile::<MA, 1>(out, at(j), a, b(j), shared.clone());
    }
}

/// Minimum multiply-adds per worker in [`at_b_accumulate`].
const AT_B_PAR_MADDS: usize = 1 << 20;

/// `out += Aᵀ·B` for `A` (`m×p`), `B` (`m×q`) and `out` (`p×q`), in the
/// given encoding. Row `l` of `out` gains `Σ_r A[r,l]·B[r,·]`, `r`
/// ascending, as the row-axpy loop that skips `A[r,l] == 0` computes it
/// (see the module docs). Per block of 4 columns of `A`, only the rows
/// `r` with a nonzero in the block are visited, so a sparse `A` costs
/// `O(q·nnz(A))` plus an `O(m·p)` scan.
///
/// Threads split the output rows in blocks of 4 (disjoint writes), so the
/// result is the same at any pool width. Inputs must be finite for the
/// bit-identity argument to hold.
pub fn at_b_accumulate(
    a: &DenseMatrix,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    encoding: Encoding,
) -> Result<()> {
    let ((m, p), q) = (a.shape(), b.cols());
    if b.rows() != m {
        return Err(LinalgError::ShapeMismatch {
            found: b.shape(),
            expected: (m, q),
        });
    }
    if out.shape() != (p, q) {
        return Err(LinalgError::ShapeMismatch {
            found: out.shape(),
            expected: (p, q),
        });
    }
    if p == 0 || q == 0 {
        return Ok(());
    }
    let (a, b) = (a.as_slice(), b.as_slice());
    let nnz = a.iter().filter(|&&v| v != 0.0).count();
    // Output rows per worker: enough multiply-adds each (q per nonzero of
    // A, spread over p rows), in whole tiles.
    let grain = (AT_B_PAR_MADDS * p).div_ceil(q * nnz.max(1));
    let rows_per = p
        .div_ceil(par::max_threads())
        .max(grain)
        .next_multiple_of(TILE_ROWS);
    par::for_each_chunk_mut(out.as_mut_slice(), rows_per * q, |piece, rows| {
        let l_start = piece * rows_per;
        match encoding {
            Encoding::Avx512 => encoding.run(
                #[inline(always)]
                || at_b_rows::<WIDE_TILE_COLS>(a, b, (m, p, q), l_start, rows),
            ),
            _ => encoding.run(
                #[inline(always)]
                || at_b_rows::<TILE_COLS>(a, b, (m, p, q), l_start, rows),
            ),
        }
    });
    Ok(())
}

/// [`at_b_accumulate`] for the output rows starting at `l_start` (a
/// multiple of [`TILE_ROWS`]) that `out` holds, in tiles `NB` wide.
#[inline(always)]
fn at_b_rows<const NB: usize>(
    a: &[f64],
    b: &[f64],
    (m, p, q): (usize, usize, usize),
    l_start: usize,
    out: &mut [f64],
) {
    let mut live = Vec::with_capacity(m);
    let b_from = |j: usize| (&b[j..], q);
    for block in (0..out.len() / q).step_by(TILE_ROWS) {
        let l0 = l_start + block;
        let width = TILE_ROWS.min(p - l0);
        live.clear();
        live.extend((0..m).filter(|&r| a[r * p + l0..][..width].iter().any(|&v| v != 0.0)));
        let rows = live.iter().copied();
        let pos = |i: usize, j: usize| (block + i) * q + j;
        if width == TILE_ROWS {
            let tile_at = |j: usize| [pos(0, j), pos(1, j), pos(2, j), pos(3, j)];
            tile_row::<TILE_ROWS, NB>(out, 0..q, tile_at, (&a[l0..], p), b_from, rows);
        } else {
            for i in 0..width {
                let a_col = (&a[l0 + i..], p);
                tile_row::<1, NB>(out, 0..q, |j| [pos(i, j)], a_col, b_from, rows.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn random(rows: usize, cols: usize, density: f64, seed: u64) -> DenseMatrix {
        let mut rng = Xoshiro256pp::new(seed);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            if rng.bernoulli(density) {
                rng.gaussian()
            } else {
                0.0
            }
        })
    }

    #[test]
    fn accumulates_a_transpose_b_on_rectangular_shapes() {
        for (m, p, q) in [(13, 6, 11), (3, 9, 17), (20, 4, 8), (1, 1, 1)] {
            let a = random(m, p, 0.6, 1);
            let b = random(m, q, 1.0, 2);
            let start = random(p, q, 1.0, 3);
            let mut out = start.clone();
            at_b_accumulate(&a, &b, &mut out, Encoding::Portable).unwrap();
            let mut want = a.t_matmul(&b).unwrap();
            want.axpy(1.0, &start).unwrap();
            assert!(out.approx_eq(&want, 1e-12), "{m}x{p} by {m}x{q}");
        }
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let a = DenseMatrix::zeros(5, 3);
        let mut out = DenseMatrix::zeros(3, 4);
        let bad_b = DenseMatrix::zeros(4, 4);
        assert!(at_b_accumulate(&a, &bad_b, &mut out, Encoding::Portable).is_err());
        let b = DenseMatrix::zeros(5, 4);
        let mut bad_out = DenseMatrix::zeros(4, 3);
        assert!(at_b_accumulate(&a, &b, &mut bad_out, Encoding::Portable).is_err());
    }

    #[test]
    fn detect_picks_an_available_encoding() {
        assert!(Encoding::detect().is_available());
        assert!(Encoding::Portable.is_available());
    }
}
