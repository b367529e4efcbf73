//! Every encoding of the register-tiled `Aᵀ·B` kernels against the
//! row-axpy loops they replaced.
//!
//! `tile::at_b_accumulate` (the dense Gram gather) and
//! `PackedSym::rank_update` (the streaming Gram update) promise results
//! equal (`==`) to the loops below, which are the earlier kernels kept
//! verbatim, in the portable, the AVX2 and the AVX-512 encoding, at pool
//! widths 1–3. An encoding the CPU lacks is skipped, with a note on stderr.

use least_linalg::tile::{at_b_accumulate, Encoding};
use least_linalg::{par, DenseMatrix, PackedSym, Xoshiro256pp};
use std::sync::{Mutex, MutexGuard};

/// Orders that hit full tiles, edge tiles and the diagonal strip.
const DIMS: [usize; 8] = [0, 1, 5, 7, 8, 9, 200, 201];

/// The pool width is process-global: every test here holds this lock, so
/// none runs while another has the width pinned.
static POOL_WIDTH: Mutex<()> = Mutex::new(());

/// Run `f` in each encoding this CPU has, at pool widths 1, 2 and 3.
fn at_each_encoding_and_width(test: &str, mut f: impl FnMut(Encoding, usize)) {
    // The lock guards no data, so a panicked holder leaves nothing broken.
    let _guard: MutexGuard<'_, ()> = POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    for encoding in Encoding::ALL {
        if !encoding.is_available() {
            eprintln!("{test}: {encoding:?} skipped, not detected on this CPU");
            continue;
        }
        for width in 1..=3 {
            par::set_thread_override(Some(width));
            f(encoding, width);
        }
    }
    par::set_thread_override(None);
}

/// The row-axpy Gram gather, verbatim: row `l` of `out` is
/// `Σ_r W[r,l]·G[·,r]`, `r` ascending, skipping `W[r,l] == 0` (serial here;
/// it split rows across threads, which no entry's sum depends on).
fn row_axpy_gather(w: &[f64], g_cols: &[f64], d: usize) -> Vec<f64> {
    let mut grad = vec![0.0; d * d];
    if d == 0 {
        return grad;
    }
    for (l, out) in grad.chunks_mut(d).enumerate() {
        for (r, g_col) in g_cols.chunks_exact(d).enumerate() {
            let v = w[r * d + l];
            if v != 0.0 {
                for (o, &gv) in out.iter_mut().zip(g_col) {
                    *o += v * gv;
                }
            }
        }
    }
    grad
}

/// The row-axpy `rank_update`, verbatim: every packed row accumulates the
/// chunk's samples in order, skipping samples whose `x[s,j]` is zero (serial
/// here; it split rows across threads, which no entry's sum depends on).
fn row_axpy_rank_update(data: &mut [f64], chunk: &DenseMatrix) {
    let (m, d) = chunk.shape();
    let mut j = 0;
    let mut off = 0usize;
    while off < data.len() {
        let len = d - j;
        let row_acc = &mut data[off..off + len];
        for s in 0..m {
            let xr = &chunk.row(s)[j..];
            let xj = xr[0];
            if xj != 0.0 {
                for (a, &v) in row_acc.iter_mut().zip(xr) {
                    *a += xj * v;
                }
            }
        }
        off += len;
        j += 1;
    }
}

fn gaussian(rows: usize, cols: usize, offset: f64, seed: u64) -> DenseMatrix {
    let mut rng = Xoshiro256pp::new(seed);
    DenseMatrix::from_fn(rows, cols, |_, _| offset + rng.gaussian())
}

/// The four iterates of `crates/core/tests/bit_identity.rs`: dense, ~2 %
/// dense, all zero, and one with empty rows and columns (plus entries whose
/// squares underflow).
fn iterates(d: usize, seed: u64) -> Vec<(&'static str, DenseMatrix)> {
    let mut rng = Xoshiro256pp::new(seed);
    let dense = DenseMatrix::from_fn(
        d,
        d,
        |i, j| {
            if i == j {
                0.0
            } else {
                rng.uniform(-0.5, 0.5)
            }
        },
    );
    let sparse = DenseMatrix::from_fn(d, d, |i, j| {
        if i != j && rng.bernoulli(0.02) {
            rng.uniform(-1.5, 1.5)
        } else {
            0.0
        }
    });
    let holes = DenseMatrix::from_fn(d, d, |i, j| {
        let empty = |v: usize| v.is_multiple_of(3);
        if i == j || empty(i) || empty(j) {
            0.0
        } else if (i + j).is_multiple_of(17) {
            1e-170
        } else if rng.bernoulli(0.1) {
            rng.uniform(-1.0, 1.0)
        } else {
            0.0
        }
    });
    vec![
        ("dense", dense),
        ("sparse_2pct", sparse),
        ("zero", DenseMatrix::zeros(d, d)),
        ("empty_rows_cols", holes),
    ]
}

/// A chunk with exact zeros scattered through it and every fifth row zero.
fn holey_chunk(rows: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = Xoshiro256pp::new(seed);
    DenseMatrix::from_fn(rows, d, |s, _| {
        if s % 5 == 2 || rng.bernoulli(0.3) {
            0.0
        } else {
            rng.gaussian()
        }
    })
}

/// Entry-wise `==` (so `-0.0 == 0.0`), with the first mismatch named.
fn assert_entries_eq(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(at) = (0..got.len()).find(|&at| got[at] != want[at]) {
        panic!(
            "{what}: entry {at} is {:e}, reference {:e}",
            got[at], want[at]
        );
    }
}

#[test]
fn gather_equals_the_row_axpy_loop() {
    for d in DIMS {
        let gaussian_g = gaussian(d, d, 0.0, 31 + d as u64);
        let offset_g = gaussian(d, d, 1e6, 32 + d as u64);
        let mut cases = Vec::new();
        for (name, w) in iterates(d, 33 + d as u64) {
            // Every iterate against a plain G; below d = 200 the dense one
            // also against a G whose entries sit near 1e6.
            if name == "dense" && d < 200 {
                cases.push((format!("d = {d}, {name} W, offset G"), w.clone(), &offset_g));
            }
            cases.push((format!("d = {d}, {name} W"), w, &gaussian_g));
        }
        let cases: Vec<_> = cases
            .into_iter()
            .map(|(what, w, g)| {
                let want = row_axpy_gather(w.as_slice(), g.as_slice(), d);
                (what, w, g, want)
            })
            .collect();
        at_each_encoding_and_width("gather", |encoding, width| {
            for (what, w, g, want) in &cases {
                let mut got = DenseMatrix::zeros(d, d);
                at_b_accumulate(w, g, &mut got, encoding).unwrap();
                let what = format!("{what}, {encoding:?}, width {width}");
                assert_entries_eq(&what, got.as_slice(), want);
            }
        });
    }
}

#[test]
fn rank_update_equals_the_row_axpy_loop() {
    for d in DIMS {
        let seed = 41 + d as u64;
        // 260 rows: the update's sample blocks (256) split the chunk.
        let mut offset = gaussian(260, d, 0.0, seed);
        for s in 0..260 {
            for j in (1..d).step_by(2) {
                offset[(s, j)] += 1e6;
            }
        }
        let chunks = [
            ("odd_columns_offset_1e6", offset),
            ("zeros_and_zero_rows", holey_chunk(260, d, seed)),
        ];
        let cases: Vec<_> = chunks
            .iter()
            .map(|(name, chunk)| {
                let mut want = vec![0.0; d * (d + 1) / 2];
                row_axpy_rank_update(&mut want, chunk);
                (format!("d = {d}, {name}"), chunk, want)
            })
            .collect();
        at_each_encoding_and_width("rank_update", |encoding, width| {
            for (what, chunk, want) in &cases {
                let mut got = PackedSym::zeros(d);
                got.rank_update_with(chunk, encoding).unwrap();
                let what = format!("{what}, {encoding:?}, width {width}");
                assert_entries_eq(&what, got.as_slice(), want);
            }
        });
    }
}

#[test]
fn rank_update_is_the_same_under_every_rechunking() {
    // Longer than the largest chunking, so every chunk size cuts the
    // stream; zero rows and a 1e6 offset column ride along. Order 13 has
    // full tiles, edge tiles, a diagonal strip and a lone last row.
    let d = 13;
    let n = 8192 + 300;
    let mut stream = holey_chunk(n, d, 51);
    for s in 0..n {
        stream[(s, 3)] += 1e6;
    }
    let mut want = vec![0.0; d * (d + 1) / 2];
    row_axpy_rank_update(&mut want, &stream);
    at_each_encoding_and_width("rechunking", |encoding, width| {
        for rows in [1, 7, 257, 8192] {
            let mut got = PackedSym::zeros(d);
            for s0 in (0..n).step_by(rows) {
                let s1 = (s0 + rows).min(n);
                let chunk = DenseMatrix::from_fn(s1 - s0, d, |s, j| stream[(s0 + s, j)]);
                got.rank_update_with(&chunk, encoding).unwrap();
            }
            let what = format!("chunks of {rows}, {encoding:?}, width {width}");
            assert_entries_eq(&what, got.as_slice(), &want);
        }
    });
}
