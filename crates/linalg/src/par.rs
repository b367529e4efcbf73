//! Scoped-thread data parallelism for the workspace's hot loops.
//!
//! The offline crate set has no `rayon`, so this module provides the small
//! subset the kernels actually need — `for_each` over disjoint mutable
//! partitions — on `std::thread::scope`. Every entry point degrades to a
//! plain serial loop when any of the following holds:
//!
//! * the crate is built without the `parallel` feature (the CI
//!   `--no-default-features` build): [`max_threads`] is compile-time 1;
//! * the work is too small for its `grain` (per-thread minimum item
//!   count), so splitting yields a single range;
//! * a runtime override pins the pool to one thread
//!   ([`set_thread_override`], or `LEAST_NUM_THREADS=1`), which is how the
//!   `engine_throughput` benchmark measures serial and parallel paths in
//!   one process.
//!
//! Determinism: any pool width gives the serial build's bits. Work is only
//! ever split into *disjoint writes* — each output entry is computed by
//! one worker, by the same arithmetic as the serial loop — and there is no
//! parallel reduction: a sum whose terms span workers is added by the
//! caller afterwards, serially and in the serial loop's order. The
//! partition may follow the pool width; no result does.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(feature = "parallel")]
use std::sync::OnceLock;

/// Hard cap on worker threads: past this, spawn overhead and memory
/// bandwidth dominate for these kernels.
const MAX_POOL: usize = 16;

/// Runtime override; 0 = auto-detect.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the worker-thread count at runtime (`None` restores auto-detect).
/// Values are clamped to `1..=16`. Mainly for benchmarks that want to
/// compare serial and parallel execution within one process.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(
        threads.map_or(0, |t| t.clamp(1, MAX_POOL)),
        Ordering::Relaxed,
    );
}

/// Worker threads parallel kernels may use. Always 1 without the
/// `parallel` feature; otherwise the override, the `LEAST_NUM_THREADS`
/// environment variable, or `available_parallelism`, in that order.
pub fn max_threads() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
        let overridden = THREAD_OVERRIDE.load(Ordering::Relaxed);
        if overridden != 0 {
            return overridden;
        }
        // This sits on per-operation hot paths (every spmv/row-sum checks
        // it), so the environment is consulted exactly once per process.
        static AUTO: OnceLock<usize> = OnceLock::new();
        *AUTO.get_or_init(|| {
            if let Some(n) = std::env::var("LEAST_NUM_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
            {
                return n.clamp(1, MAX_POOL);
            }
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_POOL)
        })
    }
}

/// Split `0..n` into at most [`max_threads`] contiguous ranges of at least
/// `grain` items each (the last range may be shorter only when `n` is).
/// Returns a single range — the caller's serial path — whenever splitting
/// is not worthwhile.
pub fn split_ranges(n: usize, grain: usize) -> Vec<Range<usize>> {
    let grain = grain.max(1);
    let threads = max_threads().min(n / grain).max(1);
    if threads <= 1 {
        return if n == 0 {
            Vec::new()
        } else {
            std::iter::once(0..n).collect()
        };
    }
    let per = n.div_ceil(threads);
    (0..threads)
        .map(|t| t * per..((t + 1) * per).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Process `data` in parallel as disjoint chunks of `chunk_len` elements;
/// `f` receives the chunk index and the chunk. Chunk count should be on
/// the order of [`max_threads`] — the caller picks `chunk_len`
/// accordingly (e.g. `rows.div_ceil(threads) * cols` for a row-major
/// matrix).
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    if max_threads() <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut chunks = data.chunks_mut(chunk_len).enumerate();
        let first = chunks.next();
        for (i, chunk) in chunks {
            let f = &f;
            scope.spawn(move || f(i, chunk));
        }
        if let Some((i, chunk)) = first {
            f(i, chunk);
        }
    });
}

/// Row-parallel iteration over a row-major buffer: `f(i, row)` runs for
/// every `cols`-wide row, split into per-thread row blocks of at least
/// `grain_rows` rows. The workhorse for dense kernels whose output rows
/// are independent.
pub fn for_each_row_mut<T, F>(data: &mut [T], cols: usize, grain_rows: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if cols == 0 {
        return;
    }
    let rows = data.len() / cols;
    let rows_per = rows.div_ceil(max_threads().max(1)).max(grain_rows.max(1));
    for_each_chunk_mut(data, rows_per * cols, |block, chunk| {
        for (i, row) in chunk.chunks_mut(cols).enumerate() {
            f(block * rows_per + i, row);
        }
    });
}

/// Process `data` split at the given positions (ascending, within bounds),
/// in parallel; `f` receives the index of each piece and the piece.
/// Used for CSR value arrays, whose per-row-block pieces are unequal.
pub fn for_each_split_mut<T, F>(data: &mut [T], bounds: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if bounds.is_empty() {
        f(0, data);
        return;
    }
    let mut pieces = Vec::with_capacity(bounds.len() + 1);
    let mut rest = data;
    let mut prev = 0usize;
    for &b in bounds {
        let (piece, tail) = rest.split_at_mut(b - prev);
        pieces.push(piece);
        rest = tail;
        prev = b;
    }
    pieces.push(rest);
    if max_threads() <= 1 {
        for (i, piece) in pieces.into_iter().enumerate() {
            f(i, piece);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut iter = pieces.into_iter().enumerate();
        let first = iter.next();
        for (i, piece) in iter {
            let f = &f;
            scope.spawn(move || f(i, piece));
        }
        if let Some((i, piece)) = first {
            f(i, piece);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_respects_grain() {
        // 10 items at grain 8: not worth splitting.
        assert_eq!(split_ranges(10, 8), vec![0..10]);
        // Ranges cover 0..n exactly, in order, each non-empty.
        let ranges = split_ranges(1000, 10);
        assert!(!ranges.is_empty());
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 1000);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn split_empty_input() {
        assert!(split_ranges(0, 4).is_empty());
    }

    #[test]
    fn row_mut_visits_rows_in_place() {
        let (rows, cols) = (37, 5);
        let mut data = vec![0usize; rows * cols];
        for_each_row_mut(&mut data, cols, 1, |i, row| {
            for v in row {
                *v = i;
            }
        });
        for (i, row) in data.chunks(cols).enumerate() {
            assert!(row.iter().all(|&v| v == i));
        }
    }

    #[test]
    fn chunk_mut_touches_every_element_once() {
        let mut data = vec![0u32; 1003];
        for_each_chunk_mut(&mut data, 100, |_, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn split_mut_respects_bounds() {
        let mut data: Vec<usize> = (0..10).collect();
        for_each_split_mut(&mut data, &[3, 3, 7], |piece_idx, piece| {
            for v in piece {
                *v = piece_idx;
            }
        });
        assert_eq!(data, vec![0, 0, 0, 2, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn thread_override_round_trip() {
        set_thread_override(Some(1));
        assert_eq!(max_threads(), 1);
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }
}
