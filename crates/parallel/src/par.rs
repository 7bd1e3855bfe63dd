//! Slice fan-out primitives and deterministic partitioning.
//!
//! Everything here is deterministic by construction: chunk boundaries are a
//! pure function of the inputs (never of thread timing) and each chunk is
//! handed to exactly one task, so row-partitioned kernels — whose per-unit
//! work is independent — produce bit-for-bit the serial result on any pool
//! size.

use crate::pool::ThreadPool;
use std::ops::Range;

/// Splits `0..n` into exactly `min(parts, n)` contiguous ranges whose sizes
/// differ by at most one (earlier ranges get the remainder) — so `n == 0`
/// yields no ranges at all. Deterministic; the shard layout of
/// data-parallel training.
pub fn partition(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.max(1).min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Derives the RNG seed of stream `stream` from a base seed — a SplitMix64
/// finalizer over `seed ⊕ (stream + 1)·φ64`, so consecutive streams are
/// uncorrelated and stream 0 differs from the base seed itself.
pub fn shard_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ (stream.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fans `N` parallel buffers of fixed-size units out over the pool in
/// contiguous per-worker chunks. Buffer `i` holds `units` units of
/// `unit_lens[i]` elements and the units correspond one-to-one (a matmul's
/// output rows at `N = 1`; an attention kernel's per-slice scores and output
/// at 2; its backward's `dQ`/`dK`/`dV` at 3). Each chunk gets one call
/// `f(first_unit, chunks)`: `chunks[i]` holds the same whole units of buffer
/// `i`, and `first_unit` is the global index of the first one — mask/row
/// offsets derive from it. The single home of the `div_ceil`/`chunks_mut`
/// fan-out arithmetic used by every row/slice-partitioned kernel.
///
/// A fan-out of one chunk (a single-worker pool, or fewer units than one
/// worker's share) runs as a plain call on the caller's
/// thread: handing the only chunk to the pool and waiting for it buys no
/// concurrency, costs a task box, a wake-up and two context switches, and
/// leaves to the scheduler which thread ends up running it.
///
/// # Panics
/// Panics if `N == 0`, a unit length is zero, or a buffer is not `units`
/// whole units long (`units` being the first buffer's count).
pub fn par_units<T, const N: usize, F>(
    pool: &ThreadPool,
    bufs: [&mut [T]; N],
    unit_lens: [usize; N],
    f: F,
) where
    T: Send,
    F: Fn(usize, [&mut [T]; N]) + Sync,
{
    assert!(unit_lens.iter().all(|&u| u > 0), "par_units: unit lengths must be positive");
    let units = bufs[0].len() / unit_lens[0];
    for (buf, &unit) in bufs.iter().zip(&unit_lens) {
        assert_eq!(buf.len(), units * unit, "par_units: buffer is not {units} units of {unit}");
    }
    let per = units.div_ceil(pool.workers()).max(1);
    if units <= per {
        if units > 0 {
            f(0, bufs);
        }
        return;
    }
    let mut lens = unit_lens.iter();
    let mut chunks = bufs.map(|buf| buf.chunks_mut(per * lens.next().expect("N lengths")));
    pool.scope(|s| {
        for first in (0..units).step_by(per) {
            let chunk = chunks.each_mut().map(|c| c.next().expect("a chunk per `per` units"));
            let f = &f;
            s.spawn(move || f(first, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let parts = partition(10, 4);
        assert_eq!(parts, vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(partition(3, 8), vec![0..1, 1..2, 2..3]);
        assert!(partition(0, 4).is_empty(), "no items -> no shards");
    }

    #[test]
    fn shard_seeds_are_distinct_streams() {
        let seeds: Vec<u64> = (0..64).map(|s| shard_seed(42, s)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "stream collision");
        assert_ne!(shard_seed(42, 0), 42, "stream 0 must not echo the base seed");
        assert_ne!(shard_seed(42, 0), shard_seed(43, 0), "base seed must matter");
    }

    #[test]
    fn par_units_hands_out_whole_units_with_correct_offsets() {
        let pool = ThreadPool::new(3);
        let unit = 4;
        let mut data = vec![0u32; 11 * unit];
        par_units(&pool, [&mut data], [unit], |first, [chunk]| {
            assert_eq!(chunk.len() % unit, 0, "partial unit handed out");
            for (u, slots) in chunk.chunks_mut(unit).enumerate() {
                slots.fill((first + u) as u32);
            }
        });
        for (u, slots) in data.chunks(unit).enumerate() {
            assert!(slots.iter().all(|&v| v == u as u32), "unit {u} wrote {slots:?}");
        }
    }

    /// Every unit of every buffer is stamped with its global index.
    fn stamps_in_lockstep<const N: usize>(pool: &ThreadPool, n_units: usize, units: [usize; N]) {
        let mut bufs = units.map(|u| vec![0u32; n_units * u]);
        par_units(pool, bufs.each_mut().map(|b| &mut b[..]), units, |first, chunks| {
            let n = chunks[0].len() / units[0];
            for (chunk, &u) in chunks.into_iter().zip(&units) {
                assert_eq!(chunk.len(), n * u, "chunk unit counts diverge");
                for (i, slots) in chunk.chunks_mut(u).enumerate() {
                    slots.fill((first + i) as u32);
                }
            }
        });
        for (buf, &u) in bufs.iter().zip(&units) {
            for (i, slots) in buf.chunks(u).enumerate() {
                assert!(slots.iter().all(|&v| v == i as u32), "unit {i} wrote {slots:?}");
            }
        }
    }

    #[test]
    fn par_units_keeps_two_buffers_in_lockstep() {
        stamps_in_lockstep(&ThreadPool::new(4), 9, [2, 5]);
    }

    #[test]
    fn par_units_keeps_three_buffers_in_lockstep() {
        stamps_in_lockstep(&ThreadPool::new(4), 9, [2, 5, 3]);
        // One chunk (single-worker pool) and no units at all.
        let solo = ThreadPool::new(1);
        par_units(&solo, [&mut [0u8; 4], &mut [0u8; 6], &mut [0u8; 2]], [2, 3, 1], |first, c| {
            assert_eq!((first, c[0].len(), c[1].len(), c[2].len()), (0, 4, 6, 2));
        });
        par_units(&solo, [&mut [0u8; 0], &mut [], &mut []], [2, 3, 1], |_, _| unreachable!());
    }

    #[test]
    fn a_single_chunk_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        let on_caller = |first: usize| {
            assert_eq!(first, 0);
            assert_eq!(std::thread::current().id(), me, "one chunk must not hop to the pool");
            ran.fetch_add(1, Ordering::Relaxed);
        };
        // A single-worker pool: every fan-out is one chunk.
        let solo = ThreadPool::new(1);
        par_units(&solo, [&mut [0u8; 12]], [3], |first, [chunk]| {
            assert_eq!(chunk.len(), 12);
            on_caller(first);
        });
        par_units(&solo, [&mut [0u8; 4], &mut [0u8; 6]], [2, 3], |first, [a, b]| {
            assert_eq!((a.len(), b.len()), (4, 6));
            on_caller(first);
        });
        // A wide pool, one unit: still one chunk.
        let wide = ThreadPool::new(4);
        par_units(&wide, [&mut [0u8; 3]], [3], |first, _| on_caller(first));
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        // No units: no call at all.
        par_units(&wide, [&mut [0u8; 0]], [3], |_, _| unreachable!("empty fan-out"));
        par_units(&solo, [&mut [0u8; 0], &mut [0u8; 0]], [2, 3], |_, _| unreachable!("empty"));
    }
}
