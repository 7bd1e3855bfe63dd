//! Property-based tests for the parallel primitives.

use proptest::prelude::*;
use seqfm_parallel::{par_units, partition, ThreadPool};
use std::sync::Mutex;

/// The `(first_unit, chunk lengths)` of every call one `par_units` fan-out
/// of `units` units makes, in unit order.
fn fan_out<const N: usize>(
    pool: &ThreadPool,
    units: usize,
    unit_lens: [usize; N],
) -> Vec<(usize, [usize; N])> {
    let mut bufs = unit_lens.map(|u| vec![0u8; units * u]);
    let calls = Mutex::new(Vec::new());
    par_units(pool, bufs.each_mut().map(|b| &mut b[..]), unit_lens, |first, chunks| {
        calls.lock().unwrap().push((first, chunks.map(|c| c.len())));
    });
    let mut calls = calls.into_inner().unwrap();
    calls.sort_unstable();
    calls
}

/// What `par_units` / `par_units2` / `par_units3` handed out before they
/// became one function: `per = ⌈units / workers⌉` units a chunk, each buffer
/// cut by `chunks_mut(per · unit_len)`, chunk `ci` starting at unit `ci · per`.
fn old_boundaries<const N: usize>(
    workers: usize,
    units: usize,
    unit_lens: [usize; N],
) -> Vec<(usize, [usize; N])> {
    let per = units.div_ceil(workers).max(1);
    (0..units.div_ceil(per))
        .map(|ci| (ci * per, unit_lens.map(|u| (units * u).min((ci + 1) * per * u) - ci * per * u)))
        .collect()
}

/// Bit-identity of every row-partitioned kernel rests on this: the chunk
/// boundaries are the old ones at every buffer count, pool width and size.
#[test]
fn par_units_chunk_boundaries_are_the_old_ones() {
    for workers in 1..=4 {
        let pool = ThreadPool::new(workers);
        for units in 0..=17 {
            assert_eq!(fan_out(&pool, units, [3]), old_boundaries(workers, units, [3]));
            assert_eq!(fan_out(&pool, units, [2, 5]), old_boundaries(workers, units, [2, 5]));
            assert_eq!(fan_out(&pool, units, [2, 5, 3]), old_boundaries(workers, units, [2, 5, 3]));
        }
    }
}

proptest! {
    /// Partitioning is a disjoint, exhaustive, ordered cover of 0..n.
    #[test]
    fn partition_covers_exactly(n in 0usize..5000, parts in 1usize..32) {
        let ranges = partition(n, parts);
        prop_assert!(ranges.len() <= parts.max(1));
        let mut expect_start = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, expect_start, "gap or overlap");
            prop_assert!(r.end >= r.start);
            expect_start = r.end;
        }
        prop_assert_eq!(expect_start, n);
        // Balanced: sizes differ by at most one.
        if let (Some(max), Some(min)) = (
            ranges.iter().map(|r| r.len()).max(),
            ranges.iter().map(|r| r.len()).min(),
        ) {
            prop_assert!(max - min <= 1, "unbalanced: {max} vs {min}");
        }
    }
}
