//! Property-based tests for the parallel primitives.

use proptest::prelude::*;
use seqfm_parallel::partition;

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
