//! Deterministic bounded top-K selection.
//!
//! Retrieval shards the catalog across workers; each shard keeps its own
//! [`TopK`] and the shard heaps are merged at the end. The result is
//! deterministic for *any* sharding because ranking is a **total order**:
//! higher score first ([`f32::total_cmp`], so results are reproducible down
//! to the bit), exact score ties broken by ascending item id, and NaN
//! scores pinned after every real score (ids ordering NaNs among
//! themselves). Under a total order the top-K set and its order are unique,
//! so how candidates were partitioned can never show in the output.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One candidate with its logit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// Catalog item id.
    pub item: u32,
    /// The model's logit for this item.
    pub score: f32,
}

/// The retrieval ranking: `Less` means `a` ranks strictly before `b`.
///
/// Total order: descending score by [`f32::total_cmp`] (`+0.0` before
/// `-0.0`, reproducible bits), ascending item id on exact score ties, every
/// NaN after every non-NaN (NaNs ordered among themselves by id).
pub fn rank_cmp(a: &ScoredItem, b: &ScoredItem) -> Ordering {
    match (a.score.is_nan(), b.score.is_nan()) {
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        (true, true) => a.item.cmp(&b.item),
        (false, false) => b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)),
    }
}

/// Heap entry ordered so the [`BinaryHeap`] max is the *worst-ranked*
/// retained candidate — the one the next better candidate evicts.
#[derive(Clone, Copy, Debug)]
struct Entry(ScoredItem);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        rank_cmp(&self.0, &other.0) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_cmp(&self.0, &other.0)
    }
}

/// A bounded best-`k` accumulator under [`rank_cmp`].
///
/// `push` is O(log k) against the worst retained candidate; `k == 0` keeps
/// nothing (callers surface that as a typed error before scoring anything).
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Entry>,
}

impl TopK {
    /// An empty accumulator retaining the best `k` candidates.
    pub fn new(k: usize) -> TopK {
        TopK { k, heap: BinaryHeap::with_capacity(k.saturating_add(1)) }
    }

    /// The bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers one candidate, evicting the worst-ranked retained candidate
    /// if the accumulator is full and `cand` ranks strictly before it.
    pub fn push(&mut self, cand: ScoredItem) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Entry(cand));
        } else if let Some(worst) = self.heap.peek() {
            if rank_cmp(&cand, &worst.0) == Ordering::Less {
                self.heap.pop();
                self.heap.push(Entry(cand));
            }
        }
    }

    /// The k-th best **score** once full: no candidate scoring strictly
    /// below it can enter the top-K, which is exactly the block-prune test.
    /// `None` while not yet full. May be NaN (comparisons against a NaN
    /// threshold are false, so a NaN root simply disables pruning).
    pub fn threshold(&self) -> Option<f32> {
        (self.k > 0 && self.heap.len() == self.k)
            .then(|| self.heap.peek().expect("full heap").0.score)
    }

    /// Moves another shard's retained candidates into this accumulator,
    /// leaving `other` empty with its allocation intact (a scan reuses one
    /// heap per worker across its waves). Associativity and the total order
    /// make the merged result independent of shard count and merge order.
    pub fn absorb(&mut self, other: &mut TopK) {
        for e in other.heap.drain() {
            self.push(e.0);
        }
    }

    /// Consumes the accumulator into best-first order.
    pub fn into_sorted(self) -> Vec<ScoredItem> {
        let mut v: Vec<ScoredItem> = self.heap.into_iter().map(|e| e.0).collect();
        v.sort_by(rank_cmp);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(pairs: &[(u32, f32)]) -> Vec<ScoredItem> {
        pairs.iter().map(|&(item, score)| ScoredItem { item, score }).collect()
    }

    #[test]
    fn nan_scores_rank_after_every_real_score() {
        let mut top = TopK::new(4);
        for c in items(&[(0, f32::NAN), (1, -5.0), (2, f32::NAN), (3, 2.0)]) {
            top.push(c);
        }
        let got: Vec<u32> = top.into_sorted().iter().map(|c| c.item).collect();
        // Real scores first (descending), then NaNs in id order.
        assert_eq!(got, vec![3, 1, 0, 2]);
    }

    #[test]
    fn exact_bit_ties_break_by_ascending_item_id() {
        let s = 1.25f32;
        let mut top = TopK::new(3);
        for c in items(&[(9, s), (4, s), (7, s), (2, 0.5)]) {
            top.push(c);
        }
        let got: Vec<u32> = top.into_sorted().iter().map(|c| c.item).collect();
        assert_eq!(got, vec![4, 7, 9], "tied logits must rank by ascending id");
        // The tie-losing low-score item never entered.
    }

    #[test]
    fn shard_merge_is_independent_of_partitioning() {
        let all = items(&[
            (0, 1.0),
            (1, f32::NAN),
            (2, 3.5),
            (3, 3.5),
            (4, -2.0),
            (5, 0.0),
            (6, -0.0),
            (7, 9.1),
        ]);
        let reference = {
            let mut top = TopK::new(5);
            for &c in &all {
                top.push(c);
            }
            top.into_sorted()
        };
        // Every contiguous 2-way split, merged in both orders.
        for cut in 0..=all.len() {
            for flip in [false, true] {
                let (a, b) = all.split_at(cut);
                let (first, second) = if flip { (b, a) } else { (a, b) };
                let mut s1 = TopK::new(5);
                let mut s2 = TopK::new(5);
                for &c in first {
                    s1.push(c);
                }
                for &c in second {
                    s2.push(c);
                }
                s1.absorb(&mut s2);
                assert!(s2.is_empty(), "absorb drains its source");
                let got = s1.into_sorted();
                assert_eq!(got.len(), reference.len());
                for (r, g) in reference.iter().zip(&got) {
                    assert_eq!(r.item, g.item);
                    assert_eq!(r.score.to_bits(), g.score.to_bits());
                }
            }
        }
        // +0.0 ranks before -0.0 under total_cmp — pinned so the order stays
        // reproducible bit-for-bit.
        let ids: Vec<u32> = reference.iter().map(|c| c.item).collect();
        assert_eq!(ids, vec![7, 2, 3, 0, 5]);
    }

    #[test]
    fn k_zero_retains_nothing_and_never_panics() {
        let mut top = TopK::new(0);
        top.push(ScoredItem { item: 1, score: 4.0 });
        assert!(top.is_empty());
        assert_eq!(top.threshold(), None);
        assert!(top.into_sorted().is_empty());
    }

    #[test]
    fn threshold_is_kth_best_score_once_full() {
        let mut top = TopK::new(2);
        top.push(ScoredItem { item: 0, score: 1.0 });
        assert_eq!(top.threshold(), None, "not full yet");
        top.push(ScoredItem { item: 1, score: 3.0 });
        assert_eq!(top.threshold(), Some(1.0));
        top.push(ScoredItem { item: 2, score: 2.0 });
        assert_eq!(top.threshold(), Some(2.0), "worse of {{3, 2}}");
    }
}
