//! Blocked full-catalog scans with an exact upper-bound prune.

use crate::topk::{ScoredItem, TopK};
use seqfm_core::{FrozenSeqFm, HistoryView, ItemBlockStats, Scratch};
use seqfm_data::{Batch, FeatureLayout};
use seqfm_parallel::{global, par_units, partition, ThreadPool};
use std::fmt;
use std::sync::Arc;

/// Why a retrieval request could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RetrievalError {
    /// The request contradicts the index configuration (`k == 0`, unknown
    /// user, …).
    BadConfig {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for RetrievalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadConfig { reason } => write!(f, "bad retrieval config: {reason}"),
        }
    }
}

impl std::error::Error for RetrievalError {}

/// The outcome of one catalog retrieval.
#[derive(Clone, Debug, PartialEq)]
pub struct Retrieval {
    /// Retained candidates, best first (see [`crate::rank_cmp`]). Holds
    /// `min(k, catalog size)` entries.
    pub items: Vec<ScoredItem>,
    /// Catalog blocks whose items were actually scored.
    pub blocks_scored: usize,
    /// Catalog blocks skipped by the upper-bound prune.
    pub blocks_pruned: usize,
    /// Items that went through the forward pass.
    pub items_scored: usize,
    /// Always 0: kept only until the repo benchmark's
    /// `retrieval.blocks_repaired` counter is retired in its own benchmark PR.
    pub blocks_repaired: usize,
}

impl Retrieval {
    /// Fraction of catalog blocks the prune skipped, in `[0, 1]`.
    pub fn prune_rate(&self) -> f64 {
        let total = self.blocks_scored + self.blocks_pruned;
        if total == 0 {
            0.0
        } else {
            self.blocks_pruned as f64 / total as f64
        }
    }
}

/// Per-worker scan state: one scratch, one reusable expansion batch, one
/// logit buffer, one top-K shard.
struct Slot {
    scratch: Scratch,
    batch: Batch,
    out: Vec<f32>,
    top: TopK,
    items_scored: usize,
}

impl Slot {
    fn new(k: usize) -> Slot {
        Slot {
            scratch: Scratch::new(),
            batch: Batch::default(),
            out: Vec::new(),
            top: TopK::new(k),
            items_scored: 0,
        }
    }
}

/// A frozen model plus its catalog, pre-blocked for full scans: per-item
/// linear partial scores and per-block candidate-side bound envelopes are
/// computed once at build, so a retrieval pays only the query-side work.
///
/// The index streams the catalog through the model in cache-sized blocks,
/// reusing one [`HistoryView`] (the history-side half of the forward pass)
/// across every block. Blocks are formed over the catalog **sorted by item
/// linear partial `lin°(c)`, descending** rather than by raw id: the linear
/// term is the one score component that is exact per block (`lin_max`), so
/// grouping similar linear weights makes block upper bounds spread apart —
/// on models with a skewed item-weight distribution (any trained
/// implicit-feedback FM) the low-weight tail blocks fall below the
/// threshold and prune.
///
/// [`CatalogIndex::retrieve`] skips any block whose
/// [sound upper bound](FrozenSeqFm::block_upper_bound) falls below the
/// current k-th best score — with *exact* results: a pruned block provably
/// contains no member of the final top-K, and block composition never
/// perturbs surviving logits (per-row arithmetic is batch-independent), so
/// pruned retrieval is bit-identical to [`CatalogIndex::retrieve_brute`].
///
/// The index is immutable once built: a retrieval is a pure function of
/// `(index, view, k, workers)`.
pub struct CatalogIndex {
    model: Arc<FrozenSeqFm>,
    layout: FeatureLayout,
    block: usize,
    /// The catalog permutation blocks are cut from: item ids sorted by
    /// `lin°(c)` descending, ties by ascending id (deterministic build).
    order: Vec<u32>,
    stats: Vec<ItemBlockStats>,
    /// Per-item static linear weight `lin°(c)` — the candidate's entire
    /// attention-free partial score, precomputed at build. Indexed by item
    /// id, not by `order` position.
    lin_item: Vec<f32>,
}

impl CatalogIndex {
    /// Blocks `layout`'s item catalog for `model` and precomputes every
    /// candidate-side partial: item linear weights, the lin-sorted catalog
    /// permutation, and per-block V-envelope bound terms.
    ///
    /// `block` is the number of candidates scored per forward call; a few
    /// hundred keeps the expansion batch inside L2 at paper widths.
    ///
    /// # Panics
    /// Panics if `block == 0`.
    pub fn build(model: Arc<FrozenSeqFm>, layout: FeatureLayout, block: usize) -> CatalogIndex {
        assert!(block > 0, "catalog block size must be positive");
        let n = layout.n_items as u32;
        let lin_item: Vec<f32> = (0..n).map(|c| model.item_linear(&layout, c)).collect();
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|&a, &b| {
            lin_item[b as usize].total_cmp(&lin_item[a as usize]).then(a.cmp(&b))
        });
        let stats: Vec<ItemBlockStats> =
            order.chunks(block).map(|items| model.item_block_stats(&layout, items)).collect();
        CatalogIndex { model, layout, block, order, stats, lin_item }
    }

    /// Re-anchors this index on a freshly published model revision:
    /// recomputes every model-dependent partial — per-item linear weights,
    /// each block's exact bound envelope — over the **existing block
    /// membership**. Nothing is inherited from the previous model, so the
    /// result depends on `(order, model)` alone, not on the chain of
    /// publishes that led here.
    ///
    /// Correctness never depends on *which* items share a block: bounds are
    /// recomputed for the new model over the blocks as they stand, so pruned
    /// retrieval on the rebuilt index stays bit-identical to brute force.
    /// The grouping of similar linear weights is purely a prune-*quality*
    /// lever; after an incremental training step the weights moved little,
    /// so the stale grouping stays close to optimal, and skipping the sort
    /// saves its `n log n` on every publish (a fresh build measured 13 %
    /// slower at 5 k items, and the gap grows with the catalog). The
    /// grouping degrades gradually over many swaps — re-sort lazily by
    /// paying for a full [`CatalogIndex::build`] off-peak when the observed
    /// [`Retrieval::prune_rate`] drifts down.
    ///
    /// The layout and block size carry over; `model` must be trained for the
    /// same [`FeatureLayout`].
    pub fn rebuild_for(&self, model: Arc<FrozenSeqFm>) -> CatalogIndex {
        let n = self.layout.n_items as u32;
        let lin_item: Vec<f32> = (0..n).map(|c| model.item_linear(&self.layout, c)).collect();
        let stats: Vec<ItemBlockStats> = self
            .order
            .chunks(self.block)
            .map(|items| model.item_block_stats(&self.layout, items))
            .collect();
        CatalogIndex {
            model,
            layout: self.layout,
            block: self.block,
            order: self.order.clone(),
            stats,
            lin_item,
        }
    }

    /// Always 0 — no rebuild reuses a block's envelope. Kept only because
    /// `benchmark/src/online.rs` (its one caller) reads it, until the repo
    /// benchmark's `retrieval.delta_reused_share` is retired in its own PR.
    pub fn delta_reused_blocks(&self) -> usize {
        0
    }

    /// The item ids making up block `bi`, in scoring order.
    fn block_items(&self, bi: usize) -> &[u32] {
        let lo = bi * self.block;
        let hi = (lo + self.block).min(self.order.len());
        &self.order[lo..hi]
    }

    /// The model this index scores with.
    pub fn model(&self) -> &Arc<FrozenSeqFm> {
        &self.model
    }

    /// The feature layout the catalog was blocked under.
    pub fn layout(&self) -> &FeatureLayout {
        &self.layout
    }

    /// Catalog size.
    pub fn n_items(&self) -> usize {
        self.layout.n_items
    }

    /// Configured block size.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of catalog blocks.
    pub fn n_blocks(&self) -> usize {
        self.stats.len()
    }

    /// The precomputed static linear partial score of `item`.
    pub fn item_linear(&self, item: u32) -> f32 {
        self.lin_item[item as usize]
    }

    fn validate(&self, user: u32, view: &HistoryView, k: usize) -> Result<usize, RetrievalError> {
        if k == 0 {
            return Err(RetrievalError::BadConfig {
                reason: "k == 0 retrieves nothing; request at least one item".into(),
            });
        }
        if user as usize >= self.layout.n_users {
            return Err(RetrievalError::BadConfig {
                reason: format!("user {user} outside layout ({} users)", self.layout.n_users),
            });
        }
        if view.nd() == 0 {
            return Err(RetrievalError::BadConfig {
                reason: "history view covers an empty window; build it over max_seq slots".into(),
            });
        }
        // k >= catalog size degrades to "return every item, sorted".
        Ok(k.min(self.layout.n_items))
    }

    /// Scores block `bi` into `slot` and offers every logit to the slot's
    /// top-K shard.
    fn score_block(&self, user: u32, view: &HistoryView, bi: usize, slot: &mut Slot) {
        let items = self.block_items(bi);
        slot.items_scored += items.len();
        slot.out.clear();
        self.model.score_catalog_into(
            &self.layout,
            user,
            items,
            view,
            &mut slot.batch,
            &mut slot.scratch,
            &mut slot.out,
        );
        for (&item, &score) in items.iter().zip(&slot.out) {
            slot.top.push(ScoredItem { item, score });
        }
    }

    /// Full catalog scan on the global thread pool. See
    /// [`CatalogIndex::retrieve_brute_in`].
    ///
    /// # Errors
    /// [`RetrievalError::BadConfig`] for `k == 0`, an unknown user, or an
    /// empty history view.
    pub fn retrieve_brute(
        &self,
        user: u32,
        view: &HistoryView,
        k: usize,
    ) -> Result<Retrieval, RetrievalError> {
        self.retrieve_brute_in(user, view, k, global())
    }

    /// Scores **every** catalog block (no pruning): contiguous block spans
    /// are scanned by per-worker shards, each keeping a bounded top-K, and
    /// the shard heaps are merged deterministically — the reference the
    /// pruned path must match bit-for-bit.
    ///
    /// # Errors
    /// [`RetrievalError::BadConfig`] for `k == 0`, an unknown user, or an
    /// empty history view.
    pub fn retrieve_brute_in(
        &self,
        user: u32,
        view: &HistoryView,
        k: usize,
        pool: &ThreadPool,
    ) -> Result<Retrieval, RetrievalError> {
        let k_eff = self.validate(user, view, k)?;
        let n_blocks = self.stats.len();
        let workers = pool.workers().min(n_blocks).max(1);
        let mut slots: Vec<Slot> = (0..workers).map(|_| Slot::new(k_eff)).collect();
        let spans = partition(n_blocks, workers);
        par_units(pool, [&mut slots], [1], |first, [chunk]| {
            for (s, slot) in chunk.iter_mut().enumerate() {
                for bi in spans[first + s].clone() {
                    self.score_block(user, view, bi, slot);
                }
            }
        });
        let mut top = TopK::new(k_eff);
        let mut items_scored = 0;
        for slot in &mut slots {
            items_scored += slot.items_scored;
            top.absorb(&mut slot.top);
        }
        Ok(Retrieval {
            items: top.into_sorted(),
            blocks_scored: n_blocks,
            blocks_pruned: 0,
            items_scored,
            blocks_repaired: 0,
        })
    }

    /// Pruned retrieval on the global thread pool. See
    /// [`CatalogIndex::retrieve_in`].
    ///
    /// # Errors
    /// [`RetrievalError::BadConfig`] for `k == 0`, an unknown user, or an
    /// empty history view.
    pub fn retrieve(
        &self,
        user: u32,
        view: &HistoryView,
        k: usize,
    ) -> Result<Retrieval, RetrievalError> {
        self.retrieve_in(user, view, k, global())
    }

    /// Exact top-K by one bound-ordered pass: blocks are visited in
    /// descending order of their sound upper bound, in waves of one block
    /// per worker, and the scan stops at the first block whose bound falls
    /// **strictly** below the running k-th best score — bounds only descend
    /// from there and the threshold only rises, so the whole tail provably
    /// holds no member of the final top-K. The threshold is frozen per wave,
    /// which makes the set of scored blocks — not just the result — a
    /// function of `(index, view, k, workers)` alone.
    ///
    /// The result is **exactly** the brute-force top-K, bit-identical ids and
    /// logits, at any worker count. How much is skipped depends on how far
    /// the bounds spread: a flat catalog prunes nothing and degrades to the
    /// brute scan plus one bound pass.
    ///
    /// # Errors
    /// [`RetrievalError::BadConfig`] for `k == 0`, an unknown user, or an
    /// empty history view.
    pub fn retrieve_in(
        &self,
        user: u32,
        view: &HistoryView,
        k: usize,
        pool: &ThreadPool,
    ) -> Result<Retrieval, RetrievalError> {
        let k_eff = self.validate(user, view, k)?;
        let q = self.model.query_bounds(&self.layout, user, view);
        // (block, bound), best bound first; index breaks bound ties so the
        // visit order is deterministic. A NaN bound (degenerate parameters)
        // maps to +inf: an unbounded block sorts first and can never be
        // pruned — NaN disables pruning, soundly.
        let mut order: Vec<(usize, f32)> = self
            .stats
            .iter()
            .enumerate()
            .map(|(bi, st)| {
                let b = self.model.block_upper_bound(&q, st);
                (bi, if b.is_nan() { f32::INFINITY } else { b })
            })
            .collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        let n_blocks = order.len();
        let workers = pool.workers().min(n_blocks).max(1);
        let mut slots: Vec<Slot> = (0..workers).map(|_| Slot::new(k_eff)).collect();
        let mut top = TopK::new(k_eff);
        let mut pos = 0usize;
        while pos < n_blocks {
            let mut wave = &order[pos..(pos + workers).min(n_blocks)];
            // The threshold is frozen per wave. A NaN threshold (fewer than k
            // real scores so far) compares false and prunes nothing.
            if let Some(thr) = top.threshold() {
                if let Some(cut) = wave.iter().position(|&(_, bound)| bound < thr) {
                    wave = &wave[..cut];
                }
            }
            if wave.is_empty() {
                break;
            }
            par_units(pool, [&mut slots[..wave.len()]], [1], |first, [chunk]| {
                for (s, slot) in chunk.iter_mut().enumerate() {
                    self.score_block(user, view, wave[first + s].0, slot);
                }
            });
            for slot in &mut slots[..wave.len()] {
                top.absorb(&mut slot.top);
            }
            pos += wave.len();
        }
        Ok(Retrieval {
            items: top.into_sorted(),
            blocks_scored: pos,
            blocks_pruned: n_blocks - pos,
            items_scored: slots.iter().map(|slot| slot.items_scored).sum(),
            blocks_repaired: 0,
        })
    }
}
