//! The inference half of the train/serve API split.
//!
//! Training builds autograd tapes through [`SeqModel::forward`]; serving
//! goes through [`Scorer`], which is graph-free by contract: `score` takes
//! `&self` (so one model can be shared across threads), is deterministic
//! (dropout and every other stochastic regulariser off), and writes into a
//! caller-owned [`Scratch`] so the hot path performs no per-request
//! allocations once the workspace is warm.
//!
//! Two implementations ship here and in [`crate::frozen`]:
//!
//! * [`crate::FrozenSeqFm`] — SeqFM's forward pass rewritten as straight-line
//!   tensor kernel calls over an immutable parameter snapshot (the fast
//!   path);
//! * [`GraphScorer`] — an adapter that serves **any** [`SeqModel`] by
//!   building a tape per call (the compatibility path; every baseline in
//!   `seqfm-baselines` serves through it). The tape is *reused*: it lives
//!   in the [`Scratch`] and is [`reset`](seqfm_autograd::Graph::reset)
//!   between calls, so even the compatibility path stops allocating once
//!   its buffer pool is warm.

use crate::view::HistoryView;
use crate::SeqModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::{Graph, ModelEpoch, ParamStore};
use seqfm_data::Batch;
use seqfm_tensor::Workspace;

/// Maps a batch of (static features, dynamic sequence) instances to one
/// score per instance without touching an autograd graph.
///
/// Implementations must be deterministic and must not mutate shared state —
/// all per-call workspace lives in the [`Scratch`]. The returned slice
/// borrows from `scratch` and holds `batch.len` scores.
pub trait Scorer {
    /// Model display name (used in serving logs and benches).
    fn name(&self) -> &str;

    /// The [`ModelEpoch`] of the parameters this scorer serves — the model
    /// identity epoch-aware caches key on, so that a view built under one
    /// published model revision is never replayed under another after a
    /// hot swap. Scorers without versioned parameters (stubs, graph
    /// adapters, offline freezes) live in a single-epoch world and keep the
    /// default [`ModelEpoch::ZERO`].
    fn model_epoch(&self) -> ModelEpoch {
        ModelEpoch::ZERO
    }

    /// Scores every instance of `batch`, returning `batch.len` scores that
    /// live inside `scratch`.
    fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32];

    /// Scores `batch` and **appends** the `batch.len` scores to `out`
    /// instead of borrowing them out of `scratch`.
    ///
    /// This is the out-buffer hook batch-coalescing servers build on: one
    /// caller-owned accumulator collects the scores of several groups
    /// scored back to back, each [`Scorer::score`] call reusing the same
    /// `scratch`, with no per-group allocation once both are warm. The
    /// default implementation delegates to [`Scorer::score`] and copies;
    /// implementations whose kernels can write straight into `out` may
    /// override it.
    fn score_into(&self, batch: &Batch, scratch: &mut Scratch, out: &mut Vec<f32>) {
        let scores = self.score(batch, scratch);
        out.extend_from_slice(scores);
    }

    /// Whether this scorer can split its forward pass into cacheable
    /// history-side work ([`HistoryView`]) and per-candidate work.
    ///
    /// `false` (the default) tells stateful serving layers not to bother
    /// building or caching views for this scorer — [`GraphScorer`] and other
    /// compatibility paths recompute everything per call.
    fn supports_history_view(&self) -> bool {
        false
    }

    /// Precomputes the history-side intermediates for one left-padded
    /// dynamic index row (`dyn_row`, as a candidate-expansion batch would
    /// carry in every row), for later reuse via
    /// [`Scorer::score_with_view_into`].
    ///
    /// Returns `None` when the scorer does not support views (the default);
    /// a `Some` view scores **bit-identically** to recomputing from
    /// `dyn_row` — that is the contract caching layers rely on.
    fn build_history_view(&self, dyn_row: &[i64], scratch: &mut Scratch) -> Option<HistoryView> {
        let _ = (dyn_row, scratch);
        None
    }

    /// Scores a candidate-expansion batch whose every row carries the
    /// dynamic block `view` was built from, reusing the view's cached
    /// history-side work, and **appends** the `batch.len` scores to `out`.
    ///
    /// The default implementation ignores the view and recomputes through
    /// [`Scorer::score_into`] — still correct (view-based scoring is
    /// bit-identical by contract), just without the saving. Implementations
    /// overriding this must reject a view whose
    /// [`dyn_idx`](HistoryView::dyn_idx) does not match the batch rather
    /// than serve stale history.
    fn score_with_view_into(
        &self,
        batch: &Batch,
        view: &HistoryView,
        scratch: &mut Scratch,
        out: &mut Vec<f32>,
    ) {
        let _ = view;
        self.score_into(batch, scratch, out);
    }
}

/// Reusable per-thread scoring workspace.
///
/// One `Scratch` belongs to exactly one serving thread. It owns a
/// [`Workspace`] arena that hands the frozen forward pass its view buffers
/// (embeddings, Q/K/V, attention scores, pooling and FFN temporaries) as
/// RAII scopes sized exactly per call, the [`HistoryView`] an uncached
/// forward builds in place and scores against (a caller-lent view leaves it
/// untouched), plus the reused autograd tape of the [`GraphScorer`]
/// compatibility path. Every buffer grows to the high-water mark of the
/// batches it has seen, after which [`Scorer::score`] calls allocate
/// nothing — a property pinned down by a counting-allocator test
/// (`tests/score_zero_alloc.rs`).
pub struct Scratch {
    /// RNG handed to `SeqModel::forward` by [`GraphScorer`]. Inference
    /// forwards are deterministic by contract, so its state never influences
    /// scores.
    pub(crate) rng: StdRng,
    /// Final scores, `[batch.len]` — the buffer the returned slice borrows.
    pub(crate) out: Vec<f32>,
    /// Arena for the frozen forward's kernel temporaries.
    pub(crate) ws: Workspace,
    /// Reused tape for [`GraphScorer`]; reset between calls.
    pub(crate) graph: Graph,
    /// The history side of an uncached frozen forward, rebuilt in place by
    /// every such call (its buffers keep their capacity between calls).
    pub(crate) view: HistoryView,
}

impl Scratch {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Scratch {
            rng: StdRng::seed_from_u64(0),
            out: Vec::new(),
            ws: Workspace::new(),
            graph: Graph::new(),
            view: HistoryView::default(),
        }
    }

    /// Copies `scores` into the workspace's score buffer and hands back the
    /// borrow — the ergonomic way for a custom [`Scorer`] (a stub, a proxy,
    /// a remote-call adapter) to satisfy the "returned scores live inside
    /// `scratch`" contract without access to the private buffers.
    pub fn publish_scores(&mut self, scores: &[f32]) -> &[f32] {
        self.out.clear();
        self.out.extend_from_slice(scores);
        &self.out
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Serves any [`SeqModel`] through the [`Scorer`] interface by building a
/// tape per call (`training = false`) on the scratch's reused graph.
///
/// This is the compatibility adapter: it keeps every baseline servable while
/// paying the full tape cost per request, and it is the reference the
/// graph-free [`crate::FrozenSeqFm`] is benchmarked against.
pub struct GraphScorer<M: SeqModel> {
    model: M,
    ps: ParamStore,
}

impl<M: SeqModel> GraphScorer<M> {
    /// Wraps a model and its trained parameters.
    pub fn new(model: M, ps: ParamStore) -> Self {
        GraphScorer { model, ps }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The wrapped parameters.
    pub fn params(&self) -> &ParamStore {
        &self.ps
    }
}

impl<M: SeqModel> Scorer for GraphScorer<M> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32] {
        scratch.graph.reset();
        let y = self.model.forward(&mut scratch.graph, &self.ps, batch, false, &mut scratch.rng);
        let data = scratch.graph.value(y).data();
        scratch.out.clear();
        scratch.out.extend_from_slice(data);
        &scratch.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeqFm, SeqFmConfig};
    use seqfm_data::{build_instance, FeatureLayout};

    fn setup() -> (GraphScorer<SeqFm>, Batch) {
        let layout = FeatureLayout { n_users: 5, n_items: 9 };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
        let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
        let batch = Batch::try_from_instances(&[
            build_instance(&layout, 0, 2, &[1, 3], 6, 1.0),
            build_instance(&layout, 4, 8, &[0, 5, 7, 2], 6, 0.0),
        ])
        .expect("valid batch");
        (GraphScorer::new(model, ps), batch)
    }

    #[test]
    fn graph_scorer_matches_forward_exactly() {
        let (scorer, batch) = setup();
        let mut scratch = Scratch::new();
        let served = scorer.score(&batch, &mut scratch).to_vec();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(99);
        let y = scorer.model().forward(&mut g, scorer.params(), &batch, false, &mut rng);
        assert_eq!(served, g.value(y).data());
        assert_eq!(scorer.name(), "SeqFM");
    }

    #[test]
    fn scratch_is_reusable_across_batches() {
        let (scorer, batch) = setup();
        let mut scratch = Scratch::new();
        let first = scorer.score(&batch, &mut scratch).to_vec();
        let again = scorer.score(&batch, &mut scratch).to_vec();
        assert_eq!(first, again, "scoring must be deterministic");
    }

    #[test]
    fn score_into_appends_and_matches_score() {
        let (scorer, batch) = setup();
        let mut scratch = Scratch::new();
        let direct = scorer.score(&batch, &mut scratch).to_vec();
        // Accumulate two back-to-back scoring rounds into one buffer — the
        // coalescing-server usage pattern.
        let mut acc = vec![-1.0f32];
        scorer.score_into(&batch, &mut scratch, &mut acc);
        scorer.score_into(&batch, &mut scratch, &mut acc);
        assert_eq!(acc.len(), 1 + 2 * batch.len);
        assert_eq!(acc[0], -1.0, "existing contents must be preserved");
        assert_eq!(&acc[1..1 + batch.len], &direct[..]);
        assert_eq!(&acc[1 + batch.len..], &direct[..]);
    }

    /// A stub scorer built on `publish_scores` — the supported way for
    /// out-of-crate `Scorer` impls to return fabricated scores.
    struct Fixed(Vec<f32>);

    impl Scorer for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32] {
            scratch.publish_scores(&self.0[..batch.len])
        }
    }

    #[test]
    fn publish_scores_supports_external_scorer_impls() {
        let (_, batch) = setup();
        let stub = Fixed(vec![0.5, -2.0]);
        let mut scratch = Scratch::new();
        assert_eq!(stub.score(&batch, &mut scratch), &[0.5, -2.0]);
        let mut acc = Vec::new();
        stub.score_into(&batch, &mut scratch, &mut acc);
        assert_eq!(acc, vec![0.5, -2.0]);
    }

    #[test]
    fn graph_scorer_reused_tape_is_deterministic_and_allocation_free() {
        let (scorer, batch) = setup();
        let mut scratch = Scratch::new();
        let want = scorer.score(&batch, &mut scratch).to_vec();
        // Warm the tape's buffer pool, then assert flat heap traffic.
        for _ in 0..3 {
            scorer.score(&batch, &mut scratch);
        }
        let warm = scratch.graph.workspace().heap_events();
        for _ in 0..10 {
            assert_eq!(scorer.score(&batch, &mut scratch), &want[..]);
        }
        assert_eq!(
            scratch.graph.workspace().heap_events(),
            warm,
            "warm graph-scorer calls must not grow the tape pool"
        );
    }
}
