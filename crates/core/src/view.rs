//! The history side of a frozen forward pass: [`HistoryView`].
//!
//! SeqFM's split structure makes the user's sequence the object everything
//! else is organised around: everything the frozen forward derives from the
//! dynamic block *alone* — the dynamic view's pooled representation, the
//! cross view's history-row Q/K/V projections, the dynamic linear term — is
//! independent of the candidates being scored (paper Eq. 11–14). A
//! [`HistoryView`] is the output of the forward's own history stage
//! (`FrozenSeqFm::build_history`, the only code that computes any of it)
//! run on one history. An uncached forward rebuilds the view its
//! [`Scratch`](crate::Scratch) owns once per run of batch rows that share a
//! history and scores that run against it; a stateful serving layer builds
//! a view **once per history version** and lends it to many requests
//! instead.
//!
//! Cacheable views are produced by
//! [`Scorer::build_history_view`](crate::Scorer::build_history_view) and
//! consumed by
//! [`Scorer::score_with_view_into`](crate::Scorer::score_with_view_into);
//! for [`FrozenSeqFm`](crate::FrozenSeqFm) a lent view and a built one come
//! out of the same stage, so view-based scoring is **bit-identical** to
//! scoring the same history inline.

/// The frozen forward's history-side intermediates for one dynamic
/// sequence, left-padded to the serving window.
///
/// A view is tied to the exact padded index row it was built from
/// ([`HistoryView::dyn_idx`]); scoring it against a batch with a different
/// dynamic block is a serving-layer bug and is rejected loudly rather than
/// silently producing stale scores.
///
/// Depending on the model's ablation switches some fields may be empty
/// (e.g. no `dyn_pooled` without the dynamic view); the scorer that built
/// the view knows which parts it filled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistoryView {
    /// The left-padded dynamic index row this view was built from.
    pub(crate) dyn_idx: Vec<i64>,
    /// Width of the dynamic window (`nd`).
    pub(crate) nd: usize,
    /// Embedding width the view was built at.
    pub(crate) d: usize,
    /// Dynamic-side linear term Σ w˙\[i\] over the non-pad history items.
    pub(crate) lin_d: f32,
    /// Pooled output of the dynamic view's attention + FFN stack, `[d]`
    /// (empty when the dynamic view is ablated away).
    pub(crate) dyn_pooled: Vec<f32>,
    /// Cross-view Q projections of the history rows, `[nd, d]` row-major
    /// (empty when the cross view is ablated away).
    pub(crate) hist_q: Vec<f32>,
    /// Cross-view K projections of the history rows, `[nd, d]`.
    pub(crate) hist_k: Vec<f32>,
    /// Cross-view V projections of the history rows, `[nd, d]`.
    pub(crate) hist_v: Vec<f32>,
}

impl HistoryView {
    /// The padded dynamic index row this view was built from.
    pub fn dyn_idx(&self) -> &[i64] {
        &self.dyn_idx
    }

    /// Width of the dynamic window (`nd`) the view covers.
    pub fn nd(&self) -> usize {
        self.nd
    }
}
