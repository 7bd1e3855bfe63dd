//! Typed score requests, candidate expansion, top-K ranking — and the
//! coalesced multi-request scoring path the batching engine is built on.
//!
//! Since the stateful-serving redesign a request names its history through
//! a [`HistorySource`]: carried inline (the classic shape) or resolved
//! from the engine's [`HistoryStore`](crate::HistoryStore) (`(user,
//! candidates)` requests). The coalescer groups requests by **canonical
//! history content alone** — not `(user, history)` — so identical
//! trending/anonymous traffic coalesces *across users*, bit-identically to
//! serial scoring.

use crate::error::ServeError;
use crate::store::HistoryBackend;
use seqfm_core::{HistoryView, ModelEpoch, Scorer, Scratch};
use seqfm_data::{Batch, FeatureLayout, PAD};
use std::sync::Arc;

/// Where a request's interaction history comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistorySource {
    /// The request carries its own history, chronological, oldest first.
    /// May be empty (cold start): the dynamic block is then all padding.
    /// `Vec<u32>` converts [`Into`] this variant, so existing literals
    /// migrate as `history: vec![1, 2].into()`.
    Inline(Vec<u32>),
    /// The engine resolves the history from its
    /// [`HistoryStore`](crate::HistoryStore) — the request is just
    /// `(user, candidates)`, and appends via
    /// [`Engine::append_event`](crate::Engine::append_event) keep the
    /// stored sequence current between requests.
    Stored,
}

impl Default for HistorySource {
    fn default() -> Self {
        HistorySource::Inline(Vec::new())
    }
}

impl From<Vec<u32>> for HistorySource {
    fn from(history: Vec<u32>) -> Self {
        HistorySource::Inline(history)
    }
}

impl From<&[u32]> for HistorySource {
    fn from(history: &[u32]) -> Self {
        HistorySource::Inline(history.to_vec())
    }
}

/// "Score these candidate items for this user" — the canonical serving
/// request of a sequence-aware recommender, with the history either
/// attached ([`HistorySource::Inline`]) or owned by the engine
/// ([`HistorySource::Stored`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScoreRequest {
    /// User id in `0..n_users`.
    pub user: u32,
    /// Where the user's interaction history comes from.
    pub history: HistorySource,
    /// Candidate items to score, each in `0..n_items`.
    pub candidates: Vec<u32>,
}

impl ScoreRequest {
    /// A request carrying its own history (the pre-store request shape).
    pub fn inline(
        user: u32,
        history: impl Into<Vec<u32>>,
        candidates: impl Into<Vec<u32>>,
    ) -> Self {
        ScoreRequest {
            user,
            history: HistorySource::Inline(history.into()),
            candidates: candidates.into(),
        }
    }

    /// A `(user, candidates)` request whose history lives in the engine's
    /// [`HistoryStore`](crate::HistoryStore).
    pub fn stored(user: u32, candidates: impl Into<Vec<u32>>) -> Self {
        ScoreRequest { user, history: HistorySource::Stored, candidates: candidates.into() }
    }

    /// The inline history, if this request carries one.
    pub fn inline_history(&self) -> Option<&[u32]> {
        match &self.history {
            HistorySource::Inline(h) => Some(h),
            HistorySource::Stored => None,
        }
    }
}

/// One candidate with its model score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredCandidate {
    /// Item id.
    pub item: u32,
    /// Raw model logit (higher = more likely to interact).
    pub score: f32,
}

/// Candidates ranked by descending score, truncated to the engine's top-K.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreResponse {
    /// Best-first candidates. Ties keep request order (stable sort); NaN
    /// scores rank strictly last.
    pub ranked: Vec<ScoredCandidate>,
    /// The [`ModelEpoch`] of the scorer that produced these logits. Under
    /// online learning a request races model publishes; this stamp names the
    /// revision the whole response was scored under (a coalesced super-batch
    /// never mixes epochs), so re-scoring the request against that pinned
    /// revision reproduces every bit.
    pub epoch: ModelEpoch,
}

impl ScoreResponse {
    /// The highest-scoring candidate.
    pub fn best(&self) -> Option<ScoredCandidate> {
        self.ranked.first().copied()
    }
}

/// The most recent `max_seq` items of a history — the window that actually
/// enters the dynamic block. Two requests with equal canonical windows
/// expand to identical dynamic rows and can share one super-batch.
fn effective_window(history: &[u32], max_seq: usize) -> &[u32] {
    let take = history.len().min(max_seq);
    &history[history.len() - take..]
}

/// Appends `history`'s canonical dynamic row to `row`: `max_seq` slots, the
/// [`effective_window`] left-padded with [`PAD`] — the one row the scoring
/// path and `Engine::retrieve_top_k` both key and build history views from.
pub(crate) fn push_canonical_row(history: &[u32], max_seq: usize, row: &mut Vec<i64>) {
    let window = effective_window(history, max_seq);
    row.resize(row.len() + max_seq - window.len(), PAD);
    row.extend(window.iter().map(|&it| it as i64));
}

/// Per-request outcome of history resolution: where the canonical window
/// sits in [`CoalesceScratch::hist_buf`], plus (for stored requests) the
/// cache identity and any cached view found for it.
#[derive(Default)]
struct ResolvedSlot {
    start: usize,
    end: usize,
    /// Cached history-side panel, when the view cache held a current one.
    view: Option<Arc<HistoryView>>,
    /// `(user, version)` under which a freshly built view may be cached
    /// (the model-epoch half of the cache key is uniform across the drain —
    /// one scorer scores the whole super-batch).
    cache_key: Option<(u32, u64)>,
}

/// Shape/range checks shared by every path, in the fixed error order the
/// tests pin: window config, candidates present, user known, items known.
fn validate_common(
    req: &ScoreRequest,
    layout: &FeatureLayout,
    max_seq: usize,
) -> Result<(), ServeError> {
    if max_seq == 0 {
        return Err(ServeError::BadConfig {
            reason: "max_seq must be >= 1 (a zero-width dynamic block cannot be scored)".into(),
        });
    }
    if req.candidates.is_empty() {
        return Err(ServeError::NoCandidates);
    }
    if req.user as usize >= layout.n_users {
        return Err(ServeError::UnknownUser { user: req.user, n_users: layout.n_users });
    }
    let inline = req.inline_history().unwrap_or(&[]);
    for &item in inline.iter().chain(&req.candidates) {
        if item as usize >= layout.n_items {
            return Err(ServeError::UnknownItem { item, n_items: layout.n_items });
        }
    }
    Ok(())
}

/// Validates `req` and appends its canonical history window to `hist_buf`,
/// resolving [`HistorySource::Stored`] through `backend` (snapshot under
/// one shard read lock + versioned view-cache lookup).
#[allow(clippy::too_many_arguments)]
fn resolve_request(
    req: &ScoreRequest,
    layout: &FeatureLayout,
    max_seq: usize,
    backend: Option<&HistoryBackend<'_>>,
    epoch: ModelEpoch,
    snap_buf: &mut Vec<u32>,
    hist_buf: &mut Vec<u32>,
    slot: &mut ResolvedSlot,
) -> Result<(), ServeError> {
    validate_common(req, layout, max_seq)?;
    match &req.history {
        HistorySource::Inline(h) => {
            hist_buf.extend_from_slice(effective_window(h, max_seq));
        }
        HistorySource::Stored => {
            let Some(be) = backend else {
                return Err(ServeError::NoHistoryStore);
            };
            // Store items were validated on append; the snapshot and its
            // version are atomic w.r.t. concurrent appends.
            let version = be.store.snapshot_into(req.user, snap_buf);
            hist_buf.extend_from_slice(effective_window(snap_buf, max_seq));
            slot.cache_key = Some((req.user, version));
            if let Some(cache) = be.cache {
                slot.view = cache.get(req.user, version, epoch);
            }
        }
    }
    Ok(())
}

/// Writes the candidate-expansion rows of `group` (indices into `reqs`,
/// all sharing the canonical window `hist`) into `batch`, reusing its
/// buffers. Row layout is identical to [`expand_request`]'s: every row
/// carries `[user, candidate]` static features and the shared left-padded
/// history.
fn expand_group_into_impl<R: std::borrow::Borrow<ScoreRequest>>(
    reqs: &[R],
    group: &[usize],
    hist: &[u32],
    layout: &FeatureLayout,
    max_seq: usize,
    batch: &mut Batch,
) {
    let total: usize = group.iter().map(|&i| reqs[i].borrow().candidates.len()).sum();
    batch.len = total;
    batch.n_static = 2;
    batch.n_dynamic = max_seq;
    batch.static_idx.clear();
    batch.static_idx.reserve(total * 2);
    for &i in group {
        let req = reqs[i].borrow();
        let user_feat = layout.user_feature(req.user);
        for &cand in &req.candidates {
            batch.static_idx.push(user_feat);
            batch.static_idx.push(layout.item_feature(cand));
        }
    }
    // The shared dynamic block: built once, then repeated per row with a
    // buffer-internal copy (no scratch allocation).
    batch.dyn_idx.clear();
    batch.dyn_idx.reserve(total * max_seq);
    push_canonical_row(hist, max_seq, &mut batch.dyn_idx);
    for _ in 1..total {
        batch.dyn_idx.extend_from_within(0..max_seq);
    }
    batch.targets.clear();
    batch.targets.resize(total, 0.0);
}

/// The candidate-expansion layer: turns one request into a scoring batch of
/// `candidates.len()` rows that all share the user and history features and
/// differ only in the candidate column — the layout every caching/batching
/// optimisation builds on.
///
/// # Errors
/// [`ServeError::BadConfig`] (for `max_seq == 0`),
/// [`ServeError::NoCandidates`], [`ServeError::UnknownUser`],
/// [`ServeError::UnknownItem`] when the request does not fit the layout, or
/// [`ServeError::NoHistoryStore`] for a [`HistorySource::Stored`] request
/// (this store-less helper cannot resolve it — use the
/// [`Engine`](crate::Engine)).
pub fn expand_request(
    req: &ScoreRequest,
    layout: &FeatureLayout,
    max_seq: usize,
) -> Result<Batch, ServeError> {
    validate_common(req, layout, max_seq)?;
    let Some(history) = req.inline_history() else {
        return Err(ServeError::NoHistoryStore);
    };
    let mut batch = Batch {
        len: 0,
        n_static: 2,
        n_dynamic: max_seq,
        static_idx: Vec::new(),
        dyn_idx: Vec::new(),
        targets: Vec::new(),
    };
    expand_group_into_impl(
        &[req],
        &[0],
        effective_window(history, max_seq),
        layout,
        max_seq,
        &mut batch,
    );
    Ok(batch)
}

/// Ranks `candidates` by descending score. The sort is total
/// (`f32::total_cmp`) with NaN logits pinned strictly last, so a numerical
/// blow-up in one candidate's score cannot scramble the rest of the
/// ranking — and the result is deterministic for any input. Ties keep
/// request order (stable sort). `top_k == 0` keeps everything.
fn rank_candidates(candidates: &[u32], scores: &[f32], top_k: usize) -> Vec<ScoredCandidate> {
    let mut ranked: Vec<ScoredCandidate> = candidates
        .iter()
        .zip(scores)
        .map(|(&item, &score)| ScoredCandidate { item, score })
        .collect();
    ranked.sort_by(|a, b| match (a.score.is_nan(), b.score.is_nan()) {
        (false, false) => b.score.total_cmp(&a.score),
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
    });
    if top_k > 0 {
        ranked.truncate(top_k);
    }
    ranked
}

/// Serves one request synchronously: expand, score, rank, truncate.
///
/// `top_k == 0` returns every candidate ranked. Calling it directly (with a
/// caller-owned [`Scratch`]) is the single-threaded serving path; the
/// [`Engine`](crate::Engine) workers run the coalesced sibling
/// [`score_requests`], which is bit-identical per request.
///
/// # Errors
/// See [`expand_request`].
pub fn score_request<S: Scorer + ?Sized>(
    scorer: &S,
    layout: &FeatureLayout,
    max_seq: usize,
    top_k: usize,
    req: &ScoreRequest,
    scratch: &mut Scratch,
) -> Result<ScoreResponse, ServeError> {
    let batch = expand_request(req, layout, max_seq)?;
    let scores = scorer.score(&batch, scratch);
    Ok(ScoreResponse {
        ranked: rank_candidates(&req.candidates, scores, top_k),
        epoch: scorer.model_epoch(),
    })
}

/// Reusable buffers of the coalesced scoring path: group index lists,
/// resolved canonical histories, the expansion batch, the score
/// accumulator, and the per-request result staging area. One
/// `CoalesceScratch` belongs to one engine worker (or any other caller of
/// [`score_requests_with`]); after a few drains every buffer has grown to
/// its high-water mark and the grouping/expansion machinery performs no
/// further heap allocation.
pub struct CoalesceScratch {
    /// Active groups (indices into the current request slice).
    groups: Vec<Vec<usize>>,
    /// Parked group index lists awaiting reuse.
    spare_groups: Vec<Vec<usize>>,
    /// Result staging, index-aligned with the request slice.
    slots: Vec<Option<Result<ScoreResponse, ServeError>>>,
    /// Per-request resolution results, index-aligned with the request
    /// slice.
    resolved: Vec<ResolvedSlot>,
    /// Concatenated canonical history windows (sliced by `resolved`).
    hist_buf: Vec<u32>,
    /// Store snapshot staging for stored-history resolution.
    snap_buf: Vec<u32>,
    /// Reused candidate-expansion batch.
    batch: Batch,
    /// Reused per-group score accumulator.
    scores: Vec<f32>,
}

impl Default for CoalesceScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl CoalesceScratch {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        CoalesceScratch {
            groups: Vec::new(),
            spare_groups: Vec::new(),
            slots: Vec::new(),
            resolved: Vec::new(),
            hist_buf: Vec::new(),
            snap_buf: Vec::new(),
            batch: Batch {
                len: 0,
                n_static: 2,
                n_dynamic: 0,
                static_idx: Vec::new(),
                dyn_idx: Vec::new(),
                targets: Vec::new(),
            },
            scores: Vec::new(),
        }
    }

    /// Parks every active group list for reuse and clears the staging area.
    fn reset(&mut self, n: usize) {
        for mut g in self.groups.drain(..) {
            g.clear();
            self.spare_groups.push(g);
        }
        self.slots.clear();
        self.slots.resize_with(n, || None);
        self.resolved.clear();
        self.hist_buf.clear();
    }
}

/// Serves many requests as coalesced super-batches: requests with the same
/// **canonical history window** — regardless of user — are grouped and
/// scored through **one** batch whose rows all share the dynamic block —
/// the candidate-expansion shape, for which the frozen scorer's history
/// side holds a single row — now shared *across* requests and *across
/// users* instead of only within one request.
///
/// Grouping is by first occurrence, scores are split back per request, and
/// each response is ranked exactly like [`score_request`] — per-request
/// results are **bit-identical** to the serial path (per-row arithmetic is
/// untouched; sharing a history row is itself bit-exact, and the user only
/// enters through each row's own static features). Invalid requests get
/// their own [`ServeError`] without poisoning the rest. The returned
/// vector is index-aligned with `reqs`.
///
/// This is a convenience wrapper over [`score_requests_with`] that builds
/// throwaway buffers; repeat callers (the engine's workers) hold a
/// [`CoalesceScratch`] instead. [`HistorySource::Stored`] requests error
/// with [`ServeError::NoHistoryStore`] here — resolution needs a store,
/// which the [`Engine`](crate::Engine) owns
/// (or pass a [`HistoryBackend`] to [`score_requests_stateful`]).
pub fn score_requests<S: Scorer + ?Sized>(
    scorer: &S,
    layout: &FeatureLayout,
    max_seq: usize,
    top_k: usize,
    reqs: &[&ScoreRequest],
    scratch: &mut Scratch,
) -> Vec<Result<ScoreResponse, ServeError>> {
    let mut cs = CoalesceScratch::new();
    let mut out = Vec::with_capacity(reqs.len());
    score_requests_with(scorer, layout, max_seq, top_k, reqs, scratch, &mut cs, &mut out);
    out
}

/// [`score_requests`] over caller-owned buffers: the grouping lists, the
/// expansion batch, and the score accumulator all live in `cs` and are
/// reused across calls; results are appended to `out` (cleared first),
/// index-aligned with `reqs`. `reqs` may hold requests by value or by
/// reference — the engine's workers hand over drained requests directly
/// without building a reference side-array per wakeup.
#[allow(clippy::too_many_arguments)]
pub fn score_requests_with<S: Scorer + ?Sized, R: std::borrow::Borrow<ScoreRequest>>(
    scorer: &S,
    layout: &FeatureLayout,
    max_seq: usize,
    top_k: usize,
    reqs: &[R],
    scratch: &mut Scratch,
    cs: &mut CoalesceScratch,
    out: &mut Vec<Result<ScoreResponse, ServeError>>,
) {
    score_requests_stateful(scorer, layout, max_seq, top_k, reqs, None, scratch, cs, out);
}

/// The full stateful scoring path: [`score_requests_with`] plus
/// stored-history resolution and incremental view caching through a
/// [`HistoryBackend`]. This is what [`Engine`](crate::Engine) workers run
/// per drain.
///
/// Per group (one canonical history window), the scorer's history-side
/// panel comes from, in order: a member's cached
/// [`HistoryView`](seqfm_core::HistoryView) (current-version hit), a view
/// built **once** for the group when the scorer supports it and a stored
/// member can cache it (installed for every such member), or — for purely
/// inline groups or view-less scorers — the plain scoring path. All three
/// produce bit-identical logits
/// (`score_with_view` ≡ `score`, proven at the core layer), so caching is
/// purely a throughput lever.
#[allow(clippy::too_many_arguments)]
pub fn score_requests_stateful<S: Scorer + ?Sized, R: std::borrow::Borrow<ScoreRequest>>(
    scorer: &S,
    layout: &FeatureLayout,
    max_seq: usize,
    top_k: usize,
    reqs: &[R],
    backend: Option<&HistoryBackend<'_>>,
    scratch: &mut Scratch,
    cs: &mut CoalesceScratch,
    out: &mut Vec<Result<ScoreResponse, ServeError>>,
) {
    cs.reset(reqs.len());
    // The whole drain is scored by one scorer, so one model epoch stamps
    // every cache lookup, install, and response of this call — a coalesced
    // super-batch can never mix revisions.
    let epoch = scorer.model_epoch();
    // Resolve every request to its canonical history window (validating on
    // the way), then group by window content, preserving first-occurrence
    // order. Linear key search: coalesced batches are small
    // (`coalesce_max`), so a hash map would cost more than it saves.
    let CoalesceScratch {
        groups,
        spare_groups,
        slots,
        resolved,
        hist_buf,
        snap_buf,
        batch,
        scores,
    } = cs;
    for (i, req) in reqs.iter().enumerate() {
        let req = req.borrow();
        let start = hist_buf.len();
        let mut slot = ResolvedSlot { start, end: start, ..ResolvedSlot::default() };
        match resolve_request(req, layout, max_seq, backend, epoch, snap_buf, hist_buf, &mut slot) {
            Ok(()) => {
                slot.end = hist_buf.len();
                let key = &hist_buf[slot.start..slot.end];
                match groups
                    .iter_mut()
                    .find(|g| &hist_buf[resolved[g[0]].start..resolved[g[0]].end] == key)
                {
                    Some(g) => g.push(i),
                    None => {
                        let mut g = spare_groups.pop().unwrap_or_default();
                        g.push(i);
                        groups.push(g);
                    }
                }
            }
            Err(e) => {
                hist_buf.truncate(start);
                slots[i] = Some(Err(e));
            }
        }
        resolved.push(slot);
    }

    // One reusable expansion batch + score accumulator across all groups.
    for group in groups.iter() {
        let head = &resolved[group[0]];
        expand_group_into_impl(
            reqs,
            group,
            &hist_buf[head.start..head.end],
            layout,
            max_seq,
            batch,
        );

        // The group's history-side panel: any member's cached view works
        // (the group key *is* the view's identity — history content); else
        // the one a user on the same window in an earlier drain still
        // holds; else a freshly built one. It is installed for every stored
        // member so the next request from any of them hits.
        let cache = backend.and_then(|b| b.cache);
        let mut view = group.iter().find_map(|&i| resolved[i].view.clone());
        if view.is_none() && group.iter().any(|&i| resolved[i].cache_key.is_some()) {
            let row = &batch.dyn_idx[..max_seq];
            let mut build = || scorer.build_history_view(row, scratch);
            view = match cache {
                Some(cache) => cache.shared_or_build(epoch, row, build),
                None => build().map(Arc::new),
            };
        }
        if let (Some(v), Some(cache)) = (&view, cache) {
            for &i in group.iter() {
                if resolved[i].view.is_none() {
                    if let Some((user, version)) = resolved[i].cache_key {
                        cache.insert(user, version, epoch, Arc::clone(v));
                    }
                }
            }
        }

        scores.clear();
        match &view {
            Some(v) => scorer.score_with_view_into(batch, v, scratch, scores),
            None => scorer.score_into(batch, scratch, scores),
        }
        let mut offset = 0usize;
        for &i in group.iter() {
            let req = reqs[i].borrow();
            let k = req.candidates.len();
            slots[i] = Some(Ok(ScoreResponse {
                ranked: rank_candidates(&req.candidates, &scores[offset..offset + k], top_k),
                epoch,
            }));
            offset += k;
        }
    }
    out.clear();
    out.extend(
        slots.drain(..).map(|r| {
            r.expect("every request is either rejected by validation or scored in a group")
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{HistoryStore, ViewCache};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqfm_autograd::ParamStore;
    use seqfm_core::{FrozenSeqFm, SeqFm, SeqFmConfig};

    fn layout() -> FeatureLayout {
        FeatureLayout { n_users: 4, n_items: 12 }
    }

    fn frozen(seed: u64) -> FrozenSeqFm {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SeqFmConfig { d: 8, max_seq: 5, ..Default::default() };
        let model = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
        FrozenSeqFm::freeze(&model, &ps)
    }

    #[test]
    fn expansion_shares_history_and_varies_candidates() {
        let req = ScoreRequest::inline(2, vec![1, 5, 3], vec![7, 0, 9]);
        let b = expand_request(&req, &layout(), 5).expect("valid");
        assert_eq!((b.len, b.n_static, b.n_dynamic), (3, 2, 5));
        let l = layout();
        for i in 0..3 {
            // Same user and the same left-padded history in every row.
            assert_eq!(b.static_idx[i * 2], l.user_feature(2));
            assert_eq!(b.dyn_idx[i * 5..(i + 1) * 5], [PAD, PAD, 1, 5, 3]);
            assert_eq!(b.candidate_item(&l, i), req.candidates[i]);
        }
    }

    #[test]
    fn expansion_truncates_long_histories_like_build_instance() {
        let req = ScoreRequest::inline(0, vec![0, 1, 2, 3, 4, 5], vec![1]);
        let b = expand_request(&req, &layout(), 4).expect("valid");
        let direct = Batch::try_from_instances(&[seqfm_data::build_instance(
            &layout(),
            0,
            1,
            req.inline_history().unwrap(),
            4,
            0.0,
        )])
        .expect("valid batch");
        assert_eq!(b.dyn_idx, direct.dyn_idx);
        assert_eq!(b.static_idx, direct.static_idx);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let l = layout();
        let base = ScoreRequest::inline(0, vec![], vec![1]);
        assert_eq!(
            expand_request(&ScoreRequest { candidates: vec![], ..base.clone() }, &l, 5),
            Err(ServeError::NoCandidates)
        );
        assert_eq!(
            expand_request(&ScoreRequest { user: 4, ..base.clone() }, &l, 5),
            Err(ServeError::UnknownUser { user: 4, n_users: 4 })
        );
        assert_eq!(
            expand_request(&ScoreRequest { history: vec![12].into(), ..base.clone() }, &l, 5),
            Err(ServeError::UnknownItem { item: 12, n_items: 12 })
        );
        assert_eq!(
            expand_request(&ScoreRequest { candidates: vec![1, 99], ..base }, &l, 5),
            Err(ServeError::UnknownItem { item: 99, n_items: 12 })
        );
    }

    #[test]
    fn stored_requests_error_without_a_backend() {
        let l = layout();
        let req = ScoreRequest::stored(1, vec![2, 3]);
        assert_eq!(expand_request(&req, &l, 5), Err(ServeError::NoHistoryStore));
        let mut scratch = Scratch::new();
        assert_eq!(
            score_request(&frozen(3), &l, 5, 0, &req, &mut scratch),
            Err(ServeError::NoHistoryStore)
        );
        let got = score_requests(&frozen(3), &l, 5, 0, &[&req], &mut scratch);
        assert_eq!(got, vec![Err(ServeError::NoHistoryStore)]);
    }

    #[test]
    fn request_constructors_and_deprecated_shim_agree() {
        let a = ScoreRequest::inline(1, vec![2, 3], vec![4]);
        assert_eq!(a.inline_history(), Some([2, 3].as_slice()));
        assert_eq!(ScoreRequest::stored(1, vec![4]).inline_history(), None);
        // `Vec<u32>` still slots straight into the literal field.
        let c = ScoreRequest { user: 1, history: vec![2, 3].into(), candidates: vec![4] };
        assert_eq!(a, c);
        assert_eq!(ScoreRequest::default().history, HistorySource::Inline(vec![]));
    }

    #[test]
    fn zero_max_seq_is_a_config_error_not_a_zero_width_batch() {
        let l = layout();
        let req = ScoreRequest::inline(0, vec![1], vec![2]);
        // Pre-fix, this built a Batch with n_dynamic == 0 and let the
        // attention kernels run on a shape the model was never trained for.
        let err = expand_request(&req, &l, 0).expect_err("must reject");
        assert!(matches!(err, ServeError::BadConfig { .. }), "got {err:?}");
        let mut scratch = Scratch::new();
        let err = score_request(&frozen(3), &l, 0, 0, &req, &mut scratch).expect_err("must reject");
        assert!(matches!(err, ServeError::BadConfig { .. }));
        let got = score_requests(&frozen(3), &l, 0, 0, &[&req], &mut scratch);
        assert!(matches!(&got[0], Err(ServeError::BadConfig { .. })));
    }

    #[test]
    fn ranking_is_descending_and_top_k_truncates() {
        let l = layout();
        let frozen = frozen(11);
        let mut scratch = Scratch::new();
        let req = ScoreRequest::inline(1, vec![2, 8], (0..12).collect::<Vec<u32>>());
        let all = score_request(&frozen, &l, 5, 0, &req, &mut scratch).expect("valid");
        assert_eq!(all.ranked.len(), 12);
        for w in all.ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "ranking not descending");
        }
        let top3 = score_request(&frozen, &l, 5, 3, &req, &mut scratch).expect("valid");
        assert_eq!(top3.ranked.len(), 3);
        assert_eq!(top3.ranked, all.ranked[..3].to_vec());
        assert_eq!(all.best().unwrap().item, all.ranked[0].item);
    }

    /// Stub scorer returning preset scores (NaN-injection regression rig).
    struct Preset(Vec<f32>);

    impl Scorer for Preset {
        fn name(&self) -> &str {
            "preset"
        }

        fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32] {
            scratch.publish_scores(&self.0[..batch.len])
        }
    }

    #[test]
    fn nan_scores_rank_last_and_deterministically() {
        let l = layout();
        let stub = Preset(vec![1.0, f32::NAN, 0.5, f32::NAN, 2.0]);
        let req = ScoreRequest::inline(0, vec![1], vec![10, 11, 2, 3, 4]);
        let mut scratch = Scratch::new();
        let first = score_request(&stub, &l, 5, 0, &req, &mut scratch).expect("valid");
        // Finite scores descending, then the NaN-scored candidates in
        // request order — never interleaved into the ranking.
        let items: Vec<u32> = first.ranked.iter().map(|c| c.item).collect();
        assert_eq!(items, vec![4, 10, 2, 11, 3]);
        assert!(first.ranked[3].score.is_nan() && first.ranked[4].score.is_nan());
        // Pre-fix, `partial_cmp(..).unwrap_or(Equal)` made NaN compare Equal
        // to everything and the result depended on sort internals. Now every
        // rerun must agree.
        for _ in 0..20 {
            let again = score_request(&stub, &l, 5, 0, &req, &mut scratch).expect("valid");
            let again_items: Vec<u32> = again.ranked.iter().map(|c| c.item).collect();
            assert_eq!(again_items, items, "NaN ranking must be deterministic");
        }
        // top_k truncation happens after NaN demotion: NaNs can't crowd out
        // finite scores.
        let top3 = score_request(&stub, &l, 5, 3, &req, &mut scratch).expect("valid");
        let top3_items: Vec<u32> = top3.ranked.iter().map(|c| c.item).collect();
        assert_eq!(top3_items, vec![4, 10, 2]);
    }

    #[test]
    fn coalesced_scoring_is_bit_identical_to_serial_per_request() {
        let l = layout();
        let model = frozen(21);
        // A deliberately messy mix: shared histories (including across
        // users), a history equal only after truncation, different
        // candidate counts, a cold start, and two invalid requests in the
        // middle.
        let reqs = [
            ScoreRequest::inline(1, vec![2, 8, 3], vec![0, 5, 7]),
            ScoreRequest::inline(0, vec![], vec![1]),
            ScoreRequest::inline(1, vec![2, 8, 3], vec![9]),
            ScoreRequest::inline(9, vec![], vec![1]), // unknown user
            // Truncation-equivalent to the history above (max_seq 3).
            ScoreRequest::inline(1, vec![11, 2, 8, 3], vec![4, 4, 6]),
            ScoreRequest::inline(2, vec![2, 8, 3], vec![0, 5]), // other user, same hist
            ScoreRequest::inline(1, vec![3, 2], vec![]),        // no candidates
            ScoreRequest::inline(3, vec![1, 1, 1], (0..12).collect::<Vec<u32>>()),
        ];
        let refs: Vec<&ScoreRequest> = reqs.iter().collect();
        for (max_seq, top_k) in [(3usize, 0usize), (3, 2), (5, 4)] {
            let mut scratch = Scratch::new();
            let coalesced = score_requests(&model, &l, max_seq, top_k, &refs, &mut scratch);
            assert_eq!(coalesced.len(), reqs.len());
            let mut serial_scratch = Scratch::new();
            for (i, req) in reqs.iter().enumerate() {
                let serial = score_request(&model, &l, max_seq, top_k, req, &mut serial_scratch);
                match (&coalesced[i], &serial) {
                    (Ok(c), Ok(s)) => {
                        assert_eq!(c.ranked.len(), s.ranked.len(), "request {i}");
                        for (cc, sc) in c.ranked.iter().zip(&s.ranked) {
                            assert_eq!(cc.item, sc.item, "request {i}: item order diverges");
                            assert_eq!(
                                cc.score.to_bits(),
                                sc.score.to_bits(),
                                "request {i}: score not bit-identical ({} vs {})",
                                cc.score,
                                sc.score
                            );
                        }
                    }
                    (c, s) => assert_eq!(c, s, "request {i}: error mismatch"),
                }
            }
        }
    }

    #[test]
    fn coalesced_groups_form_by_canonical_history_across_users() {
        // Observable through a counting scorer: each group is one score
        // call with all member candidates in one batch.
        use std::cell::Cell;
        struct Counting {
            calls: Cell<usize>,
            rows: Cell<usize>,
        }
        impl Scorer for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32] {
                self.calls.set(self.calls.get() + 1);
                self.rows.set(self.rows.get() + batch.len);
                scratch.publish_scores(&vec![0.0; batch.len])
            }
        }
        let l = layout();
        let reqs = [
            ScoreRequest::inline(1, vec![2, 8], vec![0, 5]),
            ScoreRequest::inline(1, vec![2, 8], vec![7]),
            // Different user, same history: coalesces since the key is the
            // canonical history alone (pre-redesign this was its own
            // group).
            ScoreRequest::inline(2, vec![2, 8], vec![1]),
            ScoreRequest::inline(1, vec![8, 2], vec![1]), // other order
            ScoreRequest::inline(1, vec![2, 8], vec![3]),
        ];
        let refs: Vec<&ScoreRequest> = reqs.iter().collect();
        let counter = Counting { calls: Cell::new(0), rows: Cell::new(0) };
        let mut scratch = Scratch::new();
        let out = score_requests(&counter, &l, 5, 0, &refs, &mut scratch);
        assert!(out.iter().all(Result::is_ok));
        // Two groups: {0, 1, 2, 4} (same canonical history) and {3}.
        assert_eq!(counter.calls.get(), 2, "expected 2 cross-user coalesced groups");
        assert_eq!(counter.rows.get(), 6, "all candidate rows scored exactly once");
    }

    #[test]
    fn stateful_path_resolves_stores_and_caches_bit_identically() {
        let l = layout();
        let model = frozen(33);
        let store = HistoryStore::new(l.n_users, 5);
        let cache = ViewCache::new(64);
        let backend = HistoryBackend { store: &store, cache: Some(&cache) };
        for &item in &[2u32, 8, 3] {
            store.append(1, item);
        }
        let stored = ScoreRequest::stored(1, vec![0, 5, 7]);
        let inline = ScoreRequest::inline(1, vec![2, 8, 3], vec![0, 5, 7]);
        let mut scratch = Scratch::new();
        let mut cs = CoalesceScratch::new();
        let mut out = Vec::new();
        // First pass: cache cold (miss), view built and installed.
        score_requests_stateful(
            &model,
            &l,
            5,
            0,
            &[&stored],
            Some(&backend),
            &mut scratch,
            &mut cs,
            &mut out,
        );
        let first = out[0].clone().expect("valid");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        // Second pass: cache hit, same bits.
        score_requests_stateful(
            &model,
            &l,
            5,
            0,
            &[&stored],
            Some(&backend),
            &mut scratch,
            &mut cs,
            &mut out,
        );
        let second = out[0].clone().expect("valid");
        assert_eq!(cache.stats().hits, 1);
        // Reference: the same request scored inline, serially.
        let want = score_request(&model, &l, 5, 0, &inline, &mut scratch).expect("valid");
        for got in [&first, &second] {
            assert_eq!(got.ranked.len(), want.ranked.len());
            for (g, w) in got.ranked.iter().zip(&want.ranked) {
                assert_eq!(g.item, w.item);
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "stored path not bit-identical");
            }
        }
        // Append → version bump → lazy invalidation: next lookup misses,
        // and the re-scored result matches a fresh inline request exactly.
        store.append(1, 6);
        score_requests_stateful(
            &model,
            &l,
            5,
            0,
            &[&stored],
            Some(&backend),
            &mut scratch,
            &mut cs,
            &mut out,
        );
        let after = out[0].clone().expect("valid");
        let inline_after = ScoreRequest::inline(1, vec![2, 8, 3, 6], vec![0, 5, 7]);
        let want_after =
            score_request(&model, &l, 5, 0, &inline_after, &mut scratch).expect("valid");
        for (g, w) in after.ranked.iter().zip(&want_after.ranked) {
            assert_eq!(g.item, w.item);
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "post-append score stale");
        }
        assert_eq!(cache.stats().misses, 2, "append must invalidate (stale-version miss)");
    }

    fn bits(r: &ScoreResponse) -> (Vec<(u32, u32)>, ModelEpoch) {
        (r.ranked.iter().map(|c| (c.item, c.score.to_bits())).collect(), r.epoch)
    }

    /// One stored request per drain: `user` scored alone through `backend`.
    fn score_alone(model: &FrozenSeqFm, backend: &HistoryBackend<'_>, user: u32) -> ScoreResponse {
        let mut out = Vec::new();
        score_requests_stateful(
            model,
            &layout(),
            5,
            0,
            &[&ScoreRequest::stored(user, vec![0, 5, 7])],
            Some(backend),
            &mut Scratch::new(),
            &mut CoalesceScratch::new(),
            &mut out,
        );
        out.pop().expect("one request").expect("valid")
    }

    #[test]
    fn equal_windows_share_one_view_across_drains_until_they_diverge() {
        let l = layout();
        let model = frozen(41);
        let epoch = model.model_epoch();
        let store = HistoryStore::new(l.n_users, 5);
        let cache = ViewCache::new(64);
        let backend = HistoryBackend { store: &store, cache: Some(&cache) };
        for user in [1u32, 2] {
            for &item in &[2u32, 8, 3] {
                store.append(user, item);
            }
        }
        // Two users, equal windows, served in *different* drains: the second
        // miss finds the first user's view by content instead of rebuilding.
        let first = score_alone(&model, &backend, 1);
        let second = score_alone(&model, &backend, 2);
        let v1 = cache.get(1, 3, epoch).expect("user 1 cached");
        let v2 = cache.get(2, 3, epoch).expect("user 2 cached");
        assert!(Arc::ptr_eq(&v1, &v2), "equal windows must hold one shared view");
        // `entries` still counts per-user entries, not distinct views.
        assert_eq!(cache.stats().entries, 2);
        // Sharing is invisible in the scores: each equals its inline twin.
        let mut scratch = Scratch::new();
        for (user, got) in [(1u32, &first), (2, &second)] {
            let inline = ScoreRequest::inline(user, vec![2, 8, 3], vec![0, 5, 7]);
            let want = score_request(&model, &l, 5, 0, &inline, &mut scratch).expect("valid");
            assert_eq!(bits(got), bits(&want), "user {user}: shared view changed the response");
        }

        // An append to one of them splits the pair: user 2 moves to a new
        // window (and view), user 1 keeps the old one.
        store.append(2, 6);
        let after = score_alone(&model, &backend, 2);
        let v2_new = cache.get(2, 4, epoch).expect("user 2 re-cached");
        assert!(!Arc::ptr_eq(&v1, &v2_new), "diverged windows must not share a view");
        assert_eq!(v2_new.dyn_idx(), [seqfm_data::PAD, 2, 8, 3, 6]);
        assert!(Arc::ptr_eq(&v1, &cache.get(1, 3, epoch).expect("user 1 untouched")));
        let inline = ScoreRequest::inline(2, vec![2, 8, 3, 6], vec![0, 5, 7]);
        let want = score_request(&model, &l, 5, 0, &inline, &mut scratch).expect("valid");
        assert_eq!(bits(&after), bits(&want), "post-append response stale");
    }

    #[test]
    fn a_new_epoch_never_receives_an_old_epochs_shared_view() {
        let l = layout();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(43);
        let cfg = SeqFmConfig { d: 8, max_seq: 5, ..Default::default() };
        SeqFm::new(&mut ps, &mut rng, &l, cfg); // registers the parameters
        let e1 = FrozenSeqFm::from_params(ps.freeze_versioned(), cfg);
        // "Train" between publishes, so the two epochs' views really differ.
        let table = ps.id_of("seqfm.emb_dynamic.table").expect("dynamic embeddings");
        for x in ps.value_mut(table).data_mut() {
            *x += 0.25;
        }
        let e2 = FrozenSeqFm::from_params(ps.freeze_versioned(), cfg);
        assert_ne!(e1.model_epoch(), e2.model_epoch());

        let store = HistoryStore::new(l.n_users, 5);
        let cache = ViewCache::new(64);
        let backend = HistoryBackend { store: &store, cache: Some(&cache) };
        for user in [1u32, 2] {
            store.append(user, 4);
        }
        // User 1 under epoch 1, then a publish, then user 2 (same window)
        // under epoch 2: the shared table still holds epoch 1's live view
        // for that window and must not hand it out.
        score_alone(&e1, &backend, 1);
        let got = score_alone(&e2, &backend, 2);
        let old = cache.get(1, 1, e1.model_epoch()).expect("epoch-1 entry still cached");
        let new = cache.get(2, 1, e2.model_epoch()).expect("epoch-2 entry cached");
        assert!(!Arc::ptr_eq(&old, &new), "an old-epoch view crossed a publish");
        let inline = ScoreRequest::inline(2, vec![4], vec![0, 5, 7]);
        let want = score_request(&e2, &l, 5, 0, &inline, &mut Scratch::new()).expect("valid");
        assert_eq!(bits(&got), bits(&want), "epoch-2 response not cold-built-equal");
        // Rolling back to epoch 1 finds its view again, still alive in
        // user 1's entry: re-validated, and equal to a cold build.
        let rolled = score_alone(&e1, &backend, 2);
        assert!(Arc::ptr_eq(&old, &cache.get(2, 1, e1.model_epoch()).expect("re-cached")));
        let want = score_request(&e1, &l, 5, 0, &inline, &mut Scratch::new()).expect("valid");
        assert_eq!(bits(&rolled), bits(&want), "rolled-back response not cold-built-equal");
    }

    #[test]
    fn stored_and_inline_requests_coalesce_into_one_group() {
        let l = layout();
        let model = frozen(39);
        let store = HistoryStore::new(l.n_users, 5);
        for &item in &[2u32, 8] {
            store.append(3, item);
        }
        let backend = HistoryBackend { store: &store, cache: None };
        // User 3's stored history equals user 1's inline history: one group.
        let reqs =
            [ScoreRequest::stored(3, vec![0, 5]), ScoreRequest::inline(1, vec![2, 8], vec![7])];
        let refs: Vec<&ScoreRequest> = reqs.iter().collect();
        let mut scratch = Scratch::new();
        let mut cs = CoalesceScratch::new();
        let mut out = Vec::new();
        score_requests_stateful(
            &model,
            &l,
            5,
            0,
            &refs,
            Some(&backend),
            &mut scratch,
            &mut cs,
            &mut out,
        );
        assert_eq!(cs.groups.len(), 1, "stored + inline with equal windows must share a group");
        let mut serial = Scratch::new();
        let want0 = score_request(
            &model,
            &l,
            5,
            0,
            &ScoreRequest::inline(3, vec![2, 8], vec![0, 5]),
            &mut serial,
        )
        .expect("valid");
        let got0 = out[0].as_ref().expect("valid");
        for (g, w) in got0.ranked.iter().zip(&want0.ranked) {
            assert_eq!((g.item, g.score.to_bits()), (w.item, w.score.to_bits()));
        }
    }
}
