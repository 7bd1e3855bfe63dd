//! Graph-free SeqFM inference: [`FrozenSeqFm`].
//!
//! A `FrozenSeqFm` is built from a trained `(SeqFm, ParamStore)` pair — or
//! directly from a checkpoint blob — by snapshotting every parameter into an
//! immutable, `Arc`-shareable [`FrozenParams`]. Its forward pass replays the
//! exact floating-point operations of the graph forward pass
//! ([`SeqModel::forward`](crate::SeqModel::forward) on [`SeqFm`] — same kernels, same
//! order) as straight-line code: no tape nodes, no parameter clones, no RNG,
//! and no per-call allocations once the caller's [`Scratch`] is warm. Logits
//! therefore match the graph path **bit for bit**, which the tests assert.
//!
//! The forward is a short pipeline of stages. Everything derived from the
//! dynamic block alone is computed by one history stage
//! (`build_history`) into a [`HistoryView`] — the scratch's own, rebuilt
//! per call with one row when the batch repeats a history and one per batch
//! row otherwise, or a one-row view the caller cached and lends. The rest
//! (`score_static_rows`) reads every history quantity from that view and
//! runs top to bottom like [`SeqFm`]'s forward: gather static → static view
//! → dynamic view (a copy out of the view) → cross view → head. The only
//! thing that depends on how the view came to be is which cross-view kernel
//! runs and on what operands: one history per row, or one shared history —
//! under which a request's repeated user row is shared as well, so the
//! kernel computes that row's cross-view output and every history row's
//! score against it once per call, and each candidate pays for its own row
//! alone. None of that goes into the [`HistoryView`]: it depends on the
//! user, and a view is shared across users by window content.

use crate::config::SeqFmConfig;
use crate::precision::{FrozenParamsFast, ScorerPrecision};
use crate::scorer::{Scorer, Scratch};
use crate::view::HistoryView;
use crate::SeqFm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::{FrozenId, FrozenParams, ModelEpoch, ParamStore};
use seqfm_data::{Batch, FeatureLayout, PAD};
use seqfm_nn::checkpoint::{self, CheckpointError};
use seqfm_tensor::{
    attention_causal_into, attention_cross_rows_into, attention_cross_shared_into, attention_into,
    matmul_nn_into, Tensor, Workspace,
};
use std::sync::Arc;

/// Must match `seqfm_nn::layers::LayerNorm::new` — the paper's "small bias
/// term added in case σ = 0" (Eq. 16).
pub(crate) const LN_EPS: f32 = 1e-5;

pub(crate) struct AttnIds {
    pub(crate) wq: FrozenId,
    pub(crate) wk: FrozenId,
    pub(crate) wv: FrozenId,
}

pub(crate) struct FfnLayerIds {
    pub(crate) ln_scale: FrozenId,
    pub(crate) ln_bias: FrozenId,
    pub(crate) w: FrozenId,
    pub(crate) b: FrozenId,
}

/// An immutable, thread-shareable SeqFM ready for serving.
///
/// `FrozenSeqFm` is `Send + Sync`: clone the [`Arc`] behind it (or the whole
/// struct — parameter ids are `Copy` and the snapshot is shared) and hand
/// one [`Scratch`] to each serving thread.
pub struct FrozenSeqFm {
    cfg: SeqFmConfig,
    params: Arc<FrozenParams>,
    pub(crate) emb_static: FrozenId,
    pub(crate) emb_dynamic: FrozenId,
    pub(crate) w_static: FrozenId,
    w_dynamic: FrozenId,
    pub(crate) w0: FrozenId,
    pub(crate) attn: [AttnIds; 3],
    pub(crate) ffns: Vec<Vec<FfnLayerIds>>,
    pub(crate) p: FrozenId,
    precision: ScorerPrecision,
    fast: Option<Arc<FrozenParamsFast>>,
}

impl FrozenSeqFm {
    /// Freezes a live `(model, params)` pair into an inference-only model.
    pub fn freeze(model: &SeqFm, ps: &ParamStore) -> Self {
        Self::from_params(FrozenParams::shared(ps), *model.config())
    }

    /// Builds a frozen model over an existing parameter snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot is missing any `seqfm.*` parameter the config
    /// implies (wrong depth, wrong FFN sharing, or a non-SeqFM snapshot).
    pub fn from_params(params: Arc<FrozenParams>, cfg: SeqFmConfig) -> Self {
        cfg.validate();
        let r = |name: &str| {
            params
                .index_of(name)
                .unwrap_or_else(|| panic!("frozen SeqFM: parameter `{name}` missing from snapshot"))
        };
        let attn_ids = |prefix: &str| AttnIds {
            wq: r(&format!("{prefix}.wq.w")),
            wk: r(&format!("{prefix}.wk.w")),
            wv: r(&format!("{prefix}.wv.w")),
        };
        let n_ffns = if cfg.ablation.shared_ffn { 1 } else { cfg.ablation.active_views() };
        let ffns = (0..n_ffns)
            .map(|i| {
                (0..cfg.layers)
                    .map(|j| FfnLayerIds {
                        ln_scale: r(&format!("seqfm.ffn{i}.{j}.ln.scale")),
                        ln_bias: r(&format!("seqfm.ffn{i}.{j}.ln.bias")),
                        w: r(&format!("seqfm.ffn{i}.{j}.lin.w")),
                        b: r(&format!("seqfm.ffn{i}.{j}.lin.b")),
                    })
                    .collect()
            })
            .collect();
        FrozenSeqFm {
            emb_static: r("seqfm.emb_static.table"),
            emb_dynamic: r("seqfm.emb_dynamic.table"),
            w_static: r("seqfm.w_static.table"),
            w_dynamic: r("seqfm.w_dynamic.table"),
            w0: r("seqfm.w0"),
            attn: [
                attn_ids("seqfm.attn_static"),
                attn_ids("seqfm.attn_dynamic"),
                attn_ids("seqfm.attn_cross"),
            ],
            ffns,
            p: r("seqfm.p"),
            cfg,
            params,
            precision: ScorerPrecision::Exact,
            fast: None,
        }
    }

    /// Switches the serving profile, quantizing the parameters on first use
    /// of [`ScorerPrecision::Fast`] (see [`crate::precision`] for the error
    /// budget and guarantees). The profile selects *parameters only*: both
    /// run the same kernels, so `Fast` is bit-identical to an `Exact` model
    /// frozen from the quantized values. The quantized bundle is kept when
    /// toggling back to `Exact`, so flipping profiles is cheap after the
    /// first build.
    #[must_use]
    pub fn with_precision(mut self, precision: ScorerPrecision) -> Self {
        self.precision = precision;
        if precision == ScorerPrecision::Fast && self.fast.is_none() {
            self.fast = Some(Arc::new(FrozenParamsFast::build(&self)));
        }
        self
    }

    /// The active serving profile.
    pub fn precision(&self) -> ScorerPrecision {
        self.precision
    }

    /// The quantized bundle, when the fast profile is active.
    fn fast_active(&self) -> Option<&FrozenParamsFast> {
        match self.precision {
            ScorerPrecision::Fast => self.fast.as_deref(),
            ScorerPrecision::Exact => None,
        }
    }

    /// Profile-aware static-embedding gather (`f16`-decoded under `Fast`).
    pub(crate) fn gather_static(&self, idx: &[i64], d: usize, out: &mut [f32]) {
        match self.fast_active() {
            Some(fp) => fp.emb_static.gather(idx, out),
            None => gather_rows(self.t(self.emb_static), idx, d, out),
        }
    }

    /// Profile-aware dynamic-embedding gather.
    pub(crate) fn gather_dynamic(&self, idx: &[i64], d: usize, out: &mut [f32]) {
        match self.fast_active() {
            Some(fp) => fp.emb_dynamic.gather(idx, out),
            None => gather_rows(self.t(self.emb_dynamic), idx, d, out),
        }
    }

    /// View `view`'s attention weight matrix (`which`: 0 = Q, 1 = K, 2 = V)
    /// in the active profile — the exact tensor, or the `f16`-effective copy
    /// the `Fast` forward pass *and* the retrieval bounds both read.
    fn attn_w(&self, view: usize, which: usize) -> &[f32] {
        match self.fast_active() {
            Some(fp) => {
                let fa = &fp.attn[view];
                match which {
                    0 => &fa.wq,
                    1 => &fa.wk,
                    _ => &fa.wv,
                }
            }
            None => {
                let ids = &self.attn[view];
                self.t(match which {
                    0 => ids.wq,
                    1 => ids.wk,
                    _ => ids.wv,
                })
                .data()
            }
        }
    }

    /// Attention projection `out[m,d] = e[m,d] · W[d,d]` with the active
    /// profile's weights (the tape's rank-3 `Linear::forward` reads its
    /// input as these same `m` rows; projections carry no bias). Per-row
    /// arithmetic is batch-independent,
    /// so a row's projection is the same bits whether it is computed here
    /// for a forward pass or for a bounds envelope.
    pub(crate) fn project_view(
        &self,
        e: &[f32],
        view: usize,
        which: usize,
        m: usize,
        out: &mut [f32],
    ) {
        let d = self.cfg.d;
        let w = self.attn_w(view, which);
        let out = &mut out[..m * d];
        out.fill(0.0);
        matmul_nn_into(e, w, out, m, d, d);
    }

    /// FFN `which`'s layer-`li` weight matrix in the active profile (the
    /// `i8`-effective copy under `Fast`, shared with the bounds).
    pub(crate) fn ffn_w_data(&self, which: usize, li: usize) -> &[f32] {
        match self.fast_active() {
            Some(fp) => &fp.ffn_w[which][li].eff,
            None => self.t(self.ffns[which][li].w).data(),
        }
    }

    /// Restores a frozen model straight from a checkpoint blob (see
    /// [`seqfm_nn::checkpoint`]). `layout` and `cfg` must describe the model
    /// that wrote the checkpoint.
    ///
    /// # Errors
    /// Any [`CheckpointError`] of the decode (bad magic/version, truncation,
    /// unknown/missing/repeated parameters, shape mismatch, non-finite
    /// values).
    pub fn from_checkpoint(
        blob: &[u8],
        layout: &FeatureLayout,
        cfg: SeqFmConfig,
    ) -> Result<Self, CheckpointError> {
        let mut ps = ParamStore::new();
        // Seed is irrelevant: every initialised value is overwritten by the
        // checkpoint (load fails on any missing parameter).
        let mut rng = StdRng::seed_from_u64(0);
        let model = SeqFm::new(&mut ps, &mut rng, layout, cfg);
        checkpoint::load(&mut ps, blob)?;
        Ok(Self::freeze(&model, &ps))
    }

    /// Restores a frozen model from a checkpoint file (see
    /// [`checkpoint::load_file`]).
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on read failure, plus any decode error.
    pub fn from_checkpoint_file(
        path: impl AsRef<std::path::Path>,
        layout: &FeatureLayout,
        cfg: SeqFmConfig,
    ) -> Result<Self, CheckpointError> {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let model = SeqFm::new(&mut ps, &mut rng, layout, cfg);
        checkpoint::load_file(&mut ps, path)?;
        Ok(Self::freeze(&model, &ps))
    }

    /// Model configuration.
    pub fn config(&self) -> &SeqFmConfig {
        &self.cfg
    }

    /// The shared parameter snapshot.
    pub fn params(&self) -> &Arc<FrozenParams> {
        &self.params
    }

    /// The [`ModelEpoch`] the underlying snapshot was stamped with —
    /// [`ModelEpoch::ZERO`] for plain offline freezes.
    pub fn epoch(&self) -> ModelEpoch {
        self.params.epoch()
    }

    pub(crate) fn t(&self, id: FrozenId) -> &Tensor {
        self.params.value(id)
    }

    /// The post-attention tail of a view: pooling → FFN → `hagg` column
    /// write, on an already-computed context in `bufs.ctx`. Every view is
    /// "project Q/K/V, attend, then this", whichever attention entry point
    /// (dense, structured causal or structured cross) produced its context.
    #[allow(clippy::too_many_arguments)]
    fn pool_ffn_write(
        &self,
        ffn_idx: usize,
        b: usize,
        n: usize,
        d: usize,
        pads: Option<(&[usize], usize)>,
        view_col: usize,
        views: usize,
        bufs: &mut ViewBufs<'_>,
    ) {
        let ab = self.cfg.ablation;
        pool_into(bufs.ctx, b, n, d, ab.masked_pooling, pads, bufs.pool);
        let which = if ab.shared_ffn { 0 } else { ffn_idx };
        for (li, layer) in self.ffns[which].iter().enumerate() {
            ffn_layer(
                bufs.pool,
                bufs.normed,
                bufs.lin,
                self.t(layer.ln_scale).data(),
                self.t(layer.ln_bias).data(),
                self.ffn_w_data(which, li),
                self.t(layer.b).data(),
                b,
                d,
                ab.residual,
                ab.layer_norm,
            );
        }
        let stride = views * d;
        for bi in 0..b {
            bufs.hagg[bi * stride + view_col..bi * stride + view_col + d]
                .copy_from_slice(&bufs.pool[bi * d..(bi + 1) * d]);
        }
    }

    /// Projects the `1 + b` unique static rows of a constant-user
    /// candidate-expansion batch (`e_u` = `[user_row, cand_0, …,
    /// cand_{b−1}]`) with view `view`'s Q/K/V weights and interleaves the
    /// results into the leading `[b, 2, d]` blocks of `dsts`
    /// (Q, K, V order), using `pu` (≥ `(1 + b)·d`) as projection scratch.
    ///
    /// Candidate-expansion batches repeat the user feature in static
    /// column 0 of every row; projection arithmetic is row-local, so
    /// projecting that row once and broadcasting its output is the same
    /// bits per row as projecting it `b` times inside the batched call
    /// (the batch-independence invariant the tiled-kernel tests pin) at
    /// roughly half the projection arithmetic.
    fn project_static_unique(
        &self,
        e_u: &[f32],
        view: usize,
        b: usize,
        d: usize,
        pu: &mut [f32],
        dsts: [&mut [f32]; 3],
    ) {
        for (wi, dst) in dsts.into_iter().enumerate() {
            self.project_view(e_u, view, wi, 1 + b, pu);
            for bi in 0..b {
                let base = bi * 2 * d;
                dst[base..base + d].copy_from_slice(&pu[..d]);
                dst[base + d..base + 2 * d].copy_from_slice(&pu[(1 + bi) * d..(2 + bi) * d]);
            }
        }
    }
}

/// Mutable workspace slices of one view, threaded through
/// [`FrozenSeqFm::pool_ffn_write`].
struct ViewBufs<'a> {
    q: &'a mut [f32],
    k: &'a mut [f32],
    v: &'a mut [f32],
    scores: &'a mut [f32],
    ctx: &'a mut [f32],
    pool: &'a mut [f32],
    normed: &'a mut [f32],
    lin: &'a mut [f32],
    hagg: &'a mut [f32],
}

impl FrozenSeqFm {
    /// The history stage of the forward pass — the only code that derives
    /// anything from a dynamic block. For each of the `rows` left-padded
    /// index rows of `dyn_rows` (`[rows, nd]`) it counts the padding, sums
    /// lin˙, gathers the dynamic embeddings, projects the cross view's
    /// history rows and runs the causal dynamic view down to its pooled
    /// `d`-vector, writing all of it into `view` in place (the view's
    /// buffers keep their capacity, so rebuilding a warm one allocates
    /// nothing).
    ///
    /// None of this depends on the candidates (Eq. 11–14) and per-row
    /// arithmetic is batch-independent, so a history's outputs are the same
    /// bits whether it is built alone for a cache, once for a batch that
    /// repeats it, or beside the other rows of a mixed batch.
    fn build_history(
        &self,
        dyn_rows: &[i64],
        rows: usize,
        nd: usize,
        ws: &Workspace,
        view: &mut HistoryView,
    ) {
        let d = self.cfg.d;
        let ab = self.cfg.ablation;
        let dyn_rows = &dyn_rows[..rows * nd];
        view.dyn_idx.clear();
        view.dyn_idx.extend_from_slice(dyn_rows);
        view.nd = nd;
        view.d = d;

        // Per-row padding lengths (masked-pooling extension) and lin˙
        // (Eq. 4), accumulated in index order — one entry per row even when
        // the window is empty.
        let wd = self.t(self.w_dynamic).data();
        view.pad.clear();
        view.lin_d.clear();
        for r in 0..rows {
            let row = &dyn_rows[r * nd..(r + 1) * nd];
            view.pad.push(row.iter().take_while(|&&i| i == PAD).count());
            let mut lin_d = 0.0f32;
            for &i in row {
                if i >= 0 {
                    lin_d += wd[i as usize];
                }
            }
            view.lin_d.push(lin_d);
        }

        // An ablated view leaves its part of the representation empty.
        let hist_len = if ab.cross_view { rows * nd * d } else { 0 };
        for dst in [&mut view.hist_q, &mut view.hist_k, &mut view.hist_v] {
            dst.resize(hist_len, 0.0);
        }
        view.dyn_pooled.resize(if ab.dynamic_view { rows * d } else { 0 }, 0.0);
        if !(ab.dynamic_view || ab.cross_view) {
            return;
        }

        // Embedding layer (Eq. 5): PAD rows embed to exact zeros.
        let mut e_d = ws.take(rows * nd * d);
        self.gather_dynamic(dyn_rows, d, &mut e_d);

        if ab.cross_view {
            // Projection is row-local, so the cross view's history rows are
            // projected here, apart from the static rows they will attend
            // with, and the structured kernels read both blocks in place.
            let dsts = [&mut view.hist_q, &mut view.hist_k, &mut view.hist_v];
            for (wi, dst) in dsts.into_iter().enumerate() {
                self.project_view(&e_d, 2, wi, rows * nd, dst);
            }
        }
        if ab.dynamic_view {
            // The whole dynamic view collapses to one pooled `d`-vector per
            // history: `dyn_pooled` is the `[rows, d]` aggregate of a
            // one-view model, written by the same tail as any other view's
            // column block.
            let mut q = ws.take(rows * nd * d);
            let mut k = ws.take(rows * nd * d);
            let mut v = ws.take(rows * nd * d);
            let mut scores = ws.take(rows * nd * (nd + 1) / 2);
            let mut ctx = ws.take(rows * nd * d);
            let mut pool = ws.take(rows * d);
            let mut normed = ws.take(rows * d);
            let mut lin = ws.take(rows * d);
            let mut bufs = ViewBufs {
                q: &mut q,
                k: &mut k,
                v: &mut v,
                scores: &mut scores,
                ctx: &mut ctx,
                pool: &mut pool,
                normed: &mut normed,
                lin: &mut lin,
                hagg: &mut view.dyn_pooled,
            };
            // Causal attention through the tape node's own kernel: only the
            // lower triangle is kept.
            for (wi, dst) in [&mut *bufs.q, &mut *bufs.k, &mut *bufs.v].into_iter().enumerate() {
                self.project_view(&e_d, 1, wi, rows * nd, dst);
            }
            let scale = 1.0 / (d as f32).sqrt();
            let (q, k, v) = (&*bufs.q, &*bufs.k, &*bufs.v);
            attention_causal_into(q, k, v, scale, [rows, nd, d], bufs.scores, bufs.ctx);
            // The dynamic view's FFN slot mirrors the forward pass's
            // ffn_idx bookkeeping: 1 when the static view precedes it.
            let ffn_idx = usize::from(ab.static_view);
            self.pool_ffn_write(ffn_idx, rows, nd, d, Some((&view.pad, 0)), 0, 1, &mut bufs);
        }
    }

    /// Precomputes the history side of the forward pass for one
    /// left-padded dynamic index row: the dynamic view's pooled output, the
    /// cross view's history-row Q/K/V projections, the lin˙ term, and the
    /// padding length — everything a candidate-expansion batch over this
    /// history would recompute identically on every request.
    ///
    /// The view is the forward's own history stage run once on that row, so
    /// scoring through [`FrozenSeqFm::score_with_view`] is **bit-identical**
    /// to [`Scorer::score`] on an inline batch carrying the same row.
    ///
    /// # Panics
    /// Panics if an index in `dyn_row` is out of the embedding table's
    /// range (callers validate ids against the feature layout first).
    pub fn history_view(&self, dyn_row: &[i64], scratch: &mut Scratch) -> HistoryView {
        let mut view = HistoryView::default();
        self.build_history(dyn_row, 1, dyn_row.len(), &scratch.ws, &mut view);
        view
    }

    /// Scores a candidate-expansion batch against a cached
    /// [`HistoryView`], skipping every history-side computation the view
    /// already holds. Bit-identical to [`Scorer::score`] on the same batch.
    ///
    /// # Panics
    /// Panics if `view` was not built for exactly this batch's dynamic
    /// block (stale or mismatched views must fail loudly, not serve wrong
    /// scores).
    pub fn score_with_view<'s>(
        &self,
        batch: &Batch,
        view: &HistoryView,
        scratch: &'s mut Scratch,
    ) -> &'s [f32] {
        self.forward_split(batch, scratch, Some(view));
        &scratch.out[..batch.len]
    }

    /// Scores one cache-sized block of the item catalog — candidates
    /// `items` for `user` — against a cached [`HistoryView`], appending one
    /// logit per item to `out` (in `items` order).
    ///
    /// Only the static side of the candidate-expansion batch is rebuilt in
    /// place inside `batch` — rows `[user_feature, item_feature]` in
    /// `static_idx`, with `len`, `n_static`, `n_dynamic` and zeroed
    /// `targets` to match — so a catalog scan reuses one batch's buffers
    /// across every block. The history side is `view` itself: `dyn_idx` is
    /// left empty rather than filled with `len` copies of the view's row.
    /// Logits are bit-identical to scoring the same rows in any other batch
    /// composition: per-row arithmetic in the forward pass is independent of
    /// the surrounding batch (the invariant `tests/` pins for the kernels).
    /// `items` need not be contiguous or sorted — retrieval indexes reorder
    /// the catalog so blocks share similar precomputed partial scores.
    ///
    /// # Panics
    /// Panics if `user` or an item in `items` is outside `layout`, or if
    /// `view` was not built at this model's width.
    #[allow(clippy::too_many_arguments)]
    pub fn score_catalog_into(
        &self,
        layout: &FeatureLayout,
        user: u32,
        items: &[u32],
        view: &HistoryView,
        batch: &mut Batch,
        scratch: &mut Scratch,
        out: &mut Vec<f32>,
    ) {
        assert!((user as usize) < layout.n_users, "user {user} outside layout");
        let len = items.len();
        let uf = layout.user_feature(user);
        batch.len = len;
        batch.n_static = 2;
        batch.n_dynamic = view.nd();
        batch.static_idx.clear();
        for &item in items {
            assert!((item as usize) < layout.n_items, "item {item} outside layout");
            batch.static_idx.push(uf);
            batch.static_idx.push(layout.item_feature(item));
        }
        batch.dyn_idx.clear();
        batch.targets.clear();
        batch.targets.resize(len, 0.0);
        if len > 0 {
            self.score_static_rows(&batch.static_idx, len, 2, view, &scratch.ws, &mut scratch.out);
            out.extend_from_slice(&scratch.out[..len]);
        }
    }

    /// The forward pass: choose the history side — borrow the caller's
    /// cached [`HistoryView`] once it is checked against the batch, or run
    /// the history stage into the scratch's own — then score the batch's
    /// static rows against it.
    fn forward_split(&self, batch: &Batch, scratch: &mut Scratch, cached: Option<&HistoryView>) {
        let (b, nd) = (batch.len, batch.n_dynamic);
        // Disjoint field borrows: the arena hands out every kernel
        // temporary; `out` stays a plain buffer because the caller's
        // returned slice borrows it past the arena scopes' lifetime.
        let Scratch { out, ws, view: own, .. } = scratch;
        let view = match cached {
            Some(view) => {
                // A view is tied to one exact dynamic row; serving stale
                // history silently would be the worst possible failure mode.
                assert_eq!(view.nd, nd, "history view covers nd={} but batch has {nd}", view.nd);
                assert!(
                    nd == 0 || batch.dyn_idx.chunks_exact(nd).all(|row| row == view.dyn_idx()),
                    "history view does not match the batch's dynamic block"
                );
                view
            }
            None => {
                // A candidate-expansion batch repeats one user history
                // across every row: build that history once. A cached view
                // is the same one-row build memoised across requests.
                let repeated = b > 1
                    && nd > 0
                    && batch
                        .dyn_idx
                        .chunks_exact(nd)
                        .skip(1)
                        .all(|row| row == &batch.dyn_idx[..nd]);
                let rows = if repeated { 1 } else { b };
                self.build_history(&batch.dyn_idx, rows, nd, ws, own);
                own
            }
        };
        self.score_static_rows(&batch.static_idx, b, batch.n_static, view, ws, out);
    }

    /// The candidate side of the forward pass, in [`SeqFm`]'s own order:
    /// static view → dynamic view → cross view → head, for `b` static rows
    /// of `ns` features each. Every history quantity is read from `view`,
    /// which holds either one row shared by the whole batch or one row per
    /// batch row; that choice selects the cross-view kernel and which view
    /// row a batch row reads, and nothing else.
    fn score_static_rows(
        &self,
        static_idx: &[i64],
        b: usize,
        ns: usize,
        view: &HistoryView,
        ws: &Workspace,
        out: &mut Vec<f32>,
    ) {
        let d = self.cfg.d;
        let ab = self.cfg.ablation;
        let views = ab.active_views();
        let scale = 1.0 / (d as f32).sqrt();
        let (rows, nd) = (view.rows(), view.nd);
        assert_eq!(view.d, d, "history view built at width {} but model is {d}", view.d);
        assert!(rows == 1 || rows == b, "history view holds {rows} rows for a batch of {b}");
        // The view row batch row `bi` reads.
        let hrow = |bi: usize| if rows == 1 { 0 } else { bi };
        if out.len() < b {
            out.resize(b, 0.0);
        }

        // Candidate-expansion batches repeat the user feature in static
        // column 0 of every row: everything computed from that row alone is
        // computed once. Both views project the `1 + b` unique static rows
        // instead of all `2·b` — the static view broadcasts the shared
        // row's projection into its `[b, 2, d]` blocks (see
        // [`Self::project_static_unique`]); the cross view, when the
        // history is shared too, passes the unique rows on uncopied and the
        // kernel hoists the user row's whole attention. Bit-identical per
        // row either way.
        let uniq_static =
            ns == 2 && b > 1 && static_idx.chunks_exact(2).skip(1).all(|r| r[0] == static_idx[0]);

        // Workspace scopes, sized exactly for this batch (zero-filled on
        // take; zero heap traffic once the arena has seen the shape). No
        // view materializes interleaved `[b, ns + nd, d]` Q/K/V or dense
        // `(ns + nd)²` score scratch — the cross view reads its static
        // projections from here and its history projections from `view` —
        // so the scopes hold what the kernels actually read; the arena
        // zero-fills every take, making right-sizing pure memset bandwidth
        // saved on every request (~1 MB at serving geometry).
        let qkv_len = b * ns * d;
        // The per-row cross kernel keeps both admitted weight blocks.
        let cross_scores = match (ab.cross_view, rows == 1) {
            (false, _) => 0,
            (true, true) => b * ns * nd,
            (true, false) => 2 * b * ns * nd,
        };
        let mut e_s = ws.take(b * ns * d);
        let mut q = ws.take(qkv_len);
        let mut k = ws.take(qkv_len);
        let mut v = ws.take(qkv_len);
        let mut e_u = ws.take(if uniq_static { (1 + b) * d } else { 0 });
        let mut pu = ws.take(if uniq_static { (1 + b) * d } else { 0 });
        let mut scores = ws.take((b * ns * ns).max(cross_scores));
        let mut ctx = ws.take(b * (ns + nd) * d);
        let mut pool = ws.take(b * d);
        let mut normed = ws.take(b * d);
        let mut lin = ws.take(b * d);
        let mut hagg = ws.take(b * views * d);

        // Embedding layer (Eq. 5): PAD rows embed to exact zeros.
        self.gather_static(static_idx, d, &mut e_s);
        if uniq_static {
            // Unique static rows: the shared user row once, then each
            // candidate's row (static column 1 of every slice).
            e_u[..d].copy_from_slice(&e_s[..d]);
            for bi in 0..b {
                e_u[(1 + bi) * d..(2 + bi) * d]
                    .copy_from_slice(&e_s[(bi * 2 + 1) * d..(bi + 1) * 2 * d]);
            }
        }

        // Multi-view attention → pooling → shared FFN, each view writing its
        // block of the aggregated representation (Eq. 17) directly.
        let mut bufs = ViewBufs {
            q: &mut q,
            k: &mut k,
            v: &mut v,
            scores: &mut scores,
            ctx: &mut ctx,
            pool: &mut pool,
            normed: &mut normed,
            lin: &mut lin,
            hagg: &mut hagg,
        };
        // Static rows → the leading `[b, ns, d]` Q/K/V blocks under
        // attention view `av`'s weights, which the static and the cross
        // view both start from: unique-row projections broadcast in place,
        // or all `b·ns` rows.
        let project_static = |av: usize, pu: &mut [f32], bufs: &mut ViewBufs<'_>| {
            let dsts = [&mut *bufs.q, &mut *bufs.k, &mut *bufs.v];
            if uniq_static {
                self.project_static_unique(&e_u, av, b, d, pu, dsts);
            } else {
                for (wi, dst) in dsts.into_iter().enumerate() {
                    self.project_view(&e_s, av, wi, b * ns, dst);
                }
            }
        };
        let mut ffn_idx = 0usize;
        let mut view_col = 0usize;
        if ab.static_view {
            // Dense unmasked attention, replaying the tape's pipeline.
            project_static(0, &mut pu, &mut bufs);
            attention_into(bufs.q, bufs.k, bufs.v, None, scale, b, ns, d, bufs.scores, bufs.ctx);
            self.pool_ffn_write(ffn_idx, b, ns, d, None, view_col, views, &mut bufs);
            ffn_idx += 1;
            view_col += d;
        }
        if ab.dynamic_view {
            // The history stage already ran this view down to its pooled
            // vector: copy each row's into its column block.
            for bi in 0..b {
                let col = bi * views * d + view_col;
                bufs.hagg[col..col + d]
                    .copy_from_slice(&view.dyn_pooled[hrow(bi) * d..(hrow(bi) + 1) * d]);
            }
            ffn_idx += 1;
            view_col += d;
        }
        if ab.cross_view {
            // No stack [E°; E˙]: projection is row-local, so the static rows
            // land in the leading blocks of Q/K/V, the history rows sit in
            // the view's `rows` blocks of `[nd, d]`, and the structured
            // kernels read both in place — bit-identical to the dense masked
            // pipeline over the spliced stack (pinned in the tensor crate)
            // and to the tape's cross-attention node, minus the splice
            // copies and the ~83 % of scores the cross mask discards.
            //
            // One history *and* one user: the `[1 + b, d]` unique
            // projections go to the kernel as they are — row 0 the static
            // row every slice shares, rows `1..` each candidate's own.
            let shared_user = uniq_static && rows == 1;
            if shared_user {
                let dsts = [&mut *bufs.q, &mut *bufs.k, &mut *bufs.v];
                for (wi, dst) in dsts.into_iter().enumerate() {
                    self.project_view(&e_u, 2, wi, 1 + b, dst);
                }
            } else {
                project_static(2, &mut pu, &mut bufs);
            }
            let stat = [&*bufs.q, &*bufs.k, &*bufs.v];
            let hist = [&view.hist_q[..], &view.hist_k[..], &view.hist_v[..]];
            if rows == 1 {
                // Mixed-user groups share nothing on the static side.
                let (ns0, ns1) = if shared_user { (1, 1) } else { (0, ns) };
                attention_cross_shared_into(
                    stat.map(|x| &x[..ns0 * d]),
                    stat.map(|x| &x[ns0 * d..]),
                    hist,
                    scale,
                    [b, ns0, ns1, nd, d],
                    bufs.scores,
                    bufs.ctx,
                );
            } else {
                attention_cross_rows_into(
                    stat,
                    ns * d,
                    hist,
                    nd * d,
                    scale,
                    [b, ns, nd, d],
                    bufs.scores,
                    bufs.ctx,
                );
            }
            self.pool_ffn_write(
                ffn_idx,
                b,
                ns + nd,
                d,
                Some((&view.pad, ns)),
                view_col,
                views,
                &mut bufs,
            );
        }
        let hagg = bufs.hagg;

        // Output projection f = hagg·p (Eq. 18).
        let fout = &mut out[..b];
        fout.fill(0.0);
        matmul_nn_into(&hagg[..b * views * d], self.t(self.p).data(), fout, b, views * d, 1);

        // Linear terms (Eq. 4) and global bias, in the tape's association
        // order: (f + (lin° + lin˙)) + w₀.
        let w_static = self.t(self.w_static).data();
        let w0 = self.t(self.w0).data()[0];
        for (bi, f) in fout.iter_mut().enumerate() {
            let mut lin_s = 0.0f32;
            for &i in &static_idx[bi * ns..(bi + 1) * ns] {
                if i >= 0 {
                    lin_s += w_static[i as usize];
                }
            }
            *f = (*f + (lin_s + view.lin_d[hrow(bi)])) + w0;
        }
    }
}

impl Scorer for FrozenSeqFm {
    fn name(&self) -> &str {
        match self.precision {
            ScorerPrecision::Exact => "SeqFM[frozen]",
            ScorerPrecision::Fast => "SeqFM[frozen:fast]",
        }
    }

    fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32] {
        self.forward_split(batch, scratch, None);
        &scratch.out[..batch.len]
    }

    fn model_epoch(&self) -> ModelEpoch {
        self.params.epoch()
    }

    fn supports_history_view(&self) -> bool {
        true
    }

    fn build_history_view(&self, dyn_row: &[i64], scratch: &mut Scratch) -> Option<HistoryView> {
        Some(self.history_view(dyn_row, scratch))
    }

    fn score_with_view_into(
        &self,
        batch: &Batch,
        view: &HistoryView,
        scratch: &mut Scratch,
        out: &mut Vec<f32>,
    ) {
        self.forward_split(batch, scratch, Some(view));
        out.extend_from_slice(&scratch.out[..batch.len]);
    }
}

/// Embedding gather mirroring `Graph::gather`: zero rows for [`PAD`].
///
/// # Panics
/// Panics if an index is out of table range.
pub(crate) fn gather_rows(table: &Tensor, idx: &[i64], d: usize, out: &mut [f32]) {
    let rows = table.shape().dim(0);
    debug_assert_eq!(table.shape().dim(1), d);
    let out = &mut out[..idx.len() * d];
    out.fill(0.0);
    for (slot, &i) in idx.iter().enumerate() {
        if i < 0 {
            continue;
        }
        let i = i as usize;
        assert!(i < rows, "gather index {i} out of range ({rows} rows)");
        out[slot * d..(slot + 1) * d].copy_from_slice(&table.data()[i * d..(i + 1) * d]);
    }
}

/// Intra-view pooling (Eq. 14), mirroring `SeqFm::pool` exactly: plain mean
/// over rows, or — with the masked-pooling extension — an indicator-weighted
/// sum rescaled by the true sequence length. `pads` holds one padding count
/// per slice, or a single count every slice shares (a one-row history side).
fn pool_into(
    h: &[f32],
    b: usize,
    n: usize,
    d: usize,
    masked: bool,
    pads: Option<(&[usize], usize)>,
    out: &mut [f32],
) {
    let h = &h[..b * n * d];
    let out = &mut out[..b * d];
    match (masked, pads) {
        (true, Some((pads, n_fixed))) => {
            for bi in 0..b {
                let pad = if pads.len() == 1 { pads[0] } else { pads[bi] };
                let inv = 1.0 / ((n - pad) as f32).max(1.0);
                let o = &mut out[bi * d..(bi + 1) * d];
                o.fill(0.0);
                for r in 0..n {
                    let ind = if r >= n_fixed && r < n_fixed + pad { 0.0 } else { 1.0 };
                    let row = &h[(bi * n + r) * d..(bi * n + r + 1) * d];
                    for (ov, &hv) in o.iter_mut().zip(row) {
                        *ov += hv * ind;
                    }
                }
                for ov in o.iter_mut() {
                    *ov *= inv;
                }
            }
        }
        _ => {
            let nf = n as f32;
            for bi in 0..b {
                let o = &mut out[bi * d..(bi + 1) * d];
                o.fill(0.0);
                for r in 0..n {
                    let row = &h[(bi * n + r) * d..(bi * n + r + 1) * d];
                    for (ov, &hv) in o.iter_mut().zip(row) {
                        *ov += hv;
                    }
                }
                for ov in o.iter_mut() {
                    *ov /= nf;
                }
            }
        }
    }
}

/// One residual FFN layer (Eq. 15/16) on `h [b, d]` in place, mirroring
/// `ResidualFfnLayer::forward` with dropout off (inference).
#[allow(clippy::too_many_arguments)]
fn ffn_layer(
    h: &mut [f32],
    normed: &mut [f32],
    lin: &mut [f32],
    ln_scale: &[f32],
    ln_bias: &[f32],
    w: &[f32],
    bias: &[f32],
    b: usize,
    d: usize,
    residual: bool,
    layer_norm: bool,
) {
    let h = &mut h[..b * d];
    let normed = &mut normed[..b * d];
    let lin = &mut lin[..b * d];
    // LayerNorm (ablatable), mirroring `Graph::layer_norm`.
    let src: &[f32] = if layer_norm {
        for (row, orow) in h.chunks_exact(d).zip(normed.chunks_exact_mut(d)) {
            let mu = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let rs = 1.0 / (var + LN_EPS).sqrt();
            for ((&xi, o), (&sc, &bi)) in
                row.iter().zip(orow.iter_mut()).zip(ln_scale.iter().zip(ln_bias))
            {
                *o = (xi - mu) * rs * sc + bi;
            }
        }
        normed
    } else {
        h
    };
    // Linear + bias + ReLU.
    lin.fill(0.0);
    matmul_nn_into(src, w, lin, b, d, d);
    for row in lin.chunks_exact_mut(d) {
        for (o, &bv) in row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
    for o in lin.iter_mut() {
        *o = o.max(0.0);
    }
    // Residual connection (ablatable).
    if residual {
        for (hv, &lv) in h.iter_mut().zip(lin.iter()) {
            *hv += lv;
        }
    } else {
        h.copy_from_slice(lin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use crate::SeqModel;
    use seqfm_autograd::Graph;
    use seqfm_data::build_instance;

    fn layout() -> FeatureLayout {
        FeatureLayout { n_users: 6, n_items: 10 }
    }

    fn batch(max_seq: usize) -> Batch {
        let l = layout();
        Batch::try_from_instances(&[
            build_instance(&l, 0, 3, &[1, 2, 5], max_seq, 1.0),
            build_instance(&l, 2, 7, &[4], max_seq, 0.0),
            build_instance(&l, 5, 9, &[0, 1, 2, 3, 4, 5, 6, 7], max_seq, 1.0),
        ])
        .expect("valid batch")
    }

    fn graph_logits(model: &SeqFm, ps: &ParamStore, b: &Batch) -> Vec<f32> {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(77);
        let y = model.forward(&mut g, ps, b, false, &mut rng);
        g.value(y).data().to_vec()
    }

    fn all_variants() -> Vec<(&'static str, Ablation)> {
        let mut v = Ablation::table5_variants();
        v.extend(Ablation::extension_variants());
        v
    }

    #[test]
    fn frozen_matches_graph_bit_for_bit_across_all_variants() {
        for (name, ab) in all_variants() {
            let cfg =
                SeqFmConfig { d: 8, max_seq: 6, dropout: 0.0, ablation: ab, ..Default::default() };
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(3);
            let model = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
            let b = batch(6);
            let expect = graph_logits(&model, &ps, &b);
            let frozen = FrozenSeqFm::freeze(&model, &ps);
            let mut scratch = Scratch::new();
            let got = frozen.score(&b, &mut scratch);
            assert_eq!(got.len(), b.len);
            for (i, (g, f)) in expect.iter().zip(got).enumerate() {
                assert_eq!(g.to_bits(), f.to_bits(), "{name}: logit {i} diverges ({g} vs {f})");
            }
        }
    }

    /// A serving-sized candidate-expansion batch: 100 candidates for one
    /// user over one history.
    fn slate_layout() -> FeatureLayout {
        FeatureLayout { n_users: 6, n_items: 120 }
    }

    fn slate(hist: &[u32], max_seq: usize) -> Batch {
        let l = slate_layout();
        let insts: Vec<_> =
            (0..100u32).map(|c| build_instance(&l, 3, (c * 7) % 120, hist, max_seq, 0.0)).collect();
        Batch::try_from_instances(&insts).expect("valid batch")
    }

    #[test]
    fn shared_history_fast_path_is_bit_identical_too() {
        // Candidate-expansion shape: every row repeats one user history and
        // only the candidate differs — the branch that reuses the dynamic
        // view and runs the structured cross view must still match the
        // graph exactly: 100 candidates, every variant, with and without a
        // cached view, on an ordinary window and the degenerate ones (all
        // PAD, one item repeated to capacity, shorter than the window).
        let histories: [&[u32]; 4] = [&[1, 2, 5, 8, 3, 9], &[], &[7; 6], &[1, 2, 5, 8]];
        for (name, ab) in all_variants() {
            let cfg =
                SeqFmConfig { d: 8, max_seq: 6, dropout: 0.0, ablation: ab, ..Default::default() };
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(17);
            let model = SeqFm::new(&mut ps, &mut rng, &slate_layout(), cfg);
            let frozen = FrozenSeqFm::freeze(&model, &ps);
            let mut scratch = Scratch::new();
            for hist in histories {
                let shared = slate(hist, 6);
                let expect = graph_logits(&model, &ps, &shared);
                let view = frozen.history_view(&shared.dyn_idx[..6], &mut scratch);
                let inline = frozen.score(&shared, &mut scratch).to_vec();
                let cached = frozen.score_with_view(&shared, &view, &mut scratch).to_vec();
                for (i, g) in expect.iter().enumerate() {
                    for (path, f) in [("score", inline[i]), ("score_with_view", cached[i])] {
                        assert_eq!(
                            g.to_bits(),
                            f.to_bits(),
                            "{name}, history {hist:?}, {path}: logit {i} diverges ({g} vs {f})"
                        );
                    }
                }
            }
        }
    }

    /// θ′ as plain `f32`: a copy of `ps` with every parameter the `Fast`
    /// profile quantises replaced by the effective value it reads.
    fn quantised_store(ps: &ParamStore, d: usize) -> ParamStore {
        use crate::precision::{f16_effective, QuantMatrix};
        let mut qs = ps.worker_clone();
        for id in qs.ids() {
            let name = qs.param(id).name().to_string();
            let t = qs.value(id);
            let eff = if name.starts_with("seqfm.emb_") || name.starts_with("seqfm.attn_") {
                f16_effective(t)
            } else if name.starts_with("seqfm.ffn") && name.ends_with(".lin.w") {
                QuantMatrix::from_tensor(t, d).eff
            } else {
                continue;
            };
            qs.value_mut(id).data_mut().copy_from_slice(&eff);
        }
        qs
    }

    #[test]
    fn fast_is_exact_on_the_quantised_parameters_bit_for_bit() {
        // The whole contract of `Fast`: same kernels, quantised parameters.
        // Freeze θ′ as an ordinary `Exact` model and the two must agree on
        // every bit, for per-row histories, a shared-history batch, and a
        // cached view.
        for (name, ab) in all_variants() {
            let cfg =
                SeqFmConfig { d: 8, max_seq: 6, dropout: 0.0, ablation: ab, ..Default::default() };
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(29);
            let model = SeqFm::new(&mut ps, &mut rng, &slate_layout(), cfg);
            let fast = FrozenSeqFm::freeze(&model, &ps).with_precision(ScorerPrecision::Fast);
            let exact_q = FrozenSeqFm::freeze(&model, &quantised_store(&ps, cfg.d));
            let exact = FrozenSeqFm::freeze(&model, &ps);
            let (mut sf, mut sq) = (Scratch::new(), Scratch::new());

            let (per_row, shared) = (batch(6), slate(&[1, 2, 5, 8], 6));
            let vf = fast.history_view(&shared.dyn_idx[..6], &mut sf);
            let vq = exact_q.history_view(&shared.dyn_idx[..6], &mut sq);
            let got = [
                fast.score(&per_row, &mut sf).to_vec(),
                fast.score(&shared, &mut sf).to_vec(),
                fast.score_with_view(&shared, &vf, &mut sf).to_vec(),
            ];
            let want = [
                exact_q.score(&per_row, &mut sq).to_vec(),
                exact_q.score(&shared, &mut sq).to_vec(),
                exact_q.score_with_view(&shared, &vq, &mut sq).to_vec(),
            ];
            for (shape, (g, w)) in
                ["per-row", "shared", "cached view"].iter().zip(got.iter().zip(&want))
            {
                assert_eq!(g.len(), w.len());
                for (i, (g, w)) in g.iter().zip(w).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{name}, {shape}: logit {i} ({g} vs {w})");
                }
            }
            // Not vacuous: quantisation moved the parameters.
            assert_ne!(got[1], exact.score(&shared, &mut sq), "{name}: θ′ == θ");
        }
    }

    #[test]
    fn non_finite_parameters_agree_with_the_graph_up_to_nan_payload() {
        // Graph and frozen run the same structured cross-view kernels, so
        // they agree on every logit — same bits, or NaN on both sides —
        // whatever the parameters hold, on the shared-history path, a
        // cached view and the per-row path alike. The last poison is the
        // case a dense masked cross view gets wrong: finite parameters
        // whose *blocked* static–static scores overflow to +∞ (`+∞ − ∞` is
        // NaN and takes the dense row with it). Blocked pairs are never
        // formed, so over an all-PAD history — every admitted score an
        // exact 0 — the logits stay finite on both sides.
        let l = slate_layout();
        let (emb, wq, wk) =
            ("seqfm.emb_static.table", "seqfm.attn_cross.wq.w", "seqfm.attn_cross.wk.w");
        type Poison<'a> = (&'a str, usize, f32); // parameter, row, value
        let poisons: [(&str, &[Poison]); 4] = [
            ("NaN item embedding", &[(emb, l.item_feature(35) as usize, f32::NAN)]),
            ("NaN wq entry", &[(wq, 0, f32::NAN)]),
            ("Inf user embedding", &[(emb, l.user_feature(3) as usize, f32::INFINITY)]),
            ("overflowing blocked scores", &[(wq, 0, 1e30), (wk, 0, 1e30)]),
        ];
        let mixed = Batch::try_from_instances(&[
            build_instance(&l, 3, 35, &[1, 2, 5, 8], 6, 0.0),
            build_instance(&l, 3, 7, &[], 6, 0.0),
            build_instance(&l, 1, 35, &[4], 6, 0.0),
        ])
        .expect("valid batch");
        for (what, entries) in poisons {
            for (name, ab) in all_variants() {
                let cfg = SeqFmConfig {
                    d: 8,
                    max_seq: 6,
                    dropout: 0.0,
                    ablation: ab,
                    ..Default::default()
                };
                let mut ps = ParamStore::new();
                let mut rng = StdRng::seed_from_u64(23);
                let model = SeqFm::new(&mut ps, &mut rng, &l, cfg);
                for &(param, row, value) in entries {
                    let id = ps.id_of(param).expect("parameter exists");
                    ps.value_mut(id).data_mut()[row * cfg.d] = value;
                }
                let frozen = FrozenSeqFm::freeze(&model, &ps);
                let mut scratch = Scratch::new();
                let agree = |path: &str, expect: &[f32], got: &[f32]| {
                    for (i, (g, f)) in expect.iter().zip(got).enumerate() {
                        assert!(
                            g.to_bits() == f.to_bits() || (g.is_nan() && f.is_nan()),
                            "{what}, {name}, {path}: logit {i} ({g} vs {f})"
                        );
                    }
                };
                for hist in [&[1u32, 2, 5, 8][..], &[]] {
                    let shared = slate(hist, 6);
                    let expect = graph_logits(&model, &ps, &shared);
                    let view = frozen.history_view(&shared.dyn_idx[..6], &mut scratch);
                    agree(
                        "cached view",
                        &expect,
                        frozen.score_with_view(&shared, &view, &mut scratch),
                    );
                    agree("shared history", &expect, frozen.score(&shared, &mut scratch));
                    if what == "overflowing blocked scores" && hist.is_empty() {
                        assert!(
                            expect.iter().all(|y| y.is_finite()),
                            "{name}: a blocked score leaked"
                        );
                    }
                }
                agree(
                    "per-row",
                    &graph_logits(&model, &ps, &mixed),
                    frozen.score(&mixed, &mut scratch),
                );
            }
        }
    }

    #[test]
    fn scratch_survives_geometry_changes() {
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let model = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
        let frozen = FrozenSeqFm::freeze(&model, &ps);
        let mut scratch = Scratch::new();
        // Big batch first, then a single-row batch, then big again: buffer
        // reuse must not leak stale values between calls.
        let big = batch(6);
        let first = frozen.score(&big, &mut scratch).to_vec();
        let l = layout();
        let one = Batch::try_from_instances(&[build_instance(&l, 1, 4, &[2, 8], 6, 1.0)])
            .expect("valid batch");
        let single = frozen.score(&one, &mut scratch).to_vec();
        assert_eq!(single.len(), 1);
        let again = frozen.score(&big, &mut scratch).to_vec();
        assert_eq!(first, again, "stale scratch state corrupted a batch");
        let expect = graph_logits(&model, &ps, &one);
        assert_eq!(expect[0].to_bits(), single[0].to_bits());
    }

    #[test]
    fn frozen_model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenSeqFm>();
        assert_send_sync::<Arc<FrozenSeqFm>>();
    }

    #[test]
    #[should_panic(expected = "missing from snapshot")]
    fn from_params_rejects_foreign_snapshot() {
        let ps = ParamStore::new();
        let _ = FrozenSeqFm::from_params(Arc::new(ps.freeze()), SeqFmConfig::default());
    }
}
