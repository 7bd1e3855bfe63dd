//! Graph-free SeqFM inference: [`FrozenSeqFm`].
//!
//! A `FrozenSeqFm` is built from a trained `(SeqFm, ParamStore)` pair — or
//! directly from a checkpoint blob — by snapshotting every parameter into an
//! immutable, `Arc`-shareable [`FrozenParams`]. Its forward pass calls the
//! kernels the graph forward pass's ops run
//! ([`SeqModel::forward`](crate::SeqModel::forward) on [`SeqFm`]), in the same
//! order: the gather, the projections, the three attention kernels, pooling,
//! LayerNorm, the bias adds and the linear terms each have one body in
//! `seqfm_tensor`, which the tape's op and this forward both call. What is
//! left here is orchestration (which rows are shared, which buffers are
//! used), with no tape nodes, no parameter clones, no RNG, and no per-call
//! allocations once the caller's [`Scratch`] is warm. Logits therefore match
//! the graph path **bit for bit**, which the tests assert.
//!
//! The forward is a short pipeline of stages. Everything derived from the
//! dynamic block alone is computed by one history stage (`build_history`)
//! into a one-history [`HistoryView`]: a view the caller cached and lends,
//! or the scratch's own, rebuilt once for each run of consecutive batch rows
//! that repeat one history (a candidate-expansion batch is one run). The
//! rest (`score_static_rows`) scores a run's static rows against that view
//! and runs top to bottom like [`SeqFm`]'s forward: gather static → static
//! view → dynamic view (a copy out of the view) → cross view → head. The
//! cross view runs the tape's cross kernel with one history under every row
//! (`h = 1, c = b`) and keeps no softmax weights (only the tape's backward
//! reads them); when the run repeats its user row too, that row is
//! shared as well, so the kernel computes the row's cross-view output and
//! every history row's score against it once per run, and each candidate
//! pays for its own row alone. None of that goes into the [`HistoryView`]:
//! it depends on the user, and a view is shared across users by window
//! content.

use crate::config::SeqFmConfig;
use crate::precision::ScorerPrecision;
use crate::scorer::{Scorer, Scratch};
use crate::view::HistoryView;
use crate::SeqFm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::{FrozenId, FrozenParams, ModelEpoch, ParamStore};
use seqfm_data::{Batch, FeatureLayout};
use seqfm_nn::attention_scale;
use seqfm_nn::checkpoint::{self, CheckpointError};
use seqfm_tensor::{
    attention_causal_into, attention_cross_into, attention_into, ew, matmul_nn_into, reduce,
    Tensor, Workspace,
};
use std::sync::Arc;

pub(crate) struct AttnIds {
    pub(crate) wq: FrozenId,
    pub(crate) wk: FrozenId,
    pub(crate) wv: FrozenId,
}

impl AttnIds {
    /// The Q, K and V projection ids, in that order.
    pub(crate) fn qkv(&self) -> [FrozenId; 3] {
        [self.wq, self.wk, self.wv]
    }
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
    /// The snapshot the forward and the bounds read: `params` itself, or
    /// the profile's transform of it (see [`crate::precision`]).
    pub(crate) served: Arc<FrozenParams>,
    pub(crate) emb_static: FrozenId,
    pub(crate) emb_dynamic: FrozenId,
    pub(crate) w_static: FrozenId,
    w_dynamic: FrozenId,
    pub(crate) w0: FrozenId,
    pub(crate) attn: [AttnIds; 3],
    pub(crate) ffn: Vec<FfnLayerIds>,
    pub(crate) p: FrozenId,
    pub(crate) precision: ScorerPrecision,
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
    /// implies (wrong depth or a non-SeqFM snapshot), or if one's shape does
    /// not fit the config (another width `d` or another set of views).
    pub fn from_params(params: Arc<FrozenParams>, cfg: SeqFmConfig) -> Self {
        cfg.validate();
        let d = cfg.d;
        // Names alone do not pin the geometry, and the kernels trust it: a
        // snapshot of another width or view set would serve wrong logits.
        let r = |name: &str, want: &[usize]| {
            let id = params.index_of(name).unwrap_or_else(|| {
                panic!("frozen SeqFM: parameter `{name}` missing from snapshot")
            });
            let got = params.value(id).shape();
            let got = got.dims();
            assert!(
                got == want,
                "frozen SeqFM: parameter `{name}` is {got:?}, config implies {want:?}"
            );
            id
        };
        // A table's row count is the feature layout's, which `cfg` does not
        // carry: only its width is checked.
        let table = |name: &str, width: usize| {
            let rows = params.index_of(name).map_or(0, |id| params.value(id).shape().dim(0));
            r(name, &[rows, width])
        };
        let attn_ids = |prefix: &str| AttnIds {
            wq: r(&format!("{prefix}.wq.w"), &[d, d]),
            wk: r(&format!("{prefix}.wk.w"), &[d, d]),
            wv: r(&format!("{prefix}.wv.w"), &[d, d]),
        };
        let ffn = (0..cfg.layers)
            .map(|j| FfnLayerIds {
                ln_scale: r(&format!("seqfm.ffn0.{j}.ln.scale"), &[d]),
                ln_bias: r(&format!("seqfm.ffn0.{j}.ln.bias"), &[d]),
                w: r(&format!("seqfm.ffn0.{j}.lin.w"), &[d, d]),
                b: r(&format!("seqfm.ffn0.{j}.lin.b"), &[d]),
            })
            .collect();
        FrozenSeqFm {
            emb_static: table("seqfm.emb_static.table", d),
            emb_dynamic: table("seqfm.emb_dynamic.table", d),
            w_static: table("seqfm.w_static.table", 1),
            w_dynamic: table("seqfm.w_dynamic.table", 1),
            w0: r("seqfm.w0", &[1]),
            attn: [
                attn_ids("seqfm.attn_static"),
                attn_ids("seqfm.attn_dynamic"),
                attn_ids("seqfm.attn_cross"),
            ],
            ffn,
            p: r("seqfm.p", &[cfg.ablation.active_views() * d, 1]),
            cfg,
            served: Arc::clone(&params),
            params,
            precision: ScorerPrecision::Exact,
        }
    }

    /// Attention projection `out[m,d] = e[m,d] · W[d,d]` with the served
    /// weight `w` (the tape's rank-3 `Linear::forward` reads its input as
    /// these same `m` rows; projections carry no bias). Per-row arithmetic
    /// is batch-independent, so a row's projection is the same bits whether
    /// it is computed here for a forward pass or for a bounds envelope.
    pub(crate) fn project_view(&self, e: &[f32], w: FrozenId, m: usize, out: &mut [f32]) {
        let d = self.cfg.d;
        let out = &mut out[..m * d];
        out.fill(0.0);
        matmul_nn_into(e, self.t(w).data(), out, m, d, d);
    }

    /// Attention view `view`'s Q, K and V projections of the `m` rows of
    /// `e`, into `q`, `k` and `v`.
    fn project_qkv(&self, view: usize, e: &[f32], m: usize, [q, k, v]: [&mut [f32]; 3]) {
        let a = &self.attn[view];
        self.project_view(e, a.wq, m, q);
        self.project_view(e, a.wk, m, k);
        self.project_view(e, a.wv, m, v);
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

    /// The shared parameter snapshot θ — under either profile (the
    /// forward reads the profile's served snapshot; see
    /// [`FrozenSeqFm::with_precision`]).
    pub fn params(&self) -> &Arc<FrozenParams> {
        &self.params
    }

    /// The [`ModelEpoch`] the underlying snapshot was stamped with —
    /// [`ModelEpoch::ZERO`] for plain offline freezes.
    pub fn epoch(&self) -> ModelEpoch {
        self.params.epoch()
    }

    /// A served parameter value.
    pub(crate) fn t(&self, id: FrozenId) -> &Tensor {
        self.served.value(id)
    }

    /// The post-attention tail of a view: intra-view mean pooling (Eq. 14)
    /// → the shared residual FFN (Eq. 15–16, dropout off) → `hagg` column
    /// write, on an already-computed context in `bufs.ctx`. Every view is
    /// "project Q/K/V, attend, then this", whichever attention entry point
    /// (dense, structured causal or structured cross) produced its context.
    /// Pooling, LayerNorm, the matmul and the bias add are the tape's own
    /// kernels; only the ReLU and the residual add are written here.
    fn pool_ffn_write(
        &self,
        b: usize,
        n: usize,
        view_col: usize,
        views: usize,
        bufs: &mut ViewBufs<'_>,
    ) {
        let (d, ab) = (self.cfg.d, self.cfg.ablation);
        let (h, rest) = bufs.ffn[..ViewBufs::ffn_len(b, d)].split_at_mut(b * d);
        let (normed, rest) = rest.split_at_mut(b * d);
        let (lin, rest) = rest.split_at_mut(b * d);
        let (mean, rstd) = rest.split_at_mut(b);
        reduce::mean_axis1_into(bufs.ctx, h, b, n, d);
        for layer in &self.ffn {
            let src: &[f32] = if ab.layer_norm {
                let (scale, bias) = (self.t(layer.ln_scale).data(), self.t(layer.ln_bias).data());
                ew::layer_norm_into(h, scale, bias, normed, mean, rstd);
                normed
            } else {
                h
            };
            lin.fill(0.0);
            matmul_nn_into(src, self.t(layer.w).data(), lin, b, d, d);
            ew::add_bias_rows_inplace(lin, self.t(layer.b).data());
            for (hv, &lv) in h.iter_mut().zip(lin.iter()) {
                let act = lv.max(0.0);
                *hv = if ab.residual { *hv + act } else { act };
            }
        }
        let stride = views * d;
        for (bi, row) in h.chunks_exact(d).enumerate() {
            bufs.hagg[bi * stride + view_col..bi * stride + view_col + d].copy_from_slice(row);
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
    /// The FFN's `[b, d]` activations, LayerNorm output and linear output,
    /// then its `[b]` row means and rstds: [`ViewBufs::ffn_len`] floats.
    ffn: &'a mut [f32],
    hagg: &'a mut [f32],
}

impl ViewBufs<'_> {
    fn ffn_len(b: usize, d: usize) -> usize {
        b * (3 * d + 2)
    }
}

impl FrozenSeqFm {
    /// The history stage of the forward pass — the only code that derives
    /// anything from a dynamic block. For one left-padded index row
    /// `dyn_row` it sums lin˙, gathers the dynamic embeddings, projects the
    /// cross view's history rows and runs the causal dynamic view down to
    /// its pooled `d`-vector, writing all of it into `view` in place (the
    /// view's buffers keep their capacity, so rebuilding a warm one
    /// allocates nothing).
    ///
    /// None of this depends on the candidates (Eq. 11–14), so a history's
    /// outputs are the same bits whether it is built for a cache or for a
    /// run of batch rows that repeat it.
    fn build_history(&self, dyn_row: &[i64], ws: &Workspace, view: &mut HistoryView) {
        let (d, nd) = (self.cfg.d, dyn_row.len());
        let ab = self.cfg.ablation;
        view.dyn_idx.clear();
        view.dyn_idx.extend_from_slice(dyn_row);
        view.nd = nd;
        view.d = d;

        // lin˙ (Eq. 4): the tape's gather of the width-1 table and its sum
        // over the window (0 for an empty one).
        let mut w_d = ws.take(nd);
        ew::gather_rows_into(self.t(self.w_dynamic).data(), 1, dyn_row, &mut w_d);
        reduce::sum_axis1_into(&w_d, std::slice::from_mut(&mut view.lin_d), 1, nd, 1);

        // An ablated view leaves its part of the representation empty.
        let hist_len = if ab.cross_view { nd * d } else { 0 };
        for dst in [&mut view.hist_q, &mut view.hist_k, &mut view.hist_v] {
            dst.resize(hist_len, 0.0);
        }
        view.dyn_pooled.resize(if ab.dynamic_view { d } else { 0 }, 0.0);
        if !(ab.dynamic_view || ab.cross_view) {
            return;
        }

        // Embedding layer (Eq. 5): PAD rows embed to exact zeros.
        let mut e_d = ws.take(nd * d);
        ew::gather_rows_into(self.t(self.emb_dynamic).data(), d, dyn_row, &mut e_d);

        if ab.cross_view {
            // Projection is row-local, so the cross view's history rows are
            // projected here, apart from the static rows they will attend
            // with, and the structured kernel reads both blocks in place.
            self.project_qkv(2, &e_d, nd, [&mut view.hist_q, &mut view.hist_k, &mut view.hist_v]);
        }
        if ab.dynamic_view {
            // The whole dynamic view collapses to one pooled `d`-vector:
            // `dyn_pooled` is the `[1, d]` aggregate of a one-view model,
            // written by the same tail as any other view's column block.
            let mut q = ws.take(nd * d);
            let mut k = ws.take(nd * d);
            let mut v = ws.take(nd * d);
            let mut scores = ws.take(nd * (nd + 1) / 2);
            let mut ctx = ws.take(nd * d);
            let mut ffn = ws.take(ViewBufs::ffn_len(1, d));
            let mut bufs = ViewBufs {
                q: &mut q,
                k: &mut k,
                v: &mut v,
                scores: &mut scores,
                ctx: &mut ctx,
                ffn: &mut ffn,
                hagg: &mut view.dyn_pooled,
            };
            // Causal attention through the tape node's own kernel: only the
            // lower triangle is kept.
            self.project_qkv(1, &e_d, nd, [&mut *bufs.q, &mut *bufs.k, &mut *bufs.v]);
            let scale = attention_scale(d);
            attention_causal_into(bufs.q, bufs.k, bufs.v, scale, [1, nd, d], bufs.scores, bufs.ctx);
            self.pool_ffn_write(1, nd, 0, 1, &mut bufs);
        }
    }

    /// Precomputes the history side of the forward pass for one
    /// left-padded dynamic index row: the dynamic view's pooled output, the
    /// cross view's history-row Q/K/V projections and the lin˙ term —
    /// everything a candidate-expansion batch over this
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
        self.build_history(dyn_row, &scratch.ws, &mut view);
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
            scratch.out.resize(len, 0.0);
            self.score_static_rows(&batch.static_idx, len, 2, view, &scratch.ws, &mut scratch.out);
            out.extend_from_slice(&scratch.out);
        }
    }

    /// The forward pass, one history at a time: the caller's cached
    /// [`HistoryView`], once it is checked against the batch, scores every
    /// row; otherwise each maximal run of consecutive rows that repeat one
    /// dynamic row gets that history built into the scratch's own view and
    /// its static rows scored against it.
    fn forward_split(&self, batch: &Batch, scratch: &mut Scratch, cached: Option<&HistoryView>) {
        let (b, ns, nd) = (batch.len, batch.n_static, batch.n_dynamic);
        // Disjoint field borrows: the arena hands out every kernel
        // temporary; `out` stays a plain buffer because the caller's
        // returned slice borrows it past the arena scopes' lifetime.
        let Scratch { out, ws, view: own, .. } = scratch;
        out.resize(b, 0.0);
        if let Some(view) = cached {
            // A view is tied to one exact dynamic row; serving stale
            // history silently would be the worst possible failure mode.
            assert_eq!(view.nd, nd, "history view covers nd={} but batch has {nd}", view.nd);
            // A short `dyn_idx` would pass the row check below vacuously.
            assert_eq!(batch.dyn_idx.len(), b * nd, "view lent to a batch without its rows");
            assert!(
                nd == 0 || batch.dyn_idx.chunks_exact(nd).all(|row| row == view.dyn_idx()),
                "history view does not match the batch's dynamic block"
            );
            self.score_static_rows(&batch.static_idx, b, ns, view, ws, out);
            return;
        }
        // A candidate-expansion batch repeats one history across every row
        // (and with `nd == 0` every row is the empty one): one run, one
        // build. A cached view is the same build memoised across requests.
        let dyn_row = |r: usize| &batch.dyn_idx[r * nd..(r + 1) * nd];
        let mut lo = 0;
        while lo < b {
            let hi = (lo + 1..b).find(|&r| dyn_row(r) != dyn_row(lo)).unwrap_or(b);
            self.build_history(dyn_row(lo), ws, own);
            let static_idx = &batch.static_idx[lo * ns..hi * ns];
            self.score_static_rows(static_idx, hi - lo, ns, own, ws, &mut out[lo..hi]);
            lo = hi;
        }
    }

    /// The candidate side of the forward pass, in [`SeqFm`]'s own order:
    /// static view → dynamic view → cross view → head, for `b` static rows
    /// of `ns` features each, all scored against the one history `view`
    /// holds, one logit per row into `out`.
    fn score_static_rows(
        &self,
        static_idx: &[i64],
        b: usize,
        ns: usize,
        view: &HistoryView,
        ws: &Workspace,
        out: &mut [f32],
    ) {
        let d = self.cfg.d;
        let ab = self.cfg.ablation;
        let views = ab.active_views();
        let scale = attention_scale(d);
        let nd = view.nd;
        assert_eq!(view.d, d, "history view built at width {} but model is {d}", view.d);

        // Candidate-expansion batches repeat the user feature in static
        // column 0 of every row: everything computed from that row alone is
        // computed once. Both views project the `1 + b` unique static rows
        // instead of all `2·b`: the static view spreads them into its
        // `[b, 2, d]` blocks, and the cross view passes them on as they are
        // and the kernel hoists the user row's whole attention. Projection
        // is row-local, so this is bit-identical per row.
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
        let mut e_s = ws.take(b * ns * d);
        let mut q = ws.take(qkv_len);
        let mut k = ws.take(qkv_len);
        let mut v = ws.take(qkv_len);
        let mut e_u = ws.take(if uniq_static { (1 + b) * d } else { 0 });
        let mut scores = ws.take(b * ns * ns);
        let mut ctx = ws.take(b * (ns + nd) * d);
        let mut ffn = ws.take(ViewBufs::ffn_len(b, d));
        let mut hagg = ws.take(b * views * d);
        let mut w_s = ws.take(b * ns);
        let mut lin_s = ws.take(b);

        // Embedding layer (Eq. 5): PAD rows embed to exact zeros.
        ew::gather_rows_into(self.t(self.emb_static).data(), d, static_idx, &mut e_s);
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
            ffn: &mut ffn,
            hagg: &mut hagg,
        };
        // Static rows → the leading rows of Q/K/V under attention view
        // `av`'s weights, which the static and the cross view both start
        // from: the `1 + b` unique rows, or all `b·ns`.
        let project_static = |av: usize, bufs: &mut ViewBufs<'_>| {
            let dsts = [&mut *bufs.q, &mut *bufs.k, &mut *bufs.v];
            if uniq_static {
                self.project_qkv(av, &e_u, 1 + b, dsts);
            } else {
                self.project_qkv(av, &e_s, b * ns, dsts);
            }
        };
        let mut view_col = 0usize;
        if ab.static_view {
            // Dense unmasked attention, replaying the tape's pipeline.
            project_static(0, &mut bufs);
            if uniq_static {
                // `[user, cand_0, …]` → `[b, 2, d]` blocks `[user, cand_bi]`
                // in place, last block first: every row is read before a
                // later block overwrites it.
                for x in [&mut *bufs.q, &mut *bufs.k, &mut *bufs.v] {
                    for bi in (0..b).rev() {
                        x.copy_within((1 + bi) * d..(2 + bi) * d, (2 * bi + 1) * d);
                        x.copy_within(..d, 2 * bi * d);
                    }
                }
            }
            attention_into(bufs.q, bufs.k, bufs.v, None, scale, b, ns, d, bufs.scores, bufs.ctx);
            self.pool_ffn_write(b, ns, view_col, views, &mut bufs);
            view_col += d;
        }
        if ab.dynamic_view {
            // The history stage already ran this view down to its pooled
            // vector: copy it into every row's column block.
            for row in bufs.hagg.chunks_exact_mut(views * d) {
                row[view_col..view_col + d].copy_from_slice(&view.dyn_pooled);
            }
            view_col += d;
        }
        if ab.cross_view {
            // No stack [E°; E˙]: projection is row-local, so the static rows
            // land in the leading blocks of Q/K/V, the history rows sit in
            // the view's `[nd, d]` blocks, and the structured kernel reads
            // both in place — bit-identical to the dense masked pipeline
            // over the spliced stack (pinned in the tensor crate), minus the
            // splice copies and the ~83 % of scores the cross mask discards.
            // The tape's cross-attention node runs this kernel too, with a
            // history per row.
            //
            // One user: the `[1 + b, d]` unique projections go to the kernel
            // as they are — row 0 the static row every slice shares, rows
            // `1..` each candidate's own. Mixed users share nothing on the
            // static side.
            project_static(2, &mut bufs);
            let (ns0, ns1) = if uniq_static { (1, 1) } else { (0, ns) };
            let stat = [&*bufs.q, &*bufs.k, &*bufs.v];
            attention_cross_into(
                stat.map(|x| &x[..ns0 * d]),
                stat.map(|x| &x[ns0 * d..]),
                [&view.hist_q[..], &view.hist_k[..], &view.hist_v[..]],
                scale,
                [1, b, ns0, ns1, nd, d],
                None,
                bufs.ctx,
            );
            self.pool_ffn_write(b, ns + nd, view_col, views, &mut bufs);
        }
        let hagg = bufs.hagg;

        // Output projection f = hagg·p (Eq. 18).
        let fout = &mut out[..b];
        fout.fill(0.0);
        matmul_nn_into(&hagg[..b * views * d], self.t(self.p).data(), fout, b, views * d, 1);

        // Linear terms (Eq. 4) and global bias, through the tape's kernels
        // and in its association order: (f + (lin° + lin˙)) + w₀.
        ew::gather_rows_into(self.t(self.w_static).data(), 1, &static_idx[..b * ns], &mut w_s);
        reduce::sum_axis1_into(&w_s, &mut lin_s, b, ns, 1);
        for (f, &ls) in fout.iter_mut().zip(lin_s.iter()) {
            *f += ls + view.lin_d;
        }
        ew::add_bias_rows_inplace(fout, self.t(self.w0).data());
    }
}

impl Scorer for FrozenSeqFm {
    fn name(&self) -> &str {
        self.precision.frozen_name()
    }

    fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32] {
        self.forward_split(batch, scratch, None);
        &scratch.out[..batch.len]
    }

    fn model_epoch(&self) -> ModelEpoch {
        self.params.epoch()
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

    #[test]
    fn frozen_matches_graph_bit_for_bit_across_all_variants() {
        for (name, ab) in Ablation::table5_variants() {
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
        for (name, ab) in Ablation::table5_variants() {
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
        // every bit, for a batch of distinct histories, a shared-history batch, and a
        // cached view.
        for (name, ab) in Ablation::table5_variants() {
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
                ["mixed", "shared", "cached view"].iter().zip(got.iter().zip(&want))
            {
                assert_eq!(g.len(), w.len());
                for (i, (g, w)) in g.iter().zip(w).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{name}, {shape}: logit {i} ({g} vs {w})");
                }
            }
            // Not vacuous: quantisation moved the parameters.
            assert_ne!(got[1], exact.score(&shared, &mut sq), "{name}: θ′ == θ");
            // Toggled back, the same model serves θ again.
            let back = fast.with_precision(ScorerPrecision::Exact);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (vb, ve) =
                (back.history_view(&vf.dyn_idx, &mut sf), exact.history_view(&vf.dyn_idx, &mut sq));
            for (shape, g, w) in [
                (
                    "mixed",
                    bits(back.score(&per_row, &mut sf)),
                    bits(exact.score(&per_row, &mut sq)),
                ),
                ("shared", bits(back.score(&shared, &mut sf)), bits(exact.score(&shared, &mut sq))),
                (
                    "cached view",
                    bits(back.score_with_view(&shared, &vb, &mut sf)),
                    bits(exact.score_with_view(&shared, &ve, &mut sq)),
                ),
            ] {
                assert_eq!(g, w, "{name}, {shape}: toggled back to Exact serves θ′");
            }
        }
    }

    #[test]
    fn non_finite_parameters_agree_with_the_graph_up_to_nan_payload() {
        // Graph and frozen run the same structured cross-view kernels, so
        // they agree on every logit — same bits, or NaN on both sides —
        // whatever the parameters hold, on the shared-history path, a
        // cached view and a batch of distinct histories alike. The last
        // poison is the case a dense masked cross view gets wrong: finite
        // parameters whose *blocked* static–static scores overflow to +∞
        // (`+∞ − ∞` is NaN and takes the dense row with it). Blocked pairs
        // are never formed, so over an all-PAD history — every admitted
        // score an exact 0 — the logits stay finite on both sides.
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
            for (name, ab) in Ablation::table5_variants() {
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
                    "mixed",
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

    /// A snapshot of the default model at `d = 8`, three views.
    fn snapshot_d8() -> Arc<FrozenParams> {
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let _ = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
        Arc::new(ps.freeze())
    }

    #[test]
    #[should_panic(expected = "`seqfm.ffn0.0.ln.scale` is [8], config implies [4]")]
    fn from_params_rejects_a_snapshot_of_another_width() {
        let cfg = SeqFmConfig { d: 4, max_seq: 6, ..Default::default() };
        let _ = FrozenSeqFm::from_params(snapshot_d8(), cfg);
    }

    #[test]
    #[should_panic(expected = "`seqfm.p` is [24, 1], config implies [16, 1]")]
    fn from_params_rejects_a_snapshot_of_another_view_set() {
        let ablation = Ablation { static_view: false, ..Default::default() };
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ablation, ..Default::default() };
        let _ = FrozenSeqFm::from_params(snapshot_d8(), cfg);
    }
}
