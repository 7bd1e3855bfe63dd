//! Sound per-block score upper bounds for full-catalog retrieval.
//!
//! Retrieval scans the item catalog in blocks; a block whose **upper bound**
//! is provably below the current k-th best score cannot contribute to the
//! final top-K and can skip the attention term entirely. The bound here is
//! *sound by construction* — for every item `c` in the block,
//! `score(c) <= block_upper_bound(..)` — so pruning never changes the
//! retrieved set, and surviving logits stay bit-identical to a brute-force
//! scan (block composition never affects per-row arithmetic).
//!
//! ## Why the bound is sound
//!
//! SeqFM's logit decomposes (Eq. 4/17/18) as
//!
//! ```text
//! f(c) = Σ_views  pooled_view(c) · p_view  +  lin°(u) + lin°(c) + lin˙ + w₀
//! ```
//!
//! Each view's pooled vector is produced by attention → mean-pool → FFN:
//!
//! * **Attention rows are convex combinations of V rows** (softmax weights
//!   are non-negative and sum to one over whichever positions the mask
//!   admits), so every attention output lies coordinate-wise inside the
//!   envelope `[min, max]` of the view's V-projected input rows. Mean
//!   pooling is again convex, so the pooled vector stays inside the same
//!   envelope.
//! * The per-view V rows split into a **query part** (the user's static
//!   feature, the history rows) and an **item part** (the candidate's
//!   static feature). [`ItemBlockStats`] holds the coordinate-wise envelope
//!   of the item parts over a block, computed at index build with the same
//!   `f32` projection kernel the forward pass runs — the envelope is exact
//!   for the values the forward actually sees.
//! * The FFN is propagated through **interval arithmetic in `f64`**
//!   (layer-norm via a refined deviation-interval analysis, linear layers
//!   via sign-aware interval matmul, ReLU and residual exactly), and the
//!   final projection takes the sign-aware maximum of each coordinate
//!   interval against `p`.
//! * The **dynamic view** does not depend on the candidate at all; its
//!   contribution is evaluated *exactly* per query from the cached
//!   [`HistoryView`], not bounded.
//!
//! `f32` rounding in the real forward (softmax weights summing to 1 ± ε,
//! accumulation order) is absorbed by widening every leaf interval and the
//! final bound by a relative + absolute slack that is orders of magnitude
//! above the achievable drift at these dimensions — a margin the
//! Monte-Carlo test below exercises across every Table-V variant.

use crate::frozen::FrozenSeqFm;
use crate::view::HistoryView;
use seqfm_data::FeatureLayout;
use seqfm_nn::LN_EPS;
use seqfm_tensor::ew;

/// Per-coordinate leaf-interval widening (absolute / relative), covering
/// `f32` rounding of projection, attention, and pooling.
const COORD_SLACK: f64 = 1e-4;
/// Final-bound widening (absolute / relative), covering the output
/// projection's and linear terms' `f32` accumulation.
const FINAL_SLACK: f64 = 1e-3;

/// Build-time envelope of one catalog block's candidate-dependent score
/// terms: the coordinate-wise `[min, max]` of the items' V projections per
/// attention view, and the largest item linear weight. The block is any set
/// of item ids — retrieval indexes sort the catalog by linear partial score
/// before blocking, so blocks need not be contiguous id ranges.
///
/// Built once per block by [`FrozenSeqFm::item_block_stats`]; independent of
/// any query.
#[derive(Clone, Debug)]
pub struct ItemBlockStats {
    /// `max_c lin°(c)` over the block (item linear weights are exact `f32`).
    pub lin_max: f32,
    /// Static-view V-projection envelope, `[d]` lows (empty when the static
    /// view is ablated).
    pub vs_min: Vec<f32>,
    /// Static-view V-projection envelope, `[d]` highs.
    pub vs_max: Vec<f32>,
    /// Cross-view V-projection envelope, `[d]` lows (empty when the cross
    /// view is ablated).
    pub vx_min: Vec<f32>,
    /// Cross-view V-projection envelope, `[d]` highs.
    pub vx_max: Vec<f32>,
}

/// Query-side bound terms, computed once per retrieval from the user's
/// cached [`HistoryView`] by [`FrozenSeqFm::query_bounds`] and shared across
/// every block's [`FrozenSeqFm::block_upper_bound`] call.
#[derive(Clone, Debug)]
pub struct QueryBounds {
    /// The user feature's static-view V row (empty when ablated).
    vs_user: Vec<f32>,
    /// Cross-view envelope of the query-side rows: the user feature's V row
    /// merged with every history row's V projection (empty when ablated).
    vx_lo: Vec<f32>,
    /// Cross-view query-side envelope, highs.
    vx_hi: Vec<f32>,
    /// Exact dynamic-view contribution `dyn_pooled · p_dyn` (`f64`); the
    /// dynamic view never depends on the candidate.
    dyn_exact: f64,
    /// `lin°(user) + lin˙ + w₀`, exact in `f64`.
    lin_base: f64,
    /// Sound spectral-norm upper bounds, `spec[layer]`, for each shared-FFN
    /// layer's effective matrix (`scale∘W` under layer norm, `W` without).
    /// Model constants, but recomputed per retrieval here — a few `d³`
    /// multiplies, negligible next to scoring even one block.
    spec: Vec<f64>,
}

impl FrozenSeqFm {
    /// Computes the candidate-side bound envelope for the catalog block
    /// holding exactly the items in `items` (any ids, any order), using the
    /// same `f32` projection kernels as the forward pass (the envelope is
    /// exact for the V rows scoring will see).
    ///
    /// # Panics
    /// Panics if `items` is empty or any id is outside `layout`'s item
    /// range.
    pub fn item_block_stats(&self, layout: &FeatureLayout, items: &[u32]) -> ItemBlockStats {
        assert!(!items.is_empty(), "catalog block must hold at least one item");
        let d = self.config().d;
        let ab = self.config().ablation;
        let n = items.len();
        let idx: Vec<i64> = items
            .iter()
            .map(|&c| {
                assert!((c as usize) < layout.n_items, "item {c} outside layout");
                layout.item_feature(c)
            })
            .collect();
        let mut e = vec![0.0f32; n * d];
        ew::gather_rows_into(self.t(self.emb_static).data(), d, &idx, &mut e);
        let mut proj = vec![0.0f32; n * d];
        let mut envelope = |view: usize| -> (Vec<f32>, Vec<f32>) {
            self.project_view(&e, self.attn[view].wv, n, &mut proj);
            let mut lo = vec![f32::INFINITY; d];
            let mut hi = vec![f32::NEG_INFINITY; d];
            for row in proj[..n * d].chunks_exact(d) {
                for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
                    *l = l.min(v);
                    *h = h.max(v);
                }
            }
            (lo, hi)
        };
        let (vs_min, vs_max) = if ab.static_view { envelope(0) } else { (Vec::new(), Vec::new()) };
        let (vx_min, vx_max) = if ab.cross_view { envelope(2) } else { (Vec::new(), Vec::new()) };
        let ws = self.t(self.w_static).data();
        let lin_max = idx.iter().map(|&i| ws[i as usize]).fold(f32::NEG_INFINITY, f32::max);
        ItemBlockStats { lin_max, vs_min, vs_max, vx_min, vx_max }
    }

    /// Computes the query-side bound terms for `user` and its cached
    /// history `view` — everything candidate-independent, shared by every
    /// block bound of one retrieval.
    ///
    /// # Panics
    /// Panics if `user` is outside `layout` or `view` was built at another
    /// width.
    pub fn query_bounds(
        &self,
        layout: &FeatureLayout,
        user: u32,
        view: &HistoryView,
    ) -> QueryBounds {
        assert!((user as usize) < layout.n_users, "user {user} outside layout");
        let d = self.config().d;
        assert_eq!(view.d, d, "history view built at width {} but model is {d}", view.d);
        let ab = self.config().ablation;
        let uf = [layout.user_feature(user)];
        let mut e = vec![0.0f32; d];
        ew::gather_rows_into(self.t(self.emb_static).data(), d, &uf, &mut e);

        let mut vs_user = Vec::new();
        if ab.static_view {
            vs_user = vec![0.0f32; d];
            self.project_view(&e, self.attn[0].wv, 1, &mut vs_user);
        }

        let (mut vx_lo, mut vx_hi) = (Vec::new(), Vec::new());
        if ab.cross_view {
            let mut vx_user = vec![0.0f32; d];
            self.project_view(&e, self.attn[2].wv, 1, &mut vx_user);
            vx_lo = vx_user.clone();
            vx_hi = vx_user;
            // The cached history V projections are the forward pass's own
            // rows (bit-for-bit): PAD rows are exact zeros and participate.
            for row in view.hist_v.chunks_exact(d) {
                for ((l, h), &v) in vx_lo.iter_mut().zip(vx_hi.iter_mut()).zip(row) {
                    *l = l.min(v);
                    *h = h.max(v);
                }
            }
        }

        let mut dyn_exact = 0.0f64;
        if ab.dynamic_view {
            let col = usize::from(ab.static_view) * d;
            let p = self.t(self.p).data();
            for (&h, &pv) in view.dyn_pooled.iter().zip(&p[col..col + d]) {
                dyn_exact += h as f64 * pv as f64;
            }
        }

        let lin_base = self.t(self.w_static).data()[uf[0] as usize] as f64
            + view.lin_d as f64
            + self.t(self.w0).data()[0] as f64;
        let spec = self
            .ffn
            .iter()
            .map(|layer| {
                // The served weights, so the spectral bound covers exactly
                // what the forward's FFN multiplies.
                let w = self.t(layer.w).data();
                let m: Vec<f64> = if ab.layer_norm {
                    let scale = self.t(layer.ln_scale).data();
                    (0..d * d).map(|ij| scale[ij / d] as f64 * w[ij] as f64).collect()
                } else {
                    w.iter().map(|&x| x as f64).collect()
                };
                spec_ub(&m, d)
            })
            .collect();
        QueryBounds { vs_user, vx_lo, vx_hi, dyn_exact, lin_base, spec }
    }

    /// The static linear weight `lin°(c)` of one catalog item — the
    /// candidate's entire attention-free partial score, exposed so
    /// retrieval indexes can precompute it catalog-wide.
    ///
    /// # Panics
    /// Panics if `item` is outside `layout`.
    pub fn item_linear(&self, layout: &FeatureLayout, item: u32) -> f32 {
        assert!((item as usize) < layout.n_items, "item {item} outside layout");
        self.t(self.w_static).data()[layout.item_feature(item) as usize]
    }

    /// A sound upper bound on `score(c)` over every item `c` of the block
    /// described by `stats`, for the query described by `q`: no item in the
    /// block can score above the returned value (NaN logits rank below
    /// everything and need no bound).
    pub fn block_upper_bound(&self, q: &QueryBounds, stats: &ItemBlockStats) -> f32 {
        let d = self.config().d;
        let ab = self.config().ablation;
        let p = self.t(self.p).data();
        let mut ub = q.lin_base + stats.lin_max as f64;
        let mut lo = vec![0.0f64; d];
        let mut hi = vec![0.0f64; d];
        let mut col = 0usize;
        if ab.static_view {
            for i in 0..d {
                lo[i] = q.vs_user[i].min(stats.vs_min[i]) as f64;
                hi[i] = q.vs_user[i].max(stats.vs_max[i]) as f64;
            }
            widen(&mut lo, &mut hi);
            let (c, r) = self.ffn_interval(&q.spec, &mut lo, &mut hi);
            ub += seg_bound(&lo, &hi, &c, r, &p[col..col + d]);
            col += d;
        }
        if ab.dynamic_view {
            ub += q.dyn_exact;
            col += d;
        }
        if ab.cross_view {
            for i in 0..d {
                lo[i] = q.vx_lo[i].min(stats.vx_min[i]) as f64;
                hi[i] = q.vx_hi[i].max(stats.vx_max[i]) as f64;
            }
            widen(&mut lo, &mut hi);
            let (c, r) = self.ffn_interval(&q.spec, &mut lo, &mut hi);
            ub += seg_bound(&lo, &hi, &c, r, &p[col..col + d]);
        }
        let _ = col;
        (ub + FINAL_SLACK + FINAL_SLACK * ub.abs()) as f32
    }

    /// Propagates a coordinate interval through the shared FFN stack
    /// (layer norm → linear+bias → ReLU → residual, per the ablation), in
    /// `f64` interval arithmetic, widening after each layer to absorb the
    /// real forward's `f32` rounding. Returns an **ℓ2 ball** `(center, r)`
    /// that also contains the output — the caller takes the tighter of box
    /// and ball against the projection vector.
    ///
    /// The box alone is loose: interval matmul and the final dot product
    /// both assume every coordinate sits at its worst corner simultaneously,
    /// costing a `√d`-ish factor each. The ball recovers it two ways:
    ///
    /// * Under layer norm the normalised vector `z` satisfies
    ///   `Σ z_i² = d·σ²/(σ²+ε) ≤ d` **exactly**, so the linear output lies
    ///   in a ball of radius `√d·σ(scale∘W)` around `b + Wᵀ ln_bias` —
    ///   independent of how wide the input box is (this is what rescues the
    ///   degenerate case where the variance bracket collapses and the box
    ///   hits the `±√d` cap in every coordinate). Per column, the weaker
    ///   Cauchy–Schwarz form `±√d·‖scale∘w_col‖₂` is also intersected into
    ///   the box.
    /// * Without layer norm the incoming ball maps through the linear layer
    ///   with a sound spectral-norm bound (`q.spec`), ReLU is 1-Lipschitz in
    ///   ℓ2 (center clamps, radius unchanged), and residual adds centers and
    ///   radii. The box is intersected with the ball per coordinate after
    ///   every layer, so each representation tightens the other.
    fn ffn_interval(&self, spec: &[f64], lo: &mut [f64], hi: &mut [f64]) -> (Vec<f64>, f64) {
        let d = lo.len();
        let cap = (d as f64).sqrt();
        let ab = self.config().ablation;
        // Entry ball: box midpoint, radius = ℓ2 norm of the half-widths
        // (the farthest corner) — a lossless box→ball conversion.
        let mut center: Vec<f64> = lo.iter().zip(hi.iter()).map(|(l, h)| 0.5 * (l + h)).collect();
        let mut rad =
            lo.iter().zip(hi.iter()).map(|(l, h)| 0.25 * (h - l) * (h - l)).sum::<f64>().sqrt();
        let mut nlo = vec![0.0f64; d];
        let mut nhi = vec![0.0f64; d];
        let mut llo = vec![0.0f64; d];
        let mut lhi = vec![0.0f64; d];
        let mut bc = vec![0.0f64; d];
        for (li, layer) in self.ffn.iter().enumerate() {
            let mut ln_params: Option<(&[f32], &[f32])> = None;
            let (src_lo, src_hi): (&[f64], &[f64]) = if ab.layer_norm {
                let scale = self.t(layer.ln_scale).data();
                let bias = self.t(layer.ln_bias).data();
                ln_interval(lo, hi, scale, bias, &mut nlo, &mut nhi);
                ln_params = Some((scale, bias));
                (&nlo, &nhi)
            } else {
                (lo, hi)
            };
            let w = self.t(layer.w).data();
            let b = self.t(layer.b).data();
            for j in 0..d {
                let mut alo = b[j] as f64;
                let mut ahi = alo;
                for i in 0..d {
                    let wij = w[i * d + j] as f64;
                    let (x, y) = (src_lo[i] * wij, src_hi[i] * wij);
                    alo += x.min(y);
                    ahi += x.max(y);
                }
                if let Some((scale, bias)) = ln_params {
                    let mut c = b[j] as f64;
                    let mut rad2 = 0.0f64;
                    for i in 0..d {
                        let wij = w[i * d + j] as f64;
                        c += bias[i] as f64 * wij;
                        let sw = scale[i] as f64 * wij;
                        rad2 += sw * sw;
                    }
                    let r = cap * rad2.sqrt();
                    // Both bounds are sound, so their intersection is too.
                    alo = alo.max(c - r);
                    ahi = ahi.min(c + r);
                }
                // ReLU.
                llo[j] = alo.max(0.0);
                lhi[j] = ahi.max(0.0);
            }
            // Ball through the same layer.
            let br = if let Some((_, bias)) = ln_params {
                for (j, c) in bc.iter_mut().enumerate() {
                    let mut s = b[j] as f64;
                    for (i, &bi) in bias.iter().enumerate() {
                        s += bi as f64 * w[i * d + j] as f64;
                    }
                    *c = s;
                }
                cap * spec[li]
            } else {
                for (j, c) in bc.iter_mut().enumerate() {
                    let mut s = b[j] as f64;
                    for (i, &ci) in center.iter().enumerate() {
                        s += ci * w[i * d + j] as f64;
                    }
                    *c = s;
                }
                rad * spec[li]
            };
            // ReLU is 1-Lipschitz in ℓ2: clamp the center, keep the radius.
            for c in bc.iter_mut() {
                *c = c.max(0.0);
            }
            if ab.residual {
                for i in 0..d {
                    lo[i] += llo[i];
                    hi[i] += lhi[i];
                    center[i] += bc[i];
                }
                rad += br;
            } else {
                lo.copy_from_slice(&llo);
                hi.copy_from_slice(&lhi);
                center.copy_from_slice(&bc);
                rad = br;
            }
            widen(lo, hi);
            let cmax = center.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
            rad += COORD_SLACK * (1.0 + cmax + rad);
            // Box ∩ ball, per coordinate.
            for i in 0..d {
                lo[i] = lo[i].max(center[i] - rad);
                hi[i] = hi[i].min(center[i] + rad);
            }
        }
        (center, rad)
    }
}

/// Widens an interval by [`COORD_SLACK`] (absolute + relative) per
/// coordinate — the margin for the `f32` forward's rounding.
fn widen(lo: &mut [f64], hi: &mut [f64]) {
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let w = COORD_SLACK + COORD_SLACK * l.abs().max(h.abs());
        *l -= w;
        *h += w;
    }
}

/// Sign-aware upper bound of `x · p` over `x` in the coordinate box
/// `[lo, hi]`.
fn seg_upper(lo: &[f64], hi: &[f64], p: &[f32]) -> f64 {
    lo.iter()
        .zip(hi)
        .zip(p)
        .map(|((&l, &h), &pv)| {
            let pv = pv as f64;
            (l * pv).max(h * pv)
        })
        .sum()
}

/// Upper bound of `x · p` over `x` in box `[lo, hi]` **and** in the ℓ2 ball
/// `(center, rad)` — the tighter of the two sound bounds (the ball side is
/// Cauchy–Schwarz: `x·p ≤ center·p + rad·‖p‖₂`).
fn seg_bound(lo: &[f64], hi: &[f64], center: &[f64], rad: f64, p: &[f32]) -> f64 {
    let box_ub = seg_upper(lo, hi, p);
    let mut dot = 0.0f64;
    let mut nrm2 = 0.0f64;
    for (&c, &pv) in center.iter().zip(p) {
        let pv = pv as f64;
        dot += c * pv;
        nrm2 += pv * pv;
    }
    box_ub.min(dot + rad * nrm2.sqrt())
}

/// A sound upper bound on the spectral norm `σ(M)` of a `d×d` matrix:
/// `σ(M)⁸ = λmax((MᵀM)⁴) ≤ ‖(MᵀM)⁴‖_∞`, since the induced ∞-norm (max
/// absolute row sum) dominates the spectral radius of the PSD Gram matrix.
/// Two Gram squarings bring the crude row-sum bound to within a few percent
/// of the true norm — unlike power iteration, which only bounds from below
/// and would be unsound here.
fn spec_ub(m: &[f64], d: usize) -> f64 {
    let mut g = vec![0.0f64; d * d];
    for j in 0..d {
        for k in 0..d {
            let mut s = 0.0f64;
            for i in 0..d {
                s += m[i * d + j] * m[i * d + k];
            }
            g[j * d + k] = s;
        }
    }
    let sq = |a: &[f64]| -> Vec<f64> {
        let mut out = vec![0.0f64; d * d];
        for i in 0..d {
            for k in 0..d {
                let aik = a[i * d + k];
                if aik != 0.0 {
                    for (o, &akj) in out[i * d..i * d + d].iter_mut().zip(&a[k * d..k * d + d]) {
                        *o += aik * akj;
                    }
                }
            }
        }
        out
    };
    let g4 = sq(&sq(&g));
    (0..d)
        .map(|i| g4[i * d..i * d + d].iter().map(|x| x.abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
        .powf(0.125)
}

/// Interval layer norm: maps the coordinate box `[lo, hi]` through
/// `(x - μ(x)) / √(σ²(x) + ε) * scale + bias` soundly.
///
/// The deviation `c_i = x_i - μ` lies in `[lo_i - μ_hi, hi_i - μ_lo]`; the
/// variance is bracketed from the per-coordinate squared-deviation
/// intervals; and the normalised value is additionally capped at `±√d`,
/// which holds unconditionally because `σ² ≥ c_i² / d`. The cap keeps the
/// bound finite and tight even when the input box is wide, which is what
/// lets blocks actually prune.
fn ln_interval(
    lo: &[f64],
    hi: &[f64],
    scale: &[f32],
    bias: &[f32],
    out_lo: &mut [f64],
    out_hi: &mut [f64],
) {
    let d = lo.len();
    let df = d as f64;
    let mu_lo = lo.iter().sum::<f64>() / df;
    let mu_hi = hi.iter().sum::<f64>() / df;
    let mut var_lo = 0.0f64;
    let mut var_hi = 0.0f64;
    for i in 0..d {
        let clo = lo[i] - mu_hi;
        let chi = hi[i] - mu_lo;
        let (a, b) = (clo * clo, chi * chi);
        if clo <= 0.0 && chi >= 0.0 {
            var_hi += a.max(b);
        } else {
            var_lo += a.min(b);
            var_hi += a.max(b);
        }
    }
    var_lo /= df;
    var_hi /= df;
    let eps = LN_EPS as f64;
    let inv_hi = 1.0 / (var_lo + eps).sqrt();
    let inv_lo = 1.0 / (var_hi + eps).sqrt();
    let cap = df.sqrt();
    for i in 0..d {
        let clo = lo[i] - mu_hi;
        let chi = hi[i] - mu_lo;
        let z_hi = if chi >= 0.0 { (chi * inv_hi).min(cap) } else { chi * inv_lo };
        let z_lo = if clo <= 0.0 { (clo * inv_hi).max(-cap) } else { clo * inv_lo };
        let (s, b) = (scale[i] as f64, bias[i] as f64);
        let (x, y) = (z_lo * s, z_hi * s);
        out_lo[i] = x.min(y) + b;
        out_hi[i] = x.max(y) + b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ablation, SeqFmConfig};
    use crate::scorer::Scratch;
    use crate::{Scorer, SeqFm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqfm_autograd::ParamStore;
    use seqfm_data::{build_instance, Batch};

    /// Monte-Carlo soundness: for random models across every variant, every
    /// item's true logit must sit at or below its block's upper bound — in
    /// whichever precision profile the model serves.
    fn dominance_check(precision: crate::ScorerPrecision) {
        let layout = FeatureLayout { n_users: 7, n_items: 41 };
        let max_seq = 6;
        let block = 8usize;
        for seed in [2u64, 9, 23] {
            for (name, ab) in Ablation::table5_variants() {
                let cfg =
                    SeqFmConfig { d: 8, max_seq, dropout: 0.0, ablation: ab, ..Default::default() };
                let mut ps = ParamStore::new();
                let mut rng = StdRng::seed_from_u64(seed);
                let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
                let frozen = FrozenSeqFm::freeze(&model, &ps).with_precision(precision);
                let mut scratch = Scratch::new();
                for (user, hist) in
                    [(0u32, vec![]), (3, vec![1u32, 4, 2]), (6, vec![0, 5, 7, 2, 40, 3])]
                {
                    let inst = build_instance(&layout, user, 0, &hist, max_seq, 0.0);
                    let row = &inst.dyn_idx;
                    let view = frozen.history_view(row, &mut scratch);
                    let q = frozen.query_bounds(&layout, user, &view);
                    let mut batch = Batch::default();
                    // A strided permutation of the catalog: blocks are
                    // non-contiguous, exactly like a lin-sorted index's.
                    let n = layout.n_items as u32;
                    let catalog: Vec<u32> = (0..n).map(|i| (i * 7) % n).collect();
                    for items in catalog.chunks(block) {
                        let stats = frozen.item_block_stats(&layout, items);
                        let ub = frozen.block_upper_bound(&q, &stats);
                        let mut out = Vec::new();
                        frozen.score_catalog_into(
                            &layout,
                            user,
                            items,
                            &view,
                            &mut batch,
                            &mut scratch,
                            &mut out,
                        );
                        for (&c, &s) in items.iter().zip(&out) {
                            assert!(
                                s <= ub,
                                "{name} seed {seed} user {user}: item {c} scores {s} above \
                                 block bound {ub}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_upper_bound_dominates_every_true_score() {
        dominance_check(crate::ScorerPrecision::Exact);
    }

    /// The same soundness chain under the `Fast` profile: the envelopes and
    /// spectral bounds read the quantized effective weights the forward
    /// pass reads, so the bound must dominate the `Fast` scorer's logits
    /// just as tightly.
    #[test]
    fn block_upper_bound_dominates_fast_profile_scores_too() {
        dominance_check(crate::ScorerPrecision::Fast);
    }

    /// The blocked catalog scorer must agree bit-for-bit with scoring the
    /// same candidate expansion through the plain batch path.
    #[test]
    fn score_catalog_into_matches_plain_expansion_bitwise() {
        let layout = FeatureLayout { n_users: 4, n_items: 13 };
        let cfg = SeqFmConfig { d: 8, max_seq: 5, dropout: 0.0, ..Default::default() };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
        let frozen = FrozenSeqFm::freeze(&model, &ps);
        let mut scratch = Scratch::new();
        let hist = [2u32, 7, 1];
        let insts: Vec<_> =
            (0..13).map(|c| build_instance(&layout, 1, c as u32, &hist, 5, 0.0)).collect();
        let plain = Batch::try_from_instances(&insts).expect("valid batch");
        let expect = frozen.score(&plain, &mut scratch).to_vec();
        let view = frozen.history_view(&plain.dyn_idx[..5], &mut scratch);
        let mut batch = Batch::default();
        let mut got = Vec::new();
        let ids: Vec<u32> = (0..13).collect();
        for (lo, hi) in [(0usize, 4usize), (4, 9), (9, 13)] {
            frozen.score_catalog_into(
                &layout,
                1,
                &ids[lo..hi],
                &view,
                &mut batch,
                &mut scratch,
                &mut got,
            );
        }
        assert_eq!(got.len(), expect.len());
        for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(e.to_bits(), g.to_bits(), "item {i} diverges ({e} vs {g})");
        }
    }
}
