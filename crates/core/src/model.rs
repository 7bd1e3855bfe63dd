//! The SeqFM model (paper §III, Fig. 2).
//!
//! Pipeline per prediction (Eq. 19):
//!
//! ```text
//! ŷ = w₀ + [ (G°w°)ᵀ ; (G˙w˙)ᵀ ]·1 + ⟨p, hagg⟩
//!                linear terms            multi-view factorization
//!
//! hagg = [ FFN(pool(SelfAttn(E°)))            — static view   (Eq. 8)
//!        ; FFN(pool(CausalSelfAttn(E˙)))      — dynamic view  (Eq. 9–10)
//!        ; FFN(pool(CrossSelfAttn(E°, E˙)))  ] — cross view    (Eq. 11–13)
//! ```
//!
//! with intra-view mean pooling (Eq. 14) and the *shared* l-layer residual
//! FFN (Eq. 15–16). Padding rows of the dynamic block embed to zero vectors
//! exactly as the paper specifies (§III).
//!
//! The static view records the dense attention chain
//! (`bmm_nt → scale → softmax → bmm`). The dynamic view's causal mask
//! (Eq. 10) admits only `j ≤ i` and the cross view's (Eq. 13) only
//! static↔dynamic pairs, so each records one structured node
//! ([`Graph::attention_causal`], [`Graph::attention_cross`]) that never uses
//! a blocked score — forward or backward — and is bit-identical to the dense
//! masked chain; [`crate::FrozenSeqFm`] runs the same kernels.
//!
//! ## History side, then candidate side
//!
//! A pass runs in two halves, the frozen forward's structure. The **history
//! side** depends on the dynamic features alone: `E˙`, the dynamic view
//! (pooled), the cross view's history projections `E˙·W_Q/K/V` (with the
//! param vars the static rows reuse) and `Σ w˙`. `E˙` enters the tape as
//! the batch's distinct items `E˙_u` (`[1, |U|, d]`, padding excluded) and a
//! [`RowMap`](seqfm_autograd::RowMap) from each window slot to its row:
//! projection is row-local, so each of the six history projections runs
//! once per distinct item and is placed at every slot that holds it
//! ([`Graph::project_rows`]; a padding slot reads `+0.0`). Sliding windows
//! over one user's sequence overlap and users repeat items, so a training
//! batch's 2 560 slots hold a few hundred distinct items. Every value is the
//! per-slot pass's bit for bit; `∂W` and `∂E˙` move by rounding, each
//! item's slot gradients summed before they are projected back.
//!
//! The **candidate side** takes it from there: `E°`, the static view, the
//! cross node over the static rows' projections and the history side's, the
//! shared FFN over every view, the head and the linear terms.
//! [`SeqModel::forward`] is the candidate side of its own history side;
//! [`SeqModel::forward_pair`] builds one history side for a BPR pair and
//! runs the candidate side twice, every value bit-identical to two
//! `forward`s.
//!
//! The dynamic view and `Σ w˙` are candidate-independent: they shift ŷ⁺ and
//! ŷ⁻ of a pair alike. Under BPR (Eq. 21), which sees only ŷ⁺ − ŷ⁻, `w˙`
//! therefore gets an exactly-zero gradient, and the dynamic view trains
//! only through the dropout noise that makes its two FFN passes differ;
//! neither can reorder the candidates of one history.

use crate::config::SeqFmConfig;
use crate::{assert_same_histories, SeqModel};
use rand::rngs::StdRng;
use rand::Rng;
use seqfm_autograd::{Graph, ParamId, ParamStore, Var};
use seqfm_data::{Batch, FeatureLayout};
use seqfm_nn::{CrossHistory, Embedding, ResidualFfn, SelfAttention};
use seqfm_tensor::{Shape, Tensor};

/// Sequence-Aware Factorization Machine.
pub struct SeqFm {
    cfg: SeqFmConfig,
    emb_static: Embedding,
    emb_dynamic: Embedding,
    /// First-order weights w° (table width 1, gathered like an embedding).
    w_static: Embedding,
    /// First-order weights w˙.
    w_dynamic: Embedding,
    /// Global bias w₀.
    w0: ParamId,
    attn_static: SelfAttention,
    attn_dynamic: SelfAttention,
    attn_cross: SelfAttention,
    /// The residual FFN every view shares (Eq. 15).
    ffn: ResidualFfn,
    /// Output projection p ∈ R^{(views·d)×1} (Eq. 18).
    p: ParamId,
}

/// What a pass derives from the dynamic features alone (Eq. 9–12 and the
/// `w˙` linear term): the same for every candidate scored against these
/// histories. Built by [`SeqFm::history`], consumed by [`SeqFm::candidate`].
struct HistorySide {
    /// The dynamic view, mean-pooled (`[b, d]`), when the view is active.
    dynamic: Option<Var>,
    /// The cross view's history rows projected, when the view is active.
    cross: Option<CrossHistory>,
    /// `Σ w˙ᵢ` over the active dynamic features (`[b, 1]`).
    lin_d: Var,
}

impl SeqFm {
    /// Builds a SeqFM for the given feature layout.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid (see [`SeqFmConfig::validate`]).
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        rng: &mut R,
        layout: &FeatureLayout,
        cfg: SeqFmConfig,
    ) -> Self {
        cfg.validate();
        let d = cfg.d;
        let emb_static = Embedding::new(ps, rng, "seqfm.emb_static", layout.m_static(), d);
        let emb_dynamic = Embedding::new(ps, rng, "seqfm.emb_dynamic", layout.m_dynamic(), d);
        let w_static = Embedding::zeros(ps, "seqfm.w_static", layout.m_static(), 1);
        let w_dynamic = Embedding::zeros(ps, "seqfm.w_dynamic", layout.m_dynamic(), 1);
        let w0 = ps.add_dense("seqfm.w0", Tensor::zeros(Shape::d1(1)));
        let attn_static = SelfAttention::new(ps, rng, "seqfm.attn_static", d);
        let attn_dynamic = SelfAttention::new(ps, rng, "seqfm.attn_dynamic", d);
        let attn_cross = SelfAttention::new(ps, rng, "seqfm.attn_cross", d);
        // `ffn0`, not `ffn`: the name checkpoints already carry.
        let ffn = ResidualFfn::new(ps, rng, "seqfm.ffn0", d, cfg.layers);
        let views = cfg.ablation.active_views();
        let p = ps.add_dense("seqfm.p", seqfm_nn::init::xavier_uniform(rng, views * d, 1));
        SeqFm {
            cfg,
            emb_static,
            emb_dynamic,
            w_static,
            w_dynamic,
            w0,
            attn_static,
            attn_dynamic,
            attn_cross,
            ffn,
            p,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &SeqFmConfig {
        &self.cfg
    }

    /// The history side of one pass over `batch` (see the module docs).
    /// Draws nothing from an RNG: dropout lives in the candidate side.
    fn history(&self, g: &mut Graph, ps: &ParamStore, batch: &Batch) -> HistorySide {
        let (b, nd) = (batch.len, batch.n_dynamic);
        let ab = &self.cfg.ablation;
        // Embedding layer (Eq. 5), dynamic block: each distinct item once,
        // with the map from every window slot to its row.
        let (e_u, rows) = self.emb_dynamic.lookup_distinct(g, ps, &batch.dyn_idx, b, nd);
        // One structured node: only the `j ≤ i` pairs Eq. 10 admits are
        // scored, forward and backward; then intra-view pooling (Eq. 14).
        let dynamic = ab.dynamic_view.then(|| {
            let h = self.attn_dynamic.forward_causal_rows(g, ps, e_u, &rows);
            g.mean_axis1(h)
        });
        let cross = ab.cross_view.then(|| self.attn_cross.project_history(g, ps, e_u, &rows));
        let wd = self.w_dynamic.lookup(g, ps, &batch.dyn_idx, b, nd);
        let lin_d = g.sum_axis1(wd);
        HistorySide { dynamic, cross, lin_d }
    }

    /// The candidate side of one pass over `batch`, against the history
    /// side `h` of the same histories: the static view, the cross node, the
    /// shared FFN over every active view (the only RNG draws, in view
    /// order), the head and the linear terms.
    fn candidate(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        batch: &Batch,
        h: &HistorySide,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let (b, ns) = (batch.len, batch.n_static);
        let ab = &self.cfg.ablation;

        // Embedding layer (Eq. 5), static block.
        let e_s = self.emb_static.lookup(g, ps, &batch.static_idx, b, ns);

        // Multi-view self-attention + intra-view mean pooling (Eq. 14).
        let mut pooled: Vec<Var> = Vec::with_capacity(3);
        if ab.static_view {
            let hs = self.attn_static.forward(g, ps, e_s);
            pooled.push(g.mean_axis1(hs));
        }
        pooled.extend(h.dynamic);
        if let Some(cross) = &h.cross {
            // The static rows through the history side's projections, then
            // the structured node: only the static↔dynamic pairs Eq. 13
            // admits are scored, forward and backward.
            let hc = self.attn_cross.forward_cross(g, e_s, cross);
            pooled.push(g.mean_axis1(hc));
        }

        // Shared residual FFN (Eq. 15).
        let (dropout, res, ln) = (self.cfg.dropout, ab.residual, ab.layer_norm);
        let processed: Vec<Var> = pooled
            .iter()
            .map(|&x| self.ffn.forward(g, ps, x, dropout, training, rng, res, ln))
            .collect();

        // View-wise aggregation (Eq. 17) and output projection (Eq. 18).
        let hagg = if processed.len() == 1 { processed[0] } else { g.concat_cols(&processed) };
        let p = g.param(ps, self.p);
        let f = g.matmul(hagg, p); // [b, 1]

        // Linear terms (Eq. 4): w₀ + Σ w°ᵢ + Σ w˙ᵢ over active features.
        let ws = self.w_static.lookup(g, ps, &batch.static_idx, b, ns); // [b, ns, 1]
        let lin_s = g.sum_axis1(ws); // [b, 1]
        let lin = g.add(lin_s, h.lin_d);

        let mut out = g.add(f, lin);
        let w0 = g.param(ps, self.w0);
        out = g.add_bias(out, w0);
        g.reshape(out, Shape::d1(b))
    }
}

impl SeqModel for SeqFm {
    fn name(&self) -> &str {
        "SeqFM"
    }

    fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        batch: &Batch,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        let h = self.history(g, ps, batch);
        self.candidate(g, ps, batch, &h, training, rng)
    }

    fn forward_pair(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        pos: &Batch,
        neg: &Batch,
        training: bool,
        rng: &mut StdRng,
    ) -> (Var, Var) {
        assert_same_histories(pos, neg);
        let h = self.history(g, ps, pos);
        let y_pos = self.candidate(g, ps, pos, &h, training, rng);
        let y_neg = self.candidate(g, ps, neg, &h, training, rng);
        (y_pos, y_neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use rand::SeedableRng;
    use seqfm_autograd::RowMap;
    use seqfm_data::build_instance;

    fn layout() -> FeatureLayout {
        FeatureLayout { n_users: 6, n_items: 10 }
    }

    fn batch(layout: &FeatureLayout, max_seq: usize) -> Batch {
        let insts = vec![
            build_instance(layout, 0, 3, &[1, 2, 5], max_seq, 1.0),
            build_instance(layout, 2, 7, &[4], max_seq, 0.0),
            build_instance(layout, 5, 9, &[0, 1, 2, 3, 4, 5, 6, 7], max_seq, 1.0),
        ];
        Batch::try_from_instances(&insts).expect("valid batch")
    }

    fn build(cfg: SeqFmConfig) -> (SeqFm, ParamStore, StdRng) {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let m = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
        (m, ps, rng)
    }

    #[test]
    fn forward_emits_one_logit_per_instance() {
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
        let (m, ps, mut rng) = build(cfg);
        let b = batch(&layout(), 6);
        let mut g = Graph::new();
        let y = m.forward(&mut g, &ps, &b, false, &mut rng);
        assert_eq!(g.value(y).shape(), Shape::d1(3));
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn training_tape_has_no_flatten_copies_and_one_cross_attention_node() {
        // The benchmark's training geometry, [128, 2 + 20, 32], dropout off:
        // 93 nodes when every projection was reshape → matmul → reshape (18
        // copies) and the cross view a four-node dense masked chain; 72
        // while the dynamic view still was such a chain; 69 while the cross
        // view projected a stacked `[E°; E˙]` copy. Now 71: the stack is
        // gone and the static rows take three projection matmuls of their
        // own, through the history side's param vars.
        let l = FeatureLayout { n_users: 40, n_items: 60 };
        let cfg = SeqFmConfig { d: 32, max_seq: 20, dropout: 0.0, ..Default::default() };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let m = SeqFm::new(&mut ps, &mut rng, &l, cfg);
        let insts = |item: fn(u32) -> u32| -> Batch {
            let insts: Vec<_> = (0..128u32)
                .map(|i| build_instance(&l, i % 40, item(i), &[i % 60, (i * 7) % 60], 20, 1.0))
                .collect();
            Batch::try_from_instances(&insts).expect("valid batch")
        };
        let (pos, neg) = (insts(|i| i % 60), insts(|i| (i * 11 + 5) % 60));
        let mut g = Graph::new();
        let y = m.forward(&mut g, &ps, &pos, true, &mut rng);
        assert_eq!(g.value(y).shape(), Shape::d1(128));
        assert!(g.len() <= 71, "{} tape nodes: a flatten or an unfused chain is back", g.len());

        // One BPR pair: 125 nodes, the 17 of the history side (the gather
        // of E˙'s distinct items, the dynamic view, the cross view's history
        // projections, `w˙`) once — two forwards take 142 (138 with the
        // stacked copy).
        let mut g = Graph::new();
        let (y_pos, y_neg) = m.forward_pair(&mut g, &ps, &pos, &neg, true, &mut rng);
        assert_eq!(g.value(y_pos).shape(), Shape::d1(128));
        assert_eq!(g.value(y_neg).shape(), Shape::d1(128));
        assert!(g.len() <= 125, "{} tape nodes: the pair builds its history side twice", g.len());
    }

    /// The benchmark's training geometry as one BPR pair: 128 rows over 40
    /// users × 60 items, histories of 0–24 items (so both padded and
    /// truncated windows of n˙ = 20), each negative with its positive's
    /// user and history.
    fn bpr_pair(l: &FeatureLayout) -> (Batch, Batch) {
        let rows = |neg: bool| -> Batch {
            let insts: Vec<_> = (0..128u32)
                .map(|i| {
                    let hist: Vec<u32> = (0..i % 25).map(|t| (i * 3 + t * 7) % 60).collect();
                    let item = if neg { (i * 11 + 5) % 60 } else { (i * 13) % 60 };
                    build_instance(l, i % 40, item, &hist, 20, if neg { 0.0 } else { 1.0 })
                })
                .collect();
            Batch::try_from_instances(&insts).expect("valid batch")
        };
        (rows(false), rows(true))
    }

    /// One BPR step from a seeded RNG, `paired` through `forward_pair`,
    /// else through two `forward`s: the bits of `y⁺`, `y⁻` and the loss,
    /// then every parameter's gradient.
    fn bpr_step(
        m: &dyn SeqModel,
        ps: &mut ParamStore,
        (pos, neg): &(Batch, Batch),
        paired: bool,
    ) -> ([Vec<u32>; 3], Vec<Vec<f32>>) {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = Graph::new();
        let (y_pos, y_neg) = if paired {
            m.forward_pair(&mut g, ps, pos, neg, true, &mut rng)
        } else {
            let y_pos = m.forward(&mut g, ps, pos, true, &mut rng);
            (y_pos, m.forward(&mut g, ps, neg, true, &mut rng))
        };
        let loss = crate::train::bpr_loss(&mut g, y_pos, y_neg);
        ps.zero_grads();
        g.backward(loss, ps);
        let values = [bits(g.value(y_pos)), bits(g.value(y_neg)), bits(g.value(loss))];
        (values, ps.iter().map(|(_, p)| p.grad().data().to_vec()).collect())
    }

    #[test]
    fn forward_pair_scores_like_two_forwards_and_shares_the_history_gradient() {
        // Dropout on, so each candidate side draws its own masks: the
        // positive's, then the negative's, as two forwards would.
        let l = FeatureLayout { n_users: 40, n_items: 60 };
        let pair = bpr_pair(&l);
        for (name, ablation) in Ablation::table5_variants() {
            let cfg =
                SeqFmConfig { d: 32, max_seq: 20, dropout: 0.6, ablation, ..Default::default() };
            let mut ps = ParamStore::new();
            let m = SeqFm::new(&mut ps, &mut StdRng::seed_from_u64(1), &l, cfg);
            let (want, want_grads) = bpr_step(&m, &mut ps, &pair, false);
            let (got, got_grads) = bpr_step(&m, &mut ps, &pair, true);
            for (what, (g, w)) in ["y⁺", "y⁻", "loss"].iter().zip(got.iter().zip(&want)) {
                assert_eq!(g, w, "{name}: {what} moved");
            }
            // Gradients move only by rounding: the history side sums its
            // two candidates' contributions before projecting them back.
            for ((_, p), (g, w)) in ps.iter().zip(got_grads.iter().zip(&want_grads)) {
                if p.name() == "seqfm.w_dynamic.table" {
                    // Σ w˙ is one shared term of ŷ⁺ and ŷ⁻, so BPR's
                    // gradient of it cancels exactly.
                    assert!(g.iter().all(|&x| x == 0.0), "{name}: w˙ gradient not zero");
                    continue;
                }
                let norm = |x: &mut dyn Iterator<Item = f32>| {
                    x.map(|v| v as f64 * v as f64).sum::<f64>().sqrt()
                };
                let diff = norm(&mut g.iter().zip(w).map(|(a, b)| a - b));
                let scale = norm(&mut w.iter().copied());
                assert!(
                    diff <= 1e-5 * scale,
                    "{name}: {} gradient moved by {:.2e} (L2-relative)",
                    p.name(),
                    diff / scale
                );
            }
        }
    }

    /// [`SeqFm::history`] as it ran before each distinct item was projected
    /// once: `E˙` gathered per window slot and every slot projected, the
    /// cross view's slots through a map that gives each its own row (so
    /// [`Graph::project_rows`] is a plain matmul there, bit for bit).
    fn history_per_slot(m: &SeqFm, g: &mut Graph, ps: &ParamStore, batch: &Batch) -> HistorySide {
        let (b, nd) = (batch.len, batch.n_dynamic);
        let ab = &m.cfg.ablation;
        let e_d = m.emb_dynamic.lookup(g, ps, &batch.dyn_idx, b, nd);
        let every_slot: Vec<i64> = (0..(b * nd) as i64).collect();
        let (_, every_slot) = RowMap::distinct(&every_slot, b, nd);
        let dynamic = ab.dynamic_view.then(|| {
            let h = m.attn_dynamic.forward_causal(g, ps, e_d);
            g.mean_axis1(h)
        });
        let cross = ab.cross_view.then(|| m.attn_cross.project_history(g, ps, e_d, &every_slot));
        let wd = m.w_dynamic.lookup(g, ps, &batch.dyn_idx, b, nd);
        let lin_d = g.sum_axis1(wd);
        HistorySide { dynamic, cross, lin_d }
    }

    #[test]
    fn distinct_history_rows_score_like_per_slot_projections() {
        // Every value is the per-slot pass's bit for bit; each gradient
        // moves by rounding only, a distinct row's slot gradients now summed
        // before they are projected back.
        let l = FeatureLayout { n_users: 40, n_items: 60 };
        let (pos, neg) = bpr_pair(&l);
        for (name, ablation) in Ablation::table5_variants() {
            let cfg =
                SeqFmConfig { d: 32, max_seq: 20, dropout: 0.6, ablation, ..Default::default() };
            let mut ps = ParamStore::new();
            let m = SeqFm::new(&mut ps, &mut StdRng::seed_from_u64(1), &l, cfg);
            let mut step = |per_slot: bool| {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let mut rng = StdRng::seed_from_u64(7);
                let mut g = Graph::new();
                let h = if per_slot {
                    history_per_slot(&m, &mut g, &ps, &pos)
                } else {
                    m.history(&mut g, &ps, &pos)
                };
                let y_pos = m.candidate(&mut g, &ps, &pos, &h, true, &mut rng);
                let y_neg = m.candidate(&mut g, &ps, &neg, &h, true, &mut rng);
                let loss = crate::train::bpr_loss(&mut g, y_pos, y_neg);
                ps.zero_grads();
                g.backward(loss, &mut ps);
                let values = [y_pos, y_neg, loss].map(|v| bits(g.value(v)));
                (values, ps.iter().map(|(_, p)| p.grad().data().to_vec()).collect::<Vec<_>>())
            };
            let (want, want_grads) = step(true);
            let (got, got_grads) = step(false);
            assert_eq!(got, want, "{name}: a value moved");
            for ((_, p), (g, w)) in ps.iter().zip(got_grads.iter().zip(&want_grads)) {
                let norm = |x: &mut dyn Iterator<Item = f32>| {
                    x.map(|v| v as f64 * v as f64).sum::<f64>().sqrt()
                };
                let diff = norm(&mut g.iter().zip(w).map(|(a, b)| a - b));
                let scale = norm(&mut w.iter().copied());
                assert!(
                    diff <= 1e-5 * scale,
                    "{name}: {} gradient moved by {:.2e} (L2-relative)",
                    p.name(),
                    diff / scale
                );
            }
        }
    }

    #[test]
    fn the_history_side_projects_each_distinct_item_once() {
        // The benchmark's training geometry: 2 560 window slots, of which
        // 1 453 hold an item, but only the 60 distinct items are gathered
        // and projected. The history side's `[b, n˙, d]` nodes are its six
        // projections (each expanded from the distinct rows) and the causal
        // attention; a per-slot gather would be an eighth.
        let l = FeatureLayout { n_users: 40, n_items: 60 };
        let (pos, _) = bpr_pair(&l);
        let (b, nd, d) = (128, 20, 32);
        let (ids, rows) = RowMap::distinct(&pos.dyn_idx, b, nd);
        assert_eq!((b * nd, rows.filled(), ids.len()), (2560, 1453, 60));
        let cfg = SeqFmConfig { d, max_seq: nd, dropout: 0.0, ..Default::default() };
        let mut ps = ParamStore::new();
        let m = SeqFm::new(&mut ps, &mut StdRng::seed_from_u64(1), &l, cfg);
        let mut g = Graph::new();
        m.history(&mut g, &ps, &pos);
        let shapes: Vec<Shape> = g.shapes().collect();
        assert_eq!(shapes[0], Shape::d3(1, ids.len(), d), "E˙ is not the distinct items");
        let slot_blocks = shapes.iter().filter(|&&s| s == Shape::d3(b, nd, d)).count();
        assert_eq!(slot_blocks, 7, "{shapes:?}");
    }

    #[test]
    fn bpr_without_dropout_gives_the_dynamic_view_no_gradient() {
        // The dynamic view's pooled output and Σ w˙ are the same bits in ŷ⁺
        // and ŷ⁻ of a pair, so at dropout 0 BPR's gradient of p's dynamic
        // block (rows d..2d), of w˙ and of w₀ cancels exactly. Only dropout,
        // whose masks differ between the two candidate sides, moves them.
        let l = FeatureLayout { n_users: 40, n_items: 60 };
        let pair = bpr_pair(&l);
        let d = 32;
        for dropout in [0.0, 0.6] {
            let cfg = SeqFmConfig { d, max_seq: 20, dropout, ..Default::default() };
            let mut ps = ParamStore::new();
            let m = SeqFm::new(&mut ps, &mut StdRng::seed_from_u64(1), &l, cfg);
            let (_, grads) = bpr_step(&m, &mut ps, &pair, true);
            let grad = |name: &str| &grads[ps.iter().position(|(_, p)| p.name() == name).unwrap()];
            let zero = |g: &[f32]| g.iter().all(|&x| x == 0.0);
            let p = grad("seqfm.p");
            assert!(!zero(&p[..d]), "dropout {dropout}: p's static block got no gradient");
            if dropout == 0.0 {
                assert!(zero(&p[d..2 * d]), "p's dynamic block got a gradient");
                for name in ["seqfm.w_dynamic.table", "seqfm.w0"] {
                    assert!(zero(grad(name)), "`{name}` got a gradient");
                }
            } else {
                assert!(!zero(&p[d..2 * d]), "dropout {dropout}: p's dynamic block got none");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must share their histories")]
    fn forward_pair_rejects_batches_with_different_histories() {
        let l = layout();
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
        let (m, ps, mut rng) = build(cfg);
        let pos = batch(&l, 6);
        let insts = vec![
            build_instance(&l, 0, 4, &[1, 2, 5], 6, 0.0),
            build_instance(&l, 2, 8, &[4, 4], 6, 0.0),
            build_instance(&l, 5, 1, &[0, 1, 2, 3, 4, 5, 6, 7], 6, 0.0),
        ];
        let neg = Batch::try_from_instances(&insts).expect("valid batch");
        m.forward_pair(&mut Graph::new(), &ps, &pos, &neg, true, &mut rng);
    }

    #[test]
    fn forward_is_deterministic_outside_training() {
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
        let (m, ps, mut rng) = build(cfg);
        let b = batch(&layout(), 6);
        let mut g1 = Graph::new();
        let y1 = m.forward(&mut g1, &ps, &b, false, &mut rng);
        let mut g2 = Graph::new();
        let y2 = m.forward(&mut g2, &ps, &b, false, &mut rng);
        assert_eq!(g1.value(y1).data(), g2.value(y2).data());
    }

    #[test]
    fn dropout_only_randomises_training_mode() {
        let cfg = SeqFmConfig { d: 8, max_seq: 6, dropout: 0.5, ..Default::default() };
        let (m, ps, mut rng) = build(cfg);
        let b = batch(&layout(), 6);
        let mut g = Graph::new();
        let t1 = m.forward(&mut g, &ps, &b, true, &mut rng);
        let t2 = m.forward(&mut g, &ps, &b, true, &mut rng);
        assert_ne!(g.value(t1).data(), g.value(t2).data(), "training passes should differ");
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        let cfg = SeqFmConfig { d: 4, max_seq: 6, dropout: 0.0, ..Default::default() };
        let (m, mut ps, mut rng) = build(cfg);
        let b = batch(&layout(), 6);
        let mut g = Graph::new();
        let y = m.forward(&mut g, &ps, &b, true, &mut rng);
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        g.backward(loss, &mut ps);
        // Every dense parameter must receive some gradient; embeddings must
        // have touched rows.
        for (id, p) in ps.iter() {
            match p.kind() {
                seqfm_autograd::ParamKind::Dense => {
                    assert!(
                        p.grad().max_abs() > 0.0,
                        "dense parameter `{}` received no gradient",
                        p.name()
                    );
                }
                seqfm_autograd::ParamKind::SparseRows => {
                    assert!(
                        !ps.touched_rows(id).is_empty(),
                        "sparse parameter `{}` has no touched rows",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn future_items_cannot_influence_logits() {
        // Temporal causality at the model level: the logit must be identical
        // whether or not the dynamic sequence is extended *before* its start
        // (i.e. padding is inert), and changing nothing but the order of the
        // dynamic items must change the logit (sequence-awareness).
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
        let (m, ps, mut rng) = build(cfg);
        let l = layout();
        let fwd = |m: &SeqFm, ps: &ParamStore, hist: &[u32], rng: &mut StdRng| -> f32 {
            let inst = vec![build_instance(&l, 0, 3, hist, 6, 1.0)];
            let b = Batch::try_from_instances(&inst).expect("valid batch");
            let mut g = Graph::new();
            let y = m.forward(&mut g, ps, &b, false, rng);
            g.value(y).data()[0]
        };
        let a = fwd(&m, &ps, &[1, 2, 5], &mut rng);
        let shuffled = fwd(&m, &ps, &[5, 1, 2], &mut rng);
        assert!((a - shuffled).abs() > 1e-7, "model is order-blind: {a} vs {shuffled}");
    }

    #[test]
    fn parameter_names_and_order_are_the_checkpoint_format() {
        // Checkpoints are keyed by these names, and the creation order fixes
        // the initial draws: a rename (say `ffn0` → `ffn`) would orphan every
        // checkpoint already written.
        for layers in [1usize, 2] {
            let (_, ps, _) = build(SeqFmConfig { d: 8, layers, ..Default::default() });
            let mut want: Vec<String> = [
                "emb_static.table",
                "emb_dynamic.table",
                "w_static.table",
                "w_dynamic.table",
                "w0",
                "attn_static.wq.w",
                "attn_static.wk.w",
                "attn_static.wv.w",
                "attn_dynamic.wq.w",
                "attn_dynamic.wk.w",
                "attn_dynamic.wv.w",
                "attn_cross.wq.w",
                "attn_cross.wk.w",
                "attn_cross.wv.w",
            ]
            .iter()
            .map(|n| format!("seqfm.{n}"))
            .collect();
            for j in 0..layers {
                for n in ["ln.scale", "ln.bias", "lin.w", "lin.b"] {
                    want.push(format!("seqfm.ffn0.{j}.{n}"));
                }
            }
            want.push("seqfm.p".into());
            let got: Vec<&str> = ps.iter().map(|(_, p)| p.name()).collect();
            assert_eq!(got, want, "layers = {layers}");
        }
    }

    #[test]
    fn ablations_change_output_and_param_count() {
        let l = layout();
        let base_cfg = SeqFmConfig { d: 8, max_seq: 6, dropout: 0.0, ..Default::default() };
        let (_, base_ps, _) = build(base_cfg);
        let base_params = base_ps.total_elems();
        for (name, ab) in Ablation::table5_variants().into_iter().skip(1) {
            let cfg = SeqFmConfig { ablation: ab, ..base_cfg };
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(1);
            let m = SeqFm::new(&mut ps, &mut rng, &l, cfg);
            let b = batch(&l, 6);
            let mut g = Graph::new();
            let y = m.forward(&mut g, &ps, &b, false, &mut rng);
            assert!(!g.value(y).has_non_finite(), "{name} produced non-finite output");
            if matches!(name, "Remove SV" | "Remove DV" | "Remove CV") {
                assert!(
                    ps.total_elems() < base_params,
                    "{name} should shrink the output projection"
                );
            }
        }
    }
}
