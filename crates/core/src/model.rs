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
//!        ; FFN(pool(CrossSelfAttn([E°;E˙]))) ] — cross view    (Eq. 11–13)
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

use crate::config::SeqFmConfig;
use crate::SeqModel;
use rand::rngs::StdRng;
use rand::Rng;
use seqfm_autograd::{Graph, ParamId, ParamStore, Var};
use seqfm_data::{Batch, FeatureLayout, PAD};
use seqfm_nn::{Embedding, ResidualFfn, SelfAttention};
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
    /// One shared FFN (paper) or one per active view (extension ablation).
    ffns: Vec<ResidualFfn>,
    /// Output projection p ∈ R^{(views·d)×1} (Eq. 18).
    p: ParamId,
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
        let n_ffns = if cfg.ablation.shared_ffn { 1 } else { cfg.ablation.active_views() };
        let ffns = (0..n_ffns)
            .map(|i| ResidualFfn::new(ps, rng, &format!("seqfm.ffn{i}"), d, cfg.layers))
            .collect();
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
            ffns,
            p,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &SeqFmConfig {
        &self.cfg
    }

    /// Intra-view pooling (Eq. 14): plain mean over rows, or — with the
    /// `masked_pooling` extension — a mean over *real* (non-padded) rows
    /// only.
    fn pool(&self, g: &mut Graph, h: Var, pad_counts: Option<(&[usize], usize)>) -> Var {
        match (self.cfg.ablation.masked_pooling, pad_counts) {
            (true, Some((pads, n_fixed))) => {
                let s = g.value(h).shape();
                let (b, n, d) = (s.dim(0), s.dim(1), s.dim(2));
                // indicator[b, n, d]: 0 for padded rows, 1 for real rows;
                // the first `n - seq_len` *dynamic* rows of each sample are
                // padded. `n_fixed` leading rows (cross view: the static
                // block) are always real.
                let mut ind = Tensor::ones(Shape::d3(b, n, d));
                let mut inv = Tensor::zeros(Shape::d2(b, d));
                for (bi, &pad) in pads.iter().enumerate().take(b) {
                    for r in n_fixed..n_fixed + pad {
                        ind.data_mut()[(bi * n + r) * d..(bi * n + r + 1) * d].fill(0.0);
                    }
                    let real = (n - pad) as f32;
                    inv.data_mut()[bi * d..(bi + 1) * d].fill(1.0 / real.max(1.0));
                }
                let ind = g.input(ind);
                let inv = g.input(inv);
                let masked = g.mul(h, ind);
                let summed = g.sum_axis1(masked);
                g.mul(summed, inv)
            }
            _ => g.mean_axis1(h),
        }
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
        let (b, ns, nd) = (batch.len, batch.n_static, batch.n_dynamic);
        let ab = &self.cfg.ablation;

        // Embedding layer (Eq. 5).
        let e_s = self.emb_static.lookup(g, ps, &batch.static_idx, b, ns);
        let e_d = self.emb_dynamic.lookup(g, ps, &batch.dyn_idx, b, nd);

        // Per-sample padding lengths (for the masked-pooling extension).
        let pad_counts: Vec<usize> = (0..b)
            .map(|bi| {
                batch.dyn_idx[bi * nd..(bi + 1) * nd].iter().take_while(|&&i| i == PAD).count()
            })
            .collect();

        // Multi-view self-attention + intra-view pooling.
        let mut pooled: Vec<Var> = Vec::with_capacity(3);
        if ab.static_view {
            let h = self.attn_static.forward(g, ps, e_s);
            pooled.push(self.pool(g, h, None));
        }
        if ab.dynamic_view {
            // One structured node: only the `j ≤ i` pairs Eq. 10 admits
            // are scored, forward and backward.
            let h = self.attn_dynamic.forward_causal(g, ps, e_d);
            pooled.push(self.pool(g, h, Some((&pad_counts, 0))));
        }
        if ab.cross_view {
            // One stack [E°; E˙] (Eq. 12) so each projection stays a single
            // matmul, then the structured node: only the static↔dynamic
            // pairs Eq. 13 admits are scored, forward and backward.
            let e_cross = g.concat_axis1(e_s, e_d);
            let h = self.attn_cross.forward_cross(g, ps, e_cross, ns);
            pooled.push(self.pool(g, h, Some((&pad_counts, ns))));
        }

        // Shared (or per-view) residual FFN (Eq. 15).
        let processed: Vec<Var> = pooled
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                let ffn = if ab.shared_ffn { &self.ffns[0] } else { &self.ffns[i] };
                ffn.forward(g, ps, h, self.cfg.dropout, training, rng, ab.residual, ab.layer_norm)
            })
            .collect();

        // View-wise aggregation (Eq. 17) and output projection (Eq. 18).
        let hagg = if processed.len() == 1 { processed[0] } else { g.concat_cols(&processed) };
        let p = g.param(ps, self.p);
        let f = g.matmul(hagg, p); // [b, 1]

        // Linear terms (Eq. 4): w₀ + Σ w°ᵢ + Σ w˙ᵢ over active features.
        let ws = self.w_static.lookup(g, ps, &batch.static_idx, b, ns); // [b, ns, 1]
        let lin_s = g.sum_axis1(ws); // [b, 1]
        let wd = self.w_dynamic.lookup(g, ps, &batch.dyn_idx, b, nd);
        let lin_d = g.sum_axis1(wd);
        let lin = g.add(lin_s, lin_d);

        let mut out = g.add(f, lin);
        let w0 = g.param(ps, self.w0);
        out = g.add_bias(out, w0);
        g.reshape(out, Shape::d1(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use rand::SeedableRng;
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
        // while the dynamic view still was such a chain.
        let l = FeatureLayout { n_users: 40, n_items: 60 };
        let cfg = SeqFmConfig { d: 32, max_seq: 20, dropout: 0.0, ..Default::default() };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let m = SeqFm::new(&mut ps, &mut rng, &l, cfg);
        let insts: Vec<_> = (0..128u32)
            .map(|i| build_instance(&l, i % 40, i % 60, &[i % 60, (i * 7) % 60], 20, 1.0))
            .collect();
        let b = Batch::try_from_instances(&insts).expect("valid batch");
        let mut g = Graph::new();
        let y = m.forward(&mut g, &ps, &b, true, &mut rng);
        assert_eq!(g.value(y).shape(), Shape::d1(128));
        assert!(g.len() <= 69, "{} tape nodes: a flatten or an unfused chain is back", g.len());
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

    #[test]
    fn masked_pooling_extension_changes_padded_outputs_only_slightly() {
        // Same inputs, two pooling modes: outputs differ for padded samples.
        let l = layout();
        let mk = |masked: bool| {
            let ab = Ablation { masked_pooling: masked, ..Default::default() };
            let cfg =
                SeqFmConfig { d: 8, max_seq: 6, dropout: 0.0, ablation: ab, ..Default::default() };
            let mut ps = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(1);
            let m = SeqFm::new(&mut ps, &mut rng, &l, cfg);
            (m, ps)
        };
        let (m0, ps0) = mk(false);
        let (m1, ps1) = mk(true);
        let b = batch(&l, 6);
        let mut rng = StdRng::seed_from_u64(9);
        let mut g0 = Graph::new();
        let y0 = m0.forward(&mut g0, &ps0, &b, false, &mut rng);
        let mut g1 = Graph::new();
        let y1 = m1.forward(&mut g1, &ps1, &b, false, &mut rng);
        // instance 2 has a full-length history (8 > 6 → no padding): with
        // identical seeds the parameters are identical, so its logit matches.
        let a = g0.value(y0).data();
        let c = g1.value(y1).data();
        assert!((a[2] - c[2]).abs() < 1e-5, "unpadded sample should be unaffected");
        assert!((a[1] - c[1]).abs() > 1e-6, "heavily padded sample should differ");
    }
}
