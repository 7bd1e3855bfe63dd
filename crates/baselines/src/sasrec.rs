//! SASRec — Self-Attentive Sequential Recommendation (Kang & McAuley,
//! ICDM 2018). The paper's additional ranking baseline (Table II).
//!
//! Item embeddings + learned positional embeddings feed a stack of causal
//! self-attention blocks, each followed by a point-wise two-layer FFN with
//! residual connections and LayerNorm. The candidate's score is the dot
//! product between the final state at the *last* position and the
//! candidate's item embedding (shared table), plus an item bias.

use crate::util::candidate_items;
use rand::rngs::StdRng;
use rand::Rng;
use seqfm_autograd::{Graph, ParamStore, Var};
use seqfm_core::SeqModel;
use seqfm_data::{Batch, FeatureLayout};
use seqfm_nn::{Embedding, LayerNorm, Linear, SelfAttention};
use seqfm_tensor::Shape;

struct Block {
    attn: SelfAttention,
    ln1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    ln2: LayerNorm,
}

/// SASRec.
pub struct SasRec {
    layout: FeatureLayout,
    item_emb: Embedding,
    pos_emb: seqfm_autograd::ParamId,
    item_bias: Embedding,
    blocks: Vec<Block>,
    max_seq: usize,
    d: usize,
    dropout: f32,
}

impl SasRec {
    /// Builds SASRec with `n_blocks` attention blocks over sequences of
    /// length `max_seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        rng: &mut R,
        layout: &FeatureLayout,
        d: usize,
        max_seq: usize,
        n_blocks: usize,
        dropout: f32,
    ) -> Self {
        let item_emb = Embedding::new(ps, rng, "sasrec.item", layout.n_items, d);
        let pos_emb =
            ps.add_dense("sasrec.pos", seqfm_nn::init::normal(rng, Shape::d2(max_seq, d), 0.02));
        let item_bias = Embedding::zeros(ps, "sasrec.item_bias", layout.n_items, 1);
        let blocks = (0..n_blocks)
            .map(|i| Block {
                attn: SelfAttention::new(ps, rng, &format!("sasrec.b{i}.attn"), d),
                ln1: LayerNorm::new(ps, &format!("sasrec.b{i}.ln1"), d),
                ff1: Linear::new(ps, rng, &format!("sasrec.b{i}.ff1"), d, d, true),
                ff2: Linear::new(ps, rng, &format!("sasrec.b{i}.ff2"), d, d, true),
                ln2: LayerNorm::new(ps, &format!("sasrec.b{i}.ln2"), d),
            })
            .collect();
        SasRec { layout: *layout, item_emb, pos_emb, item_bias, blocks, max_seq, d, dropout }
    }
}

impl SeqModel for SasRec {
    fn name(&self) -> &str {
        "SASRec"
    }

    fn forward(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        batch: &Batch,
        training: bool,
        rng: &mut StdRng,
    ) -> Var {
        assert_eq!(
            batch.n_dynamic, self.max_seq,
            "SASRec built for n˙={} but batch has {}",
            self.max_seq, batch.n_dynamic
        );
        let (b, n) = (batch.len, batch.n_dynamic);
        let e = self.item_emb.lookup(g, ps, &batch.dyn_idx, b, n);
        let pos = g.param(ps, self.pos_emb);
        let mut h = g.add_broadcast_batch(e, pos);
        if training && self.dropout > 0.0 {
            h = g.dropout(h, self.dropout, rng);
        }
        for blk in &self.blocks {
            let normed = blk.ln1.forward(g, ps, h);
            let a = blk.attn.forward_causal(g, ps, normed);
            let h1 = g.add(h, a);
            let normed2 = blk.ln2.forward(g, ps, h1);
            let f = blk.ff1.forward(g, ps, normed2);
            let f = g.relu(f);
            let mut f = blk.ff2.forward(g, ps, f);
            if training && self.dropout > 0.0 {
                f = g.dropout(f, self.dropout, rng);
            }
            h = g.add(h1, f);
        }
        // state at the last (most recent) position
        let last = g.slice_axis1(h, n - 1, 1);
        let last = g.reshape(last, Shape::d2(b, self.d));
        // candidate embedding from the shared item table
        let cand = candidate_items(batch, &self.layout);
        let ce = self.item_emb.lookup(g, ps, &cand, b, 1);
        let ce = g.reshape(ce, Shape::d2(b, self.d));
        let dot = g.row_dot(last, ce); // [b]
        let bias = self.item_bias.lookup(g, ps, &cand, b, 1);
        let bias = g.reshape(bias, Shape::d1(b));
        g.add(dot, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::testkit::*;
    use rand::SeedableRng;

    fn build() -> (SasRec, ParamStore) {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let m = SasRec::new(&mut ps, &mut rng, &layout(), 8, MAX_SEQ, 2, 0.1);
        (m, ps)
    }

    #[test]
    fn shapes_and_gradients() {
        let (m, mut ps) = build();
        let b = batch();
        let _ = logits(&m, &ps, &b);
        check_grad_flow(&m, &mut ps, &b);
    }

    #[test]
    fn sasrec_is_order_sensitive() {
        let (m, ps) = build();
        let b = batch();
        let a = logits(&m, &ps, &b);
        let c = logits(&m, &ps, &reverse_history(&b));
        // instance 0 has 3 distinct history items — reversal must change it
        assert!((a[0] - c[0]).abs() > 1e-6, "SASRec ignored item order");
        // instance 1 has a single history item — reversal is a no-op
        assert!((a[1] - c[1]).abs() < 1e-6);
    }

    #[test]
    fn candidate_embedding_is_shared_with_history() {
        // scoring item X after history [X] should differ from scoring item Y
        // after history [X] through the shared table.
        let (m, ps) = build();
        let l = layout();
        let same = seqfm_data::Batch::try_from_instances(&[seqfm_data::build_instance(
            &l,
            0,
            2,
            &[2],
            MAX_SEQ,
            1.0,
        )])
        .expect("valid batch");
        let diff = seqfm_data::Batch::try_from_instances(&[seqfm_data::build_instance(
            &l,
            0,
            9,
            &[2],
            MAX_SEQ,
            1.0,
        )])
        .expect("valid batch");
        let a = logits(&m, &ps, &same)[0];
        let c = logits(&m, &ps, &diff)[0];
        assert!((a - c).abs() > 1e-6);
    }

    #[test]
    #[should_panic(expected = "SASRec built for")]
    fn rejects_wrong_sequence_length() {
        let (m, ps) = build();
        let l = layout();
        let wrong = seqfm_data::Batch::try_from_instances(&[seqfm_data::build_instance(
            &l,
            0,
            2,
            &[1],
            MAX_SEQ + 1,
            1.0,
        )])
        .expect("valid batch");
        let _ = logits(&m, &ps, &wrong);
    }
}
