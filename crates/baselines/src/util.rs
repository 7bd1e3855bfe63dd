//! Shared machinery for the baseline models.

use rand::Rng;
use seqfm_autograd::{Graph, ParamStore, Var};
use seqfm_data::{Batch, FeatureLayout};
use seqfm_nn::Embedding;
use seqfm_tensor::Shape;

/// User index (static feature 0) of every instance in a batch.
pub fn user_ids(batch: &Batch) -> Vec<i64> {
    (0..batch.len).map(|i| batch.static_idx[i * batch.n_static]).collect()
}

/// Candidate item (static feature 1, shifted back into item space).
pub fn candidate_items(batch: &Batch, layout: &FeatureLayout) -> Vec<i64> {
    (0..batch.len)
        .map(|i| batch.static_idx[i * batch.n_static + 1] - layout.n_users as i64)
        .collect()
}

/// The most recent dynamic item per instance ([`seqfm_data::PAD`] when the
/// history is empty). Sequences are left-padded, so this is simply the last
/// column.
pub fn last_items(batch: &Batch) -> Vec<i64> {
    (0..batch.len).map(|i| batch.dyn_idx[(i + 1) * batch.n_dynamic - 1]).collect()
}

/// The shared first-order + embedding plumbing of every classic FM variant
/// (plain FM, HOFM, NFM, AFM, Wide&Deep, DeepCross): per-block embedding
/// tables, zero-initialised first-order weights, and a global bias.
pub struct FmBase {
    /// Static-feature embeddings (`m° × d`).
    pub emb_static: Embedding,
    /// Dynamic-feature embeddings (`m˙ × d`).
    pub emb_dynamic: Embedding,
    w_static: Embedding,
    w_dynamic: Embedding,
    w0: seqfm_autograd::ParamId,
    /// Embedding width.
    pub d: usize,
}

impl FmBase {
    /// Allocates tables for `layout` under the `{name}.*` prefix.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        layout: &FeatureLayout,
        d: usize,
    ) -> Self {
        FmBase {
            emb_static: Embedding::new(
                ps,
                rng,
                &format!("{name}.emb_static"),
                layout.m_static(),
                d,
            ),
            emb_dynamic: Embedding::new(
                ps,
                rng,
                &format!("{name}.emb_dynamic"),
                layout.m_dynamic(),
                d,
            ),
            w_static: Embedding::zeros(ps, &format!("{name}.w_static"), layout.m_static(), 1),
            w_dynamic: Embedding::zeros(ps, &format!("{name}.w_dynamic"), layout.m_dynamic(), 1),
            w0: ps.add_dense(format!("{name}.w0"), seqfm_tensor::Tensor::zeros(Shape::d1(1))),
            d,
        }
    }

    /// Embeds both blocks: `(E° [b,n°,d], E˙ [b,n˙,d])`.
    pub fn embeddings(&self, g: &mut Graph, ps: &ParamStore, batch: &Batch) -> (Var, Var) {
        let e_s = self.emb_static.lookup(g, ps, &batch.static_idx, batch.len, batch.n_static);
        let e_d = self.emb_dynamic.lookup(g, ps, &batch.dyn_idx, batch.len, batch.n_dynamic);
        (e_s, e_d)
    }

    /// First-order terms `w₀ + Σᵢ wᵢ xᵢ` as a `[b, 1]` tensor.
    pub fn linear_terms(&self, g: &mut Graph, ps: &ParamStore, batch: &Batch) -> Var {
        let ws = self.w_static.lookup(g, ps, &batch.static_idx, batch.len, batch.n_static);
        let wd = self.w_dynamic.lookup(g, ps, &batch.dyn_idx, batch.len, batch.n_dynamic);
        let ls = g.sum_axis1(ws);
        let ld = g.sum_axis1(wd);
        let lin = g.add(ls, ld);
        let w0 = g.param(ps, self.w0);
        g.add_bias(lin, w0)
    }

    /// FM bi-interaction vector `½[(Σᵢvᵢ)² − Σᵢvᵢ²]` over **all** non-zero
    /// features of both blocks (`[b, d]`) — the O(n·d) identity behind Eq. 2.
    /// Padding rows embed to zero and vanish from both sums.
    pub fn bi_interaction(&self, g: &mut Graph, ps: &ParamStore, batch: &Batch) -> Var {
        let (e_s, e_d) = self.embeddings(g, ps, batch);
        let s1s = g.sum_axis1(e_s);
        let s1d = g.sum_axis1(e_d);
        let s1 = g.add(s1s, s1d); // Σv
        let sq_s = g.square(e_s);
        let sq_d = g.square(e_d);
        let s2s = g.sum_axis1(sq_s);
        let s2d = g.sum_axis1(sq_d);
        let s2 = g.add(s2s, s2d); // Σv²
        let s1_sq = g.square(s1);
        let diff = g.sub(s1_sq, s2);
        g.scale(diff, 0.5)
    }

    /// Power sums `(Σv, Σv², Σv³)` over all features (`[b,d]` each) for the
    /// order-3 ANOVA kernel of HOFM.
    pub fn power_sums(&self, g: &mut Graph, ps: &ParamStore, batch: &Batch) -> (Var, Var, Var) {
        let (e_s, e_d) = self.embeddings(g, ps, batch);
        let cat = g.concat_axis1(e_s, e_d);
        let s1 = g.sum_axis1(cat);
        let sq = g.square(cat);
        let s2 = g.sum_axis1(sq);
        let cube = g.mul(sq, cat);
        let s3 = g.sum_axis1(cube);
        (s1, s2, s3)
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Helpers used by every baseline's tests.

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqfm_autograd::{Graph, ParamStore};
    use seqfm_core::SeqModel;
    use seqfm_data::{build_instance, Batch, FeatureLayout};

    pub const MAX_SEQ: usize = 6;

    pub fn layout() -> FeatureLayout {
        FeatureLayout { n_users: 5, n_items: 12 }
    }

    pub fn batch() -> Batch {
        let l = layout();
        Batch::try_from_instances(&[
            build_instance(&l, 0, 3, &[1, 2, 5], MAX_SEQ, 1.0),
            build_instance(&l, 2, 7, &[4], MAX_SEQ, 0.0),
            build_instance(&l, 4, 11, &[0, 1, 2, 3, 4, 5, 6, 7], MAX_SEQ, 3.5),
        ])
        .expect("valid batch")
    }

    /// Forward a model on a batch, returning the logits.
    pub fn logits(model: &dyn SeqModel, ps: &ParamStore, b: &Batch) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = Graph::new();
        let y = model.forward(&mut g, ps, b, false, &mut rng);
        assert_eq!(g.value(y).numel(), b.len, "{}: wrong logit count", model.name());
        assert!(!g.value(y).has_non_finite(), "{}: non-finite logits", model.name());
        g.value(y).data().to_vec()
    }

    /// Asserts gradients flow into at least `min_params` parameters.
    pub fn check_grad_flow(model: &dyn SeqModel, ps: &mut ParamStore, b: &Batch) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = Graph::new();
        let y = model.forward(&mut g, ps, b, true, &mut rng);
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        g.backward(loss, ps);
        let touched = ps
            .iter()
            .filter(|(id, p)| match p.kind() {
                seqfm_autograd::ParamKind::Dense => p.grad().max_abs() > 0.0,
                seqfm_autograd::ParamKind::SparseRows => !ps.touched_rows(*id).is_empty(),
            })
            .count();
        assert!(
            touched * 2 >= ps.len(),
            "{}: only {touched}/{} params received gradient",
            model.name(),
            ps.len()
        );
        ps.zero_grads();
    }

    /// Permutes the dynamic history of every instance (reversal) while
    /// keeping the set of items fixed.
    pub fn reverse_history(b: &Batch) -> Batch {
        let mut out = b.clone();
        for i in 0..b.len {
            let row = &mut out.dyn_idx[i * b.n_dynamic..(i + 1) * b.n_dynamic];
            // reverse only the non-pad suffix so padding stays on the left
            let start = row.iter().take_while(|&&x| x == seqfm_data::PAD).count();
            row[start..].reverse();
        }
        out
    }
}
