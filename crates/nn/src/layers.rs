//! Reusable neural-network layers built on the autograd tape.
//!
//! Each layer owns [`ParamId`]s registered at construction time and is
//! stateless across forward passes: `forward` takes the graph and store
//! explicitly, so the same layer can be applied several times per graph
//! (e.g. the paper's *shared* residual FFN is applied to all three views with
//! the same parameters, §III-F).

use crate::init;
use rand::Rng;
use seqfm_autograd::{Graph, ParamId, ParamStore, RowMap, Var};
use seqfm_tensor::{Shape, Tensor};

/// Fully-connected layer `y = x·W (+ b)`.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a Xavier-initialised linear layer. Parameter names are
    /// `{name}.w` and `{name}.b`.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = ps.add_dense(format!("{name}.w"), init::xavier_uniform(rng, in_dim, out_dim));
        let b = bias.then(|| ps.add_dense(format!("{name}.b"), Tensor::zeros(Shape::d1(out_dim))));
        Linear { w, b, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer along the last dim: `[b, in] → [b, out]`, or
    /// `[b, n, in] → [b, n, out]` (one rank-3 matmul node, no flatten).
    pub fn forward(&self, g: &mut Graph, ps: &ParamStore, x: Var) -> Var {
        let w = g.param(ps, self.w);
        let mut y = g.matmul(x, w);
        if let Some(b) = self.b {
            let bv = g.param(ps, b);
            y = g.add_bias(y, bv);
        }
        y
    }
}

/// Embedding table with the paper's zero-vector padding semantics: index
/// `-1` produces an all-zero row that never receives gradient (§III,
/// padding of the dynamic feature matrix).
pub struct Embedding {
    table: ParamId,
    rows: usize,
    dim: usize,
}

impl Embedding {
    /// Creates an `N(0, 1/√d)`-initialised table named `{name}.table`.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        rows: usize,
        dim: usize,
    ) -> Self {
        let table = ps.add_sparse(format!("{name}.table"), init::embedding(rng, rows, dim));
        Embedding { table, rows, dim }
    }

    /// Creates a zero-initialised table — the correct start for *first-order*
    /// FM weights (w in Eq. 2/4), which otherwise inject large output noise
    /// at initialisation.
    pub fn zeros(ps: &mut ParamStore, name: &str, rows: usize, dim: usize) -> Self {
        let table = ps.add_sparse(format!("{name}.table"), Tensor::zeros(Shape::d2(rows, dim)));
        Embedding { table, rows, dim }
    }

    /// Number of rows (vocabulary size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Underlying sparse parameter id.
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Looks up `idx` (length `b·n`, `-1` = padding) into `[b, n, d]`.
    pub fn lookup(&self, g: &mut Graph, ps: &ParamStore, idx: &[i64], b: usize, n: usize) -> Var {
        g.gather(ps, self.table, idx, b, n)
    }

    /// Looks up each distinct non-padding index of the `[b, n]` block `idx`
    /// once, into `[1, u, d]` (`u` distinct indices, in order of first
    /// appearance), with the map from every slot to its row: the block for
    /// [`Graph::project_rows`], whose projections then run over `u` rows
    /// instead of `b·n` slots.
    pub fn lookup_distinct(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        idx: &[i64],
        b: usize,
        n: usize,
    ) -> (Var, RowMap) {
        let (ids, map) = RowMap::distinct(idx, b, n);
        (g.gather(ps, self.table, &ids, 1, ids.len()), map)
    }
}

/// The scaled-dot-product factor `1/√d` of attention at width `d` (paper
/// Eq. 8/9/11), shared by [`SelfAttention`] and the frozen forward.
pub fn attention_scale(d: usize) -> f32 {
    1.0 / (d as f32).sqrt()
}

/// LayerNorm over the last dimension with learned scale/bias (paper Eq. 16).
pub struct LayerNorm {
    scale: ParamId,
    bias: ParamId,
}

impl LayerNorm {
    /// Scale initialised to 1, bias to 0; names `{name}.scale`, `{name}.bias`.
    pub fn new(ps: &mut ParamStore, name: &str, dim: usize) -> Self {
        let scale = ps.add_dense(format!("{name}.scale"), Tensor::ones(Shape::d1(dim)));
        let bias = ps.add_dense(format!("{name}.bias"), Tensor::zeros(Shape::d1(dim)));
        LayerNorm { scale, bias }
    }

    /// Normalises the last dimension of `x`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamStore, x: Var) -> Var {
        let s = g.param(ps, self.scale);
        let b = g.param(ps, self.bias);
        g.layer_norm(x, s, b)
    }
}

/// Single-head scaled-dot-product self-attention with per-view projection
/// matrices, exactly the unit used by all three SeqFM views:
/// `H = softmax(E·W_Q·(E·W_K)ᵀ/√d + M)·E·W_V` (paper Eq. 8/9/11).
///
/// No output projection and no multi-head split — the paper's formulation is
/// a single head with `d×d` projections. [`Self::forward`] is the unmasked
/// dense pipeline (the static view); the two masked views are structural,
/// one tape node each that never uses a blocked score:
/// [`Self::forward_causal`] (a causal view over a `[b, n, d]` block, as
/// SASRec runs it), [`Self::forward_causal_rows`] (SeqFM's dynamic view) and
/// [`Self::forward_cross`] (the cross view, whose history side
/// [`Self::project_history`] builds once). A history block enters SeqFM's
/// two history entries as its distinct rows and a [`RowMap`], so each
/// distinct item is projected once ([`Graph::project_rows`]), not once per
/// window slot.
pub struct SelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    d: usize,
}

impl SelfAttention {
    /// Creates the three projection matrices (`{name}.wq/wk/wv`, no biases).
    pub fn new<R: Rng + ?Sized>(ps: &mut ParamStore, rng: &mut R, name: &str, d: usize) -> Self {
        SelfAttention {
            wq: Linear::new(ps, rng, &format!("{name}.wq"), d, d, false),
            wk: Linear::new(ps, rng, &format!("{name}.wk"), d, d, false),
            wv: Linear::new(ps, rng, &format!("{name}.wv"), d, d, false),
            d,
        }
    }

    /// `[E·W_Q, E·W_K, E·W_V]` for `e: [b, n, d]`.
    fn project(&self, g: &mut Graph, ps: &ParamStore, e: Var) -> [Var; 3] {
        let q = self.wq.forward(g, ps, e);
        let k = self.wk.forward(g, ps, e);
        let v = self.wv.forward(g, ps, e);
        [q, k, v]
    }

    /// The three param vars and `[E·W_Q, E·W_K, E·W_V]` of a block given as
    /// its distinct rows `e_u` and the slot map `rows`: one
    /// [`Graph::project_rows`] node each, `[b, n, d]` values.
    fn project_rows(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        e_u: Var,
        rows: &RowMap,
    ) -> ([Var; 3], [Var; 3]) {
        let w = [&self.wq, &self.wk, &self.wv].map(|l| g.param(ps, l.w));
        (w, w.map(|w| g.project_rows(e_u, w, rows)))
    }

    fn scale(&self) -> f32 {
        attention_scale(self.d)
    }

    /// Unmasked attention over `e: [b, n, d]` (the static view, Eq. 8).
    pub fn forward(&self, g: &mut Graph, ps: &ParamStore, e: Var) -> Var {
        let [q, k, v] = self.project(g, ps, e);
        let scores = g.bmm_nt(q, k);
        let scaled = g.scale(scores, self.scale());
        let attn = g.softmax(scaled);
        g.bmm(attn, v)
    }

    /// Causal attention over `e: [b, n, d]` (the dynamic view, Eq. 9–10):
    /// position `i` attends to `j ≤ i`. Values and every gradient are
    /// bit-identical to the dense `softmax(E·W_Q·(E·W_K)ᵀ/√d + M˙)·E·W_V`
    /// under the causal mask `M˙` for finite inputs, through one
    /// [`Graph::attention_causal`] node that keeps only the
    /// `n·(n + 1)/2` live scores of each sample's `n²`.
    pub fn forward_causal(&self, g: &mut Graph, ps: &ParamStore, e: Var) -> Var {
        let [q, k, v] = self.project(g, ps, e);
        g.attention_causal(q, k, v, self.scale())
    }

    /// [`Self::forward_causal`] over the history block given as its
    /// distinct rows `e_u` and slot map `rows` (from
    /// [`Embedding::lookup_distinct`]; the dynamic view, Eq. 9–10): each
    /// distinct row is projected once, then the same causal node runs over
    /// the `[b, n˙, d]` projections. Every value is bit-identical to
    /// `forward_causal` over the per-slot block; `∂W` and `∂E˙` move by
    /// rounding (see [`Graph::project_rows`]).
    pub fn forward_causal_rows(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        e_u: Var,
        rows: &RowMap,
    ) -> Var {
        let (_, [q, k, v]) = self.project_rows(g, ps, e_u, rows);
        g.attention_causal(q, k, v, self.scale())
    }

    /// The cross view's history side (Eq. 11–12): `E˙·W_Q`, `E˙·W_K` and
    /// `E˙·W_V` for the history block given as its distinct rows `e_u` and
    /// slot map `rows`, each distinct row projected once, kept with the
    /// three projection param vars that the static rows reuse in
    /// [`Self::forward_cross`].
    pub fn project_history(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        e_u: Var,
        rows: &RowMap,
    ) -> CrossHistory {
        let (w, qkv) = self.project_rows(g, ps, e_u, rows);
        CrossHistory { w, qkv }
    }

    /// Cross-view attention (Eq. 11–13) of the static rows `e_s: [b, ns, d]`
    /// against a history side from [`Self::project_history`]: the static
    /// rows are projected through the history side's own param vars, then
    /// one [`Graph::attention_cross`] node scores only the `2·ns·nd`
    /// admitted pairs of each sample's `(ns + nd)²`. Output
    /// `[b, ns + nd, d]`, static rows first. Values and every gradient are
    /// bit-identical to the dense pipeline under the cross mask over these
    /// same projections stacked (`[E°·W; E˙·W]`). Against one projection of
    /// the stacked input `[E°; E˙]`, every value is still identical — each
    /// projected row is its own chain — and only each `∂W` sum moves by
    /// rounding, now a static part plus a history part.
    pub fn forward_cross(&self, g: &mut Graph, e_s: Var, hist: &CrossHistory) -> Var {
        let stat = hist.w.map(|w| g.matmul(e_s, w));
        g.attention_cross(stat, hist.qkv, self.scale())
    }
}

/// The history side of a [`SelfAttention::forward_cross`]: the history
/// block's `[b, n˙, d]` Q/K/V projections (each distinct item projected
/// once and placed at its slots, [`Graph::project_rows`]) and the
/// `W_Q`/`W_K`/`W_V` param vars behind them. Independent of the static
/// rows, so several candidate batches over the same histories share one.
#[derive(Clone, Copy, Debug)]
pub struct CrossHistory {
    w: [Var; 3],
    qkv: [Var; 3],
}

/// One layer of the paper's residual feed-forward network:
/// `h ← h + Dropout(ReLU(LN(h)·W + b))` (Eq. 15 with the layer-dropout of
/// §III-F). Ablation switches can disable the residual connection and/or the
/// LayerNorm (Table V: "Remove RC", "Remove LN").
pub struct ResidualFfnLayer {
    ln: LayerNorm,
    lin: Linear,
}

impl ResidualFfnLayer {
    /// Creates one `d → d` layer named `{name}.*`.
    pub fn new<R: Rng + ?Sized>(ps: &mut ParamStore, rng: &mut R, name: &str, d: usize) -> Self {
        ResidualFfnLayer {
            ln: LayerNorm::new(ps, &format!("{name}.ln"), d),
            lin: Linear::new(ps, rng, &format!("{name}.lin"), d, d, true),
        }
    }

    /// Applies the layer. `dropout` is the drop probability ρ (0 disables),
    /// active only when `training`. `residual`/`layer_norm` are the Table V
    /// ablation switches.
    #[allow(clippy::too_many_arguments)]
    pub fn forward<R: Rng + ?Sized>(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        h: Var,
        dropout: f32,
        training: bool,
        rng: &mut R,
        residual: bool,
        layer_norm: bool,
    ) -> Var {
        let normed = if layer_norm { self.ln.forward(g, ps, h) } else { h };
        let lin = self.lin.forward(g, ps, normed);
        let act = g.relu(lin);
        let reg = if training && dropout > 0.0 { g.dropout(act, dropout, rng) } else { act };
        if residual {
            g.add(h, reg)
        } else {
            reg
        }
    }
}

/// The `l`-layer shared residual FFN (paper Eq. 15). The same instance — and
/// therefore the same parameters — is applied to all three views.
pub struct ResidualFfn {
    layers: Vec<ResidualFfnLayer>,
}

impl ResidualFfn {
    /// `l` layers of width `d`, named `{name}.0 … {name}.{l-1}`.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d: usize,
        l: usize,
    ) -> Self {
        let layers =
            (0..l).map(|i| ResidualFfnLayer::new(ps, rng, &format!("{name}.{i}"), d)).collect();
        ResidualFfn { layers }
    }

    /// Network depth `l`.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Applies all layers in sequence (see [`ResidualFfnLayer::forward`]).
    #[allow(clippy::too_many_arguments)]
    pub fn forward<R: Rng + ?Sized>(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        mut h: Var,
        dropout: f32,
        training: bool,
        rng: &mut R,
        residual: bool,
        layer_norm: bool,
    ) -> Var {
        for layer in &self.layers {
            h = layer.forward(g, ps, h, dropout, training, rng, residual, layer_norm);
        }
        h
    }
}

/// Plain multi-layer perceptron with ReLU activations between layers (used by
/// the Wide&Deep / NFM / DIN / xDeepFM baselines).
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// `dims = [in, h1, …, out]`; ReLU after every layer except the last.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        dims: &[usize],
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(ps, rng, &format!("{name}.{i}"), w[0], w[1], true))
            .collect();
        Mlp { layers }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward over rank-2 input with optional dropout after each hidden
    /// activation.
    pub fn forward<R: Rng + ?Sized>(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        mut x: Var,
        dropout: f32,
        training: bool,
        rng: &mut R,
    ) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(g, ps, x);
            if i < last {
                x = g.relu(x);
                if training && dropout > 0.0 {
                    x = g.dropout(x, dropout, rng);
                }
            }
        }
        x
    }
}

/// Gated recurrent unit cell (used by the RRN baseline).
pub struct GruCell {
    wx: Linear, // input → 3·hidden (z, r, h̃ pre-activations from x)
    wh: Linear, // hidden → 3·hidden
    hidden: usize,
}

impl GruCell {
    /// Creates a GRU cell `{name}.wx`, `{name}.wh`.
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        input: usize,
        hidden: usize,
    ) -> Self {
        GruCell {
            wx: Linear::new(ps, rng, &format!("{name}.wx"), input, 3 * hidden, true),
            wh: Linear::new(ps, rng, &format!("{name}.wh"), hidden, 3 * hidden, false),
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// One step: `(x [b,in], h [b,hid]) → h' [b,hid]`.
    ///
    /// Standard GRU equations:
    /// `z = σ(a_z)`, `r = σ(a_r)`, `h̃ = tanh(a_h^x + r ⊙ a_h^h)`,
    /// `h' = (1−z) ⊙ h + z ⊙ h̃`.
    pub fn step(&self, g: &mut Graph, ps: &ParamStore, x: Var, h: Var) -> Var {
        let hd = self.hidden;
        let gx = self.wx.forward(g, ps, x); // [b, 3h]
        let gh = self.wh.forward(g, ps, h); // [b, 3h]
        let b = g.value(x).shape().dim(0);
        let split = |g: &mut Graph, t: Var, i: usize| -> Var {
            // columns [i*hd, (i+1)*hd) of a [b, 3h] tensor
            let t3 = g.reshape(t, Shape::d3(b, 3, hd));
            let s = g.slice_axis1(t3, i, 1);
            g.reshape(s, Shape::d2(b, hd))
        };
        let zx = split(g, gx, 0);
        let zh = split(g, gh, 0);
        let rx = split(g, gx, 1);
        let rh = split(g, gh, 1);
        let hx = split(g, gx, 2);
        let hh = split(g, gh, 2);

        let zsum = g.add(zx, zh);
        let z = g.sigmoid(zsum);
        let rsum = g.add(rx, rh);
        let r = g.sigmoid(rsum);
        let gated = g.mul(r, hh);
        let pre = g.add(hx, gated);
        let h_cand = g.tanh(pre);
        // h' = h + z ⊙ (h̃ − h)
        let diff = g.sub(h_cand, h);
        let upd = g.mul(z, diff);
        g.add(h, upd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqfm_autograd::assert_grad_check;
    use seqfm_tensor::testutil::{causal_mask, cross_mask, rand_tensor};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes_and_grad() {
        let mut ps = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut ps, &mut r, "l", 4, 3, true);
        let mut seed = 5;
        let x = ps.add_dense("x", rand_tensor(Shape::d2(2, 4), &mut seed));
        let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
        assert_grad_check(&mut ps, &ids, 1e-2, 2e-2, |g, ps| {
            let xv = g.param(ps, x);
            let y = lin.forward(g, ps, xv);
            assert_eq!(g.value(y).shape(), Shape::d2(2, 3));
            let sq = g.square(y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn linear_3d_matches_rowwise_2d() {
        let mut ps = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut ps, &mut r, "l", 3, 2, true);
        let mut seed = 9;
        let x3 = rand_tensor(Shape::d3(2, 4, 3), &mut seed);
        let mut g = Graph::new();
        let xv = g.input(x3.clone());
        let y3 = lin.forward(&mut g, &ps, xv);
        let x2 = g.input(x3.reshaped(Shape::d2(8, 3)));
        let y2 = lin.forward(&mut g, &ps, x2);
        assert_eq!(g.value(y3).data(), g.value(y2).data());
        assert_eq!(g.value(y3).shape(), Shape::d3(2, 4, 2));
    }

    #[test]
    fn embedding_padding_row_is_zero_and_frozen() {
        let mut ps = ParamStore::new();
        let mut r = rng();
        let emb = Embedding::new(&mut ps, &mut r, "e", 6, 3);
        let mut g = Graph::new();
        let e = emb.lookup(&mut g, &ps, &[2, -1, 0, 5], 2, 2);
        for dim in 0..3 {
            assert_eq!(g.value(e).at3(0, 1, dim), 0.0);
        }
        let loss = g.sum_all(e);
        g.backward(loss, &mut ps);
        assert_eq!(ps.touched_rows(emb.table()), vec![0, 2, 5]);
    }

    #[test]
    fn layer_norm_normalises() {
        let mut ps = ParamStore::new();
        let ln = LayerNorm::new(&mut ps, "ln", 8);
        let mut seed = 3;
        let x = rand_tensor(Shape::d2(4, 8), &mut seed).map(|v| v * 10.0 + 3.0);
        let mut g = Graph::new();
        let xv = g.input(x);
        let y = ln.forward(&mut g, &ps, xv);
        for row in 0..4 {
            let r = g.value(y).row(row);
            let mean: f32 = r.iter().sum::<f32>() / 8.0;
            let var: f32 = r.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row {row} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {row} var {var}");
        }
    }

    #[test]
    fn self_attention_shapes_and_causality() {
        let mut ps = ParamStore::new();
        let mut r = rng();
        let attn = SelfAttention::new(&mut ps, &mut r, "attn", 4);
        let mut seed = 11;
        let e1 = rand_tensor(Shape::d3(1, 5, 4), &mut seed);
        // Perturb the last position; earlier outputs must not change under a
        // causal mask.
        let mut e2 = e1.clone();
        for d in 0..4 {
            let i = (4 * 4) + d; // position 4
            e2.data_mut()[i] += 1.0;
        }
        let mut g = Graph::new();
        let a = g.input(e1);
        let b = g.input(e2);
        let ha = attn.forward_causal(&mut g, &ps, a);
        let hb = attn.forward_causal(&mut g, &ps, b);
        assert_eq!(g.value(ha).shape(), Shape::d3(1, 5, 4));
        for pos in 0..4 {
            for d in 0..4 {
                let va = g.value(ha).at3(0, pos, d);
                let vb = g.value(hb).at3(0, pos, d);
                assert!((va - vb).abs() < 1e-6, "pos {pos} changed: {va} vs {vb}");
            }
        }
        // position 4 must change
        let va = g.value(ha).at3(0, 4, 0);
        let vb = g.value(hb).at3(0, 4, 0);
        assert!((va - vb).abs() > 1e-6);
    }

    /// One cross-view pass over the dense parameter `e` through `path`,
    /// reduced by `mean(h²)`: the bit patterns of `h`, then — with
    /// `backward` — of `∂e`, `∂W_Q`, `∂W_K`, `∂W_V`.
    fn cross_pass_bits(
        ps: &mut ParamStore,
        e: ParamId,
        backward: bool,
        path: impl Fn(&mut Graph, &ParamStore, Var) -> Var,
    ) -> Vec<Vec<u32>> {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        ps.zero_grads();
        let mut g = Graph::new();
        let ev = g.param(ps, e);
        let h = path(&mut g, ps, ev);
        let mut out = vec![bits(g.value(h))];
        if backward {
            let sq = g.square(h);
            let loss = g.mean_all(sq);
            g.backward(loss, ps);
            for name in ["e", "attn.wq.w", "attn.wk.w", "attn.wv.w"] {
                out.push(bits(ps.grad(ps.id_of(name).expect("registered"))));
            }
        }
        out
    }

    /// The dense masked composition on the tape over projections
    /// `[q, k, v]`, `softmax(Q·Kᵀ/√d + M)·V`: the oracle's additive
    /// `[n, n]` mask `M` enters as a constant input broadcast over the batch,
    /// added to the scaled scores, then a plain softmax — the same
    /// arithmetic, forward and backward, as the masked softmax node the tape
    /// once had.
    fn dense_masked(attn: &SelfAttention, g: &mut Graph, [q, k, v]: [Var; 3], mask: &[f32]) -> Var {
        let scores = g.bmm_nt(q, k);
        let scaled = g.scale(scores, attn.scale());
        let (b, n) = (g.value(q).shape().dim(0), g.value(q).shape().dim(1));
        let m = g.input(Tensor::from_vec(Shape::d3(b, n, n), mask.repeat(b)));
        let masked = g.add(scaled, m);
        let w = g.softmax(masked);
        g.bmm(w, v)
    }

    /// `node` (a structured attention path) against `dense` (its dense
    /// composition) from the same parameters: every compared tensor equal
    /// bit for bit.
    fn assert_node_matches_dense(
        ps: &mut ParamStore,
        e: ParamId,
        backward: bool,
        dense: impl Fn(&mut Graph, &ParamStore, Var) -> Var,
        node: impl Fn(&mut Graph, &ParamStore, Var) -> Var,
    ) {
        let shape = ps.value(e).shape();
        let dense = cross_pass_bits(ps, e, backward, dense);
        let node = cross_pass_bits(ps, e, backward, node);
        for (what, (n, d)) in ["h", "∂e", "∂wq", "∂wk", "∂wv"].iter().zip(node.iter().zip(&dense))
        {
            assert_eq!(n, d, "{shape}: {what} diverges from the dense composition");
        }
    }

    /// The map that gives each of a `[b, n]` block's slots its own row: the
    /// block is its own distinct rows, and [`Graph::project_rows`] is
    /// [`Graph::matmul`] bit for bit.
    fn every_slot(b: usize, n: usize) -> RowMap {
        RowMap::distinct(&(0..(b * n) as i64).collect::<Vec<_>>(), b, n).1
    }

    /// The cross view of `e: [b, ns + nd, d]` as the model records it: the
    /// history rows' side once, then the static rows through its param vars.
    fn cross_node(attn: &SelfAttention, g: &mut Graph, ps: &ParamStore, e: Var, ns: usize) -> Var {
        let (b, n) = (g.value(e).shape().dim(0), g.value(e).shape().dim(1));
        let (e_s, e_d) = (g.slice_axis1(e, 0, ns), g.slice_axis1(e, ns, n - ns));
        let hist = attn.project_history(g, ps, e_d, &every_slot(b, n - ns));
        attn.forward_cross(g, e_s, &hist)
    }

    /// `forward_cross` against the dense composition under the cross mask,
    /// built from the same split projections (the history side, then the
    /// static rows' matmuls through its param vars) stacked per operand.
    fn assert_forward_cross_matches_dense(
        ps: &mut ParamStore,
        attn: &SelfAttention,
        e: ParamId,
        ns: usize,
        backward: bool,
    ) {
        let (b, nd) = (ps.value(e).shape().dim(0), ps.value(e).shape().dim(1) - ns);
        let mask = cross_mask(ns, nd);
        let dense = |g: &mut Graph, ps: &ParamStore, ev: Var| {
            let (e_s, e_d) = (g.slice_axis1(ev, 0, ns), g.slice_axis1(ev, ns, nd));
            let hist = attn.project_history(g, ps, e_d, &every_slot(b, nd));
            let stat = hist.w.map(|w| g.matmul(e_s, w));
            let qkv = [0, 1, 2].map(|i| g.concat_axis1(stat[i], hist.qkv[i]));
            dense_masked(attn, g, qkv, mask.data())
        };
        assert_node_matches_dense(ps, e, backward, dense, |g, ps, ev| {
            cross_node(attn, g, ps, ev, ns)
        });
    }

    #[test]
    fn forward_causal_matches_the_dense_masked_composition_bitwise() {
        // Q, K and V all project the one input `e`, so `∂e` sums the three
        // gradients in the node's delivery order (V, Q, K) — the dense
        // tape's. Training geometry, ragged lane tails, a single position;
        // every sample opens with 0–n all-zero (padding) rows.
        for &(b, n, d) in &[(128usize, 20usize, 32usize), (3, 13, 16), (2, 5, 7), (4, 1, 8)] {
            let mut ps = ParamStore::new();
            let attn = SelfAttention::new(&mut ps, &mut rng(), "attn", d);
            let mut seed = 700 + (b + n * 7) as u64;
            let mut et = rand_tensor(Shape::d3(b, n, d), &mut seed);
            for (bi, sample) in et.data_mut().chunks_exact_mut(n * d).enumerate() {
                sample[..(bi * 3) % (n + 1) * d].fill(0.0);
            }
            let e = ps.add_dense("e", et);
            let mask = causal_mask(n);
            let dense = |g: &mut Graph, ps: &ParamStore, ev: Var| {
                let qkv = attn.project(g, ps, ev);
                dense_masked(&attn, g, qkv, mask.data())
            };
            assert_node_matches_dense(&mut ps, e, true, dense, |g, ps, ev| {
                attn.forward_causal(g, ps, ev)
            });
        }
    }

    #[test]
    fn forward_cross_matches_the_dense_masked_composition_bitwise() {
        // Training geometry, ragged lane tails, both empty sides. The oracle
        // stacks the same split projections the node takes, so `∂W` runs
        // the same static-then-history sums on both sides.
        for &(b, ns, nd, d) in &[
            (128usize, 2usize, 20usize, 32usize),
            (3, 2, 13, 16),
            (2, 3, 5, 7),
            (4, 1, 3, 8),
            (1, 2, 0, 4),
            (2, 0, 4, 4),
        ] {
            let mut ps = ParamStore::new();
            let attn = SelfAttention::new(&mut ps, &mut rng(), "attn", d);
            let mut seed = 600 + (b + ns * 31 + nd * 7) as u64;
            let e = ps.add_dense("e", rand_tensor(Shape::d3(b, ns + nd, d), &mut seed));
            assert_forward_cross_matches_dense(&mut ps, &attn, e, ns, true);
        }
    }

    #[test]
    fn forward_cross_skips_an_underflowed_weight_like_the_dense_composition() {
        // Q and K read coordinates 0–1 of `e`, V reads 2–3. Static row 0 and
        // history row `j` are 30 and −40 on coordinate 0 (everyone else 0
        // there), so the admitted pair scores ≈ −600 and its softmax weight
        // underflows to exactly 0.0 in both blocks. The `nn` / `tn` chains
        // skip a zero multiplier; a kernel that multiplied instead would
        // show in the bits (a `−0.0` term) or, opposite an infinite value
        // row, as NaN.
        let (b, ns, nd, d, j) = (2usize, 2usize, 5usize, 4usize, 3usize);
        let n = ns + nd;
        let mut ps = ParamStore::new();
        let attn = SelfAttention::new(&mut ps, &mut rng(), "attn", d);
        let mut w = [[0.0f32; 16]; 2];
        (w[0][0], w[0][5]) = (1.0, 1.0);
        w[1][8..].fill(1e10);
        for (name, w) in [("attn.wq.w", w[0]), ("attn.wk.w", w[0]), ("attn.wv.w", w[1])] {
            let id = ps.id_of(name).expect("registered");
            ps.value_mut(id).data_mut().copy_from_slice(&w);
        }
        let mut seed = 811;
        let mut et = rand_tensor(Shape::d3(b, n, d), &mut seed);
        for (r, row) in et.data_mut().chunks_exact_mut(d).enumerate() {
            row[0] = match r % n {
                0 => 30.0,
                at if at == ns + j => -40.0,
                _ => 0.0,
            };
        }
        let e = ps.add_dense("e", et);
        // Finite values: output and all four gradients.
        assert_forward_cross_matches_dense(&mut ps, &attn, e, ns, true);

        // The two rows the zero weights point at overflow to +∞ under
        // `W_V`: forward bits only (`dA = dO·Vᵀ` would be NaN on both sides
        // and NaN payloads are not part of the contract).
        for bi in 0..b {
            for r in [0, ns + j] {
                let at = (bi * n + r) * d;
                ps.value_mut(e).data_mut()[at + 2..at + 4].fill(1e30);
            }
        }
        assert_forward_cross_matches_dense(&mut ps, &attn, e, ns, false);
        let mut g = Graph::new();
        let ev = g.param(&ps, e);
        let h = cross_node(&attn, &mut g, &ps, ev, ns);
        for bi in 0..b {
            for r in [0, ns + j] {
                let row = &g.value(h).data()[(bi * n + r) * d..(bi * n + r + 1) * d];
                assert!(
                    row.iter().all(|x| x.is_finite()),
                    "sample {bi} row {r} absorbed ∞: {row:?}"
                );
            }
        }
    }

    #[test]
    fn residual_ffn_grad_and_ablations() {
        let mut ps = ParamStore::new();
        let mut r = rng();
        let ffn = ResidualFfn::new(&mut ps, &mut r, "ffn", 4, 2);
        assert_eq!(ffn.depth(), 2);
        let mut seed = 13;
        let x = ps.add_dense("x", rand_tensor(Shape::d2(3, 4), &mut seed));
        let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
        // gradients with everything enabled (dropout off for determinism)
        assert_grad_check(&mut ps, &ids, 1e-2, 3e-2, |g, ps| {
            let xv = g.param(ps, x);
            let mut tmp = StdRng::seed_from_u64(0);
            let y = ffn.forward(g, ps, xv, 0.0, false, &mut tmp, true, true);
            let sq = g.square(y);
            g.mean_all(sq)
        });
        // removing the residual changes the output
        let mut g = Graph::new();
        let xv = g.param(&ps, x);
        let mut tmp = StdRng::seed_from_u64(0);
        let with_rc = ffn.forward(&mut g, &ps, xv, 0.0, false, &mut tmp, true, true);
        let without_rc = ffn.forward(&mut g, &ps, xv, 0.0, false, &mut tmp, false, true);
        assert_ne!(g.value(with_rc).data(), g.value(without_rc).data());
        // removing LN changes the output
        let without_ln = ffn.forward(&mut g, &ps, xv, 0.0, false, &mut tmp, true, false);
        assert_ne!(g.value(with_rc).data(), g.value(without_ln).data());
    }

    #[test]
    fn mlp_forward_and_grad() {
        let mut ps = ParamStore::new();
        let mut r = rng();
        let mlp = Mlp::new(&mut ps, &mut r, "mlp", &[6, 5, 1]);
        assert_eq!(mlp.out_dim(), 1);
        let mut seed = 17;
        let x = ps.add_dense("x", rand_tensor(Shape::d2(4, 6), &mut seed));
        let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
        assert_grad_check(&mut ps, &ids, 1e-2, 3e-2, |g, ps| {
            let xv = g.param(ps, x);
            let mut tmp = StdRng::seed_from_u64(0);
            let y = mlp.forward(g, ps, xv, 0.0, false, &mut tmp);
            let sq = g.square(y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gru_step_grad_and_gating() {
        let mut ps = ParamStore::new();
        let mut r = rng();
        let gru = GruCell::new(&mut ps, &mut r, "gru", 3, 4);
        assert_eq!(gru.hidden(), 4);
        let mut seed = 19;
        let x = ps.add_dense("x", rand_tensor(Shape::d2(2, 3), &mut seed));
        let h = ps.add_dense("h", rand_tensor(Shape::d2(2, 4), &mut seed));
        let ids: Vec<_> = ps.iter().map(|(id, _)| id).collect();
        assert_grad_check(&mut ps, &ids, 5e-3, 3e-2, |g, ps| {
            let xv = g.param(ps, x);
            let hv = g.param(ps, h);
            let h2 = gru.step(g, ps, xv, hv);
            assert_eq!(g.value(h2).shape(), Shape::d2(2, 4));
            let sq = g.square(h2);
            g.mean_all(sq)
        });
    }
}
