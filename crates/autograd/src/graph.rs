//! Define-by-run computation graph (forward pass).
//!
//! A [`Graph`] is a tape: every operation executes eagerly, appends a node
//! holding its output value, and returns a [`Var`] handle. Calling
//! [`Graph::backward`] replays the tape in reverse, accumulating parameter
//! gradients into a [`ParamStore`].
//!
//! ## Pooled tape buffers
//!
//! Node values (and the backward pass's gradient temporaries) live in
//! buffers drawn from the graph's own [`Workspace`] pool instead of fresh
//! heap allocations. [`Graph::reset`] clears the tape and recycles every
//! buffer, so a training loop that reuses one `Graph` across mini-batches —
//! or a serving adapter that reuses one across requests — builds each new
//! tape without touching the global allocator once the pool has warmed to
//! the batch shape. Dropping the graph simply frees the pool.

use crate::op::{LnCache, Op};
use crate::rowmap::PAD;
use crate::store::{ParamId, ParamStore};
use crate::RowMap;
use rand::Rng;
use seqfm_tensor::{
    attention_causal_into, attention_cross_into, bmm_nn_into, bmm_nt_into, ew,
    kernels::matmul::matmul_nn_into, reduce, softmax_rows_into, Shape, Tensor, Workspace,
};
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Var(pub(crate) usize);

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
    pub needs_grad: bool,
}

/// The autodiff tape. See the module docs.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Buffer pool backing node values and backward temporaries; `&self`
    /// interior mutability so the backward sweep (which borrows the tape
    /// immutably) can recycle through it too.
    pub(crate) ws: Workspace,
    /// Reused gradient-slot table of the backward sweep (one entry per
    /// node); kept across calls so backward itself allocates nothing once
    /// its capacity has grown to the tape length.
    pub(crate) grads: std::cell::RefCell<Vec<Option<Tensor>>>,
}

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tape with preallocated node capacity (hot training loops).
    pub fn with_capacity(n: usize) -> Self {
        Graph { nodes: Vec::with_capacity(n), ..Default::default() }
    }

    /// Clears the tape and recycles every node's buffer into the graph's
    /// workspace pool, ready for the next forward pass. A loop that calls
    /// `reset` between mini-batches (or serving requests) rebuilds its tape
    /// with **zero heap allocations** once the pool is warm — the pooled
    /// successor of building a fresh `Graph` per batch.
    pub fn reset(&mut self) {
        // Reverse node order: the pool pops LIFO, so the next forward pass's
        // i-th allocation receives exactly the buffer the previous pass's
        // i-th node held — identity reuse, no capacity churn between
        // differently-sized slots.
        for node in self.nodes.drain(..).rev() {
            match node.op {
                // Input buffers were allocated by the caller (batch
                // construction), not the pool: absorbing one per op per
                // cycle would grow the pool without bound and keep
                // shuffling odd-sized buffers into the hot take sequence.
                Op::Input => drop(node.value),
                // Recycle the op payloads that own real buffers, too.
                Op::LayerNorm { cache, .. } => {
                    self.ws.put_vec(node.value.into_vec());
                    self.ws.put_vec(cache.mean);
                    self.ws.put_vec(cache.rstd);
                }
                Op::AttentionCausal { weights, .. } | Op::AttentionCross { weights, .. } => {
                    self.ws.put_vec(node.value.into_vec());
                    self.ws.put_vec(weights);
                }
                Op::Dropout { mask, .. } => {
                    self.ws.put_vec(node.value.into_vec());
                    if let Ok(mask) = Arc::try_unwrap(mask) {
                        self.ws.put_vec(mask);
                    }
                }
                _ => self.ws.put_vec(node.value.into_vec()),
            }
        }
    }

    /// The graph's buffer pool — exposed so callers can observe warm-state
    /// allocation behaviour (`heap_events`) or release memory (`reset`
    /// on the workspace itself frees parked buffers).
    pub fn workspace(&self) -> &Workspace {
        &self.ws
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Every node's value shape, in tape order: what a test of a model's
    /// tape structure reads.
    pub fn shapes(&self) -> impl Iterator<Item = Shape> + '_ {
        self.nodes.iter().map(|node| node.value.shape())
    }

    /// Convenience: the single element of a `[1]`-shaped node (losses).
    ///
    /// # Panics
    /// Panics if the node does not hold exactly one element.
    pub fn scalar_value(&self, v: Var) -> f32 {
        let t = self.value(v);
        assert_eq!(t.numel(), 1, "scalar_value on {} tensor", t.shape());
        t.data()[0]
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node { value, op, needs_grad });
        Var(self.nodes.len() - 1)
    }

    fn ng(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    // --- pooled buffers -----------------------------------------------------

    /// Zero-filled pooled tensor (the tape's `Tensor::zeros`).
    pub(crate) fn pooled_zeros(&self, shape: Shape) -> Tensor {
        Tensor::from_vec(shape, self.ws.take_vec(shape.numel()))
    }

    /// Pooled tensor whose elements the caller overwrites, every one,
    /// before any is read: a recycled buffer keeps its stale values (see
    /// [`Workspace::take_vec_for_overwrite`]).
    pub(crate) fn pooled_for_overwrite(&self, shape: Shape) -> Tensor {
        Tensor::from_vec(shape, self.ws.take_vec_for_overwrite(shape.numel()))
    }

    /// Pooled copy of `src` (the tape's `Tensor::clone`).
    pub(crate) fn pooled_copy(&self, src: &Tensor) -> Tensor {
        Tensor::from_vec(src.shape(), self.ws.take_vec_copy(src.data()))
    }

    /// Pooled copy of `src` under a different shape (reshape-with-copy).
    pub(crate) fn pooled_copy_shaped(&self, src: &[f32], shape: Shape) -> Tensor {
        Tensor::from_vec(shape, self.ws.take_vec_copy(src))
    }

    /// Returns a pooled tensor's buffer to the pool (backward temporaries).
    pub(crate) fn recycle(&self, t: Tensor) {
        self.ws.put_vec(t.into_vec());
    }

    // --- leaves -------------------------------------------------------------

    /// Records a constant input (no gradient).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Input, false)
    }

    /// Records a parameter leaf by copying its current value from the store
    /// (into a pooled buffer — parameters are the largest per-tape copies).
    pub fn param(&mut self, ps: &ParamStore, id: ParamId) -> Var {
        let v = self.pooled_copy(ps.value(id));
        self.push(v, Op::Param(id), true)
    }

    /// Embedding lookup: gathers rows of the (sparse) parameter `table` into
    /// a `[b, n, d]` tensor. Index `-1` denotes padding and yields a zero row
    /// that receives no gradient — this realises the paper's zero-vector
    /// padding of the dynamic feature matrix (§III).
    ///
    /// # Panics
    /// Panics if `idx.len() != b*n` or an index is out of table range.
    pub fn gather(
        &mut self,
        ps: &ParamStore,
        table: ParamId,
        idx: &[i64],
        b: usize,
        n: usize,
    ) -> Var {
        assert_eq!(idx.len(), b * n, "gather: idx len {} != {}x{}", idx.len(), b, n);
        let tbl = ps.value(table);
        let d = tbl.shape().dim(1);
        let mut out = self.pooled_for_overwrite(Shape::d3(b, n, d));
        ew::gather_rows_into(tbl.data(), d, idx, out.data_mut());
        self.push(out, Op::Gather { table, idx: Arc::new(idx.to_vec()) }, true)
    }

    // --- elementwise --------------------------------------------------------

    /// Pooled copy of `a`'s value transformed elementwise in place — the
    /// tape's `map` (per-element arithmetic identical to mapping).
    fn unary(&mut self, x: Var, f: impl Fn(f32) -> f32, op: Op) -> Var {
        let mut v = self.pooled_copy(self.value(x));
        for o in v.data_mut() {
            *o = f(*o);
        }
        let g = self.ng(x);
        self.push(v, op, g)
    }

    /// Pooled copy of `a`'s value combined elementwise with `b`'s — the
    /// tape's `zip` (`f(a_i, b_i)` exactly, evaluated left-to-right).
    fn binary(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32, op: Op) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert!(
            av.shape().same(&bv.shape()),
            "elementwise shape mismatch: {} vs {}",
            av.shape(),
            bv.shape()
        );
        let mut v = self.pooled_copy(av);
        let bv = self.value(b);
        for (o, &y) in v.data_mut().iter_mut().zip(bv.data()) {
            *o = f(*o, y);
        }
        let g = self.ng(a) || self.ng(b);
        self.push(v, op, g)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x + y, Op::Add(a, b))
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x - y, Op::Sub(a, b))
    }

    /// `a ⊙ b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x * y, Op::Mul(a, b))
    }

    /// `-x`.
    pub fn neg(&mut self, x: Var) -> Var {
        self.unary(x, |v| -v, Op::Neg(x))
    }

    /// `s · x`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        self.unary(x, |v| v * s, Op::Scale(x, s))
    }

    /// `x²` elementwise.
    pub fn square(&mut self, x: Var) -> Var {
        self.unary(x, |v| v * v, Op::Square(x))
    }

    /// ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        self.unary(x, |v| v.max(0.0), Op::Relu(x))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.unary(x, seqfm_tensor::ew::sigmoid_scalar, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.unary(x, |v| v.tanh(), Op::Tanh(x))
    }

    /// Numerically-stable softplus `ln(1+eˣ)`.
    pub fn softplus(&mut self, x: Var) -> Var {
        self.unary(x, seqfm_tensor::ew::softplus_scalar, Op::Softplus(x))
    }

    /// `x + bias` (bias rank-1, broadcast over rows).
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        let (xv, bv) = (self.value(x), self.value(b));
        assert_eq!(bv.shape().rank(), 1, "bias must be rank 1, got {}", bv.shape());
        let d = bv.numel();
        assert_eq!(
            xv.shape().last_dim(),
            d,
            "bias dim {d} does not match last dim of {}",
            xv.shape()
        );
        let mut v = self.pooled_copy(xv);
        ew::add_bias_rows_inplace(v.data_mut(), self.value(b).data());
        let g = self.ng(x) || self.ng(b);
        self.push(v, Op::AddBias { x, b }, g)
    }

    // --- linear algebra ------------------------------------------------------

    /// `A[m,k]·B[k,n]`. A rank-3 `A[b,r,k]` is multiplied as the `[b·r, k]`
    /// matrix its rows already are and yields `[b,r,n]` — a projection along
    /// the last dim with no flatten/unflatten copies.
    ///
    /// # Panics
    /// Panics unless `a` is rank 2 or 3, `b` is rank 2 and the inner
    /// dimensions agree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (sa, sb) = (self.value(a).shape(), self.value(b).shape());
        assert!(
            matches!(sa.rank(), 2 | 3) && sb.rank() == 2,
            "matmul expects a rank-2 or rank-3 lhs and a rank-2 rhs, got {sa} · {sb}"
        );
        let (m, k, n) = (sa.outer_rows(), sa.last_dim(), sb.dim(1));
        assert_eq!(k, sb.dim(0), "matmul inner dim mismatch: {sa} vs {sb}");
        let out_shape =
            if sa.rank() == 3 { Shape::d3(sa.dim(0), sa.dim(1), n) } else { Shape::d2(m, n) };
        let mut out = self.pooled_zeros(out_shape);
        let (av, bv) = (self.value(a), self.value(b));
        seqfm_tensor::matmul_nn_into(av.data(), bv.data(), out.data_mut(), m, k, n);
        let g = self.ng(a) || self.ng(b);
        self.push(out, Op::Matmul(a, b), g)
    }

    /// Row-mapped projection `(X·W)[slot → row]` (paper Eq. 9–12 over a
    /// history block given as its distinct rows): `x` holds the `map.rows()`
    /// distinct rows (any rank, read as its rows, last dim `k`), `w` is
    /// `[k, n]`, and slot `(i, j)` of the `[b, s, n]` value (the map's
    /// block is `[b, s]`) is the product of its row, or `+0.0` for a
    /// padding slot.
    /// Projection is row-local, so every value is bit-identical to
    /// [`Self::matmul`] over the per-slot block (a padding slot's zero row
    /// projects to `+0.0`), while the product runs over the distinct rows
    /// only. The backward sums each row's slot gradients in ascending slot
    /// order (a row's first slot is copied, not added to zero), then runs
    /// `∂X = ∂P·Wᵀ` and `∂W = Xᵀ·∂P` over those rows: when every row has one
    /// slot, both are [`Self::matmul`]'s bit for bit; otherwise they move by
    /// rounding, the sums now taken before the products.
    ///
    /// # Panics
    /// Panics unless `w` is rank 2, `x` has `map.rows()` rows and the inner
    /// dimensions agree.
    pub fn project_rows(&mut self, x: Var, w: Var, map: &RowMap) -> Var {
        let (sx, sw) = (self.value(x).shape(), self.value(w).shape());
        assert_eq!(sw.rank(), 2, "project_rows expects a rank-2 W, got {sw}");
        let (u, k, n) = (map.rows, sx.last_dim(), sw.dim(1));
        assert_eq!(sx.outer_rows(), u, "project_rows: {sx} does not hold the map's {u} rows");
        assert_eq!(k, sw.dim(0), "project_rows inner dim mismatch: {sx} vs {sw}");
        let mut proj = self.ws.take_vec(u * n);
        matmul_nn_into(self.value(x).data(), self.value(w).data(), &mut proj, u, k, n);
        let (b, s) = map.shape;
        let mut out = self.pooled_for_overwrite(Shape::d3(b, s, n));
        for (&r, dst) in map.slots.iter().zip(out.data_mut().chunks_exact_mut(n)) {
            if r == PAD {
                dst.fill(0.0);
            } else {
                dst.copy_from_slice(&proj[r as usize * n..(r as usize + 1) * n]);
            }
        }
        self.ws.put_vec(proj);
        let g = self.ng(x) || self.ng(w);
        self.push(out, Op::ProjectRows { x, w, map: map.clone() }, g)
    }

    /// Batched `A[b,m,k]·B[b,k,n]`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        let (bs, m, k) = dims3(av, "bmm lhs");
        let (bs2, k2, n) = dims3(bv, "bmm rhs");
        assert_eq!(bs, bs2, "bmm batch mismatch: {} vs {}", av.shape(), bv.shape());
        assert_eq!(k, k2, "bmm inner dim mismatch: {} vs {}", av.shape(), bv.shape());
        let mut out = self.pooled_zeros(Shape::d3(bs, m, n));
        let (av, bv) = (self.value(a), self.value(b));
        bmm_nn_into(av.data(), bv.data(), out.data_mut(), bs, m, k, n);
        let g = self.ng(a) || self.ng(b);
        self.push(out, Op::Bmm(a, b), g)
    }

    /// Batched `A[b,m,k]·B[b,n,k]ᵀ` (`Q·Kᵀ`).
    pub fn bmm_nt(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        let (bs, m, k) = dims3(av, "bmm_nt lhs");
        let (bs2, n, k2) = dims3(bv, "bmm_nt rhs");
        assert_eq!(bs, bs2, "bmm_nt batch mismatch: {} vs {}", av.shape(), bv.shape());
        assert_eq!(k, k2, "bmm_nt inner dim mismatch: {} vs {}", av.shape(), bv.shape());
        let mut out = self.pooled_zeros(Shape::d3(bs, m, n));
        let (av, bv) = (self.value(a), self.value(b));
        bmm_nt_into(av.data(), bv.data(), out.data_mut(), bs, m, k, n);
        let g = self.ng(a) || self.ng(b);
        self.push(out, Op::BmmNT(a, b), g)
    }

    /// Left-broadcast matmul `W[p,q]·X[b,q,d] → [b,p,d]`.
    ///
    /// # Panics
    /// Panics if `w` is not rank 2, `x` not rank 3, or `q` dims disagree.
    pub fn lmatmul(&mut self, w: Var, x: Var) -> Var {
        let (wv, xv) = (self.value(w), self.value(x));
        assert_eq!(wv.shape().rank(), 2, "lmatmul W must be rank 2, got {}", wv.shape());
        assert_eq!(xv.shape().rank(), 3, "lmatmul X must be rank 3, got {}", xv.shape());
        let (p, q) = (wv.shape().dim(0), wv.shape().dim(1));
        let (b, q2, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        assert_eq!(q, q2, "lmatmul inner dim mismatch: {} vs {}", wv.shape(), xv.shape());
        let mut out = self.pooled_zeros(Shape::d3(b, p, d));
        let (wv, xv) = (self.value(w), self.value(x));
        for bi in 0..b {
            matmul_nn_into(
                wv.data(),
                &xv.data()[bi * q * d..(bi + 1) * q * d],
                &mut out.data_mut()[bi * p * d..(bi + 1) * p * d],
                p,
                q,
                d,
            );
        }
        let g = self.ng(w) || self.ng(x);
        self.push(out, Op::LMatmul { w, x }, g)
    }

    /// Row-wise dot product of two `[b,d]` tensors → `[b]`.
    ///
    /// # Panics
    /// Panics if shapes differ or are not rank 2.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape().rank(), 2, "row_dot expects rank 2, got {}", av.shape());
        assert!(
            av.shape().same(&bv.shape()),
            "row_dot shape mismatch: {} vs {}",
            av.shape(),
            bv.shape()
        );
        let (b_rows, d) = (av.shape().dim(0), av.shape().dim(1));
        let mut out = self.pooled_zeros(Shape::d1(b_rows));
        let (av, bv) = (self.value(a), self.value(b));
        for ((o, arow), brow) in
            out.data_mut().iter_mut().zip(av.data().chunks_exact(d)).zip(bv.data().chunks_exact(d))
        {
            // Same accumulation order as the historical mul → sum_lastdim
            // pair: products left to right, folded from 0.
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *o = acc;
        }
        let g = self.ng(a) || self.ng(b);
        self.push(out, Op::RowDot(a, b), g)
    }

    // --- attention / normalisation / regularisation --------------------------

    /// Softmax over the last dim.
    ///
    /// # Panics
    /// Panics unless `x` is rank 2 or 3.
    pub fn softmax(&mut self, x: Var) -> Var {
        let s = self.value(x).shape();
        assert!(
            matches!(s.rank(), 2 | 3),
            "softmax expects rank 2 or 3, got rank {} ({s})",
            s.rank()
        );
        let mut out = self.pooled_zeros(s);
        softmax_rows_into(self.value(x).data(), s.last_dim(), out.data_mut());
        let g = self.ng(x);
        self.push(out, Op::Softmax { x }, g)
    }

    /// Structured causal self-attention (paper Eq. 9–10) over `[b, n, d]`
    /// projections `q`/`k`/`v`: row `i` softmaxes over columns `j ≤ i`.
    /// One node whose value and gradients are **bit-identical** to the dense
    /// `bmm_nt → scale → softmax(+ causal mask) → bmm` whenever the operands
    /// and the upstream gradient are finite (see
    /// `seqfm_tensor::attention_causal_into` and its backward), without
    /// the `n·(n − 1)/2` masked scores per slice — so a non-finite value at
    /// a future position no longer reaches an earlier row.
    ///
    /// # Panics
    /// Panics unless `q`, `k`, `v` share one rank-3 shape.
    pub fn attention_causal(&mut self, q: Var, k: Var, v: Var, scale: f32) -> Var {
        let shape = self.value(q).shape();
        let (bs, n, d) = dims3(self.value(q), "attention_causal q");
        for (x, what) in [(k, "k"), (v, "v")] {
            let s = self.value(x).shape();
            assert!(s.same(&shape), "attention_causal {what} is {s} but q is {shape}");
        }
        let mut weights = self.ws.take_vec(bs * n * (n + 1) / 2);
        let mut out = self.pooled_zeros(shape);
        let [qv, kv, vv] = [q, k, v].map(|x| self.value(x).data());
        attention_causal_into(qv, kv, vv, scale, [bs, n, d], &mut weights, out.data_mut());
        let g = self.ng(q) || self.ng(k) || self.ng(v);
        self.push(out, Op::AttentionCausal { q, k, v, scale, weights }, g)
    }

    /// Structured cross-view attention (paper Eq. 11–13) between the static
    /// rows' projections `stat = [q°, k°, v°]` (`[b, ns, d]` each) and the
    /// history rows' `hist = [q˙, k˙, v˙]` (`[b, nd, d]` each): each static
    /// row softmaxes over the `nd` history columns and each history row over
    /// the `ns` static ones, into the interleaved `[b, ns + nd, d]` context
    /// (static rows first). One node whose value and gradients are
    /// **bit-identical** to the dense `bmm_nt → scale → softmax(+ cross
    /// mask) → bmm` over the two sides stacked per operand (`[q°; q˙]`, …;
    /// see `seqfm_tensor::attention_cross_into`, run here with a history per
    /// row, and its backward),
    /// without the stack's copy or the `ns² + nd²` scores per slice the mask
    /// discards. The two sides stay separate operands, so a history side
    /// projected once can serve several candidate sides.
    ///
    /// # Panics
    /// Panics unless the three `stat` operands share one rank-3 shape, the
    /// three `hist` operands another, and the two agree on `b` and `d`.
    pub fn attention_cross(&mut self, stat: [Var; 3], hist: [Var; 3], scale: f32) -> Var {
        let side = |g: &Self, xs: [Var; 3], what: &str| {
            let shape = g.value(xs[0]).shape();
            for (x, name) in xs.into_iter().zip(["q", "k", "v"]) {
                let s = g.value(x).shape();
                assert!(s.same(&shape), "attention_cross {what} {name} is {s} but q is {shape}");
            }
            dims3(g.value(xs[0]), "attention_cross operand")
        };
        let (bs, ns, d) = side(self, stat, "static");
        let (bh, nd, dh) = side(self, hist, "history");
        assert_eq!((bs, d), (bh, dh), "attention_cross: static and history sides disagree");
        let mut weights = self.ws.take_vec(bs * 2 * ns * nd);
        let mut out = self.pooled_zeros(Shape::d3(bs, ns + nd, d));
        attention_cross_into(
            [&[]; 3],
            stat.map(|x| self.value(x).data()),
            hist.map(|x| self.value(x).data()),
            scale,
            [bs, 1, 0, ns, nd, d],
            Some(&mut weights),
            out.data_mut(),
        );
        let g = stat.iter().chain(&hist).any(|&x| self.ng(x));
        self.push(out, Op::AttentionCross { stat, hist, scale, weights }, g)
    }

    /// LayerNorm over the last dimension with learned scale and bias
    /// (paper Eq. 16), its variance guarded by [`ew::LN_EPS`].
    ///
    /// # Panics
    /// Panics if `scale`/`bias` are not rank-1 of the last-dim size.
    pub fn layer_norm(&mut self, x: Var, scale: Var, bias: Var) -> Var {
        let xv = self.value(x);
        let d = xv.shape().last_dim();
        assert_eq!(self.value(scale).numel(), d, "layer_norm scale width mismatch");
        assert_eq!(self.value(bias).numel(), d, "layer_norm bias width mismatch");
        let rows = xv.shape().outer_rows();
        let mut mean = self.ws.take_vec_for_overwrite(rows);
        let mut rstd = self.ws.take_vec_for_overwrite(rows);
        let mut out = self.pooled_for_overwrite(xv.shape());
        let [xv, sv, bv] = [x, scale, bias].map(|v| self.value(v).data());
        ew::layer_norm_into(xv, sv, bv, out.data_mut(), &mut mean, &mut rstd);
        let g = self.ng(x) || self.ng(scale) || self.ng(bias);
        self.push(out, Op::LayerNorm { x, scale, bias, cache: LnCache { mean, rstd } }, g)
    }

    /// Inverted dropout with drop probability `p`: kept activations are
    /// scaled by `1/(1-p)` so the expected value is unchanged and inference
    /// needs no rescaling (paper §III-F "Layer Dropout").
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn dropout<R: Rng + ?Sized>(&mut self, x: Var, p: f32, rng: &mut R) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1), got {p}");
        if p == 0.0 {
            return x;
        }
        let keep = 1.0 - p;
        let inv = 1.0 / keep;
        let n = self.value(x).numel();
        let mut mask = self.ws.take_vec(n);
        for m in mask.iter_mut() {
            *m = if rng.gen::<f32>() < keep { inv } else { 0.0 };
        }
        let mut v = self.pooled_copy(self.value(x));
        for (o, &m) in v.data_mut().iter_mut().zip(&mask) {
            *o *= m;
        }
        let g = self.ng(x);
        self.push(v, Op::Dropout { x, mask: Arc::new(mask) }, g)
    }

    // --- shape ----------------------------------------------------------------

    /// Reshape (same element count, zero-copy semantics for values).
    pub fn reshape(&mut self, x: Var, shape: Shape) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.numel(), shape.numel(), "cannot reshape {} into {shape}", xv.shape());
        let v = self.pooled_copy_shaped(xv.data(), shape);
        let g = self.ng(x);
        self.push(v, Op::Reshape(x), g)
    }

    /// Concatenates rank-2 tensors along the last dim (view-wise aggregation,
    /// Eq. 17).
    ///
    /// # Panics
    /// Panics if `parts` is empty, any part is not rank 2, or row counts
    /// differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one input");
        let b = self.value(parts[0]).shape().dim(0);
        let mut total = 0;
        for &p in parts {
            let s = self.value(p).shape();
            assert_eq!(s.rank(), 2, "concat_cols expects rank 2, got {s}");
            assert_eq!(s.dim(0), b, "concat_cols row count mismatch");
            total += s.dim(1);
        }
        let mut out = self.pooled_zeros(Shape::d2(b, total));
        let mut col = 0;
        for &p in parts {
            let pv = self.value(p);
            let w = pv.shape().dim(1);
            let (pv_data, out_data) = (pv.data(), out.data_mut());
            for r in 0..b {
                out_data[r * total + col..r * total + col + w]
                    .copy_from_slice(&pv_data[r * w..(r + 1) * w]);
            }
            col += w;
        }
        let g = parts.iter().any(|&p| self.ng(p));
        self.push(out, Op::ConcatCols(parts.to_vec()), g)
    }

    /// Concatenates two `[b,n,d]` tensors along axis 1 (the baselines'
    /// feature stacks).
    ///
    /// # Panics
    /// Panics if ranks/batch/last dims disagree.
    pub fn concat_axis1(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape().rank(), 3, "concat_axis1 expects rank 3, got {}", av.shape());
        assert_eq!(bv.shape().rank(), 3, "concat_axis1 expects rank 3, got {}", bv.shape());
        let (ba, na, d) = (av.shape().dim(0), av.shape().dim(1), av.shape().dim(2));
        let (bb, nb, d2) = (bv.shape().dim(0), bv.shape().dim(1), bv.shape().dim(2));
        assert_eq!(ba, bb, "concat_axis1 batch mismatch");
        assert_eq!(d, d2, "concat_axis1 width mismatch");
        let n = na + nb;
        let mut out = self.pooled_zeros(Shape::d3(ba, n, d));
        let (av, bv) = (self.value(a), self.value(b));
        for bi in 0..ba {
            out.data_mut()[bi * n * d..bi * n * d + na * d]
                .copy_from_slice(&av.data()[bi * na * d..(bi + 1) * na * d]);
            out.data_mut()[bi * n * d + na * d..(bi + 1) * n * d]
                .copy_from_slice(&bv.data()[bi * nb * d..(bi + 1) * nb * d]);
        }
        let g = self.ng(a) || self.ng(b);
        self.push(out, Op::ConcatAxis1(a, b), g)
    }

    /// Selects rows along axis 1 by constant indices (`[b,n,d] → [b,|idx|,d]`).
    ///
    /// # Panics
    /// Panics if `x` is not rank 3 or an index is out of range.
    pub fn index_select_axis1(&mut self, x: Var, idx: &[usize]) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().rank(), 3, "index_select_axis1 expects rank 3, got {}", xv.shape());
        let (b, n, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        let p = idx.len();
        let mut out = self.pooled_zeros(Shape::d3(b, p, d));
        let xv = self.value(x);
        for bi in 0..b {
            for (pi, &r) in idx.iter().enumerate() {
                assert!(r < n, "index_select_axis1 index {r} out of range ({n})");
                let src = &xv.data()[(bi * n + r) * d..(bi * n + r + 1) * d];
                out.data_mut()[(bi * p + pi) * d..(bi * p + pi + 1) * d].copy_from_slice(src);
            }
        }
        let g = self.ng(x);
        self.push(out, Op::IndexSelectAxis1 { x, idx: Arc::new(idx.to_vec()) }, g)
    }

    /// Contiguous slice `[b, start..start+len, d]` along axis 1.
    ///
    /// # Panics
    /// Panics if the range exceeds axis 1.
    pub fn slice_axis1(&mut self, x: Var, start: usize, len: usize) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().rank(), 3, "slice_axis1 expects rank 3, got {}", xv.shape());
        let (b, n, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        assert!(start + len <= n, "slice_axis1 range {start}+{len} exceeds {n}");
        let mut out = self.pooled_zeros(Shape::d3(b, len, d));
        let xv = self.value(x);
        for bi in 0..b {
            let src = &xv.data()[(bi * n + start) * d..(bi * n + start + len) * d];
            out.data_mut()[bi * len * d..(bi + 1) * len * d].copy_from_slice(src);
        }
        let g = self.ng(x);
        self.push(out, Op::SliceAxis1 { x, start, len }, g)
    }

    /// Broadcasts `[b,d] → [b,n,d]` by repeating along a new axis 1.
    ///
    /// # Panics
    /// Panics if `x` is not rank 2.
    pub fn expand_axis1(&mut self, x: Var, n: usize) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().rank(), 2, "expand_axis1 expects rank 2, got {}", xv.shape());
        let (b, d) = (xv.shape().dim(0), xv.shape().dim(1));
        let mut out = self.pooled_zeros(Shape::d3(b, n, d));
        let xv = self.value(x);
        reduce::broadcast_axis1_into(xv.data(), out.data_mut(), b, n, d, 1.0);
        let g = self.ng(x);
        self.push(out, Op::ExpandAxis1 { x }, g)
    }

    /// `X[b,n,d] + P[n,d]`, broadcasting `P` over the batch (positional
    /// embeddings in SASRec).
    ///
    /// # Panics
    /// Panics on rank/shape mismatch.
    pub fn add_broadcast_batch(&mut self, x: Var, p: Var) -> Var {
        let (xv, pv) = (self.value(x), self.value(p));
        assert_eq!(xv.shape().rank(), 3, "add_broadcast_batch x must be rank 3");
        assert_eq!(pv.shape().rank(), 2, "add_broadcast_batch p must be rank 2");
        let (b, n, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        assert_eq!((pv.shape().dim(0), pv.shape().dim(1)), (n, d), "broadcast shape mismatch");
        let mut out = self.pooled_copy(xv);
        let pv = self.value(p);
        for bi in 0..b {
            for (o, &pvv) in out.data_mut()[bi * n * d..(bi + 1) * n * d].iter_mut().zip(pv.data())
            {
                *o += pvv;
            }
        }
        let g = self.ng(x) || self.ng(p);
        self.push(out, Op::AddBroadcastBatch { x, p }, g)
    }

    // --- reductions -----------------------------------------------------------

    /// Mean over axis 1 (`[b,n,d] → [b,d]`) — intra-view pooling, Eq. 14.
    pub fn mean_axis1(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().rank(), 3, "mean_axis1 expects rank 3, got {}", xv.shape());
        let (b, n, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        let mut out = self.pooled_zeros(Shape::d2(b, d));
        let xv = self.value(x);
        reduce::mean_axis1_into(xv.data(), out.data_mut(), b, n, d);
        let g = self.ng(x);
        self.push(out, Op::MeanAxis1(x), g)
    }

    /// Sum over axis 1 (`[b,n,d] → [b,d]`).
    pub fn sum_axis1(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        assert_eq!(xv.shape().rank(), 3, "sum_axis1 expects rank 3, got {}", xv.shape());
        let (b, n, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
        let mut out = self.pooled_zeros(Shape::d2(b, d));
        let xv = self.value(x);
        reduce::sum_axis1_into(xv.data(), out.data_mut(), b, n, d);
        let g = self.ng(x);
        self.push(out, Op::SumAxis1(x), g)
    }

    /// Sum over the last dim (rank r → r−1).
    pub fn sum_lastdim(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let d = xv.shape().last_dim();
        let out_shape = match xv.shape().rank() {
            2 => Shape::d1(xv.shape().dim(0)),
            3 => Shape::d2(xv.shape().dim(0), xv.shape().dim(1)),
            r => panic!("sum_lastdim expects rank 2 or 3, got rank {r}"),
        };
        let mut out = self.pooled_zeros(out_shape);
        let xv = self.value(x);
        reduce::sum_lastdim_into(xv.data(), out.data_mut(), d);
        let g = self.ng(x);
        self.push(out, Op::SumLast(x), g)
    }

    /// Mean of all elements → `[1]`.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let mut out = self.pooled_zeros(Shape::d1(1));
        out.data_mut()[0] = self.value(x).mean();
        let g = self.ng(x);
        self.push(out, Op::MeanAll(x), g)
    }

    /// Sum of all elements → `[1]`.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let mut out = self.pooled_zeros(Shape::d1(1));
        out.data_mut()[0] = self.value(x).sum();
        let g = self.ng(x);
        self.push(out, Op::SumAll(x), g)
    }

    // --- losses ---------------------------------------------------------------

    /// Per-element binary cross-entropy on logits:
    /// `ℓ = max(z,0) − z·t + ln(1+e^{−|z|})` (stable log-loss, Eq. 24).
    ///
    /// # Panics
    /// Panics if `targets.len() != logits.numel()`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let lv = self.value(logits);
        assert_eq!(targets.len(), lv.numel(), "bce targets length mismatch");
        let mut out = self.pooled_zeros(lv.shape());
        let lv = self.value(logits);
        for ((o, &z), &t) in out.data_mut().iter_mut().zip(lv.data()).zip(targets) {
            *o = z.max(0.0) - z * t + (-z.abs()).exp().ln_1p();
        }
        let g = self.ng(logits);
        self.push(out, Op::BceWithLogits { logits, targets: Arc::new(targets.to_vec()) }, g)
    }
}

fn dims3(t: &Tensor, what: &str) -> (usize, usize, usize) {
    assert_eq!(t.shape().rank(), 3, "{what} must be rank 3, got {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1), t.shape().dim(2))
}
