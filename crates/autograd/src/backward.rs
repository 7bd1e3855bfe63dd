//! Reverse-mode sweep over the tape.

use crate::graph::{Graph, Var};
use crate::op::Op;
use crate::rowmap::PAD;
use crate::store::ParamStore;
use seqfm_tensor::{
    attention_causal_backward_into, attention_cross_backward_into, bmm_nn_into, bmm_nt_into,
    bmm_tn_into, kernels::matmul, reduce, softmax_backward_into, Shape, Tensor,
};

impl Graph {
    /// Runs reverse-mode differentiation from the scalar node `loss`,
    /// accumulating parameter gradients into `ps`.
    ///
    /// Gradients of interior nodes are freed as soon as they have been
    /// propagated; parameter gradients *accumulate* in the store, so call
    /// [`ParamStore::zero_grads`] between optimization steps.
    ///
    /// Every gradient temporary comes from — and returns to — the graph's
    /// workspace pool, so a training loop that reuses its `Graph` (see
    /// [`Graph::reset`]) runs backward sweeps without heap allocations once
    /// the pool is warm.
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var, ps: &mut ParamStore) {
        let lshape = self.value(loss).shape();
        assert_eq!(lshape.numel(), 1, "backward expects a scalar loss, got {lshape}");
        // The gradient-slot table is graph-owned and reused across sweeps
        // (every slot is back to `None` by the end of the loop below).
        let mut grads_cell = self.grads.borrow_mut();
        let grads = &mut *grads_cell;
        grads.clear();
        grads.resize_with(self.nodes.len(), || None);
        let mut seed = self.pooled_zeros(lshape);
        seed.data_mut().fill(1.0);
        grads[loss.0] = Some(seed);

        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                if let Some(g) = grads[i].take() {
                    self.recycle(g);
                }
                continue;
            }
            let Some(dy) = grads[i].take() else { continue };
            self.step_backward(i, &dy, grads, ps);
            self.recycle(dy);
        }
    }

    /// Propagates `dy` of node `i` one op backwards.
    fn step_backward(
        &self,
        i: usize,
        dy: &Tensor,
        grads: &mut [Option<Tensor>],
        ps: &mut ParamStore,
    ) {
        let node = &self.nodes[i];
        let val = |v: Var| -> &Tensor { self.value(v) };
        match &node.op {
            Op::Input => {}
            Op::Param(id) => ps.accumulate_dense(*id, dy),
            Op::Gather { table, idx } => {
                let d = node.value.shape().last_dim();
                for (slot, &ix) in idx.iter().enumerate() {
                    if ix < 0 {
                        continue;
                    }
                    ps.accumulate_row(*table, ix as usize, &dy.data()[slot * d..(slot + 1) * d]);
                }
            }

            Op::Add(a, b) => {
                self.acc(grads, *a, self.pooled_copy(dy));
                self.acc(grads, *b, self.pooled_copy(dy));
            }
            Op::Sub(a, b) => {
                self.acc(grads, *a, self.pooled_copy(dy));
                self.acc(grads, *b, self.pooled_unary(dy, |v| -v));
            }
            Op::Mul(a, b) => {
                self.acc(grads, *a, self.pooled_zip(dy, val(*b), |g, y| g * y));
                self.acc(grads, *b, self.pooled_zip(dy, val(*a), |g, x| g * x));
            }
            Op::Neg(x) => self.acc(grads, *x, self.pooled_unary(dy, |v| -v)),
            Op::Scale(x, s) => {
                let s = *s;
                self.acc(grads, *x, self.pooled_unary(dy, |v| v * s));
            }
            Op::Square(x) => {
                let dx = self.pooled_zip(val(*x), dy, |xv, g| 2.0 * xv * g);
                self.acc(grads, *x, dx);
            }
            Op::Relu(x) => {
                let dx = self.pooled_zip(val(*x), dy, |xv, g| if xv > 0.0 { g } else { 0.0 });
                self.acc(grads, *x, dx);
            }
            Op::Sigmoid(x) => {
                let dx = self.pooled_zip(&node.value, dy, |y, g| g * y * (1.0 - y));
                self.acc(grads, *x, dx);
            }
            Op::Tanh(x) => {
                let dx = self.pooled_zip(&node.value, dy, |y, g| g * (1.0 - y * y));
                self.acc(grads, *x, dx);
            }
            Op::Softplus(x) => {
                let dx =
                    self.pooled_zip(val(*x), dy, |xv, g| g * seqfm_tensor::ew::sigmoid_scalar(xv));
                self.acc(grads, *x, dx);
            }
            Op::AddBias { x, b } => {
                self.acc(grads, *x, self.pooled_copy(dy));
                let mut db = self.pooled_zeros(val(*b).shape());
                seqfm_tensor::ew::accumulate_rows(db.data_mut(), dy);
                self.acc(grads, *b, db);
            }

            Op::Matmul(a, b) => {
                let (av, bv) = (val(*a), val(*b));
                let (m, k) = (av.shape().outer_rows(), av.shape().last_dim());
                let n = bv.shape().dim(1);
                let mut da = self.pooled_zeros(av.shape());
                matmul::matmul_nt_into(dy.data(), bv.data(), da.data_mut(), m, n, k);
                self.acc(grads, *a, da);
                let mut db = self.pooled_zeros(bv.shape());
                matmul::matmul_tn_into(av.data(), dy.data(), db.data_mut(), k, m, n);
                self.acc(grads, *b, db);
            }
            Op::ProjectRows { x, w, map } => {
                let (xv, wv) = (val(*x), val(*w));
                let (u, k, n) = (map.rows, wv.shape().dim(0), wv.shape().dim(1));
                // Each row's slot gradients in ascending slot order. Rows are
                // numbered by first appearance, so a row's first slot is the
                // one where it equals the count seen so far: it is copied
                // (an exact `−0.0` stays one), later slots add to it, and
                // every row is written before the products read it.
                let mut dp = self.pooled_for_overwrite(Shape::d2(u, n));
                let mut seen = 0;
                for (&r, src) in map.slots.iter().zip(dy.data().chunks_exact(n)) {
                    if r == PAD {
                        continue;
                    }
                    let dst = &mut dp.data_mut()[r as usize * n..(r as usize + 1) * n];
                    if r as usize == seen {
                        dst.copy_from_slice(src);
                        seen += 1;
                    } else {
                        for (o, &g) in dst.iter_mut().zip(src) {
                            *o += g;
                        }
                    }
                }
                debug_assert_eq!(seen, u, "a row map numbers its rows by first appearance");
                let mut dx = self.pooled_zeros(xv.shape());
                matmul::matmul_nt_into(dp.data(), wv.data(), dx.data_mut(), u, n, k);
                self.acc(grads, *x, dx);
                let mut dw = self.pooled_zeros(wv.shape());
                matmul::matmul_tn_into(xv.data(), dp.data(), dw.data_mut(), k, u, n);
                self.acc(grads, *w, dw);
                self.recycle(dp);
            }
            Op::Bmm(a, b) => {
                let (av, bv) = (val(*a), val(*b));
                let (bs, m, k) = (av.shape().dim(0), av.shape().dim(1), av.shape().dim(2));
                let n = bv.shape().dim(2);
                let mut da = self.pooled_zeros(av.shape());
                bmm_nt_into(dy.data(), bv.data(), da.data_mut(), bs, m, n, k);
                self.acc(grads, *a, da);
                let mut db = self.pooled_zeros(bv.shape());
                bmm_tn_into(av.data(), dy.data(), db.data_mut(), bs, k, m, n);
                self.acc(grads, *b, db);
            }
            Op::BmmNT(a, b) => {
                let (av, bv) = (val(*a), val(*b));
                let (bs, m, k) = (av.shape().dim(0), av.shape().dim(1), av.shape().dim(2));
                let n = bv.shape().dim(1);
                let mut da = self.pooled_zeros(av.shape());
                bmm_nn_into(dy.data(), bv.data(), da.data_mut(), bs, m, n, k);
                self.acc(grads, *a, da);
                let mut db = self.pooled_zeros(bv.shape());
                bmm_tn_into(dy.data(), av.data(), db.data_mut(), bs, n, m, k);
                self.acc(grads, *b, db);
            }
            Op::LMatmul { w, x } => {
                let (wv, xv) = (val(*w), val(*x));
                let (p, q) = (wv.shape().dim(0), wv.shape().dim(1));
                let (bsz, _, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
                let mut dw = self.pooled_zeros(Shape::d2(p, q));
                let mut dx = self.pooled_zeros(xv.shape());
                for bi in 0..bsz {
                    let dy_b = &dy.data()[bi * p * d..(bi + 1) * p * d];
                    let x_b = &xv.data()[bi * q * d..(bi + 1) * q * d];
                    // dW += dY_b · X_bᵀ
                    matmul::matmul_nt_into(dy_b, x_b, dw.data_mut(), p, d, q);
                    // dX_b = Wᵀ · dY_b
                    matmul::matmul_tn_into(
                        wv.data(),
                        dy_b,
                        &mut dx.data_mut()[bi * q * d..(bi + 1) * q * d],
                        q,
                        p,
                        d,
                    );
                }
                self.acc(grads, *w, dw);
                self.acc(grads, *x, dx);
            }
            Op::RowDot(a, b) => {
                // dy: [b]; da[bi,:] = dy[bi]*b[bi,:]
                let (av, bv) = (val(*a), val(*b));
                let d = av.shape().dim(1);
                let mut da = self.pooled_zeros(av.shape());
                let mut db = self.pooled_zeros(bv.shape());
                for (bi, &g) in dy.data().iter().enumerate() {
                    for j in 0..d {
                        da.data_mut()[bi * d + j] = g * bv.data()[bi * d + j];
                        db.data_mut()[bi * d + j] = g * av.data()[bi * d + j];
                    }
                }
                self.acc(grads, *a, da);
                self.acc(grads, *b, db);
            }

            Op::Softmax { x } => {
                let mut dx = self.pooled_zeros(node.value.shape());
                softmax_backward_into(
                    node.value.data(),
                    dy.data(),
                    dx.data_mut(),
                    node.value.shape().last_dim(),
                );
                self.acc(grads, *x, dx);
            }
            Op::AttentionCausal { q, k, v, scale, weights } => {
                let shape = node.value.shape();
                let [mut dq, mut dk, mut dv] = [(); 3].map(|()| self.pooled_zeros(shape));
                attention_causal_backward_into(
                    [val(*q).data(), val(*k).data(), val(*v).data()],
                    weights,
                    dy.data(),
                    *scale,
                    [shape.dim(0), shape.dim(1), shape.dim(2)],
                    [dq.data_mut(), dk.data_mut(), dv.data_mut()],
                );
                // The dense tape's arrival order: `bmm` reaches V before
                // `bmm_nt` reaches Q, then K.
                self.acc(grads, *v, dv);
                self.acc(grads, *q, dq);
                self.acc(grads, *k, dk);
            }
            Op::AttentionCross { stat, hist, scale, weights } => {
                let shape = node.value.shape();
                let (bs, n, d) = (shape.dim(0), shape.dim(1), shape.dim(2));
                let ns = val(stat[0]).shape().dim(1);
                let nd = n - ns;
                let [mut sq, mut sk, mut sv] =
                    [(); 3].map(|()| self.pooled_zeros(Shape::d3(bs, ns, d)));
                let [mut hq, mut hk, mut hv] =
                    [(); 3].map(|()| self.pooled_zeros(Shape::d3(bs, nd, d)));
                attention_cross_backward_into(
                    stat.map(|x| val(x).data()),
                    hist.map(|x| val(x).data()),
                    weights,
                    dy.data(),
                    *scale,
                    [bs, ns, nd, d],
                    [sq.data_mut(), sk.data_mut(), sv.data_mut()],
                    [hq.data_mut(), hk.data_mut(), hv.data_mut()],
                );
                // Per side, the dense tape's arrival order: `bmm` reaches V
                // before `bmm_nt` reaches Q, then K (it fixes the sum's bits
                // when one operand feeds all three). The sides are distinct
                // operands, the history side first.
                let [q_s, k_s, v_s] = *stat;
                let [q_h, k_h, v_h] = *hist;
                self.acc(grads, v_h, hv);
                self.acc(grads, q_h, hq);
                self.acc(grads, k_h, hk);
                self.acc(grads, v_s, sv);
                self.acc(grads, q_s, sq);
                self.acc(grads, k_s, sk);
            }
            Op::LayerNorm { x, scale, bias, cache } => {
                let xv = val(*x);
                let d = xv.shape().last_dim();
                let sv = val(*scale).data();
                let mut dx = self.pooled_zeros(xv.shape());
                let mut ds = self.pooled_zeros(Shape::d1(d));
                let mut db = self.pooled_zeros(Shape::d1(d));
                for (r, (xrow, dyrow)) in
                    xv.data().chunks_exact(d).zip(dy.data().chunks_exact(d)).enumerate()
                {
                    let (mu, rs) = (cache.mean[r], cache.rstd[r]);
                    let mut mean_g = 0.0f32;
                    let mut mean_gx = 0.0f32;
                    for j in 0..d {
                        let xhat = (xrow[j] - mu) * rs;
                        let g = dyrow[j] * sv[j];
                        mean_g += g;
                        mean_gx += g * xhat;
                        ds.data_mut()[j] += dyrow[j] * xhat;
                        db.data_mut()[j] += dyrow[j];
                    }
                    mean_g /= d as f32;
                    mean_gx /= d as f32;
                    let dxrow = &mut dx.data_mut()[r * d..(r + 1) * d];
                    for j in 0..d {
                        let xhat = (xrow[j] - mu) * rs;
                        let g = dyrow[j] * sv[j];
                        dxrow[j] = rs * (g - mean_g - xhat * mean_gx);
                    }
                }
                self.acc(grads, *x, dx);
                self.acc(grads, *scale, ds);
                self.acc(grads, *bias, db);
            }
            Op::Dropout { x, mask } => {
                let mut dx = self.pooled_copy(dy);
                for (g, &m) in dx.data_mut().iter_mut().zip(mask.iter()) {
                    *g *= m;
                }
                self.acc(grads, *x, dx);
            }

            Op::Reshape(x) => {
                let dx = self.pooled_copy_shaped(dy.data(), val(*x).shape());
                self.acc(grads, *x, dx);
            }
            Op::ConcatCols(parts) => {
                let total = node.value.shape().dim(1);
                let b = node.value.shape().dim(0);
                let mut col = 0;
                for &p in parts {
                    let w = val(p).shape().dim(1);
                    let mut dp = self.pooled_zeros(Shape::d2(b, w));
                    for r in 0..b {
                        dp.data_mut()[r * w..(r + 1) * w]
                            .copy_from_slice(&dy.data()[r * total + col..r * total + col + w]);
                    }
                    col += w;
                    self.acc(grads, p, dp);
                }
            }
            Op::ConcatAxis1(a, b) => {
                let (av, bv) = (val(*a), val(*b));
                let (bsz, na, d) = (av.shape().dim(0), av.shape().dim(1), av.shape().dim(2));
                let nb = bv.shape().dim(1);
                let n = na + nb;
                let mut da = self.pooled_zeros(av.shape());
                let mut db = self.pooled_zeros(bv.shape());
                for bi in 0..bsz {
                    da.data_mut()[bi * na * d..(bi + 1) * na * d]
                        .copy_from_slice(&dy.data()[bi * n * d..bi * n * d + na * d]);
                    db.data_mut()[bi * nb * d..(bi + 1) * nb * d]
                        .copy_from_slice(&dy.data()[bi * n * d + na * d..(bi + 1) * n * d]);
                }
                self.acc(grads, *a, da);
                self.acc(grads, *b, db);
            }
            Op::IndexSelectAxis1 { x, idx } => {
                let xv = val(*x);
                let (bsz, n, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
                let p = idx.len();
                let mut dx = self.pooled_zeros(xv.shape());
                for bi in 0..bsz {
                    for (pi, &r) in idx.iter().enumerate() {
                        let src = &dy.data()[(bi * p + pi) * d..(bi * p + pi + 1) * d];
                        let dst = &mut dx.data_mut()[(bi * n + r) * d..(bi * n + r + 1) * d];
                        for (o, &g) in dst.iter_mut().zip(src) {
                            *o += g;
                        }
                    }
                }
                self.acc(grads, *x, dx);
            }
            Op::SliceAxis1 { x, start, len } => {
                let xv = val(*x);
                let (bsz, n, d) = (xv.shape().dim(0), xv.shape().dim(1), xv.shape().dim(2));
                let mut dx = self.pooled_zeros(xv.shape());
                for bi in 0..bsz {
                    dx.data_mut()[(bi * n + start) * d..(bi * n + start + len) * d]
                        .copy_from_slice(&dy.data()[bi * len * d..(bi + 1) * len * d]);
                }
                self.acc(grads, *x, dx);
            }
            Op::ExpandAxis1 { x } => {
                let xv = val(*x);
                let (b, n, d) = (dy.shape().dim(0), dy.shape().dim(1), dy.shape().dim(2));
                let mut dx = self.pooled_zeros(xv.shape());
                reduce::sum_axis1_into(dy.data(), dx.data_mut(), b, n, d);
                self.acc(grads, *x, dx);
            }
            Op::AddBroadcastBatch { x, p } => {
                self.acc(grads, *x, self.pooled_copy(dy));
                let pv = val(*p);
                let (n, d) = (pv.shape().dim(0), pv.shape().dim(1));
                let bsz = dy.shape().dim(0);
                let mut dp = self.pooled_zeros(pv.shape());
                for bi in 0..bsz {
                    for (o, &g) in
                        dp.data_mut().iter_mut().zip(&dy.data()[bi * n * d..(bi + 1) * n * d])
                    {
                        *o += g;
                    }
                }
                self.acc(grads, *p, dp);
            }

            Op::MeanAxis1(x) => {
                let xv = val(*x);
                let (b, n) = (xv.shape().dim(0), xv.shape().dim(1));
                let d = xv.shape().dim(2);
                let mut dx = self.pooled_zeros(xv.shape());
                reduce::broadcast_axis1_into(dy.data(), dx.data_mut(), b, n, d, 1.0 / n as f32);
                self.acc(grads, *x, dx);
            }
            Op::SumAxis1(x) => {
                let xv = val(*x);
                let (b, n) = (xv.shape().dim(0), xv.shape().dim(1));
                let d = xv.shape().dim(2);
                let mut dx = self.pooled_zeros(xv.shape());
                reduce::broadcast_axis1_into(dy.data(), dx.data_mut(), b, n, d, 1.0);
                self.acc(grads, *x, dx);
            }
            Op::SumLast(x) => {
                let xv = val(*x);
                let mut dx = self.pooled_zeros(xv.shape());
                reduce::expand_lastdim_into(dy.data(), dx.data_mut(), xv.shape().last_dim());
                self.acc(grads, *x, dx);
            }
            Op::MeanAll(x) => {
                let xs = val(*x).shape();
                let g = dy.data()[0] / xs.numel() as f32;
                let mut dx = self.pooled_zeros(xs);
                dx.data_mut().fill(g);
                self.acc(grads, *x, dx);
            }
            Op::SumAll(x) => {
                let xs = val(*x).shape();
                let mut dx = self.pooled_zeros(xs);
                dx.data_mut().fill(dy.data()[0]);
                self.acc(grads, *x, dx);
            }

            Op::BceWithLogits { logits, targets } => {
                let zv = val(*logits);
                let mut dz = self.pooled_zeros(zv.shape());
                for (i, ((o, &z), &g)) in
                    dz.data_mut().iter_mut().zip(zv.data()).zip(dy.data()).enumerate()
                {
                    *o = g * (seqfm_tensor::ew::sigmoid_scalar(z) - targets[i]);
                }
                self.acc(grads, *logits, dz);
            }
        }
    }

    /// Pooled `dy.map(f)`.
    fn pooled_unary(&self, dy: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.pooled_copy(dy);
        for o in out.data_mut() {
            *o = f(*o);
        }
        out
    }

    /// Pooled `a.zip(b, f)` (identical per-element arithmetic).
    fn pooled_zip(&self, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        debug_assert!(a.shape().same(&b.shape()));
        let mut out = self.pooled_copy(a);
        for (o, &y) in out.data_mut().iter_mut().zip(b.data()) {
            *o = f(*o, y);
        }
        out
    }

    /// Adds `g` into the gradient slot of `v` (skipping no-grad subtrees).
    /// Merged-in gradients return their buffer to the pool immediately.
    fn acc(&self, grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
        if !self.nodes[v.0].needs_grad {
            self.recycle(g);
            return;
        }
        match &mut grads[v.0] {
            Some(t) => {
                seqfm_tensor::ew::add_assign(t, &g);
                self.recycle(g);
            }
            slot @ None => *slot = Some(g),
        }
    }
}
