//! Gradient checks for every op plus tape-semantics tests.

use crate::gradcheck::assert_grad_check;
use crate::{Graph, ParamStore, RowMap};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_tensor::testutil::{causal_mask, rand_tensor};
use seqfm_tensor::{Shape, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// Registers a deterministic random dense parameter.
fn p(ps: &mut ParamStore, name: &str, shape: Shape, seed: u64) -> crate::ParamId {
    let mut s = seed;
    ps.add_dense(name, rand_tensor(shape, &mut s))
}

#[test]
fn grad_elementwise_chain() {
    let mut ps = ParamStore::new();
    let a = p(&mut ps, "a", Shape::d2(3, 4), 1);
    let b = p(&mut ps, "b", Shape::d2(3, 4), 2);
    assert_grad_check(&mut ps, &[a, b], EPS, TOL, |g, ps| {
        let av = g.param(ps, a);
        let bv = g.param(ps, b);
        let s = g.add(av, bv);
        let d = g.sub(s, bv);
        let m = g.mul(d, av);
        let n = g.neg(m);
        let sc = g.scale(n, 0.7);
        let sq = g.square(sc);
        g.mean_all(sq)
    });
}

#[test]
fn grad_activations() {
    let mut ps = ParamStore::new();
    // Shift values away from ReLU's kink at 0 for a clean finite difference.
    let mut seed = 3;
    let mut t = rand_tensor(Shape::d2(2, 5), &mut seed);
    for v in t.data_mut() {
        if v.abs() < 0.15 {
            *v += 0.3;
        }
    }
    let a = ps.add_dense("a", t);
    assert_grad_check(&mut ps, &[a], 5e-3, TOL, |g, ps| {
        let av = g.param(ps, a);
        let r = g.relu(av);
        let s = g.sigmoid(r);
        let t = g.tanh(s);
        let sp = g.softplus(t);
        g.sum_all(sp)
    });
}

#[test]
fn grad_add_bias() {
    let mut ps = ParamStore::new();
    let x = p(&mut ps, "x", Shape::d3(2, 3, 4), 4);
    let b = p(&mut ps, "b", Shape::d1(4), 5);
    assert_grad_check(&mut ps, &[x, b], EPS, TOL, |g, ps| {
        let xv = g.param(ps, x);
        let bv = g.param(ps, b);
        let y = g.add_bias(xv, bv);
        let sq = g.square(y);
        g.mean_all(sq)
    });
}

#[test]
fn grad_matmul_both_flavours() {
    let mut ps = ParamStore::new();
    let a = p(&mut ps, "a", Shape::d2(3, 4), 6);
    let b = p(&mut ps, "b", Shape::d2(4, 2), 7);
    let c = p(&mut ps, "c", Shape::d2(2, 5), 8);
    assert_grad_check(&mut ps, &[a, b, c], EPS, TOL, |g, ps| {
        let av = g.param(ps, a);
        let bv = g.param(ps, b);
        let cv = g.param(ps, c);
        let y = g.matmul(av, bv); // [3,2]
        let z = g.matmul(y, cv); // [3,5]
        let sq = g.square(z);
        g.mean_all(sq)
    });
    // A rank-3 lhs is multiplied as its `[b·r, k]` rows and keeps its rank.
    let a3 = p(&mut ps, "a3", Shape::d3(2, 3, 4), 9);
    assert_grad_check(&mut ps, &[a3, b], EPS, TOL, |g, ps| {
        let av = g.param(ps, a3);
        let bv = g.param(ps, b);
        let y = g.matmul(av, bv);
        assert_eq!(g.value(y).shape(), Shape::d3(2, 3, 2));
        let sq = g.square(y);
        g.mean_all(sq)
    });
}

#[test]
#[should_panic(expected = "rank-2 or rank-3 lhs and a rank-2 rhs, got [4] · [4x2]")]
fn matmul_rejects_a_rank1_lhs() {
    let mut g = Graph::new();
    let a = g.input(Tensor::zeros(Shape::d1(4)));
    let b = g.input(Tensor::zeros(Shape::d2(4, 2)));
    g.matmul(a, b);
}

#[test]
#[should_panic(expected = "rank-2 or rank-3 lhs and a rank-2 rhs, got [3x4] · [1x4x2]")]
fn matmul_rejects_a_rank3_rhs() {
    let mut g = Graph::new();
    let a = g.input(Tensor::zeros(Shape::d2(3, 4)));
    let b = g.input(Tensor::zeros(Shape::d3(1, 4, 2)));
    g.matmul(a, b);
}

#[test]
#[should_panic(expected = "matmul inner dim mismatch: [2x3x4] vs [5x2]")]
fn matmul_rejects_an_inner_dim_mismatch() {
    let mut g = Graph::new();
    let a = g.input(Tensor::zeros(Shape::d3(2, 3, 4)));
    let b = g.input(Tensor::zeros(Shape::d2(5, 2)));
    g.matmul(a, b);
}

#[test]
fn grad_bmm_both_flavours() {
    let mut ps = ParamStore::new();
    let a = p(&mut ps, "a", Shape::d3(2, 3, 4), 9);
    let b = p(&mut ps, "b", Shape::d3(2, 4, 3), 10);
    assert_grad_check(&mut ps, &[a, b], EPS, TOL, |g, ps| {
        let av = g.param(ps, a);
        let bv = g.param(ps, b);
        let y = g.bmm(av, bv); // [2,3,3]
        let z = g.bmm_nt(y, bv); // [2,3,3]·[2,4,3]ᵀ → [2,3,4]
        let sq = g.square(z);
        g.mean_all(sq)
    });
}

#[test]
fn grad_lmatmul() {
    let mut ps = ParamStore::new();
    let w = p(&mut ps, "w", Shape::d2(3, 4), 11);
    let x = p(&mut ps, "x", Shape::d3(2, 4, 5), 12);
    assert_grad_check(&mut ps, &[w, x], EPS, TOL, |g, ps| {
        let wv = g.param(ps, w);
        let xv = g.param(ps, x);
        let y = g.lmatmul(wv, xv); // [2,3,5]
        let sq = g.square(y);
        g.mean_all(sq)
    });
}

#[test]
fn grad_row_dot() {
    let mut ps = ParamStore::new();
    let a = p(&mut ps, "a", Shape::d2(4, 3), 13);
    let b = p(&mut ps, "b", Shape::d2(4, 3), 14);
    assert_grad_check(&mut ps, &[a, b], EPS, TOL, |g, ps| {
        let av = g.param(ps, a);
        let bv = g.param(ps, b);
        let y = g.row_dot(av, bv); // [4]
        let sq = g.square(y);
        g.mean_all(sq)
    });
}

#[test]
fn grad_softmax_plain_and_masked() {
    let mut ps = ParamStore::new();
    let x = p(&mut ps, "x", Shape::d3(2, 3, 3), 15);
    assert_grad_check(&mut ps, &[x], 5e-3, TOL, |g, ps| {
        let xv = g.param(ps, x);
        let y = g.softmax(xv);
        let sq = g.square(y);
        g.sum_all(sq)
    });
    // The masked softmaxes live inside the two structured attention nodes
    // (the tape has no mask op): causal, and cross with one static row.
    assert_grad_check(&mut ps, &[x], 5e-3, TOL, |g, ps| {
        let xv = g.param(ps, x);
        let y = g.attention_causal(xv, xv, xv, 1.0);
        let sq = g.square(y);
        g.sum_all(sq)
    });
    assert_grad_check(&mut ps, &[x], 5e-3, TOL, |g, ps| {
        let xv = g.param(ps, x);
        let (s, h) = (g.slice_axis1(xv, 0, 1), g.slice_axis1(xv, 1, 2));
        let y = g.attention_cross([s; 3], [h; 3], 1.0);
        let sq = g.square(y);
        g.sum_all(sq)
    });
}

#[test]
fn grad_attention_causal() {
    // Distinct Q/K/V, and one shared operand feeding all three (the arrival
    // order V, Q, K then sums into one slot); n = 1 is the degenerate
    // single-column row.
    let mut ps = ParamStore::new();
    let q = p(&mut ps, "q", Shape::d3(2, 5, 3), 51);
    let k = p(&mut ps, "k", Shape::d3(2, 5, 3), 52);
    let v = p(&mut ps, "v", Shape::d3(2, 5, 3), 53);
    let scale = 1.0 / (3.0f32).sqrt();
    assert_grad_check(&mut ps, &[q, k, v], 5e-3, TOL, |g, ps| {
        let (qv, kv, vv) = (g.param(ps, q), g.param(ps, k), g.param(ps, v));
        let h = g.attention_causal(qv, kv, vv, scale);
        assert_eq!(g.value(h).shape(), Shape::d3(2, 5, 3));
        let sq = g.square(h);
        g.mean_all(sq)
    });
    assert_grad_check(&mut ps, &[q], 5e-3, TOL, |g, ps| {
        let qv = g.param(ps, q);
        let h = g.attention_causal(qv, qv, qv, scale);
        let sq = g.square(h);
        g.mean_all(sq)
    });
    let one = p(&mut ps, "one", Shape::d3(3, 1, 4), 54);
    assert_grad_check(&mut ps, &[one], 5e-3, TOL, |g, ps| {
        let x = g.param(ps, one);
        let h = g.attention_causal(x, x, x, 0.5);
        let sq = g.square(h);
        g.mean_all(sq)
    });
}

#[test]
fn grad_attention_cross() {
    // Two static rows over three dynamic ones, and the degenerate one-row
    // sides, as separate static and history operands; every admitted weight
    // is well away from 0, so the loss is smooth at finite-difference scale.
    let mut ps = ParamStore::new();
    let scale = 1.0 / (3.0f32).sqrt();
    for (ns, nd) in [(2usize, 3usize), (1, 4), (4, 1)] {
        let seed = 40 + 10 * ns as u64;
        let stat: [_; 3] = std::array::from_fn(|i| {
            p(&mut ps, &format!("s{ns}.{i}"), Shape::d3(2, ns, 3), seed + i as u64)
        });
        let hist: [_; 3] = std::array::from_fn(|i| {
            p(&mut ps, &format!("h{ns}.{i}"), Shape::d3(2, nd, 3), seed + 5 + i as u64)
        });
        let all: Vec<_> = stat.iter().chain(&hist).copied().collect();
        assert_grad_check(&mut ps, &all, 5e-3, TOL, |g, ps| {
            let sv = stat.map(|x| g.param(ps, x));
            let hv = hist.map(|x| g.param(ps, x));
            let h = g.attention_cross(sv, hv, scale);
            assert_eq!(g.value(h).shape(), Shape::d3(2, ns + nd, 3));
            let sq = g.square(h);
            g.mean_all(sq)
        });
    }
}

#[test]
fn grad_layer_norm() {
    let mut ps = ParamStore::new();
    let x = p(&mut ps, "x", Shape::d2(3, 6), 16);
    let s = p(&mut ps, "s", Shape::d1(6), 17);
    let b = p(&mut ps, "b", Shape::d1(6), 18);
    assert_grad_check(&mut ps, &[x, s, b], 5e-3, TOL, |g, ps| {
        let xv = g.param(ps, x);
        let sv = g.param(ps, s);
        let bv = g.param(ps, b);
        let y = g.layer_norm(xv, sv, bv);
        let sq = g.square(y);
        g.mean_all(sq)
    });
}

#[test]
fn dropout_backward_applies_same_mask() {
    let mut ps = ParamStore::new();
    let x = ps.add_dense("x", Tensor::ones(Shape::d2(4, 8)));
    let mut rng = StdRng::seed_from_u64(99);
    let mut g = Graph::new();
    let xv = g.param(&ps, x);
    let y = g.dropout(xv, 0.5, &mut rng);
    let loss = g.sum_all(y);
    g.backward(loss, &mut ps);
    // The gradient equals the forward mask (since x = ones and loss = sum).
    let fwd = g.value(y).clone();
    assert_eq!(ps.grad(x).data(), fwd.data());
    // Kept entries are scaled by 1/(1-p) = 2.0.
    assert!(fwd.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    // p = 0 is the identity (same Var handle).
    let mut g2 = Graph::new();
    let xv2 = g2.param(&ps, x);
    let y2 = g2.dropout(xv2, 0.0, &mut rng);
    assert_eq!(xv2, y2);
}

#[test]
fn grad_shape_ops() {
    let mut ps = ParamStore::new();
    let a = p(&mut ps, "a", Shape::d3(2, 3, 4), 19);
    let b = p(&mut ps, "b", Shape::d3(2, 2, 4), 20);
    assert_grad_check(&mut ps, &[a, b], EPS, TOL, |g, ps| {
        let av = g.param(ps, a);
        let bv = g.param(ps, b);
        let cat = g.concat_axis1(av, bv); // [2,5,4]
        let sel = g.index_select_axis1(cat, &[0, 4, 4, 2]); // duplicated index
        let sl = g.slice_axis1(sel, 1, 3); // [2,3,4]
        let rs = g.reshape(sl, Shape::d2(6, 4));
        let sq = g.square(rs);
        g.mean_all(sq)
    });
}

#[test]
fn grad_concat_cols_and_expand() {
    let mut ps = ParamStore::new();
    let a = p(&mut ps, "a", Shape::d2(3, 2), 21);
    let b = p(&mut ps, "b", Shape::d2(3, 4), 22);
    assert_grad_check(&mut ps, &[a, b], EPS, TOL, |g, ps| {
        let av = g.param(ps, a);
        let bv = g.param(ps, b);
        let cat = g.concat_cols(&[av, bv, av]); // [3,8]
        let ex = g.expand_axis1(cat, 2); // [3,2,8]
        let sq = g.square(ex);
        g.mean_all(sq)
    });
}

#[test]
fn grad_add_broadcast_batch() {
    let mut ps = ParamStore::new();
    let x = p(&mut ps, "x", Shape::d3(3, 2, 4), 23);
    let pos = p(&mut ps, "pos", Shape::d2(2, 4), 24);
    assert_grad_check(&mut ps, &[x, pos], EPS, TOL, |g, ps| {
        let xv = g.param(ps, x);
        let pv = g.param(ps, pos);
        let y = g.add_broadcast_batch(xv, pv);
        let sq = g.square(y);
        g.mean_all(sq)
    });
}

#[test]
fn grad_reductions() {
    let mut ps = ParamStore::new();
    let x = p(&mut ps, "x", Shape::d3(2, 3, 4), 25);
    assert_grad_check(&mut ps, &[x], EPS, TOL, |g, ps| {
        let xv = g.param(ps, x);
        let m = g.mean_axis1(xv); // [2,4]
        let s = g.sum_axis1(xv); // [2,4]
        let c = g.add(m, s);
        let last = g.sum_lastdim(c); // [2]
        let sq = g.square(last);
        g.sum_all(sq)
    });
}

#[test]
fn grad_bce_with_logits() {
    let mut ps = ParamStore::new();
    let z = p(&mut ps, "z", Shape::d1(6), 26);
    let targets = vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0];
    assert_grad_check(&mut ps, &[z], 5e-3, TOL, move |g, ps| {
        let zv = g.param(ps, z);
        let l = g.bce_with_logits(zv, &targets);
        g.mean_all(l)
    });
}

#[test]
fn gather_routes_gradients_to_rows() {
    let mut ps = ParamStore::new();
    let table = ps
        .add_sparse("emb", Tensor::from_vec(Shape::d2(4, 2), vec![1., 2., 3., 4., 5., 6., 7., 8.]));
    let mut g = Graph::new();
    // batch=2, n=2; second sample starts with padding (-1).
    let e = g.gather(&ps, table, &[0, 2, -1, 3], 2, 2);
    assert_eq!(g.value(e).shape(), Shape::d3(2, 2, 2));
    // padding slot is a zero row
    assert_eq!(g.value(e).at3(1, 0, 0), 0.0);
    assert_eq!(g.value(e).at3(1, 0, 1), 0.0);
    assert_eq!(g.value(e).at3(0, 1, 0), 5.0);
    let loss = g.sum_all(e);
    g.backward(loss, &mut ps);
    // rows 0, 2, 3 touched with gradient 1.0 everywhere; row 1 untouched.
    assert_eq!(ps.touched_rows(table), vec![0, 2, 3]);
    assert_eq!(ps.grad(table).row(0), &[1.0, 1.0]);
    assert_eq!(ps.grad(table).row(1), &[0.0, 0.0]);
    assert_eq!(ps.grad(table).row(2), &[1.0, 1.0]);
    assert_eq!(ps.grad(table).row(3), &[1.0, 1.0]);
}

#[test]
fn gather_finite_difference() {
    let mut ps = ParamStore::new();
    let mut seed = 31;
    let table = ps.add_sparse("emb", rand_tensor(Shape::d2(5, 3), &mut seed));
    assert_grad_check(&mut ps, &[table], EPS, TOL, |g, ps| {
        let e = g.gather(ps, table, &[1, 1, 4, -1, 0, 2], 2, 3);
        let sq = g.square(e);
        g.mean_all(sq)
    });
}

#[test]
fn composite_attention_block_grad() {
    // softmax(E·Wq·(E·Wk)ᵀ/√d + causal)·(E·Wv), mean-pooled — the paper's
    // dynamic-view computation (Eq. 9) end-to-end.
    let mut ps = ParamStore::new();
    let e = p(&mut ps, "e", Shape::d3(2, 4, 3), 27);
    let wq = p(&mut ps, "wq", Shape::d2(3, 3), 28);
    let wk = p(&mut ps, "wk", Shape::d2(3, 3), 29);
    let wv = p(&mut ps, "wv", Shape::d2(3, 3), 30);
    assert_grad_check(&mut ps, &[e, wq, wk, wv], 5e-3, 3e-2, |g, ps| {
        let ev = g.param(ps, e);
        let q = {
            let w = g.param(ps, wq);
            let e2 = g.reshape(ev, Shape::d2(8, 3));
            let q2 = g.matmul(e2, w);
            g.reshape(q2, Shape::d3(2, 4, 3))
        };
        let k = {
            let w = g.param(ps, wk);
            let e2 = g.reshape(ev, Shape::d2(8, 3));
            let k2 = g.matmul(e2, w);
            g.reshape(k2, Shape::d3(2, 4, 3))
        };
        let v = {
            let w = g.param(ps, wv);
            let e2 = g.reshape(ev, Shape::d2(8, 3));
            let v2 = g.matmul(e2, w);
            g.reshape(v2, Shape::d3(2, 4, 3))
        };
        let h = g.attention_causal(q, k, v, 1.0 / (3.0f32).sqrt());
        let pooled = g.mean_axis1(h);
        let sq = g.square(pooled);
        g.mean_all(sq)
    });
}

#[test]
fn no_grad_inputs_are_pruned() {
    let mut ps = ParamStore::new();
    let mut g = Graph::new();
    let a = g.input(Tensor::ones(Shape::d2(2, 2)));
    let b = g.input(Tensor::ones(Shape::d2(2, 2)));
    let c = g.mul(a, b);
    let loss = g.sum_all(c);
    g.backward(loss, &mut ps); // must not panic, nothing to accumulate
    assert_eq!(ps.len(), 0);
}

#[test]
fn reused_node_accumulates_gradient() {
    // loss = mean(x ⊙ x): dx = 2x/n, exercised through two uses of x.
    let mut ps = ParamStore::new();
    let x = ps.add_dense("x", Tensor::vector(vec![1.0, -2.0, 3.0]));
    let mut g = Graph::new();
    let xv = g.param(&ps, x);
    let y = g.mul(xv, xv);
    let loss = g.mean_all(y);
    g.backward(loss, &mut ps);
    let expect: Vec<f32> = vec![2.0 / 3.0, -4.0 / 3.0, 2.0];
    seqfm_tensor::testutil::assert_close(ps.grad(x).data(), &expect, 1e-5);
}

#[test]
#[should_panic(expected = "scalar loss")]
fn backward_requires_scalar() {
    let mut ps = ParamStore::new();
    let x = ps.add_dense("x", Tensor::zeros(Shape::d2(2, 2)));
    let mut g = Graph::new();
    let xv = g.param(&ps, x);
    g.backward(xv, &mut ps);
}

#[test]
fn causal_softmax_blocks_future_gradient_flow() {
    // Perturbing a future position must not change attention output at an
    // earlier position — verified through gradients: d(out at pos 0)/d(E at
    // pos 2) must be zero in the dynamic view.
    let mut ps = ParamStore::new();
    let mut seed = 41;
    let e = ps.add_dense("e", rand_tensor(Shape::d3(1, 3, 2), &mut seed));
    let mut g = Graph::new();
    let ev = g.param(&ps, e);
    let h = g.attention_causal(ev, ev, ev, 1.0);
    // Loss reads only position 0 of the output.
    let first = g.slice_axis1(h, 0, 1);
    let loss = g.sum_all(first);
    g.backward(loss, &mut ps);
    let grad = ps.grad(e);
    // position 0 of input affects output position 0…
    assert!(grad.at3(0, 0, 0).abs() > 1e-6);
    // …while positions 1 and 2 receive zero gradient.
    for pos in 1..3 {
        for dim in 0..2 {
            assert_eq!(grad.at3(0, pos, dim), 0.0, "future pos {pos} leaked gradient");
        }
    }
}

#[test]
fn attention_causal_matches_the_dense_chain_bitwise_on_a_shared_operand() {
    // One operand feeds Q, K and V, so its gradient sums the node's three in
    // arrival order. The dense chain `bmm_nt → scale → + M → softmax → bmm`
    // (the oracle's causal mask as a constant input) delivers V first (from
    // `bmm`), then Q and K (from `bmm_nt`); the node must match its value
    // and that sum bit for bit.
    let (b, n, d) = (3usize, 7usize, 5usize);
    let mut ps = ParamStore::new();
    let x = p(&mut ps, "x", Shape::d3(b, n, d), 71);
    let mask = causal_mask(n);
    let mut run = |dense: bool| -> [Vec<u32>; 2] {
        ps.zero_grads();
        let mut g = Graph::new();
        let xv = g.param(&ps, x);
        let h = if dense {
            let scores = g.bmm_nt(xv, xv);
            let scaled = g.scale(scores, 0.5);
            let m = g.input(Tensor::from_vec(Shape::d3(b, n, n), mask.data().repeat(b)));
            let masked = g.add(scaled, m);
            let w = g.softmax(masked);
            g.bmm(w, xv)
        } else {
            g.attention_causal(xv, xv, xv, 0.5)
        };
        let sq = g.square(h);
        let loss = g.mean_all(sq);
        g.backward(loss, &mut ps);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        [bits(g.value(h)), bits(ps.grad(x))]
    };
    let [want_h, want_dx] = run(true);
    let [h, dx] = run(false);
    assert_eq!(h, want_h, "value");
    assert_eq!(dx, want_dx, "∂x");
}

#[test]
fn causal_node_keeps_non_finite_future_positions_out_of_earlier_rows() {
    // A NaN key, then an infinite value, at position `j`, with a loss that
    // reads only positions `< j`: those rows' values and Q gradients keep
    // the clean run's bits and stay finite. (The dense masked chain made
    // them NaN: `NaN + (−∞)` in the scores, `0 · ∞` in the softmax
    // backward's dot product.)
    let (n, d, j) = (4usize, 3usize, 2usize);
    let run = |poison: Option<(usize, f32)>| -> (Vec<f32>, Vec<f32>) {
        let mut ps = ParamStore::new();
        let mut seed = 61;
        let ids = ["q", "k", "v"].map(|name| {
            p(&mut ps, name, Shape::d3(2, n, d), {
                seed += 1;
                seed
            })
        });
        if let Some((operand, x)) = poison {
            for b in 0..2 {
                ps.value_mut(ids[operand]).data_mut()[(b * n + j) * d + 1] = x;
            }
        }
        let mut g = Graph::new();
        let [qv, kv, vv] = ids.map(|id| g.param(&ps, id));
        let h = g.attention_causal(qv, kv, vv, 0.5);
        let early = g.slice_axis1(h, 0, j);
        let sq = g.square(early);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut ps);
        let early_rows = |x: &[f32]| -> Vec<f32> {
            x.chunks_exact(n * d).flat_map(|s| s[..j * d].to_vec()).collect()
        };
        (early_rows(g.value(h).data()), early_rows(ps.grad(ids[0]).data()))
    };
    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let (want_h, want_dq) = run(None);
    for poison in [(1, f32::NAN), (2, f32::INFINITY)] {
        let (h, dq) = run(Some(poison));
        for (got, want, what) in [(&h, &want_h, "value"), (&dq, &want_dq, "dq")] {
            assert_eq!(bits(got), bits(want), "{poison:?}: {what} rows < {j} moved");
            assert!(got.iter().all(|x| x.is_finite()), "{poison:?}: {what} rows < {j}");
        }
    }
}

#[test]
fn reset_graph_reuse_is_bit_identical_and_allocation_free() {
    // One Graph reused across "mini-batches" via reset() must produce the
    // same values, the same gradients, and — once its buffer pool is warm —
    // build each tape without new heap traffic.
    let mut ps = ParamStore::new();
    let mut seed = 17;
    let w = ps.add_dense("w", rand_tensor(Shape::d2(6, 6), &mut seed));
    let table = ps.add_sparse("emb", rand_tensor(Shape::d2(5, 6), &mut seed));
    let x = rand_tensor(Shape::d3(2, 3, 6), &mut seed);
    let (ids, map) = RowMap::distinct(&[-1, 4, 4, 1, 4, -1], 2, 3);

    let run = |g: &mut Graph, ps: &mut ParamStore| -> (Vec<f32>, Vec<f32>) {
        ps.zero_grads();
        let wv = g.param(ps, w);
        let xv = g.input(Tensor::from_vec(x.shape(), x.data().to_vec()));
        let xw = g.matmul(xv, wv);
        // A row-mapped projection: its expanded value and its backward's
        // row sums are pooled too.
        let e_u = g.gather(ps, table, &ids, 1, ids.len());
        let mapped = g.project_rows(e_u, wv, &map);
        let y = g.add(xw, mapped);
        // Nodes that own a second pooled buffer (their saved weights).
        let (ys, yh) = (g.slice_axis1(y, 0, 1), g.slice_axis1(y, 1, 2));
        let h = g.attention_cross([ys; 3], [yh; 3], 0.5);
        let c = g.attention_causal(h, y, h, 0.5);
        let act = g.relu(c);
        let sq = g.square(act);
        let loss = g.mean_all(sq);
        let out = g.value(act).data().to_vec();
        g.backward(loss, ps);
        (out, [ps.grad(w).data(), ps.grad(table).data()].concat())
    };

    // Fresh graph per run (the old pattern) = the reference.
    let mut fresh = Graph::new();
    let (want_val, want_grad) = run(&mut fresh, &mut ps);

    // Reused graph: warm it, then assert bit-identical results and zero
    // pool growth across many reset cycles.
    let mut g = Graph::new();
    for _ in 0..2 {
        g.reset();
        let (v, gr) = run(&mut g, &mut ps);
        assert_eq!(v, want_val);
        assert_eq!(gr, want_grad);
    }
    let warm = g.ws.heap_events();
    for _ in 0..10 {
        g.reset();
        let (v, gr) = run(&mut g, &mut ps);
        assert_eq!(v, want_val, "reset graph diverged");
        assert_eq!(gr, want_grad, "reset graph gradients diverged");
    }
    assert_eq!(g.ws.heap_events(), warm, "warm reset cycles must not allocate from the pool");
}

/// Index blocks `[b, n]` (`-1` = padding) for the row-mapped projection.
fn history_blocks() -> Vec<(usize, usize, Vec<i64>)> {
    // The training geometry: window `i` holds its last `i mod 25` items
    // (at most 20) of a walk over 60 items, after a padding prefix, so
    // items repeat across windows.
    let train = (0..128 * 20)
        .map(|s| {
            let (i, t) = (s / 20, s % 20);
            let pad = 20 - (i % 25).min(20);
            if t < pad {
                -1
            } else {
                ((i * 3 + (t - pad) * 7) % 60) as i64
            }
        })
        .collect();
    vec![
        // Padding prefixes; items repeated within a window and across.
        (3, 6, vec![-1, -1, 4, 9, 4, 4, -1, 9, 9, 2, 4, 7, 0, 1, 2, 3, 4, 9]),
        // An all-padding history.
        (2, 5, vec![-1; 10]),
        // One item repeated to capacity.
        (2, 5, vec![6; 10]),
        (128, 20, train),
    ]
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn row_map_numbers_distinct_indices_by_first_appearance() {
    for (b, n, idx) in history_blocks() {
        let (ids, map) = RowMap::distinct(&idx, b, n);
        let mut want: Vec<i64> = Vec::new();
        for &ix in idx.iter().filter(|&&ix| ix >= 0) {
            if !want.contains(&ix) {
                want.push(ix);
            }
        }
        assert_eq!(ids, want);
        assert_eq!(map.rows(), want.len());
        assert_eq!(map.filled(), idx.iter().filter(|&&ix| ix >= 0).count());
    }
    // Indices far apart, and spaced so that they collide in the hash.
    let idx: Vec<i64> = (0..64).map(|s| (s % 40) * (1 << 40) + 3).collect();
    let (ids, map) = RowMap::distinct(&idx, 8, 8);
    assert_eq!(ids, idx[..40].to_vec());
    assert_eq!(map.rows(), 40);
    let (ids, map) = RowMap::distinct(&[], 0, 4);
    assert!(ids.is_empty() && map.rows() == 0);
}

#[test]
fn project_rows_places_the_per_slot_projection_bits() {
    // Projection is row-local, so every slot's value is a per-slot gather +
    // matmul's, whatever the shape picks (tiled or naive, with or without
    // column tails), and a padding slot is `+0.0`.
    for (b, n, idx) in history_blocks() {
        for (d, cols) in [(32, 32), (7, 5)] {
            let mut ps = ParamStore::new();
            let mut seed = 40 + (b * n + d) as u64;
            let table = ps.add_sparse("emb", rand_tensor(Shape::d2(60, d), &mut seed));
            let w = p(&mut ps, "w", Shape::d2(d, cols), seed);
            let mut g = Graph::new();
            let wv = g.param(&ps, w);
            let e = g.gather(&ps, table, &idx, b, n);
            let want = g.matmul(e, wv);
            let (ids, map) = RowMap::distinct(&idx, b, n);
            let e_u = g.gather(&ps, table, &ids, 1, ids.len());
            let got = g.project_rows(e_u, wv, &map);
            assert_eq!(g.value(got).shape(), Shape::d3(b, n, cols));
            assert_eq!(bits(g.value(got).data()), bits(g.value(want).data()), "[{b}, {n}] d {d}");
            for (slot, row) in g.value(got).data().chunks_exact(cols).enumerate() {
                if idx[slot] < 0 {
                    assert!(row.iter().all(|v| v.to_bits() == 0), "padding slot {slot}");
                }
            }
        }
    }
}

#[test]
fn grad_project_rows() {
    // Through the gather of the distinct rows: repeats within and across
    // windows, and padding.
    let mut ps = ParamStore::new();
    let mut seed = 51;
    let table = ps.add_sparse("emb", rand_tensor(Shape::d2(6, 4), &mut seed));
    let w = p(&mut ps, "w", Shape::d2(4, 3), 52);
    let idx = [-1, 2, 5, 2, 2, 0, -1, 5];
    assert_grad_check(&mut ps, &[table, w], EPS, TOL, |g, ps| {
        let (ids, map) = RowMap::distinct(&idx, 2, 4);
        let e_u = g.gather(ps, table, &ids, 1, ids.len());
        let wv = g.param(ps, w);
        let y = g.project_rows(e_u, wv, &map);
        let sq = g.square(y);
        g.mean_all(sq)
    });
}

#[test]
fn project_rows_over_every_slot_has_matmuls_gradient_bits() {
    // When each row has one slot, a row's first (only) visit copies its
    // slot gradient, so `∂X` and `∂W` are `Matmul`'s bit for bit — signed
    // zeros in the upstream gradient and all-zero rows included.
    let (b, n, d) = (4usize, 9usize, 16usize);
    let mut ps = ParamStore::new();
    let mut seed = 61;
    let mut xt = rand_tensor(Shape::d3(b, n, d), &mut seed);
    xt.data_mut()[..2 * d].fill(0.0);
    let x = ps.add_dense("x", xt);
    let w = p(&mut ps, "w", Shape::d2(d, d), 62);
    let mut c = rand_tensor(Shape::d3(b, n, d), &mut seed);
    for v in c.data_mut().iter_mut().step_by(3) {
        *v = -0.0;
    }
    let every: Vec<i64> = (0..(b * n) as i64).collect();
    let run = |ps: &mut ParamStore, mapped: bool| -> [Vec<u32>; 3] {
        ps.zero_grads();
        let mut g = Graph::new();
        let (xv, wv) = (g.param(ps, x), g.param(ps, w));
        let y = if mapped {
            g.project_rows(xv, wv, &RowMap::distinct(&every, b, n).1)
        } else {
            g.matmul(xv, wv)
        };
        let cv = g.input(c.clone());
        let yc = g.mul(y, cv);
        let loss = g.sum_all(yc);
        g.backward(loss, ps);
        [bits(g.value(y).data()), bits(ps.grad(x).data()), bits(ps.grad(w).data())]
    };
    let (want, got) = (run(&mut ps, false), run(&mut ps, true));
    for (what, (g, w)) in ["value", "∂x", "∂w"].iter().zip(got.iter().zip(&want)) {
        assert_eq!(g, w, "{what} differs from Matmul's");
    }
}

#[test]
fn overwritten_takes_read_nothing_stale_from_the_pool() {
    // `gather`, `layer_norm`, `project_rows` and its backward take their
    // buffers without a zero-fill: a pool full of NaN must not show.
    let mut ps = ParamStore::new();
    let mut seed = 71;
    let table = ps.add_sparse("emb", rand_tensor(Shape::d2(10, 6), &mut seed));
    let w = p(&mut ps, "w", Shape::d2(6, 6), 72);
    let scale = p(&mut ps, "scale", Shape::d1(6), 73);
    let bias = p(&mut ps, "bias", Shape::d1(6), 74);
    let idx = [-1, 3, 3, 8, -1, -1, 0, 3];
    let run = |g: &mut Graph, ps: &mut ParamStore| -> Vec<Vec<u32>> {
        ps.zero_grads();
        let e = g.gather(ps, table, &idx, 2, 4);
        let (ids, map) = RowMap::distinct(&idx, 2, 4);
        let e_u = g.gather(ps, table, &ids, 1, ids.len());
        let wv = g.param(ps, w);
        let y = g.project_rows(e_u, wv, &map);
        let ey = g.add(e, y);
        let (sv, bv) = (g.param(ps, scale), g.param(ps, bias));
        let h = g.layer_norm(ey, sv, bv);
        let sq = g.square(h);
        let loss = g.sum_all(sq);
        g.backward(loss, ps);
        [e, y, h]
            .map(|v| bits(g.value(v).data()))
            .into_iter()
            .chain([table, w, scale, bias].map(|id| bits(ps.grad(id).data())))
            .collect()
    };
    let want = run(&mut Graph::new(), &mut ps);
    let mut g = Graph::new();
    for _ in 0..64 {
        g.ws.put_vec(vec![f32::NAN; 256]);
    }
    assert_eq!(run(&mut g, &mut ps), want, "a stale pool value reached a result");
}
