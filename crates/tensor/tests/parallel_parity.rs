//! Bit-for-bit parity of the parallel kernel paths.
//!
//! This binary forces a 4-worker global pool (the env var is read once,
//! before any kernel dispatch) and drives every auto-dispatching kernel at
//! shapes large enough to clear the fan-out threshold, comparing against
//! naive reference loops with the **same per-element accumulation order**.
//! Equality is exact: row/slice partitioning must not change a single bit.
//!
//! Since the kernels grew their cache-blocked tiled paths, these shapes do
//! double duty: every row-partitioned chunk below is large enough (rows ≥ 2,
//! `n` ≥ one register tile, work over the tile threshold) that each parallel
//! task runs the **tiled** kernel with its packed workspace panels — so the
//! assertions prove naive == tiled == parallel-tiled, all to the bit. The
//! serial tiled-vs-naive sweep at adversarial shapes lives in
//! `tests/tiled_parity.rs`.

use seqfm_tensor::kernels::matmul::naive;
use seqfm_tensor::testutil::rand_tensor;
use seqfm_tensor::{
    attention_causal_backward_into, attention_causal_into, attention_cross_rows_backward_into,
    attention_cross_rows_into, attention_cross_shared_into, attention_into, bmm_nn, bmm_nt,
    matmul_nn, matmul_nt, matmul_tn, softmax_lastdim, softmax_rows_into, Shape, Tensor,
};

/// Large enough that m·k·n clears the 96 Ki-op dispatch threshold.
const M: usize = 48;
const K: usize = 64;
const N: usize = 56;

fn refer_nn(a: &Tensor, b: &Tensor, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let a_ip = a.data()[i * k + p];
            for j in 0..n {
                c[i * n + j] += a_ip * b.data()[p * n + j];
            }
        }
    }
    c
}

#[test]
fn parallel_kernel_paths_match_serial_references_bitwise() {
    // Must happen before the first kernel dispatch in this process: the
    // global pool reads the variable exactly once.
    std::env::set_var("SEQFM_WORKERS", "4");
    let mut seed = 41;

    // matmul_nn: ikj kernel == naive ikj loop, bit for bit.
    let a = rand_tensor(Shape::d2(M, K), &mut seed);
    let b = rand_tensor(Shape::d2(K, N), &mut seed);
    assert_eq!(matmul_nn(&a, &b).data(), refer_nn(&a, &b, M, K, N), "matmul_nn diverges");

    // matmul_nt: dot-product rows against explicit transpose.
    let bt = rand_tensor(Shape::d2(N, K), &mut seed);
    let mut want = vec![0.0f32; M * N];
    for i in 0..M {
        for j in 0..N {
            let mut acc = 0.0f32;
            for p in 0..K {
                acc += a.data()[i * K + p] * bt.data()[j * K + p];
            }
            want[i * N + j] = acc;
        }
    }
    assert_eq!(matmul_nt(&a, &bt).data(), want, "matmul_nt diverges");

    // matmul_tn: p-outer accumulation order.
    let at = rand_tensor(Shape::d2(K, M), &mut seed);
    let bb = rand_tensor(Shape::d2(K, N), &mut seed);
    let mut want = vec![0.0f32; M * N];
    for p in 0..K {
        for i in 0..M {
            let a_pi = at.data()[p * M + i];
            for j in 0..N {
                want[i * N + j] += a_pi * bb.data()[p * N + j];
            }
        }
    }
    assert_eq!(matmul_tn(&at, &bb).data(), want, "matmul_tn diverges");

    // bmm_nn / bmm_nt: slice-partitioned path vs. per-slice 2-D kernels run
    // at sub-threshold size (i.e. guaranteed-serial references).
    // bs·m·k·n = 20·16·24·20 = 153,600 > the 96 Ki-op threshold, so the bmm
    // fan-out genuinely runs; each 16·24·20 ≈ 7.7k-op slice stays serial.
    let (bs, sm, sk, sn) = (20, 16, 24, 20);
    let a3 = rand_tensor(Shape::d3(bs, sm, sk), &mut seed);
    let b3 = rand_tensor(Shape::d3(bs, sk, sn), &mut seed);
    let got = bmm_nn(&a3, &b3);
    for i in 0..bs {
        let ai =
            Tensor::from_vec(Shape::d2(sm, sk), a3.data()[i * sm * sk..(i + 1) * sm * sk].to_vec());
        let bi =
            Tensor::from_vec(Shape::d2(sk, sn), b3.data()[i * sk * sn..(i + 1) * sk * sn].to_vec());
        let want = matmul_nn(&ai, &bi); // sub-threshold → serial
        assert_eq!(
            &got.data()[i * sm * sn..(i + 1) * sm * sn],
            want.data(),
            "bmm_nn slice {i} diverges"
        );
    }
    let b3t = rand_tensor(Shape::d3(bs, sn, sk), &mut seed);
    let got = bmm_nt(&a3, &b3t);
    for i in 0..bs {
        let ai =
            Tensor::from_vec(Shape::d2(sm, sk), a3.data()[i * sm * sk..(i + 1) * sm * sk].to_vec());
        let bi = Tensor::from_vec(
            Shape::d2(sn, sk),
            b3t.data()[i * sn * sk..(i + 1) * sn * sk].to_vec(),
        );
        let want = matmul_nt(&ai, &bi);
        assert_eq!(
            &got.data()[i * sm * sn..(i + 1) * sm * sn],
            want.data(),
            "bmm_nt slice {i} diverges"
        );
    }

    // softmax over enough rows to clear the (exp-weighted) threshold; the
    // reference is the per-row formula with identical op order.
    let rows = 96;
    let width = 80;
    let x = rand_tensor(Shape::d2(rows, width), &mut seed);
    let got = softmax_lastdim(&rand_tensor(Shape::d2(width, width), &mut seed));
    for r in 0..width {
        let sum: f32 = got.row(r).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "row {r} not a distribution");
    }
    // Parallel softmax vs. naive reference, bitwise (the tensor entry point
    // dispatches through the same row kernel).
    let mut got = vec![0.0f32; rows * width];
    softmax_rows_into(x.data(), width, &mut got);
    assert_eq!(softmax_lastdim(&x).data(), &got[..], "tensor softmax diverges from rows_into");
    for r in 0..rows {
        let xin = &x.data()[r * width..(r + 1) * width];
        let mut max = f32::NEG_INFINITY;
        for &v in xin {
            if v > max {
                max = v;
            }
        }
        let mut want = vec![0.0f32; width];
        let mut sum = 0.0f32;
        for (o, &v) in want.iter_mut().zip(xin) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for o in want.iter_mut() {
            *o *= inv;
        }
        assert_eq!(&got[r * width..(r + 1) * width], want, "softmax row {r} diverges");
    }

    // attention_into (unmasked — the static view): slice-partitioned fused
    // kernel vs. the unfused tensor ops at the same shape (whose own kernels
    // are bit-identical serial or parallel, as proven above).
    let (abs, an, ad) = (16, 24, 16);
    let q = rand_tensor(Shape::d3(abs, an, ad), &mut seed);
    let kk = rand_tensor(Shape::d3(abs, an, ad), &mut seed);
    let v = rand_tensor(Shape::d3(abs, an, ad), &mut seed);
    let scale = 1.0 / (ad as f32).sqrt();
    let scores = seqfm_tensor::ew::scale(&bmm_nt(&q, &kk), scale);
    let attn = softmax_lastdim(&scores);
    let want = bmm_nn(&attn, &v);
    let mut scratch = vec![0.0f32; abs * an * an];
    let mut out = vec![0.0f32; abs * an * ad];
    attention_into(q.data(), kk.data(), v.data(), None, scale, abs, an, ad, &mut scratch, &mut out);
    assert_eq!(out, want.data(), "fused parallel attention diverges");

    // The causal view, forward and backward, at the training geometry
    // (both clear the threshold and fan out over slices) vs. the same
    // kernels called one slice at a time.
    let (cb, cn, cd) = (128usize, 20usize, 32usize);
    let tri = cn * (cn + 1) / 2;
    let [cq, ck, cv, d_out] = [(); 4].map(|()| rand_tensor(Shape::d3(cb, cn, cd), &mut seed));
    let scale = 1.0 / (cd as f32).sqrt();
    let at = |x: &Tensor, lo: usize, slices: usize| -> Vec<f32> {
        x.data()[lo * cn * cd..(lo + slices) * cn * cd].to_vec()
    };
    let run = |lo: usize, slices: usize| -> [Vec<f32>; 5] {
        let [q, k, v] = [at(&cq, lo, slices), at(&ck, lo, slices), at(&cv, lo, slices)];
        let dims = [slices, cn, cd];
        let mut weights = vec![0.0f32; slices * tri];
        let mut out = vec![0.0f32; slices * cn * cd];
        attention_causal_into(&q, &k, &v, scale, dims, &mut weights, &mut out);
        let mut grads = [(); 3].map(|()| vec![0.0f32; slices * cn * cd]);
        let [dq, dk, dv] = &mut grads;
        let d_out = at(&d_out, lo, slices);
        attention_causal_backward_into([&q, &k, &v], &weights, &d_out, scale, dims, [dq, dk, dv]);
        let [dq, dk, dv] = grads;
        [weights, out, dq, dk, dv]
    };
    let fanned = run(0, cb);
    for bi in 0..cb {
        for ((got, want), what) in
            fanned.iter().zip(run(bi, 1)).zip(["weights", "context", "dq", "dk", "dv"])
        {
            let unit = want.len();
            assert_eq!(got[bi * unit..(bi + 1) * unit], want, "causal {what}, slice {bi}");
        }
    }

    // The structured per-row cross view, forward and backward, at the
    // training geometry (both clear the threshold and fan out over slices)
    // vs. the same kernels called one slice at a time — a single unit never
    // leaves the caller's thread.
    let (cb, ns, nd, cd) = (128usize, 2usize, 20usize, 32usize);
    let (cn, wl) = (ns + nd, 2 * ns * nd);
    let [cq, ck, cv, d_out] = [(); 4].map(|()| rand_tensor(Shape::d3(cb, cn, cd), &mut seed));
    let scale = 1.0 / (cd as f32).sqrt();
    let at = |x: &Tensor, lo: usize, slices: usize| -> Vec<f32> {
        x.data()[lo * cn * cd..(lo + slices) * cn * cd].to_vec()
    };
    let run = |lo: usize, slices: usize| -> [Vec<f32>; 5] {
        let qkv = [at(&cq, lo, slices), at(&ck, lo, slices), at(&cv, lo, slices)];
        let qkv = [&qkv[0][..], &qkv[1][..], &qkv[2][..]];
        let dims = [slices, ns, nd, cd];
        let mut weights = vec![0.0f32; slices * wl];
        let mut out = vec![0.0f32; slices * cn * cd];
        let hist = qkv.map(|x| &x[ns * cd..]);
        attention_cross_rows_into(qkv, cn * cd, hist, cn * cd, scale, dims, &mut weights, &mut out);
        let mut grads = [(); 3].map(|()| vec![0.0f32; slices * cn * cd]);
        let [dq, dk, dv] = &mut grads;
        let d_out = at(&d_out, lo, slices);
        attention_cross_rows_backward_into(qkv, &weights, &d_out, scale, dims, [dq, dk, dv]);
        let [dq, dk, dv] = grads;
        [weights, out, dq, dk, dv]
    };
    let fanned = run(0, cb);
    for bi in 0..cb {
        for ((got, want), what) in
            fanned.iter().zip(run(bi, 1)).zip(["weights", "context", "dq", "dk", "dv"])
        {
            let unit = want.len();
            assert_eq!(got[bi * unit..(bi + 1) * unit], want, "cross rows {what}, slice {bi}");
        }
    }

    // The shared-history cross view at the serving shape — one user row
    // shared by 100 candidates (`ns0 = ns1 = 1`) — fans out over slices,
    // every chunk building the packs and the shared-row prelude in its own
    // worker's arena; vs. one slice per call, which stays on this thread.
    let (sb, nd, sd) = (100usize, 20usize, 32usize);
    let shared = [(); 3].map(|()| rand_tensor(Shape::d2(1, sd), &mut seed));
    let own = [(); 3].map(|()| rand_tensor(Shape::d3(sb, 1, sd), &mut seed));
    let hist = [(); 3].map(|()| rand_tensor(Shape::d2(nd, sd), &mut seed));
    let [shared, own, hist] = [&shared, &own, &hist].map(|x| [0, 1, 2].map(|i| x[i].data()));
    let unit = (2 + nd) * sd;
    let run = |lo: usize, slices: usize| -> Vec<f32> {
        let mut out = vec![f32::NAN; slices * unit];
        attention_cross_shared_into(
            shared,
            own.map(|x| &x[lo * sd..(lo + slices) * sd]),
            hist,
            1.0 / (sd as f32).sqrt(),
            [slices, 1, 1, nd, sd],
            &mut vec![0.0f32; slices * 2 * nd],
            &mut out,
        );
        out
    };
    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let fanned = run(0, sb);
    for bi in 0..sb {
        let got = &fanned[bi * unit..(bi + 1) * unit];
        assert_eq!(bits(got), bits(&run(bi, 1)), "cross shared, slice {bi}");
    }

    // A padded training batch through the dispatching entry points: sessions
    // of 22 rows, each opening with 0–22 all-zero (padding) rows, as the
    // projection lhs (`nn`, rows split over the pool) and as the depth rows
    // of its weight gradient (`tn`, output rows split) — every chunk
    // classifies its own rows or steps. `c` starts at `-0.0`, which a kernel
    // that visited an all-zero `nn` row would flip to `+0.0`.
    let (rows, d) = (128 * 22, 32);
    let mut x = rand_tensor(Shape::d2(rows, d), &mut seed).data().to_vec();
    for (s, session) in x.chunks_mut(22 * d).enumerate() {
        session[..(s * 7 + 3) % 23 * d].fill(0.0);
    }
    let [w, dy] = [d, rows].map(|r| rand_tensor(Shape::d2(r, d), &mut seed));
    let (mut got, mut want) = (vec![-0.0f32; rows * d], vec![-0.0f32; rows * d]);
    seqfm_tensor::matmul_nn_into(&x, w.data(), &mut got, rows, d, d);
    naive::matmul_nn_into(&x, w.data(), &mut want, rows, d, d);
    assert_eq!(bits(&got), bits(&want), "padded matmul_nn_into diverges");
    let (mut got, mut want) = (vec![-0.0f32; d * d], vec![-0.0f32; d * d]);
    seqfm_tensor::matmul_tn_into(&x, dy.data(), &mut got, d, rows, d);
    naive::matmul_tn_into(&x, dy.data(), &mut want, d, rows, d);
    assert_eq!(bits(&got), bits(&want), "padded matmul_tn_into diverges");

    // Per-worker workspace arenas: the fan-outs above ran tiled kernels on
    // pool workers, each packing panels into its own thread-local arena.
    // The caller's own arena must be balanced (no scope leaked), and the
    // same parallel+tiled dispatch re-run must stay allocation-free on this
    // thread once warm.
    seqfm_tensor::workspace::with_thread(|ws| {
        assert_eq!(ws.live(), 0, "a kernel leaked a workspace scope");
    });
    let warm = seqfm_tensor::workspace::with_thread(|ws| ws.heap_events());
    let again = matmul_nn(&a, &b);
    assert_eq!(again.data(), refer_nn(&a, &b, M, K, N), "tiled re-run diverges");
    seqfm_tensor::workspace::with_thread(|ws| {
        assert_eq!(ws.heap_events(), warm, "warm tiled dispatch allocated on the caller thread");
    });
}
