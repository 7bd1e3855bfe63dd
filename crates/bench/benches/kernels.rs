//! Same-run comparisons of the tensor kernels that dominate SeqFM's
//! runtime — each kernel against its naive or dense-masked reference —
//! written to `BENCH_kernels.json` at the repository root:
//!
//! * single-core naive vs. tiled matmul throughput (GFLOP/s) at the serving
//!   shapes `d = 32` and `d = 64` (candidate-expansion row counts), for all
//!   three flavours (`tn` as the weight gradient `Xᵀ·dY` over those rows);
//! * naive vs. tiled `nn` and `tn` latency on a padded training batch
//!   (sessions opening with all-zero rows, which the tiled kernels skip);
//! * fused, unmasked [`attention_into`] latency at `[128, 22, 64]` (the
//!   static view's kernel; the repo benchmark's `tensor.attention_us` owns
//!   `d = 32`), and the exact cross view at serving geometry both ways:
//!   splice + the dense masked oracle ([`attention_masked_into`]) vs. the
//!   structured [`attention_cross_shared_into`], the latter also at the
//!   request shape (one user row shared by every candidate);
//! * the output head's `[100, 96]·[96, 1]` matrix-vector product, naive vs.
//!   the eight-rows-per-tile kernel;
//! * the cross view at the training geometry (a history per row), forward
//!   and backward: the dense masked oracle — the tape ops the node replaced
//!   — vs. [`attention_cross_rows_into`] /
//!   [`attention_cross_rows_backward_into`];
//! * the causal (dynamic) view at the training geometry `[128, 20, 32]`,
//!   forward and backward: the dense masked oracle vs.
//!   [`attention_causal_into`] / [`attention_causal_backward_into`];
//! * steady-state heap **allocations per scored request** through
//!   `FrozenSeqFm::score_into`, counted by a global allocator wrapper
//!   (expected: 0 — the workspace-arena guarantee).
//!
//! ```text
//! cargo bench -p seqfm-bench --bench kernels
//! ```
//!
//! `SEQFM_WORKERS` is pinned to 1 before the first kernel dispatch so every
//! number is a **single-core** measurement (the tiled-vs-naive ratio is
//! exactly what each pool worker gains).

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_bench::timing::{calib_spin_us, host_cpus, p50};
use seqfm_core::{FrozenSeqFm, Scorer, Scratch, SeqFm, SeqFmConfig};
use seqfm_data::{build_instance, Batch, FeatureLayout};
use seqfm_tensor::kernels::matmul::{naive, tiled};
use seqfm_tensor::testutil::{
    attention_masked_backward_into, attention_masked_into, causal_mask, cross_mask, AttnMask,
    CountingAlloc,
};
use seqfm_tensor::{
    attention_causal_backward_into, attention_causal_into, attention_cross_rows_backward_into,
    attention_cross_rows_into, attention_cross_shared_into, attention_into, Shape, Tensor,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn rand(shape: Shape, seed: &mut u64) -> Tensor {
    seqfm_tensor::testutil::rand_tensor(shape, seed)
}

/// Serving-shape matmuls: `m` candidate-expansion rows, `d × d` weights.
const SERVING_SHAPES: [(usize, usize); 2] = [(2048, 32), (2048, 64)];

/// GFLOP/s of one `m·k·n` matmul whose median call takes `secs`.
fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    (2.0 * m as f64 * k as f64 * n as f64) / secs / 1e9
}

fn main() {
    // The kernel pool reads this once per process, before its first dispatch.
    std::env::set_var("SEQFM_WORKERS", "1");
    let calib_spin = calib_spin_us();

    // --- naive vs tiled matmul throughput at serving shapes ---------------
    let mut fields = String::new();
    for &(m, d) in &SERVING_SHAPES {
        let mut seed = 5;
        let a = rand(Shape::d2(m, d), &mut seed);
        let b = rand(Shape::d2(d, d), &mut seed);
        let bt = rand(Shape::d2(d, d), &mut seed);
        let dy = rand(Shape::d2(m, d), &mut seed);
        let mut out = vec![0.0f32; m * d];
        let mut time = |f: &mut dyn FnMut(&mut [f32])| p50(10, 40, || f(&mut out));
        let nn_naive = time(&mut |o| {
            o.fill(0.0);
            naive::matmul_nn_into(a.data(), b.data(), o, m, d, d);
        });
        let nn_tiled = time(&mut |o| {
            o.fill(0.0);
            tiled::matmul_nn_into(a.data(), b.data(), o, m, d, d);
        });
        let nt_naive = time(&mut |o| {
            o.fill(0.0);
            naive::matmul_nt_into(a.data(), bt.data(), o, m, d, d);
        });
        let nt_tiled = time(&mut |o| {
            o.fill(0.0);
            tiled::matmul_nt_into(a.data(), bt.data(), o, m, d, d);
        });
        // `tn` is the backward weight gradient `dW = Xᵀ·dY`: depth `m`,
        // output `[d, d]`, the same flop count.
        let [tn_naive, tn_tiled] = [naive::matmul_tn_into, tiled::matmul_tn_into].map(|kernel| {
            time(&mut |o| {
                o[..d * d].fill(0.0);
                kernel(a.data(), dy.data(), &mut o[..d * d], d, m, d);
            })
        });
        for (flavour, naive_s, tiled_s) in
            [("nn", nn_naive, nn_tiled), ("nt", nt_naive, nt_tiled), ("tn", tn_naive, tn_tiled)]
        {
            fields.push_str(&format!(
                "  \"matmul_{flavour}_d{d}_gflops_naive\": {:.2},\n  \"matmul_{flavour}_d{d}_gflops_tiled\": {:.2},\n  \"matmul_{flavour}_d{d}_speedup_tiled_vs_naive\": {:.2},\n",
                gflops(m, d, d, naive_s),
                gflops(m, d, d, tiled_s),
                naive_s / tiled_s,
            ));
        }
    }

    // --- a padded training batch: `[128·22, 32]·[32, 32]` and its `dW` -----
    // 128 sessions of 22 rows, each opening with 0–22 all-zero (padding)
    // rows: the tiled `nn` never visits those rows and `tn` never visits
    // those depth steps; naive tests every element.
    {
        let (b, n, d) = (128usize, 22usize, 32usize);
        let mut seed = 12;
        let mut x = rand(Shape::d2(b * n, d), &mut seed).data().to_vec();
        for (s, session) in x.chunks_mut(n * d).enumerate() {
            session[..(s * 7 + 3) % (n + 1) * d].fill(0.0);
        }
        let [w, dy] = [d, b * n].map(|rows| rand(Shape::d2(rows, d), &mut seed));
        let mut out = vec![0.0f32; b * n * d];
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let mut time = |kernel: Kernel, rhs: &[f32], [m, k]: [usize; 2]| {
            p50(10, 200, || {
                out[..m * d].fill(0.0);
                kernel(&x, rhs, &mut out[..m * d], m, k, d);
                std::hint::black_box(out[0]);
            })
        };
        let times = [
            ("nn", time(tiled::matmul_nn_into, w.data(), [b * n, d])),
            ("nn_naive", time(naive::matmul_nn_into, w.data(), [b * n, d])),
            ("tn", time(tiled::matmul_tn_into, dy.data(), [d, b * n])),
            ("tn_naive", time(naive::matmul_tn_into, dy.data(), [d, b * n])),
        ];
        for (kernel, secs) in times {
            fields.push_str(&format!(
                "  \"matmul_{kernel}_train_padded_b{b}_n{n}_d{d}_us\": {:.1},\n",
                secs * 1e6
            ));
        }
    }

    // --- fused, unmasked attention latency (the static view's kernel) -----
    {
        let (batch, n, d) = (128usize, 22usize, 64usize);
        let mut seed = 7;
        let q = rand(Shape::d3(batch, n, d), &mut seed);
        let k = rand(Shape::d3(batch, n, d), &mut seed);
        let v = rand(Shape::d3(batch, n, d), &mut seed);
        let scale = 1.0 / (d as f32).sqrt();
        let mut scores = vec![0.0f32; batch * n * n];
        let mut out_buf = vec![0.0f32; batch * n * d];
        let secs = p50(10, 40, || {
            attention_into(
                q.data(),
                k.data(),
                v.data(),
                None,
                scale,
                batch,
                n,
                d,
                &mut scores,
                &mut out_buf,
            );
            std::hint::black_box(out_buf[0]);
        });
        fields.push_str(&format!("  \"attention_b{batch}_n{n}_d{d}_us\": {:.1},\n", secs * 1e6));
    }

    // --- exact cross view at serving geometry: dense masked vs structured --
    // One request's cross-view attention (100 candidates, ns = 2, nd = 20,
    // d = 32): the dense path splices the shared history under every
    // candidate and scores all 22 × 22 pairs; the structured kernel reads
    // the shared block in place and scores only the 80 admitted pairs — or,
    // told that the user row is shared too, the 40 that involve a
    // candidate's own row, after a per-call prelude for the rest.
    {
        let (b, ns, nd, d) = (100usize, 2usize, 20usize, 32usize);
        let n = ns + nd;
        let mut seed = 8;
        let stat = [(); 3].map(|()| rand(Shape::d3(b, ns, d), &mut seed));
        let hist = [(); 3].map(|()| rand(Shape::d2(nd, d), &mut seed));
        let mask = cross_mask(ns, nd);
        let scale = 1.0 / (d as f32).sqrt();
        let mut full = [(); 3].map(|()| vec![0.0f32; b * n * d]);
        let mut scores = vec![0.0f32; b * n * n];
        let mut out_buf = vec![0.0f32; b * n * d];
        let dense = p50(10, 200, || {
            for (f, (s, h)) in full.iter_mut().zip(stat.iter().zip(&hist)) {
                for (bi, slice) in f.chunks_exact_mut(n * d).enumerate() {
                    slice[..ns * d].copy_from_slice(&s.data()[bi * ns * d..(bi + 1) * ns * d]);
                    slice[ns * d..].copy_from_slice(h.data());
                }
            }
            let [q, k, v] = &full;
            attention_masked_into([q, k, v], &mask, scale, [b, n, d], &mut scores, &mut out_buf);
            std::hint::black_box(out_buf[0]);
        });
        // `[own]`: every slice brings both its static rows. `[shared user]`:
        // the request shape — slice 0's first row is the row all slices lead
        // with, and each brings one row of its own.
        let [stat_d, hist_d] = [&stat, &hist].map(|x| [0, 1, 2].map(|i| x[i].data()));
        let own: [Vec<f32>; 3] = stat_d
            .map(|x| x.chunks_exact(ns * d).flat_map(|slice| slice[d..].iter().copied()).collect());
        let mut time_structured = |shared: [&[f32]; 3], own: [&[f32]; 3], ns0: usize| {
            p50(10, 200, || {
                attention_cross_shared_into(
                    shared,
                    own,
                    hist_d,
                    scale,
                    [b, ns0, ns - ns0, nd, d],
                    &mut scores,
                    &mut out_buf,
                );
                std::hint::black_box(out_buf[0]);
            })
        };
        let structured = time_structured([&[]; 3], stat_d, 0);
        let shared_user = time_structured(stat_d.map(|x| &x[..d]), [&own[0], &own[1], &own[2]], 1);
        fields.push_str(&format!(
            "  \"attention_cross_exact_dense_b{b}_n{n}_d{d}_us\": {:.1},\n  \"attention_cross_exact_structured_b{b}_n{n}_d{d}_us\": {:.1},\n  \"attention_cross_exact_structured_shared_user_b{b}_n{n}_d{d}_us\": {:.1},\n",
            dense * 1e6,
            structured * 1e6,
            shared_user * 1e6
        ));
    }

    // --- the output head: `[100, 96]·[96, 1]`, one request's Eq. 18 --------
    // A matrix-vector product has no column lanes; the tiled entry runs
    // eight rows' chains at once where the naive loop runs one.
    {
        let (m, k) = (100usize, 96usize);
        let mut seed = 10;
        let a = rand(Shape::d2(m, k), &mut seed);
        let p = rand(Shape::d2(k, 1), &mut seed);
        let mut f = vec![0.0f32; m];
        type NnKernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let mut time = |kernel: NnKernel| {
            p50(10, 2000, || {
                f.fill(0.0);
                kernel(a.data(), p.data(), &mut f, m, k, 1);
                std::hint::black_box(f[0]);
            })
        };
        let (mv_naive, mv_tiled) = (time(naive::matmul_nn_into), time(tiled::matmul_nn_into));
        fields.push_str(&format!(
            "  \"matvec_nn_naive_m{m}_k{k}_us\": {:.2},\n  \"matvec_nn_m{m}_k{k}_us\": {:.2},\n",
            mv_naive * 1e6,
            mv_tiled * 1e6
        ));
    }

    // --- the masked views at training geometry: the dense oracle vs the nodes
    // One BPR pass's cross-view attention (128 instances with their own
    // histories, ns = 2, nd = 20, d = 32) and dynamic-view attention (the
    // 20 history rows alone), forward and backward. Dense is the oracle —
    // what the tape recorded before each node, `bmm_nt → scale → softmax
    // (+ M) → bmm` and those four nodes' backward kernels; structured is the
    // pair of kernels behind `Graph::attention_cross` / `attention_causal`.
    fn dense_pair(
        qkv: [&[f32]; 3],
        d_out: &[f32],
        mask: &AttnMask,
        dims: [usize; 3],
    ) -> (f64, f64) {
        let [b, n, d] = dims;
        let scale = 1.0 / (d as f32).sqrt();
        let mut attn = vec![0.0f32; b * n * n];
        let mut ctx = vec![0.0f32; b * n * d];
        let fwd = p50(10, 200, || {
            attention_masked_into(qkv, mask, scale, dims, &mut attn, &mut ctx);
            std::hint::black_box(ctx[0]);
        });
        let mut scratch = vec![0.0f32; 2 * b * n * n];
        let mut grads = [(); 3].map(|()| vec![0.0f32; b * n * d]);
        let bwd = p50(10, 200, || {
            let [dq, dk, dv] = &mut grads;
            attention_masked_backward_into(
                qkv,
                &attn,
                d_out,
                scale,
                dims,
                &mut scratch,
                [dq, dk, dv],
            );
            std::hint::black_box(grads[0][0]);
        });
        (fwd, bwd)
    }
    {
        let (b, ns, nd, d) = (128usize, 2usize, 20usize, 32usize);
        let n = ns + nd;
        let mut seed = 11;
        let [q, k, v, d_out] = [(); 4].map(|()| rand(Shape::d3(b, n, d), &mut seed));
        let (q, k, v, d_out) = (q.data(), k.data(), v.data(), d_out.data());
        let scale = 1.0 / (d as f32).sqrt();
        let qkv = [q, k, v];
        let (fwd_dense, bwd_dense) = dense_pair(qkv, d_out, &cross_mask(ns, nd), [b, n, d]);
        let hist = qkv.map(|x| &x[ns * d..]);
        let dims = [b, ns, nd, d];
        let mut weights = vec![0.0f32; b * 2 * ns * nd];
        let mut ctx = vec![0.0f32; b * n * d];
        let fwd_structured = p50(10, 200, || {
            attention_cross_rows_into(qkv, n * d, hist, n * d, scale, dims, &mut weights, &mut ctx);
            std::hint::black_box(ctx[0]);
        });
        let mut grads = [(); 3].map(|()| vec![0.0f32; b * n * d]);
        let bwd_structured = p50(10, 200, || {
            let [dq, dk, dv] = &mut grads;
            for g in [&mut *dq, &mut *dk, &mut *dv] {
                g.fill(0.0);
            }
            attention_cross_rows_backward_into(qkv, &weights, d_out, scale, dims, [dq, dk, dv]);
            std::hint::black_box(grads[0][0]);
        });
        fields.push_str(&format!(
            "  \"attention_cross_rows_dense_b{b}_n{n}_d{d}_us\": {:.1},\n  \"attention_cross_rows_structured_b{b}_n{n}_d{d}_us\": {:.1},\n  \"attention_cross_rows_backward_dense_b{b}_n{n}_d{d}_us\": {:.1},\n  \"attention_cross_rows_backward_structured_b{b}_n{n}_d{d}_us\": {:.1},\n",
            fwd_dense * 1e6,
            fwd_structured * 1e6,
            bwd_dense * 1e6,
            bwd_structured * 1e6
        ));
    }
    {
        let (b, n, d) = (128usize, 20usize, 32usize);
        let mut seed = 13;
        let [q, k, v, d_out] = [(); 4].map(|()| rand(Shape::d3(b, n, d), &mut seed));
        let (q, k, v, d_out) = (q.data(), k.data(), v.data(), d_out.data());
        let scale = 1.0 / (d as f32).sqrt();
        let (fwd_dense, bwd_dense) = dense_pair([q, k, v], d_out, &causal_mask(n), [b, n, d]);
        let mut weights = vec![0.0f32; b * n * (n + 1) / 2];
        let mut ctx = vec![0.0f32; b * n * d];
        let fwd_structured = p50(10, 200, || {
            attention_causal_into(q, k, v, scale, [b, n, d], &mut weights, &mut ctx);
            std::hint::black_box(ctx[0]);
        });
        let mut grads = [(); 3].map(|()| vec![0.0f32; b * n * d]);
        let bwd_structured = p50(10, 200, || {
            let [dq, dk, dv] = &mut grads;
            for g in [&mut *dq, &mut *dk, &mut *dv] {
                g.fill(0.0);
            }
            let dims = [b, n, d];
            attention_causal_backward_into([q, k, v], &weights, d_out, scale, dims, [dq, dk, dv]);
            std::hint::black_box(grads[0][0]);
        });
        fields.push_str(&format!(
            "  \"attention_causal_dense_b{b}_n{n}_d{d}_us\": {:.1},\n  \"attention_causal_structured_b{b}_n{n}_d{d}_us\": {:.1},\n  \"attention_causal_backward_dense_b{b}_n{n}_d{d}_us\": {:.1},\n  \"attention_causal_backward_structured_b{b}_n{n}_d{d}_us\": {:.1},\n",
            fwd_dense * 1e6,
            fwd_structured * 1e6,
            bwd_dense * 1e6,
            bwd_structured * 1e6
        ));
    }

    // --- steady-state allocations per scored request ----------------------
    let layout = FeatureLayout { n_users: 64, n_items: 300 };
    let cfg = SeqFmConfig { d: 32, max_seq: 20, dropout: 0.0, ..Default::default() };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(9);
    let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
    let frozen = FrozenSeqFm::freeze(&model, &ps);
    let hist: Vec<u32> = (0..20).map(|j| (j * 7) % 300).collect();
    let insts: Vec<_> =
        (0..100).map(|c| build_instance(&layout, 3, (c * 5) % 300, &hist, 20, 0.0)).collect();
    let batch = Batch::try_from_instances(&insts).expect("valid batch");
    let mut scratch = Scratch::new();
    let mut scores_out = Vec::with_capacity(batch.len);
    for _ in 0..5 {
        scores_out.clear();
        frozen.score_into(&batch, &mut scratch, &mut scores_out);
    }
    let requests = 200u64;
    let before = CountingAlloc::allocations();
    for _ in 0..requests {
        scores_out.clear();
        frozen.score_into(&batch, &mut scratch, &mut scores_out);
    }
    let allocs = CountingAlloc::allocations() - before;
    let allocs_per_request = allocs as f64 / requests as f64;

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"config\": {{ \"serving_rows\": 2048, \"widths\": [32, 64], \"workers\": 1 }},\n  \"host_cpus\": {host_cpus},\n  \"calib_spin_us\": {calib_spin:.1},\n{fields}  \"allocs_per_scored_request\": {allocs_per_request:.3}\n}}\n",
        host_cpus = host_cpus(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("== BENCH_kernels.json ==\n{json}");
}
