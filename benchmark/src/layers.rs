//! Layer probes shared between workloads: the `tensor` kernels through
//! their dispatching entry points, the `parallel` primitives, and the
//! training step's `data` → `autograd` → `nn` sequence.

use crate::fixture::{self, D, MAX_SEQ};
use crate::harness::{self, Outcome, Tracer};
use rand::Rng;
use seqfm_autograd::{Graph, ParamStore};
use seqfm_core::{SeqFm, SeqModel};
use seqfm_data::{build_instance, Batch, FeatureLayout};
use seqfm_nn::{Adam, Optimizer};
use seqfm_parallel::{ArcSlot, Oneshot, ThreadPool, WorkQueue};
use seqfm_tensor::{attention_into, matmul_nn_into, matmul_nt_into};
use std::sync::Arc;

/// `tensor.*`: only `matmul_nn_into` / `matmul_nt_into` / `attention_into`
/// — never `tiled::`, `fast::` or `_arm`, which may not survive — at the
/// shapes the frozen forward uses (2048×32×32 projections; attention over
/// 128 rows of n° + n˙ = 22 features).
pub fn tensor(out: &mut Outcome) {
    let mut rng = fixture::rng(0, fixture::STREAM_PROBE);
    let mut fill = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-0.5f32..0.5)).collect() };
    let (m, k, n) = (2048usize, D, D);
    let (a, b) = (fill(m * k), fill(k * n));
    let mut c = vec![0.0f32; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let nn_us = harness::p50_us(20, 400, || {
        c.fill(0.0);
        matmul_nn_into(&a, &b, &mut c, m, k, n);
        std::hint::black_box(c[0]);
    });
    let nt_us = harness::p50_us(20, 400, || {
        c.fill(0.0);
        matmul_nt_into(&a, &b, &mut c, m, k, n);
        std::hint::black_box(c[0]);
    });
    out.layer("tensor.matmul_nn_gflops", flops / nn_us / 1e3);
    out.layer("tensor.matmul_nt_gflops", flops / nt_us / 1e3);

    let (bs, nf) = (128usize, 22usize);
    let (q, kk, v) = (fill(bs * nf * D), fill(bs * nf * D), fill(bs * nf * D));
    let mut scores = vec![0.0f32; bs * nf * nf];
    let mut o = vec![0.0f32; bs * nf * D];
    let scale = 1.0 / (D as f32).sqrt();
    out.layer(
        "tensor.attention_us",
        harness::p50_us(20, 400, || {
            attention_into(&q, &kk, &v, None, scale, bs, nf, D, &mut scores, &mut o);
            std::hint::black_box(o[0]);
        }),
    );
}

/// `parallel.*`: the admission queue's round trip with an empty payload
/// (`try_push` → `recv_many` on one worker → `Oneshot::send` → `recv`), one
/// `ThreadPool::scope` wave of two no-op tasks, and an `ArcSlot::load`.
pub fn parallel(out: &mut Outcome) {
    let (queue, mut handles) = WorkQueue::<Arc<Oneshot<()>>>::bounded(1, 1024);
    let handle = handles.pop().expect("one worker handle");
    let worker = std::thread::spawn(move || {
        let mut jobs = Vec::new();
        while handle.recv_many(16, &mut jobs) {
            for slot in jobs.drain(..) {
                slot.send(());
            }
        }
    });
    let slot = Arc::new(Oneshot::new());
    let roundtrip_us = harness::p50_us(1_000, 20_000, || {
        slot.reset();
        assert!(queue.try_push(Arc::clone(&slot)).is_ok(), "queue of 1024 holds one job");
        slot.recv().expect("worker replies");
    });
    drop(queue);
    worker.join().expect("probe worker exits once the queue closes");
    out.layer("parallel.queue_roundtrip_us", roundtrip_us);

    // A pool of its own: the global one is pinned to a single worker.
    let pool = ThreadPool::new(2);
    out.layer(
        "parallel.pool_scope_us",
        harness::p50_us(1_000, 20_000, || {
            pool.scope(|s| {
                s.spawn(|| {});
                s.spawn(|| {});
            });
        }),
    );

    let cell = ArcSlot::new(Arc::new(0u64));
    let per_1000_us = harness::p50_us(10, 1_000, || {
        for _ in 0..1_000 {
            std::hint::black_box(cell.load());
        }
    });
    out.layer("parallel.slot_load_ns", per_1000_us);
}

/// One training example of the BPR replay: a positive and a sampled
/// negative item for a user with this history.
pub struct BprSample {
    pub user: u32,
    pub pos: u32,
    pub neg: u32,
    pub history: Vec<u32>,
}

/// `autograd.*`, `nn.*` and `data.build_instance_us`: minibatches of
/// `batch` samples replayed through the training step's layer calls — build
/// the positive and negative batches → `SeqModel::forward` twice and the BPR
/// loss on a `Graph` → `Graph::backward` → one Adam step (dense like the
/// offline loop, or `sparse_step` like the online trainer) — under one
/// `root` span per step.
#[allow(clippy::too_many_arguments)]
pub fn bpr_replay(
    root: &'static str,
    model: &SeqFm,
    ps: &mut ParamStore,
    layout: &FeatureLayout,
    samples: &[BprSample],
    batch: usize,
    sparse: bool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut rng = fixture::rng(0, fixture::STREAM_PROBE);
    let mut opt = Adam::new(1e-3);
    let mut g = Graph::new();
    for (step, chunk) in samples.chunks_exact(batch).enumerate() {
        let id = step as u32;
        let r = tracer.begin(root, id);
        let s = tracer.begin("data.build_batch", id);
        let side = |item: fn(&BprSample) -> u32, target: f32| -> Batch {
            let insts: Vec<_> = chunk
                .iter()
                .map(|x| build_instance(layout, x.user, item(x), &x.history, MAX_SEQ, target))
                .collect();
            Batch::try_from_instances(&insts).expect("non-empty rectangular batch")
        };
        let (pb, nb) = (side(|x| x.pos, 1.0), side(|x| x.neg, 0.0));
        tracer.end(s);
        let s = tracer.begin("autograd.forward", id);
        g.reset();
        let y_pos = model.forward(&mut g, ps, &pb, true, &mut rng);
        let y_neg = model.forward(&mut g, ps, &nb, true, &mut rng);
        let diff = g.sub(y_pos, y_neg);
        let ndiff = g.neg(diff);
        let per = g.softplus(ndiff);
        let loss = g.mean_all(per);
        tracer.end(s);
        let s = tracer.begin("autograd.backward", id);
        ps.zero_grads();
        g.backward(loss, ps);
        tracer.end(s);
        let s = tracer.begin(if sparse { "nn.adam_sparse_step" } else { "nn.adam_step" }, id);
        let stepped = if sparse { opt.sparse_step(ps) } else { opt.step(ps) };
        tracer.end(s);
        tracer.end(r);
        stepped.expect("finite gradients");
    }
    out.layer("data.build_instance_us", tracer.p50_us("data.build_batch") / (2 * batch) as f64);
    out.layer("autograd.forward_us", tracer.p50_us("autograd.forward"));
    out.layer("autograd.backward_us", tracer.p50_us("autograd.backward"));
    out.layer("nn.adam_step_us", tracer.p50_us("nn.adam_step"));
    out.layer("nn.adam_sparse_step_us", tracer.p50_us("nn.adam_sparse_step"));
}
