//! `slate` and `burst`: stored-history scoring requests through
//! `Engine::submit` → `PendingResponse::wait`, closed loop, one generator
//! thread holding a sliding window of outstanding submits.
//!
//! * `slate` — 100 candidates per request, window 1, 512 users with
//!   distinct histories that all fit the view cache. Almost all of a
//!   request is the frozen forward, so `core`/`tensor` do the work and
//!   `serve` nearly none; a window of 1 never coalesces.
//! * `burst` — one candidate per request (the paper's CTR shape, §IV-D),
//!   window 32, every user's history one of 4 "trending" windows. The
//!   forward is one row, the rest is admission, drain, group, expand, rank
//!   and reply; the only workload on which coalescing engages.

use crate::fixture::{self, Opts, Phase, MAX_SEQ, TOP_K};
use crate::harness::{self, Outcome, Tracer};
use crate::layers;
use rand::Rng;
use seqfm_core::{FrozenSeqFm, ScorerPrecision, Scratch};
use seqfm_data::FeatureLayout;
use seqfm_serve::{
    expand_request, score_request, score_requests_stateful, score_requests_with, CoalesceScratch,
    Engine, HistoryBackend, PendingResponse, ScoreRequest, ScoreResponse, ViewCache,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Users the main stream draws from; they all fit the view cache.
const STREAM_USERS: u32 = 512;
/// Users reserved for freshness probes, so that the appends a probe makes
/// never touch a stream user's history (or a shared "trending" window).
const PROBE_USERS: u32 = 64;
const LAYOUT: FeatureLayout =
    FeatureLayout { n_users: (STREAM_USERS + PROBE_USERS) as usize, n_items: 2_000 };

/// What distinguishes the two workloads.
pub struct Shape {
    pub name: &'static str,
    /// Pre-generated stream length; the timed window walks it cyclically.
    n_ops: usize,
    candidates: usize,
    /// Outstanding submits the generator keeps in flight.
    window: usize,
    /// `Some(n)`: every user's history is one of `n` shared windows.
    trending: Option<usize>,
    /// Latency and completion time are recorded for every n-th request, so
    /// that the harness's own buffers stay small beside the engine's memory.
    sample_every: usize,
    /// Every n-th response is kept and re-derived after the timed window.
    retain_every: usize,
    /// Traced windows record spans for every n-th request.
    trace_every: usize,
    /// Requests per replayed drain (what one worker wakeup scores at once).
    drain: usize,
    /// Replayed drains.
    replay_drains: usize,
    /// Every n-th op is a freshness probe: an `append_event` for a probe
    /// user, then that user's request through the same window.
    fresh_every: usize,
}

pub const SLATE: Shape = Shape {
    name: "slate",
    n_ops: 20_000,
    candidates: 100,
    window: 1,
    trending: None,
    sample_every: 1,
    retain_every: 1_024,
    trace_every: 1,
    drain: 1,
    replay_drains: 256,
    fresh_every: 32,
};

pub const BURST: Shape = Shape {
    name: "burst",
    n_ops: 800_000,
    candidates: 1,
    window: 32,
    trending: Some(4),
    sample_every: 8,
    retain_every: 1_024,
    trace_every: 16,
    drain: 16,
    replay_drains: 64,
    fresh_every: 256,
};

struct Fixture {
    frozen: Arc<FrozenSeqFm>,
    engine: Engine,
    users: Vec<u32>,
    /// `candidates` items per op, flat.
    cands: Vec<u32>,
}

impl Fixture {
    /// Op `idx` of the stream: a stream user's request, or — every
    /// `fresh_every`-th op — the next probe user's.
    fn request(&self, shape: &Shape, idx: usize) -> ScoreRequest {
        let i = idx % shape.n_ops;
        let c = shape.candidates;
        let user = if idx.is_multiple_of(shape.fresh_every) {
            STREAM_USERS + (idx / shape.fresh_every) as u32 % PROBE_USERS
        } else {
            self.users[i]
        };
        ScoreRequest::stored(user, self.cands[i * c..(i + 1) * c].to_vec())
    }

    /// The same request with the stored history inlined — what the engine's
    /// answer is checked against, through the synchronous path.
    fn inline(&self, req: &ScoreRequest) -> ScoreRequest {
        let hist = self.engine.history(req.user).expect("stream users are in the layout");
        ScoreRequest::inline(req.user, hist, req.candidates.clone())
    }
}

/// Data/model build, freeze, engine start, store warm, and a fixed warm-up
/// (one request per user, which fills the view cache).
fn setup(shape: &Shape, seed: u64) -> Fixture {
    let (model, ps) = fixture::build_model(seed, &LAYOUT);
    let frozen = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let engine = Engine::new(Arc::clone(&frozen), LAYOUT, fixture::engine_cfg()).expect("valid");
    let mut rng = fixture::rng(seed, fixture::STREAM_TRAFFIC);
    let n_items = LAYOUT.n_items as u32;
    let trending: Vec<Vec<u32>> = (0..shape.trending.unwrap_or(0))
        .map(|_| (0..MAX_SEQ).map(|_| rng.gen_range(0..n_items)).collect())
        .collect();
    for u in 0..LAYOUT.n_users as u32 {
        let history: Vec<u32> = match shape.trending {
            Some(n) => trending[u as usize % n].clone(),
            None => (0..MAX_SEQ).map(|_| rng.gen_range(0..n_items)).collect(),
        };
        for item in history {
            engine.append_event(u, item).expect("ids in layout");
        }
    }
    let users = (0..shape.n_ops).map(|_| rng.gen_range(0..STREAM_USERS)).collect();
    let cands = (0..shape.n_ops * shape.candidates).map(|_| rng.gen_range(0..n_items)).collect();
    let fx = Fixture { frozen, engine, users, cands };
    for u in 0..LAYOUT.n_users as u32 {
        let cands = fx.cands[..shape.candidates].to_vec();
        fx.engine.score_stored(u, cands).expect("valid warm-up request");
    }
    fx
}

struct InFlight {
    pending: PendingResponse,
    submit_ns: u64,
    /// When the probe's `append_event` began; 0 for an ordinary request.
    append_ns: u64,
    idx: usize,
}

/// What the timed windows collect beside latencies.
#[derive(Default)]
struct Collected {
    /// Sampled replies with the request they answer, history inlined as it
    /// stood when the reply arrived.
    retained: Vec<(ScoreRequest, ScoreResponse)>,
    fresh_us: Vec<f64>,
}

/// Walks the stream from `*next` for `seconds`, keeping `shape.window`
/// submits outstanding. A refused submit or an error reply is a failed op.
fn drive(
    fx: &Fixture,
    shape: &Shape,
    next: &mut usize,
    seconds: f64,
    tracer: &mut Tracer,
    got: &mut Collected,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::start(1 << 18, shape.sample_every as f64);
    let deadline = harness::now_ns() + (seconds * 1e9) as u64;
    let mut ring: VecDeque<InFlight> = VecDeque::with_capacity(shape.window);
    let mut complete = |f: InFlight, tracer: &mut Tracer, out: &mut Outcome, phase: &mut Phase| {
        let traced = f.idx.is_multiple_of(shape.trace_every);
        let span = if traced { tracer.begin("serve.wait", f.idx as u32) } else { u32::MAX };
        let reply = f.pending.wait();
        tracer.end(span);
        let sampled = f.idx.is_multiple_of(shape.sample_every);
        if sampled || f.append_ns != 0 {
            let done = harness::now_ns();
            if sampled {
                phase.lat_us.push((done - f.submit_ns) as f64 / 1e3);
                phase.timeline.done(done);
            }
            if f.append_ns != 0 {
                got.fresh_us.push((done - f.append_ns) as f64 / 1e3);
            }
        }
        match reply {
            // `retain_every` is a multiple of `fresh_every`, so the kept
            // replies are probes: scored on a history appended to just before.
            Ok(resp) if f.idx.is_multiple_of(shape.retain_every) => {
                got.retained.push((fx.inline(&fx.request(shape, f.idx)), resp));
            }
            Ok(_) => {}
            Err(e) => out.fail(format!("{}: request {} failed: {e}", shape.name, f.idx)),
        }
    };
    loop {
        if ring.len() == shape.window {
            let f = ring.pop_front().expect("window >= 1");
            complete(f, tracer, out, &mut phase);
        }
        let idx = *next;
        let req = fx.request(shape, idx);
        let mut submit_ns = harness::now_ns();
        if submit_ns >= deadline {
            break;
        }
        *next += 1;
        out.attempted += 1;
        let mut append_ns = 0;
        if idx.is_multiple_of(shape.fresh_every) {
            append_ns = submit_ns;
            if let Err(e) = fx.engine.append_event(req.user, req.candidates[0]) {
                out.fail(format!("{}: append before request {idx} failed: {e}", shape.name));
            }
            submit_ns = harness::now_ns();
        }
        let span = if idx.is_multiple_of(shape.trace_every) {
            tracer.begin("serve.submit", idx as u32)
        } else {
            u32::MAX
        };
        let admitted = fx.engine.submit(req);
        tracer.end(span);
        match admitted {
            Ok(pending) => ring.push_back(InFlight { pending, submit_ns, append_ns, idx }),
            Err(e) => out.fail(format!("{}: submit {idx} refused: {e}", shape.name)),
        }
    }
    while let Some(f) = ring.pop_front() {
        complete(f, tracer, out, &mut phase);
    }
    phase
}

/// Engine answer vs. synchronous `score_request` on the inlined history,
/// bit for bit.
fn check_response(fx: &Fixture, inline: &ScoreRequest, got: &ScoreResponse, out: &mut Outcome) {
    let want = score_request(&*fx.frozen, &LAYOUT, MAX_SEQ, TOP_K, inline, &mut Scratch::new());
    out.check(matches!(&want, Ok(w) if fixture::same_bits(w, got)), || {
        format!("engine reply for user {} differs from score_request", inline.user)
    });
}

pub fn run(shape: &Shape, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (fx, setup_s) = harness::repeated_setup(|| setup(shape, opts.seed));
    out.setup_s = setup_s;

    // Before timing: the first requests of the stream, engine vs. inline.
    for i in 0..8 {
        let req = fx.request(shape, i);
        out.attempted += 1;
        match fx.engine.score(req.clone()) {
            Ok(resp) => check_response(&fx, &fx.inline(&req), &resp, &mut out),
            Err(e) => out.fail(format!("{}: pre-check {i} failed: {e}", shape.name)),
        }
    }

    let mut tracer = if opts.trace {
        Tracer::on((opts.seconds * 60_000.0) as usize + 100_000)
    } else {
        Tracer::off()
    };
    let mut next = 0usize;
    let mut got = Collected::default();
    let cache_before = fx.engine.cache_stats();
    let (untraced, traced) = fixture::run_windows(opts, &mut tracer, |seconds, tracer| {
        drive(&fx, shape, &mut next, seconds, tracer, &mut got, &mut out)
    });
    let cache_after = fx.engine.cache_stats();

    for (inline, resp) in &got.retained {
        check_response(&fx, inline, resp, &mut out);
    }
    out.fresh_p50_us = harness::median(&mut got.fresh_us);
    out.notes.push(format!(
        "{} retained responses re-derived inline; {} freshness probes",
        got.retained.len(),
        got.fresh_us.len()
    ));

    if opts.trace {
        fixture::request_tail_and_hit_ratio(
            &mut out,
            &untraced,
            traced.as_ref(),
            (cache_before, cache_after),
        );
        out.layer("serve.submit_us", tracer.p50_us("serve.submit"));
        out.layer("serve.wait_us", tracer.p50_us("serve.wait"));
    }
    fixture::summarise(&mut out, untraced, traced);

    if opts.trace {
        replay(&fx, shape, &mut tracer, &mut out);
        layers::tensor(&mut out);
        layers::parallel(&mut out);
        crate::finish_trace(shape.name, &tracer, &mut out);
    }
    out
}

/// The layer replay: a sample of the stream executed inline on this thread
/// through the layer functions in engine order — per request
/// `snapshot_into` → `ViewCache::get`, then per distinct history window
/// `expand_request` → `score_with_view` — one `replay` span per drain, layer
/// calls as children. Engine workers are opaque from outside; this is the
/// same work minus the queue hop, the wake and the reply. Each drain is also
/// sent through the engine and through the worker's own entry point right
/// there, so the three are compared under the same host conditions.
fn replay(fx: &Fixture, shape: &Shape, tracer: &mut Tracer, out: &mut Outcome) {
    let store = fx.engine.store();
    let epoch = fx.engine.current_epoch();
    let cache = ViewCache::new(1024);
    let frozen = &*fx.frozen;
    let mut scratch = Scratch::new();
    let mut snap = Vec::new();
    // The engine's cache is hot on these workloads, so the replay's own
    // cache is filled first; the fill is where `history_view` and `insert`
    // are timed (outside `replay`: a hot request never pays them).
    for u in 0..LAYOUT.n_users as u32 {
        let version = store.snapshot_into(u, &mut snap);
        let row = fixture::padded_row(&snap);
        let s = tracer.begin("core.history_view", u);
        let view = Arc::new(frozen.history_view(&row, &mut scratch));
        tracer.end(s);
        let s = tracer.begin("serve.cache.insert", u);
        cache.insert(u, version, epoch, view);
        tracer.end(s);
    }

    let base = shape.n_ops / 2; // a part of the stream the warm-up did not single out
    let mut rows = 0usize;
    let mut group_sizes = Vec::with_capacity(shape.replay_drains);
    let mut cs = CoalesceScratch::new();
    let mut replies = Vec::new();
    let backend = HistoryBackend { store, cache: Some(&cache) };
    for dr in 0..shape.replay_drains {
        let reqs: Vec<ScoreRequest> =
            (0..shape.drain).map(|j| fx.request(shape, base + dr * shape.drain + j)).collect();
        let id = dr as u32;

        let r = tracer.begin("replay", id);
        // (window, view, candidates of every request sharing the window)
        let mut groups: Vec<(Vec<u32>, Arc<seqfm_core::HistoryView>, Vec<u32>)> = Vec::new();
        for req in &reqs {
            let s = tracer.begin("serve.store.snapshot", id);
            let version = store.snapshot_into(req.user, &mut snap);
            tracer.end(s);
            let s = tracer.begin("serve.cache.get", id);
            let view = cache.get(req.user, version, epoch);
            tracer.end(s);
            let view = view.expect("replay cache was filled for every user");
            match groups.iter_mut().find(|g| g.0 == snap) {
                Some(g) => g.2.extend_from_slice(&req.candidates),
                None => groups.push((snap.clone(), view, req.candidates.clone())),
            }
        }
        for (window, view, cands) in &groups {
            let group_req = ScoreRequest::inline(reqs[0].user, window.clone(), cands.clone());
            let s = tracer.begin("serve.expand", id);
            let batch = expand_request(&group_req, &LAYOUT, MAX_SEQ).expect("valid request");
            tracer.end(s);
            let s = tracer.begin("core.score_with_view", id);
            std::hint::black_box(frozen.score_with_view(&batch, view, &mut scratch)[0]);
            tracer.end(s);
            rows += batch.len;
        }
        tracer.end(r);
        group_sizes.push(shape.drain as f64 / groups.len() as f64);

        // The same drain through the engine …
        let s = tracer.begin("serve.engine_roundtrip", id);
        let pending: Vec<_> =
            reqs.iter().map(|r| fx.engine.submit(r.clone()).expect("under capacity")).collect();
        for p in pending {
            p.wait().expect("valid request");
        }
        tracer.end(s);
        // … through the function a worker calls per drain (grouping, reused
        // expansion batch and ranking included) …
        let s = tracer.begin("serve.stateful_inline", id);
        score_requests_stateful(
            frozen,
            &LAYOUT,
            MAX_SEQ,
            TOP_K,
            &reqs,
            Some(&backend),
            &mut scratch,
            &mut cs,
            &mut replies,
        );
        tracer.end(s);
        // … and through the store-less coalesced path on inlined histories.
        let inline: Vec<ScoreRequest> = reqs.iter().map(|r| fx.inline(r)).collect();
        let s = tracer.begin("serve.coalesce.batch", id);
        score_requests_with(
            frozen,
            &LAYOUT,
            MAX_SEQ,
            TOP_K,
            &inline,
            &mut scratch,
            &mut cs,
            &mut replies,
        );
        tracer.end(s);
        // One request alone: the synchronous path and the view-less forward.
        let s = tracer.begin("serve.score_request", id);
        let one = score_request(frozen, &LAYOUT, MAX_SEQ, TOP_K, &inline[0], &mut scratch);
        tracer.end(s);
        std::hint::black_box(one.is_ok());
        let batch = expand_request(&inline[0], &LAYOUT, MAX_SEQ).expect("valid request");
        let s = tracer.begin("core.score", id);
        std::hint::black_box(seqfm_core::Scorer::score(frozen, &batch, &mut scratch)[0]);
        tracer.end(s);
    }

    // The Fast profile at the same batch shape (layer level only: the
    // default engine serves Exact).
    let fast = FrozenSeqFm::from_params(Arc::clone(fx.frozen.params()), *fx.frozen.config())
        .with_precision(ScorerPrecision::Fast);
    let req = fx.inline(&fx.request(shape, base));
    let batch = expand_request(&req, &LAYOUT, MAX_SEQ).expect("valid request");
    let view = fast.history_view(&batch.dyn_idx[..MAX_SEQ], &mut scratch);
    let fast_us = harness::p50_us(10, 200, || {
        std::hint::black_box(fast.score_with_view(&batch, &view, &mut scratch)[0]);
    });

    // Heap allocations per engine round trip, requests built beforehand.
    let prebuilt: Vec<ScoreRequest> = (0..1_000).map(|i| fx.request(shape, base + i)).collect();
    let mut pending = Vec::with_capacity(shape.window);
    let allocs = harness::count_allocs(|| {
        for req in prebuilt {
            pending.push(fx.engine.submit(req).expect("under capacity"));
            if pending.len() == shape.window {
                for p in pending.drain(..) {
                    p.wait().expect("valid request");
                }
            }
        }
        for p in pending.drain(..) {
            p.wait().expect("valid request");
        }
    });

    let drain = shape.drain as f64;
    let score_busy_s: f64 = tracer.durations_us("core.score_with_view").iter().sum::<f64>() / 1e6;
    let stateful_us = tracer.p50_us("serve.stateful_inline") / drain;
    out.layer("serve.store.snapshot_us", tracer.p50_us("serve.store.snapshot"));
    out.layer("serve.cache.get_us", tracer.p50_us("serve.cache.get"));
    out.layer("serve.cache.insert_us", tracer.p50_us("serve.cache.insert"));
    out.layer("core.history_view_us", tracer.p50_us("core.history_view"));
    out.layer("serve.expand_us", tracer.p50_us("serve.expand"));
    out.layer("core.score_with_view_us", tracer.p50_us("core.score_with_view"));
    out.layer("core.score_us", tracer.p50_us("core.score"));
    out.layer("core.score_with_view_fast_us", fast_us);
    out.layer("core.rows_per_s", rows as f64 / score_busy_s);
    out.layer("serve.score_request_us", tracer.p50_us("serve.score_request"));
    out.layer("serve.stateful_inline_us", stateful_us);
    out.layer("serve.coalesce.batch_us_per_req", tracer.p50_us("serve.coalesce.batch") / drain);
    out.layer("serve.coalesce.group_size", harness::mean(&group_sizes));
    out.layer("serve.replay_us", tracer.p50_us("replay") / drain);
    // What the engine adds to a worker's own work: queue hop, wake, reply.
    let roundtrip_us = tracer.p50_us("serve.engine_roundtrip") / drain;
    let overhead_us = roundtrip_us - stateful_us;
    out.layer("serve.engine_overhead_us", overhead_us);
    out.layer("serve.allocs_per_request", allocs as f64 / 1_000.0);

    if shape.window == 1 {
        // One request in flight: the op is the replayed layer calls plus
        // the engine's overhead. If the two do not add up to what a caller
        // sees, the layer table is missing something. Compared with the
        // round trips made during the replay, not with the timed window's
        // `op_p50_us`: the host's speed drifts between the two. Reported,
        // not a failed op: three medians taken while the host changes
        // speed can land on different sides of the change, and a timing
        // must never make a run incorrect.
        let rebuilt = tracer.p50_us("replay") + overhead_us;
        let off = (rebuilt - roundtrip_us) / roundtrip_us;
        out.notes.push(format!(
            "replay p50 + engine overhead = {rebuilt:.1} us, round trip = {roundtrip_us:.1} us \
             ({:+.1} %, {})",
            off * 100.0,
            if off.abs() <= 0.10 { "reconstructs within 10 %" } else { "DOES NOT reconstruct" }
        ));
    }
}
