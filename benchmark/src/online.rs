//! `online`: writes beside reads. Each round appends 64 events, turns the
//! `OnlineTrainer::pump` crank (batch 16, publish every 4 ⇒ one publish per
//! round, with a 5 000-item index attached and rebuilt in the background),
//! then serves 16 stored-history requests of 50 candidates and, every 8th
//! round, one `retrieve_top_k`. The serving layers of `slate` and
//! `retrieve` used the other way round: store appends, an epoch-invalidated
//! view cache, index rebuilds and the brute-force fallback window, and the
//! graph-mode forward/backward beside the frozen forward. A gain for the
//! read path that taxes publish or append shows here.

use crate::fixture::{self, Opts, Phase, MAX_SEQ};
use crate::harness::{self, Outcome, Tracer};
use crate::layers::{self, BprSample};
use rand::Rng;
use seqfm_core::{FrozenSeqFm, ModelEpoch, Scratch};
use seqfm_data::FeatureLayout;
use seqfm_serve::{CatalogIndex, Engine, ScoreRequest};
use seqfm_train::{OnlineConfig, OnlineTrainer};
use std::sync::Arc;

const LAYOUT: FeatureLayout = FeatureLayout { n_users: 256, n_items: 5_000 };
const BLOCK: usize = 64;
const K: usize = 100;
const N_ROUNDS: usize = 700;
const EVENTS: usize = 64;
const REQUESTS: usize = 16;
const CANDIDATES: usize = 50;
const RETRIEVE_EVERY: usize = 8;
const BATCH: usize = 16;
const PUBLISH_EVERY: usize = 4;
const REPLAY_ROUNDS: usize = 16;

struct Fixture {
    engine: Engine,
    trainer: OnlineTrainer,
    /// `EVENTS` `(user, item)` pairs per round, flat.
    events: Vec<(u32, u32)>,
    /// `REQUESTS` users per round, flat.
    users: Vec<u32>,
    /// `CANDIDATES` items per request, flat.
    cands: Vec<u32>,
}

impl Fixture {
    fn round_events(&self, round: usize) -> &[(u32, u32)] {
        let r = round % N_ROUNDS;
        &self.events[r * EVENTS..(r + 1) * EVENTS]
    }

    fn request(&self, round: usize, j: usize) -> ScoreRequest {
        let i = (round % N_ROUNDS) * REQUESTS + j;
        ScoreRequest::stored(
            self.users[i],
            self.cands[i * CANDIDATES..(i + 1) * CANDIDATES].to_vec(),
        )
    }
}

/// Model build, freeze, index build, store warm, engine start with the
/// event log attached, trainer start, and two warm-up rounds.
fn setup(seed: u64) -> Fixture {
    let (model, ps) = fixture::build_model(seed, &LAYOUT);
    let index = CatalogIndex::build(Arc::new(FrozenSeqFm::freeze(&model, &ps)), LAYOUT, BLOCK);
    let engine =
        Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), LAYOUT, fixture::engine_cfg())
            .expect("valid");
    let mut rng = fixture::rng(seed, fixture::STREAM_TRAFFIC);
    let n_items = LAYOUT.n_items as u32;
    let n_users = LAYOUT.n_users as u32;
    // Warm the store before the event log exists: the trainer learns from
    // the live stream only.
    for u in 0..n_users {
        for _ in 0..MAX_SEQ {
            engine.append_event(u, rng.gen_range(0..n_items)).expect("ids in layout");
        }
    }
    let engine = engine.with_catalog_index(Arc::new(index)).with_event_log();
    let cfg = OnlineConfig {
        batch_size: BATCH,
        publish_every: PUBLISH_EVERY,
        max_seq: MAX_SEQ,
        seed,
        ..Default::default()
    };
    let trainer = OnlineTrainer::new(model, ps, LAYOUT, cfg);
    let events = (0..N_ROUNDS * EVENTS)
        .map(|_| (rng.gen_range(0..n_users), rng.gen_range(0..n_items)))
        .collect();
    let users = (0..N_ROUNDS * REQUESTS).map(|_| rng.gen_range(0..n_users)).collect();
    let cands = (0..N_ROUNDS * REQUESTS * CANDIDATES).map(|_| rng.gen_range(0..n_items)).collect();
    let mut fx = Fixture { engine, trainer, events, users, cands };
    let mut sink = Outcome::default();
    let mut state = RoundState::default();
    for round in N_ROUNDS - 2..N_ROUNDS {
        one_round(
            &mut fx,
            round,
            &mut Tracer::off(),
            &mut Phase::start(64, EVENTS as f64),
            &mut state,
            &mut sink,
        );
    }
    assert_eq!(sink.failed, 0, "warm-up rounds failed: {:?}", sink.failures);
    fx
}

#[derive(Default)]
struct RoundState {
    last_epoch: Option<ModelEpoch>,
    fresh_us: Vec<f64>,
    retrievals: u64,
    fallbacks: u64,
}

/// One round; see the module docs. Every append, request and retrieval is
/// an attempted op.
fn one_round(
    fx: &mut Fixture,
    round: usize,
    tracer: &mut Tracer,
    phase: &mut Phase,
    state: &mut RoundState,
    out: &mut Outcome,
) {
    let id = round as u32;
    let round_start = harness::now_ns();
    let s = tracer.begin("serve.append_event.x64", id);
    for i in 0..EVENTS {
        let (u, item) = fx.round_events(round)[i];
        out.attempted += 1;
        if let Err(e) = fx.engine.append_event(u, item) {
            out.fail(format!("online: append in round {round} failed: {e}"));
        }
    }
    tracer.end(s);
    let s = tracer.begin("train.pump", id);
    let published = fx.trainer.pump(&fx.engine);
    tracer.end(s);
    out.check(published.len() == EVENTS / BATCH / PUBLISH_EVERY, || {
        format!("online: round {round} published {} epochs", published.len())
    });
    let target = published.last().copied();

    let mut fresh_seen = false;
    for j in 0..REQUESTS {
        let req = fx.request(round, j);
        out.attempted += 1;
        let start = harness::now_ns();
        let s = tracer.begin("serve.request", id);
        let reply = fx.engine.score(req);
        tracer.end(s);
        let done = harness::now_ns();
        phase.lat_us.push((done - start) as f64 / 1e3);
        match reply {
            Ok(resp) => {
                // Epochs a caller sees never run ahead of the engine and
                // never go backwards.
                let ordered = resp.epoch <= fx.engine.current_epoch()
                    && state.last_epoch.is_none_or(|last| resp.epoch >= last);
                out.check(ordered, || {
                    format!("online: response epoch {} out of order", resp.epoch)
                });
                state.last_epoch = Some(resp.epoch);
                if !fresh_seen && Some(resp.epoch) == target {
                    fresh_seen = true;
                    state.fresh_us.push((done - round_start) as f64 / 1e3);
                }
            }
            Err(e) => out.fail(format!("online: request in round {round} failed: {e}")),
        }
    }
    out.check(fresh_seen, || format!("online: round {round} never served under its epoch"));

    if round.is_multiple_of(RETRIEVE_EVERY) {
        out.attempted += 1;
        state.retrievals += 1;
        let index_epoch = fx.engine.catalog_index().expect("index attached").model().epoch();
        if index_epoch != fx.engine.current_epoch() {
            state.fallbacks += 1;
        }
        let s = tracer.begin("serve.retrieve_top_k", id);
        let got = fx.engine.retrieve_top_k(fx.users[(round % N_ROUNDS) * REQUESTS], K);
        tracer.end(s);
        if let Err(e) = got {
            out.fail(format!("online: retrieval in round {round} failed: {e}"));
        }
    }
    phase.timeline.done(harness::now_ns());
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut fx, setup_s) = harness::repeated_setup(|| setup(opts.seed));
    out.setup_s = setup_s;

    let mut tracer = if opts.trace { Tracer::on(200_000) } else { Tracer::off() };
    let mut next = 0usize;
    let mut state = RoundState::default();
    let cache_before = fx.engine.cache_stats();
    let (untraced, traced) = fixture::run_windows(opts, &mut tracer, |seconds, tracer| {
        let mut phase = Phase::start(16_384, EVENTS as f64);
        let deadline = harness::now_ns() + (seconds * 1e9) as u64;
        while harness::now_ns() < deadline {
            one_round(&mut fx, next, tracer, &mut phase, &mut state, &mut out);
            next += 1;
        }
        phase
    });
    let cache_after = fx.engine.cache_stats();
    out.fresh_p50_us = harness::median(&mut state.fresh_us);
    out.notes.push(format!("{next} rounds, {} freshness samples", state.fresh_us.len()));

    check_hot_equals_cold(&fx, &mut out);

    if opts.trace {
        fixture::request_tail_and_hit_ratio(
            &mut out,
            &untraced,
            traced.as_ref(),
            (cache_before, cache_after),
        );
        out.layer(
            "retrieval.brute_fallback_share",
            state.fallbacks as f64 / state.retrievals.max(1) as f64,
        );
        out.layer("serve.store.append_us", tracer.p50_us("serve.append_event.x64") / EVENTS as f64);
        out.layer("train.pump_ms", tracer.p50_us("train.pump") / 1e3);
    }
    fixture::summarise(&mut out, untraced, traced);

    if opts.trace {
        replay(&mut fx, next, &mut tracer, &mut out);
        crate::finish_trace("online", &tracer, &mut out);
    }
    out
}

/// After the last round the hot-swapped engine must answer exactly like a
/// cold engine built on the last published snapshot, for 8 users.
fn check_hot_equals_cold(fx: &Fixture, out: &mut Outcome) {
    let Some(snapshot) = fx.trainer.latest_snapshot() else {
        out.fail("online: no snapshot was ever published");
        return;
    };
    let cold = Engine::new_frozen(fx.trainer.frozen_for(snapshot), LAYOUT, fixture::engine_cfg())
        .expect("valid");
    for u in 0..8u32 {
        out.attempted += 1;
        for item in fx.engine.history(u).expect("user in layout") {
            cold.append_event(u, item).expect("ids in layout");
        }
        let cands = fx.cands[..CANDIDATES].to_vec();
        let hot = fx.engine.score_stored(u, cands.clone());
        let want = cold.score_stored(u, cands);
        out.check(matches!((&hot, &want), (Ok(h), Ok(w)) if fixture::same_bits(h, w)), || {
            format!("online: hot-swapped engine differs from a cold one for user {u}")
        });
    }
}

/// The layer replay: rounds executed with the pump taken apart —
/// `append_event` ×64 → `EventLog::drain_into` → `OnlineTrainer::ingest` →
/// `frozen_for` → `publish_frozen` → `wait_for_index` — then the online
/// trainer's own step (batch 16, sparse Adam) through `data`/`autograd`/`nn`.
fn replay(fx: &mut Fixture, first_round: usize, tracer: &mut Tracer, out: &mut Outcome) {
    let steps_before = fx.trainer.steps();
    let mut publishes = 0usize;
    let mut drained = Vec::new();
    let mut reused = Vec::new();
    for round in first_round..first_round + REPLAY_ROUNDS {
        let id = round as u32;
        let r = tracer.begin("replay", id);
        let s = tracer.begin("serve.append_event.x64", id);
        for i in 0..EVENTS {
            let (u, item) = fx.round_events(round)[i];
            fx.engine.append_event(u, item).expect("ids in layout");
        }
        tracer.end(s);
        let s = tracer.begin("serve.event_log.drain", id);
        drained.clear();
        fx.engine.event_log().expect("log attached").drain_into(&mut drained);
        tracer.end(s);
        let s = tracer.begin("train.ingest", id);
        let snapshots = fx.trainer.ingest(&drained);
        tracer.end(s);
        for snap in &snapshots {
            let s = tracer.begin("core.freeze", id);
            let model = fx.trainer.frozen_for(snap);
            tracer.end(s);
            let s = tracer.begin("serve.publish", id);
            fx.engine.publish_frozen(model);
            tracer.end(s);
            let s = tracer.begin("serve.index_settle", id);
            let index = fx.engine.wait_for_index().expect("index attached");
            tracer.end(s);
            reused.push(index.delta_reused_blocks() as f64 / index.n_blocks() as f64);
            publishes += 1;
        }
        tracer.end(r);
    }

    let replay_steps = fx.trainer.steps() - steps_before;

    // A delta rebuild alone, off the builder thread: the settled index
    // re-anchored on the model it already serves plus one more step.
    let index = fx.engine.wait_for_index().expect("index attached");
    let next_model = {
        let events: Vec<(u32, u32)> = fx.round_events(first_round + REPLAY_ROUNDS).to_vec();
        let snaps = fx.trainer.ingest(&events);
        Arc::new(fx.trainer.frozen_for(snaps.last().expect("64 events cross a publish")))
    };
    let rebuild_us = harness::p50_us(1, 9, || {
        std::hint::black_box(index.rebuild_for(Arc::clone(&next_model)).n_blocks());
    });

    // `history_view` under the newest model: what every first request after
    // a publish pays.
    let mut scratch = Scratch::new();
    let views_us = {
        let mut samples = Vec::new();
        for u in 0..64u32 {
            let hist = fx.engine.history(u).expect("user in layout");
            let row = fixture::padded_row(&hist);
            let (_, s) = harness::time_s(|| next_model.history_view(&row, &mut scratch));
            samples.push(s * 1e6);
        }
        harness::median(&mut samples)
    };

    out.layer("train.steps", replay_steps as f64);
    out.layer("train.publishes", publishes as f64);
    out.layer("train.ingest_us_per_event", tracer.p50_us("train.ingest") / EVENTS as f64);
    out.layer("core.freeze_us", tracer.p50_us("core.freeze"));
    out.layer("serve.publish_us", tracer.p50_us("serve.publish"));
    out.layer("serve.index_settle_ms", tracer.p50_us("serve.index_settle") / 1e3);
    out.layer("retrieval.rebuild_ms", rebuild_us / 1e3);
    out.layer("retrieval.delta_reused_share", harness::mean(&reused));
    out.layer("core.history_view_us", views_us);

    let mut rng = fixture::rng(0, fixture::STREAM_PROBE);
    let samples: Vec<BprSample> = (0..BATCH * 64)
        .map(|_| {
            let user = rng.gen_range(0..LAYOUT.n_users as u32);
            BprSample {
                user,
                pos: rng.gen_range(0..LAYOUT.n_items as u32),
                neg: rng.gen_range(0..LAYOUT.n_items as u32),
                history: fx.engine.history(user).expect("user in layout"),
            }
        })
        .collect();
    let (model, mut ps) = fixture::build_model(0, &LAYOUT);
    layers::bpr_replay("replay.step", &model, &mut ps, &LAYOUT, &samples, BATCH, true, tracer, out);
}
