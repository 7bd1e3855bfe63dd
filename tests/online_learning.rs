//! End-to-end contracts of the online-learning loop: versioned epochs
//! threading from the incremental trainer through the engine's atomic
//! hot-swap into each revision's own view cache and catalog index.
//!
//! The properties under test:
//!
//! * **hot-swap correctness** — after `publish_frozen`, a warm engine
//!   (whose old revision cached views) serves the new model bit-identically
//!   to a cold engine built directly on it. This is the regression test for
//!   the per-revision view cache: a cache shared across revisions would
//!   replay the *old* model's history panels into post-swap scores.
//! * **swap-under-load atomicity** — while models swap mid-traffic, every
//!   response is bit-identical to a single-epoch rescore under the epoch it
//!   reports; no response ever mixes revisions.
//! * **one index per revision** — a publish re-anchors the catalog index on
//!   the new model before its swap, so retrieval right after `publish` (or
//!   `publish_frozen`) returns already scans the new model's index; the
//!   incrementally rebuilt index (`CatalogIndex::rebuild_for`), brute force
//!   and a from-scratch index all return the same bits; a rebuild that
//!   panics does so on the publisher and leaves the served revision as it
//!   was.
//! * **rollback** — republishing a retained epoch restores its serving
//!   behaviour exactly, original epoch stamp included.
//! * **reduced precision** — a `Fast` model quantised by the caller is
//!   served at `Fast`, attached index included; post-swap responses match a
//!   direct reduced-precision rescore.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_core::{Ablation, FrozenSeqFm, ModelEpoch, ScorerPrecision, Scratch, SeqFm, SeqFmConfig};
use seqfm_data::FeatureLayout;
use seqfm_serve::{
    score_request, CatalogIndex, Engine, EngineConfig, Retrieval, ScoreRequest, ScoreResponse,
};
use seqfm_train::{OnlineConfig, OnlineTrainer};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const MAX_SEQ: usize = 6;

fn layout() -> FeatureLayout {
    FeatureLayout { n_users: 6, n_items: 40 }
}

fn build_model(seed: u64) -> (SeqFm, ParamStore) {
    let cfg = SeqFmConfig {
        d: 8,
        max_seq: MAX_SEQ,
        dropout: 0.5,
        ablation: Ablation::default(),
        ..Default::default()
    };
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
    (model, ps)
}

fn online_cfg() -> OnlineConfig {
    OnlineConfig { batch_size: 4, publish_every: 2, max_seq: MAX_SEQ, ..Default::default() }
}

fn engine_cfg() -> EngineConfig {
    EngineConfig::builder().threads(2).max_seq(MAX_SEQ).build().expect("valid config")
}

/// A deterministic synthetic event stream over the test layout.
fn stream(n: usize) -> Vec<(u32, u32)> {
    (0..n).map(|i| ((i % 6) as u32, ((i * 7 + 3) % 40) as u32)).collect()
}

fn assert_responses_bit_identical(a: &ScoreResponse, b: &ScoreResponse, what: &str) {
    assert_eq!(a.epoch, b.epoch, "{what}: epochs differ");
    assert_eq!(a.ranked.len(), b.ranked.len(), "{what}: lengths differ");
    for (ra, rb) in a.ranked.iter().zip(&b.ranked) {
        assert_eq!(ra.item, rb.item, "{what}: items differ");
        assert_eq!(
            ra.score.to_bits(),
            rb.score.to_bits(),
            "{what}: score bits differ on item {} ({} vs {})",
            ra.item,
            ra.score,
            rb.score
        );
    }
}

fn assert_retrievals_bit_identical(a: &Retrieval, b: &Retrieval, what: &str) {
    assert_eq!(a.items.len(), b.items.len(), "{what}: lengths differ");
    for (rank, (ia, ib)) in a.items.iter().zip(&b.items).enumerate() {
        assert_eq!(ia.item, ib.item, "{what}: item diverges at rank {rank}");
        assert_eq!(
            ia.score.to_bits(),
            ib.score.to_bits(),
            "{what}: score bits diverge at rank {rank} (item {})",
            ia.item
        );
    }
}

/// Hot-swap + per-revision view cache: a warm engine that scored (and
/// cached) under the old model must, after `publish_frozen`, serve the new
/// model bit-identically to a cold engine built directly on it — the old
/// revision's cached history panels may never leak into the new revision's
/// scores, and the response's epoch stamp must advance.
#[test]
fn hot_swap_serves_the_new_model_bit_for_bit_vs_a_cold_engine() {
    let (model, ps) = build_model(3);
    let frozen = FrozenSeqFm::freeze(&model, &ps);
    let engine =
        Engine::new_frozen(frozen, layout(), engine_cfg()).expect("valid").with_event_log();

    let events = stream(8);
    for &(u, i) in &events {
        engine.append_event(u, i).expect("known ids");
    }
    let candidates: Vec<u32> = vec![7, 9, 11, 0, 33];
    // Warm the view cache under the initial (ZERO) epoch for every user.
    for u in 0..6 {
        let r = engine.score_stored(u, candidates.clone()).expect("valid");
        assert_eq!(r.epoch, ModelEpoch::ZERO);
    }

    // One pump: 8 logged events = 2 minibatches of 4 = 1 published epoch.
    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let published = trainer.pump(&engine);
    assert_eq!(published, vec![ModelEpoch(1)], "8 events publish exactly e1");
    assert_eq!(engine.current_epoch(), ModelEpoch(1));

    // Cold reference: a fresh engine on the published model with the same
    // histories and a never-used cache.
    let cold = Engine::new_frozen(
        trainer.frozen_for(trainer.latest_snapshot().expect("published")),
        layout(),
        engine_cfg(),
    )
    .expect("valid");
    for &(u, i) in &events {
        cold.append_event(u, i).expect("known ids");
    }

    for u in 0..6 {
        let warm = engine.score_stored(u, candidates.clone()).expect("valid");
        let fresh = cold.score_stored(u, candidates.clone()).expect("valid");
        assert_eq!(warm.epoch, ModelEpoch(1), "post-swap responses carry the new epoch");
        assert_responses_bit_identical(&warm, &fresh, &format!("user {u} post-swap"));
    }
}

/// Swap-under-load: scoring threads hammer the engine while the main
/// thread publishes a sequence of epochs. Every response must be
/// bit-identical to a single-epoch rescore under the epoch it reports —
/// the engine may serve an older or newer revision at any instant, but
/// never a mixture.
#[test]
fn swap_under_load_every_response_is_single_epoch_consistent() {
    let (model, ps) = build_model(3);
    let initial = Arc::new(FrozenSeqFm::freeze(&model, &ps));

    // Pre-train the revision sequence so every epoch's exact bits are known.
    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&stream(32)); // e1..e4
    let mut by_epoch: HashMap<u64, Arc<FrozenSeqFm>> = HashMap::new();
    by_epoch.insert(0, Arc::clone(&initial));
    for snap in &snapshots {
        by_epoch.insert(snap.epoch().get(), Arc::new(trainer.frozen_for(snap)));
    }

    let cfg =
        EngineConfig::builder().threads(3).max_seq(MAX_SEQ).top_k(4).build().expect("valid config");
    let engine = Arc::new(Engine::new(Arc::clone(&initial), layout(), cfg).expect("valid"));

    // Inline-history requests so any response can be rescored exactly later
    // regardless of when stores/appends happened around it.
    let make_req = |t: usize, i: usize| {
        let hist: Vec<u32> = (0..4).map(|j| ((i * 5 + j * 3 + t) % 40) as u32).collect();
        let cands: Vec<u32> = (0..6).map(|c| ((c * 7 + i) % 40) as u32).collect();
        ScoreRequest::inline(((t + i) % 6) as u32, hist, cands)
    };

    let scorers: Vec<_> = (0..2)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut out: Vec<(ScoreRequest, ScoreResponse)> = Vec::new();
                for i in 0..150 {
                    let req = make_req(t, i);
                    let resp = engine.score(req.clone()).expect("valid request");
                    out.push((req, resp));
                }
                out
            })
        })
        .collect();

    // Publish every revision (including re-publishing older ones — the
    // slot is last-write-wins, not monotone) while traffic is in flight.
    for snap in &snapshots {
        let m = &by_epoch[&snap.epoch().get()];
        engine.publish(Arc::clone(m));
        std::thread::yield_now();
    }
    engine.publish(Arc::clone(&by_epoch[&snapshots[0].epoch().get()]));
    engine.publish(Arc::clone(&by_epoch[&snapshots.last().expect("published").epoch().get()]));

    let mut checked = 0usize;
    let mut scratch = Scratch::new();
    for h in scorers {
        for (req, resp) in h.join().expect("scorer thread") {
            let model = by_epoch
                .get(&resp.epoch.get())
                .unwrap_or_else(|| panic!("response under unknown epoch {}", resp.epoch));
            let reference =
                score_request(model.as_ref(), &layout(), MAX_SEQ, 4, &req, &mut scratch)
                    .expect("valid request");
            assert_responses_bit_identical(&resp, &reference, "under-load response");
            checked += 1;
        }
    }
    assert_eq!(checked, 300);
}

/// Rebuild parity: an index built for the old epoch and rebuilt for the
/// *new* model must match a from-scratch index on the new model, and so
/// must that index's brute-force scan — same items, same logit bits. This
/// is the soundness test for `CatalogIndex::rebuild_for`'s reuse of old
/// block membership.
#[test]
fn rebuilt_index_matches_a_fresh_build_and_its_brute_scan() {
    let (model, ps) = build_model(9);
    let old = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&stream(16)); // e1, e2
    let new = Arc::new(trainer.frozen_for(snapshots.last().expect("published")));

    let index_old = CatalogIndex::build(Arc::clone(&old), layout(), 16);
    let rebuilt = index_old.rebuild_for(Arc::clone(&new));
    let fresh = CatalogIndex::build(Arc::clone(&new), layout(), 16);

    let mut scratch = Scratch::new();
    for (user, hist) in [(1u32, vec![2i64, 9, 31]), (4, vec![seqfm_data::PAD, 5, 5, 17, 8, 0])] {
        let mut row = vec![seqfm_data::PAD; MAX_SEQ - hist.len()];
        row.extend(&hist);
        let view = new.history_view(&row, &mut scratch);
        let brute = fresh.retrieve_brute(user, &view, 10).expect("valid retrieval");
        let via_rebuilt = rebuilt.retrieve(user, &view, 10).expect("valid retrieval");
        let via_fresh = fresh.retrieve(user, &view, 10).expect("valid retrieval");
        assert_retrievals_bit_identical(&brute, &via_fresh, "brute force vs fresh index");
        assert_retrievals_bit_identical(&via_rebuilt, &via_fresh, "rebuilt index vs fresh index");
    }
}

/// Engine-level index swap: after `publish_frozen`, `retrieve_top_k` must
/// match a cold engine whose index was built from scratch for the new
/// model — the incremental rebuild and the old revision's cached views are
/// invisible in the output.
#[test]
fn engine_retrieval_after_publish_matches_a_cold_engine_on_the_new_model() {
    let (model, ps) = build_model(5);
    let old = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let engine = Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), layout(), engine_cfg())
        .expect("valid")
        .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&old), layout(), 16)));

    let events = stream(16);
    for &(u, i) in &events {
        engine.append_event(u, i).expect("known ids");
    }
    // Warm retrieval views under the old epoch.
    engine.retrieve_top_k(2, 5).expect("valid retrieval");

    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&events);
    let published = engine.publish_frozen(trainer.frozen_for(snapshots.last().expect("some")));
    assert_eq!(published, engine.current_epoch());
    let index = engine.catalog_index().expect("attached");
    assert_eq!(
        index.model().epoch(),
        published,
        "publish_frozen rebuilds the index for the new epoch"
    );

    let new = Arc::new(trainer.frozen_for(snapshots.last().expect("some")));
    let cold = Engine::new_frozen(
        trainer.frozen_for(snapshots.last().expect("some")),
        layout(),
        engine_cfg(),
    )
    .expect("valid")
    .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&new), layout(), 16)));
    for &(u, i) in &events {
        cold.append_event(u, i).expect("known ids");
    }

    for user in 0..6 {
        let warm = engine.retrieve_top_k(user, 5).expect("valid retrieval");
        let fresh = cold.retrieve_top_k(user, 5).expect("valid retrieval");
        assert_retrievals_bit_identical(&warm, &fresh, &format!("user {user} post-swap"));
    }
}

/// No state survives a rebuild: an index walked through a whole chain of
/// published epochs equals — block counters included — the same index
/// rebuilt once for the final epoch, and both retrieve bit-identically to a
/// from-scratch build on the final model and to brute force. A rebuilt
/// index depends on `(order, model)` alone.
#[test]
fn rebuild_chain_is_path_independent_and_matches_a_fresh_build() {
    let (model, ps) = build_model(11);
    let old = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&stream(32)); // e1..e4
    assert!(snapshots.len() >= 3, "need a chain of epochs");

    let base = CatalogIndex::build(Arc::clone(&old), layout(), 8);
    let mut chain = base.rebuild_for(Arc::new(trainer.frozen_for(&snapshots[0])));
    for snap in &snapshots[1..] {
        chain = chain.rebuild_for(Arc::new(trainer.frozen_for(snap)));
    }
    let last = Arc::new(trainer.frozen_for(snapshots.last().expect("some")));
    let direct = base.rebuild_for(Arc::clone(&last));
    let fresh = CatalogIndex::build(Arc::clone(&last), layout(), 8);
    assert_eq!(chain.delta_reused_blocks(), 0, "no rebuild reuses an envelope");

    let mut scratch = Scratch::new();
    for (user, hist) in [(0u32, vec![3i64, 12, 9]), (5, vec![30i64, 1, 1, 22])] {
        let mut row = vec![seqfm_data::PAD; MAX_SEQ - hist.len()];
        row.extend(&hist);
        let view = last.history_view(&row, &mut scratch);
        let via_chain = chain.retrieve(user, &view, 12).expect("valid retrieval");
        let via_direct = direct.retrieve(user, &view, 12).expect("valid retrieval");
        let via_fresh = fresh.retrieve(user, &view, 12).expect("valid retrieval");
        let brute = fresh.retrieve_brute(user, &view, 12).expect("valid retrieval");
        assert_eq!(via_chain, via_direct, "user {user}: the publish path left state behind");
        assert_retrievals_bit_identical(&via_chain, &via_fresh, "chain vs fresh build");
        assert_retrievals_bit_identical(&via_chain, &brute, "chain vs brute force");
    }
}

/// `user`'s stored window in the engine as the canonical padded row.
fn stored_row(engine: &Engine, user: u32) -> Vec<i64> {
    let items = engine.history(user).expect("known user");
    let mut row: Vec<i64> = vec![seqfm_data::PAD; MAX_SEQ - items.len().min(MAX_SEQ)];
    row.extend(items[items.len() - items.len().min(MAX_SEQ)..].iter().map(|&it| it as i64));
    row
}

/// One index per revision: the moment `publish_frozen` returns — no wait —
/// the served revision's index is built for the published epoch, and
/// `retrieve_top_k` returns a fresh index's exact answer on the new model.
#[test]
fn retrieval_right_after_publish_frozen_scans_the_new_models_index() {
    let (model, ps) = build_model(13);
    let old = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let engine = Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), layout(), engine_cfg())
        .expect("valid")
        .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&old), layout(), 16)));
    let events = stream(16);
    for &(u, i) in &events {
        engine.append_event(u, i).expect("known ids");
    }
    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&events);
    let new = Arc::new(trainer.frozen_for(snapshots.last().expect("some")));
    let reference = CatalogIndex::build(Arc::clone(&new), layout(), 16);

    engine.publish_frozen(trainer.frozen_for(snapshots.last().expect("some")));
    let index = engine.catalog_index().expect("attached");
    assert_eq!(index.model().epoch(), engine.current_epoch());
    let got = engine.retrieve_top_k(4, 8).expect("valid retrieval");
    let view = new.history_view(&stored_row(&engine, 4), &mut Scratch::new());
    let want = reference.retrieve(4, &view, 8).expect("valid retrieval");
    assert_retrievals_bit_identical(&got, &want, "retrieval right after publish");
}

/// The generic `publish` of an `Arc<FrozenSeqFm>` re-anchors the attached
/// index too: retrieval after it answers under the new model, bit for bit
/// a fresh index's answer, not under the model the index was built with.
#[test]
fn generic_publish_of_a_frozen_model_re_anchors_the_index() {
    let (model, ps) = build_model(5);
    let old = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let engine = Engine::new(Arc::clone(&old), layout(), engine_cfg())
        .expect("valid")
        .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&old), layout(), 16)));
    let events = stream(16);
    for &(u, i) in &events {
        engine.append_event(u, i).expect("known ids");
    }
    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&events);
    let new = Arc::new(trainer.frozen_for(snapshots.last().expect("some")));
    let published = engine.publish(Arc::clone(&new));

    let index = engine.catalog_index().expect("attached");
    assert!(Arc::ptr_eq(index.model(), &new), "the index scores with the published model");
    assert_eq!(index.model().epoch(), published);
    let reference = CatalogIndex::build(Arc::clone(&new), layout(), 16);
    let mut scratch = Scratch::new();
    for user in 0..6 {
        let got = engine.retrieve_top_k(user, 5).expect("valid retrieval");
        let view = new.history_view(&stored_row(&engine, user), &mut scratch);
        let want = reference.retrieve(user, &view, 5).expect("valid retrieval");
        assert_retrievals_bit_identical(&got, &want, &format!("user {user} after publish"));
    }
}

/// Publishes racing retrievals: a retrieval loop runs while the main
/// thread publishes a whole chain of epochs back to back. Every retrieval
/// must be bit-identical to some published epoch's exact answer, and the
/// index must end on the final epoch.
#[test]
fn rapid_publishes_mid_retrieve_stay_single_epoch_exact_and_settle_on_the_last() {
    let (model, ps) = build_model(17);
    let initial = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let engine = Arc::new(
        Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), layout(), engine_cfg())
            .expect("valid")
            .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&initial), layout(), 16))),
    );
    let events = stream(32);
    for &(u, i) in &events {
        engine.append_event(u, i).expect("known ids");
    }
    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&events); // e1..e4

    // Exact per-epoch references for user 2's current stored history.
    let items = engine.history(2).expect("known user");
    let mut row: Vec<i64> = vec![seqfm_data::PAD; MAX_SEQ - items.len().min(MAX_SEQ)];
    row.extend(items[items.len() - items.len().min(MAX_SEQ)..].iter().map(|&it| it as i64));
    let mut scratch = Scratch::new();
    let mut references: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut epoch_models = vec![Arc::clone(&initial)];
    for snap in &snapshots {
        epoch_models.push(Arc::new(trainer.frozen_for(snap)));
    }
    for m in &epoch_models {
        let view = m.history_view(&row, &mut scratch);
        let reference = CatalogIndex::build(Arc::clone(m), layout(), 16)
            .retrieve(2, &view, 6)
            .expect("valid retrieval");
        references.push(reference.items.iter().map(|s| (s.item, s.score.to_bits())).collect());
    }

    let retriever = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            (0..40)
                .map(|_| {
                    let r = engine.retrieve_top_k(2, 6).expect("valid retrieval");
                    r.items.iter().map(|s| (s.item, s.score.to_bits())).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        })
    };
    for snap in &snapshots {
        engine.publish_frozen(trainer.frozen_for(snap));
        std::thread::yield_now();
    }
    let observed = retriever.join().expect("retriever thread");
    for (i, got) in observed.iter().enumerate() {
        assert!(
            references.iter().any(|want| want == got),
            "retrieval {i} matches no published epoch's exact answer"
        );
    }
    let settled = engine.catalog_index().expect("attached");
    assert_eq!(
        settled.model().epoch(),
        snapshots.last().expect("some").epoch(),
        "coalescing publishes must settle the index on the newest epoch"
    );
}

/// Rollback published right after a newer epoch: latest wins — the index
/// must end on the *rolled-back* epoch, and serve its exact bits.
#[test]
fn rollback_mid_rebuild_settles_the_index_on_the_rolled_back_epoch() {
    let (model, ps) = build_model(19);
    let initial = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let engine = Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), layout(), engine_cfg())
        .expect("valid")
        .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&initial), layout(), 16)));
    for &(u, i) in &stream(24) {
        engine.append_event(u, i).expect("known ids");
    }
    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&stream(24)); // e1..e3
    assert!(snapshots.len() >= 3);

    // Publish the newest epoch, then roll straight back to e2 without
    // letting the first rebuild settle.
    engine.publish_frozen(trainer.frozen_for(snapshots.last().expect("some")));
    let rolled = trainer.rollback_to(ModelEpoch(2)).expect("retained");
    assert_eq!(engine.publish_frozen(rolled), ModelEpoch(2));

    let settled = engine.catalog_index().expect("attached");
    assert_eq!(settled.model().epoch(), ModelEpoch(2), "latest publish wins the index");

    let e2 = Arc::new(trainer.frozen_for(&snapshots[1]));
    assert_eq!(e2.epoch(), ModelEpoch(2));
    let reference = CatalogIndex::build(Arc::clone(&e2), layout(), 16);
    let items = engine.history(3).expect("known user");
    let mut row: Vec<i64> = vec![seqfm_data::PAD; MAX_SEQ - items.len().min(MAX_SEQ)];
    row.extend(items[items.len() - items.len().min(MAX_SEQ)..].iter().map(|&it| it as i64));
    let mut scratch = Scratch::new();
    let view = e2.history_view(&row, &mut scratch);
    let want = reference.retrieve(3, &view, 7).expect("valid retrieval");
    let got = engine.retrieve_top_k(3, 7).expect("valid retrieval");
    assert_retrievals_bit_identical(&got, &want, "post-rollback retrieval");
}

/// A panicking rebuild panics on the publisher, before the swap. Publishing
/// a model frozen for a *smaller* item layout makes `rebuild_for` index
/// past its tables; the engine must keep serving the previous revision —
/// same epoch, same index, same replies — and still land the next good
/// publish with its index.
#[test]
fn a_panicking_rebuild_panics_on_the_publisher_and_keeps_the_served_revision() {
    let (model, ps) = build_model(23);
    let initial = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let engine = Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), layout(), engine_cfg())
        .expect("valid")
        .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&initial), layout(), 16)));
    let events = stream(16);
    for &(u, i) in &events {
        engine.append_event(u, i).expect("known ids");
    }
    let epoch = engine.current_epoch();
    let index = engine.catalog_index().expect("attached");
    let before = engine.score_stored(4, vec![7, 9, 33]).expect("valid");

    let small = FeatureLayout { n_items: 20, ..layout() };
    let mut small_ps = ParamStore::new();
    let small_model =
        SeqFm::new(&mut small_ps, &mut StdRng::seed_from_u64(23), &small, *model.config());
    let bad = FrozenSeqFm::freeze(&small_model, &small_ps);
    let publish = catch_unwind(AssertUnwindSafe(|| engine.publish_frozen(bad)));
    assert!(publish.is_err(), "a rebuild past the model's tables panics on the publisher");
    assert_eq!(engine.current_epoch(), epoch);
    let kept = engine.catalog_index().expect("attached");
    assert!(Arc::ptr_eq(&kept, &index), "the served revision keeps its index");
    let after = engine.score_stored(4, vec![7, 9, 33]).expect("valid");
    assert_responses_bit_identical(&after, &before, "reply after the failed publish");

    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&events);
    let published = engine.publish_frozen(trainer.frozen_for(snapshots.last().expect("some")));
    let rebuilt = engine.catalog_index().expect("attached");
    assert_eq!(rebuilt.model().epoch(), published, "the next publish still gets its index");
    assert_eq!(engine.score_stored(4, vec![7, 9, 33]).expect("valid").epoch, published);
}

/// Rollback: republishing a retained epoch restores its serving behaviour
/// exactly — same epoch stamp, same bits — even though the trainer (and
/// other epochs) advanced in between.
#[test]
fn rollback_restores_a_prior_epoch_as_served() {
    let (model, ps) = build_model(3);
    let engine = Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), layout(), engine_cfg())
        .expect("valid");
    for &(u, i) in &stream(10) {
        engine.append_event(u, i).expect("known ids");
    }

    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&stream(24)); // e1..e3
    assert_eq!(snapshots.len(), 3);

    // Serve each epoch once, recording what user 2 sees under it.
    let candidates: Vec<u32> = vec![1, 8, 22, 39];
    let mut served: HashMap<u64, ScoreResponse> = HashMap::new();
    for snap in &snapshots {
        let epoch = engine.publish_frozen(trainer.frozen_for(snap));
        served.insert(epoch.get(), engine.score_stored(2, candidates.clone()).expect("valid"));
    }
    assert_eq!(engine.current_epoch(), ModelEpoch(3));

    // Roll back to e2: the original stamp comes back, and the response is
    // bit-identical to what e2 served the first time around.
    let rolled = trainer.rollback_to(ModelEpoch(2)).expect("retained");
    assert_eq!(engine.publish_frozen(rolled), ModelEpoch(2));
    assert_eq!(engine.current_epoch(), ModelEpoch(2));
    let replayed = engine.score_stored(2, candidates.clone()).expect("valid");
    assert_responses_bit_identical(&replayed, &served[&2], "rollback replay");
}

/// The engine serves the model it is handed: a `Fast` model quantised by
/// the caller is served at `Fast` after publish — responses match a direct
/// reduced-precision rescore, not the exact one — and the attached index
/// follows it to `Fast`.
#[test]
fn a_fast_model_published_by_the_caller_is_served_at_fast() {
    let (model, ps) = build_model(3);
    let initial = Arc::new(FrozenSeqFm::freeze(&model, &ps));
    let cfg = EngineConfig::builder().threads(1).max_seq(MAX_SEQ).build().expect("valid config");
    let engine = Engine::new_frozen(FrozenSeqFm::freeze(&model, &ps), layout(), cfg)
        .expect("valid")
        .with_catalog_index(Arc::new(CatalogIndex::build(initial, layout(), 16)));

    let mut trainer = OnlineTrainer::new(model, ps, layout(), online_cfg());
    let snapshots = trainer.ingest(&stream(8));
    let epoch = engine
        .publish_frozen(trainer.frozen_for(&snapshots[0]).with_precision(ScorerPrecision::Fast));
    let index = engine.catalog_index().expect("attached");
    assert_eq!(index.model().precision(), ScorerPrecision::Fast);

    let req = ScoreRequest::inline(1, vec![4, 17, 2], vec![3, 9, 30, 12]);
    let got = engine.score(req.clone()).expect("valid request");
    assert_eq!(got.epoch, epoch);

    let fast = trainer.frozen_for(&snapshots[0]).with_precision(ScorerPrecision::Fast);
    let mut scratch = Scratch::new();
    let want = score_request(&fast, &layout(), MAX_SEQ, 0, &req, &mut scratch).expect("valid");
    assert_responses_bit_identical(&got, &want, "fast-profile post-swap");

    // Sanity: the engine really serves the quantized profile, not exact —
    // the two must differ somewhere on this workload.
    let exact = trainer.frozen_for(&snapshots[0]);
    let want_exact =
        score_request(&exact, &layout(), MAX_SEQ, 0, &req, &mut scratch).expect("valid");
    let any_diff = want
        .ranked
        .iter()
        .zip(&want_exact.ranked)
        .any(|(a, b)| a.item != b.item || a.score.to_bits() != b.score.to_bits());
    assert!(any_diff, "Fast profile should differ from Exact on at least one bit");
}
