//! Cross-crate guarantees of the stateful serving path — the engine-owned
//! [`HistoryStore`] and the incremental [`ViewCache`] on top of it:
//!
//! 1. **Parity** — a `(user, candidates)` stored-history request scores
//!    *bit-identically* to the same request with the history inlined, for
//!    the frozen fast path and the graph compatibility path alike — on a
//!    cold cache, on a warm cache, and **immediately after an append**
//!    (version-keyed lazy invalidation must never serve a stale panel).
//! 2. **Concurrency** — appends and stored-history scores racing from many
//!    threads never corrupt a window: every response equals the serial
//!    score of *some* valid prefix-window of that user's appends.
//! 3. **Bounded windows** — the per-user ring keeps exactly the most recent
//!    `max_seq` events through arbitrary traffic, and bulk
//!    warm-up ([`Engine::warm_histories`]) matches event-by-event appends.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqfm_autograd::ParamStore;
use seqfm_core::{FrozenSeqFm, GraphScorer, Scorer, Scratch, SeqFm, SeqFmConfig};
use seqfm_data::{Dataset, Event, FeatureLayout};
use seqfm_serve::{score_request, Engine, EngineConfig, HistoryStore, ScoreRequest, ServeError};
use std::sync::Arc;

const MAX_SEQ: usize = 6;

fn layout() -> FeatureLayout {
    FeatureLayout { n_users: 9, n_items: 25 }
}

fn model(seed: u64) -> (SeqFm, ParamStore) {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SeqFmConfig { d: 8, max_seq: MAX_SEQ, ..Default::default() };
    let model = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
    (model, ps)
}

fn assert_bits(got: &seqfm_serve::ScoreResponse, want: &seqfm_serve::ScoreResponse, ctx: &str) {
    assert_eq!(got.ranked.len(), want.ranked.len(), "{ctx}: length");
    for (g, w) in got.ranked.iter().zip(&want.ranked) {
        assert_eq!(g.item, w.item, "{ctx}: item order");
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{ctx}: score bits ({} vs {})",
            g.score,
            w.score
        );
    }
}

/// The tentpole acceptance check: stored-history scoring — cold cache, warm
/// cache, and immediately after `append_event` — is bit-identical to fresh
/// inline scoring, for both scorer kinds.
#[test]
fn stored_scoring_tracks_appends_bit_identically_for_both_scorers() {
    let l = layout();
    let (m1, p1) = model(71);
    let (m2, p2) = model(71);
    let frozen: Arc<dyn Scorer + Send + Sync> = Arc::new(FrozenSeqFm::freeze(&m1, &p1));
    let graph: Arc<dyn Scorer + Send + Sync> = Arc::new(GraphScorer::new(m2, p2));
    for (name, scorer) in [("frozen", frozen), ("graph", graph)] {
        let engine = Engine::new(
            Arc::clone(&scorer),
            l,
            EngineConfig::builder().max_seq(MAX_SEQ).build().expect("valid"),
        )
        .expect("valid");
        let mut inline_hist: Vec<u32> = Vec::new();
        let mut scratch = Scratch::new();
        // Interleave appends and scores: every score must see exactly the
        // events appended so far (windowed), never a cached stale panel.
        for (step, item) in [3u32, 11, 7, 24, 0, 7, 19, 2, 13].into_iter().enumerate() {
            engine.append_event(4, item).expect("valid ids");
            inline_hist.push(item);
            let candidates: Vec<u32> = (0..5).map(|c| (c * 3 + step as u32) % 25).collect();
            let got = engine.score_stored(4, candidates.clone()).expect("valid");
            let want = score_request(
                &*scorer,
                &l,
                MAX_SEQ,
                0,
                &ScoreRequest::inline(4, inline_hist.clone(), candidates.clone()),
                &mut scratch,
            )
            .expect("valid");
            assert_bits(&got, &want, &format!("{name} step {step} (post-append)"));
            // Re-score without an intervening append: the warm-cache path
            // (a hit for the frozen scorer) must give the same bits.
            let again = engine.score_stored(4, candidates).expect("valid");
            assert_bits(&again, &want, &format!("{name} step {step} (warm cache)"));
        }
        let stats = engine.cache_stats();
        if name == "frozen" {
            assert!(stats.hits >= 9, "frozen re-scores must hit the view cache: {stats:?}");
        } else {
            // The graph scorer builds no views; the cache never populates.
            assert_eq!(stats.entries, 0, "graph scorer must not cache views: {stats:?}");
        }
    }
}

#[test]
fn concurrent_appends_and_stored_scores_stay_consistent() {
    let l = layout();
    let (m, p) = model(83);
    let frozen = Arc::new(FrozenSeqFm::freeze(&m, &p));
    let cfg = EngineConfig::builder()
        .threads(3)
        .max_seq(MAX_SEQ)
        .queue_capacity(512)
        .build()
        .expect("valid");
    let engine = Engine::new(Arc::clone(&frozen), l, cfg).expect("valid");
    const APPENDS: usize = 60;
    // Writers append a known per-user sequence while readers score the same
    // users through the store. Each response must equal the serial score of
    // some prefix of the writer's sequence — the store can lag a racing
    // reader, but it can never interleave garbage.
    std::thread::scope(|s| {
        for user in 0..3u32 {
            let engine = &engine;
            s.spawn(move || {
                for k in 0..APPENDS {
                    let item = ((user as usize * APPENDS + k) % 25) as u32;
                    engine.append_event(user, item).expect("valid ids");
                }
            });
        }
        for user in 0..3u32 {
            let engine = &engine;
            let frozen = Arc::clone(&frozen);
            s.spawn(move || {
                let mut scratch = Scratch::new();
                let candidates = vec![1u32, 8, 20];
                // Every possible prefix-window of this user's append
                // sequence, pre-scored serially for comparison.
                let mut by_prefix = Vec::with_capacity(APPENDS + 1);
                for n in 0..=APPENDS {
                    let hist: Vec<u32> = (n.saturating_sub(MAX_SEQ)..n)
                        .map(|k| ((user as usize * APPENDS + k) % 25) as u32)
                        .collect();
                    let want = score_request(
                        &*frozen,
                        &layout(),
                        MAX_SEQ,
                        0,
                        &ScoreRequest::inline(user, hist, candidates.clone()),
                        &mut scratch,
                    )
                    .expect("valid");
                    by_prefix.push(want);
                }
                for round in 0..40 {
                    let got = engine.score_stored(user, candidates.clone()).expect("valid");
                    let matched = by_prefix.iter().any(|want| {
                        want.ranked.len() == got.ranked.len()
                            && want.ranked.iter().zip(&got.ranked).all(|(w, g)| {
                                w.item == g.item && w.score.to_bits() == g.score.to_bits()
                            })
                    });
                    assert!(
                        matched,
                        "user {user} round {round}: response matches no valid append prefix"
                    );
                }
            });
        }
    });
    // Settled state: every user holds exactly the last MAX_SEQ appends.
    for user in 0..3u32 {
        let want: Vec<u32> = (APPENDS - MAX_SEQ..APPENDS)
            .map(|k| ((user as usize * APPENDS + k) % 25) as u32)
            .collect();
        assert_eq!(engine.history(user).expect("known"), want, "user {user} final window");
    }
}

#[test]
fn warm_histories_matches_event_by_event_appends() {
    let l = layout();
    let (m, p) = model(97);
    let frozen = Arc::new(FrozenSeqFm::freeze(&m, &p));
    let cfg = EngineConfig::builder().max_seq(MAX_SEQ).build().expect("valid");
    let warmed = Engine::new(Arc::clone(&frozen), l, cfg).expect("valid");
    let appended = Engine::new(Arc::clone(&frozen), l, cfg).expect("valid");
    let ev = |item: u32, time: u32| Event { item, time, rating: 1.0 };
    let per_user: Vec<Vec<Event>> = (0..l.n_users)
        .map(|u| (0..(u * 2) as u32).map(|k| ev((u as u32 * 5 + k) % 25, k)).collect())
        .collect();
    let total: usize = per_user.iter().map(Vec::len).sum();
    let ds = Dataset {
        name: "warmup".into(),
        n_users: l.n_users,
        n_items: l.n_items,
        item_cluster: vec![0; l.n_items],
        per_user: per_user.clone(),
    };
    assert_eq!(warmed.warm_histories(&ds).expect("in-layout items"), total);
    for (u, events) in per_user.iter().enumerate() {
        for e in events {
            appended.append_event(u as u32, e.item).expect("valid ids");
        }
        assert_eq!(
            warmed.history(u as u32).expect("known"),
            appended.history(u as u32).expect("known"),
            "user {u}: bulk load diverges from appends"
        );
        // The ring is `max_seq` wide regardless of traffic (up to 16 events).
        assert!(warmed.history(u as u32).expect("known").len() <= MAX_SEQ);
    }
    // And the warmed store serves: stored == inline bits for a loaded user.
    let mut scratch = Scratch::new();
    let user = (l.n_users - 1) as u32;
    let hist = warmed.history(user).expect("known");
    let got = warmed.score_stored(user, vec![0, 9, 24]).expect("valid");
    let want = score_request(
        &*frozen,
        &l,
        MAX_SEQ,
        0,
        &ScoreRequest::inline(user, hist, vec![0, 9, 24]),
        &mut scratch,
    )
    .expect("valid");
    assert_bits(&got, &want, "warmed store serving");
}

#[test]
fn standalone_store_api_is_usable_without_an_engine() {
    // The store is a public subsystem of its own (benchmarks, tooling).
    let store = HistoryStore::new(40, 3);
    assert_eq!((store.n_users(), store.capacity()), (40, 3));
    assert_eq!(store.version(17), 0);
    for item in [5u32, 6, 7, 8] {
        store.append(17, item);
    }
    let (window, version) = store.snapshot(17);
    assert_eq!(window, vec![6, 7, 8], "ring must keep the newest 3");
    assert_eq!(version, 4, "version counts all appends, not just survivors");
    // Stored requests on the store-less helpers fail typed, not silently.
    let (m, p) = model(5);
    let frozen = FrozenSeqFm::freeze(&m, &p);
    let mut scratch = Scratch::new();
    let err = score_request(
        &frozen,
        &layout(),
        MAX_SEQ,
        0,
        &ScoreRequest::stored(1, vec![2]),
        &mut scratch,
    )
    .expect_err("no store attached");
    assert!(matches!(err, ServeError::NoHistoryStore), "got {err:?}");
}
