#![warn(missing_docs)]

//! # seqfm-serve
//!
//! The request-level serving layer on top of `seqfm_core`'s graph-free
//! [`Scorer`](seqfm_core::Scorer) API — the deployment half of the
//! train-with-`forward` / serve-with-`score` split.
//!
//! Sequence-aware recommenders are overwhelmingly served as *"score K
//! candidate items for one user"*, so that request shape is first-class
//! here:
//!
//! * [`ScoreRequest`] — `{ user, history, candidates }`, validated against
//!   the model's [`FeatureLayout`](seqfm_data::FeatureLayout). The history
//!   is a [`HistorySource`]: carried [`Inline`](HistorySource::Inline), or
//!   [`Stored`](HistorySource::Stored) — the engine owns the sequence and
//!   the request is just `(user, candidates)`;
//! * [`HistoryStore`] — the stateful half: a sharded, concurrent,
//!   bounded-per-user ring store of every user's recent events, warmed from
//!   a dataset ([`Engine::warm_histories`]) and kept current by
//!   [`Engine::append_event`]. A [`ViewCache`] memoises the scorer's
//!   history-side panel ([`HistoryView`](seqfm_core::HistoryView)) per
//!   `(user, version)`, so repeat stored-history requests skip the history
//!   half of the forward — bit-identically — and users on the same
//!   canonical window share one view. The engine keeps one cache per
//!   served model, so a view is only ever read by the model that built it;
//! * [`expand_request`] — the candidate-expansion layer: one request becomes
//!   one scoring [`Batch`](seqfm_data::Batch) in which every row shares the
//!   user/history features and only the candidate column varies;
//! * [`score_request`] — expansion + scoring + NaN-safe top-K ranking in one
//!   synchronous call;
//! * [`score_requests`] — the **coalesced** path: many requests scored at
//!   once, with requests sharing a canonical history window — regardless of
//!   user — grouped into one super-batch so the frozen scorer builds (or
//!   borrows) one history row *across* requests and *across users*
//!   (bit-identical to the serial path, per request);
//! * [`Engine`] — a multi-threaded, batch-coalescing scoring engine with
//!   **bounded admission**: the non-blocking [`Engine::submit`] sheds load
//!   with [`ServeError::Overloaded`] once the queue is full (the signal an
//!   async network front door turns into "retry later"), while
//!   [`Engine::submit_wait`] parks on capacity. Each worker wakeup drains
//!   up to `coalesce_max` queued requests and scores them as grouped
//!   super-batches through worker-owned [`CoalesceScratch`] buffers;
//!   replies ride reusable oneshot slots parked **per caller thread** (no
//!   shared free list, no lock on the reply path), so steady-state
//!   submit/wait round trips allocate nothing.
//! * [`Engine::retrieve_top_k`] — full-catalog retrieval: with a
//!   [`CatalogIndex`] attached ([`Engine::with_catalog_index`]), the engine
//!   answers "best k items of the *entire* catalog" for a user's stored
//!   history via `seqfm_retrieval`'s blocked, upper-bound-pruned scan,
//!   sharing the [`ViewCache`] with the scoring path;
//! * **online learning & hot-swap** — the model is a *versioned* resource:
//!   [`Engine::publish_frozen`] atomically swaps in a freshly trained
//!   [`FrozenSeqFm`](seqfm_core::FrozenSeqFm), stamped with its
//!   [`ModelEpoch`](seqfm_core::ModelEpoch), without pausing serving. Each
//!   swap installs one revision: the model, the catalog index rebuilt for
//!   it before the swap (so retrieval always scans an index of the served
//!   model) and an empty [`ViewCache`] of its own (so no old-model panel is
//!   read again). In-flight super-batches finish on the revision they
//!   pinned, and an optional [`EventLog`] ([`Engine::with_event_log`])
//!   streams appended events to an online trainer. Retrieval and publish
//!   exist only on the default `Engine<FrozenSeqFm>`.
//!
//! ## Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use seqfm_autograd::ParamStore;
//! use seqfm_core::{FrozenSeqFm, SeqFm, SeqFmConfig};
//! use seqfm_data::FeatureLayout;
//! use seqfm_serve::{Engine, EngineConfig, ScoreRequest, ServeError};
//! use std::sync::Arc;
//!
//! let layout = FeatureLayout { n_users: 10, n_items: 20 };
//! let mut ps = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = SeqFmConfig { d: 8, max_seq: 5, ..Default::default() };
//! let model = SeqFm::new(&mut ps, &mut rng, &layout, cfg);
//!
//! // Freeze for serving, then stand up a 2-thread engine with a small
//! // admission queue and coalescing enabled (the defaults).
//! let frozen = Arc::new(FrozenSeqFm::freeze(&model, &ps));
//! let engine = Engine::new(
//!     frozen,
//!     layout,
//!     EngineConfig::builder().threads(2).max_seq(5).top_k(3).build().expect("valid config"),
//! )
//! .expect("valid engine config");
//!
//! // The engine owns the histories: feed it events, then requests are just
//! // (user, candidates).
//! engine.append_event(3, 1).expect("known ids");
//! engine.append_event(3, 4).expect("known ids");
//! engine.append_event(3, 2).expect("known ids");
//! let resp = engine.score_stored(3, vec![7, 9, 11, 0]).expect("valid request");
//! assert_eq!(resp.ranked.len(), 3); // top-3 of 4 candidates
//!
//! // Inline histories still work (stateless callers, replay tooling) and
//! // score bit-identically to the stored path:
//! let inline = engine
//!     .score(ScoreRequest::inline(3, vec![1, 4, 2], vec![7, 9, 11, 0]))
//!     .expect("valid request");
//! assert_eq!(inline, resp);
//!
//! // The non-blocking front door either admits or sheds explicitly:
//! match engine.submit(ScoreRequest::inline(1, vec![2], vec![5, 6])) {
//!     Ok(pending) => {
//!         let resp = pending.wait().expect("valid request");
//!         assert_eq!(resp.ranked.len(), 2);
//!     }
//!     Err(ServeError::Overloaded { capacity, req }) => {
//!         // queue full — the request comes back untouched; shed it,
//!         // retry later, or fall back to engine.submit_wait(*req)
//!         let _ = (capacity, req);
//!     }
//!     Err(other) => panic!("unexpected: {other}"),
//! }
//! ```

mod engine;
mod error;
mod request;
mod store;

pub use engine::{Engine, EngineConfig, EngineConfigBuilder, EventLog, PendingResponse};
pub use error::ServeError;
pub use request::{
    expand_request, score_request, score_requests, score_requests_stateful, score_requests_with,
    CoalesceScratch, HistorySource, ScoreRequest, ScoreResponse, ScoredCandidate,
};
pub use store::{CacheStats, HistoryBackend, HistoryStore, ViewCache};
// Full-catalog retrieval rides the serving layer's history state: attach a
// `CatalogIndex` with `Engine::with_catalog_index`, then
// `Engine::retrieve_top_k` answers "best k of the whole catalog" over the
// user's stored history. Re-exported so engine callers need not name
// `seqfm_retrieval` separately.
pub use seqfm_retrieval::{CatalogIndex, Retrieval, ScoredItem as RetrievedItem};
