#![warn(missing_docs)]

//! # seqfm-train
//!
//! The **online** half of SeqFM training — the loop that keeps a serving
//! deployment's model fresh without ever taking it offline:
//!
//! ```text
//!   Engine::append_event ──▶ EventLog ──▶ OnlineTrainer::ingest
//!        ▲                                      │
//!        │                              freeze_versioned()
//!        │                                      ▼
//!   Engine::publish_frozen ◀── FrozenSeqFm ◀── Arc<FrozenParams> (e1, e2, …)
//! ```
//!
//! [`OnlineTrainer`] consumes the engine's append-event stream (see
//! [`EventLog`](seqfm_serve::EventLog)), folds it into deterministic
//! fixed-size BPR minibatches against *shadow* per-user histories, takes
//! sparse per-row Adam steps (O(batch·d) per event, independent of
//! vocabulary size), and every `publish_every` minibatches freezes a
//! versioned parameter snapshot — a monotone
//! [`ModelEpoch`](seqfm_core::ModelEpoch) — ready for
//! [`Engine::publish_frozen`](seqfm_serve::Engine::publish_frozen)'s atomic
//! hot-swap. A bounded rollback ring keeps the last N published epochs so a
//! bad update can be reverted *as served* — the republished snapshot keeps
//! its original epoch stamp, so its responses name that model again.
//!
//! ## Replay determinism
//!
//! The trainer's entire state is a pure function of `(initial parameters,
//! config, event stream)` — never of how the stream was chunked into
//! [`ingest`](online::OnlineTrainer::ingest) calls, and never of wall-clock
//! or thread scheduling. Replaying a logged event stream offline reproduces
//! the online trajectory — every published snapshot — **bit for bit**, for
//! every Table-V model variant. That is what makes online learning safe to
//! operate: any serving incident can be reproduced exactly from the log.

pub mod online;

pub use online::{OnlineConfig, OnlineTrainer};
