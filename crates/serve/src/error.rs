//! Serving-layer errors.

use crate::request::ScoreRequest;
use std::fmt;

/// Why a score request could not be served.
///
/// `#[non_exhaustive]`: the serving layer grows failure modes (the stored-
/// history store added [`ServeError::NoHistoryStore`]); downstream matches
/// must keep a wildcard arm so new variants are not a breaking change.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// A request must carry at least one candidate item to score.
    NoCandidates,
    /// The request asked for [`HistorySource::Stored`](crate::HistorySource)
    /// resolution, but this scoring path has no [`crate::HistoryStore`]
    /// attached (e.g. the standalone [`crate::score_requests`] helpers).
    /// Route stored-history requests through an [`Engine`](crate::Engine),
    /// which always owns a store.
    NoHistoryStore,
    /// The user id is outside the model's feature layout.
    UnknownUser {
        /// Requested user id.
        user: u32,
        /// Number of users the model was trained for.
        n_users: usize,
    },
    /// A candidate or history item id is outside the model's feature layout.
    UnknownItem {
        /// Offending item id.
        item: u32,
        /// Number of items the model was trained for.
        n_items: usize,
    },
    /// The engine (or a [`crate::score_requests`] caller) was configured
    /// with an impossible parameter — e.g. `max_seq == 0`, which would
    /// build zero-width dynamic blocks the attention kernels were never
    /// trained for. Raised at construction so misconfiguration cannot
    /// surface as scrambled scores on the first request.
    BadConfig {
        /// Human-readable description of the rejected parameter.
        reason: String,
    },
    /// A full-catalog retrieval was requested but the engine was built
    /// without a [`CatalogIndex`](seqfm_retrieval::CatalogIndex) — attach
    /// one with [`Engine::with_catalog_index`](crate::Engine::with_catalog_index).
    NoCatalogIndex,
    /// The engine's bounded admission queue is full — the non-blocking
    /// [`Engine::submit`](crate::Engine::submit) backpressure signal. The
    /// caller decides: shed the request, retry after a beat, or park on
    /// capacity via [`Engine::submit_wait`](crate::Engine::submit_wait).
    Overloaded {
        /// The engine's admission-queue capacity
        /// ([`EngineConfig::queue_capacity`](crate::EngineConfig)).
        capacity: usize,
        /// The shed request, handed back untouched (like
        /// `std::sync::mpsc::TrySendError`) — retrying or falling back to
        /// `submit_wait` costs nothing on the admitted path.
        req: Box<ScoreRequest>,
    },
    /// The engine's workers are gone (the engine was dropped while the
    /// request was in flight).
    ShutDown,
    /// The worker thread panicked while scoring this request. The panic
    /// payload is drained into `message`; the worker itself survives and
    /// keeps serving other requests.
    WorkerPanicked {
        /// Text of the caught panic payload.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoCandidates => write!(f, "score request carries no candidate items"),
            Self::NoHistoryStore => {
                write!(f, "stored-history request on a scoring path without a history store")
            }
            Self::UnknownUser { user, n_users } => {
                write!(f, "unknown user {user} (model has {n_users} users)")
            }
            Self::UnknownItem { item, n_items } => {
                write!(f, "unknown item {item} (model has {n_items} items)")
            }
            Self::BadConfig { reason } => {
                write!(f, "invalid serving configuration: {reason}")
            }
            Self::NoCatalogIndex => {
                write!(f, "full-catalog retrieval requires a CatalogIndex attached to the engine")
            }
            Self::Overloaded { capacity, .. } => {
                write!(f, "admission queue full ({capacity} requests queued); request shed")
            }
            Self::ShutDown => write!(f, "scoring engine shut down"),
            Self::WorkerPanicked { message } => {
                write!(f, "scoring worker panicked mid-request: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}
