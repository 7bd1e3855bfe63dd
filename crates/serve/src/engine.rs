//! The multi-threaded, batch-coalescing, **stateful** scoring engine.
//!
//! An [`Engine`] owns a pool of worker threads fed by a **bounded**
//! [`WorkQueue`](seqfm_parallel::WorkQueue): requests are admitted into one
//! FIFO every worker pops, and — the throughput lever — each worker wakeup
//! **drains up to [`EngineConfig::coalesce_max`] queued requests at once**
//! (one hold of the queue's lock), groups the ones sharing a canonical
//! history window (regardless of user), and scores every group as one
//! super-batch through
//! [`score_requests_stateful`](crate::score_requests_stateful). The frozen
//! scorer's history side then has one row for the whole group — *across*
//! requests and *across users* — so throughput rises with load, not only
//! with threads.
//!
//! Since the stateful-serving redesign the engine also **owns the
//! sequences**: a sharded [`HistoryStore`](crate::HistoryStore) sized
//! `layout.n_users × max_seq` (the model cannot see further back), warmed
//! from a dataset ([`Engine::warm_histories`]) and kept current by
//! [`Engine::append_event`]. A [`HistorySource::Stored`](crate::HistorySource)
//! request is just `(user, candidates)`; workers snapshot the window under
//! one shard read lock and memoise the scorer's history-side panel in the
//! served model's own [`ViewCache`](crate::ViewCache), so a cache hit skips
//! the history half of the forward entirely. All of it is bit-identical to
//! inline scoring. A view bakes in the parameters, so each
//! [`Engine::publish`] starts the new model on an empty cache: no model
//! reads another model's views, whatever their epoch stamps say.
//!
//! Admission is explicit: the non-blocking [`Engine::submit`] sheds load
//! with [`ServeError::Overloaded`] once
//! [`EngineConfig::queue_capacity`] requests are queued, while
//! [`Engine::submit_wait`] parks the caller until capacity frees up. Every
//! worker holds its own [`Scratch`] workspace (warm buffers, no cross-thread
//! locks on the hot path) and a shared `Arc` of the revision — which is why
//! the [`Scorer`] contract requires `&self`-only scoring and why
//! `FrozenSeqFm: Send + Sync` is load-bearing.
//!
//! Replies travel through **reusable oneshot slots**
//! ([`seqfm_parallel::Oneshot`]) parked **per caller thread**: consuming a
//! response parks its slot in the calling thread's own stack, and the next
//! submit from that thread re-arms it. There is no shared free list and no
//! lock anywhere on the reply path (beyond the oneshot's own rendezvous),
//! and steady-state serving allocates nothing for replies. A
//! [`PendingResponse`] dropped without [`wait`](PendingResponse::wait)
//! recycles its slot too, provided the reply already arrived.
//!
//! Worker panics are contained: a panic while scoring is drained into
//! [`ServeError::WorkerPanicked`] for every request of that coalesced
//! drain, and the worker keeps serving subsequent requests.

use crate::error::ServeError;
use crate::request::{
    push_canonical_row, score_requests_stateful, CoalesceScratch, ScoreRequest, ScoreResponse,
};
use crate::store::{CacheStats, HistoryBackend, HistoryStore, ViewCache};
use seqfm_core::{FrozenSeqFm, ModelEpoch, Scorer, Scratch};
use seqfm_data::{Dataset, FeatureLayout};
use seqfm_parallel::{ArcSlot, Oneshot, WorkQueue};
use seqfm_retrieval::{CatalogIndex, Retrieval, RetrievalError};
use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Engine sizing, admission, ranking, and history-store policy.
///
/// `#[non_exhaustive]`: construct it with [`EngineConfig::builder`] (new
/// knobs must not break downstream builds). Inside this crate, struct
/// literals remain available to tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Dynamic window n˙ the serving model was trained with. Must be ≥ 1.
    pub max_seq: usize,
    /// Responses keep only the best `top_k` candidates; `0` keeps all.
    pub top_k: usize,
    /// Admission bound: at most this many requests queued across all
    /// workers before [`Engine::submit`] sheds load with
    /// [`ServeError::Overloaded`]. Must be ≥ 1.
    pub queue_capacity: usize,
    /// Requests a worker drains per wakeup and scores as coalesced
    /// same-history super-batches. `1` disables coalescing; larger values
    /// trade per-request latency for throughput under load. Must be ≥ 1.
    pub coalesce_max: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        // `max_seq` matches `SeqFmConfig::default`; single-threaded until the
        // caller opts into more. The admission queue absorbs a healthy burst
        // before shedding; modest coalescing is on by default — it only
        // batches requests that are *already* waiting, so an unloaded engine
        // keeps single-request latency.
        EngineConfig { threads: 1, max_seq: 20, top_k: 0, queue_capacity: 1024, coalesce_max: 16 }
    }
}

impl EngineConfig {
    /// A builder starting from [`EngineConfig::default`] — the only way to
    /// construct an `EngineConfig` outside this crate (the struct is
    /// `#[non_exhaustive]`).
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { cfg: EngineConfig::default() }
    }

    /// Checks the configuration, mirroring
    /// [`SeqFmConfig::validate`](seqfm_core::SeqFmConfig::validate) but as a
    /// value instead of a panic — a misconfigured window would otherwise
    /// surface as scrambled scores or dead workers on the first request.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |reason: &str| Err(ServeError::BadConfig { reason: reason.into() });
        if self.max_seq == 0 {
            return bad("max_seq must be >= 1 (a zero-width dynamic block cannot be scored)");
        }
        if self.queue_capacity == 0 {
            return bad("queue_capacity must be >= 1 (an engine that admits nothing cannot serve)");
        }
        if self.coalesce_max == 0 {
            return bad("coalesce_max must be >= 1 (each worker wakeup must drain a request)");
        }
        Ok(())
    }
}

/// Fluent constructor for [`EngineConfig`] (which is `#[non_exhaustive]`).
///
/// ```
/// use seqfm_serve::EngineConfig;
/// let cfg = EngineConfig::builder()
///     .threads(2)
///     .max_seq(5)
///     .top_k(3)
///     .build()
///     .expect("valid config");
/// assert_eq!((cfg.threads, cfg.top_k), (2, 3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker threads. See [`EngineConfig::threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Dynamic window width. See [`EngineConfig::max_seq`].
    pub fn max_seq(mut self, max_seq: usize) -> Self {
        self.cfg.max_seq = max_seq;
        self
    }

    /// Ranking truncation. See [`EngineConfig::top_k`].
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.cfg.top_k = top_k;
        self
    }

    /// Admission bound. See [`EngineConfig::queue_capacity`].
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.cfg.queue_capacity = queue_capacity;
        self
    }

    /// Per-wakeup drain bound. See [`EngineConfig::coalesce_max`].
    pub fn coalesce_max(mut self, coalesce_max: usize) -> Self {
        self.cfg.coalesce_max = coalesce_max;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] — see [`EngineConfig::validate`].
    pub fn build(self) -> Result<EngineConfig, ServeError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Bound on each revision's [`ViewCache`]: history-side panels memoised for
/// stored-history requests and retrievals. A cached panel is bit-identical
/// to a rebuilt one, so the bound only trades memory for throughput.
const VIEW_CACHE_ENTRIES: usize = 1024;

type Reply = Result<ScoreResponse, ServeError>;
type Slot = Arc<Oneshot<Reply>>;

/// Parked reply slots awaiting reuse, **per caller thread** — the
/// ROADMAP's "per-caller reply-slot reuse". The previous design parked
/// slots in an engine-wide `Arc<Mutex<Vec<Slot>>>` touched twice per round
/// trip; keeping them with the caller makes arming and parking plain
/// thread-local pushes/pops, lock-free end to end. A caller that fans out
/// `k` submits before waiting simply parks `k` slots here.
///
/// Bounded so a burst of one-off callers cannot pin memory forever; a
/// caller thread's slots are freed when the thread exits.
const MAX_PARKED_SLOTS: usize = 256;

thread_local! {
    static PARKED_SLOTS: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's scratch for the history views
    /// [`Engine::retrieve_top_k`] builds on a view-cache miss (retrieval
    /// runs on the caller, not on a worker with its own scratch).
    static VIEW_SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Pops this thread's most recently parked slot (or allocates the first
/// time) and re-arms it.
fn arm_slot() -> Slot {
    let slot =
        PARKED_SLOTS.with(|p| p.borrow_mut().pop()).unwrap_or_else(|| Arc::new(Oneshot::new()));
    slot.reset(); // re-arm (clears any stale close marker)
    slot
}

/// Parks a slot on the current thread for reuse by a later submit.
fn park_slot(slot: Slot) {
    PARKED_SLOTS.with(|p| {
        let mut parked = p.borrow_mut();
        if parked.len() < MAX_PARKED_SLOTS {
            parked.push(slot);
        }
    });
}

/// Number of slots parked on the current thread (test observability).
#[cfg(test)]
fn parked_slots() -> usize {
    PARKED_SLOTS.with(|p| p.borrow().len())
}

struct Job {
    req: ScoreRequest,
    slot: Slot,
    /// Set once a reply has been delivered; the `Drop` guard below then
    /// stays silent.
    answered: bool,
}

impl Drop for Job {
    fn drop(&mut self) {
        if !self.answered {
            // The job is dying unanswered: either its queue was destroyed
            // with the job still inside (engine torn down with dead
            // workers), or a worker is unwinding past its catch. Tell the
            // waiting caller which.
            self.slot.close(std::thread::panicking());
        }
    }
}

/// A handle to a submitted request; resolve it with
/// [`PendingResponse::wait`].
///
/// The handle *is* the parked-slot carrier of the per-caller reuse scheme:
/// waiting (or dropping after the reply arrived) parks the slot on the
/// consuming thread for that thread's next submit, so abandoned handles
/// cannot leak the zero-allocation steady state away.
pub struct PendingResponse {
    /// `Some` until `wait` or `Drop` consumes the slot.
    slot: Option<Slot>,
}

impl PendingResponse {
    /// Blocks until the engine has scored the request.
    ///
    /// # Errors
    /// The request's own [`ServeError`];
    /// [`ServeError::WorkerPanicked`] if the worker thread panicked while
    /// scoring this request (the panic message is drained into the error,
    /// and the worker survives to serve other requests);
    /// [`ServeError::ShutDown`] if the engine was torn down before
    /// answering.
    pub fn wait(mut self) -> Result<ScoreResponse, ServeError> {
        let slot = self.slot.take().expect("slot present until wait/drop");
        let reply = match slot.recv() {
            Ok(reply) => reply,
            // Dropped without an answer — see the `Job` drop guard.
            Err(d) if d.panicked => Err(ServeError::WorkerPanicked {
                message: "worker thread panicked before replying".into(),
            }),
            Err(_) => Err(ServeError::ShutDown),
        };
        // The producer is done with the slot on every branch (value taken,
        // or sticky close — cleared by the next re-arm); park it for reuse.
        park_slot(slot);
        reply
    }
}

impl Drop for PendingResponse {
    fn drop(&mut self) {
        let Some(slot) = self.slot.take() else {
            return; // consumed by wait()
        };
        // Recycle only if the producer is done with the slot (reply or
        // close already arrived). An unanswered slot may still receive a
        // worker's send — re-arming it for another request would cross the
        // two replies, so that slot is simply dropped (the worker's send
        // lands in an Arc nobody reads, then the memory is freed).
        if slot.try_recv().is_some() {
            slot.reset(); // clear any sticky close marker before reuse
            park_slot(slot);
        }
    }
}

/// One published model revision: the model, its epoch, the catalog index
/// built for it and the cache of the views it built. Workers and
/// retrievals load the engine's [`ArcSlot`] once per drain or call, so
/// each scores with one model and that model's own views and index, even
/// while [`Engine::publish`] swaps underneath.
struct ModelRev<S: ?Sized> {
    epoch: ModelEpoch,
    model: Arc<S>,
    index: Option<Arc<CatalogIndex>>,
    views: Arc<ViewCache>,
}

/// `index` re-anchored on `model`: the same `Arc` when the index already
/// scores with that very model, else [`CatalogIndex::rebuild_for`] it. The
/// rebuild runs on the calling thread and panics there, for a model frozen
/// for another item layout.
fn anchored(index: &Arc<CatalogIndex>, model: &Arc<FrozenSeqFm>) -> Arc<CatalogIndex> {
    if Arc::ptr_eq(index.model(), model) {
        Arc::clone(index)
    } else {
        Arc::new(index.rebuild_for(Arc::clone(model)))
    }
}

/// Drainable append-event stream — the bridge from the serving engine to an
/// online trainer. When attached ([`Engine::with_event_log`]), every
/// successful [`Engine::append_event`] also records `(user, item)` here, in
/// order; a trainer periodically [`drain`](EventLog::drain_into)s the log,
/// folds the events into its optimizer state, and publishes fresh epochs
/// back via [`Engine::publish_frozen`]. Because the log preserves append
/// order, the trainer's state is a pure function of the event stream — the
/// root of the offline-replay parity guarantee.
#[derive(Default)]
pub struct EventLog {
    events: Mutex<Vec<(u32, u32)>>,
}

impl EventLog {
    /// Moves all recorded events (in append order) onto the end of `out`
    /// and returns how many were moved. The log is left empty.
    pub fn drain_into(&self, out: &mut Vec<(u32, u32)>) -> usize {
        let mut events = self.events.lock().expect("event log poisoned");
        let n = events.len();
        out.append(&mut events);
        n
    }

    /// Events currently buffered (recorded but not yet drained).
    pub fn len(&self) -> usize {
        self.events.lock().expect("event log poisoned").len()
    }

    /// Whether the log is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record(&self, user: u32, item: u32) {
        self.events.lock().expect("event log poisoned").push((user, item));
    }
}

/// Multi-threaded batch-coalescing scoring engine that owns the user
/// histories and serves one model of type `S`. See the module docs.
/// Retrieval and [`Engine::publish`] exist only on the default
/// `Engine<FrozenSeqFm>`.
pub struct Engine<S: ?Sized = FrozenSeqFm> {
    queue: Option<WorkQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    layout: FeatureLayout,
    cfg: EngineConfig,
    store: Arc<HistoryStore>,
    model: Arc<ArcSlot<ModelRev<S>>>,
    events: Option<Arc<EventLog>>,
}

impl<S: Scorer + Send + Sync + ?Sized + 'static> Engine<S> {
    /// Spawns `cfg.threads` workers serving `scorer`, plus a
    /// [`HistoryStore`](crate::HistoryStore) sized
    /// `layout.n_users × cfg.max_seq` and the scorer's own
    /// [`ViewCache`](crate::ViewCache) of `VIEW_CACHE_ENTRIES` entries.
    ///
    /// The scorer is typically a
    /// [`FrozenSeqFm`](seqfm_core::FrozenSeqFm) (graph-free fast path) or a
    /// [`GraphScorer`](seqfm_core::GraphScorer) over any baseline
    /// (compatibility path) — anything `Scorer + Send + Sync` works. The
    /// engine serves exactly the scorer it is handed: a `Fast` profile is
    /// chosen by the caller, with `FrozenSeqFm::with_precision`.
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] when [`EngineConfig::validate`] rejects
    /// `cfg` — failing fast here instead of on the first request.
    pub fn new(
        scorer: Arc<S>,
        layout: FeatureLayout,
        cfg: EngineConfig,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        let store = Arc::new(HistoryStore::new(layout.n_users, cfg.max_seq));
        let rev = ModelRev {
            epoch: scorer.model_epoch(),
            model: scorer,
            index: None,
            views: Arc::new(ViewCache::new(VIEW_CACHE_ENTRIES)),
        };
        let model = Arc::new(ArcSlot::new(Arc::new(rev)));
        let (queue, handles) = WorkQueue::<Job>::bounded(cfg.threads.max(1), cfg.queue_capacity);
        let workers = handles
            .into_iter()
            .map(|handle| {
                let model = Arc::clone(&model);
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut scratch = Scratch::new();
                    let mut coalesce = CoalesceScratch::new();
                    let mut jobs: Vec<Job> = Vec::new();
                    let mut reqs: Vec<ScoreRequest> = Vec::new();
                    let mut replies: Vec<Reply> = Vec::new();
                    // The coalescer: drain up to `coalesce_max` queued
                    // requests per wakeup and score them as grouped
                    // super-batches. Under light load the drain holds one
                    // request and this degenerates to per-request scoring.
                    // Every buffer here (the drain, the request staging, the
                    // coalesce scratch, the replies) is worker-owned and
                    // reused across wakeups.
                    while handle.recv_many(cfg.coalesce_max, &mut jobs) {
                        // Pin the model revision for this whole drain: one
                        // slot load, so a concurrent publish never splits a
                        // coalesced super-batch across models, and every
                        // view it reads or installs is this model's own.
                        let rev = model.load();
                        let backend = HistoryBackend { store: &store, cache: Some(&rev.views) };
                        // Move the requests out of the jobs (the `Drop`
                        // guard forbids destructuring) into the reused
                        // staging buffer — no per-wakeup reference array.
                        reqs.clear();
                        for job in jobs.iter_mut() {
                            reqs.push(std::mem::take(&mut job.req));
                        }
                        // Contain panics: every caller in this drain gets
                        // the drained panic text, the worker keeps serving.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            score_requests_stateful(
                                &*rev.model,
                                &layout,
                                cfg.max_seq,
                                cfg.top_k,
                                &reqs,
                                Some(&backend),
                                &mut scratch,
                                &mut coalesce,
                                &mut replies,
                            )
                        }));
                        if let Err(payload) = result {
                            let message = panic_message(payload.as_ref());
                            replies.clear();
                            replies.extend(jobs.iter().map(|_| {
                                Err(ServeError::WorkerPanicked { message: message.clone() })
                            }));
                        }
                        for (job, reply) in jobs.iter_mut().zip(replies.drain(..)) {
                            // A dropped reply receiver just means the caller
                            // gave up on this request; keep serving.
                            let _ = job.slot.send(reply);
                            job.answered = true;
                        }
                        jobs.clear();
                    }
                })
            })
            .collect();
        Ok(Engine { queue: Some(queue), workers, layout, cfg, store, model, events: None })
    }

    /// Opts the engine into event logging: every successful
    /// [`Engine::append_event`] is also recorded in an [`EventLog`] for an
    /// online trainer to drain. Off by default (appends stay lock-free of
    /// the log).
    #[must_use]
    pub fn with_event_log(mut self) -> Self {
        self.events = Some(Arc::new(EventLog::default()));
        self
    }

    /// The attached append-event log, if [`Engine::with_event_log`] was
    /// called.
    pub fn event_log(&self) -> Option<&Arc<EventLog>> {
        self.events.as_ref()
    }

    /// The [`ModelEpoch`] new drains are scoring under right now.
    pub fn current_epoch(&self) -> ModelEpoch {
        self.model.load().epoch
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The engine's history store (e.g. for direct snapshot reads or load
    /// tooling). Appends should go through [`Engine::append_event`], which
    /// validates item ids first.
    pub fn store(&self) -> &HistoryStore {
        &self.store
    }

    /// Records one interaction at the end of `user`'s stored history and
    /// returns the new history version. The next
    /// [`HistorySource::Stored`](crate::HistorySource) request for `user`
    /// sees the updated window — the version bump lazily invalidates any
    /// cached history view.
    ///
    /// # Errors
    /// [`ServeError::UnknownUser`] / [`ServeError::UnknownItem`] when the
    /// ids fall outside the model's feature layout. (Pre-fix, unvalidated
    /// appends let out-of-vocabulary items into the store and the
    /// embedding gather panicked at *scoring* time, far from the bad
    /// write.)
    pub fn append_event(&self, user: u32, item: u32) -> Result<u64, ServeError> {
        if user as usize >= self.layout.n_users {
            return Err(ServeError::UnknownUser { user, n_users: self.layout.n_users });
        }
        if item as usize >= self.layout.n_items {
            return Err(ServeError::UnknownItem { item, n_items: self.layout.n_items });
        }
        let version = self.store.append(user, item);
        if let Some(log) = &self.events {
            log.record(user, item);
        }
        Ok(version)
    }

    /// Bulk-loads a dataset's per-user sequences into the history store
    /// (warm-up before serving). Returns the number of events loaded.
    ///
    /// # Errors
    /// [`ServeError::UnknownItem`] if the dataset mentions an item outside
    /// the model's layout (nothing is loaded in that case).
    pub fn warm_histories(&self, ds: &Dataset) -> Result<usize, ServeError> {
        for events in ds.per_user.iter().take(self.layout.n_users) {
            for e in events {
                if e.item as usize >= self.layout.n_items {
                    return Err(ServeError::UnknownItem {
                        item: e.item,
                        n_items: self.layout.n_items,
                    });
                }
            }
        }
        Ok(self.store.load_dataset(ds))
    }

    /// `user`'s current stored window (chronological, oldest first).
    ///
    /// # Errors
    /// [`ServeError::UnknownUser`] when `user` is outside the layout.
    pub fn history(&self, user: u32) -> Result<Vec<u32>, ServeError> {
        if user as usize >= self.layout.n_users {
            return Err(ServeError::UnknownUser { user, n_users: self.layout.n_users });
        }
        Ok(self.store.snapshot(user).0)
    }

    /// View-cache counters.
    ///
    /// Each publish gives the new revision an empty cache that counts into
    /// the same hit and miss counters, so `hits` and `misses` only grow and
    /// `entries` counts the served revision's views.
    pub fn cache_stats(&self) -> CacheStats {
        self.model.load().views.stats()
    }

    /// Non-blocking admission: enqueues the request and returns immediately,
    /// or sheds it when [`EngineConfig::queue_capacity`] requests are
    /// already queued — the backpressure signal an async front door (network
    /// acceptor, stream consumer) turns into "503 / retry later". Pair the
    /// handle with [`PendingResponse::wait`].
    ///
    /// The reply slot comes from the calling thread's parked stack — no
    /// allocation and no lock once the caller is warm, including on the
    /// shed path.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the admission queue is full; the
    /// shed request is handed back inside the error, so retrying (or
    /// falling back to [`Engine::submit_wait`]) needs no defensive clone.
    pub fn submit(&self, req: ScoreRequest) -> Result<PendingResponse, ServeError> {
        let slot = arm_slot();
        match &self.queue {
            Some(q) => {
                if let Err(mut job) =
                    q.try_push(Job { req, slot: Arc::clone(&slot), answered: false })
                {
                    // Take the request back out of the bounced job (swap —
                    // the `Drop` guard forbids destructuring), disarm the
                    // guard (nobody is waiting on this slot), and park the
                    // slot for the next submit.
                    let req = std::mem::take(&mut job.req);
                    job.answered = true;
                    drop(job);
                    park_slot(slot);
                    return Err(ServeError::Overloaded {
                        capacity: q.capacity(),
                        req: Box::new(req),
                    });
                }
            }
            // Unreachable while the engine is alive; keep `wait` total.
            None => slot.close(false),
        }
        Ok(PendingResponse { slot: Some(slot) })
    }

    /// [`Engine::submit`] for a stored-history request: just
    /// `(user, candidates)` — the workers resolve the history from the
    /// engine's store.
    ///
    /// # Errors
    /// See [`Engine::submit`].
    pub fn submit_stored(
        &self,
        user: u32,
        candidates: impl Into<Vec<u32>>,
    ) -> Result<PendingResponse, ServeError> {
        self.submit(ScoreRequest::stored(user, candidates))
    }

    /// Blocking admission: like [`Engine::submit`], but parks the calling
    /// thread while the queue is at capacity instead of shedding — natural
    /// backpressure for batch producers that should slow down rather than
    /// drop work.
    pub fn submit_wait(&self, req: ScoreRequest) -> PendingResponse {
        let slot = arm_slot();
        match &self.queue {
            Some(q) => q.push_wait(Job { req, slot: Arc::clone(&slot), answered: false }),
            None => slot.close(false),
        }
        PendingResponse { slot: Some(slot) }
    }

    /// Scores one request, blocking until the response is ready (parking on
    /// admission capacity if necessary).
    ///
    /// # Errors
    /// See [`PendingResponse::wait`].
    pub fn score(&self, req: ScoreRequest) -> Result<ScoreResponse, ServeError> {
        self.submit_wait(req).wait()
    }

    /// [`Engine::score`] for a stored-history request.
    ///
    /// # Errors
    /// See [`PendingResponse::wait`].
    pub fn score_stored(
        &self,
        user: u32,
        candidates: impl Into<Vec<u32>>,
    ) -> Result<ScoreResponse, ServeError> {
        self.score(ScoreRequest::stored(user, candidates))
    }
}

impl Engine {
    /// [`Engine::new`] over a frozen SeqFM, served as handed (quantise it
    /// with `FrozenSeqFm::with_precision` first to serve `Fast`).
    ///
    /// # Errors
    /// [`ServeError::BadConfig`] when [`EngineConfig::validate`] rejects
    /// `cfg`.
    pub fn new_frozen(
        model: FrozenSeqFm,
        layout: FeatureLayout,
        cfg: EngineConfig,
    ) -> Result<Self, ServeError> {
        Self::new(Arc::new(model), layout, cfg)
    }

    /// Attaches a full-catalog [`CatalogIndex`] so [`Engine::retrieve_top_k`]
    /// can answer "best k items of the *whole* catalog" queries. The index
    /// must be built over the engine's feature layout. It becomes part of
    /// the served revision, re-anchored on the served model (kept when it
    /// already scores with that very `Arc`, else
    /// [`CatalogIndex::rebuild_for`] it), and every later
    /// [`Engine::publish`] re-anchors it on the new model the same way.
    ///
    /// # Panics
    /// Panics if the index's layout disagrees with the engine's.
    #[must_use]
    pub fn with_catalog_index(self, index: Arc<CatalogIndex>) -> Self {
        assert_eq!(
            (index.layout().n_users, index.layout().n_items),
            (self.layout.n_users, self.layout.n_items),
            "catalog index layout must match the engine's"
        );
        let old = self.model.load();
        // The same model keeps the views it built.
        let (model, views) = (Arc::clone(&old.model), Arc::clone(&old.views));
        let index = Some(anchored(&index, &model));
        self.model.store(Arc::new(ModelRev { epoch: old.epoch, model, index, views }));
        self
    }

    /// The catalog index of the revision being served right now, if one is
    /// attached — built for that revision's model. A publish may replace it
    /// at any time; holding the `Arc` keeps this snapshot valid regardless.
    pub fn catalog_index(&self) -> Option<Arc<CatalogIndex>> {
        self.model.load().index.clone()
    }

    /// Atomically hot-swaps the engine onto a new model — the serving half
    /// of the online-learning loop. Returns the epoch now being served. The
    /// whole sequence runs on the *calling* thread (typically the trainer);
    /// scoring workers wait for nothing longer than the slot's one pointer
    /// exchange:
    ///
    /// 1. any attached catalog index is re-anchored on the new model
    ///    ([`CatalogIndex::rebuild_for`] — exact envelopes over the
    ///    existing block membership, no re-sort); workers and retrievals
    ///    keep serving the previous revision meanwhile;
    /// 2. the model slot is swapped for a revision carrying the new model,
    ///    its index and an empty [`ViewCache`] of its own — new drains and
    ///    retrievals run under the new model, in-flight drains finish on
    ///    the one they pinned (the replaced revision, views and all, is
    ///    freed when the last of them does).
    ///
    /// The model is served as handed, and never reads a view an earlier
    /// model built, even under the same epoch stamp (a `with_precision`
    /// twin, a second plain `freeze`, a rollback). Between concurrent
    /// publishers the last swap wins, so one trainer thread should own
    /// publishing.
    ///
    /// # Panics
    /// Panics, before the swap, if the index rebuild does — for a model
    /// frozen for another item layout. The engine then keeps serving the
    /// previous revision with its index; no lock is held across the rebuild.
    pub fn publish(&self, model: Arc<FrozenSeqFm>) -> ModelEpoch {
        let old = self.model.load();
        let epoch = model.model_epoch();
        let index = old.index.as_ref().map(|index| anchored(index, &model));
        let views = Arc::new(old.views.successor());
        self.model.store(Arc::new(ModelRev { epoch, model, index, views }));
        epoch
    }

    /// [`Engine::publish`] of a frozen SeqFM, served as handed (a `Fast`
    /// loop publishes `trainer.frozen_for(s).with_precision(Fast)`).
    ///
    /// # Panics
    /// As [`Engine::publish`]: when re-anchoring an attached index panics,
    /// before the swap.
    pub fn publish_frozen(&self, model: FrozenSeqFm) -> ModelEpoch {
        self.publish(Arc::new(model))
    }

    /// [`Engine::catalog_index`]. Every revision carries an index for its
    /// own model, so there is nothing to wait for; kept because the repo
    /// benchmark calls it.
    pub fn wait_for_index(&self) -> Option<Arc<CatalogIndex>> {
        self.catalog_index()
    }

    /// Retrieves the best `k` items of the **entire catalog** for `user`'s
    /// current stored history, using the served revision's
    /// [`CatalogIndex`] and its upper-bound-pruned blocked scan.
    ///
    /// Runs on the calling thread (the scan parallelises internally over
    /// the global thread pool) rather than through the admission queue —
    /// a catalog sweep is orders of magnitude heavier than a candidate
    /// request and would starve the latency path. The history view is
    /// shared with the scoring path: the served revision's [`ViewCache`] is
    /// consulted first and a freshly built view is installed back, so a
    /// retrieval immediately after [`Engine::append_event`] sees the new
    /// window (the version bump misses the stale entry), and interleaved
    /// `score_stored` calls under the same revision reuse the same panel
    /// bit-identically.
    ///
    /// # Errors
    /// [`ServeError::NoCatalogIndex`] without an attached index;
    /// [`ServeError::UnknownUser`] for a user outside the layout;
    /// [`ServeError::BadConfig`] for `k == 0`.
    pub fn retrieve_top_k(&self, user: u32, k: usize) -> Result<Retrieval, ServeError> {
        let rev = self.model.load();
        let Some(index) = &rev.index else {
            return Err(ServeError::NoCatalogIndex);
        };
        if user as usize >= self.layout.n_users {
            return Err(ServeError::UnknownUser { user, n_users: self.layout.n_users });
        }
        let epoch = rev.epoch;
        let mut snap = Vec::new();
        let version = self.store.snapshot_into(user, &mut snap);
        let view = rev.views.get(user, version, epoch).unwrap_or_else(|| {
            // The scoring path's own canonical row, so the view (and its
            // cache entry) is bit-identical to the scoring path's.
            let mut row: Vec<i64> = Vec::with_capacity(self.cfg.max_seq);
            push_canonical_row(&snap, self.cfg.max_seq, &mut row);
            let build =
                || Some(VIEW_SCRATCH.with(|s| rev.model.history_view(&row, &mut s.borrow_mut())));
            let view = rev.views.shared_or_build(epoch, &row, build);
            let view = view.expect("a frozen model always builds a view");
            rev.views.insert(user, version, epoch, Arc::clone(&view));
            view
        });
        index.retrieve(user, &view, k).map_err(|e| match e {
            RetrievalError::BadConfig { reason } => ServeError::BadConfig { reason },
            other => ServeError::BadConfig { reason: other.to_string() },
        })
    }
}

impl<S: ?Sized> Drop for Engine<S> {
    fn drop(&mut self) {
        // Closing the queue lets every worker drain the backlog and exit;
        // in-flight requests are answered, not dropped.
        drop(self.queue.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Renders a caught panic payload for [`ServeError::WorkerPanicked`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::score_request;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqfm_autograd::ParamStore;
    use seqfm_core::{FrozenSeqFm, ScorerPrecision, SeqFm, SeqFmConfig};
    use seqfm_data::{Batch, Event};
    use std::sync::{Condvar, Mutex};

    fn frozen_model(layout: &FeatureLayout) -> FrozenSeqFm {
        frozen_model_seeded(layout, 21)
    }

    fn frozen_model_seeded(layout: &FeatureLayout, seed: u64) -> FrozenSeqFm {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SeqFmConfig { d: 8, max_seq: 6, ..Default::default() };
        let model = SeqFm::new(&mut ps, &mut rng, layout, cfg);
        FrozenSeqFm::freeze(&model, &ps)
    }

    fn engine_cfg(threads: usize, top_k: usize) -> EngineConfig {
        EngineConfig { threads, max_seq: 6, top_k, ..Default::default() }
    }

    #[test]
    fn engine_matches_direct_scoring_across_many_requests() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let frozen = Arc::new(frozen_model(&layout));
        let engine = Engine::new(Arc::clone(&frozen), layout, engine_cfg(3, 5)).expect("valid cfg");
        assert_eq!(engine.threads(), 3);

        let requests: Vec<ScoreRequest> = (0..24)
            .map(|i| {
                ScoreRequest::inline(
                    (i % 8) as u32,
                    (0..(i % 5)).map(|j| ((i + j) % 20) as u32).collect::<Vec<u32>>(),
                    (0..20).map(|c| ((c + i) % 20) as u32).collect::<Vec<u32>>(),
                )
            })
            .collect();

        // Fan out everything first, then collect — exercises concurrency
        // and (since several requests share a history) the coalescer.
        let pending: Vec<PendingResponse> =
            requests.iter().map(|r| engine.submit(r.clone()).expect("under capacity")).collect();
        let mut scratch = Scratch::new();
        for (req, p) in requests.iter().zip(pending) {
            let got = p.wait().expect("valid request");
            let want =
                score_request(&*frozen, &layout, 6, 5, req, &mut scratch).expect("valid request");
            assert_eq!(got, want, "engine answer diverges for {req:?}");
        }
    }

    #[test]
    fn engine_reports_request_errors_not_panics() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let engine =
            Engine::new(Arc::new(frozen_model(&layout)), layout, engine_cfg(1, 0)).expect("valid");
        let bad = ScoreRequest::inline(99, vec![], vec![1]);
        assert_eq!(engine.score(bad), Err(ServeError::UnknownUser { user: 99, n_users: 8 }));
        // The worker survives a bad request.
        let ok = ScoreRequest::inline(1, vec![2], vec![1, 2, 3]);
        assert_eq!(engine.score(ok).expect("valid").ranked.len(), 3);
    }

    #[test]
    fn stored_requests_resolve_from_the_engines_store_bit_identically() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let frozen = Arc::new(frozen_model(&layout));
        let engine = Engine::new(Arc::clone(&frozen), layout, engine_cfg(2, 0)).expect("valid cfg");
        for item in [3u32, 9, 14] {
            engine.append_event(5, item).expect("valid ids");
        }
        assert_eq!(engine.history(5).expect("known user"), vec![3, 9, 14]);
        let got = engine.score_stored(5, vec![0, 7, 19, 2]).expect("valid");
        let mut scratch = Scratch::new();
        let want = score_request(
            &*frozen,
            &layout,
            6,
            0,
            &ScoreRequest::inline(5, vec![3, 9, 14], vec![0, 7, 19, 2]),
            &mut scratch,
        )
        .expect("valid");
        assert_eq!(got.ranked.len(), want.ranked.len());
        for (g, w) in got.ranked.iter().zip(&want.ranked) {
            assert_eq!(
                (g.item, g.score.to_bits()),
                (w.item, w.score.to_bits()),
                "stored-history engine path must be bit-identical to inline"
            );
        }
        // A second identical request hits the view cache; same bits.
        let again = engine.score_stored(5, vec![0, 7, 19, 2]).expect("valid");
        assert_eq!(again, got);
        let stats = engine.cache_stats();
        assert!(stats.hits >= 1, "second stored request must hit the view cache: {stats:?}");
    }

    #[test]
    fn retrieve_top_k_uses_the_stored_history_and_shares_the_view_cache() {
        let layout = FeatureLayout { n_users: 8, n_items: 30 };
        let frozen = Arc::new(frozen_model(&layout));
        let index = Arc::new(CatalogIndex::build(Arc::clone(&frozen), layout, 7));
        let engine = Engine::new(Arc::clone(&frozen), layout, engine_cfg(2, 0))
            .expect("valid cfg")
            .with_catalog_index(Arc::clone(&index));
        assert!(engine.catalog_index().is_some());
        for item in [4u32, 19, 2] {
            engine.append_event(6, item).expect("valid ids");
        }
        let got = engine.retrieve_top_k(6, 5).expect("valid");
        assert_eq!(got.items.len(), 5);
        // Reference: the same view built by hand straight on the index.
        let mut scratch = Scratch::new();
        let row: Vec<i64> = [seqfm_data::PAD; 3].into_iter().chain([4i64, 19, 2]).collect();
        let view = frozen.history_view(&row, &mut scratch);
        let want = index.retrieve(6, &view, 5).expect("valid");
        for (g, w) in got.items.iter().zip(&want.items) {
            assert_eq!(g.item, w.item);
            assert_eq!(g.score.to_bits(), w.score.to_bits());
        }
        // The retrieval installed the view; scoring and a second retrieval
        // both hit the cache now.
        let misses_before = engine.cache_stats().misses;
        engine.retrieve_top_k(6, 5).expect("valid");
        engine.score_stored(6, vec![1, 2, 3]).expect("valid");
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, misses_before, "view must be shared, not rebuilt");
        assert!(stats.hits >= 2);
        // An append invalidates (version bump): retrieval right after sees
        // the new window and stays exact vs a hand-built fresh view.
        engine.append_event(6, 11).expect("valid ids");
        let fresh = engine.retrieve_top_k(6, 5).expect("valid");
        let row: Vec<i64> = [seqfm_data::PAD; 2].into_iter().chain([4i64, 19, 2, 11]).collect();
        let view = frozen.history_view(&row, &mut scratch);
        let want = index.retrieve(6, &view, 5).expect("valid");
        for (g, w) in fresh.items.iter().zip(&want.items) {
            assert_eq!(g.item, w.item);
            assert_eq!(g.score.to_bits(), w.score.to_bits());
        }
    }

    /// The check of the precision and publish tests: user 3's stored window
    /// `[4, 19, 2]`, scored against four candidates, must carry `model`'s
    /// own bits — so any view the engine cached for it is `model`'s.
    fn assert_serves(engine: &Engine, model: &FrozenSeqFm, layout: &FeatureLayout) {
        let got = engine.score_stored(3, vec![5, 9, 40, 41]).expect("valid");
        let req = ScoreRequest::inline(3, vec![4u32, 19, 2], vec![5u32, 9, 40, 41]);
        let want = score_request(model, layout, 6, 0, &req, &mut Scratch::new()).expect("valid");
        assert_eq!(got.ranked.len(), want.ranked.len());
        for (g, w) in got.ranked.iter().zip(&want.ranked) {
            assert_eq!((g.item, g.score.to_bits()), (w.item, w.score.to_bits()));
        }
    }

    /// Appends user 3's window `[4, 19, 2]`, retrieves for it, then checks
    /// [`assert_serves`]. Returns the retrieval's answer.
    fn serves_after_retrieval(
        engine: &Engine,
        model: &FrozenSeqFm,
        layout: &FeatureLayout,
    ) -> Result<Retrieval, ServeError> {
        for item in [4u32, 19, 2] {
            engine.append_event(3, item).expect("valid ids");
        }
        let retrieved = engine.retrieve_top_k(3, 5);
        assert_serves(engine, model, layout);
        retrieved
    }

    #[test]
    fn a_fast_engine_with_a_fast_index_serves_fast_logits() {
        let layout = FeatureLayout { n_users: 6, n_items: 48 };
        let fast = Arc::new(frozen_model(&layout).with_precision(ScorerPrecision::Fast));
        let engine = Engine::new(Arc::clone(&fast), layout, engine_cfg(1, 0))
            .expect("valid cfg")
            .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&fast), layout, 8)));
        assert!(Arc::ptr_eq(engine.catalog_index().expect("attached").model(), &fast));
        serves_after_retrieval(&engine, &fast, &layout).expect("valid");
    }

    #[test]
    fn a_catalog_index_at_another_precision_is_re_anchored_on_the_served_model() {
        let layout = FeatureLayout { n_users: 6, n_items: 48 };
        let fast = Arc::new(frozen_model(&layout).with_precision(ScorerPrecision::Fast));
        let exact = Arc::new(frozen_model(&layout));
        let cfg = EngineConfig::builder().threads(1).max_seq(6).build().expect("valid");
        let engine = Engine::new(Arc::clone(&fast), layout, cfg)
            .expect("valid cfg")
            .with_catalog_index(Arc::new(CatalogIndex::build(exact, layout, 8)));
        assert!(Arc::ptr_eq(engine.catalog_index().expect("attached").model(), &fast));
        serves_after_retrieval(&engine, &fast, &layout).expect("valid");
    }

    #[test]
    fn a_publish_at_the_same_epoch_reads_no_view_the_old_model_built() {
        // `with_precision(Fast)` keeps its source's epoch: a cache keyed on
        // the epoch alone would serve the `Exact` model's view to `Fast`.
        let layout = FeatureLayout { n_users: 6, n_items: 48 };
        let exact = Arc::new(frozen_model(&layout));
        let engine = Engine::new(Arc::clone(&exact), layout, engine_cfg(1, 0))
            .expect("valid cfg")
            .with_catalog_index(Arc::new(CatalogIndex::build(Arc::clone(&exact), layout, 8)));
        serves_after_retrieval(&engine, &exact, &layout).expect("valid");
        let fast = Arc::new(frozen_model(&layout).with_precision(ScorerPrecision::Fast));
        assert_eq!(engine.publish(Arc::clone(&fast)), exact.model_epoch());
        assert_serves(&engine, &fast, &layout);
        // Retrieval answers on the published model's re-anchored index.
        assert!(Arc::ptr_eq(engine.catalog_index().expect("attached").model(), &fast));
        let got = engine.retrieve_top_k(3, 5).expect("valid");
        let row: Vec<i64> = [seqfm_data::PAD; 3].into_iter().chain([4i64, 19, 2]).collect();
        let view = fast.history_view(&row, &mut Scratch::new());
        let fresh = CatalogIndex::build(Arc::clone(&fast), layout, 8);
        let want = fresh.retrieve(3, &view, 5).expect("valid");
        assert_eq!(got.items.len(), 5);
        for (g, w) in got.items.iter().zip(&want.items) {
            assert_eq!((g.item, g.score.to_bits()), (w.item, w.score.to_bits()));
        }
    }

    #[test]
    fn a_second_unversioned_model_reads_no_view_the_first_built() {
        // Every plain `freeze` stamps `ModelEpoch::ZERO`, so two different
        // models share an epoch.
        let layout = FeatureLayout { n_users: 6, n_items: 48 };
        let first = Arc::new(frozen_model_seeded(&layout, 21));
        let second = Arc::new(frozen_model_seeded(&layout, 99));
        assert_eq!(first.model_epoch(), second.model_epoch());
        let engine = Engine::new(Arc::clone(&first), layout, engine_cfg(1, 0)).expect("valid");
        for item in [4u32, 19, 2] {
            engine.append_event(3, item).expect("valid ids");
        }
        assert_serves(&engine, &first, &layout);
        let before = engine.cache_stats();
        engine.publish(Arc::clone(&second));
        assert_serves(&engine, &second, &layout);
        // The counters carry over the swap; the new model built its own view.
        let after = engine.cache_stats();
        assert_eq!((after.misses, after.hits, after.entries), (before.misses + 1, before.hits, 1));
    }

    #[test]
    fn retrieve_top_k_without_an_index_is_a_typed_error() {
        let layout = FeatureLayout { n_users: 4, n_items: 10 };
        let engine =
            Engine::new(Arc::new(frozen_model(&layout)), layout, engine_cfg(1, 0)).expect("valid");
        assert_eq!(engine.retrieve_top_k(1, 5), Err(ServeError::NoCatalogIndex));
        let frozen = Arc::new(frozen_model(&layout));
        let index = Arc::new(CatalogIndex::build(Arc::clone(&frozen), layout, 4));
        let engine =
            Engine::new(frozen, layout, engine_cfg(1, 0)).expect("valid").with_catalog_index(index);
        assert_eq!(
            engine.retrieve_top_k(9, 5),
            Err(ServeError::UnknownUser { user: 9, n_users: 4 })
        );
        assert!(matches!(engine.retrieve_top_k(1, 0), Err(ServeError::BadConfig { .. })));
        // k >= catalog: every item, ranked.
        assert_eq!(engine.retrieve_top_k(1, 500).expect("valid").items.len(), 10);
    }

    #[test]
    fn append_event_validates_ids_before_touching_the_store() {
        let layout = FeatureLayout { n_users: 4, n_items: 10 };
        let engine =
            Engine::new(Arc::new(frozen_model(&layout)), layout, engine_cfg(1, 0)).expect("valid");
        assert_eq!(engine.append_event(4, 1), Err(ServeError::UnknownUser { user: 4, n_users: 4 }));
        assert_eq!(
            engine.append_event(1, 10),
            Err(ServeError::UnknownItem { item: 10, n_items: 10 })
        );
        assert_eq!(engine.history(1).expect("known user"), Vec::<u32>::new());
        assert_eq!(engine.history(9), Err(ServeError::UnknownUser { user: 9, n_users: 4 }));
        assert_eq!(engine.append_event(1, 9), Ok(1));
        assert_eq!(engine.append_event(1, 3), Ok(2));
        assert_eq!(engine.history(1).expect("known user"), vec![9, 3]);
    }

    #[test]
    fn warm_histories_bulk_loads_and_validates() {
        let layout = FeatureLayout { n_users: 4, n_items: 10 };
        let engine = Engine::new(
            Arc::new(frozen_model(&layout)),
            layout,
            EngineConfig { threads: 1, max_seq: 3, ..Default::default() },
        )
        .expect("valid");
        let ev = |item: u32, time: u32| Event { item, time, rating: 1.0 };
        let mut ds = Dataset {
            name: "warmup".into(),
            n_users: 2,
            n_items: 10,
            item_cluster: vec![0; 10],
            per_user: vec![vec![ev(1, 0), ev(2, 1), ev(3, 2), ev(4, 3), ev(5, 4)], vec![ev(7, 0)]],
        };
        assert_eq!(engine.warm_histories(&ds).expect("in-layout items"), 6);
        // The ring holds `max_seq` = 3 events: only the tail survives.
        assert_eq!(engine.history(0).expect("known"), vec![3, 4, 5]);
        assert_eq!(engine.history(1).expect("known"), vec![7]);
        // Live appends continue the warmed sequence.
        engine.append_event(0, 9).expect("valid");
        assert_eq!(engine.history(0).expect("known"), vec![4, 5, 9]);
        // An out-of-vocabulary item anywhere rejects the load.
        ds.per_user[1].push(ev(10, 1));
        assert!(matches!(
            engine.warm_histories(&ds),
            Err(ServeError::UnknownItem { item: 10, n_items: 10 })
        ));
    }

    /// A scorer that panics on a poison candidate — for panic containment
    /// tests.
    struct Grenade(FrozenSeqFm);

    impl Scorer for Grenade {
        fn name(&self) -> &str {
            "grenade"
        }

        fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32] {
            if batch.targets.len() == 13 {
                panic!("grenade went off");
            }
            self.0.score(batch, scratch)
        }
    }

    #[test]
    fn worker_panic_is_drained_into_the_error_and_worker_survives() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let engine =
            Engine::new(Arc::new(Grenade(frozen_model(&layout))), layout, engine_cfg(1, 0))
                .expect("valid");
        // 13 candidates → the scorer panics mid-request.
        let boom = ScoreRequest::inline(1, vec![2], (0..13).collect::<Vec<u32>>());
        match engine.score(boom) {
            Err(ServeError::WorkerPanicked { message }) => {
                assert!(message.contains("grenade went off"), "panic text not drained: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The same (sole) worker keeps serving afterwards.
        let ok = ScoreRequest::inline(1, vec![2], vec![1, 2, 3]);
        assert_eq!(engine.score(ok).expect("valid").ranked.len(), 3);
    }

    #[test]
    fn reply_slots_are_reused_across_sequential_requests() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let engine =
            Engine::new(Arc::new(frozen_model(&layout)), layout, engine_cfg(2, 2)).expect("valid");
        let req = ScoreRequest::inline(0, vec![1], vec![2, 3, 4]);
        let first = engine.score(req.clone()).expect("valid");
        for _ in 0..50 {
            let again = engine.score(req.clone()).expect("valid");
            assert_eq!(again, first, "reused slot corrupted a response");
        }
        // Sequential round trips always reuse the caller's single parked
        // slot (each test runs on its own thread, so the count is exact).
        assert_eq!(parked_slots(), 1, "caller thread should hold one parked slot");
    }

    #[test]
    fn bad_configs_are_rejected_at_construction() {
        let layout = FeatureLayout { n_users: 4, n_items: 10 };
        let frozen = Arc::new(frozen_model(&layout));
        for cfg in [
            EngineConfig { max_seq: 0, ..Default::default() },
            EngineConfig { queue_capacity: 0, ..Default::default() },
            EngineConfig { coalesce_max: 0, ..Default::default() },
        ] {
            assert!(cfg.validate().is_err());
            match Engine::new(Arc::clone(&frozen), layout, cfg) {
                Err(ServeError::BadConfig { reason }) => {
                    assert!(!reason.is_empty(), "BadConfig must explain itself");
                }
                other => panic!("expected BadConfig for {cfg:?}, got {:?}", other.map(|_| ())),
            }
        }
        // The default configuration itself must of course be valid.
        EngineConfig::default().validate().expect("default config valid");
    }

    #[test]
    fn builder_mirrors_literal_construction_and_validates() {
        let built = EngineConfig::builder()
            .threads(3)
            .max_seq(7)
            .top_k(5)
            .queue_capacity(99)
            .coalesce_max(4)
            .build()
            .expect("valid");
        let literal =
            EngineConfig { threads: 3, max_seq: 7, top_k: 5, queue_capacity: 99, coalesce_max: 4 };
        assert_eq!(built, literal);
        assert!(matches!(
            EngineConfig::builder().max_seq(0).build(),
            Err(ServeError::BadConfig { .. })
        ));
    }

    /// Shared gate state: (worker entered, gate open).
    type Gate = Arc<(Mutex<(bool, bool)>, Condvar)>;

    /// A scorer whose first call parks until released — lets tests fill the
    /// admission queue deterministically while the worker is busy.
    struct Gated {
        inner: FrozenSeqFm,
        gate: Gate,
    }

    impl Gated {
        fn new(inner: FrozenSeqFm) -> (Self, Gate) {
            let gate = Arc::new((Mutex::new((false, false)), Condvar::new()));
            (Gated { inner, gate: Arc::clone(&gate) }, gate)
        }
    }

    /// Blocks until the gated worker has entered its first score call.
    fn await_entered(gate: &Gate) {
        let (lock, cv) = &**gate;
        let mut st = lock.lock().unwrap();
        while !st.0 {
            st = cv.wait(st).unwrap();
        }
    }

    /// Opens the gate, releasing the parked worker.
    fn open_gate(gate: &Gate) {
        let (lock, cv) = &**gate;
        lock.lock().unwrap().1 = true;
        cv.notify_all();
    }

    impl Scorer for Gated {
        fn name(&self) -> &str {
            "gated"
        }

        fn score<'s>(&self, batch: &Batch, scratch: &'s mut Scratch) -> &'s [f32] {
            let (lock, cv) = &*self.gate;
            let mut st = lock.lock().unwrap();
            st.0 = true;
            cv.notify_all();
            while !st.1 {
                st = cv.wait(st).unwrap();
            }
            drop(st);
            self.inner.score(batch, scratch)
        }
    }

    #[test]
    fn submit_sheds_load_with_overloaded_once_the_queue_is_full() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let (gated, gate) = Gated::new(frozen_model(&layout));
        let cfg = EngineConfig { threads: 1, max_seq: 6, queue_capacity: 2, ..Default::default() };
        let engine = Engine::new(Arc::new(gated), layout, cfg).expect("valid");
        let req = |u: u32| ScoreRequest::inline(u, vec![2], vec![1, 3]);

        // The worker picks up the first request and parks inside the scorer,
        // leaving the admission queue empty...
        let blocker = engine.submit(req(0)).expect("queue empty");
        await_entered(&gate);
        // ...so exactly `queue_capacity` more are admitted...
        let queued: Vec<_> =
            (1..=2).map(|u| engine.submit(req(u)).expect("under capacity")).collect();
        // ...and the next submit is shed with the explicit signal, handing
        // the request back untouched.
        match engine.submit(req(3)) {
            Err(ServeError::Overloaded { capacity, req: shed }) => {
                assert_eq!(capacity, 2);
                assert_eq!(*shed, req(3), "shed request must come back intact");
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        // Backpressure clears once the worker drains the backlog.
        open_gate(&gate);
        blocker.wait().expect("valid");
        for p in queued {
            p.wait().expect("valid");
        }
        engine.score(req(4)).expect("engine healthy after shedding");
    }

    #[test]
    fn submit_wait_parks_on_capacity_instead_of_shedding() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let (gated, gate) = Gated::new(frozen_model(&layout));
        let cfg = EngineConfig { threads: 1, max_seq: 6, queue_capacity: 1, ..Default::default() };
        let engine = Engine::new(Arc::new(gated), layout, cfg).expect("valid");
        let req = |u: u32| ScoreRequest::inline(u, vec![2], vec![1, 3]);

        let blocker = engine.submit(req(0)).expect("queue empty");
        await_entered(&gate);
        let filler = engine.submit(req(1)).expect("fills the queue");
        assert!(matches!(engine.submit(req(2)), Err(ServeError::Overloaded { .. })));
        // submit_wait must park (not shed) and complete once the gate opens.
        std::thread::scope(|s| {
            let parked = s.spawn(|| engine.submit_wait(req(3)).wait());
            open_gate(&gate);
            assert_eq!(parked.join().unwrap().expect("valid").ranked.len(), 2);
        });
        blocker.wait().expect("valid");
        filler.wait().expect("valid");
    }

    #[test]
    fn queued_requests_coalesce_and_match_serial_scoring_bit_for_bit() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let reference = frozen_model(&layout);
        let (gated, gate) = Gated::new(frozen_model(&layout));
        let cfg = EngineConfig {
            threads: 1,
            max_seq: 6,
            top_k: 0,
            queue_capacity: 64,
            coalesce_max: 8,
            ..Default::default()
        };
        let engine = Engine::new(Arc::new(gated), layout, cfg).expect("valid");
        // Park the worker, then pile up a mixed backlog: several share a
        // canonical history (including across users), others don't — one
        // wakeup drains and groups all.
        let blocker =
            engine.submit(ScoreRequest::inline(7, vec![1], vec![2])).expect("queue empty");
        await_entered(&gate);
        let backlog: Vec<ScoreRequest> = vec![
            ScoreRequest::inline(1, vec![2, 5], vec![0, 3, 9]),
            ScoreRequest::inline(1, vec![2, 5], vec![4]),
            ScoreRequest::inline(2, vec![], vec![7, 8]),
            ScoreRequest::inline(1, vec![5, 2], vec![0]),
            // Different user, same history — coalesces cross-user now.
            ScoreRequest::inline(3, vec![2, 5], vec![11, 0]),
        ];
        let pending: Vec<_> =
            backlog.iter().map(|r| engine.submit(r.clone()).expect("under capacity")).collect();
        open_gate(&gate);
        blocker.wait().expect("valid");
        let mut scratch = Scratch::new();
        for (req, p) in backlog.iter().zip(pending) {
            let got = p.wait().expect("valid");
            let want = score_request(&reference, &layout, 6, 0, req, &mut scratch).expect("valid");
            assert_eq!(got.ranked.len(), want.ranked.len());
            for (g, w) in got.ranked.iter().zip(&want.ranked) {
                assert_eq!(g.item, w.item, "coalesced ranking diverges for {req:?}");
                assert_eq!(
                    g.score.to_bits(),
                    w.score.to_bits(),
                    "coalesced score not bit-identical for {req:?}"
                );
            }
        }
    }

    #[test]
    fn dropped_pending_responses_recycle_their_slots() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let engine =
            Engine::new(Arc::new(frozen_model(&layout)), layout, engine_cfg(1, 0)).expect("valid");
        let req = ScoreRequest::inline(0, vec![1], vec![2, 3]);
        // With one FIFO worker, waiting on a *later* request guarantees the
        // earlier replies have been delivered into their slots.
        let abandoned: Vec<PendingResponse> =
            (0..4).map(|_| engine.submit(req.clone()).expect("under capacity")).collect();
        engine.score(req.clone()).expect("valid");
        // Pre-fix (PR 4), only `wait()` parked slots, so dropping these
        // leaked all four permanently; they now recycle onto the dropping
        // thread's parked stack.
        drop(abandoned);
        assert_eq!(parked_slots(), 5, "dropped pendings must park their slots for reuse");
        // The recycled slots serve fresh requests correctly.
        let want = engine.score(req.clone()).expect("valid");
        for _ in 0..8 {
            assert_eq!(engine.score(req.clone()).expect("valid"), want);
        }
        assert!(parked_slots() <= 5, "steady state must reuse, not grow, the parked stack");
    }

    #[test]
    fn overloaded_submits_do_not_leak_slots_either() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let (gated, gate) = Gated::new(frozen_model(&layout));
        let cfg = EngineConfig { threads: 1, max_seq: 6, queue_capacity: 1, ..Default::default() };
        let engine = Engine::new(Arc::new(gated), layout, cfg).expect("valid");
        let req = |u: u32| ScoreRequest::inline(u, vec![2], vec![1]);
        let blocker = engine.submit(req(0)).expect("queue empty");
        await_entered(&gate);
        let filler = engine.submit(req(1)).expect("fills the queue");
        for _ in 0..16 {
            assert!(matches!(engine.submit(req(2)), Err(ServeError::Overloaded { .. })));
        }
        // All shed submits recycled their slot: at most one was allocated
        // for the shed path, and it sits parked on this thread.
        assert!(parked_slots() <= 1);
        open_gate(&gate);
        blocker.wait().expect("valid");
        filler.wait().expect("valid");
    }

    #[test]
    fn dropping_the_engine_answers_in_flight_requests() {
        let layout = FeatureLayout { n_users: 8, n_items: 20 };
        let (gated, gate) = Gated::new(frozen_model(&layout));
        let cfg = EngineConfig { threads: 2, max_seq: 6, ..Default::default() };
        let engine = Engine::new(Arc::new(gated), layout, cfg).expect("valid");
        let req = |u: u32| ScoreRequest::inline(u, vec![1], vec![2, 3]);
        let blocker = engine.submit(req(0)).expect("queue empty");
        await_entered(&gate);
        // Queue a backlog behind the parked worker, then tear down while
        // all of it is in flight.
        let pending: Vec<_> =
            (1..6).map(|u| engine.submit(req(u)).expect("under capacity")).collect();
        open_gate(&gate);
        drop(engine); // closes the queue; workers drain the backlog and exit
        assert_eq!(blocker.wait().expect("answered").ranked.len(), 2);
        for p in pending {
            // Drain semantics: in-flight requests are answered, not dropped.
            assert_eq!(p.wait().expect("answered on teardown").ranked.len(), 2);
        }
    }

    #[test]
    fn a_job_destroyed_unanswered_surfaces_shutdown_to_its_caller() {
        // The ShutDown path end-to-end at the slot level: a queue destroyed
        // with jobs still inside (e.g. torn down with dead workers) drops
        // the jobs unanswered, and each waiting caller gets ShutDown — not
        // a hang and not a phantom response.
        let slot: Slot = Arc::new(Oneshot::new());
        let job = Job {
            req: ScoreRequest::inline(0, vec![], vec![1]),
            slot: Arc::clone(&slot),
            answered: false,
        };
        let pending = PendingResponse { slot: Some(slot) };
        drop(job); // queue destruction drops the job without a reply
        assert_eq!(pending.wait(), Err(ServeError::ShutDown));
        // The closed slot was parked on this thread — ShutDown does not
        // leak it.
        assert_eq!(parked_slots(), 1);
    }
}
