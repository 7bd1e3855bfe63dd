//! The stateful half of the serving layer: a sharded, concurrent
//! [`HistoryStore`] that owns every user's interaction sequence, and a
//! bounded [`ViewCache`] memoising each user's history-side forward work
//! ([`HistoryView`](seqfm_core::HistoryView)) across requests.
//!
//! With the store in place a request no longer ships its own history — it
//! arrives as `(user, candidates)`
//! ([`HistorySource::Stored`](crate::HistorySource)), the engine snapshots
//! the user's window under a shard read lock, and the frozen scorer reuses
//! the cached panel instead of recomputing it. Appends
//! ([`HistoryStore::append`]) bump a per-user **version**; the cache keys
//! entries by `(user, version, model epoch)`, so an append invalidates
//! lazily — the next lookup simply misses and rebuilds, with no eager
//! cross-shard coordination. The [`Engine`](crate::Engine) gives each model
//! revision a cache of its own, so a view never outlives the model that
//! built it there; the epoch in the key fences direct callers that share
//! one cache across models.
//!
//! Concurrency model: users are struck across `n_shards` shards
//! (`user % n_shards`), each behind its own `RwLock` — reads (snapshot into
//! a caller buffer) take the shard shared, appends take it exclusive. The
//! per-user window is a fixed-capacity **ring**: an append past capacity
//! overwrites the oldest event in place, so the store's memory is
//! `O(n_users × capacity)` forever, regardless of traffic.

use seqfm_core::{HistoryView, ModelEpoch};
use seqfm_data::Dataset;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

/// Fixed shard fan-out. Sixteen shards keep write contention negligible for
/// any realistic worker count while costing a handful of locks; the store's
/// hot path (snapshot reads) takes shards shared anyway.
const N_SHARDS: usize = 16;

/// One user's bounded history window: a ring of the most recent `capacity`
/// item ids plus a monotonically increasing version.
#[derive(Clone, Debug, Default)]
struct UserRing {
    /// Ring storage; logically the window `[head-len, head)` mod capacity.
    items: Vec<u32>,
    /// Next write position.
    head: usize,
    /// Valid entries (`<= capacity`).
    len: usize,
    /// Bumped on every append; `0` means "never written".
    version: u64,
}

impl UserRing {
    fn push(&mut self, item: u32, capacity: usize) -> u64 {
        if self.items.is_empty() {
            // Lazily sized: cold users cost a `Vec` header, nothing more.
            self.items = vec![0; capacity];
        }
        self.items[self.head] = item;
        self.head = (self.head + 1) % capacity;
        self.len = (self.len + 1).min(capacity);
        self.version += 1;
        self.version
    }

    /// Appends the window, oldest first, to `buf`.
    fn snapshot_into(&self, buf: &mut Vec<u32>) {
        let cap = self.items.len();
        for k in 0..self.len {
            buf.push(self.items[(self.head + cap - self.len + k) % cap]);
        }
    }
}

/// Sharded, concurrent in-process store of every user's recent history.
/// See the module docs for the locking and bounding model.
pub struct HistoryStore {
    /// Shard `s` holds user `u` (where `u % N_SHARDS == s`) at local index
    /// `u / N_SHARDS`.
    shards: Vec<RwLock<Vec<UserRing>>>,
    n_users: usize,
    capacity: usize,
}

impl HistoryStore {
    /// A store for `n_users` users, each keeping their most recent
    /// `capacity` events. `capacity` must be ≥ 1 (the engine defaults it to
    /// the model's `max_seq`).
    pub fn new(n_users: usize, capacity: usize) -> Self {
        assert!(capacity >= 1, "history capacity must be >= 1");
        let shards = (0..N_SHARDS)
            .map(|s| {
                let local = n_users / N_SHARDS + usize::from(s < n_users % N_SHARDS);
                RwLock::new(vec![UserRing::default(); local])
            })
            .collect();
        HistoryStore { shards, n_users, capacity }
    }

    /// Number of users the store covers.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Per-user window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn locate(&self, user: u32) -> (usize, usize) {
        let u = user as usize;
        (u % N_SHARDS, u / N_SHARDS)
    }

    /// Records one interaction at the end of `user`'s sequence, evicting
    /// the oldest event once the window is full. Returns the user's new
    /// history version. Item validation is the caller's job (the engine
    /// checks ids against its [`FeatureLayout`](seqfm_data::FeatureLayout)
    /// before they reach the store).
    ///
    /// # Panics
    /// Panics if `user >= n_users` (the engine validates first).
    pub fn append(&self, user: u32, item: u32) -> u64 {
        let (shard, idx) = self.locate(user);
        let mut rings = self.shards[shard].write().expect("store shard poisoned");
        rings[idx].push(item, self.capacity)
    }

    /// Copies `user`'s current window (chronological, oldest first) into
    /// `buf` — cleared first — and returns the matching version. One shard
    /// read lock; the `(items, version)` pair is atomic with respect to
    /// concurrent appends.
    ///
    /// # Panics
    /// Panics if `user >= n_users`.
    pub fn snapshot_into(&self, user: u32, buf: &mut Vec<u32>) -> u64 {
        buf.clear();
        let (shard, idx) = self.locate(user);
        let rings = self.shards[shard].read().expect("store shard poisoned");
        rings[idx].snapshot_into(buf);
        rings[idx].version
    }

    /// Allocating convenience over [`HistoryStore::snapshot_into`].
    pub fn snapshot(&self, user: u32) -> (Vec<u32>, u64) {
        let mut buf = Vec::new();
        let version = self.snapshot_into(user, &mut buf);
        (buf, version)
    }

    /// `user`'s current history version (`0` = never written).
    pub fn version(&self, user: u32) -> u64 {
        let (shard, idx) = self.locate(user);
        self.shards[shard].read().expect("store shard poisoned")[idx].version
    }

    /// Bulk-loads a dataset's per-user sequences (warm-up): each user's
    /// events are appended in chronological order, so the store ends up
    /// holding the last `capacity` of them. Returns the number of events
    /// loaded. Users beyond `n_users` are ignored (the caller sized the
    /// store from the layout that also sized the model).
    pub fn load_dataset(&self, ds: &Dataset) -> usize {
        let mut loaded = 0usize;
        for (u, events) in ds.per_user.iter().enumerate().take(self.n_users) {
            // Only the window tail can survive; skip the rest of the walk.
            let tail = events.len().saturating_sub(self.capacity);
            let (shard, idx) = self.locate(u as u32);
            let mut rings = self.shards[shard].write().expect("store shard poisoned");
            for e in &events[tail..] {
                rings[idx].push(e.item, self.capacity);
            }
            // Versions count *all* events, so warm-up then live appends
            // stay monotone even for users whose prefix was skipped.
            rings[idx].version = events.len() as u64;
            loaded += events.len();
        }
        loaded
    }
}

/// Cache hit/miss counters and current occupancy of a [`ViewCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a current-version view.
    pub hits: u64,
    /// Lookups that found nothing (or a stale version).
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheEntry {
    /// History version the view was built at.
    version: u64,
    /// Model epoch of the scorer that built the view. A history-side panel
    /// bakes in model parameters, so after a hot swap an entry stamped with
    /// the retired epoch must read as stale even though the user's history
    /// never moved — pre-fix the cache keyed on `(user, version)` alone and
    /// would have replayed old-model panels under the new model.
    epoch: ModelEpoch,
    view: Arc<HistoryView>,
    /// CLOCK reference bit: set by a hit, cleared (in exchange for a second
    /// chance) when the eviction sweep passes over the entry.
    referenced: bool,
}

struct CacheShard {
    map: HashMap<u32, CacheEntry>,
    /// Sweep order for second-chance (CLOCK) eviction.
    queue: VecDeque<u32>,
}

/// Bounded, sharded cache of [`HistoryView`]s keyed by
/// `(user, version, model epoch)`.
///
/// Invalidation is **lazy** along both key axes:
/// [`HistoryStore::append`] bumps the user's version, and a hot model swap
/// advances the serving [`ModelEpoch`], so the next [`ViewCache::get`] with
/// the fresh version or epoch misses (and counts as a miss) without the
/// appender — or the publisher — ever touching the cache.
/// Eviction is per-shard **second-chance CLOCK** once `max_entries` is
/// reached: a hit sets the entry's reference bit; the sweep pops the oldest
/// entry and, if its bit is set, clears it and requeues the entry instead of
/// evicting — so repeatedly-hit users survive bursts of one-shot traffic
/// that plain FIFO would let flush the whole shard. Freshly inserted (and
/// refreshed) entries start with the bit clear: an entry earns its second
/// chance only through an actual hit.
///
/// Entries of users on the **same canonical window** share one view: a
/// miss that has to build goes through [`ViewCache::shared_or_build`], which
/// first looks the window up by content in a table of the views still alive
/// in some entry. Repeat-heavy traffic — many users on a few trending
/// windows — then holds one view per distinct window, not one per user.
pub struct ViewCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Per-shard entry bound (total bound split evenly, min 1).
    per_shard: usize,
    /// Hit and miss counters, shared with every [`ViewCache::successor`].
    counts: Arc<HitCounts>,
    shared: Mutex<SharedViews>,
}

#[derive(Default)]
struct HitCounts {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The views currently alive in some cache entry (or in flight), by
/// content: `(model epoch, padded dynamic row)`. The table holds [`Weak`]s,
/// so it never keeps a view alive — eviction and invalidation free views
/// exactly as before — and the epoch in the key means a view built under a
/// retired model can never be handed out under its successor.
#[derive(Default)]
struct SharedViews {
    map: HashMap<(ModelEpoch, Vec<i64>), Weak<HistoryView>>,
    /// Table size at which the next insert sweeps dead entries. Doubling
    /// it after each sweep keeps the table within 2× the live views at
    /// amortised O(1) per insert.
    sweep_at: usize,
}

impl ViewCache {
    /// A cache holding at most `max_entries` views (must be ≥ 1).
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 1, "view cache must hold at least one entry");
        Self::empty(max_entries.div_ceil(N_SHARDS), Arc::default())
    }

    /// An empty cache of the same bound that counts its hits and misses
    /// into this cache's counters — the cache of the next model revision,
    /// so [`ViewCache::stats`] stays monotone across a publish while no
    /// view built by one model is ever seen by the next.
    pub(crate) fn successor(&self) -> Self {
        Self::empty(self.per_shard, Arc::clone(&self.counts))
    }

    fn empty(per_shard: usize, counts: Arc<HitCounts>) -> Self {
        let shards = (0..N_SHARDS)
            .map(|_| Mutex::new(CacheShard { map: HashMap::new(), queue: VecDeque::new() }))
            .collect();
        ViewCache { shards, per_shard, counts, shared: Mutex::new(SharedViews::default()) }
    }

    /// The view for `dyn_row` under model `epoch` to install after a miss:
    /// the one another user on the same window already holds, else `build`'s
    /// (registered for the next miss on that window). `None` only if
    /// `build` declines. `build` runs outside the table lock; when two
    /// threads race to build the same window, both get the first one
    /// registered — the views are bit-identical by construction.
    pub fn shared_or_build(
        &self,
        epoch: ModelEpoch,
        dyn_row: &[i64],
        build: impl FnOnce() -> Option<HistoryView>,
    ) -> Option<Arc<HistoryView>> {
        let key = (epoch, dyn_row.to_vec());
        let live = |t: &SharedViews| t.map.get(&key).and_then(Weak::upgrade);
        if let Some(view) = live(&self.shared.lock().expect("shared views poisoned")) {
            return Some(view);
        }
        let built = Arc::new(build()?);
        let mut table = self.shared.lock().expect("shared views poisoned");
        if let Some(view) = live(&table) {
            return Some(view);
        }
        if table.map.len() >= table.sweep_at {
            table.map.retain(|_, w| w.strong_count() > 0);
            table.sweep_at = (2 * table.map.len()).max(16);
        }
        table.map.insert(key, Arc::downgrade(&built));
        Some(built)
    }

    /// The cached view for `user` **iff** it was built at exactly
    /// `version` under exactly the model `epoch`; a stale or absent entry —
    /// stale history *or* stale model — is a miss.
    pub fn get(&self, user: u32, version: u64, epoch: ModelEpoch) -> Option<Arc<HistoryView>> {
        let mut shard = self.shards[user as usize % N_SHARDS].lock().expect("view cache poisoned");
        match shard.map.get_mut(&user) {
            Some(e) if e.version == version && e.epoch == epoch => {
                e.referenced = true; // CLOCK: a hit earns a second chance
                self.counts.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.view))
            }
            _ => {
                self.counts.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Installs (or refreshes) `user`'s view for `version` under model
    /// `epoch`, running the second-chance sweep if the shard is over
    /// capacity. Concurrent duplicate builds are benign — the views are
    /// bit-identical by construction under one `(version, epoch)` key, so
    /// last write wins.
    pub fn insert(&self, user: u32, version: u64, epoch: ModelEpoch, view: Arc<HistoryView>) {
        let mut shard = self.shards[user as usize % N_SHARDS].lock().expect("view cache poisoned");
        if shard.map.insert(user, CacheEntry { version, epoch, view, referenced: false }).is_none()
        {
            shard.queue.push_back(user);
            while shard.map.len() > self.per_shard {
                let Some(cand) = shard.queue.pop_front() else { break };
                match shard.map.get_mut(&cand) {
                    Some(e) if e.referenced => {
                        // Second chance: trade the reference bit for
                        // another lap of the queue. Terminates — every
                        // requeue clears a bit and nothing sets bits while
                        // the shard lock is held.
                        e.referenced = false;
                        shard.queue.push_back(cand);
                    }
                    _ => {
                        shard.map.remove(&cand);
                    }
                }
            }
        }
    }

    /// Drops `user`'s entry (eager invalidation; appends don't need it —
    /// version checks already fence staleness — but tests and explicit
    /// resets do).
    pub fn invalidate(&self, user: u32) {
        let mut shard = self.shards[user as usize % N_SHARDS].lock().expect("view cache poisoned");
        if shard.map.remove(&user).is_some() {
            shard.queue.retain(|&u| u != user);
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counts.hits.load(Ordering::Relaxed),
            misses: self.counts.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("view cache poisoned").map.len())
                .sum(),
        }
    }
}

/// The history-resolution context of the stateful scoring path
/// ([`crate::score_requests_stateful`]): the store that
/// [`HistorySource::Stored`](crate::HistorySource) requests snapshot from,
/// plus an optional view cache for the scorer's history-side panels.
#[derive(Clone, Copy)]
pub struct HistoryBackend<'a> {
    /// Where stored histories live.
    pub store: &'a HistoryStore,
    /// Incremental view cache; `None` disables caching (views are then
    /// built per drain and dropped).
    pub cache: Option<&'a ViewCache>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_windows_are_bounded_and_chronological() {
        let store = HistoryStore::new(3, 4);
        assert_eq!(store.capacity(), 4);
        assert_eq!(store.n_users(), 3);
        assert_eq!(store.snapshot(1), (vec![], 0));
        for item in 0..6u32 {
            store.append(1, item * 10);
        }
        // Six appends into a 4-window: only the last four survive.
        let (items, version) = store.snapshot(1);
        assert_eq!(items, vec![20, 30, 40, 50]);
        assert_eq!(version, 6);
        // Other users untouched.
        assert_eq!(store.snapshot(0), (vec![], 0));
        assert_eq!(store.version(2), 0);
    }

    #[test]
    fn snapshot_into_reuses_the_buffer() {
        let store = HistoryStore::new(20, 3);
        store.append(17, 5);
        store.append(17, 6);
        let mut buf = vec![99, 99, 99, 99];
        let v = store.snapshot_into(17, &mut buf);
        assert_eq!((buf.as_slice(), v), ([5, 6].as_slice(), 2));
    }

    #[test]
    fn dataset_bulk_load_fills_window_tails() {
        use seqfm_data::{ranking::RankingConfig, Scale};
        let mut cfg = RankingConfig::gowalla(Scale::Small);
        cfg.n_users = 10;
        cfg.n_items = 40;
        cfg.min_len = 3;
        cfg.max_len = 9;
        let ds = seqfm_data::ranking::generate(&cfg).unwrap();
        let store = HistoryStore::new(ds.n_users, 5);
        let loaded = store.load_dataset(&ds);
        assert_eq!(loaded, ds.n_instances());
        for (u, events) in ds.per_user.iter().enumerate() {
            let (items, version) = store.snapshot(u as u32);
            let tail: Vec<u32> =
                events[events.len().saturating_sub(5)..].iter().map(|e| e.item).collect();
            assert_eq!(items, tail, "user {u} window is not the sequence tail");
            assert_eq!(version as usize, events.len(), "user {u} version");
        }
        // Appending after warm-up keeps versions strictly monotone.
        let before = store.version(0);
        assert_eq!(store.append(0, 1), before + 1);
    }

    #[test]
    fn cache_is_versioned_bounded_and_counted() {
        let e0 = ModelEpoch::ZERO;
        let cache = ViewCache::new(N_SHARDS); // one entry per shard
        let view = Arc::new(HistoryView::default());
        assert!(cache.get(3, 1, e0).is_none()); // miss: absent
        cache.insert(3, 1, e0, Arc::clone(&view));
        assert!(cache.get(3, 1, e0).is_some()); // hit
        assert!(cache.get(3, 2, e0).is_none()); // miss: stale version
        cache.insert(3, 2, e0, Arc::clone(&view));
        assert!(cache.get(3, 2, e0).is_some()); // refreshed in place, now referenced
                                                // Same shard (user 3 + N_SHARDS), capacity 1: user 3 was hit
                                                // since its refresh, so CLOCK gives it a second chance and the
                                                // unreferenced newcomer is the sweep's victim instead.
        cache.insert(3 + N_SHARDS as u32, 1, e0, Arc::clone(&view));
        assert!(cache.get(3, 2, e0).is_some());
        assert!(cache.get(3 + N_SHARDS as u32, 1, e0).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (3, 3, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        cache.invalidate(3);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn a_hot_swapped_model_epoch_invalidates_like_an_append() {
        let cache = ViewCache::new(8);
        let view = Arc::new(HistoryView::default());
        cache.insert(5, 7, ModelEpoch(1), Arc::clone(&view));
        assert!(cache.get(5, 7, ModelEpoch(1)).is_some(), "exact key hits");
        // Same user, same history version, newer model: the entry's panel
        // bakes in retired parameters and must not be served.
        assert!(cache.get(5, 7, ModelEpoch(2)).is_none(), "stale epoch must miss");
        // A rollback republishing the *original* epoch stamp makes the old
        // entry bitwise-valid again — the key is identity, not recency.
        cache.insert(5, 7, ModelEpoch(2), Arc::clone(&view));
        assert!(cache.get(5, 7, ModelEpoch(2)).is_some());
        assert!(cache.get(5, 7, ModelEpoch(1)).is_none(), "refresh replaced the old epoch");
    }

    #[test]
    fn shared_views_are_per_epoch_weak_and_swept() {
        let cache = ViewCache::new(8);
        let builds = std::cell::Cell::new(0u32);
        let build = || {
            builds.set(builds.get() + 1);
            Some(HistoryView::default())
        };
        let (e1, e2) = (ModelEpoch(1), ModelEpoch(2));
        let a = cache.shared_or_build(e1, &[-1, 4, 9], build).expect("built");
        let b = cache.shared_or_build(e1, &[-1, 4, 9], build).expect("shared");
        assert!(Arc::ptr_eq(&a, &b), "same window, same epoch: one view");
        assert_eq!(builds.get(), 1);
        // Another window, and the same window under another epoch, build.
        let c = cache.shared_or_build(e1, &[4, 9, 2], build).expect("built");
        let d = cache.shared_or_build(e2, &[-1, 4, 9], build).expect("built");
        assert!(!Arc::ptr_eq(&a, &c) && !Arc::ptr_eq(&a, &d));
        assert_eq!(builds.get(), 3);
        // The table holds no view alive: once every holder lets go, the
        // next request for that window builds afresh.
        drop((a, b));
        let again = cache.shared_or_build(e1, &[-1, 4, 9], build).expect("rebuilt");
        assert_eq!(builds.get(), 4);
        assert_eq!(Arc::strong_count(&again), 1);
        // Churn through many short-lived windows: dead entries are swept,
        // so the table tracks the live views, not everything ever built.
        for i in 0..1000i64 {
            cache.shared_or_build(e1, &[i], build).expect("built");
        }
        let table = cache.shared.lock().expect("not poisoned");
        assert!(table.map.len() <= 2 * 16, "dead entries not swept: {}", table.map.len());
        // A build that declines registers nothing.
        drop(table);
        assert!(cache.shared_or_build(e2, &[7], || None).is_none());
    }

    #[test]
    fn a_successor_starts_empty_keeps_the_bound_and_shares_the_counters() {
        let e0 = ModelEpoch::ZERO;
        let cache = ViewCache::new(N_SHARDS); // one entry per shard
        let view = Arc::new(HistoryView::default());
        cache.insert(3, 1, e0, Arc::clone(&view));
        assert!(cache.get(3, 1, e0).is_some());
        assert!(cache.get(4, 1, e0).is_none());
        let next = cache.successor();
        assert_eq!(next.stats(), CacheStats { hits: 1, misses: 1, entries: 0 });
        // The same key misses: no view crosses into the successor.
        assert!(next.get(3, 1, e0).is_none());
        // One entry per shard, as in its predecessor.
        next.insert(3, 1, e0, Arc::clone(&view));
        next.insert(3 + N_SHARDS as u32, 1, e0, Arc::clone(&view));
        assert!(next.get(3 + N_SHARDS as u32, 1, e0).is_some());
        // Both caches count into one pair of counters.
        let want = CacheStats { hits: 2, misses: 2, entries: 1 };
        assert_eq!(next.stats(), want);
        assert_eq!(cache.stats(), want);
        let shared = cache.shared_or_build(e0, &[1, 2], || Some(HistoryView::default()));
        let fresh = next.shared_or_build(e0, &[1, 2], || Some(HistoryView::default()));
        assert!(!Arc::ptr_eq(&shared.expect("built"), &fresh.expect("built")));
    }

    #[test]
    fn clock_keeps_repeatedly_hit_entries_over_cold_ones() {
        let e0 = ModelEpoch::ZERO;
        let cache = ViewCache::new(2 * N_SHARDS); // two entries per shard
        let view = Arc::new(HistoryView::default());
        // Three users on the same shard.
        let (hot, cold, newcomer) = (3u32, 3 + N_SHARDS as u32, 3 + 2 * N_SHARDS as u32);
        cache.insert(hot, 1, e0, Arc::clone(&view));
        cache.insert(cold, 1, e0, Arc::clone(&view));
        // Hit `hot` so its reference bit is set; `cold` is never touched.
        assert!(cache.get(hot, 1, e0).is_some());
        // At capacity 2 the third insert forces a sweep. `hot` is first in
        // queue order — plain FIFO would evict it — but its reference bit
        // buys a second chance and the sweep falls through to `cold`.
        cache.insert(newcomer, 1, e0, Arc::clone(&view));
        assert!(cache.get(hot, 1, e0).is_some(), "hit entry must survive the sweep");
        assert!(cache.get(cold, 1, e0).is_none(), "cold entry is the eviction victim");
        assert!(cache.get(newcomer, 1, e0).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn concurrent_appends_and_snapshots_stay_consistent() {
        // Hammer one store from many threads: every snapshot must be a
        // window of one user's own items, bounded by capacity, with a
        // version that matches the items seen (the per-item encoding below
        // makes torn or cross-user reads detectable).
        const USERS: u32 = 8;
        const APPENDS: u32 = 200;
        const CAP: usize = 7;
        let store = Arc::new(HistoryStore::new(USERS as usize, CAP));
        std::thread::scope(|s| {
            for u in 0..USERS {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for k in 0..APPENDS {
                        // Encode (user, sequence number) into the item id.
                        let v = store.append(u, u * APPENDS + k);
                        assert_eq!(v, (k + 1) as u64, "versions must be per-user monotone");
                    }
                });
            }
            for u in 0..USERS {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let mut buf = Vec::new();
                    let mut last_version = 0u64;
                    for _ in 0..500 {
                        let version = store.snapshot_into(u, &mut buf);
                        assert!(version >= last_version, "version went backwards");
                        assert!(buf.len() <= CAP, "window exceeded capacity");
                        assert!(buf.len() as u64 <= version.max(CAP as u64));
                        for w in buf.windows(2) {
                            assert_eq!(w[1], w[0] + 1, "snapshot not contiguous: {buf:?}");
                        }
                        for &item in &buf {
                            assert_eq!(item / APPENDS, u, "cross-user contamination");
                        }
                        if version > 0 {
                            // The newest item pins the version: item k is
                            // written by append k+1.
                            assert_eq!(
                                u64::from(buf[buf.len() - 1] % APPENDS) + 1,
                                version,
                                "snapshot items and version are torn"
                            );
                        }
                        last_version = version;
                    }
                });
            }
        });
        // Final state: every user holds exactly the last CAP items.
        for u in 0..USERS {
            let (items, version) = store.snapshot(u);
            assert_eq!(version, u64::from(APPENDS));
            let want: Vec<u32> = (APPENDS - CAP as u32..APPENDS).map(|k| u * APPENDS + k).collect();
            assert_eq!(items, want);
        }
    }
}
