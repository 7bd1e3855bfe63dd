//! The incremental trainer behind the serving engine's hot-swap loop.
//!
//! [`OnlineTrainer`] owns a live `(SeqFm, ParamStore)` pair and consumes an
//! append-event stream — `(user, item)` interactions in arrival order,
//! typically drained from an engine's
//! [`EventLog`](seqfm_serve::EventLog). Events accumulate in a pending
//! buffer and are consumed in minibatches of **exactly**
//! [`OnlineConfig::batch_size`]; the remainder stays pending. That exact
//! cut is the chunking-invariance keystone: minibatch boundaries depend
//! only on the stream's event *ordinals*, never on how many events each
//! [`ingest`](OnlineTrainer::ingest) call happened to deliver, so an
//! offline replay of the logged stream walks the identical sequence of
//! minibatches.
//!
//! Each minibatch trains with the paper's BPR pairwise ranking loss
//! (Eq. 21) against the trainer's **shadow histories** — per-user bounded
//! rings maintained from the same event stream, mirroring the engine's
//! [`HistoryStore`](seqfm_serve::HistoryStore) without sharing state with
//! it. The event's user history *before* the event is the context, the
//! event's item is the positive, and one uniform negative is drawn from a
//! per-minibatch RNG seeded from `(seed, step)` — so randomness, too, is a
//! function of stream position alone. The gradient step is
//! [`Adam::sparse_step`]: per-row updates over exactly the embedding rows
//! the minibatch touched, bit-identical to the dense step on those rows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqfm_autograd::{FrozenParams, Graph, ModelEpoch, ParamStore};
use seqfm_core::train::bpr_loss;
use seqfm_core::{FrozenSeqFm, SeqFm, SeqModel};
use seqfm_data::{build_instance, Batch, FeatureLayout, Instance};
use seqfm_nn::Adam;
use seqfm_parallel::shard_seed;
use seqfm_serve::Engine;
use std::collections::VecDeque;
use std::sync::Arc;

/// Online-trainer configuration.
#[derive(Clone, Copy, Debug)]
pub struct OnlineConfig {
    /// Events per minibatch — consumed in **exact** multiples; a partial
    /// remainder stays pending until the stream fills it. Treated as ≥ 1.
    pub batch_size: usize,
    /// Minibatches between published snapshots. Treated as ≥ 1: every
    /// `publish_every`-th optimizer step freezes a versioned epoch.
    pub publish_every: usize,
    /// Adam learning rate. Online steps see far fewer repetitions per
    /// example than offline epochs, so this defaults lower than
    /// [`seqfm_core::TrainConfig`]'s.
    pub lr: f32,
    /// Maximum dynamic sequence length n˙ fed to the model — must match the
    /// serving engine's `max_seq` for the published model to see the same
    /// windows the engine serves.
    pub max_seq: usize,
    /// Seed for the per-minibatch RNG streams (negative sampling and
    /// training-mode dropout).
    pub seed: u64,
}

/// Published epochs retained for [`OnlineTrainer::rollback_to`].
const KEEP_EPOCHS: usize = 4;

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig { batch_size: 8, publish_every: 4, lr: 1e-3, max_seq: 20, seed: 42 }
    }
}

/// Incremental SeqFM trainer: event stream in, versioned
/// [`FrozenParams`] epochs out. See the module docs for the determinism
/// contract.
pub struct OnlineTrainer {
    model: SeqFm,
    ps: ParamStore,
    layout: FeatureLayout,
    cfg: OnlineConfig,
    opt: Adam,
    /// Reused tape — [`Graph::reset`] between steps keeps steady-state
    /// minibatches allocation-free, same as the offline loop.
    graph: Graph,
    /// Shadow per-user histories (most recent last), `max_seq` long: events
    /// beyond the model's window can never enter a context.
    histories: Vec<VecDeque<u32>>,
    /// Events ingested but not yet consumed by a full minibatch.
    pending: VecDeque<(u32, u32)>,
    /// Minibatches consumed so far — the RNG stream ordinal.
    step: u64,
    /// Minibatches since the last published snapshot.
    since_publish: usize,
    /// The last [`KEEP_EPOCHS`] published snapshots, oldest
    /// first — the rollback ring.
    ring: VecDeque<Arc<FrozenParams>>,
    /// Scratch for draining an engine's event log in [`OnlineTrainer::pump`].
    drain_buf: Vec<(u32, u32)>,
}

impl OnlineTrainer {
    /// Wraps a live model + parameter store (typically warm-started by the
    /// offline trainer) for incremental updates.
    pub fn new(model: SeqFm, ps: ParamStore, layout: FeatureLayout, cfg: OnlineConfig) -> Self {
        let lr = cfg.lr;
        let histories = (0..layout.n_users).map(|_| VecDeque::new()).collect();
        OnlineTrainer {
            model,
            ps,
            layout,
            cfg,
            opt: Adam::new(lr),
            graph: Graph::new(),
            histories,
            pending: VecDeque::new(),
            step: 0,
            since_publish: 0,
            ring: VecDeque::new(),
            drain_buf: Vec::new(),
        }
    }

    /// Feeds a slice of the event stream (in arrival order) into the
    /// trainer and returns every snapshot published while consuming it
    /// (possibly none, possibly several). Call granularity is
    /// behaviour-free: `ingest(a); ingest(b)` ≡ `ingest(a ++ b)`, bit for
    /// bit.
    ///
    /// # Panics
    /// Panics if an event's user is not below the layout's `n_users` or its
    /// item not below its `n_items`, naming the event, the id and the bound.
    /// The whole slice is checked before any of it is taken in, so a
    /// rejected slice leaves the trainer exactly as it was: nothing pending,
    /// no shadow history advanced, no step taken.
    pub fn ingest(&mut self, events: &[(u32, u32)]) -> Vec<Arc<FrozenParams>> {
        let FeatureLayout { n_users, n_items } = self.layout;
        for (i, &(u, item)) in events.iter().enumerate() {
            assert!(
                (u as usize) < n_users,
                "OnlineTrainer::ingest: event {i} names user {u}, outside the layout's {n_users} users"
            );
            assert!(
                (item as usize) < n_items,
                "OnlineTrainer::ingest: event {i} names item {item}, outside the layout's {n_items} items"
            );
        }
        self.pending.extend(events.iter().copied());
        let bs = self.cfg.batch_size.max(1);
        let mut published = Vec::new();
        while self.pending.len() >= bs {
            let minibatch: Vec<(u32, u32)> = self.pending.drain(..bs).collect();
            self.train_minibatch(&minibatch);
            self.since_publish += 1;
            if self.since_publish >= self.cfg.publish_every.max(1) {
                self.since_publish = 0;
                published.push(self.publish_snapshot());
            }
        }
        published
    }

    /// One BPR step over `events`: per-event contexts come from the shadow
    /// histories *as of that event* (events earlier in the minibatch are
    /// already folded in when a later event of the same user builds its
    /// context), then every event advances its user's ring.
    fn train_minibatch(&mut self, events: &[(u32, u32)]) {
        // Stream-position randomness: negatives and dropout for minibatch
        // `step` come from `(seed, step)` alone.
        let mut rng = StdRng::seed_from_u64(shard_seed(self.cfg.seed, self.step));
        let mut pos: Vec<Instance> = Vec::with_capacity(events.len());
        let mut neg: Vec<Instance> = Vec::with_capacity(events.len());
        let mut hist: Vec<u32> = Vec::new();
        for &(u, item) in events {
            hist.clear();
            hist.extend(self.histories[u as usize].iter().copied());
            let negative = sample_negative(&mut rng, self.layout.n_items, item);
            pos.push(build_instance(&self.layout, u, item, &hist, self.cfg.max_seq, 1.0));
            neg.push(build_instance(&self.layout, u, negative, &hist, self.cfg.max_seq, 0.0));
            self.push_history(u, item);
        }
        let pb = Batch::try_from_instances(&pos).expect("minibatches are non-empty");
        let nb = Batch::try_from_instances(&neg).expect("minibatches are non-empty");
        let g = &mut self.graph;
        g.reset();
        let (y_pos, y_neg) = self.model.forward_pair(g, &self.ps, &pb, &nb, true, &mut rng);
        let loss = bpr_loss(g, y_pos, y_neg);
        self.ps.zero_grads();
        g.backward(loss, &mut self.ps);
        self.opt.sparse_step(&mut self.ps).expect("finite online gradients");
        self.step += 1;
    }

    fn push_history(&mut self, u: u32, item: u32) {
        let cap = self.cfg.max_seq.max(1);
        let ring = &mut self.histories[u as usize];
        if ring.len() == cap {
            ring.pop_front();
        }
        ring.push_back(item);
    }

    /// Freezes the next monotone epoch and retires the rollback ring's
    /// oldest entry past [`KEEP_EPOCHS`].
    fn publish_snapshot(&mut self) -> Arc<FrozenParams> {
        let snap = self.ps.freeze_versioned();
        if self.ring.len() == KEEP_EPOCHS {
            self.ring.pop_front();
        }
        self.ring.push_back(Arc::clone(&snap));
        snap
    }

    /// Builds the servable frozen model for a published snapshot (the
    /// trainer's model config + the snapshot's parameters — the epoch stamp
    /// rides along).
    pub fn frozen_for(&self, snapshot: &Arc<FrozenParams>) -> FrozenSeqFm {
        FrozenSeqFm::from_params(Arc::clone(snapshot), *self.model.config())
    }

    /// The retained published epochs, oldest first.
    pub fn rollback_epochs(&self) -> Vec<ModelEpoch> {
        self.ring.iter().map(|s| s.epoch()).collect()
    }

    /// Re-materialises a previously published epoch for serving — the
    /// rollback path. The returned model carries the **original** epoch
    /// stamp, so its responses name exactly the model that was served
    /// before. An engine serves it as a new revision, with an index rebuilt
    /// for it and an empty view cache. Rollback is a *serving* decision:
    /// the trainer's own optimizer state keeps advancing from where it is.
    ///
    /// Returns `None` if `epoch` has aged out of the ring (or was never
    /// published).
    pub fn rollback_to(&self, epoch: ModelEpoch) -> Option<FrozenSeqFm> {
        self.ring.iter().find(|s| s.epoch() == epoch).map(|s| self.frozen_for(s))
    }

    /// The most recently published snapshot, if any.
    pub fn latest_snapshot(&self) -> Option<&Arc<FrozenParams>> {
        self.ring.back()
    }

    /// One turn of the full online-learning crank against a serving engine:
    /// drain its [`EventLog`](seqfm_serve::EventLog), ingest the events,
    /// and atomically publish every snapshot that produced via
    /// [`Engine::publish_frozen`]. Returns the epochs published (empty when
    /// the drained events didn't complete a publish interval — they stay
    /// pending for the next pump).
    ///
    /// The engine must have been built
    /// [`with_event_log`](seqfm_serve::Engine::with_event_log); a pump
    /// against an engine without one is a no-op.
    ///
    /// # Panics
    /// Panics as [`ingest`](Self::ingest) does on an out-of-range event; the
    /// drained events are then dropped and the trainer is unchanged.
    pub fn pump(&mut self, engine: &Engine) -> Vec<ModelEpoch> {
        let Some(log) = engine.event_log() else {
            return Vec::new();
        };
        let mut buf = std::mem::take(&mut self.drain_buf);
        buf.clear();
        log.drain_into(&mut buf);
        let snapshots = self.ingest(&buf);
        self.drain_buf = buf;
        snapshots.into_iter().map(|snap| engine.publish_frozen(self.frozen_for(&snap))).collect()
    }

    /// Minibatches consumed so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Events ingested but not yet consumed by a full minibatch.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }
}

/// Uniform negative over the catalog, rejecting the positive. A
/// single-item catalog has nothing to contrast against; the positive comes
/// back and BPR's σ(0) term contributes a constant gradient of zero-mean —
/// degenerate but well-defined.
fn sample_negative(rng: &mut StdRng, n_items: usize, positive: u32) -> u32 {
    if n_items <= 1 {
        return positive;
    }
    loop {
        let candidate = rng.gen_range(0..n_items as u32);
        if candidate != positive {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqfm_core::{Ablation, SeqFmConfig};

    fn layout() -> FeatureLayout {
        FeatureLayout { n_users: 5, n_items: 12 }
    }

    fn build(ab: Ablation) -> (SeqFm, ParamStore) {
        let cfg =
            SeqFmConfig { d: 8, max_seq: 6, dropout: 0.5, ablation: ab, ..Default::default() };
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let model = SeqFm::new(&mut ps, &mut rng, &layout(), cfg);
        (model, ps)
    }

    fn online_cfg() -> OnlineConfig {
        OnlineConfig { batch_size: 4, publish_every: 2, max_seq: 6, ..Default::default() }
    }

    /// A deterministic synthetic event stream: users cycle, items walk.
    fn stream(n: usize) -> Vec<(u32, u32)> {
        (0..n).map(|i| ((i % 5) as u32, ((i * 7 + 3) % 12) as u32)).collect()
    }

    fn assert_snapshots_identical(a: &[Arc<FrozenParams>], b: &[Arc<FrozenParams>], name: &str) {
        assert_eq!(a.len(), b.len(), "{name}: published snapshot counts differ");
        for (sa, sb) in a.iter().zip(b) {
            assert_eq!(sa.epoch(), sb.epoch(), "{name}: epoch stamps differ");
            for ((na, va), (nb, vb)) in sa.iter().zip(sb.iter()) {
                assert_eq!(na, nb, "{name}: parameter order differs");
                let (da, db) = (va.data(), vb.data());
                assert_eq!(da.len(), db.len(), "{name}: {na} sizes differ");
                for (i, (x, y)) in da.iter().zip(db).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name}: {na}[{i}] diverges ({x} vs {y})");
                }
            }
        }
    }

    /// The Table-V replay-parity guarantee: for every model variant, the
    /// online trajectory is a pure function of the event stream — replaying
    /// it with any call granularity (event-by-event, odd chunks, one shot)
    /// reproduces every published snapshot bit for bit, epochs included.
    #[test]
    fn replay_reproduces_the_online_trajectory_bit_for_bit() {
        for (name, ab) in Ablation::table5_variants() {
            let events = stream(40);

            let run = |chunk: usize| {
                let (model, ps) = build(ab);
                let mut tr = OnlineTrainer::new(model, ps, layout(), online_cfg());
                let mut published = Vec::new();
                for c in events.chunks(chunk) {
                    published.extend(tr.ingest(c));
                }
                published
            };

            let one_by_one = run(1);
            let odd_chunks = run(7);
            let one_shot = run(events.len());
            assert!(!one_shot.is_empty(), "{name}: stream should publish at least once");
            assert_snapshots_identical(&one_by_one, &odd_chunks, name);
            assert_snapshots_identical(&one_by_one, &one_shot, name);
        }
    }

    #[test]
    fn an_out_of_range_event_is_rejected_before_the_trainer_changes() {
        // An item past the catalog, then a user past the user count, in the
        // middle of a full minibatch: the slice panics naming the id and
        // the bound, and the trainer goes on exactly as a fresh one would.
        for (bad, what) in [
            ((2, 12), "item 12, outside the layout's 12 items"),
            ((5, 4), "user 5, outside the layout's 5 users"),
        ] {
            let (model, ps) = build(Ablation::default());
            let mut tr = OnlineTrainer::new(model, ps, layout(), online_cfg());
            let slice = [(0, 1), (1, 2), bad, (3, 4)];
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tr.ingest(&slice)))
                .expect_err("an out-of-range event was accepted");
            let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
            assert!(msg.contains(&format!("event 2 names {what}")), "unexpected panic: {msg}");
            assert_eq!((tr.steps(), tr.pending_events()), (0, 0), "{what}: the trainer moved");

            let (model, ps) = build(Ablation::default());
            let mut fresh = OnlineTrainer::new(model, ps, layout(), online_cfg());
            let events = stream(24);
            let (got, want) = (tr.ingest(&events), fresh.ingest(&events));
            assert!(!want.is_empty(), "the stream should publish");
            assert_snapshots_identical(&got, &want, what);
        }
    }

    #[test]
    fn partial_minibatches_stay_pending_until_the_stream_fills_them() {
        let (model, ps) = build(Ablation::default());
        let mut tr = OnlineTrainer::new(model, ps, layout(), online_cfg());
        // 3 events < batch_size 4: nothing trains, nothing publishes.
        assert!(tr.ingest(&stream(3)).is_empty());
        assert_eq!(tr.steps(), 0);
        assert_eq!(tr.pending_events(), 3);
        // One more completes the minibatch (step 1 of publish_every 2).
        assert!(tr.ingest(&stream(4)[3..]).is_empty());
        assert_eq!(tr.steps(), 1);
        assert_eq!(tr.pending_events(), 0);
    }

    #[test]
    fn rollback_ring_is_bounded_and_keeps_original_epoch_stamps() {
        let (model, ps) = build(Ablation::default());
        let mut tr = OnlineTrainer::new(model, ps, layout(), online_cfg());
        // batch 4 × publish_every 2 → one publish per 8 events.
        let published = tr.ingest(&stream(48));
        let epochs: Vec<u64> = published.iter().map(|s| s.epoch().get()).collect();
        assert_eq!(epochs, vec![1, 2, 3, 4, 5, 6], "epochs are monotone from 1");
        // Only the last KEEP_EPOCHS survive in the ring.
        assert_eq!(
            tr.rollback_epochs(),
            (3..=6).map(ModelEpoch).collect::<Vec<_>>(),
            "ring retains the newest four"
        );
        assert!(tr.rollback_to(ModelEpoch(2)).is_none(), "aged out");
        let rolled = tr.rollback_to(ModelEpoch(3)).expect("retained");
        assert_eq!(rolled.epoch(), ModelEpoch(3), "rollback keeps the original stamp");
        assert_eq!(tr.latest_snapshot().map(|s| s.epoch()), Some(ModelEpoch(6)));
    }
}
