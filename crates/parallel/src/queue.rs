//! The work-distributing channel behind the serving engine: per-worker
//! sharded FIFO queues with round-robin submission and stealing.
//!
//! Compared to a single shared MPMC queue, each push touches only one
//! shard's lock and each worker drains its own shard contention-free in the
//! common case; stealing preserves throughput under skew. Closing the
//! submitter lets workers **drain** everything already queued before their
//! `recv` returns `None`, so in-flight work is never dropped on shutdown.
//!
//! A queue built with [`WorkQueue::bounded`] additionally enforces an
//! **admission bound**: [`WorkQueue::try_push`] refuses items once
//! `capacity` are queued (the backpressure signal an overload-aware front
//! door needs) and [`WorkQueue::push_wait`] parks the producer until a
//! consumer frees a slot. Consumers can drain in bulk with
//! [`WorkerHandle::recv_many`] — the primitive batch-coalescing engines are
//! built on.
//!
//! The queue machinery itself — shard array, park/wake protocol, counter
//! discipline — is [`crate::shards::Shards`], shared with the thread pool.

use crate::shards::Shards;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Submitting half of the sharded queue; dropping it closes the queue.
pub struct WorkQueue<T> {
    shared: Arc<Shards<T>>,
    next: AtomicUsize,
}

/// One worker's receiving endpoint: pops its own shard first, steals from
/// siblings otherwise, parks when the whole queue is empty.
pub struct WorkerHandle<T> {
    shared: Arc<Shards<T>>,
    me: usize,
}

impl<T> WorkQueue<T> {
    /// Creates an unbounded queue with `workers` shards and one
    /// [`WorkerHandle`] per shard (clamped to at least 1).
    pub fn new(workers: usize) -> (Self, Vec<WorkerHandle<T>>) {
        Self::build(Shards::new(workers))
    }

    /// Creates a queue that admits at most `capacity` queued items across
    /// all shards (clamped to at least 1). Use [`WorkQueue::try_push`] /
    /// [`WorkQueue::push_wait`] to submit against the bound.
    pub fn bounded(workers: usize, capacity: usize) -> (Self, Vec<WorkerHandle<T>>) {
        Self::build(Shards::bounded(workers, capacity))
    }

    fn build(shards: Shards<T>) -> (Self, Vec<WorkerHandle<T>>) {
        let shared = Arc::new(shards);
        let handles =
            (0..shared.len()).map(|me| WorkerHandle { shared: Arc::clone(&shared), me }).collect();
        (WorkQueue { shared, next: AtomicUsize::new(0) }, handles)
    }

    /// Number of shards (== worker handles).
    pub fn shards(&self) -> usize {
        self.shared.len()
    }

    /// The admission bound (`usize::MAX` for an unbounded queue).
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Enqueues `item` on the next shard in round-robin order and wakes one
    /// parked worker. Ignores any capacity bound.
    pub fn push(&self, item: T) {
        self.shared.push(self.next.fetch_add(1, Ordering::Relaxed), item);
    }

    /// Enqueues `item` unless the queue already holds
    /// [`capacity`](Self::capacity) items; on refusal the item is handed
    /// back untouched — the producer's non-blocking backpressure signal.
    ///
    /// # Errors
    /// `Err(item)` when the queue is at capacity.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        self.shared.try_push(self.next.fetch_add(1, Ordering::Relaxed), item)
    }

    /// Enqueues `item`, parking the calling thread while the queue is at
    /// capacity; a consumer pop frees the producer. Only a closed queue can
    /// refuse, and closing requires dropping this submitter — so through a
    /// live `&WorkQueue` this never fails.
    pub fn push_wait(&self, item: T) {
        if self.shared.push_wait(self.next.fetch_add(1, Ordering::Relaxed), item).is_err() {
            unreachable!("queue closed while its submitter is alive");
        }
    }
}

impl<T> Drop for WorkQueue<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

impl<T> WorkerHandle<T> {
    /// Blocks for the next item (own shard first, then stealing). Returns
    /// `None` only once the submitter is dropped **and** every shard is
    /// drained.
    pub fn recv(&self) -> Option<T> {
        self.shared.pop_or_park(self.me)
    }

    /// Bulk drain: blocks for the first item, then greedily appends up to
    /// `max - 1` more already-queued items (own shard first, then stealing)
    /// without blocking again. Returns `true` with at least one new item in
    /// `out`, or `false` once the submitter is dropped and every shard is
    /// drained. `max` is clamped to at least 1.
    pub fn recv_many(&self, max: usize, out: &mut Vec<T>) -> bool {
        self.shared.pop_many_or_park(self.me, max.max(1), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_is_received_exactly_once() {
        let (q, handles) = WorkQueue::<usize>::new(3);
        assert_eq!(q.shards(), 3);
        assert_eq!(q.capacity(), usize::MAX);
        let collected = std::thread::scope(|s| {
            let joins: Vec<_> = handles
                .into_iter()
                .map(|h| {
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(i) = h.recv() {
                            got.push(i);
                        }
                        got
                    })
                })
                .collect();
            for i in 0..300 {
                q.push(i);
            }
            drop(q); // close → workers drain and exit
            joins.into_iter().flat_map(|j| j.join().unwrap()).collect::<Vec<_>>()
        });
        let mut got = collected;
        got.sort_unstable();
        assert_eq!(got, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn items_queued_before_close_are_drained() {
        let (q, mut handles) = WorkQueue::<u8>::new(2);
        for i in 0..10 {
            q.push(i);
        }
        drop(q);
        let h = handles.remove(0);
        let mut got = Vec::new();
        while let Some(i) = h.recv() {
            got.push(i);
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_serves_a_single_worker_everything() {
        // Round-robin spreads items over 4 shards, but one worker must still
        // see them all via stealing.
        let (q, handles) = WorkQueue::<usize>::new(4);
        for i in 0..40 {
            q.push(i);
        }
        drop(q);
        let h = &handles[2];
        let mut got = Vec::new();
        while let Some(i) = h.recv() {
            got.push(i);
        }
        got.sort_unstable();
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_queue_refuses_items_at_capacity_and_recovers_after_pops() {
        let (q, handles) = WorkQueue::<usize>::bounded(2, 3);
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.try_push(0), Ok(()));
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        // Full: the item comes back untouched.
        assert_eq!(q.try_push(7), Err(7));
        assert_eq!(q.try_push(8), Err(8));
        // One pop frees one admission slot.
        assert!(handles[0].recv().is_some());
        assert_eq!(q.try_push(9), Ok(()));
        assert_eq!(q.try_push(10), Err(10));
    }

    #[test]
    fn push_wait_parks_until_a_consumer_frees_capacity() {
        let (q, mut handles) = WorkQueue::<usize>::bounded(1, 2);
        q.push_wait(0);
        q.push_wait(1);
        let h = handles.remove(0);
        std::thread::scope(|s| {
            // Producer blocks on the full queue...
            let producer = s.spawn(|| {
                for i in 2..30 {
                    q.push_wait(i);
                }
            });
            // ...and makes progress exactly as the consumer drains.
            let mut got = Vec::new();
            while got.len() < 30 {
                if let Some(i) = h.recv() {
                    got.push(i);
                }
            }
            producer.join().unwrap();
            got.sort_unstable();
            assert_eq!(got, (0..30).collect::<Vec<_>>());
        });
    }

    #[test]
    fn recv_many_drains_up_to_max_without_blocking_for_more() {
        let (q, handles) = WorkQueue::<usize>::new(2);
        for i in 0..7 {
            q.push(i);
        }
        let h = &handles[0];
        let mut batch = Vec::new();
        // First drain: at most 4, stealing across both shards.
        assert!(h.recv_many(4, &mut batch));
        assert_eq!(batch.len(), 4);
        // Second drain takes what's left — 3 items, not blocking for a 4th.
        let mut rest = Vec::new();
        assert!(h.recv_many(4, &mut rest));
        assert_eq!(rest.len(), 3);
        let mut all: Vec<usize> = batch.into_iter().chain(rest).collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
        drop(q);
        let mut empty = Vec::new();
        assert!(!h.recv_many(4, &mut empty), "closed + drained must return false");
        assert!(empty.is_empty());
    }

    #[test]
    fn recv_many_blocks_for_the_first_item_only() {
        let (q, mut handles) = WorkQueue::<usize>::new(1);
        let h = handles.remove(0);
        std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let mut batch = Vec::new();
                assert!(h.recv_many(8, &mut batch), "queue still open");
                batch
            });
            // The consumer parks until this arrives.
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.push(42);
            let batch = consumer.join().unwrap();
            assert_eq!(batch, vec![42]);
        });
    }
}
