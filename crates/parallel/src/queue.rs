//! The one queue of this crate: a `Mutex` over a `VecDeque` and two
//! `Condvar`s. [`WorkQueue`] / [`WorkerHandle`] (the serving engine's
//! admission channel) and the thread pool's task queue
//! ([`pool`](crate::pool)) are both thin wrappers over [`Queue`].
//!
//! Everything a thread decides on — the items, `closed`, how many consumers
//! and producers are parked — lives in one [`State`] and is read and written
//! only under its lock, so there is no cross-thread protocol to argue about:
//! a thread that found its condition false is inside `wait` before anyone
//! else can change the condition. The parked counts exist for one reason:
//! `Condvar::notify_one` is a system call even when nobody waits, so a push
//! or pop notifies only when the count it read under the lock is non-zero.
//!
//! Closing the submitter lets workers **drain** everything already queued
//! before [`WorkerHandle::recv_many`] returns `false`, so in-flight work is
//! never dropped on shutdown. A queue built with [`WorkQueue::bounded`]
//! enforces an **admission bound**: [`WorkQueue::try_push`] refuses items
//! once `capacity` are queued (the backpressure signal an overload-aware
//! front door needs) and [`WorkQueue::push_wait`] parks the producer until a
//! consumer frees a slot. Consumers drain in bulk with
//! [`WorkerHandle::recv_many`] — the primitive batch coalescing is built on.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct State<T> {
    items: VecDeque<T>,
    /// `true` once the producing side is done; queued items stay poppable.
    closed: bool,
    /// Consumers inside `wake.wait` (or woken and not yet running again).
    parked_consumers: usize,
    /// Producers inside `space.wait`, likewise.
    parked_producers: usize,
}

/// See the module docs.
pub(crate) struct Queue<T> {
    state: Mutex<State<T>>,
    /// Queued-item bound; `usize::MAX` = unbounded (the thread pool).
    capacity: usize,
    /// Consumers park here on an empty queue.
    wake: Condvar,
    /// Producers park here on a full one.
    space: Condvar,
}

impl<T> Queue<T> {
    /// A queue refusing to hold more than `capacity` items (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Queue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                parked_consumers: 0,
                parked_producers: 0,
            }),
            capacity: capacity.max(1),
            wake: Condvar::new(),
            space: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("queue poisoned")
    }

    /// Enqueues `item` unless the queue already holds `capacity` items; on
    /// refusal the item is handed back untouched.
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        let st = self.lock();
        if st.items.len() >= self.capacity {
            return Err(item);
        }
        self.push_and_unlock(st, item);
        Ok(())
    }

    /// Enqueues `item`, parking while the queue is full until a pop frees
    /// capacity. Hands the item back only if the queue is closed while full.
    pub(crate) fn push_wait(&self, item: T) -> Result<(), T> {
        let mut st = self.lock();
        while st.items.len() >= self.capacity {
            if st.closed {
                return Err(item);
            }
            st.parked_producers += 1;
            st = self.space.wait(st).expect("queue poisoned");
            st.parked_producers -= 1;
        }
        self.push_and_unlock(st, item);
        Ok(())
    }

    fn push_and_unlock(&self, mut st: MutexGuard<'_, State<T>>, item: T) {
        st.items.push_back(item);
        let parked = st.parked_consumers > 0;
        drop(st);
        if parked {
            self.wake.notify_one();
        }
    }

    /// Parks until the queue holds an item and returns the lock over it;
    /// `None` once the queue is closed and drained.
    fn wait_for_item(&self) -> Option<MutexGuard<'_, State<T>>> {
        let mut st = self.lock();
        loop {
            if !st.items.is_empty() {
                return Some(st);
            }
            if st.closed {
                return None;
            }
            st.parked_consumers += 1;
            st = self.wake.wait(st).expect("queue poisoned");
            st.parked_consumers -= 1;
        }
    }

    /// Releases the lock after `popped` items left the queue and tells
    /// parked producers about the space.
    fn unlock_after_pop(&self, st: MutexGuard<'_, State<T>>, popped: usize) {
        let parked = st.parked_producers > 0;
        drop(st);
        match (parked, popped) {
            (false, _) => {}
            (true, 1) => self.space.notify_one(),
            (true, _) => self.space.notify_all(),
        }
    }

    /// Pops one item if one is queued. Never blocks.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut st = self.lock();
        let item = st.items.pop_front()?;
        self.unlock_after_pop(st, 1);
        Some(item)
    }

    /// Blocks for the next item; `None` once the queue is closed and
    /// drained.
    pub(crate) fn pop_or_park(&self) -> Option<T> {
        let mut st = self.wait_for_item()?;
        let item = st.items.pop_front();
        self.unlock_after_pop(st, 1);
        item
    }

    /// Bulk drain: blocks for the first item, then takes up to `max` that
    /// are queued under the same lock hold. Appends to `out` and returns
    /// `true`, or returns `false` once the queue is closed and drained.
    pub(crate) fn pop_many_or_park(&self, max: usize, out: &mut Vec<T>) -> bool {
        let Some(mut st) = self.wait_for_item() else {
            return false;
        };
        let n = max.min(st.items.len());
        out.extend(st.items.drain(..n));
        self.unlock_after_pop(st, n);
        true
    }

    /// Marks the queue closed and wakes every parked consumer and producer;
    /// already-queued items remain poppable (drain semantics).
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
        self.space.notify_all();
    }
}

/// Submitting half of the queue; dropping it closes the queue.
pub struct WorkQueue<T> {
    shared: Arc<Queue<T>>,
}

/// One worker's receiving endpoint; every handle pops the same FIFO and
/// parks when it is empty.
pub struct WorkerHandle<T> {
    shared: Arc<Queue<T>>,
}

impl<T> WorkQueue<T> {
    /// Creates a queue that admits at most `capacity` queued items (clamped
    /// to at least 1) and `workers` [`WorkerHandle`]s onto it (at least 1).
    /// Use [`WorkQueue::try_push`] / [`WorkQueue::push_wait`] to submit
    /// against the bound.
    pub fn bounded(workers: usize, capacity: usize) -> (Self, Vec<WorkerHandle<T>>) {
        let shared = Arc::new(Queue::new(capacity));
        let handles =
            (0..workers.max(1)).map(|_| WorkerHandle { shared: Arc::clone(&shared) }).collect();
        (WorkQueue { shared }, handles)
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Enqueues `item` unless the queue already holds
    /// [`capacity`](Self::capacity) items; on refusal the item is handed
    /// back untouched — the producer's non-blocking backpressure signal.
    ///
    /// # Errors
    /// `Err(item)` when the queue is at capacity.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        self.shared.try_push(item)
    }

    /// Enqueues `item`, parking the calling thread while the queue is at
    /// capacity; a consumer pop frees the producer. Only a closed queue can
    /// refuse, and closing requires dropping this submitter — so through a
    /// live `&WorkQueue` this never fails.
    pub fn push_wait(&self, item: T) {
        if self.shared.push_wait(item).is_err() {
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
    /// Bulk drain: blocks for the first item, then appends up to `max`
    /// already-queued items, oldest first, under one hold of the queue's
    /// lock and without blocking again. Returns `true` with at least one new
    /// item in `out`, or `false` once the submitter is dropped and the
    /// queue is drained. `max` is clamped to at least 1.
    pub fn recv_many(&self, max: usize, out: &mut Vec<T>) -> bool {
        self.shared.pop_many_or_park(max.max(1), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Drains `h` one item at a time until the queue is closed and empty.
    fn drain<T>(h: &WorkerHandle<T>) -> Vec<T> {
        let mut got = Vec::new();
        while h.recv_many(1, &mut got) {}
        got
    }

    #[test]
    fn every_item_is_received_exactly_once() {
        let (q, handles) = WorkQueue::<usize>::bounded(3, 1024);
        assert_eq!(handles.len(), 3);
        assert_eq!(q.capacity(), 1024);
        let collected = std::thread::scope(|s| {
            let joins: Vec<_> = handles.iter().map(|h| s.spawn(move || drain(h))).collect();
            for i in 0..300 {
                q.push_wait(i);
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
        // Any one handle of several sees everything, oldest first.
        let (q, handles) = WorkQueue::<u8>::bounded(2, 16);
        for i in 0..10 {
            assert_eq!(q.try_push(i), Ok(()));
        }
        drop(q);
        assert_eq!(drain(&handles[1]), (0..10).collect::<Vec<_>>());
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
        assert!(handles[0].recv_many(1, &mut Vec::new()));
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
                h.recv_many(1, &mut got);
            }
            producer.join().unwrap();
            assert_eq!(got, (0..30).collect::<Vec<_>>(), "one producer, one FIFO");
        });
    }

    #[test]
    fn recv_many_drains_up_to_max_without_blocking_for_more() {
        let (q, handles) = WorkQueue::<usize>::bounded(2, 16);
        for i in 0..7 {
            assert_eq!(q.try_push(i), Ok(()));
        }
        let h = &handles[0];
        let mut batch = Vec::new();
        // More than `max` queued: exactly `max` come out, the rest stay.
        assert!(h.recv_many(4, &mut batch));
        assert_eq!(batch, [0, 1, 2, 3]);
        // Second drain takes what's left — 3 items, not blocking for a 4th.
        let mut rest = Vec::new();
        assert!(h.recv_many(4, &mut rest));
        assert_eq!(rest, [4, 5, 6]);
        drop(q);
        let mut empty = Vec::new();
        assert!(!h.recv_many(4, &mut empty), "closed + drained must return false");
        assert!(empty.is_empty());
    }

    #[test]
    fn recv_many_blocks_for_the_first_item_only() {
        let (q, mut handles) = WorkQueue::<usize>::bounded(1, 16);
        let h = handles.remove(0);
        std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let mut batch = Vec::new();
                assert!(h.recv_many(8, &mut batch), "queue still open");
                batch
            });
            // The consumer parks until this arrives.
            std::thread::sleep(Duration::from_millis(20));
            q.push_wait(42);
            let batch = consumer.join().unwrap();
            assert_eq!(batch, vec![42]);
        });
    }

    #[test]
    fn closing_hands_parked_producers_their_own_items_back() {
        let q = &Queue::<usize>::new(2);
        assert_eq!(q.try_push(0), Ok(()));
        assert_eq!(q.try_push(1), Ok(()));
        std::thread::scope(|s| {
            let producers: Vec<_> =
                (10..14).map(|item| (item, s.spawn(move || q.push_wait(item)))).collect();
            // Close only once all four are parked on the full queue.
            while q.lock().parked_producers < 4 {
                std::thread::yield_now();
            }
            q.close();
            for (item, producer) in producers {
                assert_eq!(producer.join().unwrap(), Err(item));
            }
        });
        // What was queued before the close is still drained.
        let mut got = Vec::new();
        assert!(q.pop_many_or_park(8, &mut got));
        assert_eq!(got, [0, 1]);
        assert!(!q.pop_many_or_park(8, &mut got));
    }

    #[test]
    fn contended_tiny_queue_delivers_exactly_once_and_leaves_nobody_parked() {
        const PER_PRODUCER: usize = 5_000;
        // Every thread reports over a channel, so one left parked shows as
        // a missed deadline here, not as a hung test run.
        let deadline = Duration::from_secs(60);
        let (q, handles) = WorkQueue::<usize>::bounded(4, 2);
        let q = Arc::new(q);
        let (produced_tx, produced) = mpsc::channel();
        for p in 0..4 {
            let (q, produced_tx) = (Arc::clone(&q), produced_tx.clone());
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push_wait(p * PER_PRODUCER + i);
                }
                produced_tx.send(()).unwrap();
            });
        }
        let (received_tx, received) = mpsc::channel();
        for (c, h) in handles.into_iter().enumerate() {
            let received_tx = received_tx.clone();
            std::thread::spawn(move || {
                let (mut got, mut turn) = (Vec::new(), c);
                // Alternate single pops and bulk drains.
                while h.recv_many(if turn % 2 == 0 { 1 } else { 16 }, &mut got) {
                    turn += 1;
                }
                received_tx.send(got).unwrap();
            });
        }
        for _ in 0..4 {
            produced.recv_timeout(deadline).expect("a producer stayed parked");
        }
        drop(q); // the producers' clones are gone or going: the last drop closes
        let mut all = Vec::new();
        for _ in 0..4 {
            all.extend(received.recv_timeout(deadline).expect("a consumer stayed parked"));
        }
        all.sort_unstable();
        assert_eq!(all, (0..4 * PER_PRODUCER).collect::<Vec<_>>());
    }
}
