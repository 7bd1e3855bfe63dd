//! [`ArcSlot`]: one shared, swappable `Arc<T>` — a `RwLock<Arc<T>>`.
//!
//! The serving engine publishes a model snapshot by *swapping* the `Arc` in
//! this slot; every worker loads it once per drain. Either lock is held for
//! one pointer clone or exchange, and the slot keeps nothing alive: a
//! replaced value belongs to `store`'s caller and to earlier readers.

use std::sync::{Arc, PoisonError, RwLock};

/// An atomically swappable `Arc<T>` slot; see the module docs.
pub struct ArcSlot<T> {
    value: RwLock<Arc<T>>,
}

impl<T> ArcSlot<T> {
    /// A slot holding `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        ArcSlot { value: RwLock::new(initial) }
    }

    /// Clones the currently published `Arc` (uncontended: two atomic RMWs).
    pub fn load(&self) -> Arc<T> {
        // Poison is harmless: the only write is one `mem::replace`.
        Arc::clone(&self.value.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `new`, returning the previously published `Arc`. Readers
    /// that already loaded the old value keep it (epoch pinning); readers
    /// arriving after the store see `new`.
    pub fn store(&self, new: Arc<T>) -> Arc<T> {
        std::mem::replace(&mut *self.value.write().unwrap_or_else(PoisonError::into_inner), new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn load_returns_what_was_stored() {
        let slot = ArcSlot::new(Arc::new(1u32));
        assert_eq!(*slot.load(), 1);
        let prev = slot.store(Arc::new(2));
        assert_eq!(*prev, 1);
        assert_eq!(*slot.load(), 2);
        let prev = slot.store(Arc::new(3));
        assert_eq!(*prev, 2);
        assert_eq!(*slot.load(), 3);
    }

    #[test]
    fn old_arcs_survive_a_store() {
        let slot = ArcSlot::new(Arc::new(String::from("v0")));
        let pinned = slot.load();
        slot.store(Arc::new(String::from("v1")));
        slot.store(Arc::new(String::from("v2")));
        assert_eq!(pinned.as_str(), "v0", "pinned readers keep their epoch");
        assert_eq!(slot.load().as_str(), "v2");
    }

    #[test]
    fn drops_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = ArcSlot::new(Arc::new(Counted(Arc::clone(&drops))));
        for _ in 0..5 {
            slot.store(Arc::new(Counted(Arc::clone(&drops))));
        }
        // Every store hands the replaced value back and the slot keeps no
        // copy, so each of the 5 replaced values is gone as soon as its
        // returned `Arc` is; only the live one remains.
        assert_eq!(drops.load(Ordering::SeqCst), 5, "replaced values drop once each");
        drop(slot);
        assert_eq!(drops.load(Ordering::SeqCst), 6, "the resident drops with the slot");
    }

    #[test]
    fn a_replaced_value_is_released_at_once() {
        // The engine's values are whole model snapshots: a slot that parked
        // the replaced one until the *next* store would hold two resident.
        let first = Arc::new(1u32);
        let weak = Arc::downgrade(&first);
        let slot = ArcSlot::new(first);
        let previous = slot.store(Arc::new(2));
        drop(previous);
        assert!(weak.upgrade().is_none(), "the slot kept the value it replaced alive");
    }

    #[test]
    fn concurrent_loads_and_stores_never_tear() {
        // Published values carry a self-consistency pair; any torn or
        // use-after-free read would break it (or crash under a sanitizer).
        let slot = Arc::new(ArcSlot::new(Arc::new((0u64, !0u64))));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = slot.load();
                        assert_eq!(v.0, !v.1, "inconsistent pair: torn publish");
                        assert!(v.0 >= last, "generations must not run backwards");
                        last = v.0;
                    }
                });
            }
            for i in 1..=2000u64 {
                slot.store(Arc::new((i, !i)));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(slot.load().0, 2000);
    }
}
