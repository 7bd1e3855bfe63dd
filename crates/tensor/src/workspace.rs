//! Thread-local workspace arenas for kernel temporaries.
//!
//! Every hot kernel call used to bottom out in a `Tensor::zeros` (or a bare
//! `vec![0.0; ..]`) for its temporaries — packed matrix panels, attention
//! score blocks, softmax rows. A [`Workspace`] replaces those with a pool of
//! reusable `f32` buffers handed out as RAII [`WsBuf`] scopes: taking a
//! buffer pops the most-recently-returned one (LIFO, so a steady-state call
//! sequence gets back exactly the buffers it used last time), dropping the
//! guard parks it again. After a short warm-up every buffer has grown to its
//! high-water capacity and **steady-state kernel calls perform zero heap
//! allocations** — the property the serving path's counting-allocator test
//! pins down.
//!
//! Scoping model: a [`WsBuf`] *is* a checkpoint/reset scope. Taking it marks
//! the arena position; dropping it resets the arena to that mark (the buffer
//! returns to the pool for the next taker). Scopes nest freely — any number
//! of guards can be live at once, and an inner guard returning out of order
//! is harmless because each guard owns its storage. Buffers are **always
//! zero-filled on take**, so a reset scope can never leak stale values from
//! a larger earlier op into a smaller later one (see the tests). The one
//! exception is [`Workspace::take_vec_for_overwrite`], for a caller that
//! writes every element before it reads one.
//!
//! One `Workspace` belongs to one thread (`RefCell`/`Cell` inside — it is
//! `Send` but not `Sync`). Kernels that need scratch without a caller-
//! provided workspace use [`with_thread`], which hands out the calling
//! thread's own arena: each pool worker therefore packs its panels into its
//! own thread-local arena, with no sharing and no locks.

use std::cell::{Cell, RefCell};

/// A pool of reusable `f32` scratch buffers. See the module docs.
#[derive(Default)]
pub struct Workspace {
    /// Parked buffers, most recently returned last (LIFO reuse).
    pool: RefCell<Vec<Vec<f32>>>,
    /// Buffers currently checked out.
    live: Cell<usize>,
    /// Heap events observed: a buffer created from nothing or grown past
    /// its capacity. Stays flat once the arena is warm.
    heap_events: Cell<u64>,
}

impl Workspace {
    /// An empty arena. Buffers are created on demand and kept forever
    /// (until [`reset`](Self::reset)), so creation is free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zero-filled buffer of exactly `len` elements.
    ///
    /// The returned guard derefs to `[f32]` and parks its storage back in
    /// the arena on drop. The contents are **always** all-zero, regardless
    /// of what the previous user of the storage wrote — the workspace
    /// equivalent of `Tensor::zeros`, minus the allocation.
    pub fn take(&self, len: usize) -> WsBuf<'_> {
        WsBuf { buf: self.take_vec(len), ws: self }
    }

    /// Detached variant of [`take`](Self::take): a zero-filled `Vec<f32>` of
    /// length `len` whose storage the caller must eventually hand back via
    /// [`put_vec`](Self::put_vec) (or keep — leaking it to the global
    /// allocator is safe, just wasteful). This is the hook for consumers
    /// like the autograd tape whose buffers outlive any single scope.
    pub fn take_vec(&self, len: usize) -> Vec<f32> {
        let mut buf = self.pop_for(len);
        // clear + resize = one memset over exactly `len` slots; stale data
        // beyond `len` stays in capacity and is never observable.
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Like [`take_vec`](Self::take_vec), but initialised as a copy of
    /// `src` instead of zeros (skipping the intermediate zero-fill; every
    /// element is still fully defined, so the no-stale-leak guarantee
    /// holds). The pooled replacement for `Tensor::clone` on hot paths.
    pub fn take_vec_copy(&self, src: &[f32]) -> Vec<f32> {
        let mut buf = self.pop_for(src.len());
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Like [`take_vec`](Self::take_vec), but without the zero-fill: the
    /// `len` elements hold whatever the recycled storage held (zeros only
    /// where it grew), so the caller must overwrite every element before it
    /// reads one. For outputs a kernel writes in full (a gather, a
    /// LayerNorm), where the memset would be wasted.
    pub fn take_vec_for_overwrite(&self, len: usize) -> Vec<f32> {
        let mut buf = self.pop_for(len);
        buf.truncate(len);
        buf.resize(len, 0.0);
        buf
    }

    /// The storage every take starts from, counted live: the most recently
    /// parked buffer (a heap event if it cannot hold `len`), or a new empty
    /// one for a zero-length take. A zero-length take must not pop a pooled
    /// buffer: conditional empty takes (a view buffer only some batch kinds
    /// need) would otherwise shift the LIFO alignment and make unrelated
    /// slots grow to each other's high-water marks.
    fn pop_for(&self, len: usize) -> Vec<f32> {
        self.live.set(self.live.get() + 1);
        if len == 0 {
            return Vec::new();
        }
        let buf = self.pool.borrow_mut().pop().unwrap_or_default();
        if buf.capacity() < len {
            self.heap_events.set(self.heap_events.get() + 1);
        }
        buf
    }

    /// Returns a buffer previously obtained with
    /// [`take_vec`](Self::take_vec) to the pool.
    pub fn put_vec(&self, buf: Vec<f32>) {
        self.live.set(self.live.get().saturating_sub(1));
        if buf.capacity() > 0 {
            self.pool.borrow_mut().push(buf);
        }
    }

    /// Number of buffers currently checked out (live scopes).
    pub fn live(&self) -> usize {
        self.live.get()
    }

    /// Heap allocations this arena has had to perform (buffer creations and
    /// capacity growths). Flat across calls once warm — the assertion hook
    /// for zero-allocation tests and the kernels bench.
    pub fn heap_events(&self) -> u64 {
        self.heap_events.get()
    }

    /// Drops every parked buffer, returning the arena to its freshly-built
    /// state (memory released to the allocator, counters kept).
    pub fn reset(&mut self) {
        self.pool.get_mut().clear();
    }
}

/// RAII scope over one workspace buffer; derefs to `[f32]` and parks the
/// storage back into its [`Workspace`] on drop.
pub struct WsBuf<'ws> {
    buf: Vec<f32>,
    ws: &'ws Workspace,
}

impl std::ops::Deref for WsBuf<'_> {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for WsBuf<'_> {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for WsBuf<'_> {
    fn drop(&mut self) {
        self.ws.put_vec(std::mem::take(&mut self.buf));
    }
}

thread_local! {
    static THREAD_WS: Workspace = Workspace::new();
}

/// Runs `f` with the calling thread's own [`Workspace`].
///
/// This is how kernels reach scratch space without threading a workspace
/// parameter through every signature: the serving thread, each engine
/// worker, and each kernel-pool worker all get their own arena, warmed by
/// their own traffic.
pub fn with_thread<R>(f: impl FnOnce(&Workspace) -> R) -> R {
    THREAD_WS.with(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_lifo_without_reallocating() {
        let ws = Workspace::new();
        {
            let a = ws.take(64);
            let b = ws.take(32);
            assert_eq!(ws.live(), 2);
            assert_eq!((a.len(), b.len()), (64, 32));
        }
        assert_eq!(ws.live(), 0);
        let warm = ws.heap_events();
        // The scope dropped `b` then `a`, so LIFO hands `a`'s 64-capacity
        // buffer back first: the same take sequence re-runs with zero heap
        // traffic.
        for _ in 0..10 {
            let a = ws.take(64);
            let b = ws.take(32);
            assert_eq!((a.len(), b.len()), (64, 32));
        }
        assert_eq!(ws.heap_events(), warm, "steady state must not allocate");
    }

    #[test]
    fn reset_scope_never_leaks_stale_values_into_a_smaller_take() {
        let ws = Workspace::new();
        {
            let mut big = ws.take(128);
            big.fill(7.5); // poison the storage
        }
        // The smaller follow-up take may reuse the poisoned storage; every
        // visible element must still be zero.
        let small = ws.take(9);
        assert!(small.iter().all(|&v| v == 0.0), "stale values leaked: {:?}", &small[..]);
        // And a *larger* take than ever before is zeroed too.
        let huge = ws.take(256);
        assert!(huge.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn a_take_for_overwrite_skips_only_the_zero_fill() {
        let ws = Workspace::new();
        ws.put_vec(vec![f32::NAN; 8]);
        let warm = ws.heap_events();
        // Recycled storage keeps its stale values; only growth is zeroed.
        let v = ws.take_vec_for_overwrite(12);
        assert!(v[..8].iter().all(|x| x.is_nan()) && v[8..].iter().all(|&x| x == 0.0));
        assert_eq!((ws.live(), ws.heap_events()), (1, warm + 1));
        ws.put_vec(v);
        let v = ws.take_vec_for_overwrite(5);
        assert_eq!((v.len(), ws.heap_events()), (5, warm + 1), "a shrink is no heap event");
        assert!(ws.take_vec_for_overwrite(0).is_empty());
    }

    #[test]
    fn take_vec_round_trip_counts_live_and_heap_events() {
        let ws = Workspace::new();
        let v = ws.take_vec(16);
        assert_eq!(ws.live(), 1);
        assert_eq!(ws.heap_events(), 1);
        ws.put_vec(v);
        assert_eq!(ws.live(), 0);
        let v2 = ws.take_vec(16);
        assert_eq!(ws.heap_events(), 1, "reused capacity is not a heap event");
        // Growth past capacity is one.
        ws.put_vec(v2);
        let _v3 = ws.take_vec(1024);
        assert_eq!(ws.heap_events(), 2);
    }

    #[test]
    fn zero_length_takes_are_fine_and_do_not_disturb_the_pool() {
        let ws = Workspace::new();
        let b = ws.take(0);
        assert!(b.is_empty());
        assert_eq!(ws.live(), 1);
        drop(b);
        assert_eq!(ws.live(), 0);
        // A conditional empty take between two sized takes must not steal
        // the pooled buffer meant for the following take.
        drop(ws.take(64));
        let warm = ws.heap_events();
        let empty = ws.take(0);
        let sized = ws.take(64); // must reuse the 64-cap buffer
        assert_eq!((empty.len(), sized.len()), (0, 64));
        assert_eq!(ws.heap_events(), warm, "empty take shifted LIFO reuse");
    }

    #[test]
    fn reset_releases_parked_buffers() {
        let mut ws = Workspace::new();
        drop(ws.take(512));
        ws.reset();
        let before = ws.heap_events();
        drop(ws.take(512)); // must re-create after reset
        assert_eq!(ws.heap_events(), before + 1);
    }

    #[test]
    fn thread_local_arena_is_per_thread() {
        with_thread(|ws| drop(ws.take(32)));
        let warm = with_thread(|ws| ws.heap_events());
        with_thread(|ws| drop(ws.take(32)));
        assert_eq!(with_thread(|ws| ws.heap_events()), warm);
        // A different thread has its own arena starting cold.
        std::thread::spawn(|| {
            let fresh = with_thread(|ws| ws.heap_events());
            with_thread(|ws| drop(ws.take(32)));
            assert_eq!(with_thread(|ws| ws.heap_events()), fresh + 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn workspace_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Workspace>();
    }
}
