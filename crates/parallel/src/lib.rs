#![warn(missing_docs)]

//! # seqfm-parallel
//!
//! The workspace's parallelism subsystem — built entirely on `std`
//! (`Mutex` / `Condvar` / threads), because the build environment is
//! offline.
//!
//! One queue sits under everything that hands work to another thread: a
//! `Mutex` over a `VecDeque` with a condvar per direction, every park/wake
//! condition read and written under that one lock (`queue.rs`). The
//! facilities, bottom-up:
//!
//! * [`WorkQueue`] / [`WorkerHandle`] — that queue as the serving engine's
//!   admission channel: capacity-[`bounded`](WorkQueue::bounded), a
//!   non-blocking [`try_push`](WorkQueue::try_push) backpressure signal, a
//!   parking [`push_wait`](WorkQueue::push_wait), bulk
//!   [`recv_many`](WorkerHandle::recv_many) draining under one lock hold
//!   (what batch coalescing is built on), drain-on-close.
//! * [`ThreadPool`] — persistent worker threads popping boxed tasks off the
//!   same queue, unbounded. [`ThreadPool::scope`] lets tasks borrow from the
//!   caller's stack frame (crossbeam-style), and a blocked scope *helps* by
//!   executing queued tasks, so nested scopes cannot deadlock the pool.
//! * [`par_units`] — fans `N` unit-aligned buffers out over the pool in
//!   contiguous chunks. Chunking is deterministic (a pure function of the
//!   inputs), so results never depend on thread scheduling.
//! * [`partition`] / [`shard_seed`] — deterministic contiguous partitioning
//!   and per-shard RNG stream derivation (SplitMix64 mixing), the building
//!   blocks of reproducible data-parallel training.
//! * [`Oneshot`] / [`ArcSlot`] — a reusable single-value reply slot that
//!   replaces per-request channel allocation, and a swappable `Arc` for
//!   publishing model snapshots.
//!
//! The global pool ([`global`]) is sized by the `SEQFM_WORKERS` environment
//! variable when set, else by [`std::thread::available_parallelism`]; the
//! tensor kernels dispatch through it above a size threshold.

mod oneshot;
mod par;
mod pool;
mod queue;
mod slot;

pub use oneshot::{Disconnected, Oneshot};
pub use par::{par_units, partition, shard_seed};
pub use pool::{configured_workers, global, in_parallel_task, Scope, ThreadPool};
pub use queue::{WorkQueue, WorkerHandle};
pub use slot::ArcSlot;

/// The `SEQFM_WORKERS` environment variable, parsed once per call:
/// `Some(n)` for a positive integer (clamped to 256), `None` when unset or
/// unparseable. The single source of truth for every consumer — the kernel
/// pool ([`default_workers`]) and the training default
/// (`TrainConfig::workers`) differ only in their fallback, never in how
/// they read the variable.
pub fn env_workers() -> Option<usize> {
    let raw = std::env::var("SEQFM_WORKERS").ok()?;
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1).map(|n| n.min(256))
}

/// Pool size implied by the environment: [`env_workers`] when set, else the
/// machine's available parallelism, else 1.
pub fn default_workers() -> usize {
    env_workers()
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}
