//! The scoped thread pool: worker threads popping boxed tasks off one
//! unbounded [`Queue`](crate::queue) — the same queue the serving engine
//! admits requests through.
//!
//! Borrowed data: [`ThreadPool::scope`] spawns closures that may borrow
//! from the enclosing frame. Soundness rests on one invariant — `scope`
//! does **not** return (normally or by unwinding) until every task it
//! spawned has finished — enforced by a per-scope completion latch that is
//! always waited on, even when the scope body itself panics. While waiting,
//! the scoping thread executes queued tasks ("helping"), so a scope opened
//! from inside a pool task cannot deadlock a fully-busy pool.

use crate::queue::Queue;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send>;

thread_local! {
    static IN_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `true` while the current thread is executing a pool task (either as a
/// pool worker or as a scoping thread helping out). Kernel-level callers
/// use this to fall back to serial execution instead of nesting parallel
/// regions that could not add real concurrency anyway.
pub fn in_parallel_task() -> bool {
    IN_TASK.with(|c| c.get())
}

/// Runs a task with the [`in_parallel_task`] flag raised, restoring the
/// previous value afterwards (the flag nests correctly under helping).
fn run_task(task: Task) {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_TASK.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(IN_TASK.with(|c| c.replace(true)));
    task();
}

/// A persistent pool of worker threads over one task queue. See the module
/// docs.
pub struct ThreadPool {
    tasks: Arc<Queue<Task>>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let tasks = Arc::new(Queue::new(usize::MAX));
        let handles = (0..workers.max(1))
            .map(|me| {
                let tasks = Arc::clone(&tasks);
                std::thread::Builder::new()
                    .name(format!("seqfm-pool-{me}"))
                    .spawn(move || {
                        while let Some(task) = tasks.pop_or_park() {
                            run_task(task);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { tasks, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Enqueues a raw task and wakes one parked worker.
    fn inject(&self, task: Task) {
        let refused = self.tasks.try_push(task).is_err();
        assert!(!refused, "the pool's queue is unbounded");
    }

    /// Runs `f` with a [`Scope`] whose spawned tasks may borrow from the
    /// enclosing environment. All spawned tasks complete before `scope`
    /// returns; the first task panic (or a panic in `f` itself) is
    /// propagated to the caller after that barrier.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = Scope { pool: self, state: Arc::clone(&state), _env: PhantomData };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The completion barrier MUST hold on every exit path — tasks may
        // borrow the caller's dying stack frame otherwise.
        self.wait_scope(&state);
        let task_panic = state.panic.lock().expect("scope panic slot poisoned").take();
        match result {
            Err(body_panic) => resume_unwind(body_panic),
            Ok(r) => {
                if let Some(p) = task_panic {
                    resume_unwind(p);
                }
                r
            }
        }
    }

    /// Blocks until `state.remaining == 0`, executing queued tasks while
    /// waiting so a scope opened from inside a pool task cannot deadlock.
    fn wait_scope(&self, state: &ScopeState) {
        while state.remaining.load(Ordering::Acquire) > 0 {
            if let Some(task) = self.tasks.try_pop() {
                run_task(task);
                continue;
            }
            let guard = state.done.lock().expect("scope latch poisoned");
            if state.remaining.load(Ordering::Acquire) > 0 {
                // Re-check with a timeout: a task queued *after* the pop
                // above would otherwise leave us parked while work
                // we could help with sits idle.
                let (_g, _timeout) = state
                    .cv
                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                    .expect("scope latch poisoned");
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close-then-join: workers drain every queued task before exiting.
        self.tasks.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

struct ScopeState {
    /// Spawned-but-unfinished task count; the scope's completion latch.
    remaining: AtomicUsize,
    done: Mutex<()>,
    cv: Condvar,
    /// First panic payload raised by a task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            remaining: AtomicUsize::new(0),
            done: Mutex::new(()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`]. Tasks may
/// borrow anything that outlives the scope (`'env`).
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task on the pool. Panics inside the task are captured and
    /// re-raised by the enclosing [`ThreadPool::scope`] call (first panic
    /// wins); the scope still waits for every other task.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.remaining.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                state.panic.lock().expect("scope panic slot poisoned").get_or_insert(p);
            }
            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last task out: notify under the latch lock so the waiter
                // cannot miss the wakeup between its check and its wait.
                drop(state.done.lock().expect("scope latch poisoned"));
                state.cv.notify_all();
            }
        });
        // SAFETY: only the lifetime is erased. `ThreadPool::scope` joins the
        // completion latch on every exit path before `'env` can end, so the
        // boxed closure never outlives the data it borrows.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        self.pool.inject(task);
    }
}

/// The process-wide pool used by auto-dispatching kernels, sized by
/// [`default_workers`](crate::default_workers) (the `SEQFM_WORKERS`
/// environment variable, else available parallelism). Created lazily on
/// first use and never torn down.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(configured_workers()))
}

/// The worker count [`global`] has (or will have) — resolved once from the
/// environment. Cheap to call before any pool exists: dispatch heuristics
/// use it to skip pool creation entirely on single-worker configurations.
pub fn configured_workers() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(crate::default_workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_task_and_borrows_stack_data() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0u32; 64];
        let base = 7u32; // borrowed immutably by every task
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                let base = &base;
                s.spawn(move || *slot = i as u32 + base);
            }
        });
        assert_eq!(out, (0..64).map(|i| i + 7).collect::<Vec<_>>());
    }

    #[test]
    fn pool_of_one_still_completes_scopes() {
        let pool = ThreadPool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Every worker opens an inner scope; the helping logic must keep the
        // pool moving even though all workers are blocked in waits.
        let pool = ThreadPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let counter = &counter;
                let pool = &pool;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn task_panic_propagates_after_the_barrier() {
        let pool = ThreadPool::new(2);
        let finished = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task died"));
                for _ in 0..8 {
                    let finished = &finished;
                    s.spawn(move || {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must re-raise the task panic");
        // The barrier held: every sibling ran to completion first.
        assert_eq!(finished.load(Ordering::Relaxed), 8);
        // The pool survives and keeps executing new work.
        let after = AtomicU64::new(0);
        pool.scope(|s| {
            let after = &after;
            s.spawn(move || {
                after.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(after.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn in_parallel_task_is_set_inside_tasks_only() {
        let pool = ThreadPool::new(2);
        assert!(!in_parallel_task());
        let seen = Mutex::new(Vec::new());
        pool.scope(|s| {
            for _ in 0..4 {
                let seen = &seen;
                s.spawn(move || seen.lock().unwrap().push(in_parallel_task()));
            }
        });
        assert!(!in_parallel_task());
        assert_eq!(*seen.lock().unwrap(), vec![true; 4]);
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..16 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        drop(pool); // must not hang
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }
}
