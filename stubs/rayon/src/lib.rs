//! Offline stand-in for the real `rayon` crate.
//!
//! Implements the small surface the workspace uses — [`in_place_scope`] /
//! [`scope`] with [`Scope::spawn`], and `into_par_iter()` / `par_iter()` →
//! `map` / `map_init` → `collect` / `for_each` — on a **persistent pool**
//! of long-lived worker threads, so a parallel call costs a queue push and
//! a wake-up, never a thread spawn. Every name and signature is a subset of
//! the real crate's, so swapping it in still compiles.
//!
//! Scheduling model:
//!
//! * A parallel call uses up to [`current_num_threads`] threads: the
//!   **calling thread always works on its own call**, and the pool lends up
//!   to `current_num_threads() - 1` helpers. Helpers that never get a pool
//!   thread are run by the caller itself when its scope ends, so
//!   `RAYON_NUM_THREADS=1` runs on the caller alone and concurrent callers
//!   sharing a small pool cannot deadlock on each other.
//! * Parallel iterators hand out items through an atomic index — each
//!   participant claims the next unclaimed item — instead of static
//!   contiguous halves, and reassemble results **in input order**, so a
//!   `collect::<Vec<_>>()` equals the sequential result for any thread
//!   count.
//! * A panic in any spawned body or item propagates to the caller once
//!   every body of its scope has finished; pool threads survive it.
//!
//! The thread count honours the `RAYON_NUM_THREADS` environment variable
//! per call (like the real crate at pool start-up) and otherwise uses the
//! machine's available parallelism. The pool grows to the largest count
//! any call asked for and never shrinks.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of threads a parallel operation uses, the caller included.
///
/// Reads `RAYON_NUM_THREADS` (values `< 1` are clamped to 1), falling back
/// to `std::thread::available_parallelism`.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Locks a mutex, ignoring poison: panics are caught before they can leave
/// any state below half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

type Panic = Box<dyn Any + Send>;

/// Completion bookkeeping of one scope.
struct ScopeState {
    progress: Mutex<ScopeProgress>,
    /// Signalled when a body of the scope finishes or is spawned.
    changed: Condvar,
}

struct ScopeProgress {
    /// Spawned bodies that have not finished.
    pending: usize,
    /// The first panic a spawned body raised.
    panic: Option<Panic>,
}

/// A spawned body, its lifetime erased (see [`Scope::spawn`]).
struct Job {
    scope: Arc<ScopeState>,
    body: Box<dyn FnOnce() + Send>,
}

impl Job {
    fn run(self) {
        let result = catch_unwind(AssertUnwindSafe(self.body));
        let mut progress = lock(&self.scope.progress);
        if let Err(panic) = result {
            progress.panic.get_or_insert(panic);
        }
        progress.pending -= 1;
        self.scope.changed.notify_all();
    }
}

/// The process-wide pool of long-lived helper threads.
struct Pool {
    queue: Mutex<PoolQueue>,
    ready: Condvar,
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    threads: usize,
}

/// The pool, created on first use. Its threads live as long as the
/// process, like the real crate's global pool, and are never joined.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(PoolQueue {
            jobs: VecDeque::new(),
            threads: 0,
        }),
        ready: Condvar::new(),
    })
}

impl Pool {
    /// Queues a job, first growing the pool to `current_num_threads() - 1`
    /// helpers. A helper the OS refuses is simply not added: the job's
    /// scope runs whatever no helper picked up.
    fn push(&'static self, job: Job) {
        let wanted = current_num_threads().saturating_sub(1);
        let mut queue = lock(&self.queue);
        queue.jobs.push_back(job);
        while queue.threads < wanted {
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-stub-{}", queue.threads))
                .spawn(move || self.serve());
            if spawned.is_err() {
                break;
            }
            queue.threads += 1;
        }
        drop(queue);
        self.ready.notify_one();
    }

    /// A helper's whole life: run queued jobs, sleep when there are none.
    fn serve(&self) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.run();
        }
    }

    /// Takes back the queued jobs of `scope` that no helper has started.
    fn reclaim(&self, scope: &Arc<ScopeState>) -> Vec<Job> {
        let mut queue = lock(&self.queue);
        let (mine, others): (VecDeque<Job>, VecDeque<Job>) = std::mem::take(&mut queue.jobs)
            .into_iter()
            .partition(|job| Arc::ptr_eq(&job.scope, scope));
        queue.jobs = others;
        mine.into()
    }
}

/// A scope in which bodies borrowing from the enclosing stack frame can be
/// spawned onto the pool (mirrors `rayon::Scope`).
pub struct Scope<'scope> {
    state: Arc<ScopeState>,
    /// Invariant in `'scope`, like the real crate's.
    marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `body` onto the pool. It runs on a helper thread, or on the
    /// scope's own thread when the scope ends before a helper picked it up;
    /// either way the scope does not return until it has finished.
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        lock(&self.state.progress).pending += 1;
        let scope = Scope {
            state: Arc::clone(&self.state),
            marker: PhantomData,
        };
        let body: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || body(&scope));
        // SAFETY: only the lifetime changes. The scope that owns `'scope`
        // waits — on normal return and on unwind alike — until `pending`
        // drops to zero, i.e. until this body has run to completion, so the
        // body never runs after its borrows have ended.
        let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
        pool().push(Job {
            scope: Arc::clone(&self.state),
            body,
        });
        // Wake an owner already waiting in `finish`, so it can reclaim a
        // body spawned from inside another body.
        let _progress = lock(&self.state.progress);
        self.state.changed.notify_all();
    }

    /// Blocks until every spawned body has finished, running the ones no
    /// helper has started on this thread.
    fn finish(&self) {
        loop {
            let mine = pool().reclaim(&self.state);
            if !mine.is_empty() {
                mine.into_iter().for_each(Job::run);
                continue;
            }
            let progress = lock(&self.state.progress);
            if progress.pending == 0 {
                return;
            }
            drop(
                self.state
                    .changed
                    .wait(progress)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
    }
}

/// Runs `op` on the calling thread with a [`Scope`] for spawning bodies
/// onto the pool, and returns once `op` and every spawned body have
/// finished (mirrors `rayon::in_place_scope`). A panic in `op` or in any
/// body propagates after that.
pub fn in_place_scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    let scope = Scope {
        state: Arc::new(ScopeState {
            progress: Mutex::new(ScopeProgress {
                pending: 0,
                panic: None,
            }),
            changed: Condvar::new(),
        }),
        marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
    scope.finish();
    let body_panic = lock(&scope.state.progress).panic.take();
    match (result, body_panic) {
        (Err(panic), _) | (Ok(_), Some(panic)) => resume_unwind(panic),
        (Ok(value), None) => value,
    }
}

/// [`in_place_scope`] with the real crate's `scope` signature. The stub
/// runs `op` on the calling thread rather than on a pool thread.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    in_place_scope(op)
}

/// Maps `items` through `f` on up to [`current_num_threads`] threads, each
/// claiming the next unclaimed item through an atomic index and creating
/// its state with `init` on its first item. Returns results in input order.
fn claim_map<T, S, U, INIT, F>(items: Vec<T>, init: INIT, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    let participants = current_num_threads().min(items.len());
    if participants <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    let len = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(len));
    let work = || {
        let mut state = None;
        let mut local = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else { break };
            let item = lock(slot).take().expect("every index is claimed once");
            let state = state.get_or_insert_with(&init);
            local.push((index, f(state, item)));
        }
        lock(&results).extend(local);
    };
    in_place_scope(|s| {
        for _ in 1..participants {
            s.spawn(|_| work());
        }
        work();
    });
    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, value)| value).collect()
}

/// A materialized parallel iterator over owned items.
#[derive(Debug)]
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item, in parallel.
    pub fn map<U, F>(self, f: F) -> ParMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Applies `f` to every item with per-worker state created by `init`
    /// (mirrors rayon's `map_init`): each participating thread calls
    /// `init()` once and threads the value mutably through the items it
    /// claims. Like the real crate, `init` may be called any number of
    /// times, so results must not depend on how items share state —
    /// reusable scratch buffers and arenas are the intended use.
    pub fn map_init<S, U, INIT, F>(self, init: INIT, f: F) -> ParMapInit<T, INIT, F>
    where
        S: Send,
        U: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> U + Sync,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }

    /// Runs `f` on every item, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        self.map(f).collect::<Vec<()>>();
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the iterator is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A mapped parallel iterator; consumed by [`ParMap::collect`].
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, U, F> ParMap<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    /// Executes the map in parallel and collects results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let f = self.f;
        claim_map(self.items, || (), |(), item| f(item))
            .into_iter()
            .collect()
    }
}

/// A mapped parallel iterator with per-worker init state; consumed by
/// [`ParMapInit::collect`].
pub struct ParMapInit<T, INIT, F> {
    items: Vec<T>,
    init: INIT,
    f: F,
}

impl<T, S, U, INIT, F> ParMapInit<T, INIT, F>
where
    T: Send,
    S: Send,
    U: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    /// Executes the map in parallel (one `init()` per participating
    /// thread) and collects results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        claim_map(self.items, self.init, self.f)
            .into_iter()
            .collect()
    }
}

/// Conversion into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// The produced item type.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_into_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter {
                    items: self.collect(),
                }
            }
        }
    )*};
}
impl_range_into_par_iter!(usize, u32, u64, i32, i64);

/// Conversion into a parallel iterator over borrowed items.
pub trait IntoParallelRefIterator<'data> {
    /// The produced (borrowed) item type.
    type Item: Send;
    /// Produces a parallel iterator borrowing from `self`.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let input: Vec<usize> = (0..10_000).collect();
        let out: Vec<usize> = input.clone().into_par_iter().map(|x| x * 2).collect();
        let expected: Vec<usize> = input.iter().map(|x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn range_and_ref_iterators_work() {
        let squares: Vec<u64> = (0u64..100).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares[99], 99 * 99);
        let v = vec![1u64, 2, 3];
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn map_init_matches_map_and_reuses_state() {
        let input: Vec<usize> = (0..5_000).collect();
        let expected: Vec<usize> = input.iter().map(|x| x * 3).collect();
        let out: Vec<usize> = input
            .clone()
            .into_par_iter()
            .map_init(Vec::<usize>::new, |scratch, x| {
                // State must be reusable between items without leaking.
                scratch.clear();
                scratch.push(x);
                scratch[0] * 3
            })
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let _: Vec<()> = (0usize..64)
                .into_par_iter()
                .map(|i| {
                    if i == 63 {
                        panic!("boom");
                    }
                })
                .collect();
        });
        assert!(result.is_err());
    }

    #[test]
    fn scope_runs_every_spawned_body_before_returning() {
        let ran = AtomicUsize::new(0);
        let value = super::in_place_scope(|s| {
            for _ in 0..16 {
                s.spawn(|s| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    // Bodies may spawn more bodies into the same scope.
                    s.spawn(|_| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
            7
        });
        assert_eq!(value, 7);
        assert_eq!(ran.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn a_panicking_body_propagates_after_the_scope_finishes() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            super::scope(|s| {
                s.spawn(|_| panic!("body panic"));
                s.spawn(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(result.is_err());
        // The sibling body still ran to completion before the panic left
        // the scope.
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }
}
