//! The work-stealing execution core shared by every parallel code path in
//! the workspace.
//!
//! One [`Executor`] serves three callers that previously each carried their
//! own ad-hoc `std::thread::scope` fan-out:
//!
//! * the TS-Index deep parallel traversal (recursive task spawning with a
//!   depth/fan-out split threshold, `ts-index`),
//! * the engine batch fan-out (`twin_search::Engine::search_batch`), and
//! * the multi-shard search fan-out (`twin_search::ShardedEngine`).
//!
//! The pool is *scoped*: workers are spawned inside [`std::thread::scope`]
//! for the duration of one [`Executor::map`] / [`Executor::traverse`] call
//! and borrow from the caller's stack, so no `'static` bounds infect the
//! search code.  Scheduling follows the chase-lev work-stealing policy in
//! spirit (each worker owns a deque, pops its own newest task — LIFO, good
//! locality — and steals the *oldest* task of a victim — FIFO, steals the
//! biggest remaining subtree first); the deques themselves are mutex-striped
//! `VecDeque`s rather than a lock-free chase-lev buffer, because this crate
//! forbids `unsafe` and the task granularity (a subtree, a query, a shard)
//! amortises a short uncontended lock to noise.  This mirrors how the
//! workspace vendors API-exact stand-ins under `vendor/` instead of pulling
//! crates the offline build cannot fetch.
//!
//! ## Thread-count policy
//!
//! [`Executor::new`] clamps the requested worker count to
//! [`available_parallelism`] — every user-facing `threads` knob (CLI
//! `--threads`, [`crate::TwinQuery::parallel`], the bench harness) routes
//! through this clamp and reports the clamped value via
//! `SearchOutcome::threads_used`.  [`Executor::exact`] bypasses the clamp
//! (oversubscription allowed): tests and the scaling ablation use it to
//! exercise genuine multi-worker scheduling even on single-core containers.
//!
//! ## Guarantees
//!
//! * **Exactness** — every seeded or spawned task is executed exactly once
//!   (unless an error or panic aborts the run), so counters accumulated in
//!   the per-worker state merge to exactly the sequential totals.
//! * **Panic safety** — a panicking task raises the stop flag on unwind, so
//!   the sibling workers drain out instead of spinning on a pending count
//!   that can never reach zero; the panic then propagates to the caller
//!   through the scope.
//! * **Error propagation** — the first observed `Err` stops the pool and is
//!   returned to the caller (which error "wins" under concurrency is
//!   unspecified, matching the batch API contract).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::obs;

/// Cached global metric handles (resolved once; see `docs/observability.md`).
/// Totals are flushed once per traversal from per-worker locals, so the
/// task-processing hot loop never touches a shared atomic.
fn metric_tasks() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_executor_tasks_total", &[]))
}

fn metric_steals() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_executor_steals_total", &[]))
}

fn metric_traversals() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_executor_traversals_total", &[]))
}

fn metric_idle_ms() -> &'static obs::Histogram {
    static M: OnceLock<&'static obs::Histogram> = OnceLock::new();
    M.get_or_init(|| obs::histogram("twin_executor_worker_idle_ms", &[]))
}

/// The machine's available parallelism (1 if it cannot be determined).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Clamps a requested worker count into `1..=available_parallelism()`.
///
/// This is the single policy point behind every user-facing `threads`
/// option; the clamped value is what outcomes report as `threads_used`.
#[must_use]
pub fn clamp_threads(requested: usize) -> usize {
    requested.clamp(1, available_parallelism())
}

/// Locks a mutex, recovering the guard if a panicking worker poisoned it
/// (the stop flag — not the poison bit — is this module's cancellation
/// signal, so a poisoned queue is still structurally sound to read).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A scoped work-stealing thread pool of a fixed worker count.
///
/// Cheap to construct (no threads are kept alive between calls): workers are
/// spawned per [`Executor::map`] / [`Executor::traverse`] invocation and
/// joined before it returns.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A pool of `requested` workers, clamped to [`available_parallelism`].
    #[must_use]
    pub fn new(requested: usize) -> Self {
        Self {
            threads: clamp_threads(requested),
        }
    }

    /// A pool of exactly `threads.max(1)` workers, bypassing the
    /// parallelism clamp.
    ///
    /// Oversubscription is allowed; this exists for tests and the scaling
    /// ablation, which must exercise multi-worker scheduling even on
    /// single-core machines.
    #[must_use]
    pub fn exact(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Number of workers this pool runs.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning the results in
    /// item order.
    ///
    /// This is the batch fan-out primitive: items are dealt round-robin to
    /// the worker deques and re-balanced by stealing, so a run of expensive
    /// neighbouring items cannot serialise on one worker.  The pool width is
    /// capped at the item count — mapped items spawn no subtasks, so surplus
    /// workers would only sit in the idle-wait loop.
    ///
    /// # Errors
    ///
    /// Stops the pool and returns an error raised by any invocation of `f`
    /// (remaining items are not processed).
    pub fn map<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(T) -> Result<R, E> + Sync,
    {
        let n = items.len();
        let pool = Self {
            threads: self.threads.min(n.max(1)),
        };
        let traversal = pool.traverse(
            items.into_iter().enumerate().collect(),
            Vec::new,
            |(index, item): (usize, T), _ctx: &mut TaskContext<'_, (usize, T)>, acc| {
                acc.push((index, f(item)?));
                Ok(())
            },
        )?;
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(n, || None);
        for (index, result) in traversal.accumulators.into_iter().flatten() {
            slots[index] = Some(result);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every mapped item was executed exactly once"))
            .collect())
    }

    /// Runs a dynamically growing task graph to completion: `seeds` are the
    /// initial tasks, and `process` may spawn further tasks through its
    /// [`TaskContext`] (e.g. the children of a tree node).  Each worker owns
    /// one accumulator created by `init`; the per-worker accumulators are
    /// returned unmerged so callers with exactness requirements (search
    /// statistics) control the merge themselves.
    ///
    /// The full pool width is spawned even when `seeds` is small — spawned
    /// tasks are what the extra workers steal.  A worker with nothing to pop
    /// or steal waits by spinning/yielding rather than parking: the pool
    /// lives for one traversal (milliseconds), so idle-waiting stays simpler
    /// than a condvar and the cost is bounded by the traversal itself.
    /// Callers whose task count is statically known should size the pool
    /// accordingly (as [`Executor::map`] does).
    ///
    /// # Errors
    ///
    /// Stops the pool and returns an error raised by any task (remaining
    /// tasks are not processed; the accumulators are discarded).
    pub fn traverse<T, A, E, I, F>(
        &self,
        seeds: Vec<T>,
        init: I,
        process: F,
    ) -> Result<Traversal<A>, E>
    where
        T: Send,
        A: Send,
        E: Send,
        I: Fn() -> A + Sync,
        F: Fn(T, &mut TaskContext<'_, T>, &mut A) -> Result<(), E> + Sync,
    {
        let workers = self.threads.max(1);
        let shared: Shared<T> = Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(seeds.len()),
            stop: AtomicBool::new(false),
        };
        let error: Mutex<Option<E>> = Mutex::new(None);
        for (i, seed) in seeds.into_iter().enumerate() {
            lock(&shared.queues[i % workers]).push_back(seed);
        }

        let outcomes: Vec<WorkerOutcome<A>> = if workers == 1 {
            vec![worker_loop(0, &shared, &error, &init, &process)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let shared = &shared;
                        let error = &error;
                        let init = &init;
                        let process = &process;
                        scope.spawn(move || worker_loop(w, shared, error, init, process))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("executor worker panicked"))
                    .collect()
            })
        };

        if let Some(error) = lock(&error).take() {
            return Err(error);
        }
        let tasks_executed = outcomes.iter().map(|o| o.done).sum();
        let tasks_stolen = outcomes.iter().map(|o| o.stolen).sum();
        let workers_engaged = outcomes.iter().filter(|o| o.done > 0).count();
        metric_traversals().inc();
        metric_tasks().add(tasks_executed as u64);
        metric_steals().add(tasks_stolen as u64);
        for outcome in &outcomes {
            metric_idle_ms().observe(outcome.idle.as_secs_f64() * 1e3);
        }
        Ok(Traversal {
            accumulators: outcomes.into_iter().map(|o| o.acc).collect(),
            tasks_executed,
            tasks_stolen,
            workers_engaged,
            threads: workers,
        })
    }
}

/// The result of one [`Executor::traverse`] run.
#[derive(Debug)]
pub struct Traversal<A> {
    /// One accumulator per worker, in worker order (workers that never ran a
    /// task return their `init()` value untouched).
    pub accumulators: Vec<A>,
    /// Total number of tasks executed (seeded plus spawned).
    pub tasks_executed: usize,
    /// How many of the executed tasks were taken from a *sibling's* deque
    /// rather than the worker's own — the re-balancing the work-stealing
    /// policy performed.  Scheduling-dependent; `0` on a single worker.
    pub tasks_stolen: usize,
    /// Number of workers that executed at least one task.  Scheduling-
    /// dependent: a fast worker can drain a small graph before its siblings
    /// wake, so this is a lower bound on the pool's usable width, not an
    /// exact utilisation measure.
    pub workers_engaged: usize,
    /// Worker count of the pool that ran the traversal.
    pub threads: usize,
}

/// Handle through which a running task spawns further tasks and inspects
/// queue pressure (to decide whether splitting further is worthwhile).
pub struct TaskContext<'a, T> {
    shared: &'a Shared<T>,
    worker: usize,
}

impl<T> TaskContext<'_, T> {
    /// Enqueues `task` on this worker's own deque (newest-first for the
    /// owner, oldest-first for thieves).
    pub fn spawn(&mut self, task: T) {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        lock(&self.shared.queues[self.worker]).push_back(task);
    }

    /// Number of tasks spawned or seeded but not yet completed (including
    /// the ones currently being processed).  A value below roughly twice the
    /// worker count means the pool is close to starving and splitting work
    /// further is worthwhile.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Acquire)
    }

    /// Worker count of the pool running this task.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }
}

/// State shared by the workers of one traversal (the first error observed
/// travels separately, so [`TaskContext`] stays generic over tasks only).
struct Shared<T> {
    /// One deque per worker.
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Tasks seeded or spawned but not yet completed.
    pending: AtomicUsize,
    /// Raised on error or panic: workers drain out instead of spinning.
    stop: AtomicBool,
}

/// Raises the stop flag if the holder unwinds, so sibling workers never spin
/// forever on a pending count that a dead worker can no longer decrement.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// What one worker hands back when its loop exits.
struct WorkerOutcome<A> {
    /// The per-worker accumulator.
    acc: A,
    /// Tasks this worker executed.
    done: usize,
    /// How many of those it stole from a sibling's deque.
    stolen: usize,
    /// Time spent in the idle spin/yield loop waiting for stealable work.
    idle: Duration,
}

/// One worker: pop own newest task, else steal a victim's oldest, else spin
/// until the pending count reaches zero or the stop flag rises.
fn worker_loop<T, A, E, I, F>(
    worker: usize,
    shared: &Shared<T>,
    error: &Mutex<Option<E>>,
    init: &I,
    process: &F,
) -> WorkerOutcome<A>
where
    I: Fn() -> A,
    F: Fn(T, &mut TaskContext<'_, T>, &mut A) -> Result<(), E>,
{
    let _guard = StopOnPanic(&shared.stop);
    let mut acc = init();
    let mut done = 0usize;
    let mut stolen = 0usize;
    let mut ctx = TaskContext { shared, worker };
    let workers = shared.queues.len();
    let mut idle_spins = 0u32;
    // Idle accounting: the clock is read only on the transitions into and
    // out of the idle loop, never per spin, so the hot path stays clean.
    let mut idle = Duration::ZERO;
    let mut idle_since: Option<Instant> = None;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        // Own deque first (LIFO: newest task, best locality).  The guard
        // must be dropped before stealing: holding one's own queue lock
        // while blocking on a victim's would let the workers form a
        // circular wait.
        let own = lock(&shared.queues[worker]).pop_back();
        let was_steal = own.is_none();
        let task = own.or_else(|| {
            // Steal round-robin from the siblings (FIFO: their oldest task,
            // which for a tree traversal is the largest subtree).
            (1..workers)
                .find_map(|offset| lock(&shared.queues[(worker + offset) % workers]).pop_front())
        });
        match task {
            Some(task) => {
                idle_spins = 0;
                if let Some(since) = idle_since.take() {
                    idle += since.elapsed();
                }
                if was_steal {
                    stolen += 1;
                }
                let result = process(task, &mut ctx, &mut acc);
                shared.pending.fetch_sub(1, Ordering::AcqRel);
                done += 1;
                if let Err(e) = result {
                    let mut slot = lock(error);
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    shared.stop.store(true, Ordering::Release);
                    break;
                }
            }
            None => {
                if shared.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                if idle_since.is_none() {
                    idle_since = Some(Instant::now());
                }
                idle_spins += 1;
                if idle_spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
    if let Some(since) = idle_since.take() {
        idle += since.elapsed();
    }
    WorkerOutcome {
        acc,
        done,
        stolen,
        idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn clamp_policy() {
        let available = available_parallelism();
        assert!(available >= 1);
        assert_eq!(clamp_threads(0), 1);
        assert_eq!(clamp_threads(1), 1);
        assert_eq!(clamp_threads(usize::MAX), available);
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::new(usize::MAX).threads(), available);
        // `exact` bypasses the clamp (oversubscription allowed).
        assert_eq!(Executor::exact(7).threads(), 7);
        assert_eq!(Executor::exact(0).threads(), 1);
    }

    #[test]
    fn map_preserves_order_on_every_pool_width() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1usize, 2, 4, 7] {
            let pool = Executor::exact(threads);
            let out: Vec<usize> = pool
                .map(items.clone(), |x| Ok::<_, std::convert::Infallible>(x * x))
                .unwrap();
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
        // Empty input is fine.
        let empty: Vec<usize> = Executor::exact(3)
            .map(Vec::new(), |x: usize| Ok::<_, String>(x))
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn map_propagates_errors_and_stops() {
        let pool = Executor::exact(4);
        let calls = AtomicU64::new(0);
        let result = pool.map((0..10_000usize).collect(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            if x == 17 {
                Err(format!("boom at {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(result.unwrap_err(), "boom at 17");

        // Deterministic short-circuit check: a single worker pops its own
        // deque LIFO, so the highest index runs first; erroring there must
        // stop the run after exactly one call.
        let single = Executor::exact(1);
        let calls = AtomicU64::new(0);
        let result = single.map((0..10_000usize).collect(), |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            if x == 9_999 {
                Err("first popped task fails")
            } else {
                Ok(x)
            }
        });
        assert_eq!(result.unwrap_err(), "first popped task fails");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "the error must stop the pool before any further task runs"
        );
    }

    #[test]
    fn traverse_executes_spawned_tasks_exactly_once() {
        // Count the nodes of a complete binary tree of depth 12 by spawning
        // children as tasks: the per-worker counters must merge to the exact
        // node count on every pool width, with and without stealing.
        let depth = 12u32;
        for threads in [1usize, 2, 4] {
            let pool = Executor::exact(threads);
            let traversal = pool
                .traverse(
                    vec![0u32],
                    || 0u64,
                    |level, ctx, count: &mut u64| {
                        *count += 1;
                        if level < depth {
                            ctx.spawn(level + 1);
                            ctx.spawn(level + 1);
                        }
                        Ok::<_, std::convert::Infallible>(())
                    },
                )
                .unwrap();
            let total: u64 = traversal.accumulators.iter().sum();
            assert_eq!(total, (1u64 << (depth + 1)) - 1, "threads={threads}");
            assert_eq!(traversal.tasks_executed as u64, total);
            assert_eq!(traversal.threads, threads);
            assert!(traversal.workers_engaged >= 1);
            assert!(traversal.workers_engaged <= threads);
            assert!(traversal.tasks_stolen <= traversal.tasks_executed);
            if threads == 1 {
                assert_eq!(traversal.tasks_stolen, 0, "one worker has nobody to rob");
            }
        }
    }

    #[test]
    fn repeated_small_traversals_do_not_deadlock_under_contention() {
        // Regression guard for lock-ordering bugs in the pop/steal path: a
        // worker must never hold its own queue lock while blocking on a
        // victim's.  Many short traversals with more workers than cores
        // maximise the empty-queue stealing interleavings where a circular
        // wait would bite.
        for round in 0..200u32 {
            let pool = Executor::exact(4);
            let traversal = pool
                .traverse(
                    vec![0u32],
                    || 0u32,
                    |level, ctx, count: &mut u32| {
                        *count += 1;
                        if level < 6 {
                            ctx.spawn(level + 1);
                            ctx.spawn(level + 1);
                        }
                        Ok::<_, std::convert::Infallible>(())
                    },
                )
                .unwrap();
            assert_eq!(traversal.tasks_executed, 127, "round {round}");
        }
    }

    #[test]
    fn traverse_reports_errors_from_spawned_tasks() {
        let pool = Executor::exact(3);
        let result = pool.traverse(
            vec![0u32],
            || (),
            |n, ctx, (): &mut ()| {
                if n == 40 {
                    return Err("deep failure");
                }
                if n < 64 {
                    ctx.spawn(n + 1);
                }
                Ok(())
            },
        );
        assert_eq!(result.unwrap_err(), "deep failure");
    }

    #[test]
    fn panicking_task_does_not_hang_the_pool() {
        let pool = Executor::exact(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.traverse(
                (0..64u32).collect(),
                || (),
                |n, _ctx, (): &mut ()| {
                    if n == 13 {
                        panic!("worker panic");
                    }
                    Ok::<_, std::convert::Infallible>(())
                },
            )
        }));
        assert!(result.is_err(), "the panic must propagate, not deadlock");
    }

    #[test]
    fn task_context_reports_pool_pressure() {
        let pool = Executor::exact(2);
        let traversal = pool
            .traverse(
                vec![0u32],
                || false,
                |n, ctx, saw_pressure: &mut bool| {
                    assert_eq!(ctx.threads(), 2);
                    if ctx.pending() > 0 {
                        *saw_pressure = true;
                    }
                    if n < 6 {
                        ctx.spawn(n + 1);
                        ctx.spawn(n + 1);
                    }
                    Ok::<_, std::convert::Infallible>(())
                },
            )
            .unwrap();
        assert!(traversal.accumulators.iter().any(|&p| p));
    }
}
