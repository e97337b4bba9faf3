//! Admission control for a long-lived query service.
//!
//! A daemon that accepts work from many concurrent client connections must
//! decide *before* executing a request whether it can afford to: an
//! unbounded queue converts overload into unbounded latency, while a
//! bounded queue converts it into prompt, typed rejection that clients can
//! retry against another replica.  This module provides that boundary:
//!
//! * [`AdmissionQueue`] — a bounded MPMC queue.  Producers (connection
//!   handlers) call [`try_push`](AdmissionQueue::try_push), which **never
//!   blocks**: when the queue is full the request is rejected with
//!   [`AdmissionError::Overloaded`] so the connection can answer the client
//!   immediately (backpressure).  Consumers (the daemon's workers) call
//!   [`pop`](AdmissionQueue::pop), which parks on a condvar until work, an
//!   optional timeout or [`close`](AdmissionQueue::close) arrives.
//! * [`Admitted`] — the envelope around each queued item recording when it
//!   was admitted and an optional **deadline**.  The worker checks
//!   [`expired`](Admitted::expired) after dequeue: a request that spent its
//!   entire budget waiting is answered with a deadline error instead of
//!   wasting executor time on an answer nobody is waiting for.
//! * [`close`](AdmissionQueue::close) — flips the queue into drain mode for
//!   graceful shutdown: new pushes are rejected with
//!   [`AdmissionError::Closed`], while consumers keep draining the items
//!   already admitted, so every request the daemon *accepted* is answered
//!   before the process exits.
//!
//! The queue is deliberately generic: `ts-serve` queues protocol requests,
//! but tests (and future subsystems, e.g. background maintenance) can queue
//! anything `Send`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::obs;

/// Cached handles for the queue's global metrics (one registry lookup per
/// process; see `docs/observability.md` for the naming conventions).  All
/// queues in a process share these series — the daemon runs one queue, and
/// per-instance counts remain available via [`AdmissionQueue::depth`] /
/// [`AdmissionQueue::total_admitted`] / [`AdmissionQueue::total_rejected`].
fn metric_depth() -> &'static obs::Gauge {
    static M: OnceLock<&'static obs::Gauge> = OnceLock::new();
    M.get_or_init(|| obs::gauge("twin_admission_depth", &[]))
}

fn metric_admitted() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_admission_admitted_total", &[]))
}

fn metric_rejected_overloaded() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_admission_rejected_total", &[("reason", "overloaded")]))
}

fn metric_rejected_closed() -> &'static obs::Counter {
    static M: OnceLock<&'static obs::Counter> = OnceLock::new();
    M.get_or_init(|| obs::counter("twin_admission_rejected_total", &[("reason", "closed")]))
}

fn metric_wait_ms() -> &'static obs::Histogram {
    static M: OnceLock<&'static obs::Histogram> = OnceLock::new();
    M.get_or_init(|| obs::histogram("twin_admission_wait_ms", &[]))
}

/// Configuration for an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum number of admitted-but-not-yet-dispatched requests.  A push
    /// beyond this is rejected with [`AdmissionError::Overloaded`].
    pub capacity: usize,
    /// Deadline applied to requests that do not carry their own, measured
    /// from admission.  `None` means such requests never expire.
    pub default_deadline: Option<Duration>,
}

impl AdmissionConfig {
    /// A queue of `capacity` slots with no default deadline.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        AdmissionConfig {
            capacity: capacity.max(1),
            default_deadline: None,
        }
    }

    /// Apply `deadline` to every request that does not carry its own.
    #[must_use]
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::new(256)
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The queue is at capacity; the caller should reject the request
    /// upstream (backpressure) rather than wait.
    Overloaded {
        /// The configured capacity that was exhausted.
        capacity: usize,
    },
    /// The queue has been closed for shutdown; no new work is admitted.
    Closed,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Overloaded { capacity } => {
                write!(f, "admission queue full ({capacity} requests pending)")
            }
            AdmissionError::Closed => f.write_str("admission queue closed (shutting down)"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// An admitted item, stamped with its admission time and deadline.
#[derive(Debug)]
pub struct Admitted<T> {
    /// The queued item.
    pub item: T,
    /// Instant the item was admitted.
    pub admitted_at: Instant,
    /// Absolute deadline, if any.
    pub deadline: Option<Instant>,
}

impl<T> Admitted<T> {
    /// Whether the deadline has passed (always `false` without a deadline).
    #[must_use]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time the item has spent queued so far.
    #[must_use]
    pub fn queued_for(&self) -> Duration {
        self.admitted_at.elapsed()
    }
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<Admitted<T>>,
    closed: bool,
}

/// Bounded MPMC admission queue with overload rejection and drain-on-close.
///
/// See the [module docs](self) for the protocol.  All methods are `&self`;
/// share the queue behind an `Arc` between connection handlers and the
/// workers.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    config: AdmissionConfig,
    state: Mutex<QueueState<T>>,
    available: Condvar,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

impl<T> AdmissionQueue<T> {
    /// Create a queue with the given configuration.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionQueue {
            config,
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(config.capacity),
                closed: false,
            }),
            available: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Admit `item` with the queue's default deadline.  Never blocks.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Overloaded`] when the queue is at capacity,
    /// [`AdmissionError::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), AdmissionError> {
        self.try_push_with_deadline(item, self.config.default_deadline)
    }

    /// Admit `item` with an explicit deadline budget (`None` = never
    /// expires, overriding any default).  Never blocks.
    ///
    /// # Errors
    ///
    /// Same as [`try_push`](Self::try_push).
    pub fn try_push_with_deadline(
        &self,
        item: T,
        budget: Option<Duration>,
    ) -> Result<(), AdmissionError> {
        let now = Instant::now();
        let entry = Admitted {
            item,
            admitted_at: now,
            deadline: budget.map(|b| now + b),
        };
        let depth = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.closed {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                metric_rejected_closed().inc();
                return Err(AdmissionError::Closed);
            }
            if state.items.len() >= self.config.capacity {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                metric_rejected_overloaded().inc();
                return Err(AdmissionError::Overloaded {
                    capacity: self.config.capacity,
                });
            }
            state.items.push_back(entry);
            state.items.len()
        };
        self.admitted.fetch_add(1, Ordering::Relaxed);
        metric_admitted().inc();
        metric_depth().set(depth as i64);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeue one item, waiting up to `timeout` for one to arrive (`None`
    /// = wait for as long as it takes: a long-lived worker's blocking pop).
    ///
    /// Returns `None` on timeout, or immediately once the queue is closed
    /// *and* drained — the consumer's signal to exit its loop.
    pub fn pop(&self, timeout: Option<Duration>) -> Option<Admitted<T>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(admitted) = state.items.pop_front() {
                metric_depth().set(state.items.len() as i64);
                metric_wait_ms().observe(admitted.queued_for().as_secs_f64() * 1e3);
                // Items remain: pass the wake-up on, so a consumer whose
                // notification raced with this pop is not left parked.
                if !state.items.is_empty() {
                    self.available.notify_one();
                }
                return Some(admitted);
            }
            if state.closed {
                return None;
            }
            state = match deadline {
                None => self
                    .available
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.available
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    /// Close the queue: reject all future pushes, wake all consumers.
    /// Items already admitted remain drainable via [`pop`](Self::pop).
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Number of items currently queued.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// Total items ever admitted.
    #[must_use]
    pub fn total_admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Total pushes rejected (overload + closed).
    #[must_use]
    pub fn total_rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = AdmissionQueue::new(AdmissionConfig::new(4));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let a = q.pop(Some(Duration::from_millis(10))).unwrap();
        let b = q.pop(Some(Duration::from_millis(10))).unwrap();
        assert_eq!((a.item, b.item), (1, 2));
        assert!(!a.expired());
        assert_eq!(q.depth(), 0);
        assert_eq!(q.total_admitted(), 2);
    }

    #[test]
    fn overload_rejects_without_blocking() {
        let q = AdmissionQueue::new(AdmissionConfig::new(2));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let err = q.try_push(3).unwrap_err();
        assert_eq!(err, AdmissionError::Overloaded { capacity: 2 });
        assert_eq!(q.total_rejected(), 1);
        // Draining frees a slot.
        q.pop(Some(Duration::from_millis(10))).unwrap();
        q.try_push(3).unwrap();
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = AdmissionQueue::new(AdmissionConfig::new(0));
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(q.try_push(2).is_err());
    }

    #[test]
    fn pop_times_out_when_empty() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(AdmissionConfig::default());
        let start = Instant::now();
        assert!(q.pop(Some(Duration::from_millis(20))).is_none());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_rejects_pushes_but_drains() {
        let q = AdmissionQueue::new(AdmissionConfig::new(4));
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(AdmissionError::Closed));
        assert!(q.is_closed());
        // The admitted item is still served...
        assert_eq!(q.pop(Some(Duration::from_millis(10))).unwrap().item, 1);
        // ...then pops return immediately without waiting for the timeout.
        let start = Instant::now();
        assert!(q.pop(Some(Duration::from_secs(5))).is_none());
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn deadlines_expire() {
        let config = AdmissionConfig::new(4).with_default_deadline(Duration::from_millis(5));
        let q = AdmissionQueue::new(config);
        q.try_push(1).unwrap();
        // Explicit budget overrides the default.
        q.try_push_with_deadline(2, None).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let first = q.pop(Some(Duration::from_millis(10))).unwrap();
        let second = q.pop(Some(Duration::from_millis(10))).unwrap();
        assert!(first.expired(), "default deadline should have passed");
        assert!(!second.expired(), "explicit None budget never expires");
        assert!(first.queued_for() >= Duration::from_millis(20));
    }

    #[test]
    fn deadline_expiring_while_queued_is_seen_at_dequeue() {
        // Regression: a request admitted with budget left must still read
        // as expired at dequeue if the budget ran out *while queued* — the
        // worker relies on `expired()` being evaluated against the
        // absolute deadline, not against the state at admission.
        let q = AdmissionQueue::new(AdmissionConfig::new(4));
        q.try_push_with_deadline("race", Some(Duration::from_millis(10)))
            .unwrap();
        let peek_not_expired = {
            // Freshly admitted: the deadline has not passed yet.
            let state = q.state.lock().unwrap();
            !state.items[0].expired()
        };
        assert!(peek_not_expired, "deadline must not be pre-expired");
        std::thread::sleep(Duration::from_millis(25));
        let admitted = q.pop(Some(Duration::from_millis(10))).unwrap();
        assert!(
            admitted.expired(),
            "a deadline that lapsed while queued must read expired at dequeue"
        );
        assert!(admitted.queued_for() >= Duration::from_millis(25));
    }

    #[test]
    fn depth_accounting_stays_exact_across_rejects() {
        // Regression: rejected pushes must not perturb the depth — only
        // successful admissions and dequeues move it, and the
        // admitted/rejected totals must partition every attempt exactly.
        let q = AdmissionQueue::new(AdmissionConfig::new(3));
        for i in 0..3 {
            q.try_push(i).unwrap();
            assert_eq!(q.depth(), i + 1);
        }
        for _ in 0..5 {
            assert!(matches!(
                q.try_push(99),
                Err(AdmissionError::Overloaded { .. })
            ));
            assert_eq!(q.depth(), 3, "a rejected push must not change depth");
        }
        assert_eq!(q.total_admitted(), 3);
        assert_eq!(q.total_rejected(), 5);
        // Drain one, re-admit one: depth tracks exactly.
        q.pop(Some(Duration::from_millis(10))).unwrap();
        assert_eq!(q.depth(), 2);
        q.try_push(3).unwrap();
        assert_eq!(q.depth(), 3);
        // Close: the closed rejection is counted too, depth untouched.
        q.close();
        assert_eq!(q.try_push(4), Err(AdmissionError::Closed));
        assert_eq!(q.depth(), 3);
        assert_eq!(q.total_rejected(), 6);
        for left in (0..3).rev() {
            q.pop(Some(Duration::from_millis(10))).unwrap();
            assert_eq!(q.depth(), left);
        }
        assert!(q.pop(Some(Duration::from_millis(10))).is_none());
        assert_eq!(q.total_admitted(), 4);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(AdmissionConfig::new(4)));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(None))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        let start = Instant::now();
        assert!(consumer.join().unwrap().is_none());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_items() {
        let q: Arc<AdmissionQueue<u64>> = Arc::new(AdmissionQueue::new(AdmissionConfig::new(1024)));
        const PER_PRODUCER: u64 = 200;
        const PRODUCERS: u64 = 4;
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let v = p * PER_PRODUCER + i;
                        // Spin on overload: bounded queue, patient producer.
                        while q.try_push(v).is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    // Blocking pops: `None` only once closed and drained.
                    std::iter::from_fn(|| q.pop(None))
                        .map(|a| a.item)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(
            all, expected,
            "every admitted item is dequeued exactly once"
        );
        assert_eq!(q.total_admitted(), PRODUCERS * PER_PRODUCER);
    }
}
