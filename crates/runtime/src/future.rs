//! Lightweight shared futures and promises.
//!
//! HPX expresses task dependencies with `hpx::future` / `hpx::async` and
//! composes them "sequentially and in parallel" into a dependency tree
//! (§I-C). These futures are *not* Rust `std::future`s — HPX-threads are
//! cooperative user-level threads, not poll-based async — so we implement
//! the HPX shape directly:
//!
//! * [`Promise`] — single producer; [`Promise::set`] publishes a value,
//!   [`Promise::fail`] publishes an error. Dropping a promise unfulfilled
//!   settles the future with [`TaskError::BrokenPromise`] (or the panic /
//!   cancellation that caused the drop), so consumers are never stranded.
//! * [`SharedFuture`] — many consumers; readable any number of times
//!   (values are `Arc`-shared), attachable continuations, blocking `get`
//!   for external (non-worker) threads. A future *settles* exactly once:
//!   either ready with a value or faulted with a [`TaskError`].
//! * [`when_all`] — N-ary conjunction, the edge/intermediate nodes of the
//!   dependency graph in the paper's Fig. 2. The first faulted input
//!   faults the conjunction with a [`TaskError::Dependency`] cause chain.
//!
//! Continuations run inline on the thread that settles the promise,
//! which on a worker means "as part of the completing task's phase" —
//! the same attribution HPX uses for cheap continuations.
//!
//! Settling is the per-task fixed cost of every dataflow node, so it
//! stays off the kernel: blocked waiters announce themselves under the
//! state lock, and a settle with nobody blocked skips the condvar notify
//! (a futex syscall even when no thread sleeps).

#![deny(clippy::unwrap_used)]

use crate::fault::{self, TaskError};
use grain_counters::sync::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The settled outcome of a future: a shared value or the task error.
pub type Settled<T> = Result<Arc<T>, TaskError>;

/// Callback attached to a future; observes the settled outcome.
type Continuation<T> = Box<dyn FnOnce(&Settled<T>) + Send>;

enum State<T> {
    Empty(Vec<Continuation<T>>),
    Ready(Arc<T>),
    Faulted(TaskError),
}

/// Everything guarded by a future's lock.
struct Slot<T> {
    state: State<T>,
    /// Threads parked on `ready` in [`SharedFuture::wait`] or
    /// [`SharedFuture::wait_timeout`]. Changed and read only under the
    /// lock, so a settle that reads zero cannot miss a waiter: one that
    /// blocks later sees the settled state before it would wait.
    blocked: usize,
}

struct Shared<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    /// Settle the future (value or error), waking blocked waiters and
    /// running all attached continuations inline on this thread.
    ///
    /// # Panics
    /// Panics if the future was already settled.
    fn settle(&self, outcome: Settled<T>) {
        let new_state = match &outcome {
            Ok(v) => State::Ready(Arc::clone(v)),
            Err(e) => State::Faulted(e.clone()),
        };
        let (continuations, blocked) = {
            let mut slot = self.slot.lock();
            match std::mem::replace(&mut slot.state, new_state) {
                State::Empty(conts) => (conts, slot.blocked),
                State::Ready(_) | State::Faulted(_) => panic!("promise fulfilled twice"),
            }
        };
        if blocked > 0 {
            self.ready.notify_all();
        }
        for c in continuations {
            c(&outcome);
        }
    }

    /// Park on `ready` until notified (`timeout: None`) or until
    /// `timeout` elapses, counted in `blocked` for the duration.
    fn block(&self, slot: &mut MutexGuard<'_, Slot<T>>, timeout: Option<Duration>) {
        slot.blocked += 1;
        match timeout {
            None => self.ready.wait(slot),
            Some(t) => {
                self.ready.wait_for(slot, t);
            }
        }
        slot.blocked -= 1;
    }
}

/// The write end of a future.
///
/// Exactly one settle happens per promise: [`Promise::set`],
/// [`Promise::fail`], or — if the promise is dropped unfulfilled — an
/// automatic fault carrying the reason for the drop (the captured panic
/// message when dropped by an unwind, [`TaskError::Cancelled`] when the
/// owning task was skipped, [`TaskError::BrokenPromise`] otherwise).
pub struct Promise<T> {
    shared: Option<Arc<Shared<T>>>,
}

/// The read end: shareable, clonable, multi-consumer.
pub struct SharedFuture<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for SharedFuture<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Create a connected promise/future pair.
pub fn channel<T>() -> (Promise<T>, SharedFuture<T>) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(Slot {
            state: State::Empty(Vec::new()),
            blocked: 0,
        }),
        ready: Condvar::new(),
    });
    (
        Promise {
            shared: Some(Arc::clone(&shared)),
        },
        SharedFuture { shared },
    )
}

impl<T> Promise<T> {
    /// Publish the value, waking blocked `get`s and running all attached
    /// continuations inline on this thread.
    ///
    /// # Panics
    /// Panics if the promise was already fulfilled.
    pub fn set(mut self, value: T) {
        let shared = self.shared.take().expect("promise already consumed");
        shared.settle(Ok(Arc::new(value)));
    }

    /// Publish an error instead of a value. Waiters and continuations
    /// observe `Err(error)`.
    ///
    /// # Panics
    /// Panics if the promise was already fulfilled.
    pub fn fail(mut self, error: TaskError) {
        let shared = self.shared.take().expect("promise already consumed");
        shared.settle(Err(error));
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        let Some(shared) = self.shared.take() else {
            return; // consumed by set/fail
        };
        // Dropped unfulfilled: settle with the most specific error we can
        // attribute. During an unwind the panic hook has captured the
        // message; deliberate teardown (cancellation skip, post-panic
        // frame disposal) sets an ambient drop reason.
        let error = if std::thread::panicking() {
            TaskError::Panicked {
                message: fault::captured_panic()
                    .unwrap_or_else(|| "task panicked (message unavailable)".to_string()),
            }
        } else if let Some(reason) = fault::drop_reason() {
            reason
        } else {
            TaskError::BrokenPromise
        };
        shared.settle(Err(error));
    }
}

impl<T> SharedFuture<T> {
    /// Threads currently blocked in `wait` / `wait_timeout`.
    #[cfg(test)]
    fn blocked(&self) -> usize {
        self.shared.slot.lock().blocked
    }

    /// A future that is already fulfilled ("make_ready_future").
    pub fn ready(value: T) -> Self {
        let (p, f) = channel();
        p.set(value);
        f
    }

    /// A future that is already faulted with `error`.
    pub fn faulted(error: TaskError) -> Self {
        let (p, f) = channel();
        p.fail(error);
        f
    }

    /// The settled outcome, if the future has settled: `Some(Ok(value))`
    /// once ready, `Some(Err(error))` once faulted, `None` while pending.
    pub fn try_get(&self) -> Option<Settled<T>> {
        match &self.shared.slot.lock().state {
            State::Ready(v) => Some(Ok(Arc::clone(v))),
            State::Faulted(e) => Some(Err(e.clone())),
            State::Empty(_) => None,
        }
    }

    /// True once the future has settled (ready *or* faulted) — i.e. a
    /// suspended task waiting on it would be resumed.
    pub fn is_ready(&self) -> bool {
        self.try_get().is_some()
    }

    /// True if the future settled with an error.
    pub fn is_faulted(&self) -> bool {
        matches!(self.try_get(), Some(Err(_)))
    }

    /// The error the future faulted with, if it did.
    pub fn error(&self) -> Option<TaskError> {
        match self.try_get() {
            Some(Err(e)) => Some(e),
            _ => None,
        }
    }

    /// Block the calling thread until the value is available.
    ///
    /// Intended for *external* threads (e.g. `main` collecting a result).
    /// A worker thread must never block here — it would stall its queue;
    /// tasks wait by suspension instead
    /// ([`crate::runtime::TaskContext::suspend_until`]).
    ///
    /// # Panics
    /// Panics if the future faults (producing task panicked, was
    /// cancelled, or lost its promise). Use [`SharedFuture::wait`] or
    /// [`SharedFuture::wait_timeout`] for a fallible join.
    pub fn get(&self) -> Arc<T> {
        match self.wait() {
            Ok(v) => v,
            Err(e) => panic!("SharedFuture::get on a faulted future: {e}"),
        }
    }

    /// Block until the future settles; the fallible form of
    /// [`SharedFuture::get`].
    pub fn wait(&self) -> Settled<T> {
        let mut slot = self.shared.slot.lock();
        loop {
            match &slot.state {
                State::Ready(v) => return Ok(Arc::clone(v)),
                State::Faulted(e) => return Err(e.clone()),
                State::Empty(_) => self.shared.block(&mut slot, None),
            }
        }
    }

    /// Block until the future settles or `timeout` elapses. Returns
    /// `Err(TaskError::Timeout)` on expiry — the only blocking join safe
    /// against a stalled producer.
    pub fn wait_timeout(&self, timeout: Duration) -> Settled<T> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock();
        loop {
            match &slot.state {
                State::Ready(v) => return Ok(Arc::clone(v)),
                State::Faulted(e) => return Err(e.clone()),
                State::Empty(_) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(TaskError::Timeout { waited: timeout });
                    }
                    self.shared.block(&mut slot, Some(deadline - now));
                }
            }
        }
    }

    /// Attach a continuation observing the settled outcome: runs
    /// immediately (inline) if already settled, otherwise at settle time
    /// on the settling thread.
    pub fn on_settled(&self, f: impl FnOnce(&Settled<T>) + Send + 'static) {
        let outcome = {
            let mut slot = self.shared.slot.lock();
            match &mut slot.state {
                State::Ready(v) => Ok(Arc::clone(v)),
                State::Faulted(e) => Err(e.clone()),
                State::Empty(conts) => {
                    conts.push(Box::new(f));
                    return;
                }
            }
        };
        f(&outcome);
    }

    /// Attach a continuation that runs only if the future becomes ready
    /// with a value (a fault silently skips it — prefer
    /// [`SharedFuture::on_settled`] when the error path matters).
    pub fn on_ready(&self, f: impl FnOnce(&Arc<T>) + Send + 'static) {
        self.on_settled(move |outcome| {
            if let Ok(v) = outcome {
                f(v);
            }
        });
    }
}

/// A future for the conjunction of `futures`: ready when all inputs are,
/// carrying the input values in order — or faulted as soon as any input
/// faults, with that input's error as the [`TaskError::Dependency`]
/// cause.
///
/// This is the paper's dependency-graph "intermediate node": HPX-Stencil
/// combines the three neighbouring partitions of the previous time step
/// with `when_all` before launching the update task.
pub fn when_all<T: Send + Sync + 'static>(
    futures: &[SharedFuture<T>],
) -> SharedFuture<Vec<Arc<T>>> {
    let (promise, out) = channel();
    on_all_settled(futures, move |joined| match joined {
        Ok(values) => promise.set(values),
        Err(e) => promise.fail(e),
    });
    out
}

/// The one join behind [`when_all`] and dataflow: run `k` exactly once,
/// with `Ok(values in input order)` when the last input becomes ready, or
/// with `Err(TaskError::Dependency { cause })` on the first input fault.
/// `k` runs inline on the thread that settles the deciding input (or on
/// this thread, if that already happened; with no inputs, immediately).
///
/// The join is an atomic countdown over the inputs themselves: a value
/// only decrements it, and the input that takes it to zero reads every
/// value back from its (settled) future, so no gather buffer or
/// intermediate future is built. A faulted input never decrements, so
/// the countdown reaches zero only if every input became ready; the
/// `Option` around `k` arbitrates between several faults. The countdown
/// publishes no data: values are read back under each input's own lock,
/// which orders them after their producers. `AcqRel` on it is belt and
/// braces, not load-bearing.
pub(crate) fn on_all_settled<T, K>(inputs: &[SharedFuture<T>], k: K)
where
    T: Send + Sync + 'static,
    K: FnOnce(Result<Vec<Arc<T>>, TaskError>) + Send + 'static,
{
    struct Join<T, K> {
        inputs: Vec<SharedFuture<T>>,
        remaining: AtomicUsize,
        k: Mutex<Option<K>>,
    }
    impl<T, K: FnOnce(Result<Vec<Arc<T>>, TaskError>)> Join<T, K> {
        fn finish(&self, joined: Result<Vec<Arc<T>>, TaskError>) {
            let k = self.k.lock().take();
            if let Some(k) = k {
                k(joined);
            }
        }
    }

    if inputs.is_empty() {
        k(Ok(Vec::new()));
        return;
    }
    let join = Arc::new(Join {
        inputs: inputs.to_vec(),
        remaining: AtomicUsize::new(inputs.len()),
        k: Mutex::new(Some(k)),
    });
    for input in inputs {
        let join = Arc::clone(&join);
        input.on_settled(move |outcome| match outcome {
            Ok(_) => {
                if join.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Every input is ready, so every read hits a value;
                    // the `BrokenPromise` arm is only there to stay total.
                    let values = join
                        .inputs
                        .iter()
                        .map(|f| f.try_get().unwrap_or(Err(TaskError::BrokenPromise)))
                        .collect();
                    join.finish(values);
                }
            }
            Err(e) => join.finish(Err(TaskError::Dependency {
                cause: Arc::new(e.clone()),
            })),
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn set_then_get() {
        let (p, f) = channel();
        p.set(42);
        assert_eq!(*f.get(), 42);
        assert_eq!(*f.try_get().unwrap().unwrap(), 42);
        assert!(f.is_ready());
        assert!(!f.is_faulted());
    }

    #[test]
    fn try_get_before_set_is_none() {
        let (_p, f) = channel::<i32>();
        assert!(f.try_get().is_none());
        assert!(!f.is_ready());
    }

    #[test]
    fn ready_constructor() {
        let f = SharedFuture::ready("hi");
        assert_eq!(*f.get(), "hi");
    }

    #[test]
    fn faulted_constructor_and_error() {
        let f = SharedFuture::<i32>::faulted(TaskError::Cancelled);
        assert!(f.is_ready(), "faulted counts as settled");
        assert!(f.is_faulted());
        assert_eq!(f.error(), Some(TaskError::Cancelled));
        assert_eq!(f.wait(), Err(TaskError::Cancelled));
    }

    #[test]
    #[should_panic(expected = "fulfilled twice")]
    fn double_set_panics() {
        let (p, f) = channel();
        p.set(1);
        // A second promise to the same shared state can't be constructed
        // through the public API; exercise the internal double-settle
        // guard with a hand-made promise.
        let p2 = Promise {
            shared: Some(Arc::clone(&f.shared)),
        };
        p2.set(2);
    }

    #[test]
    fn dropped_promise_faults_with_broken_promise() {
        let (p, f) = channel::<u8>();
        drop(p);
        assert_eq!(f.error(), Some(TaskError::BrokenPromise));
        assert_eq!(f.wait(), Err(TaskError::BrokenPromise));
    }

    #[test]
    #[should_panic(expected = "faulted future")]
    fn get_on_faulted_future_panics() {
        let f = SharedFuture::<u8>::faulted(TaskError::BrokenPromise);
        let _ = f.get();
    }

    #[test]
    fn wait_timeout_expires_on_pending_future() {
        let (_p, f) = channel::<u8>();
        match f.wait_timeout(Duration::from_millis(5)) {
            Err(TaskError::Timeout { waited }) => {
                assert_eq!(waited, Duration::from_millis(5));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_returns_value_when_set() {
        let (p, f) = channel();
        let t = std::thread::spawn(move || f.wait_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        p.set(3u8);
        assert_eq!(*t.join().unwrap().unwrap(), 3);
    }

    #[test]
    fn continuation_runs_on_set() {
        let (p, f) = channel();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        f.on_ready(move |v| {
            assert_eq!(**v, 9);
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        p.set(9);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn continuation_runs_immediately_if_ready() {
        let f = SharedFuture::ready(1);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        f.on_ready(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn on_ready_is_skipped_on_fault_but_on_settled_fires() {
        let (p, f) = channel::<u8>();
        let ready_hits = Arc::new(AtomicUsize::new(0));
        let settled_errs = Arc::new(AtomicUsize::new(0));
        let rh = Arc::clone(&ready_hits);
        f.on_ready(move |_| {
            rh.fetch_add(1, Ordering::SeqCst);
        });
        let se = Arc::clone(&settled_errs);
        f.on_settled(move |outcome| {
            if outcome.is_err() {
                se.fetch_add(1, Ordering::SeqCst);
            }
        });
        p.fail(TaskError::Cancelled);
        assert_eq!(ready_hits.load(Ordering::SeqCst), 0);
        assert_eq!(settled_errs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multiple_consumers_share_value() {
        let (p, f) = channel();
        let f2 = f.clone();
        let f3 = f.clone();
        p.set(vec![1, 2, 3]);
        assert_eq!(*f.get(), vec![1, 2, 3]);
        assert!(Arc::ptr_eq(&f2.get(), &f3.get()));
    }

    #[test]
    fn get_blocks_until_set() {
        let (p, f) = channel();
        let t = std::thread::spawn(move || *f.get());
        std::thread::sleep(std::time::Duration::from_millis(10));
        p.set(7u32);
        assert_eq!(t.join().unwrap(), 7);
    }

    #[test]
    fn when_all_empty_is_immediately_ready() {
        let out = when_all::<i32>(&[]);
        assert!(out.is_ready());
        assert!(out.get().is_empty());
    }

    #[test]
    fn when_all_collects_in_order() {
        let (p1, f1) = channel();
        let (p2, f2) = channel();
        let (p3, f3) = channel();
        let out = when_all(&[f1, f2, f3]);
        p2.set(20);
        assert!(!out.is_ready());
        p3.set(30);
        p1.set(10);
        let v = out.get();
        let vals: Vec<i32> = v.iter().map(|a| **a).collect();
        assert_eq!(vals, vec![10, 20, 30]);
    }

    #[test]
    fn when_all_with_already_ready_inputs() {
        let f1 = SharedFuture::ready(1);
        let (p2, f2) = channel();
        let out = when_all(&[f1, f2]);
        assert!(!out.is_ready());
        p2.set(2);
        let vals: Vec<i32> = out.get().iter().map(|a| **a).collect();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn when_all_faults_on_first_faulted_input() {
        let (p1, f1) = channel::<i32>();
        let (p2, f2) = channel::<i32>();
        let out = when_all(&[f1, f2]);
        p1.fail(TaskError::Panicked {
            message: "boom".into(),
        });
        let err = out.error().expect("conjunction must fault");
        assert_eq!(
            err.root_cause(),
            &TaskError::Panicked {
                message: "boom".into()
            }
        );
        assert_eq!(err.chain_len(), 1);
        // A late sibling value must not double-settle.
        p2.set(2);
        assert!(out.is_faulted());
    }

    #[test]
    fn when_all_fault_after_values_still_faults() {
        let (p1, f1) = channel::<i32>();
        let (p2, f2) = channel::<i32>();
        let out = when_all(&[f1, f2]);
        p1.set(1);
        p2.fail(TaskError::Cancelled);
        assert!(out.is_faulted());
        assert_eq!(out.error().unwrap().root_cause(), &TaskError::Cancelled);
    }

    #[test]
    fn when_all_concurrent_setters() {
        let pairs: Vec<_> = (0..32).map(|_| channel::<usize>()).collect();
        let futures: Vec<_> = pairs.iter().map(|(_, f)| f.clone()).collect();
        let out = when_all(&futures);
        let handles: Vec<_> = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (p, _))| std::thread::spawn(move || p.set(i)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let vals: Vec<usize> = out.get().iter().map(|a| **a).collect();
        assert_eq!(vals, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn settle_wakes_every_waiter_left_after_a_timeout() {
        let (p, f) = channel::<u32>();
        let waiting = {
            let f = f.clone();
            std::thread::spawn(move || f.wait())
        };
        let patient = {
            let f = f.clone();
            std::thread::spawn(move || f.wait_timeout(Duration::from_secs(30)))
        };
        let hasty = {
            let f = f.clone();
            std::thread::spawn(move || f.wait_timeout(Duration::from_millis(20)))
        };
        let spin_until = |n: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while f.blocked() != n {
                assert!(Instant::now() < deadline, "never saw {n} blocked waiters");
                std::thread::yield_now();
            }
        };
        spin_until(3);
        assert!(matches!(
            hasty.join().unwrap(),
            Err(TaskError::Timeout { .. })
        ));
        // The timed-out waiter must take its mark with it, and the two
        // still parked must keep theirs, or the settle below skips its
        // notify and strands them.
        spin_until(2);
        p.set(5);
        assert_eq!(*waiting.join().unwrap().unwrap(), 5);
        assert_eq!(*patient.join().unwrap().unwrap(), 5);
        assert_eq!(f.blocked(), 0);
    }

    /// What an `on_all_settled` continuation is handed.
    type Join = Result<Vec<Arc<i32>>, TaskError>;
    /// Every call a [`recorder`] continuation got, values unwrapped.
    type Calls = Arc<Mutex<Vec<Result<Vec<i32>, TaskError>>>>;

    /// An `on_all_settled` continuation that records every call it gets.
    fn recorder() -> (Calls, impl FnOnce(Join) + Send + 'static) {
        let calls: Calls = Arc::new(Mutex::new(Vec::new()));
        let c = Arc::clone(&calls);
        let k = move |joined: Join| {
            c.lock()
                .push(joined.map(|vs| vs.iter().map(|v| **v).collect()));
        };
        (calls, k)
    }

    #[test]
    fn on_all_settled_with_no_inputs_runs_at_once() {
        let (calls, k) = recorder();
        on_all_settled::<i32, _>(&[], k);
        assert_eq!(*calls.lock(), vec![Ok(vec![])]);
    }

    #[test]
    fn on_all_settled_with_settled_inputs_runs_inline() {
        let (calls, k) = recorder();
        on_all_settled(&[SharedFuture::ready(1), SharedFuture::ready(2)], k);
        assert_eq!(*calls.lock(), vec![Ok(vec![1, 2])]);

        let (calls, k) = recorder();
        on_all_settled(
            &[
                SharedFuture::ready(1),
                SharedFuture::faulted(TaskError::Cancelled),
            ],
            k,
        );
        let calls = calls.lock();
        assert_eq!(calls.len(), 1);
        let err = calls[0].clone().unwrap_err();
        assert_eq!(err.root_cause(), &TaskError::Cancelled);
        assert_eq!(err.chain_len(), 1);
    }

    #[test]
    fn on_all_settled_fault_after_values_runs_once() {
        let (p1, f1) = channel();
        let (p2, f2) = channel();
        let (p3, f3) = channel::<i32>();
        let (calls, k) = recorder();
        on_all_settled(&[f1, f2, f3], k);
        p1.set(1);
        p2.set(2);
        assert!(calls.lock().is_empty());
        p3.fail(TaskError::BrokenPromise);
        let calls = calls.lock();
        assert_eq!(calls.len(), 1);
        let err = calls[0].clone().unwrap_err();
        assert_eq!(err.root_cause(), &TaskError::BrokenPromise);
        assert_eq!(err.chain_len(), 1, "one Dependency wrap");
    }

    #[test]
    fn on_all_settled_value_after_fault_runs_once() {
        let (p1, f1) = channel::<i32>();
        let (p2, f2) = channel();
        let (p3, f3) = channel::<i32>();
        let (calls, k) = recorder();
        on_all_settled(&[f1, f2, f3], k);
        p1.fail(TaskError::Cancelled);
        p2.set(2);
        p3.fail(TaskError::BrokenPromise);
        let calls = calls.lock();
        assert_eq!(calls.len(), 1, "later value and fault must not re-run k");
        assert_eq!(
            calls[0].clone().unwrap_err().root_cause(),
            &TaskError::Cancelled,
            "the first fault wins"
        );
    }

    #[test]
    fn on_all_settled_concurrent_settlers_run_k_once() {
        for round in 0..50 {
            let pairs: Vec<_> = (0..8).map(|_| channel::<i32>()).collect();
            let futures: Vec<_> = pairs.iter().map(|(_, f)| f.clone()).collect();
            let (calls, k) = recorder();
            on_all_settled(&futures, k);
            let handles: Vec<_> = pairs
                .into_iter()
                .enumerate()
                .map(|(i, (p, _))| {
                    std::thread::spawn(move || {
                        if i == round % 8 && round % 2 == 1 {
                            p.fail(TaskError::Cancelled);
                        } else {
                            p.set(i as i32);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let calls = calls.lock();
            assert_eq!(calls.len(), 1);
            if round % 2 == 1 {
                assert!(calls[0].is_err());
            } else {
                assert_eq!(calls[0], Ok((0..8).collect::<Vec<_>>()));
            }
        }
    }
}
