//! The worker loop: dispatch, timing, starvation accounting, parking.
//!
//! Timing follows the paper's counter semantics (§II-A):
//!
//! * `t_exec` — the closure time of each phase, accumulated into
//!   `Σt_exec` (`/threads/time/cumulative-exec`);
//! * `t_func` — "the total time to complete each HPX-thread": measured
//!   from the end of the previous dispatch (i.e. including the search
//!   for work, conversion, dequeue, state transitions) to the end of the
//!   current phase. Starvation while work exists *somewhere* is flushed
//!   into `Σt_func` before a worker parks, so coarse-grained runs show
//!   the rising idle-rate of Fig. 4/5's right-hand side. Time spent
//!   while the whole runtime is quiescent (no task in flight) is *not*
//!   charged — otherwise the counters would drift between benchmark runs.
//!
//! With the `coarse-clock` feature the three `Instant::now()` reads per
//! phase collapse to one in steady state (see [`PhaseClock`]); Σt_func
//! stays exact, Σt_exec inherits a bounded estimate error, and every
//! park/quiescent/throttle path still reads real time.
//!
//! Every phase runs under `catch_unwind`: a panicking body terminates
//! only its task (→ `Faulted`, promise settled with
//! [`TaskError::Panicked`], group notified), never the worker. The one
//! deliberate exception is the `Poll::Suspend`-without-registration
//! programming error below, which stays worker-fatal — the dead-worker
//! detection in [`crate::Runtime`] exists to surface exactly that class
//! of bug loudly instead of hanging.

#![deny(clippy::unwrap_used)]

use crate::fault::{self, TaskError};
use crate::runtime::{Inner, Resumer, TaskContext};
use crate::task::{Poll, TaskState};
use crate::trace::TraceEventKind;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn worker_loop(inner: Arc<Inner>, w: usize) {
    inner.bind_worker(w);
    let counters = &inner.counters;
    let mut mark = Instant::now();
    let mut clock = PhaseClock::new();
    let mut failed_rounds: u32 = 0;

    loop {
        // Eventcount ticket, taken before any probe of this iteration:
        // any wake() fired after this point (spawn, resume, throttle
        // change, shutdown) makes a later park() of this iteration
        // return immediately instead of sleeping through the event.
        let ticket = inner.park_ticket();
        if w >= inner.active_limit.load(Ordering::SeqCst) {
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Throttled: park without taking work; throttled time is
            // deliberate and never charged as starvation.
            inner.park_throttled(w);
            mark = Instant::now();
            clock.discontinuity();
            failed_rounds = 0;
            continue;
        }
        match inner.scheduler.find_work(w, counters) {
            Some((mut task, prov)) => {
                failed_rounds = 0;
                let skip = task.group.as_ref().and_then(|g| {
                    if g.is_cancelled() {
                        Some((std::sync::Arc::clone(g), false))
                    } else if g.budget_exhausted() {
                        // Deadline budget propagation: the job this task
                        // belongs to has already spent its deadline, so
                        // running the body would be work nobody collects.
                        Some((std::sync::Arc::clone(g), true))
                    } else {
                        None
                    }
                });
                if let Some((group, over_budget)) = skip {
                    // Cooperative cancellation: the body never runs. The
                    // task still terminates (legally) so in-flight counts
                    // — runtime-wide and group — stay balanced. The frame
                    // may hold an unfulfilled promise; dropping it under
                    // this reason faults the future with `Cancelled`
                    // instead of `BrokenPromise`.
                    task.transition(TaskState::Active);
                    task.transition(TaskState::Terminated);
                    fault::with_drop_reason(TaskError::Cancelled, move || drop(task));
                    inner.task_done();
                    if over_budget {
                        group.exit_over_budget();
                    } else {
                        group.exit_skipped();
                    }
                    // Dispatch bookkeeping stays honest: skipping is part
                    // of the search-to-search interval, charged to Σt_func
                    // by the next successful dispatch via `mark` (which
                    // must therefore re-measure its dispatch span instead
                    // of trusting the coarse estimate).
                    clock.discontinuity();
                    continue;
                }
                if inner.tracer.enabled() {
                    if let Some(victim) = steal_victim(&prov) {
                        inner
                            .tracer
                            .record(w, task.id, TraceEventKind::Steal { from: victim });
                    }
                    inner.tracer.record(w, task.id, TraceEventKind::PhaseStart);
                }
                task.transition(TaskState::Active);
                let mut ctx = TaskContext {
                    inner: &inner,
                    worker: w,
                    task_id: task.id,
                    phase: task.phases,
                    suspend_registration: None,
                    group: task.group.clone(),
                };

                #[cfg(feature = "fault-inject")]
                let injected = inner
                    .config
                    .fault_plan
                    .as_ref()
                    .map(|p| p.decide(task.id.0, task.phases))
                    .unwrap_or(grain_counters::FaultAction::None);
                #[cfg(feature = "fault-inject")]
                match injected {
                    grain_counters::FaultAction::Delay(d) => {
                        std::thread::sleep(d);
                        // The injected sleep sits between `mark` and the
                        // body; it belongs to Σt_func, so the coarse clock
                        // must re-measure rather than subtract a stale
                        // dispatch estimate.
                        clock.discontinuity();
                    }
                    grain_counters::FaultAction::SpuriousWake => inner.wake(),
                    _ => {}
                }

                let exec_start = clock.phase_start();
                // Isolate the phase: a panicking body must terminate only
                // this task. The scope arms the panic hook so the message
                // is captured (and not printed) and reachable by promise
                // drop glue running inside the unwind.
                let result = {
                    let _scope = fault::PhaseScope::enter();
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-inject")]
                        if injected == grain_counters::FaultAction::Panic {
                            panic!("injected fault: task panic");
                        }
                        task.body.call(&mut ctx)
                    }))
                };
                let (exec_ns, now) = clock.phase_end(exec_start, mark);
                if inner.tracer.enabled() {
                    inner.tracer.record(w, task.id, TraceEventKind::PhaseEnd);
                }
                let registration = ctx.suspend_registration.take();

                task.phases += 1;
                task.exec_ns += exec_ns;
                counters.phases.incr(w);
                counters.exec_ns.add(w, exec_ns);
                counters.exec_histogram.record(exec_ns);
                if let Some(g) = &task.group {
                    g.add_exec_ns(exec_ns);
                }

                counters
                    .func_ns
                    .add(w, now.duration_since(mark).as_nanos() as u64);
                mark = now;

                match result {
                    Ok(Poll::Complete) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Terminated);
                        counters.tasks.incr(w);
                        let group = task.group.take();
                        drop(task); // free the frame before signalling idle
                        inner.task_done();
                        if let Some(g) = group {
                            g.exit_completed();
                        }
                    }
                    Ok(Poll::Yield) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Pending);
                        inner.scheduler.queues.push_pending(w, task);
                        inner.wake();
                    }
                    Ok(Poll::Suspend) => {
                        fault::take_captured_panic();
                        task.transition(TaskState::Suspended);
                        let registration = registration.expect(
                            "task returned Poll::Suspend without calling \
                             TaskContext::suspend_until first",
                        );
                        registration(Resumer {
                            inner: Arc::clone(&inner),
                            task: Some(task),
                        });
                    }
                    Err(payload) => {
                        // The panic is contained: this task faults, the
                        // worker carries on. `once` bodies already settled
                        // their promise during the unwind (with the
                        // captured message); phased bodies still hold
                        // theirs — the reasoned drop below faults it.
                        let message = fault::take_captured_panic()
                            .unwrap_or_else(|| fault::payload_message(payload.as_ref()));
                        drop(payload);
                        let error = TaskError::Panicked { message };
                        task.transition(TaskState::Faulted);
                        counters.faulted.incr(w);
                        let group = task.group.take();
                        fault::with_drop_reason(error.clone(), move || drop(task));
                        inner.task_done();
                        if let Some(g) = group {
                            g.exit_faulted(error);
                        }
                    }
                }
            }
            None => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Whatever happens next (spin, park, quiescent discard),
                // the next dispatch's search span is atypical — force a
                // precise re-measure.
                clock.discontinuity();
                failed_rounds += 1;
                if failed_rounds <= inner.config.spin_rounds {
                    std::hint::spin_loop();
                    continue;
                }
                failed_rounds = 0;
                if inner.in_flight.load(Ordering::SeqCst) == 0 {
                    // Quiescent runtime: discard the elapsed window so the
                    // counters don't drift while nothing is happening.
                    mark = Instant::now();
                }
                // The ticket predates this iteration's (empty) search: a
                // spawn that raced it bumped the generation and voids the
                // park — the lost-wakeup window is closed.
                inner.park(ticket);
                let now = Instant::now();
                if inner.in_flight.load(Ordering::SeqCst) > 0 {
                    // Genuine starvation: work exists but this worker can't
                    // get any. Charge the search + nap time to Σt_func (the
                    // paper: at coarse grain "cores have no work to do …
                    // but the thread scheduler continues to look for
                    // work").
                    counters
                        .func_ns
                        .add(w, now.duration_since(mark).as_nanos() as u64);
                }
                mark = now;
            }
        }
    }
    inner.unbind_worker();
}

/// Phase-timing policy (default build): exactly the paper's
/// three-reads-per-phase instrumentation — one `Instant::now()` before
/// the body (start of t_exec), one after (end of t_exec), one as the
/// Σt_func mark.
#[cfg(not(feature = "coarse-clock"))]
struct PhaseClock;

#[cfg(not(feature = "coarse-clock"))]
impl PhaseClock {
    fn new() -> Self {
        PhaseClock
    }

    #[inline]
    fn phase_start(&mut self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn phase_end(&mut self, exec_start: Instant, _mark: Instant) -> (u64, Instant) {
        let exec_ns = exec_start.elapsed().as_nanos() as u64;
        (exec_ns, Instant::now())
    }

    #[inline]
    fn discontinuity(&mut self) {}
}

/// Phase-timing policy (feature `coarse-clock`): one `Instant::now()`
/// per executed phase in steady state.
///
/// The trick: Σt_func needs only the end-of-phase read (`now - mark`,
/// both real reads — *exact*, always). t_exec is then derived by
/// subtracting a cached estimate `d̂` of the dispatch span (end of
/// previous phase → start of body: search, convert, dequeue, state
/// transitions). The estimate is re-measured precisely — the
/// three-read path — every [`PhaseClock::CALIBRATE_EVERY`] phases, and
/// after every schedule discontinuity (park, throttle, group-skip,
/// injected delay), where the span between `mark` and the body is not
/// a plain dispatch.
///
/// Error bound (documented contract, DESIGN.md §15): per coarse phase,
/// |t_exec_reported − t_exec_true| = |d − d̂| ≤ the dispatch-span
/// drift within one calibration window; Σt_func is exact, so the
/// idle-rate (Eq. 1) error is at most `CALIBRATE_EVERY · max|d − d̂| /
/// Σt_func` over any window. Discontinuity spans are always measured
/// precisely, so parks and quiescent windows can never be
/// misattributed to t_exec.
#[cfg(feature = "coarse-clock")]
struct PhaseClock {
    /// Next phase must use the precise three-read path (startup, or a
    /// schedule discontinuity made the pending span non-representative).
    force_precise: bool,
    /// Coarse phases since the estimate was last refreshed.
    since_calibration: u32,
    /// Cached dispatch-span estimate `d̂`, nanoseconds.
    dispatch_est_ns: u64,
    /// Whether `dispatch_est_ns` holds at least one real sample.
    calibrated: bool,
}

#[cfg(feature = "coarse-clock")]
impl PhaseClock {
    /// Steady-state calibration cadence: one precise (three-read) phase
    /// per this many phases bounds estimate drift while amortizing the
    /// extra clock reads to < 2%.
    const CALIBRATE_EVERY: u32 = 64;

    fn new() -> Self {
        Self {
            force_precise: true,
            since_calibration: 0,
            dispatch_est_ns: 0,
            calibrated: false,
        }
    }

    #[inline]
    fn phase_start(&mut self) -> Option<Instant> {
        if self.force_precise || self.since_calibration >= Self::CALIBRATE_EVERY {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn phase_end(&mut self, exec_start: Option<Instant>, mark: Instant) -> (u64, Instant) {
        let now = Instant::now();
        match exec_start {
            Some(start) => {
                let exec_ns = now.duration_since(start).as_nanos() as u64;
                let dispatch = start.duration_since(mark).as_nanos() as u64;
                if !self.force_precise {
                    // Cadence calibration: a representative back-to-back
                    // dispatch span refreshes the estimate (EWMA, so one
                    // outlier page fault can't own it).
                    self.dispatch_est_ns = if self.calibrated {
                        (3 * self.dispatch_est_ns + dispatch) / 4
                    } else {
                        dispatch
                    };
                    self.calibrated = true;
                } else if !self.calibrated {
                    self.dispatch_est_ns = dispatch;
                    self.calibrated = true;
                }
                // Post-discontinuity spans (park, throttle, injected
                // sleep) are measured precisely for the counters but not
                // folded into the estimate — they are not dispatches.
                self.force_precise = false;
                self.since_calibration = 0;
                (exec_ns, now)
            }
            None => {
                self.since_calibration += 1;
                let total = now.duration_since(mark).as_nanos() as u64;
                (total.saturating_sub(self.dispatch_est_ns), now)
            }
        }
    }

    #[inline]
    fn discontinuity(&mut self) {
        self.force_precise = true;
    }
}

fn steal_victim(prov: &crate::scheduler::Provenance) -> Option<u32> {
    use crate::scheduler::Provenance as P;
    match prov {
        P::NumaStaged(p) | P::NumaPending(p) | P::RemoteStaged(p) | P::RemotePending(p) => {
            Some(*p as u32)
        }
        _ => None,
    }
}
