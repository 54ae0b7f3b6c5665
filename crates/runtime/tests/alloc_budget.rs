//! Allocation budget of the spawn paths.
//!
//! A counting global allocator pins how many heap allocations one
//! dataflow node and one `async_call` cost, end to end (spawn, join,
//! dispatch, run, settle), with each allocation named below. Segments of
//! the scheduler queues are allocated once per `BLOCK_CAP` pushes; the
//! runtime counts them (`/queue/segment-allocations`), so they are
//! subtracted rather than amortized into the budget.
//!
//! Only the threads doing the measured work count: the test thread and
//! the runtime's single worker mark themselves ([`measure_this_thread`]),
//! so the test harness's own bookkeeping on other threads does not leak
//! into the numbers. Every test takes `SERIAL` first: the counter itself
//! is process-wide, so two measurements must never overlap.

use grain_runtime::{channel, Runtime, SharedFuture};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialized
    /// with no destructor, so reading it never allocates.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Count the calling thread's allocations from now on.
fn measure_this_thread() {
    MEASURED.with(|m| m.set(true));
}

/// A one-worker runtime whose worker and caller are both measured.
fn measured_runtime() -> Runtime {
    let rt = Runtime::with_workers(1);
    rt.async_call(|_| measure_this_thread()).get();
    measure_this_thread();
    rt
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

const ROUNDS: u64 = 200;

fn segment_allocs(rt: &Runtime) -> u64 {
    rt.registry()
        .query("/threads{locality#0/total}/queue/segment-allocations")
        .expect("queue counter is registered")
        .value as u64
}

/// Heap allocations made while `round` runs, `ROUNDS` times, per round,
/// queue segments excluded. `round` must leave the runtime idle.
fn allocations_per_round(rt: &Runtime, mut round: impl FnMut()) -> f64 {
    // Warm up: thread-locals, lazily built counters, first segments.
    for _ in 0..8 {
        round();
    }
    let segments = segment_allocs(rt);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..ROUNDS {
        round();
    }
    let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let made = made - (segment_allocs(rt) - segments);
    made as f64 / ROUNDS as f64
}

#[test]
fn dataflow_node_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rt = measured_runtime();
    let per_node = allocations_per_round(&rt, || {
        // Not counted against the node: its inputs (3 channels + 3 value
        // `Arc`s when they are set below).
        let (inputs, promises): (Vec<_>, Vec<_>) = (0..3u64)
            .map(|_| {
                let (p, f) = channel::<u64>();
                (f, p)
            })
            .unzip();
        let node = rt.dataflow(&inputs, |_, values| values.iter().map(|v| **v).sum::<u64>());
        for (i, p) in promises.into_iter().enumerate() {
            p.set(i as u64);
        }
        assert_eq!(*node.get(), 3);
        rt.wait_idle();
    });
    // Inputs: 3 channels, 3 value `Arc`s, and the two `Vec`s above.
    let inputs = 8.0;
    // The node: (1) its output future, (2) the join frame, which holds
    // the inputs inline and is also the node's task, (3–5) one waiter
    // list on each input, which was pending and had none, (6) the `Vec`
    // of values handed to the body, (7) the result's `Arc`.
    assert_eq!(per_node - inputs, 7.0);
}

#[test]
fn async_call_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rt = measured_runtime();
    let per_call = allocations_per_round(&rt, || {
        let f = rt.async_call(|_| 7u64);
        assert_eq!(*f.get(), 7);
        rt.wait_idle();
    });
    // (1) the output future, (2) the boxed task body — none with the
    // `task-slab` feature, which recycles body slots — (3) the result's
    // `Arc`.
    let body = if cfg!(feature = "task-slab") {
        0.0
    } else {
        1.0
    };
    assert_eq!(per_call, 2.0 + body);
}

#[test]
fn reading_a_settled_future_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    measure_this_thread();
    let f = SharedFuture::ready(5u64);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..1000 {
        assert_eq!(*f.try_get().expect("settled").expect("a value"), 5);
        assert!(f.is_ready());
        assert_eq!(*f.wait().expect("a value"), 5);
    }
    assert_eq!(ALLOCATIONS.load(Ordering::SeqCst) - before, 0);
}
