//! `halo_tcp`: the distributed stencil over a real transport.
//!
//! `DistStencil`, the analogue of HPX's `1d_stencil_8`, runs across two
//! localities joined over TCP on 127.0.0.1 in this process, one worker
//! each. Partitions are fine, so every step's remote edge fetch is on
//! the critical path. Runs are one time step long and follow each
//! other in a closed loop; only whole runs count. Every gathered grid
//! must equal `run_futurized`'s bit for bit, and the parcel books must
//! balance at quiescence after the last run. This is the only workload
//! that crosses a real transport (loopback would hide it).

use crate::stats::{metg50_constant_overhead_us, quantile, windowed, Op, Report};
use crate::trace::{span, Tracer};
use crate::Workload;
use grain_net::{tcp_join, tcp_root, Locality, TcpNode};
use grain_runtime::{Runtime, RuntimeConfig};
use grain_stencil::distributed::DistStencil;
use grain_stencil::futurized::run_futurized;
use grain_stencil::heat::{heat_part, initial_partition};
use grain_stencil::params::StencilParams;
use std::time::{Duration, Instant};

/// Points per partition, partitions, and time steps of one run. Small
/// frames on these links wait for delayed ACKs, so a run takes ~43 ms
/// or ~87 ms; with one step the ~87 ms mode holds most runs and the
/// median and p90 stay inside it. With three steps the two modes hold
/// about half the runs each and the median flips between them.
const NX: usize = 1000;
const NP: usize = 8;
const NT: usize = 1;
/// Latency limit of one run, for goodput.
const LIMIT_MS: f64 = 1000.0;
/// Round trips of the traced echo probe (each can take tens of ms).
const RTT_CALLS: usize = 25;
/// Kernel calls timed for `stencil.kernel_ns_per_point`.
const KERNEL_REPS: usize = 2000;
const ECHO: &str = "perfbench/echo";
const QUIESCENCE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long no parcel may be counted before the books are read.
const QUIET: Duration = Duration::from_millis(10);

pub struct Halo {
    root: TcpNode,
    join: TcpNode,
    params: StencilParams,
    reference: Vec<f64>,
    kernel_ns_per_point: f64,
}

/// Parcel counter sums over both localities.
#[derive(Default, Clone, Copy)]
struct Books {
    sent: u64,
    received: u64,
    bytes: u64,
    calls_issued: u64,
    calls_settled: u64,
    ser_ns: u64,
    ser_samples: u64,
}

impl Books {
    fn read(locs: [&Locality; 2]) -> Self {
        let mut b = Self::default();
        for l in locs {
            let p = l.parcels();
            b.sent += p.sent.get();
            b.received += p.received.get();
            b.bytes += p.bytes_sent.get();
            b.calls_issued += p.calls_issued.get();
            b.calls_settled += p.calls_settled.get();
            b.ser_ns += p.ser_ns.get();
            b.ser_samples += p.ser_samples.get();
        }
        b
    }
}

/// Time one kernel call per partition of `NX` points on this thread.
fn kernel_ns_per_point(tracer: Option<&Tracer>) -> f64 {
    let coeff = StencilParams::new(NX, NP, NT).coefficient();
    let (left, mid, right) = (
        initial_partition(0, NX),
        initial_partition(1, NX),
        initial_partition(2, NX),
    );
    let t0 = Instant::now();
    span(tracer, "stencil.heat_part", None, 0, || {
        for _ in 0..KERNEL_REPS {
            std::hint::black_box(heat_part(coeff, std::hint::black_box(&left), &mid, &right));
        }
    });
    t0.elapsed().as_nanos() as f64 / (KERNEL_REPS * NX) as f64
}

impl Halo {
    /// Compute the reference grid, time the kernel, and join two
    /// one-worker localities over TCP.
    pub fn setup(_seed: u64, tracer: Option<&Tracer>) -> Self {
        let params = StencilParams::new(NX, NP, NT);
        let reference = span(tracer, "stencil.run_futurized", None, 0, || {
            run_futurized(&Runtime::with_workers(1), &params)
        });
        let kernel_ns_per_point = kernel_ns_per_point(tracer);
        let (root, join) = span(tracer, "net.tcp_bootstrap", None, 0, || {
            let root = tcp_root("127.0.0.1:0", 2, RuntimeConfig::with_workers(1))
                .expect("bind a TCP root on 127.0.0.1");
            let join = tcp_join(root.listen_addr(), RuntimeConfig::with_workers(1))
                .expect("join the TCP root");
            // Poll finely: set-up ends when both links exist, not at the
            // next tick of a coarse poller.
            let deadline = Instant::now() + Duration::from_secs(10);
            while [&root, &join]
                .iter()
                .any(|n| n.locality().connected_peers().is_empty())
            {
                assert!(
                    Instant::now() < deadline,
                    "the two TCP localities did not connect"
                );
                std::thread::sleep(Duration::from_micros(50));
            }
            (root, join)
        });
        for node in [&root, &join] {
            node.locality().register_action(ECHO, |x: u64| x);
        }
        Self {
            root,
            join,
            params,
            reference,
            kernel_ns_per_point,
        }
    }

    fn locs(&self) -> [&Locality; 2] {
        [self.root.locality(), self.join.locality()]
    }

    /// One whole stencil run across both localities; the gathered grid.
    fn run(&self, tracer: Option<&Tracer>, job: u64) -> Result<Vec<f64>, String> {
        let op = tracer.and_then(|t| t.open("bench.run", None, job));
        let [l0, l1] = self.locs();
        let s0 = span(tracer, "stencil.install", op, job, || {
            DistStencil::install(l0, self.params)
        });
        let s1 = span(tracer, "stencil.install", op, job, || {
            DistStencil::install(l1, self.params)
        });
        span(tracer, "stencil.start", op, job, || s0.start());
        span(tracer, "stencil.start", op, job, || s1.start());
        let grid = span(tracer, "stencil.gather", op, job, || s0.gather());
        if let Some(t) = tracer {
            t.close(op);
        }
        grid.map_err(|e| format!("run {job} failed: {e}"))
    }

    /// Wait for quiescence, as DESIGN.md §11 uses it for the books:
    /// both runtimes idle, both send queues empty, and no parcel counted
    /// on either locality for `QUIET`. Returns false on timeout. The
    /// books themselves are not consulted, so an imbalance that
    /// outlives quiescence is reported, never waited away.
    fn quiesce(&self) -> bool {
        let deadline = Instant::now() + QUIESCENCE_TIMEOUT;
        let activity = |b: Books| (b.sent, b.received, b.calls_issued, b.calls_settled);
        while Instant::now() < deadline {
            let mut queued = 0.0;
            for l in self.locs() {
                l.runtime().wait_idle();
                let path = format!("/parcels{{locality#{}/total}}/queue-length", l.id());
                queued += l.runtime().registry().query(&path).map_or(0.0, |v| v.value);
            }
            let seen = activity(Books::read(self.locs()));
            std::thread::sleep(QUIET);
            if queued == 0.0 && seen == activity(Books::read(self.locs())) {
                return true;
            }
        }
        false
    }
}

impl Drop for Halo {
    fn drop(&mut self) {
        for l in self.locs() {
            l.shutdown();
        }
    }
}

impl Workload for Halo {
    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Report {
        let mut report = Report::new();
        let before = Books::read(self.locs());
        let mut ops = Vec::new();
        let tasks = (NP * NT) as u64;
        let work_ns = (NP * NT * NX) as f64 * self.kernel_ns_per_point;
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let mut job = 0u64;
        while Instant::now() < deadline {
            job += 1;
            report.attempted += 1;
            let s = Instant::now();
            let result = self.run(tracer, job);
            let ms = s.elapsed().as_secs_f64() * 1e3;
            let ok = match result {
                Ok(grid) if grid == self.reference => true,
                Ok(grid) => {
                    let first = grid.iter().zip(&self.reference).position(|(a, b)| a != b);
                    report.wrong(format!(
                        "run {job}: grid differs from run_futurized (len {} vs {}, first at {first:?})",
                        grid.len(),
                        self.reference.len()
                    ));
                    false
                }
                Err(e) => {
                    report.wrong(e);
                    false
                }
            };
            if !ok {
                report.failed += 1;
            }
            ops.push(Op {
                at_s: (s - t0).as_secs_f64(),
                turnaround_ms: ms,
                makespan_ms: ms,
                tasks,
                work_ns,
                interactive: true,
                ok,
            });
        }
        let window = t0.elapsed().as_secs_f64();
        let steps = ops.len() as f64 * NT as f64;

        let quiet = span(tracer, "net.quiesce", None, 0, || self.quiesce());
        let after_runs = Books::read(self.locs());
        let mut rtt_us = Vec::new();
        if tracer.is_some() {
            let l0 = self.root.locality();
            let op = tracer.and_then(|t| t.open("bench.rtt", None, 0));
            for i in 0..RTT_CALLS as u64 {
                let s = Instant::now();
                let echoed = span(tracer, "net.async_remote", op, i, || {
                    l0.async_remote::<u64, u64>(1, ECHO, &i).wait()
                });
                rtt_us.push(s.elapsed().as_secs_f64() * 1e6);
                report.attempted += 1;
                if echoed.map(|v| *v) != Ok(i) {
                    report.failed += 1;
                    report.wrong(format!("echo {i} came back wrong"));
                }
            }
            if let Some(t) = tracer {
                t.close(op);
            }
        }
        // The books are read once, at quiescence; a mismatch is a
        // failure, never retried away.
        report.attempted += 1;
        let quiet = quiet && span(tracer, "net.quiesce", None, 0, || self.quiesce());
        let books = Books::read(self.locs());
        let balanced =
            quiet && books.sent == books.received && books.calls_issued == books.calls_settled;
        if !balanced {
            report.failed += 1;
            report.wrong(format!(
                "parcel books at quiescence (reached: {quiet}): sent {} received {}, calls issued {} settled {}",
                books.sent, books.received, books.calls_issued, books.calls_settled
            ));
        }

        let metg = windowed(&ops, window, &|o| {
            metg50_constant_overhead_us(o, crate::COMPUTE_WORKERS)
        });
        report.end_to_end(&ops, window, false, LIMIT_MS, metg);
        if tracer.is_some() {
            report.layer("net.rtt_p50_us", quantile(&rtt_us, 0.5), "us");
            report.layer("net.rtt_p99_us", quantile(&rtt_us, 0.99), "us");
            report.layer(
                "net.parcels_per_step",
                (after_runs.sent - before.sent) as f64 / steps.max(1.0),
                "count",
            );
            report.layer(
                "net.bytes_per_step",
                (after_runs.bytes - before.bytes) as f64 / steps.max(1.0),
                "bytes",
            );
            report.layer(
                "net.serialize_ns",
                (after_runs.ser_ns - before.ser_ns) as f64
                    / (after_runs.ser_samples - before.ser_samples).max(1) as f64,
                "ns",
            );
            report.layer("net.books_balanced", f64::from(u8::from(balanced)), "bool");
            report.layer(
                "stencil.kernel_ns_per_point",
                kernel_ns_per_point(tracer),
                "ns",
            );
        }
        report
    }

    fn layers(&self) -> &'static [&'static str] {
        &["net", "stencil"]
    }
}
