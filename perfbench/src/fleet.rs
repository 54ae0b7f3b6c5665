//! `fleet_dispatch`: turnaround through the fleet gateway.
//!
//! A loopback world of three localities: the `FleetGateway` on locality
//! 0 and a `FleetWorker` on each of localities 1 and 2, each worker
//! running a one-worker job service (the two compute workers). The
//! localities' own runtimes (one worker each) carry only action
//! traffic: submissions, completion pushes and load polls. An open loop
//! sends small taskbench stencil jobs of two tenants at fixed absolute
//! rates. Every job must settle `Completed` with all its tasks, and the
//! gateway's `FleetLedger` must be conserved once all jobs settled.
//! Without this workload the fleet layer goes unmeasured, and it uses
//! the net layer differently from `halo_tcp`: many small control frames.

use crate::openloop::{sleep_until, Arrivals, Class};
use crate::stats::{median, metg50_constant_overhead_us, quantile, windowed, Op, Report};
use crate::trace::Tracer;
use crate::Workload;
use grain_fleet::{
    FleetConfig, FleetGateway, FleetJobHandle, FleetJobSpec, FleetLedger, FleetWorker,
    FleetWorkerConfig,
};
use grain_net::bootstrap::Fabric;
use grain_runtime::RuntimeConfig;
use grain_service::JobState;
use grain_sim::storm::GraphFamily;
use grain_taskbench::storm::spec_for_event;
use grain_taskbench::work::mix64;
use grain_taskbench::Calibration;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The traffic mix: 500 jobs/s of stencil-shaped jobs offering about
/// 0.15 s of busy-work per second to the two service workers.
pub const CLASSES: [Class; 2] = [
    Class {
        tenant: "interactive",
        rate: 350.0,
        tasks: 16,
        grain_us: 10.0,
        interactive: true,
    },
    Class {
        tenant: "batch",
        rate: 150.0,
        tasks: 16,
        grain_us: 40.0,
        interactive: false,
    },
];
/// Latency limit of one job, for goodput.
const LIMIT_MS: f64 = 20.0;
const WAIT_TIMEOUT: Duration = Duration::from_secs(60);
/// Localities: the gateway and two workers.
const WORLD: usize = 3;

pub struct Fleet {
    seed: u64,
    cal: Calibration,
    iters: [u64; 2],
    /// Tasks a job of each class completes: its graph plus the root.
    expected_tasks: [u64; 2],
    // Field order is drop order: the gateway and workers stop their
    // pumps before the fabric shuts down.
    gateway: FleetGateway,
    _workers: Vec<FleetWorker>,
    fabric: World,
    runs: u64,
}

/// The loopback world, shut down gracefully when dropped.
struct World(Fabric);

impl Drop for World {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

struct InFlight {
    handle: FleetJobHandle,
    lag: Duration,
    class: usize,
    span: Option<crate::trace::SpanId>,
    sent: Instant,
    at_s: f64,
}

impl Fleet {
    /// Calibrate the kernel and build the three-locality world.
    pub fn setup(seed: u64, tracer: Option<&Tracer>) -> Self {
        let cal = Calibration::measure(31);
        let iters = CLASSES.map(|c| cal.iters_for(Duration::from_secs_f64(c.grain_us * 1e-6)));
        let expected_tasks = [0, 1].map(|i| {
            let spec = spec_for_event(GraphFamily::Stencil, CLASSES[i].tasks, iters[i], 0, 0)
                .expect("the stencil family maps to a graph");
            spec.build().len() as u64 + 1
        });
        let (fabric, workers, gateway) =
            crate::trace::span(tracer, "fleet.install", None, 0, || {
                let fabric = Fabric::loopback(WORLD, |i| RuntimeConfig {
                    workers: 1,
                    locality_id: i,
                    ..RuntimeConfig::default()
                });
                let workers: Vec<FleetWorker> = (1..WORLD)
                    .map(|i| FleetWorker::install(fabric.locality(i), FleetWorkerConfig::new(0, 1)))
                    .collect();
                let gateway = FleetGateway::install(
                    fabric.locality(0),
                    FleetConfig::new((1..WORLD).collect()),
                );
                (fabric, workers, gateway)
            });
        Self {
            seed,
            cal,
            iters,
            expected_tasks,
            gateway,
            _workers: workers,
            fabric: World(fabric),
            runs: 0,
        }
    }

    fn parcels_sent(&self) -> u64 {
        (0..WORLD)
            .map(|i| self.fabric.0.locality(i).parcels().sent.get())
            .sum()
    }

    fn finish(
        &self,
        job: InFlight,
        report: &mut Report,
        ops: &mut Vec<Op>,
        overhead_ms: &mut Vec<f64>,
        tracer: Option<&Tracer>,
    ) {
        let Some(outcome) = job.handle.wait_timeout(WAIT_TIMEOUT) else {
            report.failed += 1;
            report.wrong(format!("fleet job {} never settled", job.handle.key()));
            return;
        };
        if let Some(t) = tracer {
            t.close_at(job.span, job.sent + outcome.turnaround);
        }
        let class = CLASSES[job.class];
        let want = self.expected_tasks[job.class];
        if outcome.state == JobState::Rejected {
            report.failed += 1;
            return;
        }
        let ok = outcome.state == JobState::Completed && outcome.tasks_completed == want;
        if !ok {
            report.failed += 1;
            report.wrong(format!(
                "fleet job {} ended {:?} with {} tasks, expected Completed with {want}",
                job.handle.key(),
                outcome.state,
                outcome.tasks_completed
            ));
        }
        let makespan_ms = outcome.turnaround.as_secs_f64() * 1e3;
        overhead_ms.push(makespan_ms - outcome.exec_ns as f64 / 1e6);
        ops.push(Op {
            at_s: job.at_s,
            turnaround_ms: job.lag.as_secs_f64() * 1e3 + makespan_ms,
            makespan_ms,
            tasks: want,
            work_ns: class.tasks as f64 * self.iters[job.class] as f64 * self.cal.ns_per_iter,
            interactive: class.interactive,
            ok,
        });
    }
}

impl Workload for Fleet {
    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Report {
        let mut report = Report::new();
        let ledger0: FleetLedger = self.gateway.ledger();
        let parcels0 = self.parcels_sent();
        self.runs += 1;
        let mut arrivals = Arrivals::new(mix64(self.seed ^ self.runs), &CLASSES);
        let mut in_flight: VecDeque<InFlight> = VecDeque::new();
        let mut ops = Vec::new();
        let (mut lags_ms, mut submit_us, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
        let t0 = Instant::now();
        let window = Duration::from_secs_f64(seconds);
        let mut job_no = 0u64;
        loop {
            let a = arrivals.next_arrival();
            if a.due >= window {
                break;
            }
            while in_flight
                .front()
                .is_some_and(|j| j.handle.outcome().is_some())
            {
                let job = in_flight.pop_front().expect("front exists");
                self.finish(job, &mut report, &mut ops, &mut overhead_ms, tracer);
            }
            let lag = sleep_until(t0 + a.due);
            let class = CLASSES[a.class];
            let spec = FleetJobSpec::new(class.tenant, class.tenant)
                .family(GraphFamily::Stencil)
                .tasks(class.tasks)
                .grain_iters(self.iters[a.class])
                .seed(a.seed);
            job_no += 1;
            let span = tracer.and_then(|t| t.open("bench.job", None, job_no));
            let s = Instant::now();
            let handle = self.gateway.submit(spec);
            let e = Instant::now();
            if let Some(t) = tracer {
                t.record("fleet.submit", s, e, span, job_no);
            }
            report.attempted += 1;
            submit_us.push((e - s).as_secs_f64() * 1e6);
            lags_ms.push(lag.as_secs_f64() * 1e3);
            in_flight.push_back(InFlight {
                handle,
                lag,
                class: a.class,
                span,
                sent: s,
                at_s: a.due.as_secs_f64(),
            });
        }
        while let Some(job) = in_flight.pop_front() {
            self.finish(job, &mut report, &mut ops, &mut overhead_ms, tracer);
        }
        // Every job has settled: the ledger must be conserved now.
        report.attempted += 1;
        let ledger = self.gateway.ledger();
        if !ledger.conserved() || self.gateway.in_flight() != 0 {
            report.failed += 1;
            report.wrong(format!(
                "fleet ledger not conserved with every job settled: {ledger:?}"
            ));
        }
        let jobs = (ledger.submitted - ledger0.submitted).max(1) as f64;
        let metg = windowed(&ops, seconds, &|o| metg50_constant_overhead_us(o, 1));
        report.end_to_end(&ops, seconds, true, LIMIT_MS, metg);
        if tracer.is_some() {
            report.layer("fleet.submit_us", median(&submit_us), "us");
            report.layer("fleet.dispatch_overhead_ms", median(&overhead_ms), "ms");
            report.layer(
                "fleet.parcels_per_job",
                (self.parcels_sent() - parcels0) as f64 / jobs,
                "count",
            );
            report.layer(
                "fleet.redispatched",
                (ledger.redispatches - ledger0.redispatches) as f64,
                "count",
            );
            report.layer(
                "fleet.hedged",
                (ledger.hedged - ledger0.hedged) as f64,
                "count",
            );
            report.layer("bench.send_lag_p99_ms", quantile(&lags_ms, 0.99), "ms");
        }
        report
    }

    fn layers(&self) -> &'static [&'static str] {
        &["fleet"]
    }
}
