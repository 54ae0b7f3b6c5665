//! `service_mix`: turnaround through the job service.
//!
//! An open loop at fixed absolute rates submits jobs of three tenants
//! into one `JobService` with two workers: `interactive` sends many
//! small fine-grain jobs, `batch` medium ones, `background` few coarse
//! ones. A job's root task spawns its children through its
//! `TaskContext`; each child runs taskbench's busy-work kernel and adds
//! the result to the job's sum. Every job must finish `Completed` with
//! all its tasks counted, and a sample of job sums is recomputed after
//! the window. This exercises admission, fair share and per-job counter
//! scopes, and uses the runtime as many small task groups rather than
//! one big graph.

use crate::openloop::{sleep_until, Arrivals, Class};
use crate::stats::{median, metg50_constant_overhead_us, quantile, windowed, Op, Report};
use crate::trace::Tracer;
use crate::{Workload, COMPUTE_WORKERS};
use grain_service::{AdmissionConfig, JobHandle, JobService, JobSpec, JobState, ServiceConfig};
use grain_taskbench::work::{busy_work, mix64};
use grain_taskbench::Calibration;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traffic mix: 770 jobs/s offering about 0.26 s of busy-work per
/// second to two workers.
pub const CLASSES: [Class; 3] = [
    Class {
        tenant: "interactive",
        rate: 600.0,
        tasks: 4,
        grain_us: 2.0,
        interactive: true,
    },
    Class {
        tenant: "batch",
        rate: 150.0,
        tasks: 16,
        grain_us: 20.0,
        interactive: false,
    },
    Class {
        tenant: "background",
        rate: 20.0,
        tasks: 32,
        grain_us: 200.0,
        interactive: false,
    },
];
/// Fair-share weights of the three tenants.
const WEIGHTS: [u32; 3] = [4, 2, 1];
/// Latency limit of one job, for goodput.
const LIMIT_MS: f64 = 20.0;
/// One job in this many has its sum recomputed after the window.
const VERIFY_EVERY: u64 = 16;
const WAIT_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ServiceMix {
    seed: u64,
    cal: Calibration,
    iters: [u64; 3],
    service: JobService,
    runs: u64,
}

struct InFlight {
    handle: JobHandle,
    lag: Duration,
    class: usize,
    seed: u64,
    sum: Arc<AtomicU64>,
    span: Option<crate::trace::SpanId>,
    due: Instant,
    at_s: f64,
}

/// The sum a job's children must produce.
fn expected_sum(seed: u64, tasks: u64, iters: u64) -> u64 {
    (0..tasks).fold(0u64, |acc, i| {
        acc.wrapping_add(busy_work(mix64(seed ^ i), iters))
    })
}

impl ServiceMix {
    /// Calibrate the kernel and start the service.
    pub fn setup(seed: u64, _tracer: Option<&Tracer>) -> Self {
        let cal = Calibration::measure(31);
        let iters = CLASSES.map(|c| cal.iters_for(Duration::from_secs_f64(c.grain_us * 1e-6)));
        let config = ServiceConfig {
            admission: AdmissionConfig {
                tenant_weights: CLASSES
                    .iter()
                    .zip(WEIGHTS)
                    .map(|(c, w)| (c.tenant.to_string(), w))
                    .collect(),
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::with_workers(COMPUTE_WORKERS)
        };
        Self {
            seed,
            cal,
            iters,
            service: JobService::new(config),
            runs: 0,
        }
    }

    fn finish(
        &self,
        job: InFlight,
        report: &mut Report,
        ops: &mut Vec<Op>,
        tracer: Option<&Tracer>,
        verify: &mut Vec<(u64, usize, u64)>,
    ) {
        let outcome = match job.handle.wait_timeout(WAIT_TIMEOUT) {
            Some(o) => o,
            None => {
                report.failed += 1;
                report.wrong(format!("job {} never settled", job.handle.id().0));
                return;
            }
        };
        if let Some(t) = tracer {
            t.close_at(job.span, job.due + job.lag + outcome.turnaround);
        }
        let class = CLASSES[job.class];
        if outcome.state == JobState::Rejected {
            report.failed += 1;
            return;
        }
        let mut ok = outcome.state == JobState::Completed;
        if !ok {
            report.wrong(format!(
                "job {} ended {:?}",
                job.handle.id().0,
                outcome.state
            ));
        } else if outcome.tasks_completed != class.tasks + 1 {
            ok = false;
            report.wrong(format!(
                "job {} completed {} tasks, expected {}",
                job.handle.id().0,
                outcome.tasks_completed,
                class.tasks + 1
            ));
        }
        if ok && job.seed.is_multiple_of(VERIFY_EVERY) {
            verify.push((job.seed, job.class, job.sum.load(Ordering::SeqCst)));
        }
        if !ok {
            report.failed += 1;
        }
        let makespan_ms = outcome.turnaround.as_secs_f64() * 1e3;
        ops.push(Op {
            at_s: job.at_s,
            turnaround_ms: job.lag.as_secs_f64() * 1e3 + makespan_ms,
            makespan_ms,
            tasks: class.tasks + 1,
            work_ns: class.tasks as f64 * self.iters[job.class] as f64 * self.cal.ns_per_iter,
            interactive: class.interactive,
            ok,
        });
    }
}

impl Workload for ServiceMix {
    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Report {
        let mut report = Report::new();
        let svc = &self.service;
        let counters = svc.counters();
        let (rejected0, shed0) = (counters.rejected.get(), counters.shed.get());
        let admission = &counters.admission_latency;
        let (adm_n0, adm_sum0) = (
            admission.count(),
            admission.mean() * admission.count() as f64,
        );
        // Each measured phase draws its own arrivals from the seed.
        self.runs += 1;
        let mut arrivals = Arrivals::new(mix64(self.seed ^ self.runs), &CLASSES);
        let mut in_flight: VecDeque<InFlight> = VecDeque::new();
        let mut ops = Vec::new();
        let mut verify = Vec::new();
        let (mut lags_ms, mut submit_us) = (Vec::new(), Vec::new());
        let mut queue_max = 0usize;
        let t0 = Instant::now();
        let window = Duration::from_secs_f64(seconds);
        let mut job_no = 0u64;
        loop {
            let a = arrivals.next_arrival();
            if a.due >= window {
                break;
            }
            let due = t0 + a.due;
            // Collect what has finished while waiting for the next due time.
            while in_flight
                .front()
                .is_some_and(|j| j.handle.outcome().is_some())
            {
                let job = in_flight.pop_front().expect("front exists");
                self.finish(job, &mut report, &mut ops, tracer, &mut verify);
            }
            let lag = sleep_until(due);
            let class = CLASSES[a.class];
            let iters = self.iters[a.class];
            let sum = Arc::new(AtomicU64::new(0));
            let body_sum = Arc::clone(&sum);
            let (seed, tasks) = (a.seed, class.tasks);
            let spec = JobSpec::new(class.tenant, class.tenant).estimated_tasks(tasks + 1);
            job_no += 1;
            let span = tracer.and_then(|t| t.open("bench.job", None, job_no));
            let s = Instant::now();
            let handle = svc.submit(spec, move |ctx| {
                body_sum.store(0, Ordering::SeqCst);
                for i in 0..tasks {
                    let sum = Arc::clone(&body_sum);
                    let s = mix64(seed ^ i);
                    ctx.spawn(move |_| {
                        sum.fetch_add(busy_work(s, iters), Ordering::SeqCst);
                    });
                }
            });
            let e = Instant::now();
            if let Some(t) = tracer {
                t.record("service.submit", s, e, span, job_no);
            }
            report.attempted += 1;
            submit_us.push((e - s).as_secs_f64() * 1e6);
            lags_ms.push(lag.as_secs_f64() * 1e3);
            queue_max = queue_max.max(svc.queue_len());
            in_flight.push_back(InFlight {
                handle,
                lag,
                class: a.class,
                seed,
                sum,
                span,
                due,
                at_s: a.due.as_secs_f64(),
            });
        }
        while let Some(job) = in_flight.pop_front() {
            self.finish(job, &mut report, &mut ops, tracer, &mut verify);
        }
        for (seed, class, got) in verify {
            let c = CLASSES[class];
            let want = expected_sum(seed, c.tasks, self.iters[class]);
            if got != want {
                report.failed += 1;
                report.wrong(format!(
                    "{} job seed {seed:#x}: sum {got:#x} != {want:#x}",
                    c.tenant
                ));
            }
        }
        let metg = windowed(&ops, seconds, &|o| {
            metg50_constant_overhead_us(o, COMPUTE_WORKERS)
        });
        report.end_to_end(&ops, seconds, true, LIMIT_MS, metg);
        if tracer.is_some() {
            report.layer("service.submit_us", median(&submit_us), "us");
            // Mean of `/service/time/admission-latency` over this phase.
            let n = admission.count() - adm_n0;
            let sum = admission.mean() * admission.count() as f64 - adm_sum0;
            report.layer(
                "service.admission_wait_ms",
                sum / n.max(1) as f64 / 1e6,
                "ms",
            );
            report.layer("service.queue_len_max", queue_max as f64, "count");
            report.layer(
                "service.rejected",
                (counters.rejected.get() - rejected0) as f64,
                "count",
            );
            report.layer(
                "service.shed",
                (counters.shed.get() - shed0) as f64,
                "count",
            );
            report.layer("bench.send_lag_p99_ms", quantile(&lags_ms, 0.99), "ms");
        }
        report
    }

    fn layers(&self) -> &'static [&'static str] {
        &["service"]
    }
}
