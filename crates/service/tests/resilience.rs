//! Overload-resilience behavior: load shedding, per-tenant circuit
//! breakers, and deadline-budget propagation through the service.

use grain_service::{
    AdmissionConfig, BreakerState, JobService, JobSpec, JobState, PressureLevel, RejectReason,
    ServiceConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn base_config() -> ServiceConfig {
    ServiceConfig {
        poll_interval: Duration::from_micros(200),
        ..ServiceConfig::with_workers(1)
    }
}

/// Spin until `cond` holds or the timeout trips (returns success).
fn wait_until(timeout: Duration, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    cond()
}

#[test]
fn shed_jobs_report_shed_and_meter_the_shed_counter() {
    // One blocker pins the single-task budget; five victims with short
    // deadlines pile up behind it and must all be shed — metered on the
    // `shed` counter, not `rejected`.
    let config = ServiceConfig {
        admission: AdmissionConfig {
            max_in_flight_tasks: 1,
            ..AdmissionConfig::default()
        },
        ..base_config()
    };
    let service = JobService::new(config);
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    let blocker = service.submit(JobSpec::new("blocker", "tenant-a"), move |_| {
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    assert!(wait_until(Duration::from_secs(5), || {
        blocker.state() == JobState::Running
    }));

    let victims: Vec<_> = (0..5)
        .map(|i| {
            service.submit(
                JobSpec::new(format!("victim-{i}"), "tenant-a").deadline(Duration::from_millis(15)),
                |_| unreachable!("must be shed while queued"),
            )
        })
        .collect();
    let outcomes: Vec<_> = victims.iter().map(|v| v.wait()).collect();
    release.store(true, Ordering::SeqCst);
    assert_eq!(blocker.wait().state, JobState::Completed);

    for o in &outcomes {
        assert_eq!(o.state, JobState::Rejected);
        assert_eq!(o.reject_reason, Some(RejectReason::Shed));
        assert_eq!(o.tasks_spawned, 0, "shed before admission, never ran");
    }
    let counters = service.counters();
    assert_eq!(counters.shed.get(), 5, "one shed increment per victim");
    assert_eq!(counters.rejected.get(), 0, "shed is not rejected");
    assert_eq!(counters.timed_out.get(), 0, "shed is not timed out");
    assert_eq!(
        service
            .registry()
            .query("/service/jobs/shed")
            .expect("registered")
            .value,
        5.0
    );
}

#[test]
fn breaker_trips_on_a_faulting_tenant_and_recloses_after_a_good_probe() {
    let mut config = base_config();
    config.breaker.min_samples = 4;
    config.breaker.window = 8;
    // Wide margins: the open window must comfortably outlast the
    // bounced-submission and other-tenant checks below even on a slow,
    // loaded machine.
    config.breaker.open_for = Duration::from_millis(300);
    config.breaker.probe_every = Duration::from_millis(5);
    let service = JobService::new(config);

    // Four straight faults cross the 50 % threshold at min_samples.
    for i in 0..4 {
        let job = service.submit(JobSpec::new(format!("bad-{i}"), "chaos"), |_| {
            panic!("chaos job faults")
        });
        assert_eq!(job.wait().state, JobState::Failed);
    }
    assert_eq!(service.breaker_state("chaos"), Some(BreakerState::Open));
    assert_eq!(service.breaker_opens("chaos"), 1);

    // While open, submissions bounce with a BreakerOpen reason...
    let bounced = service.submit(JobSpec::new("bounced", "chaos"), |_| {
        unreachable!("breaker is open")
    });
    let o = bounced.wait();
    assert_eq!(o.state, JobState::Rejected);
    assert_eq!(o.reject_reason, Some(RejectReason::BreakerOpen));
    assert!(service.breaker_rejections() >= 1);

    // ...but other tenants sail through untouched.
    let fine = service.submit(JobSpec::new("fine", "steady"), |ctx| {
        ctx.spawn(|_| std::hint::black_box(()));
    });
    assert_eq!(fine.wait().state, JobState::Completed);
    assert_eq!(service.breaker_state("steady"), Some(BreakerState::Closed));

    // After the cooldown a healthy job is admitted as the half-open
    // probe; its success re-closes the breaker.
    std::thread::sleep(Duration::from_millis(350));
    let probe = service.submit(JobSpec::new("probe", "chaos"), |ctx| {
        ctx.spawn(|_| std::hint::black_box(()));
    });
    assert_eq!(probe.wait().state, JobState::Completed);
    assert!(wait_until(Duration::from_secs(5), || {
        service.breaker_state("chaos") == Some(BreakerState::Closed)
    }));

    // And the tenant serves normally again.
    let after = service.submit(JobSpec::new("after", "chaos"), |ctx| {
        ctx.spawn(|_| std::hint::black_box(()));
    });
    assert_eq!(after.wait().state, JobState::Completed);
}

#[test]
fn open_breaker_denies_the_retry_budget() {
    // A retrying tenant faults enough to trip its breaker; the faulted
    // job then fails outright instead of spending more attempts.
    let mut config = base_config();
    config.breaker.min_samples = 2;
    config.breaker.window = 4;
    config.breaker.open_for = Duration::from_secs(30); // never cools in-test
    let service = JobService::new(config);

    // Hold the only worker until all three jobs are past the submit-time
    // breaker check. Otherwise the first two faults can trip the breaker
    // between two submits, and the third job is (rightly) rejected
    // instead of admitted.
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    let gate = service.submit(JobSpec::new("gate", "steady"), move |_| {
        while !r.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    let jobs: Vec<_> = (0..3)
        .map(|i| {
            service.submit(
                JobSpec::new(format!("flappy-{i}"), "chaos").failure_policy(
                    grain_service::FailurePolicy::RetryWithBackoff {
                        max_attempts: 50,
                        base: Duration::from_millis(1),
                        cap: Duration::from_millis(2),
                    },
                ),
                |_| panic!("always faults"),
            )
        })
        .collect();
    release.store(true, Ordering::SeqCst);
    assert_eq!(gate.wait().state, JobState::Completed);
    for j in &jobs {
        assert_eq!(j.wait().state, JobState::Failed);
    }
    assert_eq!(service.breaker_state("chaos"), Some(BreakerState::Open));
    let total_retries: u64 = jobs.iter().map(|j| j.wait().retries).sum();
    // 3 jobs × 50 attempts would be 147 retries; the breaker cuts the
    // spree short as soon as it trips.
    assert!(
        total_retries < 10,
        "open breaker must stop the retry spree (saw {total_retries})"
    );
}

#[test]
fn deadline_budget_propagates_to_dispatch() {
    // A huge poll interval keeps the dispatcher's deadline scan out of
    // the picture: the only thing that can stop the queued tail is the
    // group's deadline budget, checked by workers at dispatch.
    let config = ServiceConfig {
        poll_interval: Duration::from_secs(3600),
        ..ServiceConfig::with_workers(1)
    };
    let service = JobService::new(config);
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    let deadline = Duration::from_millis(20);
    let submitted = Instant::now();
    let job = service.submit(
        JobSpec::new("budgeted", "tenant-a").deadline(deadline),
        move |ctx| {
            let r = Arc::clone(&r);
            ctx.spawn(move |_| {
                // Holds the worker until the deadline has passed.
                while !r.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            for _ in 0..20 {
                ctx.spawn(|_| unreachable!("over budget at dispatch; must never run"));
            }
        },
    );
    // Let the deadline lapse, then free the worker: the tail is dropped
    // at dispatch because the budget is exhausted, not by any cancel.
    while submitted.elapsed() < deadline + Duration::from_millis(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    release.store(true, Ordering::SeqCst);
    let outcome = job
        .wait_timeout(Duration::from_secs(10))
        .expect("job must settle from quiescence without the dispatcher");
    assert_eq!(outcome.tasks_budget_skipped, 20, "whole tail over budget");
    assert_eq!(outcome.tasks_skipped, 20);
    assert_eq!(outcome.tasks_completed, 2, "root + gate ran");
}

#[test]
fn pressure_signal_reports_queue_fill_and_shrinks_nothing_when_calm() {
    let service = JobService::new(base_config());
    let sig = service.pressure_signal();
    assert_eq!(sig.level, PressureLevel::Nominal);
    // The budget limit starts at the full configured budget.
    assert_eq!(
        sig.budget_limit,
        AdmissionConfig::default().max_in_flight_tasks
    );
    // A healthy run leaves the level nominal.
    let job = service.submit(JobSpec::new("calm", "tenant-a"), |ctx| {
        for _ in 0..8 {
            ctx.spawn(|_| std::hint::black_box(()));
        }
    });
    assert_eq!(job.wait().state, JobState::Completed);
    assert_eq!(service.pressure_signal().level, PressureLevel::Nominal);
}
