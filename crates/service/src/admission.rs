//! Admission control: queue bounds, a task budget, and weighted
//! fair-share ordering across tenants.
//!
//! Three mechanisms gate the path from `submit` to `Running`:
//!
//! 1. **Backpressure rejection** — at most
//!    [`AdmissionConfig::max_queued_jobs`] jobs may wait; beyond that,
//!    submissions finish immediately as `Rejected`.
//! 2. **A bounded in-flight task budget** — each job costs its
//!    (client-estimated) task count; jobs are admitted only while the
//!    sum of admitted costs stays within
//!    [`AdmissionConfig::max_in_flight_tasks`]. One job is always
//!    admissible when nothing is running, so an over-budget job cannot
//!    deadlock the service.
//! 3. **Weighted fair share** — waiting jobs are drawn from per-tenant
//!    FIFO queues by stride scheduling: each admission advances the
//!    tenant's virtual pass by `STRIDE / weight`, and the tenant with the
//!    smallest pass goes next. A tenant with weight 2 is admitted twice
//!    as often as a tenant with weight 1 under contention; idle tenants
//!    rejoin at the current front rather than accumulating credit.

#![deny(clippy::unwrap_used)]

use crate::job::JobCore;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Admission-control configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Budget: the sum of admitted jobs' estimated task counts may not
    /// exceed this (except that a single job is always admissible when
    /// the budget is idle).
    pub max_in_flight_tasks: u64,
    /// Bound on jobs waiting in tenant queues; submissions beyond it are
    /// rejected.
    pub max_queued_jobs: usize,
    /// Fair-share weight for tenants not listed in `tenant_weights`.
    pub default_tenant_weight: u32,
    /// Per-tenant fair-share weights (tenant name → weight ≥ 1).
    pub tenant_weights: Vec<(String, u32)>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_in_flight_tasks: 4096,
            max_queued_jobs: 256,
            default_tenant_weight: 1,
            tenant_weights: Vec::new(),
        }
    }
}

impl AdmissionConfig {
    /// The weight of `tenant` (listed weight, else the default; ≥ 1).
    pub fn weight_of(&self, tenant: &str) -> u32 {
        self.tenant_weights
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, w)| *w)
            .unwrap_or(self.default_tenant_weight)
            .max(1)
    }
}

/// The coarse *class* of a refusal — what a dashboard or audit log keys
/// on. The full [`AdmissionError`] carries the details; this enum is the
/// stable, cheap-to-match discriminant surfaced in
/// [`crate::job::JobOutcome::reject_reason`] so callers never have to
/// conflate "the queue was full" with "your job was shed" or "your
/// tenant's breaker is open" — three conditions with three different
/// correct client responses (back off, resubmit with slack, stop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Backpressure: the waiting-job bound was hit at submit time.
    QueueFull,
    /// Load shedding: the pressure controller dropped the job from the
    /// queue (its deadline slack was already spent, or it was the oldest
    /// entry under critical pressure).
    Shed,
    /// The tenant's circuit breaker was open at submit time.
    BreakerOpen,
    /// The service was shutting down.
    ShuttingDown,
    /// The fleet gateway had too little live capacity to place the job
    /// before its deadline: alive workers were below the configured
    /// quorum, so the job was shed rather than left to hang.
    FleetUnavailable {
        /// Suggested client back-off before resubmitting.
        retry_after: Duration,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue-full"),
            RejectReason::Shed => write!(f, "shed"),
            RejectReason::BreakerOpen => write!(f, "breaker-open"),
            RejectReason::ShuttingDown => write!(f, "shutting-down"),
            RejectReason::FleetUnavailable { retry_after } => {
                write!(f, "fleet-unavailable (retry in {retry_after:?})")
            }
        }
    }
}

/// Why a submission was refused (or a queued job later dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The waiting-job bound was hit; retry later.
    QueueFull {
        /// Jobs waiting when the submission arrived.
        queued: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The pressure controller shed the job from the queue: by the time
    /// it could have been admitted it could no longer meet its deadline
    /// (or it was the oldest entry under critical pressure).
    Shed {
        /// How long the job had been waiting when it was shed.
        queued_for: Duration,
        /// The job's deadline, if it had one.
        deadline: Option<Duration>,
    },
    /// The tenant's circuit breaker is open after repeated
    /// failures/timeouts; resubmit after the cooldown.
    BreakerOpen {
        /// The owning tenant.
        tenant: String,
        /// Time until the breaker next admits a probe.
        retry_after: Duration,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The fleet gateway is below its capacity quorum: too few worker
    /// localities are alive (and not draining) to place the job before
    /// its deadline, so it is shed instead of hanging.
    FleetUnavailable {
        /// Worker localities currently alive and accepting.
        alive: usize,
        /// The minimum the gateway's quorum policy requires.
        quorum: usize,
        /// Suggested client back-off before resubmitting.
        retry_after: Duration,
    },
}

impl AdmissionError {
    /// The coarse class of this refusal.
    pub fn reason(&self) -> RejectReason {
        match self {
            AdmissionError::QueueFull { .. } => RejectReason::QueueFull,
            AdmissionError::Shed { .. } => RejectReason::Shed,
            AdmissionError::BreakerOpen { .. } => RejectReason::BreakerOpen,
            AdmissionError::ShuttingDown => RejectReason::ShuttingDown,
            AdmissionError::FleetUnavailable { retry_after, .. } => {
                RejectReason::FleetUnavailable {
                    retry_after: *retry_after,
                }
            }
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { queued, limit } => {
                write!(f, "admission queue full ({queued} waiting, limit {limit})")
            }
            AdmissionError::Shed {
                queued_for,
                deadline,
            } => match deadline {
                Some(d) => write!(
                    f,
                    "shed under pressure after {queued_for:?} in queue (deadline {d:?})"
                ),
                None => write!(f, "shed under pressure after {queued_for:?} in queue"),
            },
            AdmissionError::BreakerOpen {
                tenant,
                retry_after,
            } => {
                write!(
                    f,
                    "circuit breaker open for tenant {tenant:?} (retry in {retry_after:?})"
                )
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
            AdmissionError::FleetUnavailable {
                alive,
                quorum,
                retry_after,
            } => write!(
                f,
                "fleet below capacity quorum ({alive} alive, quorum {quorum}; retry in {retry_after:?})"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Stride-scheduling constant: passes advance by `STRIDE / weight`.
const STRIDE: u64 = 1 << 20;

struct TenantQueue {
    weight: u32,
    pass: u64,
    jobs: VecDeque<Arc<JobCore>>,
}

/// Per-tenant FIFO queues drained in weighted stride order. Internal to
/// the service; guarded by the dispatcher's mutex.
pub(crate) struct FairQueues {
    tenants: BTreeMap<String, TenantQueue>,
    queued: usize,
}

impl FairQueues {
    pub(crate) fn new() -> Self {
        Self {
            tenants: BTreeMap::new(),
            queued: 0,
        }
    }

    /// Jobs currently waiting (including not-yet-reaped cancelled ones).
    pub(crate) fn len(&self) -> usize {
        self.queued
    }

    /// Enqueue a job for its tenant, creating the tenant's queue at the
    /// current minimum pass so it cannot leapfrog established tenants'
    /// history nor starve behind it.
    pub(crate) fn push(&mut self, core: Arc<JobCore>, weight: u32) {
        let floor = self
            .tenants
            .values()
            .filter(|t| !t.jobs.is_empty())
            .map(|t| t.pass)
            .min()
            .unwrap_or(0);
        let entry = self
            .tenants
            .entry(core.spec.tenant.clone())
            .or_insert_with(|| TenantQueue {
                weight,
                pass: floor,
                jobs: VecDeque::new(),
            });
        // A tenant returning from idleness rejoins at the current floor.
        if entry.jobs.is_empty() && entry.pass < floor {
            entry.pass = floor;
        }
        entry.jobs.push_back(core);
        self.queued += 1;
    }

    /// Discard every already-terminal entry (cancelled or expired while
    /// waiting) so they neither block their tenant's stride slot nor
    /// count against the queue bound. FIFO order of the live entries is
    /// preserved. Returns how many were removed.
    pub(crate) fn reap_terminal(&mut self) -> usize {
        let mut reaped = 0;
        for t in self.tenants.values_mut() {
            let before = t.jobs.len();
            t.jobs.retain(|c| !c.state().is_terminal());
            reaped += before - t.jobs.len();
        }
        self.queued -= reaped;
        reaped
    }

    /// Discard already-terminal entries (cancelled or expired while
    /// waiting), then pop the first admissible job in stride order.
    /// `admissible` sees each candidate head; a `false` verdict leaves
    /// the job queued (FIFO within its tenant is preserved) and moves on
    /// to the next tenant.
    pub(crate) fn pop_next(
        &mut self,
        mut admissible: impl FnMut(&JobCore) -> bool,
    ) -> Option<Arc<JobCore>> {
        self.reap_terminal();
        // Visit non-empty tenants in pass order.
        let mut order: Vec<&String> = self
            .tenants
            .iter()
            .filter(|(_, t)| !t.jobs.is_empty())
            .map(|(name, _)| name)
            .collect();
        order.sort_by_key(|name| self.tenants[*name].pass);
        let chosen = order
            .into_iter()
            .find(|name| {
                self.tenants[*name]
                    .jobs
                    .front()
                    .is_some_and(|c| admissible(c))
            })
            .cloned()?;
        let t = self.tenants.get_mut(&chosen).expect("tenant exists");
        let core = t.jobs.pop_front().expect("non-empty by construction");
        self.queued -= 1;
        t.pass += STRIDE / u64::from(t.weight);
        Some(core)
    }

    /// Remove and return every waiting job (shutdown path).
    pub(crate) fn drain(&mut self) -> Vec<Arc<JobCore>> {
        let mut all = Vec::new();
        for t in self.tenants.values_mut() {
            all.extend(t.jobs.drain(..));
        }
        self.queued = 0;
        all
    }

    /// Iterate the waiting jobs (deadline scanning).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Arc<JobCore>> {
        self.tenants.values().flat_map(|t| t.jobs.iter())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::counters::JobCounters;
    use crate::job::{JobId, JobSpec};
    use grain_counters::Registry;

    fn core(id: u64, tenant: &str) -> Arc<JobCore> {
        let reg = Arc::new(Registry::new());
        let group = grain_runtime::TaskGroup::new();
        let counters = JobCounters::register(&reg, &format!("j#{id}"), &group).unwrap();
        // The registry is dropped with the scope at the end of the test;
        // these cores are accounting-only.
        Arc::new(JobCore::new(
            JobId(id),
            JobSpec::new("j", tenant),
            group,
            counters,
            Box::new(|_| {}),
        ))
    }

    #[test]
    fn weight_lookup_defaults_and_clamps() {
        let cfg = AdmissionConfig {
            tenant_weights: vec![("a".into(), 3), ("zero".into(), 0)],
            default_tenant_weight: 2,
            ..AdmissionConfig::default()
        };
        assert_eq!(cfg.weight_of("a"), 3);
        assert_eq!(cfg.weight_of("other"), 2);
        assert_eq!(cfg.weight_of("zero"), 1, "weights clamp to >= 1");
    }

    #[test]
    fn fifo_within_one_tenant() {
        let mut q = FairQueues::new();
        for id in 0..4 {
            q.push(core(id, "a"), 1);
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop_next(|_| true))
            .map(|c| c.id.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn equal_weights_alternate() {
        let mut q = FairQueues::new();
        for id in 0..3 {
            q.push(core(id, "a"), 1);
        }
        for id in 10..13 {
            q.push(core(id, "b"), 1);
        }
        let tenants: Vec<String> = std::iter::from_fn(|| q.pop_next(|_| true))
            .map(|c| c.spec.tenant.clone())
            .collect();
        // Strict alternation after the first pick.
        for pair in tenants.windows(2) {
            assert_ne!(pair[0], pair[1], "order: {tenants:?}");
        }
    }

    #[test]
    fn weights_bias_admission_ratio() {
        let mut q = FairQueues::new();
        for id in 0..30 {
            q.push(core(id, "heavy"), 3);
        }
        for id in 100..130 {
            q.push(core(id, "light"), 1);
        }
        let first12: Vec<String> = (0..12)
            .filter_map(|_| q.pop_next(|_| true))
            .map(|c| c.spec.tenant.clone())
            .collect();
        let heavy = first12.iter().filter(|t| *t == "heavy").count();
        // Weight 3 vs 1 → 3/4 of admissions go to the heavy tenant.
        assert_eq!(heavy, 9, "order: {first12:?}");
    }

    #[test]
    fn inadmissible_heads_do_not_block_other_tenants() {
        let mut q = FairQueues::new();
        q.push(core(0, "a"), 1);
        q.push(core(1, "b"), 1);
        let got = q.pop_next(|c| c.spec.tenant != "a").unwrap();
        assert_eq!(got.spec.tenant, "b");
        // "a" stays queued.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn terminal_heads_are_reaped() {
        let mut q = FairQueues::new();
        let dead = core(0, "a");
        dead.finish(crate::job::JobState::Cancelled);
        dead.publish();
        q.push(dead, 1);
        q.push(core(1, "a"), 1);
        let got = q.pop_next(|_| true).unwrap();
        assert_eq!(got.id.0, 1);
        assert_eq!(q.len(), 0, "terminal head was reaped, live one popped");
    }

    #[test]
    fn reap_terminal_removes_mid_queue_entries() {
        let mut q = FairQueues::new();
        q.push(core(0, "a"), 1);
        let dead = core(1, "a");
        q.push(Arc::clone(&dead), 1);
        q.push(core(2, "a"), 1);
        dead.finish(crate::job::JobState::Cancelled);
        dead.publish();
        assert_eq!(q.len(), 3, "terminal entries linger until reaped");
        assert_eq!(q.reap_terminal(), 1);
        assert_eq!(q.len(), 2, "len no longer counts the terminal entry");
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop_next(|_| true))
            .map(|c| c.id.0)
            .collect();
        assert_eq!(ids, vec![0, 2], "live entries keep FIFO order");
    }

    #[test]
    fn drain_empties_everything() {
        let mut q = FairQueues::new();
        q.push(core(0, "a"), 1);
        q.push(core(1, "b"), 1);
        assert_eq!(q.drain().len(), 2);
        assert_eq!(q.len(), 0);
        assert!(q.pop_next(|_| true).is_none());
    }

    #[test]
    fn returning_tenant_rejoins_at_the_floor() {
        let mut q = FairQueues::new();
        for id in 0..8 {
            q.push(core(id, "busy"), 1);
        }
        // Admit 4 from the busy tenant; its pass is now well ahead.
        for _ in 0..4 {
            q.pop_next(|_| true).unwrap();
        }
        // A fresh tenant arrives: it must not get 4 back-to-back slots
        // of "credit" — it starts at the busy tenant's floor and they
        // alternate.
        q.push(core(100, "fresh"), 1);
        q.push(core(101, "fresh"), 1);
        let next4: Vec<String> = (0..4)
            .filter_map(|_| q.pop_next(|_| true))
            .map(|c| c.spec.tenant.clone())
            .collect();
        let fresh = next4.iter().filter(|t| *t == "fresh").count();
        assert!(fresh <= 2, "fresh tenant cannot monopolize: {next4:?}");
        assert!(fresh >= 1, "fresh tenant gets a fair slot: {next4:?}");
    }
}
