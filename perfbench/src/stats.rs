//! Sample statistics, process memory, and the metric record every
//! workload fills in.

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples;
/// 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of all the host's CPUs, from
/// the first line of `/proc/stat`; zeros when it is unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the CPUs' time between two [`cpu_ticks`] readings that the
/// hypervisor gave to other guests.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        return 0.0;
    }
    (to.0.saturating_sub(from.0) as f64 / total as f64).clamp(0.0, 1.0)
}

/// One completed unit operation of a workload (a graph, a job, a
/// stencil run), timed by the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When the operation was due (open loop) or issued (closed loop),
    /// seconds into the measured phase.
    pub at_s: f64,
    /// From the moment the operation was due to the observed outcome.
    /// In a closed loop an operation is due when it is issued.
    pub turnaround_ms: f64,
    /// From the actual issue of the operation to its outcome.
    pub makespan_ms: f64,
    /// Tasks the operation completed.
    pub tasks: u64,
    /// Busy-work the operation carried, in ns of calibrated kernel time.
    pub work_ns: f64,
    /// Whether it belongs to the workload's interactive class.
    pub interactive: bool,
    /// Whether its outcome was correct (and it was not refused).
    pub ok: bool,
}

/// Everything one measured phase of a workload reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (unit operations plus invariant checks).
    pub attempted: u64,
    /// Attempted operations that failed, were refused, or were wrong.
    pub failed: u64,
    /// Whether every output and invariant check passed. A refused job
    /// is a failure but not a wrong output.
    pub correct: bool,
    /// End-to-end metrics, `(name, value, unit)`.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics, `(name, value, unit)`.
    pub layer: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable diagnostics for failed checks.
    pub problems: Vec<String>,
}

impl Report {
    /// A fresh report: nothing attempted, nothing wrong yet.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Record a failed check that makes the outputs wrong.
    pub fn wrong(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push((name, value, unit));
    }

    /// Fill the end-to-end metrics shared by every workload from its
    /// operations. `window_s` is the measured wall time, `open_loop`
    /// whether operations overlap (their tasks then count over the
    /// window, otherwise over the operations' summed makespans),
    /// `limit_ms` the workload's latency limit for goodput, and
    /// `metg50_us` the path's METG(50%).
    ///
    /// Each rate and percentile is computed per sub-window and the
    /// median over the [`WINDOWS`] sub-windows is reported, so a burst
    /// of CPU taken by other processes on the host moves one sub-window,
    /// not the metric.
    pub fn end_to_end(
        &mut self,
        ops: &[Op],
        window_s: f64,
        open_loop: bool,
        limit_ms: f64,
        metg50_us: f64,
    ) {
        let sub_s = window_s / WINDOWS as f64;
        let per = |f: &dyn Fn(&[Op]) -> f64| windowed(ops, window_s, f);
        let tasks_per_s = per(&|o| {
            let tasks: u64 = o.iter().filter(|o| o.ok).map(|o| o.tasks).sum();
            let busy_s = if open_loop {
                sub_s
            } else {
                o.iter().map(|o| o.makespan_ms).sum::<f64>() / 1e3
            };
            tasks as f64 / busy_s.max(1e-9)
        });
        let pct = |q: f64, pick: fn(&Op) -> Option<f64>| {
            per(&|o| quantile(&o.iter().filter_map(pick).collect::<Vec<_>>(), q))
        };
        let goodput = per(&|o| {
            o.iter()
                .filter(|o| o.ok && o.turnaround_ms <= limit_ms)
                .count() as f64
                / sub_s
        });
        let success = if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        };
        self.e2e = vec![
            ("tasks_per_s", tasks_per_s, "1/s"),
            ("metg50_us", metg50_us, "us"),
            ("makespan_p50_ms", pct(0.5, |o| Some(o.makespan_ms)), "ms"),
            ("makespan_p90_ms", pct(0.9, |o| Some(o.makespan_ms)), "ms"),
            ("goodput_jobs_per_s", goodput, "1/s"),
            ("success_share", success, "ratio"),
        ];
        // Due-time latencies only differ from makespans in an open loop.
        if open_loop {
            self.e2e.extend([
                (
                    "turnaround_p50_ms",
                    pct(0.5, |o| Some(o.turnaround_ms)),
                    "ms",
                ),
                (
                    "turnaround_p99_ms",
                    pct(0.99, |o| Some(o.turnaround_ms)),
                    "ms",
                ),
                (
                    "interactive_p99_ms",
                    pct(0.99, |o| o.interactive.then_some(o.turnaround_ms)),
                    "ms",
                ),
            ]);
        }
    }
}

/// Sub-windows a measured phase is split into for its rates and
/// percentiles.
pub const WINDOWS: usize = 10;

/// Sub-window of an operation issued (or due) `at_s` into a phase of
/// `window_s`.
fn window_of(at_s: f64, window_s: f64) -> usize {
    ((at_s / window_s.max(1e-9) * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Median over the sub-windows that hold operations of `f` applied to
/// each sub-window's operations.
pub fn windowed(ops: &[Op], window_s: f64, f: &dyn Fn(&[Op]) -> f64) -> f64 {
    let mut by: Vec<Vec<Op>> = vec![Vec::new(); WINDOWS];
    for o in ops {
        by[window_of(o.at_s, window_s)].push(*o);
    }
    let vals: Vec<f64> = by.iter().filter(|w| !w.is_empty()).map(|w| f(w)).collect();
    median(&vals)
}

/// METG(50%) of a path that runs one grain mix: the grain at which the
/// path would reach 50% efficiency if its per-task overhead stayed as
/// measured (Task Bench's constant-overhead form, `g·(1−e)/e`). `work_ns`
/// is the calibrated busy-work of the operations, `busy_ns` their summed
/// makespans times the compute workers available to them.
pub fn metg50_constant_overhead_us(ops: &[Op], workers: usize) -> f64 {
    let tasks: u64 = ops.iter().map(|o| o.tasks).sum();
    let work_ns: f64 = ops.iter().map(|o| o.work_ns).sum();
    let busy_ns: f64 = ops.iter().map(|o| o.makespan_ms * 1e6).sum::<f64>() * workers as f64;
    if tasks == 0 || work_ns <= 0.0 {
        return 0.0;
    }
    ((busy_ns - work_ns).max(0.0) / tasks as f64) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
