//! `dataflow_ladder`: the runtime's METG.
//!
//! One `Runtime` with two workers runs a closed loop of seeded
//! `Stencil1d` taskbench graphs (32 lanes × 64 levels = 2048 tasks),
//! stepping through a fixed ladder of calibrated grains from 1 to 64 µs.
//! The benchmark spawns every node itself through `Runtime::async_call`
//! and `Runtime::dataflow`, so it can time each call, and checks every
//! graph's checksum against `TaskGraph::checksum_reference`. Nothing but
//! the runtime sits between the benchmark and the work.

use crate::stats::{cpu_ticks, median, steal_share, Op, Report};
use crate::trace::Tracer;
use crate::{Workload, COMPUTE_WORKERS};
use grain_runtime::{when_all, Runtime, SharedFuture};
use grain_taskbench::graph::{GraphKind, GraphSpec, TaskGraph};
use grain_taskbench::{work, Calibration};
use std::time::{Duration, Instant};

/// Task grains of the ladder, µs of calibrated busy-work per task.
pub const RUNGS_US: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
const WIDTH: usize = 32;
const STEPS: usize = 63;
/// Graphs of the finest rung per round: they carry the latency and
/// throughput metrics, so they get about half the run.
const FINEST_PER_ROUND: usize = 40;
/// Busy-work per round given to each coarser rung (at least one graph).
const COARSE_BUDGET: Duration = Duration::from_millis(40);
/// Latency limit of one finest-rung graph, for goodput.
const LIMIT_MS: f64 = 25.0;
/// Graphs run on a one-worker runtime for Eq. 5's baseline `t_d1`.
const SERIAL_GRAPHS: usize = 30;
const JOIN_TIMEOUT: Duration = Duration::from_secs(60);

struct Rung {
    grain_us: f64,
    graph: TaskGraph,
    reference: u64,
    work_ns: f64,
    per_round: usize,
}

pub struct Ladder {
    rt: Option<Runtime>,
    rungs: Vec<Rung>,
    build_ms: Vec<f64>,
}

/// Raw `/threads` counter sums of one runtime.
#[derive(Default, Clone, Copy)]
struct Threads {
    tasks: u64,
    exec_ns: u64,
    func_ns: u64,
    stolen: u64,
    pending_accesses: u64,
    pending_misses: u64,
}

impl Threads {
    fn read(rt: &Runtime) -> Self {
        let c = rt.counters();
        Self {
            tasks: c.tasks.sum(),
            exec_ns: c.exec_ns.sum(),
            func_ns: c.func_ns.sum(),
            stolen: c.stolen.sum(),
            pending_accesses: c.pending_accesses.sum(),
            pending_misses: c.pending_misses.sum(),
        }
    }

    fn add_delta(&mut self, before: Self, after: Self) {
        self.tasks += after.tasks - before.tasks;
        self.exec_ns += after.exec_ns - before.exec_ns;
        self.func_ns += after.func_ns - before.func_ns;
        self.stolen += after.stolen - before.stolen;
        self.pending_accesses += after.pending_accesses - before.pending_accesses;
        self.pending_misses += after.pending_misses - before.pending_misses;
    }

    /// Eq. 2: average task duration, ns.
    fn t_d(&self) -> f64 {
        self.exec_ns as f64 / self.tasks.max(1) as f64
    }
}

/// What one graph run measured.
struct GraphRun {
    makespan: Duration,
    checksum: u64,
    spawn_calls: u64,
    spawn_ns: u64,
    join_wait: Duration,
}

impl Ladder {
    /// Calibrate the kernel, build one graph per rung, compute each
    /// rung's reference checksum, and start the runtime.
    pub fn setup(seed: u64, tracer: Option<&Tracer>) -> Self {
        let cal = Calibration::measure(31);
        let mut rungs = Vec::with_capacity(RUNGS_US.len());
        let mut build_ms = Vec::with_capacity(RUNGS_US.len());
        for (i, &grain_us) in RUNGS_US.iter().enumerate() {
            let iters = cal.iters_for(Duration::from_secs_f64(grain_us * 1e-6));
            let spec = GraphSpec::shape(
                GraphKind::Stencil1d {
                    width: WIDTH,
                    steps: STEPS,
                },
                work::mix64(seed ^ ((i as u64) << 40)),
            )
            .grain(iters);
            let t0 = Instant::now();
            let graph = crate::trace::span(tracer, "taskbench.build", None, 0, || spec.build());
            build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let reference =
                crate::trace::span(tracer, "taskbench.checksum_reference", None, 0, || {
                    graph.checksum_reference()
                });
            let work_ns = (0..graph.len() as u32)
                .map(|id| spec.node_iters(id) as f64)
                .sum::<f64>()
                * cal.ns_per_iter;
            let ideal_ns = graph.len() as f64 * grain_us * 1e3 / COMPUTE_WORKERS as f64;
            let per_round = if i == 0 {
                FINEST_PER_ROUND
            } else {
                ((COARSE_BUDGET.as_nanos() as f64 / ideal_ns).round() as usize).max(1)
            };
            rungs.push(Rung {
                grain_us,
                graph,
                reference,
                work_ns,
                per_round,
            });
        }
        Self {
            rt: Some(Runtime::with_workers(COMPUTE_WORKERS)),
            rungs,
            build_ms,
        }
    }

    /// Spawn one graph node by node and join it.
    fn run_graph(
        rt: &Runtime,
        graph: &TaskGraph,
        tracer: Option<&Tracer>,
        job: u64,
    ) -> Result<GraphRun, String> {
        let spec = graph.spec;
        let t0 = Instant::now();
        let op = tracer.and_then(|t| t.open("bench.graph", None, job));
        let mut futs: Vec<SharedFuture<u64>> = Vec::with_capacity(graph.len());
        let mut spawn_ns = 0u64;
        for id in 0..graph.len() as u32 {
            let preds = graph.preds(id);
            let seed = work::node_seed(spec.seed, id);
            let iters = spec.node_iters(id);
            let deps: Vec<SharedFuture<u64>> =
                preds.iter().map(|e| futs[e.src as usize].clone()).collect();
            let salts: Vec<(u64, u32)> = preds
                .iter()
                .map(|e| (work::edge_salt(spec.seed, e.src, e.dst), e.payload))
                .collect();
            let s = Instant::now();
            let fut = if deps.is_empty() {
                rt.async_call(move |_| work::node_value(seed, iters, []))
            } else {
                rt.dataflow(&deps, move |_, vals| {
                    let contribs = vals
                        .iter()
                        .zip(salts.iter())
                        .map(|(v, &(salt, len))| work::contrib_from_value(**v, salt, len));
                    work::node_value(seed, iters, contribs)
                })
            };
            let e = Instant::now();
            spawn_ns += (e - s).as_nanos() as u64;
            if let Some(t) = tracer {
                let name = if deps.is_empty() {
                    "runtime.async_call"
                } else {
                    "runtime.dataflow"
                };
                t.record(name, s, e, op, job);
            }
            futs.push(fut);
        }
        let j0 = Instant::now();
        let all = when_all(&futs);
        let vals = all
            .wait_timeout(JOIN_TIMEOUT)
            .map_err(|e| format!("graph {job} did not settle: {e}"))?;
        let end = Instant::now();
        if let Some(t) = tracer {
            t.record("runtime.join", j0, end, op, job);
            t.close_at(op, end);
        }
        let checksum = vals.iter().enumerate().fold(0u64, |acc, (i, v)| {
            acc.wrapping_add(work::checksum_term(i as u32, **v))
        });
        Ok(GraphRun {
            makespan: end - t0,
            checksum,
            spawn_calls: graph.len() as u64,
            spawn_ns,
            join_wait: end - j0,
        })
    }

    /// Eq. 5 baseline: average task duration of finest-rung graphs on a
    /// one-worker runtime. Runs after the two-worker runtime is gone, so
    /// compute workers never exceed the two the benchmark is allowed.
    fn serial_task_duration(&mut self) -> f64 {
        drop(self.rt.take());
        let rt = Runtime::with_workers(1);
        let graph = &self.rungs[0].graph;
        let mut acc = Threads::default();
        for job in 0..SERIAL_GRAPHS {
            let before = Threads::read(&rt);
            if Self::run_graph(&rt, graph, None, job as u64).is_err() {
                return 0.0;
            }
            rt.wait_idle();
            acc.add_delta(before, Threads::read(&rt));
        }
        acc.t_d()
    }
}

/// METG(50%): the grain at which efficiency crosses 0.5, interpolated
/// on log(grain) between the two rungs that bracket it. If no pair
/// brackets it, the nearest end pair is extended.
pub fn metg50_us(grains_us: &[f64], eff: &[f64]) -> f64 {
    let n = grains_us.len();
    if n < 2 {
        return 0.0;
    }
    let i = (0..n - 1)
        .find(|&i| eff[i] < 0.5 && eff[i + 1] >= 0.5)
        .unwrap_or(if eff[0] >= 0.5 { 0 } else { n - 2 });
    let (g0, g1) = (grains_us[i].ln(), grains_us[i + 1].ln());
    let (e0, e1) = (eff[i], eff[i + 1]);
    if (e1 - e0).abs() < 1e-12 {
        return grains_us[i];
    }
    (g0 + (0.5 - e0) / (e1 - e0) * (g1 - g0)).exp()
}

impl Workload for Ladder {
    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Report {
        let mut report = Report::new();
        let rt = self
            .rt
            .as_ref()
            .expect("the runtime lives until the serial baseline");
        let n = self.rungs.len();
        // Per-graph efficiency samples by rung.
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut finest: Vec<Op> = Vec::new();
        let mut threads = Threads::default();
        let (mut spawn_calls, mut spawn_ns) = (0u64, 0u64);
        let mut join_wait_ms = Vec::new();
        let mut job = 0u64;
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let (mut stolen, mut rounds) = (0.0f64, 0u32);
        let mut done = false;
        while !done {
            // One round runs every rung. Its graphs' times are scaled by the
            // share of the round the VM's CPUs actually ran it: the time the
            // hypervisor gave other guests (`steal`) is the host's, not the
            // program's, and the ladder is CPU-bound.
            let ticks0 = cpu_ticks();
            let mut round: Vec<(usize, Duration, bool, f64)> = Vec::new();
            'round: for (r, rung) in self.rungs.iter().enumerate() {
                for _ in 0..rung.per_round {
                    if Instant::now() >= deadline {
                        done = true;
                        break 'round;
                    }
                    job += 1;
                    report.attempted += 1;
                    let at_s = t0.elapsed().as_secs_f64();
                    let before = if r == 0 {
                        Some(Threads::read(rt))
                    } else {
                        None
                    };
                    let run = match Self::run_graph(rt, &rung.graph, tracer, job) {
                        Ok(run) => run,
                        Err(e) => {
                            report.failed += 1;
                            report.wrong(e);
                            continue;
                        }
                    };
                    let ok = run.checksum == rung.reference;
                    if !ok {
                        report.failed += 1;
                        report.wrong(format!(
                            "graph {job} at {} us: checksum {:#x} != reference {:#x}",
                            rung.grain_us, run.checksum, rung.reference
                        ));
                    }
                    if let Some(before) = before {
                        threads.add_delta(before, Threads::read(rt));
                        spawn_calls += run.spawn_calls;
                        spawn_ns += run.spawn_ns;
                        join_wait_ms.push(run.join_wait.as_secs_f64() * 1e3);
                    }
                    round.push((r, run.makespan, ok, at_s));
                }
            }
            let available = 1.0 - steal_share(ticks0, cpu_ticks());
            stolen += 1.0 - available;
            rounds += 1;
            for (r, makespan, ok, at_s) in round {
                let rung = &self.rungs[r];
                let ms = makespan.as_secs_f64() * 1e3 * available;
                let busy = ms * 1e6 * COMPUTE_WORKERS as f64;
                samples[r].push(rung.work_ns / busy.max(1.0));
                if r == 0 {
                    finest.push(Op {
                        at_s,
                        turnaround_ms: ms,
                        makespan_ms: ms,
                        tasks: rung.graph.len() as u64,
                        work_ns: rung.work_ns,
                        interactive: true,
                        ok,
                    });
                }
            }
        }
        eprintln!(
            "dataflow_ladder: {rounds} rounds, mean steal share {:.3}",
            stolen / f64::from(rounds.max(1))
        );
        // A rung's efficiency is its median graph's, relative to the
        // median graph of the coarsest rung: the peak rate the two workers
        // reach on this host, measured interleaved with every other rung so
        // that CPU time other processes take from the host cancels out.
        // Medians, so a burst moves a few samples, not the rung.
        let peak = median(&samples[n - 1]).max(1e-9);
        let eff: Vec<f64> = samples.iter().map(|v| median(v) / peak).collect();
        eprintln!(
            "dataflow_ladder: efficiency by rung {:?}; coarsest rung at {peak:.3} of the calibrated single-thread rate",
            RUNGS_US
                .iter()
                .zip(eff.iter())
                .map(|(g, e)| format!("{g}us:{e:.3}"))
                .collect::<Vec<_>>()
        );
        report.end_to_end(
            &finest,
            seconds,
            false,
            LIMIT_MS,
            metg50_us(&RUNGS_US, &eff),
        );
        if tracer.is_some() {
            let func = threads.func_ns.max(1) as f64;
            let over = threads.func_ns.saturating_sub(threads.exec_ns) as f64;
            let t_d1 = self.serial_task_duration();
            report.layer("runtime.t_o_ns", over / threads.tasks.max(1) as f64, "ns");
            report.layer("runtime.idle_rate", over / func, "ratio");
            report.layer("runtime.t_w_ns", threads.t_d() - t_d1, "ns");
            report.layer(
                "runtime.spawn_ns",
                spawn_ns as f64 / spawn_calls.max(1) as f64,
                "ns",
            );
            report.layer("runtime.join_wait_ms", median(&join_wait_ms), "ms");
            report.layer(
                "runtime.stolen_per_task",
                threads.stolen as f64 / threads.tasks.max(1) as f64,
                "ratio",
            );
            report.layer(
                "runtime.pending_miss_rate",
                threads.pending_misses as f64 / threads.pending_accesses.max(1) as f64,
                "ratio",
            );
            report.layer("taskbench.build_ms", median(&self.build_ms), "ms");
        }
        report
    }

    fn layers(&self) -> &'static [&'static str] {
        &["runtime", "taskbench"]
    }
}

#[cfg(test)]
mod tests {
    use super::metg50_us;

    #[test]
    fn metg_interpolates_on_log_grain() {
        let g = [1.0, 2.0, 4.0, 8.0];
        let m = metg50_us(&g, &[0.1, 0.3, 0.4, 0.6]);
        // Halfway between 4 and 8 on a log scale.
        assert!((m - 32f64.sqrt()).abs() < 1e-9, "{m}");
        assert!(metg50_us(&g, &[0.6, 0.7, 0.8, 0.9]) < 1.0);
        assert!(metg50_us(&g, &[0.1, 0.2, 0.3, 0.4]) > 8.0);
    }
}
