//! The repository benchmark: METG and turnaround on four execution
//! paths, split by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dataflow_ladder --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run sets its workload up seven times (the median is `setup_s`),
//! measures it for `--seconds`, checks every output, and prints one JSON
//! line last: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run measures its workload half untraced and half traced, then runs a
//! short traced probe of every other workload, so each per-layer metric
//! is taken on the workload that exercises its layer. Spans go to
//! `perfbench/out/trace-<workload>-<seed>.json` (Chrome trace events).
//! See `perfbench/README.md` for the workloads and metrics.

mod fleet;
mod halo;
mod ladder;
mod openloop;
mod service_mix;
mod stats;
mod trace;

use stats::{median, Report};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use trace::Tracer;

/// Compute workers every workload runs with, in total. The benchmark
/// refuses to run on a host with fewer cores.
pub const COMPUTE_WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Measured seconds of each probe of another workload in a traced run.
const PROBE_SECONDS: f64 = 3.0;

/// A measured workload, set up and ready to run.
pub trait Workload {
    /// Run the workload for `seconds`, checking every output. With a
    /// tracer, record spans and fill the per-layer metrics of the
    /// workload's own layers.
    fn measure(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Report;
    /// The layers whose per-layer metrics this workload provides.
    fn layers(&self) -> &'static [&'static str];
}

/// Workload names, in the order probes run.
const WORKLOADS: [&str; 4] = [
    "dataflow_ladder",
    "service_mix",
    "halo_tcp",
    "fleet_dispatch",
];

fn setup(name: &str, seed: u64, tracer: Option<&Tracer>) -> Box<dyn Workload> {
    match name {
        "dataflow_ladder" => Box::new(ladder::Ladder::setup(seed, tracer)),
        "service_mix" => Box::new(service_mix::ServiceMix::setup(seed, tracer)),
        "halo_tcp" => Box::new(halo::Halo::setup(seed, tracer)),
        "fleet_dispatch" => Box::new(fleet::Fleet::setup(seed, tracer)),
        other => unreachable!("unknown workload {other} passed argument checks"),
    }
}

/// End-to-end metrics of the open-loop workloads that a traced run
/// reports as per-layer metrics: `(workload, metric, reported name)`.
/// Their latencies follow the host's CPU availability too closely to
/// carry a bound on a shared machine, so they are reported, not gated.
const OPEN_LOOP: [(&str, &str, &str); 8] = [
    (
        "service_mix",
        "turnaround_p50_ms",
        "service_mix.turnaround_p50_ms",
    ),
    (
        "service_mix",
        "turnaround_p99_ms",
        "service_mix.turnaround_p99_ms",
    ),
    (
        "service_mix",
        "interactive_p99_ms",
        "service_mix.interactive_p99_ms",
    ),
    (
        "service_mix",
        "goodput_jobs_per_s",
        "service_mix.goodput_jobs_per_s",
    ),
    (
        "fleet_dispatch",
        "turnaround_p50_ms",
        "fleet_dispatch.turnaround_p50_ms",
    ),
    (
        "fleet_dispatch",
        "turnaround_p99_ms",
        "fleet_dispatch.turnaround_p99_ms",
    ),
    (
        "fleet_dispatch",
        "interactive_p99_ms",
        "fleet_dispatch.interactive_p99_ms",
    ),
    (
        "fleet_dispatch",
        "goodput_jobs_per_s",
        "fleet_dispatch.goodput_jobs_per_s",
    ),
];

/// Self time of a layer's spans, by layer.
const SELF_MS: [(&str, &str); 7] = [
    ("runtime", "runtime.self_ms"),
    ("taskbench", "taskbench.self_ms"),
    ("service", "service.self_ms"),
    ("net", "net.self_ms"),
    ("stencil", "stencil.self_ms"),
    ("fleet", "fleet.self_ms"),
    ("bench", "bench.self_ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be in (0, 600]")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, json_num(*v)))
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
}

fn report_problems(phase: &str, r: &Report) {
    for p in r.problems.iter().take(20) {
        eprintln!("{phase}: {p}");
    }
}

fn add_open_loop(
    layer: &mut BTreeMap<&'static str, (f64, &'static str)>,
    workload: &str,
    r: &Report,
) {
    for (w, metric, name) in OPEN_LOOP {
        if w != workload {
            continue;
        }
        if let Some(&(_, v, u)) = r.e2e.iter().find(|m| m.0 == metric) {
            layer.insert(name, (v, u));
        }
    }
}

fn write_trace(workload: &str, seed: u64, phases: &[(String, Tracer)]) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        let mut first = true;
        for (pid, (phase, t)) in phases.iter().enumerate() {
            t.write_chrome(&mut out, pid + 1, phase, &mut first);
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    };
    match write() {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {nproc}, compute workers {COMPUTE_WORKERS}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if COMPUTE_WORKERS > nproc {
        eprintln!(
            "perfbench: refusing to run {COMPUTE_WORKERS} compute workers on {nproc} core(s): \
             results would measure oversubscription"
        );
        std::process::exit(3);
    }

    // A traced run keeps the spans of its last set-up.
    let main_tracer = Tracer::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for k in 0..SETUPS {
        drop(workload.take());
        let tracer = (args.trace && k + 1 == SETUPS).then_some(&main_tracer);
        let t0 = Instant::now();
        workload = Some(setup(&args.workload, args.seed, tracer));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS is at least one");
    eprintln!(
        "perfbench: set-up times {:?} s; process start to first measure {:.3} s",
        setup_s,
        started.elapsed().as_secs_f64()
    );

    if !args.trace {
        let mut r = workload.measure(args.seconds, None);
        report_problems(&args.workload, &r);
        r.e2e.insert(0, ("setup_s", median(&setup_s), "s"));
        r.e2e.push(("peak_rss_mb", stats::peak_rss_mb(), "MB"));
        print_result(r.correct, r.attempted, r.failed, &r.e2e);
        return;
    }

    // Traced run: the same workload untraced, then traced, then a short
    // traced probe of each other workload for the layers it exercises.
    let half = args.seconds / 2.0;
    let untraced = workload.measure(half, None);
    let traced = workload.measure(half, Some(&main_tracer));
    let main_layers = workload.layers();
    drop(workload);
    let tps = |r: &Report| {
        r.e2e
            .iter()
            .find(|m| m.0 == "tasks_per_s")
            .map_or(0.0, |m| m.1)
    };
    let mut correct = untraced.correct && traced.correct;
    let mut attempted = untraced.attempted + traced.attempted;
    let mut failed = untraced.failed + traced.failed;
    report_problems(&args.workload, &untraced);
    report_problems(&args.workload, &traced);

    let mut layer: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let mut phases: Vec<(String, Tracer)> = Vec::new();
    let add_self = |layer: &mut BTreeMap<&str, (f64, &str)>, t: &Tracer, which: &[&str]| {
        let by = t.self_ms_by_layer();
        for (l, name) in SELF_MS {
            if which.contains(&l) {
                layer.insert(name, (by.get(l).copied().unwrap_or(0.0), "ms"));
            }
        }
    };
    for probe in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let t = Tracer::new();
        let mut w = setup(probe, args.seed, Some(&t));
        let r = w.measure(PROBE_SECONDS, Some(&t));
        report_problems(probe, &r);
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
        for (n, v, u) in &r.layer {
            layer.entry(n).or_insert((*v, u));
        }
        add_self(&mut layer, &t, w.layers());
        add_open_loop(&mut layer, probe, &r);
        drop(w);
        phases.push((format!("probe {probe}"), t));
    }
    for (n, v, u) in &traced.layer {
        layer.insert(n, (*v, u));
    }
    add_self(&mut layer, &main_tracer, main_layers);
    add_open_loop(&mut layer, &args.workload, &traced);
    add_self(&mut layer, &main_tracer, &["bench"]);
    let overhead = 1.0 - tps(&traced) / tps(&untraced).max(1e-9);
    layer.insert("bench.trace_overhead", (overhead, "ratio"));
    let dropped: u64 = main_tracer.dropped() + phases.iter().map(|p| p.1.dropped()).sum::<u64>();
    if dropped > 0 {
        eprintln!("perfbench: {dropped} spans beyond the store cap were not kept");
    }
    phases.insert(0, (args.workload.clone(), main_tracer));
    write_trace(&args.workload, args.seed, &phases);
    let metrics: Vec<(&str, f64, &str)> = layer.iter().map(|(n, (v, u))| (*n, *v, *u)).collect();
    print_result(correct, attempted, failed, &metrics);
}
