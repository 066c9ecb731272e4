//! The gammaflow benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload per process (the element arena is process-global and
//! `VmHWM` is per process), checks every output against a reference the
//! engine under test did not produce, and prints one JSON line last on
//! stdout: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. A traced run spends the first half of `--seconds`
//! on the same workload untraced, in a child process, to report the
//! tracing overhead, and the second half traced. See README.md.

mod batch;
mod serving;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::{Layer, SelfTimes, Tracer};

const WORKLOADS: [&str; 4] = ["paper_path", "reductions", "joins", "gammad_serving"];

/// Printed with `--trace 0`; the names and units in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`; the names and units in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 47] = [
    ("wave_ms_p50", "ms"),
    ("wave_ms_p99", "ms"),
    ("frontend.compile_s", "s"),
    ("core.convert_s", "s"),
    ("core.reactions", "count"),
    ("dataflow.run_s", "s"),
    ("dataflow.firings", "count"),
    ("lang.parse_s", "s"),
    ("gamma.build_s", "s"),
    ("gamma.rete.tokens_created", "count"),
    ("gamma.rete.peak_live_tokens", "count"),
    ("gamma.rete.spill_demotions", "count"),
    ("gamma.run_s", "s"),
    ("gamma.firings", "count"),
    ("gamma.firings_per_s", "1/s"),
    ("gamma.rete.tokens_per_firing", "ratio"),
    ("gamma.sched.full_searches", "count"),
    ("gamma.sched.anchored_probes", "count"),
    ("gamma.vm.guard_evals", "count"),
    ("gamma.vm.guard_reject_ratio", "ratio"),
    ("gamma.vm.tier_ups", "count"),
    ("gamma.pool.leases", "count"),
    ("gamma.pool.refusals", "count"),
    ("gamma.par.deltas_processed", "count"),
    ("gamma.par.steal_misses", "count"),
    ("multiset.arena_slots", "count"),
    ("multiset.arena_bytes", "bytes"),
    ("multiset.arena_hit_ratio", "ratio"),
    ("service.register_s", "s"),
    ("service.inject_us_p50", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.wave_s", "s"),
    ("service.drain_s", "s"),
    ("service.evict_s", "s"),
    ("service.evictions", "count"),
    ("service.restores", "count"),
    ("service.spilled_frac", "ratio"),
    ("service.ready_depth_max", "count"),
    ("gen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_s", "s"),
    ("bench.check_s", "s"),
    ("bench.speed_factor", "ratio"),
    ("bench.raw_ops_per_s", "ops/s"),
    ("bench.raw_setup_s", "s"),
    ("failed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The same workload and seed untraced for `seconds` in a child process;
/// its `ops_per_s` is the base of `trace.overhead_frac`.
fn untraced_ops_per_s(args: &Args, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced run failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let key = "\"ops_per_s\": {\"value\": ";
    let at = last.find(key).ok_or("untraced run printed no ops_per_s")? + key.len();
    let rest = &last[at..];
    let end = rest.find(',').unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .map_err(|e| format!("untraced ops_per_s: {e}"))
}

/// Print each layer's self time and the residual, per op and in total.
fn print_self_times(st: &SelfTimes) {
    let ops = st.ops.max(1) as f64;
    let wall = st.wall_ns.max(1) as f64;
    eprintln!(
        "self time over {} ops ({:.3} s of op wall time):",
        st.ops,
        wall / 1e9
    );
    eprintln!(
        "  {:<20} {:>12} {:>12} {:>8}",
        "layer", "total s", "per op us", "share"
    );
    let mut sum = 0;
    let rows = st
        .layer_ns
        .iter()
        .map(|(l, ns)| (l.name(), *ns))
        .chain([("residual", st.residual_ns)]);
    for (name, ns) in rows {
        sum += ns;
        eprintln!(
            "  {:<20} {:>12.6} {:>12.2} {:>7.2}%",
            name,
            ns as f64 / 1e9,
            ns as f64 / 1e3 / ops,
            100.0 * ns as f64 / wall
        );
    }
    assert_eq!(
        sum, st.wall_ns,
        "layer self times and residual must add up to op wall time"
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    // Before anything touches the library, so nothing it does to the
    // allocator can reach the probe's memory.
    let mut probe = util::SpeedProbe::new();
    // A traced run takes `--seconds` in all: half untraced, half traced.
    let (seconds, overhead_base) = if args.trace {
        let half = args.seconds / 2.0;
        (half, Some(untraced_ops_per_s(args, half)?))
    } else {
        (args.seconds, None)
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let (attempted, failed, errors, self_times, tracer);
    if args.workload == "gammad_serving" {
        let out = serving::run(args.seed, seconds, args.trace, &mut probe)?;
        for (name, value, _) in &out.metrics {
            values.insert(name, *value);
        }
        if let Some(st) = &out.self_times {
            values.insert("trace.residual_s", st.residual_ns as f64 / 1e9);
        }
        (attempted, failed, errors, self_times, tracer) = (
            out.attempted,
            out.failed,
            out.errors,
            out.self_times,
            out.trace,
        );
    } else {
        let jobs = match args.workload.as_str() {
            "paper_path" => batch::paper_path(args.seed),
            "reductions" => batch::reductions(args.seed),
            _ => batch::joins(args.seed),
        };
        let mut tr = Tracer::new(args.trace);
        let pool_before = gammaflow::gamma::WorkerPool::global().lease_stats();
        let out = batch::run(&jobs, seconds, &mut tr, &mut probe);
        let pool_after = gammaflow::gamma::WorkerPool::global().lease_stats();
        values.insert("ops_per_s", out.ops_per_s);
        values.insert("setup_s", out.setup_s);
        values.insert("peak_rss_mb", util::peak_rss_mb());
        values.insert("bench.speed_factor", out.speed);
        values.insert("bench.raw_ops_per_s", out.raw_ops_per_s);
        values.insert("bench.raw_setup_s", out.raw_setup_s);
        let c = &out.counters;
        let st = tr.self_times(|op| op >= out.first_timed_op);
        let passes = out.timed_passes.max(1) as f64;
        let per_pass = |l: Layer| st.layer_ns.get(&l).copied().unwrap_or(0) as f64 / 1e9 / passes;
        let firings = c.gamma_firings as f64;
        let evals = c.guard_evals as f64;
        values.extend([
            ("frontend.compile_s", per_pass(Layer::Frontend)),
            ("core.convert_s", per_pass(Layer::Core)),
            ("core.reactions", c.core_reactions as f64),
            ("dataflow.run_s", per_pass(Layer::Dataflow)),
            ("dataflow.firings", c.dataflow_firings as f64),
            ("lang.parse_s", per_pass(Layer::Lang)),
            ("gamma.build_s", per_pass(Layer::GammaBuild)),
            ("gamma.run_s", per_pass(Layer::GammaRun)),
            ("bench.check_s", per_pass(Layer::Check)),
            ("trace.residual_s", st.residual_ns as f64 / 1e9 / passes),
            ("gamma.firings", firings),
            (
                "gamma.firings_per_s",
                firings / per_pass(Layer::GammaRun).max(1e-9),
            ),
            ("gamma.rete.tokens_created", c.rete_tokens_created as f64),
            (
                "gamma.rete.peak_live_tokens",
                c.rete_peak_live_tokens as f64,
            ),
            ("gamma.rete.spill_demotions", c.rete_spill_demotions as f64),
            (
                "gamma.rete.tokens_per_firing",
                c.rete_tokens_created as f64 / firings.max(1.0),
            ),
            ("gamma.sched.full_searches", c.sched_full_searches as f64),
            (
                "gamma.sched.anchored_probes",
                c.sched_anchored_probes as f64,
            ),
            ("gamma.vm.guard_evals", evals),
            (
                "gamma.vm.guard_reject_ratio",
                c.guard_rejects as f64 / evals.max(1.0),
            ),
            ("gamma.vm.tier_ups", c.tier_ups as f64),
            ("gamma.par.deltas_processed", c.par_deltas_processed as f64),
            ("gamma.par.steal_misses", c.par_steal_misses as f64),
            ("gamma.pool.leases", (pool_after.0 - pool_before.0) as f64),
            ("gamma.pool.refusals", (pool_after.1 - pool_before.1) as f64),
        ]);
        (attempted, failed, errors, tracer) = (out.attempted, out.failed, out.errors, tr);
        self_times = args.trace.then_some(st);
    }
    let arena = gammaflow::multiset::arena_stats();
    values.insert("multiset.arena_slots", arena.slots as f64);
    values.insert("multiset.arena_bytes", arena.bytes as f64);
    values.insert(
        "multiset.arena_hit_ratio",
        arena.hits as f64 / (arena.hits as f64 + arena.slots as f64).max(1.0),
    );
    values.insert("failed_frac", failed as f64 / attempted.max(1) as f64);
    if let Some(base) = overhead_base {
        values.insert(
            "trace.overhead_frac",
            base / values["ops_per_s"].max(1e-9) - 1.0,
        );
    }

    for e in &errors {
        eprintln!("error: {e}");
    }
    if let Some(st) = &self_times {
        print_self_times(st);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = names
        .iter()
        .map(|(n, u)| (*n, values.get(n).copied().unwrap_or(0.0), *u))
        .collect();
    for (n, v, u) in &metrics {
        eprintln!("  {n:<30} {v:>16.6} {u}");
    }
    if !args.trace {
        // The unscaled figures and the machine's speed, for the log.
        for n in ["bench.raw_ops_per_s", "bench.raw_setup_s", "bench.speed_factor"] {
            eprintln!("  {n:<30} {:>16.6}", values.get(n).copied().unwrap_or(0.0));
        }
    }
    Ok(json_line(
        failed == 0 && errors.is_empty(),
        attempted,
        failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
