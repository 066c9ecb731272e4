//! The batch workloads: `paper_path`, `reductions` and `joins`.
//!
//! Each workload is a fixed job list drawn from the seed. A run makes one
//! untimed warm-up pass over the list, then repeats timed passes until
//! the time is up. Every job in every pass is checked against a reference
//! the engine under test did not produce.

use crate::trace::{Layer, Tracer};
use crate::util::{median, Rng, SpeedProbe};
use gammaflow::dataflow::{DataflowGraph, DfStatus, SeqEngine};
use gammaflow::gamma::{Session, Status};
use gammaflow::multiset::{Element, ElementBag, Tag};
use gammaflow::workloads::{self, DagParams, Workload};
use std::time::Instant;

/// What a job hands the program under test.
pub enum Input {
    /// Mini-C source, through `frontend::compile` to a dataflow graph.
    MiniC(String),
    /// A generated dataflow graph.
    Graph(DataflowGraph),
    /// A Gamma program and its initial multiset, as text.
    Text { program: String, multiset: String },
}

pub struct Job {
    pub name: String,
    pub input: Input,
    /// The reference: computed by the generator, never by an engine.
    pub expected: ElementBag,
}

/// Counters read from the library after each job, summed over one pass.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub core_reactions: u64,
    pub dataflow_firings: u64,
    pub gamma_firings: u64,
    pub rete_tokens_created: u64,
    /// Largest single-session peak in the pass.
    pub rete_peak_live_tokens: u64,
    pub rete_spill_demotions: u64,
    pub sched_full_searches: u64,
    pub sched_anchored_probes: u64,
    pub guard_evals: u64,
    pub guard_rejects: u64,
    pub tier_ups: u64,
    pub par_deltas_processed: u64,
    pub par_steal_misses: u64,
}

impl Counters {
    fn absorb_session(&mut self, s: &Session) {
        self.gamma_firings += s.fired_total();
        if let Some(r) = s.rete_stats() {
            self.rete_tokens_created += r.tokens_created;
            self.rete_peak_live_tokens = self.rete_peak_live_tokens.max(r.peak_live_tokens);
            self.rete_spill_demotions += r.spill_demotions;
        }
        if let Some(d) = s.sched_stats() {
            self.sched_full_searches += d.full_searches;
            self.sched_anchored_probes += d.anchored_probes;
        }
        for row in &s.profile().rows {
            self.guard_evals += row.guard_evals;
            self.guard_rejects += row.guard_rejects;
        }
        self.tier_ups += s.vm_tier_ups();
        let par = s.par_stats();
        self.par_deltas_processed += par.deltas_processed;
        self.par_steal_misses += par.steal_misses;
    }
}

/// Run one job as op `op`: every layer call inside a child span. Returns
/// the nanoseconds spent bringing the program to its first firing, or a
/// description of the error or mismatch.
pub fn run_job(job: &Job, op: u64, tr: &mut Tracer, c: &mut Counters) -> Result<u64, String> {
    match &job.input {
        Input::MiniC(src) => {
            let (graph, compile_ns) =
                tr.timed(op, Layer::Frontend, || gammaflow::frontend::compile(src));
            let graph = graph.map_err(|e| format!("frontend: {e}"))?;
            Ok(compile_ns + run_graph(job, &graph, op, tr, c)?)
        }
        Input::Graph(graph) => run_graph(job, graph, op, tr, c),
        Input::Text { program, multiset } => {
            let (parsed, parse_ns) = tr.timed(op, Layer::Lang, || {
                Ok::<_, String>((
                    gammaflow::lang::parse_program(program).map_err(|e| e.to_string())?,
                    gammaflow::lang::parse_multiset(multiset).map_err(|e| e.to_string())?,
                ))
            });
            let (program, initial) = parsed.map_err(|e| format!("parse: {e}"))?;
            let (result, build_ns) = run_session(&program, initial, op, tr, c)?;
            let (same, _) = tr.timed(op, Layer::Check, || result == job.expected);
            if !same {
                return Err(format!(
                    "{}: stable multiset differs from the reference",
                    job.name
                ));
            }
            Ok(parse_ns + build_ns)
        }
    }
}

/// The paper's path for one graph: the dataflow engine directly, and
/// Algorithm 1 followed by a Gamma session. Both outputs must equal the
/// generator's structural reference.
fn run_graph(
    job: &Job,
    graph: &DataflowGraph,
    op: u64,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<u64, String> {
    let (df, _) = tr.timed(op, Layer::Dataflow, || SeqEngine::new(graph).run());
    let df = df.map_err(|e| format!("dataflow: {e}"))?;
    if df.status != DfStatus::Quiescent {
        return Err("dataflow: firing budget exhausted".into());
    }
    c.dataflow_firings += df.stats.fired_total();
    let (conv, convert_ns) = tr.timed(op, Layer::Core, || {
        gammaflow::core::dataflow_to_gamma(graph)
    });
    let conv = conv.map_err(|e| format!("algorithm 1: {e}"))?;
    c.core_reactions += conv.program.reactions.len() as u64;
    let (result, build_ns) = run_session(&conv.program, conv.initial, op, tr, c)?;
    let outputs = &conv.output_labels;
    let (same, _) = tr.timed(op, Layer::Check, || {
        df.outputs == job.expected && result.project(|l| outputs.contains(&l)) == job.expected
    });
    if !same {
        return Err(format!("{}: outputs differ from the reference", job.name));
    }
    Ok(convert_ns + build_ns)
}

/// Build a session on library defaults and run it to its stable state.
/// Returns the final multiset and the build time in nanoseconds.
fn run_session(
    program: &gammaflow::gamma::GammaProgram,
    initial: ElementBag,
    op: u64,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<(ElementBag, u64), String> {
    let (session, build_ns) = tr.timed(op, Layer::GammaBuild, || {
        Session::build(program).start(initial)
    });
    let mut session = session.map_err(|e| format!("session build: {e}"))?;
    let (wave, _) = tr.timed(op, Layer::GammaRun, || session.run_to_stable());
    let wave = wave.map_err(|e| format!("session run: {e}"))?;
    if wave.status != Status::Stable {
        return Err("session: firing budget exhausted".into());
    }
    c.absorb_session(&session);
    let (result, _) = tr.timed(op, Layer::GammaRun, || session.finish());
    Ok((result.multiset, build_ns))
}

/// A Gamma workload as text: the pretty-printed program and its initial
/// multiset in a seed-shuffled element order.
fn text_job(w: Workload, label: String, rng: &mut Rng) -> Job {
    let mut elems: Vec<Element> = w.initial.iter().collect();
    rng.shuffle(&mut elems);
    let multiset = format!(
        "{{{}}}",
        elems
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    Job {
        name: label,
        input: Input::Text {
            program: gammaflow::lang::pretty_program(&w.program),
            multiset,
        },
        expected: w.expected,
    }
}

/// Mini-C Fig. 2 loops, multi-loop graphs and random layered DAGs. Sizes
/// are fixed; the seed draws values, wiring and operators.
pub fn paper_path(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    for z in [8, 16, 32, 64] {
        let (y, x) = (rng.range(1, 9), rng.range(0, 99));
        let expected: ElementBag = [Element::new(x + y * z, "x", Tag(z as u64 + 1))]
            .into_iter()
            .collect();
        jobs.push(Job {
            name: format!("minic_loop_z{z}"),
            input: Input::MiniC(workloads::source_for(y, z, x)),
            expected,
        });
    }
    for count in [4, 16, 64] {
        let w = workloads::parallel_loops(count, rng.range(1, 9), 8, rng.range(0, 99));
        jobs.push(Job {
            name: format!("parallel_loops_{count}"),
            input: Input::Graph(w.graph),
            expected: w.expected,
        });
    }
    let params = DagParams {
        roots: 8,
        layers: 8,
        width: 16,
        range: 100,
    };
    for i in 0..4 {
        let d = workloads::random_dag(rng.next_u64(), &params);
        jobs.push(Job {
            name: format!("random_dag_{i}"),
            input: Input::Graph(d.graph),
            expected: d.expected,
        });
    }
    for i in 0..2 {
        let d = workloads::wide_pairs(rng.next_u64(), 256);
        jobs.push(Job {
            name: format!("wide_pairs_{i}"),
            input: Input::Graph(d.graph),
            expected: d.expected,
        });
    }
    jobs
}

/// Unguarded all-pairs folds and the guarded but dense classics.
pub fn reductions(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let values = |n: usize, rng: &mut Rng| -> Vec<i64> {
        (0..n).map(|_| rng.range(-100_000, 100_000)).collect()
    };
    let mut jobs = Vec::new();
    let v = values(2048, &mut rng);
    jobs.push(text_job(workloads::sum(&v), "sum_2048".into(), &mut rng));
    let v = values(1024, &mut rng);
    jobs.push(text_job(
        workloads::minimum(&v),
        "minimum_1024".into(),
        &mut rng,
    ));
    let v = values(1024, &mut rng);
    jobs.push(text_job(
        workloads::maximum(&v),
        "maximum_1024".into(),
        &mut rng,
    ));
    // Small cofactors of a common divisor bound subtraction-gcd's firings.
    let g = rng.range(2, 50);
    let v: Vec<i64> = (0..256).map(|_| g * rng.range(1, 40)).collect();
    jobs.push(text_job(workloads::gcd(&v), "gcd_256".into(), &mut rng));
    let v = values(128, &mut rng);
    let order = rng.next_u64();
    jobs.push(text_job(
        workloads::exchange_sort(&v, order),
        "exchange_sort_128".into(),
        &mut rng,
    ));
    jobs
}

/// Guarded, selective joins: few of the enumerated pairs fire.
pub fn joins(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut jobs = vec![
        text_job(workloads::primes(1000), "primes_1000".into(), &mut rng),
        text_job(
            workloads::divisor_sieve(1000),
            "divisor_sieve_1000".into(),
            &mut rng,
        ),
        text_job(
            workloads::triangles(60, 39),
            "triangles_60_39".into(),
            &mut rng,
        ),
    ];
    let intervals: Vec<(i64, i64)> = (0..400)
        .map(|_| {
            let lo = rng.range(0, 9_000);
            (lo, lo + rng.range(0, 30))
        })
        .collect();
    jobs.push(text_job(
        workloads::interval_merge(&intervals),
        "interval_merge_400".into(),
        &mut rng,
    ));
    jobs
}

/// What a batch run measured.
pub struct BatchOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Scaled to the reference machine's speed, pass by pass.
    pub ops_per_s: f64,
    pub setup_s: f64,
    /// As measured, unscaled.
    pub raw_ops_per_s: f64,
    pub raw_setup_s: f64,
    pub timed_passes: u64,
    /// Counters of the last timed pass.
    pub counters: Counters,
    /// First op id of the timed passes (the warm-up pass comes before).
    pub first_timed_op: u64,
    /// Median slowdown of the machine against the reference machine.
    pub speed: f64,
    pub errors: Vec<String>,
}

/// Timed passes stop once this many ran and the time is up.
const MIN_TIMED_PASSES: usize = 3;

/// Each timed pass is scaled by the mean of the machine slowdowns probed
/// just before and just after it; the outcome takes medians over passes.
pub fn run(jobs: &[Job], seconds: f64, tr: &mut Tracer, probe: &mut SpeedProbe) -> BatchOutcome {
    let mut out = BatchOutcome {
        attempted: 0,
        failed: 0,
        ops_per_s: 0.0,
        setup_s: 0.0,
        raw_ops_per_s: 0.0,
        raw_setup_s: 0.0,
        timed_passes: 0,
        counters: Counters::default(),
        first_timed_op: 0,
        speed: 0.0,
        errors: Vec::new(),
    };
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let (mut raw_rates, mut raw_setups, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut op = 0u64;
    let mut timed_start: Option<Instant> = None;
    let mut slowdown_before = probe.slowdown();
    loop {
        let mut counters = Counters::default();
        let mut verified = 0u64;
        let mut setup_ns = 0u64;
        let pass_start = Instant::now();
        for job in jobs {
            op += 1;
            let start = tr.now();
            let result = run_job(job, op, tr, &mut counters);
            let end = tr.now();
            tr.record(op, None, start, end);
            out.attempted += 1;
            match result {
                Ok(ns) => {
                    verified += 1;
                    setup_ns += ns;
                }
                Err(e) => {
                    out.failed += 1;
                    if out.errors.len() < 8 {
                        out.errors.push(e);
                    }
                }
            }
        }
        let pass_s = pass_start.elapsed().as_secs_f64();
        let slowdown_after = probe.slowdown();
        let slowdown = (slowdown_before + slowdown_after) / 2.0;
        slowdown_before = slowdown_after;
        match timed_start {
            None => {
                timed_start = Some(Instant::now());
                out.first_timed_op = op + 1;
            }
            Some(t) => {
                raw_rates.push(verified as f64 / pass_s);
                raw_setups.push(setup_ns as f64 / 1e9);
                rates.push(verified as f64 / pass_s * slowdown);
                setups.push(setup_ns as f64 / 1e9 / slowdown);
                slowdowns.push(slowdown);
                out.counters = counters;
                if rates.len() >= MIN_TIMED_PASSES && t.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
        }
    }
    out.ops_per_s = median(&rates);
    out.setup_s = median(&setups);
    out.raw_ops_per_s = median(&raw_rates);
    out.raw_setup_s = median(&raw_setups);
    out.timed_passes = rates.len() as u64;
    out.speed = median(&slowdowns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(jobs: &[Job]) {
        let mut tr = Tracer::new(false);
        for (i, job) in jobs.iter().enumerate() {
            let mut c = Counters::default();
            if let Err(e) = run_job(job, i as u64, &mut tr, &mut c) {
                panic!("{}: {e}", job.name);
            }
        }
    }

    #[test]
    fn every_job_passes_its_gate() {
        check_all(&paper_path(1));
        check_all(&reductions(1));
        check_all(&joins(1));
    }

    /// A corrupted reference must be caught on each input kind, so a
    /// wrong answer can never earn throughput credit.
    #[test]
    fn corrupted_reference_is_caught() {
        let mut jobs = paper_path(3);
        jobs.extend(reductions(3));
        jobs.extend(joins(3));
        let mut tr = Tracer::new(false);
        for (i, mut job) in jobs.into_iter().enumerate() {
            job.expected.insert(Element::pair(12345, "corrupt"));
            let mut c = Counters::default();
            assert!(
                run_job(&job, i as u64, &mut tr, &mut c).is_err(),
                "{} accepted a corrupted reference",
                job.name
            );
        }
    }

    #[test]
    fn jobs_repeat_per_seed() {
        let text = |jobs: Vec<Job>| -> Vec<String> {
            jobs.into_iter()
                .map(|j| match j.input {
                    Input::Text { program, multiset } => program + &multiset,
                    Input::MiniC(s) => s,
                    Input::Graph(_) => j.expected.to_string(),
                })
                .collect()
        };
        assert_eq!(text(joins(5)), text(joins(5)));
        assert_eq!(text(paper_path(5)), text(paper_path(5)));
        assert_ne!(text(reductions(5)), text(reductions(6)));
    }
}
