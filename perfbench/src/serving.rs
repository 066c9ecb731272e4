//! The `gammad_serving` workload: hundreds of tenants on one
//! `ServiceRuntime`, first under an open loop at a fixed offered rate,
//! then under a closed loop that gives capacity.
//!
//! Tenant mix, fixed by tenant index:
//! * most tenants fold `windowed_sum` waves on the default engine;
//! * every fourth runs the sharded parallel engine with one worker, so
//!   its waves lease from the process-wide parked pool;
//! * every eighth is a `burst_drain` tenant whose bag budget is below its
//!   burst, so inject spills and the overflow is re-injected after the
//!   next drain.
//!
//! Popularity is Zipf-skewed: tenant `i` is the `i`-th most popular, and
//! the seed draws which tenant each arrival goes to. Kinds are fixed by
//! popularity rank, so every seed offers the same mix of work. Every few
//! waves `evict_idle` runs, so quiet tenants are evicted and restored on
//! their next inject, beside the waves of busy ones.
//!
//! Open loop: the due-time schedule is computed up front. One generator
//! thread spin-waits for each due time and injects; one driver thread
//! runs waves and drains, and blocks while no tenant is ready. Both take
//! one bench-side gate around their service calls, so a drain never takes
//! input that arrived after its wave: every arrival admitted before a
//! wave is exactly what that wave made stable.
//! Latency runs from an arrival's due time to the end of the drain after
//! the wave that processed the last of its elements.
//!
//! Every wave must end stable, and every drain must hold each window
//! admitted since the tenant's last drain as exactly one element, the sum
//! of its readings. At the end, each tenant's drained windows must add up
//! to the workload's `expected` totals times the number of times each
//! window was injected.
//!
//! Closed loop: the driver alone injects the next arrival and runs waves
//! until the ready queue is empty, for a fixed number of arrivals that
//! cycle through the waves the open loop already injected. The memory it
//! leaves behind is then the same however fast it ran.

use crate::trace::{Layer, Tracer};
use crate::util::{median, quantile, Rng, SpeedProbe};
use gammaflow::gamma::{
    Engine, EngineConfig, GammaProgram, MetricsRegistry, ParEngine, Status, WorkerPool,
};
use gammaflow::multiset::{Element, ElementBag};
use gammaflow::service::{ServiceConfig, ServiceRuntime};
use gammaflow::workloads::{self, StreamingWorkload};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 256;
const WINDOWS_PER_WAVE: usize = 2;
const READINGS_PER_WINDOW: usize = 8;
const BURST: usize = 24;
/// Below [`BURST`], so every burst spills.
const BURST_BAG_BUDGET: u64 = 16;
/// Open-loop offered rate, arrivals per second: a workload constant, a
/// fifth to a quarter of the closed-loop capacity measured when the
/// benchmark was defined. At half, the open loop saturates whenever the
/// shared machine slows down (see README.md).
const OFFERED_RATE: f64 = 500.0;
/// Share of `--seconds` given to the open loop; the rest is the closed
/// loop, which gives `ops_per_s` and so gets the larger share.
const OPEN_LOOP_SHARE: f64 = 0.25;
const ZIPF_EXPONENT: f64 = 1.0;
const EVICT_EVERY_WAVES: u64 = 128;
const EVICT_IDLE_TICKS: u64 = 4 * TENANTS as u64;
/// Set-up is repeated this many times and reported as the median.
const SETUP_REPS: usize = 41;
/// Closed-loop arrivals per second of its share of `--seconds`: about
/// the median capacity seen on the machine the benchmark was defined on
/// (1300–2700 arrivals/s as the shared host's speed drifted), so the
/// phase takes about its share there.
const CLOSED_LOOP_RATE: f64 = 1700.0;
/// The closed loop gives up (and fails the run) after this multiple of
/// its share of `--seconds`.
const CLOSED_LOOP_CAP: f64 = 4.0;
/// The generator sleeps through gaps longer than this and spins through
/// the rest: a sleeping generator lets the vCPU idle, and waking it, or a
/// pool worker, costs milliseconds on the shared machine.
const SPIN_WINDOW: Duration = Duration::from_millis(50);
/// The open loop gives up when arrivals stay in flight this long with no
/// tenant ready.
const STUCK_AFTER: Duration = Duration::from_secs(2);
/// The closed loop is timed in slices of about this length, each scaled
/// by the machine slowdowns probed just before and after it.
const SLICE: Duration = Duration::from_millis(250);
/// In traced runs, sample the service's ready-queue depth this often.
const DEPTH_SAMPLE_EVERY_WAVES: u64 = 512;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Windowed,
    Sharded,
    Burst,
}

fn kind_of(index: usize) -> Kind {
    if index % 8 == 3 {
        Kind::Burst
    } else if index % 4 == 1 {
        Kind::Sharded
    } else {
        Kind::Windowed
    }
}

fn config_for(kind: Kind) -> EngineConfig {
    match kind {
        Kind::Windowed => EngineConfig::default(),
        Kind::Sharded => EngineConfig {
            engine: Engine::Parallel(ParEngine::ShardedRete),
            workers: 1,
            ..EngineConfig::default()
        },
        Kind::Burst => EngineConfig {
            bag_budget: BURST_BAG_BUDGET,
            ..EngineConfig::default()
        },
    }
}

/// An arrival in flight: admitted (perhaps partly) but not yet drained.
struct Pending {
    op: u64,
    due: u64,
    /// Overflow still to be admitted.
    spill: Vec<Element>,
    /// End of the last inject or drain that touched this arrival.
    last_end: u64,
    open_loop: bool,
    /// Child spans, kept only when tracing.
    children: Vec<(Layer, u64, u64)>,
}

struct Tenant {
    id: String,
    kind: Kind,
    program: GammaProgram,
    waves: Vec<Vec<Element>>,
    wave_tags: Vec<Vec<u64>>,
    /// Window total per tag, from the workload's own expected multiset.
    expected: HashMap<u64, i64>,
    injected: HashMap<u64, i64>,
    drained: HashMap<u64, i64>,
    /// Readings admitted since the last drain, per tag: (count, sum).
    owed: HashMap<u64, (u64, i64)>,
    /// Waves that did not end stable and drains that did not match.
    bad: u64,
    next_wave: usize,
    pending: VecDeque<Pending>,
    arrivals: u64,
    closed_loop_waves: u64,
}

impl Tenant {
    fn new(index: usize, arrivals: usize, seed: u64) -> Tenant {
        let kind = kind_of(index);
        let waves = arrivals.max(1);
        let w: StreamingWorkload = match kind {
            Kind::Burst => workloads::burst_drain(waves, BURST, seed),
            _ => workloads::windowed_sum(waves, WINDOWS_PER_WAVE, READINGS_PER_WINDOW, seed),
        };
        let expected = w
            .expected
            .iter()
            .map(|e| (e.tag.0, e.value.as_int().expect("integer totals")))
            .collect();
        let wave_tags = w
            .waves
            .iter()
            .map(|wave| {
                let mut tags: Vec<u64> = wave.iter().map(|e| e.tag.0).collect();
                tags.sort_unstable();
                tags.dedup();
                tags
            })
            .collect();
        Tenant {
            id: format!("tenant-{index:03}"),
            kind,
            program: w.program,
            waves: w.waves,
            wave_tags,
            expected,
            injected: HashMap::new(),
            drained: HashMap::new(),
            owed: HashMap::new(),
            bad: 0,
            next_wave: 0,
            pending: VecDeque::new(),
            arrivals: 0,
            closed_loop_waves: 0,
        }
    }

    /// Count readings offered to the service (`sign` 1) or handed back
    /// as spilled (`sign` -1) into what the next drain owes.
    fn owe(&mut self, elems: &[Element], sign: i64) {
        for e in elems {
            let entry = self.owed.entry(e.tag.0).or_default();
            entry.0 = entry.0.wrapping_add_signed(sign);
            entry.1 += sign * e.value.as_int().unwrap_or(0);
        }
    }

    /// Check one drain against what it owes: each window with admitted
    /// readings comes out as exactly one element, their sum, and nothing
    /// else comes out. Adds the drain to the run's totals either way.
    fn check_drain(&mut self, bag: &ElementBag) -> bool {
        let mut owed: HashMap<u64, i64> = self
            .owed
            .drain()
            .filter(|(_, (count, _))| *count > 0)
            .map(|(tag, (_, sum))| (tag, sum))
            .collect();
        let mut ok = bag.len() == owed.len();
        for e in bag.iter() {
            let value = e.value.as_int();
            ok &= e.label.as_str() == "x" && owed.remove(&e.tag.0) == value;
            *self.drained.entry(e.tag.0).or_default() += value.unwrap_or(0);
        }
        ok
    }

    /// No wave or drain went wrong, every drained window sums to its
    /// total times the number of times it was injected, and nothing is
    /// left in flight.
    fn verified(&self) -> bool {
        self.bad == 0
            && self.pending.is_empty()
            && self.drained.keys().all(|t| self.injected.contains_key(t))
            && self.injected.iter().all(|(tag, times)| {
                self.expected.get(tag).map(|total| total * times) == self.drained.get(tag).copied()
            })
    }
}

/// Zipf weights over ranks, as a cumulative table.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn pick(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Everything both threads touch, behind the gate.
struct State {
    tenants: Vec<Tenant>,
    index: HashMap<String, usize>,
    tr: Tracer,
    next_op: u64,
    in_flight: u64,
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    inject_us: Vec<f64>,
    late_ms: Vec<f64>,
    waves: u64,
    wave_ns: u64,
    drain_ns: u64,
    evict_ns: u64,
    elements_offered: u64,
    ready_depth_max: f64,
    errors: Vec<String>,
}

impl State {
    fn error(&mut self, e: String) {
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// Inject tenant `t`'s next wave as a new op due at `due`.
    fn arrive(&mut self, svc: &ServiceRuntime, t: usize, due: u64, open_loop: bool) {
        let tn = &mut self.tenants[t];
        let w = tn.next_wave % tn.waves.len();
        tn.next_wave += 1;
        tn.arrivals += 1;
        for tag in &tn.wave_tags[w] {
            *tn.injected.entry(*tag).or_default() += 1;
        }
        let elems = tn.waves[w].clone();
        tn.owe(&elems, 1);
        self.elements_offered += elems.len() as u64;
        self.next_op += 1;
        let op = self.next_op;
        let start = self.tr.now();
        let outcome = svc.inject(&tn.id, elems);
        let end = self.tr.now();
        self.inject_us.push((end - start) as f64 / 1e3);
        if open_loop {
            self.late_ms.push(start.saturating_sub(due) as f64 / 1e6);
        }
        match outcome {
            Ok(outcome) => {
                let children = if self.tr.on() {
                    vec![(Layer::GenLate, due, start), (Layer::Inject, start, end)]
                } else {
                    Vec::new()
                };
                self.in_flight += 1;
                let spill = outcome.spilled();
                let tn = &mut self.tenants[t];
                tn.owe(&spill, -1);
                tn.pending.push_back(Pending {
                    op,
                    due,
                    spill,
                    last_end: end,
                    open_loop,
                    children,
                });
            }
            Err(e) => self.error(format!("inject {}: {e}", self.tenants[t].id)),
        }
    }

    /// Run the wave at the head of the ready queue, drain its tenant,
    /// complete what the wave made stable and re-inject spilled input.
    /// Returns false when no tenant was ready.
    fn wave(&mut self, svc: &ServiceRuntime, closed_loop: bool) -> bool {
        let ws = self.tr.now();
        let report = match svc.run_next_wave() {
            Ok(Some(r)) => r,
            Ok(None) => return false,
            Err(e) => {
                self.error(format!("wave: {e}"));
                return true;
            }
        };
        let we = self.tr.now();
        self.wave_ns += we - ws;
        self.waves += 1;
        let t = self.index[&report.tenant];
        if report.wave.status != Status::Stable {
            self.tenants[t].bad += 1;
            self.error(format!(
                "wave {}: ended {:?}",
                report.tenant, report.wave.status
            ));
        }
        let drained = svc.drain(&report.tenant);
        let de = self.tr.now();
        self.drain_ns += de - we;
        let tracing = self.tr.on();
        let tn = &mut self.tenants[t];
        if closed_loop {
            tn.closed_loop_waves += 1;
        }
        match drained {
            Ok(bag) => {
                if !tn.check_drain(&bag) {
                    tn.bad += 1;
                    if self.errors.len() < 8 {
                        let msg = format!("drain {}: {bag} is not one sum per window", tn.id);
                        self.errors.push(msg);
                    }
                }
            }
            Err(e) => {
                let msg = format!("drain {}: {e}", tn.id);
                self.error(msg);
                return true;
            }
        }
        let mut still = VecDeque::new();
        let mut done = Vec::new();
        while let Some(mut p) = tn.pending.pop_front() {
            if tracing {
                p.children.push((Layer::QueueWait, p.last_end, ws));
                p.children.push((Layer::Wave, ws, we));
                p.children.push((Layer::Drain, we, de));
            }
            if p.spill.is_empty() {
                // Admitted in full before this wave started.
                if p.open_loop {
                    self.latency_ms.push((de - p.due) as f64 / 1e6);
                    self.queue_wait_ms
                        .push(ws.saturating_sub(p.last_end) as f64 / 1e6);
                }
                done.push(p);
                continue;
            }
            let spill = std::mem::take(&mut p.spill);
            self.elements_offered += spill.len() as u64;
            tn.owe(&spill, 1);
            let s = self.tr.now();
            let outcome = svc.inject(&tn.id, spill);
            let e = self.tr.now();
            self.inject_us.push((e - s) as f64 / 1e3);
            if tracing {
                p.children.push((Layer::Inject, s, e));
            }
            match outcome {
                Ok(o) => {
                    p.spill = o.spilled();
                    tn.owe(&p.spill, -1);
                    p.last_end = e;
                    still.push_back(p);
                }
                Err(err) => {
                    // Counted by the failed run, no longer in flight.
                    if self.errors.len() < 8 {
                        self.errors.push(format!("re-inject {}: {err}", tn.id));
                    }
                    done.push(p);
                }
            }
        }
        tn.pending = still;
        self.in_flight -= done.len() as u64;
        for p in done {
            self.tr.record(p.op, None, p.due, de);
            for (layer, s, e) in p.children {
                self.tr.record(p.op, Some(layer), s, e);
            }
        }
        if self.waves.is_multiple_of(EVICT_EVERY_WAVES) {
            // Eviction is an op of its own, not part of any arrival.
            self.next_op += 1;
            let op = self.next_op;
            let s = self.tr.now();
            let evicted = svc.evict_idle(EVICT_IDLE_TICKS);
            let e = self.tr.now();
            self.tr.record(op, None, s, e);
            self.tr.record(op, Some(Layer::Evict), s, e);
            self.evict_ns += e - s;
            if let Err(e) = evicted {
                self.error(format!("evict_idle: {e}"));
            }
        }
        if tracing && self.waves.is_multiple_of(DEPTH_SAMPLE_EVERY_WAVES) {
            let depth = metric_fold(&svc.metrics(), "gammad_ready_queue_depth", f64::max);
            self.ready_depth_max = self.ready_depth_max.max(depth);
        }
        true
    }
}

/// Fold every sample named `name` with `f`.
fn metric_fold(reg: &MetricsRegistry, name: &str, f: fn(f64, f64) -> f64) -> f64 {
    reg.metrics
        .iter()
        .filter(|m| m.name == name)
        .fold(0.0, |acc, m| f(acc, m.value))
}

fn add(a: f64, b: f64) -> f64 {
    a + b
}

fn wait_until(epoch: Instant, due_ns: u64) {
    let due = epoch + Duration::from_nanos(due_ns);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_WINDOW * 2 {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What a serving run measured.
pub struct ServingOutcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `(name, value, unit)` for every metric the run produced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub self_times: Option<crate::trace::SelfTimes>,
    pub trace: Tracer,
}

pub fn run(
    seed: u64,
    seconds: f64,
    tracing: bool,
    probe: &mut SpeedProbe,
) -> Result<ServingOutcome, String> {
    let mut rng = Rng::new(seed);
    let cdf = zipf_cdf(TENANTS);

    // The open-loop schedule, computed before anything runs.
    let open_s = seconds * OPEN_LOOP_SHARE;
    let arrivals = (OFFERED_RATE * open_s).round() as usize;
    let gap_ns = 1e9 / OFFERED_RATE;
    // Time for the threads to start before the first arrival is due.
    let lead_ns = 20_000_000u64;
    let schedule: Vec<(u64, usize)> = (0..arrivals)
        .map(|i| (lead_ns + (i as f64 * gap_ns) as u64, pick(&cdf, &mut rng)))
        .collect();
    let mut per_tenant = vec![0usize; TENANTS];
    for &(_, t) in &schedule {
        per_tenant[t] += 1;
    }
    let closed_picks: Vec<usize> = (0..1 << 16).map(|_| pick(&cdf, &mut rng)).collect();
    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|i| Tenant::new(i, per_tenant[i], rng.next_u64()))
        .collect();

    // Set-up: a fresh service with every tenant registered, several times.
    let (mut setups, mut raw_setups, mut registers) = (Vec::new(), Vec::new(), Vec::new());
    let mut svc = None;
    let mut slowdown_before = probe.slowdown();
    for _ in 0..SETUP_REPS {
        drop(svc.take());
        let start = Instant::now();
        let s = ServiceRuntime::new(ServiceConfig::default()).map_err(|e| e.to_string())?;
        let reg_start = Instant::now();
        for tn in &tenants {
            s.register(&tn.id, &tn.program, config_for(tn.kind), ElementBag::new())
                .map_err(|e| format!("register {}: {e}", tn.id))?;
        }
        let (register_s, setup_s) = (reg_start.elapsed(), start.elapsed());
        let slowdown_after = probe.slowdown();
        let slowdown = (slowdown_before + slowdown_after) / 2.0;
        slowdown_before = slowdown_after;
        registers.push(register_s.as_secs_f64());
        raw_setups.push(setup_s.as_secs_f64());
        setups.push(setup_s.as_secs_f64() / slowdown);
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");

    let index = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.id.clone(), i))
        .collect();
    let pool_before = WorkerPool::global().lease_stats();
    let gate = Mutex::new(State {
        tenants,
        index,
        tr: Tracer::new(tracing),
        next_op: 0,
        in_flight: 0,
        latency_ms: Vec::with_capacity(arrivals),
        queue_wait_ms: Vec::with_capacity(arrivals),
        inject_us: Vec::with_capacity(2 * arrivals),
        late_ms: Vec::with_capacity(arrivals),
        waves: 0,
        wave_ns: 0,
        drain_ns: 0,
        evict_ns: 0,
        elements_offered: 0,
        ready_depth_max: 0.0,
        errors: Vec::new(),
    });
    let epoch = gate.lock().expect("gate").tr.epoch();
    let generator_done = AtomicBool::new(false);
    let generator_waiting = AtomicBool::new(false);
    let work = Condvar::new();

    // Phase 1: open loop, one generator and one driver thread.
    std::thread::scope(|s| {
        s.spawn(|| {
            for &(due, t) in &schedule {
                wait_until(epoch, due);
                generator_waiting.store(true, Ordering::SeqCst);
                let mut st = gate.lock().expect("gate");
                generator_waiting.store(false, Ordering::SeqCst);
                st.arrive(&svc, t, due, true);
                work.notify_one();
            }
            generator_done.store(true, Ordering::SeqCst);
            work.notify_one();
        });
        let mut st = gate.lock().expect("gate");
        let mut stuck_since = None;
        loop {
            if st.wave(&svc, false) {
                stuck_since = None;
                // The generator goes first whenever it is waiting: an
                // arrival is due now, a wave can wait.
                drop(st);
                while generator_waiting.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                st = gate.lock().expect("gate");
                continue;
            }
            if generator_done.load(Ordering::SeqCst) {
                if st.in_flight == 0 {
                    break;
                }
                // Arrivals in flight but no tenant ready: a tenant stopped
                // (say, out of firing budget). Fail rather than hang.
                let idle = *stuck_since.get_or_insert_with(Instant::now);
                if idle.elapsed() > STUCK_AFTER {
                    let stuck = st.in_flight;
                    st.error(format!("{stuck} arrivals never completed"));
                    break;
                }
            }
            st = work
                .wait_timeout(st, Duration::from_millis(1))
                .expect("gate")
                .0;
        }
    });

    // Phase 2: closed loop, the driver alone.
    let mut st = gate.into_inner().expect("gate");
    // A fixed number of arrivals, so the memory the closed loop leaves
    // behind does not depend on how fast it ran.
    let closed_s = seconds - open_s;
    let closed_arrivals = (CLOSED_LOOP_RATE * closed_s).round() as usize;
    let started = Instant::now();
    let mut next = 0usize;
    let waves_before = st.waves;
    let (mut rates, mut raw_rates, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut slowdown_before = probe.slowdown();
    let (mut slice_start, mut slice_waves) = (Instant::now(), st.waves);
    while next < closed_arrivals && started.elapsed().as_secs_f64() < CLOSED_LOOP_CAP * closed_s {
        let t = closed_picks[next % closed_picks.len()];
        next += 1;
        let now = st.tr.now();
        st.arrive(&svc, t, now, false);
        while st.wave(&svc, true) {}
        let slice_s = slice_start.elapsed();
        if slice_s >= SLICE || next == closed_arrivals {
            let slowdown_after = probe.slowdown();
            let slowdown = (slowdown_before + slowdown_after) / 2.0;
            slowdown_before = slowdown_after;
            let rate = (st.waves - slice_waves) as f64 / slice_s.as_secs_f64();
            raw_rates.push(rate);
            rates.push(rate * slowdown);
            slowdowns.push(slowdown);
            (slice_start, slice_waves) = (Instant::now(), st.waves);
        }
    }
    if next < closed_arrivals {
        st.error(format!(
            "closed loop sent {next} of {closed_arrivals} arrivals in {CLOSED_LOOP_CAP}x its time"
        ));
    }
    let closed_waves = st.waves - waves_before;
    let pool_after = WorkerPool::global().lease_stats();

    // The gate: every arrival of a tenant with a wave that did not end
    // stable, a drain that did not match, or drained totals that disagree
    // with its workload's expected totals fails, and its waves earn no
    // throughput credit.
    let mut attempted = 0;
    let mut failed = 0;
    let mut unverified_waves = 0;
    for tn in &st.tenants {
        attempted += tn.arrivals;
        if !tn.verified() {
            failed += tn.arrivals;
            unverified_waves += tn.closed_loop_waves;
        }
    }
    if !st.errors.is_empty() && failed == 0 {
        failed = 1;
    }

    let verified_share = (closed_waves - unverified_waves) as f64 / closed_waves.max(1) as f64;

    let service_page = svc.metrics();
    let spilled = metric_fold(&service_page, "gammad_tenant_spilled_elements_total", add);
    let mut metrics = vec![
        ("ops_per_s", median(&rates) * verified_share, "ops/s"),
        ("setup_s", median(&setups), "s"),
        (
            "wave_ms_p50",
            quantile(&st.latency_ms, 0.5),
            "ms",
        ),
        (
            "wave_ms_p99",
            quantile(&st.latency_ms, 0.99),
            "ms",
        ),
        ("peak_rss_mb", crate::util::peak_rss_mb(), "MB"),
        ("bench.speed_factor", median(&slowdowns), "ratio"),
        ("bench.raw_ops_per_s", median(&raw_rates) * verified_share, "ops/s"),
        ("bench.raw_setup_s", median(&raw_setups), "s"),
        ("service.register_s", median(&registers), "s"),
        ("service.inject_us_p50", quantile(&st.inject_us, 0.5), "us"),
        (
            "service.queue_wait_ms_p50",
            quantile(&st.queue_wait_ms, 0.5),
            "ms",
        ),
        (
            "service.queue_wait_ms_p99",
            quantile(&st.queue_wait_ms, 0.99),
            "ms",
        ),
        ("service.wave_s", st.wave_ns as f64 / 1e9, "s"),
        ("service.drain_s", st.drain_ns as f64 / 1e9, "s"),
        ("service.evict_s", st.evict_ns as f64 / 1e9, "s"),
        (
            "service.evictions",
            metric_fold(&service_page, "gammad_tenant_evictions_total", add),
            "count",
        ),
        (
            "service.restores",
            metric_fold(&service_page, "gammad_tenant_restores_total", add),
            "count",
        ),
        (
            "service.spilled_frac",
            spilled / st.elements_offered.max(1) as f64,
            "ratio",
        ),
        ("service.ready_depth_max", st.ready_depth_max, "count"),
        ("gen.late_ms_p99", quantile(&st.late_ms, 0.99), "ms"),
        (
            "gamma.pool.leases",
            (pool_after.0 - pool_before.0) as f64,
            "count",
        ),
        (
            "gamma.pool.refusals",
            (pool_after.1 - pool_before.1) as f64,
            "count",
        ),
    ];
    if tracing {
        // Restore every evicted tenant so its session counters are on the
        // page (after the service counters above were read).
        for tn in &st.tenants {
            svc.status(&tn.id).map_err(|e| e.to_string())?;
        }
        let page = svc.metrics();
        let sum = |n: &str| metric_fold(&page, n, add);
        let firings = sum("gamma_firings_total");
        let tokens = sum("gamma_rete_tokens_created_total");
        let evals = sum("gamma_reaction_guard_evals_total");
        metrics.extend([
            ("gamma.firings", firings, "count"),
            (
                "gamma.firings_per_s",
                firings / (st.wave_ns as f64 / 1e9).max(1e-9),
                "1/s",
            ),
            ("gamma.rete.tokens_created", tokens, "count"),
            (
                "gamma.rete.peak_live_tokens",
                metric_fold(&page, "gamma_rete_peak_live_tokens", f64::max),
                "count",
            ),
            (
                "gamma.rete.spill_demotions",
                sum("gamma_rete_spill_demotions_total"),
                "count",
            ),
            (
                "gamma.rete.tokens_per_firing",
                tokens / firings.max(1.0),
                "ratio",
            ),
            (
                "gamma.sched.full_searches",
                sum("gamma_sched_full_searches_total"),
                "count",
            ),
            (
                "gamma.sched.anchored_probes",
                sum("gamma_sched_anchored_probes_total"),
                "count",
            ),
            ("gamma.vm.guard_evals", evals, "count"),
            (
                "gamma.vm.guard_reject_ratio",
                sum("gamma_reaction_guard_rejects_total") / evals.max(1.0),
                "ratio",
            ),
            ("gamma.vm.tier_ups", sum("gamma_vm_tier_ups_total"), "count"),
            (
                "gamma.par.deltas_processed",
                sum("gamma_par_deltas_processed_total"),
                "count",
            ),
            (
                "gamma.par.steal_misses",
                sum("gamma_par_steal_misses_total"),
                "count",
            ),
        ]);
    }
    let self_times = tracing.then(|| st.tr.self_times(|_| true));
    Ok(ServingOutcome {
        attempted,
        failed,
        errors: std::mem::take(&mut st.errors),
        metrics,
        self_times,
        trace: st.tr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_totals_fail_the_tenant() {
        let mut tn = Tenant::new(0, 3, 9);
        for w in 0..3 {
            for tag in tn.wave_tags[w].clone() {
                *tn.injected.entry(tag).or_default() += 1;
                let total = tn.expected[&tag];
                tn.drained.insert(tag, total);
            }
        }
        assert!(tn.verified());
        let tag = tn.wave_tags[1][0];
        *tn.expected.get_mut(&tag).expect("tag") += 1;
        assert!(!tn.verified(), "a corrupted reference was accepted");
    }

    /// A drain must hold one sum per window: the unreduced readings have
    /// the right per-tag sum but must still be rejected, as must a
    /// reduced bag whose sum is off.
    #[test]
    fn unreduced_or_wrong_drains_fail() {
        let mut tn = Tenant::new(0, 2, 9);
        let readings = tn.waves[0].clone();
        let sums = |elems: &[Element]| -> ElementBag {
            let mut by_tag: HashMap<u64, i64> = HashMap::new();
            for e in elems {
                *by_tag.entry(e.tag.0).or_default() += e.value.as_int().expect("int");
            }
            by_tag
                .into_iter()
                .map(|(tag, v)| Element::new(v, "x", tag))
                .collect()
        };
        tn.owe(&readings, 1);
        assert!(tn.check_drain(&sums(&readings)));
        tn.owe(&readings, 1);
        let unreduced: ElementBag = readings.iter().cloned().collect();
        assert!(!tn.check_drain(&unreduced), "unreduced readings accepted");
        tn.owe(&readings, 1);
        let mut off = readings.clone();
        off[0] = Element::new(off[0].value.as_int().expect("int") + 1, "x", off[0].tag);
        assert!(!tn.check_drain(&sums(&off)), "a wrong sum accepted");
        // Readings handed back as spilled are not owed by this drain.
        tn.owe(&readings, 1);
        tn.owe(&readings[..1], -1);
        assert!(tn.check_drain(&sums(&readings[1..])));
    }

    #[test]
    fn tenant_mix_has_every_kind() {
        let kinds: Vec<Kind> = (0..TENANTS).map(kind_of).collect();
        let count = |k: Kind| kinds.iter().filter(|&&x| x == k).count();
        assert_eq!(count(Kind::Burst), TENANTS / 8);
        assert_eq!(count(Kind::Sharded), TENANTS / 4);
        assert!(count(Kind::Windowed) > TENANTS / 2);
    }
}
