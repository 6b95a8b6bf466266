//! The three benchmark workloads, driven through the crates' public APIs.
//!
//! Each workload has a set-up phase (scenario parse, plan resolve, trace
//! generation: everything before the first engine call) and an iteration
//! (simulate, analyze and, on `traced_faults`, record and read the trace
//! back). Iterations run back to back; the simulated traffic inside one is
//! open-loop (MMPP and on/off arrivals).

use crate::digest::Digest;
use crate::probe::{self, Stopwatch};
use crate::tracer::{TimedRecorder, Tracer};
use slsb_core::{
    analyze, fleet_metrics, oracle_bound, run_metrics, slo_metrics, slo_samples, trace_oracle,
    Analysis, Deployment, Executor, ExecutorConfig, FleetPlan, FleetRunner, FleetScenario,
    RetryPolicy, RunResult, Scenario, SloSpec, WorkloadSpec,
};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_obs::{trace_view, JsonlRecorder, LogLinearHistogram, Recorder};
use slsb_platform::{FaultPlan, PlatformKind};
use slsb_sim::Seed;
use slsb_workload::{MmppPreset, WorkloadTrace};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

const FLEET_SCENARIO: &str = include_str!("../../scenarios/fleet_zipf.json");
const FAULT_SCENARIO: &str = include_str!("../../scenarios/fault_smoke.json");
/// Client retry policy of `traced_faults`.
const TRACED_RETRY: &str = "attempts=3,base=0.2";
/// SLO the `traced_faults` run is scored against.
const TRACED_SLO: &str = "p50=0.5,p99=5,sr=0.6";
/// Candidate realizations [`choose`] tries per arrival trace or fleet.
///
/// A bursty 15-minute MMPP trace's request count varies by ±25% from seed
/// to seed, and a Zipf fleet's by ±12%, so the work an iteration does would
/// follow the seed more than the code. Before set-up, untimed, each trace
/// (or the fleet) therefore takes the first of up to this many candidate
/// realizations whose request count is within [`NEAR`] of the default
/// seed's, or else the closest. The first candidate is the plain seed, so
/// the default seed always runs its own realization, the one the pinned
/// digests hold.
const CANDIDATES: u64 = 256;
const NEAR: f64 = 0.01;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaperMatrix,
    FleetZipf,
    TracedFaults,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperMatrix, Kind::FleetZipf, Kind::TracedFaults];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperMatrix => "paper_matrix",
            Kind::FleetZipf => "fleet_zipf",
            Kind::TracedFaults => "traced_faults",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The share of its traces' simulated duration the benchmark runs: of
    /// Fig 5's 15-minute MMPP presets, of the fleet scenario's 900 s.
    ///
    /// At full size an iteration holds tens of MiB (the 33 MB trace of
    /// `traced_faults`, the records of an 86k-request run), and on a shared
    /// host its time follows other tenants' cache and memory traffic for
    /// seconds to minutes. At these sizes an iteration holds a few MiB and
    /// runs tens of times as often; `perfbench/README.md` gives the
    /// measurements.
    pub fn scale(self) -> f64 {
        match self {
            Kind::PaperMatrix => 0.05,
            Kind::FleetZipf | Kind::TracedFaults => 0.1,
        }
    }

    /// The seed the workload's digest is pinned at: Fig 5's calibrated
    /// seed, and the seeds of `fleet_zipf.json` and `fault_smoke.json`.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::PaperMatrix => 127,
            Kind::FleetZipf => 41,
            Kind::TracedFaults => 7,
        }
    }
}

/// What to run: the workload, its seed and its size. `scale` shortens every
/// trace's simulated duration: the benchmark runs [`Kind::scale`], the
/// self-tests smaller.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    pub scale: f64,
    /// Fleet worker threads.
    pub workers: usize,
}

/// Everything set-up produced. One lives per run, so variant sizes do not
/// matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Matrix {
        runs: Vec<(Deployment, usize)>,
        traces: Vec<WorkloadTrace>,
    },
    Fleet {
        plan: FleetPlan,
        /// The run seed: the realization [`choose`] picked.
        seed: Seed,
    },
    Traced {
        deployment: Deployment,
        executor: ExecutorConfig,
        faults: FaultPlan,
        slo: SloSpec,
        trace: WorkloadTrace,
        /// In-memory trace sink, reused so that iterations after the first
        /// record into a buffer that no longer grows.
        sink: RefCell<Vec<u8>>,
    },
}

impl Prepared {
    /// Arrival traces set-up generated (none on fleets, which stream theirs
    /// inside the engine call).
    pub fn traces(&self) -> &[WorkloadTrace] {
        match self {
            Prepared::Matrix { traces, .. } => traces,
            Prepared::Fleet { .. } => &[],
            Prepared::Traced { trace, .. } => std::slice::from_ref(trace),
        }
    }

    /// Arrivals set-up generated.
    pub fn generated(&self) -> u64 {
        self.traces().iter().map(|t| t.len() as u64).sum()
    }

    /// Simulated seconds one iteration covers, summed over its runs.
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Prepared::Matrix { runs, traces, .. } => runs
                .iter()
                .map(|&(_, t)| traces[t].duration().as_secs_f64())
                .sum(),
            Prepared::Fleet { plan, .. } => plan.spec.duration.as_secs_f64(),
            Prepared::Traced { trace, .. } => trace.duration().as_secs_f64(),
        }
    }
}

/// Picks, untimed, the realization `cfg.seed` runs: one generation seed
/// per arrival trace (per MMPP preset on `paper_matrix`), or the fleet's run
/// seed. See [`CANDIDATES`].
pub fn choose(cfg: &Config) -> Result<Vec<Seed>, String> {
    let default = Seed(cfg.kind.default_seed());
    let seed = Seed(cfg.seed);
    let presets = |which: &[MmppPreset], stream: &str| {
        which
            .iter()
            .map(|&which| {
                let spec = WorkloadSpec::Preset {
                    which,
                    scale: cfg.scale,
                };
                let count = |s: Seed| spec.generate(s).len();
                let target = count(default.substream(stream));
                pick(seed.substream(stream), target, count)
            })
            .collect()
    };
    Ok(match cfg.kind {
        Kind::PaperMatrix => presets(&MmppPreset::ALL, "workload"),
        Kind::TracedFaults => presets(&[MmppPreset::W120], "scenario-workload"),
        Kind::FleetZipf => {
            let plan = fleet_plan(cfg)?;
            // Per-app streams count the same arrivals as the merge,
            // without paying for it.
            let apps = plan.spec.apps.len() as u32;
            let count = |s: Seed| -> usize {
                (0..apps)
                    .map(|i| plan.spec.arrival_stream_for(s, [i]).count())
                    .sum()
            };
            vec![pick(seed, count(default), count)]
        }
    })
}

/// The first candidate of `seed` whose count is within [`NEAR`] of
/// `target`, or else the closest (the first on ties).
fn pick(seed: Seed, target: usize, count: impl Fn(Seed) -> usize) -> Seed {
    let mut best = (f64::INFINITY, seed);
    for j in 0..CANDIDATES {
        let s = if j == 0 {
            seed
        } else {
            seed.substream_indexed("candidate", j)
        };
        let off = (count(s) as f64 - target as f64).abs();
        if off <= NEAR * target as f64 {
            return s;
        }
        if off < best.0 {
            best = (off, s);
        }
    }
    best.1
}

fn fleet_plan(cfg: &Config) -> Result<FleetPlan, String> {
    let mut sc = FleetScenario::from_json(FLEET_SCENARIO).map_err(|e| e.to_string())?;
    sc.seed = cfg.seed;
    if cfg.scale != 1.0 {
        sc.scale_duration(cfg.scale).map_err(|e| e.to_string())?;
    }
    sc.resolve(None).map_err(|e| e.to_string())
}

/// Runs set-up for `cfg` on the realization `chosen` that [`choose`]
/// picked, with spans on `tr`: scenario parse, plan resolve and trace
/// generation, what the program does before its first engine call.
pub fn setup(cfg: &Config, chosen: &[Seed], tr: &mut Tracer) -> Result<Prepared, String> {
    match cfg.kind {
        Kind::PaperMatrix => {
            let runs = tr.span("core.plan.resolve", || {
                let mut runs = Vec::with_capacity(72);
                for platform in PlatformKind::ALL {
                    for model in ModelKind::ALL {
                        for (i, _) in MmppPreset::ALL.iter().enumerate() {
                            let dep = Deployment::new(platform, model, RuntimeKind::Tf115);
                            dep.validate().map_err(|e| e.to_string())?;
                            runs.push((dep, i));
                        }
                    }
                }
                Ok::<_, String>(runs)
            })?;
            let traces = tr.span("workload.generate", || {
                MmppPreset::ALL
                    .iter()
                    .zip(chosen)
                    .map(|(&which, &s)| preset(which, cfg.scale, s))
                    .collect()
            });
            Ok(Prepared::Matrix { runs, traces })
        }
        Kind::FleetZipf => {
            // The fleet engine streams its arrivals inside the engine call,
            // so set-up is parse and resolve only.
            let plan = tr.span("core.plan.resolve", || fleet_plan(cfg))?;
            Ok(Prepared::Fleet {
                plan,
                seed: chosen[0],
            })
        }
        Kind::TracedFaults => {
            let (deployment, executor, faults, slo) = tr.span("core.plan.resolve", || {
                let sc = Scenario::from_json(FAULT_SCENARIO).map_err(|e| e.to_string())?;
                sc.faults.validate().map_err(|e| e.to_string())?;
                sc.deployment.validate().map_err(|e| e.to_string())?;
                let mut executor = sc.executor;
                executor.retry = RetryPolicy::parse_spec(TRACED_RETRY)?;
                let slo = SloSpec::parse(TRACED_SLO)?;
                Ok::<_, String>((sc.deployment, executor, sc.faults, slo))
            })?;
            let trace = tr.span("workload.generate", || {
                preset(MmppPreset::W120, cfg.scale, chosen[0])
            });
            Ok(Prepared::Traced {
                deployment,
                executor,
                faults,
                slo,
                trace,
                sink: RefCell::new(Vec::new()),
            })
        }
    }
}

fn preset(which: MmppPreset, scale: f64, seed: Seed) -> WorkloadTrace {
    WorkloadSpec::Preset { which, scale }.generate(seed)
}

/// Trace-recorder figures of one iteration.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecorderStats {
    pub events: u64,
    pub bytes: u64,
}

/// What one iteration did and measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Digest of the simulated results.
    pub digest: u64,
    /// Simulation runs.
    pub runs: u64,
    /// Runs that erred, panicked or broke an invariant, with the reason.
    pub failures: Vec<String>,
    pub requests: u64,
    pub engine_events: u64,
    pub retries: u64,
    /// Host wall and CPU seconds inside the engine calls.
    pub engine_wall_s: f64,
    pub engine_cpu_s: f64,
    /// Most heap MiB live at once inside an engine call.
    pub engine_peak_mib: f64,
    /// Host wall and CPU seconds of the iteration, correctness checks
    /// excluded.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The same time split into laps at fixed points of the iteration.
    pub laps: Laps,
    pub recorder: RecorderStats,
    /// Success latencies in seconds, kept only when tracing (ladder input).
    pub latencies: Vec<f64>,
    /// Fleet latency histogram, kept only when tracing (ladder input).
    pub fleet_latency: Option<LogLinearHistogram>,
}

/// An iteration's host time split into laps at fixed points: after each
/// simulation run, each stage of the traced run. Every iteration of a run
/// has the same laps, so a lap's fastest repeat can be taken over a run.
#[derive(Debug, Default)]
pub struct Laps {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    /// Wall seconds of each engine call.
    pub engine: Vec<f64>,
}

/// Times an iteration in laps, with the time of the benchmark's own
/// correctness checks taken out.
struct Clock {
    lap: Stopwatch,
    /// Check wall and CPU seconds since the lap started.
    check: (f64, f64),
}

impl Clock {
    fn start() -> Clock {
        Clock {
            lap: Stopwatch::start(),
            check: (0.0, 0.0),
        }
    }

    /// Runs one of the benchmark's own checks, outside every lap.
    fn check<R>(&mut self, tr: &mut Tracer, f: impl FnOnce() -> R) -> R {
        let sw = Stopwatch::start();
        let r = tr.span("bench.check", f);
        let (w, c) = sw.read();
        self.check.0 += w;
        self.check.1 += c;
        r
    }

    /// Ends the current lap and starts the next.
    fn lap(&mut self, it: &mut Iteration) {
        let (w, c) = self.lap.read();
        it.laps.wall.push(w - self.check.0);
        it.laps.cpu.push(c - self.check.1);
        *self = Clock::start();
    }
}

/// Times one engine call: always into `it`, and as a span when tracing.
fn engine<R>(it: &mut Iteration, tr: &mut Tracer, f: impl FnOnce() -> R) -> R {
    probe::reset_peak_heap();
    let sw = Stopwatch::start();
    let r = tr.span("core.engine", f);
    let (w, c) = sw.read();
    it.laps.engine.push(w);
    it.engine_wall_s += w;
    it.engine_cpu_s += c;
    it.engine_peak_mib = it.engine_peak_mib.max(probe::peak_heap_mib());
    r
}

/// Runs one iteration of a prepared workload.
pub fn iterate(cfg: &Config, prep: &Prepared, tr: &mut Tracer) -> Iteration {
    let mut it = Iteration::default();
    let mut clock = Clock::start();
    match prep {
        Prepared::Matrix { runs, traces, .. } => {
            let tracing = tr.enabled();
            let mut digest = Digest::new();
            for (dep, t) in runs {
                it.runs += 1;
                let trace = &traces[*t];
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let run = engine(&mut it, tr, || {
                        Executor::default().run(dep, trace, Seed(cfg.seed))
                    })
                    .map_err(|e| e.to_string())?;
                    let a = tr.span("core.analyzer", || analyze(&run));
                    let checked = clock.check(tr, || {
                        digest.run(&run);
                        if tracing {
                            it.latencies.extend(successes(&run));
                        }
                        check_run(&run, trace)?;
                        check_outcomes(&a).map(|()| (run.records.len() as u64, run.engine_events))
                    });
                    // Releasing the records an engine call returned is part
                    // of that call's cost.
                    tr.span("core.engine", || drop(run));
                    checked
                }));
                match flatten(out) {
                    Ok((requests, events)) => {
                        it.requests += requests;
                        it.engine_events += events;
                    }
                    Err(e) => it.failures.push(format!("{}: {e}", dep.label())),
                }
                clock.lap(&mut it);
            }
            it.digest = digest.finish();
        }
        Prepared::Fleet { plan, seed, .. } => {
            let tracing = tr.enabled();
            it.runs = 1;
            let out = catch_unwind(AssertUnwindSafe(|| {
                let res = engine(&mut it, tr, || {
                    FleetRunner::default()
                        .with_workers(cfg.workers)
                        .run(plan, *seed)
                })
                .map_err(|e| e.to_string())?;
                let m = tr.span("core.analyzer", || fleet_metrics(&res));
                clock.check(tr, || {
                    let mut digest = Digest::new();
                    digest.fleet(&res);
                    if tracing {
                        it.fleet_latency = Some(res.latency.clone());
                    }
                    let mut submitted = 0;
                    for a in &res.apps {
                        submitted += a.requests;
                        let ended =
                            a.ok + a.queue_full + a.timeout + a.rejected + a.throttled + a.crashed;
                        if ended != a.requests {
                            return Err(format!(
                                "app {}: ok + failed {ended} != {} requests",
                                a.app, a.requests
                            ));
                        }
                    }
                    if submitted != res.requests || m.counter("requests_total") != res.requests {
                        return Err(format!(
                            "apps submitted {submitted}, run counted {}, metrics {}",
                            res.requests,
                            m.counter("requests_total")
                        ));
                    }
                    Ok((digest.finish(), res.requests, res.engine_events))
                })
            }));
            match flatten(out) {
                Ok((digest, requests, events)) => {
                    it.digest = digest;
                    it.requests = requests;
                    it.engine_events = events;
                }
                Err(e) => it.failures.push(format!("fleet: {e}")),
            }
        }
        Prepared::Traced {
            deployment,
            executor,
            faults,
            slo,
            trace,
            sink,
            ..
        } => {
            it.runs = 1;
            let mut buf = sink.borrow_mut();
            buf.clear();
            let out = catch_unwind(AssertUnwindSafe(|| {
                traced_iteration(
                    cfg, &mut it, &mut clock, tr, deployment, executor, faults, slo, trace,
                    &mut buf,
                )
            }));
            // Every iteration writes the same bytes, so later ones fit.
            buf.shrink_to_fit();
            if let Err(e) = flatten(out) {
                it.failures.push(format!("traced: {e}"));
            }
        }
    }
    clock.lap(&mut it);
    it.wall_s = it.laps.wall.iter().sum();
    it.cpu_s = it.laps.cpu.iter().sum();
    it
}

#[allow(clippy::too_many_arguments)]
fn traced_iteration(
    cfg: &Config,
    it: &mut Iteration,
    clock: &mut Clock,
    tr: &mut Tracer,
    deployment: &Deployment,
    executor: &ExecutorConfig,
    faults: &FaultPlan,
    slo: &SloSpec,
    trace: &WorkloadTrace,
    buf: &mut Vec<u8>,
) -> Result<(), String> {
    let tracing = tr.enabled();
    let exec = Executor::new(*executor)
        .with_faults(faults.clone())
        .with_shards(1);
    let mut jsonl = JsonlRecorder::new(&mut *buf);
    let (run, recorded) = if tracing {
        let mut timed = TimedRecorder::new(&mut jsonl);
        let run = engine(it, tr, || {
            exec.run_recorded(deployment, trace, Seed(cfg.seed), &mut timed)
        });
        let (n, secs, a) = (timed.events, timed.secs, timed.allocs);
        tr.charge_child("core.engine", "obs.recorder", secs, a);
        (run, n)
    } else {
        let run = engine(it, tr, || {
            exec.run_recorded(
                deployment,
                trace,
                Seed(cfg.seed),
                &mut jsonl as &mut dyn Recorder,
            )
        });
        (run, 0)
    };
    clock.lap(it);
    let run = run.map_err(|e| e.to_string())?;
    let written = tr
        .span("obs.recorder", || jsonl.finish())
        .map_err(|e| format!("trace write failed: {e}"))?;
    let a = tr.span("core.analyzer", || {
        let a = analyze(&run);
        let m = run_metrics(&run);
        (a, m)
    });
    let bound = tr.span("core.oracle", || oracle_bound(&run));
    clock.lap(it);
    let events = tr.span("obs.trace_view.parse", || {
        let text = std::str::from_utf8(buf).map_err(|e| e.to_string())?;
        trace_view::parse_jsonl_strict(text)
    })?;
    clock.lap(it);
    let (spans, rendered) = tr.span("obs.trace_view.render", || {
        let spans = trace_view::spans(&events);
        let phases = trace_view::phase_attribution(&events);
        let faults = trace_view::fault_attribution(&events);
        (spans, phases.len() + faults.len())
    });
    let replayed = tr.span("core.oracle", || trace_oracle(&events));
    let score = tr.span("core.slo", || {
        let report = slo.evaluate(&slo_samples(&run), Some(a.0.cost_dollars()));
        let mut m = a.1;
        slo_metrics(&mut m, &report);
        report
    });
    clock.lap(it);
    clock.check(tr, || {
        let mut digest = Digest::new();
        digest.run(&run);
        it.digest = digest.finish();
        it.requests = run.records.len() as u64;
        it.engine_events = run.engine_events;
        it.retries = run.retries;
        it.recorder = RecorderStats {
            events: written,
            bytes: buf.len() as u64,
        };
        if tracing {
            it.latencies.extend(successes(&run));
            if recorded != written {
                return Err(format!(
                    "wrapper saw {recorded} events, recorder wrote {written}"
                ));
            }
        }
        check_run(&run, trace)?;
        if written != events.len() as u64 {
            return Err(format!(
                "recorder wrote {written} events, parsed {}",
                events.len()
            ));
        }
        if spans.len() != run.records.len() {
            return Err(format!(
                "{} spans for {} requests",
                spans.len(),
                run.records.len()
            ));
        }
        let mut seen = vec![false; run.records.len()];
        for s in &spans {
            match seen.get_mut(s.request as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(format!(
                        "span for request {} is unknown or repeated",
                        s.request
                    ))
                }
            }
        }
        check_outcomes(&a.0)?;
        if replayed.is_none() || rendered == 0 || score.objectives.is_empty() {
            return Err("trace oracle, attribution or SLO score came back empty".into());
        }
        if bound.cold_starts > a.0.cold_started {
            return Err("oracle cold-start floor exceeds observed cold starts".into());
        }
        Ok(())
    })
}

/// Checks a single run against its input trace.
fn check_run(run: &RunResult, trace: &WorkloadTrace) -> Result<(), String> {
    if run.records.len() != trace.len() {
        return Err(format!(
            "{} records for {} arrivals",
            run.records.len(),
            trace.len()
        ));
    }
    if run.records.iter().enumerate().any(|(i, r)| r.index != i) {
        return Err("records out of trace order".into());
    }
    if run.engine_events == 0 {
        return Err("engine delivered no events".into());
    }
    Ok(())
}

/// Checks that every request ended exactly once: ok + failed = requests.
fn check_outcomes(a: &Analysis) -> Result<(), String> {
    let failed = a.failed_queue_full
        + a.failed_timeout
        + a.failed_rejected
        + a.failed_throttled
        + a.failed_crashed
        + a.failed_retries;
    if a.succeeded + failed != a.total {
        return Err(format!(
            "ok {} + failed {failed} != {} requests",
            a.succeeded, a.total
        ));
    }
    Ok(())
}

fn successes(run: &RunResult) -> impl Iterator<Item = f64> + '_ {
    run.records
        .iter()
        .filter_map(|r| r.latency.map(|l| l.as_secs_f64()))
}

/// Turns a caught panic into an error message.
fn flatten<T>(r: std::thread::Result<Result<T, String>>) -> Result<T, String> {
    match r {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .map_or_else(|| "panicked".into(), |s| format!("panicked: {s}"))),
    }
}
