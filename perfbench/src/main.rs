//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_matrix|fleet_zipf|traced_faults> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. One run sets up and measures one
//! workload for `--seconds`, checks every simulated result, and prints as
//! its last line a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `perfbench/README.md` describes the metrics.

mod digest;
mod ladder;
mod probe;
mod tracer;
mod workloads;

use ladder::{Family, PlatformSpec, Row};
use slsb_core::{FleetPartition, FLEET_CELLS};
use slsb_model::{ModelKind, RuntimeKind};
use slsb_platform::FaultPlan;
use slsb_sim::{Seed, SimTime};
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;
use workloads::{setup, Config, Iteration, Kind, Laps, Prepared};

#[global_allocator]
static ALLOC: probe::CountingAllocator = probe::CountingAllocator;

/// Set-up runs this many times before the first iteration and once more
/// after each measured iteration, so that its repeats span the run as the
/// iterations do; `setup_s` is the fastest repeat.
const SETUP_MIN: usize = 3;
/// Fewest measured iterations per phase, however short `--seconds` is.
const MIN_ITERS: usize = 3;
/// CPUs the measured iterations take turns on (see [`probe::Rotation`]).
const ROTATE_CPUS: usize = 2;
/// Worker threads of the measured fleet iterations. On a two-vCPU shared
/// host two workers left the fleet's resident-set peak at 36-58 MiB from
/// run to run, as thread timing decides which allocations overlap; one
/// worker runs the same cells in a fixed order. The parallel path still
/// runs in the worker-parity check.
const FLEET_WORKERS: usize = 1;
/// Largest share of the traced wall time that spans and ladder rows may
/// leave unattributed.
const ATTRIBUTION_TOLERANCE: f64 = 0.02;

/// Digests of each workload's results at its default seed and full size.
#[derive(serde::Deserialize)]
struct Pins {
    paper_matrix: String,
    fleet_zipf: String,
    traced_faults: String,
}

fn pinned_digest(kind: Kind) -> u64 {
    let pins: Pins = serde_json::from_str(include_str!("../pins.json")).expect("pins.json parses");
    let hex = match kind {
        Kind::PaperMatrix => pins.paper_matrix,
        Kind::FleetZipf => pins.fleet_zipf,
        Kind::TracedFaults => pins.traced_faults,
    };
    u64::from_str_radix(&hex, 16).expect("pins.json holds hex digests")
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed: seed.unwrap_or(kind.default_seed()),
        seconds,
        trace,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metrics(rows: &[(&'static str, &'static str, f64)]) -> Vec<Metric> {
    rows.iter()
        .map(|&(name, unit, value)| Metric { name, unit, value })
        .collect()
}

/// The result of one benchmark run.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Printed with the metrics but left out of the JSON line.
    printed: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Checks every iteration's results and counts runs and failures.
struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    reference: Option<u64>,
}

impl Ledger {
    fn fail(&mut self, runs: u64, why: String) {
        self.failed += runs;
        self.failures.push(why);
    }

    /// Counts `it`'s runs and checks its digest against the reference
    /// (the pinned digest, or the first iteration's).
    fn check(&mut self, it: &Iteration, what: &str) {
        self.attempted += it.runs;
        if !it.failures.is_empty() {
            self.failed += it.failures.len() as u64;
            self.failures
                .extend(it.failures.iter().map(|f| format!("{what}: {f}")));
            return;
        }
        match self.reference {
            None => self.reference = Some(it.digest),
            Some(r) if r != it.digest => self.fail(
                it.runs,
                format!(
                    "{what}: digest {} differs from {}",
                    digest::hex(it.digest),
                    digest::hex(r)
                ),
            ),
            Some(_) => {}
        }
    }
}

/// The statistic every time metric reports: the fastest repeat.
///
/// On a shared host the same iteration runs up to 1.5x slower while other
/// tenants load the machine, in phases of seconds to minutes, so a run's
/// median follows the phases it happened to meet. The program's work is
/// deterministic; the fastest repeat is the least disturbed measurement
/// of it.
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Most heap MiB live at once inside the engine calls of `its`.
fn peak_heap(its: &[Iteration]) -> f64 {
    its.iter().map(|i| i.engine_peak_mib).fold(0.0, f64::max)
}

/// Each lap's fastest repeat over a run's iterations (see [`Laps`]). An
/// iteration's time is reported as the sum of its laps' fastest repeats:
/// a lap of a few milliseconds finds an undisturbed moment more often than
/// a whole iteration does.
#[derive(Default)]
struct FastestLaps {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    engine: Vec<f64>,
}

impl FastestLaps {
    fn add(&mut self, laps: Laps) {
        fn fold(fastest: &mut Vec<f64>, laps: Vec<f64>) {
            if fastest.is_empty() {
                *fastest = laps;
            } else {
                for (f, l) in fastest.iter_mut().zip(laps) {
                    *f = f.min(l);
                }
            }
        }
        fold(&mut self.wall, laps.wall);
        fold(&mut self.cpu, laps.cpu);
        fold(&mut self.engine, laps.engine);
    }
}

/// Runs `f` until `budget` seconds have passed and it ran at least `min`
/// times, and returns its results.
fn repeat<T>(budget: f64, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < budget {
        out.push(f());
    }
    out
}

/// Measured iterations, each checked and followed by `between`, and their
/// laps' fastest repeats.
fn iterations(
    cfg: &Config,
    prep: &Prepared,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    budget: f64,
    what: &str,
    mut between: impl FnMut(),
) -> (Vec<Iteration>, FastestLaps) {
    let keep_latencies = tr.enabled();
    let mut kept = false;
    let mut laps = FastestLaps::default();
    let rotation = probe::Rotation::new(ROTATE_CPUS);
    let mut turn = 0;
    let its = repeat(budget, MIN_ITERS, || {
        rotation.turn(turn);
        turn += 1;
        let mut it = workloads::iterate(cfg, prep, tr);
        ledger.check(&it, what);
        laps.add(std::mem::take(&mut it.laps));
        // Ladder rows need the latencies of one iteration only.
        if !keep_latencies || std::mem::replace(&mut kept, true) {
            it.latencies = Vec::new();
            it.fleet_latency = None;
        }
        between();
        it
    });
    (its, laps)
}

/// One timed set-up.
fn timed_setup(cfg: &Config, chosen: &[Seed]) -> Result<(f64, Prepared), String> {
    let t0 = Instant::now();
    let prep = setup(cfg, chosen, &mut Tracer::new(false))?;
    Ok((t0.elapsed().as_secs_f64(), prep))
}

fn run(cfg: &Config, seconds: f64, trace: bool, pin: Option<u64>) -> Result<Outcome, String> {
    let chosen = workloads::choose(cfg)?;
    let mut setup_s = f64::INFINITY;
    let mut prep = None;
    for _ in 0..SETUP_MIN {
        drop(prep.take());
        let (secs, p) = timed_setup(cfg, &chosen)?;
        setup_s = setup_s.min(secs);
        prep = Some(p);
    }
    let prep = prep.expect("set-up ran");
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        reference: pin,
    };
    let mut off = Tracer::new(false);
    // The first iteration warms caches and is checked against the pinned
    // digest at the default seed.
    let warm = workloads::iterate(cfg, &prep, &mut off);
    ledger.check(&warm, "first iteration");
    println!("# simulated requests per iteration: {}", warm.requests);
    drop(warm);

    let budget = if trace { seconds / 2.0 } else { seconds };
    let resetup = || {
        if let Ok((secs, again)) = timed_setup(cfg, &chosen) {
            setup_s = setup_s.min(secs);
            drop(again);
        }
    };
    let (its, laps) = iterations(
        cfg,
        &prep,
        &mut off,
        &mut ledger,
        budget,
        "iteration",
        resetup,
    );
    let wall: Vec<f64> = its.iter().map(|i| i.wall_s).collect();
    println!(
        "# wall_s over {} iterations: fastest {:.4} median {:.4} slowest {:.4}",
        wall.len(),
        fastest(&wall),
        median(&wall),
        wall.iter().copied().fold(0.0, f64::max)
    );
    if !trace {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        let metrics = metrics(&[
            ("wall_s", "s", sum(&laps.wall)),
            ("cpu_s", "s", sum(&laps.cpu)),
            (
                "sim_requests_per_s",
                "req/s",
                its[0].requests as f64 / sum(&laps.engine),
            ),
            ("setup_s", "s", setup_s),
        ]);
        // The heap peak of a 90-second fleet depends on how the seed's
        // bursts line up (6.3-10.5 MiB over seeds 1-12), too much for a
        // bound, so it is printed here and bounded nowhere; the traced run
        // reports it as `sim.alloc.peak_heap_mb`.
        let printed = vec![Metric {
            name: "peak_heap_mb",
            unit: "MiB",
            value: peak_heap(&its),
        }];
        worker_parity(cfg, &prep, &mut ledger);
        return Ok(Outcome {
            attempted: ledger.attempted,
            failed: ledger.failed,
            failures: ledger.failures,
            metrics,
            printed,
        });
    }
    drop(its);
    worker_parity(cfg, &prep, &mut ledger);
    traced_phase(cfg, &chosen, seconds / 2.0, fastest(&wall), ledger)
}

/// Checks that a fleet's digest does not depend on its worker count: one
/// iteration on every CPU must match the single-worker iterations. It runs
/// after the measured iterations, which alone make up `peak_heap_mb`.
fn worker_parity(cfg: &Config, prep: &Prepared, ledger: &mut Ledger) {
    let workers = probe::nproc();
    if cfg.kind == Kind::FleetZipf && workers != cfg.workers {
        let all = Config { workers, ..*cfg };
        let it = workloads::iterate(&all, prep, &mut Tracer::new(false));
        ledger.check(&it, "fleet on every CPU");
    }
}

/// The traced run: set-up and iterations with spans, then the ladder rows.
fn traced_phase(
    cfg: &Config,
    chosen: &[Seed],
    budget: f64,
    untraced_wall: f64,
    mut ledger: Ledger,
) -> Result<Outcome, String> {
    let phase = Instant::now();
    let mut tr = Tracer::new(true);
    let prep = setup(cfg, chosen, &mut tr)?;
    let (its, _) = iterations(
        cfg,
        &prep,
        &mut tr,
        &mut ledger,
        budget,
        "traced iteration",
        || {},
    );
    let ladder_t0 = Instant::now();
    let rows = ladder_rows(cfg, &prep, &its);
    let ladder_s = ladder_t0.elapsed().as_secs_f64();
    // The benchmark's own result checks belong to no layer: they count
    // neither as covered nor as time to cover.
    let check_s = tr.layer("bench.check").self_s;
    let phase_wall = phase.elapsed().as_secs_f64() - check_s;
    let attributed = (tr.covered_s() - check_s + ladder_s) / phase_wall;
    println!(
        "# result checks: {:.4} of the traced wall time, outside the attributed share",
        check_s / (phase_wall + check_s)
    );
    ledger.attempted += 1;
    if attributed < 1.0 - ATTRIBUTION_TOLERANCE {
        ledger.fail(
            1,
            format!(
                "spans and ladder rows cover {:.2}% of the traced wall time, \
                 below the {:.0}% tolerance",
                attributed * 100.0,
                (1.0 - ATTRIBUTION_TOLERANCE) * 100.0
            ),
        );
    }

    let n = its.len() as f64;
    let sum = |f: fn(&Iteration) -> f64| its.iter().map(f).sum::<f64>();
    let requests = sum(|i| i.requests as f64);
    let events = sum(|i| i.engine_events as f64);
    let traced_wall = sum(|i| i.wall_s);
    let traced_wall_fastest = fastest(&its.iter().map(|i| i.wall_s).collect::<Vec<_>>());
    let rec_events = sum(|i| i.recorder.events as f64);
    let engine = tr.layer("core.engine");
    let recorder = tr.layer("obs.recorder");
    let frac = |layer: &str| tr.layer(layer).self_s / traced_wall;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let imbalance = match &prep {
        Prepared::Fleet { plan, .. } => {
            let b = FleetPartition::compute(plan, FLEET_CELLS.min(plan.spec.apps.len())).balance();
            b.max_cell / b.mean_cell
        }
        _ => 1.0,
    };
    // Fleets generate their arrivals inside the engine call; the ladder's
    // drain of the merged stream measures that.
    let (generate_s, ns_per_arrival) = match rows.arrivals {
        Some(r) => (r.secs, r.ns_per_op()),
        None => {
            let s = tr.layer("workload.generate").self_s;
            (s, s * 1e9 / prep.generated() as f64)
        }
    };

    let metrics = metrics(&[
        ("workload.generate_s", "s", generate_s),
        ("workload.ns_per_arrival", "ns", ns_per_arrival),
        (
            "core.plan.resolve_s",
            "s",
            tr.layer("core.plan.resolve").self_s,
        ),
        ("core.engine.run_s", "s", engine.self_s / n),
        (
            "core.engine.ns_per_event",
            "ns",
            engine.self_s * 1e9 / events,
        ),
        ("core.engine.events_per_request", "count", events / requests),
        (
            "core.engine.busy_frac",
            "ratio",
            sum(|i| i.engine_cpu_s) / (sum(|i| i.engine_wall_s) * cfg.workers as f64),
        ),
        (
            "core.executor.retries_per_request",
            "count",
            sum(|i| i.retries as f64) / requests,
        ),
        ("core.fleet.cell_imbalance", "ratio", imbalance),
        (
            "sim.alloc.allocs_per_request",
            "count",
            engine.self_allocs as f64 / requests,
        ),
        ("sim.alloc.peak_heap_mb", "MiB", peak_heap(&its)),
        ("core.analyzer.s", "s", tr.layer("core.analyzer").self_s / n),
        ("core.oracle.frac", "ratio", frac("core.oracle")),
        ("core.slo.frac", "ratio", frac("core.slo")),
        ("sim.event.ns_per_event", "ns", rows.kernel.ns_per_op()),
        ("sim.rng.ns_per_draw", "ns", rows.rng.ns_per_op()),
        (
            "platform.serverless.ns_per_request",
            "ns",
            rows.serverless.ns_per_op(),
        ),
        (
            "platform.managedml.ns_per_request",
            "ns",
            rows.managedml.ns_per_op(),
        ),
        ("platform.vm.ns_per_request", "ns", rows.vm.ns_per_op()),
        (
            "obs.metrics.ns_per_record",
            "ns",
            rows.histogram.ns_per_op(),
        ),
        ("obs.recorder.frac", "ratio", frac("obs.recorder")),
        (
            "obs.recorder.events_per_request",
            "count",
            rec_events / requests,
        ),
        (
            "obs.recorder.bytes_per_event",
            "bytes",
            per(sum(|i| i.recorder.bytes as f64), rec_events),
        ),
        (
            "obs.recorder.allocs_per_event",
            "count",
            per(recorder.self_allocs as f64, rec_events),
        ),
        (
            "obs.trace_view.parse_frac",
            "ratio",
            frac("obs.trace_view.parse"),
        ),
        (
            "obs.trace_view.render_frac",
            "ratio",
            frac("obs.trace_view.render"),
        ),
        ("trace.attributed_frac", "ratio", attributed),
        (
            "trace.overhead_frac",
            "ratio",
            traced_wall_fastest / untraced_wall - 1.0,
        ),
    ]);
    Ok(Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        metrics,
        printed: Vec::new(),
    })
}

struct LadderRows {
    /// Fleet arrival-stream drain (fleets generate arrivals in the run).
    arrivals: Option<Row>,
    kernel: Row,
    rng: Row,
    serverless: Row,
    managedml: Row,
    vm: Row,
    histogram: Row,
}

fn ladder_rows(cfg: &Config, prep: &Prepared, its: &[Iteration]) -> LadderRows {
    let seed = Seed(cfg.seed);
    let last = its
        .iter()
        .find(|i| !i.latencies.is_empty() || i.fleet_latency.is_some())
        .or(its.last())
        .expect("at least one traced iteration");
    let none = FaultPlan::none();
    let (arrivals, kept, spec) = match prep {
        Prepared::Matrix { .. } => (
            None,
            Vec::new(),
            PlatformSpec {
                model: ModelKind::MobileNet,
                runtime: RuntimeKind::Tf115,
                memory_mb: None,
                faults: &none,
            },
        ),
        Prepared::Fleet { plan, seed, .. } => {
            let (row, kept) = ladder::fleet_arrivals(plan, *seed);
            let head = plan.deployments[0];
            (
                Some(row),
                kept,
                PlatformSpec {
                    model: head.model,
                    runtime: head.runtime,
                    memory_mb: Some(head.memory_mb),
                    faults: &none,
                },
            )
        }
        Prepared::Traced {
            deployment, faults, ..
        } => (
            None,
            Vec::new(),
            PlatformSpec {
                model: deployment.model,
                runtime: deployment.runtime,
                memory_mb: Some(deployment.memory_mb),
                faults,
            },
        ),
    };
    let traces: Vec<&[SimTime]> = if kept.is_empty() {
        prep.traces().iter().map(|t| t.arrivals()).collect()
    } else {
        vec![&kept]
    };
    // ManagedML and the VMs serve TF1.15 only, as in the paper's matrix.
    let tf = PlatformSpec {
        runtime: RuntimeKind::Tf115,
        memory_mb: None,
        ..spec
    };
    let events = last.engine_events;
    let depth = ((events as f64 / prep.sim_seconds()).round() as usize).max(16);
    let ops = events.min(ladder::MAX_OPS);
    let latencies = match &last.fleet_latency {
        Some(h) => ladder::fleet_latencies(h, last.requests),
        None => last.latencies.clone(),
    };
    LadderRows {
        arrivals,
        kernel: ladder::kernel(depth, ops, seed),
        rng: ladder::rng(ops, seed),
        serverless: ladder::platform(Family::Serverless, &spec, &traces, seed),
        managedml: ladder::platform(Family::ManagedMl, &tf, &traces, seed),
        vm: ladder::platform(Family::Vm, &tf, &traces, seed),
        histogram: ladder::histogram(&latencies),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        kind: args.kind,
        seed: args.seed,
        scale: args.kind.scale(),
        workers: FLEET_WORKERS,
    };
    let pin = (args.seed == args.kind.default_seed()).then(|| pinned_digest(args.kind));
    for (k, v) in probe::fingerprint() {
        println!("# {k}: {v}");
    }
    println!(
        "# workload: {} seed: {} (default {}) seconds: {} trace: {} workers: {}",
        args.kind.name(),
        args.seed,
        args.kind.default_seed(),
        args.seconds,
        u8::from(args.trace),
        cfg.workers
    );
    let out = match run(&cfg, args.seconds, args.trace, pin) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for m in out.metrics.iter().chain(&out.printed) {
        println!("{:<40} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    println!(
        "{:<40} {:>18} ratio",
        "failed_frac",
        json_num(out.failed as f64 / out.attempted.max(1) as f64)
    );
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkJson {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    fn smoke(kind: Kind) -> Config {
        Config {
            kind,
            seed: kind.default_seed(),
            scale: 0.02,
            workers: FLEET_WORKERS,
        }
    }

    fn assert_prints(out: &Outcome, declared: &[Declared]) {
        let printed: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let wanted: Vec<(&str, &str)> = declared
            .iter()
            .map(|d| (d.name.as_str(), d.unit.as_str()))
            .collect();
        assert_eq!(printed, wanted);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn smoke_runs_print_every_declared_metric_with_its_unit() {
        let bench: BenchmarkJson =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for kind in Kind::ALL {
            for trace in [false, true] {
                let out = run(&smoke(kind), 0.05, trace, None).expect("smoke run");
                assert!(out.correct(), "{}: {:?}", kind.name(), out.failures);
                assert!(out.attempted > 0);
                let declared = if trace {
                    &bench.per_layer
                } else {
                    &bench.end_to_end
                };
                assert_prints(&out, declared);
                let json = out.to_json();
                assert!(
                    json.starts_with("{\"correct\": true, \"attempted\": "),
                    "{json}"
                );
            }
        }
    }

    #[test]
    fn a_doctored_digest_raises_failed_frac() {
        let cfg = smoke(Kind::TracedFaults);
        let honest = run(&cfg, 0.01, false, None).expect("run");
        assert_eq!(honest.failed, 0);
        let doctored = run(&cfg, 0.01, false, Some(0x0123_4567_89ab_cdef)).expect("run");
        assert!(doctored.failed > 0);
        assert_eq!(doctored.failed, doctored.attempted);
        assert!(!doctored.correct());
    }

    #[test]
    fn the_default_seed_runs_its_own_realization() {
        let plain = |kind: Kind| -> Vec<Seed> {
            let seed = Seed(kind.default_seed());
            match kind {
                Kind::PaperMatrix => vec![seed.substream("workload"); 3],
                Kind::FleetZipf => vec![seed],
                Kind::TracedFaults => vec![seed.substream("scenario-workload")],
            }
        };
        for kind in Kind::ALL {
            let chosen = workloads::choose(&smoke(kind)).expect("choose");
            assert_eq!(chosen, plain(kind), "{}", kind.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = args(&["--workload", "fleet_zipf", "--trace", "1"]).expect("valid");
        assert_eq!((a.kind, a.seed, a.trace), (Kind::FleetZipf, 41, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "paper_matrix", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "paper_matrix", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "3"]).is_err());
    }
}
