//! Isolated measurement loops ("ladder rows") for the layers that run inside the
//! engine call, where spans from outside cannot separate them. Each row is
//! fed the workload's own inputs and sized from them.

use slsb_core::FleetPlan;
use slsb_model::{ModelKind, RuntimeKind};
use slsb_obs::LogLinearHistogram;
use slsb_platform::api::test_harness::PlatformHarness;
use slsb_platform::{
    CloudProvider, FaultPlan, ManagedMlConfig, RequestId, ServerlessConfig, ServingRequest,
    VmServerConfig,
};
use slsb_sim::{EventQueue, Seed, SimDuration, SimTime};
use slsb_workload::{InputKind, RequestPool};
use std::hint::black_box;
use std::time::Instant;

/// Most arrivals one platform row replays. A fleet sends ~1.7M requests to
/// a thousand platforms; one platform fed all of them would measure a
/// backlog the workload never builds.
pub const MAX_PLATFORM_ARRIVALS: usize = 200_000;
/// Most operations a kernel or RNG row performs.
pub const MAX_OPS: u64 = 4_000_000;

/// One measured row: host seconds and the operations they covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct Row {
    pub secs: f64,
    pub ops: u64,
}

impl Row {
    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops.max(1) as f64
    }
}

fn timed(f: impl FnOnce() -> u64) -> Row {
    let t0 = Instant::now();
    let ops = f();
    Row {
        secs: t0.elapsed().as_secs_f64(),
        ops,
    }
}

/// Drains the fleet's merged arrival stream: the k-way merge over every
/// app's on/off process, as the fleet engine pulls it.
pub fn fleet_arrivals(plan: &FleetPlan, seed: Seed) -> (Row, Vec<SimTime>) {
    let mut keep = Vec::with_capacity(MAX_PLATFORM_ARRIVALS);
    let row = timed(|| {
        let mut n = 0u64;
        for (at, app) in plan.spec.arrival_stream(seed) {
            if keep.len() < MAX_PLATFORM_ARRIVALS {
                keep.push(at);
            }
            black_box(app);
            n += 1;
        }
        n
    });
    (row, keep)
}

/// A steady-state event queue: `depth` pending events, each pop schedules
/// a replacement a workload-like delay ahead.
pub fn kernel(depth: usize, ops: u64, seed: Seed) -> Row {
    let mut rng = seed.substream("ladder-kernel").rng();
    // Delays average one simulated second, so `depth` pending events match
    // a workload delivering `depth` events per simulated second.
    let delays: Vec<SimDuration> = (0..4096)
        .map(|_| rng.exp_mean(SimDuration::from_secs(1)))
        .collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        q.schedule_after(delays[i % delays.len()], i as u64);
    }
    timed(|| {
        for i in 0..ops {
            let (_, ev) = q.pop().expect("queue stays full");
            black_box(ev);
            q.schedule_after(delays[(i as usize) % delays.len()], i);
        }
        ops
    })
}

/// The samplers the platform models draw from, in rotation.
pub fn rng(draws: u64, seed: Seed) -> Row {
    let mut rng = seed.substream("ladder-rng").rng();
    let median = SimDuration::from_millis(80);
    let sd = SimDuration::from_millis(20);
    timed(|| {
        let mut acc = 0u64;
        for _ in 0..draws / 4 {
            acc = acc.wrapping_add(rng.exp_interval(120.0).as_micros());
            acc = acc.wrapping_add(rng.lognormal(median, 0.4).as_micros());
            acc = acc.wrapping_add(rng.normal_clamped(median, sd).as_micros());
            acc = acc.wrapping_add(rng.uniform().to_bits());
        }
        black_box(acc);
        draws / 4 * 4
    })
}

/// Platform families a row can drive.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    Serverless,
    ManagedMl,
    Vm,
}

/// What a platform row deploys: AWS, the workload's model, runtime and
/// memory, and its fault plan.
pub struct PlatformSpec<'a> {
    pub model: ModelKind,
    pub runtime: RuntimeKind,
    pub memory_mb: Option<f64>,
    pub faults: &'a FaultPlan,
}

/// Replays each arrival trace through a fresh platform of `family` behind
/// `PlatformHarness`.
pub fn platform(family: Family, spec: &PlatformSpec, traces: &[&[SimTime]], seed: Seed) -> Row {
    let provider = CloudProvider::Aws;
    let (m, r) = (spec.model.profile(), spec.runtime.profile());
    let image = m.image_input;
    let pool = RequestPool::generate(
        if image {
            InputKind::Image
        } else {
            InputKind::Text
        },
        RequestPool::DEFAULT_SIZE,
    );
    let mut total = Row::default();
    for (t, arrivals) in traces.iter().enumerate() {
        let seed = seed.substream_indexed("ladder-platform", t as u64);
        let mut rng = seed.rng();
        let reqs: Vec<(f64, ServingRequest)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                let p = pool.pick(&mut rng);
                let req = ServingRequest {
                    id: RequestId(i as u64),
                    arrival: at,
                    payload_bytes: p.size_bytes,
                    inferences: 1,
                };
                (at.as_secs_f64(), req)
            })
            .collect();
        let mut h = match family {
            Family::Serverless => {
                let mut cfg = ServerlessConfig::new(provider, m.clone(), r.clone());
                if let Some(mb) = spec.memory_mb {
                    cfg.memory_mb = mb;
                }
                PlatformHarness::serverless(cfg, seed)
            }
            Family::ManagedMl => PlatformHarness::managedml(
                ManagedMlConfig::new(provider, m.clone(), r.clone()),
                seed,
            ),
            Family::Vm => {
                PlatformHarness::vm(VmServerConfig::cpu(provider, m.clone(), r.clone()), seed)
            }
        };
        if !spec.faults.is_empty() {
            h.set_faults(spec.faults, seed.substream("faults"));
        }
        let row = timed(|| {
            for (at, req) in reqs {
                h.submit_at(at, req);
            }
            black_box(h.run().len());
            arrivals.len() as u64
        });
        total.secs += row.secs;
        total.ops += row.ops;
    }
    total
}

/// Records each latency into a fresh histogram, as the analyzers do.
pub fn histogram(latencies: &[f64]) -> Row {
    timed(|| {
        let mut h = LogLinearHistogram::default();
        for &v in latencies {
            h.record(v);
        }
        black_box(h.count())
    })
}

/// Latency samples standing in for a fleet's requests, which the fleet
/// engine folds into a histogram without keeping them: `n` values spread
/// over the fleet histogram's quantiles.
pub fn fleet_latencies(h: &LogLinearHistogram, n: u64) -> Vec<f64> {
    const POINTS: usize = 1000;
    let qs: Vec<f64> = (0..POINTS)
        .filter_map(|i| h.quantile((i as f64 + 0.5) / POINTS as f64))
        .collect();
    if qs.is_empty() {
        return Vec::new();
    }
    (0..n as usize).map(|i| qs[i % qs.len()]).collect()
}
