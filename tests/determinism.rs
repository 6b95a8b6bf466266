//! Reproducibility contract: for a fixed seed and configuration, the whole
//! pipeline — workload generation, execution, analysis, rendering — is
//! bit-for-bit identical across runs; different seeds differ.

use slsbench::core::{
    analyze, explore_jobs, fleet_metrics, replicate_jobs, Deployment, Executor, ExecutorConfig,
    ExplorerGrid, FleetRunner, FleetScenario, Jobs, RetryPolicy, WorkloadSpec,
};
use slsbench::model::{ModelKind, RuntimeKind};
use slsbench::obs::{trace_view, JsonlRecorder, MemoryRecorder, SpanOutcome};
use slsbench::platform::{FaultPlan, PlatformKind};
use slsbench::sim::{Kernel, Seed, SimDuration};
use slsbench::workload::{MmppPreset, MmppSpec, WorkloadTrace};

fn trace(seed: Seed) -> WorkloadTrace {
    MmppSpec {
        name: "det",
        rate_high: 60.0,
        rate_low: 15.0,
        mean_high_dwell: SimDuration::from_secs(30),
        mean_low_dwell: SimDuration::from_secs(60),
        duration: SimDuration::from_secs(240),
    }
    .generate(seed)
}

fn digest(platform: PlatformKind, seed: Seed) -> String {
    let tr = trace(seed);
    let run = Executor::default()
        .run(
            &Deployment::new(platform, ModelKind::Albert, RuntimeKind::Tf115),
            &tr,
            seed,
        )
        .unwrap();
    let a = analyze(&run);
    serde_json_digest(&a)
}

fn serde_json_digest(a: &slsbench::core::Analysis) -> String {
    // Analysis is Serialize; the JSON string is a convenient full-state
    // fingerprint.
    serde_json::to_string(a).expect("serializable analysis")
}

#[test]
fn identical_seeds_identical_everything() {
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::GcpServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::AwsGpu,
    ] {
        let a = digest(platform, Seed(77));
        let b = digest(platform, Seed(77));
        assert_eq!(a, b, "{platform:?} must be deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let a = digest(PlatformKind::AwsServerless, Seed(1));
    let b = digest(PlatformKind::AwsServerless, Seed(2));
    assert_ne!(a, b);
}

#[test]
fn workload_generation_is_stable() {
    // The trace itself is deterministic and CSV round-trips exactly.
    let a = trace(Seed(5));
    let b = trace(Seed(5));
    assert_eq!(a, b);
    let parsed = WorkloadTrace::from_csv(&a.to_csv()).unwrap();
    assert_eq!(parsed.arrivals(), a.arrivals());
}

#[test]
fn component_substreams_are_isolated() {
    // Changing only the *model* must not change the generated workload
    // (workload randomness is a separate substream of the same seed).
    let seed = Seed(11);
    let tr = trace(seed);
    let exec = Executor::default();
    let r1 = exec
        .run(
            &Deployment::new(
                PlatformKind::AwsCpu,
                ModelKind::MobileNet,
                RuntimeKind::Tf115,
            ),
            &tr,
            seed,
        )
        .unwrap();
    let r2 = exec
        .run(
            &Deployment::new(PlatformKind::AwsCpu, ModelKind::Vgg, RuntimeKind::Tf115),
            &tr,
            seed,
        )
        .unwrap();
    // Same arrivals, same client payload assignment; only service differs.
    let arr1: Vec<_> = r1
        .records
        .iter()
        .map(|r| (r.arrival, r.payload_bytes))
        .collect();
    let arr2: Vec<_> = r2
        .records
        .iter()
        .map(|r| (r.arrival, r.payload_bytes))
        .collect();
    assert_eq!(arr1, arr2);
}

#[test]
fn replication_is_identical_across_worker_counts() {
    // The parallel harness contract: fanning replicas across threads must
    // not change a single byte of the result. Serialized JSON is the
    // strictest equality we can check — field order, float formatting and
    // all.
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Ort14,
    );
    let workload = WorkloadSpec::Preset {
        which: MmppPreset::W40,
        scale: 0.05,
    };
    let exec = Executor::default();
    let seq = replicate_jobs(&exec, &dep, workload, 400, 6, Jobs::new(1)).unwrap();
    let par = replicate_jobs(&exec, &dep, workload, 400, 6, Jobs::new(8)).unwrap();
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "replicate --jobs 8 must be byte-identical to --jobs 1"
    );
}

#[test]
fn recording_is_write_only() {
    // Attaching a recorder must not perturb the run: the analysis of a
    // recorded run is byte-identical to the unrecorded one.
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
    ] {
        let seed = Seed(77);
        let tr = trace(seed);
        let dep = Deployment::new(platform, ModelKind::Albert, RuntimeKind::Tf115);
        let exec = Executor::default();
        let plain = exec.run(&dep, &tr, seed).unwrap();
        let mut rec = MemoryRecorder::new();
        let recorded = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
        assert_eq!(
            serde_json_digest(&analyze(&plain)),
            serde_json_digest(&analyze(&recorded)),
            "{platform:?}: recording must not change results"
        );
        assert!(
            !rec.events().is_empty(),
            "{platform:?}: the recorder must have seen events"
        );
    }
}

#[test]
fn recorded_traces_are_byte_identical() {
    // Two recorded runs of the same seed produce the same JSONL bytes.
    let seed = Seed(42);
    let tr = trace(seed);
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Ort14,
    );
    let exec = Executor::default();
    let dump = |s: Seed| -> Vec<u8> {
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        exec.run_recorded(&dep, &tr, s, &mut rec).unwrap();
        rec.finish().unwrap();
        buf
    };
    let a = dump(seed);
    let b = dump(seed);
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace output must be deterministic");
}

#[test]
fn timer_wheel_and_heap_kernels_are_byte_identical() {
    // The timer-wheel kernel is a pure scheduling optimization: swapping
    // it for the reference binary heap must not move a single byte of the
    // recorded trace or the analysis, on any platform family.
    let seed = Seed(42);
    let tr = trace(seed);
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::GcpGpu,
    ] {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let dump = |kernel: Kernel| -> (Vec<u8>, String) {
            let exec = Executor::default().with_kernel(kernel);
            let mut buf = Vec::new();
            let mut rec = JsonlRecorder::new(&mut buf);
            let run = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
            rec.finish().unwrap();
            (buf, serde_json_digest(&analyze(&run)))
        };
        let (wheel_trace, wheel_analysis) = dump(Kernel::Wheel);
        let (heap_trace, heap_analysis) = dump(Kernel::Heap);
        assert!(!wheel_trace.is_empty());
        assert_eq!(
            wheel_trace, heap_trace,
            "{platform:?}: kernels must record identical traces"
        );
        assert_eq!(
            wheel_analysis, heap_analysis,
            "{platform:?}: kernels must analyze identically"
        );
    }
}

#[test]
fn empty_fault_plan_and_disabled_retry_are_a_byte_identical_noop() {
    // The fault/retry layer's backward-compatibility pin: an executor that
    // explicitly installs an empty `FaultPlan` and the disabled
    // `RetryPolicy` must not move a single byte of either the recorded
    // JSONL trace or the analysis, relative to a plain `Executor::default()`.
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
    ] {
        let seed = Seed(77);
        let tr = trace(seed);
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let dump = |exec: &Executor| -> (String, Vec<u8>) {
            let mut buf = Vec::new();
            let mut rec = JsonlRecorder::new(&mut buf);
            let run = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
            rec.finish().unwrap();
            (serde_json_digest(&analyze(&run)), buf)
        };
        let baseline = dump(&Executor::default());
        let noop_cfg = ExecutorConfig {
            retry: RetryPolicy::disabled(),
            ..ExecutorConfig::default()
        };
        let noop = dump(&Executor::new(noop_cfg).with_faults(FaultPlan::none()));
        assert_eq!(
            baseline.0, noop.0,
            "{platform:?}: analysis must be byte-identical"
        );
        assert_eq!(
            baseline.1, noop.1,
            "{platform:?}: recorded trace must be byte-identical"
        );
    }
}

#[test]
fn faulted_replication_is_identical_across_worker_counts() {
    // The --jobs contract extends to fault injection and retries: the
    // merged replication summary must be byte-identical for any worker
    // count when a fault plan and retry policy are active.
    let dep = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Ort14,
    );
    let workload = WorkloadSpec::Preset {
        which: MmppPreset::W40,
        scale: 0.05,
    };
    let mut plan = FaultPlan::none();
    plan.crash_mid_exec = 0.1;
    plan.packet_loss = 0.1;
    let cfg = ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    };
    let exec = Executor::new(cfg).with_faults(plan);
    let seq = replicate_jobs(&exec, &dep, workload, 400, 6, Jobs::new(1)).unwrap();
    let par = replicate_jobs(&exec, &dep, workload, 400, 6, Jobs::new(8)).unwrap();
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "faulted replicate --jobs 8 must be byte-identical to --jobs 1"
    );
}

#[test]
fn span_phases_sum_to_latency() {
    // The acceptance contract for request spans: for every successful
    // request, batch + net_in + queued + exec + net_out equals the
    // end-to-end latency the executor recorded, exactly (integer µs).
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
    ] {
        let seed = Seed(9);
        let tr = trace(seed);
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let mut rec = MemoryRecorder::new();
        let run = Executor::default()
            .run_recorded(&dep, &tr, seed, &mut rec)
            .unwrap();
        let spans = trace_view::spans(rec.events());
        assert_eq!(
            spans.len(),
            run.records.len(),
            "{platform:?}: one span per request"
        );
        let mut successes = 0u64;
        for span in &spans {
            let record = &run.records[span.request as usize];
            assert_eq!(record.index as u64, span.request);
            if span.outcome == SpanOutcome::Success {
                let latency = record.latency.expect("success implies latency");
                assert_eq!(
                    span.total(),
                    latency,
                    "{platform:?} request {}: phase sum must equal latency",
                    span.request
                );
                successes += 1;
            }
        }
        assert!(successes > 0, "{platform:?}: expected successful requests");
    }
}

#[test]
fn sharded_runs_are_identical_for_any_worker_budget() {
    // The intra-run sharding contract: the merged result of a sharded run
    // is byte-identical for every shard worker budget — across platform
    // families, with fault injection and retries active, trace recording
    // on. `shards(1)` is the sequential reference; higher budgets differ
    // only in how many threads replay cells.
    let seed = Seed(314);
    let tr = trace(seed);
    let mut plan = FaultPlan::none();
    plan.crash_mid_exec = 0.05;
    plan.packet_loss = 0.05;
    let retry_cfg = ExecutorConfig {
        retry: RetryPolicy::standard(),
        ..ExecutorConfig::default()
    };
    for platform in [
        PlatformKind::AwsServerless,
        PlatformKind::AwsManagedMl,
        PlatformKind::AwsCpu,
        PlatformKind::GcpGpu,
    ] {
        let dep = Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115);
        let variants = [
            ("plain", Executor::default()),
            ("faulted", Executor::default().with_faults(plan.clone())),
            ("retrying", Executor::new(retry_cfg).with_faults(plan.clone())),
        ];
        for (label, base) in variants {
            let dump = |workers: usize| -> (String, Vec<u8>) {
                let exec = base.clone().with_shards(workers);
                let mut buf = Vec::new();
                let mut rec = JsonlRecorder::new(&mut buf);
                let run = exec.run_recorded(&dep, &tr, seed, &mut rec).unwrap();
                rec.finish().unwrap();
                (serde_json_digest(&analyze(&run)), buf)
            };
            let reference = dump(1);
            assert!(!reference.1.is_empty());
            for workers in [2, 8] {
                let sharded = dump(workers);
                assert_eq!(
                    reference.0, sharded.0,
                    "{platform:?}/{label}: shards({workers}) analysis must equal shards(1)"
                );
                assert_eq!(
                    reference.1, sharded.1,
                    "{platform:?}/{label}: shards({workers}) trace must equal shards(1)"
                );
            }
        }
    }
}

#[test]
fn run_arena_recycling_is_invisible() {
    // The executor recycles run-lifetime buffers in a thread-local arena.
    // A run's bytes must not depend on what ran before it on the same
    // thread: a run on a dirty arena (after runs of different shapes and
    // platforms) must match the same run on a brand-new thread whose arena
    // has never been used.
    let seed = Seed(4242);
    let dep = |p: PlatformKind| Deployment::new(p, ModelKind::MobileNet, RuntimeKind::Tf115);
    let fresh = std::thread::spawn(move || {
        let tr = trace(seed);
        let run = Executor::default()
            .run(&dep(PlatformKind::AwsServerless), &tr, seed)
            .unwrap();
        serde_json_digest(&analyze(&run))
    })
    .join()
    .unwrap();

    let exec = Executor::default();
    let tr = trace(seed);
    // Dirty the arena: different trace sizes, platforms, and a sharded run.
    let other = trace(Seed(777));
    exec.run(&dep(PlatformKind::AwsCpu), &other, Seed(777))
        .unwrap();
    exec.run(&dep(PlatformKind::AwsManagedMl), &tr, Seed(9))
        .unwrap();
    exec.clone()
        .with_shards(2)
        .run(&dep(PlatformKind::AwsServerless), &tr, seed)
        .unwrap();
    let reused = exec
        .run(&dep(PlatformKind::AwsServerless), &tr, seed)
        .unwrap();
    assert_eq!(
        fresh,
        serde_json_digest(&analyze(&reused)),
        "a recycled arena must not leak state between runs"
    );
}

fn fleet_scenario() -> FleetScenario {
    // Two profiles so the round-robin assignment exercises both, enough
    // apps to populate every fixed cell with several slots, and a
    // duration long enough for cold starts, queueing, and idle gaps.
    FleetScenario::from_json(
        r#"{
        "name": "det fleet",
        "seed": 3141,
        "fleet": {
            "kind": "synth",
            "apps": 29,
            "zipf_exponent": 1.1,
            "total_rate": 60.0,
            "mean_busy_s": 10.0,
            "median_idle_s": 20.0,
            "idle_sigma": 1.4,
            "duration_s": 180.0
        },
        "profiles": {
            "edge": {
                "platform": "AwsServerless",
                "model": "MobileNet",
                "runtime": "Ort14",
                "memory_mb": 2048.0,
                "provisioned_concurrency": 0,
                "batch_size": 1,
                "extra_container_mb": 0.0,
                "extra_download_mb": 0.0,
                "samples_per_request": 1,
                "inference_repeats": 1
            },
            "text": {
                "platform": "GcpServerless",
                "model": "Albert",
                "runtime": "Tf115",
                "memory_mb": 4096.0,
                "provisioned_concurrency": 0,
                "batch_size": 1,
                "extra_container_mb": 0.0,
                "extra_download_mb": 0.0,
                "samples_per_request": 1,
                "inference_repeats": 1
            }
        },
        "timeout_s": 60.0
    }"#,
    )
    .unwrap()
}

#[test]
fn fleet_runs_are_identical_for_any_worker_budget() {
    // The fleet engine's --jobs/--shards contract: both flags only set the
    // thread budget replaying fixed cells, so every worker count must
    // produce the same bytes — per-app results, merged platform report,
    // and the recorded JSONL trace alike.
    let plan = fleet_scenario().resolve(None).unwrap();
    let seed = Seed(3141);
    let dump = |workers: usize| -> (String, Vec<u8>) {
        let runner = FleetRunner::default().with_workers(workers);
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        let run = runner.run_recorded(&plan, seed, &mut rec).unwrap();
        rec.finish().unwrap();
        let digest = format!(
            "{}|{}|{}|{:?}",
            serde_json::to_string(&run.apps).unwrap(),
            run.requests,
            run.engine_events,
            run.platform
        );
        (digest, buf)
    };
    let reference = dump(1);
    assert!(!reference.1.is_empty(), "fleet trace must record events");
    for workers in [2, 4, 8] {
        let parallel = dump(workers);
        assert_eq!(
            reference.0, parallel.0,
            "fleet workers({workers}) results must equal workers(1)"
        );
        assert_eq!(
            reference.1, parallel.1,
            "fleet workers({workers}) trace must equal workers(1)"
        );
    }
}

#[test]
fn fleet_recording_is_write_only() {
    // Attaching a recorder must not perturb a fleet run.
    let plan = fleet_scenario().resolve(None).unwrap();
    let seed = Seed(3141);
    let digest = |run: &slsbench::core::FleetRunResult| -> String {
        format!(
            "{}|{}|{}|{:?}",
            serde_json::to_string(&run.apps).unwrap(),
            run.requests,
            run.engine_events,
            run.platform
        )
    };
    let runner = FleetRunner::default().with_workers(4);
    let plain = runner.run(&plan, seed).unwrap();
    let mut rec = MemoryRecorder::new();
    let recorded = runner.run_recorded(&plan, seed, &mut rec).unwrap();
    assert_eq!(
        digest(&plain),
        digest(&recorded),
        "recording must not change fleet results"
    );
    assert!(!rec.events().is_empty());
    // Different seeds must differ (the engine is not ignoring the seed).
    let other = runner.run(&plan, Seed(2718)).unwrap();
    assert_ne!(digest(&plain), digest(&other));
}

/// FNV-1a 64 over raw bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn fleet_trace_and_metrics_match_their_pins() {
    // Worker-budget comparisons cannot see a change that moves every
    // budget the same way, so the fleet engine's outputs are pinned
    // outright: the FNV-64 of the recorded JSONL trace bytes and of the
    // pretty `fleet_metrics` snapshot, at two seeds. The values were
    // recorded from the fleet runner before it moved onto the shared cell
    // engine.
    let plan = fleet_scenario().resolve(None).unwrap();
    let pins: [(u64, usize, u64, u64); 2] = [
        (3141, 53750, 0x4432_bd9e_6da7_8912, 0x1613_0ee4_fc6f_edad),
        (2718, 58804, 0x18f8_6704_1fd3_88c8, 0xfdae_7bd2_52c8_bb9c),
    ];
    for (seed, lines, trace_fnv, metrics_fnv) in pins {
        let mut buf = Vec::new();
        let mut rec = JsonlRecorder::new(&mut buf);
        let run = FleetRunner::default()
            .with_workers(2)
            .run_recorded(&plan, Seed(seed), &mut rec)
            .unwrap();
        let written = rec.finish().unwrap() as usize;
        let metrics = serde_json::to_string_pretty(&fleet_metrics(&run)).unwrap();
        let got = (
            seed,
            written,
            fnv64(&buf),
            fnv64(metrics.as_bytes()),
        );
        assert_eq!(
            got,
            (seed, lines, trace_fnv, metrics_fnv),
            "seed {seed}: got (seed, events, trace fnv, metrics fnv) = ({}, {}, {:#018x}, {:#018x})",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}

#[test]
fn exploration_is_identical_across_worker_counts() {
    let seed = Seed(23);
    let tr = trace(seed);
    let base = Deployment::new(
        PlatformKind::AwsServerless,
        ModelKind::MobileNet,
        RuntimeKind::Tf115,
    );
    let exec = Executor::default();
    let grid = ExplorerGrid::default();
    let seq = explore_jobs(&exec, base, &grid, &tr, seed, Jobs::new(1)).unwrap();
    let par = explore_jobs(&exec, base, &grid, &tr, seed, Jobs::new(8)).unwrap();
    assert_eq!(
        serde_json::to_string(&seq).unwrap(),
        serde_json::to_string(&par).unwrap(),
        "explore --jobs 8 must be byte-identical to --jobs 1"
    );
}
