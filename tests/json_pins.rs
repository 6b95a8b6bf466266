//! Byte pins for the pretty JSON documents the CLI writes: scenarios,
//! fleet scenarios, trace summaries and profiles. The expected strings
//! are literal copies of the writer's output, so any change to
//! indentation, empty-container forms, key order, `null`s, escaping or
//! float formatting fails here. (Compact JSONL trace output is pinned
//! separately by the event digests in `tests/policy_golden.rs`.)

use slsb_core::{FleetScenario, Scenario};
use slsb_obs::Profile;
use slsb_workload::TraceSummary;

const SCENARIO_IN: &str = r#"{
  "name": "pins: \"quoted\" name",
  "seed": 7,
  "workload": {"kind": "mmpp", "rate_high": 40.0, "rate_low": -0.5,
               "dwell_high_s": 2.0, "dwell_low_s": 1e-7, "duration_s": 120},
  "deployment": {"platform": "AwsServerless", "model": "MobileNet", "runtime": "Ort14",
                 "memory_mb": 2048.0, "provisioned_concurrency": 0, "batch_size": 1,
                 "extra_container_mb": 0.0, "extra_download_mb": 0.0,
                 "samples_per_request": 1, "inference_repeats": 1},
  "faults": {"crash_mid_exec": 1e-7, "throttle": {"rate_per_sec": 25.0, "burst": 10.0}},
  "slo": {"targets": {"p99_s": 0.5}, "tenants": {"3": {"success_ratio": 0.99}}},
  "policy": {"keep_alive": {"kind": "hybrid_histogram"}}
}"#;

const SCENARIO_OUT: &str = r#"{
  "name": "pins: \"quoted\" name",
  "seed": 7,
  "workload": {
    "kind": "mmpp",
    "rate_high": 40.0,
    "rate_low": -0.5,
    "dwell_high_s": 2.0,
    "dwell_low_s": 0.0000001,
    "duration_s": 120.0
  },
  "deployment": {
    "platform": "AwsServerless",
    "model": "MobileNet",
    "runtime": "Ort14",
    "memory_mb": 2048.0,
    "provisioned_concurrency": 0,
    "batch_size": 1,
    "extra_container_mb": 0.0,
    "extra_download_mb": 0.0,
    "samples_per_request": 1,
    "inference_repeats": 1,
    "policy": null
  },
  "executor": {
    "clients": 8,
    "pool_size": 200,
    "timeout": 60000000,
    "network": {
      "one_way_latency": 10000,
      "bandwidth_mb_per_sec": 50.0
    },
    "batch_override": null,
    "retry": {
      "max_attempts": 1,
      "attempt_timeout": 10000000,
      "base_backoff": 500000,
      "max_backoff": 8000000,
      "jitter": 0.25,
      "budget": 18446744073709551615
    },
    "shards": 0
  },
  "faults": {
    "crash_on_boot": 0.0,
    "crash_mid_exec": 0.0000001,
    "storage_slowdown": 1.0,
    "storage_stall_chance": 0.0,
    "storage_stall_s": 0.0,
    "client_jitter_ms": 0.0,
    "packet_loss": 0.0,
    "throttle": {
      "rate_per_sec": 25.0,
      "burst": 10.0
    },
    "outages": []
  },
  "slo": {
    "targets": {
      "p50_s": null,
      "p99_s": 0.5,
      "success_ratio": null,
      "cost_per_1k": null
    },
    "tenants": {
      "3": {
        "p50_s": null,
        "p99_s": null,
        "success_ratio": 0.99,
        "cost_per_1k": null
      }
    }
  },
  "policy": {
    "keep_alive": {
      "kind": "hybrid_histogram",
      "bucket_s": 10.0,
      "max_s": 3600.0,
      "percentile": 99.0,
      "margin": 1.2,
      "warmup": 3
    },
    "placement": "mru",
    "scaling": "platform_default"
  }
}"#;

const FLEET_IN: &str = r#"{
  "name": "pins fleet",
  "seed": 41,
  "fleet": {"kind": "synth", "apps": 3, "zipf_exponent": 1.1, "total_rate": 2.0,
            "mean_busy_s": -0.5, "median_idle_s": 1e-7, "idle_sigma": 1.6,
            "duration_s": 900.0},
  "profiles": {
    "edge": {"platform": "AwsServerless", "model": "MobileNet", "runtime": "Ort14",
             "memory_mb": 2048.0, "provisioned_concurrency": 0, "batch_size": 1,
             "extra_container_mb": 0.0, "extra_download_mb": 0.0,
             "samples_per_request": 1, "inference_repeats": 1,
             "policy": {"keep_alive": {"kind": "fixed", "idle_s": 600.0}}}
  }
}"#;

const FLEET_OUT: &str = r#"{
  "name": "pins fleet",
  "seed": 41,
  "fleet": {
    "kind": "synth",
    "apps": 3,
    "zipf_exponent": 1.1,
    "total_rate": 2.0,
    "mean_busy_s": -0.5,
    "median_idle_s": 0.0000001,
    "idle_sigma": 1.6,
    "duration_s": 900.0
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
      "inference_repeats": 1,
      "policy": {
        "keep_alive": {
          "kind": "fixed",
          "idle_s": 600.0
        },
        "placement": "mru",
        "scaling": "platform_default"
      }
    }
  },
  "timeout_s": 60.0,
  "policy": null
}"#;

const SUMMARY_IN: &str = r#"{
  "schema": "slsb-fleet-trace/v1",
  "name": "pins é\t\"trace\"",
  "bucket_s": 60.0,
  "buckets": 2,
  "apps": [
    {"name": "a", "profile": "edge", "invocations": [4, 0],
     "duration_ms_p50": 2.0, "memory_mb_p50": 1e-7, "artifact_mb": -0.5},
    {"name": "b", "profile": "text", "invocations": [],
     "duration_ms_p50": null}
  ]
}"#;

const SUMMARY_OUT: &str = r#"{
  "schema": "slsb-fleet-trace/v1",
  "name": "pins é\t\"trace\"",
  "bucket_s": 60.0,
  "buckets": 2,
  "apps": [
    {
      "name": "a",
      "profile": "edge",
      "invocations": [
        4,
        0
      ],
      "duration_ms_p50": 2.0,
      "memory_mb_p50": 0.0000001,
      "artifact_mb": -0.5
    },
    {
      "name": "b",
      "profile": "text",
      "invocations": [],
      "duration_ms_p50": null,
      "memory_mb_p50": null,
      "artifact_mb": null
    }
  ]
}"#;

const PROFILE_IN: &str = r#"{
  "schema": "slsb-profile/v1",
  "wall_secs": 2.0,
  "attributed_secs": 1e-7,
  "unattributed_secs": -0.5,
  "attributed_frac": 0.25,
  "roots": [
    {"label": "executor", "calls": 1, "nanos": 2000, "allocs": 3, "children": [
      {"label": "executor/engine", "calls": 18446744073709551615, "nanos": 0,
       "allocs": 0, "children": []}
    ]},
    {"label": "recorder", "calls": 0, "nanos": 0, "allocs": 0, "children": []}
  ]
}"#;

const PROFILE_OUT: &str = r#"{
  "schema": "slsb-profile/v1",
  "wall_secs": 2.0,
  "attributed_secs": 0.0000001,
  "unattributed_secs": -0.5,
  "attributed_frac": 0.25,
  "roots": [
    {
      "label": "executor",
      "calls": 1,
      "nanos": 2000,
      "allocs": 3,
      "children": [
        {
          "label": "executor/engine",
          "calls": 18446744073709551615,
          "nanos": 0,
          "allocs": 0,
          "children": []
        }
      ]
    },
    {
      "label": "recorder",
      "calls": 0,
      "nanos": 0,
      "allocs": 0,
      "children": []
    }
  ]
}"#;

#[test]
fn pretty_documents_match_their_pins() {
    let scenario: Scenario = serde_json::from_str(SCENARIO_IN).unwrap();
    let fleet: FleetScenario = serde_json::from_str(FLEET_IN).unwrap();
    let summary: TraceSummary = serde_json::from_str(SUMMARY_IN).unwrap();
    let profile: Profile = serde_json::from_str(PROFILE_IN).unwrap();
    for (got, want) in [
        (
            serde_json::to_string_pretty(&scenario).unwrap(),
            SCENARIO_OUT,
        ),
        (serde_json::to_string_pretty(&fleet).unwrap(), FLEET_OUT),
        (serde_json::to_string_pretty(&summary).unwrap(), SUMMARY_OUT),
        (serde_json::to_string_pretty(&profile).unwrap(), PROFILE_OUT),
    ] {
        assert_eq!(got, want);
    }
}
