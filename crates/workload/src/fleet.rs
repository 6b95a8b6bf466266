//! Fleet-scale multi-tenant workloads.
//!
//! The paper's load generator drives one app with one MMPP; production
//! serverless fleets (the Azure Functions traces, and the commodity-platform
//! study in PAPERS.md) are thousands of apps with Zipf-skewed popularity and
//! heavy-tailed idle times. This module represents such fleets two ways:
//!
//! - **Ingested**: a [`TraceSummary`] — per-app invocation counts per time
//!   bucket plus optional duration/memory/artifact-size hints — parsed from
//!   the documented JSON schema ([`FLEET_TRACE_SCHEMA`]) or converted from
//!   raw CSV by `slsb fleet ingest`. Bucket counts are replayed *exactly*
//!   via sequential uniform order statistics (one RNG draw per arrival,
//!   O(1) state).
//! - **Synthesized**: [`FleetSynthesis`] knobs (app count, Zipf exponent,
//!   busy/idle process) expand into per-app on/off processes when no trace
//!   is available.
//!
//! Either way the result is a [`FleetSpec`], and the load path is
//! *streaming*: [`FleetArrivalStream`] lazily k-way-merges one
//! [`AppStream`] per app, so a 10M-request fleet costs O(apps) memory, not
//! O(requests). RNG discipline: app `i` draws only from
//! `seed.substream_indexed("app", i)` keyed by its *global* index, so any
//! partition of the fleet across cells or worker threads replays the exact
//! same per-app arrival sequences.

use crate::trace::WorkloadTrace;
use serde::{Deserialize, Serialize};
use slsb_sim::{Seed, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Schema tag every fleet trace-summary JSON document must carry.
pub const FLEET_TRACE_SCHEMA: &str = "slsb-fleet-trace/v1";

/// Why a fleet description failed to parse or build.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Malformed JSON/CSV input.
    Parse(String),
    /// The document declares a schema other than [`FLEET_TRACE_SCHEMA`].
    SchemaMismatch(String),
    /// The fleet has no apps (or no deployment profiles to assign).
    EmptyFleet,
    /// An app's invocation series is shorter than the declared bucket count
    /// — the classic symptom of a truncated export.
    Truncated {
        /// Offending app name.
        app: String,
        /// Buckets present.
        have: usize,
        /// Buckets declared.
        want: usize,
    },
    /// A synthesis or process knob is out of range.
    BadKnob(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Parse(s) => write!(f, "fleet trace parse error: {s}"),
            FleetError::SchemaMismatch(s) => {
                write!(f, "fleet trace schema {s:?}, expected {FLEET_TRACE_SCHEMA:?}")
            }
            FleetError::EmptyFleet => write!(f, "fleet has no apps"),
            FleetError::Truncated { app, have, want } => {
                write!(f, "truncated trace: app {app:?} has {have} of {want} buckets")
            }
            FleetError::BadKnob(s) => write!(f, "bad fleet knob: {s}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One app's arrival process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AppProcess {
    /// Alternating busy/idle renewal process: lognormal idle gaps
    /// (heavy-tailed, the production signature), exponential busy sojourns
    /// with Poisson arrivals at `rate` while busy. The app starts idle.
    OnOff {
        /// Poisson rate while busy (req/s).
        rate: f64,
        /// Mean busy-period length.
        mean_busy: SimDuration,
        /// Median idle gap (lognormal location).
        median_idle: SimDuration,
        /// Lognormal shape of the idle gap; larger = heavier tail.
        idle_sigma: f64,
    },
    /// Exact per-bucket invocation counts from an ingested trace summary;
    /// each bucket's arrivals are uniform order statistics, drawn
    /// sequentially (one uniform per arrival, O(1) state).
    Buckets {
        /// Bucket width.
        bucket: SimDuration,
        /// Invocations per bucket.
        counts: Vec<u32>,
    },
}

impl AppProcess {
    /// Long-run duty cycle of an on/off process (fraction of time busy).
    fn duty(mean_busy: SimDuration, median_idle: SimDuration, idle_sigma: f64) -> f64 {
        let busy = mean_busy.as_secs_f64();
        let idle_mean = median_idle.as_secs_f64() * (idle_sigma * idle_sigma / 2.0).exp();
        busy / (busy + idle_mean)
    }

    /// Expected request count over `duration` (exact for `Buckets`).
    pub fn expected_requests(&self, duration: SimDuration) -> f64 {
        match self {
            AppProcess::OnOff {
                rate,
                mean_busy,
                median_idle,
                idle_sigma,
            } => rate * Self::duty(*mean_busy, *median_idle, *idle_sigma) * duration.as_secs_f64(),
            AppProcess::Buckets { counts, .. } => {
                counts.iter().map(|&c| c as f64).sum()
            }
        }
    }

    fn validate(&self, app: &str) -> Result<(), FleetError> {
        let bad = |what: &str| Err(FleetError::BadKnob(format!("app {app:?}: {what}")));
        match self {
            AppProcess::OnOff {
                rate,
                mean_busy,
                median_idle,
                idle_sigma,
            } => {
                if !rate.is_finite() || *rate < 0.0 {
                    return bad("rate must be finite and >= 0");
                }
                if mean_busy.is_zero() || median_idle.is_zero() {
                    return bad("busy/idle times must be positive");
                }
                if !idle_sigma.is_finite() || *idle_sigma < 0.0 {
                    return bad("idle_sigma must be finite and >= 0");
                }
            }
            AppProcess::Buckets { bucket, counts } => {
                if bucket.is_zero() {
                    return bad("bucket width must be positive");
                }
                if counts.is_empty() {
                    return bad("no buckets");
                }
            }
        }
        Ok(())
    }
}

/// One app in a fleet: a name, a deployment-profile label, and an arrival
/// process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// App name (unique within the fleet).
    pub name: String,
    /// Deployment-profile label this app is served with.
    pub profile: String,
    /// Arrival process.
    pub process: AppProcess,
}

/// A complete multi-tenant fleet workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Fleet label.
    pub name: String,
    /// Run duration; every app's arrivals stay within it.
    pub duration: SimDuration,
    /// The apps, in canonical (global-index) order.
    pub apps: Vec<AppSpec>,
}

impl FleetSpec {
    /// Checks every knob.
    ///
    /// # Errors
    /// [`FleetError::EmptyFleet`] or [`FleetError::BadKnob`].
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.apps.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        if self.duration.is_zero() {
            return Err(FleetError::BadKnob("fleet duration must be positive".into()));
        }
        for app in &self.apps {
            app.process.validate(&app.name)?;
        }
        Ok(())
    }

    /// Expected total request count.
    pub fn expected_requests(&self) -> f64 {
        self.apps
            .iter()
            .map(|a| a.process.expected_requests(self.duration))
            .sum()
    }

    /// Streams the whole fleet's arrivals, merged in time order.
    pub fn arrival_stream(&self, seed: Seed) -> FleetArrivalStream {
        self.arrival_stream_for(seed, 0..self.apps.len() as u32)
    }

    /// Streams a subset of apps (by global index), merged in time order.
    ///
    /// Each app's RNG substream is keyed by its *global* index, so app `i`
    /// produces the identical arrival sequence whether streamed alone, in a
    /// cell's subset, or in the full merge — the structural basis of the
    /// fleet engine's byte-identity across `--jobs`/`--shards`.
    pub fn arrival_stream_for(
        &self,
        seed: Seed,
        apps: impl IntoIterator<Item = u32>,
    ) -> FleetArrivalStream {
        FleetArrivalStream::merge(apps.into_iter().map(|i| {
            let spec = &self.apps[i as usize];
            let sub = seed.substream_indexed("app", i as u64);
            (i, AppStream::new(&spec.process, self.duration, sub))
        }))
    }

    /// Materializes the merged fleet into a flat [`WorkloadTrace`] — the
    /// thin adapter for consumers that still want a `Vec`. O(requests)
    /// memory, byte-identical to draining [`FleetSpec::arrival_stream`].
    pub fn materialize(&self, seed: Seed) -> WorkloadTrace {
        let cap = (self.expected_requests() * 1.2).max(16.0) as usize;
        let mut arrivals = Vec::with_capacity(cap);
        arrivals.extend(self.arrival_stream(seed).map(|(at, _)| at));
        WorkloadTrace::new(self.name.clone(), self.duration, arrivals)
    }
}

/// Knob-based fleet synthesis: `apps` tenants whose long-run request rates
/// follow a Zipf(`zipf_exponent`) popularity curve summing to `total_rate`,
/// each an on/off process with exponential busy periods and lognormal
/// (heavy-tailed) idle gaps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSynthesis {
    /// Number of apps.
    pub apps: u32,
    /// Zipf popularity exponent (0 = uniform).
    pub zipf_exponent: f64,
    /// Fleet-wide long-run arrival rate (req/s).
    pub total_rate: f64,
    /// Mean busy-period length, seconds.
    pub mean_busy_s: f64,
    /// Median idle gap, seconds.
    pub median_idle_s: f64,
    /// Lognormal idle-gap shape; 1.5–2.5 gives production-like tails.
    pub idle_sigma: f64,
    /// Run duration, seconds.
    pub duration_s: f64,
}

impl FleetSynthesis {
    /// Expands the knobs into a concrete [`FleetSpec`], assigning profile
    /// labels round-robin over `profiles` in rank order (most popular app
    /// gets `profiles[0]`).
    ///
    /// Within each app the busy-period Poisson rate is the app's long-run
    /// Zipf share divided by the process duty cycle, so the *fleet's*
    /// long-run rate matches `total_rate` while individual apps stay bursty.
    ///
    /// # Errors
    /// [`FleetError::BadKnob`] on out-of-range knobs,
    /// [`FleetError::EmptyFleet`] when `apps` or `profiles` is empty.
    pub fn build(&self, name: &str, profiles: &[String]) -> Result<FleetSpec, FleetError> {
        if self.apps == 0 || profiles.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        let bad = |what: &str| Err(FleetError::BadKnob(what.into()));
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return bad("zipf_exponent must be finite and >= 0");
        }
        if !self.total_rate.is_finite() || self.total_rate <= 0.0 {
            return bad("total_rate must be positive");
        }
        if !self.mean_busy_s.is_finite()
            || self.mean_busy_s <= 0.0
            || !self.median_idle_s.is_finite()
            || self.median_idle_s <= 0.0
        {
            return bad("busy/idle times must be positive");
        }
        if !self.idle_sigma.is_finite() || self.idle_sigma < 0.0 {
            return bad("idle_sigma must be finite and >= 0");
        }
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return bad("duration_s must be positive");
        }
        let mean_busy = SimDuration::from_secs_f64(self.mean_busy_s);
        let median_idle = SimDuration::from_secs_f64(self.median_idle_s);
        let duty = AppProcess::duty(mean_busy, median_idle, self.idle_sigma);
        let harmonic: f64 = (1..=self.apps)
            .map(|i| (i as f64).powf(-self.zipf_exponent))
            .sum();
        let apps = (0..self.apps)
            .map(|i| {
                let share = ((i + 1) as f64).powf(-self.zipf_exponent) / harmonic;
                AppSpec {
                    name: format!("app-{i:04}"),
                    profile: profiles[i as usize % profiles.len()].clone(),
                    process: AppProcess::OnOff {
                        rate: self.total_rate * share / duty,
                        mean_busy,
                        median_idle,
                        idle_sigma: self.idle_sigma,
                    },
                }
            })
            .collect();
        let spec = FleetSpec {
            name: name.to_string(),
            duration: SimDuration::from_secs_f64(self.duration_s),
            apps,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// A production trace summary: per-app invocation counts per fixed-width
/// time bucket, in the style of the Azure Functions dataset. This is the
/// documented on-disk schema (`slsb fleet ingest` emits it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Must equal [`FLEET_TRACE_SCHEMA`].
    pub schema: String,
    /// Fleet label.
    pub name: String,
    /// Bucket width, seconds.
    pub bucket_s: f64,
    /// Declared bucket count; every app must carry exactly this many.
    pub buckets: u32,
    /// Per-app rows.
    pub apps: Vec<TraceApp>,
}

/// One app's row in a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceApp {
    /// App name.
    pub name: String,
    /// Deployment-profile label.
    pub profile: String,
    /// Invocations per bucket (`buckets` entries).
    pub invocations: Vec<u32>,
    /// Median handler duration hint, milliseconds (informational).
    #[serde(default = "TraceApp::no_hint")]
    pub duration_ms_p50: Option<f64>,
    /// Median memory hint, MB — overrides the profile's memory when set.
    #[serde(default = "TraceApp::no_hint")]
    pub memory_mb_p50: Option<f64>,
    /// Model-artifact size hint, MB — adds to the profile's download size.
    #[serde(default = "TraceApp::no_hint")]
    pub artifact_mb: Option<f64>,
}

impl TraceApp {
    fn no_hint() -> Option<f64> {
        None
    }
}

impl TraceSummary {
    /// Parses and validates the canonical JSON document.
    ///
    /// # Errors
    /// [`FleetError::Parse`] on malformed JSON, [`FleetError::SchemaMismatch`]
    /// on a wrong `schema` tag, [`FleetError::Truncated`] when an app has
    /// fewer buckets than declared, [`FleetError::EmptyFleet`]/
    /// [`FleetError::BadKnob`] on structural problems.
    pub fn from_json(text: &str) -> Result<TraceSummary, FleetError> {
        let summary: TraceSummary =
            serde_json::from_str(text).map_err(|e| FleetError::Parse(e.to_string()))?;
        summary.validate()?;
        Ok(summary)
    }

    /// Serializes to the canonical pretty-JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace summary is serializable")
    }

    /// Parses the raw CSV export format `slsb fleet ingest` converts:
    /// a `# name=…,bucket_s=…,buckets=…` header, an optional
    /// `app,profile,bucket,invocations` column line, then one count per
    /// row. Apps appear in first-mention order; duplicate `(app, bucket)`
    /// rows accumulate.
    ///
    /// # Errors
    /// [`FleetError::Parse`] on malformed headers, rows, truncated lines, or
    /// out-of-range bucket indices; plus everything `validate` rejects.
    pub fn from_csv(text: &str) -> Result<TraceSummary, FleetError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .and_then(|l| l.strip_prefix("# "))
            .ok_or_else(|| FleetError::Parse("missing `# name=…` header".into()))?;
        let (mut name, mut bucket_s, mut buckets) = (None, None, None);
        for kv in header.split(',') {
            match kv.split_once('=') {
                Some(("name", v)) => name = Some(v.to_string()),
                Some(("bucket_s", v)) => {
                    bucket_s = Some(v.parse::<f64>().map_err(|_| {
                        FleetError::Parse(format!("bad bucket_s {v:?}"))
                    })?)
                }
                Some(("buckets", v)) => {
                    buckets = Some(v.parse::<u32>().map_err(|_| {
                        FleetError::Parse(format!("bad buckets {v:?}"))
                    })?)
                }
                _ => return Err(FleetError::Parse(format!("unknown header field {kv:?}"))),
            }
        }
        let missing = |what: &str| FleetError::Parse(format!("header missing {what}"));
        let name = name.ok_or_else(|| missing("name"))?;
        let bucket_s = bucket_s.ok_or_else(|| missing("bucket_s"))?;
        let buckets = buckets.ok_or_else(|| missing("buckets"))?;

        let mut apps: Vec<TraceApp> = Vec::new();
        for line in lines {
            if line.is_empty() || line.starts_with("app,") {
                continue;
            }
            let mut cols = line.split(',');
            let (app, profile, bucket, count) =
                match (cols.next(), cols.next(), cols.next(), cols.next(), cols.next()) {
                    (Some(a), Some(p), Some(b), Some(c), None) => (a, p, b, c),
                    _ => {
                        return Err(FleetError::Parse(format!(
                            "row {line:?} needs app,profile,bucket,invocations"
                        )))
                    }
                };
            let bucket: usize = bucket
                .parse()
                .map_err(|_| FleetError::Parse(format!("bad bucket index {bucket:?}")))?;
            if bucket >= buckets as usize {
                return Err(FleetError::Parse(format!(
                    "bucket {bucket} out of range (buckets={buckets})"
                )));
            }
            let count: u32 = count
                .parse()
                .map_err(|_| FleetError::Parse(format!("bad invocation count {count:?}")))?;
            let slot = match apps.iter().position(|x| x.name == app) {
                Some(i) => {
                    if apps[i].profile != profile {
                        return Err(FleetError::Parse(format!(
                            "app {app:?} listed with profiles {:?} and {profile:?}",
                            apps[i].profile
                        )));
                    }
                    i
                }
                None => {
                    apps.push(TraceApp {
                        name: app.to_string(),
                        profile: profile.to_string(),
                        invocations: vec![0; buckets as usize],
                        duration_ms_p50: None,
                        memory_mb_p50: None,
                        artifact_mb: None,
                    });
                    apps.len() - 1
                }
            };
            apps[slot].invocations[bucket] += count;
        }
        let summary = TraceSummary {
            schema: FLEET_TRACE_SCHEMA.to_string(),
            name,
            bucket_s,
            buckets,
            apps,
        };
        summary.validate()?;
        Ok(summary)
    }

    /// Structural validation shared by both parsers.
    ///
    /// # Errors
    /// See [`TraceSummary::from_json`].
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.schema != FLEET_TRACE_SCHEMA {
            return Err(FleetError::SchemaMismatch(self.schema.clone()));
        }
        if !self.bucket_s.is_finite() || self.bucket_s <= 0.0 {
            return Err(FleetError::BadKnob("bucket_s must be positive".into()));
        }
        if self.buckets == 0 {
            return Err(FleetError::BadKnob("buckets must be positive".into()));
        }
        if self.apps.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        for app in &self.apps {
            if app.invocations.len() != self.buckets as usize {
                return Err(FleetError::Truncated {
                    app: app.name.clone(),
                    have: app.invocations.len(),
                    want: self.buckets as usize,
                });
            }
        }
        Ok(())
    }

    /// Total invocations across the fleet.
    pub fn total_invocations(&self) -> u64 {
        self.apps
            .iter()
            .flat_map(|a| a.invocations.iter())
            .map(|&c| c as u64)
            .sum()
    }

    /// Bucket width as a duration (micros-exact).
    pub fn bucket(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.bucket_s)
    }

    /// Converts to a runnable [`FleetSpec`]: duration = `buckets` × bucket
    /// width, each app replaying its exact counts.
    ///
    /// # Errors
    /// Propagates validation failures.
    pub fn to_fleet_spec(&self) -> Result<FleetSpec, FleetError> {
        self.validate()?;
        let bucket = self.bucket();
        let spec = FleetSpec {
            name: self.name.clone(),
            duration: SimDuration::from_micros(bucket.as_micros() * self.buckets as u64),
            apps: self
                .apps
                .iter()
                .map(|a| AppSpec {
                    name: a.name.clone(),
                    profile: a.profile.clone(),
                    process: AppProcess::Buckets {
                        bucket,
                        counts: a.invocations.clone(),
                    },
                })
                .collect(),
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Lazy iterator over one app's arrival instants.
#[derive(Debug, Clone)]
pub struct AppStream {
    rng: SimRng,
    end: SimTime,
    state: AppState,
}

#[derive(Debug, Clone)]
enum AppState {
    OnOff {
        rate: f64,
        mean_busy: SimDuration,
        median_idle: SimDuration,
        idle_sigma: f64,
        segment_start: SimTime,
        segment_end: SimTime,
        cursor: SimTime,
        in_busy: bool,
    },
    Buckets {
        bucket: SimDuration,
        counts: Vec<u32>,
        idx: usize,
        remaining: u32,
        cursor: SimTime,
    },
}

impl AppStream {
    /// Starts one app's stream on its own RNG substream.
    pub fn new(process: &AppProcess, duration: SimDuration, seed: Seed) -> AppStream {
        let state = match process {
            AppProcess::OnOff {
                rate,
                mean_busy,
                median_idle,
                idle_sigma,
            } => AppState::OnOff {
                rate: *rate,
                mean_busy: *mean_busy,
                median_idle: *median_idle,
                idle_sigma: *idle_sigma,
                segment_start: SimTime::ZERO,
                segment_end: SimTime::ZERO,
                cursor: SimTime::ZERO,
                in_busy: false,
            },
            AppProcess::Buckets { bucket, counts } => AppState::Buckets {
                bucket: *bucket,
                counts: counts.clone(),
                idx: 0,
                remaining: 0,
                cursor: SimTime::ZERO,
            },
        };
        AppStream {
            rng: seed.rng(),
            end: SimTime::ZERO + duration,
            state,
        }
    }
}

impl Iterator for AppStream {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        match &mut self.state {
            AppState::OnOff {
                rate,
                mean_busy,
                median_idle,
                idle_sigma,
                segment_start,
                segment_end,
                cursor,
                in_busy,
            } => loop {
                if *in_busy {
                    let t = *cursor + self.rng.exp_interval(*rate);
                    if t >= *segment_end {
                        *in_busy = false;
                        *segment_start = *segment_end;
                    } else {
                        *cursor = t;
                        return Some(t);
                    }
                } else {
                    if *segment_start >= self.end {
                        return None;
                    }
                    let idle = self.rng.lognormal(*median_idle, *idle_sigma);
                    *segment_start = segment_start.saturating_add(idle).min(self.end);
                    if *segment_start >= self.end {
                        return None;
                    }
                    let busy = self.rng.exp_mean(*mean_busy);
                    *segment_end = segment_start.saturating_add(busy).min(self.end);
                    if *rate > 0.0 {
                        *in_busy = true;
                        *cursor = *segment_start;
                    } else {
                        *segment_start = *segment_end;
                    }
                }
            },
            AppState::Buckets {
                bucket,
                counts,
                idx,
                remaining,
                cursor,
            } => {
                if *remaining == 0 {
                    while *idx < counts.len() && counts[*idx] == 0 {
                        *idx += 1;
                    }
                    if *idx >= counts.len() {
                        return None;
                    }
                    *remaining = counts[*idx];
                    *cursor = SimTime::from_micros(bucket.as_micros() * *idx as u64);
                }
                // The minimum of n uniforms on the remaining window
                // [cursor, bucket_end): CDF 1-(1-x/L)^n, inverted below.
                // Conditioning on it leaves n-1 uniforms on the rest, so
                // sequential draws replay the bucket's exact count.
                let bucket_end =
                    SimTime::from_micros(bucket.as_micros() * (*idx as u64 + 1)).min(self.end);
                let window = bucket_end.duration_since(*cursor).as_secs_f64();
                let u = self.rng.uniform();
                let gap = window * (1.0 - u.powf(1.0 / *remaining as f64));
                let at = cursor.saturating_add(SimDuration::from_secs_f64(gap)).min(bucket_end);
                *cursor = at;
                *remaining -= 1;
                if *remaining == 0 {
                    *idx += 1;
                }
                Some(at)
            }
        }
    }
}

/// Merges this many streams or fewer with a linear min-scan instead of a
/// binary heap. Partitioned fleet cells typically hold a few dozen apps
/// (`apps / FLEET_CELLS`), where a branch-predictable scan over a dense
/// `SimTime` array beats the heap's pointer-chasing sift by 2-3x per pop.
const SCAN_MERGE_MAX: usize = 64;

/// The merge frontier: one pending arrival per live stream.
#[derive(Debug, Clone)]
enum MergeFrontier {
    /// Small merges: `next[slot]` is that stream's pending arrival
    /// (`SimTime::MAX` = exhausted); each pop min-scans the array. `live`
    /// counts non-exhausted slots so an empty merge terminates without a
    /// scan full of sentinels.
    Scan { next: Vec<SimTime>, live: usize },
    /// Large merges: min-heap on (next arrival, slot); the slot tie-break
    /// makes same-instant pops deterministic (lower global app index first).
    Heap(BinaryHeap<Reverse<(SimTime, u32)>>),
}

/// K-way merge of per-app arrival streams into one time-ordered stream of
/// `(arrival, app)` pairs. Holds exactly one pending arrival per live app —
/// the whole point: O(apps) memory however many requests flow through.
///
/// Both frontier representations pop in the identical order — smallest
/// `(arrival, slot)` pair, so same-instant arrivals break ties toward the
/// lower global app index — which keeps merged output byte-identical
/// whichever representation the app count selects.
#[derive(Debug, Clone)]
pub struct FleetArrivalStream {
    ids: Vec<u32>,
    streams: Vec<AppStream>,
    frontier: MergeFrontier,
}

impl FleetArrivalStream {
    /// Merges `(global_app_index, stream)` pairs.
    pub fn merge(apps: impl IntoIterator<Item = (u32, AppStream)>) -> Self {
        let mut ids = Vec::new();
        let mut streams = Vec::new();
        for (id, stream) in apps {
            ids.push(id);
            streams.push(stream);
        }
        let frontier = if streams.len() <= SCAN_MERGE_MAX {
            let mut live = 0;
            let next = streams
                .iter_mut()
                .map(|s| match s.next() {
                    Some(t) => {
                        live += 1;
                        t
                    }
                    None => SimTime::MAX,
                })
                .collect();
            MergeFrontier::Scan { next, live }
        } else {
            let mut heap = BinaryHeap::with_capacity(streams.len());
            for (slot, s) in streams.iter_mut().enumerate() {
                if let Some(t) = s.next() {
                    heap.push(Reverse((t, slot as u32)));
                }
            }
            MergeFrontier::Heap(heap)
        };
        FleetArrivalStream { ids, streams, frontier }
    }

    /// Number of apps in the merge (live or exhausted).
    pub fn apps(&self) -> usize {
        self.streams.len()
    }
}

impl Iterator for FleetArrivalStream {
    type Item = (SimTime, u32);

    fn next(&mut self) -> Option<(SimTime, u32)> {
        let (at, slot) = match &mut self.frontier {
            MergeFrontier::Scan { next, live } => {
                if *live == 0 {
                    return None;
                }
                // Strict `<` keeps the first (lowest) slot on ties, matching
                // the heap's (t, slot) ordering.
                let mut best = 0;
                for (slot, &t) in next.iter().enumerate().skip(1) {
                    if t < next[best] {
                        best = slot;
                    }
                }
                let at = next[best];
                match self.streams[best].next() {
                    Some(t) => {
                        debug_assert!(t >= at, "app stream went backwards");
                        next[best] = t;
                    }
                    None => {
                        next[best] = SimTime::MAX;
                        *live -= 1;
                    }
                }
                (at, best as u32)
            }
            MergeFrontier::Heap(heap) => {
                let Reverse((at, slot)) = heap.pop()?;
                if let Some(t) = self.streams[slot as usize].next() {
                    debug_assert!(t >= at, "app stream went backwards");
                    heap.push(Reverse((t, slot)));
                }
                (at, slot)
            }
        };
        Some((at, self.ids[slot as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<String> {
        vec!["cnn".into(), "lstm".into()]
    }

    fn small_synth() -> FleetSynthesis {
        FleetSynthesis {
            apps: 20,
            zipf_exponent: 1.1,
            total_rate: 40.0,
            mean_busy_s: 10.0,
            median_idle_s: 20.0,
            idle_sigma: 1.5,
            duration_s: 300.0,
        }
    }

    #[test]
    fn synthesis_builds_zipf_fleet() {
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        assert_eq!(fleet.apps.len(), 20);
        assert_eq!(fleet.apps[0].profile, "cnn");
        assert_eq!(fleet.apps[1].profile, "lstm");
        // Rank-0 app strictly more popular than rank-19.
        let rate = |i: usize| match fleet.apps[i].process {
            AppProcess::OnOff { rate, .. } => rate,
            _ => unreachable!(),
        };
        assert!(rate(0) > rate(19) * 10.0);
        // Long-run expectation tracks total_rate × duration.
        let expect = fleet.expected_requests();
        assert!((expect - 40.0 * 300.0).abs() / (40.0 * 300.0) < 1e-6);
    }

    #[test]
    fn synthesis_rejects_bad_knobs() {
        let mut s = small_synth();
        s.total_rate = -1.0;
        assert!(matches!(
            s.build("x", &profiles()),
            Err(FleetError::BadKnob(_))
        ));
        assert!(matches!(
            small_synth().build("x", &[]),
            Err(FleetError::EmptyFleet)
        ));
    }

    #[test]
    fn merged_stream_is_sorted_and_bounded() {
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        let arrivals: Vec<(SimTime, u32)> = fleet.arrival_stream(Seed(7)).collect();
        assert!(arrivals.len() > 1000, "got {}", arrivals.len());
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        let end = SimTime::ZERO + fleet.duration;
        assert!(arrivals.iter().all(|&(t, _)| t <= end));
        assert!(arrivals.iter().all(|&(_, a)| (a as usize) < fleet.apps.len()));
    }

    #[test]
    fn per_app_sequences_are_partition_invariant() {
        // App i's arrivals must be the same whether it is streamed alone or
        // inside the full merge — the property sharded fleet runs rely on.
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        let seed = Seed(11);
        let full: Vec<(SimTime, u32)> = fleet.arrival_stream(seed).collect();
        for i in [0u32, 7, 19] {
            let alone: Vec<SimTime> = fleet
                .arrival_stream_for(seed, [i])
                .map(|(t, _)| t)
                .collect();
            let filtered: Vec<SimTime> = full
                .iter()
                .filter(|&&(_, a)| a == i)
                .map(|&(t, _)| t)
                .collect();
            assert_eq!(alone, filtered, "app {i}");
        }
    }

    #[test]
    fn materialize_matches_stream() {
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        let tr = fleet.materialize(Seed(3));
        let streamed: Vec<SimTime> = fleet.arrival_stream(Seed(3)).map(|(t, _)| t).collect();
        assert_eq!(tr.arrivals(), &streamed[..]);
        assert_eq!(tr.name(), "synth");
    }

    #[test]
    fn bucket_replay_is_exact() {
        let bucket = SimDuration::from_secs(10);
        let counts = vec![3u32, 0, 5, 1];
        let process = AppProcess::Buckets {
            bucket,
            counts: counts.clone(),
        };
        let duration = SimDuration::from_secs(40);
        let arrivals: Vec<SimTime> =
            AppStream::new(&process, duration, Seed(9).substream("t")).collect();
        assert_eq!(arrivals.len(), 9);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        for (i, &want) in counts.iter().enumerate() {
            let lo = 10_000_000 * i as u64;
            let hi = 10_000_000 * (i + 1) as u64;
            let got = arrivals
                .iter()
                .filter(|t| t.as_micros() >= lo && t.as_micros() <= hi)
                .count();
            // Boundary clamping can place a sample exactly on `hi`; the
            // half-open count still must match when buckets are counted in
            // order (no sample may leave its bucket).
            assert!(
                got >= want as usize,
                "bucket {i}: {got} arrivals, want {want}"
            );
        }
        // Exact per-bucket counts under half-open bucketing.
        let mut per_bucket = vec![0u32; counts.len()];
        for t in &arrivals {
            let idx = ((t.as_micros() / 10_000_000) as usize).min(counts.len() - 1);
            per_bucket[idx] += 1;
        }
        assert_eq!(per_bucket, counts);
    }

    #[test]
    fn trace_summary_json_roundtrip() {
        let summary = TraceSummary {
            schema: FLEET_TRACE_SCHEMA.into(),
            name: "sample".into(),
            bucket_s: 60.0,
            buckets: 3,
            apps: vec![TraceApp {
                name: "app-a".into(),
                profile: "cnn".into(),
                invocations: vec![5, 0, 2],
                duration_ms_p50: Some(35.0),
                memory_mb_p50: None,
                artifact_mb: Some(96.0),
            }],
        };
        let parsed = TraceSummary::from_json(&summary.to_json()).unwrap();
        assert_eq!(parsed, summary);
        let fleet = parsed.to_fleet_spec().unwrap();
        assert_eq!(fleet.duration, SimDuration::from_secs(180));
        assert_eq!(fleet.expected_requests(), 7.0);
    }

    #[test]
    fn trace_summary_reads_ascii_escaped_names() {
        // Python's `json.dumps` escapes non-ASCII by default, writing
        // astral characters as UTF-16 surrogate pairs.
        let doc = |name: &str| {
            format!(
                r#"{{"schema":"{FLEET_TRACE_SCHEMA}","name":"x","bucket_s":60.0,"buckets":1,"apps":[{{"name":"{name}","profile":"p","invocations":[1]}}]}}"#
            )
        };
        let summary = TraceSummary::from_json(&doc(r"\ud83d\ude00 caf\u00e9")).unwrap();
        assert_eq!(summary.apps[0].name, "😀 café");
        assert_eq!(
            TraceSummary::from_json(&summary.to_json()).unwrap(),
            summary
        );
        for lone in [r"\ud83d", r"\ude00", r"\ud83dA"] {
            assert!(
                matches!(
                    TraceSummary::from_json(&doc(lone)),
                    Err(FleetError::Parse(_))
                ),
                "{lone}"
            );
        }
    }

    #[test]
    fn trace_summary_rejects_schema_and_truncation() {
        let err = TraceSummary::from_json(r#"{"schema":"other/v9","name":"x","bucket_s":60.0,"buckets":1,"apps":[{"name":"a","profile":"p","invocations":[1]}]}"#)
            .unwrap_err();
        assert!(matches!(err, FleetError::SchemaMismatch(_)));
        let err = TraceSummary::from_json(&format!(
            r#"{{"schema":"{FLEET_TRACE_SCHEMA}","name":"x","bucket_s":60.0,"buckets":3,"apps":[{{"name":"a","profile":"p","invocations":[1,2]}}]}}"#
        ))
        .unwrap_err();
        assert_eq!(
            err,
            FleetError::Truncated {
                app: "a".into(),
                have: 2,
                want: 3
            }
        );
        assert!(matches!(
            TraceSummary::from_json("{not json"),
            Err(FleetError::Parse(_))
        ));
        let err = TraceSummary::from_json(&format!(
            r#"{{"schema":"{FLEET_TRACE_SCHEMA}","name":"x","bucket_s":60.0,"buckets":1,"apps":[]}}"#
        ))
        .unwrap_err();
        assert_eq!(err, FleetError::EmptyFleet);
    }

    #[test]
    fn csv_ingest_accumulates_and_validates() {
        let csv = "\
# name=prod,bucket_s=60,buckets=3
app,profile,bucket,invocations
frontdoor,cnn,0,4
frontdoor,cnn,2,2
batch,lstm,1,9
frontdoor,cnn,0,1
";
        let summary = TraceSummary::from_csv(csv).unwrap();
        assert_eq!(summary.apps.len(), 2);
        assert_eq!(summary.apps[0].name, "frontdoor");
        assert_eq!(summary.apps[0].invocations, vec![5, 0, 2]);
        assert_eq!(summary.apps[1].invocations, vec![0, 9, 0]);
        assert_eq!(summary.total_invocations(), 16);

        assert!(matches!(
            TraceSummary::from_csv(""),
            Err(FleetError::Parse(_))
        ));
        assert!(matches!(
            TraceSummary::from_csv("# name=x,bucket_s=60,buckets=2\na,p,5,1\n"),
            Err(FleetError::Parse(_))
        ));
        // Truncated mid-row: missing the count column.
        assert!(matches!(
            TraceSummary::from_csv("# name=x,bucket_s=60,buckets=2\na,p,1\n"),
            Err(FleetError::Parse(_))
        ));
        // One app under two profiles is ambiguous.
        assert!(matches!(
            TraceSummary::from_csv("# name=x,bucket_s=60,buckets=2\na,p,0,1\na,q,1,1\n"),
            Err(FleetError::Parse(_))
        ));
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let fleet = small_synth().build("synth", &profiles()).unwrap();
        let a: Vec<(SimTime, u32)> = fleet.arrival_stream(Seed(5)).collect();
        let b: Vec<(SimTime, u32)> = fleet.arrival_stream(Seed(5)).collect();
        let c: Vec<(SimTime, u32)> = fleet.arrival_stream(Seed(6)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
