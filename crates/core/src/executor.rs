//! The executor (paper Figure 3): an open-loop client fleet replaying a
//! workload trace against one simulated serving system.
//!
//! Requests fire at their trace timestamps regardless of outstanding
//! responses (the paper's clients replay a pre-generated workload), each
//! client draws its payload from the shared request pool, and a per-request
//! HTTP timeout converts slow responses into failures — the mechanism
//! behind every success-ratio number in the evaluation.

use crate::batching::{plan_invocations_into, BatchPolicy, InvocationPlan};
use crate::cell::{self, Cell, CellBuffers, CellEvent, Client, PoolCache, Queue, Slots};
use crate::plan::{Deployment, PlanError};
use serde::{Deserialize, Serialize};
use slsb_obs::{EventKind, FaultKind, Recorder, TraceEvent};
use slsb_platform::{
    ColdStartBreakdown, FailureReason, FaultInjector, FaultPlan, NetworkProfile, Outcome, Platform,
    PlatformReport, RequestId, ServingRequest, ServingResponse,
};
use slsb_sim::alloc::{Region, RegionGuard};
use slsb_sim::{Kernel, ProfGuard, Seed, SimDuration, SimRng, SimTime};
use slsb_workload::{RequestPool, WorkloadTrace};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Client retry policy: how an invocation is re-issued after a failed or
/// timed-out attempt. The default (`max_attempts = 1`) disables retries
/// entirely, and the disabled policy is guaranteed to leave the executor's
/// legacy single-attempt path byte-identical.
///
/// An attempt fails when the platform answers with any failure, or when no
/// response reaches the client within [`RetryPolicy::attempt_timeout`] of
/// the attempt being sent. Between attempts the client backs off
/// exponentially — `base_backoff · 2^(attempt-1)` capped at `max_backoff` —
/// plus a deterministic jitter drawn from the run seed's `"retry-backoff"`
/// substream. Retrying never extends the overall client deadline: an
/// attempt that could only fire after `arrival + timeout` is not sent, and
/// a fleet-wide [`RetryPolicy::budget`] bounds total re-sends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per invocation, first send included (1 = disabled).
    #[serde(default = "default_one_attempt")]
    pub max_attempts: u32,
    /// Per-attempt client timeout, measured from the attempt's send.
    #[serde(default = "default_attempt_timeout")]
    pub attempt_timeout: SimDuration,
    /// Backoff before the second attempt; doubles each further attempt.
    #[serde(default = "default_base_backoff")]
    pub base_backoff: SimDuration,
    /// Upper bound on the (pre-jitter) backoff.
    #[serde(default = "default_max_backoff")]
    pub max_backoff: SimDuration,
    /// Jitter fraction: each backoff is stretched by up to this fraction,
    /// drawn deterministically from the run seed.
    #[serde(default = "default_retry_jitter")]
    pub jitter: f64,
    /// Fleet-wide budget of re-sends; once spent, failures resolve
    /// immediately. Guards against retry storms amplifying an outage.
    #[serde(default = "default_retry_budget")]
    pub budget: u64,
}

fn default_one_attempt() -> u32 {
    1
}

fn default_attempt_timeout() -> SimDuration {
    SimDuration::from_secs(10)
}

fn default_base_backoff() -> SimDuration {
    SimDuration::from_millis(500)
}

fn default_max_backoff() -> SimDuration {
    SimDuration::from_secs(8)
}

fn default_retry_jitter() -> f64 {
    0.25
}

fn default_retry_budget() -> u64 {
    u64::MAX
}

fn default_retry() -> RetryPolicy {
    RetryPolicy::disabled()
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

impl RetryPolicy {
    /// The no-retry policy: one attempt, legacy client behavior.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            attempt_timeout: default_attempt_timeout(),
            base_backoff: default_base_backoff(),
            max_backoff: default_max_backoff(),
            jitter: default_retry_jitter(),
            budget: default_retry_budget(),
        }
    }

    /// A sensible enabled policy: 3 attempts, 10 s per attempt, 0.5 s → 8 s
    /// exponential backoff with 25 % jitter, unbounded budget.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::disabled()
        }
    }

    /// Whether the retry machinery is active at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Parses a compact `key=value` spec, e.g.
    /// `"attempts=3,timeout=10,base=0.5,max=8,jitter=0.25,budget=1000"`
    /// (durations in seconds). Unspecified keys keep the
    /// [`RetryPolicy::standard`] values; `"off"` yields the disabled policy.
    ///
    /// # Errors
    /// Returns a description of the first malformed key or value.
    pub fn parse_spec(spec: &str) -> Result<RetryPolicy, String> {
        if spec.trim() == "off" {
            return Ok(RetryPolicy::disabled());
        }
        let mut p = RetryPolicy::standard();
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("retry spec item '{part}' is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
                value
                    .parse()
                    .map_err(|_| format!("retry spec '{key}' has a malformed value '{value}'"))
            }
            match key {
                "attempts" => p.max_attempts = num(key, value)?,
                "timeout" => p.attempt_timeout = SimDuration::from_secs_f64(num(key, value)?),
                "base" => p.base_backoff = SimDuration::from_secs_f64(num(key, value)?),
                "max" => p.max_backoff = SimDuration::from_secs_f64(num(key, value)?),
                "jitter" => p.jitter = num(key, value)?,
                "budget" => p.budget = num(key, value)?,
                other => return Err(format!("unknown retry spec key '{other}'")),
            }
        }
        if p.max_attempts == 0 {
            return Err("retry spec needs attempts >= 1".into());
        }
        if !(0.0..=10.0).contains(&p.jitter) {
            return Err(format!("retry jitter {} out of range [0, 10]", p.jitter));
        }
        Ok(p)
    }
}

/// Client-fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Number of client nodes (the paper uses 8).
    pub clients: usize,
    /// Request-pool size (the paper uses 200).
    pub pool_size: usize,
    /// Client HTTP timeout; a response slower than this counts as failed.
    pub timeout: SimDuration,
    /// Client↔endpoint network path.
    pub network: NetworkProfile,
    /// Batching override: `None` derives [`BatchPolicy::Fixed`] from the
    /// deployment's `batch_size`; `Some` replaces it (used by the adaptive-
    /// batching extension).
    pub batch_override: Option<BatchPolicy>,
    /// Client retry policy (disabled by default).
    #[serde(default = "default_retry")]
    pub retry: RetryPolicy,
    /// Intra-run sharding worker budget. `0` (the default) keeps the
    /// legacy single-sequence replay. Any value ≥ 1 switches to sharded
    /// mode: the run splits into one cell per client (events never cross
    /// cells), cells execute on up to this many workers, and the merged
    /// result is byte-identical for *every* budget — `shards = 1` and
    /// `shards = 64` differ only in thread count. Sharded results differ
    /// from the legacy mode's by design (each cell owns a platform and
    /// draws its own RNG substreams).
    #[serde(default = "default_no_shards")]
    pub shards: usize,
}

fn default_no_shards() -> usize {
    0
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            clients: 8,
            pool_size: RequestPool::DEFAULT_SIZE,
            timeout: SimDuration::from_secs(60),
            network: NetworkProfile::DEFAULT,
            batch_override: None,
            retry: RetryPolicy::disabled(),
            shards: 0,
        }
    }
}

/// The resolved fate of one logical request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Position in the workload trace.
    pub index: usize,
    /// Which client issued it.
    pub client: u32,
    /// Trace arrival instant (when the user "pressed send").
    pub arrival: SimTime,
    /// When the carrying invocation actually fired (later than `arrival`
    /// under batching).
    pub sent_at: SimTime,
    /// Payload bytes attributed to this request.
    pub payload_bytes: u64,
    /// Final outcome after applying the client timeout.
    pub outcome: Outcome,
    /// End-to-end latency from `arrival` to client receive (present for
    /// successes).
    pub latency: Option<SimDuration>,
    /// Cold-start breakdown when one was on this request's path.
    pub cold_start: Option<ColdStartBreakdown>,
    /// Server-side predict time of the carrying invocation.
    pub predict: SimDuration,
    /// Platform-side queueing of the carrying invocation.
    pub queued: SimDuration,
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The deployment that served the run.
    pub deployment: Deployment,
    /// Workload name (e.g. `"workload-120"`), shared with the trace's
    /// interned name rather than cloned per run.
    pub workload: Arc<str>,
    /// Nominal workload duration.
    pub duration: SimDuration,
    /// One record per logical request, trace order.
    pub records: Vec<RequestRecord>,
    /// Platform-side accounting (cost, instances, cold starts).
    pub platform: PlatformReport,
    /// Discrete events the simulation kernel delivered during the run —
    /// cross-checkable against the trace's closing `run_closed` event.
    pub engine_events: u64,
    /// Client-path faults injected (request packets lost in flight).
    pub client_faults: u64,
    /// Re-sends the client fleet issued beyond each invocation's first
    /// attempt (0 whenever the retry policy is disabled).
    pub retries: u64,
}

impl RunResult {
    /// Requests that succeeded.
    pub fn successes(&self) -> impl Iterator<Item = &RequestRecord> + '_ {
        self.records.iter().filter(|r| r.outcome.is_success())
    }

    /// Success ratio over all requests.
    pub fn success_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.successes().count() as f64 / self.records.len() as f64
    }

    /// Fraction of *all* requests answered successfully within `slo` —
    /// failures count against attainment, unlike percentile-of-successes
    /// metrics.
    pub fn slo_attainment(&self, slo: SimDuration) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        let within = self
            .successes()
            .filter(|r| r.latency.expect("success has latency") <= slo)
            .count();
        within as f64 / self.records.len() as f64
    }
}

/// Runs deployments against workload traces.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    cfg: ExecutorConfig,
    faults: FaultPlan,
    kernel: Kernel,
}

/// The executor's client-layer events.
enum ExecEvent {
    /// An invocation's payload reaches the platform. In retry mode the id
    /// encodes the attempt: `id = (attempt - 1) · n_invocations + inv`.
    Deliver(usize),
    /// A platform response reaches the issuing client (retry mode only);
    /// carries an index into the response log.
    ClientRecv(usize),
    /// An attempt's per-attempt timeout expired (retry mode only); carries
    /// the attempt-encoded invocation id.
    AttemptTimeout(usize),
}

/// The client-side fate of one invocation, fixed the moment the issuing
/// client stops waiting (accepts a response, exhausts retries, or hits a
/// deadline).
#[derive(Debug, Clone, Copy)]
struct Resolution {
    outcome: Outcome,
    /// When the client received the resolving response (successes).
    received_at: SimTime,
    predict: SimDuration,
    queued: SimDuration,
    cold_start: Option<ColdStartBreakdown>,
    /// The span's exec phase. After retries it is approximated by the
    /// winning attempt's predict time: the retransmission history makes
    /// the phase algebra of the single-shot path moot.
    exec: SimDuration,
}

/// Run-lifetime buffers, recycled across runs on the same thread.
///
/// Everything the executor used to allocate per run — per-client arrival
/// lists, the invocation plan, the per-invocation tables, retry state,
/// the response log, span scratch — lives here. Buffers are `clear()`ed
/// (keeping capacity) instead of dropped, so on a thread replaying many
/// traces (replication, benches) the steady-state request path performs
/// no per-request heap allocation. One arena per thread via [`ARENA`];
/// worker threads in a sharded or replicated run each get their own.
#[derive(Default)]
struct RunArena {
    client_rngs: Vec<SimRng>,
    per_client: Vec<Vec<(usize, SimTime)>>,
    plan: InvocationPlan,
    payload_per_invocation: Vec<u64>,
    inferences_per_invocation: Vec<u32>,
    net_in: Vec<SimDuration>,
    deadline: Vec<SimTime>,
    attempt: Vec<u32>,
    resolution: Vec<Option<Resolution>>,
    inv_of: Vec<u64>,
    responses: Vec<(usize, ServingResponse)>,
    cell: CellBuffers,
    pools: PoolCache,
}

impl RunArena {
    /// Empties every buffer (keeping capacity) ahead of a run. The pool
    /// cache survives.
    fn begin(&mut self) {
        self.client_rngs.clear();
        for c in &mut self.per_client {
            c.clear();
        }
        self.plan.clear();
        self.payload_per_invocation.clear();
        self.inferences_per_invocation.clear();
        self.net_in.clear();
        self.deadline.clear();
        self.attempt.clear();
        self.resolution.clear();
        self.inv_of.clear();
        self.responses.clear();
        self.cell.clear();
    }
}

thread_local! {
    /// The calling thread's run arena. Runs borrow it for their whole
    /// duration; the executor never re-enters itself, so the `RefCell`
    /// borrow cannot conflict.
    static ARENA: RefCell<RunArena> = RefCell::new(RunArena::default());
}

/// The executor's client layer: open-loop clients replaying invocations
/// against the cell's one platform (slot 0), with the retry machinery on
/// top.
struct ExecClient<'r> {
    payload_per_invocation: &'r [u64],
    inferences_per_invocation: &'r [u32],
    /// Response log: invocation idx (attempt-encoded in retry mode) →
    /// platform response.
    responses: &'r mut Vec<(usize, ServingResponse)>,
    /// Client-path fault injector (packet loss, request-path jitter).
    client_faults: FaultInjector,
    /// Retry machinery; everything below is inert when it is disabled.
    retry: RetryPolicy,
    /// Invocation count, for decoding attempt-encoded request ids.
    n_inv: usize,
    /// Network time on each invocation's request path (pre-jitter).
    net_in: &'r [SimDuration],
    /// Response-path network time.
    response_net: SimDuration,
    /// Per-invocation overall client deadline (`send_at + timeout`).
    deadline: &'r [SimTime],
    /// Current attempt per invocation, 1-based (retry mode only).
    attempt: &'r mut [u32],
    /// Client-side fate per invocation, once fixed: online in retry mode,
    /// after the run on a traced legacy run (empty otherwise).
    resolution: &'r mut [Option<Resolution>],
    /// Re-sends issued so far, bounded by the policy budget.
    retries_used: u64,
    /// Deterministic jitter source for retry backoffs.
    backoff_rng: SimRng,
    /// The platform's report, taken at teardown.
    report: Option<PlatformReport>,
}

impl ExecClient<'_> {
    fn decode(&self, id: usize) -> (usize, u32) {
        let n = self.n_inv.max(1);
        (id % n, (id / n) as u32 + 1)
    }

    /// Whether an event about `inv`'s attempt `attempt` is stale: the
    /// invocation already resolved, or the client has moved on to a later
    /// attempt (late responses from abandoned attempts are dropped).
    fn stale(&self, inv: usize, attempt: u32) -> bool {
        self.resolution[inv].is_some() || self.attempt[inv] != attempt
    }

    /// One attempt failed (platform failure or per-attempt timeout):
    /// schedule the next attempt if policy, budget, and the overall
    /// deadline allow, otherwise fix the invocation's failure.
    fn attempt_failed(&mut self, queue: &mut Queue<ExecEvent>, inv: usize, reason: FailureReason) {
        let attempt = self.attempt[inv];
        let now = queue.now();
        if attempt < self.retry.max_attempts && self.retries_used < self.retry.budget {
            let base = (self.retry.base_backoff.as_secs_f64()
                * f64::from(1u32 << (attempt - 1).min(20)))
            .min(self.retry.max_backoff.as_secs_f64());
            let jitter = if self.retry.jitter > 0.0 {
                base * self.retry.jitter * self.backoff_rng.uniform()
            } else {
                0.0
            };
            let send_at = now + SimDuration::from_secs_f64(base + jitter);
            if send_at <= self.deadline[inv] {
                self.retries_used += 1;
                self.attempt[inv] = attempt + 1;
                let id = attempt as usize * self.n_inv + inv;
                let deliver_at = send_at + self.net_in[inv] + self.client_faults.client_jitter();
                queue.schedule_at(deliver_at, CellEvent::Client(ExecEvent::Deliver(id)));
                queue.schedule_at(
                    send_at + self.retry.attempt_timeout,
                    CellEvent::Client(ExecEvent::AttemptTimeout(id)),
                );
                return;
            }
        }
        // No further attempt: exhausted attempts surface as their own
        // failure class; budget or deadline exhaustion keeps the last
        // attempt's own reason.
        let final_reason = if attempt >= self.retry.max_attempts {
            FailureReason::RetriesExhausted
        } else {
            reason
        };
        self.resolution[inv] = Some(Resolution {
            outcome: Outcome::Failure(final_reason),
            received_at: now,
            predict: SimDuration::ZERO,
            queued: SimDuration::ZERO,
            cold_start: None,
            exec: SimDuration::ZERO,
        });
    }
}

impl Client for ExecClient<'_> {
    type Ev = ExecEvent;

    fn on_event(
        &mut self,
        slots: &mut Slots<'_>,
        queue: &mut Queue<ExecEvent>,
        _at: SimTime,
        ev: ExecEvent,
    ) {
        match ev {
            ExecEvent::Deliver(id) => {
                let (inv, attempt) = self.decode(id);
                if self.retry.enabled() && self.stale(inv, attempt) {
                    return;
                }
                if self.client_faults.drop_packet() {
                    // The platform never sees the request; the attempt
                    // timeout (retry mode) or the client timeout (legacy
                    // mode) is what the client eventually observes.
                    if let Some(r) = slots.recorder().filter(|r| r.enabled()) {
                        r.record(&TraceEvent {
                            at: queue.now(),
                            kind: EventKind::Fault {
                                component: None,
                                kind: FaultKind::PacketLoss,
                            },
                        });
                    }
                    return;
                }
                let req = ServingRequest {
                    id: RequestId(id as u64),
                    arrival: queue.now(),
                    payload_bytes: self.payload_per_invocation[inv],
                    inferences: self.inferences_per_invocation[inv],
                };
                slots.submit(queue, 0, req);
            }
            ExecEvent::ClientRecv(idx) => {
                let (id, resp) = self.responses[idx];
                let (inv, attempt) = self.decode(id);
                if self.stale(inv, attempt) {
                    return;
                }
                match resp.outcome {
                    Outcome::Success => {
                        self.resolution[inv] = Some(Resolution {
                            outcome: Outcome::Success,
                            received_at: queue.now(),
                            predict: resp.predict,
                            queued: resp.queued,
                            cold_start: resp.cold_start,
                            exec: resp.predict,
                        });
                    }
                    Outcome::Failure(reason) => self.attempt_failed(queue, inv, reason),
                }
            }
            ExecEvent::AttemptTimeout(id) => {
                let (inv, attempt) = self.decode(id);
                if self.stale(inv, attempt) {
                    return;
                }
                self.attempt_failed(queue, inv, FailureReason::ClientTimeout);
            }
        }
    }

    /// Logs the response; in retry mode it also reaches the client one
    /// response-path transfer later, unless the engine has stopped (late
    /// receipts can no longer matter).
    fn on_response(
        &mut self,
        queue: Option<&mut Queue<ExecEvent>>,
        _rec: Option<&mut dyn Recorder>,
        _slot: u32,
        resp: ServingResponse,
    ) {
        let idx = self.responses.len();
        if let (true, Some(queue)) = (self.retry.enabled(), queue) {
            queue.schedule_at(
                resp.completed_at + self.response_net,
                CellEvent::Client(ExecEvent::ClientRecv(idx)),
            );
        }
        self.responses.push((resp.id.0 as usize, resp));
    }

    fn close_slot(&mut self, _slot: u32, platform: &Platform, _rec: Option<&mut dyn Recorder>) {
        self.report = Some(platform.report());
    }
}

impl Executor {
    /// An executor with the given configuration.
    pub fn new(cfg: ExecutorConfig) -> Self {
        Executor {
            cfg,
            faults: FaultPlan::none(),
            kernel: Kernel::default(),
        }
    }

    /// Selects the event-queue kernel for every run this executor performs.
    /// Both kernels deliver identical results; the non-default [`Kernel::Heap`]
    /// exists so `slsb bench` can measure the timer wheel against the
    /// original binary-heap scheduler on the same code path.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// Installs a fault plan on every run this executor performs. The plan
    /// is threaded into the platform (crashes, storage faults, throttling,
    /// outages) and into the client path (jitter, packet loss); an empty
    /// plan is a byte-identical no-op.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Enables intra-run sharding with the given worker budget; see
    /// [`ExecutorConfig::shards`].
    #[must_use]
    pub fn with_shards(mut self, workers: usize) -> Self {
        self.cfg.shards = workers.max(1);
        self
    }

    /// The sharding worker budget, if sharded mode is on.
    pub fn shards(&self) -> Option<usize> {
        (self.cfg.shards > 0).then_some(self.cfg.shards)
    }

    /// Replays `trace` against `deployment`, returning per-request records
    /// and the platform report.
    ///
    /// # Errors
    /// Fails when the deployment is invalid.
    pub fn run(
        &self,
        deployment: &Deployment,
        trace: &WorkloadTrace,
        seed: Seed,
    ) -> Result<RunResult, PlanError> {
        if self.shards().is_some() {
            return self.run_sharded(deployment, trace, seed, None);
        }
        let platform = deployment.build(seed)?;
        Ok(self.run_built(deployment, platform, trace, seed))
    }

    /// Like [`Executor::run`] but streams every trace event — platform
    /// lifecycle, per-request spans, and the closing summary — into `rec`.
    /// Recording is write-only: the returned [`RunResult`] is identical to
    /// the one an unrecorded run produces.
    ///
    /// # Errors
    /// Fails when the deployment is invalid.
    pub fn run_recorded(
        &self,
        deployment: &Deployment,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: &mut dyn Recorder,
    ) -> Result<RunResult, PlanError> {
        if self.shards().is_some() {
            return self.run_sharded(deployment, trace, seed, Some(rec));
        }
        let platform = deployment.build(seed)?;
        Ok(self.run_built_recorded(deployment, platform, trace, seed, Some(rec)))
    }

    /// Replays `trace` against an already-built platform. This is the
    /// ablation entry point: callers may hand-construct a platform whose
    /// knobs the [`Deployment`] surface does not expose (e.g. a custom
    /// over-provisioning factor); `deployment` is then only descriptive
    /// metadata for the records. Always the legacy single-sequence path:
    /// a single pre-built platform cannot be split into shard cells, so
    /// [`ExecutorConfig::shards`] is ignored here.
    pub fn run_built(
        &self,
        deployment: &Deployment,
        platform: Platform,
        trace: &WorkloadTrace,
        seed: Seed,
    ) -> RunResult {
        self.run_built_recorded(deployment, platform, trace, seed, None)
    }

    /// [`Executor::run_built`] with an optional trace recorder attached.
    // The `as_deref_mut` below is not needless: `&mut dyn Recorder` is
    // invariant, so the trait object must be re-created via a reborrow for
    // its lifetime to shrink to the closure-local arena borrow.
    #[allow(clippy::needless_option_as_deref)]
    pub fn run_built_recorded(
        &self,
        deployment: &Deployment,
        platform: Platform,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: Option<&mut dyn Recorder>,
    ) -> RunResult {
        let mut rec = rec;
        let run = ARENA.with(|arena| {
            self.run_cell(
                deployment,
                platform,
                trace,
                0..self.cfg.clients.max(1) as u32,
                trace.arrivals().iter().copied().enumerate(),
                seed,
                rec.as_deref_mut().map(|r| r as &mut dyn Recorder),
                &mut arena.borrow_mut(),
            )
        });
        // The one cell recorded straight into `rec`; close the run there.
        if let Some(r) = rec.filter(|r| r.enabled()) {
            let horizon = cell::horizon(trace.duration(), self.cfg.timeout);
            cell::close_run(r, horizon, run.engine_events, run.records.len() as u64);
        }
        run
    }

    /// Sharded replay: the run splits into one cell per client — no event,
    /// RNG draw, or platform state crosses a cell boundary — and the cells
    /// execute on up to [`ExecutorConfig::shards`] workers. Each cell owns
    /// a platform built from `seed`'s `("shard", client)` substream and
    /// replays exactly one client's requests; outputs merge in canonical
    /// cell order, so the result is byte-identical for every worker
    /// budget.
    fn run_sharded(
        &self,
        deployment: &Deployment,
        trace: &WorkloadTrace,
        seed: Seed,
        rec: Option<&mut dyn Recorder>,
    ) -> Result<RunResult, PlanError> {
        let clients = self.cfg.clients.max(1);
        let tracing = rec.as_deref().is_some_and(|r| r.enabled());
        // Validate the deployment once up front so every cell below can
        // assume it builds (build is deterministic in its seed).
        deployment.build(seed.substream_indexed("shard", 0))?;

        // Canonical cells: requests go to clients round-robin exactly as in
        // the legacy splitter, and each client becomes one cell. The
        // decomposition depends only on the trace and the client count,
        // never on the worker budget.
        let n = trace.arrivals().len();
        let mut cells: Vec<Vec<(usize, SimTime)>> = vec![Vec::new(); clients];
        for (i, &arrival) in trace.arrivals().iter().enumerate() {
            cells[i % clients].push((i, arrival));
        }

        let outs = cell::fan_out(self.cfg.shards.max(1), clients, tracing, |c, cell_rec| {
            let cell_seed = seed.substream_indexed("shard", c as u64);
            let platform = deployment
                .build(cell_seed)
                .expect("deployment validated above");
            ARENA.with(|arena| {
                self.run_cell(
                    deployment,
                    platform,
                    trace,
                    c as u32..c as u32 + 1,
                    cells[c].iter().copied(),
                    cell_seed,
                    cell_rec.map(|r| r as &mut dyn Recorder),
                    &mut arena.borrow_mut(),
                )
            })
        });

        // Cell c's k-th record is global request c + k·clients, so records
        // interleave back by index.
        let records: Vec<RequestRecord> = (0..n)
            .map(|i| outs[i % clients].0.records[i / clients])
            .collect();
        let reports: Vec<PlatformReport> = outs.iter().map(|(o, _)| o.platform.clone()).collect();
        let engine_events: u64 = outs.iter().map(|(o, _)| o.engine_events).sum();
        let client_faults: u64 = outs.iter().map(|(o, _)| o.client_faults).sum();
        let retries: u64 = outs.iter().map(|(o, _)| o.retries).sum();
        if let Some(r) = rec.filter(|r| r.enabled()) {
            let horizon = cell::horizon(trace.duration(), self.cfg.timeout);
            let traces = outs.into_iter().filter_map(|(_, t)| t);
            cell::merge_traces(r, "executor/merge", traces, horizon, engine_events, n as u64);
        }
        Ok(RunResult {
            deployment: *deployment,
            workload: trace.shared_name(),
            duration: trace.duration(),
            records,
            platform: PlatformReport::merge_shards(&reports),
            engine_events,
            client_faults,
            retries,
        })
    }

    /// Replays `arrivals` — `(index, arrival)` pairs of `trace` in arrival
    /// order, dealt round-robin to `clients` — against one platform: the
    /// whole trace over every client in legacy mode, or one client's
    /// requests in a shard cell. All run-lifetime state lives in `arena`,
    /// recycled across calls on the same thread.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn run_cell<'a>(
        &self,
        deployment: &Deployment,
        platform: Platform,
        trace: &WorkloadTrace,
        clients: Range<u32>,
        arrivals: impl ExactSizeIterator<Item = (usize, SimTime)>,
        seed: Seed,
        rec: Option<&'a mut dyn Recorder>,
        arena: &'a mut RunArena,
    ) -> RunResult {
        // Root-attached on purpose: a cell runs inline under `--jobs 1`
        // but on a pool worker otherwise, and the profile tree must not
        // depend on which thread hosts it.
        let _cell = ProfGuard::enter_root("executor/cell");
        let duration = trace.duration();
        let tracing = rec.as_deref().is_some_and(|r| r.enabled());
        let retrying = self.cfg.retry.enabled();
        let mut platform = platform;
        // An empty plan installs an injector that never draws, so this is
        // unconditional without costing byte-identity.
        platform.set_faults(&self.faults, seed);
        let n = arrivals.len();
        platform.reserve(n);
        let first_client = clients.start;
        let clients = clients.len();

        let arrivals_guard = ProfGuard::enter("executor/arrivals");
        arena.begin();
        if arena.per_client.len() < clients {
            arena.per_client.resize_with(clients, Vec::new);
        }
        let RunArena {
            client_rngs,
            per_client,
            plan,
            payload_per_invocation,
            inferences_per_invocation,
            net_in,
            deadline,
            attempt,
            resolution,
            inv_of,
            responses,
            cell: cell_bufs,
            pools,
        } = arena;

        let pool = pools.get(deployment, self.cfg.pool_size);

        // Assign requests to clients round-robin (the paper's splitter) and
        // draw payloads from the pool. Each client's RNG stream is keyed by
        // its id, so a shard cell's one client draws what it would in the
        // whole run.
        client_rngs.extend(
            (0..clients).map(|c| seed.substream_indexed("client", u64::from(first_client) + c as u64).rng()),
        );
        let mut records: Vec<RequestRecord> = Vec::with_capacity(n);
        let blank = |index: usize, client: u32, arrival: SimTime, payload_bytes: u64| {
            RequestRecord {
                index,
                client,
                arrival,
                sent_at: arrival,
                payload_bytes,
                outcome: Outcome::Failure(FailureReason::ClientTimeout),
                latency: None,
                cold_start: None,
                predict: SimDuration::ZERO,
                queued: SimDuration::ZERO,
            }
        };
        {
            let _rng = ProfGuard::enter("rng");
            for (local, (global, arrival)) in arrivals.enumerate() {
                let slot = local % clients;
                let payload = pool.pick(&mut client_rngs[slot]);
                let client = first_client + slot as u32;
                records.push(blank(global, client, arrival, payload.size_bytes));
                // Plan members index the *local* record table.
                per_client[slot].push((local, arrival));
            }
        }

        // Group each client's requests into invocations.
        let policy = self
            .cfg
            .batch_override
            .unwrap_or(if deployment.batch_size > 1 {
                BatchPolicy::Fixed(deployment.batch_size)
            } else {
                BatchPolicy::None
            });
        for arrivals in per_client.iter().take(clients) {
            plan_invocations_into(arrivals, policy, plan);
        }
        let n_inv = plan.len();
        // Record when each request's invocation fired, and (when tracing)
        // which invocation carries each record — the join key to the
        // platform's per-invocation trace events.
        if tracing {
            inv_of.resize(n, 0);
        }
        for inv_idx in 0..n_inv {
            let send_at = plan.send_at(inv_idx);
            for &m in plan.members(inv_idx) {
                records[m as usize].sent_at = send_at;
                if tracing {
                    inv_of[m as usize] = inv_idx as u64;
                }
            }
        }
        payload_per_invocation.extend((0..n_inv).map(|i| {
            plan.members(i)
                .iter()
                .map(|&m| records[m as usize].payload_bytes)
                .sum::<u64>()
        }));
        inferences_per_invocation
            .extend((0..n_inv).map(|i| plan.members(i).len() as u32 * deployment.inference_repeats));

        let client_faults =
            FaultInjector::new(self.faults.clone(), seed.substream("client-faults"));
        net_in.extend(
            payload_per_invocation
                .iter()
                .map(|&bytes| self.cfg.network.transfer_time(bytes)),
        );
        if retrying {
            deadline.extend((0..n_inv).map(|i| plan.send_at(i) + self.cfg.timeout));
            attempt.resize(n_inv, 1);
        }
        if retrying || tracing {
            resolution.resize(n_inv, None);
        }
        // Deliveries (and in retry mode, their timeouts) are scheduled up
        // front, so the queue's high-water mark is about one entry per
        // invocation plus in-flight platform events.
        drop(arrivals_guard);
        let engine_guard = ProfGuard::enter("executor/engine");
        let queue_cap = if retrying { 2 * n + 64 } else { n + 64 };
        responses.reserve(n_inv);
        cell_bufs.platforms.push(platform);
        let client = ExecClient {
            payload_per_invocation: payload_per_invocation.as_slice(),
            inferences_per_invocation: inferences_per_invocation.as_slice(),
            responses,
            client_faults,
            retry: self.cfg.retry,
            n_inv,
            net_in: net_in.as_slice(),
            response_net: self.cfg.network.response_time(),
            deadline: deadline.as_slice(),
            attempt: attempt.as_mut_slice(),
            resolution: resolution.as_mut_slice(),
            retries_used: 0,
            backoff_rng: seed.substream("retry-backoff").rng(),
            report: None,
        };
        let mut cell = Cell::start(
            cell_bufs,
            client,
            rec,
            self.kernel,
            queue_cap,
            duration,
            self.cfg.timeout,
        );

        // Invocation deliveries: network transfer (plus client-path
        // jitter, drawn in invocation order; retry-time draws then follow
        // in event order) happens on the way in. In retry mode each first
        // attempt also arms its attempt timeout. One batched kernel call
        // replaces per-event dispatch; iteration order matches the legacy
        // per-event loop, so sequence numbers — and therefore same-instant
        // FIFO ties — are unchanged.
        let (client, queue) = cell.parts();
        let mut deliver = |idx: usize| {
            let jitter = client.client_faults.client_jitter();
            let at = plan.send_at(idx) + client.net_in[idx] + jitter;
            (at, CellEvent::Client(ExecEvent::Deliver(idx)))
        };
        if retrying {
            let attempt_timeout = self.cfg.retry.attempt_timeout;
            queue.schedule_many((0..n_inv).flat_map(|idx| {
                let timeout = CellEvent::Client(ExecEvent::AttemptTimeout(idx));
                [deliver(idx), (plan.send_at(idx) + attempt_timeout, timeout)]
            }));
        } else {
            queue.schedule_many((0..n_inv).map(deliver));
        }
        let engine_events = cell.run();
        let (client, recorder) = cell.finish();
        drop(engine_guard);
        let _resolve = ProfGuard::enter("executor/resolve");

        // Retry mode resolved invocations online, at client-receive time;
        // the legacy path resolves each invocation by its one response (and
        // keeps the resolution only when spans need it). Invocations with
        // no resolution (still waiting at the horizon) keep the default
        // client-timeout outcome.
        let response_net = self.cfg.network.response_time();
        let resolution = client.resolution;
        let mut resolve = |inv: usize, res: &Resolution| {
            for &m in plan.members(inv) {
                let rec = &mut records[m as usize];
                rec.predict = res.predict;
                rec.queued = res.queued;
                rec.cold_start = res.cold_start;
                let e2e = res.received_at.saturating_duration_since(rec.arrival);
                rec.outcome = match res.outcome {
                    Outcome::Success if e2e <= self.cfg.timeout => {
                        rec.latency = Some(e2e);
                        Outcome::Success
                    }
                    Outcome::Success => Outcome::Failure(FailureReason::ClientTimeout),
                    failure => failure,
                };
            }
        };
        if retrying {
            for (inv, res) in resolution.iter().enumerate() {
                if let Some(res) = res {
                    resolve(inv, res);
                }
            }
        } else {
            for &(inv, resp) in client.responses.iter() {
                let mut res = Resolution {
                    outcome: resp.outcome,
                    received_at: resp.completed_at + response_net,
                    predict: resp.predict,
                    queued: resp.queued,
                    cold_start: resp.cold_start,
                    exec: SimDuration::ZERO,
                };
                resolve(inv, &res);
                if tracing {
                    // What remains of the platform's span after its own
                    // queueing; exact for successes.
                    let delivered = plan.send_at(inv) + net_in[inv];
                    res.exec = resp
                        .completed_at
                        .saturating_duration_since(delivered + resp.queued);
                    resolution[inv] = Some(res);
                }
            }
        }

        if let Some(r) = recorder.filter(|r| r.enabled()) {
            let _region = RegionGuard::enter(Region::Obs);
            let _p = ProfGuard::enter("executor/spans");
            let horizon = cell::horizon(duration, self.cfg.timeout);
            for (rec, &inv) in records.iter().zip(inv_of.iter()) {
                let (at, net_in, exec, net_out) = match resolution[inv as usize] {
                    Some(res) => (res.received_at, net_in[inv as usize], res.exec, response_net),
                    // The platform never answered: the client's timeout is
                    // the whole story, no server-side phases.
                    None => (horizon, SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO),
                };
                cell::record_span(r, at, rec, inv, net_in, exec, net_out);
            }
        }

        RunResult {
            deployment: *deployment,
            workload: trace.shared_name(),
            duration,
            records,
            platform: client.report.expect("the cell closed its one slot"),
            engine_events,
            client_faults: client.client_faults.injected(),
            retries: client.retries_used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slsb_model::{ModelKind, RuntimeKind};
    use slsb_platform::PlatformKind;

    use slsb_workload::{MmppSpec, WorkloadTrace};

    fn small_trace(rate: f64, secs: u64) -> WorkloadTrace {
        MmppSpec {
            name: "test",
            rate_high: rate,
            rate_low: rate / 4.0,
            mean_high_dwell: SimDuration::from_secs(20),
            mean_low_dwell: SimDuration::from_secs(40),
            duration: SimDuration::from_secs(secs),
        }
        .generate(Seed(99))
    }

    fn deployment(platform: PlatformKind) -> Deployment {
        Deployment::new(platform, ModelKind::MobileNet, RuntimeKind::Tf115)
    }

    #[test]
    fn every_request_is_resolved() {
        let exec = Executor::default();
        let trace = small_trace(10.0, 120);
        for platform in [
            PlatformKind::AwsServerless,
            PlatformKind::AwsManagedMl,
            PlatformKind::AwsCpu,
            PlatformKind::AwsGpu,
        ] {
            let run = exec.run(&deployment(platform), &trace, Seed(1)).unwrap();
            assert_eq!(run.records.len(), trace.len());
            // No unresolved successes-without-latency.
            for r in &run.records {
                if r.outcome.is_success() {
                    assert!(r.latency.is_some());
                }
            }
        }
    }

    #[test]
    fn serverless_succeeds_under_burst() {
        let exec = Executor::default();
        let trace = small_trace(30.0, 120);
        let run = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(2))
            .unwrap();
        assert!(run.success_ratio() > 0.99, "SR {}", run.success_ratio());
        assert!(run.platform.cold_started > 0);
    }

    #[test]
    fn warm_serverless_latency_is_small() {
        let exec = Executor::default();
        let trace = small_trace(10.0, 300);
        let run = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(3))
            .unwrap();
        // Average warm latency (excluding cold starts) well under a second.
        let warm: Vec<f64> = run
            .successes()
            .filter(|r| r.cold_start.is_none())
            .filter_map(|r| r.latency.map(|l| l.as_secs_f64()))
            .collect();
        assert!(!warm.is_empty());
        let mean = warm.iter().sum::<f64>() / warm.len() as f64;
        assert!(mean < 0.3, "warm mean {mean}");
    }

    #[test]
    fn cpu_server_collapses_at_high_rate() {
        let exec = Executor::default();
        let trace = small_trace(120.0, 180);
        let run = exec
            .run(&deployment(PlatformKind::AwsCpu), &trace, Seed(4))
            .unwrap();
        assert!(
            run.success_ratio() < 0.8,
            "CPU server should drop requests: SR {}",
            run.success_ratio()
        );
    }

    #[test]
    fn batching_delays_requests_but_cuts_invocations() {
        let exec = Executor::default();
        let trace = small_trace(20.0, 120);
        let single = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(5))
            .unwrap();
        let batched_dep = deployment(PlatformKind::AwsServerless).with_batch_size(8);
        let batched = exec.run(&batched_dep, &trace, Seed(5)).unwrap();
        assert!(batched.platform.invocations * 4 < single.platform.invocations);
        let mean = |r: &RunResult| {
            let v: Vec<f64> = r
                .successes()
                .filter_map(|x| x.latency.map(|l| l.as_secs_f64()))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(&batched) > mean(&single), "batching must add latency");
    }

    #[test]
    fn batched_records_share_invocation_but_keep_own_arrival() {
        let exec = Executor::default();
        let trace = small_trace(20.0, 60);
        let dep = deployment(PlatformKind::AwsServerless).with_batch_size(4);
        let run = exec.run(&dep, &trace, Seed(6)).unwrap();
        // sent_at ≥ arrival always; strictly greater for early batch members.
        assert!(run.records.iter().all(|r| r.sent_at >= r.arrival));
        assert!(run.records.iter().any(|r| r.sent_at > r.arrival));
    }

    #[test]
    fn invalid_deployment_is_rejected() {
        let exec = Executor::default();
        let trace = small_trace(5.0, 30);
        let dep = Deployment::new(
            PlatformKind::GcpManagedMl,
            ModelKind::MobileNet,
            RuntimeKind::Ort14,
        );
        assert!(exec.run(&dep, &trace, Seed(7)).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let exec = Executor::default();
        let trace = small_trace(15.0, 90);
        let dep = deployment(PlatformKind::AwsServerless);
        let a = exec.run(&dep, &trace, Seed(8)).unwrap();
        let b = exec.run(&dep, &trace, Seed(8)).unwrap();
        assert_eq!(a.records, b.records);
        let c = exec.run(&dep, &trace, Seed(9)).unwrap();
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn empty_trace_runs_cleanly() {
        let exec = Executor::default();
        let trace = WorkloadTrace::new("empty", SimDuration::from_secs(10), vec![]);
        let run = exec
            .run(&deployment(PlatformKind::AwsServerless), &trace, Seed(10))
            .unwrap();
        assert!(run.records.is_empty());
        assert_eq!(run.success_ratio(), 1.0);
    }
}
