//! The cell engine: the one event loop under every run.
//!
//! A *cell* is the unit both run modes simulate: a set of platform slots
//! driven by one event queue, with a client layer on top that turns
//! arrivals into submissions and responses into outcomes. The executor
//! runs single-platform cells (the whole trace, or one client's shard);
//! the fleet runner runs cells of many apps, one platform slot each. The
//! steps they share live here, once:
//!
//! - platform start-up at t = 0, the scheduler hand-off around every
//!   platform call, and the response drain after it ([`Cell`]);
//! - the horizon and teardown instants ([`horizon`], [`Cell::finish`]);
//! - the trace's `RequestSpan` ([`record_span`]);
//! - fanning cells out over worker threads and merging their traces,
//!   closed by one `RunClosed` ([`fan_out`], [`merge_traces`]).
//!
//! The client layer is a type parameter ([`Client`]), so the per-event
//! path is monomorphized: nothing between the kernel and a platform goes
//! through a `dyn` call.

use crate::executor::RequestRecord;
use crate::plan::Deployment;
use crate::runner::{parallel_map, Jobs};
use slsb_obs::{EventKind, MemoryRecorder, Recorder, SpanOutcome, TraceEvent};
use slsb_platform::{
    FailureReason, Outcome, Platform, PlatformEvent, PlatformScheduler, ServingRequest,
    ServingResponse,
};
use slsb_sim::alloc::{Region, RegionGuard};
use slsb_sim::{Engine, EventQueue, Kernel, ProfGuard, SimDuration, SimTime, System};
use slsb_workload::{InputKind, RequestPool};

/// One event of a cell.
pub(crate) enum CellEvent<C> {
    /// A platform-internal event for slot `.0`.
    Platform(u32, PlatformEvent),
    /// An event of the client layer.
    Client(C),
}

/// A cell's event queue.
pub(crate) type Queue<C> = EventQueue<CellEvent<C>>;

/// The request source and outcome bookkeeping on top of a cell's
/// platforms.
pub(crate) trait Client {
    /// The client layer's own events.
    type Ev;

    /// Handles one client event. A request goes to a platform through
    /// [`Slots::submit`] (at most once per event); the cell drains that
    /// slot's responses afterwards.
    fn on_event(
        &mut self,
        slots: &mut Slots<'_>,
        queue: &mut Queue<Self::Ev>,
        at: SimTime,
        ev: Self::Ev,
    );

    /// Takes one response drained from `slot`. `queue` is `None` for the
    /// responses drained at teardown, after the engine has stopped.
    fn on_response(
        &mut self,
        queue: Option<&mut Queue<Self::Ev>>,
        rec: Option<&mut dyn Recorder>,
        slot: u32,
        resp: ServingResponse,
    );

    /// Closes `slot` at teardown, after its last response.
    fn close_slot(&mut self, slot: u32, platform: &Platform, rec: Option<&mut dyn Recorder>);
}

/// When a run stops delivering events: the workload's end, plus one
/// client timeout so every request can resolve, plus a 30 s drain window.
pub(crate) fn horizon(duration: SimDuration, timeout: SimDuration) -> SimTime {
    SimTime::ZERO + duration + timeout + SimDuration::from_secs(30)
}

/// Request pools already generated, keyed by `(input kind, size, samples
/// per request)`. A pool is a pure function of its key, so reuse never
/// changes results.
#[derive(Default)]
pub(crate) struct PoolCache(Vec<((InputKind, usize, u32), RequestPool)>);

impl PoolCache {
    /// The `size`-entry pool `deployment`'s clients draw payloads from.
    pub(crate) fn get(&mut self, deployment: &Deployment, size: usize) -> &RequestPool {
        let kind = if deployment.model.profile().image_input {
            InputKind::Image
        } else {
            InputKind::Text
        };
        let key = (kind, size, deployment.samples_per_request);
        let i = match self.0.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let pool = RequestPool::generate(kind, size).with_samples_per_request(key.2);
                self.0.push((key, pool));
                self.0.len() - 1
            }
        };
        &self.0[i].1
    }
}

/// A cell's platforms and the scratch buffers every platform call shares;
/// kept between runs so a thread replaying many cells reuses capacity.
#[derive(Default)]
pub(crate) struct CellBuffers {
    /// The platform of each slot, slot order. [`Cell::finish`] empties it.
    pub(crate) platforms: Vec<Platform>,
    events: Vec<(SimDuration, PlatformEvent)>,
    responses: Vec<ServingResponse>,
}

impl CellBuffers {
    /// Empties every buffer, keeping capacity (a run that panicked may
    /// have left state behind).
    pub(crate) fn clear(&mut self) {
        self.platforms.clear();
        self.events.clear();
        self.responses.clear();
    }
}

/// The platform side of a running cell, as the client layer sees it.
pub(crate) struct Slots<'r> {
    platforms: &'r mut Vec<Platform>,
    events: &'r mut Vec<(SimDuration, PlatformEvent)>,
    rec: Option<&'r mut dyn Recorder>,
    /// The slot the current client event submitted to, if any.
    submitted: Option<u32>,
}

impl Slots<'_> {
    /// Runs `f` on `slot`'s platform with a scheduler at the queue's
    /// current instant, then moves the events it scheduled onto the queue
    /// in one batch (sequence numbers in emission order).
    fn call<C, R>(
        &mut self,
        queue: &mut Queue<C>,
        slot: u32,
        f: impl FnOnce(&mut Platform, &mut PlatformScheduler<'_>) -> R,
    ) -> R {
        let r = {
            let platform = &mut self.platforms[slot as usize];
            let _region = RegionGuard::enter(Region::Platform);
            let _p = ProfGuard::enter(platform.prof_label());
            let rec = self.rec.as_deref_mut().map(|r| r as &mut dyn Recorder);
            let mut sched = PlatformScheduler::with_recorder(queue.now(), self.events, rec);
            f(platform, &mut sched)
        };
        if !self.events.is_empty() {
            queue.schedule_many_after(
                self.events
                    .drain(..)
                    .map(|(d, e)| (d, CellEvent::Platform(slot, e))),
            );
        }
        r
    }

    /// Delivers `req` to `slot`'s platform.
    pub(crate) fn submit<C>(&mut self, queue: &mut Queue<C>, slot: u32, req: ServingRequest) {
        self.call(queue, slot, |p, s| p.submit(s, req));
        self.submitted = Some(slot);
    }

    /// The run's trace sink, if recording.
    pub(crate) fn recorder(&mut self) -> Option<&mut dyn Recorder> {
        self.rec.as_deref_mut().map(|r| r as &mut dyn Recorder)
    }
}

struct CellSystem<'r, C> {
    slots: Slots<'r>,
    responses: &'r mut Vec<ServingResponse>,
    client: C,
}

impl<C: Client> CellSystem<'_, C> {
    /// Hands every response `slot` has completed to the client.
    fn drain(&mut self, mut queue: Option<&mut Queue<C::Ev>>, slot: u32) {
        let platform = &mut self.slots.platforms[slot as usize];
        // Most events complete nothing; probe before paying for scope
        // guards and the buffer hand-off.
        if !platform.has_responses() {
            return;
        }
        {
            let _region = RegionGuard::enter(Region::Platform);
            let _p = ProfGuard::enter(platform.prof_label());
            platform.drain_responses_into(self.responses);
        }
        for resp in self.responses.drain(..) {
            let rec = self
                .slots
                .rec
                .as_deref_mut()
                .map(|r| r as &mut dyn Recorder);
            self.client
                .on_response(queue.as_deref_mut(), rec, slot, resp);
        }
    }
}

impl<C: Client> System for CellSystem<'_, C> {
    type Ev = CellEvent<C::Ev>;

    fn handle(&mut self, queue: &mut Queue<C::Ev>, at: SimTime, ev: CellEvent<C::Ev>) {
        let slot = match ev {
            CellEvent::Platform(slot, e) => {
                self.slots.call(queue, slot, |p, s| p.handle(s, e));
                slot
            }
            CellEvent::Client(ev) => {
                self.client.on_event(&mut self.slots, queue, at, ev);
                match self.slots.submitted.take() {
                    Some(slot) => slot,
                    None => return,
                }
            }
        };
        self.drain(Some(queue), slot);
    }
}

/// One cell under simulation.
pub(crate) struct Cell<'r, C: Client> {
    engine: Engine<CellSystem<'r, C>>,
    duration: SimDuration,
    horizon: SimTime,
}

impl<'r, C: Client> Cell<'r, C> {
    /// Builds the cell's queue and starts every platform in `bufs` at
    /// t = 0, in slot order. The client seeds its first events through
    /// [`Cell::parts`] before [`Cell::run`].
    pub(crate) fn start(
        bufs: &'r mut CellBuffers,
        client: C,
        rec: Option<&'r mut dyn Recorder>,
        kernel: Kernel,
        queue_capacity: usize,
        duration: SimDuration,
        timeout: SimDuration,
    ) -> Self {
        let CellBuffers {
            platforms,
            events,
            responses,
        } = bufs;
        let slots = Slots {
            platforms,
            events,
            rec,
            submitted: None,
        };
        let mut engine = Engine::with_queue(
            CellSystem {
                slots,
                responses,
                client,
            },
            EventQueue::with_kernel_and_capacity(kernel, queue_capacity),
        );
        let end = SimTime::ZERO + duration;
        for slot in 0..engine.system.slots.platforms.len() as u32 {
            engine
                .system
                .slots
                .call(&mut engine.queue, slot, |p, s| p.start(s, end));
        }
        Cell {
            engine,
            duration,
            horizon: horizon(duration, timeout),
        }
    }

    /// The client layer and the queue.
    pub(crate) fn parts(&mut self) -> (&mut C, &mut Queue<C::Ev>) {
        (&mut self.engine.system.client, &mut self.engine.queue)
    }

    /// Delivers every event up to the horizon and parks the clock there.
    /// Returns the number of events the kernel delivered.
    pub(crate) fn run(&mut self) -> u64 {
        self.engine.run_until(self.horizon);
        self.engine.queue.advance_to(self.horizon);
        self.engine.events_processed()
    }

    /// Tears every platform down and, slot by slot, hands the client the
    /// slot's late responses and then its close. Rented capacity is
    /// released shortly after the workload ends (the paper bills
    /// hourly-rented systems "based on the actual execution time"); the
    /// window up to the horizon exists only so late responses can reach
    /// the clients. Returns the client layer and the trace sink.
    pub(crate) fn finish(self) -> (C, Option<&'r mut dyn Recorder>) {
        let teardown =
            (SimTime::ZERO + self.duration + SimDuration::from_secs(30)).min(self.horizon);
        let mut sys = self.engine.system;
        for slot in 0..sys.slots.platforms.len() as u32 {
            {
                let platform = &mut sys.slots.platforms[slot as usize];
                let _region = RegionGuard::enter(Region::Platform);
                let _p = ProfGuard::enter(platform.prof_label());
                platform.finalize(teardown);
            }
            sys.drain(None, slot);
            let rec = sys.slots.rec.as_deref_mut().map(|r| r as &mut dyn Recorder);
            sys.client
                .close_slot(slot, &sys.slots.platforms[slot as usize], rec);
        }
        sys.slots.platforms.clear();
        (sys.client, sys.slots.rec)
    }
}

/// Records `r`'s `RequestSpan`, stamped at `at` (when the client stopped
/// waiting). The phases a [`RequestRecord`] does not carry come from the
/// caller; the batching delay is `sent_at - arrival`.
pub(crate) fn record_span(
    rec: &mut dyn Recorder,
    at: SimTime,
    r: &RequestRecord,
    invocation: u64,
    net_in: SimDuration,
    exec: SimDuration,
    net_out: SimDuration,
) {
    let outcome = match r.outcome {
        Outcome::Success => SpanOutcome::Success,
        Outcome::Failure(FailureReason::QueueFull) => SpanOutcome::QueueFull,
        Outcome::Failure(FailureReason::ClientTimeout) => SpanOutcome::ClientTimeout,
        Outcome::Failure(FailureReason::Rejected) => SpanOutcome::Rejected,
        Outcome::Failure(FailureReason::Throttled) => SpanOutcome::Throttled,
        Outcome::Failure(FailureReason::Crashed) => SpanOutcome::Crashed,
        Outcome::Failure(FailureReason::RetriesExhausted) => SpanOutcome::RetriesExhausted,
    };
    rec.record(&TraceEvent {
        at,
        kind: EventKind::RequestSpan {
            request: r.index as u64,
            client: r.client,
            invocation,
            arrival: r.arrival,
            batch: r.sent_at.saturating_duration_since(r.arrival),
            net_in,
            queued: r.queued,
            exec,
            net_out,
            cold: r.cold_start.is_some(),
            outcome,
        },
    });
}

/// Closes a recorded run with its one `RunClosed` event.
pub(crate) fn close_run(
    rec: &mut dyn Recorder,
    horizon: SimTime,
    engine_events: u64,
    requests: u64,
) {
    rec.record(&TraceEvent {
        at: horizon,
        kind: EventKind::RunClosed {
            engine_events,
            requests,
        },
    });
}

/// Runs cells `0..cells` on up to `workers` threads and returns their
/// outputs in cell order. When `tracing`, each cell records into its own
/// buffer, returned beside its output for [`merge_traces`].
pub(crate) fn fan_out<T: Send>(
    workers: usize,
    cells: usize,
    tracing: bool,
    run: impl Fn(usize, Option<&mut dyn Recorder>) -> T + Sync,
) -> Vec<(T, Option<MemoryRecorder>)> {
    let ids: Vec<usize> = (0..cells).collect();
    parallel_map(Jobs::new(workers), &ids, |_, &cell| {
        let mut buf = tracing.then(MemoryRecorder::new);
        let out = run(cell, buf.as_mut().map(|r| r as &mut dyn Recorder));
        (out, buf)
    })
}

/// Replays the cells' buffered traces into `rec` in cell order — fixed
/// for a fixed cell count, so the merged trace is byte-identical for every
/// worker budget — and closes the run once. Events are time-ordered
/// within a cell, not across cells; `slsb trace` views sort where it
/// matters.
pub(crate) fn merge_traces(
    rec: &mut dyn Recorder,
    label: &'static str,
    cells: impl IntoIterator<Item = MemoryRecorder>,
    horizon: SimTime,
    engine_events: u64,
    requests: u64,
) {
    let _region = RegionGuard::enter(Region::Obs);
    let _p = ProfGuard::enter(label);
    for cell in cells {
        for ev in cell.into_events() {
            rec.record(&ev);
        }
    }
    close_run(rec, horizon, engine_events, requests);
}
