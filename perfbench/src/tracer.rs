//! Spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from outside the program: each public call the
//! benchmark makes is timed and charged its allocations under the layer's
//! name. The trace recorder runs inside the engine call, so its time and
//! allocations are measured by [`TimedRecorder`] and moved from the engine
//! span to the recorder's. A layer's self time is its spans' time minus
//! what such children cover. Spans are kept in memory and read when the
//! run ends.

use crate::probe::allocs;
use slsb_obs::{Recorder, TraceEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// Aggregated self time and self allocations of one layer.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerTotals {
    pub self_s: f64,
    pub self_allocs: u64,
}

/// In-memory span store; a disabled tracer only forwards calls.
pub struct Tracer {
    on: bool,
    layers: BTreeMap<&'static str, LayerTotals>,
    /// Sum of top-level span durations: the wall time spans cover.
    covered_s: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            layers: BTreeMap::new(),
            covered_s: 0.0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` as one span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let a0 = allocs();
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        let da = allocs() - a0;
        self.covered_s += dt;
        let l = self.layers.entry(layer).or_default();
        l.self_s += dt;
        l.self_allocs += da;
        r
    }

    /// Moves `secs` and `allocations` measured inside a `parent` span to the
    /// child layer `child`.
    pub fn charge_child(
        &mut self,
        parent: &'static str,
        child: &'static str,
        secs: f64,
        allocations: u64,
    ) {
        if !self.on {
            return;
        }
        let p = self.layers.entry(parent).or_default();
        p.self_s -= secs;
        p.self_allocs = p.self_allocs.saturating_sub(allocations);
        let c = self.layers.entry(child).or_default();
        c.self_s += secs;
        c.self_allocs += allocations;
    }

    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers.get(name).copied().unwrap_or_default()
    }

    pub fn covered_s(&self) -> f64 {
        self.covered_s
    }
}

/// A [`Recorder`] that wraps another and measures the time, allocations
/// and events spent in it.
pub struct TimedRecorder<'a> {
    inner: &'a mut dyn Recorder,
    pub events: u64,
    pub secs: f64,
    pub allocs: u64,
}

impl<'a> TimedRecorder<'a> {
    pub fn new(inner: &'a mut dyn Recorder) -> TimedRecorder<'a> {
        TimedRecorder {
            inner,
            events: 0,
            secs: 0.0,
            allocs: 0,
        }
    }
}

impl Recorder for TimedRecorder<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, ev: &TraceEvent) {
        let a0 = allocs();
        let t0 = Instant::now();
        self.inner.record(ev);
        self.secs += t0.elapsed().as_secs_f64();
        self.allocs += allocs() - a0;
        self.events += 1;
    }
}
