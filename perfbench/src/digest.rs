//! Result digests: FNV-1a over the simulated outcomes a workload must
//! reproduce exactly.
//!
//! A digest covers per-request outcomes and latencies, engine events, cold
//! starts and cost (per app on fleets). It leaves out histogram quantiles
//! and rendered text, so their implementation may change without changing
//! a pinned digest.

use slsb_core::{FleetRunResult, RunResult};
use slsb_platform::{FailureReason, Outcome, PlatformReport};

#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    fn report(&mut self, p: &PlatformReport) {
        self.u64(p.cold_started);
        self.u64(p.invocations);
        self.u64(p.faults);
        self.f64(p.cost.total().as_dollars());
    }

    /// Folds in one single-deployment run.
    pub fn run(&mut self, run: &RunResult) {
        self.str(&run.deployment.label());
        self.str(&run.workload);
        self.u64(run.records.len() as u64);
        for r in &run.records {
            self.u64(r.index as u64);
            self.u64(u64::from(r.client));
            self.u64(outcome_code(r.outcome));
            self.u64(r.latency.map_or(u64::MAX, |l| l.as_micros()));
            self.u64(r.cold_start.map_or(u64::MAX, |c| c.total().as_micros()));
        }
        self.u64(run.engine_events);
        self.u64(run.client_faults);
        self.u64(run.retries);
        self.report(&run.platform);
    }

    /// Folds in one fleet run, per app.
    pub fn fleet(&mut self, run: &FleetRunResult) {
        self.str(&run.name);
        self.u64(run.requests);
        self.u64(run.engine_events);
        self.u64(run.apps.len() as u64);
        for a in &run.apps {
            self.u64(u64::from(a.app));
            for n in [
                a.requests,
                a.ok,
                a.queue_full,
                a.timeout,
                a.rejected,
                a.throttled,
                a.crashed,
                a.cold_starts,
            ] {
                self.u64(n);
            }
            self.f64(a.cost_dollars);
        }
        self.u64(run.latency.count());
        self.report(&run.platform);
    }
}

fn outcome_code(o: Outcome) -> u64 {
    match o {
        Outcome::Success => 0,
        Outcome::Failure(r) => match r {
            FailureReason::QueueFull => 1,
            FailureReason::ClientTimeout => 2,
            FailureReason::Rejected => 3,
            FailureReason::Throttled => 4,
            FailureReason::Crashed => 5,
            FailureReason::RetriesExhausted => 6,
        },
    }
}

pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}
