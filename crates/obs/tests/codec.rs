//! The JSONL trace codec: every event shape survives a write/read round
//! trip, foreign-but-valid layouts read back to the same event, and
//! `parse_jsonl_strict` keeps its diagnostics for broken files.

use proptest::prelude::*;
use slsb_obs::trace_view::{parse_jsonl, parse_jsonl_strict};
use slsb_obs::{
    Component, EventKind, FaultKind, JsonlRecorder, Recorder, SpanOutcome, SpawnCause, TraceEvent,
};
use slsb_sim::{SimDuration, SimTime};

const OUTCOMES: [SpanOutcome; 7] = [
    SpanOutcome::Success,
    SpanOutcome::QueueFull,
    SpanOutcome::ClientTimeout,
    SpanOutcome::Rejected,
    SpanOutcome::Throttled,
    SpanOutcome::Crashed,
    SpanOutcome::RetriesExhausted,
];

const FAULTS: [FaultKind; 6] = [
    FaultKind::BootCrash,
    FaultKind::ExecCrash,
    FaultKind::StorageStall,
    FaultKind::Throttled,
    FaultKind::Outage,
    FaultKind::PacketLoss,
];

const CAUSES: [SpawnCause; 3] = [
    SpawnCause::Demand,
    SpawnCause::Overprovision,
    SpawnCause::Provisioned,
];

const COMPONENTS: [Component; 3] = [Component::Serverless, Component::ManagedMl, Component::Vm];

/// The knobs one batch of events is built from.
struct Draw {
    /// Ids, times and durations, consumed in order (cycled).
    nums: Vec<u64>,
    cost: i64,
    /// Selects components, causes, outcomes, fault kinds and flags.
    pick: usize,
}

impl Draw {
    fn n(&self, i: usize) -> u64 {
        self.nums[i % self.nums.len()]
    }

    fn t(&self, i: usize) -> SimTime {
        SimTime::from_micros(self.n(i))
    }

    fn d(&self, i: usize) -> SimDuration {
        SimDuration::from_micros(self.n(i))
    }

    /// `n(i)` truncated to the `u32` fields' range.
    fn n32(&self, i: usize) -> u32 {
        (self.n(i) % (u64::from(u32::MAX) + 1)) as u32
    }

    /// One event of every `EventKind` variant.
    fn every_variant(&self) -> Vec<EventKind> {
        let p = self.pick;
        let component = COMPONENTS[p % 3];
        vec![
            EventKind::RequestArrival {
                component,
                request: self.n(0),
            },
            EventKind::RequestQueued {
                component,
                request: self.n(1),
            },
            EventKind::RequestRejected {
                component,
                request: self.n(2),
            },
            EventKind::RequestDropped {
                component,
                request: self.n(3),
            },
            EventKind::ExecStart {
                component,
                request: self.n(4),
                instance: self.n(5),
                cold: [true, false][p % 2],
                done_at: self.t(6),
            },
            EventKind::InstanceSpawn {
                component,
                instance: self.n(7),
                cause: CAUSES[p % CAUSES.len()],
            },
            EventKind::InstanceReady {
                component,
                instance: self.n(8),
                boot: self.d(9),
                import: self.d(10),
                download: self.d(11),
                load: self.d(12),
            },
            EventKind::InstanceWarm {
                component,
                instance: self.n(13),
            },
            EventKind::InstanceCrash {
                component,
                instance: self.n(14),
            },
            EventKind::InstanceReclaim {
                component,
                instance: self.n(15),
            },
            EventKind::BillingTick {
                component,
                billed: self.d(16),
            },
            EventKind::Fault {
                component: [None, Some(component)][p % 2],
                kind: FAULTS[p % FAULTS.len()],
            },
            EventKind::RequestSpan {
                request: self.n(17),
                client: self.n32(18),
                invocation: self.n(19),
                arrival: self.t(20),
                batch: self.d(21),
                net_in: self.d(22),
                queued: self.d(23),
                exec: self.d(24),
                net_out: self.d(25),
                cold: [true, false, false][p % 3],
                outcome: OUTCOMES[p % OUTCOMES.len()],
            },
            EventKind::AppClosed {
                app: self.n32(26),
                requests: self.n(27),
                cost_micro_dollars: self.cost,
            },
            EventKind::RunClosed {
                engine_events: self.n(28),
                requests: self.n(29),
            },
        ]
    }

    fn events(&self) -> Vec<TraceEvent> {
        self.every_variant()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                at: self.t(30 + i),
                kind,
            })
            .collect()
    }
}

/// Records through the JSONL sink, as a traced run does, and reads the
/// text back through the explorer's parser.
fn roundtrip(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut buf = Vec::new();
    let mut rec = JsonlRecorder::new(&mut buf);
    for ev in events {
        rec.record(ev);
    }
    assert_eq!(rec.finish().unwrap(), events.len() as u64);
    parse_jsonl_strict(std::str::from_utf8(&buf).unwrap()).unwrap()
}

#[test]
fn every_variant_and_enum_value_roundtrips_at_the_extremes() {
    for extreme in [0, 1, u64::MAX] {
        for cost in [i64::MIN, -1, 0, i64::MAX] {
            // Enough picks to visit every value of every enum in both flag
            // states (lcm of 2, 3, 6, 7 is 42).
            for pick in 0..42 {
                let draw = Draw {
                    nums: vec![extreme],
                    cost,
                    pick,
                };
                let events = draw.events();
                assert_eq!(roundtrip(&events), events);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary field values round-trip, with one edge value (zero,
    /// `u64::MAX`, ...) mixed into every batch.
    #[test]
    fn arbitrary_events_roundtrip(
        random in prop::collection::vec(0u64..u64::MAX, 1..40),
        edge in prop::sample::select(vec![0u64, u64::MAX, u64::MAX - 1, 1 << 53]),
        cost_bits in 0u64..u64::MAX,
        pick in 0usize..10_000,
    ) {
        let mut nums = random;
        nums.insert(pick % (nums.len() + 1), edge);
        // Reinterpreting the bits spans the whole `i64` range.
        let cost = i64::from_ne_bytes(cost_bits.to_ne_bytes());
        let draw = Draw { nums, cost, pick };
        let events = draw.events();
        prop_assert_eq!(roundtrip(&events), events);
    }
}

#[test]
fn foreign_layouts_parse_to_the_same_event() {
    let want = TraceEvent {
        at: SimTime::from_micros(17),
        kind: EventKind::ExecStart {
            component: Component::ManagedMl,
            request: u64::MAX,
            instance: 3,
            cold: true,
            done_at: SimTime::from_micros(40),
        },
    };
    let canonical = serde_json::to_string(&want).unwrap();
    assert_eq!(
        canonical,
        r#"{"at":17,"kind":{"event":"exec_start","component":"managed_ml","request":18446744073709551615,"instance":3,"cold":true,"done_at":40}}"#
    );
    let foreign = [
        // Keys reordered, the tag last, whitespace everywhere.
        " { \"kind\" : { \"done_at\" : 40 , \"cold\" : true ,\t\"instance\" : 3 ,\r\n \
         \"request\" : 18446744073709551615 , \"component\" : \"managed_ml\" , \
         \"event\" : \"exec_start\" } , \"at\" : 17 } ",
        // Unknown nested object and array fields, before and after the tag,
        // holding the trace's own keys so a skip that leaked would show.
        r#"{"note":{"at":99,"kind":{"event":"run_closed"}},"kind":{"cold":true,"extra":[1,{"event":"fault","component":"vm"},[[]],"x\"y"],"event":"exec_start","request":18446744073709551615,"component":"managed_ml","more":{},"instance":3,"done_at":40},"at":17,"tail":[null,false,-1.5e-3]}"#,
        // The tag first with unknown scalars around it, `\u`-escaped
        // strings and a pretty-printed layout.
        "{\n  \"at\": 17,\n  \"kind\": {\n    \"event\": \"exec_\\u0073tart\",\n    \"z\": 0,\n    \
         \"component\": \"managed\\u005fml\",\n    \"request\": 18446744073709551615,\n    \
         \"instance\": 3,\n    \"cold\": true,\n    \"done_at\": 40\n  }\n}",
    ];
    for text in foreign {
        let got: TraceEvent = serde_json::from_str(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(got, want, "{text}");
    }
    // A one-event-per-line JSONL file is not required to be compact
    // inside a line.
    let line = foreign[1];
    assert_eq!(
        parse_jsonl(&format!("{line}\n{canonical}\n")).unwrap(),
        vec![want, want]
    );
}

#[test]
fn malformed_events_are_rejected() {
    for bad in [
        // A known field twice.
        r#"{"at":1,"at":2,"kind":{"event":"run_closed","engine_events":1,"requests":1}}"#,
        r#"{"at":1,"kind":{"event":"run_closed","requests":1,"engine_events":1,"requests":2}}"#,
        // Numbers JSON forbids.
        r#"{"at":007,"kind":{"event":"run_closed","engine_events":1,"requests":1}}"#,
        r#"{"at":1.,"kind":{"event":"run_closed","engine_events":1,"requests":1}}"#,
        r#"{"at":-01,"kind":{"event":"run_closed","engine_events":1,"requests":1}}"#,
        // Out of range, wrong sign, wrong type.
        r#"{"at":18446744073709551616,"kind":{"event":"run_closed","engine_events":1,"requests":1}}"#,
        r#"{"at":-1,"kind":{"event":"run_closed","engine_events":1,"requests":1}}"#,
        r#"{"at":"1","kind":{"event":"run_closed","engine_events":1,"requests":1}}"#,
        // Missing field, missing tag, unknown tag, unknown enum value.
        r#"{"at":1,"kind":{"event":"run_closed","engine_events":1}}"#,
        r#"{"at":1,"kind":{"engine_events":1,"requests":1}}"#,
        r#"{"at":1,"kind":{"event":"run_opened","engine_events":1,"requests":1}}"#,
        r#"{"at":1,"kind":{"event":"fault","component":null,"kind":"meteor"}}"#,
    ] {
        assert!(
            serde_json::from_str::<TraceEvent>(bad).is_err(),
            "accepted {bad}"
        );
    }
}

#[test]
fn strict_parse_diagnostics_still_fire() {
    let events = Draw {
        nums: vec![5, 6, 7],
        cost: -3,
        pick: 1,
    }
    .events();
    let text: String = events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    assert_eq!(parse_jsonl_strict(&text).unwrap(), events);

    // Empty file.
    for empty in ["", "\n", "  \n\n"] {
        let err = parse_jsonl_strict(empty).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    // Truncated last line: a writer killed mid-event.
    let cut = &text[..text.len() - 10];
    let err = parse_jsonl_strict(cut).unwrap_err();
    assert!(err.contains("truncated"), "{err}");

    // Trailing garbage after an event on its line, and a garbage line.
    let last = events.len() + 1;
    let err = parse_jsonl_strict(&format!("{text}{{}}\n")).unwrap_err();
    assert!(err.starts_with(&format!("line {last}:")), "{err}");
    let first = serde_json::to_string(&events[0]).unwrap();
    let err = parse_jsonl_strict(&format!("{first} junk\n{text}")).unwrap_err();
    assert!(
        err.starts_with("line 1:") && !err.contains("truncated"),
        "{err}"
    );
    assert!(err.contains("trailing characters"), "{err}");
}
