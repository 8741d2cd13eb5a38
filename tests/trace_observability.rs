//! Cross-crate tests of the tracing subsystem: attaching a sink must
//! not perturb the simulation, and the exported Chrome trace must be
//! well-formed, parseable JSON covering every event category.

use orderlight_suite::sim::config::{ExecMode, ExperimentConfig};
use orderlight_suite::sim::{RunStats, ScenarioBuilder};
use orderlight_suite::trace::json::{self, Value};
use orderlight_suite::trace::{ChromeTraceBuilder, EventCategory, RingSink, TraceEvent};
use orderlight_suite::trace::{ClockDomains, SharedSink};
use orderlight_suite::workloads::{OrderingMode, WorkloadId};
use std::collections::BTreeSet;
use std::sync::Arc;

fn small_exp(mode: OrderingMode) -> ExperimentConfig {
    let mut exp = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(mode));
    exp.data_bytes_per_channel = 8 * 1024;
    exp
}

/// Runs `mode`'s small experiment with `sink` attached.
fn run_traced(mode: OrderingMode, sink: SharedSink) -> (RunStats, ClockDomains) {
    ScenarioBuilder::from_experiment(small_exp(mode))
        .trace(sink)
        .build()
        .expect("valid scenario")
        .run_with_clocks()
        .expect("traced drains")
}

/// Tracing is observe-only: a run with a recording sink attached is
/// cycle-identical to the default NopSink run, down to every statistic.
#[test]
fn recording_sink_does_not_perturb_the_simulation() {
    for mode in [OrderingMode::OrderLight, OrderingMode::Fence] {
        let baseline = ScenarioBuilder::from_experiment(small_exp(mode))
            .build()
            .expect("valid scenario")
            .run()
            .expect("baseline drains");
        let ring = Arc::new(RingSink::new(1 << 22));
        let (traced, _clocks) = run_traced(mode, ring.clone());
        assert_eq!(baseline, traced, "{mode}: instrumented run diverged");
        assert!(!ring.is_empty(), "{mode}: the run must emit events");
        assert_eq!(ring.dropped(), 0, "{mode}: capacity must hold the whole run");
    }
}

/// A traced run covers all four event categories, and the Chrome export
/// round-trips through a JSON parser with the expected shape.
#[test]
fn chrome_export_round_trips_with_full_category_coverage() {
    let ring = Arc::new(RingSink::new(1 << 22));
    let (stats, clocks) = run_traced(OrderingMode::Fence, ring.clone());
    assert!(stats.is_correct());
    let events = ring.events();

    let covered: BTreeSet<EventCategory> = events.iter().map(TraceEvent::category).collect();
    for cat in EventCategory::ALL {
        assert!(covered.contains(&cat), "category {cat:?} missing from the trace");
    }

    let text = ChromeTraceBuilder::new(clocks).build(&events);
    let doc = json::parse(&text).expect("exporter emits valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms"),
        "Perfetto time-unit hint"
    );
    let rows = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert!(rows.len() >= events.len(), "payload rows plus metadata");

    // Every payload row (non-metadata) carries the required fields and a
    // known category; timestamps are finite and non-negative.
    let mut cats = BTreeSet::new();
    let mut spans: i64 = 0;
    for row in rows {
        let ph = row.get("ph").and_then(Value::as_str).expect("phase");
        if ph == "M" {
            continue;
        }
        let cat = row.get("cat").and_then(Value::as_str).expect("category");
        cats.insert(cat.to_string());
        assert!(EventCategory::ALL.iter().any(|c| c.name() == cat), "unknown category {cat}");
        let ts = row.get("ts").and_then(Value::as_f64).expect("timestamp");
        assert!(ts.is_finite() && ts >= 0.0, "bad ts {ts}");
        match ph {
            "B" => spans += 1,
            "E" => spans -= 1,
            "i" | "X" | "C" => {}
            other => panic!("unexpected phase {other}"),
        }
        assert!(spans >= 0, "E before matching B");
    }
    assert_eq!(spans, 0, "every B has a matching E");
    assert!(cats.len() >= 4, "expected >=4 categories in the export, got {cats:?}");
}

/// Fence-mode and OrderLight-mode traces differ in the expected
/// direction: fences produce stall spans, OrderLight produces packet
/// lifecycle events instead.
#[test]
fn trace_contents_distinguish_the_ordering_primitives() {
    let run = |mode| {
        let ring = Arc::new(RingSink::new(1 << 22));
        run_traced(mode, ring.clone());
        ring.events()
    };
    let fence = run(OrderingMode::Fence);
    let ol = run(OrderingMode::OrderLight);

    let stalls = |evs: &[TraceEvent]| {
        evs.iter().filter(|e| matches!(e, TraceEvent::FenceStallBegin { .. })).count()
    };
    let merges = |evs: &[TraceEvent]| {
        evs.iter().filter(|e| matches!(e, TraceEvent::PacketMerged { .. })).count()
    };
    assert!(stalls(&fence) > 0, "fence runs stall");
    assert_eq!(stalls(&ol), 0, "OrderLight never stalls the warp");
    assert!(merges(&ol) > 0, "OrderLight packets merge at the controller");
    assert_eq!(merges(&fence), 0, "fence runs carry no packets");

    // Packet conservation: every created packet is enqueued and merged
    // exactly once per channel copy set.
    let created = ol.iter().filter(|e| matches!(e, TraceEvent::PacketCreated { .. })).count();
    assert_eq!(merges(&ol), created, "every packet created must merge");
}
