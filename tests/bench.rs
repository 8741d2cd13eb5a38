//! The checks behind `orderlight bench`, called in-process: one series'
//! legs, and the exact compare of two `orderlight/bench-sweep/v6`
//! records.

use orderlight_suite::bench::{compare, run_series, Difference, SchemaError};
use orderlight_suite::sim::experiments::fence_heavy_points;
use orderlight_suite::trace::json::{self, Value};

#[test]
fn a_fence_series_agrees_across_cores_and_pool_and_conserves() {
    let specs = &fence_heavy_points(4 * 1024)[..2];
    let s = run_series("fence-ts16", specs, 2).expect("series runs");
    assert!(s.cores_identical && s.parallel_identical && s.conserved, "{:?}", s.problems);
    assert!(s.problems.is_empty(), "{:?}", s.problems);
    assert!(s.deltas.iter().all(|&(_, delta)| delta == 0), "{:?}", s.deltas);
    assert!(s.stalls.iter().sum::<u64>() > 0, "a fence series stalls");
    let cycles: u64 = specs.iter().map(|p| p.run().expect("point runs").stats.core_cycles).sum();
    assert_eq!(s.points, 2);
    assert_eq!(s.core_cycles, cycles);
    assert_eq!(s.to_value().get("core_cycles").and_then(Value::as_f64), Some(cycles as f64));
}

/// A hand-built record: two series and two ordering records.
const DOC: &str = r#"{"schema":"orderlight/bench-sweep/v6","data_kb":8,"jobs":2,"core":"event",
"cores_identical":true,"identical":true,"conserved":true,"figures":[
{"figure":"fig05","points":5,"core_cycles":12798,"cycle_seconds":0.021,"event_seconds":0.010,
 "cycle_wall_seconds":0.023,"event_wall_seconds":0.011,
 "cycle_points_per_sec":238.1,"event_points_per_sec":500.0,"event_speedup":2.1,
 "unprofiled_seconds":0.007,"profiled_seconds":0.009,"profiled_wall_seconds":0.012,
 "overhead":1.28,"conserved":true,
 "stalls":{"fence_drain":458,"fence_wait":176148},"stall_deltas":{"fence":0,"total":0}},
{"figure":"fence-ts16","points":5,"core_cycles":26962,"cycle_seconds":0.015,
 "event_seconds":0.005,"event_speedup":3.0,"stalls":{"fence_wait":90000}}],
"ordering":[{"ordering":"fence","core_cycles":3041,"clean":true},
{"ordering":"orderlight","core_cycles":551,"clean":true}]}"#;

fn doc(text: &str) -> Value {
    json::parse(text).expect("hand-built record parses")
}

/// `DOC` with each `(from, to)` text replacement made once.
fn edited(edits: &[(&str, &str)]) -> Value {
    let mut text = DOC.to_string();
    for (from, to) in edits {
        assert!(text.contains(from), "{from} is in the record");
        text = text.replacen(from, to, 1);
    }
    doc(&text)
}

#[test]
fn a_record_against_itself_reports_nothing() {
    assert_eq!(compare(&doc(DOC), &doc(DOC)), Ok(Vec::new()));
}

#[test]
fn one_changed_stall_cycle_is_reported_at_its_path() {
    let changed = edited(&[("\"fence_wait\":176148", "\"fence_wait\":176149")]);
    assert_eq!(
        compare(&doc(DOC), &changed),
        Ok(vec![Difference {
            path: "figures[fig05].stalls.fence_wait".to_string(),
            a: Some(Value::Num(176_148.0)),
            b: Some(Value::Num(176_149.0)),
        }])
    );
}

#[test]
fn wall_clock_and_execution_settings_are_skipped() {
    let rerun = edited(&[
        ("\"jobs\":2", "\"jobs\":8"),
        ("\"core\":\"event\"", "\"core\":\"cycle\""),
        ("\"cycle_seconds\":0.021", "\"cycle_seconds\":0.5"),
        ("\"event_seconds\":0.010", "\"event_seconds\":0.2"),
        ("\"cycle_wall_seconds\":0.023", "\"cycle_wall_seconds\":0.9"),
        ("\"event_wall_seconds\":0.011", "\"event_wall_seconds\":0.4"),
        ("\"profiled_wall_seconds\":0.012", "\"profiled_wall_seconds\":0.6"),
        ("\"cycle_points_per_sec\":238.1", "\"cycle_points_per_sec\":10"),
        ("\"event_points_per_sec\":500.0", "\"event_points_per_sec\":25"),
        ("\"event_speedup\":2.1", "\"event_speedup\":2.5"),
        ("\"unprofiled_seconds\":0.007", "\"unprofiled_seconds\":0.1"),
        ("\"profiled_seconds\":0.009", "\"profiled_seconds\":0.3"),
        ("\"overhead\":1.28", "\"overhead\":3"),
    ]);
    assert_eq!(compare(&doc(DOC), &rerun), Ok(Vec::new()));
}

#[test]
fn a_series_on_one_side_only_is_reported_from_either_side() {
    let start = DOC.find(",\n{\"figure\":\"fence-ts16\"").expect("second series");
    let end = DOC.find("}}],").expect("end of the series") + 2;
    let (full, fewer) = (doc(DOC), doc(&format!("{}{}", &DOC[..start], &DOC[end..])));
    for (a, b) in [(&full, &fewer), (&fewer, &full)] {
        let paths: Vec<String> =
            compare(a, b).expect("same schema").into_iter().map(|d| d.path).collect();
        assert_eq!(paths, ["figures[fence-ts16]"]);
    }
    let d = compare(&full, &fewer).expect("same schema").remove(0);
    assert_eq!(d.a.as_ref().and_then(|v| v.get("core_cycles")), Some(&Value::Num(26_962.0)));
    assert_eq!(d.b, None);
}

#[test]
fn a_v5_record_is_a_schema_error_naming_its_tag() {
    let v5 = edited(&[("bench-sweep/v6", "bench-sweep/v5")]);
    let err = compare(&doc(DOC), &v5).expect_err("v5 is not comparable");
    assert_eq!(err, SchemaError { index: 1, found: Some("orderlight/bench-sweep/v5".to_string()) });
    assert!(err.to_string().contains("orderlight/bench-sweep/v5"), "{err}");
    assert_eq!(compare(&v5, &doc(DOC)).map_err(|e| e.index), Err(0));
}
