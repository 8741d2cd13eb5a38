//! Request-scoped service spans.
//!
//! Every request the `orderlight serve` daemon handles is decomposed
//! into a fixed phase sequence — **parse → queue-wait → run →
//! serialize → write** — whose durations ([`SpanPhases`]) ride the
//! request's `id`-envelope `result` reply and land in the daemon's
//! flight recorder. The phases are plain microsecond durations, so a
//! span is wire-serialisable through the canonical [`Value`] writer and
//! foldable into a Chrome trace-event document
//! ([`spans_to_chrome`]): a served run's request timeline renders in
//! Perfetto on its own `service requests` process track, composable
//! side by side with the simulation's own trace of the same run.

use crate::json::Value;

/// The service request phases, in execution order. The wire spelling
/// of phase `p` is `<p>_us`.
pub const SPAN_PHASES: [&str; 5] = ["parse", "queue", "run", "serialize", "write"];

/// The Chrome trace-event `pid` of the service-request process track —
/// above the simulation's own category pids (1–5), so folded spans
/// never collide with a simulation trace of the same run.
pub const SERVICE_SPAN_PID: u64 = 6;

/// One request's per-phase durations, in microseconds.
///
/// `queue`/`run` are zero for cache hits; `write` covers the streamed
/// non-terminal replies (`accepted`/`running`) — the terminal write
/// cannot observe its own duration, so it is excluded by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanPhases {
    /// Reading and validating the request line (JSON parse, schema
    /// check, scenario build and hash).
    pub parse_us: u64,
    /// Waiting in the worker queue (cache misses only).
    pub queue_us: u64,
    /// Executing the simulation (cache misses only).
    pub run_us: u64,
    /// Building and serialising the reply value.
    pub serialize_us: u64,
    /// Writing the non-terminal streamed replies.
    pub write_us: u64,
}

impl SpanPhases {
    /// Total across every phase (saturating).
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.durations().iter().fold(0u64, |acc, (_, us)| acc.saturating_add(*us))
    }

    /// `(phase name, microseconds)` pairs in [`SPAN_PHASES`] order.
    #[must_use]
    pub fn durations(&self) -> [(&'static str, u64); 5] {
        [
            ("parse", self.parse_us),
            ("queue", self.queue_us),
            ("run", self.run_us),
            ("serialize", self.serialize_us),
            ("write", self.write_us),
        ]
    }

    /// The canonical wire object: `{"parse_us":…,"queue_us":…,…}`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::obj(self.durations().map(|(name, us)| (format!("{name}_us"), us.into())))
    }

    /// Parses the wire object back; `None` when any phase is absent or
    /// non-numeric.
    #[must_use]
    pub fn from_value(doc: &Value) -> Option<SpanPhases> {
        let us = |name: &str| -> Option<u64> {
            let n = doc.get(&format!("{name}_us"))?.as_f64()?;
            (n.is_finite() && n >= 0.0).then_some(n as u64)
        };
        Some(SpanPhases {
            parse_us: us("parse")?,
            queue_us: us("queue")?,
            run_us: us("run")?,
            serialize_us: us("serialize")?,
            write_us: us("write")?,
        })
    }
}

/// Folds labelled spans into a complete Chrome trace-event document
/// (`{"traceEvents":[…]}`), loadable at <https://ui.perfetto.dev> and
/// mergeable with a simulation trace of the same run: each span gets
/// its own named thread track inside the `service requests` process
/// ([`SERVICE_SPAN_PID`]), phases laid back to back as complete `"X"`
/// events, successive spans laid end to end on the shared time axis.
#[must_use]
pub fn spans_to_chrome(spans: &[(String, SpanPhases)]) -> String {
    let meta = |tid: Option<usize>, name: &str, label: &str| {
        let tid = tid.map(|t| ("tid", t.into()));
        Value::obj(
            [
                ("ph", "M".into()),
                ("pid", SERVICE_SPAN_PID.into()),
                ("name", name.into()),
                ("args", Value::obj([("name", label.into())])),
            ]
            .into_iter()
            .chain(tid),
        )
    };
    let mut events = vec![meta(None, "process_name", "service requests")];
    let mut ts = 0u64;
    for (tid, (label, phases)) in spans.iter().enumerate() {
        events.push(meta(Some(tid), "thread_name", label));
        for (name, us) in phases.durations() {
            if us == 0 {
                continue;
            }
            events.push(Value::obj([
                ("ph", "X".into()),
                ("pid", SERVICE_SPAN_PID.into()),
                ("tid", tid.into()),
                ("name", name.into()),
                ("cat", "service".into()),
                ("ts", ts.into()),
                ("dur", us.into()),
            ]));
            ts += us;
        }
    }
    let mut out = Value::obj([("traceEvents", Value::Arr(events))]).to_json();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> SpanPhases {
        SpanPhases { parse_us: 10, queue_us: 120, run_us: 9000, serialize_us: 30, write_us: 5 }
    }

    #[test]
    fn wire_object_round_trips() {
        let phases = sample();
        let v = phases.to_value();
        assert_eq!(
            v.to_json(),
            r#"{"parse_us":10,"queue_us":120,"run_us":9000,"serialize_us":30,"write_us":5}"#
        );
        assert_eq!(SpanPhases::from_value(&v), Some(phases));
        assert_eq!(phases.total_us(), 9165);
        // A missing phase is a parse failure, not a silent zero.
        assert_eq!(SpanPhases::from_value(&json::parse(r#"{"parse_us":1}"#).unwrap()), None);
    }

    #[test]
    fn chrome_fold_parses_and_lays_phases_sequentially() {
        let doc = spans_to_chrome(&[
            ("req 1 0xabc".to_string(), sample()),
            ("req 2 0xdef".to_string(), SpanPhases { parse_us: 7, ..SpanPhases::default() }),
        ]);
        let parsed = json::parse(&doc).expect("chrome doc parses");
        assert_eq!(parsed.to_json() + "\n", doc, "canonical: a fixed point of parse and to_json");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process-name + 2 thread-name metadata + 5 non-zero phases
        // for span 1 + 1 for span 2.
        assert_eq!(events.len(), 9);
        let xs: Vec<&Value> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert_eq!(xs.len(), 6);
        // Phases tile the axis: each X starts where the previous ended.
        let mut ts = 0.0;
        for x in &xs {
            assert_eq!(x.get("ts").and_then(Value::as_f64), Some(ts));
            ts += x.get("dur").and_then(Value::as_f64).unwrap();
        }
        assert_eq!(xs[5].get("tid").and_then(Value::as_f64), Some(1.0), "second span, own track");
    }
}
