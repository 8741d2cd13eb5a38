//! In-memory span recording for the traced run, written out as a Chrome
//! trace-event document when the run ends.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A disabled recorder does nothing, so the untraced run
//! pays only for the `Instant` reads it needs anyway.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use orderlight_trace::json::Value;

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    tid: u64,
    start_us: f64,
    dur_us: f64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small stable id for the calling thread (the trace's lane).
fn tid() -> u64 {
    TID.with(|t| *t)
}

impl Recorder {
    /// A recorder that keeps spans only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Recorder {
        Recorder { on, epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::default() }
    }

    /// A fresh span id (0 is "no parent").
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished span `[start, start + dur_s]` on the calling
    /// thread's lane.
    pub fn record(&self, id: u64, parent: u64, name: &str, start: Instant, dur_s: f64) {
        if !self.on {
            return;
        }
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            tid: tid(),
            start_us: self.offset_us(start),
            dur_us: dur_s * 1e6,
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`, returning
    /// its value and duration in seconds.
    pub fn time<T>(&self, parent: u64, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.time_as(self.id(), parent, name, f)
    }

    /// Like [`Recorder::time`], under a span id taken beforehand so the
    /// work inside can name it as parent.
    pub fn time_as<T>(&self, id: u64, parent: u64, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_secs_f64();
        self.record(id, parent, name, start, dur);
        (out, dur)
    }

    /// Writes every span as complete (`"X"`) Chrome trace events, with
    /// span and parent ids in `args`, and returns how many were written.
    ///
    /// # Errors
    /// Propagates file creation and write failures.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span list lock");
        let num = |v: f64| Value::Num(v);
        #[allow(clippy::cast_precision_loss)]
        let events: Vec<Value> = spans
            .iter()
            .map(|s| {
                let mut args = BTreeMap::new();
                args.insert("id".to_string(), num(s.id as f64));
                args.insert("parent".to_string(), num(s.parent as f64));
                let mut e = BTreeMap::new();
                e.insert("name".to_string(), Value::Str(s.name.clone()));
                e.insert("ph".to_string(), Value::Str("X".to_string()));
                e.insert("pid".to_string(), num(1.0));
                e.insert("tid".to_string(), num(s.tid as f64));
                e.insert("ts".to_string(), num(s.start_us));
                e.insert("dur".to_string(), num(s.dur_us));
                e.insert("args".to_string(), Value::Obj(args));
                Value::Obj(e)
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("displayTimeUnit".to_string(), Value::Str("ms".to_string()));
        doc.insert("traceEvents".to_string(), Value::Arr(events));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(Value::Obj(doc).to_json().as_bytes())?;
        file.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let rec = Recorder::new(false);
        let (v, dur) = rec.time(0, "x", || 7);
        assert_eq!(v, 7);
        assert!(dur >= 0.0);
        assert!(rec.spans.lock().unwrap().is_empty());
    }

    #[test]
    fn spans_nest_by_parent_id() {
        let rec = Recorder::new(true);
        let root = rec.id();
        let start = Instant::now();
        let ((), _) = rec.time(root, "child", || {});
        rec.record(root, 0, "root", start, start.elapsed().as_secs_f64());
        let spans = rec.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root);
        assert_eq!(spans[1].id, root);
    }
}
