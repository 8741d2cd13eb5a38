//! Trace sinks: where events go.

use crate::event::TraceEvent;
use std::sync::{Arc, Mutex};

/// A shared sink handle, cheap to clone into every component.
pub type SharedSink = Arc<dyn TraceSink>;

/// Consumer of [`TraceEvent`]s.
///
/// Implementations take `&self` (interior mutability) so one sink can be
/// shared by every SM, controller and channel of a system. A sink must
/// never influence simulation behaviour — it only observes. `Debug` is a
/// supertrait so components holding a [`SharedSink`] can keep deriving
/// `Debug`.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Consumes one event.
    fn emit(&self, event: TraceEvent);

    /// Whether emitting is worthwhile; [`NopSink`] returns `false`.
    ///
    /// The answer must be fixed for the sink's lifetime: components
    /// read it once, when the sink is attached, and on the hot path test
    /// the cached flag instead of calling this per would-be event.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The zero-overhead default sink: drops everything, reports itself
/// disabled so instrumented code skips event construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopSink;

impl TraceSink for NopSink {
    fn emit(&self, _event: TraceEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Returns a shared handle to the no-op sink.
#[must_use]
pub fn nop_sink() -> SharedSink {
    Arc::new(NopSink)
}

/// A bounded in-memory buffer of events.
///
/// Once `capacity` events are held, further events are counted but
/// dropped (newest-dropped policy: the retained prefix stays
/// contiguous, which downstream interval matching relies on).
#[derive(Debug)]
pub struct RingSink {
    inner: Mutex<RingInner>,
    capacity: usize,
}

#[derive(Debug)]
struct RingInner {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Creates a sink retaining at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink { inner: Mutex::new(RingInner { events: Vec::new(), dropped: 0 }), capacity }
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("sink poisoned").events.len()
    }

    /// Whether no events were retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped after the buffer filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("sink poisoned").dropped
    }

    /// A copy of the retained events, in emission order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("sink poisoned").events.clone()
    }
}

impl TraceSink for RingSink {
    fn emit(&self, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("sink poisoned");
        if inner.events.len() < self.capacity {
            inner.events.push(event);
        } else {
            inner.dropped += 1;
        }
    }
}

/// Fans every event out to two sinks, so one run can feed independent
/// consumers — e.g. a [`RingSink`] for the Chrome export alongside a
/// streaming profiler aggregation.
#[derive(Debug)]
pub struct TeeSink {
    a: SharedSink,
    b: SharedSink,
}

impl TeeSink {
    /// Creates a sink forwarding to both `a` and `b`.
    #[must_use]
    pub fn new(a: SharedSink, b: SharedSink) -> Self {
        TeeSink { a, b }
    }
}

impl TraceSink for TeeSink {
    fn emit(&self, event: TraceEvent) {
        if self.a.is_enabled() {
            self.a.emit(event);
        }
        if self.b.is_enabled() {
            self.b.emit(event);
        }
    }

    fn is_enabled(&self) -> bool {
        self.a.is_enabled() || self.b.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::InstrKind;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::WarpIssue { cycle, sm: 0, warp: 0, kind: InstrKind::Pim }
    }

    #[test]
    fn nop_sink_is_disabled_and_silent() {
        let s = NopSink;
        assert!(!s.is_enabled());
        s.emit(ev(0));
    }

    #[test]
    fn ring_retains_prefix_and_counts_drops() {
        let s = RingSink::new(3);
        assert!(s.is_enabled());
        for c in 0..5 {
            s.emit(ev(c));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let cycles: Vec<u64> = s.events().iter().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2], "oldest events survive");
    }

    #[test]
    fn tee_feeds_both_sinks_and_reports_enablement() {
        let a = Arc::new(RingSink::new(4));
        let b = Arc::new(RingSink::new(4));
        let tee = TeeSink::new(a.clone(), b.clone());
        assert!(tee.is_enabled());
        tee.emit(ev(1));
        assert_eq!((a.len(), b.len()), (1, 1));
        let dead = TeeSink::new(nop_sink(), nop_sink());
        assert!(!dead.is_enabled(), "two disabled sinks stay disabled");
    }

    #[test]
    fn shared_handle_feeds_the_same_buffer() {
        let ring = Arc::new(RingSink::new(8));
        let shared: SharedSink = ring.clone();
        shared.emit(ev(1));
        shared.emit(ev(2));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 0);
    }
}
