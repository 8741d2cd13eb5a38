//! # Cycle-level tracing and metrics (`orderlight-trace`)
//!
//! The observability backbone of the reproduction: a typed event
//! vocabulary covering the whole request path (warp issue at the SM,
//! OrderLight packet lifecycle, memory-controller scheduling, per-bank
//! DRAM commands), pluggable sinks, latency histograms, the live metrics
//! registry, the canonical JSON reader/writer, and an exporter to the
//! Chrome trace-event format (loadable in Perfetto / `chrome://tracing`).
//!
//! The crate is deliberately **dependency-free** — it must be buildable
//! in offline/vendored environments and linkable from every simulation
//! crate without widening their dependency graphs.
//!
//! ## Zero overhead when disabled
//!
//! Components hold an [`SharedSink`] (an `Arc<dyn TraceSink>`) that
//! defaults to [`NopSink`]. Call sites guard event construction with
//! [`TraceSink::is_enabled`], so an uninstrumented run performs one
//! boolean load per would-be event and allocates nothing. Sinks only
//! *observe* — they can never feed back into simulation state — so a
//! traced run is cycle-identical to an untraced one (asserted by the
//! determinism-parity test in the facade crate).
//!
//! ## Quick tour
//!
//! ```
//! use orderlight_trace::{ChromeTraceBuilder, ClockDomains, RingSink, TraceEvent, TraceSink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(RingSink::new(1024));
//! sink.emit(TraceEvent::DramCmd {
//!     cycle: 10,
//!     channel: 0,
//!     bank: 3,
//!     kind: orderlight_trace::DramCmdKind::Activate,
//!     row: 7,
//! });
//! let clocks = ClockDomains { core_hz: 1.2e9, mem_hz: 850e6 };
//! let json = ChromeTraceBuilder::new(clocks).build(&sink.events());
//! let doc = orderlight_trace::json::parse(&json).unwrap();
//! assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() >= 1);
//! ```

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;

pub use chrome::{ChromeTraceBuilder, ClockDomains};
pub use event::{DramCmdKind, EventCategory, InstrKind, SchedSide, StallCause, TraceEvent};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use sink::{NopSink, RingSink, SharedSink, TeeSink, TraceSink};
pub use span::{spans_to_chrome, SpanPhases, SERVICE_SPAN_PID};
