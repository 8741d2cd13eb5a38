//! # Packet-lifecycle spans and fence-stall attribution
//!
//! Answers *where the cycles went* for a profiled run, in two layers:
//!
//! * **Core-side stall attribution.** Every SM stall cycle is charged
//!   to exactly one typed [`orderlight_trace::StallCause`] (fence wait,
//!   fence drain, OrderLight injection spacing, register dependence,
//!   structural hazard, credit exhaustion). The profiler streams the
//!   run-length-batched `CoreStall` events into per-cause sums and
//!   verifies a **conservation invariant**: the attributed cycles per
//!   cause equal — exactly, not approximately — the stall counters the
//!   SMs already maintain in [`orderlight_sim::RunStats`]. A profile
//!   whose breakdown does not add up is a bug, not a report.
//! * **Memory-side lifecycle decomposition.** Per-request and
//!   per-primitive latency phases reconstructed by matching lifecycle
//!   event pairs: NoC traversal (packet created at the core → copy at
//!   the controller, converted across clock domains onto wall time),
//!   MC ingress-queue residency, bank-timing wait (dequeue → column
//!   issue), OrderLight barrier hold (copy arrival → merge), fence
//!   round trips, and refresh lockout windows.
//!
//! [`StallProfiler`] is a passive [`orderlight_trace::TraceSink`]; it
//! aggregates in-stream and never influences simulated behaviour. It
//! works under **both** execution cores: every component synthesizes
//! its periodic trace events closed-form at skip boundaries, and every
//! aggregate here is order-insensitive, so the report is byte-identical
//! across cores and the conservation invariant holds bit-identically
//! (enforced by `tests/profile_core_equivalence.rs`).
//!
//! ```
//! use orderlight_profile::profile_scenario;
//! use orderlight_sim::ScenarioBuilder;
//! use orderlight_sim::config::ExecMode;
//! use orderlight_workloads::{OrderingMode, WorkloadId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence))
//!     .data_kb(8) // keep the doctest fast
//!     .build()?;
//! let outcome = profile_scenario(&scenario)?;
//! assert!(outcome.is_conserved(), "{}", outcome.summary());
//! # Ok(())
//! # }
//! ```

pub mod profiler;
pub mod report;
pub mod runner;

pub use profiler::StallProfiler;
pub use report::{NocLat, PhaseLat, ProfileReport, PROFILE_SCHEMA};
pub use runner::{profile_points, profile_scenario, profile_scenario_with, ProfileOutcome};
