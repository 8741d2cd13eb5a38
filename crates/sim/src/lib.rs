//! # Full-system simulator (paper Section 6 methodology)
//!
//! Assembles the whole stack — SMs ([`orderlight_gpu`]), per-channel
//! memory pipes ([`orderlight_noc`]), memory controllers
//! ([`orderlight_memctrl`]) and HBM channels with PIM units
//! ([`orderlight_hbm`], [`orderlight_pim`]) — under the Table 1
//! configuration, runs a workload to completion in two clock domains
//! (1200 MHz core, 850 MHz memory), verifies the result against the
//! golden model, and reports the paper's metrics:
//!
//! * execution time (ms) and core stall cycles,
//! * PIM command bandwidth (GC/s) and PIM data bandwidth (GB/s),
//! * ordering primitives issued per PIM instruction,
//! * functional correctness (matches / mismatches vs. the golden image).
//!
//! [`scenario::ScenarioBuilder`] is the typed front door: one builder
//! collects the workload, execution mode, kernel parameters, system
//! overrides, execution core, worker count, trace sink and fault plan,
//! validates them together, and hands back a runnable
//! [`Scenario`].
//!
//! [`experiments`] packages a canned runner for every figure and table
//! of the paper's evaluation. Each sweep enumerates its design points
//! first ([`experiments::JobSpec`]) and executes them through the
//! [`pool`] — a dependency-free scoped-thread pool whose results are
//! bit-identical to the serial loop at any worker count. [`figures`]
//! turns those runners into the paper's printed tables and figures,
//! one printer per id.

pub mod calendar;
pub mod cli;
pub mod config;
pub mod core_select;
pub mod experiments;
pub mod figures;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod schema;
pub mod service;
pub mod stats;
pub mod system;

pub use config::{ExecMode, ExperimentConfig, SystemConfig};
pub use core_select::SimCore;
pub use pool::Pool;
pub use scenario::{Scenario, ScenarioBuilder};
pub use schema::{ScenarioSpec, SchemaError, SCENARIO_SCHEMA_V1};
pub use stats::RunStats;
pub use system::System;
