//! # OrderLight suite — facade crate
//!
//! A from-scratch Rust reproduction of *OrderLight: Lightweight
//! Memory-Ordering Primitive for Efficient Fine-Grained PIM
//! Computations* (Nag & Balasubramonian, MICRO 2021).
//!
//! This crate re-exports the whole workspace behind one dependency and
//! hosts the runnable examples (`examples/`), the cross-crate
//! integration tests (`tests/`), the checks behind `orderlight bench`
//! ([`mod@bench`]) and the binary's flag parser ([`cli`]). The
//! layering, bottom to top:
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`core`] | `orderlight` | PIM ISA, OrderLight packets, copy-and-merge FSM, address mapping, taxonomy |
//! | [`hbm`] | `orderlight-hbm` | HBM bank/channel timing + functional storage |
//! | [`pim`] | `orderlight-pim` | the generic parameterised PIM unit (TS + SIMD ALU) |
//! | [`memctrl`] | `orderlight-memctrl` | FR-FCFS controller with memory-centric ordering |
//! | [`noc`] | `orderlight-noc` | the GPU memory pipe with L2 sub-partition divergence |
//! | [`gpu`] | `orderlight-gpu` | SMs, warps, operand collector, fence stalls |
//! | [`workloads`] | `orderlight-workloads` | the Table 2 kernel suite + golden verification |
//! | [`sim`] | `orderlight-sim` | full-system assembly, [`ScenarioBuilder`](sim::ScenarioBuilder), experiments for every figure |
//! | [`trace`] | `orderlight-trace` | cycle-level trace events, sinks, histograms, Perfetto export |
//! | [`check`] | `orderlight-check` | happens-before ordering oracle + fault-injection check harness |
//! | [`profile`] | `orderlight-profile` | stall-attribution profiler: lifecycle spans + conservation-checked stall causes |
//!
//! # Quickstart
//!
//! ```
//! use orderlight_suite::sim::config::{ExecMode, ExperimentConfig};
//! use orderlight_suite::sim::System;
//! use orderlight_suite::workloads::{OrderingMode, WorkloadId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut exp =
//!     ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
//! exp.data_bytes_per_channel = 8 * 1024; // keep the doctest fast
//! let mut system = System::build(exp)?;
//! let stats = system.run(50_000_000)?;
//! assert!(stats.is_correct());
//! println!("vector_add with OrderLight: {:.3} ms", stats.exec_time_ms);
//! # Ok(())
//! # }
//! ```

pub use orderlight as core;
pub use orderlight_check as check;
pub use orderlight_gpu as gpu;
pub use orderlight_hbm as hbm;
pub use orderlight_memctrl as memctrl;
pub use orderlight_noc as noc;
pub use orderlight_pim as pim;
pub use orderlight_profile as profile;
pub use orderlight_sim as sim;
pub use orderlight_trace as trace;
pub use orderlight_workloads as workloads;

pub mod bench;
pub mod cli;
