//! # Host GPU model (paper Sections 2.2, 5.3.1, 6)
//!
//! Models the parts of a GPU that interact with the memory-ordering
//! mechanism: warps executing kernel instruction streams, the operand
//! collector (whose PIM-request counters gate OrderLight packet
//! injection), the LDST queue, and per-warp fence stalls.
//!
//! Following the paper's evaluation model, each PIM kernel warp drives a
//! single memory channel (one warp per PIM unit avoids inter-warp
//! synchronisation, Section 5.4), and host-baseline warps are likewise
//! pinned to the channel whose slice of the data they process.
//!
//! * [`warp`] — warp state: program stream, registers with a pending
//!   scoreboard, fence/OrderLight counters.
//! * [`operand_collector`] — the collector-unit queue with per
//!   (channel, memory-group) PIM counters (paper Section 5.3.1).
//! * [`sm`] — the streaming multiprocessor: warp scheduler, issue rules
//!   for every [`orderlight::KernelInstr`], LDST queue, and stall-cycle
//!   accounting.

pub mod operand_collector;
pub mod sm;
pub mod warp;

pub use operand_collector::OperandCollector;
pub use sm::{Sm, SmConfig, SmStats, MAX_WARPS_PER_SM};
pub use warp::{Warp, WarpCore, WarpState};
