//! # Memory controller with pluggable memory-ordering backends
//!
//! The controller owns one HBM [`orderlight_hbm::Channel`] and its
//! (representative) [`orderlight_pim::PimUnit`]. Requests arrive from the
//! memory pipe into separate read and write transaction queues (Table 1:
//! 64 entries each); an FR-FCFS scheduler dequeues them into per-bank
//! command queues and issues DRAM commands subject to timing.
//!
//! Two ordering mechanisms belong to the controller itself, whatever the
//! policy: it answers fence probes from one [`ordering::FenceTracker`]
//! (per-warp arrival and issue counts, paper Section 6), and it merges
//! the read/write copies of every in-band marker at the scheduler stage
//! (paper Figure 9). The policy is a pluggable
//! [`ordering::OrderingBackend`] selected via [`McConfig::ordering`],
//! which keeps only the gates where policies differ: when a request may
//! be dequeued or issued, and whether a merged marker proceeds now or is
//! held. Five backends are implemented (see [`ordering::OrderingKind`]):
//!
//! * **OrderLight** (paper Section 5.3.2, [`ordering::GroupOrdering`]) —
//!   an in-band packet is copied into both transaction queues
//!   ([`orderlight::fsm::diverge`]), merged at the scheduler stage, and
//!   then enforced with a per-memory-group *(flag, in-flight counter)*
//!   pair: requests behind the packet are not scheduled until every
//!   request ahead of it has been issued to the DRAM. Requests of other
//!   memory groups are never constrained.
//! * **Fence** (paper Section 6 baseline) — the core-centric fence. The
//!   backend adds no gate: a probe arriving at the controller is
//!   acknowledged once every prior request from the fencing warp has
//!   been issued to the DRAM; the warp stalls until the ack reaches it
//!   back up the pipe.
//! * **SeqNum** (Kim et al., paper reference 27) — per-warp PIM requests
//!   are dequeued and issued strictly in sequence-number order and a
//!   buffer credit returns to the core per retired request.
//! * **LouvreVersioned** (Kumar et al.) — in-band release markers carry
//!   per-group versions; a merged release is *held* at the scheduler
//!   until every older request of its group has issued. No per-group
//!   flag is broadcast.
//! * **BulkBitwiseStrong** (Perach et al.) — controller-enforced strong
//!   consistency: the core emits no ordering primitive at all and the
//!   controller serializes each memory group in arrival order, with
//!   epoch barriers at read/write flips recorded for the oracle.

pub mod mc;
pub mod ordering;
pub mod queues;
pub mod txn;

pub use mc::{IssueRecord, McConfig, McStats, MemoryController, PagePolicy};
pub use ordering::{FenceTracker, GroupOrdering, MarkerAction, OrderingBackend, OrderingKind};
pub use queues::{QueueEntry, TransQueue, MAX_BANKS};
pub use txn::Transaction;
