//! # OrderLight: memory-centric ordering for fine-grained PIM
//!
//! This crate is the foundation of a from-scratch reproduction of
//! *OrderLight: Lightweight Memory-Ordering Primitive for Efficient
//! Fine-Grained PIM Computations* (Nag & Balasubramonian, MICRO 2021).
//!
//! It defines everything the rest of the workspace shares:
//!
//! * [`types`] — identifiers ([`ChannelId`], [`BankId`], [`MemGroupId`], …),
//!   addresses and clock-domain aliases used across the simulator.
//! * [`isa`] — the fine-grained PIM instruction set ([`PimInstruction`],
//!   [`AluOp`]) plus the host-visible kernel instruction stream
//!   ([`KernelInstr`]) with both PIM and conventional load/store forms.
//! * [`packet`] — the [`OrderLightPacket`] wire format (2-bit packet ID,
//!   4-bit channel ID, 4-bit memory-group ID, 32-bit packet number; paper
//!   Figure 8) with bit-exact encode/decode.
//! * [`message`] — the request/response messages that flow through the
//!   memory pipe, including in-band [`Marker`]s (OrderLight packets and
//!   fence probes).
//! * [`fsm`] — the copy-and-merge finite state machines used wherever the
//!   memory pipe diverges (L2 sub-partitions, read/write queues; paper
//!   Figure 9).
//! * [`mapping`] — physical address interleaving (256 B chunks across
//!   channels, 2 KB rows, bank rotation) mirroring the paper's Section 6
//!   assumptions.
//! * [`taxonomy`] — the CGO/FGO x CGA/FGA design-space taxonomy of paper
//!   Figures 1 and 2, with the literature classification reproduced.
//!
//! # Example
//!
//! ```
//! use orderlight::packet::OrderLightPacket;
//! use orderlight::types::{ChannelId, MemGroupId};
//!
//! # fn main() -> Result<(), orderlight::error::PacketError> {
//! let pkt = OrderLightPacket::new(ChannelId(3), MemGroupId(1), 42);
//! let bits = pkt.encode();
//! assert_eq!(OrderLightPacket::decode(bits)?, pkt);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod event;
pub mod fault;
pub mod fsm;
pub mod hash;
pub mod isa;
pub mod mapping;
pub mod message;
pub mod packet;
pub mod rng;
pub mod slab;
pub mod taxonomy;
pub mod types;

pub use error::{ConfigError, PacketError};
pub use event::{min_horizon, NextEvent};
pub use fault::{DropEdge, FaultLayer, FaultPlan, NocJitter, RefreshStorm};
pub use isa::{
    AluOp, InstrStream, KernelInstr, OrderingInstr, PimInstruction, PimOp, Reg, VecStream,
};
pub use mapping::{AddressMapping, GroupMap, Location};
pub use message::{Marker, MarkerCopy, MemReq, MemResp, ReqMeta};
pub use packet::OrderLightPacket;
pub use slab::{Slab, SlabRef};
pub use types::{
    Addr, BankId, ChannelId, CoreCycle, GlobalWarpId, MemCycle, MemGroupId, Stripe, TsSlot,
    WarpTable, BUS_BYTES, LANES, LANE_BYTES,
};
