//! # Generic, parameterised PIM compute unit (paper Section 4.1)
//!
//! The paper deliberately evaluates a *generic* PIM unit — a SIMD ALU
//! coupled with temporary storage (TS) — so that the OrderLight primitive
//! can be studied across disparate PIM placements (3D logic die, per-bank,
//! per-sub-array). Two parameters are swept:
//!
//! * **TS size** ([`TsSize`]), expressed as a fraction of the 2 KB row
//!   buffer: it bounds the tile size `N` — how many PIM instructions can
//!   issue between ordering primitives (paper Figure 4).
//! * **Bandwidth multiplication factor** (`bmf` in [`PimUnit::new`]): how much
//!   internal bandwidth the PIM units of a channel collectively realise
//!   over the host-visible bus. One fine-grained command is broadcast to
//!   `BMF` lock-stepped units; the simulator models the representative
//!   unit's slice and scales data-bandwidth accounting by `BMF`.

pub mod ts;
pub mod unit;

pub use ts::{TemporaryStorage, TsSize};
pub use unit::PimUnit;
