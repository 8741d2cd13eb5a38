//! The PIM compute unit: TS + SIMD ALU, driven by fine-grained commands
//! the memory controller forwards.
//!
//! The unit is *purely functional*: all timing (row activation, column
//! command spacing, command-bus occupancy) is enforced upstream by the
//! memory controller and DRAM channel models. The unit's job is to make
//! the data real — so an incorrectly ordered command stream produces
//! incorrect bytes in DRAM. Its SIMD ALU is [`orderlight::AluOp::apply`],
//! the lane semantics the host core and the golden-model verifier share,
//! so all three compute bit-identical results.

use crate::ts::{TemporaryStorage, TsSize};
use orderlight::types::{Stripe, TsSlot, BUS_BYTES};
use orderlight::PimOp;

/// One (representative) PIM compute unit attached to a channel.
///
/// # Example
///
/// ```
/// use orderlight_pim::{PimUnit, TsSize};
/// use orderlight::{AluOp, PimOp};
/// use orderlight::types::{Stripe, TsSlot};
///
/// let mut unit = PimUnit::new(TsSize::Eighth, 2048, 16);
/// unit.apply(PimOp::Load, TsSlot(0), Some(Stripe::splat(5)));
/// unit.apply(PimOp::Compute(AluOp::Add), TsSlot(0), Some(Stripe::splat(2)));
/// let out = unit.apply(PimOp::Store, TsSlot(0), None).unwrap();
/// assert_eq!(out, Stripe::splat(7));
/// ```
#[derive(Debug, Clone)]
pub struct PimUnit {
    ts: TemporaryStorage,
    bmf: u32,
    data_bytes: u64,
}

impl PimUnit {
    /// Creates a unit with TS sized as `ts_size` of a `row_bytes` row and
    /// a bandwidth multiplication factor of `bmf`.
    ///
    /// # Panics
    /// Panics if `bmf` is zero.
    #[must_use]
    pub fn new(ts_size: TsSize, row_bytes: u64, bmf: u32) -> Self {
        assert!(bmf > 0, "bandwidth multiplication factor must be positive");
        PimUnit { ts: TemporaryStorage::with_size(ts_size, row_bytes), bmf, data_bytes: 0 }
    }

    /// Bytes of internal PIM data bandwidth consumed so far, already
    /// scaled by the bandwidth multiplication factor.
    #[must_use]
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Applies one fine-grained PIM command.
    ///
    /// `mem` carries the DRAM stripe for commands that read memory
    /// ([`PimOp::Load`] and memory-operand [`PimOp::Compute`]); it must be
    /// `None` otherwise. Returns the stripe to write back to DRAM for
    /// [`PimOp::Store`], `None` otherwise.
    ///
    /// # Panics
    /// Panics if `mem` presence does not match the opcode, or if the TS
    /// slot is out of range — both indicate kernel-generation bugs.
    pub fn apply(&mut self, op: PimOp, slot: TsSlot, mem: Option<Stripe>) -> Option<Stripe> {
        if op.accesses_dram() {
            self.data_bytes += BUS_BYTES as u64 * u64::from(self.bmf);
        }
        match op {
            PimOp::Load => {
                let m = mem.expect("PIM load needs a memory stripe");
                self.ts.write(slot, m);
                None
            }
            PimOp::Compute(alu_op) => {
                let m = if alu_op.reads_memory() {
                    mem.expect("fetch-and-op needs a memory stripe")
                } else {
                    assert!(mem.is_none(), "immediate compute takes no memory stripe");
                    Stripe::default()
                };
                self.ts.write(slot, alu_op.apply(self.ts.read(slot), m));
                None
            }
            PimOp::Execute(alu_op) => {
                assert!(mem.is_none(), "execute-only command takes no memory stripe");
                self.ts.write(slot, alu_op.apply(self.ts.read(slot), Stripe::default()));
                None
            }
            PimOp::Store => {
                assert!(mem.is_none(), "PIM store takes no memory stripe");
                Some(self.ts.read(slot))
            }
        }
    }

    /// Peeks at a TS slot (testing / debugging).
    #[must_use]
    pub fn ts_slot(&self, slot: TsSlot) -> Stripe {
        self.ts.read(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::AluOp;

    fn unit() -> PimUnit {
        PimUnit::new(TsSize::Sixteenth, 2048, 16)
    }

    #[test]
    fn vector_add_tile() {
        // The paper's Figure 4 kernel on one tile: load a, fetch-and-add
        // b, store c.
        let mut u = unit();
        for i in 0..4u16 {
            u.apply(PimOp::Load, TsSlot(i), Some(Stripe::splat(10 + u32::from(i))));
        }
        for i in 0..4u16 {
            u.apply(PimOp::Compute(AluOp::Add), TsSlot(i), Some(Stripe::splat(100)));
        }
        for i in 0..4u16 {
            let out = u.apply(PimOp::Store, TsSlot(i), None).unwrap();
            assert_eq!(out, Stripe::splat(110 + u32::from(i)));
        }
        assert_eq!(u.data_bytes(), 12 * 32 * 16);
    }

    #[test]
    fn execute_only_commands_move_no_data() {
        let mut u = unit();
        u.apply(PimOp::Load, TsSlot(0), Some(Stripe::splat(3)));
        u.apply(PimOp::Execute(AluOp::ScaleImm(7)), TsSlot(0), None);
        assert_eq!(u.ts_slot(TsSlot(0)), Stripe::splat(21));
        assert_eq!(u.data_bytes(), 32 * 16, "only the load moved data");
    }

    #[test]
    fn immediate_compute_via_compute_op() {
        let mut u = unit();
        u.apply(PimOp::Load, TsSlot(1), Some(Stripe::splat(4)));
        // Compute with an immediate op carries no memory stripe.
        u.apply(PimOp::Compute(AluOp::AddImm(6)), TsSlot(1), None);
        assert_eq!(u.ts_slot(TsSlot(1)), Stripe::splat(10));
    }

    #[test]
    fn bmf_scales_data_bytes() {
        let mut u4 = PimUnit::new(TsSize::Sixteenth, 2048, 4);
        u4.apply(PimOp::Load, TsSlot(0), Some(Stripe::default()));
        assert_eq!(u4.data_bytes(), 32 * 4);
    }

    #[test]
    #[should_panic(expected = "needs a memory stripe")]
    fn load_without_memory_panics() {
        let mut u = unit();
        u.apply(PimOp::Load, TsSlot(0), None);
    }

    #[test]
    #[should_panic(expected = "takes no memory stripe")]
    fn store_with_memory_panics() {
        let mut u = unit();
        u.apply(PimOp::Store, TsSlot(0), Some(Stripe::default()));
    }
}
