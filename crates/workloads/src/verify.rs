//! Golden-model verification.
//!
//! Replays kernel instruction streams with *sequential semantics* —
//! program order, no reordering anywhere — against a software memory
//! image, then compares the image with what the simulator's DRAM
//! actually holds. A correctly ordered simulation (fence or OrderLight)
//! must match exactly; an unordered one must not (paper Figure 5's
//! "Functionally Incorrect" bar is asserted, not assumed).

use orderlight::hash::{IntMap, IntSet};
use orderlight::types::{Addr, Stripe};
use orderlight::{InstrStream, KernelInstr, PimOp};

/// The sequential interpreter: one PIM unit's TS plus host registers.
///
/// # Example
///
/// ```
/// use orderlight::mapping::{AddressMapping, GroupMap};
/// use orderlight::types::ChannelId;
/// use orderlight_workloads::{OrderingMode, WorkloadId, WorkloadInstance};
///
/// let instance = WorkloadInstance::new(
///     WorkloadId::Copy,
///     AddressMapping::hbm_default(),
///     &GroupMap::default(),
///     8,
///     64,
///     OrderingMode::Fence,
/// );
/// let golden = instance.golden_pim(ChannelId(3));
/// // Copy writes every stripe of structure 1.
/// assert_eq!(golden.written().len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct GoldenInterp {
    mem: IntMap<u64, Stripe>,
    written: IntSet<u64>,
    ts: Vec<Stripe>,
    regs: Vec<Stripe>,
}

impl GoldenInterp {
    /// Creates an interpreter with a TS of `ts_slots` stripes.
    #[must_use]
    pub fn new(ts_slots: usize) -> Self {
        Self::with_capacity(ts_slots, 0, 0)
    }

    /// Creates an interpreter with a TS of `ts_slots` stripes whose
    /// memory image holds `mem` addresses, of which the streams store
    /// to `written`, without growing.
    #[must_use]
    pub fn with_capacity(ts_slots: usize, mem: usize, written: usize) -> Self {
        GoldenInterp {
            mem: IntMap::with_capacity_and_hasher(mem, Default::default()),
            written: IntSet::with_capacity_and_hasher(written, Default::default()),
            ts: vec![Stripe::default(); ts_slots.max(1)],
            regs: vec![Stripe::default(); 64],
        }
    }

    /// Pre-loads memory (workload input data).
    pub fn init(&mut self, addr: Addr, value: Stripe) {
        self.mem.insert(addr.0, value);
    }

    /// Reads the memory image (zero where untouched).
    #[must_use]
    pub fn read(&self, addr: Addr) -> Stripe {
        self.mem.get(&addr.0).copied().unwrap_or_default()
    }

    /// The whole memory image, by address.
    #[cfg(test)]
    pub(crate) fn image(&self) -> &IntMap<u64, Stripe> {
        &self.mem
    }

    /// Addresses the interpreted streams stored to.
    #[must_use]
    pub fn written(&self) -> &IntSet<u64> {
        &self.written
    }

    /// Interprets one instruction stream to completion. Streams of
    /// different channels/warps touch disjoint TS state, so interpret
    /// each with a fresh `GoldenInterp` sharing is unnecessary — or call
    /// [`reset_ts`](Self::reset_ts) in between.
    pub fn interpret(&mut self, stream: &mut dyn InstrStream) {
        while let Some(instr) = stream.next_instr() {
            match instr {
                KernelInstr::Pim(p) => {
                    let slot = p.slot.index();
                    match p.op {
                        PimOp::Load => self.ts[slot] = self.read(p.addr),
                        PimOp::Compute(op) => {
                            let mem = if op.reads_memory() {
                                self.read(p.addr)
                            } else {
                                Stripe::default()
                            };
                            self.ts[slot] = op.apply(self.ts[slot], mem);
                        }
                        PimOp::Execute(op) => {
                            self.ts[slot] = op.apply(self.ts[slot], Stripe::default());
                        }
                        PimOp::Store => {
                            self.mem.insert(p.addr.0, self.ts[slot]);
                            self.written.insert(p.addr.0);
                        }
                    }
                }
                KernelInstr::Ordering(_) => {}
                KernelInstr::Load { addr, reg } => {
                    self.regs[reg.0 as usize] = self.read(addr);
                }
                KernelInstr::Compute { op, dst, a, b } => {
                    self.regs[dst.0 as usize] =
                        op.apply(self.regs[a.0 as usize], self.regs[b.0 as usize]);
                }
                KernelInstr::Store { addr, reg } => {
                    self.mem.insert(addr.0, self.regs[reg.0 as usize]);
                    self.written.insert(addr.0);
                }
            }
        }
    }

    /// Clears TS and registers between per-channel streams (each channel
    /// has its own PIM unit and warp).
    pub fn reset_ts(&mut self) {
        self.ts.fill(Stripe::default());
        self.regs.fill(Stripe::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::isa::OrderingInstr;
    use orderlight::types::{MemGroupId, TsSlot};
    use orderlight::{AluOp, PimInstruction, Reg, VecStream};

    #[test]
    fn pim_vector_add_semantics() {
        let mut interp = GoldenInterp::new(4);
        interp.init(Addr(0), Stripe::splat(40));
        interp.init(Addr(1000), Stripe::splat(2));
        let instrs = vec![
            KernelInstr::Pim(PimInstruction {
                op: PimOp::Load,
                addr: Addr(0),
                slot: TsSlot(0),
                group: MemGroupId(0),
            }),
            KernelInstr::Ordering(OrderingInstr::OrderLight { group: MemGroupId(0) }),
            KernelInstr::Pim(PimInstruction {
                op: PimOp::Compute(AluOp::Add),
                addr: Addr(1000),
                slot: TsSlot(0),
                group: MemGroupId(0),
            }),
            KernelInstr::Pim(PimInstruction {
                op: PimOp::Store,
                addr: Addr(2000),
                slot: TsSlot(0),
                group: MemGroupId(0),
            }),
        ];
        interp.interpret(&mut VecStream::new(instrs));
        assert_eq!(interp.read(Addr(2000)), Stripe::splat(42));
        assert!(interp.written().contains(&2000));
        assert_eq!(interp.written().len(), 1);
    }

    #[test]
    fn host_semantics_match_pim() {
        let mut interp = GoldenInterp::new(1);
        interp.init(Addr(0), Stripe::splat(40));
        interp.init(Addr(32), Stripe::splat(2));
        let instrs = vec![
            KernelInstr::Load { addr: Addr(0), reg: Reg(0) },
            KernelInstr::Load { addr: Addr(32), reg: Reg(1) },
            KernelInstr::Compute { op: AluOp::Add, dst: Reg(2), a: Reg(0), b: Reg(1) },
            KernelInstr::Store { addr: Addr(64), reg: Reg(2) },
        ];
        interp.interpret(&mut VecStream::new(instrs));
        assert_eq!(interp.read(Addr(64)), Stripe::splat(42));
    }

    #[test]
    fn reset_ts_clears_state() {
        let mut interp = GoldenInterp::new(2);
        let load = KernelInstr::Pim(PimInstruction {
            op: PimOp::Load,
            addr: Addr(0),
            slot: TsSlot(1),
            group: MemGroupId(0),
        });
        interp.init(Addr(0), Stripe::splat(7));
        interp.interpret(&mut VecStream::new(vec![load]));
        interp.reset_ts();
        let store = KernelInstr::Pim(PimInstruction {
            op: PimOp::Store,
            addr: Addr(96),
            slot: TsSlot(1),
            group: MemGroupId(0),
        });
        interp.interpret(&mut VecStream::new(vec![store]));
        assert_eq!(interp.read(Addr(96)), Stripe::default());
    }
}
