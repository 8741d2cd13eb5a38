//! The operand collector (paper Section 5.3.1, "Operand Collector").
//!
//! Memory instructions occupy a collector unit while their register
//! operands are gathered; requests leave the collector in allocation
//! order after a fixed residency. The collector keeps a count of PIM
//! requests currently resident, per (channel, memory-group): an
//! OrderLight packet is injected into the LDST queue only once the count
//! for its channel/group reads zero, guaranteeing the packet follows all
//! preceding PIM requests into the memory pipe without halting issue for
//! long (unlike a fence, which drains the whole core-to-memory path).

use orderlight::hash::IntMap;
use orderlight::message::MemReq;
use orderlight::types::{ChannelId, CoreCycle, GlobalWarpId, MemGroupId, WarpTable};
use std::collections::VecDeque;

/// One resident collector-unit entry.
#[derive(Debug, Clone)]
struct OcEntry {
    exit_at: CoreCycle,
    req: MemReq,
    warp: GlobalWarpId,
    pim_key: Option<(ChannelId, MemGroupId)>,
}

/// The multi-unit operand collector of one SM.
#[derive(Debug, Clone)]
pub struct OperandCollector {
    entries: VecDeque<OcEntry>,
    capacity: usize,
    latency: CoreCycle,
    pim_counts: IntMap<(ChannelId, MemGroupId), u32>,
    warp_counts: WarpTable<u32>,
}

impl OperandCollector {
    /// Creates a collector with `capacity` units and a fixed operand
    /// `latency` (register-file access residency).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, latency: CoreCycle) -> Self {
        assert!(capacity > 0, "collector needs at least one unit");
        OperandCollector {
            entries: VecDeque::new(),
            capacity,
            latency,
            pim_counts: IntMap::default(),
            warp_counts: WarpTable::new(),
        }
    }

    /// Whether a collector unit is free.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Whether no requests are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates a collector unit for `req` at `now`. `pim_key` is
    /// `Some((channel, group))` for PIM requests, maintaining the
    /// OrderLight gating counter.
    ///
    /// # Panics
    /// Panics if no unit is free.
    pub fn allocate(
        &mut self,
        req: MemReq,
        warp: GlobalWarpId,
        pim_key: Option<(ChannelId, MemGroupId)>,
        now: CoreCycle,
    ) {
        assert!(self.has_space(), "operand collector overflow");
        if let Some(key) = pim_key {
            *self.pim_counts.entry(key).or_insert(0) += 1;
        }
        *self.warp_counts.get_mut(warp) += 1;
        self.entries.push_back(OcEntry { exit_at: now + self.latency, req, warp, pim_key });
    }

    /// PIM requests resident for `(channel, group)` — the OrderLight
    /// injection gate.
    #[must_use]
    pub fn pim_count(&self, channel: ChannelId, group: MemGroupId) -> u32 {
        self.pim_counts.get(&(channel, group)).copied().unwrap_or(0)
    }

    /// Requests resident from `warp` — the fence drain gate.
    #[must_use]
    pub fn warp_count(&self, warp: GlobalWarpId) -> u32 {
        self.warp_counts.get(warp)
    }

    /// Exit deadline of the oldest resident entry, if any. Entries
    /// leave in allocation order, so the head's deadline is the
    /// collector's earliest possible state change (quiescence horizon).
    #[must_use]
    pub fn next_exit(&self) -> Option<CoreCycle> {
        self.entries.front().map(|e| e.exit_at)
    }

    /// Hands up to `budget` requests whose residency elapsed to `take`
    /// (the LDST queue), in order, by value.
    pub fn drain(&mut self, now: CoreCycle, budget: usize, mut take: impl FnMut(MemReq)) {
        for _ in 0..budget {
            if self.entries.front().is_none_or(|head| head.exit_at > now) {
                break;
            }
            let e = self.entries.pop_front().expect("front exists");
            if let Some(key) = e.pim_key {
                let c = self.pim_counts.get_mut(&key).expect("count tracked");
                *c -= 1;
            }
            *self.warp_counts.get_mut(e.warp) -= 1;
            take(e.req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::message::ReqMeta;
    use orderlight::types::{Addr, TsSlot};
    use orderlight::{PimInstruction, PimOp};

    fn pim_req(seq: u64) -> MemReq {
        MemReq::Pim {
            instr: PimInstruction {
                op: PimOp::Load,
                addr: Addr(seq * 32),
                slot: TsSlot(0),
                group: MemGroupId(0),
            },
            meta: ReqMeta { warp: GlobalWarpId(0), seq },
        }
    }

    #[test]
    fn counts_track_residency() {
        let mut oc = OperandCollector::new(4, 3);
        let key = (ChannelId(0), MemGroupId(0));
        oc.allocate(pim_req(1), GlobalWarpId(0), Some(key), 0);
        oc.allocate(pim_req(2), GlobalWarpId(0), Some(key), 0);
        assert_eq!(oc.pim_count(key.0, key.1), 2);
        assert_eq!(oc.warp_count(GlobalWarpId(0)), 2);
        let mut taken = Vec::new();
        oc.drain(2, usize::MAX, |r| taken.push(r));
        assert!(taken.is_empty(), "latency not elapsed");
        oc.drain(3, usize::MAX, |r| taken.push(r));
        assert_eq!(taken.len(), 2);
        assert_eq!(oc.pim_count(key.0, key.1), 0);
        assert_eq!(oc.warp_count(GlobalWarpId(0)), 0);
        assert!(oc.is_empty());
    }

    #[test]
    fn drain_respects_downstream_backpressure() {
        let mut oc = OperandCollector::new(4, 0);
        oc.allocate(pim_req(1), GlobalWarpId(0), None, 0);
        oc.allocate(pim_req(2), GlobalWarpId(0), None, 0);
        oc.drain(0, 1, |_| {});
        assert_eq!(oc.warp_count(GlobalWarpId(0)), 1, "second entry stayed");
    }

    #[test]
    fn capacity_is_enforced() {
        let mut oc = OperandCollector::new(1, 1);
        assert!(oc.has_space());
        oc.allocate(pim_req(1), GlobalWarpId(0), None, 0);
        assert!(!oc.has_space());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut oc = OperandCollector::new(1, 1);
        oc.allocate(pim_req(1), GlobalWarpId(0), None, 0);
        oc.allocate(pim_req(2), GlobalWarpId(0), None, 0);
    }

    #[test]
    fn keys_are_independent() {
        let mut oc = OperandCollector::new(8, 1);
        oc.allocate(pim_req(1), GlobalWarpId(0), Some((ChannelId(0), MemGroupId(0))), 0);
        oc.allocate(pim_req(2), GlobalWarpId(1), Some((ChannelId(1), MemGroupId(0))), 0);
        assert_eq!(oc.pim_count(ChannelId(0), MemGroupId(0)), 1);
        assert_eq!(oc.pim_count(ChannelId(1), MemGroupId(0)), 1);
        assert_eq!(oc.pim_count(ChannelId(0), MemGroupId(1)), 0);
        assert_eq!(oc.warp_count(GlobalWarpId(0)), 1);
        assert_eq!(oc.warp_count(GlobalWarpId(1)), 1);
    }
}
