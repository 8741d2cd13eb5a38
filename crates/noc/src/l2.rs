//! An L2 slice with sub-partitions — the memory pipe's first divergence
//! point (paper Section 5.3.2, "Diverging Paths in the Memory Pipe").
//!
//! Many GPU architectures split each L2 slice into sub-partitions with
//! separate input/output queues; requests routed to different
//! sub-partitions may merge later in the pipe out of order. OrderLight
//! packets (and fence probes) are therefore *copied* onto every
//! sub-partition and *merged* at the slice exit: a copy blocks its
//! sub-partition's head until every sibling copy has reached the exit,
//! then the merged packet moves forward exactly once.
//!
//! Packet bodies live in the owning pipe's [`Slab`] arena; the slice's
//! queues carry 8-byte [`SlabRef`] handles, so forwarding a request is
//! a handle move, not a [`MemReq`] copy. Only marker divergence and
//! convergence touch the arena (copies are inserted / merged bodies
//! removed there).

use crate::delay_queue::DelayQueue;
use orderlight::fsm::diverge;
use orderlight::message::{Marker, MarkerCopy, MemReq};
use orderlight::min_horizon;
use orderlight::slab::{Slab, SlabRef};
use orderlight::types::{CoreCycle, GlobalWarpId};

/// Number of sub-partitions per L2 slice.
pub const SUB_PARTITIONS: usize = 2;

/// One L2 slice (one memory channel's worth of L2).
#[derive(Debug, Clone)]
pub struct L2Slice {
    subs: [DelayQueue<SlabRef>; SUB_PARTITIONS],
    merges: u64,
    forwarded: u64,
    rr: usize,
    /// Acknowledge fence probes here — at the "global serialization
    /// point" — instead of forwarding them to the controller. This
    /// models the *insufficient* fence semantics of paper Section 4.3:
    /// faster, but with no guarantee that the controller will not
    /// reorder pre-fence stores against post-fence requests.
    fence_ack_here: bool,
    pending_acks: Vec<(GlobalWarpId, u64)>,
}

impl L2Slice {
    /// Creates a slice whose sub-partition queues add `sub_latency` and
    /// hold `sub_capacity` entries each.
    #[must_use]
    pub fn new(sub_latency: CoreCycle, sub_capacity: usize) -> Self {
        L2Slice::with_fence_ack(sub_latency, sub_capacity, false)
    }

    /// Creates a slice, optionally acknowledging fence probes at the
    /// slice exit (the insufficient "global serialization point" fence
    /// of paper Section 4.3; see the field documentation).
    #[must_use]
    pub fn with_fence_ack(
        sub_latency: CoreCycle,
        sub_capacity: usize,
        fence_ack_here: bool,
    ) -> Self {
        L2Slice {
            subs: [
                DelayQueue::new(sub_latency, sub_capacity),
                DelayQueue::new(sub_latency, sub_capacity),
            ],
            merges: 0,
            forwarded: 0,
            rr: 0,
            fence_ack_here,
            pending_acks: Vec::new(),
        }
    }

    /// Drains fence acknowledgements generated at this slice (only when
    /// constructed with `fence_ack_here`).
    pub fn take_acks(&mut self) -> Vec<(GlobalWarpId, u64)> {
        std::mem::take(&mut self.pending_acks)
    }

    /// Which sub-partition a request is routed to (stripe-parity hash;
    /// markers go to both).
    fn route(req: &MemReq) -> Option<usize> {
        match req {
            MemReq::Pim { instr, .. } => {
                if instr.op.accesses_dram() {
                    Some((instr.addr.0 / 32 % SUB_PARTITIONS as u64) as usize)
                } else {
                    Some(instr.slot.index() % SUB_PARTITIONS)
                }
            }
            MemReq::HostRead { addr, .. } | MemReq::HostWrite { addr, .. } => {
                Some((addr.0 / 32 % SUB_PARTITIONS as u64) as usize)
            }
            MemReq::Marker(_) => None,
        }
    }

    /// Whether `req` can be accepted this cycle.
    #[must_use]
    pub fn can_accept(&self, req: &MemReq) -> bool {
        match Self::route(req) {
            Some(i) => self.subs[i].has_space(),
            None => self.subs.iter().all(DelayQueue::has_space),
        }
    }

    /// Accepts the request behind `handle`, copying markers onto every
    /// sub-partition (the original marker body is replaced in the arena
    /// by one body per copy).
    ///
    /// # Panics
    /// Panics if called while [`can_accept`](Self::can_accept) is false.
    pub fn push(&mut self, handle: SlabRef, arena: &mut Slab<MemReq>, now: CoreCycle) {
        match Self::route(arena.get(handle)) {
            Some(i) => self.subs[i].push(handle, now),
            None => {
                let MemReq::Marker(copy) = arena.remove(handle) else {
                    unreachable!("markers have no route")
                };
                let copies = diverge(copy.marker, SUB_PARTITIONS);
                for (sub, c) in self.subs.iter_mut().zip(copies) {
                    sub.push(arena.insert(MemReq::Marker(c)), now);
                }
            }
        }
    }

    /// Drains ready sub-partition heads into `out` (the L2-to-DRAM
    /// queue), handling marker convergence.
    pub fn tick(
        &mut self,
        now: CoreCycle,
        out: &mut DelayQueue<SlabRef>,
        arena: &mut Slab<MemReq>,
    ) {
        // Marker convergence: when every sub-partition's ready head is a
        // copy of the same marker, merge them and forward one packet.
        if self.merge_branch(now, arena) {
            let head_key = |s: &DelayQueue<SlabRef>| {
                let head = s.peek_ready(now).map(|&r| arena.get(r));
                match head {
                    Some(MemReq::Marker(c)) => c.marker.key(),
                    _ => unreachable!("merge branch: every head is a ready marker"),
                }
            };
            let first = head_key(&self.subs[0]);
            assert!(
                self.subs.iter().all(|s| head_key(s) == first),
                "FIFO sub-partitions must pair marker copies in order"
            );
            if out.has_space() {
                let mut marker = None;
                for sub in &mut self.subs {
                    let r = sub.pop_ready(now).expect("head was ready");
                    match arena.remove(r) {
                        MemReq::Marker(c) => marker = Some(c.marker),
                        _ => unreachable!("head was a ready marker"),
                    }
                }
                let marker = marker.expect("at least one sub-partition");
                self.merges += 1;
                if self.fence_ack_here {
                    if let Marker::FenceProbe { warp, fence_id, .. } = marker {
                        // The "global serialization point" fence: ack now,
                        // never tell the controller. Correctness is not
                        // guaranteed past this point (paper Section 4.3).
                        self.pending_acks.push((warp, fence_id));
                        return;
                    }
                }
                out.push(arena.insert(MemReq::Marker(MarkerCopy { marker, total_copies: 1 })), now);
            }
            return;
        }
        // Forward ready request heads, alternating priority for fairness.
        // A marker head blocks its own sub-partition until merged.
        for k in 0..SUB_PARTITIONS {
            let i = (self.rr + k) % SUB_PARTITIONS;
            match self.subs[i].peek_ready(now) {
                Some(&r) if !matches!(arena.get(r), MemReq::Marker(_)) && out.has_space() => {
                    let r = self.subs[i].pop_ready(now).expect("peeked ready");
                    out.push(r, now);
                    self.forwarded += 1;
                }
                _ => {}
            }
        }
        self.rr = (self.rr + 1) % SUB_PARTITIONS;
    }

    /// Whether the slice holds no traffic.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.subs.iter().all(DelayQueue::is_empty)
    }

    /// Requests resident across every sub-partition (occupancy for the
    /// NoC counter tracks; marker copies count once per copy).
    #[must_use]
    pub fn len(&self) -> usize {
        self.subs.iter().map(DelayQueue::len).sum()
    }

    /// Whether every sub-partition's ready head is a marker copy — the
    /// exact condition under which [`tick`](Self::tick) takes the merge
    /// branch and skips the round-robin pointer advance.
    fn merge_branch(&self, now: CoreCycle, arena: &Slab<MemReq>) -> bool {
        self.subs
            .iter()
            .all(|s| matches!(s.peek_ready(now).map(|&r| arena.get(r)), Some(MemReq::Marker(_))))
    }

    /// Quiescence horizon of the slice given its output queue: `now` if
    /// a merge or forward could happen this cycle, otherwise the
    /// earliest not-yet-ready sub-partition head deadline. A head that
    /// is ready but blocked (marker waiting for its sibling copy, or
    /// `out` full) contributes no event of its own — its unblocking is
    /// some *other* component's advertised event.
    #[must_use]
    pub fn next_event(
        &self,
        now: CoreCycle,
        out: &DelayQueue<SlabRef>,
        arena: &Slab<MemReq>,
    ) -> Option<CoreCycle> {
        if out.has_space() {
            if self.merge_branch(now, arena) {
                return Some(now);
            }
            if self.subs.iter().any(|s| {
                matches!(s.peek_ready(now).map(|&r| arena.get(r)),
                    Some(r) if !matches!(r, MemReq::Marker(_)))
            }) {
                return Some(now);
            }
        }
        let mut h = None;
        for s in &self.subs {
            if s.peek_ready(now).is_none() {
                h = min_horizon(h, s.next_ready());
            }
        }
        h
    }

    /// Advances the slice across a quiescent window of `span` cycles —
    /// one in which [`tick`](Self::tick) would not move any traffic.
    /// The only per-cycle state is the round-robin pointer: the dense
    /// loop advances it every tick *except* when the merge branch runs,
    /// and the branch condition is frozen across the window (head
    /// readiness transitions are themselves horizon events).
    pub fn skip_quiescent(&mut self, now: CoreCycle, span: u64, arena: &Slab<MemReq>) {
        if !self.merge_branch(now, arena) {
            self.rr = (self.rr + span as usize % SUB_PARTITIONS) % SUB_PARTITIONS;
        }
    }

    /// Completed marker merges.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Requests forwarded to the L2-to-DRAM queue.
    #[must_use]
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::message::{Marker, ReqMeta};
    use orderlight::packet::OrderLightPacket;
    use orderlight::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, TsSlot};
    use orderlight::{PimInstruction, PimOp};

    fn pim(addr: u64, seq: u64) -> MemReq {
        MemReq::Pim {
            instr: PimInstruction {
                op: PimOp::Load,
                addr: Addr(addr),
                slot: TsSlot(0),
                group: MemGroupId(0),
            },
            meta: ReqMeta { warp: GlobalWarpId(0), seq },
        }
    }

    fn marker(number: u32) -> MemReq {
        MemReq::Marker(MarkerCopy {
            marker: Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), number)),
            total_copies: 1,
        })
    }

    fn push(l2: &mut L2Slice, arena: &mut Slab<MemReq>, req: MemReq, now: CoreCycle) {
        let handle = arena.insert(req);
        l2.push(handle, arena, now);
    }

    fn drain(
        l2: &mut L2Slice,
        arena: &mut Slab<MemReq>,
        out: &mut DelayQueue<SlabRef>,
        until: CoreCycle,
    ) -> Vec<MemReq> {
        let mut got = Vec::new();
        for now in 0..until {
            l2.tick(now, out, arena);
            while let Some(r) = out.pop_ready(now) {
                got.push(arena.remove(r));
            }
        }
        got
    }

    #[test]
    fn requests_route_by_stripe_parity() {
        let mut l2 = L2Slice::new(0, 8);
        let mut arena = Slab::new();
        push(&mut l2, &mut arena, pim(0, 0), 0); // stripe 0 -> sub 0
        push(&mut l2, &mut arena, pim(32, 1), 0); // stripe 1 -> sub 1
        assert!(!l2.is_empty());
        let mut out = DelayQueue::new(0, 8);
        let got = drain(&mut l2, &mut arena, &mut out, 3);
        assert_eq!(got.len(), 2);
        assert_eq!(l2.forwarded(), 2);
        assert!(arena.is_empty(), "drained packets leave the arena");
    }

    #[test]
    fn marker_copies_merge_and_forward_once() {
        let mut l2 = L2Slice::new(0, 8);
        let mut arena = Slab::new();
        push(&mut l2, &mut arena, marker(7), 0);
        assert_eq!(arena.len(), SUB_PARTITIONS, "one body per divergence copy");
        let mut out = DelayQueue::new(0, 8);
        let got = drain(&mut l2, &mut arena, &mut out, 3);
        assert_eq!(got.len(), 1);
        match &got[0] {
            MemReq::Marker(c) => {
                assert_eq!(c.total_copies, 1, "merged packet travels as one copy");
            }
            other => panic!("expected marker, got {other:?}"),
        }
        assert_eq!(l2.merges(), 1);
        assert!(arena.is_empty());
    }

    #[test]
    fn requests_behind_marker_wait_for_merge() {
        // Marker enters, then a request to sub 0. The marker copy in
        // sub 1 is held back by an earlier slow request, so the request
        // behind the copy in sub 0 must wait even though sub 0's head
        // (the copy) arrived.
        let mut l2 = L2Slice::new(0, 8);
        let mut arena = Slab::new();
        push(&mut l2, &mut arena, pim(32, 0), 0); // sub 1, ahead of the marker copy there
        push(&mut l2, &mut arena, marker(1), 0);
        push(&mut l2, &mut arena, pim(0, 1), 0); // sub 0, behind the marker copy there
        let mut out = DelayQueue::new(0, 8);

        // Tick 0: sub-1 head is the early request; sub-0 head is the
        // marker copy (blocks). Only the early request may come out.
        l2.tick(0, &mut out, &mut arena);
        let first = out.pop_ready(0).map(|r| arena.remove(r)).expect("early request forwarded");
        match &first {
            MemReq::Pim { meta, .. } => assert_eq!(meta.seq, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(out.pop_ready(0).is_none(), "request behind the copy must wait");

        // Tick 1: both copies at heads -> merge.
        l2.tick(1, &mut out, &mut arena);
        assert!(matches!(out.pop_ready(1).map(|r| arena.remove(r)), Some(MemReq::Marker(_))));
        // Tick 2: the blocked request flows.
        l2.tick(2, &mut out, &mut arena);
        assert!(matches!(
            out.pop_ready(2).map(|r| arena.remove(r)),
            Some(MemReq::Pim { meta, .. }) if meta.seq == 1
        ));
    }

    #[test]
    fn exec_commands_route_by_slot_parity() {
        let mut l2 = L2Slice::new(0, 1);
        let mut arena = Slab::new();
        let exec = |slot: u16| MemReq::Pim {
            instr: PimInstruction {
                op: PimOp::Execute(orderlight::AluOp::AddImm(1)),
                addr: Addr(0),
                slot: TsSlot(slot),
                group: MemGroupId(0),
            },
            meta: ReqMeta { warp: GlobalWarpId(0), seq: 0 },
        };
        assert!(l2.can_accept(&exec(0)));
        push(&mut l2, &mut arena, exec(0), 0);
        assert!(!l2.can_accept(&exec(2)), "sub 0 full");
        assert!(l2.can_accept(&exec(1)), "sub 1 free");
    }

    #[test]
    fn backpressure_on_full_out_queue() {
        let mut l2 = L2Slice::new(0, 8);
        let mut arena = Slab::new();
        push(&mut l2, &mut arena, pim(0, 0), 0);
        push(&mut l2, &mut arena, pim(64, 1), 0); // also sub 0
        let mut out = DelayQueue::new(0, 1);
        l2.tick(0, &mut out, &mut arena);
        l2.tick(1, &mut out, &mut arena); // out is full; nothing more forwards
        assert_eq!(out.len(), 1);
        assert!(!l2.is_empty());
    }
}
