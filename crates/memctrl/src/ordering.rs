//! Scheduler-side ordering policy, behind the [`OrderingBackend`] trait.
//!
//! The [`crate::MemoryController`] owns the two mechanisms every policy
//! shares: the [`FenceTracker`] that answers fence probes, and the
//! convergence FSM that merges a marker's read/write copies (paper
//! Figure 9). The five pluggable backends — see [`OrderingKind`] — keep
//! only the gates where they differ: when a request may be dequeued or
//! issued, and whether a fully merged marker proceeds now or is held.

use crate::queues::PendingReq;
use crate::txn::Transaction;
use orderlight::message::{Marker, MarkerCopy, MarkerKey, ReqMeta};
use orderlight::packet::OrderLightPacket;
use orderlight::types::{GlobalWarpId, MemGroupId, WarpTable};
use std::collections::{HashMap, VecDeque};

/// Maximum memory groups addressable by the 4-bit group-ID field.
pub const MAX_GROUPS: usize = 16;

/// One active OrderLight barrier: the packet's constrained groups and
/// how many pre-packet requests are still dequeued-but-unissued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Barrier {
    /// Bitmask of constrained memory groups.
    mask: u16,
    /// Pre-packet requests (across all constrained groups) still to be
    /// issued to the DRAM.
    remaining: u64,
}

/// The OrderLight backend: per-memory-group enforcement (paper Section
/// 5.3.2).
///
/// For each group the scheduler keeps a *request counter* (requests
/// dequeued into bank command queues but not yet issued to the DRAM).
/// When an OrderLight packet merges at the scheduler stage, a *barrier*
/// is raised over the packet's group set, initialised with the combined
/// in-flight count; requests of a flagged group are not scheduled until
/// every barrier covering the group has drained. A multi-group packet
/// (partial results of two PIM kernels, Section 5.3.1) therefore orders
/// requests *across* its groups: nothing behind the packet in any of
/// its groups issues before everything ahead of it in all of them.
#[derive(Debug, Clone, Default)]
pub struct GroupOrdering {
    inflight: [u64; MAX_GROUPS],
    /// Sum of `inflight` — kept so [`OrderingBackend::is_idle`] (on the
    /// event core's per-hop horizon path) is O(1) instead of a scan
    /// over every group.
    inflight_total: u64,
    barriers: Vec<Barrier>,
    /// Mutation knob (fault injection): a group whose contribution to
    /// merged-packet barriers is deliberately ignored, dropping its
    /// ordering edge. `None` in every normal run.
    elide_group: Option<MemGroupId>,
    /// How many times the elided group actually dropped an edge.
    edges_dropped: u64,
}

impl OrderingBackend for GroupOrdering {
    fn group_blocked(&self, group: MemGroupId) -> bool {
        let bit = 1u16 << group.0;
        self.barriers.iter().any(|b| b.mask & bit != 0)
    }

    fn on_dequeue(&mut self, p: &PendingReq) {
        self.inflight[p.group.index()] += 1;
        self.inflight_total += 1;
    }

    /// Drains every barrier covering the request's group and clears
    /// those that complete.
    fn on_retire(&mut self, txn: &Transaction) -> bool {
        let g = txn.group.index();
        debug_assert!(self.inflight[g] > 0, "issue without matching dequeue");
        self.inflight[g] -= 1;
        self.inflight_total -= 1;
        let bit = 1u16 << txn.group.0;
        for b in &mut self.barriers {
            if b.mask & bit != 0 {
                debug_assert!(b.remaining > 0, "barrier drained twice");
                b.remaining -= 1;
            }
        }
        self.barriers.retain(|b| b.remaining > 0);
        false
    }

    /// Raises a barrier over the packet's groups, if anything of theirs
    /// is in flight; the packet itself proceeds at once.
    fn on_merged(&mut self, _key: MarkerKey, packet: &OrderLightPacket) -> MarkerAction {
        let mut mask = 0u16;
        let mut remaining = 0u64;
        for group in packet.groups() {
            if self.elide_group == Some(group) {
                // Mutation: this group's edge is dropped — its in-flight
                // requests do not enter the barrier and the barrier will
                // not block the group's followers.
                self.edges_dropped += 1;
                continue;
            }
            if mask & (1 << group.0) == 0 {
                remaining += self.inflight[group.index()];
            }
            mask |= 1 << group.0;
        }
        if remaining > 0 {
            self.barriers.push(Barrier { mask, remaining });
        }
        MarkerAction::Merge
    }

    fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.inflight_total,
            self.inflight.iter().sum::<u64>(),
            "inflight_total counter out of sync"
        );
        self.barriers.is_empty() && self.inflight_total == 0
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide_group = Some(group);
    }

    fn edges_dropped(&self) -> u64 {
        self.edges_dropped
    }
}

/// A fence awaiting acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingFence {
    warp: GlobalWarpId,
    fence_id: u64,
    /// Ack fires once the warp's issued count reaches this target.
    target_issued: u64,
}

/// Tracks per-warp request progress to generate fence acknowledgements.
///
/// The baseline fence semantics (paper Section 6, "Baseline
/// Limitations"): the warp may not proceed until all of its prior memory
/// requests have been issued to the memory. The tracker counts, per warp,
/// requests *arrived* at the controller and requests *issued* to the
/// DRAM; a probe snapshots the arrived count and is acknowledged once the
/// issued count catches up. Every controller owns one, whatever its
/// backend, so probe traffic stays answerable under any primitive.
#[derive(Debug, Clone, Default)]
pub struct FenceTracker {
    arrived: WarpTable<u64>,
    issued: WarpTable<u64>,
    pending: Vec<PendingFence>,
    /// Mutation (fault injection): acknowledge every probe at once, even
    /// with requests outstanding, dropping the fence's ordering edge.
    early_ack: bool,
    /// Probes the mutation acknowledged with requests still outstanding.
    edges_dropped: u64,
}

impl FenceTracker {
    /// Records a request from `warp` arriving at the controller.
    pub fn on_arrival(&mut self, warp: GlobalWarpId) {
        *self.arrived.get_mut(warp) += 1;
    }

    /// Registers a fence probe. Returns `true` if it can be acknowledged
    /// immediately (nothing outstanding, or the early-ack mutation).
    pub fn on_probe(&mut self, warp: GlobalWarpId, fence_id: u64) -> bool {
        let target = self.arrived.get(warp);
        let caught_up = self.issued.get(warp) >= target;
        if self.early_ack {
            self.edges_dropped += u64::from(!caught_up);
            return true;
        }
        if !caught_up {
            self.pending.push(PendingFence { warp, fence_id, target_issued: target });
        }
        caught_up
    }

    /// Records a request from `warp` being issued to the DRAM; returns
    /// the `(warp, fence_id)` of every fence that thereby completes.
    pub fn on_issue(&mut self, warp: GlobalWarpId) -> Vec<(GlobalWarpId, u64)> {
        let issued = self.issued.get_mut(warp);
        *issued += 1;
        let now = *issued;
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut done = Vec::new();
        self.pending.retain(|p| {
            if p.warp == warp && now >= p.target_issued {
                done.push((p.warp, p.fence_id));
                false
            } else {
                true
            }
        });
        done
    }

    /// Number of fences still awaiting acknowledgement.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Activates the early-ack mutation: every later probe is
    /// acknowledged at once. The schedule is incorrect by construction.
    pub fn arm_early_ack(&mut self) {
        self.early_ack = true;
    }

    /// Ordering edges the early-ack mutation dropped so far.
    #[must_use]
    pub fn edges_dropped(&self) -> u64 {
        self.edges_dropped
    }
}

/// Which pluggable ordering backend a controller enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingKind {
    /// OrderLight in-band group packets with per-group barrier flags
    /// (paper Section 5.3.2).
    OrderLight,
    /// The core-centric baseline: the controller reorders freely and only
    /// answers fence probes (paper Section 6, "Baseline Limitations").
    Fence,
    /// The Kim et al. sequence-number baseline: strict per-warp
    /// dequeue-and-issue order with buffer credits returned per retired
    /// request.
    SeqNum,
    /// Louvre-style versioned releases (Kumar et al.): in-band release
    /// markers stamped with per-group versions, held at the scheduler
    /// until older-version requests drain — no per-group flag broadcast.
    LouvreVersioned,
    /// Perach et al. controller-enforced strong consistency for
    /// bulk-bitwise PIM: per-group epoch barriers drain every older
    /// request (reads before PIM writes retire) with no in-band
    /// primitive from the core at all.
    BulkBitwiseStrong,
}

impl OrderingKind {
    /// Every implemented backend, in sweep order.
    pub const ALL: [OrderingKind; 5] = [
        OrderingKind::OrderLight,
        OrderingKind::Fence,
        OrderingKind::SeqNum,
        OrderingKind::LouvreVersioned,
        OrderingKind::BulkBitwiseStrong,
    ];

    /// Stable lowercase label (CLI flags, sweep CSV `ordering` column).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OrderingKind::OrderLight => "orderlight",
            OrderingKind::Fence => "fence",
            OrderingKind::SeqNum => "seqnum",
            OrderingKind::LouvreVersioned => "louvre",
            OrderingKind::BulkBitwiseStrong => "bulk",
        }
    }

    /// Instantiates the backend.
    #[must_use]
    pub fn build(self) -> Box<dyn OrderingBackend> {
        match self {
            OrderingKind::OrderLight => Box::<GroupOrdering>::default(),
            OrderingKind::Fence => Box::new(FenceBackend),
            OrderingKind::SeqNum => Box::<SeqNumBackend>::default(),
            OrderingKind::LouvreVersioned => Box::<LouvreVersioned>::default(),
            OrderingKind::BulkBitwiseStrong => Box::<BulkBitwiseStrong>::default(),
        }
    }
}

impl std::fmt::Display for OrderingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the backend decided about a fully merged marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerAction {
    /// The marker's condition is already met: the controller pops every
    /// queued copy now.
    Merge,
    /// The marker still holds its barrier; the copies stay queued (still
    /// blocking) until [`OrderingBackend::take_released`] reports the
    /// marker drained.
    Hold,
}

/// The pluggable ordering policy a [`crate::MemoryController`] enforces.
///
/// The controller serves fence probes and merges marker copies itself;
/// a backend answers only the ordering questions, at fixed points of the
/// controller's pipeline:
///
/// * **ingress** — [`on_arrival`](Self::on_arrival) for every queued
///   request (returning an optional synthetic barrier for the trace),
///   [`on_marker_ingress`](Self::on_marker_ingress) for in-band markers;
/// * **dequeue eligibility** — [`group_blocked`](Self::group_blocked)
///   (queue-scan flag state) and [`dequeue_allowed`](Self::dequeue_allowed)
///   (per-request gate), then [`on_dequeue`](Self::on_dequeue);
/// * **issue** — [`issue_allowed`](Self::issue_allowed) at the bank /
///   exec queue head, then [`on_retire`](Self::on_retire) once the
///   column or execute command goes out;
/// * **merged marker** — [`on_merged`](Self::on_merged) once every copy
///   has reached the scheduler stage (merge now, or hold),
///   [`take_released`](Self::take_released) for held markers whose
///   condition has since drained;
/// * **quiescence** — [`is_idle`](Self::is_idle) feeds the controller's
///   `NextEvent` horizon: any live ordering state keeps the controller
///   ticking densely, which is what makes the event core bit-identical.
///
/// The default bodies are the unconstrained answers, so a backend
/// implements only the gates where it differs.
///
/// [`set_elide_group`](Self::set_elide_group) is the mutation hook for
/// the fault gauntlet: it drops the backend's ordering edges for one
/// group so the happens-before oracle can be proven to fire.
pub trait OrderingBackend: std::fmt::Debug + Send {
    /// A request was accepted into the transaction queues. Returns
    /// `Some(number)` when the backend raises a *synthetic* barrier at
    /// this point (controller-enforced backends); the controller records
    /// it in the trace so the oracle can validate the claimed ordering.
    fn on_arrival(&mut self, meta: ReqMeta, group: MemGroupId, is_write: bool) -> Option<u32> {
        let _ = (meta, group, is_write);
        None
    }

    /// An in-band ordering marker was accepted into the queues (before
    /// divergence into the read/write copies).
    fn on_marker_ingress(&mut self, copy: &MarkerCopy) {
        let _ = copy;
    }

    /// Whether requests of `group` are blocked by backend-wide flag state
    /// (threaded into the transaction-queue eligibility scan).
    fn group_blocked(&self, group: MemGroupId) -> bool {
        let _ = group;
        false
    }

    /// Per-request dequeue gate, evaluated inside the FR-FCFS scan after
    /// the flag and queue-capacity checks.
    fn dequeue_allowed(&self, p: &PendingReq) -> bool {
        let _ = p;
        true
    }

    /// A request left a transaction queue for a bank/exec command queue.
    fn on_dequeue(&mut self, p: &PendingReq) {
        let _ = p;
    }

    /// Per-transaction issue gate at the bank (or exec) queue head.
    fn issue_allowed(&self, txn: &Transaction) -> bool {
        let _ = txn;
        true
    }

    /// A transaction's column/execute command was issued to the DRAM.
    /// Returns `true` when one buffer credit goes back to the issuing
    /// warp (SeqNum mode).
    fn on_retire(&mut self, txn: &Transaction) -> bool {
        let _ = txn;
        false
    }

    /// Every copy of the marker `key` has reached the scheduler stage:
    /// merge it now, or hold it.
    fn on_merged(&mut self, key: MarkerKey, packet: &OrderLightPacket) -> MarkerAction {
        let _ = (key, packet);
        MarkerAction::Merge
    }

    /// The oldest held marker, once its barrier has drained; the
    /// controller pops its queued copies and completes the merge, and
    /// asks again until this returns `None`.
    fn take_released(&mut self) -> Option<(MarkerKey, OrderLightPacket)> {
        None
    }

    /// Whether all ordering state is drained (quiescence contract: while
    /// this is false the controller must tick densely).
    fn is_idle(&self) -> bool {
        true
    }

    /// Internal consistency violations the backend observed (out-of-order
    /// retires). Non-zero fails `orderlight check`.
    fn sanity_violations(&self) -> u64 {
        0
    }

    /// Fault-injection mutation: drop this backend's ordering edges for
    /// `group`. The resulting schedule is incorrect by construction.
    fn set_elide_group(&mut self, group: MemGroupId) {
        let _ = group;
    }

    /// Ordering edges actually dropped by the mutation so far.
    fn edges_dropped(&self) -> u64 {
        0
    }
}

/// The core-centric fence baseline: no gate at all. The controller
/// schedules freely and acknowledges probes from its [`FenceTracker`];
/// under this backend the drop-edge mutation arms the tracker's early
/// ack instead. Stray in-band markers (none in real fence-mode traffic)
/// merge with no barrier so they never clog the queues.
#[derive(Debug, Default)]
pub struct FenceBackend;

impl OrderingBackend for FenceBackend {}

/// The Kim et al. sequence-number baseline: each warp's PIM requests are
/// dequeued *and* issued strictly in sequence-number order and a buffer
/// credit returns to the core per retired request.
#[derive(Debug, Default)]
pub struct SeqNumBackend {
    /// Next sequence number each warp may dequeue, minus one (sequence
    /// numbers start at 1, so the table's zero default expects 1).
    expected_dequeue: WarpTable<u64>,
    /// Next sequence number each warp may issue, minus one.
    expected_issue: WarpTable<u64>,
    /// Mutation: requests of this group skip both sequence gates.
    elide: Option<MemGroupId>,
    edges_dropped: u64,
}

impl OrderingBackend for SeqNumBackend {
    fn dequeue_allowed(&self, p: &PendingReq) -> bool {
        if !p.pim || self.elide == Some(p.group) {
            return true;
        }
        p.meta.seq == self.expected_dequeue.get(p.meta.warp) + 1
    }

    fn on_dequeue(&mut self, p: &PendingReq) {
        if !p.pim {
            return;
        }
        if self.elide == Some(p.group) && p.meta.seq != self.expected_dequeue.get(p.meta.warp) + 1 {
            self.edges_dropped += 1;
        }
        *self.expected_dequeue.get_mut(p.meta.warp) = p.meta.seq;
    }

    fn issue_allowed(&self, txn: &Transaction) -> bool {
        if !txn.is_pim() || self.elide == Some(txn.group) {
            return true;
        }
        txn.meta.seq == self.expected_issue.get(txn.meta.warp) + 1
    }

    fn on_retire(&mut self, txn: &Transaction) -> bool {
        let credit = txn.is_pim();
        if credit {
            *self.expected_issue.get_mut(txn.meta.warp) = txn.meta.seq;
        }
        credit
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide = Some(group);
    }

    fn edges_dropped(&self) -> u64 {
        self.edges_dropped
    }
}

/// A merged Louvre release whose version drain is still outstanding.
#[derive(Debug, Clone)]
struct HeldRelease {
    key: MarkerKey,
    packet: OrderLightPacket,
    /// `(group, target)`: released once `issued[group] >= target` for
    /// every entry. Targets snapshot the per-group arrival counters at
    /// marker *ingress* — exactly the requests the happens-before oracle
    /// puts in the marker's pre-set.
    targets: Vec<(MemGroupId, u64)>,
}

/// Louvre-style versioned ordering (Kumar et al.): release markers carry
/// a per-group version; the controller counts per-group arrivals and
/// issues, and a merged release is *held* in the transaction queues —
/// still blocking same-group followers via the normal in-queue marker
/// scan — until every request that arrived before it has issued. No
/// per-group flag is ever broadcast.
#[derive(Debug, Default)]
pub struct LouvreVersioned {
    arrivals: [u64; MAX_GROUPS],
    issued: [u64; MAX_GROUPS],
    /// Drain targets snapshotted at marker ingress, keyed by identity.
    pending_targets: HashMap<MarkerKey, Vec<(MemGroupId, u64)>>,
    /// Merged releases still holding (front-released: a later marker is
    /// never offered while an earlier one still heads the queues).
    held: VecDeque<HeldRelease>,
    elide: Option<MemGroupId>,
    edges_dropped: u64,
}

impl LouvreVersioned {
    fn satisfied(&self, targets: &[(MemGroupId, u64)]) -> bool {
        targets.iter().all(|&(g, t)| self.issued[g.index()] >= t)
    }
}

impl OrderingBackend for LouvreVersioned {
    fn on_arrival(&mut self, _meta: ReqMeta, group: MemGroupId, _is_write: bool) -> Option<u32> {
        self.arrivals[group.index()] += 1;
        None
    }

    fn on_marker_ingress(&mut self, copy: &MarkerCopy) {
        let (Marker::Release(p) | Marker::OrderLight(p)) = &copy.marker else {
            return;
        };
        let targets = p.groups().map(|g| (g, self.arrivals[g.index()])).collect::<Vec<_>>();
        self.pending_targets.insert(copy.marker.key(), targets);
    }

    fn on_retire(&mut self, txn: &Transaction) -> bool {
        self.issued[txn.group.index()] += 1;
        false
    }

    fn on_merged(&mut self, key: MarkerKey, packet: &OrderLightPacket) -> MarkerAction {
        let mut targets = self.pending_targets.remove(&key).unwrap_or_default();
        if let Some(elided) = self.elide {
            // Mutation: the elided group's versioned wait is dropped.
            let before = targets.len();
            targets.retain(|&(g, _)| g != elided);
            self.edges_dropped += (before - targets.len()) as u64;
        }
        if self.satisfied(&targets) {
            MarkerAction::Merge
        } else {
            self.held.push_back(HeldRelease { key, packet: packet.clone(), targets });
            MarkerAction::Hold
        }
    }

    fn take_released(&mut self) -> Option<(MarkerKey, OrderLightPacket)> {
        if !self.satisfied(&self.held.front()?.targets) {
            return None;
        }
        self.held.pop_front().map(|h| (h.key, h.packet))
    }

    fn is_idle(&self) -> bool {
        self.held.is_empty()
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide = Some(group);
    }

    fn edges_dropped(&self) -> u64 {
        self.edges_dropped
    }
}

/// Perach et al. controller-enforced strong consistency for bulk-bitwise
/// PIM: the core emits *no* ordering primitive at all; the controller
/// stamps every request with its per-group arrival index and dequeues it
/// only once every older same-group request has issued — a total
/// per-group order, with an epoch barrier recorded in the trace at every
/// read/write kind flip so the oracle can validate the claim.
#[derive(Debug, Default)]
pub struct BulkBitwiseStrong {
    arrivals: [u64; MAX_GROUPS],
    issued: [u64; MAX_GROUPS],
    /// `(warp, seq)` → 1-based per-group arrival index; removed at retire.
    stamps: HashMap<(GlobalWarpId, u64), u64>,
    /// Kind (write?) of the group's most recent arrival, for epoch flips.
    last_write: [Option<bool>; MAX_GROUPS],
    /// Per-group epoch counter (trace barrier numbers).
    epoch: [u32; MAX_GROUPS],
    sanity_violations: u64,
    elide: Option<MemGroupId>,
    edges_dropped: u64,
}

impl OrderingBackend for BulkBitwiseStrong {
    fn on_arrival(&mut self, meta: ReqMeta, group: MemGroupId, is_write: bool) -> Option<u32> {
        let g = group.index();
        let note = if self.last_write[g].is_some_and(|w| w != is_write) {
            // Read↔write kind flip: a new epoch begins. The barrier is
            // recorded (and oracle-checked) but enforcement is the total
            // per-group order below, which subsumes it.
            self.epoch[g] += 1;
            Some(self.epoch[g])
        } else {
            None
        };
        self.last_write[g] = Some(is_write);
        self.arrivals[g] += 1;
        self.stamps.insert((meta.warp, meta.seq), self.arrivals[g]);
        note
    }

    fn dequeue_allowed(&self, p: &PendingReq) -> bool {
        if self.elide == Some(p.group) {
            return true;
        }
        let stamp = self.stamps.get(&(p.meta.warp, p.meta.seq)).copied().unwrap_or(0);
        // Strong consistency: everything older in the group has issued.
        self.issued[p.group.index()] + 1 >= stamp
    }

    fn on_dequeue(&mut self, p: &PendingReq) {
        if self.elide == Some(p.group) {
            let stamp = self.stamps.get(&(p.meta.warp, p.meta.seq)).copied().unwrap_or(0);
            if self.issued[p.group.index()] + 1 < stamp {
                self.edges_dropped += 1;
            }
        }
    }

    // `issue_allowed` keeps its default: the dequeue gate admits one
    // in-flight request per group.

    fn on_retire(&mut self, txn: &Transaction) -> bool {
        let g = txn.group.index();
        if let Some(stamp) = self.stamps.remove(&(txn.meta.warp, txn.meta.seq)) {
            // Self-check: retires must happen in per-group arrival order
            // (they cannot break on a correct controller; the elide
            // mutation makes this fire).
            if stamp != self.issued[g] + 1 {
                self.sanity_violations += 1;
            }
        }
        self.issued[g] += 1;
        false
    }

    fn is_idle(&self) -> bool {
        self.stamps.is_empty()
    }

    fn sanity_violations(&self) -> u64 {
        self.sanity_violations
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide = Some(group);
    }

    fn edges_dropped(&self) -> u64 {
        self.edges_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::mapping::Location;
    use orderlight::slab::Slab;
    use orderlight::types::{Addr, BankId, ChannelId, TsSlot};
    use orderlight::{PimInstruction, PimOp};

    fn meta(warp: GlobalWarpId, seq: u64) -> ReqMeta {
        ReqMeta { warp, seq }
    }

    fn pending(group: u8, warp: GlobalWarpId, seq: u64) -> PendingReq {
        PendingReq {
            req: Slab::new().insert(()),
            pim: true,
            meta: meta(warp, seq),
            loc: None,
            group: MemGroupId(group),
            arrival: seq,
        }
    }

    fn txn(group: u8, warp: GlobalWarpId, seq: u64) -> Transaction {
        Transaction {
            kind: crate::txn::TxnKind::Pim(PimInstruction {
                op: PimOp::Load,
                addr: Addr(0),
                slot: TsSlot(0),
                group: MemGroupId(group),
            }),
            loc: Location { channel: ChannelId(0), bank: BankId(0), row: 0, col: 0 },
            group: MemGroupId(group),
            meta: meta(warp, seq),
            arrival: seq,
        }
    }

    /// Warp 0 of SM 0.
    const W: GlobalWarpId = GlobalWarpId(0);

    /// Hands `backend` `packet`, merged as an OrderLight packet.
    fn merge(backend: &mut dyn OrderingBackend, packet: &OrderLightPacket) -> MarkerAction {
        backend.on_merged(Marker::OrderLight(packet.clone()).key(), packet)
    }

    fn ol(group: u8, number: u32) -> OrderLightPacket {
        OrderLightPacket::new(ChannelId(0), MemGroupId(group), number)
    }

    #[test]
    fn flag_set_only_with_inflight_work() {
        let mut ord = GroupOrdering::default();
        assert_eq!(merge(&mut ord, &ol(0, 1)), MarkerAction::Merge);
        // Nothing in flight: no barrier raised.
        assert!(!ord.group_blocked(MemGroupId(0)));
        assert!(ord.is_idle());
    }

    #[test]
    fn flag_blocks_until_inflight_drains() {
        let mut ord = GroupOrdering::default();
        ord.on_dequeue(&pending(0, W, 1));
        ord.on_dequeue(&pending(0, W, 2));
        merge(&mut ord, &ol(0, 1));
        assert!(ord.group_blocked(MemGroupId(0)));
        assert!(!ord.group_blocked(MemGroupId(1)), "other groups unconstrained");
        ord.on_retire(&txn(0, W, 1));
        assert!(ord.group_blocked(MemGroupId(0)), "one request still in flight");
        ord.on_retire(&txn(0, W, 2));
        assert!(!ord.group_blocked(MemGroupId(0)));
        assert!(ord.is_idle());
    }

    #[test]
    fn multi_group_packet_is_a_joint_barrier() {
        // The cross-kernel use case: group 2's request must drain before
        // group 0 unblocks, and vice versa — one barrier over both.
        let mut ord = GroupOrdering::default();
        ord.on_dequeue(&pending(0, W, 1));
        ord.on_dequeue(&pending(2, W, 2));
        let pkt = OrderLightPacket::with_groups(ChannelId(0), MemGroupId(0), &[MemGroupId(2)], 1)
            .unwrap();
        merge(&mut ord, &pkt);
        assert!(ord.group_blocked(MemGroupId(0)));
        assert!(ord.group_blocked(MemGroupId(2)));
        assert!(!ord.group_blocked(MemGroupId(1)));
        // Draining only group 0 keeps BOTH groups blocked: the packet
        // ordered group 0's followers behind group 2's in-flight work.
        ord.on_retire(&txn(0, W, 1));
        assert!(ord.group_blocked(MemGroupId(0)), "joint barrier still waits on group 2");
        assert!(ord.group_blocked(MemGroupId(2)));
        ord.on_retire(&txn(2, W, 2));
        assert!(!ord.group_blocked(MemGroupId(0)));
        assert!(!ord.group_blocked(MemGroupId(2)));
        assert!(ord.is_idle());
    }

    #[test]
    fn stacked_barriers_drain_independently() {
        let mut ord = GroupOrdering::default();
        ord.on_dequeue(&pending(0, W, 1));
        merge(&mut ord, &ol(0, 1));
        // A second packet merges while the first barrier is active (no
        // requests between them): it sees the same in-flight request.
        merge(&mut ord, &ol(0, 2));
        assert!(ord.group_blocked(MemGroupId(0)));
        ord.on_retire(&txn(0, W, 1));
        assert!(!ord.group_blocked(MemGroupId(0)), "both barriers drained by the issue");
        assert!(ord.is_idle());
    }

    #[test]
    fn fence_ack_waits_for_issue() {
        let mut f = FenceTracker::default();
        f.on_arrival(W);
        f.on_arrival(W);
        assert!(!f.on_probe(W, 7));
        assert_eq!(f.pending(), 1);
        assert!(f.on_issue(W).is_empty());
        assert_eq!(f.on_issue(W), vec![(W, 7)]);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn fence_with_nothing_outstanding_acks_immediately() {
        let mut f = FenceTracker::default();
        let w = GlobalWarpId::new(0, 1);
        assert!(f.on_probe(w, 1));
        f.on_arrival(w);
        f.on_issue(w);
        assert!(f.on_probe(w, 2), "caught up again");
    }

    #[test]
    fn fences_track_warps_independently() {
        let mut f = FenceTracker::default();
        let w1 = GlobalWarpId::new(0, 1);
        f.on_arrival(W);
        assert!(!f.on_probe(W, 1));
        assert!(f.on_probe(w1, 2), "other warp unaffected");
        assert_eq!(f.on_issue(W), vec![(W, 1)]);
    }

    #[test]
    fn early_ack_counts_only_probes_with_requests_outstanding() {
        let mut f = FenceTracker::default();
        f.arm_early_ack();
        assert!(f.on_probe(W, 1), "nothing outstanding: an honest ack");
        assert_eq!(f.edges_dropped(), 0);
        f.on_arrival(W);
        assert!(f.on_probe(W, 2), "acked with a request outstanding");
        assert_eq!((f.edges_dropped(), f.pending()), (1, 0));
    }

    fn release(group: u8, version: u32) -> (MarkerCopy, OrderLightPacket) {
        let packet = ol(group, version);
        (MarkerCopy { marker: Marker::Release(packet.clone()), total_copies: 2 }, packet)
    }

    fn arrive(b: &mut dyn OrderingBackend, group: u8, seq: u64) {
        b.on_arrival(meta(W, seq), MemGroupId(group), false);
    }

    #[test]
    fn louvre_holds_release_until_older_requests_issue() {
        let mut b = LouvreVersioned::default();
        arrive(&mut b, 0, 1);
        arrive(&mut b, 0, 2);
        let (copy, packet) = release(0, 1);
        b.on_marker_ingress(&copy);
        let key = copy.marker.key();
        assert_eq!(b.on_merged(key, &packet), MarkerAction::Hold, "older requests unissued");
        assert!(b.take_released().is_none());
        assert!(!b.is_idle());
        b.on_retire(&txn(0, W, 1));
        assert!(b.take_released().is_none(), "one older request still in flight");
        b.on_retire(&txn(0, W, 2));
        assert_eq!(b.take_released(), Some((key, packet)));
        assert!(b.take_released().is_none(), "released once");
        assert!(b.is_idle());
    }

    #[test]
    fn louvre_release_over_drained_group_merges_immediately() {
        let mut b = LouvreVersioned::default();
        let (copy, packet) = release(3, 1);
        b.on_marker_ingress(&copy);
        assert_eq!(b.on_merged(copy.marker.key(), &packet), MarkerAction::Merge);
        assert!(b.is_idle());
    }

    #[test]
    fn louvre_elide_drops_the_versioned_wait() {
        let mut b = LouvreVersioned::default();
        arrive(&mut b, 0, 1);
        b.set_elide_group(MemGroupId(0));
        let (copy, packet) = release(0, 1);
        b.on_marker_ingress(&copy);
        assert_eq!(
            b.on_merged(copy.marker.key(), &packet),
            MarkerAction::Merge,
            "elided group's drain target is dropped"
        );
        assert_eq!(b.edges_dropped(), 1);
    }

    #[test]
    fn bulk_serializes_a_group_in_arrival_order() {
        let mut b = BulkBitwiseStrong::default();
        arrive(&mut b, 0, 1);
        arrive(&mut b, 0, 2);
        let p1 = pending(0, W, 1);
        let p2 = pending(0, W, 2);
        assert!(b.dequeue_allowed(&p1));
        assert!(!b.dequeue_allowed(&p2), "older same-group request unissued");
        b.on_dequeue(&p1);
        b.on_retire(&txn(0, W, 1));
        assert!(b.dequeue_allowed(&p2));
        b.on_retire(&txn(0, W, 2));
        assert!(b.is_idle());
        assert_eq!(b.sanity_violations(), 0);
    }

    #[test]
    fn bulk_does_not_serialize_across_groups() {
        let mut b = BulkBitwiseStrong::default();
        arrive(&mut b, 0, 1);
        arrive(&mut b, 1, 2);
        assert!(b.dequeue_allowed(&pending(1, W, 2)), "other group unconstrained");
    }

    #[test]
    fn bulk_epochs_flip_on_kind_change() {
        let mut b = BulkBitwiseStrong::default();
        assert_eq!(b.on_arrival(meta(W, 1), MemGroupId(0), false), None);
        assert_eq!(b.on_arrival(meta(W, 2), MemGroupId(0), true), Some(1), "read→write");
        assert_eq!(b.on_arrival(meta(W, 3), MemGroupId(0), true), None, "same kind");
        assert_eq!(b.on_arrival(meta(W, 4), MemGroupId(0), false), Some(2), "write→read");
    }

    #[test]
    fn bulk_elide_bypasses_the_gate_and_flags_the_retire() {
        let mut b = BulkBitwiseStrong::default();
        b.set_elide_group(MemGroupId(0));
        arrive(&mut b, 0, 1);
        arrive(&mut b, 0, 2);
        let p2 = pending(0, W, 2);
        assert!(b.dequeue_allowed(&p2), "gate bypassed under elide");
        b.on_dequeue(&p2);
        assert_eq!(b.edges_dropped(), 1);
        b.on_retire(&txn(0, W, 2));
        assert_eq!(b.sanity_violations(), 1, "out-of-order retire detected");
    }

    #[test]
    fn seqnum_backend_gates_dequeue_and_issue_per_warp() {
        let mut b = SeqNumBackend::default();
        assert!(!b.dequeue_allowed(&pending(0, W, 2)));
        assert!(b.dequeue_allowed(&pending(0, W, 1)));
        b.on_dequeue(&pending(0, W, 1));
        assert!(b.dequeue_allowed(&pending(0, W, 2)));
        assert!(b.issue_allowed(&txn(0, W, 1)));
        assert!(!b.issue_allowed(&txn(0, W, 2)));
        assert!(b.on_retire(&txn(0, W, 1)), "retired PIM request returns a credit");
        assert!(b.issue_allowed(&txn(0, W, 2)));
    }

    #[test]
    fn seqnum_elide_bypasses_both_gates() {
        let mut b = SeqNumBackend::default();
        b.set_elide_group(MemGroupId(0));
        assert!(b.dequeue_allowed(&pending(0, W, 5)));
        b.on_dequeue(&pending(0, W, 5));
        assert_eq!(b.edges_dropped(), 1);
        assert!(b.issue_allowed(&txn(0, W, 5)));
    }

    #[test]
    fn every_kind_builds_its_backend() {
        for kind in OrderingKind::ALL {
            let b = kind.build();
            assert!(b.is_idle());
            assert_eq!((b.edges_dropped(), b.sanity_violations()), (0, 0));
            assert_eq!(kind.label().parse::<String>().unwrap(), kind.to_string());
        }
    }
}
