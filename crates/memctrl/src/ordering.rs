//! Scheduler-side ordering state, behind the [`OrderingBackend`] trait.
//!
//! The building blocks ([`GroupOrdering`] barriers, the [`FenceTracker`])
//! are composed into five pluggable backends — see [`OrderingKind`] —
//! that the [`crate::MemoryController`] drives through a fixed set of
//! hooks (ingress, dequeue eligibility, issue, retire, marker merge).

use crate::queues::PendingReq;
use crate::txn::Transaction;
use orderlight::fsm::MergeFsm;
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

/// Per-memory-group OrderLight enforcement (paper Section 5.3.2).
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
#[derive(Debug, Clone)]
pub struct GroupOrdering {
    inflight: [u64; MAX_GROUPS],
    /// Sum of `inflight` — kept so [`GroupOrdering::is_idle`] (on the
    /// event core's per-hop horizon path) is O(1) instead of a scan
    /// over every group.
    inflight_total: u64,
    barriers: Vec<Barrier>,
    merge: MergeFsm,
    last_number: [Option<u32>; MAX_GROUPS],
    sanity_violations: u64,
    flags_set: u64,
    packets_merged: u64,
    /// Mutation knob (fault injection): a group whose contribution to
    /// merged-packet barriers is deliberately ignored, dropping its
    /// ordering edge. `None` in every normal run.
    elide_group: Option<MemGroupId>,
    /// How many times the elided group actually dropped an edge.
    edges_dropped: u64,
}

impl GroupOrdering {
    /// Creates idle ordering state.
    #[must_use]
    pub fn new() -> Self {
        GroupOrdering {
            inflight: [0; MAX_GROUPS],
            inflight_total: 0,
            barriers: Vec::new(),
            merge: MergeFsm::new(),
            last_number: [None; MAX_GROUPS],
            sanity_violations: 0,
            flags_set: 0,
            packets_merged: 0,
            elide_group: None,
            edges_dropped: 0,
        }
    }

    /// Activates the drop-one-ordering-edge mutation: merged packets no
    /// longer raise (or extend) barriers over `group`, and the
    /// controller's queue scan ignores queued markers for the group (see
    /// [`GroupOrdering::elide_group`]). The resulting schedule is
    /// *incorrect by construction* — this exists only so the
    /// ordering-violation oracle can be proven to fire.
    pub fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide_group = Some(group);
    }

    /// The mutated group, if the drop-edge mutation is active. The
    /// controller threads this into the transaction-queue scan so
    /// in-queue marker copies stop constraining the group too.
    #[must_use]
    pub fn elide_group(&self) -> Option<MemGroupId> {
        self.elide_group
    }

    /// Ordering edges dropped by the mutation so far.
    #[must_use]
    pub fn edges_dropped(&self) -> u64 {
        self.edges_dropped
    }

    /// Whether requests of `group` are currently blocked by a barrier.
    #[must_use]
    pub fn is_blocked(&self, group: MemGroupId) -> bool {
        let bit = 1u16 << group.0;
        self.barriers.iter().any(|b| b.mask & bit != 0)
    }

    /// Records a request of `group` being dequeued into a bank command
    /// queue.
    pub fn on_dequeue(&mut self, group: MemGroupId) {
        self.inflight[group.index()] += 1;
        self.inflight_total += 1;
    }

    /// Records a request of `group` being issued to the DRAM (or, for an
    /// execute-only command, to the PIM unit); drains every barrier
    /// covering the group and clears those that complete.
    pub fn on_issue(&mut self, group: MemGroupId) {
        let g = group.index();
        debug_assert!(self.inflight[g] > 0, "issue without matching dequeue");
        self.inflight[g] -= 1;
        self.inflight_total -= 1;
        let bit = 1u16 << group.0;
        for b in &mut self.barriers {
            if b.mask & bit != 0 {
                debug_assert!(b.remaining > 0, "barrier drained twice");
                b.remaining -= 1;
            }
        }
        self.barriers.retain(|b| b.remaining > 0);
    }

    /// Feeds one OrderLight marker copy popped from a transaction queue.
    ///
    /// Returns the merged packet when the final copy arrives; at that
    /// point a barrier over the packet's groups is raised (if anything
    /// is in flight) and the packet number is sanity-checked for
    /// per-group monotonicity.
    pub fn on_marker_copy(&mut self, copy: &MarkerCopy) -> Option<OrderLightPacket> {
        let merged = self.merge.on_copy(copy)?;
        let (Marker::OrderLight(packet) | Marker::Release(packet)) = merged else {
            return None; // fence probes are handled by the FenceTracker
        };
        self.packets_merged += 1;
        let mut mask = 0u16;
        let mut remaining = 0u64;
        for group in packet.groups() {
            let g = group.index();
            if let Some(last) = self.last_number[g] {
                if packet.number() <= last {
                    self.sanity_violations += 1;
                }
            }
            self.last_number[g] = Some(packet.number());
            if self.elide_group == Some(group) {
                // Mutation: this group's edge is dropped — its in-flight
                // requests do not enter the barrier and the barrier will
                // not block the group's followers.
                self.edges_dropped += 1;
                continue;
            }
            if mask & (1 << group.0) == 0 {
                remaining += self.inflight[g];
            }
            mask |= 1 << group.0;
        }
        if remaining > 0 {
            self.barriers.push(Barrier { mask, remaining });
            self.flags_set += 1;
        }
        Some(packet)
    }

    /// In-flight (dequeued but unissued) count for `group`.
    #[must_use]
    pub fn inflight(&self, group: MemGroupId) -> u64 {
        self.inflight[group.index()]
    }

    /// Completed packet merges.
    #[must_use]
    pub fn packets_merged(&self) -> u64 {
        self.packets_merged
    }

    /// How many barriers actually had to block something.
    #[must_use]
    pub fn flags_set(&self) -> u64 {
        self.flags_set
    }

    /// Packet-number monotonicity violations observed.
    #[must_use]
    pub fn sanity_violations(&self) -> u64 {
        self.sanity_violations
    }

    /// Whether all state is drained (no barriers, no in-flight, no
    /// partial merges).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.inflight_total,
            self.inflight.iter().sum::<u64>(),
            "inflight_total counter out of sync"
        );
        self.barriers.is_empty() && self.inflight_total == 0 && self.merge.pending() == 0
    }
}

impl Default for GroupOrdering {
    fn default() -> Self {
        GroupOrdering::new()
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
/// issued count catches up.
#[derive(Debug, Clone, Default)]
pub struct FenceTracker {
    arrived: WarpTable<u64>,
    issued: WarpTable<u64>,
    pending: Vec<PendingFence>,
    acks: u64,
}

impl FenceTracker {
    /// Creates an idle tracker.
    #[must_use]
    pub fn new() -> Self {
        FenceTracker::default()
    }

    /// Records a request from `warp` arriving at the controller.
    pub fn on_arrival(&mut self, warp: GlobalWarpId) {
        *self.arrived.get_mut(warp) += 1;
    }

    /// Registers a fence probe. Returns `true` if it can be acknowledged
    /// immediately (nothing outstanding).
    pub fn on_probe(&mut self, warp: GlobalWarpId, fence_id: u64) -> bool {
        let target = self.arrived.get(warp);
        if self.issued.get(warp) >= target {
            self.acks += 1;
            true
        } else {
            self.pending.push(PendingFence { warp, fence_id, target_issued: target });
            false
        }
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
        self.acks += done.len() as u64;
        done
    }

    /// Number of fences still awaiting acknowledgement.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Requests from `warp` arrived at the controller but not yet issued
    /// to the DRAM.
    #[must_use]
    pub fn outstanding(&self, warp: GlobalWarpId) -> u64 {
        self.arrived.get(warp).saturating_sub(self.issued.get(warp))
    }

    /// Total acknowledgements generated.
    #[must_use]
    pub fn acks(&self) -> u64 {
        self.acks
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
            OrderingKind::OrderLight => Box::new(OrderLightBackend::new()),
            OrderingKind::Fence => Box::new(FenceBackend::new()),
            OrderingKind::SeqNum => Box::new(SeqNumBackend::new()),
            OrderingKind::LouvreVersioned => Box::new(LouvreVersioned::new()),
            OrderingKind::BulkBitwiseStrong => Box::new(BulkBitwiseStrong::new()),
        }
    }
}

impl std::fmt::Display for OrderingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Counters every backend snapshots into [`crate::McStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BackendStats {
    /// In-band ordering markers merged at the scheduler stage.
    pub packets_merged: u64,
    /// Barriers/holds that actually had to block something.
    pub flags_set: u64,
    /// Internal consistency violations the backend observed (non-monotonic
    /// packet numbers, out-of-order retires, ...). Non-zero fails
    /// `orderlight check`.
    pub sanity_violations: u64,
}

/// What the backend decided about an offered marker copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkerAction {
    /// Copy absorbed; sibling copies are still outstanding. The copy
    /// keeps blocking its sub-path.
    Pending,
    /// All copies collected and the marker's condition is already met:
    /// the controller pops every queued copy now.
    Merged(OrderLightPacket),
    /// All copies collected but the marker still holds its barrier; the
    /// copies stay queued (still blocking) until
    /// [`OrderingBackend::take_released`] reports the marker drained.
    Held,
}

/// What a retiring transaction owes the core.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RetireOutcome {
    /// Return one buffer credit to the issuing warp (SeqNum mode).
    pub credit: bool,
    /// Fence acknowledgements completed by this retire.
    pub fence_acks: Vec<(GlobalWarpId, u64)>,
}

/// The pluggable ordering policy a [`crate::MemoryController`] enforces.
///
/// The controller calls the hooks at fixed points of its pipeline:
///
/// * **ingress** — [`on_arrival`](Self::on_arrival) for every queued
///   request (returning an optional synthetic barrier for the trace),
///   [`on_marker_ingress`](Self::on_marker_ingress) for in-band markers,
///   [`on_probe`](Self::on_probe) for fence probes;
/// * **dequeue eligibility** — [`group_blocked`](Self::group_blocked)
///   (queue-scan flag state) and [`dequeue_allowed`](Self::dequeue_allowed)
///   (per-request gate), then [`on_dequeue`](Self::on_dequeue);
/// * **issue** — [`issue_allowed`](Self::issue_allowed) at the bank /
///   exec queue head, then [`on_retire`](Self::on_retire) once the
///   column or execute command goes out;
/// * **marker merge** — [`on_marker`](Self::on_marker) when a copy
///   reaches the scheduler stage, [`take_released`](Self::take_released)
///   for held markers whose condition has since drained;
/// * **quiescence** — [`is_idle`](Self::is_idle) feeds the controller's
///   `NextEvent` horizon: any live ordering state keeps the controller
///   ticking densely, which is what makes the event core bit-identical.
///
/// [`set_elide_group`](Self::set_elide_group) is the mutation hook for
/// the fault gauntlet: it drops the backend's ordering edges for one
/// group so the happens-before oracle can be proven to fire.
pub trait OrderingBackend: std::fmt::Debug + Send {
    /// Which backend this is.
    fn kind(&self) -> OrderingKind;

    /// A request was accepted into the transaction queues. Returns
    /// `Some(number)` when the backend raises a *synthetic* barrier at
    /// this point (controller-enforced backends); the controller records
    /// it in the trace so the oracle can validate the claimed ordering.
    fn on_arrival(
        &mut self,
        meta: ReqMeta,
        group: MemGroupId,
        pim: bool,
        is_write: bool,
    ) -> Option<u32>;

    /// An in-band ordering marker was accepted into the queues (before
    /// divergence into the read/write copies).
    fn on_marker_ingress(&mut self, copy: &MarkerCopy) {
        let _ = copy;
    }

    /// A fence probe arrived; `true` acknowledges it immediately.
    fn on_probe(&mut self, warp: GlobalWarpId, fence_id: u64) -> bool;

    /// Whether requests of `group` are blocked by backend-wide flag state
    /// (threaded into the transaction-queue eligibility scan).
    fn group_blocked(&self, group: MemGroupId) -> bool;

    /// Per-request dequeue gate, evaluated inside the FR-FCFS scan after
    /// the flag and queue-capacity checks.
    fn dequeue_allowed(&self, p: &PendingReq) -> bool;

    /// A request left a transaction queue for a bank/exec command queue.
    fn on_dequeue(&mut self, p: &PendingReq);

    /// Per-transaction issue gate at the bank (or exec) queue head.
    fn issue_allowed(&self, txn: &Transaction) -> bool;

    /// A transaction's column/execute command was issued to the DRAM.
    fn on_retire(&mut self, txn: &Transaction) -> RetireOutcome;

    /// A marker copy with no constrained request ahead of it was offered
    /// by one of the transaction queues.
    fn on_marker(&mut self, copy: &MarkerCopy) -> MarkerAction;

    /// Held markers whose barrier has drained since the last call; the
    /// controller pops their queued copies and completes the merge.
    fn take_released(&mut self) -> Vec<(MarkerKey, OrderLightPacket)> {
        Vec::new()
    }

    /// Whether all ordering state is drained (quiescence contract: while
    /// this is false the controller must tick densely).
    fn is_idle(&self) -> bool;

    /// Counter snapshot for [`crate::McStats`].
    fn stats(&self) -> BackendStats;

    /// Fault-injection mutation: drop this backend's ordering edges for
    /// `group`. The resulting schedule is incorrect by construction.
    fn set_elide_group(&mut self, group: MemGroupId);

    /// The mutated group, if the drop-edge mutation is active (threaded
    /// into the queue scan so in-queue markers stop constraining it).
    fn elide_group(&self) -> Option<MemGroupId>;

    /// Ordering edges actually dropped by the mutation so far.
    fn edges_dropped(&self) -> u64;
}

/// OrderLight: [`GroupOrdering`] barriers plus the universal fence-probe
/// service (probes are rare in this mode but remain answerable).
#[derive(Debug, Default)]
pub struct OrderLightBackend {
    group: GroupOrdering,
    fences: FenceTracker,
}

impl OrderLightBackend {
    /// Creates idle backend state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl OrderingBackend for OrderLightBackend {
    fn kind(&self) -> OrderingKind {
        OrderingKind::OrderLight
    }

    fn on_arrival(
        &mut self,
        meta: ReqMeta,
        _group: MemGroupId,
        _pim: bool,
        _is_write: bool,
    ) -> Option<u32> {
        self.fences.on_arrival(meta.warp);
        None
    }

    fn on_probe(&mut self, warp: GlobalWarpId, fence_id: u64) -> bool {
        self.fences.on_probe(warp, fence_id)
    }

    fn group_blocked(&self, group: MemGroupId) -> bool {
        self.group.is_blocked(group)
    }

    fn dequeue_allowed(&self, _p: &PendingReq) -> bool {
        true
    }

    fn on_dequeue(&mut self, p: &PendingReq) {
        self.group.on_dequeue(p.group);
    }

    fn issue_allowed(&self, _txn: &Transaction) -> bool {
        true
    }

    fn on_retire(&mut self, txn: &Transaction) -> RetireOutcome {
        self.group.on_issue(txn.group);
        RetireOutcome { credit: false, fence_acks: self.fences.on_issue(txn.meta.warp) }
    }

    fn on_marker(&mut self, copy: &MarkerCopy) -> MarkerAction {
        match self.group.on_marker_copy(copy) {
            Some(packet) => MarkerAction::Merged(packet),
            None => MarkerAction::Pending,
        }
    }

    fn is_idle(&self) -> bool {
        self.group.is_idle() && self.fences.pending() == 0
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            packets_merged: self.group.packets_merged(),
            flags_set: self.group.flags_set(),
            sanity_violations: self.group.sanity_violations(),
        }
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.group.set_elide_group(group);
    }

    fn elide_group(&self) -> Option<MemGroupId> {
        self.group.elide_group()
    }

    fn edges_dropped(&self) -> u64 {
        self.group.edges_dropped()
    }
}

/// The core-centric fence baseline: the controller schedules freely and
/// only generates acknowledgements from the [`FenceTracker`]. Stray
/// in-band markers (none in real fence-mode traffic) merge with no
/// barrier so they never clog the queues.
#[derive(Debug, Default)]
pub struct FenceBackend {
    fences: FenceTracker,
    merge: MergeFsm,
    /// Mutation: acknowledge probes immediately even with requests
    /// outstanding (drops the fence's ordering edge).
    elide: Option<MemGroupId>,
    edges_dropped: u64,
}

impl FenceBackend {
    /// Creates idle backend state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl OrderingBackend for FenceBackend {
    fn kind(&self) -> OrderingKind {
        OrderingKind::Fence
    }

    fn on_arrival(
        &mut self,
        meta: ReqMeta,
        _group: MemGroupId,
        _pim: bool,
        _is_write: bool,
    ) -> Option<u32> {
        self.fences.on_arrival(meta.warp);
        None
    }

    fn on_probe(&mut self, warp: GlobalWarpId, fence_id: u64) -> bool {
        if self.elide.is_some() {
            // Mutation: the early ack drops the fence's edge whenever the
            // warp still has requests outstanding.
            if self.fences.outstanding(warp) > 0 {
                self.edges_dropped += 1;
            }
            return true;
        }
        self.fences.on_probe(warp, fence_id)
    }

    fn group_blocked(&self, _group: MemGroupId) -> bool {
        false
    }

    fn dequeue_allowed(&self, _p: &PendingReq) -> bool {
        true
    }

    fn on_dequeue(&mut self, _p: &PendingReq) {}

    fn issue_allowed(&self, _txn: &Transaction) -> bool {
        true
    }

    fn on_retire(&mut self, txn: &Transaction) -> RetireOutcome {
        RetireOutcome { credit: false, fence_acks: self.fences.on_issue(txn.meta.warp) }
    }

    fn on_marker(&mut self, copy: &MarkerCopy) -> MarkerAction {
        match self.merge.on_copy(copy) {
            Some(Marker::OrderLight(p) | Marker::Release(p)) => MarkerAction::Merged(p),
            _ => MarkerAction::Pending,
        }
    }

    fn is_idle(&self) -> bool {
        self.fences.pending() == 0 && self.merge.pending() == 0
    }

    fn stats(&self) -> BackendStats {
        BackendStats { packets_merged: self.merge.merges(), flags_set: 0, sanity_violations: 0 }
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide = Some(group);
    }

    fn elide_group(&self) -> Option<MemGroupId> {
        self.elide
    }

    fn edges_dropped(&self) -> u64 {
        self.edges_dropped
    }
}

/// The Kim et al. sequence-number baseline: each warp's PIM requests are
/// dequeued *and* issued strictly in sequence-number order and a buffer
/// credit returns to the core per retired request.
#[derive(Debug, Default)]
pub struct SeqNumBackend {
    fences: FenceTracker,
    merge: MergeFsm,
    /// Next sequence number each warp may dequeue, minus one (sequence
    /// numbers start at 1, so the table's zero default expects 1).
    expected_dequeue: WarpTable<u64>,
    /// Next sequence number each warp may issue, minus one.
    expected_issue: WarpTable<u64>,
    /// Mutation: requests of this group skip both sequence gates.
    elide: Option<MemGroupId>,
    edges_dropped: u64,
}

impl SeqNumBackend {
    /// Creates idle backend state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl OrderingBackend for SeqNumBackend {
    fn kind(&self) -> OrderingKind {
        OrderingKind::SeqNum
    }

    fn on_arrival(
        &mut self,
        meta: ReqMeta,
        _group: MemGroupId,
        _pim: bool,
        _is_write: bool,
    ) -> Option<u32> {
        self.fences.on_arrival(meta.warp);
        None
    }

    fn on_probe(&mut self, warp: GlobalWarpId, fence_id: u64) -> bool {
        self.fences.on_probe(warp, fence_id)
    }

    fn group_blocked(&self, _group: MemGroupId) -> bool {
        false
    }

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

    fn on_retire(&mut self, txn: &Transaction) -> RetireOutcome {
        let credit = txn.is_pim();
        if credit {
            *self.expected_issue.get_mut(txn.meta.warp) = txn.meta.seq;
        }
        RetireOutcome { credit, fence_acks: self.fences.on_issue(txn.meta.warp) }
    }

    fn on_marker(&mut self, copy: &MarkerCopy) -> MarkerAction {
        match self.merge.on_copy(copy) {
            Some(Marker::OrderLight(p) | Marker::Release(p)) => MarkerAction::Merged(p),
            _ => MarkerAction::Pending,
        }
    }

    fn is_idle(&self) -> bool {
        self.fences.pending() == 0 && self.merge.pending() == 0
    }

    fn stats(&self) -> BackendStats {
        BackendStats { packets_merged: self.merge.merges(), flags_set: 0, sanity_violations: 0 }
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide = Some(group);
    }

    fn elide_group(&self) -> Option<MemGroupId> {
        self.elide
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
#[derive(Debug)]
pub struct LouvreVersioned {
    fences: FenceTracker,
    merge: MergeFsm,
    arrivals: [u64; MAX_GROUPS],
    issued: [u64; MAX_GROUPS],
    /// Drain targets snapshotted at marker ingress, keyed by identity.
    pending_targets: HashMap<MarkerKey, Vec<(MemGroupId, u64)>>,
    /// Merged releases still holding (front-released: a later marker is
    /// never offered while an earlier one still heads the queues).
    held: VecDeque<HeldRelease>,
    last_version: [Option<u32>; MAX_GROUPS],
    packets_merged: u64,
    flags_set: u64,
    sanity_violations: u64,
    elide: Option<MemGroupId>,
    edges_dropped: u64,
}

impl LouvreVersioned {
    /// Creates idle backend state.
    #[must_use]
    pub fn new() -> Self {
        LouvreVersioned {
            fences: FenceTracker::new(),
            merge: MergeFsm::new(),
            arrivals: [0; MAX_GROUPS],
            issued: [0; MAX_GROUPS],
            pending_targets: HashMap::new(),
            held: VecDeque::new(),
            last_version: [None; MAX_GROUPS],
            packets_merged: 0,
            flags_set: 0,
            sanity_violations: 0,
            elide: None,
            edges_dropped: 0,
        }
    }

    fn satisfied(&self, targets: &[(MemGroupId, u64)]) -> bool {
        targets.iter().all(|&(g, t)| self.issued[g.index()] >= t)
    }
}

impl Default for LouvreVersioned {
    fn default() -> Self {
        LouvreVersioned::new()
    }
}

impl OrderingBackend for LouvreVersioned {
    fn kind(&self) -> OrderingKind {
        OrderingKind::LouvreVersioned
    }

    fn on_arrival(
        &mut self,
        meta: ReqMeta,
        group: MemGroupId,
        _pim: bool,
        _is_write: bool,
    ) -> Option<u32> {
        self.fences.on_arrival(meta.warp);
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

    fn on_probe(&mut self, warp: GlobalWarpId, fence_id: u64) -> bool {
        self.fences.on_probe(warp, fence_id)
    }

    fn group_blocked(&self, _group: MemGroupId) -> bool {
        false // blocking happens via the held in-queue marker copies
    }

    fn dequeue_allowed(&self, _p: &PendingReq) -> bool {
        true
    }

    fn on_dequeue(&mut self, _p: &PendingReq) {}

    fn issue_allowed(&self, _txn: &Transaction) -> bool {
        true
    }

    fn on_retire(&mut self, txn: &Transaction) -> RetireOutcome {
        self.issued[txn.group.index()] += 1;
        RetireOutcome { credit: false, fence_acks: self.fences.on_issue(txn.meta.warp) }
    }

    fn on_marker(&mut self, copy: &MarkerCopy) -> MarkerAction {
        let Some(Marker::OrderLight(packet) | Marker::Release(packet)) = self.merge.on_copy(copy)
        else {
            return MarkerAction::Pending;
        };
        self.packets_merged += 1;
        let key = copy.marker.key();
        let mut targets = self.pending_targets.remove(&key).unwrap_or_default();
        for group in packet.groups() {
            let g = group.index();
            if let Some(last) = self.last_version[g] {
                if packet.number() <= last {
                    self.sanity_violations += 1;
                }
            }
            self.last_version[g] = Some(packet.number());
        }
        if let Some(elided) = self.elide {
            // Mutation: the elided group's versioned wait is dropped.
            let before = targets.len();
            targets.retain(|&(g, _)| g != elided);
            self.edges_dropped += (before - targets.len()) as u64;
        }
        if self.satisfied(&targets) {
            MarkerAction::Merged(packet)
        } else {
            self.flags_set += 1;
            self.held.push_back(HeldRelease { key, packet, targets });
            MarkerAction::Held
        }
    }

    fn take_released(&mut self) -> Vec<(MarkerKey, OrderLightPacket)> {
        let mut released = Vec::new();
        while let Some(front) = self.held.front() {
            if !self.satisfied(&front.targets) {
                break;
            }
            let h = self.held.pop_front().expect("front exists");
            released.push((h.key, h.packet));
        }
        released
    }

    fn is_idle(&self) -> bool {
        self.fences.pending() == 0 && self.merge.pending() == 0 && self.held.is_empty()
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            packets_merged: self.packets_merged,
            flags_set: self.flags_set,
            sanity_violations: self.sanity_violations,
        }
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide = Some(group);
    }

    fn elide_group(&self) -> Option<MemGroupId> {
        self.elide
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
#[derive(Debug)]
pub struct BulkBitwiseStrong {
    fences: FenceTracker,
    merge: MergeFsm,
    arrivals: [u64; MAX_GROUPS],
    issued: [u64; MAX_GROUPS],
    /// `(warp, seq)` → 1-based per-group arrival index; removed at retire.
    stamps: HashMap<(GlobalWarpId, u64), u64>,
    /// Kind (write?) of the group's most recent arrival, for epoch flips.
    last_write: [Option<bool>; MAX_GROUPS],
    /// Per-group epoch counter (trace barrier numbers).
    epoch: [u32; MAX_GROUPS],
    flags_set: u64,
    sanity_violations: u64,
    elide: Option<MemGroupId>,
    edges_dropped: u64,
}

impl BulkBitwiseStrong {
    /// Creates idle backend state.
    #[must_use]
    pub fn new() -> Self {
        BulkBitwiseStrong {
            fences: FenceTracker::new(),
            merge: MergeFsm::new(),
            arrivals: [0; MAX_GROUPS],
            issued: [0; MAX_GROUPS],
            stamps: HashMap::new(),
            last_write: [None; MAX_GROUPS],
            epoch: [0; MAX_GROUPS],
            flags_set: 0,
            sanity_violations: 0,
            elide: None,
            edges_dropped: 0,
        }
    }
}

impl Default for BulkBitwiseStrong {
    fn default() -> Self {
        BulkBitwiseStrong::new()
    }
}

impl OrderingBackend for BulkBitwiseStrong {
    fn kind(&self) -> OrderingKind {
        OrderingKind::BulkBitwiseStrong
    }

    fn on_arrival(
        &mut self,
        meta: ReqMeta,
        group: MemGroupId,
        _pim: bool,
        is_write: bool,
    ) -> Option<u32> {
        self.fences.on_arrival(meta.warp);
        let g = group.index();
        let note = if self.last_write[g].is_some_and(|w| w != is_write) {
            // Read↔write kind flip: a new epoch begins. The barrier is
            // recorded (and oracle-checked) but enforcement is the total
            // per-group order below, which subsumes it.
            self.epoch[g] += 1;
            self.flags_set += 1;
            Some(self.epoch[g])
        } else {
            None
        };
        self.last_write[g] = Some(is_write);
        self.arrivals[g] += 1;
        self.stamps.insert((meta.warp, meta.seq), self.arrivals[g]);
        note
    }

    fn on_probe(&mut self, warp: GlobalWarpId, fence_id: u64) -> bool {
        self.fences.on_probe(warp, fence_id)
    }

    fn group_blocked(&self, _group: MemGroupId) -> bool {
        false
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

    fn issue_allowed(&self, _txn: &Transaction) -> bool {
        true // the dequeue gate admits one in-flight request per group
    }

    fn on_retire(&mut self, txn: &Transaction) -> RetireOutcome {
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
        RetireOutcome { credit: false, fence_acks: self.fences.on_issue(txn.meta.warp) }
    }

    fn on_marker(&mut self, copy: &MarkerCopy) -> MarkerAction {
        match self.merge.on_copy(copy) {
            Some(Marker::OrderLight(p) | Marker::Release(p)) => MarkerAction::Merged(p),
            _ => MarkerAction::Pending,
        }
    }

    fn is_idle(&self) -> bool {
        self.fences.pending() == 0 && self.merge.pending() == 0 && self.stamps.is_empty()
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            packets_merged: self.merge.merges(),
            flags_set: self.flags_set,
            sanity_violations: self.sanity_violations,
        }
    }

    fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide = Some(group);
    }

    fn elide_group(&self) -> Option<MemGroupId> {
        self.elide
    }

    fn edges_dropped(&self) -> u64 {
        self.edges_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::fsm::diverge;
    use orderlight::types::ChannelId;

    fn ol_copies(group: u8, number: u32) -> Vec<MarkerCopy> {
        diverge(
            Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(group), number)),
            2,
        )
    }

    #[test]
    fn flag_set_only_with_inflight_work() {
        let mut ord = GroupOrdering::new();
        let copies = ol_copies(0, 1);
        assert!(ord.on_marker_copy(&copies[0]).is_none());
        assert!(ord.on_marker_copy(&copies[1]).is_some());
        // Nothing in flight: no barrier raised.
        assert!(!ord.is_blocked(MemGroupId(0)));
        assert_eq!(ord.packets_merged(), 1);
        assert_eq!(ord.flags_set(), 0);
    }

    #[test]
    fn flag_blocks_until_inflight_drains() {
        let mut ord = GroupOrdering::new();
        ord.on_dequeue(MemGroupId(0));
        ord.on_dequeue(MemGroupId(0));
        for c in ol_copies(0, 1) {
            ord.on_marker_copy(&c);
        }
        assert!(ord.is_blocked(MemGroupId(0)));
        assert!(!ord.is_blocked(MemGroupId(1)), "other groups unconstrained");
        ord.on_issue(MemGroupId(0));
        assert!(ord.is_blocked(MemGroupId(0)), "one request still in flight");
        ord.on_issue(MemGroupId(0));
        assert!(!ord.is_blocked(MemGroupId(0)));
        assert!(ord.is_idle());
    }

    #[test]
    fn sanity_check_flags_non_monotonic_numbers() {
        let mut ord = GroupOrdering::new();
        for c in ol_copies(0, 5) {
            ord.on_marker_copy(&c);
        }
        for c in ol_copies(0, 4) {
            ord.on_marker_copy(&c);
        }
        assert_eq!(ord.sanity_violations(), 1);
    }

    #[test]
    fn multi_group_packet_is_a_joint_barrier() {
        // The cross-kernel use case: group 2's request must drain before
        // group 0 unblocks, and vice versa — one barrier over both.
        let mut ord = GroupOrdering::new();
        ord.on_dequeue(MemGroupId(0));
        ord.on_dequeue(MemGroupId(2));
        let pkt = OrderLightPacket::with_groups(ChannelId(0), MemGroupId(0), &[MemGroupId(2)], 1)
            .unwrap();
        for c in diverge(Marker::OrderLight(pkt), 2) {
            ord.on_marker_copy(&c);
        }
        assert!(ord.is_blocked(MemGroupId(0)));
        assert!(ord.is_blocked(MemGroupId(2)));
        assert!(!ord.is_blocked(MemGroupId(1)));
        // Draining only group 0 keeps BOTH groups blocked: the packet
        // ordered group 0's followers behind group 2's in-flight work.
        ord.on_issue(MemGroupId(0));
        assert!(ord.is_blocked(MemGroupId(0)), "joint barrier still waits on group 2");
        assert!(ord.is_blocked(MemGroupId(2)));
        ord.on_issue(MemGroupId(2));
        assert!(!ord.is_blocked(MemGroupId(0)));
        assert!(!ord.is_blocked(MemGroupId(2)));
        assert!(ord.is_idle());
    }

    #[test]
    fn stacked_barriers_drain_independently() {
        let mut ord = GroupOrdering::new();
        ord.on_dequeue(MemGroupId(0));
        for c in ol_copies(0, 1) {
            ord.on_marker_copy(&c);
        }
        // A second packet merges while the first barrier is active (no
        // requests between them): it sees the same in-flight request.
        for c in ol_copies(0, 2) {
            ord.on_marker_copy(&c);
        }
        assert!(ord.is_blocked(MemGroupId(0)));
        ord.on_issue(MemGroupId(0));
        assert!(!ord.is_blocked(MemGroupId(0)), "both barriers drained by the issue");
        assert!(ord.is_idle());
    }

    #[test]
    fn fence_ack_waits_for_issue() {
        let mut f = FenceTracker::new();
        let w = GlobalWarpId::new(0, 0);
        f.on_arrival(w);
        f.on_arrival(w);
        assert!(!f.on_probe(w, 7));
        assert_eq!(f.pending(), 1);
        assert!(f.on_issue(w).is_empty());
        assert_eq!(f.on_issue(w), vec![(w, 7)]);
        assert_eq!(f.pending(), 0);
        assert_eq!(f.acks(), 1);
    }

    #[test]
    fn fence_with_nothing_outstanding_acks_immediately() {
        let mut f = FenceTracker::new();
        let w = GlobalWarpId::new(0, 1);
        assert!(f.on_probe(w, 1));
        f.on_arrival(w);
        f.on_issue(w);
        assert!(f.on_probe(w, 2), "caught up again");
    }

    #[test]
    fn fences_track_warps_independently() {
        let mut f = FenceTracker::new();
        let w0 = GlobalWarpId::new(0, 0);
        let w1 = GlobalWarpId::new(0, 1);
        f.on_arrival(w0);
        assert!(!f.on_probe(w0, 1));
        assert!(f.on_probe(w1, 2), "other warp unaffected");
        assert_eq!(f.on_issue(w0), vec![(w0, 1)]);
    }

    // ---- backend-level tests -------------------------------------------

    use orderlight::mapping::Location;
    use orderlight::slab::Slab;
    use orderlight::types::{Addr, BankId, TsSlot};
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

    fn release_copies(group: u8, version: u32) -> Vec<MarkerCopy> {
        diverge(Marker::Release(OrderLightPacket::new(ChannelId(0), MemGroupId(group), version)), 2)
    }

    fn arrive(b: &mut dyn OrderingBackend, group: u8, warp: GlobalWarpId, seq: u64) {
        b.on_arrival(meta(warp, seq), MemGroupId(group), true, false);
    }

    #[test]
    fn louvre_holds_release_until_older_requests_issue() {
        let mut b = LouvreVersioned::new();
        let w = GlobalWarpId::new(0, 0);
        arrive(&mut b, 0, w, 1);
        arrive(&mut b, 0, w, 2);
        let copies = release_copies(0, 1);
        b.on_marker_ingress(&copies[0]);
        assert_eq!(b.on_marker(&copies[0]), MarkerAction::Pending);
        assert_eq!(b.on_marker(&copies[1]), MarkerAction::Held, "older requests unissued");
        assert!(b.take_released().is_empty());
        assert!(!b.is_idle());
        b.on_retire(&txn(0, w, 1));
        assert!(b.take_released().is_empty(), "one older request still in flight");
        b.on_retire(&txn(0, w, 2));
        let released = b.take_released();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].1.number(), 1);
        assert!(b.is_idle());
        assert_eq!(b.stats().flags_set, 1);
        assert_eq!(b.stats().packets_merged, 1);
    }

    #[test]
    fn louvre_release_over_drained_group_merges_immediately() {
        let mut b = LouvreVersioned::new();
        let copies = release_copies(3, 1);
        b.on_marker_ingress(&copies[0]);
        assert_eq!(b.on_marker(&copies[0]), MarkerAction::Pending);
        assert!(matches!(b.on_marker(&copies[1]), MarkerAction::Merged(_)));
        assert_eq!(b.stats().flags_set, 0, "nothing to wait for: no hold");
        assert!(b.is_idle());
    }

    #[test]
    fn louvre_versions_are_sanity_checked_per_group() {
        let mut b = LouvreVersioned::new();
        for c in release_copies(0, 5) {
            b.on_marker_ingress(&c);
            b.on_marker(&c);
        }
        for c in release_copies(0, 4) {
            b.on_marker_ingress(&c);
            b.on_marker(&c);
        }
        assert_eq!(b.stats().sanity_violations, 1, "non-monotonic version");
    }

    #[test]
    fn louvre_elide_drops_the_versioned_wait() {
        let mut b = LouvreVersioned::new();
        let w = GlobalWarpId::new(0, 0);
        arrive(&mut b, 0, w, 1);
        b.set_elide_group(MemGroupId(0));
        let copies = release_copies(0, 1);
        b.on_marker_ingress(&copies[0]);
        b.on_marker(&copies[0]);
        assert!(
            matches!(b.on_marker(&copies[1]), MarkerAction::Merged(_)),
            "elided group's drain target is dropped"
        );
        assert_eq!(b.edges_dropped(), 1);
    }

    #[test]
    fn bulk_serializes_a_group_in_arrival_order() {
        let mut b = BulkBitwiseStrong::new();
        let w = GlobalWarpId::new(0, 0);
        arrive(&mut b, 0, w, 1);
        arrive(&mut b, 0, w, 2);
        let p1 = pending(0, w, 1);
        let p2 = pending(0, w, 2);
        assert!(b.dequeue_allowed(&p1));
        assert!(!b.dequeue_allowed(&p2), "older same-group request unissued");
        b.on_dequeue(&p1);
        b.on_retire(&txn(0, w, 1));
        assert!(b.dequeue_allowed(&p2));
        b.on_retire(&txn(0, w, 2));
        assert!(b.is_idle());
        assert_eq!(b.stats().sanity_violations, 0);
    }

    #[test]
    fn bulk_does_not_serialize_across_groups() {
        let mut b = BulkBitwiseStrong::new();
        let w = GlobalWarpId::new(0, 0);
        arrive(&mut b, 0, w, 1);
        arrive(&mut b, 1, w, 2);
        assert!(b.dequeue_allowed(&pending(1, w, 2)), "other group unconstrained");
    }

    #[test]
    fn bulk_epochs_flip_on_kind_change() {
        let mut b = BulkBitwiseStrong::new();
        let w = GlobalWarpId::new(0, 0);
        assert_eq!(b.on_arrival(meta(w, 1), MemGroupId(0), true, false), None);
        assert_eq!(b.on_arrival(meta(w, 2), MemGroupId(0), true, true), Some(1), "read→write");
        assert_eq!(b.on_arrival(meta(w, 3), MemGroupId(0), true, true), None, "same kind");
        assert_eq!(b.on_arrival(meta(w, 4), MemGroupId(0), true, false), Some(2), "write→read");
        assert_eq!(b.stats().flags_set, 2);
    }

    #[test]
    fn bulk_elide_bypasses_the_gate_and_flags_the_retire() {
        let mut b = BulkBitwiseStrong::new();
        let w = GlobalWarpId::new(0, 0);
        b.set_elide_group(MemGroupId(0));
        arrive(&mut b, 0, w, 1);
        arrive(&mut b, 0, w, 2);
        let p2 = pending(0, w, 2);
        assert!(b.dequeue_allowed(&p2), "gate bypassed under elide");
        b.on_dequeue(&p2);
        assert_eq!(b.edges_dropped(), 1);
        b.on_retire(&txn(0, w, 2));
        assert_eq!(b.stats().sanity_violations, 1, "out-of-order retire detected");
    }

    #[test]
    fn fence_backend_elide_acks_with_requests_outstanding() {
        let mut b = FenceBackend::new();
        let w = GlobalWarpId::new(0, 0);
        arrive(&mut b, 0, w, 1);
        assert!(!b.on_probe(w, 7), "clean fence waits");
        b.on_retire(&txn(0, w, 1)); // drains, acks fence 7
        let mut b = FenceBackend::new();
        arrive(&mut b, 0, w, 1);
        b.set_elide_group(MemGroupId(0));
        assert!(b.on_probe(w, 8), "elided fence acks early");
        assert_eq!(b.edges_dropped(), 1);
    }

    #[test]
    fn seqnum_backend_gates_dequeue_and_issue_per_warp() {
        let mut b = SeqNumBackend::new();
        let w = GlobalWarpId::new(0, 0);
        assert!(!b.dequeue_allowed(&pending(0, w, 2)));
        assert!(b.dequeue_allowed(&pending(0, w, 1)));
        b.on_dequeue(&pending(0, w, 1));
        assert!(b.dequeue_allowed(&pending(0, w, 2)));
        assert!(b.issue_allowed(&txn(0, w, 1)));
        assert!(!b.issue_allowed(&txn(0, w, 2)));
        let out = b.on_retire(&txn(0, w, 1));
        assert!(out.credit, "retired PIM request returns a credit");
        assert!(b.issue_allowed(&txn(0, w, 2)));
    }

    #[test]
    fn seqnum_elide_bypasses_both_gates() {
        let mut b = SeqNumBackend::new();
        let w = GlobalWarpId::new(0, 0);
        b.set_elide_group(MemGroupId(0));
        assert!(b.dequeue_allowed(&pending(0, w, 5)));
        b.on_dequeue(&pending(0, w, 5));
        assert_eq!(b.edges_dropped(), 1);
        assert!(b.issue_allowed(&txn(0, w, 5)));
    }

    #[test]
    fn every_kind_builds_its_backend() {
        for kind in OrderingKind::ALL {
            let b = kind.build();
            assert_eq!(b.kind(), kind);
            assert!(b.is_idle());
            assert_eq!(b.stats(), BackendStats::default());
            assert_eq!(kind.label().parse::<String>().unwrap(), kind.to_string());
        }
    }
}
