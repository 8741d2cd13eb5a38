//! The controller's read/write transaction queues.
//!
//! Each queue holds requests in arrival order, interleaved with marker
//! copies (OrderLight packets). A marker copy blocks *same-group*
//! requests behind it from being dequeued; requests of other groups pass
//! freely. The scheduler consumes a marker copy once no same-group
//! request remains ahead of it in the queue.

use orderlight::mapping::Location;
use orderlight::message::{Marker, MarkerCopy, ReqMeta};
use orderlight::packet::OrderLightPacket;
use orderlight::slab::SlabRef;
use orderlight::types::MemGroupId;
use std::collections::VecDeque;

/// The memory groups whose requests a marker constrains.
///
/// OrderLight packets and Louvre release markers constrain exactly the
/// groups they name; fence probes constrain nothing at the scheduler
/// (the baseline fence does *not* stop the controller from reordering —
/// that insufficiency is one of the paper's motivations; probes only
/// generate acknowledgements).
pub(crate) fn constrained_groups(copy: &MarkerCopy) -> impl Iterator<Item = MemGroupId> + '_ {
    let packet = match &copy.marker {
        Marker::OrderLight(p) | Marker::Release(p) => Some(p),
        Marker::FenceProbe { .. } => None,
    };
    packet.into_iter().flat_map(OrderLightPacket::groups)
}

/// Whether a marker constrains requests of memory group `group`: one
/// of the groups an OrderLight packet or Louvre release marker names.
#[must_use]
pub fn marker_constrains(copy: &MarkerCopy, group: MemGroupId) -> bool {
    constrained_groups(copy).any(|g| g == group)
}

/// A queued request with its decoded location (`None` for execute-only
/// PIM commands, which touch no DRAM).
///
/// The request body lives in the controller's packet arena; the queue
/// entry carries its [`SlabRef`] handle plus the fields the FR-FCFS
/// scan reads every cycle (`pim`, `meta`, `loc`, `group`, `arrival`),
/// denormalized here so candidate scanning never dereferences the
/// arena. The body is resolved exactly once, at dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingReq {
    /// Handle of the request body in the controller's arena.
    pub req: SlabRef,
    /// Whether the request is a PIM instruction (seq-order gating).
    pub pim: bool,
    /// Issue metadata (warp + per-warp sequence number).
    pub meta: ReqMeta,
    /// Decoded physical location of its column access, if any.
    pub loc: Option<Location>,
    /// Memory group for ordering purposes.
    pub group: MemGroupId,
    /// Arrival stamp (FR-FCFS tiebreak).
    pub arrival: u64,
}

/// One entry of a transaction queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueEntry {
    /// A memory request (PIM or host).
    Request(PendingReq),
    /// An ordering-marker copy. `offered` records whether it has been
    /// handed to the convergence FSM; the copy keeps blocking its
    /// sub-path until *all* copies have merged (paper Figure 9), at which
    /// point [`TransQueue::pop_marker_by_key`] removes it.
    Marker {
        /// The marker copy.
        copy: MarkerCopy,
        /// Whether the copy has been offered to the merge FSM.
        offered: bool,
    },
}

/// A bounded FIFO transaction queue with marker-aware dequeue.
#[derive(Debug, Clone)]
pub struct TransQueue {
    entries: VecDeque<QueueEntry>,
    capacity: usize,
    occupancy_integral: u64,
    ticks: u64,
}

impl TransQueue {
    /// Creates a queue bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        TransQueue { entries: VecDeque::new(), capacity, occupancy_integral: 0, ticks: 0 }
    }

    /// Whether another entry can be accepted.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occupancy as a fraction of capacity (write-drain hysteresis input).
    #[must_use]
    pub fn fill_fraction(&self) -> f64 {
        self.entries.len() as f64 / self.capacity as f64
    }

    /// Appends an entry.
    ///
    /// # Panics
    /// Panics if the queue is full — callers must check
    /// [`has_space`](Self::has_space); the memory pipe applies
    /// backpressure upstream.
    pub fn push(&mut self, entry: QueueEntry) {
        assert!(self.has_space(), "transaction queue overflow");
        self.entries.push_back(entry);
    }

    /// Records one cycle of occupancy statistics.
    pub fn record_tick(&mut self) {
        self.record_ticks(1);
    }

    /// Records `n` cycles of occupancy statistics at the current
    /// occupancy in one step — the event core's closed-form equivalent
    /// of `n` calls to [`record_tick`](Self::record_tick) across a
    /// window in which the queue does not change.
    pub fn record_ticks(&mut self, n: u64) {
        self.occupancy_integral += self.entries.len() as u64 * n;
        self.ticks += n;
    }

    /// Mean occupancy over recorded ticks.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.occupancy_integral as f64 / self.ticks as f64
        }
    }

    /// Index of the first marker copy, if any.
    fn first_marker_pos(&self) -> Option<usize> {
        self.entries.iter().position(|e| matches!(e, QueueEntry::Marker { .. }))
    }

    /// Returns the first marker copy if it is *ready* (no request it
    /// constrains remains ahead of it in this queue) and has not yet been
    /// offered to the merge FSM.
    #[must_use]
    pub fn ready_unoffered_marker(&self) -> Option<&MarkerCopy> {
        let pos = self.first_marker_pos()?;
        let QueueEntry::Marker { copy, offered } = &self.entries[pos] else { unreachable!() };
        if *offered {
            return None;
        }
        let blocked = self.entries.iter().take(pos).any(|e| match e {
            QueueEntry::Request(p) => marker_constrains(copy, p.group),
            QueueEntry::Marker { .. } => false,
        });
        if blocked {
            None
        } else {
            Some(copy)
        }
    }

    /// Marks the first marker copy as offered to the merge FSM.
    ///
    /// # Panics
    /// Panics if there is no marker in the queue.
    pub fn mark_first_marker_offered(&mut self) {
        let pos = self.first_marker_pos().expect("no marker to mark");
        let QueueEntry::Marker { offered, .. } = &mut self.entries[pos] else { unreachable!() };
        *offered = true;
    }

    /// Removes the first marker copy if it matches `key` (called on every
    /// sub-path queue when the merge fires). Returns whether a copy was
    /// removed.
    pub fn pop_marker_by_key(&mut self, key: &orderlight::message::MarkerKey) -> bool {
        let Some(pos) = self.first_marker_pos() else { return false };
        let QueueEntry::Marker { copy, .. } = &self.entries[pos] else { unreachable!() };
        if copy.marker.key() != *key {
            return false;
        }
        self.entries.remove(pos);
        true
    }

    /// Iterates over dequeue-eligible requests (with their queue index),
    /// oldest first, scanning at most `scan_depth` eligible entries. A
    /// request is eligible if no marker constraining its group sits ahead
    /// of it and `group_blocked` is false for its group (the OrderLight
    /// flag state).
    ///
    /// `elide` is the drop-edge mutation hook: requests of that group
    /// ignore in-queue markers entirely (the barrier half of the mutation
    /// lives in `GroupOrdering`). It is `None` in every correct
    /// configuration.
    pub fn eligible<'q>(
        &'q self,
        group_blocked: impl Fn(MemGroupId) -> bool + 'q,
        elide: Option<MemGroupId>,
        scan_depth: usize,
    ) -> impl Iterator<Item = (usize, &'q PendingReq)> + 'q {
        // Groups constrained by a marker seen so far in the scan: one bit
        // per possible `MemGroupId`, so the scan never allocates.
        let mut blocking = [0u64; 4];
        let bit = |g: MemGroupId| (usize::from(g.0) / 64, 1u64 << (g.0 % 64));
        self.entries
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| match e {
                QueueEntry::Marker { copy, .. } => {
                    for g in constrained_groups(copy) {
                        let (w, b) = bit(g);
                        blocking[w] |= b;
                    }
                    None
                }
                QueueEntry::Request(p) => {
                    let (w, b) = bit(p.group);
                    if group_blocked(p.group) || (elide != Some(p.group) && blocking[w] & b != 0) {
                        None
                    } else {
                        Some((i, p))
                    }
                }
            })
            .take(scan_depth)
    }

    /// Removes the request at `index`.
    ///
    /// # Panics
    /// Panics if `index` does not hold a request.
    pub fn remove_request(&mut self, index: usize) -> PendingReq {
        match self.entries.remove(index) {
            Some(QueueEntry::Request(p)) => p,
            other => panic!("index {index} did not hold a request: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::fsm::diverge;
    use orderlight::packet::OrderLightPacket;
    use orderlight::slab::Slab;
    use orderlight::types::{ChannelId, GlobalWarpId};

    fn req(group: u8, seq: u64) -> QueueEntry {
        // TransQueue never dereferences the body handle — the scan runs
        // entirely on the denormalized fields — so queue-mechanics tests
        // use a placeholder handle from a throwaway arena.
        QueueEntry::Request(PendingReq {
            req: Slab::new().insert(()),
            pim: true,
            meta: ReqMeta { warp: GlobalWarpId(0), seq },
            loc: None,
            group: MemGroupId(group),
            arrival: seq,
        })
    }

    fn ol_copy(group: u8, number: u32) -> QueueEntry {
        let marker =
            Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(group), number));
        QueueEntry::Marker { copy: diverge(marker, 2).pop().unwrap(), offered: false }
    }

    #[test]
    fn marker_blocks_same_group_behind_it() {
        let mut q = TransQueue::new(8);
        q.push(req(0, 1));
        q.push(ol_copy(0, 1));
        q.push(req(0, 2));
        q.push(req(1, 3));
        let eligible: Vec<u64> =
            q.eligible(|_| false, None, usize::MAX).map(|(_, p)| p.arrival).collect();
        // Request 2 (group 0, behind the marker) is blocked; request 3
        // (group 1) passes freely.
        assert_eq!(eligible, vec![1, 3]);
    }

    #[test]
    fn elided_group_ignores_markers() {
        let mut q = TransQueue::new(8);
        q.push(req(0, 1));
        q.push(ol_copy(0, 1));
        q.push(req(0, 2));
        let eligible: Vec<u64> = q
            .eligible(|_| false, Some(MemGroupId(0)), usize::MAX)
            .map(|(_, p)| p.arrival)
            .collect();
        // With group 0's edge elided, request 2 passes the marker.
        assert_eq!(eligible, vec![1, 2]);
    }

    #[test]
    fn marker_ready_only_when_group_drained() {
        let mut q = TransQueue::new(8);
        q.push(req(0, 1));
        q.push(ol_copy(0, 1));
        assert!(q.ready_unoffered_marker().is_none(), "request 1 still ahead");
        let idx = q.eligible(|_| false, None, usize::MAX).next().unwrap().0;
        let p = q.remove_request(idx);
        assert_eq!(p.arrival, 1);
        let copy = q.ready_unoffered_marker().unwrap().clone();
        assert_eq!(copy.total_copies, 2);
        q.mark_first_marker_offered();
        assert!(q.ready_unoffered_marker().is_none(), "offered copies are not re-offered");
        // The copy stays in the queue, still blocking, until the merge
        // fires and it is removed by key.
        assert_eq!(q.eligible(|_| false, None, usize::MAX).count(), 0);
        assert!(q.pop_marker_by_key(&copy.marker.key()));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn other_group_requests_do_not_hold_marker() {
        let mut q = TransQueue::new(8);
        q.push(req(1, 1));
        q.push(ol_copy(0, 1));
        assert!(q.ready_unoffered_marker().is_some(), "group-1 request does not constrain");
    }

    #[test]
    fn fence_probe_constrains_nothing() {
        let probe =
            Marker::FenceProbe { warp: GlobalWarpId(0), fence_id: 1, channel: ChannelId(0) };
        let copy = diverge(probe, 1).pop().unwrap();
        assert!(!marker_constrains(&copy, MemGroupId(0)));
    }

    #[test]
    fn group_flag_blocks_dequeue() {
        let mut q = TransQueue::new(8);
        q.push(req(0, 1));
        q.push(req(1, 2));
        let eligible: Vec<u64> =
            q.eligible(|g| g == MemGroupId(0), None, usize::MAX).map(|(_, p)| p.arrival).collect();
        assert_eq!(eligible, vec![2]);
    }

    #[test]
    fn scan_depth_limits_candidates() {
        let mut q = TransQueue::new(8);
        for i in 0..6 {
            q.push(req(0, i));
        }
        assert_eq!(q.eligible(|_| false, None, 3).count(), 3);
    }

    #[test]
    fn second_marker_waits_for_first() {
        let mut q = TransQueue::new(8);
        q.push(ol_copy(0, 1));
        q.push(ol_copy(0, 2));
        let first = q.ready_unoffered_marker().unwrap().clone();
        let Marker::OrderLight(p) = &first.marker else { panic!("expected OrderLight") };
        assert_eq!(p.number(), 1);
        assert!(q.pop_marker_by_key(&first.marker.key()));
        let Marker::OrderLight(p) = &q.ready_unoffered_marker().unwrap().marker else {
            panic!("expected OrderLight")
        };
        assert_eq!(p.number(), 2);
    }

    #[test]
    fn capacity_and_occupancy_stats() {
        let mut q = TransQueue::new(2);
        assert!(q.has_space());
        q.push(req(0, 1));
        q.record_tick();
        q.push(req(0, 2));
        q.record_tick();
        assert!(!q.has_space());
        assert!((q.fill_fraction() - 1.0).abs() < f64::EPSILON);
        assert!((q.mean_occupancy() - 1.5).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = TransQueue::new(1);
        q.push(req(0, 1));
        q.push(req(0, 2));
    }
}
