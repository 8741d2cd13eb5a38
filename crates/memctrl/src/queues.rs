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

/// Most banks a channel may have: [`TransQueue`] keeps the banks its
/// requests target as one bit each of a `u64`.
pub const MAX_BANKS: usize = 64;

/// A bounded FIFO transaction queue with marker-aware dequeue.
///
/// Besides the entries, the queue keeps three counts up to date on every
/// push and removal, so the scheduler can tell in O(1) when a scan of it
/// could not find anything: its marker copies, its requests per bank
/// (with the banks that have any as a bit mask), and its execute-only
/// requests.
#[derive(Debug, Clone)]
pub struct TransQueue {
    entries: VecDeque<QueueEntry>,
    capacity: usize,
    /// Marker copies among `entries`.
    markers: usize,
    /// Requests among `entries` per target bank.
    bank_reqs: [u32; MAX_BANKS],
    /// Bit `b` is set iff `bank_reqs[b] > 0`.
    bank_mask: u64,
    /// Execute-only requests (no DRAM location) among `entries`.
    exec_reqs: usize,
}

impl TransQueue {
    /// Creates a queue bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        TransQueue {
            entries: VecDeque::new(),
            capacity,
            markers: 0,
            bank_reqs: [0; MAX_BANKS],
            bank_mask: 0,
            exec_reqs: 0,
        }
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
        match &entry {
            QueueEntry::Marker { .. } => self.markers += 1,
            QueueEntry::Request(p) => self.count_request(p, true),
        }
        self.entries.push_back(entry);
    }

    /// Adds `p` to (`arrived`) or takes it from the per-bank and
    /// execute-only counts.
    fn count_request(&mut self, p: &PendingReq, arrived: bool) {
        let Some(loc) = p.loc else {
            if arrived {
                self.exec_reqs += 1;
            } else {
                self.exec_reqs -= 1;
            }
            return;
        };
        let b = loc.bank.index();
        if arrived {
            self.bank_reqs[b] += 1;
            self.bank_mask |= 1 << b;
        } else {
            self.bank_reqs[b] -= 1;
            if self.bank_reqs[b] == 0 {
                self.bank_mask &= !(1 << b);
            }
        }
    }

    /// Whether the queue holds a request that could move to a command
    /// queue with room: one for a bank in `bank_room` (bit `b` set when
    /// bank `b`'s command queue has room), or an execute-only one when
    /// `exec_room`. When this is false, no FR-FCFS scan of the queue can
    /// find a candidate, whatever the markers and ordering state.
    #[must_use]
    pub(crate) fn holds_request_for(&self, bank_room: u64, exec_room: bool) -> bool {
        self.bank_mask & bank_room != 0 || (exec_room && self.exec_reqs > 0)
    }

    /// Index of the first marker copy, if any.
    fn first_marker_pos(&self) -> Option<usize> {
        if self.markers == 0 {
            return None;
        }
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
        self.markers -= 1;
        true
    }

    /// Iterates over dequeue-eligible requests (with their queue index),
    /// oldest first, scanning at most `scan_depth` eligible entries. A
    /// request is eligible if no marker constraining its group sits ahead
    /// of it and `group_blocked` is false for its group (the OrderLight
    /// flag state).
    ///
    /// `elide` is the drop-edge mutation hook: requests of that group
    /// ignore in-queue markers entirely (the backend's half of the
    /// mutation lives behind `OrderingBackend::set_elide_group`). It is
    /// `None` in every correct configuration.
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
            Some(QueueEntry::Request(p)) => {
                self.count_request(&p, false);
                p
            }
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
        q.push(req(0, 2));
        assert!(!q.has_space());
        assert!((q.fill_fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = TransQueue::new(1);
        q.push(req(0, 1));
        q.push(req(0, 2));
    }

    /// Recounts the queue's markers, per-bank requests, bank mask and
    /// execute-only requests from its entries and checks the kept counts
    /// against them, then checks `holds_request_for` against a scan for
    /// a request that fits under random command-queue room.
    fn assert_counts_match(q: &TransQueue, rng: &mut orderlight::rng::Rng) {
        let mut markers = 0;
        let mut bank_reqs = [0u32; MAX_BANKS];
        let mut exec_reqs = 0;
        for e in &q.entries {
            match e {
                QueueEntry::Marker { .. } => markers += 1,
                QueueEntry::Request(PendingReq { loc: Some(loc), .. }) => {
                    bank_reqs[loc.bank.index()] += 1;
                }
                QueueEntry::Request(PendingReq { loc: None, .. }) => exec_reqs += 1,
            }
        }
        let bank_mask = (0..MAX_BANKS).filter(|&b| bank_reqs[b] > 0).fold(0u64, |m, b| m | 1 << b);
        assert_eq!(q.markers, markers);
        assert_eq!(q.bank_reqs, bank_reqs);
        assert_eq!(q.bank_mask, bank_mask);
        assert_eq!(q.exec_reqs, exec_reqs);
        assert_eq!(
            q.first_marker_pos(),
            q.entries.iter().position(|e| matches!(e, QueueEntry::Marker { .. }))
        );
        for _ in 0..4 {
            let bank_room = rng.next_u64() & 0xffff;
            let exec_room = rng.gen_bool(1, 2);
            let fits = q.entries.iter().any(|e| match e {
                QueueEntry::Request(p) => {
                    p.loc.map_or(exec_room, |l| bank_room >> l.bank.0 & 1 != 0)
                }
                QueueEntry::Marker { .. } => false,
            });
            assert_eq!(q.holds_request_for(bank_room, exec_room), fits);
        }
    }

    #[test]
    fn kept_counts_match_a_recount_under_random_operations() {
        for seed in 0..32 {
            let mut rng = orderlight::rng::Rng::new(0x9e37_79b9 ^ seed);
            let mut q = TransQueue::new(24);
            let arena = &mut Slab::new();
            let mut number = 0;
            for step in 0..400u64 {
                match rng.gen_index(5) {
                    0 | 1 if q.has_space() => {
                        let loc = (!rng.gen_bool(1, 4)).then(|| Location {
                            channel: ChannelId(0),
                            bank: orderlight::types::BankId(rng.gen_index(16) as u8),
                            row: rng.gen_index(8) as u32,
                            col: 0,
                        });
                        q.push(QueueEntry::Request(PendingReq {
                            req: arena.insert(()),
                            pim: loc.is_none() || rng.gen_bool(1, 2),
                            meta: ReqMeta { warp: GlobalWarpId(0), seq: step },
                            loc,
                            group: MemGroupId(rng.gen_index(4) as u8),
                            arrival: step,
                        }));
                    }
                    2 if q.has_space() => {
                        number += 1;
                        let packet = OrderLightPacket::new(
                            ChannelId(0),
                            MemGroupId(rng.gen_index(4) as u8),
                            number,
                        );
                        let marker = if rng.gen_bool(1, 2) {
                            Marker::OrderLight(packet)
                        } else {
                            Marker::Release(packet)
                        };
                        let copy = diverge(marker, 2).pop().unwrap();
                        q.push(QueueEntry::Marker { copy, offered: false });
                    }
                    3 => {
                        let requests: Vec<usize> = q
                            .entries
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| matches!(e, QueueEntry::Request(_)))
                            .map(|(i, _)| i)
                            .collect();
                        if !requests.is_empty() {
                            q.remove_request(requests[rng.gen_index(requests.len())]);
                        }
                    }
                    _ => {
                        // Pop the head marker by its key, or try a key
                        // that matches nothing (which must change
                        // nothing).
                        let key = match q.first_marker_pos() {
                            Some(pos) if rng.gen_bool(3, 4) => {
                                let QueueEntry::Marker { copy, .. } = &q.entries[pos] else {
                                    unreachable!()
                                };
                                copy.marker.key()
                            }
                            _ => Marker::OrderLight(OrderLightPacket::new(
                                ChannelId(0),
                                MemGroupId(0),
                                u32::MAX,
                            ))
                            .key(),
                        };
                        q.pop_marker_by_key(&key);
                    }
                }
                assert_counts_match(&q, &mut rng);
            }
        }
    }
}
