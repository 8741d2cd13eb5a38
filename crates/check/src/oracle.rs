//! The happens-before oracle: a passive trace sink that checks every
//! controller's issue stream against the ordering its packets and
//! fences promised.
//!
//! The oracle consumes four event kinds and ignores everything else
//! (in particular the per-cycle [`TraceEvent::QueueSample`] stream,
//! which the event core legitimately elides):
//!
//! * [`TraceEvent::ReqEnqueued`] — a request entered a controller's
//!   transaction queues; it becomes *outstanding*.
//! * [`TraceEvent::PacketEnqueued`] — an OrderLight packet arrived; it
//!   raises a **barrier** snapshotting the outstanding same-group
//!   requests (the packet's *pre-set*).
//! * [`TraceEvent::ReqIssued`] — a request's column (or execute)
//!   command issued. Issuing from outside a barrier's pre-set while
//!   that pre-set is non-empty is a violated happens-before edge.
//! * [`TraceEvent::FenceAck`] — a fence acknowledgement left the
//!   controller; acking a warp that still has outstanding requests is
//!   an early (unsafe) acknowledgement.

use orderlight_trace::{TraceEvent, TraceSink};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// Retained-violation cap: everything is *counted*, but only the first
/// `MAX_RETAINED` violations keep their full records (a badly broken
/// schedule can violate millions of edges).
const MAX_RETAINED: usize = 4096;

/// A request identity: (flattened warp id, per-warp sequence number).
type Key = (u32, u64);

/// What kind of ordering promise was broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The request was enqueued after an OrderLight packet but issued
    /// while `pending` of the packet's pre-set requests were still
    /// outstanding in the packet's group.
    PacketOvertake {
        /// The overtaken packet's per-(channel, group) number.
        packet_number: u32,
        /// Memory cycle the packet arrived at the controller.
        packet_cycle: u64,
        /// Pre-set requests still outstanding at the offending issue.
        pending: usize,
    },
    /// A fence was acknowledged while its warp still had `outstanding`
    /// requests at this controller.
    EarlyFenceAck {
        /// The acknowledged fence id.
        fence_id: u64,
        /// The warp's outstanding request count at acknowledgement.
        outstanding: u64,
    },
    /// A warp's request issued with a sequence number below one the warp
    /// already issued at this controller — only checked when the
    /// per-warp sequence discipline is opted in
    /// ([`OrderingOracle::with_seq_check`], for the SeqNum backend whose
    /// promise is in-order issue rather than in-band barriers).
    SeqRegression {
        /// The highest sequence number the warp had already issued.
        prev_seq: u64,
    },
}

/// One violated ordering edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Memory cycle of the offending issue / acknowledgement.
    pub cycle: u64,
    /// Memory channel.
    pub channel: u8,
    /// Memory group.
    pub group: u8,
    /// Offending warp (flattened id).
    pub warp: u32,
    /// Offending per-warp sequence number (0 for fence violations).
    pub seq: u64,
    /// The broken promise.
    pub kind: ViolationKind,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ViolationKind::PacketOvertake { packet_number, packet_cycle, pending } => write!(
                f,
                "cycle {}: ch{} group {} warp {} seq {} overtook packet #{} \
                 (enqueued at cycle {}) with {} pre-packet request(s) still outstanding",
                self.cycle,
                self.channel,
                self.group,
                self.warp,
                self.seq,
                packet_number,
                packet_cycle,
                pending
            ),
            ViolationKind::EarlyFenceAck { fence_id, outstanding } => write!(
                f,
                "cycle {}: ch{} fence {} of warp {} acknowledged with {} request(s) outstanding",
                self.cycle, self.channel, fence_id, self.warp, outstanding
            ),
            ViolationKind::SeqRegression { prev_seq } => write!(
                f,
                "cycle {}: ch{} warp {} issued seq {} after already issuing seq {}",
                self.cycle, self.channel, self.warp, self.seq, prev_seq
            ),
        }
    }
}

/// The oracle's verdict and coverage counters after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Retained violation records (the first 4096; later ones are
    /// only counted).
    pub violations: Vec<Violation>,
    /// Total violations observed (retained or not).
    pub violations_total: u64,
    /// Requests that entered controller queues.
    pub reqs_enqueued: u64,
    /// Column / execute commands issued.
    pub reqs_issued: u64,
    /// OrderLight packets observed.
    pub packets: u64,
    /// Barriers that imposed at least one edge (non-empty pre-set).
    pub barriers_raised: u64,
    /// Fence acknowledgements observed.
    pub fence_acks: u64,
}

impl CheckReport {
    /// Whether no ordering edge was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} violation(s) over {} requests, {} packets ({} binding), {} fence acks",
            self.violations_total,
            self.reqs_enqueued,
            self.packets,
            self.barriers_raised,
            self.fence_acks
        )
    }
}

/// A raised barrier: the packet identity and its pre-set.
#[derive(Debug)]
struct Barrier {
    number: u32,
    cycle: u64,
    pre: HashSet<Key>,
}

/// Per-(channel, group) ordering state.
#[derive(Debug, Default)]
struct GroupState {
    outstanding: HashSet<Key>,
    barriers: VecDeque<Barrier>,
}

/// Per-channel oracle state.
#[derive(Debug, Default)]
struct ChannelState {
    groups: HashMap<u8, GroupState>,
    warp_outstanding: HashMap<u32, u64>,
    /// Highest sequence number each warp has issued (seq-check mode).
    warp_last_seq: HashMap<u32, u64>,
}

#[derive(Debug, Default)]
struct OracleState {
    channels: HashMap<u8, ChannelState>,
    report: CheckReport,
    /// Opt-in per-warp issue-order discipline (the SeqNum backend's
    /// promise). Off by default: no other backend orders across an
    /// entire warp's stream.
    seq_check: bool,
}

impl OracleState {
    fn record(&mut self, v: Violation) {
        self.report.violations_total += 1;
        if self.report.violations.len() < MAX_RETAINED {
            self.report.violations.push(v);
        }
    }

    fn on_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::ReqEnqueued { channel, group, warp, seq, .. } => {
                self.report.reqs_enqueued += 1;
                let ch = self.channels.entry(channel).or_default();
                ch.groups.entry(group).or_default().outstanding.insert((warp, seq));
                *ch.warp_outstanding.entry(warp).or_default() += 1;
            }
            TraceEvent::PacketEnqueued { cycle, channel, group, number } => {
                self.report.packets += 1;
                let gs = self.channels.entry(channel).or_default().groups.entry(group).or_default();
                // An empty pre-set imposes no edge; skip the barrier.
                if !gs.outstanding.is_empty() {
                    self.report.barriers_raised += 1;
                    gs.barriers.push_back(Barrier { number, cycle, pre: gs.outstanding.clone() });
                }
            }
            TraceEvent::ReqIssued { cycle, channel, group, warp, seq } => {
                self.report.reqs_issued += 1;
                let seq_check = self.seq_check;
                let ch = self.channels.entry(channel).or_default();
                let key = (warp, seq);
                let mut violations = Vec::new();
                if seq_check {
                    let last = ch.warp_last_seq.entry(warp).or_default();
                    if seq < *last {
                        violations.push(Violation {
                            cycle,
                            channel,
                            group,
                            warp,
                            seq,
                            kind: ViolationKind::SeqRegression { prev_seq: *last },
                        });
                    }
                    *last = (*last).max(seq);
                }
                let gs = ch.groups.entry(group).or_default();
                for barrier in &mut gs.barriers {
                    if !barrier.pre.remove(&key) && !barrier.pre.is_empty() {
                        violations.push(Violation {
                            cycle,
                            channel,
                            group,
                            warp,
                            seq,
                            kind: ViolationKind::PacketOvertake {
                                packet_number: barrier.number,
                                packet_cycle: barrier.cycle,
                                pending: barrier.pre.len(),
                            },
                        });
                    }
                }
                while gs.barriers.front().is_some_and(|b| b.pre.is_empty()) {
                    gs.barriers.pop_front();
                }
                gs.outstanding.remove(&key);
                if let Some(n) = ch.warp_outstanding.get_mut(&warp) {
                    *n = n.saturating_sub(1);
                }
                for v in violations {
                    self.record(v);
                }
            }
            TraceEvent::FenceAck { cycle, channel, warp, fence_id } => {
                self.report.fence_acks += 1;
                let outstanding = self
                    .channels
                    .entry(channel)
                    .or_default()
                    .warp_outstanding
                    .get(&warp)
                    .copied()
                    .unwrap_or(0);
                if outstanding > 0 {
                    self.record(Violation {
                        cycle,
                        channel,
                        group: 0,
                        warp,
                        seq: 0,
                        kind: ViolationKind::EarlyFenceAck { fence_id, outstanding },
                    });
                }
            }
            _ => {}
        }
    }
}

/// The runtime ordering-violation oracle. Attach with
/// [`orderlight_sim::System::attach_observer`] (works under both
/// execution cores) or [`orderlight_sim::System::attach_sink`]; read
/// the verdict with [`OrderingOracle::report`] after the run.
#[derive(Debug, Default)]
pub struct OrderingOracle {
    state: Mutex<OracleState>,
}

impl OrderingOracle {
    /// A fresh oracle with no observations.
    #[must_use]
    pub fn new() -> OrderingOracle {
        OrderingOracle::default()
    }

    /// A fresh oracle that additionally checks per-warp issue order
    /// (sequence numbers must be non-decreasing per warp and channel).
    /// This is the promise of the SeqNum backend, which emits no in-band
    /// packets for the barrier machinery to check.
    #[must_use]
    pub fn with_seq_check() -> OrderingOracle {
        let o = OrderingOracle::default();
        o.state.lock().expect("oracle poisoned").seq_check = true;
        o
    }

    /// A snapshot of the verdict so far (cheap after a run; clones the
    /// retained violations).
    #[must_use]
    pub fn report(&self) -> CheckReport {
        self.state.lock().expect("oracle poisoned").report.clone()
    }
}

impl TraceSink for OrderingOracle {
    fn emit(&self, event: TraceEvent) {
        self.state.lock().expect("oracle poisoned").on_event(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enq(channel: u8, group: u8, warp: u32, seq: u64, cycle: u64) -> TraceEvent {
        TraceEvent::ReqEnqueued { cycle, channel, group, warp, seq }
    }

    fn iss(channel: u8, group: u8, warp: u32, seq: u64, cycle: u64) -> TraceEvent {
        TraceEvent::ReqIssued { cycle, channel, group, warp, seq }
    }

    fn pkt(channel: u8, group: u8, number: u32, cycle: u64) -> TraceEvent {
        TraceEvent::PacketEnqueued { cycle, channel, group, number }
    }

    #[test]
    fn ordered_stream_is_clean() {
        let o = OrderingOracle::new();
        o.emit(enq(0, 0, 1, 1, 10));
        o.emit(pkt(0, 0, 1, 11));
        o.emit(enq(0, 0, 1, 2, 12));
        o.emit(iss(0, 0, 1, 1, 20)); // pre-set drains first
        o.emit(iss(0, 0, 1, 2, 30));
        let r = o.report();
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.barriers_raised, 1);
        assert_eq!((r.reqs_enqueued, r.reqs_issued, r.packets), (2, 2, 1));
    }

    #[test]
    fn overtake_is_flagged_once_per_broken_edge() {
        let o = OrderingOracle::new();
        o.emit(enq(0, 0, 1, 1, 10));
        o.emit(pkt(0, 0, 1, 11));
        o.emit(enq(0, 0, 1, 2, 12));
        o.emit(iss(0, 0, 1, 2, 20)); // post-packet request overtakes
        o.emit(iss(0, 0, 1, 1, 30));
        let r = o.report();
        assert_eq!(r.violations_total, 1);
        let v = r.violations[0];
        assert_eq!((v.warp, v.seq, v.cycle), (1, 2, 20));
        assert!(matches!(
            v.kind,
            ViolationKind::PacketOvertake { packet_number: 1, packet_cycle: 11, pending: 1 }
        ));
    }

    #[test]
    fn packets_do_not_constrain_other_groups_or_channels() {
        let o = OrderingOracle::new();
        o.emit(enq(0, 0, 1, 1, 10));
        o.emit(pkt(0, 0, 1, 11));
        // Same channel, different group; different channel, same group.
        o.emit(enq(0, 1, 2, 1, 12));
        o.emit(iss(0, 1, 2, 1, 13));
        o.emit(enq(1, 0, 3, 1, 12));
        o.emit(iss(1, 0, 3, 1, 13));
        o.emit(iss(0, 0, 1, 1, 30));
        assert!(o.report().is_clean());
    }

    #[test]
    fn empty_pre_set_raises_no_barrier() {
        let o = OrderingOracle::new();
        o.emit(pkt(0, 0, 1, 5));
        o.emit(enq(0, 0, 1, 1, 10));
        o.emit(iss(0, 0, 1, 1, 11));
        let r = o.report();
        assert!(r.is_clean());
        assert_eq!(r.packets, 1);
        assert_eq!(r.barriers_raised, 0);
    }

    #[test]
    fn stacked_barriers_each_enforce_their_own_pre_set() {
        let o = OrderingOracle::new();
        o.emit(enq(0, 0, 1, 1, 1));
        o.emit(pkt(0, 0, 1, 2));
        o.emit(enq(0, 0, 1, 2, 3));
        o.emit(pkt(0, 0, 2, 4));
        o.emit(enq(0, 0, 1, 3, 5));
        // seq 3 jumps both packets: one violation per broken barrier.
        o.emit(iss(0, 0, 1, 3, 6));
        assert_eq!(o.report().violations_total, 2);
    }

    #[test]
    fn early_fence_ack_is_flagged() {
        let o = OrderingOracle::new();
        o.emit(enq(0, 0, 7, 1, 10));
        o.emit(TraceEvent::FenceAck { cycle: 11, channel: 0, warp: 7, fence_id: 3 });
        let r = o.report();
        assert_eq!(r.violations_total, 1);
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::EarlyFenceAck { fence_id: 3, outstanding: 1 }
        ));
        // After the request completes, an ack for the same warp is fine.
        o.emit(iss(0, 0, 7, 1, 12));
        o.emit(TraceEvent::FenceAck { cycle: 13, channel: 0, warp: 7, fence_id: 4 });
        assert_eq!(o.report().violations_total, 1);
    }

    #[test]
    fn ignores_unrelated_events() {
        let o = OrderingOracle::new();
        o.emit(TraceEvent::QueueSample { cycle: 1, channel: 0, read_q: 3, write_q: 1 });
        o.emit(TraceEvent::WarpRetire { cycle: 2, sm: 0, warp: 0 });
        let r = o.report();
        assert!(r.is_clean());
        assert_eq!(r.reqs_enqueued, 0);
    }

    #[test]
    fn violation_display_names_the_edge() {
        let v = Violation {
            cycle: 20,
            channel: 3,
            group: 1,
            warp: 4,
            seq: 9,
            kind: ViolationKind::PacketOvertake { packet_number: 2, packet_cycle: 11, pending: 5 },
        };
        let s = v.to_string();
        assert!(s.contains("ch3") && s.contains("packet #2") && s.contains("5 pre-packet"));
    }
}
