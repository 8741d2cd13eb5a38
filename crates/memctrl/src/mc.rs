//! The memory controller proper: ingress, FR-FCFS scheduler, per-bank
//! command queues, DRAM command issue, and the PIM unit hookup.

use crate::ordering::{FenceTracker, MarkerAction, OrderingBackend, OrderingKind, MAX_GROUPS};
use crate::queues::{PendingReq, QueueEntry, TransQueue, MAX_BANKS};
use crate::txn::{Transaction, TxnKind};
use orderlight::fsm::{diverge, MergeFsm};
use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::message::{Marker, MarkerKey, MemReq, MemResp};
use orderlight::packet::OrderLightPacket;
use orderlight::rng::Rng;
use orderlight::slab::Slab;
use orderlight::types::{BankId, GlobalWarpId, MemCycle, MemGroupId};
use orderlight::{NextEvent, PimOp};
use orderlight_hbm::{Channel, ColKind, DramCommand, NeededCommand};
use orderlight_pim::PimUnit;
use orderlight_trace::{sink::nop_sink, DramCmdKind, SchedSide, SharedSink, TraceEvent};
use std::collections::VecDeque;

/// Memory cycles between [`TraceEvent::QueueSample`] emissions. The
/// dense tick samples at every multiple of this stride, and
/// [`MemoryController::skip_ticks`] synthesizes the same samples
/// closed-form across skipped windows, so the sample stream is
/// byte-identical under both cores. (The NoC pipe uses the same stride
/// value in *core* cycles for its `PipeSample` stream.)
const SAMPLE_STRIDE: u64 = 64;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Leave rows open until a conflicting access needs the bank
    /// (default; rewards streaming locality).
    Open,
    /// Precharge a bank as soon as no queued transaction wants its open
    /// row (hides the precharge latency of the next conflict; rewards
    /// irregular access patterns).
    Closed,
}

/// One issued command, recorded when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueRecord {
    /// Memory cycle the command issued.
    pub cycle: MemCycle,
    /// Human-readable command (e.g. `ACT b0 r3`, `RD b0`,
    /// `EXEC scale[3]`).
    pub what: String,
    /// Issuing warp for column/execute commands.
    pub warp: Option<GlobalWarpId>,
    /// Per-warp request sequence number, when applicable.
    pub seq: Option<u64>,
}

/// Memory-controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Address interleaving scheme.
    pub mapping: AddressMapping,
    /// Bank-to-memory-group map (for classifying host requests).
    pub groups: GroupMap,
    /// Read/write transaction queue capacity (Table 1: 64).
    pub queue_capacity: usize,
    /// Per-bank command queue capacity.
    pub bank_queue_capacity: usize,
    /// Execute-only PIM command queue capacity.
    pub exec_queue_capacity: usize,
    /// Transactions dequeued into command queues per memory cycle.
    pub dequeues_per_cycle: usize,
    /// How many eligible entries the FR-FCFS scan inspects.
    pub scan_depth: usize,
    /// Write-queue fill fraction that starts a write drain.
    pub write_drain_high: f64,
    /// Write-queue fill fraction that ends a write drain.
    pub write_drain_low: f64,
    /// Record every issued command in an [`IssueRecord`] trace
    /// (diagnostics / visualisation; off by default).
    pub trace: bool,
    /// Which [`OrderingBackend`] this controller enforces (default:
    /// OrderLight group barriers). The controller answers fence probes
    /// under every backend, so the choice only matters for traffic that
    /// actually exercises the ordering primitive.
    pub ordering: OrderingKind,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            mapping: AddressMapping::hbm_default(),
            groups: GroupMap::default(),
            queue_capacity: 64,
            bank_queue_capacity: 4,
            exec_queue_capacity: 16,
            dequeues_per_cycle: 2,
            scan_depth: 16,
            write_drain_high: 0.75,
            write_drain_low: 0.25,
            trace: false,
            ordering: OrderingKind::OrderLight,
            page_policy: PagePolicy::Open,
        }
    }
}

/// Controller activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct McStats {
    /// PIM commands issued (DRAM-accessing plus execute-only).
    pub pim_commands: u64,
    /// Row activations issued.
    pub activates: u64,
    /// Precharges issued.
    pub precharges: u64,
    /// Column reads issued.
    pub col_reads: u64,
    /// Column writes issued.
    pub col_writes: u64,
    /// Execute-only PIM commands issued.
    pub exec_commands: u64,
    /// Host reads serviced.
    pub host_reads: u64,
    /// Host writes serviced.
    pub host_writes: u64,
    /// Fence acknowledgements generated.
    pub fence_acks: u64,
    /// OrderLight packets merged at the scheduler.
    pub ol_packets: u64,
    /// Sanity violations observed: merged packet numbers that do not
    /// rise per group, plus the backend's own (out-of-order retires).
    pub sanity_violations: u64,
    /// Memory cycle of the last issued command (busy-window end).
    pub last_issue_cycle: MemCycle,
    /// Sum of host-read service latencies in memory cycles (arrival at the
    /// controller to column issue), for mean-latency reporting.
    pub host_read_latency_sum: u64,
}

/// Which transaction queue a scheduling decision refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Read,
    Write,
}

/// The banks whose head transaction can issue one kind of DRAM command
/// this cycle.
#[derive(Debug, Default, Clone, Copy)]
struct ReadyBanks {
    /// The head with the oldest arrival, the lowest bank on ties.
    oldest: Option<(u64, BankId)>,
    /// Every such bank, one bit each (the adversary picks among these).
    banks: u64,
}

impl ReadyBanks {
    fn add(&mut self, arrival: u64, bank: BankId) {
        self.banks |= 1 << bank.0;
        if self.oldest.is_none_or(|(a, _)| arrival < a) {
            self.oldest = Some((arrival, bank));
        }
    }
}

/// One memory channel's controller with its DRAM channel and PIM unit.
///
/// # Example
///
/// Drive one load / add / store chain through the controller by hand.
/// Without ordering packets the FR-FCFS scheduler is free to issue the
/// store before the execute-only add (and really does) — so the chain
/// is separated by OrderLight packets, exactly as a PIM kernel would:
///
/// ```
/// use orderlight::message::{Marker, MarkerCopy, MemReq, ReqMeta};
/// use orderlight::packet::OrderLightPacket;
/// use orderlight::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, Stripe, TsSlot};
/// use orderlight::{AluOp, PimInstruction, PimOp};
/// use orderlight_hbm::{Channel, TimingParams};
/// use orderlight_memctrl::{McConfig, MemoryController};
/// use orderlight_pim::{PimUnit, TsSize};
///
/// let cfg = McConfig::default();
/// let mapping = cfg.mapping.clone();
/// let mut mc = MemoryController::new(
///     cfg,
///     Channel::new(TimingParams::hbm_table1(), 16, 2048),
///     PimUnit::new(TsSize::Eighth, 2048, 16),
/// );
/// // Seed DRAM, then load + add + store through the PIM unit.
/// let loc = mapping.decode(Addr(0));
/// mc.channel_mut().store_mut().write(loc.bank, loc.row, loc.col, Stripe::splat(40));
/// let pim = |op, seq| MemReq::Pim {
///     instr: PimInstruction { op, addr: Addr(0), slot: TsSlot(0), group: MemGroupId(0) },
///     meta: ReqMeta { warp: GlobalWarpId::new(0, 0), seq },
/// };
/// let packet = |number| MemReq::Marker(MarkerCopy {
///     marker: Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), number)),
///     total_copies: 1,
/// });
/// mc.push(pim(PimOp::Load, 0));
/// mc.push(packet(1));
/// mc.push(pim(PimOp::Compute(AluOp::AddImm(2)), 1));
/// mc.push(packet(2));
/// mc.push(pim(PimOp::Store, 2));
/// let (mut now, mut resps) = (0, Vec::new());
/// while !mc.is_idle() {
///     mc.tick(now, &mut resps);
///     now += 1;
/// }
/// assert_eq!(mc.channel().store().read(loc.bank, loc.row, loc.col), Stripe::splat(42));
/// ```
pub struct MemoryController {
    cfg: McConfig,
    channel: Channel,
    pim: PimUnit,
    read_q: TransQueue,
    write_q: TransQueue,
    /// Bodies of the requests queued in `read_q`/`write_q`. Queue
    /// entries carry [`orderlight::slab::SlabRef`] handles plus the
    /// denormalized fields the scheduler scans; a body is inserted at
    /// ingress and removed exactly once, at dequeue.
    arena: Slab<MemReq>,
    bank_q: Vec<VecDeque<Transaction>>,
    /// Total transactions across all of `bank_q` — kept so the idle
    /// check the event core's horizon makes every hop is O(1), not a
    /// scan over every bank's queue.
    bank_queued: usize,
    /// Banks whose command queue has room for another transaction, and
    /// banks whose command queue is non-empty, one bit each. Kept state
    /// (DESIGN.md, "Kept state"): only [`push_bank`](Self::push_bank)
    /// and [`pop_bank`](Self::pop_bank) change a bank queue's length,
    /// and they update both masks.
    room: u64,
    busy: u64,
    exec_q: VecDeque<Transaction>,
    backend: Box<dyn OrderingBackend>,
    /// Answers fence probes, whatever the backend (paper Section 6).
    fences: FenceTracker,
    /// Merges a marker's read/write copies at the scheduler stage
    /// (paper Figure 9) before the backend sees it.
    merge: MergeFsm,
    /// Number of the last merged marker per group, for the
    /// monotonicity sanity check.
    last_number: [Option<u32>; MAX_GROUPS],
    /// The drop-edge mutation's group: queued markers stop constraining
    /// it in the transaction-queue scan. `None` in every normal run.
    elide: Option<MemGroupId>,
    arrival_cycle: MemCycle,
    draining_writes: bool,
    out: Vec<MemResp>,
    stats: McStats,
    trace: Vec<IssueRecord>,
    sink: SharedSink,
    /// `sink.is_enabled()`, read once in [`set_sink`](Self::set_sink).
    traced: bool,
    channel_id: u8,
    /// Fault injection: adversarial scheduler tie-breaks. When set, the
    /// FR-FCFS pick chooses uniformly among *eligible* candidates
    /// instead of preferring row hits / oldest arrivals — a legal but
    /// hostile schedule.
    adversary: Option<Rng>,
}

impl MemoryController {
    /// Creates a controller around `channel` and `pim`.
    ///
    /// # Panics
    /// Panics if the channel has more than [`MAX_BANKS`] banks.
    #[must_use]
    pub fn new(cfg: McConfig, channel: Channel, pim: PimUnit) -> Self {
        let banks = channel.num_banks();
        assert!(banks <= MAX_BANKS, "{banks} banks exceed the controller's {MAX_BANKS}-bank masks");
        MemoryController {
            read_q: TransQueue::new(cfg.queue_capacity),
            write_q: TransQueue::new(cfg.queue_capacity),
            arena: Slab::with_capacity(2 * cfg.queue_capacity),
            bank_q: (0..banks).map(|_| VecDeque::new()).collect(),
            bank_queued: 0,
            // One bit per bank; a channel has 1..=MAX_BANKS banks.
            room: if cfg.bank_queue_capacity > 0 { u64::MAX >> (64 - banks) } else { 0 },
            busy: 0,
            exec_q: VecDeque::new(),
            backend: cfg.ordering.build(),
            fences: FenceTracker::default(),
            merge: MergeFsm::new(),
            last_number: [None; MAX_GROUPS],
            elide: None,
            arrival_cycle: 0,
            draining_writes: false,
            out: Vec::new(),
            stats: McStats::default(),
            trace: Vec::new(),
            sink: nop_sink(),
            traced: false,
            channel_id: 0,
            adversary: None,
            cfg,
            channel,
            pim,
        }
    }

    /// Enables adversarial scheduler tie-breaks seeded with `seed`.
    ///
    /// Every pick still honours all correctness constraints (ordering
    /// barriers, sequence-number order, queue capacities, DRAM timing) —
    /// only the *preference* among eligible candidates is randomized, so
    /// functional results must be unchanged on a correct controller.
    pub fn set_adversary(&mut self, seed: u64) {
        self.adversary = Some(Rng::new(seed));
    }

    /// Activates the drop-one-ordering-edge mutation for `group` (see
    /// [`OrderingBackend::set_elide_group`]). Under the fence baseline,
    /// whose only edge is a probe's wait, probes are acknowledged early
    /// instead. The resulting schedule is *incorrect by construction* —
    /// this exists only so the ordering-violation oracle can be proven
    /// to fire.
    pub fn set_elide_group(&mut self, group: MemGroupId) {
        self.elide = Some(group);
        if self.cfg.ordering == OrderingKind::Fence {
            self.fences.arm_early_ack();
        }
        self.backend.set_elide_group(group);
    }

    /// Ordering edges dropped by the elide mutation so far.
    #[must_use]
    pub fn ordering_edges_dropped(&self) -> u64 {
        self.backend.edges_dropped() + self.fences.edges_dropped()
    }

    /// The issue trace (empty unless [`McConfig::trace`] is set).
    #[must_use]
    pub fn trace(&self) -> &[IssueRecord] {
        &self.trace
    }

    /// Attaches a trace sink, tagging this controller's events with
    /// `channel`. The sink is forwarded to the DRAM channel so per-bank
    /// commands are captured too. Sinks only observe; behaviour is
    /// unchanged.
    pub fn set_sink(&mut self, sink: SharedSink, channel: u8) {
        self.channel.set_sink(sink.clone(), channel);
        self.traced = sink.is_enabled();
        self.sink = sink;
        self.channel_id = channel;
    }

    /// Appends an issue record when tracing is on; `what` is only
    /// formatted then, so an untraced run builds no strings.
    fn record(
        &mut self,
        cycle: MemCycle,
        what: impl FnOnce() -> String,
        warp: Option<GlobalWarpId>,
        seq: Option<u64>,
    ) {
        if self.cfg.trace {
            self.trace.push(IssueRecord { cycle, what: what(), warp, seq });
        }
    }

    /// Whether `req` can be accepted this cycle (backpressure point for
    /// the memory pipe).
    #[must_use]
    pub fn can_accept(&self, req: &MemReq) -> bool {
        match req {
            MemReq::Marker(copy) => match copy.marker {
                // In-band ordering markers are copied into both queues.
                Marker::OrderLight(_) | Marker::Release(_) => {
                    self.read_q.has_space() && self.write_q.has_space()
                }
                // Fence probes are consumed at ingress.
                Marker::FenceProbe { .. } => true,
            },
            r if r.is_write_like() => self.write_q.has_space(),
            _ => self.read_q.has_space(),
        }
    }

    /// Accepts one request from the memory pipe.
    ///
    /// # Panics
    /// Panics if called while [`can_accept`](Self::can_accept) is false.
    pub fn push(&mut self, req: MemReq) {
        assert!(self.can_accept(&req), "push without backpressure check");
        match req {
            MemReq::Marker(copy) => match copy.marker {
                Marker::OrderLight(ref packet) | Marker::Release(ref packet) => {
                    if self.traced {
                        self.sink.emit(TraceEvent::PacketEnqueued {
                            cycle: self.arrival_cycle,
                            channel: self.channel_id,
                            group: packet.group().0,
                            number: packet.number(),
                        });
                    }
                    // Ingress hook first (e.g. Louvre snapshots its drain
                    // targets here, matching the oracle's pre-set), then
                    // divergence point #2: separate read/write queues.
                    self.backend.on_marker_ingress(&copy);
                    let mut copies = diverge(copy.marker, 2);
                    self.write_q.push(QueueEntry::Marker {
                        copy: copies.pop().expect("two copies"),
                        offered: false,
                    });
                    self.read_q.push(QueueEntry::Marker {
                        copy: copies.pop().expect("two copies"),
                        offered: false,
                    });
                }
                Marker::FenceProbe { warp, fence_id, .. } => {
                    if self.fences.on_probe(warp, fence_id) {
                        self.ack_fence(warp, fence_id, self.arrival_cycle);
                    }
                }
            },
            req => {
                let meta = req.meta().expect("non-marker requests carry metadata");
                let (loc, group) = match &req {
                    MemReq::Pim { instr, .. } => {
                        let loc =
                            instr.op.accesses_dram().then(|| self.cfg.mapping.decode(instr.addr));
                        (loc, instr.group)
                    }
                    MemReq::HostRead { addr, .. } | MemReq::HostWrite { addr, .. } => {
                        let loc = self.cfg.mapping.decode(*addr);
                        (Some(loc), self.cfg.groups.group_of(loc.bank))
                    }
                    MemReq::Marker(_) => unreachable!("handled above"),
                };
                let pim = req.is_pim();
                let write_like = req.is_write_like();
                self.fences.on_arrival(meta.warp);
                // A controller-enforced backend may raise a synthetic
                // barrier here (e.g. a bulk-bitwise epoch flip). It is
                // recorded *before* this request's own enqueue event so
                // the oracle's pre-set covers exactly the older requests.
                if let Some(number) = self.backend.on_arrival(meta, group, write_like) {
                    if self.traced {
                        self.sink.emit(TraceEvent::PacketEnqueued {
                            cycle: self.arrival_cycle,
                            channel: self.channel_id,
                            group: group.0,
                            number,
                        });
                    }
                }
                if self.traced {
                    self.sink.emit(TraceEvent::ReqEnqueued {
                        cycle: self.arrival_cycle,
                        channel: self.channel_id,
                        group: group.0,
                        warp: meta.warp.0,
                        seq: meta.seq,
                    });
                }
                let entry = QueueEntry::Request(PendingReq {
                    req: self.arena.insert(req),
                    pim,
                    meta,
                    loc,
                    group,
                    arrival: self.arrival_cycle,
                });
                if write_like {
                    self.write_q.push(entry);
                } else {
                    self.read_q.push(entry);
                }
            }
        }
    }

    /// The row a bank will be presenting once its queued work completes:
    /// the row of the last queued transaction, else the open row.
    fn effective_row(&self, bank: BankId) -> Option<u32> {
        self.bank_q[bank.index()]
            .back()
            .map(|t| t.loc.row)
            .or_else(|| self.channel.bank(bank).open_row())
    }

    /// Appends `txn` to its bank's command queue.
    fn push_bank(&mut self, txn: Transaction) {
        let b = txn.loc.bank.index();
        self.bank_q[b].push_back(txn);
        self.bank_queued += 1;
        self.busy |= 1 << b;
        if self.bank_q[b].len() >= self.cfg.bank_queue_capacity {
            self.room &= !(1 << b);
        }
    }

    /// Pops the head of `bank`'s command queue.
    ///
    /// # Panics
    /// Panics if the queue is empty.
    fn pop_bank(&mut self, bank: BankId) -> Transaction {
        let b = bank.index();
        let txn = self.bank_q[b].pop_front().expect("head exists");
        self.bank_queued -= 1;
        if self.bank_q[b].is_empty() {
            self.busy &= !(1 << b);
        }
        if self.bank_q[b].len() < self.cfg.bank_queue_capacity {
            self.room |= 1 << b;
        }
        txn
    }

    fn is_row_hit(&self, p: &PendingReq) -> bool {
        p.loc.is_some_and(|loc| self.effective_row(loc.bank) == Some(loc.row))
    }

    fn queue(&self, side: Side) -> &TransQueue {
        match side {
            Side::Read => &self.read_q,
            Side::Write => &self.write_q,
        }
    }

    fn queue_mut(&mut self, side: Side) -> &mut TransQueue {
        match side {
            Side::Read => &mut self.read_q,
            Side::Write => &mut self.write_q,
        }
    }

    /// FR-FCFS pick: preferred queue first (write-drain hysteresis), row
    /// hits over row misses, oldest first within each class. With an
    /// adversary attached, the pick within the preferred queue is instead
    /// uniform among all eligible candidates (still constraint-legal).
    fn pick_dequeue(&mut self) -> Option<(Side, usize)> {
        let order = if self.draining_writes {
            [Side::Write, Side::Read]
        } else {
            [Side::Read, Side::Write]
        };
        let adversarial = self.adversary.is_some();
        let bank_room = self.room;
        let exec_room = self.exec_q.len() < self.cfg.exec_queue_capacity;
        let fits = |p: &PendingReq| match p.loc {
            Some(loc) => bank_room >> loc.bank.0 & 1 != 0,
            None => exec_room,
        };
        for side in order {
            let q = self.queue(side);
            // A queue with no request that fits a command queue cannot
            // yield a candidate, and a scan that finds none draws nothing
            // from the adversary, so skipping it changes nothing.
            if !q.holds_request_for(bank_room, exec_room) {
                continue;
            }
            let mut first_fit = None;
            let mut row_hit = None;
            let mut candidates: Vec<usize> = Vec::new();
            for (i, p) in
                q.eligible(|g| self.backend.group_blocked(g), self.elide, self.cfg.scan_depth)
            {
                if !fits(p) {
                    continue;
                }
                if !self.backend.dequeue_allowed(p) {
                    continue;
                }
                if first_fit.is_none() {
                    first_fit = Some(i);
                }
                if row_hit.is_none() && self.is_row_hit(p) {
                    row_hit = Some(i);
                    if !adversarial {
                        break;
                    }
                }
                if adversarial {
                    candidates.push(i);
                }
            }
            if let Some(rng) = self.adversary.as_mut() {
                if !candidates.is_empty() {
                    return Some((side, candidates[rng.gen_index(candidates.len())]));
                }
            } else if let Some(i) = row_hit.or(first_fit) {
                return Some((side, i));
            }
        }
        None
    }

    /// Completes a marker merge: records the [`TraceEvent::PacketMerged`]
    /// event and pops the marker's copies from both transaction queues.
    fn finish_merge(&mut self, key: &MarkerKey, packet: &OrderLightPacket) {
        if self.traced {
            self.sink.emit(TraceEvent::PacketMerged {
                cycle: self.arrival_cycle,
                channel: self.channel_id,
                group: packet.group().0,
                number: packet.number(),
            });
        }
        for side in [Side::Read, Side::Write] {
            let popped = self.queue_mut(side).pop_marker_by_key(key);
            debug_assert!(popped, "merged copy must head each queue");
        }
    }

    /// Offers ready marker copies to the convergence FSM.
    ///
    /// A copy is *offered* as soon as no constrained request remains
    /// ahead of it in its own queue, but it stays in place — still
    /// blocking its sub-path — until every sibling copy has been offered
    /// and the merge fires (paper Figure 9). The merged packet's number
    /// is sanity-checked, and then the backend decides: merge now, and
    /// all copies are removed, or *hold* (Louvre's versioned release),
    /// and the copies stay queued, still blocking, until
    /// [`OrderingBackend::take_released`] reports the drain condition met.
    fn consume_markers(&mut self) {
        while let Some((key, packet)) = self.backend.take_released() {
            self.finish_merge(&key, &packet);
        }
        loop {
            let mut progress = false;
            for side in [Side::Read, Side::Write] {
                let Some(copy) = self.queue(side).ready_unoffered_marker().cloned() else {
                    continue;
                };
                self.queue_mut(side).mark_first_marker_offered();
                progress = true;
                let Some(merged) = self.merge.on_copy(&copy) else { continue };
                let (Marker::OrderLight(packet) | Marker::Release(packet)) = merged else {
                    unreachable!("fence probes are answered at ingress, never queued");
                };
                self.stats.ol_packets += 1;
                for group in packet.groups() {
                    let last = self.last_number[group.index()].replace(packet.number());
                    if last.is_some_and(|last| packet.number() <= last) {
                        self.stats.sanity_violations += 1;
                    }
                }
                let key = copy.marker.key();
                if self.backend.on_merged(key, &packet) == MarkerAction::Merge {
                    self.finish_merge(&key, &packet);
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Moves eligible transactions from the R/W queues into the per-bank
    /// (or execute) command queues.
    fn dequeue_phase(&mut self) {
        // Write-drain hysteresis.
        if self.write_q.fill_fraction() >= self.cfg.write_drain_high {
            self.draining_writes = true;
        } else if self.write_q.fill_fraction() <= self.cfg.write_drain_low {
            self.draining_writes = false;
        }
        for _ in 0..self.cfg.dequeues_per_cycle {
            let Some((side, index)) = self.pick_dequeue() else { break };
            let p = self.queue_mut(side).remove_request(index);
            if self.traced {
                self.sink.emit(TraceEvent::SchedDecision {
                    cycle: self.arrival_cycle,
                    channel: self.channel_id,
                    side: match side {
                        Side::Read => SchedSide::Read,
                        Side::Write => SchedSide::Write,
                    },
                    bank: p.loc.map_or(0xff, |l| l.bank.0),
                    row_hit: self.is_row_hit(&p),
                });
            }
            self.backend.on_dequeue(&p);
            let meta = p.meta;
            if self.traced {
                self.sink.emit(TraceEvent::ReqDequeued {
                    cycle: self.arrival_cycle,
                    channel: self.channel_id,
                    group: p.group.0,
                    warp: meta.warp.0,
                    seq: meta.seq,
                    bank: p.loc.map_or(0xff, |l| l.bank.0),
                    waited: self.arrival_cycle.saturating_sub(p.arrival),
                });
            }
            let kind = match self.arena.remove(p.req) {
                MemReq::Pim { instr, .. } => TxnKind::Pim(instr),
                MemReq::HostRead { reg, .. } => TxnKind::HostRead { reg },
                MemReq::HostWrite { data, .. } => TxnKind::HostWrite { data },
                MemReq::Marker(_) => unreachable!("markers never dequeue as requests"),
            };
            match p.loc {
                Some(loc) => {
                    let txn = Transaction { kind, loc, group: p.group, meta, arrival: p.arrival };
                    self.push_bank(txn);
                }
                None => {
                    // Execute-only PIM command: no DRAM access. `loc` is a
                    // placeholder; only `kind`/`group`/`meta` matter.
                    let loc = self.cfg.mapping.decode(orderlight::types::Addr(0));
                    let txn = Transaction { kind, loc, group: p.group, meta, arrival: p.arrival };
                    self.exec_q.push_back(txn);
                }
            }
        }
    }

    /// Completes a transaction whose column command just issued (or whose
    /// execute command was sent to the PIM unit).
    fn complete(&mut self, txn: Transaction, now: MemCycle) {
        let bank = txn.loc.bank;
        let col = txn.loc.col;
        self.record(
            now,
            || match &txn.kind {
                TxnKind::Pim(instr) => format!("{}", instr),
                TxnKind::HostRead { .. } => format!("HOST_RD b{}", bank.0),
                TxnKind::HostWrite { .. } => format!("HOST_WR b{}", bank.0),
            },
            Some(txn.meta.warp),
            Some(txn.meta.seq),
        );
        match txn.kind {
            TxnKind::Pim(instr) => {
                self.stats.pim_commands += 1;
                match instr.op {
                    PimOp::Load | PimOp::Compute(_) if instr.op.accesses_dram() => {
                        let stripe = self.channel.read_open_row(bank, col);
                        self.pim.apply(instr.op, instr.slot, Some(stripe));
                        self.stats.col_reads += 1;
                    }
                    PimOp::Store => {
                        let data = self
                            .pim
                            .apply(PimOp::Store, instr.slot, None)
                            .expect("store returns data");
                        self.channel.write_open_row(bank, col, data);
                        self.stats.col_writes += 1;
                    }
                    op => {
                        // Execute-only (no DRAM access).
                        self.pim.apply(op, instr.slot, None);
                        self.stats.exec_commands += 1;
                        if self.traced {
                            self.sink.emit(TraceEvent::DramCmd {
                                cycle: now,
                                channel: self.channel_id,
                                bank: 0xff,
                                kind: DramCmdKind::Exec,
                                row: u32::MAX,
                            });
                        }
                    }
                }
            }
            TxnKind::HostRead { reg } => {
                let data = self.channel.read_open_row(bank, col);
                self.out.push(MemResp::LoadData { warp: txn.meta.warp, reg, data });
                self.stats.host_reads += 1;
                self.stats.col_reads += 1;
                self.stats.host_read_latency_sum += now.saturating_sub(txn.arrival);
                if self.traced {
                    self.sink.emit(TraceEvent::HostReadDone {
                        cycle: now,
                        channel: self.channel_id,
                        warp: txn.meta.warp.0,
                        latency: now.saturating_sub(txn.arrival),
                    });
                }
            }
            TxnKind::HostWrite { data } => {
                self.channel.write_open_row(bank, col, data);
                self.stats.host_writes += 1;
                self.stats.col_writes += 1;
            }
        }
        let credit = self.backend.on_retire(&txn);
        let fence_acks = self.fences.on_issue(txn.meta.warp);
        if self.traced {
            self.sink.emit(TraceEvent::ReqIssued {
                cycle: now,
                channel: self.channel_id,
                group: txn.group.0,
                warp: txn.meta.warp.0,
                seq: txn.meta.seq,
            });
        }
        if credit {
            // Return the buffer credit to the core (Kim et al. style).
            self.out.push(MemResp::Credit { warp: txn.meta.warp });
        }
        for (warp, fence_id) in fence_acks {
            self.ack_fence(warp, fence_id, now);
        }
        self.stats.last_issue_cycle = now;
    }

    /// Sends the acknowledgement of `warp`'s fence `fence_id` up the pipe.
    fn ack_fence(&mut self, warp: GlobalWarpId, fence_id: u64, cycle: MemCycle) {
        self.stats.fence_acks += 1;
        self.out.push(MemResp::FenceAck { warp, fence_id });
        if self.traced {
            self.sink.emit(TraceEvent::FenceAck {
                cycle,
                channel: self.channel_id,
                warp: warp.0,
                fence_id,
            });
        }
    }

    /// Classifies every bank's head transaction once, by the command it
    /// needs next and whether that command can issue at `now`, into the
    /// column, activate and precharge classes (in that order). A column
    /// also needs the ordering backend's issue gate.
    fn ready_banks(&self, now: MemCycle) -> [ReadyBanks; 3] {
        let mut ready = [ReadyBanks::default(); 3];
        let mut busy = self.busy;
        while busy != 0 {
            let b = busy.trailing_zeros() as usize;
            busy &= busy - 1;
            let head = self.bank_q[b].front().expect("busy bank has a head");
            let bank = BankId(b as u8);
            let (class, cmd) = match self.channel.needed_command(bank, head.loc.row) {
                NeededCommand::Column => {
                    if !self.backend.issue_allowed(head) {
                        continue;
                    }
                    let kind = if head.is_write() { ColKind::Write } else { ColKind::Read };
                    (0, DramCommand::column(bank, kind))
                }
                NeededCommand::Activate => (1, DramCommand::Activate { bank, row: head.loc.row }),
                NeededCommand::Precharge => (2, DramCommand::Precharge { bank }),
            };
            if self.channel.can_issue(cmd, now) {
                ready[class].add(head.arrival, bank);
            }
        }
        ready
    }

    /// The bank to issue to from one class of [`ready_banks`](Self::ready_banks):
    /// the oldest head, or with an adversary attached a uniform pick
    /// among the class (which draws nothing when the class is empty).
    fn choose_bank(&mut self, ready: ReadyBanks) -> Option<BankId> {
        let Some(rng) = self.adversary.as_mut() else {
            return ready.oldest.map(|(_, b)| b);
        };
        if ready.banks == 0 {
            return None;
        }
        let mut banks = ready.banks;
        for _ in 0..rng.gen_index(banks.count_ones() as usize) {
            banks &= banks - 1;
        }
        Some(BankId(banks.trailing_zeros() as u8))
    }

    /// Issues at most one command this cycle: column accesses first (they
    /// retire transactions), then execute-only PIM commands, then
    /// activates, then precharges.
    fn issue_phase(&mut self, now: MemCycle) {
        let [column, activate, precharge] = self.ready_banks(now);
        if let Some(bank) = self.choose_bank(column) {
            let txn = self.bank_q[bank.index()].front().expect("picked bank has head");
            let kind = if txn.is_write() { ColKind::Write } else { ColKind::Read };
            let issued = self.channel.try_issue(DramCommand::column(bank, kind), now);
            debug_assert!(issued, "ready_banks checked legality");
            let txn = self.pop_bank(bank);
            self.complete(txn, now);
            return;
        }
        if self.exec_q.front().is_some_and(|head| self.backend.issue_allowed(head)) {
            let txn = self.exec_q.pop_front().expect("peeked head");
            self.complete(txn, now);
            return;
        }
        if let Some(bank) = self.choose_bank(activate) {
            let row = self.bank_q[bank.index()].front().expect("head exists").loc.row;
            let issued = self.channel.try_issue(DramCommand::Activate { bank, row }, now);
            debug_assert!(issued);
            self.record(now, || format!("ACT b{} r{row}", bank.0), None, None);
            self.stats.activates += 1;
            self.stats.last_issue_cycle = now;
            return;
        }
        if let Some(bank) = self.choose_bank(precharge) {
            let issued = self.channel.try_issue(DramCommand::Precharge { bank }, now);
            debug_assert!(issued);
            self.record(now, || format!("PRE b{}", bank.0), None, None);
            self.stats.precharges += 1;
            self.stats.last_issue_cycle = now;
            return;
        }
        if self.cfg.page_policy == PagePolicy::Closed {
            // Eagerly close any open row no queued transaction wants.
            for b in 0..self.bank_q.len() {
                let bank = BankId(b as u8);
                let Some(open) = self.channel.bank(bank).open_row() else { continue };
                if self.bank_q[b].iter().any(|t| t.loc.row == open) {
                    continue;
                }
                if self.channel.try_issue(DramCommand::Precharge { bank }, now) {
                    self.record(now, || format!("PRE b{} (closed-page)", bank.0), None, None);
                    self.stats.precharges += 1;
                    self.stats.last_issue_cycle = now;
                    return;
                }
            }
        }
    }

    /// Advances the controller by one memory cycle, appending the
    /// responses (load data, fence acks) to send back up the pipe to
    /// `out`. Callers reuse one buffer across ticks, so a tick that
    /// retires a command allocates nothing.
    pub fn tick(&mut self, now: MemCycle, out: &mut Vec<MemResp>) {
        self.arrival_cycle = now;
        self.channel.maintain(now);
        // Periodic occupancy sample for counter tracks (every 64 memory
        // cycles keeps trace volume proportional to runtime, not work).
        if self.traced && now.is_multiple_of(SAMPLE_STRIDE) {
            self.sink.emit(TraceEvent::QueueSample {
                cycle: now,
                channel: self.channel_id,
                read_q: self.read_q.len() as u32,
                write_q: self.write_q.len() as u32,
            });
        }
        self.consume_markers();
        self.dequeue_phase();
        self.issue_phase(now);
        out.append(&mut self.out);
    }

    /// Advances the controller across `ticks` quiescent memory cycles
    /// starting at `now` — cycles in which [`tick`](Self::tick) would
    /// find the controller idle and change nothing beyond per-cycle
    /// bookkeeping. Replays that bookkeeping in closed form: the write-drain
    /// hysteresis (which re-evaluates an empty queue every cycle), the
    /// arrival stamp used for requests pushed between memory ticks,
    /// and — with a live sink — the periodic queue samples the dense
    /// loop would have emitted at every `SAMPLE_STRIDE` boundary inside
    /// the window (the controller is idle, so each sample reads the
    /// constant occupancies, making the event core's sample stream
    /// byte-identical to the dense core's).
    ///
    /// The caller must not skip across a refresh trigger;
    /// [`Channel::next_refresh_event`] is a horizon event precisely so
    /// the cycle that performs a refresh is ticked densely.
    pub fn skip_ticks(&mut self, now: MemCycle, ticks: u64) {
        if ticks == 0 {
            return;
        }
        debug_assert!(self.is_idle(), "skip_ticks on an active controller");
        debug_assert!(
            self.channel.next_refresh_event(now).is_none_or(|due| due >= now + ticks),
            "skip_ticks window crosses a refresh trigger"
        );
        if self.traced {
            let read_q = self.read_q.len() as u32;
            let write_q = self.write_q.len() as u32;
            let mut cycle = now.next_multiple_of(SAMPLE_STRIDE);
            while cycle < now + ticks {
                self.sink.emit(TraceEvent::QueueSample {
                    cycle,
                    channel: self.channel_id,
                    read_q,
                    write_q,
                });
                cycle += SAMPLE_STRIDE;
            }
        }
        self.arrival_cycle = now + ticks - 1;
        // dequeue_phase re-runs the hysteresis comparison every cycle
        // even when both queues are empty; one evaluation at the final
        // occupancy is equivalent for a window in which it is constant.
        if self.write_q.fill_fraction() >= self.cfg.write_drain_high {
            self.draining_writes = true;
        } else if self.write_q.fill_fraction() <= self.cfg.write_drain_low {
            self.draining_writes = false;
        }
    }

    /// Whether all queues, command queues and ordering state are drained.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(
            (self.bank_queued, self.room, self.busy),
            self.recount_bank_state(),
            "kept bank-queue state out of sync"
        );
        self.bank_queued == 0
            && self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.exec_q.is_empty()
            && self.backend.is_idle()
            && self.fences.pending() == 0
            && self.merge.pending() == 0
            && self.out.is_empty()
    }

    /// `(bank_queued, room, busy)` recounted from the bank queues — what
    /// the kept fields must always equal.
    fn recount_bank_state(&self) -> (usize, u64, u64) {
        let cap = self.cfg.bank_queue_capacity;
        self.bank_q.iter().enumerate().fold((0, 0, 0), |(n, room, busy), (b, q)| {
            (
                n + q.len(),
                room | u64::from(q.len() < cap) << b,
                busy | u64::from(!q.is_empty()) << b,
            )
        })
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> McStats {
        let mut s = self.stats;
        s.sanity_violations += self.backend.sanity_violations();
        s
    }

    /// The DRAM channel (initialisation / verification).
    #[must_use]
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Mutable DRAM channel access (workload data initialisation).
    pub fn channel_mut(&mut self) -> &mut Channel {
        &mut self.channel
    }

    /// The PIM unit attached to this channel.
    #[must_use]
    pub fn pim(&self) -> &PimUnit {
        &self.pim
    }
}

/// Quiescence horizon in *memory* cycles. An active controller (any
/// queue non-empty, fences pending, ordering state live, or responses
/// buffered) reports `Some(now)`: its tick loop makes scheduling
/// decisions every cycle and must run densely. A closed-page
/// controller with a row still open also reports `Some(now)` — the
/// eager precharge scan in the issue phase retries every cycle until
/// the row closes. An idle controller's only future event is the
/// channel's refresh trigger; with refresh disabled it is fully
/// drained (`None`).
impl NextEvent for MemoryController {
    fn next_event(&self, now: u64) -> Option<u64> {
        if !self.is_idle() {
            return Some(now);
        }
        if self.cfg.page_policy == PagePolicy::Closed {
            let any_open = (0..self.bank_q.len())
                .any(|b| self.channel.bank(BankId(b as u8)).open_row().is_some());
            if any_open {
                return Some(now);
            }
        }
        self.channel.next_refresh_event(now)
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("read_q", &self.read_q.len())
            .field("write_q", &self.write_q.len())
            .field("exec_q", &self.exec_q.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::mapping::Location;
    use orderlight::message::{MarkerCopy, ReqMeta};
    use orderlight::packet::OrderLightPacket;
    use orderlight::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, Stripe, TsSlot};
    use orderlight::{AluOp, PimInstruction, Reg};
    use orderlight_hbm::TimingParams;
    use orderlight_pim::TsSize;

    fn mc() -> MemoryController {
        mc_with(McConfig::default().ordering)
    }

    fn mc_with(ordering: OrderingKind) -> MemoryController {
        let cfg = McConfig { ordering, ..McConfig::default() };
        let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
        MemoryController::new(cfg, channel, PimUnit::new(TsSize::Half, 2048, 16))
    }

    fn warp() -> GlobalWarpId {
        GlobalWarpId::new(0, 0)
    }

    fn pim_req(op: PimOp, addr: u64, slot: u16, seq: u64) -> MemReq {
        MemReq::Pim {
            instr: PimInstruction {
                op,
                addr: Addr(addr),
                slot: TsSlot(slot),
                group: MemGroupId(0),
            },
            meta: ReqMeta { warp: warp(), seq },
        }
    }

    fn ol_marker(number: u32) -> MemReq {
        MemReq::Marker(MarkerCopy {
            marker: Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), number)),
            total_copies: 1,
        })
    }

    fn fence_probe(fence_id: u64) -> MemReq {
        MemReq::Marker(MarkerCopy {
            marker: Marker::FenceProbe { warp: warp(), fence_id, channel: ChannelId(0) },
            total_copies: 1,
        })
    }

    /// Drives the controller until idle, returning responses and the
    /// final cycle.
    fn run_until_idle(mc: &mut MemoryController) -> (Vec<MemResp>, MemCycle) {
        let mut out = Vec::new();
        let mut now = 0;
        while !mc.is_idle() {
            mc.tick(now, &mut out);
            now += 1;
            assert!(now < 1_000_000, "controller did not drain");
        }
        (out, now)
    }

    #[test]
    fn vector_add_with_orderlight_is_correct() {
        // c[i] = a[i] + b[i] over one tile of 4 stripes. Addresses chosen
        // so a, b, c land in different rows of bank 0 of channel 0:
        // within-channel offset advances by 2048 per bank-rotation; use
        // the bank-aligned stride so all rows share bank 0.
        let mut m = mc();
        // Rows 0, 1, 2 of bank 0, channel 0 (the paper's layout: all
        // operands of a computation in one bank, different rows).
        let a0 = m.cfg.mapping.compose(ChannelId(0), 0).0;
        let b0 = m.cfg.mapping.compose(ChannelId(0), 2048).0;
        let c0 = m.cfg.mapping.compose(ChannelId(0), 4096).0;
        // Initialise a and b in the functional store.
        for i in 0..4u64 {
            let la = m.cfg.mapping.decode(Addr(a0 + i * 32));
            let lb = m.cfg.mapping.decode(Addr(b0 + i * 32));
            assert_eq!(la.bank, lb.bank, "operands share a bank");
            m.channel_mut().store_mut().write(la.bank, la.row, la.col, Stripe::splat(10));
            m.channel_mut().store_mut().write(lb.bank, lb.row, lb.col, Stripe::splat(32));
        }
        let mut seq = 0;
        for i in 0..4u64 {
            m.push(pim_req(PimOp::Load, a0 + i * 32, i as u16, seq));
            seq += 1;
        }
        m.push(ol_marker(1));
        for i in 0..4u64 {
            m.push(pim_req(PimOp::Compute(AluOp::Add), b0 + i * 32, i as u16, seq));
            seq += 1;
        }
        m.push(ol_marker(2));
        for i in 0..4u64 {
            m.push(pim_req(PimOp::Store, c0 + i * 32, i as u16, seq));
            seq += 1;
        }
        let (_, _) = run_until_idle(&mut m);
        for i in 0..4u64 {
            let lc = m.cfg.mapping.decode(Addr(c0 + i * 32));
            assert_eq!(
                m.channel().store().read(lc.bank, lc.row, lc.col),
                Stripe::splat(42),
                "stripe {i}"
            );
        }
        let s = m.stats();
        assert_eq!(s.pim_commands, 12);
        assert_eq!(s.ol_packets, 2);
        assert_eq!(s.sanity_violations, 0);
    }

    #[test]
    fn fence_probe_acks_after_prior_requests_issue() {
        let mut m = mc();
        for i in 0..4u64 {
            m.push(pim_req(PimOp::Load, i * 32, i as u16, i));
        }
        m.push(fence_probe(9));
        let (out, _) = run_until_idle(&mut m);
        let acks: Vec<_> =
            out.iter().filter(|r| matches!(r, MemResp::FenceAck { fence_id: 9, .. })).collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(m.stats().fence_acks, 1);
    }

    #[test]
    fn fence_probe_with_empty_controller_acks_immediately() {
        let mut m = mc();
        m.push(fence_probe(1));
        let mut out = Vec::new();
        m.tick(0, &mut out);
        assert!(matches!(out[0], MemResp::FenceAck { fence_id: 1, .. }));
    }

    #[test]
    fn every_backend_merges_stray_packets_and_answers_an_idle_fence() {
        for kind in OrderingKind::ALL {
            let mut m = mc_with(kind);
            m.push(ol_marker(1));
            m.push(ol_marker(2));
            m.push(fence_probe(1));
            let (out, _) = run_until_idle(&mut m);
            assert!(m.is_idle(), "{kind}");
            let s = m.stats();
            assert_eq!((s.ol_packets, s.fence_acks, s.sanity_violations), (2, 1, 0), "{kind}");
            assert_eq!(out, vec![MemResp::FenceAck { warp: warp(), fence_id: 1 }], "{kind}");
        }
    }

    #[test]
    fn packet_numbers_are_sanity_checked_per_group_under_every_backend() {
        for kind in OrderingKind::ALL {
            let mut m = mc_with(kind);
            m.push(ol_marker(5));
            m.push(ol_marker(4));
            m.push(ol_marker(6));
            run_until_idle(&mut m);
            assert_eq!(m.stats().sanity_violations, 1, "{kind}: one non-monotonic number");
        }
    }

    /// The drop-edge mutation acknowledges a fence early only under the
    /// fence backend, whose one edge is the probe's wait; other backends
    /// drop their own edges and leave the fence service honest.
    #[test]
    fn only_the_fence_backend_mutation_acks_a_fence_early() {
        // (backend, mutated, acked at ingress, edges dropped)
        let rows = [
            (OrderingKind::Fence, false, false, 0),
            (OrderingKind::Fence, true, true, 1),
            (OrderingKind::OrderLight, true, false, 0),
        ];
        for (kind, mutated, early, dropped) in rows {
            let mut m = mc_with(kind);
            m.push(pim_req(PimOp::Load, 0, 0, 1));
            if mutated {
                m.set_elide_group(MemGroupId(0));
            }
            m.push(fence_probe(7));
            assert_eq!(m.stats().fence_acks, u64::from(early), "{kind} mutated={mutated}");
            run_until_idle(&mut m);
            assert_eq!(m.stats().fence_acks, 1, "{kind} mutated={mutated}: acked once");
            assert_eq!(m.ordering_edges_dropped(), dropped, "{kind} mutated={mutated}");
        }
    }

    #[test]
    fn host_read_returns_data() {
        let mut m = mc();
        let loc = m.cfg.mapping.decode(Addr(64));
        m.channel_mut().store_mut().write(loc.bank, loc.row, loc.col, Stripe::splat(5));
        m.push(MemReq::HostRead {
            addr: Addr(64),
            reg: Reg(3),
            meta: ReqMeta { warp: warp(), seq: 0 },
        });
        let (out, _) = run_until_idle(&mut m);
        assert!(out.iter().any(|r| matches!(
            r,
            MemResp::LoadData { reg: Reg(3), data, .. } if *data == Stripe::splat(5)
        )));
        assert_eq!(m.stats().host_reads, 1);
    }

    #[test]
    fn orderlight_does_not_constrain_other_group() {
        // Group-1 host write queued behind a group-0 OrderLight packet
        // still proceeds while group 0 is blocked.
        let mut m = mc();
        // A group-0 PIM load ahead of the packet.
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(ol_marker(1));
        // Host write to a group-1 bank (banks 8..16 under the default
        // GroupMap): the start of bank 8's row region on channel 0.
        let addr = m.cfg.mapping.compose(ChannelId(0), m.cfg.mapping.bank_base_offset(BankId(8)));
        let loc = m.cfg.mapping.decode(addr);
        assert_eq!(loc.bank, BankId(8));
        assert_eq!(m.cfg.groups.group_of(loc.bank), MemGroupId(1));
        m.push(MemReq::HostWrite {
            addr,
            data: Stripe::splat(1),
            meta: ReqMeta { warp: GlobalWarpId::new(0, 1), seq: 0 },
        });
        let (_, _) = run_until_idle(&mut m);
        assert_eq!(m.stats().host_writes, 1);
        assert_eq!(m.stats().pim_commands, 1);
    }

    #[test]
    fn without_ordering_frfcfs_reorders_row_hits() {
        // Two loads to row X, then a store to row Y, then two more loads
        // to row X — without ordering the scheduler services the row-X
        // loads together (row-hit first), issuing the store *after* the
        // later loads even though it arrived earlier.
        let mut m = mc();
        let other_row = m.cfg.mapping.compose(ChannelId(0), 2048).0;
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(pim_req(PimOp::Load, 32, 1, 1));
        m.push(pim_req(PimOp::Store, other_row, 0, 2));
        m.push(pim_req(PimOp::Load, 64, 2, 3));
        m.push(pim_req(PimOp::Load, 96, 3, 4));
        // Run a bounded number of cycles and inspect issue order through
        // stats: all 4 reads should complete before the write.
        let (mut now, mut resps) = (0, Vec::new());
        let mut read_done_at = None;
        let mut write_done_at = None;
        while !m.is_idle() {
            m.tick(now, &mut resps);
            let s = m.stats();
            if s.col_reads == 4 && read_done_at.is_none() {
                read_done_at = Some(now);
            }
            if s.col_writes == 1 && write_done_at.is_none() {
                write_done_at = Some(now);
            }
            now += 1;
            assert!(now < 100_000);
        }
        assert!(
            read_done_at.unwrap() < write_done_at.unwrap(),
            "row-hit loads should overtake the older store"
        );
    }

    #[test]
    fn orderlight_prevents_the_reordering() {
        // Same pattern as above but with OrderLight packets between the
        // phases: the store must issue before the later loads.
        let mut m = mc();
        let other_row = m.cfg.mapping.compose(ChannelId(0), 2048).0;
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(pim_req(PimOp::Load, 32, 1, 1));
        m.push(ol_marker(1));
        m.push(pim_req(PimOp::Store, other_row, 0, 2));
        m.push(ol_marker(2));
        m.push(pim_req(PimOp::Load, 64, 2, 3));
        m.push(pim_req(PimOp::Load, 96, 3, 4));
        let (mut now, mut resps) = (0, Vec::new());
        let mut third_read_at = None;
        let mut write_at = None;
        while !m.is_idle() {
            m.tick(now, &mut resps);
            let s = m.stats();
            if s.col_reads >= 3 && third_read_at.is_none() {
                third_read_at = Some(now);
            }
            if s.col_writes == 1 && write_at.is_none() {
                write_at = Some(now);
            }
            now += 1;
            assert!(now < 100_000);
        }
        assert!(
            write_at.unwrap() < third_read_at.unwrap(),
            "OrderLight must force the store before the post-packet loads"
        );
    }

    #[test]
    fn exec_commands_flow_without_dram() {
        let mut m = mc();
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(ol_marker(1));
        m.push(pim_req(PimOp::Execute(AluOp::ScaleImm(3)), 0, 0, 1));
        let (_, _) = run_until_idle(&mut m);
        let s = m.stats();
        assert_eq!(s.exec_commands, 1);
        assert_eq!(s.pim_commands, 2);
        assert_eq!(m.pim().stats().execute_commands, 1);
    }

    #[test]
    fn trace_records_commands_in_issue_order() {
        let cfg = McConfig { trace: true, ..McConfig::default() };
        let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
        let pim = PimUnit::new(TsSize::Half, 2048, 16);
        let mut m = MemoryController::new(cfg, channel, pim);
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        m.push(ol_marker(1));
        m.push(pim_req(PimOp::Store, 64, 0, 1));
        let (_, _) = run_until_idle(&mut m);
        let trace = m.trace();
        let kinds: Vec<&str> =
            trace.iter().map(|r| r.what.split_whitespace().next().unwrap()).collect();
        // ACT row 0, the load, then (same row) the store.
        assert_eq!(kinds, vec!["ACT", "pim_load", "pim_store"]);
        // Cycles are non-decreasing.
        assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // Column records carry warp identity and sequence numbers.
        assert_eq!(trace[1].seq, Some(0));
        assert_eq!(trace[2].seq, Some(1));
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let mut m = mc();
        m.push(pim_req(PimOp::Load, 0, 0, 0));
        let (_, _) = run_until_idle(&mut m);
        assert!(m.trace().is_empty());
    }

    /// The three-pass bank pick the one-pass [`MemoryController::ready_banks`]
    /// replaced, kept as the reference it must agree with: the oldest
    /// bank whose head can issue `needed` now, or with an adversary a
    /// uniform pick among all such banks.
    fn reference_pick_bank(
        m: &mut MemoryController,
        needed: NeededCommand,
        now: MemCycle,
    ) -> Option<BankId> {
        let adversarial = m.adversary.is_some();
        let mut best: Option<(u64, BankId)> = None;
        let mut candidates: Vec<BankId> = Vec::new();
        for (b, q) in m.bank_q.iter().enumerate() {
            let Some(head) = q.front() else { continue };
            let bank = BankId(b as u8);
            if needed == NeededCommand::Column && !m.backend.issue_allowed(head) {
                continue;
            }
            if m.channel.needed_command(bank, head.loc.row) != needed {
                continue;
            }
            let cmd = match needed {
                NeededCommand::Column => DramCommand::column(
                    bank,
                    if head.is_write() { ColKind::Write } else { ColKind::Read },
                ),
                NeededCommand::Activate => DramCommand::Activate { bank, row: head.loc.row },
                NeededCommand::Precharge => DramCommand::Precharge { bank },
            };
            if !m.channel.can_issue(cmd, now) {
                continue;
            }
            if adversarial {
                candidates.push(bank);
            }
            if best.is_none_or(|(a, _)| head.arrival < a) {
                best = Some((head.arrival, bank));
            }
        }
        if let Some(rng) = m.adversary.as_mut() {
            if candidates.is_empty() {
                return None;
            }
            return Some(candidates[rng.gen_index(candidates.len())]);
        }
        best.map(|(_, b)| b)
    }

    /// A controller in a random bank state drawn from `seed`: open rows
    /// and command timing left by random activates and column accesses,
    /// and up to three queued transactions per bank with clashing
    /// arrival stamps, under a random ordering backend. Returns it with
    /// the cycle to pick at.
    fn random_bank_state(seed: u64, adversary: Option<u64>) -> (MemoryController, MemCycle) {
        let mut rng = Rng::new(seed);
        let ordering = OrderingKind::ALL[rng.gen_index(OrderingKind::ALL.len())];
        let cfg = McConfig { ordering, ..McConfig::default() };
        let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
        let mut m = MemoryController::new(cfg, channel, PimUnit::new(TsSize::Half, 2048, 16));
        if let Some(seed) = adversary {
            m.set_adversary(seed);
        }
        for t in 0..80 {
            let bank = BankId(rng.gen_index(16) as u8);
            let cmd = match rng.gen_index(3) {
                0 => DramCommand::Activate { bank, row: rng.gen_index(4) as u32 },
                1 => DramCommand::column(bank, ColKind::Read),
                _ => DramCommand::Precharge { bank },
            };
            m.channel.try_issue(cmd, t);
        }
        for b in 0..16u8 {
            for _ in 0..rng.gen_index(4) {
                let loc = Location { channel: ChannelId(0), bank: BankId(b), row: 0, col: 0 };
                let loc = Location { row: rng.gen_index(4) as u32, ..loc };
                let instr = |op| PimInstruction {
                    op,
                    addr: Addr(0),
                    slot: TsSlot(0),
                    group: MemGroupId(0),
                };
                let kind = match rng.gen_index(4) {
                    0 => TxnKind::Pim(instr(PimOp::Load)),
                    1 => TxnKind::Pim(instr(PimOp::Store)),
                    2 => TxnKind::HostRead { reg: Reg(0) },
                    _ => TxnKind::HostWrite { data: Stripe::splat(0) },
                };
                let meta = ReqMeta { warp: GlobalWarpId::new(0, b.into()), seq: rng.gen_range(3) };
                let arrival = rng.gen_range(8);
                let txn = Transaction { kind, loc, group: MemGroupId(0), meta, arrival };
                m.push_bank(txn);
            }
        }
        (m, 80 + rng.gen_range(40))
    }

    #[test]
    fn one_pass_bank_pick_matches_the_three_pass_reference() {
        let classes = [NeededCommand::Column, NeededCommand::Activate, NeededCommand::Precharge];
        let mut picked = [0usize; 3];
        for seed in 0..2000u64 {
            let adversary = (seed % 2 == 1).then_some(seed ^ 0x5eed);
            let (mut reference, now) = random_bank_state(seed, adversary);
            let (mut one_pass, _) = random_bank_state(seed, adversary);
            // Each class in issue order, as if every earlier class had
            // come up empty: the pick and the adversary's draws agree.
            for (i, ready) in one_pass.ready_banks(now).into_iter().enumerate() {
                let expected = reference_pick_bank(&mut reference, classes[i], now);
                assert_eq!(one_pass.choose_bank(ready), expected, "seed {seed}, {:?}", classes[i]);
                picked[i] += usize::from(expected.is_some());
            }
            assert_eq!(
                reference.adversary.as_mut().map(Rng::next_u64),
                one_pass.adversary.as_mut().map(Rng::next_u64),
                "seed {seed}: both drew equally often"
            );
        }
        assert!(picked.iter().all(|&n| n > 100), "every class gets picked: {picked:?}");
    }

    #[test]
    fn kept_bank_masks_match_a_recount() {
        let mut full_banks = 0;
        for seed in 0..60u64 {
            let mut rng = Rng::new(seed);
            let cfg = McConfig {
                ordering: OrderingKind::ALL[rng.gen_index(OrderingKind::ALL.len())],
                bank_queue_capacity: 1 + rng.gen_index(4),
                ..McConfig::default()
            };
            let mapping = cfg.mapping.clone();
            let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
            let mut m = MemoryController::new(cfg, channel, PimUnit::new(TsSize::Half, 2048, 16));
            if seed % 2 == 1 {
                m.set_adversary(seed);
            }
            let mut seqs = [1u64; 4];
            let mut out = Vec::new();
            let mut now = 0;
            while now < 1500 || !m.is_idle() {
                for _ in 0..if now < 1500 { rng.gen_index(3) } else { 0 } {
                    let w = rng.gen_index(4);
                    let meta = ReqMeta { warp: GlobalWarpId::new(0, w), seq: seqs[w] };
                    let addr = mapping.compose(ChannelId(0), rng.gen_range(1 << 15) * 32);
                    let pim = |op| MemReq::Pim {
                        instr: PimInstruction { op, addr, slot: TsSlot(0), group: MemGroupId(0) },
                        meta,
                    };
                    // Warps 0 and 1 are PIM warps, 2 and 3 host warps.
                    let req = match (w, rng.gen_bool(1, 2)) {
                        (0 | 1, true) => pim(PimOp::Load),
                        (0 | 1, false) => pim(PimOp::Store),
                        (_, true) => MemReq::HostRead { addr, reg: Reg(0), meta },
                        (_, false) => MemReq::HostWrite { addr, data: Stripe::splat(0), meta },
                    };
                    if m.can_accept(&req) {
                        m.push(req);
                        seqs[w] += 1;
                    }
                }
                m.tick(now, &mut out);
                assert_eq!(
                    (m.bank_queued, m.room, m.busy),
                    m.recount_bank_state(),
                    "seed {seed} cycle {now}"
                );
                full_banks += (!m.room & 0xffff).count_ones();
                now += 1;
                assert!(
                    now < 100_000,
                    "seed {seed} {:?}: controller did not drain",
                    m.cfg.ordering
                );
            }
        }
        assert!(full_banks > 1000, "coverage: {full_banks} full-bank cycles");
    }

    #[test]
    fn backpressure_is_reported() {
        let mut m = mc();
        for i in 0..64u64 {
            assert!(m.can_accept(&pim_req(PimOp::Load, i * 32, 0, i)));
            m.push(pim_req(PimOp::Load, i * 32, 0, i));
        }
        assert!(!m.can_accept(&pim_req(PimOp::Load, 0, 0, 99)));
        // The write queue still has space.
        assert!(m.can_accept(&pim_req(PimOp::Store, 0, 0, 99)));
        // OrderLight needs space in *both* queues.
        assert!(!m.can_accept(&ol_marker(1)));
    }
}
