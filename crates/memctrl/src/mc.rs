//! The memory controller proper: ingress, FR-FCFS scheduler, per-bank
//! command queues, DRAM command issue, and the PIM unit hookup.

use crate::ordering::{MarkerAction, OrderingBackend, OrderingKind};
use crate::queues::{PendingReq, QueueEntry, TransQueue};
use crate::txn::{Transaction, TxnKind};
use orderlight::fsm::diverge;
use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::message::{Marker, MarkerKey, MemReq, MemResp};
use orderlight::packet::OrderLightPacket;
use orderlight::rng::Rng;
use orderlight::slab::Slab;
use orderlight::types::{BankId, MemCycle, MemGroupId};
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
    pub warp: Option<orderlight::types::GlobalWarpId>,
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
    /// OrderLight group barriers). Every backend also services fence
    /// probes, so the choice only matters for traffic that actually
    /// exercises the ordering primitive.
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
    /// Packet-number sanity violations observed.
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
    exec_q: VecDeque<Transaction>,
    backend: Box<dyn OrderingBackend>,
    arrival_seq: u64,
    arrival_cycle: MemCycle,
    draining_writes: bool,
    out: Vec<MemResp>,
    stats: McStats,
    trace: Vec<IssueRecord>,
    sink: SharedSink,
    channel_id: u8,
    /// Fault injection: adversarial scheduler tie-breaks. When set, the
    /// FR-FCFS pick chooses uniformly among *eligible* candidates
    /// instead of preferring row hits / oldest arrivals — a legal but
    /// hostile schedule.
    adversary: Option<Rng>,
}

impl MemoryController {
    /// Creates a controller around `channel` and `pim`.
    #[must_use]
    pub fn new(cfg: McConfig, channel: Channel, pim: PimUnit) -> Self {
        let banks = channel.num_banks();
        MemoryController {
            read_q: TransQueue::new(cfg.queue_capacity),
            write_q: TransQueue::new(cfg.queue_capacity),
            arena: Slab::with_capacity(2 * cfg.queue_capacity),
            bank_q: (0..banks).map(|_| VecDeque::new()).collect(),
            bank_queued: 0,
            exec_q: VecDeque::new(),
            backend: cfg.ordering.build(),
            arrival_seq: 0,
            arrival_cycle: 0,
            draining_writes: false,
            out: Vec::new(),
            stats: McStats::default(),
            trace: Vec::new(),
            sink: nop_sink(),
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
    /// [`OrderingBackend::set_elide_group`]).
    pub fn set_elide_group(&mut self, group: MemGroupId) {
        self.backend.set_elide_group(group);
    }

    /// Ordering edges dropped by the elide mutation so far.
    #[must_use]
    pub fn ordering_edges_dropped(&self) -> u64 {
        self.backend.edges_dropped()
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
        self.sink = sink;
        self.channel_id = channel;
    }

    /// Appends an issue record when tracing is on; `what` is only
    /// formatted then, so an untraced run builds no strings.
    fn record(
        &mut self,
        cycle: MemCycle,
        what: impl FnOnce() -> String,
        warp: Option<orderlight::types::GlobalWarpId>,
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
                    if self.sink.is_enabled() {
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
                    if self.backend.on_probe(warp, fence_id) {
                        self.stats.fence_acks += 1;
                        self.out.push(MemResp::FenceAck { warp, fence_id });
                        if self.sink.is_enabled() {
                            self.sink.emit(TraceEvent::FenceAck {
                                cycle: self.arrival_cycle,
                                channel: self.channel_id,
                                warp: warp.0,
                                fence_id,
                            });
                        }
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
                self.arrival_seq += 1;
                let pim = req.is_pim();
                let write_like = req.is_write_like();
                // A controller-enforced backend may raise a synthetic
                // barrier here (e.g. a bulk-bitwise epoch flip). It is
                // recorded *before* this request's own enqueue event so
                // the oracle's pre-set covers exactly the older requests.
                if let Some(number) = self.backend.on_arrival(meta, group, pim, write_like) {
                    if self.sink.is_enabled() {
                        self.sink.emit(TraceEvent::PacketEnqueued {
                            cycle: self.arrival_cycle,
                            channel: self.channel_id,
                            group: group.0,
                            number,
                        });
                    }
                }
                if self.sink.is_enabled() {
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

    fn txn_fits(&self, p: &PendingReq) -> bool {
        match p.loc {
            Some(loc) => self.bank_q[loc.bank.index()].len() < self.cfg.bank_queue_capacity,
            None => self.exec_q.len() < self.cfg.exec_queue_capacity,
        }
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
        for side in order {
            let mut first_fit = None;
            let mut row_hit = None;
            let mut candidates: Vec<usize> = Vec::new();
            let q = self.queue(side);
            let elide = self.backend.elide_group();
            for (i, p) in q.eligible(|g| self.backend.group_blocked(g), elide, self.cfg.scan_depth)
            {
                if !self.txn_fits(p) {
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
        if self.sink.is_enabled() {
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

    /// Offers ready marker copies to the backend's convergence FSM.
    ///
    /// A copy is *offered* as soon as no constrained request remains
    /// ahead of it in its own queue, but it stays in place — still
    /// blocking its sub-path — until every sibling copy has been offered
    /// and the merge fires (paper Figure 9); only then are all copies
    /// removed. A backend may instead *hold* a fully-collected marker
    /// (Louvre's versioned release): its copies stay queued, still
    /// blocking, until [`OrderingBackend::take_released`] reports the
    /// drain condition met.
    fn consume_markers(&mut self) {
        for (key, packet) in self.backend.take_released() {
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
                match self.backend.on_marker(&copy) {
                    MarkerAction::Merged(packet) => {
                        self.finish_merge(&copy.marker.key(), &packet);
                    }
                    MarkerAction::Pending | MarkerAction::Held => {}
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
            if self.sink.is_enabled() {
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
            if self.sink.is_enabled() {
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
                    self.bank_q[loc.bank.index()].push_back(txn);
                    self.bank_queued += 1;
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
                        if self.sink.is_enabled() {
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
                if self.sink.is_enabled() {
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
        let outcome = self.backend.on_retire(&txn);
        if self.sink.is_enabled() {
            self.sink.emit(TraceEvent::ReqIssued {
                cycle: now,
                channel: self.channel_id,
                group: txn.group.0,
                warp: txn.meta.warp.0,
                seq: txn.meta.seq,
            });
        }
        if outcome.credit {
            // Return the buffer credit to the core (Kim et al. style).
            self.out.push(MemResp::Credit { warp: txn.meta.warp });
        }
        for (warp, fence_id) in outcome.fence_acks {
            self.stats.fence_acks += 1;
            self.out.push(MemResp::FenceAck { warp, fence_id });
            if self.sink.is_enabled() {
                self.sink.emit(TraceEvent::FenceAck {
                    cycle: now,
                    channel: self.channel_id,
                    warp: warp.0,
                    fence_id,
                });
            }
        }
        self.stats.last_issue_cycle = now;
    }

    /// Oldest bank whose head transaction can issue `needed` right now.
    /// With an adversary attached, a uniform pick among all such banks
    /// replaces the oldest-arrival preference.
    fn pick_bank(&mut self, needed: NeededCommand, now: MemCycle) -> Option<BankId> {
        let adversarial = self.adversary.is_some();
        let mut best: Option<(u64, BankId)> = None;
        let mut candidates: Vec<BankId> = Vec::new();
        for (b, q) in self.bank_q.iter().enumerate() {
            let Some(head) = q.front() else { continue };
            let bank = BankId(b as u8);
            if needed == NeededCommand::Column && !self.backend.issue_allowed(head) {
                continue;
            }
            if self.channel.needed_command(bank, head.loc.row) != needed {
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
            if !self.channel.can_issue(cmd, now) {
                continue;
            }
            if adversarial {
                candidates.push(bank);
            }
            if best.is_none_or(|(a, _)| head.arrival < a) {
                best = Some((head.arrival, bank));
            }
        }
        if let Some(rng) = self.adversary.as_mut() {
            if !candidates.is_empty() {
                return Some(candidates[rng.gen_index(candidates.len())]);
            }
            return None;
        }
        best.map(|(_, b)| b)
    }

    /// Issues at most one command this cycle: column accesses first (they
    /// retire transactions), then execute-only PIM commands, then
    /// activates, then precharges.
    fn issue_phase(&mut self, now: MemCycle) {
        if let Some(bank) = self.pick_bank(NeededCommand::Column, now) {
            let txn = self.bank_q[bank.index()].front().expect("picked bank has head");
            let kind = if txn.is_write() { ColKind::Write } else { ColKind::Read };
            let issued = self.channel.try_issue(DramCommand::column(bank, kind), now);
            debug_assert!(issued, "pick_bank checked legality");
            let txn = self.bank_q[bank.index()].pop_front().expect("head exists");
            self.bank_queued -= 1;
            self.complete(txn, now);
            return;
        }
        if self.exec_q.front().is_some_and(|head| self.backend.issue_allowed(head)) {
            let txn = self.exec_q.pop_front().expect("peeked head");
            self.complete(txn, now);
            return;
        }
        if let Some(bank) = self.pick_bank(NeededCommand::Activate, now) {
            let row = self.bank_q[bank.index()].front().expect("head exists").loc.row;
            let issued = self.channel.try_issue(DramCommand::Activate { bank, row }, now);
            debug_assert!(issued);
            self.record(now, || format!("ACT b{} r{row}", bank.0), None, None);
            self.stats.activates += 1;
            self.stats.last_issue_cycle = now;
            return;
        }
        if let Some(bank) = self.pick_bank(NeededCommand::Precharge, now) {
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
        self.read_q.record_tick();
        self.write_q.record_tick();
        // Periodic occupancy sample for counter tracks (every 64 memory
        // cycles keeps trace volume proportional to runtime, not work).
        if self.sink.is_enabled() && now.is_multiple_of(SAMPLE_STRIDE) {
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
    /// bookkeeping. Replays that bookkeeping in closed form: the
    /// occupancy integrals (at occupancy zero), the write-drain
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
        if self.sink.is_enabled() {
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
        self.read_q.record_ticks(ticks);
        self.write_q.record_ticks(ticks);
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
            self.bank_queued,
            self.bank_q.iter().map(VecDeque::len).sum::<usize>(),
            "bank_queued counter out of sync"
        );
        self.bank_queued == 0
            && self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.exec_q.is_empty()
            && self.backend.is_idle()
            && self.out.is_empty()
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> McStats {
        let mut s = self.stats;
        let b = self.backend.stats();
        s.ol_packets = b.packets_merged;
        s.sanity_violations = b.sanity_violations;
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

    /// Mean read/write transaction-queue occupancies.
    #[must_use]
    pub fn mean_queue_occupancy(&self) -> (f64, f64) {
        (self.read_q.mean_occupancy(), self.write_q.mean_occupancy())
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
    use orderlight::message::{MarkerCopy, ReqMeta};
    use orderlight::packet::OrderLightPacket;
    use orderlight::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, Stripe, TsSlot};
    use orderlight::{AluOp, PimInstruction, Reg};
    use orderlight_hbm::TimingParams;
    use orderlight_pim::TsSize;

    fn mc() -> MemoryController {
        let cfg = McConfig::default();
        let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
        let pim = PimUnit::new(TsSize::Half, 2048, 16);
        MemoryController::new(cfg, channel, pim)
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
