//! The streaming multiprocessor: warp scheduling, issue rules for every
//! kernel instruction, the LDST queue, and stall accounting.
//!
//! The contrast the paper draws (Figure 7) lives here:
//!
//! * a **fence** first drains the warp's requests out of the operand
//!   collector, then injects a fence *probe* and stalls the warp until
//!   the memory controller's acknowledgement returns up the pipe —
//!   hundreds of core cycles per fence;
//! * an **OrderLight** instruction waits only until the operand
//!   collector's PIM counter for its channel/group reads zero (a few
//!   cycles), injects the packet, and keeps issuing.

use crate::operand_collector::OperandCollector;
use crate::warp::{mark_reg_pending, reg_is_pending, Warp, WarpCore, WarpState};
use orderlight::message::{Marker, MarkerCopy, MemReq, MemResp, ReqMeta};
use orderlight::packet::OrderLightPacket;
use orderlight::types::CoreCycle;
use orderlight::{min_horizon, KernelInstr, NextEvent, OrderingInstr};
use orderlight_trace::{
    sink::nop_sink, InstrKind, SharedSink, StallCause as TraceCause, TraceEvent,
};
use std::collections::VecDeque;

/// SM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmConfig {
    /// Collector units available.
    pub oc_capacity: usize,
    /// Operand-collector residency in core cycles.
    pub oc_latency: CoreCycle,
    /// LDST queue capacity.
    pub ldst_capacity: usize,
    /// Instructions issued per cycle (across warps).
    pub issue_width: usize,
    /// Per-warp buffer credits for the sequence-number baseline
    /// (Kim et al. (paper reference 27)): a PIM instruction may only issue while the
    /// warp holds a credit; the controller returns one per retired
    /// request. `None` disables credit gating (fence/OrderLight modes).
    pub credits: Option<u32>,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            oc_capacity: 16,
            oc_latency: 4,
            ldst_capacity: 16,
            issue_width: 1,
            credits: None,
        }
    }
}

/// Per-SM activity and stall counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SmStats {
    /// Instructions issued.
    pub issued: u64,
    /// PIM instructions issued.
    pub pim_issued: u64,
    /// Conventional loads issued.
    pub loads: u64,
    /// Conventional stores issued.
    pub stores: u64,
    /// In-core SIMD computes executed.
    pub computes: u64,
    /// Fence instructions executed.
    pub fences: u64,
    /// OrderLight instructions executed.
    pub orderlights: u64,
    /// Warp-cycles spent stalled at fences (the paper's core stall-cycle
    /// metric).
    pub fence_stall_cycles: u64,
    /// Warp-cycles spent waiting for the operand collector to drain
    /// before injecting an OrderLight packet.
    pub ol_wait_cycles: u64,
    /// Warp-cycles blocked on register dependences.
    pub reg_wait_cycles: u64,
    /// Warp-cycles blocked on full collector/LDST structures.
    pub structural_stall_cycles: u64,
    /// Warp-cycles blocked waiting for buffer credits (sequence-number
    /// baseline only).
    pub credit_wait_cycles: u64,
}

impl SmStats {
    /// Total stall cycles across causes.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.fence_stall_cycles
            + self.ol_wait_cycles
            + self.reg_wait_cycles
            + self.structural_stall_cycles
            + self.credit_wait_cycles
    }
}

/// Why a ready warp's current instruction cannot issue this cycle.
/// Shared between [`Sm::try_issue`] (which charges one cycle), the
/// quiescence horizon (a warp with no blocker means "tick densely") and
/// the closed-form skip charging — keeping the three bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallCause {
    /// Out of sequence-number buffer credits.
    CreditWait,
    /// Operand collector or LDST queue full.
    Structural,
    /// OrderLight injection gated on the collector's PIM counter.
    OlWait,
    /// Fence draining the warp's requests out of the collector.
    FenceDrain,
    /// Register dependence on an outstanding load.
    RegWait,
}

impl StallCause {
    /// The trace-level cause this internal blocker is reported as. The
    /// mapping is one-to-one with the counters [`Sm::charge`]
    /// increments, which is what makes the profiler's conservation
    /// invariant hold by construction.
    fn trace_cause(self) -> TraceCause {
        match self {
            StallCause::CreditWait => TraceCause::CreditWait,
            StallCause::Structural => TraceCause::Structural,
            StallCause::OlWait => TraceCause::OlWait,
            StallCause::FenceDrain => TraceCause::FenceDrain,
            StallCause::RegWait => TraceCause::RegWait,
        }
    }
}

/// An open run of contiguous stall cycles for one cause, awaiting
/// emission as a single batched [`TraceEvent::CoreStall`].
#[derive(Debug, Clone, Copy)]
struct StallRun {
    /// Core cycle of the last charged cycle in the run.
    end: CoreCycle,
    /// Total warp-cycles charged (>= run length when several warps
    /// stall on the same cause in the same cycle).
    cycles: u64,
}

/// One streaming multiprocessor.
///
/// # Example
///
/// ```
/// use orderlight::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, TsSlot};
/// use orderlight::{KernelInstr, PimInstruction, PimOp, VecStream};
/// use orderlight_gpu::{Sm, SmConfig, Warp};
///
/// let program = vec![KernelInstr::Pim(PimInstruction {
///     op: PimOp::Load,
///     addr: Addr(0),
///     slot: TsSlot(0),
///     group: MemGroupId(0),
/// })];
/// let warp = Warp::new(
///     GlobalWarpId::new(0, 0),
///     ChannelId(0),
///     Box::new(VecStream::new(program)),
/// );
/// let mut sm = Sm::new(SmConfig::default(), vec![warp]);
/// for now in 0..10 {
///     sm.tick(now);
/// }
/// assert!(sm.pop_ldst().is_some(), "the PIM request reached the LDST queue");
/// assert!(sm.is_done());
/// ```
pub struct Sm {
    // Per-warp state, struct-of-arrays: the every-cycle scheduler scans
    // (ready-warp walk, parked-fence count, horizon probe) read
    // `states`/`curs`/`pendings` as contiguous arrays; the cold bulk of
    // each warp (program stream, register file, counters) sits in
    // `cores` and is only touched when an instruction actually issues
    // or data arrives.
    cores: Vec<WarpCore>,
    states: Vec<WarpState>,
    curs: Vec<Option<KernelInstr>>,
    pendings: Vec<u64>,
    oc: OperandCollector,
    ldst: VecDeque<MemReq>,
    cfg: SmConfig,
    rr: usize,
    stats: SmStats,
    credits: Vec<u32>,
    sink: SharedSink,
    retired: Vec<bool>,
    // Cycle of the most recent tick; stamps events emitted from
    // `deliver`, which has no cycle parameter.
    cur_cycle: CoreCycle,
    // This SM's index, for stamping CoreStall events (derived from the
    // first warp's id at construction).
    sm_id: u32,
    // One open stall run per trace-level cause (indexed by the
    // `StallCause::ALL` order); only touched when a sink is attached.
    stall_runs: [Option<StallRun>; 6],
}

impl Sm {
    /// Creates an SM running `warps`.
    #[must_use]
    pub fn new(cfg: SmConfig, warps: Vec<Warp>) -> Self {
        let n = warps.len();
        let sm_id = warps.first().map_or(0, |w| w.id().sm() as u32);
        let mut cores = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        let mut curs = Vec::with_capacity(n);
        let mut pendings = Vec::with_capacity(n);
        for w in warps {
            let (core, state, cur, pending) = w.into_parts();
            cores.push(core);
            states.push(state);
            curs.push(cur);
            pendings.push(pending);
        }
        Sm {
            oc: OperandCollector::new(cfg.oc_capacity, cfg.oc_latency),
            ldst: VecDeque::new(),
            credits: vec![cfg.credits.unwrap_or(0); n],
            retired: vec![false; n],
            sm_id,
            cores,
            states,
            curs,
            pendings,
            cfg,
            rr: 0,
            stats: SmStats::default(),
            sink: nop_sink(),
            cur_cycle: 0,
            stall_runs: [None; 6],
        }
    }

    /// Attaches a trace sink. The default [`orderlight_trace::NopSink`]
    /// makes tracing free; sinks only observe, so attaching one never
    /// changes simulated behaviour.
    pub fn set_sink(&mut self, sink: SharedSink) {
        self.sink = sink;
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Scheduling states of the warps running on this SM.
    #[must_use]
    pub fn warp_states(&self) -> &[WarpState] {
        &self.states
    }

    /// Whether every warp has finished and all structures drained.
    #[must_use]
    pub fn is_done(&mut self) -> bool {
        let all_done = (0..self.cores.len()).all(|i| {
            let _ = self.cores[i].fetch(&mut self.curs[i], &mut self.states[i]);
            self.states[i] == WarpState::Done
        });
        all_done && self.oc.is_empty() && self.ldst.is_empty()
    }

    /// Peeks the LDST queue head for routing to a memory pipe.
    #[must_use]
    #[inline]
    pub fn peek_ldst(&self) -> Option<&MemReq> {
        self.ldst.front()
    }

    /// Pops the LDST queue head once the pipe accepted it.
    #[inline]
    pub fn pop_ldst(&mut self) -> Option<MemReq> {
        self.ldst.pop_front()
    }

    /// Delivers a response from the memory pipe.
    pub fn deliver(&mut self, resp: MemResp) {
        let i = resp.warp().warp();
        match resp {
            MemResp::LoadData { reg, data, .. } => {
                self.cores[i].write_reg(&mut self.pendings[i], reg, data);
            }
            MemResp::FenceAck { fence_id, .. } => {
                let id = self.cores[i].id();
                let head_empty = self.curs[i].is_none();
                let released = self.cores[i].fence_ack(fence_id, head_empty, &mut self.states[i]);
                if released && self.sink.is_enabled() {
                    self.sink.emit(TraceEvent::FenceStallEnd {
                        cycle: self.cur_cycle,
                        sm: id.sm() as u32,
                        warp: id.0,
                        fence_id,
                    });
                }
            }
            MemResp::Credit { .. } => self.credits[i] += 1,
        }
    }

    fn ldst_has_space(&self) -> bool {
        self.ldst.len() < self.cfg.ldst_capacity
    }

    fn trace_issue(&self, now: CoreCycle, id: orderlight::types::GlobalWarpId, kind: InstrKind) {
        if self.sink.is_enabled() {
            self.sink.emit(TraceEvent::WarpIssue {
                cycle: now,
                sm: id.sm() as u32,
                warp: id.0,
                kind,
            });
        }
    }

    /// The first blocker preventing warp `i`'s current instruction from
    /// issuing, or `None` if it could issue right now. Read-only; the
    /// check order matches [`try_issue`](Self::try_issue) exactly, which
    /// is what makes per-cycle and closed-form stall charging agree. An
    /// unfetched or exhausted stream reports no blocker — `try_issue`
    /// resolves those by materialising the stream.
    fn issue_block(&self, i: usize) -> Option<StallCause> {
        let instr = self.curs[i]?;
        match instr {
            KernelInstr::Pim(_) => {
                if self.cfg.credits.is_some() && self.credits[i] == 0 {
                    Some(StallCause::CreditWait)
                } else if !self.oc.has_space() {
                    Some(StallCause::Structural)
                } else {
                    None
                }
            }
            KernelInstr::Ordering(
                OrderingInstr::OrderLight { group } | OrderingInstr::Release { group },
            ) => {
                if self.oc.pim_count(self.cores[i].channel(), group) > 0 {
                    Some(StallCause::OlWait)
                } else if !self.ldst_has_space() {
                    Some(StallCause::Structural)
                } else {
                    None
                }
            }
            KernelInstr::Ordering(OrderingInstr::Fence) => {
                if self.oc.warp_count(self.cores[i].id()) > 0 {
                    Some(StallCause::FenceDrain)
                } else if !self.ldst_has_space() {
                    Some(StallCause::Structural)
                } else {
                    None
                }
            }
            KernelInstr::Load { reg, .. } | KernelInstr::Store { reg, .. } => {
                if reg_is_pending(self.pendings[i], reg) {
                    Some(StallCause::RegWait)
                } else if !self.oc.has_space() {
                    Some(StallCause::Structural)
                } else {
                    None
                }
            }
            KernelInstr::Compute { dst, a, b, .. } => {
                let p = self.pendings[i];
                if reg_is_pending(p, a) || reg_is_pending(p, b) || reg_is_pending(p, dst) {
                    Some(StallCause::RegWait)
                } else {
                    None
                }
            }
        }
    }

    /// Charges a span of `cycles` stall cycles starting at `now` to the
    /// counter `cause` maps to, mirroring every charged cycle into the
    /// batched [`TraceEvent::CoreStall`] stream when a sink is attached.
    fn charge(&mut self, cause: StallCause, now: CoreCycle, cycles: u64) {
        match cause {
            StallCause::CreditWait => self.stats.credit_wait_cycles += cycles,
            StallCause::Structural => self.stats.structural_stall_cycles += cycles,
            StallCause::OlWait => self.stats.ol_wait_cycles += cycles,
            StallCause::FenceDrain => self.stats.fence_stall_cycles += cycles,
            StallCause::RegWait => self.stats.reg_wait_cycles += cycles,
        }
        if self.sink.is_enabled() {
            self.note_stall(cause.trace_cause(), now, now + cycles - 1, cycles);
        }
    }

    /// Folds a stall charge covering core cycles `start..=end` into the
    /// per-cause run, emitting the previous run first if this one is
    /// not contiguous with it. `count` may exceed the span length when
    /// several warps stall on the same cause in the same cycle.
    fn note_stall(&mut self, cause: TraceCause, start: CoreCycle, end: CoreCycle, count: u64) {
        let slot = cause as usize;
        match &mut self.stall_runs[slot] {
            Some(run) if start <= run.end + 1 => {
                run.end = run.end.max(end);
                run.cycles += count;
            }
            other => {
                if let Some(run) = other.take() {
                    self.sink.emit(TraceEvent::CoreStall {
                        cycle: run.end,
                        sm: self.sm_id,
                        cause,
                        cycles: run.cycles,
                    });
                }
                *other = Some(StallRun { end, cycles: count });
            }
        }
    }

    /// Emits every still-open stall run. The system calls this once at
    /// the end of a run so the profiler's conservation invariant sees
    /// every charged cycle; calling it mid-run is harmless (runs simply
    /// close early).
    pub fn flush_stall_runs(&mut self) {
        if !self.sink.is_enabled() {
            return;
        }
        for (slot, cause) in TraceCause::ALL.iter().enumerate() {
            if let Some(run) = self.stall_runs[slot].take() {
                self.sink.emit(TraceEvent::CoreStall {
                    cycle: run.end,
                    sm: self.sm_id,
                    cause: *cause,
                    cycles: run.cycles,
                });
            }
        }
    }

    /// Attempts to issue the current instruction of warp `i`; returns
    /// whether an instruction issued.
    fn try_issue(&mut self, i: usize, now: CoreCycle) -> bool {
        if let Some(cause) = self.issue_block(i) {
            self.charge(cause, now, 1);
            return false;
        }
        let Some(instr) = self.cores[i].fetch(&mut self.curs[i], &mut self.states[i]) else {
            return false;
        };
        match instr {
            KernelInstr::Pim(pim) => {
                let id = self.cores[i].id();
                let meta = ReqMeta { warp: id, seq: self.cores[i].next_seq() };
                let key = (self.cores[i].channel(), pim.group);
                self.cores[i].advance(&mut self.curs[i], &mut self.states[i]);
                if self.cfg.credits.is_some() {
                    self.credits[i] -= 1;
                }
                self.oc.allocate(MemReq::Pim { instr: pim, meta }, id, Some(key), now);
                self.stats.pim_issued += 1;
                self.trace_issue(now, id, InstrKind::Pim);
                true
            }
            KernelInstr::Ordering(OrderingInstr::OrderLight { group }) => {
                let channel = self.cores[i].channel();
                let id = self.cores[i].id();
                let number = self.cores[i].next_ol_number(group);
                let packet = OrderLightPacket::new(channel, group, number);
                self.cores[i].advance(&mut self.curs[i], &mut self.states[i]);
                self.ldst.push_back(MemReq::Marker(MarkerCopy {
                    marker: Marker::OrderLight(packet),
                    total_copies: 1,
                }));
                self.stats.orderlights += 1;
                self.trace_issue(now, id, InstrKind::OrderLight);
                if self.sink.is_enabled() {
                    self.sink.emit(TraceEvent::PacketCreated {
                        cycle: now,
                        channel: channel.0,
                        group: group.0,
                        number,
                        warp: id.0,
                    });
                }
                true
            }
            KernelInstr::Ordering(OrderingInstr::Release { group }) => {
                // Louvre-style release: same in-band injection path as an
                // OrderLight packet, but the number is the warp's
                // per-group release version and enforcement (the hold
                // until older requests drain) happens at the controller.
                let channel = self.cores[i].channel();
                let id = self.cores[i].id();
                let number = self.cores[i].next_release_version(group);
                let packet = OrderLightPacket::new(channel, group, number);
                self.cores[i].advance(&mut self.curs[i], &mut self.states[i]);
                self.ldst.push_back(MemReq::Marker(MarkerCopy {
                    marker: Marker::Release(packet),
                    total_copies: 1,
                }));
                self.stats.orderlights += 1;
                self.trace_issue(now, id, InstrKind::OrderLight);
                if self.sink.is_enabled() {
                    self.sink.emit(TraceEvent::PacketCreated {
                        cycle: now,
                        channel: channel.0,
                        group: group.0,
                        number,
                        warp: id.0,
                    });
                }
                true
            }
            KernelInstr::Ordering(OrderingInstr::Fence) => {
                // The fence halts issue until the warp's requests have
                // left the operand collector, then sends the probe and
                // stalls for the acknowledgement.
                let id = self.cores[i].id();
                let channel = self.cores[i].channel();
                let fence_id = self.cores[i].enter_fence(&mut self.states[i]);
                self.cores[i].advance(&mut self.curs[i], &mut self.states[i]);
                self.ldst.push_back(MemReq::Marker(MarkerCopy {
                    marker: Marker::FenceProbe { warp: id, fence_id, channel },
                    total_copies: 1,
                }));
                self.stats.fences += 1;
                self.trace_issue(now, id, InstrKind::Fence);
                if self.sink.is_enabled() {
                    self.sink.emit(TraceEvent::FenceStallBegin {
                        cycle: now,
                        sm: id.sm() as u32,
                        warp: id.0,
                        fence_id,
                    });
                }
                true
            }
            KernelInstr::Load { addr, reg } => {
                let id = self.cores[i].id();
                let meta = ReqMeta { warp: id, seq: self.cores[i].next_seq() };
                mark_reg_pending(&mut self.pendings[i], reg);
                self.cores[i].advance(&mut self.curs[i], &mut self.states[i]);
                self.oc.allocate(MemReq::HostRead { addr, reg, meta }, id, None, now);
                self.stats.loads += 1;
                self.trace_issue(now, id, InstrKind::Load);
                true
            }
            KernelInstr::Compute { op, dst, a, b } => {
                let id = self.cores[i].id();
                let pending = self.pendings[i];
                let result = op
                    .apply(self.cores[i].read_reg(pending, a), self.cores[i].read_reg(pending, b));
                self.cores[i].write_reg(&mut self.pendings[i], dst, result);
                self.cores[i].advance(&mut self.curs[i], &mut self.states[i]);
                self.stats.computes += 1;
                self.trace_issue(now, id, InstrKind::Compute);
                true
            }
            KernelInstr::Store { addr, reg } => {
                let id = self.cores[i].id();
                let meta = ReqMeta { warp: id, seq: self.cores[i].next_seq() };
                let data = self.cores[i].read_reg(self.pendings[i], reg);
                self.cores[i].advance(&mut self.curs[i], &mut self.states[i]);
                self.oc.allocate(MemReq::HostWrite { addr, data, meta }, id, None, now);
                self.stats.stores += 1;
                self.trace_issue(now, id, InstrKind::Store);
                true
            }
        }
    }

    /// Advances the SM one core cycle: drains the operand collector into
    /// the LDST queue, counts fence stalls, and issues up to
    /// `issue_width` instructions round-robin across ready warps.
    /// Returns whether any instruction issued.
    pub fn tick(&mut self, now: CoreCycle) -> bool {
        self.cur_cycle = now;
        // Operand collector -> LDST queue.
        let space = self.cfg.ldst_capacity - self.ldst.len();
        let mut budget = space;
        let ldst = &mut self.ldst;
        self.oc.drain(now, |req| {
            if budget == 0 {
                return false;
            }
            budget -= 1;
            ldst.push_back(req.clone());
            true
        });

        // Fence-stall accounting: every warp parked at a fence burns a
        // stall cycle (the paper's "waiting cycles per fence").
        let parked =
            self.states.iter().filter(|s| matches!(s, WarpState::WaitFence { .. })).count() as u64;
        self.stats.fence_stall_cycles += parked;
        if parked > 0 && self.sink.is_enabled() {
            self.note_stall(TraceCause::FenceWait, now, now, parked);
        }

        // Issue round-robin across ready warps.
        let n = self.states.len();
        let mut issued = 0;
        // Round-robin from `rr`, wrapping without a division.
        let mut next = self.rr;
        for _ in 0..n {
            if issued >= self.cfg.issue_width {
                break;
            }
            let i = next;
            next = if i + 1 == n { 0 } else { i + 1 };
            let _ = self.cores[i].fetch(&mut self.curs[i], &mut self.states[i]);
            if self.states[i] != WarpState::Ready {
                continue;
            }
            if self.try_issue(i, now) {
                issued += 1;
                self.stats.issued += 1;
            }
        }
        self.rr = if self.rr + 1 >= n { 0 } else { self.rr + 1 };

        // Retirement is trace-only bookkeeping, so the scan is skipped
        // entirely when no real sink is attached.
        if self.sink.is_enabled() {
            for i in 0..self.states.len() {
                if !self.retired[i] && self.states[i] == WarpState::Done {
                    self.retired[i] = true;
                    let id = self.cores[i].id();
                    self.sink.emit(TraceEvent::WarpRetire {
                        cycle: now,
                        sm: id.sm() as u32,
                        warp: id.0,
                    });
                }
            }
        }
        issued > 0
    }

    /// Advances the SM across a quiescent window of `span` cycles — one
    /// in which [`tick`](Self::tick) would issue nothing and drain
    /// nothing. Per-cycle effects are applied in closed form: every
    /// fence-parked warp and every blocked ready warp charges its stall
    /// counter for the whole span (the blocker cannot change inside the
    /// window — every unblock source is itself a horizon event), and
    /// the round-robin pointer advances once per skipped cycle. With a
    /// live sink, the span-wide charge folds into the same `CoreStall`
    /// run the dense loop would have extended cycle by cycle
    /// (`note_stall`'s contiguity merge treats an
    /// N-cycle extension like N one-cycle ones), so the emitted
    /// run-length stream is byte-identical across cores. `WarpRetire`
    /// needs no synthesis: a warp's last drain pins the horizon, so
    /// retire scans always run densely. (The dense tick that performs a
    /// given scan may land a few cycles apart across cores, so retire
    /// *stamps* can differ while retire *counts* match — the profiler
    /// only counts them.)
    ///
    /// # Panics
    /// Panics if a ready warp could in fact issue — the caller skipped
    /// across activity, which violates the quiescence contract.
    pub fn skip_quiescent(&mut self, now: CoreCycle, span: u64) {
        self.cur_cycle = now + span - 1;
        for i in 0..self.states.len() {
            match self.states[i] {
                WarpState::WaitFence { .. } => {
                    self.stats.fence_stall_cycles += span;
                    if self.sink.is_enabled() {
                        self.note_stall(TraceCause::FenceWait, now, now + span - 1, span);
                    }
                }
                WarpState::Ready => {
                    let cause = self
                        .issue_block(i)
                        .expect("quiescent window skipped across an issuable warp");
                    self.charge(cause, now, span);
                }
                WarpState::Done => {}
            }
        }
        let n = self.states.len().max(1);
        self.rr = (self.rr + (span % n as u64) as usize) % n;
    }
}

/// Quiescence horizon of an SM. `Some(now)` whenever the SM could act
/// this cycle: the collector head can drain into a non-full LDST queue,
/// or some ready warp has no blocker (or an unfetched stream — fetching
/// could surface anything, so it is ticked densely). Otherwise the only
/// self-driven future event is the collector head's exit deadline;
/// fence acks, load data, credits and LDST drainage all arrive from
/// outside and are advertised by the components that produce them.
impl NextEvent for Sm {
    fn next_event(&self, now: u64) -> Option<u64> {
        let mut h = None;
        if let Some(exit) = self.oc.next_exit() {
            if exit > now {
                h = min_horizon(h, Some(exit));
            } else if self.ldst_has_space() {
                return Some(now);
            }
            // Ready head into a full LDST queue: unblocked by the
            // system's LDST-to-pipe pairing, not by this SM.
        }
        for i in 0..self.states.len() {
            if self.states[i] != WarpState::Ready {
                continue;
            }
            let needs_fetch = self.curs[i].is_none() && !self.cores[i].exhausted();
            if needs_fetch || self.issue_block(i).is_none() {
                return Some(now);
            }
        }
        h
    }
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("warps", &self.cores.len())
            .field("ldst", &self.ldst.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, Stripe, TsSlot};
    use orderlight::{AluOp, PimInstruction, PimOp, Reg, VecStream};

    fn pim(addr: u64) -> KernelInstr {
        KernelInstr::Pim(PimInstruction {
            op: PimOp::Load,
            addr: Addr(addr),
            slot: TsSlot(0),
            group: MemGroupId(0),
        })
    }

    fn sm_with(instrs: Vec<KernelInstr>) -> Sm {
        let warp =
            Warp::new(GlobalWarpId::new(0, 0), ChannelId(0), Box::new(VecStream::new(instrs)));
        Sm::new(SmConfig::default(), vec![warp])
    }

    fn drain_ldst(sm: &mut Sm) -> Vec<MemReq> {
        let mut v = Vec::new();
        while let Some(r) = sm.pop_ldst() {
            v.push(r);
        }
        v
    }

    #[test]
    fn pim_instructions_flow_through_oc_to_ldst() {
        let mut sm = sm_with(vec![pim(0), pim(32)]);
        for now in 0..10 {
            sm.tick(now);
        }
        let reqs = drain_ldst(&mut sm);
        assert_eq!(reqs.len(), 2);
        assert!(matches!(reqs[0], MemReq::Pim { .. }));
        assert_eq!(sm.stats().pim_issued, 2);
        assert!(sm.is_done());
    }

    #[test]
    fn orderlight_waits_for_oc_drain_but_not_for_memory() {
        let mut sm = sm_with(vec![
            pim(0),
            KernelInstr::Ordering(OrderingInstr::OrderLight { group: MemGroupId(0) }),
            pim(32),
        ]);
        let mut order = Vec::new();
        for now in 0..20 {
            sm.tick(now);
            order.extend(drain_ldst(&mut sm));
        }
        assert_eq!(order.len(), 3);
        assert!(matches!(order[0], MemReq::Pim { .. }));
        assert!(
            matches!(&order[1], MemReq::Marker(c) if matches!(c.marker, Marker::OrderLight(_))),
            "packet injected after the load left the collector"
        );
        assert!(matches!(order[2], MemReq::Pim { .. }));
        let s = sm.stats();
        assert_eq!(s.orderlights, 1);
        assert!(s.ol_wait_cycles > 0, "brief wait for the collector");
        assert!(
            s.ol_wait_cycles <= SmConfig::default().oc_latency + 2,
            "but only a few cycles, not a round trip"
        );
        assert!(sm.is_done(), "no stall waiting for memory");
    }

    #[test]
    fn fence_stalls_until_ack() {
        let mut sm = sm_with(vec![pim(0), KernelInstr::Ordering(OrderingInstr::Fence), pim(32)]);
        let mut seen = Vec::new();
        for now in 0..50 {
            sm.tick(now);
            seen.extend(drain_ldst(&mut sm));
        }
        // Load + probe are out; the post-fence PIM instruction is NOT.
        assert_eq!(seen.len(), 2);
        assert!(matches!(&seen[1], MemReq::Marker(c)
            if matches!(c.marker, Marker::FenceProbe { .. })));
        assert!(!sm.is_done());
        let stalls_before = sm.stats().fence_stall_cycles;
        assert!(stalls_before > 0);
        // Deliver the ack; the warp resumes.
        sm.deliver(MemResp::FenceAck { warp: GlobalWarpId::new(0, 0), fence_id: 1 });
        for now in 50..70 {
            sm.tick(now);
            seen.extend(drain_ldst(&mut sm));
        }
        assert_eq!(seen.len(), 3);
        assert!(sm.is_done());
    }

    #[test]
    fn host_load_compute_store_respects_dependences() {
        let a = Reg(1);
        let b = Reg(2);
        let c = Reg(3);
        let mut sm = sm_with(vec![
            KernelInstr::Load { addr: Addr(0), reg: a },
            KernelInstr::Load { addr: Addr(32), reg: b },
            KernelInstr::Compute { op: AluOp::Add, dst: c, a, b },
            KernelInstr::Store { addr: Addr(64), reg: c },
        ]);
        let mut out = Vec::new();
        for now in 0..30 {
            sm.tick(now);
            out.extend(drain_ldst(&mut sm));
        }
        // Both loads issue back to back (non-blocking), but the compute
        // and store wait for data.
        assert_eq!(out.len(), 2);
        assert!(sm.stats().reg_wait_cycles > 0);
        sm.deliver(MemResp::LoadData {
            warp: GlobalWarpId::new(0, 0),
            reg: a,
            data: Stripe::splat(30),
        });
        sm.deliver(MemResp::LoadData {
            warp: GlobalWarpId::new(0, 0),
            reg: b,
            data: Stripe::splat(12),
        });
        for now in 30..60 {
            sm.tick(now);
            out.extend(drain_ldst(&mut sm));
        }
        assert_eq!(out.len(), 3);
        match &out[2] {
            MemReq::HostWrite { data, .. } => assert_eq!(*data, Stripe::splat(42)),
            other => panic!("expected store, got {other:?}"),
        }
        assert!(sm.is_done());
        assert_eq!(sm.stats().computes, 1);
    }

    #[test]
    fn core_stall_events_conserve_the_stall_counters() {
        use orderlight_trace::RingSink;
        use std::sync::Arc;
        let ring = Arc::new(RingSink::new(100_000));
        let mut sm = sm_with(vec![pim(0), KernelInstr::Ordering(OrderingInstr::Fence), pim(32)]);
        sm.set_sink(ring.clone());
        for now in 0..50 {
            sm.tick(now);
            let _ = drain_ldst(&mut sm);
        }
        sm.deliver(MemResp::FenceAck { warp: GlobalWarpId::new(0, 0), fence_id: 1 });
        for now in 50..70 {
            sm.tick(now);
            let _ = drain_ldst(&mut sm);
        }
        sm.flush_stall_runs();
        let mut by_cause = std::collections::BTreeMap::new();
        for ev in ring.events() {
            if let TraceEvent::CoreStall { cause, cycles, .. } = ev {
                *by_cause.entry(cause).or_insert(0u64) += cycles;
            }
        }
        let s = sm.stats();
        let fence_attr = by_cause.get(&TraceCause::FenceWait).copied().unwrap_or(0)
            + by_cause.get(&TraceCause::FenceDrain).copied().unwrap_or(0);
        assert!(s.fence_stall_cycles > 0, "the fence must have stalled");
        assert_eq!(fence_attr, s.fence_stall_cycles);
        assert_eq!(
            by_cause.get(&TraceCause::Structural).copied().unwrap_or(0),
            s.structural_stall_cycles
        );
        assert_eq!(by_cause.values().sum::<u64>(), s.total_stalls(), "no cycle lost or invented");
    }

    #[test]
    fn round_robin_across_warps() {
        let w0 = Warp::new(
            GlobalWarpId::new(0, 0),
            ChannelId(0),
            Box::new(VecStream::new(vec![pim(0), pim(32)])),
        );
        let w1 = Warp::new(
            GlobalWarpId::new(0, 1),
            ChannelId(1),
            Box::new(VecStream::new(vec![pim(64), pim(96)])),
        );
        let mut sm = Sm::new(SmConfig::default(), vec![w0, w1]);
        for now in 0..20 {
            sm.tick(now);
        }
        let reqs = drain_ldst(&mut sm);
        assert_eq!(reqs.len(), 4);
        // Issue alternated between warps (round robin), so the first two
        // requests come from different warps.
        let warp_of = |r: &MemReq| r.meta().unwrap().warp;
        assert_ne!(warp_of(&reqs[0]), warp_of(&reqs[1]));
        assert!(sm.is_done());
    }
}
