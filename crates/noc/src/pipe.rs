//! One channel's end-to-end memory pipe: interconnect queue, L2 slice,
//! L2-to-DRAM queue, and the response path.

use crate::delay_queue::DelayQueue;
use crate::l2::L2Slice;
use orderlight::message::{MemReq, MemResp};
use orderlight::slab::{Slab, SlabRef};
use orderlight::types::CoreCycle;
use orderlight::{min_horizon, NextEvent};
use orderlight_trace::{sink::nop_sink, SharedSink, TraceEvent};

/// Core-cycle stride between [`TraceEvent::PipeSample`] occupancy
/// samples (matches the controller's queue-sample stride).
const SAMPLE_STRIDE: u64 = 64;

/// Memory-pipe latencies and capacities (core-clock cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeConfig {
    /// SM-to-L2 interconnect latency (Table 1: 120 cycles).
    pub icnt_latency: CoreCycle,
    /// Interconnect queue capacity.
    pub icnt_capacity: usize,
    /// L2 sub-partition queue latency.
    pub sub_latency: CoreCycle,
    /// L2 sub-partition queue capacity (Table 1: L2 queue size 64,
    /// split across two sub-partitions).
    pub sub_capacity: usize,
    /// L2-to-DRAM-scheduler latency (Table 1: 100 cycles).
    pub l2_out_latency: CoreCycle,
    /// L2-to-DRAM queue capacity.
    pub l2_out_capacity: usize,
    /// Response-path latency back to the SM (the downward latencies in
    /// reverse).
    pub return_latency: CoreCycle,
    /// Response-path capacity.
    pub return_capacity: usize,
    /// Acknowledge fence probes at the L2 slice exit (the global
    /// serialization point) instead of at the controller — the
    /// *insufficient* baseline fence of paper Section 4.3. Off by
    /// default.
    pub fence_ack_at_l2: bool,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            icnt_latency: 120,
            icnt_capacity: 64,
            sub_latency: 4,
            sub_capacity: 32,
            l2_out_latency: 100,
            l2_out_capacity: 64,
            return_latency: 220,
            return_capacity: 1024,
            fence_ack_at_l2: false,
        }
    }
}

/// One memory channel's pipe between the SMs and its memory controller.
///
/// # Example
///
/// ```
/// use orderlight::message::{MemReq, ReqMeta};
/// use orderlight::types::{Addr, GlobalWarpId, MemGroupId, TsSlot};
/// use orderlight::{PimInstruction, PimOp};
/// use orderlight_noc::{MemoryPipe, PipeConfig};
///
/// let cfg = PipeConfig::default();
/// let mut pipe = MemoryPipe::new(&cfg);
/// pipe.push_request(
///     MemReq::Pim {
///         instr: PimInstruction {
///             op: PimOp::Load,
///             addr: Addr(0),
///             slot: TsSlot(0),
///             group: MemGroupId(0),
///         },
///         meta: ReqMeta { warp: GlobalWarpId::new(0, 0), seq: 0 },
///     },
///     0,
/// );
/// let mut now = 0;
/// loop {
///     pipe.tick(now);
///     if let Some(req) = pipe.pop_mc(now) {
///         assert!(req.is_pim());
///         break;
///     }
///     now += 1;
/// }
/// // It took roughly the interconnect + L2 + scheduler latencies.
/// assert!(now >= cfg.icnt_latency + cfg.l2_out_latency);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryPipe {
    /// Packet bodies for everything in `icnt`, the L2 slice and `out`.
    /// The request-path queues move [`SlabRef`] handles; a body is
    /// inserted once at [`push_request`](Self::push_request) and removed
    /// once at [`pop_mc`](Self::pop_mc) (markers additionally
    /// diverge/converge inside the L2 slice).
    arena: Slab<MemReq>,
    icnt: DelayQueue<SlabRef>,
    l2: L2Slice,
    out: DelayQueue<SlabRef>,
    ret: DelayQueue<MemResp>,
    sink: SharedSink,
    channel_id: u8,
}

impl MemoryPipe {
    /// Creates a pipe with the given configuration.
    #[must_use]
    pub fn new(cfg: &PipeConfig) -> Self {
        MemoryPipe {
            arena: Slab::with_capacity(cfg.icnt_capacity + cfg.l2_out_capacity),
            icnt: DelayQueue::new(cfg.icnt_latency, cfg.icnt_capacity),
            l2: L2Slice::with_fence_ack(cfg.sub_latency, cfg.sub_capacity, cfg.fence_ack_at_l2),
            out: DelayQueue::new(cfg.l2_out_latency, cfg.l2_out_capacity),
            ret: DelayQueue::new(cfg.return_latency, cfg.return_capacity),
            sink: nop_sink(),
            channel_id: 0,
        }
    }

    /// Attaches a trace sink stamping this pipe's occupancy samples
    /// with `channel`. Sinks only observe; attaching one never changes
    /// pipe behaviour.
    pub fn set_sink(&mut self, sink: SharedSink, channel: u8) {
        self.sink = sink;
        self.channel_id = channel;
    }

    /// Enables seeded traversal jitter (fault injection) on the request
    /// path: pushes into the interconnect and L2-to-DRAM queues each
    /// draw up to `max_extra` extra cycles. FIFO order within each queue
    /// is preserved, so requests are only delayed, never reordered past
    /// markers — the perturbation is schedule-legal.
    pub fn set_jitter(&mut self, seed: u64, max_extra: u64) {
        let mut split = orderlight::rng::Rng::new(seed);
        self.icnt.set_jitter(split.next_u64(), max_extra);
        self.out.set_jitter(split.next_u64(), max_extra);
    }

    /// Whether a request can enter the pipe this cycle.
    #[must_use]
    #[inline]
    pub fn can_push(&self) -> bool {
        self.icnt.has_space()
    }

    /// Injects a request at the SM end.
    ///
    /// # Panics
    /// Panics if [`can_push`](Self::can_push) is false.
    #[inline]
    pub fn push_request(&mut self, req: MemReq, now: CoreCycle) {
        let handle = self.arena.insert(req);
        self.icnt.push(handle, now);
    }

    /// Advances the pipe's internal stages one core cycle.
    pub fn tick(&mut self, now: CoreCycle) {
        if self.sink.is_enabled() && now.is_multiple_of(SAMPLE_STRIDE) {
            self.sink.emit(TraceEvent::PipeSample {
                cycle: now,
                channel: self.channel_id,
                in_flight: (self.icnt.len() + self.l2.len() + self.out.len()) as u32,
                returning: self.ret.len() as u32,
            });
        }
        // Interconnect head into the L2 slice.
        if let Some(&head) = self.icnt.peek_ready(now) {
            if self.l2.can_accept(self.arena.get(head)) {
                let handle = self.icnt.pop_ready(now).expect("peeked ready");
                self.l2.push(handle, &mut self.arena, now);
            }
        }
        // L2 sub-partitions into the L2-to-DRAM queue (copy-and-merge
        // happens inside).
        self.l2.tick(now, &mut self.out, &mut self.arena);
        // L2-level fence acknowledgements (only in the insufficient
        // fence-scope ablation) go straight onto the response path.
        for (warp, fence_id) in self.l2.take_acks() {
            self.ret.push(MemResp::FenceAck { warp, fence_id }, now);
        }
    }

    /// Peeks at the request ready to enter the memory controller.
    #[must_use]
    #[inline]
    pub fn peek_mc(&self, now: CoreCycle) -> Option<&MemReq> {
        self.out.peek_ready(now).map(|&r| self.arena.get(r))
    }

    /// Pops the request ready to enter the memory controller, retiring
    /// its body from the arena.
    #[inline]
    pub fn pop_mc(&mut self, now: CoreCycle) -> Option<MemReq> {
        self.out.pop_ready(now).map(|r| self.arena.remove(r))
    }

    /// Injects a response at the controller end.
    #[inline]
    pub fn push_response(&mut self, resp: MemResp, now: CoreCycle) {
        // The response path is sized generously; if it ever fills we drop
        // to a panic rather than silently losing a response.
        self.ret.push(resp, now);
    }

    /// Pops a response ready to be delivered to its SM.
    #[inline]
    pub fn pop_response(&mut self, now: CoreCycle) -> Option<MemResp> {
        self.ret.pop_ready(now)
    }

    /// Whether the pipe holds no traffic in either direction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.icnt.is_empty() && self.l2.is_empty() && self.out.is_empty() && self.ret.is_empty()
    }

    /// Marker merges completed at the L2 slice exit.
    #[must_use]
    pub fn l2_merges(&self) -> u64 {
        self.l2.merges()
    }

    /// Advances the pipe across a quiescent window of `span` cycles
    /// (one in which [`tick`](Self::tick) would move no traffic). The
    /// delay queues store absolute ready stamps, so only the L2 slice's
    /// round-robin pointer needs closed-form advancement.
    ///
    /// With a live sink attached the window's occupancy samples are
    /// synthesized here: the dense loop emits a
    /// [`TraceEvent::PipeSample`] at every `SAMPLE_STRIDE` boundary,
    /// and a quiescent window moves no traffic, so every sample inside
    /// `[now, now + span)` carries the occupancies frozen at `now` —
    /// the event core's sample stream is byte-identical to the dense
    /// core's.
    pub fn skip_quiescent(&mut self, now: CoreCycle, span: u64) {
        if self.sink.is_enabled() {
            let in_flight = (self.icnt.len() + self.l2.len() + self.out.len()) as u32;
            let returning = self.ret.len() as u32;
            let mut cycle = now.next_multiple_of(SAMPLE_STRIDE);
            while cycle < now + span {
                self.sink.emit(TraceEvent::PipeSample {
                    cycle,
                    channel: self.channel_id,
                    in_flight,
                    returning,
                });
                cycle += SAMPLE_STRIDE;
            }
        }
        self.l2.skip_quiescent(now, span, &self.arena);
    }
}

/// Quiescence horizon of the whole pipe: the earliest head deadline
/// among the stage queues, clamped to `now`. A ready head may still be
/// blocked (an L2 sub-partition or the out queue full, a marker copy
/// waiting for its sibling, a controller that cannot accept), so the
/// horizon can be early; an early horizon only costs a tick that moves
/// nothing, which is exact, and a blocked pipe is rare outside cycles
/// its busy controller runs anyway. Reading five queue heads is much
/// cheaper than deciding whether each could move.
impl NextEvent for MemoryPipe {
    fn next_event(&self, now: u64) -> Option<u64> {
        [self.icnt.next_ready(), self.out.next_ready(), self.ret.next_ready()]
            .into_iter()
            .fold(self.l2.next_ready(), min_horizon)
            .map(|ready| ready.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::message::{Marker, MarkerCopy, ReqMeta};
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

    #[test]
    fn end_to_end_latency_is_sum_of_stages() {
        let cfg = PipeConfig::default();
        let mut pipe = MemoryPipe::new(&cfg);
        pipe.push_request(pim(0, 0), 0);
        let mut now = 0;
        loop {
            pipe.tick(now);
            if pipe.peek_mc(now).is_some() {
                break;
            }
            now += 1;
            assert!(now < 1000, "request never surfaced");
        }
        // 120 (icnt) + 4 (sub-partition) + 100 (L2-to-DRAM) plus a couple
        // of transfer cycles.
        let expected = cfg.icnt_latency + cfg.sub_latency + cfg.l2_out_latency;
        assert!(
            (now as i64 - expected as i64).unsigned_abs() <= 2,
            "latency {now} vs expected {expected}"
        );
    }

    #[test]
    fn responses_take_the_return_latency() {
        let cfg = PipeConfig::default();
        let mut pipe = MemoryPipe::new(&cfg);
        let resp = MemResp::FenceAck { warp: GlobalWarpId(0), fence_id: 1 };
        pipe.push_response(resp, 100);
        assert!(pipe.pop_response(100 + cfg.return_latency - 1).is_none());
        assert_eq!(pipe.pop_response(100 + cfg.return_latency), Some(resp));
    }

    #[test]
    fn marker_survives_the_full_pipe() {
        let cfg = PipeConfig::default();
        let mut pipe = MemoryPipe::new(&cfg);
        pipe.push_request(pim(0, 0), 0);
        pipe.push_request(
            MemReq::Marker(MarkerCopy {
                marker: Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), 1)),
                total_copies: 1,
            }),
            0,
        );
        pipe.push_request(pim(32, 1), 0);
        let mut got = Vec::new();
        for now in 0..2000 {
            pipe.tick(now);
            while let Some(r) = pipe.pop_mc(now) {
                got.push(r);
            }
        }
        assert_eq!(got.len(), 3);
        assert!(matches!(&got[0], MemReq::Pim { meta, .. } if meta.seq == 0));
        assert!(matches!(&got[1], MemReq::Marker(_)), "marker preserved in order");
        assert!(matches!(&got[2], MemReq::Pim { meta, .. } if meta.seq == 1));
        assert!(pipe.is_empty());
        assert_eq!(pipe.l2_merges(), 1);
    }

    #[test]
    fn backpressure_reported_at_entry() {
        let cfg = PipeConfig { icnt_capacity: 2, ..PipeConfig::default() };
        let mut pipe = MemoryPipe::new(&cfg);
        pipe.push_request(pim(0, 0), 0);
        pipe.push_request(pim(32, 1), 0);
        assert!(!pipe.can_push());
    }
}
