//! Warp state: the program stream, SIMD registers with a pending-load
//! scoreboard, and ordering-primitive counters.
//!
//! The state is split in two so the SM can hold it struct-of-arrays:
//!
//! * [`WarpCore`] — the cold bulk (program stream, register file,
//!   sequence/fence/packet counters), touched only when an instruction
//!   actually issues or data arrives;
//! * the hot scheduler triple — [`WarpState`], the fetched head
//!   instruction, and the pending-register mask — which the SM stores
//!   in parallel vectors so its every-cycle ready-warp scan walks
//!   contiguous memory instead of chasing one `Box` per warp.
//!
//! [`Warp`] glues the two back together for standalone use (unit tests,
//! construction); [`Warp::into_parts`] hands the pieces to the SM.

use orderlight::types::{ChannelId, GlobalWarpId, MemGroupId, Stripe};
use orderlight::{InstrStream, KernelInstr};
use std::fmt;

/// Number of architectural registers modelled per warp.
pub const NUM_REGS: usize = 64;

/// Scheduling state of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// May issue instructions.
    Ready,
    /// Stalled at a fence, waiting for the controller's acknowledgement.
    WaitFence {
        /// The fence id the acknowledgement must carry.
        fence_id: u64,
    },
    /// Program exhausted.
    Done,
}

/// Whether `reg` has an outstanding load in the scoreboard mask.
#[must_use]
pub fn reg_is_pending(pending: u64, reg: orderlight::Reg) -> bool {
    pending & (1 << u32::from(reg.0)) != 0
}

/// Marks `reg` as awaiting load data in the scoreboard mask.
///
/// # Panics
/// Panics if `reg` is out of range.
pub fn mark_reg_pending(pending: &mut u64, reg: orderlight::Reg) {
    assert!((reg.0 as usize) < NUM_REGS, "register {reg} out of range");
    *pending |= 1 << u32::from(reg.0);
}

/// The cold bulk of a warp: program stream, register file, and the
/// monotonic sequence/fence/packet counters. The hot scheduler fields
/// (state, fetched head, pending mask) live outside — in [`Warp`] for
/// standalone use, or in the SM's parallel vectors — and are passed in
/// by reference to the methods that transition them.
pub struct WarpCore {
    id: GlobalWarpId,
    channel: ChannelId,
    program: Box<dyn InstrStream>,
    exhausted: bool,
    regs: Box<[Stripe; NUM_REGS]>,
    seq: u64,
    fence_counter: u64,
    ol_numbers: [u32; 16],
    release_versions: [u32; 16],
}

impl WarpCore {
    /// The warp's global identifier.
    #[must_use]
    pub fn id(&self) -> GlobalWarpId {
        self.id
    }

    /// The memory channel this warp drives.
    #[must_use]
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Whether the program stream has returned its last instruction.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The instruction at the head of the stream, fetching into `cur`
    /// lazily. Transitions `state` to [`WarpState::Done`] when the
    /// stream ends.
    pub fn fetch(
        &mut self,
        cur: &mut Option<KernelInstr>,
        state: &mut WarpState,
    ) -> Option<KernelInstr> {
        if cur.is_none() && !self.exhausted {
            *cur = self.program.next_instr();
            if cur.is_none() {
                self.exhausted = true;
                if *state == WarpState::Ready {
                    *state = WarpState::Done;
                }
            }
        }
        *cur
    }

    /// Consumes the current instruction after a successful issue.
    ///
    /// # Panics
    /// Panics if there is no current instruction.
    pub fn advance(&mut self, cur: &mut Option<KernelInstr>, state: &mut WarpState) {
        assert!(cur.take().is_some(), "advance without a current instruction");
        // Prefetch so `Done` is observed promptly.
        let _ = self.fetch(cur, state);
    }

    /// Blocks the warp at a fence; returns the fence id for the probe.
    pub fn enter_fence(&mut self, state: &mut WarpState) -> u64 {
        self.fence_counter += 1;
        *state = WarpState::WaitFence { fence_id: self.fence_counter };
        self.fence_counter
    }

    /// Delivers a fence acknowledgement; returns whether it unblocked
    /// the warp. `head_empty` is whether the fetched head slot is empty
    /// (an exhausted stream with no head goes straight to `Done`).
    pub fn fence_ack(&mut self, fence_id: u64, head_empty: bool, state: &mut WarpState) -> bool {
        if *state == (WarpState::WaitFence { fence_id }) {
            *state = if self.exhausted && head_empty { WarpState::Done } else { WarpState::Ready };
            true
        } else {
            false
        }
    }

    /// Next per-warp request sequence number.
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Next OrderLight packet number for `group` (paper Figure 8's
    /// per-channel, per-memory-group packet number).
    pub fn next_ol_number(&mut self, group: MemGroupId) -> u32 {
        let n = &mut self.ol_numbers[group.index()];
        *n += 1;
        *n
    }

    /// Next Louvre release version for `group` (per-warp, per-group
    /// version counter stamped into release markers).
    pub fn next_release_version(&mut self, group: MemGroupId) -> u32 {
        let n = &mut self.release_versions[group.index()];
        *n += 1;
        *n
    }

    /// Reads a register.
    ///
    /// # Panics
    /// Panics if the register is out of range or still pending in the
    /// scoreboard mask — the SM must check the scoreboard first.
    #[must_use]
    pub fn read_reg(&self, pending: u64, reg: orderlight::Reg) -> Stripe {
        assert!(!reg_is_pending(pending, reg), "read of pending register {reg}");
        self.regs[reg.0 as usize]
    }

    /// Writes a register, clearing any pending mark in the scoreboard
    /// mask (load completion or in-core compute).
    pub fn write_reg(&mut self, pending: &mut u64, reg: orderlight::Reg, value: Stripe) {
        self.regs[reg.0 as usize] = value;
        *pending &= !(1 << u32::from(reg.0));
    }
}

impl fmt::Debug for WarpCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarpCore")
            .field("id", &self.id)
            .field("channel", &self.channel)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

/// One warp executing a kernel instruction stream — the standalone
/// (array-of-structs) view over [`WarpCore`] plus the hot scheduler
/// fields.
pub struct Warp {
    core: WarpCore,
    cur: Option<KernelInstr>,
    state: WarpState,
    pending: u64,
}

impl Warp {
    /// Creates a warp pinned to `channel`, executing `program`.
    #[must_use]
    pub fn new(id: GlobalWarpId, channel: ChannelId, program: Box<dyn InstrStream>) -> Self {
        Warp {
            core: WarpCore {
                id,
                channel,
                program,
                exhausted: false,
                regs: Box::new([Stripe::default(); NUM_REGS]),
                seq: 0,
                fence_counter: 0,
                ol_numbers: [0; 16],
                release_versions: [0; 16],
            },
            cur: None,
            state: WarpState::Ready,
            pending: 0,
        }
    }

    /// Splits the warp into its cold core and the hot scheduler triple
    /// (state, fetched head, pending-register mask) for SoA storage.
    #[must_use]
    pub fn into_parts(self) -> (WarpCore, WarpState, Option<KernelInstr>, u64) {
        (self.core, self.state, self.cur, self.pending)
    }

    /// The warp's global identifier.
    #[must_use]
    pub fn id(&self) -> GlobalWarpId {
        self.core.id()
    }

    /// The memory channel this warp drives.
    #[must_use]
    pub fn channel(&self) -> ChannelId {
        self.core.channel()
    }

    /// Current scheduling state.
    #[must_use]
    pub fn state(&self) -> WarpState {
        self.state
    }

    /// The instruction at the head of the stream (fetching lazily).
    /// Transitions to [`WarpState::Done`] when the stream ends.
    pub fn current(&mut self) -> Option<KernelInstr> {
        self.core.fetch(&mut self.cur, &mut self.state)
    }

    /// Whether the head of the stream has not been fetched yet. The
    /// horizon treats such a warp conservatively (tick it densely):
    /// fetching could surface any instruction, including one that can
    /// issue immediately.
    #[must_use]
    pub fn needs_fetch(&self) -> bool {
        self.cur.is_none() && !self.core.exhausted()
    }

    /// Consumes the current instruction after a successful issue.
    ///
    /// # Panics
    /// Panics if there is no current instruction.
    pub fn advance(&mut self) {
        self.core.advance(&mut self.cur, &mut self.state);
    }

    /// Blocks the warp at a fence; returns the fence id for the probe.
    pub fn enter_fence(&mut self) -> u64 {
        self.core.enter_fence(&mut self.state)
    }

    /// Delivers a fence acknowledgement; returns whether it unblocked the
    /// warp.
    pub fn fence_ack(&mut self, fence_id: u64) -> bool {
        self.core.fence_ack(fence_id, self.cur.is_none(), &mut self.state)
    }

    /// Next per-warp request sequence number.
    pub fn next_seq(&mut self) -> u64 {
        self.core.next_seq()
    }

    /// Next OrderLight packet number for `group` (paper Figure 8's
    /// per-channel, per-memory-group packet number).
    pub fn next_ol_number(&mut self, group: MemGroupId) -> u32 {
        self.core.next_ol_number(group)
    }

    /// Next Louvre release version for `group` (per-warp, per-group
    /// version counter stamped into release markers).
    pub fn next_release_version(&mut self, group: MemGroupId) -> u32 {
        self.core.next_release_version(group)
    }

    /// Whether `reg` has an outstanding load.
    #[must_use]
    pub fn is_pending(&self, reg: orderlight::Reg) -> bool {
        reg_is_pending(self.pending, reg)
    }

    /// Marks `reg` as awaiting load data.
    ///
    /// # Panics
    /// Panics if `reg` is out of range.
    pub fn mark_pending(&mut self, reg: orderlight::Reg) {
        mark_reg_pending(&mut self.pending, reg);
    }

    /// Reads a register.
    ///
    /// # Panics
    /// Panics if the register is out of range or still pending — the SM
    /// must check the scoreboard first.
    #[must_use]
    pub fn read_reg(&self, reg: orderlight::Reg) -> Stripe {
        self.core.read_reg(self.pending, reg)
    }

    /// Writes a register, clearing any pending mark (load completion or
    /// in-core compute).
    pub fn write_reg(&mut self, reg: orderlight::Reg, value: Stripe) {
        self.core.write_reg(&mut self.pending, reg, value);
    }
}

impl fmt::Debug for Warp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Warp")
            .field("id", &self.core.id())
            .field("channel", &self.core.channel())
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::types::Addr;
    use orderlight::{Reg, VecStream};

    fn warp_with(instrs: Vec<KernelInstr>) -> Warp {
        Warp::new(GlobalWarpId::new(0, 0), ChannelId(3), Box::new(VecStream::new(instrs)))
    }

    #[test]
    fn empty_program_is_done_immediately() {
        let mut w = warp_with(vec![]);
        assert_eq!(w.current(), None);
        assert_eq!(w.state(), WarpState::Done);
    }

    #[test]
    fn current_and_advance_walk_the_stream() {
        let i1 = KernelInstr::Load { addr: Addr(0), reg: Reg(1) };
        let i2 = KernelInstr::Load { addr: Addr(32), reg: Reg(2) };
        let mut w = warp_with(vec![i1, i2]);
        assert_eq!(w.current(), Some(i1));
        assert_eq!(w.current(), Some(i1), "peeking does not consume");
        w.advance();
        assert_eq!(w.current(), Some(i2));
        w.advance();
        assert_eq!(w.current(), None);
        assert_eq!(w.state(), WarpState::Done);
    }

    #[test]
    fn fence_blocks_and_ack_releases() {
        let i = KernelInstr::Load { addr: Addr(0), reg: Reg(1) };
        let mut w = warp_with(vec![i]);
        let id = w.enter_fence();
        assert_eq!(w.state(), WarpState::WaitFence { fence_id: id });
        assert!(!w.fence_ack(id + 1), "wrong id ignored");
        assert!(w.fence_ack(id));
        assert_eq!(w.state(), WarpState::Ready);
    }

    #[test]
    fn fence_ack_on_exhausted_program_goes_done() {
        let mut w = warp_with(vec![]);
        let _ = w.current();
        let id = w.enter_fence();
        assert!(w.fence_ack(id));
        assert_eq!(w.state(), WarpState::Done);
    }

    #[test]
    fn register_scoreboard() {
        let mut w = warp_with(vec![]);
        let r = Reg(5);
        assert!(!w.is_pending(r));
        w.mark_pending(r);
        assert!(w.is_pending(r));
        w.write_reg(r, Stripe::splat(9));
        assert!(!w.is_pending(r));
        assert_eq!(w.read_reg(r), Stripe::splat(9));
    }

    #[test]
    #[should_panic(expected = "pending register")]
    fn reading_pending_register_panics() {
        let mut w = warp_with(vec![]);
        w.mark_pending(Reg(1));
        let _ = w.read_reg(Reg(1));
    }

    #[test]
    fn counters_are_monotonic() {
        let mut w = warp_with(vec![]);
        assert_eq!(w.next_seq(), 1);
        assert_eq!(w.next_seq(), 2);
        assert_eq!(w.next_ol_number(MemGroupId(0)), 1);
        assert_eq!(w.next_ol_number(MemGroupId(0)), 2);
        assert_eq!(w.next_ol_number(MemGroupId(1)), 1, "groups count separately");
    }

    #[test]
    fn into_parts_round_trips_the_hot_fields() {
        let i = KernelInstr::Load { addr: Addr(0), reg: Reg(1) };
        let mut w = warp_with(vec![i]);
        assert_eq!(w.current(), Some(i));
        w.mark_pending(Reg(7));
        let (core, state, cur, pending) = w.into_parts();
        assert_eq!(core.id(), GlobalWarpId::new(0, 0));
        assert_eq!(core.channel(), ChannelId(3));
        assert_eq!(state, WarpState::Ready);
        assert_eq!(cur, Some(i));
        assert!(reg_is_pending(pending, Reg(7)));
        assert!(!reg_is_pending(pending, Reg(6)));
    }
}
