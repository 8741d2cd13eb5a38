//! Per-bank DRAM state machine.
//!
//! Each bank tracks which row (if any) is open plus a set of
//! "earliest-allowed" timestamps derived from the timing parameters. The
//! channel ([`crate::channel`]) layers the shared-bus constraints (tCCDL,
//! tRRD) on top.

use crate::command::ColKind;
use crate::timing::TimingParams;
use orderlight::types::MemCycle;
use orderlight::NextEvent;

/// Row state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// No row open; an ACT may be issued (subject to tRP/tRC).
    Closed,
    /// `row` is open; column commands may be issued (subject to tRCD).
    Open {
        /// The open row.
        row: u32,
    },
}

/// One DRAM bank.
#[derive(Debug, Clone)]
pub struct Bank {
    state: BankState,
    /// Earliest cycle an ACT may issue.
    next_act: MemCycle,
    /// Earliest cycle a column read may issue.
    next_rd: MemCycle,
    /// Earliest cycle a column write may issue.
    next_wr: MemCycle,
    /// Earliest cycle a PRE may issue.
    next_pre: MemCycle,
    /// Cycle of the most recent ACT (row-residency tracing).
    opened_at: MemCycle,
}

impl Bank {
    /// Creates a closed, idle bank.
    #[must_use]
    pub fn new() -> Self {
        Bank {
            state: BankState::Closed,
            next_act: 0,
            next_rd: 0,
            next_wr: 0,
            next_pre: 0,
            opened_at: 0,
        }
    }

    /// Current row state.
    #[must_use]
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u32> {
        match self.state {
            BankState::Open { row } => Some(row),
            BankState::Closed => None,
        }
    }

    /// The cycle the currently open row was activated, if a row is open
    /// (row-residency intervals for tracing).
    #[must_use]
    pub fn open_since(&self) -> Option<MemCycle> {
        matches!(self.state, BankState::Open { .. }).then_some(self.opened_at)
    }

    /// Whether an ACT may issue at `now`.
    #[must_use]
    pub fn can_activate(&self, now: MemCycle) -> bool {
        self.state == BankState::Closed && now >= self.next_act
    }

    /// Whether a column access of `kind` may issue at `now` to `row`.
    #[must_use]
    pub fn can_column(&self, row: u32, kind: ColKind, now: MemCycle) -> bool {
        self.state == (BankState::Open { row })
            && match kind {
                ColKind::Read => now >= self.next_rd,
                ColKind::Write => now >= self.next_wr,
            }
    }

    /// Whether a PRE may issue at `now`.
    #[must_use]
    pub fn can_precharge(&self, now: MemCycle) -> bool {
        matches!(self.state, BankState::Open { .. }) && now >= self.next_pre
    }

    /// Earliest cycle at which a column access of `kind` could issue to
    /// `row`, accounting for the commands needed to get there (PRE/ACT),
    /// ignoring channel-level constraints. Used by the scheduler for
    /// row-hit prioritisation lookahead.
    #[must_use]
    pub fn earliest_column(
        &self,
        row: u32,
        kind: ColKind,
        now: MemCycle,
        t: &TimingParams,
    ) -> MemCycle {
        // Saturating: a timer near `u64::MAX` must clamp to "never",
        // not wrap into the past (the event core would read a wrapped
        // horizon as already due).
        let col_ready = |act_at: MemCycle| match kind {
            ColKind::Read => act_at.saturating_add(t.rcd_rd),
            ColKind::Write => act_at.saturating_add(t.rcd_wr),
        };
        match self.state {
            BankState::Open { row: r } if r == row => match kind {
                ColKind::Read => now.max(self.next_rd),
                ColKind::Write => now.max(self.next_wr),
            },
            BankState::Open { .. } => {
                let pre_at = now.max(self.next_pre);
                let act_at = pre_at.saturating_add(t.rp).max(self.next_act);
                col_ready(act_at)
            }
            BankState::Closed => col_ready(now.max(self.next_act)),
        }
    }

    /// Applies an ACT of `row` at `now`.
    ///
    /// # Panics
    /// Panics if the command violates timing — callers must check
    /// [`can_activate`](Self::can_activate) first. The state machine is
    /// deliberately strict so that scheduler bugs surface immediately.
    pub fn activate(&mut self, row: u32, now: MemCycle, t: &TimingParams) {
        assert!(self.can_activate(now), "ACT violates timing at {now}");
        self.state = BankState::Open { row };
        self.opened_at = now;
        self.next_rd = now.saturating_add(t.rcd_rd);
        self.next_wr = now.saturating_add(t.rcd_wr);
        self.next_pre = now.saturating_add(t.ras);
        // Same-bank ACT-to-ACT (tRC) even across the next PRE.
        self.next_act = now.saturating_add(t.rc());
    }

    /// Applies a column access at `now`.
    ///
    /// # Panics
    /// Panics if the command violates timing.
    pub fn column(&mut self, row: u32, kind: ColKind, now: MemCycle, t: &TimingParams) {
        assert!(self.can_column(row, kind, now), "{kind:?} violates timing at {now}");
        // Same-bank column-to-column spacing (tCCDL); cross-bank spacing
        // (tCCD) is enforced by the channel.
        self.next_rd = self.next_rd.max(now.saturating_add(t.ccdl));
        self.next_wr = self.next_wr.max(now.saturating_add(t.ccdl));
        match kind {
            ColKind::Read => {
                self.next_pre = self.next_pre.max(now.saturating_add(t.rtp));
                // Read-to-write turnaround on the same bank.
                self.next_wr = self.next_wr.max(now.saturating_add(t.cdlr));
            }
            ColKind::Write => {
                self.next_pre = self.next_pre.max(now.saturating_add(t.wtp));
                // Write-to-read needs the write to retire (tWL + tWR).
                self.next_rd = self.next_rd.max(now.saturating_add(t.wl + t.wr));
            }
        }
    }

    /// Applies a PRE at `now`.
    ///
    /// # Panics
    /// Panics if the command violates timing.
    pub fn precharge(&mut self, now: MemCycle, t: &TimingParams) {
        assert!(self.can_precharge(now), "PRE violates timing at {now}");
        self.state = BankState::Closed;
        self.next_act = self.next_act.max(now.saturating_add(t.rp));
    }

    /// Earliest cycle a PRE may legally issue (absolute timestamp; the
    /// refresh-horizon computation needs it for open banks).
    #[must_use]
    pub fn next_precharge_at(&self) -> MemCycle {
        self.next_pre
    }
}

/// Quiescence horizon of a bank: the earliest cycle a currently-blocked
/// DRAM command to this bank could become legal. A bank never acts on
/// its own, so this is never `None` — the controller layer converts
/// "no work queued" into idleness; the bank only answers "when would a
/// scheduler retry be worth it".
impl NextEvent for Bank {
    fn next_event(&self, now: u64) -> Option<u64> {
        match self.state {
            // Closed: only an ACT applies, legal once tRC/tRP elapse.
            BankState::Closed => Some(now.max(self.next_act)),
            // Open: a column or PRE applies; earliest expiring timer.
            BankState::Open { .. } => {
                Some(now.max(self.next_rd.min(self.next_wr).min(self.next_pre)))
            }
        }
    }
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::hbm_table1()
    }

    #[test]
    fn act_then_write_respects_rcdw() {
        let t = t();
        let mut b = Bank::new();
        assert!(b.can_activate(0));
        b.activate(5, 0, &t);
        assert_eq!(b.open_row(), Some(5));
        assert!(!b.can_column(5, ColKind::Write, t.rcd_wr - 1));
        assert!(b.can_column(5, ColKind::Write, t.rcd_wr));
        assert!(!b.can_column(4, ColKind::Write, t.rcd_wr), "wrong row");
    }

    #[test]
    fn precharge_respects_ras_and_wtp() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        assert!(!b.can_precharge(t.ras - 1));
        assert!(b.can_precharge(t.ras));
        // A late write pushes the precharge point to write + tWTP.
        b.column(1, ColKind::Write, 30, &t);
        assert!(!b.can_precharge(30 + t.wtp - 1));
        assert!(b.can_precharge(30 + t.wtp));
    }

    #[test]
    fn act_to_act_same_bank_respects_rc() {
        let t = t();
        let mut b = Bank::new();
        b.activate(1, 0, &t);
        b.precharge(t.ras, &t);
        assert!(!b.can_activate(t.rc() - 1));
        assert!(b.can_activate(t.rc()));
    }

    #[test]
    fn read_write_turnaround() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 0, &t);
        b.column(0, ColKind::Read, t.rcd_rd, &t);
        // Write blocked until read-to-write turnaround elapses.
        assert!(!b.can_column(0, ColKind::Write, t.rcd_rd + t.cdlr - 1));
        assert!(b.can_column(0, ColKind::Write, t.rcd_rd + t.cdlr.max(t.rcd_wr - t.rcd_rd)));
    }

    #[test]
    fn figure11_exact_window() {
        // ACT @ 0, 8 writes @ 9,11,...,23, PRE @ 32, next ACT legal @ 44.
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 0, &t);
        let mut now = t.rcd_wr;
        for i in 0..8 {
            let at = t.rcd_wr + 2 * i;
            assert!(b.can_column(0, ColKind::Write, at), "write {i} blocked at {at}");
            b.column(0, ColKind::Write, at, &t);
            now = at;
        }
        let pre_at = now + t.wtp; // 23 + 9 = 32
        assert!(!b.can_precharge(pre_at - 1));
        b.precharge(pre_at, &t);
        let act_at = pre_at + t.rp; // 44
        assert!(!b.can_activate(act_at - 1));
        assert!(b.can_activate(act_at));
        assert_eq!(act_at, t.row_window_writes(8));
    }

    #[test]
    fn earliest_column_lookahead() {
        let t = t();
        let mut b = Bank::new();
        // Closed bank: ACT now, column at rcd.
        assert_eq!(b.earliest_column(3, ColKind::Write, 10, &t), 10 + t.rcd_wr);
        b.activate(3, 0, &t);
        // Row hit: immediately once rcd elapsed.
        assert_eq!(b.earliest_column(3, ColKind::Write, 20, &t), 20);
        // Row conflict: PRE (>= ras) + RP + RCD, also bounded by tRC.
        let e = b.earliest_column(9, ColKind::Write, 20, &t);
        assert_eq!(e, (t.ras + t.rp).max(t.rc()) + t.rcd_wr);
    }

    #[test]
    #[should_panic(expected = "violates timing")]
    fn strict_state_machine_panics_on_violation() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 0, &t);
        b.column(0, ColKind::Write, 1, &t); // before tRCDW
    }

    #[test]
    fn timers_saturate_instead_of_wrapping_near_u64_max() {
        let t = t();
        let mut b = Bank::new();
        let now = u64::MAX - 2;
        assert!(b.can_activate(now));
        b.activate(7, now, &t);
        // Every timer clamps to "never" instead of wrapping behind
        // `now`, which the event core would read as already due.
        assert_eq!(b.next_event(now), Some(u64::MAX));
        assert_eq!(b.next_precharge_at(), u64::MAX);
        // The scheduler's row-miss lookahead saturates too.
        assert_eq!(b.earliest_column(8, ColKind::Read, now, &t), u64::MAX);
    }
}
