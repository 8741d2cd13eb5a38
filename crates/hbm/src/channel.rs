//! A memory channel: banks plus shared command/data-bus constraints and
//! the functional store.
//!
//! The channel enforces the constraints that span banks: tCCDL between
//! column commands on the shared bus (the spacing Figure 11 uses between
//! back-to-back PIM commands) and tRRD between activates to different
//! banks. Everything bank-local is delegated to [`Bank`].

use crate::bank::Bank;
use crate::command::{ColKind, DramCommand};
use crate::storage::{FunctionalStore, RowSlot};
use crate::timing::TimingParams;
use orderlight::fault::RefreshStorm;
use orderlight::rng::Rng;
use orderlight::types::{BankId, MemCycle, Stripe};
use orderlight::{min_horizon, NextEvent};
use orderlight_trace::{sink::nop_sink, DramCmdKind, SharedSink, TraceEvent};

/// All-bank refresh parameters (values in memory cycles).
///
/// HBM2 refreshes every tREFI ≈ 3.9 us and an all-bank refresh occupies
/// the channel for tRFC ≈ 350 ns; at 850 MHz that is roughly 3315 and
/// 298 cycles. The paper's evaluation (like most PIM studies) omits
/// refresh; it is off by default here and exercised by the
/// `ablation_refresh` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshParams {
    /// Refresh interval, tREFI.
    pub interval: MemCycle,
    /// Refresh occupancy, tRFC.
    pub rfc: MemCycle,
}

impl RefreshParams {
    /// HBM2-like defaults at 850 MHz: tREFI = 3315, tRFC = 298 cycles.
    #[must_use]
    pub fn hbm2() -> Self {
        RefreshParams { interval: 3315, rfc: 298 }
    }
}

/// What command is needed next to perform a column access to
/// `(bank, row)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeededCommand {
    /// A different row is open: precharge first.
    Precharge,
    /// The bank is closed: activate the row.
    Activate,
    /// The row is open: the column access itself.
    Column,
}

/// One HBM channel.
#[derive(Debug, Clone)]
pub struct Channel {
    timing: TimingParams,
    banks: Vec<Bank>,
    /// Earliest cycle for the next column command on the shared bus
    /// (tCCD; same-bank tCCDL spacing is enforced by the banks).
    next_col: MemCycle,
    /// Earliest cycle for the next ACT on the channel (tRRD).
    next_act_any: MemCycle,
    store: FunctionalStore,
    /// Per bank, the store slot of its open row, resolved by the first
    /// column access after the activate that opened it, so a row is
    /// looked up once per activation, the way a row buffer is filled.
    /// Kept state (DESIGN.md, "Kept state"): cleared wherever a row
    /// closes (precharge, refresh), so an activate always finds its
    /// bank's slot clear. A column read of a row the store has not
    /// materialised leaves it clear: absence is never cached, so a
    /// later [`store_mut`](Self::store_mut) write to the row is seen.
    open_slots: Vec<Option<RowSlot>>,
    refresh: Option<RefreshParams>,
    /// Fault injection: when set, each fired refresh re-arms the next
    /// one after a seeded uniform draw instead of a fixed tREFI.
    storm: Option<(Rng, RefreshStorm)>,
    /// Next cycle a refresh becomes due.
    refresh_due: MemCycle,
    /// End of the in-progress refresh window, if any.
    refresh_until: Option<MemCycle>,
    refreshes: u64,
    sink: SharedSink,
    /// `sink.is_enabled()`, read once in [`set_sink`](Self::set_sink).
    traced: bool,
    channel_id: u8,
}

impl Channel {
    /// Creates a channel with `n_banks` banks and `row_bytes`-byte rows.
    ///
    /// # Panics
    /// Panics if `n_banks` is zero or the timing parameters are invalid.
    #[must_use]
    pub fn new(timing: TimingParams, n_banks: usize, row_bytes: usize) -> Self {
        assert!(n_banks > 0, "a channel needs at least one bank");
        timing.validate().expect("timing parameters must be valid");
        Channel::with_refresh(timing, n_banks, row_bytes, None)
    }

    /// Creates a channel with optional all-bank refresh.
    ///
    /// # Panics
    /// Panics if `n_banks` is zero or the timing parameters are invalid.
    #[must_use]
    pub fn with_refresh(
        timing: TimingParams,
        n_banks: usize,
        row_bytes: usize,
        refresh: Option<RefreshParams>,
    ) -> Self {
        assert!(n_banks > 0, "a channel needs at least one bank");
        timing.validate().expect("timing parameters must be valid");
        Channel {
            timing,
            banks: (0..n_banks).map(|_| Bank::new()).collect(),
            next_col: 0,
            next_act_any: 0,
            store: FunctionalStore::new(row_bytes),
            open_slots: vec![None; n_banks],
            refresh_due: refresh.map_or(0, |r| r.interval),
            refresh,
            storm: None,
            refresh_until: None,
            refreshes: 0,
            sink: nop_sink(),
            traced: false,
            channel_id: 0,
        }
    }

    /// Enables a seeded refresh storm (fault injection): refresh is
    /// forced on (if it was off) and every fired refresh re-arms the
    /// next one after a uniform draw from
    /// `storm.min_interval..=storm.max_interval` memory cycles with
    /// occupancy `storm.rfc`. Refreshes still honour tRAS/tWTP before
    /// closing rows, so the perturbation is schedule-legal.
    ///
    /// # Panics
    /// Panics if the interval bounds are zero or inverted.
    pub fn enable_refresh_storm(&mut self, storm: RefreshStorm, seed: u64) {
        assert!(storm.min_interval > 0, "storm intervals must be positive");
        assert!(storm.min_interval <= storm.max_interval, "storm interval bounds inverted");
        let mut rng = Rng::new(seed);
        let span = storm.max_interval - storm.min_interval + 1;
        self.refresh_due = storm.min_interval + rng.gen_range(span);
        self.refresh = Some(RefreshParams { interval: storm.min_interval, rfc: storm.rfc });
        self.storm = Some((rng, storm));
    }

    /// Attaches a trace sink, tagging this channel's DRAM-command events
    /// with `channel`. Sinks only observe; timing is unchanged.
    pub fn set_sink(&mut self, sink: SharedSink, channel: u8) {
        self.traced = sink.is_enabled();
        self.sink = sink;
        self.channel_id = channel;
    }

    /// Emits the row-residency interval that closes when `bank`
    /// precharges at `now`.
    fn trace_row_close(&self, bank: BankId, now: MemCycle) {
        let b = &self.banks[bank.index()];
        if let (Some(row), Some(opened)) = (b.open_row(), b.open_since()) {
            self.sink.emit(TraceEvent::RowInterval {
                cycle: now,
                channel: self.channel_id,
                bank: bank.0,
                row,
                open_cycles: now.saturating_sub(opened),
            });
        }
    }

    /// Advances refresh bookkeeping: once a refresh is due and every
    /// open bank may legally precharge, all rows are closed and the
    /// channel is occupied for tRFC cycles. Call once per memory cycle
    /// (the controller does). The `RefreshWindow` trace event emitted
    /// here needs no skip-boundary synthesis: the refresh countdown is
    /// a quiescence-horizon event (`next_refresh_event`), so the event
    /// core always ticks the triggering cycle densely.
    pub fn maintain(&mut self, now: MemCycle) {
        let Some(r) = self.refresh else { return };
        if let Some(until) = self.refresh_until {
            if now >= until {
                self.refresh_until = None;
            } else {
                return;
            }
        }
        if now >= self.refresh_due {
            // Wait until every open row can close (tRAS/tWTP honoured).
            let t = self.timing;
            if self.banks.iter().any(|b| b.open_row().is_some() && !b.can_precharge(now)) {
                return;
            }
            for b in 0..self.banks.len() {
                if self.banks[b].open_row().is_some() {
                    if self.traced {
                        self.trace_row_close(BankId(b as u8), now);
                    }
                    self.banks[b].precharge(now, &t);
                }
            }
            self.open_slots.fill(None);
            // Saturating like the bank timers: a refresh window or due
            // time past `u64::MAX` clamps to "never" instead of
            // wrapping behind `now`.
            self.refresh_until = Some(now.saturating_add(r.rfc));
            if self.traced {
                self.sink.emit(TraceEvent::RefreshWindow {
                    cycle: now,
                    channel: self.channel_id,
                    rfc: r.rfc,
                });
            }
            self.refresh_due = match &mut self.storm {
                Some((rng, s)) => now
                    .saturating_add(s.min_interval)
                    .saturating_add(rng.gen_range(s.max_interval - s.min_interval + 1)),
                None => now.saturating_add(r.interval),
            };
            self.refreshes += 1;
        }
    }

    /// Whether the channel is inside a refresh window at `now`.
    #[must_use]
    pub fn in_refresh(&self, now: MemCycle) -> bool {
        self.refresh_until.is_some_and(|until| now < until)
    }

    /// All-bank refreshes performed.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// The timing parameters in force.
    #[must_use]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Immutable access to a bank.
    ///
    /// # Panics
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank(&self, bank: BankId) -> &Bank {
        &self.banks[bank.index()]
    }

    /// Number of banks.
    #[must_use]
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// The command needed next to reach a column access at `(bank, row)`.
    #[must_use]
    pub fn needed_command(&self, bank: BankId, row: u32) -> NeededCommand {
        match self.bank(bank).open_row() {
            Some(r) if r == row => NeededCommand::Column,
            Some(_) => NeededCommand::Precharge,
            None => NeededCommand::Activate,
        }
    }

    /// Whether `cmd` may legally issue at `now` (bank + channel
    /// constraints).
    #[must_use]
    pub fn can_issue(&self, cmd: DramCommand, now: MemCycle) -> bool {
        if self.in_refresh(now) {
            return false;
        }
        match cmd {
            DramCommand::Activate { bank, .. } => {
                now >= self.next_act_any && self.bank(bank).can_activate(now)
            }
            DramCommand::Precharge { bank } => self.bank(bank).can_precharge(now),
            DramCommand::Column { bank, kind } => {
                now >= self.next_col
                    && self
                        .bank(bank)
                        .open_row()
                        .is_some_and(|row| self.bank(bank).can_column(row, kind, now))
            }
        }
    }

    /// Issues `cmd` at `now` if legal; returns whether it issued.
    pub fn try_issue(&mut self, cmd: DramCommand, now: MemCycle) -> bool {
        if !self.can_issue(cmd, now) {
            return false;
        }
        let t = self.timing;
        let traced = self.traced;
        match cmd {
            DramCommand::Activate { bank, row } => {
                self.banks[bank.index()].activate(row, now, &t);
                self.next_act_any = now.saturating_add(t.rrd);
                if traced {
                    self.sink.emit(TraceEvent::DramCmd {
                        cycle: now,
                        channel: self.channel_id,
                        bank: bank.0,
                        kind: DramCmdKind::Activate,
                        row,
                    });
                }
            }
            DramCommand::Precharge { bank } => {
                if traced {
                    self.trace_row_close(bank, now);
                    self.sink.emit(TraceEvent::DramCmd {
                        cycle: now,
                        channel: self.channel_id,
                        bank: bank.0,
                        kind: DramCmdKind::Precharge,
                        row: self.banks[bank.index()].open_row().unwrap_or(u32::MAX),
                    });
                }
                self.banks[bank.index()].precharge(now, &t);
                self.open_slots[bank.index()] = None;
            }
            DramCommand::Column { bank, kind } => {
                let row = self.banks[bank.index()].open_row().expect("checked open");
                self.banks[bank.index()].column(row, kind, now, &t);
                self.next_col = now.saturating_add(t.ccd);
                if traced {
                    self.sink.emit(TraceEvent::DramCmd {
                        cycle: now,
                        channel: self.channel_id,
                        bank: bank.0,
                        kind: match kind {
                            ColKind::Read => DramCmdKind::Read,
                            ColKind::Write => DramCmdKind::Write,
                        },
                        row,
                    });
                }
            }
        }
        true
    }

    /// The store slot of `bank`'s open row, resolved at the first column
    /// access after the activate. With `create` a row the store does not
    /// hold is materialised; without it the answer is `None` and stays
    /// unresolved.
    ///
    /// # Panics
    /// Panics if the bank has no open row.
    fn open_slot(&mut self, bank: BankId, create: bool) -> Option<RowSlot> {
        let b = bank.index();
        if self.open_slots[b].is_none() {
            let row = self.banks[b].open_row().expect("column access requires an open row");
            self.open_slots[b] = if create {
                Some(self.store.slot_or_insert(bank, row))
            } else {
                self.store.slot(bank, row)
            };
        }
        self.open_slots[b]
    }

    /// Reads the stripe at `col` of the *open* row of `bank` (the data
    /// transfer accompanying a column-read command).
    ///
    /// # Panics
    /// Panics if the bank has no open row.
    #[must_use]
    pub fn read_open_row(&mut self, bank: BankId, col: u16) -> Stripe {
        self.open_slot(bank, false)
            .map_or_else(Stripe::default, |slot| self.store.read_slot(slot, col))
    }

    /// Writes the stripe at `col` of the *open* row of `bank`.
    ///
    /// # Panics
    /// Panics if the bank has no open row.
    pub fn write_open_row(&mut self, bank: BankId, col: u16, data: Stripe) {
        let slot = self.open_slot(bank, true).expect("created on demand");
        self.store.write_slot(slot, col, data);
    }

    /// Direct access to the functional store (initialisation, final
    /// read-back and verification).
    #[must_use]
    pub fn store(&self) -> &FunctionalStore {
        &self.store
    }

    /// Mutable access to the functional store. A write through it is
    /// seen by the next open-row access: rows keep their slots, and a
    /// row the store did not hold was never cached as absent. The store
    /// must not be replaced while a bank has a row open.
    pub fn store_mut(&mut self) -> &mut FunctionalStore {
        &mut self.store
    }

    /// Earliest future cycle at which [`maintain`](Self::maintain) can
    /// change observable state — i.e. actually perform an all-bank
    /// refresh. `None` when refresh is disabled (maintain is then a
    /// no-op forever). A due refresh waits for every open bank's tRAS /
    /// write-to-precharge window, so the trigger is the latest
    /// `next_pre` among open banks, but never earlier than `now`. The
    /// lazy clearing of a finished refresh window is not an event: it
    /// changes nothing observable on its own.
    #[must_use]
    pub fn next_refresh_event(&self, now: MemCycle) -> Option<MemCycle> {
        self.refresh?;
        let blocked = self
            .banks
            .iter()
            .filter(|b| b.open_row().is_some())
            .map(Bank::next_precharge_at)
            .max()
            .unwrap_or(0);
        Some(self.refresh_due.max(blocked).max(now))
    }
}

/// Quiescence horizon of a channel: the earliest cycle at which either
/// a blocked DRAM command could become legal on some bank (clamped past
/// an in-progress refresh window) or the next all-bank refresh fires.
/// Like [`Bank`], a channel with refresh disabled still answers
/// `Some(..)` — only the controller knows whether work is queued.
impl NextEvent for Channel {
    fn next_event(&self, now: u64) -> Option<u64> {
        let cmd = self.banks.iter().filter_map(|b| b.next_event(now)).min();
        let cmd = cmd.map(|c| match self.refresh_until {
            Some(until) if until > now && c < until => until,
            _ => c,
        });
        min_horizon(cmd, self.next_refresh_event(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::ColKind;

    fn ch() -> Channel {
        Channel::new(TimingParams::hbm_table1(), 16, 2048)
    }

    #[test]
    fn needed_command_progression() {
        let mut c = ch();
        assert_eq!(c.needed_command(BankId(0), 5), NeededCommand::Activate);
        assert!(c.try_issue(DramCommand::Activate { bank: BankId(0), row: 5 }, 0));
        assert_eq!(c.needed_command(BankId(0), 5), NeededCommand::Column);
        assert_eq!(c.needed_command(BankId(0), 6), NeededCommand::Precharge);
    }

    #[test]
    fn column_spacing_ccd_across_banks_ccdl_within_a_bank() {
        let mut c = ch();
        let t = *c.timing();
        assert!(c.try_issue(DramCommand::Activate { bank: BankId(0), row: 0 }, 0));
        assert!(c.try_issue(DramCommand::Activate { bank: BankId(1), row: 0 }, t.rrd));
        let first = t.rrd + t.rcd_wr;
        assert!(c.try_issue(DramCommand::column(BankId(0), ColKind::Write), first));
        // A column to a *different* bank only waits tCCD (= 1 cycle).
        assert!(c.try_issue(DramCommand::column(BankId(1), ColKind::Write), first + t.ccd));
        // Back on bank 0, the same-bank spacing is tCCDL (= 2 cycles).
        assert!(!c.try_issue(DramCommand::column(BankId(0), ColKind::Write), first + 1));
        assert!(c.try_issue(DramCommand::column(BankId(0), ColKind::Write), first + t.ccdl));
    }

    #[test]
    fn rrd_spaces_activates() {
        let mut c = ch();
        let t = *c.timing();
        assert!(c.try_issue(DramCommand::Activate { bank: BankId(0), row: 0 }, 0));
        assert!(!c.try_issue(DramCommand::Activate { bank: BankId(1), row: 0 }, t.rrd - 1));
        assert!(c.try_issue(DramCommand::Activate { bank: BankId(1), row: 0 }, t.rrd));
    }

    #[test]
    fn data_flows_through_open_rows() {
        let mut c = ch();
        c.try_issue(DramCommand::Activate { bank: BankId(2), row: 9 }, 0);
        c.write_open_row(BankId(2), 3, Stripe::splat(7));
        assert_eq!(c.read_open_row(BankId(2), 3), Stripe::splat(7));
        assert_eq!(c.store().read(BankId(2), 9, 3), Stripe::splat(7));
    }

    #[test]
    fn column_to_closed_bank_is_illegal() {
        let mut c = ch();
        assert!(!c.try_issue(DramCommand::column(BankId(0), ColKind::Read), 100));
    }

    #[test]
    fn simulated_read_stream_matches_analytic_window() {
        // The read-side counterpart of Figure 11: rcd_rd + 7*ccdl + rtp
        // + rp per row of 8 reads (bounded below by tRC).
        let mut c = ch();
        let t = *c.timing();
        let mut now: MemCycle = 0;
        let mut acts = Vec::new();
        for row in 0..3u32 {
            while !c.try_issue(DramCommand::Activate { bank: BankId(0), row }, now) {
                now += 1;
            }
            acts.push(now);
            let mut reads = 0;
            while reads < 8 {
                if c.try_issue(DramCommand::column(BankId(0), ColKind::Read), now) {
                    reads += 1;
                }
                now += 1;
            }
            while !c.try_issue(DramCommand::Precharge { bank: BankId(0) }, now) {
                now += 1;
            }
        }
        let w = t.row_window_reads(8).max(t.rc());
        assert_eq!(acts[1] - acts[0], w);
        assert_eq!(acts[2] - acts[1], w);
    }

    #[test]
    fn refresh_blocks_commands_and_closes_rows() {
        let r = RefreshParams { interval: 100, rfc: 20 };
        let mut c = Channel::with_refresh(TimingParams::hbm_table1(), 4, 2048, Some(r));
        assert!(c.try_issue(DramCommand::Activate { bank: BankId(0), row: 3 }, 0));
        // Run the clock past the refresh due point; the row must be
        // closed (tRAS honoured first) and commands blocked for tRFC.
        let mut refreshed_at = None;
        for now in 0..200 {
            c.maintain(now);
            if c.in_refresh(now) && refreshed_at.is_none() {
                refreshed_at = Some(now);
            }
        }
        let start = refreshed_at.expect("refresh happened");
        assert!(start >= 100, "not before tREFI");
        assert_eq!(c.refreshes(), 1);
        assert_eq!(c.bank(BankId(0)).open_row(), None, "refresh closed the row");
        // During the window nothing may issue.
        let mut c2 = Channel::with_refresh(TimingParams::hbm_table1(), 4, 2048, Some(r));
        for now in 0..=100 {
            c2.maintain(now);
        }
        assert!(c2.in_refresh(100));
        assert!(!c2.can_issue(DramCommand::Activate { bank: BankId(1), row: 0 }, 100));
        // After the window, commands flow again.
        for now in 101..=120 {
            c2.maintain(now);
        }
        assert!(c2.can_issue(DramCommand::Activate { bank: BankId(1), row: 0 }, 120));
    }

    #[test]
    fn open_row_slots_follow_act_pre_refresh_and_store_writes() {
        use std::collections::HashMap;
        let refresh = RefreshParams { interval: 300, rfc: 12 };
        let mut resolved = 0;
        for seed in 0..100u64 {
            let mut rng = Rng::new(seed);
            // Four banks of three 8-column rows, so rows clash often.
            let mut c = Channel::with_refresh(TimingParams::hbm_table1(), 4, 256, Some(refresh));
            let mut model: HashMap<(BankId, u32, u16), Stripe> = HashMap::new();
            for now in 0..3000 {
                c.maintain(now);
                let bank = BankId(rng.gen_index(4) as u8);
                let (row, col) = (rng.gen_index(3) as u32, rng.gen_index(8) as u16);
                let data = Stripe::splat(rng.next_u64() as u32);
                match rng.gen_index(12) {
                    0 | 1 => {
                        c.try_issue(DramCommand::Activate { bank, row }, now);
                    }
                    2 => {
                        c.try_issue(DramCommand::Precharge { bank }, now);
                    }
                    3 => {
                        c.store_mut().write(bank, row, col, data);
                        model.insert((bank, row, col), data);
                    }
                    _ => {
                        let Some(open) = c.bank(bank).open_row() else { continue };
                        if rng.gen_bool(1, 2) {
                            c.write_open_row(bank, col, data);
                            model.insert((bank, open, col), data);
                        } else {
                            let expected = model.get(&(bank, open, col)).copied();
                            assert_eq!(
                                c.read_open_row(bank, col),
                                expected.unwrap_or_default(),
                                "seed {seed} cycle {now}"
                            );
                        }
                    }
                }
                // A resolved slot is always the open row's slot.
                for (b, slot) in c.open_slots.iter().enumerate() {
                    let Some(slot) = *slot else { continue };
                    let open = c.banks[b].open_row().expect("a resolved slot has an open row");
                    assert_eq!(c.store.slot(BankId(b as u8), open), Some(slot), "seed {seed}");
                    resolved += 1;
                }
            }
            assert!(c.refreshes() > 0, "seed {seed}: no refresh exercised");
            for (&(bank, row, col), &data) in &model {
                assert_eq!(c.store().read(bank, row, col), data, "seed {seed}");
            }
        }
        assert!(resolved > 10_000, "coverage: {resolved} resolved slots");
    }

    #[test]
    fn no_refresh_by_default() {
        let mut c = ch();
        for now in 0..10_000 {
            c.maintain(now);
            assert!(!c.in_refresh(now));
        }
        assert_eq!(c.refreshes(), 0);
    }

    #[test]
    fn simulated_write_stream_matches_analytic_window() {
        // Stream 3 rows of 8 writes each through one bank and check the
        // steady-state spacing equals TimingParams::row_window_writes(8).
        let mut c = ch();
        let t = *c.timing();
        let mut now: MemCycle = 0;
        let mut act_times = Vec::new();
        for row in 0..3u32 {
            // Wait until ACT legal.
            while !c.try_issue(DramCommand::Activate { bank: BankId(0), row }, now) {
                now += 1;
            }
            act_times.push(now);
            let mut writes = 0;
            while writes < 8 {
                if c.try_issue(DramCommand::column(BankId(0), ColKind::Write), now) {
                    writes += 1;
                }
                now += 1;
            }
            while !c.try_issue(DramCommand::Precharge { bank: BankId(0) }, now) {
                now += 1;
            }
        }
        let w = t.row_window_writes(8);
        assert_eq!(act_times[1] - act_times[0], w, "window {w} expected");
        assert_eq!(act_times[2] - act_times[1], w);
    }
}
