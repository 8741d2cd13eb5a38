//! Hierarchical calendar (bucket) queue for the event core.
//!
//! [`Calendar`] holds one pending wake-up cycle per component and
//! answers "which components act next, and when?" in O(1) amortized —
//! replacing the event core's former global min-scan over every SM,
//! pipe and controller per hop.
//!
//! Layout: a 4096-slot bucket ring indexed by `cycle & 4095`, covering
//! the window `[base, base + 4096)`, with a two-level u64 bitmap over
//! the ring (one top word whose bit `w` says "leaf word `w` has a set
//! bit"; 64 leaf words, one bit per slot) so the nearest occupied slot
//! is a handful of trailing-zero scans away. Entries beyond the window
//! land in a `far` overflow list whose minimum is migrated into the
//! ring as soon as the window slides over it (each entry migrates at
//! most `distance / 4096` times — amortized O(1) for horizons bounded
//! by a cycle budget).
//!
//! Every list — each ring slot and `far` — is an intrusive doubly
//! linked list threaded through per-component `next`/`prev` links, with
//! `slot_of[comp]` naming the list a component sits in. A component is
//! in at most one list at a time: rescheduling is *earliest-wins*, and
//! a reschedule unlinks the component before relinking it at its new
//! cycle, so no list ever holds a stale or duplicate entry. A ring slot
//! therefore holds exactly the components due at the one cycle of the
//! window it maps to, and popping it hands them all out. The whole
//! queue is allocated once in [`Calendar::new`]: a 4097-entry head
//! array (16 KiB) plus 20 B per component, whatever the run length.
//!
//! All window arithmetic uses `wrapping_sub` distances, so schedules
//! that cross `u64::MAX` order correctly as long as every live horizon
//! is within 2^63 cycles of the current base — vastly beyond any cycle
//! budget.

/// Slot count of the bucket ring; one page of cycles per rotation.
const RING: usize = 4096;
/// Leaf bitmap words covering the ring (64 slots per word).
const WORDS: usize = RING / 64;
/// List index of the `far` overflow list (the ring slots are
/// `0..RING`).
const FAR: u32 = RING as u32;

/// Sentinel in `scheduled`: the component has no pending wake-up.
const NONE: u64 = u64::MAX;
/// Sentinel link: end of a list, or (in `slot_of`) in no list.
const NIL: u32 = u32::MAX;

/// A calendar queue of per-component wake-up cycles.
#[derive(Debug)]
pub struct Calendar {
    /// Wake-up cycle per component (`NONE` = unscheduled).
    scheduled: Vec<u64>,
    /// First component of each list: ring slots `0..RING`, then `far`.
    head: Vec<u32>,
    /// Next component in the same list (`NIL` = last).
    next: Vec<u32>,
    /// Previous component in the same list (`NIL` = first).
    prev: Vec<u32>,
    /// The list holding each component (`NIL` = unscheduled).
    slot_of: Vec<u32>,
    /// Leaf bitmap: bit `b % 64` of word `b / 64` set ⇔ ring slot `b`
    /// is non-empty.
    leaf: [u64; WORDS],
    /// Top bitmap: bit `w` set ⇔ `leaf[w] != 0`.
    top: u64,
    /// Start of the ring window; slots cover `[base, base + RING)`.
    base: u64,
}

impl Calendar {
    /// A calendar for `components` ids, with its window starting at
    /// `start` (no component may be scheduled before it).
    ///
    /// # Panics
    /// Panics if `components` does not fit below the `u32` sentinel.
    #[must_use]
    pub fn new(components: usize, start: u64) -> Calendar {
        assert!(components < NIL as usize, "too many components for u32 links");
        Calendar {
            scheduled: vec![NONE; components],
            head: vec![NIL; RING + 1],
            next: vec![NIL; components],
            prev: vec![NIL; components],
            slot_of: vec![NIL; components],
            leaf: [0; WORDS],
            top: 0,
            base: start,
        }
    }

    /// The component's current wake-up cycle, if any.
    #[must_use]
    pub fn scheduled_at(&self, comp: u32) -> Option<u64> {
        match self.scheduled[comp as usize] {
            NONE => None,
            at => Some(at),
        }
    }

    /// Schedules `comp` to wake at `at`, earliest-wins: a request later
    /// than the component's current wake-up is a no-op (the component
    /// re-evaluates its horizon when it wakes anyway).
    pub fn schedule(&mut self, comp: u32, at: u64) {
        debug_assert!(
            at.wrapping_sub(self.base) < u64::MAX / 2,
            "cannot schedule into the past: at={at} base={}",
            self.base
        );
        let cur = self.scheduled[comp as usize];
        if cur != NONE && cur.wrapping_sub(self.base) <= at.wrapping_sub(self.base) {
            return;
        }
        self.unlink(comp);
        self.scheduled[comp as usize] = at;
        self.link(comp, at);
    }

    /// Drops any pending wake-up for `comp`.
    pub fn cancel(&mut self, comp: u32) {
        self.unlink(comp);
        self.scheduled[comp as usize] = NONE;
    }

    /// Drops every pending wake-up and restarts the window at `start`,
    /// as [`Calendar::new`] would, without reallocating.
    pub fn clear(&mut self, start: u64) {
        for comp in 0..self.scheduled.len() as u32 {
            self.cancel(comp);
        }
        self.base = start;
    }

    /// Links `comp`, due at `at`, into its ring slot or the `far` list.
    fn link(&mut self, comp: u32, at: u64) {
        let list = if at.wrapping_sub(self.base) < RING as u64 {
            let slot = (at & (RING as u64 - 1)) as usize;
            self.leaf[slot / 64] |= 1 << (slot % 64);
            self.top |= 1 << (slot / 64);
            slot as u32
        } else {
            FAR
        };
        let c = comp as usize;
        let first = self.head[list as usize];
        self.next[c] = first;
        self.prev[c] = NIL;
        if first != NIL {
            self.prev[first as usize] = comp;
        }
        self.head[list as usize] = comp;
        self.slot_of[c] = list;
    }

    /// Unlinks `comp` from whichever list holds it (no-op if none),
    /// clearing a ring slot's bitmap bit when the slot empties.
    fn unlink(&mut self, comp: u32) {
        let c = comp as usize;
        let list = self.slot_of[c];
        if list == NIL {
            return;
        }
        let (prev, next) = (self.prev[c], self.next[c]);
        if prev == NIL {
            self.head[list as usize] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next != NIL {
            self.prev[next as usize] = prev;
        }
        self.slot_of[c] = NIL;
        if list != FAR && self.head[list as usize] == NIL {
            self.clear_bit(list as usize);
        }
    }

    /// Marks ring slot `slot` empty in both bitmap levels.
    fn clear_bit(&mut self, slot: usize) {
        self.leaf[slot / 64] &= !(1 << (slot % 64));
        if self.leaf[slot / 64] == 0 {
            self.top &= !(1 << (slot / 64));
        }
    }

    /// Pops the earliest scheduled cycle and appends its due components
    /// to `due` (cleared first; ids in arbitrary order — sort if a
    /// deterministic visit order matters). Returns `None` when nothing
    /// is scheduled at all. Popped components become unscheduled.
    ///
    /// Advances the window to the returned cycle, so subsequent
    /// schedules must target that cycle or later.
    pub fn pop_next(&mut self, due: &mut Vec<u32>) -> Option<u64> {
        self.pop_next_by(self.base.wrapping_sub(1), due)
    }

    /// [`pop_next`](Self::pop_next), but only if the earliest scheduled
    /// cycle is at or before `last` (which must not be behind the last
    /// popped cycle). Otherwise pops nothing and returns `None`; if
    /// something is scheduled, the window slides forward to `last`, so
    /// subsequent schedules must target `last` or later.
    pub fn pop_next_by(&mut self, last: u64, due: &mut Vec<u32>) -> Option<u64> {
        due.clear();
        // Pull `far` entries the window has slid onto (or, with an empty
        // ring, rebase straight onto the far minimum) before trusting
        // the ring scan.
        if self.head[FAR as usize] != NIL {
            self.sync_far(last);
        }
        let (t, slot) = self.nearest_slot()?;
        if t.wrapping_sub(self.base) > last.wrapping_sub(self.base) {
            // `last` lies at or after `base` and before `t`, so every
            // ring entry stays within the slid window.
            self.base = last;
            return None;
        }
        self.base = t;
        self.clear_bit(slot);
        // Every component in the slot is due at `t`: ring entries are
        // exact, and the window never slides past one, so a slot only
        // ever holds the one in-window cycle that maps to it.
        let mut comp = std::mem::replace(&mut self.head[slot], NIL);
        while comp != NIL {
            let c = comp as usize;
            debug_assert_eq!(self.scheduled[c], t, "ring entry off its slot's cycle");
            self.scheduled[c] = NONE;
            self.slot_of[c] = NIL;
            due.push(comp);
            comp = self.next[c];
        }
        Some(t)
    }

    /// The nearest occupied ring slot from `base` and the cycle its
    /// components are due at: the first set bit at or after the base's
    /// slot in its own leaf word, else in a later word, else — wrapping
    /// once — the first set bit of the whole ring (which then lies
    /// before the base's slot and maps to the window's later half).
    fn nearest_slot(&self) -> Option<(u64, usize)> {
        if self.top == 0 {
            return None;
        }
        let start = (self.base & (RING as u64 - 1)) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let here = self.leaf[w0] & (u64::MAX << b0);
        let slot = if here != 0 {
            w0 * 64 + here.trailing_zeros() as usize
        } else {
            // Words strictly after `w0` (none when `w0` is the last).
            let later = self.top & u64::MAX.checked_shl(w0 as u32 + 1).unwrap_or(0);
            let w = if later != 0 { later } else { self.top }.trailing_zeros() as usize;
            w * 64 + self.leaf[w].trailing_zeros() as usize
        };
        // Distance of the slot's in-window cycle from base.
        let dist = ((slot + RING - start) % RING) as u64;
        Some((self.base.wrapping_add(dist), slot))
    }

    /// Rebases an empty ring onto the `far` minimum (but not past
    /// `last`) and migrates every in-window `far` entry into the ring.
    /// `far` entries are never behind `base` (the window never slides
    /// past a schedule), so the minimum is a safe rebase target.
    fn sync_far(&mut self, last: u64) {
        let mut min: Option<u64> = None;
        let mut comp = self.head[FAR as usize];
        while comp != NIL {
            let at = self.scheduled[comp as usize];
            if min.is_none_or(|m| at.wrapping_sub(self.base) < m.wrapping_sub(self.base)) {
                min = Some(at);
            }
            comp = self.next[comp as usize];
        }
        let Some(m) = min else { return };
        if self.top == 0 {
            self.base =
                self.base.wrapping_add(m.wrapping_sub(self.base).min(last.wrapping_sub(self.base)));
        }
        if m.wrapping_sub(self.base) >= RING as u64 {
            return;
        }
        let mut comp = self.head[FAR as usize];
        while comp != NIL {
            let following = self.next[comp as usize];
            let at = self.scheduled[comp as usize];
            if at.wrapping_sub(self.base) < RING as u64 {
                self.unlink(comp);
                self.link(comp, at);
            }
            comp = following;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::rng::Rng;
    use std::collections::BTreeMap;

    /// Reference model: a plain map from component to wake-up cycle,
    /// popped by exhaustive min-scan (the thing the calendar replaces).
    #[derive(Default)]
    struct Naive {
        scheduled: BTreeMap<u32, u64>,
        base: u64,
    }

    impl Naive {
        fn schedule(&mut self, comp: u32, at: u64) {
            let e = self.scheduled.entry(comp).or_insert(at);
            if at.wrapping_sub(self.base) < e.wrapping_sub(self.base) {
                *e = at;
            }
        }

        fn cancel(&mut self, comp: u32) {
            self.scheduled.remove(&comp);
        }

        fn pop_next(&mut self) -> Option<(u64, Vec<u32>)> {
            let base = self.base;
            let t = self.scheduled.values().copied().min_by_key(|at| at.wrapping_sub(base))?;
            let due: Vec<u32> =
                self.scheduled.iter().filter(|&(_, &at)| at == t).map(|(&c, _)| c).collect();
            for c in &due {
                self.scheduled.remove(c);
            }
            self.base = t;
            Some((t, due))
        }
    }

    fn drain(cal: &mut Calendar) -> Vec<(u64, Vec<u32>)> {
        let mut out = Vec::new();
        let mut due = Vec::new();
        while let Some(t) = cal.pop_next(&mut due) {
            due.sort_unstable();
            out.push((t, due.clone()));
        }
        out
    }

    #[test]
    fn pops_in_cycle_order_with_batched_components() {
        let mut cal = Calendar::new(4, 0);
        cal.schedule(0, 100);
        cal.schedule(1, 5);
        cal.schedule(2, 100);
        cal.schedule(3, 6000); // beyond the 4096 window -> far list
        assert_eq!(drain(&mut cal), vec![(5, vec![1]), (100, vec![0, 2]), (6000, vec![3])]);
    }

    #[test]
    fn earliest_wins_and_later_requests_are_noops() {
        let mut cal = Calendar::new(2, 0);
        cal.schedule(0, 500);
        cal.schedule(0, 20); // pull earlier: wins
        cal.schedule(0, 300); // later than current 20: no-op
        assert_eq!(cal.scheduled_at(0), Some(20));
        let mut due = Vec::new();
        assert_eq!(cal.pop_next(&mut due), Some(20));
        assert_eq!(due, vec![0]);
        // The stale 500-hint must not resurrect component 0.
        assert_eq!(cal.pop_next(&mut due), None);
        assert_eq!(cal.scheduled_at(0), None);
    }

    #[test]
    fn reschedule_onto_a_stale_hint_cycle_pops_once() {
        let mut cal = Calendar::new(1, 0);
        cal.schedule(0, 64); // hint A at 64
        cal.schedule(0, 10); // hint B at 10; A is now stale
        let mut due = Vec::new();
        assert_eq!(cal.pop_next(&mut due), Some(10));
        cal.schedule(0, 64); // hint C joins stale A in slot 64
        assert_eq!(cal.pop_next(&mut due), Some(64));
        assert_eq!(due, vec![0], "duplicate hints must collapse to one pop");
        assert_eq!(cal.pop_next(&mut due), None);
    }

    #[test]
    fn cancel_drops_the_pending_wakeup() {
        let mut cal = Calendar::new(2, 0);
        cal.schedule(0, 7);
        cal.schedule(1, 9);
        cal.cancel(0);
        let mut due = Vec::new();
        assert_eq!(cal.pop_next(&mut due), Some(9));
        assert_eq!(due, vec![1]);
        assert_eq!(cal.pop_next(&mut due), None);
    }

    #[test]
    fn clear_empties_every_list_and_restarts_the_window() {
        let mut cal = Calendar::new(3, 0);
        cal.schedule(0, 7);
        cal.schedule(1, 7);
        cal.schedule(2, 9000); // far
        cal.clear(20_000);
        assert_eq!((0..3).filter_map(|c| cal.scheduled_at(c)).count(), 0);
        let mut due = Vec::new();
        assert_eq!(cal.pop_next(&mut due), None);
        cal.schedule(2, 20_000);
        cal.schedule(0, 20_001);
        assert_eq!(drain(&mut cal), vec![(20_000, vec![2]), (20_001, vec![0])]);
    }

    #[test]
    fn window_rollover_migrates_far_entries() {
        let mut cal = Calendar::new(3, 0);
        // Spread across several full ring rotations.
        cal.schedule(0, 3 * 4096 + 17);
        cal.schedule(1, 10 * 4096 + 1);
        cal.schedule(2, 1);
        assert_eq!(
            drain(&mut cal),
            vec![(1, vec![2]), (3 * 4096 + 17, vec![0]), (10 * 4096 + 1, vec![1])]
        );
    }

    /// A far entry must not be shadowed by a later in-window hint once
    /// the window slides over it (refresh horizons sit just past the
    /// 4096 window in the real system, so this path is hot).
    #[test]
    fn far_entry_entering_the_window_beats_a_later_ring_hint() {
        let mut cal = Calendar::new(3, 0);
        cal.schedule(0, 10);
        cal.schedule(1, 5000); // far at insert time
        let mut due = Vec::new();
        assert_eq!(cal.pop_next(&mut due), Some(10));
        // Window is now based at 10: 5000 is in [10, 10+4096).
        cal.schedule(2, 5500); // ring hint, later than the far entry
        assert_eq!(cal.pop_next(&mut due), Some(5000));
        assert_eq!(due, vec![1]);
        assert_eq!(cal.pop_next(&mut due), Some(5500));
        assert_eq!(due, vec![2]);
    }

    #[test]
    fn u64_wraparound_orders_across_the_boundary() {
        // A component parked just before u64::MAX and one just after the
        // wrap: the pre-wrap cycle must pop first, and scheduling past
        // the wrap from a pre-wrap base must work.
        let base = u64::MAX - 100;
        let mut cal = Calendar::new(3, base);
        cal.schedule(0, u64::MAX - 2);
        cal.schedule(1, 3); // wrapped: 105 cycles after base
        cal.schedule(2, u64::MAX.wrapping_add(5000)); // wrapped far entry
        assert_eq!(drain(&mut cal), vec![(u64::MAX - 2, vec![0]), (3, vec![1]), (4999, vec![2])]);
    }

    /// Differential fuzz against the min-scan reference: random
    /// interleavings of schedules (near, far, duplicate, re-pull) and
    /// pops, including bases near the u64 wrap, must pop identical
    /// (cycle, component-set) sequences. This is the never-skip-past-
    /// the-nearest-event invariant: the calendar may never report a
    /// cycle later than the true minimum.
    #[test]
    fn differential_fuzz_against_min_scan_reference() {
        for seed in 0..32u64 {
            let start = if seed % 4 == 3 { u64::MAX - 5000 } else { seed * 977 };
            let mut rng = Rng::new(0xca1e_da55 ^ seed);
            let mut cal = Calendar::new(24, start);
            let mut naive = Naive { base: start, ..Naive::default() };
            let mut now = start;
            let mut due = Vec::new();
            for _ in 0..600 {
                if !rng.next_u64().is_multiple_of(3) {
                    let comp = (rng.next_u64() % 24) as u32;
                    // Mix in-window, boundary and multi-rotation-far
                    // offsets, including 0 (schedule at `now`).
                    let at = now.wrapping_add(match rng.next_u64() % 5 {
                        0 => 0,
                        1 => rng.next_u64() % 8,
                        2 => rng.next_u64() % 4096,
                        3 => 4095 + rng.next_u64() % 3,
                        _ => rng.next_u64() % 50_000,
                    });
                    cal.schedule(comp, at);
                    naive.schedule(comp, at);
                } else {
                    let got = cal.pop_next(&mut due).map(|t| {
                        due.sort_unstable();
                        (t, due.clone())
                    });
                    let want = naive.pop_next();
                    assert_eq!(got, want, "seed {seed} diverged at now {now}");
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
            }
            // Drain both to the end.
            loop {
                let got = cal.pop_next(&mut due).map(|t| {
                    due.sort_unstable();
                    (t, due.clone())
                });
                let want = naive.pop_next();
                assert_eq!(got, want, "seed {seed} diverged draining");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// Seeded differential test of the calendar search against the
    /// brute-force reference: random schedules (near, just past the
    /// 4096-slot window, many rotations out), cancels, unbounded pops
    /// and pops bounded by a `last` cycle must yield the same earliest
    /// cycle and the exact same due set. The run must cover both rare
    /// paths of the bitmap search: a pop that wraps past the end of the
    /// ring, and components popped after migrating from `far`.
    #[test]
    fn search_matches_brute_force_across_wraps_and_far_migrations() {
        const COMPONENTS: u32 = 40;
        let (mut wraps, mut migrated) = (0u32, 0u32);
        for seed in 0..24u64 {
            let start = if seed % 3 == 2 { u64::MAX - 9000 } else { seed * 4093 };
            let mut rng = Rng::new(0x5ea2_c4ca_1e4d ^ seed);
            let mut cal = Calendar::new(COMPONENTS as usize, start);
            let mut naive = Naive { base: start, ..Naive::default() };
            let mut now = start;
            let mut due = Vec::new();
            for _ in 0..2000 {
                match rng.next_u64() % 8 {
                    0..=3 => {
                        let comp = (rng.next_u64() % u64::from(COMPONENTS)) as u32;
                        let at = now.wrapping_add(match rng.next_u64() % 4 {
                            0 => 1 + rng.next_u64() % 16,
                            1 => rng.next_u64() % 4096,
                            2 => 4090 + rng.next_u64() % 12,
                            _ => rng.next_u64() % 40_000,
                        });
                        cal.schedule(comp, at);
                        naive.schedule(comp, at);
                    }
                    4 => {
                        let comp = (rng.next_u64() % u64::from(COMPONENTS)) as u32;
                        cal.cancel(comp);
                        naive.cancel(comp);
                    }
                    pop => {
                        let in_far: Vec<u32> =
                            (0..COMPONENTS).filter(|&c| cal.slot_of[c as usize] == FAR).collect();
                        let base_slot = cal.base & (RING as u64 - 1);
                        // Bounded pops ask for the next cycle, or a few ahead.
                        let last = (pop == 5).then(|| now.wrapping_add(rng.next_u64() % 8));
                        let want = naive.pop_next();
                        let want = match (last, want) {
                            (Some(last), Some((t, comps)))
                                if t.wrapping_sub(now) > last.wrapping_sub(now) =>
                            {
                                // Not due by `last`: the reference keeps it.
                                for &c in &comps {
                                    naive.scheduled.insert(c, t);
                                }
                                naive.base = last;
                                None
                            }
                            (_, w) => w,
                        };
                        let got = match last {
                            Some(last) => cal.pop_next_by(last, &mut due),
                            None => cal.pop_next(&mut due),
                        };
                        let got = got.map(|t| {
                            due.sort_unstable();
                            (t, due.clone())
                        });
                        assert_eq!(got, want, "seed {seed} diverged at now {now}");
                        if let Some((t, comps)) = got {
                            wraps += u32::from((t & (RING as u64 - 1)) < base_slot);
                            migrated += comps.iter().filter(|c| in_far.contains(c)).count() as u32;
                            now = t;
                        } else if let Some(last) = last {
                            now = last;
                        }
                    }
                }
            }
        }
        assert!(wraps > 0, "no pop wrapped past the end of the ring");
        assert!(migrated > 0, "no component was popped after a far migration");
    }
}
