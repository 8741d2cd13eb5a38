//! Temporary storage (TS) associated with a PIM compute unit.

use orderlight::types::{Stripe, TsSlot, BUS_BYTES};
use std::fmt;

/// TS capacity as a fraction of the row-buffer size — the x-axis of the
/// paper's Figures 5, 10, 12 and 13 ("1/16 RB" … "1/2 RB").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TsSize {
    /// 1/16 of the row buffer (128 B for 2 KB rows; tile N = 4 stripes).
    Sixteenth,
    /// 1/8 of the row buffer (256 B; N = 8).
    Eighth,
    /// 1/4 of the row buffer (512 B; N = 16).
    Quarter,
    /// 1/2 of the row buffer (1 KB; N = 32).
    Half,
}

impl TsSize {
    /// All sweep points in the order the paper plots them.
    pub const ALL: [TsSize; 4] = [TsSize::Sixteenth, TsSize::Eighth, TsSize::Quarter, TsSize::Half];

    /// The denominator of the row-buffer fraction.
    #[must_use]
    pub fn denominator(self) -> u64 {
        match self {
            TsSize::Sixteenth => 16,
            TsSize::Eighth => 8,
            TsSize::Quarter => 4,
            TsSize::Half => 2,
        }
    }

    /// TS capacity in bytes for a given row-buffer size.
    #[must_use]
    pub fn bytes(self, row_bytes: u64) -> u64 {
        row_bytes / self.denominator()
    }

    /// Tile size `N`: number of 32 B stripes the TS holds.
    #[must_use]
    pub fn stripes(self, row_bytes: u64) -> u64 {
        self.bytes(row_bytes) / BUS_BYTES as u64
    }
}

impl fmt::Display for TsSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "1/{} RB", self.denominator())
    }
}

/// The temporary-storage buffer: a bank of stripe-wide slots.
#[derive(Debug, Clone)]
pub struct TemporaryStorage {
    slots: Vec<Stripe>,
}

impl TemporaryStorage {
    /// Creates a TS with `n_slots` stripe slots, all zeroed.
    ///
    /// # Panics
    /// Panics if `n_slots` is zero.
    #[must_use]
    pub fn new(n_slots: usize) -> Self {
        assert!(n_slots > 0, "temporary storage needs at least one slot");
        TemporaryStorage { slots: vec![Stripe::default(); n_slots] }
    }

    /// Creates a TS sized as `size` of a `row_bytes` row buffer.
    #[must_use]
    pub fn with_size(size: TsSize, row_bytes: u64) -> Self {
        TemporaryStorage::new(size.stripes(row_bytes) as usize)
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Reads a slot.
    ///
    /// # Panics
    /// Panics if `slot` is out of range — the PIM kernel generator sized
    /// its tiles wrong, which is a bug, not a runtime condition.
    #[must_use]
    pub fn read(&self, slot: TsSlot) -> Stripe {
        self.slots[slot.index()]
    }

    /// Writes a slot.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn write(&mut self, slot: TsSlot, data: Stripe) {
        self.slots[slot.index()] = data;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_size_fractions() {
        assert_eq!(TsSize::Sixteenth.bytes(2048), 128);
        assert_eq!(TsSize::Eighth.bytes(2048), 256);
        assert_eq!(TsSize::Quarter.bytes(2048), 512);
        assert_eq!(TsSize::Half.bytes(2048), 1024);
        assert_eq!(TsSize::Sixteenth.stripes(2048), 4);
        assert_eq!(TsSize::Half.stripes(2048), 32);
    }

    #[test]
    fn ts_size_display() {
        assert_eq!(TsSize::Sixteenth.to_string(), "1/16 RB");
        assert_eq!(TsSize::Half.to_string(), "1/2 RB");
    }

    #[test]
    fn all_is_sorted_small_to_large() {
        let mut sorted = TsSize::ALL;
        sorted.sort();
        assert_eq!(sorted, TsSize::ALL);
    }

    #[test]
    fn read_write() {
        let mut ts = TemporaryStorage::new(8);
        assert_eq!(ts.capacity(), 8);
        ts.write(TsSlot(5), Stripe::splat(9));
        assert_eq!(ts.read(TsSlot(5)), Stripe::splat(9));
        assert_eq!(ts.read(TsSlot(0)), Stripe::default());
    }

    #[test]
    fn with_size_matches_stripes() {
        let ts = TemporaryStorage::with_size(TsSize::Quarter, 2048);
        assert_eq!(ts.capacity(), 16);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics() {
        let ts = TemporaryStorage::new(4);
        let _ = ts.read(TsSlot(4));
    }
}
