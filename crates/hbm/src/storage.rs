//! Byte-accurate functional backing store for one channel.
//!
//! The simulator computes with *real data*: every column access reads or
//! writes an actual 32 B stripe. This is what makes ordering violations
//! observable — a reordered PIM command stream produces wrong bytes, not
//! just wrong statistics (paper Figure 5's "Functionally Incorrect" bar).
//!
//! Rows are allocated lazily; untouched memory reads as zero. A row is
//! held as its stripes' `u32` lanes, the form every access reads and
//! writes, so no access converts bytes.

use orderlight::hash::IntMap;
use orderlight::types::{BankId, Stripe, BUS_BYTES};

/// Where one materialised row lives in a [`FunctionalStore`]. A row
/// keeps its slot for the store's lifetime (rows are never removed or
/// moved), so a channel can resolve an open row's slot once per
/// activation and reuse it for every column access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowSlot(u32);

/// Sparse functional store: `(bank, row) -> row stripes`.
#[derive(Debug, Clone, Default)]
pub struct FunctionalStore {
    slots: IntMap<(BankId, u32), RowSlot>,
    rows: Vec<Box<[Stripe]>>,
    row_bytes: usize,
}

impl FunctionalStore {
    /// Creates a store whose rows are `row_bytes` long.
    ///
    /// # Panics
    /// Panics if `row_bytes` is not a positive multiple of the 32 B bus
    /// width.
    #[must_use]
    pub fn new(row_bytes: usize) -> Self {
        assert!(
            row_bytes > 0 && row_bytes.is_multiple_of(BUS_BYTES),
            "row_bytes must be a positive multiple of {BUS_BYTES}"
        );
        FunctionalStore { slots: IntMap::default(), rows: Vec::new(), row_bytes }
    }

    /// Row length in bytes.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Number of lazily materialised rows (statistics / memory footprint).
    #[must_use]
    pub fn resident_rows(&self) -> usize {
        self.rows.len()
    }

    /// Reads the stripe at `(bank, row, col)`.
    ///
    /// # Panics
    /// Panics if `col` is beyond the row.
    #[must_use]
    pub fn read(&self, bank: BankId, row: u32, col: u16) -> Stripe {
        self.check_col(col);
        self.slot(bank, row).map_or_else(Stripe::default, |slot| self.read_slot(slot, col))
    }

    /// All materialised rows in `(bank, row)` order — a deterministic
    /// whole-store view for comparing two stores lane by lane (the
    /// cycle-vs-event differential tests).
    #[must_use]
    pub fn rows_sorted(&self) -> Vec<((BankId, u32), &[Stripe])> {
        let mut v: Vec<_> =
            self.slots.iter().map(|(k, slot)| (*k, &*self.rows[slot.0 as usize])).collect();
        v.sort_unstable_by_key(|((bank, row), _)| (bank.0, *row));
        v
    }

    /// Writes the stripe at `(bank, row, col)`.
    ///
    /// # Panics
    /// Panics if `col` is beyond the row.
    pub fn write(&mut self, bank: BankId, row: u32, col: u16, data: Stripe) {
        self.check_col(col);
        let slot = self.slot_or_insert(bank, row);
        self.write_slot(slot, col, data);
    }

    /// Writes `data` to consecutive columns of `(bank, row)` from
    /// `first_col`: one lookup for the whole run, and a row it
    /// materialises is built from `data` directly, zeroing only the
    /// columns outside the run.
    ///
    /// # Panics
    /// Panics if the run reaches beyond the row, rather than spill into
    /// another one.
    pub fn fill_row(
        &mut self,
        bank: BankId,
        row: u32,
        first_col: u16,
        data: impl ExactSizeIterator<Item = Stripe>,
    ) {
        let cols = self.row_bytes / BUS_BYTES;
        let (first, end) = (first_col as usize, first_col as usize + data.len());
        assert!(end <= cols, "row fill of columns {first}..{end} beyond row of {cols} columns");
        if let Some(slot) = self.slot(bank, row) {
            for (stripe, value) in self.rows[slot.0 as usize][first..end].iter_mut().zip(data) {
                *stripe = value;
            }
            return;
        }
        let mut stripes = Vec::with_capacity(cols);
        stripes.resize(first, Stripe::default());
        stripes.extend(data);
        assert_eq!(stripes.len(), end, "row fill data shorter or longer than its length");
        stripes.resize(cols, Stripe::default());
        self.insert(bank, row, stripes.into_boxed_slice());
    }

    fn check_col(&self, col: u16) {
        assert!((col as usize + 1) * BUS_BYTES <= self.row_bytes, "column {col} beyond row");
    }

    /// The slot of `(bank, row)`, if the row is materialised.
    pub(crate) fn slot(&self, bank: BankId, row: u32) -> Option<RowSlot> {
        self.slots.get(&(bank, row)).copied()
    }

    /// The slot of `(bank, row)`, materialising a zero row if needed.
    pub(crate) fn slot_or_insert(&mut self, bank: BankId, row: u32) -> RowSlot {
        if let Some(slot) = self.slot(bank, row) {
            return slot;
        }
        self.insert(
            bank,
            row,
            vec![Stripe::default(); self.row_bytes / BUS_BYTES].into_boxed_slice(),
        )
    }

    /// Materialises `(bank, row)`, which must be absent, holding `stripes`.
    fn insert(&mut self, bank: BankId, row: u32, stripes: Box<[Stripe]>) -> RowSlot {
        let slot = RowSlot(u32::try_from(self.rows.len()).expect("fewer than 2^32 rows"));
        self.rows.push(stripes);
        self.slots.insert((bank, row), slot);
        slot
    }

    /// Reads the stripe at `col` of the row in `slot`.
    ///
    /// # Panics
    /// Panics if `col` is beyond the row.
    pub(crate) fn read_slot(&self, slot: RowSlot, col: u16) -> Stripe {
        self.rows[slot.0 as usize][col as usize]
    }

    /// Writes the stripe at `col` of the row in `slot`.
    ///
    /// # Panics
    /// Panics if `col` is beyond the row.
    pub(crate) fn write_slot(&mut self, slot: RowSlot, col: u16, data: Stripe) {
        self.rows[slot.0 as usize][col as usize] = data;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let s = FunctionalStore::new(2048);
        assert_eq!(s.read(BankId(0), 0, 0), Stripe::default());
        assert_eq!(s.resident_rows(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = FunctionalStore::new(2048);
        let data = Stripe([1, 2, 3, 4, 5, 6, 7, 8]);
        s.write(BankId(3), 17, 63, data);
        assert_eq!(s.read(BankId(3), 17, 63), data);
        assert_eq!(s.read(BankId(3), 17, 62), Stripe::default());
        assert_eq!(s.resident_rows(), 1);
    }

    #[test]
    fn banks_and_rows_are_independent() {
        let mut s = FunctionalStore::new(64);
        s.write(BankId(0), 0, 0, Stripe::splat(1));
        s.write(BankId(1), 0, 0, Stripe::splat(2));
        s.write(BankId(0), 1, 0, Stripe::splat(3));
        assert_eq!(s.read(BankId(0), 0, 0), Stripe::splat(1));
        assert_eq!(s.read(BankId(1), 0, 0), Stripe::splat(2));
        assert_eq!(s.read(BankId(0), 1, 0), Stripe::splat(3));
    }

    #[test]
    #[should_panic(expected = "beyond row")]
    fn out_of_row_column_panics() {
        let s = FunctionalStore::new(64);
        let _ = s.read(BankId(0), 0, 2);
    }

    #[test]
    fn fill_row_writes_its_run_and_keeps_the_rest() {
        let mut s = FunctionalStore::new(4 * BUS_BYTES);
        s.write(BankId(2), 5, 0, Stripe::splat(9));
        s.fill_row(BankId(2), 5, 1, [Stripe::splat(1), Stripe::splat(2)].into_iter());
        s.fill_row(BankId(2), 6, 2, [Stripe::splat(3), Stripe::splat(4)].into_iter());
        let cols = |row| (0..4).map(|c| s.read(BankId(2), row, c).0[0]).collect::<Vec<_>>();
        assert_eq!(cols(5), [9, 1, 2, 0]);
        assert_eq!(cols(6), [0, 0, 3, 4]);
        assert_eq!(s.resident_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row fill of columns 3..5 beyond row of 4 columns")]
    fn row_fill_past_the_row_panics() {
        let mut s = FunctionalStore::new(4 * BUS_BYTES);
        s.fill_row(BankId(0), 0, 3, [Stripe::splat(1); 2].into_iter());
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn bad_row_size_panics() {
        let _ = FunctionalStore::new(100);
    }
}
