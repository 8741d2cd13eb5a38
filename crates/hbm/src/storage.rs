//! Byte-accurate functional backing store for one channel.
//!
//! The simulator computes with *real data*: every column access reads or
//! writes an actual 32 B stripe. This is what makes ordering violations
//! observable — a reordered PIM command stream produces wrong bytes, not
//! just wrong statistics (paper Figure 5's "Functionally Incorrect" bar).
//!
//! Rows are allocated lazily; untouched memory reads as zero.

use orderlight::hash::IntMap;
use orderlight::types::{BankId, Stripe, BUS_BYTES};

/// Sparse functional store: `(bank, row) -> row bytes`.
#[derive(Debug, Clone, Default)]
pub struct FunctionalStore {
    rows: IntMap<(BankId, u32), Vec<u8>>,
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
        FunctionalStore { rows: IntMap::default(), row_bytes }
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
        let off = col as usize * BUS_BYTES;
        assert!(off + BUS_BYTES <= self.row_bytes, "column {col} beyond row");
        match self.rows.get(&(bank, row)) {
            Some(bytes) => Stripe::from_bytes(&bytes[off..off + BUS_BYTES]),
            None => Stripe::default(),
        }
    }

    /// All materialised rows in `(bank, row)` order — a deterministic
    /// whole-store view for byte-level comparison of two stores (the
    /// cycle-vs-event differential tests).
    #[must_use]
    pub fn rows_sorted(&self) -> Vec<((BankId, u32), &[u8])> {
        let mut v: Vec<_> = self.rows.iter().map(|(k, d)| (*k, d.as_slice())).collect();
        v.sort_unstable_by_key(|((bank, row), _)| (bank.0, *row));
        v
    }

    /// Writes the stripe at `(bank, row, col)`.
    ///
    /// # Panics
    /// Panics if `col` is beyond the row.
    pub fn write(&mut self, bank: BankId, row: u32, col: u16, data: Stripe) {
        let off = col as usize * BUS_BYTES;
        assert!(off + BUS_BYTES <= self.row_bytes, "column {col} beyond row");
        let row_bytes = self.row_bytes;
        let bytes = self.rows.entry((bank, row)).or_insert_with(|| vec![0u8; row_bytes]);
        bytes[off..off + BUS_BYTES].copy_from_slice(&data.to_bytes());
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
    #[should_panic(expected = "positive multiple")]
    fn bad_row_size_panics() {
        let _ = FunctionalStore::new(100);
    }
}
