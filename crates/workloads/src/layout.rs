//! Data-structure placement.
//!
//! The paper assumes the GPU driver allocates large pages and aligns all
//! operands needed by a PIM computation within the memory region of each
//! PIM unit (Section 6). We realise that by placing every data structure
//! of a kernel in the *same bank* of each channel, in consecutive row
//! ranges — so switching between operand streams costs a row open/close,
//! exactly the behaviour Figure 11 analyses — and by confining a memory
//! group's data to that group's banks.

use orderlight::mapping::{AddressMapping, Divisor, GroupMap};
use orderlight::types::{Addr, ChannelId, MemGroupId, BUS_BYTES};
use orderlight::ConfigError;

/// Placement of a kernel's data structures within each channel.
#[derive(Debug, Clone)]
pub struct Layout {
    mapping: AddressMapping,
    group: MemGroupId,
    base_offset: u64,
    /// Per-bank span of one structure in bytes.
    structure_span: u64,
    stripes_per_structure: u64,
    /// Number of banks consecutive rows rotate across (1 = the paper's
    /// single-bank PIM placement; the group's bank count for host data,
    /// which wants bank-level parallelism).
    interleave: u64,
    // `interleave` and the mapping's stripes per row as divisors, for
    // the address hot path.
    interleave_div: Divisor,
    stripes_per_row: Divisor,
}

impl Layout {
    /// Creates the paper's PIM placement: every structure in the *same*
    /// bank of each channel (serialised row switching, Figure 11).
    ///
    /// # Panics
    /// Panics if the structures do not fit in one bank's row region.
    #[must_use]
    pub fn new(
        mapping: AddressMapping,
        groups: &GroupMap,
        group: MemGroupId,
        structures: usize,
        stripes_per_structure: u64,
    ) -> Self {
        Layout::with_interleave(mapping, groups, group, structures, stripes_per_structure, 1)
    }

    /// Creates a layout whose consecutive rows rotate across `interleave`
    /// banks of the group — the placement conventional host data gets,
    /// enabling bank-level parallelism.
    ///
    /// # Panics
    /// Panics if [`Layout::checked_span`] rejects the placement:
    /// `interleave` is zero or exceeds the group's banks, or the
    /// structures do not fit in the banks' row regions.
    #[must_use]
    pub fn with_interleave(
        mapping: AddressMapping,
        groups: &GroupMap,
        group: MemGroupId,
        structures: usize,
        stripes_per_structure: u64,
        interleave: u64,
    ) -> Self {
        let structure_span =
            Self::checked_span(&mapping, groups, structures, stripes_per_structure, interleave)
                .unwrap_or_else(|e| panic!("{e}"));
        let base_offset = mapping.bank_base_offset(groups.first_bank_of(group));
        Layout {
            interleave_div: Divisor::new(interleave),
            stripes_per_row: Divisor::new(mapping.stripes_per_row()),
            mapping,
            group,
            base_offset,
            structure_span,
            stripes_per_structure,
            interleave,
        }
    }

    /// The bytes of each bank one structure spans when `structures`
    /// structures of `stripes_per_structure` stripes rotate across
    /// `interleave` banks of a group, rounded up to whole rows so streams
    /// of different structures never share a row.
    ///
    /// # Errors
    /// Returns [`ConfigError`] if `interleave` is zero or exceeds the
    /// group's banks, or if the structures do not fit in the banks' row
    /// regions (sizes that overflow `u64` do not fit either).
    pub fn checked_span(
        mapping: &AddressMapping,
        groups: &GroupMap,
        structures: usize,
        stripes_per_structure: u64,
        interleave: u64,
    ) -> Result<u64, ConfigError> {
        if interleave < 1 || interleave > groups.banks_per_group() as u64 {
            return Err(ConfigError::new(format!(
                "interleave must be within the group's banks (interleave = {interleave}, \
                 banks per group = {})",
                groups.banks_per_group()
            )));
        }
        let row_bytes = mapping.row_bytes();
        let capacity = mapping.bank_span_bytes();
        let span = stripes_per_structure
            .checked_mul(BUS_BYTES as u64)
            .map(|bytes| bytes.div_ceil(row_bytes).div_ceil(interleave))
            .and_then(|rows| rows.checked_mul(row_bytes));
        match span {
            Some(span) if span.checked_mul(structures as u64).is_some_and(|b| b <= capacity) => {
                Ok(span)
            }
            _ => Err(ConfigError::new(format!(
                "kernel data ({structures} structures x {stripes_per_structure} stripes \
                 over {interleave} banks) exceeds the bank regions ({capacity} B per bank)"
            ))),
        }
    }

    /// The memory group the data lives in.
    #[must_use]
    pub fn group(&self) -> MemGroupId {
        self.group
    }

    /// Rows each structure spans (across all interleaved banks).
    #[must_use]
    pub fn rows_per_structure(&self) -> u64 {
        self.structure_span / self.mapping.row_bytes() * self.interleave
    }

    /// The address of stripe `stripe` of `structure` on `channel`.
    ///
    /// # Panics
    /// Panics if `stripe` is out of range (generators must wrap
    /// themselves).
    #[must_use]
    pub fn addr(&self, channel: ChannelId, structure: usize, stripe: u64) -> Addr {
        let row_bytes = self.mapping.row_bytes();
        let row_seq = self.stripes_per_row.quotient(stripe);
        let col = self.stripes_per_row.remainder(stripe);
        let bank_off = self.interleave_div.remainder(row_seq);
        let row = self.interleave_div.quotient(row_seq);
        let offset = self.base_offset
            + bank_off * self.mapping.bank_span_bytes()
            + structure as u64 * self.structure_span
            + row * row_bytes
            + col * BUS_BYTES as u64;
        assert!(row * row_bytes < self.structure_span, "stripe {stripe} beyond structure span");
        self.mapping.compose(channel, offset)
    }

    /// The runs of `structure`'s stripes on `channel`, one per DRAM row
    /// in stripe order: a structure's stripes fill each row in column
    /// order from column 0, so every run but the last is a whole row.
    pub fn row_runs(
        &self,
        channel: ChannelId,
        structure: usize,
    ) -> impl Iterator<Item = RowRun> + '_ {
        let per_row = self.mapping.stripes_per_row();
        let total = self.stripes_per_structure;
        (0..total.div_ceil(per_row)).map(move |row_seq| {
            let first = row_seq * per_row;
            RowRun {
                first: self.addr(channel, structure, first),
                stripes: (total - first).min(per_row) as usize,
            }
        })
    }

    /// The address of each stripe of `run`, in column order.
    pub fn run_addrs(&self, run: RowRun) -> impl ExactSizeIterator<Item = Addr> + '_ {
        let channel = self.mapping.channel_of(run.first);
        let offset = self.mapping.channel_offset(run.first);
        (0..run.stripes)
            .map(move |i| self.mapping.compose(channel, offset + (i * BUS_BYTES) as u64))
    }

    /// The interleaving scheme in force.
    #[must_use]
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }
}

/// Consecutive stripes of one structure that share a DRAM row: `stripes`
/// columns from the column of `first`, in column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRun {
    /// The address of the run's first stripe.
    pub first: Addr,
    /// How many stripes the run holds.
    pub stripes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::types::BankId;

    fn layout(structures: usize, stripes: u64) -> Layout {
        Layout::new(
            AddressMapping::hbm_default(),
            &GroupMap::default(),
            MemGroupId(0),
            structures,
            stripes,
        )
    }

    #[test]
    fn structures_share_a_bank_in_distinct_rows() {
        let l = layout(3, 64); // one row each
        let m = l.mapping().clone();
        let a = m.decode(l.addr(ChannelId(0), 0, 0));
        let b = m.decode(l.addr(ChannelId(0), 1, 0));
        let c = m.decode(l.addr(ChannelId(0), 2, 0));
        assert_eq!(a.bank, BankId(0));
        assert_eq!(b.bank, BankId(0));
        assert_eq!(c.bank, BankId(0));
        assert_eq!(a.row, 0);
        assert_eq!(b.row, 1);
        assert_eq!(c.row, 2);
    }

    #[test]
    fn partial_rows_round_up() {
        let l = layout(2, 65); // 65 stripes -> 2 rows
        assert_eq!(l.rows_per_structure(), 2);
        let m = l.mapping().clone();
        assert_eq!(m.decode(l.addr(ChannelId(0), 1, 0)).row, 2);
    }

    #[test]
    fn channels_are_independent() {
        let l = layout(1, 64);
        let a = l.addr(ChannelId(0), 0, 5);
        let b = l.addr(ChannelId(7), 0, 5);
        let m = l.mapping().clone();
        assert_eq!(m.decode(a).channel, ChannelId(0));
        assert_eq!(m.decode(b).channel, ChannelId(7));
        assert_eq!(m.decode(a).col, m.decode(b).col);
    }

    #[test]
    fn group1_data_lands_in_group1_banks() {
        let l =
            Layout::new(AddressMapping::hbm_default(), &GroupMap::default(), MemGroupId(1), 1, 64);
        let m = l.mapping().clone();
        let loc = m.decode(l.addr(ChannelId(0), 0, 0));
        assert_eq!(loc.bank, BankId(8));
    }

    #[test]
    fn interleaved_layout_rotates_banks() {
        let l = Layout::with_interleave(
            AddressMapping::hbm_default(),
            &GroupMap::default(),
            MemGroupId(0),
            1,
            4 * 64, // 4 rows
            4,
        );
        let m = l.mapping().clone();
        let banks: Vec<u8> =
            (0..4).map(|r| m.decode(l.addr(ChannelId(0), 0, r * 64)).bank.0).collect();
        assert_eq!(banks, vec![0, 1, 2, 3], "consecutive rows rotate across banks");
        // Within one row the bank is stable.
        assert_eq!(m.decode(l.addr(ChannelId(0), 0, 1)).bank.0, 0);
    }

    #[test]
    #[should_panic(expected = "within the group's banks")]
    fn oversized_interleave_panics() {
        let _ = Layout::with_interleave(
            AddressMapping::hbm_default(),
            &GroupMap::default(),
            MemGroupId(0),
            1,
            64,
            9,
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the bank regions")]
    fn oversized_layout_panics() {
        // One bank region is 2^16 rows = 2^22 stripes; ask for more.
        let _ = layout(2, 1 << 22);
    }

    #[test]
    #[should_panic(expected = "beyond structure span")]
    fn out_of_range_stripe_panics() {
        let l = layout(1, 64);
        let _ = l.addr(ChannelId(0), 0, 64);
    }
}
