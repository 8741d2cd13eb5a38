//! Physical address interleaving.
//!
//! Physical memory is interleaved at chunk granularity (256 B) across
//! memory channels (paper Section 2.2). Within a channel, consecutive
//! chunks fill 2 KB rows, and each bank owns a contiguous *region* of
//! rows. The paper's evaluation assumes the GPU driver allocates large
//! pages and aligns all operands of a PIM computation within the memory
//! region of each PIM unit (Section 6); placing the operand streams of a
//! kernel in one bank region reproduces the serialised row open/close
//! behaviour that Figure 11 analyses, while host (non-PIM) data can be
//! placed in the banks of a different memory group.

use crate::error::ConfigError;
use crate::types::{Addr, BankId, ChannelId, MemGroupId, BUS_BYTES};

/// Decoded physical location of a stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Memory channel.
    pub channel: ChannelId,
    /// Bank within the channel.
    pub bank: BankId,
    /// Row within the bank.
    pub row: u32,
    /// Column (stripe index) within the row.
    pub col: u16,
}

/// A fixed non-zero divisor. Dividing by a power of two — every
/// dimension of the paper's configuration — is a shift and the
/// remainder a mask; any other divisor uses the hardware division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` for a power of two, else 64.
    shift: u32,
}

impl Divisor {
    /// Wraps `d`.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    #[must_use]
    pub fn new(d: u64) -> Divisor {
        assert!(d > 0, "division by zero");
        Divisor { d, shift: if d.is_power_of_two() { d.trailing_zeros() } else { 64 } }
    }

    /// `x / d`.
    #[must_use]
    #[inline]
    pub fn quotient(self, x: u64) -> u64 {
        if self.shift < 64 {
            x >> self.shift
        } else {
            x / self.d
        }
    }

    /// `x % d`.
    #[must_use]
    #[inline]
    pub fn remainder(self, x: u64) -> u64 {
        if self.shift < 64 {
            x & (self.d - 1)
        } else {
            x % self.d
        }
    }
}

/// The address-interleaving scheme.
///
/// # Example
///
/// ```
/// use orderlight::mapping::AddressMapping;
/// use orderlight::types::{Addr, ChannelId};
///
/// let map = AddressMapping::hbm_default();
/// // The next 256 B chunk lives on the next channel.
/// assert_eq!(map.decode(Addr(0)).channel.0, 0);
/// assert_eq!(map.decode(Addr(256)).channel.0, 1);
/// // compose() is the inverse of the within-channel flattening.
/// let addr = map.compose(ChannelId(3), 4096);
/// let loc = map.decode(addr);
/// assert_eq!(loc.channel.0, 3);
/// assert_eq!(loc.row, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapping {
    channels: usize,
    banks: usize,
    chunk_bytes: u64,
    row_bytes: u64,
    rows_per_bank: u64,
    // The same dimensions as divisors, for the decode hot path.
    channels_div: Divisor,
    banks_div: Divisor,
    chunk_div: Divisor,
    row_div: Divisor,
    /// One bank's row region (`row_bytes * rows_per_bank`).
    span_div: Divisor,
}

impl AddressMapping {
    /// Creates a mapping.
    ///
    /// # Errors
    /// Returns [`ConfigError`] if any dimension is zero, if `chunk_bytes`
    /// or `row_bytes` is not a multiple of the 32 B bus width, if a row
    /// does not hold a whole number of chunks, or if a bank's row region
    /// overflows `u64`.
    pub fn new(
        channels: usize,
        banks: usize,
        chunk_bytes: u64,
        row_bytes: u64,
        rows_per_bank: u64,
    ) -> Result<Self, ConfigError> {
        if channels == 0 || banks == 0 || rows_per_bank == 0 {
            return Err(ConfigError::new("channels, banks, rows_per_bank must be non-zero"));
        }
        if channels > 16 {
            return Err(ConfigError::new("channel id is a 4-bit field; at most 16 channels"));
        }
        if chunk_bytes == 0 || !chunk_bytes.is_multiple_of(BUS_BYTES as u64) {
            return Err(ConfigError::new("chunk_bytes must be a non-zero multiple of 32"));
        }
        if row_bytes == 0 || !row_bytes.is_multiple_of(chunk_bytes) {
            return Err(ConfigError::new("row_bytes must be a non-zero multiple of chunk_bytes"));
        }
        let span = row_bytes
            .checked_mul(rows_per_bank)
            .ok_or_else(|| ConfigError::new("a bank's row region overflows u64"))?;
        Ok(AddressMapping {
            channels,
            banks,
            chunk_bytes,
            row_bytes,
            rows_per_bank,
            channels_div: Divisor::new(channels as u64),
            banks_div: Divisor::new(banks as u64),
            chunk_div: Divisor::new(chunk_bytes),
            row_div: Divisor::new(row_bytes),
            span_div: Divisor::new(span),
        })
    }

    /// The paper's configuration: 16 channels, 16 banks per channel,
    /// 256 B chunk interleave, 2 KB row buffer, 2^16 rows per bank
    /// (128 MiB of modelled capacity per bank per channel).
    #[must_use]
    pub fn hbm_default() -> Self {
        AddressMapping::new(16, 16, 256, 2048, 1 << 16).expect("default mapping is valid")
    }

    /// Number of memory channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of banks per channel.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Bytes per DRAM row (row-buffer size).
    #[must_use]
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Stripes (32 B column accesses) per row.
    #[must_use]
    pub fn stripes_per_row(&self) -> u64 {
        self.row_bytes / BUS_BYTES as u64
    }

    /// Within-channel bytes owned by one bank (its contiguous row
    /// region).
    #[must_use]
    pub fn bank_span_bytes(&self) -> u64 {
        self.row_bytes * self.rows_per_bank
    }

    /// Flattens an address to its within-channel byte offset.
    #[must_use]
    pub fn channel_offset(&self, addr: Addr) -> u64 {
        let chunk = self.chunk_div.quotient(addr.0);
        self.channels_div.quotient(chunk) * self.chunk_bytes + self.chunk_div.remainder(addr.0)
    }

    /// Builds the global address of within-channel byte `offset` on
    /// `channel` — the inverse of [`channel_offset`](Self::channel_offset).
    #[must_use]
    pub fn compose(&self, channel: ChannelId, offset: u64) -> Addr {
        let chunk = self.chunk_div.quotient(offset);
        Addr(
            (chunk * self.channels as u64 + channel.0 as u64) * self.chunk_bytes
                + self.chunk_div.remainder(offset),
        )
    }

    /// Decodes an address into its physical location. Offsets beyond the
    /// modelled capacity wrap around the banks.
    #[must_use]
    pub fn decode(&self, addr: Addr) -> Location {
        let channel = self.channel_of(addr);
        let o = self.channel_offset(addr);
        let bank = BankId(self.banks_div.remainder(self.span_div.quotient(o)) as u8);
        let row = self.row_div.quotient(self.span_div.remainder(o)) as u32;
        let col = (self.row_div.remainder(o) / BUS_BYTES as u64) as u16;
        Location { channel, bank, row, col }
    }

    /// The channel an address maps to (cheaper than a full decode).
    #[must_use]
    #[inline]
    pub fn channel_of(&self, addr: Addr) -> ChannelId {
        ChannelId(self.channels_div.remainder(self.chunk_div.quotient(addr.0)) as u8)
    }

    /// The within-channel offset of the start of `bank`'s row region —
    /// where a workload places data that must live in that bank (and
    /// therefore in that bank's memory group).
    ///
    /// # Panics
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank_base_offset(&self, bank: BankId) -> u64 {
        assert!(bank.index() < self.banks, "bank {bank} out of range");
        bank.index() as u64 * self.bank_span_bytes()
    }
}

impl Default for AddressMapping {
    fn default() -> Self {
        AddressMapping::hbm_default()
    }
}

/// Maps banks to memory groups: group `g` owns a contiguous run of banks.
///
/// PIM data structures live in one group and non-PIM data in another so
/// that OrderLight packets never constrain host traffic (paper
/// Section 5.3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMap {
    banks: usize,
    groups: usize,
}

impl GroupMap {
    /// Creates a map dividing `banks` banks evenly into `groups` groups.
    ///
    /// # Errors
    /// Returns [`ConfigError`] if either count is zero, `groups` exceeds
    /// `banks` or the 4-bit group-ID space (16), or `banks` is not a
    /// multiple of `groups`.
    pub fn new(banks: usize, groups: usize) -> Result<Self, ConfigError> {
        if banks == 0 || groups == 0 {
            return Err(ConfigError::new("banks and groups must be non-zero"));
        }
        if groups > banks {
            return Err(ConfigError::new("more groups than banks"));
        }
        if groups > 16 {
            return Err(ConfigError::new("group id is a 4-bit field; at most 16 groups"));
        }
        if !banks.is_multiple_of(groups) {
            return Err(ConfigError::new("banks must divide evenly into groups"));
        }
        Ok(GroupMap { banks, groups })
    }

    /// Number of groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Banks per group.
    #[must_use]
    pub fn banks_per_group(&self) -> usize {
        self.banks / self.groups
    }

    /// The group a bank belongs to.
    ///
    /// # Panics
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn group_of(&self, bank: BankId) -> MemGroupId {
        assert!(bank.index() < self.banks, "bank {bank} out of range");
        MemGroupId((bank.index() / self.banks_per_group()) as u8)
    }

    /// The first bank of `group` — where a workload places that group's
    /// data.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    #[must_use]
    pub fn first_bank_of(&self, group: MemGroupId) -> BankId {
        assert!(group.index() < self.groups, "group {group} out of range");
        BankId((group.index() * self.banks_per_group()) as u8)
    }
}

impl Default for GroupMap {
    fn default() -> Self {
        // 16 banks, 2 groups: group 0 for PIM structures, group 1 for host.
        GroupMap::new(16, 2).expect("default group map is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bank_region_past_u64_is_rejected() {
        assert!(AddressMapping::new(16, 16, 256, 2048, u64::MAX / 1024).is_err());
    }

    #[test]
    fn divisor_matches_hardware_division() {
        for d in [1u64, 2, 3, 7, 32, 48, 256, 1000, 1 << 40, u64::MAX] {
            let div = Divisor::new(d);
            for x in [0u64, 1, 5, 31, 32, 33, 255, 256, 4097, 1 << 41, u64::MAX - 1, u64::MAX] {
                assert_eq!(div.quotient(x), x / d, "{x} / {d}");
                assert_eq!(div.remainder(x), x % d, "{x} % {d}");
            }
        }
    }

    #[test]
    fn chunks_interleave_across_channels() {
        let map = AddressMapping::hbm_default();
        for ch in 0..16u64 {
            assert_eq!(map.decode(Addr(ch * 256)).channel, ChannelId(ch as u8));
        }
        // Chunk 16 wraps back to channel 0, next row region of the channel.
        assert_eq!(map.decode(Addr(16 * 256)).channel, ChannelId(0));
    }

    #[test]
    fn within_channel_columns_advance() {
        let map = AddressMapping::hbm_default();
        let a = map.decode(Addr(0));
        let b = map.decode(Addr(32));
        assert_eq!(a.col, 0);
        assert_eq!(b.col, 1);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
    }

    #[test]
    fn consecutive_rows_stay_in_one_bank() {
        let map = AddressMapping::hbm_default();
        // One full row of channel 0 = 2048 B = 8 chunks spaced 16
        // channels apart; the next row is in the same bank region.
        let row0 = map.decode(map.compose(ChannelId(0), 0));
        let row1 = map.decode(map.compose(ChannelId(0), 2048));
        assert_eq!(row0.bank, BankId(0));
        assert_eq!(row1.bank, BankId(0));
        assert_eq!(row1.row, 1);
    }

    #[test]
    fn bank_regions_partition_the_channel() {
        let map = AddressMapping::hbm_default();
        let span = map.bank_span_bytes();
        for b in 0..16u8 {
            let loc = map.decode(map.compose(ChannelId(2), u64::from(b) * span));
            assert_eq!(loc.bank, BankId(b));
            assert_eq!(loc.row, 0);
            assert_eq!(loc.channel, ChannelId(2));
        }
        assert_eq!(map.bank_base_offset(BankId(3)), 3 * span);
    }

    #[test]
    fn compose_inverts_channel_offset() {
        let map = AddressMapping::hbm_default();
        for offset in (0..1u64 << 16).step_by(4096 + 32) {
            for ch in [0u8, 5, 15] {
                let addr = map.compose(ChannelId(ch), offset);
                assert_eq!(map.channel_of(addr), ChannelId(ch));
                assert_eq!(map.channel_offset(addr), offset);
            }
        }
    }

    #[test]
    fn channel_of_matches_decode() {
        let map = AddressMapping::hbm_default();
        for addr in (0..1 << 16).step_by(32) {
            assert_eq!(map.channel_of(Addr(addr)), map.decode(Addr(addr)).channel);
        }
    }

    #[test]
    fn invalid_mappings_rejected() {
        assert!(AddressMapping::new(0, 16, 256, 2048, 16).is_err());
        assert!(AddressMapping::new(16, 0, 256, 2048, 16).is_err());
        assert!(AddressMapping::new(17, 16, 256, 2048, 16).is_err());
        assert!(AddressMapping::new(16, 16, 100, 2048, 16).is_err());
        assert!(AddressMapping::new(16, 16, 256, 1000, 16).is_err());
        assert!(AddressMapping::new(16, 16, 256, 2048, 0).is_err());
    }

    #[test]
    fn group_map_partitions_banks() {
        let gm = GroupMap::new(16, 2).unwrap();
        assert_eq!(gm.group_of(BankId(0)), MemGroupId(0));
        assert_eq!(gm.group_of(BankId(7)), MemGroupId(0));
        assert_eq!(gm.group_of(BankId(8)), MemGroupId(1));
        assert_eq!(gm.group_of(BankId(15)), MemGroupId(1));
        assert_eq!(gm.banks_per_group(), 8);
        assert_eq!(gm.first_bank_of(MemGroupId(1)), BankId(8));
    }

    #[test]
    fn group_map_rejects_bad_shapes() {
        assert!(GroupMap::new(16, 0).is_err());
        assert!(GroupMap::new(16, 3).is_err());
        assert!(GroupMap::new(4, 8).is_err());
        assert!(GroupMap::new(32, 32).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_map_out_of_range_bank_panics() {
        let gm = GroupMap::default();
        let _ = gm.group_of(BankId(16));
    }

    #[test]
    fn stripes_per_row_default() {
        assert_eq!(AddressMapping::hbm_default().stripes_per_row(), 64);
    }
}
