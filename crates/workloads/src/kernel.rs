//! Kernel specifications and the PIM instruction-stream generator.
//!
//! A kernel is a per-tile *phase program* over one or more data
//! structures, mirroring paper Figure 4: load a tile of `N` stripes into
//! temporary storage, combine memory operands into it (fetch-and-op),
//! run execute-only compute, store results — with an ordering primitive
//! between phases. `N` is bounded by the TS size, so smaller TS means
//! more tiles and more ordering primitives (the central trade-off of
//! Figures 5, 10 and 12).

use crate::layout::Layout;
use orderlight::isa::OrderingInstr;
use orderlight::types::{ChannelId, TsSlot};
use orderlight::{AluOp, ConfigError, InstrStream, KernelInstr, PimInstruction, PimOp};
use std::collections::VecDeque;

/// Which ordering primitive the generated kernel uses between phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingMode {
    /// No ordering at all — fast but functionally incorrect for
    /// multi-phase kernels (Figure 5's leftmost bar).
    None,
    /// Traditional core-centric fences (the paper's baseline).
    Fence,
    /// OrderLight packets (the paper's proposal).
    OrderLight,
    /// Per-request sequence numbers with credit-based buffering at the
    /// controller — the Kim et al. (paper reference 27) approach the paper contrasts in
    /// Section 8.1. No ordering instructions are emitted; the controller
    /// dequeues each warp's requests strictly in sequence order, and the
    /// core may only issue while it holds buffer credits.
    SeqNum,
    /// Louvre-style versioned releases (Kumar et al.): a release marker
    /// stamped with the warp's per-group version is injected between
    /// phases; the controller holds it until older requests drain.
    LouvreVersioned,
    /// Perach-style controller-enforced strong consistency for
    /// bulk-bitwise PIM: no ordering instructions at all — the controller
    /// serializes each memory group in arrival order.
    BulkBitwiseStrong,
}

impl std::fmt::Display for OrderingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderingMode::None => write!(f, "none"),
            OrderingMode::Fence => write!(f, "fence"),
            OrderingMode::OrderLight => write!(f, "orderlight"),
            OrderingMode::SeqNum => write!(f, "seqnum"),
            OrderingMode::LouvreVersioned => write!(f, "louvre"),
            OrderingMode::BulkBitwiseStrong => write!(f, "bulk"),
        }
    }
}

/// Granularity at which a random-addressing phase re-randomises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomPer {
    /// Every stripe hits an independent random location (histogram bin
    /// updates).
    Stripe,
    /// Each tile starts at a random location and reads consecutively
    /// (the genome filter's 128 B candidate probes).
    Tile,
}

/// How a memory phase walks its structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addressing {
    /// Streaming: stripe `i` of the tile maps to stripe `tile*N + i`.
    Sequential,
    /// Pseudo-random within the first `span_rows` rows of the structure.
    Random {
        /// Re-randomisation granularity.
        per: RandomPer,
        /// Address span in rows.
        span_rows: u64,
    },
}

/// One phase of a kernel's per-tile program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Move a tile of `structure` into TS (`PIM_Load`).
    Load {
        /// Source structure index.
        structure: usize,
    },
    /// Fetch a tile of `structure` and combine it into TS (`PIM_<op>`).
    FetchOp {
        /// The combine operation (must read memory).
        op: AluOp,
        /// Operand structure index.
        structure: usize,
        /// Address pattern.
        addressing: Addressing,
    },
    /// Execute-only compute on TS, `per_stripe` commands for every
    /// `stride`-th stripe.
    Exec {
        /// The operation (must be an immediate op).
        op: AluOp,
        /// Commands per affected stripe.
        per_stripe: u32,
        /// Apply to every `stride`-th stripe (1 = all).
        stride: u32,
    },
    /// Store a tile of TS to `structure` (`PIM_Store`).
    Store {
        /// Destination structure index.
        structure: usize,
    },
}

/// A kernel described as a per-tile phase program.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Kernel name (Table 2).
    pub name: &'static str,
    /// The per-tile phases, in order.
    pub phases: Vec<Phase>,
    /// Number of data structures.
    pub structures: usize,
    /// Hard cap on the tile size in stripes, independent of TS (the
    /// genome filter's 128 B = 4-stripe granularity).
    pub tile_cap: Option<u64>,
    /// Insert an extra ordering primitive every `chunk` stripes *within*
    /// memory phases — models reduction-structured kernels (FC, KMeans)
    /// whose ordering needs shrink more slowly with TS size.
    pub ordering_chunk: Option<u64>,
    /// For kernels that accumulate in TS across tiles (FC, KMeans, SVM,
    /// Histogram, genome filter): store the accumulator tile to this
    /// structure once, after the last tile — making the reduction result
    /// observable in memory for verification.
    pub final_store: Option<usize>,
}

impl KernelSpec {
    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns [`ConfigError`] if a phase references a structure out of
    /// range, an `Exec` op reads memory, a `FetchOp` op does not, or the
    /// program is empty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.phases.is_empty() {
            return Err(ConfigError::new("kernel has no phases"));
        }
        if self.structures == 0 {
            return Err(ConfigError::new("kernel has no data structures"));
        }
        for phase in &self.phases {
            match *phase {
                Phase::Load { structure } | Phase::Store { structure } => {
                    if structure >= self.structures {
                        return Err(ConfigError::new("phase references missing structure"));
                    }
                }
                Phase::FetchOp { op, structure, .. } => {
                    if structure >= self.structures {
                        return Err(ConfigError::new("phase references missing structure"));
                    }
                    if !op.reads_memory() {
                        return Err(ConfigError::new("fetch-op must read memory"));
                    }
                }
                Phase::Exec { op, per_stripe, stride } => {
                    if op.reads_memory() {
                        return Err(ConfigError::new("exec op must be an immediate op"));
                    }
                    if per_stripe == 0 || stride == 0 {
                        return Err(ConfigError::new("exec counts must be positive"));
                    }
                }
            }
        }
        if matches!(self.tile_cap, Some(0)) || matches!(self.ordering_chunk, Some(0)) {
            return Err(ConfigError::new("tile_cap and ordering_chunk must be positive"));
        }
        if self.final_store.is_some_and(|s| s >= self.structures) {
            return Err(ConfigError::new("final_store references missing structure"));
        }
        Ok(())
    }

    /// The effective tile size for a TS of `ts_stripes`.
    #[must_use]
    pub fn tile_stripes(&self, ts_stripes: u64) -> u64 {
        match self.tile_cap {
            Some(cap) => ts_stripes.min(cap),
            None => ts_stripes,
        }
    }

    /// Data structures read by the kernel (initialisation targets).
    #[must_use]
    pub fn input_structures(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .phases
            .iter()
            .filter_map(|p| match *p {
                Phase::Load { structure } | Phase::FetchOp { structure, .. } => Some(structure),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Data structures written by the kernel (verification targets).
    #[must_use]
    pub fn output_structures(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .phases
            .iter()
            .filter_map(|p| match *p {
                Phase::Store { structure } => Some(structure),
                _ => None,
            })
            .chain(self.final_store)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The structural counterpart of Table 2's compute:memory ratio:
    /// `(scalar compute ops per element, distinct data structures
    /// accessed)`. An AXPY counts as two scalar ops (multiply + add);
    /// pure data movement counts as zero.
    #[must_use]
    pub fn ops_per_stripe(&self) -> (f64, f64) {
        let mut compute = 0.0;
        let mut touched = std::collections::BTreeSet::new();
        for p in &self.phases {
            match *p {
                Phase::Load { structure } | Phase::Store { structure } => {
                    touched.insert(structure);
                }
                Phase::FetchOp { op, structure, .. } => {
                    touched.insert(structure);
                    compute += f64::from(op.scalar_ops());
                }
                Phase::Exec { op, per_stripe, stride } => {
                    compute +=
                        f64::from(op.scalar_ops()) * f64::from(per_stripe) / f64::from(stride);
                }
            }
        }
        (compute, touched.len() as f64)
    }
}

/// Deterministic xorshift-multiply PRNG for irregular address patterns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lcg(pub u64);

impl Lcg {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The PIM-kernel instruction stream generator.
///
/// Walks the kernel's tiles, emitting the phase program with the chosen
/// ordering primitive between phases. Deterministic: a fresh generator
/// with the same parameters produces the same stream, which is what the
/// golden-model verifier replays.
///
/// # Example
///
/// ```
/// use orderlight::mapping::{AddressMapping, GroupMap};
/// use orderlight::types::ChannelId;
/// use orderlight::InstrStream;
/// use orderlight_workloads::{OrderingMode, WorkloadId, WorkloadInstance};
///
/// let instance = WorkloadInstance::new(
///     WorkloadId::Add,
///     AddressMapping::hbm_default(),
///     &GroupMap::default(),
///     8,   // TS stripes (1/8 of a 2 KB row)
///     64,  // elements per structure per channel
///     OrderingMode::OrderLight,
/// );
/// let mut stream = instance.pim_stream(ChannelId(0));
/// let mut pim = 0;
/// let mut ordering = 0;
/// while let Some(instr) = stream.next_instr() {
///     if instr.is_pim() { pim += 1 } else { ordering += 1 }
/// }
/// // 3 phases x 64 stripes, and 3 packets per 8-stripe tile.
/// assert_eq!(pim, 192);
/// assert_eq!(ordering, 24);
/// ```
#[derive(Debug, Clone)]
pub struct PimKernelGen {
    spec: KernelSpec,
    layout: Layout,
    channel: ChannelId,
    tile_stripes: u64,
    total_stripes: u64,
    mode: OrderingMode,
    tile: u64,
    n_tiles: u64,
    phase_idx: usize,
    final_emitted: bool,
    buf: VecDeque<KernelInstr>,
    rng: Lcg,
}

impl PimKernelGen {
    /// Creates a generator for `channel`, covering `total_stripes`
    /// elements per structure with a TS of `ts_stripes`.
    ///
    /// # Panics
    /// Panics if the spec is invalid or `total_stripes` is zero.
    #[must_use]
    pub fn new(
        spec: KernelSpec,
        layout: Layout,
        channel: ChannelId,
        ts_stripes: u64,
        total_stripes: u64,
        mode: OrderingMode,
    ) -> Self {
        spec.validate().expect("kernel spec must be valid");
        assert!(total_stripes > 0, "empty kernel");
        assert!(ts_stripes > 0, "TS must hold at least one stripe");
        let tile_stripes = spec.tile_stripes(ts_stripes);
        let n_tiles = total_stripes.div_ceil(tile_stripes);
        PimKernelGen {
            spec,
            layout,
            channel,
            tile_stripes,
            total_stripes,
            mode,
            tile: 0,
            n_tiles,
            phase_idx: 0,
            final_emitted: false,
            buf: VecDeque::new(),
            rng: Lcg(0x9E37_79B9_7F4A_7C15 ^ u64::from(channel.0)),
        }
    }

    /// Stripes in tile `tile` (the last tile may be partial).
    fn stripes_in_tile(&self, tile: u64) -> u64 {
        (self.total_stripes - tile * self.tile_stripes).min(self.tile_stripes)
    }

    fn push_ordering(&mut self) {
        match self.mode {
            // SeqNum and BulkBitwiseStrong enforce entirely at the
            // controller: the kernel carries no ordering instructions.
            OrderingMode::None | OrderingMode::SeqNum | OrderingMode::BulkBitwiseStrong => {}
            OrderingMode::Fence => {
                self.buf.push_back(KernelInstr::Ordering(OrderingInstr::Fence));
            }
            OrderingMode::OrderLight => {
                self.buf.push_back(KernelInstr::Ordering(OrderingInstr::OrderLight {
                    group: self.layout.group(),
                }));
            }
            OrderingMode::LouvreVersioned => {
                self.buf.push_back(KernelInstr::Ordering(OrderingInstr::Release {
                    group: self.layout.group(),
                }));
            }
        }
    }

    fn pim(&self, op: PimOp, structure: usize, stripe: u64, slot: u64) -> KernelInstr {
        KernelInstr::Pim(PimInstruction {
            op,
            addr: self.layout.addr(self.channel, structure, stripe),
            slot: TsSlot(slot as u16),
            group: self.layout.group(),
        })
    }

    /// Pseudo-random stripe index within `span_rows` of a structure,
    /// leaving room for `run` consecutive stripes.
    fn random_stripe(&mut self, span_rows: u64, run: u64) -> u64 {
        let spr = self.layout.mapping().stripes_per_row();
        let span_stripes = (span_rows.min(self.layout.rows_per_structure()) * spr).max(run);
        let limit = span_stripes - run + 1;
        self.rng.next() % limit
    }

    /// Generates the current tile-phase into the buffer and advances.
    fn refill(&mut self) {
        if self.tile >= self.n_tiles {
            return;
        }
        let n = self.stripes_in_tile(self.tile);
        let base = self.tile * self.tile_stripes;
        let chunk = self.spec.ordering_chunk;
        let phase = self.spec.phases[self.phase_idx];
        match phase {
            Phase::Load { structure } => {
                for s in 0..n {
                    let instr = self.pim(PimOp::Load, structure, base + s, s);
                    self.buf.push_back(instr);
                    if chunk.is_some_and(|c| (s + 1) % c == 0 && s + 1 < n) {
                        self.push_ordering();
                    }
                }
            }
            Phase::FetchOp { op, structure, addressing } => {
                let tile_base = match addressing {
                    Addressing::Sequential => base,
                    Addressing::Random { per: RandomPer::Tile, span_rows } => {
                        self.random_stripe(span_rows, n)
                    }
                    Addressing::Random { per: RandomPer::Stripe, .. } => 0,
                };
                for s in 0..n {
                    let stripe = match addressing {
                        Addressing::Random { per: RandomPer::Stripe, span_rows } => {
                            self.random_stripe(span_rows, 1)
                        }
                        _ => tile_base + s,
                    };
                    let instr = self.pim(PimOp::Compute(op), structure, stripe, s);
                    self.buf.push_back(instr);
                    if chunk.is_some_and(|c| (s + 1) % c == 0 && s + 1 < n) {
                        self.push_ordering();
                    }
                }
            }
            Phase::Exec { op, per_stripe, stride } => {
                for s in (0..n).step_by(stride as usize) {
                    for _ in 0..per_stripe {
                        let instr = self.pim(PimOp::Execute(op), 0, base + s, s);
                        self.buf.push_back(instr);
                    }
                }
            }
            Phase::Store { structure } => {
                for s in 0..n {
                    let instr = self.pim(PimOp::Store, structure, base + s, s);
                    self.buf.push_back(instr);
                    if chunk.is_some_and(|c| (s + 1) % c == 0 && s + 1 < n) {
                        self.push_ordering();
                    }
                }
            }
        }
        self.push_ordering();
        self.phase_idx += 1;
        if self.phase_idx == self.spec.phases.len() {
            self.phase_idx = 0;
            self.tile += 1;
        }
    }
}

impl PimKernelGen {
    /// Emits the post-run accumulator store, if the spec asks for one.
    fn emit_final_store(&mut self) {
        let Some(structure) = self.spec.final_store else {
            self.final_emitted = true;
            return;
        };
        let n = self.stripes_in_tile(self.n_tiles - 1).max(1).min(self.tile_stripes);
        for s in 0..n {
            let instr = self.pim(PimOp::Store, structure, s, s);
            self.buf.push_back(instr);
        }
        self.push_ordering();
        self.final_emitted = true;
    }
}

impl InstrStream for PimKernelGen {
    fn next_instr(&mut self) -> Option<KernelInstr> {
        while self.buf.is_empty() && self.tile < self.n_tiles {
            self.refill();
        }
        if self.buf.is_empty() && !self.final_emitted {
            self.emit_final_store();
        }
        self.buf.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::mapping::{AddressMapping, GroupMap};
    use orderlight::types::MemGroupId;

    fn add_spec() -> KernelSpec {
        KernelSpec {
            name: "add",
            phases: vec![
                Phase::Load { structure: 0 },
                Phase::FetchOp { op: AluOp::Add, structure: 1, addressing: Addressing::Sequential },
                Phase::Store { structure: 2 },
            ],
            structures: 3,
            tile_cap: None,
            ordering_chunk: None,
            final_store: None,
        }
    }

    fn layout(structures: usize, stripes: u64) -> Layout {
        Layout::new(
            AddressMapping::hbm_default(),
            &GroupMap::default(),
            MemGroupId(0),
            structures,
            stripes,
        )
    }

    fn collect(mut g: PimKernelGen) -> Vec<KernelInstr> {
        let mut v = Vec::new();
        while let Some(i) = g.next_instr() {
            v.push(i);
        }
        v
    }

    #[test]
    fn add_kernel_has_figure4_shape() {
        // 8 stripes total, TS of 4 -> 2 tiles; each tile: 4 loads, OL,
        // 4 fetch-adds, OL, 4 stores, OL.
        let g = PimKernelGen::new(
            add_spec(),
            layout(3, 8),
            ChannelId(0),
            4,
            8,
            OrderingMode::OrderLight,
        );
        let instrs = collect(g);
        assert_eq!(instrs.len(), 2 * (12 + 3));
        let pim: Vec<_> = instrs.iter().filter(|i| i.is_pim()).collect();
        let ords = instrs.iter().filter(|i| i.is_ordering()).count();
        assert_eq!(pim.len(), 24);
        assert_eq!(ords, 6, "three ordering primitives per tile (Figure 4)");
        // First tile: loads of structure 0 into slots 0..4.
        match instrs[0] {
            KernelInstr::Pim(p) => {
                assert_eq!(p.op, PimOp::Load);
                assert_eq!(p.slot, TsSlot(0));
            }
            _ => panic!("expected load first"),
        }
        // An ordering primitive right after the 4 loads.
        assert!(instrs[4].is_ordering());
    }

    #[test]
    fn fence_and_none_modes_change_only_ordering() {
        let mk = |mode| PimKernelGen::new(add_spec(), layout(3, 8), ChannelId(0), 4, 8, mode);
        let ol = collect(mk(OrderingMode::OrderLight));
        let fence = collect(mk(OrderingMode::Fence));
        let none = collect(mk(OrderingMode::None));
        assert_eq!(
            ol.iter().filter(|i| i.is_pim()).count(),
            fence.iter().filter(|i| i.is_pim()).count()
        );
        assert_eq!(none.iter().filter(|i| i.is_ordering()).count(), 0);
        assert!(fence
            .iter()
            .filter(|i| i.is_ordering())
            .all(|i| matches!(i, KernelInstr::Ordering(OrderingInstr::Fence))));
    }

    #[test]
    fn bigger_ts_means_fewer_ordering_primitives() {
        let count = |ts| {
            let g = PimKernelGen::new(
                add_spec(),
                layout(3, 64),
                ChannelId(0),
                ts,
                64,
                OrderingMode::Fence,
            );
            collect(g).iter().filter(|i| i.is_ordering()).count()
        };
        assert_eq!(count(4), 16 * 3);
        assert_eq!(count(8), 8 * 3);
        assert_eq!(count(32), 2 * 3);
    }

    #[test]
    fn tile_cap_limits_tile_size() {
        let spec = KernelSpec { tile_cap: Some(4), ..add_spec() };
        let g = PimKernelGen::new(spec, layout(3, 64), ChannelId(0), 32, 64, OrderingMode::None);
        let top_slot = collect(g).into_iter().filter_map(|i| match i {
            KernelInstr::Pim(p) => Some(p.slot.0),
            _ => None,
        });
        assert_eq!(top_slot.max(), Some(3), "cap of 4 stripes overrides TS of 32");
    }

    #[test]
    fn ordering_chunk_adds_mid_phase_primitives() {
        let spec = KernelSpec { ordering_chunk: Some(2), ..add_spec() };
        let g = PimKernelGen::new(spec, layout(3, 8), ChannelId(0), 8, 8, OrderingMode::OrderLight);
        let instrs = collect(g);
        // One tile of 8: per memory phase, 3 extra mid-phase + 1 final.
        let ords = instrs.iter().filter(|i| i.is_ordering()).count();
        assert_eq!(ords, 3 * 4);
    }

    #[test]
    fn partial_last_tile() {
        let g =
            PimKernelGen::new(add_spec(), layout(3, 10), ChannelId(0), 4, 10, OrderingMode::None);
        let instrs = collect(g);
        // Tiles of 4, 4, 2 -> 3 phases x 10 stripes = 30 PIM instrs.
        assert_eq!(instrs.len(), 30);
    }

    #[test]
    fn random_tile_addressing_stays_in_span() {
        let spec = KernelSpec {
            name: "genfil-ish",
            phases: vec![Phase::FetchOp {
                op: AluOp::Hamming,
                structure: 0,
                addressing: Addressing::Random { per: RandomPer::Tile, span_rows: 4 },
            }],
            structures: 1,
            tile_cap: Some(4),
            ordering_chunk: None,
            final_store: None,
        };
        let g =
            PimKernelGen::new(spec, layout(1, 4 * 64), ChannelId(0), 32, 64, OrderingMode::None);
        let l = layout(1, 4 * 64);
        let limit = l.addr(ChannelId(0), 0, 4 * 64 - 1).0;
        for i in collect(g) {
            if let KernelInstr::Pim(p) = i {
                assert!(p.addr.0 <= limit, "address beyond span");
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mk = || {
            PimKernelGen::new(
                add_spec(),
                layout(3, 32),
                ChannelId(5),
                8,
                32,
                OrderingMode::OrderLight,
            )
        };
        assert_eq!(collect(mk()), collect(mk()));
    }

    #[test]
    fn spec_validation_rejects_bad_programs() {
        let mut s = add_spec();
        s.structures = 2;
        assert!(s.validate().is_err(), "store references structure 2");
        let s = KernelSpec {
            name: "bad",
            phases: vec![Phase::Exec { op: AluOp::Add, per_stripe: 1, stride: 1 }],
            structures: 1,
            tile_cap: None,
            ordering_chunk: None,
            final_store: None,
        };
        assert!(s.validate().is_err(), "exec must not read memory");
        let s = KernelSpec {
            name: "bad2",
            phases: vec![Phase::FetchOp {
                op: AluOp::ScaleImm(2),
                structure: 0,
                addressing: Addressing::Sequential,
            }],
            structures: 1,
            tile_cap: None,
            ordering_chunk: None,
            final_store: None,
        };
        assert!(s.validate().is_err(), "fetch must read memory");
    }

    #[test]
    fn ops_per_stripe_matches_structure() {
        let (c, m) = add_spec().ops_per_stripe();
        assert_eq!((c, m), (1.0, 3.0), "Add is 1:3 (Table 2)");
    }
}
