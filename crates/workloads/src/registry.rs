//! The workload registry: paper Table 2.
//!
//! | Kernel  | Description                       | C:M ratio | >1 structure |
//! |---------|-----------------------------------|-----------|--------------|
//! | Scale   | `a[i] = s*a[i]`                   | 1:1       | No           |
//! | Copy    | `b[i] = a[i]`                     | 0:2       | Yes          |
//! | Daxpy   | `b[i] = b[i] + s*a[i]`            | 2:2       | Yes          |
//! | Triad   | `c[i] = a[i] + s*b[i]`            | 2:3       | Yes          |
//! | Add     | `c[i] = a[i] + b[i]`              | 1:3       | Yes          |
//! | BN_Fwd  | batch-norm forward                | 7:3       | Yes          |
//! | BN_Bwd  | batch-norm backward               | 14:6      | Yes          |
//! | FC      | fully connected (dot products)    | 2:1       | No           |
//! | KMeans  | KMeans clustering                 | 10:1      | No           |
//! | SVM     | support vector machine            | 2.5:2     | Yes          |
//! | Hist    | histogram                         | 3:2       | Yes          |
//! | Gen_Fil | genomic sequence filtering (GRIM) | 3:1       | No           |
//!
//! Each kernel's [`KernelSpec`] reproduces the *structural* properties
//! the paper's results hinge on: the number of distinct operand streams
//! (row locality), the compute-to-memory balance, reduction structure
//! (FC/KMeans order more often per instruction), and irregular
//! addressing (Gen_Fil's 128 B probes, Hist's bin updates).

use crate::host::HostKernelGen;
use crate::kernel::{Addressing, KernelSpec, OrderingMode, Phase, PimKernelGen, RandomPer};
use crate::layout::Layout;
use crate::{data, verify::GoldenInterp};
use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::types::{Addr, ChannelId, MemGroupId, Stripe};
use orderlight::AluOp;

/// Which benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// The stream benchmark (paper Section 7.1).
    Stream,
    /// The data-intensive application kernels (paper Section 7.2).
    App,
}

/// Table 2 metadata for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMeta {
    /// Kernel name as printed in Table 2.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Compute:memory ratio string from Table 2.
    pub ratio: &'static str,
    /// Whether more than one data structure is accessed.
    pub multi_structure: bool,
    /// Which suite the kernel belongs to.
    pub suite: Suite,
}

/// The twelve evaluated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// `a[i] = scalar * a[i]`.
    Scale,
    /// `b[i] = a[i]`.
    Copy,
    /// `b[i] = b[i] + scalar * a[i]`.
    Daxpy,
    /// `c[i] = a[i] + scalar * b[i]`.
    Triad,
    /// `c[i] = a[i] + b[i]`.
    Add,
    /// Batch normalization, forward phase.
    BnFwd,
    /// Batch normalization, backward phase.
    BnBwd,
    /// Fully-connected layer (inference dot products).
    Fc,
    /// KMeans clustering (distance from centres).
    Kmeans,
    /// Support vector machine (hinge accumulation).
    Svm,
    /// Histogram (bin updates).
    Hist,
    /// Genomic sequence filtering (GRIM-style Hamming probes).
    GenFil,
}

impl WorkloadId {
    /// All workloads in Table 2 order.
    pub const ALL: [WorkloadId; 12] = [
        WorkloadId::Scale,
        WorkloadId::Copy,
        WorkloadId::Daxpy,
        WorkloadId::Triad,
        WorkloadId::Add,
        WorkloadId::BnFwd,
        WorkloadId::BnBwd,
        WorkloadId::Fc,
        WorkloadId::Kmeans,
        WorkloadId::Svm,
        WorkloadId::Hist,
        WorkloadId::GenFil,
    ];

    /// The stream benchmark kernels (Figure 10).
    pub const STREAMS: [WorkloadId; 5] = [
        WorkloadId::Scale,
        WorkloadId::Copy,
        WorkloadId::Daxpy,
        WorkloadId::Triad,
        WorkloadId::Add,
    ];

    /// The application kernels (Figure 12).
    pub const APPS: [WorkloadId; 7] = [
        WorkloadId::BnFwd,
        WorkloadId::BnBwd,
        WorkloadId::Fc,
        WorkloadId::Kmeans,
        WorkloadId::Svm,
        WorkloadId::Hist,
        WorkloadId::GenFil,
    ];

    /// Table 2 metadata.
    #[must_use]
    pub fn meta(self) -> WorkloadMeta {
        use Suite::{App, Stream};
        let m = |name, description, ratio, multi_structure, suite| WorkloadMeta {
            name,
            description,
            ratio,
            multi_structure,
            suite,
        };
        match self {
            WorkloadId::Scale => m("Scale", "a[i] = scalar*a[i]", "1:1", false, Stream),
            WorkloadId::Copy => m("Copy", "b[i] = a[i]", "0:2", true, Stream),
            WorkloadId::Daxpy => m("Daxpy", "b[i] = b[i] + scalar*a[i]", "2:2", true, Stream),
            WorkloadId::Triad => m("Triad", "c[i] = a[i] + scalar*b[i]", "2:3", true, Stream),
            WorkloadId::Add => m("Add", "c[i] = a[i] + b[i]", "1:3", true, Stream),
            WorkloadId::BnFwd => m("BN_Fwd", "Batch Normalization Forward Phase", "7:3", true, App),
            WorkloadId::BnBwd => {
                m("BN_Bwd", "Batch Normalization Backward Phase", "14:6", true, App)
            }
            WorkloadId::Fc => m("FC", "Fully Connected", "2:1", false, App),
            WorkloadId::Kmeans => m("KMeans", "KMeans Clustering", "10:1", false, App),
            WorkloadId::Svm => m("SVM", "Support Vector Machine", "2.5:2", true, App),
            WorkloadId::Hist => m("Hist", "Histogram", "3:2", true, App),
            WorkloadId::GenFil => {
                m("Gen_Fil", "Genomic Sequence Filtering (GRIM Algo)", "3:1", false, App)
            }
        }
    }

    /// The kernel's phase program.
    #[must_use]
    pub fn spec(self) -> KernelSpec {
        let seq = Addressing::Sequential;
        let (phases, structures, tile_cap, ordering_chunk, final_store): (
            Vec<Phase>,
            usize,
            Option<u64>,
            Option<u64>,
            Option<usize>,
        ) = match self {
            WorkloadId::Scale => (
                vec![
                    Phase::Load { structure: 0 },
                    Phase::Exec { op: AluOp::ScaleImm(3), per_stripe: 1, stride: 1 },
                    Phase::Store { structure: 0 },
                ],
                1,
                None,
                None,
                None,
            ),
            WorkloadId::Copy => (
                vec![Phase::Load { structure: 0 }, Phase::Store { structure: 1 }],
                2,
                None,
                None,
                None,
            ),
            WorkloadId::Daxpy => (
                vec![
                    Phase::Load { structure: 0 },
                    Phase::FetchOp { op: AluOp::AxpyImm(3), structure: 1, addressing: seq },
                    Phase::Store { structure: 0 },
                ],
                2,
                None,
                None,
                None,
            ),
            WorkloadId::Triad => (
                vec![
                    Phase::Load { structure: 0 },
                    Phase::FetchOp { op: AluOp::AxpyImm(3), structure: 1, addressing: seq },
                    Phase::Store { structure: 2 },
                ],
                3,
                None,
                None,
                None,
            ),
            WorkloadId::Add => (
                vec![
                    Phase::Load { structure: 0 },
                    Phase::FetchOp { op: AluOp::Add, structure: 1, addressing: seq },
                    Phase::Store { structure: 2 },
                ],
                3,
                None,
                None,
                None,
            ),
            WorkloadId::BnFwd => (
                vec![
                    Phase::Load { structure: 0 },
                    Phase::FetchOp { op: AluOp::Sub, structure: 1, addressing: seq },
                    Phase::Exec { op: AluOp::ScaleImm(3), per_stripe: 3, stride: 1 },
                    Phase::Exec { op: AluOp::AddImm(11), per_stripe: 3, stride: 1 },
                    Phase::Store { structure: 2 },
                ],
                3,
                None,
                None,
                None,
            ),
            WorkloadId::BnBwd => (
                vec![
                    Phase::Load { structure: 0 },
                    Phase::FetchOp { op: AluOp::Sub, structure: 1, addressing: seq },
                    Phase::FetchOp { op: AluOp::Mul, structure: 2, addressing: seq },
                    Phase::FetchOp { op: AluOp::Add, structure: 3, addressing: seq },
                    Phase::FetchOp { op: AluOp::AxpyImm(5), structure: 4, addressing: seq },
                    Phase::Exec { op: AluOp::ScaleImm(7), per_stripe: 9, stride: 1 },
                    Phase::Store { structure: 5 },
                ],
                6,
                None,
                None,
                None,
            ),
            WorkloadId::Fc => (
                // Dot-product accumulation: every fetch-MAC (multiply +
                // add = the 2:1 ratio) chains into the same TS
                // accumulators, so ordering is needed every few stripes
                // regardless of TS size.
                vec![Phase::FetchOp { op: AluOp::AxpyImm(3), structure: 0, addressing: seq }],
                1,
                None,
                Some(4),
                Some(0),
            ),
            WorkloadId::Kmeans => (
                vec![
                    Phase::FetchOp { op: AluOp::Sub, structure: 0, addressing: seq },
                    Phase::Exec { op: AluOp::ScaleImm(3), per_stripe: 9, stride: 1 },
                ],
                1,
                None,
                Some(8),
                Some(0),
            ),
            WorkloadId::Svm => (
                // Hinge clamp against the margins plus accumulation of
                // the support contributions; every other element needs a
                // bias step, giving the fractional 2.5:2 ratio.
                vec![
                    Phase::FetchOp { op: AluOp::Max, structure: 0, addressing: seq },
                    Phase::FetchOp { op: AluOp::Add, structure: 1, addressing: seq },
                    Phase::Exec { op: AluOp::AddImm(5), per_stripe: 1, stride: 2 },
                ],
                2,
                None,
                None,
                Some(1),
            ),
            WorkloadId::Hist => (
                vec![
                    Phase::Load { structure: 0 },
                    Phase::Exec { op: AluOp::ScaleImm(3), per_stripe: 2, stride: 1 },
                    Phase::FetchOp {
                        op: AluOp::Add,
                        structure: 1,
                        addressing: Addressing::Random { per: RandomPer::Stripe, span_rows: 16 },
                    },
                ],
                2,
                None,
                None,
                Some(1),
            ),
            WorkloadId::GenFil => (
                // 128 B (4-stripe) probes at pseudo-random candidate
                // locations, independent of TS size.
                vec![
                    Phase::FetchOp {
                        op: AluOp::Hamming,
                        structure: 0,
                        addressing: Addressing::Random { per: RandomPer::Tile, span_rows: 1 << 20 },
                    },
                    Phase::Exec { op: AluOp::AddImm(1), per_stripe: 2, stride: 1 },
                ],
                1,
                Some(4),
                None,
                Some(0),
            ),
        };
        let spec = KernelSpec {
            name: self.meta().name,
            phases,
            structures,
            tile_cap,
            ordering_chunk,
            final_store,
        };
        spec.validate().expect("registry specs are valid");
        spec
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.meta().name)
    }
}

/// A workload instantiated against a memory layout and problem size.
#[derive(Debug, Clone)]
pub struct WorkloadInstance {
    id: Option<WorkloadId>,
    spec: KernelSpec,
    layout: Layout,
    ts_stripes: u64,
    stripes_per_channel: u64,
    mode: OrderingMode,
    host_slices: u64,
}

impl WorkloadInstance {
    /// Instantiates `id` with `stripes_per_channel` elements per data
    /// structure per channel, a TS of `ts_stripes`, and the given
    /// ordering mode. PIM data is placed in memory group 0, all operand
    /// streams in one bank (the paper's placement).
    #[must_use]
    pub fn new(
        id: WorkloadId,
        mapping: AddressMapping,
        groups: &GroupMap,
        ts_stripes: u64,
        stripes_per_channel: u64,
        mode: OrderingMode,
    ) -> Self {
        Self::with_placement(id, mapping, groups, ts_stripes, stripes_per_channel, mode, 1, 1)
    }

    /// Full-control constructor: `bank_interleave` rotates consecutive
    /// rows across that many group banks (host data wants the group's
    /// full bank count for bank-level parallelism), and `host_slices`
    /// sets how many warps cooperate per channel in host mode.
    ///
    /// # Panics
    /// Panics if the placement does not fit (see [`Layout`]).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn with_placement(
        id: WorkloadId,
        mapping: AddressMapping,
        groups: &GroupMap,
        ts_stripes: u64,
        stripes_per_channel: u64,
        mode: OrderingMode,
        bank_interleave: u64,
        host_slices: u64,
    ) -> Self {
        let spec = id.spec();
        let layout = Layout::with_interleave(
            mapping,
            groups,
            MemGroupId(0),
            spec.structures,
            stripes_per_channel,
            bank_interleave,
        );
        WorkloadInstance {
            id: Some(id),
            spec,
            layout,
            ts_stripes,
            stripes_per_channel,
            mode,
            host_slices: host_slices.max(1),
        }
    }

    /// Instantiates a *custom* kernel built with
    /// [`crate::KernelBuilder`] (or a hand-written [`KernelSpec`]):
    /// same placement and verification machinery as the registry
    /// workloads, single-bank PIM layout in memory group 0.
    ///
    /// # Panics
    /// Panics if `spec` is invalid or the placement does not fit.
    #[must_use]
    pub fn custom(
        spec: KernelSpec,
        mapping: AddressMapping,
        groups: &GroupMap,
        ts_stripes: u64,
        stripes_per_channel: u64,
        mode: OrderingMode,
    ) -> Self {
        spec.validate().expect("custom kernel spec must be valid");
        let layout = Layout::with_interleave(
            mapping,
            groups,
            MemGroupId(0),
            spec.structures,
            stripes_per_channel,
            1,
        );
        WorkloadInstance {
            id: None,
            spec,
            layout,
            ts_stripes,
            stripes_per_channel,
            mode,
            host_slices: 1,
        }
    }

    /// Warps cooperating per channel in host mode.
    #[must_use]
    pub fn host_slices(&self) -> u64 {
        self.host_slices
    }

    /// The workload identity (`None` for custom kernels).
    #[must_use]
    pub fn id(&self) -> Option<WorkloadId> {
        self.id
    }

    /// The kernel's name (registry name or the custom spec's name).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// The phase program.
    #[must_use]
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }

    /// The data layout.
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The ordering mode the PIM streams are generated with.
    #[must_use]
    pub fn mode(&self) -> OrderingMode {
        self.mode
    }

    /// Elements (stripes) per structure per channel.
    #[must_use]
    pub fn stripes_per_channel(&self) -> u64 {
        self.stripes_per_channel
    }

    /// TS capacity in stripes the PIM streams are tiled for.
    #[must_use]
    pub fn ts_stripes(&self) -> u64 {
        self.ts_stripes
    }

    /// The PIM kernel stream for `channel`.
    #[must_use]
    pub fn pim_stream(&self, channel: ChannelId) -> PimKernelGen {
        PimKernelGen::new(
            self.spec.clone(),
            self.layout.clone(),
            channel,
            self.ts_stripes,
            self.stripes_per_channel,
            self.mode,
        )
    }

    /// The conventional-GPU stream for `channel` (slice 0 of 1).
    #[must_use]
    pub fn host_stream(&self, channel: ChannelId) -> HostKernelGen {
        self.host_stream_slice(channel, 0)
    }

    /// The conventional-GPU stream for warp `slice` of `channel`.
    #[must_use]
    pub fn host_stream_slice(&self, channel: ChannelId, slice: u64) -> HostKernelGen {
        HostKernelGen::with_slice(
            self.spec.clone(),
            self.layout.clone(),
            channel,
            self.stripes_per_channel,
            slice,
            self.host_slices,
        )
    }

    /// Deterministic input data for `channel` (one entry per stripe of
    /// every input structure), generated lazily.
    pub fn init_data(&self, channel: ChannelId) -> impl Iterator<Item = (Addr, Stripe)> + '_ {
        self.spec.input_structures().into_iter().flat_map(move |structure| {
            (0..self.stripes_per_channel).map(move |stripe| {
                let addr = self.layout.addr(channel, structure, stripe);
                (addr, data::init_stripe(addr))
            })
        })
    }

    /// A golden interpreter with a TS of `ts_slots` stripes, loaded with
    /// `channel`'s input data and sized up front for every stripe the
    /// kernel reads or writes, so interpretation never rehashes.
    fn golden_interp(&self, channel: ChannelId, ts_slots: usize) -> GoldenInterp {
        let inputs = self.spec.input_structures();
        let outputs = self.spec.output_structures();
        let touched = inputs.len() + outputs.iter().filter(|s| !inputs.contains(s)).count();
        let per = self.stripes_per_channel as usize;
        let mut interp = GoldenInterp::with_capacity(ts_slots, touched * per, outputs.len() * per);
        for (addr, value) in self.init_data(channel) {
            interp.init(addr, value);
        }
        interp
    }

    /// Runs the golden interpretation of `channel`'s PIM stream over the
    /// initial data; returns the interpreter holding the expected final
    /// memory image and the set of written addresses.
    #[must_use]
    pub fn golden_pim(&self, channel: ChannelId) -> GoldenInterp {
        let mut interp = self.golden_interp(channel, self.ts_stripes as usize);
        let mut stream = self.pim_stream(channel);
        interp.interpret(&mut stream);
        interp
    }

    /// Golden interpretation of all cooperating host streams of
    /// `channel`. Slices own disjoint tiles (and only slice 0 emits a
    /// final store), so interpreting them sequentially gives the unique
    /// correct final image.
    #[must_use]
    pub fn golden_host(&self, channel: ChannelId) -> GoldenInterp {
        let mut interp = self.golden_interp(channel, 1);
        for slice in 0..self.host_slices {
            interp.reset_ts();
            let mut stream = self.host_stream_slice(channel, slice);
            interp.interpret(&mut stream);
        }
        interp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::InstrStream;

    #[test]
    fn all_specs_validate_and_match_table2_structure() {
        for id in WorkloadId::ALL {
            let spec = id.spec();
            let meta = id.meta();
            assert_eq!(
                meta.multi_structure,
                spec.structures > 1,
                "{id}: multi-structure flag must match the spec"
            );
        }
    }

    #[test]
    fn suites_partition_the_workloads() {
        assert_eq!(WorkloadId::STREAMS.len() + WorkloadId::APPS.len(), WorkloadId::ALL.len());
        for id in WorkloadId::STREAMS {
            assert_eq!(id.meta().suite, Suite::Stream);
        }
        for id in WorkloadId::APPS {
            assert_eq!(id.meta().suite, Suite::App);
        }
    }

    #[test]
    fn structural_ratios_track_table2() {
        // Spot-check the structural compute/memory counts against the
        // Table 2 ratios they model.
        let check = |id: WorkloadId, compute: f64, memory: f64| {
            let (c, m) = id.spec().ops_per_stripe();
            assert_eq!((c, m), (compute, memory), "{id}");
        };
        check(WorkloadId::Scale, 1.0, 1.0);
        check(WorkloadId::Copy, 0.0, 2.0);
        check(WorkloadId::Daxpy, 2.0, 2.0);
        check(WorkloadId::Triad, 2.0, 3.0);
        check(WorkloadId::Add, 1.0, 3.0);
        check(WorkloadId::BnFwd, 7.0, 3.0);
        check(WorkloadId::BnBwd, 14.0, 6.0);
        check(WorkloadId::Fc, 2.0, 1.0);
        check(WorkloadId::Kmeans, 10.0, 1.0);
        check(WorkloadId::Svm, 2.5, 2.0);
        check(WorkloadId::Hist, 3.0, 2.0);
        check(WorkloadId::GenFil, 3.0, 1.0);
    }

    fn instance(id: WorkloadId, mode: OrderingMode) -> WorkloadInstance {
        WorkloadInstance::new(id, AddressMapping::hbm_default(), &GroupMap::default(), 8, 64, mode)
    }

    #[test]
    fn golden_pim_produces_output_for_every_workload() {
        for id in WorkloadId::ALL {
            let inst = instance(id, OrderingMode::OrderLight);
            let golden = inst.golden_pim(ChannelId(0));
            assert!(!golden.written().is_empty(), "{id}: kernel must write observable output");
        }
    }

    #[test]
    fn add_golden_matches_elementwise_sum() {
        let inst = instance(WorkloadId::Add, OrderingMode::OrderLight);
        let golden = inst.golden_pim(ChannelId(0));
        let l = inst.layout();
        for i in 0..64 {
            let a = crate::data::init_stripe(l.addr(ChannelId(0), 0, i));
            let b = crate::data::init_stripe(l.addr(ChannelId(0), 1, i));
            let c = golden.read(l.addr(ChannelId(0), 2, i));
            assert_eq!(c, a.zip_map(b, u32::wrapping_add), "stripe {i}");
        }
    }

    #[test]
    fn ordering_mode_does_not_change_golden_semantics() {
        // Sequential interpretation ignores ordering primitives, so all
        // three modes must produce identical golden images.
        for id in [WorkloadId::Add, WorkloadId::Hist, WorkloadId::GenFil] {
            let a = instance(id, OrderingMode::None).golden_pim(ChannelId(1));
            let b = instance(id, OrderingMode::Fence).golden_pim(ChannelId(1));
            let c = instance(id, OrderingMode::OrderLight).golden_pim(ChannelId(1));
            for addr in a.written() {
                assert_eq!(a.read(Addr(*addr)), b.read(Addr(*addr)), "{id}");
                assert_eq!(a.read(Addr(*addr)), c.read(Addr(*addr)), "{id}");
            }
            assert_eq!(a.written(), b.written());
            assert_eq!(a.written(), c.written());
        }
    }

    #[test]
    fn host_and_pim_agree_for_tileless_kernels() {
        // For pure elementwise kernels the host and PIM streams compute
        // identical outputs (reduction kernels differ by tile shape).
        for id in [WorkloadId::Scale, WorkloadId::Copy, WorkloadId::Add, WorkloadId::Triad] {
            let inst = instance(id, OrderingMode::OrderLight);
            let pim = inst.golden_pim(ChannelId(0));
            let host = inst.golden_host(ChannelId(0));
            for structure in inst.spec().output_structures() {
                for i in 0..64 {
                    let addr = inst.layout().addr(ChannelId(0), structure, i);
                    assert_eq!(pim.read(addr), host.read(addr), "{id} stripe {i}");
                }
            }
        }
    }

    #[test]
    fn streams_visit_only_their_channel() {
        let inst = instance(WorkloadId::Add, OrderingMode::OrderLight);
        let mapping = inst.layout().mapping().clone();
        let mut stream = inst.pim_stream(ChannelId(9));
        let mut n = 0;
        while let Some(i) = stream.next_instr() {
            if let orderlight::KernelInstr::Pim(p) = i {
                assert_eq!(mapping.channel_of(p.addr), ChannelId(9));
                n += 1;
            }
        }
        assert!(n > 0);
    }
}
