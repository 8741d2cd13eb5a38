//! A fluent builder for custom PIM kernels — the "intrinsics-like low
//! level primitives" of paper Section 5.4.
//!
//! The paper envisions programmers expressing PIM computations with
//! intrinsics that compile to fine-grained PIM instruction streams,
//! with channel and memory-group fields populated from the memory
//! organisation. [`KernelBuilder`] is that API surface: describe the
//! per-tile phase program, and the generators take care of tiling for
//! the TS size, addressing each channel's slice, and inserting the
//! chosen ordering primitive at every phase boundary.
//!
//! # Example
//!
//! A residual feature-map update `y[i] = gamma * (x[i] + y[i]) + beta`:
//!
//! ```
//! use orderlight::AluOp;
//! use orderlight_workloads::KernelBuilder;
//!
//! # fn main() -> Result<(), orderlight::ConfigError> {
//! let spec = KernelBuilder::new("residual_update")
//!     .load(0)                        // x tile into TS
//!     .fetch(AluOp::Add, 1)           // += y
//!     .exec(AluOp::ScaleImm(3), 1)    // *= gamma
//!     .exec(AluOp::AddImm(11), 1)     // += beta
//!     .store(1)                       // back to y
//!     .build()?;
//! assert_eq!(spec.structures, 2);
//! # Ok(())
//! # }
//! ```
//!
//! `exec` phases require immediate operations (a memory-reading op in
//! an execute-only command is rejected by validation); `fetch` phases
//! require memory-reading ones.

use crate::kernel::{Addressing, KernelSpec, Phase};
use orderlight::{AluOp, ConfigError};

/// Fluent construction of a [`KernelSpec`].
#[derive(Debug, Clone, Default)]
pub struct KernelBuilder {
    name: &'static str,
    phases: Vec<Phase>,
    tile_cap: Option<u64>,
    ordering_chunk: Option<u64>,
    final_store: Option<usize>,
}

impl KernelBuilder {
    /// Starts a kernel named `name`.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        KernelBuilder { name, ..KernelBuilder::default() }
    }

    /// Appends a load phase: a tile of `structure` into TS.
    #[must_use]
    pub fn load(mut self, structure: usize) -> Self {
        self.phases.push(Phase::Load { structure });
        self
    }

    /// Appends a fetch-and-op phase streaming `structure`.
    #[must_use]
    pub fn fetch(mut self, op: AluOp, structure: usize) -> Self {
        self.phases.push(Phase::FetchOp { op, structure, addressing: Addressing::Sequential });
        self
    }

    /// Appends an execute-only phase: `per_stripe` immediate operations
    /// on every tile stripe.
    #[must_use]
    pub fn exec(self, op: AluOp, per_stripe: u32) -> Self {
        self.exec_strided(op, per_stripe, 1)
    }

    /// Appends an execute-only phase applied to every `stride`-th
    /// stripe.
    #[must_use]
    pub fn exec_strided(mut self, op: AluOp, per_stripe: u32, stride: u32) -> Self {
        self.phases.push(Phase::Exec { op, per_stripe, stride });
        self
    }

    /// Appends a store phase: the TS tile out to `structure`.
    #[must_use]
    pub fn store(mut self, structure: usize) -> Self {
        self.phases.push(Phase::Store { structure });
        self
    }

    /// Caps the tile size in stripes regardless of TS (algorithmic
    /// granularity, like the genome filter's 128 B probes).
    #[must_use]
    pub fn tile_cap(mut self, stripes: u64) -> Self {
        self.tile_cap = Some(stripes);
        self
    }

    /// Orders every `stripes` elements *within* memory phases (reduction
    /// structure).
    #[must_use]
    pub fn ordering_chunk(mut self, stripes: u64) -> Self {
        self.ordering_chunk = Some(stripes);
        self
    }

    /// Stores the TS accumulators to `structure` once after the last
    /// tile (makes cross-tile reductions observable).
    #[must_use]
    pub fn final_store(mut self, structure: usize) -> Self {
        self.final_store = Some(structure);
        self
    }

    /// Validates and produces the [`KernelSpec`]. The structure count is
    /// inferred from the highest structure index used.
    ///
    /// # Errors
    /// Returns [`ConfigError`] for an empty program, an `exec` op that
    /// reads memory, a `fetch` op that does not, or zero counts — the
    /// same rules as [`KernelSpec::validate`].
    pub fn build(self) -> Result<KernelSpec, ConfigError> {
        let structures = self
            .phases
            .iter()
            .filter_map(|p| match *p {
                Phase::Load { structure }
                | Phase::Store { structure }
                | Phase::FetchOp { structure, .. } => Some(structure + 1),
                Phase::Exec { .. } => None,
            })
            .chain(self.final_store.map(|s| s + 1))
            .max()
            .unwrap_or(0)
            .max(1);
        let spec = KernelSpec {
            name: self.name,
            phases: self.phases,
            structures,
            tile_cap: self.tile_cap,
            ordering_chunk: self.ordering_chunk,
            final_store: self.final_store,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{OrderingMode, PimKernelGen};
    use crate::layout::Layout;
    use orderlight::mapping::{AddressMapping, GroupMap};
    use orderlight::types::{ChannelId, MemGroupId};
    use orderlight::InstrStream;

    #[test]
    fn builds_the_figure4_kernel() {
        let spec =
            KernelBuilder::new("vector_add").load(0).fetch(AluOp::Add, 1).store(2).build().unwrap();
        assert_eq!(spec.structures, 3);
        assert_eq!(spec.phases.len(), 3);
        let reference = crate::WorkloadId::Add.spec();
        assert_eq!(spec.phases, reference.phases);
        assert_eq!(spec.structures, reference.structures);
    }

    #[test]
    fn infers_structures_from_final_store() {
        let spec = KernelBuilder::new("reduce")
            .fetch(AluOp::AxpyImm(3), 0)
            .ordering_chunk(4)
            .final_store(1)
            .build()
            .unwrap();
        assert_eq!(spec.structures, 2);
        assert_eq!(spec.final_store, Some(1));
    }

    #[test]
    fn rejects_memory_reading_exec() {
        let err = KernelBuilder::new("bad").load(0).exec(AluOp::Max, 1).build();
        assert!(err.is_err());
    }

    #[test]
    fn rejects_empty_program() {
        assert!(KernelBuilder::new("empty").build().is_err());
    }

    #[test]
    fn built_spec_generates_streams() {
        let spec = KernelBuilder::new("scale_bias")
            .load(0)
            .exec(AluOp::ScaleImm(3), 1)
            .exec(AluOp::AddImm(7), 1)
            .store(1)
            .build()
            .unwrap();
        let layout = Layout::new(
            AddressMapping::hbm_default(),
            &GroupMap::default(),
            MemGroupId(0),
            spec.structures,
            32,
        );
        let mut gen =
            PimKernelGen::new(spec, layout, ChannelId(0), 8, 32, OrderingMode::OrderLight);
        let mut n = 0;
        while gen.next_instr().is_some() {
            n += 1;
        }
        // 4 tiles x (8 loads + 8 + 8 execs + 8 stores + 4 packets).
        assert_eq!(n, 4 * 36);
    }
}
