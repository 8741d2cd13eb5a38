//! # Workload suite (paper Table 2)
//!
//! Generators for the paper's twelve evaluated kernels — the stream
//! benchmark (Scale, Copy, Daxpy, Triad, Add) and seven data-intensive
//! application kernels (batch-norm forward/backward, fully-connected,
//! KMeans, SVM, Histogram, genomic sequence filtering) — in three forms:
//!
//! * a **PIM kernel** stream (fine-grained PIM instructions tiled to the
//!   temporary-storage size, with ordering primitives between phases as
//!   in paper Figure 4),
//! * a **host kernel** stream (conventional loads/computes/stores whose
//!   ordering register dependences enforce — the GPU baseline), and
//! * a **golden interpretation** (sequential semantics) used to verify
//!   that a simulated run computed the right bytes.
//!
//! Kernels are described by a [`KernelSpec`] — a per-tile phase program
//! over one or more data structures — and instantiated against a memory
//! layout that places all of a kernel's operand streams in one bank of
//! each channel (the paper's operand-alignment assumption, Section 6).

pub mod builder;
pub mod data;
pub mod host;
pub mod kernel;
pub mod layout;
pub mod registry;
pub mod verify;

pub use builder::KernelBuilder;
pub use host::HostKernelGen;
pub use kernel::{Addressing, KernelSpec, OrderingMode, Phase, PimKernelGen, RandomPer};
pub use layout::{Layout, RowRun};
pub use registry::{Suite, WorkloadId, WorkloadInstance, WorkloadMeta};
pub use verify::GoldenInterp;
