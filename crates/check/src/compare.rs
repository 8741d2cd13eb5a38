//! Cross-primitive ordering comparison: run the same workload under
//! every ordering backend, with the happens-before oracle attached, and
//! report speedup vs. violation-freedom vs. ordering-metadata cost.
//!
//! This is the measurement half of the pluggable-backend refactor: the
//! five backends ([`COMPARE_BACKENDS`]) answer the same question —
//! "keep same-group PIM requests in order" — with different machinery
//! and different costs:
//!
//! | backend      | in-band metadata              | enforcement point   |
//! |--------------|-------------------------------|---------------------|
//! | `orderlight` | 42-bit group-tagged packets   | scheduler barrier   |
//! | `fence`      | probe/ack round trips         | issuing core stalls |
//! | `seqnum`     | credit responses per request  | controller FIFO     |
//! | `louvre`     | 42-bit versioned releases     | dequeue gate        |
//! | `bulk`       | none (controller state only)  | dequeue gate        |
//!
//! Every leg runs through [`check_scenario`], so each record carries
//! the oracle's verdict alongside the timing: a backend is only
//! comparable if its run was violation-free.

use crate::runner::check_scenario;
use orderlight_sim::config::ExecMode;
use orderlight_sim::system::SimError;
use orderlight_sim::ScenarioBuilder;
use orderlight_trace::json::Value;
use orderlight_workloads::{OrderingMode, WorkloadId};

/// The five ordering backends, in reporting order. `fence` is the
/// speedup baseline: it is the conservative scheme every GPU already
/// implements, so "speedup" reads as "what finer-grained ordering buys
/// over draining at the core".
pub const COMPARE_BACKENDS: [OrderingMode; 5] = [
    OrderingMode::Fence,
    OrderingMode::OrderLight,
    OrderingMode::SeqNum,
    OrderingMode::LouvreVersioned,
    OrderingMode::BulkBitwiseStrong,
];

/// Width of an in-band ordering message, in bits. OrderLight packets
/// and Louvre release markers both ride the request path at this width
/// (Section 4 of the paper); fence probes are modelled at the same
/// width since they traverse the same NoC slots.
pub const PACKET_BITS: u64 = 42;

/// Width of a SeqNum credit response, in bits: a warp id and a
/// sequence-number acknowledgement on the response path.
pub const CREDIT_BITS: u64 = 32;

/// One backend's row in the comparison: timing, verdict, and metadata
/// accounting for a single checked run.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendRecord {
    /// Which backend ran (its `Display` is the stable CLI/JSON label).
    pub ordering: OrderingMode,
    /// Drain time in core cycles.
    pub core_cycles: u64,
    /// Drain time in modelled milliseconds.
    pub exec_time_ms: f64,
    /// `fence` baseline cycles / this backend's cycles (1.0 for the
    /// baseline itself; >1 means faster than draining at the core).
    pub speedup_vs_fence: f64,
    /// Whether the checked run was fully clean: oracle-silent, DRAM
    /// bytes matching the golden model, zero sanity violations.
    pub clean: bool,
    /// Happens-before violations the oracle flagged.
    pub violations: u64,
    /// Sanity violations (non-monotonic packet numbers or versions at
    /// the controller's merge, out-of-order retires in the backend).
    pub sanity_violations: u64,
    /// In-band ordering packets merged at the controllers (OrderLight
    /// packets or Louvre versioned releases).
    pub packets: u64,
    /// Fence probe/ack round trips serviced by the controllers.
    pub fence_acks: u64,
    /// Credit responses returned on the response path (SeqNum only).
    pub credits: u64,
    /// Total in-band ordering metadata moved, in bits: packets and
    /// probes at [`PACKET_BITS`], credits at [`CREDIT_BITS`].
    /// BulkBitwiseStrong scores zero — its epochs live entirely in
    /// controller state.
    pub metadata_bits: u64,
}

impl BackendRecord {
    /// The record as one entry of the `ordering` array in the
    /// `orderlight/bench-sweep/v6` documents of `compare-ordering` and
    /// `bench`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("ordering", self.ordering.to_string().into()),
            ("core_cycles", self.core_cycles.into()),
            ("exec_time_ms", self.exec_time_ms.into()),
            ("speedup_vs_fence", self.speedup_vs_fence.into()),
            ("clean", self.clean.into()),
            ("violations", self.violations.into()),
            ("sanity_violations", self.sanity_violations.into()),
            ("packets", self.packets.into()),
            ("fence_acks", self.fence_acks.into()),
            ("credits", self.credits.into()),
            ("metadata_bits", self.metadata_bits.into()),
        ])
    }
}

/// Runs `workload` under every backend in [`COMPARE_BACKENDS`] with
/// the oracle attached, and returns one record per backend, baseline
/// first.
///
/// # Errors
/// Returns [`SimError`] if any leg fails to build or exhausts its
/// budget.
pub fn compare_backends(
    workload: WorkloadId,
    data_kb: u64,
) -> Result<Vec<BackendRecord>, SimError> {
    let mut records = Vec::with_capacity(COMPARE_BACKENDS.len());
    let mut baseline_cycles = None;
    for mode in COMPARE_BACKENDS {
        let scenario =
            ScenarioBuilder::new(workload, ExecMode::Pim(mode)).data_kb(data_kb).build()?;
        let outcome = check_scenario(&scenario)?;
        let stats = &outcome.stats;
        let cycles = stats.core_cycles;
        let baseline = *baseline_cycles.get_or_insert(cycles);
        let credits = if mode == OrderingMode::SeqNum { stats.sm.pim_issued } else { 0 };
        let metadata_bits =
            (stats.mc.ol_packets + stats.mc.fence_acks) * PACKET_BITS + credits * CREDIT_BITS;
        records.push(BackendRecord {
            ordering: mode,
            core_cycles: cycles,
            exec_time_ms: stats.exec_time_ms,
            speedup_vs_fence: baseline as f64 / cycles as f64,
            clean: outcome.is_clean(),
            violations: outcome.report.violations_total,
            sanity_violations: stats.mc.sanity_violations,
            packets: stats.mc.ol_packets,
            fence_acks: stats.mc.fence_acks,
            credits,
            metadata_bits,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_all_backends_and_is_clean() {
        let records = compare_backends(WorkloadId::Add, 8).unwrap();
        assert_eq!(records.len(), COMPARE_BACKENDS.len());
        assert_eq!(records[0].ordering, OrderingMode::Fence);
        assert!((records[0].speedup_vs_fence - 1.0).abs() < f64::EPSILON);
        for r in &records {
            assert!(r.clean, "{}: comparison legs must be violation-free", r.ordering);
            assert_eq!(r.violations, 0);
            assert!(r.core_cycles > 0);
        }
        // The metadata accounting must reflect each backend's actual
        // mechanism: packets for OrderLight/Louvre, probes for Fence,
        // credits for SeqNum, nothing in-band for BulkBitwiseStrong.
        let by = |m: OrderingMode| records.iter().find(|r| r.ordering == m).unwrap();
        assert!(by(OrderingMode::OrderLight).packets > 0);
        assert!(by(OrderingMode::LouvreVersioned).packets > 0);
        assert!(by(OrderingMode::Fence).fence_acks > 0);
        assert!(by(OrderingMode::SeqNum).credits > 0);
        let bulk = by(OrderingMode::BulkBitwiseStrong);
        assert_eq!(bulk.metadata_bits, 0, "bulk keeps ordering state out of band");
    }
}
