//! The packaged check harness: run a scenario with the oracle attached
//! and cross-check the final DRAM image.

use crate::oracle::{CheckReport, OrderingOracle};
use orderlight_sim::system::SimError;
use orderlight_sim::{RunStats, Scenario};
use std::sync::Arc;

/// Everything a checked run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// The run's statistics, including the DRAM-image cross-check
    /// against the sequential golden model
    /// (`verified_matches` / `verified_mismatches`).
    pub stats: RunStats,
    /// The oracle's happens-before verdict.
    pub report: CheckReport,
    /// Ordering edges elided by a drop-edge mutation (zero unless the
    /// scenario's fault plan asked for one).
    pub edges_dropped: u64,
}

impl CheckOutcome {
    /// Whether the run was clean on all three axes: no happens-before
    /// edge violated, every output byte matching the golden model, and
    /// no sanity violation (non-monotonic packet numbers at the
    /// controller's merge, out-of-order retires in the backend).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.stats.is_correct() && self.stats.mc.sanity_violations == 0
    }

    /// One-line human summary covering all axes.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}; dram bytes: {} ok / {} wrong; {} sanity violation(s){}",
            self.report.summary(),
            self.stats.verified_matches,
            self.stats.verified_mismatches,
            self.stats.mc.sanity_violations,
            if self.edges_dropped > 0 {
                format!(" (mutation elided {} ordering edge(s))", self.edges_dropped)
            } else {
                String::new()
            }
        )
    }
}

/// Runs `scenario` with an [`OrderingOracle`] observing every memory
/// controller, on the scenario's execution core (the event core unless
/// pinned), and returns the combined verdict. The oracle rides the
/// observer path ([`orderlight_sim::System::attach_observer`]), so the
/// event core stays usable; a scenario-level trace sink, if any, is
/// superseded at the controllers for the duration of the check.
///
/// # Errors
/// Returns [`SimError`] on build failure or budget exhaustion.
pub fn check_scenario(scenario: &Scenario) -> Result<CheckOutcome, SimError> {
    // The SeqNum backend promises per-warp in-order issue instead of
    // in-band barriers; opt the oracle into the matching discipline.
    let seq_mode = matches!(
        scenario.experiment().mode,
        orderlight_sim::config::ExecMode::Pim(orderlight_workloads::OrderingMode::SeqNum)
    );
    let oracle =
        Arc::new(if seq_mode { OrderingOracle::with_seq_check() } else { OrderingOracle::new() });
    let mut sys = scenario.system()?;
    sys.attach_observer(oracle.clone());
    let stats = sys.run_with(scenario.budget(), scenario.core())?;
    let edges_dropped = sys.ordering_edges_dropped();
    Ok(CheckOutcome { stats, report: oracle.report(), edges_dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::fault::{DropEdge, FaultPlan};
    use orderlight_sim::config::ExecMode;
    use orderlight_sim::ScenarioBuilder;
    use orderlight_workloads::{OrderingMode, WorkloadId};

    fn small(mode: OrderingMode) -> ScenarioBuilder {
        ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(mode)).data_kb(8)
    }

    #[test]
    fn clean_orderlight_run_has_no_violations() {
        let outcome = check_scenario(&small(OrderingMode::OrderLight).build().unwrap()).unwrap();
        assert!(outcome.is_clean(), "{}", outcome.summary());
        assert!(outcome.report.packets > 0, "oracle must have seen packets");
        assert!(outcome.report.reqs_issued > 0);
        assert_eq!(outcome.edges_dropped, 0);
    }

    #[test]
    fn mutant_run_fires_the_oracle() {
        let plan =
            FaultPlan { drop_edge: Some(DropEdge { channel: 0, group: 0 }), ..FaultPlan::none() };
        let outcome =
            check_scenario(&small(OrderingMode::OrderLight).faults(plan).build().unwrap()).unwrap();
        assert!(outcome.edges_dropped > 0, "mutation must have elided edges");
        assert!(
            !outcome.report.is_clean(),
            "oracle must flag the elided edges: {}",
            outcome.summary()
        );
    }
}
