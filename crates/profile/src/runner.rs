//! The packaged profiling harness: run a scenario with the
//! [`StallProfiler`] attached and check the conservation invariant.

use crate::profiler::StallProfiler;
use crate::report::ProfileReport;
use orderlight_sim::experiments::JobSpec;
use orderlight_sim::system::SimError;
use orderlight_sim::{Pool, RunStats, Scenario};
use orderlight_trace::{ClockDomains, SharedSink, TeeSink};
use std::sync::Arc;

/// Everything a profiled run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOutcome {
    /// The run's ordinary statistics, bit-identical to an unprofiled
    /// run on the same core (the profiler only observes).
    pub stats: RunStats,
    /// The stall attribution and lifecycle decomposition.
    pub report: ProfileReport,
    /// The conservation verdict: `Err` carries every violated equation.
    pub conservation: Result<(), String>,
    /// The run's clock domains, for exporters that place the teed
    /// event stream on the wall-clock axis.
    pub clocks: ClockDomains,
}

impl ProfileOutcome {
    /// Whether every attributed stall cycle conserved the run's own
    /// counters.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.conservation.is_ok()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "profiled {} events; {} of {} stall cycles attributed; conservation {}",
            self.report.events,
            self.report.total_attributed(),
            self.stats.stall_cycles(),
            match &self.conservation {
                Ok(()) => "holds".to_string(),
                Err(e) => format!("VIOLATED ({e})"),
            }
        )
    }
}

/// Runs `scenario` with a [`StallProfiler`] attached as the full-system
/// trace sink and returns the attribution. The run uses whichever core
/// the scenario selects — skip boundaries synthesize the periodic
/// events, so the report is byte-identical across cores.
///
/// # Errors
/// Returns [`SimError`] on build failure or budget exhaustion.
pub fn profile_scenario(scenario: &Scenario) -> Result<ProfileOutcome, SimError> {
    profile_scenario_with(scenario, None)
}

/// Like [`profile_scenario`], but tees the event stream into `extra`
/// as well — the CLI uses this to feed a `RingSink` for the Chrome
/// export while the profiler aggregates the same stream.
///
/// # Errors
/// Returns [`SimError`] on build failure or budget exhaustion.
pub fn profile_scenario_with(
    scenario: &Scenario,
    extra: Option<SharedSink>,
) -> Result<ProfileOutcome, SimError> {
    let mut sys = scenario.system()?;
    let clocks = sys.clock_domains();
    let profiler = Arc::new(StallProfiler::new(clocks));
    let sink: SharedSink = match extra {
        Some(extra) => Arc::new(TeeSink::new(profiler.clone(), extra)),
        None => profiler.clone(),
    };
    sys.attach_sink(sink);
    let stats = sys.run_with(scenario.budget(), scenario.core())?;
    let mut report = profiler.report();
    // Tag the attribution with the backend that produced it: the same
    // stall cause reads differently under different ordering machinery.
    report.ordering = scenario.experiment().mode.ordering_backend().to_string();
    let conservation = report.verify(&stats);
    Ok(ProfileOutcome { stats, report, conservation, clocks })
}

/// Profiles every spec through `pool`, returning outcomes in input
/// order regardless of scheduling — each job owns its profiler, so the
/// serialized reports are bit-identical across worker counts.
///
/// # Errors
/// Propagates the first [`SimError`] in input order.
pub fn profile_points(specs: &[JobSpec], pool: &Pool) -> Result<Vec<ProfileOutcome>, SimError> {
    pool.run(
        specs
            .iter()
            .map(|spec| {
                move || -> Result<ProfileOutcome, SimError> {
                    profile_scenario(&spec.builder().build()?)
                }
            })
            .collect::<Vec<_>>(),
    )
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight_sim::config::ExecMode;
    use orderlight_sim::{ScenarioBuilder, SimCore};
    use orderlight_workloads::{OrderingMode, WorkloadId};

    fn small(mode: OrderingMode) -> ScenarioBuilder {
        ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(mode)).data_kb(8)
    }

    #[test]
    fn fence_run_attributes_and_conserves() {
        let outcome = profile_scenario(&small(OrderingMode::Fence).build().unwrap()).unwrap();
        assert!(outcome.is_conserved(), "{}", outcome.summary());
        assert!(outcome.stats.sm.fence_stall_cycles > 0, "fence mode must stall on fences");
        assert!(outcome.report.fence_round_trip.count > 0, "round trips must be reconstructed");
        assert!(outcome.report.mc_queue_wait.count > 0);
    }

    #[test]
    fn orderlight_run_sees_the_packet_lifecycle() {
        let outcome = profile_scenario(&small(OrderingMode::OrderLight).build().unwrap()).unwrap();
        assert!(outcome.is_conserved(), "{}", outcome.summary());
        assert!(outcome.report.packets_created > 0);
        assert_eq!(
            outcome.report.packets_created, outcome.report.packets_merged,
            "every packet must merge by quiescence"
        );
        assert!(outcome.report.noc_delay.count > 0, "noc traversal must be measured");
        assert!(outcome.report.noc_delay.sum_us > 0.0);
    }

    #[test]
    fn profiling_is_observe_only_on_both_cores() {
        for core in [SimCore::Cycle, SimCore::Event] {
            let baseline = small(OrderingMode::Fence).core(core).build().unwrap().run().unwrap();
            let profiled =
                profile_scenario(&small(OrderingMode::Fence).core(core).build().unwrap()).unwrap();
            assert_eq!(
                profiled.stats, baseline,
                "profiler must not perturb the run under {core:?}"
            );
            assert!(profiled.is_conserved(), "{core:?}: {}", profiled.summary());
        }
    }
}
