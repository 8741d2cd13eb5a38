//! Cross-core observability contract: a profiled run produces a
//! **byte-identical** [`ProfileReport`] whether it executes on the
//! dense cycle core or the event-driven time-skip core. This is the
//! acceptance gate for skip-boundary event synthesis — every
//! `NextEvent`-bearing component must emit, closed-form at skip
//! boundaries, the same run-length `CoreStall`, `PipeSample`,
//! `QueueSample`, and lifecycle records the dense core produces
//! cycle-by-cycle, so `StallProfiler` conservation holds bit-identically
//! under both cores.
//!
//! The fig05 sweep plus SplitMix64-randomised configurations (refresh
//! off and on) stay in the fast tier, with sampled fig10/fig12 points;
//! the full fig10/fig12 sweeps are tier 2 (`--include-ignored` /
//! `ORDERLIGHT_TIER2=1 ./ci.sh`). The event core runs at its built-in
//! dense-burst threshold and forced to burst always and never.

use std::sync::Arc;

use orderlight_suite::core::rng::Rng;
use orderlight_suite::hbm::RefreshParams;
use orderlight_suite::pim::TsSize;
use orderlight_suite::profile::{profile_scenario, StallProfiler};
use orderlight_suite::sim::config::{ExecMode, ExperimentConfig};
use orderlight_suite::sim::experiments::{
    apply_sm_policy, fig05_points, fig10_points, fig12_points, JobSpec,
};
use orderlight_suite::sim::system::with_burst_threshold;
use orderlight_suite::sim::{Scenario, ScenarioBuilder, SimCore};
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

/// Matches `core_equivalence.rs`: small enough for sub-second sweeps,
/// large enough to stream multiple row-buffer tiles.
const DATA: u64 = 8 * 1024;

/// Profiles `scenario` on the cycle core and on the event core at its
/// built-in dense-burst threshold, forced always and forced never, and
/// asserts the serialized reports are byte-identical, conservation
/// holds on every leg, and each leg's `RunStats` match (the cores are
/// bit-identical with the sink live).
fn assert_reports_agree(label: &str, cycle: &Scenario, event: &Scenario) {
    let on_cycle = profile_scenario(cycle).expect("cycle-core profile runs");
    assert!(on_cycle.is_conserved(), "{label} (cycle): {}", on_cycle.summary());
    for burst in [None, Some(0), Some(u32::MAX)] {
        let on_event = with_burst_threshold(burst, || profile_scenario(event))
            .expect("event-core profile runs");
        assert!(
            on_event.is_conserved(),
            "{label} (event, burst={burst:?}): {}",
            on_event.summary()
        );
        assert_eq!(
            on_event.stats, on_cycle.stats,
            "{label} (burst={burst:?}): RunStats must be bit-identical across cores with a live sink"
        );
        assert_eq!(
            on_event.report.to_json(),
            on_cycle.report.to_json(),
            "{label} (burst={burst:?}): serialized ProfileReport must match byte for byte across cores"
        );
    }
}

fn assert_spec_agrees(label: &str, spec: &JobSpec) {
    let build = |core: SimCore| spec.builder().core(core).build().expect("scenario builds");
    assert_reports_agree(label, &build(SimCore::Cycle), &build(SimCore::Event));
}

fn assert_figure_agrees(figure: &str, specs: &[JobSpec]) {
    for spec in specs {
        let label = format!("{figure} {} {} {}", spec.workload, spec.mode, spec.ts);
        assert_spec_agrees(&label, spec);
    }
}

#[test]
fn fig05_profile_reports_agree_across_cores() {
    assert_figure_agrees("fig05", &fig05_points(DATA));
}

#[test]
fn fig10_and_fig12_representative_reports_agree() {
    // Fast-tier coverage of the tier-2 sweeps: a spread of points from
    // each (different workloads, orderings and BMFs).
    for (figure, points) in [("fig10", fig10_points(DATA)), ("fig12", fig12_points(DATA))] {
        let sample: Vec<JobSpec> = points.iter().copied().step_by(9).collect();
        assert!(sample.len() >= 4, "{figure}: sample too thin");
        assert_figure_agrees(figure, &sample);
    }
}

#[test]
#[ignore = "tier 2: profiles the full Figure 10 sweep per core; run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig10_profile_reports_agree_across_cores() {
    assert_figure_agrees("fig10", &fig10_points(DATA));
}

#[test]
#[ignore = "tier 2: profiles the full Figure 12 sweep per core; run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig12_profile_reports_agree_across_cores() {
    assert_figure_agrees("fig12", &fig12_points(DATA));
}

/// Randomised configurations with refresh both off and on. Refresh
/// exercises the memory-domain horizon (skip windows must stop short of
/// a refresh trigger so `RefreshWindow` events fire on dense ticks),
/// which the figure sweeps leave off.
#[test]
fn randomized_configs_reports_agree_across_cores() {
    const WORKLOADS: [WorkloadId; 5] = [
        WorkloadId::Add,
        WorkloadId::Daxpy,
        WorkloadId::Scale,
        WorkloadId::Copy,
        WorkloadId::Triad,
    ];
    const MODES: [OrderingMode; 4] =
        [OrderingMode::OrderLight, OrderingMode::Fence, OrderingMode::SeqNum, OrderingMode::None];
    const TS: [TsSize; 4] = [TsSize::Sixteenth, TsSize::Eighth, TsSize::Quarter, TsSize::Half];

    let mut rng = Rng::new(0x0b5e_7fab_1e5a_0b1e);
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    for i in 0..4 {
        let workload = WORKLOADS[pick(WORKLOADS.len())];
        let mode = MODES[pick(MODES.len())];
        let ts = TS[pick(TS.len())];
        let data = [2u64, 4, 8][pick(3)] * 1024;
        let spec = JobSpec {
            workload,
            ts,
            mode: ExecMode::Pim(mode),
            bmf: 16,
            data_bytes_per_channel: data,
        };
        for refresh in [None, Some(RefreshParams::hbm2())] {
            let mut exp = ExperimentConfig::new(spec.workload, spec.mode);
            exp.ts_size = spec.ts;
            exp.bmf = spec.bmf;
            exp.data_bytes_per_channel = spec.data_bytes_per_channel;
            apply_sm_policy(&mut exp);
            exp.system.refresh = refresh;
            let label =
                format!("random[{i}] {workload} {mode} {ts} {data}B refresh={}", refresh.is_some());
            let build = |core: SimCore| {
                ScenarioBuilder::from_experiment(exp.clone())
                    .core(core)
                    .build()
                    .expect("scenario builds")
            };
            assert_reports_agree(&label, &build(SimCore::Cycle), &build(SimCore::Event));
        }
    }
}

/// The strongest form of the observe-only contract: attaching a
/// [`StallProfiler`] must not perturb the event core's **skip
/// decisions** — not just the end-of-run stats, but the exact sequence
/// of cycles the calendar chooses to execute. A sink that nudged any
/// component's `next_event` horizon would change which cycles run long
/// before it changed a counter.
#[test]
fn profiler_sink_does_not_perturb_skip_decisions() {
    for spec in fig05_points(DATA) {
        let boundaries = |with_sink: bool| {
            let scenario = spec.builder().core(SimCore::Event).build().expect("builds");
            let mut sys = scenario.system().expect("system builds");
            if with_sink {
                sys.attach_sink(Arc::new(StallProfiler::new(sys.clock_domains())));
            }
            sys.record_skip_boundaries(true);
            let stats = sys.run_with(scenario.budget(), SimCore::Event).expect("runs");
            (sys.take_skip_boundaries(), stats)
        };
        let (plain, plain_stats) = boundaries(false);
        let (profiled, profiled_stats) = boundaries(true);
        let label = format!("{} {}", spec.workload, spec.mode);
        assert!(
            (plain.len() as u64) < plain_stats.core_cycles,
            "{label}: the event core must actually skip cycles here"
        );
        assert_eq!(
            profiled, plain,
            "{label}: attaching a profiler must not change which cycles execute"
        );
        assert_eq!(profiled_stats, plain_stats, "{label}: stats must stay bit-identical");
    }
}

/// Attaching a sink under the event core is observe-only: the profiled
/// run's `RunStats` equal an unprofiled event-core run's, point for
/// point across fig05.
#[test]
fn event_core_sink_is_observe_only() {
    for spec in fig05_points(DATA) {
        let unprofiled = spec
            .builder()
            .core(SimCore::Event)
            .build()
            .expect("unprofiled builds")
            .run()
            .expect("unprofiled runs");
        let profiled =
            profile_scenario(&spec.builder().core(SimCore::Event).build().expect("builds"))
                .expect("profiled run succeeds");
        assert_eq!(
            profiled.stats, unprofiled,
            "{} {}: a live sink must not change the event core's outcome",
            spec.workload, spec.mode
        );
    }
}
