//! Differential contract of the two simulation cores: the event-driven
//! time-skip core ([`SimCore::Event`]) is **bit-identical** to the
//! dense per-cycle core ([`SimCore::Cycle`]) — the same `RunStats`
//! (including every stall counter and the exact drain cycle), the same
//! per-channel controller statistics, the same clock positions, and the
//! same final DRAM bytes in every materialised row of every channel.
//!
//! The Figure 5 sweep (fence-heavy, the event core's best case) plus a
//! batch of SplitMix64-randomised small configurations — with refresh
//! both off and on — stay in the fast tier; the larger Figure 10/12
//! sweeps are tier 2 (`#[ignore]`, run with `--include-ignored` or
//! `ORDERLIGHT_TIER2=1 ./ci.sh`). The event core runs at its built-in
//! dense-burst threshold and forced to burst always and never. `ci.sh`
//! additionally runs the whole tier-1 suite under
//! `ORDERLIGHT_CORE=cycle` and `ORDERLIGHT_CORE=event`, and
//! `orderlight bench` cross-checks the cores (and times them) over
//! every figure in release mode.

use orderlight_suite::core::rng::Rng;
use orderlight_suite::hbm::RefreshParams;
use orderlight_suite::pim::TsSize;
use orderlight_suite::sim::config::{ExecMode, ExperimentConfig};
use orderlight_suite::sim::experiments::{
    apply_sm_policy, fig05_points, fig10_points, fig12_points, JobSpec,
};
use orderlight_suite::sim::system::with_burst_threshold;
use orderlight_suite::sim::{SimCore, System};
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

/// Matches `parallel_equivalence.rs`: small enough for sub-second
/// figure sweeps, large enough to stream multiple row-buffer tiles.
const DATA: u64 = 8 * 1024;

const BUDGET: u64 = 50_000_000;

/// The event core's dense-burst thresholds every comparison runs at:
/// built in, always and never.
const BURSTS: [Option<u32>; 3] = [None, Some(0), Some(u32::MAX)];

/// Runs `exp` on the cycle core and on the event core at each of
/// [`BURSTS`], and asserts every observable is identical.
fn assert_cores_agree(label: &str, exp: &ExperimentConfig) {
    let run = |core: SimCore| {
        let mut sys = System::build(exp.clone()).expect("builds");
        let stats = sys.run_with(BUDGET, core).expect("drains within budget");
        (stats, sys)
    };
    let (cycle_stats, cycle_sys) = run(SimCore::Cycle);
    for burst in BURSTS {
        let label = format!("{label} burst={burst:?}");
        let (event_stats, event_sys) = with_burst_threshold(burst, || run(SimCore::Event));
        assert_eq!(
            event_stats.core_cycles, cycle_stats.core_cycles,
            "{label}: drain cycle must match"
        );
        assert_eq!(event_stats, cycle_stats, "{label}: RunStats must be bit-identical");
        assert_eq!(
            event_sys.channel_stats(),
            cycle_sys.channel_stats(),
            "{label}: per-channel controller stats must match"
        );
        assert_eq!(event_sys.now(), cycle_sys.now(), "{label}: core clock position");
        assert_eq!(event_sys.mem_now(), cycle_sys.mem_now(), "{label}: memory clock position");
        for (ch, (cm, em)) in
            cycle_sys.controllers().iter().zip(event_sys.controllers()).enumerate()
        {
            assert_eq!(
                em.channel().store().rows_sorted(),
                cm.channel().store().rows_sorted(),
                "{label}: channel {ch} final DRAM contents must be byte-identical"
            );
        }
    }
}

fn exp_of(spec: &JobSpec) -> ExperimentConfig {
    let mut exp = ExperimentConfig::new(spec.workload, spec.mode);
    exp.ts_size = spec.ts;
    exp.bmf = spec.bmf;
    exp.data_bytes_per_channel = spec.data_bytes_per_channel;
    apply_sm_policy(&mut exp);
    exp
}

fn assert_figure_agrees(figure: &str, specs: &[JobSpec]) {
    for spec in specs {
        let label = format!("{figure} {} {} {}", spec.workload, spec.mode, spec.ts);
        assert_cores_agree(&label, &exp_of(spec));
    }
}

#[test]
fn fig05_cores_agree() {
    assert_figure_agrees("fig05", &fig05_points(DATA));
}

#[test]
#[ignore = "tier 2: full Figure 10 sweep per core (~16 s debug); run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig10_cores_agree() {
    assert_figure_agrees("fig10", &fig10_points(DATA));
}

#[test]
#[ignore = "tier 2: full Figure 12 sweep per core (~26 s debug); run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig12_cores_agree() {
    assert_figure_agrees("fig12", &fig12_points(DATA));
}

/// The GPU host baseline, where nearly every cycle executes and the
/// event core runs mostly in dense bursts: a few Figure 10 host points
/// in the fast tier (the full sweep is `fig10_cores_agree`).
#[test]
fn gpu_host_cores_agree() {
    for workload in [WorkloadId::Add, WorkloadId::Scale, WorkloadId::BnBwd] {
        let spec = JobSpec::new(workload, TsSize::Eighth, ExecMode::Gpu, DATA);
        assert_cores_agree(&format!("gpu {workload}"), &exp_of(&spec));
    }
}

/// Randomised configurations: workload, ordering mode, TS size and data
/// size drawn from a fixed-seed SplitMix64 stream, each tried with
/// refresh off and with HBM2-rate all-bank refresh. Refresh exercises
/// the one future-dated memory-domain horizon (the idle controller's
/// refresh trigger), which the figure sweeps leave off.
#[test]
fn randomized_configs_cores_agree() {
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

    let mut rng = Rng::new(0x0e5e_0c0d_e201_1001);
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    for i in 0..6 {
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
            let mut exp = exp_of(&spec);
            exp.system.refresh = refresh;
            let label =
                format!("random[{i}] {workload} {mode} {ts} {data}B refresh={}", refresh.is_some());
            assert_cores_agree(&label, &exp);
        }
    }
}

/// The cycle-budget error is part of the contract too: both cores must
/// fail at the same cycle with the same message when the budget is too
/// small.
#[test]
fn budget_error_is_core_independent() {
    let spec =
        JobSpec::new(WorkloadId::Add, TsSize::Eighth, ExecMode::Pim(OrderingMode::Fence), DATA);
    let err_of = |core: SimCore| {
        let mut sys = System::build(exp_of(&spec)).expect("builds");
        sys.run_with(1_000, core).expect_err("budget too small")
    };
    let cycle_err = err_of(SimCore::Cycle);
    for burst in BURSTS {
        let event_err = with_burst_threshold(burst, || err_of(SimCore::Event));
        assert_eq!(event_err, cycle_err, "burst={burst:?}: budget errors must match across cores");
    }
    assert!(cycle_err.to_string().contains("not drained after 1000"));
}
