//! The ordering-violation oracle and fault-injection contracts:
//!
//! 1. **Soundness on correct schedules** — the oracle reports zero
//!    violations on every clean tier-1 scenario, under both execution
//!    cores, with and without the legal fault layers enabled
//!    ([`FaultPlan::stress`]: NoC jitter, adversarial scheduler
//!    tie-breaks, refresh storms). Legal faults may slow a run down but
//!    must never break it.
//! 2. **Completeness on the seeded mutation** — eliding a single
//!    ordering edge ([`DropEdge`]) must produce at least one reported
//!    violation *and* wrong DRAM bytes. This is the mutation gate: an
//!    oracle that stays silent here is vacuous. Each backend's mutant
//!    outcome is pinned exactly, so a change to the mutated schedule
//!    fails too.
//! 3. **Fault determinism** — identical fault seeds yield bit-identical
//!    perturbed schedules regardless of execution core or job-pool
//!    width; different seeds genuinely perturb the schedule.

use orderlight_suite::check::check_scenario;
use orderlight_suite::core::fault::{DropEdge, FaultPlan};
use orderlight_suite::sim::config::ExecMode;
use orderlight_suite::sim::pool::Pool;
use orderlight_suite::sim::{RunStats, Scenario, ScenarioBuilder, ScenarioSpec, SimCore};
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

/// Small enough for sub-second runs, large enough for multiple
/// row-buffer tiles and ordering packets per channel.
const DATA_KB: u64 = 8;

fn scenario(workload: WorkloadId, mode: ExecMode, core: SimCore, faults: FaultPlan) -> Scenario {
    ScenarioBuilder::new(workload, mode)
        .data_kb(DATA_KB)
        .core(core)
        .faults(faults)
        .build()
        .expect("valid scenario")
}

/// The clean tier-1 scenario matrix: every ordering mode that must be
/// functionally correct, on a workload with real inter-group ordering
/// (Add: two loads, an exec, a store per stripe).
fn clean_matrix() -> Vec<ExecMode> {
    vec![
        ExecMode::Pim(OrderingMode::Fence),
        ExecMode::Pim(OrderingMode::OrderLight),
        ExecMode::Pim(OrderingMode::SeqNum),
        ExecMode::Pim(OrderingMode::LouvreVersioned),
        ExecMode::Pim(OrderingMode::BulkBitwiseStrong),
        ExecMode::Gpu,
    ]
}

/// Every ordering backend the memory controller can host, for the
/// per-backend mutation gate.
const BACKENDS: [OrderingMode; 5] = [
    OrderingMode::OrderLight,
    OrderingMode::Fence,
    OrderingMode::SeqNum,
    OrderingMode::LouvreVersioned,
    OrderingMode::BulkBitwiseStrong,
];

#[test]
fn oracle_is_silent_on_clean_scenarios_under_both_cores() {
    for mode in clean_matrix() {
        for core in [SimCore::Cycle, SimCore::Event] {
            for faults in [FaultPlan::none(), FaultPlan::stress(0xfa17)] {
                let s = scenario(WorkloadId::Add, mode, core, faults);
                let outcome = check_scenario(&s).expect("checked run completes");
                assert!(
                    outcome.is_clean(),
                    "mode {mode} core {core:?} faults={}: {}",
                    !faults.is_noop(),
                    outcome.summary()
                );
                assert_eq!(outcome.edges_dropped, 0);
                if mode == ExecMode::Pim(OrderingMode::OrderLight) {
                    assert!(outcome.report.packets > 0, "OrderLight runs must carry packets");
                }
            }
        }
    }
}

/// The default `orderlight check` scenario at 32 KiB — Add in the
/// default mode, no faults — is clean on both cores, and the cores
/// agree on the checked run.
#[test]
fn default_check_at_32_kib_is_clean_on_both_cores() {
    let spec =
        ScenarioSpec { data_bytes_per_channel: 32 * 1024, ..ScenarioSpec::new(WorkloadId::Add) };
    let checked = [SimCore::Cycle, SimCore::Event].map(|core| {
        let s = spec.builder().core(core).build().expect("valid scenario");
        let outcome = check_scenario(&s).expect("checked run completes");
        assert!(outcome.is_clean(), "core {core:?}: {}", outcome.summary());
        outcome.stats
    });
    assert_eq!(checked[0], checked[1], "the cores must agree on the checked run");
}

#[test]
fn oracle_is_silent_across_the_workload_suite() {
    for workload in [WorkloadId::Triad, WorkloadId::Kmeans] {
        let s = scenario(
            workload,
            ExecMode::Pim(OrderingMode::OrderLight),
            SimCore::Event,
            FaultPlan::stress(7),
        );
        let outcome = check_scenario(&s).expect("checked run completes");
        assert!(outcome.is_clean(), "{workload}: {}", outcome.summary());
    }
}

#[test]
fn mutant_fires_the_oracle_and_corrupts_dram() {
    for core in [SimCore::Cycle, SimCore::Event] {
        let plan =
            FaultPlan { drop_edge: Some(DropEdge { channel: 0, group: 0 }), ..FaultPlan::none() };
        let s = scenario(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight), core, plan);
        let outcome = check_scenario(&s).expect("mutant run completes");
        assert!(outcome.edges_dropped > 0, "core {core:?}: mutation must elide edges");
        assert!(
            outcome.report.violations_total > 0,
            "core {core:?}: oracle must fire on the mutant: {}",
            outcome.summary()
        );
        assert!(
            outcome.stats.verified_mismatches > 0,
            "core {core:?}: the elided edge must corrupt DRAM bytes: {}",
            outcome.summary()
        );
    }
}

/// What the seeded mutant does on each backend (Add, 8 KiB, `DropEdge
/// 0:0` with adversarial tie-breaks), pinned exactly and the same on
/// both cores: `(edges_dropped, violations_total, verified_mismatches,
/// sanity_violations)`. A refactor that changes the mutated schedule
/// changes one of these, even while the run stays dirty.
const MUTANT_OUTCOMES: [(OrderingMode, [u64; 4]); 5] = [
    (OrderingMode::OrderLight, [6, 71, 12, 0]),
    (OrderingMode::Fence, [5, 5, 0, 0]),
    (OrderingMode::SeqNum, [32, 22, 10, 0]),
    (OrderingMode::LouvreVersioned, [6, 71, 12, 0]),
    (OrderingMode::BulkBitwiseStrong, [32, 44, 13, 43]),
];

/// The per-backend mutation gate: for every ordering backend, eliding
/// the backend's own edges on one (channel, group) must make the
/// checked run visibly dirty — a happens-before violation, a sanity
/// violation, or corrupted DRAM bytes — in exactly the pinned
/// [`MUTANT_OUTCOMES`] way. A backend whose elision hook is wired but
/// whose check stays green would be a vacuous gate.
fn assert_mutation_fires(mode: OrderingMode, core: SimCore) {
    // The adversarial scheduler makes the window opened by the elided
    // edge actually get hit on every backend, not just the slow ones.
    let plan = FaultPlan {
        sched_adversary: true,
        drop_edge: Some(DropEdge { channel: 0, group: 0 }),
        ..FaultPlan::none()
    };
    let s = scenario(WorkloadId::Add, ExecMode::Pim(mode), core, plan);
    let outcome = check_scenario(&s).expect("mutant run completes");
    assert!(outcome.edges_dropped > 0, "{mode} {core:?}: mutation must elide edges");
    assert!(
        !outcome.is_clean(),
        "{mode} {core:?}: elided edges must dirty the check: {}",
        outcome.summary()
    );
    let pinned = MUTANT_OUTCOMES.iter().find(|(m, _)| *m == mode).expect("every backend pinned");
    assert_eq!(
        [
            outcome.edges_dropped,
            outcome.report.violations_total,
            outcome.stats.verified_mismatches,
            outcome.stats.mc.sanity_violations,
        ],
        pinned.1,
        "{mode} {core:?}: the mutant's outcome moved: {}",
        outcome.summary()
    );
}

#[test]
fn mutation_gate_fires_for_every_backend() {
    for mode in BACKENDS {
        assert_mutation_fires(mode, SimCore::Event);
    }
}

#[test]
#[ignore = "tier 2: per-backend mutation gate on the cycle core too; run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn mutation_gate_fires_for_every_backend_on_both_cores() {
    for mode in BACKENDS {
        for core in [SimCore::Cycle, SimCore::Event] {
            assert_mutation_fires(mode, core);
        }
    }
}

/// Runs one faulted scenario serially and through pools of the given
/// widths, returning all result vectors for comparison.
fn faulted_stats(seed: u64, core: SimCore, jobs: usize) -> Vec<RunStats> {
    let scenarios: Vec<Scenario> = (0..4)
        .map(|i| {
            let workload = if i % 2 == 0 { WorkloadId::Add } else { WorkloadId::Triad };
            scenario(
                workload,
                ExecMode::Pim(OrderingMode::OrderLight),
                core,
                FaultPlan::stress(seed),
            )
        })
        .collect();
    let tasks: Vec<_> =
        scenarios.into_iter().map(|s| move || s.run().expect("faulted run completes")).collect();
    Pool::new(jobs).run(tasks)
}

#[test]
fn identical_fault_seeds_are_bit_identical_across_cores_and_jobs() {
    let reference = faulted_stats(42, SimCore::Cycle, 1);
    for core in [SimCore::Cycle, SimCore::Event] {
        for jobs in [1, 8] {
            assert_eq!(
                faulted_stats(42, core, jobs),
                reference,
                "seed 42 under core {core:?} jobs {jobs} must match the serial cycle-core run"
            );
        }
    }
}

#[test]
fn different_fault_seeds_perturb_the_schedule() {
    let a = faulted_stats(1, SimCore::Event, 1);
    let b = faulted_stats(2, SimCore::Event, 1);
    assert_ne!(a, b, "different master seeds must produce different schedules");
    for stats in a.iter().chain(&b) {
        assert!(stats.is_correct(), "legal faults must never break functional results");
    }
}
