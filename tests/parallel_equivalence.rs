//! Determinism contract of the parallel sweep engine (the headline
//! guarantee of the job pool): executing a figure's design points
//! through a [`Runner`] on a [`Pool`] of any worker count is
//! **bit-identical** to the classic serial loop — every `SweepPoint`
//! field, every stats counter, and the result ordering.
//!
//! The sweeps run at a reduced per-channel data size; the Figure 5
//! sweep plus the purity and error-ordering checks stay in the fast
//! tier, while the larger Figure 10/12 sweeps are tier 2 (`#[ignore]`,
//! run with `--include-ignored` or `ORDERLIGHT_TIER2=1 ./ci.sh`).
//! `ci.sh` additionally cross-checks serial vs. parallel over all four
//! figures in release mode through `orderlight bench`.

use orderlight_suite::sim::config::{ExecMode, ExperimentConfig};
use orderlight_suite::sim::experiments::{
    fig05_points, fig10_points, fig12_points, run_points_serial, JobSpec, Runner, SweepPoint,
};
use orderlight_suite::sim::pool::Pool;
use orderlight_suite::sim::{RunStats, System};
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

/// Small enough that a full figure sweep is sub-second, large enough
/// that every kernel still streams multiple row-buffer tiles.
const DATA: u64 = 8 * 1024;

/// Worker counts the contract is asserted at: the serial fallback, the
/// smallest real pool, and more workers than this host has cores.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_bit_identical(figure: &str, specs: &[JobSpec]) {
    let serial: Vec<SweepPoint> = run_points_serial(specs).expect("serial sweep runs");
    assert_eq!(serial.len(), specs.len(), "{figure}: one point per spec");
    for workers in WORKER_COUNTS {
        let parallel = Runner::new(Pool::new(workers)).points(specs).expect("parallel sweep runs");
        // Vec<SweepPoint> equality covers ordering plus every field of
        // every point (workload, ts, mode, bmf and the full RunStats).
        assert_eq!(
            parallel, serial,
            "{figure}: jobs={workers} must be bit-identical to the serial loop"
        );
    }
}

#[test]
fn fig05_parallel_matches_serial() {
    assert_bit_identical("fig05", &fig05_points(DATA));
}

#[test]
#[ignore = "tier 2: 4 full Figure 10 sweeps (~8 s debug); run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig10_parallel_matches_serial() {
    assert_bit_identical("fig10", &fig10_points(DATA));
}

#[test]
#[ignore = "tier 2: 4 full Figure 12 sweeps (~13 s debug); run via --include-ignored or ORDERLIGHT_TIER2=1 ./ci.sh"]
fn fig12_parallel_matches_serial() {
    assert_bit_identical("fig12", &fig12_points(DATA));
}

/// `System::run` is a pure function of (config, cycle budget): the same
/// experiment built and run concurrently on several OS threads yields
/// the same `RunStats`, bit for bit. This is the precondition that
/// makes run-level parallelism safe — no hidden global state, no
/// wall-clock or thread-identity leakage into the simulation.
#[test]
fn system_run_is_a_pure_function_of_its_config() {
    let run_once = || -> RunStats {
        let mut exp =
            ExperimentConfig::new(WorkloadId::Daxpy, ExecMode::Pim(OrderingMode::OrderLight));
        exp.data_bytes_per_channel = DATA;
        let mut system = System::build(exp).expect("builds");
        system.run(50_000_000).expect("runs")
    };
    let reference = run_once();
    assert!(reference.is_correct());
    let concurrent: Vec<RunStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(run_once)).collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    for (i, stats) in concurrent.iter().enumerate() {
        assert_eq!(*stats, reference, "concurrent run {i} diverged from the reference");
    }
}

/// Error reporting is deterministic too: a sweep containing an invalid
/// point fails with the same error regardless of worker count, and the
/// error is the first failure in **input** order (not completion
/// order).
#[test]
fn first_error_in_input_order_at_any_worker_count() {
    let mut specs = fig05_points(DATA);
    // Poison two points with a zero-sized job, which cannot build.
    specs[1].data_bytes_per_channel = 0;
    specs[3].data_bytes_per_channel = 0;
    let serial_err = run_points_serial(&specs).expect_err("zero-sized point must fail");
    for workers in WORKER_COUNTS {
        let err = Runner::new(Pool::new(workers)).points(&specs).expect_err("must fail");
        assert_eq!(
            format!("{err}"),
            format!("{serial_err}"),
            "jobs={workers}: error must match the serial loop"
        );
    }
}
