//! Heap-budget regression: the event core's per-run state is sized by
//! the system, not by how long the run lasts.
//!
//! A counting global allocator tracks, per thread, the live heap bytes,
//! their peak and the number of allocations, so the tests below measure
//! only their own work even when the harness runs them in parallel.
//!
//! * [`Calendar`] allocates everything in `new`: a seeded stream of
//!   schedule, cancel and pop calls afterwards allocates nothing.
//! * Building, running and verifying a scenario on the event core peaks
//!   within [`EVENT_CORE_SLACK`] of the dense core, which keeps no
//!   calendar — so no event-core structure can grow with the run.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use orderlight_suite::core::rng::Rng;
use orderlight_suite::pim::TsSize;
use orderlight_suite::sim::calendar::Calendar;
use orderlight_suite::sim::{ExecMode, ScenarioSpec, SimCore};
use orderlight_suite::workloads::{OrderingMode, WorkloadId};

/// How far the event core's heap peak may sit above the dense core's:
/// the calendar's fixed 16 KiB head array, its 20 B per component and
/// the per-run scratch masks, with room to spare.
const EVENT_CORE_SLACK: i64 = 64 * 1024;

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    /// Live bytes allocated minus freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` since the last [`reset`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// Allocations (including reallocations) since the last [`reset`].
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // `try_with`: allocations during thread teardown find the slots
    // already gone and are simply not counted.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        SystemAlloc.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts a measurement: the peak restarts at the current live bytes
/// and the allocation count at zero. Returns the live bytes.
fn reset() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    ALLOCS.with(|n| n.set(0));
    live
}

#[test]
fn calendar_allocates_nothing_after_new() {
    const COMPONENTS: usize = 112;
    for seed in 0..8u64 {
        let start = if seed % 4 == 3 { u64::MAX - 9_000 } else { seed * 7_919 };
        let mut rng = Rng::new(0x4ea9_b0d9 ^ seed);
        let mut cal = Calendar::new(COMPONENTS, start);
        let mut due = Vec::with_capacity(COMPONENTS);
        reset();
        let mut now = start;
        for _ in 0..20_000 {
            let comp = (rng.next_u64() % COMPONENTS as u64) as u32;
            match rng.next_u64() % 8 {
                0 => cal.cancel(comp),
                1 | 2 => {
                    if let Some(t) = cal.pop_next(&mut due) {
                        now = t;
                    }
                }
                // Near, window-edge and multi-rotation-far horizons.
                k => {
                    let at = now.wrapping_add(match k {
                        3 => rng.next_u64() % 4,
                        4 | 5 => rng.next_u64() % 4_096,
                        6 => 4_090 + rng.next_u64() % 12,
                        _ => rng.next_u64() % 60_000,
                    });
                    cal.schedule(comp, at);
                }
            }
        }
        while cal.pop_next(&mut due).is_some() {}
        let allocs = ALLOCS.with(Cell::get);
        assert_eq!(allocs, 0, "seed {seed}: calendar allocated {allocs} times after new");
    }
}

/// Heap peak, above the bytes live beforehand, of building, running and
/// verifying `spec` on `core`.
fn run_peak(spec: &ScenarioSpec, core: SimCore) -> i64 {
    let scenario = spec.build().expect("scenario builds");
    let base = reset();
    let mut sys = scenario.system().expect("system builds");
    let stats = sys.run_with(scenario.budget(), core).expect("drains within budget");
    assert!(stats.is_correct(), "{core:?}: verification must pass");
    drop(sys);
    PEAK.with(Cell::get) - base
}

fn assert_event_core_within_slack(workload: WorkloadId, mode: ExecMode, kb: u64) {
    let spec = ScenarioSpec {
        mode,
        ts: TsSize::Eighth,
        data_bytes_per_channel: kb * 1024,
        ..ScenarioSpec::new(workload)
    };
    let dense = run_peak(&spec, SimCore::Cycle);
    let event = run_peak(&spec, SimCore::Event);
    assert!(
        event - dense <= EVENT_CORE_SLACK,
        "{workload} {mode} {kb} KiB: event-core heap peak {event} B exceeds the dense core's \
         {dense} B by {} B (budget {EVENT_CORE_SLACK} B)",
        event - dense
    );
}

#[test]
fn event_core_heap_peak_tracks_dense_core_gpu_triad_64k() {
    assert_event_core_within_slack(WorkloadId::Triad, ExecMode::Gpu, 64);
}

#[test]
fn event_core_heap_peak_tracks_dense_core_orderlight_add_64k() {
    assert_event_core_within_slack(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight), 64);
}

#[test]
fn event_core_heap_peak_tracks_dense_core_fence_add_8k() {
    assert_event_core_within_slack(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence), 8);
}
