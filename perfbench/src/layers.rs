//! The traced layer pass: every scenario of a workload is built, run
//! and verified through the simulator's public calls with a span around
//! each, then profiled, and the counts each layer already reports are
//! gathered into the per-layer metrics.

use std::time::Instant;

use orderlight_profile::{profile_scenario, PhaseLat, ProfileReport};
use orderlight_sim::{Pool, RunStats, ScenarioSpec};
use orderlight_trace::StallCause;

use crate::host;
use crate::points::key;
use crate::report::Metrics;
use crate::spans::Recorder;

/// One scenario run through the instrumented path.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The run's statistics.
    pub stats: RunStats,
    /// `Scenario::system` time.
    pub build_s: f64,
    /// `System::run_with` time (which verifies once while collecting
    /// its statistics).
    pub run_s: f64,
    /// A separate `System::verify` call's time.
    pub verify_s: f64,
    /// Cycles the event core executed (the rest it skipped).
    pub executed_cycles: u64,
    /// The whole job, from scenario validation to verification.
    pub job_s: f64,
    /// Run-queue wait the worker thread suffered during the job.
    pub runqueue_wait_ns: u64,
}

/// Builds, runs and verifies `spec` with a span around each public
/// call, under a `point` span whose parent is `parent`.
///
/// # Errors
/// Describes a configuration or simulation error, or a failed
/// verification.
pub fn run_point(spec: &ScenarioSpec, rec: &Recorder, parent: u64) -> Result<PointRun, String> {
    let start = Instant::now();
    let wait_start = host::thread_runqueue_wait_ns();
    let id = rec.id();
    let scenario = spec.build().map_err(|e| format!("config error: {e}"))?;
    let (sys, build_s) = rec.time(id, "Scenario::system", || scenario.system());
    let mut sys = sys.map_err(|e| format!("build error: {e}"))?;
    sys.record_skip_boundaries(true);
    let (stats, run_s) =
        rec.time(id, "System::run_with", || sys.run_with(scenario.budget(), scenario.core()));
    let stats = stats.map_err(|e| format!("simulation error: {e}"))?;
    let executed_cycles = sys.take_skip_boundaries().len() as u64;
    let (verdict, verify_s) = rec.time(id, "System::verify", || sys.verify());
    let job_s = start.elapsed().as_secs_f64();
    rec.record(id, parent, "point", start, job_s);
    if verdict != (stats.verified_matches, stats.verified_mismatches) || !stats.is_correct() {
        return Err(format!(
            "verification failed: {} matches, {} mismatches",
            verdict.0, verdict.1
        ));
    }
    Ok(PointRun {
        stats,
        build_s,
        run_s,
        verify_s,
        executed_cycles,
        job_s,
        runqueue_wait_ns: host::thread_runqueue_wait_ns().saturating_sub(wait_start),
    })
}

/// Profiles `spec` under a `profile_scenario` span and checks that the
/// profiled run reproduced `expected` and conserved its stall cycles.
/// Returns the report and the profiled run's duration.
///
/// # Errors
/// Describes the error or the broken check.
pub fn profile_point(
    spec: &ScenarioSpec,
    expected: &RunStats,
    rec: &Recorder,
    parent: u64,
) -> Result<(ProfileReport, f64), String> {
    let scenario = spec.build().map_err(|e| format!("config error: {e}"))?;
    let (outcome, secs) = rec.time(parent, "profile_scenario", || profile_scenario(&scenario));
    let outcome = outcome.map_err(|e| format!("profiled simulation error: {e}"))?;
    if outcome.stats != *expected {
        return Err("the profiled run changed the results".to_string());
    }
    outcome.conservation.map_err(|e| format!("stall conservation violated: {e}"))?;
    Ok((outcome.report, secs))
}

/// Host-time totals of one layer pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimes {
    pub build_s: f64,
    pub run_s: f64,
    pub verify_s: f64,
    pub profile_s: f64,
    pub busy_s: f64,
    pub efficiency: f64,
    pub executed_cycles: u64,
    pub core_cycles: u64,
    pub events: u64,
    pub runqueue_wait_ns: u64,
}

/// Simulated counts summed over a pass. These repeat exactly for the
/// same multiset of scenarios.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub issued: u64,
    pub stalls: [u64; StallCause::ALL.len()],
    pub packets_created: u64,
    pub packets_merged: u64,
    pub noc_delay_sum_us: f64,
    pub noc_delay_count: u64,
    pub pipe_in_flight_sum: u64,
    pub pipe_samples: u64,
    pub barrier_hold: PhaseLat,
    pub fence_round_trip: PhaseLat,
    pub host_read: PhaseLat,
    pub mc_queue_wait: PhaseLat,
    pub bank_wait: PhaseLat,
    pub reqs_issued: u64,
    pub refresh_cycles: u64,
    pub activates: u64,
    pub col_cmds: u64,
    pub pim_data_bytes: u64,
}

fn pool_lat(into: &mut PhaseLat, from: &PhaseLat) {
    into.count += from.count;
    into.sum += from.sum;
}

impl Counts {
    fn add(&mut self, stats: &RunStats, report: &ProfileReport) {
        self.issued += stats.sm.issued;
        for (total, cause) in self.stalls.iter_mut().zip(StallCause::ALL) {
            *total += report.stall(cause);
        }
        self.packets_created += report.packets_created;
        self.packets_merged += report.packets_merged;
        self.noc_delay_sum_us += report.noc_delay.sum_us;
        self.noc_delay_count += report.noc_delay.count;
        self.pipe_in_flight_sum += report.pipe_in_flight_sum;
        self.pipe_samples += report.pipe_samples;
        pool_lat(&mut self.barrier_hold, &report.barrier_hold);
        pool_lat(&mut self.fence_round_trip, &report.fence_round_trip);
        pool_lat(&mut self.host_read, &report.host_read);
        pool_lat(&mut self.mc_queue_wait, &report.mc_queue_wait);
        pool_lat(&mut self.bank_wait, &report.bank_wait);
        self.reqs_issued += report.reqs_issued;
        self.refresh_cycles += report.refresh_cycles;
        self.activates += stats.mc.activates;
        self.col_cmds += stats.mc.col_reads + stats.mc.col_writes;
        self.pim_data_bytes += stats.pim_data_bytes;
    }
}

/// One traced pass over a workload's scenarios.
#[derive(Debug, Clone, Default)]
pub struct LayerPass {
    /// Each scenario's plain run, in input order (`None` where it
    /// failed).
    pub runs: Vec<Option<PointRun>>,
    pub times: PassTimes,
    pub counts: Counts,
    /// One message per failed scenario.
    pub failures: Vec<String>,
}

/// Runs `specs` through `pool` on the instrumented path, then profiles
/// each one in a second pool pass, so the first pass's pool timing
/// matches an untraced sweep.
#[must_use]
pub fn layer_pass(specs: &[ScenarioSpec], pool: &Pool, rec: &Recorder) -> LayerPass {
    let pass_id = rec.id();
    let jobs: Vec<_> = specs.iter().map(|s| move || run_point(s, rec, pass_id)).collect();
    let (results, wall_s) = rec.time_as(pass_id, 0, "Pool::run", || pool.run(jobs));
    let mut pass = LayerPass::default();
    let t = &mut pass.times;
    for (spec, result) in specs.iter().zip(results) {
        match result {
            Ok(run) => {
                t.build_s += run.build_s;
                t.run_s += run.run_s;
                t.verify_s += run.verify_s;
                t.busy_s += run.job_s;
                t.executed_cycles += run.executed_cycles;
                t.core_cycles += run.stats.core_cycles;
                t.runqueue_wait_ns += run.runqueue_wait_ns;
                pass.runs.push(Some(run));
            }
            Err(e) => {
                pass.failures.push(format!("{}: {e}", key(spec)));
                pass.runs.push(None);
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let capacity = pool.workers().min(specs.len().max(1)) as f64 * wall_s;
    t.efficiency = if capacity > 0.0 { t.busy_s / capacity } else { 0.0 };

    let profile_id = rec.id();
    let jobs: Vec<_> = specs
        .iter()
        .zip(&pass.runs)
        .filter_map(|(s, run)| run.as_ref().map(|r| (s, r.stats)))
        .map(|(s, stats)| move || (s, stats, profile_point(s, &stats, rec, profile_id)))
        .collect();
    let (profiled, _) = rec.time_as(profile_id, 0, "Pool::run profile", || pool.run(jobs));
    for (spec, stats, result) in profiled {
        match result {
            Ok((report, secs)) => {
                pass.times.profile_s += secs;
                pass.times.events += report.events;
                pass.counts.add(&stats, &report);
            }
            Err(e) => pass.failures.push(format!("{}: {e}", key(spec))),
        }
    }
    pass
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[allow(clippy::cast_precision_loss)]
fn lat_mean(l: &PhaseLat) -> f64 {
    ratio(l.sum as f64, l.count as f64)
}

/// Per-layer metrics of the simulator, from passes' median host times
/// and the (repeating) counts of the first pass.
#[allow(clippy::cast_precision_loss)]
pub fn sim_metrics(m: &mut Metrics, passes: &[PassTimes], counts: &Counts) {
    let med =
        |f: fn(&PassTimes) -> f64| crate::check::median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = passes.first().copied().unwrap_or_default();
    let run_s = med(|t| t.run_s);
    m.push("sim.system.build_s", med(|t| t.build_s), "s");
    m.push("sim.system.run_s", run_s, "s");
    m.push("workloads.verify_s", med(|t| t.verify_s), "s");
    m.push("sim.calendar.executed_cycles", first.executed_cycles as f64, "cycles");
    m.push(
        "sim.calendar.executed_ratio",
        ratio(first.executed_cycles as f64, first.core_cycles as f64),
        "ratio",
    );
    m.push(
        "sim.calendar.ns_per_executed_cycle",
        ratio(run_s * 1e9, first.executed_cycles as f64),
        "ns",
    );
    m.push("trace.events", first.events as f64, "count");
    m.push("sim.ns_per_event", ratio(run_s * 1e9, first.events as f64), "ns");
    m.push("sim.pool.busy_s", med(|t| t.busy_s), "s");
    m.push("sim.pool.efficiency", med(|t| t.efficiency), "ratio");
    m.push("memctrl.reqs_issued", counts.reqs_issued as f64, "count");
    m.push("memctrl.queue_wait_mean", lat_mean(&counts.mc_queue_wait), "mem_cycles");
    m.push("gpu.issued", counts.issued as f64, "count");
    for (cause, cycles) in StallCause::ALL.iter().zip(counts.stalls) {
        m.push(&format!("gpu.stall.{}", cause.label()), cycles as f64, "cycles");
    }
    m.push("noc.packets_created", counts.packets_created as f64, "count");
    m.push("noc.packets_merged", counts.packets_merged as f64, "count");
    m.push(
        "noc.delay_mean_us",
        ratio(counts.noc_delay_sum_us, counts.noc_delay_count as f64),
        "us",
    );
    m.push(
        "noc.pipe_in_flight_mean",
        ratio(counts.pipe_in_flight_sum as f64, counts.pipe_samples as f64),
        "count",
    );
    m.push("memctrl.barrier_hold_mean", lat_mean(&counts.barrier_hold), "mem_cycles");
    m.push("memctrl.fence_round_trip_mean", lat_mean(&counts.fence_round_trip), "cycles");
    m.push("memctrl.host_read_latency_mean", lat_mean(&counts.host_read), "mem_cycles");
    m.push("hbm.activates", counts.activates as f64, "count");
    m.push("hbm.col_cmds", counts.col_cmds as f64, "count");
    // Every activate opens a row for one first column access; the other
    // column commands hit an open row.
    m.push(
        "hbm.row_hit_ratio",
        ratio(counts.col_cmds.saturating_sub(counts.activates) as f64, counts.col_cmds as f64),
        "ratio",
    );
    m.push("hbm.bank_wait_mean", lat_mean(&counts.bank_wait), "mem_cycles");
    m.push("hbm.refresh_cycles", counts.refresh_cycles as f64, "mem_cycles");
    m.push("pim.data_bytes", counts.pim_data_bytes as f64, "bytes");
    m.push("trace.overhead", med(|t| ratio(t.profile_s, t.run_s)), "ratio");
}
