//! The sweep workloads: a figure-style sweep run on the `Pool` in
//! passes, each pass a fresh seeded order of the same points.

use std::time::Instant;

use orderlight_sim::{Pool, RunStats, ScenarioSpec};

use crate::check::{check_digest, stats_json, Digest};
use crate::host::HostStart;
use crate::layers::{layer_pass, sim_metrics, Counts};
use crate::points::{key, PassOrder, Workload};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::{end_to_end_metrics, host_metrics, serve, EndToEnd};

/// One point of an untraced pass.
pub struct Timed {
    pub stats: RunStats,
    pub build_s: f64,
}

/// Builds, runs and verifies one point, timing the `Scenario::system`
/// build.
///
/// # Errors
/// Describes a configuration or simulation error.
pub fn timed_point(spec: &ScenarioSpec) -> Result<Timed, String> {
    let scenario = spec.build().map_err(|e| format!("config error: {e}"))?;
    let build_start = Instant::now();
    let mut sys = scenario.system().map_err(|e| format!("build error: {e}"))?;
    let build_s = build_start.elapsed().as_secs_f64();
    let stats = sys
        .run_with(scenario.budget(), scenario.core())
        .map_err(|e| format!("simulation error: {e}"))?;
    Ok(Timed { stats, build_s })
}

/// Runs a sweep workload for at least `seconds`, in whole passes.
#[must_use]
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, rec: &Recorder) -> Outcome {
    let pool = Pool::with_available();
    let mut order = PassOrder::new(w.scenarios(), seed);
    let mut out = Outcome::default();
    if trace {
        traced(w, &mut order, seconds, &pool, rec, &mut out);
    } else {
        timed(w, &mut order, seconds, &pool, &mut out);
    }
    out
}

fn timed(w: Workload, order: &mut PassOrder, seconds: f64, pool: &Pool, out: &mut Outcome) {
    // Warm-up, untimed: one point per worker, so the allocator and page
    // tables have grown before the first measured pass.
    let warm: Vec<ScenarioSpec> = order.next_pass().into_iter().take(pool.workers()).collect();
    for (spec, r) in
        warm.iter().zip(pool.run(warm.iter().map(|s| move || timed_point(s)).collect()))
    {
        out.attempted += 1;
        match r {
            Ok(t) if t.stats.is_correct() => {}
            Ok(_) => out.fail(1, format!("{}: verification failed", key(spec))),
            Err(e) => out.fail(1, format!("{}: {e}", key(spec))),
        }
    }

    let mut e = EndToEnd::default();
    let start = Instant::now();
    loop {
        let pass = order.next_pass();
        let pass_start = Instant::now();
        let results = pool.run(pass.iter().map(|s| move || timed_point(s)).collect());
        let pass_s = pass_start.elapsed().as_secs_f64();
        e.window_s += pass_s;
        e.cold_ms.push(pass_s * 1e3);
        let mut digest = Digest::default();
        let (mut build_s, mut cycles, mut failed) = (0.0, 0, 0);
        for (spec, r) in pass.iter().zip(results) {
            out.attempted += 1;
            match r {
                Ok(t) => {
                    digest.add(spec, &stats_json(&t.stats));
                    build_s += t.build_s;
                    cycles += t.stats.core_cycles;
                    if !t.stats.is_correct() {
                        failed += 1;
                        out.fail(1, format!("{}: verification failed", key(spec)));
                    }
                }
                Err(msg) => {
                    failed += 1;
                    out.fail(1, format!("{}: {msg}", key(spec)));
                }
            }
        }
        if failed == 0 {
            if let Err(msg) = check_digest(w, digest) {
                out.fail(pass.len() as u64, msg);
            }
        }
        e.setup_s.push(build_s);
        e.sim_cycles = cycles;
        e.points += pass.len() as u64;
        e.requests += pass.len() as u64;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    end_to_end_metrics(&mut out.metrics, &e);
}

fn traced(
    w: Workload,
    order: &mut PassOrder,
    seconds: f64,
    pool: &Pool,
    rec: &Recorder,
    out: &mut Outcome,
) {
    let host_start = HostStart::now();
    let start = Instant::now();
    let mut times = Vec::new();
    let mut counts: Option<Counts> = None;
    let mut runqueue_wait_ns = 0;
    loop {
        let pass = order.next_pass();
        let lp = layer_pass(&pass, pool, rec);
        out.attempted += pass.len() as u64;
        for f in &lp.failures {
            out.fail(1, f.clone());
        }
        if lp.failures.is_empty() {
            let mut digest = Digest::default();
            for (spec, run) in pass.iter().zip(lp.runs.iter().flatten()) {
                digest.add(spec, &stats_json(&run.stats));
            }
            if let Err(msg) = check_digest(w, digest) {
                out.fail(pass.len() as u64, msg);
            }
        }
        runqueue_wait_ns += lp.times.runqueue_wait_ns;
        times.push(lp.times);
        counts.get_or_insert(lp.counts);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    sim_metrics(&mut out.metrics, &times, &counts.unwrap_or_default());
    serve::service_metrics(&mut out.metrics, None);
    host_metrics(&mut out.metrics, host_start, runqueue_wait_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One untimed pass over every workload's scenarios must reproduce
    /// the committed digest, so a change to simulated behaviour cannot
    /// leave a digest stale, whether or not `BENCHMARK.json` runs that
    /// workload.
    #[test]
    fn every_committed_digest_matches_one_untimed_pass() {
        let pool = Pool::with_available();
        for w in Workload::ALL {
            let points = w.scenarios();
            let results = pool.run(points.iter().map(|s| move || timed_point(s)).collect());
            let mut digest = Digest::default();
            for (spec, r) in points.iter().zip(results) {
                let t = r.unwrap_or_else(|e| panic!("{}: {e}", key(spec)));
                assert!(t.stats.is_correct(), "{}: verification failed", key(spec));
                digest.add(spec, &stats_json(&t.stats));
            }
            if let Err(msg) = check_digest(w, digest) {
                panic!("{msg}");
            }
        }
    }
}
