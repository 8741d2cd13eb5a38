//! The OrderLight benchmark: sweep and serve speed, end to end, and
//! layer by layer in a separate traced run.
//!
//! ```text
//! orderlight-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload again with spans around every layer call and prints the
//! per-layer metrics instead. The last stdout line is the JSON result;
//! the exit code is non-zero when any correctness check failed. See
//! `README.md` beside this crate for the workloads and metrics.

mod check;
mod host;
mod layers;
mod points;
mod report;
mod serve;
mod spans;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::check::{median, percentile};
use crate::host::HostStart;
use crate::points::Workload;
use crate::report::Metrics;
use crate::spans::Recorder;

const USAGE: &str =
    "usage: orderlight-perfbench --workload pim-orderlight|pim-fence|gpu-host|serve-mix \
                     --seed N --seconds S --trace 0|1 [--spans-out PATH]";

/// The raw end-to-end measurements of an untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-up time of each pass or round.
    pub setup_s: Vec<f64>,
    /// Scenarios simulated inside the measured windows.
    pub points: u64,
    /// Requests answered inside the measured windows.
    pub requests: u64,
    /// Total measured wall time.
    pub window_s: f64,
    /// Latency of every uncached operation, in ms: a whole sweep pass,
    /// or one cold request.
    pub cold_ms: Vec<f64>,
    /// Latency of every cached request, in ms.
    pub hot_ms: Vec<f64>,
    /// Simulated core cycles of one pass over the workload's scenarios.
    pub sim_cycles: u64,
}

/// Emits the end-to-end metrics, in `BENCHMARK.json` order.
#[allow(clippy::cast_precision_loss)]
pub fn end_to_end_metrics(m: &mut Metrics, e: &EndToEnd) {
    let per_s = |n: u64| if e.window_s > 0.0 { n as f64 / e.window_s } else { 0.0 };
    let mut cold = e.cold_ms.clone();
    cold.sort_by(f64::total_cmp);
    m.push("setup_s", median(&e.setup_s), "s");
    m.push("points_per_s", per_s(e.points), "1/s");
    m.push("req_per_s", per_s(e.requests), "1/s");
    m.push("cold_p50_ms", percentile(&cold, 0.5).unwrap_or(0.0), "ms");
    m.push("sim_cycles", e.sim_cycles as f64, "cycles");
    m.push("peak_rss_mb", host::peak_rss_mb(), "MiB");
    let mut hot = e.hot_ms.clone();
    hot.sort_by(f64::total_cmp);
    println!(
        "samples: {} setups, {} cold (p50 {:.3} ms, p90 {:.3} ms), {} hot (p50 {:.3} ms, p90 {:.3} ms)",
        e.setup_s.len(),
        cold.len(),
        percentile(&cold, 0.5).unwrap_or(0.0),
        percentile(&cold, 0.9).unwrap_or(0.0),
        hot.len(),
        percentile(&hot, 0.5).unwrap_or(0.0),
        percentile(&hot, 0.9).unwrap_or(0.0),
    );
}

/// Emits the host diagnostics of a traced run.
#[allow(clippy::cast_precision_loss)]
pub fn host_metrics(m: &mut Metrics, start: HostStart, runqueue_wait_ns: u64) {
    let (steal_ms, minor_faults) = start.since();
    m.push("host.runqueue_wait_ms", runqueue_wait_ns as f64 / 1e6, "ms");
    m.push("host.steal_ms", steal_ms, "ms");
    m.push("host.minor_faults", minor_faults as f64, "count");
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rec = Recorder::new(args.trace);
    let outcome = match args.workload {
        Workload::ServeMix => serve::run(args.seed, args.seconds, args.trace, &rec),
        w => sweep::run(w, args.seed, args.seconds, args.trace, &rec),
    };
    if args.trace {
        let path = args.spans_out.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
                "spans-{}-seed{}.json",
                args.workload.name(),
                args.seed
            ))
        });
        match rec.write_chrome(&path) {
            Ok(n) => eprintln!("wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    for f in outcome.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    for (name, value, unit) in outcome.metrics.entries() {
        println!("{name:<38} {value:>18.6} {unit}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "correctness check failed: {} of {} operations",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
