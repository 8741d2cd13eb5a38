//! The checks behind `orderlight bench`: the ones no wall-clock
//! benchmark can make, because they compare simulated results, not
//! timings.
//!
//! Each series of design points ([`run_series`]) runs
//!
//! - serially under the cycle core and under the event core, which must
//!   agree point by point (the quiescence contract);
//! - through a [`Runner`] on `--jobs` workers, which must agree with the
//!   serial event-core run (the determinism contract);
//! - under the event core with the stall profiler attached, whose
//!   attribution must conserve every point's own stall counters.
//!
//! The cycle-core, event-core and profiled legs alternate for
//! [`PROFILE_REPS`] repetitions and each keeps its fastest, for the
//! ratios `ci.sh` gates: the event core's speedup over the dense core
//! and the profiler's overhead on Figure 5. Every timed leg runs on the
//! calling thread, so the ratios divide that thread's CPU time
//! (`thread_cpu_s`): a busy neighbour on the host stretches wall time,
//! not the CPU time a leg uses. The wall times stay in the record beside
//! them, so a gap between the two clocks shows. Sweep throughput is
//! perfbench's job (its `gpu-host` workload).
//!
//! [`document`] assembles the `orderlight/bench-sweep/v6` record and
//! [`compare`] diffs two of them exactly, skipping only [`SKIPPED_KEYS`].

use crate::profile::{profile_scenario, ProfileOutcome, ProfileReport};
use crate::sim::experiments::{JobSpec, Runner};
use crate::sim::system::SimError;
use crate::sim::{Pool, RunStats, Scenario, SimCore};
use crate::trace::json::Value;
use crate::trace::StallCause;
use std::collections::BTreeSet;
use std::time::Instant;

/// The schema tag of `compare-ordering` and `bench` documents.
pub const BENCH_SCHEMA: &str = "orderlight/bench-sweep/v6";

/// Repetitions of each timed leg.
pub const PROFILE_REPS: usize = 5;

/// The keys [`compare`] skips: CPU and wall times and the ratios taken
/// from them, which differ between any two runs, and the two execution
/// settings results do not depend on (`jobs` by the determinism
/// contract, `core` by the quiescence contract).
pub const SKIPPED_KEYS: [&str; 13] = [
    "cycle_seconds",
    "event_seconds",
    "cycle_wall_seconds",
    "event_wall_seconds",
    "cycle_points_per_sec",
    "event_points_per_sec",
    "event_speedup",
    "unprofiled_seconds",
    "profiled_seconds",
    "profiled_wall_seconds",
    "overhead",
    "jobs",
    "core",
];

/// What the legs of one series found.
#[derive(Debug, Clone)]
pub struct SeriesBench {
    /// The series name (`fig05`, ..., `fence-ts16`).
    pub figure: &'static str,
    /// How many design points the series has.
    pub points: usize,
    /// The sum of the points' [`RunStats::core_cycles`].
    pub core_cycles: u64,
    /// Fastest of [`PROFILE_REPS`] serial cycle-core legs.
    pub cycle: LegTime,
    /// Fastest of [`PROFILE_REPS`] serial event-core legs, which are
    /// also the unprofiled legs of the profiler-overhead ratio.
    pub event: LegTime,
    /// Fastest of [`PROFILE_REPS`] profiled event-core legs.
    pub profiled: LegTime,
    /// Whether the cycle and event cores agreed on every point.
    pub cores_identical: bool,
    /// Whether the pooled run agreed with the serial event-core run.
    pub parallel_identical: bool,
    /// Whether every point's attribution conserved its own counters.
    pub conserved: bool,
    /// One line per point that broke one of those contracts.
    pub problems: Vec<String>,
    /// Attributed stall cycles per cause, in [`StallCause::ALL`] order.
    pub stalls: [u64; StallCause::ALL.len()],
    /// Attributed minus counted, per equation of
    /// [`ProfileReport::conservation`], summed over the points.
    pub deltas: [(&'static str, i64); 6],
}

impl SeriesBench {
    /// The cycle core's CPU time over the event core's.
    #[must_use]
    pub fn event_speedup(&self) -> f64 {
        ratio(self.cycle.cpu_s, self.event.cpu_s)
    }

    /// The profiled leg's CPU time over the unprofiled (event-core)
    /// leg's.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        ratio(self.profiled.cpu_s, self.event.cpu_s)
    }

    /// The series as one entry of the document's `figures` array.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let points = self.points as f64;
        let stalls = StallCause::ALL.iter().zip(self.stalls).map(|(c, v)| (c.label(), v.into()));
        let deltas = self.deltas.map(|(name, d)| (name, d.into()));
        Value::obj([
            ("figure", self.figure.into()),
            ("points", self.points.into()),
            ("core_cycles", self.core_cycles.into()),
            ("cycle_seconds", self.cycle.cpu_s.into()),
            ("event_seconds", self.event.cpu_s.into()),
            ("cycle_wall_seconds", self.cycle.wall_s.into()),
            ("event_wall_seconds", self.event.wall_s.into()),
            ("cycle_points_per_sec", ratio(points, self.cycle.cpu_s).into()),
            ("event_points_per_sec", ratio(points, self.event.cpu_s).into()),
            ("event_speedup", self.event_speedup().into()),
            ("unprofiled_seconds", self.event.cpu_s.into()),
            ("profiled_seconds", self.profiled.cpu_s.into()),
            ("profiled_wall_seconds", self.profiled.wall_s.into()),
            ("overhead", self.overhead().into()),
            ("conserved", self.conserved.into()),
            ("stalls", Value::obj(stalls)),
            ("stall_deltas", Value::obj(deltas)),
        ])
    }
}

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The time one leg took on both clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegTime {
    /// CPU seconds of the thread that ran the leg.
    pub cpu_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
}

impl LegTime {
    /// Not yet measured: slower than any leg.
    const NONE: LegTime = LegTime { cpu_s: f64::INFINITY, wall_s: f64::INFINITY };

    /// The faster of `self` and `other` on each clock.
    fn min(self, other: LegTime) -> LegTime {
        LegTime { cpu_s: self.cpu_s.min(other.cpu_s), wall_s: self.wall_s.min(other.wall_s) }
    }
}

/// CPU seconds the calling thread has used, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. std links the C library on
/// Linux, so the declaration below is all it takes.
#[cfg(target_os = "linux")]
fn thread_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a live, writable `struct timespec`, the only memory
    // the call writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Elsewhere the legs fall back to wall time alone.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Runs `f` on the calling thread and returns its result with the time
/// it took.
fn timed<T>(f: impl FnOnce() -> Result<T, SimError>) -> Result<(T, LegTime), SimError> {
    let (cpu, wall) = (thread_cpu_s(), Instant::now());
    let value = f()?;
    let time = LegTime { cpu_s: thread_cpu_s() - cpu, wall_s: wall.elapsed().as_secs_f64() };
    Ok((value, time))
}

/// Runs every scenario in order on the calling thread.
fn serial(scenarios: &[Scenario]) -> Result<Vec<RunStats>, SimError> {
    scenarios.iter().map(Scenario::run).collect()
}

/// Runs the legs of one series (see the module docs). Every scenario
/// pins its core, so nothing process-wide is switched.
///
/// # Errors
/// The first spec that fails validation, or the first run that fails.
pub fn run_series(
    figure: &'static str,
    specs: &[JobSpec],
    jobs: usize,
) -> Result<SeriesBench, SimError> {
    let on = |core| -> Result<Vec<Scenario>, SimError> {
        Ok(specs.iter().map(|s| s.builder().core(core).build()).collect::<Result<_, _>>()?)
    };
    let (cycle, event) = (on(SimCore::Cycle)?, on(SimCore::Event)?);

    // The legs alternate and each keeps its fastest repetition: a small
    // series lasts milliseconds, so one sample of each would let host
    // noise, not the core or the profiler, decide a ratio.
    let (mut cycle_t, mut event_t, mut profiled_t) = (LegTime::NONE, LegTime::NONE, LegTime::NONE);
    let (mut cycle_stats, mut event_stats, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..PROFILE_REPS {
        let (cycled, c) = timed(|| serial(&cycle))?;
        let (evented, e) = timed(|| serial(&event))?;
        let (profiled, p) = timed(|| event.iter().map(profile_scenario).collect())?;
        (cycle_t, event_t, profiled_t) = (cycle_t.min(c), event_t.min(e), profiled_t.min(p));
        if rep == 0 {
            (cycle_stats, event_stats, outcomes) = (cycled, evented, profiled);
        }
    }
    let pooled = Runner::new(Pool::new(jobs)).run(&event)?;

    let mut problems = Vec::new();
    let mut agree = |other: &[RunStats], what: &str| {
        let before = problems.len();
        for (i, p) in specs.iter().enumerate().filter(|&(i, _)| other[i] != event_stats[i]) {
            let at =
                format!("{figure} point {i} ({} {} {} bmf={})", p.workload, p.ts, p.mode, p.bmf);
            problems.push(format!("MISMATCH at {at}: {what}"));
        }
        problems.len() == before
    };
    let cores_identical = agree(&cycle_stats, "event core diverges from cycle core");
    let parallel_identical = agree(&pooled, "pooled run diverges from serial");
    let conserved = outcomes.iter().all(ProfileOutcome::is_conserved);
    let mut stalls = [0u64; StallCause::ALL.len()];
    // The equations with zero on both sides, to sum the points into.
    let mut sums = ProfileReport::default().conservation(&RunStats::default());
    for (i, o) in outcomes.iter().enumerate() {
        for (slot, cause) in StallCause::ALL.into_iter().enumerate() {
            stalls[slot] += o.report.stall(cause);
        }
        for (sum, (_, attributed, counted)) in sums.iter_mut().zip(o.report.conservation(&o.stats))
        {
            sum.1 += attributed;
            sum.2 += counted;
        }
        if !o.is_conserved() {
            problems.push(format!("{figure} point {i}: {}", o.summary()));
        }
    }
    let signed = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    Ok(SeriesBench {
        figure,
        points: specs.len(),
        core_cycles: event_stats.iter().map(|s| s.core_cycles).sum(),
        cycle: cycle_t,
        event: event_t,
        profiled: profiled_t,
        cores_identical,
        parallel_identical,
        conserved,
        problems,
        stalls,
        deltas: sums
            .map(|(name, attributed, counted)| (name, signed(attributed) - signed(counted))),
    })
}

/// The `orderlight/bench-sweep/v6` record of a bench run: the series,
/// the three verdicts over all of them, and the per-backend ordering
/// records. Its `core` names the event core the ordering records and
/// the unpinned legs run on.
#[must_use]
pub fn document(data_kb: u64, jobs: usize, series: &[SeriesBench], ordering: Value) -> Value {
    Value::obj([
        ("schema", BENCH_SCHEMA.into()),
        ("data_kb", data_kb.into()),
        ("jobs", jobs.into()),
        ("core", SimCore::Event.as_str().into()),
        ("figures", Value::Arr(series.iter().map(SeriesBench::to_value).collect())),
        ("cores_identical", series.iter().all(|s| s.cores_identical).into()),
        ("identical", series.iter().all(|s| s.parallel_identical).into()),
        ("conserved", series.iter().all(|s| s.conserved).into()),
        ("ordering", ordering),
    ])
}

/// A document [`compare`] cannot read: its `schema` tag is not
/// [`BENCH_SCHEMA`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// Which document: 0 for the first, 1 for the second.
    pub index: usize,
    /// The tag it carries, if any.
    pub found: Option<String>,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = self.found.as_deref().unwrap_or("(none)");
        write!(f, "schema tag '{tag}' is not {BENCH_SCHEMA}")
    }
}

impl std::error::Error for SchemaError {}

/// One path at which two documents differ, with each side's value
/// (`None` where the path is absent).
#[derive(Debug, Clone, PartialEq)]
pub struct Difference {
    /// Dotted path; array entries are named by their `figure` or
    /// `ordering` label, else by index (`figures[fig05].stalls.fence_wait`).
    pub path: String,
    /// The first document's value.
    pub a: Option<Value>,
    /// The second document's value.
    pub b: Option<Value>,
}

/// Every path outside [`SKIPPED_KEYS`] at which `a` and `b` differ, in
/// path order. Results are deterministic, so any difference is real and
/// no threshold applies.
///
/// # Errors
/// [`SchemaError`] if either document is not a [`BENCH_SCHEMA`] record.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Difference>, SchemaError> {
    for (index, doc) in [a, b].into_iter().enumerate() {
        let found = doc.get("schema").and_then(Value::as_str);
        if found != Some(BENCH_SCHEMA) {
            return Err(SchemaError { index, found: found.map(str::to_string) });
        }
    }
    let mut out = Vec::new();
    diff(String::new(), Some(a), Some(b), &mut out);
    Ok(out)
}

/// An array entry's `figure` or `ordering` label.
fn label(entry: &Value) -> Option<&str> {
    entry.get("figure").or_else(|| entry.get("ordering")).and_then(Value::as_str)
}

/// An array's entries, each named for a [`Difference`] path by its
/// [`label`], else (no label, or one an earlier entry took) its index.
fn named(entries: &[Value]) -> Vec<(String, &Value)> {
    let named = entries.iter().enumerate().map(|(i, e)| {
        let name = label(e).filter(|&n| !entries[..i].iter().any(|p| label(p) == Some(n)));
        (name.map_or(i.to_string(), str::to_string), e)
    });
    named.collect()
}

/// Appends every difference between `a` and `b` below `path`.
fn diff(path: String, a: Option<&Value>, b: Option<&Value>, out: &mut Vec<Difference>) {
    match (a, b) {
        (Some(Value::Obj(a)), Some(Value::Obj(b))) => {
            let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
            for key in keys.into_iter().filter(|k| !SKIPPED_KEYS.contains(&k.as_str())) {
                let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                diff(child, a.get(key), b.get(key), out);
            }
        }
        (Some(Value::Arr(a)), Some(Value::Arr(b))) => {
            let (a, b) = (named(a), named(b));
            let mut names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
            for (n, _) in &b {
                if !names.contains(&n.as_str()) {
                    names.push(n);
                }
            }
            for name in names {
                let a = a.iter().find(|(n, _)| n == name).map(|e| e.1);
                let b = b.iter().find(|(n, _)| n == name).map(|e| e.1);
                diff(format!("{path}[{name}]"), a, b, out);
            }
        }
        _ if a == b => {}
        _ => out.push(Difference { path, a: a.cloned(), b: b.cloned() }),
    }
}
