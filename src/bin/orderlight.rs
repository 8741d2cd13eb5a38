//! `orderlight` — command-line driver for the simulator.
//!
//! Run it without arguments for the synopsis of every subcommand.
//!
//! Each subcommand accepts only the flags it reads, parsed by
//! [`orderlight_suite::cli`]; any other flag is a usage error (exit 2).
//! The run flags are `--workload`/`-w`, `--mode`/`-m`, `--ts`, `--bmf`,
//! `--data-kb` and `--credits`. `--jobs N` / `-j N` is the worker count,
//! 1 to 256 (else `ORDERLIGHT_JOBS`, else the host's available
//! parallelism); an invalid `ORDERLIGHT_*` value is a usage error like
//! an invalid flag value.
//!
//! `serve` runs the simulation-as-a-service daemon: newline-delimited
//! `orderlight/scenario/v1` JSON requests in, typed JSON replies out,
//! independent runs batched across `--jobs` workers, completed runs
//! memoized by canonical scenario hash (exact, because `System::run`
//! is a pure function of its config). `submit` is the matching client;
//! `schema` prints the accepted wire schema. See DESIGN.md, "The
//! service surface".
//!
//! Examples:
//!
//! ```text
//! orderlight run --workload Add --mode orderlight --ts 8
//! orderlight run --workload KMeans --mode fence --ts 2 --data-kb 512
//! orderlight trace Add --mode fence --data-kb 16 --out /tmp/add_fence
//! orderlight sweep fig10 --jobs 8 > fig10.csv
//! orderlight bench --out BENCH_sweep.json
//! ```
//!
//! `trace` runs the workload with a recording sink attached and writes
//! `<out>.trace.json` (Chrome trace-event JSON — load it at
//! <https://ui.perfetto.dev>), `<out>.counters.csv` (epoch-segmented
//! counters) and a text summary with latency histograms to stdout.
//!
//! `profile` runs the workload with the stall-attribution profiler
//! attached: every core stall cycle is charged to a typed cause (fence
//! wait/drain, OrderLight spacing, register, structural, credits) and
//! the request/packet lifecycle is decomposed into per-phase latencies
//! (NoC traversal, MC ingress queue, bank timing, barrier hold, fence
//! round trip, refresh lockout). The breakdown is checked against the
//! run's own stall counters — the conservation invariant — and the
//! command exits non-zero if a single cycle is unaccounted for. Writes
//! `<out>.profile.json` (machine-readable breakdown) and
//! `<out>.trace.json` (Chrome trace with queue/pipe counter tracks).
//!
//! `sweep` regenerates the design-space sweeps behind Figures 5/10/12/13
//! as CSV on stdout, executed across `--jobs` workers (default: the
//! host's available parallelism, or `ORDERLIGHT_JOBS`). Results are
//! bit-identical to serial execution at any worker count. `sweep` and
//! `figure` each run every distinct design point once, however many of
//! the chosen figures share it.
//!
//! `check` runs the workload with the happens-before ordering oracle
//! observing every memory controller and cross-checks the final DRAM
//! image against the sequential golden model. `--faults` enables the
//! seeded legal perturbation layers (NoC jitter, adversarial scheduler
//! tie-breaks, refresh storms) under which a correct simulator must stay
//! clean; `--mutate CH:G` elides one ordering edge on purpose and the
//! command then succeeds only if the oracle fires (the CI mutation
//! gate).
//!
//! `compare-ordering` runs the same workload under every memory
//! controller ordering backend (fence, orderlight, seqnum, louvre,
//! bulk) with the happens-before oracle attached and records speedup
//! over the fence baseline, violation-freedom, and in-band ordering
//! metadata cost per backend into a `bench-sweep/v6` JSON document.
//! It exits non-zero if any backend's run was not violation-free.
//!
//! `bench` runs every figure series (and the fence-heavy `fence-ts16`
//! series) under the cycle core, the event core, a `--jobs` pool and the
//! stall profiler, plus the `compare-ordering` records, and writes them
//! to `BENCH_sweep.json`. It exits non-zero if the cores or the pool
//! disagree on a single point, if a stall cycle goes unattributed, or
//! if a backend is dirty. Its two timed ratios (event-core speedup,
//! profiler overhead) exist for `ci.sh`'s gates; sweep throughput is
//! measured by perfbench. `bench --compare A B` reports every
//! deterministic field (stalls, cycles, verdicts, ordering records)
//! that differs between two such files and exits non-zero if one does.

use orderlight_suite::bench::{self, BENCH_SCHEMA};
use orderlight_suite::check::{check_scenario, compare_backends, BackendRecord};
use orderlight_suite::cli::{self, Args, Flag, UsageError, DATA_KB, JOBS, MAX_JOBS, RUN};
use orderlight_suite::core::fault::{DropEdge, FaultPlan, NocJitter, RefreshStorm};
use orderlight_suite::profile::{profile_scenario_with, PROFILE_SCHEMA};
use orderlight_suite::sim::experiments::{
    fence_heavy_points, fig05_points, fig10_points, fig12_points, fig13_points, JobSpec, Runner,
    SweepPoint,
};
use orderlight_suite::sim::figures::FIGURES;
use orderlight_suite::sim::pool::{available_jobs, Pool};
use orderlight_suite::sim::report::bar_chart;
use orderlight_suite::sim::schema::{
    parse_mode, parse_ts, parse_workload, schema_document, stats_to_value, ScenarioSpec,
};
use orderlight_suite::sim::service::{self, Server};
use orderlight_suite::sim::{RunStats, SimCore};
use orderlight_suite::trace::json::{self, Value};
use orderlight_suite::trace::{
    ChromeTraceBuilder, ClockDomains, DramCmdKind, EventCategory, Histogram, RingSink, SchedSide,
    StallCause, TraceEvent,
};
use orderlight_suite::workloads::WorkloadId;
use std::collections::HashMap;
use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

/// Writes to stderr. A failed write is dropped: when the reader has
/// gone away (`orderlight run --bogus 2>&1 | head -1`) the exit status
/// still tells what happened, and there is nowhere left to report it.
fn write_stderr(args: std::fmt::Arguments<'_>) {
    let _ = std::io::stderr().lock().write_fmt(args);
}

/// `eprintln!` through [`write_stderr`].
macro_rules! errln {
    ($($arg:tt)*) => {
        write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. When the reader has gone away (`orderlight figure
/// all | head -1`) the process ends quietly with status 0, as a filter
/// should; any other write error ends it with status 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    let written = std::io::stdout().lock().write_fmt(args);
    if let Err(e) = written {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        errln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ExitCode {
    errln!(
        "usage:
  orderlight run [run flags]
  orderlight check [run flags] [--faults none|noc|sched|storm|all[,..]] [--mutate CH:G] [--seed N]
  orderlight trace [WORKLOAD] [run flags] [--out PATH] [--events N]
  orderlight profile [WORKLOAD] [run flags] [--out PATH] [--events N]
  orderlight profile-verify PROFILE.json [..]
  orderlight sweep [fig05|fig10|fig12|fig13|all] [--data-kb N] [--jobs N]
  orderlight figure ID|all [--data-kb N] [--jobs N]
  orderlight compare-ordering [--workload NAME] [--data-kb N] [--out PATH]
  orderlight bench [--data-kb N] [--out PATH] [--jobs N]
  orderlight bench --compare A.json B.json
  orderlight serve [--addr HOST:PORT] [--cache-max N] [--slow-ms N] [--jobs N]
  orderlight submit [run flags] [--budget N] --addr HOST:PORT [--out PATH] [--span-trace PATH]
  orderlight submit [run flags] [--budget N] --local [--out PATH]
  orderlight submit --addr HOST:PORT --shutdown | --stats | --metrics | --metrics-text | --flightrec
  orderlight top --addr HOST:PORT [--interval-ms N] [--count N | --once]
  orderlight schema | list | taxonomy
run flags: [--workload/-w NAME] [--mode/-m gpu|none|fence|orderlight|seqnum|louvre|bulk]
  [--ts 16|8|4|2] [--bmf N] [--data-kb N] [--credits N]
--jobs/-j 1..256 (or ORDERLIGHT_JOBS); a subcommand accepts only the flags listed for it
(see `orderlight schema` for the wire surface)"
    );
    ExitCode::from(2)
}

/// What a subcommand returns: its exit code, or a usage error, which
/// `main` prints above the synopsis before it exits with status 2.
type Outcome = Result<ExitCode, Box<dyn Error>>;

/// Success if `passed`, else failure.
fn exit(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--out PATH` / `-o PATH`.
const OUT: Flag = cli::value(&["--out", "-o"]);

/// The bytes of a `--data-kb` or `ORDERLIGHT_DATA_KB` value: `None`
/// unless it is a KiB count whose byte count fits a `u64`.
fn kib_bytes(value: &str) -> Option<u64> {
    value.parse::<u64>().ok()?.checked_mul(1024)
}

/// The scenario a run-style command runs: the `orderlight/scenario/v1`
/// defaults for `workload` at `data_kb` KiB per structure per channel,
/// under the run flags.
fn run_spec(flags: &Args, workload: WorkloadId, data_kb: u64) -> Result<ScenarioSpec, UsageError> {
    let spec = ScenarioSpec::new(workload);
    Ok(ScenarioSpec {
        workload: flags.get("--workload", parse_workload)?.unwrap_or(workload),
        mode: flags.get("--mode", parse_mode)?.unwrap_or(spec.mode),
        ts: flags.get("--ts", parse_ts)?.unwrap_or(spec.ts),
        bmf: flags.parsed("--bmf")?.unwrap_or(spec.bmf),
        data_bytes_per_channel: flags.get("--data-kb", kib_bytes)?.unwrap_or(data_kb * 1024),
        seq_credits: flags.parsed("--credits")?.unwrap_or(spec.seq_credits),
        ..spec
    })
}

/// The `--jobs` worker count (else `ORDERLIGHT_JOBS`, else the host's
/// available parallelism), at most [`MAX_JOBS`].
fn jobs(flags: &Args) -> Result<usize, UsageError> {
    let jobs = flags.get_or_env("--jobs", "ORDERLIGHT_JOBS", cli::jobs)?;
    Ok(jobs.unwrap_or_else(|| available_jobs().min(MAX_JOBS)))
}

/// How the run-style commands announce a scenario.
fn describe(spec: &ScenarioSpec) -> String {
    format!(
        "{} mode={} ts={} bmf={}x data={}KiB/structure/channel",
        spec.workload,
        spec.mode,
        spec.ts,
        spec.bmf,
        spec.data_bytes_per_channel / 1024
    )
}

/// Writes `contents` to `path`, reporting a failure on stderr.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        errln!("cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Writes `doc` to `path` as one canonical JSON line.
fn write_json(path: &str, doc: &Value) -> Result<(), ExitCode> {
    write_file(path, doc.to_json() + "\n")
}

/// Reads `path` as a JSON document.
fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: does not parse: {e}"))
}

/// Reads `path` as a JSON document tagged `schema`.
fn read_document(path: &str, schema: &str) -> Result<Value, String> {
    let doc = read_json(path)?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(tag) if tag == schema => Ok(doc),
        Some(tag) => Err(format!("{path}: schema '{tag}' is not {schema}")),
        None => Err(format!("{path}: no schema tag (want {schema})")),
    }
}

fn cmd_list() -> ExitCode {
    outln!("workloads (paper Table 2):");
    for id in WorkloadId::ALL {
        let m = id.meta();
        outln!("  {:<8} {:<40} C:M {:<6} {:?}", m.name, m.description, m.ratio, m.suite);
    }
    ExitCode::SUCCESS
}

fn cmd_taxonomy() -> ExitCode {
    use orderlight_suite::core::taxonomy::{literature, PimClass};
    for class in [PimClass::CGO_FGA, PimClass::CGO_CGA, PimClass::FGO_CGA, PimClass::FGO_FGA] {
        let names: Vec<&str> =
            literature().iter().filter(|d| d.class == class).map(|d| d.name).collect();
        outln!("{class}: {}", names.join(", "));
    }
    ExitCode::SUCCESS
}

fn print_stats(stats: &RunStats) -> bool {
    outln!("  execution time        : {:.4} ms", stats.exec_time_ms);
    outln!("  core cycles           : {}", stats.core_cycles);
    outln!("  core stall cycles     : {}", stats.stall_cycles());
    outln!("  PIM command bandwidth : {:.3} GC/s", stats.command_bandwidth_gcs);
    outln!("  PIM data bandwidth    : {:.0} GB/s", stats.data_bandwidth_gbs);
    outln!(
        "  ordering primitives   : {} ({:.3} per PIM instruction)",
        stats.sm.fences + stats.sm.orderlights,
        stats.primitives_per_pim_instr
    );
    if stats.sm.fences > 0 {
        outln!("  wait cycles per fence : {:.0}", stats.wait_cycles_per_fence());
    }
    if stats.is_correct() {
        outln!("  verification          : PASS ({} output stripes)", stats.verified_matches);
        true
    } else {
        outln!(
            "  verification          : FAIL ({} of {} stripes wrong)",
            stats.verified_mismatches,
            stats.verified_matches + stats.verified_mismatches
        );
        false
    }
}

fn cmd_run(args: &[String]) -> Outcome {
    let flags = cli::parse(args, 0, &[RUN])?;
    let spec = run_spec(&flags, WorkloadId::Add, 256)?;
    outln!("running {} ...", describe(&spec));
    Ok(
        match spec
            .build()
            .map_err(|e| e.to_string())
            .and_then(|s| s.run().map_err(|e| e.to_string()))
        {
            Ok(stats) if print_stats(&stats) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                errln!("{e}");
                ExitCode::FAILURE
            }
        },
    )
}

/// Parses a `--faults` spec: a comma-separated subset of
/// `none|noc|sched|storm|all`.
fn parse_faults(spec: &str) -> Option<FaultPlan> {
    let mut plan = FaultPlan::none();
    for part in spec.split(',') {
        match part.trim().to_ascii_lowercase().as_str() {
            "none" => {}
            "noc" => plan.noc_jitter = Some(NocJitter::default()),
            "sched" => plan.sched_adversary = true,
            "storm" => plan.refresh_storm = Some(RefreshStorm::default()),
            "all" => {
                plan.noc_jitter = Some(NocJitter::default());
                plan.sched_adversary = true;
                plan.refresh_storm = Some(RefreshStorm::default());
            }
            _ => return None,
        }
    }
    Some(plan)
}

/// Parses a `--mutate` spec `CH:G` (channel, memory group).
fn parse_mutate(spec: &str) -> Option<DropEdge> {
    let (ch, g) = spec.split_once(':')?;
    Some(DropEdge { channel: ch.parse().ok()?, group: g.parse().ok()? })
}

fn cmd_check(args: &[String]) -> Outcome {
    const CHECK: &[Flag] =
        &[cli::value(&["--faults", "-f"]), cli::value(&["--mutate"]), cli::value(&["--seed"])];
    let flags = cli::parse(args, 0, &[RUN, CHECK])?;
    // Keep the default checked run small: the oracle retains per-request
    // state and the default job is CI-speed at 64 KiB.
    let spec = run_spec(&flags, WorkloadId::Add, 64)?;
    let plan = FaultPlan {
        seed: flags.parsed("--seed")?.unwrap_or(0),
        drop_edge: flags.get("--mutate", parse_mutate)?,
        ..flags.get("--faults", parse_faults)?.unwrap_or_else(FaultPlan::none)
    };

    outln!(
        "checking {} (faults: noc={} sched={} storm={} seed={}{}) ...",
        describe(&spec),
        plan.noc_jitter.is_some(),
        plan.sched_adversary,
        plan.refresh_storm.is_some(),
        plan.seed,
        match plan.drop_edge {
            Some(e) => format!(", MUTATE ch{}:g{}", e.channel, e.group),
            None => String::new(),
        },
    );
    let outcome = match spec
        .builder()
        .faults(plan)
        .build()
        .map_err(|e| e.to_string())
        .and_then(|s| check_scenario(&s).map_err(|e| e.to_string()))
    {
        Ok(o) => o,
        Err(e) => {
            errln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    outln!("  {}", outcome.summary());
    const SHOWN: usize = 12;
    for v in outcome.report.violations.iter().take(SHOWN) {
        outln!("  {v}");
    }
    if outcome.report.violations.len() > SHOWN {
        outln!("  ... and {} more violation(s)", outcome.report.violations.len() - SHOWN);
    }
    let passed = if let Some(edge) = plan.drop_edge {
        // Mutation self-test: success means the check *fired* on the
        // deliberately broken schedule — via an oracle edge, a backend
        // sanity violation, or corrupted DRAM bytes, depending on where
        // the selected backend's elided edge surfaces. A mutation that
        // elided nothing broke nothing, and says so.
        let fired = outcome.edges_dropped > 0 && !outcome.is_clean();
        if outcome.edges_dropped == 0 {
            outln!(
                "  mutation gate         : FAIL (no ordering edge matched {}:{}; the schedule \
                 was not broken)",
                edge.channel,
                edge.group
            );
        } else if fired {
            outln!("  mutation gate         : PASS (oracle fired on the elided edge)");
        } else {
            outln!("  mutation gate         : FAIL (oracle stayed silent on a broken schedule)");
        }
        fired
    } else {
        outln!("  ordering check        : {}", if outcome.is_clean() { "PASS" } else { "FAIL" });
        outcome.is_clean()
    };
    Ok(exit(passed))
}

/// Pairs `FenceStallBegin`/`FenceStallEnd` per (warp, fence) into a
/// wait-latency histogram (core cycles).
fn fence_wait_histogram(events: &[TraceEvent]) -> Histogram {
    let mut hist = Histogram::exponential(16, 16);
    let mut begins: HashMap<(u32, u64), u64> = HashMap::new();
    for e in events {
        match *e {
            TraceEvent::FenceStallBegin { cycle, warp, fence_id, .. } => {
                begins.insert((warp, fence_id), cycle);
            }
            TraceEvent::FenceStallEnd { cycle, warp, fence_id, .. } => {
                if let Some(b) = begins.remove(&(warp, fence_id)) {
                    hist.record(cycle.saturating_sub(b));
                }
            }
            _ => {}
        }
    }
    hist
}

/// Host-read service latency histogram (memory cycles).
fn host_read_histogram(events: &[TraceEvent]) -> Histogram {
    let mut hist = Histogram::exponential(8, 14);
    for e in events {
        if let TraceEvent::HostReadDone { latency, .. } = *e {
            hist.record(latency);
        }
    }
    hist
}

/// Row open-residency histogram (memory cycles per activation).
fn row_residency_histogram(events: &[TraceEvent]) -> Histogram {
    let mut hist = Histogram::exponential(16, 14);
    for e in events {
        if let TraceEvent::RowInterval { open_cycles, .. } = *e {
            hist.record(open_cycles);
        }
    }
    hist
}

/// The `<out>.counters.csv` header: the epoch, then 22 counters.
const COUNTERS_HEADER: &str = "epoch,sm.warp_issue,sm.warp_retire,sm.fence_stalls,\
    sm.stall_cycles,packet.created,packet.enqueued,packet.merged,packet.fence_acks,sched.picks_rd,\
    sched.picks_wr,sched.row_hits,sched.req_enqueued,sched.req_dequeued,sched.req_issued,dram.act,\
    dram.pre,dram.rd,dram.wr,dram.exec,dram.row_closes,dram.refreshes,host.reads_done";

/// The counter an event adds to and by how much, or `None` for events
/// no counter tallies. A scheduler pick that hits an open row also
/// counts under `sched.row_hits`; the caller adds that.
fn counter_of(e: &TraceEvent) -> Option<(&'static str, u64)> {
    let name = match e {
        TraceEvent::WarpIssue { .. } => "sm.warp_issue",
        TraceEvent::WarpRetire { .. } => "sm.warp_retire",
        TraceEvent::FenceStallBegin { .. } => "sm.fence_stalls",
        // Weighted by the run length: the counter carries stall
        // *cycles*, not stall runs.
        TraceEvent::CoreStall { cycles, .. } => return Some(("sm.stall_cycles", *cycles)),
        TraceEvent::PacketCreated { .. } => "packet.created",
        TraceEvent::PacketEnqueued { .. } => "packet.enqueued",
        TraceEvent::PacketMerged { .. } => "packet.merged",
        TraceEvent::FenceAck { .. } => "packet.fence_acks",
        TraceEvent::SchedDecision { side: SchedSide::Read, .. } => "sched.picks_rd",
        TraceEvent::SchedDecision { side: SchedSide::Write, .. } => "sched.picks_wr",
        TraceEvent::ReqEnqueued { .. } => "sched.req_enqueued",
        TraceEvent::ReqDequeued { .. } => "sched.req_dequeued",
        TraceEvent::ReqIssued { .. } => "sched.req_issued",
        TraceEvent::DramCmd { kind, .. } => match kind {
            DramCmdKind::Activate => "dram.act",
            DramCmdKind::Precharge => "dram.pre",
            DramCmdKind::Read => "dram.rd",
            DramCmdKind::Write => "dram.wr",
            DramCmdKind::Exec => "dram.exec",
        },
        TraceEvent::RowInterval { .. } => "dram.row_closes",
        TraceEvent::RefreshWindow { .. } => "dram.refreshes",
        TraceEvent::HostReadDone { .. } => "host.reads_done",
        TraceEvent::FenceStallEnd { .. }
        | TraceEvent::QueueSample { .. }
        | TraceEvent::PipeSample { .. } => return None,
    };
    Some((name, 1))
}

/// Epoch-segmented counters as CSV: the run is cut into `epochs` equal
/// wall-clock windows and every event tallied into its window, in one
/// pass over the events.
fn counters_csv(events: &[TraceEvent], clocks: &ClockDomains, epochs: usize) -> String {
    let at_us = |e: &TraceEvent| clocks.to_us(e.cycle(), e.is_core_clock());
    let end_us = events.iter().map(at_us).fold(0.0f64, f64::max);
    let window = (end_us / epochs as f64).max(f64::MIN_POSITIVE);
    // Epoch `k` holds `lo <= t < hi`; the last one is open above.
    let holds = |k: usize, t: f64| {
        let lo = k as f64 * window;
        let hi = if k + 1 == epochs { f64::INFINITY } else { lo + window };
        lo <= t && t < hi
    };
    let column = |name: &str| {
        COUNTERS_HEADER.split(',').skip(1).position(|c| c == name).expect("a listed counter")
    };
    let row_hits = column("sched.row_hits");
    let mut rows = vec![[0u64; 22]; epochs];
    for e in events {
        let Some((name, n)) = counter_of(e) else { continue };
        let col = column(name);
        let hit = matches!(e, TraceEvent::SchedDecision { row_hit: true, .. });
        let t = at_us(e);
        // Rounding can put `t` just across a window edge from
        // `t / window`, so the neighbouring epochs get the exact test.
        let guess = (t / window) as usize;
        for (k, row) in rows.iter_mut().enumerate().skip(guess.saturating_sub(1)).take(3) {
            if holds(k, t) {
                row[col] += n;
                row[row_hits] += u64::from(hit);
            }
        }
    }
    let mut csv = format!("{COUNTERS_HEADER}\n");
    for (k, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row.iter().map(u64::to_string).collect();
        csv.push_str(&format!("{k},{}\n", cells.join(",")));
    }
    csv
}

fn print_histogram(title: &str, hist: &Histogram) {
    if hist.total() == 0 {
        return;
    }
    outln!(
        "\n{title} ({} samples, mean {:.1}, min {}, max {}):",
        hist.total(),
        hist.mean(),
        hist.min().unwrap_or(0),
        hist.max().unwrap_or(0)
    );
    let rows: Vec<(String, f64)> = hist.rows().into_iter().filter(|(_, v)| *v > 0.0).collect();
    outln!("{}", bar_chart(&rows, 40));
}

/// Parses the command line of `trace` and `profile`: an optional
/// positional workload, the run flags, `--out` and `--events`
/// (the ring capacity, at least 1). Returns the scenario, the output
/// path prefix and the capacity.
fn capture_args(args: &[String]) -> Result<(ScenarioSpec, String, usize), Box<dyn Error>> {
    const CAPTURE: &[Flag] = &[OUT, cli::value(&["--events"])];
    let flags = cli::parse(args, 1, &[RUN, CAPTURE])?;
    let workload = match flags.positionals.first() {
        Some(name) => parse_workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
        None => WorkloadId::Add,
    };
    // Keep the default run small: traces of the full-size default job
    // are hundreds of MB of JSON.
    let spec = run_spec(&flags, workload, 16)?;
    let capacity = flags.get("--events", |v| v.parse().ok().filter(|&n: &usize| n > 0))?;
    let out = flags.value("--out").unwrap_or("orderlight").to_string();
    Ok((spec, out, capacity.unwrap_or(4_000_000)))
}

fn cmd_trace(args: &[String]) -> Outcome {
    let (spec, out, capacity) = capture_args(args)?;

    outln!("tracing {} ...", describe(&spec));
    let ring = Arc::new(RingSink::new(capacity));
    let traced = spec
        .builder()
        .trace(ring.clone())
        .build()
        .map_err(|e| e.to_string())
        .and_then(|s| s.run_with_clocks().map_err(|e| e.to_string()));
    let (stats, clocks) = match traced {
        Ok(r) => r,
        Err(e) => {
            errln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let correct = print_stats(&stats);
    let events = ring.events();
    outln!("\ncaptured {} trace events ({} dropped)", events.len(), ring.dropped());
    if ring.dropped() > 0 {
        outln!(
            "  WARNING: ring full, {} later events dropped — raise --events (current {capacity})",
            ring.dropped()
        );
    }
    let mut per_cat: Vec<(String, f64)> = Vec::new();
    for cat in EventCategory::ALL {
        let n = events.iter().filter(|e| e.category() == cat).count();
        per_cat.push((cat.name().to_string(), n as f64));
    }
    outln!("{}", bar_chart(&per_cat, 40));

    let mix: Vec<(String, f64)> = [
        DramCmdKind::Activate,
        DramCmdKind::Precharge,
        DramCmdKind::Read,
        DramCmdKind::Write,
        DramCmdKind::Exec,
    ]
    .into_iter()
    .map(|kind| {
        let n = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DramCmd { kind: k, .. } if *k == kind))
            .count();
        (kind.mnemonic().to_string(), n as f64)
    })
    .collect();
    outln!("\nDRAM command mix:\n{}", bar_chart(&mix, 40));

    print_histogram("fence wait latency [core cycles]", &fence_wait_histogram(&events));
    print_histogram("host read latency [memory cycles]", &host_read_histogram(&events));
    print_histogram("row open residency [memory cycles]", &row_residency_histogram(&events));

    let trace_path = format!("{out}.trace.json");
    let csv_path = format!("{out}.counters.csv");
    let json = ChromeTraceBuilder::new(clocks).build_with_drops(&events, ring.dropped());
    if let Err(code) = write_file(&trace_path, json)
        .and_then(|()| write_file(&csv_path, counters_csv(&events, &clocks, 8)))
    {
        return Ok(code);
    }
    outln!("\nwrote {trace_path} (open at https://ui.perfetto.dev) and {csv_path}");
    Ok(exit(correct))
}

fn cmd_profile(args: &[String]) -> Outcome {
    // Same default sizing as `trace`: the profiled run streams into the
    // aggregation, but the teed ring still backs the Chrome export.
    let (spec, out, capacity) = capture_args(args)?;

    outln!("profiling {} ...", describe(&spec));
    let ring = Arc::new(RingSink::new(capacity));
    let outcome = match spec
        .build()
        .map_err(|e| e.to_string())
        .and_then(|s| profile_scenario_with(&s, Some(ring.clone())).map_err(|e| e.to_string()))
    {
        Ok(o) => o,
        Err(e) => {
            errln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let correct = print_stats(&outcome.stats);
    outln!("\ncaptured {} trace events ({} dropped)", ring.len(), ring.dropped());
    if ring.dropped() > 0 {
        outln!(
            "  WARNING: ring full, {} later events dropped — the Chrome export is truncated; the profile itself streams and stays exact (raise --events, current {capacity})",
            ring.dropped()
        );
    }
    outln!();
    out!("{}", outcome.report.to_text());
    outln!("\n{}", outcome.summary());

    let profile_path = format!("{out}.profile.json");
    let trace_path = format!("{out}.trace.json");
    let chrome =
        ChromeTraceBuilder::new(outcome.clocks).build_with_drops(&ring.events(), ring.dropped());
    if let Err(code) = write_file(&profile_path, outcome.report.to_json() + "\n")
        .and_then(|()| write_file(&trace_path, chrome))
    {
        return Ok(code);
    }
    outln!("wrote {profile_path} and {trace_path} (open at https://ui.perfetto.dev)");
    if !outcome.is_conserved() {
        errln!("profile FAILED its conservation invariant — see summary above");
        return Ok(ExitCode::FAILURE);
    }
    Ok(exit(correct))
}

/// Validates `*.profile.json` files with the in-tree JSON parser: each
/// must parse, carry the `orderlight/profile/v1` schema tag, and hold
/// an internally consistent stall breakdown (per-cause sum == total).
/// The CI gate runs this on the freshly profiled Figure 5 scenarios.
fn cmd_profile_verify(args: &[String]) -> Outcome {
    let paths = cli::parse(args, usize::MAX, &[])?.positionals;
    if paths.is_empty() {
        return Err("profile-verify needs at least one PROFILE.json path".into());
    }
    for path in paths {
        let doc = match read_document(path, PROFILE_SCHEMA) {
            Ok(doc) => doc,
            Err(e) => {
                errln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let Some(stalls) = doc.get("stalls") else {
            errln!("{path}: no stall breakdown");
            return Ok(ExitCode::FAILURE);
        };
        let cycles = |key: &str| stalls.get(key).and_then(Value::as_f64);
        let total = cycles("total").unwrap_or(-1.0);
        let sum: f64 = StallCause::ALL.iter().map(|c| cycles(c.label()).unwrap_or(f64::NAN)).sum();
        if !(sum.is_finite() && total >= 0.0 && (sum - total).abs() < 0.5) {
            errln!("{path}: stall causes sum to {sum}, total says {total}");
            return Ok(ExitCode::FAILURE);
        }
        outln!("{path}: ok ({total} stall cycles attributed)");
    }
    Ok(ExitCode::SUCCESS)
}

/// The CSV schema of `orderlight sweep`: one row per sweep point.
const SWEEP_CSV_HEADER: &str = "figure,workload,ts,mode,ordering,bmf,exec_ms,cmd_gcs,data_gbs,stall_cycles,stall_fence,stall_ol,stall_reg,stall_structural,stall_credit,primitives,prim_per_instr,verified";

fn emit_sweep_csv(figure: &str, rows: &[SweepPoint]) {
    for p in rows {
        let s = &p.stats;
        outln!(
            "{figure},{},{},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{},{},{},{:.6},{}",
            p.workload,
            p.ts.replace(' ', ""),
            p.mode,
            p.ordering,
            p.bmf,
            s.exec_time_ms,
            s.command_bandwidth_gcs,
            s.data_bandwidth_gbs,
            s.stall_cycles(),
            s.sm.fence_stall_cycles,
            s.sm.ol_wait_cycles,
            s.sm.reg_wait_cycles,
            s.sm.structural_stall_cycles,
            s.sm.credit_wait_cycles,
            s.sm.fences + s.sm.orderlights,
            s.primitives_per_pim_instr,
            if s.is_correct() { "pass" } else { "FAIL" },
        );
    }
}

/// The figure sweeps selectable from the command line, in their
/// canonical order.
fn sweep_figures(which: &str, data: u64) -> Option<Vec<(&'static str, Vec<JobSpec>)>> {
    let all = [
        ("fig05", fig05_points(data)),
        ("fig10", fig10_points(data)),
        ("fig12", fig12_points(data)),
        ("fig13", fig13_points(data)),
    ];
    match which {
        "all" => Some(all.into_iter().collect()),
        "fig05" | "fig10" | "fig12" | "fig13" => {
            Some(all.into_iter().filter(|(name, _)| *name == which).collect())
        }
        _ => None,
    }
}

/// The per-channel job size: the `--data-kb` bytes if the flag was
/// given, else those of `ORDERLIGHT_DATA_KB`, else `default_kb` KiB.
fn data_bytes(flags: &Args, default_kb: u64) -> Result<u64, UsageError> {
    let bytes = flags.get_or_env("--data-kb", "ORDERLIGHT_DATA_KB", kib_bytes)?;
    Ok(bytes.unwrap_or(default_kb * 1024))
}

/// Parses `[NAME] [--data-kb N] [--jobs N]`. Returns the positional,
/// the per-channel job size in bytes (default 256 KiB) and the worker
/// count.
fn series_args(args: &[String]) -> Result<(Option<&str>, u64, usize), UsageError> {
    let flags = cli::parse(args, 1, &[DATA_KB, JOBS])?;
    Ok((flags.positionals.first().copied(), data_bytes(&flags, 256)?, jobs(&flags)?))
}

fn cmd_sweep(args: &[String]) -> Outcome {
    let (which, data, jobs) = series_args(args)?;
    let which = which.unwrap_or("all");
    let Some(figures) = sweep_figures(which, data) else {
        return Err(
            format!("unknown sweep '{which}' (expected fig05|fig10|fig12|fig13|all)").into()
        );
    };
    errln!("sweeping {which} at {} KiB/structure/channel across {jobs} worker(s) ...", data / 1024);
    let mut runner = Runner::new(Pool::new(jobs));
    outln!("{SWEEP_CSV_HEADER}");
    for (name, specs) in figures {
        match runner.points(&specs) {
            Ok(rows) => emit_sweep_csv(name, &rows),
            Err(e) => {
                errln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints the report of one paper table, figure or ablation by id, or
/// of every one in paper order for `all`. The chosen printers share one
/// runner, so a design point they have in common runs once.
fn cmd_figure(args: &[String]) -> Outcome {
    let (which, data, jobs) = series_args(args)?;
    let which = which.ok_or("figure needs an ID or all")?;
    let chosen: Vec<_> = FIGURES.iter().filter(|(id, _)| which == "all" || *id == which).collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        return Err(format!("unknown figure '{which}' (expected {}|all)", ids.join("|")).into());
    }
    let mut runner = Runner::new(Pool::new(jobs));
    for (i, (id, print)) in chosen.into_iter().enumerate() {
        match print(data, &mut runner) {
            Ok(report) if i == 0 => out!("{report}"),
            Ok(report) => out!("\n{report}"),
            Err(e) => {
                errln!("{id}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The `ordering` array of a `bench-sweep/v6` document.
fn ordering_array(records: &[BackendRecord]) -> Value {
    Value::Arr(records.iter().map(BackendRecord::to_value).collect())
}

/// Runs the cross-primitive ordering comparison and prints the
/// per-backend table. Returns the records, or an exit code on failure.
fn run_ordering_comparison(
    workload: WorkloadId,
    data_kb: u64,
) -> Result<Vec<BackendRecord>, ExitCode> {
    outln!("comparing ordering backends on {workload} at {data_kb} KiB/structure/channel:");
    let records = compare_backends(workload, data_kb).map_err(|e| {
        errln!("{e}");
        ExitCode::FAILURE
    })?;
    outln!(
        "  {:<12} {:>12} {:>10} {:>8} {:>9} {:>10} {:>8} {:>13}  verdict",
        "backend",
        "cycles",
        "ms",
        "speedup",
        "packets",
        "fence_acks",
        "credits",
        "metadata_bits"
    );
    for r in &records {
        outln!(
            "  {:<12} {:>12} {:>10.4} {:>7.2}x {:>9} {:>10} {:>8} {:>13}  {}",
            r.ordering.to_string(),
            r.core_cycles,
            r.exec_time_ms,
            r.speedup_vs_fence,
            r.packets,
            r.fence_acks,
            r.credits,
            r.metadata_bits,
            if r.clean {
                "clean".to_string()
            } else {
                format!("DIRTY ({} violations, {} sanity)", r.violations, r.sanity_violations)
            },
        );
    }
    Ok(records)
}

/// `orderlight compare-ordering`: the cross-primitive comparison as a
/// first-class subcommand. Runs every ordering backend over the same
/// workload with the happens-before oracle attached and writes the
/// per-backend records as a `bench-sweep/v6` document. Exits non-zero
/// if any backend's run was not violation-free — a comparison between
/// a correct backend and a broken one is not a comparison.
fn cmd_compare_ordering(args: &[String]) -> Outcome {
    const COMPARE: &[Flag] = &[cli::value(&["--workload", "-w"]), OUT];
    let flags = cli::parse(args, 0, &[COMPARE, DATA_KB])?;
    let workload = flags.get("--workload", parse_workload)?.unwrap_or(WorkloadId::Add);
    let data_kb = data_bytes(&flags, 8)? / 1024;
    let out = flags.value("--out").unwrap_or("BENCH_sweep.json");
    let records = match run_ordering_comparison(workload, data_kb) {
        Ok(r) => r,
        Err(code) => return Ok(code),
    };
    let doc = Value::obj([
        ("schema", BENCH_SCHEMA.into()),
        ("workload", workload.to_string().into()),
        ("data_kb", data_kb.into()),
        ("core", SimCore::Event.as_str().into()),
        ("ordering", ordering_array(&records)),
    ]);
    if let Err(code) = write_json(out, &doc) {
        return Ok(code);
    }
    outln!("wrote {out}");
    let clean = records.iter().all(|r| r.clean);
    if !clean {
        errln!("comparison includes a dirty backend — see the table above");
    }
    Ok(exit(clean))
}

/// `orderlight bench --compare A.json B.json`: prints every path at
/// which the two records differ outside [`bench::SKIPPED_KEYS`], with both
/// values, and exits non-zero if there is one.
fn cmd_bench_compare(paths: [&str; 2]) -> ExitCode {
    let differences = match (read_json(paths[0]), read_json(paths[1])) {
        (Ok(a), Ok(b)) => bench::compare(&a, &b).map_err(|e| format!("{}: {e}", paths[e.index])),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    let differences = match differences {
        Ok(d) => d,
        Err(e) => {
            errln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let show = |v: &Option<Value>| v.as_ref().map_or("absent".to_string(), Value::to_json);
    for d in &differences {
        outln!("  {}: {} -> {}", d.path, show(&d.a), show(&d.b));
    }
    if differences.is_empty() {
        outln!("ok: {} and {} agree outside the skipped keys", paths[0], paths[1]);
        ExitCode::SUCCESS
    } else {
        errln!("{} difference(s) between {} and {}", differences.len(), paths[0], paths[1]);
        ExitCode::FAILURE
    }
}

fn cmd_bench(args: &[String]) -> Outcome {
    // `--compare A B` ends the line and takes no other flag.
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        cli::parse(&args[..i], 0, &[])?;
        let [a, b] = &args[i + 1..] else {
            return Err("--compare takes exactly two BENCH_sweep.json paths".into());
        };
        return Ok(cmd_bench_compare([a, b]));
    }
    let flags = cli::parse(args, 0, &[&[OUT], DATA_KB, JOBS])?;
    let (data, jobs) = (data_bytes(&flags, 8)?, jobs(&flags)?);
    let out = flags.value("--out").unwrap_or("BENCH_sweep.json");
    let data_kb = data / 1024;
    let mut series = sweep_figures("all", data).expect("'all' is always known");
    series.push(("fence-ts16", fence_heavy_points(data)));
    outln!(
        "benchmarking {} series at {data_kb} KiB/structure/channel: cycle vs event core, \
         serial vs --jobs {jobs}, profiled vs unprofiled (event core)",
        series.len()
    );
    let mut benches = Vec::with_capacity(series.len());
    let mut passed = true;
    for (name, specs) in &series {
        let s = match bench::run_series(name, specs, jobs) {
            Ok(s) => s,
            Err(e) => {
                errln!("{name}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        for problem in &s.problems {
            errln!("  {problem}");
        }
        passed &= s.cores_identical && s.parallel_identical && s.conserved;
        outln!(
            "  {name}: {} points, {} core cycles; CPU cycle {:.3} s, event {:.3} s -> {:.2}x event \
             speedup; profiled {:.3} s -> {:.2}x overhead",
            s.points,
            s.core_cycles,
            s.cycle.cpu_s,
            s.event.cpu_s,
            s.event_speedup(),
            s.profiled.cpu_s,
            s.overhead(),
        );
        benches.push(s);
    }
    let records = match run_ordering_comparison(WorkloadId::Add, data_kb) {
        Ok(r) => r,
        Err(code) => return Ok(code),
    };
    if !records.iter().all(|r| r.clean) {
        errln!("  results : ORDERING COMPARISON DIRTY: a backend failed its checked run");
        passed = false;
    }
    let doc = bench::document(data_kb, jobs, &benches, ordering_array(&records));
    if let Err(code) = write_json(out, &doc) {
        return Ok(code);
    }
    outln!("wrote {out}");
    Ok(exit(passed))
}

/// `orderlight schema`: prints the accepted `orderlight/scenario/v1`
/// wire schema — the contract `serve` enforces and `submit` speaks.
fn cmd_schema() -> ExitCode {
    out!("{}", schema_document());
    ExitCode::SUCCESS
}

/// `orderlight serve`: the simulation daemon. Binds `--addr` (default
/// loopback on an ephemeral port), prints the bound address, then
/// serves scenario requests on `--jobs` workers until a client sends
/// `{"cmd": "shutdown"}`.
fn cmd_serve(args: &[String]) -> Outcome {
    const SERVE: &[Flag] =
        &[cli::value(&["--addr"]), cli::value(&["--cache-max"]), cli::value(&["--slow-ms"])];
    let flags = cli::parse(args, 0, &[SERVE, JOBS])?;
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:0");
    let (cache_max, slow_ms) =
        (flags.parsed("--cache-max")?.unwrap_or(0), flags.parsed("--slow-ms")?);
    let jobs = jobs(&flags)?;
    let server = match Server::bind(addr, jobs) {
        Ok(s) => s.with_cache_max(cache_max).with_slow_ms(slow_ms),
        Err(e) => {
            errln!("cannot bind {addr}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    match server.local_addr() {
        // Parsed by `ci.sh` and scripted clients; stdout is
        // line-buffered so the line is visible before the first accept.
        Ok(bound) => outln!("listening on {bound} ({jobs} workers)"),
        Err(e) => {
            errln!("cannot read bound address: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    if let Err(e) = server.run() {
        errln!("serve failed: {e}");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `orderlight submit`: the service client. Builds a scenario from the
/// run flags, sends it to `--addr` (or runs it in-process with
/// `--local`), prints every reply line, and with `--out` writes the
/// canonical stats JSON — byte-identical between a served reply and a
/// local run, which is what the `ci.sh` smoke gate `cmp`s.
fn cmd_submit(args: &[String]) -> Outcome {
    const ADMIN: [&str; 5] =
        ["--shutdown", "--stats", "--metrics", "--metrics-text", "--flightrec"];
    const SUBMIT: &[Flag] = &[
        cli::value(&["--addr"]),
        OUT,
        cli::value(&["--span-trace"]),
        cli::value(&["--budget"]),
        cli::switch(&["--local"]),
        cli::switch(&["--shutdown"]),
        cli::switch(&["--stats"]),
        cli::switch(&["--metrics"]),
        cli::switch(&["--metrics-text"]),
        cli::switch(&["--flightrec"]),
    ];
    let flags = cli::parse(args, 0, &[RUN, SUBMIT])?;
    let spec = ScenarioSpec {
        budget: flags.parsed("--budget")?,
        ..run_spec(&flags, WorkloadId::Add, 256)?
    };
    let (addr, out, span_trace) =
        (flags.value("--addr"), flags.value("--out"), flags.value("--span-trace"));
    let local = flags.switch("--local");
    let admin = flags.last_of(&ADMIN).map(|flag| flag.trim_start_matches('-'));

    let stats_json = if local {
        match spec.build().map_err(|e| e.to_string()).and_then(|s| {
            s.run().map_err(|e| e.to_string()).map(|stats| stats_to_value(&stats).to_json())
        }) {
            Ok(json) => json,
            Err(e) => {
                errln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    } else {
        let addr = addr.ok_or("submit needs --addr HOST:PORT (or --local)")?;
        let line = match admin {
            Some("metrics-text") => {
                Value::obj([("cmd", "metrics".into()), ("format", "text".into())]).to_json()
            }
            Some(cmd) => admin_line(cmd),
            None => spec.to_value().to_json(),
        };
        let replies = match service::request(addr, &line) {
            Ok(r) => r,
            Err(e) => {
                errln!("cannot reach {addr}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let Some(last) = replies.last() else {
            errln!("server closed the connection without a reply");
            return Ok(ExitCode::FAILURE);
        };
        // The exposition format is a document, not a JSON line: unwrap
        // it so the output is directly scrapeable.
        if admin == Some("metrics-text") {
            let text = json::parse(last)
                .ok()
                .and_then(|d| d.get("text").and_then(Value::as_str).map(ToString::to_string));
            match text {
                Some(text) => out!("{text}"),
                None => {
                    errln!("no text exposition in reply: {last}");
                    return Ok(ExitCode::FAILURE);
                }
            }
            return Ok(ExitCode::SUCCESS);
        }
        for reply in &replies {
            outln!("{reply}");
        }
        if admin == Some("stats") {
            if let Ok(doc) = json::parse(last) {
                print_stats_summary(&doc);
            }
        }
        if admin.is_some() {
            return Ok(ExitCode::SUCCESS);
        }
        if let Some(path) = &span_trace {
            if let Err(e) = write_span_trace(path, last) {
                errln!("cannot write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
        match service::extract_stats(last) {
            Some(json) => json,
            None => {
                errln!("no result reply — see lines above");
                return Ok(ExitCode::FAILURE);
            }
        }
    };
    if let Some(path) = out {
        if let Err(code) = write_file(path, stats_json + "\n") {
            return Ok(code);
        }
    } else if local {
        outln!("{stats_json}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The request line of the admin command `cmd`.
fn admin_line(cmd: &str) -> String {
    Value::obj([("cmd", cmd.into())]).to_json()
}

/// The human-readable cache line printed under `submit --stats`.
fn print_stats_summary(doc: &Value) {
    let f = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let max =
        if f("cache_max") == 0.0 { "unbounded".to_string() } else { format!("{}", f("cache_max")) };
    outln!(
        "cache: {} scenarios (max {max}), hit ratio {:.2} ({} hits / {} misses), {} insertions, {} evictions",
        f("cache_size"),
        f("hit_ratio"),
        f("hits"),
        f("misses"),
        f("insertions"),
        f("evictions"),
    );
}

/// Folds the `span` phases of a result reply into a Chrome trace-event
/// document (`--span-trace`), composable with `orderlight trace`
/// output for the same scenario.
fn write_span_trace(path: &str, result_line: &str) -> Result<(), String> {
    use orderlight_suite::trace::{spans_to_chrome, SpanPhases};
    let doc = json::parse(result_line).map_err(|e| e.to_string())?;
    let span =
        doc.get("span").and_then(SpanPhases::from_value).ok_or("no span in the result reply")?;
    let cached = doc.get("cached").and_then(Value::as_bool).unwrap_or(false);
    let label = if cached { "request (cache hit)" } else { "request (cache miss)" };
    let chrome = spans_to_chrome(&[(label.to_string(), span)]);
    std::fs::write(path, chrome).map_err(|e| e.to_string())
}

/// Fetches the terminal reply of the admin command `cmd`, parsed.
fn fetch_admin(addr: &str, cmd: &str) -> Result<Value, String> {
    let replies = service::request(addr, &admin_line(cmd))
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let last = replies.last().ok_or("server closed the connection without a reply")?;
    let doc = json::parse(last).map_err(|e| e.to_string())?;
    if doc.get("reply").and_then(Value::as_str) == Some("error") {
        return Err(format!("server error: {last}"));
    }
    Ok(doc)
}

/// `orderlight top`: polls a daemon's `stats`/`metrics`/`flightrec`
/// surfaces and renders a live one-screen summary. Every count and
/// percentile on it comes from the one metrics snapshot; `stats`
/// supplies only the configured cache bound.
fn cmd_top(args: &[String]) -> Outcome {
    const TOP: &[Flag] = &[
        cli::value(&["--addr"]),
        cli::value(&["--interval-ms"]),
        cli::value(&["--count"]),
        cli::switch(&["--once"]),
    ];
    let flags = cli::parse(args, 0, &[TOP])?;
    let interval_ms = flags.parsed("--interval-ms")?.unwrap_or(1000);
    // 0 = until interrupted; the later of `--count` and `--once` wins.
    let count = flags.parsed("--count")?.unwrap_or(0u64);
    let count = if flags.last_of(&["--count", "--once"]) == Some("--once") { 1 } else { count };
    let addr = flags.value("--addr").ok_or("top needs --addr HOST:PORT")?;
    let mut screens = 0u64;
    loop {
        let fetched = fetch_admin(addr, "stats").and_then(|stats| {
            let metrics = fetch_admin(addr, "metrics")?;
            let flight = fetch_admin(addr, "flightrec")?;
            Ok((stats, metrics, flight))
        });
        let (stats, metrics, flight) = match fetched {
            Ok(x) => x,
            Err(e) => {
                errln!("{e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        if count != 1 {
            // Repaint in place on live refresh; keep output plain for
            // a single snapshot so it stays pipeable.
            out!("\x1b[2J\x1b[H");
        }
        out!("{}", render_top(addr, &stats, &metrics, &flight));
        screens += 1;
        if count > 0 && screens >= count {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// One screen of daemon state from the three admin replies.
fn render_top(addr: &str, stats: &Value, metrics: &Value, flight: &Value) -> String {
    use std::fmt::Write as _;
    let snap = metrics.get("snapshot");
    let m = |group: &str, key: &str| -> f64 {
        snap.and_then(|s| s.get(group))
            .and_then(|g| g.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let hist = |group: &str, key: &str, q: &str| -> f64 {
        snap.and_then(|s| s.get(group))
            .and_then(|g| g.get(key))
            .and_then(|h| h.get(q))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let s = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(out, "orderlight serve @ {addr}");
    let _ = writeln!(
        out,
        "requests  received {:>6}  accepted {:>6}  running {:>6}  result {:>6}  error {:>6}",
        m("requests", "received"),
        m("requests", "accepted"),
        m("requests", "running"),
        m("requests", "result"),
        m("requests", "error"),
    );
    let max = if s("cache_max") == 0.0 { "inf".to_string() } else { format!("{}", s("cache_max")) };
    let (hits, misses) = (m("cache", "hits"), m("cache", "misses"));
    let ratio = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    let _ = writeln!(
        out,
        "cache     size {}/{max}  hits {}  misses {}  ratio {:.2}  insertions {}  evictions {}",
        m("cache", "size"),
        hits,
        misses,
        ratio,
        m("cache", "insertions"),
        m("cache", "evictions"),
    );
    let _ = writeln!(
        out,
        "queue     depth {}  wait p50 {}us  p95 {}us",
        m("queue", "depth"),
        hist("timing", "queue_wait_us", "p50"),
        hist("timing", "queue_wait_us", "p95"),
    );
    let _ = writeln!(
        out,
        "workers   busy {}  jobs {}  busy_us {}  idle_us {}",
        m("workers", "busy"),
        m("workers", "jobs"),
        m("workers", "busy_us"),
        m("workers", "idle_us"),
    );
    let _ = writeln!(
        out,
        "io        bytes_in {}  bytes_out {}",
        m("io", "bytes_in"),
        m("io", "bytes_out"),
    );
    let p = |q: &str| hist("timing", "latency_us", q);
    let _ = writeln!(out, "latency   p50 {}us  p95 {}us  p99 {}us", p("p50"), p("p95"), p("p99"));
    let _ = writeln!(out, "recent requests:");
    let _ = writeln!(out, "  {:>5}  {:<14}  {:>12}  scenario", "seq", "outcome", "latency_us");
    let empty = Vec::new();
    let requests = flight.get("requests").and_then(Value::as_array).unwrap_or(&empty);
    for r in requests.iter().rev().take(10) {
        let _ = writeln!(
            out,
            "  {:>5}  {:<14}  {:>12}  {}",
            r.get("seq").and_then(Value::as_f64).unwrap_or(0.0),
            r.get("outcome").and_then(Value::as_str).unwrap_or("?"),
            r.get("latency_us").and_then(Value::as_f64).unwrap_or(0.0),
            r.get("scenario_hash").and_then(Value::as_str).unwrap_or("-"),
        );
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, args)) = args.split_first() else {
        return usage();
    };
    let no_flags = |print: fn() -> ExitCode| -> Outcome {
        cli::parse(args, 0, &[])?;
        Ok(print())
    };
    let outcome = match command.as_str() {
        "run" => cmd_run(args),
        "check" => cmd_check(args),
        "trace" => cmd_trace(args),
        "profile" => cmd_profile(args),
        "profile-verify" => cmd_profile_verify(args),
        "sweep" => cmd_sweep(args),
        "figure" => cmd_figure(args),
        "compare-ordering" => cmd_compare_ordering(args),
        "bench" => cmd_bench(args),
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "top" => cmd_top(args),
        "schema" => no_flags(cmd_schema),
        "list" => no_flags(cmd_list),
        "taxonomy" => no_flags(cmd_taxonomy),
        _ => return usage(),
    };
    outcome.unwrap_or_else(|e| {
        errln!("{e}");
        usage()
    })
}
