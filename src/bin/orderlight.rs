//! `orderlight` — command-line driver for the simulator.
//!
//! ```text
//! orderlight run [--workload NAME] [--mode gpu|none|fence|orderlight|seqnum|louvre|bulk]
//!                [--ts 16|8|4|2] [--bmf N] [--data-kb N] [--verbose]
//! orderlight check [run flags] [--faults none|noc|sched|storm|all] [--mutate CH:G]
//! orderlight trace [WORKLOAD] [run flags] [--out PATH] [--events N]
//! orderlight profile [WORKLOAD] [run flags] [--out PATH] [--events N]
//! orderlight sweep [fig05|fig10|fig12|fig13|all] [--data-kb N]
//! orderlight figure ID|all [--data-kb N]
//! orderlight compare-ordering [--workload NAME] [--data-kb N] [--out PATH]
//! orderlight bench [--quick] [--profile] [--data-kb N] [--out PATH]
//! orderlight bench --compare A.json B.json [--threshold PCT]
//! orderlight serve [--addr HOST:PORT]
//! orderlight submit [run flags] [--budget N] --addr HOST:PORT [--out PATH]
//! orderlight schema
//! orderlight list
//! orderlight taxonomy
//! ```
//!
//! Every subcommand also accepts the shared execution flags, parsed
//! once by `sim::cli` before dispatch: `--jobs N` / `-j N` (worker
//! count, or `ORDERLIGHT_JOBS`), `--core cycle|event` (default: event,
//! or `ORDERLIGHT_CORE`), `--seed N` (master fault seed) and
//! `--ordering MODE` (default execution mode for run-style commands).
//! `--core` selects the dense per-cycle simulation core or the
//! bit-identical event-driven time-skip core (see `DESIGN.md`,
//! "Quiescence contract"). Traced and profiled runs honour the selected
//! core too: skip boundaries synthesize the periodic trace events, so
//! the event core feeds a sink the same events the dense core emits and
//! profile reports are byte-identical across cores (use `--core cycle`
//! as an explicit opt-out when debugging the dense loop itself).
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
//! orderlight bench --quick --out BENCH_sweep.json
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
//! bit-identical to serial execution at any worker count.
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
//! metadata cost per backend into a `bench-sweep/v5` JSON document.
//! It exits non-zero if any backend's run was not violation-free.
//!
//! `bench` times the same sweep serially and in parallel, verifies the
//! two result sets are bit-identical, prints wall-clock/points-per-sec/
//! speedup, and writes a machine-readable `BENCH_sweep.json` so the
//! perf trajectory of the sweep engine is recorded over time. It also
//! times every figure under the cycle core and the event core and
//! cross-checks them point by point. With `--profile` it additionally
//! re-runs every figure under the event core with the stall profiler
//! attached, records per-cause stall totals, the attribution deltas
//! against the SMs' own counters (zero when conservation holds), and
//! the observability overhead (profiled vs. unprofiled wall time) into
//! the JSON, failing on any conservation violation. With `--compare`
//! it instead diffs two previously written `BENCH_sweep.json` files
//! (any schema >= v2): per-figure wall-time and point-latency
//! p50/p95/p99 deltas, exiting non-zero when the newer file regresses
//! past `--threshold` percent (default 20). Exits non-zero on any
//! parallel/serial or cycle/event mismatch.

use orderlight_suite::check::{check_scenario, compare_backends, BackendRecord};
use orderlight_suite::core::fault::{DropEdge, FaultPlan, NocJitter, RefreshStorm};
use orderlight_suite::profile::{
    profile_points, profile_scenario_with, ProfileReport, PROFILE_SCHEMA,
};
use orderlight_suite::sim::cli::{take_common_flags, CommonFlags};
use orderlight_suite::sim::core_select::{set_core_override, SimCore};
use orderlight_suite::sim::experiments::{
    fence_heavy_points, fig05_points, fig10_points, fig12_points, fig13_points, run_points,
    run_points_serial, JobSpec, SweepPoint,
};
use orderlight_suite::sim::figures::FIGURES;
use orderlight_suite::sim::pool::{available_jobs, Pool};
use orderlight_suite::sim::report::bar_chart;
use orderlight_suite::sim::schema::{
    parse_mode, parse_ts, parse_workload, schema_document, stats_to_value, ScenarioSpec,
};
use orderlight_suite::sim::service::{self, Server};
use orderlight_suite::sim::RunStats;
use orderlight_suite::trace::json::{self, Value};
use orderlight_suite::trace::{
    ChromeTraceBuilder, ClockDomains, DramCmdKind, EventCategory, Histogram, RingSink, SchedSide,
    StallCause, TraceEvent,
};
use orderlight_suite::workloads::WorkloadId;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  orderlight run [--workload NAME] [--mode gpu|none|fence|orderlight|seqnum|louvre|bulk]\n                 [--ts 16|8|4|2] [--bmf N] [--data-kb N] [--credits N]\n  orderlight check [run flags] [--faults none|noc|sched|storm|all[,..]] [--mutate CH:G]\n  orderlight trace [WORKLOAD] [run flags] [--out PATH] [--events N]\n  orderlight profile [WORKLOAD] [run flags] [--out PATH] [--events N]\n  orderlight profile-verify PROFILE.json [..]\n  orderlight sweep [fig05|fig10|fig12|fig13|all] [--data-kb N]\n  orderlight figure ID|all [--data-kb N]\n  orderlight compare-ordering [--workload NAME] [--data-kb N] [--out PATH]\n  orderlight bench [--quick] [--profile] [--data-kb N] [--out PATH]\n  orderlight bench --compare A.json B.json [--threshold PCT]\n  orderlight serve [--addr HOST:PORT] [--cache-max N] [--slow-ms N] [--no-telemetry]\n  orderlight submit [run flags] [--budget N] --addr HOST:PORT [--out PATH] [--span-trace PATH]\n  orderlight submit [run flags] [--budget N] --local [--out PATH]\n  orderlight submit --addr HOST:PORT --shutdown | --stats | --metrics | --metrics-text | --flightrec\n  orderlight top --addr HOST:PORT [--interval-ms N] [--count N | --once]\n  orderlight schema\n  orderlight list\n  orderlight taxonomy\nevery subcommand accepts the shared flags --jobs/-j N, --core cycle|event,\n--seed N and --ordering MODE (see `orderlight schema` for the wire surface)"
    );
    ExitCode::from(2)
}

/// The scenario a run-style command starts from: the
/// `orderlight/scenario/v1` defaults for `Add` at `data_kb` KiB per
/// structure per channel, under the shared `--ordering` mode if given.
fn default_spec(common: &CommonFlags, data_kb: u64) -> ScenarioSpec {
    let spec = ScenarioSpec {
        data_bytes_per_channel: data_kb * 1024,
        ..ScenarioSpec::new(WorkloadId::Add)
    };
    ScenarioSpec { mode: common.ordering.unwrap_or(spec.mode), ..spec }
}

/// Applies one common experiment flag. `Some(ok)` when the flag is
/// recognised; `None` for flags the caller must handle itself.
fn apply_common_flag(spec: &mut ScenarioSpec, flag: &str, value: &str) -> Option<bool> {
    Some(match flag {
        "--workload" | "-w" => parse_workload(value).map(|w| spec.workload = w).is_some(),
        "--mode" | "-m" => parse_mode(value).map(|m| spec.mode = m).is_some(),
        "--ts" => parse_ts(value).map(|t| spec.ts = t).is_some(),
        "--bmf" => value.parse().map(|v| spec.bmf = v).is_ok(),
        "--data-kb" => value
            .parse::<u64>()
            .ok()
            .and_then(|kb| kb.checked_mul(1024))
            .map(|bytes| spec.data_bytes_per_channel = bytes)
            .is_some(),
        "--credits" => value.parse().map(|v| spec.seq_credits = v).is_ok(),
        _ => return None,
    })
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
        eprintln!("cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Writes `doc` to `path` as one canonical JSON line.
fn write_json(path: &str, doc: &Value) -> Result<(), ExitCode> {
    write_file(path, doc.to_json() + "\n")
}

/// Reads `path` as a JSON document whose `schema` tag passes `accept`;
/// `wanted` names the accepted tags in the error.
fn read_document(path: &str, wanted: &str, accept: impl Fn(&str) -> bool) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: does not parse: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(tag) if accept(tag) => Ok(doc),
        Some(tag) => Err(format!("{path}: schema '{tag}' is not {wanted}")),
        None => Err(format!("{path}: no schema tag (want {wanted})")),
    }
}

fn cmd_list() -> ExitCode {
    println!("workloads (paper Table 2):");
    for id in WorkloadId::ALL {
        let m = id.meta();
        println!("  {:<8} {:<40} C:M {:<6} {:?}", m.name, m.description, m.ratio, m.suite);
    }
    ExitCode::SUCCESS
}

fn cmd_taxonomy() -> ExitCode {
    use orderlight_suite::core::taxonomy::{literature, PimClass};
    for class in [PimClass::CGO_FGA, PimClass::CGO_CGA, PimClass::FGO_CGA, PimClass::FGO_FGA] {
        let names: Vec<&str> =
            literature().iter().filter(|d| d.class == class).map(|d| d.name).collect();
        println!("{class}: {}", names.join(", "));
    }
    ExitCode::SUCCESS
}

fn print_stats(stats: &RunStats) -> bool {
    println!("  execution time        : {:.4} ms", stats.exec_time_ms);
    println!("  core cycles           : {}", stats.core_cycles);
    println!("  core stall cycles     : {}", stats.stall_cycles());
    println!("  PIM command bandwidth : {:.3} GC/s", stats.command_bandwidth_gcs);
    println!("  PIM data bandwidth    : {:.0} GB/s", stats.data_bandwidth_gbs);
    println!(
        "  ordering primitives   : {} ({:.3} per PIM instruction)",
        stats.sm.fences + stats.sm.orderlights,
        stats.primitives_per_pim_instr
    );
    if stats.sm.fences > 0 {
        println!("  wait cycles per fence : {:.0}", stats.wait_cycles_per_fence());
    }
    if stats.is_correct() {
        println!("  verification          : PASS ({} output stripes)", stats.verified_matches);
        true
    } else {
        println!(
            "  verification          : FAIL ({} of {} stripes wrong)",
            stats.verified_mismatches,
            stats.verified_matches + stats.verified_mismatches
        );
        false
    }
}

fn cmd_run(args: &[String], common: &CommonFlags) -> ExitCode {
    let mut spec = default_spec(common, 256);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        match apply_common_flag(&mut spec, flag, value) {
            Some(true) => {}
            Some(false) => {
                eprintln!("invalid value '{value}' for {flag}");
                return usage();
            }
            None => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
        }
    }

    println!("running {} ...", describe(&spec));
    match spec.build().map_err(|e| e.to_string()).and_then(|s| s.run().map_err(|e| e.to_string())) {
        Ok(stats) => {
            if print_stats(&stats) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
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

fn cmd_check(args: &[String], common: &CommonFlags) -> ExitCode {
    // Keep the default checked run small: the oracle retains per-request
    // state and the default job is CI-speed at 64 KiB.
    let mut spec = default_spec(common, 64);
    let mut plan = FaultPlan::none();
    let mut mutate: Option<DropEdge> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        let ok = match flag.as_str() {
            "--faults" | "-f" => match parse_faults(value) {
                Some(p) => {
                    plan = p;
                    true
                }
                None => false,
            },
            "--mutate" => match parse_mutate(value) {
                Some(edge) => {
                    mutate = Some(edge);
                    true
                }
                None => false,
            },
            _ => match apply_common_flag(&mut spec, flag, value) {
                Some(ok) => ok,
                None => {
                    eprintln!("unknown flag {flag}");
                    return usage();
                }
            },
        };
        if !ok {
            eprintln!("invalid value '{value}' for {flag}");
            return usage();
        }
    }
    plan.seed = common.seed;
    plan.drop_edge = mutate;

    println!(
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
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("  {}", outcome.summary());
    const SHOWN: usize = 12;
    for v in outcome.report.violations.iter().take(SHOWN) {
        println!("  {v}");
    }
    if outcome.report.violations.len() > SHOWN {
        println!("  ... and {} more violation(s)", outcome.report.violations.len() - SHOWN);
    }
    if mutate.is_some() {
        // Mutation self-test: success means the check *fired* on the
        // deliberately broken schedule — via an oracle edge, a backend
        // sanity violation, or corrupted DRAM bytes, depending on where
        // the selected backend's elided edge surfaces.
        if outcome.edges_dropped > 0 && !outcome.is_clean() {
            println!("  mutation gate         : PASS (oracle fired on the elided edge)");
            ExitCode::SUCCESS
        } else {
            println!("  mutation gate         : FAIL (oracle stayed silent on a broken schedule)");
            ExitCode::FAILURE
        }
    } else if outcome.is_clean() {
        println!("  ordering check        : PASS");
        ExitCode::SUCCESS
    } else {
        println!("  ordering check        : FAIL");
        ExitCode::FAILURE
    }
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
    println!(
        "\n{title} ({} samples, mean {:.1}, min {}, max {}):",
        hist.total(),
        hist.mean(),
        hist.min().unwrap_or(0),
        hist.max().unwrap_or(0)
    );
    let rows: Vec<(String, f64)> = hist.rows().into_iter().filter(|(_, v)| *v > 0.0).collect();
    println!("{}", bar_chart(&rows, 40));
}

/// Parses the flag set shared by `trace` and `profile`: an optional
/// positional workload, the common run flags, `--out` and `--events`.
fn parse_capture_args(
    args: &[String],
    spec: &mut ScenarioSpec,
) -> Result<(String, usize), ExitCode> {
    let mut out = "orderlight".to_string();
    let mut capacity = 4_000_000usize;
    let mut rest = args;
    // Optional positional workload name first: `orderlight trace Add`.
    if let Some(first) = rest.first() {
        if !first.starts_with('-') {
            match parse_workload(first) {
                Some(w) => spec.workload = w,
                None => {
                    eprintln!("unknown workload '{first}'");
                    return Err(usage());
                }
            }
            rest = &rest[1..];
        }
    }
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("missing value for {flag}");
            return Err(usage());
        };
        let ok = match flag.as_str() {
            "--out" | "-o" => {
                out = value.clone();
                true
            }
            "--events" => value.parse().map(|v: usize| capacity = v.max(1)).is_ok(),
            _ => match apply_common_flag(spec, flag, value) {
                Some(ok) => ok,
                None => {
                    eprintln!("unknown flag {flag}");
                    return Err(usage());
                }
            },
        };
        if !ok {
            eprintln!("invalid value '{value}' for {flag}");
            return Err(usage());
        }
    }
    Ok((out, capacity))
}

fn cmd_trace(args: &[String], common: &CommonFlags) -> ExitCode {
    // Keep the default traced run small: traces of the full-size default
    // job are hundreds of MB of JSON.
    let mut spec = default_spec(common, 16);
    let (out, capacity) = match parse_capture_args(args, &mut spec) {
        Ok(x) => x,
        Err(code) => return code,
    };

    println!("tracing {} ...", describe(&spec));
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
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = print_stats(&stats);
    let events = ring.events();
    println!("\ncaptured {} trace events ({} dropped)", events.len(), ring.dropped());
    if ring.dropped() > 0 {
        println!(
            "  WARNING: ring full, {} later events dropped — raise --events (current {capacity})",
            ring.dropped()
        );
    }
    let mut per_cat: Vec<(String, f64)> = Vec::new();
    for cat in EventCategory::ALL {
        let n = events.iter().filter(|e| e.category() == cat).count();
        per_cat.push((cat.name().to_string(), n as f64));
    }
    println!("{}", bar_chart(&per_cat, 40));

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
    println!("\nDRAM command mix:\n{}", bar_chart(&mix, 40));

    print_histogram("fence wait latency [core cycles]", &fence_wait_histogram(&events));
    print_histogram("host read latency [memory cycles]", &host_read_histogram(&events));
    print_histogram("row open residency [memory cycles]", &row_residency_histogram(&events));

    let trace_path = format!("{out}.trace.json");
    let csv_path = format!("{out}.counters.csv");
    let json = ChromeTraceBuilder::new(clocks).build_with_drops(&events, ring.dropped());
    if let Err(code) = write_file(&trace_path, json)
        .and_then(|()| write_file(&csv_path, counters_csv(&events, &clocks, 8)))
    {
        return code;
    }
    println!("\nwrote {trace_path} (open at https://ui.perfetto.dev) and {csv_path}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_profile(args: &[String], common: &CommonFlags) -> ExitCode {
    // Same default sizing as `trace`: the profiled run streams into the
    // aggregation, but the teed ring still backs the Chrome export.
    let mut spec = default_spec(common, 16);
    let (out, capacity) = match parse_capture_args(args, &mut spec) {
        Ok(x) => x,
        Err(code) => return code,
    };

    println!("profiling {} ...", describe(&spec));
    let ring = Arc::new(RingSink::new(capacity));
    let outcome = match spec
        .build()
        .map_err(|e| e.to_string())
        .and_then(|s| profile_scenario_with(&s, Some(ring.clone())).map_err(|e| e.to_string()))
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = print_stats(&outcome.stats);
    println!("\ncaptured {} trace events ({} dropped)", ring.len(), ring.dropped());
    if ring.dropped() > 0 {
        println!(
            "  WARNING: ring full, {} later events dropped — the Chrome export is truncated; the profile itself streams and stays exact (raise --events, current {capacity})",
            ring.dropped()
        );
    }
    println!();
    print!("{}", outcome.report.to_text());
    println!("\n{}", outcome.summary());

    let profile_path = format!("{out}.profile.json");
    let trace_path = format!("{out}.trace.json");
    let chrome =
        ChromeTraceBuilder::new(outcome.clocks).build_with_drops(&ring.events(), ring.dropped());
    if let Err(code) = write_file(&profile_path, outcome.report.to_json() + "\n")
        .and_then(|()| write_file(&trace_path, chrome))
    {
        return code;
    }
    println!("wrote {profile_path} and {trace_path} (open at https://ui.perfetto.dev)");
    if !outcome.is_conserved() {
        eprintln!("profile FAILED its conservation invariant — see summary above");
        return ExitCode::FAILURE;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Validates `*.profile.json` files with the in-tree JSON parser: each
/// must parse, carry the `orderlight/profile/v1` schema tag, and hold
/// an internally consistent stall breakdown (per-cause sum == total).
/// The CI gate runs this on the freshly profiled Figure 5 scenarios.
fn cmd_profile_verify(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("profile-verify needs at least one PROFILE.json path");
        return usage();
    }
    for path in paths {
        let doc = match read_document(path, PROFILE_SCHEMA, |tag| tag == PROFILE_SCHEMA) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(stalls) = doc.get("stalls") else {
            eprintln!("{path}: no stall breakdown");
            return ExitCode::FAILURE;
        };
        let cycles = |key: &str| stalls.get(key).and_then(Value::as_f64);
        let total = cycles("total").unwrap_or(-1.0);
        let sum: f64 = StallCause::ALL.iter().map(|c| cycles(c.label()).unwrap_or(f64::NAN)).sum();
        if !(sum.is_finite() && total >= 0.0 && (sum - total).abs() < 0.5) {
            eprintln!("{path}: stall causes sum to {sum}, total says {total}");
            return ExitCode::FAILURE;
        }
        println!("{path}: ok ({total} stall cycles attributed)");
    }
    ExitCode::SUCCESS
}

/// The CSV schema of `orderlight sweep`: one row per sweep point.
const SWEEP_CSV_HEADER: &str = "figure,workload,ts,mode,ordering,bmf,exec_ms,cmd_gcs,data_gbs,stall_cycles,stall_fence,stall_ol,stall_reg,stall_structural,stall_credit,primitives,prim_per_instr,verified";

fn emit_sweep_csv(figure: &str, rows: &[SweepPoint]) {
    for p in rows {
        let s = &p.stats;
        println!(
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

/// `ORDERLIGHT_DATA_KB`, or `default_kb` when unset/unparsable.
fn env_data_kb(default_kb: u64) -> u64 {
    std::env::var("ORDERLIGHT_DATA_KB").ok().and_then(|v| v.parse().ok()).unwrap_or(default_kb)
}

/// Parses `[NAME] [--data-kb N]`: an optional leading positional and
/// the per-channel job size in KiB (default `ORDERLIGHT_DATA_KB`, else
/// 256).
fn name_and_data_kb(args: &[String]) -> Result<(Option<&str>, u64), ExitCode> {
    let (name, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with('-') => (Some(first.as_str()), rest),
        _ => (None, args),
    };
    let mut data_kb = env_data_kb(256);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("missing value for {flag}");
            return Err(usage());
        };
        if flag != "--data-kb" {
            eprintln!("unknown flag {flag}");
            return Err(usage());
        }
        let Ok(kb) = value.parse() else {
            eprintln!("invalid value '{value}' for {flag}");
            return Err(usage());
        };
        data_kb = kb;
    }
    Ok((name, data_kb))
}

fn cmd_sweep(args: &[String], jobs: usize) -> ExitCode {
    let (which, data_kb) = match name_and_data_kb(args) {
        Ok((which, data_kb)) => (which.unwrap_or("all"), data_kb),
        Err(code) => return code,
    };
    let Some(figures) = sweep_figures(which, data_kb * 1024) else {
        eprintln!("unknown sweep '{which}' (expected fig05|fig10|fig12|fig13|all)");
        return usage();
    };
    eprintln!("sweeping {which} at {data_kb} KiB/structure/channel across {jobs} worker(s) ...");
    let pool = Pool::new(jobs);
    println!("{SWEEP_CSV_HEADER}");
    for (name, specs) in figures {
        match run_points(&specs, &pool) {
            Ok(rows) => emit_sweep_csv(name, &rows),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Prints the report of one paper table, figure or ablation by id, or
/// of every one in paper order for `all`.
fn cmd_figure(args: &[String], jobs: usize) -> ExitCode {
    let (which, data_kb) = match name_and_data_kb(args) {
        Ok((Some(which), data_kb)) => (which, data_kb),
        Ok((None, _)) => return usage(),
        Err(code) => return code,
    };
    let chosen: Vec<_> = FIGURES.iter().filter(|(id, _)| which == "all" || *id == which).collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown figure '{which}' (expected {}|all)", ids.join("|"));
        return usage();
    }
    for (i, (id, print)) in chosen.into_iter().enumerate() {
        match print(data_kb * 1024, jobs) {
            Ok(report) if i == 0 => print!("{report}"),
            Ok(report) => print!("\n{report}"),
            Err(e) => {
                eprintln!("{id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The schema tag of `compare-ordering` and `bench` documents.
const BENCH_SCHEMA: &str = "orderlight/bench-sweep/v5";

/// `a / b`, or 0 when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The `ordering` array of a `bench-sweep/v5` document.
fn ordering_array(records: &[BackendRecord]) -> Value {
    Value::Arr(records.iter().map(BackendRecord::to_value).collect())
}

/// Runs the cross-primitive ordering comparison and prints the
/// per-backend table. Returns the records, or an exit code on failure.
fn run_ordering_comparison(
    workload: WorkloadId,
    data_kb: u64,
    core: SimCore,
) -> Result<Vec<BackendRecord>, ExitCode> {
    println!(
        "comparing ordering backends on {workload} at {data_kb} KiB/structure/channel (core: {}):",
        core.as_str()
    );
    let records = compare_backends(workload, data_kb, core).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })?;
    println!(
        "  {:<12} {:>12} {:>10} {:>8} {:>9} {:>10} {:>8} {:>13}  verdict",
        "backend", "cycles", "ms", "speedup", "packets", "fence_acks", "credits", "metadata_bits"
    );
    for r in &records {
        println!(
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
/// per-backend records as a `bench-sweep/v5` document. Exits non-zero
/// if any backend's run was not violation-free — a comparison between
/// a correct backend and a broken one is not a comparison.
fn cmd_compare_ordering(args: &[String], core: SimCore) -> ExitCode {
    let mut workload = WorkloadId::Add;
    let mut data_kb = env_data_kb(8);
    let mut out = "BENCH_sweep.json".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" | "-w" => match parse_workload(value) {
                Some(w) => {
                    workload = w;
                    true
                }
                None => false,
            },
            "--data-kb" => value.parse().map(|v| data_kb = v).is_ok(),
            "--out" | "-o" => {
                out.clone_from(value);
                true
            }
            _ => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
        };
        if !ok {
            eprintln!("invalid value '{value}' for {flag}");
            return usage();
        }
    }
    let records = match run_ordering_comparison(workload, data_kb, core) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let doc = Value::obj([
        ("schema", BENCH_SCHEMA.into()),
        ("workload", workload.to_string().into()),
        ("data_kb", data_kb.into()),
        ("core", core.as_str().into()),
        ("ordering", ordering_array(&records)),
    ]);
    if let Err(code) = write_json(&out, &doc) {
        return code;
    }
    println!("wrote {out}");
    if records.iter().all(|r| r.clean) {
        ExitCode::SUCCESS
    } else {
        eprintln!("comparison includes a dirty backend — see the table above");
        ExitCode::FAILURE
    }
}

/// One figure's cycle-core-vs-event-core serial timing.
struct CoreBench {
    figure: &'static str,
    points: usize,
    cycle_s: f64,
    event_s: f64,
}

impl CoreBench {
    /// Event-core speedup over the cycle core (wall-clock ratio).
    fn speedup(&self) -> f64 {
        ratio(self.cycle_s, self.event_s)
    }

    fn to_value(&self) -> Value {
        let points = self.points as f64;
        Value::obj([
            ("figure", self.figure.into()),
            ("points", self.points.into()),
            ("cycle_seconds", self.cycle_s.into()),
            ("event_seconds", self.event_s.into()),
            ("cycle_points_per_sec", ratio(points, self.cycle_s).into()),
            ("event_points_per_sec", ratio(points, self.event_s).into()),
            ("event_speedup", self.speedup().into()),
        ])
    }
}

/// Times one figure's sweep serially under each core and cross-checks
/// the two result sets point by point. Leaves the process core override
/// on whatever core ran last; the caller restores it.
fn bench_figure_cores(
    figure: &'static str,
    specs: &[JobSpec],
) -> Result<(CoreBench, bool), ExitCode> {
    let leg = |core: SimCore| {
        set_core_override(Some(core));
        let t = std::time::Instant::now();
        let rows = run_points_serial(specs).map_err(|e| {
            eprintln!("{figure} {}-core sweep failed: {e}", core.as_str());
            ExitCode::FAILURE
        })?;
        Ok::<_, ExitCode>((rows, t.elapsed().as_secs_f64()))
    };
    let (cycle_rows, cycle_s) = leg(SimCore::Cycle)?;
    let (event_rows, event_s) = leg(SimCore::Event)?;
    let identical = cycle_rows == event_rows;
    if !identical {
        for (i, (c, e)) in cycle_rows.iter().zip(&event_rows).enumerate() {
            if c != e {
                eprintln!(
                    "  MISMATCH at {figure} point {i} ({} {} {} bmf={}): event core diverges from cycle core",
                    c.workload, c.ts, c.mode, c.bmf
                );
            }
        }
    }
    let bench = CoreBench { figure, points: specs.len(), cycle_s, event_s };
    Ok((bench, identical))
}

/// One figure's event-core observability measurement from `bench
/// --profile`: per-cause stall totals, attribution deltas against the
/// SMs' own counters, and the profiled-vs-unprofiled overhead.
struct ProfileBench {
    figure: &'static str,
    points: usize,
    unprofiled_s: f64,
    profiled_s: f64,
    /// Attributed cycles per cause, in [`StallCause::ALL`] order.
    stalls: [u64; StallCause::ALL.len()],
    /// Attributed minus counted, per equation of
    /// [`ProfileReport::conservation`]. All zero exactly when
    /// conservation holds.
    deltas: [(&'static str, i64); 6],
    conserved: bool,
}

impl ProfileBench {
    /// Profiled over unprofiled wall time; 1.0 means free observability.
    fn overhead(&self) -> f64 {
        ratio(self.profiled_s, self.unprofiled_s)
    }

    fn to_value(&self) -> Value {
        let stalls = StallCause::ALL.iter().zip(self.stalls).map(|(c, v)| (c.label(), v.into()));
        let deltas = self.deltas.map(|(name, d)| (name, d.into()));
        Value::obj([
            ("figure", self.figure.into()),
            ("points", self.points.into()),
            ("unprofiled_seconds", self.unprofiled_s.into()),
            ("profiled_seconds", self.profiled_s.into()),
            ("overhead", self.overhead().into()),
            ("conserved", self.conserved.into()),
            ("stalls", Value::obj(stalls)),
            ("stall_deltas", Value::obj(deltas)),
        ])
    }
}

/// Profiles one figure's sweep under the event core: times an
/// unprofiled serial leg against a profiled serial leg, folds the
/// per-cause stall totals, and computes the attribution deltas
/// (attributed minus the SMs' own counters — exactly zero, cause by
/// cause, when conservation holds).
fn bench_figure_profile(figure: &'static str, specs: &[JobSpec]) -> Result<ProfileBench, ExitCode> {
    set_core_override(Some(SimCore::Event));
    let t0 = std::time::Instant::now();
    if let Err(e) = run_points_serial(specs) {
        eprintln!("{figure} unprofiled event-core leg failed: {e}");
        return Err(ExitCode::FAILURE);
    }
    let unprofiled_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let outcomes = profile_points(specs, &Pool::new(1)).map_err(|e| {
        eprintln!("{figure} profiled event-core leg failed: {e}");
        ExitCode::FAILURE
    })?;
    let profiled_s = t1.elapsed().as_secs_f64();

    let mut stalls = [0u64; StallCause::ALL.len()];
    // The equations with zero on both sides, to sum the points into.
    let mut sums = ProfileReport::default().conservation(&RunStats::default());
    let mut conserved = true;
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
            conserved = false;
            eprintln!("  {figure} point {i}: {}", o.summary());
        }
    }
    let signed = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    let deltas =
        sums.map(|(name, attributed, counted)| (name, signed(attributed) - signed(counted)));
    Ok(ProfileBench {
        figure,
        points: specs.len(),
        unprofiled_s,
        profiled_s,
        stalls,
        deltas,
        conserved,
    })
}

/// The nearest-rank `pct` percentile of ascending `sorted` samples:
/// the smallest sample with at least `pct`% of all samples at or below
/// it (0 when there are none).
fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    let rank = (pct * sorted.len()).div_ceil(100).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// One metric's before/after pair for `bench --compare`: prints the
/// delta and reports whether the newer value regressed past the
/// threshold (only slowdowns count — a speedup is never a regression).
fn compare_metric(label: &str, a: f64, b: f64, threshold_pct: f64) -> bool {
    if a <= 0.0 || b < 0.0 {
        println!("  {label}: not comparable ({a} -> {b})");
        return false;
    }
    let pct = (b - a) / a * 100.0;
    let regressed = pct > threshold_pct;
    println!(
        "  {label}: {a:.6} -> {b:.6}  ({pct:+.1}%{})",
        if regressed { ", REGRESSION" } else { "" }
    );
    regressed
}

/// `orderlight bench --compare A.json B.json`: diffs two bench record
/// files (schema `orderlight/bench-sweep/v2` or later — older files
/// simply lack the point-latency percentiles), printing per-figure
/// cycle/event wall-time deltas and the top-level wall-time and
/// p50/p95/p99 latency deltas. Exits non-zero if any timing in `B`
/// regresses more than `threshold_pct` percent over `A`.
fn cmd_bench_compare(a_path: &str, b_path: &str, threshold_pct: f64) -> ExitCode {
    let load = |path: &str| {
        read_document(path, "orderlight/bench-sweep/v2 or later", |tag| {
            tag.strip_prefix("orderlight/bench-sweep/v")
                .and_then(|v| v.parse::<u32>().ok())
                .is_some_and(|v| v >= 2)
        })
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "comparing {a_path} ({}) -> {b_path} ({}), threshold {threshold_pct}%",
        a.get("schema").and_then(Value::as_str).unwrap_or("?"),
        b.get("schema").and_then(Value::as_str).unwrap_or("?"),
    );

    let mut regressed = false;
    for key in ["serial_seconds", "parallel_seconds"] {
        if let (Some(av), Some(bv)) =
            (a.get(key).and_then(Value::as_f64), b.get(key).and_then(Value::as_f64))
        {
            regressed |= compare_metric(key, av, bv, threshold_pct);
        }
    }
    for pct in ["p50", "p95", "p99"] {
        let lat = |doc: &Value| {
            doc.get("point_latency_us").and_then(|l| l.get(pct)).and_then(Value::as_f64)
        };
        if let (Some(av), Some(bv)) = (lat(&a), lat(&b)) {
            regressed |= compare_metric(&format!("point_latency_us.{pct}"), av, bv, threshold_pct);
        }
    }

    let figures = |doc: &Value| -> Vec<(String, f64, f64)> {
        doc.get("figures")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| {
                Some((
                    f.get("figure")?.as_str()?.to_string(),
                    f.get("cycle_seconds")?.as_f64()?,
                    f.get("event_seconds")?.as_f64()?,
                ))
            })
            .collect()
    };
    let a_figs = figures(&a);
    for (name, b_cycle, b_event) in figures(&b) {
        let Some((_, a_cycle, a_event)) = a_figs.iter().find(|(n, ..)| *n == name) else {
            println!("  {name}: only in {b_path}, skipped");
            continue;
        };
        regressed |=
            compare_metric(&format!("{name}.cycle_seconds"), *a_cycle, b_cycle, threshold_pct);
        regressed |=
            compare_metric(&format!("{name}.event_seconds"), *a_event, b_event, threshold_pct);
    }

    if regressed {
        eprintln!("REGRESSION past {threshold_pct}% — see lines above");
        ExitCode::FAILURE
    } else {
        println!("ok: no timing regressed past {threshold_pct}%");
        ExitCode::SUCCESS
    }
}

fn cmd_bench(args: &[String], common: &CommonFlags) -> ExitCode {
    let (jobs, core) = (common.jobs, common.core);
    let mut quick = false;
    let mut profile = false;
    let mut out = "BENCH_sweep.json".to_string();
    let mut data_kb: Option<u64> = None;
    let mut compare: Option<(String, String)> = None;
    let mut threshold_pct = 20.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let ok = match flag.as_str() {
            "--quick" => {
                quick = true;
                true
            }
            "--profile" => {
                profile = true;
                true
            }
            "--compare" => match (it.next(), it.next()) {
                (Some(a), Some(b)) => {
                    compare = Some((a.clone(), b.clone()));
                    true
                }
                _ => {
                    eprintln!("--compare needs two BENCH_sweep.json paths");
                    return usage();
                }
            },
            "--threshold" => match it.next() {
                Some(v) => v.parse().map(|n: f64| threshold_pct = n).is_ok(),
                None => {
                    eprintln!("missing value for {flag}");
                    return usage();
                }
            },
            "--out" | "-o" => match it.next() {
                Some(v) => {
                    out.clone_from(v);
                    true
                }
                None => {
                    eprintln!("missing value for {flag}");
                    return usage();
                }
            },
            "--data-kb" => match it.next() {
                Some(v) => v.parse().map(|n| data_kb = Some(n)).is_ok(),
                None => {
                    eprintln!("missing value for {flag}");
                    return usage();
                }
            },
            _ => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
        };
        if !ok {
            eprintln!("invalid value for {flag}");
            return usage();
        }
    }
    if let Some((a, b)) = compare {
        return cmd_bench_compare(&a, &b, threshold_pct);
    }
    // The quick profile is the CI smoke: every figure sweep, but at a
    // reduced job size (seconds instead of minutes), still exercising
    // GPU/fence/OrderLight/unordered modes end to end.
    let data_kb = data_kb.unwrap_or_else(|| env_data_kb(if quick { 8 } else { 32 }));
    let data = data_kb * 1024;
    let figures = sweep_figures("all", data).expect("'all' is always known");
    let specs: Vec<JobSpec> = figures.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    println!(
        "benchmarking sweep execution: {} points ({}) at {data_kb} KiB/structure/channel (core: {})",
        specs.len(),
        figures.iter().map(|(n, s)| format!("{n}={}", s.len())).collect::<Vec<_>>().join(", "),
        core.as_str(),
    );

    // Untimed warm-up pass: the first sweep pays one-off costs (heap
    // growth, page faults) that would otherwise be billed entirely to
    // the serial leg and inflate the reported speedup.
    if let Err(e) = run_points_serial(&specs) {
        eprintln!("warm-up sweep failed: {e}");
        return ExitCode::FAILURE;
    }

    // The timed serial leg runs point by point (the same loop
    // `run_points_serial` performs) so each point's wall latency is
    // kept for the exact p50/p95/p99 summary.
    let t0 = std::time::Instant::now();
    let mut point_us = Vec::with_capacity(specs.len());
    let mut serial = Vec::with_capacity(specs.len());
    for spec in &specs {
        let tp = std::time::Instant::now();
        match spec.run() {
            Ok(row) => serial.push(row),
            Err(e) => {
                eprintln!("serial sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        point_us.push(u64::try_from(tp.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    let serial_s = t0.elapsed().as_secs_f64();
    println!("  serial  : {serial_s:.3} s  ({:.2} points/s)", specs.len() as f64 / serial_s);
    point_us.sort_unstable();
    let latency =
        [("p50", 50), ("p95", 95), ("p99", 99)].map(|(name, p)| (name, nearest_rank(&point_us, p)));
    println!(
        "  latency : per-point p50 {} us, p95 {} us, p99 {} us",
        latency[0].1, latency[1].1, latency[2].1
    );

    let pool = Pool::new(jobs);
    let t1 = std::time::Instant::now();
    let parallel = match run_points(&specs, &pool) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("parallel sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parallel_s = t1.elapsed().as_secs_f64();
    println!(
        "  parallel: {parallel_s:.3} s  ({:.2} points/s) at --jobs {jobs}",
        specs.len() as f64 / parallel_s
    );
    println!(
        "  speedup : {:.2}x on a host with {} available core(s)",
        serial_s / parallel_s,
        available_jobs()
    );

    let identical = serial == parallel;
    if identical {
        println!("  results : parallel run bit-identical to serial ({} points)", serial.len());
    } else {
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            if a != b {
                eprintln!(
                    "  MISMATCH at point {i} ({} {} {} bmf={}): parallel result diverges from serial",
                    a.workload, a.ts, a.mode, a.bmf
                );
            }
        }
        eprintln!("  results : PARALLEL/SERIAL MISMATCH — determinism contract violated");
    }

    // Cycle-core vs event-core: per-figure serial timings plus a
    // point-by-point cross-check (the quiescence contract, measured in
    // release mode rather than merely asserted in the test suite). The
    // extra fence-ts16 series is the fence-stall-dominated stress case
    // where the time-skip core pays off most.
    println!("core comparison (serial, per figure):");
    let mut series: Vec<(&'static str, Vec<JobSpec>)> =
        figures.iter().map(|(name, specs)| (*name, specs.clone())).collect();
    series.push(("fence-ts16", fence_heavy_points(data)));
    let mut cores_identical = true;
    let mut fig_benches = Vec::with_capacity(series.len());
    for (name, specs) in &series {
        let (bench, same) = match bench_figure_cores(name, specs) {
            Ok(x) => x,
            Err(code) => {
                set_core_override(Some(core));
                return code;
            }
        };
        cores_identical &= same;
        println!(
            "  {name}: cycle {:.3} s, event {:.3} s -> {:.2}x event speedup ({} points{})",
            bench.cycle_s,
            bench.event_s,
            bench.speedup(),
            bench.points,
            if same { "" } else { ", MISMATCH" },
        );
        fig_benches.push(bench);
    }
    set_core_override(Some(core));
    if !cores_identical {
        eprintln!("  results : CYCLE/EVENT MISMATCH — quiescence contract violated");
    }

    // `--profile`: close the bench→profile loop. Each figure re-runs
    // under the event core with the stall profiler attached; the JSON
    // records what the stalls are (per cause), that the attribution
    // conserves the SMs' own counters (deltas of zero), and what the
    // observability costs (profiled vs. unprofiled wall time).
    let mut profile_conserved = true;
    let profile_doc = if profile {
        println!("observability (event core, serial, per figure):");
        let mut entries = Vec::with_capacity(series.len());
        for (name, specs) in &series {
            let bench = match bench_figure_profile(name, specs) {
                Ok(b) => b,
                Err(code) => {
                    set_core_override(Some(core));
                    return code;
                }
            };
            profile_conserved &= bench.conserved;
            println!(
                "  {name}: unprofiled {:.3} s, profiled {:.3} s -> {:.2}x overhead ({} points{})",
                bench.unprofiled_s,
                bench.profiled_s,
                bench.overhead(),
                bench.points,
                if bench.conserved { "" } else { ", NOT CONSERVED" },
            );
            entries.push(bench);
        }
        set_core_override(Some(core));
        if !profile_conserved {
            eprintln!("  results : CONSERVATION VIOLATED — see per-point summaries above");
        }
        let overall_unprofiled: f64 = entries.iter().map(|b| b.unprofiled_s).sum();
        let overall_profiled: f64 = entries.iter().map(|b| b.profiled_s).sum();
        Value::obj([
            ("core", "event".into()),
            ("overhead", ratio(overall_profiled, overall_unprofiled).into()),
            ("conserved", profile_conserved.into()),
            ("figures", Value::Arr(entries.iter().map(ProfileBench::to_value).collect())),
        ])
    } else {
        Value::Null
    };

    // Cross-primitive ordering comparison: one checked run per backend
    // at the bench job size, recorded per backend in the JSON so the
    // speedup/violation/metadata trajectory is versioned alongside the
    // timing trajectory.
    let ordering_records = match run_ordering_comparison(WorkloadId::Add, data_kb, core) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let ordering_clean = ordering_records.iter().all(|r| r.clean);
    if !ordering_clean {
        eprintln!("  results : ORDERING COMPARISON DIRTY — a backend failed its checked run");
    }

    let points = specs.len() as f64;
    let doc = Value::obj([
        ("schema", BENCH_SCHEMA.into()),
        ("quick", quick.into()),
        ("data_kb", data_kb.into()),
        ("jobs", jobs.into()),
        ("core", core.as_str().into()),
        ("available_parallelism", available_jobs().into()),
        ("figures", Value::Arr(fig_benches.iter().map(CoreBench::to_value).collect())),
        ("points", specs.len().into()),
        ("serial_seconds", serial_s.into()),
        ("parallel_seconds", parallel_s.into()),
        ("serial_points_per_sec", ratio(points, serial_s).into()),
        ("parallel_points_per_sec", ratio(points, parallel_s).into()),
        ("point_latency_us", Value::obj(latency.map(|(name, us)| (name, us.into())))),
        ("speedup", ratio(serial_s, parallel_s).into()),
        ("identical", identical.into()),
        ("cores_identical", cores_identical.into()),
        ("profile", profile_doc),
        ("ordering", ordering_array(&ordering_records)),
    ]);
    if let Err(code) = write_json(&out, &doc) {
        return code;
    }
    println!("wrote {out}");
    if identical && cores_identical && profile_conserved && ordering_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `orderlight schema`: prints the accepted `orderlight/scenario/v1`
/// wire schema — the contract `serve` enforces and `submit` speaks.
fn cmd_schema() -> ExitCode {
    print!("{}", schema_document());
    ExitCode::SUCCESS
}

/// `orderlight serve`: the simulation daemon. Binds `--addr` (default
/// loopback on an ephemeral port), prints the bound address, then
/// serves scenario requests on `--jobs` workers until a client sends
/// `{"cmd": "shutdown"}`.
fn cmd_serve(args: &[String], common: &CommonFlags) -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut cache_max: usize = 0;
    let mut slow_ms: Option<u64> = None;
    let mut telemetry = true;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--no-telemetry" {
            telemetry = false;
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        let ok = match flag.as_str() {
            "--addr" => {
                addr.clone_from(value);
                true
            }
            "--cache-max" => value.parse().map(|v| cache_max = v).is_ok(),
            "--slow-ms" => value.parse().map(|v| slow_ms = Some(v)).is_ok(),
            _ => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
        };
        if !ok {
            eprintln!("invalid value for {flag}");
            return usage();
        }
    }
    let server = match Server::bind(&addr, common.jobs) {
        Ok(s) => s.with_cache_max(cache_max).with_slow_ms(slow_ms).with_telemetry(telemetry),
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        // Parsed by `ci.sh` and scripted clients; stdout is
        // line-buffered so the line is visible before the first accept.
        Ok(bound) => println!("listening on {bound} ({} workers)", common.jobs.max(1)),
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `orderlight submit`: the service client. Builds a scenario from the
/// shared run flags, sends it to `--addr` (or runs it in-process with
/// `--local`), prints every reply line, and with `--out` writes the
/// canonical stats JSON — byte-identical between a served reply and a
/// local run, which is what the `ci.sh` smoke gate `cmp`s.
fn cmd_submit(args: &[String], common: &CommonFlags) -> ExitCode {
    let mut spec = default_spec(common, 256);
    let mut addr: Option<String> = None;
    let mut out: Option<String> = None;
    let mut span_trace: Option<String> = None;
    let mut budget: Option<u64> = None;
    let mut local = false;
    let mut admin: Option<&str> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let ok = match flag.as_str() {
            "--local" => {
                local = true;
                true
            }
            "--shutdown" => {
                admin = Some("shutdown");
                true
            }
            "--stats" => {
                admin = Some("stats");
                true
            }
            "--metrics" => {
                admin = Some("metrics");
                true
            }
            "--metrics-text" => {
                admin = Some("metrics-text");
                true
            }
            "--flightrec" => {
                admin = Some("flightrec");
                true
            }
            _ => {
                let Some(value) = it.next() else {
                    eprintln!("missing value for {flag}");
                    return usage();
                };
                match flag.as_str() {
                    "--addr" => {
                        addr = Some(value.clone());
                        true
                    }
                    "--out" | "-o" => {
                        out = Some(value.clone());
                        true
                    }
                    "--span-trace" => {
                        span_trace = Some(value.clone());
                        true
                    }
                    "--budget" => value.parse().map(|v| budget = Some(v)).is_ok(),
                    _ => match apply_common_flag(&mut spec, flag, value) {
                        Some(ok) => ok,
                        None => {
                            eprintln!("unknown flag {flag}");
                            return usage();
                        }
                    },
                }
            }
        };
        if !ok {
            eprintln!("invalid value for {flag}");
            return usage();
        }
    }
    spec.budget = budget;

    let stats_json = if local {
        match spec.build().map_err(|e| e.to_string()).and_then(|s| {
            s.run().map_err(|e| e.to_string()).map(|stats| stats_to_value(&stats).to_json())
        }) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let Some(addr) = addr else {
            eprintln!("submit needs --addr HOST:PORT (or --local)");
            return usage();
        };
        let line = match admin {
            Some("metrics-text") => {
                Value::obj([("cmd", "metrics".into()), ("format", "text".into())]).to_json()
            }
            Some(cmd) => admin_line(cmd),
            None => spec.to_value().to_json(),
        };
        let replies = match service::request(&addr, &line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot reach {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(last) = replies.last() else {
            eprintln!("server closed the connection without a reply");
            return ExitCode::FAILURE;
        };
        // The exposition format is a document, not a JSON line: unwrap
        // it so the output is directly scrapeable.
        if admin == Some("metrics-text") {
            let text = json::parse(last)
                .ok()
                .and_then(|d| d.get("text").and_then(Value::as_str).map(ToString::to_string));
            match text {
                Some(text) => print!("{text}"),
                None => {
                    eprintln!("no text exposition in reply: {last}");
                    return ExitCode::FAILURE;
                }
            }
            return ExitCode::SUCCESS;
        }
        for reply in &replies {
            println!("{reply}");
        }
        if admin == Some("stats") {
            if let Ok(doc) = json::parse(last) {
                print_stats_summary(&doc);
            }
        }
        if admin.is_some() {
            return ExitCode::SUCCESS;
        }
        if let Some(path) = &span_trace {
            if let Err(e) = write_span_trace(path, last) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        match service::extract_stats(last) {
            Some(json) => json,
            None => {
                eprintln!("no result reply — see lines above");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(path) = out {
        if let Err(code) = write_file(&path, stats_json + "\n") {
            return code;
        }
    } else if local {
        println!("{stats_json}");
    }
    ExitCode::SUCCESS
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
    println!(
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
    let span = doc
        .get("span")
        .and_then(SpanPhases::from_value)
        .ok_or("no span in the result reply (server telemetry disabled?)")?;
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
/// surfaces and renders a live one-screen summary.
fn cmd_top(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut interval_ms: u64 = 1000;
    let mut count: u64 = 0; // 0 = until interrupted
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--once" {
            count = 1;
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        let ok = match flag.as_str() {
            "--addr" => {
                addr = Some(value.clone());
                true
            }
            "--interval-ms" => value.parse().map(|v| interval_ms = v).is_ok(),
            "--count" => value.parse().map(|v| count = v).is_ok(),
            _ => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
        };
        if !ok {
            eprintln!("invalid value for {flag}");
            return usage();
        }
    }
    let Some(addr) = addr else {
        eprintln!("top needs --addr HOST:PORT");
        return usage();
    };
    let mut screens = 0u64;
    loop {
        let fetched = fetch_admin(&addr, "stats").and_then(|stats| {
            let metrics = fetch_admin(&addr, "metrics")?;
            let flight = fetch_admin(&addr, "flightrec")?;
            Ok((stats, metrics, flight))
        });
        let (stats, metrics, flight) = match fetched {
            Ok(x) => x,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if count != 1 {
            // Repaint in place on live refresh; keep output plain for
            // a single snapshot so it stays pipeable.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&addr, &stats, &metrics, &flight));
        screens += 1;
        if count > 0 && screens >= count {
            return ExitCode::SUCCESS;
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
    let _ = writeln!(
        out,
        "cache     size {}/{max}  hits {}  misses {}  ratio {:.2}  insertions {}  evictions {}",
        m("cache", "size"),
        m("cache", "hits"),
        m("cache", "misses"),
        s("hit_ratio"),
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
    let slo = stats.get("slo");
    let p = |k: &str| slo.and_then(|s| s.get(k)).and_then(Value::as_f64).unwrap_or(0.0);
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
    // The shared flags (--jobs/--core/--seed/--ordering) are global:
    // strip them before subcommand dispatch and install the core choice
    // process-wide (explicit flag beats ORDERLIGHT_CORE).
    let (args, common) = match take_common_flags(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    common.install_core();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], &common),
        Some("check") => cmd_check(&args[1..], &common),
        Some("trace") => cmd_trace(&args[1..], &common),
        Some("profile") => cmd_profile(&args[1..], &common),
        Some("profile-verify") => cmd_profile_verify(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..], common.jobs),
        Some("figure") => cmd_figure(&args[1..], common.jobs),
        Some("compare-ordering") => cmd_compare_ordering(&args[1..], common.core),
        Some("bench") => cmd_bench(&args[1..], &common),
        Some("serve") => cmd_serve(&args[1..], &common),
        Some("submit") => cmd_submit(&args[1..], &common),
        Some("top") => cmd_top(&args[1..]),
        Some("schema") => cmd_schema(),
        Some("list") => cmd_list(),
        Some("taxonomy") => cmd_taxonomy(),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_share() {
        let sorted = [15, 20, 35, 40, 50];
        let at = |pct| nearest_rank(&sorted, pct);
        assert_eq!(
            [at(0), at(5), at(30), at(40), at(50), at(95), at(100)],
            [15, 15, 20, 20, 35, 50, 50]
        );
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!([50, 95, 99].map(|p| nearest_rank(&hundred, p)), [50, 95, 99]);
        assert_eq!(nearest_rank(&[], 50), 0);
    }
}
