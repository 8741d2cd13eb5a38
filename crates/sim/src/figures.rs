//! The paper's evaluation as text reports: one printer per table,
//! figure and ablation, looked up by id in [`FIGURES`] and printed by
//! `orderlight figure <id>`. Each printer runs its experiment from
//! [`crate::experiments`] through the caller's [`Runner`] and returns
//! the report text; printers that share a runner share the runs of
//! their common design points.

use crate::config::SystemConfig;
use crate::experiments::{self, Runner, SweepPoint};
use crate::report::{bar_chart, f3, format_table, speedup};
use crate::stats::RunStats;
use crate::system::SimError;
use orderlight_hbm::TimingParams;
use orderlight_pim::TsSize;
use orderlight_workloads::WorkloadId;
use std::fmt::Write;

/// A report printer: bytes per data structure per channel and the
/// sweep runner in, report text out.
pub type Printer = fn(u64, &mut Runner) -> Result<String, SimError>;

/// Every report, by id, in paper order.
pub const FIGURES: [(&str, Printer); 16] = [
    ("table1", table1),
    ("table2", table2),
    ("fig05", fig05),
    ("fig07", fig07),
    ("fig10a", fig10a),
    ("fig10b", fig10b),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("ablation_arbitration", ablation_arbitration),
    ("ablation_cpu_host", ablation_cpu_host),
    ("ablation_fence_scope", ablation_fence_scope),
    ("ablation_page_policy", ablation_page_policy),
    ("ablation_refresh", ablation_refresh),
    ("ablation_scheduler", ablation_scheduler),
    ("ablation_seqnum", ablation_seqnum),
];

/// Appends one formatted line to a report.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// One `(row, TS)` cell of a fence-vs-OrderLight sweep.
struct Cell<'a> {
    row: String,
    ts: String,
    fence: Option<&'a RunStats>,
    ol: Option<&'a RunStats>,
}

impl Cell<'_> {
    /// `f` of the fence run, or the default when the cell has none.
    fn fence<T: Default>(&self, f: impl Fn(&RunStats) -> T) -> T {
        self.fence.map_or_else(T::default, f)
    }

    /// `f` of the OrderLight run, or the default when the cell has none.
    fn ol<T: Default>(&self, f: impl Fn(&RunStats) -> T) -> T {
        self.ol.map_or_else(T::default, f)
    }
}

/// Pivots sweep points into fence/OrderLight cells in figure order:
/// each of `rows` (matched by `row_of`), then each TS size. Pairs the
/// sweep did not run are skipped.
fn pivot<'a>(
    points: &'a [SweepPoint],
    rows: &[String],
    row_of: impl Fn(&SweepPoint) -> String,
) -> Vec<Cell<'a>> {
    let mut cells = Vec::new();
    for row in rows {
        for ts in TsSize::ALL.map(|ts| ts.to_string()) {
            let find = |mode: &str| {
                points
                    .iter()
                    .find(|p| p.mode == mode && p.ts == ts && row_of(p) == *row)
                    .map(|p| &p.stats)
            };
            let (fence, ol) = (find("pim-fence"), find("pim-orderlight"));
            if fence.is_some() || ol.is_some() {
                cells.push(Cell { row: row.clone(), ts, fence, ol });
            }
        }
    }
    cells
}

/// Workload names in the order the paper lists them.
fn names(ids: &[WorkloadId]) -> Vec<String> {
    ids.iter().map(ToString::to_string).collect()
}

/// The smallest and the largest of `xs`.
fn min_max(xs: &[f64]) -> (f64, f64) {
    (xs.iter().copied().fold(f64::MAX, f64::min), xs.iter().copied().fold(0.0f64, f64::max))
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn verdict(correct: bool) -> &'static str {
    if correct {
        "correct"
    } else {
        "WRONG"
    }
}

/// Table 1: the simulator configuration in force.
fn table1(_: u64, _: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(out, "Table 1 — simulator configuration\n");
    let rows: Vec<Vec<String>> =
        experiments::table1().into_iter().map(|(k, v)| vec![k, v]).collect();
    outln!(out, "{}", format_table(&["parameter", "value"], &rows));
    Ok(out)
}

/// Table 2: the workload suite, with the structural compute/memory
/// counts of the kernel specifications alongside the paper's ratios.
fn table2(_: u64, _: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(out, "Table 2 — workload summary\n");
    let rows: Vec<Vec<String>> = WorkloadId::ALL
        .iter()
        .map(|id| {
            let m = id.meta();
            let (c, mem) = id.spec().ops_per_stripe();
            vec![
                m.name.to_string(),
                m.description.to_string(),
                m.ratio.to_string(),
                format!("{c}:{mem}"),
                if m.multi_structure { "Yes" } else { "No" }.to_string(),
                format!("{:?}", m.suite),
            ]
        })
        .collect();
    let headers = ["kernel", "description", "paper C:M", "spec C:M", ">1 structure", "suite"];
    outln!(out, "{}", format_table(&headers, &rows));
    Ok(out)
}

/// Figure 5: fence overhead for the vector-add kernel — execution time
/// for no ordering (functionally incorrect) and fences at every TS
/// size, with the waiting cycles per fence.
fn fig05(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(
        out,
        "Figure 5 — fence overhead, vector_add (Add), BMF=16, {} KiB/structure/channel\n",
        data / 1024
    );
    let rows = runner.points(&experiments::fig05_points(data))?;
    let label = |p: &SweepPoint, unordered: &str| {
        if p.mode == "pim-none" {
            unordered.to_string()
        } else {
            format!("Fence {}", p.ts)
        }
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|p| {
            vec![
                label(p, "No Fence"),
                f3(p.stats.exec_time_ms),
                format!("{:.0}", p.stats.wait_cycles_per_fence()),
                if p.stats.is_correct() { "yes" } else { "FUNCTIONALLY INCORRECT" }.to_string(),
            ]
        })
        .collect();
    let headers = ["config", "exec time (ms)", "wait cycles / fence", "correct"];
    outln!(out, "{}", format_table(&headers, &table));
    let bars: Vec<(String, f64)> =
        rows.iter().map(|p| (label(p, "No Fence (WRONG)"), p.stats.exec_time_ms)).collect();
    outln!(out, "\nexecution time (ms):\n{}", bar_chart(&bars, 50));

    let no_fence = rows[0].stats.exec_time_ms;
    let fenced: Vec<f64> = rows[1..].iter().map(|p| p.stats.exec_time_ms).collect();
    let (best, worst) = min_max(&fenced);
    outln!(
        out,
        "\nfence slowdown vs unordered issue: {:.1}x (largest TS) to {:.1}x (smallest TS)",
        best / no_fence,
        worst / no_fence
    );
    outln!(out, "(paper reports 4.5x to 25x)");
    Ok(out)
}

/// Figure 7: one vector-add tile's memory-controller issue trace under
/// a fence (the core stalls between phases) and under OrderLight (the
/// tile streams and the packets enforce the phase boundaries).
fn fig07(_: u64, _: &mut Runner) -> Result<String, SimError> {
    let f = experiments::fig07();
    let mut out = String::new();
    let n = experiments::FIG07_STRIPES;
    outln!(out, "One vector_add tile (N = {n} stripes), memory-controller issue trace\n");
    outln!(out, "(a) fence: the core sends one phase, then STALLS for the round trip");
    outln!(out, "    (probe down the pipe + acknowledgement back, ~440+ core cycles)\n");
    for e in &f.fence_trace {
        if let Some(what) = f.describe(e) {
            outln!(out, "    cycle {:>4}: {what}", e.cycle());
        }
    }
    outln!(out, "    core idle between phases (memory cycles): {:?}\n", f.fence_drains);
    outln!(out, "(b) OrderLight: the core streams the whole tile, packets between phases;");
    outln!(out, "    the controller enforces each boundary locally — the core never waits\n");
    for e in &f.orderlight_trace {
        if let Some(what) = f.describe(e) {
            outln!(out, "    cycle {:>4}: {what}", e.cycle());
        }
    }
    outln!(out, "\n    total: fence tile spanned the three stalls above; the OrderLight tile");
    outln!(
        out,
        "    finished in {} memory cycles with zero core wait (paper Figure 7).",
        f.orderlight_cycles
    );
    Ok(out)
}

/// Figure 10a: PIM command bandwidth (GC/s) and PIM data bandwidth
/// (GB/s) for the stream benchmark, fence vs OrderLight, across TS
/// sizes.
fn fig10a(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(
        out,
        "Figure 10a — stream benchmark: PIM command & data bandwidth, BMF=16, {} KiB/structure/channel\n",
        data / 1024
    );
    let rows = runner.points(&experiments::fig10_points(data))?;
    let mut table = Vec::new();
    let mut ratios = Vec::new();
    for c in pivot(&rows, &names(&WorkloadId::STREAMS), |p| p.workload.clone()) {
        let (f_cmd, o_cmd) =
            (c.fence(|s| s.command_bandwidth_gcs), c.ol(|s| s.command_bandwidth_gcs));
        if f_cmd > 0.0 {
            ratios.push(o_cmd / f_cmd);
        }
        table.push(vec![
            c.row.clone(),
            c.ts.clone(),
            f3(f_cmd),
            f3(o_cmd),
            format!("{:.0}", c.fence(|s| s.data_bandwidth_gbs)),
            format!("{:.0}", c.ol(|s| s.data_bandwidth_gbs)),
        ]);
    }
    let headers =
        ["kernel", "TS", "fence cmd GC/s", "OL cmd GC/s", "fence data GB/s", "OL data GB/s"];
    outln!(out, "{}", format_table(&headers, &table));
    outln!(
        out,
        "\nmean OrderLight/fence command-bandwidth improvement: {:.1}x (paper: ~2.6x for Add, similar across kernels)",
        mean(&ratios)
    );
    outln!(
        out,
        "peak external data bandwidth of the module: {:.0} GB/s (paper quotes 405 GB/s achievable)",
        SystemConfig::default().peak_host_bandwidth_gbs()
    );
    Ok(out)
}

/// Figure 10b: execution time and core stall cycles for the stream
/// benchmark — GPU baseline vs fence vs OrderLight.
fn fig10b(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(
        out,
        "Figure 10b — stream benchmark: execution time and core stall cycles, BMF=16, {} KiB/structure/channel\n",
        data / 1024
    );
    let rows = runner.points(&experiments::fig10_points(data))?;
    let gpu_ms = |workload: &str| {
        rows.iter()
            .find(|p| p.mode == "gpu" && p.workload == workload)
            .map_or(0.0, |p| p.stats.exec_time_ms)
    };
    let mut table = Vec::new();
    let mut ol_vs_gpu = Vec::new();
    for c in pivot(&rows, &names(&WorkloadId::STREAMS), |p| p.workload.clone()) {
        let g = gpu_ms(&c.row);
        let (f_ms, o_ms) = (c.fence(|s| s.exec_time_ms), c.ol(|s| s.exec_time_ms));
        ol_vs_gpu.push(g / o_ms);
        table.push(vec![
            c.row.clone(),
            c.ts.clone(),
            f3(g),
            f3(f_ms),
            f3(o_ms),
            c.fence(RunStats::stall_cycles).to_string(),
            c.ol(RunStats::stall_cycles).to_string(),
            speedup(g, o_ms),
            speedup(f_ms, o_ms),
        ]);
    }
    let headers = [
        "kernel",
        "TS",
        "GPU ms",
        "fence ms",
        "OL ms",
        "fence stalls",
        "OL stalls",
        "OL vs GPU",
        "OL vs fence",
    ];
    outln!(out, "{}", format_table(&headers, &table));
    outln!(
        out,
        "\nmean OrderLight speedup over the GPU baseline: {:.1}x (paper: 3.5x to 7.4x on average across TS sizes)",
        mean(&ol_vs_gpu)
    );
    Ok(out)
}

/// Figure 11: the DRAM timing window for streaming 8 column writes
/// through one row — analytically from the Table 1 parameters and by
/// micro-simulating the bank state machine.
fn fig11(_: u64, _: &mut Runner) -> Result<String, SimError> {
    let t = TimingParams::hbm_table1();
    let f = experiments::fig11();
    let mut out = String::new();
    outln!(out, "Figure 11 — DRAM timing for one 8-write row window (Table 1 timing)\n");
    outln!(out, "  open row (tRCDW)            : {:>3} cycles", t.rcd_wr);
    outln!(out, "  7 x column-write gaps (tCCD): {:>3} cycles", 7 * t.ccdl);
    outln!(out, "  write recovery (tWP)        : {:>3} cycles", t.wtp);
    outln!(out, "  precharge (tRP)             : {:>3} cycles", t.rp);
    outln!(out, "  ---------------------------------------");
    outln!(out, "  analytic window             : {:>3} cycles", f.analytic_window);
    outln!(out, "  micro-simulated window      : {:>3} cycles", f.simulated_window);
    assert_eq!(f.analytic_window, f.simulated_window, "model must match analysis");
    outln!(
        out,
        "\n  peak command bandwidth: {}/{} x 850 MHz x 16 channels = {:.2} GC/s",
        f.writes_per_window,
        f.analytic_window,
        f.peak_command_gcs
    );
    outln!(out, "  (paper quotes ~2.3 GC/s peak; OrderLight reaches ~2.1 GC/s in Figure 10a)");
    Ok(out)
}

/// Figure 12: execution-time improvement of OrderLight over fence for
/// the application kernels, plus the ordering primitives per PIM
/// instruction.
fn fig12(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(
        out,
        "Figure 12 — application kernels: fence vs OrderLight, BMF=16, {} KiB/structure/channel\n",
        data / 1024
    );
    let rows = runner.points(&experiments::fig12_points(data))?;
    let cells = pivot(&rows, &names(&WorkloadId::APPS), |p| p.workload.clone());
    let mut table = Vec::new();
    let mut improvements = Vec::new();
    for c in &cells {
        let (f_ms, o_ms) = (c.fence(|s| s.exec_time_ms), c.ol(|s| s.exec_time_ms));
        if o_ms > 0.0 {
            improvements.push(f_ms / o_ms);
        }
        table.push(vec![
            c.row.clone(),
            c.ts.clone(),
            f3(f_ms),
            f3(o_ms),
            speedup(f_ms, o_ms),
            format!("{:.3}", c.ol(|s| s.primitives_per_pim_instr)),
        ]);
    }
    let headers = ["kernel", "TS", "fence ms", "OL ms", "OL vs fence", "primitives / PIM instr"];
    outln!(out, "{}", format_table(&headers, &table));
    // The paper's headline bars: OL-vs-fence improvement per kernel at
    // the 1/8 RB design point.
    let eighth = TsSize::Eighth.to_string();
    let bars: Vec<(String, f64)> = cells
        .iter()
        .filter(|c| c.ts == eighth)
        .filter_map(|c| Some((c.row.clone(), c.fence?.exec_time_ms / c.ol?.exec_time_ms)))
        .collect();
    outln!(out, "\nOrderLight improvement over fence at 1/8 RB (x):\n{}", bar_chart(&bars, 40));

    let (lo, hi) = min_max(&improvements);
    outln!(
        out,
        "\nOrderLight improvement over fence: {lo:.1}x to {hi:.1}x (mean {:.1}x); paper reports 5.5x to 8.5x",
        mean(&improvements)
    );
    outln!(out, "note the primitives/instruction column: it halves per TS doubling for the");
    outln!(out, "elementwise kernels but shrinks much more slowly for FC/KMeans and not at");
    outln!(out, "all for Gen_Fil (the paper's rate-of-decrease observation).");
    Ok(out)
}

/// Figure 13: fence vs OrderLight across bandwidth multiplication
/// factors (4x/8x/16x) for the Add kernel.
fn fig13(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(out, "Figure 13 — BMF sweep, Add kernel, {} KiB/structure/channel\n", data / 1024);
    let rows = runner.points(&experiments::fig13_points(data))?;
    let bmfs = ["4x", "8x", "16x"].map(String::from);
    let mut table = Vec::new();
    let mut ratios = Vec::new();
    for c in pivot(&rows, &bmfs, |p| format!("{}x", p.bmf)) {
        let (f_ms, o_ms) = (c.fence(|s| s.exec_time_ms), c.ol(|s| s.exec_time_ms));
        if o_ms > 0.0 {
            ratios.push(f_ms / o_ms);
        }
        table.push(vec![c.row.clone(), c.ts.clone(), f3(f_ms), f3(o_ms), speedup(f_ms, o_ms)]);
    }
    outln!(out, "{}", format_table(&["BMF", "TS", "fence ms", "OL ms", "OL vs fence"], &table));
    let (lo, hi) = min_max(&ratios);
    outln!(
        out,
        "\nOrderLight vs fence across BMF: {lo:.1}x to {hi:.1}x (paper: 1.9x to 3.1x; the gap"
    );
    outln!(out, "widens at lower BMF, where more commands are needed for the same job).");
    Ok(out)
}

/// Arbitration granularity (paper Sections 3.2/3.5): under fine-grained
/// arbitration host requests interleave with PIM commands; under
/// coarse-grained arbitration the host is locked out of memory for the
/// whole PIM computation.
fn ablation_arbitration(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(out, "Arbitration-granularity ablation, {} KiB/structure/channel\n", data / 1024);
    let a = experiments::ablation_arbitration(data, runner)?;
    outln!(
        out,
        "  fine-grained arbitration : mean host read service latency = {:.0} memory cycles",
        a.fga_mean_host_latency
    );
    outln!(
        out,
        "  coarse-grained arbitration: host blocked for the whole PIM kernel = {} core cycles",
        a.cga_host_wait_cycles
    );
    let factor = a.cga_host_wait_cycles as f64 / a.fga_mean_host_latency.max(1.0);
    outln!(
        out,
        "\n  a host access issued at PIM-kernel launch waits ~{factor:.0}x longer under CGA"
    );
    outln!(out, "  (CGO/CGA designs render system memory inaccessible to the host during PIM");
    outln!(out, "  computation — paper Section 3.2, Figure 2a)");
    Ok(out)
}

/// The CPU-host study (paper Conclusion): OrderLight on an out-of-order
/// CPU host, where a fence still costs a core-to-memory round trip of
/// about 100 cycles.
fn ablation_cpu_host(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(out, "OoO-CPU host, Add kernel, TS=1/8 RB, {} KiB/structure/channel\n", data / 1024);
    let rows = experiments::ablation_cpu_host(data, TsSize::Eighth, runner)?;
    for r in &rows {
        outln!(
            out,
            "  {:<16}: {:>8.4} ms | {:>4.0} wait cycles/fence | {}",
            r.label,
            r.exec_time_ms,
            r.wait_per_fence,
            verdict(r.correct)
        );
    }
    let (fence, ol) = (rows[0].exec_time_ms, rows[1].exec_time_ms);
    outln!(out, "\n  OrderLight speedup on the CPU host: {:.1}x", fence / ol);
    outln!(out, "  The gap is smaller than on the GPU host (shorter uncore round trip),");
    outln!(out, "  but the fence still pays ~100+ cycles per phase boundary — the paper's");
    outln!(out, "  conclusion that the primitive transfers to OoO hosts.");
    Ok(out)
}

/// Fence scope (paper Section 4.3): a fence acknowledged at the L2 is
/// much cheaper than one that waits for issue to DRAM, but it gives no
/// ordering guarantee at the memory controller.
fn ablation_fence_scope(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(out, "Fence-scope ablation, Add kernel, {} KiB/structure/channel\n", data / 1024);
    for ts in TsSize::ALL {
        let a = experiments::ablation_fence_scope(data, ts, runner)?;
        outln!(
            out,
            "  TS {:>7}: issue-to-DRAM fence {:>7.4} ms ({:>4.0} cyc/fence, {}) | L2-ack fence {:>7.4} ms ({:>4.0} cyc/fence, {})",
            ts.to_string(),
            a.dram_issue_ms,
            a.dram_issue_wait,
            verdict(a.dram_issue_correct),
            a.l2_ack_ms,
            a.l2_ack_wait,
            if a.l2_ack_correct {
                "correct *by luck*".to_string()
            } else {
                format!("WRONG: {} stripes", a.l2_ack_mismatches)
            },
        );
    }
    outln!(out, "\nThe L2-scope fence is cheaper because the acknowledgement returns from");
    outln!(out, "the global serialization point — but nothing then stops the FR-FCFS");
    outln!(out, "scheduler from reordering pre-fence stores against post-fence requests");
    outln!(out, "of the same data. Whether it corrupts is a race; the guarantee is gone.");
    outln!(out, "This is the paper's Section 4.3 argument for memory-centric ordering.");
    Ok(out)
}

/// Row-buffer page policy: open-page versus closed-page, on a streaming
/// and an irregular kernel.
fn ablation_page_policy(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(out, "Page-policy ablation, OrderLight, {} KiB/structure/channel\n", data / 1024);
    let rows = experiments::ablation_page_policy(data, runner)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.label.clone(), f3(r.exec_time_ms), r.activates.to_string()])
        .collect();
    outln!(out, "{}", format_table(&["workload / policy", "exec ms", "activations"], &table));
    outln!(out, "\nA negative result worth recording: for *ordered PIM streams* the policy");
    outln!(out, "barely matters — the phase barriers keep the bank queue primed, so the");
    outln!(out, "next transaction (and its PRE, if it conflicts) is always already visible");
    outln!(out, "and eager closing buys nothing. Page policy is a host-traffic knob; the");
    outln!(out, "PIM command schedule is pinned by the ordering primitive.");
    Ok(out)
}

/// DRAM refresh, which the paper's methodology ignores: the Add kernel
/// under OrderLight with all-bank refresh off versus HBM2-like
/// tREFI = 3.9 us / tRFC = 350 ns.
fn ablation_refresh(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(
        out,
        "DRAM refresh ablation, Add kernel, OrderLight, {} KiB/structure/channel\n",
        data / 1024
    );
    let rows = experiments::ablation_refresh(data, runner)?;
    for r in &rows {
        outln!(
            out,
            "  {:<20}: {:>8.4} ms | {:>6.3} GC/s | {}",
            r.label,
            r.exec_time_ms,
            r.command_gcs,
            verdict(r.correct)
        );
    }
    let (off, on) = (rows[0].exec_time_ms, rows[1].exec_time_ms);
    outln!(
        out,
        "\n  refresh costs {:.1}% execution time (tRFC/tREFI bounds it at ~9%);",
        (on / off - 1.0) * 100.0
    );
    outln!(out, "  results remain bit-correct — refresh steals cycles, not ordering.");
    Ok(out)
}

/// Memory-controller scheduler knobs (FR-FCFS scan depth, per-bank
/// command-queue capacity) swept under OrderLight on the Add kernel.
fn ablation_scheduler(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(
        out,
        "Controller scheduler knobs, Add kernel, OrderLight, {} KiB/structure/channel\n",
        data / 1024
    );
    let rows = experiments::ablation_scheduler(data, runner)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                f3(r.pim_command_gcs),
                f3(r.host_exec_ms),
                r.host_activates.to_string(),
            ]
        })
        .collect();
    let headers = ["knob", "PIM OL cmd GC/s", "host exec ms", "host row activations"];
    outln!(out, "{}", format_table(&headers, &table));
    outln!(out, "\nThe ordered PIM stream is knob-insensitive — OrderLight barriers already");
    outln!(out, "pin its schedule. The host stream needs the FR-FCFS scan window for bank");
    outln!(out, "parallelism and row locality; the defaults (scan 16, bank queue 4) sit on");
    outln!(out, "the plateau.");
    Ok(out)
}

/// Related work (paper Section 8.1): OrderLight versus the
/// sequence-number approach of Kim et al., whose credit round trips
/// throttle command bandwidth when the memory-side buffer is small.
fn ablation_seqnum(data: u64, runner: &mut Runner) -> Result<String, SimError> {
    let mut out = String::new();
    outln!(
        out,
        "Sequence-number (Kim et al.) vs OrderLight, Add kernel, TS=1/8 RB, {} KiB/structure/channel\n",
        data / 1024
    );
    let rows = experiments::ablation_seqnum(data, TsSize::Eighth, runner)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                f3(r.exec_time_ms),
                f3(r.command_gcs),
                r.credit_wait_cycles.to_string(),
                if r.correct { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let headers = ["config", "exec ms", "cmd GC/s", "credit-wait cycles", "correct"];
    outln!(out, "{}", format_table(&headers, &table));
    outln!(out, "\nSmall controller buffers make the core wait for credit round trips");
    outln!(out, "(the latency cost Section 8.1 predicts); matching OrderLight requires");
    outln!(out, "a large reorder buffer at the memory — expensive in commodity DRAM —");
    outln!(out, "while OrderLight gets there with a 42-bit in-band packet.");
    Ok(out)
}
