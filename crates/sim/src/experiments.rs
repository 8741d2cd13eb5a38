//! Canned experiment runners — one per table/figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index).
//!
//! Every sweep is expressed in two stages: a `*_points` function
//! **enumerates** the design points as [`JobSpec`]s (the ablations
//! build [`Scenario`]s), and a [`Runner`] executes them. The runner
//! runs each distinct scenario once, keyed by
//! [`Scenario::canonical_hash`], through a [`Pool`] of scoped threads.
//! Results are returned in enumeration order and are bit-identical to
//! the serial loop ([`run_points_serial`]) at any worker count: a run's
//! RNG streams are seeded from the point spec (workload/channel/slice),
//! never from worker identity, and each run owns its whole `System`, so
//! nothing observable leaks between concurrent runs.
//! `tests/parallel_equivalence.rs` enforces the contract.

use crate::config::{ExecMode, ExperimentConfig, SystemConfig};
use crate::pool::Pool;
use crate::scenario::{Scenario, ScenarioBuilder};
use crate::stats::RunStats;
use crate::system::SimError;
use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::message::{Marker, MarkerCopy, MemReq, ReqMeta};
use orderlight::packet::OrderLightPacket;
use orderlight::types::{BankId, ChannelId, GlobalWarpId, MemGroupId, TsSlot};
use orderlight::{AluOp, PimInstruction, PimOp};
use orderlight_hbm::{Channel, ColKind, DramCommand, TimingParams};
use orderlight_memctrl::{McConfig, MemoryController};
use orderlight_pim::{PimUnit, TsSize};
use orderlight_trace::{DramCmdKind, RingSink, TraceEvent};
use orderlight_workloads::{OrderingMode, WorkloadId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One point of a design-space sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Workload run.
    pub workload: String,
    /// TS size label ("1/8 RB", …; "-" for GPU runs).
    pub ts: String,
    /// Execution mode label ("gpu", "pim-fence", "pim-orderlight", …).
    pub mode: String,
    /// Controller ordering-backend label ("orderlight", "fence",
    /// "seqnum", "louvre", "bulk") — lets figures be re-cut per
    /// backend even where `mode` aliases (GPU and unordered PIM both
    /// host the fence backend).
    pub ordering: String,
    /// Bandwidth multiplication factor.
    pub bmf: u32,
    /// Measured statistics.
    pub stats: RunStats,
}

/// Applies the paper's SM-allocation policy (Section 6): with fences the
/// core idles, so eight warps share an SM (2 SMs drive 16 channels);
/// OrderLight's issue throughput needs one SM per two warps (8 SMs).
pub fn apply_sm_policy(exp: &mut ExperimentConfig) {
    match exp.mode {
        ExecMode::Pim(OrderingMode::Fence) => {
            exp.system.sms_used = 2;
            exp.system.warps_per_sm = 8;
        }
        ExecMode::Pim(_) => {
            exp.system.sms_used = 8;
            exp.system.warps_per_sm = 2;
        }
        // The conventional baseline uses the whole GPU; eight warps per
        // channel give it the memory-level parallelism a real streaming
        // grid would have.
        ExecMode::Gpu => {
            exp.system.sms_used = 16;
            exp.system.warps_per_sm = 8;
        }
    }
}

/// The full specification of one independent sweep point — everything a
/// worker thread needs to reproduce the run. Seeding is derived from
/// these fields alone (the workload generators hash workload, channel
/// and slice identity), so the same spec yields the same
/// [`SweepPoint`] on any thread of any pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload to run.
    pub workload: WorkloadId,
    /// PIM temporary-storage size (ignored in GPU mode).
    pub ts: TsSize,
    /// Execution mode.
    pub mode: ExecMode,
    /// Bandwidth multiplication factor.
    pub bmf: u32,
    /// Bytes per data structure per channel.
    pub data_bytes_per_channel: u64,
}

impl JobSpec {
    /// A spec at the default BMF 16.
    #[must_use]
    pub fn new(workload: WorkloadId, ts: TsSize, mode: ExecMode, data: u64) -> JobSpec {
        JobSpec { workload, ts, mode, bmf: 16, data_bytes_per_channel: data }
    }

    /// The [`ScenarioBuilder`] this point's run is assembled from —
    /// shared by [`JobSpec::run`] and harnesses (like the stall
    /// profiler) that attach their own sinks before running.
    #[must_use]
    pub fn builder(&self) -> ScenarioBuilder {
        ScenarioBuilder::new(self.workload, self.mode)
            .ts_size(self.ts)
            .bmf(self.bmf)
            .data_bytes_per_channel(self.data_bytes_per_channel)
    }

    /// Builds, runs and verifies this point's experiment.
    ///
    /// # Errors
    /// Propagates [`SimError`] from the run.
    pub fn run(&self) -> Result<SweepPoint, SimError> {
        Ok(self.point(self.builder().build()?.run()?))
    }

    /// This point's labels around `stats`.
    fn point(&self, stats: RunStats) -> SweepPoint {
        SweepPoint {
            workload: self.workload.to_string(),
            ts: match self.mode {
                ExecMode::Gpu => "-".to_string(),
                ExecMode::Pim(_) => self.ts.to_string(),
            },
            mode: self.mode.to_string(),
            ordering: self.mode.ordering_backend().to_string(),
            bmf: self.bmf,
            stats,
        }
    }
}

/// The one sweep runner: a memo of finished runs in front of a [`Pool`].
///
/// Each distinct scenario runs at most once per `Runner`, however many
/// sweeps ask for it: the memo is keyed by [`Scenario::canonical_hash`],
/// the key the service cache already trusts, since a run's
/// [`RunStats`] are a pure function of exactly the hashed fields. Figures
/// that share design points (Fig. 5's fence bars, Fig. 10's Add column
/// and Fig. 13's BMF-16 row; Figs. 10a and 10b) therefore share runs
/// when they share a runner.
///
/// Every scenario runs on [`Scenario::core`]: the event core, which is
/// what every command and the service run. The hash leaves out the
/// execution core, so the memo does too: a caller that pins the dense
/// reference core for a comparison must not carry a runner from one
/// core's scenarios to the other's (`orderlight bench` runs its
/// per-core legs serially through [`Scenario::run`] and gives each
/// series' pooled leg a fresh runner).
/// Likewise a trace sink on a scenario whose result is already memoised
/// observes nothing.
#[derive(Debug)]
pub struct Runner {
    pool: Pool,
    memo: HashMap<u64, RunStats>,
}

impl Runner {
    /// An empty runner that executes new scenarios through `pool`.
    #[must_use]
    pub fn new(pool: Pool) -> Runner {
        Runner { pool, memo: HashMap::new() }
    }

    /// How many distinct scenarios have run to completion.
    #[must_use]
    pub fn memoised(&self) -> usize {
        self.memo.len()
    }

    /// Returns one result per scenario, in input order. Every scenario
    /// not yet memoised runs once, in one [`Pool::run`] batch; only
    /// successes are memoised, so a failed scenario runs again when it
    /// is asked for again.
    ///
    /// # Errors
    /// The first failure in input order (never completion order), so
    /// the error path is deterministic at any worker count too.
    pub fn run(&mut self, scenarios: &[Scenario]) -> Result<Vec<RunStats>, SimError> {
        let hashes: Vec<u64> = scenarios.iter().map(Scenario::canonical_hash).collect();
        let mut queued = HashSet::new();
        let fresh: Vec<usize> = (0..scenarios.len())
            .filter(|&i| !self.memo.contains_key(&hashes[i]) && queued.insert(hashes[i]))
            .collect();
        let outcomes = self.pool.run(
            fresh
                .iter()
                .map(|&i| {
                    let scenario = &scenarios[i];
                    move || scenario.run()
                })
                .collect::<Vec<_>>(),
        );
        let mut failed = HashMap::new();
        for (&i, outcome) in fresh.iter().zip(outcomes) {
            match outcome {
                Ok(stats) => {
                    self.memo.insert(hashes[i], stats);
                }
                Err(e) => {
                    failed.insert(hashes[i], e);
                }
            }
        }
        hashes.iter().map(|h| self.memo.get(h).cloned().ok_or_else(|| failed[h].clone())).collect()
    }

    /// [`Runner::run`] over sweep points, labelled as [`JobSpec::run`]
    /// labels them.
    ///
    /// # Errors
    /// The first spec in input order that fails validation, before
    /// anything runs; else the first failing run in input order.
    pub fn points(&mut self, specs: &[JobSpec]) -> Result<Vec<SweepPoint>, SimError> {
        let scenarios =
            specs.iter().map(|spec| spec.builder().build()).collect::<Result<Vec<_>, _>>()?;
        let stats = self.run(&scenarios)?;
        Ok(specs.iter().zip(stats).map(|(spec, stats)| spec.point(stats)).collect())
    }
}

/// The reference serial loop: no pool and no memo. [`Runner`] at any
/// worker count is asserted bit-identical to it by
/// `tests/parallel_equivalence.rs`.
///
/// # Errors
/// Propagates the first [`SimError`].
pub fn run_points_serial(specs: &[JobSpec]) -> Result<Vec<SweepPoint>, SimError> {
    specs.iter().map(JobSpec::run).collect()
}

/// Builds each experiment as a [`Scenario`], with the paper's SM policy.
fn scenarios(exps: impl IntoIterator<Item = ExperimentConfig>) -> Result<Vec<Scenario>, SimError> {
    exps.into_iter().map(|exp| Ok(ScenarioBuilder::from_experiment(exp).build()?)).collect()
}

/// Enumerates Figure 5's design points: fence overhead for the
/// vector-add kernel — {no ordering (functionally incorrect), fence at
/// TS = 1/16..1/2 RB}.
#[must_use]
pub fn fig05_points(data_bytes_per_channel: u64) -> Vec<JobSpec> {
    let mut points = vec![JobSpec::new(
        WorkloadId::Add,
        TsSize::Eighth,
        ExecMode::Pim(OrderingMode::None),
        data_bytes_per_channel,
    )];
    for ts in TsSize::ALL {
        points.push(JobSpec::new(
            WorkloadId::Add,
            ts,
            ExecMode::Pim(OrderingMode::Fence),
            data_bytes_per_channel,
        ));
    }
    points
}

/// Enumerates the fence-heavy stress series: every streaming kernel
/// under the traditional fence at TS = 1/16 RB — the finest tile size,
/// where a fence round trip punctuates every 128 B tile and cores
/// spend most cycles stalled (the paper's worst case, Figure 5's
/// leftmost fence bar). This is the event core's best case, so
/// `orderlight bench` runs it as a series of its own, whose
/// cycle-vs-event speedup `ci.sh` gates.
#[must_use]
pub fn fence_heavy_points(data_bytes_per_channel: u64) -> Vec<JobSpec> {
    [WorkloadId::Scale, WorkloadId::Copy, WorkloadId::Daxpy, WorkloadId::Triad, WorkloadId::Add]
        .into_iter()
        .map(|w| {
            JobSpec::new(
                w,
                TsSize::Sixteenth,
                ExecMode::Pim(OrderingMode::Fence),
                data_bytes_per_channel,
            )
        })
        .collect()
}

/// Enumerates Figures 10a/10b: every stream kernel at every TS size
/// under fence and OrderLight, plus the GPU baseline.
#[must_use]
pub fn fig10_points(data_bytes_per_channel: u64) -> Vec<JobSpec> {
    let mut points = Vec::new();
    for wl in WorkloadId::STREAMS {
        points.push(JobSpec::new(wl, TsSize::Eighth, ExecMode::Gpu, data_bytes_per_channel));
        for ts in TsSize::ALL {
            for mode in [OrderingMode::Fence, OrderingMode::OrderLight] {
                points.push(JobSpec::new(wl, ts, ExecMode::Pim(mode), data_bytes_per_channel));
            }
        }
    }
    points
}

/// Enumerates Figure 12: the application kernels, fence vs OrderLight
/// at every TS size.
#[must_use]
pub fn fig12_points(data_bytes_per_channel: u64) -> Vec<JobSpec> {
    let mut points = Vec::new();
    for wl in WorkloadId::APPS {
        for ts in TsSize::ALL {
            for mode in [OrderingMode::Fence, OrderingMode::OrderLight] {
                points.push(JobSpec::new(wl, ts, ExecMode::Pim(mode), data_bytes_per_channel));
            }
        }
    }
    points
}

/// Enumerates Figure 13: the bandwidth-multiplication-factor sweep
/// (4x/8x/16x) for the Add kernel under fence and OrderLight.
#[must_use]
pub fn fig13_points(data_bytes_per_channel: u64) -> Vec<JobSpec> {
    let mut points = Vec::new();
    for bmf in [4u32, 8, 16] {
        for ts in TsSize::ALL {
            for mode in [OrderingMode::Fence, OrderingMode::OrderLight] {
                points.push(JobSpec {
                    workload: WorkloadId::Add,
                    ts,
                    mode: ExecMode::Pim(mode),
                    bmf,
                    data_bytes_per_channel,
                });
            }
        }
    }
    points
}

/// Figure 11: the DRAM timing window — analytic and micro-simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11 {
    /// Analytic window: tRCDW + 7·tCCD + tWP + tRP.
    pub analytic_window: u64,
    /// The same window measured on the simulated bank state machine.
    pub simulated_window: u64,
    /// Column writes per window.
    pub writes_per_window: u64,
    /// Peak command bandwidth over 16 channels, GC/s.
    pub peak_command_gcs: f64,
}

/// Computes Figure 11 both analytically and by driving the bank state
/// machine, asserting they agree.
#[must_use]
pub fn fig11() -> Fig11 {
    let t = TimingParams::hbm_table1();
    let analytic = t.row_window_writes(8);
    // Micro-sim: stream two rows of 8 writes through one bank and
    // measure the ACT-to-ACT spacing.
    let mut ch = Channel::new(t, 16, 2048);
    let mut now = 0;
    let mut acts = Vec::new();
    for row in 0..2u32 {
        while !ch.try_issue(DramCommand::Activate { bank: BankId(0), row }, now) {
            now += 1;
        }
        acts.push(now);
        let mut writes = 0;
        while writes < 8 {
            if ch.try_issue(DramCommand::column(BankId(0), ColKind::Write), now) {
                writes += 1;
            }
            now += 1;
        }
        while !ch.try_issue(DramCommand::Precharge { bank: BankId(0) }, now) {
            now += 1;
        }
    }
    let simulated = acts[1] - acts[0];
    Fig11 {
        analytic_window: analytic,
        simulated_window: simulated,
        writes_per_window: 8,
        peak_command_gcs: t.peak_command_bandwidth(8, analytic, 16, 850e6) / 1e9,
    }
}

/// Stripes per phase of the Figure 7 tile.
pub const FIG07_STRIPES: u64 = 4;

/// Figure 7: the memory-controller issue trace of one vector-add tile
/// (load `a` from row 0, fetch-and-add `b` from row 1, store `c` to
/// row 2) under each ordering primitive, read from the controller's
/// trace events.
#[derive(Debug, Clone)]
pub struct Fig07 {
    /// The tile's requests, indexed by sequence number.
    tile: Vec<PimInstruction>,
    /// Fence: the core sends one phase, then stalls while it drains.
    /// Every trace event the controller emitted, in emission order.
    pub fence_trace: Vec<TraceEvent>,
    /// Memory cycles each fence phase took to drain, one per phase.
    pub fence_drains: Vec<u64>,
    /// OrderLight: the whole tile streams with a packet after each
    /// phase, and the controller enforces the boundaries itself.
    pub orderlight_trace: Vec<TraceEvent>,
    /// Memory cycles the streamed OrderLight tile took to drain.
    pub orderlight_cycles: u64,
}

impl Fig07 {
    /// The issue-trace line for `event`: `ACT b{bank} r{row}`,
    /// `PRE b{bank}`, or the tile instruction of an issued request.
    /// `None` for every other event, column commands included (the
    /// issued request stands for its column command).
    #[must_use]
    pub(crate) fn describe(&self, event: &TraceEvent) -> Option<String> {
        match *event {
            TraceEvent::DramCmd { bank, kind: DramCmdKind::Activate, row, .. } => {
                Some(format!("ACT b{bank} r{row}"))
            }
            TraceEvent::DramCmd { bank, kind: DramCmdKind::Precharge, .. } => {
                Some(format!("PRE b{bank}"))
            }
            TraceEvent::ReqIssued { seq, .. } => Some(self.tile[seq as usize].to_string()),
            _ => None,
        }
    }
}

/// Drives one controller by hand through the Figure 7 tile under both
/// primitives. The core side is not simulated: the fence's round trip
/// shows only as the phase-by-phase drains.
#[must_use]
pub fn fig07() -> Fig07 {
    let mapping = &AddressMapping::hbm_default();
    let controller = || {
        let cfg = McConfig {
            mapping: mapping.clone(),
            groups: GroupMap::default(),
            ..McConfig::default()
        };
        let mut mc = MemoryController::new(
            cfg,
            Channel::new(TimingParams::hbm_table1(), 16, 2048),
            PimUnit::new(TsSize::Sixteenth, 2048, 16),
        );
        let ring = Arc::new(RingSink::new(4096));
        mc.set_sink(ring.clone(), 0);
        (mc, ring)
    };
    let phases = [PimOp::Load, PimOp::Compute(AluOp::Add), PimOp::Store];
    let tile: Vec<PimInstruction> = (0..)
        .zip(phases)
        .flat_map(|(p, op)| {
            (0..FIG07_STRIPES).map(move |i| PimInstruction {
                op,
                addr: mapping.compose(ChannelId(0), p * 2048 + i * 32),
                slot: TsSlot(i as u16),
                group: MemGroupId(0),
            })
        })
        .collect();
    let phase = |p: u64| {
        (p * FIG07_STRIPES..(p + 1) * FIG07_STRIPES).map(|seq| MemReq::Pim {
            instr: tile[seq as usize],
            meta: ReqMeta { warp: GlobalWarpId::new(0, 0), seq },
        })
    };
    let drain = |mc: &mut MemoryController, now: &mut u64| {
        let mut resps = Vec::new();
        while !mc.is_idle() {
            mc.tick(*now, &mut resps);
            resps.clear();
            *now += 1;
        }
    };

    let ((mut fence, fence_ring), mut now, mut fence_drains) = (controller(), 0, Vec::new());
    for p in 0..phases.len() as u64 {
        phase(p).for_each(|req| fence.push(req));
        let start = now;
        drain(&mut fence, &mut now);
        fence_drains.push(now - start);
    }

    let (mut ol, ol_ring) = controller();
    for p in 0..phases.len() as u64 {
        phase(p).for_each(|req| ol.push(req));
        ol.push(MemReq::Marker(MarkerCopy {
            marker: Marker::OrderLight(OrderLightPacket::new(
                ChannelId(0),
                MemGroupId(0),
                p as u32 + 1,
            )),
            total_copies: 1,
        }));
    }
    let mut orderlight_cycles = 0;
    drain(&mut ol, &mut orderlight_cycles);

    Fig07 {
        fence_trace: fence_ring.events(),
        fence_drains,
        orderlight_trace: ol_ring.events(),
        orderlight_cycles,
        tile,
    }
}

/// The arbitration-granularity ablation (Sections 3.2/3.5): mean host
/// read latency while a PIM kernel saturates the same channels, under
/// fine-grained arbitration (host requests interleave) versus
/// coarse-grained arbitration (host requests blocked until PIM
/// completes, modelled as queueing the host work after the PIM run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbitrationAblation {
    /// Mean host read latency (memory cycles) with fine-grained
    /// arbitration.
    pub fga_mean_host_latency: f64,
    /// Host latency under coarse-grained arbitration: the whole PIM
    /// kernel's execution time stands between the host and its data.
    pub cga_host_wait_cycles: u64,
    /// PIM execution time (core cycles) used for the CGA bound.
    pub pim_exec_cycles: u64,
}

/// Runs the arbitration ablation (see [`ArbitrationAblation`]) through
/// `runner`.
///
/// # Errors
/// Propagates [`SimError`].
pub fn ablation_arbitration(
    data_bytes_per_channel: u64,
    runner: &mut Runner,
) -> Result<ArbitrationAblation, SimError> {
    // Fine-grained: host traffic to memory group 1 interleaves with the
    // PIM kernel in group 0. We approximate the host stream with the
    // Copy workload placed in GPU mode on the same system size, and
    // measure its mean service latency when run alone (the FGA latency
    // for group-1 requests is unaffected by group-0 OrderLight packets —
    // asserted by unit tests in `orderlight-memctrl`).
    let mut gpu = ExperimentConfig::new(WorkloadId::Copy, ExecMode::Gpu);
    gpu.data_bytes_per_channel = data_bytes_per_channel;
    // Coarse-grained: the host waits out the whole PIM kernel.
    let mut pim = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
    pim.data_bytes_per_channel = data_bytes_per_channel;
    let stats = runner.run(&scenarios([gpu, pim])?)?;
    let (gpu_stats, pim_stats) = (&stats[0], &stats[1]);
    let fga_mean = if gpu_stats.mc.host_reads == 0 {
        0.0
    } else {
        gpu_stats.mc.host_read_latency_sum as f64 / gpu_stats.mc.host_reads as f64
    };
    Ok(ArbitrationAblation {
        fga_mean_host_latency: fga_mean,
        cga_host_wait_cycles: pim_stats.core_cycles,
        pim_exec_cycles: pim_stats.core_cycles,
    })
}

/// One row of the sequence-number (Kim et al. (paper reference 27)) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqNumRow {
    /// Configuration label ("orderlight", "seqnum B=8", ...).
    pub label: String,
    /// Execution time (ms).
    pub exec_time_ms: f64,
    /// PIM command bandwidth (GC/s).
    pub command_gcs: f64,
    /// Core cycles stalled waiting for buffer credits.
    pub credit_wait_cycles: u64,
    /// Whether the run verified.
    pub correct: bool,
}

/// The Related Work comparison (Section 8.1): OrderLight versus
/// per-request sequence numbers with credit-based buffer management,
/// sweeping the controller buffer size. Kim et al.'s approach needs
/// memory-side buffering and pays credit round trips; OrderLight's
/// in-band packets need neither.
///
/// # Errors
/// Propagates [`SimError`].
pub fn ablation_seqnum(
    data_bytes_per_channel: u64,
    ts: TsSize,
    runner: &mut Runner,
) -> Result<Vec<SeqNumRow>, SimError> {
    let mut base = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
    base.ts_size = ts;
    base.data_bytes_per_channel = data_bytes_per_channel;
    const CREDITS: [u32; 5] = [4, 8, 16, 32, 64];
    let mut exps = vec![base.clone()];
    for credits in CREDITS {
        let mut exp = base.clone();
        exp.mode = ExecMode::Pim(OrderingMode::SeqNum);
        exp.seq_credits = credits;
        exps.push(exp);
    }
    let stats = runner.run(&scenarios(exps)?)?;
    let mut rows = Vec::new();
    let ol = &stats[0];
    rows.push(SeqNumRow {
        label: "orderlight".into(),
        exec_time_ms: ol.exec_time_ms,
        command_gcs: ol.command_bandwidth_gcs,
        credit_wait_cycles: 0,
        correct: ol.is_correct(),
    });
    for (credits, s) in CREDITS.iter().zip(&stats[1..]) {
        rows.push(SeqNumRow {
            label: format!("seqnum B={credits}"),
            exec_time_ms: s.exec_time_ms,
            command_gcs: s.command_bandwidth_gcs,
            credit_wait_cycles: s.sm.credit_wait_cycles,
            correct: s.is_correct(),
        });
    }
    Ok(rows)
}

/// The fence-scope ablation (paper Section 4.3): where the fence
/// acknowledgement is generated decides both its cost and its safety.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FenceScopeAblation {
    /// Execution time with the correct issue-to-DRAM fence (ms).
    pub dram_issue_ms: f64,
    /// Mean waiting cycles per fence, issue-to-DRAM scope.
    pub dram_issue_wait: f64,
    /// Whether the issue-to-DRAM run verified.
    pub dram_issue_correct: bool,
    /// Execution time with the L2 ("global serialization point") fence.
    pub l2_ack_ms: f64,
    /// Mean waiting cycles per fence, L2 scope.
    pub l2_ack_wait: f64,
    /// Whether the L2-scope run verified (no guarantee that it does).
    pub l2_ack_correct: bool,
    /// Output stripes that mismatched under the L2-scope fence.
    pub l2_ack_mismatches: u64,
}

/// Runs the fence-scope ablation on the Add kernel through `runner`.
///
/// # Errors
/// Propagates [`SimError`].
pub fn ablation_fence_scope(
    data_bytes_per_channel: u64,
    ts: TsSize,
    runner: &mut Runner,
) -> Result<FenceScopeAblation, SimError> {
    let mut exp = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence));
    exp.ts_size = ts;
    exp.data_bytes_per_channel = data_bytes_per_channel;
    let strict_exp = exp.clone();
    exp.system.pipe.fence_ack_at_l2 = true;
    let stats = runner.run(&scenarios([strict_exp, exp])?)?;
    let (strict, loose) = (&stats[0], &stats[1]);
    Ok(FenceScopeAblation {
        dram_issue_ms: strict.exec_time_ms,
        dram_issue_wait: strict.wait_cycles_per_fence(),
        dram_issue_correct: strict.is_correct(),
        l2_ack_ms: loose.exec_time_ms,
        l2_ack_wait: loose.wait_cycles_per_fence(),
        l2_ack_correct: loose.is_correct(),
        l2_ack_mismatches: loose.verified_mismatches,
    })
}

/// A CPU-host system configuration, following the paper's conclusion:
/// the innovations apply to out-of-order CPUs, whose renaming units and
/// reservation stations play the operand collector's role and whose
/// fence overheads are still on the order of 100 cycles. We model the
/// CPU host with the same structures under CPU parameters: a short
/// uncore path to the controller (L3 + mesh instead of a GPU
/// interconnect), wide issue, reservation-station-sized collectors, and
/// one hardware context per channel.
#[must_use]
pub fn cpu_host_config() -> SystemConfig {
    // 2 GHz cores, eight of them driving two channels each.
    let mut sys = SystemConfig {
        core_freq_hz: 2.0e9,
        total_sms: 8,
        sms_used: 8,
        warps_per_sm: 2,
        ..SystemConfig::default()
    };
    // Uncore: core -> L3 slice -> memory controller.
    sys.pipe.icnt_latency = 40;
    sys.pipe.sub_latency = 4;
    sys.pipe.l2_out_latency = 20;
    sys.pipe.return_latency = 60;
    // Reservation stations instead of collector units.
    sys.sm.issue_width = 4;
    sys.sm.oc_capacity = 48;
    sys.sm.oc_latency = 2;
    sys.sm.ldst_capacity = 32;
    sys
}

/// One row of the CPU-host applicability study.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuHostRow {
    /// Ordering primitive label.
    pub label: String,
    /// Execution time (ms).
    pub exec_time_ms: f64,
    /// Mean waiting cycles per fence.
    pub wait_per_fence: f64,
    /// Whether the run verified.
    pub correct: bool,
}

/// Runs the Add kernel on the CPU-host configuration under fences and
/// OrderLight (paper Conclusion: fence overheads on OoO CPUs are still
/// ~100 cycles, and the operand-collector gating maps onto reservation
/// stations).
///
/// # Errors
/// Propagates [`SimError`].
pub fn ablation_cpu_host(
    data_bytes_per_channel: u64,
    ts: TsSize,
    runner: &mut Runner,
) -> Result<Vec<CpuHostRow>, SimError> {
    const MODES: [OrderingMode; 2] = [OrderingMode::Fence, OrderingMode::OrderLight];
    let scenarios = MODES
        .into_iter()
        .map(|mode| {
            ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(mode))
                // The CPU allocation is part of this system: `system`
                // skips the GPU SM policy.
                .system(cpu_host_config())
                .ts_size(ts)
                .data_bytes_per_channel(data_bytes_per_channel)
                .build()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MODES
        .into_iter()
        .zip(runner.run(&scenarios)?)
        .map(|(mode, s)| CpuHostRow {
            label: format!("cpu {mode}"),
            exec_time_ms: s.exec_time_ms,
            wait_per_fence: s.wait_cycles_per_fence(),
            correct: s.is_correct(),
        })
        .collect())
}

/// One row of the scheduler-knob ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerRow {
    /// Knob setting label.
    pub label: String,
    /// OrderLight (single-bank PIM stream) command bandwidth, GC/s.
    pub pim_command_gcs: f64,
    /// GPU-baseline (multi-bank host stream) execution time, ms.
    pub host_exec_ms: f64,
    /// GPU-baseline row activations (locality proxy: fewer is better).
    pub host_activates: u64,
}

/// Sweeps the controller design knobs DESIGN.md calls out — FR-FCFS
/// scan depth and per-bank command-queue capacity.
///
/// Two traffic classes react very differently: the ordered single-bank
/// PIM stream is insensitive (the OrderLight barriers already pin the
/// schedule — itself a useful observation), while the GPU baseline's
/// multi-bank host stream relies on the scan window for bank-level
/// parallelism and row locality.
///
/// # Errors
/// Propagates [`SimError`].
pub fn ablation_scheduler(
    data_bytes_per_channel: u64,
    runner: &mut Runner,
) -> Result<Vec<SchedulerRow>, SimError> {
    let mut labels = Vec::new();
    let mut exps = Vec::new();
    let mut enumerate = |label: String, scan_depth: usize, bank_q: usize| {
        let mut pim =
            ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
        pim.data_bytes_per_channel = data_bytes_per_channel;
        pim.system.mc.scan_depth = scan_depth;
        pim.system.mc.bank_queue_capacity = bank_q;
        let mut host = ExperimentConfig::new(WorkloadId::Add, ExecMode::Gpu);
        host.data_bytes_per_channel = data_bytes_per_channel / 4;
        host.system.mc.scan_depth = scan_depth;
        host.system.mc.bank_queue_capacity = bank_q;
        labels.push(label);
        exps.push(pim);
        exps.push(host);
    };
    for scan in [1usize, 4, 16, 64] {
        enumerate(format!("scan_depth={scan}"), scan, 4);
    }
    for bq in [1usize, 2, 4, 8] {
        enumerate(format!("bank_queue={bq}"), 16, bq);
    }
    let stats = runner.run(&scenarios(exps)?)?;
    Ok(labels
        .into_iter()
        .zip(stats.chunks_exact(2))
        .map(|(label, pair)| SchedulerRow {
            label,
            pim_command_gcs: pair[0].command_bandwidth_gcs,
            host_exec_ms: pair[1].exec_time_ms,
            host_activates: pair[1].mc.activates,
        })
        .collect())
}

/// One row of the refresh ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshRow {
    /// Configuration label.
    pub label: String,
    /// Execution time (ms).
    pub exec_time_ms: f64,
    /// OrderLight command bandwidth (GC/s).
    pub command_gcs: f64,
    /// Whether the run verified.
    pub correct: bool,
}

/// Quantifies what the paper's (and most PIM studies') no-refresh
/// methodology hides: the Add kernel under OrderLight with all-bank
/// refresh off versus HBM2-like tREFI/tRFC.
///
/// # Errors
/// Propagates [`SimError`].
pub fn ablation_refresh(
    data_bytes_per_channel: u64,
    runner: &mut Runner,
) -> Result<Vec<RefreshRow>, SimError> {
    let settings = [
        ("no refresh (paper)", None),
        ("HBM2 refresh", Some(orderlight_hbm::RefreshParams::hbm2())),
    ];
    let exps: Vec<ExperimentConfig> = settings
        .iter()
        .map(|(_, refresh)| {
            let mut exp =
                ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
            exp.data_bytes_per_channel = data_bytes_per_channel;
            exp.system.refresh = *refresh;
            exp
        })
        .collect();
    let stats = runner.run(&scenarios(exps)?)?;
    Ok(settings
        .iter()
        .zip(stats)
        .map(|((label, _), s)| RefreshRow {
            label: (*label).to_string(),
            exec_time_ms: s.exec_time_ms,
            command_gcs: s.command_bandwidth_gcs,
            correct: s.is_correct(),
        })
        .collect())
}

/// One row of the page-policy ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PagePolicyRow {
    /// `workload / policy` label.
    pub label: String,
    /// Execution time (ms).
    pub exec_time_ms: f64,
    /// Row activations issued.
    pub activates: u64,
}

/// Open-page versus closed-page row management under OrderLight, on a
/// streaming kernel (Add: rewards open rows) and an irregular one
/// (Gen_Fil: random 128 B probes rarely revisit a row).
///
/// # Errors
/// Propagates [`SimError`].
pub fn ablation_page_policy(
    data_bytes_per_channel: u64,
    runner: &mut Runner,
) -> Result<Vec<PagePolicyRow>, SimError> {
    use orderlight_memctrl::PagePolicy;
    let mut labels = Vec::new();
    let mut exps = Vec::new();
    for wl in [WorkloadId::Add, WorkloadId::GenFil] {
        for policy in [PagePolicy::Open, PagePolicy::Closed] {
            let mut exp = ExperimentConfig::new(wl, ExecMode::Pim(OrderingMode::OrderLight));
            exp.data_bytes_per_channel = data_bytes_per_channel;
            exp.system.mc.page_policy = policy;
            labels.push(format!("{wl} / {policy:?}"));
            exps.push(exp);
        }
    }
    let stats = runner.run(&scenarios(exps)?)?;
    Ok(labels
        .into_iter()
        .zip(stats)
        .map(|(label, s)| PagePolicyRow {
            label,
            exec_time_ms: s.exec_time_ms,
            activates: s.mc.activates,
        })
        .collect())
}

/// Table 1 as printable rows (configuration echo).
#[must_use]
pub fn table1() -> Vec<(String, String)> {
    let c = SystemConfig::default();
    let t = c.timing;
    vec![
        ("GPU model".into(), "Volta Titan V (modelled)".into()),
        ("Number of SMs".into(), c.total_sms.to_string()),
        ("Core frequency".into(), format!("{} MHz", c.core_freq_hz / 1e6)),
        ("Memory model".into(), "HBM".into()),
        ("Memory channels".into(), c.channels.to_string()),
        ("Banks per channel".into(), c.banks_per_channel.to_string()),
        ("Memory frequency".into(), format!("{} MHz", c.mem_freq_hz / 1e6)),
        ("DRAM bus width".into(), "32B".into()),
        ("Memory scheduler".into(), "FRFCFS".into()),
        ("R/W queue size".into(), c.mc.queue_capacity.to_string()),
        ("L2 queue size".into(), (c.pipe.sub_capacity * 2).to_string()),
        ("Interconnect to L2 latency".into(), format!("{} cycles", c.pipe.icnt_latency)),
        ("L2 to DRAM scheduler latency".into(), format!("{} cycles", c.pipe.l2_out_latency)),
        (
            "Memory timing".into(),
            format!(
                "CCD={}:RRD={}:RCDW={}:RAS={}:RP={}:CL={}:WL={}:CDLR={}:WR={}:CCDL={}:WTP={}",
                t.ccd, t.rrd, t.rcd_wr, t.ras, t.rp, t.cl, t.wl, t.cdlr, t.wr, t.ccdl, t.wtp
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_analytic_matches_simulation() {
        let f = fig11();
        assert_eq!(f.analytic_window, 44);
        assert_eq!(f.simulated_window, 44);
        assert!((f.peak_command_gcs - 2.47).abs() < 0.05);
    }

    #[test]
    fn sm_policy_follows_the_paper() {
        let mut e = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence));
        apply_sm_policy(&mut e);
        assert_eq!((e.system.sms_used, e.system.warps_per_sm), (2, 8));
        let mut e = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
        apply_sm_policy(&mut e);
        assert_eq!((e.system.sms_used, e.system.warps_per_sm), (8, 2));
    }

    #[test]
    fn table1_echoes_the_paper() {
        let rows = table1();
        let get = |k: &str| rows.iter().find(|(a, _)| a == k).unwrap().1.clone();
        assert_eq!(get("Number of SMs"), "80");
        assert_eq!(get("Memory channels"), "16");
        assert_eq!(get("R/W queue size"), "64");
        assert!(get("Memory timing").contains("RCDW=9"));
        assert!(get("Memory timing").contains("WTP=9"));
    }

    #[test]
    fn point_enumerations_match_the_paper_shapes() {
        let data = 8 * 1024;
        assert_eq!(fig05_points(data).len(), 5, "NoFence + 4 fence TS points");
        assert_eq!(fig10_points(data).len(), 5 * 9, "5 kernels x (GPU + 4 TS x 2 modes)");
        assert_eq!(fig12_points(data).len(), 7 * 4 * 2);
        assert_eq!(fig13_points(data).len(), 3 * 4 * 2);
        for p in fig10_points(data) {
            assert_eq!(p.data_bytes_per_channel, data);
            assert_eq!(p.bmf, 16);
        }
        let bmfs: Vec<u32> = fig13_points(data).iter().map(|p| p.bmf).collect();
        assert!(bmfs.starts_with(&[4; 8]) && bmfs.ends_with(&[16; 8]));
    }

    /// Fig. 5's four fence bars are Fig. 13's BMF-16 fence row.
    #[test]
    fn runner_runs_each_distinct_scenario_once() {
        let data = 4 * 1024;
        let (fig05, fig13) = (fig05_points(data), fig13_points(data));
        let mut runner = Runner::new(Pool::new(2));
        let (a, b) = (runner.points(&fig05).unwrap(), runner.points(&fig13).unwrap());
        assert_eq!(runner.memoised(), 5 + 24 - 4);
        assert_eq!(runner.points(&fig05).unwrap(), a);
        assert_eq!(runner.points(&fig13).unwrap(), b);
        assert_eq!(runner.memoised(), 25, "a repeated call runs nothing new");
        let (serial05, serial13) =
            (run_points_serial(&fig05).unwrap(), run_points_serial(&fig13).unwrap());
        for workers in [1, 2, 8] {
            let mut runner = Runner::new(Pool::new(workers));
            assert_eq!(runner.points(&fig05).unwrap(), serial05, "workers={workers}");
            assert_eq!(runner.points(&fig13).unwrap(), serial13, "workers={workers}");
        }
    }

    #[test]
    fn runner_reports_the_first_failure_in_input_order_and_forgets_it() {
        let build = |wl: WorkloadId, budget: u64| {
            ScenarioBuilder::new(wl, ExecMode::Pim(OrderingMode::OrderLight))
                .data_kb(4)
                .budget(budget)
                .build()
                .unwrap()
        };
        let (ok, copy_fails, add_fails) = (
            build(WorkloadId::Add, 50_000_000),
            build(WorkloadId::Copy, 10),
            build(WorkloadId::Add, 10),
        );
        let expected = add_fails.run().unwrap_err();
        assert_ne!(expected, copy_fails.run().unwrap_err());
        let batch = [ok, add_fails.clone(), copy_fails, add_fails];
        for workers in [1, 2, 8] {
            let mut runner = Runner::new(Pool::new(workers));
            assert_eq!(runner.run(&batch).unwrap_err(), expected, "workers={workers}");
            assert_eq!(runner.memoised(), 1, "only the success is memoised");
        }
    }

    #[test]
    fn job_spec_run_produces_consistent_labels() {
        let p = JobSpec {
            workload: WorkloadId::Scale,
            ts: TsSize::Quarter,
            mode: ExecMode::Pim(OrderingMode::OrderLight),
            bmf: 16,
            data_bytes_per_channel: 8 * 1024,
        }
        .run()
        .unwrap();
        assert_eq!(p.workload, "Scale");
        assert_eq!(p.ts, "1/4 RB");
        assert_eq!(p.mode, "pim-orderlight");
        assert!(p.stats.is_correct());
    }
}
