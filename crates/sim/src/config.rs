//! System and experiment configuration (paper Table 1).

use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::ConfigError;
use orderlight_gpu::SmConfig;
use orderlight_hbm::{RefreshParams, TimingParams};
use orderlight_memctrl::{McConfig, MAX_BANKS};
use orderlight_noc::PipeConfig;
use orderlight_pim::TsSize;
use orderlight_workloads::{Layout, OrderingMode, WorkloadId};

/// The full-system configuration. Defaults reproduce Table 1:
///
/// | GPU | Volta Titan V model, 80 SMs, 1200 MHz |
/// |-----|----------------------------------------|
/// | Memory | HBM, 16 channels, 16 banks/channel, 850 MHz, 32 B bus |
/// | Queues | L2 64, R/W 64 | FR-FCFS scheduler |
/// | Latency | interconnect-to-L2 120 cyc, L2-to-DRAM 100 cyc |
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Core clock (Hz). Table 1: 1200 MHz.
    pub core_freq_hz: f64,
    /// Memory clock (Hz). Table 1: 850 MHz.
    pub mem_freq_hz: f64,
    /// Memory channels. Table 1: 16.
    pub channels: usize,
    /// Banks per channel. Table 1: 16.
    pub banks_per_channel: usize,
    /// Row-buffer bytes. 2 KB.
    pub row_bytes: u64,
    /// Total SMs on the die (Table 1: 80). Only `sms_used` run the
    /// evaluated kernel; the rest are assumed available for concurrent
    /// compute kernels (the point of fine-grained arbitration).
    pub total_sms: usize,
    /// SMs used to drive the kernel.
    pub sms_used: usize,
    /// Warps per used SM (`sms_used * warps_per_sm` must cover the
    /// channels, one warp per channel).
    pub warps_per_sm: usize,
    /// DRAM timing.
    pub timing: TimingParams,
    /// All-bank refresh (off by default, matching the paper's
    /// methodology; see the `ablation_refresh` experiment).
    pub refresh: Option<RefreshParams>,
    /// Address interleaving.
    pub mapping: AddressMapping,
    /// Bank-to-memory-group map.
    pub groups: GroupMap,
    /// Memory-pipe latencies/capacities.
    pub pipe: PipeConfig,
    /// Per-SM microarchitecture.
    pub sm: SmConfig,
    /// Memory-controller queueing/scheduling knobs (mapping/groups are
    /// overridden from this config).
    pub mc: McConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        let mapping = AddressMapping::hbm_default();
        let groups = GroupMap::default();
        SystemConfig {
            core_freq_hz: 1.2e9,
            mem_freq_hz: 850e6,
            channels: 16,
            banks_per_channel: 16,
            row_bytes: 2048,
            total_sms: 80,
            sms_used: 8,
            warps_per_sm: 2,
            timing: TimingParams::hbm_table1(),
            refresh: None,
            mc: McConfig {
                mapping: mapping.clone(),
                groups: groups.clone(),
                ..McConfig::default()
            },
            mapping,
            groups,
            pipe: PipeConfig::default(),
            sm: SmConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns [`ConfigError`] when clocks are non-positive, the warp
    /// allocation does not cover the channels, or sub-configs disagree.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.core_freq_hz <= 0.0 || self.mem_freq_hz <= 0.0 {
            return Err(ConfigError::new(format!(
                "clock frequencies must be positive (core_freq_hz = {}, mem_freq_hz = {})",
                self.core_freq_hz, self.mem_freq_hz
            )));
        }
        if self.channels == 0 || self.channels != self.mapping.channels() {
            return Err(ConfigError::new(format!(
                "channel count must match the address mapping (channels = {}, mapping expects {})",
                self.channels,
                self.mapping.channels()
            )));
        }
        if self.banks_per_channel != self.mapping.banks() {
            return Err(ConfigError::new(format!(
                "bank count must match the address mapping \
                 (banks_per_channel = {}, mapping expects {})",
                self.banks_per_channel,
                self.mapping.banks()
            )));
        }
        if self.banks_per_channel > MAX_BANKS {
            return Err(ConfigError::new(format!(
                "too many banks for the controller (banks_per_channel = {}, valid range 1..={MAX_BANKS})",
                self.banks_per_channel
            )));
        }
        if self.row_bytes != self.mapping.row_bytes() {
            return Err(ConfigError::new(format!(
                "row size must match the address mapping (row_bytes = {}, mapping expects {})",
                self.row_bytes,
                self.mapping.row_bytes()
            )));
        }
        if self.sms_used * self.warps_per_sm < self.channels {
            return Err(ConfigError::new(format!(
                "need at least one warp per channel \
                 (sms_used {} x warps_per_sm {} = {} warps < {} channels)",
                self.sms_used,
                self.warps_per_sm,
                self.sms_used * self.warps_per_sm,
                self.channels
            )));
        }
        if self.sms_used > self.total_sms {
            return Err(ConfigError::new(format!(
                "sms_used exceeds total_sms (sms_used = {}, total_sms = {})",
                self.sms_used, self.total_sms
            )));
        }
        self.timing.validate()?;
        Ok(())
    }

    /// Peak host-visible memory bandwidth in GB/s
    /// (`channels x 32 B x mem_freq`). Table 1's configuration gives
    /// ~435 GB/s (the paper quotes 405 GB/s achievable).
    #[must_use]
    pub fn peak_host_bandwidth_gbs(&self) -> f64 {
        self.channels as f64 * 32.0 * self.mem_freq_hz / 1e9
    }
}

/// What executes on the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The conventional-GPU baseline: data streams through the memory
    /// pipe to the core (the green "GPU" bars of Figure 10b).
    Gpu,
    /// Fine-grained PIM with the given ordering primitive.
    Pim(OrderingMode),
}

impl ExecMode {
    /// The memory-controller ordering backend this mode selects — the
    /// single mapping from kernel-level ordering choice to controller
    /// machinery. GPU runs and unordered PIM runs still host the
    /// [`orderlight_memctrl::OrderingKind::Fence`] backend: it is inert
    /// without probes, and keeps the fence path serviceable everywhere.
    #[must_use]
    pub fn ordering_backend(self) -> orderlight_memctrl::OrderingKind {
        use orderlight_memctrl::OrderingKind;
        match self {
            ExecMode::Gpu => OrderingKind::Fence,
            ExecMode::Pim(mode) => match mode {
                OrderingMode::None | OrderingMode::Fence => OrderingKind::Fence,
                OrderingMode::OrderLight => OrderingKind::OrderLight,
                OrderingMode::SeqNum => OrderingKind::SeqNum,
                OrderingMode::LouvreVersioned => OrderingKind::LouvreVersioned,
                OrderingMode::BulkBitwiseStrong => OrderingKind::BulkBitwiseStrong,
            },
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Gpu => write!(f, "gpu"),
            ExecMode::Pim(mode) => write!(f, "pim-{mode}"),
        }
    }
}

/// One experiment: a workload at a design point.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The system under test.
    pub system: SystemConfig,
    /// Which kernel runs.
    pub workload: WorkloadId,
    /// Execution mode.
    pub mode: ExecMode,
    /// PIM temporary-storage size (ignored in GPU mode).
    pub ts_size: TsSize,
    /// PIM bandwidth multiplication factor (ignored in GPU mode).
    pub bmf: u32,
    /// Logical job size: bytes per data structure per channel.
    pub data_bytes_per_channel: u64,
    /// Per-warp buffer credits for the sequence-number baseline
    /// (`OrderingMode::SeqNum` only).
    pub seq_credits: u32,
}

impl ExperimentConfig {
    /// A convenient default design point: Add kernel, OrderLight,
    /// 1/8-row-buffer TS, BMF 16, 256 KiB per structure per channel.
    #[must_use]
    pub fn new(workload: WorkloadId, mode: ExecMode) -> Self {
        ExperimentConfig {
            system: SystemConfig::default(),
            workload,
            mode,
            ts_size: TsSize::Eighth,
            bmf: 16,
            data_bytes_per_channel: 256 * 1024,
            seq_credits: 32,
        }
    }

    /// TS capacity in stripes at this design point.
    #[must_use]
    pub fn ts_stripes(&self) -> u64 {
        self.ts_size.stripes(self.system.row_bytes)
    }

    /// Stripes each warp's stream covers per structure: the full channel
    /// slice for the GPU baseline, the representative 1/BMF slice for
    /// PIM (each fine-grained command drives `bmf` lock-stepped units).
    #[must_use]
    pub fn stripes_per_channel(&self) -> u64 {
        let stripes = self.data_bytes_per_channel / 32;
        match self.mode {
            ExecMode::Gpu => stripes.max(1),
            ExecMode::Pim(_) => (stripes / u64::from(self.bmf)).max(1),
        }
    }

    /// Banks of its memory group the workload's consecutive rows rotate
    /// across: the whole group for host data (bank-level parallelism),
    /// one bank for PIM (the paper's single-bank placement).
    #[must_use]
    pub fn bank_interleave(&self) -> u64 {
        match self.mode {
            ExecMode::Gpu => self.system.groups.banks_per_group() as u64,
            ExecMode::Pim(_) => 1,
        }
    }

    /// Rejects a sequence-number run without buffer credits: every warp
    /// would wait forever for one.
    ///
    /// # Errors
    /// Returns [`ConfigError`] when the mode is seqnum and
    /// `seq_credits` is zero.
    pub fn validate_credits(&self) -> Result<(), ConfigError> {
        if self.mode == ExecMode::Pim(OrderingMode::SeqNum) && self.seq_credits == 0 {
            return Err(ConfigError::new(
                "seqnum credits must be positive (credits = 0, valid range 1..): \
                 a warp without a buffer credit can never issue",
            ));
        }
        Ok(())
    }

    /// Validates the experiment.
    ///
    /// # Errors
    /// Returns [`ConfigError`] for invalid systems, a seqnum run without
    /// credits ([`validate_credits`](Self::validate_credits)), a zero
    /// BMF/job, or a job whose data does not fit its memory group's
    /// banks.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.system.validate()?;
        self.validate_credits()?;
        if self.bmf == 0 {
            return Err(ConfigError::new(format!(
                "bmf must be positive (bmf = {}, valid range 1..)",
                self.bmf
            )));
        }
        if self.data_bytes_per_channel == 0 {
            return Err(ConfigError::new(format!(
                "job size must be positive (data_bytes_per_channel = {}, valid range 1..)",
                self.data_bytes_per_channel
            )));
        }
        Layout::checked_span(
            &self.system.mapping,
            &self.system.groups,
            self.workload.spec().structures,
            self.stripes_per_channel(),
            self.bank_interleave(),
        )
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SystemConfig::default();
        c.validate().unwrap();
        assert_eq!(c.channels, 16);
        assert_eq!(c.banks_per_channel, 16);
        assert_eq!(c.total_sms, 80);
        assert!((c.core_freq_hz - 1.2e9).abs() < 1.0);
        assert!((c.mem_freq_hz - 850e6).abs() < 1.0);
        assert_eq!(c.mc.queue_capacity, 64, "Table 1: R/W queue size 64");
        assert_eq!(c.pipe.icnt_latency, 120, "Table 1: interconnect-to-L2 latency");
        assert_eq!(c.pipe.l2_out_latency, 100, "Table 1: L2-to-DRAM latency");
        assert_eq!(c.timing, TimingParams::hbm_table1());
    }

    #[test]
    fn peak_bandwidth_near_435_gbs() {
        let c = SystemConfig::default();
        assert!((c.peak_host_bandwidth_gbs() - 435.2).abs() < 0.1);
    }

    #[test]
    fn validation_catches_mismatches() {
        let c = SystemConfig { channels: 8, ..SystemConfig::default() };
        assert!(c.validate().is_err());
        let c = SystemConfig { sms_used: 1, warps_per_sm: 2, ..SystemConfig::default() };
        assert!(c.validate().is_err(), "cannot cover 16 channels");
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn pim_slice_scales_with_bmf() {
        let mut e = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight));
        e.data_bytes_per_channel = 1 << 20;
        e.bmf = 16;
        assert_eq!(e.stripes_per_channel(), (1 << 20) / 32 / 16);
        e.bmf = 4;
        assert_eq!(e.stripes_per_channel(), (1 << 20) / 32 / 4);
        let g = ExperimentConfig {
            mode: ExecMode::Gpu,
            ..ExperimentConfig::new(WorkloadId::Add, ExecMode::Gpu)
        };
        assert_eq!(g.stripes_per_channel(), g.data_bytes_per_channel / 32);
    }

    #[test]
    fn seqnum_without_credits_is_rejected() {
        let mut e = ExperimentConfig::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::SeqNum));
        e.data_bytes_per_channel = 8 * 1024;
        e.validate().unwrap();
        e.seq_credits = 0;
        let err = e.validate().unwrap_err();
        assert!(err.to_string().contains("credits"), "{err}");
        // Credits only gate the seqnum baseline.
        e.mode = ExecMode::Pim(OrderingMode::OrderLight);
        e.validate().unwrap();
    }

    #[test]
    fn exec_mode_display() {
        assert_eq!(ExecMode::Gpu.to_string(), "gpu");
        assert_eq!(ExecMode::Pim(OrderingMode::Fence).to_string(), "pim-fence");
    }
}
