//! The typed front door for assembling and running experiments.
//!
//! [`ScenarioBuilder`] gathers everything a run needs — workload,
//! execution mode, kernel parameters, system overrides, execution core,
//! trace sink, fault plan and cycle budget — into one validated
//! [`Scenario`]. It replaces the historical pattern of mutating an
//! [`ExperimentConfig`] field by field and threading core / sink
//! selections through ad-hoc arguments and environment variables: the
//! CLI and the experiment runners all build a `Scenario` and call
//! [`Scenario::run`]. A single run has no worker count: sweeps run
//! their scenarios through [`crate::experiments::Runner`].
//!
//! ```
//! use orderlight_sim::scenario::ScenarioBuilder;
//! use orderlight_sim::config::ExecMode;
//! use orderlight_workloads::{OrderingMode, WorkloadId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stats = ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight))
//!     .data_bytes_per_channel(8 * 1024) // keep the doctest fast
//!     .build()?
//!     .run()?;
//! assert!(stats.is_correct());
//! # Ok(())
//! # }
//! ```

use crate::config::{ExecMode, ExperimentConfig, SystemConfig};
use crate::experiments::apply_sm_policy;
use crate::stats::RunStats;
use crate::system::{SimCore, SimError, System};
use orderlight::fault::FaultPlan;
use orderlight::ConfigError;
use orderlight_pim::TsSize;
use orderlight_trace::SharedSink;
use orderlight_workloads::WorkloadId;

/// Default cycle budget for a scenario: generous headroom plus a
/// per-stripe allowance (a run that exceeds it is treated as a
/// deadlock). It saturates at `u64::MAX` (no limit) for a job too large
/// to count, which [`ExperimentConfig::validate`] rejects anyway.
#[must_use]
pub fn default_budget(exp: &ExperimentConfig) -> u64 {
    exp.stripes_per_channel()
        .checked_mul(20_000)
        .and_then(|allowance| allowance.checked_add(200_000_000))
        .unwrap_or(u64::MAX)
}

/// A fully-specified, validated run. Build one with [`ScenarioBuilder`].
#[derive(Debug, Clone)]
pub struct Scenario {
    exp: ExperimentConfig,
    core: SimCore,
    faults: FaultPlan,
    sink: Option<SharedSink>,
    budget: Option<u64>,
}

impl Scenario {
    /// The underlying experiment configuration.
    #[must_use]
    pub fn experiment(&self) -> &ExperimentConfig {
        &self.exp
    }

    /// The fault plan (noop unless the builder set one).
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The execution core this scenario runs on: the builder's pin
    /// ([`ScenarioBuilder::core`], which only reference runs set), else
    /// [`SimCore::Event`].
    #[must_use]
    pub fn core(&self) -> SimCore {
        self.core
    }

    /// The cycle budget: the builder's explicit choice, else
    /// [`default_budget`].
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget.unwrap_or_else(|| default_budget(&self.exp))
    }

    /// Builds the [`System`] for this scenario: constructs it from the
    /// experiment, applies the fault plan, and attaches the trace sink
    /// (if any). The caller owns the run loop — [`Scenario::run`] is the
    /// packaged version.
    ///
    /// # Errors
    /// Returns [`SimError`] if the experiment fails to build.
    pub fn system(&self) -> Result<System, SimError> {
        let mut sys = System::build(self.exp.clone())?;
        sys.apply_faults(&self.faults);
        if let Some(sink) = &self.sink {
            sys.attach_sink(sink.clone());
        }
        Ok(sys)
    }

    /// Builds, runs to completion on [`Scenario::core`], and verifies.
    ///
    /// # Errors
    /// Returns [`SimError`] on build failure or budget exhaustion.
    pub fn run(&self) -> Result<RunStats, SimError> {
        let mut sys = self.system()?;
        sys.run_with(self.budget(), self.core())
    }

    /// The canonical scenario hash — the service-cache key.
    ///
    /// Folds every **semantic** input of a run (workload, mode, TS
    /// size, BMF, job size, credits, the resolved cycle budget, the
    /// fault plan and the full system configuration) through SplitMix64,
    /// each field salted with its name. Two scenarios that would produce
    /// the same [`RunStats`] by construction hash equal no matter how
    /// they were spelled (JSON field order, `data_kb` vs `data_bytes`,
    /// defaults left implicit vs written out), and changing any single
    /// field changes the hash.
    ///
    /// Execution knobs that provably do *not* affect results are
    /// excluded: the core (cycle/event bit-identity contract) and the
    /// trace sink (observe-only contract). This is what makes a cache
    /// reply exact: `System::run` is a pure function of exactly the
    /// hashed fields.
    #[must_use]
    pub fn canonical_hash(&self) -> u64 {
        let mut h = fold_str(0x6f72_6465_726c_6967, "orderlight/scenario/v1");
        h = fold_str(h, "workload");
        h = fold_str(h, self.exp.workload.meta().name);
        h = fold_str(h, "mode");
        h = fold_str(h, &self.exp.mode.to_string());
        h = fold_u64(fold_str(h, "ts"), self.exp.ts_size.denominator());
        h = fold_u64(fold_str(h, "bmf"), u64::from(self.exp.bmf));
        h = fold_u64(fold_str(h, "data_bytes"), self.exp.data_bytes_per_channel);
        h = fold_u64(fold_str(h, "credits"), u64::from(self.exp.seq_credits));
        h = fold_u64(fold_str(h, "budget"), self.budget());
        // The fault plan and system configuration are folded through
        // their derived Debug forms: every public knob appears there, so
        // a change to any nested field (scheduler depth, refresh window,
        // pipe latency, jitter bound ...) perturbs the hash without this
        // function having to enumerate — and chase — them all.
        h = fold_str(fold_str(h, "faults"), &format!("{:?}", self.faults));
        fold_str(fold_str(h, "system"), &format!("{:?}", self.exp.system))
    }

    /// Like [`Scenario::run`], but also returns the system's clock
    /// domains — exporters need them to place core- and memory-clocked
    /// trace events on one time axis.
    ///
    /// # Errors
    /// Returns [`SimError`] on build failure or budget exhaustion.
    pub fn run_with_clocks(&self) -> Result<(RunStats, orderlight_trace::ClockDomains), SimError> {
        let mut sys = self.system()?;
        let clocks = sys.clock_domains();
        let stats = sys.run_with(self.budget(), self.core())?;
        Ok((stats, clocks))
    }
}

/// One SplitMix64 step: scrambles the accumulated state with the next
/// 64-bit word. The underlying generator passes BigCrush, so single-bit
/// input changes diffuse through the whole state.
fn fold_u64(h: u64, v: u64) -> u64 {
    orderlight::rng::Rng::new(h ^ v).next_u64()
}

/// Folds a string: its length, then each 8-byte chunk (zero-padded).
/// The length prefix keeps `("ab", "c")` and `("a", "bc")` distinct
/// across adjacent folds.
fn fold_str(h: u64, s: &str) -> u64 {
    let mut h = fold_u64(h, s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = fold_u64(h, u64::from_le_bytes(word));
    }
    h
}

/// Builder for [`Scenario`] — the single typed entry point for
/// configuring a run (see the module docs).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    exp: ExperimentConfig,
    sm_policy: bool,
    core: SimCore,
    faults: FaultPlan,
    sink: Option<SharedSink>,
    budget: Option<u64>,
}

impl ScenarioBuilder {
    /// Starts from the paper defaults for `workload` under `mode`. The
    /// paper's SM-allocation policy ([`apply_sm_policy`]) is applied at
    /// [`build`](Self::build) time unless
    /// [`keep_sm_allocation`](Self::keep_sm_allocation) is called.
    #[must_use]
    pub fn new(workload: WorkloadId, mode: ExecMode) -> Self {
        Self::from_experiment(ExperimentConfig::new(workload, mode))
    }

    /// Wraps an existing experiment configuration — the migration path
    /// for call sites that already hold an [`ExperimentConfig`].
    #[must_use]
    pub fn from_experiment(exp: ExperimentConfig) -> Self {
        ScenarioBuilder {
            exp,
            sm_policy: true,
            core: SimCore::Event,
            faults: FaultPlan::none(),
            sink: None,
            budget: None,
        }
    }

    /// Sets the PIM temporary-storage size (ignored in GPU mode).
    #[must_use]
    pub fn ts_size(mut self, ts: TsSize) -> Self {
        self.exp.ts_size = ts;
        self
    }

    /// Sets the bandwidth multiplication factor.
    #[must_use]
    pub fn bmf(mut self, bmf: u32) -> Self {
        self.exp.bmf = bmf;
        self
    }

    /// Sets the bytes per data structure per channel.
    #[must_use]
    pub fn data_bytes_per_channel(mut self, bytes: u64) -> Self {
        self.exp.data_bytes_per_channel = bytes;
        self
    }

    /// Sets the data size in KiB per structure per channel. A size whose
    /// byte count overflows `u64` saturates, and [`build`](Self::build)
    /// then rejects it as too large for the banks.
    #[must_use]
    pub fn data_kb(self, kb: u64) -> Self {
        self.data_bytes_per_channel(kb.saturating_mul(1024))
    }

    /// Sets the sequence-number baseline's credit count.
    #[must_use]
    pub fn seq_credits(mut self, credits: u32) -> Self {
        self.exp.seq_credits = credits;
        self
    }

    /// Replaces the whole system configuration (implies the caller owns
    /// the SM allocation: the paper policy is skipped).
    #[must_use]
    pub fn system(mut self, system: SystemConfig) -> Self {
        self.exp.system = system;
        self.sm_policy = false;
        self
    }

    /// Adjusts the system configuration in place — for nested knobs
    /// (scheduler depths, pipe latencies, refresh parameters) without
    /// rebuilding the whole [`SystemConfig`].
    #[must_use]
    pub fn tune_system(mut self, f: impl FnOnce(&mut SystemConfig)) -> Self {
        f(&mut self.exp.system);
        self
    }

    /// Keeps the current SM allocation instead of applying the paper's
    /// mode-dependent policy at build time.
    #[must_use]
    pub fn keep_sm_allocation(mut self) -> Self {
        self.sm_policy = false;
        self
    }

    /// Pins the execution core (the event core otherwise). The
    /// differential tests and `orderlight bench` pin [`SimCore::Cycle`]
    /// as the reference the event core must match.
    #[must_use]
    pub fn core(mut self, core: SimCore) -> Self {
        self.core = core;
        self
    }

    /// Installs a fault plan (see [`FaultPlan`]); [`FaultPlan::none`]
    /// by default.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Re-seeds the current fault plan's master seed without changing
    /// which layers are enabled.
    #[must_use]
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.faults.seed = seed;
        self
    }

    /// Attaches a trace sink to the built systems. Sinks observe the
    /// same event stream under either core — see
    /// [`System::attach_sink`].
    #[must_use]
    pub fn trace(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Overrides the cycle budget ([`default_budget`] otherwise).
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Applies the SM policy (unless disabled), validates, and returns
    /// the immutable [`Scenario`].
    ///
    /// # Errors
    /// Returns [`ConfigError`] naming the offending value if the
    /// assembled experiment is inconsistent, or if the fault plan
    /// mutates a channel the system does not have.
    pub fn build(self) -> Result<Scenario, ConfigError> {
        let ScenarioBuilder { mut exp, sm_policy, core, faults, sink, budget } = self;
        if sm_policy {
            apply_sm_policy(&mut exp);
        }
        exp.validate()?;
        if let Some(edge) = faults.drop_edge {
            if usize::from(edge.channel) >= exp.system.channels {
                return Err(ConfigError::new(format!(
                    "mutated channel must exist (drop_edge channel = {}, valid range 0..{})",
                    edge.channel, exp.system.channels
                )));
            }
        }
        Ok(Scenario { exp, core, faults, sink, budget })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight_workloads::OrderingMode;

    #[test]
    fn builder_applies_the_sm_policy_by_default() {
        let s = ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence))
            .data_kb(8)
            .build()
            .unwrap();
        assert_eq!(s.experiment().system.sms_used, 2);
        assert_eq!(s.experiment().system.warps_per_sm, 8);
        let s = ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence))
            .data_kb(8)
            .keep_sm_allocation()
            .build()
            .unwrap();
        assert_eq!(s.experiment().system.sms_used, SystemConfig::default().sms_used);
    }

    #[test]
    fn oversized_jobs_saturate_the_budget_and_fail_validation() {
        let mut exp = ExperimentConfig::new(WorkloadId::Add, ExecMode::Gpu);
        exp.data_bytes_per_channel = 9_000_000_000_000_000 * 1024;
        assert_eq!(default_budget(&exp), u64::MAX);
        let err = ScenarioBuilder::from_experiment(exp).build().unwrap_err();
        assert!(err.to_string().contains("exceeds the bank regions"), "got: {err}");
        let err = ScenarioBuilder::new(WorkloadId::Add, ExecMode::Gpu)
            .data_kb(u64::MAX)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("exceeds the bank regions"), "got: {err}");
    }

    #[test]
    fn builder_rejects_invalid_configs_with_values() {
        let err = ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight))
            .bmf(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("bmf = 0"), "got: {err}");
        // A mutation must name a channel the system has (16 here).
        let mutate = |channel| {
            let edge = orderlight::fault::DropEdge { channel, group: 0 };
            ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight))
                .faults(FaultPlan { drop_edge: Some(edge), ..FaultPlan::none() })
                .build()
        };
        let err = mutate(16).unwrap_err();
        assert!(err.to_string().contains("drop_edge channel = 16, valid range 0..16"), "{err}");
        assert!(mutate(15).is_ok());
    }

    #[test]
    fn fault_seed_reseeds_without_toggling_layers() {
        let s = ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight))
            .faults(FaultPlan::stress(7))
            .fault_seed(9)
            .build()
            .unwrap();
        assert_eq!(s.faults().seed, 9);
        assert!(s.faults().sched_adversary);
    }

    #[test]
    fn canonical_hash_ignores_spelling_but_not_semantics() {
        use crate::schema::ScenarioSpec;
        // Three textually different documents for the same scenario:
        // reordered fields, data_kb vs data_bytes, defaults explicit vs
        // implicit (bmf/credits/mode written out vs omitted).
        let texts = [
            r#"{"schema": "orderlight/scenario/v1", "workload": "Add", "data_kb": 8}"#,
            r#"{"data_bytes": 8192, "workload": "add", "schema": "orderlight/scenario/v1"}"#,
            concat!(
                r#"{"schema": "orderlight/scenario/v1", "mode": "orderlight", "bmf": 16,"#,
                r#" "credits": 32, "ts": 8, "workload": "Add", "data_kb": 8}"#
            ),
        ];
        let hashes: Vec<u64> = texts
            .iter()
            .map(|t| ScenarioSpec::parse_str(t).unwrap().build().unwrap().canonical_hash())
            .collect();
        assert_eq!(hashes[0], hashes[1], "data_kb vs data_bytes must not matter");
        assert_eq!(hashes[0], hashes[2], "explicit defaults must not matter");
        // The execution core is excluded from the key.
        let base = ScenarioSpec::parse_str(texts[0]).unwrap();
        let tuned = base.builder().core(SimCore::Cycle).build().unwrap();
        assert_eq!(tuned.canonical_hash(), hashes[0]);
    }

    #[test]
    fn canonical_hash_changes_with_every_field() {
        let base = || {
            ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::OrderLight))
                .data_kb(8)
        };
        let h0 = base().build().unwrap().canonical_hash();
        let variants = [
            (
                "workload",
                ScenarioBuilder::new(WorkloadId::Copy, ExecMode::Pim(OrderingMode::OrderLight))
                    .data_kb(8),
            ),
            (
                "mode",
                ScenarioBuilder::new(WorkloadId::Add, ExecMode::Pim(OrderingMode::Fence))
                    .data_kb(8),
            ),
            ("ts", base().ts_size(TsSize::Half)),
            ("bmf", base().bmf(4)),
            ("data", base().data_kb(16)),
            ("credits", base().seq_credits(8)),
            ("budget", base().budget(123_456)),
            ("faults", base().faults(FaultPlan::stress(3))),
            ("fault_seed", base().faults(FaultPlan::stress(4))),
            ("system", base().tune_system(|sys| sys.mc.scan_depth = 3)),
        ];
        let mut seen = vec![h0];
        for (name, builder) in variants {
            let h = builder.build().unwrap().canonical_hash();
            assert!(!seen.contains(&h), "'{name}' change did not change the hash");
            seen.push(h);
        }
    }

    #[test]
    fn tune_system_reaches_nested_knobs() {
        let s = ScenarioBuilder::new(WorkloadId::Add, ExecMode::Gpu)
            .data_kb(4)
            .tune_system(|sys| sys.mc.scan_depth = 3)
            .build()
            .unwrap();
        assert_eq!(s.experiment().system.mc.scan_depth, 3);
    }
}
