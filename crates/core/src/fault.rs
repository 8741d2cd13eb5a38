//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] describes *schedule-legal* perturbations applied to a
//! run so the ordering-violation oracle (`orderlight-check`) is exercised
//! under stress: extra NoC delay within the pipe's allowed windows,
//! adversarial (but constraint-respecting) scheduler tie-breaks at the
//! memory controller, and refresh storms at the HBM channels. None of
//! these may change *functional* results on a correct simulator — that is
//! exactly what the oracle checks.
//!
//! The plan also carries the one deliberately *illegal* knob,
//! [`DropEdge`]: elide a single ordering edge inside the controller's
//! group-ordering unit. This mutation exists to prove the oracle fires
//! (and is rejected by CI's mutation gate when it does not).
//!
//! All randomness is drawn from the in-tree SplitMix64 [`Rng`], with
//! per-layer, per-channel seeds derived from the plan's master seed via
//! [`FaultPlan::layer_seed`] — identical plans yield bit-identical
//! perturbed schedules regardless of core selection or job parallelism.

use crate::rng::Rng;

/// Extra, bounded delay added to NoC delay-queue traversals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocJitter {
    /// Maximum extra cycles added to an item's ready stamp (inclusive).
    /// Each push draws uniformly from `0..=max_extra`.
    pub max_extra: u64,
}

impl Default for NocJitter {
    fn default() -> Self {
        // Roughly a quarter of the interconnect latency: enough to shift
        // arrival interleavings without dwarfing the pipe itself.
        NocJitter { max_extra: 32 }
    }
}

/// Randomized refresh cadence at the HBM channels.
///
/// Instead of a fixed tREFI, each refresh re-arms the next one after a
/// uniform draw from `min_interval..=max_interval` memory cycles. Short
/// intervals force frequent all-bank refreshes that close rows and stall
/// the channel — a worst case for row-hit-friendly schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshStorm {
    /// Minimum cycles between refreshes (inclusive).
    pub min_interval: u64,
    /// Maximum cycles between refreshes (inclusive).
    pub max_interval: u64,
    /// Refresh occupancy (tRFC) in memory cycles.
    pub rfc: u64,
}

impl Default for RefreshStorm {
    fn default() -> Self {
        // ~2-8x more frequent than HBM2's tREFI of 3315 cycles, with the
        // real tRFC-scale occupancy shortened so storms stress scheduling
        // rather than simply serializing the run.
        RefreshStorm { min_interval: 400, max_interval: 1600, rfc: 120 }
    }
}

/// The deliberate mutation: drop one ordering edge at the controller.
///
/// The group-ordering unit on `channel` ignores `group`'s contribution
/// when it builds barriers from merged OrderLight packets, so requests
/// to that group enqueued *after* a packet may overtake requests
/// enqueued *before* it. This is a seeded bug, not a fault: the oracle
/// must report it and the DRAM bytes go wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropEdge {
    /// Channel whose ordering unit is mutated.
    pub channel: u8,
    /// Memory group whose ordering edge is elided.
    pub group: u8,
}

/// The layers a fault plan can perturb (used for seed derivation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLayer {
    /// NoC delay-queue jitter.
    Noc,
    /// Memory-controller scheduler tie-breaks.
    Sched,
    /// HBM refresh storms.
    Refresh,
}

impl FaultLayer {
    fn salt(self) -> u64 {
        match self {
            FaultLayer::Noc => 0x4e6f_435f_6a69_7474,     // "NoC_jitt"
            FaultLayer::Sched => 0x5363_6865_645f_7462,   // "Sched_tb"
            FaultLayer::Refresh => 0x5265_6672_5f73_746d, // "Refr_stm"
        }
    }
}

/// A deterministic, seeded fault-injection plan.
///
/// # Example
///
/// ```
/// use orderlight::fault::{FaultLayer, FaultPlan};
///
/// let quiet = FaultPlan::none();
/// assert!(quiet.is_noop());
///
/// let a = FaultPlan::stress(7);
/// let b = FaultPlan::stress(7);
/// assert!(!a.is_noop());
/// assert_eq!(
///     a.layer_seed(FaultLayer::Noc, 3),
///     b.layer_seed(FaultLayer::Noc, 3),
///     "equal plans derive equal per-layer seeds",
/// );
/// assert_ne!(a.layer_seed(FaultLayer::Noc, 3), a.layer_seed(FaultLayer::Sched, 3));
/// assert_ne!(a.layer_seed(FaultLayer::Noc, 3), a.layer_seed(FaultLayer::Noc, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed all per-layer streams derive from.
    pub seed: u64,
    /// Extra NoC delay, if enabled.
    pub noc_jitter: Option<NocJitter>,
    /// Adversarial scheduler tie-breaks at the controllers.
    pub sched_adversary: bool,
    /// Refresh storms at the HBM channels, if enabled.
    pub refresh_storm: Option<RefreshStorm>,
    /// The deliberate ordering-edge mutation, if enabled.
    pub drop_edge: Option<DropEdge>,
}

impl FaultPlan {
    /// The empty plan: no perturbations, no mutation.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            noc_jitter: None,
            sched_adversary: false,
            refresh_storm: None,
            drop_edge: None,
        }
    }

    /// All three legal stress layers at their defaults, no mutation.
    #[must_use]
    pub fn stress(seed: u64) -> Self {
        FaultPlan {
            seed,
            noc_jitter: Some(NocJitter::default()),
            sched_adversary: true,
            refresh_storm: Some(RefreshStorm::default()),
            drop_edge: None,
        }
    }

    /// Whether the plan perturbs nothing (mutation included).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.noc_jitter.is_none()
            && !self.sched_adversary
            && self.refresh_storm.is_none()
            && self.drop_edge.is_none()
    }

    /// The seed for `layer`'s stream on `channel`, derived from the
    /// master seed with SplitMix64 so streams decorrelate across layers
    /// and channels even for small master seeds.
    #[must_use]
    pub fn layer_seed(&self, layer: FaultLayer, channel: u8) -> u64 {
        let mut r = Rng::new(self.seed ^ layer.salt().wrapping_add(u64::from(channel)));
        // Burn two outputs so adjacent (seed, salt) pairs diverge fully.
        r.next_u64();
        r.next_u64()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_detection() {
        assert!(FaultPlan::none().is_noop());
        assert!(!FaultPlan::stress(1).is_noop());
        let mutant =
            FaultPlan { drop_edge: Some(DropEdge { channel: 0, group: 0 }), ..FaultPlan::none() };
        assert!(!mutant.is_noop(), "the mutation is not a no-op");
    }

    #[test]
    fn layer_seeds_are_deterministic_and_distinct() {
        let p = FaultPlan::stress(42);
        let q = FaultPlan::stress(42);
        for ch in 0..16u8 {
            for layer in [FaultLayer::Noc, FaultLayer::Sched, FaultLayer::Refresh] {
                assert_eq!(p.layer_seed(layer, ch), q.layer_seed(layer, ch));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for ch in 0..16u8 {
            for layer in [FaultLayer::Noc, FaultLayer::Sched, FaultLayer::Refresh] {
                assert!(seen.insert(p.layer_seed(layer, ch)), "seed collision");
            }
        }
    }

    #[test]
    fn master_seed_changes_every_stream() {
        let a = FaultPlan::stress(1);
        let b = FaultPlan::stress(2);
        assert_ne!(a.layer_seed(FaultLayer::Sched, 0), b.layer_seed(FaultLayer::Sched, 0),);
    }
}
