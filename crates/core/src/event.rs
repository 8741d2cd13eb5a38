//! # The quiescence contract (event-driven time skipping)
//!
//! Dense per-cycle ticking wastes work on the long idle windows the
//! paper's workloads are full of: a fence-stalled warp waiting out a
//! ~440-core-cycle round trip, a bank sitting in the middle of `tRAS`,
//! a refresh countdown. The event core replaces those windows with one
//! jump, and [`NextEvent`] is the contract that makes the jump safe.
//!
//! Every component advertises the earliest future cycle at which it
//! *could* change observable state. The simulator takes the global
//! minimum across all components (and both clock domains) and advances
//! time straight to it, charging per-cycle stall counters for the span
//! in closed form so the statistics stay bit-identical to dense
//! ticking.
//!
//! ## Trait laws
//!
//! For `next_event(now)` evaluated between steps (i.e. with the
//! component in the settled state dense ticking would leave at `now`):
//!
//! 1. **No early action.** The component must not change observable
//!    state — outputs, statistics, accepted inputs, FSM transitions —
//!    at any cycle strictly before the advertised horizon. Skipping
//!    from `now` to `horizon` must therefore be indistinguishable from
//!    ticking every intermediate cycle.
//! 2. **Conservative is safe, late is incorrect.** Advertising a cycle
//!    *earlier* than the true next state change (even `Some(now)`,
//!    meaning "tick me densely") costs only speed. Advertising a cycle
//!    *later* than a real state change breaks bit-identity.
//! 3. **`None` means drained.** The component will never change state
//!    again without new external input. A component that is merely
//!    blocked on a peer must still return `None` only if the *peer's*
//!    unblocking is itself advertised by some component's horizon.
//! 4. **Purity.** `next_event` takes `&self` and must not mutate; the
//!    simulator may call it any number of times per step.
//!
//! The time unit is whatever clock domain the component lives in (core
//! cycles for SMs and the memory pipe, memory cycles for controllers
//! and DRAM); the `sim::System` horizon computation converts between
//! domains exactly via the `clock_acc` accumulator.

/// Earliest-future-activity contract for event-driven simulation.
///
/// See the [module documentation](self) for the four trait laws.
pub trait NextEvent {
    /// Returns the earliest cycle `>= now` at which this component can
    /// change observable state, or `None` if it is fully drained.
    ///
    /// `Some(now)` means "active right now — tick me densely".
    fn next_event(&self, now: u64) -> Option<u64>;
}

/// Folds two optional horizons into their minimum (`None` = drained).
#[must_use]
#[inline]
pub fn min_horizon(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) => Some(x),
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_horizon_folds_like_option_min() {
        assert_eq!(min_horizon(None, None), None);
        assert_eq!(min_horizon(Some(5), None), Some(5));
        assert_eq!(min_horizon(None, Some(7)), Some(7));
        assert_eq!(min_horizon(Some(5), Some(7)), Some(5));
        assert_eq!(min_horizon(Some(7), Some(5)), Some(5));
    }

    #[test]
    fn trait_is_object_safe() {
        struct Drained;
        impl NextEvent for Drained {
            fn next_event(&self, _now: u64) -> Option<u64> {
                None
            }
        }
        let c: &dyn NextEvent = &Drained;
        assert_eq!(c.next_event(0), None);
    }
}
