//! Simulation-core selection: dense cycle stepping vs event-driven
//! time skipping.
//!
//! [`crate::System`] has two bit-identical execution cores (see
//! `DESIGN.md`, "Quiescence contract"):
//!
//! * [`SimCore::Cycle`] — the classic dense loop: every core cycle and
//!   every memory cycle is ticked.
//! * [`SimCore::Event`] — between interesting cycles the system asks
//!   every component for its quiescence horizon
//!   ([`orderlight::NextEvent`]) and jumps straight to the global
//!   minimum, charging stall counters in closed form for the skipped
//!   span.
//!
//! Selection follows the `--jobs` / `ORDERLIGHT_JOBS` convention of the
//! `orderlight` binary: an explicit `--core` flag wins, then a
//! process-global override (set by binaries and tests instead of the
//! unsafe-in-threads `std::env::set_var`), then the `ORDERLIGHT_CORE`
//! environment variable, then the default — the event core. The binary
//! rejects an invalid `ORDERLIGHT_CORE` and installs its choice as the
//! override; [`resolve_core`] itself ignores one it cannot parse.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which execution core [`crate::System::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimCore {
    /// Dense per-cycle stepping.
    Cycle,
    /// Event-driven time skipping (bit-identical to `Cycle`; the
    /// default).
    #[default]
    Event,
}

impl SimCore {
    /// Parses `"cycle"` or `"event"` (the `--core` / `ORDERLIGHT_CORE`
    /// spellings).
    ///
    /// # Errors
    /// Returns a message naming the bad value.
    pub fn parse(s: &str) -> Result<SimCore, String> {
        match s {
            "cycle" => Ok(SimCore::Cycle),
            "event" => Ok(SimCore::Event),
            other => Err(format!("invalid core '{other}' (expected 'cycle' or 'event')")),
        }
    }

    /// The canonical spelling, as accepted by [`SimCore::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimCore::Cycle => "cycle",
            SimCore::Event => "event",
        }
    }
}

/// Process-global override: 0 = unset, 1 = cycle, 2 = event.
static CORE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Sets (or with `None` clears) a process-global core override. Sits
/// between an explicit flag and the `ORDERLIGHT_CORE` environment
/// variable in [`resolve_core`]'s precedence order; exists so tests
/// and binaries can steer core selection without mutating the process
/// environment (which is unsound once threads exist).
pub fn set_core_override(core: Option<SimCore>) {
    let v = match core {
        None => 0,
        Some(SimCore::Cycle) => 1,
        Some(SimCore::Event) => 2,
    };
    CORE_OVERRIDE.store(v, Ordering::Relaxed);
}

fn core_override() -> Option<SimCore> {
    match CORE_OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(SimCore::Cycle),
        2 => Some(SimCore::Event),
        _ => None,
    }
}

/// Resolves a `--core` setting: `Some` from a flag, else the
/// [`set_core_override`] process override, else the `ORDERLIGHT_CORE`
/// environment variable (ignored when unparseable), else
/// [`SimCore::Event`].
#[must_use]
pub fn resolve_core(flag: Option<SimCore>) -> SimCore {
    flag.or_else(core_override)
        .or_else(|| std::env::var("ORDERLIGHT_CORE").ok().and_then(|v| SimCore::parse(&v).ok()))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for core in [SimCore::Cycle, SimCore::Event] {
            assert_eq!(SimCore::parse(core.as_str()), Ok(core));
        }
        assert!(SimCore::parse("dense").is_err());
        assert!(SimCore::parse("").is_err());
    }

    #[test]
    fn explicit_flag_beats_override() {
        // Serialised against other tests by not touching the override
        // except under a restore guard.
        set_core_override(Some(SimCore::Cycle));
        assert_eq!(resolve_core(Some(SimCore::Event)), SimCore::Event);
        assert_eq!(resolve_core(None), SimCore::Cycle);
        set_core_override(None);
    }
}
