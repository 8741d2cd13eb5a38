//! Shared command-line flags for every `orderlight` subcommand.
//!
//! Every subcommand, the figure reports and the service client among
//! them, accepts the same execution flags, parsed once here:
//!
//! * `--jobs N` / `-j N` — worker count (else `ORDERLIGHT_JOBS`, else
//!   the host's available parallelism).
//! * `--core cycle|event` — execution core (else the process override,
//!   else `ORDERLIGHT_CORE`, else the event core).
//! * `--seed N` — master fault seed (default 0).
//! * `--ordering NAME` — execution mode, any spelling accepted by
//!   [`crate::schema::parse_mode`] (`gpu`, `none`, `fence`,
//!   `orderlight`/`ol`, `seqnum`, `louvre`, `bulk`); `None` when the
//!   flag is absent so each subcommand keeps its own default.
//!
//! [`take_common_flags`] is pure (no process exit, no global writes) so
//! it is unit-testable; [`CommonFlags::install_core`] applies the core
//! choice process-wide.

use crate::config::ExecMode;
use crate::core_select::{resolve_core, set_core_override, SimCore};
use crate::pool::resolve_jobs;
use crate::schema::parse_mode;

/// The parsed common execution flags, shared by every subcommand.
#[derive(Debug, Clone, Copy)]
pub struct CommonFlags {
    /// Worker count for pools (sweep jobs, service workers).
    pub jobs: usize,
    /// Execution core.
    pub core: SimCore,
    /// Master fault seed for stressed runs.
    pub seed: u64,
    /// Execution mode from `--ordering`, when given.
    pub ordering: Option<ExecMode>,
}

impl Default for CommonFlags {
    fn default() -> Self {
        CommonFlags { jobs: resolve_jobs(None), core: resolve_core(None), seed: 0, ordering: None }
    }
}

impl CommonFlags {
    /// Installs the chosen core as the process-global override so every
    /// [`crate::System`] built afterwards uses it.
    pub fn install_core(&self) {
        set_core_override(Some(self.core));
    }
}

/// Extracts the shared `--jobs/-j`, `--core`, `--seed` and `--ordering`
/// flags from a raw argument list, returning the remaining arguments
/// and the resolved [`CommonFlags`]. Flags may appear anywhere —
/// before or after the subcommand name — and environment fallbacks
/// (`ORDERLIGHT_JOBS`, `ORDERLIGHT_CORE`) apply when a flag is absent.
///
/// # Errors
/// Returns a message naming the flag with a missing or invalid value.
pub fn take_common_flags(args: &[String]) -> Result<(Vec<String>, CommonFlags), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut jobs = None;
    let mut core = None;
    let mut seed = 0u64;
    let mut ordering = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--jobs" | "-j" => {
                let v = value(a)?;
                jobs = Some(v.parse::<usize>().map_err(|_| invalid(a, &v))?);
            }
            "--core" => core = Some(SimCore::parse(&value(a)?)?),
            "--seed" => {
                let v = value(a)?;
                seed = v.parse::<u64>().map_err(|_| invalid(a, &v))?;
            }
            "--ordering" => {
                let v = value(a)?;
                ordering = Some(parse_mode(&v).ok_or_else(|| invalid(a, &v))?);
            }
            _ => rest.push(a.clone()),
        }
    }
    let flags = CommonFlags { jobs: resolve_jobs(jobs), core: resolve_core(core), seed, ordering };
    Ok((rest, flags))
}

fn invalid(flag: &str, value: &str) -> String {
    format!("invalid value '{value}' for {flag}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight_workloads::OrderingMode;

    fn argv(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn strips_all_common_flags_anywhere() {
        let (rest, flags) = take_common_flags(&argv(&[
            "sweep",
            "--jobs",
            "3",
            "fig05",
            "--core",
            "cycle",
            "--seed",
            "42",
            "--ordering",
            "louvre",
        ]))
        .unwrap();
        assert_eq!(rest, vec!["sweep", "fig05"]);
        assert_eq!(flags.jobs, 3);
        assert_eq!(flags.core, SimCore::Cycle);
        assert_eq!(flags.seed, 42);
        assert_eq!(flags.ordering, Some(ExecMode::Pim(OrderingMode::LouvreVersioned)));
    }

    #[test]
    fn short_jobs_flag_and_defaults() {
        let (rest, flags) = take_common_flags(&argv(&["-j", "2", "trace"])).unwrap();
        assert_eq!(rest, vec!["trace"]);
        assert_eq!(flags.jobs, 2);
        assert_eq!(flags.seed, 0);
        assert!(flags.ordering.is_none());
    }

    #[test]
    fn bad_values_are_named_errors() {
        for bad in [
            &["--jobs"][..],
            &["--jobs", "many"][..],
            &["--core", "dense"][..],
            &["--seed", "-1"][..],
            &["--ordering", "tso"][..],
        ] {
            let err = take_common_flags(&argv(bad)).unwrap_err();
            let flag_word = bad[0].trim_start_matches('-');
            assert!(err.contains(flag_word), "error '{err}' should name {flag_word}");
        }
    }
}
