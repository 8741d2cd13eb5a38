//! The flag parser of the `orderlight` binary.
//!
//! Each subcommand declares the flags it reads as a table of [`Flag`]s,
//! built from the shared fragments [`RUN`], [`JOBS`], [`CORE`] and
//! [`DATA_KB`] plus its own, and [`parse`] makes one left-to-right pass
//! over its arguments: up to the allowed count of leading positionals,
//! then flags, each followed by its value if it takes one. A flag may
//! repeat; the getters of [`Args`] check every occurrence and return the
//! last. Only the three [`UsageError`]s come out, worded the same for
//! every subcommand.

use std::fmt;
use std::str::FromStr;

/// One flag a subcommand reads: its spellings, canonical first, and
/// whether a value follows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The spellings; the getters of [`Args`] take the first.
    pub names: &'static [&'static str],
    /// Whether the next argument is the flag's value.
    pub takes_value: bool,
}

/// A flag that takes a value.
#[must_use]
pub const fn value(names: &'static [&'static str]) -> Flag {
    Flag { names, takes_value: true }
}

/// A flag that takes no value.
#[must_use]
pub const fn switch(names: &'static [&'static str]) -> Flag {
    Flag { names, takes_value: false }
}

/// The scenario flags of the commands that run one scenario.
pub const RUN: &[Flag] = &[
    value(&["--workload", "-w"]),
    value(&["--mode", "-m"]),
    value(&["--ts"]),
    value(&["--bmf"]),
    value(&["--data-kb"]),
    value(&["--credits"]),
];

/// The worker count of the commands that run a pool.
pub const JOBS: &[Flag] = &[value(&["--jobs", "-j"])];

/// The most workers `--jobs` or `ORDERLIGHT_JOBS` may ask for. `serve`
/// spawns every worker when it starts, so an unbounded count would let
/// one typo start a hundred thousand threads.
pub const MAX_JOBS: usize = 256;

/// A worker count: an integer in `1..=MAX_JOBS`.
#[must_use]
pub fn jobs(value: &str) -> Option<usize> {
    value.parse().ok().filter(|n| (1..=MAX_JOBS).contains(n))
}

/// The simulation core of the commands that simulate.
pub const CORE: &[Flag] = &[value(&["--core"])];

/// The job size of the commands that run a series.
pub const DATA_KB: &[Flag] = &[value(&["--data-kb"])];

/// Why a command line was rejected; each is a usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// An argument in flag position that the subcommand does not read.
    UnknownFlag(String),
    /// A flag that takes a value, last on the line.
    MissingValue(String),
    /// A value its flag (or environment variable) does not accept.
    InvalidValue {
        /// The flag as spelled, or the variable's name.
        flag: String,
        /// The rejected value.
        value: String,
    },
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            UsageError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            UsageError::InvalidValue { flag, value } => {
                write!(f, "invalid value '{value}' for {flag}")
            }
        }
    }
}

impl std::error::Error for UsageError {}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args<'a> {
    /// The leading positionals.
    pub positionals: Vec<&'a str>,
    /// Every flag given, in order: canonical name, spelling, value (empty
    /// for a switch).
    given: Vec<(&'static str, &'a str, &'a str)>,
}

/// Parses `args`: at most `positionals` leading arguments that do not
/// start with `-`, then only flags of `table`.
///
/// # Errors
/// [`UsageError::UnknownFlag`] for an argument in flag position that is
/// not in `table`, [`UsageError::MissingValue`] for a value flag with
/// nothing after it.
pub fn parse<'a>(
    args: &'a [String],
    positionals: usize,
    table: &[&[Flag]],
) -> Result<Args<'a>, UsageError> {
    let lead = args.iter().take(positionals).take_while(|a| !a.starts_with('-')).count();
    let mut parsed =
        Args { positionals: args[..lead].iter().map(String::as_str).collect(), given: Vec::new() };
    let mut rest = args[lead..].iter();
    while let Some(arg) = rest.next() {
        let flag = table
            .iter()
            .flat_map(|fragment| fragment.iter())
            .find(|f| f.names.contains(&arg.as_str()))
            .ok_or_else(|| UsageError::UnknownFlag(arg.clone()))?;
        let value = if flag.takes_value {
            rest.next().ok_or_else(|| UsageError::MissingValue(arg.clone()))?
        } else {
            ""
        };
        parsed.given.push((flag.names[0], arg, value));
    }
    Ok(parsed)
}

impl<'a> Args<'a> {
    /// Whether the flag `name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|g| g.0 == name)
    }

    /// The canonical name of the last of `names` given.
    #[must_use]
    pub fn last_of(&self, names: &[&'static str]) -> Option<&'static str> {
        self.given.iter().rev().map(|g| g.0).find(|n| names.contains(n))
    }

    /// The value of the last `name`.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.given.iter().rev().find(|g| g.0 == name).map(|g| g.2)
    }

    /// The value of the last `name` through `convert`.
    ///
    /// # Errors
    /// [`UsageError::InvalidValue`] for the first occurrence `convert`
    /// rejects.
    pub fn get<T>(
        &self,
        name: &str,
        convert: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, UsageError> {
        let mut last = None;
        for &(_, flag, value) in self.given.iter().filter(|g| g.0 == name) {
            let invalid = || UsageError::InvalidValue { flag: flag.into(), value: value.into() };
            last = Some(convert(value).ok_or_else(invalid)?);
        }
        Ok(last)
    }

    /// [`Args::get`], else the environment variable `var` through
    /// `convert`, else `None`.
    ///
    /// # Errors
    /// As [`Args::get`] for the flag; [`UsageError::InvalidValue`]
    /// naming `var` when the flag is absent and `convert` rejects the
    /// variable's value.
    pub fn get_or_env<T>(
        &self,
        name: &str,
        var: &str,
        convert: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, UsageError> {
        if let Some(v) = self.get(name, &convert)? {
            return Ok(Some(v));
        }
        let Ok(value) = std::env::var(var) else { return Ok(None) };
        convert(&value).map(Some).ok_or(UsageError::InvalidValue { flag: var.into(), value })
    }

    /// [`Args::get`] through [`FromStr`].
    ///
    /// # Errors
    /// As [`Args::get`].
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        self.get(name, |v| v.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: &[Flag] = &[value(&["--out", "-o"]), switch(&["--once"])];

    fn argv(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn flags_anywhere_after_the_positional_and_the_last_wins() {
        let raw = argv(&["fig05", "--jobs", "3", "--core", "cycle", "-j", "4", "--once"]);
        let args = parse(&raw, 1, &[JOBS, CORE, OUT]).unwrap();
        assert_eq!(args.positionals, ["fig05"]);
        assert_eq!(args.parsed::<usize>("--jobs"), Ok(Some(4)));
        assert_eq!(args.value("--core"), Some("cycle"));
        assert!(args.switch("--once"));
        assert_eq!(args.value("--out"), None);
        assert_eq!(args.last_of(&["--out", "--once"]), Some("--once"));
    }

    #[test]
    fn short_spellings_and_absent_flags() {
        let raw = argv(&["-w", "KMeans", "-o", "x"]);
        let args = parse(&raw, 0, &[RUN, OUT]).unwrap();
        assert!(args.positionals.is_empty());
        assert_eq!(args.value("--workload"), Some("KMeans"));
        assert_eq!(args.value("--out"), Some("x"));
        assert_eq!(args.parsed::<u32>("--bmf"), Ok(None));
        assert!(!args.switch("--once"));
    }

    #[test]
    fn the_three_errors_name_the_flag_as_spelled() {
        let err = |raw: &[&str], table: &[&[Flag]]| {
            let raw = argv(raw);
            parse(&raw, 1, table).and_then(|a| a.parsed::<u64>("--jobs").map(|_| ())).unwrap_err()
        };
        assert_eq!(err(&["--seed", "1"], &[JOBS]).to_string(), "unknown flag --seed");
        // A second positional is in flag position.
        assert_eq!(err(&["Add", "Scale"], &[JOBS]).to_string(), "unknown flag Scale");
        assert_eq!(err(&["--jobs"], &[JOBS]).to_string(), "missing value for --jobs");
        // An earlier invalid occurrence fails even when a later one is valid.
        let bad = err(&["-j", "many", "--jobs", "2"], &[JOBS]);
        assert_eq!(bad.to_string(), "invalid value 'many' for -j");
        // A value may start with a dash.
        assert_eq!(err(&["--jobs", "-1"], &[JOBS]).to_string(), "invalid value '-1' for --jobs");
    }

    #[test]
    fn a_worker_count_is_bounded_on_both_sides() {
        assert_eq!(jobs("1"), Some(1));
        assert_eq!(jobs(&MAX_JOBS.to_string()), Some(MAX_JOBS));
        for rejected in ["0", "257", "100000", "many", ""] {
            assert_eq!(jobs(rejected), None, "{rejected:?}");
        }
        let raw = argv(&["serve", "--jobs", "100000"]);
        let args = parse(&raw, 1, &[JOBS]).unwrap();
        let err = args.get("--jobs", jobs).unwrap_err();
        assert_eq!(err.to_string(), "invalid value '100000' for --jobs");
    }
}
