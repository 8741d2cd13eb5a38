//! Host diagnostics read from `/proc`: how contended and how costly a
//! run was, independent of the simulator. Every reader returns 0 where
//! the file is missing or unparsable, so the benchmark still runs off
//! Linux.

use std::fs;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, fixed at 100 by
/// the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// CPU (second field of `/proc/thread-self/schedstat`).
#[must_use]
pub fn thread_runqueue_wait_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Machine-wide steal time in milliseconds (the `steal` column of the
/// aggregate `cpu` line of `/proc/stat`).
#[must_use]
pub fn steal_ms() -> f64 {
    let ticks: u64 = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0);
    #[allow(clippy::cast_precision_loss)]
    let ms = ticks as f64 * 1000.0 / USER_HZ;
    ms
}

/// Minor page faults of this process so far (field 10 of
/// `/proc/self/stat`).
#[must_use]
pub fn minor_faults() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may contain spaces; fields resume after
            // its closing parenthesis at field 3.
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let kb: u64 = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0);
    #[allow(clippy::cast_precision_loss)]
    let mb = kb as f64 / 1024.0;
    mb
}

/// Process-wide counters sampled at the start of a run.
#[derive(Debug, Clone, Copy)]
pub struct HostStart {
    steal_ms: f64,
    minor_faults: u64,
}

impl HostStart {
    /// Samples the counters now.
    #[must_use]
    pub fn now() -> HostStart {
        HostStart { steal_ms: steal_ms(), minor_faults: minor_faults() }
    }

    /// `(steal ms, minor faults)` accrued since the sample.
    #[must_use]
    pub fn since(self) -> (f64, u64) {
        (steal_ms() - self.steal_ms, minor_faults().saturating_sub(self.minor_faults))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_do_not_go_backwards() {
        let start = HostStart::now();
        let v: Vec<u8> = vec![1; 1 << 20];
        std::hint::black_box(&v);
        let (steal, faults) = start.since();
        assert!(steal >= 0.0);
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(faults > 0, "touching 1 MiB faults pages in");
            assert!(peak_rss_mb() > 0.0);
        }
        let _ = thread_runqueue_wait_ns();
    }
}
