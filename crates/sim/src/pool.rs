//! Scoped-thread job pool with deterministic, input-order results.
//!
//! Every design-space sweep in [`crate::experiments`] is a list of
//! *independent* full-system runs, so the natural unit of parallelism
//! is the run, not the cycle loop (the coarse run-level parallelism
//! GPGPU-Sim-class simulators use for their sweeps). [`Pool`] executes
//! a vector of jobs across N OS threads via [`std::thread::scope`] —
//! no external dependencies, no detached threads — while guaranteeing:
//!
//! * **Input-order results.** Job `i`'s result lands in slot `i` of the
//!   output vector no matter which worker ran it or when it finished.
//! * **Bit-identical results.** A job must be a pure function of its
//!   spec (asserted for the sweep layer by
//!   `tests/parallel_equivalence.rs`): nothing in the pool leaks worker
//!   identity, scheduling order, or wall-clock into a job.
//! * **Serial fallback.** A one-worker pool runs jobs inline on the
//!   caller's thread, in input order — byte-for-byte the classic serial
//!   loop.
//!
//! The determinism contract is test-enforced: serial execution and any
//! worker count produce the same `Vec<T>`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of jobs to use when the caller does not say: the host's
/// available parallelism (1 if it cannot be determined).
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a `--jobs` setting: `Some(n)` from a flag, else the
/// `ORDERLIGHT_JOBS` environment variable, else [`available_jobs`].
/// Zero is clamped to 1.
#[must_use]
pub fn resolve_jobs(flag: Option<usize>) -> usize {
    flag.or_else(|| std::env::var("ORDERLIGHT_JOBS").ok().and_then(|v| v.parse().ok()))
        .unwrap_or_else(available_jobs)
        .max(1)
}

/// A fixed-width scoped-thread job pool. Cheap to construct; spawns
/// threads only for the duration of one [`Pool::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool of `workers` threads (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Pool {
        Pool { workers: workers.max(1) }
    }

    /// A pool sized to the host's available parallelism.
    #[must_use]
    pub fn with_available() -> Pool {
        Pool::new(available_jobs())
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `jobs` and returns their results **in input order**.
    ///
    /// With one worker (or at most one job) the jobs run inline on the
    /// calling thread — the exact serial loop. Otherwise workers pull
    /// the next unclaimed index from a shared atomic counter and write
    /// the result into that index's slot, so the output order never
    /// depends on scheduling. If a job panics, the panic is propagated
    /// to the caller once every worker has stopped (the scope joins all
    /// threads first).
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        if self.workers == 1 || jobs.len() <= 1 {
            return jobs.into_iter().map(|f| f()).collect();
        }
        let n = jobs.len();
        let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = jobs[i].lock().expect("job mutex").take().expect("job claimed once");
                    let out = job();
                    *slots[i].lock().expect("slot mutex") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot mutex").expect("every job ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        // Jobs deliberately finish out of order (later jobs are
        // cheaper); the output must still be 0..n.
        let jobs: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    let mut acc = 0u64;
                    for k in 0..(64 - i) * 1000 {
                        acc = acc.wrapping_add(k);
                    }
                    // `acc` depends only on `i`; return the pair so the
                    // busy-work cannot be optimised away.
                    (i, acc)
                }
            })
            .collect();
        let out = Pool::new(8).run(jobs);
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx as u64, *i);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let job_set =
            || (0..40u64).map(|i| move || i.wrapping_mul(0x9E37_79B9).rotate_left(7)).collect();
        let serial: Vec<u64> = Pool::new(1).run(job_set());
        for workers in [2usize, 3, 8, 64] {
            assert_eq!(Pool::new(workers).run(job_set()), serial, "workers={workers}");
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(Pool::new(0).workers(), 1);
        let out = Pool::new(0).run(vec![|| 42]);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn empty_and_single_job_lists() {
        let empty: Vec<fn() -> i32> = Vec::new();
        assert!(Pool::new(4).run(empty).is_empty());
        assert_eq!(Pool::new(4).run(vec![|| 7]), vec![7]);
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = Pool::new(32).run((0..3).map(|i| move || i * i).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    fn resolve_jobs_prefers_explicit_flag() {
        assert_eq!(resolve_jobs(Some(5)), 5);
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert!(resolve_jobs(None) >= 1);
    }
}
