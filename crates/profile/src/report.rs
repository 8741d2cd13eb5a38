//! The finished profile: per-cause stall attribution, lifecycle phase
//! latencies, and the conservation check against the run's counters.

use orderlight_sim::RunStats;
use orderlight_trace::json::Value;
use orderlight_trace::StallCause;
use std::fmt::Write as _;

/// The schema tag of [`ProfileReport::to_json`] documents.
pub const PROFILE_SCHEMA: &str = "orderlight/profile/v1";

/// Latency aggregate for one lifecycle phase, in the phase's own clock
/// domain (stated per field on [`ProfileReport`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLat {
    /// Spans observed.
    pub count: u64,
    /// Total cycles across spans.
    pub sum: u64,
    /// Longest single span.
    pub max: u64,
}

impl PhaseLat {
    /// Folds one span in.
    pub fn note(&mut self, cycles: u64) {
        self.count += 1;
        self.sum += cycles;
        self.max = self.max.max(cycles);
    }

    /// Mean span length (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The NoC-traversal aggregate. This phase crosses clock domains (a
/// packet is created on the core clock and arrives on the memory
/// clock), so it is kept in wall-clock microseconds rather than cycles.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NocLat {
    /// Traversals observed.
    pub count: u64,
    /// Total wall time across traversals.
    pub sum_us: f64,
    /// Longest single traversal.
    pub max_us: f64,
}

impl NocLat {
    /// Folds one traversal in.
    pub fn note(&mut self, us: f64) {
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
    }

    /// Mean traversal time (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }
}

/// Everything the profiler distilled from one run's event stream.
///
/// Core-side attribution (`stalls`) is exact by construction — the SMs
/// emit a `CoreStall` run for every cycle they charge to a counter —
/// and [`ProfileReport::verify`] enforces it. Memory-side phases are a
/// latency decomposition of the request/packet lifecycle, each in the
/// clock domain of the component that measured it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ProfileReport {
    /// Label of the memory-controller ordering backend the profiled
    /// run hosted ("orderlight", "fence", "seqnum", "louvre", "bulk";
    /// empty when the harness did not tag the run). Stall causes in
    /// this report are read against this backend: `ol_wait` under
    /// `louvre` is release-version spacing, `credit_wait` only exists
    /// under `seqnum`, and so on.
    pub ordering: String,
    /// Attributed stall cycles, indexed by `StallCause as usize`
    /// (declaration order, same as [`StallCause::ALL`]); core cycles.
    pub stalls: [u64; StallCause::ALL.len()],
    /// Trace events consumed.
    pub events: u64,
    /// Fence-stall begin → acknowledgement arrival, per warp and fence
    /// (core cycles).
    pub fence_round_trip: PhaseLat,
    /// Packet copy at the controller → all copies merged: the
    /// OrderLight barrier hold (memory cycles).
    pub barrier_hold: PhaseLat,
    /// Request residency in the MC ingress transaction queues — the
    /// queue-backpressure phase (memory cycles).
    pub mc_queue_wait: PhaseLat,
    /// Dequeue → column/execute command issue: bank-timing and
    /// row-conflict wait (memory cycles).
    pub bank_wait: PhaseLat,
    /// Host read arrival → column issue, as reported by the controller
    /// (memory cycles).
    pub host_read: PhaseLat,
    /// Packet creation at the SM → copy arrival at the controller, on
    /// the wall clock (crosses domains).
    pub noc_delay: NocLat,
    /// All-bank refresh windows opened.
    pub refresh_windows: u64,
    /// Memory cycles channels spent locked out refreshing.
    pub refresh_cycles: u64,
    /// NoC pipe occupancy samples seen.
    pub pipe_samples: u64,
    /// Sum of sampled in-flight request counts.
    pub pipe_in_flight_sum: u64,
    /// Peak sampled in-flight request count.
    pub pipe_in_flight_max: u32,
    /// Sum of sampled return-path response counts.
    pub pipe_returning_sum: u64,
    /// MC transaction-queue occupancy samples seen.
    pub queue_samples: u64,
    /// Sum of sampled read-queue occupancies.
    pub queue_read_sum: u64,
    /// Sum of sampled write-queue occupancies.
    pub queue_write_sum: u64,
    /// OrderLight packets created at the SMs.
    pub packets_created: u64,
    /// Packet copies that reached controller queues.
    pub packets_enqueued: u64,
    /// Packet merges at the schedulers.
    pub packets_merged: u64,
    /// Fence acknowledgements generated by controllers.
    pub fence_acks: u64,
    /// Requests entering controller queues.
    pub reqs_enqueued: u64,
    /// Requests dequeued by the schedulers.
    pub reqs_dequeued: u64,
    /// Requests whose column/execute command issued.
    pub reqs_issued: u64,
    /// Lifecycle spans still open when the report was taken (a fence
    /// begun but never acknowledged, a packet never merged, a request
    /// never issued).
    pub unmatched: u64,
}

impl ProfileReport {
    /// Attributed stall cycles for one cause.
    #[must_use]
    pub fn stall(&self, cause: StallCause) -> u64 {
        self.stalls[cause as usize]
    }

    /// Total stall cycles attributed across all causes.
    #[must_use]
    pub fn total_attributed(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// The conservation equations as `(counter, attributed, counted)`:
    /// per-cause attributed cycles against the stall counters the SMs
    /// maintain independently, then the totals. The `fence` counter
    /// aggregates two attributed causes (parked warps waiting for the
    /// acknowledgement, and issue held while stores drain ahead of the
    /// fence).
    #[must_use]
    pub fn conservation(&self, stats: &RunStats) -> [(&'static str, u64, u64); 6] {
        let sm = &stats.sm;
        [
            (
                "fence",
                self.stall(StallCause::FenceWait) + self.stall(StallCause::FenceDrain),
                sm.fence_stall_cycles,
            ),
            ("ol_wait", self.stall(StallCause::OlWait), sm.ol_wait_cycles),
            ("reg_wait", self.stall(StallCause::RegWait), sm.reg_wait_cycles),
            ("structural", self.stall(StallCause::Structural), sm.structural_stall_cycles),
            ("credit_wait", self.stall(StallCause::CreditWait), sm.credit_wait_cycles),
            ("total", self.total_attributed(), stats.stall_cycles()),
        ]
    }

    /// The conservation invariant: every equation of
    /// [`ProfileReport::conservation`] holds.
    ///
    /// # Errors
    /// Returns every violated equation, formatted one per clause.
    pub fn verify(&self, stats: &RunStats) -> Result<(), String> {
        let bad: Vec<String> = self
            .conservation(stats)
            .iter()
            .filter(|(_, attributed, counted)| attributed != counted)
            .map(|(name, attributed, counted)| {
                format!("{name}: attributed {attributed} != counted {counted}")
            })
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(format!("stall conservation violated — {}", bad.join("; ")))
        }
    }

    /// The human-readable per-phase report.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let total = self.total_attributed();
        out.push_str("stall attribution (core cycles)\n");
        for cause in StallCause::ALL {
            let cycles = self.stall(cause);
            let share = if total == 0 { 0.0 } else { 100.0 * cycles as f64 / total as f64 };
            let _ = writeln!(out, "  {:<12} {:>12}  {:>5.1}%", cause.label(), cycles, share);
        }
        let _ = writeln!(out, "  {:<12} {:>12}", "total", total);
        out.push_str("\npacket lifecycle (mean/max per span)\n");
        let _ = writeln!(out, "  {:<28} {:>8} {:>10} {:>8}", "phase", "count", "mean", "max");
        let rows = [
            ("mc ingress queue (mem cyc)", &self.mc_queue_wait),
            ("bank timing wait (mem cyc)", &self.bank_wait),
            ("barrier hold (mem cyc)", &self.barrier_hold),
            ("fence round trip (core cyc)", &self.fence_round_trip),
            ("host read service (mem cyc)", &self.host_read),
        ];
        for (name, lat) in rows {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>10.1} {:>8}",
                name,
                lat.count,
                lat.mean(),
                lat.max
            );
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>10.4} {:>8.4}",
            "noc traversal (us)",
            self.noc_delay.count,
            self.noc_delay.mean_us(),
            self.noc_delay.max_us
        );
        let _ = writeln!(
            out,
            "\nrefresh: {} window(s), {} mem cycles locked out",
            self.refresh_windows, self.refresh_cycles
        );
        let _ = writeln!(
            out,
            "packets: {} created / {} enqueued / {} merged; fence acks: {}",
            self.packets_created, self.packets_enqueued, self.packets_merged, self.fence_acks
        );
        let _ = writeln!(
            out,
            "requests: {} enqueued / {} dequeued / {} issued; open spans: {}",
            self.reqs_enqueued, self.reqs_dequeued, self.reqs_issued, self.unmatched
        );
        out
    }

    /// Machine-readable JSON in the canonical form of
    /// [`Value::to_json`], so identical reports serialize to identical
    /// bytes (the `--jobs` determinism tests compare these strings
    /// directly).
    #[must_use]
    pub fn to_json(&self) -> String {
        let counts =
            |fields: &[(&str, u64)]| Value::obj(fields.iter().map(|&(k, n)| (k, n.into())));
        let phase =
            |lat: &PhaseLat| counts(&[("count", lat.count), ("sum", lat.sum), ("max", lat.max)]);
        let mut stalls = StallCause::ALL.map(|cause| (cause.label(), self.stall(cause))).to_vec();
        stalls.push(("total", self.total_attributed()));
        let noc = &self.noc_delay;
        let noc =
            [("count", noc.count.into()), ("sum", noc.sum_us.into()), ("max", noc.max_us.into())];
        let phases = Value::obj([
            ("mc_queue_wait", phase(&self.mc_queue_wait)),
            ("bank_wait", phase(&self.bank_wait)),
            ("barrier_hold", phase(&self.barrier_hold)),
            ("fence_round_trip", phase(&self.fence_round_trip)),
            ("host_read", phase(&self.host_read)),
            ("noc_delay_us", Value::obj(noc)),
        ]);
        let pipes = [
            ("samples", self.pipe_samples),
            ("in_flight_sum", self.pipe_in_flight_sum),
            ("in_flight_max", u64::from(self.pipe_in_flight_max)),
            ("returning_sum", self.pipe_returning_sum),
        ];
        Value::obj([
            ("schema", PROFILE_SCHEMA.into()),
            ("ordering", self.ordering.as_str().into()),
            ("events", self.events.into()),
            ("stalls", counts(&stalls)),
            ("phases", phases),
            (
                "refresh",
                counts(&[("windows", self.refresh_windows), ("cycles", self.refresh_cycles)]),
            ),
            ("pipes", counts(&pipes)),
            (
                "queues",
                counts(&[
                    ("samples", self.queue_samples),
                    ("read_sum", self.queue_read_sum),
                    ("write_sum", self.queue_write_sum),
                ]),
            ),
            (
                "packets",
                counts(&[
                    ("created", self.packets_created),
                    ("enqueued", self.packets_enqueued),
                    ("merged", self.packets_merged),
                ]),
            ),
            (
                "requests",
                counts(&[
                    ("enqueued", self.reqs_enqueued),
                    ("dequeued", self.reqs_dequeued),
                    ("issued", self.reqs_issued),
                ]),
            ),
            ("fence_acks", self.fence_acks.into()),
            ("unmatched", self.unmatched.into()),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_accepts_matching_counters_and_names_the_violation() {
        let mut report = ProfileReport::default();
        report.stalls[StallCause::FenceWait as usize] = 30;
        report.stalls[StallCause::FenceDrain as usize] = 12;
        report.stalls[StallCause::RegWait as usize] = 5;
        let mut stats = RunStats::default();
        stats.sm.fence_stall_cycles = 42;
        stats.sm.reg_wait_cycles = 5;
        assert!(report.verify(&stats).is_ok());
        stats.sm.reg_wait_cycles = 6;
        let err = report.verify(&stats).unwrap_err();
        assert!(err.contains("reg_wait: attributed 5 != counted 6"), "{err}");
    }

    #[test]
    fn json_is_stable_and_parses_with_the_in_tree_parser() {
        let mut report = ProfileReport::default();
        report.stalls[StallCause::OlWait as usize] = 9;
        report.events = 3;
        report.noc_delay.note(0.125);
        let json = report.to_json();
        assert_eq!(json, report.clone().to_json(), "serialization is a pure function");
        let doc = orderlight_trace::json::parse(&json).expect("profile JSON must parse");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(PROFILE_SCHEMA));
        assert_eq!(doc.to_json(), json, "canonical: a fixed point of parse and to_json");
        assert_eq!(
            doc.get("stalls").and_then(|s| s.get("ol_wait")).and_then(|v| v.as_f64()),
            Some(9.0)
        );
        let noc = doc.get("phases").and_then(|p| p.get("noc_delay_us")).unwrap();
        assert!((noc.get("sum").and_then(|v| v.as_f64()).unwrap() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn text_report_names_every_cause() {
        let text = ProfileReport::default().to_text();
        for cause in StallCause::ALL {
            assert!(text.contains(cause.label()), "missing {}", cause.label());
        }
        assert!(text.contains("barrier hold"));
    }
}
