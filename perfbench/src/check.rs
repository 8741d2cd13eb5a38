//! Correctness gates and exact order statistics.

use orderlight_sim::schema::stats_to_value;
use orderlight_sim::{RunStats, ScenarioSpec};
use orderlight_trace::json::{self, Value};
use orderlight_trace::SpanPhases;

use crate::points::{key, Workload};

/// The committed result digest of each workload's scenario multiset.
/// A change that only makes the simulator faster leaves these fixed; a
/// change to simulated behaviour must update them deliberately.
#[must_use]
pub fn expected_digest(workload: Workload) -> u64 {
    match workload {
        Workload::PimOrderLight => 0x20e4_b215_7223_6964,
        Workload::PimFence => 0x63bb_d011_0cd4_e42b,
        Workload::GpuHost => 0x1265_7fc9_7606_b4cb,
        Workload::ServeMix => 0x87f8_a026_945a_2daf,
    }
}

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_str(s: &str) -> u64 {
    let mut h = mix(s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(word));
    }
    h
}

/// The canonical stats payload of a run — the bytes a served `result`
/// reply carries under `"stats"`.
#[must_use]
pub fn stats_json(stats: &RunStats) -> String {
    stats_to_value(stats).to_json()
}

/// An order-independent digest over `(scenario, stats)` pairs: the
/// wrapping sum of one hash per pair, so it depends on the multiset of
/// results and not on the order they completed in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// Folds in one scenario's canonical stats payload.
    pub fn add(&mut self, spec: &ScenarioSpec, stats_json: &str) {
        let pair = mix(hash_str(&key(spec)) ^ mix(hash_str(stats_json)));
        self.0 = self.0.wrapping_add(pair);
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Checks a digest against the committed value, describing a mismatch.
///
/// # Errors
/// Returns the mismatch message.
pub fn check_digest(workload: Workload, digest: Digest) -> Result<(), String> {
    let expected = expected_digest(workload);
    if digest.value() == expected {
        Ok(())
    } else {
        Err(format!(
            "{}: result digest {:#018x} differs from the committed {expected:#018x}",
            workload.name(),
            digest.value()
        ))
    }
}

/// The exact nearest-rank percentile of ascending `sorted` samples:
/// the smallest sample with at least `p` of the samples at or below it.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A terminal service reply, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A `result`: whether the server answered from its cache, the
    /// canonical stats payload and the server-side phase span.
    Result { cached: bool, stats: String, span: Option<SpanPhases> },
    /// A typed `error` reply, with its kind.
    Error(String),
    /// Anything else (admin replies, unparsable lines).
    Other,
}

/// Classifies one reply line. Cached and cold results are told apart
/// by the reply's own `"cached"` flag.
#[must_use]
pub fn classify(line: &str) -> Reply {
    let Ok(doc) = json::parse(line) else {
        return Reply::Other;
    };
    match doc.get("reply").and_then(Value::as_str) {
        Some("result") => Reply::Result {
            cached: doc.get("cached").and_then(Value::as_bool).unwrap_or(false),
            stats: doc.get("stats").map(Value::to_json).unwrap_or_default(),
            span: doc.get("span").and_then(SpanPhases::from_value),
        },
        Some("error") => {
            Reply::Error(doc.get("kind").and_then(Value::as_str).unwrap_or("unknown").to_string())
        }
        _ => Reply::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight_workloads::WorkloadId;

    #[test]
    fn percentiles_are_exact_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 0.91), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.5], 0.9), Some(3.5));
        assert_eq!(percentile(&[], 0.5), None);
        // 7 samples: p50 is the 4th, p90 the 7th (ceil(6.3)).
        let s = [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4];
        assert_eq!(percentile(&s, 0.5), Some(0.8));
        assert_eq!(percentile(&s, 0.9), Some(6.4));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    fn sample_stats() -> RunStats {
        RunStats { core_cycles: 1234, verified_matches: 64, ..RunStats::default() }
    }

    #[test]
    fn digest_is_order_independent_and_fires_on_one_perturbed_field() {
        let a = ScenarioSpec::new(WorkloadId::Add);
        let b = ScenarioSpec::new(WorkloadId::Copy);
        let s = stats_json(&sample_stats());
        let t = stats_json(&RunStats { core_cycles: 99, ..sample_stats() });
        let mut ab = Digest::default();
        ab.add(&a, &s);
        ab.add(&b, &t);
        let mut ba = Digest::default();
        ba.add(&b, &t);
        ba.add(&a, &s);
        assert_eq!(ab, ba);
        let perturbations = [
            RunStats { core_cycles: 1235, ..sample_stats() },
            RunStats { verified_mismatches: 1, ..sample_stats() },
            RunStats { exec_time_ms: 1e-9, ..sample_stats() },
            RunStats { pim_data_bytes: 1, ..sample_stats() },
        ];
        for p in perturbations {
            let mut d = Digest::default();
            d.add(&a, &stats_json(&p));
            d.add(&b, &t);
            assert_ne!(d, ab, "{p:?}");
        }
        let mut swapped = Digest::default();
        swapped.add(&a, &t);
        swapped.add(&b, &s);
        assert_ne!(swapped, ab, "results are bound to their scenario");
        let err = check_digest(Workload::PimFence, Digest(expected_digest(Workload::PimFence) ^ 1));
        assert!(err.is_err());
        assert!(
            check_digest(Workload::PimFence, Digest(expected_digest(Workload::PimFence))).is_ok()
        );
    }

    #[test]
    fn replies_are_classified_by_their_cached_flag() {
        let hot = r#"{"cached":true,"id":3,"latency_us":12,"reply":"result","slo":{},"span":{"parse_us":5,"queue_us":0,"run_us":0,"serialize_us":2,"write_us":0},"stats":{"core_cycles":7}}"#;
        let cold = r#"{"cached":false,"id":4,"latency_us":900,"reply":"result","slo":{},"stats":{"core_cycles":7}}"#;
        match classify(hot) {
            Reply::Result { cached, stats, span } => {
                assert!(cached);
                assert_eq!(stats, r#"{"core_cycles":7}"#);
                assert_eq!(span.map(|s| s.parse_us), Some(5));
            }
            other => panic!("{other:?}"),
        }
        match classify(cold) {
            Reply::Result { cached, span, .. } => {
                assert!(!cached);
                assert_eq!(span, None);
            }
            other => panic!("{other:?}"),
        }
        let err = r#"{"kind":"schema","message":"x","reply":"error"}"#;
        assert_eq!(classify(err), Reply::Error("schema".to_string()));
        assert!(matches!(classify(r#"{"reply":"bye"}"#), Reply::Other));
        assert!(matches!(classify("not json"), Reply::Other));
    }
}
