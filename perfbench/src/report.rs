//! What a run prints: a table of named metrics with units, then one
//! JSON result line.

use std::collections::BTreeMap;

use orderlight_trace::json::Value;

/// Named metrics with units, in the order they were measured.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric. Non-finite values (an empty ratio) read as 0.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    /// The metrics as `(name, value, unit)` triples.
    #[must_use]
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.0
    }
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the workload attempted (scenario runs or requests).
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records `n` failed operations with a reason.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.failures.push(why);
    }

    /// Whether every operation succeeded and passed its checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// The result line: `{"attempted":..,"correct":..,"failed":..,"metrics":{..}}`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn to_json(&self) -> String {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .entries()
            .iter()
            .map(|(name, value, unit)| {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Value::Num(*value));
                m.insert("unit".to_string(), Value::Str((*unit).to_string()));
                (name.clone(), Value::Obj(m))
            })
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("correct".to_string(), Value::Bool(self.correct()));
        doc.insert("attempted".to_string(), Value::Num(self.attempted as f64));
        doc.insert("failed".to_string(), Value::Num(self.failed as f64));
        doc.insert("metrics".to_string(), Value::Obj(metrics));
        Value::Obj(doc).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight_trace::json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metrics.push("setup_s", 0.012_345_678_9, "s");
        o.metrics.push("ratio", f64::NAN, "ratio");
        let doc = json::parse(&o.to_json()).unwrap();
        let Value::Obj(map) = &doc else { panic!() };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.012_345_678_9));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        o.fail(1, "boom".to_string());
        assert!(!o.correct());
    }
}
