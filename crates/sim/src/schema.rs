//! The versioned wire-level scenario schema — `orderlight/scenario/v1`.
//!
//! [`crate::scenario::ScenarioBuilder`] is the typed in-process front
//! door; this module makes that surface a **stable public API**: a JSON
//! document tagged `"schema": "orderlight/scenario/v1"` describes one
//! run, [`ScenarioSpec`] parses and validates it with *typed* errors
//! (a missing version tag, an unsupported version, an unknown field and
//! a malformed value are all distinct [`SchemaError`] variants — never
//! silently ignored), and [`ScenarioSpec::to_value`] re-serialises the
//! canonical form. The `orderlight serve` daemon accepts exactly this
//! document over the wire, `orderlight submit` emits it, and
//! `orderlight schema` prints [`schema_document`] so clients can
//! discover the accepted fields without reading the source.
//!
//! Versioning policy: v1 fields are frozen. New optional fields arrive
//! only with a new version tag (`orderlight/scenario/v2`), and a server
//! rejects versions it does not know — an unknown field today is an
//! error, not a forward-compatibility hole, so a typo'd knob can never
//! silently fall back to a default.
//!
//! ```
//! use orderlight_sim::schema::ScenarioSpec;
//!
//! let spec = ScenarioSpec::parse_str(
//!     r#"{"schema": "orderlight/scenario/v1", "workload": "Add",
//!         "mode": "orderlight", "ts": 8, "data_kb": 8}"#,
//! )
//! .unwrap();
//! assert_eq!(spec.data_bytes_per_channel, 8 * 1024);
//! let scenario = spec.build().unwrap();
//! assert!(scenario.run().unwrap().is_correct());
//! ```

use crate::config::ExecMode;
use crate::scenario::{Scenario, ScenarioBuilder};
use crate::stats::RunStats;
use orderlight::ConfigError;
use orderlight_pim::TsSize;
use orderlight_trace::json::Value;
use orderlight_workloads::{OrderingMode, WorkloadId};
use std::fmt;

/// The schema tag every v1 scenario document must carry.
pub const SCENARIO_SCHEMA_V1: &str = "orderlight/scenario/v1";

/// Every field the v1 parser accepts, in canonical order. The
/// rejection tests and [`schema_document`] are generated from this
/// table so the printed schema can never drift from the parser.
pub const SCENARIO_FIELDS_V1: [(&str, &str, &str); 9] = [
    ("schema", "string", "required; must be \"orderlight/scenario/v1\""),
    ("workload", "string", "required; a Table 2 kernel name (case-insensitive), e.g. \"Add\""),
    (
        "mode",
        "string",
        "optional (default \"orderlight\"): gpu|none|fence|orderlight|seqnum|louvre|bulk",
    ),
    (
        "ts",
        "number or string",
        "optional (default 8): PIM TS size as a row-buffer-fraction denominator, 16|8|4|2",
    ),
    ("bmf", "number", "optional (default 16): bandwidth multiplication factor, >= 1"),
    (
        "data_kb",
        "number",
        "optional (default 256): KiB per data structure per channel; exclusive with data_bytes",
    ),
    (
        "data_bytes",
        "number",
        "optional: bytes per data structure per channel; exclusive with data_kb",
    ),
    ("credits", "number", "optional (default 32): per-warp buffer credits for the seqnum baseline"),
    (
        "budget",
        "number",
        "optional: cycle budget override (default: generous per-stripe allowance)",
    ),
];

/// A typed schema violation. Every way a scenario document can be
/// rejected is a distinct variant, so the service layer can reply with
/// a machine-readable error kind and tests can assert the exact
/// failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The document is not a JSON object.
    NotAnObject,
    /// The `schema` version tag is absent.
    MissingVersion,
    /// The `schema` tag names a version this parser does not speak.
    UnsupportedVersion(String),
    /// A field the v1 schema does not define.
    UnknownField(String),
    /// A field the v1 schema requires is absent.
    MissingField(&'static str),
    /// A defined field carries a value outside its domain.
    BadValue {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::NotAnObject => write!(f, "scenario document must be a JSON object"),
            SchemaError::MissingVersion => {
                write!(
                    f,
                    "missing schema version tag (expected \"schema\": \"{SCENARIO_SCHEMA_V1}\")"
                )
            }
            SchemaError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported schema version '{v}' (this server speaks {SCENARIO_SCHEMA_V1})"
                )
            }
            SchemaError::UnknownField(name) => {
                write!(f, "unknown field '{name}' (v1 fields: {})", field_names().join(", "))
            }
            SchemaError::MissingField(name) => write!(f, "missing required field '{name}'"),
            SchemaError::BadValue { field, message } => {
                write!(f, "bad value for '{field}': {message}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

fn field_names() -> Vec<&'static str> {
    SCENARIO_FIELDS_V1.iter().map(|(n, ..)| *n).collect()
}

/// Parses a workload name (case-insensitive match against the Table 2
/// kernel registry). Shared by the wire schema and every CLI.
#[must_use]
pub fn parse_workload(name: &str) -> Option<WorkloadId> {
    WorkloadId::ALL.into_iter().find(|w| w.meta().name.eq_ignore_ascii_case(name))
}

/// Parses an execution-mode name (`gpu`, `none`, `fence`,
/// `orderlight`/`ol`, `seqnum`, `louvre`, `bulk`). Shared by the wire
/// schema and every CLI.
#[must_use]
pub fn parse_mode(name: &str) -> Option<ExecMode> {
    match name.to_ascii_lowercase().as_str() {
        "gpu" => Some(ExecMode::Gpu),
        "none" => Some(ExecMode::Pim(OrderingMode::None)),
        "fence" => Some(ExecMode::Pim(OrderingMode::Fence)),
        "orderlight" | "ol" => Some(ExecMode::Pim(OrderingMode::OrderLight)),
        "seqnum" => Some(ExecMode::Pim(OrderingMode::SeqNum)),
        "louvre" => Some(ExecMode::Pim(OrderingMode::LouvreVersioned)),
        "bulk" => Some(ExecMode::Pim(OrderingMode::BulkBitwiseStrong)),
        _ => None,
    }
}

/// The wire spelling of an execution mode, as accepted by
/// [`parse_mode`].
#[must_use]
pub fn mode_wire_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Gpu => "gpu",
        ExecMode::Pim(OrderingMode::None) => "none",
        ExecMode::Pim(OrderingMode::Fence) => "fence",
        ExecMode::Pim(OrderingMode::OrderLight) => "orderlight",
        ExecMode::Pim(OrderingMode::SeqNum) => "seqnum",
        ExecMode::Pim(OrderingMode::LouvreVersioned) => "louvre",
        ExecMode::Pim(OrderingMode::BulkBitwiseStrong) => "bulk",
    }
}

/// Parses a TS size given as a row-buffer-fraction denominator
/// (`"16"`, `"8"`, `"4"`, `"2"`). Shared by the wire schema and every
/// CLI.
#[must_use]
pub fn parse_ts(denom: &str) -> Option<TsSize> {
    match denom {
        "16" => Some(TsSize::Sixteenth),
        "8" => Some(TsSize::Eighth),
        "4" => Some(TsSize::Quarter),
        "2" => Some(TsSize::Half),
        _ => None,
    }
}

/// One fully parsed `orderlight/scenario/v1` document — the semantic
/// content of a wire request, with every default resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Which Table 2 kernel runs.
    pub workload: WorkloadId,
    /// Execution mode (GPU baseline or PIM under an ordering
    /// primitive).
    pub mode: ExecMode,
    /// PIM temporary-storage size.
    pub ts: TsSize,
    /// Bandwidth multiplication factor.
    pub bmf: u32,
    /// Bytes per data structure per channel.
    pub data_bytes_per_channel: u64,
    /// Per-warp buffer credits for the sequence-number baseline.
    pub seq_credits: u32,
    /// Cycle-budget override (`None`: the scenario default).
    pub budget: Option<u64>,
}

impl ScenarioSpec {
    /// The v1 defaults with `workload` filled in — what a minimal
    /// `{"schema": ..., "workload": ...}` document parses to.
    #[must_use]
    pub fn new(workload: WorkloadId) -> Self {
        ScenarioSpec {
            workload,
            mode: ExecMode::Pim(OrderingMode::OrderLight),
            ts: TsSize::Eighth,
            bmf: 16,
            data_bytes_per_channel: 256 * 1024,
            seq_credits: 32,
            budget: None,
        }
    }

    /// Parses a v1 document from JSON text.
    ///
    /// # Errors
    /// [`SchemaError::BadValue`] on malformed JSON (field `schema`
    /// carries the parse message), else as [`ScenarioSpec::from_value`].
    pub fn parse_str(text: &str) -> Result<Self, SchemaError> {
        let doc = orderlight_trace::json::parse(text).map_err(|e| SchemaError::BadValue {
            field: "schema",
            message: format!("document does not parse: {e}"),
        })?;
        Self::from_value(&doc)
    }

    /// Parses a v1 document from an already-parsed JSON value. The
    /// version tag is checked first, then every present field is
    /// matched against the v1 field table — an unknown field is a hard
    /// error.
    ///
    /// # Errors
    /// A typed [`SchemaError`] naming exactly what was rejected.
    pub fn from_value(doc: &Value) -> Result<Self, SchemaError> {
        let Value::Obj(map) = doc else {
            return Err(SchemaError::NotAnObject);
        };
        match map.get("schema") {
            None => return Err(SchemaError::MissingVersion),
            Some(Value::Str(v)) if v == SCENARIO_SCHEMA_V1 => {}
            Some(Value::Str(v)) => return Err(SchemaError::UnsupportedVersion(v.clone())),
            Some(other) => {
                return Err(SchemaError::BadValue {
                    field: "schema",
                    message: format!("expected a string, got {other:?}"),
                })
            }
        }
        for key in map.keys() {
            if !field_names().contains(&key.as_str()) {
                return Err(SchemaError::UnknownField(key.clone()));
            }
        }

        let workload = match map.get("workload") {
            None => return Err(SchemaError::MissingField("workload")),
            Some(Value::Str(name)) => {
                parse_workload(name).ok_or_else(|| SchemaError::BadValue {
                    field: "workload",
                    message: format!("unknown workload '{name}'"),
                })?
            }
            Some(other) => {
                return Err(SchemaError::BadValue {
                    field: "workload",
                    message: format!("expected a string, got {other:?}"),
                })
            }
        };
        let mut spec = ScenarioSpec::new(workload);

        if let Some(v) = map.get("mode") {
            let name = v.as_str().ok_or_else(|| SchemaError::BadValue {
                field: "mode",
                message: format!("expected a string, got {v:?}"),
            })?;
            spec.mode = parse_mode(name).ok_or_else(|| SchemaError::BadValue {
                field: "mode",
                message: format!("unknown mode '{name}'"),
            })?;
        }
        if let Some(v) = map.get("ts") {
            let denom = match v {
                Value::Str(s) => s.clone(),
                Value::Num(_) => format!("{}", uint_field(v, "ts")?),
                other => {
                    return Err(SchemaError::BadValue {
                        field: "ts",
                        message: format!("expected 16|8|4|2, got {other:?}"),
                    })
                }
            };
            spec.ts = parse_ts(&denom).ok_or_else(|| SchemaError::BadValue {
                field: "ts",
                message: format!("expected 16|8|4|2, got '{denom}'"),
            })?;
        }
        if let Some(v) = map.get("bmf") {
            spec.bmf = u32::try_from(uint_field(v, "bmf")?).map_err(|_| SchemaError::BadValue {
                field: "bmf",
                message: "exceeds u32".to_string(),
            })?;
        }
        match (map.get("data_kb"), map.get("data_bytes")) {
            (Some(_), Some(_)) => {
                return Err(SchemaError::BadValue {
                    field: "data_kb",
                    message: "data_kb and data_bytes are mutually exclusive".to_string(),
                })
            }
            (Some(v), None) => spec.data_bytes_per_channel = uint_field(v, "data_kb")? * 1024,
            (None, Some(v)) => spec.data_bytes_per_channel = uint_field(v, "data_bytes")?,
            (None, None) => {}
        }
        if let Some(v) = map.get("credits") {
            spec.seq_credits = u32::try_from(uint_field(v, "credits")?).map_err(|_| {
                SchemaError::BadValue { field: "credits", message: "exceeds u32".to_string() }
            })?;
        }
        if let Some(v) = map.get("budget") {
            spec.budget = Some(uint_field(v, "budget")?);
        }
        Ok(spec)
    }

    /// The canonical v1 serialisation of this spec (schema tag
    /// included, every field explicit, `data_bytes` spelling). Two
    /// semantically equal specs serialise to identical bytes.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let budget = self.budget.map(|b| ("budget", b.into()));
        Value::obj(
            [
                ("schema", SCENARIO_SCHEMA_V1.into()),
                ("workload", self.workload.meta().name.into()),
                ("mode", mode_wire_name(self.mode).into()),
                ("ts", self.ts.denominator().into()),
                ("bmf", self.bmf.into()),
                ("data_bytes", self.data_bytes_per_channel.into()),
                ("credits", self.seq_credits.into()),
            ]
            .into_iter()
            .chain(budget),
        )
    }

    /// The [`ScenarioBuilder`] this spec configures — the bridge from
    /// the wire surface to the typed in-process surface.
    #[must_use]
    pub fn builder(&self) -> ScenarioBuilder {
        let b = ScenarioBuilder::new(self.workload, self.mode)
            .ts_size(self.ts)
            .bmf(self.bmf)
            .data_bytes_per_channel(self.data_bytes_per_channel)
            .seq_credits(self.seq_credits);
        match self.budget {
            Some(budget) => b.budget(budget),
            None => b,
        }
    }

    /// Builds the validated [`Scenario`].
    ///
    /// # Errors
    /// Returns [`ConfigError`] when the assembled experiment is
    /// inconsistent (e.g. `bmf: 0`).
    pub fn build(&self) -> Result<Scenario, ConfigError> {
        self.builder().build()
    }
}

/// Extracts a non-negative integer field, rejecting negatives,
/// fractions and non-numbers with a typed error.
fn uint_field(v: &Value, field: &'static str) -> Result<u64, SchemaError> {
    let bad = |message: String| SchemaError::BadValue { field, message };
    let n = v.as_f64().ok_or_else(|| bad(format!("expected a number, got {v:?}")))?;
    if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9.0e15) {
        return Err(bad(format!("expected a non-negative integer, got {n}")));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(n as u64)
}

/// The human- and machine-readable description of the accepted v1
/// schema, printed by `orderlight schema`: one entry per field with its
/// type and constraints, plus the workload and mode vocabularies.
#[must_use]
pub fn schema_document() -> String {
    let fields = SCENARIO_FIELDS_V1
        .map(|(name, ty, doc)| (name, Value::obj([("type", ty.into()), ("doc", doc.into())])));
    let workloads = WorkloadId::ALL.map(|w| w.meta().name.into()).to_vec();
    let modes = ["gpu", "none", "fence", "orderlight", "seqnum", "louvre", "bulk"]
        .map(Value::from)
        .to_vec();
    let doc = Value::obj([
        ("schema", SCENARIO_SCHEMA_V1.into()),
        ("fields", Value::obj(fields)),
        ("workloads", workloads.into()),
        ("modes", modes.into()),
        (
            "policy",
            "unknown fields and missing/unsupported versions are rejected; \
             new fields only arrive with a new version tag"
                .into(),
        ),
    ]);
    let mut out = doc.to_json();
    out.push('\n');
    out
}

/// Serialises a [`RunStats`] into a JSON value covering **every**
/// counter, so a service reply carries the same information as an
/// in-process run. Serialised through the canonical writer, two equal
/// `RunStats` always produce identical bytes — the property the
/// `ci.sh` smoke gate checks with `cmp`.
#[must_use]
pub fn stats_to_value(stats: &RunStats) -> Value {
    let (sm, mc) = (&stats.sm, &stats.mc);
    let sm = Value::obj([
        ("issued", sm.issued.into()),
        ("pim_issued", sm.pim_issued.into()),
        ("loads", sm.loads.into()),
        ("stores", sm.stores.into()),
        ("computes", sm.computes.into()),
        ("fences", sm.fences.into()),
        ("orderlights", sm.orderlights.into()),
        ("fence_stall_cycles", sm.fence_stall_cycles.into()),
        ("ol_wait_cycles", sm.ol_wait_cycles.into()),
        ("reg_wait_cycles", sm.reg_wait_cycles.into()),
        ("structural_stall_cycles", sm.structural_stall_cycles.into()),
        ("credit_wait_cycles", sm.credit_wait_cycles.into()),
    ]);
    let mc = Value::obj([
        ("pim_commands", mc.pim_commands.into()),
        ("activates", mc.activates.into()),
        ("precharges", mc.precharges.into()),
        ("col_reads", mc.col_reads.into()),
        ("col_writes", mc.col_writes.into()),
        ("exec_commands", mc.exec_commands.into()),
        ("host_reads", mc.host_reads.into()),
        ("host_writes", mc.host_writes.into()),
        ("fence_acks", mc.fence_acks.into()),
        ("ol_packets", mc.ol_packets.into()),
        ("sanity_violations", mc.sanity_violations.into()),
        ("last_issue_cycle", mc.last_issue_cycle.into()),
        ("host_read_latency_sum", mc.host_read_latency_sum.into()),
    ]);
    Value::obj([
        ("core_cycles", stats.core_cycles.into()),
        ("exec_time_ms", stats.exec_time_ms.into()),
        ("sm", sm),
        ("mc", mc),
        ("pim_data_bytes", stats.pim_data_bytes.into()),
        ("command_bandwidth_gcs", stats.command_bandwidth_gcs.into()),
        ("data_bandwidth_gbs", stats.data_bandwidth_gbs.into()),
        ("primitives_per_pim_instr", stats.primitives_per_pim_instr.into()),
        ("verified_matches", stats.verified_matches.into()),
        ("verified_mismatches", stats.verified_mismatches.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        format!("{{\"schema\": \"{SCENARIO_SCHEMA_V1}\", \"workload\": \"Add\"}}")
    }

    #[test]
    fn minimal_document_parses_to_defaults() {
        let spec = ScenarioSpec::parse_str(&minimal()).unwrap();
        assert_eq!(spec, ScenarioSpec::new(WorkloadId::Add));
        assert_eq!(spec.mode, ExecMode::Pim(OrderingMode::OrderLight));
        assert_eq!(spec.data_bytes_per_channel, 256 * 1024);
        assert_eq!(spec.budget, None);
    }

    #[test]
    fn full_document_round_trips_canonically() {
        let text = format!(
            "{{\"schema\": \"{SCENARIO_SCHEMA_V1}\", \"workload\": \"kmeans\", \
             \"mode\": \"fence\", \"ts\": \"2\", \"bmf\": 4, \"data_kb\": 64, \
             \"credits\": 8, \"budget\": 1000000}}"
        );
        let spec = ScenarioSpec::parse_str(&text).unwrap();
        assert_eq!(spec.workload, WorkloadId::Kmeans);
        assert_eq!(spec.mode, ExecMode::Pim(OrderingMode::Fence));
        assert_eq!(spec.ts, TsSize::Half);
        assert_eq!(spec.data_bytes_per_channel, 64 * 1024);
        assert_eq!(spec.budget, Some(1_000_000));
        // canonical form re-parses to the same spec, byte-stably.
        let canon = spec.to_value().to_json();
        let again = ScenarioSpec::parse_str(&canon).unwrap();
        assert_eq!(again, spec);
        assert_eq!(again.to_value().to_json(), canon);
    }

    #[test]
    fn ts_accepts_number_and_string_spellings() {
        for ts in ["\"ts\": 16", "\"ts\": \"16\""] {
            let text =
                format!("{{\"schema\": \"{SCENARIO_SCHEMA_V1}\", \"workload\": \"Add\", {ts}}}");
            assert_eq!(ScenarioSpec::parse_str(&text).unwrap().ts, TsSize::Sixteenth, "{ts}");
        }
    }

    #[test]
    fn missing_version_is_a_typed_error() {
        let err = ScenarioSpec::parse_str("{\"workload\": \"Add\"}").unwrap_err();
        assert_eq!(err, SchemaError::MissingVersion);
    }

    #[test]
    fn unsupported_version_is_a_typed_error() {
        let err = ScenarioSpec::parse_str(
            "{\"schema\": \"orderlight/scenario/v99\", \"workload\": \"Add\"}",
        )
        .unwrap_err();
        assert_eq!(err, SchemaError::UnsupportedVersion("orderlight/scenario/v99".to_string()));
    }

    #[test]
    fn unknown_field_is_rejected_by_name() {
        let text = format!(
            "{{\"schema\": \"{SCENARIO_SCHEMA_V1}\", \"workload\": \"Add\", \"data_kib\": 8}}"
        );
        let err = ScenarioSpec::parse_str(&text).unwrap_err();
        assert_eq!(err, SchemaError::UnknownField("data_kib".to_string()));
    }

    #[test]
    fn missing_workload_and_bad_values_are_typed() {
        let err = ScenarioSpec::parse_str(&format!("{{\"schema\": \"{SCENARIO_SCHEMA_V1}\"}}"))
            .unwrap_err();
        assert_eq!(err, SchemaError::MissingField("workload"));
        for (frag, field) in [
            ("\"workload\": \"NoSuchKernel\"", "workload"),
            ("\"workload\": \"Add\", \"mode\": \"strict\"", "mode"),
            ("\"workload\": \"Add\", \"ts\": 3", "ts"),
            ("\"workload\": \"Add\", \"bmf\": -1", "bmf"),
            ("\"workload\": \"Add\", \"data_kb\": 1.5", "data_kb"),
            ("\"workload\": \"Add\", \"data_kb\": 1, \"data_bytes\": 32", "data_kb"),
        ] {
            let text = format!("{{\"schema\": \"{SCENARIO_SCHEMA_V1}\", {frag}}}");
            match ScenarioSpec::parse_str(&text).unwrap_err() {
                SchemaError::BadValue { field: f, .. } => assert_eq!(f, field, "{frag}"),
                other => panic!("{frag}: expected BadValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_object_is_rejected() {
        assert_eq!(ScenarioSpec::parse_str("[1,2]").unwrap_err(), SchemaError::NotAnObject);
        assert!(matches!(
            ScenarioSpec::parse_str("{nope").unwrap_err(),
            SchemaError::BadValue { .. }
        ));
    }

    #[test]
    fn schema_document_names_every_parser_field() {
        let doc = orderlight_trace::json::parse(&schema_document()).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCENARIO_SCHEMA_V1));
        let fields = doc.get("fields").unwrap();
        for (name, ..) in SCENARIO_FIELDS_V1 {
            assert!(fields.get(name).is_some(), "schema doc is missing '{name}'");
        }
    }

    #[test]
    fn stats_serialisation_is_total_and_stable() {
        let spec =
            ScenarioSpec { data_bytes_per_channel: 4 * 1024, ..ScenarioSpec::new(WorkloadId::Add) };
        let stats = spec.build().unwrap().run().unwrap();
        let a = stats_to_value(&stats).to_json();
        let b = stats_to_value(&stats).to_json();
        assert_eq!(a, b);
        let doc = orderlight_trace::json::parse(&a).unwrap();
        #[allow(clippy::cast_precision_loss)]
        let cycles = stats.core_cycles as f64;
        assert_eq!(doc.get("core_cycles").and_then(Value::as_f64), Some(cycles));
        assert!(doc.get("sm").unwrap().get("fence_stall_cycles").is_some());
        assert!(doc.get("mc").unwrap().get("pim_commands").is_some());
    }
}
