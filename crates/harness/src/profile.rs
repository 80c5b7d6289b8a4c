//! The `--profile` artifact: a structured, parseable snapshot of
//! everything the observability layer recorded during a run.
//!
//! The artifact is a [`tlp_sim::serial`] JSON value (the same codec the
//! result cache and the serve protocol use — integers and strings only,
//! no floats), with four sections:
//!
//! - `version` — the artifact format version ([`PROFILE_VERSION`]);
//! - `engine` + `run_engine` — the engine mode and the run-cache
//!   counter snapshot, field-for-field equal to the `# run-engine:`
//!   summary line (both are written from [`crate::EngineStats`]'s codec);
//! - `metrics` — every metric of the run cache's registry (including
//!   the `sim_*` engine counters), histograms carried as
//!   count/sum/min/max/p50/p90/p99;
//! - `cells` — the per-cell wall-clock timing log (label, outcome,
//!   queue wait, total duration).

use std::path::Path;

use tlp_obs::{MetricValue, Snapshot};
use tlp_sim::serial::{Codec, Value};

use crate::runner::Harness;

/// Format version of the `--profile` artifact.
pub const PROFILE_VERSION: u64 = 1;

/// Schema revision of the artifact's *shape*: 2 added the top-level
/// `schema` field itself and the optional `timeline` summary section
/// (present when a run exported `--timeline` telemetry).
pub const PROFILE_SCHEMA: u64 = 2;

/// Builds the profile artifact for a harness's run so far. `engine`
/// names the configured engine mode (`cycle`/`event`).
#[must_use]
pub fn profile_value(harness: &Harness, engine: &str) -> Value {
    profile_value_with(harness, engine, None)
}

/// [`profile_value`] with an optional timeline summary (see
/// [`crate::timeline::summary_value`]) embedded as a `timeline` field.
#[must_use]
pub fn profile_value_with(harness: &Harness, engine: &str, timeline: Option<Value>) -> Value {
    let stats = harness.engine_stats();
    let snapshot = harness.metrics().snapshot();
    let cells = harness
        .cell_timings()
        .into_iter()
        .map(|t| {
            Value::Obj(vec![
                ("label".to_owned(), Value::Str(t.label)),
                (
                    "outcome".to_owned(),
                    Value::Str(t.outcome.as_str().to_owned()),
                ),
                ("queue_wait_ns".to_owned(), Value::Num(t.queue_wait_ns)),
                ("total_ns".to_owned(), Value::Num(t.total_ns)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("schema".to_owned(), Value::Num(PROFILE_SCHEMA)),
        ("version".to_owned(), Value::Num(PROFILE_VERSION)),
        ("engine".to_owned(), Value::Str(engine.to_owned())),
        ("run_engine".to_owned(), stats.to_value()),
        ("metrics".to_owned(), metrics_value(&snapshot)),
        ("cells".to_owned(), Value::Arr(cells)),
    ];
    if let Some(t) = timeline {
        fields.push(("timeline".to_owned(), t));
    }
    Value::Obj(fields)
}

/// Writes [`profile_value`] as JSON text to `path`.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be written.
pub fn write_profile(harness: &Harness, engine: &str, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, profile_value(harness, engine).render())
}

/// A metrics snapshot as an array of per-metric objects. Gauges are
/// clamped at zero (the serial codec is unsigned); every sample a
/// histogram reports is a `u64` nanosecond (or count) already.
fn metrics_value(snapshot: &Snapshot) -> Value {
    let items = snapshot
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![("name".to_owned(), Value::Str(m.name.clone()))];
            match &m.value {
                MetricValue::Counter(v) => {
                    fields.push(("kind".to_owned(), Value::Str("counter".to_owned())));
                    fields.push(("value".to_owned(), Value::Num(*v)));
                }
                MetricValue::Gauge(v) => {
                    fields.push(("kind".to_owned(), Value::Str("gauge".to_owned())));
                    fields.push((
                        "value".to_owned(),
                        Value::Num(u64::try_from(*v).unwrap_or(0)),
                    ));
                }
                MetricValue::Histogram(h) => {
                    fields.push(("kind".to_owned(), Value::Str("histogram".to_owned())));
                    fields.push(("count".to_owned(), Value::Num(h.count)));
                    fields.push(("sum".to_owned(), Value::Num(h.sum)));
                    fields.push(("min".to_owned(), Value::Num(h.min)));
                    fields.push(("max".to_owned(), Value::Num(h.max)));
                    fields.push(("p50".to_owned(), Value::Num(h.quantile(0.5))));
                    fields.push(("p90".to_owned(), Value::Num(h.quantile(0.9))));
                    fields.push(("p99".to_owned(), Value::Num(h.quantile(0.99))));
                }
            }
            Value::Obj(fields)
        })
        .collect();
    Value::Arr(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;

    #[test]
    fn artifact_round_trips_and_matches_engine_stats() {
        let h = Harness::new(RunConfig::test());
        let w = &h.active_workloads()[..1];
        let (s, p) = (
            crate::Scheme::Baseline.resolve(),
            crate::L1Pf::Ipcp.resolve(),
        );
        let _ = h.run(&[h.cell(w, s, p, crate::Machine::CascadeLake(None))]);
        let v = profile_value(&h, "cycle");
        let parsed = tlp_sim::serial::parse_value(&v.render()).expect("artifact parses");
        assert_eq!(parsed.u64_field("schema").unwrap(), PROFILE_SCHEMA);
        assert_eq!(parsed.u64_field("version").unwrap(), PROFILE_VERSION);
        assert_eq!(parsed.str_field("engine").unwrap(), "cycle");
        // No timeline capture ran: the summary section is absent.
        assert!(parsed.field("timeline").is_err());
        let st = h.engine_stats();
        let re = parsed.field("run_engine").unwrap();
        assert_eq!(re.u64_field("simulated").unwrap(), st.simulated);
        assert_eq!(re.u64_field("requested").unwrap(), st.requested);
        assert_eq!(re.u64_field("coalesced").unwrap(), st.coalesced);
        // The metrics section carries the same counter the summary uses.
        let metrics = parsed.arr_field("metrics").unwrap();
        let simulated = metrics
            .iter()
            .find(|m| m.str_field("name").as_deref() == Ok("run_cache_simulated_total"))
            .expect("run-cache counter present");
        assert_eq!(simulated.u64_field("value").unwrap(), st.simulated);
        // One cell ran: the timing log has it, with a known outcome.
        let cells = parsed.arr_field("cells").unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].str_field("outcome").unwrap(), "simulated");
        assert!(cells[0].u64_field("total_ns").unwrap() > 0);
    }

    #[test]
    fn timeline_summary_embeds_under_schema_2() {
        let h = Harness::new(RunConfig::test());
        let summary = Value::Obj(vec![("total_windows".to_owned(), Value::Num(3))]);
        let v = profile_value_with(&h, "event", Some(summary));
        let parsed = tlp_sim::serial::parse_value(&v.render()).expect("artifact parses");
        assert_eq!(parsed.u64_field("schema").unwrap(), PROFILE_SCHEMA);
        let t = parsed.field("timeline").expect("summary embedded");
        assert_eq!(t.u64_field("total_windows").unwrap(), 3);
    }
}
