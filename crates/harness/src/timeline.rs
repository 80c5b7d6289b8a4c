//! The `--timeline` export: simulated-time telemetry rendered for
//! humans and tools.
//!
//! [`Harness::timelines`](crate::Harness::timelines) re-simulates each
//! requested cell with a [`tlp_timeline::Recorder`] attached (through the
//! blob cache in [`crate::cache`], so warm re-runs are file reads) and the
//! renderers here turn the captured [`Timeline`]s into:
//!
//! - **Chrome trace-event JSON** ([`chrome_trace_value`]) — loadable in
//!   Perfetto / `chrome://tracing`. Windows become counter tracks
//!   (`"ph":"C"`; IPC, MPKI, prefetch accuracy/coverage, off-chip
//!   precision/recall, DRAM bandwidth/row-hit, ROB/MSHR occupancy, all
//!   in integer milli-units) and sampled request journeys become async
//!   slices (`"b"`/`"n"`/`"e"`) with one instant per pipeline stage.
//!   One simulated cycle renders as one microsecond of trace time.
//! - **CSV** ([`windows_csv`]) — one row per window per run, prefixed
//!   with the run's workload/scheme/prefetcher identity.
//!
//! Everything is derived from simulated state only and rendered through
//! the integer-only [`tlp_sim::serial`] codec, so the exported bytes are
//! identical across engine modes, thread counts, and cache temperature
//! (pinned by `tests/timeline.rs`).

use std::path::Path;
use std::sync::Arc;

use tlp_sim::serial::Value;
use tlp_sim::Timeline;

/// One captured cell: identity plus its telemetry.
#[derive(Clone)]
pub struct TimelineRun {
    /// Workload name (catalog key; a mix joins its four with `+`).
    pub workload: String,
    /// Scheme name.
    pub scheme: String,
    /// L1D prefetcher name.
    pub l1pf: String,
    /// The captured telemetry.
    pub timeline: Arc<Timeline>,
}

/// A compact summary of captured runs — embedded into the `--profile`
/// artifact (schema 2) when `--timeline` is active.
#[must_use]
pub fn summary_value(runs: &[TimelineRun]) -> Value {
    let items = runs
        .iter()
        .map(|r| {
            let t = &r.timeline;
            Value::Obj(vec![
                ("workload".to_owned(), Value::Str(r.workload.clone())),
                ("scheme".to_owned(), Value::Str(r.scheme.clone())),
                ("l1pf".to_owned(), Value::Str(r.l1pf.clone())),
                ("windows".to_owned(), Value::Num(t.windows.len() as u64)),
                ("journeys".to_owned(), Value::Num(t.journeys.len() as u64)),
                ("windows_dropped".to_owned(), Value::Num(t.windows_dropped)),
                (
                    "journeys_dropped".to_owned(),
                    Value::Num(t.journeys_dropped),
                ),
                ("start_cycle".to_owned(), Value::Num(t.start_cycle)),
                ("end_cycle".to_owned(), Value::Num(t.end_cycle)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("runs".to_owned(), Value::Arr(items)),
        (
            "total_windows".to_owned(),
            Value::Num(runs.iter().map(|r| r.timeline.windows.len() as u64).sum()),
        ),
        (
            "total_journeys".to_owned(),
            Value::Num(runs.iter().map(|r| r.timeline.journeys.len() as u64).sum()),
        ),
    ])
}

/// One trace event. `id` is `Some` for async journey events, `None` for
/// counter/metadata events; string args and numeric args are separate
/// because the serial codec has no heterogeneous maps.
#[allow(clippy::too_many_arguments)] // flat mirror of the trace-event fields
fn event(
    ph: &str,
    name: &str,
    pid: u64,
    tid: u64,
    ts: u64,
    id: Option<u64>,
    str_args: &[(&str, &str)],
    num_args: &[(&str, u64)],
) -> Value {
    let mut fields = vec![
        ("ph".to_owned(), Value::Str(ph.to_owned())),
        ("name".to_owned(), Value::Str(name.to_owned())),
        ("pid".to_owned(), Value::Num(pid)),
        ("tid".to_owned(), Value::Num(tid)),
        ("ts".to_owned(), Value::Num(ts)),
    ];
    if let Some(id) = id {
        fields.push(("cat".to_owned(), Value::Str("journey".to_owned())));
        fields.push(("id".to_owned(), Value::Num(id)));
    }
    if !str_args.is_empty() || !num_args.is_empty() {
        let mut args = Vec::with_capacity(str_args.len() + num_args.len());
        for (k, v) in str_args {
            args.push(((*k).to_owned(), Value::Str((*v).to_owned())));
        }
        for (k, v) in num_args {
            args.push(((*k).to_owned(), Value::Num(*v)));
        }
        fields.push(("args".to_owned(), Value::Obj(args)));
    }
    Value::Obj(fields)
}

/// Human name of a served level code (see
/// [`tlp_timeline::JourneyRecord::served_level`]).
fn served_name(code: u64) -> &'static str {
    match code {
        0 => "l1d",
        1 => "l2",
        2 => "llc",
        3 => "dram",
        _ => "in-flight",
    }
}

/// Renders captured runs as a Chrome trace-event object
/// (`{"traceEvents": [...]}`): one trace "process" per run, counter
/// tracks from the windows, async slices from the journeys.
#[must_use]
pub fn chrome_trace_value(runs: &[TimelineRun]) -> Value {
    let mut events = Vec::new();
    let mut next_id: u64 = 0;
    for (p, run) in runs.iter().enumerate() {
        let pid = p as u64;
        let label = format!("{} / {} / {}", run.workload, run.scheme, run.l1pf);
        events.push(event(
            "M",
            "process_name",
            pid,
            0,
            0,
            None,
            &[("name", &label)],
            &[],
        ));
        for w in &run.timeline.windows {
            let ts = w.end_cycle;
            events.push(event(
                "C",
                "ipc",
                pid,
                0,
                ts,
                None,
                &[],
                &[("ipc_milli", w.ipc_milli())],
            ));
            events.push(event(
                "C",
                "mpki",
                pid,
                0,
                ts,
                None,
                &[],
                &[
                    ("l1d_milli", w.l1d_mpki_milli()),
                    ("l2_milli", w.l2_mpki_milli()),
                    ("llc_milli", w.llc_mpki_milli()),
                ],
            ));
            events.push(event(
                "C",
                "prefetch",
                pid,
                0,
                ts,
                None,
                &[],
                &[
                    ("accuracy_milli", w.pf_accuracy_milli()),
                    ("coverage_milli", w.pf_coverage_milli()),
                    ("filter_drop_milli", w.filter_drop_milli()),
                ],
            ));
            events.push(event(
                "C",
                "offchip",
                pid,
                0,
                ts,
                None,
                &[],
                &[
                    ("precision_milli", w.offchip_precision_milli()),
                    ("recall_milli", w.offchip_recall_milli()),
                ],
            ));
            events.push(event(
                "C",
                "dram",
                pid,
                0,
                ts,
                None,
                &[],
                &[
                    ("read_bw_milli", w.dram_read_bw_milli()),
                    ("row_hit_milli", w.dram_row_hit_milli()),
                ],
            ));
            events.push(event(
                "C",
                "occupancy",
                pid,
                0,
                ts,
                None,
                &[],
                &[("rob", w.rob_occupancy), ("mshr", w.mshr_occupancy)],
            ));
        }
        for j in &run.timeline.journeys {
            let id = next_id;
            next_id += 1;
            let name = format!("load@{:#x}", j.pc);
            events.push(event(
                "b",
                &name,
                pid,
                j.core,
                j.dispatch,
                Some(id),
                &[("served", served_name(j.served_level))],
                &[
                    ("ordinal", j.ordinal),
                    ("pc", j.pc),
                    ("vaddr", j.vaddr),
                    ("offchip_decision", j.offchip_decision),
                    ("offchip_valid", j.offchip_valid),
                    ("filter_seen", j.filter_seen),
                ],
            ));
            let mut last = j.dispatch;
            for (stage, at) in [
                ("l1_lookup", j.l1_at),
                ("l2_lookup", j.l2_at),
                ("dram_queue", j.dram_queue_at),
                ("bank_service", j.bank_at),
                ("fill", j.fill_at),
            ] {
                if at == 0 {
                    continue;
                }
                last = last.max(at);
                events.push(event("n", stage, pid, j.core, at, Some(id), &[], &[]));
            }
            events.push(event("e", &name, pid, j.core, last, Some(id), &[], &[]));
        }
    }
    Value::Obj(vec![
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
        ("traceEvents".to_owned(), Value::Arr(events)),
    ])
}

/// Validates Chrome-trace text written by [`write_timeline_files`]: it
/// must parse under the serial codec and every event must carry the
/// mandatory `ph`/`ts`/`pid` fields. Returns the event count.
///
/// # Errors
///
/// Returns a description of the first malformation found.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    let v = tlp_sim::serial::parse_value(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = v
        .arr_field("traceEvents")
        .map_err(|e| format!("no traceEvents array: {e}"))?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_owned());
    }
    for (i, ev) in events.iter().enumerate() {
        for key in ["ph", "ts", "pid"] {
            if ev.field(key).is_err() {
                return Err(format!("event {i} lacks required field '{key}'"));
            }
        }
    }
    Ok(events.len())
}

/// Renders captured runs as CSV: the window table of every run (see
/// [`Timeline::windows_csv`]) prefixed with identity columns.
#[must_use]
pub fn windows_csv(runs: &[TimelineRun]) -> String {
    let mut out = String::from("workload,scheme,l1pf,");
    out.push_str(
        Timeline::default()
            .windows_csv()
            .lines()
            .next()
            .unwrap_or(""),
    );
    out.push('\n');
    for run in runs {
        let body = run.timeline.windows_csv();
        for line in body.lines().skip(1) {
            out.push_str(&run.workload);
            out.push(',');
            out.push_str(&run.scheme);
            out.push(',');
            out.push_str(&run.l1pf);
            out.push(',');
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Writes the Chrome trace to `path` and the window CSV to
/// `path` + `.csv`.
///
/// # Errors
///
/// Returns the underlying I/O error when either file cannot be written.
pub fn write_timeline_files(path: &Path, runs: &[TimelineRun]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_value(runs).render())?;
    let mut csv_path = path.as_os_str().to_owned();
    csv_path.push(".csv");
    std::fs::write(csv_path, windows_csv(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_timeline::{Counters, JourneyRecord, WindowSample};

    fn run_fixture() -> TimelineRun {
        let mut t = Timeline {
            window_cycles: 100,
            journey_every: 4,
            start_cycle: 0,
            end_cycle: 200,
            ..Timeline::default()
        };
        t.windows.push(WindowSample {
            start_cycle: 0,
            end_cycle: 100,
            counters: Counters {
                instructions: 400,
                l1d_misses: 10,
                dram_reads: 5,
                dram_row_hits: 3,
                dram_row_conflicts: 1,
                ..Counters::default()
            },
            rob_occupancy: 50,
            mshr_occupancy: 4,
        });
        t.journeys.push(JourneyRecord {
            core: 0,
            ordinal: 0,
            pc: 0x400_100,
            vaddr: 0xdead_b000,
            dispatch: 10,
            l1_at: 12,
            l2_at: 20,
            dram_queue_at: 40,
            bank_at: 55,
            fill_at: 90,
            offchip_decision: 2,
            offchip_valid: 1,
            filter_seen: 0,
            served_level: 3,
        });
        TimelineRun {
            workload: "bfs.urand".to_owned(),
            scheme: "tlp".to_owned(),
            l1pf: "ipcp".to_owned(),
            timeline: Arc::new(t),
        }
    }

    #[test]
    fn chrome_trace_passes_its_own_validator() {
        let text = chrome_trace_value(&[run_fixture()]).render();
        let n = check_chrome_trace(&text).expect("valid trace");
        // 1 metadata + 6 counters + 1 begin + 5 instants + 1 end.
        assert_eq!(n, 14);
    }

    #[test]
    fn journeys_render_as_matched_async_slices() {
        let text = chrome_trace_value(&[run_fixture()]).render();
        let v = tlp_sim::serial::parse_value(&text).unwrap();
        let events = v.arr_field("traceEvents").unwrap();
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.str_field("ph").as_deref() == Ok("b"))
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.str_field("ph").as_deref() == Ok("e"))
            .collect();
        assert_eq!(begins.len(), 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(
            begins[0].u64_field("id").unwrap(),
            ends[0].u64_field("id").unwrap()
        );
        // The slice closes at the last stamp (the fill).
        assert_eq!(ends[0].u64_field("ts").unwrap(), 90);
        let args = begins[0].field("args").unwrap();
        assert_eq!(args.str_field("served").unwrap(), "dram");
        assert_eq!(args.u64_field("offchip_decision").unwrap(), 2);
    }

    #[test]
    fn empty_trace_fails_validation() {
        let text = chrome_trace_value(&[]).render();
        assert!(check_chrome_trace(&text).is_err());
        assert!(check_chrome_trace("{}").is_err());
        assert!(check_chrome_trace("not json").is_err());
    }

    #[test]
    fn csv_prefixes_identity_columns() {
        let csv = windows_csv(&[run_fixture()]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("workload,scheme,l1pf,start_cycle,"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("bfs.urand,tlp,ipcp,0,100,"));
        let (h, r) = (header.split(',').count(), row.split(',').count());
        assert_eq!(h, r, "every row matches the header arity");
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn summary_counts_windows_and_journeys() {
        let s = summary_value(&[run_fixture()]);
        assert_eq!(s.u64_field("total_windows").unwrap(), 1);
        assert_eq!(s.u64_field("total_journeys").unwrap(), 1);
        let runs = s.arr_field("runs").unwrap();
        assert_eq!(runs[0].str_field("workload").unwrap(), "bfs.urand");
        assert_eq!(runs[0].u64_field("windows").unwrap(), 1);
    }
}
