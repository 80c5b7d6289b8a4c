//! The `trace:` workload namespace: stored trace files as first-class
//! catalog workloads.
//!
//! A [`TraceWorkload`] wraps an on-disk trace (imported ChampSim or any
//! stored capture) behind the [`Workload`] trait, so every harness path —
//! single cells, sweeps, timelines — runs it like a generated workload.
//! The harness resolves [`Workload::trace_path`] and streams the file
//! directly (zero captures); the [`Workload::generate`] fallback decodes
//! the file for paths that genuinely need a generator.

use std::path::{Path, PathBuf};

use tlp_trace::emit::{Suite, Workload};
use tlp_trace::sink::TraceSink;
use tlp_trace::TraceSource;

use crate::v2::{ReadTraceError, StreamTrace};

/// Prefix of the workload namespace (`trace:NAME`).
pub const TRACE_NAMESPACE: &str = "trace:";

/// A workload backed by an on-disk trace file.
#[derive(Debug)]
pub struct TraceWorkload {
    name: String,
    path: PathBuf,
}

impl TraceWorkload {
    /// Wraps the trace at `path` as workload `trace:{name}`, validating
    /// the file up front (one open) so later harness paths can rely on
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] when the file cannot be read or parsed.
    pub fn open(name: &str, path: impl Into<PathBuf>) -> Result<Self, ReadTraceError> {
        let path = path.into();
        let _ = StreamTrace::open(&path)?;
        Ok(Self {
            name: format!("{TRACE_NAMESPACE}{name}"),
            path,
        })
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn suite(&self) -> Suite {
        // External traces are SPEC-shaped from the catalog's point of
        // view: single-binary regions, not graph kernels.
        Suite::Spec
    }

    fn generate(&self, _pass: u64, sink: &mut dyn TraceSink) {
        let mut reader =
            StreamTrace::open(&self.path).expect("trace file validated at TraceWorkload::open");
        while let Some(rec) = reader.next_record() {
            if !sink.emit(rec) {
                return;
            }
        }
    }

    fn trace_path(&self) -> Option<&Path> {
        Some(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_trace::source::capture;
    use tlp_trace::{Reg, TraceRecord};

    fn records(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                if i % 7 == 6 {
                    TraceRecord::branch(0x418, i % 3 != 0, 0x400, None)
                } else {
                    TraceRecord::load(
                        0x400 + (i as u64 % 6) * 4,
                        0x20_0000 + i as u64 * 64,
                        8,
                        Reg(2),
                        [None, None],
                    )
                }
            })
            .collect()
    }

    #[test]
    fn trace_workload_generates_the_stored_records() {
        let dir = std::env::temp_dir().join(format!("tlp-twl-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("wl.tlpt");
        let recs = records(512);
        crate::v2::write_trace_v2(&path, "trace:demo", true, &recs, &[], 0).expect("write");
        let w = TraceWorkload::open("demo", &path).expect("open");
        assert_eq!(w.name(), "trace:demo");
        assert_eq!(w.trace_path(), Some(path.as_path()));
        // capture() drives generate(); a looping trace restarts cleanly.
        let captured = capture(&w, recs.len() + 100);
        assert_eq!(&captured[..recs.len()], &recs[..]);
        assert_eq!(&captured[recs.len()..], &recs[..100]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("tlp-twl-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bad.tlpt");
        std::fs::write(&path, b"not a trace").expect("write");
        assert!(TraceWorkload::open("bad", &path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
