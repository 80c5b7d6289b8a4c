//! Trace sources: where the simulator pulls records from.

use std::sync::Arc;

use crate::emit::Workload;
use crate::record::TraceRecord;
use crate::sink::{RecorderSink, TraceSink};

/// The producer side consumed by the CPU model.
///
/// A source is infinite from the simulator's point of view: workload
/// generators are restarted as needed, matching the paper's methodology of
/// simulating a fixed instruction budget regardless of kernel length.
pub trait TraceSource: Send {
    /// Produces the next dynamic instruction.
    ///
    /// Returns `None` only if the source is genuinely exhausted (finite
    /// captured traces); generator-backed sources never return `None`.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// Stable workload name for reporting.
    fn name(&self) -> &str;
}

/// Captures `budget` records from a workload by running its passes 0, 1,
/// 2, … until the budget is met. The records are a function of the
/// workload and `budget` alone.
///
/// # Panics
///
/// Panics if the workload emits no records at all (a broken generator).
#[must_use]
pub fn capture(workload: &dyn Workload, budget: usize) -> Vec<TraceRecord> {
    let mut sink = RecorderSink::new(budget);
    let mut pass = 0;
    while !sink.is_closed() {
        let before = sink.len();
        workload.generate(pass, &mut sink);
        assert!(
            sink.len() > before || sink.is_closed(),
            "workload {} emitted no records",
            workload.name()
        );
        pass += 1;
        assert!(pass < 1_000_000, "workload restart runaway");
    }
    sink.into_records()
}

/// A finite, in-memory trace that replays captured records in a loop.
#[derive(Debug, Clone)]
pub struct VecTrace {
    name: String,
    records: Arc<Vec<TraceRecord>>,
    pos: usize,
    looping: bool,
}

impl VecTrace {
    /// Wraps captured records; replays once then ends.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        assert!(!records.is_empty(), "empty trace");
        Self {
            name: name.into(),
            records: Arc::new(records),
            pos: 0,
            looping: false,
        }
    }

    /// Wraps captured records and loops forever (SimPoint-style replay).
    #[must_use]
    pub fn looping(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        let mut t = Self::new(name, records);
        t.looping = true;
        t
    }

    /// Loops over records already shared behind an `Arc`, without copying.
    ///
    /// The harness trace tier hands every core the same captured buffer;
    /// this constructor keeps that hand-off allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    #[must_use]
    pub fn looping_shared(name: impl Into<String>, records: Arc<Vec<TraceRecord>>) -> Self {
        assert!(!records.is_empty(), "empty trace");
        Self {
            name: name.into(),
            records,
            pos: 0,
            looping: true,
        }
    }

    /// Captures `budget` records from `workload` into a looping trace.
    #[must_use]
    pub fn from_workload(workload: &dyn Workload, budget: usize) -> Self {
        Self::looping(workload.name().to_owned(), capture(workload, budget))
    }

    /// Number of distinct records before looping.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false: construction rejects empty traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl TraceSource for VecTrace {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.pos >= self.records.len() {
            if !self.looping {
                return None;
            }
            self.pos = 0;
        }
        let r = self.records[self.pos];
        self.pos += 1;
        Some(r)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{Emitter, Suite};
    use crate::record::Reg;

    struct TinyWorkload;

    impl Workload for TinyWorkload {
        fn name(&self) -> &str {
            "tiny"
        }
        fn suite(&self) -> Suite {
            Suite::Spec
        }
        fn generate(&self, _pass: u64, sink: &mut dyn TraceSink) {
            let mut e = Emitter::new(sink, 0x1000);
            for i in 0..10u64 {
                if !e.load(0, 0x10_000 + i * 64, Reg(3), [None, None]) {
                    return;
                }
                e.alu(1, Some(Reg(5)), [Some(Reg(3)), Some(Reg(5))]);
                e.loop_branch(2, i != 9, 0);
            }
        }
    }

    #[test]
    fn capture_restarts_until_budget() {
        let recs = capture(&TinyWorkload, 95);
        assert_eq!(recs.len(), 95);
        // One pass is 30 records; the fourth pass is cut short.
        assert_eq!(recs[30].pc, recs[0].pc);
    }

    #[test]
    fn capture_is_a_pure_function_of_the_workload() {
        for name in ["bfs.kron", "spec.mcf_06"] {
            let w = crate::catalog::workload(name, crate::catalog::Scale::Tiny).expect(name);
            let first = capture(w.as_ref(), 5_000);
            assert_eq!(first, capture(w.as_ref(), 5_000), "{name} recaptured");
        }
    }

    #[test]
    fn vec_trace_loops() {
        let mut t = VecTrace::looping("t", capture(&TinyWorkload, 30));
        for _ in 0..75 {
            assert!(t.next_record().is_some());
        }
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn vec_trace_finite_ends() {
        let mut t = VecTrace::new("t", capture(&TinyWorkload, 5));
        for _ in 0..5 {
            assert!(t.next_record().is_some());
        }
        assert!(t.next_record().is_none());
    }
}
