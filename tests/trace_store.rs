//! Workspace-level pins for the trace store: the TLPT v2 compression
//! floor on real catalog workloads, warm-store capture avoidance across
//! harness instances, and SimPoint determinism plus reconstitution
//! accuracy — the trace tier's acceptance criteria, tested through the
//! public `tlp` facade like a downstream user would.

use std::path::PathBuf;

use tlp::harness::{Harness, L1Pf, RunConfig, Scheme};
use tlp::trace::catalog::{single_core_set, Scale};
use tlp::trace::emit::Suite;
use tlp::trace::source::capture;
use tlp::tracestore::{encode_trace_v2, trace_info, v1_bytes, StreamTrace};

fn rc() -> RunConfig {
    let mut rc = RunConfig::test();
    rc.warmup = 1_000;
    rc.instructions = 5_000;
    rc.workloads_per_suite = Some(1);
    rc.mixes_per_suite = 1;
    rc.threads = 2;
    rc
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-tracestore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The compression floor from the issue: on every GAP workload in the
/// catalog, the delta/varint block encoding must be at least 3x smaller
/// than the flat v1 record array. (Graph workloads are the worst case —
/// irregular neighbour-list addresses delta-compress poorly compared to
/// SPEC's pointer-chasing loops.)
#[test]
fn v2_is_at_least_3x_smaller_than_v1_on_gap_workloads() {
    let budget = 10_096; // one test-scale cell: warmup + instructions + slack
    let gap: Vec<_> = single_core_set(Scale::Tiny)
        .into_iter()
        .filter(|w| matches!(w.suite(), Suite::Gap))
        .collect();
    assert!(!gap.is_empty(), "catalog has GAP workloads");
    for w in gap {
        let recs = capture(w.as_ref(), budget);
        let v1 = v1_bytes(w.name(), recs.len() as u64);
        let v2 = encode_trace_v2(w.name(), true, &recs, &[], 0).len();
        let ratio = v1 as f64 / v2 as f64;
        assert!(
            ratio >= 3.0,
            "{}: v2 is only {ratio:.2}x smaller than v1 ({v1} -> {v2} bytes)",
            w.name()
        );
    }
}

/// A warm trace dir must make a fresh harness capture-free: the second
/// instance streams every trace from disk and reproduces the first
/// instance's report bit-for-bit.
#[test]
fn warm_trace_dir_serves_a_fresh_harness_without_capturing() {
    let dir = tmp_dir("warm");
    let cold = Harness::new(rc()).with_trace_dir(&dir).expect("trace dir");
    let w = cold.active_workloads()[0].clone();
    let cold_report = cold.run_single(&w, Scheme::Tlp, L1Pf::Ipcp);
    assert!(cold.trace_stats().captures > 0, "cold harness captures");

    let warm = Harness::new(rc()).with_trace_dir(&dir).expect("trace dir");
    let ww = warm.active_workloads()[0].clone();
    assert_eq!(ww.name(), w.name());
    let warm_report = warm.run_single(&ww, Scheme::Tlp, L1Pf::Ipcp);
    let ts = warm.trace_stats();
    assert_eq!(ts.captures, 0, "warm harness must not capture");
    assert!(ts.disk_hits > 0, "warm harness streams from the store");
    assert_eq!(cold_report, warm_report);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Capture is a pure function of the workload and environment: two
/// independent harnesses writing to two independent stores produce
/// byte-identical trace files — same records, same capture-time
/// SimPoints in the footer, same checksums.
#[test]
fn independent_captures_are_byte_identical_including_simpoints() {
    let dirs = [tmp_dir("det-a"), tmp_dir("det-b")];
    let mut files: Vec<(PathBuf, Vec<u8>)> = Vec::new();
    for dir in &dirs {
        let h = Harness::new(rc()).with_trace_dir(dir).expect("trace dir");
        let w = h.active_workloads()[0].clone();
        let _ = h.run_single(&w, Scheme::Baseline, L1Pf::Ipcp);
        let entries = h
            .trace_store()
            .expect("store attached")
            .entries()
            .expect("list");
        assert_eq!(entries.len(), 1, "exactly one capture");
        let bytes = std::fs::read(&entries[0].0).expect("read trace file");
        files.push((entries[0].0.clone(), bytes));
    }
    assert_eq!(
        files[0].0.file_name(),
        files[1].0.file_name(),
        "content address is deterministic"
    );
    assert_eq!(files[0].1, files[1].1, "capture bytes are deterministic");

    // The footer carries usable capture-time SimPoints.
    let info = trace_info(&files[0].0).expect("captures are written as v2");
    assert!(!info.simpoints.is_empty(), "footer has SimPoints");
    let total: f64 = info.simpoints.iter().map(|p| p.weight).sum();
    assert!((total - 1.0).abs() < 1e-9, "SimPoint weights sum to 1");
    // And the streaming reader surfaces the same regions.
    let t = StreamTrace::open(&files[0].0).expect("open");
    assert_eq!(t.simpoints(), &info.simpoints[..]);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Weighted reconstitution tracks the full run: on a catalog workload
/// whose trace spans several BBV intervals, the SimPoint estimate's IPC
/// must land within 25% of the full-trace simulation. (The regions cover
/// the trace exactly, so most of the residual error is warmup state.)
#[test]
fn simpoint_estimate_tracks_the_full_run() {
    let mut rc = rc();
    rc.warmup = 2_000;
    rc.instructions = 28_000; // budget spans 3 BBV intervals of 10k
    let h = Harness::new(rc);
    // A graph workload with real phase structure: bc.web clusters into
    // three regions at this budget (SPEC's tiny-scale loops collapse to
    // one cluster, which would make the estimate trivially exact).
    let w = h
        .workloads()
        .iter()
        .find(|w| w.name() == "bc.web")
        .expect("bc.web in the catalog")
        .clone();
    let full = h.run_single(&w, Scheme::Tlp, L1Pf::Ipcp);
    let run = h.run_simpoints(&w, Scheme::Tlp, L1Pf::Ipcp, 3);
    assert!(run.regions.len() > 1, "multi-region estimate");
    assert_eq!(run.region_reports.len(), run.regions.len());
    let rel = (run.estimate.ipc() - full.ipc()).abs() / full.ipc();
    assert!(
        rel <= 0.25,
        "SimPoint IPC estimate off by {:.1}% (full {:.4}, estimate {:.4})",
        rel * 100.0,
        full.ipc(),
        run.estimate.ipc()
    );
}
