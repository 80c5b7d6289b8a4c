//! Determinism pins for simulated-time telemetry: the exported timeline
//! artifacts (Chrome trace + CSV) must be byte-identical across engine
//! modes, worker-thread counts, and cache temperature, and capturing a
//! timeline must never perturb a cell's `SimReport`.
//!
//! Everything in a timeline derives from simulated state only (window
//! boundaries in simulated cycles, journey stamps at simulated times,
//! integer milli-unit rates) — these tests are what keep it that way.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use tlp::harness::timeline::{chrome_trace_value, windows_csv};
use tlp::harness::{
    EngineMode, Harness, L1Pf, Machine, RunCell, RunConfig, Scheme, TimelineConfig,
};
use tlp::sim::engine::{CoreSetup, System};
use tlp::sim::SystemConfig;
use tlp::trace::emit::Workload;
use tlp::trace::{Reg, TraceRecord, VecTrace};

/// The two pinned workloads: one graph kernel, one SPEC trace.
const WORKLOADS: [&str; 2] = ["bfs.urand", "spec.mcf_06"];

fn rc(threads: usize, engine: EngineMode) -> RunConfig {
    let mut rc = RunConfig::test();
    rc.warmup = 1_000;
    rc.instructions = 5_000;
    rc.threads = threads;
    rc.engine = engine;
    rc
}

/// A short window and a dense journey modulus so the small test budget
/// still produces several windows and journeys per workload.
fn tcfg() -> TimelineConfig {
    TimelineConfig {
        window_cycles: 2_000,
        journey_every: 8,
        ..TimelineConfig::default()
    }
}

/// The pinned workloads' cells under TLP/ipcp.
fn pinned_cells(h: &Harness) -> Vec<RunCell> {
    WORKLOADS
        .iter()
        .map(|name| {
            let w: Arc<dyn Workload> = h
                .workloads()
                .iter()
                .find(|w| w.name() == *name)
                .unwrap_or_else(|| panic!("{name} missing from the catalog"))
                .clone();
            let (s, p) = (Scheme::Tlp.resolve(), L1Pf::Ipcp.resolve());
            h.cell(&[w], s, p, Machine::CascadeLake(None))
        })
        .collect()
}

/// Renders both export formats for the pinned workloads under TLP/ipcp.
fn artifacts(h: &Harness) -> (String, String) {
    let runs = h.timelines(&pinned_cells(h), tcfg());
    (chrome_trace_value(&runs).render(), windows_csv(&runs))
}

fn tmp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-timeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn artifacts_are_byte_identical_across_engines_and_thread_counts() {
    let (trace_cycle, csv_cycle) = artifacts(&Harness::new(rc(1, EngineMode::Cycle)));
    assert!(
        trace_cycle.contains("\"traceEvents\""),
        "trace renders events"
    );
    assert!(csv_cycle.lines().count() > 2, "CSV has window rows");

    let (trace_event, csv_event) = artifacts(&Harness::new(rc(1, EngineMode::Event)));
    assert_eq!(trace_cycle, trace_event, "Chrome trace differs by engine");
    assert_eq!(csv_cycle, csv_event, "CSV differs by engine");

    let (trace_8, csv_8) = artifacts(&Harness::new(rc(8, EngineMode::Event)));
    assert_eq!(trace_cycle, trace_8, "Chrome trace differs by thread count");
    assert_eq!(csv_cycle, csv_8, "CSV differs by thread count");
}

#[test]
fn warm_blob_cache_reproduces_cold_artifacts_from_disk() {
    let dir = tmp_cache_dir("warm");
    let cold = Harness::new(rc(2, EngineMode::Cycle))
        .with_cache_dir(&dir)
        .expect("cache dir");
    let (cold_trace, cold_csv) = artifacts(&cold);
    let blobs: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".timeline.json"))
        .collect();
    assert_eq!(
        blobs.len(),
        WORKLOADS.len(),
        "one timeline blob per captured cell"
    );

    // A fresh harness (empty memory tier) over the same directory must
    // answer every capture from the blob files, byte-for-byte.
    let warm = Harness::new(rc(2, EngineMode::Event))
        .with_cache_dir(&dir)
        .expect("cache dir");
    let (warm_trace, warm_csv) = artifacts(&warm);
    assert_eq!(
        warm.engine_stats().simulated,
        0,
        "warm captures must not re-simulate"
    );
    assert_eq!(cold_trace, warm_trace, "Chrome trace differs warm vs cold");
    assert_eq!(cold_csv, warm_csv, "CSV differs warm vs cold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capturing_a_timeline_never_perturbs_the_report() {
    let instrumented = Harness::new(rc(1, EngineMode::Cycle));
    let plain = Harness::new(rc(1, EngineMode::Cycle));
    let cells = pinned_cells(&instrumented);
    // Capture first, then run the same cells on the same harness.
    let _ = instrumented.timelines(&cells, tcfg());
    let reports = instrumented.run(&cells);
    for ((cell, r), p) in cells
        .iter()
        .zip(&reports)
        .zip(plain.run(&pinned_cells(&plain)))
    {
        assert_eq!(
            r,
            &p,
            "{}: report differs when a timeline was captured first",
            cell.label()
        );
    }
}

/// Timeline captures are single-flighted like reports: two threads
/// asking one cold harness for the same cell's timeline execute exactly
/// the ticks of one capture.
#[test]
fn concurrent_requests_share_one_capture() {
    let ticks = |h: &Harness| {
        h.metrics()
            .snapshot()
            .counter("sim_ticks_executed_total")
            .expect("the harness counts executed ticks")
    };
    let alone = Harness::new(rc(1, EngineMode::Event));
    let _ = alone.timelines(&pinned_cells(&alone)[..1], tcfg());
    let one_capture = ticks(&alone);
    assert!(one_capture > 0, "the capture simulates");

    let shared = Harness::new(rc(1, EngineMode::Event));
    let cells = pinned_cells(&shared);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                barrier.wait();
                let _ = shared.timelines(&cells[..1], tcfg());
            });
        }
    });
    assert_eq!(
        ticks(&shared),
        one_capture,
        "two concurrent requests for one timeline key capture it once"
    );
}

/// Journey selection is a deterministic per-core modulus over demand
/// loads — no RNG anywhere. Driving `System::tick` directly pins which
/// loads carry a journey and that their stage stamps are well-ordered.
#[test]
fn every_kth_demand_load_is_sampled_with_ordered_stamps() {
    let recs: Vec<TraceRecord> = (0..40_000)
        .map(|i| {
            let addr = 0x20_0000 + (i as u64 % 512) * 64;
            TraceRecord::load(0x400, addr, 8, Reg(1), [None, None])
        })
        .collect();
    let mut sys = System::new(
        SystemConfig::test_tiny(1),
        vec![CoreSetup::new(Box::new(VecTrace::new("kth", recs)))],
    );
    sys.enable_timeline(TimelineConfig {
        window_cycles: 1_000,
        journey_every: 4,
        ..TimelineConfig::default()
    });
    for _ in 0..30_000 {
        sys.tick();
    }
    let timeline = sys.take_timeline().expect("timeline was enabled");
    assert!(
        timeline.journeys.len() > 10,
        "expected a healthy journey sample, got {}",
        timeline.journeys.len()
    );
    let mut prev_ordinal = None;
    for j in &timeline.journeys {
        assert_eq!(
            j.ordinal % 4,
            0,
            "journey ordinal {} is not a multiple of the modulus",
            j.ordinal
        );
        if let Some(p) = prev_ordinal {
            assert!(j.ordinal > p, "ordinals must be strictly increasing");
        }
        prev_ordinal = Some(j.ordinal);
        // Stage stamps only move forward in simulated time (0 = stage
        // never reached; a stage can't precede dispatch).
        let mut last = j.dispatch;
        for at in [j.l1_at, j.l2_at, j.dram_queue_at, j.bank_at, j.fill_at] {
            if at != 0 {
                assert!(
                    at >= last,
                    "stage stamp {at} precedes an earlier stage at {last}"
                );
                last = at;
            }
        }
    }
    // The modulus starts at the measurement restart: the very first
    // sampled ordinal is 0.
    assert_eq!(timeline.journeys[0].ordinal, 0);
    // Windows tile the measured range without gaps.
    for w in timeline.windows.windows(2) {
        assert_eq!(w[0].end_cycle, w[1].start_cycle, "windows must tile");
    }
}
