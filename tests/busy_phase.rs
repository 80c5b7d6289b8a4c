//! Busy-phase stress pins for the zero-alloc engine refactor: the
//! scratch-buffer hot loop, the move-based DRAM handoff, and the event
//! engine's scheduling pass and per-core stage skipping must all be
//! invisible in simulated results. Each test races the cycle engine
//! against the event engine (or a second identical run) and requires
//! field-identical `SimReport`s.

use tlp::harness::{L1Pf, Scheme};
use tlp::sim::engine::System;
use tlp::sim::{EngineMode, SimReport, SystemConfig, Timeline, TimelineConfig};
use tlp::trace::catalog::{self, Scale};
use tlp::trace::{TraceRecord, VecTrace};

const WARMUP: u64 = 2_000;
const INSTRUCTIONS: u64 = 20_000;

/// One captured trace, replayed identically into every run.
fn capture(name: &str) -> Vec<TraceRecord> {
    let w = catalog::workload(name, Scale::Quick).expect("workload in catalog");
    tlp::trace::source::capture(w.as_ref(), (WARMUP + INSTRUCTIONS) as usize + 4096)
}

fn run_with(records: &[TraceRecord], cfg: SystemConfig, mode: EngineMode) -> SimReport {
    let trace = VecTrace::new("busy", records.to_vec());
    let setup = Scheme::Baseline.build_setup(Box::new(trace), L1Pf::Ipcp);
    let mut sys = System::new(cfg, vec![setup]).with_engine_mode(mode);
    sys.run(WARMUP, INSTRUCTIONS)
}

/// bfs.urand is the busiest workload in the catalog at this scale (the
/// one where event mode historically regressed): with prefetchers and
/// off-chip prediction live, the event engine's scheduling pass must
/// reproduce the cycle engine bit-for-bit through the busy phases.
#[test]
fn bfs_busy_phase_cycle_and_event_reports_identical() {
    let records = capture("bfs.urand");
    let cfg = SystemConfig::cascade_lake(1);
    let cycle = run_with(&records, cfg.clone(), EngineMode::Cycle);
    let event = run_with(&records, cfg, EngineMode::Event);
    assert_eq!(cycle, event, "engines disagree on bfs.urand");
}

/// Two back-to-back runs in one process: the second run starts with a
/// warmed allocator (freelists, scratch capacities from the first run's
/// process state have no way to leak between `System`s, but a stale
/// buffer reused across cycles inside one engine would show up here as
/// a drifted report).
#[test]
fn warm_process_second_run_identical() {
    let records = capture("bfs.urand");
    let cfg = SystemConfig::cascade_lake(1);
    let first = run_with(&records, cfg.clone(), EngineMode::Cycle);
    let second = run_with(&records, cfg, EngineMode::Cycle);
    assert_eq!(first, second, "second in-process run drifted");
}

/// A near-degenerate DRAM read queue forces the retry path (rejected
/// `push_read`, requeued front-of-line) to run constantly. The rejected
/// request is moved back and forth, never rebuilt — any field damage or
/// ordering slip on that path diverges the two engines.
#[test]
fn tiny_read_queue_retry_path_is_mode_invariant() {
    let records = capture("bfs.urand");
    let mut cfg = SystemConfig::cascade_lake(1);
    cfg.dram.read_queue = 4;
    cfg.dram.write_queue = 4;
    let cycle = run_with(&records, cfg.clone(), EngineMode::Cycle);
    let event = run_with(&records, cfg, EngineMode::Event);
    assert!(
        cycle.dram.read_queue_full > 0,
        "queue never filled: the retry path was not exercised"
    );
    assert_eq!(cycle, event, "engines disagree under retry pressure");
}

/// The four-core SPEC mix of the benchmark's `mix-4c` workload: two
/// compute-bound cores (cactuBSSN, milc) paced by two pointer chasers
/// (xalancbmk, mcf) that sit blocked on DRAM most of the time.
const MIX4C: [&str; 4] = [
    "spec.cactubssn_17",
    "spec.xalancbmk_17",
    "spec.milc_06",
    "spec.mcf_17",
];
/// The pointer chasers' core indices in [`MIX4C`].
const MIX4C_CHASERS: [usize; 2] = [1, 3];
const MIX_WARMUP: u64 = 1_000;
const MIX_INSTRUCTIONS: u64 = 5_000;

/// One captured trace per mix core, replayed identically into every run.
fn capture_mix() -> Vec<Vec<TraceRecord>> {
    MIX4C
        .iter()
        .map(|name| {
            let w = catalog::workload(name, Scale::Quick).expect("workload in catalog");
            tlp::trace::source::capture(w.as_ref(), (MIX_WARMUP + MIX_INSTRUCTIONS) as usize + 4096)
        })
        .collect()
}

/// What one mix run leaves behind for the cross-engine comparison.
struct MixRun {
    report: SimReport,
    timeline: Option<Timeline>,
    ticks: u64,
    core_ticks: Vec<u64>,
}

/// Runs the mix as the harness runs a 4-core cell: looping traces,
/// TLP with IPCP at L1D, `warmup` then the rest of the
/// `MIX_WARMUP + MIX_INSTRUCTIONS` budget measured per core. `timeline`
/// arms a capture with short windows and dense journeys, so window
/// sampling and journey stamps cross the ticks where a core's stage is
/// skipped.
fn run_mix(
    traces: &[Vec<TraceRecord>],
    cfg: SystemConfig,
    mode: EngineMode,
    warmup: u64,
    timeline: bool,
) -> MixRun {
    let setups = MIX4C
        .iter()
        .zip(traces)
        .map(|(name, recs)| {
            let trace = VecTrace::looping(*name, recs.clone());
            Scheme::Tlp.build_setup(Box::new(trace), L1Pf::Ipcp)
        })
        .collect();
    let mut sys = System::new(cfg, setups).with_engine_mode(mode);
    if timeline {
        sys.enable_timeline(TimelineConfig {
            window_cycles: 2_000,
            journey_every: 8,
            ..TimelineConfig::default()
        });
    }
    let report = sys.run(warmup, MIX_WARMUP + MIX_INSTRUCTIONS - warmup);
    MixRun {
        report,
        timeline: sys.take_timeline(),
        ticks: sys.ticks_executed(),
        core_ticks: sys.core_ticks_executed(),
    }
}

/// The cell shape the per-core skip exists for: the fast cores keep
/// every cycle busy, so the event engine skips no whole cycle, while the
/// pointer chasers skip their core stage on almost every executed tick.
/// Reports, timelines and tick counts must not move.
#[test]
fn mix4c_shape_cycle_and_event_identical() {
    let traces = capture_mix();
    let cfg = SystemConfig::cascade_lake(MIX4C.len());
    let cycle = run_mix(&traces, cfg.clone(), EngineMode::Cycle, MIX_WARMUP, true);
    let event = run_mix(&traces, cfg, EngineMode::Event, MIX_WARMUP, true);
    assert_eq!(cycle.report, event.report, "engines disagree on the mix");
    assert!(cycle.timeline.is_some(), "the armed capture must finish");
    assert_eq!(cycle.timeline, event.timeline, "timelines diverged");
    assert_eq!(
        cycle.ticks, event.ticks,
        "the busy cores leave no whole cycle to skip"
    );
    assert!(
        cycle.core_ticks.iter().all(|&t| t == cycle.ticks),
        "the cycle engine runs every core stage on every tick: {:?}",
        cycle.core_ticks
    );
    for i in MIX4C_CHASERS {
        assert!(
            event.core_ticks[i] * 10 < event.ticks,
            "{} ran its core stage on {} of {} ticks",
            MIX4C[i],
            event.core_ticks[i],
            event.ticks
        );
    }
}

/// The same mix with near-degenerate DRAM queues: retries run while
/// fills reach the blocked cores in bursts. The whole run is measured:
/// once warm, the chasers alone never fill even four read slots, but
/// the compute-bound cores' cold first pass streams into DRAM.
#[test]
fn mix4c_tiny_dram_queues_are_mode_invariant() {
    let traces = capture_mix();
    let mut cfg = SystemConfig::cascade_lake(MIX4C.len());
    cfg.dram.read_queue = 4;
    cfg.dram.write_queue = 4;
    let cycle = run_mix(&traces, cfg.clone(), EngineMode::Cycle, 0, false);
    let event = run_mix(&traces, cfg, EngineMode::Event, 0, false);
    assert!(
        cycle.report.dram.read_queue_full > 0,
        "queue never filled: the retry path was not exercised"
    );
    assert_eq!(
        cycle.report, event.report,
        "engines disagree under retry pressure"
    );
}
