//! Golden-report regression fixtures: the exact rendered tables of
//! `fig01` and `ext7` at a pinned test-scale budget, and the full
//! `SimReport` JSON of a busy single-core cell and a 4-core mix, are
//! checked into `tests/golden/`. Any change to the simulator, the
//! workload generators, or the experiment code that shifts a single
//! digit of these fixtures fails here — results can never drift
//! silently. The report fixtures are the ones a scheduler change meets:
//! both engines share the core model, so cycle ≡ event alone cannot
//! catch a change that moves both.
//!
//! To intentionally update the fixtures after a behavior change, run
//! `scripts/update-golden.sh` (which sets `UPDATE_GOLDEN=1` around this
//! suite) and commit the diff with an explanation of why the numbers
//! moved. The budget below is deliberately hardcoded — not derived from
//! `RunConfig::test()` — so harness-default changes cannot silently
//! re-scope the fixtures.

use std::path::PathBuf;

use tlp_harness::experiments::{ext07_rl, fig01};
use tlp_harness::{EngineMode, Harness, L1Pf, RunConfig, Scheme};
use tlp_sim::{serial, System, SystemConfig};
use tlp_trace::catalog::{self, Scale};
use tlp_trace::{TraceRecord, VecTrace};

/// The pinned fixture budget. Threads are irrelevant to results (see
/// `tests/determinism.rs` at the workspace root) and left at the default.
fn golden_harness() -> Harness {
    let mut rc = RunConfig::test();
    rc.scale = Scale::Tiny;
    rc.warmup = 1_500;
    rc.instructions = 8_000;
    rc.workloads_per_suite = Some(1);
    rc.mixes_per_suite = 1;
    Harness::new(rc)
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `rendered` against the checked-in fixture, or rewrites the
/// fixture when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, rendered: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run scripts/update-golden.sh",
            path.display()
        )
    });
    assert_eq!(
        expected, rendered,
        "golden mismatch for '{name}': results drifted from the checked-in \
         fixture. If the change is intentional, run scripts/update-golden.sh \
         and commit the new fixture with a rationale."
    );
}

#[test]
fn fig01_matches_golden_fixture() {
    let h = golden_harness();
    check_golden("fig01", &fig01::run(&h).render());
}

#[test]
fn ext07_matches_golden_fixtures() {
    let h = golden_harness();
    check_golden("ext07", &ext07_rl::run(&h).render());
    check_golden("ext07lc", &ext07_rl::run_learning_curve(&h).render());
}

/// One catalog workload captured at `Scale::Quick` with `records` records.
fn capture(name: &str, records: u64) -> Vec<TraceRecord> {
    let w = catalog::workload(name, Scale::Quick).expect("workload in catalog");
    tlp_trace::source::capture(w.as_ref(), records as usize + 4096)
}

/// Runs TLP with IPCP at L1D over `traces` (one per core) under `mode`
/// and renders the report as the result cache stores it.
fn tlp_report(traces: Vec<VecTrace>, warmup: u64, instructions: u64, mode: EngineMode) -> String {
    let cfg = SystemConfig::cascade_lake(traces.len());
    let setups = traces
        .into_iter()
        .map(|t| Scheme::Tlp.build_setup(Box::new(t), L1Pf::Ipcp))
        .collect();
    let mut sys = System::new(cfg, setups).with_engine_mode(mode);
    serial::report_to_json(&sys.run(warmup, instructions))
}

/// bfs.urand, the busiest single-core workload, at the busy-phase budget
/// of `tests/busy_phase.rs`, with the paper's scheme live.
#[test]
fn bfs_urand_report_matches_golden_fixture() {
    const WARMUP: u64 = 2_000;
    const INSTRUCTIONS: u64 = 20_000;
    let records = capture("bfs.urand", WARMUP + INSTRUCTIONS);
    for mode in [EngineMode::Cycle, EngineMode::Event] {
        let trace = VecTrace::new("bfs.urand", records.clone());
        let json = tlp_report(vec![trace], WARMUP, INSTRUCTIONS, mode);
        check_golden("report_bfs_urand", &json);
    }
}

/// The 4-core SPEC mix of `tests/busy_phase.rs` (and perfbench's
/// `mix-4c`): looping traces, TLP with IPCP, 1 K warm-up then 5 K
/// measured instructions per core.
#[test]
fn mix4c_report_matches_golden_fixture() {
    const MIX: [&str; 4] = [
        "spec.cactubssn_17",
        "spec.xalancbmk_17",
        "spec.milc_06",
        "spec.mcf_17",
    ];
    const WARMUP: u64 = 1_000;
    const INSTRUCTIONS: u64 = 5_000;
    let traces: Vec<_> = MIX
        .iter()
        .map(|name| (*name, capture(name, WARMUP + INSTRUCTIONS)))
        .collect();
    for mode in [EngineMode::Cycle, EngineMode::Event] {
        let looping = traces
            .iter()
            .map(|(name, recs)| VecTrace::looping(*name, recs.clone()))
            .collect();
        let json = tlp_report(looping, WARMUP, INSTRUCTIONS, mode);
        check_golden("report_mix4c", &json);
    }
}
