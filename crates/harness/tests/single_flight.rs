//! Cross-batch single-flight regression: two concurrent clients of one
//! harness submitting the *same* grid must cost one grid of simulation.
//!
//! Before the in-flight map, two batches racing on a cold
//! cache each passed the lookup (miss) before either published, so every
//! overlapping cell simulated twice — wasted work locally, and a
//! correctness hazard for the `tlp-serve` daemon where "two clients, one
//! grid" is the normal case.

use std::sync::{Arc, Barrier};

use tlp_harness::{Harness, RunConfig};
use tlp_sim::serial;
use tlp_sim::SimReport;

/// Reports as their exact cache-codec bytes, so "same result" means
/// byte-identical serialization, not just approximate equality.
fn as_json(reports: &[Arc<SimReport>]) -> Vec<String> {
    reports.iter().map(|r| serial::report_to_json(r)).collect()
}

#[test]
fn concurrent_identical_grids_simulate_each_cell_once() {
    let mut rc = RunConfig::test();
    rc.threads = 2;
    let h = Harness::new(rc);
    let spec = h
        .registry()
        .scheme("Baseline")
        .expect("built-in scheme")
        .clone();
    let unique = h.active_workloads().len() as u64;
    assert!(unique > 1, "the test grid must have multiple cells");

    let barrier = Barrier::new(2);
    let (rows_a, rows_b) = std::thread::scope(|s| {
        let run = |_: ()| {
            let (h, spec, barrier) = (&h, &spec, &barrier);
            s.spawn(move || {
                let cells = h.cells(spec, "ipcp", &[]).expect("cells resolve");
                barrier.wait();
                h.run(&cells)
            })
        };
        let a = run(());
        let b = run(());
        (a.join().expect("client a"), b.join().expect("client b"))
    });

    let stats = h.engine_stats();
    assert_eq!(
        stats.simulated, unique,
        "each unique cell simulates exactly once across both grids: {stats:?}"
    );
    assert_eq!(
        as_json(&rows_a),
        as_json(&rows_b),
        "both requesters observe byte-identical reports"
    );

    // A third, sequential pass is pure cache: the counter must not move.
    let rows_c = h.run(&h.cells(&spec, "ipcp", &[]).expect("cells resolve"));
    assert_eq!(h.engine_stats().simulated, unique);
    assert_eq!(as_json(&rows_a), as_json(&rows_c));
}
