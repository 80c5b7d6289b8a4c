//! The benchmark's own checks: the seam decorators only observe, their
//! timer calibration is consistent, the yardstick scales to its nominal
//! speed, and the workload seed reproduces the catalog at 0 and changes
//! the inputs otherwise.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tlp_perfbench::seams::{Probes, TimerCost};
use tlp_perfbench::workloads::{generators, setup, Cell};
use tlp_perfbench::yardstick;
use tlp_sim::{EngineMode, SimReport};
use tlp_trace::capture;
use tlp_trace::catalog::{self, Scale};

const CELLS: [Cell; 2] = [Cell::Bfs1c, Cell::Mix4c];

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlp-perfbench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

fn short_run(cell: Cell, probes: Option<&Arc<Probes>>, dir: &Path) -> SimReport {
    let mut built = setup(cell, 0, EngineMode::Event, probes, dir).expect("set-up");
    built.system.run(2_000, 20_000)
}

#[test]
fn decorated_runs_report_exactly_what_undecorated_runs_do() {
    for cell in CELLS {
        let dir = work_dir("seams");
        let plain = short_run(cell, None, &dir);
        let probes = Arc::new(Probes::default());
        let decorated = short_run(cell, Some(&probes), &dir);
        assert_eq!(plain, decorated, "{cell:?}: decorators changed the report");
        for (seam, probe) in [
            ("offchip predict", &probes.offchip_predict),
            ("offchip train", &probes.offchip_train),
            ("l1 filter", &probes.l1_filter),
            ("l1 prefetcher", &probes.l1_prefetcher),
            ("l2 prefetcher", &probes.l2_prefetcher),
            ("trace", &probes.trace),
        ] {
            assert!(probe.calls() > 0, "{cell:?}: {seam} saw no calls");
        }
        assert_eq!(
            probes.trace.items(),
            probes.trace.calls(),
            "looping traces never run dry"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn timer_calibration_puts_part_of_each_call_inside_the_interval() {
    let cost = TimerCost::calibrate();
    assert!(cost.per_call_ns > 0.0, "{cost:?}");
    assert!(cost.in_interval_ns <= cost.per_call_ns, "{cost:?}");
}

#[test]
fn yardstick_scale_states_host_seconds_at_the_nominal_speed() {
    let nominal = yardstick::NOMINAL_S;
    assert_eq!(yardstick::scale(nominal, nominal), 1.0);
    // A host running the yardstick at half speed ran the simulator slower
    // still, so its seconds count for less than half.
    let half = yardstick::scale(2.0 * nominal, 2.0 * nominal);
    assert!(
        (half - 0.5f64.powf(yardstick::SENSITIVITY)).abs() < 1e-12,
        "{half}"
    );
    assert!(half < 0.5, "{half}");
    let reading = yardstick::reading();
    assert!(reading > 0.0 && reading.is_finite(), "{reading}");
}

#[test]
fn seed_zero_reproduces_the_catalog_traces() {
    for cell in CELLS {
        let budget = cell.budget().records();
        for w in generators(cell, 0) {
            let reference = catalog::workload(w.name(), Scale::Quick).expect("catalog name");
            assert!(
                capture(w.as_ref(), budget) == capture(reference.as_ref(), budget),
                "{}: seed 0 differs from the catalog trace",
                w.name()
            );
        }
    }
}

#[test]
fn other_seeds_change_the_generator_inputs() {
    for cell in CELLS {
        let budget = cell.budget().records();
        let base: Vec<_> = generators(cell, 0)
            .iter()
            .map(|w| capture(w.as_ref(), budget))
            .collect();
        let seeded: Vec<_> = generators(cell, 1)
            .iter()
            .map(|w| capture(w.as_ref(), budget))
            .collect();
        assert!(base != seeded, "{cell:?}: seed 1 gives the seed-0 traces");
    }
}
