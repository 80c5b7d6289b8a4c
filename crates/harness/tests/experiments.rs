//! Structural tests for the experiment runners: every experiment must
//! produce well-formed results (non-empty rows, the columns its figure
//! needs, finite values) at a minimal budget. These catch bit-rot in the
//! runners without asserting specific performance numbers.

use tlp_harness::experiments::{
    ext01_offchip, ext02_replacement, ext03_thresholds, ext04_features, ext05_storage,
    ext06_victim, ext07_rl, fig01, fig04, tables,
};
use tlp_harness::report::ExperimentResult;
use tlp_harness::{Harness, RunConfig};

fn tiny_harness() -> Harness {
    let mut rc = RunConfig::test();
    rc.instructions = 8_000;
    rc.warmup = 1_500;
    rc.workloads_per_suite = Some(1);
    rc.mixes_per_suite = 1;
    Harness::new(rc)
}

fn assert_well_formed(r: &ExperimentResult, expect_rows: usize, columns: &[&str]) {
    assert!(!r.id.is_empty() && !r.title.is_empty());
    assert_eq!(r.rows.len(), expect_rows, "{}: row count", r.id);
    for row in &r.rows {
        for col in columns {
            let v = row
                .get(col)
                .unwrap_or_else(|| panic!("{}: row {} misses column {col}", r.id, row.label));
            assert!(v.is_finite(), "{}: {}/{col} is not finite", r.id, row.label);
        }
    }
}

#[test]
fn ext01_reports_all_four_predictors() {
    let h = tiny_harness();
    let r = ext01_offchip::run(&h);
    assert_well_formed(&r, 4, &["speedup", "ΔDRAM", "precision", "coverage"]);
    let labels: Vec<&str> = r.rows.iter().map(|x| x.label.as_str()).collect();
    assert_eq!(labels, ["Hermes", "LP", "FLP", "TLP"]);
    // Percentages are percentages.
    for row in &r.rows {
        let p = row.get("precision").expect("column checked");
        assert!((0.0..=100.0).contains(&p), "{}: precision {p}", row.label);
        let c = row.get("coverage").expect("column checked");
        assert!((0.0..=100.0).contains(&c), "{}: coverage {c}", row.label);
    }
}

#[test]
fn ext02_covers_every_replacement_policy() {
    let h = tiny_harness();
    let r = ext02_replacement::run(&h);
    assert_well_formed(&r, 5, &["TLP speedup", "TLP ΔDRAM", "base MPKI"]);
    let labels: Vec<&str> = r.rows.iter().map(|x| x.label.as_str()).collect();
    assert_eq!(labels, ["lru", "srrip", "drrip", "ship", "random"]);
}

#[test]
fn ext03_sweeps_have_one_row_per_point() {
    let h = tiny_harness();
    let hi = ext03_thresholds::run_tau_high(&h);
    assert_well_formed(&hi, ext03_thresholds::TAU_HIGH.len(), &["speedup", "ΔDRAM"]);
    let lo = ext03_thresholds::run_tau_low(&h);
    assert_well_formed(&lo, ext03_thresholds::TAU_LOW.len(), &["speedup", "ΔDRAM"]);
    let pf = ext03_thresholds::run_tau_pref(&h);
    assert_well_formed(&pf, ext03_thresholds::TAU_PREF.len(), &["speedup", "ΔDRAM"]);
}

#[test]
fn ext04_has_baseline_plus_one_row_per_feature() {
    let h = tiny_harness();
    let r = ext04_features::run(&h);
    assert_well_formed(
        &r,
        1 + ext04_features::FEATURE_NAMES.len(),
        &["speedup", "ΔDRAM", "pf acc"],
    );
    assert_eq!(r.rows[0].label, "all features");
}

#[test]
fn ext05_storage_grows_monotonically() {
    let h = tiny_harness();
    let r = ext05_storage::run(&h);
    assert_well_formed(
        &r,
        ext05_storage::FACTORS.len(),
        &["storage KB", "speedup", "ΔDRAM"],
    );
    let kbs: Vec<f64> = r
        .rows
        .iter()
        .map(|row| row.get("storage KB").expect("column checked"))
        .collect();
    assert!(
        kbs.windows(2).all(|w| w[0] < w[1]),
        "storage must increase along the sweep: {kbs:?}"
    );
    // The ×1/1 point is the paper's ~7 KB budget.
    assert!((kbs[2] - 7.04).abs() < 0.2, "paper point {kbs:?}");
}

#[test]
fn ext06_reports_all_configurations() {
    let h = tiny_harness();
    let r = ext06_victim::run(&h);
    assert_well_formed(&r, 4, &["speedup", "ΔDRAM", "VC hit%"]);
}

#[test]
fn ext07_compares_all_four_systems() {
    let h = tiny_harness();
    let r = ext07_rl::run(&h);
    assert_well_formed(&r, 4, &["speedup", "ΔDRAM", "precision"]);
    let labels: Vec<&str> = r.rows.iter().map(|x| x.label.as_str()).collect();
    assert_eq!(labels, ["Baseline", "Hermes", "TLP", "AthenaRl"]);
    // The baseline row is its own reference point.
    assert_eq!(r.rows[0].get("speedup"), Some(0.0));
    assert_eq!(r.rows[0].get("ΔDRAM"), Some(0.0));
}

#[test]
fn ext07_learning_curve_has_one_row_per_epoch() {
    let h = tiny_harness();
    let r = ext07_rl::run_learning_curve(&h);
    assert_well_formed(&r, ext07_rl::EPOCHS, &["issue acc", "issued/kld", "IPC"]);
    assert_eq!(r.summary.len(), 1, "mean row");
    for row in &r.rows {
        let acc = row.get("issue acc").expect("column checked");
        assert!((0.0..=100.0).contains(&acc), "{}: acc {acc}", row.label);
        assert!(row.get("IPC").expect("column checked") > 0.0);
    }
    // The persistent agent must not get *worse* across epochs: the last
    // epoch's accuracy stays at or above the first's.
    let first = r.rows[0].get("issue acc").expect("column checked");
    let last = r.rows[ext07_rl::EPOCHS - 1]
        .get("issue acc")
        .expect("column checked");
    assert!(
        last >= first - 1e-9,
        "learning curve regressed: {first:.2} -> {last:.2}"
    );
}

#[test]
fn fig01_reports_mpki_per_level_with_summaries() {
    let h = tiny_harness();
    let r = fig01::run(&h);
    assert!(!r.rows.is_empty());
    for row in &r.rows {
        let l1 = row.get("L1D").expect("L1D column");
        let llc = row.get("LLC").expect("LLC column");
        assert!(l1 >= 0.0 && llc >= 0.0);
    }
    assert_eq!(r.summary.len(), 3, "SPEC/GAP/ALL summaries");
}

#[test]
fn fig04_outcome_shares_sum_to_100() {
    let h = tiny_harness();
    let r = fig04::run(&h);
    for row in &r.rows {
        let total: f64 = row.values.iter().map(|(_, v)| v).sum();
        assert!(
            total.abs() < 1e-6 || (total - 100.0).abs() < 1e-6,
            "{}: outcome shares sum to {total}",
            row.label
        );
    }
}

#[test]
fn static_tables_render_without_simulation() {
    let t2 = tables::table2();
    assert!(t2.render().contains("Total"));
    let t3 = tables::table3();
    assert!(!t3.rows.is_empty());
}
