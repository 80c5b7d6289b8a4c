//! Integration tests spanning the whole workspace: trace generators feed
//! the simulator through every scheme's plugin assembly.

use std::sync::Arc;

use tlp::harness::{Harness, L1Pf, Machine, RunConfig, Scheme};
use tlp::sim::SimReport;
use tlp::trace::catalog::{self, Scale};
use tlp::trace::emit::Workload;

fn harness() -> Harness {
    Harness::new(RunConfig::test())
}

fn workload(name: &str) -> Arc<dyn Workload> {
    catalog::workload(name, Scale::Tiny).expect("catalog name")
}

/// Runs each workload under each scheme with `l1pf`, as one batch;
/// reports in (workload, scheme) order.
fn run(
    h: &Harness,
    ws: &[Arc<dyn Workload>],
    schemes: &[Scheme],
    l1pf: L1Pf,
) -> Vec<Arc<SimReport>> {
    let cells: Vec<_> = ws
        .iter()
        .flat_map(|w| {
            schemes.iter().map(|s| {
                let w = std::slice::from_ref(w);
                h.cell(w, s.resolve(), l1pf.resolve(), Machine::CascadeLake(None))
            })
        })
        .collect();
    h.run(&cells)
}

#[test]
fn baseline_runs_every_suite() {
    let h = harness();
    let names = ["spec.mcf_06", "spec.lbm_17", "bfs.kron", "pr.urand"];
    let reports = run(&h, &names.map(workload), &[Scheme::Baseline], L1Pf::Ipcp);
    for (name, r) in names.iter().zip(reports) {
        // Retirement is 4-wide, so the measured window may overshoot by up
        // to three instructions.
        let retired = r.cores[0].core.instructions;
        assert!(
            retired >= h.rc.instructions && retired < h.rc.instructions + 4,
            "{name} retired {retired}, expected ~{}",
            h.rc.instructions
        );
        assert!(
            r.ipc() > 0.05 && r.ipc() < 4.0,
            "{name} IPC {} implausible",
            r.ipc()
        );
        assert!(r.cores[0].l1d.demand_accesses() > 0);
    }
}

#[test]
fn every_scheme_completes_on_a_graph_workload() {
    let h = harness();
    let schemes = [
        Scheme::Baseline,
        Scheme::Ppf,
        Scheme::Hermes,
        Scheme::HermesPpf,
        Scheme::Tlp,
    ];
    let reports = run(&h, &[workload("sssp.twitter")], &schemes, L1Pf::Ipcp);
    let base = &reports[0];
    for (scheme, r) in schemes.iter().zip(&reports).skip(1) {
        assert_eq!(
            r.cores[0].core.instructions,
            base.cores[0].core.instructions
        );
        let ratio = r.ipc() / base.ipc();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{} IPC ratio {ratio} out of plausible range",
            scheme.name()
        );
    }
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let run = || {
        let r = run(
            &harness(),
            &[workload("cc.kron")],
            &[Scheme::Tlp],
            L1Pf::Ipcp,
        )
        .remove(0);
        (
            r.total_cycles,
            r.dram_transactions(),
            r.cores[0].l1d.demand_misses,
            r.cores[0].offchip.issued_now,
            r.cores[0].l1_prefetch.filtered,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn hermes_issues_speculative_reads_tlp_delays_some() {
    let w = workload("spec.omnetpp_17");
    let reports = run(&harness(), &[w], &[Scheme::Hermes, Scheme::Tlp], L1Pf::Ipcp);
    let (hermes, tlp) = (&reports[0], &reports[1]);
    // Hermes must actually exercise the speculative path.
    let hermes_off = &hermes.cores[0].offchip;
    assert!(hermes_off.issued_now > 0, "Hermes never predicted off-chip");
    assert_eq!(
        hermes_off.tagged_delayed, 0,
        "Hermes has no delay mechanism"
    );
    // TLP's FLP uses the middle band.
    let tlp_off = &tlp.cores[0].offchip;
    assert!(
        tlp_off.tagged_delayed > 0,
        "FLP selective delay never engaged"
    );
    // Loads tagged just before the warmup/measure boundary can issue their
    // delayed request after the counters reset, so allow LQ-depth slack.
    assert!(tlp_off.delayed_issued <= tlp_off.tagged_delayed + 96);
}

#[test]
fn tlp_filter_engages_and_raises_accuracy() {
    let w = workload("bfs.kron");
    let reports = run(
        &harness(),
        &[w],
        &[Scheme::Baseline, Scheme::Tlp],
        L1Pf::Ipcp,
    );
    let (base, tlp) = (&reports[0], &reports[1]);
    let bpf = &base.cores[0].l1_prefetch;
    let tpf = &tlp.cores[0].l1_prefetch;
    assert_eq!(bpf.filtered, 0, "baseline has no filter");
    assert!(tpf.filtered > 0, "SLP never dropped a prefetch");
    assert!(
        tpf.accuracy() >= bpf.accuracy(),
        "SLP should not lower accuracy: {} -> {}",
        bpf.accuracy(),
        tpf.accuracy()
    );
}

#[test]
fn writebacks_flow_to_dram() {
    // A streaming writer: its store footprint exceeds every cache level,
    // so dirty lines must cascade out of the L1D.
    let w = workload("spec.lbm_17");
    let r = &run(&harness(), &[w], &[Scheme::Baseline], L1Pf::None)[0];
    assert!(
        r.cores[0].l1d.writebacks > 0,
        "streaming stores must dirty lines that the L1D writes back"
    );
}

#[test]
fn table_ii_storage_budget_holds() {
    let report = tlp::core::storage::storage_report(&tlp::core::TlpConfig::paper());
    assert!(report.total_kb() <= 7.5, "TLP exceeds its 7 KB budget");
    // The paper's FLP/SLP asymmetry (leveling feature) must be visible.
    assert!(report.slp_kb() > report.flp_kb());
}

#[test]
fn catalog_matches_paper_counts() {
    let names = catalog::all_names(Scale::Tiny);
    assert_eq!(names.len(), 55, "paper evaluates 55 single-core workloads");
    assert_eq!(names.iter().filter(|n| n.starts_with("spec.")).count(), 24);
}
