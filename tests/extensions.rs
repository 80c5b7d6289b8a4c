//! Integration tests for the extension features: the LP baseline, the
//! parameterized TLP, the LLC victim cache, non-LRU replacement, and
//! trace-file persistence.

use std::sync::Arc;

use tlp::harness::{Harness, L1Pf, Machine, RunConfig, Scheme, TlpParams};
use tlp::sim::engine::{CoreSetup, System};
use tlp::sim::replacement::ReplKind;
use tlp::sim::SystemConfig;
use tlp::trace::catalog::{self, Scale};
use tlp::trace::{capture, TraceSource, VecTrace};
use tlp::tracestore::{write_trace_v2, StreamTrace};

fn harness() -> Harness {
    Harness::new(RunConfig::test())
}

/// Runs the catalog workload `name` under each (scheme, machine) pair
/// with IPCP, as one batch.
fn run(h: &Harness, name: &str, cells: &[(Scheme, Machine)]) -> Vec<Arc<tlp::sim::SimReport>> {
    let w = [catalog::workload(name, Scale::Tiny).expect("catalog name")];
    let cells: Vec<_> = cells
        .iter()
        .map(|(s, m)| h.cell(&w, s.resolve(), L1Pf::Ipcp.resolve(), m.clone()))
        .collect();
    h.run(&cells)
}

/// [`run`] on the default machine.
fn run_schemes(h: &Harness, name: &str, schemes: &[Scheme]) -> Vec<Arc<tlp::sim::SimReport>> {
    let cells: Vec<_> = schemes
        .iter()
        .map(|&s| (s, Machine::CascadeLake(None)))
        .collect();
    run(h, name, &cells)
}

#[test]
fn lp_scheme_runs_and_issues_predictions() {
    let r = run_schemes(&harness(), "bfs.kron", &[Scheme::Baseline, Scheme::Lp]);
    let (base, lp) = (&r[0], &r[1]);
    assert_eq!(
        lp.cores[0].core.instructions,
        base.cores[0].core.instructions
    );
    let oc = &lp.cores[0].offchip;
    assert!(
        oc.issued_now > 0,
        "LP must route some loads to DRAM on a graph workload"
    );
    assert_eq!(oc.tagged_delayed, 0, "LP has no delay mechanism");
}

#[test]
fn lp_is_less_precise_than_flp_on_prefetched_streams() {
    // LP tracks residency only through demand completions, so lines brought
    // in by the prefetchers look off-chip to it — the false-positive
    // weakness the paper's related work calls out.
    let r = run_schemes(&harness(), "pr.kron", &[Scheme::Lp, Scheme::Tlp]);
    let (lp, tlp) = (&r[0], &r[1]);
    let precision = |r: &tlp::sim::SimReport| r.cores[0].offchip.issue_accuracy();
    assert!(
        precision(lp) <= precision(tlp) + 0.15,
        "LP precision {:.2} should not beat TLP {:.2} materially",
        precision(lp),
        precision(tlp)
    );
}

#[test]
fn custom_params_at_paper_point_match_tlp() {
    let schemes = [Scheme::Tlp, Scheme::TlpCustom(TlpParams::paper())];
    let r = run_schemes(&harness(), "cc.road", &schemes);
    let (tlp, custom) = (&r[0], &r[1]);
    assert_eq!(tlp.total_cycles, custom.total_cycles);
    assert_eq!(tlp.dram_transactions(), custom.dram_transactions());
}

#[test]
fn lower_tau_pref_filters_more_prefetches() {
    let strict = Scheme::TlpCustom(TlpParams {
        tau_pref: -4,
        ..TlpParams::paper()
    });
    let lax = Scheme::TlpCustom(TlpParams {
        tau_pref: 1_000,
        ..TlpParams::paper()
    });
    let r = run_schemes(&harness(), "bfs.kron", &[strict, lax]);
    let (r_strict, r_lax) = (&r[0], &r[1]);
    assert!(
        r_strict.cores[0].l1_prefetch.filtered > r_lax.cores[0].l1_prefetch.filtered,
        "τ_pref=-4 must drop more prefetches than τ_pref=1000 ({} vs {})",
        r_strict.cores[0].l1_prefetch.filtered,
        r_lax.cores[0].l1_prefetch.filtered
    );
    assert_eq!(
        r_lax.cores[0].l1_prefetch.filtered, 0,
        "an unreachable threshold must never filter"
    );
}

#[test]
fn raised_tau_high_shifts_issue_now_to_delayed() {
    let eager = Scheme::TlpCustom(TlpParams {
        tau_high: 3,
        ..TlpParams::paper()
    });
    let cautious = Scheme::TlpCustom(TlpParams {
        tau_high: 1_000,
        ..TlpParams::paper()
    });
    let r = run_schemes(&harness(), "sssp.urand", &[eager, cautious]);
    let (r_eager, r_cautious) = (&r[0], &r[1]);
    assert_eq!(
        r_cautious.cores[0].offchip.issued_now, 0,
        "an unreachable τ_high must never issue at the core"
    );
    assert!(
        r_eager.cores[0].offchip.issued_now >= r_cautious.cores[0].offchip.issued_now,
        "lower τ_high must issue at least as many immediate requests"
    );
}

#[test]
fn every_replacement_policy_completes_a_graph_workload() {
    let h = harness();
    let cells: Vec<_> = ReplKind::ALL
        .iter()
        .map(|kind| {
            let mut cfg = SystemConfig::cascade_lake(1);
            cfg.llc_repl = *kind;
            let tag = kind.name().to_owned();
            (Scheme::Baseline, Machine::Custom(Box::new(cfg), tag))
        })
        .collect();
    for (kind, r) in ReplKind::ALL.iter().zip(run(&h, "bc.web", &cells)) {
        assert!(
            r.cores[0].core.instructions >= h.rc.instructions,
            "{} did not complete",
            kind.name()
        );
    }
}

#[test]
fn victim_cache_stats_surface_in_reports() {
    // A deliberately tiny hierarchy guarantees LLC evictions.
    let mut cfg = SystemConfig::test_tiny(1);
    cfg.victim_cache_entries = 64;
    let cells = [
        (Scheme::Baseline, Machine::CascadeLake(None)),
        (
            Scheme::Baseline,
            Machine::Custom(Box::new(cfg), "tiny+vc64".to_owned()),
        ),
    ];
    let r = run(&harness(), "tc.twitter", &cells);
    let (plain, vc) = (&r[0], &r[1]);
    assert_eq!(plain.victim.insertions, 0, "disabled VC must stay silent");
    assert!(
        vc.victim.insertions > 0,
        "an evicting LLC must feed the victim cache"
    );
}

#[test]
fn trace_files_replay_identically_to_captures() {
    let w = catalog::workload("spec.mcf_06", Scale::Tiny).expect("catalog name");
    let records = capture(w.as_ref(), 30_000);
    let dir = std::env::temp_dir().join("tlp-ext-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("mcf.tlpt");
    write_trace_v2(&path, "spec.mcf_06", true, &records, &[], 0).expect("write");

    let run = |trace: Box<dyn TraceSource>| {
        let mut sys = System::new(SystemConfig::test_tiny(1), vec![CoreSetup::new(trace)]);
        let r = sys.run(1_000, 20_000);
        (r.total_cycles, r.dram_transactions())
    };
    let from_vec = run(Box::new(VecTrace::looping("spec.mcf_06", records)));
    let from_file = run(Box::new(StreamTrace::open(&path).expect("open")));
    assert_eq!(
        from_vec, from_file,
        "file-backed replay must be cycle-identical"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn dropping_any_single_feature_still_works() {
    let h = harness();
    let schemes = [0, 1, 2, 3, 4u8].map(|f| {
        Scheme::TlpCustom(TlpParams {
            drop_feature: Some(f),
            ..TlpParams::paper()
        })
    });
    for (f, r) in run_schemes(&h, "spec.omnetpp_17", &schemes)
        .iter()
        .enumerate()
    {
        assert!(
            r.cores[0].core.instructions >= h.rc.instructions,
            "feature {f} drop broke the run"
        );
    }
}

#[test]
fn resized_tables_change_storage_but_not_instruction_count() {
    let h = harness();
    let small = Scheme::TlpCustom(TlpParams {
        resize: (1, 4),
        ..TlpParams::paper()
    });
    let big = Scheme::TlpCustom(TlpParams {
        resize: (4, 1),
        ..TlpParams::paper()
    });
    // Both complete the budget (4-wide retirement may overshoot by <4,
    // and differently for the two configurations).
    for r in run_schemes(&h, "spec.soplex_06", &[small, big]) {
        let retired = r.cores[0].core.instructions;
        assert!(retired >= h.rc.instructions && retired < h.rc.instructions + 4);
    }
    // Storage genuinely differs by ~16×.
    let kb = |p: TlpParams| tlp::core::storage::storage_report(&p.build_config()).total_kb();
    let small_kb = kb(TlpParams {
        resize: (1, 4),
        ..TlpParams::paper()
    });
    let big_kb = kb(TlpParams {
        resize: (4, 1),
        ..TlpParams::paper()
    });
    assert!(big_kb > 3.0 * small_kb, "{small_kb} vs {big_kb}");
}
