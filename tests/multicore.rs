//! Multi-core integration tests: shared LLC/DRAM, mixes and weighted
//! speedup plumbing.

use std::sync::Arc;

use tlp::harness::mix::{generate_mixes, Mix};
use tlp::harness::{weighted_ipc, Harness, L1Pf, Machine, RunCell, RunConfig, Scheme};
use tlp::sim::SimReport;

/// The 4-core cell of `m` under `scheme` (IPCP) at an optional per-core
/// bandwidth.
fn mix_cell(h: &Harness, m: &Mix, scheme: Scheme, gbps: Option<f64>) -> RunCell {
    let (s, p) = (scheme.resolve(), L1Pf::Ipcp.resolve());
    h.cell(&m.workloads, s, p, Machine::CascadeLake(gbps))
}

/// Runs the mix under `scheme` at the default bandwidth.
fn run_mix(h: &Harness, m: &Mix, scheme: Scheme) -> Arc<SimReport> {
    h.run(&[mix_cell(h, m, scheme, None)]).remove(0)
}

/// `m`'s 4-core run plus each of its workloads alone at `gbps` per core
/// (the isolation runs of weighted speedup), as one batch.
fn with_isolation(h: &Harness, m: &Mix, gbps: f64) -> Vec<Arc<SimReport>> {
    let (s, p) = (Scheme::Baseline.resolve(), L1Pf::Ipcp.resolve());
    let mut cells = vec![mix_cell(h, m, Scheme::Baseline, None)];
    for w in &m.workloads {
        let alone = Machine::CascadeLake(Some(gbps));
        cells.push(h.cell(
            std::slice::from_ref(w),
            Arc::clone(&s),
            Arc::clone(&p),
            alone,
        ));
    }
    h.run(&cells)
}

#[test]
fn four_core_mix_runs_all_cores_to_completion() {
    let h = Harness::new(RunConfig::test());
    let mixes = generate_mixes(&h.active_workloads(), 1);
    let r = run_mix(&h, &mixes[0], Scheme::Baseline);
    assert_eq!(r.cores.len(), 4);
    for (i, c) in r.cores.iter().enumerate() {
        // 4-wide retirement may overshoot the window by up to 3.
        assert!(
            c.core.instructions >= h.rc.instructions && c.core.instructions < h.rc.instructions + 4,
            "core {i} retired {} instructions",
            c.core.instructions
        );
        assert!(c.core.ipc() > 0.0);
    }
}

#[test]
fn shared_llc_sees_traffic_from_all_cores() {
    let h = Harness::new(RunConfig::test());
    let mixes = generate_mixes(&h.active_workloads(), 1);
    let het = mixes.iter().find(|m| !m.homogeneous).expect("het mix");
    let r = run_mix(&h, het, Scheme::Baseline);
    assert!(r.llc.demand_accesses() > 0);
    assert!(r.dram.transactions() > 0);
}

#[test]
fn weighted_ipc_is_at_most_core_count() {
    let h = Harness::new(RunConfig::test());
    let mixes = generate_mixes(&h.active_workloads(), 1);
    let runs = with_isolation(&h, &mixes[0], 12.8);
    let ws = weighted_ipc(&runs[0], &runs[1..]);
    // Each core's shared IPC can't beat its isolated IPC by more than
    // simulation noise, so the weighted sum stays near or below 4.
    assert!(
        ws > 0.0 && ws <= 4.4,
        "weighted IPC {ws} outside (0, cores] band"
    );
}

#[test]
fn contention_slows_cores_down() {
    let h = Harness::new(RunConfig::test());
    let mixes = generate_mixes(&h.active_workloads(), 2);
    // A homogeneous GAP mix keeps the comparison clean.
    let m = mixes
        .iter()
        .find(|m| m.homogeneous && m.suite == tlp::trace::emit::Suite::Gap)
        .expect("gap hom mix");
    let runs = with_isolation(&h, m, 12.8);
    let alone = runs[1].ipc();
    let shared_ipc = runs[0].cores[0].core.ipc();
    assert!(
        shared_ipc <= alone * 1.05,
        "sharing cannot speed a core up: shared {shared_ipc} vs alone {alone}"
    );
}

#[test]
fn bandwidth_scaling_changes_performance() {
    let h = Harness::new(RunConfig::test());
    let mixes = generate_mixes(&h.active_workloads(), 1);
    let m = mixes
        .iter()
        .find(|m| m.suite == tlp::trace::emit::Suite::Gap)
        .expect("gap mix");
    let runs = h.run(&[
        mix_cell(&h, m, Scheme::Baseline, Some(1.6)),
        mix_cell(&h, m, Scheme::Baseline, Some(25.6)),
    ]);
    let (slow, fast) = (&runs[0], &runs[1]);
    let ipc =
        |r: &tlp::sim::SimReport| -> f64 { r.cores.iter().map(|c| c.core.ipc()).sum::<f64>() };
    assert!(
        ipc(fast) > ipc(slow),
        "16x more bandwidth must help a memory-bound mix"
    );
}

#[test]
fn every_headline_scheme_completes_a_mix() {
    let h = Harness::new(RunConfig::test());
    let mixes = generate_mixes(&h.active_workloads(), 1);
    let cells = Scheme::HEADLINE.map(|s| mix_cell(&h, &mixes[0], s, None));
    for (scheme, r) in Scheme::HEADLINE.iter().zip(h.run(&cells)) {
        for (i, c) in r.cores.iter().enumerate() {
            assert!(
                c.core.instructions >= h.rc.instructions,
                "{}: core {i} incomplete",
                scheme.name()
            );
        }
    }
}

#[test]
fn mix_runs_are_deterministic() {
    let run = || {
        let h = Harness::new(RunConfig::test());
        let mixes = generate_mixes(&h.active_workloads(), 1);
        let m = mixes.iter().find(|m| !m.homogeneous).expect("het mix");
        let r = run_mix(&h, m, Scheme::Tlp);
        (
            r.total_cycles,
            r.dram.transactions(),
            r.llc.demand_misses,
            r.cores.iter().map(|c| c.core.cycles).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn homogeneous_mix_cores_behave_symmetrically() {
    let h = Harness::new(RunConfig::test());
    let mixes = generate_mixes(&h.active_workloads(), 1);
    let m = mixes.iter().find(|m| m.homogeneous).expect("hom mix");
    let r = run_mix(&h, m, Scheme::Baseline);
    // Four copies of the same workload share hardware evenly: no core's
    // IPC should be wildly different from another's. (They are not
    // identical: physical page assignment differs per core.)
    let ipcs: Vec<f64> = r.cores.iter().map(|c| c.core.ipc()).collect();
    let (min, max) = ipcs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert!(
        max / min < 2.0,
        "homogeneous cores diverge: {ipcs:?} (min {min}, max {max})"
    );
}

#[test]
fn per_core_offchip_stats_are_tracked_independently() {
    let h = Harness::new(RunConfig::test());
    let mixes = generate_mixes(&h.active_workloads(), 1);
    let m = mixes
        .iter()
        .find(|m| m.suite == tlp::trace::emit::Suite::Gap)
        .expect("gap mix");
    let r = run_mix(&h, m, Scheme::Tlp);
    // Each core owns its FLP; predictions must be attributed per core, and
    // on a memory-bound GAP mix each core should engage the predictor.
    let engaged = r
        .cores
        .iter()
        .filter(|c| {
            c.offchip.issued_now + c.offchip.tagged_delayed + c.offchip.predicted_onchip > 0
        })
        .count();
    assert_eq!(engaged, 4, "all four FLPs must observe loads");
}
