//! Fast smoke test: the harness scheme comparison the paper is built
//! around — baseline vs. Hermes vs. PPF vs. TLP, plus the AthenaRl
//! extension scheme — must run end to end on a tiny workload and produce
//! sane IPC for every scheme.

use tlp::harness::{Harness, L1Pf, Machine, RunConfig, Scheme};
use tlp::trace::catalog::{self, Scale};

#[test]
fn scheme_comparison_produces_finite_positive_ipc() {
    let mut rc = RunConfig::test();
    // Keep this the fastest harness test in the tree: one short window.
    rc.warmup = 2_000;
    rc.instructions = 10_000;
    let h = Harness::new(rc);
    let w = [catalog::workload("bfs.kron", Scale::Tiny).expect("catalog name")];
    let schemes = [
        Scheme::Baseline,
        Scheme::Hermes,
        Scheme::Ppf,
        Scheme::Tlp,
        Scheme::AthenaRl,
    ];
    let cells = schemes.map(|s| {
        h.cell(
            &w,
            s.resolve(),
            L1Pf::Ipcp.resolve(),
            Machine::CascadeLake(None),
        )
    });
    for (&scheme, r) in schemes.iter().zip(h.run(&cells)) {
        let ipc = r.ipc();
        assert!(
            ipc.is_finite() && ipc > 0.0,
            "{scheme:?} produced IPC {ipc}"
        );
        assert!(
            ipc < 4.0,
            "{scheme:?} IPC {ipc} exceeds the 4-wide pipeline bound"
        );
        assert_eq!(
            r.cores[0].workload, "bfs.kron",
            "{scheme:?} report lost its workload attribution"
        );
        if scheme == Scheme::AthenaRl {
            // The RL agent must have learned to issue speculative requests
            // that pay off: some issued spec request was truly served from
            // DRAM within the test budget.
            let acc = r.cores[0].offchip.issue_accuracy();
            assert!(
                acc > 0.0,
                "AthenaRl off-chip issue accuracy must be nonzero after training, got {acc}"
            );
        }
    }
}
