//! Figure 17: designs enhanced with TLP's 7 KB storage budget — enlarged
//! IPCP/Berti and enlarged Hermes versus TLP, single-core and 4-core.

use crate::mix::generate_mixes;
use crate::report::{ExperimentResult, Row};
use crate::runner::{geomean_speedup_percent, Harness};
use crate::scheme::{L1Pf, Scheme};

use super::fig13::SINGLE_GBPS;
use super::{pct_delta, sweep_mixes, sweep_single_core};

/// Runs the experiment for one base L1D prefetcher (`Ipcp` or `Berti`).
#[must_use]
pub fn run(h: &Harness, l1pf: L1Pf) -> ExperimentResult {
    let (extra_pf, pf_label) = match l1pf {
        L1Pf::Berti => (L1Pf::BertiExtra, "Berti+7KB"),
        _ => (L1Pf::IpcpExtra, "IPCP+7KB"),
    };
    let mut result = ExperimentResult::new(
        format!("fig17-{}", l1pf.name()),
        format!(
            "Designs enhanced with TLP's storage budget ({})",
            l1pf.name()
        ),
        "% geomean speedup over baseline",
    );

    // Single-core: baseline+bigger-prefetcher, Hermes+7KB, TLP.
    let data = sweep_single_core(h, &[Scheme::HermesExtra, Scheme::Tlp], l1pf);
    let big_pf = sweep_single_core(h, &[], extra_pf);
    let mut pf_sp = Vec::new();
    let mut hermes_sp = Vec::new();
    let mut tlp_sp = Vec::new();
    for ((w, reports), (_, big)) in data.iter().zip(&big_pf) {
        let base = reports[0].ipc();
        pf_sp.push(pct_delta(big[0].ipc(), base));
        hermes_sp.push(pct_delta(reports[1].ipc(), base));
        tlp_sp.push(pct_delta(reports[2].ipc(), base));
        let _ = w;
    }
    result.rows.push(Row::new(
        "single-core",
        vec![
            (pf_label.to_string(), geomean_speedup_percent(&pf_sp)),
            ("Hermes+7KB".into(), geomean_speedup_percent(&hermes_sp)),
            ("TLP".into(), geomean_speedup_percent(&tlp_sp)),
        ],
    ));

    // Multi-core. The enhanced designs vary the prefetcher as well as the
    // scheme, so the grid pairs each scheme with its prefetcher.
    let mixes = generate_mixes(&h.active_workloads(), h.rc.mixes_per_suite / 2 + 1);
    let grid: [(Scheme, L1Pf); 4] = [
        (Scheme::Baseline, l1pf),
        (Scheme::Baseline, extra_pf),
        (Scheme::HermesExtra, l1pf),
        (Scheme::Tlp, l1pf),
    ];
    let per_mix: Vec<_> = sweep_mixes(h, &mixes, &grid, None, Some(SINGLE_GBPS))
        .iter()
        .map(|r| {
            let base_ws = r[0].weighted_ipc();
            let ws_of = |run: &super::MixRun| pct_delta(run.weighted_ipc(), base_ws);
            (ws_of(&r[1]), ws_of(&r[2]), ws_of(&r[3]))
        })
        .collect();
    let col = |f: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> { per_mix.iter().map(f).collect() };
    result.rows.push(Row::new(
        "multi-core",
        vec![
            (pf_label.to_string(), geomean_speedup_percent(&col(|t| t.0))),
            ("Hermes+7KB".into(), geomean_speedup_percent(&col(|t| t.1))),
            ("TLP".into(), geomean_speedup_percent(&col(|t| t.2))),
        ],
    ));
    result
}
