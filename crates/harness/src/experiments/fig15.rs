//! Figure 15: contribution of each TLP component — FLP, SLP, TSP,
//! Delayed TSP, Selective TSP, TLP — as 4-core weighted speedup with IPCP.

use tlp_core::variants::TlpVariant;

use crate::mix::generate_mixes;
use crate::report::{ExperimentResult, Row};
use crate::runner::{geomean_speedup_percent, Harness};
use crate::scheme::{L1Pf, Scheme};

use super::fig13::SINGLE_GBPS;
use super::{pct_delta, sweep_mixes, with_baseline};

/// Runs the experiment.
#[must_use]
pub fn run(h: &Harness) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig15",
        "Performance contribution of each TLP component (4-core, IPCP)",
        "% weighted speedup over baseline (geomean)",
    );
    let l1pf = L1Pf::Ipcp;
    let schemes: Vec<Scheme> = TlpVariant::ALL
        .iter()
        .map(|&v| Scheme::Variant(v))
        .collect();
    let mixes = generate_mixes(&h.active_workloads(), h.rc.mixes_per_suite / 2 + 1);
    let grid = with_baseline(&schemes, l1pf);
    let runs = sweep_mixes(h, &mixes, &grid, None, Some(SINGLE_GBPS));
    let per_mix: Vec<Row> = mixes
        .iter()
        .zip(&runs)
        .map(|(m, r)| {
            let base_ws = r[0].weighted_ipc();
            let values: Vec<(String, f64)> = schemes
                .iter()
                .zip(&r[1..])
                .map(|(s, r)| (s.name().to_string(), pct_delta(r.weighted_ipc(), base_ws)))
                .collect();
            Row::new(m.name.clone(), values)
        })
        .collect();
    // Summary: one geomean per variant, in the paper's order.
    let mut values = Vec::new();
    for s in &schemes {
        let xs: Vec<f64> = per_mix.iter().filter_map(|r| r.get(s.name())).collect();
        values.push((s.name().to_string(), geomean_speedup_percent(&xs)));
    }
    result.summary.push(Row::new("geomean", values));
    result.rows = per_mix;
    result
}
