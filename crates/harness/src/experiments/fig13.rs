//! Figure 13: multi-core (4-core) weighted speedup of PPF, Hermes,
//! Hermes+PPF and TLP over the baseline.
//!
//! The metric follows §V-D: per mix, weighted IPC = Σ IPC_shared/IPC_single
//! (isolation IPC measured on the same scheme); the reported speedup is
//! the ratio of weighted IPCs scheme/baseline.

use crate::mix::generate_mixes;
use crate::report::{ExperimentResult, Row};
use crate::runner::Harness;
use crate::scheme::{L1Pf, Scheme};

use super::{geomean_summaries, pct_delta, sweep_mixes, with_baseline};

/// Per-core isolation bandwidth used for IPC_single (the workload alone on
/// the multi-core machine can use the full bus).
pub const SINGLE_GBPS: f64 = 12.8;

/// Runs the experiment for one L1D prefetcher.
#[must_use]
pub fn run(h: &Harness, l1pf: L1Pf) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        format!("fig13-{}", l1pf.name()),
        format!("4-core weighted speedup over baseline ({})", l1pf.name()),
        "% speedup (geomean summaries)",
    );
    let schemes = Scheme::HEADLINE;
    let columns: Vec<String> = schemes.iter().map(|s| s.name().to_string()).collect();
    let mixes = generate_mixes(&h.active_workloads(), h.rc.mixes_per_suite / 2 + 1);
    let grid = with_baseline(&schemes, l1pf);
    let runs = sweep_mixes(h, &mixes, &grid, None, Some(SINGLE_GBPS));
    let tagged: Vec<_> = mixes
        .iter()
        .zip(&runs)
        .map(|(m, r)| {
            let base_ws = r[0].weighted_ipc();
            let values: Vec<(String, f64)> = schemes
                .iter()
                .zip(&r[1..])
                .map(|(s, r)| (s.name().to_string(), pct_delta(r.weighted_ipc(), base_ws)))
                .collect();
            (m.suite, Row::new(m.name.clone(), values))
        })
        .collect();
    result.summary = geomean_summaries(&tagged, &columns);
    result.rows = tagged.into_iter().map(|(_, r)| r).collect();
    result
}
