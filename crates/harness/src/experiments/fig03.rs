//! Figure 3: increase in DRAM transactions due to Hermes in the 4-core
//! context, across SPEC/GAP mixes.

use crate::mix::generate_mixes;
use crate::report::{ExperimentResult, Row};
use crate::runner::Harness;
use crate::scheme::{L1Pf, Scheme};
use tlp_trace::emit::Suite;

use super::{mean_summaries, pct_delta, sweep_mixes, with_baseline};

/// Runs the experiment.
#[must_use]
pub fn run(h: &Harness) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig03",
        "Increase in DRAM transactions due to Hermes (4-core mixes)",
        "% vs baseline (lower is better)",
    );
    let columns = vec!["Hermes".to_string()];
    let mixes = generate_mixes(&h.active_workloads(), h.rc.mixes_per_suite / 2 + 1);
    let grid = with_baseline(&[Scheme::Hermes], L1Pf::Ipcp);
    let runs = sweep_mixes(h, &mixes, &grid, None, None);
    let rows: Vec<_> = mixes
        .iter()
        .zip(&runs)
        .map(|(m, r)| {
            let delta = pct_delta(
                r[1].shared.dram_transactions() as f64,
                r[0].shared.dram_transactions() as f64,
            );
            (
                m.suite,
                Row::new(m.name.clone(), vec![("Hermes".into(), delta)]),
            )
        })
        .collect();
    result.summary = mean_summaries(&rows, &columns);
    result.rows = rows.into_iter().map(|(_, r)| r).collect();
    result
}

/// Suites covered (exposed for tests).
#[must_use]
pub fn suites() -> [Suite; 2] {
    [Suite::Spec, Suite::Gap]
}
