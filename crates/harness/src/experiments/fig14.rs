//! Figure 14: multi-core increase in DRAM transactions for each scheme
//! over the baseline — the bandwidth story behind Figure 13.

use crate::mix::generate_mixes;
use crate::report::{ExperimentResult, Row};
use crate::runner::Harness;
use crate::scheme::{L1Pf, Scheme};

use super::{mean_summaries, pct_delta, sweep_mixes, with_baseline};

/// Runs the experiment for one L1D prefetcher.
#[must_use]
pub fn run(h: &Harness, l1pf: L1Pf) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        format!("fig14-{}", l1pf.name()),
        format!("4-core ΔDRAM transactions ({})", l1pf.name()),
        "% vs baseline (lower is better)",
    );
    let schemes = Scheme::HEADLINE;
    let columns: Vec<String> = schemes.iter().map(|s| s.name().to_string()).collect();
    let mixes = generate_mixes(&h.active_workloads(), h.rc.mixes_per_suite / 2 + 1);
    let runs = sweep_mixes(h, &mixes, &with_baseline(&schemes, l1pf), None, None);
    let tagged: Vec<_> = mixes
        .iter()
        .zip(&runs)
        .map(|(m, r)| {
            let base = r[0].shared.dram_transactions() as f64;
            let values: Vec<(String, f64)> = schemes
                .iter()
                .zip(&r[1..])
                .map(|(s, r)| {
                    let t = r.shared.dram_transactions() as f64;
                    (s.name().to_string(), pct_delta(t, base))
                })
                .collect();
            (m.suite, Row::new(m.name.clone(), values))
        })
        .collect();
    result.summary = mean_summaries(&tagged, &columns);
    result.rows = tagged.into_iter().map(|(_, r)| r).collect();
    result
}
