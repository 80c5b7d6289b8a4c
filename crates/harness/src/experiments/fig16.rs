//! Figure 16: DRAM-bandwidth sensitivity — geomean weighted speedup (16a)
//! and average ΔDRAM transactions (16b) of each scheme, as the per-core
//! bandwidth sweeps 1.6 → 25.6 GB/s in the 4-core context.

use crate::mix::generate_mixes;
use crate::report::{ExperimentResult, Row};
use crate::runner::{geomean_speedup_percent, mean, Harness};
use crate::scheme::{L1Pf, Scheme};

use super::{pct_delta, sweep_mixes, with_baseline};

/// The sweep points (GB/s per core).
pub const BANDWIDTHS: [f64; 5] = [1.6, 3.2, 6.4, 12.8, 25.6];

/// Runs the experiment. Produces one row per bandwidth point with both the
/// speedup and the DRAM-delta column per scheme.
#[must_use]
pub fn run(h: &Harness) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig16",
        "Impact of DRAM bandwidth (4-core, IPCP): speedup and ΔDRAM",
        "% (speedup geomean / ΔDRAM mean)",
    );
    let l1pf = L1Pf::Ipcp;
    // The four headline schemes plus "Hermes+TLP", which §VI-B2 singles
    // out as winning only when bandwidth is unrealistically abundant.
    let schemes = [
        Scheme::Ppf,
        Scheme::Hermes,
        Scheme::HermesPpf,
        Scheme::Tlp,
        Scheme::HermesTlp,
    ];
    let mixes = generate_mixes(&h.active_workloads(), h.rc.mixes_per_suite / 2 + 1);
    let grid = with_baseline(&schemes, l1pf);
    for bw in BANDWIDTHS {
        let per_mix: Vec<_> = sweep_mixes(h, &mixes, &grid, Some(bw), Some(bw * 4.0))
            .iter()
            .map(|r| {
                let base_ws = r[0].weighted_ipc();
                let base_txn = r[0].shared.dram_transactions() as f64;
                let mut speedups = Vec::new();
                let mut deltas = Vec::new();
                for run in &r[1..] {
                    speedups.push(pct_delta(run.weighted_ipc(), base_ws));
                    deltas.push(pct_delta(run.shared.dram_transactions() as f64, base_txn));
                }
                (speedups, deltas)
            })
            .collect();
        let mut values = Vec::new();
        for (i, s) in schemes.iter().enumerate() {
            let sp: Vec<f64> = per_mix.iter().map(|(a, _)| a[i]).collect();
            values.push((
                format!("{} speedup", s.name()),
                geomean_speedup_percent(&sp),
            ));
        }
        for (i, s) in schemes.iter().enumerate() {
            let d: Vec<f64> = per_mix.iter().map(|(_, b)| b[i]).collect();
            values.push((format!("{} ΔDRAM", s.name()), mean(&d)));
        }
        result.rows.push(Row::new(format!("{bw} GB/s"), values));
    }
    result
}
