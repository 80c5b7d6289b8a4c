//! Extension E2: LLC replacement-policy ablation.
//!
//! The paper's related work (§VII) argues TLP is orthogonal to cache
//! replacement and bypassing proposals — its gains should survive a change
//! of LLC replacement policy. This experiment reruns Baseline and TLP with
//! LRU (Table III), SRRIP, DRRIP, SHiP-lite and Random at the LLC and
//! reports TLP's speedup/ΔDRAM *relative to the baseline using the same
//! policy*.

use tlp_sim::replacement::ReplKind;
use tlp_sim::SystemConfig;

use crate::report::{ExperimentResult, Row};
use crate::runner::{geomean_speedup_percent, mean, Harness, Machine};
use crate::scheme::{L1Pf, Scheme};

use super::pct_delta;

/// Runs the experiment.
#[must_use]
pub fn run(h: &Harness) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "ext02",
        "TLP under different LLC replacement policies (single-core, IPCP)",
        "% (speedup geomean / ΔDRAM mean) + baseline LLC MPKI",
    );
    let workloads = h.active_workloads();
    // One deduplicated batch over the whole (policy × workload × scheme)
    // grid: a (Baseline, TLP) report pair per policy and workload.
    let mut cells = Vec::new();
    for kind in ReplKind::ALL {
        let mut cfg = SystemConfig::cascade_lake(1);
        cfg.llc_repl = kind;
        for w in &workloads {
            for scheme in [Scheme::Baseline, Scheme::Tlp] {
                let machine = Machine::Custom(Box::new(cfg.clone()), kind.name().to_owned());
                let w = std::slice::from_ref(w);
                cells.push(h.cell(w, scheme.resolve(), L1Pf::Ipcp.resolve(), machine));
            }
        }
    }
    let reports = h.run(&cells);
    for (kind, runs) in ReplKind::ALL
        .into_iter()
        .zip(reports.chunks(2 * workloads.len()))
    {
        let per_w: Vec<_> = runs
            .chunks(2)
            .map(|pair| {
                let (base, tlp) = (&pair[0], &pair[1]);
                (
                    pct_delta(tlp.ipc(), base.ipc()),
                    pct_delta(
                        tlp.dram_transactions() as f64,
                        base.dram_transactions() as f64,
                    ),
                    base.llc_mpki(),
                )
            })
            .collect();
        let speedups: Vec<f64> = per_w.iter().map(|x| x.0).collect();
        let deltas: Vec<f64> = per_w.iter().map(|x| x.1).collect();
        let mpkis: Vec<f64> = per_w.iter().map(|x| x.2).collect();
        result.rows.push(Row::new(
            kind.name(),
            vec![
                ("TLP speedup".into(), geomean_speedup_percent(&speedups)),
                ("TLP ΔDRAM".into(), mean(&deltas)),
                ("base MPKI".into(), mean(&mpkis)),
            ],
        ));
    }
    result
}
