//! Extension E6: victim cache vs TLP.
//!
//! The paper's related work (§VII) contrasts TLP with the Victim Cache
//! [Jouppi 1990]: effective for conflict-heavy SPEC-style workloads but
//! reliant on locality that irregular workloads break, whereas TLP
//! "does not rely on locality assumptions and shortcuts the cache
//! hierarchy when it is predicted to be inefficient". This experiment
//! attaches a 64-entry victim buffer to the LLC and compares Baseline,
//! Baseline+VC, TLP and TLP+VC against the plain baseline.

use tlp_sim::SystemConfig;

use crate::report::{ExperimentResult, Row};
use crate::runner::{geomean_speedup_percent, mean, Harness, Machine};
use crate::scheme::{L1Pf, Scheme};

use super::pct_delta;

/// Victim-cache entries used by the experiment.
pub const VC_ENTRIES: usize = 64;

/// Runs the experiment.
#[must_use]
pub fn run(h: &Harness) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "ext06",
        "Victim cache (64-entry, LLC) vs TLP (single-core, IPCP)",
        "% (speedup geomean / ΔDRAM mean / VC hit-rate mean)",
    );
    let workloads = h.active_workloads();
    let mut vc_cfg = SystemConfig::cascade_lake(1);
    vc_cfg.victim_cache_entries = VC_ENTRIES;
    let configs: [(&str, Scheme, bool); 4] = [
        ("Baseline+VC", Scheme::Baseline, true),
        ("TLP", Scheme::Tlp, false),
        ("TLP+VC", Scheme::Tlp, true),
        ("Hermes", Scheme::Hermes, false),
    ];
    // Per workload: the plain baseline, then one cell per configuration.
    let mut cells = vec![];
    for w in &workloads {
        let cell = |scheme: Scheme, machine| {
            h.cell(
                std::slice::from_ref(w),
                scheme.resolve(),
                L1Pf::Ipcp.resolve(),
                machine,
            )
        };
        cells.push(cell(Scheme::Baseline, Machine::CascadeLake(None)));
        for (_, scheme, vc) in configs {
            cells.push(cell(
                scheme,
                if vc {
                    Machine::Custom(Box::new(vc_cfg.clone()), "vc64".to_owned())
                } else {
                    Machine::CascadeLake(None)
                },
            ));
        }
    }
    let reports = h.run(&cells);
    let per_w: Vec<_> = reports
        .chunks(1 + configs.len())
        .map(|runs| {
            let base = &runs[0];
            let mut rows = Vec::new();
            for ((label, _, _), r) in configs.iter().zip(&runs[1..]) {
                rows.push((
                    label,
                    pct_delta(r.ipc(), base.ipc()),
                    pct_delta(
                        r.dram_transactions() as f64,
                        base.dram_transactions() as f64,
                    ),
                    r.victim.hit_rate() * 100.0,
                ));
            }
            rows
        })
        .collect();
    for (i, (label, _, _)) in configs.iter().enumerate() {
        let speedups: Vec<f64> = per_w.iter().map(|r| r[i].1).collect();
        let deltas: Vec<f64> = per_w.iter().map(|r| r[i].2).collect();
        let hit_rates: Vec<f64> = per_w.iter().map(|r| r[i].3).collect();
        result.rows.push(Row::new(
            *label,
            vec![
                ("speedup".into(), geomean_speedup_percent(&speedups)),
                ("ΔDRAM".into(), mean(&deltas)),
                ("VC hit%".into(), mean(&hit_rates)),
            ],
        ));
    }
    result
}
