//! One module per paper figure/table. Each `run` function returns an
//! [`crate::report::ExperimentResult`] with the same rows/series the paper
//! plots (per-workload values plus the SPEC/GAP/ALL summaries).

pub mod ext01_offchip;
pub mod ext02_replacement;
pub mod ext03_thresholds;
pub mod ext04_features;
pub mod ext05_storage;
pub mod ext06_victim;
pub mod ext07_rl;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod tables;

use std::sync::Arc;

use tlp_sim::SimReport;
use tlp_trace::emit::{Suite, Workload};

use crate::mix::{weighted_ipc, Mix};
use crate::report::Row;
use crate::runner::{geomean_speedup_percent, mean, Harness, Machine};
use crate::scheme::{L1Pf, Scheme};

/// Percent change from `base` to `new` (positive = increase).
#[must_use]
pub(crate) fn pct_delta(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    (new / base - 1.0) * 100.0
}

/// One workload and its reports, one per swept scheme.
pub(crate) type WorkloadRuns = (Arc<dyn Workload>, Vec<Arc<SimReport>>);

/// Runs `schemes` (plus `Baseline`) over the active workload set through
/// the run engine, returning `(workload, per-scheme reports)` where index
/// 0 is always the baseline.
///
/// The whole (workload × scheme) grid is one deduplicated batch — cells
/// another experiment already simulated come from the cache — so the
/// result is independent of thread count.
pub(crate) fn sweep_single_core(h: &Harness, schemes: &[Scheme], l1pf: L1Pf) -> Vec<WorkloadRuns> {
    let workloads = h.active_workloads();
    let all: Vec<_> = std::iter::once(Scheme::Baseline)
        .chain(schemes.iter().copied())
        .map(Scheme::resolve)
        .collect();
    let pf = l1pf.resolve();
    let cells: Vec<_> = workloads
        .iter()
        .flat_map(|w| {
            all.iter().map(|s| {
                h.cell(
                    std::slice::from_ref(w),
                    Arc::clone(s),
                    Arc::clone(&pf),
                    Machine::CascadeLake(None),
                )
            })
        })
        .collect();
    let mut reports = h.run(&cells).into_iter();
    workloads
        .into_iter()
        .map(|w| (w, reports.by_ref().take(all.len()).collect()))
        .collect()
}

/// One mix under one (scheme, prefetcher) pair: the shared 4-core run
/// and, when isolation runs were requested, each core's workload run
/// alone.
pub(crate) struct MixRun {
    /// The 4-core run.
    pub(crate) shared: Arc<SimReport>,
    isolated: Vec<Arc<SimReport>>,
}

impl MixRun {
    /// Weighted speedup of the shared run over the isolation runs.
    pub(crate) fn weighted_ipc(&self) -> f64 {
        weighted_ipc(&self.shared, &self.isolated)
    }
}

/// `(Baseline, l1pf)` followed by every `(scheme, l1pf)` — the grid of a
/// multi-core experiment that compares `schemes` against the baseline.
pub(crate) fn with_baseline(schemes: &[Scheme], l1pf: L1Pf) -> Vec<(Scheme, L1Pf)> {
    std::iter::once(Scheme::Baseline)
        .chain(schemes.iter().copied())
        .map(|s| (s, l1pf))
        .collect()
}

/// Runs the (mix × grid) cells of a multi-core experiment in one
/// deduplicated batch: every mix at per-core bandwidth `gbps`, plus —
/// when `single_gbps` is given — each of its workloads alone at that
/// bandwidth, for [`MixRun::weighted_ipc`]. Returns, per mix, one
/// [`MixRun`] per grid entry, in grid order.
pub(crate) fn sweep_mixes(
    h: &Harness,
    mixes: &[Mix],
    grid: &[(Scheme, L1Pf)],
    gbps: Option<f64>,
    single_gbps: Option<f64>,
) -> Vec<Vec<MixRun>> {
    let mut cells = Vec::new();
    for m in mixes {
        for &(scheme, l1pf) in grid {
            let (s, p) = (scheme.resolve(), l1pf.resolve());
            let mix = Machine::CascadeLake(gbps);
            cells.push(h.cell(&m.workloads, Arc::clone(&s), Arc::clone(&p), mix));
            if let Some(bw) = single_gbps {
                for w in &m.workloads {
                    let alone = Machine::CascadeLake(Some(bw));
                    let w = std::slice::from_ref(w);
                    cells.push(h.cell(w, Arc::clone(&s), Arc::clone(&p), alone));
                }
            }
        }
    }
    let per_run = if single_gbps.is_some() { 5 } else { 1 };
    let reports = h.run(&cells);
    let mut runs = reports.chunks(per_run).map(|r| MixRun {
        shared: Arc::clone(&r[0]),
        isolated: r[1..].to_vec(),
    });
    mixes
        .iter()
        .map(|_| runs.by_ref().take(grid.len()).collect())
        .collect()
}

/// Appends SPEC / GAP / ALL summary rows to per-workload rows.
///
/// `summarize` receives the values of one column for one group and reduces
/// them (mean or geomean).
pub(crate) fn suite_summaries<F>(
    rows: &[(Suite, Row)],
    columns: &[String],
    summarize: F,
) -> Vec<Row>
where
    F: Fn(&[f64]) -> f64,
{
    let mut out = Vec::new();
    for (label, filter) in [
        ("SPEC avg", Some(Suite::Spec)),
        ("GAP avg", Some(Suite::Gap)),
        ("ALL avg", None),
    ] {
        let mut values = Vec::new();
        for col in columns {
            let xs: Vec<f64> = rows
                .iter()
                .filter(|(s, _)| filter.is_none() || Some(*s) == filter)
                .filter_map(|(_, r)| r.get(col))
                .collect();
            values.push((col.clone(), summarize(&xs)));
        }
        out.push(Row::new(label, values));
    }
    out
}

/// Mean-based summaries.
pub(crate) fn mean_summaries(rows: &[(Suite, Row)], columns: &[String]) -> Vec<Row> {
    suite_summaries(rows, columns, mean)
}

/// Geomean-based summaries (for speedup percentages).
pub(crate) fn geomean_summaries(rows: &[(Suite, Row)], columns: &[String]) -> Vec<Row> {
    suite_summaries(rows, columns, geomean_speedup_percent)
}

/// Per-scheme single-core summary used by the extension sweeps:
/// `(geomean speedup %, mean ΔDRAM %)` for each scheme against the
/// baseline, over the active workload set with prefetcher `l1pf`.
pub(crate) fn speedup_and_dram(h: &Harness, schemes: &[Scheme], l1pf: L1Pf) -> Vec<(f64, f64)> {
    let data = sweep_single_core(h, schemes, l1pf);
    (0..schemes.len())
        .map(|i| {
            let mut speedups = Vec::new();
            let mut deltas = Vec::new();
            for (_, reports) in &data {
                let base = &reports[0];
                let r = &reports[i + 1];
                speedups.push(pct_delta(r.ipc(), base.ipc()));
                deltas.push(pct_delta(
                    r.dram_transactions() as f64,
                    base.dram_transactions() as f64,
                ));
            }
            (geomean_speedup_percent(&speedups), mean(&deltas))
        })
        .collect()
}
