//! Extension E7: the Athena-class online-RL coordination baseline.
//!
//! Two tables:
//!
//! * [`run`] — a head-to-head of Baseline / Hermes / TLP / AthenaRl over
//!   the single-core catalog (IPCP at L1D): geomean speedup, mean ΔDRAM
//!   transactions, and the precision of issued speculative requests.
//! * [`run_learning_curve`] — the online-learning trajectory: one shared
//!   agent simulated for [`EPOCHS`] consecutive epochs of the same
//!   workload (the Q-tables, pressure EWMAs, and exploration schedule
//!   persist across epochs while the architectural state restarts), with
//!   issue accuracy, issue rate, and IPC per epoch. A supervised predictor
//!   is near-stationary here; an RL agent's accuracy climbs as ε decays
//!   and the Q-values sharpen.

use std::sync::Arc;

use tlp_rl::{shared_agent, RlConfig, SharedAgent};
use tlp_sim::engine::System;
use tlp_sim::types::Level;
use tlp_sim::{SimReport, SystemConfig};
use tlp_trace::emit::Workload;

use crate::report::{ExperimentResult, Row};
use crate::runner::{geomean_speedup_percent, mean, Harness};
use crate::scheme::{L1Pf, Scheme};

use super::{pct_delta, sweep_single_core};

/// The schemes compared against the baseline.
pub const SCHEMES: [Scheme; 3] = [Scheme::Hermes, Scheme::Tlp, Scheme::AthenaRl];

/// Epochs of the learning-curve table.
pub const EPOCHS: usize = 5;

/// Runs the head-to-head.
#[must_use]
pub fn run(h: &Harness) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "ext07",
        "Online-RL coordination (AthenaRl) vs Baseline / Hermes / TLP (IPCP)",
        "% (speedup geomean / ΔDRAM mean / precision)",
    );
    let data = sweep_single_core(h, &SCHEMES, L1Pf::Ipcp);
    // Index 0 of each report vector is the baseline; emit it as an explicit
    // zero row so the table shows all four systems.
    let names = std::iter::once(Scheme::Baseline)
        .chain(SCHEMES)
        .map(Scheme::name);
    for (i, name) in names.enumerate() {
        let mut speedups = Vec::new();
        let mut deltas = Vec::new();
        let mut precisions = Vec::new();
        for (_, reports) in &data {
            let base = &reports[0];
            let r = &reports[i];
            speedups.push(pct_delta(r.ipc(), base.ipc()));
            deltas.push(pct_delta(
                r.dram_transactions() as f64,
                base.dram_transactions() as f64,
            ));
            precisions.push(r.cores[0].offchip.issue_accuracy() * 100.0);
        }
        result.rows.push(Row::new(
            name,
            vec![
                ("speedup".into(), geomean_speedup_percent(&speedups)),
                ("ΔDRAM".into(), mean(&deltas)),
                ("precision".into(), mean(&precisions)),
            ],
        ));
    }
    result
}

/// One epoch: a fresh system (same wiring as [`Scheme::AthenaRl`]) around
/// the persistent agent.
fn run_epoch(h: &Harness, w: &Arc<dyn Workload>, agent: &SharedAgent) -> SimReport {
    let setup = Scheme::athena_rl_setup(h.trace_for(w), L1Pf::Ipcp, agent.clone());
    let mut sys =
        System::new(SystemConfig::cascade_lake(1), vec![setup]).with_engine_mode(h.rc.engine);
    h.run_system(&mut sys, h.rc.warmup, h.rc.instructions)
}

/// Runs the learning curve on the first active workload.
///
/// The epochs are a stateful sequence (the agent persists across them),
/// so they run as one all-or-nothing cached sequence: keyed per epoch, and
/// re-simulated as a whole when any epoch is cold.
#[must_use]
pub fn run_learning_curve(h: &Harness) -> ExperimentResult {
    let w = h.active_workloads()[0].clone();
    let mut result = ExperimentResult::new(
        "ext07lc",
        format!("AthenaRl learning curve on {} (persistent agent)", w.name()),
        "issue acc % / issued per kilo-load / IPC",
    );
    let keys: Vec<_> = (1..=EPOCHS)
        .map(|e| h.sequence_key(&w, Scheme::AthenaRl, L1Pf::Ipcp, &format!("lc-epoch{e}")))
        .collect();
    let reports = h.run_sequence(&keys, || {
        let agent = shared_agent(RlConfig::default_config());
        (1..=EPOCHS).map(|_| run_epoch(h, &w, &agent)).collect()
    });
    for (epoch, r) in (1..=EPOCHS).zip(&reports) {
        let oc = &r.cores[0].offchip;
        let issued: u64 = oc.issued_outcome.iter().sum();
        let correct = oc.issued_outcome[Level::Dram.index()];
        let loads = r.cores[0].core.loads.max(1);
        result.rows.push(Row::new(
            format!("epoch {epoch}"),
            vec![
                (
                    "issue acc".into(),
                    if issued == 0 {
                        0.0
                    } else {
                        correct as f64 * 100.0 / issued as f64
                    },
                ),
                ("issued/kld".into(), issued as f64 * 1000.0 / loads as f64),
                ("IPC".into(), r.ipc()),
            ],
        ));
    }
    let col_mean = |col: &str| {
        mean(
            &result
                .rows
                .iter()
                .filter_map(|r| r.get(col))
                .collect::<Vec<_>>(),
        )
    };
    result.summary.push(Row::new(
        "mean",
        vec![
            ("issue acc".into(), col_mean("issue acc")),
            ("issued/kld".into(), col_mean("issued/kld")),
            ("IPC".into(), col_mean("IPC")),
        ],
    ));
    result
}
