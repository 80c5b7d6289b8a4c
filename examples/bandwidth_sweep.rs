//! Bandwidth-sensitivity mini-study (the paper's Figure 16): sweep the
//! per-core DRAM bandwidth on one 4-core mix and watch the schemes reorder
//! as the system moves across the saturation knee.
//!
//! ```text
//! cargo run --release --example bandwidth_sweep
//! ```

use tlp::harness::mix::generate_mixes;
use tlp::harness::{Harness, L1Pf, Machine, RunConfig, Scheme};

fn main() {
    let rc = RunConfig::quick();
    let h = Harness::new(rc);
    let mixes = generate_mixes(&h.active_workloads(), 2);
    let mix = mixes
        .iter()
        .find(|m| !m.homogeneous)
        .expect("heterogeneous mix exists");
    println!(
        "mix {}: {}\n",
        mix.name,
        mix.workloads
            .iter()
            .map(|w| w.name().to_owned())
            .collect::<Vec<_>>()
            .join(" + ")
    );
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "GB/s/core", "Baseline IPC", "Hermes IPC", "TLP IPC"
    );
    // The whole (bandwidth × scheme) grid as one batch.
    let bandwidths = [1.6, 3.2, 6.4, 12.8, 25.6];
    let schemes = [Scheme::Baseline, Scheme::Hermes, Scheme::Tlp];
    let cells: Vec<_> = bandwidths
        .iter()
        .flat_map(|&bw| {
            schemes.map(|s| {
                let machine = Machine::CascadeLake(Some(bw));
                h.cell(&mix.workloads, s.resolve(), L1Pf::Ipcp.resolve(), machine)
            })
        })
        .collect();
    let reports = h.run(&cells);
    let sum_ipc = |r: &tlp::sim::SimReport| -> f64 { r.cores.iter().map(|c| c.core.ipc()).sum() };
    for (bw, r) in bandwidths.iter().zip(reports.chunks(schemes.len())) {
        println!(
            "{bw:>10} {:>14.3} {:>14.3} {:>14.3}",
            sum_ipc(&r[0]),
            sum_ipc(&r[1]),
            sum_ipc(&r[2]),
        );
    }
}
