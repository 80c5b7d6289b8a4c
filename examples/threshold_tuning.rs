//! Threshold tuning: sweep TLP's three thresholds on a workload of your
//! choice and report the operating curve — how speedup and DRAM traffic
//! move as each knob turns (the extension-E3 sweep, per-workload).
//!
//! ```text
//! cargo run --release --example threshold_tuning [workload]
//! ```

use tlp::harness::{Harness, L1Pf, Machine, RunConfig, Scheme, TlpParams};
use tlp::sim::SimReport;
use tlp::trace::catalog;

/// One knob's sweep: its name, the points, and how a point sets it.
type Knob = (&'static str, [i32; 5], fn(i32) -> TlpParams);

fn print_sweep((knob, points, _): &Knob, runs: &[std::sync::Arc<SimReport>], base: &SimReport) {
    let (base_ipc, base_txn) = (base.ipc(), base.dram_transactions() as f64);
    println!("-- {knob} sweep");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>12}",
        knob, "speedup%", "ΔDRAM%", "spec-issued", "pf-filtered"
    );
    for (t, r) in points.iter().zip(runs) {
        let c = &r.cores[0];
        println!(
            "{:>8} {:>9.2}% {:>9.2}% {:>12} {:>12}",
            t,
            (r.ipc() / base_ipc - 1.0) * 100.0,
            (r.dram_transactions() as f64 / base_txn - 1.0) * 100.0,
            c.offchip.issued_now + c.offchip.delayed_issued,
            c.l1_prefetch.filtered,
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("bfs.urand", String::as_str);
    let rc = RunConfig::quick();
    let h = Harness::new(rc);
    let Some(w) = catalog::workload(name, rc.scale) else {
        eprintln!("unknown workload {name}");
        std::process::exit(1);
    };

    let knobs: [Knob; 3] = [
        ("τ_high", [6, 10, 14, 18, 24], |t| TlpParams {
            tau_high: t,
            ..TlpParams::paper()
        }),
        ("τ_low", [-2, 0, 2, 6, 10], |t| TlpParams {
            tau_low: t,
            ..TlpParams::paper()
        }),
        ("τ_pref", [0, 3, 6, 12, 24], |t| TlpParams {
            tau_pref: t,
            ..TlpParams::paper()
        }),
    ];
    // The baseline plus every sweep point, as one batch.
    let schemes = std::iter::once(Scheme::Baseline).chain(
        knobs
            .iter()
            .flat_map(|(_, points, make)| points.map(|t| Scheme::TlpCustom(make(t)))),
    );
    let cells: Vec<_> = schemes
        .map(|s| {
            let ws = std::slice::from_ref(&w);
            h.cell(
                ws,
                s.resolve(),
                L1Pf::Ipcp.resolve(),
                Machine::CascadeLake(None),
            )
        })
        .collect();
    let reports = h.run(&cells);
    println!("workload {name} (paper operating point: τ_high=14 τ_low=2 τ_pref=6)\n");
    for (knob, runs) in knobs.iter().zip(reports[1..].chunks(5)) {
        print_sweep(knob, runs, &reports[0]);
    }

    println!(
        "Reading the curves: raising τ_high trades latency hiding for DRAM\n\
         savings (more predictions wait for the L1D miss); raising τ_low\n\
         narrows off-chip coverage; raising τ_pref lets more prefetches\n\
         through (τ_pref=24 ≈ no filtering)."
    );
}
