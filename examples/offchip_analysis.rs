//! Off-chip predictor anatomy: run the three off-chip prediction
//! strategies (Hermes, LP, TLP's FLP) on one workload and print a full
//! confusion breakdown — where each issued speculative DRAM request's
//! block actually lived, plus precision/coverage and the DRAM bill.
//!
//! ```text
//! cargo run --release --example offchip_analysis [workload]
//! ```

use tlp::harness::{Harness, L1Pf, Machine, RunConfig, Scheme};
use tlp::sim::types::Level;
use tlp::trace::catalog;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("sssp.kron", String::as_str);
    let rc = RunConfig::quick();
    let h = Harness::new(rc);
    let Some(w) = catalog::workload(name, rc.scale) else {
        eprintln!("unknown workload {name}");
        std::process::exit(1);
    };

    let schemes = [Scheme::Hermes, Scheme::Lp, Scheme::Tlp];
    let cells: Vec<_> = std::iter::once(Scheme::Baseline)
        .chain(schemes)
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
    let base = &reports[0];
    println!(
        "workload {name}: baseline IPC {:.3}, {} DRAM transactions\n",
        base.ipc(),
        base.dram_transactions()
    );
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>9} {:>8}",
        "scheme", "→L1D", "→L2C", "→LLC", "→DRAM", "precision", "coverage", "ΔDRAM%", "speedup%"
    );
    for (scheme, r) in schemes.iter().zip(&reports[1..]) {
        let oc = &r.cores[0].offchip;
        let issued: u64 = oc.issued_outcome.iter().sum();
        let pct = |l: Level| {
            if issued == 0 {
                0.0
            } else {
                oc.issued_outcome[l.index()] as f64 * 100.0 / issued as f64
            }
        };
        let dram_hits = oc.issued_outcome[Level::Dram.index()];
        let coverage = {
            let truly = dram_hits + oc.missed_offchip;
            if truly == 0 {
                0.0
            } else {
                dram_hits as f64 * 100.0 / truly as f64
            }
        };
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>9.1}% {:>9.1}% {:>8.1}% {:>7.1}%",
            scheme.name(),
            pct(Level::L1d),
            pct(Level::L2),
            pct(Level::Llc),
            pct(Level::Dram),
            oc.issue_accuracy() * 100.0,
            coverage,
            (r.dram_transactions() as f64 / base.dram_transactions() as f64 - 1.0) * 100.0,
            (r.ipc() / base.ipc() - 1.0) * 100.0,
        );
    }
    println!(
        "\nEvery issued prediction whose block was in L1D/L2C/LLC is a wasted\n\
         DRAM transaction (paper Figure 4); TLP's selective delay converts the\n\
         L1D-resident slice into on-chip lookups."
    );
}
