//! Quickstart: simulate one workload on the paper's baseline system and on
//! TLP, and print the headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart [workload] [instructions]
//! ```

use tlp::harness::{Harness, L1Pf, Machine, RunConfig, Scheme};
use tlp::sim::types::Level;
use tlp::trace::catalog;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("bfs.kron", String::as_str);
    let mut rc = RunConfig::quick();
    if let Some(n) = args.get(1).and_then(|s| s.parse().ok()) {
        rc.instructions = n;
        rc.warmup = n / 5;
    }

    let h = Harness::new(rc);
    let Some(w) = catalog::workload(name, rc.scale) else {
        eprintln!("unknown workload {name}; try one of:");
        for n in catalog::all_names(rc.scale) {
            eprintln!("  {n}");
        }
        std::process::exit(1);
    };

    println!(
        "workload {name}: {} instructions after {} warmup\n",
        rc.instructions, rc.warmup
    );
    let schemes = [Scheme::Baseline, Scheme::Hermes, Scheme::Tlp];
    let cells: Vec<_> = schemes
        .iter()
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
    for (scheme, r) in schemes.iter().zip(h.run(&cells)) {
        let c = &r.cores[0];
        let instr = c.core.instructions;
        println!("== {}", scheme.name());
        println!(
            "   IPC {:.3}  cycles {}  DRAM transactions {}",
            c.core.ipc(),
            c.core.cycles,
            r.dram_transactions()
        );
        println!(
            "   MPKI: L1D {:.1}  L2C {:.1}  LLC {:.1}",
            c.l1d.mpki(instr),
            c.l2.mpki(instr),
            r.llc.mpki(instr)
        );
        println!(
            "   L1 prefetcher: {} candidates, {} filtered, {} issued, accuracy {:.1}%",
            c.l1_prefetch.candidates,
            c.l1_prefetch.filtered,
            c.l1_prefetch.issued,
            c.l1_prefetch.accuracy() * 100.0
        );
        println!(
            "   L1 pf filled by level: L2 {} LLC {} DRAM {}",
            c.l1_prefetch.filled_by_level[Level::L2.index()],
            c.l1_prefetch.filled_by_level[Level::Llc.index()],
            c.l1_prefetch.filled_by_level[Level::Dram.index()],
        );
        println!(
            "   L2 prefetcher (SPP): {} candidates, {} issued, accuracy {:.1}%",
            c.l2_prefetch.candidates,
            c.l2_prefetch.issued,
            c.l2_prefetch.accuracy() * 100.0
        );
        println!(
            "   off-chip predictor: {} issued-now, {} delayed-tags, {} delayed-issued, issue accuracy {:.1}%",
            c.offchip.issued_now,
            c.offchip.tagged_delayed,
            c.offchip.delayed_issued,
            c.offchip.issue_accuracy() * 100.0
        );
        println!(
            "   DRAM: {} reads, {} spec reads, {} writes, row-hit {:.0}%\n",
            r.dram.reads,
            r.dram.spec_reads,
            r.dram.writes,
            100.0 * r.dram.row_hits as f64 / (r.dram.row_hits + r.dram.row_conflicts).max(1) as f64
        );
    }
}
