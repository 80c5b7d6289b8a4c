//! Graph-analytics tour: run all six GAP kernels over one input graph and
//! compare the baseline system with TLP — the paper's motivating workload
//! class (§III).
//!
//! ```text
//! cargo run --release --example graph_analytics [graph]
//! ```

use std::sync::Arc;

use tlp::harness::{Harness, L1Pf, Machine, RunConfig, Scheme};
use tlp::trace::emit::Workload;
use tlp::trace::gap::{GapWorkload, Graph, GraphKind, GraphScale, Kernel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = args
        .first()
        .and_then(|s| GraphKind::from_name(s))
        .unwrap_or(GraphKind::Kron);
    let rc = RunConfig::quick();
    let h = Harness::new(rc);

    println!("building {} at quick scale...", kind.name());
    let graph = Arc::new(Graph::build(kind, GraphScale::Quick, 7));
    println!(
        "graph: {} vertices, {} directed edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "kernel", "base IPC", "TLP IPC", "base DRAM", "TLP DRAM", "ΔDRAM %"
    );
    // One (Baseline, TLP) cell pair per kernel, run as one batch.
    let mut cells = Vec::new();
    for kernel in Kernel::ALL {
        let w: Arc<dyn Workload> =
            Arc::new(GapWorkload::with_graph(kernel, kind, Arc::clone(&graph)));
        for scheme in [Scheme::Baseline, Scheme::Tlp] {
            let ws = std::slice::from_ref(&w);
            cells.push(h.cell(
                ws,
                scheme.resolve(),
                L1Pf::Ipcp.resolve(),
                Machine::CascadeLake(None),
            ));
        }
    }
    let reports = h.run(&cells);
    for (pair, runs) in cells.chunks(2).zip(reports.chunks(2)) {
        let (w, base, tlp) = (&pair[0].workloads()[0], &runs[0], &runs[1]);
        let delta =
            (tlp.dram_transactions() as f64 / base.dram_transactions().max(1) as f64 - 1.0) * 100.0;
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>12} {:>12} {:>+10.1}",
            w.name(),
            base.ipc(),
            tlp.ipc(),
            base.dram_transactions(),
            tlp.dram_transactions(),
            delta
        );
    }
}
