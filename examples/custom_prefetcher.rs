//! Extending the simulator through the composition API: register a
//! custom L1D prefetcher with the plugin registry, compose it into a
//! scheme with a [`SchemeSpec`], and race it against IPCP through a
//! [`Harness`] — no harness code is edited anywhere.
//!
//! ```text
//! cargo run --release --example custom_prefetcher
//! ```

use std::sync::Arc;

use tlp::harness::{Harness, RunConfig};
use tlp::plugin::{ComponentRef, SchemeSpec};
use tlp::sim::hooks::{DemandAccess, L1Prefetcher, PrefetchCandidate};
use tlp::sim::types::LINE_SIZE;

/// A toy "sandwich" prefetcher: on every miss, fetch both neighbors of the
/// missing line. Implementing [`L1Prefetcher`] is all a component needs to
/// run on the full system.
#[derive(Debug, Default)]
struct Sandwich;

impl L1Prefetcher for Sandwich {
    fn on_access(&mut self, access: &DemandAccess, out: &mut Vec<PrefetchCandidate>) {
        if access.hit {
            return;
        }
        let line = access.vaddr & !(LINE_SIZE - 1);
        out.push(PrefetchCandidate {
            vaddr: line + LINE_SIZE,
            fill_l1: true,
        });
        if line >= LINE_SIZE {
            out.push(PrefetchCandidate {
                vaddr: line - LINE_SIZE,
                fill_l1: false,
            });
        }
    }

    fn name(&self) -> &'static str {
        "sandwich"
    }
}

fn main() {
    // 1. A harness: a private clone of the built-in registry plus the
    //    result cache and worker pool.
    let mut h = Harness::new(RunConfig::quick());

    // 2. Register the custom component. It lands in the collision-checked
    //    `custom:` namespace, so it can never alias a built-in cache key.
    let sandwich = h
        .registry_mut()
        .register_custom_l1_prefetcher(
            "sandwich",
            Arc::new(|params, _ctx| {
                params.allow_keys("sandwich", &[])?;
                Ok(Box::new(Sandwich))
            }),
        )
        .expect("fresh name");

    // 3. Compose schemes declaratively. Both pin the full TLP filter
    //    stack (FLP off-chip predictor + SLP prefetch filter + standard
    //    SPP at L2); they differ only in the L1D prefetcher seam.
    let tlp_stack = |name: &str| {
        SchemeSpec::new(name)
            .offchip("flp")
            .l1_filter("slp")
            .l2_prefetcher(ComponentRef::new("spp").param("profile", "standard"))
    };
    let with_sandwich = tlp_stack("TLP+sandwich").l1_prefetcher(sandwich.as_str());
    let with_ipcp = tlp_stack("TLP+ipcp").l1_prefetcher("ipcp");

    // Registering the composition by name also makes it addressable the
    // way `tlp_repro --scheme <name>` addresses schemes.
    h.registry_mut()
        .register_custom_scheme(with_sandwich.clone())
        .expect("fresh scheme name");

    // 4. Describe both sweeps as cells and run them as one batch
    //    (deduplicated, cached, sharded over the worker pool).
    let workloads = ["spec.milc_06", "bfs.web", "pr.kron"].map(String::from);
    let mut cells = h.cells(&with_ipcp, "none", &workloads).expect("ipcp cells");
    cells.extend(
        h.cells(&with_sandwich, "none", &workloads)
            .expect("sandwich cells"),
    );
    let reports = h.run(&cells);
    let (ipcp, sandwich) = reports.split_at(workloads.len());
    println!(
        "{:<14} {:>10} {:>14} {:>10} {:>14}",
        "workload", "ipcp IPC", "sandwich IPC", "ipcp DRAM", "sandwich DRAM"
    );
    for ((workload, a), b) in workloads.iter().zip(ipcp).zip(sandwich) {
        println!(
            "{workload:<14} {:>10.3} {:>14.3} {:>10} {:>14}",
            a.ipc(),
            b.ipc(),
            a.dram_transactions(),
            b.dram_transactions()
        );
    }
    eprintln!("# run-engine: {}", h.engine_stats().summary_line());
}
