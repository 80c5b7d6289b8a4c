//! The two single-cell workloads: seeded generator inputs, set-up, and
//! their run budgets.
//!
//! Set-up covers everything from workload lookup to a built [`System`]:
//! generator (and graph) construction, trace capture, the TLPT v2 store
//! write and open (mix-4c only), scheme assembly through the plugin
//! registry, and `System::new`. Each phase is timed separately.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tlp_harness::builtin_registry;
use tlp_plugin::{BuildCtx, ComponentRef};
use tlp_sim::{CoreSetup, EngineMode, System, SystemConfig};
use tlp_trace::catalog::GRAPH_SEED;
use tlp_trace::emit::Workload;
use tlp_trace::gap::{GapWorkload, GraphKind, GraphScale, Kernel};
use tlp_trace::simpoint::{simpoints_of, BbvConfig};
use tlp_trace::spec::{spec_workloads, SpecScale, SpecWorkload};
use tlp_trace::{capture, TraceSource, VecTrace};
use tlp_tracestore::{
    capture_desc, TraceKey, TraceLoad, TraceStore, CAPTURE_SIMPOINT_K, CAPTURE_SIMPOINT_SEED,
};

use crate::seams::{decorate, Probes};

/// Warm-up and measured instructions per core of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instructions: u64,
}

impl Budget {
    /// The harness's Quick budget (`tlp_repro --quick`).
    pub const QUICK: Self = Self {
        warmup: 20_000,
        instructions: 100_000,
    };
    /// The harness's `--test` budget, which the grid's cells run.
    pub const TEST: Self = Self {
        warmup: 5_000,
        instructions: 25_000,
    };

    /// Records captured per trace: warm-up plus measurement plus the
    /// slack the harness adds so the front end stays fed.
    #[must_use]
    pub fn records(self) -> usize {
        (self.warmup + self.instructions) as usize + 4096
    }
}

/// The scheme and L1D prefetcher, looked up by registry name.
pub const SCHEME: &str = "TLP";
/// The L1D prefetcher every core runs.
pub const L1_PREFETCHER: &str = "ipcp";

/// The mix-4c SPEC workloads: catalog name, ALU ops per memory access,
/// catalog generator seed, and whether the benchmark seed offsets it.
/// Kind and footprint come from the catalog itself; `tests/bench.rs` pins
/// that seed 0 reproduces its traces.
///
/// A SPEC seed's low byte places the workload's code; the seed also feeds
/// its random draws. The two compute-bound workloads draw none, so the
/// benchmark seed moves their code. The pointer-chasing pair keeps its
/// catalog seeds: where a chase starts flips the mix between two
/// DRAM-traffic modes (README.md), which would make `dram_txn_pki`
/// bimodal across seeds.
const MIX: [(&str, u32, u64, bool); 4] = [
    ("spec.cactubssn_17", 7, 28, true),
    ("spec.xalancbmk_17", 8, 16, false),
    ("spec.milc_06", 7, 24, true),
    ("spec.mcf_17", 7, 12, false),
];

/// A single-cell workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// `bfs.urand`, one core, trace held in memory.
    Bfs1c,
    /// Four SPEC workloads on four cores, streamed from a fresh v2 store.
    Mix4c,
}

impl Cell {
    /// Parses a benchmark workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "bfs-1c" => Some(Self::Bfs1c),
            "mix-4c" => Some(Self::Mix4c),
            _ => None,
        }
    }

    /// Inputs a run pools (`K`). One bfs graph in four or so lands in a
    /// low-DRAM-traffic mode, so `dram_txn_pki` over one graph per run
    /// spreads past its bound across seeds (README.md); a bfs-1c run
    /// averages over eight graphs. mix-4c keeps one input.
    #[must_use]
    pub fn inputs(self) -> usize {
        match self {
            Self::Bfs1c => 8,
            Self::Mix4c => 1,
        }
    }

    /// Generator seed of input `i` of a run with benchmark seed `seed`:
    /// `K * seed + i`, so seed 0's first input is the catalog's.
    #[must_use]
    pub fn input_seed(self, seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(self.inputs() as u64)
            .wrapping_add(i as u64)
    }

    /// The run budget. bfs-1c runs the Quick budget of the CI perf gate.
    /// mix-4c runs the `--test` budget of the grid's four-core cells: at
    /// the Quick budget one mix-4c simulation takes 5-10 s on a 2-vCPU
    /// host, too long for three per engine in one measuring window.
    #[must_use]
    pub fn budget(self) -> Budget {
        match self {
            Self::Bfs1c => Budget::QUICK,
            Self::Mix4c => Budget::TEST,
        }
    }

    /// Simulated cores.
    #[must_use]
    pub fn cores(self) -> usize {
        match self {
            Self::Bfs1c => 1,
            Self::Mix4c => MIX.len(),
        }
    }
}

/// The workload generators of `cell`, seeded from `seed`. Seed 0 gives
/// the catalog generators `tlp_repro` uses; another seed offsets the
/// bfs graph seed, or the seeds of mix-4c's compute-bound workloads.
#[must_use]
pub fn generators(cell: Cell, seed: u64) -> Vec<Box<dyn Workload>> {
    match cell {
        Cell::Bfs1c => vec![Box::new(GapWorkload::new(
            Kernel::Bfs,
            GraphKind::Urand,
            GraphScale::Quick,
            GRAPH_SEED.wrapping_add(seed),
        ))],
        Cell::Mix4c => {
            let catalog = spec_workloads(SpecScale::Quick);
            MIX.iter()
                .map(|&(name, alu, base, seeded)| {
                    let w = catalog
                        .iter()
                        .find(|w| w.name() == name)
                        .unwrap_or_else(|| panic!("{name} left the SPEC catalog"));
                    Box::new(SpecWorkload::new(
                        name,
                        w.kind(),
                        w.footprint_bytes() / 8,
                        alu,
                        if seeded {
                            base.wrapping_add(seed)
                        } else {
                            base
                        },
                    )) as Box<dyn Workload>
                })
                .collect()
        }
    }
}

/// Host seconds of each set-up phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Generator (and graph) construction.
    pub workload_s: f64,
    /// Trace capture.
    pub capture_s: f64,
    /// SimPoints, the v2 write and the open (mix-4c only).
    pub persist_s: f64,
    /// Scheme assembly and `System::new`.
    pub assemble_s: f64,
}

impl SetupTimes {
    /// Workload lookup to a built system.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.workload_s + self.capture_s + self.persist_s + self.assemble_s
    }
}

/// A system ready to run, with its set-up timings.
pub struct Built {
    /// The system.
    pub system: System,
    /// Set-up phase timings.
    pub times: SetupTimes,
}

/// Builds `cell` from scratch. With `probes`, every core's seams are
/// decorated to count and time their calls. mix-4c writes its traces
/// into a fresh store under `work_dir`.
///
/// # Errors
///
/// Returns a message when the registry lookup, scheme assembly or the
/// trace store fails.
pub fn setup(
    cell: Cell,
    seed: u64,
    mode: EngineMode,
    probes: Option<&Arc<Probes>>,
    work_dir: &Path,
) -> Result<Built, String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let gens = generators(cell, seed);
    times.workload_s = t.elapsed().as_secs_f64();

    let budget = cell.budget();
    let mut traces: Vec<Box<dyn TraceSource>> = Vec::with_capacity(gens.len());
    let store = match cell {
        Cell::Bfs1c => None,
        Cell::Mix4c => {
            let t = Instant::now();
            let dir = work_dir.join("traces");
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            let store = TraceStore::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            times.persist_s += t.elapsed().as_secs_f64();
            Some(store)
        }
    };
    for w in &gens {
        let t = Instant::now();
        let records = capture(w.as_ref(), budget.records());
        times.capture_s += t.elapsed().as_secs_f64();
        let Some(store) = &store else {
            traces.push(Box::new(VecTrace::looping_shared(
                w.name(),
                Arc::new(records),
            )));
            continue;
        };
        let t = Instant::now();
        let cfg = BbvConfig::standard();
        let sps = simpoints_of(&records, cfg, CAPTURE_SIMPOINT_K, CAPTURE_SIMPOINT_SEED);
        let env = format!(
            "Quick|w{}|i{}|seed{seed}",
            budget.warmup, budget.instructions
        );
        let key = TraceKey::from_desc(&capture_desc(&env, w.name(), budget.records()));
        store
            .save(key, w.name(), true, &records, &sps, cfg.interval)
            .map_err(|e| format!("saving {}: {e}", w.name()))?;
        match store.open_trace(key) {
            TraceLoad::Hit(stream) => traces.push(stream),
            TraceLoad::Miss | TraceLoad::Corrupt => {
                return Err(format!("{}: stored trace did not reopen", w.name()))
            }
        }
        times.persist_s += t.elapsed().as_secs_f64();
    }

    let t = Instant::now();
    let registry = builtin_registry();
    let spec = registry.scheme(SCHEME).map_err(|e| e.to_string())?;
    let l1pf = ComponentRef::new(L1_PREFETCHER);
    let setups = traces
        .into_iter()
        .map(|trace| {
            let s = registry
                .build_setup(spec, Some(&l1pf), trace, &mut BuildCtx::new())
                .map_err(|e| e.to_string())?;
            check_composition(&s)?;
            Ok(match probes {
                Some(p) => decorate(s, p),
                None => s,
            })
        })
        .collect::<Result<Vec<CoreSetup>, String>>()?;
    let system =
        System::new(SystemConfig::cascade_lake(cell.cores()), setups).with_engine_mode(mode);
    times.assemble_s = t.elapsed().as_secs_f64();
    Ok(Built { system, times })
}

/// The per-layer metric names assume TLP is FLP + SLP over IPCP + SPP;
/// refuse to measure a different composition under those names.
fn check_composition(s: &CoreSetup) -> Result<(), String> {
    let got = [
        s.offchip.name(),
        s.l1_filter.name(),
        s.l1_prefetcher.name(),
        s.l2_prefetcher.name(),
    ];
    if got == ["flp", "slp", "ipcp", "spp"] {
        Ok(())
    } else {
        Err(format!(
            "{SCHEME} + {L1_PREFETCHER} assembled as {got:?}, not flp/slp/ipcp/spp"
        ))
    }
}
