//! `tlp-repro`: regenerate the TLP paper's tables and figures.
//!
//! Usage:
//! ```text
//! tlp-repro [--test|--quick|--full] [--engine cycle|event] [--jobs N]
//!           [--cache-dir DIR [--cache-cap-mb MB]] [fig1 fig2 ... | all]
//!           [--scheme NAME [--l1pf NAME] [--workload NAME]... [--simpoints K]]
//!           [--trace-dir DIR] [--import-trace FILE[:NAME]]...
//!           [--trace-info PATH|trace:NAME]...
//!           [--timeline FILE] [--check-timeline FILE]
//!           [--list-schemes] [--list-prefetchers] [--list-components]
//!           [--profile FILE.json]
//!           [--serve HOST:PORT | --connect HOST:PORT [--stats]]
//! ```
//!
//! Simulations run through the harness's content-addressed run engine:
//! the grid of unique (workload × scheme × prefetcher × bandwidth) cells
//! is deduplicated across experiments, sharded over `--jobs` workers, and
//! — with `--cache-dir` — persisted so a repeated invocation performs no
//! simulation at all (see the `# run-engine:` summary line).
//!
//! Every figure of the paper's evaluation is available:
//! `fig1 fig2 fig3 fig4 fig5 fig6 fig10 fig11 fig12 fig13 fig14 fig15
//!  fig16 fig17 table2 table3 table45`, plus the extension studies
//! `ext1` (off-chip predictor head-to-head incl. LP), `ext2` (LLC
//! replacement ablation), `ext3` (threshold sweeps), `ext4`
//! (drop-one-feature), `ext5` (storage-budget sweep), `ext6` (victim
//! cache vs TLP), `ext7` (online-RL coordination head-to-head +
//! learning curve).
//!
//! `--serve HOST:PORT` turns the process into the simulation daemon,
//! serving this invocation's scale/engine/cache/trace flags to every
//! client; `--connect HOST:PORT` runs `--scheme` sweeps against a remote
//! daemon instead of simulating locally — the rendered tables are
//! byte-identical either way.

use tlp_harness::cache::DiskCache;
use tlp_harness::experiments::{
    ext01_offchip, ext02_replacement, ext03_thresholds, ext04_features, ext05_storage,
    ext06_victim, ext07_rl, fig01, fig02, fig03, fig04, fig05, fig06, fig10, fig11, fig12, fig13,
    fig14, fig15, fig16, fig17, tables,
};
use tlp_harness::report::ExperimentResult;
use tlp_harness::{Harness, L1Pf, RunConfig, TimelineRun};
use tlp_plugin::Seam;
use tlp_serve::{scheme_result, Client, ServeError, Server, SweepRequest, TimelineQuery};

/// One experiment: its command-line id and the results it renders.
type Experiment = (&'static str, fn(&Harness) -> Vec<ExperimentResult>);

/// Every experiment, in `--list` order; `all` runs them in this order.
const EXPERIMENTS: [Experiment; 24] = [
    ("fig1", |h| vec![fig01::run(h)]),
    ("fig2", |h| vec![fig02::run(h)]),
    ("fig3", |h| vec![fig03::run(h)]),
    ("fig4", |h| vec![fig04::run(h)]),
    ("fig5", |h| per_l1pf(h, fig05::run)),
    ("fig6", |h| per_l1pf(h, fig06::run)),
    ("fig10", |h| per_l1pf(h, fig10::run)),
    ("fig11", |h| per_l1pf(h, fig11::run)),
    ("fig12", |h| per_l1pf(h, fig12::run)),
    ("fig13", |h| per_l1pf(h, fig13::run)),
    ("fig14", |h| per_l1pf(h, fig14::run)),
    ("fig15", |h| vec![fig15::run(h)]),
    ("fig16", |h| vec![fig16::run(h)]),
    ("fig17", |h| per_l1pf(h, fig17::run)),
    ("table2", |_| vec![tables::table2()]),
    ("table3", |_| vec![tables::table3()]),
    ("ext1", |h| vec![ext01_offchip::run(h)]),
    ("ext2", |h| vec![ext02_replacement::run(h)]),
    ("ext3", |h| {
        vec![
            ext03_thresholds::run_tau_high(h),
            ext03_thresholds::run_tau_low(h),
            ext03_thresholds::run_tau_pref(h),
        ]
    }),
    ("ext4", |h| vec![ext04_features::run(h)]),
    ("ext5", |h| vec![ext05_storage::run(h)]),
    ("ext6", |h| vec![ext06_victim::run(h)]),
    ("ext7", |h| {
        vec![ext07_rl::run(h), ext07_rl::run_learning_curve(h)]
    }),
    ("table45", |h| vec![tables::table45(h.rc.scale)]),
];

/// A figure drawn once per L1D prefetcher: IPCP, then Berti.
fn per_l1pf(h: &Harness, run: fn(&Harness, L1Pf) -> ExperimentResult) -> Vec<ExperimentResult> {
    vec![run(h, L1Pf::Ipcp), run(h, L1Pf::Berti)]
}

/// Every name the command line accepts as an experiment: the ids, then
/// `all`.
fn experiment_names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id).chain(["all"])
}

/// The value after a flag; exits 2 with `missing` when there is none.
fn flag_value<'a, T: From<&'a String>>(it: &mut std::slice::Iter<'a, String>, missing: &str) -> T {
    match it.next() {
        Some(v) => T::from(v),
        None => {
            eprintln!("{missing}");
            std::process::exit(2)
        }
    }
}

/// The value after a flag as a count >= 1; exits 2 with `invalid` when
/// it is missing, does not parse, or is 0.
fn flag_count<T: std::str::FromStr + PartialOrd + From<u8>>(
    it: &mut std::slice::Iter<'_, String>,
    invalid: &str,
) -> T {
    match it.next().and_then(|n| n.parse::<T>().ok()) {
        Some(n) if n >= T::from(1) => n,
        _ => {
            eprintln!("{invalid}");
            std::process::exit(2)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rc = RunConfig::quick();
    let mut requested: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut formats: Vec<&'static str> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_cap_mb: Option<u64> = None;
    let mut no_cache = false;
    let mut engine: Option<tlp_sim::EngineMode> = None;
    let mut schemes: Vec<String> = Vec::new();
    let mut l1pf_name: String = "ipcp".to_owned();
    let mut l1pf_given = false;
    let mut serve_addr: Option<String> = None;
    let mut connect_addr: Option<String> = None;
    let mut profile_path: Option<std::path::PathBuf> = None;
    let mut timeline_path: Option<std::path::PathBuf> = None;
    let mut check_timeline: Option<std::path::PathBuf> = None;
    let mut want_stats = false;
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut import_traces: Vec<String> = Vec::new();
    let mut trace_info_args: Vec<String> = Vec::new();
    let mut workload_names: Vec<String> = Vec::new();
    let mut simpoints_k: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" => schemes.push(flag_value(
                &mut it,
                "--scheme requires a scheme name (--list-schemes shows all)",
            )),
            "--serve" => {
                serve_addr = Some(flag_value(
                    &mut it,
                    "--serve requires HOST:PORT (port 0 picks an ephemeral port)",
                ))
            }
            "--connect" => {
                connect_addr = Some(flag_value(
                    &mut it,
                    "--connect requires HOST:PORT of a running daemon",
                ))
            }
            "--profile" => {
                profile_path = Some(flag_value(
                    &mut it,
                    "--profile requires an output file (e.g. --profile p.json)",
                ))
            }
            "--timeline" => {
                timeline_path = Some(flag_value(
                    &mut it,
                    "--timeline requires an output file (e.g. --timeline t.json)",
                ))
            }
            "--check-timeline" => {
                check_timeline = Some(flag_value(
                    &mut it,
                    "--check-timeline requires a trace file written by --timeline",
                ))
            }
            "--stats" => want_stats = true,
            "--l1pf" => {
                l1pf_name = flag_value(
                    &mut it,
                    "--l1pf requires a prefetcher name (--list-prefetchers shows all)",
                );
                l1pf_given = true;
            }
            "--list-schemes" => {
                let reg = tlp_harness::builtin_registry();
                println!("{:<24} {:<8} {:<14} composition", "name", "kind", "origin");
                for s in reg.schemes() {
                    println!(
                        "{:<24} {:<8} {:<14} {}",
                        s.name, "scheme", s.origin, s.composition
                    );
                }
                return;
            }
            "--list-prefetchers" => {
                let reg = tlp_harness::builtin_registry();
                println!("{:<24} {:<20} origin", "name", "kind");
                for seam in [Seam::L1Prefetcher, Seam::L2Prefetcher] {
                    for c in reg.components_of(seam) {
                        println!("{:<24} {:<20} {}", c.name, c.seam.label(), c.origin);
                    }
                }
                return;
            }
            "--list-components" => {
                let reg = tlp_harness::builtin_registry();
                println!("{:<24} {:<20} origin", "name", "kind");
                for c in reg.components() {
                    println!("{:<24} {:<20} {}", c.name, c.seam.label(), c.origin);
                }
                return;
            }
            "--engine" => match it.next().map(|v| v.parse::<tlp_sim::EngineMode>()) {
                Some(Ok(mode)) => engine = Some(mode),
                Some(Err(e)) => {
                    eprintln!("--engine: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--engine requires a mode: cycle or event");
                    std::process::exit(2);
                }
            },
            "--test" => rc = RunConfig::test(),
            "--quick" => rc = RunConfig::quick(),
            "--full" => rc = RunConfig::full(),
            "--json" => formats.push("json"),
            "--csv" => formats.push("csv"),
            "--chart" => formats.push("chart"),
            "--all" => requested.push("all".into()),
            "--no-cache" => no_cache = true,
            "--jobs" => jobs = Some(flag_count(&mut it, "--jobs requires a worker count >= 1")),
            "--cache-dir" => {
                cache_dir = Some(flag_value(
                    &mut it,
                    "--cache-dir requires a directory argument",
                ))
            }
            "--cache-cap-mb" => {
                cache_cap_mb = Some(flag_count(
                    &mut it,
                    "--cache-cap-mb requires a size in MiB >= 1",
                ))
            }
            "--trace-dir" => {
                trace_dir = Some(flag_value(
                    &mut it,
                    "--trace-dir requires a directory argument",
                ))
            }
            "--import-trace" => import_traces.push(flag_value(
                &mut it,
                "--import-trace requires FILE[:NAME] (a ChampSim trace file)",
            )),
            "--trace-info" => trace_info_args.push(flag_value(
                &mut it,
                "--trace-info requires a trace file path or trace:NAME",
            )),
            "--workload" => workload_names.push(flag_value(
                &mut it,
                "--workload requires a workload name (catalog or trace:NAME)",
            )),
            "--simpoints" => {
                simpoints_k = Some(flag_count(
                    &mut it,
                    "--simpoints requires a region count >= 1",
                ))
            }
            "--out" => out_dir = Some(flag_value(&mut it, "--out requires a directory argument")),
            "--list" => {
                for name in experiment_names() {
                    println!("{name}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "tlp-repro [--test|--quick|--full] [--list] [--all] [--engine cycle|event] [--jobs N] [--cache-dir DIR [--cache-cap-mb MB]] [--no-cache] [--json] [--csv] [--chart] [--out DIR] [--scheme NAME]... [--l1pf NAME] [--workload NAME]... [--simpoints K] [--trace-dir DIR] [--import-trace FILE[:NAME]]... [--trace-info PATH|trace:NAME]... [--timeline FILE] [--check-timeline FILE] [--list-schemes] [--list-prefetchers] [--list-components] [--profile FILE.json] [--serve HOST:PORT | --connect HOST:PORT [--stats]] [experiments...]\n\
                     experiments: {}\n\
                     --list prints the experiment ids, one per line\n\
                     --all runs every experiment (same as the `all` operand)\n\
                     --engine selects the time-advance strategy (default: event, or $TLP_ENGINE); \
                     both modes produce bit-identical tables, event mode skips idle cycles and stalled cores\n\
                     --jobs N sets the run-engine worker count (default: all cores, or $TLP_THREADS)\n\
                     --cache-dir DIR persists simulation results on disk; a re-run is simulation-free\n\
                     --cache-cap-mb MB caps --cache-dir; the oldest entries are evicted LRU\n\
                     --no-cache disables the on-disk tier (the in-process cache always dedups the grid)\n\
                     --json/--csv write <id>.json/<id>.csv per result into --out DIR (default: results/)\n\
                     --chart also prints each result's first column as an ASCII bar chart\n\
                     --scheme NAME sweeps one registered scheme over the active workloads (repeatable)\n\
                     --l1pf NAME picks the L1D prefetcher for --scheme sweeps (default: ipcp)\n\
                     --workload NAME restricts --scheme runs to named workloads (repeatable; \
                     accepts trace:NAME imports)\n\
                     --trace-dir DIR persists captured workload traces (TLPT v2); a warm dir \
                     streams them back with zero captures (see the `# trace-store:` line)\n\
                     --import-trace FILE[:NAME] imports a ChampSim trace into the store as \
                     trace:NAME (default NAME: the file stem; requires --trace-dir)\n\
                     --trace-info PATH|trace:NAME prints a stored trace's format summary and exits\n\
                     --simpoints K runs --scheme cells as SimPoint estimates: replay the top-K \
                     regions, reconstitute the full-run report by cluster weight\n\
                     --list-schemes / --list-prefetchers / --list-components print the composition registry\n\
                     (--list-components covers all five seams: off-chip predictors, prefetchers, filters)\n\
                     --profile FILE.json writes the observability artifact after a local run\n\
                     (run-engine counters, metric registry snapshot, per-cell wall-clock timings)\n\
                     --timeline FILE writes simulated-time telemetry (Chrome trace-event JSON for \
                     Perfetto at FILE, windowed CSV at FILE.csv) for the active workloads under \
                     the first --scheme (default: TLP)\n\
                     --check-timeline FILE validates a trace written by --timeline and exits\n\
                     --serve HOST:PORT runs as a simulation daemon (concurrent clients share the cache)\n\
                     --connect HOST:PORT runs --scheme sweeps (and --timeline) on a remote daemon\n\
                     --stats (with --connect) dumps the daemon's live metrics as Prometheus-style text",
                    experiment_names().collect::<Vec<_>>().join(" ")
                );
                return;
            }
            other => requested.push(other.to_string()),
        }
    }
    if let Some(n) = jobs {
        rc.threads = n;
    }
    if let Some(mode) = engine {
        rc.engine = mode;
    }
    // A standalone validation verb: exits 0 when FILE parses as a Chrome
    // trace under the serial codec (CI's smoke check), 1 otherwise.
    if let Some(path) = &check_timeline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        match tlp_harness::timeline::check_chrome_trace(&text) {
            Ok(n) => {
                println!(
                    "# timeline: {} is a valid Chrome trace ({n} events)",
                    path.display()
                );
                return;
            }
            Err(e) => {
                eprintln!("invalid timeline {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if serve_addr.is_some() && connect_addr.is_some() {
        eprintln!("--serve and --connect are mutually exclusive");
        std::process::exit(2);
    }
    if serve_addr.is_some()
        && (!requested.is_empty() || !schemes.is_empty() || timeline_path.is_some())
    {
        eprintln!("--serve runs as a daemon; drop experiment, --scheme and --timeline operands");
        std::process::exit(2);
    }
    if connect_addr.is_some() {
        if schemes.is_empty() && !want_stats && timeline_path.is_none() {
            eprintln!(
                "--connect requires --scheme NAME, --stats, or --timeline FILE \
                 (work runs on the daemon)"
            );
            std::process::exit(2);
        }
        if !requested.is_empty() {
            eprintln!("--connect runs --scheme sweeps only; experiment ids run locally");
            std::process::exit(2);
        }
    }
    if profile_path.is_some() && (serve_addr.is_some() || connect_addr.is_some()) {
        eprintln!("--profile applies to local runs; in --connect mode use --stats instead");
        std::process::exit(2);
    }
    if want_stats && connect_addr.is_none() {
        eprintln!("--stats queries a live daemon; add --connect HOST:PORT");
        std::process::exit(2);
    }
    if cache_cap_mb.is_some() && cache_dir.is_none() {
        eprintln!("--cache-cap-mb only applies with --cache-dir DIR");
        std::process::exit(2);
    }
    let unknown: Vec<&String> = requested
        .iter()
        .filter(|r| !experiment_names().any(|name| name == r.as_str()))
        .collect();
    if !unknown.is_empty() {
        for u in unknown {
            let hint = tlp_plugin::suggest(u, experiment_names());
            if hint.is_empty() {
                eprintln!("unknown experiment: {u} (--list shows all ids)");
            } else {
                eprintln!(
                    "unknown experiment: {u} (did you mean: {}?)",
                    hint.join(", ")
                );
            }
        }
        std::process::exit(2);
    }
    if connect_addr.is_some()
        && (trace_dir.is_some()
            || !import_traces.is_empty()
            || !trace_info_args.is_empty()
            || simpoints_k.is_some())
    {
        eprintln!(
            "--trace-dir/--import-trace/--trace-info/--simpoints run locally; drop --connect"
        );
        std::process::exit(2);
    }
    if !import_traces.is_empty() && trace_dir.is_none() {
        eprintln!("--import-trace writes into the trace store; add --trace-dir DIR");
        std::process::exit(2);
    }
    if simpoints_k.is_some() && schemes.is_empty() {
        eprintln!("--simpoints applies to --scheme runs; add --scheme NAME");
        std::process::exit(2);
    }
    if !workload_names.is_empty() && schemes.is_empty() {
        eprintln!("--workload restricts --scheme runs; add --scheme NAME");
        std::process::exit(2);
    }
    if requested.iter().any(|r| r == "all")
        || (requested.is_empty()
            && schemes.is_empty()
            && serve_addr.is_none()
            && connect_addr.is_none()
            && timeline_path.is_none()
            && import_traces.is_empty()
            && trace_info_args.is_empty())
    {
        requested = EXPERIMENTS.iter().map(|(id, _)| (*id).to_owned()).collect();
    }
    let out_dir = out_dir.unwrap_or_else(|| "results".into());
    if formats.iter().any(|f| *f != "chart") {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("cannot create {}: {e}", out_dir.display());
            std::process::exit(1);
        }
    }
    let mut h = Harness::new(rc);
    if let (Some(dir), false) = (&cache_dir, no_cache) {
        let disk = match DiskCache::open(dir) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot open cache dir {}: {e}", dir.display());
                std::process::exit(1);
            }
        };
        h = h.with_disk_cache(match cache_cap_mb {
            Some(mb) => disk.with_cap_bytes(mb.saturating_mul(1024 * 1024)),
            None => disk,
        });
    }
    if let Some(dir) = &trace_dir {
        h = match h.with_trace_dir(dir) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("cannot open trace dir {}: {e}", dir.display());
                std::process::exit(1);
            }
        };
    }
    // ChampSim imports land in the trace store before anything simulates,
    // so `--import-trace f.champsim --scheme tlp --workload trace:f` works
    // in one invocation.
    for spec in &import_traces {
        let (file, name) = match spec.rsplit_once(':') {
            Some((f, n)) if !n.is_empty() && !n.contains('/') && !f.is_empty() => {
                (f.to_owned(), n.to_owned())
            }
            _ => {
                let stem = std::path::Path::new(spec)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                (spec.clone(), stem)
            }
        };
        if name.is_empty() {
            eprintln!("--import-trace {spec}: cannot derive a name; use FILE:NAME");
            std::process::exit(2);
        }
        let store = h
            .trace_store()
            .expect("--trace-dir validated above")
            .clone();
        let recs = match tlp_tracestore::read_champsim(std::path::Path::new(&file)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("--import-trace {file}: {e}");
                std::process::exit(1);
            }
        };
        match store.import(&name, &recs) {
            Ok(path) => {
                let ratio = tlp_tracestore::trace_info(&path)
                    .map(|i| i.compression_ratio())
                    .unwrap_or(0.0);
                println!(
                    "# imported {file} -> trace:{name} ({} records, {ratio:.1}x vs v1)",
                    recs.len()
                );
            }
            Err(e) => {
                eprintln!("--import-trace {file}: cannot store: {e}");
                std::process::exit(1);
            }
        }
    }
    // `--trace-info` is a query verb like the --list-* flags: print and
    // exit (after imports, so an import can be inspected in one call).
    if !trace_info_args.is_empty() {
        for arg in &trace_info_args {
            let path = if let Some(short) = arg.strip_prefix("trace:") {
                match h.trace_store() {
                    Some(store) => store.import_path(short),
                    None => {
                        eprintln!("--trace-info {arg}: names need --trace-dir DIR");
                        std::process::exit(2);
                    }
                }
            } else {
                std::path::PathBuf::from(arg)
            };
            match tlp_tracestore::trace_info(&path) {
                Ok(i) => {
                    println!(
                        "{arg}: TLPT v2 '{}' {} records, {} blocks, {} bytes \
                         ({:.1}x vs v1), {} simpoints (interval {}){}",
                        i.name,
                        i.records,
                        i.blocks,
                        i.file_bytes,
                        i.compression_ratio(),
                        i.simpoints.len(),
                        i.bbv_interval,
                        if i.looping { ", looping" } else { "" },
                    );
                }
                Err(e) => {
                    eprintln!("--trace-info {arg}: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    // Validate scheme/prefetcher names before simulating anything: an
    // unknown name exits 2 with a did-you-mean list, exactly like an
    // unknown experiment id. In --connect mode the daemon's registry is
    // authoritative (it may hold schemes this binary doesn't), so
    // validation happens server-side and comes back as an ERROR frame.
    let mut bad_names = false;
    if connect_addr.is_none() {
        for name in &schemes {
            if let Err(e) = h.resolve_scheme_name(name) {
                eprintln!("{e} (--list-schemes shows all)");
                bad_names = true;
            }
        }
        if l1pf_given || !schemes.is_empty() {
            if let Err(e) = h.resolve_l1pf_name(&l1pf_name) {
                eprintln!("{e} (--list-prefetchers shows all)");
                bad_names = true;
            }
        }
    }
    if (l1pf_given && schemes.is_empty()) && serve_addr.is_none() {
        eprintln!("--l1pf only applies to --scheme sweeps; add --scheme NAME");
        bad_names = true;
    }
    if bad_names {
        std::process::exit(2);
    }
    // Daemon mode: hand the whole harness (registry + cache + pool) to
    // the service and serve forever.
    if let Some(addr) = &serve_addr {
        let server = match Server::bind(addr.as_str(), h) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                std::process::exit(1);
            }
        };
        match server.local_addr() {
            Ok(bound) => println!(
                "# tlp-serve: listening on {bound} ({:?} scale, {} engine)",
                rc.scale, rc.engine
            ),
            Err(e) => {
                eprintln!("cannot read bound address: {e}");
                std::process::exit(1);
            }
        }
        if let Err(e) = server.run() {
            eprintln!("tlp-serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let emit_results = |tag: &str, results: Vec<ExperimentResult>, t0: std::time::Instant| {
        for r in results {
            println!("{}", r.render());
            for fmt in &formats {
                match *fmt {
                    "chart" => {
                        if let Some((col, _)) = r.rows.first().and_then(|row| row.values.first()) {
                            let chart = r.render_chart(&col.clone(), 50);
                            if !chart.is_empty() {
                                println!("{chart}");
                            }
                        }
                    }
                    other => {
                        let (content, ext) = match other {
                            "json" => (r.to_json(), "json"),
                            _ => (r.to_csv(), "csv"),
                        };
                        let path = out_dir.join(format!("{}.{ext}", r.id));
                        if let Err(e) = std::fs::write(&path, content) {
                            eprintln!("cannot write {}: {e}", path.display());
                        }
                    }
                }
            }
        }
        eprintln!("# {tag} took {:.1}s", t0.elapsed().as_secs_f64());
    };
    // Remote mode: every sweep runs on the daemon; this process only
    // renders. `scheme_result` is the same renderer the local path uses,
    // so the tables are byte-identical to an in-process run.
    if let Some(addr) = &connect_addr {
        let mut client = match Client::connect(addr.as_str()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        };
        let mut last_summary = None;
        for name in &schemes {
            let t0 = std::time::Instant::now();
            let req = SweepRequest {
                scheme: name.clone(),
                l1pf: l1pf_name.clone(),
                workloads: workload_names.clone(),
            };
            let reply = match client.sweep(&req) {
                Ok(r) => r,
                Err(ServeError::Server(msg)) => {
                    eprintln!("--scheme {name}: {msg}");
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("--scheme {name}: {e}");
                    std::process::exit(1);
                }
            };
            let table = scheme_result(name, &l1pf_name, &reply.rows());
            emit_results(&format!("scheme {name}"), vec![table], t0);
            last_summary = Some(reply.summary);
        }
        // The daemon's counters (service-wide: they include every
        // client's requests), in the exact format of the local line.
        if let Some(s) = last_summary {
            println!(
                "# run-engine: engine={} {}",
                s.engine,
                s.stats.summary_line()
            );
        }
        // Remote telemetry: the daemon captures (or serves from its
        // blob cache) and this process renders — the same renderer as
        // the local path, so the files are byte-identical either way.
        if let Some(path) = &timeline_path {
            let query = TimelineQuery {
                scheme: schemes.first().cloned().unwrap_or_else(|| "TLP".to_owned()),
                l1pf: l1pf_name.clone(),
                workloads: vec![],
                window_cycles: 0,
                journey_every: 0,
            };
            let reply = match client.timeline(&query) {
                Ok(r) => r,
                Err(ServeError::Server(msg)) => {
                    eprintln!("--timeline: {msg}");
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("--timeline: {e}");
                    std::process::exit(1);
                }
            };
            let runs: Vec<TimelineRun> = reply
                .runs
                .iter()
                .map(|run| TimelineRun {
                    workload: run.workload.clone(),
                    scheme: reply.scheme.clone(),
                    l1pf: reply.l1pf.clone(),
                    timeline: std::sync::Arc::new(run.timeline.clone()),
                })
                .collect();
            if let Err(e) = tlp_harness::timeline::write_timeline_files(path, &runs) {
                eprintln!("cannot write timeline {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!(
                "# timeline written to {} (+ {}.csv)",
                path.display(),
                path.display()
            );
        }
        // A live metrics snapshot (Prometheus-style text) from the
        // daemon: request counters, latency quantiles, run-cache and
        // engine counters.
        if want_stats {
            match client.stats() {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("--stats: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    eprintln!(
        "# scale {:?}, warmup {}, instructions {}, {} single-core workloads, {} threads, {} engine",
        rc.scale,
        rc.warmup,
        rc.instructions,
        h.active_workloads().len(),
        rc.threads,
        rc.engine,
    );
    for exp in &requested {
        let t0 = std::time::Instant::now();
        let (_, run) = EXPERIMENTS
            .iter()
            .find(|(id, _)| id == exp)
            .expect("experiment names validated up front");
        let results = run(&h);
        emit_results(exp, results, t0);
    }
    for name in &schemes {
        let t0 = std::time::Instant::now();
        let spec = h.registry().scheme(name).expect("validated above").clone();
        // --workload restricts the sweep to named workloads (trace:
        // imports included) under the same rule the daemon applies.
        let cells = match h.cells(&spec, &l1pf_name, &workload_names) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("--scheme {name}: {e}");
                std::process::exit(1);
            }
        };
        // --simpoints K: each cell becomes a SimPoint estimate (replay
        // the top-K regions, blend by cluster weight).
        let rows: Vec<_> = match simpoints_k {
            Some(k) => cells
                .iter()
                .map(|cell| {
                    let run = h.simpoints(cell, k);
                    eprintln!(
                        "# simpoints: {} replayed {} regions of {} instructions",
                        run.workload,
                        run.regions.len(),
                        run.interval
                    );
                    (run.workload, run.estimate)
                })
                .collect(),
            None => cells
                .iter()
                .zip(h.run(&cells))
                .map(|(cell, r)| (cell.workloads()[0].name().to_owned(), (*r).clone()))
                .collect(),
        };
        let table = scheme_result(name, &l1pf_name, &rows);
        emit_results(&format!("scheme {name}"), vec![table], t0);
    }
    // The run-engine summary (CI's cache-behavior job asserts on it: a
    // warm-cache run must report simulated=0 and hit_rate=100.0%). The
    // engine mode leads so cycle-vs-event table diffs can exclude this
    // line with a single `grep -v run-engine`.
    println!(
        "# run-engine: engine={} {}",
        rc.engine,
        h.engine_stats().summary_line()
    );
    // The trace-store summary (CI's trace-store job asserts on it: a
    // warm --trace-dir run must report captures=0).
    if trace_dir.is_some() {
        println!("# trace-store: {}", h.trace_stats().summary_line());
    }
    // Local telemetry capture: instrumented re-simulations through the
    // timeline blob cache (never through the run engine, so the summary
    // line above and the profile counters below are unaffected).
    let mut timeline_runs: Option<Vec<TimelineRun>> = None;
    if let Some(path) = &timeline_path {
        let scheme_name = schemes.first().cloned().unwrap_or_else(|| "TLP".to_owned());
        let spec = match h.registry().scheme(&scheme_name) {
            Ok(s) => s.clone(),
            Err(e) => {
                eprintln!("--timeline: {e} (--list-schemes shows all)");
                std::process::exit(2);
            }
        };
        let cells = match h.cells(&spec, &l1pf_name, &[]) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("--timeline: {e}");
                std::process::exit(1);
            }
        };
        let runs = h.timelines(&cells, tlp_harness::TimelineConfig::default());
        if let Err(e) = tlp_harness::timeline::write_timeline_files(path, &runs) {
            eprintln!("cannot write timeline {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "# timeline written to {} (+ {}.csv)",
            path.display(),
            path.display()
        );
        timeline_runs = Some(runs);
    }
    // The profile artifact snapshots the same registry the summary line
    // was just rendered from (no simulation runs in between, so the
    // counters in both are equal). When telemetry was captured, its
    // summary is embedded (artifact schema 2).
    if let Some(path) = &profile_path {
        let summary = timeline_runs
            .as_deref()
            .map(tlp_harness::timeline::summary_value);
        let artifact =
            tlp_harness::profile::profile_value_with(&h, &rc.engine.to_string(), summary);
        if let Err(e) = std::fs::write(path, artifact.render()) {
            eprintln!("cannot write profile {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("# profile written to {}", path.display());
    }
}
