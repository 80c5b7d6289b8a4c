//! `tlp-serve`: the standalone simulation daemon.
//!
//! Usage:
//! ```text
//! tlp-serve [--addr HOST:PORT] [--test|--quick|--full]
//!           [--engine cycle|event] [--jobs N]
//!           [--cache-dir DIR [--cache-cap-mb MB]]
//! ```
//!
//! Binds one shared [`tlp_harness::Session`] behind the `tlp-serve`
//! protocol and serves forever. Clients connect with
//! `tlp_repro --connect HOST:PORT --scheme NAME` (or
//! [`tlp_serve::Client`] programmatically); concurrent clients share the
//! cache and its single-flight map, so identical cells are simulated
//! once service-wide.

use tlp_harness::cache::DiskCache;
use tlp_harness::{RunConfig, Session};
use tlp_serve::Server;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7457".to_owned();
    let mut rc = RunConfig::quick();
    let mut jobs: Option<usize> = None;
    let mut engine: Option<tlp_sim::EngineMode> = None;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_cap_mb: Option<u64> = None;
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => {
                    eprintln!("--addr requires HOST:PORT");
                    std::process::exit(2);
                }
            },
            "--test" => rc = RunConfig::test(),
            "--quick" => rc = RunConfig::quick(),
            "--full" => rc = RunConfig::full(),
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
            "--jobs" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs requires a worker count >= 1");
                    std::process::exit(2);
                }
            },
            "--cache-dir" => match it.next() {
                Some(dir) => cache_dir = Some(dir.into()),
                None => {
                    eprintln!("--cache-dir requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--cache-cap-mb" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(mb) if mb >= 1 => cache_cap_mb = Some(mb),
                _ => {
                    eprintln!("--cache-cap-mb requires a size in MiB >= 1");
                    std::process::exit(2);
                }
            },
            "--trace-dir" => match it.next() {
                Some(dir) => trace_dir = Some(dir.into()),
                None => {
                    eprintln!("--trace-dir requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "tlp-serve [--addr HOST:PORT] [--test|--quick|--full] [--engine cycle|event] [--jobs N] [--cache-dir DIR [--cache-cap-mb MB]] [--trace-dir DIR]\n\
                     --addr HOST:PORT binds the service (default: 127.0.0.1:7457; port 0 = ephemeral)\n\
                     --engine selects the time-advance strategy (default: event, or $TLP_ENGINE)\n\
                     --jobs N sets the per-request worker count (default: all cores)\n\
                     --cache-dir DIR adds the shared on-disk tier (safe for concurrent daemons)\n\
                     --cache-cap-mb MB caps the disk tier; oldest entries are evicted LRU\n\
                     --trace-dir DIR persists captured workload traces (TLPT v2), shared by every \
                     client session; imported trace:NAME workloads resolve against it"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (--help shows usage)");
                std::process::exit(2);
            }
        }
    }
    if let Some(n) = jobs {
        rc.threads = n;
    }
    if let Some(mode) = engine {
        rc.engine = mode;
    }
    if cache_cap_mb.is_some() && cache_dir.is_none() {
        eprintln!("--cache-cap-mb only applies with --cache-dir DIR");
        std::process::exit(2);
    }
    let mut session = Session::new(rc);
    if let Some(dir) = &cache_dir {
        let disk = match DiskCache::open(dir) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot open cache dir {}: {e}", dir.display());
                std::process::exit(1);
            }
        };
        let disk = match cache_cap_mb {
            Some(mb) => disk.with_cap_bytes(mb * 1024 * 1024),
            None => disk,
        };
        session = session.with_disk_cache(disk);
    }
    if let Some(dir) = &trace_dir {
        session = match session.with_trace_dir(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot open trace dir {}: {e}", dir.display());
                std::process::exit(1);
            }
        };
    }
    let server = match Server::bind(&addr, session) {
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
}
