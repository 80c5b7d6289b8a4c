//! End-to-end observability tests: the `--profile` artifact is written
//! through the same [`Harness`] path the CLI uses, parses with the
//! workspace's own JSON codec, and its counters are field-for-field the
//! numbers on the `# run-engine:` summary line (both render from the
//! same metrics registry). Every simulation also adds its engine
//! counters (`sim_*`) to that registry.

use tlp_harness::mix::generate_mixes;
use tlp_harness::{EngineMode, Harness, L1Pf, Machine, RunCell, RunConfig, Scheme};
use tlp_plugin::SchemeSpec;
use tlp_sim::serial::parse_value;

/// The engine counters, in the order `[ticks executed, core stages
/// executed, cycles advanced, cycles skipped]`.
const ENGINE_COUNTERS: [&str; 4] = [
    "sim_ticks_executed_total",
    "sim_core_ticks_total",
    "sim_cycles_advanced_total",
    "sim_cycles_skipped_total",
];

/// The trace-tier counters, in the order of `TraceTierStats`.
const TRACE_TIER_COUNTERS: [&str; 4] = [
    "trace_tier_mem_hits_total",
    "trace_tier_disk_hits_total",
    "trace_tier_captures_total",
    "trace_tier_evictions_total",
];

fn engine_counters(h: &Harness) -> [u64; 4] {
    let snap = h.metrics().snapshot();
    ENGINE_COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

/// A test-scale harness on `engine`, with a short window: these tests
/// count ticks, they do not need the full budget.
fn short_harness(engine: EngineMode) -> Harness {
    let mut rc = RunConfig::test();
    rc.warmup = 1_000;
    rc.instructions = 4_000;
    rc.engine = engine;
    Harness::new(rc)
}

/// Baseline + IPCP on `workloads` (one for a single-core cell, four for
/// a mix).
fn baseline_cell(
    h: &Harness,
    workloads: &[std::sync::Arc<dyn tlp_trace::emit::Workload>],
) -> RunCell {
    h.cell(
        workloads,
        Scheme::Baseline.resolve(),
        L1Pf::Ipcp.resolve(),
        Machine::CascadeLake(None),
    )
}

/// A scrape must tell zero from not exported: every counter the harness
/// adds exists at 0 before anything moves it, on a fresh harness and on
/// one that swapped in a disk-backed cache (and with it a new registry).
#[test]
fn harness_counters_exist_at_zero_from_the_start() {
    let dir = std::env::temp_dir().join(format!("tlp-obs-zero-{}", std::process::id()));
    let fresh = Harness::new(RunConfig::test());
    let on_disk = Harness::new(RunConfig::test())
        .with_cache_dir(&dir)
        .expect("cache dir");
    for h in [&fresh, &on_disk] {
        let snap = h.metrics().snapshot();
        for name in TRACE_TIER_COUNTERS.iter().chain(&ENGINE_COUNTERS) {
            assert_eq!(snap.counter(name), Some(0), "{name} is registered at 0");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulations_add_engine_counters_and_cache_hits_add_none() {
    let h = short_harness(EngineMode::Event);
    let cells: Vec<RunCell> = h.active_workloads()[..2]
        .iter()
        .map(|w| baseline_cell(&h, std::slice::from_ref(w)))
        .collect();
    let _ = h.run(&cells);
    let cold = engine_counters(&h);
    let [ticks, core_ticks, advanced, skipped] = cold;
    for (name, value) in ENGINE_COUNTERS.iter().zip(cold) {
        assert!(value > 0, "{name} counts the cold batch: {cold:?}");
    }
    assert_eq!(
        advanced,
        ticks + skipped,
        "every cycle is executed or skipped"
    );
    assert!(core_ticks <= ticks, "one core per cell: {cold:?}");

    let _ = h.run(&cells);
    assert_eq!(h.engine_stats().mem_hits, 2, "the rerun is warm");
    assert_eq!(engine_counters(&h), cold, "cache hits simulate nothing");
}

#[test]
fn the_cycle_engine_skips_nothing_and_runs_every_core_stage() {
    let h = short_harness(EngineMode::Cycle);
    let mix = &generate_mixes(&h.active_workloads(), 1)[0];
    let _ = h.run(&[baseline_cell(&h, &mix.workloads)]);
    let [ticks, core_ticks, advanced, skipped] = engine_counters(&h);
    assert!(ticks > 0);
    assert_eq!(skipped, 0);
    assert_eq!(advanced, ticks);
    assert_eq!(core_ticks, mix.workloads.len() as u64 * ticks);
}

/// Runs a small grid twice over one harness — the repeat turns every
/// cell into a memory hit — then checks the written artifact against
/// the summary line's counters.
#[test]
fn profile_artifact_matches_the_summary_line() {
    let h = Harness::new(RunConfig::test());
    let spec: SchemeSpec = h.registry().scheme("Baseline").expect("scheme").clone();
    let names: Vec<String> = h.active_workloads()[..2]
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    let cells = h.cells(&spec, "ipcp", &names).expect("cells");
    let _ = h.run(&cells); // cold: both cells simulate
    let _ = h.run(&cells); // warm: both cells hit in memory

    let dir = std::env::temp_dir().join(format!("tlp-obs-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("profile.json");
    tlp_harness::profile::write_profile(&h, "cycle", &path).expect("profile written");

    let text = std::fs::read_to_string(&path).expect("artifact readable");
    let _ = std::fs::remove_dir_all(&dir);
    let parsed = parse_value(&text).expect("artifact parses with tlp_sim::serial");

    // The artifact declares its shape: schema 2 (top-level `schema`
    // field + optional timeline summary), and round-trips through the
    // codec byte-for-byte.
    assert_eq!(
        parsed.u64_field("schema").unwrap(),
        tlp_harness::profile::PROFILE_SCHEMA
    );
    assert_eq!(
        parsed.render(),
        text,
        "artifact render round-trips losslessly"
    );
    // No timeline was captured on this harness: the summary is absent.
    assert!(parsed.field("timeline").is_err());

    // When a timeline summary is supplied, it embeds under the same
    // schema and still round-trips.
    let with_timeline = tlp_harness::profile::profile_value_with(
        &h,
        "cycle",
        Some(tlp_harness::timeline::summary_value(&[])),
    );
    let reparsed = parse_value(&with_timeline.render()).expect("parses");
    assert_eq!(reparsed.u64_field("schema").unwrap(), 2);
    let tl = reparsed.field("timeline").expect("summary embedded");
    assert_eq!(tl.u64_field("total_windows").unwrap(), 0);

    // The run_engine section equals the summary-line counters exactly.
    let stats = h.engine_stats();
    let line = stats.summary_line();
    let re = parsed.field("run_engine").expect("run_engine section");
    for (field, value) in [
        ("requested", stats.requested),
        ("deduped", stats.deduped),
        ("mem_hits", stats.mem_hits),
        ("disk_hits", stats.disk_hits),
        ("coalesced", stats.coalesced),
        ("corrupt", stats.corrupt),
        ("evicted", stats.evicted),
        ("simulated", stats.simulated),
    ] {
        assert_eq!(
            re.u64_field(field).unwrap(),
            value,
            "artifact field {field} equals the registry snapshot"
        );
    }
    // ... and the line itself advertises the same numbers the artifact
    // carries (the acceptance criterion: artifact ⟷ `# run-engine:`).
    assert!(
        line.contains(&format!("simulated={}", stats.simulated)),
        "line: {line}"
    );
    assert!(
        line.contains(&format!("mem_hits={}", stats.mem_hits)),
        "line: {line}"
    );
    assert_eq!(stats.requested, 4, "two grids of two cells each");
    assert_eq!(stats.simulated, 2, "cold grid simulated once per cell");
    assert_eq!(stats.mem_hits, 2, "warm grid answered from memory");

    // The metrics section carries the run-cache counters and the phase
    // histograms the `--profile` flag exists to expose.
    let metrics = parsed.arr_field("metrics").expect("metrics section");
    let find = |name: &str| {
        metrics
            .iter()
            .find(|m| m.str_field("name").as_deref() == Ok(name))
            .unwrap_or_else(|| panic!("metric {name} present"))
    };
    assert_eq!(
        find("run_cache_simulated_total")
            .u64_field("value")
            .unwrap(),
        stats.simulated
    );
    assert_eq!(
        find("run_cache_mem_hits_total").u64_field("value").unwrap(),
        stats.mem_hits
    );
    let lookup = find("run_cache_lookup_ns");
    assert_eq!(lookup.str_field("kind").unwrap(), "histogram");
    // At least one timed lookup per request (the requester that fills a
    // slot also times its disk probe, so the count can exceed it).
    assert!(lookup.u64_field("count").unwrap() >= stats.requested);
    let simulate = find("run_cache_simulate_ns");
    assert_eq!(simulate.u64_field("count").unwrap(), stats.simulated);
    assert!(simulate.u64_field("p99").unwrap() >= simulate.u64_field("p50").unwrap());
    // ... and the engine counters of the two simulations.
    for (name, value) in ENGINE_COUNTERS.iter().zip(engine_counters(&h)) {
        let metric = find(name);
        assert_eq!(metric.str_field("kind").unwrap(), "counter");
        assert_eq!(metric.u64_field("value").unwrap(), value);
    }
    assert!(find("sim_ticks_executed_total").u64_field("value").unwrap() > 0);

    // The per-cell timing log: 4 entries, 2 simulated then 2 mem hits.
    let cells_log = parsed.arr_field("cells").expect("cells section");
    assert_eq!(cells_log.len(), 4);
    let outcomes: Vec<String> = cells_log
        .iter()
        .map(|c| c.str_field("outcome").unwrap())
        .collect();
    assert_eq!(
        outcomes.iter().filter(|o| *o == "simulated").count(),
        2,
        "outcomes: {outcomes:?}"
    );
    assert_eq!(
        outcomes.iter().filter(|o| *o == "mem_hit").count(),
        2,
        "outcomes: {outcomes:?}"
    );
}
