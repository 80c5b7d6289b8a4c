//! Cross-crate property tests: invariants that must hold for arbitrary
//! workload slices and cache geometries.

use proptest::prelude::*;

use tlp::sim::cache::Cache;
use tlp::sim::config::{CacheConfig, SystemConfig};
use tlp::sim::engine::{CoreSetup, System};
use tlp::sim::hooks::OffChipTag;
use tlp::sim::replacement::{ReplCtx, ReplKind};
use tlp::sim::request::Request;
use tlp::sim::types::Level;
use tlp::sim::victim::VictimCache;
use tlp::trace::{Op, Reg, TraceRecord, TraceSource, VecTrace};
use tlp::tracestore::{write_trace_v2, StreamTrace};

fn small_cache(sets: usize, ways: usize, mshrs: usize) -> Cache {
    Cache::new(
        "t",
        Level::L2,
        CacheConfig {
            sets,
            ways,
            latency: 1,
            mshrs,
            prefetch_queue: 8,
        },
    )
}

/// A per-process scratch file for one trace-file property.
fn trace_tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tlp-prop-{tag}-{}.tlpt", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MSHR occupancy never exceeds its configured capacity regardless of
    /// the access pattern.
    #[test]
    fn mshrs_never_exceed_capacity(
        addrs in proptest::collection::vec(0u64..0x40_000, 1..200),
        mshrs in 1usize..8,
    ) {
        let mut c = small_cache(8, 2, mshrs);
        for (i, a) in addrs.iter().enumerate() {
            let r = Request::demand_load(
                i as u64, 0, 0x400, *a, *a, i as u64, OffChipTag::none(), 0,
            );
            c.push_demand(r, i as u64);
            c.tick(i as u64 + 100);
            prop_assert!(c.mshrs_in_use() <= mshrs);
        }
    }

    /// Hits + misses equals the demand accesses presented (after all fills).
    #[test]
    fn demand_accounting_is_conserved(
        addrs in proptest::collection::vec(0u64..0x10_000, 1..150),
    ) {
        let mut c = small_cache(8, 2, 64);
        let mut now = 0u64;
        for (i, a) in addrs.iter().enumerate() {
            let r = Request::demand_load(
                i as u64, 0, 0x400, *a, *a, i as u64, OffChipTag::none(), now,
            );
            c.push_demand(r, now);
            now += 10;
            let out = c.tick(now);
            for f in out.forwards {
                c.fill(f.line(), Level::Dram, now);
            }
        }
        let s = &c.stats;
        prop_assert_eq!(s.demand_hits + s.demand_misses, addrs.len() as u64);
    }

    /// A single-core system retires exactly the requested instruction count
    /// for arbitrary small load-address sequences, and total cycles are
    /// nonzero.
    #[test]
    fn system_retires_exact_budget(
        addrs in proptest::collection::vec(0u64..0x100_000, 20..120),
    ) {
        let recs: Vec<TraceRecord> = addrs
            .iter()
            .map(|&a| TraceRecord::load(0x400, a & !7, 8, tlp::trace::Reg(1), [None, None]))
            .collect();
        let n = recs.len() as u64;
        let mut sys = System::new(
            SystemConfig::test_tiny(1),
            vec![CoreSetup::new(Box::new(VecTrace::looping("p", recs)))],
        );
        let report = sys.run(0, n);
        // 4-wide retirement may overshoot by up to 3.
        let retired = report.cores[0].core.instructions;
        prop_assert!(retired >= n && retired < n + 4);
        prop_assert!(report.total_cycles > 0);
        // DRAM reads are bounded by re-fetches of distinct lines: the tiny
        // test hierarchy can evict and refetch, but never unboundedly
        // within one pass of the trace.
        let distinct_lines: std::collections::HashSet<u64> =
            addrs.iter().map(|a| a / 64).collect();
        prop_assert!(report.dram.reads <= 3 * distinct_lines.len() as u64 + 8);
    }

    /// DRAM bus conservation: the measured window cannot complete more
    /// transactions than the bus could physically transfer.
    #[test]
    fn dram_respects_bandwidth(
        stride in 1u64..20,
        n in 50usize..200,
    ) {
        let recs: Vec<TraceRecord> = (0..n)
            .map(|i| {
                TraceRecord::load(
                    0x400,
                    0x10_0000 + i as u64 * stride * 64,
                    8,
                    tlp::trace::Reg(1),
                    [None, None],
                )
            })
            .collect();
        let cfg = SystemConfig::test_tiny(1);
        let burst = cfg.dram.burst_cycles();
        let mut sys = System::new(
            cfg,
            vec![CoreSetup::new(Box::new(VecTrace::looping("b", recs)))],
        );
        let report = sys.run(0, n as u64);
        // Allow fills still in flight at the cut-off: transactions counted
        // at enqueue, so compare against cycles plus one full drain window.
        let max_txns = (report.total_cycles + 10_000) / burst + 1;
        prop_assert!(
            report.dram.transactions() <= max_txns,
            "{} transactions in {} cycles exceeds bus capacity",
            report.dram.transactions(),
            report.total_cycles
        );
    }

    /// Every replacement policy returns an in-range victim after arbitrary
    /// interleavings of fills and accesses.
    #[test]
    fn replacement_victims_always_in_range(
        ops in proptest::collection::vec((0usize..8, 0usize..4, any::<bool>()), 1..300),
    ) {
        for kind in ReplKind::ALL {
            let mut p = kind.build(8, 4);
            for &(set, way, is_fill) in &ops {
                let ctx = ReplCtx { line: (set * 4 + way) as u64, pc: 0x400 + way as u64 * 4 };
                if is_fill {
                    p.on_fill_ctx(set, way, &ctx);
                } else {
                    p.on_access_ctx(set, way, &ctx);
                }
                let v = p.victim(set, 4);
                prop_assert!(v < 4, "{}: victim {v} out of range", kind.name());
            }
        }
    }

    /// The victim cache never exceeds its capacity, and a line just
    /// inserted is recoverable until `capacity` further distinct inserts.
    #[test]
    fn victim_cache_capacity_and_recency(
        lines in proptest::collection::vec(0u64..64, 1..200),
        capacity in 1usize..16,
    ) {
        let mut vc = VictimCache::new(capacity);
        for &l in &lines {
            vc.insert(l);
            prop_assert!(vc.len() <= capacity);
        }
        // The most recently inserted line is always present.
        let last = *lines.last().expect("nonempty");
        prop_assert!(vc.probe_remove(last));
    }

    /// Trace files round-trip arbitrary record sequences bit-exactly.
    #[test]
    fn trace_file_roundtrip(
        seeds in proptest::collection::vec((0u8..5, any::<u64>(), any::<u64>(), 0u8..64), 1..100),
        looping in any::<bool>(),
    ) {
        let records: Vec<TraceRecord> = seeds
            .iter()
            .map(|&(op, pc, addr, reg)| match op {
                0 => TraceRecord::load(pc, addr, 8, Reg(reg), [Some(Reg((reg + 1) % 64)), None]),
                1 => TraceRecord::store(pc, addr, 4, Some(Reg(reg)), None),
                2 => TraceRecord::alu(pc, Some(Reg(reg)), [None, None]),
                3 => TraceRecord::fp(pc, Some(Reg(reg)), [Some(Reg(reg)), None]),
                _ => TraceRecord::branch(pc, addr % 2 == 0, addr, Some(Reg(reg))),
            })
            .collect();
        let path = trace_tmp("roundtrip");
        write_trace_v2(&path, "prop", looping, &records, &[], 0).expect("write");
        let mut t = StreamTrace::open(&path).expect("roundtrip");
        prop_assert_eq!(t.read_records(), records);
        prop_assert_eq!(t.looping(), looping);
        prop_assert_eq!(t.name(), "prop");
        std::fs::remove_file(&path).ok();
    }

    /// Opening arbitrary bytes as a trace never panics — it returns an
    /// error or, for coincidentally valid input, a readable trace. The
    /// bytes are tried raw and framed by a v2 header and a footer trailer,
    /// so the footer and block-index checks see hostile input too.
    #[test]
    fn trace_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        footer_len in 0u64..400,
    ) {
        let path = trace_tmp("decode");
        let mut framed = b"TLP2\x02\x00\x00\x00\x00\x00".to_vec();
        framed.extend_from_slice(&bytes);
        framed.extend_from_slice(&footer_len.to_le_bytes());
        framed.extend_from_slice(b"TLPF");
        for candidate in [&bytes, &framed] {
            std::fs::write(&path, candidate).expect("write");
            if let Ok(mut t) = StreamTrace::open(&path) {
                let _ = t.read_records();
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The SHiP signature counter stays within its 2-bit bounds under
    /// arbitrary training.
    #[test]
    fn ship_counters_stay_bounded(
        ops in proptest::collection::vec((0usize..4, 0usize..2, any::<u64>(), any::<bool>()), 1..200),
    ) {
        let mut p = tlp::sim::replacement::ShipLite::new(4, 2);
        for &(set, way, pc, is_fill) in &ops {
            use tlp::sim::replacement::ReplacementPolicy;
            let ctx = ReplCtx { line: 0, pc };
            if is_fill {
                p.on_fill_ctx(set, way, &ctx);
            } else {
                p.on_access_ctx(set, way, &ctx);
            }
            prop_assert!(p.counter_for(pc) <= 3);
        }
    }

    /// A record's memory classification is consistent with its op.
    #[test]
    fn record_op_classification(pc in any::<u64>(), addr in any::<u64>()) {
        let l = TraceRecord::load(pc, addr, 8, Reg(1), [None, None]);
        prop_assert!(l.op.is_mem() && l.op.is_load() && !l.op.is_store());
        let s = TraceRecord::store(pc, addr, 8, None, None);
        prop_assert!(s.op.is_mem() && s.op.is_store());
        let a = TraceRecord::alu(pc, None, [None, None]);
        prop_assert!(!a.op.is_mem() && !a.op.is_branch());
        prop_assert_eq!(l.op, Op::Load);
    }
}

// ---------------------------------------------------------------------------
// Run-engine properties: content addressing and the on-disk cache codec.
// ---------------------------------------------------------------------------

use tlp::harness::cache::{bandwidth_desc, mix_desc, single_desc, RunKey};
use tlp::sim::serial::{report_from_json, report_to_json};
use tlp::sim::stats::{CoreReport, SimReport};

/// The axes a realistic grid cell can vary over, as canonical fragments.
const SCHEME_KEYS: [&str; 8] = [
    "Baseline",
    "PPF",
    "Hermes",
    "Hermes+PPF",
    "TLP",
    "LP",
    "AthenaRl",
    "variant:FLP",
];
const L1PFS: [&str; 5] = ["none", "ipcp", "berti", "ipcp+7KB", "next-line"];
const BANDWIDTHS: [Option<f64>; 6] = [
    None,
    Some(1.6),
    Some(3.2),
    Some(6.4),
    Some(12.8),
    Some(25.6),
];
const ENVS: [&str; 3] = [
    "Tiny|w5000|i25000",
    "Quick|w20000|i100000",
    "Full|w200000|i1000000",
];
const WORKLOADS: [&str; 4] = ["spec.mcf_06", "spec.lbm_17", "bfs.kron", "sssp.urand"];

fn desc_for(cell: (usize, usize, usize, usize, usize)) -> String {
    let (e, w, s, p, b) = cell;
    single_desc(
        ENVS[e % ENVS.len()],
        WORKLOADS[w % WORKLOADS.len()],
        SCHEME_KEYS[s % SCHEME_KEYS.len()],
        L1PFS[p % L1PFS.len()],
        &bandwidth_desc(BANDWIDTHS[b % BANDWIDTHS.len()]),
    )
}

/// Fills a report with pseudo-random counter values drawn from `vals`.
fn synth_report(ncores: usize, vals: &[u64]) -> SimReport {
    let mut it = vals.iter().copied().cycle();
    let mut next = move || it.next().expect("cycled iterator is infinite");
    let mut r = SimReport {
        total_cycles: next(),
        ..SimReport::default()
    };
    let fill_cache = |next: &mut dyn FnMut() -> u64| tlp::sim::stats::CacheStats {
        demand_hits: next(),
        demand_misses: next(),
        prefetch_hits: next(),
        prefetch_misses: next(),
        prefetch_fills: next(),
        prefetch_useful: next(),
        prefetch_useless: next(),
        writebacks: next(),
        mshr_stalls: next(),
    };
    let fill_prefetch = |next: &mut dyn FnMut() -> u64| tlp::sim::stats::PrefetchStats {
        candidates: next(),
        filtered: next(),
        dropped: next(),
        issued: next(),
        filled_by_level: [next(), next(), next(), next()],
        useful_by_level: [next(), next(), next(), next()],
        useless_by_level: [next(), next(), next(), next()],
    };
    r.llc = fill_cache(&mut next);
    r.dram = tlp::sim::stats::DramStats {
        reads: next(),
        spec_reads: next(),
        writes: next(),
        row_hits: next(),
        row_conflicts: next(),
        read_queue_full: next(),
        spec_dropped: next(),
        spec_consumed: next(),
        spec_wasted: next(),
    };
    r.victim.hits = next();
    r.victim.misses = next();
    r.victim.insertions = next();
    for i in 0..ncores {
        let mut c = CoreReport {
            workload: format!("workload-{i} \"with\" esc\\apes\n{}", next()),
            ..CoreReport::default()
        };
        c.core = tlp::sim::stats::CoreStats {
            instructions: next(),
            cycles: next(),
            loads: next(),
            stores: next(),
            branches: next(),
            mispredicts: next(),
            dtlb_misses: next(),
            stlb_misses: next(),
            store_forwards: next(),
        };
        c.l1d = fill_cache(&mut next);
        c.l2 = fill_cache(&mut next);
        c.offchip = tlp::sim::stats::OffChipStats {
            issued_now: next(),
            tagged_delayed: next(),
            delayed_issued: next(),
            predicted_onchip: next(),
            issued_outcome: [next(), next(), next(), next()],
            missed_offchip: next(),
            correct_onchip: next(),
        };
        c.l1_prefetch = fill_prefetch(&mut next);
        c.l2_prefetch = fill_prefetch(&mut next);
        r.cores.push(c);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Distinct (env, workload, scheme, l1pf, bandwidth) tuples hash to
    /// distinct RunKeys — the content-addressing soundness property.
    #[test]
    fn distinct_cells_hash_to_distinct_keys(
        a in (0usize..3, 0usize..4, 0usize..8, 0usize..5, 0usize..6),
        b in (0usize..3, 0usize..4, 0usize..8, 0usize..5, 0usize..6),
    ) {
        let (da, db) = (desc_for(a), desc_for(b));
        if a == b {
            prop_assert_eq!(RunKey::from_desc(&da), RunKey::from_desc(&db));
        } else {
            prop_assert!(
                RunKey::from_desc(&da) != RunKey::from_desc(&db),
                "collision between '{}' and '{}'", da, db
            );
        }
    }

    /// Every cell key of the full realistic grid is unique (exhaustive
    /// pairwise check over 2880 cells, once per run).
    #[test]
    fn full_grid_has_no_key_collisions(_nonce in 0u8..1) {
        let mut keys = std::collections::HashSet::new();
        let mut cells = 0usize;
        for e in 0..ENVS.len() {
            for w in 0..WORKLOADS.len() {
                for s in 0..SCHEME_KEYS.len() {
                    for p in 0..L1PFS.len() {
                        for b in 0..BANDWIDTHS.len() {
                            keys.insert(RunKey::from_desc(&desc_for((e, w, s, p, b))));
                            cells += 1;
                        }
                    }
                }
            }
        }
        prop_assert_eq!(keys.len(), cells);
    }

    /// Mix descriptions are order-sensitive (a mix is not a set: core 0's
    /// workload matters) and never collide with single-core cells.
    #[test]
    fn mix_descs_are_position_sensitive(i in 0usize..4, j in 0usize..4) {
        let env = ENVS[0];
        let bw = bandwidth_desc(None);
        let m1 = mix_desc(env, [WORKLOADS[i], WORKLOADS[j], WORKLOADS[0], WORKLOADS[1]], "TLP", "ipcp", &bw);
        let m2 = mix_desc(env, [WORKLOADS[j], WORKLOADS[i], WORKLOADS[0], WORKLOADS[1]], "TLP", "ipcp", &bw);
        if i == j {
            prop_assert_eq!(&m1, &m2);
        } else {
            prop_assert!(m1 != m2);
        }
        let s = single_desc(env, WORKLOADS[i], "TLP", "ipcp", &bw);
        prop_assert!(RunKey::from_desc(&m1) != RunKey::from_desc(&s));
    }

    /// A SimReport with arbitrary u64 counters round-trips losslessly
    /// through the on-disk cache format.
    #[test]
    fn report_roundtrips_losslessly_through_cache_format(
        ncores in 1usize..5,
        vals in proptest::collection::vec(any::<u64>(), 8..64),
    ) {
        let report = synth_report(ncores, &vals);
        let json = report_to_json(&report);
        let back = report_from_json(&json).expect("cache format decodes");
        prop_assert_eq!(report, back);
    }
}

// ---------------------------------------------------------------------------
// The JSON codec: typed round-trips, and decoders fed hostile bytes.
// ---------------------------------------------------------------------------

use tlp::harness::EngineStats;
use tlp::serve::protocol::{
    read_frame, CellFrame, ErrorFrame, Frame, StatsFrame, SummaryFrame, SweepRequest,
    TimelineQuery, TimelineReply, WorkloadTimeline,
};
use tlp::sim::serial::{parse_value, timeline_from_json, timeline_to_json, Codec, Value};
use tlp::timeline::{Counters, JourneyRecord, Timeline, WindowSample};

/// Fills a timeline with `nwin` windows and `njour` journeys of counter
/// values drawn from `vals`.
fn synth_timeline(nwin: usize, njour: usize, vals: &[u64]) -> Timeline {
    let mut it = vals.iter().copied().cycle();
    let mut next = move || it.next().expect("cycled iterator is infinite");
    let mut t = Timeline {
        window_cycles: next(),
        journey_every: next(),
        start_cycle: next(),
        end_cycle: next(),
        windows_dropped: next(),
        journeys_dropped: next(),
        ..Timeline::default()
    };
    for _ in 0..nwin {
        t.windows.push(WindowSample {
            start_cycle: next(),
            end_cycle: next(),
            counters: Counters {
                instructions: next(),
                l1d_misses: next(),
                l2_misses: next(),
                llc_misses: next(),
                pf_issued: next(),
                pf_useful: next(),
                pf_useless: next(),
                pf_filtered: next(),
                offchip_issued: next(),
                offchip_accurate: next(),
                offchip_missed: next(),
                offchip_predicted_onchip: next(),
                offchip_correct_onchip: next(),
                dram_reads: next(),
                dram_writes: next(),
                dram_row_hits: next(),
                dram_row_conflicts: next(),
            },
            rob_occupancy: next(),
            mshr_occupancy: next(),
        });
    }
    for _ in 0..njour {
        t.journeys.push(JourneyRecord {
            core: next(),
            ordinal: next(),
            pc: next(),
            vaddr: next(),
            dispatch: next(),
            l1_at: next(),
            l2_at: next(),
            dram_queue_at: next(),
            bank_at: next(),
            fill_at: next(),
            offchip_decision: next(),
            offchip_valid: next(),
            filter_seen: next(),
            served_level: next(),
        });
    }
    t
}

/// A string of characters that stress the encoder: escapes, a control
/// character, and one- to four-byte UTF-8.
fn synth_string(vals: &[u64]) -> String {
    const CHARS: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', '\u{1}', 'é', '→', '😀'];
    vals.iter()
        .map(|v| CHARS[*v as usize % CHARS.len()])
        .collect()
}

/// A random tree of every shape the codec knows, `depth` levels deep at
/// most; `vals` picks each node and runs out into numbers.
fn synth_value(vals: &mut impl Iterator<Item = u64>, depth: usize) -> Value {
    let v = vals.next().unwrap_or(0);
    match (v % 4, depth) {
        (0, _) | (_, 0) => Value::Num(v),
        (1, _) => Value::Str(synth_string(&[v, v >> 8, v >> 16])),
        (2, _) => Value::Arr((0..v % 4).map(|_| synth_value(vals, depth - 1)).collect()),
        _ => Value::Obj(
            (0..v % 4)
                .map(|i| (synth_string(&[v >> i]), synth_value(vals, depth - 1)))
                .collect(),
        ),
    }
}

/// One report, one timeline and one payload of each of the seven frame
/// kinds, built from `vals`.
struct Encoded {
    report: SimReport,
    timeline: Timeline,
    request: SweepRequest,
    cell: CellFrame,
    summary: SummaryFrame,
    stats: StatsFrame,
    query: TimelineQuery,
    reply: TimelineReply,
    error: ErrorFrame,
}

impl Encoded {
    fn synth(ncores: usize, nwin: usize, vals: &[u64]) -> Self {
        let report = synth_report(ncores, vals);
        let timeline = synth_timeline(nwin, nwin / 2, vals);
        let s = |from: usize| synth_string(&vals[from % vals.len()..]);
        let n = |i: usize| vals[i % vals.len()];
        Self {
            request: SweepRequest {
                scheme: s(1),
                l1pf: s(2),
                workloads: (0..nwin).map(s).collect(),
            },
            cell: CellFrame {
                index: n(3),
                workload: s(4),
                label: s(5),
                report: report.clone(),
            },
            summary: SummaryFrame {
                engine: s(6),
                cells: n(7),
                stats: EngineStats {
                    requested: n(8),
                    mem_hits: n(9),
                    disk_hits: n(10),
                    coalesced: n(11),
                    corrupt: n(12),
                    evicted: n(13),
                    simulated: n(14),
                    deduped: n(15),
                },
            },
            stats: StatsFrame { text: s(16) },
            query: TimelineQuery {
                scheme: s(17),
                l1pf: s(18),
                workloads: (0..ncores).map(s).collect(),
                window_cycles: n(19),
                journey_every: n(20),
            },
            reply: TimelineReply {
                scheme: s(21),
                l1pf: s(22),
                runs: (0..ncores)
                    .map(|i| WorkloadTimeline {
                        workload: s(i),
                        timeline: timeline.clone(),
                    })
                    .collect(),
            },
            error: ErrorFrame { message: s(23) },
            report,
            timeline,
        }
    }

    /// Every encoding, as bytes.
    fn payloads(&self) -> Vec<Vec<u8>> {
        vec![
            report_to_json(&self.report).into_bytes(),
            timeline_to_json(&self.timeline).into_bytes(),
            self.request.encode(),
            self.cell.encode(),
            self.summary.encode(),
            self.stats.encode(),
            self.query.encode(),
            self.reply.encode(),
            self.error.encode(),
        ]
    }
}

/// Feeds `bytes` to every decoder. Each must return `Ok` or `Err`; a
/// panic fails the property.
fn decode_everything(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = parse_value(&text);
    let _ = report_from_json(&text);
    let _ = timeline_from_json(&text);
    let _ = SweepRequest::decode(bytes);
    let _ = CellFrame::decode(bytes);
    let _ = SummaryFrame::decode(bytes);
    let _ = StatsFrame::decode(bytes);
    let _ = TimelineQuery::decode(bytes);
    let _ = TimelineReply::decode(bytes);
    let _ = ErrorFrame::decode(bytes);
}

/// The bytes valid payloads are made of, so random input gets past the
/// first token.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\0123456789 unproto\xc3\xa9";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reports, timelines and every frame kind decode to what was
    /// encoded.
    #[test]
    fn codec_roundtrips_reports_timelines_and_frames(
        ncores in 1usize..5,
        nwin in 0usize..4,
        vals in proptest::collection::vec(any::<u64>(), 24..64),
    ) {
        let e = Encoded::synth(ncores, nwin, &vals);
        prop_assert_eq!(&SimReport::from_value(&e.report.to_value()).unwrap(), &e.report);
        prop_assert_eq!(&Timeline::from_value(&e.timeline.to_value()).unwrap(), &e.timeline);
        prop_assert_eq!(&timeline_from_json(&timeline_to_json(&e.timeline)).unwrap(), &e.timeline);
        prop_assert_eq!(&SweepRequest::decode(&e.request.encode()).unwrap(), &e.request);
        prop_assert_eq!(&CellFrame::decode(&e.cell.encode()).unwrap(), &e.cell);
        prop_assert_eq!(&SummaryFrame::decode(&e.summary.encode()).unwrap(), &e.summary);
        prop_assert_eq!(&StatsFrame::decode(&e.stats.encode()).unwrap(), &e.stats);
        prop_assert_eq!(&TimelineQuery::decode(&e.query.encode()).unwrap(), &e.query);
        prop_assert_eq!(&TimelineReply::decode(&e.reply.encode()).unwrap(), &e.reply);
        prop_assert_eq!(&ErrorFrame::decode(&e.error.encode()).unwrap(), &e.error);
    }

    /// Any value tree parses back from its rendering.
    #[test]
    fn value_trees_roundtrip_through_render_and_parse(
        vals in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        let tree = synth_value(&mut vals.iter().copied(), 6);
        prop_assert_eq!(parse_value(&tree.render()).unwrap(), tree);
    }

    /// Random bytes, and random strings over the JSON alphabet, are
    /// decoded or rejected, never a panic; so is a random byte stream
    /// read as frames.
    #[test]
    fn decoders_survive_random_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..128),
        picks in proptest::collection::vec(any::<usize>(), 0..256),
    ) {
        decode_everything(&raw);
        let jsonish: Vec<u8> = picks.iter().map(|p| JSON_BYTES[p % JSON_BYTES.len()]).collect();
        decode_everything(&jsonish);
        let mut stream = raw.as_slice();
        while let Ok(Some((_, payload))) = read_frame(&mut stream) {
            decode_everything(&payload);
        }
    }

    /// Truncations and single-byte flips of valid payloads are decoded
    /// or rejected, never a panic.
    #[test]
    fn decoders_survive_truncated_and_flipped_payloads(
        ncores in 1usize..3,
        vals in proptest::collection::vec(any::<u64>(), 24..40),
        cuts in proptest::collection::vec(any::<usize>(), 1..4),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        for payload in Encoded::synth(ncores, 2, &vals).payloads() {
            for cut in &cuts {
                decode_everything(&payload[..cut % payload.len()]);
            }
            for (at, mask) in &flips {
                let mut flipped = payload.clone();
                flipped[at % payload.len()] ^= mask;
                decode_everything(&flipped);
            }
        }
    }
}
