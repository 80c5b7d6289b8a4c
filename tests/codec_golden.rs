//! Byte-exact pins of the JSON encodings that leave the process: the
//! result cache's report and timeline entries, and one payload of each
//! of the seven protocol frames. A cache directory filled by another
//! build, or a peer built from another commit, reads exactly these
//! bytes, so every encoder must keep producing them and every decoder
//! must keep accepting them. The fixtures under `tests/golden/` were
//! captured from the hand-written encoders the `Codec` declarations
//! replaced.

use std::path::PathBuf;

use tlp::harness::EngineStats;
use tlp::serve::protocol::*;
use tlp::sim::serial::{report_from_json, report_to_json, timeline_from_json, timeline_to_json};
use tlp::sim::stats::{
    CacheStats, CoreReport, CoreStats, DramStats, OffChipStats, PrefetchStats, SimReport,
};
use tlp::sim::victim::VictimStats;
use tlp::timeline::{Counters, JourneyRecord, Timeline, WindowSample};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Hands out 1, 2, 3, ... so every counter of a fixture is distinct and
/// a field written under the wrong key cannot go unnoticed.
struct Seq(u64);

impl Seq {
    fn n(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    fn arr4(&mut self) -> [u64; 4] {
        [self.n(), self.n(), self.n(), self.n()]
    }

    fn cache(&mut self) -> CacheStats {
        CacheStats {
            demand_hits: self.n(),
            demand_misses: self.n(),
            prefetch_hits: self.n(),
            prefetch_misses: self.n(),
            prefetch_fills: self.n(),
            prefetch_useful: self.n(),
            prefetch_useless: self.n(),
            writebacks: self.n(),
            mshr_stalls: self.n(),
        }
    }

    fn prefetch(&mut self) -> PrefetchStats {
        PrefetchStats {
            candidates: self.n(),
            filtered: self.n(),
            dropped: self.n(),
            issued: self.n(),
            filled_by_level: self.arr4(),
            useful_by_level: self.arr4(),
            useless_by_level: self.arr4(),
        }
    }

    fn core(&mut self, workload: &str) -> CoreReport {
        CoreReport {
            workload: workload.to_owned(),
            core: CoreStats {
                instructions: self.n(),
                cycles: self.n(),
                loads: self.n(),
                stores: self.n(),
                branches: self.n(),
                mispredicts: self.n(),
                dtlb_misses: self.n(),
                stlb_misses: self.n(),
                store_forwards: self.n(),
            },
            l1d: self.cache(),
            l2: self.cache(),
            offchip: OffChipStats {
                issued_now: self.n(),
                tagged_delayed: self.n(),
                delayed_issued: self.n(),
                predicted_onchip: self.n(),
                issued_outcome: self.arr4(),
                missed_offchip: self.n(),
                correct_onchip: self.n(),
            },
            l1_prefetch: self.prefetch(),
            l2_prefetch: self.prefetch(),
        }
    }
}

/// A 2-core report: every counter distinct, the largest `u64`, and
/// workload names that need escaping (quote, backslash, newline, a
/// control character) or carry multi-byte UTF-8.
fn report() -> SimReport {
    let mut s = Seq(0);
    let cores = vec![
        s.core("spec.mcf_06 \"q\" back\\slash\nline\u{1}"),
        s.core("bfs.kron é→😀"),
    ];
    SimReport {
        cores,
        llc: s.cache(),
        dram: DramStats {
            reads: s.n(),
            spec_reads: s.n(),
            writes: s.n(),
            row_hits: s.n(),
            row_conflicts: s.n(),
            read_queue_full: s.n(),
            spec_dropped: s.n(),
            spec_consumed: s.n(),
            spec_wasted: s.n(),
        },
        victim: VictimStats {
            hits: s.n(),
            misses: s.n(),
            insertions: s.n(),
        },
        total_cycles: u64::MAX,
    }
}

/// A timeline with one window and one journey.
fn timeline() -> Timeline {
    let mut s = Seq(100);
    Timeline {
        window_cycles: s.n(),
        journey_every: s.n(),
        start_cycle: s.n(),
        end_cycle: s.n(),
        windows: vec![WindowSample {
            start_cycle: s.n(),
            end_cycle: s.n(),
            counters: Counters {
                instructions: s.n(),
                l1d_misses: s.n(),
                l2_misses: s.n(),
                llc_misses: s.n(),
                pf_issued: s.n(),
                pf_useful: s.n(),
                pf_useless: s.n(),
                pf_filtered: s.n(),
                offchip_issued: s.n(),
                offchip_accurate: s.n(),
                offchip_missed: s.n(),
                offchip_predicted_onchip: s.n(),
                offchip_correct_onchip: s.n(),
                dram_reads: s.n(),
                dram_writes: s.n(),
                dram_row_hits: s.n(),
                dram_row_conflicts: s.n(),
            },
            rob_occupancy: s.n(),
            mshr_occupancy: s.n(),
        }],
        journeys: vec![JourneyRecord {
            core: s.n(),
            ordinal: s.n(),
            pc: s.n(),
            vaddr: s.n(),
            dispatch: s.n(),
            l1_at: s.n(),
            l2_at: s.n(),
            dram_queue_at: s.n(),
            bank_at: s.n(),
            fill_at: s.n(),
            offchip_decision: s.n(),
            offchip_valid: s.n(),
            filter_seen: s.n(),
            served_level: s.n(),
        }],
        windows_dropped: s.n(),
        journeys_dropped: s.n(),
    }
}

fn request() -> SweepRequest {
    SweepRequest {
        scheme: "Baseline".to_owned(),
        l1pf: "ipcp".to_owned(),
        workloads: vec!["spec.mcf_06".to_owned(), "bfs.kron".to_owned()],
    }
}

fn cell() -> CellFrame {
    CellFrame {
        index: 3,
        workload: "spec.mcf_06".to_owned(),
        label: "1c|Tiny|w5000|i25000|spec.mcf_06|Baseline|ipcp|bw:default".to_owned(),
        report: report(),
    }
}

fn summary() -> SummaryFrame {
    SummaryFrame {
        engine: "event".to_owned(),
        cells: 7,
        stats: EngineStats {
            requested: 11,
            mem_hits: 12,
            disk_hits: 13,
            coalesced: 14,
            corrupt: 15,
            evicted: 16,
            simulated: 17,
            deduped: 18,
        },
    }
}

fn stats() -> StatsFrame {
    StatsFrame {
        text: "# TYPE serve_requests_total counter\nserve_requests_total 3\n\
               serve_request_latency_ns{quantile=\"0.99\"} 1234\n"
            .to_owned(),
    }
}

fn query() -> TimelineQuery {
    TimelineQuery {
        scheme: "TLP".to_owned(),
        l1pf: "ipcp".to_owned(),
        workloads: vec!["bfs.urand".to_owned()],
        window_cycles: 10_000,
        journey_every: 16,
    }
}

fn error() -> ErrorFrame {
    ErrorFrame {
        message: "unknown scheme: Basline (did you mean: Baseline?)".to_owned(),
    }
}

#[test]
fn report_encoding_is_pinned() {
    let text = golden("report_2core");
    assert_eq!(report_to_json(&report()), text);
    assert_eq!(report_from_json(&text).expect("golden decodes"), report());
}

#[test]
fn timeline_encoding_is_pinned() {
    let text = golden("timeline");
    assert_eq!(timeline_to_json(&timeline()), text);
    assert_eq!(
        timeline_from_json(&text).expect("golden decodes"),
        timeline()
    );
}

/// Each frame encodes to its fixture, and the fixture decodes to a
/// frame that encodes back to the same bytes.
#[test]
fn frame_encodings_are_pinned() {
    let text = golden("frame_request");
    assert_eq!(request().encode(), text.as_bytes());
    assert_eq!(SweepRequest::decode(text.as_bytes()).unwrap(), request());

    let text = golden("frame_cell");
    assert_eq!(cell().encode(), text.as_bytes());
    assert_eq!(CellFrame::decode(text.as_bytes()).unwrap(), cell());

    let text = golden("frame_summary");
    assert_eq!(summary().encode(), text.as_bytes());
    assert_eq!(SummaryFrame::decode(text.as_bytes()).unwrap(), summary());

    let text = golden("frame_stats");
    assert_eq!(stats().encode(), text.as_bytes());
    assert_eq!(StatsFrame::decode(text.as_bytes()).unwrap(), stats());

    let text = golden("frame_timeline_query");
    assert_eq!(query().encode(), text.as_bytes());
    assert_eq!(TimelineQuery::decode(text.as_bytes()).unwrap(), query());

    let text = golden("frame_error");
    assert_eq!(error().encode(), text.as_bytes());
    assert_eq!(ErrorFrame::decode(text.as_bytes()).unwrap(), error());

    // One captured run of `timeline()` for workload `bfs.urand`: the reply
    // embeds the blob encoding verbatim.
    let text = golden("frame_timeline_reply");
    assert!(text.contains(&format!(
        "\"runs\":[{{\"workload\":\"bfs.urand\",\"timeline\":{}}}]",
        timeline_to_json(&timeline())
    )));
    let reply = TimelineReply::decode(text.as_bytes()).unwrap();
    assert_eq!(
        (reply.scheme.as_str(), reply.l1pf.as_str()),
        ("TLP", "ipcp")
    );
    assert_eq!(reply.runs.len(), 1);
    assert_eq!(reply.encode(), text.as_bytes());
}
