//! Pins the zero-allocation steady state of the engine's per-cycle
//! path: once scratch buffers, queues, freelists, and page mappings are
//! warm, ticking the system must not touch the global allocator at all —
//! with no predictors, and with the paper's schemes (TLP with IPCP and
//! with Berti) and Hermes live. It also pins that reading a protocol
//! frame allocates for the bytes that arrive, not for the length its
//! header claims.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms a bounded working set, snapshots the allocation count, ticks
//! tens of thousands more cycles, and requires a zero delta. This file
//! holds exactly one test — a second test running concurrently would
//! allocate into the same counters.

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use tlp::harness::{L1Pf, Scheme};
use tlp::serve::protocol::{read_frame, FrameKind, MAX_FRAME_BYTES};
use tlp::sim::engine::{CoreSetup, System};
use tlp::sim::{SystemConfig, TimelineConfig};
use tlp::trace::{Reg, TraceRecord, VecTrace};
use tlp::tracestore::StreamTrace;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { SysAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SysAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { SysAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { SysAlloc.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A long cyclic trace over a bounded working set: 128 distinct lines
/// (8 KiB, two pages) with a store every seventh record, so loads, LQ/SQ
/// churn, store-to-load forwarding, RFOs, dirty evictions, and DRAM
/// writebacks all reach steady state inside the warmup.
fn cyclic_trace(records: usize) -> VecTrace {
    let recs: Vec<TraceRecord> = (0..records)
        .map(|i| {
            let addr = 0x10_0000 + (i as u64 % 128) * 64;
            if i % 7 == 3 {
                TraceRecord::store(0x404, addr, 8, Some(Reg(1)), None)
            } else {
                TraceRecord::load(0x400, addr, 8, Reg(1), [None, None])
            }
        })
        .collect();
    VecTrace::new("cyclic", recs)
}

/// Warms `sys` for 40K ticks — scratch buffers, queue capacities, waiter
/// freelists, page-table mappings, predictor and prefetcher tables — then
/// returns how many times the next 20K ticks allocated.
fn steady_state_allocs(sys: &mut System) -> u64 {
    for _ in 0..40_000 {
        sys.tick();
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..20_000 {
        sys.tick();
    }
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_tick_never_allocates() {
    // Small caches miss constantly on the 128-line set, keeping the
    // whole hierarchy (MSHRs, DRAM queues, retry paths) busy.
    let cfg = SystemConfig::test_tiny(1);
    let mut sys = System::new(cfg, vec![CoreSetup::new(Box::new(cyclic_trace(400_000)))]);
    // Timeline telemetry rides the hot path (window sampling, journey
    // stamps) out of preallocated recorder storage — it must hold the
    // same zero-alloc bar as the engine itself.
    sys.enable_timeline(TimelineConfig::default());
    let delta = steady_state_allocs(&mut sys);
    assert_eq!(
        delta, 0,
        "steady-state busy phase allocated {delta} times in 20k cycles"
    );

    // The same bar with the hook seams live, each system assembled by the
    // built-in registry: FLP and SLP (TLP) over IPCP and over Berti, and
    // Hermes' off-chip perceptron over IPCP.
    for (scheme, l1pf) in [
        (Scheme::Tlp, L1Pf::Ipcp),
        (Scheme::Tlp, L1Pf::Berti),
        (Scheme::Hermes, L1Pf::Ipcp),
    ] {
        let setup = scheme.build_setup(Box::new(cyclic_trace(400_000)), l1pf);
        let mut sys = System::new(SystemConfig::test_tiny(1), vec![setup]);
        let delta = steady_state_allocs(&mut sys);
        assert_eq!(
            delta,
            0,
            "{} + {} allocated {delta} times in 20k steady-state cycles",
            scheme.name(),
            l1pf.name()
        );
    }

    // Same bar with a disk-backed trace source: a looping TLPT v2
    // `StreamTrace` decodes from its preallocated block buffer and
    // refills it with plain seek + read_exact, so streamed replay —
    // including block transitions and loop wraps — must tick without
    // touching the allocator either.
    let dir = std::env::temp_dir().join(format!("tlp-zeroalloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("cyclic.tlpt");
    // Short enough that the measured window wraps the file repeatedly.
    let recs: Vec<TraceRecord> = {
        let mut t = cyclic_trace(30_000);
        use tlp::trace::TraceSource;
        (0..30_000)
            .map(|_| t.next_record().expect("in range"))
            .collect()
    };
    tlp::tracestore::write_trace_v2(&path, "cyclic", true, &recs, &[], 0).expect("write v2");
    let stream = StreamTrace::open(&path).expect("open v2");
    let mut sys = System::new(
        SystemConfig::test_tiny(1),
        vec![CoreSetup::new(Box::new(stream))],
    );
    let delta = steady_state_allocs(&mut sys);
    assert_eq!(
        delta, 0,
        "streamed steady state allocated {delta} times in 20k cycles"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A frame header claiming the largest payload, 16 bytes of it, then
    // EOF: the read is an error, and it allocated for what arrived, not
    // the 64 MiB the header claimed.
    let mut wire = vec![FrameKind::Request as u8];
    wire.extend_from_slice(&MAX_FRAME_BYTES.to_be_bytes());
    wire.extend_from_slice(&[b'x'; 16]);
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let result = read_frame(&mut wire.as_slice());
    let allocated = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert!(result.is_err(), "a truncated frame is an error");
    assert!(
        allocated < 1 << 20,
        "a truncated frame allocated {allocated} bytes"
    );
}
