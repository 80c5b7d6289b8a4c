//! End-to-end service tests: an in-process daemon on an ephemeral port,
//! real TCP clients, and the PR's acceptance criterion — two concurrent
//! clients requesting the same cold grid cause each unique cell to be
//! simulated exactly once, and both receive byte-identical tables.

use std::net::TcpStream;
use std::sync::Barrier;

use tlp_harness::{Harness, RunConfig};
use tlp_serve::protocol::{read_frame, write_frame};
use tlp_serve::{scheme_result, Client, ErrorFrame, FrameKind, ServeError, Server, SweepRequest};

fn test_server() -> (tlp_serve::ServerHandle, std::net::SocketAddr) {
    let mut rc = RunConfig::test();
    rc.threads = 2;
    let server = Server::bind("127.0.0.1:0", Harness::new(rc)).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    (server.spawn().expect("spawn service"), addr)
}

fn baseline_sweep() -> SweepRequest {
    SweepRequest {
        scheme: "Baseline".to_owned(),
        l1pf: "ipcp".to_owned(),
        workloads: vec![], // the server's active set
    }
}

#[test]
fn two_concurrent_clients_share_one_grid_of_simulation() {
    let (handle, addr) = test_server();

    let barrier = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let sweep = |_: ()| {
            let barrier = &barrier;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client.sweep(&baseline_sweep()).expect("sweep succeeds")
            })
        };
        let a = sweep(());
        let b = sweep(());
        (a.join().expect("client a"), b.join().expect("client b"))
    });

    // The acceptance criterion: a 4-cell grid requested cold by two
    // clients at once costs exactly 4 simulations service-wide.
    assert_eq!(a.cells.len(), b.cells.len());
    let unique = a.cells.len() as u64;
    assert!(unique > 1, "the test grid must have multiple cells");
    for reply in [&a, &b] {
        assert_eq!(reply.summary.cells, unique);
        assert_eq!(
            reply.summary.stats.simulated, unique,
            "each unique cell simulated exactly once: {:?}",
            reply.summary.stats
        );
    }

    // Byte-identical result tables on both clients: render through the
    // same `scheme_result` path the in-process CLI uses.
    let render =
        |reply: &tlp_serve::SweepReply| scheme_result("Baseline", "ipcp", &reply.rows()).render();
    assert_eq!(
        render(&a),
        render(&b),
        "both clients render identical tables"
    );

    handle.shutdown();
}

#[test]
fn named_workload_requests_dedup_and_keep_request_order() {
    let (handle, addr) = test_server();
    let mut client = Client::connect(addr).expect("connect");

    // Learn the catalog from a full sweep, then ask for a named subset
    // in reverse order, with a duplicate.
    let all = client.sweep(&baseline_sweep()).expect("full sweep");
    let names: Vec<String> = all.cells.iter().map(|c| c.workload.clone()).collect();
    assert!(names.len() >= 2);

    let mut subset: Vec<String> = names.iter().rev().take(2).cloned().collect();
    subset.push(subset[0].clone()); // duplicate: must be deduped server-side
    let reply = client
        .sweep(&SweepRequest {
            workloads: subset.clone(),
            ..baseline_sweep()
        })
        .expect("subset sweep");
    let got: Vec<String> = reply.cells.iter().map(|c| c.workload.clone()).collect();
    assert_eq!(
        got,
        subset[..2],
        "request order preserved, duplicate dropped"
    );
    // Everything was already cached by the full sweep: no new simulation.
    assert_eq!(reply.summary.stats.simulated, names.len() as u64);

    handle.shutdown();
}

#[test]
fn rejected_requests_keep_the_connection_usable() {
    let (handle, addr) = test_server();
    let mut client = Client::connect(addr).expect("connect");

    let err = client
        .sweep(&SweepRequest {
            scheme: "Basline".to_owned(),
            ..baseline_sweep()
        })
        .expect_err("unknown scheme is rejected");
    match err {
        ServeError::Server(msg) => {
            assert!(msg.contains("Basline"), "names the offender: {msg}");
            assert!(msg.contains("Baseline"), "suggests the fix: {msg}");
        }
        other => panic!("expected a server rejection, got {other:?}"),
    }

    let err = client
        .sweep(&SweepRequest {
            workloads: vec!["no-such-workload".to_owned()],
            ..baseline_sweep()
        })
        .expect_err("unknown workload is rejected");
    assert!(matches!(err, ServeError::Server(_)), "got {err:?}");

    // The same connection still serves valid requests afterwards.
    let reply = client.sweep(&baseline_sweep()).expect("sweep after errors");
    assert!(!reply.cells.is_empty());

    handle.shutdown();
}

#[test]
fn stats_frame_reports_live_service_metrics() {
    let (handle, addr) = test_server();
    let mut client = Client::connect(addr).expect("connect");

    // A fresh daemon already answers STATS (zero counters).
    let cold = client.stats().expect("stats before any sweep");
    assert!(
        cold.contains("serve_requests_total 0"),
        "cold snapshot has zeroed counters:\n{cold}"
    );

    let reply = client.sweep(&baseline_sweep()).expect("sweep");
    let warm = client.stats().expect("stats after a sweep");

    // Serve-layer counters reflect the one request we made.
    assert!(
        warm.contains("serve_requests_total 1"),
        "one sweep request counted:\n{warm}"
    );
    assert!(
        warm.contains(&format!("serve_cells_streamed_total {}", reply.cells.len())),
        "every streamed cell counted:\n{warm}"
    );
    assert!(
        warm.contains("serve_errors_total 0"),
        "no errors counted:\n{warm}"
    );
    assert!(
        warm.contains("serve_requests_in_flight 0"),
        "the request is no longer in flight:\n{warm}"
    );
    // The latency histogram rendered quantile summaries.
    for q in ["0.5", "0.9", "0.99"] {
        assert!(
            warm.contains(&format!("serve_request_latency_ns{{quantile=\"{q}\"}}")),
            "latency quantile {q} present:\n{warm}"
        );
    }
    assert!(
        warm.contains("serve_request_latency_ns_count 1"),
        "one latency sample:\n{warm}"
    );
    // The shared run cache's registry is merged into the same snapshot.
    assert!(
        warm.contains(&format!(
            "run_cache_simulated_total {}",
            reply.summary.stats.simulated
        )),
        "run-cache counters ride along:\n{warm}"
    );
    // So are the engine counters the sweep's simulations added.
    assert!(
        warm.lines().any(|l| l
            .strip_prefix("sim_ticks_executed_total ")
            .is_some_and(|n| n.parse::<u64>().is_ok_and(|n| n > 0))),
        "engine counters ride along:\n{warm}"
    );

    handle.shutdown();
}

#[test]
fn a_deeply_nested_frame_is_rejected_and_the_daemon_keeps_serving() {
    let (handle, addr) = test_server();

    // 10,000 unclosed arrays: far under the frame cap, far past the
    // parser's nesting bound.
    let mut raw = TcpStream::connect(addr).expect("connect");
    write_frame(&mut raw, FrameKind::Request, "[".repeat(10_000).as_bytes()).expect("send");
    let (kind, payload) = read_frame(&mut raw)
        .expect("read the reply")
        .expect("the daemon answers");
    assert_eq!(kind, FrameKind::Error);
    let msg = ErrorFrame::decode(&payload)
        .expect("an error payload")
        .message;
    assert!(msg.contains("nesting"), "names the cause: {msg}");
    drop(raw);

    let mut client = Client::connect(addr).expect("connect again");
    let reply = client
        .sweep(&baseline_sweep())
        .expect("sweep after the frame");
    assert!(!reply.cells.is_empty());

    handle.shutdown();
}

#[test]
fn a_second_connection_hits_the_warm_cache() {
    let (handle, addr) = test_server();

    let first = {
        let mut client = Client::connect(addr).expect("connect");
        client.sweep(&baseline_sweep()).expect("cold sweep")
    };
    let second = {
        let mut client = Client::connect(addr).expect("connect");
        client.sweep(&baseline_sweep()).expect("warm sweep")
    };

    assert_eq!(
        first.summary.stats.simulated, second.summary.stats.simulated,
        "the second client's grid is answered entirely from cache"
    );
    assert_eq!(
        first.cells, second.cells,
        "warm replies carry the exact same cells"
    );

    handle.shutdown();
}
