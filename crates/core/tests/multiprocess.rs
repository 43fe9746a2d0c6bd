//! Multi-process distributed runs: real `luqr-worker` OS processes meshed
//! over a socket transport. These tests live in the `luqr` package so that
//! cargo builds the worker binary before running them and hands its path
//! over in `CARGO_BIN_EXE_luqr-worker`.

use std::path::PathBuf;

use luqr::net::launch::{launch_multiprocess, LaunchTransport, NetJob};
use luqr::{factor, factor_stream_distributed, Algorithm, Criterion};
use luqr_runtime::Platform;

/// The full stack: four real `luqr-worker` OS processes meshed over UDS
/// reproduce the simulated run's message statistics exactly and the batch
/// factorization bitwise.
#[test]
fn net_four_worker_uds_processes_match_simulated_run() {
    let job = NetJob {
        n: 64,
        nrhs: 2,
        seed: 2014,
        nb: 8,
        ib: 4,
        p: 2,
        q: 2,
        threads: 2,
        window: 2,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 6.0 }),
    };
    let (a, b) = job.problem();
    let opts = job.options();
    let batch = factor(&a, &b, &opts);
    let dist = factor_stream_distributed(&a, &b, &opts, &Platform::dancer_nodes(4), job.window)
        .expect("grid fits platform");

    let worker = Some(PathBuf::from(env!("CARGO_BIN_EXE_luqr-worker")));
    let mp = launch_multiprocess(&job, &LaunchTransport::Uds, worker).expect("multi-process run");
    assert_eq!(mp.error, None);
    let x = mp.solution.as_ref().expect("rank 0 reports a solution");
    assert_eq!(batch.solution().max_abs_diff(x), 0.0, "solution diverged");

    assert_eq!(mp.records.len(), dist.stream.records.len());
    for (rm, rd) in mp.records.iter().zip(&dist.stream.records) {
        assert_eq!(rm.k, rd.k);
        assert_eq!(rm.decision, rd.decision, "step {} decision", rm.k);
        assert_eq!(rm.lhs.to_bits(), rd.lhs.to_bits(), "step {} lhs", rm.k);
        assert_eq!(rm.rhs.to_bits(), rd.rhs.to_bits(), "step {} rhs", rm.k);
    }
    assert_eq!(mp.msgs, dist.stream.report.msgs, "MsgStats diverged");
    assert_eq!(
        mp.link_msgs, dist.stream.report.link_msgs,
        "per-link MsgStats diverged"
    );
    assert!(mp.frames_sent > 0 && mp.frames_received > 0);
    assert!(mp.payload_bytes_sent > 0 && mp.payload_bytes_received > 0);
}
