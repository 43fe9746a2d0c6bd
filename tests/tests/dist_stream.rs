//! Distributed-streaming integration tests: bitwise residual parity
//! between batch, single-process streaming, and distributed streaming for
//! every algorithm × robustness criterion at node counts {1, 4} and
//! windows {1, 2, 7} — and equality of the streaming runtime's *online*
//! virtual-time report with a `simulate()` replay of the equivalent batch
//! graph on the same platform.

use luqr::{
    factor, factor_stream, factor_stream_distributed, factor_stream_distributed_opts,
    factor_stream_with, Algorithm, Criterion, FactorOptions, SchedPolicy, StreamOptions,
    WindowPolicy,
};
use luqr_kernels::Mat;
use luqr_runtime::{render_chrome_trace, Platform, SimReport, TraceOptions};
use luqr_tile::Grid;

fn system(n: usize, seed: u64) -> (Mat, Mat) {
    luqr_tests::dominant_system(n, seed, 2)
}

/// 1e-9 relative-tolerance comparison (the acceptance bar; in practice the
/// two reports come from the same engine fed the same executed-task
/// sequence, so they agree bitwise).
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
}

fn assert_sim_matches(batch_sim: &SimReport, online: &SimReport, what: &str) {
    assert!(
        close(batch_sim.makespan, online.makespan),
        "{what}: makespan {} (batch replay) vs {} (online)",
        batch_sim.makespan,
        online.makespan
    );
    assert!(
        close(batch_sim.serial_seconds, online.serial_seconds),
        "{what}: serial time diverged"
    );
    assert!(
        close(batch_sim.critical_path, online.critical_path),
        "{what}: critical path diverged"
    );
    assert!(
        close(batch_sim.total_flops, online.total_flops),
        "{what}: flops diverged"
    );
    assert_eq!(batch_sim.messages, online.messages, "{what}: messages");
    assert_eq!(batch_sim.bytes, online.bytes, "{what}: bytes");
    assert_eq!(batch_sim.node_busy.len(), online.node_busy.len());
    for (i, (a, b)) in batch_sim
        .node_busy
        .iter()
        .zip(&online.node_busy)
        .enumerate()
    {
        assert!(close(*a, *b), "{what}: node {i} busy time diverged");
    }
}

/// Batch vs single-process streaming vs distributed streaming, one
/// configuration: bitwise solutions, step-for-step decisions, and the
/// virtual-time ≡ batch-replay equality.
fn check_three_way(opts: &FactorOptions, platform: &Platform, window: usize, n: usize, seed: u64) {
    let what = format!(
        "{} grid={}x{} window={window}",
        opts.algorithm.name(),
        opts.grid.p,
        opts.grid.q
    );
    let (a, b) = system(n, seed);
    let batch = factor(&a, &b, opts);
    let stream = factor_stream(&a, &b, opts, window);
    let dist =
        factor_stream_distributed(&a, &b, opts, platform, window).expect("grid fits platform");

    assert_eq!(batch.error, stream.error, "{what}: error mismatch");
    assert_eq!(batch.error, dist.stream.error, "{what}: error mismatch");

    let xb = batch.solution();
    let xs = stream.solution();
    let xd = dist.solution();
    assert_eq!(
        xb.max_abs_diff(&xs),
        0.0,
        "{what}: single-process streaming diverged from batch"
    );
    assert_eq!(
        xb.max_abs_diff(&xd),
        0.0,
        "{what}: distributed streaming diverged from batch"
    );

    // Criterion decisions match step for step.
    assert_eq!(batch.records.len(), dist.stream.records.len());
    for (rb, rd) in batch.records.iter().zip(&dist.stream.records) {
        assert_eq!(rb.k, rd.k);
        assert_eq!(rb.decision, rd.decision, "{what}: step {} decision", rb.k);
    }

    // The online virtual-time report equals a batch-graph replay.
    let batch_sim = batch.simulate(platform);
    assert_sim_matches(&batch_sim, &dist.sim, &what);

    // Protocol payload messages are exactly the simulator's messages:
    // both count one transfer per (produced version, destination node).
    let msgs = dist.msgs();
    assert_eq!(
        msgs.payload_msgs(),
        dist.sim.messages,
        "{what}: protocol DataMsg+DecisionMsg count must equal sim messages \
         (data {} decision {})",
        msgs.data_msgs,
        msgs.decision_msgs
    );

    // The window bound survives distribution.
    assert!(dist.stream.report.peak_live_steps <= window, "{what}");
}

#[test]
fn distributed_streaming_parity_every_algorithm_and_criterion() {
    let algorithms = [
        Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        Algorithm::LuQr(Criterion::Sum { alpha: 100.0 }),
        Algorithm::LuQr(Criterion::Mumps { alpha: 100.0 }),
        Algorithm::LuQr(Criterion::AlwaysQr),
        Algorithm::LuQr(Criterion::AlwaysLu),
        Algorithm::LuQr(Criterion::Random {
            lu_fraction: 0.5,
            seed: 7,
        }),
        Algorithm::LuNoPiv,
        Algorithm::LuIncPiv,
        Algorithm::Lupp,
        Algorithm::Hqr,
    ];
    for algorithm in algorithms {
        for (grid, nodes) in [(Grid::single(), 1), (Grid::new(2, 2), 4)] {
            let platform = Platform::dancer_nodes(nodes);
            for window in [1, 2, 7] {
                let opts = FactorOptions {
                    nb: 8,
                    ib: 4,
                    threads: 2,
                    grid,
                    algorithm: algorithm.clone(),
                    ..FactorOptions::default()
                };
                check_three_way(&opts, &platform, window, 50, 2014);
            }
        }
    }
}

/// A grid bigger than the platform is a typed error from the entry point,
/// not a downstream index panic.
#[test]
fn oversized_grid_is_a_typed_error() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        grid: Grid::new(4, 4),
        algorithm: Algorithm::Hqr,
        ..FactorOptions::default()
    };
    let (a, b) = system(32, 1);
    let err = match factor_stream_distributed(&a, &b, &opts, &Platform::dancer_nodes(4), 2) {
        Err(e) => e,
        Ok(_) => panic!("16-rank grid cannot fit a 4-node platform"),
    };
    assert_eq!(
        err,
        luqr::GridPlatformError {
            p: 4,
            q: 4,
            platform_nodes: 4
        }
    );
    assert!(err.to_string().contains("4x4"));
    assert!(err.to_string().contains("16"));
    assert_eq!(
        luqr::validate_grid_platform(&Grid::new(2, 2), &Platform::dancer_nodes(4)),
        Ok(())
    );
}

/// The speed-weighted distribution keeps the three-runtime bitwise parity
/// and the online-sim ≡ batch-replay equality on a genuinely mixed
/// cluster (two fast nodes, two slow, hierarchical network).
#[test]
fn weighted_distribution_keeps_parity_on_a_mixed_cluster() {
    let platform = Platform::mixed_islands();
    for algorithm in [
        Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        Algorithm::Hqr,
        Algorithm::Lupp,
    ] {
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid: Grid::new(2, 2),
            algorithm,
            ..FactorOptions::default()
        }
        .with_speed_weights(platform.node_speeds());
        for window in [1, 3] {
            check_three_way(&opts, &platform, window, 50, 77);
        }
    }
}

/// A hybrid run on four nodes communicates, and the decision broadcast is
/// visible as DecisionMsgs from the panel-owner node.
#[test]
fn distributed_hybrid_counts_decision_broadcasts() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(64, 99);
    let dist = factor_stream_distributed(&a, &b, &opts, &Platform::dancer_nodes(4), 2)
        .expect("grid fits platform");
    let msgs = dist.msgs();
    assert!(msgs.data_msgs > 0, "2x2 grid must move tiles");
    assert!(
        msgs.decision_msgs > 0,
        "hybrid steps must broadcast the criterion decision"
    );
    assert!(
        msgs.retire_msgs > 0,
        "remote nodes must report step retirement"
    );
    assert!(dist.sim.makespan > 0.0);
    assert!(dist.sim.makespan >= dist.sim.critical_path - 1e-12);
}

/// Distributed streaming on a single-node platform moves zero messages
/// and zero bytes, through every layer (protocol and virtual time).
#[test]
fn single_node_distributed_run_moves_nothing() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::single(),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(48, 5);
    let dist = factor_stream_distributed(&a, &b, &opts, &Platform::single_node(8), 3)
        .expect("grid fits platform");
    let msgs = dist.msgs();
    assert_eq!(msgs.data_msgs, 0);
    assert_eq!(msgs.decision_msgs, 0);
    assert_eq!(msgs.retire_msgs, 0);
    assert_eq!(msgs.bytes, 0);
    assert_eq!(dist.sim.messages, 0);
    assert_eq!(dist.sim.bytes, 0);
}

/// `latency = 0` degenerates the communication model to pure bandwidth
/// cost: halving the bandwidth exactly doubles the total transfer time
/// embedded in the makespan difference from the infinite-bandwidth run.
#[test]
fn zero_latency_platform_costs_pure_bandwidth() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::Hqr,
        ..FactorOptions::default()
    };
    let (a, b) = system(48, 17);
    let p = Platform::dancer_nodes(4).with_latency(0.0);
    let dist = factor_stream_distributed(&a, &b, &opts, &p, 2).expect("grid fits platform");
    // Same run replayed from the batch graph must agree even at the
    // degenerate point.
    let batch = factor(&a, &b, &opts);
    let sim = batch.simulate(&p);
    assert_eq!(sim.messages, dist.sim.messages);
    assert!(close(sim.makespan, dist.sim.makespan));
    assert!(dist.sim.bytes > 0);
}

/// The autotuned window policy keeps bitwise parity and records a window
/// choice for every step, inside its bounds.
#[test]
fn auto_window_keeps_parity_and_records_choices() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 4,
        grid: Grid::new(2, 1),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(64, 23);
    let batch = factor(&a, &b, &opts);
    let stream_opts = StreamOptions {
        window: WindowPolicy::Auto {
            min: 1,
            max: 6,
            live_task_budget: 400,
        },
        ..StreamOptions::fixed(1, opts.threads)
    };
    let stream = factor_stream_with(&a, &b, &opts, &stream_opts);
    assert_eq!(batch.solution().max_abs_diff(&stream.solution()), 0.0);
    assert_eq!(stream.report.per_step_window.len(), stream.report.steps);
    assert!(stream
        .report
        .per_step_window
        .iter()
        .all(|&w| (1..=6).contains(&w)));
}

/// Streaming trace export: behind the flag, every executed task gets a
/// `(start, end, worker, step, node)` span, renderable as Chrome trace
/// JSON.
#[test]
fn streaming_trace_export_covers_executed_tasks() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(48, 8);
    let stream_opts = StreamOptions::fixed(2, 2).with_trace();
    let f = factor_stream_with(&a, &b, &opts, &stream_opts);
    assert_eq!(f.report.trace.len(), f.report.tasks_executed);
    let mut nodes_seen = [false; 4];
    for ev in &f.report.trace {
        assert!(ev.end >= ev.start);
        assert!(ev.step.is_some());
        nodes_seen[ev.node] = true;
    }
    assert!(
        nodes_seen.iter().all(|&s| s),
        "2x2 grid must execute on all 4 nodes"
    );
    let json = render_chrome_trace(&f.report.trace, &TraceOptions::default());
    assert!(json.contains("\"args\": {\"step\": 0}"));
    assert!(json.contains("PANEL(k=0)"));
    // Untraced runs render an empty (but valid) document.
    let untraced = factor_stream(&a, &b, &opts, 2);
    assert_eq!(
        render_chrome_trace(&untraced.report.trace, &TraceOptions::default()).trim(),
        "[\n\n]"
    );
}

/// EFT-guided work stealing is strictly opt-in and placement-independent:
/// a steal-enabled distributed run produces the *bitwise* batch solution
/// and identical per-step decisions, its protocol message count stays
/// consistent with the simulator even as work moves off its owner node,
/// and with the flag off the steal counters stay at zero.
#[test]
fn stealing_keeps_numerics_and_message_accounting() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(64, 31);
    let platform = Platform::mixed_islands();
    let batch = factor(&a, &b, &opts);

    let base_opts = StreamOptions::fixed(3, opts.threads).with_scheduler(SchedPolicy::Eft);
    let base = factor_stream_distributed_opts(&a, &b, &opts, &platform, &base_opts)
        .expect("grid fits platform");
    let steal_opts = base_opts.clone().with_stealing();
    let steal = factor_stream_distributed_opts(&a, &b, &opts, &platform, &steal_opts)
        .expect("grid fits platform");

    // Numerics are placement-independent: bitwise vs batch, errors and
    // criterion decisions identical.
    assert_eq!(batch.error, steal.stream.error);
    assert_eq!(batch.solution().max_abs_diff(&steal.solution()), 0.0);
    assert_eq!(batch.records.len(), steal.stream.records.len());
    for (rb, rd) in batch.records.iter().zip(&steal.stream.records) {
        assert_eq!(rb.decision, rd.decision, "step {} decision", rb.k);
    }

    // The steal pass evaluated candidates, and on this heterogeneous
    // platform (half-speed island) actually re-homed work.
    let report = &steal.stream.report;
    assert!(
        report.steals + report.steal_kept > 0,
        "steal pass never evaluated a candidate"
    );
    assert!(report.steals > 0, "mixed islands should trigger steals");

    // Message accounting stays consistent *within* the run: the protocol
    // counts one transfer per (produced version, destination node) off
    // the same placements the simulator prices.
    assert_eq!(steal.msgs().payload_msgs(), steal.sim.messages);
    assert!(steal.sim.makespan >= steal.sim.critical_path - 1e-12);
    assert!(report.peak_live_steps <= 3);

    // Flag off: counters zero, baseline consistency untouched.
    assert_eq!(base.stream.report.steals, 0);
    assert_eq!(base.stream.report.steal_kept, 0);
    assert_eq!(base.msgs().payload_msgs(), base.sim.messages);
}

/// On a single node there is nowhere to steal to: the gate keeps the
/// steal machinery inert and the run bitwise equal to the unflagged one.
#[test]
fn stealing_is_inert_on_a_single_node() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::single(),
        algorithm: Algorithm::Hqr,
        ..FactorOptions::default()
    };
    let (a, b) = system(48, 9);
    let platform = Platform::dancer_nodes(1);
    let plain_opts = StreamOptions::fixed(2, opts.threads);
    let plain = factor_stream_distributed_opts(&a, &b, &opts, &platform, &plain_opts)
        .expect("grid fits platform");
    let steal = factor_stream_distributed_opts(
        &a,
        &b,
        &opts,
        &platform,
        &plain_opts.clone().with_stealing(),
    )
    .expect("grid fits platform");

    assert_eq!(steal.stream.report.steals, 0);
    assert_eq!(steal.stream.report.steal_kept, 0);
    assert_eq!(plain.solution().max_abs_diff(&steal.solution()), 0.0);
    assert_eq!(
        plain.sim.makespan.to_bits(),
        steal.sim.makespan.to_bits(),
        "single-node steal run must replay the unflagged timeline bitwise"
    );
    assert_eq!(plain.sim.messages, steal.sim.messages);
}

/// Online recalibration re-aims the tile distribution mid-run from
/// observed per-node speeds. The panel planners group their reduction
/// trees by owner node, so regrouped future steps compute a numerically
/// *equivalent* factorization — round-off-level agreement with the batch
/// run, not bitwise (exactly as a static run under the new distribution
/// would differ). Decisions still match step for step, and the
/// protocol's message count stays equal to the simulator's even as
/// future steps land on different owners.
#[test]
fn recalibration_keeps_numerics_and_protocol_consistency() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(64, 7);
    let platform = Platform::mixed_islands();
    let batch = factor(&a, &b, &opts);

    let recal_opts = StreamOptions::fixed(2, opts.threads).with_recalibration();
    let recal = factor_stream_distributed_opts(&a, &b, &opts, &platform, &recal_opts)
        .expect("grid fits platform");

    assert_eq!(batch.error, recal.stream.error);
    let drift = batch.solution().max_abs_diff(&recal.solution());
    assert!(
        drift <= 1e-10,
        "recalibrated solution drifted beyond round-off: {drift}"
    );
    assert_eq!(batch.records.len(), recal.stream.records.len());
    for (rb, rd) in batch.records.iter().zip(&recal.stream.records) {
        assert_eq!(rb.decision, rd.decision, "step {} decision", rb.k);
    }
    assert_eq!(recal.msgs().payload_msgs(), recal.sim.messages);
    assert!(recal.stream.report.peak_live_steps <= 2);
    assert!(recal.sim.makespan >= recal.sim.critical_path - 1e-12);
}

// ---------------------------------------------------------------------------
// Real-transport distributed runs: the simulated protocol, performed.
// ---------------------------------------------------------------------------

use luqr::{
    factor_stream_net, factor_stream_net_opts, factor_stream_net_rank, NetTransportKind, Probe,
    TransportError,
};

/// One real-transport run against its two oracles: the batch factorization
/// (bitwise numerics) and the *simulated* distributed run on a uniform
/// platform (exact protocol message statistics, total and per link) —
/// plus the runtime's own wire/protocol reconciliation surfaced through
/// rank 0's [`luqr::NetReport`].
fn check_net(opts: &FactorOptions, window: usize, n: usize, seed: u64, kind: &NetTransportKind) {
    let what = format!(
        "{} grid={}x{} window={window} over {kind:?}",
        opts.algorithm.name(),
        opts.grid.p,
        opts.grid.q
    );
    let (a, b) = system(n, seed);
    let batch = factor(&a, &b, opts);
    let platform = Platform::dancer_nodes(opts.grid.nodes());
    let dist =
        factor_stream_distributed(&a, &b, opts, &platform, window).expect("grid fits platform");
    let net = factor_stream_net(&a, &b, opts, window, kind).expect("net run failed");

    assert_eq!(batch.error, net.error, "{what}: error mismatch");
    assert_eq!(
        batch.solution().max_abs_diff(&net.solution()),
        0.0,
        "{what}: real-transport solution diverged from batch"
    );

    // Step records agree with the simulated distributed run bitwise.
    assert_eq!(net.records.len(), dist.stream.records.len(), "{what}");
    for (rn, rd) in net.records.iter().zip(&dist.stream.records) {
        assert_eq!(rn.k, rd.k, "{what}");
        assert_eq!(rn.decision, rd.decision, "{what}: step {} decision", rn.k);
        assert_eq!(
            rn.lhs.to_bits(),
            rd.lhs.to_bits(),
            "{what}: step {} lhs",
            rn.k
        );
        assert_eq!(
            rn.rhs.to_bits(),
            rd.rhs.to_bits(),
            "{what}: step {} rhs",
            rn.k
        );
    }

    // The performed protocol moved exactly the messages the simulation
    // modeled — in total and on every directed link.
    assert_eq!(
        net.report.msgs, dist.stream.report.msgs,
        "{what}: MsgStats diverged from the simulated run"
    );
    assert_eq!(
        net.report.link_msgs, dist.stream.report.link_msgs,
        "{what}: per-link MsgStats diverged"
    );

    // Rank 0's wire-level frame counters reconcile against the modeled
    // per-link protocol: every frame on the wire is a protocol message.
    let wire = net.report.net.as_ref().expect("net report missing");
    assert_eq!(wire.rank, 0, "{what}");
    assert_eq!(wire.nranks, opts.grid.nodes(), "{what}");
    let protocol_msgs = |l: &luqr_runtime::LinkMsgStats| {
        l.msgs.data_msgs + l.msgs.decision_msgs + l.msgs.retire_msgs
    };
    let sent: u64 = net
        .report
        .link_msgs
        .iter()
        .filter(|l| l.src == 0 && l.dst != 0)
        .map(protocol_msgs)
        .sum();
    let received: u64 = net
        .report
        .link_msgs
        .iter()
        .filter(|l| l.dst == 0 && l.src != 0)
        .map(protocol_msgs)
        .sum();
    assert_eq!(
        wire.frames_sent, sent,
        "{what}: wire frames != protocol msgs (sent)"
    );
    assert_eq!(
        wire.frames_received, received,
        "{what}: wire frames != protocol msgs (received)"
    );
    if opts.grid.nodes() > 1 {
        // Done + Fin/Shutdown at minimum; Sync broadcasts and Results too.
        assert!(wire.ctrl_frames_sent > 0, "{what}: no control frames sent");
        assert!(
            wire.ctrl_frames_received > 0,
            "{what}: no control frames received"
        );
    }
}

/// Loopback transport across every algorithm family on a 2x2 grid: each
/// exercises a different payload codec mix (pivots + swap scratch, T
/// factors, incremental-pivot L panels, criterion decisions + backups).
#[test]
fn net_loopback_matches_simulated_run_across_algorithms() {
    for algorithm in [
        Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        Algorithm::LuQr(Criterion::AlwaysQr),
        Algorithm::Lupp,
        Algorithm::LuIncPiv,
        Algorithm::LuNoPiv,
        Algorithm::Hqr,
    ] {
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid: Grid::new(2, 2),
            algorithm,
            ..FactorOptions::default()
        };
        check_net(&opts, 2, 50, 2014, &NetTransportKind::Loopback);
    }
}

/// The same hybrid run over crossbeam channels and over real Unix-domain
/// sockets: transport choice must be invisible to numerics and protocol.
#[test]
fn net_channel_and_uds_match_simulated_run() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    check_net(&opts, 2, 50, 2014, &NetTransportKind::Channel);
    check_net(&opts, 2, 50, 2014, &NetTransportKind::Uds);
}

/// Deeper window and a rectangular grid over loopback.
#[test]
fn net_rect_grid_and_wide_window() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(1, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    check_net(&opts, 7, 50, 2014, &NetTransportKind::Loopback);
}

/// A single-rank "distributed" run: everything is local, nothing crosses
/// the wire, and the report says exactly that.
#[test]
fn net_single_rank_moves_nothing() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::single(),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(50, 2014);
    let batch = factor(&a, &b, &opts);
    let net =
        factor_stream_net(&a, &b, &opts, 2, &NetTransportKind::Loopback).expect("net run failed");
    assert_eq!(batch.solution().max_abs_diff(&net.solution()), 0.0);
    assert_eq!(net.report.msgs, luqr_runtime::MsgStats::default());
    let wire = net.report.net.as_ref().expect("net report missing");
    assert_eq!(wire.frames_sent, 0);
    assert_eq!(wire.frames_received, 0);
    assert_eq!(wire.payload_bytes_sent, 0);
}

/// Probing a real-transport run must not perturb it: bitwise solution,
/// identical protocol statistics, identical wire frame counters.
#[test]
fn net_probed_run_matches_unprobed() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(50, 2014);
    let plain =
        factor_stream_net(&a, &b, &opts, 2, &NetTransportKind::Loopback).expect("unprobed run");
    let probe = Probe::enabled();
    let sopts = StreamOptions::fixed(2, opts.threads).with_probe(probe.clone());
    let probed = factor_stream_net_opts(&a, &b, &opts, &sopts, &NetTransportKind::Loopback)
        .expect("probed run");

    assert_eq!(plain.solution().max_abs_diff(&probed.solution()), 0.0);
    assert_eq!(plain.report.msgs, probed.report.msgs);
    assert_eq!(plain.report.link_msgs, probed.report.link_msgs);
    let (wp, wq) = (
        plain.report.net.as_ref().expect("net report"),
        probed.report.net.as_ref().expect("net report"),
    );
    assert_eq!(wp.frames_sent, wq.frames_sent);
    assert_eq!(wp.frames_received, wq.frames_received);
    assert_eq!(wp.payload_bytes_sent, wq.payload_bytes_sent);
    assert_eq!(wp.payload_bytes_received, wq.payload_bytes_received);

    // The probe saw the wire: its export includes net counters.
    let report = probe.report();
    let rendered = format!("{:?}", report.snapshot);
    assert!(
        rendered.contains("net"),
        "probe snapshot has no net metrics: {rendered}"
    );
}

/// Options a real transport cannot honour, and a transport set that does
/// not match the process grid, are typed errors on every rank — not
/// panics, and not a rank left waiting on a peer.
#[test]
fn net_unsupported_configuration_is_a_typed_error() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 1,
        grid: Grid::new(2, 1),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 6.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(32, 12);
    let stealing = StreamOptions::fixed(2, 1).with_stealing();
    let r = factor_stream_net_opts(&a, &b, &opts, &stealing, &NetTransportKind::Loopback);
    assert!(
        matches!(r, Err(TransportError::Protocol(_))),
        "stealing over a transport: {:?}",
        r.err()
    );

    let three_ranks = luqr_runtime::net::loopback::loopback_set(3);
    let r = factor_stream_net_rank(
        &a,
        &b,
        &opts,
        &StreamOptions::fixed(2, 1),
        three_ranks[0].clone(),
    );
    assert!(
        matches!(r, Err(TransportError::Protocol(_))),
        "3-rank transport on a 2x1 grid: {:?}",
        r.err()
    );
}
