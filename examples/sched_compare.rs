//! Scheduling-policy comparison on the PR-4 mixed hierarchical cluster.
//!
//! One hybrid factorization (the `cluster_hetero` platform: 2 fast + 2
//! slow nodes in two islands, 2x2 grid — here with the 10 Gbit/s backbone
//! modeled as a *shared trunk* of finite bisection bandwidth, so
//! inter-island transfers contend) is executed once, then its task graph
//! is replayed through the virtual-time engine under every scheduling
//! policy ([`luqr::SchedPolicy`]). Placement, kernels, and numerics are
//! identical across rows — the policy only chooses which ready task claims
//! cores and network slots next — so the makespan column isolates exactly
//! what list-scheduling order is worth on a heterogeneous platform:
//!
//! * `fifo` pins the insertion-order baseline (bitwise equal to
//!   `simulate()` and to the committed BENCH baselines);
//! * `critical-path` keeps the panel chain hot;
//! * `locality` / `eft` run resident work while transfers queue on the
//!   trunk — the win this example *asserts* (≥ 5% over FIFO, the bar
//!   recorded in BENCH_sched.json).
//!
//! A second, coarse-tiled factorization (64² tiles, the granularity at
//! which placement can amortize the trunk latency) demonstrates EFT-guided
//! work stealing: the steal pass must beat the best non-steal policy by
//! ≥ 10%, probed and unprobed stealing replays must agree exactly, and the
//! attribution table carries the steal counters.
//!
//! Also demonstrated: the same comparison through the *online* distributed
//! streaming engine (policies thread through both paths), a probed EFT
//! replay with its makespan attribution (compute / transfer / trunk
//! contention / idle per node), and the three telemetry exports — a
//! Chrome trace with counter tracks, structured JSON, and Prometheus text
//! — written to `$LUQR_PROBE_DIR` (or the system temp dir).
//!
//! ```sh
//! cargo run --release --example sched_compare [N] [nb]
//! ```

use std::path::PathBuf;

use luqr::{
    factor, factor_stream_distributed_opts, factor_stream_distributed_with, Algorithm, Criterion,
    DistPolicy, FactorOptions, Probe, SchedPolicy, SimOptions, StreamOptions,
};
use luqr_runtime::probe::export::{to_json, to_prometheus};
use luqr_runtime::probe::metric;
use luqr_runtime::{render_chrome_trace, sim_events, Label, Platform, TraceOptions};
use luqr_tile::Grid;

#[path = "support/mod.rs"]
mod support;
use support::dominant_system as system;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(320);
    let nb: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    // The PR-4 mixed cluster, with its 10 Gbit/s inter-island backbone
    // made a shared trunk: all cross-island transfers serialize on it.
    let platform = Platform::mixed_islands().with_backbone(1.25e9);
    let grid = Grid::new(2, 2);
    println!(
        "mixed hierarchical cluster ({} nodes, grid 2x2):",
        platform.nodes()
    );
    for (rank, spec) in platform.specs.iter().enumerate() {
        println!(
            "  node{rank}: {:<14} peak {:>6.1} GFLOP/s",
            spec.label(),
            spec.peak_gflops()
        );
    }
    println!(
        "  network: islands of 2, intra 20 Gbit/s; 10 Gbit/s backbone shared \
         across islands\nN = {n}, nb = {nb}\n"
    );

    let (a, b) = system(n);
    let opts = FactorOptions {
        nb,
        ib: nb / 2,
        grid,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        // Block-cyclic keeps every node on the panel's critical path, so
        // cross-island traffic — and with it the scheduler's room to hide
        // it — is at its natural maximum.
        dist: DistPolicy::BlockCyclic,
        ..FactorOptions::default()
    };
    let f = factor(&a, &b, &opts);
    assert!(f.error.is_none(), "breakdown: {:?}", f.error);

    println!(
        "batch graph replayed under each policy ({} tasks):",
        f.graph.len()
    );
    println!(
        "{:<16} {:>12} {:>10} {:>8} {:>9}",
        "policy", "makespan", "GFLOP/s", "msgs", "vs fifo"
    );
    let mut makespans = Vec::new();
    for policy in SchedPolicy::all() {
        let sim = f.simulate_with(&platform, &SimOptions::with_scheduler(policy));
        makespans.push((policy, sim.makespan));
        println!(
            "{:<16} {:>11.6}s {:>10.1} {:>8} {:>8.2}%",
            policy.name(),
            sim.makespan,
            sim.gflops_normalized(f.nominal_flops()),
            sim.messages,
            100.0 * (makespans[0].1 - sim.makespan) / makespans[0].1,
        );
    }
    let fifo = makespans[0].1;
    // FIFO through the policy engine must equal the plain replay bitwise.
    assert_eq!(
        f.simulate(&platform).makespan.to_bits(),
        fifo.to_bits(),
        "fifo must pin the insertion-order schedule"
    );

    // The acceptance bar: on a mixed hierarchical cluster, resource-aware
    // selection must beat insertion order by a real margin.
    let locality = makespans
        .iter()
        .find(|(p, _)| *p == SchedPolicy::LocalityAware)
        .expect("swept")
        .1;
    let eft = makespans
        .iter()
        .find(|(p, _)| *p == SchedPolicy::Eft)
        .expect("swept")
        .1;
    let best = locality.min(eft);
    println!(
        "\nbest of locality/eft vs fifo: {:.2}% faster ({:.6}s vs {:.6}s)",
        100.0 * (fifo - best) / fifo,
        best,
        fifo
    );
    assert!(
        locality < fifo && eft < fifo,
        "locality ({locality}s) and eft ({eft}s) must both beat fifo ({fifo}s)"
    );
    assert!(
        best <= 0.95 * fifo,
        "locality/eft must beat fifo makespan by >= 5% on the mixed \
         cluster ({best}s vs {fifo}s)"
    );

    // ---- EFT-guided work stealing on coarse tiles ----------------------
    // Stealing is a *placement* optimization: it pays only once a tile's
    // compute amortizes the ~10µs trunk latency, so it gets its own
    // coarse-grained factorization (64² tiles ≈ 57–115µs kernels) on the
    // same platform. At the fine-grained fixture above the congestion-
    // taxed steal pass correctly abstains (a handful of steals, makespan
    // within ±0.1% — measured), which would demonstrate nothing.
    let (steal_n, steal_nb) = (448, 64);
    // The BENCH_sched.json steal fixture, verbatim: a general random
    // system (pivoting swaps and criterion-driven QR steps give the DAG
    // its movable bulk; the diagonally dominant demo system above
    // factors as pure swap-free LU, which leaves little to re-home).
    let sa = luqr_kernels::Mat::random(steal_n, steal_n, 1);
    let sb = luqr_kernels::Mat::random(steal_n, 1, 2);
    let steal_fopts = FactorOptions {
        nb: steal_nb,
        ib: steal_nb / 2,
        threads: 1,
        grid,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 1000.0 }),
        dist: DistPolicy::BlockCyclic,
        ..FactorOptions::default()
    };
    let sf = factor(&sa, &sb, &steal_fopts);
    assert!(sf.error.is_none(), "breakdown: {:?}", sf.error);
    println!(
        "\nEFT-guided work stealing (N = {steal_n}, nb = {steal_nb}; placement \
         needs tiles that amortize the trunk latency):"
    );
    let mut best_nonsteal = f64::INFINITY;
    for policy in SchedPolicy::all() {
        let sim = sf.simulate_with(&platform, &SimOptions::with_scheduler(policy));
        best_nonsteal = best_nonsteal.min(sim.makespan);
        println!(
            "{:<16} makespan {:>11.6}s  {:>5} msgs",
            policy.name(),
            sim.makespan,
            sim.messages
        );
    }
    let steal_opts = SimOptions::with_scheduler(SchedPolicy::Eft).with_stealing();
    let steal_sim = sf.simulate_with(&platform, &steal_opts);
    println!(
        "{:<16} makespan {:>11.6}s  {:>5} msgs  ({:.2}% under best non-steal)",
        "eft + stealing",
        steal_sim.makespan,
        steal_sim.messages,
        100.0 * (best_nonsteal - steal_sim.makespan) / best_nonsteal,
    );
    assert!(
        steal_sim.makespan <= 0.90 * best_nonsteal,
        "steal-eft must beat the best non-steal policy by >= 10% on the \
         contended mixed cluster ({:.6}s vs {best_nonsteal:.6}s)",
        steal_sim.makespan
    );
    // Probes must observe the stealing pass without perturbing it.
    let steal_probe = Probe::enabled();
    let (probed_sim, steal_report) = sf.simulate_probed(&platform, &steal_opts, &steal_probe);
    assert_eq!(
        probed_sim, steal_sim,
        "probed and unprobed stealing replays must agree exactly"
    );
    let snap = steal_report.snapshot.clone();
    let steals = snap.counter(metric::SCHED_STEALS, Label::Policy("eft"));
    let kept = snap.counter(metric::SCHED_STEAL_KEPT, Label::Policy("eft"));
    assert!(steals > 0, "coarse-tile replay must actually steal");
    let satt = steal_report.attribution.as_ref().expect("probed replay");
    println!("steal-EFT attribution ({steals} re-homed, {kept} kept on their owner):");
    for (node, bucket) in satt.nodes.iter().enumerate() {
        println!(
            "node{node:<4} compute {:>5.1}%  transfer {:>5.1}%  contention {:>5.1}%  idle {:>5.1}%",
            100.0 * bucket.compute / satt.makespan,
            100.0 * bucket.transfer / satt.makespan,
            100.0 * bucket.contention / satt.makespan,
            100.0 * bucket.idle / satt.makespan,
        );
    }

    // The same policies drive the *online* engine of the distributed
    // streaming runtime — no graph materialized, same decision quality.
    println!("\nonline distributed streaming (window 4):");
    for policy in [SchedPolicy::Fifo, SchedPolicy::Eft] {
        let d = factor_stream_distributed_with(&a, &b, &opts, &platform, 4, policy)
            .expect("grid fits platform");
        println!(
            "{:<16} makespan {:>11.6}s  {:>5} msgs  peak {:>5} live tasks",
            policy.name(),
            d.sim.makespan,
            d.sim.messages,
            d.stream.report.peak_live_tasks,
        );
        assert_eq!(
            d.solution().max_abs_diff(&f.solution()),
            0.0,
            "scheduling must never change the factorization"
        );
    }

    // ---- probed EFT replay: where does the makespan go? ----------------
    let probe = Probe::enabled();
    let sim_opts = SimOptions::with_scheduler(SchedPolicy::Eft);
    let (sim, report) = f.simulate_probed(&platform, &sim_opts, &probe);
    let trace_json = render_chrome_trace(
        &sim_events(&f.graph, &sim),
        &TraceOptions {
            platform: Some(&platform),
            policy: Some(sim_opts.scheduler),
            counters: Some(&report.snapshot),
        },
    );
    let att = report.attribution.as_ref().expect("probed replay");
    println!(
        "\nEFT makespan attribution ({:.6}s makespan, per node):",
        att.makespan
    );
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>10}",
        "node", "compute", "transfer", "contention", "idle"
    );
    for (node, bucket) in att.nodes.iter().enumerate() {
        println!(
            "node{node:<4} {:>9.1}% {:>9.1}% {:>11.1}% {:>9.1}%",
            100.0 * bucket.compute / att.makespan,
            100.0 * bucket.transfer / att.makespan,
            100.0 * bucket.contention / att.makespan,
            100.0 * bucket.idle / att.makespan,
        );
        let total = bucket.total();
        assert!(
            (total - att.makespan).abs() <= 1e-9 * att.makespan,
            "node{node}: attribution sums to {total}, makespan {}",
            att.makespan
        );
    }
    assert!(trace_json.contains("[eft]"), "policy-stamped lanes missing");
    assert!(
        trace_json.contains("\"ph\": \"C\""),
        "counter tracks missing from merged trace"
    );

    // A probed *streaming* run feeds the Prometheus exposition: live
    // window/scheduler/kernel metrics from the online engine.
    let stream_probe = Probe::enabled();
    let stream_opts = StreamOptions::fixed(4, opts.threads)
        .with_scheduler(SchedPolicy::Eft)
        .with_probe(stream_probe.clone());
    factor_stream_distributed_opts(&a, &b, &opts, &platform, &stream_opts)
        .expect("grid fits platform");

    // ---- telemetry exports ---------------------------------------------
    let dir = std::env::var_os("LUQR_PROBE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&dir).expect("create probe dir");
    let trace_path = dir.join("sched_trace.json");
    std::fs::write(&trace_path, &trace_json).expect("write trace");
    let report_path = dir.join("probe_report.json");
    std::fs::write(&report_path, to_json(&report)).expect("write report");
    let prom_path = dir.join("probe.prom");
    std::fs::write(&prom_path, to_prometheus(&stream_probe.report())).expect("write prom");
    println!(
        "\ntelemetry written:\n  {} (Chrome spans + counter tracks; lanes read e.g. \
         \"node2 (4c @ 4.26 GF) [eft]\")\n  {} (structured JSON)\n  {} (Prometheus text)",
        trace_path.display(),
        report_path.display(),
        prom_path.display()
    );
}
