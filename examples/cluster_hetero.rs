//! Heterogeneous-cluster demo: per-node specs, a hierarchical network,
//! and speed-aware tile distribution.
//!
//! The platform is a mixed cluster the paper's Dancer never was: one
//! island of two fast nodes (8 cores @ 8.52 GFLOP/s) and one island of two
//! slow nodes (4 cores @ 4.26 GFLOP/s), fast intra-island links, a slower
//! inter-island backbone. The same hybrid factorization runs through the
//! distributed streaming runtime twice:
//!
//! 1. **plain block-cyclic** — every node owns the same tile share, so the
//!    slow island sets the pace while the fast island idles;
//! 2. **speed-weighted block-cyclic** — fast grid rows repeat more often
//!    in the ownership pattern, giving fast nodes proportionally more
//!    tiles ([`luqr_tile::Dist::speed_weighted`]).
//!
//! The weighted run must beat the plain one on simulated makespan — that
//! is the point of modeling heterogeneity at all — and the per-node
//! utilization table shows why. A Chrome trace with lanes named by node
//! spec (`node2 (4c @ 4.26 GF)`) is written for `chrome://tracing`.
//!
//! ```sh
//! cargo run --release --example cluster_hetero [N] [nb]
//! ```

use luqr::{factor_stream_distributed, Algorithm, Criterion, DistPolicy, FactorOptions};
use luqr_runtime::{render_chrome_trace, sim_events, Platform, TraceOptions};
use luqr_tile::Grid;

#[path = "support/mod.rs"]
mod support;
use support::dominant_system as system;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(320);
    let nb: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    // Fast island = grid row 0, slow island = grid row 1.
    let platform = Platform::mixed_islands();
    let grid = Grid::new(2, 2);
    let window = 4;
    println!("mixed cluster ({} nodes, grid 2x2):", platform.nodes());
    for (rank, spec) in platform.specs.iter().enumerate() {
        println!(
            "  node{rank}: {:<14} peak {:>6.1} GFLOP/s",
            spec.label(),
            spec.peak_gflops()
        );
    }
    println!(
        "  network: islands of 2, intra 20 Gbit/s, inter 10 Gbit/s backbone\n\
         N = {n}, nb = {nb}, window = {window}\n"
    );

    let (a, b) = system(n);
    let mut runs = Vec::new();
    for (label, dist) in [
        ("block-cyclic", DistPolicy::BlockCyclic),
        (
            "speed-weighted",
            DistPolicy::SpeedWeighted(platform.node_speeds()),
        ),
    ] {
        let opts = FactorOptions {
            nb,
            ib: nb / 2,
            grid,
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
            dist,
            ..FactorOptions::default()
        };
        let f = factor_stream_distributed(&a, &b, &opts, &platform, window)
            .expect("grid fits platform");
        assert!(f.stream.error.is_none(), "breakdown: {:?}", f.stream.error);
        let util = f.sim.node_utilization(&platform);
        println!(
            "{label:<16} makespan {:>9.5}s  {:>7.1} GFLOP/s  {:>5} msgs  {:>6.2} MB",
            f.sim.makespan,
            f.sim.gflops_normalized(2.0 / 3.0 * (n as f64).powi(3)),
            f.sim.messages,
            f.sim.bytes as f64 / 1e6,
        );
        println!(
            "{:<16} node utilization: {}",
            "",
            util.iter()
                .enumerate()
                .map(|(i, u)| format!("n{i} {:>4.0}%", 100.0 * u))
                .collect::<Vec<_>>()
                .join("  ")
        );
        runs.push((label, f));
    }

    let plain = runs[0].1.sim.makespan;
    let weighted = runs[1].1.sim.makespan;
    println!(
        "\nspeed-weighted vs block-cyclic: {:.2}x faster ({:.5}s vs {:.5}s)",
        plain / weighted,
        weighted,
        plain
    );
    // The acceptance bar: weighting must actually pay on a mixed cluster.
    // With only a handful of tile rows the pattern cannot rebalance
    // anything (most of the matrix lands on the fast island and cross-node
    // parallelism collapses), so the bar applies at a meaningful scale.
    if n.div_ceil(nb) >= 12 {
        assert!(
            weighted < plain,
            "speed-weighted distribution must beat plain block-cyclic \
             ({weighted}s vs {plain}s)"
        );
    } else {
        println!("(matrix too small for the weighting to matter; skipping the speedup bar)");
    }

    // Chrome trace of the weighted run, lanes named by node spec.
    let (a_small, b_small) = system((4 * nb).max(n / 4));
    let opts = FactorOptions {
        nb,
        ib: nb / 2,
        grid,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        dist: DistPolicy::SpeedWeighted(platform.node_speeds()),
        ..FactorOptions::default()
    };
    let f = luqr::factor(&a_small, &b_small, &opts);
    let sim = f.simulate(&platform);
    let lanes = TraceOptions {
        platform: Some(&platform),
        ..TraceOptions::default()
    };
    let json = render_chrome_trace(&sim_events(&f.graph, &sim), &lanes);
    let path = std::env::temp_dir().join("luqr_hetero_trace.json");
    std::fs::write(&path, &json).expect("write trace");
    assert!(json.contains("node2 (4c @ 4.26 GF)"), "named lanes missing");
    println!(
        "trace with spec-named lanes written to {} (open in chrome://tracing)",
        path.display()
    );
}
