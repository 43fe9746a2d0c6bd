//! Replay one factorization's task graph on the paper's 16-node Dancer
//! cluster model and print achieved GFLOP/s, communication volume, and the
//! Figure 1 dataflow (Graphviz) for one step.
//!
//! ```sh
//! cargo run --release --example cluster_sim [N] [nb]
//! ```

use luqr::{factor, Algorithm, Criterion, FactorOptions};
use luqr_kernels::Mat;
use luqr_runtime::{render_chrome_trace, sim_events, Platform, TraceOptions};
use luqr_tile::Grid;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1600);
    let nb: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(80);

    let a = Mat::random(n, n, 3);
    let b = Mat::random(n, 1, 4);
    let platform = Platform::dancer();

    println!(
        "simulated Dancer cluster: {} nodes x {} cores, peak {:.0} GFLOP/s",
        platform.nodes(),
        platform.node(0).cores,
        platform.peak_gflops()
    );
    println!("N = {n}, nb = {nb}, grid 4x4\n");
    println!(
        "{:<22} {:>10} {:>10} {:>9} {:>10} {:>10}",
        "algorithm", "makespan", "GFLOP/s", "%peak", "messages", "MB moved"
    );

    for algorithm in [
        Algorithm::LuQr(Criterion::AlwaysLu),
        Algorithm::LuQr(Criterion::Max { alpha: 6000.0 }),
        Algorithm::LuQr(Criterion::AlwaysQr),
        Algorithm::Hqr,
        Algorithm::LuNoPiv,
        Algorithm::Lupp,
    ] {
        let opts = FactorOptions {
            nb,
            grid: Grid::new(4, 4),
            algorithm: algorithm.clone(),
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        let sim = f.simulate(&platform);
        println!(
            "{:<22} {:>9.4}s {:>10.1} {:>8.1}% {:>10} {:>10.1}",
            algorithm.name(),
            sim.makespan,
            sim.gflops_normalized(f.nominal_flops()),
            100.0 * sim.gflops() / platform.peak_gflops(),
            sim.messages,
            sim.bytes as f64 / 1e6,
        );
    }

    // Gantt trace of a representative run (chrome://tracing format).
    {
        let opts = FactorOptions {
            nb,
            grid: Grid::new(4, 4),
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: 6000.0 }),
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        let sim = f.simulate(&platform);
        let lanes = TraceOptions {
            platform: Some(&platform),
            ..TraceOptions::default()
        };
        let json = render_chrome_trace(&sim_events(&f.graph, &sim), &lanes);
        let path = std::env::temp_dir().join("luqr_trace.json");
        std::fs::write(&path, json).expect("write trace");
        println!(
            "\nGantt trace written to {} (open in chrome://tracing)",
            path.display()
        );
    }

    // Figure 1: the dataflow of one elimination step.
    let opts = FactorOptions {
        nb: n / 4,
        grid: Grid::new(2, 1),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 6000.0 }),
        ..FactorOptions::default()
    };
    let f = factor(&a, &b, &opts);
    let dot = f.dot_for_step(1);
    let path = std::env::temp_dir().join("luqr_step1.dot");
    std::fs::write(&path, &dot).expect("write dot");
    println!(
        "\nFigure-1-style dataflow of step 1 written to {}",
        path.display()
    );
    println!("render with: dot -Tpng {} -o step1.png", path.display());
}
