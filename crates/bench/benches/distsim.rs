//! Batch-replay vs. distributed-streaming simulation benchmark.
//!
//! Both pipelines end at the same place — a `SimReport` for the hybrid
//! factorization on the paper's Dancer platform — but get there
//! differently: the batch path materializes the full task graph (both
//! hybrid branches), executes it, then replays it through the
//! discrete-event simulator; the distributed streaming path plans only the
//! chosen branch inside a node-placed window and advances the virtual clocks
//! *online*, so no graph is ever materialized. The JSON baseline records,
//! next to the timings, the memory gap (batch task count vs. streaming
//! peak live tasks) and the agreement of the two reports (makespan,
//! messages).
//!
//! Custom harness (`luqr_bench::harness`, not `criterion_group!`): the
//! vendored criterion shim's fixed record schema cannot carry the extra
//! fields. `CRITERION_JSON=<path>` writes the baseline (see
//! `BENCH_distsim.json`).

use std::hint::black_box;

use luqr::{factor, factor_stream_distributed, Algorithm, Criterion as Crit, FactorOptions};
use luqr_bench::harness::{sample, write_json, Record};
use luqr_kernels::Mat;
use luqr_runtime::Platform;
use luqr_tile::Grid;

fn main() {
    let mut records: Vec<Record> = Vec::new();
    let platform = Platform::dancer_nodes(4);
    for n in [160usize, 240, 320] {
        let nb = 8;
        let a = Mat::random(n, n, 1);
        let b = Mat::random(n, 1, 2);
        let opts = FactorOptions {
            nb,
            ib: 4,
            threads: 1,
            grid: Grid::new(2, 2),
            algorithm: Algorithm::LuQr(Crit::Max { alpha: 1000.0 }),
            ..FactorOptions::default()
        };
        let group = format!("distsim-n{n}");
        let extra = |batch_tasks: usize, peak: usize, msgs: u64, makespan_ns: f64| {
            format!(
                ", \"batch_tasks\": {batch_tasks}, \"peak_live_tasks\": {peak}, \
                 \"sim_messages\": {msgs}, \"sim_makespan_ns\": {makespan_ns:.1}"
            )
        };

        let batch = factor(&a, &b, &opts);
        let batch_tasks = batch.graph.len();
        let replay = batch.simulate(&platform);
        let (min_ns, median_ns, mean_ns) = sample(|| {
            let f = factor(&a, &b, &opts);
            black_box(f.simulate(&platform));
        });
        records.push(Record {
            group: group.clone(),
            bench: "batch_replay".into(),
            min_ns,
            median_ns,
            mean_ns,
            extra_json: extra(
                batch_tasks,
                batch_tasks,
                replay.messages,
                replay.makespan * 1e9,
            ),
        });

        for window in [2usize, 4] {
            let probe = factor_stream_distributed(&a, &b, &opts, &platform, window)
                .expect("grid fits platform");
            assert_eq!(
                probe.sim.messages, replay.messages,
                "online sim diverged from batch replay"
            );
            let (min_ns, median_ns, mean_ns) = sample(|| {
                black_box(
                    factor_stream_distributed(&a, &b, &opts, &platform, window)
                        .expect("grid fits platform"),
                );
            });
            records.push(Record {
                group: group.clone(),
                bench: format!("dist_stream_w{window}"),
                min_ns,
                median_ns,
                mean_ns,
                extra_json: extra(
                    batch_tasks,
                    probe.stream.report.peak_live_tasks,
                    probe.sim.messages,
                    probe.sim.makespan * 1e9,
                ),
            });
        }
    }

    for r in &records {
        eprintln!(
            "bench {:<28} min {:>12.0} ns  median {:>12.0} ns  mean {:>12.0} ns{}",
            format!("{}/{}", r.group, r.bench),
            r.min_ns,
            r.median_ns,
            r.mean_ns,
            r.extra_json.replace("\", \"", "  ").replace('"', ""),
        );
    }
    write_json(&records);
}
