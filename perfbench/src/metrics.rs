//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction, in print order. `BENCHMARK.json` declares the same
//! lists (a unit test keeps the two in step).

use std::collections::BTreeMap;

use luqr_runtime::CostClass;

use crate::json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// Metrics of the untraced run (`--trace 0`), as a user of the solver sees
/// them.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("solve_s", "s", "lower"),
        m("solve_s_p90", "s", "lower"),
        m("gflops", "GF/s", "higher"),
        m("hpl3", "ratio", "lower"),
        m("ok_frac", "ratio", "higher"),
        m("setup_s", "s", "lower"),
        m("peak_rss_mb", "MB", "lower"),
    ]
}

/// Kernel classes reported per layer, by their label in metric names.
/// `Control` tasks do no kernel work and only count toward task busy time.
pub const CLASSES: [(CostClass, &str); 7] = [
    (CostClass::Gemm, "gemm"),
    (CostClass::Trsm, "trsm"),
    (CostClass::PanelFactor, "panel_factor"),
    (CostClass::QrFactor, "qr_factor"),
    (CostClass::QrApply, "qr_apply"),
    (CostClass::Estimate, "estimate"),
    (CostClass::Memory, "memory"),
];

/// Standalone tile kernels timed at the workload's tile size for the
/// same-run ceiling.
pub const MICRO: [&str; 7] = ["gemm", "trsm", "getrf", "geqrt", "unmqr", "tsqrt", "tsmqr"];

/// Metrics of the traced run (`--trace 1`), one layer each. A workload
/// that never enters a layer reports 0 for it.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("tile.layout_s", "s", "lower"),
        m("builder.plan_s", "s", "lower"),
        m("builder.tasks_inserted", "count", "lower"),
        m("builder.useful_ratio", "ratio", "higher"),
        m("criteria.lu_steps", "count", "higher"),
        m("criteria.qr_steps", "count", "lower"),
    ];
    for (class, label) in CLASSES {
        v.push(m(format!("kernels.{label}.busy_s"), "s", "lower"));
        // Memory tasks move bytes; a flop rate would be meaningless.
        if class.is_compute() {
            v.push(m(format!("kernels.{label}.gflops"), "GF/s", "higher"));
            v.push(m(format!("kernels.{label}.frac_gemm"), "ratio", "higher"));
        }
    }
    for k in MICRO {
        v.push(m(format!("kernels.micro.{k}.gflops"), "GF/s", "higher"));
        if k != "gemm" {
            v.push(m(format!("kernels.micro.{k}.frac_gemm"), "ratio", "higher"));
        }
    }
    v.extend([
        m("exec.wall_s", "s", "lower"),
        m("exec.task_busy_s", "s", "lower"),
        m("exec.nonkernel_us_per_task", "us", "lower"),
        m("stream.wall_s", "s", "lower"),
        m("stream.task_busy_s", "s", "lower"),
        m("stream.nonkernel_us_per_task", "us", "lower"),
        m("stream.tasks_planned", "count", "lower"),
        m("stream.peak_live_tasks", "count", "lower"),
        m("stream.vs_batch_ratio", "ratio", "lower"),
        m("comm.data_msgs", "count", "lower"),
        m("comm.decision_msgs", "count", "lower"),
        m("comm.retire_msgs", "count", "lower"),
        m("vtime.makespan_s", "s", "lower"),
        m("sched.decision_ns_per_pop", "ns", "lower"),
        m("net.frames_sent", "count", "lower"),
        m("net.payload_bytes_sent", "B", "lower"),
        m("net.serialize_s", "s", "lower"),
        m("net.deserialize_s", "s", "lower"),
        m("net.overhead_s", "s", "lower"),
        m("net.channel_frames_per_s", "1/s", "higher"),
        m("solve.backsub_s", "s", "lower"),
        m("trace.overhead_frac", "ratio", "lower"),
        m("trace.unattributed_frac", "ratio", "lower"),
    ]);
    v
}

/// The `metrics` object of the result line: every metric of `catalogue`
/// in order, taking its value from `values` (0 where absent).
pub fn to_json(catalogue: &[Metric], values: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|c| {
            let v = values.get(&c.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&c.name),
                json::number(v),
                json::string(c.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = BTreeSet::new();
        for metric in &all {
            assert!(
                valid_name(&metric.name),
                "bad metric name {:?}",
                metric.name
            );
            assert!(
                seen.insert(metric.name.clone()),
                "duplicate {}",
                metric.name
            );
            assert!(matches!(metric.better, "lower" | "higher"));
            assert!(metric.unit.len() <= 16);
        }
        assert!(per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` must declare exactly the metrics the program
    /// prints, with the same units and directions.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let mut declared = 0;
        for metric in end_to_end().into_iter().chain(per_layer()) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
            declared += 1;
        }
        let workloads = crate::workload::NAMES.len();
        assert_eq!(compact.matches("\"name\":").count(), declared + workloads);
        for w in crate::workload::NAMES {
            assert!(compact.contains(&format!("{{\"name\":\"{w}\",\"why\":")));
        }
    }
}
