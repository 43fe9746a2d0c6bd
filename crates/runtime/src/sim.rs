//! Discrete-event platform simulator.
//!
//! Replays an **executed** task graph on a virtual cluster ([`Platform`]):
//! every task runs on one core of its owner node (owner-computes placement,
//! as the 2D block-cyclic distribution dictates), data crossing node
//! boundaries costs `latency + bytes/bandwidth` serialized on the sender's
//! NIC, and each task's duration comes from its *recorded* flops and kernel
//! class. A datum is sent **once per destination node** regardless of how
//! many tasks there consume it (runtimes cache remote tiles), and discarded
//! tasks (the unselected LU/QR branch) take zero time and move zero data —
//! like PaRSEC's dropped alternatives.
//!
//! The replay is a thin driver over [`crate::vtime::VirtualSchedule`]: the
//! graph's tasks are fed to the online engine in insertion order, which is
//! exactly what the *streaming* runtime does as its window drains — so a
//! windowed run's virtual-time report and a batch replay of the equivalent
//! graph are bitwise identical (the engine's state depends only on the
//! sequence of executed tasks, and discarded branches contribute nothing).
//!
//! **Scheduling policy.** [`simulate`] produces an insertion-order list
//! schedule: task `i` claims cores and network slots strictly after tasks
//! `0..i` (a valid topological order — hazard edges always point
//! forward). That order is one policy among several: [`simulate_with`]
//! routes the replay through the pluggable scheduler subsystem
//! ([`crate::sched`]), where a [`crate::sched::Scheduler`] picks which
//! *ready* task advances the virtual clock next — FIFO (pinning this
//! function bitwise), critical-path, locality-aware, or HEFT-style
//! earliest finish time. Scheduling never changes the factorization or
//! the data flow (messages/bytes are policy-invariant); it only chooses
//! which valid list schedule the platform model costs.
//!
//! This is the performance vehicle of the reproduction: the build machine
//! cannot physically reproduce a 128-core cluster, but the task graph it
//! executed *numerically* is the same graph the paper's runtime would
//! schedule, so replaying it against the Dancer platform model recovers the
//! paper's performance shapes (Figure 2, Table II).

use crate::comm::LinkTraffic;
use crate::graph::{CostClass, Graph};
use crate::platform::Platform;
use crate::probe::{Probe, ProbeReport};
use crate::sched::{SchedEngine, SchedPolicy};
use crate::vtime::VirtualSchedule;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOptions {
    /// Ready-task selection policy for the virtual-time schedule (see
    /// [`crate::sched`]). [`SchedPolicy::Fifo`] reproduces [`simulate`]
    /// bitwise.
    pub scheduler: SchedPolicy,
    /// EFT-guided work stealing
    /// ([`crate::sched::SchedEngine::with_stealing`]): after the policy
    /// picks the next task, re-decide its execution node by finish
    /// estimate. Off by default — stealing moves the data flow, so
    /// message/byte totals are only policy-invariant without it.
    pub steal: bool,
}

impl SimOptions {
    pub fn with_scheduler(scheduler: SchedPolicy) -> Self {
        SimOptions {
            scheduler,
            steal: false,
        }
    }

    /// Enable the stealing pass on top of the selected policy.
    pub fn with_stealing(mut self) -> Self {
        self.steal = true;
        self
    }
}

/// Result of simulating a graph on a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end simulated time, seconds.
    pub makespan: f64,
    /// Sum of task durations (serial time), seconds.
    pub serial_seconds: f64,
    /// Longest dependency chain including communication delays, seconds.
    pub critical_path: f64,
    /// Inter-node messages sent.
    pub messages: u64,
    /// Inter-node bytes moved.
    pub bytes: u64,
    /// Per-node busy seconds.
    pub node_busy: Vec<f64>,
    /// Per-node, per-cost-class busy seconds (duration × cores claimed),
    /// indexed `[node][CostClass::index()]` — the observation the
    /// criterion-aware weight recalibration keys on.
    pub node_class_seconds: Vec<[f64; CostClass::COUNT]>,
    /// Per-node, per-cost-class executed flops (Memory entries carry the
    /// moved bytes, as everywhere in the cost model).
    pub node_class_flops: Vec<[f64; CostClass::COUNT]>,
    /// Total executed flops (Memory/Control excluded).
    pub total_flops: f64,
    /// Per-(src, dst) payload traffic, in link order. Sums to `messages`
    /// / `bytes`; identical across every engine path for the same run
    /// (the network model tallies at its one send chokepoint).
    pub link_messages: Vec<LinkTraffic>,
    /// Per-task start times (simulation seconds, by task id).
    pub starts: Vec<f64>,
    /// Per-task finish times.
    pub finishes: Vec<f64>,
}

impl SimReport {
    /// Achieved GFLOP/s for the executed work.
    pub fn gflops(&self) -> f64 {
        if self.makespan > 0.0 {
            self.total_flops / self.makespan / 1e9
        } else {
            0.0
        }
    }

    /// GFLOP/s normalized to a nominal operation count (the paper reports
    /// `2/3 N³ / time` regardless of the algorithm's true flops).
    pub fn gflops_normalized(&self, nominal_flops: f64) -> f64 {
        if self.makespan > 0.0 {
            nominal_flops / self.makespan / 1e9
        } else {
            0.0
        }
    }

    /// Fraction of the platform peak achieved (on executed flops).
    pub fn peak_fraction(&self, platform: &Platform) -> f64 {
        self.gflops() / platform.peak_gflops()
    }

    /// Average utilization over the makespan, across every core of the
    /// platform (heterogeneous platforms weight each node by its own core
    /// count).
    pub fn avg_utilization(&self, platform: &Platform) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.node_busy.iter().sum();
        busy / (self.makespan * platform.total_cores() as f64)
    }

    /// Observed effective speed of every node on *this run's* kernel mix:
    /// executed compute flops over per-core busy seconds, scaled by the
    /// node's core count (GFLOP/s). Where the platform's
    /// [`Platform::node_speeds`] keys on GEMM throughput alone, this folds
    /// in whatever classes the run actually executed — a QR-heavy hybrid
    /// run weights nodes by their QR throughput. Nodes that executed no
    /// compute work report `0.0` (callers substitute a floor; see
    /// `luqr_tile::Dist::calibrated`).
    pub fn observed_node_speeds(&self, platform: &Platform) -> Vec<f64> {
        self.node_class_seconds
            .iter()
            .zip(&self.node_class_flops)
            .enumerate()
            .map(|(n, (secs, flops))| {
                let (mut f, mut s) = (0.0f64, 0.0f64);
                for class in CostClass::ALL {
                    if class.is_compute() {
                        f += flops[class.index()];
                        s += secs[class.index()];
                    }
                }
                if s > 0.0 {
                    platform.node(n).cores as f64 * f / s / 1e9
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Per-node utilization over the makespan: `busy / (makespan × cores)`
    /// for each node, using that node's own core count. On a well-balanced
    /// heterogeneous run these are roughly equal; a slow node pinned near
    /// 1.0 while fast nodes idle is the signature of a speed-blind tile
    /// distribution.
    pub fn node_utilization(&self, platform: &Platform) -> Vec<f64> {
        self.node_busy
            .iter()
            .enumerate()
            .map(|(n, &busy)| {
                if self.makespan <= 0.0 {
                    0.0
                } else {
                    busy / (self.makespan * platform.node(n).cores as f64)
                }
            })
            .collect()
    }
}

/// Simulate an executed graph on `platform` under the insertion-order
/// (FIFO) schedule — the policy-free reference path that
/// [`SchedPolicy::Fifo`] pins bitwise (see `sched_props.rs`).
///
/// Panics if any task lacks a recorded result (run
/// [`crate::exec::execute`] first) or is placed on a node outside the
/// platform.
pub fn simulate(graph: &Graph, platform: &Platform) -> SimReport {
    if let Err(e) = platform.require_nodes(graph.num_nodes) {
        panic!(
            "cannot simulate: {e} (graph placements reference {} nodes)",
            graph.num_nodes
        );
    }
    let mut v = VirtualSchedule::with_spans(platform);
    for t in &graph.tasks {
        let r = t
            .result()
            .unwrap_or_else(|| panic!("task '{}' has no result; execute first", t.name));
        v.process(t.node, &t.accesses, &r);
    }
    v.report()
}

/// Simulate an executed graph under a scheduling policy: the whole graph
/// is submitted to the policy-driven engine ([`SchedEngine`], full
/// lookahead) and drained in the order the policy selects. Report spans
/// stay indexed by task id whatever order that is.
pub fn simulate_with(graph: &Graph, platform: &Platform, opts: &SimOptions) -> SimReport {
    replay(graph, platform, opts, None).report()
}

/// [`simulate_with`] with metrics probes attached: tasks are tagged with
/// their elimination step (parsed from the task name), the probe's
/// registry fills with scheduler / network / vtime metrics as the replay
/// runs, and the makespan-attribution pass lands in the returned
/// [`ProbeReport`]. The [`SimReport`] is bitwise identical to an unprobed
/// [`simulate_with`] run — probes observe the schedule, never shape it.
pub fn simulate_probed(
    graph: &Graph,
    platform: &Platform,
    opts: &SimOptions,
    probe: &Probe,
) -> (SimReport, ProbeReport) {
    let mut eng = replay(graph, platform, opts, Some(probe));
    eng.flush_probe();
    if let Some(att) = eng.attribution() {
        probe.set_attribution(att);
    }
    (eng.report(), probe.report())
}

/// Submit every task of `graph` to a policy-driven engine (tagged with
/// its elimination step when `probe` is attached) and drain it.
fn replay(
    graph: &Graph,
    platform: &Platform,
    opts: &SimOptions,
    probe: Option<&Probe>,
) -> SchedEngine {
    if let Err(e) = platform.require_nodes(graph.num_nodes) {
        panic!(
            "cannot simulate: {e} (graph placements reference {} nodes)",
            graph.num_nodes
        );
    }
    let mut eng = SchedEngine::with_spans(platform, opts.scheduler);
    if opts.steal {
        eng = eng.with_stealing();
    }
    if let Some(probe) = probe {
        eng.attach_probe(probe);
    }
    for t in &graph.tasks {
        let r = t
            .result()
            .unwrap_or_else(|| panic!("task '{}' has no result; execute first", t.name));
        let step = probe.and_then(|_| crate::trace::step_index(&t.name));
        eng.submit_tagged(t.node, &t.accesses, r, step);
    }
    eng.drain();
    eng
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::graph::{Access, CostClass, DataKey, GraphBuilder, TaskResult};

    fn k(i: u64) -> DataKey {
        DataKey(i)
    }

    use crate::platform::{Efficiency, LinkSpec, NodeSpec, Topology};

    fn flat_platform(nodes: usize, cores: usize) -> Platform {
        Platform::uniform(
            nodes,
            NodeSpec {
                cores,
                core_gflops: 1.0, // 1 GFLOP/s at flat efficiency
                efficiency: Efficiency::flat(),
            },
            LinkSpec::new(1.0, 1e9),
            1e9,
        )
    }

    /// 1 GFLOP at 1 GFLOP/s = 1 second per task.
    fn one_sec_task() -> TaskResult {
        TaskResult::executed(1e9, CostClass::Gemm)
    }

    #[test]
    fn serial_chain_equals_sum() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 0, 0);
        for i in 0..5 {
            b.task(format!("t{i}"), 0, &[Access::Mut(k(0))], one_sec_task);
        }
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(1, 4));
        assert!((r.makespan - 5.0).abs() < 1e-9);
        assert!((r.critical_path - 5.0).abs() < 1e-9);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn independent_tasks_fill_cores() {
        let mut b = GraphBuilder::new(1);
        for i in 0..8u64 {
            b.declare(k(i), 0, 0);
            b.task(format!("t{i}"), 0, &[Access::Mut(k(i))], one_sec_task);
        }
        let g = b.build();
        execute(&g, 1);
        // 8 unit tasks on 4 cores => 2 seconds.
        let r = simulate(&g, &flat_platform(1, 4));
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert!((r.serial_seconds - 8.0).abs() < 1e-9);
        // Critical path is one task.
        assert!((r.critical_path - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cross_node_edge_pays_latency() {
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 1000, 0);
        b.task("producer", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("consumer", 1, &[Access::Read(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let p = flat_platform(2, 1);
        let r = simulate(&g, &p);
        // 1s task + (1s latency + 1e-6s wire) + 1s task.
        assert!(r.makespan > 3.0 && r.makespan < 3.01, "{}", r.makespan);
        assert_eq!(r.messages, 1);
        assert_eq!(r.bytes, 1000);
    }

    #[test]
    fn same_node_edge_is_free() {
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 1000, 0);
        b.task("p", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("c", 0, &[Access::Read(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(2, 1));
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn discarded_tasks_cost_nothing() {
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 1_000_000, 0);
        b.task("real", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("dead", 1, &[Access::Mut(k(0))], TaskResult::discarded);
        b.task("after", 0, &[Access::Mut(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(2, 1));
        assert!((r.makespan - 2.0).abs() < 1e-9, "{}", r.makespan);
        assert_eq!(r.messages, 0);
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn zero_latency_is_pure_bandwidth_cost() {
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 500_000_000, 0); // 0.5 s of wire at 1 GB/s
        b.task("p", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("c", 1, &[Access::Read(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let p = flat_platform(2, 1).with_latency(0.0);
        let r = simulate(&g, &p);
        // 1s task + 0.5s wire (no latency) + 1s task.
        assert!((r.makespan - 2.5).abs() < 1e-9, "{}", r.makespan);
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn initial_data_fetched_from_home() {
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 1000, 1); // lives on node 1
        b.task("t", 0, &[Access::Read(k(0))], one_sec_task); // runs on node 0
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(2, 1));
        assert!(r.makespan > 2.0, "fetch latency must delay start");
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn initial_fetch_cached_per_node() {
        // Two tasks on node 0 reading the same remote datum: one fetch.
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 1000, 1);
        b.task("t1", 0, &[Access::Read(k(0))], one_sec_task);
        b.task("t2", 0, &[Access::Read(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(2, 2));
        assert_eq!(r.messages, 1, "datum must be fetched once per node");
    }

    #[test]
    fn broadcast_sends_once_per_destination_node() {
        // Producer on node 0; 3 consumer tasks on node 1, 2 on node 2:
        // exactly 2 messages (one per destination node).
        let mut b = GraphBuilder::new(3);
        b.declare(k(0), 1000, 0);
        b.task("p", 0, &[Access::Mut(k(0))], one_sec_task);
        for i in 0..3 {
            b.task(format!("c1_{i}"), 1, &[Access::Read(k(0))], one_sec_task);
        }
        for i in 0..2 {
            b.task(format!("c2_{i}"), 2, &[Access::Read(k(0))], one_sec_task);
        }
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(3, 4));
        assert_eq!(r.messages, 2);
        assert_eq!(r.bytes, 2000);
    }

    #[test]
    fn makespan_bounded_by_critical_path_and_serial() {
        // Chain of diamonds.
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 0, 0);
        b.declare(k(1), 0, 0);
        b.declare(k(2), 0, 0);
        for _ in 0..6 {
            b.task("fork", 0, &[Access::Mut(k(0))], one_sec_task);
            b.task(
                "l",
                0,
                &[Access::Read(k(0)), Access::Mut(k(1))],
                one_sec_task,
            );
            b.task(
                "r",
                0,
                &[Access::Read(k(0)), Access::Mut(k(2))],
                one_sec_task,
            );
            b.task(
                "join",
                0,
                &[Access::Read(k(1)), Access::Read(k(2)), Access::Mut(k(0))],
                one_sec_task,
            );
        }
        let g = b.build();
        execute(&g, 2);
        let r = simulate(&g, &flat_platform(1, 2));
        assert!(r.makespan >= r.critical_path - 1e-9);
        assert!(r.makespan <= r.serial_seconds + 1e-9);
        // With 2 cores the two middle tasks overlap: 3 s per diamond.
        assert!((r.makespan - 18.0).abs() < 1e-9, "{}", r.makespan);
    }

    #[test]
    fn heterogeneous_platform_stretches_slow_node_tasks() {
        // The same two independent unit tasks, one per node; node 1 runs
        // at a quarter speed, so it alone sets the makespan and its
        // utilization stays at 1.0 while the fast node idles.
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 0, 0);
        b.declare(k(1), 0, 1);
        b.task("fast", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("slow", 1, &[Access::Mut(k(1))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let p = Platform::heterogeneous(
            vec![
                NodeSpec {
                    cores: 1,
                    core_gflops: 1.0,
                    efficiency: Efficiency::flat(),
                },
                NodeSpec {
                    cores: 1,
                    core_gflops: 0.25,
                    efficiency: Efficiency::flat(),
                },
            ],
            Topology::Uniform(LinkSpec::new(1.0, 1e9)),
            1e9,
        );
        let r = simulate(&g, &p);
        assert!((r.makespan - 4.0).abs() < 1e-9, "{}", r.makespan);
        let util = r.node_utilization(&p);
        assert!((util[0] - 0.25).abs() < 1e-9, "{util:?}");
        assert!((util[1] - 1.0).abs() < 1e-9, "{util:?}");
        // Aggregate utilization averages over the platform's cores.
        assert!((r.avg_utilization(&p) - 0.625).abs() < 1e-9);
    }

    #[test]
    fn simulate_with_fifo_matches_simulate_bitwise() {
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 1000, 0);
        b.declare(k(1), 500, 1);
        b.task("p", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task(
            "q",
            1,
            &[Access::Read(k(0)), Access::Mut(k(1))],
            one_sec_task,
        );
        b.task("dead", 0, &[Access::Mut(k(0))], TaskResult::discarded);
        b.task("r", 0, &[Access::Read(k(1))], one_sec_task);
        let g = b.build();
        execute(&g, 2);
        let p = flat_platform(2, 2);
        assert_eq!(
            simulate(&g, &p),
            simulate_with(&g, &p, &SimOptions::default())
        );
    }

    #[test]
    fn probed_replay_is_bitwise_identical_and_reconciles() {
        use crate::probe::Probe;

        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 1000, 0);
        b.declare(k(1), 500, 1);
        b.task("PANEL(k=0)", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task(
            "GEMM(0,1,k=0)",
            1,
            &[Access::Read(k(0)), Access::Mut(k(1))],
            one_sec_task,
        );
        b.task("dead", 0, &[Access::Mut(k(0))], TaskResult::discarded);
        b.task("GEMM(1,1,k=1)", 0, &[Access::Read(k(1))], one_sec_task);
        let g = b.build();
        execute(&g, 2);
        let p = flat_platform(2, 2);
        for policy in SchedPolicy::all() {
            let opts = SimOptions::with_scheduler(policy);
            let plain = simulate_with(&g, &p, &opts);
            let probe = Probe::enabled();
            let (probed, report) = simulate_probed(&g, &p, &opts, &probe);
            assert_eq!(plain, probed, "probes must not perturb {policy:?}");
            let att = report.attribution.expect("attribution with probes on");
            assert!(
                att.max_reconciliation_error() <= 1e-9 * att.makespan.max(1.0),
                "{policy:?}: {}",
                att.max_reconciliation_error()
            );
            assert!(
                att.steps.iter().any(|(s, _)| *s == Some(0)),
                "{policy:?} must tag step 0"
            );
        }
    }

    #[test]
    fn observed_node_speeds_reflect_the_class_mix() {
        // Node 0 runs GEMM at full efficiency, node 1 runs QR applies at
        // a tenth: the observed speeds must report the achieved — not the
        // nominal — throughput of each.
        use crate::platform::Efficiency;
        let eff = Efficiency {
            qr_apply: 0.1,
            ..Efficiency::flat()
        };
        let p = Platform::heterogeneous(
            vec![
                NodeSpec {
                    cores: 2,
                    core_gflops: 1.0,
                    efficiency: Efficiency::flat(),
                },
                NodeSpec {
                    cores: 2,
                    core_gflops: 1.0,
                    efficiency: eff,
                },
            ],
            Topology::Uniform(LinkSpec::new(0.0, 1e9)),
            1e9,
        );
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 0, 0);
        b.declare(k(1), 0, 1);
        b.task("gemm", 0, &[Access::Mut(k(0))], || {
            TaskResult::executed(1e9, CostClass::Gemm)
        });
        b.task("qr", 1, &[Access::Mut(k(1))], || {
            TaskResult::executed(1e9, CostClass::QrApply)
        });
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &p);
        let speeds = r.observed_node_speeds(&p);
        // Node 0: 1 GFLOP in 1 s on one core × 2 cores = 2 GFLOP/s.
        assert!((speeds[0] - 2.0).abs() < 1e-9, "{speeds:?}");
        // Node 1: 1 GFLOP in 10 s on one core × 2 cores = 0.2 GFLOP/s.
        assert!((speeds[1] - 0.2).abs() < 1e-9, "{speeds:?}");
        // An idle third node would report 0.0 — covered by the per-class
        // tables being all zero here for unused classes.
        assert_eq!(r.node_class_flops[0][CostClass::QrApply.index()], 0.0);
    }

    #[test]
    fn backbone_contention_stretches_makespan() {
        // Two producers on the fast island each feed a consumer on the
        // slow island; the transfers are the only serialization. With the
        // backbone an uncontended pair of links, they overlap; as a shared
        // trunk at the same bandwidth, one waits for the other and the
        // makespan stretches by the wire time.
        let build = || {
            let mut b = GraphBuilder::new(4);
            b.declare(k(0), 100_000_000, 0); // 0.1 s of wire at 1 GB/s
            b.declare(k(1), 100_000_000, 1);
            b.task("p0", 0, &[Access::Mut(k(0))], one_sec_task);
            b.task("p1", 1, &[Access::Mut(k(1))], one_sec_task);
            b.task("c0", 2, &[Access::Read(k(0))], one_sec_task);
            b.task("c1", 3, &[Access::Read(k(1))], one_sec_task);
            let g = b.build();
            execute(&g, 1);
            g
        };
        let hier = Platform::uniform(
            4,
            NodeSpec {
                cores: 1,
                core_gflops: 1.0,
                efficiency: Efficiency::flat(),
            },
            LinkSpec::new(0.0, 1e9),
            1e9,
        )
        .with_topology(Topology::hierarchical(
            LinkSpec::new(0.0, 1e9),
            LinkSpec::new(0.0, 1e9),
            2,
        ));
        let free = simulate(&build(), &hier);
        let contended = simulate(&build(), &hier.clone().with_backbone(1e9));
        // Uncontended: 1 s produce + 0.1 s wire + 1 s consume.
        assert!((free.makespan - 2.1).abs() < 1e-9, "{}", free.makespan);
        // Shared trunk: the second transfer queues 0.1 s behind the first.
        assert!(
            (contended.makespan - 2.2).abs() < 1e-9,
            "trunk contention must stretch the makespan: {}",
            contended.makespan
        );
        assert_eq!(free.messages, contended.messages);
    }

    #[test]
    fn nic_serializes_distinct_sends() {
        // One producer on node 0 sending distinct 1 GB data to 3 other
        // nodes: egress serializes on node 0's NIC.
        let mut b = GraphBuilder::new(4);
        for i in 0..3u64 {
            b.declare(k(i), 1_000_000_000, 0);
        }
        let mut acc = vec![];
        for i in 0..3u64 {
            acc.push(Access::Mut(k(i)));
        }
        b.task("p", 0, &acc, one_sec_task);
        for i in 0..3u64 {
            b.task(
                format!("c{i}"),
                (i + 1) as usize,
                &[Access::Read(k(i))],
                one_sec_task,
            );
        }
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(4, 1));
        // p ends at 1; three 1s wire-time sends pipeline on the NIC:
        // arrivals ~3, ~4, ~5; last consumer ends ~6.
        assert!(
            r.makespan > 5.5,
            "NIC contention not modeled: {}",
            r.makespan
        );
        assert_eq!(r.messages, 3);
    }
}
