//! Windowed streaming executor: online graph unrolling.
//!
//! The batch pipeline ([`crate::graph::GraphBuilder`] → [`crate::exec::execute`])
//! materializes the *entire* task graph — O(N³) task records for a tiled
//! factorization, both branches of every hybrid step — before running a
//! single kernel. This module interleaves the two, the way PaRSEC's
//! parameterized task graphs unroll lazily:
//!
//! * a [`StepSource`] (the algorithm layer) is pulled **one step at a
//!   time**, and only when fewer than `window` steps are still live;
//! * tasks execute while later steps are still being planned, scheduled by
//!   critical-path depth ([`priority`]) so the panel chain stays hot;
//! * a step's task records are reclaimed as they complete, and the step
//!   retires when it drains ([`retire`]) — graph memory is bounded by the
//!   window, not by the factorization;
//! * a source may split a step at its *decision point*
//!   ([`StepPhase::AwaitDecision`]): the driver blocks until the decision
//!   task has executed, then asks the source to plan the remainder — which
//!   can now consult fresh data and insert **only the chosen branch**
//!   instead of both branches statically.
//!
//! The window is split per virtual node ([`window`]): each node holds the
//! live records of its owner-computes tasks and the hazard directories of
//! its homed data; cross-node progress flows through [`crate::comm`]
//! message records. Passing a [`Platform`] in [`StreamOptions`] drives the
//! communication model *online*: per-node virtual clocks advance as the
//! window drains and the run emits a [`SimReport`]-compatible summary —
//! equal to replaying the equivalent batch graph through
//! [`crate::sim::simulate`] — without ever materializing that graph. The
//! platform may be heterogeneous: each task is costed at its owner node's
//! [`crate::platform::NodeSpec`] speed and width, and transfers on the
//! actual `(src, dst)` link of the platform's topology.
//!
//! Execution is bitwise-identical to the batch path because the window
//! infers the same hazards from the same insertion order; dropping a
//! never-executed branch removes no executed writer and so changes no
//! per-datum mutation order.

pub mod priority;
pub mod retire;
pub mod window;

use std::sync::Arc;
use std::time::Instant;

use crate::comm::{LinkMsgStats, MsgStats};
use crate::graph::{TaskId, TaskSink};
use crate::net::{NetReport, PayloadStore, Transport, TransportError};
use crate::platform::Platform;
use crate::probe::{metric, Label, Probe};
use crate::sched::SchedPolicy;
use crate::sim::SimReport;
use crate::trace::TraceEvent;

use window::FramePump;
pub use window::{StepSink, StreamWindow};

/// What a source planned for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// The step is fully planned.
    Complete,
    /// The remainder of the step depends on the runtime outcome of the
    /// given task (e.g. the hybrid's LU/QR criterion decision): the driver
    /// must wait for it to complete, then call [`StepSource::plan_finish`].
    AwaitDecision(TaskId),
}

/// A factorization algorithm exposed step by step to the streaming driver.
///
/// This is the streaming counterpart of driving a batch planner in a loop:
/// the driver calls `plan_prelude(k, …)` for `k = 0..num_steps()` strictly
/// in order (insertion order is what hazard inference keys on), awaiting
/// the decision task and calling `plan_finish` in between when a step asks
/// for it.
pub trait StepSource {
    /// Number of elimination steps.
    fn num_steps(&self) -> usize;

    /// Virtual nodes referenced by task placements.
    fn num_nodes(&self) -> usize {
        1
    }

    /// Called once before planning; declare data here (no task insertion).
    fn prepare(&mut self, _sink: &mut dyn TaskSink) {}

    /// Plan step `k` up to (and including) its decision point — or the
    /// whole step, for algorithms with no runtime decision.
    fn plan_prelude(&mut self, k: usize, sink: &mut dyn TaskSink) -> StepPhase;

    /// Plan the decision-dependent remainder of step `k` (only called
    /// after the task named by [`StepPhase::AwaitDecision`] completed).
    fn plan_finish(&mut self, _k: usize, _sink: &mut dyn TaskSink) {}

    /// Observed per-node effective speeds (GFLOP/s over fully-retired
    /// steps), delivered before each `plan_prelude` when
    /// [`StreamOptions::recalibrate`] is on. Sources may re-aim the
    /// placement of *future* steps (e.g. refresh a speed-weighted tile
    /// distribution); the default ignores the measurement.
    fn recalibrate(&mut self, _observed_speeds: &[f64]) {}
}

/// How the streaming driver sizes its window of live steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// A constant number of live steps.
    Fixed(usize),
    /// Autotuned: after each step, grow the window (up to `max`) while the
    /// measured panel-decision wait dominates the step's planning time —
    /// the panel chain is starved for lookahead — and shrink it (down to
    /// `min`) when the live-task count approaches `live_task_budget`.
    /// The chosen window is recorded per step in
    /// [`StreamReport::per_step_window`].
    Auto {
        min: usize,
        max: usize,
        /// Live-task memory budget; the window shrinks as the live count
        /// nears it. `0` disables the memory brake.
        live_task_budget: usize,
    },
}

impl WindowPolicy {
    /// An autotuned window with default bounds and the given live-task
    /// memory budget.
    pub fn auto(live_task_budget: usize) -> Self {
        WindowPolicy::Auto {
            min: 1,
            max: 16,
            live_task_budget,
        }
    }
}

/// Configuration of one streaming execution.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    pub window: WindowPolicy,
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Drive the communication model online against this platform and
    /// emit [`StreamReport::sim`].
    pub platform: Option<Platform>,
    /// Record per-task `(start, end, worker, step, node)` events
    /// ([`StreamReport::trace`]) for Chrome-trace export.
    pub trace: bool,
    /// Ready-task selection policy for the *online* virtual-time schedule
    /// (no effect unless [`StreamOptions::platform`] is set; the host-side
    /// workers always pop by critical-path depth, which keeps numerics
    /// independent of the platform model). [`SchedPolicy::Fifo`]
    /// reproduces the pre-subsystem reports bitwise.
    pub scheduler: SchedPolicy,
    /// Metrics probe. [`Probe::disabled`] (the default) records nothing
    /// and costs a branch per emission site; an enabled probe collects
    /// window/scheduler/comm/kernel metrics and a makespan attribution,
    /// retrieved afterwards via [`Probe::report`].
    pub probe: Probe,
    /// EFT-guided steal-at-insert (no effect without
    /// [`StreamOptions::platform`]): each task's execution node may be
    /// re-decided against the online finish oracle at insertion, moving
    /// work off backlogged owners. Changes message routing (not
    /// numerics), so it is off by default.
    pub steal: bool,
    /// Online distribution recalibration: feed
    /// [`StepSource::recalibrate`] the speeds observed over retired steps
    /// before planning each next step. Off by default (placement then
    /// stays exactly as planned up front). Sources that regroup per-node
    /// reduction trees under the new placement produce numerically
    /// equivalent — not bitwise-identical — factorizations, as a static
    /// run under the refreshed distribution would.
    pub recalibrate: bool,
}

impl StreamOptions {
    /// A fixed window with no virtual-time accounting — the plain
    /// shared-memory streaming configuration.
    pub fn fixed(window: usize, threads: usize) -> Self {
        StreamOptions {
            window: WindowPolicy::Fixed(window),
            threads,
            platform: None,
            trace: false,
            scheduler: SchedPolicy::Fifo,
            probe: Probe::disabled(),
            steal: false,
            recalibrate: false,
        }
    }

    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    pub fn with_scheduler(mut self, scheduler: SchedPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Enable EFT-guided steal-at-insert (see [`StreamOptions::steal`]).
    pub fn with_stealing(mut self) -> Self {
        self.steal = true;
        self
    }

    /// Enable online recalibration (see [`StreamOptions::recalibrate`]).
    pub fn with_recalibration(mut self) -> Self {
        self.recalibrate = true;
        self
    }
}

/// Summary of one streaming execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Wall-clock seconds, planning and execution interleaved.
    pub wall_seconds: f64,
    /// Elimination steps unrolled.
    pub steps: usize,
    /// Tasks planned into the window over the whole run.
    pub tasks_planned: usize,
    /// Tasks that ran their kernel.
    pub tasks_executed: usize,
    /// Tasks that discarded themselves at run time. Streaming plans only
    /// the chosen hybrid branch, so on healthy runs this is 0; it counts
    /// data-dependent discards, e.g. kernels that bail out after a panel
    /// breakdown.
    pub tasks_discarded: usize,
    /// Total flops reported by executed tasks (excluding Memory
    /// pseudo-flops).
    pub total_flops: f64,
    /// Highest number of simultaneously materialized task records — the
    /// window's memory high-water mark. The batch path materializes
    /// `tasks_planned`-many records (and more: both branches) at once.
    pub peak_live_tasks: usize,
    /// Highest number of simultaneously live steps (≤ the window size).
    pub peak_live_steps: usize,
    /// Tasks planned per elimination step (for window-bound accounting).
    pub per_step_tasks: Vec<usize>,
    /// Window size in force when each step was opened.
    pub per_step_window: Vec<usize>,
    /// Tasks re-homed by steal-at-insert / evaluations that kept the
    /// owner (both 0 unless [`StreamOptions::steal`] was on).
    pub steals: u64,
    pub steal_kept: u64,
    /// Distributed-protocol message counters (data transfers, decision
    /// broadcasts, retirement reports).
    pub msgs: MsgStats,
    /// The same counters broken out per directed `(src, dst)` link, in
    /// `(src, dst)` order (retire reports appear on `(node, 0)` — the
    /// planner lives with node 0). Empty for single-node runs.
    pub link_msgs: Vec<LinkMsgStats>,
    /// Online virtual-time summary (set when [`StreamOptions::platform`]
    /// was given); equal to `simulate()` on the equivalent batch graph,
    /// except that per-task spans (`starts`/`finishes`) are left empty —
    /// recording them would grow with the task count, not the window.
    pub sim: Option<SimReport>,
    /// Per-task execution spans (set when [`StreamOptions::trace`] was
    /// on); render with [`crate::trace::render_chrome_trace`].
    pub trace: Vec<TraceEvent>,
    /// The virtual-time scheduling policy this run was configured with
    /// (trace exports label their lanes with it).
    pub scheduler: SchedPolicy,
    /// Wire-level transport counters (set by [`execute_net`] only):
    /// frames and payload bytes actually moved by *this rank*, with
    /// serialize/deserialize latency histograms.
    pub net: Option<NetReport>,
}

/// Transport binding for [`execute_net`]: the endpoint this rank sends and
/// receives on, plus the algorithm layer's payload serializer (how a
/// [`crate::graph::DataKey`]'s bytes get in and out of the local mirror).
///
/// Not folded into [`StreamOptions`] (which stays `Debug + Clone` over
/// plain data): transports are live OS resources.
#[derive(Clone)]
pub struct NetConfig {
    pub transport: Arc<dyn Transport>,
    pub store: Arc<dyn PayloadStore>,
}

/// Execute `source` under the full streaming configuration: window policy,
/// optional online platform simulation, optional trace recording.
///
/// The calling thread plans; workers execute concurrently. Numerical
/// results are deterministic across the window and thread count because
/// the hazard edges serialize all conflicting accesses in insertion order
/// — the same guarantee the batch executor gives.
pub fn execute_with(source: &mut dyn StepSource, opts: &StreamOptions) -> StreamReport {
    drive(source, opts, None).expect("a run without a transport has no transport to fail")
}

/// Execute `source` as one rank of a real distributed run (SPMD): every
/// rank calls this with the *same* deterministic source over its own full
/// mirror of the matrix, its own transport endpoint, and its own payload
/// store.
///
/// Planning is identical on every rank — same task ids, same hazard
/// edges, same protocol messages — so each rank's modeled [`MsgStats`]
/// equals the simulated run's. What differs per rank is execution: tasks
/// placed on other ranks run as no-op stubs, local tasks gate on the
/// arrival of their cross-rank inputs, and every protocol message this
/// rank originates goes out as a real wire frame. At the end, ranks other
/// than 0 ship the final version of every datum they own to rank 0, whose
/// mirror then holds the complete factorization.
///
/// Net runs pin the bitwise-reproducible configuration: a platform model,
/// stealing, or recalibration in `opts`, or a transport whose world size
/// is not `source.num_nodes()`, is a [`TransportError::Protocol`] returned
/// before any frame is sent — every rank of a set fails the same way.
pub fn execute_net(
    source: &mut dyn StepSource,
    opts: &StreamOptions,
    net: NetConfig,
) -> Result<StreamReport, TransportError> {
    let unsupported = if opts.platform.is_some() {
        Some("a platform model (net runs drive real transports)")
    } else if opts.steal {
        Some("stealing (it would desynchronize SPMD planning)")
    } else if opts.recalibrate {
        Some("recalibration (it would desynchronize SPMD planning)")
    } else {
        None
    };
    if let Some(what) = unsupported {
        return Err(TransportError::Protocol(format!(
            "net runs do not support {what}"
        )));
    }
    let (rank, nranks) = (net.transport.rank(), net.transport.nranks());
    if nranks != source.num_nodes() || rank >= nranks {
        return Err(TransportError::Protocol(format!(
            "transport rank {rank} of {nranks} does not fit {} virtual nodes",
            source.num_nodes()
        )));
    }
    drive(source, opts, Some(net))
}

/// The streaming driver behind [`execute_with`] and [`execute_net`]: the
/// planning loop (window policy, per-step plan and decision wait,
/// auto-resize) plus report assembly. `net` only adds the frame receiver
/// and the end-of-run teardown; the window's net hooks are no-ops
/// without it.
fn drive(
    source: &mut dyn StepSource,
    opts: &StreamOptions,
    net: Option<NetConfig>,
) -> Result<StreamReport, TransportError> {
    let threads = opts.threads.max(1);
    let start = Instant::now();
    let transport = net.as_ref().map(|n| Arc::clone(&n.transport));
    let mut win = StreamWindow::with_options(source.num_nodes(), opts);
    if let Some(net) = net {
        win.attach_net(net);
    }
    let steps = source.num_steps();
    let probing = opts.probe.is_enabled();

    let (mut window, auto) = match opts.window {
        WindowPolicy::Fixed(w) => (w.max(1), None),
        WindowPolicy::Auto {
            min,
            max,
            live_task_budget,
        } => {
            let min = min.max(1);
            (min, Some((min, max.max(min), live_task_budget)))
        }
    };
    let mut per_step_window = Vec::with_capacity(steps);
    let mut run_err: Option<TransportError> = None;

    std::thread::scope(|scope| {
        for w in 0..threads {
            let win = &win;
            scope.spawn(move || win.worker_loop(w));
        }
        if let Some(transport) = &transport {
            // Receiver: pump inbound frames into the window until the
            // run's shutdown frame (or the endpoint closes underneath us).
            let win = &win;
            let transport = Arc::clone(transport);
            scope.spawn(move || loop {
                match transport.recv() {
                    Ok((from, frame)) => {
                        if matches!(win.on_frame(from, frame), FramePump::Stop) {
                            break;
                        }
                    }
                    Err(TransportError::Closed) => break,
                    // A peer tearing down after the shutdown broadcast is
                    // not a failure — keep pumping for our own Shutdown.
                    Err(e) if win.net_disconnect_benign(&e) => continue,
                    Err(e) => {
                        win.net_fail(e);
                        break;
                    }
                }
            });
        }

        source.prepare(&mut StepSink::declarations(&win));
        for k in 0..steps {
            if let Err(e) = win.net_check() {
                run_err = Some(e);
                break;
            }
            win.wait_for_capacity(window);
            win.open_step(k);
            per_step_window.push(window);
            if probing {
                opts.probe.gauge(
                    metric::STREAM_WINDOW,
                    Label::None,
                    start.elapsed().as_secs_f64(),
                    window as f64,
                );
            }
            let step_t0 = Instant::now();
            let mut decision_wait = 0.0f64;
            if opts.recalibrate {
                // Speeds observed over steps that fully retired; the
                // source may re-aim placement of the steps still ahead.
                if let Some(speeds) = win.calibrated_speeds() {
                    source.recalibrate(&speeds);
                }
            }
            let mut sink = StepSink::new(&win, k);
            match source.plan_prelude(k, &mut sink) {
                StepPhase::Complete => {}
                StepPhase::AwaitDecision(decision_task) => {
                    let t0 = Instant::now();
                    win.wait_for_task(decision_task);
                    // Over a transport the decision may have been computed
                    // on another rank: wait for its *value* (the stub
                    // completing only means its hazard slots released).
                    if let Err(e) = win.net_wait_decision(decision_task) {
                        run_err = Some(e);
                        win.close_step(k);
                        break;
                    }
                    decision_wait = t0.elapsed().as_secs_f64();
                    source.plan_finish(k, &mut sink);
                }
            }
            if probing {
                // Planner-side stall on this step's panel/criterion
                // decision (zero for steps with no decision point).
                opts.probe
                    .observe(metric::STREAM_PANEL_WAIT, Label::None, decision_wait);
            }
            win.close_step(k);
            if let Some((min, max, budget)) = auto {
                // Shrink when live tasks near the memory budget; grow
                // while the planner mostly sat waiting on the panel
                // decision (the chain wants more lookahead).
                let live = win.live_tasks();
                let elapsed = step_t0.elapsed().as_secs_f64();
                if budget > 0 && live * 10 >= budget * 8 {
                    window = window.saturating_sub(1).max(min);
                } else if decision_wait > 0.5 * elapsed && window < max {
                    window += 1;
                }
            }
        }
        win.finish_planning();
        win.wait_drained();
        if let Some(transport) = &transport {
            if run_err.is_none() {
                run_err = win.net_check().and_then(|()| win.net_finish()).err();
            }
            if run_err.is_some() {
                // Take the peers down with us — they cannot make progress
                // without this rank's frames, and over in-process
                // transports nobody would notice a silently missing peer.
                win.net_abort();
            }
            // Stop the receiver in every case: rank 0 never gets a
            // Shutdown frame of its own, and an erroring rank's receiver
            // may still be blocked in recv().
            transport.shutdown();
        }
    });

    if let Some(e) = run_err {
        return Err(e);
    }
    let stats = win.stats();
    Ok(StreamReport {
        wall_seconds: start.elapsed().as_secs_f64(),
        steps,
        tasks_planned: stats.tasks_planned,
        tasks_executed: stats.tally.executed,
        tasks_discarded: stats.tally.discarded,
        total_flops: stats.tally.flops,
        peak_live_tasks: stats.peak_live_tasks,
        peak_live_steps: stats.peak_live_steps,
        per_step_tasks: stats.per_step_tasks,
        per_step_window,
        steals: stats.steals,
        steal_kept: stats.steal_kept,
        msgs: stats.msgs,
        link_msgs: stats.link_msgs,
        sim: stats.sim,
        trace: stats.trace,
        scheduler: opts.scheduler,
        net: stats.net,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CostClass, DataKey, TaskResult};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn k(i: u64) -> DataKey {
        DataKey(i)
    }

    /// A chain-per-step source: step `s` appends `width` tasks that all
    /// mutate the same datum, so execution is fully serialized.
    struct ChainSource {
        steps: usize,
        width: usize,
        log: Arc<parking_lot::Mutex<Vec<usize>>>,
    }

    impl StepSource for ChainSource {
        fn num_steps(&self) -> usize {
            self.steps
        }

        fn prepare(&mut self, sink: &mut dyn TaskSink) {
            sink.declare(k(0), 8, 0);
        }

        fn plan_prelude(&mut self, s: usize, sink: &mut dyn TaskSink) -> StepPhase {
            for t in 0..self.width {
                let log = Arc::clone(&self.log);
                let tag = s * self.width + t;
                sink.insert(format!("t{tag}"), 0)
                    .writes(k(0))
                    .spawn(move || {
                        log.lock().push(tag);
                        TaskResult::executed(1.0, CostClass::Gemm)
                    });
            }
            StepPhase::Complete
        }
    }

    #[test]
    fn chain_runs_in_order_across_steps() {
        for (window, threads) in [(1, 1), (1, 4), (2, 2), (8, 3)] {
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut src = ChainSource {
                steps: 6,
                width: 5,
                log: Arc::clone(&log),
            };
            let report = execute_with(&mut src, &StreamOptions::fixed(window, threads));
            assert_eq!(report.tasks_executed, 30);
            assert_eq!(report.tasks_planned, 30);
            assert!(report.peak_live_steps <= window);
            let expected: Vec<usize> = (0..30).collect();
            assert_eq!(*log.lock(), expected, "w={window} t={threads}");
        }
    }

    #[test]
    fn window_bounds_live_tasks() {
        // Independent tasks per step: with window = 1, at most one step's
        // tasks may ever be materialized.
        struct WideSource;
        impl StepSource for WideSource {
            fn num_steps(&self) -> usize {
                10
            }
            fn prepare(&mut self, sink: &mut dyn TaskSink) {
                for s in 0..10u64 {
                    for t in 0..20u64 {
                        sink.declare(k(s * 100 + t), 8, 0);
                    }
                }
            }
            fn plan_prelude(&mut self, s: usize, sink: &mut dyn TaskSink) -> StepPhase {
                for t in 0..20 {
                    sink.insert(format!("t{s}/{t}"), 0)
                        .writes(k((s as u64) * 100 + t as u64))
                        .spawn(|| TaskResult::executed(1.0, CostClass::Gemm));
                }
                StepPhase::Complete
            }
        }
        let report = execute_with(&mut WideSource, &StreamOptions::fixed(1, 4));
        assert_eq!(report.tasks_executed, 200);
        assert_eq!(report.peak_live_steps, 1);
        assert!(
            report.peak_live_tasks <= 20,
            "peak {} exceeds one step's tasks",
            report.peak_live_tasks
        );
        assert_eq!(report.per_step_tasks, vec![20; 10]);
        assert_eq!(report.per_step_window, vec![1; 10]);
    }

    #[test]
    fn await_decision_plans_only_chosen_branch() {
        // Step 0 writes a runtime value; the source awaits it and plans a
        // branch depending on what the task computed — the online-decision
        // protocol of the hybrid planner.
        struct DecidingSource {
            decided: Arc<AtomicUsize>,
            branch_ran: Arc<AtomicUsize>,
        }
        impl StepSource for DecidingSource {
            fn num_steps(&self) -> usize {
                1
            }
            fn prepare(&mut self, sink: &mut dyn TaskSink) {
                sink.declare(k(0), 8, 0);
            }
            fn plan_prelude(&mut self, _s: usize, sink: &mut dyn TaskSink) -> StepPhase {
                let d = Arc::clone(&self.decided);
                let id = sink.insert("decide", 0).writes(k(0)).spawn(move || {
                    d.store(7, Ordering::SeqCst);
                    TaskResult::control()
                });
                StepPhase::AwaitDecision(id)
            }
            fn plan_finish(&mut self, _s: usize, sink: &mut dyn TaskSink) {
                // The decision value is visible *at planning time*.
                assert_eq!(self.decided.load(Ordering::SeqCst), 7);
                let b = Arc::clone(&self.branch_ran);
                sink.insert("branch", 0).writes(k(0)).spawn(move || {
                    b.store(1, Ordering::SeqCst);
                    TaskResult::executed(2.0, CostClass::Trsm)
                });
            }
        }
        let decided = Arc::new(AtomicUsize::new(0));
        let branch_ran = Arc::new(AtomicUsize::new(0));
        let mut src = DecidingSource {
            decided: Arc::clone(&decided),
            branch_ran: Arc::clone(&branch_ran),
        };
        let report = execute_with(&mut src, &StreamOptions::fixed(2, 3));
        assert_eq!(report.tasks_executed, 2);
        assert_eq!(branch_ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_source_completes() {
        struct Empty;
        impl StepSource for Empty {
            fn num_steps(&self) -> usize {
                0
            }
            fn plan_prelude(&mut self, _: usize, _: &mut dyn TaskSink) -> StepPhase {
                unreachable!()
            }
        }
        let report = execute_with(&mut Empty, &StreamOptions::fixed(4, 2));
        assert_eq!(report.tasks_planned, 0);
        assert_eq!(report.peak_live_steps, 0);
    }

    #[test]
    fn deterministic_across_windows_and_threads() {
        // A float reduction whose result depends on execution order: the
        // hazard chain must force identical arithmetic everywhere.
        fn run(window: usize, threads: usize) -> f64 {
            let cell = Arc::new(parking_lot::Mutex::new(1.0f64));
            struct Reduce {
                cell: Arc<parking_lot::Mutex<f64>>,
            }
            impl StepSource for Reduce {
                fn num_steps(&self) -> usize {
                    8
                }
                fn prepare(&mut self, sink: &mut dyn TaskSink) {
                    sink.declare(k(0), 8, 0);
                }
                fn plan_prelude(&mut self, s: usize, sink: &mut dyn TaskSink) -> StepPhase {
                    for t in 0..5usize {
                        let cell = Arc::clone(&self.cell);
                        let i = s * 5 + t;
                        sink.insert(format!("r{i}"), 0).writes(k(0)).spawn(move || {
                            let mut v = cell.lock();
                            *v = (*v * 1.0000001).sin() + i as f64 * 1e-3;
                            TaskResult::control()
                        });
                    }
                    StepPhase::Complete
                }
            }
            let mut src = Reduce {
                cell: Arc::clone(&cell),
            };
            execute_with(&mut src, &StreamOptions::fixed(window, threads));
            let v = *cell.lock();
            v
        }
        let base = run(1, 1);
        for (w, t) in [(1, 4), (3, 2), (8, 8)] {
            assert_eq!(base.to_bits(), run(w, t).to_bits(), "w={w} t={t}");
        }
    }

    /// A two-node source: step tasks on node 1 consume a datum produced on
    /// node 0, so the window must route cross-node releases and count the
    /// transfers.
    struct TwoNodeSource;
    impl StepSource for TwoNodeSource {
        fn num_steps(&self) -> usize {
            3
        }
        fn num_nodes(&self) -> usize {
            2
        }
        fn prepare(&mut self, sink: &mut dyn TaskSink) {
            sink.declare(k(0), 100, 0);
            sink.declare(k(1), 100, 1);
        }
        fn plan_prelude(&mut self, s: usize, sink: &mut dyn TaskSink) -> StepPhase {
            sink.insert(format!("p{s}"), 0)
                .writes(k(0))
                .spawn(|| TaskResult::executed(1.0, CostClass::Gemm));
            // Two consumers on node 1: the version crosses once.
            for t in 0..2 {
                sink.insert(format!("c{s}/{t}"), 1)
                    .reads(k(0))
                    .writes(k(1))
                    .spawn(|| TaskResult::executed(1.0, CostClass::Gemm));
            }
            StepPhase::Complete
        }
    }

    #[test]
    fn cross_node_flow_counts_one_msg_per_version_and_destination() {
        let mut src = TwoNodeSource;
        let report = execute_with(&mut src, &StreamOptions::fixed(2, 2));
        assert_eq!(report.tasks_executed, 9);
        // One DataMsg per step for k(0) (producer → node 1), regardless
        // of the two consumers there.
        assert_eq!(report.msgs.data_msgs, 3);
        assert_eq!(report.msgs.bytes, 300);
        assert_eq!(report.msgs.decision_msgs, 0);
        // Node 1's share of each step drains and is reported.
        assert_eq!(report.msgs.retire_msgs, 3);
    }

    #[test]
    fn single_node_source_moves_no_messages() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut src = ChainSource {
            steps: 4,
            width: 3,
            log,
        };
        let report = execute_with(&mut src, &StreamOptions::fixed(2, 2));
        assert_eq!(report.msgs.data_msgs, 0);
        assert_eq!(report.msgs.decision_msgs, 0);
        assert_eq!(report.msgs.retire_msgs, 0);
        assert_eq!(report.msgs.bytes, 0);
    }

    /// A writer that discards itself at run time produces nothing: its
    /// cross-node consumers fetch the previous *executed* version, and
    /// the protocol count stays equal to the virtual-time engine's.
    #[test]
    fn discarded_writer_reroutes_transfers_to_executed_version() {
        struct DiscardingSource;
        impl StepSource for DiscardingSource {
            fn num_steps(&self) -> usize {
                1
            }
            fn num_nodes(&self) -> usize {
                2
            }
            fn prepare(&mut self, sink: &mut dyn TaskSink) {
                sink.declare(k(0), 100, 0);
                sink.declare(k(1), 100, 1);
            }
            fn plan_prelude(&mut self, _s: usize, sink: &mut dyn TaskSink) -> StepPhase {
                use crate::graph::TaskResult;
                // Executed version of k(0) on node 0.
                sink.insert("v", 0)
                    .writes(k(0))
                    .spawn(|| TaskResult::executed(1.0, CostClass::Gemm));
                // A later writer of k(0) that discards itself (e.g. a
                // breakdown path).
                sink.insert("dead", 0)
                    .writes(k(0))
                    .spawn(TaskResult::discarded);
                // Two consumers on node 1: the payload still comes from
                // "v", once.
                for t in 0..2 {
                    sink.insert(format!("c{t}"), 1)
                        .reads(k(0))
                        .writes(k(1))
                        .spawn(|| TaskResult::executed(1.0, CostClass::Gemm));
                }
                StepPhase::Complete
            }
        }
        let platform = crate::platform::Platform::dancer_nodes(2);
        let opts = StreamOptions::fixed(1, 2).with_platform(platform);
        let report = execute_with(&mut DiscardingSource, &opts);
        assert_eq!(report.tasks_discarded, 1);
        assert_eq!(
            report.msgs.data_msgs, 1,
            "one transfer of the executed version, not zero (discard \
             shadowing) and not two (per-consumer)"
        );
        let sim = report.sim.expect("platform given");
        assert_eq!(sim.messages, report.msgs.payload_msgs());
        assert_eq!(sim.bytes, report.msgs.bytes);
    }

    /// Redeclaring a datum updates its home for later insertions, exactly
    /// like the batch builder's overwrite.
    #[test]
    fn redeclared_home_moves_the_fetch_source() {
        struct Redeclare;
        impl StepSource for Redeclare {
            fn num_steps(&self) -> usize {
                1
            }
            fn num_nodes(&self) -> usize {
                2
            }
            fn prepare(&mut self, sink: &mut dyn TaskSink) {
                sink.declare(k(0), 100, 0);
                sink.declare(k(0), 100, 1); // overwrite: now homed on node 1
            }
            fn plan_prelude(&mut self, _s: usize, sink: &mut dyn TaskSink) -> StepPhase {
                use crate::graph::TaskResult;
                // Reader on node 1 = the (re)declared home: no fetch.
                sink.insert("local", 1)
                    .reads(k(0))
                    .spawn(|| TaskResult::executed(1.0, CostClass::Gemm));
                // Reader on node 0: fetches from node 1.
                sink.insert("remote", 0)
                    .reads(k(0))
                    .spawn(|| TaskResult::executed(1.0, CostClass::Gemm));
                StepPhase::Complete
            }
        }
        let platform = crate::platform::Platform::dancer_nodes(2);
        let opts = StreamOptions::fixed(1, 1).with_platform(platform);
        let report = execute_with(&mut Redeclare, &opts);
        assert_eq!(report.msgs.data_msgs, 1, "one initial fetch, to node 0");
        let sim = report.sim.expect("platform given");
        assert_eq!(sim.messages, 1);
    }

    #[test]
    fn auto_window_records_choices_within_bounds() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut src = ChainSource {
            steps: 8,
            width: 4,
            log,
        };
        let opts = StreamOptions {
            window: WindowPolicy::Auto {
                min: 1,
                max: 4,
                live_task_budget: 64,
            },
            ..StreamOptions::fixed(1, 2)
        };
        let report = execute_with(&mut src, &opts);
        assert_eq!(report.per_step_window.len(), 8);
        assert!(report.per_step_window.iter().all(|&w| (1..=4).contains(&w)));
        assert_eq!(report.tasks_executed, 32);
    }

    #[test]
    fn probed_streaming_reports_metrics_and_attribution() {
        let probe = Probe::enabled();
        let platform = crate::platform::Platform::dancer_nodes(2);
        let opts = StreamOptions::fixed(2, 2)
            .with_platform(platform.clone())
            .with_probe(probe.clone());
        let report = execute_with(&mut TwoNodeSource, &opts);

        // Per-link counters reconcile with the aggregate, and retire
        // reports ride the (node, 0) links.
        let data: u64 = report.link_msgs.iter().map(|l| l.msgs.data_msgs).sum();
        assert_eq!(data, report.msgs.data_msgs);
        assert!(report.link_msgs.iter().any(|l| l.src == 0 && l.dst == 1));
        let retire: u64 = report.link_msgs.iter().map(|l| l.msgs.retire_msgs).sum();
        assert_eq!(retire, report.msgs.retire_msgs);
        assert!(report
            .link_msgs
            .iter()
            .all(|l| l.msgs.retire_msgs == 0 || l.dst == 0));

        let pr = probe.report();
        let att = pr.attribution.expect("platform given, so attribution");
        assert!(att.makespan > 0.0);
        assert!(att.max_reconciliation_error() <= 1e-9 * att.makespan.max(1.0));
        assert!(
            pr.snapshot
                .counter(metric::KERNEL_FLOPS, Label::Class("gemm"))
                > 0
        );
        assert!(pr.snapshot.counter(metric::COMM_MSGS, Label::Kind("data")) > 0);
        assert!(pr
            .snapshot
            .histogram(metric::STREAM_PANEL_WAIT, Label::None)
            .is_some());

        // Probes never perturb the run: a probe-free rerun reports the
        // same simulation, message counts, and link breakdown.
        let plain = execute_with(
            &mut TwoNodeSource,
            &StreamOptions::fixed(2, 2).with_platform(platform),
        );
        assert_eq!(plain.sim, report.sim);
        assert_eq!(plain.msgs, report.msgs);
        assert_eq!(plain.link_msgs, report.link_msgs);
    }

    #[test]
    fn trace_mode_records_every_executed_task() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut src = ChainSource {
            steps: 3,
            width: 2,
            log,
        };
        let opts = StreamOptions::fixed(2, 2).with_trace();
        let report = execute_with(&mut src, &opts);
        assert_eq!(report.trace.len(), 6);
        for ev in &report.trace {
            assert!(ev.end >= ev.start);
            assert_eq!(ev.node, 0);
            assert!(ev.step.is_some());
        }
        let json = crate::trace::render_chrome_trace(&report.trace, &Default::default());
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 6);
    }
}
