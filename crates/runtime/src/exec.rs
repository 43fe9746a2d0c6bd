//! Multithreaded task-graph executor.
//!
//! Dependency-counting scheduler: every task carries an atomic countdown of
//! unfinished predecessors; completed tasks decrement their successors and
//! enqueue the ones that reach zero. Workers pull from a shared injector
//! queue (crossbeam MPMC channel). Because the dependency system serializes
//! all conflicting accesses, execution is deterministic in its numerical
//! results regardless of the number of workers — only the interleaving
//! changes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam::channel;

use crate::graph::{CostClass, Graph, TaskId, TaskResult};
use crate::trace::{step_index, TraceEvent};

/// Running tally of task outcomes, shared by the batch executor's report
/// and the streaming window's incremental counters so both runtimes count
/// executed / discarded tasks and flops identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Tasks that ran their kernel (`executed = true`).
    pub executed: usize,
    /// Tasks that discarded themselves (unselected branch).
    pub discarded: usize,
    /// Total flops reported by executed tasks (excluding Memory
    /// pseudo-flops, which encode bytes).
    pub flops: f64,
}

impl Tally {
    /// Fold one task result into the tally.
    pub fn record(&mut self, r: &TaskResult) {
        if r.executed {
            self.executed += 1;
            if r.class != CostClass::Memory {
                self.flops += r.flops;
            }
        } else {
            self.discarded += 1;
        }
    }
}

/// Summary of one graph execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Wall-clock seconds for the whole graph.
    pub wall_seconds: f64,
    /// Tasks that ran their kernel (`executed = true`).
    pub tasks_executed: usize,
    /// Tasks that discarded themselves (unselected branch).
    pub tasks_discarded: usize,
    /// Total flops reported by executed tasks (excluding Memory pseudo-flops).
    pub total_flops: f64,
}

/// Execute the graph on `threads` worker threads (must be ≥ 1).
///
/// Each task's [`crate::graph::TaskResult`] is recorded in the graph for later inspection
/// or platform simulation. Panics if a kernel is missing (graph already
/// executed) or if the dependency counts are inconsistent.
pub fn execute(graph: &Graph, threads: usize) -> ExecReport {
    execute_inner(graph, threads, None)
}

/// Execute the graph and additionally record one [`TraceEvent`] per
/// executed task — real wall-clock spans with the worker that ran each
/// kernel — mirroring what the streaming runtime records behind
/// [`crate::stream::StreamOptions::trace`].
pub fn execute_traced(graph: &Graph, threads: usize) -> (ExecReport, Vec<TraceEvent>) {
    let events = parking_lot::Mutex::new(Vec::with_capacity(graph.len()));
    let report = execute_inner(graph, threads, Some(&events));
    let mut events = events.into_inner();
    events.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    (report, events)
}

fn execute_inner(
    graph: &Graph,
    threads: usize,
    events: Option<&parking_lot::Mutex<Vec<TraceEvent>>>,
) -> ExecReport {
    let threads = threads.max(1);
    let start = Instant::now();

    // Reset countdowns (allows re-execution safety checks to fire instead of
    // hanging if someone calls execute twice).
    for t in &graph.tasks {
        t.preds_remaining.store(t.num_preds, Ordering::Relaxed);
    }

    // Run one ready task on `worker`: take its kernel, run it (recording
    // its span when tracing), store its result, and hand every successor
    // this completion made ready to `release`.
    let run = |tid: TaskId, worker: usize, release: &mut dyn FnMut(TaskId)| {
        let task = &graph.tasks[tid];
        let kernel = task
            .kernel
            .lock()
            .take()
            .unwrap_or_else(|| panic!("task '{}' executed twice", task.name));
        let t0 = events.map(|_| start.elapsed().as_secs_f64());
        let result = kernel();
        if let (Some(events), Some(t0)) = (events, t0) {
            if result.executed {
                events.lock().push(TraceEvent {
                    name: task.name.clone(),
                    node: task.node,
                    worker,
                    step: step_index(&task.name),
                    start: t0,
                    end: start.elapsed().as_secs_f64(),
                });
            }
        }
        task.result
            .set(result)
            .expect("task result already recorded");
        for &s in &task.successors {
            let prev = graph.tasks[s]
                .preds_remaining
                .fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev >= 1, "dependency underflow");
            if prev == 1 {
                release(s);
            }
        }
    };

    if threads == 1 {
        // Single-worker fast path: the same FIFO discipline inline on the
        // calling thread. The ready order — and therefore every task
        // interleaving — is identical to the one-worker channel loop
        // below; only the thread spawn and channel traffic disappear,
        // which is a measurable slice of wall time on fine-grained graphs.
        let mut queue: VecDeque<TaskId> = graph.roots().into();
        while let Some(tid) = queue.pop_front() {
            run(tid, 0, &mut |s| queue.push_back(s));
        }
    } else if !graph.is_empty() {
        let (tx, rx) = channel::unbounded::<TaskId>();
        for root in graph.roots() {
            tx.send(root).expect("queue closed");
        }
        let remaining = AtomicUsize::new(graph.len());
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (rx, tx) = (rx.clone(), tx.clone());
                let (run, remaining) = (&run, &remaining);
                scope.spawn(move || {
                    while let Ok(tid) = rx.recv() {
                        if tid == usize::MAX {
                            break; // all tasks done — sentinel
                        }
                        run(tid, worker, &mut |s| {
                            let _ = tx.send(s);
                        });
                        // The worker finishing the last task wakes
                        // everyone up with one sentinel per worker.
                        if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            for _ in 0..threads {
                                let _ = tx.send(usize::MAX);
                            }
                        }
                    }
                });
            }
            // Drop the main thread's ends so the channel can disconnect
            // after the sentinels are consumed.
            drop(tx);
            drop(rx);
        });
    }

    let mut tally = Tally::default();
    for t in &graph.tasks {
        match t.result() {
            Some(r) => tally.record(&r),
            None => panic!("task '{}' never ran — cyclic or broken graph", t.name),
        }
    }
    ExecReport {
        wall_seconds: start.elapsed().as_secs_f64(),
        tasks_executed: tally.executed,
        tasks_discarded: tally.discarded,
        total_flops: tally.flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, DataKey, GraphBuilder, TaskResult};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn k(i: u64) -> DataKey {
        DataKey(i)
    }

    #[test]
    fn executes_chain_in_order() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        for i in 0..50u64 {
            let log = Arc::clone(&log);
            b.task(format!("t{i}"), 0, &[Access::Mut(k(0))], move || {
                log.lock().push(i);
                TaskResult::control()
            });
        }
        let g = b.build();
        let report = execute(&g, 4);
        assert_eq!(report.tasks_executed, 50);
        let log = log.lock();
        let expected: Vec<u64> = (0..50).collect();
        assert_eq!(*log, expected, "chain must run in dependency order");
    }

    #[test]
    fn parallel_tasks_all_run() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut b = GraphBuilder::new(1);
        for i in 0..200u64 {
            b.declare(k(i), 8, 0);
            let c = Arc::clone(&counter);
            b.task(format!("t{i}"), 0, &[Access::Mut(k(i))], move || {
                c.fetch_add(1, Ordering::SeqCst);
                TaskResult::executed(10.0, CostClass::Gemm)
            });
        }
        let g = b.build();
        let report = execute(&g, 3);
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(report.tasks_executed, 200);
        assert_eq!(report.total_flops, 2000.0);
    }

    #[test]
    fn fork_join_respects_dependencies() {
        // src -> 100 readers -> sink; sink must observe all reader effects.
        let acc = Arc::new(AtomicU64::new(0));
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        b.task("src", 0, &[Access::Mut(k(0))], TaskResult::control);
        for i in 0..100u64 {
            let acc = Arc::clone(&acc);
            b.task(format!("r{i}"), 0, &[Access::Read(k(0))], move || {
                acc.fetch_add(1, Ordering::SeqCst);
                TaskResult::control()
            });
        }
        let acc2 = Arc::clone(&acc);
        b.task("sink", 0, &[Access::Mut(k(0))], move || {
            assert_eq!(acc2.load(Ordering::SeqCst), 100, "sink ran early");
            TaskResult::control()
        });
        let g = b.build();
        execute(&g, 8);
    }

    #[test]
    fn discarded_tasks_counted() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        b.task("real", 0, &[Access::Mut(k(0))], || {
            TaskResult::executed(5.0, CostClass::Trsm)
        });
        b.task("dead", 0, &[Access::Mut(k(0))], TaskResult::discarded);
        let g = b.build();
        let r = execute(&g, 2);
        assert_eq!(r.tasks_executed, 1);
        assert_eq!(r.tasks_discarded, 1);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // A reduction over a shared cell: dependency order forces identical
        // arithmetic regardless of worker count.
        fn run(threads: usize) -> f64 {
            let cell = Arc::new(parking_lot::Mutex::new(1.0f64));
            let mut b = GraphBuilder::new(1);
            b.declare(k(0), 8, 0);
            for i in 0..40 {
                let cell = Arc::clone(&cell);
                b.task(format!("t{i}"), 0, &[Access::Mut(k(0))], move || {
                    let mut v = cell.lock();
                    *v = (*v * 1.0000001).sin() + i as f64 * 1e-3;
                    TaskResult::control()
                });
            }
            let g = b.build();
            execute(&g, threads);
            let v = *cell.lock();
            v
        }
        let a = run(1);
        let b_ = run(4);
        assert_eq!(a.to_bits(), b_.to_bits());
    }

    #[test]
    fn memory_tasks_not_counted_as_flops() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        b.task("bk", 0, &[Access::Read(k(0))], || TaskResult::memory(4096));
        let g = b.build();
        let r = execute(&g, 1);
        assert_eq!(r.total_flops, 0.0);
    }
}
