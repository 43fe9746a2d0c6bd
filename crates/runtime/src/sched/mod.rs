//! Pluggable scheduling policies for the virtual-time engine.
//!
//! The discrete-event model ([`crate::vtime::VirtualSchedule`]) is a *list
//! scheduler*: tasks claim cores and network slots one at a time, in
//! whatever order they are handed to it, and any topological order of the
//! hazard DAG is a valid schedule. Until this module existed that order was
//! hardwired to insertion order — the one axis the runtime-scheduling
//! literature (HEFT-style list scheduling; StarPU/PaRSEC locality-aware
//! queues, the setting the source paper's PLASMA/DPLASMA work builds on)
//! says matters most on heterogeneous platforms.
//!
//! A [`Scheduler`] owns exactly that choice: the engine layer
//! ([`SchedEngine`]) infers hazard dependencies from each submitted task's
//! declared accesses (the same RAW/WAR/WAW rules as
//! [`crate::graph::GraphBuilder`] and the streaming window), maintains the
//! ready set, and asks the policy which ready task claims resources next.
//! Four policies ship:
//!
//! * [`Fifo`] — insertion order. Pins the pre-subsystem behavior **bitwise**
//!   (property-tested): with every hazard edge pointing from lower to
//!   higher ids, always popping the smallest ready id replays insertion
//!   order exactly.
//! * [`CriticalPath`] — deepest-chain first, the generalization of the
//!   streaming window's ready queue (one implementation, shared): priority
//!   is the task's longest hazard chain from the sources, the online
//!   analogue of HEFT's upward rank for a DAG whose successors are not yet
//!   known.
//! * [`LocalityAware`] — deepest chain first, fewest missing input bytes
//!   among equals: keep the makespan-bounding chain fed, and break depth
//!   ties toward tasks whose input tiles are already resident on (or
//!   cached at) their owner node, so computation proceeds while transfers
//!   for the rest are still in flight. (Byte-primary ranking measurably
//!   starves the panel chain — see the module docs for the diagnosis.)
//! * [`Eft`] — HEFT-style earliest finish time: estimate each ready task's
//!   `(data-ready ⊔ cores-free) + duration` from per-node speeds and the
//!   link model ([`crate::vtime::VirtualSchedule::estimate`]) and run the
//!   one that would finish first, backfilling the idle gaps an
//!   insertion-order schedule leaves behind.
//!
//! Scheduling **never** changes the factorization: placements, kernels,
//! and numerical results are fixed by the algorithm layer; a policy only
//! permutes the virtual timeline. The host executors do not consult it:
//! the batch executor pops in FIFO order and the streaming workers by
//! critical-path depth. The timeline-only invariant is property-tested in
//! `sched_props.rs` (batch replay + online streaming).

mod critical_path;
mod eft;
mod engine;
mod fifo;
mod locality;

pub use critical_path::{CriticalPath, Ready, ReadyQueue};
pub use eft::Eft;
pub use engine::{SchedEngine, SchedView};
pub use fifo::Fifo;
pub use locality::LocalityAware;

use crate::graph::TaskId;

/// Which task-selection policy drives the virtual-time schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Insertion order (the pre-subsystem behavior, bitwise).
    #[default]
    Fifo,
    /// Deepest hazard chain first (the streaming ready queue, generalized).
    CriticalPath,
    /// Deepest chain first, fewest missing input bytes tie-break.
    LocalityAware,
    /// HEFT-style earliest estimated finish time first.
    Eft,
}

impl SchedPolicy {
    /// Stable lowercase name (bench records, trace lane labels).
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::CriticalPath => "critical-path",
            SchedPolicy::LocalityAware => "locality",
            SchedPolicy::Eft => "eft",
        }
    }

    /// Every policy, in documentation order (sweeps and benches).
    pub fn all() -> [SchedPolicy; 4] {
        [
            SchedPolicy::Fifo,
            SchedPolicy::CriticalPath,
            SchedPolicy::LocalityAware,
            SchedPolicy::Eft,
        ]
    }

    /// Instantiate the policy's [`Scheduler`].
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        match self {
            SchedPolicy::Fifo => Box::new(Fifo::default()),
            SchedPolicy::CriticalPath => Box::new(CriticalPath::default()),
            SchedPolicy::LocalityAware => Box::new(LocalityAware::default()),
            SchedPolicy::Eft => Box::new(Eft::default()),
        }
    }
}

/// A task whose hazard predecessors have all been scheduled, with the
/// static metadata policies key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyTask {
    /// Submission id (insertion order).
    pub id: TaskId,
    /// Owner node (owner-computes placement — policies pick *when*, never
    /// *where*).
    pub node: usize,
    /// Critical-path depth: `1 + max` over hazard predecessors.
    pub depth: u64,
}

/// Ready-task selection: the one decision the subsystem owns.
///
/// The engine pushes a task the moment its last hazard predecessor is
/// scheduled and pops one whenever it wants to advance the virtual clock;
/// `pop` receives a read-only [`SchedView`] of the engine so dynamic
/// policies (locality, EFT) can score candidates against the *current*
/// core and network state. Implementations must be deterministic: equal
/// scores break toward the earliest-inserted task everywhere, which keeps
/// every report reproducible run to run.
pub trait Scheduler: Send {
    /// Stable policy name.
    fn name(&self) -> &'static str;

    /// A task entered the ready set.
    fn push(&mut self, task: ReadyTask);

    /// Select and remove the next task to schedule (`None` iff empty).
    fn pop(&mut self, view: &SchedView<'_>) -> Option<ReadyTask>;

    /// The engine just processed a task executing on `node`: any cached
    /// score that depends on that node's residency or clocks is stale.
    /// Policies that score fresh at pop time (or key on static metadata)
    /// ignore this; cache-keeping policies ([`LocalityAware`]) use it to
    /// re-score only what could have moved.
    fn invalidate(&mut self, _node: usize) {}

    /// Ready tasks currently queued.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reference selection scan for the dynamically-scored policies: remove
/// and return the ready task with the *minimum* score, breaking ties
/// toward the deeper chain and then the earlier insertion — the
/// determinism contract both production implementations (locality's
/// dirty-node cache, EFT's lazy heap) must reproduce, and what the
/// engine's equivalence tests pin them against. Scores are evaluated at
/// call time. An unordered score comparison (NaN) never wins.
#[cfg(test)]
pub(crate) fn take_best_scored<K: PartialOrd>(
    ready: &mut Vec<ReadyTask>,
    mut score: impl FnMut(&ReadyTask) -> K,
) -> Option<ReadyTask> {
    if ready.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_score = score(&ready[0]);
    for i in 1..ready.len() {
        let s = score(&ready[i]);
        let better = match s.partial_cmp(&best_score) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Equal) => {
                let (a, b) = (&ready[i], &ready[best]);
                a.depth > b.depth || (a.depth == b.depth && a.id < b.id)
            }
            _ => false,
        };
        if better {
            best = i;
            best_score = s;
        }
    }
    Some(ready.swap_remove(best))
}
