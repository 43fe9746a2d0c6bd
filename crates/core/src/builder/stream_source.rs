//! Adapter exposing a [`StepPlanner`] to the streaming runtime.
//!
//! [`PlannerStepSource`] implements [`luqr_runtime::stream::StepSource`]:
//! the streaming driver pulls elimination steps on demand, and each
//! planning call is translated into the planner's [`Inserter`] context over
//! whatever [`TaskSink`] the runtime hands back (the live window). The
//! hybrid planner returns its PANEL task from the prelude, which the driver
//! awaits before asking for the decision-dependent remainder — this is the
//! point where the criterion is consumed *online* and only the chosen
//! branch is unrolled.
//!
//! The source is what carries node-awareness from the algorithm layer into
//! the runtime: `num_nodes` reports the process grid's extent (the
//! virtual nodes tasks and data are placed on), `prepare` declares every
//! tile with its block-cyclic home (the communication model's fetch
//! sources and byte counts), and the planners place each task on its
//! owner node and classify the per-step decision datum — which is how the
//! distributed window knows to account cross-node reads of it as the
//! paper's criterion broadcast ([`luqr_runtime::DecisionMsg`]).

use luqr_runtime::stream::{StepPhase, StepSource};
use luqr_runtime::TaskSink;
use luqr_tile::{Dist, TiledMatrix};

use crate::config::FactorOptions;

use super::{declare_tiles, Inserter, SharedState, StepPlanner};

/// A factorization exposed step by step to the streaming driver
/// ([`luqr_runtime::stream::execute_with`] and
/// [`luqr_runtime::stream::execute_net`]).
pub struct PlannerStepSource<'a> {
    planner: Box<dyn StepPlanner>,
    aug: &'a TiledMatrix,
    nt_a: usize,
    dist: Dist,
    opts: &'a FactorOptions,
    shared: SharedState,
}

impl<'a> PlannerStepSource<'a> {
    /// Stream the factorization of `aug` (an augmented `[A | B]` tiled
    /// matrix with `nt_a` tile columns of `A`) using the planner registered
    /// for `opts.algorithm`.
    pub fn new(aug: &'a TiledMatrix, nt_a: usize, opts: &'a FactorOptions) -> Self {
        PlannerStepSource {
            planner: crate::planner_for(&opts.algorithm),
            aug,
            nt_a,
            dist: opts.tile_dist(),
            opts,
            shared: SharedState::default(),
        }
    }

    /// Shared state written by the factorization's tasks (criterion
    /// records, first numerical failure).
    pub fn shared(&self) -> &SharedState {
        &self.shared
    }
}

/// Build the planner-facing insertion context. A macro rather than a
/// method: it reads `$src`'s fields directly (the `aug`/`opts` references
/// are copied out, `dist` and `shared` are cloned), so the caller keeps
/// `$src.planner` free for a simultaneous mutable borrow.
macro_rules! inserter {
    ($src:expr, $sink:expr) => {
        Inserter {
            b: $sink,
            aug: $src.aug,
            nt_a: $src.nt_a,
            dist: $src.dist.clone(),
            opts: $src.opts,
            shared: $src.shared.clone(),
        }
    };
}

impl StepSource for PlannerStepSource<'_> {
    fn num_steps(&self) -> usize {
        self.nt_a
    }

    fn num_nodes(&self) -> usize {
        self.dist.nodes()
    }

    fn prepare(&mut self, sink: &mut dyn TaskSink) {
        declare_tiles(sink, self.aug, &self.dist);
    }

    fn plan_prelude(&mut self, k: usize, sink: &mut dyn TaskSink) -> StepPhase {
        let mut ins = inserter!(self, sink);
        match self.planner.plan_step_prelude(k, &mut ins) {
            Some(decision_task) => StepPhase::AwaitDecision(decision_task),
            None => StepPhase::Complete,
        }
    }

    fn plan_finish(&mut self, k: usize, sink: &mut dyn TaskSink) {
        let mut ins = inserter!(self, sink);
        self.planner.plan_step_rest(k, &mut ins);
    }

    fn recalibrate(&mut self, observed_speeds: &[f64]) {
        // Re-aim the tile distribution at the speeds the run has actually
        // observed (retired steps only): tasks of *future* steps are
        // placed by the refreshed weights, while already-declared tile
        // homes and already-planned placements stay put — the owed
        // transfers and hazard state of live steps must not be rewritten
        // under them. Note the panel planners *group* their reduction
        // trees (QR kills, LU swap/reduce fan-in) by owner node, so a
        // regrouped future step computes a numerically equivalent
        // factorization that may differ from the fixed-distribution one
        // at round-off — exactly as a static run under the new
        // distribution would.
        self.dist = Dist::calibrated(self.opts.grid, observed_speeds);
    }
}
