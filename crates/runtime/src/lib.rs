//! # luqr-runtime — dynamic task-graph runtime and platform simulator
//!
//! A library-form reproduction of the runtime substrate the paper builds on
//! PaRSEC (Section IV):
//!
//! * [`graph`] — task graphs with *superscalar* dependency inference: tasks
//!   declare the tiles they read/write and RAW/WAR/WAW hazards become edges.
//!   Both the LU and the QR branch of every elimination step live in the
//!   graph; branch tasks consult the recorded criterion decision when they
//!   run and either execute or discard themselves — the paper's dynamic
//!   task-graph mechanism ("select the adequate tasks on the fly, and
//!   discard the useless ones").
//! * [`hazard`] — the one RAW/WAR/WAW inference implementation behind
//!   [`graph`], [`sched`], and the streaming window's datum directories,
//!   parameterized over the per-writer payload each client keeps.
//! * [`exec`] — a dependency-counting multithreaded executor.
//! * [`platform`] / [`sim`] — a description of the paper's *Dancer* cluster
//!   and a discrete-event simulator replaying executed graphs against it:
//!   owner-computes placement, per-class kernel efficiencies, NIC-serialized
//!   messages with latency + bandwidth. This regenerates the paper's
//!   distributed performance results from a single machine.
//! * [`stream`] — the windowed *streaming* executor: graph construction
//!   interleaved with execution, at most `window` consecutive steps
//!   materialized, completed steps retired, and per-step branch decisions
//!   consumed online ([`stream::StepSource`]). The batch path builds the
//!   whole DAG first; the streaming path bounds graph memory by the window.
//! * [`comm`] — the communication model shared by the simulator and the
//!   *distributed* streaming window: NIC-serialized transfers plus the
//!   protocol message records (DataMsg / DecisionMsg / RetireMsg).
//! * [`net`] — real transports for that protocol: a [`net::Transport`]
//!   endpoint per rank (in-process loopback, crossbeam channels, or
//!   UDS/TCP sockets between worker processes) moving length-prefixed
//!   wire frames, driven by the SPMD executor [`stream::execute_net`].
//! * [`vtime`] — the online virtual-time engine: the discrete-event model
//!   consumed one task at a time, so a streaming run emits the same report
//!   as a batch replay without materializing the graph.
//! * [`sched`] — pluggable ready-task selection over that engine: FIFO
//!   (insertion order, the bitwise-pinned default), critical-path,
//!   locality-aware, and HEFT-style earliest-finish-time policies, shared
//!   by the batch simulator and both streaming paths.
//! * [`probe`] — typed metrics probes (counters, gauges, time-series
//!   histograms) threaded through the scheduler, the streaming window, the
//!   comm model, and the vtime engine, plus a makespan-attribution pass
//!   (compute / transfer / contention / idle) and Chrome-trace, Prometheus,
//!   and JSON export.
//! * [`dot`] — Graphviz export (Figure 1's dataflow, from a live graph).

pub mod comm;
pub mod dot;
pub mod exec;
pub mod graph;
pub mod hazard;
pub mod net;
pub mod platform;
pub mod probe;
pub mod sched;
pub mod sim;
pub mod stream;
pub mod trace;
pub mod vtime;

pub use comm::{
    DataMsg, DecisionMsg, LinkMsgStats, LinkTraffic, Msg, MsgStats, Network, RetireMsg,
};
pub use exec::{execute, execute_traced, ExecReport, Tally};
pub use graph::{
    Access, CostClass, CostedAccess, DataClass, DataKey, Graph, GraphBuilder, Kernel, TaskBuilder,
    TaskId, TaskResult, TaskSink,
};
pub use net::{Frame, NetReport, PayloadStore, Transport, TransportError};
pub use platform::{Efficiency, LinkSpec, NodeCountMismatch, NodeSpec, Platform, Topology};
pub use probe::{
    AttribBuckets, Attribution, Histogram, Label, NoopSink, Probe, ProbeReport, ProbeSink,
    ProbeSnapshot, Registry,
};
pub use sched::{SchedEngine, SchedPolicy, Scheduler};
pub use sim::{simulate, simulate_probed, simulate_with, SimOptions, SimReport};
pub use stream::{
    NetConfig, StepPhase, StepSource, StreamOptions, StreamReport, StreamWindow, WindowPolicy,
};
pub use trace::{render_chrome_trace, sim_events, TraceEvent, TraceOptions};
pub use vtime::VirtualSchedule;
