//! The traced run: the same factor + solve calls, split into the layers
//! the solver's public API exposes, with each layer call timed from here.
//!
//! Nothing is instrumented inside the solver. Per-task kernel spans come
//! from the executors' own trace output (`execute_traced`, and
//! `StreamOptions::trace` on the streaming paths); counters come from the
//! reports and the `Probe` the API already returns.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use luqr::builder::build_graph;
use luqr::solve::back_substitute;
use luqr::{
    factor, factor_stream_distributed_opts, factor_stream_net_opts, factor_stream_with,
    FactorOptions, NetTransportKind, Probe,
};
use luqr_kernels::blas::{gemm, trsm, Diag, Side, Trans, UpLo};
use luqr_kernels::flops;
use luqr_kernels::gemm_kernel::set_kernel_threads;
use luqr_kernels::lu::getrf;
use luqr_kernels::qr::{geqrt, tpmqrt, tpqrt, unmqr};
use luqr_kernels::Mat;
use luqr_runtime::net::channel::channel_set;
use luqr_runtime::probe::metric;
use luqr_runtime::stream::StreamReport;
use luqr_runtime::{
    execute_traced, render_chrome_trace, CostClass, DataClass, DataKey, Frame, Graph, Label,
    Platform, TraceEvent, TraceOptions, Transport,
};
use luqr_tile::TiledMatrix;

use crate::metrics;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{check, step_counts, Entry, Problem, Solved, Workload};

/// Kernel cost class and flops of each executed task, by task name. Tasks
/// that share a name run the same kernel on same-sized tiles.
type ClassMap = HashMap<String, (CostClass, f64)>;

fn class_map(graph: &Graph) -> ClassMap {
    graph
        .tasks
        .iter()
        .filter_map(|t| {
            let r = t.result()?;
            r.executed.then(|| (t.name.clone(), (r.class, r.flops)))
        })
        .collect()
}

/// Per-call values, one list per metric name.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    fn medians(&self) -> BTreeMap<String, f64> {
        self.0.iter().map(|(k, v)| (k.clone(), median(v))).collect()
    }
}

/// Outcome of one traced call.
struct Traced {
    root: usize,
    result: Result<Solved, String>,
    /// Per-task kernel spans on the tracer's clock.
    events: Vec<TraceEvent>,
}

/// Shift executor spans (seconds since the executor started) onto the
/// tracer's clock, anchored at the start of the layer span that ran it.
fn shift(mut events: Vec<TraceEvent>, origin: f64) -> Vec<TraceEvent> {
    for e in &mut events {
        e.start += origin;
        e.end += origin;
    }
    events
}

/// Kernel-class busy time and rate, and task busy / non-kernel time, for
/// the per-task spans of one layer call of `wall` seconds on `lanes`
/// worker threads.
fn kernel_split(
    s: &mut Samples,
    layer: &str,
    events: &[TraceEvent],
    classes: &ClassMap,
    wall: f64,
    lanes: usize,
    tasks: usize,
) {
    let mut busy = [0.0f64; CostClass::COUNT];
    let mut flops = [0.0f64; CostClass::COUNT];
    let mut total = 0.0;
    for e in events {
        let d = e.end - e.start;
        total += d;
        if let Some(&(class, f)) = classes.get(&e.name) {
            busy[class.index()] += d;
            flops[class.index()] += f;
        }
    }
    for (class, label) in metrics::CLASSES {
        let i = class.index();
        s.push(format!("kernels.{label}.busy_s"), busy[i]);
        if class.is_compute() && busy[i] > 0.0 {
            s.push(format!("kernels.{label}.gflops"), flops[i] / busy[i] / 1e9);
        }
    }
    s.push(format!("{layer}.wall_s"), wall);
    s.push(format!("{layer}.task_busy_s"), total);
    s.push(
        format!("{layer}.nonkernel_us_per_task"),
        (lanes as f64 * wall - total) / tasks.max(1) as f64 * 1e6,
    );
}

fn stream_counts(s: &mut Samples, report: &StreamReport) {
    s.push("stream.tasks_planned", report.tasks_planned as f64);
    s.push("stream.peak_live_tasks", report.peak_live_tasks as f64);
    s.push("comm.data_msgs", report.msgs.data_msgs as f64);
    s.push("comm.decision_msgs", report.msgs.decision_msgs as f64);
    s.push("comm.retire_msgs", report.msgs.retire_msgs as f64);
}

/// One traced call. Layer spans go to `tr` under a root span named
/// `call`; per-layer values go to `s`.
#[allow(clippy::too_many_arguments)]
fn traced_call(
    tr: &mut Tracer,
    call: usize,
    w: &Workload,
    p: &Problem,
    opts: &FactorOptions,
    platform: &Platform,
    classes: &ClassMap,
    s: &mut Samples,
) -> Traced {
    let root = tr.begin(call, "call", None);
    let n = w.n;
    let traced = match w.entry {
        Entry::Batch => {
            // `factor` + `Factorization::solution`, one layer at a time.
            set_kernel_threads(opts.threads.max(1));
            let (aug, t_layout) = tr.time(call, "tile.layout", Some(root), || {
                TiledMatrix::from_dense_augmented(&p.a, &p.b, opts.nb)
            });
            let nt_a = aug.nt() - p.b.cols().div_ceil(opts.nb);
            let ((graph, shared), t_plan) = tr.time(call, "builder.plan", Some(root), || {
                build_graph(&aug, nt_a, opts)
            });
            let ((report, events), t_exec) = tr.time(call, "exec", Some(root), || {
                execute_traced(&graph, opts.threads)
            });
            let (x, t_solve) = tr.time(call, "solve.backsub", Some(root), || {
                back_substitute(&aug, n, p.b.cols())
            });
            tr.end(root);
            let events = shift(events, tr.spans[t_exec].start);
            let own = class_map(&graph);
            kernel_split(
                s,
                "exec",
                &events,
                &own,
                tr.spans[t_exec].duration(),
                opts.threads,
                graph.len(),
            );
            s.push("tile.layout_s", tr.spans[t_layout].duration());
            s.push("builder.plan_s", tr.spans[t_plan].duration());
            s.push("builder.tasks_inserted", graph.len() as f64);
            let ran = report.tasks_executed + report.tasks_discarded;
            s.push(
                "builder.useful_ratio",
                report.tasks_executed as f64 / ran.max(1) as f64,
            );
            s.push("solve.backsub_s", tr.spans[t_solve].duration());
            let records = shared.records.lock().clone();
            let result = match shared.error.lock().clone() {
                Some(e) => Err(e),
                None => Ok(Solved { x, records }),
            };
            Traced {
                root,
                result,
                events,
            }
        }
        Entry::Stream | Entry::DistSim | Entry::Net => {
            let sopts = w.stream_opts().with_trace();
            let policy = sopts.scheduler;
            let probe = Probe::enabled();
            let layer = match w.entry {
                Entry::Stream => "stream",
                Entry::DistSim => "stream.distributed",
                _ => "net",
            };
            let (f, t_run) = tr.time(call, layer, Some(root), || match w.entry {
                Entry::Stream => Ok(factor_stream_with(&p.a, &p.b, opts, &sopts)),
                Entry::DistSim => factor_stream_distributed_opts(
                    &p.a,
                    &p.b,
                    opts,
                    platform,
                    &sopts.with_probe(probe.clone()),
                )
                .map(|d| d.stream)
                .map_err(|e| e.to_string()),
                _ => factor_stream_net_opts(&p.a, &p.b, opts, &sopts, &NetTransportKind::Channel)
                    .map_err(|e| format!("transport: {e}")),
            });
            let f = match f {
                Ok(f) => f,
                Err(e) => {
                    tr.end(root);
                    return Traced {
                        root,
                        result: Err(e),
                        events: Vec::new(),
                    };
                }
            };
            let (x, t_solve) = tr.time(call, "solve.backsub", Some(root), || f.solution());
            tr.end(root);
            let report = &f.report;
            let events = shift(report.trace.clone(), tr.spans[t_run].start);
            kernel_split(
                s,
                "stream",
                &events,
                classes,
                tr.spans[t_run].duration(),
                opts.threads,
                report.tasks_planned,
            );
            stream_counts(s, report);
            s.push("solve.backsub_s", tr.spans[t_solve].duration());
            if let Some(sim) = &report.sim {
                s.push("vtime.makespan_s", sim.makespan);
                let snap = probe.snapshot();
                if let Some(h) =
                    snap.histogram(metric::SCHED_DECISION, Label::Policy(policy.name()))
                {
                    if h.count > 0 {
                        s.push("sched.decision_ns_per_pop", h.sum / h.count as f64 * 1e9);
                    }
                }
            }
            if let Some(net) = &report.net {
                s.push("net.frames_sent", net.frames_sent as f64);
                s.push("net.payload_bytes_sent", net.payload_bytes_sent as f64);
                s.push("net.serialize_s", net.serialize_seconds.sum);
                s.push("net.deserialize_s", net.deserialize_seconds.sum);
            }
            let result = match f.error.clone() {
                Some(e) => Err(e),
                None => Ok(Solved {
                    x,
                    records: f.records.clone(),
                }),
            };
            Traced {
                root,
                result,
                events,
            }
        }
    };
    if let Ok(solved) = &traced.result {
        let (lu, qr) = step_counts(&solved.records);
        s.push("criteria.lu_steps", lu as f64);
        s.push("criteria.qr_steps", qr as f64);
    }
    traced
}

/// Seconds per call of `run` over fresh states from `make` (the median of
/// several blocks), and the flops one call does by the kernel counters.
fn time_kernel<S>(make: impl Fn() -> S, mut run: impl FnMut(&mut S)) -> (f64, f64) {
    let mut probe = make();
    let t = Instant::now();
    let (_, counted) = flops::measure(|| run(&mut probe));
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let reps = ((2e-3 / once) as usize).clamp(4, 4096);
    let mut per_call = Vec::new();
    for _ in 0..9 {
        let mut states: Vec<S> = (0..reps).map(|_| make()).collect();
        let t = Instant::now();
        for st in &mut states {
            run(st);
        }
        per_call.push(t.elapsed().as_secs_f64() / reps as f64);
        black_box(&states);
    }
    (median(&per_call), counted.total() as f64)
}

/// Standalone tile kernels at tile size `nb` on one thread: GF/s, and as
/// a fraction of GEMM's rate measured in the same run.
fn micro_kernels(nb: usize, ib: usize, seed: u64) -> BTreeMap<String, f64> {
    set_kernel_threads(1);
    let a0 = Mat::random(nb, nb, seed);
    let rand = |k: u64| Mat::random(nb, nb, seed.wrapping_add(k));
    let tri = {
        let mut t = rand(2).upper_triangular();
        for i in 0..nb {
            t[(i, i)] += 2.0;
        }
        t
    };
    let (x, y) = (rand(4), rand(5));
    let (vq, tq) = {
        let mut a = a0.clone();
        let t = geqrt(&mut a, ib);
        (a, t)
    };
    let (vts, tts) = {
        let mut r = tri.clone();
        let mut bb = rand(10);
        let t = tpqrt(0, &mut r, &mut bb, ib);
        (bb, t)
    };
    let rates: Vec<(&str, (f64, f64))> = vec![
        (
            "gemm",
            time_kernel(
                || rand(6),
                |c| gemm(Trans::NoTrans, Trans::NoTrans, -1.0, &x, &y, 1.0, c),
            ),
        ),
        (
            "trsm",
            time_kernel(
                || rand(3),
                |b| {
                    trsm(
                        Side::Right,
                        UpLo::Upper,
                        Trans::NoTrans,
                        Diag::NonUnit,
                        1.0,
                        &tri,
                        b,
                    )
                },
            ),
        ),
        (
            "getrf",
            time_kernel(
                || a0.clone(),
                |a| {
                    black_box(getrf(a).ok());
                },
            ),
        ),
        (
            "geqrt",
            time_kernel(
                || a0.clone(),
                |a| {
                    black_box(geqrt(a, ib));
                },
            ),
        ),
        (
            "unmqr",
            time_kernel(|| rand(7), |c| unmqr(Trans::Trans, &vq, &tq, c)),
        ),
        (
            "tsqrt",
            time_kernel(
                || (tri.clone(), rand(8)),
                |(r, b)| {
                    black_box(tpqrt(0, r, b, ib));
                },
            ),
        ),
        (
            "tsmqr",
            time_kernel(
                || (rand(11), rand(12)),
                |(top, bot)| tpmqrt(Trans::Trans, 0, &vts, &tts, top, bot),
            ),
        ),
    ];
    let gemm_rate = rates[0].1 .1 / rates[0].1 .0 / 1e9;
    let mut out = BTreeMap::new();
    for (k, (secs, flops)) in rates {
        let rate = flops / secs / 1e9;
        out.insert(format!("kernels.micro.{k}.gflops"), rate);
        if k != "gemm" {
            out.insert(format!("kernels.micro.{k}.frac_gemm"), rate / gemm_rate);
        }
    }
    out
}

/// Tile-sized `Data` frames per second from rank 1 to rank 0 through a
/// channel transport's `send` / `recv`, receiver draining concurrently.
fn channel_frames_per_s(nb: usize) -> f64 {
    const FRAMES: usize = 2000;
    let payload = vec![0x5Au8; nb * nb * 8];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let mut set = channel_set(2).into_iter();
        let (r0, r1) = (set.next().expect("rank 0"), set.next().expect("rank 1"));
        let t = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..FRAMES {
                    let frame = Frame::Data {
                        key: DataKey(i as u64),
                        producer: Some(i),
                        from: 1,
                        to: 0,
                        class: DataClass::Payload,
                        modeled_bytes: payload.len() as u64,
                        payload: payload.clone(),
                    };
                    r1.send(0, &frame).expect("channel send");
                }
                r1.send(0, &Frame::Done).expect("channel send");
            });
            loop {
                match r0.recv().expect("channel recv") {
                    (_, Frame::Done) => break,
                    (_, f) => {
                        black_box(&f);
                    }
                }
            }
        });
        rates.push(FRAMES as f64 / t.elapsed().as_secs_f64());
        r0.shutdown();
        r1.shutdown();
    }
    median(&rates)
}

/// Systems the traced run cycles through.
const SYSTEMS: usize = 4;

/// Result of the traced run.
pub struct LayerRun {
    pub values: BTreeMap<String, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub traced_calls: usize,
    /// Every layer span of the run, as JSON.
    pub spans: String,
    /// Chrome trace of the last traced call: its layer spans and per-task
    /// kernel spans.
    pub chrome: String,
}

impl LayerRun {
    /// Take the transport layer's metrics (`net.*`) and the call counts
    /// of `net`, a traced run of the [`TRANSPORT`](crate::workload::TRANSPORT)
    /// configuration. The spans and Chrome trace stay this run's own.
    pub fn absorb_transport(&mut self, net: LayerRun) {
        self.values.extend(
            net.values
                .into_iter()
                .filter(|(k, _)| k.starts_with("net.")),
        );
        self.attempted += net.attempted;
        self.failed += net.failed;
        self.traced_calls += net.traced_calls;
    }
}

/// Time `f`, gate its solution, and count the attempt.
fn gated(
    p: &Problem,
    attempted: &mut usize,
    failed: &mut usize,
    f: impl FnOnce() -> Result<Solved, String>,
) -> f64 {
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    *attempted += 1;
    if let Err(e) = r.and_then(|s| check(p, &s.x)) {
        *failed += 1;
        eprintln!("call failed: {e}");
    }
    secs
}

/// Run traced calls, interleaved with untraced ones (for the tracing
/// overhead) and, where a layer is judged against another path, with that
/// path's call on the same input, for at least `seconds`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> LayerRun {
    let opts = w.opts();
    let platform = w.platform();
    let pool: Vec<Problem> = (0..SYSTEMS).map(|i| w.problem(seed, i)).collect();
    let mut s = Samples::default();
    let mut tr = Tracer::new();
    let (mut attempted, mut failed) = (0usize, 0usize);

    let mut fixed = micro_kernels(w.nb, w.ib, seed);
    fixed.insert(
        "net.channel_frames_per_s".into(),
        channel_frames_per_s(w.nb),
    );
    // The streaming paths plan the same named tasks as the batch graph, so
    // one executed batch graph on the same input classifies their spans.
    let classes = match w.entry {
        Entry::Batch => ClassMap::new(),
        _ => class_map(&factor(&pool[0].a, &pool[0].b, &opts).graph),
    };

    // The path a layer metric is judged against, on the same input and
    // grid: batch for the streaming window, in-process streaming for the
    // transport.
    let baseline = match w.entry {
        Entry::Stream => Some(Entry::Batch),
        Entry::Net => Some(Entry::Stream),
        _ => None,
    }
    .map(|entry| Workload { entry, ..w.clone() });

    let (mut traced_s, mut plain_s, mut other_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut unattributed = Vec::new();
    let mut last_events = Vec::new();
    let start = Instant::now();
    let mut call = 0;
    while call < 2 || start.elapsed().as_secs_f64() < seconds {
        let p = &pool[call % pool.len()];
        if w.entry != Entry::Batch {
            // These entry points lay out the matrix internally; time the
            // layout call on its own.
            let (aug, id) = tr.time(call, "tile.layout", None, || {
                TiledMatrix::from_dense_augmented(&p.a, &p.b, opts.nb)
            });
            black_box(aug);
            s.push("tile.layout_s", tr.spans[id].duration());
        }
        // Alternate the order so neither variant always runs on a cold cache.
        let untraced_first = call % 2 == 1;
        if untraced_first {
            plain_s.push(gated(p, &mut attempted, &mut failed, || {
                w.solve(p, &opts, &platform)
            }));
        }
        let traced = traced_call(&mut tr, call, w, p, &opts, &platform, &classes, &mut s);
        attempted += 1;
        let verdict = traced
            .result
            .and_then(|solved| check(p, &solved.x))
            .and_then(|_| tr.reconcile(traced.root));
        if let Err(e) = verdict {
            failed += 1;
            eprintln!("traced call failed: {e}");
        }
        traced_s.push(tr.spans[traced.root].duration());
        unattributed.push(tr.self_time(traced.root) / tr.spans[traced.root].duration());
        last_events = traced.events;
        if !untraced_first {
            plain_s.push(gated(p, &mut attempted, &mut failed, || {
                w.solve(p, &opts, &platform)
            }));
        }
        if let Some(b) = &baseline {
            other_s.push(gated(p, &mut attempted, &mut failed, || {
                b.solve(p, &opts, &platform)
            }));
        }
        call += 1;
    }

    let mut values = s.medians();
    values.extend(fixed);
    let gemm_rate = values["kernels.micro.gemm.gflops"];
    for (class, label) in metrics::CLASSES {
        if let (true, Some(&rate)) = (
            class.is_compute(),
            values.get(&format!("kernels.{label}.gflops")),
        ) {
            values.insert(format!("kernels.{label}.frac_gemm"), rate / gemm_rate);
        }
    }
    let plain = median(&plain_s);
    values.insert(
        "trace.overhead_frac".into(),
        median(&traced_s) / plain - 1.0,
    );
    values.insert("trace.unattributed_frac".into(), median(&unattributed));
    match w.entry {
        Entry::Stream => {
            values.insert("stream.vs_batch_ratio".into(), plain / median(&other_s));
        }
        Entry::Net => {
            values.insert("net.overhead_s".into(), plain - median(&other_s));
        }
        _ => {}
    }

    LayerRun {
        values,
        attempted,
        failed,
        traced_calls: call,
        spans: tr.to_json(),
        chrome: chrome_trace(&tr, last_events),
    }
}

/// Chrome-trace process id of the benchmark's own layer spans.
const LAYER_PID: usize = 1000;

fn chrome_trace(tr: &Tracer, mut events: Vec<TraceEvent>) -> String {
    let last_call = tr.spans.last().map_or(0, |s| s.call);
    for sp in tr.spans.iter().filter(|sp| sp.call == last_call) {
        events.push(TraceEvent {
            name: sp.name.to_string(),
            node: LAYER_PID,
            worker: usize::from(sp.parent.is_some()),
            step: None,
            start: sp.start,
            end: sp.end,
        });
    }
    render_chrome_trace(&events, &TraceOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{workload, NAMES, TRANSPORT};

    /// On a reduced size, every workload's traced calls pass the gate and
    /// their layer spans reconcile to the call's wall time.
    #[test]
    fn layer_spans_reconcile_on_reduced_runs() {
        for name in NAMES.into_iter().chain([TRANSPORT]) {
            let w = workload(name).unwrap().reduced();
            let run = run(&w, 3, 0.0);
            assert!(run.traced_calls >= 2);
            assert_eq!(run.failed, 0, "{name}: a gated or unreconciled call");
            assert!(run.values["trace.unattributed_frac"] < crate::spans::RECONCILE_TOL);
            assert!(
                run.values["kernels.gemm.busy_s"] > 0.0,
                "{name}: no GEMM spans classified"
            );
        }
    }
}
