//! The luqr repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's factor + solve calls untraced
//! for `--seconds` and prints the end-to-end metrics; with `--trace 1` it
//! runs traced calls and prints the per-layer metrics, writing every span
//! and a Chrome trace under `.bench_out/`. Every call's solution is
//! checked; a failed or wrong call counts against `ok_frac`. The last line
//! of standard output is the result object; the line before it holds the
//! run's provenance.

mod affinity;
mod json;
mod layers;
mod metrics;
mod provenance;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use stats::{median, quantile};
use workload::{check, workload, Entry, Workload, NAMES, TRANSPORT};

/// The untraced run is split across this many fresh processes, run one
/// after another: their first calls give `setup_s`, and taking medians
/// over processes keeps a burst of host contention in one of them from
/// moving the run's figures.
const PROCS: usize = 8;
/// Systems each process solves, cycling; a run covers `PROCS * SYSTEMS`
/// distinct systems generated from its seed.
const SYSTEMS: usize = 5;
/// Grace beyond its time share before a worker process counts as hung.
const WORKER_GRACE_S: f64 = 15.0;
/// Share of `dist_sim`'s traced run spent on its own calls; the rest
/// traces the transport configuration.
const DIST_SIM_SHARE: f64 = 0.6;
/// A run that has not finished after this long exits without a result,
/// so a hung solver cannot hold the caller.
const RUN_DEADLINE_S: u64 = 170;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run as process `c` of an untraced run.
    worker: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--worker" => worker = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        worker,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    let Some(w) = workload(&args.workload) else {
        fail(&format!("unknown workload {:?}", args.workload))
    };
    if let Some(c) = args.worker {
        worker(&w, args.seed, c, args.seconds);
        return;
    }
    // Deliberately detached: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(RUN_DEADLINE_S));
        eprintln!("perfbench: no result after {RUN_DEADLINE_S} s; giving up");
        std::process::exit(3);
    });
    let (values, attempted, failed, samples, catalogue) = if args.trace {
        pin_or_warn(0);
        let run = if w.entry == Entry::DistSim {
            // The transport layer rides on the other multi-node workload's
            // traced run (see `TRANSPORT` for why it is no workload itself).
            let transport = workload(TRANSPORT).expect("the transport configuration");
            let mut run = layers::run(&w, args.seed, args.seconds * DIST_SIM_SHARE);
            run.absorb_transport(layers::run(
                &transport,
                args.seed,
                args.seconds * (1.0 - DIST_SIM_SHARE),
            ));
            run
        } else {
            layers::run(&w, args.seed, args.seconds)
        };
        let prov = provenance::to_json(w.name, args.seed, w.threads, run.traced_calls, true);
        write_trace(&w, args.seed, &prov, &run);
        println!("{{\"provenance\": {prov}}}");
        (
            run.values,
            run.attempted,
            run.failed,
            run.traced_calls,
            metrics::per_layer(),
        )
    } else {
        let (values, attempted, failed, samples) = end_to_end(&w, args.seed, args.seconds);
        let prov = provenance::to_json(w.name, args.seed, w.threads, samples, false);
        println!("{{\"provenance\": {prov}}}");
        (values, attempted, failed, samples, metrics::end_to_end())
    };
    for c in &catalogue {
        eprintln!(
            "{:<34} {:>16.6} {}",
            c.name,
            values.get(&c.name).copied().unwrap_or(0.0),
            c.unit
        );
    }
    eprintln!("{samples} timed calls, {attempted} attempted, {failed} failed");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics::to_json(&catalogue, &values)
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|{TRANSPORT}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    );
    std::process::exit(2);
}

/// Run the rest of this process on one CPU (see [`affinity`]).
fn pin_or_warn(k: usize) {
    if affinity::pin(k).is_none() {
        eprintln!("perfbench: could not pin to one CPU; timing unpinned");
    }
}

/// The process's resident-set high-water mark, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process `c` of an untraced run: one cold call, then warm calls over
/// its systems for `seconds`, every call checked. Reports on stdout, one
/// fact a line: `setup <s>`, `t <s>` per warm call, `hpl3 <system> <v>`,
/// `rss <MB>`, and `calls <attempted> <failed>`.
fn worker(w: &Workload, seed: u64, c: usize, seconds: f64) {
    pin_or_warn(c);
    let (opts, platform) = (w.opts(), w.platform());
    let ids: Vec<usize> = (0..SYSTEMS).map(|k| c * SYSTEMS + k).collect();
    let systems: Vec<_> = ids.iter().map(|&i| w.problem(seed, i)).collect();
    let (mut attempted, mut failed) = (0, 0);
    let mut out = String::new();
    let mut call = |k: usize, out: &mut String| {
        let p = &systems[k % SYSTEMS];
        let t = Instant::now();
        let solved = w.solve(p, &opts, &platform);
        let secs = t.elapsed().as_secs_f64();
        attempted += 1;
        match solved.and_then(|s| check(p, &s.x)) {
            Ok(h) if k < SYSTEMS => out.push_str(&format!("hpl3 {} {h}\n", ids[k])),
            Ok(_) => {}
            Err(e) => {
                failed += 1;
                eprintln!("call failed: {e}");
            }
        }
        secs
    };
    let cold = call(0, &mut out);
    out.push_str(&format!("setup {cold}\n"));
    let start = Instant::now();
    let mut k = 1;
    while k <= SYSTEMS || start.elapsed().as_secs_f64() < seconds {
        let secs = call(k, &mut out);
        out.push_str(&format!("t {secs}\n"));
        k += 1;
    }
    out.push_str(&format!(
        "rss {}\ncalls {attempted} {failed}\n",
        peak_rss_mb()
    ));
    print!("{out}");
}

/// Run worker process `c` to completion and return its report; a worker
/// that fails, or outlives its share by [`WORKER_GRACE_S`], is killed and
/// reported as an error.
fn run_worker(exe: &Path, w: &Workload, seed: u64, c: usize, share: f64) -> Result<String, String> {
    let mut child = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &share.to_string(), "--worker", &c.to_string()])
        // The report is a few KB, well inside a pipe buffer, so the worker
        // never blocks on its stdout before it exits.
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("did not start: {e}"))?;
    let limit = share + WORKER_GRACE_S;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed().as_secs_f64() < limit => {
                std::thread::sleep(Duration::from_millis(10))
            }
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("killed after {limit} s ({other:?})"));
            }
        }
    };
    let mut report = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut report)
            .map_err(|e| format!("unreadable report: {e}"))?;
    }
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    Ok(report)
}

/// The untraced run: [`PROCS`] worker processes one after another, each
/// for an equal share of `seconds`, combined by medians over processes.
fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> (BTreeMap<String, f64>, usize, usize, usize) {
    let exe = std::env::current_exe().expect("the benchmark's own executable path");
    let share = seconds / PROCS as f64;
    let (mut setup, mut hpl3, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    // Each process's own median and 90th percentile: a burst of host
    // contention that lands in one process moves that process's figures,
    // not the median over processes.
    let (mut medians, mut p90s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for c in 0..PROCS {
        let report = run_worker(&exe, w, seed, c, share).unwrap_or_else(|e| {
            eprintln!("worker {c}: {e}");
            String::new()
        });
        let mut counted = false;
        let mut own = Vec::new();
        for line in report.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let num = |i: usize| {
                f.get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(f64::NAN)
            };
            match f[0] {
                "setup" => setup.push(num(1)),
                "t" => own.push(num(1)),
                "hpl3" => hpl3.push(num(2)),
                "rss" => rss.push(num(1)),
                "calls" => {
                    attempted += num(1) as usize;
                    failed += num(2) as usize;
                    counted = true;
                }
                _ => {}
            }
        }
        if !counted {
            // A worker that died or reported nothing is one failed attempt.
            attempted += 1;
            failed += 1;
        }
        if !own.is_empty() {
            medians.push(median(&own));
            p90s.push(quantile(&own, 0.9));
            samples += own.len();
        }
    }
    // A system whose every call failed has no HPL3; count it as unbounded.
    hpl3.resize(PROCS * SYSTEMS, f64::INFINITY);

    let solve_s = median(&medians);
    let n = w.n as f64;
    let values = BTreeMap::from([
        ("solve_s".to_string(), solve_s),
        ("solve_s_p90".to_string(), median(&p90s)),
        ("gflops".to_string(), 2.0 / 3.0 * n * n * n / solve_s / 1e9),
        ("hpl3".to_string(), median(&hpl3)),
        (
            "ok_frac".to_string(),
            1.0 - failed as f64 / attempted.max(1) as f64,
        ),
        ("setup_s".to_string(), median(&setup)),
        ("peak_rss_mb".to_string(), median(&rss)),
    ]);
    (values, attempted.max(1), failed, samples)
}

/// Write the traced run's spans (with provenance) and Chrome trace.
fn write_trace(w: &Workload, seed: u64, provenance: &str, run: &layers::LayerRun) {
    let dir = Path::new(".bench_out").join(format!("{}-seed{seed}", w.name));
    let spans = format!(
        "{{\"provenance\": {provenance},\n\"spans\": {}}}\n",
        run.spans
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join("spans.json"), spans))
        .and_then(|_| std::fs::write(dir.join("trace.json"), &run.chrome));
    match written {
        Ok(()) => eprintln!("spans and Chrome trace written to {}", dir.display()),
        Err(e) => eprintln!("could not write trace output to {}: {e}", dir.display()),
    }
}
