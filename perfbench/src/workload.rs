//! The benchmark's workloads: one fixed solver configuration each, inputs
//! generated from a seed, and the correctness gate every call must pass.
//!
//! Every workload is a closed loop: one caller issues a factor + solve
//! call, waits for it, checks it, and issues the next. The three were
//! chosen so that each stresses a different layer (see the comment on each
//! workload and `BENCHMARK.json`), and each is timed on one CPU.
//! The transport configuration [`TRANSPORT`] is defined here too, but is
//! traced only, as part of `dist_sim`'s traced run.

use luqr::{
    factor_solve, factor_stream, factor_stream_distributed_opts, factor_stream_net, Algorithm,
    Criterion, Decision, FactorOptions, NetTransportKind, SchedPolicy, StepRecord, StreamOptions,
};
use luqr_kernels::blas::{gemm, Trans};
use luqr_kernels::Mat;
use luqr_runtime::Platform;
use luqr_tile::Grid;

/// Which public entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `factor_solve`: whole graph built, then executed by the batch executor.
    Batch,
    /// `factor_stream`: planning interleaved with execution in a window.
    Stream,
    /// `factor_stream_distributed_opts`: per-node windows, simulated network.
    DistSim,
    /// `factor_stream_net`: SPMD ranks exchanging real wire frames.
    Net,
}

/// How `A` is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixKind {
    /// Entries uniform in `[-1, 1]`.
    Uniform,
    /// Uniform, plus `n` on the diagonal of every even tile row, so the
    /// criterion mixes LU and QR steps.
    AlternatingDominance,
}

/// One workload's fixed shape. Only the matrix entries depend on the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub entry: Entry,
    pub n: usize,
    pub nb: usize,
    pub ib: usize,
    /// Worker threads (per rank for `Net`).
    pub threads: usize,
    /// Streaming window in elimination steps (unused by `Batch`).
    pub window: usize,
    /// Process grid rows x columns.
    pub grid: (usize, usize),
    /// `alpha` of the hybrid's Max criterion.
    pub alpha: f64,
    pub matrix: MatrixKind,
}

/// The benchmark's workloads, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["hybrid_coarse", "stream_fine", "dist_sim"];

/// The real-transport configuration. It needs six threads (a planner, a
/// worker and a frame receiver per rank), so on a 2-vCPU shared host its
/// wall time follows the neighbours' load: the 25th-75th percentile spread
/// of its 90th-percentile call time over 10 runs of the same code reached
/// 0.32 of the median, past any usable regression bound. It is therefore
/// not an end-to-end workload; its transport-layer metrics come with
/// `dist_sim`'s traced run, and `--workload net_2rank` still runs it alone.
pub const TRANSPORT: &str = "net_2rank";

/// HPL's pass threshold for the scaled residual; fixed before any run.
pub const HPL3_MAX: f64 = 16.0;
/// Largest accepted `max|x - x_true| / max|x_true|`; fixed before any run.
pub const FORWARD_MAX: f64 = 1e-6;

/// The workload called `name`, if there is one.
pub fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        // Kernel-bound: about half the steps are QR at nb = 80, and kernel
        // spans cover nearly all thread time. QR-kernel, batch-executor and
        // planner changes show here; the streaming window is not used. One
        // worker, as every timed process runs on one CPU (see `affinity`).
        // Unpinned on a 2-vCPU shared host, a second worker made the call
        // time follow the neighbours' load (up to 2x for minutes at a time)
        // and saved at most ~20% of it even when the host was quiet.
        "hybrid_coarse" => Workload {
            name: "hybrid_coarse",
            entry: Entry::Batch,
            n: 960,
            nb: 80,
            ib: 16,
            threads: 1,
            window: 0,
            grid: (1, 1),
            alpha: 400.0,
            matrix: MatrixKind::Uniform,
        },
        // Runtime-bound: tens of thousands of tiny LU-only tasks through the
        // streaming window, so per-task window cost shows; QR-kernel changes
        // should not move it.
        "stream_fine" => Workload {
            name: "stream_fine",
            entry: Entry::Stream,
            n: 320,
            nb: 8,
            ib: 4,
            threads: 1,
            window: 2,
            grid: (1, 1),
            alpha: 1000.0,
            matrix: MatrixKind::Uniform,
        },
        // The window with multi-node routing on a simulated contended
        // cluster under EFT: the only workload through sched, comm and vtime.
        "dist_sim" => Workload {
            name: "dist_sim",
            entry: Entry::DistSim,
            n: 320,
            nb: 16,
            ib: 4,
            threads: 1,
            window: 2,
            grid: (2, 2),
            alpha: 50.0,
            matrix: MatrixKind::Uniform,
        },
        // Two SPMD ranks over a channel transport: the only configuration
        // that serializes, sends and decodes real wire frames. Alternating
        // tile-row dominance mixes LU and QR steps. Two ranks each with a
        // planner and a worker is the smallest configuration this path allows.
        "net_2rank" => Workload {
            name: "net_2rank",
            entry: Entry::Net,
            n: 320,
            nb: 16,
            ib: 8,
            threads: 1,
            window: 2,
            grid: (1, 2),
            alpha: 6.0,
            matrix: MatrixKind::AlternatingDominance,
        },
        _ => return None,
    };
    Some(w)
}

/// One linear system `A x = b` with its known solution.
pub struct Problem {
    pub a: Mat,
    pub b: Mat,
    pub x_true: Mat,
}

/// A finished call: the computed solution and the per-step decisions.
pub struct Solved {
    pub x: Mat,
    pub records: Vec<StepRecord>,
}

/// SplitMix64: decorrelates the per-system seeds derived from one run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The same workload at a size small enough for unit tests.
    #[cfg(test)]
    pub fn reduced(&self) -> Workload {
        Workload {
            n: self.nb * 6,
            ..self.clone()
        }
    }

    /// Solver options every call of this workload uses.
    pub fn opts(&self) -> FactorOptions {
        let mut opts = FactorOptions::default()
            .with_nb(self.nb)
            .with_grid(Grid::new(self.grid.0, self.grid.1))
            .with_algorithm(Algorithm::LuQr(Criterion::Max { alpha: self.alpha }));
        opts.ib = self.ib;
        opts.threads = self.threads;
        opts
    }

    /// The simulated cluster of `DistSim`.
    pub fn platform(&self) -> Platform {
        Platform::mixed_islands().with_backbone(1.25e9)
    }

    /// Streaming options of the untraced call (`DistSim` adds its platform
    /// inside `factor_stream_distributed_opts`).
    pub fn stream_opts(&self) -> StreamOptions {
        let opts = StreamOptions::fixed(self.window, self.threads);
        match self.entry {
            Entry::DistSim => opts.with_scheduler(SchedPolicy::Eft),
            _ => opts,
        }
    }

    /// System `index` of the systems generated from `seed`.
    pub fn problem(&self, seed: u64, index: usize) -> Problem {
        let s = mix(seed, index as u64);
        let n = self.n;
        let mut a = Mat::random(n, n, s);
        if self.matrix == MatrixKind::AlternatingDominance {
            for i in 0..n {
                if (i / self.nb).is_multiple_of(2) {
                    a[(i, i)] += n as f64;
                }
            }
        }
        let x_true = Mat::random(n, 1, mix(s, 1));
        let mut b = Mat::zeros(n, 1);
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            &a,
            &x_true,
            0.0,
            &mut b,
        );
        Problem { a, b, x_true }
    }

    /// One untraced factor + back-substitute call through the workload's
    /// entry point. A numerical breakdown or transport error is an `Err`.
    pub fn solve(
        &self,
        p: &Problem,
        opts: &FactorOptions,
        platform: &Platform,
    ) -> Result<Solved, String> {
        let (x, records, error) = match self.entry {
            Entry::Batch => {
                let (x, f) = factor_solve(&p.a, &p.b, opts);
                (x, f.records, f.error)
            }
            Entry::Stream => {
                let f = factor_stream(&p.a, &p.b, opts, self.window);
                (f.solution(), f.records, f.error)
            }
            Entry::DistSim => {
                let f =
                    factor_stream_distributed_opts(&p.a, &p.b, opts, platform, &self.stream_opts())
                        .map_err(|e| e.to_string())?;
                (f.solution(), f.stream.records, f.stream.error)
            }
            Entry::Net => {
                let f =
                    factor_stream_net(&p.a, &p.b, opts, self.window, &NetTransportKind::Channel)
                        .map_err(|e| format!("transport: {e}"))?;
                (f.solution(), f.records, f.error)
            }
        };
        match error {
            Some(e) => Err(e),
            None => Ok(Solved { x, records }),
        }
    }
}

/// The correctness gate: HPL3 under [`HPL3_MAX`] and `x` close to
/// `x_true`. Returns the HPL3 value of an accepted solution.
pub fn check(p: &Problem, x: &Mat) -> Result<f64, String> {
    let hpl3 = luqr::stability::hpl3(&p.a, x, &p.b);
    if hpl3.is_nan() || hpl3 > HPL3_MAX {
        return Err(format!("hpl3 {hpl3} above {HPL3_MAX}"));
    }
    let forward = x.max_abs_diff(&p.x_true) / p.x_true.norm_max();
    if forward.is_nan() || forward > FORWARD_MAX {
        return Err(format!("forward error {forward} above {FORWARD_MAX}"));
    }
    Ok(hpl3)
}

/// LU and QR step counts of one call.
pub fn step_counts(records: &[StepRecord]) -> (usize, usize) {
    let lu = records
        .iter()
        .filter(|r| r.decision == Decision::Lu)
        .count();
    (lu, records.len() - lu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_exists() {
        for name in NAMES.into_iter().chain([TRANSPORT]) {
            assert_eq!(workload(name).expect(name).name, name);
        }
        assert!(workload("nope").is_none());
    }

    /// The seed picks the matrix entries and nothing else: another seed
    /// gives other systems of the same shape, solved the same way.
    #[test]
    fn seed_changes_inputs_not_shape() {
        for name in NAMES.into_iter().chain([TRANSPORT]) {
            let w = workload(name).unwrap().reduced();
            let (p1, p2) = (w.problem(1, 0), w.problem(2, 0));
            assert_eq!(p1.a.dims(), p2.a.dims());
            assert_eq!(p1.b.dims(), p2.b.dims());
            assert!(
                p1.a.max_abs_diff(&p2.a) > 0.0,
                "{name}: seed left A unchanged"
            );
            assert!(p1.x_true.max_abs_diff(&p2.x_true) > 0.0);
            assert_eq!(
                w.problem(1, 0).a.max_abs_diff(&p1.a),
                0.0,
                "{name}: not reproducible"
            );
            assert!(
                w.problem(1, 1).a.max_abs_diff(&p1.a) > 0.0,
                "{name}: systems repeat"
            );

            let opts = w.opts();
            let platform = w.platform();
            let s1 = w.solve(&p1, &opts, &platform).unwrap();
            let s2 = w.solve(&p2, &opts, &platform).unwrap();
            assert_eq!(
                s1.records.len(),
                s2.records.len(),
                "{name}: step count moved"
            );
            assert_eq!(s1.x.dims(), s2.x.dims());
            check(&p1, &s1.x).unwrap();
            check(&p2, &s2.x).unwrap();
        }
    }

    #[test]
    fn gate_rejects_a_wrong_solution() {
        let w = workload("stream_fine").unwrap().reduced();
        let p = w.problem(5, 0);
        let mut x = p.x_true.clone();
        assert!(check(&p, &x).is_ok());
        x[(0, 0)] += 1e-3;
        assert!(check(&p, &x).is_err());
    }
}
