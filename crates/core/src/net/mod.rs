//! Real-transport distributed factorization: run the SPMD streaming
//! executor over actual channels and sockets.
//!
//! [`crate::factor_stream_distributed`] *models* a distributed run — one
//! process, per-node sub-windows, message counters. This module *performs*
//! one: every rank of the process grid runs its own mirror of the
//! factorization (same planner, same window, same hazard bookkeeping),
//! remote tasks degenerate to placement stubs, and the data / decision /
//! retirement protocol crosses a [`luqr_runtime::Transport`] as
//! length-prefixed wire frames. Payload bytes are produced and consumed by
//! the [`payload`] registry, which maps every declared datum key to its
//! live cell.
//!
//! Three deployment shapes:
//!
//! * [`factor_stream_net`] — all ranks as threads of this process, over
//!   loopback mailboxes, crossbeam channels, or real UDS/TCP sockets;
//! * [`factor_stream_net_rank`] — one rank on an arbitrary endpoint (the
//!   building block the `luqr-worker` binary uses);
//! * [`launch::launch_multiprocess`] — N separate `luqr-worker` processes
//!   meshed over UDS or TCP, results collected from rank 0.
//!
//! Every shape reproduces the simulated run's protocol message counts
//! exactly and its residuals and LU/QR decisions bitwise; the runtime
//! asserts wire-frame/protocol-message reconciliation per link before
//! results are accepted.

pub mod launch;
mod payload;

pub(crate) use payload::{PayloadSlot, RegistryStore};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use luqr_kernels::Mat;
use luqr_runtime::net::channel::channel_set;
use luqr_runtime::net::loopback::loopback_set;
use luqr_runtime::net::socket::{socket_set, SocketSpec};
use luqr_runtime::stream::execute_net;
use luqr_runtime::{NetConfig, PayloadStore, Probe, StreamOptions, Transport, TransportError};

use crate::builder::stream_source::PlannerStepSource;
use crate::config::FactorOptions;
use crate::StreamFactorization;

/// Which transport carries the inter-rank protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetTransportKind {
    /// In-process mailboxes (the reference implementation).
    Loopback,
    /// Crossbeam channels between rank threads.
    Channel,
    /// Unix-domain sockets under a fresh temp directory.
    Uds,
    /// TCP on `127.0.0.1`, rank `r` listening at `base_port + r`.
    Tcp { base_port: u16 },
}

static UDS_RUN: AtomicUsize = AtomicUsize::new(0);

fn dyn_transports<T: Transport + 'static>(set: Vec<Arc<T>>) -> Vec<Arc<dyn Transport>> {
    set.into_iter().map(|e| e as Arc<dyn Transport>).collect()
}

/// Factor `[A | rhs]` with the **real-transport distributed runtime**: one
/// SPMD rank per node of `opts.grid`, all inside this process, exchanging
/// wire frames over `kind`. Numerics, per-step decisions, and protocol
/// message statistics are identical to [`crate::factor_stream`] /
/// [`crate::factor_stream_distributed`] under the same options; rank 0's
/// factorization (whose mirror holds every result tile at the end) is
/// returned.
pub fn factor_stream_net(
    a: &Mat,
    rhs: &Mat,
    opts: &FactorOptions,
    window: usize,
    kind: &NetTransportKind,
) -> Result<StreamFactorization, TransportError> {
    factor_stream_net_opts(
        a,
        rhs,
        opts,
        &StreamOptions::fixed(window, opts.threads),
        kind,
    )
}

/// [`factor_stream_net`] under full [`StreamOptions`] (window policy,
/// probe). The probe observes rank 0's window — including the wire-level
/// frame/byte/latency metrics; peer ranks run unprobed. Platform
/// simulation, steal-at-insert, and recalibration are not available over a
/// real transport: asking for one is a [`TransportError::Protocol`],
/// returned before any frame is sent.
pub fn factor_stream_net_opts(
    a: &Mat,
    rhs: &Mat,
    opts: &FactorOptions,
    stream_opts: &StreamOptions,
    kind: &NetTransportKind,
) -> Result<StreamFactorization, TransportError> {
    let nranks = opts.grid.nodes();
    let mut uds_dir = None;
    let transports: Vec<Arc<dyn Transport>> = match kind {
        NetTransportKind::Loopback => dyn_transports(loopback_set(nranks)),
        NetTransportKind::Channel => dyn_transports(channel_set(nranks)),
        NetTransportKind::Uds => {
            let dir = std::env::temp_dir().join(format!(
                "luqr-net-{}-{}",
                std::process::id(),
                UDS_RUN.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir)
                .map_err(|e| TransportError::Connect(format!("create {}: {e}", dir.display())))?;
            uds_dir = Some(dir.clone());
            dyn_transports(socket_set(&SocketSpec::Uds { dir }, nranks)?)
        }
        NetTransportKind::Tcp { base_port } => dyn_transports(socket_set(
            &SocketSpec::Tcp {
                base_port: *base_port,
            },
            nranks,
        )?),
    };

    let (r0, peers) = std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .iter()
            .skip(1)
            .map(|t| {
                let t = Arc::clone(t);
                let sopts = stream_opts.clone().with_probe(Probe::disabled());
                s.spawn(move || factor_stream_net_rank(a, rhs, opts, &sopts, t))
            })
            .collect();
        let r0 = factor_stream_net_rank(a, rhs, opts, stream_opts, Arc::clone(&transports[0]));
        let peers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect();
        (r0, peers)
    });

    if let Some(dir) = uds_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // A failing rank aborts the set, surfacing as `PeerLost` everywhere
    // else — prefer reporting the root cause over the secondary noise.
    let root_cause = |errs: Vec<TransportError>| {
        errs.into_iter().reduce(|best, e| match best {
            TransportError::PeerLost { .. } | TransportError::Closed => e,
            _ => best,
        })
    };
    match r0 {
        Ok(fact) => {
            let errs: Vec<_> = peers.into_iter().filter_map(Result::err).collect();
            match root_cause(errs) {
                None => Ok(fact),
                Some(e) => Err(e),
            }
        }
        Err(e0) => {
            let mut errs = vec![e0];
            errs.extend(peers.into_iter().filter_map(Result::err));
            Err(root_cause(errs).unwrap())
        }
    }
}

/// Run **one rank** of a real-transport distributed factorization on an
/// already-connected endpoint. Every rank of the set must call this with
/// identical `a`, `rhs`, and options (SPMD: each rank plans the full
/// factorization over its own mirror and executes its owned share).
///
/// Only rank 0's mirror is guaranteed complete at return (peers ship their
/// result data to rank 0 during the end-of-run handshake), so call
/// [`StreamFactorization::solution`] on rank 0's result. The per-step
/// records and protocol message statistics are identical on every rank.
pub fn factor_stream_net_rank(
    a: &Mat,
    rhs: &Mat,
    opts: &FactorOptions,
    stream_opts: &StreamOptions,
    transport: Arc<dyn Transport>,
) -> Result<StreamFactorization, TransportError> {
    if transport.nranks() != opts.grid.nodes() {
        return Err(TransportError::Protocol(format!(
            "transport set of {} ranks does not match the {}x{} process grid",
            transport.nranks(),
            opts.grid.p,
            opts.grid.q
        )));
    }
    let (aug, nt_a) = crate::prelude(a, rhs, opts);
    let mut source = PlannerStepSource::new(&aug, nt_a, opts);
    let store: Arc<dyn PayloadStore> = Arc::new(RegistryStore::new(&aug, source.shared()));
    let report = execute_net(&mut source, stream_opts, NetConfig { transport, store })?;
    let (records, error) = source.shared().outcome();
    Ok(StreamFactorization {
        aug,
        report,
        records,
        error,
        n: a.rows(),
        nrhs: rhs.cols(),
        algorithm: opts.algorithm.clone(),
    })
}
