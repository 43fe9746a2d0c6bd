//! Payload serialization for the real transport layer.
//!
//! The runtime moves wire frames; the *contents* of a data frame are the
//! algorithm layer's business. Every datum the planners declare — tiles,
//! T-factors, panel factorizations, criterion data, the per-step decision —
//! has a live cell shared between its producer and consumer tasks. This
//! module keeps a registry mapping [`DataKey`]s to those cells
//! ([`PayloadSlot`]), and [`RegistryStore`] implements the runtime's
//! [`PayloadStore`]: `load` snapshots a cell as little-endian wire bytes,
//! `store` decodes wire bytes back into the (remote mirror's) cell.
//!
//! The codecs are hand-rolled (the workspace vendors no serde): `u32`/`u64`
//! length-and-tag fields plus `f64::to_bits` for floats, so a round-trip is
//! bitwise — the property the distributed parity oracle relies on.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use luqr_kernels::incpiv::PairPivot;
use luqr_kernels::{Mat, TFactor};
use luqr_runtime::{DataKey, PayloadStore, TransportError};
use luqr_tile::{TileRef, TiledMatrix};

use crate::builder::{BackupCell, CritCell, DecCell, PanelCell, SharedState, TfCell};
use crate::config::{Decision, StepRecord};
use crate::criteria::{DomainCritData, PanelCritData};
use crate::keys;
use crate::panel::PanelFactorization;

/// Scratch tile shared by a step's row-exchange tasks (same shape as a
/// backup cell, distinct meaning).
pub(crate) type ScratchCell = Arc<Mutex<Option<Mat>>>;
/// Pairwise-elimination L factor + pivots (LU IncPiv).
pub(crate) type LCell = Arc<std::sync::OnceLock<(Mat, Vec<PairPivot>)>>;

/// A live datum cell, registered when the planner declares the datum.
#[derive(Clone)]
pub(crate) enum PayloadSlot {
    /// A T-factor cell (`keys::tfactor`).
    Tf(TfCell),
    /// A panel factorization (`keys::pivots`).
    Panel(PanelCell),
    /// The per-step LU/QR decision plus its criterion record
    /// (`keys::decision`). Shipping the decision also ships the step's
    /// [`StepRecord`], so every rank's record list is complete.
    Dec {
        cell: DecCell,
        records: Arc<Mutex<Vec<StepRecord>>>,
        k: usize,
    },
    /// A panel-tile backup (`keys::backup`).
    Backup(BackupCell),
    /// Off-trial domain criterion data (`keys::crit_scratch`).
    Crit(CritCell),
    /// IncPiv L factor + pivots (`keys::incpiv_l`).
    L(LCell),
    /// Row-exchange scratch tile (`keys::swap_scratch`).
    Scratch(ScratchCell),
}

/// [`PayloadStore`] over a rank's mirror: tile payloads resolve directly
/// into the rank's [`TiledMatrix`]; everything else resolves through the
/// [`SharedState`] payload registry the planners fill while planning.
pub(crate) struct RegistryStore {
    tiles: HashMap<DataKey, TileRef>,
    shared: SharedState,
}

impl RegistryStore {
    pub(crate) fn new(aug: &TiledMatrix, shared: &SharedState) -> Self {
        let mut tiles = HashMap::new();
        for i in 0..aug.mt() {
            for j in 0..aug.nt() {
                tiles.insert(keys::tile(i, j), aug.tile(i, j));
            }
        }
        RegistryStore {
            tiles,
            shared: shared.clone(),
        }
    }

    fn slot(&self, key: DataKey) -> Option<PayloadSlot> {
        self.shared.payloads.lock().get(&key).cloned()
    }
}

impl PayloadStore for RegistryStore {
    fn load(&self, key: DataKey) -> Option<Vec<u8>> {
        if let Some(tile) = self.tiles.get(&key) {
            return Some(encode_mat(&tile.lock()));
        }
        let slot = self
            .slot(key)
            .unwrap_or_else(|| panic!("no payload slot registered for {key:?}"));
        match slot {
            PayloadSlot::Tf(c) => c.lock().as_ref().map(encode_tfactor),
            PayloadSlot::Panel(c) => c.get().map(encode_panel),
            PayloadSlot::Dec { cell, records, k } => cell.get().map(|d| {
                let recs = records.lock();
                encode_decision(*d, recs.iter().find(|r| r.k == k))
            }),
            PayloadSlot::Backup(c) | PayloadSlot::Scratch(c) => c.lock().as_ref().map(encode_mat),
            PayloadSlot::Crit(c) => c.get().map(encode_domain_crit),
            PayloadSlot::L(c) => c.get().map(|(l, piv)| {
                let mut out = encode_mat(l);
                put_pivots(&mut out, piv);
                out
            }),
        }
    }

    fn store(&self, key: DataKey, bytes: &[u8]) -> Result<(), TransportError> {
        // An empty payload means the producer's cell was empty (nothing to
        // ship); leave the mirror's cell empty too.
        if bytes.is_empty() {
            return Ok(());
        }
        let mut rd = Rd::new(bytes);
        if let Some(tile) = self.tiles.get(&key) {
            *tile.lock() = rd.mat()?;
            return rd.finish(key);
        }
        let slot = self.slot(key).ok_or_else(|| {
            TransportError::Protocol(format!("no payload slot registered for {key:?}"))
        })?;
        match slot {
            PayloadSlot::Tf(c) => *c.lock() = Some(rd.tfactor()?),
            PayloadSlot::Panel(c) => {
                let _ = c.set(rd.panel()?);
            }
            PayloadSlot::Dec { cell, records, k } => {
                let (d, rec) = rd.decision()?;
                let _ = cell.set(d);
                if let Some(rec) = rec {
                    // The decision arrives both broadcast and (on rank 0)
                    // again with the end-of-run results — push its record
                    // at most once per step.
                    let mut recs = records.lock();
                    if !recs.iter().any(|r| r.k == k) {
                        recs.push(rec);
                    }
                }
            }
            PayloadSlot::Backup(c) | PayloadSlot::Scratch(c) => *c.lock() = Some(rd.mat()?),
            PayloadSlot::Crit(c) => {
                let _ = c.set(rd.domain_crit()?);
            }
            PayloadSlot::L(c) => {
                let l = rd.mat()?;
                let piv = rd.pivots()?;
                let _ = c.set((l, piv));
            }
        }
        rd.finish(key)
    }
}

// ---------------------------------------------------------------------------
// Little-endian codec primitives.

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_f64(out, v);
    }
}

fn put_usizes(out: &mut Vec<u8>, vs: &[usize]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v as u64);
    }
}

fn put_pivots(out: &mut Vec<u8>, vs: &[PairPivot]) {
    put_u64(out, vs.len() as u64);
    for v in vs {
        match v {
            None => out.push(0),
            Some(r) => {
                out.push(1);
                put_u64(out, *r as u64);
            }
        }
    }
}

/// Bounds-checked little-endian reader over bytes that came from another
/// process. Every read checks the bytes left, and every length prefix is
/// checked against them before anything is allocated for it, so a
/// malformed payload is a [`TransportError::Protocol`], never a panic or
/// an outsized allocation.
pub(crate) struct Rd<'a> {
    b: &'a [u8],
    p: usize,
}

type Decoded<T> = Result<T, TransportError>;

impl<'a> Rd<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Rd { b, p: 0 }
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if n > self.remaining() {
            return Err(TransportError::Protocol(format!(
                "payload truncated: wanted {n} bytes at {}, have {}",
                self.p,
                self.b.len()
            )));
        }
        let s = &self.b[self.p..self.p + n];
        self.p += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Decoded<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Decoded<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }

    pub(crate) fn f64(&mut self) -> Decoded<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn remaining(&self) -> usize {
        self.b.len() - self.p
    }

    /// `count` items of at least `item_bytes` encoded bytes each, checked
    /// against the bytes left.
    fn fits(&self, count: u64, item_bytes: usize) -> Decoded<usize> {
        usize::try_from(count)
            .ok()
            .filter(|&n| {
                n.checked_mul(item_bytes)
                    .is_some_and(|b| b <= self.remaining())
            })
            .ok_or_else(|| {
                TransportError::Protocol(format!(
                    "length {count} exceeds the {} payload bytes left",
                    self.remaining()
                ))
            })
    }

    /// A `u64` length prefix for items of at least `item_bytes` bytes.
    pub(crate) fn len(&mut self, item_bytes: usize) -> Decoded<usize> {
        let n = self.u64()?;
        self.fits(n, item_bytes)
    }

    fn f64s(&mut self) -> Decoded<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn usizes(&mut self) -> Decoded<Vec<usize>> {
        let n = self.len(8)?;
        (0..n).map(|_| Ok(self.u64()? as usize)).collect()
    }

    pub(crate) fn pivots(&mut self) -> Decoded<Vec<PairPivot>> {
        let n = self.len(1)?;
        (0..n)
            .map(|_| {
                Ok(match self.u8()? {
                    0 => None,
                    _ => Some(self.u64()? as usize),
                })
            })
            .collect()
    }

    pub(crate) fn finish(self, key: DataKey) -> Decoded<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(TransportError::Protocol(format!(
                "{n} trailing bytes after decoding payload for {key:?}"
            ))),
        }
    }

    pub(crate) fn mat(&mut self) -> Decoded<Mat> {
        let m = self.u32()? as usize;
        let n = self.u32()? as usize;
        let len = self.fits(m as u64 * n as u64, 8)?;
        let data = (0..len)
            .map(|_| self.f64())
            .collect::<Decoded<Vec<f64>>>()?;
        Ok(Mat::from_col_major(m, n, &data))
    }

    fn tfactor(&mut self) -> Decoded<TFactor> {
        let ib = self.u32()? as usize;
        Ok(TFactor { ib, t: self.mat()? })
    }

    fn panel(&mut self) -> Decoded<PanelFactorization> {
        let ipiv = self.usizes()?;
        let crit = self.panel_crit()?;
        let heights = self.usizes()?;
        Ok(PanelFactorization::new(ipiv, crit, heights))
    }

    fn panel_crit(&mut self) -> Decoded<PanelCritData> {
        Ok(PanelCritData {
            inv_norm_recip: self.f64()?,
            below_diag_max_norm1: self.f64()?,
            below_diag_sum_norm1: self.f64()?,
            local_col_max: self.f64s()?,
            pivot_abs: self.f64s()?,
        })
    }

    fn domain_crit(&mut self) -> Decoded<DomainCritData> {
        Ok(DomainCritData {
            max_tile_norm1: self.f64()?,
            sum_tile_norm1: self.f64()?,
            col_max: self.f64s()?,
        })
    }

    fn lu_or_qr(&mut self) -> Decoded<Decision> {
        Ok(if self.u8()? == 0 {
            Decision::Lu
        } else {
            Decision::Qr
        })
    }

    pub(crate) fn record(&mut self) -> Decoded<StepRecord> {
        Ok(StepRecord {
            k: self.u64()? as usize,
            decision: self.lu_or_qr()?,
            lhs: self.f64()?,
            rhs: self.f64()?,
            panel_norm: self.f64()?,
        })
    }

    fn decision(&mut self) -> Decoded<(Decision, Option<StepRecord>)> {
        let d = self.lu_or_qr()?;
        let rec = match self.u8()? {
            0 => None,
            _ => Some(self.record()?),
        };
        Ok((d, rec))
    }
}

pub(crate) fn encode_mat(m: &Mat) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + m.rows() * m.cols() * 8);
    put_u32(&mut out, m.rows() as u32);
    put_u32(&mut out, m.cols() as u32);
    for &v in m.as_slice() {
        put_f64(&mut out, v);
    }
    out
}

fn encode_tfactor(t: &TFactor) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, t.ib as u32);
    out.extend_from_slice(&encode_mat(&t.t));
    out
}

fn encode_panel(p: &PanelFactorization) -> Vec<u8> {
    let mut out = Vec::new();
    put_usizes(&mut out, &p.ipiv);
    encode_panel_crit(&mut out, &p.crit);
    put_usizes(&mut out, &p.heights);
    out
}

fn encode_panel_crit(out: &mut Vec<u8>, c: &PanelCritData) {
    put_f64(out, c.inv_norm_recip);
    put_f64(out, c.below_diag_max_norm1);
    put_f64(out, c.below_diag_sum_norm1);
    put_f64s(out, &c.local_col_max);
    put_f64s(out, &c.pivot_abs);
}

fn encode_domain_crit(c: &DomainCritData) -> Vec<u8> {
    let mut out = Vec::new();
    put_f64(&mut out, c.max_tile_norm1);
    put_f64(&mut out, c.sum_tile_norm1);
    put_f64s(&mut out, &c.col_max);
    out
}

pub(crate) fn encode_record(out: &mut Vec<u8>, r: &StepRecord) {
    put_u64(out, r.k as u64);
    out.push(match r.decision {
        Decision::Lu => 0,
        Decision::Qr => 1,
    });
    put_f64(out, r.lhs);
    put_f64(out, r.rhs);
    put_f64(out, r.panel_norm);
}

fn encode_decision(d: Decision, rec: Option<&StepRecord>) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(match d {
        Decision::Lu => 0,
        Decision::Qr => 1,
    });
    match rec {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            encode_record(&mut out, r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mat_round_trips_bitwise() {
        let m = Mat::random(7, 3, 42);
        let bytes = encode_mat(&m);
        let mut rd = Rd::new(&bytes);
        let back = rd.mat().unwrap();
        assert_eq!(rd.remaining(), 0);
        assert_eq!(m.as_slice(), back.as_slice());
        assert_eq!((m.rows(), m.cols()), (back.rows(), back.cols()));
    }

    #[test]
    fn decision_with_record_round_trips() {
        let rec = StepRecord {
            k: 3,
            decision: Decision::Qr,
            lhs: 1.5e-3,
            rhs: 2.25,
            panel_norm: 17.0,
        };
        let bytes = encode_decision(Decision::Qr, Some(&rec));
        let mut rd = Rd::new(&bytes);
        let (d, r) = rd.decision().unwrap();
        assert_eq!(rd.remaining(), 0);
        assert_eq!(d, Decision::Qr);
        let r = r.unwrap();
        assert_eq!(r.k, 3);
        assert_eq!(r.lhs.to_bits(), rec.lhs.to_bits());
    }

    #[test]
    fn pivots_round_trip() {
        let piv = vec![None, Some(4), Some(0), None];
        let mut out = Vec::new();
        put_pivots(&mut out, &piv);
        let mut rd = Rd::new(&out);
        assert_eq!(rd.pivots().unwrap(), piv);
    }

    /// Payload bytes come from a peer: malformed ones are typed errors,
    /// not panics, and no length prefix is trusted for an allocation.
    #[test]
    fn malformed_peer_payloads_are_protocol_errors() {
        let aug = TiledMatrix::zeros(4, 4, 4);
        let shared = SharedState::default();
        shared.payloads.lock().insert(
            keys::pivots(0),
            PayloadSlot::Panel(Arc::new(std::sync::OnceLock::new())),
        );
        let store = RegistryStore::new(&aug, &shared);
        let tile = encode_mat(&Mat::random(4, 4, 1));
        let mut huge_len = Vec::new();
        put_u64(&mut huge_len, u64::MAX / 2);
        let mut trailing = tile.clone();
        trailing.push(0);
        for (what, key, bytes) in [
            ("truncated tile", keys::tile(0, 0), &tile[..tile.len() - 3]),
            ("oversized length prefix", keys::pivots(0), &huge_len[..]),
            ("trailing bytes", keys::tile(0, 0), &trailing[..]),
            ("unknown key", keys::decision(9), &tile[..]),
        ] {
            assert!(
                matches!(store.store(key, bytes), Err(TransportError::Protocol(_))),
                "{what}"
            );
        }
        // A well-formed tile still lands.
        store.store(keys::tile(0, 0), &tile).unwrap();
    }
}
