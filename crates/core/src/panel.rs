//! Diagonal-domain panel factorization (paper Section II-A).
//!
//! At step `k` the hybrid algorithm LU-factors, with partial pivoting, the
//! stack of panel tiles local to the node owning the diagonal tile (the
//! *diagonal domain*). Pivoting inside the domain needs no inter-node
//! communication yet greatly enlarges the pivot pool compared to the
//! diagonal tile alone — the paper shows this alone nearly recovers LUPP
//! stability on random matrices (Section V-B). The same routines serve the
//! LUPP baseline (domain = the whole panel) and LU NoPiv (domain = the
//! diagonal tile).
//!
//! These are plain matrix functions: the graph layer locks the tiles and
//! calls in here from task kernels.

use luqr_kernels::blas::{abs_sum_max, gemm, trsm, Diag, Side, Trans, UpLo};
use luqr_kernels::lu::{getrf, laswp, KernelError};
use luqr_kernels::norm_est::invnorm_est_lu;
use luqr_kernels::Mat;

use crate::criteria::PanelCritData;

thread_local! {
    /// Reused stacked-domain scratch for [`factor_diagonal_domain`].
    static PANEL_SCRATCH: std::cell::RefCell<Mat> = std::cell::RefCell::new(Mat::zeros(1, 1));
}

/// Cached swap plan keyed by the tile spans it was built for.
type CachedSwapPlan = std::sync::OnceLock<(Vec<(usize, usize)>, std::sync::Arc<SwapPlan>)>;

/// Output of a diagonal-domain trial factorization.
#[derive(Debug)]
pub struct PanelFactorization {
    /// Row interchanges over the stacked domain (LAPACK convention).
    pub ipiv: Vec<usize>,
    /// Criterion inputs gathered before/during the factorization.
    pub crit: PanelCritData,
    /// Row count of each domain tile (for re-stacking columns later).
    pub heights: Vec<usize>,
    /// Net permutation of `ipiv` over the stacked panel, computed once on
    /// first use (every swap task of the step shares it).
    swap_src: std::sync::OnceLock<Vec<usize>>,
    /// Swap plan for one group's tile spans, cached across the step's
    /// trailing-column swap tasks (which all share the same spans).
    swap_plan: CachedSwapPlan,
}

impl PanelFactorization {
    /// Construct from the factorization outputs.
    pub fn new(ipiv: Vec<usize>, crit: PanelCritData, heights: Vec<usize>) -> Self {
        PanelFactorization {
            ipiv,
            crit,
            heights,
            swap_src: std::sync::OnceLock::new(),
            swap_plan: std::sync::OnceLock::new(),
        }
    }

    /// The net permutation over a stacked panel of `m` rows (see
    /// [`swap_permutation`]), cached across this step's swap tasks.
    pub fn swap_src(&self, m: usize) -> &[usize] {
        let src = self
            .swap_src
            .get_or_init(|| swap_permutation(&self.ipiv, m));
        debug_assert_eq!(src.len(), m);
        src
    }

    /// The [`SwapPlan`] for a group covering `spans` of an `m`-row stacked
    /// panel with a `steps`-row pivot block, cached across this step's
    /// trailing-column swap tasks. A single cache slot suffices because the
    /// single-node executors drive one group per step; a different group
    /// (multi-node runs) falls back to building its plan on the spot.
    pub fn swap_plan(
        &self,
        m: usize,
        steps: usize,
        spans: &[(usize, usize)],
    ) -> std::sync::Arc<SwapPlan> {
        let src = self.swap_src(m);
        if spans.is_empty() {
            // Top-internal-only groups carry no tiles; their plan is O(steps)
            // to gather and not worth a cache slot.
            return std::sync::Arc::new(SwapPlan::build(src, steps, spans));
        }
        if let Some((cached_spans, plan)) = self.swap_plan.get() {
            if cached_spans == spans {
                return std::sync::Arc::clone(plan);
            }
            return std::sync::Arc::new(SwapPlan::build(src, steps, spans));
        }
        let plan = std::sync::Arc::new(SwapPlan::build(src, steps, spans));
        let _ = self
            .swap_plan
            .set((spans.to_vec(), std::sync::Arc::clone(&plan)));
        plan
    }
}

impl Clone for PanelFactorization {
    fn clone(&self) -> Self {
        PanelFactorization::new(self.ipiv.clone(), self.crit.clone(), self.heights.clone())
    }
}

/// Stack tiles vertically into one matrix.
pub fn stack(tiles: &[&Mat]) -> Mat {
    let width = tiles[0].cols();
    let total: usize = tiles.iter().map(|t| t.rows()).sum();
    let mut s = Mat::zeros(total, width);
    let mut row = 0;
    for t in tiles {
        assert_eq!(t.cols(), width, "stack: ragged widths");
        s.set_sub(row, 0, t);
        row += t.rows();
    }
    s
}

/// Stack `tiles` into the reused thread-local scratch, run `f` on the
/// stacked matrix, then scatter the result back into the tiles. Avoids the
/// per-call allocation (and redundant zero fill) of [`stack`] on hot paths.
pub fn with_stacked<R>(tiles: &mut [&mut Mat], f: impl FnOnce(&mut Mat) -> R) -> R {
    let heights: Vec<usize> = tiles.iter().map(|t| t.rows()).collect();
    PANEL_SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        s.reset_stacked(&tiles.iter().map(|t| &**t).collect::<Vec<_>>());
        let r = f(&mut s);
        unstack(&s, &heights, tiles);
        r
    })
}

/// Scatter a stacked matrix back into tiles of the given heights.
pub fn unstack(s: &Mat, heights: &[usize], tiles: &mut [&mut Mat]) {
    assert_eq!(heights.len(), tiles.len());
    let mut row = 0;
    for (t, &h) in tiles.iter_mut().zip(heights) {
        assert_eq!(t.rows(), h, "unstack: tile height mismatch");
        for j in 0..t.cols() {
            t.col_mut(j).copy_from_slice(&s.col(j)[row..row + h]);
        }
        row += h;
    }
}

/// LU-factor the stacked diagonal-domain tiles with partial pivoting and
/// collect the criterion inputs. `tiles[0]` must be the diagonal tile.
///
/// On success the tiles hold the packed factors (`U` on top, multipliers
/// below, permuted rows). On a zero-pivot failure the tiles are left
/// *corrupted* — callers must restore from backup (which the hybrid does
/// whenever it takes the QR path).
pub fn factor_diagonal_domain(
    tiles: &mut [&mut Mat],
    est_iters: usize,
) -> Result<PanelFactorization, (KernelError, PanelCritData)> {
    assert!(!tiles.is_empty());
    let width = tiles[0].cols();
    let heights: Vec<usize> = tiles.iter().map(|t| t.rows()).collect();

    // Factor the stack (in a reused thread-local scratch: domain stacks are
    // large enough that a fresh allocation per panel cycles pages through
    // the allocator).
    PANEL_SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        s.reset_stacked(&tiles.iter().map(|t| &**t).collect::<Vec<_>>());

        // Pre-factorization criterion data, in one fused pass over the
        // still-warm stacked copy (per-column max |a_ij| over the whole
        // panel, and the one-norm of each below-diagonal tile).
        let mut crit = PanelCritData {
            local_col_max: vec![0.0; width],
            ..Default::default()
        };
        let mut tile_norm1 = vec![0.0f64; tiles.len()];
        for j in 0..width {
            let col = s.col(j);
            let mut cmax = 0.0f64;
            let mut row = 0;
            for (ti, &h) in heights.iter().enumerate() {
                let (sum, max) = abs_sum_max(&col[row..row + h]);
                cmax = cmax.max(max);
                tile_norm1[ti] = tile_norm1[ti].max(sum);
                row += h;
            }
            crit.local_col_max[j] = cmax;
        }
        for &n1 in &tile_norm1[1..] {
            crit.below_diag_max_norm1 = crit.below_diag_max_norm1.max(n1);
            crit.below_diag_sum_norm1 += n1;
        }

        let ipiv = match getrf(&mut s) {
            Ok(p) => p,
            Err(e) => return Err((e, crit)),
        };

        // Post-factorization criterion data.
        let steps = s.rows().min(width);
        crit.pivot_abs = (0..steps).map(|j| s[(j, j)].abs()).collect();
        let top = s.sub(0, 0, width.min(s.rows()), width);
        if top.rows() == width {
            let identity: Vec<usize> = (0..width).collect();
            let est = invnorm_est_lu(&top, &identity, est_iters);
            crit.inv_norm_recip = if est > 0.0 { 1.0 / est } else { 0.0 };
        }

        unstack(&s, &heights, tiles);
        Ok(PanelFactorization::new(ipiv, crit, heights))
    })
}

/// Apply a panel factorization to one trailing column of the domain
/// (the paper's *Apply* step, SWPTRSM generalized to the domain stack):
/// pivots, then `U_kj = L11⁻¹ (P C)_top`, then the domain's own Schur
/// update `C_rest -= L21 · U_kj`.
///
/// `l_tiles` are the factored panel tiles (same order as in
/// [`factor_diagonal_domain`]), `col_tiles` the same rows of column `j`.
pub fn apply_panel_to_column(l_tiles: &[&Mat], ipiv: &[usize], col_tiles: &mut [&mut Mat]) {
    let width = l_tiles[0].cols();
    let heights: Vec<usize> = col_tiles.iter().map(|t| t.rows()).collect();
    let l = stack(l_tiles);
    let mut c = stack(&col_tiles.iter().map(|t| &**t).collect::<Vec<_>>());
    laswp(&mut c, ipiv, 0, ipiv.len());

    let steps = ipiv.len().min(width);
    // Top block: U_kj = L11^{-1} (P C)_top.
    let l11 = l.sub(0, 0, steps, steps);
    let mut top = c.sub(0, 0, steps, c.cols());
    trsm(
        Side::Left,
        UpLo::Lower,
        Trans::NoTrans,
        Diag::Unit,
        1.0,
        &l11,
        &mut top,
    );
    c.set_sub(0, 0, &top);
    // Domain Schur update: C_rest -= L21 * U_kj.
    if c.rows() > steps {
        let l21 = l.sub(steps, 0, l.rows() - steps, steps);
        let mut rest = c.sub(steps, 0, c.rows() - steps, c.cols());
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            -1.0,
            &l21,
            &top,
            1.0,
            &mut rest,
        );
        c.set_sub(steps, 0, &rest);
    }
    unstack(&c, &heights, col_tiles);
}

/// Net permutation of a LAPACK-style sequential swap vector: `src[pos]` is
/// the original row index whose content ends up at `pos`.
///
/// Key structural property (used by the distributed swap tasks): content
/// moving *into* a row below the pivot block always originates from the
/// pivot block (`pos >= steps ⇒ src[pos] < steps`), because a row below can
/// only be touched by the one swap that selects it as pivot.
pub fn swap_permutation(ipiv: &[usize], m: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..m).collect();
    for (c, &p) in ipiv.iter().enumerate() {
        idx.swap(c, p);
    }
    idx
}

/// Apply the part of a pivot permutation owned by one group of panel tiles,
/// exchanging rows with the pivot-block tile (ScaLAPACK PDLASWP-style: each
/// process row trades only its own rows with the top block — the
/// communication pattern that makes LUPP's pivoting expensive but bounded).
///
/// * `src` — net permutation from [`swap_permutation`] over the whole
///   stacked panel (pivot block = stack rows `0..top_original.rows()`);
/// * `top_original` — snapshot of the pivot-block rows taken before any
///   group ran;
/// * `top` — the live pivot-block tile;
/// * `tiles` — the group's below-block tiles with their stack offsets;
/// * `handles_top_internal` — exactly one group (the diagonal's) also
///   applies the permutation *within* the pivot block.
///
/// Groups write disjoint `top` positions and only their own rows, so they
/// may run in any order once `top_original` is snapshotted.
pub fn apply_swap_group(
    src: &[usize],
    top_original: &Mat,
    top: &mut Mat,
    tiles: &mut [(usize, &mut Mat)],
    handles_top_internal: bool,
) {
    let steps = top_original.rows();
    let spans: Vec<(usize, usize)> = tiles.iter().map(|(off, t)| (*off, t.rows())).collect();
    let plan = SwapPlan::build(src, steps, &spans);
    apply_swap_plan(&plan, top_original, top, tiles, handles_top_internal);
}

/// The row bookkeeping of one group's [`apply_swap_group`] call, gathered
/// once and reusable across every trailing column of the same step (the
/// plan depends only on the net permutation, the pivot-block height, and
/// the group's tile spans — not on the column being swapped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapPlan {
    /// Top positions fed by this group's rows: (dest position, tile, row).
    feeds: Vec<(usize, usize, usize)>,
    /// This group's rows receiving pivot-block content: (tile, row, source).
    recvs: Vec<(usize, usize, usize)>,
    /// Pivot-block-internal moves (applied only by the diagonal's group).
    internal: Vec<(usize, usize)>,
}

impl SwapPlan {
    /// Gather the plan for a group whose tiles cover the stack rows given
    /// by `spans` (`(offset, rows)` per tile, in tile order).
    pub fn build(src: &[usize], steps: usize, spans: &[(usize, usize)]) -> SwapPlan {
        let mut feeds: Vec<(usize, usize, usize)> = Vec::new();
        for (c, &s) in src.iter().enumerate().take(steps) {
            if s >= steps {
                if let Some((t, r)) = locate(spans, s) {
                    feeds.push((c, t, r));
                }
            }
        }
        let mut recvs: Vec<(usize, usize, usize)> = Vec::new();
        for (t, &(off, rows)) in spans.iter().enumerate() {
            for r in 0..rows {
                let pos = off + r;
                if pos < steps {
                    continue; // the pivot block itself is handled via `top`
                }
                let s = src[pos];
                if s != pos {
                    debug_assert!(s < steps, "below-block row sourced outside the pivot block");
                    recvs.push((t, r, s));
                }
            }
        }
        let mut internal: Vec<(usize, usize)> = Vec::new();
        for (c, &s) in src.iter().enumerate().take(steps) {
            if s < steps && s != c {
                internal.push((c, s));
            }
        }
        SwapPlan {
            feeds,
            recvs,
            internal,
        }
    }
}

/// Execute a gathered [`SwapPlan`] column by column, so every transfer is
/// slice-indexed within contiguous column-major columns.
///
/// Feed values are read before any receive writes into the same column, so
/// rows that both feed the pivot block and receive from it are handled
/// exactly as if snapshotted up front.
pub fn apply_swap_plan(
    plan: &SwapPlan,
    top_original: &Mat,
    top: &mut Mat,
    tiles: &mut [(usize, &mut Mat)],
    handles_top_internal: bool,
) {
    let w = top_original.cols();
    let SwapPlan {
        feeds,
        recvs,
        internal,
    } = plan;
    // Column slices are hoisted out of the row loops (feeds and recvs are
    // grouped by tile by construction, so the runs of equal `t` below
    // slice each tile's column once).
    let mut feed_vals = vec![0.0f64; feeds.len()];
    for j in 0..w {
        let mut i = 0;
        while i < feeds.len() {
            let t = feeds[i].1;
            let col = tiles[t].1.col(j);
            while i < feeds.len() && feeds[i].1 == t {
                feed_vals[i] = col[feeds[i].2];
                i += 1;
            }
        }
        let src_col = top_original.col(j);
        let mut i = 0;
        while i < recvs.len() {
            let t = recvs[i].0;
            let col = tiles[t].1.col_mut(j);
            while i < recvs.len() && recvs[i].0 == t {
                col[recvs[i].1] = src_col[recvs[i].2];
                i += 1;
            }
        }
        let top_col = top.col_mut(j);
        for (&v, &(c, _, _)) in feed_vals.iter().zip(feeds) {
            top_col[c] = v;
        }
        if handles_top_internal {
            for &(c, s) in internal {
                top_col[c] = src_col[s];
            }
        }
    }
}

fn locate(spans: &[(usize, usize)], pos: usize) -> Option<(usize, usize)> {
    for (t, &(off, rows)) in spans.iter().enumerate() {
        if pos >= off && pos < off + rows {
            return Some((t, pos - off));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use luqr_kernels::lu::{lu_reconstruct, permute_rows};

    fn make_tiles(heights: &[usize], width: usize, seed: u64) -> Vec<Mat> {
        heights
            .iter()
            .enumerate()
            .map(|(i, &h)| Mat::random(h, width, seed + i as u64))
            .collect()
    }

    #[test]
    fn stack_unstack_roundtrip() {
        let tiles = make_tiles(&[4, 4, 2], 4, 1);
        let s = stack(&tiles.iter().collect::<Vec<_>>());
        assert_eq!(s.dims(), (10, 4));
        let mut out = [Mat::zeros(4, 4), Mat::zeros(4, 4), Mat::zeros(2, 4)];
        let mut refs: Vec<&mut Mat> = out.iter_mut().collect();
        unstack(&s, &[4, 4, 2], &mut refs);
        for (a, b) in out.iter().zip(&tiles) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn domain_factorization_is_plu_of_stack() {
        let nb = 8;
        let mut tiles = make_tiles(&[nb, nb, nb], nb, 5);
        let originals = stack(&tiles.iter().collect::<Vec<_>>());
        let mut refs: Vec<&mut Mat> = tiles.iter_mut().collect();
        let pf = factor_diagonal_domain(&mut refs, 4).unwrap();
        let s = stack(&tiles.iter().collect::<Vec<_>>());
        let pa = permute_rows(&originals, &pf.ipiv);
        let rec = lu_reconstruct(&s);
        assert!(pa.max_abs_diff(&rec) < 1e-12);
    }

    #[test]
    fn crit_data_collected() {
        let nb = 6;
        let mut tiles = make_tiles(&[nb, nb], nb, 7);
        // Plant a known max in a below-diagonal tile.
        tiles[1][(0, 0)] = 50.0;
        let below_norm = tiles[1].norm_one();
        let mut refs: Vec<&mut Mat> = tiles.iter_mut().collect();
        let pf = factor_diagonal_domain(&mut refs, 4).unwrap();
        assert_eq!(pf.crit.local_col_max[0], 50.0);
        assert!((pf.crit.below_diag_max_norm1 - below_norm).abs() < 1e-12);
        assert!((pf.crit.below_diag_sum_norm1 - below_norm).abs() < 1e-12);
        assert_eq!(pf.crit.pivot_abs.len(), nb);
        // Partial pivoting brings the planted 50 to the first pivot.
        assert!((pf.crit.pivot_abs[0] - 50.0).abs() < 1e-12);
        assert!(pf.crit.inv_norm_recip > 0.0);
    }

    #[test]
    fn apply_panel_reproduces_block_elimination() {
        // Factor a 2-tile domain; apply to a column; verify against the
        // dense LU of the stacked [panel | column] system.
        let nb = 8;
        let mut panel_tiles = make_tiles(&[nb, nb], nb, 11);
        let dense_panel = stack(&panel_tiles.iter().collect::<Vec<_>>());
        let mut col_tiles = make_tiles(&[nb, nb], 5, 13);
        let dense_col = stack(&col_tiles.iter().collect::<Vec<_>>());

        let mut refs: Vec<&mut Mat> = panel_tiles.iter_mut().collect();
        let pf = factor_diagonal_domain(&mut refs, 4).unwrap();
        let l_refs: Vec<&Mat> = panel_tiles.iter().collect();
        let mut c_refs: Vec<&mut Mat> = col_tiles.iter_mut().collect();
        apply_panel_to_column(&l_refs, &pf.ipiv, &mut c_refs);

        // Dense reference: P [panel col] — factor panel, apply same steps.
        let mut dense = Mat::zeros(2 * nb, nb + 5);
        dense.set_sub(0, 0, &dense_panel);
        dense.set_sub(0, nb, &dense_col);
        laswp(&mut dense, &pf.ipiv, 0, pf.ipiv.len());
        let lu = stack(&panel_tiles.iter().collect::<Vec<_>>());
        let l11 = lu.sub(0, 0, nb, nb);
        let mut top = dense.sub(0, nb, nb, 5);
        trsm(
            Side::Left,
            UpLo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            1.0,
            &l11,
            &mut top,
        );
        let l21 = lu.sub(nb, 0, nb, nb);
        let mut rest = dense.sub(nb, nb, nb, 5);
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            -1.0,
            &l21,
            &top,
            1.0,
            &mut rest,
        );

        let got = stack(&col_tiles.iter().collect::<Vec<_>>());
        assert!(got.sub(0, 0, nb, 5).max_abs_diff(&top) < 1e-12);
        assert!(got.sub(nb, 0, nb, 5).max_abs_diff(&rest) < 1e-12);
    }

    #[test]
    fn swap_permutation_matches_sequential_swaps() {
        let m = 12;
        let ipiv = vec![5usize, 1, 9, 3, 3, 11];
        let src = swap_permutation(&ipiv, m);
        // Reference: apply swaps to an index-identifying matrix.
        let mut a = Mat::from_fn(m, 1, |i, _| i as f64);
        laswp(&mut a, &ipiv, 0, ipiv.len());
        for (pos, &s) in src.iter().enumerate() {
            assert_eq!(a[(pos, 0)] as usize, s, "pos {pos}");
        }
        // Structural property: below-block rows sourced from the block.
        for (pos, &s) in src.iter().enumerate().skip(ipiv.len()) {
            if s != pos {
                assert!(s < ipiv.len());
            }
        }
    }

    #[test]
    fn grouped_swap_exchange_equals_laswp() {
        // Stack of 4 tiles (heights 6,6,6,4); pivot block = first 6 rows.
        // Split the below-block tiles into two "nodes" and verify the
        // group-wise exchange reproduces a plain laswp of the stack.
        let heights = [6usize, 6, 6, 4];
        let w = 5;
        let tiles: Vec<Mat> = heights
            .iter()
            .enumerate()
            .map(|(i, &h)| Mat::random(h, w, 50 + i as u64))
            .collect();
        let stack0 = stack(&tiles.iter().collect::<Vec<_>>());
        let total = stack0.rows();
        let ipiv = vec![14usize, 1, 20, 3, 9, 21];

        // Reference.
        let mut reference = stack0.clone();
        laswp(&mut reference, &ipiv, 0, ipiv.len());

        // Grouped: top tile + groups {tile1, tile3} and {tile2}.
        let src = swap_permutation(&ipiv, total);
        let mut top = tiles[0].clone();
        let orig = top.clone();
        let mut t1 = tiles[1].clone();
        let mut t2 = tiles[2].clone();
        let mut t3 = tiles[3].clone();
        {
            let mut group_a: Vec<(usize, &mut Mat)> = vec![(6, &mut t1), (18, &mut t3)];
            apply_swap_group(&src, &orig, &mut top, &mut group_a, true);
        }
        {
            let mut group_b: Vec<(usize, &mut Mat)> = vec![(12, &mut t2)];
            apply_swap_group(&src, &orig, &mut top, &mut group_b, false);
        }
        let got = stack(&[&top, &t1, &t2, &t3]);
        assert!(got.max_abs_diff(&reference) < 1e-15);
    }

    #[test]
    fn grouped_swap_group_order_is_irrelevant() {
        let heights = [4usize, 4, 4];
        let w = 3;
        let tiles: Vec<Mat> = heights
            .iter()
            .enumerate()
            .map(|(i, &h)| Mat::random(h, w, 80 + i as u64))
            .collect();
        let ipiv = vec![7usize, 10, 2, 5];
        let src = swap_permutation(&ipiv, 12);
        let orig = tiles[0].clone();

        let run = |order_ab: bool| {
            let mut top = tiles[0].clone();
            let mut t1 = tiles[1].clone();
            let mut t2 = tiles[2].clone();
            let run_a = |top: &mut Mat, t1: &mut Mat| {
                let mut g: Vec<(usize, &mut Mat)> = vec![(4, t1)];
                apply_swap_group(&src, &orig, top, &mut g, true);
            };
            let run_b = |top: &mut Mat, t2: &mut Mat| {
                let mut g: Vec<(usize, &mut Mat)> = vec![(8, t2)];
                apply_swap_group(&src, &orig, top, &mut g, false);
            };
            if order_ab {
                run_a(&mut top, &mut t1);
                run_b(&mut top, &mut t2);
            } else {
                run_b(&mut top, &mut t2);
                run_a(&mut top, &mut t1);
            }
            stack(&[&top, &t1, &t2])
        };
        assert_eq!(run(true).max_abs_diff(&run(false)), 0.0);
    }

    #[test]
    fn zero_column_fails_with_crit_data() {
        let nb = 4;
        let mut tiles = [Mat::zeros(nb, nb), Mat::zeros(nb, nb)];
        let mut refs: Vec<&mut Mat> = tiles.iter_mut().collect();
        let err = factor_diagonal_domain(&mut refs, 2);
        assert!(err.is_err());
        let (_, crit) = err.unwrap_err();
        assert_eq!(crit.local_col_max, vec![0.0; nb]);
    }

    #[test]
    fn ragged_last_tile() {
        let nb = 6;
        let mut tiles = make_tiles(&[nb, 3], nb, 21);
        let originals = stack(&tiles.iter().collect::<Vec<_>>());
        let mut refs: Vec<&mut Mat> = tiles.iter_mut().collect();
        let pf = factor_diagonal_domain(&mut refs, 4).unwrap();
        let s = stack(&tiles.iter().collect::<Vec<_>>());
        let pa = permute_rows(&originals, &pf.ipiv);
        assert!(pa.max_abs_diff(&lu_reconstruct(&s)) < 1e-12);
        assert_eq!(pf.heights, vec![6, 3]);
    }

    #[test]
    fn single_tile_domain_equals_getrf() {
        let nb = 10;
        let a0 = Mat::random(nb, nb, 31);
        let mut a = a0.clone();
        let mut refs: Vec<&mut Mat> = vec![&mut a];
        let pf = factor_diagonal_domain(&mut refs, 4).unwrap();
        let mut b = a0.clone();
        let ipiv = getrf(&mut b).unwrap();
        assert_eq!(pf.ipiv, ipiv);
        assert!(a.max_abs_diff(&b) < 1e-15);
    }
}
