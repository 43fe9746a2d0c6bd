//! Column-major dense matrix storage.
//!
//! `Mat` is the storage unit for every tile manipulated by the solver. It is
//! deliberately minimal: an owned, column-major `m x n` buffer of `f64` with
//! the access patterns the kernels need (column slices, sub-block copies,
//! norms). All BLAS/LAPACK-like operations live in the sibling modules and
//! operate on `&Mat`/`&mut Mat`.

use std::fmt;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Owned column-major `m x n` matrix of `f64`.
///
/// Element `(i, j)` lives at `data[j * m + i]`. The leading dimension always
/// equals the row count (tiles are stored contiguously).
#[derive(Clone, PartialEq)]
pub struct Mat {
    m: usize,
    n: usize,
    data: Vec<f64>,
}

impl Mat {
    /// `m x n` matrix of zeros.
    pub fn zeros(m: usize, n: usize) -> Self {
        Mat {
            m,
            n,
            data: vec![0.0; m * n],
        }
    }

    /// `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 1.0;
        }
        a
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(m: usize, n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(m * n);
        for j in 0..n {
            for i in 0..m {
                data.push(f(i, j));
            }
        }
        Mat { m, n, data }
    }

    /// Build from a column-major slice (`data.len() == m * n`).
    pub fn from_col_major(m: usize, n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), m * n, "column-major buffer has wrong length");
        Mat {
            m,
            n,
            data: data.to_vec(),
        }
    }

    /// Build from rows given in row-major order (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let m = rows.len();
        let n = if m == 0 { 0 } else { rows[0].len() };
        for r in rows {
            assert_eq!(r.len(), n, "ragged row list");
        }
        Mat::from_fn(m, n, |i, j| rows[i][j])
    }

    /// Deterministic uniform random matrix in `[-1, 1]`.
    pub fn random(m: usize, n: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Mat::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// True when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0 || self.n == 0
    }

    /// Raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.n);
        &self.data[j * self.m..(j + 1) * self.m]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.n);
        &mut self.data[j * self.m..(j + 1) * self.m]
    }

    /// Two distinct mutable columns at once (for column swaps / updates).
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert!(j1 != j2 && j1 < self.n && j2 < self.n);
        let m = self.m;
        let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
        let (head, tail) = self.data.split_at_mut(hi * m);
        let a = &mut head[lo * m..lo * m + m];
        let b = &mut tail[..m];
        if j1 < j2 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Set all entries to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Reshape in place to the vertical stack of `parts` (which must share
    /// a column count), reusing the allocation. Every entry is written by
    /// the copy, so no zero fill is needed.
    pub fn reset_stacked(&mut self, parts: &[&Mat]) {
        let n = parts[0].n;
        let m: usize = parts.iter().map(|p| p.m).sum();
        debug_assert!(
            parts.iter().all(|p| p.n == n),
            "reset_stacked: ragged widths"
        );
        self.m = m;
        self.n = n;
        self.data.clear();
        self.data.reserve(m * n);
        for j in 0..n {
            for p in parts {
                self.data.extend_from_slice(p.col(j));
            }
        }
    }

    /// Copy the full contents of `src` (same dims required).
    pub fn copy_from(&mut self, src: &Mat) {
        assert_eq!(self.dims(), src.dims(), "copy_from dimension mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Extract the sub-block `rows x cols` starting at `(i0, j0)`.
    pub fn sub(&self, i0: usize, j0: usize, rows: usize, cols: usize) -> Mat {
        assert!(
            i0 + rows <= self.m && j0 + cols <= self.n,
            "sub out of range"
        );
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            data.extend_from_slice(&self.col(j0 + j)[i0..i0 + rows]);
        }
        Mat {
            m: rows,
            n: cols,
            data,
        }
    }

    /// Write `block` into `self` at offset `(i0, j0)`.
    pub fn set_sub(&mut self, i0: usize, j0: usize, block: &Mat) {
        assert!(
            i0 + block.m <= self.m && j0 + block.n <= self.n,
            "set_sub out of range"
        );
        for j in 0..block.n {
            let dst = j0 + j;
            let src_col = block.col(j);
            self.data[dst * self.m + i0..dst * self.m + i0 + block.m].copy_from_slice(src_col);
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.n, self.m, |i, j| self[(j, i)])
    }

    /// Upper-triangular copy (entries strictly below the diagonal zeroed).
    pub fn upper_triangular(&self) -> Mat {
        Mat::from_fn(
            self.m,
            self.n,
            |i, j| if i <= j { self[(i, j)] } else { 0.0 },
        )
    }

    /// Unit-lower-triangular copy (ones on the diagonal, zeros above).
    pub fn unit_lower_triangular(&self) -> Mat {
        Mat::from_fn(self.m, self.n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// 1-norm: maximum absolute column sum.
    pub fn norm_one(&self) -> f64 {
        (0..self.n)
            .map(|j| self.col(j).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Infinity norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        let mut row_sums = vec![0.0f64; self.m];
        for j in 0..self.n {
            for (i, &v) in self.col(j).iter().enumerate() {
                row_sums[i] += v.abs();
            }
        }
        row_sums.into_iter().fold(0.0, f64::max)
    }

    /// Max norm: largest absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry of column `j` restricted to rows `i0..`.
    pub fn col_max_abs_from(&self, j: usize, i0: usize) -> f64 {
        self.col(j)[i0..]
            .iter()
            .fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// `max |self - other|` over all entries (dims must match).
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.dims(), other.dims());
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
    }

    /// True when all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.m && j < self.n,
            "index ({i},{j}) out of {:?}",
            self.dims()
        );
        &self.data[j * self.m + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.m && j < self.n,
            "index ({i},{j}) out of {:?}",
            self.dims()
        );
        &mut self.data[j * self.m + i]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.m, self.n)?;
        for i in 0..self.m.min(12) {
            write!(f, "  ")?;
            for j in 0..self.n.min(12) {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.n > 12 { "..." } else { "" })?;
        }
        if self.m > 12 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_column_major() {
        let mut a = Mat::zeros(3, 2);
        a[(2, 1)] = 5.0;
        assert_eq!(a.as_slice()[3 + 2], 5.0);
        assert_eq!(a[(2, 1)], 5.0);
    }

    #[test]
    fn eye_and_from_fn() {
        let i3 = Mat::eye(3);
        let alt = Mat::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(i3, alt);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.dims(), (3, 2));
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(2, 0)], 5.0);
    }

    #[test]
    fn norms_on_known_matrix() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(a.norm_one(), 6.0); // col 1: |−2|+|4| = 6
        assert_eq!(a.norm_inf(), 7.0); // row 1: |−3|+|4| = 7
        assert_eq!(a.norm_max(), 4.0);
        assert!((a.norm_fro() - (30.0f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn sub_and_set_sub_roundtrip() {
        let a = Mat::random(6, 5, 42);
        let b = a.sub(1, 2, 3, 2);
        let mut c = Mat::zeros(6, 5);
        c.set_sub(1, 2, &b);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(c[(1 + i, 2 + j)], a[(1 + i, 2 + j)]);
            }
        }
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::random(4, 7, 7);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut a = Mat::from_fn(3, 3, |i, j| (i + 10 * j) as f64);
        let (c0, c2) = a.two_cols_mut(0, 2);
        std::mem::swap(&mut c0[1], &mut c2[1]);
        assert_eq!(a[(1, 0)], 21.0);
        assert_eq!(a[(1, 2)], 1.0);
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(Mat::random(5, 5, 3), Mat::random(5, 5, 3));
        assert_ne!(Mat::random(5, 5, 3), Mat::random(5, 5, 4));
    }

    #[test]
    fn triangular_copies() {
        let a = Mat::random(4, 4, 1);
        let u = a.upper_triangular();
        let l = a.unit_lower_triangular();
        for i in 0..4 {
            for j in 0..4 {
                if i <= j {
                    assert_eq!(u[(i, j)], a[(i, j)]);
                    if i == j {
                        assert_eq!(l[(i, j)], 1.0);
                    } else {
                        assert_eq!(l[(i, j)], 0.0);
                    }
                } else {
                    assert_eq!(u[(i, j)], 0.0);
                    assert_eq!(l[(i, j)], a[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn col_max_abs_from_skips_rows() {
        let a = Mat::from_rows(&[&[9.0], &[-2.0], &[1.0]]);
        assert_eq!(a.col_max_abs_from(0, 0), 9.0);
        assert_eq!(a.col_max_abs_from(0, 1), 2.0);
    }
}
