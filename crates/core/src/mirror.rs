//! Interleaved, padded factor storage for the fiber MTTKRP kernels.
//!
//! The row MTTKRP walks a fiber and multiplies two factor rows per
//! non-zero. [`sns_linalg::Mat`] is already row-major, but its rows are
//! exactly `R` long, so consecutive rows start at arbitrary alignments
//! and the vectorized inner loop always carries a scalar tail.
//! [`FactorMirror`] keeps a kernel-facing copy of every factor in
//! row-major-by-rank layout *padded to a whole register block*
//! (`stride = R` rounded up to 4 `f64` lanes): each row starts on a
//! block boundary and the padding lanes are zero, so fiber walks touch
//! contiguous, uniformly-strided memory.
//!
//! The mirror is derived state: [`FactorState`](crate::update::FactorState)
//! re-syncs the affected row on every commit (an `O(R)` copy next to the
//! `O(R²)` Gram update) and rebuilds it wholesale on install/restore.
//! Snapshots never encode it. Rows are bit-identical copies of the
//! master factors, so kernels reading the mirror produce bitwise the
//! same results as kernels reading the `Mat` rows.

use sns_linalg::Mat;

/// Pads `rank` up to a whole number of 4-lane `f64` blocks.
#[inline]
fn padded_stride(rank: usize) -> usize {
    rank.div_ceil(4).max(1) * 4
}

/// Kernel-facing padded copy of a factor set (one plane per mode).
#[derive(Debug, Clone)]
pub struct FactorMirror {
    rank: usize,
    stride: usize,
    planes: Vec<Vec<f64>>,
}

impl FactorMirror {
    /// Builds a mirror of `factors`.
    pub fn new(factors: &[Mat]) -> Self {
        let mut m = FactorMirror { rank: 0, stride: 0, planes: Vec::new() };
        m.resync(factors);
        m
    }

    /// Padded row stride (a multiple of the vector block width, `≥ rank`).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The factor rank `R` mirrored rows carry in their first `R` lanes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Mode `m`'s plane.
    #[inline]
    pub fn plane(&self, mode: usize) -> &[f64] {
        &self.planes[mode]
    }

    /// Rebuilds every plane from `factors` (install/restore path); the
    /// planes are resized if the shapes changed.
    pub fn resync(&mut self, factors: &[Mat]) {
        self.rank = factors.first().map_or(0, |f| f.cols());
        self.stride = padded_stride(self.rank);
        self.planes.resize(factors.len(), Vec::new());
        for (plane, f) in self.planes.iter_mut().zip(factors) {
            plane.clear();
            plane.resize(f.rows() * self.stride, 0.0);
            for i in 0..f.rows() {
                plane[i * self.stride..i * self.stride + self.rank].copy_from_slice(f.row(i));
            }
        }
    }

    /// Copies one master row into its mirror slot — the per-commit sync.
    #[inline]
    pub fn sync_row(&mut self, mode: usize, index: usize, row: &[f64]) {
        debug_assert_eq!(row.len(), self.rank);
        let at = index * self.stride;
        self.planes[mode][at..at + self.rank].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn factors(seed: u64, rank: usize) -> Vec<Mat> {
        let mut rng = StdRng::seed_from_u64(seed);
        [5usize, 4, 6].iter().map(|&n| Mat::random(&mut rng, n, rank, 1.0)).collect()
    }

    #[test]
    fn stride_is_padded_to_whole_blocks() {
        for (rank, stride) in [(1, 4), (4, 4), (5, 8), (20, 20)] {
            assert_eq!(padded_stride(rank), stride, "rank {rank}");
        }
    }

    #[test]
    fn f64_mirror_rows_are_bitwise_copies() {
        let f = factors(1, 5);
        let m = FactorMirror::new(&f);
        assert_eq!(m.stride(), 8);
        assert_eq!(m.rank(), 5);
        for (mode, fac) in f.iter().enumerate() {
            let plane = m.plane(mode);
            for i in 0..fac.rows() {
                let got = &plane[i * m.stride()..i * m.stride() + 5];
                assert_eq!(got, fac.row(i), "mode {mode} row {i}");
                // Padding lanes stay zero.
                assert!(plane[i * m.stride() + 5..(i + 1) * m.stride()].iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn sync_row_updates_one_slot() {
        let f = factors(3, 4);
        let mut m = FactorMirror::new(&f);
        let new_row = [9.0, -8.0, 7.0, -6.0];
        m.sync_row(1, 2, &new_row);
        let plane = m.plane(1);
        assert_eq!(&plane[2 * m.stride()..2 * m.stride() + 4], &new_row);
        // Neighbors untouched.
        assert_eq!(&plane[m.stride()..m.stride() + 4], f[1].row(1));
    }

    #[test]
    fn resync_follows_shape_changes() {
        let f = factors(4, 4);
        let mut m = FactorMirror::new(&f);
        let g = factors(5, 7);
        m.resync(&g);
        assert_eq!(m.rank(), 7);
        assert_eq!(m.stride(), 8);
        for (mode, fac) in g.iter().enumerate() {
            let plane = m.plane(mode);
            assert_eq!(plane.len(), fac.rows() * 8);
            for i in 0..fac.rows() {
                assert_eq!(&plane[i * 8..i * 8 + 7], fac.row(i));
            }
        }
    }
}
