//! Sparse MTTKRP kernels.
//!
//! The matricized-tensor-times-Khatri-Rao product `X(m)·K(m)` is the hot
//! kernel of every CP algorithm. For a sparse `X` it reduces to, per
//! non-zero `x_J`, a scaled element-wise product of factor rows — the
//! Khatri–Rao product is never materialized.
//!
//! # Kernel variants
//!
//! The fiber kernel exists in three layouts that are **bitwise
//! interchangeable** (identical per-`k` accumulation order and
//! multiplication grouping, pinned by the proptest parity suite):
//!
//! - [`mttkrp_row`] walks the master row-major factors,
//! - [`mttkrp_row_interleaved`] walks a padded
//!   [`FactorMirror`] plane (contiguous, block-aligned rows),
//! - [`mttkrp_row_par`] splits the rank range over scoped worker
//!   threads — each worker owns a contiguous `k`-range of `out` and
//!   walks the whole fiber, so per-`k` accumulation order is identical
//!   to serial at **any** thread count.
//!
//! All three accumulate fiber entries in *pairs* (two entries fused per
//! pass over `out`, halving the accumulator traffic) over explicit
//! width-4 register blocks with a scalar tail, so the inner loops
//! autovectorize on stable Rust.
//!
//! # Rank invariants
//!
//! Every kernel here works on length-`R` row buffers, where `R` is the
//! common column count of all `factors`. The public entry points return
//! [`SnsError::KernelShape`] when `out`/`scratch` do not match (a longer
//! `scratch` would silently leave stale tail entries in the product,
//! a shorter one would truncate it); the inner loops keep
//! `debug_assert!`s only. The updaters pass buffers from
//! [`KernelWorkspace`](crate::workspace::KernelWorkspace), which sizes
//! them once at construction.

use crate::kruskal::KruskalTensor;
use crate::mirror::FactorMirror;
use sns_error::SnsError;
use sns_linalg::Mat;
use sns_tensor::{Coord, SparseTensor};

#[inline]
fn debug_assert_rank(factors: &[Mat], len: usize, what: &str) {
    debug_assert!(
        factors.iter().all(|f| f.cols() == len),
        "{what}: buffer length {len} must equal the factor rank {:?}",
        factors.iter().map(|f| f.cols()).collect::<Vec<_>>()
    );
}

/// Typed rank check for the public kernel entry points (panic-free
/// release behavior for malformed buffer lengths).
#[inline]
fn check_rank(factors: &[Mat], len: usize, what: &'static str) -> Result<(), SnsError> {
    match factors.iter().find(|f| f.cols() != len) {
        None => Ok(()),
        Some(f) => Err(SnsError::KernelShape { what, expected: f.cols(), got: len }),
    }
}

/// The two categorical-or-time modes a 3-mode fiber kernel reads when
/// mode `skip` is being updated, in ascending order (which fixes the
/// multiplication grouping `a·b` across every kernel variant).
#[inline]
fn other_two(skip: usize) -> (usize, usize) {
    match skip {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// `out[k] += v0·(a0[k]·b0[k]) + v1·(a1[k]·b1[k])` over explicit
/// width-4 blocks plus a scalar tail. The per-`k` expression is the
/// single source of truth for the fused two-entry accumulation: every
/// kernel variant (row-major, interleaved, parallel) funnels
/// through here, which is what makes them bitwise interchangeable.
#[inline]
fn accum_pair(out: &mut [f64], v0: f64, a0: &[f64], b0: &[f64], v1: f64, a1: &[f64], b1: &[f64]) {
    let n = out.len();
    debug_assert!(a0.len() == n && b0.len() == n && a1.len() == n && b1.len() == n);
    let mut o = out.chunks_exact_mut(4);
    let mut a0c = a0.chunks_exact(4);
    let mut b0c = b0.chunks_exact(4);
    let mut a1c = a1.chunks_exact(4);
    let mut b1c = b1.chunks_exact(4);
    for ((((o, x0), y0), x1), y1) in
        (&mut o).zip(&mut a0c).zip(&mut b0c).zip(&mut a1c).zip(&mut b1c)
    {
        o[0] += v0 * (x0[0] * y0[0]) + v1 * (x1[0] * y1[0]);
        o[1] += v0 * (x0[1] * y0[1]) + v1 * (x1[1] * y1[1]);
        o[2] += v0 * (x0[2] * y0[2]) + v1 * (x1[2] * y1[2]);
        o[3] += v0 * (x0[3] * y0[3]) + v1 * (x1[3] * y1[3]);
    }
    for ((((o, x0), y0), x1), y1) in o
        .into_remainder()
        .iter_mut()
        .zip(a0c.remainder())
        .zip(b0c.remainder())
        .zip(a1c.remainder())
        .zip(b1c.remainder())
    {
        *o += v0 * (x0 * y0) + v1 * (x1 * y1);
    }
}

/// `out[k] += v·(a[k]·b[k])` — the odd-entry tail of the pair-blocked
/// fiber walk, same blocking and grouping as [`accum_pair`].
#[inline]
fn accum_single(out: &mut [f64], v: f64, a: &[f64], b: &[f64]) {
    let n = out.len();
    debug_assert!(a.len() == n && b.len() == n);
    let mut o = out.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for ((o, x), y) in (&mut o).zip(&mut ac).zip(&mut bc) {
        o[0] += v * (x[0] * y[0]);
        o[1] += v * (x[1] * y[1]);
        o[2] += v * (x[2] * y[2]);
        o[3] += v * (x[3] * y[3]);
    }
    for ((o, x), y) in o.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *o += v * (x * y);
    }
}

/// Pair-blocked fiber walk over two mirror planes, restricted to the
/// `k`-range `[k0, k0 + out.len())` of every row — the shared core of
/// the interleaved serial kernel (`k0 = 0`, full width) and each
/// parallel worker (its own contiguous sub-range).
#[allow(clippy::too_many_arguments)]
fn fiber_accum_planes(
    coords: &[Coord],
    values: &[f64],
    pa: &[f64],
    pb: &[f64],
    ma: usize,
    mb: usize,
    stride: usize,
    k0: usize,
    out: &mut [f64],
) {
    let w = out.len();
    let n = coords.len();
    let mut i = 0;
    while i + 2 <= n {
        let (c0, c1) = (&coords[i], &coords[i + 1]);
        let a0 = c0.get(ma) as usize * stride + k0;
        let b0 = c0.get(mb) as usize * stride + k0;
        let a1 = c1.get(ma) as usize * stride + k0;
        let b1 = c1.get(mb) as usize * stride + k0;
        accum_pair(
            out,
            values[i],
            &pa[a0..a0 + w],
            &pb[b0..b0 + w],
            values[i + 1],
            &pa[a1..a1 + w],
            &pb[b1..b1 + w],
        );
        i += 2;
    }
    if i < n {
        let c = &coords[i];
        let a = c.get(ma) as usize * stride + k0;
        let b = c.get(mb) as usize * stride + k0;
        accum_single(out, values[i], &pa[a..a + w], &pb[b..b + w]);
    }
}

/// Collects the participating factor rows of one coordinate (all modes
/// but `skip`) into a stack array — one bounds-checked lookup per mode,
/// after which the product kernels run over plain slices.
#[inline]
fn gather_rows<'a>(
    factors: &'a [Mat],
    coord: &Coord,
    skip: usize,
) -> ([&'a [f64]; sns_tensor::MAX_ORDER], usize) {
    let mut rows: [&[f64]; sns_tensor::MAX_ORDER] = [&[]; sns_tensor::MAX_ORDER];
    let mut n = 0;
    for (m, f) in factors.iter().enumerate() {
        if m != skip {
            rows[n] = f.row(coord.get(m) as usize);
            n += 1;
        }
    }
    (rows, n)
}

/// `out[k] = Π_{n≠skip} factors[n](coord_n, k)` — the Khatri–Rao *row*
/// product for one coordinate. `O(M·R)`.
///
/// `out.len()` must equal the factor rank `R`. The ubiquitous
/// three-mode/one-skip case runs as a single fused element-wise multiply
/// (one pass over `out` instead of init + one pass per mode); products
/// accumulate in ascending-mode order in every case, so results are
/// bitwise independent of which path runs.
#[inline]
pub fn khatri_rao_row(factors: &[Mat], coord: &Coord, skip: usize, out: &mut [f64]) {
    debug_assert_rank(factors, out.len(), "khatri_rao_row");
    let (rows, n) = gather_rows(factors, coord, skip);
    match n {
        0 => out.iter_mut().for_each(|x| *x = 1.0),
        1 => out.copy_from_slice(rows[0]),
        2 => {
            out.iter_mut().zip(rows[0].iter().zip(rows[1])).for_each(|(o, (&a, &b))| *o = a * b);
        }
        _ => {
            out.iter_mut().zip(rows[0].iter().zip(rows[1])).for_each(|(o, (&a, &b))| *o = a * b);
            for row in &rows[2..n] {
                out.iter_mut().zip(*row).for_each(|(o, &v)| *o *= v);
            }
        }
    }
}

/// All `M` Khatri–Rao row products of one coordinate at once:
/// `rows[m·R + k] = Π_{n≠m} factors[n](coord_n, k)` for every mode `m`.
///
/// Uses prefix/suffix product caching: one backward sweep materializes
/// the suffix products `S_m = Π_{n≥m}`, then a forward sweep maintains
/// the running prefix `P_m = Π_{n<m}` and emits each mode's row as the
/// single element-wise multiply `P_m ∗ S_{m+1}` — `O(M·R)` total instead
/// of the `O(M²·R)` of `M` separate [`khatri_rao_row`] calls.
///
/// `scratch` is caller scratch of length `≥ (M+2)·R` (suffix products
/// plus the running prefix); `rows` has length `M·R` (mode `m`'s row at
/// `rows[m·R..(m+1)·R]`). Each row matches [`khatri_rao_row`] up to
/// floating-point reassociation (≤ 1e-12 relative; the factor rows
/// multiply in a different order).
///
/// # Errors
/// [`SnsError::KernelShape`] when `scratch` or `rows` is shorter than
/// the documented size.
pub fn khatri_rao_rows_all(
    factors: &[Mat],
    coord: &Coord,
    scratch: &mut [f64],
    rows: &mut [f64],
) -> Result<(), SnsError> {
    let m = factors.len();
    let r = factors[0].cols();
    check_rank(factors, r, "khatri_rao_rows_all(factors)")?;
    if scratch.len() < (m + 2) * r {
        return Err(SnsError::KernelShape {
            what: "khatri_rao_rows_all(scratch)",
            expected: (m + 2) * r,
            got: scratch.len(),
        });
    }
    if rows.len() != m * r {
        return Err(SnsError::KernelShape {
            what: "khatri_rao_rows_all(rows)",
            expected: m * r,
            got: rows.len(),
        });
    }
    let (suffix, prefix) = scratch.split_at_mut((m + 1) * r);
    let prefix = &mut prefix[..r];
    // Backward sweep: S_M = 1, S_n = row_n ∗ S_{n+1} (S_0 never read).
    suffix[m * r..(m + 1) * r].iter_mut().for_each(|x| *x = 1.0);
    for n in (1..m).rev() {
        let row = factors[n].row(coord.get(n) as usize);
        let (dst, src) = suffix[n * r..(n + 2) * r].split_at_mut(r);
        dst.iter_mut().zip(src.iter().zip(row)).for_each(|(d, (&s, &v))| *d = s * v);
    }
    // Forward sweep: rows_n = P ∗ S_{n+1}, then P ∗= row_n.
    for n in 0..m {
        let out = &mut rows[n * r..(n + 1) * r];
        let s = &suffix[(n + 1) * r..(n + 2) * r];
        if n == 0 {
            out.copy_from_slice(s); // P = 1
        } else {
            out.iter_mut().zip(s.iter().zip(&*prefix)).for_each(|(o, (&sv, &pv))| *o = sv * pv);
        }
        if n + 1 < m {
            let row = factors[n].row(coord.get(n) as usize);
            if n == 0 {
                prefix.copy_from_slice(row);
            } else {
                prefix.iter_mut().zip(row).for_each(|(p, &v)| *p *= v);
            }
        }
    }
    Ok(())
}

/// Full MTTKRP `U = X(m)·K(m) ∈ R^{N_m×R}` over all non-zeros of `x`.
/// `O(|X|·M·R)`.
pub fn mttkrp_full(x: &SparseTensor, factors: &[Mat], mode: usize) -> Mat {
    let rank = factors[0].cols();
    let mut u = Mat::zeros(x.shape().dim(mode), rank);
    let mut prod = vec![0.0; rank];
    for (coord, value) in x.iter() {
        khatri_rao_row(factors, coord, mode, &mut prod);
        let row = u.row_mut(coord.get(mode) as usize);
        row.iter_mut().zip(&prod).for_each(|(r, &p)| *r += value * p);
    }
    u
}

/// All-modes MTTKRP in one pass: `U(m) = X(m)·K(m)` for every mode `m`,
/// sharing each non-zero's Khatri–Rao rows via prefix/suffix caching
/// ([`khatri_rao_rows_all`]). `O(|X|·M·R)` total versus the
/// `O(|X|·M²·R)` of `M` separate [`mttkrp_full`] calls — the batch form
/// for Jacobi-style (all modes from the same factors) refreshes, and the
/// kernel the criterion suite benchmarks against the mode-at-a-time
/// path. Gauss–Seidel sweeps ([`crate::als::als_sweep`]) cannot use it:
/// they interleave factor updates between modes.
pub fn mttkrp_full_all(x: &SparseTensor, factors: &[Mat]) -> Vec<Mat> {
    let m = factors.len();
    let rank = factors[0].cols();
    let mut us: Vec<Mat> = (0..m).map(|n| Mat::zeros(x.shape().dim(n), rank)).collect();
    let mut scratch = vec![0.0; (m + 2) * rank];
    let mut rows = vec![0.0; m * rank];
    for (coord, value) in x.iter() {
        khatri_rao_rows_all(factors, coord, &mut scratch, &mut rows)
            .expect("internally sized buffers");
        for (n, u) in us.iter_mut().enumerate() {
            let dst = u.row_mut(coord.get(n) as usize);
            let src = &rows[n * rank..(n + 1) * rank];
            dst.iter_mut().zip(src).for_each(|(d, &p)| *d += value * p);
        }
    }
    us
}

/// Row MTTKRP over one fiber:
/// `out[k] = Σ_{J : J_mode = index} x_J · Π_{n≠mode} factors[n](J_n, k)`.
/// This is `(X)(m)(i,:)·K(m)` of Eq. (12). `O(deg·M·R)`.
///
/// Three-mode tensors (every Table-III dataset but one) run the
/// pair-blocked fast path: two fiber entries fuse into one pass over
/// `out`, halving the accumulator load/store traffic, with explicit
/// width-4 register blocks inside.
///
/// # Errors
/// [`SnsError::KernelShape`] when `out` or `scratch` does not match the
/// factor rank (see the module docs on rank invariants).
pub fn mttkrp_row(
    x: &SparseTensor,
    factors: &[Mat],
    mode: usize,
    index: u32,
    out: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), SnsError> {
    check_rank(factors, out.len(), "mttkrp_row(out)")?;
    check_rank(factors, scratch.len(), "mttkrp_row(scratch)")?;
    out.iter_mut().for_each(|v| *v = 0.0);
    let (coords, values) = x.fiber_slices(mode, index);
    if coords.is_empty() {
        return Ok(());
    }
    if factors.len() == 3 {
        let (ma, mb) = other_two(mode);
        let (fa, fb) = (&factors[ma], &factors[mb]);
        let r = out.len();
        let n = coords.len();
        let mut i = 0;
        while i + 2 <= n {
            let (c0, c1) = (&coords[i], &coords[i + 1]);
            accum_pair(
                out,
                values[i],
                &fa.row(c0.get(ma) as usize)[..r],
                &fb.row(c0.get(mb) as usize)[..r],
                values[i + 1],
                &fa.row(c1.get(ma) as usize)[..r],
                &fb.row(c1.get(mb) as usize)[..r],
            );
            i += 2;
        }
        if i < n {
            let c = &coords[i];
            accum_single(
                out,
                values[i],
                &fa.row(c.get(ma) as usize)[..r],
                &fb.row(c.get(mb) as usize)[..r],
            );
        }
    } else {
        for (coord, &value) in coords.iter().zip(values) {
            khatri_rao_row(factors, coord, mode, scratch);
            out.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += value * p);
        }
    }
    Ok(())
}

/// Row MTTKRP over one fiber reading a [`FactorMirror`] instead of the
/// master factors — contiguous, block-aligned rows. Bitwise-identical
/// to [`mttkrp_row`].
///
/// Three-mode tensors only — the callers'
/// [`FactorState`](crate::update::FactorState) dispatch falls back to
/// [`mttkrp_row`] for other orders.
///
/// # Errors
/// [`SnsError::KernelShape`] when `out` does not match the mirror's
/// rank or the tensor is not 3-mode.
pub fn mttkrp_row_interleaved(
    x: &SparseTensor,
    mirror: &FactorMirror,
    mode: usize,
    index: u32,
    out: &mut [f64],
) -> Result<(), SnsError> {
    mttkrp_row_par(x, mirror, mode, index, out, 1)
}

/// [`mttkrp_row_interleaved`] with the rank range split across `threads`
/// scoped worker threads. Each worker owns a contiguous `k`-range of
/// `out` and walks the whole fiber, so the per-`k` accumulation order —
/// and therefore the result, bit for bit — is independent of the thread
/// count. `threads ≤ 1` runs serially on the calling thread.
///
/// Spawning scoped threads costs microseconds, so callers gate this on
/// rank/work thresholds ([`crate::workspace::ParConfig`]) — at the
/// paper's default `R = 20` the dispatch never parallelizes.
///
/// # Errors
/// [`SnsError::KernelShape`] when `out` does not match the mirror's
/// rank or the tensor is not 3-mode.
pub fn mttkrp_row_par(
    x: &SparseTensor,
    mirror: &FactorMirror,
    mode: usize,
    index: u32,
    out: &mut [f64],
    threads: usize,
) -> Result<(), SnsError> {
    if out.len() != mirror.rank() {
        return Err(SnsError::KernelShape {
            what: "mttkrp_row_interleaved(out)",
            expected: mirror.rank(),
            got: out.len(),
        });
    }
    if x.order() != 3 {
        return Err(SnsError::KernelShape {
            what: "mttkrp_row_interleaved(order)",
            expected: 3,
            got: x.order(),
        });
    }
    out.iter_mut().for_each(|v| *v = 0.0);
    let (coords, values) = x.fiber_slices(mode, index);
    if coords.is_empty() {
        return Ok(());
    }
    let (ma, mb) = other_two(mode);
    let stride = mirror.stride();
    let (pa, pb) = (mirror.plane(ma), mirror.plane(mb));
    let workers = threads.max(1).min(out.len());
    if workers == 1 {
        fiber_accum_planes(coords, values, pa, pb, ma, mb, stride, 0, out);
        return Ok(());
    }
    let chunk = out.len().div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, piece) in out.chunks_mut(chunk).enumerate() {
            let k0 = ci * chunk;
            s.spawn(move || fiber_accum_planes(coords, values, pa, pb, ma, mb, stride, k0, piece));
        }
    });
    Ok(())
}

/// Row MTTKRP over an explicit list of `(coord, value)` pairs (used for
/// the sampled correction `X̄ + ΔX` of Eq. (16) and Eq. (23)).
///
/// # Errors
/// [`SnsError::KernelShape`] when `out` or `scratch` does not match the
/// factor rank (see the module docs on rank invariants).
pub fn mttkrp_row_from_entries(
    entries: &[(Coord, f64)],
    factors: &[Mat],
    mode: usize,
    out: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), SnsError> {
    check_rank(factors, out.len(), "mttkrp_row_from_entries(out)")?;
    check_rank(factors, scratch.len(), "mttkrp_row_from_entries(scratch)")?;
    out.iter_mut().for_each(|v| *v = 0.0);
    for (coord, value) in entries {
        khatri_rao_row(factors, coord, mode, scratch);
        out.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += value * p);
    }
    Ok(())
}

/// The sampled-correction row MTTKRP of Eq. (16)/Eq. (23), fused:
/// `out[k] = Σ_{J ∈ samples} (x_J − x̃_J) · Π_{n≠mode} a(n)_{J_n k}`
/// (`out` is zeroed first; the caller appends the `ΔX` terms).
///
/// The residual `x̃_J = Σ_k λ_k Π_n a(n)_{J_n k}` shares its all-modes
/// product with the Khatri–Rao row: the kernel computes the skip-`mode`
/// row once and derives `x̃_J` from it with a single extra
/// multiply-accumulate against `a(mode)_{J_mode}` — one pass over the
/// factor rows instead of the separate `eval` + `khatri_rao_row` passes
/// (which is the prefix/suffix-caching idea applied to the sampled hot
/// path). Matches the unfused form to ≤ 1e-12: the model value
/// multiplies factors in a different order than
/// [`KruskalTensor::eval`].
///
/// # Errors
/// [`SnsError::KernelShape`] when `out` or `scratch` does not match the
/// factor rank (see the module docs on rank invariants).
pub fn mttkrp_row_sampled_residuals(
    window: &SparseTensor,
    kruskal: &KruskalTensor,
    mode: usize,
    samples: &[Coord],
    out: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), SnsError> {
    check_rank(&kruskal.factors, out.len(), "mttkrp_row_sampled_residuals(out)")?;
    check_rank(&kruskal.factors, scratch.len(), "mttkrp_row_sampled_residuals(scratch)")?;
    out.iter_mut().for_each(|v| *v = 0.0);
    if kruskal.factors.len() == 3 {
        // Fast path for the ubiquitous 3-mode case: the Khatri–Rao row
        // is a single element-wise product (same ascending-mode order as
        // `khatri_rao_row`, so `scratch` is bitwise identical), and the
        // model evaluation fuses into the same register-blocked sweep.
        let (ma, mb) = other_two(mode);
        let (fa, fb) = (&kruskal.factors[ma], &kruskal.factors[mb]);
        let fm = &kruskal.factors[mode];
        let r = out.len();
        for coord in samples {
            let a = &fa.row(coord.get(ma) as usize)[..r];
            let b = &fb.row(coord.get(mb) as usize)[..r];
            let frow = &fm.row(coord.get(mode) as usize)[..r];
            let model = fused_model_pass(a, b, frow, &kruskal.lambda, scratch);
            let residual = window.get(coord) - model;
            out.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += residual * p);
        }
    } else {
        for coord in samples {
            khatri_rao_row(&kruskal.factors, coord, mode, scratch);
            let frow = kruskal.factors[mode].row(coord.get(mode) as usize);
            let model: f64 = scratch
                .iter()
                .zip(frow.iter().zip(&kruskal.lambda))
                .map(|(&p, (&a, &l))| l * p * a)
                .sum();
            let residual = window.get(coord) - model;
            out.iter_mut().zip(scratch.iter()).for_each(|(o, &p)| *o += residual * p);
        }
    }
    Ok(())
}

/// One fused sample pass of the 3-mode sampled-residual kernel:
/// `scratch[k] = a[k]·b[k]` (the Khatri–Rao row) while accumulating the
/// model value `Σ_k λ[k]·scratch[k]·f[k]` in four independent lanes —
/// one register-blocked sweep instead of a product pass plus a dot pass.
/// The lane sums reduce as `((m0+m1)+(m2+m3))+tail` (≤ 1e-12 relative
/// reassociation versus the sequential sum).
#[inline]
fn fused_model_pass(
    a: &[f64],
    b: &[f64],
    frow: &[f64],
    lambda: &[f64],
    scratch: &mut [f64],
) -> f64 {
    let n = scratch.len();
    debug_assert!(a.len() == n && b.len() == n && frow.len() == n && lambda.len() >= n);
    let mut s = scratch.chunks_exact_mut(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let mut fc = frow.chunks_exact(4);
    let mut lc = lambda[..n].chunks_exact(4);
    let (mut m0, mut m1, mut m2, mut m3) = (0.0f64, 0.0, 0.0, 0.0);
    for ((((s, x), y), f), l) in (&mut s).zip(&mut ac).zip(&mut bc).zip(&mut fc).zip(&mut lc) {
        s[0] = x[0] * y[0];
        s[1] = x[1] * y[1];
        s[2] = x[2] * y[2];
        s[3] = x[3] * y[3];
        m0 += l[0] * s[0] * f[0];
        m1 += l[1] * s[1] * f[1];
        m2 += l[2] * s[2] * f[2];
        m3 += l[3] * s[3] * f[3];
    }
    let mut tail = 0.0;
    for ((((s, &x), &y), &f), &l) in s
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
        .zip(fc.remainder())
        .zip(lc.remainder())
    {
        *s = x * y;
        tail += l * *s * f;
    }
    ((m0 + m1) + (m2 + m3)) + tail
}

/// Dense-oracle MTTKRP: materializes `X(m)` and the full Khatri–Rao
/// product and multiplies them. Small shapes only; used to pin the sparse
/// kernels in tests.
pub fn mttkrp_dense_oracle(x: &sns_tensor::DenseTensor, factors: &[Mat], mode: usize) -> Mat {
    use sns_linalg::ops::{khatri_rao_all, matmul};
    use sns_tensor::matricize::kr_ordering;
    let ordering = kr_ordering(factors.len(), mode);
    let parts: Vec<&Mat> = ordering.iter().map(|&n| &factors[n]).collect();
    let k = khatri_rao_all(&parts).expect("rank-consistent factors");
    matmul(&x.matricize(mode), &k).expect("shape-consistent MTTKRP")
}

/// Inner product `⟨X, X̃⟩ = Σ_{J non-zero} x_J · x̃_J`. `O(|X|·M·R)`.
pub fn inner_with_kruskal(x: &SparseTensor, k: &KruskalTensor) -> f64 {
    x.iter().map(|(c, v)| v * k.eval(c)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sns_tensor::{DenseTensor, Shape};

    fn random_sparse(rng: &mut StdRng, dims: &[usize], nnz: usize) -> SparseTensor {
        let mut x = SparseTensor::new(Shape::new(dims));
        for _ in 0..nnz {
            let coord: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
            x.add(&Coord::new(&coord), rng.gen_range(1..5) as f64);
        }
        x
    }

    fn random_factors(rng: &mut StdRng, dims: &[usize], rank: usize) -> Vec<Mat> {
        dims.iter().map(|&n| Mat::random(rng, n, rank, 1.0)).collect()
    }

    #[test]
    fn khatri_rao_row_products() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = random_factors(&mut rng, &[3, 4, 2], 5);
        let c = Coord::new(&[2, 3, 1]);
        let mut out = vec![0.0; 5];
        khatri_rao_row(&f, &c, 1, &mut out);
        for k in 0..5 {
            let expect = f[0][(2, k)] * f[2][(1, k)];
            assert!((out[k] - expect).abs() < 1e-14);
        }
        // skip = every mode — result excludes exactly that factor.
        khatri_rao_row(&f, &c, 0, &mut out);
        for k in 0..5 {
            let expect = f[1][(3, k)] * f[2][(1, k)];
            assert!((out[k] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn sparse_mttkrp_matches_dense_oracle_all_modes() {
        let mut rng = StdRng::seed_from_u64(2);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 25);
        let f = random_factors(&mut rng, &dims, 3);
        let dense = DenseTensor::from_sparse(&x);
        for mode in 0..3 {
            let fast = mttkrp_full(&x, &f, mode);
            let oracle = mttkrp_dense_oracle(&dense, &f, mode);
            assert_eq!(fast.shape(), oracle.shape());
            for i in 0..fast.rows() {
                for j in 0..fast.cols() {
                    assert!(
                        (fast[(i, j)] - oracle[(i, j)]).abs() < 1e-9,
                        "mode {mode} ({i},{j}): {} vs {}",
                        fast[(i, j)],
                        oracle[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn mttkrp_4mode_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(3);
        let dims = [3usize, 2, 4, 3];
        let x = random_sparse(&mut rng, &dims, 20);
        let f = random_factors(&mut rng, &dims, 2);
        let dense = DenseTensor::from_sparse(&x);
        for mode in 0..4 {
            let fast = mttkrp_full(&x, &f, mode);
            let oracle = mttkrp_dense_oracle(&dense, &f, mode);
            for i in 0..fast.rows() {
                for j in 0..fast.cols() {
                    assert!((fast[(i, j)] - oracle[(i, j)]).abs() < 1e-9, "mode {mode}");
                }
            }
        }
    }

    #[test]
    fn row_mttkrp_matches_full() {
        let mut rng = StdRng::seed_from_u64(4);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 30);
        let f = random_factors(&mut rng, &dims, 4);
        let mut out = vec![0.0; 4];
        let mut scratch = vec![0.0; 4];
        for (mode, &dim) in dims.iter().enumerate() {
            let full = mttkrp_full(&x, &f, mode);
            for i in 0..dim as u32 {
                mttkrp_row(&x, &f, mode, i, &mut out, &mut scratch).unwrap();
                for k in 0..4 {
                    assert!((out[k] - full[(i as usize, k)]).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn row_mttkrp_4mode_matches_full() {
        // The non-3-mode (scratch) path of mttkrp_row.
        let mut rng = StdRng::seed_from_u64(14);
        let dims = [3usize, 2, 4, 3];
        let x = random_sparse(&mut rng, &dims, 25);
        let f = random_factors(&mut rng, &dims, 3);
        let mut out = vec![0.0; 3];
        let mut scratch = vec![0.0; 3];
        for (mode, &dim) in dims.iter().enumerate() {
            let full = mttkrp_full(&x, &f, mode);
            for i in 0..dim as u32 {
                mttkrp_row(&x, &f, mode, i, &mut out, &mut scratch).unwrap();
                for k in 0..3 {
                    assert!((out[k] - full[(i as usize, k)]).abs() < 1e-10, "mode {mode} row {i}");
                }
            }
        }
    }

    #[test]
    fn interleaved_matches_row_major_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        let dims = [6usize, 5, 7];
        let x = random_sparse(&mut rng, &dims, 60);
        let f = random_factors(&mut rng, &dims, 5);
        let mirror = FactorMirror::new(&f);
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 5];
        let mut scratch = vec![0.0; 5];
        for (mode, &dim) in dims.iter().enumerate() {
            for i in 0..dim as u32 {
                mttkrp_row(&x, &f, mode, i, &mut a, &mut scratch).unwrap();
                mttkrp_row_interleaved(&x, &mirror, mode, i, &mut b).unwrap();
                for k in 0..5 {
                    assert_eq!(a[k].to_bits(), b[k].to_bits(), "mode {mode} row {i} k {k}");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(13);
        let dims = [5usize, 4, 6];
        let x = random_sparse(&mut rng, &dims, 80);
        let f = random_factors(&mut rng, &dims, 11);
        let mirror = FactorMirror::new(&f);
        let mut serial = vec![0.0; 11];
        let mut par = vec![0.0; 11];
        for threads in [2, 3, 4, 7, 11, 16] {
            for (mode, &dim) in dims.iter().enumerate() {
                for i in 0..dim as u32 {
                    mttkrp_row_interleaved(&x, &mirror, mode, i, &mut serial).unwrap();
                    mttkrp_row_par(&x, &mirror, mode, i, &mut par, threads).unwrap();
                    for k in 0..11 {
                        assert_eq!(
                            serial[k].to_bits(),
                            par[k].to_bits(),
                            "threads {threads} mode {mode} row {i} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_shape_errors_are_typed_not_panics() {
        let mut rng = StdRng::seed_from_u64(15);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 10);
        let f = random_factors(&mut rng, &dims, 4);
        let mut short = vec![0.0; 3];
        let mut ok = vec![0.0; 4];
        assert!(matches!(
            mttkrp_row(&x, &f, 0, 0, &mut short, &mut ok),
            Err(SnsError::KernelShape { what: "mttkrp_row(out)", expected: 4, got: 3 })
        ));
        assert!(matches!(
            mttkrp_row(&x, &f, 0, 0, &mut ok, &mut short),
            Err(SnsError::KernelShape { what: "mttkrp_row(scratch)", .. })
        ));
        let mirror = FactorMirror::new(&f);
        assert!(matches!(
            mttkrp_row_interleaved(&x, &mirror, 0, 0, &mut short),
            Err(SnsError::KernelShape { .. })
        ));
        let entries: Vec<(Coord, f64)> = vec![];
        assert!(mttkrp_row_from_entries(&entries, &f, 0, &mut short, &mut ok).is_err());
        let k = KruskalTensor::random(&mut rng, &dims, 4, 1.0);
        assert!(mttkrp_row_sampled_residuals(&x, &k, 0, &[], &mut short, &mut ok).is_err());
        let mut scratch = vec![0.0; 4]; // needs (M+2)·R = 20
        let mut rows = vec![0.0; 12];
        assert!(matches!(
            khatri_rao_rows_all(&f, &Coord::new(&[0, 0, 0]), &mut scratch, &mut rows),
            Err(SnsError::KernelShape { what: "khatri_rao_rows_all(scratch)", .. })
        ));
    }

    #[test]
    fn row_from_entries_matches_row() {
        let mut rng = StdRng::seed_from_u64(5);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 30);
        let f = random_factors(&mut rng, &dims, 4);
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        let mut scratch = vec![0.0; 4];
        let entries: Vec<(Coord, f64)> = x.fiber_entries(0, 2).map(|(c, v)| (*c, v)).collect();
        mttkrp_row(&x, &f, 0, 2, &mut a, &mut scratch).unwrap();
        mttkrp_row_from_entries(&entries, &f, 0, &mut b, &mut scratch).unwrap();
        for k in 0..4 {
            assert!((a[k] - b[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn inner_with_kruskal_matches_dense() {
        let mut rng = StdRng::seed_from_u64(6);
        let dims = [3usize, 4, 2];
        let x = random_sparse(&mut rng, &dims, 15);
        let k = KruskalTensor::random(&mut rng, &dims, 3, 1.0);
        let dense_x = DenseTensor::from_sparse(&x);
        let dense_k = k.reconstruct_dense();
        let brute: f64 =
            Shape::new(&dims).iter_coords().map(|c| dense_x.get(&c) * dense_k.get(&c)).sum();
        assert!((inner_with_kruskal(&x, &k) - brute).abs() < 1e-9);
    }

    #[test]
    fn prefix_suffix_rows_match_per_mode_kernel() {
        let mut rng = StdRng::seed_from_u64(8);
        for dims in [vec![4usize, 3, 5], vec![3, 2, 4, 3], vec![2, 5]] {
            let m = dims.len();
            let f = random_factors(&mut rng, &dims, 4);
            let coord: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
            let c = Coord::new(&coord);
            let mut scratch = vec![0.0; (m + 2) * 4];
            let mut rows = vec![0.0; m * 4];
            khatri_rao_rows_all(&f, &c, &mut scratch, &mut rows).unwrap();
            let mut reference = vec![0.0; 4];
            for skip in 0..m {
                khatri_rao_row(&f, &c, skip, &mut reference);
                for k in 0..4 {
                    let got = rows[skip * 4 + k];
                    assert!(
                        (got - reference[k]).abs() <= 1e-12 * (1.0 + reference[k].abs()),
                        "order {m} skip {skip} k {k}: {got} vs {}",
                        reference[k]
                    );
                }
            }
        }
    }

    #[test]
    fn mttkrp_full_all_matches_per_mode_full() {
        let mut rng = StdRng::seed_from_u64(9);
        let dims = [3usize, 4, 2, 3];
        let x = random_sparse(&mut rng, &dims, 25);
        let f = random_factors(&mut rng, &dims, 3);
        let all = mttkrp_full_all(&x, &f);
        for (mode, got) in all.iter().enumerate() {
            let one = mttkrp_full(&x, &f, mode);
            assert_eq!(got.shape(), one.shape());
            for i in 0..one.rows() {
                for j in 0..one.cols() {
                    assert!(
                        (got[(i, j)] - one[(i, j)]).abs() <= 1e-12 * (1.0 + one[(i, j)].abs()),
                        "mode {mode} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_sampled_residuals_match_eval_route() {
        let mut rng = StdRng::seed_from_u64(10);
        let dims = [4usize, 3, 5];
        let x = random_sparse(&mut rng, &dims, 30);
        let k = KruskalTensor::random(&mut rng, &dims, 4, 1.0);
        let mode = 1;
        let samples: Vec<Coord> = (0..10)
            .map(|_| {
                let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d as u32)).collect();
                Coord::new(&c)
            })
            .collect();
        let mut fused = vec![0.0; 4];
        let mut scratch = vec![0.0; 4];
        mttkrp_row_sampled_residuals(&x, &k, mode, &samples, &mut fused, &mut scratch).unwrap();
        // Unfused reference: residuals via eval, then the entry-list MTTKRP.
        let entries: Vec<(Coord, f64)> =
            samples.iter().map(|c| (*c, x.get(c) - k.eval(c))).collect();
        let mut reference = vec![0.0; 4];
        mttkrp_row_from_entries(&entries, &k.factors, mode, &mut reference, &mut scratch).unwrap();
        for j in 0..4 {
            assert!(
                (fused[j] - reference[j]).abs() <= 1e-12 * (1.0 + reference[j].abs()),
                "{} vs {}",
                fused[j],
                reference[j]
            );
        }
    }

    #[test]
    fn empty_tensor_gives_zero_mttkrp() {
        let mut rng = StdRng::seed_from_u64(7);
        let dims = [3usize, 3, 3];
        let x = SparseTensor::new(Shape::new(&dims));
        let f = random_factors(&mut rng, &dims, 2);
        let u = mttkrp_full(&x, &f, 0);
        assert_eq!(u.frob_norm(), 0.0);
        // Empty fibers also zero the row kernels.
        let mirror = FactorMirror::new(&f);
        let mut out = vec![9.0; 2];
        mttkrp_row_interleaved(&x, &mirror, 0, 1, &mut out).unwrap();
        assert_eq!(out, vec![0.0; 2]);
    }
}
