//! Runtime-dispatched inner loop for the lane-batched (SpMM) round loop.
//!
//! A round of a lane batch accumulates `acc[k] += x[u·vl+k] * inv_deg[u·vl+k]`
//! over the lanes a per-run bitmask names. Walking that mask bit by bit is
//! a data-dependent branch per run and wastes the regular `vl`-wide stride
//! the SpMM layout was built for, so this module provides the arithmetic
//! over whole strides instead: [`SimdDispatch::accumulate_row`] is one
//! row's whole pull walk, every run applied to the full stride with the
//! lanes outside `run_mask & live` turned into `+0.0` terms by a bitwise
//! AND, no branch on the mask at all. Window lanes and (window × query)
//! lanes run it alike (`spmm::batch_iterate` is their one loop).
//! [`SimdDispatch::finalize_row`] is the step after it on a row whose every
//! lane is live and active: the affine update `val = c·tele + scale·acc`,
//! the residual fold, the mass and the store, over the whole stride at
//! once instead of a call per cell.
//!
//! It comes in interchangeable implementations:
//!
//! - **avx2**: 4-wide `std::arch` double ops behind a runtime
//!   `is_x86_feature_detected!("avx2")` check;
//! - **scalar**: a portable loop over the stride (auto-vectorizes on most
//!   targets);
//! - **bitwalk**: no stride arithmetic at all — [`SimdDispatch::dense`]
//!   reports `false` and the kernels keep the plain mask walk for every
//!   run and the per-cell finalize for every row. This is the reference
//!   the parity tests compare against.
//!
//! # Bit-identity
//!
//! Every implementation performs, per lane, the same multiplies and adds
//! in the same order as the scalar mask walk. The AVX2 paths deliberately
//! use `_mm256_mul_pd` + `_mm256_add_pd` rather than a fused
//! multiply-add: FMA rounds once where `acc += x * inv` rounds twice, and
//! Rust never contracts separate `f64` ops on its own, so fusing would
//! change low-order bits. Lanes are independent vector slots (no
//! horizontal operations), so per-lane rounding matches the scalar loop
//! exactly and ranks are bit-identical across all three implementations.
//!
//! The row walk adds one thing to that: a lane a run does *not* select
//! still takes part in the add. Its `x` is ANDed to `+0.0` first — which
//! also clears a NaN or an infinity sitting in that slot — and
//! `(+0.0) · inv_deg` is `+0.0` because the kernels keep `inv_deg` finite
//! and non-negative (also under `FaultKind::CorruptReciprocal`, a finite
//! thousandfold). That holds in every cell, not only the ones the batch
//! wrote: converged-lane compaction repacks only the rows some lane of the
//! batch holds, so after a repack a row outside the batch holds stale
//! bytes of the wider layout, and a batch's setup writes only its lanes'
//! active cells, leaving every other cell with what earlier batches put
//! there. They are all copies of `inv_deg` entries, so finite and
//! non-negative too, and a run that reaches such a cell selects no lane
//! there. The accumulator is a sum of non-negative products from `+0.0`,
//! so it is non-negative or already NaN, and `acc + (+0.0)` is `acc` bit
//! for bit in both cases (only `-0.0`, which cannot occur, would change).
//! So a masked-off lane keeps its value and a selected lane sees the
//! walk's exact add sequence.
//!
//! The finalize is the per-cell update lane for lane: the same multiplies
//! and add in the same order (`c·tele` and `scale·acc`, then their sum;
//! the window rule, whose teleport is all in `c`, reads a row of ones, and
//! `c·1` is `c`), the same `|val − old|` (a subtract, then the sign bit
//! cleared), the same fold into the lane's residual and the same add into
//! its mass. Lanes do not meet: nothing is reduced across the vector, and
//! each lane's residual and mass are its own running sums over the task's
//! rows in row order, whichever of the two finalizes a row took. The L∞
//! fold of a Katz lane is two compares and two blends in AVX2 — the larger
//! of `so_far` and `d` where both are numbers, the canonical `f64::NAN`
//! where either is not, as in `fold_residual` — computed in every group
//! that holds such a lane and blended in only in its slots; the other
//! slots keep the L1 sum.
//!
//! # Selection
//!
//! [`SimdDispatch::select`] resolves a [`SimdPolicy`]: an explicit
//! `Scalar`/`BitWalk` always wins; `Auto` defers to the `TEMPOPR_SIMD`
//! environment variable (`scalar`, `bitwalk`, or `auto`; read once per
//! process) and otherwise picks the best detected ISA. The `Avx2` variant
//! is only constructible after detection succeeds, which is what makes the
//! `unsafe` call sites below sound — and why this file is the only
//! place in the crate allowed to contain `unsafe` at all (CI greps for
//! it).

#![allow(unsafe_code)]

use std::sync::OnceLock;
use tempopr_graph::VertexId;

/// How the batched kernel's inner loop should be implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Detect at runtime: the `TEMPOPR_SIMD` environment variable if set,
    /// otherwise the widest ISA the CPU supports (AVX2 on x86-64, the
    /// portable unrolled loop elsewhere).
    #[default]
    Auto,
    /// Force the portable scalar path (still works on whole strides).
    Scalar,
    /// No stride arithmetic: walk every run's lane bitmask — the
    /// pre-vectorization kernel, kept as the parity and ablation baseline.
    BitWalk,
}

/// The resolved inner-loop implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    BitWalk,
    Scalar,
    Avx2,
}

/// A resolved, ready-to-call inner loop. `Copy` so kernels can
/// capture it in parallel closures for free; the AVX2 variant can only be
/// obtained through [`SimdDispatch::select`] after feature detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdDispatch {
    kind: Kind,
}

impl SimdDispatch {
    /// Resolves `policy` against the environment override and the CPU.
    pub fn select(policy: SimdPolicy) -> SimdDispatch {
        let effective = match policy {
            SimdPolicy::Auto => env_policy(),
            explicit => explicit,
        };
        let kind = match effective {
            SimdPolicy::Scalar => Kind::Scalar,
            SimdPolicy::BitWalk => Kind::BitWalk,
            SimdPolicy::Auto => detect(),
        };
        SimdDispatch { kind }
    }

    /// The selected implementation, for telemetry: `"avx2"`, `"scalar"`,
    /// or `"bitwalk"`.
    pub fn isa(&self) -> &'static str {
        match self.kind {
            Kind::BitWalk => "bitwalk",
            Kind::Scalar => "scalar",
            Kind::Avx2 => "avx2",
        }
    }

    /// Whether the kernels may work on whole strides (false only for
    /// [`SimdPolicy::BitWalk`], which pins the mask walk).
    pub fn dense(&self) -> bool {
        self.kind != Kind::BitWalk
    }

    /// One row's whole pull walk without a branch on the masks: for every
    /// run `i`, `acc[k] += sel(x[u·vl+k]) * inv_deg[u·vl+k]` over the full
    /// stride `k in 0..vl`, where `u = run_nbr[i]`, `vl = acc.len()` and
    /// `sel` keeps `x` in the lanes of `run_mask[i] & live` and replaces it
    /// by `+0.0` everywhere else. Under the kernels' invariants (`inv_deg`
    /// finite and non-negative, `acc` a non-negative sum or NaN) every lane
    /// ends with the bits the mask walk would give it (see the module
    /// docs).
    ///
    /// `x` and `inv_deg` are the interleaved `n × vl` matrices; a neighbour
    /// id whose stride does not lie inside both panics, like the indexing
    /// it replaces.
    #[inline]
    pub fn accumulate_row(
        &self,
        acc: &mut [f64],
        run_nbr: &[VertexId],
        run_mask: &[u64],
        live: u64,
        x: &[f64],
        inv_deg: &[f64],
    ) {
        assert!(acc.len() <= 64, "a lane mask holds 64 lanes");
        assert_eq!(run_nbr.len(), run_mask.len(), "one mask per run");
        match self.kind {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx2` is only ever constructed by `detect()`
            // after `is_x86_feature_detected!("avx2")` returned true on
            // this CPU.
            Kind::Avx2 => unsafe { accumulate_row_avx2(acc, run_nbr, run_mask, live, x, inv_deg) },
            _ => accumulate_row_scalar(acc, run_nbr, run_mask, live, x, inv_deg),
        }
    }

    /// One row's finalize over the whole stride, for a row whose every
    /// lane is live and active: per lane `k`,
    /// `val = coef[k]·tele[k] + scale[k]·acc[k]`, `|val − old[k]|` folded
    /// into `diff[k]` by `fold_residual` on the norm bit `k` of `linf`
    /// selects, `val` added to `mass[k]` and stored in `row[k]`. Every lane
    /// ends with the bits the per-cell finalize gives it (see the module
    /// docs).
    ///
    /// All slices are one stride long, `row.len()` lanes.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn finalize_row(
        &self,
        row: &mut [f64],
        old: &[f64],
        acc: &[f64],
        coef: &[f64],
        tele: &[f64],
        scale: &[f64],
        linf: u64,
        diff: &mut [f64],
        mass: &mut [f64],
    ) {
        let vl = row.len();
        assert!(vl <= 64, "a lane mask holds 64 lanes");
        let lens = [old, acc, coef, tele, scale, diff, mass].map(|s| s.len());
        assert!(lens.iter().all(|&l| l == vl), "one stride per operand");
        match self.kind {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx2` is only ever constructed by `detect()`
            // after `is_x86_feature_detected!("avx2")` returned true on
            // this CPU; every slice was just checked to be `vl` long.
            Kind::Avx2 => unsafe {
                finalize_row_avx2(row, old, acc, coef, tele, scale, linf, diff, mass)
            },
            _ => finalize_lanes(0, row, old, acc, coef, tele, scale, linf, diff, mass),
        }
    }
}

/// Folds `d` — one cell's `|new − old|`, or another row task's partial
/// residual — into a lane's residual `so_far`: the sum (the L1 norm), or
/// with `linf` the maximum (the L∞ norm), which must not let `f64::max`
/// swallow a NaN iterate (the health guard detects non-finite lanes
/// through the residual). `+0.0` is neutral under both.
#[inline(always)]
pub(crate) fn fold_residual(linf: bool, so_far: f64, d: f64) -> f64 {
    if !linf {
        so_far + d
    } else if so_far.is_nan() || d.is_nan() {
        f64::NAN
    } else if d > so_far {
        d
    } else {
        so_far
    }
}

/// The widest implementation this CPU supports.
fn detect() -> Kind {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Kind::Avx2;
    }
    Kind::Scalar
}

/// The `TEMPOPR_SIMD` override, read once per process. Unset, empty,
/// `auto`, or unrecognized values all mean "detect".
fn env_policy() -> SimdPolicy {
    static ENV: OnceLock<SimdPolicy> = OnceLock::new();
    *ENV.get_or_init(|| parse_env(std::env::var("TEMPOPR_SIMD").ok().as_deref()))
}

/// Parses a `TEMPOPR_SIMD` value (split out from the process environment
/// for testability).
fn parse_env(value: Option<&str>) -> SimdPolicy {
    match value.map(|s| s.trim().to_ascii_lowercase()).as_deref() {
        Some("scalar") => SimdPolicy::Scalar,
        Some("bitwalk") => SimdPolicy::BitWalk,
        _ => SimdPolicy::Auto,
    }
}

/// All ones when bit `k` of `sel` is set, zero otherwise: the AND mask
/// that keeps or clears lane `k`'s `x`.
#[inline(always)]
fn lane_keep(sel: u64, k: usize) -> u64 {
    0u64.wrapping_sub((sel >> k) & 1)
}

/// The strides of neighbour `u` in the two interleaved matrices. The
/// slicing is the bounds check every implementation of the row walk makes
/// before it touches a neighbour: `u·vl + vl` against both lengths.
#[inline(always)]
fn strides<'a>(u: VertexId, vl: usize, x: &'a [f64], inv_deg: &'a [f64]) -> (&'a [f64], &'a [f64]) {
    let base = u as usize * vl;
    (&x[base..base + vl], &inv_deg[base..base + vl])
}

/// Portable row walk: the whole stride per run, each lane's `x` ANDed
/// with its keep mask.
fn accumulate_row_scalar(
    acc: &mut [f64],
    run_nbr: &[VertexId],
    run_mask: &[u64],
    live: u64,
    x: &[f64],
    inv_deg: &[f64],
) {
    let vl = acc.len();
    for (&u, &rm) in run_nbr.iter().zip(run_mask) {
        let (xs, is) = strides(u, vl, x, inv_deg);
        let sel = rm & live;
        for (k, a) in acc.iter_mut().enumerate() {
            *a += f64::from_bits(xs[k].to_bits() & lane_keep(sel, k)) * is[k];
        }
    }
}

/// The portable finalize of lanes `from..row.len()` (see
/// [`SimdDispatch::finalize_row`]): the whole stride, or the lanes the
/// AVX2 groups leave over.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn finalize_lanes(
    from: usize,
    row: &mut [f64],
    old: &[f64],
    acc: &[f64],
    coef: &[f64],
    tele: &[f64],
    scale: &[f64],
    linf: u64,
    diff: &mut [f64],
    mass: &mut [f64],
) {
    for k in from..row.len() {
        let val = coef[k] * tele[k] + scale[k] * acc[k];
        diff[k] = fold_residual((linf >> k) & 1 == 1, diff[k], (val - old[k]).abs());
        mass[k] += val;
        row[k] = val;
    }
}

/// AVX2 row walk. The common strides (4, 8 and 16 lanes) keep the row's
/// accumulators in registers across its runs; any other stride goes
/// through memory four lanes at a time with a scalar tail.
///
/// # Safety
/// The caller must have verified AVX2 support on the running CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_row_avx2(
    acc: &mut [f64],
    run_nbr: &[VertexId],
    run_mask: &[u64],
    live: u64,
    x: &[f64],
    inv_deg: &[f64],
) {
    // SAFETY: AVX2 is enabled in this function, so it is in the callees;
    // each arm passes an `acc` of exactly the `4 * G` lanes it names.
    unsafe {
        match acc.len() {
            4 => row_avx2_in_registers::<1>(acc, run_nbr, run_mask, live, x, inv_deg),
            8 => row_avx2_in_registers::<2>(acc, run_nbr, run_mask, live, x, inv_deg),
            16 => row_avx2_in_registers::<4>(acc, run_nbr, run_mask, live, x, inv_deg),
            _ => row_avx2_any_stride(acc, run_nbr, run_mask, live, x, inv_deg),
        }
    }
}

/// The four lanes of group `g` selected by `sel`, as an all-ones/all-zeros
/// mask per 64-bit slot: bit `4g + j` of `sel` expands into slot `j`.
///
/// # Safety
/// The caller must have verified AVX2 support on the running CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn group_keep(sel: u64, g: usize) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::{
        _mm256_and_si256, _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_set1_epi64x,
        _mm256_set_epi64x,
    };
    let bits = _mm256_set_epi64x(8, 4, 2, 1);
    let nibble = _mm256_set1_epi64x((sel >> (4 * g)) as i64);
    _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(nibble, bits), bits))
}

/// The row walk for a stride of exactly `4 * G` lanes, accumulators held
/// in `G` registers from the first run to the last.
///
/// # Safety
/// The caller must have verified AVX2 support on the running CPU.
/// (`acc.len() == 4 * G` is asserted, not assumed.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_avx2_in_registers<const G: usize>(
    acc: &mut [f64],
    run_nbr: &[VertexId],
    run_mask: &[u64],
    live: u64,
    x: &[f64],
    inv_deg: &[f64],
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_and_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    let vl = 4 * G;
    assert_eq!(acc.len(), vl);
    let mut sums = [_mm256_setzero_pd(); G];
    for (g, s) in sums.iter_mut().enumerate() {
        // SAFETY: `acc.len() == 4 * G` was asserted, so `4 * g + 4` lies
        // inside it.
        *s = unsafe { _mm256_loadu_pd(acc.as_ptr().add(4 * g)) };
    }
    for (&u, &rm) in run_nbr.iter().zip(run_mask) {
        let (xs, is) = strides(u, vl, x, inv_deg);
        let sel = rm & live;
        for (g, s) in sums.iter_mut().enumerate() {
            // SAFETY: `strides` returned two slices of `vl = 4 * G`
            // doubles (its slicing is the bounds check), so both 4-wide
            // unaligned loads at `4 * g` stay inside them.
            let (xv, iv) = unsafe {
                (
                    _mm256_loadu_pd(xs.as_ptr().add(4 * g)),
                    _mm256_loadu_pd(is.as_ptr().add(4 * g)),
                )
            };
            // SAFETY: AVX2 is enabled in this function.
            let keep = unsafe { group_keep(sel, g) };
            // Separate multiply and add — NOT fmadd — so each lane rounds
            // exactly like the scalar `acc[k] += x[k] * inv[k]`.
            *s = _mm256_add_pd(*s, _mm256_mul_pd(_mm256_and_pd(xv, keep), iv));
        }
    }
    for (g, s) in sums.iter().enumerate() {
        // SAFETY: as for the loads above.
        unsafe { _mm256_storeu_pd(acc.as_mut_ptr().add(4 * g), *s) };
    }
}

/// The row walk for any stride up to 64 lanes: full groups of four through
/// AVX2 with the accumulators in memory, the `vl % 4` lanes left over as
/// in [`accumulate_row_scalar`].
///
/// # Safety
/// The caller must have verified AVX2 support on the running CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_avx2_any_stride(
    acc: &mut [f64],
    run_nbr: &[VertexId],
    run_mask: &[u64],
    live: u64,
    x: &[f64],
    inv_deg: &[f64],
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_and_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_storeu_pd,
    };
    let vl = acc.len();
    let groups = vl / 4;
    for (&u, &rm) in run_nbr.iter().zip(run_mask) {
        let (xs, is) = strides(u, vl, x, inv_deg);
        let sel = rm & live;
        for g in 0..groups {
            // SAFETY: `g < vl / 4`, so `4 * g + 4 <= vl`, the length of
            // `acc` and of the two slices `strides` bounds-checked; AVX2
            // is enabled in this function for `group_keep`.
            unsafe {
                let xv = _mm256_loadu_pd(xs.as_ptr().add(4 * g));
                let iv = _mm256_loadu_pd(is.as_ptr().add(4 * g));
                let av = _mm256_loadu_pd(acc.as_ptr().add(4 * g));
                let sum =
                    _mm256_add_pd(av, _mm256_mul_pd(_mm256_and_pd(xv, group_keep(sel, g)), iv));
                _mm256_storeu_pd(acc.as_mut_ptr().add(4 * g), sum);
            }
        }
        for k in 4 * groups..vl {
            acc[k] += f64::from_bits(xs[k].to_bits() & lane_keep(sel, k)) * is[k];
        }
    }
}

/// AVX2 finalize: four lanes a group, the `vl % 4` lanes left over as in
/// [`finalize_lanes`]. The L∞ fold is computed only in groups that hold a
/// `linf` lane and blended in there, lane by lane.
///
/// # Safety
/// The caller must have verified AVX2 support on the running CPU, and
/// every slice must be `row.len()` long.
#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn finalize_row_avx2(
    row: &mut [f64],
    old: &[f64],
    acc: &[f64],
    coef: &[f64],
    tele: &[f64],
    scale: &[f64],
    linf: u64,
    diff: &mut [f64],
    mass: &mut [f64],
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_andnot_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd,
        _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _CMP_GT_OQ, _CMP_UNORD_Q,
    };
    let groups = row.len() / 4;
    let sign = _mm256_set1_pd(-0.0);
    let nan = _mm256_set1_pd(f64::NAN);
    for g in 0..groups {
        let o = 4 * g;
        // SAFETY: `g < row.len() / 4`, so `o + 4 <= row.len()`, the length
        // of every slice (the caller's contract); AVX2 is enabled in this
        // function for `group_keep`.
        unsafe {
            let t = _mm256_mul_pd(
                _mm256_loadu_pd(coef.as_ptr().add(o)),
                _mm256_loadu_pd(tele.as_ptr().add(o)),
            );
            let pulled = _mm256_mul_pd(
                _mm256_loadu_pd(scale.as_ptr().add(o)),
                _mm256_loadu_pd(acc.as_ptr().add(o)),
            );
            // Separate multiplies and add — NOT fmadd — as in the row walk.
            let val = _mm256_add_pd(t, pulled);
            let d = _mm256_andnot_pd(
                sign,
                _mm256_sub_pd(val, _mm256_loadu_pd(old.as_ptr().add(o))),
            );
            let so_far = _mm256_loadu_pd(diff.as_ptr().add(o));
            let mut folded = _mm256_add_pd(so_far, d);
            if (linf >> o) & 0xf != 0 {
                let larger = _mm256_blendv_pd(so_far, d, _mm256_cmp_pd::<_CMP_GT_OQ>(d, so_far));
                let max = _mm256_blendv_pd(larger, nan, _mm256_cmp_pd::<_CMP_UNORD_Q>(so_far, d));
                folded = _mm256_blendv_pd(folded, max, group_keep(linf, g));
            }
            _mm256_storeu_pd(diff.as_mut_ptr().add(o), folded);
            let m = _mm256_loadu_pd(mass.as_ptr().add(o));
            _mm256_storeu_pd(mass.as_mut_ptr().add(o), _mm256_add_pd(m, val));
            _mm256_storeu_pd(row.as_mut_ptr().add(o), val);
        }
    }
    finalize_lanes(
        4 * groups,
        row,
        old,
        acc,
        coef,
        tele,
        scale,
        linf,
        diff,
        mass,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::lane_mask_all;

    /// Deterministic, ugly (non-round) doubles so rounding differences
    /// would actually show.
    fn noisy(len: usize, salt: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15 ^ salt);
                // Map to (0, 1) with a full mantissa's worth of entropy.
                (h >> 11) as f64 / (1u64 << 53) as f64 + 1e-9
            })
            .collect()
    }

    /// The mask walk the row primitive replaces: only the lanes of
    /// `run_mask & live` are touched.
    fn row_bit_walk(
        acc: &mut [f64],
        run_nbr: &[VertexId],
        run_mask: &[u64],
        live: u64,
        x: &[f64],
        inv_deg: &[f64],
    ) {
        let vl = acc.len();
        for (&u, &rm) in run_nbr.iter().zip(run_mask) {
            let u = u as usize;
            for k in (0..vl).filter(|&k| (rm & live) >> k & 1 == 1) {
                acc[k] += x[u * vl + k] * inv_deg[u * vl + k];
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// The row walk under every implementation this host can run, checked
    /// against `row_bit_walk` bit for bit.
    fn assert_row_matches_walk(
        run_nbr: &[VertexId],
        run_mask: &[u64],
        live: u64,
        x: &[f64],
        inv_deg: &[f64],
        vl: usize,
        what: &str,
    ) {
        let start = noisy(vl, 77);
        let mut expect = start.clone();
        row_bit_walk(&mut expect, run_nbr, run_mask, live, x, inv_deg);
        let mut portable = start.clone();
        accumulate_row_scalar(&mut portable, run_nbr, run_mask, live, x, inv_deg);
        assert_eq!(bits(&portable), bits(&expect), "portable, vl {vl}, {what}");
        for policy in [SimdPolicy::Auto, SimdPolicy::Scalar, SimdPolicy::BitWalk] {
            let mut got = start.clone();
            SimdDispatch::select(policy)
                .accumulate_row(&mut got, run_nbr, run_mask, live, x, inv_deg);
            assert_eq!(bits(&got), bits(&expect), "{policy:?}, vl {vl}, {what}");
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut got = start.clone();
            // SAFETY: AVX2 support checked on the line above.
            unsafe { accumulate_row_avx2(&mut got, run_nbr, run_mask, live, x, inv_deg) };
            assert_eq!(bits(&got), bits(&expect), "avx2, vl {vl}, {what}");
        }
    }

    #[test]
    fn row_walk_matches_the_bit_walk_for_every_stride() {
        #[cfg(target_arch = "x86_64")]
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("note: no AVX2 on this CPU, the AVX2 leg of this test is skipped");
        }
        let n = 9usize;
        for vl in 1..=64usize {
            let all = lane_mask_all(vl);
            let x = noisy(n * vl, 5);
            let inv_deg = noisy(n * vl, 6);
            // Twenty runs over the nine neighbours, masks of every shape:
            // random, empty, full and single-bit (the top lane included).
            let run_nbr: Vec<VertexId> = (0..20u32).map(|i| (i * 7 + 3) % n as u32).collect();
            let mut run_mask: Vec<u64> = (0..20u64)
                .map(|i| (i + 1).wrapping_mul(0x9e3779b97f4a7c15) & all)
                .collect();
            run_mask[3] = 0;
            run_mask[4] = all;
            run_mask[5] = 1;
            run_mask[6] = 1 << (vl - 1);
            for (live, what) in [
                (all, "every lane live"),
                (all & 0x5555_5555_5555_5555, "even lanes live"),
                (1 << (vl - 1), "top lane live"),
                (0, "no lane live"),
            ] {
                assert_row_matches_walk(&run_nbr, &run_mask, live, &x, &inv_deg, vl, what);
            }
            // No runs at all: the accumulator comes back untouched.
            assert_row_matches_walk(&[], &[], all, &x, &inv_deg, vl, "empty row");
        }
    }

    #[test]
    fn row_walk_clears_masked_off_slots_and_propagates_selected_nan() {
        for vl in [1usize, 3, 4, 5, 8, 13, 16, 17, 64] {
            let all = lane_mask_all(vl);
            let (n, poisoned) = (4usize, 2usize);
            let mut x = noisy(n * vl, 8);
            let mut inv_deg = noisy(n * vl, 9);
            // Neighbour 2 holds what a converged, restarted or corrupted
            // lane may leave behind, in every lane in turn.
            for k in 0..vl {
                x[poisoned * vl + k] = [f64::NAN, f64::INFINITY, -f64::NAN][k % 3];
                inv_deg[poisoned * vl + k] *= 1000.0;
            }
            let run_nbr: Vec<VertexId> = vec![0, 2, 1, 2, 3];
            // Masked off by the run mask, then by `live`: nothing leaks.
            let mut run_mask = vec![all, 0, all, all, all];
            let live = all;
            assert_row_matches_walk(&run_nbr, &run_mask, live, &x, &inv_deg, vl, "run off");
            let mut acc = vec![0.0; vl];
            SimdDispatch::select(SimdPolicy::Auto).accumulate_row(
                &mut acc,
                &run_nbr[..2],
                &run_mask[..2],
                live,
                &x,
                &inv_deg,
            );
            assert!(acc.iter().all(|a| a.is_finite()), "vl {vl}: {acc:?}");
            if vl > 1 {
                // `live` a strict subset of the masks: the poisoned
                // neighbour is selected only in lanes that are not live.
                run_mask[1] = all & !1;
                run_mask[3] = all & !1;
                assert_row_matches_walk(&run_nbr, &run_mask, 1, &x, &inv_deg, vl, "lane off");
                let mut acc = vec![0.0; vl];
                SimdDispatch::select(SimdPolicy::Auto)
                    .accumulate_row(&mut acc, &run_nbr, &run_mask, 1, &x, &inv_deg);
                assert!(acc.iter().all(|a| a.is_finite()), "vl {vl}: {acc:?}");
                assert!(acc[1..].iter().all(|&a| a == 0.0), "dead lanes stay +0.0");
            }
            // Selected, the NaN must reach the accumulator — in the lanes
            // that select it and in no other.
            let sel = 1u64 << (vl - 1);
            run_mask[1] = sel;
            run_mask[3] = 0;
            x[poisoned * vl + vl - 1] = f64::NAN;
            assert_row_matches_walk(&run_nbr, &run_mask, all, &x, &inv_deg, vl, "nan on");
            let mut acc = vec![0.0; vl];
            SimdDispatch::select(SimdPolicy::Auto)
                .accumulate_row(&mut acc, &run_nbr, &run_mask, all, &x, &inv_deg);
            assert!(acc[vl - 1].is_nan(), "vl {vl}");
            assert!(acc[..vl - 1].iter().all(|a| a.is_finite()), "vl {vl}");
        }
    }

    /// Per-cell finalize of the lanes of `cells`, as the kernels' cell walk
    /// does it, with the L∞ fold spelled out on its own.
    #[allow(clippy::too_many_arguments)]
    fn cell_walk(
        cells: u64,
        row: &mut [f64],
        old: &[f64],
        acc: &[f64],
        coef: &[f64],
        tele: &[f64],
        scale: &[f64],
        linf: u64,
        diff: &mut [f64],
        mass: &mut [f64],
    ) {
        for k in (0..row.len()).filter(|&k| (cells >> k) & 1 == 1) {
            let val = coef[k] * tele[k] + scale[k] * acc[k];
            let d = (val - old[k]).abs();
            diff[k] = if (linf >> k) & 1 == 0 {
                diff[k] + d
            } else if diff[k].is_nan() || d.is_nan() {
                f64::NAN
            } else {
                diff[k].max(d)
            };
            mass[k] += val;
            row[k] = val;
        }
    }

    /// How a row task finalizes the rows whose every lane is a cell.
    #[derive(Debug, Clone, Copy)]
    enum Dense {
        CellWalk,
        Portable,
        Dispatch(SimdDispatch),
    }

    #[test]
    fn finalize_row_matches_the_cell_walk_for_every_stride() {
        // A row task of seven rows, finalized into one pair of per-lane
        // sums two ways: as the kernels do it (the stride finalize on rows
        // whose every lane is a cell, the cell walk on the others) and by
        // the cell walk alone. Rows, residuals and masses must agree bit
        // for bit under every implementation, on a teleport matrix and on
        // the window rule's row of ones, on L1, L∞ and mixed lanes, with
        // NaNs reaching the top lane through `old` and through `acc`.
        let rows = 7usize;
        let mut ways = vec![Dense::Portable];
        for policy in [SimdPolicy::Auto, SimdPolicy::Scalar, SimdPolicy::BitWalk] {
            ways.push(Dense::Dispatch(SimdDispatch::select(policy)));
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            ways.push(Dense::Dispatch(SimdDispatch { kind: Kind::Avx2 }));
        }
        for vl in 1..=64usize {
            let (all, top) = (lane_mask_all(vl), vl - 1);
            let mut old = noisy(rows * vl, 11);
            let mut acc = noisy(rows * vl, 12);
            let (coef, tele, scale) = (noisy(vl, 13), noisy(rows * vl, 14), noisy(vl, 15));
            let ones = vec![1.0; rows * vl];
            // Rows 1 and 4 are sparse: some lanes are no cell of theirs.
            let mut cells = vec![all; rows];
            cells[1] = all & 0x9e37_79b9_7f4a_7c15;
            cells[4] = 1 << top;
            old[2 * vl + top] = f64::NAN;
            acc[5 * vl + top] = f64::NAN;
            for linf in [0, all, all & 0x5555_5555_5555_5555, 1 << top] {
                for tele in [&tele, &ones] {
                    let task = |way: Dense| {
                        let mut out = vec![0.0; rows * vl];
                        let (mut diff, mut mass) = (vec![0.0; vl], vec![0.0; vl]);
                        for (r, &c) in cells.iter().enumerate() {
                            let span = r * vl..(r + 1) * vl;
                            let t = &tele[span.clone()];
                            let (o, a) = (&old[span.clone()], &acc[span.clone()]);
                            let (row, d, m) = (&mut out[span], &mut diff[..], &mut mass[..]);
                            match way {
                                Dense::Dispatch(s) if c == all => {
                                    s.finalize_row(row, o, a, &coef, t, &scale, linf, d, m)
                                }
                                Dense::Portable if c == all => {
                                    finalize_lanes(0, row, o, a, &coef, t, &scale, linf, d, m)
                                }
                                _ => cell_walk(c, row, o, a, &coef, t, &scale, linf, d, m),
                            }
                        }
                        (bits(&out), bits(&diff), bits(&mass))
                    };
                    let expect = task(Dense::CellWalk);
                    for &way in &ways {
                        let what =
                            format!("{way:?}, vl {vl}, linf {linf:#x}, ones {}", tele[0] == 1.0);
                        assert_eq!(task(way), expect, "{what}");
                    }
                    // The NaN reaches the top lane's residual (the canonical
                    // one on the L∞ norm) and no other lane's.
                    let diff: Vec<f64> = expect.1.iter().map(|&b| f64::from_bits(b)).collect();
                    if (linf >> top) & 1 == 1 {
                        assert_eq!(expect.1[top], f64::NAN.to_bits(), "vl {vl}");
                    }
                    assert!(diff[top].is_nan(), "vl {vl}");
                    assert!(diff[..top].iter().all(|d| d.is_finite()), "vl {vl}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_walk_bounds_checks_the_neighbour() {
        // Neighbour 3 of a 3-vertex matrix: the stride check must panic on
        // every implementation rather than read past the slices.
        let vl = 8;
        let (x, inv_deg) = (noisy(3 * vl, 1), noisy(3 * vl, 2));
        let mut acc = vec![0.0; vl];
        SimdDispatch::select(SimdPolicy::Auto).accumulate_row(
            &mut acc,
            &[1, 3],
            &[0xff, 0xff],
            0xff,
            &x,
            &inv_deg,
        );
    }

    #[test]
    fn explicit_policies_bypass_detection() {
        assert_eq!(SimdDispatch::select(SimdPolicy::Scalar).isa(), "scalar");
        assert_eq!(SimdDispatch::select(SimdPolicy::BitWalk).isa(), "bitwalk");
        assert!(SimdDispatch::select(SimdPolicy::Scalar).dense());
        assert!(!SimdDispatch::select(SimdPolicy::BitWalk).dense());
    }

    #[test]
    fn auto_selects_a_dense_capable_kind_or_env_override() {
        let d = SimdDispatch::select(SimdPolicy::Auto);
        // With TEMPOPR_SIMD unset this is avx2/scalar; under the CI
        // fallback job (TEMPOPR_SIMD=scalar) it must be scalar; bitwalk
        // only if the env explicitly asked for it.
        match std::env::var("TEMPOPR_SIMD").ok().as_deref() {
            Some("scalar") => assert_eq!(d.isa(), "scalar"),
            Some("bitwalk") => assert_eq!(d.isa(), "bitwalk"),
            _ => assert!(d.dense(), "auto must enable the dense path"),
        }
    }

    #[test]
    fn env_parsing() {
        assert_eq!(parse_env(None), SimdPolicy::Auto);
        assert_eq!(parse_env(Some("")), SimdPolicy::Auto);
        assert_eq!(parse_env(Some("auto")), SimdPolicy::Auto);
        assert_eq!(parse_env(Some("AUTO")), SimdPolicy::Auto);
        assert_eq!(parse_env(Some("scalar")), SimdPolicy::Scalar);
        assert_eq!(parse_env(Some(" Scalar ")), SimdPolicy::Scalar);
        assert_eq!(parse_env(Some("bitwalk")), SimdPolicy::BitWalk);
        assert_eq!(parse_env(Some("avx512-or-bust")), SimdPolicy::Auto);
    }
}
