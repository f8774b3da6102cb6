//! Lane-parallel kernels for the sketch hot path.
//!
//! The per-update cost of 2-level-sketch maintenance is dominated by the
//! `s` second-level bits of every element in every one of the `r` copies.
//! Each bit is a GF(2)-affine function `hⱼ(x) = parity(aⱼ & x) ⊕ bⱼ`
//! (see [`crate::PairwiseHashBank`]), so a bit costs one AND and one
//! POPCNT: independent 64-bit lanes that vectorize as written.
//!
//! * The grouped accumulate kernels apply a run of updates that share a
//!   counter row. Per function they stream the elements in **element
//!   lanes** and count (or weigh) the odd inner products; `bⱼ` then only
//!   decides which of the pair's two cells gets that mass. Group
//!   remainders switch to **function lanes**: one element against every
//!   function at once.
//! * The first-level polynomial hashes over GF(2⁶¹−1) (`horner_many`)
//!   split each 64-bit operand into 32-bit halves, so every partial
//!   product of a Horner step is a `vpmuludq`-shaped 32×32→64 multiply,
//!   and Mersenne folds (`2⁶¹ ≡ 1`, `2⁶⁴ ≡ 8 mod p`) keep the scalar
//!   path's lazy `< 2⁶²` accumulator invariant without leaving `u64`
//!   lanes.
//!
//! Every kernel is **bit-identical** to its scalar reference (one bit at
//! a time for the affine bits, [`field::mul_add_lazy`] chains for the
//! polynomials): cell updates are exact wrapping integer adds, so only
//! the instruction schedule differs. The tests assert this for every
//! tier the CPU can run.
//!
//! # Backend selection
//!
//! One generic, `#[inline(always)]` kernel is instantiated inside
//! `#[target_feature]` wrappers (AVX-512 with VPOPCNTDQ and 16-lane
//! unrolling, AVX2 with POPCNT and 4), which LLVM auto-vectorizes; a
//! portable instantiation (`LANES = 1`) is the scalar fallback and the
//! only code path on non-x86_64 targets or when the `simd` cargo feature
//! is disabled. The backend is detected once per process and can be
//! pinned to scalar at runtime with `SETSTREAM_FORCE_SCALAR=1` (any value
//! but `0`), which is how the test suite exercises the fallback on
//! SIMD-capable hosts. An AVX-512 CPU without VPOPCNTDQ (Skylake-SP,
//! Cascade Lake) runs every kernel on the AVX2 tier.
//!
//! This module is the one place the crate permits `unsafe`: calling a
//! `#[target_feature]` function requires it, and every call site is
//! guarded by the corresponding `is_x86_feature_detected!` check cached in
//! [`backend`] — except [`prefetch`]'s, whose SSE instruction every
//! x86_64 CPU has.
//!
//! analyze: allow(indexing) — lane kernels index fixed `[u64; LANES]` arrays by `0..LANES` and slice chunks produced by `chunks_exact(LANES)`
#![allow(unsafe_code)]

use crate::field::{self, P};
use std::sync::OnceLock;

const M32: u64 = 0xffff_ffff;
const M29: u64 = (1 << 29) - 1;

/// The instruction-set tier the process-wide kernel dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// 8×u64 lanes (`avx512f/dq/bw/vl/vpopcntdq`), 16-lane unrolled
    /// kernels.
    Avx512,
    /// 4×u64 lanes (`avx2`, `popcnt`).
    Avx2,
    /// Portable scalar instantiation of the same lane math.
    Scalar,
}

impl Backend {
    /// Stable lower-case name, recorded in benchmark topology output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx512 => "avx512",
            Backend::Avx2 => "avx2",
            Backend::Scalar => "scalar",
        }
    }
}

/// `true` if the environment pins the dispatch to the scalar backend.
fn force_scalar() -> bool {
    std::env::var_os("SETSTREAM_FORCE_SCALAR").is_some_and(|v| v != "0")
}

/// The backend every kernel in this module dispatches to, detected once.
///
/// Honors (in order): the `simd` cargo feature (compile-time), the
/// `SETSTREAM_FORCE_SCALAR` environment variable (runtime), then CPU
/// feature detection.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect)
}

#[cfg(all(target_arch = "x86_64", feature = "simd"))]
fn detect() -> Backend {
    if force_scalar() {
        return Backend::Scalar;
    }
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512vpopcntdq")
    {
        Backend::Avx512
    } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

#[cfg(not(all(target_arch = "x86_64", feature = "simd")))]
fn detect() -> Backend {
    // Keep the env override observable so forced-scalar runs report the
    // same backend name on every build configuration.
    let _ = force_scalar();
    Backend::Scalar
}

/// `parity(a & x)`: the GF(2) inner product of two 64-bit vectors.
#[inline(always)]
fn parity(a: u64, x: u64) -> u64 {
    u64::from((a & x).count_ones()) & 1
}

/// Branch-free canonical reduction of an arbitrary `u64` (lane form of
/// [`field::reduce64`]).
#[inline(always)]
fn reduce64_lane(x: u64) -> u64 {
    let f = (x & P) + (x >> 61); // ≤ p + 7
    f - (P & ((f + 1) >> 61).wrapping_neg())
}

/// Lane form of one lazy Horner step `acc·x + c (mod p)`, keeping the
/// accumulator below `2⁶²` (the [`field::mul_add_lazy`] invariant).
///
/// `acc < 2⁶²` and canonical `x` are split into 32-bit halves
/// (`ah < 2³⁰`, `xh < 2²⁹`); the four cross products and the Mersenne
/// folds (`2⁶⁴ ≡ 8`, `mid·2³² ≡ (mid & M29)·2³² + (mid ≫ 29)`) keep every
/// intermediate inside `u64`: the folded sum is below `2⁶² + 3·2⁶¹ + c`,
/// and the final fold restores `< 2⁶¹ + 4 < 2⁶²`.
///
/// Both multiply operands carry an explicit `& M32`: the masks are
/// value-preserving (the halves already fit 32 bits) but let LLVM prove
/// the range and select the 1-µop `vpmuludq` form instead of the 3-µop
/// general `vpmullq`.
#[inline(always)]
fn horner_step_lane(acc: u64, xl: u64, xh: u64, c: u64) -> u64 {
    let al = acc & M32;
    let ah = acc >> 32;
    let m_ll = (al & M32) * (xl & M32); // < 2⁶⁴: no wrap
    let m_lh = (al & M32) * (xh & M32); // < 2⁶¹
    let m_hl = (ah & M32) * (xl & M32); // < 2⁶²
    let m_hh = (ah & M32) * (xh & M32); // < 2⁵⁹
    let mid = m_lh + m_hl; // < 2⁶³
    let t = (m_ll & P) + (m_ll >> 61) + ((mid & M29) << 32) + (mid >> 29) + (m_hh << 3) + c;
    (t & P) + (t >> 61)
}

// --------------------------------------------------------------- kernels
//
// Generic over the unroll width `LANES`; `LANES = 1` is the portable
// scalar path, the `#[target_feature]` wrappers below instantiate wider
// widths that LLVM turns into zmm/ymm code.

/// How many elements of `xs` have an odd inner product with `a`.
#[inline(always)]
fn odd_count_lanes<const LANES: usize>(a: u64, xs: &[u64]) -> u64 {
    let mut acc = [0u64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for i in 0..LANES {
            acc[i] += parity(a, chunk[i]);
        }
    }
    let mut odd: u64 = acc.iter().sum();
    for &x in chunks.remainder() {
        odd += parity(a, x);
    }
    odd
}

/// Sum of `deltas[i]` over the elements with an odd inner product with
/// `a` (signed mixed-workload form; mask-select instead of branching).
#[inline(always)]
fn odd_mass_lanes<const LANES: usize>(a: u64, xs: &[u64], deltas: &[i64]) -> i64 {
    debug_assert_eq!(xs.len(), deltas.len());
    let mut acc = [0i64; LANES];
    let mut xc = xs.chunks_exact(LANES);
    let mut dc = deltas.chunks_exact(LANES);
    for (x, d) in (&mut xc).zip(&mut dc) {
        for i in 0..LANES {
            acc[i] = acc[i].wrapping_add(d[i] & (parity(a, x[i]) as i64).wrapping_neg());
        }
    }
    let mut odd = acc.iter().fold(0i64, |s, &v| s.wrapping_add(v));
    for (&x, &d) in xc.remainder().iter().zip(dc.remainder()) {
        odd = odd.wrapping_add(d & (parity(a, x) as i64).wrapping_neg());
    }
    odd
}

/// One element against every function, lanes across the *function* axis
/// (the coefficient arrays supply per-lane operands, the element is
/// broadcast). This is the tail kernel: element-lane kernels need a full
/// chunk of `LANES` elements per step, so group remainders and whole
/// small groups — the deep first-level buckets of a geometric level
/// distribution — would otherwise fall back to one bit at a time. Cell
/// updates are exact integer adds, so routing an element through this
/// axis instead of the element-lane axis is bit-identical.
///
/// Every cell add in the accumulate kernels wraps, like the sketch's
/// merge and subtract: a decoded peer synopsis may hold any `i64`, and
/// maintenance stays linear modulo 2⁶⁴ instead of panicking where
/// overflow checks are on.
#[inline(always)]
fn affine_one_lanes<const LANES: usize>(a: &[u64], b: &[u64], x: u64, d: i64, row: &mut [i64]) {
    let s = a.len();
    let mut j = 0;
    while j + LANES <= s {
        // Constant-length subslices: the lane loops below index `0..LANES`
        // into length-`LANES` views, so LLVM drops every bounds check and
        // keeps the whole step in vector registers.
        let aj = &a[j..j + LANES];
        let bj = &b[j..j + LANES];
        let mut bits = [0u64; LANES];
        for (i, bit) in bits.iter_mut().enumerate() {
            *bit = parity(aj[i], x) ^ bj[i];
        }
        // Branchless cell bump: touch both cells of every pair with the
        // delta masked by the bit, instead of a data-dependent index.
        let seg = &mut row[2 * j..2 * (j + LANES)];
        for i in 0..LANES {
            let m = (bits[i] as i64).wrapping_neg();
            seg[2 * i] = seg[2 * i].wrapping_add(d & !m);
            seg[2 * i + 1] = seg[2 * i + 1].wrapping_add(d & m);
        }
        j += LANES;
    }
    while j < s {
        let bit = (parity(a[j], x) ^ b[j]) as usize;
        row[2 * j + bit] = row[2 * j + bit].wrapping_add(d);
        j += 1;
    }
}

/// Split a group for the element-lane kernels: groups shorter than one
/// full lane step go entirely through the function-lane tail kernel,
/// longer groups keep a lane-exact prefix and route only the
/// `len % LANES` remainder sideways.
#[inline(always)]
fn lane_cut<const LANES: usize>(len: usize) -> usize {
    if len < LANES {
        0
    } else {
        len - len % LANES
    }
}

/// Uniform-delta grouped accumulate: for every function `j`, add `d0` to
/// `row[2j + hⱼ(x)]` for each `x` in `xs`, as `d0·(n − onesⱼ)` and
/// `d0·onesⱼ`.
#[inline(always)]
fn affine_uniform_lanes<const LANES: usize>(
    a: &[u64],
    b: &[u64],
    xs: &[u64],
    d0: i64,
    row: &mut [i64],
) {
    let (main, tail) = xs.split_at(lane_cut::<LANES>(xs.len()));
    if !main.is_empty() {
        let n = main.len() as u64;
        for ((pair, &aj), &bj) in row.chunks_exact_mut(2).zip(a).zip(b) {
            let odd = odd_count_lanes::<LANES>(aj, main);
            // `bⱼ = 1` flips every bit of function j.
            let ones = if bj == 0 { odd } else { n - odd };
            pair[0] = pair[0].wrapping_add(d0.wrapping_mul((n - ones) as i64));
            pair[1] = pair[1].wrapping_add(d0.wrapping_mul(ones as i64));
        }
    }
    for &x in tail {
        affine_one_lanes::<LANES>(a, b, x, d0, row);
    }
}

/// Mixed-delta grouped accumulate: for every function `j`, add
/// `deltas[i]` to `row[2j + hⱼ(xs[i])]`, as `total − onesⱼ` and `onesⱼ`,
/// where `onesⱼ` is the delta mass landing in the odd cell.
#[inline(always)]
fn affine_weighted_lanes<const LANES: usize>(
    a: &[u64],
    b: &[u64],
    xs: &[u64],
    deltas: &[i64],
    total: i64,
    row: &mut [i64],
) {
    debug_assert_eq!(xs.len(), deltas.len());
    let cut = lane_cut::<LANES>(xs.len());
    let (main, tail) = xs.split_at(cut);
    let (dmain, dtail) = deltas.split_at(cut);
    if !main.is_empty() {
        // The tail is at most `2·LANES` elements: cheaper to subtract its
        // mass from the caller's group total than to re-scan `dmain`.
        let main_total = dtail.iter().fold(total, |t, &d| t.wrapping_sub(d));
        for ((pair, &aj), &bj) in row.chunks_exact_mut(2).zip(a).zip(b) {
            let odd = odd_mass_lanes::<LANES>(aj, main, dmain);
            let even = main_total.wrapping_sub(odd);
            let (zero, one) = if bj == 0 { (even, odd) } else { (odd, even) };
            pair[0] = pair[0].wrapping_add(zero);
            pair[1] = pair[1].wrapping_add(one);
        }
    }
    for (&x, &d) in tail.iter().zip(dtail) {
        affine_one_lanes::<LANES>(a, b, x, d, row);
    }
}

/// First-level polynomial hash over a slice: element lanes, one lazy
/// Horner chain per lane, canonicalized at the end — the vector form of
/// `KWiseHash::hash` (and, with `coeffs = [a, b]`, of
/// `PairwiseHash::hash`).
/// One Horner block: split `LANES` elements into limbs, run the chain,
/// canonicalize into `ochunk`.
#[inline(always)]
fn horner_block_lanes<const LANES: usize>(coeffs: &[u64], xchunk: &[u64], ochunk: &mut [u64]) {
    let mut xl = [0u64; LANES];
    let mut xh = [0u64; LANES];
    let mut acc = [0u64; LANES];
    for i in 0..LANES {
        let xr = reduce64_lane(xchunk[i]);
        xl[i] = xr & M32;
        xh[i] = xr >> 32;
    }
    for &c in coeffs {
        for i in 0..LANES {
            acc[i] = horner_step_lane(acc[i], xl[i], xh[i], c);
        }
    }
    for i in 0..LANES {
        let f = (acc[i] & P) + (acc[i] >> 61); // ≤ p + 1
        ochunk[i] = f - (P & ((f + 1) >> 61).wrapping_neg());
    }
}

#[inline(always)]
fn horner_many_lanes<const LANES: usize>(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
    debug_assert_eq!(xs.len(), out.len());
    // Two independent chains per iteration: each Horner step is a
    // ~20-cycle dependency chain, so a single block leaves the vector
    // ports idle between steps. Interleaving a pair at the source level
    // keeps both chains in flight (the blocks share the broadcast
    // coefficient and nothing else).
    let mut xc2 = xs.chunks_exact(2 * LANES);
    let mut oc2 = out.chunks_exact_mut(2 * LANES);
    for (xchunk, ochunk) in (&mut xc2).zip(&mut oc2) {
        let (xa, xb) = xchunk.split_at(LANES);
        let (oa, ob) = ochunk.split_at_mut(LANES);
        let mut xla = [0u64; LANES];
        let mut xha = [0u64; LANES];
        let mut xlb = [0u64; LANES];
        let mut xhb = [0u64; LANES];
        let mut acc_a = [0u64; LANES];
        let mut acc_b = [0u64; LANES];
        for i in 0..LANES {
            let ra = reduce64_lane(xa[i]);
            let rb = reduce64_lane(xb[i]);
            xla[i] = ra & M32;
            xha[i] = ra >> 32;
            xlb[i] = rb & M32;
            xhb[i] = rb >> 32;
        }
        for &c in coeffs {
            for i in 0..LANES {
                acc_a[i] = horner_step_lane(acc_a[i], xla[i], xha[i], c);
            }
            for i in 0..LANES {
                acc_b[i] = horner_step_lane(acc_b[i], xlb[i], xhb[i], c);
            }
        }
        for i in 0..LANES {
            let fa = (acc_a[i] & P) + (acc_a[i] >> 61); // ≤ p + 1
            oa[i] = fa - (P & ((fa + 1) >> 61).wrapping_neg());
            let fb = (acc_b[i] & P) + (acc_b[i] >> 61);
            ob[i] = fb - (P & ((fb + 1) >> 61).wrapping_neg());
        }
    }
    let xs_tail = xc2.remainder();
    let out_tail = oc2.into_remainder();
    let mut xc = xs_tail.chunks_exact(LANES);
    let mut oc = out_tail.chunks_exact_mut(LANES);
    for (xchunk, ochunk) in (&mut xc).zip(&mut oc) {
        horner_block_lanes::<LANES>(coeffs, xchunk, ochunk);
    }
    for (&x, o) in xc.remainder().iter().zip(oc.into_remainder()) {
        let xr = field::reduce64(x);
        let mut acc = 0u64;
        for &c in coeffs {
            acc = field::mul_add_lazy(acc, xr, c);
        }
        *o = field::reduce64(acc);
    }
}

/// Positivity bitmap of a counter row: bit `i % 64` of `out[i / 64]` is
/// set iff `cells[i] > 0`; returns whether any cell is nonzero. No lane
/// unrolling: the compare-and-pack loop auto-vectorizes as written once
/// its wrapper enables the vector features.
#[inline(always)]
fn positive_bits_kernel(cells: &[i64], out: &mut [u64]) -> bool {
    let mut any = 0i64;
    for (word, chunk) in out.iter_mut().zip(cells.chunks(64)) {
        let mut bits = 0u64;
        for (i, &c) in chunk.iter().enumerate() {
            bits |= u64::from(c > 0) << i;
            any |= c;
        }
        *word = bits;
    }
    any != 0
}

// ------------------------------------------------- target_feature wrappers

#[cfg(all(target_arch = "x86_64", feature = "simd"))]
mod x86 {
    //! `#[target_feature]` instantiations of the generic kernels, written
    //! out explicitly (not via a macro) so every `unsafe fn` is a visible
    //! symbol the analyzer's A08 rule can audit — macro-generated items
    //! are a documented blind spot of the lexical symbol pass.
    //!
    //! Safety contract of every function here: the caller has verified
    //! the named CPU features are present; [`super::backend`] does that
    //! once per process via `is_x86_feature_detected!`. The bodies only
    //! call the safe generic `*_lanes` kernels, which chunk their slices
    //! (no length precondition beyond what those kernels debug-assert),
    //! so feature presence is the *entire* obligation.
    use super::*;

    // SAFETY: to call, the CPU must support avx512f/dq/bw/vl/vpopcntdq;
    // the body is safe code over chunked slices.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512vpopcntdq")]
    pub unsafe fn affine_uniform_avx512(
        a: &[u64],
        b: &[u64],
        xs: &[u64],
        d0: i64,
        row: &mut [i64],
    ) {
        affine_uniform_lanes::<16>(a, b, xs, d0, row);
    }

    // SAFETY: to call, the CPU must support avx512f/dq/bw/vl/vpopcntdq;
    // `xs` and `deltas` must be equal-length and `row.len() == 2 * a.len()`.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512vpopcntdq")]
    pub unsafe fn affine_weighted_avx512(
        a: &[u64],
        b: &[u64],
        xs: &[u64],
        deltas: &[i64],
        total: i64,
        row: &mut [i64],
    ) {
        affine_weighted_lanes::<16>(a, b, xs, deltas, total, row);
    }

    // SAFETY: to call, the CPU must support avx512f/dq/bw/vl; `xs` and `out`
    // must be equal-length (the kernel zips them).
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub unsafe fn horner_many_avx512(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
        horner_many_lanes::<16>(coeffs, xs, out);
    }

    // SAFETY: to call, the CPU must support avx512f/dq/bw/vl; the body is
    // safe code over chunked slices.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub unsafe fn positive_bits_avx512(cells: &[i64], out: &mut [u64]) -> bool {
        positive_bits_kernel(cells, out)
    }

    // SAFETY: to call, the CPU must support avx2 and popcnt; the body is
    // safe code over chunked slices.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn affine_uniform_avx2(a: &[u64], b: &[u64], xs: &[u64], d0: i64, row: &mut [i64]) {
        affine_uniform_lanes::<4>(a, b, xs, d0, row);
    }

    // SAFETY: to call, the CPU must support avx2 and popcnt; `xs` and
    // `deltas` must be equal-length and `row.len() == 2 * a.len()`.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn affine_weighted_avx2(
        a: &[u64],
        b: &[u64],
        xs: &[u64],
        deltas: &[i64],
        total: i64,
        row: &mut [i64],
    ) {
        affine_weighted_lanes::<4>(a, b, xs, deltas, total, row);
    }

    // SAFETY: to call, the CPU must support avx2; `xs` and `out` must be
    // equal-length (the kernel zips them).
    #[target_feature(enable = "avx2")]
    pub unsafe fn horner_many_avx2(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
        horner_many_lanes::<4>(coeffs, xs, out);
    }

    // SAFETY: to call, the CPU must support avx2; the body is safe code over
    // chunked slices.
    #[target_feature(enable = "avx2")]
    pub unsafe fn positive_bits_avx2(cells: &[i64], out: &mut [u64]) -> bool {
        positive_bits_kernel(cells, out)
    }
}

// ----------------------------------------------------------- entry points

/// Grouped uniform-delta accumulate of the affine bank `(a, b)` (see
/// [`affine_uniform_lanes`]), dispatched to the detected backend.
#[inline]
pub(crate) fn affine_uniform(a: &[u64], b: &[u64], xs: &[u64], d0: i64, row: &mut [i64]) {
    debug_assert!(a.len() == b.len() && row.len() == 2 * a.len());
    match backend() {
        // SAFETY: `backend()` returns Avx512 only after detecting all five features.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx512 => unsafe { x86::affine_uniform_avx512(a, b, xs, d0, row) },
        // SAFETY: `backend()` returns Avx2 only after detecting avx2 and popcnt.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx2 => unsafe { x86::affine_uniform_avx2(a, b, xs, d0, row) },
        _ => affine_uniform_lanes::<1>(a, b, xs, d0, row),
    }
}

/// Grouped mixed-delta accumulate of the affine bank `(a, b)` (see
/// [`affine_weighted_lanes`]), dispatched to the detected backend.
#[inline]
pub(crate) fn affine_weighted(
    a: &[u64],
    b: &[u64],
    xs: &[u64],
    deltas: &[i64],
    total: i64,
    row: &mut [i64],
) {
    debug_assert!(a.len() == b.len() && row.len() == 2 * a.len());
    match backend() {
        // SAFETY: `backend()` returns Avx512 only after detecting all five
        // features; the caller-facing signature takes equal-length slices.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx512 => unsafe { x86::affine_weighted_avx512(a, b, xs, deltas, total, row) },
        // SAFETY: `backend()` returns Avx2 only after detecting avx2 and popcnt.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx2 => unsafe { x86::affine_weighted_avx2(a, b, xs, deltas, total, row) },
        _ => affine_weighted_lanes::<1>(a, b, xs, deltas, total, row),
    }
}

/// Polynomial (Horner) hash of a slice: `out[i] = poly(coeffs, xs[i])`,
/// canonical, dispatched. With `coeffs = [a, b]` this is the pairwise
/// family's `(a·x + b) mod p`.
#[inline]
pub(crate) fn horner_many(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
    debug_assert_eq!(xs.len(), out.len());
    match backend() {
        // SAFETY: `backend()` returns Avx512 only after detecting all five features.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx512 => unsafe { x86::horner_many_avx512(coeffs, xs, out) },
        // SAFETY: `backend()` returns Avx2 only after detecting avx2.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx2 => unsafe { x86::horner_many_avx2(coeffs, xs, out) },
        _ => horner_many_lanes::<1>(coeffs, xs, out),
    }
}

/// The positivity bitmap of a counter row, dispatched: bit `i % 64` of
/// `out[i / 64]` is set iff `cells[i] > 0`, and `out` holds
/// `⌈cells.len()/64⌉` words (extra words are left alone). Returns whether
/// any cell is nonzero. This is how a sketch refreshes the sign words of
/// a row it wrote.
#[inline]
pub fn positive_bits(cells: &[i64], out: &mut [u64]) -> bool {
    debug_assert!(out.len() >= cells.len().div_ceil(64));
    match backend() {
        // SAFETY: `backend()` returns Avx512 only after detecting all five features.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx512 => unsafe { x86::positive_bits_avx512(cells, out) },
        // SAFETY: `backend()` returns Avx2 only after detecting avx2.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx2 => unsafe { x86::positive_bits_avx2(cells, out) },
        _ => positive_bits_kernel(cells, out),
    }
}

/// Ask the CPU to start loading `value`'s cache line, so that a likely
/// miss overlaps the work the caller does before touching it. A hint
/// only: no effect on results, and a no-op off x86_64.
#[inline]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and has no architectural effect;
    // the address comes from a live reference and SSE is baseline x86_64.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::splitmix64;

    fn rngs(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = splitmix64(s.wrapping_add(0x9e37_79b9_7f4a_7c15));
                s
            })
            .collect()
    }

    /// `s` affine functions: uniform `a`, a fair bit `b`.
    fn bank(s: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let a = rngs(seed, s);
        let b = rngs(seed ^ 0xabcd, s).into_iter().map(|v| v >> 63).collect();
        (a, b)
    }

    /// The ground truth the whole module must agree with, one bit at a
    /// time: `b ⊕ (⊕ᵢ aᵢ ∧ xᵢ)`.
    fn ref_bit(a: u64, b: u64, x: u64) -> usize {
        let dot = (0..64).fold(0, |acc, i| acc ^ (a >> i & x >> i & 1));
        (dot ^ b) as usize
    }

    /// Element inputs for a group of `n`: random words, with the edge
    /// elements (0, all ones, every single bit) woven in.
    fn elements(n: usize) -> Vec<u64> {
        let edges = [0u64, u64::MAX].into_iter().chain((0..64).map(|i| 1u64 << i));
        let mut xs: Vec<u64> = edges.chain(rngs(n as u64 + 1, n)).collect();
        xs.truncate(n);
        xs
    }

    /// Reference rows for the uniform (`d0 = 5`) and weighted forms.
    fn reference_rows(a: &[u64], b: &[u64], xs: &[u64], deltas: &[i64]) -> (Vec<i64>, Vec<i64>) {
        let mut uniform = vec![0i64; 2 * a.len()];
        let mut weighted = vec![0i64; 2 * a.len()];
        for (j, (&aj, &bj)) in a.iter().zip(b).enumerate() {
            for (&x, &d) in xs.iter().zip(deltas) {
                let bit = ref_bit(aj, bj, x);
                uniform[2 * j + bit] += 5;
                weighted[2 * j + bit] += d;
            }
        }
        (uniform, weighted)
    }

    /// Bank widths and group lengths straddling every lane boundary.
    const WIDTHS: [usize; 6] = [1, 4, 15, 16, 32, 33];
    const LENGTHS: [usize; 11] = [0, 1, 3, 15, 16, 17, 63, 64, 65, 130, 200];

    fn deltas(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i % 7) - 3).collect()
    }

    #[test]
    fn parity_matches_the_bitwise_reference() {
        let edges = [0u64, 1, 2, M32, M32 + 1, 1 << 63, P, u64::MAX];
        for &a in &edges {
            for &x in &edges {
                assert_eq!(parity(a, x) as usize, ref_bit(a, 0, x), "a={a:#x} x={x:#x}");
            }
        }
        for pair in rngs(42, 20_000).chunks_exact(2) {
            let (a, x) = (pair[0], pair[1]);
            assert_eq!(parity(a, x) as usize, ref_bit(a, 0, x), "a={a:#x} x={x:#x}");
        }
    }

    #[test]
    fn lane_kernels_match_scalar_instantiation_all_backends() {
        // The dispatched kernel (whatever tier this process runs) and the
        // portable LANES = 1 instantiation both equal the reference.
        for s in WIDTHS {
            let (a, b) = bank(s, 7 + s as u64);
            for n in LENGTHS {
                let xs = elements(n);
                let deltas = deltas(n);
                let total: i64 = deltas.iter().sum();
                let (want_u, want_w) = reference_rows(&a, &b, &xs, &deltas);

                let mut got = vec![0i64; 2 * s];
                affine_uniform(&a, &b, &xs, 5, &mut got);
                assert_eq!(got, want_u, "uniform s={s} n={n} backend={:?}", backend());
                let mut got = vec![0i64; 2 * s];
                affine_uniform_lanes::<1>(&a, &b, &xs, 5, &mut got);
                assert_eq!(got, want_u, "uniform s={s} n={n} LANES=1");

                let mut got = vec![0i64; 2 * s];
                affine_weighted(&a, &b, &xs, &deltas, total, &mut got);
                assert_eq!(got, want_w, "weighted s={s} n={n} backend={:?}", backend());
                let mut got = vec![0i64; 2 * s];
                affine_weighted_lanes::<1>(&a, &b, &xs, &deltas, total, &mut got);
                assert_eq!(got, want_w, "weighted s={s} n={n} LANES=1");
            }
        }
    }

    #[test]
    fn kernels_wrap_instead_of_overflowing() {
        // Hostile cells and deltas near i64::MAX: linear modulo 2⁶⁴.
        let (a, b) = bank(8, 3);
        let xs = elements(40);
        let deltas: Vec<i64> = (0..40).map(|i| if i % 2 == 0 { i64::MAX } else { i64::MIN + 1 }).collect();
        let total = deltas.iter().fold(0i64, |t, &d| t.wrapping_add(d));
        let mut row = vec![i64::MAX; 16];
        affine_weighted(&a, &b, &xs, &deltas, total, &mut row);
        let mut want = vec![i64::MAX; 16];
        for (j, (&aj, &bj)) in a.iter().zip(&b).enumerate() {
            for (&x, &d) in xs.iter().zip(&deltas) {
                let cell = &mut want[2 * j + ref_bit(aj, bj, x)];
                *cell = cell.wrapping_add(d);
            }
        }
        assert_eq!(row, want);
        affine_uniform(&a, &b, &xs, i64::MAX, &mut row);
    }

    /// Each x86 tier the CPU has, called directly: the dispatch runs one
    /// tier per process, so without this the tiers below the host's best
    /// would never execute on it.
    #[cfg(all(target_arch = "x86_64", feature = "simd"))]
    #[test]
    fn every_compiled_x86_tier_matches_lanes_one_and_the_reference() {
        let avx512 = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl");
        let vpopcnt = avx512 && is_x86_feature_detected!("avx512vpopcntdq");
        let avx2 = is_x86_feature_detected!("avx2");
        let popcnt = avx2 && is_x86_feature_detected!("popcnt");

        for s in WIDTHS {
            let (a, b) = bank(s, 11 + s as u64);
            for n in LENGTHS {
                let xs = elements(n);
                let deltas = deltas(n);
                let total: i64 = deltas.iter().sum();
                let (want_u, want_w) = reference_rows(&a, &b, &xs, &deltas);
                let mut lanes1 = vec![0i64; 2 * s];
                affine_uniform_lanes::<1>(&a, &b, &xs, 5, &mut lanes1);
                assert_eq!(lanes1, want_u, "s={s} n={n}");
                let mut lanes1 = vec![0i64; 2 * s];
                affine_weighted_lanes::<1>(&a, &b, &xs, &deltas, total, &mut lanes1);
                assert_eq!(lanes1, want_w, "s={s} n={n}");

                if vpopcnt {
                    let mut got = vec![0i64; 2 * s];
                    // SAFETY: avx512f/dq/bw/vl/vpopcntdq detected above.
                    unsafe { x86::affine_uniform_avx512(&a, &b, &xs, 5, &mut got) };
                    assert_eq!(got, want_u, "avx512 uniform s={s} n={n}");
                    let mut got = vec![0i64; 2 * s];
                    // SAFETY: avx512f/dq/bw/vl/vpopcntdq detected above.
                    unsafe { x86::affine_weighted_avx512(&a, &b, &xs, &deltas, total, &mut got) };
                    assert_eq!(got, want_w, "avx512 weighted s={s} n={n}");
                }
                if popcnt {
                    let mut got = vec![0i64; 2 * s];
                    // SAFETY: avx2 and popcnt detected above.
                    unsafe { x86::affine_uniform_avx2(&a, &b, &xs, 5, &mut got) };
                    assert_eq!(got, want_u, "avx2 uniform s={s} n={n}");
                    let mut got = vec![0i64; 2 * s];
                    // SAFETY: avx2 and popcnt detected above.
                    unsafe { x86::affine_weighted_avx2(&a, &b, &xs, &deltas, total, &mut got) };
                    assert_eq!(got, want_w, "avx2 weighted s={s} n={n}");
                }
            }
        }

        for t in [1usize, 2, 8] {
            let coeffs: Vec<u64> = rngs(t as u64, t).into_iter().map(field::reduce64).collect();
            for n in [0usize, 1, 4, 15, 16, 17, 33, 100] {
                let xs = rngs(n as u64 + 77, n);
                let mut want = vec![0u64; n];
                horner_many_lanes::<1>(&coeffs, &xs, &mut want);
                for (&x, &w) in xs.iter().zip(&want) {
                    let xr = field::reduce64(x);
                    let acc = coeffs.iter().fold(0, |acc, &c| field::mul_add_lazy(acc, xr, c));
                    assert_eq!(w, field::reduce64(acc), "t={t} x={x}");
                }
                if avx512 {
                    let mut got = vec![0u64; n];
                    // SAFETY: avx512f/dq/bw/vl detected above.
                    unsafe { x86::horner_many_avx512(&coeffs, &xs, &mut got) };
                    assert_eq!(got, want, "avx512 horner t={t} n={n}");
                }
                if avx2 {
                    let mut got = vec![0u64; n];
                    // SAFETY: avx2 detected above.
                    unsafe { x86::horner_many_avx2(&coeffs, &xs, &mut got) };
                    assert_eq!(got, want, "avx2 horner t={t} n={n}");
                }
            }
        }

        for len in [0usize, 1, 63, 64, 65, 130] {
            let cells: Vec<i64> = rngs(len as u64, len).into_iter().map(|v| v as i64 % 3).collect();
            let words = len.div_ceil(64);
            let mut want = vec![0u64; words];
            let want_any = positive_bits_kernel(&cells, &mut want);
            for (i, &c) in cells.iter().enumerate() {
                assert_eq!(want[i / 64] >> (i % 64) & 1 == 1, c > 0, "cell {i}");
            }
            assert_eq!(want_any, cells.iter().any(|&c| c != 0));
            if avx512 {
                let mut got = vec![0u64; words];
                // SAFETY: avx512f/dq/bw/vl detected above.
                let any = unsafe { x86::positive_bits_avx512(&cells, &mut got) };
                assert_eq!((got, any), (want.clone(), want_any), "avx512 len={len}");
            }
            if avx2 {
                let mut got = vec![0u64; words];
                // SAFETY: avx2 detected above.
                let any = unsafe { x86::positive_bits_avx2(&cells, &mut got) };
                assert_eq!((got, any), (want.clone(), want_any), "avx2 len={len}");
            }
        }
    }

    #[test]
    fn horner_many_matches_lazy_scalar_chain() {
        for t in [1usize, 2, 5, 8] {
            let coeffs: Vec<u64> =
                rngs(t as u64 ^ 0x5555, t).into_iter().map(field::reduce64).collect();
            for n in [0usize, 1, 4, 15, 16, 17, 100] {
                let xs = rngs(n as u64 + 77, n);
                let mut out = vec![0u64; n];
                horner_many(&coeffs, &xs, &mut out);
                for (&x, &o) in xs.iter().zip(&out) {
                    let xr = field::reduce64(x);
                    let mut acc = 0u64;
                    for &c in &coeffs {
                        acc = field::mul_add_lazy(acc, xr, c);
                    }
                    assert_eq!(o, field::reduce64(acc), "t={t} n={n} x={x}");
                }
            }
        }
    }

    #[test]
    fn reduce64_lane_matches_reference() {
        for x in rngs(5, 5000).into_iter().chain([0, 1, P - 1, P, P + 1, u64::MAX]) {
            assert_eq!(reduce64_lane(x), field::reduce64(x), "x={x}");
        }
    }

    #[test]
    fn backend_is_stable_and_named() {
        let b = backend();
        assert_eq!(b, backend(), "detection must be cached");
        assert!(["avx512", "avx2", "scalar"].contains(&b.name()));
    }
}
