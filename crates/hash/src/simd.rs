//! Lane-parallel kernels for the mod-2⁶¹−1 sketch hot path.
//!
//! The per-update cost of 2-level-sketch maintenance is dominated by the
//! pairwise inner product `(aⱼ·x + bⱼ) mod p` evaluated across all `s`
//! second-level functions of all `r` copies — independent-lane field
//! arithmetic that vectorizes. This module restructures that arithmetic so
//! LLVM can keep it in 64-bit SIMD lanes:
//!
//! * A 64×64→128 product does not exist as a vector instruction, so each
//!   coefficient is pre-scaled and **split into 32-bit halves** once per
//!   function (`a`, and `a·2³¹ mod p`), and each element is split into
//!   31-bit halves on the fly. All four cross products then fit
//!   `vpmuludq`-shaped 32×32→64 multiplies, and Mersenne folding
//!   (`2⁶¹ ≡ 1`, `2⁶⁴ ≡ 8 mod p`) collapses the partial products without
//!   ever leaving `u64` lanes. See `parity_eval` for the bounds chain.
//! * The same limb decomposition drives a vector Horner step for the
//!   first-level polynomial hashes (`horner_many`), preserving the
//!   scalar path's lazy `< 2⁶²` accumulator invariant.
//!
//! Every kernel is **bit-identical** to the scalar reference
//! ([`field::parity128`] / [`field::mul_add_lazy`] chains): the lane math
//! computes the same canonical field values, only the instruction schedule
//! differs. The property tests assert this across backends.
//!
//! # Backend selection
//!
//! One generic, `#[inline(always)]` kernel is instantiated inside
//! `#[target_feature]` wrappers (AVX-512 with 16-lane unrolling, AVX2 with
//! 4), which LLVM auto-vectorizes; a portable instantiation (`LANES = 1`)
//! is the scalar fallback and the only code path on non-x86_64 targets or
//! when the `simd` cargo feature is disabled. The backend is detected once
//! per process and can be pinned to scalar at runtime with
//! `SETSTREAM_FORCE_SCALAR=1` (any value but `0`), which is how the test
//! suite exercises the fallback on SIMD-capable hosts.
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
const M31: u64 = (1 << 31) - 1;
const M29: u64 = (1 << 29) - 1;

/// The instruction-set tier the process-wide kernel dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// 8×u64 lanes (`avx512f/dq/bw/vl`), 16-lane unrolled kernels.
    Avx512,
    /// 4×u64 lanes (`avx2`).
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
    {
        Backend::Avx512
    } else if is_x86_feature_detected!("avx2") {
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

/// Split, pre-scaled coefficients of a bank of pairwise functions
/// `hⱼ(x) = (aⱼ·x + bⱼ) mod p`, structure-of-arrays.
///
/// For each function the kernels need `aⱼ` and `A1ⱼ = aⱼ·2³¹ mod p`, each
/// split into 32-bit halves, so that with the element split as
/// `x = x₀ + x₁·2³¹` (`x₀ < 2³¹`, `x₁ < 2³⁰`) every partial product of
/// `aⱼ·x` is a 32×32→64 multiply. Built once at bank construction; ~40
/// bytes per function.
#[derive(Debug, Clone, Default)]
pub(crate) struct ParityBank {
    a0l: Box<[u64]>,
    a0h: Box<[u64]>,
    a1l: Box<[u64]>,
    a1h: Box<[u64]>,
    b: Box<[u64]>,
}

/// One function's split coefficients, broadcast across element lanes.
#[derive(Debug, Clone, Copy)]
struct Coef {
    a0l: u64,
    a0h: u64,
    a1l: u64,
    a1h: u64,
    b: u64,
}

impl ParityBank {
    /// Split and pre-scale canonical coefficient arrays (`a[j], b[j] < p`).
    pub(crate) fn new(a: &[u64], b: &[u64]) -> Self {
        debug_assert_eq!(a.len(), b.len());
        debug_assert!(a.iter().chain(b).all(|&c| c < P));
        let a1: Vec<u64> = a.iter().map(|&a| field::reduce128((a as u128) << 31)).collect();
        ParityBank {
            a0l: a.iter().map(|&a| a & M32).collect(),
            a0h: a.iter().map(|&a| a >> 32).collect(),
            a1l: a1.iter().map(|&a| a & M32).collect(),
            a1h: a1.iter().map(|&a| a >> 32).collect(),
            b: b.to_vec().into_boxed_slice(),
        }
    }

    /// Number of functions in the bank.
    pub(crate) fn len(&self) -> usize {
        self.b.len()
    }

    #[inline]
    fn coef(&self, j: usize) -> Coef {
        Coef {
            a0l: self.a0l[j],
            a0h: self.a0h[j],
            a1l: self.a1l[j],
            a1h: self.a1h[j],
            b: self.b[j],
        }
    }
}

/// Low bit of `(a·x + b) mod p` from split operands, vectorizable form.
///
/// Inputs: coefficient split as `a = a0`, `A1 = a·2³¹ mod p`, both in
/// 32-bit halves (`a0 = a0l + a0h·2³², A1 = a1l + a1h·2³²`); element split
/// as `x = x0 + x1·2³¹` with `x0 < 2³¹`, `x1 < 2³⁰` (x canonical). Then
///
/// ```text
/// a·x = a0·x0 + (A1 mod-equivalent)·x1
///     ≡ a0l·x0 + a1l·x1              (s_lo < 2⁶³ + 2⁶² — fits u64)
///     + (a0h·x0 + a1h·x1)·2³²        (s_hi < 2⁶⁰ + 2⁵⁹ < 2⁶¹)
/// ```
///
/// and the Mersenne folds `2⁶¹ ≡ 1`, `s_hi·2³² = (s_hi mod 2²⁹)·2³² +
/// (s_hi ≫ 29)·2⁶¹ ≡ (s_hi & M29)·2³² + (s_hi ≫ 29)` bring the sum with
/// `b` below `2⁶³`. One more fold yields `f < 2⁶¹ + 4 < 2p`, whose parity
/// after canonicalization is `(f ^ [f ≥ p]) & 1` — `[f ≥ p]` computed
/// branch-free as `(f + 1) ≫ 61`. Proven equal to
/// `field::parity128(a·x + b)` for all canonical inputs (see the
/// exhaustive-edge and property tests).
///
/// Both multiply operands carry an explicit `& M32`: the masks are
/// value-preserving (the halves already fit 32 bits) but let LLVM prove
/// the range and select the 1-µop `vpmuludq` form instead of the 3-µop
/// general `vpmullq`.
#[inline(always)]
fn parity_eval(c: Coef, x0: u64, x1: u64) -> u64 {
    let m1 = (c.a0l & M32) * (x0 & M32);
    let m2 = (c.a1l & M32) * (x1 & M32);
    let m3 = (c.a0h & M32) * (x0 & M32);
    let m4 = (c.a1h & M32) * (x1 & M32);
    let s_lo = m1.wrapping_add(m2); // < 2⁶³ + 2⁶² < 2⁶⁴: no wrap
    let s_hi = m3 + m4; // < 2⁶¹
    let s = (s_lo & P) + (s_lo >> 61) + ((s_hi & M29) << 32) + (s_hi >> 29) + c.b;
    let f = (s & P) + (s >> 61);
    (f ^ ((f + 1) >> 61)) & 1
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

/// Count elements whose second-level bit is 1, for one function.
#[inline(always)]
fn count_ones_lanes<const LANES: usize>(c: Coef, xrs: &[u64]) -> i64 {
    let mut acc = [0u64; LANES];
    let mut chunks = xrs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for i in 0..LANES {
            let xr = chunk[i];
            acc[i] += parity_eval(c, xr & M31, xr >> 31);
        }
    }
    let mut ones: u64 = acc.iter().sum();
    for &xr in chunks.remainder() {
        ones += parity_eval(c, xr & M31, xr >> 31);
    }
    ones as i64
}

/// Sum of `deltas[i]` over elements whose bit is 1, for one function
/// (signed mixed-workload form; mask-select instead of branching).
#[inline(always)]
fn weighted_ones_lanes<const LANES: usize>(c: Coef, xrs: &[u64], deltas: &[i64]) -> i64 {
    debug_assert_eq!(xrs.len(), deltas.len());
    let mut acc = [0i64; LANES];
    let mut xs = xrs.chunks_exact(LANES);
    let mut ds = deltas.chunks_exact(LANES);
    for (xc, dc) in (&mut xs).zip(&mut ds) {
        for i in 0..LANES {
            let xr = xc[i];
            let bit = parity_eval(c, xr & M31, xr >> 31);
            acc[i] = acc[i].wrapping_add(dc[i] & (bit as i64).wrapping_neg());
        }
    }
    let mut ones: i64 = acc.iter().sum();
    for (&xr, &d) in xs.remainder().iter().zip(ds.remainder()) {
        let bit = parity_eval(c, xr & M31, xr >> 31);
        ones = ones.wrapping_add(d & (bit as i64).wrapping_neg());
    }
    ones
}

/// One element against every function, lanes across the *function* axis
/// (the coefficient SoA supplies per-lane operands, the element is
/// broadcast). This is the tail kernel: element-lane kernels need a full
/// chunk of `LANES` elements per step, so group remainders and whole
/// small groups — the deep first-level buckets of a geometric level
/// distribution — would otherwise fall back to scalar parity math. Cell
/// updates are exact integer adds, so routing an element through this
/// axis instead of the element-lane axis is bit-identical.
///
/// Every cell add in the three accumulate kernels wraps, like the
/// sketch's merge and subtract: a decoded peer synopsis may hold any
/// `i64`, and maintenance stays linear modulo 2⁶⁴ instead of panicking
/// where overflow checks are on.
#[inline(always)]
fn accumulate_one_lanes<const LANES: usize>(bank: &ParityBank, xr: u64, d: i64, row: &mut [i64]) {
    let (x0, x1) = (xr & M31, xr >> 31);
    let s = bank.len();
    let mut j = 0;
    while j + LANES <= s {
        // Constant-length subslices: the lane loops below index `0..LANES`
        // into length-`LANES` views, so LLVM drops every bounds check and
        // keeps the whole step in vector registers.
        let c0l = &bank.a0l[j..j + LANES];
        let c0h = &bank.a0h[j..j + LANES];
        let c1l = &bank.a1l[j..j + LANES];
        let c1h = &bank.a1h[j..j + LANES];
        let cb = &bank.b[j..j + LANES];
        let mut bits = [0u64; LANES];
        for (i, b) in bits.iter_mut().enumerate() {
            let c = Coef { a0l: c0l[i], a0h: c0h[i], a1l: c1l[i], a1h: c1h[i], b: cb[i] };
            *b = parity_eval(c, x0, x1);
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
        let bit = parity_eval(bank.coef(j), x0, x1) as usize;
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

/// Uniform-delta grouped accumulate: for every function `j`, add
/// `d0·(n − onesⱼ)` to `row[2j]` and `d0·onesⱼ` to `row[2j+1]`.
#[inline(always)]
fn accumulate_uniform_lanes<const LANES: usize>(
    bank: &ParityBank,
    xrs: &[u64],
    d0: i64,
    row: &mut [i64],
) {
    let (main, tail) = xrs.split_at(lane_cut::<LANES>(xrs.len()));
    if !main.is_empty() {
        let n = main.len() as i64;
        for (j, pair) in row.chunks_exact_mut(2).enumerate() {
            let ones = count_ones_lanes::<LANES>(bank.coef(j), main);
            pair[0] = pair[0].wrapping_add(d0.wrapping_mul(n - ones));
            pair[1] = pair[1].wrapping_add(d0.wrapping_mul(ones));
        }
    }
    for &xr in tail {
        accumulate_one_lanes::<LANES>(bank, xr, d0, row);
    }
}

/// Mixed-delta grouped accumulate: for every function `j`, add
/// `total − onesⱼ` to `row[2j]` and `onesⱼ` to `row[2j+1]`, where `onesⱼ`
/// is the delta mass landing in the odd cell.
#[inline(always)]
fn accumulate_weighted_lanes<const LANES: usize>(
    bank: &ParityBank,
    xrs: &[u64],
    deltas: &[i64],
    total: i64,
    row: &mut [i64],
) {
    debug_assert_eq!(xrs.len(), deltas.len());
    let cut = lane_cut::<LANES>(xrs.len());
    let (main, tail) = xrs.split_at(cut);
    let (dmain, dtail) = deltas.split_at(cut);
    if !main.is_empty() {
        // The tail is at most `2·LANES` elements: cheaper to subtract its
        // mass from the caller's chunk total than to re-scan `dmain`.
        let main_total = total - dtail.iter().sum::<i64>();
        for (j, pair) in row.chunks_exact_mut(2).enumerate() {
            let ones = weighted_ones_lanes::<LANES>(bank.coef(j), main, dmain);
            pair[0] = pair[0].wrapping_add(main_total.wrapping_sub(ones));
            pair[1] = pair[1].wrapping_add(ones);
        }
    }
    for (&xr, &d) in tail.iter().zip(dtail) {
        accumulate_one_lanes::<LANES>(bank, xr, d, row);
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

    // SAFETY: to call, the CPU must support avx512f/dq/bw/vl; the body is
    // safe code over chunked slices.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub unsafe fn accumulate_uniform_avx512(
        bank: &ParityBank,
        xrs: &[u64],
        d0: i64,
        row: &mut [i64],
    ) {
        accumulate_uniform_lanes::<16>(bank, xrs, d0, row);
    }

    // SAFETY: to call, the CPU must support avx512f/dq/bw/vl; `xrs`/`deltas`
    // must be equal-length and `row.len() == 2 * bank.len()`.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub unsafe fn accumulate_weighted_avx512(
        bank: &ParityBank,
        xrs: &[u64],
        deltas: &[i64],
        total: i64,
        row: &mut [i64],
    ) {
        accumulate_weighted_lanes::<16>(bank, xrs, deltas, total, row);
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

    // SAFETY: to call, the CPU must support avx2; the body is safe code over
    // chunked slices.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_uniform_avx2(
        bank: &ParityBank,
        xrs: &[u64],
        d0: i64,
        row: &mut [i64],
    ) {
        accumulate_uniform_lanes::<4>(bank, xrs, d0, row);
    }

    // SAFETY: to call, the CPU must support avx2; `xrs` and `deltas` must be
    // equal-length and `row.len() == 2 * bank.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_weighted_avx2(
        bank: &ParityBank,
        xrs: &[u64],
        deltas: &[i64],
        total: i64,
        row: &mut [i64],
    ) {
        accumulate_weighted_lanes::<4>(bank, xrs, deltas, total, row);
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

/// Grouped uniform-delta accumulate (see [`accumulate_uniform_lanes`]),
/// dispatched to the detected backend.
#[inline]
pub(crate) fn accumulate_uniform(bank: &ParityBank, xrs: &[u64], d0: i64, row: &mut [i64]) {
    debug_assert_eq!(row.len(), 2 * bank.len());
    match backend() {
        // SAFETY: `backend()` returns Avx512 only after detecting all four features.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx512 => unsafe { x86::accumulate_uniform_avx512(bank, xrs, d0, row) },
        // SAFETY: `backend()` returns Avx2 only after detecting avx2.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx2 => unsafe { x86::accumulate_uniform_avx2(bank, xrs, d0, row) },
        _ => accumulate_uniform_lanes::<1>(bank, xrs, d0, row),
    }
}

/// Grouped mixed-delta accumulate (see [`accumulate_weighted_lanes`]),
/// dispatched to the detected backend.
#[inline]
pub(crate) fn accumulate_weighted(
    bank: &ParityBank,
    xrs: &[u64],
    deltas: &[i64],
    total: i64,
    row: &mut [i64],
) {
    debug_assert_eq!(row.len(), 2 * bank.len());
    match backend() {
        // SAFETY: `backend()` returns Avx512 only after detecting all four
        // features; the caller-facing signature takes equal-length slices.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx512 => unsafe {
            x86::accumulate_weighted_avx512(bank, xrs, deltas, total, row)
        },
        // SAFETY: `backend()` returns Avx2 only after detecting avx2.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx2 => unsafe { x86::accumulate_weighted_avx2(bank, xrs, deltas, total, row) },
        _ => accumulate_weighted_lanes::<1>(bank, xrs, deltas, total, row),
    }
}

/// Polynomial (Horner) hash of a slice: `out[i] = poly(coeffs, xs[i])`,
/// canonical, dispatched. With `coeffs = [a, b]` this is the pairwise
/// family's `(a·x + b) mod p`.
#[inline]
pub(crate) fn horner_many(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
    debug_assert_eq!(xs.len(), out.len());
    match backend() {
        // SAFETY: `backend()` returns Avx512 only after detecting all four features.
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
        // SAFETY: `backend()` returns Avx512 only after detecting all four features.
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

    fn canonical(seed: u64, n: usize) -> Vec<u64> {
        rngs(seed, n).into_iter().map(field::reduce64).collect()
    }

    fn bank(s: usize, seed: u64) -> (ParityBank, Vec<u64>, Vec<u64>) {
        let a = canonical(seed, s);
        let b = canonical(seed ^ 0xabcd, s);
        (ParityBank::new(&a, &b), a, b)
    }

    /// The scalar ground truth the whole module must agree with.
    fn ref_bit(a: u64, b: u64, xr: u64) -> u64 {
        field::parity128(a as u128 * xr as u128 + b as u128)
    }

    #[test]
    fn parity_eval_matches_parity128_on_edges() {
        let edge = [0u64, 1, 2, M31, M31 + 1, M32, M32 + 1, 1 << 60, P - 2, P - 1];
        for &a in &edge {
            for &b in &edge {
                let bank = ParityBank::new(&[a], &[b]);
                for &x in &edge {
                    let got = parity_eval(bank.coef(0), x & M31, x >> 31);
                    assert_eq!(got, ref_bit(a, b, x), "a={a} b={b} x={x}");
                }
            }
        }
    }

    #[test]
    fn parity_eval_matches_parity128_randomized() {
        let mut s = 42u64;
        let mut draw = || {
            s = splitmix64(s.wrapping_add(0x9e37_79b9_7f4a_7c15));
            field::reduce64(s)
        };
        for _ in 0..20_000 {
            let (a, b, x) = (draw(), draw(), draw());
            let bank = ParityBank::new(&[a], &[b]);
            assert_eq!(
                parity_eval(bank.coef(0), x & M31, x >> 31),
                ref_bit(a, b, x),
                "a={a} b={b} x={x}"
            );
        }
    }

    #[test]
    fn lane_kernels_match_scalar_instantiation_all_backends() {
        // The generic kernel at any width must equal the LANES = 1 form,
        // including when routed through the target_feature wrappers.
        let (bank, a, b) = bank(33, 7);
        for n in [0usize, 1, 3, 15, 16, 17, 63, 64, 65, 200] {
            let xrs = canonical(n as u64 + 1, n);
            let deltas: Vec<i64> = (0..n as i64).map(|i| (i % 7) - 3).collect();
            let total: i64 = deltas.iter().sum();

            let mut want_u = vec![0i64; 2 * bank.len()];
            let mut want_w = vec![0i64; 2 * bank.len()];
            for (j, (&aj, &bj)) in a.iter().zip(&b).enumerate() {
                for (i, &xr) in xrs.iter().enumerate() {
                    let bit = ref_bit(aj, bj, xr) as usize;
                    want_u[2 * j + bit] += 5;
                    want_w[2 * j + bit] += deltas[i];
                }
            }

            let mut got_u = vec![0i64; 2 * bank.len()];
            accumulate_uniform(&bank, &xrs, 5, &mut got_u);
            assert_eq!(got_u, want_u, "uniform n={n} backend={:?}", backend());

            let mut got_w = vec![0i64; 2 * bank.len()];
            accumulate_weighted(&bank, &xrs, &deltas, total, &mut got_w);
            assert_eq!(got_w, want_w, "weighted n={n} backend={:?}", backend());
        }
    }

    #[test]
    fn horner_many_matches_lazy_scalar_chain() {
        for t in [1usize, 2, 5, 8] {
            let coeffs = canonical(t as u64 ^ 0x5555, t);
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
