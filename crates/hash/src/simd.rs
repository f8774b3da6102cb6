//! Lane-parallel kernels for the sketch hot path.
//!
//! The per-update cost of 2-level-sketch maintenance is dominated by the
//! `s` second-level bits of every element in every one of the `r` copies.
//! Each bit is a GF(2)-affine function `hⱼ(x) = parity(aⱼ & x) ⊕ bⱼ`
//! (see [`crate::PairwiseHashBank`]), so a bit costs one AND and one
//! POPCNT: independent 64-bit lanes that vectorize as written.
//!
//! * The chunk kernel (`sliced_apply`) applies up to 512 updates to one
//!   sketch copy, each level by how many of the chunk's updates it
//!   holds. On a populous level a 512-bit **chunk mask** (one bit per
//!   update, eight words: one zmm register, two ymm) is the vector: a
//!   function's odd set is one XOR per nibble of `aⱼ` over rows of the
//!   chunk's [`SlicedChunk`] tables, and the level's odd mass is one AND
//!   and one POPCNT per delta plane. That costs the same for 16 updates
//!   as for 256, so sparse levels (all of a short chunk's, the thin ones
//!   of a full chunk) switch to **function lanes**: each update against
//!   every function at once, its bits selecting `δ` into odd masses held
//!   in registers, and the row written once (`register_level_lanes`).
//!   The few updates on deep levels, and single updates, go one at a
//!   time through the same lanes straight into their row (`affine_one`).
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
//! guarded by the corresponding `is_x86_feature_detected!` checks, cached
//! in [`backend`] or made by [`Backend::is_runnable`] — except
//! [`prefetch`]'s, whose SSE instruction every x86_64 CPU has.
//!
//! analyze: allow(indexing) — lane kernels index fixed `[u64; LANES]` arrays by `0..LANES`, slice chunks produced by `chunks_exact(LANES)`, per-level arrays by levels masked below 64, chunk arrays by update numbers below `CHUNK`, and counter rows by the levels the caller's `# Panics` contract bounds
#![allow(unsafe_code)]

use crate::bit::bucket_of;
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

impl Backend {
    /// `true` if this build compiled the tier and this CPU has its
    /// features; the scalar tier always runs. Unlike [`backend`], this
    /// ignores `SETSTREAM_FORCE_SCALAR`: it says what *can* run, so
    /// equivalence tests can drive every tier. Detected once per process,
    /// since the kernel entry points check it on every call.
    pub fn is_runnable(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(all(target_arch = "x86_64", feature = "simd"))]
            tier => {
                static VECTOR: OnceLock<[bool; 2]> = OnceLock::new();
                let [avx512, avx2] = *VECTOR.get_or_init(|| {
                    [
                        is_x86_feature_detected!("avx512f")
                            && is_x86_feature_detected!("avx512dq")
                            && is_x86_feature_detected!("avx512bw")
                            && is_x86_feature_detected!("avx512vl")
                            && is_x86_feature_detected!("avx512vpopcntdq"),
                        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt"),
                    ]
                });
                if tier == Backend::Avx512 {
                    avx512
                } else {
                    avx2
                }
            }
            #[cfg(not(all(target_arch = "x86_64", feature = "simd")))]
            _ => false,
        }
    }

    /// The runnable tiers, widest first: the dispatch runs the first one
    /// unless `SETSTREAM_FORCE_SCALAR` pins it to the last.
    pub fn runnable() -> impl Iterator<Item = Backend> {
        [Backend::Avx512, Backend::Avx2, Backend::Scalar]
            .into_iter()
            .filter(|tier| tier.is_runnable())
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
/// feature detection ([`Backend::runnable`]).
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        if force_scalar() {
            Backend::Scalar
        } else {
            Backend::runnable().next().unwrap_or(Backend::Scalar)
        }
    })
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

// ------------------------------------------------------------ chunk form

/// Updates per bit-sliced chunk: a chunk mask (eight words) holds one bit
/// per update.
pub const CHUNK: usize = 512;

/// A set of a chunk's updates: bit `i % 64` of word `i / 64` stands for
/// update `i`.
pub(crate) type ChunkMask = [u64; CHUNK / 64];

/// Up to [`CHUNK`] updates together with their bit-sliced form — the
/// copy-independent half of the batch kernel, built once per chunk and
/// read by every sketch copy.
///
/// * `tables[k][v]` is the set of updates `i` with an odd
///   `parity((v << 4k) & xᵢ)`: the XOR of the element bit-planes
///   `4k + t` for the set bits `t` of `v`. A function's odd set is then
///   `⊕ₖ tables[k][nibbleₖ(aⱼ)]` over the nibble positions `k` below the
///   chunk's *span*, the highest position some element uses plus one
///   (8 for 32-bit elements); the tables above the span are never read.
/// * `planes[p]` is the set of updates whose `δᵢ` has bit `p` set, for
///   the `k` planes the chunk's deltas need: the bit length of the
///   largest `δ` if none is negative, else the width of the narrowest
///   two's complement that holds them all (two planes for unit churn,
///   four for `-3..=7`). The sum of `δ` over a set `M` is then
///   `Σₚ 2ᵖ·|M ∩ planeₚ|`, with weight `-2ᵏ⁻¹` for the top plane of a
///   signed chunk — exact modulo 2⁶⁴ like every cell add.
///
/// About 28 KiB: users keep one on the stack or a window of them on the
/// heap.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct SlicedChunk {
    pub(crate) tables: [[ChunkMask; 16]; 16],
    pub(crate) planes: [ChunkMask; 64],
    pub(crate) elems: [u64; CHUNK],
    pub(crate) deltas: [i64; CHUNK],
    sum: i64,
    len: usize,
    n_planes: usize,
    /// Whether the top plane carries the two's complement sign.
    signed: bool,
    /// Nibble positions up to the highest one some element uses.
    span: usize,
}

impl SlicedChunk {
    /// An empty chunk, ready for [`Self::load`].
    pub const EMPTY: SlicedChunk = SlicedChunk {
        tables: [[[0; CHUNK / 64]; 16]; 16],
        planes: [[0; CHUNK / 64]; 64],
        elems: [0; CHUNK],
        deltas: [0; CHUNK],
        sum: 0,
        len: 0,
        n_planes: 0,
        signed: false,
        span: 0,
    };

    /// Replace the chunk's contents with `updates` (`(element, delta)`
    /// pairs) and build their bit-sliced form.
    ///
    /// # Panics
    /// Panics if `updates` yields more than [`CHUNK`] pairs.
    pub fn load(&mut self, updates: impl IntoIterator<Item = (u64, i64)>) {
        let mut n = 0;
        for (e, d) in updates {
            assert!(n < CHUNK, "a chunk holds at most {CHUNK} updates");
            self.elems[n] = e;
            self.deltas[n] = d;
            n += 1;
        }
        self.elems[n..].fill(0);
        self.deltas[n..].fill(0);
        self.len = n;
        self.sum = self.deltas[..n]
            .iter()
            .fold(0i64, |t, &d| t.wrapping_add(d));

        // Element bit-planes land in the single-bit rows of the tables;
        // every other row below the span is the XOR of two rows already
        // built.
        let used = self.elems[..n].iter().fold(0u64, |acc, &e| acc | e);
        self.span = (u64::BITS - used.leading_zeros()).div_ceil(4) as usize;
        let words = n.div_ceil(64);
        for (w, block) in self.elems.chunks_exact(64).enumerate() {
            let planes = transposed(block, w < words);
            for (t, &bits) in planes.iter().enumerate() {
                self.tables[t / 4][1 << (t % 4)][w] = bits;
            }
        }
        for table in &mut self.tables[..self.span] {
            table[0] = [0; CHUNK / 64];
            for v in 3..16usize {
                let low = v & v.wrapping_neg();
                if low != v {
                    table[v] = xor(&table[v ^ low], &table[low]);
                }
            }
        }

        // Delta planes: as many as the narrowest encoding needs.
        let (min, max) = self.deltas[..n]
            .iter()
            .fold((0i64, 0i64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
        let bits = |v: i64| (u64::BITS - (v as u64).leading_zeros()) as usize;
        self.signed = min < 0;
        self.n_planes = if self.signed {
            1 + bits(max).max(bits(!min))
        } else {
            bits(max)
        };
        let values = self.deltas.map(|d| d as u64);
        if self.n_planes <= 8 {
            for (p, plane) in self.planes.iter_mut().enumerate().take(self.n_planes) {
                for (word, block) in plane.iter_mut().zip(values.chunks_exact(64)) {
                    *word = block
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (i, &v)| acc | (v >> p & 1) << i);
                }
            }
        } else {
            for (w, block) in values.chunks_exact(64).enumerate() {
                let planes = transposed(block, w < words);
                for (p, &bits) in planes.iter().take(self.n_planes).enumerate() {
                    self.planes[p][w] = bits;
                }
            }
        }
    }

    /// Number of updates in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the chunk holds no updates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk's elements, in load order.
    #[inline]
    pub fn elems(&self) -> &[u64] {
        &self.elems[..self.len]
    }

    /// `Σ δ` over the chunk, wrapping.
    #[inline]
    pub fn delta_sum(&self) -> i64 {
        self.sum
    }

    /// The bit-planes the chunk's deltas need.
    #[inline]
    pub(crate) fn planes(&self) -> &[ChunkMask] {
        &self.planes[..self.n_planes]
    }

    /// The nibble positions below the highest one some element uses
    /// (inclusive): the table positions a function's odd set reads.
    #[inline]
    pub(crate) fn span(&self) -> usize {
        self.span
    }

    /// Whether the top plane carries the two's complement sign (some
    /// delta is negative).
    #[inline]
    pub(crate) fn signed(&self) -> bool {
        self.signed
    }
}

/// Word-wise XOR of two chunk masks.
#[inline(always)]
fn xor(x: &ChunkMask, y: &ChunkMask) -> ChunkMask {
    let mut out = *x;
    for (o, &v) in out.iter_mut().zip(y) {
        *o ^= v;
    }
    out
}

/// The bit-planes of 64 values (a 64×64 bit-matrix transpose): bit `i`
/// of plane `t` is bit `t` of `block[i]`. All zero unless `live`, which
/// skips the work for the words past a short chunk's end.
fn transposed(block: &[u64], live: bool) -> [u64; 64] {
    let mut m = [0u64; 64];
    if !live {
        return m;
    }
    m.copy_from_slice(block);
    // Swap the off-diagonal blocks of each 2w × 2w tile, halving w: the
    // high `w` columns of row `i` trade places with the low `w` columns
    // of row `i + w`.
    let mut width = 32;
    let mut low = 0x0000_0000_ffff_ffffu64;
    while width != 0 {
        for tile in (0..64).step_by(2 * width) {
            for i in tile..tile + width {
                let t = (m[i] >> width ^ m[i + width]) & low;
                m[i] ^= t << width;
                m[i + width] ^= t;
            }
        }
        width >>= 1;
        low ^= low << width;
    }
    m
}

// --------------------------------------------------------------- kernels
//
// Generic over the unroll width `LANES`; `LANES = 1` is the portable
// scalar path, the `#[target_feature]` wrappers below instantiate wider
// widths that LLVM turns into zmm/ymm code.

/// One element against every function, lanes across the *function* axis
/// (the coefficient arrays supply per-lane operands, the element is
/// broadcast): the kernel for single updates and for the few updates on
/// a chunk's deep levels, where a level's bit-sliced popcount rounds
/// would cost more than the updates they carry. Cell updates are exact
/// integer adds, so routing an update through either kernel is
/// bit-identical.
///
/// Every cell add in the kernels wraps, like the sketch's merge and
/// subtract: a decoded peer synopsis may hold any `i64`, and maintenance
/// stays linear modulo 2⁶⁴ instead of panicking where overflow checks
/// are on.
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

/// A chunk mask with the first `n` updates set.
#[inline(always)]
fn first_n(n: usize) -> ChunkMask {
    let mut mask = [0u64; CHUNK / 64];
    for (w, word) in mask.iter_mut().enumerate() {
        let live = n.saturating_sub(64 * w).min(64);
        *word = if live == 64 { !0 } else { (1u64 << live) - 1 };
    }
    mask
}

/// Word-wise `x & y`.
#[inline(always)]
fn and(x: &ChunkMask, y: &ChunkMask) -> ChunkMask {
    let mut out = *x;
    for w in 0..CHUNK / 64 {
        out[w] &= y[w];
    }
    out
}

/// Word-wise `x & !y`.
#[inline(always)]
fn and_not(x: &ChunkMask, y: &ChunkMask) -> ChunkMask {
    let mut out = *x;
    for w in 0..CHUNK / 64 {
        out[w] &= !y[w];
    }
    out
}

/// `Σ δᵢ` over a set of a chunk's updates, from the delta planes:
/// `Σₚ 2ᵖ·|set ∩ planeₚ|`, the top plane of a signed chunk weighing
/// `-2ᵏ⁻¹`, all wrapping. The eight word lanes accumulate separately and
/// meet once.
///
/// The planes fold in Horner order, top down (`acc = 2·acc + count`): a
/// recurrence LLVM cannot vectorize across planes, with a gather per
/// word, so it vectorizes across the words instead.
#[inline(always)]
fn plane_mass(set: &ChunkMask, planes: &[ChunkMask], signed: bool) -> i64 {
    let Some((top, low)) = planes.split_last() else {
        return 0;
    };
    let mut acc = [0u64; CHUNK / 64];
    for w in 0..CHUNK / 64 {
        let count = u64::from((set[w] & top[w]).count_ones());
        acc[w] = if signed { count.wrapping_neg() } else { count };
    }
    for plane in low.iter().rev() {
        for w in 0..CHUNK / 64 {
            let count = u64::from((set[w] & plane[w]).count_ones());
            acc[w] = (acc[w] << 1).wrapping_add(count);
        }
    }
    acc.iter().fold(0u64, |t, &v| t.wrapping_add(v)) as i64
}

/// The updates of `chunk` whose element has an odd inner product with
/// `a`: one table row per nibble position of the chunk's span.
///
/// The nibble is peeled off a running shift, a recurrence LLVM cannot
/// vectorize: a loop it could vectorize goes across positions, with a
/// gather per word, instead of across the eight words of a row.
#[inline(always)]
fn odd_set(chunk: &SlicedChunk, a: u64) -> ChunkMask {
    let mut odd = [0u64; CHUNK / 64];
    let mut nibbles = a;
    for table in &chunk.tables[..chunk.span()] {
        let row = &table[nibbles as usize & 15];
        nibbles >>= 4;
        for w in 0..CHUNK / 64 {
            odd[w] ^= row[w];
        }
    }
    odd
}

/// Levels `0..DENSE` of a chunk are split off by the hashes' low
/// bit-planes; they hold 31/32 of the updates. The deeper levels, about
/// 16 updates of a full chunk, go one at a time through the function
/// lanes ([`affine_one_lanes`]). (On the bench host, at `s = 32`, 4 and 6
/// sliced levels each cost 5–20% more per update than 5, and splitting
/// off levels 5–7 too, for the register kernel, cost full chunks 12%.)
const DENSE: usize = 5;

/// A split level holding at least `CROSSOVER` of the chunk's updates is
/// bit-sliced, and a thinner one goes through the register kernel
/// ([`register_level_lanes`]). A sliced level costs `s` popcount rounds
/// per delta plane however few updates it holds; the register kernel
/// costs about two instructions per update and function. The sliced
/// levels are a counted range from level 0 up to the first level below
/// the crossover: populations halve from one level to the next, so a full
/// chunk keeps levels 0–3 sliced and slices level 4 (about 16 updates)
/// only when it is not thin. (Measured on the bench host's AVX-512 tier
/// at `s = 32`: crossovers of 0 and 8 cost the kernel 5–9% more on full
/// chunks than 16, and 24 cost the whole ingest path 13%.)
const CROSSOVER: u32 = 16;

/// A chunk whose level 0 holds fewer than `SHORT` updates slices no
/// level, which also skips the odd sets, one 512-bit XOR per element
/// nibble and function, which cost more than the register kernel would
/// on a level 0 that thin. Such chunks hold under about 128 updates.
/// (Sized on a scratch sweep at `s = 32`; not re-swept since.)
const SHORT: u32 = 4 * CROSSOVER;

/// Functions whose odd masses are committed together: the commit loop
/// then runs over a block of cell pairs, which vectorizes.
const BLOCK: usize = 16;

/// Bit `b` of every update's first-level hash, for `b < DENSE`: the
/// planes that split the chunk into its dense levels. Only the first
/// `words` words of each plane are formed; the rest stay zero.
#[inline(always)]
fn low_planes(hashes: &[u64; CHUNK], words: usize) -> [ChunkMask; DENSE] {
    let mut planes = [[0u64; CHUNK / 64]; DENSE];
    for (w, block) in hashes.chunks_exact(64).enumerate().take(words) {
        for (i, &h) in block.iter().enumerate() {
            for (b, plane) in planes.iter_mut().enumerate() {
                plane[w] |= (h >> b & 1) << i;
            }
        }
    }
    planes
}

/// Add a level's odd masses to its cells for a block of functions: the
/// mass of function `j` lands in cell `(j, 1 ⊕ bⱼ)`, and the level's
/// `total` minus it in `(j, bⱼ)`. `cells` holds the block's cell pairs.
#[inline(always)]
fn commit(cells: &mut [i64], masses: &[i64], b: &[u64], total: i64) {
    for ((pair, &mass), &bj) in cells.chunks_exact_mut(2).zip(masses).zip(b) {
        let rest = total.wrapping_sub(mass);
        let (zero, one) = if bj == 0 { (rest, mass) } else { (mass, rest) };
        pair[0] = pair[0].wrapping_add(zero);
        pair[1] = pair[1].wrapping_add(one);
    }
}

/// The register kernel for a sparse level: the updates of `set`, all on
/// the level whose `2s` cells are `row`, against every function, lanes
/// across the functions. Per block of `LANES` functions, each update's
/// bits `parity(aⱼ & x)` select its `δ` into `LANES` odd masses held in
/// registers ([`register_masses`]), and the block's cells are then
/// written once ([`commit`]). A ragged last block runs padded with
/// `aⱼ = 0` lanes, whose bits are 0 and whose masses are never
/// committed, so every `s` stays vectorized, `s < LANES` included.
#[inline(always)]
fn register_level_lanes<const LANES: usize>(
    a: &[u64],
    b: &[u64],
    chunk: &SlicedChunk,
    set: &ChunkMask,
    row: &mut [i64],
) {
    let mut total = 0i64;
    for_each(set, |i| total = total.wrapping_add(chunk.deltas[i]));
    let mut blocks = a.chunks_exact(LANES);
    let mut cells = row.chunks_exact_mut(2 * LANES);
    for ((aj, bj), pairs) in (&mut blocks).zip(b.chunks_exact(LANES)).zip(&mut cells) {
        let masses = register_masses::<LANES>(&std::array::from_fn(|l| aj[l]), chunk, set);
        commit(pairs, &masses, bj, total);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let lanes = std::array::from_fn(|l| tail.get(l).copied().unwrap_or(0));
        let masses = register_masses::<LANES>(&lanes, chunk, set);
        let bj = &b[a.len() - tail.len()..];
        commit(cells.into_remainder(), &masses, bj, total);
    }
}

/// The odd masses `δ(Wⱼ ∩ set)` of one block of functions `lanes`: per
/// update, one AND + POPCNT per function and a masked add of `δ`.
#[inline(always)]
fn register_masses<const LANES: usize>(
    lanes: &[u64; LANES],
    chunk: &SlicedChunk,
    set: &ChunkMask,
) -> [i64; LANES] {
    let mut masses = [0i64; LANES];
    for_each(set, |i| {
        let (x, d) = (chunk.elems[i], chunk.deltas[i]);
        for (mass, &aj) in masses.iter_mut().zip(lanes) {
            *mass = mass.wrapping_add(d & (parity(aj, x) as i64).wrapping_neg());
        }
    });
    masses
}

/// The chunk kernel behind [`crate::PairwiseHashBank::apply_chunk`]:
/// apply `chunk` to the level-major rows (`2s` cells per level) of one
/// sketch copy, update `i` landing on level `bucket_of(hashes[i],
/// levels)`, and return the set of levels written. Each level's path
/// follows how many of the chunk's updates it holds.
///
/// The level of a hash is the position of its lowest set bit (capped at
/// `levels - 1`), so levels `0..DENSE` fall out of the hashes' low
/// bit-planes: level `ℓ` is the updates whose bit `ℓ` is the first one
/// set. Only the chunk's live hash words are read. Those levels split two
/// ways:
///
/// * **Populous levels**, a counted range from level 0 (see
///   [`CROSSOVER`] and [`SHORT`]), are bit-sliced ([`sliced_levels`]).
///   They cost `s` popcount rounds per level and delta plane however many
///   updates a level holds, plus the odd sets once per chunk.
/// * **Sparse levels** go through the register kernel
///   ([`register_level_lanes`]), a few instructions per update and block
///   of functions. No odd set is formed when no level is sliced.
///
/// Both commit the same `(j, 1 ⊕ bⱼ)` / `(j, bⱼ)` split ([`commit`]).
/// The deeper levels go one update at a time through the function lanes.
#[inline(always)]
fn sliced_apply_lanes<const LANES: usize>(
    a: &[u64],
    b: &[u64],
    chunk: &SlicedChunk,
    hashes: &[u64; CHUNK],
    levels: u32,
    rows: &mut [i64],
) -> u64 {
    let width = 2 * a.len();
    let top = levels.clamp(1, 64) as usize - 1;
    // Split off the dense levels below `top` by their planes; if `top`
    // itself is below DENSE, the updates left over form level `top`.
    let low = low_planes(hashes, chunk.len().div_ceil(64));
    let mut rest = first_n(chunk.len());
    let mut sets = [[0u64; CHUNK / 64]; DENSE];
    let dense = (top + 1).min(DENSE);
    for (level, set) in sets.iter_mut().enumerate().take(dense) {
        if level == top {
            *set = rest;
            rest = [0; CHUNK / 64];
        } else {
            *set = and(&rest, &low[level]);
            rest = and_not(&rest, &low[level]);
        }
    }
    let pops = sets.map(|set| set.iter().map(|w| w.count_ones()).sum::<u32>());
    let sliced = if pops[0] < SHORT {
        0
    } else {
        pops.iter().take_while(|&&p| p >= CROSSOVER).count()
    };
    // The sliced range as a constant: each count gets a level loop with
    // a known trip count (a runtime count cost full chunks 4–9%).
    match sliced {
        0 => {}
        1 => sliced_levels::<1>(a, b, chunk, &sets, rows),
        2 => sliced_levels::<2>(a, b, chunk, &sets, rows),
        3 => sliced_levels::<3>(a, b, chunk, &sets, rows),
        4 => sliced_levels::<4>(a, b, chunk, &sets, rows),
        _ => sliced_levels::<DENSE>(a, b, chunk, &sets, rows),
    }
    let mut touched = 0u64;
    for (level, &pop) in pops.iter().enumerate() {
        touched |= u64::from(pop > 0) << level;
    }
    for level in (sliced..dense).filter(|&l| pops[l] > 0) {
        let row = &mut rows[level * width..(level + 1) * width];
        register_level_lanes::<LANES>(a, b, chunk, &sets[level], row);
    }
    for_each(&rest, |i| {
        let level = bucket_of(hashes[i], levels) as usize;
        touched |= 1 << level;
        let row = &mut rows[level * width..(level + 1) * width];
        affine_one_lanes::<LANES>(a, b, chunk.elems[i], chunk.deltas[i], row);
    });
    touched
}

/// The bit-sliced levels `0..K` of a chunk, whose update sets are
/// `sets[..K]`: per function `j`, the odd set `Wⱼ` ([`odd_set`]) gives
/// level `ℓ`'s odd mass `δ(Wⱼ ∩ Lₗ)` ([`plane_mass`]), committed per
/// block of [`BLOCK`] functions with the level's total.
#[inline(always)]
fn sliced_levels<const K: usize>(
    a: &[u64],
    b: &[u64],
    chunk: &SlicedChunk,
    sets: &[ChunkMask; DENSE],
    rows: &mut [i64],
) {
    let width = 2 * a.len();
    let (planes, signed) = (chunk.planes(), chunk.signed());
    let mut totals = [0i64; K];
    for (total, set) in totals.iter_mut().zip(sets) {
        *total = plane_mass(set, planes, signed);
    }
    let mut masses = [[0i64; BLOCK]; K];
    for (block, (ab, bb)) in a.chunks(BLOCK).zip(b.chunks(BLOCK)).enumerate() {
        for (jj, &aj) in ab.iter().enumerate() {
            let odd = odd_set(chunk, aj);
            for level in 0..K {
                masses[level][jj] = plane_mass(&and(&odd, &sets[level]), planes, signed);
            }
        }
        for level in 0..K {
            let cells = &mut rows[level * width + 2 * BLOCK * block..][..2 * ab.len()];
            commit(cells, &masses[level], bb, totals[level]);
        }
    }
}

/// Call `f` with every update in `set`, ascending.
#[inline(always)]
fn for_each(set: &ChunkMask, mut f: impl FnMut(usize)) {
    for (w, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(64 * w + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
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
    //! the named CPU features are present; [`super::backend`] and
    //! [`Backend::is_runnable`] do that once per process via
    //! `is_x86_feature_detected!`. The bodies only
    //! call the safe generic `*_lanes` kernels, which chunk their slices
    //! (no length precondition beyond what those kernels debug-assert),
    //! so feature presence is the *entire* obligation.
    use super::*;

    // SAFETY: to call, the CPU must support avx512f/dq/bw/vl/vpopcntdq;
    // the body is safe code over fixed-size masks and bounds-checked rows.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512vpopcntdq")]
    pub unsafe fn sliced_apply_avx512(
        a: &[u64],
        b: &[u64],
        chunk: &SlicedChunk,
        hashes: &[u64; CHUNK],
        levels: u32,
        rows: &mut [i64],
    ) -> u64 {
        sliced_apply_lanes::<16>(a, b, chunk, hashes, levels, rows)
    }

    // SAFETY: to call, the CPU must support avx512f/dq/bw/vl/vpopcntdq;
    // `row.len() == 2 * a.len()` (the kernel slices by it).
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl,avx512vpopcntdq")]
    pub unsafe fn affine_one_avx512(a: &[u64], b: &[u64], x: u64, d: i64, row: &mut [i64]) {
        affine_one_lanes::<16>(a, b, x, d, row);
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
    // safe code over fixed-size masks and bounds-checked rows.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn sliced_apply_avx2(
        a: &[u64],
        b: &[u64],
        chunk: &SlicedChunk,
        hashes: &[u64; CHUNK],
        levels: u32,
        rows: &mut [i64],
    ) -> u64 {
        sliced_apply_lanes::<4>(a, b, chunk, hashes, levels, rows)
    }

    // SAFETY: to call, the CPU must support avx2 and popcnt;
    // `row.len() == 2 * a.len()` (the kernel slices by it).
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn affine_one_avx2(a: &[u64], b: &[u64], x: u64, d: i64, row: &mut [i64]) {
        affine_one_lanes::<4>(a, b, x, d, row);
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

/// Apply a sliced chunk to one sketch copy's level-major rows (see
/// [`sliced_apply_lanes`]) on `tier`, which the caller has checked is
/// runnable (a tier that is not runs the scalar instantiation).
#[inline]
pub(crate) fn sliced_apply(
    tier: Backend,
    a: &[u64],
    b: &[u64],
    chunk: &SlicedChunk,
    hashes: &[u64; CHUNK],
    levels: u32,
    rows: &mut [i64],
) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    match tier {
        // SAFETY: the guard detects all five features on this CPU.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx512 if tier.is_runnable() => unsafe {
            x86::sliced_apply_avx512(a, b, chunk, hashes, levels, rows)
        },
        // SAFETY: the guard detects avx2 and popcnt on this CPU.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx2 if tier.is_runnable() => unsafe {
            x86::sliced_apply_avx2(a, b, chunk, hashes, levels, rows)
        },
        _ => sliced_apply_lanes::<1>(a, b, chunk, hashes, levels, rows),
    }
}

/// One update against one row of the affine bank `(a, b)` (see
/// [`affine_one_lanes`]) on `tier`, which the caller has checked is
/// runnable (a tier that is not runs the scalar instantiation).
#[inline]
pub(crate) fn affine_one(tier: Backend, a: &[u64], b: &[u64], x: u64, d: i64, row: &mut [i64]) {
    debug_assert!(a.len() == b.len() && row.len() == 2 * a.len());
    match tier {
        // SAFETY: the guard detects all five features on this CPU.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx512 if tier.is_runnable() => unsafe { x86::affine_one_avx512(a, b, x, d, row) },
        // SAFETY: the guard detects avx2 and popcnt on this CPU.
        #[cfg(all(target_arch = "x86_64", feature = "simd"))]
        Backend::Avx2 if tier.is_runnable() => unsafe { x86::affine_one_avx2(a, b, x, d, row) },
        _ => affine_one_lanes::<1>(a, b, x, d, row),
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

    #[test]
    fn transpose_moves_bit_t_of_value_i_to_bit_i_of_plane_t() {
        let block: Vec<u64> = (0..64u64).map(|i| splitmix64(i + 1)).collect();
        let planes = transposed(&block, true);
        for (i, &v) in block.iter().enumerate() {
            for (t, &plane) in planes.iter().enumerate() {
                assert_eq!(plane >> i & 1, v >> t & 1, "value {i} bit {t}");
            }
        }
        assert_eq!(transposed(&block, false), [0; 64]);
    }

    #[test]
    fn sliced_chunk_tables_and_planes_match_their_definitions() {
        let pairs: Vec<(u64, i64)> = (0..300u64)
            .map(|i| {
                let e = splitmix64(i) & if i % 2 == 0 { 0x1_ffff } else { u64::MAX };
                let d = match i % 5 {
                    0 => i64::MIN,
                    1 => -3,
                    2 => 0,
                    3 => 7,
                    _ => i as i64 * 1000,
                };
                (e, d)
            })
            .collect();
        let mut chunk = SlicedChunk::EMPTY;
        chunk.load(pairs.iter().copied());
        assert_eq!(chunk.len(), 300);
        assert_eq!(chunk.span(), 16);
        assert_eq!((chunk.planes().len(), chunk.signed()), (64, true));
        let sum = pairs.iter().fold(0i64, |t, &(_, d)| t.wrapping_add(d));
        assert_eq!(chunk.delta_sum(), sum);
        let member = |m: &ChunkMask, i: usize| m[i / 64] >> (i % 64) & 1 == 1;
        for (i, &(e, d)) in pairs.iter().enumerate() {
            for k in 0..16 {
                for v in 0..16u64 {
                    let odd = ((v << (4 * k)) & e).count_ones() % 2 == 1;
                    assert_eq!(
                        member(&chunk.tables[k][v as usize], i),
                        odd,
                        "i={i} k={k} v={v}"
                    );
                }
            }
            for (p, plane) in chunk.planes().iter().enumerate() {
                assert_eq!(member(plane, i), (d as u64) >> p & 1 == 1, "i={i} p={p}");
            }
        }
        // Reloading a shorter, narrower chunk leaves nothing of the old one.
        chunk.load([(5, 1), (2, -1)]);
        assert_eq!((chunk.len(), chunk.span(), chunk.signed()), (2, 1, true));
        assert_eq!(
            chunk.planes(),
            &[[0b11, 0, 0, 0, 0, 0, 0, 0], [0b10, 0, 0, 0, 0, 0, 0, 0]]
        );
        assert_eq!(chunk.elems(), &[5, 2]);
        chunk.load([(1 << 40, 2), (3, 7)]);
        assert_eq!((chunk.span(), chunk.signed()), (11, false));
        assert_eq!(
            chunk.planes(),
            &[
                [0b10, 0, 0, 0, 0, 0, 0, 0],
                [0b11, 0, 0, 0, 0, 0, 0, 0],
                [0b10, 0, 0, 0, 0, 0, 0, 0]
            ]
        );
        chunk.load([(9, -3), (9, 7), (9, 0)]);
        assert_eq!((chunk.planes().len(), chunk.signed()), (4, true));
    }

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

    /// Element inputs for a chunk of `n`: random words of a few widths,
    /// with the edge elements (0, all ones, every single bit) woven in.
    fn elements(n: usize) -> Vec<u64> {
        let edges = [0u64, u64::MAX]
            .into_iter()
            .chain((0..64).map(|i| 1u64 << i));
        let widths = [u64::MAX, 0x1_ffff, 7];
        let random = rngs(n as u64 + 1, n)
            .into_iter()
            .enumerate()
            .map(|(i, v)| v & widths[i % 3]);
        let mut xs: Vec<u64> = edges.chain(random).collect();
        xs.truncate(n);
        xs
    }

    /// Deltas of every plane count: small mixed steps, unit churn, and
    /// the `i64` extremes.
    fn deltas(n: usize, kind: usize) -> Vec<i64> {
        (0..n as i64)
            .map(|i| match kind {
                0 => (i % 7) - 3,
                1 => {
                    if i % 3 == 0 {
                        -1
                    } else {
                        1
                    }
                }
                _ => [i64::MIN, i64::MAX, 0, -1, i * 0x1234_5678_9abc][i as usize % 5],
            })
            .collect()
    }

    /// First-level hashes for a chunk of `n` (random words, so their
    /// levels are geometric), with garbage past `n` that the kernel must
    /// ignore.
    fn hashes_for(n: usize) -> [u64; CHUNK] {
        let mut out = [0u64; CHUNK];
        for (h, v) in out.iter_mut().zip(rngs(n as u64 ^ 0x77, CHUNK)) {
            *h = v;
        }
        out
    }

    /// The level of each of the first `n` hashes.
    fn levels_of_hashes(hashes: &[u64; CHUNK], n: usize, levels: u32) -> Vec<u8> {
        hashes[..n]
            .iter()
            .map(|&h| bucket_of(h, levels) as u8)
            .collect()
    }

    /// The reference rows: every update applied one bit at a time.
    fn reference_rows(
        a: &[u64],
        b: &[u64],
        xs: &[u64],
        ds: &[i64],
        levels: &[u8],
        rows: usize,
    ) -> Vec<i64> {
        let width = 2 * a.len();
        let mut want = vec![0i64; rows * width];
        for ((&x, &d), &l) in xs.iter().zip(ds).zip(levels) {
            for (j, (&aj, &bj)) in a.iter().zip(b).enumerate() {
                let cell = &mut want[usize::from(l) * width + 2 * j + ref_bit(aj, bj, x)];
                *cell = cell.wrapping_add(d);
            }
        }
        want
    }

    /// Bank widths and chunk lengths straddling every lane and word
    /// boundary, and the dense-level threshold.
    const WIDTHS: [usize; 6] = [1, 4, 15, 16, 32, 33];
    const LENGTHS: [usize; 11] = [0, 1, 3, 15, 16, 17, 63, 64, 65, 300, 512];

    /// One kernel case: the bank `(a, b)`, the loaded chunk, its hashes,
    /// and the reference rows over 12 levels.
    type Case = (Vec<u64>, Vec<u64>, Box<SlicedChunk>, [u64; CHUNK], Vec<i64>);

    /// Every `(s, n, delta kind)` case.
    fn cases(seed: u64) -> impl Iterator<Item = Case> {
        WIDTHS.into_iter().flat_map(move |s| {
            LENGTHS.into_iter().flat_map(move |n| {
                (0..3).map(move |kind| {
                    let (a, b) = bank(s, seed + s as u64);
                    let xs = elements(n);
                    let ds = deltas(n, kind);
                    let hashes = hashes_for(n);
                    let levels = levels_of_hashes(&hashes, n, 12);
                    let mut chunk = Box::new(SlicedChunk::EMPTY);
                    chunk.load(xs.iter().copied().zip(ds.iter().copied()));
                    let want = reference_rows(&a, &b, &xs, &ds, &levels, 12);
                    (a, b, chunk, hashes, want)
                })
            })
        })
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
        // The dispatched kernels (whatever tier this process runs) and the
        // portable LANES = 1 instantiation both equal the reference.
        for (a, b, chunk, hashes, want) in cases(7) {
            let n = chunk.len();
            let mut got = vec![0i64; want.len()];
            sliced_apply(backend(), &a, &b, &chunk, &hashes, 12, &mut got);
            assert_eq!(
                got,
                want,
                "sliced s={} n={n} backend={:?}",
                a.len(),
                backend()
            );
            let mut got = vec![0i64; want.len()];
            sliced_apply_lanes::<1>(&a, &b, &chunk, &hashes, 12, &mut got);
            assert_eq!(got, want, "sliced s={} n={n} LANES=1", a.len());

            let width = 2 * a.len();
            let levels = levels_of_hashes(&hashes, n, 12);
            let mut got = vec![0i64; want.len()];
            let mut lanes1 = vec![0i64; want.len()];
            for ((&x, &d), &l) in chunk.elems().iter().zip(&chunk.deltas).zip(&levels) {
                let at = usize::from(l) * width;
                affine_one(backend(), &a, &b, x, d, &mut got[at..at + width]);
                affine_one_lanes::<1>(&a, &b, x, d, &mut lanes1[at..at + width]);
            }
            assert_eq!(
                got,
                want,
                "one-by-one s={} n={n} backend={:?}",
                a.len(),
                backend()
            );
            assert_eq!(lanes1, want, "one-by-one s={} n={n} LANES=1", a.len());
        }
    }

    #[test]
    fn kernels_wrap_instead_of_overflowing() {
        // Hostile cells and deltas near the i64 extremes: linear modulo
        // 2⁶⁴, on the dense and the sparse path.
        let (a, b) = bank(8, 3);
        let xs = elements(300);
        let ds: Vec<i64> = (0..300)
            .map(|i| if i % 2 == 0 { i64::MAX } else { i64::MIN + 1 })
            .collect();
        let hashes = hashes_for(300);
        let levels = levels_of_hashes(&hashes, 300, 16);
        let mut chunk = Box::new(SlicedChunk::EMPTY);
        chunk.load(xs.iter().copied().zip(ds.iter().copied()));
        let mut rows = vec![i64::MAX; 16 * 16];
        let written = sliced_apply(backend(), &a, &b, &chunk, &hashes, 16, &mut rows);
        let mut want = reference_rows(&a, &b, &xs, &ds, &levels, 16);
        for cell in &mut want {
            *cell = cell.wrapping_add(i64::MAX);
        }
        assert_eq!(rows, want);
        let expect = levels.iter().fold(0u64, |acc, &l| acc | 1 << l);
        assert_eq!(written, expect);
        affine_one(backend(), &a, &b, u64::MAX, i64::MAX, &mut rows[..16]);
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

        for (a, b, chunk, hashes, want) in cases(11) {
            let (s, n) = (a.len(), chunk.len());
            let mut lanes1 = vec![0i64; want.len()];
            sliced_apply_lanes::<1>(&a, &b, &chunk, &hashes, 12, &mut lanes1);
            assert_eq!(lanes1, want, "s={s} n={n}");
            let x = chunk.elems().first().copied().unwrap_or(5);
            let mut one = vec![0i64; 2 * s];
            affine_one_lanes::<1>(&a, &b, x, -9, &mut one);
            if vpopcnt {
                let mut got = vec![0i64; want.len()];
                // SAFETY: avx512f/dq/bw/vl/vpopcntdq detected above.
                unsafe { x86::sliced_apply_avx512(&a, &b, &chunk, &hashes, 12, &mut got) };
                assert_eq!(got, want, "avx512 sliced s={s} n={n}");
                let mut got = vec![0i64; 2 * s];
                // SAFETY: avx512f/dq/bw/vl/vpopcntdq detected above.
                unsafe { x86::affine_one_avx512(&a, &b, x, -9, &mut got) };
                assert_eq!(got, one, "avx512 one s={s}");
            }
            if popcnt {
                let mut got = vec![0i64; want.len()];
                // SAFETY: avx2 and popcnt detected above.
                unsafe { x86::sliced_apply_avx2(&a, &b, &chunk, &hashes, 12, &mut got) };
                assert_eq!(got, want, "avx2 sliced s={s} n={n}");
                let mut got = vec![0i64; 2 * s];
                // SAFETY: avx2 and popcnt detected above.
                unsafe { x86::affine_one_avx2(&a, &b, x, -9, &mut got) };
                assert_eq!(got, one, "avx2 one s={s}");
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
