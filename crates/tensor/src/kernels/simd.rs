//! Explicit AVX2 micro-kernel bodies, runtime SIMD dispatch, and the `f16`
//! storage primitives behind the serving profile's quantised tables.
//!
//! ## One arithmetic
//!
//! The AVX2 bodies (`nn_micro_avx2`, `nt_micro_avx2`, `tn_micro_avx2`)
//! vectorise the register-tile lane loop of the tiled matmul micro-kernels
//! with *separate* `_mm256_mul_ps` + `_mm256_add_ps` — one rounding per
//! multiply and one per add, exactly like the scalar `*o += a_ip * bv`.
//! Vector lanes are independent output elements, so the per-element f32 op
//! sequence is unchanged and results are **bit-identical** to the scalar
//! tiled kernels (and therefore to the naive reference). They exist so a
//! binary compiled for baseline `x86-64` still gets AVX2 throughput at
//! runtime, without giving up a single bit of reproducibility. No kernel in
//! this crate fuses a multiply into an add or approximates `exp`: the
//! serving `Fast` profile differs from `Exact` only in the parameters it
//! feeds these same kernels ([`f16_from_f32`] / [`widen_f16`] below).
//!
//! ## Runtime dispatch
//!
//! [`active_arm`] picks the arm once per process: AVX2 when the CPU reports
//! it (`is_x86_feature_detected!`), scalar otherwise — and scalar
//! unconditionally when the environment sets `SEQFM_SIMD=scalar`, which is
//! how CI keeps the fallback arm parity-tested on AVX2 hosts. Kernels
//! accept an explicit [`SimdArm`] in their `_arm` variants so tests can
//! drive both arms in one process regardless of the cached choice.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_cvtph_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
    _mm256_storeu_ps, _mm_loadu_si128,
};

/// Register-tile height shared with the tiled matmul kernels.
pub(crate) const MR: usize = super::matmul::MR;
/// Register-tile width shared with the tiled matmul kernels (two 8-wide
/// AVX vectors).
pub(crate) const NR: usize = super::matmul::NR;

/// Which instruction-set arm a kernel dispatches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdArm {
    /// Hand-written AVX2 micro-kernel bodies.
    Avx2,
    /// Portable scalar bodies — the reference arm, and the only arm on
    /// non-x86_64 targets or when `SEQFM_SIMD=scalar` is set.
    Scalar,
}

/// CPU capabilities probed once per process.
struct Caps {
    avx2: bool,
    f16c: bool,
}

fn caps() -> &'static Caps {
    static CAPS: OnceLock<Caps> = OnceLock::new();
    CAPS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            Caps {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                f16c: std::arch::is_x86_feature_detected!("f16c"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Caps { avx2: false, f16c: false }
        }
    })
}

/// `true` when the running CPU supports AVX2, independent of the
/// `SEQFM_SIMD` override — the raw detection result, for tests that
/// want to exercise the AVX2 arm explicitly.
pub fn avx2_available() -> bool {
    caps().avx2
}

/// The dispatch arm every kernel uses by default, resolved once per
/// process: [`SimdArm::Avx2`] iff the CPU supports AVX2 and the
/// environment does **not** set `SEQFM_SIMD=scalar`.
pub fn active_arm() -> SimdArm {
    static ARM: OnceLock<SimdArm> = OnceLock::new();
    *ARM.get_or_init(|| {
        let forced_scalar = std::env::var_os("SEQFM_SIMD").is_some_and(|v| v == "scalar");
        if !forced_scalar && avx2_available() {
            SimdArm::Avx2
        } else {
            SimdArm::Scalar
        }
    })
}

// ---------------------------------------------------------------------------
// SIMD-exact micro-kernel bodies (separate mul + add; bit-identical to the
// scalar tiled micros).
// ---------------------------------------------------------------------------

/// Loads the 16 lanes of one packed-panel row as two AVX vectors.
///
/// # Safety
/// Caller must be executing with AVX2 available (enforced by the enclosing
/// `#[target_feature]` kernels) and `bp` must have at least [`NR`] elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn load16(bp: &[f32]) -> (__m256, __m256) {
    debug_assert!(bp.len() >= NR);
    // SAFETY: `bp` holds at least NR = 16 f32s, so both unaligned 8-lane
    // loads are in bounds.
    unsafe { (_mm256_loadu_ps(bp.as_ptr()), _mm256_loadu_ps(bp.as_ptr().add(8))) }
}

/// `acc_r[t] += a_ip * bp[t]` over 16 lanes, one rounding per mul and one
/// per add — the exact scalar op sequence, vectorised across lanes.
///
/// # Safety
/// Caller must be executing with AVX2 available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn madd16_exact(acc_r: &mut [f32; NR], a_ip: f32, b0: __m256, b1: __m256) {
    let va = _mm256_set1_ps(a_ip);
    let p = acc_r.as_mut_ptr();
    // SAFETY: `acc_r` is exactly NR = 16 f32s; both 8-lane load/store pairs
    // stay in bounds.
    unsafe {
        let acc0 = _mm256_loadu_ps(p);
        let acc1 = _mm256_loadu_ps(p.add(8));
        _mm256_storeu_ps(p, _mm256_add_ps(acc0, _mm256_mul_ps(va, b0)));
        _mm256_storeu_ps(p.add(8), _mm256_add_ps(acc1, _mm256_mul_ps(va, b1)));
    }
}

/// AVX2 body of the tiled `nn` micro-kernel over the k-chunk
/// `[p0, p0 + kc)` — same tile walk, same ascending-`p` accumulation, same
/// padding-row skip as the scalar `nn_micro`; bit-identical output.
///
/// # Safety
/// The CPU must support AVX2 (callers go through [`active_arm`] /
/// [`avx2_available`]). Slice bounds are checked like the scalar kernel's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn nn_micro_avx2(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    rows: usize,
    j0: usize,
    p0: usize,
    kc: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
        acc_r.copy_from_slice(&c[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR]);
    }
    for p in 0..kc {
        let bp = &panel[p * NR..(p + 1) * NR];
        // SAFETY: `bp` is exactly NR floats; AVX2 is enabled on this fn.
        let (b0, b1) = unsafe { load16(bp) };
        for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
            let a_ip = a[(i0 + r) * k + p0 + p];
            if a_ip == 0.0 {
                continue; // same padding-row skip as the scalar kernel
            }
            // SAFETY: `acc_r` is an NR-float array; AVX2 is enabled.
            unsafe { madd16_exact(acc_r, a_ip, b0, b1) };
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        c[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR].copy_from_slice(acc_r);
    }
}

/// AVX2 body of the tiled `nt` micro-kernel — zero-initialised accumulators
/// over the full depth, added into `c` once, exactly like the scalar
/// `nt_micro`; bit-identical output.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn nt_micro_avx2(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    rows: usize,
    j0: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let bp = &panel[p * NR..(p + 1) * NR];
        // SAFETY: `bp` is exactly NR floats; AVX2 is enabled on this fn.
        let (b0, b1) = unsafe { load16(bp) };
        for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
            let a_ip = a[(i0 + r) * k + p];
            // SAFETY: `acc_r` is an NR-float array; AVX2 is enabled.
            unsafe { madd16_exact(acc_r, a_ip, b0, b1) };
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        let c_row = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR];
        for (c_el, &v) in c_row.iter_mut().zip(acc_r) {
            *c_el += v;
        }
    }
}

/// AVX2 body of the tiled `tn` micro-kernel over the k-chunk
/// `[p0, p0 + kc)` — mirrors the scalar `tn_micro` walk and skip;
/// bit-identical output.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn tn_micro_avx2(
    a: &[f32],
    panel: &[f32],
    c: &mut [f32],
    i0: usize,
    r0: usize,
    rows: usize,
    j0: usize,
    p0: usize,
    kc: usize,
    m: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
        acc_r.copy_from_slice(&c[(r0 + r) * n + j0..(r0 + r) * n + j0 + NR]);
    }
    for p in 0..kc {
        let bp = &panel[p * NR..(p + 1) * NR];
        // SAFETY: `bp` is exactly NR floats; AVX2 is enabled on this fn.
        let (b0, b1) = unsafe { load16(bp) };
        for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
            let a_pi = a[(p0 + p) * m + i0 + r0 + r];
            if a_pi == 0.0 {
                continue; // same skip as the scalar p-outer kernel
            }
            // SAFETY: `acc_r` is an NR-float array; AVX2 is enabled.
            unsafe { madd16_exact(acc_r, a_pi, b0, b1) };
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        c[(r0 + r) * n + j0..(r0 + r) * n + j0 + NR].copy_from_slice(acc_r);
    }
}

// ---------------------------------------------------------------------------
// f16 storage (bit-cast half precision, f32 compute).
// ---------------------------------------------------------------------------

/// Converts one f32 to IEEE-754 binary16 bits, round-to-nearest-even — the
/// single deterministic encoder used when building `FrozenParamsFast`
/// snapshots.
pub fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp == 255 {
        // Inf / NaN: keep the top payload bits, force quiet for NaN.
        return if mant == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00 | ((mant >> 13) as u16 & 0x1ff)
        };
    }
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if e >= -14 {
        // Normal f16: round the 23-bit mantissa to 10 bits, ties to even.
        let lsb = (mant >> 13) & 1;
        let round = (mant >> 12) & 1;
        let sticky = (mant & 0x0fff) != 0;
        let mut m10 = mant >> 13;
        if round == 1 && (sticky || lsb == 1) {
            m10 += 1;
        }
        let mut e5 = (e + 15) as u32;
        if m10 == 0x400 {
            m10 = 0;
            e5 += 1;
            if e5 >= 31 {
                return sign | 0x7c00;
            }
        }
        return sign | ((e5 as u16) << 10) | (m10 as u16);
    }
    if e < -25 {
        return sign; // underflow → ±0
    }
    // Subnormal f16: shift the full significand down to the 2⁻²⁴ ulp grid,
    // rounding ties to even. A carry out of the 10-bit field lands exactly
    // on the smallest normal encoding.
    let m_full = mant | 0x0080_0000;
    let shift = (13 + (-14 - e)) as u32;
    let lsb = (m_full >> shift) & 1;
    let round = (m_full >> (shift - 1)) & 1;
    let sticky = (m_full & ((1u32 << (shift - 1)) - 1)) != 0;
    let mut m10 = m_full >> shift;
    if round == 1 && (sticky || lsb == 1) {
        m10 += 1;
    }
    sign | (m10 as u16)
}

/// Decodes IEEE-754 binary16 bits to f32. Exact: every finite f16 value is
/// representable in f32, so this is the inverse-free direction — software
/// decode and the F16C `vcvtph2ps` hardware path agree bit for bit.
pub fn f32_from_f16(h: u16) -> f32 {
    let sign32 = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    match exp {
        0 => {
            // ±0 and subnormals: mant · 2⁻²⁴, computed exactly in f32.
            let mag = (mant as f32) * f32::from_bits(0x3380_0000); // 2⁻²⁴
            f32::from_bits(sign32 | mag.to_bits())
        }
        31 => {
            if mant == 0 {
                f32::from_bits(sign32 | 0x7f80_0000)
            } else {
                // NaN: shift the payload up, keep it quiet (matches F16C).
                f32::from_bits(sign32 | 0x7fc0_0000 | (mant << 13))
            }
        }
        _ => f32::from_bits(sign32 | ((exp + 112) << 23) | (mant << 13)),
    }
}

/// Widens a slice of f16 bits into f32, taking the hardware F16C path when
/// available (bit-identical to the software decode for all finite values —
/// both are exact).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn widen_f16(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_f16 length mismatch");
    #[cfg(target_arch = "x86_64")]
    if caps().f16c && active_arm() == SimdArm::Avx2 {
        // SAFETY: the running CPU reports F16C (and AVX, implied by the
        // AVX2 check inside `active_arm`).
        unsafe { widen_f16_f16c(src, dst) };
        return;
    }
    for (d, &h) in dst.iter_mut().zip(src) {
        *d = f32_from_f16(h);
    }
}

/// Hardware-widening body of [`widen_f16`]: 8 halves per `vcvtph2ps`.
///
/// # Safety
/// The CPU must support F16C and AVX. `src` and `dst` must be equal length
/// (asserted by the caller).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,f16c")]
unsafe fn widen_f16_f16c(src: &[u16], dst: &mut [f32]) {
    let chunks = src.len() / 8;
    for i in 0..chunks {
        // SAFETY: `i < len / 8`, so the 8-halfword load and the 8-float
        // store are both in bounds.
        unsafe {
            let h = _mm_loadu_si128(src.as_ptr().add(i * 8).cast());
            _mm256_storeu_ps(dst.as_mut_ptr().add(i * 8), _mm256_cvtph_ps(h));
        }
    }
    for j in chunks * 8..src.len() {
        dst[j] = f32_from_f16(src[j]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trip_is_exact_for_representable_values() {
        for &v in &[0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 6.103_515_6e-5] {
            let h = f16_from_f32(v);
            assert_eq!(f32_from_f16(h), v, "round trip of {v}");
        }
    }

    #[test]
    fn f16_encode_rounds_to_nearest_even() {
        // 1 + 2⁻¹¹ is exactly halfway between 1.0 and the next f16 up
        // (1 + 2⁻¹⁰); ties-to-even keeps the even mantissa (1.0).
        let halfway = 1.0f32 + f32::powi(2.0, -11);
        assert_eq!(f32_from_f16(f16_from_f32(halfway)), 1.0);
        // Just above the halfway point must round up.
        let above = 1.0f32 + f32::powi(2.0, -11) + f32::powi(2.0, -20);
        assert_eq!(f32_from_f16(f16_from_f32(above)), 1.0 + f32::powi(2.0, -10));
    }

    #[test]
    fn f16_handles_overflow_underflow_and_specials() {
        assert_eq!(f16_from_f32(1e6), 0x7c00, "overflow → +inf");
        assert_eq!(f16_from_f32(-1e6), 0xfc00, "overflow → -inf");
        assert_eq!(f16_from_f32(1e-10), 0x0000, "underflow → +0");
        assert_eq!(f16_from_f32(-1e-10), 0x8000, "underflow → -0");
        assert_eq!(f32_from_f16(f16_from_f32(f32::INFINITY)), f32::INFINITY);
        assert!(f32_from_f16(f16_from_f32(f32::NAN)).is_nan());
        // Smallest f16 subnormal decodes exactly.
        assert_eq!(f32_from_f16(0x0001), f32::powi(2.0, -24));
    }

    #[test]
    fn f16_quantisation_error_is_within_half_ulp() {
        // RNE guarantees |x − decode(encode(x))| ≤ 2⁻¹¹·|x| for normal
        // range — the bound the `Fast` profile's ε budget is derived from.
        let mut state = 0x12345u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((state >> 40) as i32 as f32) / 8.0e6; // ~[-1, 1]
            let back = f32_from_f16(f16_from_f32(v));
            assert!(
                (back - v).abs() <= v.abs() * 4.9e-4 + 1e-8,
                "f16 error too large at {v}: {back}"
            );
        }
    }

    #[test]
    fn widen_matches_scalar_decode_bitwise() {
        let src: Vec<u16> = (0..1003).map(|i| f16_from_f32((i as f32 - 500.0) * 0.37)).collect();
        let mut fast = vec![0.0f32; src.len()];
        widen_f16(&src, &mut fast);
        for (i, (&h, &w)) in src.iter().zip(&fast).enumerate() {
            assert_eq!(w.to_bits(), f32_from_f16(h).to_bits(), "lane {i}");
        }
    }

    #[test]
    fn active_arm_is_stable_and_consistent_with_detection() {
        let arm = active_arm();
        assert_eq!(arm, active_arm(), "cached arm must not change");
        if arm == SimdArm::Avx2 {
            assert!(avx2_available());
        }
    }
}
