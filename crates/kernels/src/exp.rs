//! The softmax exponential — the ladder's one transcendental, per
//! kernel tier.
//!
//! Every softmax in the engine (deterministic segmentation, every
//! Monte-Carlo sample of verify and audit, training) ends its middle
//! class sweep in one row kernel:
//!
//! ```text
//! row[i] = exp(row[i] - max[i])
//! sum[i] += row[i]
//! ```
//!
//! # The algorithm: glibc's `expf`, exactly
//!
//! [`expf`] is a port of the double-precision `expf` glibc has shipped
//! since 2.28 (`sysdeps/ieee754/flt-32/e_expf.c`, from Arm's optimized
//! routines): with `N = 32`,
//!
//! ```text
//! k  = round(x · N/ln2)            (shift trick: + 1.5·2^52)
//! r  = x · N/ln2 − k               (|r| ≤ 1/2)
//! s  = 2^(k/N) = T[k mod N] · 2^⌊k/N⌋ (a 32-entry table plus an
//!                                   exponent add)
//! y  = s · (C0·r³ + C1·r² + C2·r + 1)
//! exp(x) = (float) y
//! ```
//!
//! all in `f64`, with `|x| ≥ 88` and NaN sent to a short special-case
//! path (`-inf` → 0, NaN → `x + x`, above 88.72 → `+inf`, below −103.97
//! → `+0`). x86_64 glibc runs a copy of this file compiled for FMA
//! hardware, where the compiler fuses every multiply-add: the range
//! reduction (`x·N/ln2 + shift` and `x·N/ln2 − k` each round once) and
//! the three polynomial steps. The port spells each of those five
//! operations as [`f64::mul_add`], so it reproduces that build **bit
//! for bit on all 2^32 inputs** — proven by the ignored
//! `expf_matches_libm_on_every_f32` test, which CI runs on x86_64
//! (`cargo test --release -p el-kernels -- --ignored`). The same
//! algorithm without the fused range reduction differs from it on two
//! inputs (32.564632 and −63.09946), so the fusion is not optional.
//!
//! # The contract
//!
//! This is the ladder's **one deliberate use of a fused multiply-add**
//! (GEMM and the Welford fold never fuse). It stays inside the
//! bit-exactness contract because a fused multiply-add is correctly
//! rounded: `fma(a, b, c)` has exactly one right answer, whether libm
//! computes it in software, `vfmadd` computes it on AVX2/AVX-512, or
//! `fmla` computes it on NEON. Every tier evaluates the identical
//! `f64` operation sequence lane-wise, so every tier reproduces
//! [`exp_sub_sum_portable`] bit for bit — and softmax outputs no longer
//! depend on the platform libm, whose `expf` differs between
//! architectures (aarch64 glibc rounds the reduction differently).
//!
//! | tier | row kernel |
//! |---|---|
//! | `portable`, `sse2` | scalar [`expf`] per element (`f64::mul_add`) |
//! | `avx2` | 4 doubles per half, table lookup by gather; needs FMA, which the tier's detection requires |
//! | `avx512` | 8 doubles per half, table lookup by two `permutex2var` and a blend; the row ends in one masked step |
//! | `neon` | 2 doubles per half, `vfmaq_f64` |
//!
//! The vector kernels send a lane with `|x| ≥ 88` or NaN through the
//! scalar [`expf`], so the special cases have a single implementation.
//! Without hardware FMA, [`f64::mul_add`] is a libm call, which makes
//! the portable and `sse2` rows slower than a plain `f32::exp` loop;
//! every tier with a vector row is faster.

/// glibc's `__exp2f_data.tab`: `T[i] = bits(2^(i/32)) − (i << 47)`, so
/// that `T[k mod 32] + (k << 47)` is the bit pattern of `2^(k/32)` for
/// any `|k| < 150·32` (the low 17 bits of `k` carry into the exponent).
const TAB: [u64; 32] = [
    0x3FF0_0000_0000_0000,
    0x3FEF_D9B0_D315_8574,
    0x3FEF_B558_6CF9_890F,
    0x3FEF_9301_D012_5B51,
    0x3FEF_72B8_3C7D_517B,
    0x3FEF_5487_3168_B9AA,
    0x3FEF_387A_6E75_6238,
    0x3FEF_1E9D_F51F_DEE1,
    0x3FEF_06FE_0A31_B715,
    0x3FEE_F1A7_373A_A9CB,
    0x3FEE_DEA6_4C12_3422,
    0x3FEE_CE08_6061_892D,
    0x3FEE_BFDA_D536_2A27,
    0x3FEE_B42B_569D_4F82,
    0x3FEE_AB07_DD48_5429,
    0x3FEE_A47E_B03A_5585,
    0x3FEE_A09E_667F_3BCD,
    0x3FEE_9F75_E8EC_5F74,
    0x3FEE_A114_73EB_0187,
    0x3FEE_A589_994C_CE13,
    0x3FEE_ACE5_422A_A0DB,
    0x3FEE_B737_B0CD_C5E5,
    0x3FEE_C491_82A3_F090,
    0x3FEE_D503_B23E_255D,
    0x3FEE_E89F_995A_D3AD,
    0x3FEE_FF76_F2FB_5E47,
    0x3FEF_199B_DD85_529C,
    0x3FEF_3720_DCEF_9069,
    0x3FEF_5818_DCFB_A487,
    0x3FEF_7C97_337B_9B5F,
    0x3FEF_A4AF_A2A4_90DA,
    0x3FEF_D076_5B6E_4540,
];

/// `32 / ln 2` (glibc's `invln2_scaled`, `0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652B_82FE);
/// `1.5 · 2^52`: adding it rounds to an integer held in the low
/// mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic coefficients, pre-scaled by `1/32³`, `1/32²` and `1/32`
/// (glibc's `poly_scaled`).
const C0: f64 = f64::from_bits(0x3EBC_6AF8_4B91_2394);
const C1: f64 = f64::from_bits(0x3F2E_BFCE_50FA_C4F3);
const C2: f64 = f64::from_bits(0x3F96_2E42_FF0C_52D6);
/// `|x|` bit patterns at or above this (88.0) or NaN take the
/// special-case path.
const SPECIAL_ABS: u32 = 0x42B0_0000;
/// Largest input with a finite result, `0x1.62e42ep6` ≈ 88.72.
const OVERFLOW: f32 = f32::from_bits(0x42B1_7217);
/// Smallest input with a nonzero result, `−0x1.9fe368p6` ≈ −103.97.
const UNDERFLOW: f32 = f32::from_bits(0xC2CF_F1B4);

/// `exp(x)`, bit-identical to glibc's FMA build of `expf` — the scalar
/// ground truth of every `exp` row kernel (see the module docs).
#[inline]
pub fn expf(x: f32) -> f32 {
    if x.to_bits() & 0x7FFF_FFFF >= SPECIAL_ABS {
        if x.is_nan() || x.is_infinite() {
            return if x == f32::NEG_INFINITY { 0.0 } else { x + x };
        }
        if x > OVERFLOW {
            return f32::INFINITY;
        }
        if x < UNDERFLOW {
            return 0.0;
        }
    }
    let xd = x as f64;
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r * r, y);
    (y * s) as f32
}

/// Portable row kernel: `row[i] = expf(row[i] - max[i])`,
/// `sum[i] += row[i]` — the reference every SIMD tier must reproduce
/// bit for bit.
pub fn exp_sub_sum_portable(row: &mut [f32], max: &[f32], sum: &mut [f32]) {
    debug_assert!(row.len() == max.len() && row.len() == sum.len());
    for ((v, &m), s) in row.iter_mut().zip(max).zip(sum.iter_mut()) {
        let e = expf(*v - m);
        *v = e;
        *s += e;
    }
}

/// Recomputes the lanes named by the bit mask `lanes` with the scalar
/// [`expf`] — how the vector kernels send `|x| ≥ 88` and NaN lanes
/// through the one special-case implementation.
#[allow(dead_code)] // unused on targets with no SIMD tier
#[inline]
fn patch_special_lanes(xs: &[f32], es: &mut [f32], mut lanes: u32) {
    while lanes != 0 {
        let l = lanes.trailing_zeros() as usize;
        es[l] = expf(xs[l]);
        lanes &= lanes - 1;
    }
}

macro_rules! exp_entry {
    ($entry:ident, $inner:ident, $doc_tier:literal) => {
        #[doc = concat!($doc_tier, " `exp_sub_sum` row kernel.")]
        #[doc = ""]
        #[doc = "Crate-private: reachable only through the feature-checked"]
        #[doc = "dispatch table, which is what makes the entry safe."]
        pub(crate) fn $entry(row: &mut [f32], max: &[f32], sum: &mut [f32]) {
            debug_assert!(row.len() == max.len() && row.len() == sum.len());
            // Safety: tier availability is guaranteed by the dispatch
            // table; the pointers cover exactly the slices.
            unsafe { $inner(row.as_mut_ptr(), max.as_ptr(), sum.as_mut_ptr(), row.len()) }
        }
    };
}

#[cfg(target_arch = "x86_64")]
exp_entry!(exp_sub_sum_avx2, exp_sub_sum_avx2_inner, "AVX2+FMA");
#[cfg(target_arch = "x86_64")]
exp_entry!(exp_sub_sum_avx512, exp_sub_sum_avx512_inner, "AVX-512F");
#[cfg(target_arch = "aarch64")]
exp_entry!(exp_sub_sum_neon, exp_sub_sum_neon_inner, "NEON");

/// [`expf`]'s non-special path on 4 doubles, rounded to 4 floats.
///
/// # Safety
///
/// AVX2 and FMA must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn exp4_avx2(xd: core::arch::x86_64::__m256d) -> core::arch::x86_64::__m128 {
    use core::arch::x86_64::*;
    let inv = _mm256_set1_pd(INV_LN2_N);
    let shift = _mm256_set1_pd(SHIFT);
    let kd = _mm256_fmadd_pd(inv, xd, shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_fmsub_pd(inv, xd, kd);
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let t = _mm256_i64gather_epi64::<8>(TAB.as_ptr() as *const i64, idx);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
    let y = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
    let y = _mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// AVX2+FMA row kernel: 8 pixels per step as two halves of 4 doubles,
/// scalar tail.
///
/// # Safety
///
/// AVX2 and FMA must be available; pointers valid for `len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_sub_sum_avx2_inner(row: *mut f32, max: *const f32, sum: *mut f32, len: usize) {
    use core::arch::x86_64::*;
    const W: usize = 8;
    let abs = _mm256_set1_epi32(0x7FFF_FFFF);
    let below_special = _mm256_set1_epi32(SPECIAL_ABS as i32 - 1);
    let mut i = 0usize;
    while i + W <= len {
        let x = _mm256_sub_ps(_mm256_loadu_ps(row.add(i)), _mm256_loadu_ps(max.add(i)));
        let lo = exp4_avx2(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = exp4_avx2(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        let mut e = _mm256_set_m128(hi, lo);
        let special =
            _mm256_cmpgt_epi32(_mm256_and_si256(_mm256_castps_si256(x), abs), below_special);
        let lanes = _mm256_movemask_ps(_mm256_castsi256_ps(special)) as u32;
        if lanes != 0 {
            let (mut xs, mut es) = ([0.0f32; W], [0.0f32; W]);
            _mm256_storeu_ps(xs.as_mut_ptr(), x);
            _mm256_storeu_ps(es.as_mut_ptr(), e);
            patch_special_lanes(&xs, &mut es, lanes);
            e = _mm256_loadu_ps(es.as_ptr());
        }
        _mm256_storeu_ps(row.add(i), e);
        _mm256_storeu_ps(sum.add(i), _mm256_add_ps(_mm256_loadu_ps(sum.add(i)), e));
        i += W;
    }
    for j in i..len {
        let e = expf(*row.add(j) - *max.add(j));
        *row.add(j) = e;
        *sum.add(j) += e;
    }
}

/// [`expf`]'s non-special path on 8 doubles, rounded to 8 floats. The
/// 32-entry table lives in four registers; two `permutex2var` look up
/// entries 0–15 and 16–31 by the index's low four bits, and bit 4
/// picks between them.
///
/// # Safety
///
/// AVX-512F must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn exp8_avx512(
    xd: core::arch::x86_64::__m512d,
    tab: &[core::arch::x86_64::__m512i; 4],
) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    let inv = _mm512_set1_pd(INV_LN2_N);
    let shift = _mm512_set1_pd(SHIFT);
    let kd = _mm512_fmadd_pd(inv, xd, shift);
    let ki = _mm512_castpd_si512(kd);
    let kd = _mm512_sub_pd(kd, shift);
    let r = _mm512_fmsub_pd(inv, xd, kd);
    let t_lo = _mm512_permutex2var_epi64(tab[0], ki, tab[1]);
    let t_hi = _mm512_permutex2var_epi64(tab[2], ki, tab[3]);
    let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
    let t = _mm512_mask_blend_epi64(upper, t_lo, t_hi);
    let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
    let z = _mm512_fmadd_pd(_mm512_set1_pd(C0), r, _mm512_set1_pd(C1));
    let y = _mm512_fmadd_pd(_mm512_set1_pd(C2), r, _mm512_set1_pd(1.0));
    let y = _mm512_fmadd_pd(z, _mm512_mul_pd(r, r), y);
    _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
}

/// AVX-512F row kernel: 16 pixels per step as two halves of 8 doubles;
/// the last step loads and stores only the row's remaining lanes, so
/// there is no scalar tail.
///
/// # Safety
///
/// AVX-512F must be available; pointers valid for `len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn exp_sub_sum_avx512_inner(row: *mut f32, max: *const f32, sum: *mut f32, len: usize) {
    use core::arch::x86_64::*;
    const W: usize = 16;
    let tab = [
        _mm512_loadu_si512(TAB.as_ptr() as *const __m512i),
        _mm512_loadu_si512(TAB[8..].as_ptr() as *const __m512i),
        _mm512_loadu_si512(TAB[16..].as_ptr() as *const __m512i),
        _mm512_loadu_si512(TAB[24..].as_ptr() as *const __m512i),
    ];
    let abs = _mm512_set1_epi32(0x7FFF_FFFF);
    let special_abs = _mm512_set1_epi32(SPECIAL_ABS as i32);
    let mut i = 0usize;
    while i < len {
        // Dead lanes load 0 − 0 = 0: never special, never stored.
        let live: __mmask16 = if len - i >= W {
            0xFFFF
        } else {
            (1u16 << (len - i)) - 1
        };
        let x = _mm512_sub_ps(
            _mm512_maskz_loadu_ps(live, row.add(i)),
            _mm512_maskz_loadu_ps(live, max.add(i)),
        );
        let lo = exp8_avx512(_mm512_cvtps_pd(_mm512_castps512_ps256(x)), &tab);
        let x_hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)));
        let hi = exp8_avx512(_mm512_cvtps_pd(x_hi), &tab);
        let mut e = _mm512_castpd_ps(_mm512_insertf64x4::<1>(
            _mm512_castpd256_pd512(_mm256_castps_pd(lo)),
            _mm256_castps_pd(hi),
        ));
        let lanes =
            _mm512_cmpge_epu32_mask(_mm512_and_si512(_mm512_castps_si512(x), abs), special_abs);
        if lanes != 0 {
            let (mut xs, mut es) = ([0.0f32; W], [0.0f32; W]);
            _mm512_storeu_ps(xs.as_mut_ptr(), x);
            _mm512_storeu_ps(es.as_mut_ptr(), e);
            patch_special_lanes(&xs, &mut es, lanes as u32);
            e = _mm512_loadu_ps(es.as_ptr());
        }
        _mm512_mask_storeu_ps(row.add(i), live, e);
        let s = _mm512_add_ps(_mm512_maskz_loadu_ps(live, sum.add(i)), e);
        _mm512_mask_storeu_ps(sum.add(i), live, s);
        i += W;
    }
}

/// [`expf`]'s non-special path on 2 doubles.
///
/// # Safety
///
/// NEON must be available (the aarch64 baseline).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[inline]
unsafe fn exp2_neon(xd: core::arch::aarch64::float64x2_t) -> core::arch::aarch64::float64x2_t {
    use core::arch::aarch64::*;
    let inv = vdupq_n_f64(INV_LN2_N);
    let shift = vdupq_n_f64(SHIFT);
    // vfmaq_f64(a, b, c) = a + b·c, rounded once.
    let kd = vfmaq_f64(shift, inv, xd);
    let ki = vreinterpretq_u64_f64(kd);
    let kd = vsubq_f64(kd, shift);
    let r = vfmaq_f64(vnegq_f64(kd), inv, xd);
    let t = vcombine_u64(
        vcreate_u64(TAB[(vgetq_lane_u64::<0>(ki) % 32) as usize]),
        vcreate_u64(TAB[(vgetq_lane_u64::<1>(ki) % 32) as usize]),
    );
    let s = vreinterpretq_f64_u64(vaddq_u64(t, vshlq_n_u64::<47>(ki)));
    let z = vfmaq_f64(vdupq_n_f64(C1), vdupq_n_f64(C0), r);
    let y = vfmaq_f64(vdupq_n_f64(1.0), vdupq_n_f64(C2), r);
    let y = vfmaq_f64(y, z, vmulq_f64(r, r));
    vmulq_f64(y, s)
}

/// NEON row kernel: 4 pixels per step as two halves of 2 doubles,
/// scalar tail.
///
/// # Safety
///
/// Pointers valid for `len` reads/writes.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn exp_sub_sum_neon_inner(row: *mut f32, max: *const f32, sum: *mut f32, len: usize) {
    use core::arch::aarch64::*;
    const W: usize = 4;
    let abs = vdupq_n_u32(0x7FFF_FFFF);
    let special_abs = vdupq_n_u32(SPECIAL_ABS);
    let mut i = 0usize;
    while i + W <= len {
        let x = vsubq_f32(vld1q_f32(row.add(i)), vld1q_f32(max.add(i)));
        let lo = exp2_neon(vcvt_f64_f32(vget_low_f32(x)));
        let hi = exp2_neon(vcvt_high_f64_f32(x));
        let mut e = vcvt_high_f32_f64(vcvt_f32_f64(lo), hi);
        let special = vcgeq_u32(vandq_u32(vreinterpretq_u32_f32(x), abs), special_abs);
        if vmaxvq_u32(special) != 0 {
            let (mut xs, mut es, mut flags) = ([0.0f32; W], [0.0f32; W], [0u32; W]);
            vst1q_f32(xs.as_mut_ptr(), x);
            vst1q_f32(es.as_mut_ptr(), e);
            vst1q_u32(flags.as_mut_ptr(), special);
            let lanes = flags
                .iter()
                .enumerate()
                .fold(0u32, |acc, (l, &f)| acc | (((f != 0) as u32) << l));
            patch_special_lanes(&xs, &mut es, lanes);
            e = vld1q_f32(es.as_ptr());
        }
        vst1q_f32(row.add(i), e);
        vst1q_f32(sum.add(i), vaddq_f32(vld1q_f32(sum.add(i)), e));
        i += W;
    }
    for j in i..len {
        let e = expf(*row.add(j) - *max.add(j));
        *row.add(j) = e;
        *sum.add(j) += e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expf_special_cases() {
        assert_eq!(expf(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(expf(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        // The overflow and underflow cutoffs, and one ulp past each.
        assert!(expf(OVERFLOW).is_finite());
        assert_eq!(expf(f32::from_bits(OVERFLOW.to_bits() + 1)), f32::INFINITY);
        assert!(expf(UNDERFLOW) > 0.0);
        assert_eq!(expf(f32::from_bits(UNDERFLOW.to_bits() + 1)).to_bits(), 0);
        // NaN comes back quiet with its payload and sign.
        for bits in [0x7FC0_0001u32, 0xFFC0_1234, 0x7F80_0001, 0xFF80_4321] {
            let e = expf(f32::from_bits(bits));
            assert!(e.is_nan());
            assert_eq!(e.to_bits(), bits | 0x0040_0000, "NaN {bits:08x}");
        }
    }

    #[test]
    fn expf_is_within_one_ulp_of_the_f64_exponential() {
        // A libm-independent accuracy check: the f64 result rounded to
        // f32 is within half an f32 ulp of the truth, and glibc's
        // algorithm is within one ulp of it.
        let mut bits = 0x3F80_0000u32;
        for _ in 0..20_000 {
            bits = bits.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let x = f32::from_bits(bits);
            if !(-103.0..88.0).contains(&x) {
                continue;
            }
            let (got, want) = (expf(x), (x as f64).exp() as f32);
            let ulps = (got.to_bits() as i64 - want.to_bits() as i64).abs();
            assert!(ulps <= 1, "expf({x}) = {got:e}, f64 exp rounds to {want:e}");
        }
    }

    /// The exhaustive proof behind the module's claim: [`expf`] equals
    /// the platform `f32::exp` on every one of the 2^32 bit patterns,
    /// NaN payloads included. It holds against x86_64 glibc ≥ 2.28 on
    /// FMA hardware; on a host whose libm computes `expf` differently
    /// it fails and lists the first inputs that disagree. About a
    /// minute of CPU in release mode, split over the available cores.
    #[test]
    #[ignore = "exhaustive 2^32 sweep against the platform libm; run in release"]
    fn expf_matches_libm_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut bad = Vec::new();
                    let end = ((t + 1) * span).min(1 << 32);
                    for b in t * span..end {
                        let x = f32::from_bits(b as u32);
                        let (ours, libm) = (expf(x), x.exp());
                        if ours.to_bits() != libm.to_bits() && bad.len() < 8 {
                            bad.push(format!(
                                "x = {x:e} ({b:08x}): expf {ours:e} ({:08x}), libm {libm:e} ({:08x})",
                                ours.to_bits(),
                                libm.to_bits()
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        let bad: Vec<String> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("sweep worker"))
            .collect();
        assert!(
            bad.is_empty(),
            "expf differs from this host's libm expf:\n{}",
            bad.join("\n")
        );
    }
}
