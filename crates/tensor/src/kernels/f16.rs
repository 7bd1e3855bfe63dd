//! The IEEE `binary16` (`f16`) codec behind the serving `Fast` profile's
//! quantised parameters.
//!
//! `Fast` serves θ′ = `decode(encode(θ))` for some tensors, held as ordinary
//! `f32`: [`f16_from_f32`] is the one deterministic encoder and
//! [`f32_from_f16`] the exact decoder (every `f16` value is an `f32` value).
//! Nothing is stored or computed in half precision.

/// Converts one f32 to IEEE-754 binary16 bits, round-to-nearest-even — the
/// single deterministic encoder the `Fast` profile's parameters go through.
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
/// representable in f32, so this is the inverse-free direction.
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
                // NaN: shift the payload up, keep it quiet.
                f32::from_bits(sign32 | 0x7fc0_0000 | (mant << 13))
            }
        }
        _ => f32::from_bits(sign32 | ((exp + 112) << 23) | (mant << 13)),
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
}
