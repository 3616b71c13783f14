//! Sum-lane certificates: how the group phase adds a numeric column's
//! values exactly.
//!
//! `SUM`/`AVG` are the correctly rounded exact sum of their inputs. Most
//! real columns admit a cheap exact representation: every value is a
//! finite multiple of some power of two `2^s`, and the largest one is small
//! enough that any sum of the column's values, counted in units of `2^s`,
//! fits an `i128`. Such a column takes the [`SumLane::Fixed`] lane, where
//! an exact sum is a run of integer adds. Every other column — non-finite
//! values, or an exponent range too wide for 127 bits — takes the
//! [`SumLane::General`] lane. A float column's certificate is computed
//! once, when the table is built, and never per scan; an integer column
//! always takes [`SumLane::INT`] without a pass over its values.

/// Magnitude bits (sign excluded) an `i128` fixed-point sum may use.
const FIXED_LANE_BITS: i32 = 127;

/// The largest unit exponent magnitude the fixed lane takes: for
/// `|s| ≤ 1022`, `2^s` and `2^-s` are both normal floats, so scaling into
/// and out of the lane is one exact multiply each way.
const MAX_FIXED_SHIFT: i32 = 1022;

/// How the group phase sums a numeric column exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumLane {
    /// Every value is a finite multiple of `2^shift`, and any sum of the
    /// column's values, counted in units of `2^shift`, fits an `i128`:
    /// `max_exp + 1 − shift + bit_length(rows) ≤ 127`, where `max_exp` is
    /// the largest value's binary exponent.
    Fixed {
        /// The exponent of the lane's unit, `2^shift`.
        shift: i32,
    },
    /// The general exact lane (a per-group superaccumulator plus NaN and
    /// infinity flags): non-finite values, units below `2^-1022` (or a
    /// column of only `±2^1023` and zeros), or an exponent range too wide
    /// for the fixed lane. The accumulator spans only the column's finite
    /// range, so a column of small integers with one NaN stays cheap.
    General {
        /// The exponent of the lowest set bit of any finite value.
        low: i32,
        /// Magnitude bits any sum of the column's finite values may need,
        /// in units of `2^low`: `max_exp + 1 − low + bit_length(rows)`.
        bits: i32,
    },
}

/// Number of bits needed to write `n` (0 for 0).
fn bit_length(n: usize) -> i32 {
    (usize::BITS - n.leading_zeros()) as i32
}

impl SumLane {
    /// The lane of an integer column: aggregates read integers as `f64`,
    /// and `|x as f64| ≤ 2^63`, so any sum of fewer than `2^63` of them,
    /// in units of 1, fits an `i128` without looking at the values.
    pub const INT: SumLane = SumLane::Fixed { shift: 0 };

    /// The certificate of a float column of `values`.
    pub fn of_f64(values: &[f64]) -> SumLane {
        let mut low = i32::MAX;
        let mut high = i32::MIN;
        let mut finite = true;
        for &x in values {
            let bits = x.to_bits();
            let field = (bits >> 52) & 0x7ff;
            if field == 0x7ff {
                finite = false;
                continue;
            }
            // x = ±m · 2^e; subnormals have no implicit bit and e = -1074.
            let m = (bits & ((1 << 52) - 1)) | (u64::from(field != 0) << 52);
            let e = field.max(1) as i32 - 1075;
            if m != 0 {
                low = low.min(e + m.trailing_zeros() as i32);
                high = high.max(e + 63 - m.leading_zeros() as i32);
            }
        }
        if low == i32::MAX {
            // No finite nonzero value: every finite sum is zero.
            return if finite {
                SumLane::Fixed { shift: 0 }
            } else {
                SumLane::General { low: 0, bits: 0 }
            };
        }
        let bits = high + 1 - low + bit_length(values.len());
        if finite && low.abs() <= MAX_FIXED_SHIFT && bits <= FIXED_LANE_BITS {
            SumLane::Fixed { shift: low }
        } else {
            SumLane::General { low, bits }
        }
    }
}

/// `2^e` for `e` in the normal range `[-1022, 1023]`.
#[inline]
pub fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e), "2^{e} is not a normal float");
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// `x` in units of `2^shift`, given `inv_unit = 2^-shift`, for a value of
/// a [`SumLane::Fixed`] column. Exact: the scaled value is an integer
/// below `2^126` in magnitude. One below `2^63` converts directly (the
/// common case: small integers in units of 1); a larger one splits exactly
/// into a high and a low part of at most 63 bits each.
#[inline]
pub fn to_fixed(x: f64, inv_unit: f64) -> i128 {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    let y = x * inv_unit;
    if y.abs() < TWO_63 {
        return i128::from(y as i64);
    }
    // Truncation toward zero keeps both parts' signs equal to y's, and the
    // remainder holds only y's low significant bits, so it is exact.
    let hi = (y * (1.0 / TWO_63)) as i64;
    let lo = (y - hi as f64 * TWO_63) as i64;
    (i128::from(hi) << 63) + i128::from(lo)
}

/// A fixed-lane sum in units of `unit = 2^shift`, rounded once to the
/// nearest `f64` (ties to even; `±∞` past the largest finite float). The
/// integer-to-float conversion is the one rounding: scaling by a power of
/// two is exact, and with `shift ≥ −1022` no nonzero result is subnormal.
#[inline]
pub fn from_fixed(sum: i128, unit: f64) -> f64 {
    sum as f64 * unit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(shift: i32) -> SumLane {
        SumLane::Fixed { shift }
    }

    #[test]
    fn small_integers_take_the_fixed_lane_in_units_of_one() {
        assert_eq!(SumLane::of_f64(&[1.0, 5.0, 3.0, 4.0]), fixed(0));
        assert_eq!(SumLane::of_f64(&[0.5, 2.25]), fixed(-2));
        assert_eq!(SumLane::of_f64(&[1024.0, -4096.0]), fixed(10));
    }

    #[test]
    fn all_zero_and_empty_columns_take_the_fixed_lane() {
        assert_eq!(SumLane::of_f64(&[0.0, -0.0, 0.0]), fixed(0));
        assert_eq!(SumLane::of_f64(&[]), fixed(0));
    }

    #[test]
    fn a_single_nan_or_infinity_forces_the_general_lane() {
        // The general lane still spans only the finite values' range:
        // ratings 1..5 (bits 2^0..2^2) over 4 rows need 3 + 3 bits.
        let small = SumLane::General { low: 0, bits: 6 };
        assert_eq!(SumLane::of_f64(&[1.0, f64::NAN, 5.0, 2.0]), small);
        assert_eq!(SumLane::of_f64(&[f64::INFINITY, 1.0, 5.0, 3.0]), small);
        assert_eq!(
            SumLane::of_f64(&[0.5, f64::NEG_INFINITY]),
            SumLane::General { low: -1, bits: 3 }
        );
        // No finite nonzero value: the finite part of any sum is zero.
        let empty = SumLane::General { low: 0, bits: 0 };
        assert_eq!(SumLane::of_f64(&[f64::NAN]), empty);
        assert_eq!(SumLane::of_f64(&[0.0, f64::INFINITY]), empty);
    }

    #[test]
    fn subnormal_only_columns_take_the_general_lane() {
        // The unit 2^-1074 lies below 2^-MAX_FIXED_SHIFT.
        let tiny = f64::from_bits(1);
        assert_eq!(
            SumLane::of_f64(&[tiny, 3.0 * tiny]),
            SumLane::General {
                low: -1074,
                bits: 4
            }
        );
        // The smallest normal is exactly the lowest admitted unit.
        assert_eq!(
            SumLane::of_f64(&[f64::MIN_POSITIVE, 2.0 * f64::MIN_POSITIVE]),
            fixed(-MAX_FIXED_SHIFT)
        );
    }

    #[test]
    fn units_beyond_2_pow_1022_take_the_general_lane() {
        // 2^-1023 would not be a normal float, so a column of only ±2^1023
        // cannot be scaled into units of 2^1023.
        assert_eq!(
            SumLane::of_f64(&[pow2(1023), -pow2(1023)]),
            SumLane::General { low: 1023, bits: 3 }
        );
        assert_eq!(
            SumLane::of_f64(&[pow2(1022), pow2(1023)]),
            fixed(MAX_FIXED_SHIFT)
        );
    }

    #[test]
    fn the_i128_limit_is_exact_to_the_bit() {
        // Two rows need bit_length(2) = 2 bits of headroom, so with unit 1
        // the largest value's high bit may sit at 2^124: 124 + 1 + 2 = 127.
        assert_eq!(SumLane::of_f64(&[1.0, pow2(124)]), fixed(0));
        // One bit past: the high bit moves to 2^125.
        assert_eq!(
            SumLane::of_f64(&[1.0, pow2(125)]),
            SumLane::General {
                low: 0,
                bits: FIXED_LANE_BITS + 1
            }
        );
        // The same span, shifted, is judged by its width, not position.
        assert_eq!(SumLane::of_f64(&[pow2(-60), pow2(64)]), fixed(-60));
        assert_eq!(
            SumLane::of_f64(&[pow2(-60), pow2(65)]),
            SumLane::General {
                low: -60,
                bits: FIXED_LANE_BITS + 1
            }
        );
        // A third row keeps bit_length(rows) at 2 (3 = 0b11); a fourth
        // raises it to 3 and pushes the same span over.
        assert_eq!(SumLane::of_f64(&[1.0, pow2(124), 0.0]), fixed(0));
        assert!(matches!(
            SumLane::of_f64(&[1.0, pow2(124), 0.0, 0.0]),
            SumLane::General { .. }
        ));
    }

    #[test]
    fn the_integer_lane_holds_any_column_sum() {
        // |i64::MIN as f64| = 2^63, so fewer than 2^63 rows sum below
        // 2^126 units, and each converted value is inside `to_fixed`'s
        // range.
        let SumLane::Fixed { shift } = SumLane::INT else {
            panic!("integers take the fixed lane")
        };
        assert_eq!(shift, 0);
        assert_eq!(to_fixed(i64::MIN as f64, 1.0), -(1i128 << 63));
        assert_eq!(to_fixed(i64::MAX as f64, 1.0), 1i128 << 63);
    }

    #[test]
    fn decimal_measures_take_the_fixed_lane() {
        // Cents computed in floating point: multiples of small powers of
        // two far below 2^0, as in the TPC-DS-shaped generator.
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.01 - 3.7).collect();
        match SumLane::of_f64(&vals) {
            SumLane::Fixed { shift } => assert!(shift < -50, "shift {shift}"),
            lane => panic!("cents should fit the fixed lane, got {lane:?}"),
        }
    }

    #[test]
    fn to_fixed_is_exact_across_the_lane() {
        for (x, shift, want) in [
            (5.0, 0, 5i128),
            (-5.0, 0, -5),
            (0.75, -2, 3),
            (-0.0, 0, 0),
            // Either side of the direct conversion's 2^63 edge.
            (pow2(63) - 1024.0, 0, (1i128 << 63) - 1024),
            (-(pow2(63) - 1024.0), 0, -((1i128 << 63) - 1024)),
            (pow2(63), 0, 1i128 << 63),
            (-pow2(63), 0, -(1i128 << 63)),
            // Both halves of the split in play, with either sign.
            (pow2(100) + pow2(60), 0, (1i128 << 100) + (1 << 60)),
            (-(pow2(100) + pow2(60)), 0, -((1i128 << 100) + (1 << 60))),
            // The largest magnitude a lane value can have: 2^126 − 2^73.
            (pow2(126) - pow2(73), 0, (1i128 << 126) - (1i128 << 73)),
            (
                -(pow2(126) - pow2(73)),
                0,
                -((1i128 << 126) - (1i128 << 73)),
            ),
            (f64::MIN_POSITIVE * 3.0, -MAX_FIXED_SHIFT, 3),
        ] {
            assert_eq!(to_fixed(x, pow2(-shift)), want, "{x:e} at 2^{shift}");
        }
    }

    #[test]
    fn from_fixed_rounds_once_at_the_overflow_edge() {
        // With unit 2^970 (half an ulp of f64::MAX), MAX is 2^54 − 2 units.
        let unit = pow2(970);
        assert_eq!(from_fixed((1 << 54) - 2, unit), f64::MAX);
        // Half an ulp above MAX is a tie; MAX's significand is odd, so it
        // rounds to even — up, past the largest float, to +inf.
        assert_eq!(from_fixed((1 << 54) - 1, unit), f64::INFINITY);
        assert_eq!(from_fixed(-((1 << 54) - 1), unit), f64::NEG_INFINITY);
        // Half an ulp below MAX ties between MAX − ulp (even) and MAX.
        assert_eq!(from_fixed((1 << 54) - 3, unit), f64::MAX - pow2(971));
        // A sum far past MAX is +inf, not a wrapped or saturated value.
        assert_eq!(from_fixed(1 << 100, pow2(1000)), f64::INFINITY);
    }

    #[test]
    fn from_fixed_rounds_once_at_the_subnormal_edge() {
        let unit = pow2(-MAX_FIXED_SHIFT);
        // The lane's smallest nonzero sum is the smallest normal float.
        assert_eq!(from_fixed(1, unit), f64::MIN_POSITIVE);
        assert_eq!(from_fixed(-1, unit), -f64::MIN_POSITIVE);
        assert_eq!(from_fixed(0, unit).to_bits(), 0, "zero is +0.0");
        // 2^53 + 1 units is a tie between 2^53 and 2^53 + 2: even wins,
        // and the scaled result is exact (no second rounding).
        let tie = (1i128 << 53) + 1;
        assert_eq!(from_fixed(tie, unit), pow2(53 - MAX_FIXED_SHIFT));
        let above = (1i128 << 53) + 3;
        assert_eq!(
            from_fixed(above, unit),
            (pow2(53) + 4.0) * unit,
            "2^53 + 3 ties up to the even 2^53 + 4"
        );
    }
}
