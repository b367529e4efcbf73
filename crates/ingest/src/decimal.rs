//! Exact conversion of plain decimal fields, straight from bytes.
//!
//! [`parse_plain_decimal`] reads the form `-?[0-9]+(\.[0-9]+)?` with at
//! most 19 significant digits (leading zeros do not count) and at most 27
//! fraction digits. Such a field is exactly
//! `±m · 10^-k` with an integer `m < 10^19` (it fits a `u64`) and
//! `0 ≤ k ≤ 27`, and the function returns the `f64` nearest to it (ties to
//! even): the value `str::parse::<f64>` returns for the same text, bit for
//! bit. Every other input gets `None`, so a caller can hand it to
//! `str::parse` and accept exactly the language it accepts.
//!
//! The fraction digits are read eight at a time while eight are digits
//! (one `u64` load, a range check and three multiplies), the rest and the
//! integer part, which is short, one at a time. The value is then formed
//! in one of two exact ways:
//!
//! * **Clinger's case**, `m ≤ 2⁵³` and `k ≤ 22`: `m` and `10^k` are both
//!   exact `f64` values, so the one correctly rounded division `m / 10^k`
//!   is the answer.
//! * **Eisel–Lemire** otherwise (Lemire, "Number Parsing at a Gigabyte
//!   per Second", arXiv 2101.11408): `m` is normalized and multiplied by
//!   a 128-bit approximation of `5^-k`, and the top bits of the product
//!   give the significand. For `-27 ≤ -k ≤ 0` the approximation is
//!   `⌊2^b / 5^k⌋ + 1` with `5^k < 2⁶⁴`, for which the paper shows the
//!   product always decides the rounding, ties included; the table is
//!   built by a `const fn` at compile time. `str::parse` runs the same
//!   algorithm on these inputs. Should the product still leave the result
//!   undecided, the function returns `None` rather than guess.

/// Most significant digits a field may have: `10^19 - 1 < 2⁶⁴`.
const MAX_DIGITS: usize = 19;
/// Most digits after the point: for `5^k < 2⁶⁴`, `k ≤ 27`, the
/// Eisel–Lemire product always decides the rounding.
const MAX_FRACTION_DIGITS: usize = 27;

/// `10^k` for `k ≤ 22`, each exact in an `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `(hi, lo)` halves of a 128-bit approximation of `5^-k`, `k ≤ 27`, with
/// its top bit set: `⌊2^(127 + z) / 5^k⌋ + 1` where `2^(z-1) < 5^k < 2^z`,
/// and exactly `2^127` for `k = 0`.
const POW5: [(u64, u64); MAX_FRACTION_DIGITS + 1] = pow5_table();

const fn pow5_table() -> [(u64, u64); MAX_FRACTION_DIGITS + 1] {
    let mut table = [(1u64 << 63, 0u64); MAX_FRACTION_DIGITS + 1];
    let mut k = 1;
    let mut five_k: u128 = 1;
    while k <= MAX_FRACTION_DIGITS {
        five_k *= 5;
        let z = 128 - five_k.leading_zeros();
        // Long division of 2^(127 + z) by 5^k: the quotient has 128 bits.
        let (mut quotient, mut rem): (u128, u128) = (0, 1);
        let mut step = 0;
        while step < 127 + z {
            rem <<= 1;
            quotient <<= 1;
            if rem >= five_k {
                rem -= five_k;
                quotient |= 1;
            }
            step += 1;
        }
        let c = quotient + 1;
        table[k] = ((c >> 64) as u64, c as u64);
        k += 1;
    }
    table
}

/// The plain decimal field at the start of `s`, which ends at the end
/// of `s` or at a comma, and the bytes it spans; `None` when `s` does not
/// start with such a field in the accepted form (see the module docs).
#[inline]
pub(crate) fn parse_field(s: &[u8]) -> Option<(f64, usize)> {
    let negative = s.first() == Some(&b'-');
    let (m, k, len) = field_digits(&s[usize::from(negative)..])?;
    let magnitude = to_f64(m, k)?;
    let signed = f64::from_bits(magnitude.to_bits() | (u64::from(negative) << 63));
    Some((signed, usize::from(negative) + len))
}

/// The unsigned field at the start of `s` as `(m, k, length)`: the
/// field is `m · 10^-k` and spans `length` bytes.
#[inline(always)]
fn field_digits(s: &[u8]) -> Option<(u64, usize, usize)> {
    // Integer parts are short: digit by digit, without a wide load first.
    let (mut m, mut int_len) = (0u64, 0);
    while let Some(&b) = s.get(int_len).filter(|b| b.is_ascii_digit()) {
        m = m.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        int_len += 1;
    }
    if int_len == 0 {
        return None;
    }
    let mut end = int_len;
    let mut frac_len = 0;
    if s.get(end) == Some(&b'.') {
        let (with_frac, n) = digit_run(&s[end + 1..], m);
        if n == 0 {
            return None;
        }
        (m, frac_len, end) = (with_frac, n, end + 1 + n);
    }
    if !matches!(s.get(end), None | Some(b',')) || frac_len > MAX_FRACTION_DIGITS {
        return None;
    }
    // Leading zeros add nothing to `m`; past them at most 19 digits keep
    // the wrapping accumulation exact.
    if int_len + frac_len > MAX_DIGITS {
        let mut zeros = s[..int_len].iter().take_while(|&&b| b == b'0').count();
        if zeros == int_len {
            zeros += s[end - frac_len..end]
                .iter()
                .take_while(|&&b| b == b'0')
                .count();
        }
        if int_len + frac_len - zeros > MAX_DIGITS {
            return None;
        }
    }
    Some((m, frac_len, end))
}

/// Accumulate the run of ASCII digits at the start of `s` onto `m`,
/// eight at a time while eight are digits, then one at a time. Returns
/// the new `m` (wrapping past 2⁶⁴; the caller bounds the digit count)
/// and the run's length.
#[inline(always)]
fn digit_run(s: &[u8], mut m: u64) -> (u64, usize) {
    let mut i = 0;
    while let Some(eight) = s[i..].first_chunk::<8>() {
        let v = u64::from_le_bytes(*eight);
        if non_digit_bytes(v) != 0 {
            break;
        }
        m = m
            .wrapping_mul(100_000_000)
            .wrapping_add(eight_digit_value(v));
        i += 8;
    }
    while let Some(&b) = s.get(i) {
        if !b.is_ascii_digit() {
            break;
        }
        m = m.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        i += 1;
    }
    (m, i)
}

/// Eight ASCII `'0'` bytes.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// Nonzero unless all eight bytes of `v` are ASCII digits: adding `0x46`
/// carries into a byte's top bit from `b'9' + 1` up, and subtracting
/// `0x30` borrows into it below `b'0'`.
#[inline(always)]
fn non_digit_bytes(v: u64) -> u64 {
    let above = v.wrapping_add(0x4646_4646_4646_4646);
    let below = v.wrapping_sub(ASCII_ZEROS);
    (above | below) & 0x8080_8080_8080_8080
}

/// The value of eight ASCII digits loaded little-endian (first digit in
/// the lowest byte): pairs, then quads, then the whole.
#[inline(always)]
fn eight_digit_value(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 0x000F_4240_0000_0064; // 100 + (1_000_000 << 32)
    const MUL2: u64 = 0x0000_2710_0000_0001; // 1 + (10_000 << 32)
    let v = v - ASCII_ZEROS;
    let v = v * 10 + (v >> 8);
    let pairs_lo = (v & MASK).wrapping_mul(MUL1);
    let pairs_hi = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((pairs_lo.wrapping_add(pairs_hi) >> 32) as u32)
}

/// The `f64` nearest `m · 10^-k`, ties to even, for `m < 10^19` and
/// `k ≤ 27`; `None` if Eisel–Lemire leaves it undecided.
#[inline(always)]
fn to_f64(m: u64, k: usize) -> Option<f64> {
    if m == 0 {
        return Some(0.0);
    }
    if m <= 1 << 53 && k < POW10.len() {
        return Some(m as f64 / POW10[k]);
    }
    eisel_lemire(m, k)
}

/// Eisel–Lemire for `m · 5^-k · 2^-k`, `0 < m < 10^19`, `k ≤ 27`. The
/// result is far inside the normal range, so there is no subnormal,
/// overflow or underflow case.
fn eisel_lemire(m: u64, k: usize) -> Option<f64> {
    const EXPLICIT_BITS: u32 = 52;
    const MIN_EXPONENT: i32 = -1023;
    // Only for these powers can the product fall exactly halfway.
    const TIES_FROM_K: usize = 4;
    let q = -(k as i32);
    let lz = m.leading_zeros();
    let w = m << lz;
    let (hi5, lo5) = POW5[k];
    // The top 64 bits of w · 5^-k, refined by the low half of the table
    // entry when the bits below the significand are all ones.
    let product = u128::from(w) * u128::from(hi5);
    let (mut lo, mut hi) = (product as u64, (product >> 64) as u64);
    let below = u64::MAX >> (EXPLICIT_BITS + 3);
    if hi & below == below {
        let second_hi = ((u128::from(w) * u128::from(lo5)) >> 64) as u64;
        lo = lo.wrapping_add(second_hi);
        if second_hi > lo {
            hi += 1;
        }
        if lo == u64::MAX {
            return None;
        }
    }
    let upper = (hi >> 63) as i32;
    let shift = upper + 64 - EXPLICIT_BITS as i32 - 3;
    let mut mantissa = hi >> shift;
    // ⌊q · log₂10⌋ + 63, the binary exponent of 10^q's table entry.
    let power = ((q * (152_170 + 65_536)) >> 16) + 63;
    let mut biased = power + upper - lz as i32 - MIN_EXPONENT;
    if biased <= 0 {
        return None;
    }
    // Exactly halfway between two floats: round to even, not up.
    if lo <= 1 && k <= TIES_FROM_K && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << EXPLICIT_BITS {
        mantissa = 1 << EXPLICIT_BITS;
        biased += 1;
    }
    mantissa &= !(1 << EXPLICIT_BITS);
    Some(f64::from_bits(
        mantissa | ((biased as u64) << EXPLICIT_BITS),
    ))
}

/// The whole of `field` as a plain decimal in the accepted form (see the
/// module docs); `None` for any other field.
pub fn parse_plain_decimal(field: &[u8]) -> Option<f64> {
    parse_field(field).and_then(|(v, len)| (len == field.len()).then_some(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_linalg::Xoshiro256pp;

    /// `text` converts to `str::parse`'s bits, alone and followed by
    /// more fields.
    fn agrees(text: &str) {
        let want: f64 = text.parse().unwrap();
        let got =
            parse_plain_decimal(text.as_bytes()).unwrap_or_else(|| panic!("{text:?} fell back"));
        assert_eq!(got.to_bits(), want.to_bits(), "{text:?}");
        let row = format!("{text},{}", "9".repeat(32));
        let (got, len) = parse_field(row.as_bytes()).unwrap();
        assert_eq!(
            (got.to_bits(), len),
            (want.to_bits(), text.len()),
            "{row:?}"
        );
    }

    #[test]
    fn pow5_table_holds_the_top_bits_of_five_to_the_minus_k() {
        // 5^-1 = 0.2 = 0.0011 0011…₂: its top 128 bits are 0xCC…CC, + 1.
        assert_eq!(POW5[1], (0xCCCC_CCCC_CCCC_CCCC, 0xCCCC_CCCC_CCCC_CCCD));
        assert_eq!(POW5[0], (1 << 63, 0));
        assert!(POW5.iter().all(|&(hi, _)| hi >> 63 == 1));
    }

    #[test]
    fn eight_digits_at_once() {
        let load = |s: &[u8; 8]| u64::from_le_bytes(*s);
        assert_eq!(eight_digit_value(load(b"12345678")), 12_345_678);
        assert_eq!(eight_digit_value(load(b"00000009")), 9);
        assert_eq!(non_digit_bytes(load(b"09876543")), 0);
        for bad in [
            *b"1234567.",
            *b"/1234567",
            *b"1234:678",
            *b"12\x00\xff\x2f\x3a.,",
            b"12345678".map(|b| b | 0x80),
        ] {
            assert_ne!(non_digit_bytes(load(&bad)), 0, "{bad:?}");
        }
        for (text, want) in [
            ("1,", 1),
            ("12345678", 12_345_678),
            ("1234567890,", 1_234_567_890),
        ] {
            assert_eq!(
                digit_run(text.as_bytes(), 0),
                (want, text.trim_end_matches(',').len())
            );
        }
        assert_eq!(digit_run(b"9.", 42), (429, 1));
        assert_eq!(digit_run(b"x1234567", 42), (42, 0));
    }

    #[test]
    fn matches_str_parse_on_plain_decimals() {
        for text in [
            "0",
            "-0",
            "007",
            "1.5",
            "-2.25",
            "0.1",
            "0.30000000000000004",
            "9007199254740993",
            "9999999999999999999",
            "1.000000000000000001",
            "0.000000000000000000000000001",
            "-1.7976931348623157",
            "123456789012345678.9",
            "0.000000001234567890123456789",
            "2.2250738585072014",
            "4.9406564584124654",
        ] {
            agrees(text);
        }
    }

    #[test]
    fn matches_str_parse_on_random_digit_strings() {
        let mut rng = Xoshiro256pp::new(0xD1617);
        for _ in 0..200_000 {
            let len = 1 + rng.next_u64() as usize % MAX_DIGITS;
            let mut s: String = (0..len)
                .map(|_| char::from(b'0' + (rng.next_u64() % 10) as u8))
                .collect();
            let dot = rng.next_u64() as usize % (len + 1);
            if dot > 0 && dot < len {
                s.insert(dot, '.');
            }
            agrees(&s);
        }
    }

    #[test]
    fn other_forms_fall_back() {
        for text in [
            "",
            "-",
            ".5",
            "1.",
            "+1",
            "1e5",
            " 1",
            "1 ",
            "1.5.2",
            "--1",
            "inf",
            "NaN",
            "12345678901234567890",           // 20 significant digits
            "0.1234567890123456789012345678", // 28 fraction digits
        ] {
            assert_eq!(parse_plain_decimal(text.as_bytes()), None, "{text:?}");
        }
        assert_eq!(parse_field(b"1.25,7"), Some((1.25, 4)));
        assert_eq!(parse_field(b"1.25e,7"), None);
        assert_eq!(parse_field(b"00000000000000000000001.5"), Some((1.5, 25)));
    }
}
