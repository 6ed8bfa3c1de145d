//! Exact reads of JSON number tokens: [`read_digits`] for an unsigned
//! integer, [`read_number`] for any number as `f64`; and the one float
//! write, [`write_number`].
//!
//! A number token is the run of bytes that are digits, `-`, `+`, `.`,
//! `e` or `E`, read as `str::parse::<f64>` reads it. [`read_number`]
//! reads the common shape, `-?digits[.digits][(e|E)[+-]digits]`, in one
//! pass: eight digits at a time into a `u64` mantissa `w` and a decimal
//! exponent `q`, then `w · 10^q` rounded once, by Clinger's fast path
//! when both factors are exact doubles and by Eisel–Lemire (Lemire,
//! *Number Parsing at a Gigabyte per Second*, arXiv:2101.11408)
//! otherwise. Every token that pass cannot decide exactly is declined
//! and read the one way it was read before: the run, then
//! `str::parse::<f64>`. So both paths give the same bits, stop at the
//! same byte and refuse the same tokens.
//!
//! [`write_number`] is the write-side twin: it spells a double the way
//! `{:?}` does, finding the shortest round-trip digits with Schubfach
//! (Giulietti, *The Schubfach way to render doubles*, 2020) over the
//! same [`POW5`] table, and declines every value whose `{:?}` form is
//! not plain decimal to `{:?}` itself.

use std::fmt::Write as _;

/// Reads the ASCII digits from `bytes[*pos]` on, advancing `pos` past
/// each one read, and returns their value; `None` when it would not fit
/// a `u64`, with `pos` left at the digit that overflowed. The one exact
/// integer read: JSON number tokens and the v3 batch scanner both use it.
#[inline]
pub fn read_digits(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    while let Some(&b) = bytes.get(*pos) {
        let d = b.wrapping_sub(b'0');
        if d >= 10 {
            break;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(d))?;
        *pos += 1;
    }
    Some(value)
}

/// Reads the number token at `text[*pos..]` as `f64`, exactly as
/// `str::parse::<f64>` reads the run of number bytes there, and
/// advances `pos` past that run. `None` when the run does not parse,
/// with `pos` left at its end. The one float read: JSON number tokens
/// and the v3 batch scanner both use it.
#[inline]
pub fn read_number(text: &str, pos: &mut usize) -> Option<f64> {
    match decimal(text.as_bytes(), *pos) {
        Some((value, end)) => {
            *pos = end;
            Some(value)
        }
        None => parse_run(text, pos),
    }
}

/// A declined token's read, the same as before the one-pass read
/// existed: the whole run of number bytes through `str::parse::<f64>`.
#[cold]
#[inline(never)]
fn parse_run(text: &str, pos: &mut usize) -> Option<f64> {
    let start = *pos;
    let bytes = text.as_bytes();
    while bytes.get(*pos).copied().is_some_and(is_number_byte) {
        *pos += 1;
    }
    // Only ASCII was skipped, so both ends are char boundaries.
    text[start..*pos].parse().ok()
}

/// Whether `b` can be part of a number token's run.
pub(super) fn is_number_byte(b: u8) -> bool {
    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
}

/// Significant digits a `u64` mantissa holds whatever they are.
const MAX_DIGITS: usize = 19;
/// The decimal exponents read in one pass. Inside this range the
/// Eisel–Lemire product never needs its fallback (see [`eisel_lemire`]),
/// and every nonzero `w · 10^q` is a normal double.
const MIN_Q: i64 = -27;
const MAX_Q: i64 = 27;

/// The one-pass read of the token at `bytes[start..]`: its value and
/// end, or `None` (declined) when it is not of the fast shape, goes on
/// with a number byte, has more than [`MAX_DIGITS`] significant digits,
/// or has a nonzero mantissa and a decimal exponent outside
/// [`MIN_Q`]`..=`[`MAX_Q`].
#[inline]
fn decimal(bytes: &[u8], start: usize) -> Option<(f64, usize)> {
    let mut pos = start;
    let negative = bytes.get(pos) == Some(&b'-');
    pos += usize::from(negative);
    let first = pos;
    // Digits past the 19th wrap `w`; such a token is declined below.
    let mut w = 0u64;
    append_digits(bytes, &mut pos, &mut w);
    let mut count = pos - first;
    if count == 0 {
        return None;
    }
    let mut q = 0i64;
    if bytes.get(pos) == Some(&b'.') {
        pos += 1;
        let fraction = pos;
        append_digits(bytes, &mut pos, &mut w);
        if pos == fraction {
            return None;
        }
        count += pos - fraction;
        q = -((pos - fraction) as i64);
    }
    let mantissa_end = pos;
    if let Some(b'e' | b'E') = bytes.get(pos) {
        pos += 1;
        let sign = bytes.get(pos).copied();
        pos += usize::from(matches!(sign, Some(b'-' | b'+')));
        let digits = pos;
        let mut e = 0i64;
        while let Some(&b) = bytes.get(pos) {
            let d = b.wrapping_sub(b'0');
            if d >= 10 {
                break;
            }
            e = e * 10 + i64::from(d);
            if e > i64::from(u32::MAX) {
                return None;
            }
            pos += 1;
        }
        if pos == digits {
            return None;
        }
        q += if sign == Some(b'-') { -e } else { e };
    }
    if bytes.get(pos).copied().is_some_and(is_number_byte) {
        return None;
    }
    if count > MAX_DIGITS && significant_digits(&bytes[first..mantissa_end]) > MAX_DIGITS {
        return None;
    }
    let magnitude = if w == 0 {
        0.0
    } else if (MIN_Q..=MAX_Q).contains(&q) {
        to_f64(w, q)
    } else {
        return None;
    };
    Some((if negative { -magnitude } else { magnitude }, pos))
}

/// The digits of `mantissa` (digits with at most one dot) after its
/// leading zeros.
#[cold]
fn significant_digits(mantissa: &[u8]) -> usize {
    let lead = mantissa
        .iter()
        .take_while(|&&b| b == b'0' || b == b'.')
        .count();
    mantissa[lead..].iter().filter(|&&b| b != b'.').count()
}

/// Appends the ASCII digits from `bytes[*pos]` on to `w` (modulo 2^64),
/// eight at a time while eight are there, and advances `pos` past them.
#[inline(always)]
fn append_digits(bytes: &[u8], pos: &mut usize, w: &mut u64) {
    while let Some(chunk) = bytes.get(*pos..*pos + 8) {
        let chunk = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        if !eight_digits(chunk) {
            break;
        }
        *w = w
            .wrapping_mul(100_000_000)
            .wrapping_add(eight_digit_value(chunk));
        *pos += 8;
    }
    while let Some(&b) = bytes.get(*pos) {
        let d = b.wrapping_sub(b'0');
        if d >= 10 {
            break;
        }
        *w = w.wrapping_mul(10).wrapping_add(u64::from(d));
        *pos += 1;
    }
}

/// Whether all eight bytes of `chunk` (little-endian) are ASCII digits:
/// adding 0x46 sets a byte's top bit from `:` up, and subtracting 0x30
/// sets it (by borrowing) below `0`. A carry or borrow only crosses out
/// of a byte that already failed.
#[inline(always)]
fn eight_digits(chunk: u64) -> bool {
    let above = chunk.wrapping_add(0x4646_4646_4646_4646);
    let below = chunk.wrapping_sub(0x3030_3030_3030_3030);
    (above | below) & 0x8080_8080_8080_8080 == 0
}

/// The value of eight ASCII digits, first digit in the low byte: pairs,
/// then quads, then the whole, each step one multiply.
#[inline(always)]
fn eight_digit_value(chunk: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = chunk - 0x3030_3030_3030_3030;
    let v = v * 10 + (v >> 8);
    let high = (v & MASK).wrapping_mul(MUL1);
    let low = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((high.wrapping_add(low) >> 32) as u32)
}

/// `10^0 ..= 10^22`, every one an exact double.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `w · 10^q` rounded to nearest, ties to even, for `w ≠ 0` and `q` in
/// [`MIN_Q`]`..=`[`MAX_Q`].
#[inline]
fn to_f64(w: u64, q: i64) -> f64 {
    if w <= 1 << 53 && (-22..=22).contains(&q) {
        // Clinger: both factors are exact doubles, so the one IEEE
        // multiply or divide is the only rounding.
        let v = w as f64;
        if q < 0 {
            v / POW10[q.unsigned_abs() as usize]
        } else {
            v * POW10[q as usize]
        }
    } else {
        eisel_lemire(w, q)
    }
}

/// `5^q` for `q` in [`MIN_Q`]`..=`[`MAX_Q`], normalised to 128 bits
/// (top bit set) as `(high, low)` halves: exact for `q ≥ 0`, and
/// `⌊2^b / 5^-q⌋ + 1` for `q < 0`, with `b` the bit length of `5^-q`
/// plus 127. Entry `q - MIN_Q`.
const POW5: [(u64, u64); (MAX_Q - MIN_Q + 1) as usize] = pow5_table();

const fn pow5_table() -> [(u64, u64); (MAX_Q - MIN_Q + 1) as usize] {
    let mut table = [(0, 0); (MAX_Q - MIN_Q + 1) as usize];
    let mut i = 0;
    while i < table.len() {
        let q = i as i64 + MIN_Q;
        let power = 5u128.pow(q.unsigned_abs() as u32);
        let m = if q >= 0 {
            power << power.leading_zeros()
        } else {
            pow2_over(128 - power.leading_zeros() + 127, power) + 1
        };
        table[i] = ((m >> 64) as u64, m as u64);
        i += 1;
    }
    table
}

/// `⌊2^b / d⌋` by binary long division, for an odd `d > 1` below 2^64
/// and a quotient below 2^128.
const fn pow2_over(b: u32, d: u128) -> u128 {
    // The remainder after the dividend's one set bit, its top.
    let mut remainder = 1u128;
    let mut quotient = 0u128;
    let mut i = 0;
    while i < b {
        remainder <<= 1;
        quotient <<= 1;
        if remainder >= d {
            remainder -= d;
            quotient |= 1;
        }
        i += 1;
    }
    quotient
}

/// Eisel–Lemire for `w ≠ 0` and `q` in [`MIN_Q`]`..=`[`MAX_Q`]: the
/// top bits of `w · 5^q` from one or two 64×64-bit products with the
/// 128-bit [`POW5`] entry, then `2^q` folded into the exponent.
///
/// The algorithm's fallback is for a truncated product whose low word
/// is all ones, where the missing bits of `5^q` could carry into the
/// rounding bit. For `0 ≤ q ≤ 27`, `5^q < 2^64`, so the entry is exact
/// and so is the product. For `−27 ≤ q < 0`, `5^-q < 2^64` too, and
/// Lemire (§8) shows an all-ones low word there cannot change the
/// rounding; Rust's own `dec2flt` skips the fallback for `q` in
/// `[−27, 55]` on the same ground. Exact halfway cases exist only for
/// `q` in `[−4, 23]`, and the round-to-even check below handles them.
fn eisel_lemire(w: u64, q: i64) -> f64 {
    // Explicit mantissa bits, plus the hidden bit, a rounding bit and
    // room for the product's possible leading zero.
    const KEEP: u32 = 52 + 3;
    let lz = w.leading_zeros();
    let w = w << lz;
    let (high5, low5) = POW5[(q - MIN_Q) as usize];
    let (mut low, mut high) = wide_mul(w, high5);
    let mask = u64::MAX >> KEEP;
    if high & mask == mask {
        // The bits below might carry into the kept ones: add them.
        let (_, carry) = wide_mul(w, low5);
        low = low.wrapping_add(carry);
        if carry > low {
            high += 1;
        }
    }
    let upper = (high >> 63) as u32;
    let shift = upper + 64 - KEEP;
    let mut mantissa = high >> shift;
    // floor(q · log2(10)) + 63, then the double's exponent bias.
    let mut power2 = ((q as i32 * (152_170 + 65_536)) >> 16) + 63 + upper as i32 - lz as i32 + 1023;
    if low <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == high {
        // Exactly halfway: clear the rounding bit so ties go to even.
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        // Rounding carried into a new top bit.
        mantissa = 1 << 52;
        power2 += 1;
    }
    debug_assert!(0 < power2 && power2 < 0x7FF, "a normal double");
    f64::from_bits((mantissa & !(1 << 52)) | (power2 as u64) << 52)
}

fn wide_mul(a: u64, b: u64) -> (u64, u64) {
    let product = u128::from(a) * u128::from(b);
    (product as u64, (product >> 64) as u64)
}

/// The magnitudes `{:?}` spells in plain decimal, besides zero: `1e-4`
/// and up, below `1e16`. Every such double is normal.
const MIN_PLAIN: f64 = 1e-4;
const MAX_PLAIN: f64 = 1e16;

/// Writes `v` to `out` exactly as `write!(out, "{v:?}")` does. A value
/// whose `{:?}` form is plain decimal — ±0, and `1e-4 ≤ |v| < 1e16` —
/// is spelled here: the shortest digits that read back as `v`, the
/// closer to `v` when two are that short (the one farther from zero on
/// an exact tie, as `core::fmt` rounds), with `.0` on integral values
/// and leading zeros below 1. Every other value is declined to `{:?}`
/// itself.
#[inline]
pub fn write_number(out: &mut String, v: f64) {
    if !write_plain(out, v) {
        write_declined(out, v);
    }
}

/// A declined value's spelling, the same as before [`write_number`]
/// existed: exponent forms, subnormals and non-finite values.
#[cold]
#[inline(never)]
fn write_declined(out: &mut String, v: f64) {
    let _ = write!(out, "{v:?}");
}

/// Room for `-0.000` before 17 digits and for 15 zeros and `.0` after.
const BUF: usize = 42;
/// Where the significant digits end in the spelling buffer.
const DIGITS_END: usize = 24;

/// Spells `v` into `out` and returns true when `v` is in the plain
/// decimal domain; writes nothing and returns false otherwise.
#[inline]
fn write_plain(out: &mut String, v: f64) -> bool {
    let magnitude = v.abs();
    // Every byte not written below reads `0`.
    let mut buf = [b'0'; BUF];
    let (mut start, end) = if magnitude == 0.0 {
        buf[DIGITS_END] = b'.';
        (DIGITS_END - 1, DIGITS_END + 2)
    } else if (MIN_PLAIN..MAX_PLAIN).contains(&magnitude) {
        let (digits, exponent) = shortest(magnitude.to_bits());
        place(&mut buf, digits, exponent)
    } else {
        return false;
    };
    if v.is_sign_negative() {
        start -= 1;
        buf[start] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[start..end]).expect("the spelling is ASCII"));
    true
}

/// Writes `digits · 10^exponent` (`digits ≠ 0`) in plain decimal into
/// `buf`, which holds `0` bytes, and returns the written range.
#[inline]
fn place(buf: &mut [u8; BUF], digits: u64, mut exponent: i32) -> (usize, usize) {
    let start = write_digits(buf, DIGITS_END, digits);
    let mut end = DIGITS_END;
    while buf[end - 1] == b'0' {
        end -= 1;
        exponent += 1;
    }
    let count = (end - start) as i32;
    // Digits before the decimal point.
    let point = count + exponent;
    if point <= 0 {
        // `0.`, then -point zeros, then the digits.
        let zeros = start - point.unsigned_abs() as usize;
        buf[zeros - 1] = b'.';
        (zeros - 2, end)
    } else if point < count {
        let point = point as usize;
        buf.copy_within(start..start + point, start - 1);
        buf[start - 1 + point] = b'.';
        (start - 1, end)
    } else {
        // The digits, point - count zeros, then `.0`.
        let dot = end + (point - count) as usize;
        buf[dot] = b'.';
        (start, dot + 2)
    }
}

/// `00`, `01`, …, `99`, two ASCII digits per entry.
const PAIRS: [u8; 200] = {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Writes the decimal digits of `v` so they end just before `buf[end]`,
/// two per step, and returns where they start.
#[inline]
pub(super) fn write_digits(buf: &mut [u8], mut end: usize, mut v: u64) -> usize {
    while v >= 100_000_000 {
        // Eight digits at a time, as four independent pairs.
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        end -= 8;
        let (high4, low4) = (low / 10_000, low % 10_000);
        for (at, pair) in [high4 / 100, high4 % 100, low4 / 100, low4 % 100]
            .into_iter()
            .enumerate()
        {
            put_pair(buf, end + 2 * at, pair);
        }
    }
    let mut v = v as u32;
    while v >= 100 {
        end -= 2;
        put_pair(buf, end, v % 100);
        v /= 100;
    }
    if v >= 10 {
        end -= 2;
        put_pair(buf, end, v);
    } else {
        end -= 1;
        buf[end] = b'0' + v as u8;
    }
    end
}

#[inline(always)]
fn put_pair(buf: &mut [u8], at: usize, pair: u32) {
    let pair = pair as usize * 2;
    buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
}

/// The shortest decimal `digits · 10^exponent` that rounds to the
/// positive normal double of `bits`, the closer to it when two are that
/// short and the larger on a tie. [`place`] drops the trailing zeros
/// `digits` may carry.
///
/// Schubfach, as in Giulietti's paper and the JDK's `DoubleToDecimal`:
/// with `v = c · 2^q`, `k = ⌊log10 2^q⌋` (or of `¾ · 2^q` at a power of
/// two, whose interval below is half as wide) makes `v · 10^-k` a 16- or
/// 17-digit number. One round-to-odd product each with a 126-bit
/// `g > 10^-k · 2^r` gives `v`, and the two ends of its rounding
/// interval, scaled by `4 · 10^-k`, exactly enough to decide which of
/// `s · 10^k`, `(s + 1) · 10^k` and their multiples of ten lie inside.
/// For `1e-4 ≤ v < 1e16`, `-k` lies in `0..=20`, where [`POW5`] holds
/// `5^-k` exactly, so `g` is that entry's top 126 bits plus one.
#[inline]
fn shortest(bits: u64) -> (u64, i32) {
    const HIDDEN: u64 = 1 << 52;
    let c = HIDDEN | (bits & (HIDDEN - 1));
    let q = (bits >> 52) as i32 - 1075;
    if (-52..0).contains(&q) {
        // An integer below 2^53 is its own shortest spelling.
        let integer = c >> -q;
        if integer << -q == c {
            return (integer, 0);
        }
    }
    // The rounding interval's ends round to `v` only when `c` is even;
    // `open` is 1 when they do not.
    let open = c & 1;
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if c != HIDDEN {
        (cb - 2, (q as i64 * 661_971_961_083) >> 41)
    } else {
        (cb - 1, (q as i64 * 661_971_961_083 - 274_743_187_321) >> 41)
    };
    debug_assert!((-20..=0).contains(&k), "10^-k in POW5's exact half");
    let h = q + ((-k * 913_124_641_741) >> 38) as i32 + 2;
    let (high, low) = POW5[(-k - MIN_Q) as usize];
    let g = ((u128::from(high) << 64 | u128::from(low)) >> 2) + 1;
    let (g1, g0) = ((g >> 63) as u64, g as u64 & (u64::MAX >> 1));
    let vb = round_to_odd(g1, g0, cb << h);
    let vbl = round_to_odd(g1, g0, cbl << h);
    let vbr = round_to_odd(g1, g0, cbr << h);
    let k = k as i32;

    // `s ≥ 2^52`, so the candidates one digit shorter always exist, and
    // the interval is too narrow to hold both.
    let s = vb >> 2;
    let sp10 = s / 10 * 10;
    let tp10 = sp10 + 10;
    let upin = vbl + open <= sp10 << 2;
    let wpin = (tp10 << 2) + open <= vbr;
    if upin != wpin {
        return (if upin { sp10 } else { tp10 }, k);
    }
    let t = s + 1;
    let uin = vbl + open <= s << 2;
    let win = (t << 2) + open <= vbr;
    if uin != win {
        return (if uin { s } else { t }, k);
    }
    // Both lie inside: the closer; on a tie the larger, as `core::fmt`
    // rounds half up.
    (if vb < (s + t) << 1 { s } else { t }, k)
}

/// `⌊g · cp / 2^127⌋` with its lowest bit set when the quotient is
/// inexact (round to odd), for `g = g1 · 2^63 + g0`.
#[inline(always)]
fn round_to_odd(g1: u64, g0: u64, cp: u64) -> u64 {
    let (_, x1) = wide_mul(g0, cp);
    let (y0, y1) = wide_mul(g1, cp);
    let z = (y0 >> 1) + x1;
    let quotient = y1 + (z >> 63);
    quotient | u64::from(z & (u64::MAX >> 1) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonWriter;
    use proptest::prelude::*;

    /// A little-endian big integer in 32-bit limbs: enough arithmetic
    /// to check [`POW5`] without trusting `u128` or the table's own
    /// long division.
    #[derive(Clone, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn from_u128(v: u128) -> Big {
            Big((0..4).map(|i| (v >> (32 * i)) as u32).collect()).trimmed()
        }

        fn pow2(b: u32) -> Big {
            let mut limbs = vec![0; b as usize / 32 + 1];
            limbs[b as usize / 32] = 1 << (b % 32);
            Big(limbs)
        }

        fn trimmed(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u32; self.0.len() + other.0.len() + 1];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                let mut k = i + other.0.len();
                while carry > 0 {
                    let t = u64::from(out[k]) + carry;
                    out[k] = t as u32;
                    carry = t >> 32;
                    k += 1;
                }
            }
            Big(out).trimmed()
        }

        fn bits(&self) -> u32 {
            match self.0.last() {
                None => 0,
                Some(&top) => 32 * (self.0.len() as u32 - 1) + (32 - top.leading_zeros()),
            }
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Big) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Big {
        fn cmp(&self, other: &Big) -> std::cmp::Ordering {
            self.0
                .len()
                .cmp(&other.0.len())
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    #[test]
    fn every_power_of_five_entry_matches_exact_arithmetic() {
        let mut power = Big::from_u128(1);
        for q in 0..=MAX_Q {
            let (high, low) = POW5[(q - MIN_Q) as usize];
            let entry = Big::from_u128(u128::from(high) << 64 | u128::from(low));
            // 5^q itself, shifted so its top bit is bit 127.
            let shifted = power.mul(&Big::pow2(128 - power.bits()));
            assert!(entry == shifted, "5^{q}");
            power = power.mul(&Big::from_u128(5));
        }
        let mut power = Big::from_u128(5);
        for q in (MIN_Q..0).rev() {
            let (high, low) = POW5[(q - MIN_Q) as usize];
            let entry = u128::from(high) << 64 | u128::from(low);
            assert!(entry >> 127 == 1, "5^{q} is normalised");
            // entry - 1 = ⌊2^b / 5^-q⌋: (entry - 1)·5^-q ≤ 2^b < entry·5^-q.
            let b = Big::pow2(power.bits() + 127);
            assert!(
                Big::from_u128(entry - 1).mul(&power) <= b,
                "5^{q} too large"
            );
            assert!(Big::from_u128(entry).mul(&power) > b, "5^{q} too small");
            power = power.mul(&Big::from_u128(5));
        }
    }

    #[test]
    fn eight_digit_chunks_are_recognised_and_valued() {
        let chunk = |s: &[u8; 8]| u64::from_le_bytes(*s);
        assert!(eight_digits(chunk(b"01234567")));
        assert_eq!(eight_digit_value(chunk(b"01234567")), 1_234_567);
        assert_eq!(eight_digit_value(chunk(b"99999999")), 99_999_999);
        for bad in [b'/', b':', b'.', b'e', b'-', 0, 0xFF, 0xB0] {
            for at in 0..8 {
                let mut s = *b"55555555";
                s[at] = bad;
                assert!(!eight_digits(chunk(&s)), "{bad:#x} at {at}");
            }
        }
    }

    /// What the one-pass read must decide, from string operations alone:
    /// the run of number bytes has the fast shape throughout, at most 19
    /// significant digits, and a zero mantissa or a decimal exponent in
    /// `[-27, 27]`.
    fn fast_shape(run: &str) -> bool {
        let unsigned = run.strip_prefix('-').unwrap_or(run);
        let (mantissa, exponent) = match unsigned.find(['e', 'E']) {
            Some(i) => (&unsigned[..i], Some(&unsigned[i + 1..])),
            None => (unsigned, None),
        };
        let (int, fraction) = match mantissa.split_once('.') {
            Some((int, fraction)) => (int, Some(fraction)),
            None => (mantissa, None),
        };
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        if !digits(int) || fraction.is_some_and(|f| !digits(f)) {
            return false;
        }
        let e = match exponent {
            None => 0,
            Some(x) => {
                let unsigned = x.strip_prefix(['+', '-']).unwrap_or(x);
                if !digits(unsigned) {
                    return false;
                }
                match unsigned.trim_start_matches('0').parse::<u32>() {
                    Ok(e) if x.starts_with('-') => -i64::from(e),
                    Ok(e) => i64::from(e),
                    Err(_) if unsigned.trim_start_matches('0').is_empty() => 0,
                    Err(_) => return false,
                }
            }
        };
        let all = format!("{int}{}", fraction.unwrap_or(""));
        let significant = all.trim_start_matches('0');
        if significant.len() > 19 {
            return false;
        }
        let q = e - fraction.map_or(0, str::len) as i64;
        significant.is_empty() || (-27..=27).contains(&q)
    }

    /// Holds both reads of `text` to the old read of its leading run.
    fn agrees(text: &str) -> Result<(), TestCaseError> {
        let run = text.bytes().take_while(|&b| is_number_byte(b)).count();
        let want = text[..run].parse::<f64>().ok().map(f64::to_bits);
        let mut pos = 0;
        let got = read_number(text, &mut pos).map(f64::to_bits);
        prop_assert_eq!((got, pos), (want, run), "read_number({:?})", text);
        let fast = decimal(text.as_bytes(), 0);
        prop_assert_eq!(
            fast.is_some(),
            fast_shape(&text[..run]),
            "decline of {:?}",
            text
        );
        if let Some((value, end)) = fast {
            prop_assert_eq!((Some(value.to_bits()), end), (want, run), "{:?}", text);
        }
        Ok(())
    }

    /// SplitMix64, so each case draws its tokens from its one seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// What may follow a token on a line: nothing, a delimiter, a
        /// number byte that makes the run longer, or the rest of a
        /// batch row, long enough that every digit run of the token has
        /// eight bytes to load from.
        fn suffix(&mut self) -> &'static str {
            const AFTER: [&str; 12] = [
                "",
                ",",
                "]",
                "}",
                " ",
                "x",
                ".",
                "e",
                "-",
                "7",
                ",412,3,57.25]],",
                "]],[[7,1,0.95,",
            ];
            AFTER[self.below(AFTER.len() as u64) as usize]
        }
    }

    /// `tests/golden/number_writer.txt` holds one row per distinct value
    /// of [`writer_values`]: its bits, then what [`JsonWriter::float`]
    /// writes, then what [`JsonWriter::num`] writes. After a deliberate
    /// change, empty the golden file and rerun: the row-count failure
    /// prints every row anew.
    const WRITER_GOLDEN: &str = include_str!("../../../../tests/golden/number_writer.txt");

    /// Zeros, the ends of the double range, powers of two and of ten
    /// across it, both sides of the plain-decimal domain's edges, the
    /// edges of `i64`, spellings of 1 to 17 digits, exact ties between
    /// two shortest candidates, non-finite values, and twenty seeded
    /// values from each of the wire's ranges.
    fn writer_values() -> Vec<f64> {
        let mut values = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            // The plain-decimal domain's edges and their neighbours.
            1e-4,
            9.999_999_999_999_999e-5,
            f64::from_bits(1e-4f64.to_bits() + 1),
            -1e-4,
            1e16,
            9_999_999_999_999_998.0,
            f64::from_bits(1e16f64.to_bits() + 1),
            -9_999_999_999_999_998.0,
            // 2^53 ± 1, 2^63 and the doubles next to it.
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            -9_007_199_254_740_991.0,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            f64::from_bits(9_223_372_036_854_775_808f64.to_bits() - 1),
            f64::from_bits(9_223_372_036_854_775_808f64.to_bits() + 1),
            // Integral values inside and outside `i64`.
            4.0,
            -4.0,
            123.0,
            1e15,
            123_456_789_012.0,
            -987_654_321.0,
            1e19,
            -1e19,
            1.8446744073709552e19,
            1e20,
            1.5e300,
            // Familiar sums and fractions.
            0.1 + 0.2,
            1.0 / 3.0,
            2.0 / 3.0,
            -2.0 / 3.0,
            0.1,
            0.95,
            0.5,
            // Shortest spellings of 1, 15, 16 and 17 digits.
            7.0,
            0.002,
            0.123_456_789_012_345,
            123_456.789_012_345,
            0.123_456_789_012_345_6,
            1_234_567_890.123_456,
            0.123_456_789_012_345_68,
            98_765.432_101_234_56,
            1.0 - f64::EPSILON,
            1.0 + f64::EPSILON,
            // Exactly halfway between two shortest candidates.
            1e15 + 0.25,
            1e15 + 0.75,
            (1u64 << 50) as f64 + 0.25,
            -(2e15 + 0.75),
            // Exponent forms below and above the domain.
            1e-7,
            1.234_567_890_123_456_7e-9,
            9.876_543_210_987_654e16,
            1.5e16,
            // Non-finite values.
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for k in [
            -1074, -1022, -600, -100, -60, -20, -14, -13, -10, -1, 0, 1, 10, 52, 53, 54, 60, 63,
            64, 100, 600, 1023,
        ] {
            let bits = if k >= -1022 {
                ((k + 1023) as u64) << 52
            } else {
                1 << (k + 1074)
            };
            values.push(f64::from_bits(bits));
        }
        for k in [
            -323, -300, -100, -20, -10, -5, -4, -3, -2, -1, 0, 1, 2, 5, 10, 15, 16, 17, 20, 22, 23,
            100, 308,
        ] {
            values.push(format!("1e{k}").parse().expect("a decimal literal"));
        }
        let mut draw = Draw(39);
        // Reliability requirements, payments and dual prices.
        values.extend((0..20).map(|_| 0.9 + 0.09 * draw.unit()));
        values.extend((0..20).map(|_| 5e3 * draw.unit()));
        values.extend((0..20).map(|_| 10f64.powf(8.0 * draw.unit() - 6.0)));
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.to_bits()));
        values
    }

    fn writer_rows() -> String {
        let mut text = String::new();
        for v in writer_values() {
            let (mut float, mut num) = (String::new(), String::new());
            JsonWriter::new(&mut float).float(v);
            JsonWriter::new(&mut num).num(v);
            text.push_str(&format!("{:#018x}\t{float}\t{num}\n", v.to_bits()));
        }
        text
    }

    #[test]
    fn writer_values_spell_as_their_golden_rows() {
        let produced = writer_rows();
        for (i, (got, want)) in produced.lines().zip(WRITER_GOLDEN.lines()).enumerate() {
            assert_eq!(got, want, "row {} moved (writer left, golden right)", i + 1);
        }
        assert_eq!(
            produced.lines().count(),
            WRITER_GOLDEN.lines().count(),
            "row count moved; the writer now spells:\n{produced}"
        );
    }

    /// Tokens (or values) per case. Release runs [`CASES`] cases of each
    /// of the six properties below: over a million tokens read by the
    /// first three, and over a million values written by the last three.
    const TOKENS_PER_CASE: usize = 128;
    const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 2_700 };
    const _: () =
        assert!(cfg!(debug_assertions) || 3 * CASES as usize * TOKENS_PER_CASE >= 1_000_000);

    /// Holds [`write_number`] to `{:?}` for `v`, and its decline to the
    /// values whose `{:?}` form is not plain decimal.
    fn writes_as_debug(v: f64) -> Result<(), TestCaseError> {
        let want = format!("{v:?}");
        let mut got = String::new();
        write_number(&mut got, v);
        prop_assert_eq!(&got, &want, "write_number({:#018x})", v.to_bits());
        let plain = want
            .bytes()
            .all(|b| b.is_ascii_digit() || b == b'.' || b == b'-');
        let mut fast = String::new();
        prop_assert_eq!(write_plain(&mut fast, v), plain, "decline of {}", want);
        prop_assert_eq!(fast.is_empty(), !plain, "{}", want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Shortest round-trip spellings, as the wire writes them, of
        /// doubles in the wire's ranges (reliabilities, payments) and of
        /// any finite double.
        #[test]
        fn round_trip_spellings_read_as_str_parse(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            for _ in 0..TOKENS_PER_CASE {
                let v = match draw.below(4) {
                    0 => 0.9 + 0.0999 * draw.unit(),
                    1 => 1e4 * draw.unit(),
                    2 => draw.unit() * 10f64.powi(draw.below(40) as i32 - 20),
                    _ => f64::from_bits(draw.next()),
                };
                if !v.is_finite() {
                    continue;
                }
                let mut text = String::new();
                JsonWriter::new(&mut text).num(if draw.below(8) == 0 { -v } else { v });
                text.push_str(draw.suffix());
                agrees(&text)?;
            }
        }

        /// Random 1–25-digit strings with random signs, dots and exponents.
        #[test]
        fn random_digit_strings_read_as_str_parse(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            for _ in 0..TOKENS_PER_CASE {
                let mut text = String::new();
                if draw.below(4) == 0 {
                    text.push('-');
                }
                let n = 1 + draw.below(25) as usize;
                let dot = (draw.below(3) == 0).then(|| draw.below(n as u64 + 1) as usize);
                for i in 0..n {
                    if dot == Some(i) {
                        text.push('.');
                    }
                    // Leading zeros now and then, to test their discount.
                    let d = if draw.below(6) == 0 { 0 } else { draw.below(10) };
                    text.push(char::from(b'0' + d as u8));
                }
                if dot == Some(n) {
                    text.push('.');
                }
                if draw.below(2) == 0 {
                    text.push(if draw.below(2) == 0 { 'e' } else { 'E' });
                    text.push_str(["", "+", "-"][draw.below(3) as usize]);
                    for _ in 0..draw.below(4) {
                        text.push(char::from(b'0' + draw.below(10) as u8));
                    }
                }
                text.push_str(draw.suffix());
                agrees(&text)?;
            }
        }

        /// Integers around the points where doubles start spacing by 2,
        /// 4, 2048 and 2048 (2^53, 2^54, 2^63, 10^19), so halfway points
        /// and their neighbours come up, with the dot moved by an
        /// exponent that keeps the value.
        #[test]
        fn halfway_neighbourhoods_read_as_str_parse(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            let bases: [u128; 4] = [1 << 53, 1 << 54, 1 << 63, 10_000_000_000_000_000_000];
            for _ in 0..TOKENS_PER_CASE {
                let base = bases[draw.below(4) as usize];
                let spacing = if base >= 1 << 63 { 2048 } else { (base >> 52) as i128 };
                // Within ten spacings, often on or next to a halfway point.
                let offset = draw.below(20 * spacing as u64) as i128 - 10 * spacing;
                let offset = match draw.below(3) {
                    0 => offset - offset.rem_euclid(spacing) + spacing / 2 + draw.below(3) as i128 - 1,
                    _ => offset,
                };
                let digits = (base as i128 + offset).to_string();
                let shift = draw.below(digits.len() as u64) as usize;
                let text = if shift == 0 {
                    format!("{digits}{}", draw.suffix())
                } else {
                    let (int, fraction) = digits.split_at(digits.len() - shift);
                    format!("{int}.{fraction}e{shift}{}", draw.suffix())
                };
                agrees(&text)?;
            }
        }

        /// Any bit pattern, any double of the plain-decimal domain
        /// (a uniform binade from 2^-14 to 2^53, a uniform significand),
        /// and doubles in the wire's ranges: reliabilities, payments and
        /// dual prices.
        #[test]
        fn random_doubles_write_as_debug(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            for _ in 0..TOKENS_PER_CASE {
                let v = match draw.below(5) {
                    0 => f64::from_bits(draw.next()),
                    1 => f64::from_bits((1009 + draw.below(68)) << 52 | draw.next() >> 12),
                    2 => 0.9 + 0.0999 * draw.unit(),
                    3 => 1e4 * draw.unit(),
                    _ => 10f64.powf(10.0 * draw.unit() - 6.0),
                };
                writes_as_debug(if draw.below(4) == 0 { -v } else { v })?;
            }
        }

        /// The doubles within a few thousand steps of every power of ten
        /// from 1e-5 to 1e17, the domain's edges 1e-4 and 1e16 among them,
        /// and the shortest spellings of random 1–17-digit decimals there.
        #[test]
        fn decade_neighbourhoods_write_as_debug(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            for _ in 0..TOKENS_PER_CASE {
                let k = draw.below(23) as i32 - 5;
                let power: f64 = format!("1e{k}").parse().expect("a decimal literal");
                let v = if draw.below(2) == 0 {
                    let step = draw.below(4096) as i64 - 2048;
                    f64::from_bits((power.to_bits() as i64 + step) as u64)
                } else {
                    let digits = 1 + draw.below(17) as u32;
                    let significand = draw.below(10u64.pow(digits));
                    let text = format!("{significand}e{}", k - digits as i32 + 1);
                    text.parse().expect("a decimal literal")
                };
                writes_as_debug(v)?;
            }
        }

        /// Integers near 2^53 and up to 1e16, quarter-integers between
        /// 2^50 and 2^52 (where `x.25` and `x.75` are exact ties between
        /// two shortest spellings), and powers of two with a few steps
        /// on either side, whose rounding interval is lopsided.
        #[test]
        fn integers_ties_and_binade_edges_write_as_debug(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            for _ in 0..TOKENS_PER_CASE {
                let v = match draw.below(4) {
                    0 => ((1u64 << 53) + draw.below(1 << 20) - (1 << 19)) as f64,
                    1 => draw.below(10_000_000_000_000_000) as f64,
                    2 => {
                        let quarters = (1u64 << 52) + draw.below(3 << 52);
                        quarters as f64 / 4.0
                    }
                    _ => {
                        let binade = (1009 + draw.below(68)) << 52;
                        f64::from_bits(binade + draw.below(8) - 4)
                    }
                };
                writes_as_debug(v)?;
            }
        }
    }
}
