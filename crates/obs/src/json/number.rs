//! Exact reads of JSON number tokens: [`read_digits`] for an unsigned
//! integer, [`read_number`] for any number as `f64`.
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

    /// Tokens per case. Release runs [`CASES`] cases of each of the three
    /// properties below, over a million tokens in all.
    const TOKENS_PER_CASE: usize = 128;
    const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 2_700 };
    const _: () =
        assert!(cfg!(debug_assertions) || 3 * CASES as usize * TOKENS_PER_CASE >= 1_000_000);

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
    }
}
