"""The %.17g text of many floats at once, as fixed byte slots.

`fill` writes each float's text into 45 byte slots of its row, with NUL
wherever nothing prints:

    0        the sign
    1..5     the `0.000` lead of the fixed form at e = -4..-1
    6..39    17 digits, each followed by a slot for the decimal point
    40..44   `e+XX` or `e+XXX`

The digits are those of N, the integer nearest x 10^(16 - e) (a tie to
even), e = floor(log10 |x|).  Like C's %g, the text is in fixed form for
-4 <= e < 17 and in exponent form otherwise, and drops trailing zeros
after the point, and the point with them.  So which slots print depends
only on e, the sign and N's trailing zeros.

Exactness, for 1e-290 <= |x| <= 1e300 (Dekker, Numer. Math. 18, 224
(1971); the digits as integers as in Adams, Ryu, PLDI 2018):

* e comes from log10, and 10^(16 - e) is the double-double hi + lo: hi
  its correctly rounded double and lo the rounded rest, from integers, so
  |hi + lo - 10^(16 - e)| <= 2^-106 hi.
* x hi = whole + r exactly, by Dekker's TwoProduct on Veltkamp halves of
  x and hi; the range keeps every product and split clear of overflow and
  underflow.  If 10^16 <= x 10^(16 - e) < 10^17 < 2^57, whole is an
  integer and |r| <= 8.
* rest = r + x lo, with two roundings.  Against x 10^(16 - e) - whole it
  is off by under 1.3e-15 from lo's own error, 1.3e-15 from rounding
  x lo (|x lo| < 12) and 2.2e-15 from the sum: below 1e-14 in all.
* N = whole + floor(rest) + (1 if rest's fraction is past 1/2).  An error
  below 1e-14 can change N only if that fraction lies within 1e-14 of
  1/2.  A fraction within 2^-20 of 1/2, a tie or near one, goes to the
  fallback.  Near an integer the floor may be off by one, but then the
  fraction is off by one the other way and N is the same.
* e is off where log10 rounds across a power of ten.  Then
  whole + floor(rest) < 10^16, or N >= 10^17, which is also where N
  rounds up to 10^17.  Both go to the fallback.

So every float `fill` writes has %.17g's text.  It leaves the rest to the
caller: ties and near-ties, a wrong e, zeros, subnormals, |x| outside the
range, infinities and NaN.
"""

import functools
import math

import numpy as np

#: floats of one block of `fill`'s temporaries
BLOCK = 2**12

#: the digit index of each group of four's first digit: N's 17 digits are
#: five groups of four, the first holding one digit
_GROUP_START = np.array([[-3], [1], [5], [9], [13]], np.int8)


@functools.cache
def _quads():
    """Per q = 0..9999: its four digits, each followed by a dot, as one
    uint64, and the index of its last nonzero digit (-99 for 0)."""
    q = np.arange(10000)
    digits = q[:, None] // np.array([1000, 100, 10, 1]) % 10
    text = np.full((10000, 8), ord("."), np.uint8)
    text[:, ::2] = digits + ord("0")
    last = np.where(q == 0, -99, 3 - (digits[:, ::-1] != 0).argmax(1))
    return text.view(np.uint64).ravel(), last.astype(np.int8)


@functools.cache
def _body_masks():
    """Row 17 dot + upto, as 34 bytes: 0xff on digits 0..upto and on the
    point after digit `dot` if dot < upto (17: no point)."""
    dot, upto = np.divmod(np.arange(18 * 17), 17)
    mask = np.empty((18 * 17, 17, 2), bool)
    mask[:, :, 0] = np.arange(17) <= upto[:, None]
    mask[:, :, 1] = (np.arange(17) == dot[:, None]) & (dot < upto)[:, None]
    return (mask.reshape(-1, 34) * np.uint8(255)).view("V34").ravel()


def _exponent(e: int) -> tuple:
    """For the floats of decimal exponent e: 10^(16 - e) as (hi, top,
    bottom, lo), hi its correctly rounded double, top + bottom = hi its
    Veltkamp halves and lo the rounded rest; the digit the point follows
    (17: none) and the last digit before it; the lead and the suffix."""
    k = 16 - e
    p, q = 10 ** max(k, 0), 10 ** max(-k, 0)
    hi = p / q
    num, den = hi.as_integer_ratio()
    # split the mantissa, as hi * (2^27 + 1) may overflow
    frac, two = math.frexp(hi)
    scaled = frac * 134217729.0
    top = math.ldexp(scaled - (scaled - frac), two)
    power = hi, top, hi - top, (p * den - num * q) / (q * den)
    if not -4 <= e < 17:
        return power, (0, 0), ("", f"e{e:+03d}")
    if e < 0:
        return power, (17, 0), ("0." + "0" * (-e - 1), "")
    return power, (e, e), ("", "")


def fill(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the %.17g text of each float of `values` into the first 45
    bytes of its row of `out`, a zeroed uint8 array, and return where it
    did; the floats it leaves (see the module docstring) hold garbage."""
    size = np.abs(values)
    done = (size >= 1e-290) & (size <= 1e300)
    if not done.any():
        return done
    size[~done] = 1.0
    e = np.floor(np.log10(size)).astype(np.intp)
    low = int(e.min())
    present = np.flatnonzero(np.bincount(e - low)) + low
    at = np.zeros(int(e.max()) - low + 1, np.intp)
    at[present - low] = np.arange(present.size)
    at = at[e - low]
    power, shape, ends = map(np.array, zip(*map(_exponent, present.tolist())))
    ends = ends.astype("S5").view("V5")
    quads, last_digit = _quads()
    for start in range(0, values.size, BLOCK):
        block = slice(start, start + BLOCK)
        x, where, rows = size[block], at[block], out[block]
        hi, top, bottom, lo = power.T.take(where, 1)
        # x hi = whole + r by TwoProduct, and rest = r + x lo
        whole = x * hi
        split = x * 134217729.0
        x_top = split - (split - x)
        x_bottom = x - x_top
        rest = (((x_top * top - whole) + x_top * bottom + x_bottom * top)
                + x_bottom * bottom) + x * lo
        floor = np.floor(rest)
        rest -= floor
        digits = whole.astype(np.int64) + floor.astype(np.int64)
        up = rest > 0.5
        done[block] &= ((digits >= 10**16) & (digits + up < 10**17)
                        & (np.abs(rest - 0.5) >= 2.0**-20))
        digits += up
        quad = np.empty((5, digits.size), np.intp)
        quad[2], quad[4] = np.divmod(digits, 10**8)
        quad[1::2], quad[2::2] = np.divmod(quad[2::2], 10**4)
        quad[0], quad[1] = np.divmod(quad[1], 10**4)
        last = (last_digit.take(quad) + _GROUP_START).max(0)
        dot, least = shape.T.take(where, 1)
        body = np.ascontiguousarray(quads.take(quad).T).view(np.uint8)
        rows[:, 6:40] = body[:, 6:] & _body_masks().take(
            17 * dot + np.maximum(last, least)).view(np.uint8).reshape(-1, 34)
        rows[:, 0] = np.signbit(values[block]) * np.uint8(ord("-"))
        lead, suffix = ends.take(where, 0).view(np.uint8).reshape(
            -1, 2, 5).transpose(1, 0, 2)
        rows[:, 1:6], rows[:, 40:45] = lead, suffix
    return done
