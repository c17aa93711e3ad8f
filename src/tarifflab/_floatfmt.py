"""`repr` text of float64 blocks, in bulk.

`lines(block, labels)` gives the bytes of `"".join(label + " ".join(map(repr,
row)) + "\\n")` over the rows of `block` without a `repr` per value. Each
value's shortest round-trip digits are found as Steele and White's method
finds them, in exact integer arithmetic the way Ryu does it (Adams, PLDI
2018), but in uint64 numpy arithmetic on a chunk at a time. With x = m 2^e
and x 10^s in [10^16, 10^17), the product m 5^s is split exactly into the
quotient q and remainder of x 10^s. The 15-, 16- and 17-digit roundings of
q are the candidates, and the shortest within half an ulp of x is the one
`repr` writes: at most one 15-digit decimal lies within half an ulp, so no
shorter one does unless it is that one less its trailing zeros.

The fast path takes the values repr writes without an exponent,
1e-4 <= |x| < 1e16; zeros, subnormals, non-finite and exponent-form values
go to `repr`. In that range a power of two, whose read-back interval is not
centred, has at most 16 digits, so its exact candidate is the one taken; and
no rounding carries to 10^17, as the float nearest a power of ten is never
below it. numpy only: importing it loads no other module of the package.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 12  # values formatted at a time

_U64 = np.uint64
_POW5 = np.array([5**s for s in range(22)], dtype=_U64)
_LOW, _HIGH = _U64(10**16), _U64(10**17)
# one value's field: its sign, at most 22 characters of text ("0.000" and 17
# digits), its end byte; NUL bytes are dropped
_WIDTH = 24
_ZERO, _POINT = ord("0"), ord(".")
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def _quotient(m, e, s):
    """q, r, d, h with x 10^s = q + r/d and ulp(x) 10^s = h/d: m 5^s as a
    128-bit (hi, lo) shifted right by k = -e - s, or left by -k."""
    p = _POW5[s]
    k = -e - s
    right, left = np.maximum(k, 0).astype(_U64), np.maximum(-k, 0).astype(_U64)
    mh, ml = m >> _U64(32), m & _U64(0xFFFFFFFF)
    ph, pl = p >> _U64(32), p & _U64(0xFFFFFFFF)
    low = ml * pl
    mid = mh * pl + ml * ph
    lo = low + (mid << _U64(32))
    hi = mh * ph + (mid >> _U64(32)) + (lo < low)
    one = _U64(1)
    q = (((hi << one) << (_U64(63) - right)) | (lo >> right)) << left
    return q, lo & ((one << right) - one), one << right, p << left


def _rounded(q, r, d, h, scale):
    """q rounded to a multiple of `scale` (10^(17 - digits)), ties to even,
    and whether it lies strictly within half an ulp of x: no boundary of a
    read-back interval in the fast range is a decimal of 17 digits or fewer."""
    c = q // scale
    twice = _U64(2) * ((q - c * scale) * d + r)
    unit = scale * d
    up = (twice > unit) | ((twice == unit) & (c & _U64(1) == 1))
    return (c + up) * scale, np.where(up, _U64(2) * unit - twice, twice) < h


def _digits(x):
    """The 17-digit integer of each value's shortest digits, padded with
    zeros, and its count of digits before the point (0 or less below 1)."""
    bits = x.view(_U64)
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    e = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64) - 1075
    s = 16 - np.floor(np.log10(np.abs(x))).astype(np.int64)
    q, r, d, h = _quotient(m, e, s)
    off = (q < _LOW).astype(np.int64) - (q >= _HIGH)  # log10 one off near 10^n
    if off.any():
        at = np.flatnonzero(off)
        s[at] += off[at]
        q[at], r[at], d[at], h[at] = _quotient(m[at], e[at], s[at])
    c = _rounded(q, r, d, h, _U64(1))[0]  # 17 digits always read back
    for scale in (_U64(10), _U64(100)):
        shorter, ok = _rounded(q, r, d, h, scale)
        c = np.where(ok, shorter, c)
    return c, 17 - s


def _chars(c):
    """The 17 digit characters of each c in [10^16, 10^17), one row per
    digit, the zeros after the last nonzero digit NUL."""
    out = np.empty((17, c.size), dtype=np.uint8)
    high, low = np.divmod(c, _U64(10**8))  # 9 digits and 8, in uint32
    for v, rows in ((high, range(8, -1, -1)), (low, range(16, 8, -1))):
        v = v.astype(np.uint32)
        for j in rows:
            rest = v // np.uint32(10)
            out[j] = v - rest * np.uint32(10)
            v = rest
    places = np.max(_PLACES * (out != 0), axis=0)
    out += _ZERO
    out *= _PLACES <= places
    return out


def _fields(c, point, negative):
    """The (n, _WIDTH) fields of values with 17-digit integers `c` and
    `point` digits before the point, their end bytes left NUL."""
    digits = _chars(c)
    field = np.zeros((_WIDTH, c.size), dtype=np.uint8)
    field[0] = negative * ord("-")
    # np.unique would import numpy.ma, a tenth of `synthetic`'s start-up
    groups = np.flatnonzero(np.bincount(point + 3)) - 3
    for p in groups.tolist():
        at = groups.size == 1 or point == p
        if p > 0:
            np.copyto(field[1:1 + p], np.maximum(digits[:p], _ZERO), where=at)
            np.copyto(field[1 + p], _POINT, where=at)
            np.copyto(field[2 + p:19], digits[p:], where=at)
            # the first fraction digit is shown, a zero too
            np.copyto(field[2 + p], _ZERO, where=at & (field[2 + p] == 0))
        else:
            np.copyto(field[1:3 - p], _ZERO, where=at)
            np.copyto(field[2], _POINT, where=at)
            np.copyto(field[3 - p:20 - p], digits, where=at)
    return field.T


def _chunk(x, ends, labels):
    """The bytes of each value's label (NUL bytes dropped), text and end."""
    width = labels.shape[1]
    buf = np.zeros((x.size, width + _WIDTH), dtype=np.uint8)
    buf[:, :width] = labels
    fast = (np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)
    y = x[fast]
    buf[fast, width:] = _fields(*_digits(y), y < 0)
    buf[:, -1] = ends
    out = buf[buf != 0].tobytes()
    slow = np.flatnonzero(~fast)
    if not slow.size:
        return out
    # the rest goes to repr, spliced in before each one's end byte
    stops = (np.cumsum(np.count_nonzero(buf, axis=1)) - 1)[slow].tolist()
    pieces, at = [], 0
    for stop, value in zip(stops, x[slow].tolist()):
        pieces += [out[at:stop], repr(value).encode()]
        at = stop
    return b"".join(pieces) + out[at:]


def lines(block, labels) -> bytes:
    """The text of a (rows, cols) float64 block, cols >= 1: for each row its
    label (that row of `labels`, a uint8 matrix whose NUL bytes are
    dropped), then `" ".join(map(repr, row))` and a line end. Formatted
    `CHUNK` values at a time, so a block of any size costs a bounded amount
    of memory."""
    block = np.asarray(block, dtype=np.float64)
    cols = block.shape[1]
    flat = block.reshape(-1)
    ends = np.full(cols, ord(" "), dtype=np.uint8)
    ends[-1] = ord("\n")
    out = []
    for start in range(0, flat.size, CHUNK):
        stop = min(start + CHUNK, flat.size)
        i = np.arange(start, stop)
        col = i % cols
        lab = labels[i // cols]
        lab[col != 0] = 0
        out.append(_chunk(flat[start:stop], ends[col], lab))
    return b"".join(out)
