"""The bytes of CSV lines from columns of numbers and short strings, by
whole-array numpy work: every export formats through ``csv_lines``.

A float field reads as ``repr`` writes it: the shortest digit string that
reads back as the same double, the nearest such string, ties to even. Ryu
(Adams, "Ryu: fast float-to-string conversion", PLDI 2018) finds those
digits with a 64 x 128-bit multiply per bound of the rounding interval;
here the multiplies run on 32-bit limbs of uint64 arrays, and the digit
removal on the shrinking set of values that may still drop a digit. The
layout is Python's: fixed notation for decimal-point positions -3..16
(1e-4 <= |x| < 1e16), exponent notation with at least two exponent digits
outside, ``-0.0``, ``nan``, ``inf`` and ``-inf``.

The bytes of a field are gathered from its value's source row (its digits,
sign, exponent digits and the constant characters) through a template per
class (digit count, decimal-point position). Fields are zero-padded
``uint8`` rows, and the zero bytes of a block's lines are deleted at once.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

_U32 = np.uint64(0xFFFFFFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
_MAGNITUDE = np.uint64((1 << 63) - 1)
_INF_BITS = np.uint64(0x7FF << 52)
_POW5_BITS = 125
# floats per pass of ``_float_pass``, which formats the float columns of a
# row range. On paper-mult-40's ``imc.csv`` (2 vCPU, medians of 21
# alternating calls, blocks of 2**12 rows) 2**11 takes 108 ms and 2**12
# 92 ms; a pass's scratch, about 170 bytes per float, adds to the peak RSS
# of a run whose trajectory export follows the Monte Carlo peak
# (general-sin-20)
_PASS = 2**12
# rows per block of every export (``write_columns``): on paper-mult-40's
# ``imc.csv`` (the same calls) 2**11, 2**12 and 2**13 rows take 93, 92 and
# 96 ms with a traced transient of 0.85, 1.00 and 1.66 MB
_WRITE_ROWS = 2**12
# fields per gather: its (n, _WIDTH) index takes 8 bytes per field byte;
# 2**8 fields take 92 ms and 2**10 88 ms, within the noise, with a
# transient of 1.00 against 1.33 MB (the same calls)
_GATHER = 2**8
# a field is at most 24 bytes: sign, 17 digits, '.', 'e', exponent sign and 3 digits
_WIDTH = 24
# classes per digit count: decimal-point positions -3..16, then exponent
# notation with 2 and with 3 exponent digits
_FIXED = range(-3, 17)
_PER_N = len(_FIXED) + 2
_NAN, _INF = 17 * _PER_N, 17 * _PER_N + 1
# decimal-point positions of finite doubles, -323 (5e-324) to 309 (1e308),
# offset by _POINT0 to index the per-position tables
_POINT0 = 330
_POINTS = 2 * _POINT0
# source row of a float, in bytes: 20 digits (right-aligned), 4 exponent
# digits, the sign, the exponent's sign, 2 zero bytes, then the constant
# characters; the zero byte is padding
_EXP, _SIGN, _ESIGN, _CONST_AT = 20, 24, 25, 28
_CONST = b"0.enaif\0"
_SRC = _CONST_AT + len(_CONST)


def _pow5bits(e):
    return ((e * 1217359) >> 19) + 1


class _Tables(NamedTuple):
    # per biased exponent of a finite double: Ryu's 5^q split as four 32-bit
    # limbs (low first), its shift j - 96 (j is 118..125 for doubles), q,
    # the decimal exponent of vr, the bits of mv that are zero when vr's
    # dropped digits are, and whether Ryu's exact multiple-of-5^q checks
    # apply (2^50 <= x < 2^131)
    mul: np.ndarray
    shift: np.ndarray
    q: np.ndarray
    e10: np.ndarray
    tz_mask: np.ndarray
    exact: np.ndarray
    pow10: np.ndarray  # 10^0..10^19
    dig4: np.ndarray  # the 4 ASCII digits of 0..9999 as little-endian uint32
    dig4z: np.ndarray  # the same with leading zeros as zero bytes: "\0\0\07"
    # per digit count and decimal-point position: the class, and the source
    # words of the exponent's digits and of its sign
    cls: np.ndarray
    exp_digits: np.ndarray
    exp_sign: np.ndarray
    template: np.ndarray  # (classes, _WIDTH) source byte per field byte


@functools.cache
def _tables() -> _Tables:
    """Built on first use, so an import or a run without exports pays nothing."""
    e2 = np.maximum(np.arange(2047), 1) - (1023 + 52 + 2)
    pos, e2p, e2n = e2 >= 0, np.maximum(e2, 0), np.maximum(-e2, 0)
    q = np.where(pos, (e2p * 78913 >> 18) - (e2p > 3), (e2n * 732923 >> 20) - (e2n > 1))
    i = e2n - q  # for e2 < 0
    q_max = int(q[pos].max())
    splits = [(1 << (_pow5bits(k) - 1 + _POW5_BITS)) // 5**k + 1 for k in range(q_max + 1)]
    for k in range(int(i.max()) + 1):
        shift = _pow5bits(k) - _POW5_BITS
        splits.append(5**k >> shift if shift >= 0 else 5**k << -shift)
    limbs = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in splits), "<u4")
    row = np.where(pos, q, q_max + 1 + i)
    j = np.where(pos, -e2 + q + _POW5_BITS + _pow5bits(q) - 1, q - _pow5bits(i) + _POW5_BITS)
    # vr's dropped digits are zeros when mv has q trailing zero bits (e2 < 0,
    # 1 < q < 63) and always (e2 < 0, q <= 1); a mask of all ones never
    # holds, and e2 >= 0 with q <= 21 is decided in ``_shortest``
    mid = ~pos & (q > 1) & (q < 63)
    tz_mask = np.where(mid, (1 << np.clip(q, 0, 62)) - 1, -1).astype(np.uint64)
    tz_mask[~pos & (q <= 1)] = 0

    def const(chars: bytes) -> list[int]:
        return [_CONST_AT + _CONST.index(c) for c in chars]

    zero, dot, e, pad = const(b"0.e\0")
    exp_at = list(range(_EXP + 1, _EXP + 4))  # the last 3 of the 4 exponent digits
    fields = []  # per class: the source byte of each byte of the field
    for n in range(1, 18):
        digits = list(range(20 - n, 20))
        for point in _FIXED:
            if point <= 0:  # 0.000ddd
                body = [zero, dot] + [zero] * -point + digits
            elif point < n:  # dd.ddd
                body = digits[:point] + [dot] + digits[point:]
            else:  # ddd00.0
                body = digits + [zero] * (point - n) + [dot, zero]
            fields.append([_SIGN] + body)
        mantissa = digits[:1] + ([dot] + digits[1:] if n > 1 else [])
        for width in (2, 3):  # d.ddde-05, d.ddde-305
            fields.append([_SIGN] + mantissa + [e, _ESIGN] + exp_at[-width:])
    fields += [const(b"nan"), [_SIGN] + const(b"inf")]
    template = b"".join(bytes(f + [pad] * (_WIDTH - len(f))) for f in fields)
    v = np.arange(10000, dtype=np.uint32)
    dig4 = sum((v // 10 ** (3 - k) % 10 + ord("0")) << 8 * k for k in range(4)).astype("<u4")
    dig4z = dig4.copy()
    for k, below in enumerate((1000, 100, 10)):  # byte k is a leading zero below 10^(3 - k)
        dig4z[:below] &= np.uint32(~(0xFF << 8 * k) & 0xFFFFFFFF)
    point = np.arange(_POINTS) - _POINT0
    fixed = (point >= _FIXED[0]) & (point <= _FIXED[-1])
    exp_width = len(_FIXED) + (np.abs(point - 1) >= 100)
    cls = np.arange(-1, 17)[:, None] * _PER_N + np.where(fixed, point - _FIXED[0], exp_width)
    return _Tables(
        np.ascontiguousarray(limbs.reshape(-1, 4)[row].T),
        (j - 96).astype(np.uint8),
        q,
        np.where(pos, q, q + e2),
        tz_mask,
        (pos & (q <= 21)) | (~pos & (q <= 1)),
        np.array([10**k for k in range(20)], np.uint64),
        dig4,
        dig4z,
        cls.astype(np.int16),
        dig4[np.abs(point - 1)],
        np.where(point < 1, ord("-"), ord("+")).astype("<u4") << 8,
        np.frombuffer(template, np.uint8).reshape(-1, _WIDTH),
    )


def _chunks(v: np.ndarray, t: _Tables, out: np.ndarray) -> None:
    """Write the decimal digits of uint64s ``v`` < 10^(4 k), zero-padded to
    4 k, into ``out`` of shape (len(v), k): little-endian uint32 words of
    four ASCII digits each."""
    for k in range(out.shape[1] - 1, 0, -1):
        q = v // np.uint64(10000)
        out[:, k] = t.dig4[(v - q * np.uint64(10000)).view(np.int64)]
        v = q
    out[:, 0] = t.dig4[v.view(np.int64)]


def _bounds(mv: np.ndarray, mm_shift: np.ndarray, mul: np.ndarray, shift: np.ndarray):
    """Ryu's vm, vr and vp as rows of a (3, n) array: floor(m * mul /
    2^(96 + shift)) for m = mv - 1 - mm_shift, mv and mv + 2, with ``mul``
    as four 32-bit limbs (4, n) and shift in [0, 32). The three products
    share (mv - 2) * mul, to which 1 - mm_shift, 2 and 4 times ``mul`` are
    added. Their 32-bit limbs are summed column by column, each partial
    product split in halves, so no 64-bit sum overflows."""
    base = mv - np.uint64(2)
    halves = (base & _U32, base >> np.uint64(32))
    del base
    limb = np.zeros((3, len(mv)), np.uint64)  # limb k of the products, after the carry
    high_halves = 0
    for k in range(6):
        column, high_halves = high_halves, 0
        for h, half in enumerate(halves):
            if 0 <= k - h < 4:
                p = half * mul[k - h]
                column = column + (p & _U32)
                p >>= np.uint64(32)
                high_halves = high_halves + p
        limb += column
        if k < 4:
            limb[0] += mul[k] * ~mm_shift
            limb[1] += mul[k] << np.uint64(1)
            limb[2] += mul[k] << np.uint64(2)
        if k == 3:
            low = limb & _U32  # bits 96-127
        elif k == 4:
            low |= limb << np.uint64(32)
        if k < 5:
            limb >>= np.uint64(32)  # the carry into limb k + 1
    # limb is limb 5, from bit 160: the result has fewer than 64 bits
    low >>= shift
    limb <<= np.uint64(64) - shift
    low |= limb
    return low


def _shortest(bits: np.ndarray, t: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's d2s: the shortest, nearest digits (an integer) and their decimal
    exponent for the bit patterns of positive finite doubles."""
    exponent = (bits >> np.uint64(52)).view(np.int64)
    mantissa = bits & _MANTISSA
    mv = (mantissa | (exponent != 0).astype(np.uint64) << np.uint64(52)) << np.uint64(2)
    accept = (bits & np.uint64(1)) == 0  # an even mantissa's interval holds its bounds
    mm_shift = (mantissa != 0) | (exponent <= 1)
    # vm, vr and vp: the interval's lower bound, the value and its upper bound
    v = _bounds(mv, mm_shift, t.mul[:, exponent], t.shift[exponent])
    vr_tz = (mv & t.tz_mask[exponent]) == 0  # vr's dropped digits are all zeros
    vm_tz = np.zeros(len(bits), bool)  # vm's dropped digits are all zeros
    k = np.flatnonzero(t.exact[exponent])
    if len(k):
        e2_pos = exponent[k] >= 1023 + 52 + 2
        small, tiny = k[e2_pos], k[~e2_pos]
        pow5 = np.uint64(5) ** t.q[exponent[small]].astype(np.uint64)
        mv5 = mv[small] % np.uint64(5) == 0
        vr_tz[small] = mv5 & (mv[small] % pow5 == 0)
        mm = mv[small] - np.uint64(1) - mm_shift[small]
        vm_tz[small] = ~mv5 & accept[small] & (mm % pow5 == 0)
        vp_tz = (mv[small] + np.uint64(2)) % pow5 == 0
        v[2, small] -= (~mv5 & ~accept[small] & vp_tz).astype(np.uint64)
        vm_tz[tiny] = accept[tiny] & mm_shift[tiny]
        v[2, tiny] -= (~accept[tiny]).astype(np.uint64)
    vm, vr, vp = v

    # drop the last r digits, r the largest with a multiple of 10^r in
    # (vm, vp]: the r with 10^r <= vp - vm has one, and a larger r may
    removed = np.maximum(np.searchsorted(t.pow10, vp - vm, side="right") - 1, 0)
    live = np.arange(len(bits))
    while len(live):
        scale = t.pow10[removed[live] + 1]
        live = live[vp[live] // scale > vm[live] // scale]
        removed[live] += 1
    scale, below = t.pow10[removed], t.pow10[np.maximum(removed - 1, 0)]
    kept, rest = vr // scale, vr // below
    last = np.where(removed > 0, rest - kept * np.uint64(10), 0).astype(np.uint64)
    vr_tz &= rest * below == vr  # the digits below the last one dropped are zeros
    vm_kept = vm // scale
    vm_tz &= vm_kept * scale == vm
    vr, vm = kept, vm_kept
    # while vm's dropped digits are zeros, drop the trailing zeros of vm too
    live = np.flatnonzero(vm_tz)
    live = live[vm[live] % np.uint64(10) == 0]
    while len(live):
        r = vr[live]
        vr_tz[live] &= last[live] == 0
        vr[live] = r // np.uint64(10)
        last[live] = r - vr[live] * np.uint64(10)
        vm[live] //= np.uint64(10)
        removed[live] += 1
        live = live[vm[live] % np.uint64(10) == 0]
    tie = vr_tz & (last == 5) & (vr % np.uint64(2) == 0)
    last[tie] = 4  # round half to even
    up = ((vr == vm) & (~accept | ~vm_tz)) | (last >= 5)
    return vr + up.astype(np.uint64), t.e10[exponent] + removed


def _float_pass(bits: np.ndarray, t: _Tables, out: np.ndarray) -> None:
    """Write the fields of the doubles with bit patterns ``bits`` into ``out``."""
    magnitude = bits & _MAGNITUDE
    special = magnitude >= _INF_BITS
    zero = magnitude == 0
    regular = ~(special | zero)
    shortest = _shortest(magnitude[regular], t)  # its scratch peaks before the outputs exist
    digits = np.zeros(len(bits), np.uint64)
    exp10 = np.zeros(len(bits), np.int64)  # 0 is the digit 0
    digits[regular], exp10[regular] = shortest
    n = np.maximum(np.searchsorted(t.pow10, digits, side="right"), 1)
    at = exp10 + n + _POINT0  # the decimal point's position after the first digit's
    cls = t.cls[n, at]
    nan = magnitude > _INF_BITS
    cls[special] = np.where(nan[special], _NAN, _INF)

    src = np.empty((len(bits), _SRC // 4), "<u4")
    _chunks(digits, t, src[:, : _EXP // 4])
    src[:, _EXP // 4] = t.exp_digits[at]
    src[:, _SIGN // 4] = t.exp_sign[at] | ((bits != magnitude) & ~nan) * np.uint32(ord("-"))
    src[:, _CONST_AT // 4 :] = np.frombuffer(_CONST, "<u4")
    flat = src.view(np.uint8).ravel()
    for a in range(0, len(bits), _GATHER):
        rows = np.arange(a * _SRC, min(a + _GATHER, len(bits)) * _SRC, _SRC)
        index = t.template[cls[a : a + _GATHER]] + rows[:, None]
        np.take(flat, index, out=out[a : a + _GATHER])


def _ints(v: np.ndarray, t: _Tables) -> np.ndarray:
    """(len(v), width) zero-padded ``uint8`` rows: the decimal digits of
    non-negative integers."""
    v = np.asarray(v, np.uint64)
    k = (len(str(int(v.max()))) + 3) // 4 if len(v) else 1  # words of 4 digits
    words = np.empty((len(v), k), "<u4")
    _chunks(v, t, words)
    # the first word with a digit of v loses its leading zeros, and the
    # words before it are padding
    top = k - 1 - np.searchsorted(t.pow10[4 : 4 * k : 4], v, side="right")
    words[np.arange(len(v)), top] = t.dig4z[(v // t.pow10[4 * (k - 1 - top)]).view(np.int64)]
    words[np.arange(k) < top[:, None]] = 0
    return words.view(np.uint8)


def _strings(names: Sequence[str], codes: np.ndarray) -> np.ndarray:
    """(len(codes), width) zero-padded ``uint8`` rows: ``names[code]``."""
    encoded = [s.encode("utf-8") for s in names]
    width = max(map(len, encoded), default=0)
    table = np.frombuffer(b"".join(s.ljust(width, b"\0") for s in encoded), np.uint8)
    return table.reshape(len(encoded), width)[codes]


def csv_lines(*columns) -> bytes:
    """The CSV lines, one per row, of equal-length columns: a float array
    (written as ``repr`` writes each float), a non-negative int array, or a
    (names, codes) pair of short strings (``names[code]``; ``("",)`` makes
    empty fields)."""
    t = _tables()
    fields = [_strings(*c) if isinstance(c, tuple) else None if c.dtype.kind == "f" else _ints(c, t)
              for c in columns]  # None: a float column, formatted below
    widths = [_WIDTH if f is None else f.shape[1] for f in fields]
    at = np.cumsum([0] + [width + 1 for width in widths])  # each field's first byte
    rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    line = np.empty((rows, at[-1]), np.uint8)
    for f, a, width in zip(fields, at, widths):
        if f is not None:
            line[:, a : a + width] = f
        line[:, a + width] = ord(",")
    line[:, -1] = ord("\n")
    floats = [k for k, f in enumerate(fields) if f is None]
    # a pass formats the float columns of a row range: passes of equal
    # size, of at most about _PASS floats
    passes = -(-rows * len(floats) // _PASS)
    for p in range(passes):
        a, b = rows * p // passes, rows * (p + 1) // passes
        x = np.stack([columns[k][a:b] for k in floats], axis=1, dtype=np.float64)
        out = np.empty((len(x), len(floats), _WIDTH), np.uint8)
        _float_pass(x.ravel().view(np.uint64), t, out.reshape(-1, _WIDTH))
        for i, k in enumerate(floats):
            line[a:b, at[k] : at[k] + _WIDTH] = out[:, i]
    return line.tobytes().translate(None, b"\0")


def write_columns(path, header: str, *parts) -> None:
    """Write ``header`` and one CSV line per row of each part in turn. A part
    is (rows, block): ``block(a, b)`` gives the columns of its rows a..b (see
    ``csv_lines``), formatted ``_WRITE_ROWS`` rows at a time, which bounds
    the memory used."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for rows, block in parts:
            for a in range(0, rows, _WRITE_ROWS):
                fh.write(csv_lines(*block(a, min(a + _WRITE_ROWS, rows))))
