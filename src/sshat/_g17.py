"""Exact ``%.17g`` text of a float64 array, for the CSV writers of ``sshat.cli``.

Kept apart from ``cli.py`` so that neither module's compile from source
raises the peak memory of a run: compiling a module takes memory in
proportion to its size, and ``oracle.py`` is the largest.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _text_tables():
    """The constant tables of ``_g17_bytes``, built on its first call.

    - the four ASCII digits of 0..9999 as little-endian uint64, first digit in
      the low byte and the top four bytes zero, and the place, 1 to 4, of
      their last nonzero digit (-16 for 0, below any place another group
      gives);
    - 10^0..10^20, each exact as a double;
    - per layout key ``(neg * 20 + k + 4) * 17 + kept - 1`` (sign, decimal
      exponent k in [-4, 15], 1..17 significant digits kept), as
      little-endian uint64 words of shape (3, 680): the fixed bytes of the text (sign, leading "0.000",
      point), the masks that keep the digits before and after the point, and
      the left shift, in bits, that moves the kept digits behind the fixed
      bytes.
    """
    quads = np.arange(10000)
    digits = np.stack([quads // 10 ** (3 - j) - quads // 10 ** (4 - j) * 10 + 48 for j in range(4)], axis=1)
    quad_text = digits.astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    quad_kept = 4 - sum(quads % 10**j == 0 for j in range(1, 5))
    quad_kept[0] = -16
    pow10 = np.array([float(10**j) for j in range(21)])

    fixed, head, tail, shift = [], [], [], []
    for neg in (0, 1):
        for k in range(-4, 16):
            for kept in range(1, 18):
                sign = b"-" * neg
                if k < 0:
                    text, before, after, at = sign + b"0." + b"0" * (-k - 1), kept, 0, neg + 1 - k
                else:
                    after = max(kept - k - 1, 0)
                    text = sign + (b"\0" * (k + 1) + b"." if after else b"")
                    before, at = k + 1, neg
                fixed.append(text.ljust(24, b"\0"))
                head.append((b"\xff" * before).ljust(24, b"\0"))
                tail.append((b"\0" * before + b"\xff" * after).ljust(24, b"\0"))
                shift.append(8 * at)
    words = [np.frombuffer(b"".join(t), "<u8").reshape(-1, 3).T.copy() for t in (fixed, head, tail)]
    return quad_text, quad_kept, pow10, *words, np.array(shift, np.uint64)


def _split(v: np.ndarray):
    """Veltkamp's split of ``v`` into two halves of at most 26 significant bits each."""
    t = v * 134217729.0  # 2^27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _decimal(x: np.ndarray, pow10: np.ndarray):
    """``(D, k, exact)`` of the float64 array ``x``: where ``exact``, k is the
    decimal exponent of x and D = round-half-even(|x| 10^(16-k)), its 17
    significant digits; elsewhere D = 1e16.

    ``exact`` holds for 1e-4 <= |x| < 1e16 unless log10 misjudged k or the
    rounding carried into an 18th digit, which puts D outside [1e16, 1e17).
    There 10^(16-k) is a double, so Dekker's product hi + lo equals
    |x| 10^(16-k) exactly, and hi >= 2^53 is an even integer: D = hi + rint(lo).
    """
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e16)
    a = np.where(exact, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    p = pow10[16 - k]
    hi = a * p
    (ah, al), (ph, pl) = _split(a), _split(p)
    lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exact &= (d >= 10**16) & (d < 10**17)
    return np.where(exact, d, 10**16), k, exact


def _digit_words(d: np.ndarray, quad_text: np.ndarray, quad_kept: np.ndarray):
    """The 17 digits of each D in ``d`` as ASCII in little-endian uint64 words
    of shape (3, n), first digit in the low byte of word 0, and the count of
    digits up to the last nonzero one."""
    # D is 16 digits q, as two halves of two four-digit groups each, and a
    # last digit.  Every divisor is a scalar, which numpy turns into a
    # multiply and a shift.
    q = d // 10
    last = d - 10 * q
    halves = np.empty((2, len(d)), np.int64)
    np.floor_divide(q, 10**8, out=halves[0])
    np.subtract(q, 10**8 * halves[0], out=halves[1])
    firsts = halves // 10**4
    seconds = halves - 10**4 * firsts
    # Word 0 holds the first half, word 1 the second and word 2 the last digit.
    words = np.empty((3, len(d)), np.uint64)
    np.bitwise_or(quad_text.take(firsts), quad_text.take(seconds) << np.uint64(32), out=words[:2])
    words[2] = last + 48
    # The place of the last nonzero digit, in each half, then in all 17.
    places = np.maximum(quad_kept.take(firsts), quad_kept.take(seconds) + 4)
    return words, np.where(last != 0, 17, np.maximum(places[0], places[1] + 8))


def _g17_bytes(values: np.ndarray) -> list[bytes]:
    """The exact ``b"%.17g" % x`` of each element of the float64 array ``values``, in C order.

    Where ``_decimal`` is exact, the digits of D come four at a time from a
    table.  Each text is three little-endian uint64 words of ASCII, byte i in
    bits 8i..8i+7 of word i // 8, so moving text c bytes right is a left shift
    by 8c bits that carries the top of each word into the next; the words are
    read as NUL-padded S24 items, whose ``tolist()`` drops the padding.  Every
    other element (0, subnormals, inf, nan, |x| < 1e-4 or >= 1e16) is
    formatted by ``%`` one at a time.
    """
    quad_text, quad_kept, pow10, fixed, head, tail, shifts = _text_tables()
    x = np.asarray(values, dtype=np.float64).ravel()
    d, k, exact = _decimal(x, pow10)
    digits, kept = _digit_words(d, quad_text, quad_kept)
    key = (np.signbit(x) * 20 + k + 4) * 17 + kept - 1

    # The digits after the point move one byte right, then all of them move
    # behind the sign and any leading "0.000".
    after = digits & tail.take(key, axis=1)
    body = digits & head.take(key, axis=1)
    body |= after << np.uint64(8)
    body[1:] |= after[:2] >> np.uint64(56)
    shift = shifts[key]
    words = fixed.take(key, axis=1)
    words |= body << shift
    words[1:] |= body[:2] >> (np.uint64(64) - shift)

    texts = np.ascontiguousarray(words.T, "<u8").view("S24").ravel().tolist()
    slow = np.flatnonzero(~exact)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        texts[i] = b"%.17g" % v
    return texts
