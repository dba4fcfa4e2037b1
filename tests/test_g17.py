"""The CSV writers' %.17g kernel against Python's own ``%`` formatting.

Run as a script for a longer check, as CI does:

    python -W error tests/test_g17.py 10000000 [SEED]

It prints the count of values checked and exits 1 on the first mismatching
chunk, naming its first mismatches.
"""

import sys

import numpy as np

from sshat._g17 import _decimal, _digit_words, _g17_bytes, _text_tables
from sshat.cli import _TEXT_BATCH

# Values per generated chunk, and per kernel call as the writers make them.
CHUNK = 2**16
CALL = _TEXT_BATCH

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308]
POWERS = 10.0 ** np.arange(-25, 26)
EDGES = np.concatenate([POWERS, np.nextafter(POWERS, 0.0), np.nextafter(POWERS, np.inf)])


def _signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def _classes(rng, n):
    """n values of each seeded class."""
    # N / 1024 with N odd from 2e10 has 8 integer and 10 fraction digits, the
    # last a 5: the 17-digit text is an exact half-way tie.
    ties = (2 * rng.integers(10**10, 5 * 10**10, n) + 1) / 1024.0
    places = rng.integers(0, 8, n).astype(float)
    return [
        rng.uniform(-0.06, 0.06, n),
        np.exp(rng.uniform(np.log(1e-40), np.log(1e40), n)) * _signs(rng, n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        np.rint(rng.uniform(-1e3, 1e3, n) * 10.0**places) / 10.0**places,
        rng.integers(0, 10**17, n).astype(np.float64) * _signs(rng, n),
        ties * _signs(rng, n),
        (2 * rng.integers(1, 2**40, n) + 1) * np.exp2(-rng.integers(1, 60, n).astype(float)),
    ]


def seeded_values(count: int, seed: int):
    """Chunks of ``count`` values in all: the fixed edge and special values,
    then the seeded classes in equal shares."""
    yield np.concatenate([EDGES, -EDGES, SPECIAL])
    done, index = 0, 0
    while done < count:
        rng = np.random.default_rng([seed, index])
        classes = _classes(rng, -(-min(CHUNK, count - done) // 7))
        chunk = np.concatenate(classes)[: count - done]
        done, index = done + len(chunk), index + 1
        yield chunk


def mismatches(values: np.ndarray):
    """``(x, kernel text, % text)`` wherever the two differ, in calls of CALL values."""
    found = []
    for lo in range(0, len(values), CALL):
        chunk = values[lo : lo + CALL]
        expected = [b"%.17g" % x for x in chunk.tolist()]
        got = _g17_bytes(chunk)
        found += [(x, g, e) for x, g, e in zip(chunk.tolist(), got, expected) if g != e]
    return found


def test_the_kernel_matches_percent_formatting_on_a_million_seeded_values():
    checked = 0
    for chunk in seeded_values(10**6, seed=27):
        assert mismatches(chunk) == []
        checked += len(chunk)
    assert checked == 10**6 + 3 * len(POWERS) * 2 + len(SPECIAL)


def test_the_fast_path_covers_the_positional_range():
    # Outside a few values at the ends of [1e-4, 1e16) and where 17 digits
    # round up to 10^(k+1), every value there is written by the kernel
    # itself, not by the % fallback.
    rng = np.random.default_rng(3)
    classes = _classes(rng, 10**4)
    pow10 = _text_tables()[2]
    for x in classes:
        inside = x[(np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)]
        _, _, exact = _decimal(inside, pow10)
        assert exact.mean() > 0.999
    # Every tie and every power of ten in the range takes the fast path.
    for x in (classes[5], POWERS[(POWERS >= 1e-4) & (POWERS < 1e16)]):
        assert _decimal(x, pow10)[2].all()


def _d_and_k(x: float) -> tuple[int, int]:
    """D and k of ``x`` as Python reads them: the 17 significant digits and
    the decimal exponent of its ``"%.16e"`` text."""
    mantissa, exponent = ("%.16e" % abs(x)).split("e")
    return int(mantissa.replace(".", "")), int(exponent)


def _kept(d: int) -> int:
    return len(str(d).rstrip("0"))


def test_the_kept_digit_count_at_every_group_boundary():
    # D is split into the four-digit groups of places 1-4, 5-8, 9-12 and
    # 13-16, and a 17th digit; the last nonzero digit of D sits in each place
    # in turn, after zeros (1 0...0 i) and after nines (9...9 i).
    quad_text, quad_kept, pow10 = _text_tables()[:3]
    d = [10**16, 10**17 - 1]
    for kept in range(1, 18):
        d += [10**16 + 10 ** (17 - kept), 10**17 - 10 ** (17 - kept)]
    assert _digit_words(np.array(d), quad_text, quad_kept)[1].tolist() == list(map(_kept, d))
    assert sorted(set(map(_kept, d))) == list(range(1, 18))

    # No double in the kernel's range has D = 10^17 - 1 (the largest double
    # below each power of ten has D <= 10^17 - 8), so the doubles take, per
    # place and k, the first D of the two forms, tried in turn, whose
    # nearest double prints it back.
    values = []
    for k in (-4, 0, 15):
        for kept in range(1, 18):
            steps = [i * 10 ** (17 - kept) for i in range(1, 100) if i % 10]
            tries = [v for step in steps for v in (10**17 - step, 10**16 + step)]
            nearest = [float(f"{v}e{k - 16}") for v in tries]
            x = next(x for x, v in zip(nearest, tries) if _d_and_k(x) == (v, k))
            values += [x, -x]
    x = np.array(values)
    d, k, exact = _decimal(x, pow10)
    assert exact.all()
    assert list(zip(d.tolist(), k.tolist())) == list(map(_d_and_k, values))
    assert _digit_words(d, quad_text, quad_kept)[1].tolist() == [_kept(_d_and_k(v)[0]) for v in values]
    assert _g17_bytes(x) == [b"%.17g" % v for v in values]


def test_special_and_out_of_range_values_fall_back():
    x = np.array(SPECIAL + [9.99e-5, -1e-5, 1e16, -2.5e20, 1e300])
    assert not _decimal(x, _text_tables()[2])[2].any()
    assert _g17_bytes(x) == [b"%.17g" % v for v in x.tolist()]


def test_texts_follow_c_order_of_any_shape():
    x = np.array([[0.5, -0.125, 0.0], [123456.75, -1e-7, 3.0]])
    assert _g17_bytes(x) == [b"0.5", b"-0.125", b"0", b"123456.75", b"-9.9999999999999995e-08", b"3"]
    assert _g17_bytes(x[:, 0]) == [b"0.5", b"123456.75"]
    assert _g17_bytes(np.array([])) == []


if __name__ == "__main__":
    count = int(float(sys.argv[1]))
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 27
    checked = 0
    for chunk in seeded_values(count, seed):
        bad = mismatches(chunk)
        if bad:
            sys.exit(f"{len(bad)} mismatches after {checked} values, first {bad[:3]}")
        checked += len(chunk)
    print(f"{checked} values, each text equal to '%.17g' % x")
