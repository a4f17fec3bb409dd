"""The staged rational-root test of atomic recovery against the route it replaced.

``_narrowed_rational_root`` is a verbatim copy of the replaced
``_isolated_rational_root``, which narrowed every node below 1 / (2 lead**2)
and then tried the one fraction with denominator at most lead closest to the
midpoint.  The staged test must find the same rational roots, call the same
roots irrational, and leave every recovered measure as it was.
"""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeshift import MeasureRecoveryError, recover_atomic_measure
from treeshift import moments
from treeshift.moments import _eval_int_poly, _isolated_rational_root, _narrow


def _narrowed_rational_root(s, a: int, b: int, k: int):
    lead = abs(s[-1])
    a, b, k = _narrow(s, a, b, k, 2 * lead * lead)
    cand = Fraction(b, 1 << k)
    if _eval_int_poly(s, b, 1 << k):
        cand = Fraction(a + b, 1 << (k + 1)).limit_denominator(lead)
    inside = a < cand * (1 << k) <= b and _eval_int_poly(s, cand.numerator, cand.denominator) == 0
    return (cand if inside else None), (a, b, k)


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


denominators = st.one_of(st.integers(1, 40), st.integers(2 ** 31 - 8, 2 ** 31 + 8),
                         st.integers(10 ** 12, 10 ** 12 + 10 ** 6))


@given(st.lists(st.tuples(st.integers(-60, 60), denominators), min_size=0, max_size=4),
       st.one_of(st.none(), st.tuples(st.integers(-20, 20), st.integers(1, 400))))
@settings(max_examples=300, deadline=None)
def test_staged_test_matches_the_narrowed_test(factors, quadratic):
    # s = prod (q x - p) (x^2 - 2 a x + a^2 - d), primitive and squarefree; every real
    # root gets a dyadic interval that holds it alone, and both tests must agree on it
    roots = sorted({Fraction(p, q) for p, q in factors})
    s = [1]
    for r in roots:
        s = _times(s, [-r.numerator, r.denominator])
    real = [(r, r) for r in roots]
    if quadratic is not None:
        a, d = quadratic
        if math.isqrt(d) ** 2 != d:
            s = _times(s, [a * a - d, -2 * a, 1])
            w = math.sqrt(d)
            real += [(None, a - w), (None, a + w)]
    g = math.gcd(*s)
    s = [c // g for c in s]
    real.sort(key=lambda x: x[1])
    gaps = [float(y[1] - x[1]) for x, y in zip(real, real[1:])]
    if not real or (gaps and min(gaps) < 1e-9):
        return
    k = 40 + max(0, -math.floor(math.log2(min(gaps, default=1.0))))
    cuts = [math.floor((float(x[1]) + float(y[1])) / 2 * 2 ** k) for x, y in zip(real, real[1:])]
    ends = [math.floor((float(real[0][1]) - 1) * 2 ** k)] + cuts + [math.ceil((float(real[-1][1]) + 1) * 2 ** k)]
    for (want, _), lo, hi in zip(real, ends, ends[1:]):
        got = _isolated_rational_root(s, lo, hi, k)[0]
        assert got == want == _narrowed_rational_root(s, lo, hi, k)[0]


@st.composite
def big_denominator_prefixes(draw):
    """(t_0..t_{2m-1}, m): moments of m rational atoms with denominators up to 10^12, perhaps
    with one moment scaled by 1 +- 1/100 (irrational nodes, or no measure at all)."""
    m = draw(st.integers(1, 5))
    qs = draw(st.lists(st.one_of(st.integers(1, 50), st.integers(1, 10 ** 12)), min_size=m, max_size=m))
    where = sorted({Fraction(draw(st.integers(1, 10 * q)), q) for q in qs})
    mass = [Fraction(draw(st.integers(1, 1000)), draw(st.integers(1, 1000))) for _ in where]
    t = [sum(w * x ** n for x, w in zip(where, mass)) for n in range(2 * len(where))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(t) - 1))
        t[i] *= Fraction(draw(st.sampled_from((99, 101))), 100)
    return t, len(where)


def _recover(t, m):
    try:
        return recover_atomic_measure(t, m).atoms
    except MeasureRecoveryError as exc:
        return exc.reason, str(exc)


@given(big_denominator_prefixes())
@settings(max_examples=150, deadline=None)
def test_recovery_is_unchanged_by_the_staged_test(case):
    t, m = case
    got = _recover(t, m)
    with mock.patch.object(moments, "_isolated_rational_root", _narrowed_rational_root):
        assert got == _recover(t, m)


def _evaluating_narrow(s, a: int, b: int, k: int, scale: int):
    """moments._narrow as it was, evaluating s at b before testing the width, kept verbatim
    as the reference."""
    slope = [i * c for i, c in enumerate(s)][1:]
    at_hi, g = _eval_int_poly(s, b, 1 << k), 1
    while at_hi and scale * (b - a) >= 1 << k:
        d = _eval_int_poly(slope, b, 1 << k)
        c = ((b * d - at_hi) << g) // d if d else b << g   # Newton's step from b, on the grid
        if a << g <= c < b << g:
            left, right = (_eval_int_poly(s, x, 1 << (k + g)) for x in (c, c + 1))
            if right == 0 or left and (left > 0) != (at_hi > 0) == (right > 0):   # sign change
                a, b, k, at_hi, g = c, c + 1, k + g, right, 2 * g
                continue
        mid, k, g = a + b, k + 1, 1
        at_mid = _eval_int_poly(s, mid, 1 << k)
        if at_mid == 0 or (at_mid > 0) == (at_hi > 0):
            a, b, at_hi = 2 * a, mid, at_mid
        else:
            a, b = mid, 2 * b
    return a, b, k


@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 40)), min_size=1, max_size=4, unique=True),
       st.integers(0, 3), st.sampled_from((1, 2 ** 20, 2 ** 64, 3 ** 50)))
@settings(max_examples=200, deadline=None)
def test_narrow_tests_the_width_first(factors, which, scale):
    # s = prod (q x - p); the cell (r - 2^-40, r + 2^-41] around one root, then that cell
    # narrowed below 1 / scale and narrowed again: the second call must return the cell
    # untouched, without evaluating s, and both calls must match the evaluating reference
    roots = sorted({Fraction(p, q) for p, q in factors})
    s = [1]
    for r in roots:
        s = _times(s, [-r.numerator, r.denominator])
    root = roots[which % len(roots)]
    k = 60
    lo, hi = math.floor((root - Fraction(1, 2 ** 40)) * 2 ** k), math.floor((root + Fraction(1, 2 ** 41)) * 2 ** k)
    assume(all(not lo < x * 2 ** k <= hi for x in roots if x != root))
    cell = _narrow(s, lo, hi, k, scale)
    assert cell == _evaluating_narrow(s, lo, hi, k, scale)
    with mock.patch.object(moments, "_eval_int_poly", side_effect=AssertionError("s evaluated")):
        if scale * (cell[1] - cell[0]) < 1 << cell[2]:
            assert _narrow(s, *cell, scale) == cell
    assert _narrow(s, *cell, scale) == _evaluating_narrow(s, *cell, scale)
