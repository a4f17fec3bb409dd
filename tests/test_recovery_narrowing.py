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

from hypothesis import given, settings
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
