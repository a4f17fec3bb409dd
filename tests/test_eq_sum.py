"""``_Checker.eq_sum``, the one rule for every sum-of-products identity.

muu+[u,a] of the measure recursion, the zgod0 ray products and the
bilateral shift identities tshift[k,n] all check lhs == sum of e * x / d
through it.  Exact operands are decided by integer cross-products and a
passing check records its lhs as its rhs; anything else forms the rhs and
goes through ``eq``.  The rule must record what ``eq`` records on the
formed rhs, and ``certify_bilateral`` must render the report that its
own per-identity ``eq`` loop rendered before; that loop is kept here as
it stood.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treeshift import WeightSystem, WeightedShift, certify_bilateral, make_bilateral_chain, moments_of
from treeshift.criteria import _Checker
from treeshift.moments import TwoSidedMomentSequence, represent, two_sided_stieltjes_check
from treeshift.rationals import ONE, ZERO
from treeshift.report import witness_check
from treeshift.shifts import moment_sequence
from treeshift.trees import single_child_path

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

rationals = st.fractions(min_value=0, max_value=20, max_denominator=30)
positive = st.fractions(min_value=Fraction(1, 30), max_value=20, max_denominator=30)


def _formed(terms, d):
    rhs = ZERO
    for e, x in terms:
        rhs = rhs + e * (x / d)
    return rhs


def _as(kind, value, data):
    """``value`` as a Fraction, a float, or (mixed) either one."""
    if kind == "mixed":
        kind = data.draw(st.sampled_from(["exact", "float"]))
    return float(value) if kind == "float" else value


@SETTINGS
@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4),
       st.one_of(st.just(ONE), positive),
       st.sampled_from(["exact", "float", "mixed"]),
       st.sampled_from(["auto", "exact", "float"]),
       st.sampled_from(["sum", "off", "zero"]),
       st.data())
def test_eq_sum_records_what_eq_records(raw, d, kind, mode, target, data):
    # zero weights (e = 0) and zero terms are drawn alongside the rest; lhs is the exact
    # sum, that sum moved by 1/997, or 0, so passing and failing checks both occur
    exact_sum = _formed(raw, d)
    lhs = {"sum": exact_sum, "off": exact_sum + Fraction(1, 997), "zero": ZERO}[target]
    terms = [(_as(kind, e, data), _as(kind, x, data)) for e, x in raw]
    lhs, d = _as(kind, lhs, data), (d if d is ONE else _as(kind, d, data))

    got, want = _Checker(mode), _Checker(mode)
    try:
        rhs = got.eq_sum("c", lhs, terms, d)
    except ValueError as exc:   # exact mode on float data
        with pytest.raises(ValueError, match=str(exc)):
            want.eq("c", lhs, _formed(terms, d))
        return
    want.eq("c", lhs, _formed(terms, d))
    check = got.checks[-1]
    assert check.passed == want.checks[-1].passed
    assert got.report("r", {}).to_json() == want.report("r", {}).to_json()
    assert rhs is check.rhs
    exact = all(isinstance(v, Fraction) for v in (lhs, d, *(v for term in terms for v in term)))
    if exact and mode != "float":
        assert check.passed == (lhs == exact_sum)
        if check.passed:   # decided by the cross-product, not by the formed rhs
            assert check.rhs is lhs


def parent_certify_bilateral(shift, K, N, m_max=None, base=0, mode="auto", tol=1e-9):
    """``certify_bilateral`` as it stood before the shift identities went through ``eq_sum``."""
    tree = shift.tree
    top = base
    for _ in range(K):
        top = tree.parent(top)
    chain = single_child_path(tree, top, K + N)

    values = {0: ONE}
    for n in range(1, N + 1):
        values[n] = values[n - 1] * shift.sq(chain[K + n])
    for k in range(1, K + 1):
        values[-k] = values[-k + 1] / shift.sq(chain[K - k + 1])
    window = {n: values[n] for n in range(-K, N + 1)}
    ts = TwoSidedMomentSequence.from_map(window)

    ck = _Checker(mode, tol)
    sv = two_sided_stieltjes_check(ts, K, mode=mode, tol=tol)
    if sv.violated:
        ck.checks.append(witness_check(sv.witness))
    else:
        for k in sv.shifts_checked:
            ck.psd(f"psd[shift={k}]", True, f"shifted sequence (t_-{k}, ...) consistent")

    for k in range(K + 1):
        ms = moment_sequence(shift, chain[K - k], N)
        for n in range(N + 1):
            ck.eq(f"tshift[{k},{n}]", values[n - k], values[-k] * ms[n])

    notes = [f"all k <= {K} verified; the criterion quantifies over infinitely many k"]
    if not sv.violated and m_max is not None:
        rep = represent(ts.shifted(0), m_max, mode=mode)
        if rep is not None and not rep.has_zero_atom():
            for n in range(-K, N + 1):
                ck.eq(f"rep[{n}]", moments_of(rep, n), window[n])
            notes.append("atomic representing measure on (0, inf) matches the whole window")
        else:
            notes.append(f"no representing measure with <= {m_max} atoms exhibited")
    params = {"window_left": K, "window_right": N}
    if m_max is not None:
        params["m_max"] = m_max
    return ck.report("bilateral-shift-two-sided-stieltjes", params, notes)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 4), st.integers(0, 12), st.data(),
       st.sampled_from([("auto", False), ("float", False), ("auto", True)]),
       st.sampled_from([None, 2]))
def test_bilateral_report_matches_eq_loop(K, N, data, arith, m_max):
    # weights on the vertices -K+1..N that the window and the orbit sums read; the rest 1
    mode, floats = arith
    sqs = data.draw(st.lists(positive, min_size=K + N, max_size=K + N))
    if floats:
        sqs = [float(x) for x in sqs]
    weights = WeightSystem.from_rule(lambda v: sqs[v + K - 1] if -K < v <= N else ONE)
    shift = WeightedShift(make_bilateral_chain(), weights)
    got = certify_bilateral(shift, K, N, m_max=m_max, mode=mode)
    assert got.to_json() == parent_certify_bilateral(shift, K, N, m_max=m_max, mode=mode).to_json()
    if got.arithmetic == "exact":   # the cross-product decided every shift identity
        assert all(c.rhs is c.lhs for c in got.checks if c.cid.startswith("tshift"))
