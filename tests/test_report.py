"""Report rendering: the Fraction fast paths and rationals of any size."""

import json
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treeshift import (
    AtomicMeasure,
    ConsistentSystem,
    build_branch_tree_system,
    certify_branch_tree,
    make_branch_shift,
    verify_consistent_system,
)
from treeshift.cli import main
from treeshift.rationals import INF, format_human, format_struct
from treeshift.report import CertificateReport, Check, Verdict, check_eq

DATA = Path(__file__).parent / "data"


# -- reference copies of the report logic before the Fraction fast paths ----------


def _reference_check_eq(cid, lhs, rhs, mode="exact", tol=1e-9, note=""):
    if lhs == INF or rhs == INF:
        ok = lhs == rhs
        slack = INF
    elif mode == "exact":
        ok = lhs == rhs
        slack = rhs - lhs
    else:
        ok = abs(float(lhs) - float(rhs)) <= tol * max(1.0, abs(float(rhs)))
        slack = float(rhs) - float(lhs)
    return Check(cid, "==", lhs, rhs, bool(ok), slack, note)


def _reference_render(value, machine):
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, str, int)):
        return value
    try:
        return format_struct(value) if machine else format_human(value)
    except TypeError:
        return str(value)


def _reference_to_text(report):
    """CertificateReport.to_text as it was before it reused the rendered lhs."""
    lines = [f"criterion: {report.criterion}"]
    lines.append(f"verdict: {report.verdict.value.upper()}   arithmetic: {report.arithmetic}")
    if report.params:
        rendered = " ".join(f"{k}={_reference_render(v, False)}" for k, v in sorted(report.params.items()))
        lines.append(f"params: {rendered}")
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        if c.relation in ("flag", "psd"):
            body = c.note or c.relation
        else:
            body = f"{_reference_render(c.lhs, False)} {c.relation} {_reference_render(c.rhs, False)}"
            if c.slack is not None:
                body += f" (slack {_reference_render(c.slack, False)})"
            if c.note:
                body += f" -- {c.note}"
        lines.append(f"  [{mark}] {c.cid}: {body}")
    for n in report.notes:
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n"


def _reference_entry(c):
    return {"id": c.cid, "relation": c.relation, "lhs": _reference_render(c.lhs, True),
            "rhs": _reference_render(c.rhs, True), "slack": _reference_render(c.slack, True),
            "passed": c.passed, "note": c.note}


OPERANDS = {
    "fraction": Fraction(3, 4),
    "equal fraction": Fraction(6, 8),
    "unequal fraction": Fraction(-5, 7),
    "int": 2,
    "float": 0.75,
    "inf": INF,
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("lhs,rhs", list(product(OPERANDS, repeat=2)))
def test_check_eq_and_its_entry_match_the_reference(lhs, rhs, mode):
    a, b = OPERANDS[lhs], OPERANDS[rhs]
    got, want = check_eq("c", a, b, mode), _reference_check_eq("c", a, b, mode)
    assert got == want
    assert type(got.slack) is type(want.slack)
    report = CertificateReport("parity", Verdict.CERTIFIED, mode, [got])
    assert report.to_struct()["checks"] == [_reference_entry(want)]
    assert report.to_text() == CertificateReport("parity", Verdict.CERTIFIED, mode, [want]).to_text()


@pytest.mark.parametrize("perturb", [False, True], ids=["certified", "violated"])
def test_to_text_reusing_the_lhs_matches_the_reference(perturb):
    # a system of the reference instance (tests/data/a3.json) re-verified to depth 12, and the
    # same system with one mass moved; most of its checks carry rhs is lhs
    mus = [AtomicMeasure.point_mass(1), AtomicMeasure.point_mass(2)]
    shift = make_branch_shift(2, 1, mus, [Fraction(1, 2), 1], [1])
    system = build_branch_tree_system(shift, mus, depth=12)
    if perturb:
        bad = dict(system.mu)
        (x, w), *rest = bad[0].atoms
        bad[0] = AtomicMeasure(((x, w + Fraction(1, 1000)), *rest))
        system = ConsistentSystem(bad, system.eps)
    report = verify_consistent_system(shift, system)
    assert report.verdict == (Verdict.VIOLATED if perturb else Verdict.CERTIFIED)
    assert any(c.rhs is c.lhs for c in report.checks)
    assert report.to_text() == _reference_to_text(report)


BIG = 10 ** 5000 + 7


@pytest.mark.parametrize("value,struct,human", [
    (BIG, f"1{'0' * 4999}7/1", f"1{'0' * 4999}7"),
    (-BIG, f"-1{'0' * 4999}7/1", f"-1{'0' * 4999}7"),
    (Fraction(-BIG), f"-1{'0' * 4999}7/1", f"-1{'0' * 4999}7"),
    (Fraction(1, BIG), f"1/1{'0' * 4999}7", f"1/1{'0' * 4999}7"),
    (Fraction(BIG, 3), f"1{'0' * 4999}7/3", f"1{'0' * 4999}7/3"),
], ids=["int", "negative int", "integral fraction", "huge denominator", "huge numerator"])
def test_renderers_take_integers_past_the_digit_limit(value, struct, human):
    assert format_struct(value) == struct
    assert format_human(value) == human


def _parse_big(text):
    """A "p/q" string of any size back to a Fraction (int(str) has the digit limit, int(Decimal) not)."""
    p, _, q = text.partition("/")
    return Fraction(int(Decimal(p)), int(Decimal(q or "1")))


def test_reports_render_moments_of_any_size():
    # (29/4)^3000 has a numerator of about 14,600 bits, past str(int)'s default 4300 digits
    mus = [AtomicMeasure.point_mass(1), AtomicMeasure.point_mass(Fraction(29, 4))]
    shift = make_branch_shift(2, 1, mus, [Fraction(1, 2), 1], [1])
    report = certify_branch_tree(shift, mus, 3000)
    entry = {c["id"]: c for c in json.loads(report.to_json())["checks"]}["zgod0[2,3000]"]
    assert _parse_big(entry["lhs"]) == _parse_big(entry["rhs"]) == Fraction(29, 4) ** 3000
    assert "zgod0[2,3000]: " in report.to_text()


def test_cli_certifies_a_document_with_moments_of_any_size(capsys, tmp_path):
    # tests/data/a3.json with the atom 2/1 moved to 29/4, certified to depth 3000
    doc = json.loads((DATA / "a3.json").read_text().replace('"2/1"', '"29/4"'))
    assert doc["measures"][1] == {"atoms": [["29/4", "1/1"]]}
    doc["depth"] = 3000
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for fmt in ("text", "struct"):
        code = main(["certify", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        assert captured.err == ""


# -- the joined JSON ---------------------------------------------------------------

# text that JSON must escape: quotes, backslashes, control characters and non-ASCII text
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
                max_size=12)
_BIG = st.integers(0, 10 ** 6).map(lambda k: 10 ** 4300 + k)   # past the int-string digit limit
_VALUES = st.one_of(
    st.fractions(), st.builds(Fraction, _BIG, st.integers(1, 10 ** 6)), st.integers(), _BIG,
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(), _TEXT, st.none())


@st.composite
def _reports(draw):
    checks = [Check(draw(_TEXT), draw(st.sampled_from(["==", "<=", "flag", "psd", "x\"y"])), draw(_VALUES),
                    draw(_VALUES), draw(st.one_of(st.booleans(), st.integers(0, 1))), draw(_VALUES), draw(_TEXT))
              for _ in range(draw(st.integers(0, 4)))]
    for c in list(checks):
        if draw(st.booleans()):   # rhs is lhs, as a passing exact check records it
            checks.append(Check(c.cid, "==", c.lhs, c.lhs, True, draw(_VALUES), c.note))
    return CertificateReport(draw(_TEXT), draw(st.sampled_from(list(Verdict))), draw(_TEXT), checks,
                             draw(st.dictionaries(_TEXT, _VALUES, max_size=3)),
                             draw(st.lists(_TEXT, max_size=3)))


def _json_or_error(render):
    try:
        return render()
    except ValueError as exc:   # an int past the digit limit, as json.dumps raises it
        return "ValueError", str(exc)


@settings(max_examples=300, deadline=None)
@given(_reports())
def test_joined_json_is_the_dumped_struct(report):
    want = _json_or_error(lambda: json.dumps(report.to_struct(), sort_keys=True, separators=(",", ":")) + "\n")
    assert _json_or_error(report.to_json) == want
