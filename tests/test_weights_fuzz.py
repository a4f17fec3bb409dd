"""A fuzz of the ``weights`` block of instance documents, run through ``cli.main`` in process.

Each example starts from the weights of ``a3.json`` (a generated tree with two ruled
rays) or ``edge_chain.json`` (an edges chain 0 -> ... -> 10), drops some map
entries and adds drawn ones: keys inside and outside the tree, malformed and
5,000-digit labels; zero, negative, float, null and oversized values; rules on
any branch, with degenerate measures; a default or none.  ``certify`` and
``moments compute`` must exit 0-3 within a time bound, with no exception
escaping ``main``.  A zero or negative squared weight at a vertex the command
reads must be an input error (exit 3), since the shifts are injective.
"""

import contextlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from treeshift.cli import main
from treeshift.trees import parse_vertex

DATA = Path(__file__).parent / "data"
TIME_BOUND_S = 10.0

COMMANDS = {
    "certify": ["certify", "{path}", "--depth", "4"],
    "compute": ["moments", "compute", "{path}", "--vertex", "0", "--upto", "3"],
}
# the vertices whose weights each command reads on each tree
READS = {
    ("a3", "certify"): [0] + [(i, j) for i in (1, 2) for j in range(1, 6)],
    ("a3", "compute"): [(i, j) for i in (1, 2) for j in range(1, 4)],
    ("edge_chain", "certify"): [1, 2, 3, 4],
    ("edge_chain", "compute"): [1, 2, 3],
}

# the non-root vertices of each tree
IN_TREE = {
    "a3": lambda v: v == 0 or (isinstance(v, tuple) and v[0] in (1, 2) and v[1] >= 1),
    "edge_chain": lambda v: v in range(1, 11),
}
# map keys inside each tree, as written and respelled
INSIDE = {
    "a3": ["0", "(1,1)", "(2,1)", "(1,2)", "(2,2)", "(1,3)", "(2,5)", " (1, 1) "],
    "edge_chain": [str(j) for j in range(1, 11)] + ["01"],
}
OUTSIDE = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["-1", "(3,1)", "(1,0)", "(0,2)", "(-1,2)", "(1;1)", "((", "", "x", "1" * 5000,
                     "(1," + "2" * 5000 + ")", "-" + "3" * 5000]),
)
POSITIVE = st.fractions(min_value=Fraction(1, 20), max_value=3, max_denominator=20).map(str)
NONPOSITIVE = st.one_of(st.sampled_from(["0", "0/3", "-0", "-1/2"]), st.integers(-3, 0),
                        st.fractions(max_value=0, max_denominator=20).map(str))
MALFORMED = st.one_of(
    st.sampled_from(["1/0", "a/b", "1.5", "9" * 5000, "1/" + "3" * 5000, "ab/" + "5" * 5000]),
    st.floats(width=32),   # JSON floats, NaN and infinities included
    st.none(),
    st.booleans(),
)
VALUES = st.one_of(POSITIVE, NONPOSITIVE, MALFORMED)
SPECS = st.one_of(
    st.fixed_dictionaries({"sq": VALUES}),
    st.fixed_dictionaries({"amp": VALUES}),
    st.sampled_from([{}, "1/2", {"amp": "0", "sq": "1"}, {"sq": "0", "amp": "1"}]),
)
MEASURES = st.sampled_from([
    {"atoms": [["1", "1"]]},
    {"atoms": [["2", "1"]]},
    {"atoms": [["1/2", "1/2"], ["3", "1/2"]]},
    {"atoms": [["0", "1"]]},                  # delta_0: its first moment vanishes
    {"atoms": [["1", "0"]]},                  # zero mass
    {"atoms": [["1", "1/2"]]},                # mass 1/2
    {"atoms": []},
])
RULES = st.lists(st.fixed_dictionaries({
    "branch": st.one_of(st.sampled_from([1, 2]), st.integers(-1, 3), st.booleans(), st.just(10 ** 30)),
    "formula": st.sampled_from(["ratio_of_moments", "ratio_of_moments", "ratio_of_moments", "constant"]),
    "measure": MEASURES,
}), max_size=3)
DEFAULTS = st.one_of(st.fixed_dictionaries({"sq": VALUES}), st.just({}))


@st.composite
def weights_blocks(draw, base, inside):
    block = json.loads(json.dumps(base))
    table = block["map"]
    for key in draw(st.lists(st.sampled_from(sorted(table)), max_size=1)):
        del table[key]
    table.update(draw(st.dictionaries(st.one_of(st.sampled_from(inside), OUTSIDE), SPECS, max_size=2)))
    if draw(st.integers(0, 3)) == 0:
        block["rules"] = draw(RULES)
    if draw(st.booleans()):
        block["default"] = draw(DEFAULTS)
    return block


def _stated(spec):
    """The squared weight a map entry or default states, or None when it states none that parses."""
    if not isinstance(spec, dict):
        return None
    for field, power in (("sq", 1), ("amp", 2)):
        if field in spec:
            try:
                return Fraction(spec[field]) ** power
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                return None
    return None


def _input_error(block, name, command):
    """Why the document must be an input error, as far as this model of the lookup sees one, or None.

    A map key outside the tree, a rule on a branch the tree lacks, and a zero or
    negative squared weight at a vertex the command reads are each one.
    """
    table = {}
    if isinstance(block.get("map"), dict):
        for key, spec in block["map"].items():
            table[parse_vertex(key)] = _stated(spec)
    outside = [v for v in table if not IN_TREE[name](v)]
    if outside:
        return f"map key {str(outside[0])[:40]} outside the tree"
    rules = block.get("rules") if isinstance(block.get("rules"), list) else []
    ruled = {rule.get("branch") for rule in rules if isinstance(rule, dict)}
    if any(not IN_TREE[name]((i, 2)) for i in ruled if isinstance(i, int)):
        return "a rule on a branch the tree lacks"
    for v in READS[name, command]:
        if v in table:
            q = table[v]
        elif isinstance(v, tuple) and v[1] >= 2 and v[0] in ruled:
            continue   # a ratio of moments, positive or an error of its own
        else:
            q = _stated(block.get("default"))
        if q is not None and q <= 0:
            return f"squared weight {q} at {v}"
    return None


@pytest.mark.parametrize("name", ["a3", "edge_chain"])
@given(data=st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_weights_block(tmp_path_factory, name, data):
    doc = json.loads((DATA / f"{name}.json").read_text())
    block = data.draw(weights_blocks(doc["weights"], INSIDE[name]), label="weights")
    doc["weights"] = block
    path = tmp_path_factory.mktemp("weights") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command, argv in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(path=path) for arg in argv])
        elapsed = time.perf_counter() - start
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3), (command, code, err.getvalue()[:300])
        assert elapsed < TIME_BOUND_S, (command, elapsed)
        reason = _input_error(block, name, command)
        if reason is not None:
            assert code == 3, (command, reason, code, out.getvalue()[:300])
