"""README's "Library tour" runs as written and shows the values its comments claim."""

import re
from fractions import Fraction
from pathlib import Path

from treeshift import Verdict

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library tour\n+```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no Library tour code block"
    return match.group(1)


def test_library_tour_values():
    code = _library_tour()
    ns: dict = {}
    exec(compile(code, "README.md", "exec"), ns)
    claims = [
        ("moment_sequence(shift, 0, 4).values", "(1, 3/2, 5/2, 9/2, 17/2)",
         tuple(map(Fraction, ("1", "3/2", "5/2", "9/2", "17/2")))),
        ("report.verdict", "Verdict.CERTIFIED", Verdict.CERTIFIED),
        ("system.eps_at(-1)", "Fraction(1, 4)", Fraction(1, 4)),
        ("verify_consistent_system(shift, system, depth=20).verdict", "CERTIFIED", Verdict.CERTIFIED),
    ]
    lines = code.splitlines()
    for expression, comment, value in claims:
        line = next(line for line in lines if line.startswith(expression + " "))
        assert line.split("#", 1)[1].strip().startswith(comment), line
        assert eval(expression, ns) == value, expression
