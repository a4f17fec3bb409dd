"""Certificate reports: every checked (in)equality with its slack.

A report never claims operator-level facts; "certified" means the checked
premises hold exactly (or within the stated tolerance) to the stated
depth/window.  Structured rendering is canonical JSON with rationals as
"p/q" strings, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List, Optional

from .rationals import INF, ZERO, Scalar, format_human, format_struct


class Verdict(str, Enum):
    CERTIFIED = "certified"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


EXIT_CODES = {Verdict.CERTIFIED: 0, Verdict.VIOLATED: 1, Verdict.INCONCLUSIVE: 2}


@dataclass(slots=True, unsafe_hash=True)
class Check:
    """One checked (in)equality, never changed once built.

    Slotted and not frozen, since a report holds one per recorded row and a
    frozen dataclass sets each field through ``object.__setattr__``.
    """

    cid: str
    relation: str            # "<=", "==", ">=", "psd", "flag"
    lhs: object
    rhs: object
    passed: bool
    slack: object = None
    note: str = ""


def _close(lhs, rhs, tol: float) -> bool:
    return abs(float(lhs) - float(rhs)) <= tol * max(1.0, abs(float(rhs)))


def check_le(cid: str, lhs: Scalar, rhs: Scalar, mode: str = "exact",
             tol: float = 1e-9, note: str = "") -> Check:
    if mode == "exact":
        ok = lhs <= rhs
    else:
        ok = float(lhs) <= float(rhs) + tol * max(1.0, abs(float(rhs)))
    slack = -INF if lhs == INF else rhs - lhs
    return Check(cid, "<=", lhs, rhs, bool(ok), slack, note)


def check_eq(cid: str, lhs: Scalar, rhs: Scalar, mode: str = "exact",
             tol: float = 1e-9, note: str = "") -> Check:
    if mode == "exact" and isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        ok = lhs == rhs
        return Check(cid, "==", lhs, rhs, ok, ZERO if ok else rhs - lhs, note)
    if lhs == INF or rhs == INF:
        ok = lhs == rhs
        slack = INF
    elif mode == "exact":
        ok = lhs == rhs
        slack = rhs - lhs
    else:
        ok = _close(lhs, rhs, tol)
        slack = float(rhs) - float(lhs)
    return Check(cid, "==", lhs, rhs, bool(ok), slack, note)


def check_flag(cid: str, passed: bool, note: str = "") -> Check:
    return Check(cid, "flag", "", "", bool(passed), None, note)


def check_psd(cid: str, passed: bool, witness_note: str = "") -> Check:
    return Check(cid, "psd", "", "", bool(passed), None, witness_note)


def witness_check(w) -> Check:
    """The failing check of a ``HankelWitness``: ``psd[kind]``, or ``psd[shift=k,kind]`` in a window."""
    tag = w.kind if w.two_sided_shift is None else f"shift={w.two_sided_shift},{w.kind}"
    return check_psd(f"psd[{tag}]", False, w.describe())


def _render(value, machine: bool) -> object:
    if isinstance(value, Fraction):
        return format_struct(value) if machine else format_human(value)
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, str, int)):
        return value
    try:
        return format_struct(value) if machine else format_human(value)
    except TypeError:
        return str(value)


def _render_sides(c: Check, machine: bool) -> tuple:
    """(lhs, rhs) of ``c`` rendered; the same value or an equal Fraction renders
    alike, and a large one is costly to render, so rhs then reuses lhs."""
    lhs = _render(c.lhs, machine)
    if c.rhs is c.lhs or (isinstance(c.lhs, Fraction) and isinstance(c.rhs, Fraction) and c.lhs == c.rhs):
        return lhs, lhs
    return lhs, _render(c.rhs, machine)


# the keys of a check's struct entry, in the order to_struct lists them
_ENTRY_KEYS = ("id", "relation", "lhs", "rhs", "slack", "passed", "note")


def _entry(c: Check) -> tuple:
    """The struct values of ``c``, in ``_ENTRY_KEYS`` order."""
    lhs, rhs = _render_sides(c, True)
    return c.cid, c.relation, lhs, rhs, _render(c.slack, True), c.passed, c.note


def _dump(value) -> str:
    """Canonical JSON of ``value``: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _scalar_json(value) -> str:
    """_dump(value) for an entry's value: strings by the C escaper that json.dumps uses."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _dump(value)


def _entry_json(c: Check) -> str:
    """``_dump`` of the struct entry of ``c``, its keys written in sorted order."""
    cid, relation, lhs, rhs, slack, passed, note = _entry(c)
    lhs_json = _scalar_json(lhs)
    rhs_json = lhs_json if rhs is lhs else _scalar_json(rhs)
    return (f'{{"id":{_scalar_json(cid)},"lhs":{lhs_json},"note":{_scalar_json(note)},'
            f'"passed":{_scalar_json(passed)},"relation":{_scalar_json(relation)},'
            f'"rhs":{rhs_json},"slack":{_scalar_json(slack)}}}')


@dataclass
class CertificateReport:
    criterion: str
    verdict: Verdict
    arithmetic: str
    checks: List[Check] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == Verdict.CERTIFIED

    def witness(self) -> Optional[Check]:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def failed_checks(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def _params(self) -> dict:
        return {k: _render(v, True) for k, v in sorted(self.params.items())}

    def to_struct(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict.value,
            "arithmetic": self.arithmetic,
            "params": self._params(),
            "checks": [dict(zip(_ENTRY_KEYS, _entry(c))) for c in self.checks],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_struct(), sort_keys=True, separators=(",", ":")) + "\\n"``, with the
        checks joined entry by entry instead of dumped as one dict each."""
        return (f'{{"arithmetic":{_dump(self.arithmetic)},"checks":[{",".join(map(_entry_json, self.checks))}],'
                f'"criterion":{_dump(self.criterion)},"notes":{_dump(list(self.notes))},'
                f'"params":{_dump(self._params())},"verdict":{_dump(self.verdict.value)}}}\n')

    def to_text(self) -> str:
        lines = [f"criterion: {self.criterion}"]
        lines.append(f"verdict: {self.verdict.value.upper()}   arithmetic: {self.arithmetic}")
        if self.params:
            rendered = " ".join(f"{k}={_render(v, False)}" for k, v in sorted(self.params.items()))
            lines.append(f"params: {rendered}")
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            if c.relation in ("flag", "psd"):
                body = c.note or c.relation
            else:
                lhs, rhs = _render_sides(c, False)
                body = f"{lhs} {c.relation} {rhs}"
                if c.slack is not None:
                    body += f" (slack {_render(c.slack, False)})"
                if c.note:
                    body += f" -- {c.note}"
            lines.append(f"  [{mark}] {c.cid}: {body}")
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines) + "\n"


def merge_subreports(criterion: str, parts: List[tuple], params: dict,
                     notes: Optional[List[str]] = None) -> CertificateReport:
    """Aggregate labeled sub-reports; any violation dominates, then inconclusive."""
    checks: List[Check] = []
    verdict = Verdict.CERTIFIED
    all_notes = list(notes or [])
    for label, sub in parts:
        for c in sub.checks:
            checks.append(Check(f"{label}:{c.cid}", c.relation, c.lhs, c.rhs,
                                c.passed, c.slack, c.note))
        all_notes.append(f"{label}: {sub.verdict.value}")
        if sub.verdict == Verdict.VIOLATED:
            verdict = Verdict.VIOLATED
        elif sub.verdict == Verdict.INCONCLUSIVE and verdict != Verdict.VIOLATED:
            verdict = Verdict.INCONCLUSIVE
    arithmetic = "exact" if all(sub.arithmetic == "exact" for _, sub in parts) else "float"
    return CertificateReport(criterion, verdict, arithmetic, checks, params, all_notes)
