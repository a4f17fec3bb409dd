"""Parse and validate JSON instance documents into toolkit objects.

Schema errors are reported with the path of the offending field.  All
rationals must parse as integer/integer; in float mode they are converted
after parsing so a malformed rational is rejected either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import InstanceError
from .measures import AtomicMeasure
from .moments import MomentSequence, TwoSidedMomentSequence
from .rationals import RationalParseError, parse_rational, to_float
from .shifts import WeightSystem, WeightedShift
from .trees import (
    KAPPA_INF,
    DirectedTree,
    build_tree,
    make_bilateral_chain,
    make_tree_eta_kappa,
    parse_vertex,
)

TREE_KINDS = ("eta_kappa", "edges", "bilateral")


def _fail(path: str, message: str):
    raise InstanceError(path, message)


def _expect_mapping(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        _fail(path, f"expected an object, got {type(doc).__name__}")
    return doc


def _rational(value, path: str, as_float: bool, name: str = ""):
    try:
        q = parse_rational(value)
    except RationalParseError as exc:
        _fail(path, str(exc))
    return to_float(q, f"{name} ({path})" if name else path) if as_float else q


def parse_measure(doc, path: str, as_float: bool = False) -> AtomicMeasure:
    doc = _expect_mapping(doc, path)
    atoms = doc.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        _fail(f"{path}.atoms", "expected a nonempty list of [location, mass] pairs")
    pairs = []
    for i, pair in enumerate(atoms):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            _fail(f"{path}.atoms[{i}]", "expected a [location, mass] pair")
        loc = _rational(pair[0], f"{path}.atoms[{i}][0]", as_float)
        mass = _rational(pair[1], f"{path}.atoms[{i}][1]", as_float)
        pairs.append((loc, mass))
    try:
        return AtomicMeasure.from_atoms(pairs)
    except ValueError as exc:
        _fail(f"{path}.atoms", str(exc))


def parse_tree(doc, path: str) -> DirectedTree:
    doc = _expect_mapping(doc, path)
    kind = doc.get("kind")
    if kind not in TREE_KINDS:
        _fail(f"{path}.kind", f"expected one of {list(TREE_KINDS)}, got {kind!r}")
    if kind == "eta_kappa":
        eta = doc.get("eta")
        if not isinstance(eta, int) or isinstance(eta, bool):
            _fail(f"{path}.eta", "expected an integer >= 2")
        kappa = doc.get("kappa")
        if kappa in ("inf", "infinity", None):
            kappa = KAPPA_INF
        elif not isinstance(kappa, int) or isinstance(kappa, bool) or kappa < 0:
            _fail(f"{path}.kappa", 'expected a nonnegative integer or "inf"')
        try:
            return make_tree_eta_kappa(eta, kappa)
        except Exception as exc:
            _fail(path, str(exc))
    if kind == "bilateral":
        return make_bilateral_chain()
    edges = doc.get("edges")
    if not isinstance(edges, list) or not edges:
        _fail(f"{path}.edges", "expected a nonempty list of [parent, child] pairs")
    pairs = []
    for i, e in enumerate(edges):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            _fail(f"{path}.edges[{i}]", "expected a [parent, child] pair")
        pairs.append((parse_vertex(e[0]), parse_vertex(e[1])))
    try:
        return build_tree(pairs)
    except Exception as exc:
        _fail(f"{path}.edges", str(exc))


def parse_weights(doc, path: str, tree: DirectedTree, as_float: bool) -> WeightSystem:
    """The ``weights`` block as a WeightSystem's table, rays and default.

    A map key must name a non-root vertex of ``tree``, and a rule's branch i
    a ray with a vertex (i, 2): neither is dropped in silence.
    """
    doc = _expect_mapping(doc, path)
    table = {}
    mapping = doc.get("map", {})
    if mapping:
        mapping = _expect_mapping(mapping, f"{path}.map")
        for key, spec in mapping.items():
            spec = _expect_mapping(spec, f"{path}.map[{key}]")
            v = parse_vertex(key)
            if v == tree.root or not tree.has_vertex(v):
                _fail(f"{path}.map[{key}]", "names no non-root vertex of the tree")
            if "sq" in spec:
                table[v] = _rational(spec["sq"], f"{path}.map[{key}].sq", as_float)
            elif "amp" in spec:
                amp = _rational(spec["amp"], f"{path}.map[{key}].amp", as_float)
                table[v] = amp * amp
            else:
                _fail(f"{path}.map[{key}]", 'expected an "sq" or "amp" field')

    rules = doc.get("rules", [])
    rays = {}
    if rules:
        if not isinstance(rules, list):
            _fail(f"{path}.rules", "expected a list of rule objects")
        for i, rule in enumerate(rules):
            rule = _expect_mapping(rule, f"{path}.rules[{i}]")
            formula = rule.get("formula")
            if formula != "ratio_of_moments":
                _fail(f"{path}.rules[{i}].formula", f'only "ratio_of_moments" is supported, got {formula!r}')
            branch = rule.get("branch")
            if not isinstance(branch, int) or isinstance(branch, bool) or branch < 1:
                _fail(f"{path}.rules[{i}].branch", "expected a branch index >= 1")
            if not tree.has_vertex((branch, 2)):
                _fail(f"{path}.rules[{i}].branch", f"the tree has no ray vertex ({branch},2)")
            rays[branch] = parse_measure(rule.get("measure"), f"{path}.rules[{i}].measure", as_float)

    default = doc.get("default")
    default_sq = None
    if default is not None:
        default = _expect_mapping(default, f"{path}.default")
        if "sq" not in default:
            _fail(f"{path}.default", 'expected an "sq" field')
        default_sq = _rational(default["sq"], f"{path}.default.sq", as_float)

    if not table and not rays and default_sq is None:
        _fail(path, "weight specification is empty")
    return WeightSystem(table, rays, default_sq)


@dataclass
class Instance:
    doc: dict
    tree: Optional[DirectedTree] = None
    shift: Optional[WeightedShift] = None
    branch_measures: list = field(default_factory=list)
    nu: Optional[AtomicMeasure] = None
    mode: str = "exact"
    sequence: Optional[MomentSequence] = None
    two_sided: Optional[TwoSidedMomentSequence] = None
    params: dict = field(default_factory=dict)


def load_document(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceError(str(path), f"cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(str(path), f"invalid JSON: {exc}") from exc
    return _expect_mapping(doc, "$")


def parse_instance(doc: dict, mode_override: Optional[str] = None) -> Instance:
    doc = _expect_mapping(doc, "$")
    mode = mode_override or doc.get("mode", "exact")
    if mode not in ("exact", "float"):
        _fail("$.mode", f'expected "exact" or "float", got {mode!r}')
    as_float = mode == "float"
    inst = Instance(doc=doc, mode=mode)

    if "sequence" in doc:
        seq = doc["sequence"]
        if not isinstance(seq, list) or not seq:
            _fail("$.sequence", "expected a nonempty list of rationals")
        values = [_rational(v, f"$.sequence[{i}]", as_float, f"t_{i}") for i, v in enumerate(seq)]
        try:
            inst.sequence = MomentSequence.coerce(values)
        except Exception as exc:
            _fail("$.sequence", str(exc))

    if "two_sided" in doc:
        ts = _expect_mapping(doc["two_sided"], "$.two_sided")
        lo = ts.get("lo")
        vals = ts.get("values")
        if not isinstance(lo, int) or isinstance(lo, bool) or lo > 0:
            _fail("$.two_sided.lo", "expected an integer <= 0")
        if not isinstance(vals, list) or not vals:
            _fail("$.two_sided.values", "expected a nonempty list of rationals")
        values = [_rational(v, f"$.two_sided.values[{i}]", as_float, f"t_{lo + i}")
                  for i, v in enumerate(vals)]
        try:
            inst.two_sided = TwoSidedMomentSequence(lo, tuple(values))
        except Exception as exc:
            _fail("$.two_sided", str(exc))

    if "tree" in doc:
        inst.tree = parse_tree(doc["tree"], "$.tree")
        if "weights" not in doc:
            _fail("$", "a tree needs a weight specification")
        weights = parse_weights(doc["weights"], "$.weights", inst.tree, as_float)
        inst.shift = WeightedShift(inst.tree, weights)

    if "measures" in doc:
        ms = doc["measures"]
        if not isinstance(ms, list):
            _fail("$.measures", "expected a list of measures")
        inst.branch_measures = [
            parse_measure(m, f"$.measures[{i}]", as_float) for i, m in enumerate(ms)
        ]

    if "nu" in doc:
        inst.nu = parse_measure(doc["nu"], "$.nu", as_float)

    for key in ("depth", "window", "ell", "m_max", "k_max", "base", "vertex"):
        if key in doc:
            value = doc[key]
            if not isinstance(value, int) or isinstance(value, bool):
                _fail(f"$.{key}", "expected an integer")
            inst.params[key] = value
    if "case" in doc:
        case = doc["case"]
        if case not in ("auto", "i", "ii", "iii", "iv"):
            _fail("$.case", f"expected auto/i/ii/iii/iv, got {case!r}")
        inst.params["case"] = case
    return inst


def load_instance(path, mode_override: Optional[str] = None) -> Instance:
    return parse_instance(load_document(path), mode_override)
