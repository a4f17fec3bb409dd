"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` rebinds every name under which a traced function is
reachable: its own module's attribute, the ``from .x import f`` copies in
the modules that call it, and the package's re-export.  Calls between
modules therefore nest (``criteria.certify_branch_tree`` inside
``criteria.reduce_rootless``), which is what gives each module its self
time.  The wrappers only time and count; spans stay in memory until the
run ends, when they are reduced to metrics and written out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "Class.method" wraps a method
TRACED = {
    "moments": ("stieltjes_check", "two_sided_stieltjes_check", "recover_atomic_measure",
                "represent", "carleman_partial_sum", "determinacy_verdict"),
    "criteria": ("certify_branch_tree", "certify_branch_tree_root_measure",
                 "build_branch_tree_system", "verify_consistent_system",
                 "necessary_checks_determinate", "reduce_rootless", "certify_unilateral",
                 "certify_bilateral", "consistency_at", "branch_frame"),
    "shifts": ("moment_sequence", "make_branch_shift", "synthesize_weights_from_measures"),
    "measures": ("moments_of",),
    "trees": ("build_tree", "make_tree_eta_kappa", "subtree_at", "covering_ancestors"),
    "report": ("CertificateReport.to_json", "CertificateReport.to_text", "merge_subreports"),
    "instance": ("load_instance", "parse_instance", "load_document"),
    "cli": ("main",),
}
MODULES = tuple(TRACED)


class Tracer:
    """Records (name, start, end, parent, tag) spans while installed.

    ``observers`` maps a span name to ``f(tracer, args, result_or_exception)``,
    called after the span has ended, to add to ``tracer.counts``.
    """

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tags = []
        self.stack = []
        self.tag = ""            # the operation class the benchmark is running
        self.counts = defaultdict(float)
        self._undo = []

    def _wrap(self, name, fn):
        perf = time.perf_counter
        names, starts, ends, parents, tags, stack = (
            self.names, self.starts, self.ends, self.parents, self.tags, self.stack)
        tracer = self
        observe = self.observers.get(name)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            tags.append(tracer.tag)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf()
                stack.pop()
                if observe is not None:
                    observe(tracer, args, exc)
                raise
            ends[idx] = perf()
            stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "treeshift") -> None:
        modules = {k: v for k, v in sys.modules.items()
                   if v is not None and (k == package or k.startswith(package + "."))}
        for mod, attrs in TRACED.items():
            owner = modules[f"{package}.{mod}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{mod}.{meth}", orig))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(f"{mod}.{attr}", orig)
                for m in modules.values():
                    if getattr(m, attr, None) is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start, end (seconds from the first span), parent, tag."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"name": name, "start": self.starts[i] - t0, "end": self.ends[i] - t0,
                                    "parent": self.parents[i], "tag": self.tags[i]}) + "\n")

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Per-module self time: each span minus the part its child spans cover."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = dict.fromkeys(MODULES, 0.0)
        for i, name in enumerate(self.names):
            out[name.split(".")[0]] += dur[i] - child[i]
        return out

    def layer(self, name: str, tag=None):
        """(calls, total seconds) of the spans called ``name``, optionally of one operation class."""
        calls, total = 0, 0.0
        for i, n in enumerate(self.names):
            if n != name or (tag is not None and self.tags[i] != tag):
                continue
            calls += 1
            total += self.ends[i] - self.starts[i]
        return calls, total
