"""Per-layer metrics from a trace: what each module did and how long it took.

Layers are the program's modules.  A ``<module>.<function>_s`` metric is
the mean seconds per call of that function, nested calls included; a
``<module>.self_s`` metric is the module's total self time over the traced
phase, so the self times sum to at most ``trace.wall_s``.
"""

from __future__ import annotations

from exact import bits
from spans import MODULES

from treeshift import MeasureRecoveryError

HANKEL_CLASSES = ("fullrank", "atomic", "violated_shallow", "violated_deep")
CRITERIA_TOP = ("certify_branch_tree", "certify_branch_tree_root_measure", "build_branch_tree_system",
                "verify_consistent_system", "necessary_checks_determinate", "reduce_rootless",
                "certify_unilateral", "certify_bilateral")


def _values(seq):
    return seq.values if hasattr(seq, "values") else seq


def _stieltjes(tr, args, result):
    values = _values(args[0])
    c = tr.counts
    c["moments.hankel_order_max"] = max(c["moments.hankel_order_max"], len(values) // 2 + 1)
    c["moments.input_bits_max"] = max(c["moments.input_bits_max"],
                                      max((bits(v) for v in values if not isinstance(v, float)), default=0))
    w = getattr(result, "witness", None)
    if w is not None and w.det is not None:
        wb = max([bits(w.det)] + [bits(x) for row in w.entries for x in row])
        c["moments.witness_bits_max"] = max(c["moments.witness_bits_max"], wb)


def _two_sided(tr, args, result):
    tr.counts["moments.two_sided_check.shifts"] += len(getattr(result, "shifts_checked", ()))


def _recover(tr, args, result):
    if isinstance(result, MeasureRecoveryError):
        tr.counts["moments.recover.rejects"] += 1
    elif not isinstance(result, BaseException) and result.is_exact():
        tr.counts["moments.recover.exact"] += 1


def _moment_sequence(tr, args, result):
    if isinstance(result, BaseException):
        return
    shift, u, N = args[:3]
    layer, paths = [u], 0
    for _ in range(N):
        layer = [c for v in layer for c in shift.tree.children(v)]
        paths += len(layer)
    tr.counts["shifts.moment_sequence.paths"] += paths


def _criteria(tr, args, result):
    # count each report's checks once: only where no criteria call encloses this one
    if any(tr.names[i].startswith("criteria.") for i in tr.stack):
        return
    tr.counts["criteria.checks"] += len(getattr(result, "checks", ()))


def _vertices(tr, args, result):
    if not isinstance(result, BaseException):
        tr.counts["trees.vertices"] += len(result.vertices or ())


def _bytes(tr, args, result):
    if isinstance(result, str):
        tr.counts["report.bytes"] += len(result.encode())


OBSERVERS = {
    "moments.stieltjes_check": _stieltjes,
    "moments.two_sided_stieltjes_check": _two_sided,
    "moments.recover_atomic_measure": _recover,
    "shifts.moment_sequence": _moment_sequence,
    "trees.build_tree": _vertices,
    "report.to_json": _bytes,
    "report.to_text": _bytes,
    **{f"criteria.{name}": _criteria for name in CRITERIA_TOP},
}


def layer_metrics(tracer, wall_s: float, overhead_frac: float) -> dict:
    m = {}

    def timed(metric, span, tag=None, calls_metric=None):
        calls, total = tracer.layer(span, tag)
        m[metric] = (total / calls if calls else 0.0, "s")
        if calls_metric:
            m[calls_metric] = (calls, "count")
        return calls

    timed("moments.stieltjes_check_s", "moments.stieltjes_check", calls_metric="moments.stieltjes_check.calls")
    for cls in HANKEL_CLASSES:
        timed(f"moments.stieltjes_check.{cls}_s", "moments.stieltjes_check", tag=cls)
    timed("moments.two_sided_check_s", "moments.two_sided_stieltjes_check")
    c = tracer.counts
    m["moments.two_sided_check.shifts"] = (int(c["moments.two_sided_check.shifts"]), "count")
    for name in ("moments.hankel_order_max", "moments.input_bits_max", "moments.witness_bits_max"):
        m[name] = (int(c[name]), "count")
    rec = timed("moments.recover_s", "moments.recover_atomic_measure", calls_metric="moments.recover.calls")
    m["moments.recover.exact_ratio"] = (c["moments.recover.exact"] / rec if rec else 0.0, "ratio")
    m["moments.recover.reject_ratio"] = (c["moments.recover.rejects"] / rec if rec else 0.0, "ratio")

    for metric, fn in (("certify_branch_tree_s", "certify_branch_tree"), ("build_system_s", "build_branch_tree_system"),
                       ("verify_system_s", "verify_consistent_system"), ("necessary_s", "necessary_checks_determinate"),
                       ("reduce_rootless_s", "reduce_rootless"), ("certify_unilateral_s", "certify_unilateral"),
                       ("certify_bilateral_s", "certify_bilateral")):
        timed(f"criteria.{metric}", f"criteria.{fn}")
    criteria_busy = 0.0
    for i, name in enumerate(tracer.names):
        p = tracer.parents[i]
        if name.startswith("criteria.") and (p < 0 or not tracer.names[p].startswith("criteria.")):
            criteria_busy += tracer.ends[i] - tracer.starts[i]
    m["criteria.checks"] = (int(c["criteria.checks"]), "count")
    m["criteria.checks_per_s"] = (c["criteria.checks"] / criteria_busy if criteria_busy else 0.0, "1/s")

    timed("shifts.moment_sequence_s", "shifts.moment_sequence")
    m["shifts.moment_sequence.paths"] = (int(c["shifts.moment_sequence.paths"]), "count")
    timed("measures.moments_of_s", "measures.moments_of", calls_metric="measures.moments_of.calls")
    timed("trees.build_tree_s", "trees.build_tree")
    m["trees.vertices"] = (int(c["trees.vertices"]), "count")
    timed("report.to_json_s", "report.to_json")
    timed("report.to_text_s", "report.to_text")
    m["report.bytes"] = (int(c["report.bytes"]), "bytes")
    timed("instance.load_s", "instance.load_instance", calls_metric="instance.docs")
    timed("cli.main_s", "cli.main")

    self_times = tracer.self_times()
    for mod in MODULES:
        m[f"{mod}.self_s"] = (self_times[mod], "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.self_sum_frac"] = (sum(self_times.values()) / wall_s if wall_s else 0.0, "ratio")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
