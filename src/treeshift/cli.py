"""Command-line front end: parse instance documents, dispatch, emit reports.

Exit codes: 0 certified/consistent, 1 violated, 2 inconclusive, 3 input
error.  Reports are plain text on stdout by default; ``--format struct``
prints canonical JSON instead, and ``--out`` always writes the structured
document (byte-identical across runs in exact mode).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .criteria import (
    DEFAULT_ELL,
    _require_orders,
    branch_frame,
    certify_bilateral,
    certify_branch_tree,
    certify_branch_tree_root_measure,
    certify_unilateral,
    necessary_checks_determinate,
    reduce_rootless,
)
from .errors import InstanceError, MeasureRecoveryError, TreeShiftError
from .instance import Instance, load_instance
from .moments import carleman_partial_sum, recover_atomic_measure, stieltjes_check, two_sided_stieltjes_check
from .rationals import format_human
from .report import CertificateReport, Verdict, check_psd, witness_check
from .shifts import moment_sequence
from .trees import KAPPA_INF, format_vertex, parse_vertex

EXIT_INPUT_ERROR = 3


def _emit(report: CertificateReport, args) -> int:
    if args.format == "struct":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    return report.exit_code()


def _unread(where: str, **given) -> None:
    """Reject a flag given on the command line that ``where`` never reads."""
    flag = next((name for name, value in given.items() if value), None)
    if flag is not None:
        raise ValueError(f"--{flag} is not read by {where}")


def _sequence_of(inst: Instance, what: str):
    if inst.sequence is None:
        raise InstanceError("$.sequence", f"{what} needs a one-sided sequence document")
    return inst.sequence


def _stieltjes_report(verdict, origin: str, mode: str) -> CertificateReport:
    checks = []
    if verdict.violated:
        checks.append(witness_check(verdict.witness))
        v = Verdict.VIOLATED
    else:
        label = f"consistent up to order {verdict.upto}"
        if verdict.shifts_checked:
            label += f" for shifts k <= {max(verdict.shifts_checked)}"
        checks.append(check_psd("psd[hankel]", True, label))
        v = Verdict.CERTIFIED
    return CertificateReport(
        criterion="moment-sequence-check",
        verdict=v,
        arithmetic=mode,
        checks=checks,
        params={"order": verdict.upto},
        notes=[origin] if origin else [],
    )


def cmd_certify(args) -> int:
    inst = load_instance(args.path, args.mode)
    if inst.shift is None:
        raise InstanceError("$", "certify needs a tree and weights")
    depth = args.depth if args.depth is not None else inst.params.get("depth", 20)
    window = args.window if args.window is not None else inst.params.get("window", 10)
    ell = args.ell if args.ell is not None else inst.params.get("ell", DEFAULT_ELL)
    m_max = args.m_max if args.m_max is not None else inst.params.get("m_max", 4)
    case = args.case if args.case != "auto" else inst.params.get("case", "auto")
    mode = inst.mode
    tree = inst.tree

    if args.necessary:
        _unread("certify --necessary", case=args.case != "auto", window=args.window is not None)
        report = necessary_checks_determinate(inst.shift, depth, m_max, mode=mode, tol=args.tol)
        return _emit(report, args)

    bilateral = tree.eta_kappa is None and tree.root is None
    if bilateral or branch_frame(inst.shift) is None:
        _unread("certify on a chain", case=args.case != "auto")
        report = (certify_bilateral(inst.shift, window, depth, m_max=m_max, mode=mode, tol=args.tol) if bilateral
                  else certify_unilateral(inst.shift, depth, m_max=m_max, mode=mode, tol=args.tol))
        return _emit(report, args)

    if not inst.branch_measures:
        raise InstanceError("$.measures", "branch-tree certification needs branch measures")
    if case == "iii" or (inst.nu is not None and case == "auto"):
        if inst.nu is None:
            raise InstanceError("$.nu", "case iii needs a root measure")
        report = certify_branch_tree_root_measure(
            inst.shift, inst.branch_measures, inst.nu, depth, mode=mode, tol=args.tol
        )
    else:
        report = certify_branch_tree(
            inst.shift, inst.branch_measures, depth,
            ell_max=ell, case=case, mode=mode, tol=args.tol,
        )
    return _emit(report, args)


# a ray vertex (i, j) of the generated family reads its weight from the ratio rule,
# which extends the branch measure's power-sum table to order j with O(j)-bit values:
# moments compute on tests/data/a3.json with --upto 3 takes 0.14 s at (2, 10^4),
# 1.1 s (180 MB) at (2, 5 * 10^4) and 3.9 s (660 MB) at (2, 10^5), and with
# --upto 10000 it takes 1.2 s (104 MB) at (2, 10^4) (Python 3.11 on a 2-vCPU machine)
MAX_RAY_INDEX = 10000


def cmd_moments_compute(args) -> int:
    inst = load_instance(args.path, args.mode)
    if inst.shift is None:
        raise InstanceError("$", "moments compute needs a tree and weights")
    vertex = parse_vertex(args.vertex) if args.vertex is not None else inst.params.get("vertex")
    if vertex is None:
        raise InstanceError("$.vertex", "moments compute needs --vertex or the document key vertex")
    _require_orders(upto=args.upto)
    if inst.tree.eta_kappa is not None and isinstance(vertex, tuple) and vertex[1] > MAX_RAY_INDEX:
        raise ValueError(f"ray index must be at most {MAX_RAY_INDEX}, got {vertex[1]}")
    t = moment_sequence(inst.shift, vertex, args.upto)
    rendered = ", ".join(format_human(v) for v in t.values)
    sys.stdout.write(f"({rendered})\n")
    return 0


def cmd_moments_check(args) -> int:
    inst = load_instance(args.path, args.mode)
    if inst.two_sided is not None:
        K = args.window if args.window is not None else -inst.two_sided.lo
        verdict = two_sided_stieltjes_check(inst.two_sided, K, mode=inst.mode, tol=args.tol)
    else:
        _unread("moments check on a one-sided sequence", window=args.window is not None)
        verdict = stieltjes_check(_sequence_of(inst, "moments check"), mode=inst.mode, tol=args.tol)
    report = _stieltjes_report(verdict, "document sequence", inst.mode)
    return _emit(report, args)


def cmd_moments_recover(args) -> int:
    inst = load_instance(args.path, args.mode)
    t = _sequence_of(inst, "moments recover")
    try:
        measure = recover_atomic_measure(t, args.atoms, mode=inst.mode)
    except MeasureRecoveryError as exc:
        if exc.reason == "outside_float_range":
            sys.stdout.write(f"a representing measure with <= {args.atoms} atoms exists "
                             f"but lies outside float range: {exc}\n")
            return 2
        sys.stdout.write(f"no nonnegative representing measure with <= {args.atoms} atoms: {exc}\n")
        return 1
    rendered = " + ".join(
        f"{format_human(w)}*delta[{format_human(s)}]" for s, w in measure.atoms
    ) or "zero measure"
    sys.stdout.write(rendered + "\n")
    return 0


def cmd_moments_carleman(args) -> int:
    inst = load_instance(args.path, args.mode)
    t = _sequence_of(inst, "moments carleman")
    upto = args.upto if args.upto is not None else len(t) - 1
    s = carleman_partial_sum(t, upto)
    sys.stdout.write(f"S_{upto} = {s:g} (partial sum over {upto} terms; divergence not decidable from a prefix)\n")
    return 0


# the listing has eta * depth + kappa edges: --eta 2 --kappa 1 takes 1.1 s at
# depth 10^5 and 12 s at 10^6 (Python 3.11 on a 2-vCPU machine)
MAX_GEN_DEPTH = 100000
MAX_GEN_EDGES = 1000000   # eta * depth, so that a wide tree does not list 10^9 edges


def cmd_tree_gen(args) -> int:
    from .trees import make_tree_eta_kappa, walk_levels

    if args.depth < 0:
        raise ValueError(f"depth must be nonnegative, got {args.depth}")
    if args.depth > MAX_GEN_DEPTH:
        raise ValueError(f"depth must be at most {MAX_GEN_DEPTH}, got {args.depth}")
    kappa = KAPPA_INF if args.kappa == "inf" else int(args.kappa)
    tree = make_tree_eta_kappa(args.eta, kappa)
    if args.eta * args.depth > MAX_GEN_EDGES:
        raise ValueError(f"eta * depth must be at most {MAX_GEN_EDGES}, got {args.eta * args.depth}")
    start = tree.root if tree.root is not None else -args.depth
    edges = [e for level in walk_levels(tree, start, args.depth) for e in level]
    if args.format == "struct":
        import json

        doc = {
            "root": format_vertex(tree.root) if tree.root is not None else None,
            "edges": [[format_vertex(a), format_vertex(b)] for a, b in edges],
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        label = "rootless" if tree.root is None else f"root {format_vertex(tree.root)}"
        sys.stdout.write(f"tree ({label}), edges to depth {args.depth}:\n")
        for a, b in edges:
            sys.stdout.write(f"  {format_vertex(a)} -> {format_vertex(b)}\n")
    return 0


def cmd_reduce(args) -> int:
    inst = load_instance(args.path, args.mode)
    if inst.shift is None:
        raise InstanceError("$", "reduce needs a tree and weights")
    base = parse_vertex(args.base) if args.base is not None else inst.params.get("base", 0)
    k_max = args.kmax if args.kmax is not None else inst.params.get("k_max", 5)
    depth = args.depth if args.depth is not None else inst.params.get("depth", 20)
    m_max = args.m_max if args.m_max is not None else inst.params.get("m_max")
    report = reduce_rootless(
        inst.shift, base, k_max, depth,
        branch_measures=inst.branch_measures or None,
        m_max=m_max, mode=inst.mode, tol=args.tol,
    )
    return _emit(report, args)


def _add_mode(p):
    p.add_argument("--mode", choices=["exact", "float"], default=None,
                   help="arithmetic mode (default: document setting, else exact)")


def _add_report_options(p):
    """Options of the commands that emit a certificate report."""
    _add_mode(p)
    p.add_argument("--tol", type=float, default=1e-9, help="tolerance for float mode")
    p.add_argument("--format", choices=["text", "struct"], default="text",
                   help="stdout format")
    p.add_argument("--out", default=None, help="write the structured report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="finite-order certification of moment criteria for weighted shifts on directed trees",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify an instance document")
    p.add_argument("path")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--ell", type=int, default=None, help="stem equalities to check when the stem is infinite")
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--case", choices=["auto", "i", "ii", "iii", "iv"], default="auto")
    p.add_argument("--necessary", action="store_true",
                   help="run the determinacy-based necessary-condition pipeline instead")
    _add_report_options(p)
    p.set_defaults(func=cmd_certify)

    m = sub.add_parser("moments", help="moment-sequence utilities")
    msub = m.add_subparsers(dest="subcommand", required=True)

    mc = msub.add_parser("compute", help="orbit-norm sequence from an instance document")
    mc.add_argument("path")
    mc.add_argument("--vertex", default=None, help="default: the document key vertex")
    mc.add_argument("--upto", type=int, default=10)
    _add_mode(mc)
    mc.set_defaults(func=cmd_moments_compute)

    mk = msub.add_parser("check", help="Hankel positivity check of a sequence document")
    mk.add_argument("path")
    mk.add_argument("--window", type=int, default=None, help="shifts to check for two-sided input")
    _add_report_options(mk)
    mk.set_defaults(func=cmd_moments_check)

    mr = msub.add_parser("recover", help="recover an atomic measure from a sequence document")
    mr.add_argument("path")
    mr.add_argument("--atoms", type=int, required=True)
    _add_mode(mr)
    mr.set_defaults(func=cmd_moments_recover)

    ml = msub.add_parser("carleman", help="partial sum of the determinacy series")
    ml.add_argument("path")
    ml.add_argument("--upto", type=int, default=None)
    _add_mode(ml)
    ml.set_defaults(func=cmd_moments_carleman)

    t = sub.add_parser("tree", help="tree utilities")
    tsub = t.add_subparsers(dest="subcommand", required=True)
    tg = tsub.add_parser("gen", help="generate the one-branching-vertex family")
    tg.add_argument("--eta", type=int, required=True)
    tg.add_argument("--kappa", required=True, help='nonnegative integer or "inf"')
    tg.add_argument("--depth", type=int, default=5)
    tg.add_argument("--format", choices=["text", "struct"], default="text")
    tg.set_defaults(func=cmd_tree_gen)

    r = sub.add_parser("reduce", help="rootless covering reduction")
    r.add_argument("path")
    r.add_argument("--base", default=None)
    r.add_argument("--kmax", type=int, default=None)
    r.add_argument("--depth", type=int, default=None)
    r.add_argument("--m-max", dest="m_max", type=int, default=None)
    _add_report_options(r)
    r.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as "inconclusive";
        # --help and --version exit 0 and pass through
        if exc.code == 2:
            return EXIT_INPUT_ERROR
        raise
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): the result reached no one, so exit 3 quietly,
        # with the rest of the output sent to the null device instead of failing again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    except InstanceError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR
    except (TreeShiftError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
