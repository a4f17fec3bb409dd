"""The three workloads: one round of operations each, with their checks.

A round is a fixed list of operations built from the seed.  The timed
phase repeats whole rounds, so every run measures the same mix.  Each
operation calls the program through its public API (looked up on the
module at call time, so a trace can wrap it) or through its command line,
and carries a check of the output against the answer known by
construction.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import select
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Optional

import exact
import gen

import treeshift as ts
import treeshift.cli


@dataclass
class Op:
    """One operation of a round.

    ``run`` calls the program and returns its raw output; ``digest`` turns
    that output into the bytes that must repeat on every pass; ``check``
    returns None or the reason the output is wrong.
    """

    name: str
    cls: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], Optional[str]]
    limit_s: float = 60.0
    argv: Optional[list] = None      # cli-docs: the treeshift arguments


def sha(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def make_shift(inst: gen.BranchInstance):
    """The instance through the public constructors; an infinite stem reads its weights from a rule."""
    measures = [ts.AtomicMeasure.from_atoms(a) for a in inst.atoms]
    if inst.kappa == "inf":
        kappa, left = ts.KAPPA_INF, inst.stem_sq.__getitem__
    else:
        kappa, left = inst.kappa, inst.stem_sq
    shift = ts.make_branch_shift(inst.eta, kappa, measures, inst.entry_sq, left)
    return shift, measures


# -- hankel-exact ------------------------------------------------------------------


def _verdict_digest(v) -> str:
    w = v.witness
    wit = None if w is None else (w.kind, w.indices, str(w.det), w.two_sided_shift)
    return sha(repr((v.kind, v.upto, wit, v.shifts_checked)))


def check_hankel(case: gen.HankelCase, v) -> Optional[str]:
    if v.violated != case.violated:
        return f"verdict {v.kind}, expected {'violated' if case.violated else 'consistent'}"
    if case.K is not None and not case.violated and v.shifts_checked != tuple(range(case.K + 1)):
        return f"shifts checked {v.shifts_checked}"
    if not case.violated:
        return None if v.kind == "consistent" else f"verdict {v.kind}"
    w = v.witness
    got = (w.kind, tuple(w.indices), w.two_sided_shift)
    want = (case.witness_kind, case.witness_indices, case.witness_shift)
    if got != want:
        return f"witness {got}, expected {want}"
    seq = case.values if case.K is None else case.values[case.K - w.two_sided_shift:]
    offset = 0 if w.kind == "hankel" else 1
    minor = [[seq[i + j + offset] for j in w.indices] for i in w.indices]
    if [list(r) for r in w.entries] != minor:
        return "witness entries are not a principal minor of the input's Hankel form"
    det = exact.determinant(minor)
    if det >= 0 or det != w.det:
        return f"witness determinant {w.det} does not re-verify (recomputed {det})"
    return None


def hankel_ops(seed: int, scale: str, workdir: Path):
    ops = []
    for case in gen.hankel_cases(seed, scale):
        if case.K is None:
            def run(values=case.values):
                return ts.stieltjes_check(values)
            name = f"stieltjes_check/{case.cls}/N={case.N}"
        else:
            window = ts.TwoSidedMomentSequence(-case.K, case.values)

            def run(window=window, K=case.K):
                return ts.two_sided_stieltjes_check(window, K)
            name = f"two_sided_stieltjes_check/K={case.K}/N={case.N}"
        ops.append(Op(name, case.cls, run, _verdict_digest,
                      lambda v, case=case: check_hankel(case, v)))
    return ops


# -- tree-systems ------------------------------------------------------------------


def _report_check(report, verdict: str, first_failure: Optional[str] = None) -> Optional[str]:
    if report.verdict.value != verdict:
        bad = report.witness()
        return f"verdict {report.verdict.value}, expected {verdict}" + (f" ({bad.cid})" if bad else "")
    if first_failure is not None and report.witness().cid != first_failure:
        return f"first failing check {report.witness().cid}, expected {first_failure}"
    return None


def _json_of(out):
    return out[1]


def tree_ops(seed: int, scale: str, workdir: Path):
    rng = gen.rng_for("tree-systems", seed)
    sz = gen.SIZES[scale]
    ops = []

    N = sz["branch_N"]
    for k, (eta, kappa, violate) in enumerate(((2, 0, False), (3, 2, False), (4, "inf", False),
                                               (3, 0, True), (2, 3, True), (2, "inf", True))):
        inst = gen.branch_instance(rng, eta, kappa, violate, first_count=1 + k)

        def run(inst=inst):
            shift, measures = make_shift(inst)
            rep = ts.certify_branch_tree(shift, measures, N)
            return rep, rep.to_json()
        want = "violated" if violate else "certified"
        ops.append(Op(f"certify_branch_tree/case-{inst.case}/eta={eta}/N={N}", "certify", run,
                      _json_of, lambda out, w=want, f=inst.first_failure: _report_check(out[0], w, f)))

    for k, (depth, (eta, kappa)) in enumerate(zip(sz["system_depth"], ((2, 0), (3, 2), (2, "inf")))):
        inst = gen.branch_instance(rng, eta, kappa, first_count=2 + k)

        def run(inst=inst, depth=depth):
            shift, measures = make_shift(inst)
            if inst.kappa == "inf":
                system = ts.build_branch_tree_system(shift, measures, depth, ell_max=20)
                rep = ts.verify_consistent_system(shift, system)
            else:
                system = ts.build_branch_tree_system(shift, measures, depth)
                rep = ts.verify_consistent_system(shift, system, depth=depth - 1)
            return rep, rep.to_json()
        ops.append(Op(f"system/build+verify/case-{inst.case}/depth={depth}", "system", run,
                      _json_of, lambda out: _report_check(out[0], "certified")))

    for eta, kappa in ((2, 2), (3, 0)):
        inst = gen.branch_instance(rng, eta, kappa)
        Nn = sz["necessary_N"]

        def run(inst=inst):
            shift, _ = make_shift(inst)
            rep = ts.necessary_checks_determinate(shift, Nn, 4)
            return rep, rep.to_json()
        ops.append(Op(f"necessary_checks_determinate/case-{inst.case}/N={Nn}", "necessary", run,
                      _json_of, lambda out: _report_check(out[0], "certified")))

    for extra in range(sz["recover_extra"] + 1):
        values, m, expect = gen.irrational_pair(rng, extra)
        ops.append(_recover_op(f"recover/floating/atoms={m}", values, m, expect))
    for count in (2, 3):
        atoms = gen.random_atoms(rng, count)
        values = [gen.atom_moment(atoms, n) for n in range(2 * count + 2)]
        ops.append(_recover_op(f"recover/exact/atoms={count}", values, count, atoms))
        ops.append(_recover_op(f"recover/reject/atoms={count - 1}", values, count - 1, None))

    k_max, Nr = sz["reduce"]
    for eta in (2, 3):
        inst = gen.branch_instance(rng, eta, "inf")

        def run(inst=inst):
            shift, measures = make_shift(inst)
            rep = ts.reduce_rootless(shift, 0, k_max, Nr, branch_measures=measures)
            return rep, rep.to_json()
        ops.append(Op(f"reduce_rootless/eta={eta}/kmax={k_max}", "reduce", run,
                      _json_of, lambda out: _report_check(out[0], "certified")))

    for _ in range(2):
        edges, sq = gen.wide_tree(rng, sz["edge_depth"], sz["edge_width"])
        depth = sz["edge_depth"]
        want = _path_sums(edges, sq, depth)

        def run(edges=edges, sq=sq, depth=depth):
            tree = ts.build_tree(edges)
            shift = ts.WeightedShift(tree, ts.WeightSystem.from_sq_map(sq))
            return ts.moment_sequence(shift, 0, depth)
        ops.append(Op(f"moment_sequence/edges={len(edges)}/N={depth}", "moment_sequence", run,
                      lambda t: sha(repr(t.values)),
                      lambda t, want=want: None if list(t.values) == want else "orbit sums differ"))
    return ops


def _path_sums(edges, sq, depth):
    """Orbit norms at the root by depth-first path products (the program walks levels)."""
    kids = {}
    for p, c in edges:
        kids.setdefault(p, []).append(c)
    sums = [F(0)] * (depth + 1)
    stack = [(0, 0, F(1))]
    while stack:
        v, d, prod = stack.pop()
        sums[d] += prod
        if d < depth:
            stack.extend((c, d + 1, prod * sq[c]) for c in kids.get(v, ()))
    return sums


def _recover_op(name, values, m, expect):
    def run():
        try:
            return ts.recover_atomic_measure(values, m)
        except ts.MeasureRecoveryError as exc:
            return exc

    def digest(out):
        if isinstance(out, Exception):
            return sha(f"reject {out.reason}")
        return sha(repr(out.atoms))

    def check(out):
        if expect is None:
            return None if isinstance(out, ts.MeasureRecoveryError) else "recovered a measure that cannot exist"
        if isinstance(out, Exception):
            return f"recovery rejected: {out}"
        if out.is_exact():
            return None if list(out.atoms) == list(expect) else f"recovered {out.atoms}"
        got = [(float(s), float(w)) for s, w in out.atoms]
        if len(got) != len(expect) or any(
                abs(s - es) > 1e-6 * (1 + es) or abs(w - ew) > 1e-6 for (s, w), (es, ew) in zip(got, expect)):
            return f"recovered {got}, expected {expect}"
        return None
    cls = name.split("/")[1]
    return Op(name, f"recover_{cls}", run, digest, check)


# -- cli-docs ------------------------------------------------------------------------

CLI_LIMIT_S = 30.0


A3_DOC = {
    "tree": {"kind": "eta_kappa", "eta": 2, "kappa": 1},
    "weights": {
        "map": {"0": {"sq": "1/1"}, "(1,1)": {"sq": "1/2"}, "(2,1)": {"sq": "1/1"}},
        "rules": [
            {"branch": 1, "formula": "ratio_of_moments", "measure": {"atoms": [["1/1", "1/1"]]}},
            {"branch": 2, "formula": "ratio_of_moments", "measure": {"atoms": [["2/1", "1/1"]]}},
        ],
    },
    "measures": [{"atoms": [["1/1", "1/1"]]}, {"atoms": [["2/1", "1/1"]]}],
    "mode": "exact",
    "depth": 20,
}


def _q(x) -> str:
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


def branch_doc(inst: gen.BranchInstance) -> dict:
    wmap = {f"({i},1)": {"sq": _q(e)} for i, e in enumerate(inst.entry_sq, 1)}
    for j, s in enumerate(inst.stem_sq):
        wmap[str(-j)] = {"sq": _q(s)}
    measures = [{"atoms": [[_q(s), _q(w)] for s, w in a]} for a in inst.atoms]
    return {
        "tree": {"kind": "eta_kappa", "eta": inst.eta, "kappa": inst.kappa},
        "weights": {"map": wmap, "rules": [
            {"branch": i, "formula": "ratio_of_moments", "measure": m}
            for i, m in enumerate(measures, 1)]},
        "measures": measures,
        "mode": "exact",
    }


def _parse_fraction_list(text: str):
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError("not a parenthesised list")
    return [F(x.strip()) for x in body[1:-1].split(",")]


def _parse_atoms(text: str):
    atoms = []
    for term in text.strip().split(" + "):
        w, _, loc = term.partition("*delta[")
        atoms.append((F(loc.rstrip("]")), F(w)))
    return sorted(atoms)


@dataclass
class CliResult:
    code: int
    out: bytes
    err: bytes
    out_file: bytes = b""
    maxrss_kb: int = 0


def _expect(code: int, text: Optional[str] = None, extra: Optional[Callable] = None):
    """Check: exit code, no traceback, optional stdout substring and extra check."""
    def check(r: CliResult) -> Optional[str]:
        if b"Traceback" in r.err:
            return "traceback on stderr"
        if r.code != code:
            return f"exit code {r.code}, expected {code}: {r.err.decode(errors='replace').strip()[:200]}"
        out = r.out.decode()
        if text is not None and text not in out:
            return f"stdout lacks {text!r}"
        return extra(r) if extra else None
    return check


def _struct_check(verdict: str, first_failure: Optional[str] = None, source: str = "out"):
    def check(r: CliResult) -> Optional[str]:
        doc = json.loads(r.out if source == "out" else r.out_file)
        if doc["verdict"] != verdict:
            return f"struct verdict {doc['verdict']}, expected {verdict}"
        if first_failure is not None:
            first = next(c["id"] for c in doc["checks"] if not c["passed"])
            if first != first_failure:
                return f"first failing check {first}, expected {first_failure}"
        return None
    return check


def cli_ops(seed: int, scale: str, workdir: Path):
    """Write the seeded documents into ``workdir`` and return the command round."""
    rng = gen.rng_for("cli-docs", seed)
    sz = gen.SIZES[scale]
    depth, window = sz["cli_depth"], sz["cli_window"]
    docs = workdir / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    outs = workdir / "out"
    outs.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc) -> str:
        path = docs / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return str(path)

    ops = []

    def add(name, argv, check, out_file=None):
        argv = argv + (["--out", out_file] if out_file else [])
        run = _subprocess_runner(argv, outs / "stdout", outs / "stderr", out_file, CLI_LIMIT_S)
        ops.append(Op(name, name.split("/")[0], run, _cli_digest, check, CLI_LIMIT_S, argv=argv))

    a3 = write("a3.json", A3_DOC)
    add("certify/a3/text", ["certify", a3, "--depth", str(depth)], _expect(0, "verdict: CERTIFIED"))
    add("certify/a3/necessary", ["certify", a3, "--necessary", "--depth", "20", "--m-max", "2"],
        _expect(0, "verdict: CERTIFIED"))

    for i, (eta, kappa, violate) in enumerate(((2, 2, False), (3, 0, False), (3, "inf", False),
                                               (2, 1, True))):
        inst = gen.branch_instance(rng, eta, kappa, violate)
        path = write(f"branch{i}.json", branch_doc(inst))
        want, code = ("violated", 1) if violate else ("certified", 0)
        base = ["certify", path, "--depth", str(depth)]
        if i == 0:
            add(f"certify/branch{i}/text", base, _expect(code, f"verdict: {want.upper()}"))
        if i in (0, 1):
            out_file = str(outs / f"branch{i}.json")
            add(f"certify/branch{i}/out", base, _expect(code, f"verdict: {want.upper()}",
                                                        _struct_check(want, inst.first_failure, "file")),
                out_file=out_file)
        add(f"certify/branch{i}/struct", base + ["--format", "struct"],
            _expect(code, None, _struct_check(want, inst.first_failure)))
        if i == 0:
            add(f"certify/branch{i}/necessary", ["certify", path, "--necessary", "--depth", "20"],
                _expect(0, "verdict: CERTIFIED"))
            want_t = [F(1)] + [sum((e * gen.atom_moment(a, n - 1) for e, a in zip(inst.entry_sq, inst.atoms)), F(0))
                               for n in range(1, 13)]
            add(f"moments/compute/branch{i}", ["moments", "compute", path, "--vertex", "0", "--upto", "12"],
                _expect(0, None, lambda r, want=want_t: None if _parse_fraction_list(r.out.decode()) == want
                        else "orbit norms differ"))
        if i == 1:
            add(f"float/certify/branch{i}", base + ["--mode", "float"], _expect(0, "arithmetic: float"))
        if kappa == "inf":
            add(f"reduce/branch{i}", ["reduce", path, "--base", "0", "--kmax", "6", "--depth", "10"],
                _expect(0, "verdict: CERTIFIED"))

    c = F(rng.randint(1, 9), rng.randint(1, 4))
    bil = write("bilateral.json", {"tree": {"kind": "bilateral"}, "weights": {"default": {"sq": _q(c)}}})
    add("bilateral/certify", ["certify", bil, "--window", str(window), "--depth", str(depth)],
        _expect(0, "verdict: CERTIFIED"))

    atoms = gen.random_atoms(rng, 2)
    L = depth + 2
    mom = [gen.atom_moment(atoms, n) for n in range(L + 1)]
    chain = write("chain.json", {"tree": {"kind": "edges", "edges": [[j, j + 1] for j in range(L)]},
                                 "weights": {"map": {str(j): {"sq": _q(mom[j] / mom[j - 1])}
                                                     for j in range(1, L + 1)}}})
    add("edge-chain/certify", ["certify", chain, "--depth", str(depth)], _expect(0, "verdict: CERTIFIED"))

    for count in (1, 3):
        atoms = gen.random_atoms(rng, count)
        seq = [gen.atom_moment(atoms, n) for n in range(2 * count + 4)]  # the last one also goes in float mode
        path = write(f"seq{count}.json", {"sequence": [_q(x) for x in seq]})
        add(f"moments/check/atoms={count}", ["moments", "check", path], _expect(0, "verdict: CERTIFIED"))
        add(f"moments/recover/atoms={count}", ["moments", "recover", path, "--atoms", str(count)],
            _expect(0, None, lambda r, a=atoms: None if _parse_atoms(r.out.decode()) == sorted(a)
                    else "recovered atoms differ"))
    bad = [gen.atom_moment(gen.random_atoms(rng, 3), n) for n in range(10)]
    bad[4] = bad[2] * bad[2] / (2 * bad[0])
    path = write("seq-violated.json", {"sequence": [_q(x) for x in bad]})
    add("moments/check/violated", ["moments", "check", path], _expect(1, "verdict: VIOLATED"))
    two = gen.two_sided_case(rng, 4, 10, violated=False)
    path = write("two-sided.json", {"two_sided": {"lo": -4, "values": [_q(x) for x in two.values]}})
    add("moments/check/two-sided", ["moments", "check", path, "--window", "4"], _expect(0, "verdict: CERTIFIED"))
    path = write("seq-float.json", {"sequence": [_q(x) for x in seq], "mode": "float"})
    add("float/moments/check", ["moments", "check", path], _expect(0, "arithmetic: float"))

    eta, kappa = rng.randint(2, 4), rng.choice((0, 2, 3))
    edges = min(depth, kappa) + eta * max(0, depth - kappa)
    add("tree/gen", ["tree", "gen", "--eta", str(eta), "--kappa", str(kappa), "--depth", str(depth),
                     "--format", "struct"],
        _expect(0, None, lambda r, n=edges: None if len(json.loads(r.out)["edges"]) == n
                else "edge count differs"))

    malformed = {
        "not-json.json": "{\"tree\": ",
        "zero-den.json": json.dumps({**A3_DOC, "measures": [{"atoms": [["1/0", "1/1"]]}]}),
        "bad-kind.json": json.dumps({**A3_DOC, "tree": {"kind": "ring"}}),
        "bad-eta.json": json.dumps({**A3_DOC, "tree": {"kind": "eta_kappa", "eta": 1, "kappa": 1}}),
        "negative.json": json.dumps({"sequence": ["1/1", "-1/2", "1/1"]}),
    }
    for name, text in malformed.items():
        path = write(name, text)
        cmd = ["moments", "check", path] if name == "negative.json" else ["certify", path]
        add(f"malformed/{name[:-5]}", cmd, _expect(3))
    return ops


def _out_file(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _cli_digest(r: CliResult) -> str:
    return sha(b"%d\0" % r.code + r.out + b"\0" + r.out_file)


def child_env():
    env = dict(os.environ)
    src = str(Path(ts.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait_child(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` with a time limit; returns (exit code, rusage, timed_out)."""
    fd = os.pidfd_open(proc.pid)
    try:
        timed_out = not select.select([fd], [], [], timeout)[0]
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def _subprocess_runner(argv, out_path: Path, err_path: Path, out_file: Optional[str], limit_s: float):
    cmd = [sys.executable, "-m", "treeshift"] + argv
    env = child_env()

    def run() -> CliResult:
        if out_file:
            Path(out_file).unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        code, usage, timed_out = wait_child(proc, limit_s)
        if timed_out:
            raise TimeoutError(f"still running after {limit_s} s")
        return CliResult(code, out_path.read_bytes(), err_path.read_bytes(),
                         Path(out_file).read_bytes() if out_file else b"", usage.ru_maxrss)
    return run


def inprocess_runner(op: Op) -> Callable[[], CliResult]:
    """The same command through ``treeshift.cli.main`` in this process."""
    out_file = _out_file(op.argv)

    def run() -> CliResult:
        if out_file:
            Path(out_file).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = treeshift.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode(),
                         Path(out_file).read_bytes() if out_file else b"")
    return run


WORKLOADS = {
    "hankel-exact": hankel_ops,
    "tree-systems": tree_ops,
    "cli-docs": cli_ops,
}
