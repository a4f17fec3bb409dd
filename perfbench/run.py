"""treeshift benchmark: exact Hankel tests, tree systems and CLI documents.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hankel-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cli-docs --trace 1        # per-layer metrics
    python3 perfbench/run.py --steady 1                           # every workload once
    python3 perfbench/run.py --steady 10 --seed 101               # spread of every metric

The program is imported from ``src/`` of the checkout, never from an
installed copy.  Each run measures set-up in fresh child processes, then
repeats whole rounds of its workload (one caller, closed loop) for at
least ``--seconds`` of busy time, checks every output, and prints the
metrics; the last line of standard output is one JSON object.  A traced
run also writes its spans to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("hankel-exact", "tree-systems", "cli-docs")
SETUP_PROBES = 5                # each before and after the timed phase
STARTUP_SAMPLES = 3
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30.0


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_program():
    """Put the checkout's ``src`` first on the path and import treeshift from it."""
    if not (SRC / "treeshift" / "__init__.py").is_file():
        fail(f"no treeshift sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import treeshift
    if Path(treeshift.__file__).resolve().parent != SRC / "treeshift":
        fail(f"imported treeshift from {treeshift.__file__}, not from {SRC}")


# -- measurement --------------------------------------------------------------------


class Phase:
    """Latencies and failures of one timed phase, checked as it goes."""

    def __init__(self, digests: dict, checked: dict):
        self.latencies = []
        self.busy = 0.0
        self.rounds = 0
        self.failed = 0
        self.failures = []
        self.max_child_rss_kb = 0
        self.codes = {}
        self.digests = digests       # op index -> first output digest, shared across phases
        self.checked = checked       # (op index, digest) -> check result

    def record(self, i, op, dt, out, err):
        self.latencies.append(dt)
        self.busy += dt
        if err is None:
            err = self._judge(i, op, dt, out)
        if err is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.name}: {err}")

    def _judge(self, i, op, dt, out):
        if dt > op.limit_s:
            return f"took {dt:.1f} s, limit {op.limit_s} s"
        rss = getattr(out, "maxrss_kb", 0)
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss)
        if hasattr(out, "code"):
            self.codes[i] = out.code
        try:
            digest = op.digest(out)
        except Exception as exc:  # output the digest cannot read is a failed operation
            return f"digest raised {type(exc).__name__}: {exc}"
        first = self.digests.setdefault(i, digest)
        if digest != first:
            return "output differs from the first pass over the same input"
        key = (i, digest)
        if key not in self.checked:
            try:
                self.checked[key] = op.check(out)
            except Exception as exc:  # output the check cannot parse is a failed operation
                self.checked[key] = f"check raised {type(exc).__name__}: {exc}"
        return self.checked[key]


def run_phase(ops, seconds, phase: Phase, runners=None, tracer=None, min_rounds=2):
    """Repeat whole rounds until ``seconds`` of busy time and ``min_rounds`` rounds."""
    runners = runners or [op.run for op in ops]
    gc.collect()
    perf = time.perf_counter
    while phase.rounds < min_rounds or phase.busy < seconds:
        for i, (op, fn) in enumerate(zip(ops, runners)):
            if tracer is not None:
                tracer.tag = op.cls
            t0 = perf()
            try:
                out, err = fn(), None
            except Exception as exc:  # any exception is a failed operation, reported below
                out, err = None, f"{type(exc).__name__}: {exc}"
            phase.record(i, op, perf() - t0, out, err)
        phase.rounds += 1
    return phase


def tail(latencies):
    """(value, percentile): the latency with exactly ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 10, 1)
    return xs[k - 1], 100.0 * k / n


def timed_child(argv, env, ready_line: bool, timeout=120.0) -> float:
    """Seconds from spawning ``argv`` until it prints a line (or exits)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        if ready_line:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
        out, err = proc.communicate(timeout=timeout)
        if not ready_line:
            dt = time.perf_counter() - t0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{argv[-1]} did not finish within {timeout} s")
    if proc.returncode != 0 or (ready_line and line.strip() != b"ready"):
        fail(f"child {argv} exited {proc.returncode}: {err.decode(errors='replace')[-500:]}")
    return dt


def measure_setup(args, env) -> list:
    """Seconds in fresh processes for: interpreter start, import, input generation."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--scale", args.scale]
    return [timed_child(argv, env, True) for _ in range(SETUP_PROBES)]


def measure_startup(env) -> float:
    argv = [sys.executable, "-c", "import treeshift.cli"]
    return statistics.median(timed_child(argv, env, False) for _ in range(STARTUP_SAMPLES))


# -- the two kinds of run -------------------------------------------------------------


def end_to_end(args, ops, env, setup):
    phase = run_phase(ops, args.seconds, Phase({}, {}))
    # set-up is sampled on both sides of the timed phase, so a drift in machine speed
    # over the run reaches setup_s as it reaches the operation metrics
    setup = setup + measure_setup(args, env)
    lat = phase.latencies
    tail_s, tail_pct = tail(lat)
    if args.workload == "cli-docs":
        rss_kb = phase.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / phase.busy, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {"tail_percentile": round(tail_pct, 2), "samples": len(lat), "rounds": phase.rounds,
              "setup_samples": len(setup),
              "ops_per_round": len(ops), "busy_s": phase.busy,
              "failed_frac": phase.failed / len(lat)}
    return phase, metrics, detail


def traced(args, ops, env):
    import layers
    import spans
    import workloads

    half = args.seconds / 2.0
    metrics = {}
    if args.workload == "cli-docs":
        sub = run_phase(ops, half, Phase({}, {}))
        runners = [workloads.inprocess_runner(op) for op in ops]
        shared = (sub.digests, sub.checked)
        base = run_phase(ops, half / 2, Phase(*shared), runners, min_rounds=1)
        tracer = spans.Tracer(layers.OBSERVERS)
        tracer.install()
        try:
            traced_phase = run_phase(ops, half / 2, Phase(*shared), runners, tracer, min_rounds=1)
        finally:
            tracer.uninstall()
        mismatch = sum(1 for i, c in traced_phase.codes.items() if sub.codes.get(i) != c)
        metrics["cli.process_s"] = (sub.busy / len(sub.latencies), "s")
        metrics["cli.exit_mismatch"] = (mismatch, "count")
        phases = (sub, base, traced_phase)
    else:
        base = run_phase(ops, half, Phase({}, {}))
        tracer = spans.Tracer(layers.OBSERVERS)
        tracer.install()
        try:
            traced_phase = run_phase(ops, half, Phase(base.digests, base.checked), None, tracer)
        finally:
            tracer.uninstall()
        metrics["cli.process_s"] = (0.0, "s")
        metrics["cli.exit_mismatch"] = (0, "count")
        phases = (base, traced_phase)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics["cli.startup_s"] = (measure_startup(env), "s")
    per_round = [p.busy / p.rounds for p in (base, traced_phase)]
    metrics.update(layers.layer_metrics(tracer, traced_phase.busy, per_round[1] / per_round[0] - 1.0))
    detail = {"rounds": [p.rounds for p in phases], "spans": len(tracer.names)}
    return phases, metrics, detail


def setup_probe(args) -> None:
    import workloads
    work = ROOT / ".perfbench_work" / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.scale, work)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args) -> int:
    import workloads
    env = workloads.child_env()
    setup = None if args.trace else measure_setup(args, env)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.scale, work)
        if args.trace:
            phases, metrics, detail = traced(args, ops, env)
        else:
            phase, metrics, detail = end_to_end(args, ops, env, setup)
            phases = (phase,)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for f in p.failures:
            sys.stderr.write(f"FAILED {f}\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:40s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'failed_frac':40s} {failed / attempted:14.6g} ratio")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail,
                      "failed": failed, "attempted": attempted}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def steady(args) -> int:
    """Repeat each workload over fresh seeds; report median and quartile spread per metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    summary = {}
    for w in names:
        values = {}
        for k in range(args.steady):
            seed = args.seed + k
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=600)
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                sys.stderr.write(proc.stderr.decode()[-2000:])
                ok = False
                print(f"{w} seed {seed}: {'failed' if result else f'exit {proc.returncode}'}")
                continue
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g} {v['unit']}" for m, v in result["metrics"].items())
                + f" failed={result['failed']}/{result['attempted']}", flush=True)
            for m, v in result["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        for m, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(m)
            within = bound is None or spread <= bound
            ok &= within
            summary[f"{w}/{m}"] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "" if bound is None else ("ok" if spread <= bound / 3 else ("within bound" if within else "TOO WIDE"))
            print(f"  {w:14s} {m:32s} median {med:12.6g}  spread {spread:7.3f}  bound {bound}  {flag}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--steady", type=int, default=0, metavar="RUNS",
                   help="run each workload RUNS times on seeds --seed, --seed+1, ... and report spreads")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    import_program()
    if args.steady:
        return steady(args)
    if args.workload is None:
        p.error("--workload is required")
    args.seconds = args.seconds or DEFAULT_SECONDS
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
