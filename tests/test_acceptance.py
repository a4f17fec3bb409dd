"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is either asserted exactly in rational arithmetic
or was computed by an independent oracle (direct moment sums, brute-force
path enumeration, the closed forms of the generated instances) and frozen.
"""

import json
import random
import time
from fractions import Fraction

from treeshift import (
    Verdict,
    WeightSystem,
    WeightedShift,
    build_branch_tree_system,
    certify_bilateral,
    certify_branch_tree,
    certify_unilateral,
    child_measure_from_parent,
    make_bilateral_chain,
    make_branch_shift,
    make_unilateral_chain,
    moment_sequence,
    moments_of,
    necessary_checks_determinate,
    parent_measure_from_child,
    recover_atomic_measure,
    reduce_rootless,
    root_measure_equivalence_roundtrip,
    stieltjes_check,
    verify_consistent_system,
)
from treeshift.cli import main as cli_main
from conftest import random_measure, stem_sq_rule

HALF = Fraction(1, 2)


def _passed(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_oracle_soundness():
    rng = random.Random(20260808)
    start = time.monotonic()
    for _ in range(200):
        mu = random_measure(rng, max_atoms=4)
        values = [moments_of(mu, n) for n in range(21)]
        verdict = stieltjes_check(values)
        assert not verdict.violated, f"forward oracle refuted on {mu}"
        recovered = recover_atomic_measure(values, len(mu.atoms))
        assert recovered.atoms == mu.atoms, "round trip must be exact in rational mode"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    _passed(1, f"200 random measures sound and exactly round-tripped in {elapsed:.2f}s")


def test_criterion_02_refutation(tmp_path, capsys):
    verdict = stieltjes_check([1, 2, 1, 2])
    assert verdict.violated
    assert verdict.witness.entries == ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))
    assert verdict.witness.det == -3

    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"sequence": ["1", "2", "1", "2"]}), encoding="utf-8")
    code = cli_main(["moments", "check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "det -3" in out
    _passed(2, "(1,2,1,2) violated with witness det [[1,2],[2,1]] = -3, exit code 1")


def test_criterion_03_unilateral_loop():
    ones = WeightedShift(make_unilateral_chain(), WeightSystem.from_rule(lambda n: Fraction(1)))
    report = certify_unilateral(ones, N=12, m_max=2)
    assert report.verdict == Verdict.CERTIFIED
    cm = {c.cid: c for c in report.checks}
    assert cm["rep[0]"].passed and cm["rep[12]"].passed  # recovered measure is d[1]
    assert any(cid.startswith("muu+[") for cid in cm), "proof system re-verified"

    recip = WeightedShift(
        make_unilateral_chain(), WeightSystem.from_rule(lambda n: Fraction(n, n + 1))
    )
    t = moment_sequence(recip, 0, 12)
    assert t.values == tuple(Fraction(1, n + 1) for n in range(13))  # oracle: 1/(n+1)
    report2 = certify_unilateral(recip, N=12)
    assert report2.verdict == Verdict.CERTIFIED
    assert report2.arithmetic == "exact", "Hilbert-like matrix must pass the exact sign test"
    _passed(3, "unit chain certified with d[1]; 1/(n+1) moments exactly consistent to order 12")


def test_criterion_04_bilateral_loop():
    shift = WeightedShift(make_bilateral_chain(), WeightSystem.from_rule(lambda v: Fraction(2)))
    report = certify_bilateral(shift, K=10, N=10, m_max=2)
    assert report.verdict == Verdict.CERTIFIED
    assert report.arithmetic == "exact"
    cm = {c.cid: c for c in report.checks}
    for k in range(11):
        assert cm[f"psd[shift={k}]"].passed
        for n in range(11):
            assert cm[f"tshift[{k},{n}]"].passed
    assert cm["rep[5]"].lhs == Fraction(32)  # recovered point mass at 2
    _passed(4, "geometric bilateral shift certified over window (10,10) with all shifts and identities exact")


def test_criterion_05_branch_tree_loop(a3_shift, a3_measures):
    report = certify_branch_tree(a3_shift, a3_measures, N=20)
    assert report.verdict == Verdict.CERTIFIED
    assert report.arithmetic == "exact"
    cm = {c.cid: c for c in report.checks}
    assert cm["zgodp"].lhs == 1 and cm["zgodp"].relation == "=="
    assert cm["widly1p"].lhs == Fraction(3, 4)

    system = build_branch_tree_system(a3_shift, a3_measures, depth=21)
    assert system.eps_at(-1) == Fraction(1, 4)
    vreport = verify_consistent_system(a3_shift, system, depth=20)
    assert vreport.verdict == Verdict.CERTIFIED
    assert vreport.arithmetic == "exact"
    checked = {c.cid for c in vreport.checks}
    for v_label in ("-1", "0", "(1,1)", "(2,1)", "(1,19)", "(2,19)"):
        assert any(cid.startswith(f"muu+[{v_label},") for cid in checked)
    _passed(5, "reference instance certified; measure recursion exact at every vertex to depth 20, defect 1/4")


def test_criterion_06_equivalence(a3_shift, a3_measures):
    report = root_measure_equivalence_roundtrip(a3_shift, a3_measures, N=8)
    assert report.verdict == Verdict.CERTIFIED
    assert {c.cid: c for c in report.checks}["equiv"].passed

    rng = random.Random(66)
    flips = 0
    for _ in range(50):
        kappa = rng.choice([1, 2, 3])
        eta = rng.choice([2, 3])
        mus = [random_measure(rng, max_atoms=2) for _ in range(eta)]
        raw = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(eta)]
        total = sum(r * moments_of(mu, -1) for r, mu in zip(raw, mus))
        entry = [r / total for r in raw]
        left = []
        P_prev = Fraction(1)
        for l in range(1, kappa):
            P_l = 1 / sum(e * moments_of(mu, -(l + 1)) for e, mu in zip(entry, mus))
            left.append(P_l / P_prev)
            P_prev = P_l
        cap = 1 / sum(e * moments_of(mu, -(kappa + 1)) for e, mu in zip(entry, mus))
        good = rng.random() < 0.7
        scale = Fraction(rng.randint(1, 8), 8) if good else Fraction(rng.randint(9, 12), 8)
        left.append(scale * cap / P_prev)
        shift = make_branch_shift(eta, kappa, mus, entry, left)
        rt = root_measure_equivalence_roundtrip(shift, mus, N=4)
        cm = {c.cid: c for c in rt.checks}
        assert cm["equiv"].passed, "the two finite-stem forms must agree"
        assert rt.passed == good
        flips += 0 if good else 1

    # perturbing the first stem weight flips both forms simultaneously
    broken = make_branch_shift(2, 1, a3_measures, [HALF, 1], [Fraction(2)])
    rt = root_measure_equivalence_roundtrip(broken, a3_measures, N=6)
    cm = {c.cid: c for c in rt.checks}
    assert rt.verdict == Verdict.VIOLATED and cm["equiv"].passed
    _passed(6, f"equivalence exact on the reference and 50 random instances ({flips} deliberately failing)")


def test_criterion_07_bijection():
    rng = random.Random(77)
    for _ in range(100):
        mu = random_measure(rng, max_atoms=4)
        inv = moments_of(mu, -1)
        lam_sq = Fraction(rng.randint(1, 15), 16) / inv  # lam_sq * m_-1 <= 15/16 < 1
        rho = parent_measure_from_child(mu, lam_sq)
        assert rho.is_probability()
        back = child_measure_from_parent(rho, lam_sq)
        assert back.atoms == mu.atoms, "bijection round trip must be exact"
        for n in range(1, 16):
            assert moments_of(rho, n) == lam_sq * moments_of(mu, n - 1)
    _passed(7, "100 random measures: transform round trip and moment intertwining exact for n <= 15")


def test_criterion_08_necessary_pipeline(a3_shift):
    report = necessary_checks_determinate(a3_shift, N=20, m_max=2)
    assert report.verdict == Verdict.CERTIFIED
    cm = {c.cid: c for c in report.checks}
    assert cm["recover[(1,1)]"].passed and "d[1]" in cm["recover[(1,1)]"].note
    assert cm["recover[(2,1)]"].passed and "d[2]" in cm["recover[(2,1)]"].note
    assert cm["determinate[shifted-orbit]"].passed
    assert cm["zgodp"].passed and cm["widly1p"].passed
    assert cm["alanconsi[0]"].lhs == 1
    assert cm["alanconsi[-1]"].lhs == Fraction(3, 4)
    s30 = float(cm["carleman[30]"].note.split("=")[1].split("over")[0])
    assert s30 >= 20
    _passed(8, f"branch measures recovered, determinacy exact, consistency at 0 and -1, S_30 = {s30:.2f} >= 20")


def test_criterion_09_reduction(a3_infinite_shift, a3_measures):
    # stem rule: P_l * (1/2 + 2**-(l+1)) = 1 exactly for every l (oracle checked for l <= 10)
    for l in range(1, 11):
        P = Fraction(1)
        for j in range(l):
            P *= stem_sq_rule(j)
        assert P * (HALF + Fraction(1, 2 ** (l + 1))) == 1
    start = time.monotonic()
    report = reduce_rootless(a3_infinite_shift, base=0, k_max=6, N=10,
                             branch_measures=a3_measures)
    elapsed = time.monotonic() - start
    assert report.verdict == Verdict.CERTIFIED
    labels = {c.cid.split(":")[0] for c in report.checks}
    assert labels == {f"des[{-k}]" for k in range(1, 7)}
    for k in range(1, 7):
        assert any(c.cid == f"des[{-k}]:widly1p" and c.passed for c in report.checks)
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    _passed(9, f"six rooted subtrees certified through the covering reduction in {elapsed:.2f}s")


def test_criterion_10_determinism(a3_shift, a3_measures, tmp_path, capsys):
    def run_once():
        rep = certify_branch_tree(a3_shift, a3_measures, N=20)
        system = build_branch_tree_system(a3_shift, a3_measures, depth=21)
        vrep = verify_consistent_system(a3_shift, system, depth=20)
        return rep.to_json().encode() + vrep.to_json().encode()

    assert run_once() == run_once(), "library reports must be byte-identical"

    doc = {
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
    }
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for _ in range(2):
        code = cli_main(["certify", str(path), "--depth", "20", "--format", "struct"])
        assert code == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1], "CLI structured reports must be byte-identical"
    _passed(10, "repeated runs produce byte-identical structured reports")
