import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeshift.cli import main

DATA = Path(__file__).parent / "data"

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

KAPPA0_DOC = {
    "tree": {"kind": "eta_kappa", "eta": 2, "kappa": 0},
    "weights": {
        "map": {"(1,1)": {"sq": "1/2"}, "(2,1)": {"sq": "1/4"}},
        "rules": [
            {"branch": 1, "formula": "ratio_of_moments", "measure": {"atoms": [["1/1", "1/1"]]}},
            {"branch": 2, "formula": "ratio_of_moments", "measure": {"atoms": [["2/1", "1/1"]]}},
        ],
    },
    "measures": [{"atoms": [["1/1", "1/1"]]}, {"atoms": [["2/1", "1/1"]]}],
    "mode": "exact",
}


@pytest.fixture
def a3_file(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(A3_DOC), encoding="utf-8")
    return str(path)


@pytest.fixture
def kappa0_file(tmp_path):
    path = tmp_path / "k0.json"
    path.write_text(json.dumps(KAPPA0_DOC), encoding="utf-8")
    return str(path)


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"sequence": ["1/1", "2/1", "1/1", "2/1"]}), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_reference_instance_exit_zero(self, capsys, a3_file):
        code, out, _ = run_cli(capsys, "certify", a3_file, "--depth", "20")
        assert code == 0
        assert "zgod0[1,1]" in out
        assert "zgodp" in out
        assert "widly1p" in out
        assert "CERTIFIED" in out

    def test_struct_output_is_deterministic(self, capsys, a3_file):
        code1, out1, _ = run_cli(capsys, "certify", a3_file, "--depth", "20", "--format", "struct")
        code2, out2, _ = run_cli(capsys, "certify", a3_file, "--depth", "20", "--format", "struct")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["verdict"] == "certified"
        assert doc["arithmetic"] == "exact"

    def test_out_file_written(self, capsys, a3_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "certify", a3_file, "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["criterion"] == "branch-tree-case-ii"

    def test_violated_exit_one(self, capsys, tmp_path):
        doc = json.loads(json.dumps(A3_DOC))
        doc["weights"]["map"]["0"] = {"sq": "2/1"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == 1
        assert "VIOLATED" in out

    def test_malformed_rational_exit_three(self, capsys, tmp_path):
        doc = json.loads(json.dumps(A3_DOC))
        doc["weights"]["map"]["0"] = {"sq": "1/0"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(capsys, "certify", str(path))
        assert code == 3
        assert "zero denominator" in err

    def test_missing_file_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "certify", "/nonexistent/file.json")
        assert code == 3

    def test_necessary_pipeline(self, capsys, a3_file):
        code, out, _ = run_cli(capsys, "certify", a3_file, "--necessary", "--depth", "12")
        assert code == 0
        assert "recover[(1,1)]" in out
        assert "alanconsi[-1]" in out

    def test_bilateral_document(self, capsys, tmp_path):
        doc = {
            "tree": {"kind": "bilateral"},
            "weights": {"default": {"sq": "2/1"}},
            "mode": "exact",
        }
        path = tmp_path / "bi.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "certify", str(path), "--depth", "6", "--window", "6")
        assert code == 0
        assert "tshift[6,6]" in out

    def test_edge_chain_document(self, capsys, tmp_path):
        doc = {
            "tree": {"kind": "edges", "edges": [["0", "1"], ["1", "2"], ["2", "3"]]},
            "weights": {"default": {"sq": "1/1"}},
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "certify", str(path), "--depth", "3", "--m-max", "1")
        assert code == 0


class TestMoments:
    def test_compute_prints_sequence(self, capsys, kappa0_file):
        code, out, _ = run_cli(capsys, "moments", "compute", kappa0_file,
                               "--vertex", "0", "--upto", "3")
        assert code == 0
        assert out.strip() == "(1, 3/4, 1, 3/2)"

    def test_compute_vertex_from_document(self, capsys, tmp_path):
        path = _write(tmp_path, "a3.json", {**A3_DOC, "vertex": -1})
        assert run_cli(capsys, "moments", "compute", path, "--upto", "3") == (0, "(1, 1, 3/2, 5/2)\n", "")
        # --vertex wins over the document, as every other flag does
        assert run_cli(capsys, "moments", "compute", path, "--vertex", "0", "--upto", "3")[:2] == \
            (0, "(1, 3/2, 5/2, 9/2)\n")
        code, out, err = run_cli(capsys, "moments", "compute", _write(tmp_path, "bare.json", A3_DOC))
        assert (code, out) == (3, "")
        assert err == "input error: $.vertex: moments compute needs --vertex or the document key vertex\n"

    def test_check_violated_exit_one(self, capsys, seq_file):
        code, out, _ = run_cli(capsys, "moments", "check", seq_file)
        assert code == 1
        assert "det -3" in out

    def test_check_consistent_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"sequence": ["1"] * 6}), encoding="utf-8")
        code, out, _ = run_cli(capsys, "moments", "check", str(path))
        assert code == 0

    def test_check_two_sided(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        doc = {"two_sided": {"lo": -5, "values": [str(2 ** (n + 5)) for n in range(-5, 6)]}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "moments", "check", str(path), "--window", "5")
        assert code == 0
        assert "shifts k <= 5" in out

    def test_recover_two_atoms(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"sequence": ["1", "5/2", "17/2", "65/2"]}), encoding="utf-8")
        code, out, _ = run_cli(capsys, "moments", "recover", str(path), "--atoms", "2")
        assert code == 0
        assert out.strip() == "1/2*delta[1] + 1/2*delta[4]"

    def test_recover_failure_exit_one(self, capsys, seq_file):
        code, out, _ = run_cli(capsys, "moments", "recover", seq_file, "--atoms", "2")
        assert code == 1
        assert "no nonnegative representing measure" in out

    def test_recover_past_float_range_nodes(self, capsys, tmp_path):
        # H_2 is positive definite, so the 2-atom measure exists; its irrational nodes are
        # about 1 and 10**40, and its mass at the far node about 10**-80, all within floats
        path = _write(tmp_path, "far.json", {"sequence": ["1", "1", "2", str(10 ** 40)]})
        code, out, _ = run_cli(capsys, "moments", "recover", path, "--atoms", "2")
        assert code == 0
        assert out.strip() == "1.0*delta[1.0] + 1e-80*delta[1e+40]"

    def test_recover_outside_float_range_is_inconclusive(self, capsys, tmp_path):
        # the same with 10**400: the measure exists, but a node near 10**400 is no float
        path = _write(tmp_path, "huge.json", {"sequence": ["1", "1", "2", str(10 ** 400)]})
        code, out, err = run_cli(capsys, "moments", "recover", path, "--atoms", "2")
        assert code == 2
        assert out.startswith("a representing measure with <= 2 atoms exists but lies outside float range")
        assert err == ""

    def test_certify_chain_outside_float_range(self, capsys, tmp_path):
        # the edge chain whose orbit norms at 0 are (1, 1, 2, 10**400): the measure is not
        # exhibited, so the certificate stays order-limited
        doc = {"tree": {"kind": "edges", "edges": [[0, 1], [1, 2], [2, 3]]},
               "weights": {"map": {"1": {"sq": "1/1"}, "2": {"sq": "2/1"},
                                   "3": {"sq": f"{10 ** 400 // 2}/1"}}}}
        code, out, _ = run_cli(capsys, "certify", _write(tmp_path, "huge-chain.json", doc),
                               "--depth", "3", "--m-max", "2")
        assert code == 0
        assert "no representing measure with <= 2 atoms; consistency up to order 3 only" in out

    def test_carleman_all_ones(self, capsys, tmp_path):
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"sequence": ["1"] * 51}), encoding="utf-8")
        code, out, _ = run_cli(capsys, "moments", "carleman", str(path), "--upto", "50")
        assert code == 0
        assert out.startswith("S_50 = 50")


class TestTreeGen:
    def test_text_listing(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "gen", "--eta", "2", "--kappa", "1", "--depth", "2")
        assert code == 0
        assert "-1 -> 0" in out
        assert "0 -> (1,1)" in out

    def test_struct_listing(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "gen", "--eta", "3", "--kappa", "0",
                               "--depth", "1", "--format", "struct")
        assert code == 0
        doc = json.loads(out)
        assert doc["root"] == "0"
        assert ["0", "(3,1)"] in doc["edges"]

    def test_invalid_eta_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "tree", "gen", "--eta", "1", "--kappa", "0")
        assert code == 3

    @given(st.integers(2, 4), st.sampled_from(["0", "1", "3", "inf"]), st.integers(0, 7))
    def test_struct_listing_level_by_level(self, eta, kappa, depth):
        """The edges in level order: down the stem first, then one edge per ray and level."""
        start = -depth if kappa == "inf" else -int(kappa)
        want = []
        for level in range(1, depth + 1):
            if start + level <= 0:
                want.append([str(start + level - 1), str(start + level)])
            else:
                j = start + level
                want.extend(["0" if j == 1 else f"({i},{j - 1})", f"({i},{j})"] for i in range(1, eta + 1))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["tree", "gen", "--eta", str(eta), "--kappa", kappa, "--depth", str(depth),
                         "--format", "struct"])
        assert code == 0
        assert json.loads(out.getvalue()) == {"root": None if kappa == "inf" else str(start), "edges": want}


class TestReduce:
    def test_bilateral_reduction(self, capsys, tmp_path):
        doc = {
            "tree": {"kind": "bilateral"},
            "weights": {"default": {"sq": "1/1"}},
        }
        path = tmp_path / "bi.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "reduce", str(path), "--base", "0",
                               "--kmax", "3", "--depth", "5")
        assert code == 0
        assert "des[-3]" in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "treeshift", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "treeshift" in result.stdout


class TestCaseIII:
    def test_root_measure_document(self, capsys, tmp_path):
        doc = json.loads(json.dumps(A3_DOC))
        doc["nu"] = {"atoms": [["0/1", "1/4"], ["1/1", "1/2"], ["2/1", "1/4"]]}
        path = tmp_path / "a3nu.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "certify", str(path), "--depth", "8")
        assert code == 0
        assert "prob[1]" in out
        assert "probp[1]" in out and "probp[2]" in out
        assert "branch-tree-case-iii" in out

    def test_forced_case_iii_without_nu_is_input_error(self, capsys, a3_file):
        code, _, err = run_cli(capsys, "certify", a3_file, "--case", "iii")
        assert code == 3
        assert "nu" in err


class TestFloatMode:
    def test_certify_float_mode(self, capsys, a3_file):
        code, out, _ = run_cli(capsys, "certify", a3_file, "--mode", "float", "--depth", "6")
        assert code == 0
        assert "arithmetic: float" in out

    def test_check_float_mode(self, capsys, seq_file):
        code, out, _ = run_cli(capsys, "moments", "check", seq_file, "--mode", "float")
        assert code == 1
        assert "eigenvalue" in out

    @pytest.mark.parametrize("command", [["check"], ["recover", "--atoms", "2"]])
    def test_entry_beyond_float_range_is_input_error(self, capsys, tmp_path, command):
        path = _write(tmp_path, "huge.json", {"sequence": ["1", "1", "2", str(10 ** 400)]})
        code, out, err = run_cli(capsys, "moments", command[0], path, *command[1:], "--mode", "float")
        assert code == 3
        assert out == ""
        assert err == "error: t_3 ($.sequence[3]) does not fit a float\n"

    def test_two_sided_entry_beyond_float_range_names_its_index(self, capsys, tmp_path):
        doc = {"two_sided": {"lo": -2, "values": ["1", str(10 ** 400), "1", "1"]}}
        path = _write(tmp_path, "huge.json", doc)
        code, _, err = run_cli(capsys, "moments", "check", path, "--mode", "float")
        assert code == 3
        assert err == "error: t_-1 ($.two_sided.values[1]) does not fit a float\n"


class TestInfiniteStemReduce:
    def test_generated_family_reduction(self, capsys, tmp_path):
        doc = {
            "tree": {"kind": "eta_kappa", "eta": 2, "kappa": "inf"},
            "weights": {
                "map": {
                    "0": {"sq": "4/3"}, "-1": {"sq": "6/5"}, "-2": {"sq": "10/9"},
                    "-3": {"sq": "18/17"}, "-4": {"sq": "34/33"}, "-5": {"sq": "66/65"},
                    "(1,1)": {"sq": "1/2"}, "(2,1)": {"sq": "1/1"}
                },
                "rules": [
                    {"branch": 1, "formula": "ratio_of_moments", "measure": {"atoms": [["1/1", "1/1"]]}},
                    {"branch": 2, "formula": "ratio_of_moments", "measure": {"atoms": [["2/1", "1/1"]]}}
                ]
            },
            "measures": [{"atoms": [["1/1", "1/1"]]}, {"atoms": [["2/1", "1/1"]]}],
            "mode": "exact"
        }
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "reduce", str(path), "--base", "0",
                               "--kmax", "3", "--depth", "6")
        assert code == 0
        assert "des[-3]:widly1p" in out


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestDocumentKeys:
    def test_reduce_reads_m_max(self, capsys, tmp_path):
        doc = {**json.loads((DATA / "bilateral.json").read_text()), "m_max": 1}
        path = _write(tmp_path, "bilateral-m1.json", doc)
        argv = ("--kmax", "1", "--depth", "4")
        code, from_doc, _ = run_cli(capsys, "reduce", path, *argv)
        assert code == 0
        code, from_flag, _ = run_cli(capsys, "reduce", str(DATA / "bilateral.json"), *argv, "--m-max", "1")
        assert code == 0
        assert from_doc.count("mass[") == from_flag.count("mass[") == 4
        _, unset, _ = run_cli(capsys, "reduce", str(DATA / "bilateral.json"), *argv)
        assert "mass[" not in unset
        # the flag wins over the document key
        _, overridden, _ = run_cli(capsys, "reduce", path, *argv, "--m-max", "0")
        assert "mass[" not in overridden

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_amplitude_is_squared(self, capsys, tmp_path, mode):
        reports = []
        for spec in ({"sq": "9/4"}, {"amp": "-3/2"}):
            doc = json.loads(json.dumps(A3_DOC))
            doc["weights"]["map"]["0"] = spec
            path = _write(tmp_path, "stem.json", doc)
            code, out, _ = run_cli(capsys, "certify", path, "--depth", "6", "--mode", mode,
                                   "--format", "struct")
            assert code == 1  # a stem weight of 9/4 breaks the stem inequality
            reports.append(out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["arithmetic"] == mode


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["certify", str(DATA / "a3.json"), "--depth", "abc"],
        ["reduce", str(DATA / "bilateral.json"), "--ell", "5"],
        ["moments", "compute", str(DATA / "a3.json"), "--vertex", "0", "--format", "struct"],
        ["moments", "compute", str(DATA / "a3.json"), "--vertex", "0", "--tol", "0.1"],
        ["moments", "recover", str(DATA / "a3_orbit.json"), "--atoms", "2", "--format", "struct"],
        ["moments", "recover", str(DATA / "a3_orbit.json"), "--atoms", "2", "--tol", "0.1"],
        ["moments", "carleman", str(DATA / "a3_orbit.json"), "--format", "struct"],
        ["moments", "carleman", str(DATA / "a3_orbit.json"), "--tol", "0.1"],
        ["frobnicate"],
    ])
    def test_usage_error_exits_three(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "usage: treeshift" in err

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["reduce", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "treeshift" in capsys.readouterr().out


class TestUnreadFlags:
    """A flag the chosen route never reads is an input error, not silently ignored."""

    @pytest.mark.parametrize("argv, message", [
        (["moments", "check", str(DATA / "a3_orbit.json"), "--window", "999999"],
         "--window is not read by moments check on a one-sided sequence"),
        (["certify", str(DATA / "bilateral.json"), "--case", "iv", "--depth", "3"],
         "--case is not read by certify on a chain"),
        (["certify", str(DATA / "edge_chain.json"), "--case", "ii", "--depth", "3"],
         "--case is not read by certify on a chain"),
        (["certify", str(DATA / "a3.json"), "--necessary", "--case", "ii"],
         "--case is not read by certify --necessary"),
        (["certify", str(DATA / "a3.json"), "--necessary", "--window", "3"],
         "--window is not read by certify --necessary"),
    ])
    def test_unread_flag_exits_three(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_flags_where_they_are_read(self, capsys):
        assert run_cli(capsys, "moments", "check", str(DATA / "two_sided.json"), "--window", "2")[0] == 0
        assert run_cli(capsys, "certify", str(DATA / "bilateral.json"), "--depth", "3", "--case", "auto")[0] == 0
        assert run_cli(capsys, "certify", str(DATA / "a3.json"), "--depth", "3", "--case", "ii")[0] == 0

    def test_ell_is_bounded_only_where_read(self, capsys):
        # a finite stem (cases i and ii) never reads ell; case iv keeps the ceiling (TestOrderCeilings)
        assert run_cli(capsys, "certify", str(DATA / "a3.json"), "--ell", str(10 ** 8))[0] == 0
        assert run_cli(capsys, "certify", str(DATA / "kappa0.json"), "--ell", str(10 ** 8))[0] == 0


@pytest.mark.parametrize("argv", [
    ["certify", "tests/data/a3.json", "--depth", "2000", "--format", "struct"],
    ["certify", "tests/data/a3.json", "--necessary", "--format", "struct"],
    ["tree", "gen", "--eta", "2", "--kappa", "1", "--depth", "3"],
])
def test_closed_stdout_exits_quietly(argv):
    # stdout is a pipe whose reader is gone before the command starts, as in `| head -c 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    try:
        result = subprocess.run([sys.executable, "-m", "treeshift", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, cwd=Path(__file__).resolve().parent.parent,
                                env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (3, "")


class TestShapeAndRuleErrors:
    def test_zero_mass_ratio_rule_is_an_error(self, capsys, tmp_path):
        doc = json.loads(json.dumps(A3_DOC))
        doc["weights"]["rules"][0]["measure"] = {"atoms": [["1", "0"]]}
        path = _write(tmp_path, "zero.json", doc)
        for argv in (["moments", "compute", path, "--vertex", "0"], ["certify", path]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3
            assert err.startswith("error: moment of order 1 vanishes")

    def test_deep_branching_vertex_selects_branch_criterion(self, capsys, tmp_path):
        # a 70-edge stem, then two rays of three vertices each
        edges = [[j, j + 1] for j in range(70)]
        edges += [[70, "a1"], ["a1", "a2"], ["a2", "a3"], [70, "b1"], ["b1", "b2"], ["b2", "b3"]]
        doc = {
            "tree": {"kind": "edges", "edges": edges},
            "weights": {"map": {"a1": {"sq": "1/2"}, "b1": {"sq": "1/2"}}, "default": {"sq": "1"}},
            "measures": [{"atoms": [["1", "1"]]}, {"atoms": [["1", "1"]]}],
        }
        path = _write(tmp_path, "deep.json", doc)
        code, out, _ = run_cli(capsys, "certify", path, "--depth", "2", "--format", "struct")
        assert code == 0
        report = json.loads(out)
        assert report["criterion"] == "branch-tree-case-ii"
        ids = [c["id"] for c in report["checks"]]
        assert "widly1[69]" in ids and "widly1p" in ids and "widly1[70]" not in ids

    def test_two_branching_vertices_is_an_error(self, capsys, tmp_path):
        doc = {
            "tree": {"kind": "edges", "edges": [[0, 1], [0, 2], [1, 3], [1, 4]]},
            "weights": {"default": {"sq": "1"}},
            "measures": [{"atoms": [["1", "1"]]}, {"atoms": [["1", "1"]]}],
        }
        code, _, err = run_cli(capsys, "certify", _write(tmp_path, "two.json", doc))
        assert code == 3
        assert "more than one branching vertex: 0, 1" in err


class TestNegativeOrders:
    """A negative depth, window, k_max or term count is an input error, never a vacuous pass."""

    def _rejects(self, capsys, *argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {name} must be nonnegative")

    def test_negative_window_on_violated_window(self, capsys):
        path = str(DATA / "two_sided_violated.json")
        assert run_cli(capsys, "moments", "check", path)[0] == 1
        self._rejects(capsys, "moments", "check", path, "--window", "-1", name="window")

    def test_negative_depth_branch_tree(self, capsys):
        self._rejects(capsys, "certify", str(DATA / "a3.json"), "--depth", "-1", name="depth")

    def test_negative_depth_root_measure_form(self, capsys):
        self._rejects(capsys, "certify", str(DATA / "a3_nu.json"), "--depth", "-1", name="depth")

    def test_negative_depth_bilateral(self, capsys):
        self._rejects(capsys, "certify", str(DATA / "bilateral.json"), "--depth", "-1", name="depth")

    def test_negative_depth_tree_gen(self, capsys):
        self._rejects(capsys, "tree", "gen", "--eta", "2", "--kappa", "inf", "--depth", "-1", name="depth")

    def test_negative_kmax(self, capsys):
        self._rejects(capsys, "reduce", str(DATA / "bilateral.json"), "--kmax", "-1", name="k_max")

    def test_negative_carleman_upto(self, capsys):
        self._rejects(capsys, "moments", "carleman", str(DATA / "a3_orbit.json"), "--upto", "-3",
                      name="number of terms")

    def test_zero_kmax(self, capsys):
        # k_max = 0 would certify the reduction without checking a single ancestor
        code, out, err = run_cli(capsys, "reduce", str(DATA / "bilateral.json"), "--kmax", "0")
        assert (code, out) == (3, "")
        assert err.startswith("error: k_max must be at least 1, got 0")


class TestWindowCeiling:
    """A window beyond the ceiling is an input error, from the flag or the document, not a hang."""

    def test_window_flag_above_ceiling(self, capsys):
        code, out, err = run_cli(capsys, "certify", str(DATA / "bilateral.json"), "--window", str(10 ** 11))
        assert (code, out) == (3, "")
        assert err == "error: window must be at most 1000, got 100000000000\n"

    def test_window_in_document_above_ceiling(self, capsys, tmp_path):
        doc = {**json.loads((DATA / "bilateral.json").read_text()), "window": 1001}
        code, out, err = run_cli(capsys, "certify", _write(tmp_path, "wide.json", doc))
        assert (code, out) == (3, "")
        assert err == "error: window must be at most 1000, got 1001\n"

    def test_window_at_ceiling_runs(self, capsys):
        code, _, _ = run_cli(capsys, "certify", str(DATA / "bilateral.json"), "--window", "1000",
                             "--depth", "2", "--format", "struct")
        assert code == 0


class TestDepthCeiling:
    """A depth beyond its ceiling is an input error, from the flag or the document, not a hang."""

    def _rejects(self, capsys, *argv, limit, value):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: depth must be at most {limit}, got {value}\n"

    def test_certify_flag_above_ceiling(self, capsys):
        self._rejects(capsys, "certify", str(DATA / "a3.json"), "--depth", str(10 ** 12),
                      limit=10000, value=10 ** 12)

    def test_certify_document_above_ceiling(self, capsys, tmp_path):
        doc = {**json.loads((DATA / "a3.json").read_text()), "depth": 10 ** 30}
        self._rejects(capsys, "certify", _write(tmp_path, "deep.json", doc), limit=10000, value=10 ** 30)

    def test_necessary_and_chain_above_ceiling(self, capsys):
        self._rejects(capsys, "certify", str(DATA / "a3.json"), "--necessary", "--depth", "10001",
                      limit=10000, value=10001)
        self._rejects(capsys, "certify", str(DATA / "edge_chain.json"), "--depth", "10001",
                      limit=10000, value=10001)

    def test_reduce_flag_above_ceiling(self, capsys):
        self._rejects(capsys, "reduce", str(DATA / "bilateral.json"), "--depth", "10001",
                      limit=10000, value=10001)

    def test_tree_gen_above_ceiling(self, capsys):
        self._rejects(capsys, "tree", "gen", "--eta", "2", "--kappa", "1", "--depth", str(10 ** 8),
                      limit=100000, value=10 ** 8)

    def test_tree_gen_at_ceiling_runs(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "gen", "--eta", "2", "--kappa", "0", "--depth", "100000",
                               "--format", "struct")
        assert code == 0
        assert len(json.loads(out)["edges"]) == 200000


def test_exact_paths_do_not_load_numpy(tmp_path):
    import treeshift

    seq = _write(tmp_path, "seq.json", {"sequence": ["1", "2", "5", "14"]})
    # the 20-point Gauss-Legendre rule on [0, 1]: irrational nodes, float atoms
    legendre = _write(tmp_path, "legendre.json", {"sequence": [f"1/{n + 1}" for n in range(40)]})
    a3 = _write(tmp_path, "a3.json", A3_DOC)
    runs = [
        (["moments", "check", seq], "exact moments check"),
        (["moments", "recover", seq, "--atoms", "2"], "exact moments recover"),
        (["moments", "recover", legendre, "--atoms", "20"], "exact moments recover with irrational nodes"),
        (["certify", a3], "exact certify"),
        (["certify", a3, "--necessary"], "exact certify --necessary"),
        (["certify", str(DATA / "bilateral.json")], "exact bilateral certify"),
    ]
    script = "import sys, treeshift.cli\n" \
             "assert 'numpy' not in sys.modules, 'import treeshift.cli loaded numpy'\n"
    for argv, what in runs:
        script += (f"assert treeshift.cli.main({argv!r}) == 0, {what!r}\n"
                   f"assert 'numpy' not in sys.modules, '{what} loaded numpy'\n")
    src = str(Path(treeshift.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


class TestOrderCeilings:
    """upto, k_max, ell, the stem, the bilateral (window + 1) * (depth + 1) and reduce's work have
    ceilings too: exit 3, not a hang."""

    def _rejects(self, capsys, *argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"

    def test_moments_compute_upto_above_ceiling(self, capsys):
        self._rejects(capsys, "moments", "compute", str(DATA / "a3.json"), "--vertex", "0",
                      "--upto", str(10 ** 11), message=f"upto must be at most 10000, got {10 ** 11}")

    def test_moments_compute_ray_index_above_ceiling(self, capsys, tmp_path):
        # the ratio rule at ray vertex (i, j) extends the branch measure's power-sum table to
        # order j: (1, 10^8) on a3 was still running after 8 s
        self._rejects(capsys, "moments", "compute", str(DATA / "a3.json"), "--vertex", "(1,100000000)",
                      "--upto", "3", message="ray index must be at most 10000, got 100000000")
        self._rejects(capsys, "moments", "compute", self._unit_stem(tmp_path), "--vertex", "(2,10001)",
                      "--upto", "3", message="ray index must be at most 10000, got 10001")
        code, out, _ = run_cli(capsys, "moments", "compute", str(DATA / "a3.json"), "--vertex", "(1,10000)",
                               "--upto", "2")
        assert (code, out) == (0, "(1, 1, 1)\n")
        # a listed tree's pair labels are not ray indices
        doc = {"tree": {"kind": "edges", "edges": [["0", "(1,20000)"], ["(1,20000)", "(1,20001)"]]},
               "weights": {"map": {"(1,20000)": {"sq": "2"}, "(1,20001)": {"sq": "3"}}}}
        code, out, _ = run_cli(capsys, "moments", "compute", _write(tmp_path, "edges.json", doc),
                               "--vertex", "(1,20000)", "--upto", "2")
        assert (code, out) == (0, "(1, 3, 0)\n")
        # the document key vertex holds an integer, a stem or branching vertex, never a ray vertex
        doc = {**json.loads((DATA / "a3.json").read_text()), "vertex": "(1,100000000)"}
        code, out, err = run_cli(capsys, "moments", "compute", _write(tmp_path, "far.json", doc),
                                 "--vertex", "0", "--upto", "3")
        assert (code, out, err) == (3, "", "input error: $.vertex: expected an integer\n")

    def test_reduce_kmax_above_ceiling(self, capsys, tmp_path):
        self._rejects(capsys, "reduce", str(DATA / "bilateral.json"), "--kmax", str(10 ** 9), "--depth", "5",
                      message=f"k_max must be at most 1000, got {10 ** 9}")
        doc = {**json.loads((DATA / "bilateral.json").read_text()), "k_max": 1001}
        self._rejects(capsys, "reduce", _write(tmp_path, "far.json", doc),
                      message="k_max must be at most 1000, got 1001")

    def test_bilateral_shift_identities_above_ceiling(self, capsys):
        # each bound alone allows K = 1000 with N = 10000: ten million O(N)-bit identities
        self._rejects(capsys, "certify", str(DATA / "bilateral.json"), "--window", "1000", "--depth", "10000",
                      message="(window + 1) * (depth + 1) must be at most 25000, got 10011001")
        self._rejects(capsys, "certify", str(DATA / "bilateral.json"), "--window", "999", "--depth", "25",
                      message="(window + 1) * (depth + 1) must be at most 25000, got 26000")

    def test_bilateral_at_joint_ceiling_runs(self, capsys):
        code, _, _ = run_cli(capsys, "certify", str(DATA / "bilateral.json"), "--window", "999",
                             "--depth", "24", "--format", "struct")
        assert code == 0

    @staticmethod
    def _unit_stem(tmp_path, **changes):
        """kappa_inf.json with every stem weight past -5 set to 1."""
        doc = json.loads((DATA / "kappa_inf.json").read_text())
        doc["weights"]["default"] = {"sq": "1/1"}
        doc["tree"].update(changes)
        return _write(tmp_path, "unit-stem.json", doc)

    def test_ell_above_ceiling(self, capsys, tmp_path):
        path = self._unit_stem(tmp_path)
        self._rejects(capsys, "certify", path, "--depth", "3", "--ell", str(10 ** 8),
                      message=f"ell must be at most 10000, got {10 ** 8}")
        doc = {**json.loads(Path(path).read_text()), "ell": 10001}
        self._rejects(capsys, "certify", _write(tmp_path, "far.json", doc), "--depth", "3",
                      message="ell must be at most 10000, got 10001")

    def test_stem_above_ceiling(self, capsys, tmp_path):
        self._rejects(capsys, "certify", self._unit_stem(tmp_path, kappa=10 ** 12), "--depth", "3",
                      message=f"stem must be at most 10000, got {10 ** 12}")
        # the first ancestor's subtree is the family with stem 10^12 + 1
        self._rejects(capsys, "reduce", str(DATA / "kappa_inf.json"), "--base", str(-10 ** 12), "--kmax", "1",
                      "--depth", "3", message=f"stem must be at most 10000, got {10 ** 12 + 1}")

    def test_reduce_work_above_bound(self, capsys, tmp_path):
        self._rejects(capsys, "reduce", str(DATA / "bilateral.json"), "--kmax", "3", "--depth", "10000",
                      message="(depth + stem + 1) summed over the ancestors must be at most 25000, "
                              "got 30003 by ancestor 3")
        self._rejects(capsys, "reduce", self._unit_stem(tmp_path), "--kmax", "1000", "--depth", "20",
                      message="(depth + stem + 1) summed over the ancestors must be at most 25000, "
                              "got 25194 by ancestor 204")

    def test_reduce_at_depth_ceiling_runs(self, capsys):
        code, _, _ = run_cli(capsys, "reduce", str(DATA / "bilateral.json"), "--kmax", "1", "--depth", "10000")
        assert code == 0

    def test_branch_count_above_ceiling(self, capsys, tmp_path):
        # the branching vertex's children are listed as one tuple: a document with eta = 10^9
        # ran out of memory, and tree gen took the same path
        doc = json.loads((DATA / "a3.json").read_text())
        doc["tree"]["eta"] = 10 ** 9
        code, out, err = run_cli(capsys, "certify", _write(tmp_path, "wide.json", doc))
        assert (code, out) == (3, "")
        assert err == "input error: $.tree: branch count must be at most 10000, got 1000000000\n"
        self._rejects(capsys, "tree", "gen", "--eta", str(10 ** 9), "--kappa", "1", "--depth", "3",
                      message="branch count must be at most 10000, got 1000000000")
        # within both ceilings, a listing of eta * depth = 10^9 edges is refused too
        self._rejects(capsys, "tree", "gen", "--eta", "10000", "--kappa", "1", "--depth", "100000",
                      message="eta * depth must be at most 1000000, got 1000000000")

    def test_branch_count_at_ceiling_runs(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "gen", "--eta", "10000", "--kappa", "0", "--depth", "100",
                               "--format", "struct")
        assert code == 0
        assert len(json.loads(out)["edges"]) == 1000000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit")
@pytest.mark.parametrize("value, digits", [("1" * 5000, 5000), ("1/" + "3" * 4400, 4400),
                                           ("-" + "7" * 4301 + "/2", 4301), ("5/-" + "9" * 4301, 4301)])
def test_integer_past_the_digit_limit_is_named_not_echoed(capsys, tmp_path, value, digits):
    # int() refuses more than 4300 digits by default; the value is a rational, so the message
    # names the digit count and the limit, and does not echo thousands of digits back
    path = _write(tmp_path, "long.json", {"sequence": ["1", value, "2"]})
    code, out, err = run_cli(capsys, "moments", "check", path)
    assert (code, out) == (3, "")
    assert err == (f"input error: $.sequence[1]: an integer of {digits} digits is past Python's int-string "
                   f"limit (sys.get_int_max_str_digits(), 4300 digits by default)\n")
    # malformed parts are still "not a rational", whatever their length
    for bad in ("12/ab", "+-3", "3/\u00b2"):
        code, _, err = run_cli(capsys, "moments", "check", _write(tmp_path, "bad.json", {"sequence": ["1", bad]}))
        assert (code, err) == (3, f"input error: $.sequence[1]: not a rational: {bad!r}\n")


@pytest.mark.parametrize("value, length, quoted", [("ab/" + "5" * 4400, 4403, "'ab/" + "5" * 37 + "'"),
                                                   ("5" * 4000 + "/0", 4002, "'" + "5" * 40 + "'")],
                         ids=["malformed", "zero-denominator"])
def test_malformed_rational_is_quoted_in_part(capsys, tmp_path, value, length, quoted):
    # a malformed or zero-denominator value of thousands of characters: one short line names its length
    path = _write(tmp_path, "long.json", {"sequence": ["1", value]})
    code, out, err = run_cli(capsys, "moments", "check", path)
    assert (code, out) == (3, "")
    what = "zero denominator" if value.endswith("/0") else "not a rational"
    assert err == f"input error: $.sequence[1]: {what}: {quoted}... ({length} characters)\n"


class TestWeightsBlock:
    """Every map key and rule branch names part of the tree, and every vertex of a finite tree has a weight."""

    def test_edge_tree_vertex_without_weight(self, capsys, tmp_path):
        doc = json.loads((DATA / "edge_chain.json").read_text())
        del doc["weights"]["map"]["10"]
        path = _write(tmp_path, "chain.json", doc)
        assert run_cli(capsys, "certify", path, "--depth", "4") == (3, "", "error: no weight defined at vertex 10\n")

    @pytest.mark.parametrize("key", ["(1;1)", "-1", "1", "(3,1)", "(1,0)", "(0,2)", "x"])
    def test_map_key_outside_the_tree(self, capsys, tmp_path, key):
        # a3's tree: root -1, branching vertex 0, rays (1,j) and (2,j) for j >= 1
        doc = json.loads(json.dumps(A3_DOC))
        doc["weights"]["map"][key] = doc["weights"]["map"].pop("(1,1)")
        doc["weights"]["default"] = {"sq": "1"}
        code, out, err = run_cli(capsys, "certify", _write(tmp_path, "key.json", doc), "--depth", "4")
        assert (code, out) == (3, "")
        assert err == f"input error: $.weights.map[{key}]: names no non-root vertex of the tree\n"

    @pytest.mark.parametrize("branch", [3, 9])
    def test_rule_branch_outside_the_tree(self, capsys, tmp_path, branch):
        doc = json.loads(json.dumps(A3_DOC))
        doc["weights"]["rules"][1]["branch"] = branch
        doc["weights"]["default"] = {"sq": "2"}
        code, out, err = run_cli(capsys, "certify", _write(tmp_path, "rule.json", doc), "--depth", "4")
        assert (code, out) == (3, "")
        assert err == f"input error: $.weights.rules[1].branch: the tree has no ray vertex ({branch},2)\n"

    def test_necessary_reads_ell(self, capsys, tmp_path):
        # the infinite-stem fixture with every stem weight past -5 set to 1
        doc = json.loads((DATA / "kappa_inf.json").read_text())
        doc["weights"]["default"] = {"sq": "1/1"}
        path = _write(tmp_path, "unit.json", doc)

        def stem_equalities(*argv, file=path):
            code, out, _ = run_cli(capsys, "certify", file, "--necessary", "--format", "struct", *argv)
            assert code in (0, 1)
            return out.count('"id":"widly1[')

        assert [stem_equalities("--ell", str(ell)) for ell in (3, 7, 50)] == [3, 7, 50]
        assert stem_equalities() == 10
        doc["ell"] = 4
        assert stem_equalities(file=_write(tmp_path, "ell.json", doc)) == 4
        assert stem_equalities("--ell", "6", file=_write(tmp_path, "ell.json", doc)) == 6
        code, _, err = run_cli(capsys, "certify", path, "--necessary", "--ell", str(10 ** 8))
        assert (code, err) == (3, "error: ell must be at most 10000, got 100000000\n")
