import json
import math
import pathlib

import numpy as np
import pytest

from hopfdelay.cli import main
from hopfdelay.exceptions import SchemaError
from hopfdelay.problem import load_problem

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def _run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _base_doc():
    return {
        "schema_version": 1,
        "n": 2,
        "linear_terms": {
            "atoms": [{"lag": 0.0, "matrix": [[0.0, 1.0], [-1.0, 0.0]]}]
        },
        "g_linearization": {
            "atoms": [{"lag": 0.0, "matrix": [[0.0, 0.0], [0.0, 1.0]]}]
        },
        "feedback": {
            "structure_matrix": [[0.0, 0.0], [5.0, 0.0]],
            "distribution": {
                "type": "discrete",
                "atoms": [{"lag": 1.0, "weight": 1.0}],
            },
            "kappa": 1.0,
        },
        "epsilon": 0.1,
    }


class TestProblemFiles:
    def test_all_shipped_files_parse(self):
        files = sorted(PROBLEMS.glob("*.json"))
        assert len(files) >= 6
        for f in files:
            problem = load_problem(str(f))
            assert problem.n >= 1

    def test_schema_version_check(self, tmp_path):
        doc = _base_doc()
        doc["schema_version"] = 99
        with pytest.raises(SchemaError):
            load_problem(_write(tmp_path, doc))

    def test_missing_feedback(self, tmp_path):
        doc = _base_doc()
        del doc["feedback"]
        with pytest.raises(SchemaError):
            load_problem(_write(tmp_path, doc))

    def test_bad_matrix_shape(self, tmp_path):
        doc = _base_doc()
        doc["linear_terms"]["atoms"][0]["matrix"] = [[1.0]]
        with pytest.raises(SchemaError):
            load_problem(_write(tmp_path, doc))

    def test_negative_epsilon(self, tmp_path):
        doc = _base_doc()
        doc["epsilon"] = -0.1
        with pytest.raises(SchemaError):
            load_problem(_write(tmp_path, doc))

    def test_negative_lag(self, tmp_path):
        doc = _base_doc()
        doc["linear_terms"]["atoms"][0]["lag"] = -1.0
        with pytest.raises(SchemaError):
            load_problem(_write(tmp_path, doc))

    def test_general_measure_feedback(self, tmp_path):
        doc = _base_doc()
        doc["feedback"] = {
            "measure": {
                "atoms": [{"lag": 1.0, "matrix": [[0.0, 0.0], [5.0, 0.0]]}]
            },
            "kappa": 1.0,
        }
        problem = load_problem(_write(tmp_path, doc))
        assert not problem.pert.factored

    def test_custom_distribution(self, tmp_path):
        doc = _base_doc()
        doc["feedback"]["distribution"] = {
            "type": "custom",
            "atoms": [{"lag": 0.5, "weight": 0.5}, {"lag": 1.5, "weight": 0.5}],
        }
        problem = load_problem(_write(tmp_path, doc))
        assert len(problem.pert.distribution.atoms) == 2


class TestAnalyze:
    def test_stable_case(self, capsys):
        code, out, _ = _run(capsys, "analyze", str(PROBLEMS / "vdp_stabilized.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Stable"
        assert doc["q"] == pytest.approx(1.0, abs=1e-10)
        assert doc["p"] == pytest.approx(-5.0 * math.sin(1.0), abs=1e-10)
        assert doc["omega"] == pytest.approx(1.0, abs=1e-10)
        assert doc["certificate"]["root_count"] == 2
        assert doc["certificate"]["hopf_pair_found"] is True
        assert doc["feedback_effect"] == "stabilizing"

    def test_unstable_open_loop(self, capsys):
        code, out, _ = _run(capsys, "analyze", str(PROBLEMS / "vdp_open_loop.json"))
        assert code == 10
        assert json.loads(out)["verdict"] == "Unstable"

    def test_no_hopf_pair(self, capsys):
        code, _, err = _run(capsys, "analyze", str(PROBLEMS / "no_hopf.json"))
        assert code == 2
        assert "HopfNotFound" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, "analyze", "does_not_exist.json")
        assert code == 2
        assert err

    def test_report_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = _run(
            capsys, "analyze", str(PROBLEMS / "vdp_stabilized.json"), "--out", str(out_file)
        )
        assert code == 0
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        for key in ("q", "p", "kappa", "criterion", "verdict", "alpha", "beta",
                    "tr_C_hat", "tr_C_hat_J"):
            assert key in doc


class TestScan:
    def test_kappa_scan(self, capsys):
        code, out, err = _run(
            capsys, "scan", str(PROBLEMS / "vdp_stabilized.json"), "--kappa", "0:2:5"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kappa,criterion"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first == pytest.approx([0.0, 1.0], abs=1e-10)
        summary = json.loads(err)
        assert summary["kappa_star"] == pytest.approx(
            1.0 / (5.0 * math.sin(1.0)), abs=1e-10
        )

    def test_mu_scan_zeros_near_k_pi(self, capsys):
        code, out, err = _run(
            capsys, "scan", str(PROBLEMS / "vdp_uniform.json"), "--mu", "0:12.6:200"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu,p_mu,criterion"
        summary = json.loads(err)
        stars = [c["mu_star"] for c in summary["sign_changes"]]
        assert len(stars) >= 3
        for star in stars[:3]:
            k = round(star / math.pi)
            assert abs(star - k * math.pi) <= 1e-3

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = _run(capsys, "scan", str(PROBLEMS / "vdp_stabilized.json"))
        assert code == 2
        code, _, err = _run(
            capsys, "scan", str(PROBLEMS / "vdp_stabilized.json"),
            "--mu", "0:1:5", "--kappa", "0:1:5",
        )
        assert code == 2

    def test_bad_range_spec(self, capsys):
        code, _, _ = _run(
            capsys, "scan", str(PROBLEMS / "vdp_stabilized.json"), "--kappa", "0:2"
        )
        assert code == 2

    def test_mu_past_support_limit(self, capsys):
        # uniform on [12, 14]: h_mu leaves lag 0 for mu > 13 / (13 - 12)
        code, out, err = _run(
            capsys, "scan", str(PROBLEMS / "vdp_uniform.json"), "--mu", "0:14:15"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: SupportViolation:")


class TestSimulateVerify:
    def test_simulate_csv(self, capsys):
        code, out, err = _run(
            capsys, "simulate", str(PROBLEMS / "vdp_stabilized.json"),
            "--t-end", "80", "--dt", "0.02",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x1,x2,R"
        assert len(lines) == 4002
        info = json.loads(err)
        assert info["classification"] in (
            "Decay", "Growth", "Sustained", "Undetermined"
        )

    def test_verify_agreement(self, capsys):
        code, out, _ = _run(capsys, "verify", str(PROBLEMS / "vdp_stabilized.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] == "agree"
        assert doc["analysis"]["verdict"] == "Stable"
        assert doc["simulation"]["classification"] == "Decay"

    @pytest.mark.parametrize(
        "command, name", [("verify", "vdp_uniform"), ("simulate", "scalar_lag")]
    )
    def test_no_simulation_block(self, capsys, command, name):
        code, out, err = _run(capsys, command, str(PROBLEMS / f"{name}.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid input: $.simulation:")

    def test_verify_below_threshold(self, capsys):
        code, out, _ = _run(
            capsys, "verify", str(PROBLEMS / "vdp_below_threshold.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["analysis"]["verdict"] == "Unstable"
        assert doc["simulation"]["classification"] == "Sustained"


class TestCertify:
    def test_vdp_pair(self, capsys):
        code, out, _ = _run(capsys, "certify", str(PROBLEMS / "vdp_stabilized.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["root_count"] == 2
        assert doc["hopf_pair_found"] is True

    def test_scalar_lag_rect(self, capsys):
        code, out, _ = _run(
            capsys, "certify", str(PROBLEMS / "scalar_lag.json"),
            "--rect=-0.1:1:-3:3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["root_count"] == 2
        assert doc["rectangle"]["re"][0] == pytest.approx(-0.1)

    def test_no_pair(self, capsys):
        code, out, _ = _run(capsys, "certify", str(PROBLEMS / "no_hopf.json"))
        assert code == 2
        assert json.loads(out)["root_count"] == 0


class TestDeterminism:
    def test_analyze_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _run(capsys, "analyze", str(PROBLEMS / "vdp_stabilized.json"), "--out", str(a))
        _run(capsys, "analyze", str(PROBLEMS / "vdp_stabilized.json"), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_scan_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(
            capsys, "scan", str(PROBLEMS / "vdp_stabilized.json"),
            "--kappa", "0:3:50", "--out", str(a),
        )
        _run(
            capsys, "scan", str(PROBLEMS / "vdp_stabilized.json"),
            "--kappa", "0:3:50", "--out", str(b),
        )
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            _run(
                capsys, "simulate", str(PROBLEMS / "vdp_stabilized.json"),
                "--t-end", "70", "--dt", "0.02", "--out", str(target),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digit_floats(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        _run(capsys, "analyze", str(PROBLEMS / "vdp_stabilized.json"), "--out", str(out_file))
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        # round-tripping through the fixed format is lossless
        assert float(format(doc["p"], ".17g")) == doc["p"]
        assert doc["p"] == pytest.approx(-5.0 * np.sin(1.0), abs=1e-10)
