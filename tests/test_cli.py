import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hopfdelay
from hopfdelay import cli, fde, pipeline
from hopfdelay import problem as problem_module
from hopfdelay.cli import _emit_json, build_parser, main
from hopfdelay.exceptions import SchemaError
from hopfdelay.measures import dirac
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


LOADED_BY_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "hopfdelay")
import hopfdelay
root = loaded()
import hopfdelay.problem
print(json.dumps([root, loaded()]))
"""


def test_loading_a_problem_imports_only_the_schema_layer():
    # a fresh interpreter: the test session has imported every module
    src = str(pathlib.Path(hopfdelay.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", LOADED_BY_IMPORT, src],
        capture_output=True, text=True, check=True,
    )
    root, problem = json.loads(run.stdout)
    assert root == ["hopfdelay"]
    assert problem == [
        "hopfdelay", "hopfdelay.exceptions", "hopfdelay.measures", "hopfdelay.problem",
    ]


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the thread variables as NumPy first loads and after the import of argv[2]
THREADS_AT_IMPORT = """
import importlib, json, os, sys
sys.path.insert(0, sys.argv[1])
names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in names])
sys.meta_path.insert(0, Spy())
importlib.import_module(sys.argv[2])
print(json.dumps([seen[0], [os.environ.get(v) for v in names]]))
"""


@pytest.mark.parametrize(
    "module, user, at_numpy",
    [
        ("hopfdelay.cli", {}, ["1", "1", "1"]),
        ("hopfdelay.cli", {"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None]),
        ("hopfdelay.problem", {}, [None, None, None]),
    ],
    ids=["cli", "cli-user-choice", "library"],
)
def test_blas_threads_pinned_by_the_cli_only(module, user, at_numpy):
    # the CLI sets one BLAS thread before NumPy loads, unless the user set a
    # thread variable; a library import leaves the environment alone
    src = str(pathlib.Path(hopfdelay.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS} | user
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", THREADS_AT_IMPORT, src, module],
        capture_output=True, text=True, check=True, env=env,
    )
    assert json.loads(run.stdout) == [at_numpy, at_numpy]


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

    def test_discrete_distribution(self, tmp_path):
        doc = _base_doc()
        assert load_problem(_write(tmp_path, doc)).pert.distribution == dirac(1.0)
        del doc["feedback"]["distribution"]["atoms"]
        with pytest.raises(SchemaError, match="atoms: missing required field"):
            load_problem(_write(tmp_path, doc))

    def test_custom_distribution(self, tmp_path):
        doc = _base_doc()
        doc["feedback"]["distribution"] = {
            "type": "custom",
            "atoms": [{"lag": 0.5, "weight": 0.5}, {"lag": 1.5, "weight": 0.5}],
        }
        problem = load_problem(_write(tmp_path, doc))
        assert len(problem.pert.distribution.atoms) == 2


def _malformed(tmp_path, edit):
    return _write(tmp_path, edit(_base_doc()))


def _set(path, value):
    """Edit of _base_doc that sets the entry at a key path and returns the
    document to write."""

    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return edit


def _whole(value):
    """Edit of _base_doc that puts value in place of the whole document."""
    return lambda doc: value


SHIPPED = str(PROBLEMS / "vdp_stabilized.json")
CONFIG = "ConfigError"  # a refused simulation, in place of the invalid field
MALFORMED = {
    "mu-range": (["scan", SHIPPED, "--mu", "0:1:x"], "--mu"),
    "kappa-count": (["scan", SHIPPED, "--kappa", "0:1:1.5"], "--kappa"),
    "rect": (["certify", SHIPPED, "--rect", "0:1:a:b"], "--rect"),
    "mu-count": (["scan", SHIPPED, "--mu", "0:1:100000000000"], "--mu"),
    "mu-negative": (["scan", SHIPPED, "--mu=-1:0:5"], "--mu"),
    # the range is refused before the problem's own HopfNotFound / MultiplePairs
    "mu-before-load": (["scan", str(PROBLEMS / "no_hopf.json"), "--mu=-1:0:5"], "--mu"),
    "kappa-before-load": (
        ["scan", str(PROBLEMS / "hidden_axis_pair.json"), "--kappa=0:1:x"], "--kappa"
    ),
    "delta-empty": (["certify", SHIPPED, "--delta", "-1"], "--delta"),
    "rect-inverted": (["certify", SHIPPED, "--rect=0.5:0.1:-3:3"], "--rect"),
    "delta-with-rect": (
        ["certify", SHIPPED, "--rect=-0.05:1:-10:10", "--delta", "0.3"], "--delta"
    ),
    "matrix-entry": (
        _set(["linear_terms", "atoms", 0, "matrix"], [[0.0, "x"], [-1.0, 0.0]]),
        "$.linear_terms.atoms[0].matrix",
    ),
    "coeffs": (
        _set(["feedback", "distribution"], {
            "type": "custom", "densities": [{"interval": [0.5, 1.5], "coeffs": ["a"]}],
        }),
        "$.feedback.distribution.densities[0]",
    ),
    "halfwidth": (
        _set(["feedback", "distribution"], {
            "type": "uniform", "mean": 1.0, "halfwidth": -0.5,
        }),
        "$.feedback.distribution",
    ),
    "mass": (
        _set(["feedback", "distribution"], {
            "type": "custom", "densities": [{"interval": [0.5, 1.5], "coeffs": [0.65]}],
        }),
        "$.feedback.distribution",
    ),
    # atoms and densities are lists of objects
    "atom-not-object": (_set(["linear_terms", "atoms"], [5]), "$.linear_terms.atoms[0]"),
    "atoms-not-list": (_set(["linear_terms", "atoms"], 5), "$.linear_terms.atoms"),
    "density-not-object": (
        _set(["feedback", "distribution"], {"type": "custom", "densities": ["x"]}),
        "$.feedback.distribution.densities[0]",
    ),
    "distribution-atom-not-object": (
        _set(["feedback", "distribution"], {"type": "custom", "atoms": [3]}),
        "$.feedback.distribution.atoms[0]",
    ),
    "measure-not-object": (
        _set(["feedback"], {"measure": 5, "kappa": 1.0}), "$.feedback.measure"
    ),
    "matrix-null": (
        _set(["linear_terms", "atoms", 0, "matrix"], [[0.0, None], [-1.0, 0.0]]),
        "$.linear_terms.atoms[0].matrix",
    ),
    "n-bool": (_set(["n"], True), "$.n"),
    # the document itself is an object
    "document-number": (_whole(5), "$"),
    "document-null": (_whole(None), "$"),
    "document-string": (_whole("schema_version"), "$"),
    "document-list": (_whole([]), "$"),
    # a run too long to allocate is refused before it starts
    "steps-t-end": (["simulate", SHIPPED, "--t-end", "1e12"], CONFIG),
    "steps-dt": (["verify", SHIPPED, "--dt", "1e-9"], CONFIG),
    "steps-overflow": (["simulate", SHIPPED, "--t-end", "1e300", "--dt", "1e-300"], CONFIG),
}


NAN, INF = math.nan, math.inf
NON_FINITE = {
    "kappa": (_set(["feedback", "kappa"], NAN), "$.feedback.kappa"),
    "epsilon": (_set(["epsilon"], INF), "$.epsilon"),
    "integer-overflow": (_set(["epsilon"], 10**400), "$.epsilon"),
    "matrix-entry": (
        _set(["linear_terms", "atoms", 0, "matrix"], [[0.0, NAN], [-1.0, 0.0]]),
        "$.linear_terms.atoms[0].matrix[0][1]",
    ),
    "lag": (_set(["linear_terms", "atoms", 0, "lag"], NAN), "$.linear_terms.atoms[0].lag"),
    "weight": (
        _set(["feedback", "distribution", "atoms", 0, "weight"], -INF),
        "$.feedback.distribution.atoms[0].weight",
    ),
    "coeffs": (
        _set(["feedback", "distribution"], {
            "type": "custom", "densities": [{"interval": [0.5, 1.5], "coeffs": [INF]}],
        }),
        "$.feedback.distribution.densities[0].coeffs[0]",
    ),
    "interval": (
        _set(["g_linearization", "densities"], [{
            "interval": [0.5, NAN], "matrix": [[0.0, 0.0], [0.0, 1.0]],
            "density_coeffs": [1.0],
        }]),
        "$.g_linearization.densities[0].interval[1]",
    ),
    "t-end": (
        _set(["simulation"], {"t_end": INF, "dt": 0.02, "history": [0.1, 0.0]}),
        "$.simulation.t_end",
    ),
    "dt": (
        _set(["simulation"], {"t_end": 20.0, "dt": NAN, "history": [0.1, 0.0]}),
        "$.simulation.dt",
    ),
    "history": (
        _set(["simulation"], {"t_end": 20.0, "dt": 0.02, "history": [NAN, 0.0]}),
        "$.simulation.history[0]",
    ),
    "dt-option": (["simulate", SHIPPED, "--dt", "nan"], "--dt"),
    "t-end-option": (["simulate", SHIPPED, "--t-end", "inf"], "--t-end"),
    "verify-dt-option": (["verify", SHIPPED, "--dt", "inf"], "--dt"),
    "delta-option": (["certify", SHIPPED, "--delta", "inf"], "--delta"),
    "rect-option": (["certify", SHIPPED, "--rect=-inf:1:-3:3"], "--rect"),
    "kappa-range": (["scan", SHIPPED, "--kappa", "0:inf:5"], "--kappa"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_exits_2(capsys, tmp_path, case):
    # Python's json reads NaN, Infinity and integers past the largest
    # double, and float() reads nan and inf
    argv, field = NON_FINITE[case]
    if callable(argv):
        argv = ["analyze", _malformed(tmp_path, argv)]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid input: {field}: ")


class TestParseTimeFiniteCheck:
    """The parser's number hooks find a non-finite number; the path-naming
    walk runs only on a document that holds one."""

    def test_finite_documents_are_not_walked(self, monkeypatch, tmp_path):
        def walk(node, where="$"):
            raise AssertionError("finite document walked")

        monkeypatch.setattr(problem_module, "_require_finite", walk)
        paths = sorted(PROBLEMS.glob("*.json")) + [_write(tmp_path, _base_doc())]
        assert len(paths) > 10
        for path in paths:
            load_problem(path)

    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    def test_overflowing_float_literal(self, capsys, tmp_path, literal):
        # json.dumps writes inf as Infinity, so the text is edited: json
        # reads 1e999 through float() as inf
        path = tmp_path / "problem.json"
        text = json.dumps(_base_doc()).replace('"lag": 0.0', f'"lag": {literal}', 1)
        path.write_text(text, encoding="utf-8")
        code, out, err = _run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid input: $.linear_terms.atoms[0].lag: ")

    def test_non_finite_in_unknown_key(self, capsys, tmp_path):
        path = _malformed(tmp_path, _set(["comment"], NAN))
        code, out, err = _run(capsys, "analyze", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid input: $.comment: expected a finite number")

    def test_syntax_error_is_reported_before_non_finite(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"schema_version": 1, "n": NaN, "x": [1,}', encoding="utf-8")
        code, out, err = _run(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid input: ")
        assert "invalid JSON: Expecting value: line 1 column 41" in err


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(capsys, tmp_path, case):
    argv, field = MALFORMED[case]
    if callable(argv):
        argv = ["analyze", _malformed(tmp_path, argv)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(
        f"error: {CONFIG}: " if field == CONFIG else f"error: invalid input: {field}: "
    )
    assert "np.float64" not in err


NEGATIVE_FEEDBACK_LAG = {
    "discrete-atom": (
        {"type": "discrete", "atoms": [{"lag": -0.5, "weight": 1.0}]},
        "atoms[0].lag: lag must be nonnegative",
    ),
    "custom-atom": (
        {"type": "custom", "atoms": [
            {"lag": 0.5, "weight": 0.5}, {"lag": -1e-3, "weight": 0.5},
        ]},
        "atoms[1].lag: lag must be nonnegative",
    ),
    "custom-interval": (
        {"type": "custom", "densities": [{"interval": [-0.5, 0.5], "coeffs": [1.0]}]},
        "densities[0].interval: expected [a, b] with a >= 0",
    ),
    "custom-interval-short": (
        {"type": "custom", "densities": [{"interval": [0.5], "coeffs": [1.0]}]},
        "densities[0].interval: expected [a, b] with a >= 0",
    ),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_FEEDBACK_LAG))
def test_feedback_lag_outside_support_names_its_path(capsys, tmp_path, case):
    # as a negative lag in linear_terms is reported
    dist, message = NEGATIVE_FEEDBACK_LAG[case]
    path = _malformed(tmp_path, _set(["feedback", "distribution"], dist))
    code, out, err = _run(capsys, "analyze", path)
    assert (code, out) == (2, "")
    assert err == f"error: invalid input: $.feedback.distribution.{message}\n"


def test_entry_near_float_limit_warns_nothing(capsys, tmp_path):
    doc = json.loads((PROBLEMS / "scalar_lag.json").read_text(encoding="utf-8"))
    doc["linear_terms"]["atoms"][0]["matrix"] = [[-1e300]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "analyze", _write(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: HopfNotFound: Var(eta) = 1e+300 bounds the axis roots"
    )
    assert err.count("\n") == 1


COLON_FIELDS = {
    "rect-count": ("certify", "--rect=0:1:2", "expected reLo:reHi:imLo:imHi, got '0:1:2'"),
    "rect-number": (
        "certify", "--rect=0:1:a:b", "expected numbers reLo:reHi:imLo:imHi, got '0:1:a:b'"
    ),
    "rect-finite": (
        "certify", "--rect=-inf:1:-3:3",
        "expected finite numbers reLo:reHi:imLo:imHi, got '-inf:1:-3:3'",
    ),
    "kappa-count": ("scan", "--kappa=0:2", "expected A:B:N, got '0:2'"),
    "kappa-number": ("scan", "--kappa=0:1:1.5", "expected numbers A:B:N, got '0:1:1.5'"),
    "kappa-finite": ("scan", "--kappa=0:inf:5", "expected finite numbers A:B:N, got '0:inf:5'"),
}


@pytest.mark.parametrize("case", sorted(COLON_FIELDS))
def test_colon_fields_share_one_parser(capsys, case):
    command, option, message = COLON_FIELDS[case]
    code, out, err = _run(capsys, command, SHIPPED, option)
    name = option.split("=")[0]
    assert (code, out, err) == (2, "", f"error: invalid input: {name}: {message}\n")


@pytest.mark.parametrize(
    "kappa, argv",
    [(1e308, ["analyze"]), (1e308, ["verify"]), (1.0, ["scan", "--kappa", "0:1e308:3"])],
)
def test_non_finite_criterion_exits_2(capsys, tmp_path, kappa, argv):
    # q + kappa p overflows: no sign decides, and no row is written
    doc = json.loads(pathlib.Path(SHIPPED).read_text())
    doc["feedback"]["kappa"] = kappa
    code, out, err = _run(capsys, argv[0], _write(tmp_path, doc), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: NonFiniteCriterion: q + kappa p = -inf at q = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["analyze"], ["certify"], ["scan", "--kappa", "0:2:5"], ["verify"]]
)
def test_second_axis_pair_exits_2(capsys, argv):
    # pairs at pi and 4 pi: the one at 4 pi lies past the old search bound 10
    path = str(PROBLEMS / "hidden_axis_pair.json")
    code, out, err = _run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    prefix = "error: MultiplePairs: multiple imaginary-axis frequencies found: "
    assert err.startswith(prefix)
    omegas = json.loads(err[len(prefix):])
    assert omegas == pytest.approx([math.pi, 4.0 * math.pi], rel=1e-12)


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

    def test_large_gamma_shape(self, capsys, tmp_path):
        # a verdict, not a traceback with the exit code of a disagreement
        doc = _base_doc()
        doc["feedback"]["distribution"] = {
            "type": "truncated_gamma", "shape": 400, "rate": 0.4, "support": [900, 1100],
        }
        code, out, err = _run(capsys, "analyze", _write(tmp_path, doc))
        assert code in (0, 10, 11), err
        assert json.loads(out)["verdict"] in ("Stable", "Unstable", "Inconclusive")

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, "analyze", "does_not_exist.json")
        assert code == 2
        assert err

    def test_directory_as_file(self, capsys, tmp_path):
        # an input failure, not the exit code of a disagreement
        code, out, err = _run(capsys, "analyze", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_directory_as_out(self, capsys, tmp_path):
        code, out, err = _run(
            capsys, "analyze", str(PROBLEMS / "vdp_stabilized.json"), "--out", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

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

    def test_floats_written_as_their_shortest_repr(self):
        # every finite Python double, signed zeros too, is written as its
        # shortest repr and reads back bit for bit
        rng = np.random.default_rng(3)
        doubles = rng.integers(0, 2**64, 2000, dtype=np.uint64).view(float).tolist()
        values = [0.0, -0.0, 5e-324, -5e-324, 0.1, *filter(math.isfinite, doubles)]
        stream = io.StringIO()
        _emit_json(values, stream=stream)
        text = stream.getvalue()
        tokens = [line.strip().rstrip(",") for line in text.splitlines()[1:-1]]
        assert tokens == [repr(v) for v in values]
        assert tokens[:2] == ["0.0", "-0.0"]
        assert [v.hex() for v in json.loads(text)] == [v.hex() for v in values]


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

    @pytest.mark.parametrize("mode", [["--kappa", "0:2:5"], ["--mu", "0:1:5"]])
    def test_failed_certificate_exits_2(self, capsys, tmp_path, mode):
        # the root -0.02 lies in analyze's box: three roots, no certificate
        out_file = tmp_path / "scan.csv"
        code, out, err = _run(
            capsys, "scan", _padded_vdp(tmp_path, -0.02), *mode, "--out", str(out_file)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: spectral certificate failed: ")
        assert err.count("\n") == 1
        assert json.loads(err.split("failed: ", 1)[1])["root_count"] == 3
        assert not out_file.exists()

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

    @pytest.mark.parametrize("name", ["hidden_real_root", "hidden_fast_pair"])
    def test_verify_failed_certificate_exits_2(self, capsys, tmp_path, monkeypatch, name):
        # scan's one-line error, nothing written and nothing simulated
        def no_simulation(sim):
            raise AssertionError("simulated after a failed certificate")

        monkeypatch.setattr(pipeline, "integrate", no_simulation)
        out_file = tmp_path / "verify.json"
        code, out, err = _run(
            capsys, "verify", str(PROBLEMS / f"{name}.json"), "--out", str(out_file)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: spectral certificate failed: ")
        assert err.count("\n") == 1
        assert json.loads(err.split("failed: ", 1)[1])["hopf_pair_found"] is False
        assert not out_file.exists()

    def test_verify_below_threshold(self, capsys):
        code, out, _ = _run(
            capsys, "verify", str(PROBLEMS / "vdp_below_threshold.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["analysis"]["verdict"] == "Unstable"
        assert doc["simulation"]["classification"] == "Sustained"


def _padded_vdp(tmp_path, a):
    """vdp_stabilized with a third coordinate x3' = a x3, no nonlinearity."""
    doc = json.loads((PROBLEMS / "hidden_real_root.json").read_text())
    doc["linear_terms"]["atoms"][0]["matrix"][2][2] = a
    return _write(tmp_path, doc)


class TestCertify:
    @pytest.mark.parametrize("command", ["analyze", "certify"])
    @pytest.mark.parametrize("name", ["hidden_real_root", "hidden_fast_pair"])
    def test_root_outside_the_box_exits_2(self, capsys, command, name):
        # a root at 2, or a pair at 0.1 +- 8i, outside analyze's box
        code, out, _ = _run(capsys, command, str(PROBLEMS / f"{name}.json"))
        assert code == 2
        doc = json.loads(out)
        assert doc.get("certificate", doc)["hopf_pair_found"] is False

    @pytest.mark.parametrize(
        "a, re_lo, count",
        [(-0.05, -0.050001000000000004, 3), (-0.02, -0.05, 3)],
    )
    def test_undelayed_root_near_the_left_edge(self, capsys, tmp_path, a, re_lo, count):
        # a root on the left edge moves it by 1e-6; inside, it is counted
        code, out, _ = _run(capsys, "certify", _padded_vdp(tmp_path, a))
        assert code == 2
        doc = json.loads(out)
        assert doc["rectangle"]["re"] == [re_lo, 1.0]
        assert doc["root_count"] == count

    def test_undelayed_root_on_the_right_edge(self, capsys, tmp_path):
        # no move of the left edge takes the root 1 off the right one
        code, out, err = _run(capsys, "certify", _padded_vdp(tmp_path, 1.0))
        assert (code, out) == (2, "")
        assert err == "error: ContourFailure: characteristic root persists on the contour\n"

    def test_vdp_pair(self, capsys):
        code, out, _ = _run(capsys, "certify", str(PROBLEMS / "vdp_stabilized.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["root_count"] == 2
        assert doc["hopf_pair_found"] is True
        assert doc["rectangle"]["re"][0] == pytest.approx(-0.05)

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
        doc = json.loads(out)
        assert doc["root_count"] == 0
        assert doc["rectangle"]["im"] == [-5.0, 5.0]

    @pytest.mark.parametrize(
        "name", ["vdp_stabilized", "scalar_lag", "fast_rotation_uniform"]
    )
    def test_box_of_analyze(self, capsys, name):
        # certify counts in the box analyze certifies in, at omega = 1, pi/2, 12
        path = str(PROBLEMS / f"{name}.json")
        _, out, _ = _run(capsys, "analyze", path)
        want = json.loads(out)["certificate"]
        assert _run(capsys, "certify", path)[:2] == (0, json.dumps(want, indent=2) + "\n")

    def test_fast_lag_pair(self, capsys, tmp_path):
        # x' = -5 pi x(t - 0.1): a pair at omega = 5 pi, above 10
        doc = json.loads((PROBLEMS / "scalar_lag.json").read_text(encoding="utf-8"))
        doc["linear_terms"]["atoms"][0] = {"lag": 0.1, "matrix": [[-5.0 * math.pi]]}
        path = _write(tmp_path, doc)
        assert _run(capsys, "analyze", path)[0] == 11
        code, out, _ = _run(capsys, "certify", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["root_count"] == 2 and doc["hopf_pair_found"] is True
        assert doc["rectangle"]["im"][1] == pytest.approx(10.0 * math.pi)

    @pytest.mark.parametrize("name", ["vdp_stabilized", "scalar_lag", "no_hopf"])
    def test_one_hopf_search(self, capsys, monkeypatch, name):
        calls = []
        search = fde.find_hopf_pair

        def counted(L):
            calls.append(L)
            return search(L)

        monkeypatch.setattr(fde, "find_hopf_pair", counted)
        monkeypatch.setattr(cli, "find_hopf_pair", counted)
        _run(capsys, "certify", str(PROBLEMS / f"{name}.json"))
        assert len(calls) == 1


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


class TestParserReuse:
    CALLS = [
        ["analyze", SHIPPED],
        ["scan", SHIPPED, "--kappa", "0:2:5"],
        ["certify", SHIPPED],
    ]

    def test_outputs_match_a_fresh_parser(self, capsys):
        # one parser serves every call of a process, after failed ones too
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(_run(capsys, *argv))
        build_parser.cache_clear()
        parser = build_parser()
        code, _, err = _run(capsys, "scan", SHIPPED, "--kappa")
        assert code == 2 and "expected one argument" in err
        assert _run(capsys, *MALFORMED["delta-with-rect"][0])[0] == 2
        assert [_run(capsys, *argv) for argv in self.CALLS] == fresh
        assert build_parser() is parser

    @pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]])
    def test_help_returns_zero(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 0 and out.startswith("usage: hopfdelay") and err == ""

    @pytest.mark.parametrize(
        "argv", [[], ["analyze"], ["simulate", SHIPPED, "--t-end", "x"], ["frobnicate"]]
    )
    def test_malformed_command_line_returns_2(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage: hopfdelay")

    @pytest.mark.parametrize("command", ["analyze", "certify", "scan", "simulate", "verify"])
    def test_every_command_refuses_omega_max(self, capsys, command):
        # Var(eta) bounds the Hopf search; no option does
        code, out, err = _run(capsys, command, SHIPPED, "--omega-max", "3")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --omega-max 3" in err


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


STRICT_CALLS = [
    ["analyze"], ["certify"], ["verify"], ["simulate"],
    ["scan", "--kappa", "0:2:5"], ["scan", "--mu", "0:0.9:40"],
]


@pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.json")))
def test_every_json_document_is_strict(capsys, name):
    # a blow-up's decay ratio (simulate hidden_real_root) is written as null
    documents = []
    for command, *extra in STRICT_CALLS:
        _, out, err = _run(capsys, command, str(PROBLEMS / f"{name}.json"), *extra)
        for text in (out, err):
            if text.startswith("error: spectral certificate failed: "):
                documents.append(text.split("failed: ", 1)[1])
            elif text.startswith("{"):
                documents.append(text)
        if command == "simulate" and name == "hidden_real_root":
            blowup = {"classification": "Growth", "decay_ratio": None, "blowup": True}
            assert _strict(err) == blowup
    assert documents
    for text in documents:
        _strict(text)
