"""The shipped problems' CLI outputs, pinned in tests/data/cli_golden.json.

Each call's exit code and parsed stdout and stderr (JSON, CSV rows, or the
error line) must match the file: strings, integers, booleans and exit codes
exactly, floats to 1e-9 relative (a float pinned at 0.0 to 1e-12 absolute),
so a NumPy or BLAS build that rounds apart in the last bits still passes.
On a mismatch the test prints the call's new record. After a deliberate
change of outputs, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

from hopfdelay.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

CALLS = [
    [command, f"problems/{path.name}", *extra]
    for path in sorted((ROOT / "problems").glob("*.json"))
    for command, *extra in (
        ["analyze"], ["certify"], ["verify"], ["scan", "--kappa", "0:2:5"],
    )
] + [
    ["scan", "problems/vdp_uniform.json", "--mu", "0:12.6:500"],
    ["scan", "problems/custom_asymmetric.json", "--mu", "0:2.7:400"],
    ["scan", "problems/fast_rotation_uniform.json", "--mu", "0:2.9:300"],
]


def _parse(text):
    if not text or text.startswith("error: "):
        return text
    try:
        return json.loads(text)
    except ValueError:
        return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _record(call):
    """Exit code and parsed outputs of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([call[0], str(ROOT / call[1]), *call[2:]])
    return {
        "exit": code,
        "stdout": _parse(out.getvalue()),
        "stderr": _parse(err.getvalue()),
    }


def _same(got, want):
    if isinstance(want, float) and type(got) is float:
        if want == 0.0:
            return abs(got) <= 1e-12
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


def _id(call):
    """analyze-vdp_stabilized, scan-vdp_uniform-mu, ..."""
    return "-".join([call[0], pathlib.Path(call[1]).stem, *(a[2:] for a in call[2:3])])


@pytest.mark.parametrize("call", CALLS, ids=_id)
def test_shipped_output_matches_golden(call):
    want = json.loads(GOLDEN.read_text(encoding="utf-8")).get(" ".join(call))
    got = _record(call)
    if want is None or not _same(got, want):
        pytest.fail(f"new record for {' '.join(call)!r}:\n{json.dumps(got, indent=1)}")


def test_golden_covers_every_call():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == {" ".join(call) for call in CALLS}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {" ".join(call): _record(call) for call in CALLS}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
