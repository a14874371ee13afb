"""hopfdelay benchmark: seeded workloads through the CLI, checked and timed.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze-mix --seed 1 --seconds 32 --trace 0

Each run generates the workload's problem files from --seed, measures the
set-up time in fresh interpreters, then calls `hopfdelay.cli.main` in this
process, one operation at a time (closed loop), in whole rounds until
--seconds have passed. Every time is taken to the reference machine's pace
with a calibration loop timed next to it (see pace.py). Every output is
checked against the benchmark's own reference computations. With --trace 0 the last line of standard output is
a JSON object with the end-to-end metrics; with --trace 1 the calls into
each layer are traced and the per-layer metrics are printed instead. See
bench/README.md.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP before NumPy is imported, here and in child interpreters
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HOPFDELAY_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED = ROOT / "problems"
OUT = HERE / "out"

SETUP_REPEATS = 8  # before and again after the timed rounds
SETUP_SNIPPET = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hopfdelay\n"
    "from hopfdelay.problem import load_problem\n"
    "for path in sys.argv[2:]:\n"
    "    load_problem(path)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("analyze-mix", "scan-mu", "verify-sim")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(paths):
    """Wall times of fresh interpreters that import and load all inputs.

    These are not paced: a start spends much of its time in the kernel
    (exec, mappings, page faults), and it slowed down far less than the
    calibration in slow phases, so pacing made its spread larger.
    """
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *paths]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=os.environ.copy(), cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def run_op(cli, op, out_path):
    """One operation: cli.main on the op's input; returns (rc, output, stderr).

    cli.main is looked up at each call, so a traced round reaches the
    wrapper that the tracer put in its place.
    """
    argv = [op.command, op.path, "--out", out_path, *op.args]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
    try:
        with open(out_path, encoding="utf-8") as fh:
            out = fh.read()
        os.remove(out_path)
    except FileNotFoundError:
        out = ""
    return rc, out, err.getvalue()


def run_rounds(cli, ops, out_path, seconds, tracer=None):
    """Whole rounds of `ops` until `seconds` have passed.

    Returns (untraced, traced) records (index, paced time, wall time,
    calibration time, rc, output, stderr). A calibration is timed before
    every operation and once after the last, and each operation is paced
    by the median of the two calibrations before it and the two after it.
    With a tracer, rounds alternate between untraced and traced, so both
    halves see the same machine and their difference is the tracing
    overhead. Repeated outputs are kept once (the rounds repeat the same
    inputs).
    """
    runs, cal = [], []  # (traced, index, wall time, rc, out, err), in order
    seen = {}
    t_start = time.perf_counter()
    while True:
        for in_trace in (False, True) if tracer else (False,):
            if in_trace:
                tracer.install()
            for index, op in enumerate(ops):
                cal.append(pace.timed())
                t0 = time.perf_counter()
                rc, out, err = run_op(cli, op, out_path)
                dur = time.perf_counter() - t0
                out, err = seen.setdefault(out, out), seen.setdefault(err, err)
                runs.append((in_trace, index, dur, rc, out, err))
            if in_trace:
                tracer.uninstall()
        if time.perf_counter() - t_start >= seconds:
            break
    cal.append(pace.timed())
    plain, traced = [], []
    for k, (in_trace, index, dur, *rest) in enumerate(runs):
        paced = dur * pace.factor(cal[max(0, k - 1) : k + 3])
        (traced if in_trace else plain).append((index, paced, dur, cal[k], *rest))
    return plain, traced


def check_records(ops, records, checks):
    """Check every output; identical outputs of one op are checked once."""
    verdicts = {}
    failed = wrong = 0
    notes = []
    for index, _, _, _, rc, out, err in records:
        key = (index, rc, out, err)
        if key not in verdicts:
            op = ops[index]
            if isinstance(rc, str):
                verdicts[key] = ("crash", [rc])
            else:
                problems = checks.check(op, rc, out, err)
                verdicts[key] = ("wrong" if problems else "ok", problems)
        status, problems = verdicts[key]
        if status != "ok":
            failed += 1
            wrong += status == "wrong"
            notes.append(f"{ops[index].name}: {'; '.join(problems)}")
    return failed, wrong, sorted(set(notes))


def paced_times(records, n_ops):
    """Median paced time of each operation of the round over the rounds."""
    times = [[] for _ in range(n_ops)]
    for index, paced, *_ in records:
        times[index].append(paced)
    return [statistics.median(t) for t in times]


def e2e_metrics(ops, records, setup_s):
    """End-to-end metrics from each operation's median paced time.

    All rounds run the same operations, so the operations of a round are
    weighted alike whatever the number of rounds.
    """
    work = [0] * len(ops)  # mu points or RK4 steps delivered by each op
    for index, _, _, _, rc, out, _ in records:
        op = ops[index]
        if isinstance(rc, str) or not out:
            continue
        if op.command == "scan":
            work[index] = out.count("\n") - 1
        elif op.command == "verify":
            try:
                t_end = json.loads(out)["simulation"]["t_end"]
            except (ValueError, KeyError):
                continue
            work[index] = round(t_end / op.problem["simulation"]["dt"])
    times = paced_times(records, len(ops))

    def rate(command):
        idx = [i for i, op in enumerate(ops) if op.command == command]
        return sum(work[i] for i in idx) / sum(times[i] for i in idx)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(times), "1/s"),
        "op_ms.p50": (statistics.median(times) * 1e3, "ms"),
        "mu_points_per_s": (rate("scan"), "1/s"),
        "rk4_steps_per_s": (rate("verify"), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hopfdelay" / "__init__.py").is_file():
        print(f"error: no hopfdelay package under {SRC}", file=sys.stderr)
        return 2
    if not SHIPPED.is_dir():
        print(f"error: no shipped problems under {SHIPPED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed, SHIPPED, run_dir / "inputs")

    paths = sorted({op.path for op in ops})
    setup_times = measure_setup(paths)

    from hopfdelay import cli

    out_path = str(run_dir / "out.txt")
    # warm-up: one operation of each command, untimed and unchecked
    for command in sorted({op.command for op in ops}):
        run_op(cli, next(op for op in ops if op.command == command), out_path)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    plain, traced = run_rounds(cli, ops, out_path, args.seconds, tracer)
    records = plain + traced
    setup_s = statistics.median(setup_times + measure_setup(paths))

    failed, wrong, notes = check_records(ops, records, checks)
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)

    if tracer is None:
        metrics = e2e_metrics(ops, records, setup_s)
    else:
        metrics, n_spans = tracer.layer_metrics(len(traced))
        with_spans = sum(paced_times(traced, len(ops)))
        without = sum(paced_times(plain, len(ops)))
        overhead = (with_spans - without) / without * 100.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        tracer.save(run_dir / "spans.npz")
        print(f"{n_spans} spans written to {run_dir / 'spans.npz'}", file=sys.stderr)

    result = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    with open(run_dir / "ops.csv", "w", encoding="utf-8") as fh:
        fh.write("name,kind,paced_seconds,wall_seconds,calibration_seconds\n")
        for index, paced, dur, cal, *_ in records:
            op = ops[index]
            fh.write(f"{op.name},{op.kind},{paced!r},{dur!r},{cal!r}\n")
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
