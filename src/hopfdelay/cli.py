"""Command-line interface: analyze | scan | simulate | verify | certify.

Exit codes: 0 stable (or agreement / certificate found), 10 unstable,
11 inconclusive, 1 verification disagreement, 2 precondition or input
failure, a failed spectral certificate among them. Output formatting is
fixed (17 significant digits, LF endings) so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import os

# One BLAS thread unless the user chose a count: every product here is
# small, and a second thread only adds waiting. BLAS reads these when NumPy
# loads, so they are set before the first import that loads it.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from .averaging import criterion  # noqa: E402
from .exceptions import CertificateFailed, HopfDelayError, HopfNotFound, NotFactored, SchemaError  # noqa: E402
from .fde import CERT_DELTA, certificate_box, certify_spectrum, find_hopf_pair  # noqa: E402
from .pipeline import analyze, build_sim_problem, certified, verify  # noqa: E402
from .problem import load_problem  # noqa: E402
from .simulate import classify, integrate  # noqa: E402
from .variance import scan_mu  # noqa: E402

EXIT_STABLE = 0
EXIT_UNSTABLE = 10
EXIT_INCONCLUSIVE = 11
EXIT_DISAGREE = 1
EXIT_PRECONDITION = 2
VERDICT_EXIT = {
    "Stable": EXIT_STABLE, "Unstable": EXIT_UNSTABLE, "Inconclusive": EXIT_INCONCLUSIVE
}

MAX_RANGE_POINTS = 10**6  # largest N of an A:B:N range


def _emit(text, out=None, stream=None):
    """Write text to the file out, else to stream (default stdout)."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        (stream or sys.stdout).write(text)


def _emit_json(obj, out=None, stream=None):
    _emit(json.dumps(obj, indent=2) + "\n", out, stream)


def _parse_fields(spec, name, form, kinds):
    """The colon-separated fields of the option's spec, read by kinds (float
    or int) in turn; form (say "A:B:N") names them in the messages. Every
    float must be finite."""
    parts = spec.split(":")
    if len(parts) != len(kinds):
        raise SchemaError(name, f"expected {form}, got {spec!r}")
    try:
        values = [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError:
        raise SchemaError(name, f"expected numbers {form}, got {spec!r}") from None
    if not all(math.isfinite(v) for v in values if type(v) is float):
        raise SchemaError(name, f"expected finite numbers {form}, got {spec!r}")
    return values


def _parse_range(spec, name):
    a, b, n = _parse_fields(spec, name, "A:B:N", (float, float, int))
    if n < 2 or b <= a:
        raise SchemaError(name, "need B > A and N >= 2")
    if n > MAX_RANGE_POINTS:
        raise SchemaError(name, f"need N <= {MAX_RANGE_POINTS}, got {n}")
    return np.linspace(a, b, n)


def _simulation_doc(traj):
    """The simulation block of simulate and verify. A missing decay ratio, or
    one that is not finite (a blow-up, which blowup reports), is null."""
    ratio = traj.decay_ratio
    return {
        "classification": traj.classification,
        "decay_ratio": ratio if ratio is not None and math.isfinite(ratio) else None,
        "blowup": traj.blowup,
    }


def _cmd_analyze(args):
    problem = load_problem(args.file)
    result = analyze(problem)
    cert = vars(result.certificate)
    if not result.certificate.hopf_pair_found:
        error = {"error": "spectral certificate failed", "certificate": cert}
        _emit_json(error, args.out)
        return EXIT_PRECONDITION
    doc = {**result.report.to_dict(), "omega": result.omega, "certificate": cert}
    _emit_json(doc, args.out)
    return VERDICT_EXIT[result.report.verdict]


def _cmd_scan(args):
    if (args.mu is None) == (args.kappa is None):
        raise SchemaError("scan", "pass exactly one of --mu or --kappa")
    # the range is checked first: its error is not masked by the analysis's
    if args.kappa is not None:
        kappas = _parse_range(args.kappa, "--kappa").tolist()
    else:
        mus = _parse_range(args.mu, "--mu")
        if mus[0] < 0.0:
            raise SchemaError("--mu", f"need A >= 0, got {args.mu!r}")
    problem = load_problem(args.file)
    result = certified(analyze(problem))
    report = result.report

    if args.kappa is not None:
        lines = ["kappa,criterion"]
        lines += [
            "%.17g,%.17g" % (k, criterion(report.q, report.p, k)) for k in kappas
        ]
        summary = {"q": report.q, "p": report.p}
        if report.p != 0.0:
            summary["kappa_star"] = -report.q / report.p
        _emit("\n".join(lines) + "\n", args.out)
        _emit_json(summary, stream=sys.stderr)
        return EXIT_STABLE

    pert = problem.pert
    if not pert.factored:
        raise NotFactored("--mu scan needs factored feedback C*h")
    # mu = 0 is the discrete delay, p0 in the summary
    mus = mus[mus > 0.0]
    scan = scan_mu(pert.structure_matrix, pert.distribution, mus.tolist(), result.hopf)
    lines = ["mu,p_mu,criterion"]
    lines += [
        "%.17g,%.17g,%.17g" % (mu, p, criterion(report.q, p, pert.kappa))
        for mu, p in zip(scan.mu_grid, scan.p_values)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    summary = {
        "p0": scan.p0,
        "q": report.q,
        "kappa": pert.kappa,
        "sign_changes": [
            {"mu_lo": a, "mu_hi": b, "mu_star": r}
            for a, b, r in scan.sign_changes
        ],
    }
    _emit_json(summary, stream=sys.stderr)
    return EXIT_STABLE


def _trajectory_csv(traj):
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",R"
    row_format = ",".join(["%.17g"] * (n + 2))
    lines = [header]
    lines += [
        row_format % (t, *row, r)
        for t, row, r in zip(
            traj.times.tolist(), traj.states.tolist(), traj.amplitude.tolist()
        )
    ]
    return "\n".join(lines) + "\n"


def _cmd_simulate(args):
    problem = load_problem(args.file)
    sim = build_sim_problem(problem, t_end=args.t_end, dt=args.dt)
    traj = integrate(sim)
    try:
        classify(traj)
    except HopfDelayError:
        traj.classification = "Undetermined"
    _emit(_trajectory_csv(traj), args.out)
    _emit_json(_simulation_doc(traj), stream=sys.stderr)
    return EXIT_STABLE


def _cmd_verify(args):
    problem = load_problem(args.file)
    analysis, traj, agreement = verify(problem, t_end=args.t_end, dt=args.dt)
    doc = {
        "analysis": analysis.report.to_dict(),
        "omega": analysis.omega,
        "simulation": {**_simulation_doc(traj), "t_end": float(traj.times[-1])},
        "agreement": agreement,
    }
    if agreement == "within_band":
        doc["note"] = "finite-epsilon effect inside |q + kappa p| <= 0.1 band"
    _emit_json(doc, args.out)
    return EXIT_STABLE if agreement in ("agree", "within_band") else EXIT_DISAGREE


def _cmd_certify(args):
    problem = load_problem(args.file)
    delta = CERT_DELTA if args.delta is None else args.delta
    if args.rect:
        if args.delta is not None:
            raise SchemaError("--delta", "--rect sets delta = -reLo; give one of the two")
        re_lo, re_hi, im_lo, im_hi = _parse_fields(
            args.rect, "--rect", "reLo:reHi:imLo:imHi", (float,) * 4
        )
        if not (re_lo < re_hi and im_lo < im_hi):
            raise SchemaError(
                "--rect", f"need reLo < reHi and imLo < imHi, got {args.rect!r}"
            )
        box = -re_lo, re_hi, im_lo, im_hi
    try:
        omega = find_hopf_pair(problem.linear)
    except HopfNotFound:
        omega = 0.0  # no pair: the default box is that of omega = 0
    if not args.rect:
        box = certificate_box(omega, delta)
        if not -delta < box[1]:
            raise SchemaError("--delta", f"need delta > {-box[1]}, got {delta}")
    cert = certify_spectrum(problem.linear, *box, omega=omega)
    _emit_json(vars(cert), args.out)
    return EXIT_STABLE if cert.hopf_pair_found else EXIT_PRECONDITION


@functools.cache
def build_parser():
    """One parser per process: parse_args returns a fresh Namespace per call."""
    parser = argparse.ArgumentParser(
        prog="hopfdelay",
        description=(
            "Stability of delayed-feedback systems near a Hopf bifurcation: "
            "averaging criterion, delay-variance scans, and simulation checks"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (JSON, schema_version 1)")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    def horizon(p):
        p.add_argument("--t-end", type=float, default=None)
        p.add_argument("--dt", type=float, default=None)

    p = sub.add_parser("analyze", help="stability verdict from the averaged criterion")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("scan", help="sweep p over mu (delay variance) or the gain kappa")
    common(p)
    p.add_argument("--mu", default=None, metavar="A:B:N")
    p.add_argument("--kappa", default=None, metavar="A:B:N")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("simulate", help="integrate the full delayed system")
    common(p)
    horizon(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="cross-check the verdict against simulation")
    common(p)
    horizon(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="count characteristic roots in a rectangle")
    common(p)
    p.add_argument(
        "--delta", type=float, default=None,
        help="count roots with Re >= -delta in the default rectangle (default 0.05)",
    )
    p.add_argument("--rect", default=None, metavar="reLo:reHi:imLo:imHi")
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a malformed line
        return EXIT_PRECONDITION if exc.code else EXIT_STABLE
    try:
        for name in ("t_end", "dt", "delta"):
            value = getattr(args, name, None)
            if value is not None and not math.isfinite(value):
                option = "--" + name.replace("_", "-")
                raise SchemaError(option, f"{value} is not a finite number")
        return args.func(args)
    except CertificateFailed as exc:
        cert = json.dumps(vars(exc.certificate))
        print(f"error: spectral certificate failed: {cert}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SchemaError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except HopfDelayError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:  # a missing or unreadable file, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
