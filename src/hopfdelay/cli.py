"""Command-line interface: analyze | scan | simulate | verify | certify.

Exit codes: 0 stable (or agreement / certificate found), 10 unstable,
11 inconclusive, 1 verification disagreement, 2 precondition or input
failure. Output formatting is fixed (17 significant digits, LF endings) so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .exceptions import HopfDelayError, SchemaError
from .fde import certify_spectrum
from .pipeline import analyze, build_sim_problem, verify
from .problem import load_problem
from .simulate import classify, integrate
from .variance import scan_mu

EXIT_STABLE = 0
EXIT_UNSTABLE = 10
EXIT_INCONCLUSIVE = 11
EXIT_DISAGREE = 1
EXIT_PRECONDITION = 2


def _fmt(x):
    if x is None:
        return ""
    return format(float(x), ".17g")


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    if isinstance(obj, float):
        return float(format(obj, ".17g"))
    if isinstance(obj, (np.floating,)):
        return float(format(float(obj), ".17g"))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return str(obj)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out):
    _emit(json.dumps(_jsonable(obj), indent=2) + "\n", out)


def _parse_range(spec, name):
    parts = spec.split(":")
    if len(parts) != 3:
        raise SchemaError(name, f"expected A:B:N, got {spec!r}")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2 or b <= a:
        raise SchemaError(name, "need B > A and N >= 2")
    return np.linspace(a, b, n)


def _verdict_exit(report):
    return {
        "Stable": EXIT_STABLE,
        "Unstable": EXIT_UNSTABLE,
        "Inconclusive": EXIT_INCONCLUSIVE,
    }[report.verdict]


def _cmd_analyze(args):
    problem = load_problem(args.file)
    result = analyze(problem, omega_max=args.omega_max)
    if not result.certificate.hopf_pair_found:
        _emit_json(
            {
                "error": "spectral certificate failed",
                "certificate": {
                    "rectangle": result.certificate.rectangle,
                    "root_count": result.certificate.root_count,
                    "hopf_pair_found": False,
                },
            },
            args.out,
        )
        return EXIT_PRECONDITION
    doc = result.report.to_dict()
    doc["omega"] = result.omega
    doc["certificate"] = {
        "rectangle": result.certificate.rectangle,
        "root_count": result.certificate.root_count,
        "hopf_pair_found": result.certificate.hopf_pair_found,
    }
    _emit_json(doc, args.out)
    return _verdict_exit(result.report)


def _cmd_scan(args):
    if (args.mu is None) == (args.kappa is None):
        raise SchemaError("scan", "pass exactly one of --mu or --kappa")
    problem = load_problem(args.file)
    result = analyze(problem, omega_max=args.omega_max)
    pert = result.normalized_pert
    report = result.report

    if args.kappa is not None:
        kappas = _parse_range(args.kappa, "--kappa")
        lines = ["kappa,criterion"]
        for k in kappas:
            lines.append(f"{_fmt(k)},{_fmt(report.q + k * report.p)}")
        summary = {"q": report.q, "p": report.p}
        if report.p != 0.0:
            summary["kappa_star"] = -report.q / report.p
        _emit("\n".join(lines) + "\n", args.out)
        json.dump(_jsonable(summary), sys.stderr, indent=2)
        sys.stderr.write("\n")
        return EXIT_STABLE

    from .exceptions import NotFactored

    if not pert.factored:
        raise NotFactored("--mu scan needs factored feedback C*h")
    if not pert.distribution.probability:
        raise SchemaError(
            "$.feedback.distribution", "--mu scan needs a probability distribution"
        )
    mus = _parse_range(args.mu, "--mu")
    mus = mus[mus > 0.0]
    from .measures import moments

    _, tau_bar, _ = moments(pert.distribution)
    scan = scan_mu(
        pert.structure_matrix,
        pert.distribution,
        tau_bar,
        mus.tolist(),
        result.hopf,
    )
    lines = ["mu,p_mu,criterion"]
    for mu, p in zip(scan.mu_grid, scan.p_values):
        lines.append(f"{_fmt(mu)},{_fmt(p)},{_fmt(report.q + pert.kappa * p)}")
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
    json.dump(_jsonable(summary), sys.stderr, indent=2)
    sys.stderr.write("\n")
    return EXIT_STABLE


def _trajectory_csv(traj):
    n = traj.states.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",R"
    lines = [header]
    for t, row, r in zip(traj.times, traj.states, traj.amplitude):
        lines.append(
            ",".join([_fmt(t)] + [_fmt(v) for v in row] + [_fmt(r)])
        )
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
    json.dump(
        _jsonable(
            {
                "classification": traj.classification,
                "decay_ratio": traj.decay_ratio,
                "blowup": traj.blowup,
            }
        ),
        sys.stderr,
        indent=2,
    )
    sys.stderr.write("\n")
    return EXIT_STABLE


def _cmd_verify(args):
    problem = load_problem(args.file)
    analysis, traj, agreement = verify(
        problem, omega_max=args.omega_max, t_end=args.t_end, dt=args.dt
    )
    doc = {
        "analysis": analysis.report.to_dict(),
        "omega": analysis.omega,
        "simulation": {
            "classification": traj.classification,
            "decay_ratio": traj.decay_ratio,
            "blowup": traj.blowup,
            "t_end": float(traj.times[-1]),
        },
        "agreement": agreement,
    }
    if agreement == "within_band":
        doc["note"] = "finite-epsilon effect inside |q + kappa p| <= 0.1 band"
    _emit_json(doc, args.out)
    return EXIT_STABLE if agreement in ("agree", "within_band") else EXIT_DISAGREE


def _cmd_certify(args):
    problem = load_problem(args.file)
    delta = args.delta
    if args.rect:
        parts = args.rect.split(":")
        if len(parts) != 4:
            raise SchemaError("--rect", f"expected reLo:reHi:imLo:imHi, got {args.rect!r}")
        re_lo, re_hi, im_lo, im_hi = (float(p) for p in parts)
        delta = -re_lo
    else:
        re_hi, im_lo, im_hi = 1.0, -10.0, 10.0
    cert = certify_spectrum(problem.linear, delta, re_hi, im_lo, im_hi)
    _emit_json(
        {
            "rectangle": cert.rectangle,
            "root_count": cert.root_count,
            "hopf_pair_found": cert.hopf_pair_found,
        },
        args.out,
    )
    return EXIT_STABLE if cert.hopf_pair_found else EXIT_PRECONDITION


def build_parser():
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
        p.add_argument(
            "--omega-max",
            type=float,
            default=10.0,
            help="upper bound of the Hopf frequency search (default 10)",
        )

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
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="cross-check the verdict against simulation")
    common(p)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="count characteristic roots in a rectangle")
    common(p)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--rect", default=None, metavar="reLo:reHi:imLo:imHi")
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except HopfDelayError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
