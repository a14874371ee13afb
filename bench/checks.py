"""Output checks: each CLI result against the benchmark's own references.

A check returns a list of problems found (empty when the output holds).
References come from `oracle` and the generator, never from hopfdelay and
never from stored copies of earlier output. Tolerances are stated in
README.md, next to the reason for each.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import workloads

# documented CLI exit codes
EXIT_BY_VERDICT = {"Stable": 0, "Unstable": 10}

TOL_REL = 1e-10  # q, p, criterion, p_mu: closed forms agree to ~1e-14
TOL_OMEGA = 1e-9  # relative; Newton polish stops at 1e-13
TOL_ROOT_P = 1e-9  # |p_mu(mu*)| at a refined sign change (bisection stops at 1e-10)
TOL_RATIO_LOG = 0.05  # decay ratio: transients and discretization, see README


def _close(got, want, tol=TOL_REL):
    return abs(got - want) <= tol * max(1.0, abs(want))


def _expect_verdict(crit):
    return "Stable" if crit < 0 else "Unstable"


def _check_terms(errors, got, ref, kappa):
    crit = ref["q"] + kappa * ref["p"]
    for key, want in (("q", ref["q"]), ("p", ref["p"]), ("criterion", crit)):
        if not _close(got[key], want):
            errors.append(f"{key} {got[key]!r} != reference {want!r}")
    if got["verdict"] != _expect_verdict(crit):
        errors.append(f"verdict {got['verdict']} but criterion {crit!r}")


def check_analyze(op, rc, out, err):
    doc = json.loads(out)
    errors = []
    ref = op.ref
    if not _close(doc.get("omega", math.nan), ref["omega"], TOL_OMEGA):
        errors.append(f"omega {doc.get('omega')!r} != constructed {ref['omega']!r}")
    cert = doc.get("certificate", {})
    if cert.get("root_count") != 2 or cert.get("hopf_pair_found") is not True:
        errors.append(f"certificate {cert}")
        return errors
    _check_terms(errors, doc, ref, op.problem["feedback"]["kappa"])
    if rc != EXIT_BY_VERDICT.get(doc["verdict"]):
        errors.append(f"exit code {rc} for verdict {doc['verdict']}")
    return errors


def check_scan(op, rc, out, err):
    errors = []
    if rc != 0:
        return [f"exit code {rc}"]
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["mu", "p_mu", "criterion"]:
        return [f"header {rows[0]}"]
    data = np.array(rows[1:], dtype=float)
    mus, p_got, crit_got = data[:, 0], data[:, 1], data[:, 2]
    a, b, n = op.ref["grid"].split(":")
    grid = np.linspace(float(a), float(b), int(n))[1:]
    if mus.shape != grid.shape or np.any(mus != grid):
        return [f"mu column is not the requested grid ({len(mus)} rows)"]
    summary = json.loads(err)
    ref = op.ref
    kappa = op.problem["feedback"]["kappa"]
    p_ref = workloads.scan_reference(op.problem, ref, mus)
    scale = float(np.abs(p_ref).max())
    worst = float(np.abs(p_got - p_ref).max())
    if worst > TOL_REL * scale:
        errors.append(f"p_mu off the closed form by {worst:.3e} (scale {scale:.3e})")
    crit_ref = ref["q"] + kappa * p_ref
    worst = float(np.abs(crit_got - crit_ref).max())
    if worst > TOL_REL * (abs(ref["q"]) + abs(kappa) * scale):
        errors.append(f"criterion column off by {worst:.3e}")
    p0 = float(workloads.scan_reference(op.problem, ref, [0.0])[0])
    if not _close(summary["p0"], p0) or not _close(summary["q"], ref["q"]):
        errors.append(f"summary p0/q {summary['p0']!r}/{summary['q']!r}")

    # sign changes: the same brackets as the reference values give, each
    # refined to a zero of the reference p_mu
    flips = np.flatnonzero(p_ref[:-1] * p_ref[1:] < 0)
    want = [(float(mus[i]), float(mus[i + 1])) for i in flips]
    got = [(c["mu_lo"], c["mu_hi"]) for c in summary["sign_changes"]]
    if got != want:
        errors.append(f"sign-change brackets {got} != reference {want}")
        return errors
    dist = op.problem["feedback"]["distribution"]
    for c in summary["sign_changes"]:
        star = c["mu_star"]
        if not c["mu_lo"] <= star <= c["mu_hi"]:
            errors.append(f"mu* {star!r} outside its bracket")
            continue
        at_star = float(workloads.scan_reference(op.problem, ref, [star])[0])
        if abs(at_star) > TOL_ROOT_P + TOL_REL * scale:
            errors.append(f"p_mu(mu*={star!r}) = {at_star:.3e}")
        if dist["type"] == "uniform":
            unit = math.pi / (ref["omega"] * dist["halfwidth"])
            k = round(star / unit)
            if abs(star - k * unit) > 1e-6 * k * unit:
                errors.append(f"mu* {star!r} is not a zero k*pi/(omega w)")
    if dist["type"] in ("uniform", "triangular"):
        bound = abs(summary["p0"]) * (1.0 + 1e-12) + 1e-15
        if float(np.abs(p_got).max()) > bound:
            errors.append("|p_mu| exceeds |p0| for a symmetric kernel")
    return errors


def check_verify(op, rc, out, err):
    doc = json.loads(out)
    errors = []
    sim, analysis = doc["simulation"], doc["analysis"]
    label = sim["classification"]
    if sim["blowup"] or sim["t_end"] != op.problem["simulation"]["t_end"]:
        errors.append(f"simulation stopped at t={sim['t_end']!r}")
    if doc["agreement"] != "agree" or rc != 0:
        errors.append(f"agreement {doc['agreement']} exit {rc}")
    if op.kind == "verify.vdp":
        verdict, labels = op.ref["verdict"], op.ref["labels"]
        if analysis["verdict"] != verdict or label not in labels:
            errors.append(f"{analysis['verdict']}/{label}, paper: {verdict}/{labels}")
        ref = workloads.vdp_reference(op.problem)
        _check_terms(errors, analysis, ref, op.problem["feedback"]["kappa"])
        return errors
    ref = op.ref
    if not _close(doc["omega"], ref["omega"], TOL_OMEGA):
        errors.append(f"omega {doc['omega']!r} != constructed {ref['omega']!r}")
    _check_terms(errors, analysis, ref, op.problem["feedback"]["kappa"])
    root = ref["root"]
    want = "Growth" if root.real > 0 else "Decay"
    if label != want:
        errors.append(f"label {label}, exact root {root!r}")
    # ln(decay ratio) against Re(lambda*) over half the span; the peaks of
    # the two windows may sit up to one period of |x| (pi/omega) apart
    expect = root.real * sim["t_end"] / 2.0
    slack = abs(root.real) * math.pi / root.imag + TOL_RATIO_LOG
    if abs(math.log(sim["decay_ratio"]) - expect) > slack:
        errors.append(
            f"decay ratio {sim['decay_ratio']!r} vs exp({expect:.4f}) beyond {slack:.3f}"
        )
    return errors


CHECKS = {"analyze": check_analyze, "scan": check_scan, "verify": check_verify}


def check(op, rc, out, err):
    try:
        return CHECKS[op.command](op, rc, out, err)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
