"""Spans around the public functions of each hopfdelay layer.

`Tracer.install` replaces each function listed in LAYERS by a wrapper in
every hopfdelay module that holds it by name (so `find_hopf_pair` is
wrapped both in hopfdelay.pipeline, which calls it from `analyze`, and in
hopfdelay.fde, where `certify_spectrum` calls it). Each call records a
span (name, start, end, parent) in flat arrays kept in memory; `save`
writes them out when the run ends and `layer_metrics` reduces them.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (defining module, function) for every layer boundary that is traced
LAYERS = (
    ("hopfdelay.cli", "main"),
    ("hopfdelay.problem", "load_problem"),
    ("hopfdelay.pipeline", "analyze"),
    ("hopfdelay.pipeline", "verify"),
    ("hopfdelay.fde", "find_hopf_pair"),
    ("hopfdelay.fde", "certify_spectrum"),
    ("hopfdelay.fde", "normalize_frequency"),
    ("hopfdelay.fde", "eigenbasis"),
    ("hopfdelay.fde", "char_matrix"),
    ("hopfdelay.measures", "integrate_matrix"),
    ("hopfdelay.measures", "scale_family"),
    ("hopfdelay.measures", "trig_moments"),
    ("hopfdelay.averaging", "compute_q"),
    ("hopfdelay.averaging", "p_from_structure"),
    ("hopfdelay.variance", "scan_mu"),
    ("hopfdelay.variance", "p_mu"),
    ("hopfdelay.simulate", "integrate"),
    ("hopfdelay.simulate", "classify"),
)


def _short(module):
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names = [f"{_short(m)}.{f}" for m, f in LAYERS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rk4_steps = 0
        self._stack = [-1]
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, ident):
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter
        count_steps = self.names[ident] == "simulate.integrate"

        def traced(*args, **kwargs):
            k = len(start)
            name_id.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(k)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()
            if count_steps:
                self.rk4_steps += len(result.times) - 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function wherever a hopfdelay module holds it."""
        modules = [m for n, m in sys.modules.items() if n.startswith("hopfdelay")]
        for ident, (mod_name, fn_name) in enumerate(LAYERS):
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, ident)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patched.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def save(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
        )

    def layer_metrics(self, n_ops):
        """Per-layer metrics: calls per op, mean time per call, self time."""
        name_id, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(name):
            return name_id == ids[name]

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def mean_ms(name):
            m = sel(name)
            return float(dur[m].mean()) * 1e3 if m.any() else 0.0

        per_op = {}
        for name in (
            "fde.char_matrix",
            "fde.find_hopf_pair",
            "measures.integrate_matrix",
            "variance.p_mu",
            "measures.scale_family",
            "measures.trig_moments",
        ):
            per_op[f"{name}_calls"] = (calls(name) / n_ops, "count/op")
        times = {}
        for name in (
            "fde.find_hopf_pair",
            "fde.certify_spectrum",
            "fde.eigenbasis",
            "fde.normalize_frequency",
            "variance.scan_mu",
            "simulate.integrate",
            "simulate.classify",
            "averaging.compute_q",
            "averaging.p_from_structure",
            "pipeline.analyze",
            "pipeline.verify",
            "problem.load_problem",
        ):
            times[f"{name}_ms"] = (mean_ms(name), "ms")
        for name in ("fde.char_matrix", "variance.p_mu", "measures.scale_family"):
            times[f"{name}_us"] = (mean_ms(name) * 1e3, "us")
        main = sel("cli.main")
        times["cli.main_self_ms"] = (float(self_time[main].mean()) * 1e3, "ms")
        integrate_s = float(dur[sel("simulate.integrate")].sum())
        steps = {
            "simulate.rk4_steps": (self.rk4_steps / n_ops, "count/op"),
            "simulate.step_us": (
                integrate_s / self.rk4_steps * 1e6 if self.rk4_steps else 0.0,
                "us",
            ),
        }
        return {**per_op, **times, **steps}, len(dur)
