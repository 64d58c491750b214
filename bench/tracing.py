"""Spans around the public functions of each ``toepspec`` module.

``install`` wraps every public function defined in the six modules (and the
methods in ``METHODS``) and rebinds the wrapper under every ``toepspec``
namespace that holds the original, so calls through ``from .x import f``
bindings and call-time imports are traced too.  Spans (name, start, end,
parent) stay in memory until ``export``.

Reference computations made in a hook (the LAPACK sigma next to every
``smallest_singular_value`` call) run on a clock that is paused, so no span,
including the enclosing ones, pays for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

from checks import sigma_check

MODULES = ("cli", "analysis", "spectra", "linalg", "sections", "symbols")
METHODS = (("symbols", "SymbolCurve", "distance_to"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._paused = 0.0
        self.eigen: list[tuple[int, bool]] = []  # (sweeps, converged)
        self.sigma: list[tuple[bool, float | None]] = []  # sigma_check results

    def now(self) -> float:
        """Clock that excludes time spent in hooks."""
        return time.perf_counter() - self._paused

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.now(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = self.now()
                self._stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                hook(self, args, kwargs, result)
                self._paused += time.perf_counter() - t0
            return result

        return traced

    def export(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
            "eigen": self.eigen,
            "sigma": self.sigma,
        }


def _eigen_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.eigen.append((int(result.sweeps), bool(result.converged)))


def _sigma_hook(tracer: Tracer, args, kwargs, result) -> None:
    a = np.asarray(args[0] if args else kwargs["a"], dtype=complex)
    lam = complex(args[1] if len(args) > 1 else kwargs.get("lam", 0j))
    tracer.sigma.append(sigma_check(float(result), a - lam * np.eye(a.shape[0])))


HOOKS = {
    "linalg.eigenvalues": _eigen_hook,
    "linalg.smallest_singular_value": _sigma_hook,
}


def install() -> Tracer:
    """Wrap and rebind the public functions of every traced module."""
    tracer = Tracer()
    package = importlib.import_module("toepspec")
    modules = {m: importlib.import_module(f"toepspec.{m}") for m in MODULES}
    namespaces = [package, *modules.values()]

    def rebind(original, wrapped) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)

    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            rebind(obj, tracer.wrap(name, obj, HOOKS.get(name)))
    for short, cls_name, meth in METHODS:
        cls = getattr(modules[short], cls_name)
        name = f"{short}.{cls_name}.{meth}"
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), HOOKS.get(name)))
    return tracer


def layer_stats(names: list[str], spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    ``s`` counts only outermost calls of a name, so recursion is not counted
    twice; ``self_s`` is the duration minus the time of direct child spans.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (ni, start, end, parent) in enumerate(spans):
        st = stats.setdefault(names[ni], {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != ni:
            p = spans[p][3]
        if p < 0:
            st["s"] += end - start
    return stats
