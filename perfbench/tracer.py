"""Span tracing of choiopt's public functions, from outside the package.

Tracer.install wraps each traced function at every name a caller uses: the
wrapper replaces the function in the namespace of every choiopt module that
binds it, so `choiopt.linalg.psd_sqrt`, `choiopt.solver.fidelity` and
`choiopt.analysis.solve` are all recorded.  A span holds its name, start,
end, parent span and root (spans of one top-level call share a root).  Spans
are kept in memory; summarize() reduces them to per-name self times, and
arrays() returns them for writing out.

Self time is a span's duration minus the durations of its direct children;
children of one span run one after another, so their durations do not
overlap.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Traced functions, "<module>.<function>" with the module relative to
# choiopt, and the unit their mean self time per call is reported in.
TRACED = {
    "models.analytic_r": "ms",
    "targets.build_r_quadrature": "ms",
    "targets.build_r_montecarlo": "ms",
    "targets.evaluate_family": "ms",
    "solver.solve": "ms",
    "solver.iterate_once": "us",
    "linalg.psd_sqrt": "us",
    "linalg.reg_inverse": "us",
    "linalg.herm_eig": "us",
    "linalg.partial_trace": "us",
    "linalg.kron": "us",
    "channels.fidelity": "us",
    "channels.require_valid_choi": "us",
    "channels.kraus_from_choi": "ms",
    "channels.dilation": "ms",
    "analysis.alpha_scan": "ms",
    "analysis.mc_fidelity": "ms",
    "analysis.state_fidelity_curve": "ms",
    "serialize.dump_json": "ms",
    "serialize.load_json": "ms",
    "cli.main": "ms",
}


@dataclass
class Summary:
    """Per-name totals over one or more passes."""

    self_s: Counter = field(default_factory=Counter)
    incl_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)

    def add(self, other: "Summary", scale: float = 1.0) -> None:
        """Add other's totals, its times multiplied by scale."""
        self.calls.update(other.calls)
        self.counts.update(other.counts)
        for name in ("self_s", "incl_s"):
            getattr(self, name).update({k: v * scale for k, v in getattr(other, name).items()})


class Tracer:
    """Records spans while `on` is set; install() puts the wrappers in place."""

    def __init__(self):
        self.on = False
        self.names: list[str] = list(TRACED)
        self._clear()

    def _clear(self) -> None:
        # Compact typed arrays: a traced pass can hold a few hundred thousand spans.
        self.name_ids = array("i")
        self.parents = array("q")
        self.roots = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.root = -1
        self.counts: Counter = Counter()

    def install(self) -> None:
        for qualified in self.names:
            importlib.import_module("choiopt." + qualified.split(".")[0])
        modules = [m for name, m in sys.modules.items() if name == "choiopt" or name.startswith("choiopt.")]
        for name_id, qualified in enumerate(self.names):
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules[f"choiopt.{module_name}"], func_name)
            wrapper = self._wrap(name_id, original, _HOOKS.get(qualified))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name_id: int, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(tracer.name_ids)
            if stack:
                tracer.parents.append(stack[-1])
            else:
                tracer.parents.append(-1)
                tracer.root += 1
            tracer.name_ids.append(name_id)
            tracer.roots.append(tracer.root)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_ids, dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int64),
            "root": np.array(self.roots, dtype=np.int64),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
        }

    def summarize(self) -> Summary:
        """Reduce the spans recorded since the last reset to a Summary."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        self_s = dur - covered
        n_names = len(self.names)
        s = Summary(counts=Counter(self.counts))
        sums_self = np.bincount(a["name_id"], weights=self_s, minlength=n_names)
        sums_incl = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        for i, name in enumerate(self.names):
            if calls[i]:
                s.self_s[name] = float(sums_self[i])
                s.incl_s[name] = float(sums_incl[i])
                s.calls[name] = int(calls[i])
        return s

    def reset(self) -> None:
        if self.stack:
            raise RuntimeError("reset inside an open span")
        self._clear()

    def parent_name(self) -> str | None:
        # Only valid inside a hook: the finished span is already popped.
        return self.names[self.name_ids[self.stack[-1]]] if self.stack else None


def _count_solve(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["solver.iterations"] += result.iterations
    tracer.counts["solver.unconverged"] += int(not result.converged)


def _count_samples(tracer: Tracer, args, kwargs, result) -> None:
    # Samples are attributed to the caller: building R or scoring chi.
    tracer.counts[f"samples:{tracer.parent_name()}"] += len(result[0])


def _count_dump(tracer: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["serialize.bytes"] += os.path.getsize(path)


def _count_load(tracer: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counts["serialize.bytes"] += os.path.getsize(path)


_HOOKS = {
    "solver.solve": _count_solve,
    "targets.evaluate_family": _count_samples,
    "serialize.dump_json": _count_dump,
    "serialize.load_json": _count_load,
}
